//! `Serialize::write_json` streams exactly the bytes of the `Value` tree
//! rendered compact (`serde::write_value(.., None, 0)`), which is what
//! `serde_json::to_string` wrote before it streamed — pinned here on every
//! derive shape, on the vendored writer's pinned document, and on real
//! plans, since the wire's plan JSON must stay byte-identical.

use raqo_catalog::tpch::TpchSchema;
use raqo_catalog::QuerySpec;
use raqo_core::{PlannerKind, RaqoOptimizer, RaqoPlan, ResourceStrategy};
use raqo_cost::SimOracleCost;
use raqo_resource::{CacheLookup, ClusterConditions, PlanningBudget};
use serde::Serialize;

fn tree<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    serde::write_value(&mut out, &value.to_value(), None, 0);
    out
}

fn streamed<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

#[track_caller]
fn assert_streams_the_tree<T: Serialize + ?Sized>(value: &T) -> String {
    let json = streamed(value);
    assert_eq!(json, tree(value));
    json
}

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
struct Empty {}

#[derive(Serialize)]
struct NoFields();

#[derive(Serialize)]
struct Newtype(u32);

#[derive(Serialize)]
struct Pair(Vec<u8>, Empty);

#[derive(Serialize)]
struct Named {
    small: i64,
    big: u64,
    wide: f64,
    narrow: f32,
    text: Option<String>,
    items: Vec<Newtype>,
    fixed: [bool; 2],
    boxed: Box<Shape>,
}

#[derive(Serialize)]
enum Shape {
    Unit,
    Newtype(f64),
    Tuple(u8, bool),
    Named { x: f32, y: Box<Shape> },
    EmptyNamed {},
    EmptyTuple(),
}

#[test]
fn every_derive_shape_streams_its_tree() {
    assert_eq!(assert_streams_the_tree(&Unit), "null");
    assert_eq!(assert_streams_the_tree(&Empty {}), "{}");
    assert_eq!(assert_streams_the_tree(&NoFields()), "[]");
    assert_eq!(assert_streams_the_tree(&Newtype(7)), "7");
    assert_eq!(assert_streams_the_tree(&Pair(vec![1, 2], Empty {})), "[[1,2],{}]");
    let shapes = vec![
        Shape::Unit,
        Shape::Newtype(-1.5),
        Shape::Tuple(3, false),
        Shape::Named { x: 0.1, y: Box::new(Shape::Named { x: 2.0, y: Box::new(Shape::Unit) }) },
        Shape::EmptyNamed {},
        Shape::EmptyTuple(),
    ];
    assert_eq!(
        assert_streams_the_tree(&shapes),
        r#"["Unit",{"Newtype":-1.5},{"Tuple":[3,false]},{"Named":{"x":0.10000000149011612,"y":{"Named":{"x":2,"y":"Unit"}}}},{"EmptyNamed":{}},{"EmptyTuple":[]}]"#
    );
    let named = Named {
        small: -42,
        big: 1 << 60,
        wide: 1e16,
        narrow: f32::INFINITY,
        text: Some("tab\there".into()),
        items: vec![Newtype(1), Newtype(2)],
        fixed: [true, false],
        boxed: Box::new(Shape::Tuple(0, true)),
    };
    assert_streams_the_tree(&named);
    assert_streams_the_tree(&Named { text: None, items: vec![], ..named });
    assert_streams_the_tree(&[Some(1.25), None][..]);
    assert_streams_the_tree("q\"b\\n\nr\ru\u{1}é");
}

#[derive(Serialize)]
struct Flags {
    t: bool,
    z: Option<u8>,
}

#[derive(Serialize)]
struct Pinned {
    n: Vec<f64>,
    e: Pair,
    s: String,
    o: Flags,
}

/// The document `serde`'s `compact_and_pretty_bytes_are_pinned` renders,
/// built from derived types instead of a hand-made tree (with the key
/// `s\t` spelled `s`: a field name cannot hold a tab).
#[test]
fn the_pinned_document_streams_its_pinned_bytes() {
    let doc = Pinned {
        n: vec![3.0, -0.25, f64::NAN],
        e: Pair(vec![], Empty {}),
        s: "q\"b\\n\nr\ru\u{1}é".into(),
        o: Flags { t: true, z: None },
    };
    assert_eq!(
        assert_streams_the_tree(&doc),
        r#"{"n":[3,-0.25,null],"e":[[],{}],"s":"q\"b\\n\nr\ru\u0001é","o":{"t":true,"z":null}}"#
    );
}

fn optimizer(schema: &'static TpchSchema) -> RaqoOptimizer<'static, SimOracleCost> {
    static MODEL: std::sync::OnceLock<SimOracleCost> = std::sync::OnceLock::new();
    RaqoOptimizer::new(
        &schema.catalog,
        &schema.graph,
        MODEL.get_or_init(SimOracleCost::hive),
        ClusterConditions::paper_default(),
        PlannerKind::Selinger,
        ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.05 }),
    )
}

#[test]
fn real_plans_stream_their_trees() {
    let schema: &'static TpchSchema = Box::leak(Box::new(TpchSchema::new(1.0)));
    let mut full = optimizer(schema);
    let mut degraded = optimizer(schema);
    degraded.set_budget(PlanningBudget::with_max_evals(0));
    let mut plans: Vec<Option<RaqoPlan>> = Vec::new();
    for query in QuerySpec::tpch_full_suite() {
        plans.push(full.optimize(&query));
        plans.push(degraded.optimize(&query));
    }
    assert_eq!(plans.len(), 44);
    assert!(plans.iter().all(Option::is_some));
    assert!(plans.iter().any(|p| p.as_ref().unwrap().degradation.is_some()));
    for plan in &plans {
        assert_streams_the_tree(plan);
    }
    assert_streams_the_tree(&None::<RaqoPlan>);
}
