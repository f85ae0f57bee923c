//! Golden plans: `explain` text for a fixed set of queries under every
//! planner, snapshotted under `tests/golden/`. A change that is meant to
//! keep plans (a faster estimator, a collapsed duplicate path) must leave
//! these files byte-for-byte alone; a change that is meant to move plans
//! shows up as a reviewable diff after
//!
//! ```bash
//! RAQO_REGEN_GOLDEN=1 cargo test --test golden_plans
//! ```
//!
//! Every (query, planner) pair gets a fresh coster, so each snapshot is
//! independent of the others. The resource strategy is the benchmark's
//! (hill climbing behind a nearest-neighbour cache): the cache warms as
//! candidates are costed, so the snapshot pins the *order* in which a
//! planner submits candidates and their `JoinIo`s, not just the winner.
//! The trailing `getPlanCost calls` / `resource configurations` counts pin
//! how many candidates were costed.

use raqo::catalog::RandomSchema;
use raqo::core::{explain, RaqoCoster, RaqoPlan};
use raqo::planner::{
    CascadesConfig, CascadesPlanner, IdpPlanner, RandomizedPlanner, SelingerPlanner,
};
use raqo::prelude::*;
use std::path::PathBuf;

const REGEN_VAR: &str = "RAQO_REGEN_GOLDEN";

type Coster<'a> = RaqoCoster<'a, SimOracleCost>;
type Planner = fn(&Catalog, &JoinGraph, &QuerySpec, &mut Coster<'_>) -> Option<PlannedQuery>;

/// Every planner a plan can come out of, by the name its section carries
/// in the golden files.
const PLANNERS: [(&str, Planner); 4] = [
    ("selinger", |c, g, q, coster| SelingerPlanner::plan(c, g, q, coster).ok()),
    ("idp block=4", |c, g, q, coster| {
        IdpPlanner::plan(c, g, q, coster, IdpConfig { block_size: 4 }).ok()
    }),
    ("cascades", |c, g, q, coster| {
        CascadesPlanner::plan(c, g, q, coster, &CascadesConfig::default()).ok().map(|o| o.planned)
    }),
    ("randomized seed=42", |c, g, q, coster| {
        let config = RandomizedConfig { seed: 42, ..Default::default() };
        RandomizedPlanner::plan(c, g, q, coster, &config).map(|o| o.best)
    }),
];

fn plan_with(
    planner: Planner,
    catalog: &Catalog,
    graph: &JoinGraph,
    query: &QuerySpec,
    model: &SimOracleCost,
) -> RaqoPlan {
    let mut coster = RaqoCoster::new(
        model,
        ClusterConditions::paper_default(),
        ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.01 }),
        Objective::Time,
    );
    let query = planner(catalog, graph, query, &mut coster)
        .unwrap_or_else(|| panic!("no plan for {}", query.name));
    RaqoPlan { query, stats: coster.stats, degradation: None }
}

/// All four planners over `queries`, one `== query / planner ==` section each.
fn render(catalog: &Catalog, graph: &JoinGraph, queries: &[QuerySpec]) -> String {
    let model = SimOracleCost::hive();
    let mut out = String::new();
    for query in queries {
        for (name, planner) in PLANNERS {
            out.push_str(&format!("== {} / {name} ==\n", query.name));
            out.push_str(&explain(&plan_with(planner, catalog, graph, query, &model), catalog));
        }
    }
    out
}

fn check(name: &str, actual: String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os(REGEN_VAR).is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; generate it with {REGEN_VAR}=1", path.display()));
    if expected != actual {
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "{name} differs from the golden at line {}:\n  golden: {:?}\n  actual: {:?}\n\
             if the plan change is intended, regenerate with {REGEN_VAR}=1 and review the diff",
            line + 1,
            expected.lines().nth(line),
            actual.lines().nth(line),
        );
    }
}

fn whole_schema_query(name: &str, schema: &RandomSchema) -> QuerySpec {
    QuerySpec::new(name, schema.catalog.table_ids().collect())
}

#[test]
fn tpch_22_query_suite() {
    let schema = TpchSchema::sf100();
    check("tpch.txt", render(&schema.catalog, &schema.graph, &QuerySpec::tpch_full_suite()));
}

#[test]
fn ten_relation_chain() {
    let schema = RandomSchema::chain(10, 11);
    let query = whole_schema_query("chain10", &schema);
    check("chain10.txt", render(&schema.catalog, &schema.graph, &[query]));
}

#[test]
fn ten_relation_star() {
    let schema = RandomSchema::star(10, 12);
    let query = whole_schema_query("star10", &schema);
    check("star10.txt", render(&schema.catalog, &schema.graph, &[query]));
}

#[test]
fn ten_relation_clique() {
    let schema = RandomSchema::clique(10, 13);
    let query = whole_schema_query("clique10", &schema);
    check("clique10.txt", render(&schema.catalog, &schema.graph, &[query]));
}

/// Ten relations of a thirty-table random schema — the benchmark's
/// `svc_dp10_warm` shape: most schema edges do not touch the query.
#[test]
fn ten_of_thirty_random() {
    let schema = RandomSchemaConfig::with_tables(30, 14).generate();
    let queries: Vec<QuerySpec> = (0..3)
        .map(|seed| {
            let mut q = QuerySpec::random_connected(&schema.catalog, &schema.graph, 10, seed);
            q.name = format!("rand10-{seed}");
            q
        })
        .collect();
    check("random10of30.txt", render(&schema.catalog, &schema.graph, &queries));
}
