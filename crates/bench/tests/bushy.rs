//! Bushy against left-deep planning on crafted shapes: the bushy subset DP
//! (`PlannerKind::cascades()`) against Selinger DP where plan-space
//! coverage differs — a wide fact/dim star (bushy dim×dim cross products
//! halve the fact-sized probes), a fully cyclic clique, a random clique
//! and a chain.

use raqo_catalog::{Catalog, JoinGraph, QuerySpec, RandomSchema, TableStats};
use raqo_core::{PlannerKind, RaqoOptimizer, ResourceStrategy};
use raqo_resource::ClusterConditions;

/// One shape's Selinger-vs-Cascades comparison.
#[derive(Debug, Clone)]
struct CascadesPoint {
    shape: &'static str,
    selinger_cost: f64,
    cascades_cost: f64,
    /// The Cascades winner is a bushy tree (not left-deep).
    bushy: bool,
}

impl CascadesPoint {
    /// Bushy, and strictly cheaper than the best left-deep plan.
    fn bushy_and_cheaper(&self) -> bool {
        self.bushy && self.cascades_cost < self.selinger_cost
    }
}

/// The crafted fact/dim star: a wide 2M-row fact table and small
/// dimensions, where probing the fact with dim×dim cross products halves
/// the number of fact-sized joins — so the optimal plan is bushy and
/// left-deep planners provably lose.
fn crafted_star(dims: usize) -> (Catalog, JoinGraph) {
    let mut catalog = Catalog::new();
    let fact = catalog.add_stats_only("fact", TableStats::new(2_000_000.0, 400.0));
    let mut graph = JoinGraph::new();
    for i in 0..dims {
        let rows = 200.0 + 100.0 * i as f64;
        let d = catalog.add_stats_only(format!("dim{i}"), TableStats::new(rows, 60.0));
        graph.add_edge(fact, d, 1.0 / rows);
    }
    (catalog, graph)
}

/// A crafted *clique*: two 2M-row fact tables, each with its own small
/// FK dimensions, and *weak* (0.9) predicates closing every remaining
/// pair — the graph is maximally cyclic, yet the strong edges form two
/// star clusters. The bushy winner reduces each fact against tiny
/// dimension cross products independently before the fact-to-fact join;
/// a left-deep order must carry a fact-sized intermediate through every
/// step after touching its first fact.
fn crafted_clique(dims_per_fact: usize) -> (Catalog, JoinGraph) {
    let mut catalog = Catalog::new();
    let f1 = catalog.add_stats_only("fact1", TableStats::new(2_000_000.0, 400.0));
    let f2 = catalog.add_stats_only("fact2", TableStats::new(2_000_000.0, 400.0));
    let mut graph = JoinGraph::new();
    graph.add_edge(f1, f2, 1.0 / 2_000_000.0);
    let mut all = vec![f1, f2];
    for (fact, side) in [(f1, "a"), (f2, "b")] {
        for i in 0..dims_per_fact {
            let rows = 200.0 + 100.0 * i as f64;
            let d = catalog.add_stats_only(format!("dim_{side}{i}"), TableStats::new(rows, 60.0));
            graph.add_edge(fact, d, 1.0 / rows);
            all.push(d);
        }
    }
    // Close the clique: every pair not already joined above gets a weak
    // predicate, so each subset of relations is cyclic and connected.
    for i in 0..all.len() {
        for j in i + 1..all.len() {
            if !graph.edges().iter().any(|e| {
                (e.a == all[i] && e.b == all[j]) || (e.a == all[j] && e.b == all[i])
            }) {
                graph.add_edge(all[i], all[j], 0.9);
            }
        }
    }
    (catalog, graph)
}

/// Plan every shape with Selinger and with the bushy DP.
///
/// Costed under the simulation oracle (not the trained model): the
/// trained model floors per-join time on the tiny crafted dimensions, so
/// every join order would tie and the bushy-vs-left-deep gap vanish.
fn measure_cascades() -> Vec<CascadesPoint> {
    let model = raqo_cost::SimOracleCost::hive();
    let star = crafted_star(8);
    let clique = crafted_clique(3);
    let clique_random = RandomSchema::clique(8, 7);
    let chain = RandomSchema::chain(10, 3);
    let shapes = [
        ("star", star.0, star.1),
        ("clique", clique.0, clique.1),
        ("clique_random", clique_random.catalog, clique_random.graph),
        ("chain", chain.catalog, chain.graph),
    ];
    shapes
        .iter()
        .map(|(shape, catalog, graph)| {
            let rels: Vec<_> = catalog.table_ids().collect();
            let query = QuerySpec::new(format!("{shape}_{}", rels.len()), rels);
            let run = |kind: PlannerKind| {
                RaqoOptimizer::new(
                    catalog,
                    graph,
                    &model,
                    ClusterConditions::paper_default(),
                    kind,
                    ResourceStrategy::HillClimb,
                )
                .optimize(&query)
                .expect("plan")
            };
            let sel = run(PlannerKind::Selinger);
            let cas = run(PlannerKind::cascades());
            CascadesPoint {
                shape,
                selinger_cost: sel.query.cost,
                cascades_cost: cas.query.cost,
                bushy: !cas.query.tree.is_left_deep(),
            }
        })
        .collect()
}

/// The bushy DP covers every left-deep order Selinger enumerates, plus
/// the bushy shapes: it is never worse; a left-deep winner costs what
/// Selinger's does; and on the crafted star and clique it wins with a
/// bushy tree.
#[test]
fn cascades_series_star_is_bushy_and_strictly_cheaper() {
    let series = measure_cascades();
    let point = |shape: &str| series.iter().find(|p| p.shape == shape).expect("shape planned");
    assert!(
        point("star").bushy_and_cheaper(),
        "star point must be bushy and beat left-deep: {series:?}"
    );
    assert!(
        point("clique").bushy_and_cheaper(),
        "crafted clique point must be bushy and beat left-deep: {series:?}"
    );
    for p in &series {
        assert!(p.cascades_cost.is_finite() && p.cascades_cost > 0.0, "{series:?}");
        assert!(
            p.cascades_cost <= p.selinger_cost * (1.0 + 1e-9),
            "cascades lost to selinger on {}: {series:?}",
            p.shape
        );
        if !p.bushy {
            assert!(
                (p.cascades_cost - p.selinger_cost).abs() <= 1e-9 * p.selinger_cost.abs(),
                "left-deep {} winner must match selinger exactly: {series:?}",
                p.shape
            );
        }
    }
}

/// The crafted star: one 2M-row fact, and each dimension joined to it
/// by a key–foreign-key edge (selectivity 1 / dimension rows) and to
/// nothing else.
#[test]
fn crafted_star_joins_every_dimension_to_the_fact_only() {
    let (catalog, graph) = crafted_star(5);
    let ids: Vec<_> = catalog.table_ids().collect();
    assert_eq!(ids.len(), 6);
    let fact = ids[0];
    assert_eq!(catalog.table(fact).stats.rows, 2_000_000.0);
    assert_eq!(graph.edges().len(), 5);
    for &dim in &ids[1..] {
        let edges: Vec<_> = graph.edges().iter().filter(|e| e.a == dim || e.b == dim).collect();
        assert_eq!(edges.len(), 1, "dimension {dim:?}");
        let e = edges[0];
        assert!(e.a == fact || e.b == fact, "dimension {dim:?} joins {e:?}");
        assert_eq!(e.selectivity, 1.0 / catalog.table(dim).stats.rows);
    }
}

/// The crafted clique: every pair of relations joined exactly once;
/// the strong edges are the fact-to-fact join and each fact's own
/// dimensions, every other pair a weak 0.9 predicate.
#[test]
fn crafted_clique_joins_every_pair_once_with_two_strong_stars() {
    let dims = 3;
    let (catalog, graph) = crafted_clique(dims);
    let ids: Vec<_> = catalog.table_ids().collect();
    let n = ids.len();
    assert_eq!(n, 2 + 2 * dims);
    assert_eq!(graph.edges().len(), n * (n - 1) / 2);
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            let joined = graph
                .edges()
                .iter()
                .filter(|e| (e.a, e.b) == (a, b) || (e.a, e.b) == (b, a))
                .count();
            assert_eq!(joined, 1, "{a:?} and {b:?}");
        }
    }
    let (f1, f2) = (ids[0], ids[1]);
    let own_dims = |fact| -> Vec<_> {
        let side = if fact == f1 { "dim_a" } else { "dim_b" };
        ids.iter().filter(|&&t| catalog.table(t).name.starts_with(side)).copied().collect()
    };
    let strong: Vec<_> = graph.edges().iter().filter(|e| e.selectivity < 0.9).collect();
    assert_eq!(strong.len(), 1 + 2 * dims);
    for e in strong {
        let pair = [e.a, e.b];
        let fact_pair = pair.contains(&f1) && pair.contains(&f2);
        let own = [f1, f2]
            .iter()
            .any(|&f| pair.contains(&f) && own_dims(f).iter().any(|d| pair.contains(d)));
        assert!(fact_pair || own, "unexpected strong edge {e:?}");
    }
}
