//! The bushy planner against ground truth: an exhaustive search over every
//! binary partition (`oracle::brute_force`) bounds every planner from
//! below and is reached exactly once the cross-product cap is lifted; and
//! where sub-plans tie on cost — the learned §VI model floors at one
//! second — the documented tie-breaks decide.

use proptest::prelude::*;
use raqo_catalog::{
    Catalog, JoinGraph, QuerySpec, RandomSchema, RandomSchemaConfig, TableId, TableStats,
};
use raqo_cost::objective::CostVector;
use raqo_cost::SimOracleCost;
use raqo_planner::coster::FixedResourceCoster;
use raqo_planner::{
    CardinalityEstimator, CascadesConfig, CascadesPlanner, DpFill, IdpConfig, IdpPlanner,
    JoinDecision, JoinIo, PlanCoster, PlanTree, RandomizedConfig, RandomizedPlanner,
    SelingerPlanner,
};
use raqo_sim::engine::JoinImpl;

mod oracle;
use oracle::brute_force;

fn schema(shape: usize, n: usize, seed: u64) -> RandomSchema {
    match shape {
        0 => RandomSchema::chain(n, seed),
        1 => RandomSchema::star(n, seed),
        2 => RandomSchema::clique(n, seed),
        _ => RandomSchemaConfig { tables: n, extra_edge_prob: 0.3, seed, ..Default::default() }
            .generate(),
    }
}

fn bushy(s: &RandomSchema, q: &QuerySpec, coster: &mut dyn PlanCoster, cap: f64) -> f64 {
    let config = CascadesConfig { cross_rows_cap: cap, ..Default::default() };
    let out = CascadesPlanner::plan(&s.catalog, &s.graph, q, coster, &config).unwrap();
    assert!(!out.cut_short);
    assert!(raqo_planner::plan::covers_exactly(&out.planned.tree, &q.relations));
    out.planned.cost
}

proptest! {
    /// Chains, stars, cliques and cyclic random graphs up to seven
    /// relations: the subset DP reaches the oracle with the cap lifted,
    /// sits between the oracle and Selinger with the default cap, and no
    /// planner ever reports a plan cheaper than the oracle's.
    #[test]
    fn oracle_bounds_every_planner_and_the_uncapped_dp_reaches_it(
        shape in 0usize..4,
        n in 2usize..8,
        seed in 0u64..30,
    ) {
        let s = schema(shape, n, seed);
        let q = QuerySpec::new("q", s.catalog.table_ids().collect());
        let model = SimOracleCost::hive();
        let fixed = || FixedResourceCoster::new(&model, 40.0, 8.0);
        let est = CardinalityEstimator::new(&s.catalog, &s.graph);
        let oracle = brute_force(&q.relations, &est, &mut fixed()).unwrap();
        let floor = oracle * (1.0 - 1e-9);

        let uncapped = bushy(&s, &q, &mut fixed(), f64::INFINITY);
        prop_assert!(
            (uncapped - oracle).abs() <= 1e-9 * oracle.max(1.0),
            "uncapped DP {uncapped} != oracle {oracle}"
        );

        let capped = bushy(&s, &q, &mut fixed(), CascadesConfig::default().cross_rows_cap);
        let selinger = SelingerPlanner::plan(&s.catalog, &s.graph, &q, &mut fixed()).unwrap().cost;
        prop_assert!(floor <= capped, "capped DP {capped} below the oracle {oracle}");
        prop_assert!(
            capped <= selinger * (1.0 + 1e-12),
            "capped DP {capped} lost to left-deep {selinger}"
        );

        let idp_config = IdpConfig { block_size: 4, fill: DpFill::Auto };
        let idp = IdpPlanner::plan(&s.catalog, &s.graph, &q, &mut fixed(), idp_config).unwrap().cost;
        let randomized = RandomizedPlanner::plan(
            &s.catalog,
            &s.graph,
            &q,
            &mut fixed(),
            &RandomizedConfig { seed: 42, ..Default::default() },
        )
        .unwrap()
        .best
        .cost;
        for (planner, cost) in [("selinger", selinger), ("idp", idp), ("randomized", randomized)] {
            prop_assert!(floor <= cost, "{planner} reports {cost}, below the oracle {oracle}");
        }
    }
}

/// Every join costs one second, whatever it moves: all trees over the same
/// relations tie on cost, so only the tie-breaks tell them apart.
struct Floor;

impl PlanCoster for Floor {
    fn join_cost(&mut self, _io: &JoinIo) -> Option<JoinDecision> {
        Some(JoinDecision {
            join: JoinImpl::SortMerge,
            cost: 1.0,
            objectives: CostVector::ZERO,
            resources: None,
            cores: None,
        })
    }
}

/// A join costs what it outputs: the oracle under this coster is the least
/// Σ `out_gb` any tree can reach.
struct Volume;

impl PlanCoster for Volume {
    fn join_cost(&mut self, io: &JoinIo) -> Option<JoinDecision> {
        Some(JoinDecision { cost: io.out_gb, ..Floor.join_cost(io)? })
    }
}

#[test]
fn equal_cost_plans_are_told_apart_by_intermediate_volume() {
    let uncapped = CascadesConfig { cross_rows_cap: f64::INFINITY, ..Default::default() };
    for s in [RandomSchema::chain(6, 3), RandomSchema::star(6, 3), RandomSchema::clique(6, 3)] {
        let q = QuerySpec::new("q", s.catalog.table_ids().collect());
        let est = CardinalityEstimator::new(&s.catalog, &s.graph);
        let least = brute_force(&q.relations, &est, &mut Volume).unwrap();
        let out = CascadesPlanner::plan(&s.catalog, &s.graph, &q, &mut Floor, &uncapped).unwrap();
        assert_eq!(out.planned.cost, 5.0, "five joins on the one-second floor");
        let volume: f64 = out.planned.joins.iter().map(|j| j.io.out_gb).sum();
        assert!(
            (volume - least).abs() <= 1e-9 * least,
            "winner moves {volume} GB, the least any tree moves is {least} GB"
        );
    }
}

/// One-row tables of one width on a clique with selectivity 1: every subset
/// of k relations has the same size, so equal-shaped trees tie on cost
/// *and* volume.
fn uniform_clique(n: usize) -> (Catalog, JoinGraph, Vec<TableId>) {
    let mut catalog = Catalog::new();
    let ids: Vec<TableId> = (0..n)
        .map(|i| catalog.add_stats_only(format!("t{i}"), TableStats::new(1.0, 100.0)))
        .collect();
    let mut graph = JoinGraph::new();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            graph.add_edge(a, b, 1.0);
        }
    }
    (catalog, graph, ids)
}

#[test]
fn the_left_deep_seed_wins_a_full_tie() {
    // Three relations: the three trees differ only in which pair joins
    // first, and tie exactly. The seed chain's split must keep the root.
    let (catalog, graph, ids) = uniform_clique(3);
    let q = QuerySpec::new("q", ids.clone());
    let config = CascadesConfig::default();
    let out = CascadesPlanner::plan(&catalog, &graph, &q, &mut Floor, &config).unwrap();
    assert_eq!(out.planned.tree, PlanTree::left_deep(&ids));

    // Four: (2, 2, 4)-shaped bushy trees move less than the (2, 3, 4)
    // chain, so here the seed must lose — to the first such tree enumerated.
    let (catalog, graph, ids) = uniform_clique(4);
    let q = QuerySpec::new("q", ids.clone());
    let out = CascadesPlanner::plan(&catalog, &graph, &q, &mut Floor, &config).unwrap();
    assert_eq!(out.planned.cost, 3.0);
    assert!(!out.planned.tree.is_left_deep(), "{:?}", out.planned.tree);
}
