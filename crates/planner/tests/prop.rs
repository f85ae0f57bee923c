//! Property tests for the planner layer.

use proptest::prelude::*;
use raqo_catalog::{
    Catalog, JoinGraph, QuerySpec, RandomSchema, RandomSchemaConfig, TableId, TableStats, GB,
};
use raqo_cost::SimOracleCost;
use raqo_planner::coster::FixedResourceCoster;
use raqo_planner::{
    cost_tree, CardinalityEstimator, IdpConfig, IdpPlanner, PlanCoster, PlanTree,
    PlannedQuery, RandomizedConfig, RandomizedPlanner, SelingerPlanner,
};
use raqo_telemetry::Telemetry;

mod oracle;

/// The set statistics as every planner computed them before the estimator
/// precomputed anything: a fold over the slice, `contains` scans against
/// the edge list, a logarithm per term. Kept here, not in the library, so
/// it cannot drift with the code it checks.
struct NaiveEstimator<'a> {
    catalog: &'a Catalog,
    graph: &'a JoinGraph,
}

impl NaiveEstimator<'_> {
    fn rows(&self, tables: &[TableId]) -> f64 {
        let mut log_card = 0.0f64;
        for &t in tables {
            log_card += self.catalog.table(t).stats.rows.max(f64::MIN_POSITIVE).ln();
        }
        for e in self.graph.edges() {
            if tables.contains(&e.a) && tables.contains(&e.b) {
                log_card += e.selectivity.ln();
            }
        }
        log_card.exp()
    }

    fn gb(&self, tables: &[TableId]) -> f64 {
        let width: f64 = tables.iter().map(|&t| self.catalog.table(t).stats.row_width).sum();
        self.rows(tables) * width / GB
    }

    /// `[build_gb, probe_gb, out_gb, out_rows]`.
    fn join_io(&self, left: &[TableId], right: &[TableId]) -> [f64; 4] {
        let (left_gb, right_gb) = (self.gb(left), self.gb(right));
        let all = [left, right].concat();
        [left_gb.min(right_gb), left_gb.max(right_gb), self.gb(&all), self.rows(&all)]
    }

    fn connects(&self, left: &[TableId], right: &[TableId]) -> bool {
        self.graph.edges().iter().any(|e| {
            (left.contains(&e.a) && right.contains(&e.b))
                || (left.contains(&e.b) && right.contains(&e.a))
        })
    }
}

/// A schema of one of six shapes — chain, star, clique, and random
/// catalogs of 30, 100 and 300 tables (past one bitset word and past the
/// inline width) — with a second predicate on two existing edges and one
/// table emptied (the `MIN_POSITIVE` clamp), and `k` of its tables in
/// shuffled order, always including the empty table and the highest id
/// (the last bitset word).
fn perturbed_pick(shape: usize, seed: u64, k: usize) -> (Catalog, JoinGraph, Vec<TableId>) {
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let RandomSchema { mut catalog, mut graph } = match shape {
        0 => RandomSchema::chain(12, seed),
        1 => RandomSchema::star(12, seed),
        2 => RandomSchema::clique(9, seed),
        3 => RandomSchemaConfig::with_tables(30, seed).generate(),
        4 => RandomSchemaConfig::with_tables(100, seed).generate(),
        _ => RandomSchemaConfig::with_tables(300, seed).generate(),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5e7);
    let mut all: Vec<TableId> = catalog.table_ids().collect();
    for _ in 0..2 {
        let e = graph.edges()[rng.gen_range(0..graph.edges().len())];
        graph.add_edge(e.a, e.b, rng.gen_range(0.01..=1.0));
    }
    let empty = all[rng.gen_range(0..all.len())];
    let width = catalog.table(empty).stats.row_width;
    catalog.set_stats(empty, TableStats::new(0.0, width));

    let last = *all.last().unwrap();
    all.shuffle(&mut rng);
    let mut picked = vec![empty];
    for &t in std::iter::once(&last).chain(&all) {
        if picked.len() < k.max(2) && !picked.contains(&t) {
            picked.push(t);
        }
    }
    picked.shuffle(&mut rng);
    (catalog, graph, picked)
}

proptest! {
    /// The bitset / precomputed-log estimator returns the slice-scanning
    /// fold's values bit for bit: on every graph shape, for shuffled slice
    /// orders on both sides, with parallel edges, with a 0-row table (the
    /// `MIN_POSITIVE` clamp), and on catalogs of 100 and 300 tables — past
    /// one bitset word and past the inline width.
    #[test]
    fn set_statistics_bit_match_the_slice_scanning_fold(
        shape in 0usize..6,
        seed in 0u64..500,
        k in 2usize..12,
        cut in 1u32..2047,
    ) {
        let (catalog, graph, picked) = perturbed_pick(shape, seed, k);
        // `cut` deals the picked tables to sides.
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for (i, &t) in picked.iter().enumerate() {
            if cut & (1 << i) != 0 { left.push(t) } else { right.push(t) }
        }
        if left.is_empty() || right.is_empty() { return Ok(()); }

        let naive = NaiveEstimator { catalog: &catalog, graph: &graph };
        let est = CardinalityEstimator::new(&catalog, &graph);
        let io = est.join_io(&left, &right);
        let got = [io.build_gb, io.probe_gb, io.out_gb, io.out_rows];
        let want = naive.join_io(&left, &right);
        for (field, (g, w)) in ["build_gb", "probe_gb", "out_gb", "out_rows"]
            .iter()
            .zip(got.iter().zip(&want))
        {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "{}: {} vs {}", field, g, w);
        }
        for side in [&left, &right, &picked] {
            prop_assert_eq!(est.set_gb(side).to_bits(), naive.gb(side).to_bits());
            prop_assert_eq!(est.set_rows(side).to_bits(), naive.rows(side).to_bits());
            prop_assert_eq!(
                graph.join_cardinality(&catalog, side).to_bits(),
                naive.rows(side).to_bits()
            );
        }
        prop_assert_eq!(graph.connects(&left, &right), naive.connects(&left, &right));
        prop_assert_eq!(graph.connects(&right, &left), naive.connects(&left, &right));
        for &t in &right {
            prop_assert_eq!(graph.connects(&left, &[t]), naive.connects(&left, &[t]));
        }
    }

    /// A DP run's `LocalView` returns the slice-scanning fold's values
    /// bit for bit for every set of items in ascending order (what every
    /// DP's size table holds) — over leaf and compound items in shuffled
    /// order, on the same perturbed catalogs.
    #[test]
    fn local_view_bit_matches_the_slice_scanning_fold(
        shape in 0usize..6,
        seed in 0u64..500,
        k in 2usize..12,
        deal in 0u64..u64::MAX,
    ) {
        let (catalog, graph, picked) = perturbed_pick(shape, seed, k);
        // `deal` groups runs of the picked tables into at most six items,
        // so single-leaf and compound items mix.
        let mut items: Vec<Vec<TableId>> = Vec::new();
        for (i, &t) in picked.iter().enumerate() {
            if items.is_empty() || (items.len() < 6 && deal >> i & 1 != 0) {
                items.push(vec![t]);
            } else {
                items.last_mut().expect("not empty").push(t);
            }
        }
        let naive = NaiveEstimator { catalog: &catalog, graph: &graph };
        let est = CardinalityEstimator::new(&catalog, &graph);
        let view = est.local_view(items.iter().map(Vec::as_slice));
        let rels = |mask: u64| -> Vec<TableId> {
            (0..items.len()).filter(|i| mask >> i & 1 != 0).flat_map(|i| items[i].clone()).collect()
        };
        for mask in 1..1u64 << items.len() {
            let tables = rels(mask);
            let (rows, gb) = view.size(mask);
            let want = (naive.rows(&tables).to_bits(), naive.gb(&tables).to_bits());
            prop_assert_eq!((rows.to_bits(), gb.to_bits()), want, "mask {:#b}", mask);
        }
    }

    /// Plan cost is the sum of its join decisions' costs, for arbitrary
    /// random plans on arbitrary random schemas.
    #[test]
    fn plan_cost_is_additive(seed in 0u64..300, k in 2usize..9) {
        use rand::SeedableRng;
        let schema = RandomSchemaConfig::with_tables(12, seed).generate();
        let q = QuerySpec::random_connected(&schema.catalog, &schema.graph, k, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let tree = PlanTree::random_connected(&schema.graph, &q.relations, &mut rng);
        let model = SimOracleCost::hive();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        if let Some(planned) = cost_tree(&tree, &est, &mut coster, &Telemetry::disabled()) {
            let sum: f64 = planned.joins.iter().map(|j| j.decision.cost).sum();
            prop_assert!((planned.cost - sum).abs() < 1e-9);
            prop_assert_eq!(planned.joins.len(), k - 1);
            // Objectives accumulate too.
            let t: f64 = planned.joins.iter().map(|j| j.decision.objectives.time_sec).sum();
            prop_assert!((planned.objectives.time_sec - t).abs() < 1e-9);
        }
    }

    /// Selinger's result is invariant to the order relations are listed in
    /// the query spec.
    #[test]
    fn selinger_invariant_to_relation_listing(seed in 0u64..100) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let schema = RandomSchemaConfig::with_tables(10, seed).generate();
        let q = QuerySpec::random_connected(&schema.catalog, &schema.graph, 6, seed);
        let model = SimOracleCost::hive();

        let mut shuffled = q.relations.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed ^ 99));
        let q2 = QuerySpec::new("shuffled", shuffled);

        let mut c1 = FixedResourceCoster::new(&model, 10.0, 6.0);
        let p1 = SelingerPlanner::plan(&schema.catalog, &schema.graph, &q, &mut c1);
        let mut c2 = FixedResourceCoster::new(&model, 10.0, 6.0);
        let p2 = SelingerPlanner::plan(&schema.catalog, &schema.graph, &q2, &mut c2);
        match (p1, p2) {
            (Ok(p1), Ok(p2)) => prop_assert!((p1.cost - p2.cost).abs() < 1e-9),
            (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
            _ => prop_assert!(false, "one ordering planned, the other did not"),
        }
    }

    /// Selinger's level fill plans what the one-candidate-at-a-time oracle
    /// plans on arbitrary random schemas, costing the same candidates.
    #[test]
    fn selinger_agrees_with_the_oracle(seed in 0u64..40, k in 2usize..8) {
        let schema = RandomSchemaConfig::with_tables(10, seed).generate();
        let q = QuerySpec::random_connected(&schema.catalog, &schema.graph, k, seed);
        let model = SimOracleCost::hive();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let mut c0 = FixedResourceCoster::new(&model, 10.0, 6.0);
        let base = oracle::left_deep(&q.relations, &schema.graph, &est, &mut c0);
        let mut c = FixedResourceCoster::new(&model, 10.0, 6.0);
        let got = SelingerPlanner::plan(&schema.catalog, &schema.graph, &q, &mut c);
        match (&base, &got) {
            (Some(b), Ok(g)) => {
                prop_assert_eq!(&b.tree, &g.tree);
                prop_assert_eq!(b.cost.to_bits(), g.cost.to_bits());
                prop_assert_eq!(&b.joins, &g.joins);
                prop_assert_eq!(c0.calls, c.calls);
            }
            (None, Err(_)) => {}
            _ => prop_assert!(false, "planner and oracle disagree on feasibility"),
        }
    }

    /// The randomized planner always produces a valid covering plan and
    /// never beats the DP on queries small enough for both (left-deep DP
    /// can be beaten by bushy plans, so allow it to *win*, never to
    /// produce an invalid tree).
    #[test]
    fn randomized_plans_are_valid(seed in 0u64..60) {
        let schema = RandomSchemaConfig::with_tables(10, seed).generate();
        let q = QuerySpec::random_connected(&schema.catalog, &schema.graph, 7, seed);
        let model = SimOracleCost::hive();
        let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let cfg = RandomizedConfig { restarts: 3, rounds_per_join: 8, epsilon: 0.05, seed };
        if let Some(out) =
            RandomizedPlanner::plan(&schema.catalog, &schema.graph, &q, &mut coster, &cfg)
        {
            prop_assert!(raqo_planner::plan::covers_exactly(&out.best.tree, &q.relations));
            prop_assert!(out.best.cost.is_finite() && out.best.cost > 0.0);
            prop_assert!(!out.frontier.is_empty());
        } else {
            prop_assert!(false, "no plan found");
        }
    }

    /// IDP with a block size at least the relation count *is* exhaustive
    /// DP: identical trees, costs, and decisions.
    #[test]
    fn idp_with_covering_block_equals_exhaustive_dp(seed in 0u64..60, k in 2usize..10) {
        let schema = RandomSchemaConfig::with_tables(12, seed).generate();
        let q = QuerySpec::random_connected(&schema.catalog, &schema.graph, k, seed);
        let model = SimOracleCost::hive();
        let mut dp_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let dp = SelingerPlanner::plan(&schema.catalog, &schema.graph, &q, &mut dp_coster);
        let mut idp_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let idp = IdpPlanner::plan(
            &schema.catalog,
            &schema.graph,
            &q,
            &mut idp_coster,
            IdpConfig { block_size: 16 },
        );
        match (dp, idp) {
            (Ok(d), Ok(i)) => {
                prop_assert_eq!(&d.tree, &i.tree);
                prop_assert_eq!(d.cost.to_bits(), i.cost.to_bits());
                prop_assert_eq!(&d.joins, &i.joins);
            }
            (Err(d), Err(i)) => prop_assert_eq!(d, i),
            _ => prop_assert!(false, "planners disagree on feasibility"),
        }
    }

    /// Past the exhaustive-DP bound, IDP never panics, always covers the
    /// query, and never costs worse than the randomized planner's
    /// best-of-restarts on the same seed.
    #[test]
    fn idp_bridges_mid_size_queries_beating_randomized(seed in 0u64..12, k in 21usize..31) {
        let schema = RandomSchemaConfig::with_tables(32, seed).generate();
        let q = QuerySpec::random_connected(&schema.catalog, &schema.graph, k, seed);
        let model = SimOracleCost::hive();
        let mut idp_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let idp = IdpPlanner::plan(
            &schema.catalog,
            &schema.graph,
            &q,
            &mut idp_coster,
            IdpConfig::default(),
        );
        let Ok(idp) = idp else {
            return Err(TestCaseError(format!("IDP failed on k={k} seed={seed}")));
        };
        prop_assert!(raqo_planner::plan::covers_exactly(&idp.tree, &q.relations));
        prop_assert_eq!(idp.joins.len(), k - 1);
        prop_assert!(idp.cost.is_finite() && idp.cost > 0.0);

        let mut rand_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let cfg = RandomizedConfig { restarts: 3, rounds_per_join: 8, epsilon: 0.05, seed };
        let rand = RandomizedPlanner::plan(&schema.catalog, &schema.graph, &q, &mut rand_coster, &cfg)
            .expect("randomized plans any connected query");
        prop_assert!(
            idp.cost <= rand.best.cost * (1.0 + 1e-9),
            "IDP {} worse than randomized {} at k={} seed={}",
            idp.cost, rand.best.cost, k, seed
        );
    }

    /// Cardinality estimation stays finite and split-orientation-symmetric
    /// on clique schemas — the fully cyclic graphs whose every binary cut
    /// crosses many edges at once.
    #[test]
    fn clique_join_io_finite_and_symmetric(
        n in 3usize..10,
        seed in 0u64..100,
        cut in 1u32..512,
    ) {
        let schema = raqo_catalog::RandomSchema::clique(n, seed);
        let all: Vec<_> = schema.catalog.table_ids().collect();
        let (left, right): (Vec<_>, Vec<_>) = all
            .iter()
            .enumerate()
            .partition(|(i, _)| cut & (1 << i) != 0);
        let left: Vec<_> = left.into_iter().map(|(_, &t)| t).collect();
        let right: Vec<_> = right.into_iter().map(|(_, &t)| t).collect();
        if left.is_empty() || right.is_empty() { return Ok(()); }
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let io = est.join_io(&left, &right);
        prop_assert!(io.build_gb.is_finite() && io.build_gb >= 0.0);
        prop_assert!(io.probe_gb.is_finite() && io.probe_gb >= 0.0);
        prop_assert!(io.out_gb.is_finite() && io.out_rows.is_finite());
        prop_assert!(io.out_rows > 0.0);
        let mirrored = est.join_io(&right, &left);
        // Build/probe are min/max of per-side sizes — bit-identical under a
        // swap. The output cardinality sums logs in concatenation order, so
        // the mirror agrees to rounding noise only.
        prop_assert_eq!(io.build_gb.to_bits(), mirrored.build_gb.to_bits());
        prop_assert_eq!(io.probe_gb.to_bits(), mirrored.probe_gb.to_bits());
        prop_assert!((io.out_rows - mirrored.out_rows).abs() <= 1e-9 * io.out_rows.abs());
        prop_assert!((io.out_gb - mirrored.out_gb).abs() <= 1e-9 * io.out_gb.abs().max(1e-300));
    }

    /// The bushy search plans every clique (no panics on cyclic graphs)
    /// and never loses to left-deep Selinger, for arbitrary sizes and
    /// seeds within its relation bound.
    #[test]
    fn cascades_plans_cliques_no_worse_than_selinger(n in 2usize..8, seed in 0u64..30) {
        use raqo_planner::{CascadesConfig, CascadesPlanner};
        let schema = raqo_catalog::RandomSchema::clique(n, seed);
        let q = QuerySpec::new("clique", schema.catalog.table_ids().collect());
        let model = SimOracleCost::hive();
        let mut c1 = FixedResourceCoster::new(&model, 10.0, 6.0);
        let selinger = SelingerPlanner::plan(&schema.catalog, &schema.graph, &q, &mut c1)
            .expect("selinger plans cliques");
        let mut c2 = FixedResourceCoster::new(&model, 10.0, 6.0);
        let cascades = CascadesPlanner::plan(
            &schema.catalog,
            &schema.graph,
            &q,
            &mut c2,
            &CascadesConfig::default(),
        )
        .expect("cascades plans cliques");
        prop_assert!(!cascades.cut_short);
        prop_assert!(raqo_planner::plan::covers_exactly(&cascades.planned.tree, &q.relations));
        prop_assert!(
            cascades.planned.cost <= selinger.cost * (1.0 + 1e-12),
            "bushy search lost to left-deep on a clique: {} vs {}",
            cascades.planned.cost,
            selinger.cost
        );
    }
}
