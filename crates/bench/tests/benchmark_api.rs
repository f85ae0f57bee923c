//! The public names and signatures the `benchmark/` package calls. That
//! package declares its own `[workspace]`, so the workspace build never
//! compiles it; this test uses the same names the same way, so a rename or
//! a signature change fails here first.

use raqo_catalog::tpch::TpchSchema;
use raqo_catalog::QuerySpec;
use raqo_core::{
    Counter, Hist, Objective, PlannerKind, RaqoCoster, RaqoOptimizer, ResourceStrategy, Telemetry,
};
use raqo_cost::{JoinCostModel, OperatorCost};
use raqo_planner::{
    CardinalityEstimator, CascadesPlanner, JoinDecision, JoinIo, PlanCoster, PlannedQuery,
    SelingerPlanner,
};
use raqo_resource::{
    brute_force_batch, hill_climb, CacheLookup, ClusterConditions, Parallelism, ResourceConfig,
    ShardedCacheBank,
};
use raqo_sim::engine::JoinImpl;
use std::sync::Arc;

/// The benchmark's timing coster in outline: a `PlanCoster` that forwards
/// every call, the batch and `prefers_batch` included, to a `RaqoCoster`.
struct Forwarding<'c> {
    inner: &'c mut RaqoCoster<'static, JoinCostModel>,
    calls: u64,
    ios: Vec<JoinIo>,
}

impl PlanCoster for Forwarding<'_> {
    fn join_cost(&mut self, io: &JoinIo) -> Option<JoinDecision> {
        self.calls += 1;
        self.ios.push(*io);
        self.inner.join_cost(io)
    }

    fn join_cost_many(
        &mut self,
        ios: &[JoinIo],
        parallelism: Parallelism,
    ) -> Vec<Option<JoinDecision>> {
        self.calls += ios.len() as u64;
        self.ios.extend_from_slice(ios);
        self.inner.join_cost_many(ios, parallelism)
    }

    fn prefers_batch(&self) -> bool {
        self.inner.prefers_batch()
    }
}

/// Both planners the benchmark calls directly plan through the forwarding
/// coster on a shared bank, as its planner probe does.
#[test]
fn the_planners_plan_through_a_forwarding_raqo_coster() {
    let schema = TpchSchema::new(1.0);
    let model = Arc::new(JoinCostModel::trained_hive());
    let cluster = ClusterConditions::paper_default();
    let query = QuerySpec::tpch_q3();
    let bank = ShardedCacheBank::with_shards(8);
    let strategy = ResourceStrategy::HillClimb;
    let mut raqo = RaqoCoster::new(model.clone(), cluster, strategy, Objective::Time);
    raqo.share_sharded_cache(bank.clone());
    let mut coster = Forwarding {
        inner: &mut raqo,
        calls: 0,
        ios: Vec::new(),
    };
    assert!(!coster.prefers_batch());

    let (catalog, graph) = (&schema.catalog, &schema.graph);
    let plan = |planner: &PlannerKind, coster: &mut dyn PlanCoster| -> Option<PlannedQuery> {
        match planner {
            PlannerKind::Cascades(config) => {
                CascadesPlanner::plan(catalog, graph, &query, coster, config)
                    .ok()
                    .map(|outcome| outcome.planned)
            }
            _ => SelingerPlanner::plan(catalog, graph, &query, coster).ok(),
        }
    };
    for planner in [PlannerKind::Selinger, PlannerKind::cascades()] {
        coster.ios.clear();
        let planned = plan(&planner, &mut coster).expect("plan");
        assert!(planned.cost.is_finite(), "{planner:?}");
        assert!(!coster.ios.is_empty(), "{planner:?}");
    }
    assert!(coster.calls > 0);

    let est = CardinalityEstimator::new(catalog, graph);
    let t = query.relations[0];
    assert!(est.set_gb(&[t]) > 0.0);

    let mut optimizer = RaqoOptimizer::new(
        catalog,
        graph,
        model,
        cluster,
        PlannerKind::Selinger,
        strategy,
    );
    optimizer.share_sharded_cache(bank);
    assert!(optimizer.optimize(&query).is_some());
}

/// The resource-search and cost-kernel probes: a climb, an unbounded grid
/// scan through the batched kernel, the kernel against its scalar twin,
/// and a bank insert read back.
#[test]
fn the_resource_and_kernel_probes_price_one_join() {
    let model = JoinCostModel::trained_hive();
    let cluster = ClusterConditions::two_dim(1.0..=20.0, 1.0..=4.0, 1.0, 1.0);
    let io = JoinIo {
        build_gb: 2.0,
        probe_gb: 40.0,
        out_gb: 42.0,
        out_rows: 1e6,
    };
    let climb = hill_climb(&cluster, cluster.min, |r| {
        model
            .join_cost_at(JoinImpl::SortMerge, io.build_gb, io.probe_gb, r)
            .unwrap_or(f64::INFINITY)
    });
    assert!(climb.iterations > 0);
    let scan = brute_force_batch(&cluster, |_, configs, out| {
        model.join_cost_batch(JoinImpl::SortMerge, io.build_gb, configs, out)
    });
    assert_eq!(scan.iterations, cluster.grid().count() as u64);

    let grid: Vec<ResourceConfig> = cluster.grid().collect();
    let (mut kernel, mut scalar) = (vec![0.0; grid.len()], vec![0.0; grid.len()]);
    model.join_cost_batch(JoinImpl::BroadcastHash, io.build_gb, &grid, &mut kernel);
    model.join_cost_batch_scalar(JoinImpl::BroadcastHash, io.build_gb, &grid, &mut scalar);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&kernel),
        bits(&scalar),
        "simd active: {}",
        raqo_cost::simd_active()
    );

    let bank = ShardedCacheBank::with_shards(8);
    bank.insert(1, 0, io.build_gb, cluster.min);
    assert_eq!(
        bank.lookup(1, 0, io.build_gb, CacheLookup::Exact),
        Some(cluster.min)
    );
}

/// Every counter and histogram the benchmark's traced pass reads off a
/// registry snapshot.
#[test]
fn the_registry_has_every_series_the_traced_pass_reads() {
    let counters = [
        Counter::NetFramesIn,
        Counter::NetFramesOut,
        Counter::NetShedOverloaded,
        Counter::NetShedConnCap,
        Counter::NetShedDeadline,
        Counter::NetShedSlowReader,
        Counter::NetRepliesDeduped,
        Counter::NetClientRetries,
        Counter::ServiceShed,
        Counter::DegradationsIdpBridge,
        Counter::DegradationsRandomized,
        Counter::DegradationsRuleBased,
        Counter::DegradationsMemoCut,
        Counter::MemoHits,
        Counter::CacheEvictions,
        Counter::CacheHitsExact,
        Counter::CacheHitsNearest,
        Counter::CacheHitsWeighted,
        Counter::CacheMisses,
    ];
    let tel = Telemetry::enabled();
    let before = tel.snapshot().expect("enabled");
    for c in counters {
        tel.inc(c);
    }
    tel.observe(Hist::ResourceIterationsPerCall, 3);
    let after = tel.snapshot().expect("enabled");
    for c in counters {
        assert_eq!(after.delta(&before, c), 1, "{c:?}");
    }
    let observed = after.hist(Hist::ResourceIterationsPerCall).count
        - before.hist(Hist::ResourceIterationsPerCall).count;
    assert_eq!(observed, 1);
}
