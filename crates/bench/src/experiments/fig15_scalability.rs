//! Figure 15: RAQO scalability — (a) over schema/query size up to
//! 100-table joins; (b) over cluster size up to 100 K containers of up to
//! 100 GB, with and without across-query caching.
//!
//! §VII-C: "The cached version of RAQO improves over the non-cached
//! version by almost 6x, while it is slower than the plain QO only by a
//! factor of 1.29x on average. ... the resource planning overhead is
//! negligible up to 1000 containers ... Though the planner runtimes are
//! still within 630 milliseconds. ... across-query caching is indeed
//! useful after 10K containers, with almost 30% improvements in planner
//! runtime."

use crate::experiments::fig12_raqo_planning::experiment_randomized_config;
use crate::experiments::timed;
use crate::Table;
use raqo_catalog::{QuerySpec, RandomSchemaConfig};
use raqo_core::{PlannerKind, RaqoOptimizer, ResourceStrategy};
use raqo_cost::SimOracleCost;
use raqo_resource::{CacheLookup, ClusterConditions, ShardedCacheBank};

fn cached_strategy() -> ResourceStrategy {
    ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.01 })
}

#[derive(Debug, Clone)]
pub struct ScaleSchemaRow {
    pub query_size: usize,
    pub qo_ms: f64,
    pub raqo_uncached_ms: f64,
    pub raqo_cached_ms: f64,
    /// Resource configurations explored without / with the plan cache —
    /// the deterministic quantity behind the wall-clock gap.
    pub uncached_iterations: u64,
    pub cached_iterations: u64,
}

/// Fig. 15(a): planner runtime over query size on a 100-table random
/// schema: plain QO vs RAQO (hill climbing) vs RAQO (hill climbing +
/// caching).
pub fn measure_schema_scaling(quick: bool) -> Vec<ScaleSchemaRow> {
    let schema = RandomSchemaConfig::with_tables(100, 5).generate();
    // The oracle model keeps the physical 1/nc improvement with
    // parallelism, so hill climbs lengthen with cluster size the way the
    // paper's do (the learned polynomial maps fit an interior optimum in
    // the container count instead; see EXPERIMENTS.md).
    let model = SimOracleCost::hive();
    let cluster = ClusterConditions::paper_default();
    let sizes: Vec<usize> =
        if quick { vec![8, 30] } else { vec![2, 16, 30, 44, 58, 72, 86, 100] };

    sizes
        .into_iter()
        .map(|k| {
            let query =
                QuerySpec::random_connected(&schema.catalog, &schema.graph, k, k as u64);
            let planner = PlannerKind::FastRandomized(experiment_randomized_config(7));
            let time_mode = |strategy: ResourceStrategy, raqo: bool| -> (f64, u64) {
                let mut opt = RaqoOptimizer::new(
                    &schema.catalog,
                    &schema.graph,
                    &model,
                    cluster,
                    planner.clone(),
                    strategy,
                );
                if raqo {
                    let (plan, ms) = timed(|| opt.optimize(&query).expect("plan"));
                    (ms, plan.stats.resource_iterations)
                } else {
                    (timed(|| opt.plan_for_resources(&query, 10.0, 4.0).expect("plan")).1, 0)
                }
            };
            let (qo_ms, _) = time_mode(ResourceStrategy::HillClimb, false);
            let (raqo_uncached_ms, uncached_iterations) =
                time_mode(ResourceStrategy::HillClimb, true);
            let (raqo_cached_ms, cached_iterations) = time_mode(cached_strategy(), true);
            ScaleSchemaRow {
                query_size: k,
                qo_ms,
                raqo_uncached_ms,
                raqo_cached_ms,
                uncached_iterations,
                cached_iterations,
            }
        })
        .collect()
}

#[derive(Debug, Clone)]
pub struct ScaleClusterRow {
    pub max_containers: f64,
    pub max_container_gb: f64,
    pub per_query_cache_ms: f64,
    pub across_query_cache_ms: f64,
    pub resource_iterations: u64,
}

/// Fig. 15(b): the 100-table join planned under growing cluster
/// conditions; per-query caching (cache cleared before each condition) vs
/// across-query caching (cache persists).
pub fn measure_cluster_scaling(quick: bool) -> Vec<ScaleClusterRow> {
    let schema = RandomSchemaConfig::with_tables(100, 5).generate();
    let model = SimOracleCost::hive();
    let k = if quick { 20 } else { 100 };
    let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, k, 3);
    let planner = PlannerKind::FastRandomized(experiment_randomized_config(23));

    let container_scales: &[f64] =
        if quick { &[100.0, 1_000.0] } else { &[100.0, 1_000.0, 10_000.0, 100_000.0] };
    let size_scales: Vec<f64> = if quick {
        vec![10.0, 50.0]
    } else {
        (1..=10).map(|i| 10.0 * i as f64).collect()
    };

    // Across-query caching: every condition gets a fresh optimizer, but all
    // of them adopt the same shared bank — the cache outlives any single
    // optimizer run, which is exactly the paper's across-query mode.
    let bank = ShardedCacheBank::with_shards(1);

    let mut out = Vec::new();
    for &max_nc in container_scales {
        for &max_cs in &size_scales {
            let cluster = ClusterConditions::two_dim(1.0..=max_nc, 1.0..=max_cs, 1.0, 1.0);

            let mut per_query = RaqoOptimizer::new(
                &schema.catalog,
                &schema.graph,
                &model,
                cluster,
                planner.clone(),
                cached_strategy(),
            );
            let (plan, per_query_ms) = timed(|| per_query.optimize(&query).expect("plan"));

            let mut across = RaqoOptimizer::new(
                &schema.catalog,
                &schema.graph,
                &model,
                cluster,
                planner.clone(),
                cached_strategy(),
            );
            across.share_sharded_cache(bank.clone());
            let (_, across_ms) = timed(|| across.optimize(&query).expect("plan"));

            out.push(ScaleClusterRow {
                max_containers: max_nc,
                max_container_gb: max_cs,
                per_query_cache_ms: per_query_ms,
                across_query_cache_ms: across_ms,
                resource_iterations: plan.stats.resource_iterations,
            });
        }
    }
    out
}

pub fn run(quick: bool) -> Vec<Table> {
    let mut a = Table::new(
        "Fig 15(a) — planner runtime over query size (100-table random schema)",
        &["query size (#tables)", "QO (ms)", "RAQO (ms)", "RAQO cached (ms)"],
    );
    for r in measure_schema_scaling(quick) {
        a.row(vec![
            (r.query_size as u64).into(),
            r.qo_ms.into(),
            r.raqo_uncached_ms.into(),
            r.raqo_cached_ms.into(),
        ]);
    }

    let mut b = Table::new(
        "Fig 15(b) — planner runtime over cluster conditions (100-table join)",
        &[
            "max containers",
            "max container GB",
            "RAQO cached (ms)",
            "RAQO cached across queries (ms)",
            "#resource iterations",
        ],
    );
    for r in measure_cluster_scaling(quick) {
        b.row(vec![
            r.max_containers.into(),
            r.max_container_gb.into(),
            r.per_query_cache_ms.into(),
            r.across_query_cache_ms.into(),
            r.resource_iterations.into(),
        ]);
    }
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caching_brings_raqo_close_to_qo() {
        // Paper: cached RAQO ~1.29x of plain QO on average, ~6x better
        // than uncached. Require: cached average within 4x of QO on the
        // wall clock, and — deterministically, since wall-clock ratios on
        // a loaded box put a 1.5x bar within noise — the cache cuts the
        // configurations explored at least in half.
        let _serial = crate::timing_lock();
        let rows = measure_schema_scaling(true);
        let mut qo = 0.0;
        let mut cached = 0.0;
        let mut uncached_iters = 0;
        let mut cached_iters = 0;
        for r in &rows {
            qo += r.qo_ms;
            cached += r.raqo_cached_ms;
            uncached_iters += r.uncached_iterations;
            cached_iters += r.cached_iterations;
        }
        assert!(cached <= qo * 4.0, "cached {cached:.1}ms vs qo {qo:.1}ms");
        assert!(
            uncached_iters >= cached_iters * 2,
            "uncached explored {uncached_iters} configurations vs cached {cached_iters}"
        );
    }

    #[test]
    fn cluster_scaling_grows_iterations_with_cluster() {
        let rows = measure_cluster_scaling(true);
        // Iterations at the largest cluster exceed the smallest (longer
        // climbs over the bigger grid).
        let small = rows.first().unwrap();
        let large = rows.last().unwrap();
        assert!(
            large.resource_iterations > small.resource_iterations,
            "small {:?} large {:?}",
            small.resource_iterations,
            large.resource_iterations
        );
    }

    #[test]
    fn across_query_caching_helps_on_repeated_conditions() {
        // The across-query optimizer answered later conditions from a warm
        // cache: its total time must not exceed the per-query total.
        let _serial = crate::timing_lock();
        let rows = measure_cluster_scaling(true);
        let per: f64 = rows.iter().map(|r| r.per_query_cache_ms).sum();
        let across: f64 = rows.iter().map(|r| r.across_query_cache_ms).sum();
        assert!(
            across <= per * 1.2,
            "across {across:.1}ms vs per-query {per:.1}ms"
        );
    }
}
