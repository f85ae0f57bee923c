//! Criterion micro-benches for the substrates the planning experiments
//! lean on: resource-space search primitives, the cache, plan JSON,
//! cost-model evaluation, CART training, and the simulator sweeps behind
//! Figs. 1–9.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use raqo_catalog::tpch::TpchSchema;
use raqo_catalog::QuerySpec;
use raqo_core::{PlannerKind, RaqoOptimizer, RaqoPlan, ResourceStrategy};
use raqo_cost::features::feature_vector;
use raqo_cost::{JoinCostModel, OperatorCost};
use raqo_dtree::{CartConfig, Sample};
use raqo_resource::{
    brute_force, hill_climb, CacheLookup, ClusterConditions, ResourceConfig, ResourcePlanCache,
    ShardedCacheBank,
};
use raqo_sim::engine::{Engine, JoinImpl};
use raqo_sim::profile::{labeled_grid, ProfileGrid};
use raqo_sim::queue::{simulate, QueueSimConfig};
use raqo_sim::sweeps::switch_point_small_size;
use serde::Serialize;
use std::hint::black_box;

/// The §VI-B search primitives on the learned quadratic surface.
fn resource_search(c: &mut Criterion) {
    let model = JoinCostModel::trained_hive();
    let cost = |r: &ResourceConfig| -> f64 {
        model
            .join_cost(JoinImpl::SortMerge, 2.0, 77.0, r.containers(), r.container_size_gb())
            .unwrap()
    };
    let mut group = c.benchmark_group("resource_search");
    for (name, cluster) in [
        ("100x10", ClusterConditions::paper_default()),
        ("1000x10", ClusterConditions::two_dim(1.0..=1000.0, 1.0..=10.0, 1.0, 1.0)),
    ] {
        group.bench_function(BenchmarkId::new("brute_force", name), |b| {
            b.iter(|| black_box(brute_force(&cluster, cost)))
        });
        group.bench_function(BenchmarkId::new("hill_climb", name), |b| {
            b.iter(|| black_box(hill_climb(&cluster, cluster.min, cost)))
        });
    }
    group.finish();
}

/// Sorted-array cache lookups at growing cache sizes.
fn cache_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_lookup");
    for n in [16usize, 256, 4096] {
        let mut cache = ResourcePlanCache::new();
        for i in 0..n {
            cache.insert(i as f64, ResourceConfig::containers_and_size(10.0, 4.0));
        }
        group.bench_with_input(BenchmarkId::new("exact_hit", n), &n, |b, &n| {
            b.iter(|| black_box(cache.lookup((n / 2) as f64, CacheLookup::Exact)))
        });
        group.bench_with_input(BenchmarkId::new("nn_miss_then_near", n), &n, |b, &n| {
            b.iter(|| {
                black_box(cache.lookup(
                    n as f64 / 2.0 + 0.25,
                    CacheLookup::NearestNeighbor { threshold: 0.5 },
                ))
            })
        });
    }
    group.finish();
}

/// Incremental checkpoints of a bank the size the churn workload holds:
/// 4 096 entries over 512 member caches in 8 shards.
fn checkpoint(c: &mut Criterion) {
    const CACHES: u32 = 512;
    const HIGH_WATER: usize = 4096;
    let fill = |bank: &ShardedCacheBank, models: std::ops::Range<u32>| {
        for model in models {
            for k in 0..(HIGH_WATER as u32 / CACHES) {
                let config = ResourceConfig::containers_and_size(1.0 + k as f64, 2.5);
                bank.insert(model, 0, model as f64 / 7.0 + k as f64, config);
            }
        }
    };
    let bank = ShardedCacheBank::with_shards(8);
    fill(&bank, 0..CACHES);
    assert_eq!(bank.total_entries(), HIGH_WATER);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("raqo_bench_checkpoint_{}.json", std::process::id()));
    let (reloaded, canonical) = (path.with_extension("reloaded"), path.with_extension("saved"));

    // What is timed must be right: a checkpoint reloads to the bytes `save` writes.
    assert_eq!(bank.checkpoint(&path).unwrap(), CACHES as usize);
    ShardedCacheBank::load_with_shards(&path, 8).unwrap().save(&reloaded).unwrap();
    bank.save(&canonical).unwrap();
    assert_eq!(std::fs::read(&reloaded).unwrap(), std::fs::read(&canonical).unwrap());

    let mut group = c.benchmark_group("checkpoint");
    // Every text rendered. Re-sharding a copy is how a routine gets a bank
    // with nothing rendered yet; it is a few percent of the figure.
    let plain = bank.merged_bank();
    group.bench_function("first", |b| {
        b.iter(|| {
            let fresh = ShardedCacheBank::from_bank_with_shards(plain.clone(), 8);
            black_box(fresh.checkpoint(&path).unwrap())
        })
    });
    // One housekeeping cycle of the churn workload: 32 never-seen caches
    // arrive, compaction evicts back down to the mark, the checkpoint
    // renders the new caches and the ones compaction took entries from.
    let mut next = CACHES;
    group.bench_function("after_32_new_caches_and_compaction", |b| {
        b.iter(|| {
            fill(&bank, next..next + 32);
            next += 32;
            bank.compact(HIGH_WATER);
            black_box(bank.checkpoint(&path).unwrap())
        })
    });
    // Nothing to render: assembly and the file write alone.
    group.bench_function("unchanged", |b| b.iter(|| black_box(bank.checkpoint(&path).unwrap())));
    group.finish();
    for file in [&path, &reloaded, &canonical] {
        std::fs::remove_file(file).ok();
    }
}

/// A wire reply's plan JSON, rendered on the planning worker: the
/// streaming `serde_json::to_string` against building the `Value` tree
/// and rendering that, over the 22 TPC-H plans `wire_tpch_warm` serves.
fn plan_json(c: &mut Criterion) {
    let schema = TpchSchema::sf100();
    let model = JoinCostModel::trained_hive();
    let mut optimizer = RaqoOptimizer::new(
        &schema.catalog,
        &schema.graph,
        &model,
        ClusterConditions::paper_default(),
        PlannerKind::Selinger,
        ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.05 }),
    );
    let plans: Vec<Option<RaqoPlan>> =
        QuerySpec::tpch_full_suite().iter().map(|q| optimizer.optimize(q)).collect();
    let tree = |plan: &Option<RaqoPlan>| {
        let mut out = String::new();
        serde::write_value(&mut out, &plan.to_value(), None, 0);
        out
    };
    // What is timed must be right: both write the same bytes.
    for plan in &plans {
        assert_eq!(serde_json::to_string(plan).unwrap(), tree(plan));
    }
    let mut group = c.benchmark_group("plan_json");
    group.bench_function("to_string_22_plans", |b| {
        b.iter(|| {
            for plan in &plans {
                black_box(serde_json::to_string(plan).unwrap());
            }
        })
    });
    group.bench_function("tree_then_write_value_22_plans", |b| {
        b.iter(|| {
            for plan in &plans {
                black_box(tree(plan));
            }
        })
    });
    group.finish();
}

/// One learned-model prediction (the hot operation of all planning).
fn cost_model_eval(c: &mut Criterion) {
    let model = JoinCostModel::trained_hive();
    c.bench_function("cost_model/predict", |b| {
        b.iter(|| black_box(model.join_cost(JoinImpl::SortMerge, 2.0, 77.0, 40.0, 6.0)))
    });
    c.bench_function("cost_model/feature_vector", |b| {
        b.iter(|| black_box(feature_vector(2.0, 6.0, 40.0)))
    });
}

/// CART training on the Fig. 11 grid (the §V "one-time investment").
fn cart_training(c: &mut Criterion) {
    let engine = Engine::hive();
    let grid = ProfileGrid::paper_default();
    let samples: Vec<Sample> = labeled_grid(&engine, &grid)
        .into_iter()
        .map(|l| Sample::new(l.features().to_vec(), (l.best == JoinImpl::SortMerge) as usize))
        .collect();
    c.bench_function("cart/fit_fig11_grid", |b| {
        b.iter(|| {
            black_box(CartConfig::default().fit(
                &samples,
                vec!["d".into(), "cs".into(), "nc".into(), "tc".into()],
                vec!["BHJ".into(), "SMJ".into()],
            ))
        })
    });
}

/// The simulator paths behind Figs. 1, 4, and 9.
fn simulator(c: &mut Criterion) {
    let engine = Engine::hive();
    c.bench_function("sim/join_time", |b| {
        b.iter(|| black_box(engine.join_time(JoinImpl::SortMerge, 3.4, 77.0, 20.0, 3.0)))
    });
    c.bench_function("sim/switch_point", |b| {
        b.iter(|| black_box(switch_point_small_size(&engine, 77.0, 10.0, 9.0, 0.1, 12.0)))
    });
    let mut group = c.benchmark_group("sim/queue");
    group.sample_size(10);
    group.bench_function("fig1_default_workload", |b| {
        b.iter(|| black_box(simulate(&QueueSimConfig::default())))
    });
    group.finish();
}

criterion_group!(
    benches,
    resource_search,
    cache_lookup,
    checkpoint,
    plan_json,
    cost_model_eval,
    cart_training,
    simulator
);
criterion_main!(benches);
