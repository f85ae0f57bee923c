//! Parallel resource planning: the brute-force grid split over OS threads,
//! and multi-start hill climbing in lock-step.
//!
//! The paper's resource planners are embarrassingly parallel — every grid
//! point (brute force) and every start point (hill climbing) is an
//! independent cost-model evaluation. This module exploits that while
//! keeping results *deterministic*:
//!
//! * [`brute_force_rows`] splits a grid that is large enough to repay the
//!   threads into contiguous index ranges, row-scans each in a
//!   `std::thread::scope` worker, and merges the per-range winners by
//!   `(cost, global grid index)`, which is exactly the sequential scan's
//!   "earlier grid point wins ties" rule — the outcome is bit-identical to
//!   [`crate::brute_force`] for any worker count.
//! * [`hill_climb_multi`] climbs from the deterministic
//!   [`multi_start_seeds`] (a low-discrepancy Halton spread plus the min and
//!   max grid corners) on the calling thread, every live seed in lock-step,
//!   so each round's whole neighborhood reaches the cost model as one batch.
//!   The best local optimum wins, ties broken toward the earlier seed, and
//!   `iterations` sums all climbs (the true total of cost evaluations spent).
//!
//! [`Parallelism::Off`] keeps the grid scan on the calling thread, so the
//! paper's Figs. 12–14 iteration accounting stays reproducible run-to-run
//! regardless of the host's core count.
//!
//! **Panic isolation**: every grid worker runs under `catch_unwind`. A
//! worker that panics (a buggy cost model, an injected chaos fault) no
//! longer tears down the whole planning call — its range is re-executed
//! sequentially on the calling thread, which preserves bit-identical
//! results, and the recovery is counted as `raqo_worker_panics_total`. A
//! panic that *also* reproduces on the sequential re-run propagates: it is
//! deterministic, so hiding it would mask a real bug.

use crate::cluster::ClusterConditions;
use crate::config::ResourceConfig;
use crate::planner::{scan_rows, whole_grid, PlanningOutcome};
use raqo_telemetry::{Counter, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How much thread parallelism resource planning may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Strictly sequential: identical evaluation order and iteration
    /// accounting to the scalar planners (the reproducibility mode).
    Off,
    /// Exactly `n` worker threads (clamped to at least 1).
    Threads(usize),
    /// One worker per available hardware thread.
    Auto,
}

impl Parallelism {
    /// Resolved worker count (≥ 1).
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Off => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            }
        }
    }
}

/// Grid points a worker must have to itself before a scan is split at all:
/// spawning and joining scoped workers costs ≈ 70 µs per scan, an unbounded
/// row scan ≈ 1.7 ns per point, so two workers break even near 105 000
/// points (release build, two-core box, one `RaqoCoster::join_cost` = two
/// scans: 100 000 points 348 µs inline vs 402 µs split, 200 000 points 661
/// vs 541). A bounded scan over long rows prices so little that splitting
/// does not repay even at 1 000 000 points (382 vs 420 µs); the grids the
/// repository plans on stay below the floor either way. Outcomes are
/// bit-identical for any worker count; this only moves time.
const MIN_POINTS_PER_WORKER: u64 = 60_000;

/// Exhaustive grid search over a *row* evaluator, split across worker
/// threads when the grid is large enough to repay them — the form the cost
/// kernels are written for. `row_fn(start, base, coords, costs)` prices one
/// slice of a grid row: point `k` is `base` with its last coordinate replaced
/// by `coords[k]`, `start` is the row-major grid index of point 0, and
/// `costs[k]` must receive its cost (`f64::INFINITY` where infeasible).
/// Slices are at most [`crate::BATCH_CHUNK`] long.
///
/// `bound(start, base, coords)` must answer a lower bound on every cost
/// `row_fn` can write for that slice (`f64::NEG_INFINITY` when it knows
/// none); it sees every slice once, in grid order, and `row_fn` then prices
/// only the slices that can still hold the winner, best bound first. The
/// winner is the lowest `(cost, grid index)` — exactly the exhaustive
/// scan's — for any worker count: the grid is cut into contiguous row-major
/// index ranges, each worker bounds and prunes its own range, and the
/// per-range winners are merged in range order — lower cost wins, the
/// earlier range on ties. `iterations` is the full grid size, as for the
/// sequential planner, whatever was pruned.
pub fn brute_force_rows<F, B>(
    cluster: &ClusterConditions,
    row_fn: F,
    bound: B,
    parallelism: Parallelism,
    tel: &Telemetry,
) -> PlanningOutcome
where
    F: Fn(u64, &ResourceConfig, &[f64], &mut [f64]) + Sync,
    B: Fn(u64, &ResourceConfig, &[f64]) -> f64 + Sync,
{
    let scan = |axes: &[Vec<f64>], lo: u64, hi: u64| scan_rows(axes, lo, hi, &bound, &row_fn);
    whole_grid(cluster, |axes, total| {
        // Size first: a grid too small to split never asks `Auto` for cores.
        let room = total / MIN_POINTS_PER_WORKER;
        let workers = if room < 2 { 1 } else { room.min(parallelism.workers() as u64) };
        if workers == 1 {
            return scan(axes, 0, total);
        }
        let chunk = total.div_ceil(workers);
        let scan = &scan;
        // Workers enter the caller's trace scope so anything the evaluator
        // reports (e.g. a sanitized model output) attributes to the right
        // ticket rather than an ambient worker thread.
        let scope_token = tel.current_scope();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (lo, hi) = (w * chunk, ((w + 1) * chunk).min(total));
                    let h = scope.spawn(move || {
                        catch_unwind(AssertUnwindSafe(|| {
                            let _in_scope = tel.enter_scope(scope_token);
                            let _ = raqo_faults::site("resource.worker.grid");
                            scan(axes, lo, hi)
                        }))
                    });
                    (lo, hi, h)
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|(lo, hi, h)| match h.join() {
                    Ok(Ok(best)) => best,
                    // The worker panicked (caught by catch_unwind, or before
                    // reaching it). Re-run its range here: same scan, same
                    // tie-breaks, bit-identical to an all-healthy run.
                    Ok(Err(_payload)) | Err(_payload) => {
                        tel.inc(Counter::WorkerPanics);
                        scan(axes, lo, hi)
                    }
                })
                .reduce(|best, next| if next.2 < best.2 { next } else { best })
        })
    })
}

/// The value of grid point `steps` along dimension `dim`.
fn grid_value(cluster: &ClusterConditions, dim: usize, steps: u64) -> f64 {
    // Infallible: callers derive `steps` from `points_along(dim)`.
    cluster.axis(dim).nth(steps as usize).expect("step count within the axis")
}

/// Element `index` of the van der Corput sequence in the given base — the
/// per-dimension building block of the Halton sequence. Returns a value in
/// `(0, 1)` for `index >= 1`.
fn halton(mut index: u64, base: u64) -> f64 {
    let mut f = 1.0;
    let mut r = 0.0;
    while index > 0 {
        f /= base as f64;
        r += f * (index % base) as f64;
        index /= base;
    }
    r
}

/// Deterministic multi-start seeds: the min corner (the paper's Algorithm 1
/// start, first so a single seed degenerates to it), the grid-max corner
/// (kept because BHJ feasibility is monotone in container size: whenever
/// any grid point is feasible, the max corner is too), then `2^dims - 1`
/// Halton points (bases 2, 3, 5, 7 per dimension) snapped to the grid, which
/// spread over the interior instead of clustering on the boundary. Every
/// seed is a reachable grid point and duplicates are removed (a 1-point
/// cluster yields exactly one seed).
pub fn multi_start_seeds(cluster: &ClusterConditions) -> Vec<ResourceConfig> {
    const PRIMES: [u64; 4] = [2, 3, 5, 7];
    let dims = cluster.dims();
    assert!(dims <= PRIMES.len(), "Halton bases cover up to {} dims", PRIMES.len());
    let mut seeds: Vec<ResourceConfig> = Vec::with_capacity((1 << dims) + 1);
    seeds.push(cluster.min);
    let mut top = cluster.min;
    for i in 0..dims {
        top.set(i, grid_value(cluster, i, cluster.points_along(i) - 1));
    }
    if !seeds.contains(&top) {
        seeds.push(top);
    }
    let count = (1u64 << dims) - 1;
    for h in 1..=count {
        let mut r = cluster.min;
        for i in 0..dims {
            let n = cluster.points_along(i);
            let steps = (halton(h, PRIMES[i]) * (n - 1) as f64).round() as u64;
            r.set(i, grid_value(cluster, i, steps));
        }
        if !seeds.contains(&r) {
            seeds.push(r);
        }
    }
    seeds
}

/// Multi-start hill climbing: Algorithm 1 from every [`multi_start_seeds`]
/// point, keeping the best local optimum. A single thread runs every live
/// seed in lock-step and gathers each round's whole candidate neighborhood
/// (≤ 2 probes × dims × live seeds) into one `batch_fn` call per dimension —
/// wide enough for the batched cost kernel to pay off. Each lock-step round
/// increments `raqo_hill_climb_batched_rounds_total`.
///
/// `batch_fn(configs, costs)` must fill `costs[i]` with the cost at
/// `configs[i]`, using `f64::INFINITY` for infeasible points — the same
/// contract as [`crate::brute_force_batch`] minus the grid index (climb probes
/// are not grid-indexed).
///
/// The outcome is **bit-identical** to running [`crate::hill_climb`] from
/// each seed in turn whenever the evaluator agrees with the scalar cost
/// function point-wise:
///
/// * probe configurations replay the scalar climber's nudge → evaluate →
///   backtrack arithmetic exactly, so even floating-point drift of a
///   backtracked coordinate is reproduced;
/// * the per-dimension accept logic (compare against the round's running
///   `best_cost`, last strict improvement wins, reapply the winning step
///   after both candidates) is replayed from the batched costs in the same
///   probe order;
/// * `iterations` counts the same distinct configurations probed, summed
///   over all seeds, and the winner is merged by `(cost, seed index)`.
pub fn hill_climb_multi<F>(
    cluster: &ClusterConditions,
    mut batch_fn: F,
    tel: &Telemetry,
) -> PlanningOutcome
where
    F: FnMut(&[ResourceConfig], &mut [f64]),
{
    /// One seed's climb state across lock-step rounds.
    struct Climb {
        curr: ResourceConfig,
        curr_cost: f64,
        /// The round's running best (Algorithm 1 line 6), shared across
        /// dimensions within a round exactly like the scalar climber's.
        best_cost: f64,
        iterations: u64,
        live: bool,
    }

    let seeds = multi_start_seeds(cluster);
    let step_size = cluster.discrete_steps();
    let dims = cluster.dims();
    let candidate = [-1.0, 1.0];

    // Round 0: every seed's start cost in one batch.
    let mut costs = vec![0.0f64; seeds.len()];
    batch_fn(&seeds, &mut costs);
    let mut climbs: Vec<Climb> = seeds
        .iter()
        .zip(&costs)
        .map(|(&s, &c)| Climb { curr: s, curr_cost: c, best_cost: c, iterations: 1, live: true })
        .collect();

    let mut probe_configs: Vec<ResourceConfig> = Vec::new();
    // (climb index, candidate) per gathered probe, in replay order.
    let mut probe_meta: Vec<(usize, f64)> = Vec::new();

    while climbs.iter().any(|c| c.live) {
        tel.inc(Counter::HillClimbBatchedRounds);
        for c in climbs.iter_mut().filter(|c| c.live) {
            c.best_cost = c.curr_cost;
        }
        for i in 0..dims {
            probe_configs.clear();
            probe_meta.clear();
            for (ci, c) in climbs.iter_mut().enumerate().filter(|(_, c)| c.live) {
                for &cand in &candidate {
                    let i_val = step_size.get(i) * cand;
                    let stepped = c.curr.get(i) + i_val;
                    if cluster.admits(i, stepped) {
                        // Nudge + snapshot + backtrack, exactly as the scalar
                        // climber does, so any floating-point drift of the
                        // backtracked coordinate is replayed too.
                        c.curr.nudge(i, i_val);
                        probe_configs.push(c.curr);
                        c.curr.nudge(i, -i_val);
                        probe_meta.push((ci, cand));
                    }
                }
            }
            if probe_configs.is_empty() {
                continue;
            }
            costs.resize(probe_configs.len(), 0.0);
            batch_fn(&probe_configs, &mut costs[..probe_configs.len()]);

            // Replay lines 8–19 per seed from the batched costs: probes were
            // gathered in (seed, candidate) order, so a linear scan with a
            // per-seed `best` register reproduces the scalar accept logic.
            let mut at = 0;
            while at < probe_meta.len() {
                let ci = probe_meta[at].0;
                let mut best: Option<f64> = None;
                while at < probe_meta.len() && probe_meta[at].0 == ci {
                    let (_, cand) = probe_meta[at];
                    let temp = costs[at];
                    let c = &mut climbs[ci];
                    c.iterations += 1;
                    if temp < c.best_cost {
                        c.best_cost = temp;
                        best = Some(cand);
                    }
                    at += 1;
                }
                if let Some(cand) = best {
                    climbs[ci].curr.nudge(i, step_size.get(i) * cand);
                }
            }
        }
        for c in climbs.iter_mut().filter(|c| c.live) {
            if c.best_cost >= c.curr_cost {
                c.live = false; // local optimum: Algorithm 1 lines 20–21
            } else {
                c.curr_cost = c.best_cost;
            }
        }
    }

    let iterations = climbs.iter().map(|c| c.iterations).sum();
    let (_, best) = climbs
        .iter()
        .enumerate()
        .min_by(|(ai, a), (bi, b)| a.curr_cost.total_cmp(&b.curr_cost).then(ai.cmp(bi)))
        // Infallible: there is always at least one seed (the min corner).
        .expect("at least one seed");
    PlanningOutcome { config: best.curr, cost: best.curr_cost, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{brute_force, hill_climb, no_bound};
    use proptest::prelude::*;

    fn bowl(r: &ResourceConfig) -> f64 {
        let dc = r.containers() - 40.0;
        let ds = r.container_size_gb() - 7.0;
        dc * dc + 3.0 * ds * ds
    }

    /// A 1000 × 500 grid: enough points that up to eight workers each clear
    /// [`MIN_POINTS_PER_WORKER`], so the tests below really fan out.
    fn fanned_cluster() -> ClusterConditions {
        let cluster = ClusterConditions::two_dim(1.0..=1000.0, 1.0..=500.0, 1.0, 1.0);
        assert!(cluster.grid_size() >= 8 * MIN_POINTS_PER_WORKER);
        cluster
    }

    /// [`brute_force_rows`] over a per-point cost function.
    fn rows_by_point(
        cluster: &ClusterConditions,
        cost_fn: impl Fn(&ResourceConfig) -> f64 + Sync,
        parallelism: Parallelism,
        tel: &Telemetry,
    ) -> PlanningOutcome {
        let row_fn = |_: u64, base: &ResourceConfig, coords: &[f64], costs: &mut [f64]| {
            for (&x, c) in coords.iter().zip(costs) {
                *c = cost_fn(&base.with_last(x));
            }
        };
        brute_force_rows(cluster, row_fn, no_bound, parallelism, tel)
    }

    /// [`brute_force_rows`] over an array-of-configs evaluator.
    fn rows_by_configs(
        cluster: &ClusterConditions,
        batch_fn: impl Fn(u64, &[ResourceConfig], &mut [f64]) + Sync,
        parallelism: Parallelism,
        tel: &Telemetry,
    ) -> PlanningOutcome {
        let row_fn = |start: u64, base: &ResourceConfig, coords: &[f64], costs: &mut [f64]| {
            let configs: Vec<ResourceConfig> = coords.iter().map(|&x| base.with_last(x)).collect();
            batch_fn(start, &configs, costs);
        };
        brute_force_rows(cluster, row_fn, no_bound, parallelism, tel)
    }

    /// The per-seed reference for the lock-step climber: Algorithm 1 from
    /// every seed in turn on this thread, the best local optimum kept (the
    /// earlier seed on ties), iterations summed.
    fn hill_climb_per_seed(
        cluster: &ClusterConditions,
        mut cost_fn: impl FnMut(&ResourceConfig) -> f64,
    ) -> PlanningOutcome {
        let mut best: Option<PlanningOutcome> = None;
        let mut iterations = 0;
        for seed in multi_start_seeds(cluster) {
            let out = hill_climb(cluster, seed, &mut cost_fn);
            iterations += out.iterations;
            if best.is_none_or(|b| out.cost.total_cmp(&b.cost).is_lt()) {
                best = Some(out);
            }
        }
        PlanningOutcome { iterations, ..best.expect("at least one seed") }
    }

    /// Point-wise batch evaluator over a scalar surface, for parity tests.
    fn batch_of(
        f: impl Fn(&ResourceConfig) -> f64,
    ) -> impl FnMut(&[ResourceConfig], &mut [f64]) {
        move |configs, costs| {
            for (r, c) in configs.iter().zip(costs.iter_mut()) {
                *c = f(r);
            }
        }
    }

    /// The lock-step climber with telemetry off.
    fn lockstep(
        cluster: &ClusterConditions,
        batch_fn: impl FnMut(&[ResourceConfig], &mut [f64]),
    ) -> PlanningOutcome {
        hill_climb_multi(cluster, batch_fn, &Telemetry::disabled())
    }

    #[test]
    fn parallelism_workers_resolve() {
        assert_eq!(Parallelism::Off.workers(), 1);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Threads(6).workers(), 6);
        assert!(Parallelism::Auto.workers() >= 1);
    }

    #[test]
    fn parallel_brute_force_matches_sequential_bitwise() {
        let cluster = fanned_cluster();
        let seq = brute_force(&cluster, bowl);
        for par in [Parallelism::Off, Parallelism::Threads(3), Parallelism::Threads(7), Parallelism::Auto] {
            let out = rows_by_point(&cluster, bowl, par, &Telemetry::disabled());
            assert_eq!(out.config, seq.config, "{par:?}");
            assert!(out.cost.to_bits() == seq.cost.to_bits(), "{par:?}");
            assert_eq!(out.iterations, seq.iterations, "{par:?}");
        }
    }

    #[test]
    fn bounded_parallel_brute_force_matches_the_exhaustive_scan() {
        // `(nc − 40)²` bounds the bowl along every row; a constant bound
        // ties every slice. Each worker prunes its own range.
        let cluster = fanned_cluster();
        let row_fn = |_: u64, base: &ResourceConfig, coords: &[f64], costs: &mut [f64]| {
            for (&x, c) in coords.iter().zip(costs) {
                *c = bowl(&base.with_last(x));
            }
        };
        let by_row = |_: u64, base: &ResourceConfig, _: &[f64]| (base.containers() - 40.0).powi(2);
        let seq = brute_force(&cluster, bowl);
        for par in [Parallelism::Off, Parallelism::Threads(3), Parallelism::Threads(7)] {
            let tel = Telemetry::disabled();
            for out in [
                brute_force_rows(&cluster, row_fn, by_row, par, &tel),
                brute_force_rows(&cluster, row_fn, |_, _, _| 0.0, par, &tel),
            ] {
                assert_eq!(out.config, seq.config, "{par:?}");
                assert_eq!(out.cost.to_bits(), seq.cost.to_bits(), "{par:?}");
                assert_eq!(out.iterations, seq.iterations, "{par:?}");
            }
        }
    }

    #[test]
    fn parallel_brute_force_tie_break_matches_sequential() {
        // Constant surface: every point ties; the winner must be the first
        // grid point for any chunking.
        let cluster = fanned_cluster();
        let seq = brute_force(&cluster, |_| 2.5);
        for n in 1..=8 {
            let out =
                rows_by_point(&cluster, |_| 2.5, Parallelism::Threads(n), &Telemetry::disabled());
            assert_eq!(out.config, seq.config, "workers={n}");
        }
    }

    #[test]
    fn more_workers_than_grid_points() {
        let cluster = ClusterConditions::two_dim(1.0..=2.0, 1.0..=1.0, 1.0, 1.0);
        let out = rows_by_point(&cluster, bowl, Parallelism::Threads(16), &Telemetry::disabled());
        assert_eq!(out, brute_force(&cluster, bowl));
    }

    #[test]
    fn grid_fans_out_only_above_the_points_per_worker_floor() {
        // Which threads evaluate the surface: only the caller's below the
        // floor, more than one above it. The outcome is the same either way.
        let threads_used = |cluster: &ClusterConditions| {
            let seen = std::sync::Mutex::new(std::collections::HashSet::new());
            let out = brute_force_rows(
                cluster,
                |_, _, _, costs: &mut [f64]| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    costs.fill(1.0);
                },
                no_bound,
                Parallelism::Threads(4),
                &Telemetry::disabled(),
            );
            assert_eq!(out.config, cluster.min);
            assert_eq!(out.iterations, cluster.grid_size());
            seen.into_inner().unwrap()
        };
        let just_below = ClusterConditions::two_dim(1.0..=119_999.0, 1.0..=1.0, 1.0, 1.0);
        assert!(just_below.grid_size() < 2 * MIN_POINTS_PER_WORKER);
        for small in [ClusterConditions::paper_default(), just_below] {
            let used = threads_used(&small);
            assert_eq!(used.len(), 1);
            assert!(used.contains(&std::thread::current().id()));
        }
        let used = threads_used(&fanned_cluster());
        assert_eq!(used.len(), 4);
        assert!(!used.contains(&std::thread::current().id()));
    }

    #[test]
    fn fan_out_matches_sequential_on_a_non_representable_step() {
        // 0.1 is not a binary fraction: the row length comes from the
        // accumulated axis, and every worker must decompose its start index
        // with that same length or the merged winner drifts.
        let fanned = ClusterConditions::two_dim(1.0..=300.0, 1.0..=61.0, 1.0, 0.1);
        assert!(fanned.grid_size() >= 3 * MIN_POINTS_PER_WORKER);
        for cluster in [
            fanned,
            ClusterConditions::two_dim(1.0..=3.0, 1.0..=1.7, 1.0, 0.1),
            ClusterConditions::two_dim(1.0..=1.0, 0.0..=0.3, 1.0, 0.1),
        ] {
            // Optimum on the last point of a row, where a short row length
            // would wrap it onto the next one.
            let top = cluster.axis(1).last().unwrap();
            let ridge = |r: &ResourceConfig| {
                (r.containers() - 2.0).abs() + (r.container_size_gb() - top).abs()
            };
            let seq = brute_force(&cluster, ridge);
            assert_eq!(seq.iterations, cluster.grid().count() as u64);
            assert_eq!(seq.cost, if cluster.max.containers() < 2.0 { 1.0 } else { 0.0 });
            let par =
                rows_by_point(&cluster, ridge, Parallelism::Threads(3), &Telemetry::disabled());
            assert_eq!(par.config, seq.config);
            assert_eq!(par.cost.to_bits(), seq.cost.to_bits());
            assert_eq!(par.iterations, seq.iterations);
        }
    }

    #[test]
    fn parallel_batched_brute_force_matches_sequential_bitwise() {
        let cluster = fanned_cluster();
        let seq = brute_force(&cluster, bowl);
        let eval = |_: u64, configs: &[ResourceConfig], costs: &mut [f64]| {
            for (r, c) in configs.iter().zip(costs.iter_mut()) {
                *c = bowl(r);
            }
        };
        for par in [Parallelism::Off, Parallelism::Threads(3), Parallelism::Threads(7), Parallelism::Auto] {
            let out = rows_by_configs(&cluster, eval, par, &Telemetry::disabled());
            assert_eq!(out.config, seq.config, "{par:?}");
            assert_eq!(out.cost.to_bits(), seq.cost.to_bits(), "{par:?}");
            assert_eq!(out.iterations, seq.iterations, "{par:?}");
        }
    }

    #[test]
    fn parallel_batched_brute_force_tie_break_matches_sequential() {
        let cluster = fanned_cluster();
        let seq = brute_force(&cluster, |_| 2.5);
        for n in 1..=8 {
            let out = rows_by_configs(
                &cluster,
                |_, _, costs: &mut [f64]| costs.fill(2.5),
                Parallelism::Threads(n),
                &Telemetry::disabled(),
            );
            assert_eq!(out.config, seq.config, "workers={n}");
        }
    }

    #[test]
    fn halton_seeds_cover_extremes_and_interior() {
        let cluster = ClusterConditions::paper_default();
        let seeds = multi_start_seeds(&cluster);
        assert_eq!(seeds.len(), 5); // min + max corners + 3 Halton points
        assert_eq!(seeds[0], cluster.min);
        assert!(seeds.contains(&ResourceConfig::containers_and_size(100.0, 10.0)));
        assert!(seeds.iter().all(|s| cluster.contains(s)));
        // The Halton points land in the interior, not on the boundary.
        assert_eq!(seeds[2], ResourceConfig::containers_and_size(51.0, 4.0));
        assert_eq!(seeds[3], ResourceConfig::containers_and_size(26.0, 7.0));
        assert_eq!(seeds[4], ResourceConfig::containers_and_size(75.0, 2.0));
        // Degenerate 1-point cluster: every seed coincides.
        let tiny = ClusterConditions::two_dim(3.0..=3.0, 2.0..=2.0, 1.0, 1.0);
        assert_eq!(multi_start_seeds(&tiny), vec![ResourceConfig::containers_and_size(3.0, 2.0)]);
    }

    #[test]
    fn halton_seeds_find_interior_basin_corner_seeds_miss() {
        // A broad bowl with its minimum at the min corner, plus a deep,
        // narrow dent centred on one of the Halton seeds (26, 7). Climbs
        // from the two corner seeds slide down the bowl without entering
        // the dent's radius; the Halton spread starts at its centre and
        // finds the negative-cost basin.
        let dented = |r: &ResourceConfig| -> f64 {
            let d1 = (r.containers() - 1.0).powi(2) + (r.container_size_gb() - 1.0).powi(2);
            let dc = ((r.containers() - 26.0).powi(2)
                + (r.container_size_gb() - 7.0).powi(2))
            .sqrt();
            d1 - (500.0 * (3.0 - dc)).max(0.0)
        };
        let cluster = ClusterConditions::paper_default();
        let halton = lockstep(&cluster, batch_of(dented));
        let seeds = multi_start_seeds(&cluster);
        for corner in &seeds[..2] {
            let climbed = hill_climb(&cluster, *corner, dented);
            assert!(
                halton.cost < climbed.cost,
                "halton={} corner {corner:?}={}",
                halton.cost,
                climbed.cost
            );
        }
        assert_eq!(halton.config, ResourceConfig::containers_and_size(26.0, 7.0));
    }

    #[test]
    fn multi_start_escapes_local_optimum_single_start_falls_into() {
        // Deep basin near the max corner, shallow one near the min corner:
        // Algorithm 1 (start = min) settles in the shallow basin, while a
        // corner-seeded climb finds the deep one.
        let two_basins = |r: &ResourceConfig| -> f64 {
            let near = (r.containers() - 5.0).powi(2) + (r.container_size_gb() - 2.0).powi(2);
            let far =
                (r.containers() - 90.0).powi(2) + (r.container_size_gb() - 9.0).powi(2) - 50.0;
            near.min(far)
        };
        let cluster = ClusterConditions::paper_default();
        let single = hill_climb(&cluster, cluster.min, two_basins);
        let multi = lockstep(&cluster, batch_of(two_basins));
        assert!(multi.cost < single.cost);
        assert_eq!(multi.config, ResourceConfig::containers_and_size(90.0, 9.0));
    }

    #[test]
    fn grid_worker_panic_recovers_bit_identical() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cluster = fanned_cluster();
        let seq = brute_force(&cluster, bowl);
        let tel = Telemetry::enabled();
        // Panic exactly once, at the surface's minimum, from whichever
        // worker reaches it first; the sequential re-scan then succeeds.
        let fired = AtomicBool::new(false);
        let spiky = |r: &ResourceConfig| -> f64 {
            if r.containers() == 40.0
                && r.container_size_gb() == 7.0
                && !fired.swap(true, Ordering::SeqCst)
            {
                panic!("injected cost-model panic");
            }
            bowl(r)
        };
        let out = rows_by_point(&cluster, spiky, Parallelism::Threads(4), &tel);
        assert_eq!(out.config, seq.config);
        assert_eq!(out.cost.to_bits(), seq.cost.to_bits());
        assert_eq!(out.iterations, seq.iterations);
        assert_eq!(tel.snapshot().unwrap().get(Counter::WorkerPanics), 1);
    }

    #[test]
    fn batch_worker_panic_recovers_bit_identical() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cluster = fanned_cluster();
        let seq = brute_force(&cluster, bowl);
        let tel = Telemetry::enabled();
        let fired = AtomicBool::new(false);
        let eval = |at: u64, configs: &[ResourceConfig], costs: &mut [f64]| {
            if at == 0 && !fired.swap(true, Ordering::SeqCst) {
                panic!("injected batch-kernel panic");
            }
            for (r, c) in configs.iter().zip(costs.iter_mut()) {
                *c = bowl(r);
            }
        };
        let out = rows_by_configs(&cluster, eval, Parallelism::Threads(4), &tel);
        assert_eq!(out.config, seq.config);
        assert_eq!(out.cost.to_bits(), seq.cost.to_bits());
        assert_eq!(tel.snapshot().unwrap().get(Counter::WorkerPanics), 1);
    }

    #[test]
    fn deterministic_worker_panic_propagates() {
        // A panic that reproduces on the sequential re-run is a real bug;
        // recovery must not swallow it.
        let cluster = fanned_cluster();
        let always = |r: &ResourceConfig| -> f64 {
            if r.containers() == 40.0 && r.container_size_gb() == 7.0 {
                panic!("deterministic cost-model bug");
            }
            bowl(r)
        };
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rows_by_point(&cluster, always, Parallelism::Threads(4), &Telemetry::disabled())
        }));
        assert!(r.is_err(), "deterministic panic must propagate");
    }

    #[test]
    fn multi_start_is_scheduling_invariant() {
        // Lock-step interleaving of the seeds' climbs is invisible: the
        // outcome is the one climbing each seed in turn produces.
        let cluster = ClusterConditions::paper_default();
        let per_seed = hill_climb_per_seed(&cluster, bowl);
        let lock_step = lockstep(&cluster, batch_of(bowl));
        assert_eq!(per_seed, lock_step);
        // All seeds converge on the single bowl minimum.
        assert_eq!(lock_step.config, ResourceConfig::containers_and_size(40.0, 7.0));
        // Iterations are summed over all climbs, so the multi-start run
        // spends more than a single Algorithm 1 climb.
        assert!(lock_step.iterations > hill_climb(&cluster, cluster.min, bowl).iterations);
    }

    #[test]
    fn batched_climb_matches_multi_start_bitwise() {
        // Convex, multimodal, and dented surfaces: the lock-step climber
        // must agree with the per-seed reference bit-for-bit on config,
        // cost, and iterations.
        let two_basins = |r: &ResourceConfig| -> f64 {
            let near = (r.containers() - 5.0).powi(2) + (r.container_size_gb() - 2.0).powi(2);
            let far =
                (r.containers() - 90.0).powi(2) + (r.container_size_gb() - 9.0).powi(2) - 50.0;
            near.min(far)
        };
        let dented = |r: &ResourceConfig| -> f64 {
            let d1 = (r.containers() - 1.0).powi(2) + (r.container_size_gb() - 1.0).powi(2);
            let dc = ((r.containers() - 26.0).powi(2) + (r.container_size_gb() - 7.0).powi(2))
                .sqrt();
            d1 - (500.0 * (3.0 - dc)).max(0.0)
        };
        let surfaces: [&dyn Fn(&ResourceConfig) -> f64; 3] = [&bowl, &two_basins, &dented];
        let cluster = ClusterConditions::paper_default();
        for (si, surface) in surfaces.iter().enumerate() {
            let batched = lockstep(&cluster, batch_of(surface));
            let scalar = hill_climb_per_seed(&cluster, surface);
            assert_eq!(batched.config, scalar.config, "s{si}");
            assert_eq!(batched.cost.to_bits(), scalar.cost.to_bits(), "s{si}");
            assert_eq!(batched.iterations, scalar.iterations, "s{si}");
        }
    }

    #[test]
    fn batched_climb_tie_break_matches_multi_start() {
        // Constant surface: every seed's optimum ties at the start; the
        // merged winner must be the earliest seed (the min corner), exactly
        // like the per-seed reference.
        let cluster = ClusterConditions::paper_default();
        let scalar = hill_climb_per_seed(&cluster, |_| 3.0);
        let batched = lockstep(&cluster, |_: &[ResourceConfig], costs: &mut [f64]| costs.fill(3.0));
        assert_eq!(batched, scalar);
        assert_eq!(batched.config, cluster.min);
    }

    #[test]
    fn batched_climb_handles_infeasible_points() {
        // A feasibility mask (INFINITY outside a band) must not derail the
        // lock-step replay: parity with the per-seed reference, which sees
        // the same INFINITY costs from its scalar calls.
        let masked = |r: &ResourceConfig| -> f64 {
            if r.container_size_gb() < 4.0 { f64::INFINITY } else { bowl(r) }
        };
        let cluster = ClusterConditions::paper_default();
        let scalar = hill_climb_per_seed(&cluster, masked);
        let batched = lockstep(&cluster, batch_of(masked));
        assert_eq!(batched, scalar);
    }

    #[test]
    fn batched_climb_counts_lockstep_rounds() {
        let cluster = ClusterConditions::paper_default();
        // Flat surface: every seed probes its round-1 neighborhood, nothing
        // improves, all seeds retire — exactly one lock-step round.
        let tel = Telemetry::enabled();
        hill_climb_multi(&cluster, |_: &[ResourceConfig], costs: &mut [f64]| costs.fill(1.0), &tel);
        assert_eq!(tel.snapshot().unwrap().get(Counter::HillClimbBatchedRounds), 1);

        // The bowl needs many rounds: at least as many as the longest
        // single-seed climb's accepted-step count.
        let tel = Telemetry::enabled();
        hill_climb_multi(&cluster, batch_of(bowl), &tel);
        let rounds = tel.snapshot().unwrap().get(Counter::HillClimbBatchedRounds);
        assert!(rounds > 10, "bowl should take many lock-step rounds, got {rounds}");
    }

    #[test]
    fn lock_step_climb_evaluates_on_the_calling_thread() {
        // The climber fans probes out across seeds, not threads: every
        // batch, round 0 included, runs on the caller's thread.
        let caller = std::thread::current().id();
        let mut batches = 0;
        let out = lockstep(&ClusterConditions::paper_default(), |configs, costs| {
            assert_eq!(std::thread::current().id(), caller);
            batches += 1;
            batch_of(bowl)(configs, costs);
        });
        assert_eq!(out.config, ResourceConfig::containers_and_size(40.0, 7.0));
        assert!(batches > 1, "round 0 plus at least one probe batch, got {batches}");
    }

    #[test]
    fn climb_panic_propagates_without_recovery() {
        // No worker threads means nothing to recover: a panicking evaluator
        // unwinds straight to the caller, even one that would succeed on a
        // retry, and no worker panic is counted.
        use std::sync::atomic::{AtomicBool, Ordering};
        let cluster = ClusterConditions::paper_default();
        let tel = Telemetry::enabled();
        let fired = AtomicBool::new(false);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            hill_climb_multi(
                &cluster,
                |configs: &[ResourceConfig], costs: &mut [f64]| {
                    if !fired.swap(true, Ordering::SeqCst) {
                        panic!("injected climb panic");
                    }
                    batch_of(bowl)(configs, costs);
                },
                &tel,
            )
        }));
        assert!(r.is_err(), "a climb panic must reach the caller");
        assert_eq!(tel.snapshot().unwrap().get(Counter::WorkerPanics), 0);
    }

    #[test]
    fn batched_climb_single_point_cluster() {
        let tiny = ClusterConditions::two_dim(3.0..=3.0, 2.0..=2.0, 1.0, 1.0);
        let out = lockstep(&tiny, batch_of(bowl));
        assert_eq!(out.config, ResourceConfig::containers_and_size(3.0, 2.0));
        assert_eq!(out.iterations, 1);
    }

    proptest::proptest! {
        /// On any grid the seeds are distinct grid points, led by the min
        /// corner and including the grid-max corner, at most `2^dims + 1`.
        #[test]
        fn multi_start_seeds_are_distinct_grid_points(
            max_c in 1.0f64..40.0,
            max_s in 1.0f64..10.0,
            half_steps in proptest::bool::ANY,
        ) {
            let step_s = if half_steps { 0.5 } else { 1.0 };
            let cluster =
                ClusterConditions::two_dim(1.0..=max_c.floor(), 1.0..=max_s.floor(), 1.0, step_s);
            let seeds = multi_start_seeds(&cluster);
            prop_assert_eq!(seeds[0], cluster.min);
            prop_assert!(seeds.len() <= (1 << cluster.dims()) + 1);
            let grid: Vec<ResourceConfig> = cluster.grid().collect();
            prop_assert!(seeds.contains(grid.last().unwrap()), "grid-max corner missing");
            for (i, s) in seeds.iter().enumerate() {
                prop_assert!(grid.contains(s), "seed {:?} is off the grid", s);
                prop_assert!(!seeds[..i].contains(s), "seed {:?} repeats", s);
            }
        }

        /// Lock-step == per-seed multi-start parity on randomized quadratic
        /// surfaces (optionally dented) over random grids.
        #[test]
        fn batched_climb_parity_randomized(
            max_c in 2.0f64..40.0,
            max_s in 1.0f64..10.0,
            opt_c in 0.0f64..1.0,
            opt_s in 0.0f64..1.0,
            dent_c in 0.0f64..1.0,
            dent_s in 0.0f64..1.0,
            dent_depth in 0.0f64..500.0,
        ) {
            let cluster = ClusterConditions::two_dim(1.0..=max_c.floor(), 1.0..=max_s.floor(), 1.0, 1.0);
            let (oc, os) = (1.0 + opt_c * (max_c - 1.0), 1.0 + opt_s * (max_s - 1.0));
            let (dc, ds) = (1.0 + dent_c * (max_c - 1.0), 1.0 + dent_s * (max_s - 1.0));
            let surface = move |r: &ResourceConfig| -> f64 {
                let d1 = (r.containers() - oc).powi(2) + (r.container_size_gb() - os).powi(2);
                let dd = ((r.containers() - dc).powi(2)
                    + (r.container_size_gb() - ds).powi(2))
                .sqrt();
                d1 - (dent_depth * (2.0 - dd)).max(0.0)
            };
            let batched = lockstep(&cluster, batch_of(surface));
            let scalar = hill_climb_per_seed(&cluster, surface);
            prop_assert_eq!(batched.config, scalar.config);
            prop_assert_eq!(batched.cost.to_bits(), scalar.cost.to_bits());
            prop_assert_eq!(batched.iterations, scalar.iterations);
        }
    }
}
