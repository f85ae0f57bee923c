//! Resource planners: brute force (§VI-B1) and hill climbing (Algorithm 1).

use crate::cluster::ClusterConditions;
use crate::config::{ResourceConfig, MAX_DIMS};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Result of one resource-planning call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanningOutcome {
    /// The chosen resource configuration.
    pub config: ResourceConfig,
    /// The cost model's value at `config`.
    pub cost: f64,
    /// Number of cost-model evaluations performed — the paper's "resource
    /// configurations explored" metric (Figs. 12–14).
    pub iterations: u64,
}

/// Longest run of grid points handed to a row evaluator at once: large
/// enough to amortize per-slice setup and give the cost kernel a
/// vectorizable run, small enough that the cost buffer stays on the stack.
pub const BATCH_CHUNK: usize = 256;

/// Lowest-cost point of a scanned index range: `(grid index, point, cost)`.
pub(crate) type Best = Option<(u64, ResourceConfig, f64)>;

/// A cluster's grid laid out once as one coordinate list per dimension;
/// grid indices are row-major over them, dimension 0 most significant.
/// Accumulating a long axis costs more than a bounded scan of it, so each
/// thread keeps the layout of the last cluster it scanned (matched bit for
/// bit).
fn axes_of(cluster: &ClusterConditions) -> Rc<Vec<Vec<f64>>> {
    type Layout = Option<([u64; 3 * MAX_DIMS], Rc<Vec<Vec<f64>>>)>;
    thread_local! {
        static LAST: RefCell<Layout> = const { RefCell::new(None) };
    }
    let mut key = [0u64; 3 * MAX_DIMS];
    let bounds = [cluster.min, cluster.max, cluster.discrete_steps()];
    for (k, v) in key.iter_mut().zip(bounds.iter().flat_map(|r| r.as_slice())) {
        *k = v.to_bits();
    }
    LAST.with_borrow_mut(|last| match last {
        Some((seen, axes)) if *seen == key && axes.len() == cluster.dims() => axes.clone(),
        _ => {
            let axes = Rc::new((0..cluster.dims()).map(|i| cluster.axis(i).collect()).collect());
            *last = Some((key, Rc::clone(&axes)));
            axes
        }
    })
}

/// The bound of a row evaluator that has none: every slice may hold the
/// winner, so [`scan_rows`] prices them all, in grid order.
pub(crate) fn no_bound(_start: u64, _base: &ResourceConfig, _coords: &[f64]) -> f64 {
    f64::NEG_INFINITY
}

/// Odometer position of row-major `index` over `axes`, and the point it
/// stands for.
fn locate(axes: &[Vec<f64>], index: u64) -> ([usize; MAX_DIMS], ResourceConfig) {
    let mut at = [0usize; MAX_DIMS];
    let mut point = ResourceConfig::from_slice(&[0.0; MAX_DIMS][..axes.len()]);
    let mut rem = index;
    for i in (0..axes.len()).rev() {
        let n = axes[i].len() as u64;
        at[i] = (rem % n) as usize;
        rem /= n;
        point.set(i, axes[i][at[i]]);
    }
    (at, point)
}

/// `b`'s place in the [`f64::total_cmp`] order, as an integer.
fn order_key(b: f64) -> i64 {
    let bits = b.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The one grid enumeration: scan the row-major index range `[lo, hi)` and
/// return its cheapest point, the earlier one on ties (`None` iff the range
/// is empty). The innermost axis goes to `eval` in slices of at most
/// [`BATCH_CHUNK`] that never cross a row (the [`crate::brute_force_rows`]
/// contract): no per-point [`ResourceConfig`] is built and nothing is
/// allocated per slice.
///
/// `bound(start, base, coords)` gets each slice first, in grid order (the
/// outer dimensions advance as an odometer over the axes), and answers a
/// lower bound on every cost `eval` can write for it; `−∞`, or NaN, bounds
/// nothing. Slices are then priced in `(bound, first grid index)` order,
/// and the scan stops at the first slice whose pair is not below the
/// incumbent's `(cost, grid index)`: neither it nor any later slice can
/// hold a winner. The incumbent moves only to a lower `(cost, index)`, so
/// the answer is bit-for-bit the exhaustive scan's. A cost that compares
/// with nothing (NaN) never wins; a range holding no cost below `+∞`
/// answers with its first point at `+∞`.
pub(crate) fn scan_rows<B, F>(
    axes: &[Vec<f64>],
    lo: u64,
    hi: u64,
    mut bound: B,
    mut eval: F,
) -> Best
where
    B: FnMut(u64, &ResourceConfig, &[f64]) -> f64,
    F: FnMut(u64, &ResourceConfig, &[f64], &mut [f64]),
{
    if lo >= hi {
        return None;
    }
    debug_assert!(hi <= axes.iter().map(|a| a.len() as u64).product(), "index off the grid");
    let inner = axes.len() - 1;
    let row = &axes[inner];
    // Length of the slice that starts at grid index `index`, `at` along its row.
    let slice_len =
        |index: u64, at: usize| (row.len() - at).min(BATCH_CHUNK).min((hi - index) as usize);

    // Price one slice unless its `(bound key, first index)` is not below the
    // incumbent's `(cost, index)`; `false` when it is ruled out (and so, in
    // pricing order, is every later slice).
    let (mut at, first) = locate(axes, lo);
    let mut costs = [0.0f64; BATCH_CHUNK];
    let mut best = (lo, first, f64::INFINITY);
    let mut price = |key: i64, start: u64, base: &ResourceConfig, coords: &[f64]| {
        if (key, start) >= (order_key(best.2 + 0.0), best.0) {
            return false;
        }
        let costs = &mut costs[..coords.len()];
        eval(start, base, coords, costs);
        let low = slice_min(costs);
        // Slices are disjoint: one that starts before the incumbent's index
        // lies wholly before it.
        if low < best.2 || (low == best.2 && start < best.0) {
            // Infallible: `low` is one of the slice's costs.
            let k = costs.iter().position(|&c| c == low).expect("minimum is in the slice");
            best = (start + k as u64, base.with_last(coords[k]), costs[k]);
        }
        true
    };

    // Bound pass, in grid order. Keys make integer order `(bound, index)`
    // order (NaN bounds nothing; −0 counts as +0, as `<` has it). A slice
    // bounded at −∞ is priced on the spot: the unbounded slices lead the
    // pricing order, by index, which is the order they come in. The rest
    // wait for the pricing pass.
    let unbounded = order_key(f64::NEG_INFINITY);
    let mut base = first;
    let mut bounded = Vec::new();
    let mut index = lo;
    while index < hi {
        let n = slice_len(index, at[inner]);
        let coords = &row[at[inner]..at[inner] + n];
        base.set(inner, coords[0]);
        let b = bound(index, &base, coords);
        let key = if b.is_nan() { unbounded } else { order_key(b + 0.0) };
        if key == unbounded {
            price(key, index, &base, coords);
        } else {
            bounded.push(Reverse((key, index)));
        }
        index += n as u64;
        at[inner] += n;
        if at[inner] == row.len() {
            // Row finished: carry into the outer dimensions.
            at[inner] = 0;
            for i in (0..inner).rev() {
                at[i] = (at[i] + 1) % axes[i].len();
                base.set(i, axes[i][at[i]]);
                if at[i] != 0 {
                    break;
                }
            }
        }
    }

    // Pricing pass over the bounded slices, least `(bound, index)` first off
    // a heap: typically one or two are priced before the rest are ruled out.
    let mut bounded = BinaryHeap::from(bounded);
    while let Some(Reverse((key, start))) = bounded.pop() {
        let (at, base) = locate(axes, start);
        let n = slice_len(start, at[inner]);
        if !price(key, start, &base, &row[at[inner]..at[inner] + n]) {
            break;
        }
    }
    Some(best)
}

/// Smallest comparable value of `costs` (`+∞` when there is none). Eight
/// independent running minima keep the fold free of a loop-carried
/// dependency, so it compiles to packed `min`s.
fn slice_min(costs: &[f64]) -> f64 {
    const LANES: usize = 8;
    let pick = |a: f64, c: f64| if c < a { c } else { a };
    let mut lanes = [f64::INFINITY; LANES];
    let mut groups = costs.chunks_exact(LANES);
    for group in &mut groups {
        for (a, &c) in lanes.iter_mut().zip(group) {
            *a = pick(*a, c);
        }
    }
    lanes.iter().chain(groups.remainder()).fold(f64::INFINITY, |a, &c| pick(a, c))
}

/// Row evaluator that prices each point of a slice through a per-point cost
/// function.
fn by_point<F>(mut cost_fn: F) -> impl FnMut(u64, &ResourceConfig, &[f64], &mut [f64])
where
    F: FnMut(&ResourceConfig) -> f64,
{
    move |_, base, coords, costs| {
        for (&x, c) in coords.iter().zip(costs) {
            *c = cost_fn(&base.with_last(x));
        }
    }
}

/// Row evaluator that materializes each slice as configurations for an
/// array-of-configs batch evaluator (the [`brute_force_batch`] contract).
fn by_configs<F>(mut batch_fn: F) -> impl FnMut(u64, &ResourceConfig, &[f64], &mut [f64])
where
    F: FnMut(u64, &[ResourceConfig], &mut [f64]),
{
    let mut configs: Vec<ResourceConfig> = Vec::with_capacity(BATCH_CHUNK);
    move |start, base, coords, costs| {
        configs.clear();
        configs.extend(coords.iter().map(|&x| base.with_last(x)));
        batch_fn(start, &configs, costs);
    }
}

/// The outcome of a whole-grid search, given how to scan `[0, total)` over
/// the grid's axes.
pub(crate) fn whole_grid(
    cluster: &ClusterConditions,
    scan: impl FnOnce(&[Vec<f64>], u64) -> Best,
) -> PlanningOutcome {
    let axes = axes_of(cluster);
    let iterations = axes.iter().map(|a| a.len() as u64).product();
    // Infallible: `ClusterConditions` guarantees min <= max along every
    // dimension, so the grid holds at least the min corner.
    let (_, config, cost) = scan(&axes, iterations).expect("cluster grid is never empty");
    PlanningOutcome { config, cost, iterations }
}

/// Exhaustive search over the whole resource grid (§VI-B1):
///
/// > "The brute force approach to resource planning would perform an
/// > exhaustive search of all possible resource configurations to find the
/// > best one."
///
/// Ties are broken toward the earlier grid point, which — because the grid
/// starts at the minimum allocation — prefers smaller resource footprints.
pub fn brute_force<F>(cluster: &ClusterConditions, cost_fn: F) -> PlanningOutcome
where
    F: FnMut(&ResourceConfig) -> f64,
{
    whole_grid(cluster, |axes, total| scan_rows(axes, 0, total, no_bound, by_point(cost_fn)))
}

/// Exhaustive grid search over a *row* evaluator — the form the cost
/// kernels are written for. `row_fn(start, base, coords, costs)` prices one
/// slice of a grid row: point `k` is `base` with its last coordinate
/// replaced by `coords[k]`, `start` is the row-major grid index of point 0,
/// and `costs[k]` must receive its cost (`f64::INFINITY` where infeasible).
/// Slices are at most [`BATCH_CHUNK`] long.
///
/// `bound(start, base, coords)` must answer a lower bound on every cost
/// `row_fn` can write for that slice (`f64::NEG_INFINITY` when it knows
/// none); it sees every slice once, in grid order, and `row_fn` then prices
/// only the slices that can still hold the winner, best bound first. The
/// winner is the lowest `(cost, grid index)` — exactly the exhaustive
/// scan's — and `iterations` is the full grid size, as for [`brute_force`],
/// whatever was pruned.
pub fn brute_force_rows<F, B>(cluster: &ClusterConditions, row_fn: F, bound: B) -> PlanningOutcome
where
    F: FnMut(u64, &ResourceConfig, &[f64], &mut [f64]),
    B: FnMut(u64, &ResourceConfig, &[f64]) -> f64,
{
    whole_grid(cluster, |axes, total| scan_rows(axes, 0, total, bound, row_fn))
}

/// Exhaustive grid search driven by a *batched* cost evaluator instead of a
/// per-point closure.
///
/// `batch_fn(start_index, configs, costs)` must fill `costs[i]` with the
/// cost at `configs[i]` (using `f64::INFINITY` for infeasible points), where
/// `start_index` is the row-major grid index of `configs[0]`; slices are at
/// most [`BATCH_CHUNK`] long and stay within one grid row. Winner selection
/// is by `(cost, grid index)` with ties toward the earlier point —
/// bit-identical to [`brute_force`] whenever the evaluator agrees with the
/// scalar cost function point-wise.
pub fn brute_force_batch<F>(cluster: &ClusterConditions, batch_fn: F) -> PlanningOutcome
where
    F: FnMut(u64, &[ResourceConfig], &mut [f64]),
{
    whole_grid(cluster, |axes, total| scan_rows(axes, 0, total, no_bound, by_configs(batch_fn)))
}

/// Hill-climbing resource planning — a faithful transcription of the paper's
/// **Algorithm 1 (HillClimbResourcePlanning)**.
///
/// Starting from `start` (typically the minimum allocation,
/// `cluster.min`), each round considers a forward and a backward discrete
/// step (`candidate = [-1, 1]`) along every resource dimension, applies the
/// step that improves the cost most for that dimension (lines 7–19), and
/// terminates when no candidate step on any dimension improves on the
/// current configuration (lines 20–21, return at the local optimum).
///
/// The returned [`PlanningOutcome::iterations`] counts *distinct resource
/// configurations probed* (the start plus every neighbour evaluation).
/// This deviates from a literal reading of Algorithm 1, whose line 5
/// re-evaluates `cost(currRes)` at the top of every round: the winning
/// neighbour's cost from the previous round *is* the current
/// configuration's cost, so this implementation carries it forward instead
/// of recomputing it. The search trajectory — every step taken and the
/// final configuration — is unchanged; only redundant cost-model calls are
/// dropped, which matters once each call runs a full resource planning
/// simulation. Fig. 13(a)'s "resource configurations explored" metric is
/// reported in the same units.
///
/// ```
/// use raqo_resource::{hill_climb, ClusterConditions, ResourceConfig};
///
/// // A convex cost bowl with its optimum at 40 containers × 7 GB.
/// let cluster = ClusterConditions::paper_default();
/// let cost = |r: &ResourceConfig| {
///     (r.containers() - 40.0).powi(2) + 3.0 * (r.container_size_gb() - 7.0).powi(2)
/// };
/// let found = hill_climb(&cluster, cluster.min, cost);
/// assert_eq!(found.config, ResourceConfig::containers_and_size(40.0, 7.0));
/// assert!(found.iterations < cluster.grid_size()); // far fewer than brute force
/// ```
pub fn hill_climb<F>(
    cluster: &ClusterConditions,
    start: ResourceConfig,
    mut cost_fn: F,
) -> PlanningOutcome
where
    F: FnMut(&ResourceConfig) -> f64,
{
    assert_eq!(start.dims(), cluster.dims(), "start/cluster dimensionality mismatch");
    debug_assert!(cluster.contains(&start), "start must lie inside the cluster bounds");

    let step_size = cluster.discrete_steps(); // line 1: GetDiscreteSteps
    let candidate = [-1.0, 1.0]; // line 2
    let mut curr_res = start; // line 3
    // Evaluate the start once; every later round reuses the winning
    // neighbour's cost instead of re-running line 5 of Algorithm 1.
    let mut curr_cost = cost_fn(&curr_res);
    let mut iterations = 1u64;

    loop {
        let mut best_cost = curr_cost; // line 6

        for i in 0..curr_res.dims() {
            // lines 7–19: probe ±1 step on dimension i
            let mut best = None; // line 8: best = -1
            for &cand in &candidate {
                let i_val = step_size.get(i) * cand; // line 10
                let stepped = curr_res.get(i) + i_val;
                // line 11: respect cluster bounds
                if cluster.admits(i, stepped) {
                    curr_res.nudge(i, i_val); // line 12
                    let temp = cost_fn(&curr_res); // line 13
                    iterations += 1;
                    curr_res.nudge(i, -i_val); // line 14: backtrack
                    if temp < best_cost {
                        // lines 15–17
                        best_cost = temp;
                        best = Some(cand);
                    }
                }
            }
            if let Some(cand) = best {
                // lines 18–19: reapply the winning step
                curr_res.nudge(i, step_size.get(i) * cand);
            }
        }

        // lines 20–21: no better neighbour on any dimension → local optimum
        if best_cost >= curr_cost {
            return PlanningOutcome { config: curr_res, cost: curr_cost, iterations };
        }
        // A step was accepted: the last accepted probe was evaluated at the
        // configuration `curr_res` now holds, so `best_cost` is exactly
        // `cost_fn(&curr_res)` — carry it into the next round.
        curr_cost = best_cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_cluster() -> ClusterConditions {
        ClusterConditions::paper_default()
    }

    /// A convex bowl with minimum at (40, 7): hill climbing must find the
    /// global optimum of a unimodal cost surface.
    fn bowl(r: &ResourceConfig) -> f64 {
        let dc = r.containers() - 40.0;
        let ds = r.container_size_gb() - 7.0;
        dc * dc + 3.0 * ds * ds
    }

    #[test]
    fn brute_force_explores_whole_grid() {
        let out = brute_force(&paper_cluster(), bowl);
        assert_eq!(out.iterations, 1000);
        assert_eq!(out.config, ResourceConfig::containers_and_size(40.0, 7.0));
        assert_eq!(out.cost, 0.0);
    }

    #[test]
    fn hill_climb_matches_brute_force_on_convex_surface() {
        let cluster = paper_cluster();
        let bf = brute_force(&cluster, bowl);
        let hc = hill_climb(&cluster, cluster.min, bowl);
        assert_eq!(hc.config, bf.config);
        assert_eq!(hc.cost, bf.cost);
    }

    #[test]
    fn hill_climb_uses_far_fewer_iterations() {
        // Fig. 13: "hill climbing explores 4 times less resource
        // configurations than brute force" — on this toy surface the gap is
        // much larger; assert at least 4x.
        let cluster = paper_cluster();
        let bf = brute_force(&cluster, bowl);
        let hc = hill_climb(&cluster, cluster.min, bowl);
        assert!(
            hc.iterations * 4 <= bf.iterations,
            "hc={} bf={}",
            hc.iterations,
            bf.iterations
        );
    }

    #[test]
    fn hill_climb_stops_at_local_optimum_of_multimodal_surface() {
        // Two basins: a shallow one near the start and a deep one far away.
        // Greedy climbing from the minimum allocation must settle in the
        // nearer basin — that is the documented local-optimum behaviour.
        let two_basins = |r: &ResourceConfig| -> f64 {
            let near = (r.containers() - 5.0).powi(2) + (r.container_size_gb() - 2.0).powi(2);
            let far =
                (r.containers() - 90.0).powi(2) + (r.container_size_gb() - 9.0).powi(2) - 50.0;
            near.min(far)
        };
        let cluster = paper_cluster();
        let hc = hill_climb(&cluster, cluster.min, two_basins);
        assert_eq!(hc.config, ResourceConfig::containers_and_size(5.0, 2.0));
        let bf = brute_force(&cluster, two_basins);
        assert_eq!(bf.config, ResourceConfig::containers_and_size(90.0, 9.0));
        assert!(bf.cost < hc.cost);
    }

    #[test]
    fn hill_climb_never_leaves_cluster_bounds() {
        // Cost decreasing toward huge configurations: the climber must stop
        // at the max corner rather than stepping outside.
        let decreasing = |r: &ResourceConfig| -> f64 { -(r.containers() + r.container_size_gb()) };
        let cluster = paper_cluster();
        let out = hill_climb(&cluster, cluster.min, decreasing);
        assert_eq!(out.config, ResourceConfig::containers_and_size(100.0, 10.0));
    }

    #[test]
    fn hill_climb_with_flat_cost_returns_start_immediately() {
        let cluster = paper_cluster();
        let out = hill_climb(&cluster, cluster.min, |_| 42.0);
        assert_eq!(out.config, cluster.min);
        assert_eq!(out.cost, 42.0);
        // 1 current evaluation + 1 inbound probe per dimension (the -1 step
        // is out of bounds at the minimum corner).
        assert_eq!(out.iterations, 3);
    }

    #[test]
    fn hill_climb_from_interior_start() {
        let cluster = paper_cluster();
        let start = ResourceConfig::containers_and_size(60.0, 9.0);
        let out = hill_climb(&cluster, start, bowl);
        assert_eq!(out.config, ResourceConfig::containers_and_size(40.0, 7.0));
    }

    #[test]
    fn brute_force_tie_break_prefers_first_grid_point() {
        let cluster = ClusterConditions::two_dim(1.0..=3.0, 1.0..=1.0, 1.0, 1.0);
        let out = brute_force(&cluster, |_| 1.0);
        assert_eq!(out.config, ResourceConfig::containers_and_size(1.0, 1.0));
    }

    /// The keep-first fold the row scan replaces, over `grid()` itself: the
    /// first point at `+∞`, then each strictly cheaper one (NaN never is).
    fn fold_by_point(
        cluster: &ClusterConditions,
        lo: u64,
        hi: u64,
        cost_fn: impl Fn(&ResourceConfig) -> f64,
    ) -> Best {
        let mut best: Best = None;
        for (i, r) in cluster.grid().enumerate().take(hi as usize).skip(lo as usize) {
            let c = cost_fn(&r);
            let (_, _, bc) = *best.get_or_insert((i as u64, r, f64::INFINITY));
            if c < bc {
                best = Some((i as u64, r, c));
            }
        }
        best
    }

    proptest::proptest! {
        /// Row scan ≡ point-by-point fold — winner index, config and cost
        /// bits — on 1- to 3-D grids, exact and inexact steps, innermost
        /// axes around [`BATCH_CHUNK`], surfaces full of ties, `+∞` and NaN,
        /// index ranges that start and end mid-row, and slice bounds that
        /// are absent, exact (with −0 for 0), slack, or NaN. The contracts
        /// are checked on the way: every slice reaches `bound` once, in grid
        /// order (start index, base point, within one row), and `eval` sees
        /// only listed slices, each at most once.
        #[test]
        fn row_scan_matches_the_point_by_point_fold(
            dims in 1usize..=3,
            step_kind in 0usize..3,
            inner_free in 0usize..400,
            outer_len in 1usize..4,
            salt in 0u64..1000,
            lo_frac in 0.0f64..1.0,
            len_frac in 0.0f64..=1.0,
            bound_kind in 0usize..4,
        ) {
            let step = [1.0, 0.1, 1.0 / 128.0][step_kind];
            let (short, long) = (1 + inner_free % 19, 300 + inner_free);
            let inner_lens = [short, BATCH_CHUNK - 1, BATCH_CHUNK, BATCH_CHUNK + 1, long];
            let cases = inner_lens.into_iter().flat_map(|n| (0..4).map(move |s| (n, s)));
            for (inner_len, surface) in cases {
                let lens: Vec<usize> =
                    (0..dims).map(|i| if i == dims - 1 { inner_len } else { outer_len }).collect();
                let max: Vec<f64> = lens.iter().map(|&n| 1.0 + (n - 1) as f64 * step).collect();
                let cluster = ClusterConditions::new(
                    ResourceConfig::from_slice(&vec![1.0; dims]),
                    ResourceConfig::from_slice(&max),
                    ResourceConfig::from_slice(&vec![step; dims]),
                );
                let total = cluster.grid_size();
                proptest::prop_assert_eq!(total, cluster.grid().count() as u64);
                let row_len = cluster.points_along(dims - 1);

                let cost_fn = move |r: &ResourceConfig| -> f64 {
                    let h = r.as_slice().iter().fold(salt, |h, v| {
                        (h ^ v.to_bits()).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
                    });
                    match surface {
                        0 => (h % 7) as f64,
                        1 => 3.5,
                        2 => f64::INFINITY,
                        _ if h % 3 == 0 => f64::INFINITY,
                        _ if h % 5 == 1 => f64::NAN,
                        _ => (h % 1000) as f64 / 7.0,
                    }
                };
                let lo = (lo_frac * total as f64) as u64;
                let hi = lo + (len_frac * (total - lo) as f64) as u64;

                // A lower bound on the slice's comparable costs, as `bound_kind` says.
                let slice_bound = |start: u64, base: &ResourceConfig, coords: &[f64]| {
                    let tight = coords
                        .iter()
                        .map(|&x| cost_fn(&base.with_last(x)))
                        .filter(|c| !c.is_nan())
                        .fold(f64::INFINITY, f64::min);
                    match (bound_kind, start % 3) {
                        (0, _) => f64::NEG_INFINITY,
                        (1, _) if tight == 0.0 => -0.0,
                        (1, _) => tight,
                        (2, slack) => tight - slack as f64,
                        (_, 0) => f64::NAN,
                        (_, 1) => f64::NEG_INFINITY,
                        _ => tight,
                    }
                };

                let axes = axes_of(&cluster);
                let listed = std::cell::RefCell::new(std::collections::BTreeMap::new());
                let mut next = lo;
                let got = scan_rows(
                    &axes,
                    lo,
                    hi,
                    |start, base, coords| {
                        assert_eq!(start, next, "slices are listed in grid order");
                        assert_eq!(*base, cluster.point_at(start));
                        assert!(!coords.is_empty() && coords.len() <= BATCH_CHUNK);
                        assert!(start % row_len + coords.len() as u64 <= row_len, "row crossed");
                        next += coords.len() as u64;
                        listed.borrow_mut().insert(start, (coords.len(), false));
                        slice_bound(start, base, coords)
                    },
                    |start, base, coords, costs| {
                        let mut listed = listed.borrow_mut();
                        let slice = listed.get_mut(&start).expect("only listed slices are priced");
                        assert_eq!(*slice, (coords.len(), false), "priced once, as listed");
                        slice.1 = true;
                        assert_eq!(*base, cluster.point_at(start));
                        by_point(cost_fn)(start, base, coords, costs);
                    },
                );
                proptest::prop_assert_eq!(next, hi);
                let want = fold_by_point(&cluster, lo, hi, cost_fn);
                proptest::prop_assert_eq!(got.is_none(), lo == hi);
                proptest::prop_assert_eq!(
                    got.map(|(i, r, c)| (i, r, c.to_bits())),
                    want.map(|(i, r, c)| (i, r, c.to_bits()))
                );

                let whole = brute_force(&cluster, cost_fn);
                let want = fold_by_point(&cluster, 0, total, cost_fn).unwrap();
                proptest::prop_assert_eq!(whole.config, want.1);
                proptest::prop_assert_eq!(whole.cost.to_bits(), want.2.to_bits());
                proptest::prop_assert_eq!(whole.iterations, total);
            }
        }
    }

    #[test]
    fn nan_costs_never_win_the_scan() {
        let cluster = paper_cluster();
        let holes = |r: &ResourceConfig| -> f64 {
            if r.containers() == 40.0 { bowl(r) } else { f64::NAN }
        };
        let out = brute_force(&cluster, holes);
        assert_eq!(out.config, ResourceConfig::containers_and_size(40.0, 7.0));
        assert_eq!(out.cost, 0.0);
        let out = brute_force(&cluster, |_| f64::NAN);
        assert_eq!((out.config, out.cost), (cluster.min, f64::INFINITY));
    }

    #[test]
    fn batched_brute_force_matches_scalar() {
        let cluster = paper_cluster();
        let seq = brute_force(&cluster, bowl);
        let out = brute_force_batch(&cluster, |_, configs, costs| {
            for (r, c) in configs.iter().zip(costs.iter_mut()) {
                *c = bowl(r);
            }
        });
        assert_eq!(out.config, seq.config);
        assert_eq!(out.cost.to_bits(), seq.cost.to_bits());
        assert_eq!(out.iterations, seq.iterations);
    }

    #[test]
    fn batched_brute_force_tie_break_and_chunk_boundaries() {
        // Grid larger than one chunk with a constant surface: ties must
        // resolve to the first grid point regardless of chunking, and the
        // evaluator must see contiguous start indices covering the grid.
        let cluster = ClusterConditions::two_dim(1.0..=40.0, 1.0..=10.0, 1.0, 1.0);
        assert!(cluster.grid_size() > BATCH_CHUNK as u64);
        let mut seen = Vec::new();
        let out = brute_force_batch(&cluster, |start, configs, costs| {
            seen.push((start, configs.len() as u64));
            costs.fill(7.0);
        });
        assert_eq!(out.config, cluster.min);
        assert_eq!(out.cost, 7.0);
        let mut expect = 0u64;
        for (start, len) in &seen {
            assert_eq!(*start, expect);
            expect += len;
        }
        assert_eq!(expect, cluster.grid_size());
    }

    #[test]
    fn batched_brute_force_skips_infinite_costs() {
        // Infeasible (INFINITY) points lose to any finite point, matching
        // the scalar planner fed `f64::INFINITY` for infeasible configs.
        let cluster = paper_cluster();
        let masked = |r: &ResourceConfig| -> f64 {
            if r.containers() < 90.0 { f64::INFINITY } else { bowl(r) }
        };
        let seq = brute_force(&cluster, masked);
        let out = brute_force_batch(&cluster, |_, configs, costs| {
            for (r, c) in configs.iter().zip(costs.iter_mut()) {
                *c = masked(r);
            }
        });
        assert_eq!(out.config, seq.config);
        assert_eq!(out.cost.to_bits(), seq.cost.to_bits());
    }

    /// Pin the exact iteration count — distinct configurations probed — on
    /// a 1-D ridge with a known trajectory. `two_dim(1..=4, 1..=1)` with
    /// cost `|containers − 3|`, start (1,1):
    ///
    /// * start eval (1,1)=2 .............................. 1 iteration
    /// * round 1: dim 0 probes (2,1)=1 (the −1 step is out of bounds),
    ///   dim 1 has no in-bounds probes .................... 1 iteration, step to (2,1)
    /// * round 2: probes (1,1)=2 and (3,1)=0 ............. 2 iterations, step to (3,1)
    /// * round 3: probes (2,1)=1 and (4,1)=1 — no strict
    ///   improvement, terminate ........................... 2 iterations
    ///
    /// Total: 6 probes, optimum (3,1) at cost 0.
    #[test]
    fn hill_climb_iteration_count_pinned_on_ridge() {
        let cluster = ClusterConditions::two_dim(1.0..=4.0, 1.0..=1.0, 1.0, 1.0);
        let out = hill_climb(&cluster, cluster.min, |r| (r.containers() - 3.0).abs());
        assert_eq!(out.config, ResourceConfig::containers_and_size(3.0, 1.0));
        assert_eq!(out.cost, 0.0);
        assert_eq!(out.iterations, 6);
    }

    /// Same pin on a 2-D bowl where both dimensions step in one round.
    /// `two_dim(1..=3, 1..=2)` with cost `(c−2)² + (s−2)²`, start (1,1):
    ///
    /// * start eval (1,1)=2 .............................. 1 iteration
    /// * round 1: dim 0 probes (2,1)=1 → step; dim 1 probes
    ///   (2,2)=0 → step ................................... 2 iterations, now (2,2)
    /// * round 2: dim 0 probes (1,2)=1 and (3,2)=1; dim 1
    ///   probes (2,1)=1 — no strict improvement, stop ..... 3 iterations
    ///
    /// Total: 6 probes, optimum (2,2) at cost 0. (The round-2 count also
    /// pins the bounds rule: (2,3) is out of bounds and never probed.)
    #[test]
    fn hill_climb_iteration_count_pinned_on_bowl() {
        let cluster = ClusterConditions::two_dim(1.0..=3.0, 1.0..=2.0, 1.0, 1.0);
        let cost = |r: &ResourceConfig| {
            (r.containers() - 2.0).powi(2) + (r.container_size_gb() - 2.0).powi(2)
        };
        let out = hill_climb(&cluster, cluster.min, cost);
        assert_eq!(out.config, ResourceConfig::containers_and_size(2.0, 2.0));
        assert_eq!(out.cost, 0.0);
        assert_eq!(out.iterations, 6);
    }

    #[test]
    fn hill_climb_respects_non_unit_steps() {
        let cluster = ClusterConditions::two_dim(10.0..=100.0, 10.0..=100.0, 10.0, 10.0);
        let target = |r: &ResourceConfig| -> f64 {
            (r.containers() - 50.0).abs() + (r.container_size_gb() - 30.0).abs()
        };
        let out = hill_climb(&cluster, cluster.min, target);
        assert_eq!(out.config, ResourceConfig::containers_and_size(50.0, 30.0));
    }

    /// A 1000 × 500 grid: a thousand rows of two slices each, so the bound
    /// pass lists two thousand slices and the pricing order is long.
    fn long_cluster() -> ClusterConditions {
        ClusterConditions::two_dim(1.0..=1000.0, 1.0..=500.0, 1.0, 1.0)
    }

    /// [`brute_force_rows`] over a per-point cost function, with no bound.
    fn rows_by_point(
        cluster: &ClusterConditions,
        cost_fn: impl FnMut(&ResourceConfig) -> f64,
    ) -> PlanningOutcome {
        brute_force_rows(cluster, by_point(cost_fn), no_bound)
    }

    /// Same winner, same cost bits, same iteration count.
    fn assert_same(got: PlanningOutcome, want: PlanningOutcome) {
        assert_eq!(got.config, want.config);
        assert_eq!(got.cost.to_bits(), want.cost.to_bits());
        assert_eq!(got.iterations, want.iterations);
    }

    #[test]
    fn row_brute_force_matches_brute_force_bitwise() {
        let cluster = long_cluster();
        let want = brute_force(&cluster, bowl);
        assert_eq!(want.config, ResourceConfig::containers_and_size(40.0, 7.0));
        assert_eq!(want.iterations, 500_000);
        assert_same(rows_by_point(&cluster, bowl), want);
        // A row evaluator that hoists the row's containers term, as the
        // cost kernels do, answers the same bits.
        let hoisted = |_: u64, base: &ResourceConfig, coords: &[f64], costs: &mut [f64]| {
            let dc = base.containers() - 40.0;
            for (&cs, c) in coords.iter().zip(costs) {
                let ds = cs - 7.0;
                *c = dc * dc + 3.0 * ds * ds;
            }
        };
        assert_same(brute_force_rows(&cluster, hoisted, no_bound), want);
    }

    #[test]
    fn bounded_row_brute_force_matches_the_exhaustive_scan() {
        // `(nc − 40)²` bounds the bowl along every row; a constant bound
        // ties every slice, so they are priced in grid order.
        let cluster = long_cluster();
        let want = brute_force(&cluster, bowl);
        let by_row = |_: u64, base: &ResourceConfig, _: &[f64]| (base.containers() - 40.0).powi(2);
        assert_same(brute_force_rows(&cluster, by_point(bowl), by_row), want);
        assert_same(brute_force_rows(&cluster, by_point(bowl), |_, _, _| 0.0), want);
    }

    #[test]
    fn an_exact_row_bound_prices_only_the_winning_slice() {
        // The bound is exact on row 40, whose first slice holds the bowl's
        // zero: once it is priced, no other slice's `(bound, index)` is
        // below the incumbent's `(cost, index)`.
        let cluster = long_cluster();
        let mut priced = Vec::new();
        let out = brute_force_rows(
            &cluster,
            |start, base: &ResourceConfig, coords: &[f64], costs: &mut [f64]| {
                priced.push(start);
                by_point(bowl)(start, base, coords, costs);
            },
            |_, base: &ResourceConfig, _: &[f64]| (base.containers() - 40.0).powi(2),
        );
        assert_same(out, brute_force(&cluster, bowl));
        assert_eq!(priced, [39 * 500]);
    }

    #[test]
    fn row_brute_force_tie_break_prefers_first_grid_point() {
        // Constant surface: every point ties, with and without a bound.
        let cluster = long_cluster();
        for out in [
            rows_by_point(&cluster, |_| 2.5),
            brute_force_rows(&cluster, by_point(|_| 2.5), |_, _, _| 2.5),
        ] {
            assert_eq!(out.config, cluster.min);
            assert_eq!(out.cost, 2.5);
            assert_eq!(out.iterations, cluster.grid_size());
        }
    }

    #[test]
    fn row_brute_force_on_grids_shorter_than_a_slice() {
        // Rows one point long: every slice holds a single point.
        let cluster = ClusterConditions::two_dim(1.0..=2.0, 1.0..=1.0, 1.0, 1.0);
        let mut slices = Vec::new();
        let out = brute_force_rows(
            &cluster,
            |start, base: &ResourceConfig, coords: &[f64], costs: &mut [f64]| {
                slices.push((start, coords.len()));
                by_point(bowl)(start, base, coords, costs);
            },
            no_bound,
        );
        assert_eq!(slices, [(0, 1), (1, 1)]);
        assert_same(out, brute_force(&cluster, bowl));
        // A single point is the whole grid and the answer.
        let tiny = ClusterConditions::two_dim(3.0..=3.0, 2.0..=2.0, 1.0, 1.0);
        let out = rows_by_point(&tiny, bowl);
        assert_eq!(out.config, ResourceConfig::containers_and_size(3.0, 2.0));
        assert_eq!(out.cost, bowl(&out.config));
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn row_brute_force_on_a_non_representable_step() {
        // 0.1 is not a binary fraction: the row length comes from the
        // accumulated axis, and a slice start must decompose with that same
        // length or the winner drifts onto the next row.
        for cluster in [
            ClusterConditions::two_dim(1.0..=300.0, 1.0..=61.0, 1.0, 0.1),
            ClusterConditions::two_dim(1.0..=3.0, 1.0..=1.7, 1.0, 0.1),
            ClusterConditions::two_dim(1.0..=1.0, 0.0..=0.3, 1.0, 0.1),
        ] {
            // Optimum on the last point of a row.
            let top = cluster.axis(1).last().unwrap();
            let ridge = |r: &ResourceConfig| {
                (r.containers() - 2.0).abs() + (r.container_size_gb() - top).abs()
            };
            let want = brute_force(&cluster, ridge);
            assert_eq!(want.iterations, cluster.grid().count() as u64);
            assert_eq!(want.cost, if cluster.max.containers() < 2.0 { 1.0 } else { 0.0 });
            assert_eq!(want.config.container_size_gb(), top);
            assert_same(rows_by_point(&cluster, ridge), want);
            let by_row = |_: u64, base: &ResourceConfig, _: &[f64]| (base.containers() - 2.0).abs();
            assert_same(brute_force_rows(&cluster, by_point(ridge), by_row), want);
        }
    }

    #[test]
    fn batched_brute_force_matches_scalar_on_a_long_grid() {
        let cluster = long_cluster();
        let out = brute_force_batch(&cluster, |_, configs, costs| {
            for (r, c) in configs.iter().zip(costs.iter_mut()) {
                *c = bowl(r);
            }
        });
        assert_same(out, brute_force(&cluster, bowl));
    }

    #[test]
    fn batched_brute_force_tie_break_on_a_long_grid() {
        // Every point ties: the first grid point wins, and no batch crosses
        // a row on the way.
        let cluster = long_cluster();
        let row_len = cluster.points_along(1);
        let out = brute_force_batch(&cluster, |start, configs, costs| {
            assert!(start % row_len + configs.len() as u64 <= row_len, "row crossed at {start}");
            costs.fill(2.5);
        });
        assert_eq!(out.config, cluster.min);
        assert_eq!(out.cost, 2.5);
        assert_eq!(out.iterations, cluster.grid_size());
    }

    #[test]
    fn grid_scans_evaluate_on_the_calling_thread() {
        // One search, one thread, however long the grid.
        let caller = std::thread::current().id();
        let seen = std::cell::RefCell::new(std::collections::HashSet::new());
        let logged = |r: &ResourceConfig| {
            seen.borrow_mut().insert(std::thread::current().id());
            bowl(r)
        };
        let cluster = long_cluster();
        let want = brute_force(&cluster, logged);
        assert_same(rows_by_point(&cluster, logged), want);
        let out = brute_force_batch(&cluster, |_, configs, costs| {
            for (r, c) in configs.iter().zip(costs.iter_mut()) {
                *c = logged(r);
            }
        });
        assert_same(out, want);
        assert_eq!(seen.into_inner(), [caller].into());
    }

    #[test]
    fn hill_climb_evaluates_once_per_iteration_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut calls = 0u64;
        let cluster = paper_cluster();
        let out = hill_climb(&cluster, cluster.min, |r| {
            assert_eq!(std::thread::current().id(), caller);
            calls += 1;
            bowl(r)
        });
        assert_eq!(out.config, ResourceConfig::containers_and_size(40.0, 7.0));
        assert_eq!(out.iterations, calls);
    }

    #[test]
    fn a_panicking_row_evaluator_reaches_the_caller() {
        // Nothing re-runs a scan: the first panic unwinds out of it, even
        // from an evaluator that would succeed on a second try.
        let fired = std::cell::Cell::new(false);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            brute_force_rows(
                &long_cluster(),
                |start, base: &ResourceConfig, coords: &[f64], costs: &mut [f64]| {
                    if start >= 100_000 && !fired.replace(true) {
                        panic!("injected row-evaluator panic");
                    }
                    by_point(bowl)(start, base, coords, costs);
                },
                no_bound,
            )
        }));
        assert!(out.is_err(), "a scan panic must reach the caller");
        assert!(fired.get());
    }

    #[test]
    fn a_panicking_climb_reaches_the_caller() {
        let mut calls = 0;
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let cluster = paper_cluster();
            hill_climb(&cluster, cluster.min, |r| {
                calls += 1;
                if calls == 5 {
                    panic!("injected climb panic");
                }
                bowl(r)
            })
        }));
        assert!(out.is_err(), "a climb panic must reach the caller");
        assert_eq!(calls, 5, "the climb stopped at the panic");
    }

    #[test]
    fn brute_force_finds_an_interior_basin_corner_climbs_miss() {
        // A broad bowl with its minimum at the min corner, plus a deep,
        // narrow dent centred on (26, 7). Algorithm 1 from either corner
        // slides down the bowl without entering the dent; the exhaustive
        // scan finds it.
        let dented = |r: &ResourceConfig| -> f64 {
            let d1 = (r.containers() - 1.0).powi(2) + (r.container_size_gb() - 1.0).powi(2);
            let dc = ((r.containers() - 26.0).powi(2) + (r.container_size_gb() - 7.0).powi(2))
                .sqrt();
            d1 - (500.0 * (3.0 - dc)).max(0.0)
        };
        let cluster = paper_cluster();
        let bf = brute_force(&cluster, dented);
        assert_eq!(bf.config, ResourceConfig::containers_and_size(26.0, 7.0));
        assert!(bf.cost < 0.0);
        for corner in [cluster.min, cluster.max] {
            let climbed = hill_climb(&cluster, corner, dented);
            assert_eq!(climbed.config, cluster.min, "from {corner:?}");
            assert!(bf.cost < climbed.cost, "from {corner:?}");
        }
    }

    /// Line 15 keeps a candidate only when it is strictly better, and the
    /// −1 step is probed first: equal gains both ways step backward. On
    /// `1..=9` from 5 with cost `−|c − 5|`, both 4 and 6 cost −1; the
    /// climb takes 4, then walks down to 1 (cost −4): 1 start evaluation,
    /// two probes at each of 5, 4, 3 and 2, one at 1 — 10 iterations.
    #[test]
    fn hill_climb_breaks_ties_toward_the_backward_step() {
        let cluster = ClusterConditions::two_dim(1.0..=9.0, 1.0..=1.0, 1.0, 1.0);
        let start = ResourceConfig::containers_and_size(5.0, 1.0);
        let out = hill_climb(&cluster, start, |r| -(r.containers() - 5.0).abs());
        assert_eq!(out.config, ResourceConfig::containers_and_size(1.0, 1.0));
        assert_eq!(out.cost, -4.0);
        assert_eq!(out.iterations, 10);
    }

    #[test]
    fn hill_climb_handles_infeasible_points() {
        // `+∞` marks infeasible points: no step onto one is ever taken, and
        // a climb that starts on an infeasible plateau cannot cross it.
        let masked = |r: &ResourceConfig| -> f64 {
            if r.container_size_gb() < 4.0 { f64::INFINITY } else { bowl(r) }
        };
        let cluster = paper_cluster();
        let stuck = hill_climb(&cluster, cluster.min, masked);
        assert_eq!((stuck.config, stuck.cost, stuck.iterations), (cluster.min, f64::INFINITY, 3));
        let out = hill_climb(&cluster, ResourceConfig::containers_and_size(1.0, 4.0), masked);
        assert_eq!(out.config, ResourceConfig::containers_and_size(40.0, 7.0));
        assert_eq!(out.cost, 0.0);
    }

    #[test]
    fn hill_climb_on_a_single_point_cluster() {
        let tiny = ClusterConditions::two_dim(3.0..=3.0, 2.0..=2.0, 1.0, 1.0);
        let out = hill_climb(&tiny, tiny.min, bowl);
        assert_eq!(out.config, ResourceConfig::containers_and_size(3.0, 2.0));
        assert_eq!(out.cost, bowl(&out.config));
        assert_eq!(out.iterations, 1);
    }

    /// A quadratic bowl with its optimum at `opt`, dented at `dent`: one
    /// or two basins, as the draw falls.
    fn dented_bowl(
        opt: (f64, f64),
        dent: (f64, f64),
        depth: f64,
    ) -> impl Fn(&ResourceConfig) -> f64 {
        move |r| {
            let d1 = (r.containers() - opt.0).powi(2) + (r.container_size_gb() - opt.1).powi(2);
            let dd = ((r.containers() - dent.0).powi(2) + (r.container_size_gb() - dent.1).powi(2))
                .sqrt();
            d1 - (depth * (2.0 - dd)).max(0.0)
        }
    }

    proptest::proptest! {
        /// Algorithm 1 ends at a local optimum: its answer is a grid point
        /// whose cost it reports exactly, no in-bounds ±1 step from it is
        /// strictly cheaper, the exhaustive scan is never worse, and
        /// `iterations` counts every evaluation — from any start, on random
        /// grids and dented surfaces.
        #[test]
        fn hill_climb_ends_at_a_local_optimum(
            max_c in 2.0f64..40.0,
            max_s in 1.0f64..10.0,
            half_steps in proptest::bool::ANY,
            start_frac in 0.0f64..1.0,
            opt in (0.0f64..1.0, 0.0f64..1.0),
            dent in (0.0f64..1.0, 0.0f64..1.0),
            depth in 0.0f64..500.0,
        ) {
            let step_s = if half_steps { 0.5 } else { 1.0 };
            let (max_c, max_s) = (max_c.floor(), max_s.floor());
            let cluster = ClusterConditions::two_dim(1.0..=max_c, 1.0..=max_s, 1.0, step_s);
            let at = |(c, s): (f64, f64)| (1.0 + c * (max_c - 1.0), 1.0 + s * (max_s - 1.0));
            let surface = dented_bowl(at(opt), at(dent), depth);
            let start = cluster.point_at((start_frac * cluster.grid_size() as f64) as u64);
            let mut calls = 0u64;
            let out = hill_climb(&cluster, start, |r| {
                calls += 1;
                surface(r)
            });
            proptest::prop_assert_eq!(out.iterations, calls);
            proptest::prop_assert!(cluster.grid().any(|g| g == out.config), "off the grid");
            proptest::prop_assert_eq!(out.cost.to_bits(), surface(&out.config).to_bits());
            let steps = cluster.discrete_steps();
            for i in 0..cluster.dims() {
                for cand in [-1.0, 1.0] {
                    let mut next = out.config;
                    next.nudge(i, steps.get(i) * cand);
                    if cluster.contains(&next) {
                        proptest::prop_assert!(surface(&next) >= out.cost, "{:?} is cheaper", next);
                    }
                }
            }
            proptest::prop_assert!(brute_force(&cluster, &surface).cost <= out.cost);
        }

        /// Every configuration Algorithm 1 evaluates is a grid point: a step
        /// moves along the grid and its backtrack undoes it exactly.
        #[test]
        fn hill_climb_probes_only_grid_points(
            max_c in 2.0f64..40.0,
            max_s in 1.0f64..10.0,
            quarter_steps in proptest::bool::ANY,
            opt in (0.0f64..1.0, 0.0f64..1.0),
            dent in (0.0f64..1.0, 0.0f64..1.0),
            depth in 0.0f64..500.0,
        ) {
            let step_s = if quarter_steps { 0.25 } else { 0.5 };
            let (max_c, max_s) = (max_c.floor(), max_s.floor());
            let cluster = ClusterConditions::two_dim(1.0..=max_c, 1.0..=max_s, 1.0, step_s);
            let at = |(c, s): (f64, f64)| (1.0 + c * (max_c - 1.0), 1.0 + s * (max_s - 1.0));
            let surface = dented_bowl(at(opt), at(dent), depth);
            let grid: std::collections::HashSet<[u64; 2]> = cluster
                .grid()
                .map(|g| [g.containers().to_bits(), g.container_size_gb().to_bits()])
                .collect();
            let mut probes = Vec::new();
            hill_climb(&cluster, cluster.min, |r| {
                probes.push(*r);
                surface(r)
            });
            for r in probes {
                let key = [r.containers().to_bits(), r.container_size_gb().to_bits()];
                proptest::prop_assert!(grid.contains(&key), "{:?} is not a grid point", r);
            }
        }
    }
}
