//! Ground truths the planners are checked against, shared by the planner's
//! integration tests and unit tests and by `raqo-core`'s optimizer tests
//! (each includes this file as a module), so it names the planner's types
//! through whichever module includes it:
//!
//! * [`brute_force`] — the cheapest plan over *every* binary partition of
//!   a relation set, cross products included, memoised per subset;
//! * [`left_deep`] — Selinger's DP as first written, one candidate at a
//!   time.
#![allow(dead_code)]

use super::{cost_tree, CardinalityEstimator, PlanCoster, PlanTree, PlannedQuery};
use raqo_catalog::{JoinGraph, TableId};
use raqo_telemetry::Telemetry;
use std::collections::HashMap;

pub fn brute_force(
    rels: &[TableId],
    est: &CardinalityEstimator<'_>,
    coster: &mut dyn PlanCoster,
) -> Option<f64> {
    fn best(
        set: &[TableId],
        est: &CardinalityEstimator<'_>,
        coster: &mut dyn PlanCoster,
        memo: &mut HashMap<Vec<TableId>, Option<f64>>,
    ) -> Option<f64> {
        if set.len() == 1 {
            return Some(0.0);
        }
        if let Some(&cached) = memo.get(set) {
            return cached;
        }
        let mut out: Option<f64> = None;
        // Enumerate proper subsets containing set[0] (fixes one side,
        // halving the work and skipping the mirrored duplicates).
        let n = set.len();
        for pick in 0..(1u32 << (n - 1)) {
            let mut l = vec![set[0]];
            let mut r = Vec::new();
            for (i, &t) in set[1..].iter().enumerate() {
                if pick >> i & 1 == 1 {
                    l.push(t);
                } else {
                    r.push(t);
                }
            }
            if r.is_empty() {
                continue;
            }
            let (Some(lc), Some(rc)) = (
                best(&l, est, coster, memo),
                best(&r, est, coster, memo),
            ) else {
                continue;
            };
            let Some(d) = coster.join_cost(&est.join_io(&l, &r)) else { continue };
            let total = lc + rc + d.cost;
            if out.is_none_or(|o| total < o) {
                out = Some(total);
            }
        }
        memo.insert(set.to_vec(), out);
        out
    }
    let mut memo = HashMap::new();
    best(rels, est, coster, &mut memo)
}

/// The cheapest left-deep plan: one slot per subset of `rels`, filled in
/// ascending mask order, every edge-connected extension costed on the spot
/// through `join_cost` and the first of equally cheap plans kept; rerun
/// with cross products admitted when the graph leaves no plan without
/// them. The winner is re-costed by [`cost_tree`], as the planner does.
pub fn left_deep(
    rels: &[TableId],
    graph: &JoinGraph,
    est: &CardinalityEstimator<'_>,
    coster: &mut dyn PlanCoster,
) -> Option<PlannedQuery> {
    let n = rels.len();
    let full = (1usize << n) - 1;
    let set = |mask: usize| -> Vec<TableId> {
        (0..n).filter(|i| mask >> i & 1 == 1).map(|i| rels[i]).collect()
    };
    for allow_cross in [false, true] {
        // (cost, last relation joined) of each subset's best plan.
        let mut best: Vec<Option<(f64, usize)>> = vec![None; full + 1];
        for i in 0..n {
            best[1 << i] = Some((0.0, i));
        }
        for mask in (1..=full).filter(|m| m.count_ones() > 1) {
            for i in (0..n).filter(|i| mask >> i & 1 == 1) {
                let rest = mask & !(1 << i);
                let Some((prev, _)) = best[rest] else { continue };
                let (left, right) = (set(rest), [rels[i]]);
                if !allow_cross && !graph.connects(&left, &right) {
                    continue;
                }
                let Some(d) = coster.join_cost(&est.join_io(&left, &right)) else { continue };
                if best[mask].is_none_or(|(cost, _)| prev + d.cost < cost) {
                    best[mask] = Some((prev + d.cost, i));
                }
            }
        }
        if best[full].is_none() {
            continue;
        }
        let (mut order, mut mask) = (Vec::new(), full);
        while mask != 0 {
            let (_, last) = best[mask].expect("every prefix of a plan is planned");
            order.push(rels[last]);
            mask &= !(1 << last);
        }
        order.reverse();
        return cost_tree(&PlanTree::left_deep(&order), est, coster, &Telemetry::disabled());
    }
    None
}
