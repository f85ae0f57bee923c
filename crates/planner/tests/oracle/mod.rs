//! The bushy ground truth: the cheapest plan over *every* binary partition
//! of a relation set, cross products included, memoised per subset. Shared
//! by `tests/bushy_oracle.rs` and the unit tests of `src/cascades.rs`
//! (`src/lib.rs` includes this file by path), so it names the planner's
//! types through whichever module includes it.

use super::{CardinalityEstimator, PlanCoster};
use raqo_catalog::TableId;
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
