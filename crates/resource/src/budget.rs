//! Planning budgets: wall-clock deadlines and cost-evaluation caps, checked
//! cooperatively by the planning stack.
//!
//! §VI embeds a resource-planning search inside every `getPlanCost` call, so
//! one optimizer invocation can burn unbounded work. A [`PlanningBudget`]
//! bounds it: the coster charges every model evaluation against a shared
//! atomic counter and periodically re-checks the deadline; once either limit
//! trips, every subsequent cost evaluation short-circuits to "infeasible"
//! and the planners drain in bounded time. The optimizer then *degrades*
//! (see `raqo-core`'s ladder) instead of failing.
//!
//! Two invariants matter for reproducibility:
//!
//! - An **unlimited** tracker is free: `charge` is a branch on a `bool`,
//!   no atomics, no clock — plans are bit-identical to a build without
//!   budgets.
//! - A limited-but-unexhausted run performs the same evaluations in the
//!   same order as an unlimited one; budgets only ever cut work *off the
//!   end* of the search.
//!
//! Overshoot is bounded: exhaustion is detected at evaluation granularity,
//! so a search never runs more than one row slice (≤ 256 evaluations) past
//! its cap, and the deadline is re-checked at least every
//! [`DEADLINE_CHECK_EVERY`] evaluations charged. A brute-force scan
//! charges its whole grid, slice by slice in grid order, while it bounds
//! the slices — before it prices the few that can still win — so a
//! deadline that passes during the pricing is caught at the next
//! `getPlanCost`.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// How often (in cost evaluations) a limited tracker re-reads the clock.
pub const DEADLINE_CHECK_EVERY: u64 = 256;

/// A declarative planning budget: how much work one `optimize` call may
/// spend. `Default` is unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanningBudget {
    /// Wall-clock deadline for the whole planning call.
    pub deadline: Option<Duration>,
    /// Maximum number of cost-model evaluations.
    pub max_evals: Option<u64>,
}

impl PlanningBudget {
    /// No limits (the default).
    pub fn unlimited() -> Self {
        PlanningBudget::default()
    }

    /// Budget with only a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        PlanningBudget { deadline: Some(deadline), max_evals: None }
    }

    /// Budget with only an evaluation cap.
    pub fn with_max_evals(max_evals: u64) -> Self {
        PlanningBudget { deadline: None, max_evals: Some(max_evals) }
    }

    /// Builder: add a deadline.
    pub fn and_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder: add an evaluation cap.
    pub fn and_max_evals(mut self, max_evals: u64) -> Self {
        self.max_evals = Some(max_evals);
        self
    }

    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_evals.is_none()
    }
}

/// Which limit tripped first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetTrigger {
    /// The wall-clock deadline passed.
    Deadline,
    /// The evaluation cap was reached.
    Evals,
}

impl std::fmt::Display for BudgetTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetTrigger::Deadline => write!(f, "deadline"),
            BudgetTrigger::Evals => write!(f, "eval_budget"),
        }
    }
}

const EXHAUSTED_NO: u8 = 0;
const EXHAUSTED_DEADLINE: u8 = 1;
const EXHAUSTED_EVALS: u8 = 2;

/// The runtime state of one planning call's budget, shared (by reference)
/// across the coster's worker threads. Created fresh per `optimize` call so
/// the deadline clock starts at the call, not at optimizer construction.
#[derive(Debug)]
pub struct BudgetTracker {
    limited: bool,
    deadline_at: Option<Instant>,
    max_evals: AtomicU64,
    evals: AtomicU64,
    exhausted: AtomicU8,
}

impl BudgetTracker {
    /// A tracker that never exhausts; `charge` is a single branch.
    pub fn unlimited() -> Self {
        BudgetTracker {
            limited: false,
            deadline_at: None,
            max_evals: AtomicU64::new(u64::MAX),
            evals: AtomicU64::new(0),
            exhausted: AtomicU8::new(EXHAUSTED_NO),
        }
    }

    /// Start the clock on a budget: the deadline is measured from now.
    pub fn start(budget: PlanningBudget) -> Self {
        if budget.is_unlimited() {
            return BudgetTracker::unlimited();
        }
        BudgetTracker {
            limited: true,
            deadline_at: budget.deadline.map(|d| Instant::now() + d),
            max_evals: AtomicU64::new(budget.max_evals.unwrap_or(u64::MAX)),
            evals: AtomicU64::new(0),
            exhausted: AtomicU8::new(EXHAUSTED_NO),
        }
    }

    fn latch(&self, code: u8) {
        // First trigger wins; later ones keep the original cause.
        let _ = self.exhausted.compare_exchange(
            EXHAUSTED_NO,
            code,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Charge `n` cost evaluations. Returns `true` while within budget.
    /// Re-checks the deadline whenever the running total crosses a
    /// [`DEADLINE_CHECK_EVERY`] boundary, so stalls inside a long scan are
    /// still noticed.
    pub fn charge(&self, n: u64) -> bool {
        if !self.limited {
            return true;
        }
        let total = self.evals.fetch_add(n, Ordering::Relaxed) + n;
        if total > self.max_evals.load(Ordering::Relaxed) {
            self.latch(EXHAUSTED_EVALS);
        }
        if total % DEADLINE_CHECK_EVERY < n {
            self.check_deadline();
        }
        self.exhausted.load(Ordering::Relaxed) == EXHAUSTED_NO
    }

    /// Explicit deadline check (called at coarse boundaries like
    /// `getPlanCost` entry). Free when no deadline is set.
    pub fn check_deadline(&self) -> bool {
        match self.deadline_at {
            Some(at) if Instant::now() >= at => {
                self.latch(EXHAUSTED_DEADLINE);
                false
            }
            _ => true,
        }
    }

    /// Which limit tripped, if any. One relaxed load.
    pub fn exhausted(&self) -> Option<BudgetTrigger> {
        match self.exhausted.load(Ordering::Relaxed) {
            EXHAUSTED_DEADLINE => Some(BudgetTrigger::Deadline),
            EXHAUSTED_EVALS => Some(BudgetTrigger::Evals),
            _ => None,
        }
    }

    /// Evaluations charged so far.
    pub fn evals_used(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    pub fn is_limited(&self) -> bool {
        self.limited
    }

    /// Extend the evaluation cap by `extra` and clear the exhaustion latch,
    /// giving a lower degradation rung a bounded chance to produce a plan.
    /// The deadline is *not* extended — if it already passed, the next
    /// [`BudgetTracker::check_deadline`] re-latches immediately and the
    /// rung falls through fast.
    pub fn grant_grace(&self, extra: u64) {
        let cap = self.max_evals.load(Ordering::Relaxed);
        let used = self.evals.load(Ordering::Relaxed);
        // Re-base on whatever was actually spent so overshoot from a
        // mid-chunk exhaustion doesn't eat the whole grace allowance.
        self.max_evals.store(used.max(cap).saturating_add(extra), Ordering::Relaxed);
        self.exhausted.store(EXHAUSTED_NO, Ordering::Relaxed);
    }
}

impl Default for BudgetTracker {
    fn default() -> Self {
        BudgetTracker::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let t = BudgetTracker::unlimited();
        assert!(t.charge(1_000_000));
        assert!(t.check_deadline());
        assert_eq!(t.exhausted(), None);
        // Unlimited trackers skip the counter entirely (free path).
        assert_eq!(t.evals_used(), 0);
    }

    #[test]
    fn eval_cap_latches_evals_trigger() {
        let t = BudgetTracker::start(PlanningBudget::with_max_evals(10));
        assert!(t.charge(10), "exactly at cap is still within budget");
        assert!(!t.charge(1));
        assert_eq!(t.exhausted(), Some(BudgetTrigger::Evals));
        assert_eq!(t.evals_used(), 11);
    }

    #[test]
    fn zero_eval_budget_exhausts_on_first_charge() {
        let t = BudgetTracker::start(PlanningBudget::with_max_evals(0));
        assert!(!t.charge(1));
        assert_eq!(t.exhausted(), Some(BudgetTrigger::Evals));
    }

    #[test]
    fn elapsed_deadline_latches_deadline_trigger() {
        let t = BudgetTracker::start(PlanningBudget::with_deadline(Duration::ZERO));
        assert!(!t.check_deadline());
        assert_eq!(t.exhausted(), Some(BudgetTrigger::Deadline));
    }

    #[test]
    fn deadline_noticed_inside_charge_loop() {
        let t = BudgetTracker::start(PlanningBudget::with_deadline(Duration::ZERO));
        let mut within = true;
        for _ in 0..2 * DEADLINE_CHECK_EVERY {
            within = t.charge(1);
        }
        assert!(!within);
        assert_eq!(t.exhausted(), Some(BudgetTrigger::Deadline));
    }

    #[test]
    fn first_trigger_wins() {
        let t = BudgetTracker::start(
            PlanningBudget::with_max_evals(1).and_deadline(Duration::ZERO),
        );
        assert!(!t.charge(5));
        let first = t.exhausted().unwrap();
        t.check_deadline();
        t.charge(5);
        assert_eq!(t.exhausted(), Some(first));
    }

    #[test]
    fn grace_clears_eval_latch_but_not_the_clock() {
        let t = BudgetTracker::start(PlanningBudget::with_max_evals(5));
        assert!(!t.charge(10));
        t.grant_grace(100);
        assert_eq!(t.exhausted(), None);
        assert!(t.charge(50), "grace allowance is spendable");
        assert!(!t.charge(100), "grace allowance is itself bounded");
    }

    #[test]
    fn charges_are_shared_across_threads() {
        let t = BudgetTracker::start(PlanningBudget::with_max_evals(1000));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        t.charge(1);
                    }
                });
            }
        });
        assert_eq!(t.evals_used(), 400);
        assert_eq!(t.exhausted(), None);
    }
}
