//! Multi-objective costs: execution time and monetary cost.
//!
//! §IV: "both the execution time e and the monetary cost c are functions of
//! the query plan p and the resource configuration r", and §VII evaluates
//! RAQO inside a "randomized multi-objective optimizer" [Trummer & Koch].
//! The planner-facing representation is a small cost vector with Pareto
//! dominance plus a weighted scalarization for single-valued comparisons.

use serde::{Deserialize, Serialize};

/// A (time, money) cost vector. Lower is better on both axes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostVector {
    /// Estimated execution time (seconds).
    pub time_sec: f64,
    /// Estimated monetary cost (TB·seconds of memory held).
    pub money_tb_sec: f64,
}

impl CostVector {
    pub const ZERO: CostVector = CostVector { time_sec: 0.0, money_tb_sec: 0.0 };

    /// Cost of one operator that runs for `time_sec` on `nc` containers of
    /// `cs` GB (serverless billing: you pay for held memory).
    pub fn from_run(time_sec: f64, nc: f64, cs_gb: f64) -> Self {
        CostVector {
            time_sec,
            money_tb_sec: raqo_sim::money::monetary_cost_tb_sec(time_sec, nc, cs_gb),
        }
    }

    /// Component-wise sum (plan cost = Σ operator costs, §VI-A).
    pub fn add(&self, other: &CostVector) -> CostVector {
        CostVector {
            time_sec: self.time_sec + other.time_sec,
            money_tb_sec: self.money_tb_sec + other.money_tb_sec,
        }
    }

    /// Pareto dominance: at least as good on both axes, strictly better on
    /// one.
    pub fn dominates(&self, other: &CostVector) -> bool {
        let le = self.time_sec <= other.time_sec && self.money_tb_sec <= other.money_tb_sec;
        let lt = self.time_sec < other.time_sec || self.money_tb_sec < other.money_tb_sec;
        le && lt
    }

    /// `self` dominates `other` within multiplicative slack `1 + eps` —
    /// the approximation notion of the fast randomized multi-objective
    /// planner ("we set the same target approximation precision").
    pub fn eps_dominates(&self, other: &CostVector, eps: f64) -> bool {
        debug_assert!(eps >= 0.0);
        self.time_sec <= (1.0 + eps) * other.time_sec
            && self.money_tb_sec <= (1.0 + eps) * other.money_tb_sec
    }
}

/// Insert `candidate` into an ε-Pareto archive: it is added only when no
/// archived vector ε-dominates it, and archived vectors it (plainly)
/// dominates are evicted. Returns whether the candidate was kept.
pub fn archive_insert(archive: &mut Vec<CostVector>, candidate: CostVector, eps: f64) -> bool {
    if archive.iter().any(|a| a.eps_dominates(&candidate, eps)) {
        return false;
    }
    archive.retain(|a| !candidate.dominates(a));
    archive.push(candidate);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cv(t: f64, m: f64) -> CostVector {
        CostVector { time_sec: t, money_tb_sec: m }
    }

    #[test]
    fn dominance_requires_strictness() {
        assert!(cv(1.0, 1.0).dominates(&cv(2.0, 1.0)));
        assert!(cv(1.0, 1.0).dominates(&cv(2.0, 2.0)));
        assert!(!cv(1.0, 1.0).dominates(&cv(1.0, 1.0)));
        assert!(!cv(1.0, 3.0).dominates(&cv(2.0, 1.0)));
    }

    #[test]
    fn eps_dominance_allows_slack() {
        // 5% worse on time still eps-dominates at eps = 0.1.
        assert!(cv(1.05, 1.0).eps_dominates(&cv(1.0, 1.0), 0.1));
        assert!(!cv(1.2, 1.0).eps_dominates(&cv(1.0, 1.0), 0.1));
    }

    #[test]
    fn add_is_componentwise() {
        let s = cv(1.0, 2.0).add(&cv(3.0, 4.0));
        assert_eq!(s, cv(4.0, 6.0));
        assert_eq!(CostVector::ZERO.add(&cv(1.0, 1.0)), cv(1.0, 1.0));
    }

    #[test]
    fn from_run_uses_serverless_billing() {
        let v = CostVector::from_run(1024.0, 10.0, 10.0);
        assert!((v.money_tb_sec - 100.0).abs() < 1e-9);
    }

    #[test]
    fn archive_keeps_pareto_front() {
        let mut archive = Vec::new();
        assert!(archive_insert(&mut archive, cv(10.0, 1.0), 0.0));
        assert!(archive_insert(&mut archive, cv(1.0, 10.0), 0.0));
        // Dominated by the first: rejected.
        assert!(!archive_insert(&mut archive, cv(11.0, 1.1), 0.0));
        // Dominates both: evicts them.
        assert!(archive_insert(&mut archive, cv(0.5, 0.5), 0.0));
        assert_eq!(archive, vec![cv(0.5, 0.5)]);
    }

    #[test]
    fn archive_eps_prunes_near_duplicates() {
        let mut archive = Vec::new();
        archive_insert(&mut archive, cv(1.0, 1.0), 0.1);
        // Within 10% on both axes: pruned.
        assert!(!archive_insert(&mut archive, cv(1.05, 1.05), 0.1));
        // Meaningfully better on one axis: kept.
        assert!(archive_insert(&mut archive, cv(0.5, 1.5), 0.1));
        assert_eq!(archive.len(), 2);
    }
}
