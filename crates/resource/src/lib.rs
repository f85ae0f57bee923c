//! # raqo-resource
//!
//! Resource planning for RAQO (§VI-B of the paper).
//!
//! A *resource configuration* is the vector of per-operator resource knobs —
//! in the paper's evaluation the number of YARN containers and the container
//! size in GB, i.e. a two-dimensional discrete space; the representation here
//! supports up to four dimensions so CPU cores etc. can be added without API
//! changes.
//!
//! Three planners search that space for the configuration minimizing a cost
//! function `f(r) → cost` (the cost model is supplied by the caller, which
//! closes over the sub-plan's data characteristics):
//!
//! * [`brute_force`] — exhaustive grid search (the paper's baseline), with
//!   [`brute_force_rows`] the row-at-a-time form the cost kernels drive,
//! * [`hill_climb`] — Algorithm 1: greedy coordinate descent from the
//!   smallest configuration, ±1 discrete step per dimension, terminating at
//!   a local optimum ("users want to minimize the resources used ... start
//!   from the smallest resource configuration and then climb"),
//! * [`cache::ResourcePlanCache`] — memoization of planned configurations by
//!   data characteristics with exact / nearest-neighbour / weighted-average
//!   lookup (§VI-B3).
//!
//! All planners report how many cost evaluations ("resource iterations",
//! the unit of Figs. 13–14) they performed.

pub mod budget;
pub mod cache;
pub mod cluster;
pub mod config;
pub mod persist;
pub mod planner;
pub mod sharded;

pub use budget::{BudgetTracker, BudgetTrigger, PlanningBudget, DEADLINE_CHECK_EVERY};
pub use cache::{CacheBank, CacheLookup, CacheStats, ResourcePlanCache};
pub use cluster::ClusterConditions;
pub use config::{ResourceConfig, MAX_DIMS};
pub use persist::PersistError;
pub use planner::{
    brute_force, brute_force_batch, brute_force_rows, hill_climb, PlanningOutcome, BATCH_CHUNK,
};
pub use sharded::{PairGuard, ShardedCacheBank};

/// How many threads may cost one batch of independent joins (a DP level's
/// candidates, see `PlanCoster::join_cost_many` in `raqo-planner`). It
/// changes how fast a plan is found, never which plan: every resource
/// search runs on one thread whatever the setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Strictly sequential: every join is costed on the calling thread.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_workers_resolve() {
        assert_eq!(Parallelism::Off.workers(), 1);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Threads(6).workers(), 6);
        assert!(Parallelism::Auto.workers() >= 1);
    }
}
