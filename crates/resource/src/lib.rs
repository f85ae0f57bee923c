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
pub use cache::{CacheLookup, CacheStats, ResourcePlanCache};
pub use cluster::ClusterConditions;
pub use config::{ResourceConfig, MAX_DIMS};
pub use persist::PersistError;
pub use planner::{
    brute_force, brute_force_batch, brute_force_rows, hill_climb, PlanningOutcome, BATCH_CHUNK,
};
pub use sharded::{PairGuard, ShardedCacheBank};

/// The one value `PlanCoster::join_cost_many` (in `raqo-planner`) takes:
/// every batch is costed on the calling thread. It carries nothing, and is
/// kept only because the benchmark harness's timing coster names it in its
/// `join_cost_many` override; it goes with `PlanCoster::prefers_batch`
/// when that harness is rebuilt (ROADMAP item 1(f)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Every join is costed on the calling thread.
    Off,
}
