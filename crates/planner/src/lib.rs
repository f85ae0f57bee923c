//! # raqo-planner
//!
//! The query planners RAQO integrates with (§VII-A):
//!
//! > "We tested RAQO using two query planner prototypes: a modern randomized
//! > algorithm to pick the best join ordering [Trummer & Koch 2016], and a
//! > traditional System R style bottom-up join ordering algorithm (also
//! > known as Selinger optimizer)."
//!
//! * [`plan`] — join-plan trees with the associativity and exchange
//!   mutations of the randomized planner;
//! * [`cardinality`] — System-R cardinality/size estimation over the join
//!   graph;
//! * [`coster`] — the [`coster::PlanCoster`] seam between join *ordering*
//!   and per-operator costing. RAQO's resource planning plugs in here: "we
//!   extended the getPlanCost method of our cost model to first perform the
//!   resource planning (or lookup in the cache) and then return the
//!   sub-plan cost" (§VI-C);
//! * [`selinger`] — bottom-up dynamic programming over left-deep trees
//!   (one dense table over u64 subset masks, filled level by level);
//! * [`idp`] — iterative dynamic programming (IDP-1, standard-best-plan)
//!   bridging queries past the exhaustive-DP bound;
//! * [`randomized`] — the fast randomized multi-objective planner
//!   re-implementation (associativity + exchange mutations, ε-Pareto
//!   archive, iterative improvement);
//! * [`cascades`] — one dense DP over relation-subset masks searching
//!   *bushy* join trees through the same `getPlanCost` seam.

pub mod cardinality;
pub mod cascades;
pub mod coster;
pub mod idp;
pub mod plan;
pub mod randomized;
pub mod selinger;

/// The bushy and left-deep oracles of the integration tests, for the unit tests.
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

pub use cardinality::{CardinalityEstimator, JoinIo, LocalView, SubsetSizes};
pub use cascades::{
    CascadesConfig, CascadesError, CascadesOutcome, CascadesPlanner,
    DEFAULT_CASCADES_THRESHOLD,
};
pub use coster::{cost_tree, JoinDecision, PlanCoster, PlannedJoin, PlannedQuery};
pub use idp::{IdpConfig, IdpPlanner};
pub use plan::PlanTree;
pub use randomized::{RandomizedConfig, RandomizedPlanner};
pub use selinger::{SelingerError, SelingerPlanner};
