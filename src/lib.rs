//! # raqo
//!
//! **RAQO — joint Resource and Query Optimization for big data systems.**
//!
//! A from-scratch Rust reproduction of *"Query and Resource Optimization:
//! Bridging the Gap"* (ICDE 2018; extended arXiv version: *"Query and
//! Resource Optimizations: A Case for Breaking the Wall in Big Data
//! Systems"*).
//!
//! Big-data systems pick a query plan first and resources second; the paper
//! shows the two choices are entangled — the right join implementation and
//! join order depend on container sizes and counts, and vice versa — and
//! builds an optimizer that chooses both together.
//!
//! ## Quick start
//!
//! ```
//! use raqo::catalog::tpch::TpchSchema;
//! use raqo::catalog::QuerySpec;
//! use raqo::core::{PlannerKind, RaqoOptimizer, ResourceStrategy};
//! use raqo::cost::SimOracleCost;
//! use raqo::resource::ClusterConditions;
//!
//! let schema = TpchSchema::new(1.0);
//! let model = SimOracleCost::hive();
//! let mut optimizer = RaqoOptimizer::new(
//!     &schema.catalog,
//!     &schema.graph,
//!     &model,
//!     ClusterConditions::paper_default(), // 100 containers × 10 GB
//!     PlannerKind::Selinger,
//!     ResourceStrategy::HillClimb,
//! );
//!
//! let plan = optimizer.optimize(&QuerySpec::tpch_q3()).expect("plan");
//! for join in &plan.query.joins {
//!     let (containers, gb) = join.decision.resources.unwrap();
//!     println!("{:?} on {containers} × {gb} GB", join.decision.join);
//! }
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`catalog`] | TPC-H + random schemas, statistics, join graphs, query specs |
//! | [`sim`] | the cluster/engine simulator substrate (Hive/Spark-like SMJ/BHJ cost behaviour, admission queue, profiling) |
//! | [`cost`] | the §VI-A learned cost models (7-feature OLS) and multi-objective cost vectors |
//! | [`planner`] | Selinger DP and the fast randomized multi-objective join-ordering planners |
//! | [`resource`] | resource configurations, brute-force & hill-climbing planners, the resource-plan cache |
//! | [`dtree`] | CART decision trees and the default Hive/Spark 10 MB rules |
//! | [`core`] | the joint RAQO optimizer and rule-based RAQO |

pub use raqo_catalog as catalog;
pub use raqo_core as core;
pub use raqo_cost as cost;
pub use raqo_dtree as dtree;
pub use raqo_planner as planner;
pub use raqo_resource as resource;
pub use raqo_sim as sim;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use raqo_catalog::tpch::TpchSchema;
    pub use raqo_catalog::{Catalog, JoinGraph, QuerySpec, RandomSchemaConfig, TableId};
    pub use raqo_core::{
        Degradation, DegradationRung, DegradationTrigger, Objective, PlannerKind, PlanningBudget,
        RaqoOptimizer, RaqoPlan, ResourceStrategy,
    };
    pub use raqo_cost::{JoinCostModel, OperatorCost, SimOracleCost};
    pub use raqo_planner::{IdpConfig, PlannedQuery, PlanTree, RandomizedConfig};
    pub use raqo_resource::{CacheLookup, ClusterConditions, ResourceConfig};
    pub use raqo_sim::engine::{Engine, EngineKind, JoinImpl};
}
