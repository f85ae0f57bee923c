//! # raqo-core
//!
//! **RAQO — Resource and Query Optimization** (the paper's contribution).
//!
//! Current big-data systems pick a query plan first and resources second,
//! though §III shows the two choices are deeply entangled. RAQO merges them
//! into one optimizer layer (Fig. 8(b)): the optimizer "takes as input the
//! declarative query and the current cluster condition (through the RM),
//! and emits a joint query and resource plan, which contains both the
//! operator DAG to be executed by the runtime and the resources to be
//! requested to the RM for each operator in the DAG."
//!
//! * [`raqo_coster`] — the §VI-C integration point: a
//!   [`raqo_planner::PlanCoster`] whose `join_cost` *first performs resource
//!   planning* (brute force, hill climbing, or hill climbing with the
//!   resource-plan cache) and then returns the sub-plan cost; it also
//!   accounts the "resource configurations explored" metric of Figs. 12–14;
//! * [`optimizer`] — [`optimizer::RaqoOptimizer`]: joint (p, r)
//!   optimization plus the other §IV use-cases (`r ⇒ p`, `p ⇒ (r, c)`,
//!   `c ⇒ (p, r)`) and re-optimization under changed cluster conditions;
//! * [`rule_based`] — §V's rule-based RAQO: CART decision trees trained on
//!   the simulator's switch-point grid replace the static 10 MB rule of
//!   Hive/Spark and can be "simply plugged into" the planner.

pub mod adaptive;
pub mod dispatcher;
pub mod explain;
pub mod optimizer;
pub mod raqo_coster;
pub mod rule_based;
pub mod service;
pub mod shared;

pub use adaptive::plan_to_job;
pub use dispatcher::PlanDispatcher;
pub use explain::{explain, explain_analyze};
pub use optimizer::{
    Degradation, DegradationRung, DegradationTrigger, PlannerKind, RaqoOptimizer, RaqoPlan,
};
pub use raqo_coster::{Objective, RaqoCoster, RaqoStats, ResourceStrategy};
pub use raqo_resource::{
    BudgetTracker, BudgetTrigger, Parallelism, PlanningBudget, ShardedCacheBank,
};
pub use service::{
    PlanRequest, PlanTicket, PlanningService, Priority, ServiceConfig, ServiceReply, WaitTimeout,
};
pub use raqo_telemetry::{
    Counter, Hist, MetricsRegistry, MetricsSnapshot, SpanRecord, Telemetry,
};
pub use shared::Shared;
pub use rule_based::{train_raqo_tree, train_raqo_tree_from_traces, RuleBasedCoster, TraceRecord};
