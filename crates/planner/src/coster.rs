//! The seam between join ordering and per-operator costing.
//!
//! §VI-C: "we extended the getPlanCost method of our cost model to first
//! perform the resource planning (or lookup in the cache) and then return
//! the sub-plan cost. With this, as the query planner considers different
//! candidate sub-plans, the resource planner considers the resource space
//! for each of them. This makes resource planning nicely integrated, and
//! yet easily pluggable, with the query planning."
//!
//! [`PlanCoster::join_cost`] is that `getPlanCost`: the join-ordering
//! algorithms (Selinger, randomized) call it for every candidate sub-plan;
//! implementations decide the operator implementation and, in RAQO mode,
//! the per-operator resource configuration (and consult the resource-plan
//! cache). The trait takes `&mut self` precisely so implementations can
//! count explored configurations and maintain caches.

use crate::cardinality::{CardinalityEstimator, JoinIo};
use crate::plan::PlanTree;
use raqo_catalog::TableId;
use raqo_cost::objective::CostVector;
use raqo_cost::OperatorCost;
use raqo_resource::Parallelism;
use raqo_sim::engine::JoinImpl;
use raqo_telemetry::Telemetry;
use serde::{Deserialize, Serialize};

/// The decision made for one join operator: implementation, scalar planning
/// cost, objective estimates, and (in RAQO mode) the resources to request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JoinDecision {
    pub join: JoinImpl,
    /// Scalar cost the planner minimizes.
    pub cost: f64,
    /// Estimated (time, money) under the chosen configuration.
    pub objectives: CostVector,
    /// ⟨number of containers, container size GB⟩ chosen for this operator;
    /// `None` when planning for fixed, externally given resources.
    pub resources: Option<(f64, f64)>,
    /// Cores per container, when the optimizer planned the third resource
    /// dimension; `None` under 2-D planning (engine default applies).
    pub cores: Option<f64>,
}

/// `getPlanCost` for a single join (§VI-C). Returns `None` when no
/// implementation of this join is feasible.
pub trait PlanCoster {
    fn join_cost(&mut self, io: &JoinIo) -> Option<JoinDecision>;

    /// Cost a batch of *independent* joins, returning one decision per
    /// input, in input order. The parallel Selinger DP submits a whole
    /// level's candidate extensions through this seam. The default costs
    /// them sequentially (any coster is trivially correct); implementations
    /// whose costing is a pure function of the `JoinIo` may fan the batch
    /// out over `parallelism` worker threads, as long as the returned
    /// decisions are identical to sequential per-call costing.
    fn join_cost_many(
        &mut self,
        ios: &[JoinIo],
        _parallelism: Parallelism,
    ) -> Vec<Option<JoinDecision>> {
        ios.iter().map(|io| self.join_cost(io)).collect()
    }

    /// Does this coster want whole DP levels submitted through
    /// [`PlanCoster::join_cost_many`] even when thread parallelism is off?
    /// Costers backed by a batched cost kernel (e.g. the RAQO coster)
    /// return `true` so Selinger/IDP level fills hand them
    /// wide candidate batches the kernel can fuse; the default `false`
    /// keeps plain costers on the sequential fill path.
    fn prefers_batch(&self) -> bool {
        false
    }
}

/// One costed join of a finished plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedJoin {
    pub left: Vec<TableId>,
    pub right: Vec<TableId>,
    pub io: JoinIo,
    pub decision: JoinDecision,
}

/// A finished plan: the join tree, the per-join decisions (bottom-up,
/// left-to-right execution order), and totals. In RAQO mode this is the
/// paper's "joint query and resource plan".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedQuery {
    pub tree: PlanTree,
    pub joins: Vec<PlannedJoin>,
    /// Σ scalar costs (the paper: "the total cost of a query plan is the
    /// sum of costs of all join operators in that plan").
    pub cost: f64,
    /// Σ objective vectors.
    pub objectives: CostVector,
}

/// Cost an entire plan tree with a coster. Returns `None` when any join is
/// infeasible. Single-relation plans cost zero.
pub fn cost_tree(
    tree: &PlanTree,
    est: &CardinalityEstimator<'_>,
    coster: &mut dyn PlanCoster,
) -> Option<PlannedQuery> {
    let mut joins = Vec::new();
    let rels = cost_rec(tree, est, coster, &mut joins)?;
    debug_assert_eq!(rels.len(), tree.relations().len());
    let cost = joins.iter().map(|j| j.decision.cost).sum();
    let objectives = joins
        .iter()
        .fold(CostVector::ZERO, |acc, j| acc.add(&j.decision.objectives));
    Some(PlannedQuery { tree: tree.clone(), joins, cost, objectives })
}

fn cost_rec(
    tree: &PlanTree,
    est: &CardinalityEstimator<'_>,
    coster: &mut dyn PlanCoster,
    joins: &mut Vec<PlannedJoin>,
) -> Option<Vec<TableId>> {
    match tree {
        PlanTree::Leaf(t) => Some(vec![*t]),
        PlanTree::Join(l, r) => {
            let lrels = cost_rec(l, est, coster, joins)?;
            let rrels = cost_rec(r, est, coster, joins)?;
            let io = est.join_io(&lrels, &rrels);
            let decision = coster.join_cost(&io)?;
            let mut all = lrels.clone();
            all.extend_from_slice(&rrels);
            joins.push(PlannedJoin { left: lrels, right: rrels, io, decision });
            Some(all)
        }
    }
}

/// Bitmask of `set` over the sorted, deduped relation list `rels`:
/// bit *i* is set when `rels[i]` appears in `set`. Returns `None` when the
/// query has more than 64 relations or `set` mentions a relation outside
/// `rels`. This is the key EXPLAIN ANALYZE uses to attribute per-join
/// planning time on bushy trees, where positional zipping misattributes.
pub fn relation_set_mask(rels: &[TableId], set: &[TableId]) -> Option<u64> {
    if rels.len() > 64 {
        return None;
    }
    let mut mask = 0u64;
    for t in set {
        let i = rels.binary_search(t).ok()?;
        mask |= 1u64 << i;
    }
    Some(mask)
}

/// [`cost_tree`], but wrapping each join's costing in a labeled span
/// `final_cost.join.<mask>` where `<mask>` is the join's *output*
/// relation-set bitmask over the tree's sorted relation list. EXPLAIN
/// ANALYZE matches those spans by mask — position-independent, so the
/// attribution is correct on bushy trees too. Falls back to the untraced
/// walk when telemetry is disabled (identical decisions either way).
pub fn cost_tree_traced(
    tree: &PlanTree,
    est: &CardinalityEstimator<'_>,
    coster: &mut dyn PlanCoster,
    tel: &Telemetry,
) -> Option<PlannedQuery> {
    if !tel.is_enabled() {
        return cost_tree(tree, est, coster);
    }
    let mut sorted = tree.relations();
    sorted.sort_unstable();
    sorted.dedup();
    let mut joins = Vec::new();
    let rels = cost_rec_traced(tree, est, coster, &mut joins, &sorted, tel)?;
    debug_assert_eq!(rels.len(), tree.relations().len());
    let cost = joins.iter().map(|j| j.decision.cost).sum();
    let objectives = joins
        .iter()
        .fold(CostVector::ZERO, |acc, j| acc.add(&j.decision.objectives));
    Some(PlannedQuery { tree: tree.clone(), joins, cost, objectives })
}

fn cost_rec_traced(
    tree: &PlanTree,
    est: &CardinalityEstimator<'_>,
    coster: &mut dyn PlanCoster,
    joins: &mut Vec<PlannedJoin>,
    sorted: &[TableId],
    tel: &Telemetry,
) -> Option<Vec<TableId>> {
    match tree {
        PlanTree::Leaf(t) => Some(vec![*t]),
        PlanTree::Join(l, r) => {
            let lrels = cost_rec_traced(l, est, coster, joins, sorted, tel)?;
            let rrels = cost_rec_traced(r, est, coster, joins, sorted, tel)?;
            let mut all = lrels.clone();
            all.extend_from_slice(&rrels);
            let _span = relation_set_mask(sorted, &all)
                .map(|m| tel.span_labeled("final_cost.join", m as usize));
            let io = est.join_io(&lrels, &rrels);
            let decision = coster.join_cost(&io)?;
            joins.push(PlannedJoin { left: lrels, right: rrels, io, decision });
            Some(all)
        }
    }
}

/// The plain query-optimizer baseline ("QO"): cost joins under a *fixed*
/// resource configuration, choosing only the operator implementation. This
/// is the paper's status quo — "the current practice is to use a two-step
/// approach", query plan first, resources later.
pub struct FixedResourceCoster<'a, M: OperatorCost> {
    pub model: &'a M,
    pub containers: f64,
    pub container_size_gb: f64,
    /// Number of `getPlanCost` invocations, for overhead reporting.
    pub calls: u64,
}

impl<'a, M: OperatorCost> FixedResourceCoster<'a, M> {
    pub fn new(model: &'a M, containers: f64, container_size_gb: f64) -> Self {
        FixedResourceCoster { model, containers, container_size_gb, calls: 0 }
    }
}

impl<M: OperatorCost> PlanCoster for FixedResourceCoster<'_, M> {
    fn join_cost(&mut self, io: &JoinIo) -> Option<JoinDecision> {
        self.calls += 1;
        let (join, cost) = self.model.best_impl(
            io.build_gb,
            io.probe_gb,
            self.containers,
            self.container_size_gb,
        )?;
        Some(JoinDecision {
            join,
            cost,
            objectives: CostVector::from_run(cost, self.containers, self.container_size_gb),
            resources: None,
            cores: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqo_catalog::tpch::{table, TpchSchema};
    use raqo_cost::SimOracleCost;

    fn setup() -> (TpchSchema, SimOracleCost) {
        (TpchSchema::new(1.0), SimOracleCost::hive())
    }

    #[test]
    fn fixed_coster_costs_q12_tree() {
        let (schema, model) = setup();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let tree = PlanTree::left_deep(&[table::ORDERS, table::LINEITEM]);
        let planned = cost_tree(&tree, &est, &mut coster).unwrap();
        assert_eq!(planned.joins.len(), 1);
        assert!(planned.cost > 0.0);
        assert_eq!(planned.cost, planned.objectives.time_sec);
        assert_eq!(coster.calls, 1);
    }

    #[test]
    fn plan_cost_is_sum_of_join_costs() {
        let (schema, model) = setup();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let tree =
            PlanTree::left_deep(&[table::CUSTOMER, table::ORDERS, table::LINEITEM]);
        let planned = cost_tree(&tree, &est, &mut coster).unwrap();
        assert_eq!(planned.joins.len(), 2);
        let sum: f64 = planned.joins.iter().map(|j| j.decision.cost).sum();
        assert!((planned.cost - sum).abs() < 1e-9);
    }

    #[test]
    fn join_order_in_execution_order() {
        let (schema, model) = setup();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let tree =
            PlanTree::left_deep(&[table::CUSTOMER, table::ORDERS, table::LINEITEM]);
        let planned = cost_tree(&tree, &est, &mut coster).unwrap();
        // First join: customer ⋈ orders; second: result ⋈ lineitem.
        assert_eq!(planned.joins[0].left, vec![table::CUSTOMER]);
        assert_eq!(planned.joins[0].right, vec![table::ORDERS]);
        assert_eq!(
            planned.joins[1].left,
            vec![table::CUSTOMER, table::ORDERS]
        );
        assert_eq!(planned.joins[1].right, vec![table::LINEITEM]);
    }

    #[test]
    fn single_leaf_costs_zero() {
        let (schema, model) = setup();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let planned = cost_tree(&PlanTree::leaf(table::ORDERS), &est, &mut coster).unwrap();
        assert_eq!(planned.cost, 0.0);
        assert!(planned.joins.is_empty());
    }

    #[test]
    fn decisions_are_resource_aware() {
        // Same tree, different fixed resources → different implementation
        // choices (the §III phenomenon). Sample orders down (the paper's
        // own trick) so the build side is clearly broadcastable.
        let (mut schema, model) = setup();
        schema.catalog.sample_table(table::ORDERS, 0.05);
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let tree = PlanTree::left_deep(&[table::ORDERS, table::LINEITEM]);
        // Few containers: broadcasting ~8 MB beats shuffling lineitem.
        let mut narrow = FixedResourceCoster::new(&model, 10.0, 10.0);
        let planned_narrow = cost_tree(&tree, &est, &mut narrow).unwrap();
        assert_eq!(planned_narrow.joins[0].decision.join, JoinImpl::BroadcastHash);
        // Very many containers make broadcast expensive → SMJ.
        let mut wide = FixedResourceCoster::new(&model, 500.0, 10.0);
        let planned_wide = cost_tree(&tree, &est, &mut wide).unwrap();
        assert_eq!(planned_wide.joins[0].decision.join, JoinImpl::SortMerge);
    }
}
