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
//! algorithms (Selinger, bushy DP, randomized) call it for every candidate
//! sub-plan, and [`cost_tree`] for every join of a finished tree;
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
    /// input, in input order: exactly what [`PlanCoster::join_cost`] answers
    /// for each, called in input order. The Selinger and bushy DPs submit
    /// the uncached candidates of a level through this seam in batches of
    /// about `BATCH_CANDIDATES`, so an implementation may share work
    /// across the batch (the RAQO coster locks its cache shards once).
    /// Every planner passes [`Parallelism::Off`].
    fn join_cost_many(
        &mut self,
        ios: &[JoinIo],
        _parallelism: Parallelism,
    ) -> Vec<Option<JoinDecision>> {
        ios.iter().map(|io| self.join_cost(io)).collect()
    }

    /// Read by no planner: every DP level goes through
    /// [`PlanCoster::join_cost_many`]. Kept, with its default, only because
    /// the benchmark harness's timing coster still overrides it; so is
    /// [`Parallelism`], a benchmark-only type with the one value `Off`.
    fn prefers_batch(&self) -> bool {
        false
    }
}

/// How many candidates a DP gathers before costing them, so the batch
/// buffers stay small however wide a level of a large clique is. Selinger
/// never exceeds it; the bushy DP closes a batch between subsets, so it
/// ends at most one subset's splits past it.
pub(crate) const BATCH_CANDIDATES: usize = 4096;

/// Cost one batch of independent joins: two or more through
/// [`PlanCoster::join_cost_many`], a single one through
/// [`PlanCoster::join_cost`].
pub(crate) fn cost_batch(
    coster: &mut dyn PlanCoster,
    ios: &[JoinIo],
) -> Vec<Option<JoinDecision>> {
    if ios.len() >= 2 {
        coster.join_cost_many(ios, Parallelism::Off)
    } else {
        ios.iter().map(|io| coster.join_cost(io)).collect()
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

impl PlannedQuery {
    /// The plan of `tree` whose joins, in execution order, are `joins`:
    /// costs summed and objectives folded in that order.
    pub fn new(tree: PlanTree, joins: Vec<PlannedJoin>) -> Self {
        let cost = joins.iter().map(|j| j.decision.cost).sum();
        let objectives = joins
            .iter()
            .fold(CostVector::ZERO, |acc, j| acc.add(&j.decision.objectives));
        PlannedQuery { tree, joins, cost, objectives }
    }
}

/// Cost an entire plan tree with a coster. Returns `None` when any join is
/// infeasible. Single-relation plans cost zero.
///
/// With telemetry enabled, each join's costing is wrapped in a labeled
/// span `final_cost.join.<mask>`, `<mask>` being the join's *output*
/// relation-set bitmask over the tree's sorted relation list: EXPLAIN
/// ANALYZE matches those spans by mask, so the attribution is
/// position-independent and correct on bushy trees too. Decisions are the
/// same traced or not.
pub fn cost_tree(
    tree: &PlanTree,
    est: &CardinalityEstimator<'_>,
    coster: &mut dyn PlanCoster,
    tel: &Telemetry,
) -> Option<PlannedQuery> {
    let sorted = tel.is_enabled().then(|| {
        let mut sorted = tree.relations();
        sorted.sort_unstable();
        sorted.dedup();
        sorted
    });
    let mut joins = Vec::new();
    let rels = cost_rec(tree, est, coster, sorted.as_deref(), tel, &mut joins)?;
    debug_assert_eq!(rels.len(), tree.relations().len());
    Some(PlannedQuery::new(tree.clone(), joins))
}

fn cost_rec(
    tree: &PlanTree,
    est: &CardinalityEstimator<'_>,
    coster: &mut dyn PlanCoster,
    sorted: Option<&[TableId]>,
    tel: &Telemetry,
    joins: &mut Vec<PlannedJoin>,
) -> Option<Vec<TableId>> {
    match tree {
        PlanTree::Leaf(t) => Some(vec![*t]),
        PlanTree::Join(l, r) => {
            let lrels = cost_rec(l, est, coster, sorted, tel, joins)?;
            let rrels = cost_rec(r, est, coster, sorted, tel, joins)?;
            let mut all = lrels.clone();
            all.extend_from_slice(&rrels);
            let _span = sorted
                .and_then(|sorted| relation_set_mask(sorted, &all))
                .map(|m| tel.span_labeled("final_cost.join", m as usize));
            let io = est.join_io(&lrels, &rrels);
            let decision = coster.join_cost(&io)?;
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

    fn walk(
        tree: &PlanTree,
        est: &CardinalityEstimator<'_>,
        coster: &mut dyn PlanCoster,
    ) -> Option<PlannedQuery> {
        cost_tree(tree, est, coster, &Telemetry::disabled())
    }

    /// Telemetry on or off: one walk, the same plan. A traced run leaves
    /// one `final_cost.join.<mask>` span per join, keyed by the join's
    /// output set.
    #[test]
    fn one_walk_whatever_it_records() {
        let (schema, model) = setup();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        // (customer ⋈ orders) ⋈ (lineitem ⋈ supplier): bushy, and the
        // relation ids are not in tree order.
        let tree = PlanTree::join(
            PlanTree::left_deep(&[table::CUSTOMER, table::ORDERS]),
            PlanTree::left_deep(&[table::LINEITEM, table::SUPPLIER]),
        );
        assert!(!tree.is_left_deep());
        let plain = walk(&tree, &est, &mut FixedResourceCoster::new(&model, 10.0, 4.0)).unwrap();
        let mut sorted = tree.relations();
        sorted.sort_unstable();
        let spans: Vec<String> = plain
            .joins
            .iter()
            .map(|j| {
                let mask = relation_set_mask(&sorted, &[j.left.clone(), j.right.clone()].concat());
                format!("final_cost.join.{}", mask.unwrap())
            })
            .collect();

        for traced in [false, true] {
            let tel = if traced { Telemetry::enabled() } else { Telemetry::disabled() };
            let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
            let got = cost_tree(&tree, &est, &mut coster, &tel).unwrap();
            let case = format!("traced={traced}");
            assert_eq!(plain, got, "{case}");
            assert_eq!(plain.cost.to_bits(), got.cost.to_bits(), "{case}");
            assert_eq!(coster.calls, 3, "{case}");
            let recorded: Vec<String> = tel.spans().into_iter().map(|s| s.name).collect();
            assert_eq!(recorded, if traced { spans.clone() } else { Vec::new() }, "{case}");
        }
    }

    /// Both DPs hand the coster batches of two or more candidates through
    /// `join_cost_many` and a lone candidate through `join_cost`.
    #[test]
    fn dp_batches_hold_two_or_more_candidates() {
        use crate::cascades::{CascadesConfig, CascadesPlanner};
        use crate::selinger::SelingerPlanner;
        use raqo_catalog::QuerySpec;
        struct Recording<'a> {
            inner: FixedResourceCoster<'a, SimOracleCost>,
            singles: u64,
            batches: Vec<usize>,
        }
        impl PlanCoster for Recording<'_> {
            fn join_cost(&mut self, io: &JoinIo) -> Option<JoinDecision> {
                self.singles += 1;
                self.inner.join_cost(io)
            }
            fn join_cost_many(
                &mut self,
                ios: &[JoinIo],
                _parallelism: Parallelism,
            ) -> Vec<Option<JoinDecision>> {
                self.batches.push(ios.len());
                ios.iter().map(|io| self.inner.join_cost(io)).collect()
            }
        }
        let (schema, model) = setup();
        let (catalog, graph) = (&schema.catalog, &schema.graph);
        let recording = || Recording {
            inner: FixedResourceCoster::new(&model, 10.0, 4.0),
            singles: 0,
            batches: Vec::new(),
        };
        // Two relations: Selinger's one level holds both orders, the final
        // re-cost one join; the bushy search costs its seed join alone and
        // reads the final tree off its own tables.
        let q12 = QuerySpec::tpch_q12();
        let mut selinger = recording();
        SelingerPlanner::plan(catalog, graph, &q12, &mut selinger).unwrap();
        assert_eq!((selinger.singles, selinger.batches.as_slice()), (1, &[2][..]));
        let mut bushy = recording();
        CascadesPlanner::plan(catalog, graph, &q12, &mut bushy, &CascadesConfig::default())
            .unwrap();
        assert_eq!((bushy.singles, bushy.batches.as_slice()), (1, &[][..]));

        let all = QuerySpec::tpch_all(&schema);
        let mut selinger = recording();
        SelingerPlanner::plan(catalog, graph, &all, &mut selinger).unwrap();
        let mut bushy = recording();
        CascadesPlanner::plan(catalog, graph, &all, &mut bushy, &CascadesConfig::default())
            .unwrap();
        for coster in [selinger, bushy] {
            assert!(!coster.batches.is_empty());
            assert!(coster.batches.iter().all(|&w| w >= 2), "{:?}", coster.batches);
        }
    }

    #[test]
    fn fixed_coster_costs_q12_tree() {
        let (schema, model) = setup();
        let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let tree = PlanTree::left_deep(&[table::ORDERS, table::LINEITEM]);
        let planned = walk(&tree, &est, &mut coster).unwrap();
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
        let planned = walk(&tree, &est, &mut coster).unwrap();
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
        let planned = walk(&tree, &est, &mut coster).unwrap();
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
        let planned = walk(&PlanTree::leaf(table::ORDERS), &est, &mut coster).unwrap();
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
        let planned_narrow = walk(&tree, &est, &mut narrow).unwrap();
        assert_eq!(planned_narrow.joins[0].decision.join, JoinImpl::BroadcastHash);
        // Very many containers make broadcast expensive → SMJ.
        let mut wide = FixedResourceCoster::new(&model, 500.0, 10.0);
        let planned_wide = walk(&tree, &est, &mut wide).unwrap();
        assert_eq!(planned_wide.joins[0].decision.join, JoinImpl::SortMerge);
    }
}
