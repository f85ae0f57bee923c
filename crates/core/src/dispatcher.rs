//! Parametric joint plans: precompute plans for a family of cluster
//! conditions and dispatch at runtime.
//!
//! §VIII asks: "what should be the RAQO output: a decision tree, a machine
//! learning model, or analytical formulas?" This module implements the
//! lookup-table answer, the joint-optimization analogue of parametric
//! query optimization [Ganguly 1998]: optimize once per representative
//! cluster condition at compile time, then pick the precomputed plan
//! nearest the conditions observed at submission — no optimizer in the
//! hot path.

use crate::optimizer::{RaqoOptimizer, RaqoPlan};
use raqo_catalog::QuerySpec;
use raqo_cost::OperatorCost;
use raqo_resource::ClusterConditions;
use serde::{Deserialize, Serialize};

/// One dispatch entry: the conditions a plan was optimized for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConditionKey {
    pub max_containers: f64,
    pub max_container_gb: f64,
}

impl ConditionKey {
    pub fn of(cluster: &ClusterConditions) -> Self {
        ConditionKey {
            max_containers: cluster.max.containers(),
            max_container_gb: cluster.max.container_size_gb(),
        }
    }

    /// Log-scale distance — cluster capacities vary over orders of
    /// magnitude (Fig. 15(b) spans 100 → 100 K containers), so nearest
    /// neighbours are found in log space.
    fn distance(&self, other: &ConditionKey) -> f64 {
        let dc = (self.max_containers.ln() - other.max_containers.ln()).abs();
        let ds = (self.max_container_gb.ln() - other.max_container_gb.ln()).abs();
        dc + ds
    }
}

/// A compiled dispatch table for one query.
#[derive(Debug, Clone)]
pub struct PlanDispatcher {
    pub query: QuerySpec,
    entries: Vec<(ConditionKey, RaqoPlan)>,
}

impl PlanDispatcher {
    /// Optimize `query` under every condition in `grid` and compile the
    /// table. The optimizer's cache carries across conditions (that is the
    /// across-query caching of Fig. 15(b) put to work).
    pub fn build<M: OperatorCost>(
        optimizer: &mut RaqoOptimizer<'_, M>,
        query: &QuerySpec,
        grid: &[ClusterConditions],
    ) -> Option<Self> {
        assert!(!grid.is_empty(), "need at least one cluster condition");
        let mut entries = Vec::with_capacity(grid.len());
        for cluster in grid {
            optimizer.set_cluster(*cluster);
            let plan = optimizer.optimize(query)?;
            entries.push((ConditionKey::of(cluster), plan));
        }
        Some(PlanDispatcher { query: query.clone(), entries })
    }

    /// Number of precomputed plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The precomputed plan nearest the observed conditions.
    pub fn dispatch(&self, observed: &ClusterConditions) -> &RaqoPlan {
        let key = ConditionKey::of(observed);
        self.entries
            .iter()
            // `total_cmp` so a degenerate observation (NaN bounds) picks
            // an arbitrary-but-valid entry instead of panicking.
            .min_by(|a, b| key.distance(&a.0).total_cmp(&key.distance(&b.0)))
            .map(|(_, p)| p)
            // Infallible: every constructor plans at least one condition
            // before the table is handed out.
            .expect("non-empty by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::PlannerKind;
    use crate::raqo_coster::ResourceStrategy;
    use raqo_catalog::tpch::TpchSchema;
    use raqo_cost::SimOracleCost;

    fn grid() -> Vec<ClusterConditions> {
        vec![
            ClusterConditions::two_dim(1.0..=8.0, 1.0..=2.0, 1.0, 1.0),
            ClusterConditions::two_dim(1.0..=30.0, 1.0..=6.0, 1.0, 1.0),
            ClusterConditions::two_dim(1.0..=100.0, 1.0..=10.0, 1.0, 1.0),
        ]
    }

    fn build_dispatcher(schema: &TpchSchema, model: &SimOracleCost) -> PlanDispatcher {
        let mut opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            model,
            ClusterConditions::paper_default(),
            PlannerKind::Selinger,
            ResourceStrategy::HillClimb,
        );
        PlanDispatcher::build(&mut opt, &QuerySpec::tpch_q3(), &grid()).expect("plans exist")
    }

    #[test]
    fn dispatch_returns_exact_match_for_grid_conditions() {
        let schema = TpchSchema::sf100();
        let model = SimOracleCost::hive();
        let d = build_dispatcher(&schema, &model);
        assert_eq!(d.len(), 3);
        for (i, cluster) in grid().iter().enumerate() {
            let plan = d.dispatch(cluster);
            assert!(std::ptr::eq(plan, &d.entries[i].1), "a grid condition gets its own plan");
            // The dispatched plan's resources fit the observed conditions.
            for join in &plan.query.joins {
                let (nc, cs) = join.decision.resources.unwrap();
                assert!(nc <= cluster.max.containers());
                assert!(cs <= cluster.max.container_size_gb());
            }
        }
    }

    #[test]
    fn dispatch_picks_nearest_for_unseen_conditions() {
        let schema = TpchSchema::sf100();
        let model = SimOracleCost::hive();
        let d = build_dispatcher(&schema, &model);
        // 90×9 is nearest (in log space) to the 100×10 grid entry.
        let observed = ClusterConditions::two_dim(1.0..=90.0, 1.0..=9.0, 1.0, 1.0);
        let plan = d.dispatch(&observed);
        let reference = d.dispatch(&ClusterConditions::paper_default());
        assert_eq!(plan.query.tree, reference.query.tree);
    }

    #[test]
    fn bigger_clusters_get_faster_plans() {
        let schema = TpchSchema::sf100();
        let model = SimOracleCost::hive();
        let d = build_dispatcher(&schema, &model);
        let small = d.dispatch(&grid()[0]).time_sec();
        let large = d.dispatch(&grid()[2]).time_sec();
        assert!(large < small, "large cluster {large} vs small {small}");
    }

    #[test]
    fn distinct_trees_counts_shapes() {
        let schema = TpchSchema::sf100();
        let model = SimOracleCost::hive();
        let d = build_dispatcher(&schema, &model);
        let mut trees: Vec<&raqo_planner::PlanTree> = Vec::new();
        for (_, p) in &d.entries {
            if !trees.contains(&&p.query.tree) {
                trees.push(&p.query.tree);
            }
        }
        assert!((1..=3).contains(&trees.len()));
    }
}
