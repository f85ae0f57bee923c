//! Extension experiment E3: cost-model ablation.
//!
//! §VI-A trains the 7-feature polynomial model and defers "tuning the cost
//! model" to future work. This ablation quantifies what that choice costs:
//! plan the TPC-H suite with (a) the paper's published coefficients,
//! (b) the same feature map retrained on our substrate, (c) the extended
//! map (+`1/nc`, `ss/nc`, intercept), and (d) the simulator oracle — then
//! *execute* every plan on the simulator at its planned resources and
//! compare realized times against the oracle-planned optimum.
//!
//! The gap between (b) and (c) is the price of the paper's feature map;
//! the gap between (c) and (d) is the remaining estimation error.

use crate::Table;
use raqo_catalog::tpch::TpchSchema;
use raqo_catalog::QuerySpec;
use raqo_core::{PlannerKind, RaqoOptimizer, RaqoPlan, ResourceStrategy};
use raqo_cost::features::FeatureMap;
use raqo_cost::{JoinCostModel, OperatorCost, SimOracleCost};
use raqo_resource::ClusterConditions;
use raqo_sim::engine::Engine;

/// Execute a plan's joins on the simulator at their planned resources;
/// returns the realized total time (OOM impossible: every model enforces
/// the engine's feasibility rule).
pub fn execute_on_simulator(plan: &RaqoPlan, engine: &Engine) -> f64 {
    plan.query
        .joins
        .iter()
        .map(|join| {
            let (nc, cs) = join.decision.resources.expect("RAQO plans resources");
            engine
                .join_time(join.decision.join, join.io.build_gb, join.io.probe_gb, nc, cs)
                .expect("planned joins are feasible")
        })
        .sum()
}

#[derive(Debug, Clone)]
pub struct AblationRow {
    pub query: String,
    pub model: &'static str,
    /// Realized execution time of the model's plan on the simulator.
    pub executed_sec: f64,
    /// Slowdown vs the oracle-planned plan (1.0 = optimal).
    pub regret: f64,
}

fn plan_with<M: OperatorCost>(
    schema: &TpchSchema,
    model: &M,
    query: &QuerySpec,
) -> RaqoPlan {
    let mut opt = RaqoOptimizer::new(
        &schema.catalog,
        &schema.graph,
        model,
        ClusterConditions::paper_default(),
        PlannerKind::Selinger,
        ResourceStrategy::BruteForce, // isolate model quality from search quality
    );
    opt.optimize(query).expect("plan exists")
}

pub fn measure(quick: bool) -> Vec<AblationRow> {
    let schema = TpchSchema::new(1.0);
    let engine = Engine::hive();
    let oracle = SimOracleCost::hive();
    let paper = JoinCostModel::paper_hive();
    let retrained = JoinCostModel::trained_hive();
    let extended = JoinCostModel::train(
        &engine,
        &raqo_sim::profile::ProfileGrid::paper_default(),
        FeatureMap::Extended,
    );

    let queries = if quick {
        vec![QuerySpec::tpch_q3()]
    } else {
        QuerySpec::tpch_suite(&schema)
    };

    let mut out = Vec::new();
    for query in &queries {
        let oracle_exec = execute_on_simulator(&plan_with(&schema, &oracle, query), &engine);
        let mut push = |name: &'static str, plan: RaqoPlan| {
            let executed = execute_on_simulator(&plan, &engine);
            out.push(AblationRow {
                query: query.name.clone(),
                model: name,
                executed_sec: executed,
                regret: executed / oracle_exec,
            });
        };
        push("oracle", plan_with(&schema, &oracle, query));
        push("paper coefficients", plan_with(&schema, &paper, query));
        push("retrained (paper map)", plan_with(&schema, &retrained, query));
        push("retrained (extended map)", plan_with(&schema, &extended, query));
    }
    out
}

pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E3 — cost-model ablation: realized plan time on the simulator (regret vs oracle)",
        &["query", "cost model", "executed (s)", "regret"],
    );
    for m in measure(quick) {
        t.row(vec![
            m.query.clone().into(),
            m.model.into(),
            m.executed_sec.into(),
            m.regret.into(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_plans_have_unit_regret() {
        for m in measure(true) {
            if m.model == "oracle" {
                assert!((m.regret - 1.0).abs() < 1e-9, "{m:?}");
            }
        }
    }

    #[test]
    fn extended_map_no_worse_than_paper_map() {
        let ms = measure(false);
        let total = |name: &str| -> f64 {
            ms.iter().filter(|m| m.model == name).map(|m| m.executed_sec).sum()
        };
        let ext = total("retrained (extended map)");
        let paper_map = total("retrained (paper map)");
        assert!(
            ext <= paper_map * 1.05,
            "extended {ext:.0}s vs paper map {paper_map:.0}s"
        );
    }

    #[test]
    fn learned_models_stay_within_bounded_regret() {
        // Even the published coefficients (trained on a different system
        // entirely) must produce *executable* plans with finite regret;
        // the substrate-trained ones should stay within a small multiple.
        for m in measure(false) {
            assert!(m.regret.is_finite() && m.regret >= 0.99, "{m:?}");
            if m.model.starts_with("retrained") {
                assert!(m.regret < 5.0, "{m:?}");
            }
        }
    }
}
