//! Figure 12: "RAQO planning on TPC-H schema" — planner runtime and
//! resource configurations explored for Q12/Q3/Q2/All under the
//! FastRandomized and Selinger planners, with and without resource
//! planning.
//!
//! §VII-A: "The RAQO versions of the planner ran with hill climbing but
//! without resource plan caching. We can see that we could still generate
//! both the resource and the query plans in a few milliseconds. However,
//! resource planning does add an overhead to the standard query planning."

use crate::experiments::timed;
use crate::Table;
use raqo_catalog::tpch::TpchSchema;
use raqo_catalog::QuerySpec;
use raqo_core::{PlannerKind, RaqoOptimizer, ResourceStrategy};
use raqo_cost::JoinCostModel;
use raqo_planner::RandomizedConfig;
use raqo_resource::ClusterConditions;

/// One measured cell of the figure.
#[derive(Debug, Clone)]
pub struct PlanningMeasurement {
    pub query: String,
    pub planner: &'static str,
    pub mode: &'static str,
    pub runtime_ms: f64,
    pub resource_iterations: u64,
    pub plan_cost_calls: u64,
    pub plan_time_sec: f64,
}

/// The randomized-planner budget used by the planning experiments. Smaller
/// than the library default so a 100-table query stays in paper-scale
/// planning times.
pub fn experiment_randomized_config(seed: u64) -> RandomizedConfig {
    RandomizedConfig { restarts: 4, rounds_per_join: 4, epsilon: 0.05, seed }
}

/// Run every (query × planner × mode) combination of the figure.
pub fn measure(quick: bool) -> Vec<PlanningMeasurement> {
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let cluster = ClusterConditions::paper_default();
    let queries = if quick {
        vec![QuerySpec::tpch_q12(), QuerySpec::tpch_q3()]
    } else {
        QuerySpec::tpch_suite(&schema)
    };

    let mut out = Vec::new();
    for (planner_name, planner) in [
        ("FastRandomized", PlannerKind::FastRandomized(experiment_randomized_config(17))),
        ("Selinger", PlannerKind::Selinger),
    ] {
        for query in &queries {
            // QO: pick the plan for fixed, user-guessed resources.
            let mut opt = RaqoOptimizer::new(
                &schema.catalog,
                &schema.graph,
                &model,
                cluster,
                planner.clone(),
                ResourceStrategy::HillClimb,
            );
            let (qo, qo_ms) = timed(|| opt.plan_for_resources(query, 10.0, 4.0));
            let qo = qo.expect("QO plan exists");
            out.push(PlanningMeasurement {
                query: query.name.clone(),
                planner: planner_name,
                mode: "QO",
                runtime_ms: qo_ms,
                resource_iterations: 0,
                plan_cost_calls: 0,
                plan_time_sec: qo.objectives.time_sec,
            });

            // RAQO: hill climbing, no caching (the Fig. 12 configuration).
            let (raqo, raqo_ms) = timed(|| opt.optimize(query));
            let raqo = raqo.expect("RAQO plan exists");
            out.push(PlanningMeasurement {
                query: query.name.clone(),
                planner: planner_name,
                mode: "RAQO",
                runtime_ms: raqo_ms,
                resource_iterations: raqo.stats.resource_iterations,
                plan_cost_calls: raqo.stats.plan_cost_calls,
                plan_time_sec: raqo.time_sec(),
            });

            // RAQO with exhaustive resource planning — the configuration
            // behind the paper's "more than half a million resource
            // configurations for the TPC-H All query" headline.
            let mut brute = RaqoOptimizer::new(
                &schema.catalog,
                &schema.graph,
                &model,
                cluster,
                planner.clone(),
                ResourceStrategy::BruteForce,
            );
            let (bf, bf_ms) = timed(|| brute.optimize(query));
            let bf = bf.expect("RAQO brute-force plan exists");
            out.push(PlanningMeasurement {
                query: query.name.clone(),
                planner: planner_name,
                mode: "RAQO-brute",
                runtime_ms: bf_ms,
                resource_iterations: bf.stats.resource_iterations,
                plan_cost_calls: bf.stats.plan_cost_calls,
                plan_time_sec: bf.time_sec(),
            });
        }
    }
    out
}

pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "Fig 12 — planner runtime and resource configurations explored (TPC-H)",
        &[
            "planner",
            "query",
            "mode",
            "runtime (ms)",
            "#resource iterations",
            "#getPlanCost calls",
            "est. plan time (s)",
        ],
    );
    for m in measure(quick) {
        t.row(vec![
            m.planner.into(),
            m.query.clone().into(),
            m.mode.into(),
            m.runtime_ms.into(),
            m.resource_iterations.into(),
            m.plan_cost_calls.into(),
            m.plan_time_sec.into(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raqo_explores_many_configurations_yet_stays_fast() {
        let ms = measure(true);
        for m in &ms {
            if m.mode == "RAQO" {
                assert!(m.resource_iterations > 100, "{m:?}");
                // "in a few milliseconds" — allow generous slack for debug
                // builds and CI noise.
                assert!(m.runtime_ms < 5_000.0, "{m:?}");
            }
        }
    }

    #[test]
    fn raqo_plans_are_at_least_as_good_as_fixed_resource_plans() {
        let ms = measure(true);
        // Rows come in (QO, RAQO, RAQO-brute) triples per (planner, query).
        for pair in ms.chunks(3) {
            let (qo, raqo) = (&pair[0], &pair[1]);
            assert_eq!(qo.query, raqo.query);
            assert!(
                raqo.plan_time_sec <= qo.plan_time_sec * 1.05 + 1e-9,
                "RAQO should not be worse: {raqo:?} vs {qo:?}"
            );
        }
    }

    #[test]
    fn brute_force_explores_paper_scale_configuration_counts() {
        // Paper: "more than half a million possible resource
        // configurations for the TPC-H All query" (randomized planner).
        let ms = measure(false);
        let all_fr = ms
            .iter()
            .find(|m| m.query == "All" && m.planner == "FastRandomized" && m.mode == "RAQO-brute")
            .unwrap();
        assert!(
            all_fr.resource_iterations > 500_000,
            "only {} configurations",
            all_fr.resource_iterations
        );
    }

    #[test]
    fn bigger_queries_explore_more() {
        let ms = measure(true);
        let iters = |q: &str, planner: &str| {
            ms.iter()
                .find(|m| m.query == q && m.planner == planner && m.mode == "RAQO")
                .unwrap()
                .resource_iterations
        };
        assert!(iters("Q3", "Selinger") > iters("Q12", "Selinger"));
    }
}
