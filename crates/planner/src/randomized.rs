//! The fast randomized multi-objective planner.
//!
//! §VII-A: "we re-implemented the fast randomized algorithm as illustrated
//! in [Trummer & Koch, SIGMOD 2016], we refer this as FastRandomized. We set
//! the same target approximation precision as mentioned in the paper. For
//! each node in the plan tree, we considered the associativity and the
//! exchange mutations as described in [Steinbrunn et al.]."
//!
//! The algorithm keeps an ε-approximate Pareto archive of join trees over
//! the (time, money) objectives. Each round it picks a random archived plan
//! and a random (node, mutation) pair; the mutant is costed through the
//! pluggable [`PlanCoster`] and inserted into the archive unless an archived
//! plan already ε-dominates it. After a fixed number of improvement rounds
//! per restart, the scalar-cheapest archived plan is returned (the archive
//! itself is available for Pareto-front inspection).

use crate::cardinality::CardinalityEstimator;
use crate::coster::{cost_tree, PlanCoster, PlannedQuery};
use crate::plan::{Mutation, PlanTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use raqo_catalog::{Catalog, JoinGraph, QuerySpec};
use raqo_cost::objective::CostVector;
use raqo_telemetry::{Counter, Telemetry};
use serde::{Deserialize, Serialize};

/// Planner knobs. Defaults follow the paper's setup: 10 iterations
/// (restarts), Trummer & Koch's default approximation precision.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomizedConfig {
    /// Independent restarts from fresh random plans ("we ran all query
    /// planning for a default of 10 iterations").
    pub restarts: usize,
    /// Mutation rounds per restart, as a multiple of the number of join
    /// nodes (so bigger queries get proportionally more rounds).
    pub rounds_per_join: usize,
    /// Approximation precision ε of the Pareto archive.
    pub epsilon: f64,
    /// RNG seed: the planner is deterministic given the seed.
    pub seed: u64,
}

impl Default for RandomizedConfig {
    fn default() -> Self {
        RandomizedConfig { restarts: 10, rounds_per_join: 20, epsilon: 0.05, seed: 42 }
    }
}

/// A Pareto-archived plan.
#[derive(Debug, Clone)]
struct Archived {
    tree: PlanTree,
    cost: f64,
    objectives: CostVector,
}

/// Result of a randomized planning run: the best plan plus the final
/// ε-Pareto archive of objective vectors.
#[derive(Debug, Clone)]
pub struct RandomizedOutcome {
    pub best: PlannedQuery,
    /// Pareto-front objective vectors discovered (time, money).
    pub frontier: Vec<CostVector>,
    /// Number of plans costed (mutants + restarts).
    pub plans_costed: u64,
}

/// The FastRandomized planner.
pub struct RandomizedPlanner;

impl RandomizedPlanner {
    /// Plan `query`, costing candidates through `coster`. Returns `None`
    /// when no feasible plan was found in any restart.
    pub fn plan(
        catalog: &Catalog,
        graph: &JoinGraph,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
        config: &RandomizedConfig,
    ) -> Option<RandomizedOutcome> {
        Self::plan_traced(catalog, graph, query, coster, config, &Telemetry::disabled())
    }

    /// [`RandomizedPlanner::plan`] with telemetry: each restart gets a
    /// span, improvement rounds are counted, and the final re-cost is
    /// wrapped. With the disabled handle every site is a no-op.
    pub fn plan_traced(
        catalog: &Catalog,
        graph: &JoinGraph,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
        config: &RandomizedConfig,
        tel: &Telemetry,
    ) -> Option<RandomizedOutcome> {
        let est = CardinalityEstimator::new(catalog, graph);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let rels = &query.relations;
        let mut archive: Vec<Archived> = Vec::new();
        let mut plans_costed = 0u64;
        let untraced = Telemetry::disabled();
        let cost = |tree: &PlanTree, coster: &mut dyn PlanCoster| {
            cost_tree(tree, &est, coster, &untraced)
        };

        if rels.len() == 1 {
            let planned = cost(&PlanTree::leaf(rels[0]), coster)?;
            return Some(RandomizedOutcome {
                frontier: vec![planned.objectives],
                best: planned,
                plans_costed: 1,
            });
        }

        let rounds = config.rounds_per_join * (rels.len() - 1).max(1);
        for restart in 0..config.restarts.max(1) {
            let _restart_span = tel.span_labeled("randomized.restart", restart);
            let start = PlanTree::random_connected(graph, rels, &mut rng);
            plans_costed += 1;
            if let Some(p) = cost(&start, coster) {
                archive_insert_plan(
                    &mut archive,
                    Archived { tree: start, cost: p.cost, objectives: p.objectives },
                    config.epsilon,
                );
            }
            if archive.is_empty() {
                continue;
            }
            for _ in 0..rounds {
                tel.inc(Counter::RandomizedRounds);
                let pick = rng.gen_range(0..archive.len());
                let base = archive[pick].tree.clone();
                let sites = base.mutation_sites();
                if sites == 0 {
                    break;
                }
                let site = rng.gen_range(0..sites);
                let mutation = Mutation::ALL[rng.gen_range(0..Mutation::ALL.len())];
                let Some(mutant) = base.mutate(site, mutation) else { continue };
                plans_costed += 1;
                let Some(p) = cost(&mutant, coster) else { continue };
                archive_insert_plan(
                    &mut archive,
                    Archived { tree: mutant, cost: p.cost, objectives: p.objectives },
                    config.epsilon,
                );
            }
        }

        // `total_cmp`, not `partial_cmp`: archive costs are finite for every
        // well-behaved coster, but a misbehaving cost model must degrade the
        // choice (NaN sorts last under the IEEE total order), never panic
        // the planner.
        let best_entry = archive.iter().min_by(|a, b| a.cost.total_cmp(&b.cost))?;
        // Re-cost the winner so the returned per-join decisions correspond
        // to the final plan.
        let _final_span = tel.span("randomized.final_cost");
        let best = cost_tree(&best_entry.tree, &est, coster, tel)?;
        let frontier = archive.iter().map(|a| a.objectives).collect();
        Some(RandomizedOutcome { best, frontier, plans_costed })
    }
}

/// ε-Pareto insertion over plans (mirrors
/// [`raqo_cost::objective::archive_insert`] but keeps the trees).
fn archive_insert_plan(archive: &mut Vec<Archived>, candidate: Archived, eps: f64) -> bool {
    if archive
        .iter()
        .any(|a| a.objectives.eps_dominates(&candidate.objectives, eps))
    {
        return false;
    }
    archive.retain(|a| !candidate.objectives.dominates(&a.objectives));
    archive.push(candidate);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coster::FixedResourceCoster;
    use crate::selinger::SelingerPlanner;
    use raqo_catalog::tpch::TpchSchema;
    use raqo_catalog::RandomSchemaConfig;
    use raqo_cost::SimOracleCost;

    fn config(seed: u64) -> RandomizedConfig {
        RandomizedConfig { seed, ..Default::default() }
    }

    #[test]
    fn finds_feasible_plan_for_tpch_all() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let query = QuerySpec::tpch_all(&schema);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let out = RandomizedPlanner::plan(
            &schema.catalog,
            &schema.graph,
            &query,
            &mut coster,
            &config(7),
        )
        .expect("plan found");
        assert_eq!(out.best.joins.len(), 7);
        assert!(crate::plan::covers_exactly(&out.best.tree, &query.relations));
        assert!(out.plans_costed > 10);
    }

    #[test]
    fn close_to_selinger_on_tpch_queries() {
        // The randomized planner explores bushy plans too, so it can even
        // beat left-deep Selinger; it must never be drastically worse.
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        for query in QuerySpec::tpch_suite(&schema) {
            let mut c1 = FixedResourceCoster::new(&model, 10.0, 6.0);
            let selinger =
                SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut c1).unwrap();
            let mut c2 = FixedResourceCoster::new(&model, 10.0, 6.0);
            let rand_out = RandomizedPlanner::plan(
                &schema.catalog,
                &schema.graph,
                &query,
                &mut c2,
                &config(13),
            )
            .unwrap();
            assert!(
                rand_out.best.cost <= selinger.cost * 1.3 + 1e-9,
                "{}: randomized={} selinger={}",
                query.name,
                rand_out.best.cost,
                selinger.cost
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let query = QuerySpec::tpch_all(&schema);
        let run = |seed| {
            let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
            RandomizedPlanner::plan(&schema.catalog, &schema.graph, &query, &mut coster, &config(seed))
                .unwrap()
                .best
                .cost
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn frontier_is_pairwise_nondominated() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let query = QuerySpec::tpch_all(&schema);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let out = RandomizedPlanner::plan(
            &schema.catalog,
            &schema.graph,
            &query,
            &mut coster,
            &config(11),
        )
        .unwrap();
        for (i, a) in out.frontier.iter().enumerate() {
            for (j, b) in out.frontier.iter().enumerate() {
                if i != j {
                    assert!(!a.dominates(b), "frontier member dominates another");
                }
            }
        }
    }

    #[test]
    fn scales_to_many_relations() {
        // Fig. 15(a) pushes the randomized planner to 100-relation joins;
        // smoke-test a 30-relation query here (the benches go bigger).
        let schema = RandomSchemaConfig::with_tables(30, 4).generate();
        let model = SimOracleCost::hive();
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 30, 9);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let out = RandomizedPlanner::plan(
            &schema.catalog,
            &schema.graph,
            &query,
            &mut coster,
            &RandomizedConfig { restarts: 3, ..config(21) },
        )
        .expect("plan found");
        assert_eq!(out.best.joins.len(), 29);
    }

    #[test]
    fn single_relation_short_circuits() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let query = QuerySpec::new("one", vec![raqo_catalog::tpch::table::ORDERS]);
        let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        let out = RandomizedPlanner::plan(
            &schema.catalog,
            &schema.graph,
            &query,
            &mut coster,
            &config(1),
        )
        .unwrap();
        assert_eq!(out.plans_costed, 1);
        assert_eq!(out.best.cost, 0.0);
    }

    #[test]
    fn more_restarts_do_not_hurt_quality() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let query = QuerySpec::tpch_all(&schema);
        let run = |restarts| {
            let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
            RandomizedPlanner::plan(
                &schema.catalog,
                &schema.graph,
                &query,
                &mut coster,
                &RandomizedConfig { restarts, ..config(3) },
            )
            .unwrap()
            .best
            .cost
        };
        // Not strictly guaranteed per-seed, but with the same seed the
        // archive with more restarts has seen a superset of plans.
        assert!(run(10) <= run(1) + 1e-9);
    }
}
