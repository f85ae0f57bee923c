//! `EXPLAIN` for joint plans.
//!
//! §VIII (Redefining the user's role): "How will the 'explain' command look
//! in such systems?" — like this: the operator tree annotated with the
//! per-operator resource requests and the estimated time/money bill.

use crate::optimizer::RaqoPlan;
use raqo_catalog::Catalog;
use raqo_planner::plan::render;
use raqo_telemetry::{aggregate_spans, Counter, Hist, Telemetry};

/// Render a joint query/resource plan the way an `EXPLAIN` statement
/// would: tree, per-join operator + resources + estimates, totals.
pub fn explain(plan: &RaqoPlan, catalog: &Catalog) -> String {
    let mut out = String::new();
    out.push_str(&format!("Plan: {}\n", render(&plan.query.tree, catalog)));
    for (i, join) in plan.query.joins.iter().enumerate() {
        let left: Vec<&str> =
            join.left.iter().map(|t| catalog.table(*t).name.as_str()).collect();
        let right: Vec<&str> =
            join.right.iter().map(|t| catalog.table(*t).name.as_str()).collect();
        out.push_str(&format!(
            "  Join {}: {} [{}] x [{}]\n",
            i + 1,
            join.decision.join,
            left.join(", "),
            right.join(", "),
        ));
        out.push_str(&format!(
            "    inputs: build {:.2} GB, probe {:.2} GB; output ~{:.2} GB\n",
            join.io.build_gb, join.io.probe_gb, join.io.out_gb
        ));
        match join.decision.resources {
            Some((nc, cs)) => out.push_str(&format!(
                "    resources: {nc} containers x {cs} GB ({} GB total)\n",
                nc * cs
            )),
            None => out.push_str("    resources: externally provided\n"),
        }
        out.push_str(&format!(
            "    estimate: {:.1} s, {:.2} TB*s\n",
            join.decision.objectives.time_sec, join.decision.objectives.money_tb_sec
        ));
    }
    out.push_str(&format!(
        "Total estimate: {:.1} s, {:.2} TB*s (planner: {} getPlanCost calls, {} resource configurations)\n",
        plan.time_sec(),
        plan.money_tb_sec(),
        plan.stats.plan_cost_calls,
        plan.stats.resource_iterations,
    ));
    if let Some(d) = &plan.degradation {
        out.push_str(&format!(
            "Degraded plan: rung {} (trigger: {}; {} evals, {} ms at step-down)\n",
            d.rung, d.trigger, d.evals_used, d.elapsed_ms
        ));
    }
    out
}

/// `EXPLAIN ANALYZE` for joint plans: the [`explain`] output extended with
/// measured planning times and search statistics from a telemetry-enabled
/// optimizer run. Pass the same sink that was attached via
/// [`crate::optimizer::RaqoOptimizer::set_telemetry`] before optimizing.
pub fn explain_analyze(plan: &RaqoPlan, catalog: &Catalog, telemetry: &Telemetry) -> String {
    let mut out = explain(plan, catalog);
    if !telemetry.is_enabled() {
        out.push_str("Planning breakdown: telemetry disabled (no measurements)\n");
        return out;
    }
    let spans = telemetry.spans();

    // Per-join planning time: the planner re-costs the winning tree join by
    // join under its final-cost span, each join wrapped in a
    // `final_cost.join.<mask>` span labeled with the join's output relation
    // *set* (a bitmask over the tree's sorted relations). Attribution keys
    // each of `plan.query.joins` by that mask, so it is correct for bushy
    // trees too — a positional zip would silently mislabel any plan whose
    // joins aren't the left-deep prefix chain. When masks are unavailable
    // (no labeled children, > 64 relations), fall back to the positional
    // zip, then to aggregates only.
    out.push_str("Planning breakdown (measured):\n");
    // Parents are matched by the span's stable sequence id (not store
    // position), so the attribution survives ring eviction of older spans.
    let final_id = spans
        .iter()
        .rev()
        .find(|s| s.name.ends_with(".final_cost"))
        .map(|s| s.id);
    let mut rels: Vec<_> = plan.query.tree.relations();
    rels.sort_unstable();
    rels.dedup();
    let mask_keyed: Vec<u64> = final_id
        .map(|fi| {
            plan.query
                .joins
                .iter()
                .filter_map(|join| {
                    let mut set = join.left.clone();
                    set.extend_from_slice(&join.right);
                    let mask = raqo_planner::coster::relation_set_mask(&rels, &set)?;
                    let name = format!("final_cost.join.{mask}");
                    spans
                        .iter()
                        .rev()
                        .find(|s| s.parent == Some(fi) && s.name == name)
                        .map(|s| s.dur_ns())
                })
                .collect()
        })
        .unwrap_or_default();
    let per_join: Vec<u64> = if mask_keyed.len() == plan.query.joins.len() {
        mask_keyed
    } else {
        final_id
            .map(|fi| {
                spans
                    .iter()
                    .filter(|s| s.parent == Some(fi) && s.name == "plan_cost")
                    .map(|s| s.dur_ns())
                    .collect()
            })
            .unwrap_or_default()
    };
    if !per_join.is_empty() && per_join.len() == plan.query.joins.len() {
        let total: u64 = per_join.iter().sum();
        for (i, d) in per_join.iter().enumerate() {
            out.push_str(&format!(
                "  Join {}: planned in {:.1} us ({:.0}% of final costing)\n",
                i + 1,
                *d as f64 / 1e3,
                if total > 0 { 100.0 * *d as f64 / total as f64 } else { 0.0 },
            ));
        }
    } else {
        out.push_str("  (per-join attribution unavailable; showing phase totals)\n");
    }
    let agg = aggregate_spans(&spans);
    for (name, count, total_ns) in agg.iter().take(10) {
        out.push_str(&format!(
            "  phase {name}: {:.1} us total across {count} span(s)\n",
            *total_ns as f64 / 1e3
        ));
    }

    if let Some(snap) = telemetry.snapshot() {
        out.push_str("Search statistics:\n");
        out.push_str(&format!(
            "  getPlanCost calls: {}, resource iterations: {}\n",
            snap.get(Counter::PlanCostCalls),
            snap.get(Counter::ResourceIterations),
        ));
        let lat = snap.hist(Hist::PlanCostLatencyUs);
        if lat.count > 0 {
            out.push_str(&format!(
                "  getPlanCost latency: {:.1} us avg over {} calls\n",
                lat.sum as f64 / lat.count as f64,
                lat.count
            ));
        }
        if let Some(ratio) = snap.cache_hit_ratio() {
            out.push_str(&format!(
                "  resource-plan cache: {:.1}% hit ({} hits, {} misses)\n",
                100.0 * ratio,
                snap.cache_hits_total(),
                snap.get(Counter::CacheMisses),
            ));
        }
        if snap.get(Counter::SelingerLevels) > 0 {
            out.push_str(&format!(
                "  Selinger DP levels: {}\n",
                snap.get(Counter::SelingerLevels)
            ));
        }
        if snap.get(Counter::IdpRounds) > 0 {
            out.push_str(&format!(
                "  IDP rounds: {}\n",
                snap.get(Counter::IdpRounds)
            ));
        }
        if snap.get(Counter::RandomizedRounds) > 0 {
            out.push_str(&format!(
                "  randomized rounds: {}\n",
                snap.get(Counter::RandomizedRounds)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{PlannerKind, RaqoOptimizer};
    use crate::raqo_coster::ResourceStrategy;
    use raqo_catalog::tpch::TpchSchema;
    use raqo_catalog::QuerySpec;
    use raqo_cost::SimOracleCost;
    use raqo_resource::ClusterConditions;

    #[test]
    fn explain_names_tables_operators_and_resources() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let mut opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &model,
            ClusterConditions::paper_default(),
            PlannerKind::Selinger,
            ResourceStrategy::HillClimb,
        );
        let plan = opt.optimize(&QuerySpec::tpch_q3()).unwrap();
        let text = explain(&plan, &schema.catalog);
        assert!(text.contains("lineitem"), "{text}");
        assert!(text.contains("customer"), "{text}");
        assert!(text.contains("containers x"), "{text}");
        assert!(text.contains("Total estimate"), "{text}");
        assert!(text.contains("SMJ") || text.contains("BHJ"), "{text}");
    }

    #[test]
    fn explain_analyze_reports_per_join_planning_times() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let tel = Telemetry::enabled();
        let mut opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &model,
            ClusterConditions::paper_default(),
            PlannerKind::Selinger,
            ResourceStrategy::HillClimb,
        );
        opt.set_telemetry(tel.clone());
        let plan = opt.optimize(&QuerySpec::tpch_q3()).unwrap();
        let text = explain_analyze(&plan, &schema.catalog, &tel);
        assert!(text.contains("Planning breakdown (measured):"), "{text}");
        // tpch_q3 has two joins; both get a measured planning time.
        assert!(text.contains("Join 1: planned in"), "{text}");
        assert!(text.contains("Join 2: planned in"), "{text}");
        assert!(text.contains("Search statistics:"), "{text}");
        assert!(text.contains("getPlanCost calls:"), "{text}");
        assert!(text.contains("Selinger DP levels:"), "{text}");
    }

    #[test]
    fn explain_analyze_degrades_gracefully_when_disabled() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let mut opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &model,
            ClusterConditions::paper_default(),
            PlannerKind::Selinger,
            ResourceStrategy::HillClimb,
        );
        let plan = opt.optimize(&QuerySpec::tpch_q3()).unwrap();
        let text = explain_analyze(&plan, &schema.catalog, &Telemetry::disabled());
        assert!(text.contains("telemetry disabled"), "{text}");
        assert!(text.contains("Total estimate"), "{text}");
    }

    #[test]
    fn explain_reports_the_idp_bridge_rung() {
        use raqo_catalog::RandomSchemaConfig;
        let schema = RandomSchemaConfig::with_tables(24, 13).generate();
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 21, 13);
        let model = SimOracleCost::hive();
        let tel = Telemetry::enabled();
        let mut opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &model,
            ClusterConditions::paper_default(),
            PlannerKind::Selinger,
            ResourceStrategy::HillClimb,
        );
        opt.set_telemetry(tel.clone());
        let plan = opt.optimize(&query).unwrap();
        let text = explain_analyze(&plan, &schema.catalog, &tel);
        // The degradation line distinguishes "bridged with IDP" from
        // "gave up to randomized".
        assert!(
            text.contains("Degraded plan: rung idp_bridge (trigger: relation_bound_bridged"),
            "{text}"
        );
        assert!(text.contains("IDP rounds:"), "{text}");
    }

    #[test]
    fn explain_analyze_attributes_joins_of_bushy_plans_by_relation_set() {
        use raqo_catalog::{Catalog, JoinGraph, TableStats};
        // A star catalog crafted so the Cascades winner is bushy: joining
        // two tiny dimensions first and probing the fact table with the
        // small cross product beats every left-deep order. The positional
        // zip this test guards against only ever lined up for left-deep
        // prefix chains.
        let mut catalog = Catalog::new();
        let fact = catalog.add_stats_only("fact", TableStats::new(2_000_000.0, 400.0));
        let mut graph = JoinGraph::new();
        for i in 0..8u32 {
            let rows = 200.0 + 100.0 * f64::from(i);
            let d = catalog.add_stats_only(format!("dim_{i}"), TableStats::new(rows, 60.0));
            graph.add_edge(fact, d, 1.0 / rows);
        }
        let model = SimOracleCost::hive();
        let tel = Telemetry::enabled();
        let mut opt = RaqoOptimizer::new(
            &catalog,
            &graph,
            &model,
            ClusterConditions::paper_default(),
            PlannerKind::cascades(),
            ResourceStrategy::HillClimb,
        );
        opt.set_telemetry(tel.clone());
        let query = QuerySpec::new("star", catalog.table_ids().collect());
        let plan = opt.optimize(&query).unwrap();
        assert!(
            !plan.query.tree.is_left_deep(),
            "the crafted star must produce a bushy winner for this test to bite"
        );
        let text = explain_analyze(&plan, &catalog, &tel);
        assert!(
            !text.contains("per-join attribution unavailable"),
            "bushy plans must get mask-keyed per-join attribution:\n{text}"
        );
        for i in 1..=plan.query.joins.len() {
            assert!(text.contains(&format!("Join {i}: planned in")), "{text}");
        }
    }

    #[test]
    fn explain_marks_fixed_resource_plans() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let mut opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &model,
            ClusterConditions::paper_default(),
            PlannerKind::Selinger,
            ResourceStrategy::HillClimb,
        );
        let planned = opt.plan_for_resources(&QuerySpec::tpch_q3(), 10.0, 4.0).unwrap();
        let plan = RaqoPlan { query: planned, stats: Default::default(), degradation: None };
        let text = explain(&plan, &schema.catalog);
        assert!(text.contains("externally provided"), "{text}");
    }
}
