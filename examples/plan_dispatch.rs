//! Parametric joint plans: compile a dispatch table of (cluster condition →
//! joint plan) offline, then answer submissions with zero planning in the
//! hot path — one concrete answer to the paper's §VIII question "what
//! should be the RAQO output?".
//!
//! ```sh
//! cargo run --release --example plan_dispatch
//! ```

use raqo::core::{explain, PlanDispatcher};
use raqo::prelude::*;

fn main() {
    let schema = TpchSchema::sf100();
    let model = SimOracleCost::hive();
    let mut optimizer = RaqoOptimizer::new(
        &schema.catalog,
        &schema.graph,
        &model,
        ClusterConditions::paper_default(),
        PlannerKind::Selinger,
        ResourceStrategy::HillClimb,
    );

    // Offline: optimize the query for a ladder of representative cluster
    // conditions (as a resource manager's capacity histogram would suggest).
    let grid: Vec<ClusterConditions> = [
        (8.0, 2.0),
        (20.0, 4.0),
        (50.0, 6.0),
        (100.0, 10.0),
    ]
    .into_iter()
    .map(|(nc, cs)| ClusterConditions::two_dim(1.0..=nc, 1.0..=cs, 1.0, 1.0))
    .collect();

    let query = QuerySpec::tpch_q3();
    let dispatcher =
        PlanDispatcher::build(&mut optimizer, &query, &grid).expect("plans for all conditions");
    // Distinct plan shapes across the table: one tree for every condition
    // means a single plan would do; several mean the conditions change the
    // answer. A grid condition dispatches to the plan compiled for it.
    let mut trees = Vec::new();
    for cluster in &grid {
        let tree = &dispatcher.dispatch(cluster).query.tree;
        if !trees.contains(&tree) {
            trees.push(tree);
        }
    }
    println!(
        "compiled {} plans ({} distinct join trees) for {}\n",
        dispatcher.len(),
        trees.len(),
        query
    );

    // Online: cluster conditions observed at submission never exactly match
    // the grid; dispatch picks the nearest precomputed plan instantly.
    for (nc, cs) in [(10.0, 3.0), (64.0, 8.0), (95.0, 9.0)] {
        let observed = ClusterConditions::two_dim(1.0..=nc, 1.0..=cs, 1.0, 1.0);
        let plan = dispatcher.dispatch(&observed);
        println!(
            "observed <= {nc} containers x {cs} GB  ->  est {:.0}s, {:.1} TB*s",
            plan.time_sec(),
            plan.money_tb_sec()
        );
    }

    // And EXPLAIN one of them, §VIII's "how will explain look" answer.
    let plan = dispatcher.dispatch(&ClusterConditions::paper_default());
    println!("\n{}", explain(plan, &schema.catalog));
}
