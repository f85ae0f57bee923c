//! Reply validation and the independent oracle.
//!
//! A plan is valid when it joins exactly the query's relations once each,
//! every join's `JoinIo` is what the catalog estimates for its two sides,
//! every join's resources lie on the workload's cluster grid, every join's
//! cost is bit-equal to a re-cost through the public
//! [`OperatorCost::join_cost`] at the plan's (implementation, io, resources),
//! the totals are the sums, and nothing was degraded. On the brute-force
//! workload, queries of at most [`ORACLE_MAX_RELATIONS`] relations are also
//! checked against a hand-written exhaustive enumerator that shares no code
//! with the planners.

use crate::workload::{Inputs, Schema, Workload};
use raqo_catalog::{QuerySpec, TableId};
use raqo_core::{RaqoPlan, ResourceStrategy};
use raqo_cost::OperatorCost;
use raqo_planner::{CardinalityEstimator, JoinIo};
use raqo_sim::engine::{Engine, JoinImpl};
use serde::Value;
use std::collections::HashMap;

/// The exhaustive oracle enumerates `n!` join orders; 5! = 120.
pub const ORACLE_MAX_RELATIONS: usize = 5;

/// One join of a plan, as far as validation needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinView {
    pub left: Vec<TableId>,
    pub right: Vec<TableId>,
    pub io: JoinIo,
    pub join: JoinImpl,
    pub cost: f64,
    pub time_sec: f64,
    pub resources: Option<(f64, f64)>,
}

/// A plan reduced to what both reply forms (JSON and in-process) carry.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanView {
    pub joins: Vec<JoinView>,
    pub cost: f64,
    pub time_sec: f64,
    pub degraded: bool,
    pub plan_cost_calls: u64,
    pub resource_iterations: u64,
}

impl PlanView {
    pub fn from_plan(plan: &RaqoPlan) -> PlanView {
        PlanView {
            joins: plan
                .query
                .joins
                .iter()
                .map(|j| JoinView {
                    left: j.left.clone(),
                    right: j.right.clone(),
                    io: j.io,
                    join: j.decision.join,
                    cost: j.decision.cost,
                    time_sec: j.decision.objectives.time_sec,
                    resources: j.decision.resources,
                })
                .collect(),
            cost: plan.query.cost,
            time_sec: plan.query.objectives.time_sec,
            degraded: plan.degradation.is_some(),
            plan_cost_calls: plan.stats.plan_cost_calls,
            resource_iterations: plan.stats.resource_iterations,
        }
    }

    /// Walk the server's JSON rendering of a `RaqoPlan`. The workspace's
    /// serde stand-in has no deserializer, so this reads the `Value` tree.
    pub fn from_json(text: &str) -> Result<PlanView, String> {
        let root = serde_json::from_str(text).map_err(|e| format!("plan JSON: {e}"))?;
        let query = field(&root, "query")?;
        let stats = field(&root, "stats")?;
        let joins = match field(query, "joins")? {
            Value::Array(items) => items.iter().map(join_from_json).collect::<Result<_, _>>()?,
            _ => return Err("plan JSON: `joins` is not an array".into()),
        };
        Ok(PlanView {
            joins,
            cost: num(field(query, "cost")?)?,
            time_sec: num(field(field(query, "objectives")?, "time_sec")?)?,
            degraded: !matches!(field(&root, "degradation")?, Value::Null),
            plan_cost_calls: num(field(stats, "plan_cost_calls")?)? as u64,
            resource_iterations: num(field(stats, "resource_iterations")?)? as u64,
        })
    }
}

fn field<'v>(value: &'v Value, name: &str) -> Result<&'v Value, String> {
    match value {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("plan JSON: missing `{name}`")),
        _ => Err(format!("plan JSON: expected an object around `{name}`")),
    }
}

fn num(value: &Value) -> Result<f64, String> {
    match value {
        Value::Num(n) => Ok(*n),
        other => Err(format!("plan JSON: expected a number, found {other:?}")),
    }
}

fn tables(value: &Value) -> Result<Vec<TableId>, String> {
    match value {
        Value::Array(items) => items
            .iter()
            .map(|v| num(v).map(|n| TableId(n as u32)))
            .collect(),
        _ => Err("plan JSON: relation set is not an array".into()),
    }
}

fn join_from_json(value: &Value) -> Result<JoinView, String> {
    let io = field(value, "io")?;
    let decision = field(value, "decision")?;
    let join = match field(decision, "join")? {
        Value::String(s) if s == "SortMerge" => JoinImpl::SortMerge,
        Value::String(s) if s == "BroadcastHash" => JoinImpl::BroadcastHash,
        other => return Err(format!("plan JSON: unknown join implementation {other:?}")),
    };
    let resources = match field(decision, "resources")? {
        Value::Null => None,
        Value::Array(pair) if pair.len() == 2 => Some((num(&pair[0])?, num(&pair[1])?)),
        _ => return Err("plan JSON: `resources` is not a pair".into()),
    };
    Ok(JoinView {
        left: tables(field(value, "left")?)?,
        right: tables(field(value, "right")?)?,
        io: JoinIo {
            build_gb: num(field(io, "build_gb")?)?,
            probe_gb: num(field(io, "probe_gb")?)?,
            out_gb: num(field(io, "out_gb")?)?,
            out_rows: num(field(io, "out_rows")?)?,
        },
        join,
        cost: num(field(decision, "cost")?)?,
        time_sec: num(field(field(decision, "objectives")?, "time_sec")?)?,
        resources,
    })
}

/// The catalog multiplies cardinalities in relation order and the memo
/// planner orders a bushy join's relations differently from the plan's leaf
/// order, so the two estimates may differ in the last bits.
fn same_io(a: &JoinIo, b: &JoinIo) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs());
    close(a.build_gb, b.build_gb)
        && close(a.probe_gb, b.probe_gb)
        && close(a.out_gb, b.out_gb)
        && close(a.out_rows, b.out_rows)
}

fn sorted(mut set: Vec<TableId>) -> Vec<TableId> {
    set.sort_unstable();
    set
}

/// Full validation of one plan for `query` (see module docs).
pub fn check(view: &PlanView, query: &QuerySpec, inputs: &Inputs) -> Result<(), String> {
    if view.degraded {
        return Err("plan carries a degradation".into());
    }
    if view.joins.len() != query.num_joins() {
        return Err(format!(
            "{} joins for {} relations",
            view.joins.len(),
            query.relations.len()
        ));
    }
    let est = CardinalityEstimator::new(&inputs.catalog, &inputs.graph);
    let cluster = &inputs.cluster;
    // Sub-results produced so far and not yet consumed by a later join.
    let mut open: Vec<Vec<TableId>> = Vec::new();
    let mut leaves: Vec<TableId> = Vec::new();
    for (i, join) in view.joins.iter().enumerate() {
        for side in [&join.left, &join.right] {
            if let [leaf] = side.as_slice() {
                leaves.push(*leaf);
            } else {
                let want = sorted(side.clone());
                let pos = open.iter().position(|o| *o == want).ok_or_else(|| {
                    format!("join {i}: input {side:?} is no earlier join's output")
                })?;
                open.swap_remove(pos);
            }
        }
        let mut out = join.left.clone();
        out.extend_from_slice(&join.right);
        open.push(sorted(out));

        if !same_io(&join.io, &est.join_io(&join.left, &join.right)) {
            return Err(format!("join {i}: io differs from the catalog's estimate"));
        }
        let (nc, cs) = join
            .resources
            .ok_or_else(|| format!("join {i}: no resources planned"))?;
        for (dim, v) in [nc, cs].into_iter().enumerate() {
            let (min, max) = (cluster.min.get(dim), cluster.max.get(dim));
            let steps = (v - min) / cluster.discrete_steps().get(dim);
            if !(min..=max).contains(&v) || steps != steps.round() {
                return Err(format!("join {i}: resource {v} is off the cluster grid"));
            }
        }
        let recost = inputs
            .model
            .join_cost(join.join, join.io.build_gb, join.io.probe_gb, nc, cs);
        if recost != Some(join.cost) || join.time_sec != join.cost {
            return Err(format!(
                "join {i}: reported cost {} but the model says {recost:?}",
                join.cost
            ));
        }
    }
    if let [only] = query.relations.as_slice() {
        // A single-relation query has nothing to join: an empty plan.
        leaves.push(*only);
    } else if open != [query.relations.clone()] {
        return Err("joins do not form one tree over the query".into());
    }
    if sorted(leaves) != query.relations {
        return Err("plan's leaves are not the query's relations, once each".into());
    }
    let total: f64 = view.joins.iter().map(|j| j.cost).sum();
    if total != view.cost || view.time_sec != view.cost {
        return Err(format!(
            "total cost {} is not the sum of its joins {total}",
            view.cost
        ));
    }
    Ok(())
}

/// Workload-level checks over the validated reference plans.
pub fn check_workload(
    workload: &Workload,
    inputs: &Inputs,
    plans: &[PlanView],
) -> Result<(), String> {
    if workload.schema == Schema::Random {
        // On the cost model's floor every join costs exactly `floor` and
        // all plans tie: such a workload could not see a planner change.
        let above = plans
            .iter()
            .filter(|p| p.cost > inputs.model.floor * p.joins.len() as f64)
            .count();
        if above * 2 <= plans.len() {
            return Err(format!(
                "only {above} of {} plans cost above the model floor",
                plans.len()
            ));
        }
    }
    if workload.strategy == ResourceStrategy::BruteForce {
        for (query, plan) in inputs.queries.iter().zip(plans) {
            if (2..=ORACLE_MAX_RELATIONS).contains(&query.relations.len()) {
                let best = oracle_cost(query, inputs);
                if (plan.cost - best).abs() > 1e-9 * best {
                    return Err(format!(
                        "{}: plan costs {} but exhaustive enumeration finds {best}",
                        query.name, plan.cost
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Cheapest left-deep plan by exhaustive enumeration: every join order,
/// both implementations, every grid point. Orders that need a cross product
/// are admitted only when no order avoids them, as System R does.
fn oracle_cost(query: &QuerySpec, inputs: &Inputs) -> f64 {
    let est = CardinalityEstimator::new(&inputs.catalog, &inputs.graph);
    // The model prices a join from its build side alone, so the grid scan
    // is shared between orders that build on the same input.
    let mut best_join: HashMap<(u64, u64), f64> = HashMap::new();
    let mut join_cost = |io: &JoinIo| {
        *best_join
            .entry((io.build_gb.to_bits(), io.probe_gb.to_bits()))
            .or_insert_with(|| {
                let mut best = f64::INFINITY;
                for join in JoinImpl::ALL {
                    for r in inputs.cluster.grid() {
                        let cost = inputs.model.join_cost(
                            join,
                            io.build_gb,
                            io.probe_gb,
                            r.containers(),
                            r.container_size_gb(),
                        );
                        best = best.min(cost.unwrap_or(f64::INFINITY));
                    }
                }
                best
            })
    };
    let mut best = [f64::INFINITY; 2]; // [without cross products, with]
    let mut order = query.relations.clone();
    permute(&mut order, 0, &mut |order| {
        let mut crosses = false;
        let mut total = 0.0;
        for k in 1..order.len() {
            let (left, right) = (&order[..k], &order[k..=k]);
            crosses |= !inputs.graph.connects(left, right);
            total += join_cost(&est.join_io(left, right));
        }
        let slot = &mut best[usize::from(crosses)];
        *slot = slot.min(total);
    });
    if best[0].is_finite() {
        best[0]
    } else {
        best[1]
    }
}

fn permute(items: &mut [TableId], k: usize, visit: &mut impl FnMut(&[TableId])) {
    if k == items.len() {
        return visit(items);
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

/// Realized time of the plan on the Hive simulator at its planned resources.
pub fn execute_on_simulator(view: &PlanView) -> f64 {
    let engine = Engine::hive();
    view.joins
        .iter()
        .map(|j| {
            let (nc, cs) = j.resources.expect("validated plans carry resources");
            engine
                .join_time(j.join, j.io.build_gb, j.io.probe_gb, nc, cs)
                .expect("the cost model enforces the engine's feasibility rule")
        })
        .sum()
}
