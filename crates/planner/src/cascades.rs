//! Cascades-style memo optimizer: logical groups over relation sets, an
//! explicit task stack, and transformation rules that cover *bushy* join
//! trees.
//!
//! Selinger (and IDP, which inherits its shape) searches left-deep trees
//! only. Star and clique queries leave money on the table there: joining
//! two small dimension tables first and probing the fact table with the
//! tiny cross product can be strictly cheaper than any left-deep order.
//! This module searches the bushy space the way Cascades/Volcano engines
//! do:
//!
//! * **Groups** — equivalence classes of sub-plans keyed by their relation
//!   *set* (a u64 bitmask over the query's sorted relation list). A group
//!   holds every logical join expression discovered for that set plus, once
//!   costed, the best physical candidate.
//! * **Expressions** — binary joins `left-group ⋈ right-group`, deduplicated
//!   per group by the (left-mask, right-mask) pair. Group identity is
//!   resolved through a disjoint-set forest ([`Search::find`] /
//!   [`Search::merge`]), so duplicate groups discovered independently can be
//!   merged without rewriting expressions.
//! * **Tasks** — an explicit LIFO stack of optimize-group / explore-group /
//!   apply-rule steps (no recursion). Rules are **join commutativity**
//!   (A ⋈ B → B ⋈ A) and **left associativity** ((A ⋈ B) ⋈ C → A ⋈ (B ⋈ C));
//!   together with the closure re-firing in [`Search::insert_expr`] they
//!   generate every admissible bushy tree.
//!
//! Every physical candidate is costed through the same
//! [`PlanCoster::join_cost`] seam as Selinger — `getPlanCost` in the
//! paper's §VI-C — so resource planning, the plan-cost cache,
//! memoization ([`CostMemo`]) and planning budgets compose unchanged;
//! whole groups are costed in one [`PlanCoster::join_cost_many`] batch
//! when the coster prefers batches or thread parallelism is on.
//!
//! **Cross products** are admitted only when the estimated output stays
//! under [`CascadesConfig::cross_rows_cap`] rows (the seed left-deep chain
//! bypasses the cap so a complete plan always exists). That keeps the memo
//! polynomial on chain queries — only contiguous intervals form groups —
//! while still admitting the tiny dimension×dimension products that make
//! bushy plans win on star schemas.
//!
//! A `stop` probe (wired to the [`PlanningBudget`] by the optimizer) is
//! checked at every task pop; when it fires mid-search the planner falls
//! back to the best already-costed plan — or the seed left-deep tree — and
//! reports `cut_short`, which the optimizer surfaces as its own
//! degradation rung.
//!
//! [`PlanningBudget`]: raqo_resource::PlanningBudget

use crate::cardinality::{CardinalityEstimator, JoinIo};
use crate::coster::{cost_tree_traced, PlanCoster, PlannedQuery};
use crate::memo::{cost_tree_memo_traced, CostMemo};
use crate::plan::PlanTree;
use raqo_catalog::{Catalog, JoinGraph, QuerySpec, TableId};
use raqo_resource::Parallelism;
use raqo_telemetry::{Counter, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Hard cap: groups are u64 relation-set bitmasks.
pub const CASCADES_MAX_RELATIONS: usize = 64;

/// Default bound on exhaustive memo search. The clique task space grows
/// ~4ⁿ; 12 relations (≈ half a million expressions worst case) is already
/// far past anything the paper plans exhaustively, and queries above the
/// bound report [`CascadesError::TooManyRelations`] so the optimizer can
/// bridge to IDP exactly as it does for Selinger.
pub const DEFAULT_CASCADES_THRESHOLD: usize = 12;

/// Default cross-product admission cap, in estimated output rows. High
/// enough to admit dimension×dimension products on star schemas (the
/// bushy win), low enough to reject every fact-sized cross product, which
/// keeps chain-query memos polynomial.
pub const DEFAULT_CROSS_ROWS_CAP: f64 = 1e8;

/// Tuning knobs for [`CascadesPlanner`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CascadesConfig {
    /// Queries with more relations fail with
    /// [`CascadesError::TooManyRelations`] (clamped to
    /// [`CASCADES_MAX_RELATIONS`]).
    pub max_relations: usize,
    /// Reuse a [`CostMemo`] across runs (the optimizer owns the memo and
    /// its context fingerprint, exactly as for Selinger).
    pub memoize: bool,
    /// Admit a cross-product expression only when its estimated output is
    /// at most this many rows. Non-positive rejects all cross products
    /// (the seed chain still bypasses the cap).
    pub cross_rows_cap: f64,
}

impl Default for CascadesConfig {
    fn default() -> Self {
        CascadesConfig {
            max_relations: DEFAULT_CASCADES_THRESHOLD,
            memoize: false,
            cross_rows_cap: DEFAULT_CROSS_ROWS_CAP,
        }
    }
}

/// Why the memo search could not produce a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CascadesError {
    /// Query exceeds [`CascadesConfig::max_relations`]; callers bridge to
    /// IDP or the randomized planner, as with Selinger.
    TooManyRelations { n: usize, max: usize },
    /// No feasible plan (empty query, or the coster rejected every
    /// candidate of every complete tree).
    Infeasible,
}

impl fmt::Display for CascadesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CascadesError::TooManyRelations { n, max } => write!(
                f,
                "query has {n} relations, above the cascades memo bound of {max}"
            ),
            CascadesError::Infeasible => write!(f, "no feasible plan"),
        }
    }
}

impl std::error::Error for CascadesError {}

/// A finished memo search: the winning plan plus search-size accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadesOutcome {
    pub planned: PlannedQuery,
    /// True when the `stop` probe fired before the search completed; the
    /// plan is then the best fully-costed candidate (or the seed left-deep
    /// tree), not necessarily the memo optimum.
    pub cut_short: bool,
    /// Logical groups materialized.
    pub groups: usize,
    /// Join expressions materialized (after dedup).
    pub expressions: usize,
    /// Tasks popped off the stack.
    pub tasks: u64,
}

type GroupId = usize;
type ExprId = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// A ⋈ B → B ⋈ A.
    Commute,
    /// (A ⋈ B) ⋈ C → A ⋈ (B ⋈ C).
    AssocLeft,
}

#[derive(Debug, Clone, Copy)]
enum Task {
    OptimizeGroup(GroupId),
    ExploreGroup(GroupId),
    ApplyRule { expr: ExprId, rule: Rule },
}

/// Best physical candidate of a costed group. `expr` is `None` for leaf
/// groups (a bare scan costs zero, as everywhere else in the planner).
#[derive(Debug, Clone, Copy)]
struct Best {
    cost: f64,
    expr: Option<ExprId>,
}

#[derive(Debug)]
struct Group {
    mask: u64,
    /// Relations of `mask`, sorted (bit order over the query relation
    /// list). Kept materialized because every costing and admission step
    /// needs the slice.
    rels: Vec<TableId>,
    /// `set_gb(rels)`: a group joins many partners and its relations never
    /// reorder, so its size as a join input is computed once.
    gb: f64,
    /// Expressions rooted at this group, in insertion order (append-only,
    /// so [`Expr::assoc_seen`] cursors stay valid).
    exprs: Vec<ExprId>,
    /// Dedup of (left-mask, right-mask) pairs ever *proposed* for this
    /// group — including pairs the admission test rejected, so each pair
    /// is examined at most once.
    expr_set: HashSet<(u64, u64)>,
    /// Expressions (in any group) whose *left* input is this group; when
    /// this group grows, their associativity bindings must be re-enumerated.
    parents_left: Vec<ExprId>,
    explored: bool,
    costed: bool,
    best: Option<Best>,
}

#[derive(Debug, Clone, Copy)]
struct Expr {
    group: GroupId,
    left: GroupId,
    right: GroupId,
    /// Has the commutativity rule fired for this expression?
    commuted: bool,
    /// Cursor into the left group's `exprs` list: associativity bindings
    /// below this index have already been enumerated. Re-firing the rule
    /// after the left group grows resumes here, making enumeration O(1)
    /// amortized per (expression, binding) pair.
    assoc_seen: usize,
}

/// The memo: groups, expressions, the disjoint-set forest over group ids,
/// and the task stack.
struct Search<'q> {
    rels: &'q [TableId],
    est: &'q CardinalityEstimator<'q>,
    groups: Vec<Group>,
    exprs: Vec<Expr>,
    by_mask: HashMap<u64, GroupId>,
    parent: Vec<GroupId>,
    stack: Vec<Task>,
    tasks: u64,
}

impl<'q> Search<'q> {
    fn new(rels: &'q [TableId], est: &'q CardinalityEstimator<'q>) -> Self {
        Search {
            rels,
            est,
            groups: Vec::new(),
            exprs: Vec::new(),
            by_mask: HashMap::new(),
            parent: Vec::new(),
            stack: Vec::new(),
            tasks: 0,
        }
    }

    /// Canonical id of a group (disjoint-set find; no path compression —
    /// merge chains are short because mask-keyed dedup makes real merges
    /// rare).
    fn find(&self, mut g: GroupId) -> GroupId {
        while self.parent[g] != g {
            g = self.parent[g];
        }
        g
    }

    fn group_rels(&self, mask: u64) -> Vec<TableId> {
        let mut rels = Vec::with_capacity(mask.count_ones() as usize);
        let mut m = mask;
        while m != 0 {
            rels.push(self.rels[m.trailing_zeros() as usize]);
            m &= m - 1;
        }
        rels
    }

    fn group_of(&self, mask: u64) -> Option<GroupId> {
        self.by_mask.get(&mask).map(|&g| self.find(g))
    }

    /// Materialize a new group for `mask`. Leaf groups are born costed
    /// (scans cost zero) and explored (no expressions to fire rules on).
    fn create_group(&mut self, mask: u64) -> GroupId {
        let id = self.groups.len();
        let rels = self.group_rels(mask);
        let leaf = mask.count_ones() == 1;
        self.groups.push(Group {
            mask,
            gb: self.est.set_gb(&rels),
            rels,
            exprs: Vec::new(),
            expr_set: HashSet::new(),
            parents_left: Vec::new(),
            explored: leaf,
            costed: leaf,
            best: leaf.then_some(Best { cost: 0.0, expr: None }),
        });
        self.parent.push(id);
        self.by_mask.insert(mask, id);
        id
    }

    fn ensure_group(&mut self, mask: u64) -> GroupId {
        match self.by_mask.get(&mask) {
            Some(&g) => self.find(g),
            None => self.create_group(mask),
        }
    }

    /// Merge two groups into one equivalence class (disjoint-set union).
    /// The surviving group inherits the loser's expressions (dedup
    /// preserved), its left-parent registrations, and the tighter of the
    /// two bests when both sides were costed; parents of the survivor
    /// re-fire associativity because the expression list grew.
    ///
    /// Masks key groups uniquely, so the mainline search never creates two
    /// groups for one relation set; merge is the defensive path rules would
    /// take if a transformation ever proved two masks equivalent.
    #[cfg_attr(not(test), allow(dead_code))]
    fn merge(&mut self, a: GroupId, b: GroupId) -> GroupId {
        let a = self.find(a);
        let b = self.find(b);
        if a == b {
            return a;
        }
        let (win, lose) = if a < b { (a, b) } else { (b, a) };
        self.parent[lose] = win;
        let moved_exprs = std::mem::take(&mut self.groups[lose].exprs);
        let moved_set: Vec<(u64, u64)> = self.groups[lose].expr_set.drain().collect();
        let moved_parents = std::mem::take(&mut self.groups[lose].parents_left);
        let lose_explored = self.groups[lose].explored;
        let lose_costed = self.groups[lose].costed;
        let lose_best = self.groups[lose].best.take();
        for pair in moved_set {
            self.groups[win].expr_set.insert(pair);
        }
        for e in moved_exprs {
            self.exprs[e].group = win;
            self.groups[win].exprs.push(e);
        }
        self.groups[win].parents_left.extend(moved_parents);
        self.groups[win].explored = self.groups[win].explored && lose_explored;
        let costed = self.groups[win].costed && lose_costed;
        self.groups[win].best = match (costed, self.groups[win].best, lose_best) {
            (true, Some(x), Some(y)) => Some(if x.cost <= y.cost { x } else { y }),
            (true, x, y) => x.or(y),
            _ => None,
        };
        self.groups[win].costed = costed;
        for i in 0..self.groups[win].parents_left.len() {
            let p = self.groups[win].parents_left[i];
            self.stack.push(Task::ApplyRule { expr: p, rule: Rule::AssocLeft });
        }
        win
    }

    /// Admission test for a candidate expression. Seeds always pass;
    /// otherwise the join must be edge-connected or a cross product whose
    /// estimated output fits under the cap.
    fn admit(
        &self,
        l: GroupId,
        r: GroupId,
        seed: bool,
        graph: &JoinGraph,
        cap: f64,
    ) -> bool {
        seed
            || graph.connects(&self.groups[l].rels, &self.groups[r].rels)
            || self.join_io(l, r).out_rows <= cap
    }

    /// The IO of joining groups `l` and `r`, in that order.
    fn join_io(&self, l: GroupId, r: GroupId) -> JoinIo {
        let (l, r) = (&self.groups[l], &self.groups[r]);
        self.est.join_io_sized(&l.rels, l.gb, &r.rels, r.gb)
    }

    /// Insert `left ⋈ right` into group `g` unless the pair was already
    /// proposed or fails admission. On success, schedules the rule tasks
    /// for the new expression, exploration of its children, and — the
    /// closure step — re-fires associativity on every expression whose
    /// left input is `g`, because their binding lists just grew.
    fn insert_expr(
        &mut self,
        g: GroupId,
        l: GroupId,
        r: GroupId,
        seed: bool,
        graph: &JoinGraph,
        cap: f64,
    ) -> Option<ExprId> {
        let g = self.find(g);
        let l = self.find(l);
        let r = self.find(r);
        let (lmask, rmask) = (self.groups[l].mask, self.groups[r].mask);
        debug_assert_eq!(lmask & rmask, 0, "expression inputs must be disjoint");
        debug_assert_eq!(lmask | rmask, self.groups[g].mask, "inputs must cover the group");
        if !self.groups[g].expr_set.insert((lmask, rmask)) {
            return None;
        }
        if !self.admit(l, r, seed, graph, cap) {
            return None;
        }
        let e = self.exprs.len();
        self.exprs.push(Expr { group: g, left: l, right: r, commuted: false, assoc_seen: 0 });
        self.groups[g].exprs.push(e);
        self.groups[l].parents_left.push(e);
        self.stack.push(Task::ApplyRule { expr: e, rule: Rule::AssocLeft });
        self.stack.push(Task::ApplyRule { expr: e, rule: Rule::Commute });
        if !self.groups[l].explored {
            self.stack.push(Task::ExploreGroup(l));
        }
        if !self.groups[r].explored {
            self.stack.push(Task::ExploreGroup(r));
        }
        for i in 0..self.groups[g].parents_left.len() {
            let p = self.groups[g].parents_left[i];
            self.stack.push(Task::ApplyRule { expr: p, rule: Rule::AssocLeft });
        }
        Some(e)
    }

    /// Fire both rules on every expression of the group. Largely belt and
    /// braces — [`Search::insert_expr`] already schedules rules at
    /// insertion — but it keeps groups correct if incremental scheduling
    /// ever changes, and it marks the explored flag optimize-group waits
    /// on.
    fn explore_group(&mut self, g: GroupId) {
        let g = self.find(g);
        if self.groups[g].explored {
            return;
        }
        self.groups[g].explored = true;
        for i in 0..self.groups[g].exprs.len() {
            let e = self.groups[g].exprs[i];
            self.stack.push(Task::ApplyRule { expr: e, rule: Rule::AssocLeft });
            self.stack.push(Task::ApplyRule { expr: e, rule: Rule::Commute });
        }
    }

    fn apply_commute(
        &mut self,
        e: ExprId,
        graph: &JoinGraph,
        cap: f64,
    ) {
        if self.exprs[e].commuted {
            return;
        }
        self.exprs[e].commuted = true;
        let Expr { group, left, right, .. } = self.exprs[e];
        self.insert_expr(group, right, left, false, graph, cap);
    }

    /// Enumerate the unseen associativity bindings of `e = (left ⋈ right)`:
    /// for each expression `left = (a ⋈ b)`, derive `a ⋈ (b ⋈ right)`.
    /// The cursor makes re-fires cheap; inserting into `left` mid-loop is
    /// fine because the expression list is append-only.
    fn apply_assoc(
        &mut self,
        e: ExprId,
        graph: &JoinGraph,
        cap: f64,
    ) {
        loop {
            let left = self.find(self.exprs[e].left);
            let idx = self.exprs[e].assoc_seen;
            if idx >= self.groups[left].exprs.len() {
                return;
            }
            self.exprs[e].assoc_seen = idx + 1;
            let le = self.groups[left].exprs[idx];
            let g = self.find(self.exprs[e].group);
            let r = self.find(self.exprs[e].right);
            let a = self.find(self.exprs[le].left);
            let b = self.find(self.exprs[le].right);
            let br_mask = self.groups[b].mask | self.groups[r].mask;
            // Only materialize the (b ⋈ r) group if its first expression
            // passes admission — otherwise rejected cross products would
            // litter the memo with empty groups.
            let br = match self.group_of(br_mask) {
                Some(id) => {
                    self.insert_expr(id, b, r, false, graph, cap);
                    Some(id)
                }
                None if self.admit(b, r, false, graph, cap) => {
                    let id = self.create_group(br_mask);
                    self.insert_expr(id, b, r, false, graph, cap);
                    Some(id)
                }
                None => None,
            };
            if let Some(br) = br {
                if !self.groups[self.find(br)].exprs.is_empty() {
                    self.insert_expr(g, a, br, false, graph, cap);
                }
            }
        }
    }

    /// Cost a group: every deduplicated candidate expression goes through
    /// `getPlanCost` (one [`PlanCoster::join_cost_many`] batch when
    /// batching is on), with the [`CostMemo`] probed first when supplied.
    /// Re-queues itself behind exploration / child-costing tasks until the
    /// group and all referenced child groups are ready.
    #[allow(clippy::too_many_arguments)]
    fn optimize_group(
        &mut self,
        g: GroupId,
        coster: &mut dyn PlanCoster,
        parallelism: Parallelism,
        batch: bool,
        mut memo: Option<&mut CostMemo>,
        stop: Option<&dyn Fn() -> bool>,
    ) {
        let g = self.find(g);
        if self.groups[g].costed {
            return;
        }
        if !self.groups[g].explored {
            self.stack.push(Task::OptimizeGroup(g));
            self.stack.push(Task::ExploreGroup(g));
            return;
        }
        let mut missing: Vec<GroupId> = Vec::new();
        for i in 0..self.groups[g].exprs.len() {
            let e = self.groups[g].exprs[i];
            for c in [self.find(self.exprs[e].left), self.find(self.exprs[e].right)] {
                if !self.groups[c].costed && !missing.contains(&c) {
                    missing.push(c);
                }
            }
        }
        if !missing.is_empty() {
            self.stack.push(Task::OptimizeGroup(g));
            for c in missing {
                self.stack.push(Task::OptimizeGroup(c));
            }
            return;
        }

        // Candidates: insertion order, deduplicated by *unordered* mask
        // pair — `join_io` puts the smaller side on the build side, so a
        // mirrored expression is the same physical join; keeping the
        // first-inserted orientation means chain winners reproduce the
        // seed left-deep orientation bit for bit.
        struct Cand {
            expr: ExprId,
            l: GroupId,
            r: GroupId,
            children: f64,
        }
        let mut seen: HashSet<(u64, u64)> = HashSet::new();
        let mut cands: Vec<Cand> = Vec::new();
        for i in 0..self.groups[g].exprs.len() {
            let e = self.groups[g].exprs[i];
            let l = self.find(self.exprs[e].left);
            let r = self.find(self.exprs[e].right);
            let (Some(lb), Some(rb)) = (self.groups[l].best, self.groups[r].best) else {
                // A child proved infeasible; this candidate can't be built.
                continue;
            };
            let (lm, rm) = (self.groups[l].mask, self.groups[r].mask);
            let key = if lm < rm { (lm, rm) } else { (rm, lm) };
            if !seen.insert(key) {
                continue;
            }
            cands.push(Cand { expr: e, l, r, children: lb.cost + rb.cost });
        }

        let mut costs: Vec<Option<Option<f64>>> = vec![None; cands.len()];
        let mut ios: Vec<JoinIo> = Vec::new();
        let mut pending: Vec<usize> = Vec::new();
        for (i, c) in cands.iter().enumerate() {
            let cached = memo
                .as_deref_mut()
                .and_then(|m| m.get(&self.groups[c.l].rels, &self.groups[c.r].rels));
            match cached {
                Some(outcome) => costs[i] = Some(outcome.map(|(_, d)| d.cost)),
                None => {
                    ios.push(self.join_io(c.l, c.r));
                    pending.push(i);
                }
            }
        }
        if !ios.is_empty() {
            let outcomes = if batch && ios.len() >= 2 {
                coster.join_cost_many(&ios, parallelism)
            } else {
                ios.iter().map(|io| coster.join_cost(io)).collect()
            };
            // A fired budget makes the coster report infeasible; don't let
            // those poisoned "infeasible" verdicts into a memo that
            // outlives this run.
            let poisoned = stop.is_some_and(|s| s());
            for (slot, outcome) in outcomes.into_iter().enumerate() {
                let i = pending[slot];
                if let Some(m) = memo.as_deref_mut() {
                    if outcome.is_some() || !poisoned {
                        // Record both orientations: join_io is
                        // side-symmetric, and extract may canonicalize the
                        // winner to the mirrored orientation — replay after
                        // a budget cut must hit either way.
                        m.record(
                            &self.groups[cands[i].l].rels,
                            &self.groups[cands[i].r].rels,
                            outcome.map(|d| (ios[slot], d)),
                        );
                        m.record(
                            &self.groups[cands[i].r].rels,
                            &self.groups[cands[i].l].rels,
                            outcome.map(|d| (ios[slot], d)),
                        );
                    }
                }
                costs[i] = Some(outcome.map(|d| d.cost));
            }
        }
        let mut best: Option<Best> = None;
        for (c, res) in cands.iter().zip(costs) {
            let Some(Some(join_cost)) = res else { continue };
            let total = c.children + join_cost;
            match best {
                Some(b) if b.cost <= total => {}
                _ => best = Some(Best { cost: total, expr: Some(c.expr) }),
            }
        }
        self.groups[g].best = best;
        self.groups[g].costed = true;
    }

    /// Reconstruct the winning tree from the best-expression chain, in the
    /// stored (first-inserted) orientation. `None` when the group is
    /// uncosted or infeasible.
    fn extract(&self, g: GroupId) -> Option<PlanTree> {
        let g = self.find(g);
        if self.groups[g].mask.count_ones() == 1 {
            return Some(PlanTree::leaf(self.groups[g].rels[0]));
        }
        let best = self.groups[g].best?;
        let e = best.expr?;
        let lg = self.find(self.exprs[e].left);
        let rg = self.find(self.exprs[e].right);
        let l = self.extract(lg)?;
        let r = self.extract(rg)?;
        // Canonical orientation: larger relation set on the left. join_io
        // is side-symmetric (build = min side) so this never changes cost,
        // but it makes linear trees come out shape-left-deep, matching the
        // Selinger convention explain/parity checks rely on.
        if self.groups[lg].mask.count_ones() < self.groups[rg].mask.count_ones() {
            Some(PlanTree::join(r, l))
        } else {
            Some(PlanTree::join(l, r))
        }
    }
}

/// A deterministic connected join order: start at the first relation and
/// greedily append the lowest-indexed relation connected to the prefix
/// (falling back to the lowest-indexed remaining relation for disconnected
/// queries). The seed left-deep chain is built over this order.
fn connected_order(rels: &[TableId], graph: &JoinGraph) -> Vec<TableId> {
    let mut order: Vec<TableId> = Vec::with_capacity(rels.len());
    order.push(rels[0]);
    let mut remaining: Vec<TableId> = rels[1..].to_vec();
    while !remaining.is_empty() {
        let pos = remaining
            .iter()
            .position(|t| graph.connects(&order, std::slice::from_ref(t)))
            .unwrap_or(0);
        order.push(remaining.remove(pos));
    }
    order
}

/// The planner. Stateless — all state lives in the per-run [`Search`].
pub struct CascadesPlanner;

impl CascadesPlanner {
    /// Plan with default wiring: no parallelism, no memo, no telemetry,
    /// no budget probe.
    pub fn plan(
        catalog: &Catalog,
        graph: &JoinGraph,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
        config: &CascadesConfig,
    ) -> Result<CascadesOutcome, CascadesError> {
        Self::plan_traced(
            catalog,
            graph,
            query,
            coster,
            Parallelism::Off,
            None,
            &Telemetry::disabled(),
            config,
            None,
        )
    }

    /// Full-wiring entry point: thread parallelism for batched costing,
    /// an optional cross-run [`CostMemo`], telemetry (`cascades.task.*`
    /// spans, group/expression/task counters, a `cascades.final_cost`
    /// span around the winner's re-cost), and a `stop` probe polled at
    /// every task pop for budget/deadline cut-off.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_traced(
        catalog: &Catalog,
        graph: &JoinGraph,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
        parallelism: Parallelism,
        memo: Option<&mut CostMemo>,
        tel: &Telemetry,
        config: &CascadesConfig,
        stop: Option<&dyn Fn() -> bool>,
    ) -> Result<CascadesOutcome, CascadesError> {
        let mut rels: Vec<TableId> = query.relations.clone();
        rels.sort_unstable();
        rels.dedup();
        let n = rels.len();
        let max = config.max_relations.min(CASCADES_MAX_RELATIONS);
        if n == 0 {
            return Err(CascadesError::Infeasible);
        }
        if n > max {
            return Err(CascadesError::TooManyRelations { n, max });
        }
        // A scratch per-run memo when the caller brought none: every costed
        // candidate is recorded, so a mid-search budget cut can
        // re-materialize the winning tree from recorded decisions without
        // touching the (by then exhausted) coster. Replay-only within one
        // run — each candidate pair is costed at most once either way.
        let mut scratch = CostMemo::default();
        let mut memo = Some(match memo {
            Some(m) => m,
            None => &mut scratch,
        });
        if let Some(m) = memo.as_deref_mut() {
            m.ensure_relations(&rels);
        }
        let est = CardinalityEstimator::new(catalog, graph);
        if n == 1 {
            let leaf = PlanTree::leaf(rels[0]);
            let planned = match memo.as_deref_mut() {
                Some(m) => cost_tree_memo_traced(&leaf, &est, coster, m, tel),
                None => cost_tree_traced(&leaf, &est, coster, tel),
            }
            .ok_or(CascadesError::Infeasible)?;
            return Ok(CascadesOutcome {
                planned,
                cut_short: false,
                groups: 1,
                expressions: 0,
                tasks: 0,
            });
        }

        let batch = (parallelism != Parallelism::Off && parallelism.workers() > 1)
            || coster.prefers_batch();
        let cap = config.cross_rows_cap;

        let mut search = Search::new(&rels, &est);
        let order = connected_order(&rels, graph);
        // Seed: a left-deep chain over the connected order. Seeds bypass
        // the cross-product cap, so a complete plan for the root group
        // always exists whatever the cap rejects.
        let bit = |t: TableId| 1u64 << rels.binary_search(&t).unwrap();
        let mut prev = search.ensure_group(bit(order[0]));
        for &t in &order[1..] {
            let leaf = search.ensure_group(bit(t));
            let g_mask = search.groups[prev].mask | search.groups[leaf].mask;
            let g = search.ensure_group(g_mask);
            search.insert_expr(g, prev, leaf, true, graph, cap);
            prev = g;
        }
        let root = prev;
        // Warm the memo with the seed chain's joins before any search
        // work. The total coster work is unchanged (each candidate pair is
        // costed at most once per run either way), but a budget cut at any
        // later task pop can then always re-materialize at least the seed
        // left-deep plan from recorded decisions — anytime behaviour.
        if let Some(m) = memo.as_deref_mut() {
            let mut prefix: Vec<TableId> = vec![order[0]];
            for &t in &order[1..] {
                let next = std::slice::from_ref(&t);
                if m.get(&prefix, next).is_none() {
                    let io = est.join_io(&prefix, next);
                    let outcome = coster.join_cost(&io).map(|d| (io, d));
                    let feasible = outcome.is_some();
                    if feasible || !stop.is_some_and(|s| s()) {
                        m.record(&prefix, next, outcome);
                    }
                    if !feasible {
                        break;
                    }
                }
                prefix.push(t);
                prefix.sort_unstable();
            }
        }
        // The root's optimize task must sit at the *bottom* of the stack:
        // its re-entries then always re-queue below the exploration tasks,
        // so every group quiesces (no expression can arrive after costing)
        // before any candidate is costed.
        search.stack.insert(0, Task::OptimizeGroup(root));

        let mut cut = false;
        while let Some(task) = search.stack.pop() {
            if stop.is_some_and(|s| s()) {
                cut = true;
                break;
            }
            search.tasks += 1;
            match task {
                Task::OptimizeGroup(g) => {
                    let _span = tel.span("cascades.task.optimize_group");
                    search.optimize_group(
                        g,
                        coster,
                        parallelism,
                        batch,
                        memo.as_deref_mut(),
                        stop,
                    );
                }
                Task::ExploreGroup(g) => {
                    let _span = tel.span("cascades.task.explore_group");
                    search.explore_group(g);
                }
                Task::ApplyRule { expr, rule } => {
                    let _span = tel.span("cascades.task.apply_rule");
                    match rule {
                        Rule::Commute => search.apply_commute(expr, graph, cap),
                        Rule::AssocLeft => search.apply_assoc(expr, graph, cap),
                    }
                }
            }
        }

        tel.add(Counter::CascadesGroups, search.groups.len() as u64);
        tel.add(Counter::CascadesExpressions, search.exprs.len() as u64);
        tel.add(Counter::CascadesTasks, search.tasks);

        let tree = match search.extract(root) {
            Some(t) => t,
            // The budget fired before the root was costed: fall back to
            // the seed left-deep tree so the caller still gets a complete,
            // annotated plan for the degradation ladder to report.
            None if cut => PlanTree::left_deep(&order),
            None => return Err(CascadesError::Infeasible),
        };
        let _final_span = tel.span("cascades.final_cost");
        let planned = match memo.as_deref_mut() {
            Some(m) => cost_tree_memo_traced(&tree, &est, coster, m, tel),
            None => cost_tree_traced(&tree, &est, coster, tel),
        }
        .ok_or(CascadesError::Infeasible)?;
        Ok(CascadesOutcome {
            planned,
            cut_short: cut,
            groups: search.groups.len(),
            expressions: search.exprs.len(),
            tasks: search.tasks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coster::{cost_tree, FixedResourceCoster};
    use crate::selinger::SelingerPlanner;
    use raqo_catalog::{Catalog, QuerySpec, RandomSchema, TableStats};
    use raqo_cost::SimOracleCost;
    use std::cell::Cell;

    fn fixed(model: &SimOracleCost) -> FixedResourceCoster<'_, SimOracleCost> {
        FixedResourceCoster::new(model, 40.0, 8.0)
    }

    /// Exhaustive optimum over *every* binary partition (cross products
    /// included) — the ground truth the memo search must reach when the
    /// cross cap is lifted.
    fn brute_force(
        rels: &[TableId],
        est: &CardinalityEstimator<'_>,
        coster: &mut dyn PlanCoster,
    ) -> Option<f64> {
        fn best(
            set: &[TableId],
            est: &CardinalityEstimator<'_>,
            coster: &mut dyn PlanCoster,
            memo: &mut HashMap<Vec<TableId>, Option<f64>>,
        ) -> Option<f64> {
            if set.len() == 1 {
                return Some(0.0);
            }
            if let Some(&cached) = memo.get(set) {
                return cached;
            }
            let mut out: Option<f64> = None;
            // Enumerate proper subsets containing set[0] (fixes one side,
            // halving the work and skipping the mirrored duplicates).
            let n = set.len();
            for pick in 0..(1u32 << (n - 1)) {
                let mut l = vec![set[0]];
                let mut r = Vec::new();
                for (i, &t) in set[1..].iter().enumerate() {
                    if pick >> i & 1 == 1 {
                        l.push(t);
                    } else {
                        r.push(t);
                    }
                }
                if r.is_empty() {
                    continue;
                }
                let (Some(lc), Some(rc)) = (
                    best(&l, est, coster, memo),
                    best(&r, est, coster, memo),
                ) else {
                    continue;
                };
                let Some(d) = coster.join_cost(&est.join_io(&l, &r)) else { continue };
                let total = lc + rc + d.cost;
                if out.is_none_or(|o| total < o) {
                    out = Some(total);
                }
            }
            memo.insert(set.to_vec(), out);
            out
        }
        let mut memo = HashMap::new();
        best(rels, est, coster, &mut memo)
    }

    #[test]
    fn chain_cost_matches_selinger_exactly() {
        for seed in [1u64, 7, 21, 42, 99] {
            for n in 2..=10 {
                let s = RandomSchema::chain(n, seed);
                let model = SimOracleCost::hive();
                let q = QuerySpec::new("q", s.catalog.table_ids().collect());
                let selinger = SelingerPlanner::plan(
                    &s.catalog,
                    &s.graph,
                    &q,
                    &mut fixed(&model),
                )
                .unwrap();
                let cascades = CascadesPlanner::plan(
                    &s.catalog,
                    &s.graph,
                    &q,
                    &mut fixed(&model),
                    &CascadesConfig::default(),
                )
                .unwrap();
                // Bushy trees can beat the best left-deep plan even on
                // chains (e.g. (a⋈b)⋈(c⋈d) halves the build side), so the
                // memo search is only required to be *exactly* equal when
                // its optimum is itself left-deep — which is guaranteed for
                // n ≤ 3, where no bushy shape exists.
                if cascades.planned.tree.is_left_deep() {
                    assert_eq!(
                        cascades.planned.cost, selinger.cost,
                        "chain n={n} seed={seed}: left-deep cascades optimum \
                         must equal selinger exactly"
                    );
                } else {
                    assert!(
                        cascades.planned.cost < selinger.cost,
                        "chain n={n} seed={seed}: a bushy cascades plan must \
                         only be kept when strictly cheaper ({} vs {})",
                        cascades.planned.cost,
                        selinger.cost
                    );
                }
                if n <= 3 {
                    assert!(
                        cascades.planned.tree.is_left_deep(),
                        "chain n={n} seed={seed}: no bushy shape exists below 4 relations"
                    );
                }
            }
        }
    }

    #[test]
    fn small_queries_match_brute_force_optimum() {
        // With the cross cap lifted the memo must find the global bushy
        // optimum over all partitions, cross products included.
        let config = CascadesConfig { cross_rows_cap: f64::INFINITY, ..Default::default() };
        let model = SimOracleCost::hive();
        for seed in [3u64, 11] {
            for n in 2..=5 {
                for schema in [
                    RandomSchema::chain(n, seed),
                    RandomSchema::star(n, seed),
                    RandomSchema::clique(n, seed),
                ] {
                    let q = QuerySpec::new("q", schema.catalog.table_ids().collect());
                    let est = CardinalityEstimator::new(&schema.catalog, &schema.graph);
                    let want = brute_force(&q.relations, &est, &mut fixed(&model)).unwrap();
                    let got = CascadesPlanner::plan(
                        &schema.catalog,
                        &schema.graph,
                        &q,
                        &mut fixed(&model),
                        &config,
                    )
                    .unwrap();
                    assert!(
                        (got.planned.cost - want).abs() <= 1e-9 * want.max(1.0),
                        "n={n} seed={seed}: cascades {} != brute force {want}",
                        got.planned.cost
                    );
                }
            }
        }
    }

    #[test]
    fn never_worse_than_selinger_on_star_and_clique() {
        let model = SimOracleCost::hive();
        for seed in [1u64, 5, 13] {
            for n in 3..=7 {
                for schema in
                    [RandomSchema::star(n, seed), RandomSchema::clique(n, seed)]
                {
                    let q = QuerySpec::new("q", schema.catalog.table_ids().collect());
                    let selinger = SelingerPlanner::plan(
                        &schema.catalog,
                        &schema.graph,
                        &q,
                        &mut fixed(&model),
                    )
                    .unwrap();
                    let cascades = CascadesPlanner::plan(
                        &schema.catalog,
                        &schema.graph,
                        &q,
                        &mut fixed(&model),
                        &CascadesConfig::default(),
                    )
                    .unwrap();
                    assert!(
                        cascades.planned.cost <= selinger.cost * (1.0 + 1e-12),
                        "n={n} seed={seed}: cascades {} worse than selinger {}",
                        cascades.planned.cost,
                        selinger.cost
                    );
                }
            }
        }
    }

    /// The crafted star catalog of the smoke gate: a wide fact table and
    /// small dimensions, where probing the fact with dim×dim cross
    /// products halves the number of fact-sized joins.
    pub(crate) fn fact_dim_star(dims: usize) -> (Catalog, JoinGraph) {
        let mut catalog = Catalog::new();
        let fact = catalog.add_stats_only("fact", TableStats::new(2_000_000.0, 400.0));
        let mut graph = JoinGraph::new();
        for i in 0..dims {
            let rows = 200.0 + 100.0 * i as f64;
            let d = catalog.add_stats_only(format!("dim{i}"), TableStats::new(rows, 60.0));
            graph.add_edge(fact, d, 1.0 / rows);
        }
        (catalog, graph)
    }

    #[test]
    fn bushy_beats_left_deep_on_fact_dim_star() {
        let (catalog, graph) = fact_dim_star(8);
        let model = SimOracleCost::hive();
        let q = QuerySpec::new("q", catalog.table_ids().collect());
        let selinger =
            SelingerPlanner::plan(&catalog, &graph, &q, &mut fixed(&model)).unwrap();
        let cascades = CascadesPlanner::plan(
            &catalog,
            &graph,
            &q,
            &mut fixed(&model),
            &CascadesConfig::default(),
        )
        .unwrap();
        assert!(
            cascades.planned.cost < selinger.cost,
            "bushy {} must beat left-deep {}",
            cascades.planned.cost,
            selinger.cost
        );
        assert!(
            !cascades.planned.tree.is_left_deep(),
            "winning plan should be bushy: {:?}",
            cascades.planned.tree
        );
    }

    #[test]
    fn chain_groups_stay_polynomial() {
        // Chains admit no cross products under the default cap, so groups
        // are exactly the contiguous intervals: at most n(n+1)/2 of them.
        for seed in [2u64, 17] {
            for n in 3..=10 {
                let s = RandomSchema::chain(n, seed);
                let model = SimOracleCost::hive();
                let q = QuerySpec::new("q", s.catalog.table_ids().collect());
                let out = CascadesPlanner::plan(
                    &s.catalog,
                    &s.graph,
                    &q,
                    &mut fixed(&model),
                    &CascadesConfig::default(),
                )
                .unwrap();
                let bound = n * (n + 1) / 2;
                assert!(
                    out.groups <= bound,
                    "chain n={n} seed={seed}: {} groups > interval bound {bound}",
                    out.groups
                );
                // Each interval splits in ≤ 2(L-1) oriented ways → O(n³).
                assert!(
                    out.expressions <= n * n * n,
                    "chain n={n}: {} expressions not polynomial",
                    out.expressions
                );
            }
        }
    }

    #[test]
    fn stop_probe_cuts_search_short_with_seed_plan() {
        let s = RandomSchema::chain(8, 4);
        let model = SimOracleCost::hive();
        let q = QuerySpec::new("q", s.catalog.table_ids().collect());
        let fired = Cell::new(false);
        let stop = move || {
            fired.set(true);
            true
        };
        let out = CascadesPlanner::plan_traced(
            &s.catalog,
            &s.graph,
            &q,
            &mut fixed(&model),
            Parallelism::Off,
            None,
            &Telemetry::disabled(),
            &CascadesConfig::default(),
            Some(&stop),
        )
        .unwrap();
        assert!(out.cut_short);
        assert_eq!(out.tasks, 0, "stop fired before the first task");
        // The fallback is still a complete, costed plan.
        assert_eq!(out.planned.joins.len(), 7);
        assert!(out.planned.cost > 0.0);
        assert!(out.planned.tree.is_left_deep());
    }

    #[test]
    fn memoized_run_matches_unmemoized_and_hits_on_rerun() {
        let (catalog, graph) = fact_dim_star(6);
        let model = SimOracleCost::hive();
        let q = QuerySpec::new("q", catalog.table_ids().collect());
        let plain = CascadesPlanner::plan(
            &catalog,
            &graph,
            &q,
            &mut fixed(&model),
            &CascadesConfig::default(),
        )
        .unwrap();
        let mut memo = CostMemo::new(&q.relations);
        let run = |memo: &mut CostMemo| {
            CascadesPlanner::plan_traced(
                &catalog,
                &graph,
                &q,
                &mut fixed(&model),
                Parallelism::Off,
                Some(memo),
                &Telemetry::disabled(),
                &CascadesConfig { memoize: true, ..Default::default() },
                None,
            )
            .unwrap()
        };
        let first = run(&mut memo);
        assert_eq!(first.planned.cost, plain.planned.cost);
        let hits_after_first = memo.hits();
        let second = run(&mut memo);
        assert_eq!(second.planned, first.planned);
        assert!(
            memo.hits() > hits_after_first,
            "second run must replay memoized decisions"
        );
    }

    #[test]
    fn batched_costing_matches_sequential() {
        let (catalog, graph) = fact_dim_star(7);
        let model = SimOracleCost::hive();
        let q = QuerySpec::new("q", catalog.table_ids().collect());
        let sequential = CascadesPlanner::plan(
            &catalog,
            &graph,
            &q,
            &mut fixed(&model),
            &CascadesConfig::default(),
        )
        .unwrap();
        let batched = CascadesPlanner::plan_traced(
            &catalog,
            &graph,
            &q,
            &mut fixed(&model),
            Parallelism::Threads(4),
            None,
            &Telemetry::disabled(),
            &CascadesConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(batched.planned, sequential.planned);
    }

    #[test]
    fn too_many_relations_reports_bound() {
        let s = RandomSchema::chain(14, 1);
        let model = SimOracleCost::hive();
        let q = QuerySpec::new("q", s.catalog.table_ids().collect());
        let err = CascadesPlanner::plan(
            &s.catalog,
            &s.graph,
            &q,
            &mut fixed(&model),
            &CascadesConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, CascadesError::TooManyRelations { n: 14, max: 12 });
    }

    #[test]
    fn single_relation_plans_as_leaf() {
        let s = RandomSchema::chain(3, 1);
        let model = SimOracleCost::hive();
        let q = QuerySpec::new("one", vec![s.catalog.table_ids().nth(1).unwrap()]);
        let out = CascadesPlanner::plan(
            &s.catalog,
            &s.graph,
            &q,
            &mut fixed(&model),
            &CascadesConfig::default(),
        )
        .unwrap();
        assert_eq!(out.planned.cost, 0.0);
        assert!(out.planned.joins.is_empty());
    }

    #[test]
    fn extracted_tree_recosts_to_reported_cost() {
        let (catalog, graph) = fact_dim_star(8);
        let model = SimOracleCost::hive();
        let q = QuerySpec::new("q", catalog.table_ids().collect());
        let out = CascadesPlanner::plan(
            &catalog,
            &graph,
            &q,
            &mut fixed(&model),
            &CascadesConfig::default(),
        )
        .unwrap();
        let est = CardinalityEstimator::new(&catalog, &graph);
        let recosted = cost_tree(&out.planned.tree, &est, &mut fixed(&model)).unwrap();
        assert_eq!(recosted.cost, out.planned.cost);
    }

    #[test]
    fn disjoint_set_merge_moves_expressions_and_keeps_dedup() {
        let s = RandomSchema::chain(3, 1);
        let rels: Vec<TableId> = s.catalog.table_ids().collect();
        let est = CardinalityEstimator::new(&s.catalog, &s.graph);
        let mut search = Search::new(&rels, &est);
        let a = search.ensure_group(0b001);
        let b = search.ensure_group(0b010);
        let c = search.ensure_group(0b100);
        // Two groups for the same {a,b,c} set, built independently (the
        // merge scenario mask-keying normally prevents).
        let g1 = search.create_group(0b111);
        let ab = search.ensure_group(0b011);
        search.insert_expr(ab, a, b, true, &s.graph, f64::INFINITY);
        search.insert_expr(g1, ab, c, true, &s.graph, f64::INFINITY);
        let g2 = search.groups.len();
        search.groups.push(Group {
            mask: 0b111,
            rels: search.group_rels(0b111),
            gb: search.groups[g1].gb,
            exprs: Vec::new(),
            expr_set: HashSet::new(),
            parents_left: Vec::new(),
            explored: false,
            costed: false,
            best: None,
        });
        search.parent.push(g2);
        let bc = search.ensure_group(0b110);
        search.insert_expr(bc, b, c, true, &s.graph, f64::INFINITY);
        search.insert_expr(g2, a, bc, true, &s.graph, f64::INFINITY);
        // Duplicate of g1's expression, to prove merge dedups.
        search.insert_expr(g2, ab, c, true, &s.graph, f64::INFINITY);

        let win = search.merge(g1, g2);
        assert_eq!(search.find(g1), win);
        assert_eq!(search.find(g2), win);
        let merged = &search.groups[win];
        // (ab,c), (a,bc), and the duplicate (ab,c) collapses: the merged
        // expr list holds one entry per *pair* plus the moved duplicate,
        // but the pair-dedup set has exactly two pairs.
        assert_eq!(merged.expr_set.len(), 2);
        assert!(merged.exprs.len() >= 2);
        // Expressions moved to the winner resolve their group through find.
        for &e in &merged.exprs {
            assert_eq!(search.find(search.exprs[e].group), win);
        }
    }
}
