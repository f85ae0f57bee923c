//! Iterative dynamic programming (IDP) for queries past the exhaustive-DP
//! bound.
//!
//! Exhaustive Selinger DP is exponential in the relation count, so it stops
//! at [`MAX_RELATIONS`] = 20. Above that, falling straight to the randomized
//! planner throws away the DP guarantee entirely — a plan-quality cliff,
//! not a capacity limit. IDP-1 in its *standard-best-plan* variant
//! (Kossmann & Stocker, TODS 2000) bridges the gap: repeatedly run
//! exhaustive DP over a bounded block of the k cheapest unmerged subplans,
//! collapse the winning block plan into one compound relation, and iterate
//! until a single tree remains. Each round is a full Selinger DP over the
//! block's items, so every candidate sub-plan is costed through the same
//! [`PlanCoster`] — RAQO's embedded resource planning, budget charging and
//! level batches through [`PlanCoster::join_cost_many`] all compose
//! unchanged.
//!
//! Complexity: with block size k, each round runs one O(2ᵏ·k) DP and
//! removes k−1 units, so an n-relation query takes ⌈(n−1)/(k−1)⌉ rounds —
//! polynomial in n for fixed k. Block selection is minimum-estimated-size
//! over *connected* units: anchor on the unit with the smallest estimated
//! result, grow by the smallest unit joined to the block through the query
//! graph. Small results merged first keep every compound's output — which
//! all later rounds must carry — as cheap as possible, and connectivity
//! keeps block DPs on real join edges rather than cross products; when
//! nothing connected remains it falls back to the smallest remaining unit.

use crate::cardinality::CardinalityEstimator;
use crate::coster::{cost_tree, PlanCoster, PlannedQuery};
use crate::plan::PlanTree;
use crate::selinger::{DpItem, SelingerError, SelingerPlanner, MAX_RELATIONS};
use raqo_catalog::{Catalog, JoinGraph, QuerySpec};
use raqo_telemetry::{Counter, Telemetry};

/// Default IDP block size: each round's DP spans at most this many units.
/// 2¹⁰ subsets per round keeps rounds sub-millisecond while the block is
/// large enough that most real join cliques fit in one round.
pub const DEFAULT_BLOCK_SIZE: usize = 10;

/// Tuning knobs for [`IdpPlanner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IdpConfig {
    /// Units per DP block (clamped to `2..=`[`MAX_RELATIONS`]). Larger
    /// blocks approach exhaustive-DP quality at exponentially growing
    /// per-round cost; `block_size >= n` *is* exhaustive DP.
    pub block_size: usize,
}

impl Default for IdpConfig {
    fn default() -> Self {
        IdpConfig { block_size: DEFAULT_BLOCK_SIZE }
    }
}

/// One IDP unit: a standing sub-plan plus its estimated result size, used
/// to pick the next block (smallest-first).
struct Unit {
    item: DpItem,
    size_gb: f64,
}

/// The IDP-1 (standard-best-plan) join-order planner. No relation bound:
/// only each *block* needs to fit the DP's bound.
pub struct IdpPlanner;

impl IdpPlanner {
    /// Plan `query` with iterative DP, untraced.
    pub fn plan(
        catalog: &Catalog,
        graph: &JoinGraph,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
        config: IdpConfig,
    ) -> Result<PlannedQuery, SelingerError> {
        Self::plan_traced(catalog, graph, query, coster, &Telemetry::disabled(), config)
    }

    /// [`IdpPlanner::plan`] traced: the run is traced as `planner.idp` with
    /// one `idp.round.<i>` span per collapse round.
    pub fn plan_traced(
        catalog: &Catalog,
        graph: &JoinGraph,
        query: &QuerySpec,
        coster: &mut dyn PlanCoster,
        tel: &Telemetry,
        config: IdpConfig,
    ) -> Result<PlannedQuery, SelingerError> {
        let rels = &query.relations;
        let n = rels.len();
        if n == 0 {
            return Err(SelingerError::Infeasible);
        }
        let est = CardinalityEstimator::new(catalog, graph);
        if n == 1 {
            return cost_tree(&PlanTree::leaf(rels[0]), &est, coster, tel)
                .ok_or(SelingerError::Infeasible);
        }

        let _idp_span = tel.span("planner.idp");
        // Block size 1 would never shrink the forest; blocks past the DP's
        // bound cannot be DP'd at all.
        let block = config.block_size.clamp(2, MAX_RELATIONS);

        // Every base relation starts as its own unit, ranked by table size
        // (the estimator's set size of a singleton is exactly the table).
        let mut units: Vec<Unit> = rels
            .iter()
            .map(|&t| Unit { item: DpItem::leaf(t), size_gb: est.set_gb(&[t]) })
            .collect();

        let mut round = 0usize;
        while units.len() > block {
            let _round_span = tel.span_labeled("idp.round", round);
            tel.inc(Counter::IdpRounds);
            round += 1;

            let picked = Self::pick_block(&units, graph, &est, block);
            let block_items: Vec<DpItem> =
                picked.iter().map(|&i| units[i].item.clone()).collect();
            // A block with no feasible plan (the coster rejected every
            // order — e.g. the planning budget ran out mid-round) fails
            // the whole query; the optimizer's degradation ladder takes
            // over from there.
            let planned = SelingerPlanner::plan_items(&block_items, &est, coster, tel)
                .ok_or(SelingerError::Infeasible)?;

            // Collapse the winning block plan into one compound unit,
            // ranked like every other unit by its estimated result size.
            let compound = DpItem { rels: planned.tree.relations(), tree: planned.tree };
            let size_gb = est.set_gb(&compound.rels);
            // Indices descending so removals don't shift later ones.
            for &i in picked.iter().rev() {
                units.swap_remove(i);
            }
            units.push(Unit { item: compound, size_gb });
        }

        // Final round: one DP over everything that remains.
        let _round_span = tel.span_labeled("idp.round", round);
        tel.inc(Counter::IdpRounds);
        let items: Vec<DpItem> = units.into_iter().map(|u| u.item).collect();
        SelingerPlanner::plan_items(&items, &est, coster, tel).ok_or(SelingerError::Infeasible)
    }

    /// Pick the indices of the next DP block: anchor on the unit with the
    /// smallest estimated result, then repeatedly add the connected unit
    /// whose merge keeps the block's estimated result smallest (greedy
    /// minimum size, the GOO heuristic; smallest remaining unit when
    /// nothing connects). Small blocks first keep the compound every later
    /// round must re-read cheap. Ties break on the lower index, so
    /// planning is deterministic.
    fn pick_block(
        units: &[Unit],
        graph: &JoinGraph,
        est: &CardinalityEstimator,
        block: usize,
    ) -> Vec<usize> {
        debug_assert!(units.len() > block && block >= 2);
        // Total order: NaN sizes never arise (estimates are products of
        // finite stats), index breaks exact ties.
        let smallest_unit = |best: usize, i: usize| {
            if (units[i].size_gb, i) < (units[best].size_gb, best) {
                i
            } else {
                best
            }
        };
        let anchor = (0..units.len())
            .reduce(smallest_unit)
            .expect("units is non-empty");

        let mut picked = vec![anchor];
        let mut block_rels = units[anchor].item.rels.clone();
        let mut remaining: Vec<usize> = (0..units.len()).filter(|&i| i != anchor).collect();
        while picked.len() < block {
            let merged_gb = |i: usize| {
                let mut all = block_rels.clone();
                all.extend_from_slice(&units[i].item.rels);
                est.set_gb(&all)
            };
            let connected = remaining
                .iter()
                .copied()
                .filter(|&i| graph.connects(&block_rels, &units[i].item.rels))
                .reduce(|best, i| if (merged_gb(i), i) < (merged_gb(best), best) { i } else { best });
            let next = match connected {
                Some(i) => i,
                // Nothing joins the block: take the smallest remaining and
                // let the block DP's cross-product fallback handle it.
                None => remaining
                    .iter()
                    .copied()
                    .reduce(smallest_unit)
                    .expect("picked.len() < block < units.len()"),
            };
            remaining.retain(|&i| i != next);
            block_rels.extend_from_slice(&units[next].item.rels);
            picked.push(next);
        }
        // Descending-index removal order is relied on by the caller.
        picked.sort_unstable();
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::JoinIo;
    use crate::coster::{FixedResourceCoster, JoinDecision};
    use crate::plan::covers_exactly;
    use raqo_catalog::tpch::TpchSchema;
    use raqo_catalog::RandomSchemaConfig;
    use raqo_cost::SimOracleCost;
    use raqo_resource::Parallelism;

    #[test]
    fn block_at_least_n_is_exactly_exhaustive_dp() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        for query in [QuerySpec::tpch_q3(), QuerySpec::tpch_all(&schema)] {
            let mut dp_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
            let dp =
                SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut dp_coster)
                    .unwrap();
            let mut idp_coster = FixedResourceCoster::new(&model, 10.0, 6.0);
            let idp = IdpPlanner::plan(
                &schema.catalog,
                &schema.graph,
                &query,
                &mut idp_coster,
                IdpConfig::default(),
            )
            .unwrap();
            assert_eq!(dp.tree, idp.tree, "{}", query.name);
            assert_eq!(dp.cost.to_bits(), idp.cost.to_bits(), "{}", query.name);
            assert_eq!(dp.joins, idp.joins, "{}", query.name);
        }
    }

    #[test]
    fn small_blocks_still_cover_the_query() {
        let schema = TpchSchema::new(1.0);
        let model = SimOracleCost::hive();
        let query = QuerySpec::tpch_all(&schema);
        for block_size in [2, 3, 5] {
            let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
            let planned = IdpPlanner::plan(
                &schema.catalog,
                &schema.graph,
                &query,
                &mut coster,
                IdpConfig { block_size },
            )
            .unwrap_or_else(|e| panic!("block {block_size}: {e}"));
            assert!(covers_exactly(&planned.tree, &query.relations), "block {block_size}");
            assert_eq!(planned.joins.len(), query.relations.len() - 1);
            assert!(planned.cost.is_finite() && planned.cost > 0.0);
        }
    }

    #[test]
    fn bridges_past_the_exhaustive_dp_bound() {
        let model = SimOracleCost::hive();
        let schema = RandomSchemaConfig::with_tables(30, 9).generate();
        for k in [21, 24, 28] {
            let query =
                QuerySpec::random_connected(&schema.catalog, &schema.graph, k, k as u64);
            let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
            let planned = IdpPlanner::plan(
                &schema.catalog,
                &schema.graph,
                &query,
                &mut coster,
                IdpConfig::default(),
            )
            .unwrap_or_else(|e| panic!("k={k}: {e}"));
            assert!(covers_exactly(&planned.tree, &query.relations), "k={k}");
            assert_eq!(planned.joins.len(), k - 1, "k={k}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let model = SimOracleCost::hive();
        let schema = RandomSchemaConfig::with_tables(26, 4).generate();
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 24, 7);
        let mut c1 = FixedResourceCoster::new(&model, 10.0, 6.0);
        let mut c2 = FixedResourceCoster::new(&model, 10.0, 6.0);
        let cfg = IdpConfig::default();
        let p1 = IdpPlanner::plan(&schema.catalog, &schema.graph, &query, &mut c1, cfg).unwrap();
        let p2 = IdpPlanner::plan(&schema.catalog, &schema.graph, &query, &mut c2, cfg).unwrap();
        assert_eq!(p1.tree, p2.tree);
        assert_eq!(p1.cost.to_bits(), p2.cost.to_bits());
    }

    #[test]
    fn infeasible_when_every_join_is_rejected() {
        struct Never;
        impl PlanCoster for Never {
            fn join_cost(&mut self, _io: &JoinIo) -> Option<JoinDecision> {
                None
            }
        }
        let schema = TpchSchema::new(1.0);
        let query = QuerySpec::tpch_q3();
        assert_eq!(
            IdpPlanner::plan(
                &schema.catalog,
                &schema.graph,
                &query,
                &mut Never,
                IdpConfig::default()
            ),
            Err(SelingerError::Infeasible)
        );
    }

    #[test]
    fn batch_preferring_coster_gets_wide_level_batches_and_identical_plans() {
        /// A coster recording the width of every batch it receives — the
        /// planner-side contract the RAQO coster's batched kernel relies on.
        struct BatchWidths<'a> {
            inner: FixedResourceCoster<'a, SimOracleCost>,
            batches: Vec<usize>,
        }
        impl PlanCoster for BatchWidths<'_> {
            fn join_cost(&mut self, io: &JoinIo) -> Option<JoinDecision> {
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

        // A 24-relation bridged query: every block DP
        // level arrives through `join_cost_many`, with bit-identical plans
        // and the same total `getPlanCost` call count as a coster that
        // costs each batch through the trait's default.
        let model = SimOracleCost::hive();
        let schema = RandomSchemaConfig::with_tables(26, 4).generate();
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 24, 7);
        let mut seq = FixedResourceCoster::new(&model, 10.0, 6.0);
        let sequential =
            IdpPlanner::plan(&schema.catalog, &schema.graph, &query, &mut seq, IdpConfig::default())
                .unwrap();
        let mut bp = BatchWidths {
            inner: FixedResourceCoster::new(&model, 10.0, 6.0),
            batches: Vec::new(),
        };
        let batched =
            IdpPlanner::plan(&schema.catalog, &schema.graph, &query, &mut bp, IdpConfig::default())
                .unwrap();
        assert_eq!(sequential.tree, batched.tree);
        assert_eq!(sequential.cost.to_bits(), batched.cost.to_bits());
        assert_eq!(sequential.joins, batched.joins);
        assert_eq!(seq.calls, bp.inner.calls, "same candidates costed either way");
        assert!(!bp.batches.is_empty(), "block DP levels must arrive via join_cost_many");
        let widest = bp.batches.iter().copied().max().unwrap();
        assert!(widest > 4, "level batches should be wide, got widths {:?}", bp.batches);
    }

    /// Blocks past the Selinger DP's bound clamp to it: asking for one
    /// 64-unit block plans a 24-relation query exactly as a 20-unit one.
    #[test]
    fn idp_block_sizes_past_the_dp_bound_clamp_to_it() {
        let model = SimOracleCost::hive();
        let schema = RandomSchemaConfig::with_tables(26, 4).generate();
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 24, 7);
        let plan = |block_size| {
            let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
            let config = IdpConfig { block_size };
            let planned =
                IdpPlanner::plan(&schema.catalog, &schema.graph, &query, &mut coster, config);
            (planned.unwrap(), coster.calls)
        };
        let (wide, wide_calls) = plan(64);
        let (bound, bound_calls) = plan(MAX_RELATIONS);
        assert_eq!(wide.tree, bound.tree);
        assert_eq!(wide.cost.to_bits(), bound.cost.to_bits());
        assert_eq!(wide.joins, bound.joins);
        assert_eq!(wide_calls, bound_calls);
    }

    #[test]
    fn rounds_are_counted() {
        let model = SimOracleCost::hive();
        let schema = RandomSchemaConfig::with_tables(26, 4).generate();
        let query = QuerySpec::random_connected(&schema.catalog, &schema.graph, 24, 7);
        let tel = Telemetry::enabled();
        let mut coster = FixedResourceCoster::new(&model, 10.0, 6.0);
        IdpPlanner::plan_traced(
            &schema.catalog,
            &schema.graph,
            &query,
            &mut coster,
            &tel,
            IdpConfig::default(),
        )
        .unwrap();
        // 24 units at block 10: 24 → 15 → 6 → final = 3 rounds minimum.
        assert!(tel.registry().unwrap().get(Counter::IdpRounds) >= 3);
    }
}
