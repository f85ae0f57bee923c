//! System-R cardinality and size estimation over the join graph.
//!
//! The set statistics are *defined* by their accumulation order, because
//! float addition is not associative: `ln |T|` of every table in slice
//! order, then `ln selectivity` of every edge with both endpoints in the
//! set in graph order, then one `exp`
//! ([`JoinGraph::join_cardinality`] is the reference). The estimator
//! reproduces that fold bit for bit from logarithms taken once per plan and
//! a [`TableSet`] built from the slices, so a candidate costs a handful of
//! adds and bit tests and no allocation.

use raqo_catalog::{Catalog, JoinGraph, TableId, TableSet, GB};
use serde::{Deserialize, Serialize};

/// The data characteristics of one join: what the cost models consume.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JoinIo {
    /// Smaller input, GB (the "ss" of §VI-A; the build/broadcast side).
    pub build_gb: f64,
    /// Larger input, GB.
    pub probe_gb: f64,
    /// Estimated output, GB.
    pub out_gb: f64,
    /// Estimated output rows.
    pub out_rows: f64,
}

/// Estimates sub-result sizes for arbitrary relation sets.
pub struct CardinalityEstimator<'a> {
    pub catalog: &'a Catalog,
    pub graph: &'a JoinGraph,
    /// `ln(max(rows, MIN_POSITIVE))` per table, by [`TableId::index`].
    ln_rows: Vec<f64>,
    /// Row width per table, by [`TableId::index`].
    row_width: Vec<f64>,
    /// `(a, b, ln selectivity)` per join edge, in graph order.
    edges: Vec<(TableId, TableId, f64)>,
}

impl<'a> CardinalityEstimator<'a> {
    pub fn new(catalog: &'a Catalog, graph: &'a JoinGraph) -> Self {
        let stats = || catalog.tables().iter().map(|t| t.stats);
        CardinalityEstimator {
            catalog,
            graph,
            ln_rows: stats().map(|s| s.rows.max(f64::MIN_POSITIVE).ln()).collect(),
            row_width: stats().map(|s| s.row_width).collect(),
            edges: graph.edges().iter().map(|e| (e.a, e.b, e.selectivity.ln())).collect(),
        }
    }

    /// `(rows, GB)` of the join result over `head ++ tail`, accumulated in
    /// that order.
    pub(crate) fn set_size(&self, head: &[TableId], tail: &[TableId]) -> (f64, f64) {
        let mut members = TableSet::default();
        let mut log_card = 0.0f64;
        for &t in head.iter().chain(tail) {
            let fresh = members.insert(t);
            // A repeated table would count its rows twice and its edges once.
            debug_assert!(fresh, "{t} appears twice in one relation set (sides must be disjoint)");
            log_card += self.ln_rows[t.index()];
        }
        for &(a, b, ln_selectivity) in &self.edges {
            if members.contains(a) && members.contains(b) {
                log_card += ln_selectivity;
            }
        }
        let rows = log_card.exp();
        let width: f64 = head.iter().chain(tail).map(|t| self.row_width[t.index()]).sum();
        (rows, rows * width / GB)
    }

    /// Estimated byte size (GB) of the join result over `tables`.
    pub fn set_gb(&self, tables: &[TableId]) -> f64 {
        self.set_size(tables, &[]).1
    }

    /// Estimated row count of the join result over `tables`.
    pub fn set_rows(&self, tables: &[TableId]) -> f64 {
        self.set_size(tables, &[]).0
    }

    /// Characterize the join of two disjoint relation sets. The smaller
    /// side becomes the build input, as every engine in the paper does.
    pub fn join_io(&self, left: &[TableId], right: &[TableId]) -> JoinIo {
        self.join_io_sized(left, self.set_gb(left), right, self.set_gb(right))
    }

    /// [`CardinalityEstimator::join_io`] for a caller that already holds
    /// `set_gb` of each side — a DP subset or a memo group joins many
    /// partners, and its own size never changes.
    pub fn join_io_sized(
        &self,
        left: &[TableId],
        left_gb: f64,
        right: &[TableId],
        right_gb: f64,
    ) -> JoinIo {
        let (out_rows, out_gb) = self.set_size(left, right);
        JoinIo {
            build_gb: left_gb.min(right_gb),
            probe_gb: left_gb.max(right_gb),
            out_gb,
            out_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqo_catalog::tpch::{table, TpchSchema};

    #[test]
    fn single_table_size_matches_stats() {
        let s = TpchSchema::new(1.0);
        let est = CardinalityEstimator::new(&s.catalog, &s.graph);
        let gb = est.set_gb(&[table::LINEITEM]);
        let want = s.catalog.table(table::LINEITEM).stats.bytes() / GB;
        assert!((gb - want).abs() < 1e-12);
    }

    #[test]
    fn build_side_is_smaller_side() {
        let s = TpchSchema::new(1.0);
        let est = CardinalityEstimator::new(&s.catalog, &s.graph);
        let io = est.join_io(&[table::LINEITEM], &[table::ORDERS]);
        let orders_gb = est.set_gb(&[table::ORDERS]);
        let lineitem_gb = est.set_gb(&[table::LINEITEM]);
        assert!((io.build_gb - orders_gb).abs() < 1e-12);
        assert!((io.probe_gb - lineitem_gb).abs() < 1e-12);
        // Swapping sides yields the same io.
        let io2 = est.join_io(&[table::ORDERS], &[table::LINEITEM]);
        assert_eq!(io, io2);
    }

    #[test]
    fn fk_join_output_rows_track_fact_side() {
        let s = TpchSchema::new(1.0);
        let est = CardinalityEstimator::new(&s.catalog, &s.graph);
        let io = est.join_io(&[table::LINEITEM], &[table::ORDERS]);
        assert!((io.out_rows - 6_000_000.0).abs() / 6_000_000.0 < 1e-9);
        // Output bytes = rows * (sum of widths).
        assert!(io.out_gb > est.set_gb(&[table::LINEITEM]));
    }

    #[test]
    fn multi_table_sets_compose() {
        let s = TpchSchema::new(1.0);
        let est = CardinalityEstimator::new(&s.catalog, &s.graph);
        // (lineitem ⋈ orders) ⋈ customer keeps ~|lineitem| rows.
        let io = est.join_io(&[table::LINEITEM, table::ORDERS], &[table::CUSTOMER]);
        assert!((io.out_rows - 6_000_000.0).abs() / 6_000_000.0 < 1e-9);
        // Customer (27 MB at SF1) is the build side.
        let customer_gb = est.set_gb(&[table::CUSTOMER]);
        assert!((io.build_gb - customer_gb).abs() < 1e-12);
    }

    #[test]
    fn cross_product_sets_multiply() {
        let s = TpchSchema::new(1.0);
        let est = CardinalityEstimator::new(&s.catalog, &s.graph);
        let rows = est.set_rows(&[table::REGION, table::PART]);
        let want = 5.0 * 200_000.0;
        assert!((rows - want).abs() / want < 1e-12, "rows {rows}");
    }
}
