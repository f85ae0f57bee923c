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
//!
//! A DP run asks for the same few relations over and over, so it works on
//! a [`LocalView`] instead: the fold's terms for just its items, and just
//! the edges with both ends among them, as item masks. The fold is the
//! same, so the bits are too. Its [`SubsetSizes`] keeps each subset's size
//! once computed, so every DP sizes a subset once.

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

impl JoinIo {
    /// The join of sides of `left_gb` and `right_gb` into `(rows, GB)`. The
    /// smaller side becomes the build input, as every engine in the paper
    /// does.
    pub(crate) fn of(left_gb: f64, right_gb: f64, (out_rows, out_gb): (f64, f64)) -> JoinIo {
        JoinIo {
            build_gb: left_gb.min(right_gb),
            probe_gb: left_gb.max(right_gb),
            out_gb,
            out_rows,
        }
    }
}

/// Indices of the set bits of `mask`, ascending.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// The relation part of the set-statistics fold, as far as it has got:
/// `ln rows` and row width summed over the relations taken so far.
#[derive(Clone, Copy, Default)]
struct SetFold {
    log_card: f64,
    width: f64,
}

impl SetFold {
    #[inline]
    fn take(self, (ln_rows, width): (f64, f64)) -> SetFold {
        SetFold { log_card: self.log_card + ln_rows, width: self.width + width }
    }

    /// `(rows, GB)` once `ln selectivity` of the set's edges is in.
    #[inline]
    fn finish(self) -> (f64, f64) {
        let rows = self.log_card.exp();
        (rows, rows * self.width / GB)
    }
}

/// Estimates sub-result sizes for arbitrary relation sets.
pub struct CardinalityEstimator<'a> {
    pub catalog: &'a Catalog,
    pub graph: &'a JoinGraph,
    /// `(ln(max(rows, MIN_POSITIVE)), row width)` per table, by
    /// [`TableId::index`].
    terms: Vec<(f64, f64)>,
    /// `(a, b, ln selectivity)` per join edge, in graph order.
    edges: Vec<(TableId, TableId, f64)>,
}

impl<'a> CardinalityEstimator<'a> {
    pub fn new(catalog: &'a Catalog, graph: &'a JoinGraph) -> Self {
        CardinalityEstimator {
            catalog,
            graph,
            terms: catalog
                .tables()
                .iter()
                .map(|t| (t.stats.rows.max(f64::MIN_POSITIVE).ln(), t.stats.row_width))
                .collect(),
            edges: graph.edges().iter().map(|e| (e.a, e.b, e.selectivity.ln())).collect(),
        }
    }

    /// `(rows, GB)` of the join result over `head ++ tail`, accumulated in
    /// that order: the reference definition every faster path reproduces.
    pub(crate) fn set_size(&self, head: &[TableId], tail: &[TableId]) -> (f64, f64) {
        let mut members = TableSet::default();
        let mut fold = SetFold::default();
        for &t in head.iter().chain(tail) {
            let fresh = members.insert(t);
            // A repeated table would count its rows twice and its edges once.
            debug_assert!(fresh, "{t} appears twice in one relation set (sides must be disjoint)");
            fold = fold.take(self.terms[t.index()]);
        }
        for &(a, b, ln_selectivity) in &self.edges {
            if members.contains(a) && members.contains(b) {
                fold.log_card += ln_selectivity;
            }
        }
        fold.finish()
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
        JoinIo::of(self.set_gb(left), self.set_gb(right), self.set_size(left, right))
    }

    /// The statistics of one DP run over `items` (at most 64, each a
    /// relation slice; the relations of different items are disjoint).
    /// Built once per run; every set of items it is asked about after that
    /// is a mask over `items`.
    pub fn local_view<'s>(&self, items: impl IntoIterator<Item = &'s [TableId]>) -> LocalView {
        let mut view = LocalView { terms: Vec::new(), ends: Vec::new(), edges: Vec::new() };
        // Items owning each table, as a mask (one item, unless a query lists
        // a relation twice).
        let mut owners = vec![0u64; self.terms.len()];
        for (i, rels) in items.into_iter().enumerate() {
            assert!(i < 64, "a local view holds at most 64 items");
            for &t in rels {
                owners[t.index()] |= 1u64 << i;
                view.terms.push(self.terms[t.index()]);
            }
            view.ends.push(view.terms.len());
        }
        for &(a, b, ln_selectivity) in &self.edges {
            let (a, b) = (owners[a.index()], owners[b.index()]);
            if a != 0 && b != 0 {
                view.edges.push((a, b, ln_selectivity));
            }
        }
        view
    }
}

/// The set statistics of one DP run's items (see
/// [`CardinalityEstimator::local_view`]). A set of items is a mask; its
/// relations are its items' in ascending item order, each item's in slice
/// order — the order [`LocalView::size`] folds them in.
#[derive(Debug, Clone)]
pub struct LocalView {
    /// `(ln rows, row width)` of every item's relations, items in order.
    terms: Vec<(f64, f64)>,
    /// Item i's terms end at `ends[i]` (and start where item i − 1's end).
    ends: Vec<usize>,
    /// `(items holding a, items holding b, ln selectivity)` per edge with
    /// both ends among the items, in graph order.
    edges: Vec<(u64, u64, f64)>,
}

impl LocalView {
    /// `(rows, GB)` of the items in `mask`, in ascending item order.
    pub fn size(&self, mask: u64) -> (f64, f64) {
        let mut fold = SetFold::default();
        for i in bits(mask) {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            fold = self.terms[start..self.ends[i]].iter().fold(fold, |f, &term| f.take(term));
        }
        for &(a, b, ln_selectivity) in &self.edges {
            // A select, not a branch: which edges a subset holds is data,
            // and a mispredicted test per edge cost more than the add. The
            // added +0.0 of an outside edge leaves the sum's bits as they
            // were, because the sum starts at +0.0 and so is never −0.0.
            let inside = (a & mask != 0) & (b & mask != 0);
            fold.log_card += if inside { ln_selectivity } else { 0.0 };
        }
        fold.finish()
    }

    /// One mask per item: bit j of entry i is set when a join edge links a
    /// relation of item i to a relation of item j.
    pub(crate) fn adjacency(&self) -> Vec<u64> {
        let mut adj = vec![0u64; self.ends.len()];
        for &(a, b, _) in &self.edges {
            bits(a).for_each(|i| adj[i] |= b);
            bits(b).for_each(|i| adj[i] |= a);
        }
        adj
    }
}

/// The sizes of one DP run's subsets: one `(rows, GB)` per item mask,
/// [`LocalView::size`] computed on first use and kept for the run. Every
/// candidate reads its sides and its output here, so a subset is sized
/// once however many joins it enters or comes out of.
#[derive(Debug)]
pub struct SubsetSizes {
    view: LocalView,
    sizes: Vec<(f64, f64)>,
}

impl SubsetSizes {
    /// An empty table over every subset of `view`'s items (2ⁿ slots).
    pub fn new(view: LocalView) -> Self {
        // Zero rows marks a slot not yet asked for. An all-zero table comes
        // from the allocator untouched, so a run that reads few subsets (a
        // chain's intervals) never pages in the rest.
        let sizes = vec![(0.0, 0.0); 1 << view.ends.len()];
        SubsetSizes { view, sizes }
    }

    /// `(rows, GB)` of the items in `mask`: [`LocalView::size`], bit for
    /// bit. A subset whose rows are 0 is sized again on every ask, which
    /// costs time and never bits.
    #[inline]
    pub fn get(&mut self, mask: u64) -> (f64, f64) {
        let slot = &mut self.sizes[mask as usize];
        if slot.0 == 0.0 {
            *slot = self.view.size(mask);
        }
        *slot
    }

    /// The IO of joining the disjoint item sets `a` and `b`.
    #[inline]
    pub fn join_io(&mut self, a: u64, b: u64) -> JoinIo {
        JoinIo::of(self.get(a).1, self.get(b).1, self.get(a | b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raqo_catalog::tpch::{table, TpchSchema};
    use raqo_catalog::QuerySpec;

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

    /// The table answers every subset with the view's size, however often
    /// it is asked, and a join of a set with items above it with
    /// `join_io` over the ascending relation lists, bit for bit.
    #[test]
    fn subset_sizes_answer_with_the_views_sizes() {
        let s = TpchSchema::new(1.0);
        let est = CardinalityEstimator::new(&s.catalog, &s.graph);
        let all = QuerySpec::tpch_all(&s).relations;
        let view = est.local_view(all.chunks(1));
        let mut sizes = SubsetSizes::new(view.clone());
        let rels = |mask: u64| bits(mask).map(|i| all[i]).collect::<Vec<_>>();
        let bits_of = |(rows, gb): (f64, f64)| (rows.to_bits(), gb.to_bits());
        for mask in (1..1u64 << all.len()).rev().chain(1..1 << all.len()) {
            assert_eq!(bits_of(sizes.get(mask)), bits_of(view.size(mask)), "{mask:#b}");
            let high = 1u64 << (63 - mask.leading_zeros());
            if mask != high {
                let (a, b) = (mask & !high, high);
                assert_eq!(sizes.join_io(a, b), est.join_io(&rels(a), &rels(b)), "{mask:#b}");
            }
        }
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
