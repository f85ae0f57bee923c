//! The join graph: which tables join with which, and how selective the
//! join predicates are.
//!
//! The paper (§VII Setup) fixes "the same join edges and join selectivities
//! (we call this the join graph) as specified in the benchmark" for TPC-H and
//! generates random join graphs "with similar join selectivities" for the
//! synthetic schema. Planners use the graph for two things:
//!
//! 1. **cardinality estimation** — the classic System-R formula: the join of
//!    two sub-results is the product of their cardinalities times the product
//!    of the selectivities of every join edge that connects them, and
//! 2. **connectivity** — the randomized planner only mutates into plans whose
//!    joins follow edges (avoiding pure cross products where possible), and
//!    query generation picks connected sub-graphs.

use crate::schema::{Catalog, TableId};
use serde::{Deserialize, Serialize};

/// An undirected join edge between two base tables with a predicate
/// selectivity, i.e. |A ⋈ B| = sel · |A| · |B|.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JoinEdge {
    pub a: TableId,
    pub b: TableId,
    /// Selectivity of the join predicate; for a key–foreign-key join this is
    /// 1 / |primary side|.
    pub selectivity: f64,
}

impl JoinEdge {
    pub fn new(a: TableId, b: TableId, selectivity: f64) -> Self {
        assert!(
            selectivity > 0.0 && selectivity <= 1.0,
            "join selectivity must be in (0,1], got {selectivity}"
        );
        JoinEdge { a, b, selectivity }
    }

    /// Does this edge touch `t`?
    #[inline]
    pub fn touches(&self, t: TableId) -> bool {
        self.a == t || self.b == t
    }

    /// Does this edge have one endpoint in `left` and the other in `right`?
    #[inline]
    fn crosses(&self, left: &TableSet, right: &TableSet) -> bool {
        (left.contains(self.a) && right.contains(self.b))
            || (left.contains(self.b) && right.contains(self.a))
    }

    /// The endpoint that is not `t` (panics if the edge does not touch `t`).
    pub fn other(&self, t: TableId) -> TableId {
        if self.a == t {
            self.b
        } else if self.b == t {
            self.a
        } else {
            panic!("edge {:?} does not touch {t}", self)
        }
    }
}

/// Words a [`TableSet`] holds inline: catalogs of up to 256 tables (every
/// schema the paper plans) never touch the heap.
const INLINE_WORDS: usize = 4;

/// A set of [`TableId`]s as a bitset, so "is this edge's endpoint in the
/// set" is one bit test instead of a slice scan. Ids past the inline width
/// spill to a heap vector that grows on insert; one code path either way.
#[derive(Debug, Clone, Default)]
pub struct TableSet {
    inline: [u64; INLINE_WORDS],
    /// All words once any id ≥ 64 · [`INLINE_WORDS`] was inserted; empty
    /// (and so unallocated) until then.
    spill: Vec<u64>,
}

impl TableSet {
    pub fn from_tables(tables: &[TableId]) -> Self {
        let mut set = TableSet::default();
        for &t in tables {
            set.insert(t);
        }
        set
    }

    fn words(&self) -> &[u64] {
        if self.spill.is_empty() {
            &self.inline
        } else {
            &self.spill
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        if self.spill.is_empty() {
            &mut self.inline
        } else {
            &mut self.spill
        }
    }

    /// Add `t`; false when it was already a member.
    #[inline]
    pub fn insert(&mut self, t: TableId) -> bool {
        let (word, bit) = (t.index() / 64, 1u64 << (t.index() % 64));
        if word >= self.words().len() {
            let mut grown = self.words().to_vec();
            grown.resize(word + 1, 0);
            self.spill = grown;
        }
        let slot = &mut self.words_mut()[word];
        let fresh = *slot & bit == 0;
        *slot |= bit;
        fresh
    }

    #[inline]
    pub fn contains(&self, t: TableId) -> bool {
        let (word, bit) = (t.index() / 64, 1u64 << (t.index() % 64));
        self.words().get(word).is_some_and(|w| w & bit != 0)
    }
}

/// The join graph over a catalog's tables.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JoinGraph {
    edges: Vec<JoinEdge>,
}

impl JoinGraph {
    pub fn new() -> Self {
        JoinGraph { edges: Vec::new() }
    }

    /// Add an edge. Parallel edges are allowed (multiple predicates between
    /// the same pair multiply their selectivities, as in System R).
    pub fn add_edge(&mut self, a: TableId, b: TableId, selectivity: f64) {
        assert_ne!(a, b, "self joins are modelled as separate table instances");
        self.edges.push(JoinEdge::new(a, b, selectivity));
    }

    pub fn edges(&self) -> &[JoinEdge] {
        &self.edges
    }

    /// Combined selectivity of all edges with one endpoint in `left` and the
    /// other in `right`. Returns 1.0 when no edge crosses (a cross product).
    pub fn cross_selectivity(&self, left: &[TableId], right: &[TableId]) -> f64 {
        let (left, right) = (TableSet::from_tables(left), TableSet::from_tables(right));
        let mut sel = 1.0;
        for e in self.edges.iter().filter(|e| e.crosses(&left, &right)) {
            sel *= e.selectivity;
        }
        sel
    }

    /// True when at least one edge connects `left` and `right` — i.e. the
    /// join is not a pure cross product.
    pub fn connects(&self, left: &[TableId], right: &[TableId]) -> bool {
        let (left, right) = (TableSet::from_tables(left), TableSet::from_tables(right));
        self.edges.iter().any(|e| e.crosses(&left, &right))
    }

    /// True when the induced sub-graph on `tables` is connected (every query
    /// in the paper joins a connected set of relations).
    pub fn is_connected(&self, tables: &[TableId]) -> bool {
        let Some(&start) = tables.first() else { return true };
        let members = TableSet::from_tables(tables);
        let mut reached = TableSet::default();
        reached.insert(start);
        // Relax the induced edges until a pass reaches nothing new: each
        // pass is one bit-test sweep of the edge list, and a connected set
        // needs at most one pass per table.
        let mut grew = true;
        while grew {
            grew = false;
            for e in &self.edges {
                if members.contains(e.a)
                    && members.contains(e.b)
                    && reached.contains(e.a) != reached.contains(e.b)
                {
                    reached.insert(e.a);
                    reached.insert(e.b);
                    grew = true;
                }
            }
        }
        tables.iter().all(|&t| reached.contains(t))
    }

    /// Estimated cardinality (rows) of joining exactly the given set of
    /// tables: ∏|Tᵢ| · ∏ edge selectivities among them (System-R formula).
    ///
    /// Accumulated in log space: a 100-table join multiplies a hundred
    /// ~10⁶ row counts by a hundred ~10⁻⁶ selectivities, and doing the row
    /// counts first overflows `f64` long before the selectivities pull the
    /// product back down (Fig. 15 plans exactly such queries).
    ///
    /// The accumulation order — tables in slice order, then matching edges
    /// in graph order — is part of the definition (float addition is not
    /// associative); `raqo-planner`'s `CardinalityEstimator` reproduces it
    /// bit for bit from precomputed logarithms.
    pub fn join_cardinality(&self, catalog: &Catalog, tables: &[TableId]) -> f64 {
        let members = TableSet::from_tables(tables);
        let mut log_card = 0.0f64;
        for &t in tables {
            log_card += catalog.table(t).stats.rows.max(f64::MIN_POSITIVE).ln();
        }
        for e in &self.edges {
            if members.contains(e.a) && members.contains(e.b) {
                log_card += e.selectivity.ln();
            }
        }
        log_card.exp()
    }

    /// Estimated output row width of joining the given tables: sum of the
    /// input row widths (projections are ignored, as in the paper's
    /// `select *` micro-benchmarks).
    pub fn join_row_width(&self, catalog: &Catalog, tables: &[TableId]) -> f64 {
        tables.iter().map(|&t| catalog.table(t).stats.row_width).sum()
    }

    /// Estimated byte size of the join result of `tables`.
    pub fn join_bytes(&self, catalog: &Catalog, tables: &[TableId]) -> f64 {
        self.join_cardinality(catalog, tables) * self.join_row_width(catalog, tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableStats;

    /// a(1000 rows, 100B) — b(100 rows, 50B) — c(10 rows, 20B), chain.
    fn chain() -> (Catalog, JoinGraph) {
        let mut cat = Catalog::new();
        let a = cat.add_stats_only("a", TableStats::new(1000.0, 100.0));
        let b = cat.add_stats_only("b", TableStats::new(100.0, 50.0));
        let c = cat.add_stats_only("c", TableStats::new(10.0, 20.0));
        let mut g = JoinGraph::new();
        g.add_edge(a, b, 1.0 / 100.0); // FK a→b
        g.add_edge(b, c, 1.0 / 10.0); // FK b→c
        (cat, g)
    }

    #[test]
    fn edge_other_endpoint() {
        let e = JoinEdge::new(TableId(3), TableId(7), 0.5);
        assert_eq!(e.other(TableId(3)), TableId(7));
        assert_eq!(e.other(TableId(7)), TableId(3));
        assert!(e.touches(TableId(3)));
        assert!(!e.touches(TableId(4)));
    }

    #[test]
    #[should_panic]
    fn edge_other_panics_when_detached() {
        let e = JoinEdge::new(TableId(3), TableId(7), 0.5);
        e.other(TableId(1));
    }

    #[test]
    #[should_panic(expected = "selectivity")]
    fn zero_selectivity_rejected() {
        JoinEdge::new(TableId(0), TableId(1), 0.0);
    }

    #[test]
    fn pairwise_cardinality_matches_system_r() {
        let (cat, g) = chain();
        // |a ⋈ b| = 1000 * 100 * (1/100) = 1000
        let card = g.join_cardinality(&cat, &[TableId(0), TableId(1)]);
        assert!((card - 1000.0).abs() / 1000.0 < 1e-12, "card {card}");
    }

    #[test]
    fn three_way_cardinality_uses_both_edges() {
        let (cat, g) = chain();
        // 1000 * 100 * 10 * (1/100) * (1/10) = 1000
        let card = g.join_cardinality(&cat, &[TableId(0), TableId(1), TableId(2)]);
        assert!((card - 1000.0).abs() / 1000.0 < 1e-12, "card {card}");
    }

    #[test]
    fn cross_product_when_no_edge() {
        let (cat, g) = chain();
        // a and c are not directly connected: cardinality is the cross
        // product, and `connects` is false.
        let card = g.join_cardinality(&cat, &[TableId(0), TableId(2)]);
        assert!((card - 10_000.0).abs() / 10_000.0 < 1e-12, "card {card}");
        assert!(!g.connects(&[TableId(0)], &[TableId(2)]));
        assert_eq!(g.cross_selectivity(&[TableId(0)], &[TableId(2)]), 1.0);
    }

    #[test]
    fn connectivity_of_sets() {
        let (_, g) = chain();
        assert!(g.connects(&[TableId(0)], &[TableId(1)]));
        assert!(g.connects(&[TableId(0), TableId(1)], &[TableId(2)]));
        assert!(g.is_connected(&[TableId(0), TableId(1), TableId(2)]));
        // {a, c} without b is disconnected.
        assert!(!g.is_connected(&[TableId(0), TableId(2)]));
        assert!(g.is_connected(&[]));
        assert!(g.is_connected(&[TableId(1)]));
    }

    #[test]
    fn cross_selectivity_multiplies_crossing_edges_only() {
        let (_, g) = chain();
        let s = g.cross_selectivity(&[TableId(0), TableId(2)], &[TableId(1)]);
        // both edges cross the cut: (1/100) * (1/10)
        assert!((s - 0.001).abs() < 1e-12);
    }

    #[test]
    fn row_width_and_bytes_compose() {
        let (cat, g) = chain();
        let ts = [TableId(0), TableId(1)];
        assert_eq!(g.join_row_width(&cat, &ts), 150.0);
        let bytes = g.join_bytes(&cat, &ts);
        assert!((bytes - 150_000.0).abs() / 150_000.0 < 1e-12, "bytes {bytes}");
    }

    #[test]
    fn hundred_table_cardinality_stays_finite() {
        // The Fig. 15 regression: ∏ rows overflows f64 unless accumulated
        // in log space together with the selectivities.
        let mut cat = Catalog::new();
        let mut g = JoinGraph::new();
        let mut prev = cat.add_stats_only("r0", TableStats::new(1_000_000.0, 100.0));
        let mut all = vec![prev];
        for i in 1..100 {
            let t = cat.add_stats_only(format!("r{i}"), TableStats::new(1_000_000.0, 100.0));
            g.add_edge(prev, t, 1e-6);
            all.push(t);
            prev = t;
        }
        let card = g.join_cardinality(&cat, &all);
        assert!(card.is_finite(), "overflowed");
        // Chain of FK joins at 1/|t| selectivity keeps ~1e6 rows.
        assert!((card - 1_000_000.0).abs() / 1_000_000.0 < 1e-6, "card {card}");
    }

    #[test]
    fn parallel_edges_multiply() {
        let mut cat = Catalog::new();
        let a = cat.add_stats_only("a", TableStats::new(100.0, 8.0));
        let b = cat.add_stats_only("b", TableStats::new(100.0, 8.0));
        let mut g = JoinGraph::new();
        g.add_edge(a, b, 0.1);
        g.add_edge(a, b, 0.5);
        let card = g.join_cardinality(&cat, &[a, b]);
        assert!((card - 100.0 * 100.0 * 0.05).abs() / 500.0 < 1e-12, "card {card}");
    }
}
