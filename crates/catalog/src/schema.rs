//! Tables, columns, and statistics.
//!
//! The planners in this workspace are *statistics driven*: all they ever need
//! from a table is its cardinality and byte size (the paper's cost models are
//! functions of input sizes and resources, §VI-A). We still model columns and
//! types so that the examples read like a real catalog and so that join keys
//! can be validated.

use serde::{Deserialize, Serialize};

/// Identifier of a table inside one [`Catalog`]. Dense, usable as an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TableId(pub u32);

impl TableId {
    /// The id as a `usize` index into catalog-ordered vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Column types. Descriptive only: a table's row width is its
/// [`TableStats::row_width`], not derived from its columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit integer key or measure.
    Int64,
    /// 64-bit floating point measure.
    Float64,
    /// Calendar date (stored as days).
    Date,
    /// Variable-length string with an average byte width.
    Varchar(u16),
}

/// A column: a name and a type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    pub name: String,
    pub ty: ColumnType,
}

impl Column {
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Column { name: name.into(), ty }
    }
}

/// Per-table statistics used by cardinality estimation and cost models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    /// Number of rows.
    pub rows: f64,
    /// Average row width in bytes.
    pub row_width: f64,
}

impl TableStats {
    pub fn new(rows: f64, row_width: f64) -> Self {
        debug_assert!(rows >= 0.0 && row_width >= 0.0);
        TableStats { rows, row_width }
    }

    /// Total byte size of the table.
    #[inline]
    pub fn bytes(&self) -> f64 {
        self.rows * self.row_width
    }
}

/// A base table: name, columns, statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    pub id: TableId,
    pub name: String,
    pub columns: Vec<Column>,
    pub stats: TableStats,
}

impl Table {
    /// Look up a column index by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }
}

/// A catalog: the set of base tables of one schema.
///
/// Tables are stored densely; `TableId(i)` is always the table at index `i`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Catalog {
    tables: Vec<Table>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog { tables: Vec::new() }
    }

    /// Add a table described by columns and stats; returns its id.
    pub fn add_table(
        &mut self,
        name: impl Into<String>,
        columns: Vec<Column>,
        stats: TableStats,
    ) -> TableId {
        let id = TableId(self.tables.len() as u32);
        self.tables.push(Table { id, name: name.into(), columns, stats });
        id
    }

    /// Add a table known only by name and stats (random schemas).
    pub fn add_stats_only(&mut self, name: impl Into<String>, stats: TableStats) -> TableId {
        self.add_table(name, Vec::new(), stats)
    }

    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// All table ids, in insertion order.
    pub fn table_ids(&self) -> impl Iterator<Item = TableId> + '_ {
        (0..self.tables.len() as u32).map(TableId)
    }

    /// Override the statistics of a table (e.g. to model the paper's
    /// "uniform sampling filter on `o_orderkey`" that shrinks `orders` to a
    /// chosen size, §III-A footnote 5).
    pub fn set_stats(&mut self, id: TableId, stats: TableStats) {
        self.tables[id.index()].stats = stats;
    }

    /// Scale the row count of a table by `fraction`, keeping row width.
    /// This is exactly the paper's sampling-filter trick for sweeping the
    /// smaller relation's size.
    pub fn sample_table(&mut self, id: TableId, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "sampling fraction must be in [0,1], got {fraction}"
        );
        let t = &mut self.tables[id.index()];
        t.stats.rows *= fraction;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_table_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "orders",
            vec![
                Column::new("o_orderkey", ColumnType::Int64),
                Column::new("o_comment", ColumnType::Varchar(48)),
            ],
            TableStats::new(1_500_000.0, 120.0),
        );
        c.add_stats_only("lineitem", TableStats::new(6_000_000.0, 130.0));
        c
    }

    fn by_name<'c>(c: &'c Catalog, name: &str) -> Option<&'c Table> {
        c.tables().iter().find(|t| t.name == name)
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let c = two_table_catalog();
        let ids: Vec<_> = c.table_ids().collect();
        assert_eq!(ids, vec![TableId(0), TableId(1)]);
        assert_eq!(c.table(TableId(0)).name, "orders");
        assert_eq!(c.table(TableId(1)).name, "lineitem");
    }

    #[test]
    fn bytes_is_rows_times_width() {
        let s = TableStats::new(1000.0, 150.0);
        assert_eq!(s.bytes(), 150_000.0);
    }

    #[test]
    fn lookup_by_name_and_column() {
        let c = two_table_catalog();
        let orders = by_name(&c, "orders").expect("orders exists");
        assert_eq!(orders.column("o_orderkey"), Some(0));
        assert_eq!(orders.column("missing"), None);
        assert!(by_name(&c, "nope").is_none());
    }

    #[test]
    fn sampling_scales_rows_only() {
        let mut c = two_table_catalog();
        let id = by_name(&c, "orders").unwrap().id;
        let before = c.table(id).stats;
        c.sample_table(id, 0.25);
        let after = c.table(id).stats;
        assert_eq!(after.rows, before.rows * 0.25);
        assert_eq!(after.row_width, before.row_width);
    }

    #[test]
    #[should_panic(expected = "sampling fraction")]
    fn sampling_rejects_bad_fraction() {
        let mut c = two_table_catalog();
        c.sample_table(TableId(0), 1.5);
    }

    #[test]
    fn set_stats_replaces() {
        let mut c = two_table_catalog();
        c.set_stats(TableId(1), TableStats::new(5.0, 10.0));
        assert_eq!(c.table(TableId(1)).stats.bytes(), 50.0);
    }
}
