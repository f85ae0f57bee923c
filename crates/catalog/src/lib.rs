//! # raqo-catalog
//!
//! Schema and statistics substrate for the RAQO reproduction.
//!
//! The paper evaluates joint resource-and-query optimization over two kinds
//! of schemas (§VII Setup):
//!
//! * the **TPC-H** schema, "with the same tables and the same join edges and
//!   join selectivities (we call this the join graph) as specified in the
//!   benchmark", and
//! * a **randomly generated schema** whose tables "have a randomly picked
//!   row size between 100 and 200 bytes, and a randomly picked number of
//!   rows between 100K and 2M", with randomly generated join edges "with
//!   similar join selectivities as in the TPC-H schema".
//!
//! This crate provides both, plus the query specifications used throughout
//! the evaluation (TPC-H Q12 / Q3 / Q2 / All and random k-way joins) and the
//! cardinality arithmetic the planners build on.

pub mod join_graph;
pub mod query;
pub mod random;
pub mod schema;
pub mod tpch;

pub use join_graph::{JoinEdge, JoinGraph, TableSet};
pub use query::QuerySpec;
pub use random::{RandomSchema, RandomSchemaConfig};
pub use schema::{Catalog, ColumnType, Table, TableId, TableStats};

/// Bytes in one gibibyte; the unit most resource knobs in the paper use.
pub const GB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Bytes in one mebibyte (the default Hive/Spark broadcast threshold is
/// expressed in MB).
pub const MB: f64 = 1024.0 * 1024.0;
