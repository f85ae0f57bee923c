//! The TPC-H schema, statistics, and join graph.
//!
//! §VII Setup: *"For TPC-H, we used the same tables and the same join edges
//! and join selectivities (we call this the join graph) as specified in the
//! benchmark."* The micro-benchmarks of §III run on TPC-H at scale factor
//! 100 (`lineitem` ≈ 77 GB, matching the paper's "large size table = 77G").
//!
//! Row counts scale linearly with the scale factor except for the fixed
//! `nation` (25) and `region` (5) tables, per the TPC-H specification. Row
//! widths are the usual uncompressed average widths; at SF 100 they put
//! `lineitem` at ≈ 77 GB and `orders` at ≈ 17 GB, consistent with the sizes
//! the paper reports after sampling.

use crate::join_graph::JoinGraph;
use crate::schema::{Catalog, Column, ColumnType, TableStats};

/// Average row widths in bytes (uncompressed, text-like widths).
mod width {
    pub const REGION: f64 = 124.0;
    pub const NATION: f64 = 128.0;
    pub const SUPPLIER: f64 = 159.0;
    pub const CUSTOMER: f64 = 179.0;
    pub const PART: f64 = 155.0;
    pub const PARTSUPP: f64 = 144.0;
    pub const ORDERS: f64 = 121.0;
    pub const LINEITEM: f64 = 129.0;
}

/// A fully populated TPC-H catalog + join graph at a given scale factor.
///
/// ```
/// use raqo_catalog::tpch::{table, TpchSchema};
///
/// let schema = TpchSchema::sf100();
/// let lineitem = schema.catalog.table(table::LINEITEM);
/// assert_eq!(lineitem.name, "lineitem");
/// assert_eq!(lineitem.stats.rows, 600_000_000.0);
/// assert!(schema.graph.is_connected(&schema.catalog.table_ids().collect::<Vec<_>>()));
/// ```
#[derive(Debug, Clone)]
pub struct TpchSchema {
    pub catalog: Catalog,
    pub graph: JoinGraph,
    pub scale_factor: f64,
}

/// Dense indices of the eight TPC-H tables inside [`TpchSchema::catalog`]
/// (insertion order below). Kept public so experiments can address tables
/// without string lookups.
pub mod table {
    use crate::schema::TableId;
    pub const REGION: TableId = TableId(0);
    pub const NATION: TableId = TableId(1);
    pub const SUPPLIER: TableId = TableId(2);
    pub const CUSTOMER: TableId = TableId(3);
    pub const PART: TableId = TableId(4);
    pub const PARTSUPP: TableId = TableId(5);
    pub const ORDERS: TableId = TableId(6);
    pub const LINEITEM: TableId = TableId(7);
}

impl TpchSchema {
    /// Build the schema at the given scale factor (SF 100 in the paper's
    /// cluster experiments; any positive value is accepted).
    pub fn new(scale_factor: f64) -> Self {
        assert!(scale_factor > 0.0, "scale factor must be positive");
        let sf = scale_factor;
        let mut cat = Catalog::new();

        use ColumnType::*;
        let region = cat.add_table(
            "region",
            vec![
                Column::new("r_regionkey", Int64),
                Column::new("r_name", Varchar(25)),
                Column::new("r_comment", Varchar(152)),
            ],
            TableStats::new(5.0, width::REGION),
        );
        let nation = cat.add_table(
            "nation",
            vec![
                Column::new("n_nationkey", Int64),
                Column::new("n_name", Varchar(25)),
                Column::new("n_regionkey", Int64),
                Column::new("n_comment", Varchar(152)),
            ],
            TableStats::new(25.0, width::NATION),
        );
        let supplier = cat.add_table(
            "supplier",
            vec![
                Column::new("s_suppkey", Int64),
                Column::new("s_name", Varchar(25)),
                Column::new("s_address", Varchar(40)),
                Column::new("s_nationkey", Int64),
                Column::new("s_phone", Varchar(15)),
                Column::new("s_acctbal", Float64),
                Column::new("s_comment", Varchar(101)),
            ],
            TableStats::new(10_000.0 * sf, width::SUPPLIER),
        );
        let customer = cat.add_table(
            "customer",
            vec![
                Column::new("c_custkey", Int64),
                Column::new("c_name", Varchar(25)),
                Column::new("c_address", Varchar(40)),
                Column::new("c_nationkey", Int64),
                Column::new("c_phone", Varchar(15)),
                Column::new("c_acctbal", Float64),
                Column::new("c_mktsegment", Varchar(10)),
                Column::new("c_comment", Varchar(117)),
            ],
            TableStats::new(150_000.0 * sf, width::CUSTOMER),
        );
        let part = cat.add_table(
            "part",
            vec![
                Column::new("p_partkey", Int64),
                Column::new("p_name", Varchar(55)),
                Column::new("p_mfgr", Varchar(25)),
                Column::new("p_brand", Varchar(10)),
                Column::new("p_type", Varchar(25)),
                Column::new("p_size", Int64),
                Column::new("p_container", Varchar(10)),
                Column::new("p_retailprice", Float64),
                Column::new("p_comment", Varchar(23)),
            ],
            TableStats::new(200_000.0 * sf, width::PART),
        );
        let partsupp = cat.add_table(
            "partsupp",
            vec![
                Column::new("ps_partkey", Int64),
                Column::new("ps_suppkey", Int64),
                Column::new("ps_availqty", Int64),
                Column::new("ps_supplycost", Float64),
                Column::new("ps_comment", Varchar(199)),
            ],
            TableStats::new(800_000.0 * sf, width::PARTSUPP),
        );
        let orders = cat.add_table(
            "orders",
            vec![
                Column::new("o_orderkey", Int64),
                Column::new("o_custkey", Int64),
                Column::new("o_orderstatus", Varchar(1)),
                Column::new("o_totalprice", Float64),
                Column::new("o_orderdate", Date),
                Column::new("o_orderpriority", Varchar(15)),
                Column::new("o_clerk", Varchar(15)),
                Column::new("o_shippriority", Int64),
                Column::new("o_comment", Varchar(79)),
            ],
            TableStats::new(1_500_000.0 * sf, width::ORDERS),
        );
        let lineitem = cat.add_table(
            "lineitem",
            vec![
                Column::new("l_orderkey", Int64),
                Column::new("l_partkey", Int64),
                Column::new("l_suppkey", Int64),
                Column::new("l_linenumber", Int64),
                Column::new("l_quantity", Float64),
                Column::new("l_extendedprice", Float64),
                Column::new("l_discount", Float64),
                Column::new("l_tax", Float64),
                Column::new("l_returnflag", Varchar(1)),
                Column::new("l_linestatus", Varchar(1)),
                Column::new("l_shipdate", Date),
                Column::new("l_commitdate", Date),
                Column::new("l_receiptdate", Date),
                Column::new("l_shipinstruct", Varchar(25)),
                Column::new("l_shipmode", Varchar(10)),
                Column::new("l_comment", Varchar(44)),
            ],
            TableStats::new(6_000_000.0 * sf, width::LINEITEM),
        );

        // Key–foreign-key join edges, selectivity = 1 / |primary-key side|,
        // as the System-R estimation formula prescribes for the benchmark's
        // referential joins.
        let mut graph = JoinGraph::new();
        let rows = |t| -> f64 { cat.table(t).stats.rows };
        graph.add_edge(nation, region, 1.0 / rows(region));
        graph.add_edge(supplier, nation, 1.0 / rows(nation));
        graph.add_edge(customer, nation, 1.0 / rows(nation));
        graph.add_edge(partsupp, part, 1.0 / rows(part));
        graph.add_edge(partsupp, supplier, 1.0 / rows(supplier));
        graph.add_edge(orders, customer, 1.0 / rows(customer));
        graph.add_edge(lineitem, orders, 1.0 / rows(orders));
        graph.add_edge(lineitem, partsupp, 1.0 / rows(partsupp));
        graph.add_edge(lineitem, part, 1.0 / rows(part));
        graph.add_edge(lineitem, supplier, 1.0 / rows(supplier));

        TpchSchema { catalog: cat, graph, scale_factor: sf }
    }

    /// The paper's §III micro-benchmark setup: SF 100 — `lineitem` ≈ 77 GB.
    pub fn sf100() -> Self {
        TpchSchema::new(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GB;

    #[test]
    fn has_eight_tables_with_spec_cardinalities() {
        let s = TpchSchema::new(1.0);
        assert_eq!(s.catalog.len(), 8);
        let rows = |n: &str| s.catalog.tables().iter().find(|t| t.name == n).unwrap().stats.rows;
        assert_eq!(rows("region"), 5.0);
        assert_eq!(rows("nation"), 25.0);
        assert_eq!(rows("supplier"), 10_000.0);
        assert_eq!(rows("customer"), 150_000.0);
        assert_eq!(rows("part"), 200_000.0);
        assert_eq!(rows("partsupp"), 800_000.0);
        assert_eq!(rows("orders"), 1_500_000.0);
        assert_eq!(rows("lineitem"), 6_000_000.0);
    }

    #[test]
    fn fixed_tables_do_not_scale() {
        let s = TpchSchema::new(100.0);
        assert_eq!(s.catalog.table(table::REGION).stats.rows, 5.0);
        assert_eq!(s.catalog.table(table::NATION).stats.rows, 25.0);
        assert_eq!(s.catalog.table(table::LINEITEM).stats.rows, 600_000_000.0);
    }

    #[test]
    fn sf100_lineitem_is_about_77_gb() {
        let s = TpchSchema::sf100();
        let bytes = s.catalog.table(table::LINEITEM).stats.bytes();
        let gbs = bytes / GB;
        // The paper's "large size table = 77G".
        assert!((70.0..85.0).contains(&gbs), "lineitem is {gbs:.1} GB");
    }

    #[test]
    fn table_constants_match_names() {
        let s = TpchSchema::new(1.0);
        assert_eq!(s.catalog.table(table::ORDERS).name, "orders");
        assert_eq!(s.catalog.table(table::LINEITEM).name, "lineitem");
        assert_eq!(s.catalog.table(table::CUSTOMER).name, "customer");
        assert_eq!(s.catalog.table(table::PARTSUPP).name, "partsupp");
    }

    #[test]
    fn join_graph_is_connected_over_all_tables() {
        let s = TpchSchema::new(1.0);
        let all: Vec<_> = s.catalog.table_ids().collect();
        assert!(s.graph.is_connected(&all));
        assert_eq!(s.graph.edges().len(), 10);
    }

    #[test]
    fn fk_selectivity_is_one_over_pk_side() {
        let s = TpchSchema::new(2.0);
        let e = s
            .graph
            .edges()
            .iter()
            .find(|e| e.touches(table::LINEITEM) && e.touches(table::ORDERS))
            .unwrap();
        assert!((e.selectivity - 1.0 / 3_000_000.0).abs() < 1e-15);
    }

    #[test]
    fn lineitem_orders_join_keeps_lineitem_cardinality() {
        // FK join should produce |lineitem| rows.
        let s = TpchSchema::new(1.0);
        let card = s
            .graph
            .join_cardinality(&s.catalog, &[table::LINEITEM, table::ORDERS]);
        assert!((card - 6_000_000.0).abs() / 6_000_000.0 < 1e-9);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn zero_scale_factor_rejected() {
        TpchSchema::new(0.0);
    }
}
