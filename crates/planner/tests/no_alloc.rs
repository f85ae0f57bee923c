//! The set statistics under every planner must not touch the allocator:
//! a DP run sizes its subsets into a `SubsetSizes` table, and `join_io`
//! and `connects` serve the final re-cost and the greedy planners. A
//! counting global allocator tracks per-thread allocation counts (the
//! pattern of `raqo-telemetry`'s `no_alloc.rs`); the calls must leave the
//! count unchanged at the benchmark's catalog sizes — 8-table TPC-H and a
//! 30-table random schema.

use raqo_catalog::tpch::TpchSchema;
use raqo_catalog::{Catalog, JoinGraph, QuerySpec, RandomSchemaConfig, TableId};
use raqo_planner::{CardinalityEstimator, SubsetSizes};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates to `System` unchanged; only a thread-local counter is
// updated alongside.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Every prefix/next-table split of `relations`, through `join_io`,
/// `set_gb`, `set_rows` and `connects`, with the estimator built outside
/// the measured window (its constructor allocates, once per plan).
fn assert_set_statistics_do_not_allocate(
    catalog: &Catalog,
    graph: &JoinGraph,
    relations: &[TableId],
) {
    let est = CardinalityEstimator::new(catalog, graph);
    let before = allocations();
    for split in 1..relations.len() {
        let (left, right) = relations.split_at(split);
        black_box(est.join_io(left, right));
        black_box(est.join_io(left, &right[..1]));
        black_box(est.set_gb(left));
        black_box(est.set_rows(right));
        black_box(graph.connects(left, right));
        black_box(graph.connects(left, &right[..1]));
    }
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "set statistics allocated {allocated} times");

    // A DP run's size table over (at most twelve of) the relations, built
    // outside the window like the estimator: every (rest, item)
    // candidate's IO fills it, and every subset is read back.
    let n = relations.len().min(12);
    let mut sizes = SubsetSizes::new(est.local_view(relations[..n].chunks(1)));
    let before = allocations();
    for rest in 1..(1u64 << n) - 1 {
        for i in (0..n).filter(|i| rest >> i & 1 == 0) {
            black_box(sizes.join_io(rest, 1 << i));
        }
        black_box(sizes.get(rest));
    }
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "a subset size table allocated {allocated} times");
}

#[test]
fn join_io_and_connects_do_not_allocate_on_tpch() {
    let schema = TpchSchema::new(1.0);
    let all = QuerySpec::tpch_all(&schema);
    assert_set_statistics_do_not_allocate(&schema.catalog, &schema.graph, &all.relations);
}

#[test]
fn join_io_and_connects_do_not_allocate_on_a_thirty_table_schema() {
    let schema = RandomSchemaConfig::with_tables(30, 7).generate();
    let all: Vec<TableId> = schema.catalog.table_ids().collect();
    assert_set_statistics_do_not_allocate(&schema.catalog, &schema.graph, &all);
    let ten = QuerySpec::random_connected(&schema.catalog, &schema.graph, 10, 7);
    assert_set_statistics_do_not_allocate(&schema.catalog, &schema.graph, &ten.relations);
}
