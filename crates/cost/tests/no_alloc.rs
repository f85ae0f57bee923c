//! `JoinCostModel::join_cost` sits on every hill-climb probe and twice on
//! every resource-plan cache hit, so it must not touch the allocator. A
//! counting global allocator tracks per-thread allocation counts (the
//! pattern of `raqo-planner`'s `no_alloc.rs`); the calls must leave the
//! count unchanged for both feature maps and both joins.

use raqo_cost::{JoinCostModel, OperatorCost};
use raqo_sim::engine::JoinImpl;
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

#[test]
fn scalar_join_cost_does_not_allocate() {
    // Models are trained outside the measured window (training allocates).
    for model in [JoinCostModel::trained_hive(), JoinCostModel::trained_hive_extended()] {
        let before = allocations();
        for join in JoinImpl::ALL {
            // Feasible and (for BHJ) infeasible points alike.
            for (build_gb, nc, cs) in [(0.4, 10.0, 3.0), (3.4, 40.0, 3.0), (9.0, 100.0, 1.0)] {
                black_box(model.join_cost(join, build_gb, 77.0, nc, cs));
            }
        }
        let allocated = allocations() - before;
        assert_eq!(allocated, 0, "{:?}: join_cost allocated {allocated} times", model.feature_map);
    }
}
