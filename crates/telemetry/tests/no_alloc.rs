//! Disabled-mode no-allocation check: the no-op sink must not touch the
//! allocator on any instrumentation path. A counting global allocator
//! tracks per-thread allocation counts; the disabled-telemetry hot loop
//! must leave the count unchanged.

use raqo_telemetry::{Counter, Gauge, Hist, Telemetry, TraceFlags};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
fn disabled_telemetry_does_not_allocate() {
    let tel = Telemetry::disabled();
    // Warm up thread-locals and lazy statics outside the measured window.
    {
        let _s = tel.span("warmup");
        tel.inc(Counter::PlanCostCalls);
    }

    let before = allocations();
    for i in 0..10_000 {
        let _root = tel.span("optimize");
        let _level = tel.span_labeled("selinger.level", i % 8);
        tel.inc(Counter::PlanCostCalls);
        tel.add(Counter::ResourceIterations, 17);
        tel.observe(Hist::PlanCostLatencyUs, 42);
        let sw = tel.stopwatch();
        tel.observe_elapsed_us(Hist::PlanCostLatencyUs, &sw);
        // Contention metrics: per-shard lookup counters, the lock-wait
        // histogram, and the queue-depth gauge must be equally free.
        tel.inc(Counter::cache_shard(i % 16));
        tel.observe(Hist::CacheLockWaitUs, 3);
        tel.gauge_add(Gauge::ServiceQueueDepth, 1);
        tel.gauge_set(Gauge::ServiceQueueDepth, 0);
        // The trace pipeline must be equally free when disabled: inert
        // contexts and no-op flags.
        let trace = tel.start_trace("plan.ticket");
        trace.attr("tenant.namespace", i);
        trace.flag(TraceFlags::DEGRADED);
        {
            let _in_trace = trace.enter();
            tel.flag_current_trace(TraceFlags::BUDGET_EXHAUSTED);
        }
        trace.finish();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled telemetry allocated {} times in the hot loop",
        after - before
    );
}

#[test]
fn enabled_telemetry_still_works_under_counting_allocator() {
    let tel = Telemetry::enabled();
    {
        let _root = tel.span("optimize");
        tel.inc(Counter::PlanCostCalls);
    }
    assert_eq!(tel.spans().len(), 1);
    assert_eq!(tel.snapshot().unwrap().get(Counter::PlanCostCalls), 1);
}
