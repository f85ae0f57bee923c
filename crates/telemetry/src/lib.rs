//! `raqo-telemetry` — observability for the joint query+resource
//! optimizer.
//!
//! Four layers, all dependency-free:
//!
//! 1. **Spans** ([`Telemetry::span`]): RAII guards with monotonic timings
//!    and thread-local parent/child nesting, covering the pipeline phases
//!    (dispatch, Selinger DP levels, randomized rounds, resource planning,
//!    cache lookups). Backed by bounded ring buffers (ambient cap
//!    [`MAX_SPANS`], per-ticket cap [`DEFAULT_TRACE_SPAN_CAP`]) with
//!    evictions counted, and rendered as an indented tree
//!    ([`render_span_tree`]).
//! 2. **The trace pipeline** ([`Telemetry::start_trace`]): per-ticket
//!    traces with deterministic ids and attributes, and two-stage sampling
//!    (seeded head rate + tail retention of degraded/panicked/
//!    budget-exhausted/sanitized tickets) into a completed-trace ring
//!    ([`Telemetry::completed_traces`]) bounded at [`MAX_SPANS`] spans.
//! 3. **Metrics registry** ([`MetricsRegistry`]): enum-indexed atomic
//!    counters and fixed-bucket histograms, exported in Prometheus text
//!    format ([`MetricsSnapshot::to_prometheus`]).
//! 4. **The no-op handle**: [`Telemetry::disabled`] is the default
//!    everywhere; every instrumentation call on it is branch-on-`None`
//!    and free — no clock reads, no locks, no allocation (asserted by the
//!    `no_alloc` integration test and the `telemetry_overhead` bench).

mod metrics;
mod span;
mod trace;

pub use metrics::{
    Counter, Gauge, Hist, HistSnapshot, MetricsRegistry, MetricsSnapshot, LOCK_WAIT_BUCKETS,
    PLAN_COST_LATENCY_BUCKETS, QUEUE_WAIT_BUCKETS, RESOURCE_ITERATIONS_BUCKETS,
    SHARD_LABEL_BUCKETS,
};
pub use span::{
    aggregate_spans, render_span_tree, Span, SpanRecord, Stopwatch, Telemetry, MAX_SPANS,
};
pub use trace::{
    CompletedTrace, ScopeGuard, TraceConfig, TraceContext, TraceFlags, TraceGuard, TraceScope,
    DEFAULT_TRACE_SPAN_CAP,
};
