//! Lightweight span tracing with monotonic timings and parent/child
//! nesting, backed by the bounded trace pipeline in [`crate::trace`].
//!
//! A [`Span`] is an RAII guard: opening one records a start offset against
//! the telemetry epoch and pushes it on a thread-local stack (so spans
//! opened while it is live become its children); dropping it stamps the
//! end timestamp. Spans land either in the *ambient* trace (the legacy
//! one-shot view behind [`Telemetry::spans`]) or, when a thread has
//! entered a [`crate::TraceContext`], in that ticket's own ring buffer.
//! When telemetry is disabled every operation is a no-op on a `None` — no
//! clock reads, no locks, no allocation.

use crate::metrics::MetricsRegistry;
use crate::trace::{
    self, CompletedTrace, Pipeline, ScopeGuard, TraceConfig, TraceContext, TraceFlags, TraceScope,
};
use crate::Counter;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span capacity of the ambient (non-ticket) trace ring and of the
/// completed-trace ring. Past it the ambient ring evicts its oldest spans
/// (counted in [`Counter::SpansDropped`]) and the completed ring its oldest
/// unflagged traces (counted in [`Counter::TracesEvicted`]) — hot loops
/// cannot grow either without bound.
pub const MAX_SPANS: usize = 65_536;

/// One finished (or still-open) span in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub name: String,
    /// Stable per-trace sequence id. Survives ring eviction: ids are
    /// assigned monotonically from 0 and never reused, so parent links
    /// stay valid even after older records have been evicted.
    pub id: u32,
    /// Sequence id of the parent span in the same trace; root spans have
    /// none.
    pub parent: Option<u32>,
    /// Start offset from the telemetry epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the telemetry epoch; `None` while the span is
    /// still open (the span tree marks such spans as open rather than
    /// zero-duration).
    pub end_ns: Option<u64>,
}

impl SpanRecord {
    /// Whether the span has not been closed yet.
    #[inline]
    pub fn is_open(&self) -> bool {
        self.end_ns.is_none()
    }

    /// Duration in nanoseconds; zero for spans still open.
    #[inline]
    pub fn dur_ns(&self) -> u64 {
        match self.end_ns {
            Some(end) => end.saturating_sub(self.start_ns),
            None => 0,
        }
    }
}

pub(crate) struct Inner {
    /// Distinguishes handles on the shared thread-local stack.
    pub(crate) id: u64,
    pub(crate) epoch: Instant,
    pub(crate) registry: MetricsRegistry,
    pub(crate) pipeline: Mutex<Pipeline>,
}

thread_local! {
    /// Stack of open spans on this thread: (telemetry id, trace key, span
    /// sequence id).
    static SPAN_STACK: RefCell<Vec<(u64, u64, u32)>> = const { RefCell::new(Vec::new()) };
    /// The trace new spans on this thread are recorded into: (telemetry
    /// id, trace key). Key 0 is the ambient trace.
    static CURRENT_TRACE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The telemetry handle threaded through the optimizer stack. Cheap to
/// clone (an `Arc` when enabled, a `None` when disabled); the disabled
/// handle makes every instrumentation site free.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The no-op sink: every span/counter/histogram call returns
    /// immediately without touching a clock, lock, or allocator.
    pub const fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle with a fresh registry, empty span pipeline, and
    /// the default [`TraceConfig`] (head sampling keeps everything).
    pub fn enabled() -> Self {
        Self::with_trace_config(TraceConfig::default())
    }

    /// An enabled handle with an explicit sampling configuration.
    pub fn with_trace_config(config: TraceConfig) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                registry: MetricsRegistry::new(),
                pipeline: Mutex::new(Pipeline::new(config)),
            })),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span named `name`, parented at the innermost span currently
    /// open on this thread (within the thread's current trace). Returns a
    /// guard whose drop stamps the end timestamp.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        match &self.inner {
            None => Span { inner: None },
            Some(inner) => Span::open(inner, name.to_string()),
        }
    }

    /// Open a span whose name carries an index, e.g. `selinger.level.3`.
    /// The label is only formatted (allocated) when telemetry is enabled.
    #[inline]
    pub fn span_labeled(&self, prefix: &str, idx: usize) -> Span {
        match &self.inner {
            None => Span { inner: None },
            Some(inner) => Span::open(inner, format!("{prefix}.{idx}")),
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Increment a counter by `n`. Counters that signal trouble (worker
    /// panics, cost sanitizations, degradation rungs) also flag the
    /// thread's current trace so tail sampling retains it.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.inc(c, n);
            let flags = trace::auto_flag(c);
            if !flags.is_empty() {
                self.flag_current_trace(flags);
            }
        }
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&self, h: crate::Hist, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.observe(h, value);
        }
    }

    /// Set a stored gauge to an absolute level.
    #[inline]
    pub fn gauge_set(&self, g: crate::Gauge, value: i64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge_set(g, value);
        }
    }

    /// Move a stored gauge by `delta` (negative to decrement).
    #[inline]
    pub fn gauge_add(&self, g: crate::Gauge, delta: i64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge_add(g, delta);
        }
    }

    /// Start a latency stopwatch; reads the clock only when enabled.
    #[inline]
    pub fn stopwatch(&self) -> Stopwatch {
        Stopwatch(self.inner.as_ref().map(|_| Instant::now()))
    }

    /// Observe the stopwatch's elapsed microseconds into a histogram.
    #[inline]
    pub fn observe_elapsed_us(&self, h: crate::Hist, sw: &Stopwatch) {
        if let (Some(inner), Some(t0)) = (&self.inner, sw.0) {
            inner.registry.observe(h, t0.elapsed().as_micros() as u64);
        }
    }

    /// The live registry, when enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// Point-in-time metrics snapshot, when enabled.
    pub fn snapshot(&self) -> Option<crate::MetricsSnapshot> {
        self.registry().map(|r| r.snapshot())
    }

    // ---- trace pipeline -------------------------------------------------

    /// Start a new trace (one planning ticket). The returned context is
    /// inert when telemetry is disabled: every method on it is free.
    pub fn start_trace(&self, name: &str) -> TraceContext {
        match &self.inner {
            None => TraceContext::inert(),
            Some(inner) => TraceContext::start(inner, name),
        }
    }

    /// Raise `flags` on the trace the current thread is recording into
    /// (no-op on the ambient trace or when disabled).
    pub fn flag_current_trace(&self, flags: TraceFlags) {
        let Some(inner) = &self.inner else { return };
        let (tid, key) = CURRENT_TRACE.with(|c| c.get());
        if tid != inner.id || key == 0 {
            return;
        }
        let mut p = inner.pipeline.lock().unwrap();
        if let Some(buf) = p.buf_mut(key) {
            buf.flags = buf.flags.union(flags);
        }
    }

    /// Capture the current thread's trace position (trace + innermost
    /// open span) as a `Copy` token that can be carried into a spawned
    /// worker and entered there, so the worker's spans parent under the
    /// capturing thread's span instead of becoming orphan roots.
    pub fn current_scope(&self) -> TraceScope {
        let Some(inner) = &self.inner else {
            return TraceScope::inert();
        };
        let (tid, key) = CURRENT_TRACE.with(|c| c.get());
        let key = if tid == inner.id { key } else { 0 };
        let parent = SPAN_STACK.with(|s| {
            s.borrow()
                .last()
                .filter(|(id, k, _)| *id == inner.id && *k == key)
                .map(|(_, _, seq)| *seq)
        });
        TraceScope::active(inner.id, key, parent)
    }

    /// Enter a scope captured by [`Telemetry::current_scope`] on another
    /// thread. Spans opened while the guard lives record into the scope's
    /// trace, parented under the captured span.
    pub fn enter_scope(&self, scope: TraceScope) -> ScopeGuard {
        if self.inner.is_none() {
            return ScopeGuard::inert();
        }
        ScopeGuard::enter(scope)
    }

    pub(crate) fn set_current_trace(tid: u64, key: u64) -> (u64, u64) {
        CURRENT_TRACE.with(|c| c.replace((tid, key)))
    }

    pub(crate) fn restore_current_trace(prev: (u64, u64)) {
        CURRENT_TRACE.with(|c| c.set(prev));
    }

    pub(crate) fn push_stack_entry(tid: u64, key: u64, seq: u32) {
        SPAN_STACK.with(|s| s.borrow_mut().push((tid, key, seq)));
    }

    pub(crate) fn pop_stack_entry(tid: u64, key: u64, seq: u32) {
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&e| e == (tid, key, seq)) {
                stack.remove(pos);
            }
        });
    }

    /// Completed traces currently retained by the sampler, oldest first.
    pub fn completed_traces(&self) -> Vec<CompletedTrace> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let p = inner.pipeline.lock().unwrap();
                p.completed.iter().cloned().collect()
            }
        }
    }

    /// Total spans held in the retained completed-trace ring. Bounded by
    /// [`MAX_SPANS`].
    pub fn completed_span_count(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => inner.pipeline.lock().unwrap().completed_spans,
        }
    }

    /// Number of traces started but not yet finished.
    pub fn active_trace_count(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => inner.pipeline.lock().unwrap().active.len(),
        }
    }

    // ---- ambient span views (legacy one-shot API) ----------------------

    /// Copy of the ambient trace's spans (empty when disabled). Ticket
    /// traces started via [`Telemetry::start_trace`] do not appear here.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let p = inner.pipeline.lock().unwrap();
                p.ambient.spans.iter().cloned().collect()
            }
        }
    }

    /// Discard ambient spans (metrics and ticket traces are unaffected).
    /// Used between queries when tracing several in one process.
    pub fn clear_spans(&self) {
        if let Some(inner) = &self.inner {
            let mut p = inner.pipeline.lock().unwrap();
            p.ambient.spans.clear();
        }
    }

    /// Render the ambient spans as an indented tree with durations.
    pub fn span_tree_text(&self) -> String {
        render_span_tree(&self.spans())
    }
}

/// A started-or-inert stopwatch from [`Telemetry::stopwatch`].
#[derive(Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

/// RAII span guard; the end timestamp is stamped on drop.
pub struct Span {
    inner: Option<(Arc<Inner>, u64, u32, Instant)>,
}

impl Span {
    fn open(inner: &Arc<Inner>, name: String) -> Span {
        let start = Instant::now();
        let (tid, cur_key) = CURRENT_TRACE.with(|c| c.get());
        let key = if tid == inner.id { cur_key } else { 0 };
        let parent = SPAN_STACK.with(|s| {
            s.borrow()
                .last()
                .filter(|(id, k, _)| *id == inner.id && *k == key)
                .map(|(_, _, seq)| *seq)
        });
        let start_ns = start.duration_since(inner.epoch).as_nanos() as u64;
        let seq = {
            let mut p = inner.pipeline.lock().unwrap();
            let Some(buf) = p.buf_mut(key) else {
                // The trace finished while this thread still pointed at it
                // (a lifecycle bug upstream); count rather than misfile.
                drop(p);
                inner.registry.inc(Counter::SpansDropped, 1);
                return Span { inner: None };
            };
            // Inside a ticket trace, spans with no open ancestor on this
            // thread parent at the ticket root instead of dangling.
            let parent = parent.or(if key != 0 { Some(trace::ROOT_SEQ) } else { None });
            let (seq, evicted) = buf.push_span(name, parent, start_ns);
            if evicted > 0 {
                drop(p);
                inner.registry.inc(Counter::SpansDropped, evicted);
            }
            seq
        };
        SPAN_STACK.with(|s| s.borrow_mut().push((inner.id, key, seq)));
        Span {
            inner: Some((Arc::clone(inner), key, seq, start)),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((inner, key, seq, start)) = self.inner.take() {
            let dur = (start.elapsed().as_nanos() as u64).max(1);
            {
                let mut p = inner.pipeline.lock().unwrap();
                if let Some(rec) = p.buf_mut(key).and_then(|b| b.get_mut(seq)) {
                    rec.end_ns = Some(rec.start_ns + dur);
                }
            }
            Telemetry::pop_stack_entry(inner.id, key, seq);
        }
    }
}

fn fmt_dur(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}us", ns as f64 / 1e3)
    }
}

/// Indented-tree rendering of a span slice (children under parents, in
/// start order). Parents are matched by sequence id; spans whose parent
/// was evicted from the ring render as roots. Open spans render `(open)`
/// in place of a duration.
pub fn render_span_tree(spans: &[SpanRecord]) -> String {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let parent_pos = s
            .parent
            .and_then(|p| spans.iter().position(|c| c.id == p));
        match parent_pos {
            Some(p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    let mut out = String::new();
    fn walk(
        out: &mut String,
        spans: &[SpanRecord],
        children: &[Vec<usize>],
        i: usize,
        depth: usize,
    ) {
        let s = &spans[i];
        let dur = if s.is_open() { "(open)".to_string() } else { fmt_dur(s.dur_ns()) };
        out.push_str(&format!("{}{} {}\n", "  ".repeat(depth), s.name, dur));
        for &c in &children[i] {
            walk(out, spans, children, c, depth + 1);
        }
    }
    for r in roots {
        walk(&mut out, spans, &children, r, 0);
    }
    out
}

/// Per-name aggregate over a span slice: (name, count, total duration ns),
/// ordered by total duration descending.
pub fn aggregate_spans(spans: &[SpanRecord]) -> Vec<(String, u64, u64)> {
    let mut agg: Vec<(String, u64, u64)> = Vec::new();
    for s in spans {
        match agg.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some((_, count, total)) => {
                *count += 1;
                *total += s.dur_ns();
            }
            None => agg.push((s.name.clone(), 1, s.dur_ns())),
        }
    }
    agg.sort_by_key(|a| std::cmp::Reverse(a.2));
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing() {
        let tel = Telemetry::disabled();
        {
            let _a = tel.span("a");
            let _b = tel.span("b");
        }
        assert!(tel.spans().is_empty());
        assert!(tel.snapshot().is_none());
        assert!(!tel.is_enabled());
    }

    #[test]
    fn span_nesting_follows_guard_scopes() {
        let tel = Telemetry::enabled();
        {
            let _root = tel.span("optimize");
            {
                let _child = tel.span("dispatch");
                let _grand = tel.span("planner.selinger");
            }
            let _sibling = tel.span("explain");
        }
        let spans = tel.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, "optimize");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].name, "dispatch");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "planner.selinger");
        assert_eq!(spans[2].parent, Some(1), "grandchild parents at the open child");
        assert_eq!(spans[3].name, "explain");
        assert_eq!(spans[3].parent, Some(0), "sibling re-parents at the root");
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.id, i as u32, "with no eviction, seq ids match store order");
            assert!(!s.is_open(), "span {:?} was closed", s.name);
            assert!(s.dur_ns() > 0, "closed span {:?} has a stamped duration", s.name);
        }
        // Children start within the root and no earlier than it.
        assert!(spans[1].start_ns >= spans[0].start_ns);
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let tel = Telemetry::enabled();
        {
            let _a = tel.span("a");
        }
        {
            let _b = tel.span("b");
        }
        let spans = tel.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, None);
    }

    #[test]
    fn labeled_span_formats_index() {
        let tel = Telemetry::enabled();
        {
            let _l = tel.span_labeled("selinger.level", 3);
        }
        assert_eq!(tel.spans()[0].name, "selinger.level.3");
    }

    #[test]
    fn spans_from_worker_threads_are_roots() {
        let tel = Telemetry::enabled();
        let _outer = tel.span("outer");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _w = tel.span("worker");
            });
        });
        let spans = tel.spans();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        // The worker thread's stack is empty, so its span is a root — it
        // never parents at a span of another thread (unless a TraceScope
        // is explicitly entered there).
        assert_eq!(worker.parent, None);
    }

    #[test]
    fn open_span_is_marked_open_not_zero_duration() {
        let tel = Telemetry::enabled();
        let _held = tel.span("held");
        let spans = tel.spans();
        assert!(spans[0].is_open());
        assert_eq!(spans[0].end_ns, None);
        assert_eq!(spans[0].dur_ns(), 0);
        assert!(tel.span_tree_text().contains("(open)"));
        drop(_held);
        let spans = tel.spans();
        assert!(!spans[0].is_open());
        assert!(spans[0].dur_ns() > 0);
    }

    #[test]
    fn span_cap_drops_and_counts() {
        let tel = Telemetry::enabled();
        for _ in 0..MAX_SPANS + 10 {
            let _s = tel.span("x");
        }
        assert_eq!(tel.spans().len(), MAX_SPANS);
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.get(Counter::SpansDropped), 10);
        // Ring semantics: the oldest records were evicted, so the store
        // now starts at sequence id 10 and parent links stay stable.
        assert_eq!(tel.spans()[0].id, 10);
    }

    #[test]
    fn tree_render_indents_children() {
        let tel = Telemetry::enabled();
        {
            let _root = tel.span("optimize");
            let _child = tel.span("dispatch");
        }
        let text = tel.span_tree_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("optimize "));
        assert!(lines[1].starts_with("  dispatch "));
    }

    #[test]
    fn aggregate_sums_by_name() {
        let spans = vec![
            SpanRecord { name: "a".into(), id: 0, parent: None, start_ns: 0, end_ns: Some(5) },
            SpanRecord { name: "b".into(), id: 1, parent: None, start_ns: 0, end_ns: Some(100) },
            SpanRecord { name: "a".into(), id: 2, parent: None, start_ns: 0, end_ns: Some(7) },
        ];
        let agg = aggregate_spans(&spans);
        assert_eq!(agg[0], ("b".to_string(), 1, 100));
        assert_eq!(agg[1], ("a".to_string(), 2, 12));
    }

    #[test]
    fn clear_spans_keeps_metrics() {
        let tel = Telemetry::enabled();
        tel.inc(Counter::PlanCostCalls);
        {
            let _s = tel.span("q1");
        }
        tel.clear_spans();
        assert!(tel.spans().is_empty());
        assert_eq!(tel.snapshot().unwrap().get(Counter::PlanCostCalls), 1);
    }
}
