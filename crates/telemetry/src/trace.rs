//! The trace pipeline: per-ticket span ring buffers and two-stage
//! sampling.
//!
//! Every planning ticket gets its own trace ([`Telemetry::start_trace`]):
//! a bounded ring of [`SpanRecord`]s plus string attributes (tenant
//! namespace, priority class, …) and a deterministic 128-bit trace id.
//! Spans opened by a thread that has [`TraceContext::enter`]ed the trace
//! record into that ring and parent under the ticket root instead of the
//! thread-local ambient stack.
//!
//! Sampling is two-stage:
//!
//! * **Head**: the trace id is derived from `(seed, ticket counter)` by a
//!   splitmix64 mix, and the keep/discard decision compares its high half
//!   against `head_rate` — deterministic and reproducible for a given
//!   seed, no RNG state.
//! * **Tail**: traces flagged [`TraceFlags::DEGRADED`],
//!   [`TraceFlags::BUDGET_EXHAUSTED`], or [`TraceFlags::COST_SANITIZED`]
//!   are *always* retained, regardless of the head decision. Flags are
//!   raised automatically when the corresponding counters fire on the
//!   thread that entered the trace.
//!
//! Retained traces land in a completed-trace ring bounded by total span
//! count; when it overflows, the oldest *unflagged* traces are evicted
//! first, so flagged (interesting) traces survive as long as anything
//! does.

use crate::span::{Inner, SpanRecord, Telemetry};
use crate::Counter;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

/// Sequence id of a trace's root span (always the first record pushed).
pub(crate) const ROOT_SEQ: u32 = 0;

/// Span ring capacity of each ticket trace.
pub const DEFAULT_TRACE_SPAN_CAP: usize = 8_192;

/// Bitset of retention-relevant conditions observed during a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceFlags(pub u8);

impl TraceFlags {
    pub const NONE: TraceFlags = TraceFlags(0);
    /// A degradation rung fired (IDP bridge, reduced randomized, rule-based,
    /// or a bushy search cut short by its budget: memo cut).
    pub const DEGRADED: TraceFlags = TraceFlags(1);
    /// A planning budget (deadline or eval cap) was exhausted.
    pub const BUDGET_EXHAUSTED: TraceFlags = TraceFlags(4);
    /// A non-finite/negative cost-model output was sanitized.
    pub const COST_SANITIZED: TraceFlags = TraceFlags(8);

    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub fn union(self, other: TraceFlags) -> TraceFlags {
        TraceFlags(self.0 | other.0)
    }

    #[inline]
    pub fn contains(self, other: TraceFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

/// Counters whose firing marks the current trace as tail-retention
/// worthy.
pub(crate) fn auto_flag(c: Counter) -> TraceFlags {
    match c {
        Counter::CostSanitizationsScalar | Counter::CostSanitizationsBatch => {
            TraceFlags::COST_SANITIZED
        }
        Counter::DegradationsIdpBridge
        | Counter::DegradationsRandomized
        | Counter::DegradationsRuleBased
        | Counter::DegradationsMemoCut => TraceFlags::DEGRADED,
        _ => TraceFlags::NONE,
    }
}

/// Sampling configuration for the trace pipeline. The span rings have
/// fixed capacities: [`MAX_SPANS`](crate::MAX_SPANS) for the ambient
/// trace and for all completed traces together, and
/// [`DEFAULT_TRACE_SPAN_CAP`] for each ticket trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Fraction of traces kept by head sampling, in `[0, 1]`. The
    /// decision is deterministic in `(seed, ticket counter)`.
    pub head_rate: f64,
    /// Seed mixed into trace ids (and therefore the head decision).
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { head_rate: 1.0, seed: 0 }
    }
}

impl TraceConfig {
    /// Deterministic head-sampling decision for a trace id.
    pub fn head_keeps(&self, trace_id: u128) -> bool {
        if self.head_rate >= 1.0 {
            return true;
        }
        if self.head_rate <= 0.0 {
            return false;
        }
        let hi = (trace_id >> 64) as u64;
        hi < (self.head_rate * u64::MAX as f64) as u64
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic 128-bit trace id for ticket `key` under `seed`.
pub(crate) fn trace_id_for(seed: u64, key: u64) -> u128 {
    let hi = splitmix64(seed ^ splitmix64(key));
    let lo = splitmix64(hi ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let id = ((hi as u128) << 64) | lo as u128;
    if id == 0 {
        1
    } else {
        id
    }
}

/// One trace's in-flight state: a bounded span ring plus metadata.
pub(crate) struct TraceBuf {
    pub(crate) name: String,
    pub(crate) trace_id: u128,
    pub(crate) attrs: Vec<(String, String)>,
    pub(crate) spans: VecDeque<SpanRecord>,
    pub(crate) next_seq: u32,
    pub(crate) flags: TraceFlags,
    pub(crate) cap: usize,
}

impl TraceBuf {
    pub(crate) fn new(name: String, trace_id: u128, cap: usize) -> Self {
        TraceBuf {
            name,
            trace_id,
            attrs: Vec::new(),
            spans: VecDeque::new(),
            next_seq: 0,
            flags: TraceFlags::NONE,
            cap: cap.max(1),
        }
    }

    /// Push a span, evicting the oldest record when the ring is full.
    /// Returns the new span's sequence id and how many records were
    /// evicted (0 or 1).
    pub(crate) fn push_span(
        &mut self,
        name: String,
        parent: Option<u32>,
        start_ns: u64,
    ) -> (u32, u64) {
        let mut evicted = 0;
        if self.spans.len() >= self.cap {
            self.spans.pop_front();
            evicted = 1;
        }
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.spans.push_back(SpanRecord {
            name,
            id: seq,
            parent,
            start_ns,
            end_ns: None,
        });
        (seq, evicted)
    }

    /// Locate a live record by sequence id (O(1): ids are dense and the
    /// ring is ordered).
    pub(crate) fn get_mut(&mut self, seq: u32) -> Option<&mut SpanRecord> {
        let front = self.spans.front()?.id;
        let offset = seq.checked_sub(front)? as usize;
        let rec = self.spans.get_mut(offset)?;
        debug_assert_eq!(rec.id, seq);
        Some(rec)
    }
}

/// A finished trace retained in the completed ring.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    /// Deterministic 128-bit id (`ServiceReply.trace_id`).
    pub trace_id: u128,
    /// The ticket name given to [`Telemetry::start_trace`].
    pub name: String,
    /// Trace-level attributes (tenant namespace, priority class, …).
    pub attrs: Vec<(String, String)>,
    /// Conditions observed during the trace.
    pub flags: TraceFlags,
    /// The span ring's contents at finish, oldest first.
    pub spans: Vec<SpanRecord>,
}

impl CompletedTrace {
    /// The root span, if it survived eviction.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == ROOT_SEQ)
    }
}

/// Shared pipeline state behind the telemetry handle's mutex.
pub(crate) struct Pipeline {
    pub(crate) config: TraceConfig,
    /// Trace key 0: the legacy ambient store behind [`Telemetry::spans`].
    pub(crate) ambient: TraceBuf,
    /// In-flight ticket traces, keyed by nonzero trace key.
    pub(crate) active: Vec<(u64, TraceBuf)>,
    /// Retained completed traces, oldest first.
    pub(crate) completed: VecDeque<CompletedTrace>,
    /// Total spans across `completed`.
    pub(crate) completed_spans: usize,
    next_key: u64,
}

impl Pipeline {
    pub(crate) fn new(config: TraceConfig) -> Self {
        Pipeline {
            ambient: TraceBuf::new(
                "ambient".to_string(),
                trace_id_for(config.seed, 0),
                crate::MAX_SPANS,
            ),
            active: Vec::new(),
            completed: VecDeque::new(),
            completed_spans: 0,
            next_key: 1,
            config,
        }
    }

    pub(crate) fn buf_mut(&mut self, key: u64) -> Option<&mut TraceBuf> {
        if key == 0 {
            Some(&mut self.ambient)
        } else {
            self.active.iter_mut().find(|(k, _)| *k == key).map(|(_, b)| b)
        }
    }

    pub(crate) fn start_trace_buf(&mut self, name: &str) -> (u64, u128) {
        let key = self.next_key;
        self.next_key += 1;
        let trace_id = trace_id_for(self.config.seed, key);
        self.active.push((
            key,
            TraceBuf::new(name.to_string(), trace_id, DEFAULT_TRACE_SPAN_CAP),
        ));
        (key, trace_id)
    }

    /// Remove a finished trace, run the retention decision and admit a
    /// retained trace into the completed ring. Returns whether the trace
    /// was retained and how many completed traces it evicted, or `None`
    /// when the key was already finished.
    pub(crate) fn finish(&mut self, key: u64, end_ns: u64) -> Option<(bool, u64)> {
        let pos = self.active.iter().position(|(k, _)| *k == key)?;
        let (_, mut buf) = self.active.remove(pos);
        // Stamp the root (and leave any other still-open spans marked
        // open — the span tree renders them as such).
        if let Some(root) = buf.get_mut(ROOT_SEQ) {
            if root.end_ns.is_none() {
                root.end_ns = Some(root.start_ns.max(end_ns).max(root.start_ns + 1));
            }
        }
        if !self.config.head_keeps(buf.trace_id) && buf.flags.is_empty() {
            return Some((false, 0));
        }
        let evicted = self.admit(CompletedTrace {
            trace_id: buf.trace_id,
            name: buf.name,
            attrs: buf.attrs,
            flags: buf.flags,
            spans: buf.spans.into_iter().collect(),
        });
        Some((true, evicted))
    }

    /// Admit a retained trace into the completed ring, evicting oldest
    /// unflagged traces (then oldest flagged, if nothing else is left) to
    /// stay under [`MAX_SPANS`](crate::MAX_SPANS) spans. Returns evicted
    /// trace count.
    fn admit(&mut self, trace: CompletedTrace) -> u64 {
        let n = trace.spans.len();
        let mut evicted = 0;
        while !self.completed.is_empty() && self.completed_spans + n > crate::MAX_SPANS {
            let victim = self
                .completed
                .iter()
                .position(|t| t.flags.is_empty())
                .unwrap_or(0);
            if let Some(t) = self.completed.remove(victim) {
                self.completed_spans -= t.spans.len();
                evicted += 1;
            }
        }
        self.completed_spans += n;
        self.completed.push_back(trace);
        evicted
    }
}

/// Per-ticket trace handle. Clone-able and `Send`; inert (every method
/// free) when telemetry is disabled.
#[derive(Clone)]
pub struct TraceContext {
    inner: Option<(Arc<Inner>, u64, u128)>,
}

impl TraceContext {
    /// A context that records nothing.
    pub const fn inert() -> Self {
        TraceContext { inner: None }
    }

    pub(crate) fn start(inner: &Arc<Inner>, name: &str) -> Self {
        let start = Instant::now();
        let start_ns = start.duration_since(inner.epoch).as_nanos() as u64;
        let (key, trace_id) = {
            let mut p = inner.pipeline.lock().unwrap();
            let (key, trace_id) = p.start_trace_buf(name);
            // The root span (seq 0) carries the ticket name; it opens now
            // and closes when the context finishes.
            if let Some(buf) = p.buf_mut(key) {
                buf.push_span(name.to_string(), None, start_ns);
            }
            (key, trace_id)
        };
        inner.registry.inc(Counter::TracesStarted, 1);
        TraceContext {
            inner: Some((Arc::clone(inner), key, trace_id)),
        }
    }

    /// The deterministic trace id (0 when inert).
    pub fn trace_id(&self) -> u128 {
        self.inner.as_ref().map_or(0, |(_, _, id)| *id)
    }

    /// Attach a trace-level attribute. The value is only formatted when
    /// the context is recording.
    pub fn attr(&self, key: &str, value: impl std::fmt::Display) {
        if let Some((inner, k, _)) = &self.inner {
            let mut p = inner.pipeline.lock().unwrap();
            if let Some(buf) = p.buf_mut(*k) {
                buf.attrs.push((key.to_string(), value.to_string()));
            }
        }
    }

    /// Raise retention flags on this trace.
    pub fn flag(&self, flags: TraceFlags) {
        if let Some((inner, k, _)) = &self.inner {
            let mut p = inner.pipeline.lock().unwrap();
            if let Some(buf) = p.buf_mut(*k) {
                buf.flags = buf.flags.union(flags);
            }
        }
    }

    /// Make this trace the current thread's span destination until the
    /// guard drops. Spans opened meanwhile parent under the ticket root.
    pub fn enter(&self) -> TraceGuard {
        match &self.inner {
            None => TraceGuard { prev: None, _not_send: PhantomData },
            Some((inner, key, _)) => {
                let prev = Telemetry::set_current_trace(inner.id, *key);
                TraceGuard { prev: Some(prev), _not_send: PhantomData }
            }
        }
    }

    /// Finish the trace: stamp the root span, run the head/tail retention
    /// decision, and (if retained) admit it into the completed ring.
    /// Idempotent across clones — the first finish wins.
    pub fn finish(self) {
        let Some((inner, key, _)) = self.inner else { return };
        let end_ns = Instant::now().duration_since(inner.epoch).as_nanos() as u64;
        let Some((retained, ring_evicted)) = inner.pipeline.lock().unwrap().finish(key, end_ns)
        else {
            return;
        };
        if retained {
            inner.registry.inc(Counter::TracesRetained, 1);
        } else {
            inner.registry.inc(Counter::TracesSampledOut, 1);
        }
        if ring_evicted > 0 {
            inner.registry.inc(Counter::TracesEvicted, ring_evicted);
        }
    }
}

/// RAII guard from [`TraceContext::enter`]; restores the thread's previous
/// trace destination on drop. Not `Send` — it must drop on the thread
/// that entered.
pub struct TraceGuard {
    prev: Option<(u64, u64)>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            Telemetry::restore_current_trace(prev);
        }
    }
}
