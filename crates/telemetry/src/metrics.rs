//! The metrics registry: enum-indexed atomic counters and fixed-bucket
//! histograms, snapshotted into Prometheus text format.
//!
//! Counters are the source of truth for everything `RaqoStats` reports —
//! the stats struct is a *view* over a registry snapshot, so the two can
//! never diverge. Histograms use fixed bucket boundaries chosen once at
//! compile time: no locks, no allocation on the observe path.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Every counter the optimizer stack increments. The discriminant is the
/// index into the registry's atomic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// `getPlanCost` invocations (one per join operator costed).
    PlanCostCalls,
    /// Resource-planning iterations across all strategies (paper Fig. 13).
    ResourceIterations,
    /// Resource-plan cache hits answered by an exact-key match.
    CacheHitsExact,
    /// Cache hits answered by nearest-neighbor lookup.
    CacheHitsNearest,
    /// Cache hits answered by weighted-average interpolation.
    CacheHitsWeighted,
    /// Cache lookups that missed and fell through to planning.
    CacheMisses,
    /// Always zero: no planner keeps a sub-plan memo any more. Kept only
    /// because the benchmark harness still reports it.
    MemoHits,
    /// Persisted cache files discarded on load (model fingerprint mismatch).
    CacheFileInvalidations,
    /// Batched-kernel chunk evaluations (one per grid chunk).
    BatchChunks,
    /// Hill-climb searches launched.
    HillClimbClimbs,
    /// Randomized-planner improvement rounds executed.
    RandomizedRounds,
    /// Selinger DP levels filled.
    SelingerLevels,
    /// IDP collapse rounds executed (block DP + merge).
    IdpRounds,
    /// Rule-based (decision tree) join dispatches.
    RuleDispatches,
    /// Spans discarded because the span store hit its cap.
    SpansDropped,
    /// Non-finite or negative model outputs mapped to "infeasible" at the
    /// scalar cost boundary.
    CostSanitizationsScalar,
    /// Non-finite-but-not-+Inf or negative outputs sanitized in the batched
    /// cost kernel (+Inf alone is the kernel's legitimate OOM signal).
    CostSanitizationsBatch,
    /// Relation-bound queries bridged with the IDP planner instead of
    /// dropping to the randomized rung.
    DegradationsIdpBridge,
    /// Degradations to ladder rung 2 (randomized planner).
    DegradationsRandomized,
    /// Degradations to ladder rung 3 (rule-based RAQO).
    DegradationsRuleBased,
    /// Sharded-cache lookups routed to shard bucket 0. Shard indices fold
    /// onto [`SHARD_LABEL_BUCKETS`] label buckets via `index % 8`, so banks
    /// with more than 8 shards still split their traffic across all eight
    /// labels (the fold is the identity for N ≤ 8, which covers the default
    /// `next_pow2(2×cores)` on small machines).
    CacheShardLookups0,
    /// Shard bucket 1 (see [`Counter::CacheShardLookups0`]).
    CacheShardLookups1,
    /// Shard bucket 2.
    CacheShardLookups2,
    /// Shard bucket 3.
    CacheShardLookups3,
    /// Shard bucket 4.
    CacheShardLookups4,
    /// Shard bucket 5.
    CacheShardLookups5,
    /// Shard bucket 6.
    CacheShardLookups6,
    /// Shard bucket 7.
    CacheShardLookups7,
    /// Requests admitted into the planning service's bounded queue.
    ServiceAdmitted,
    /// Requests shed at admission (queue full): planned inline at the
    /// bottom degradation rung instead of waiting.
    ServiceShed,
    /// Requests completed by a service worker (shed requests excluded).
    ServiceCompleted,
    /// Ticket traces started via `Telemetry::start_trace`.
    TracesStarted,
    /// Finished traces retained by head or tail sampling.
    TracesRetained,
    /// Finished traces discarded by head sampling (no retention flags).
    TracesSampledOut,
    /// Retained traces evicted from the completed ring to stay under its
    /// span-count capacity (oldest unflagged first).
    TracesEvicted,
    /// Cache-bank entries evicted by compaction (cold/stale entries past
    /// the configured high-water mark).
    CacheEvictions,
    /// TCP connections accepted by the plan server.
    NetConnectionsOpened,
    /// TCP connections closed by the plan server (every open eventually
    /// pairs with a close; the difference is the live-connection count).
    NetConnectionsClosed,
    /// Wire frames decoded from clients.
    NetFramesIn,
    /// Wire frames written to clients.
    NetFramesOut,
    /// Inbound frames rejected as malformed (bad magic/version, oversized,
    /// torn, or an undecodable body) and answered with a typed error frame.
    NetFrameErrors,
    /// Requests shed by the server because the planning service's
    /// admission queue was full, answered with an `Overloaded` error frame.
    NetShedOverloaded,
    /// Connections shed at accept because the connection cap was reached.
    NetShedConnCap,
    /// Wire requests whose deadline budget had already expired when a
    /// planning worker picked them up (planned at the zero-eval rung, not
    /// stale).
    NetShedDeadline,
    /// Connections dropped because the peer stopped reading and its
    /// buffered reply backlog hit the per-connection output cap.
    NetShedSlowReader,
    /// Retransmitted requests answered from the server's reply ring instead
    /// of being re-planned (request-id idempotence).
    NetRepliesDeduped,
    /// Idle connections closed by the reaper (slow-loris defense).
    NetIdleReaped,
    /// Client-side retry attempts (reconnect + resend of the same request
    /// id after an error, timeout, or overload reply).
    NetClientRetries,
    /// Relation subsets the bushy subset DP found a plan for.
    CascadesGroups,
    /// Candidate splits the bushy subset DP costed, each once.
    CascadesExpressions,
    /// Relation subsets the bushy subset DP visited.
    CascadesTasks,
    /// Bushy searches cut short by the planning budget (the plan returned
    /// is the finished levels' best under the seed left-deep chain).
    DegradationsMemoCut,
}

/// Number of `shard="N"` label buckets for sharded-cache lookup counters.
pub const SHARD_LABEL_BUCKETS: usize = 8;

impl Counter {
    pub const ALL: [Counter; 52] = [
        Counter::PlanCostCalls,
        Counter::ResourceIterations,
        Counter::CacheHitsExact,
        Counter::CacheHitsNearest,
        Counter::CacheHitsWeighted,
        Counter::CacheMisses,
        Counter::MemoHits,
        Counter::CacheFileInvalidations,
        Counter::BatchChunks,
        Counter::HillClimbClimbs,
        Counter::RandomizedRounds,
        Counter::SelingerLevels,
        Counter::IdpRounds,
        Counter::RuleDispatches,
        Counter::SpansDropped,
        Counter::CostSanitizationsScalar,
        Counter::CostSanitizationsBatch,
        Counter::DegradationsIdpBridge,
        Counter::DegradationsRandomized,
        Counter::DegradationsRuleBased,
        Counter::CacheShardLookups0,
        Counter::CacheShardLookups1,
        Counter::CacheShardLookups2,
        Counter::CacheShardLookups3,
        Counter::CacheShardLookups4,
        Counter::CacheShardLookups5,
        Counter::CacheShardLookups6,
        Counter::CacheShardLookups7,
        Counter::ServiceAdmitted,
        Counter::ServiceShed,
        Counter::ServiceCompleted,
        Counter::TracesStarted,
        Counter::TracesRetained,
        Counter::TracesSampledOut,
        Counter::TracesEvicted,
        Counter::CacheEvictions,
        Counter::NetConnectionsOpened,
        Counter::NetConnectionsClosed,
        Counter::NetFramesIn,
        Counter::NetFramesOut,
        Counter::NetFrameErrors,
        Counter::NetShedOverloaded,
        Counter::NetShedConnCap,
        Counter::NetShedDeadline,
        Counter::NetShedSlowReader,
        Counter::NetRepliesDeduped,
        Counter::NetIdleReaped,
        Counter::NetClientRetries,
        Counter::CascadesGroups,
        Counter::CascadesExpressions,
        Counter::CascadesTasks,
        Counter::DegradationsMemoCut,
    ];

    /// The lookup counter for shard `index`, folding indices past
    /// [`SHARD_LABEL_BUCKETS`] onto the fixed label set (`index % 8`).
    #[inline]
    pub fn cache_shard(index: usize) -> Counter {
        const SHARDS: [Counter; SHARD_LABEL_BUCKETS] = [
            Counter::CacheShardLookups0,
            Counter::CacheShardLookups1,
            Counter::CacheShardLookups2,
            Counter::CacheShardLookups3,
            Counter::CacheShardLookups4,
            Counter::CacheShardLookups5,
            Counter::CacheShardLookups6,
            Counter::CacheShardLookups7,
        ];
        SHARDS[index % SHARD_LABEL_BUCKETS]
    }

    /// Prometheus metric name (`_total` suffix per convention).
    pub fn name(self) -> &'static str {
        match self {
            Counter::PlanCostCalls => "raqo_plan_cost_calls_total",
            Counter::ResourceIterations => "raqo_resource_iterations_total",
            Counter::CacheHitsExact => "raqo_cache_hits_exact_total",
            Counter::CacheHitsNearest => "raqo_cache_hits_nearest_total",
            Counter::CacheHitsWeighted => "raqo_cache_hits_weighted_total",
            Counter::CacheMisses => "raqo_cache_misses_total",
            Counter::MemoHits => "raqo_memo_hits_total",
            Counter::CacheFileInvalidations => "raqo_cache_file_invalidations_total",
            Counter::BatchChunks => "raqo_batch_chunks_total",
            Counter::HillClimbClimbs => "raqo_hill_climb_climbs_total",
            Counter::RandomizedRounds => "raqo_randomized_rounds_total",
            Counter::SelingerLevels => "raqo_selinger_levels_total",
            Counter::IdpRounds => "raqo_idp_rounds_total",
            Counter::RuleDispatches => "raqo_rule_dispatches_total",
            Counter::SpansDropped => "raqo_spans_dropped_total",
            Counter::CostSanitizationsScalar => "raqo_cost_sanitizations_total{site=\"scalar\"}",
            Counter::CostSanitizationsBatch => "raqo_cost_sanitizations_total{site=\"batch\"}",
            Counter::DegradationsIdpBridge => "raqo_degradations_total{rung=\"idp_bridge\"}",
            Counter::DegradationsRandomized => "raqo_degradations_total{rung=\"randomized\"}",
            Counter::DegradationsRuleBased => "raqo_degradations_total{rung=\"rule_based\"}",
            Counter::CacheShardLookups0 => "raqo_cache_shard_lookups_total{shard=\"0\"}",
            Counter::CacheShardLookups1 => "raqo_cache_shard_lookups_total{shard=\"1\"}",
            Counter::CacheShardLookups2 => "raqo_cache_shard_lookups_total{shard=\"2\"}",
            Counter::CacheShardLookups3 => "raqo_cache_shard_lookups_total{shard=\"3\"}",
            Counter::CacheShardLookups4 => "raqo_cache_shard_lookups_total{shard=\"4\"}",
            Counter::CacheShardLookups5 => "raqo_cache_shard_lookups_total{shard=\"5\"}",
            Counter::CacheShardLookups6 => "raqo_cache_shard_lookups_total{shard=\"6\"}",
            Counter::CacheShardLookups7 => "raqo_cache_shard_lookups_total{shard=\"7\"}",
            Counter::ServiceAdmitted => "raqo_service_admitted_total",
            Counter::ServiceShed => "raqo_service_shed_total",
            Counter::ServiceCompleted => "raqo_service_completed_total",
            Counter::TracesStarted => "raqo_traces_started_total",
            Counter::TracesRetained => "raqo_traces_retained_total",
            Counter::TracesSampledOut => "raqo_traces_sampled_out_total",
            Counter::TracesEvicted => "raqo_traces_evicted_total",
            Counter::CacheEvictions => "raqo_cache_evictions_total",
            Counter::NetConnectionsOpened => "raqo_net_connections_total{event=\"opened\"}",
            Counter::NetConnectionsClosed => "raqo_net_connections_total{event=\"closed\"}",
            Counter::NetFramesIn => "raqo_net_frames_total{dir=\"in\"}",
            Counter::NetFramesOut => "raqo_net_frames_total{dir=\"out\"}",
            Counter::NetFrameErrors => "raqo_net_frame_errors_total",
            Counter::NetShedOverloaded => "raqo_net_shed_total{reason=\"overloaded\"}",
            Counter::NetShedConnCap => "raqo_net_shed_total{reason=\"conn_cap\"}",
            Counter::NetShedDeadline => "raqo_net_shed_total{reason=\"deadline\"}",
            Counter::NetShedSlowReader => "raqo_net_shed_total{reason=\"slow_reader\"}",
            Counter::NetRepliesDeduped => "raqo_net_replies_deduped_total",
            Counter::NetIdleReaped => "raqo_net_idle_reaped_total",
            Counter::NetClientRetries => "raqo_net_client_retries_total",
            Counter::CascadesGroups => "raqo_cascades_groups_total",
            Counter::CascadesExpressions => "raqo_cascades_expressions_total",
            Counter::CascadesTasks => "raqo_cascades_tasks_total",
            Counter::DegradationsMemoCut => "raqo_degradations_total{rung=\"memo_cut\"}",
        }
    }

    /// Prometheus metric *family* name: [`Counter::name`] with any label set
    /// stripped. `HELP`/`TYPE` lines are per-family, series lines per-name.
    pub fn family(self) -> &'static str {
        let name = self.name();
        match name.find('{') {
            Some(brace) => &name[..brace],
            None => name,
        }
    }

    pub fn help(self) -> &'static str {
        match self {
            Counter::PlanCostCalls => "getPlanCost invocations",
            Counter::ResourceIterations => "resource planning iterations",
            Counter::CacheHitsExact => "resource-plan cache exact hits",
            Counter::CacheHitsNearest => "resource-plan cache nearest-neighbor hits",
            Counter::CacheHitsWeighted => "resource-plan cache weighted-average hits",
            Counter::CacheMisses => "resource-plan cache misses",
            Counter::MemoHits => "always zero (no planner keeps a sub-plan memo)",
            Counter::CacheFileInvalidations => "persisted cache files invalidated on fingerprint mismatch",
            Counter::BatchChunks => "batched cost-kernel chunk evaluations",
            Counter::HillClimbClimbs => "hill-climb searches launched",
            Counter::RandomizedRounds => "randomized planner improvement rounds",
            Counter::SelingerLevels => "Selinger DP levels filled",
            Counter::IdpRounds => "IDP collapse rounds (block DP + merge)",
            Counter::RuleDispatches => "rule-based decision-tree join dispatches",
            Counter::SpansDropped => "spans dropped at the span-store cap",
            Counter::CostSanitizationsScalar | Counter::CostSanitizationsBatch => {
                "cost-model outputs sanitized to infeasible at the boundary"
            }
            Counter::DegradationsIdpBridge
            | Counter::DegradationsRandomized
            | Counter::DegradationsRuleBased
            | Counter::DegradationsMemoCut => {
                "optimizer degradations to a lower planning-ladder rung"
            }
            Counter::CacheShardLookups0
            | Counter::CacheShardLookups1
            | Counter::CacheShardLookups2
            | Counter::CacheShardLookups3
            | Counter::CacheShardLookups4
            | Counter::CacheShardLookups5
            | Counter::CacheShardLookups6
            | Counter::CacheShardLookups7 => {
                "sharded-cache lookups per shard label bucket (index % 8)"
            }
            Counter::ServiceAdmitted => "planning-service requests admitted to the queue",
            Counter::ServiceShed => "planning-service requests shed at admission (queue full)",
            Counter::ServiceCompleted => "planning-service requests completed by workers",
            Counter::TracesStarted => "ticket traces started",
            Counter::TracesRetained => "finished traces retained by head or tail sampling",
            Counter::TracesSampledOut => "finished traces discarded by head sampling",
            Counter::TracesEvicted => "retained traces evicted from the completed ring",
            Counter::CacheEvictions => "cache-bank entries evicted by compaction",
            Counter::NetConnectionsOpened | Counter::NetConnectionsClosed => {
                "plan-server TCP connection lifecycle events"
            }
            Counter::NetFramesIn | Counter::NetFramesOut => "wire frames by direction",
            Counter::NetFrameErrors => {
                "malformed inbound frames answered with a typed error frame"
            }
            Counter::NetShedOverloaded
            | Counter::NetShedConnCap
            | Counter::NetShedDeadline
            | Counter::NetShedSlowReader => "plan-server load shed by reason",
            Counter::NetRepliesDeduped => {
                "retried requests answered from the reply ring (idempotence)"
            }
            Counter::NetIdleReaped => "idle connections closed by the reaper",
            Counter::NetClientRetries => "plan-client retry attempts",
            Counter::CascadesGroups => "relation subsets the bushy subset DP planned",
            Counter::CascadesExpressions => "candidate splits the bushy subset DP costed",
            Counter::CascadesTasks => "relation subsets the bushy subset DP visited",
        }
    }
}

/// Histogram bucket boundaries for plan-cost latency, in microseconds.
pub const PLAN_COST_LATENCY_BUCKETS: [u64; 12] =
    [1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 5_000, 10_000];

/// Histogram bucket boundaries for resource iterations per planning call.
pub const RESOURCE_ITERATIONS_BUCKETS: [u64; 12] =
    [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024, 4_096];

/// Histogram bucket boundaries for cache-shard lock acquisition waits, in
/// microseconds. An uncontended acquire lands in the first bucket; the top
/// buckets catch pathological convoys (a writer holding a shard across a
/// snapshot clone).
pub const LOCK_WAIT_BUCKETS: [u64; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024, 10_000];

/// Histogram bucket boundaries for planning-service queue waits, in
/// microseconds (sub-millisecond through multi-second overload tails).
pub const QUEUE_WAIT_BUCKETS: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 100_000, 500_000, 2_000_000,
];

const HIST_BUCKETS: usize = 12;

/// Every histogram the optimizer stack observes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Wall time of one `getPlanCost` call, microseconds.
    PlanCostLatencyUs,
    /// Resource iterations spent by one resource-planning call.
    ResourceIterationsPerCall,
    /// Wall time spent acquiring a cache-shard lock, microseconds.
    CacheLockWaitUs,
    /// Wall time a planning-service request waited in the admission queue
    /// before a worker picked it up, microseconds.
    ServiceQueueWaitUs,
}

impl Hist {
    pub const ALL: [Hist; 4] = [
        Hist::PlanCostLatencyUs,
        Hist::ResourceIterationsPerCall,
        Hist::CacheLockWaitUs,
        Hist::ServiceQueueWaitUs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Hist::PlanCostLatencyUs => "raqo_plan_cost_latency_us",
            Hist::ResourceIterationsPerCall => "raqo_resource_iterations_per_call",
            Hist::CacheLockWaitUs => "raqo_cache_lock_wait_us",
            Hist::ServiceQueueWaitUs => "raqo_service_queue_wait_us",
        }
    }

    pub fn help(self) -> &'static str {
        match self {
            Hist::PlanCostLatencyUs => "getPlanCost wall time in microseconds",
            Hist::ResourceIterationsPerCall => "resource iterations per resource-planning call",
            Hist::CacheLockWaitUs => "cache-shard lock acquisition wait in microseconds",
            Hist::ServiceQueueWaitUs => "planning-service admission-queue wait in microseconds",
        }
    }

    pub fn buckets(self) -> &'static [u64; HIST_BUCKETS] {
        match self {
            Hist::PlanCostLatencyUs => &PLAN_COST_LATENCY_BUCKETS,
            Hist::ResourceIterationsPerCall => &RESOURCE_ITERATIONS_BUCKETS,
            Hist::CacheLockWaitUs => &LOCK_WAIT_BUCKETS,
            Hist::ServiceQueueWaitUs => &QUEUE_WAIT_BUCKETS,
        }
    }
}

/// Stored gauges: point-in-time levels set by the instrumented code (unlike
/// the derived gauges, which are computed from counters at snapshot time).
/// Values are signed so transient dec-past-zero races in concurrent
/// inc/dec pairs cannot wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Requests currently waiting in the planning service's admission queue.
    ServiceQueueDepth,
}

impl Gauge {
    pub const ALL: [Gauge; 1] = [Gauge::ServiceQueueDepth];

    pub fn name(self) -> &'static str {
        match self {
            Gauge::ServiceQueueDepth => "raqo_service_queue_depth",
        }
    }

    pub fn help(self) -> &'static str {
        match self {
            Gauge::ServiceQueueDepth => "requests waiting in the planning-service admission queue",
        }
    }
}

/// One histogram's cells: per-bucket counts plus the +Inf overflow, a
/// value sum, and an observation count. All atomics; observe is lock-free.
#[derive(Default)]
struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    overflow: AtomicU64,
    sum: AtomicU64,
    count: AtomicU64,
}

/// The registry itself: one atomic slot per [`Counter`], one cell block
/// per [`Hist`], one signed slot per [`Gauge`]. Shared across worker
/// threads by reference.
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::ALL.len()],
    hists: [HistCells; Hist::ALL.len()],
    gauges: [AtomicI64; Gauge::ALL.len()],
}

// Derived `Default` needs per-element array impls that std only provides
// up to length 32; the counter array is past that.
impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| HistCells::default()),
            gauges: std::array::from_fn(|_| AtomicI64::new(0)),
        }
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Record one observation. Finds the first bucket whose upper bound
    /// holds the value (cumulative counts are computed at snapshot time).
    #[inline]
    pub fn observe(&self, h: Hist, value: u64) {
        let cells = &self.hists[h as usize];
        match h.buckets().iter().position(|&le| value <= le) {
            Some(i) => cells.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => cells.overflow.fetch_add(1, Ordering::Relaxed),
        };
        cells.sum.fetch_add(value, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Set a stored gauge to an absolute level.
    #[inline]
    pub fn gauge_set(&self, g: Gauge, value: i64) {
        self.gauges[g as usize].store(value, Ordering::Relaxed);
    }

    /// Move a stored gauge by `delta` (negative to decrement).
    #[inline]
    pub fn gauge_add(&self, g: Gauge, delta: i64) {
        self.gauges[g as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level of a stored gauge.
    #[inline]
    pub fn gauge_get(&self, g: Gauge) -> i64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = Counter::ALL.map(|c| self.get(c));
        let hists = Hist::ALL.map(|h| {
            let cells = &self.hists[h as usize];
            HistSnapshot {
                hist: h,
                buckets: std::array::from_fn(|i| cells.buckets[i].load(Ordering::Relaxed)),
                overflow: cells.overflow.load(Ordering::Relaxed),
                sum: cells.sum.load(Ordering::Relaxed),
                count: cells.count.load(Ordering::Relaxed),
            }
        });
        let gauges = Gauge::ALL.map(|g| self.gauge_get(g));
        MetricsSnapshot { counters, hists, gauges }
    }
}

/// Point-in-time histogram state (per-bucket counts, not cumulative).
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    pub hist: Hist,
    pub buckets: [u64; HIST_BUCKETS],
    pub overflow: u64,
    pub sum: u64,
    pub count: u64,
}

/// Point-in-time registry state; renders to JSON and Prometheus text.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    counters: [u64; Counter::ALL.len()],
    hists: [HistSnapshot; Hist::ALL.len()],
    gauges: [i64; Gauge::ALL.len()],
}

impl MetricsSnapshot {
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Stored-gauge level at snapshot time.
    pub fn gauge(&self, g: Gauge) -> i64 {
        self.gauges[g as usize]
    }

    pub fn hist(&self, h: Hist) -> &HistSnapshot {
        &self.hists[h as usize]
    }

    /// Counter delta vs. an earlier snapshot (used for per-query views).
    pub fn delta(&self, earlier: &MetricsSnapshot, c: Counter) -> u64 {
        self.get(c).saturating_sub(earlier.get(c))
    }

    /// Cache hits across all lookup kinds.
    pub fn cache_hits_total(&self) -> u64 {
        self.get(Counter::CacheHitsExact)
            + self.get(Counter::CacheHitsNearest)
            + self.get(Counter::CacheHitsWeighted)
    }

    /// Overall cache hit ratio; `None` until a lookup happened.
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let hits = self.cache_hits_total();
        let lookups = hits + self.get(Counter::CacheMisses);
        (lookups > 0).then(|| hits as f64 / lookups as f64)
    }

    /// Per-kind cache hit ratio over all lookups, in (exact, nearest,
    /// weighted-average) order; `None` until a lookup happened.
    pub fn cache_hit_ratio_by_kind(&self) -> Option<[f64; 3]> {
        let lookups = self.cache_hits_total() + self.get(Counter::CacheMisses);
        (lookups > 0).then(|| {
            [
                Counter::CacheHitsExact,
                Counter::CacheHitsNearest,
                Counter::CacheHitsWeighted,
            ]
            .map(|c| self.get(c) as f64 / lookups as f64)
        })
    }

    /// Prometheus text exposition format (version 0.0.4): HELP/TYPE lines,
    /// counters with `_total` names, histograms with cumulative
    /// `_bucket{le=...}` series plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for &c in Counter::ALL.iter() {
            // Labeled series (e.g. raqo_degradations_total{rung="..."}) share
            // one family; HELP/TYPE must appear once per family.
            if c.family() != last_family {
                last_family = c.family();
                out.push_str(&format!("# HELP {} {}\n", c.family(), c.help()));
                out.push_str(&format!("# TYPE {} counter\n", c.family()));
            }
            out.push_str(&format!("{} {}\n", c.name(), self.get(c)));
        }
        for &h in Hist::ALL.iter() {
            let s = self.hist(h);
            out.push_str(&format!("# HELP {} {}\n", h.name(), h.help()));
            out.push_str(&format!("# TYPE {} histogram\n", h.name()));
            let mut cumulative = 0u64;
            for (&le, &n) in h.buckets().iter().zip(s.buckets.iter()) {
                cumulative += n;
                out.push_str(&format!("{}_bucket{{le=\"{}\"}} {}\n", h.name(), le, cumulative));
            }
            cumulative += s.overflow;
            out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", h.name(), cumulative));
            out.push_str(&format!("{}_sum {}\n", h.name(), s.sum));
            out.push_str(&format!("{}_count {}\n", h.name(), s.count));
        }
        for &g in Gauge::ALL.iter() {
            out.push_str(&format!("# HELP {} {}\n", g.name(), g.help()));
            out.push_str(&format!("# TYPE {} gauge\n", g.name()));
            out.push_str(&format!("{} {}\n", g.name(), self.gauge(g)));
        }
        if let Some(r) = self.cache_hit_ratio() {
            out.push_str("# HELP raqo_cache_hit_ratio overall resource-plan cache hit ratio\n");
            out.push_str("# TYPE raqo_cache_hit_ratio gauge\n");
            out.push_str(&format!("raqo_cache_hit_ratio {r}\n"));
        }
        if let Some(ratios) = self.cache_hit_ratio_by_kind() {
            for (kind, r) in ["exact", "nearest", "weighted"].iter().zip(ratios) {
                let name = format!("raqo_cache_hit_ratio_{kind}");
                out.push_str(&format!("# HELP {name} cache hit ratio, {kind} lookups\n"));
                out.push_str(&format!("# TYPE {name} gauge\n"));
                out.push_str(&format!("{name} {r}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.inc(Counter::PlanCostCalls, 3);
        reg.inc(Counter::PlanCostCalls, 2);
        reg.inc(Counter::CacheMisses, 1);
        let snap = reg.snapshot();
        assert_eq!(snap.get(Counter::PlanCostCalls), 5);
        assert_eq!(snap.get(Counter::CacheMisses), 1);
        assert_eq!(snap.get(Counter::MemoHits), 0);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let reg = MetricsRegistry::new();
        // Boundary semantics are `value <= le` (Prometheus): an observation
        // exactly on a bound lands in that bucket, one past it in the next.
        reg.observe(Hist::PlanCostLatencyUs, 1); // le=1
        reg.observe(Hist::PlanCostLatencyUs, 2); // le=2
        reg.observe(Hist::PlanCostLatencyUs, 3); // le=5
        reg.observe(Hist::PlanCostLatencyUs, 10); // le=10
        reg.observe(Hist::PlanCostLatencyUs, 11); // le=25
        reg.observe(Hist::PlanCostLatencyUs, 10_000); // last finite bucket
        reg.observe(Hist::PlanCostLatencyUs, 10_001); // +Inf overflow
        let s = reg.snapshot();
        let h = s.hist(Hist::PlanCostLatencyUs).clone();
        assert_eq!(h.buckets[0], 1, "value 1 in le=1");
        assert_eq!(h.buckets[1], 1, "value 2 in le=2");
        assert_eq!(h.buckets[2], 1, "value 3 in le=5");
        assert_eq!(h.buckets[3], 1, "value 10 in le=10");
        assert_eq!(h.buckets[4], 1, "value 11 in le=25");
        assert_eq!(h.buckets[11], 1, "value 10000 in le=10000");
        assert_eq!(h.overflow, 1, "value 10001 overflows");
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 1 + 2 + 3 + 10 + 11 + 10_000 + 10_001);
    }

    #[test]
    fn histogram_zero_goes_to_first_bucket() {
        let reg = MetricsRegistry::new();
        reg.observe(Hist::ResourceIterationsPerCall, 0);
        let s = reg.snapshot();
        assert_eq!(s.hist(Hist::ResourceIterationsPerCall).buckets[0], 1);
    }

    #[test]
    fn prometheus_golden() {
        let reg = MetricsRegistry::new();
        reg.inc(Counter::PlanCostCalls, 7);
        reg.inc(Counter::CacheHitsExact, 3);
        reg.inc(Counter::CacheMisses, 1);
        reg.observe(Hist::PlanCostLatencyUs, 4);
        reg.observe(Hist::PlanCostLatencyUs, 4);
        reg.observe(Hist::PlanCostLatencyUs, 80_000);
        let text = reg.snapshot().to_prometheus();

        // Counter block, exactly as Prometheus expects it.
        assert!(text.contains(
            "# HELP raqo_plan_cost_calls_total getPlanCost invocations\n\
             # TYPE raqo_plan_cost_calls_total counter\n\
             raqo_plan_cost_calls_total 7\n"
        ));
        // Histogram block: cumulative buckets, +Inf, sum, count.
        assert!(text.contains("raqo_plan_cost_latency_us_bucket{le=\"5\"} 2\n"));
        assert!(text.contains("raqo_plan_cost_latency_us_bucket{le=\"10000\"} 2\n"));
        assert!(text.contains("raqo_plan_cost_latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("raqo_plan_cost_latency_us_sum 80008\n"));
        assert!(text.contains("raqo_plan_cost_latency_us_count 3\n"));
        // Gauge derived from hit/miss counters: 3 of 4 lookups hit.
        assert!(text.contains("raqo_cache_hit_ratio 0.75\n"));
        // Every line is a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .split_once(' ')
                        .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "malformed exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn shard_counter_folds_onto_label_buckets() {
        assert_eq!(Counter::cache_shard(0), Counter::CacheShardLookups0);
        assert_eq!(Counter::cache_shard(7), Counter::CacheShardLookups7);
        assert_eq!(Counter::cache_shard(8), Counter::CacheShardLookups0);
        assert_eq!(Counter::cache_shard(13), Counter::CacheShardLookups5);
        let reg = MetricsRegistry::new();
        for shard in 0..32 {
            reg.inc(Counter::cache_shard(shard), 1);
        }
        let s = reg.snapshot();
        for bucket in 0..SHARD_LABEL_BUCKETS {
            assert_eq!(s.get(Counter::cache_shard(bucket)), 4, "32 shards fold 4-to-1");
        }
        let total: u64 = (0..SHARD_LABEL_BUCKETS).map(|i| s.get(Counter::cache_shard(i))).sum();
        assert_eq!(total, 32);
        assert!(s
            .to_prometheus()
            .contains("raqo_cache_shard_lookups_total{shard=\"3\"} 4\n"));
    }

    #[test]
    fn stored_gauge_set_add_and_export() {
        let reg = MetricsRegistry::new();
        reg.gauge_set(Gauge::ServiceQueueDepth, 5);
        reg.gauge_add(Gauge::ServiceQueueDepth, 3);
        reg.gauge_add(Gauge::ServiceQueueDepth, -6);
        let s = reg.snapshot();
        assert_eq!(s.gauge(Gauge::ServiceQueueDepth), 2);
        let prom = s.to_prometheus();
        assert!(prom.contains("# TYPE raqo_service_queue_depth gauge\n"));
        assert!(prom.contains("raqo_service_queue_depth 2\n"));
    }

    #[test]
    fn every_metric_appears_in_the_prometheus_export() {
        // Exhaustiveness guard: adding a Counter/Hist/Gauge variant without
        // it reaching the export is a silent observability hole. `name()`
        // strings are the contract, so match on those.
        let reg = MetricsRegistry::new();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            reg.inc(c, i as u64 + 1);
        }
        for &h in Hist::ALL.iter() {
            reg.observe(h, 1);
        }
        for &g in Gauge::ALL.iter() {
            reg.gauge_set(g, 1);
        }
        let snap = reg.snapshot();
        let prom = snap.to_prometheus();
        for &c in Counter::ALL.iter() {
            assert!(prom.contains(&format!("{} ", c.name())), "{} missing in prom", c.name());
        }
        for &h in Hist::ALL.iter() {
            assert!(
                prom.contains(&format!("{}_count ", h.name())),
                "{} missing in prom",
                h.name()
            );
        }
        for &g in Gauge::ALL.iter() {
            assert!(prom.contains(&format!("{} ", g.name())), "{} missing in prom", g.name());
        }
        // Distinct increments round-trip: no two counters alias one cell.
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(snap.get(c), i as u64 + 1, "{} aliased", c.name());
        }
    }

    #[test]
    fn cache_hit_ratio_by_kind_sums_with_misses() {
        let reg = MetricsRegistry::new();
        reg.inc(Counter::CacheHitsExact, 2);
        reg.inc(Counter::CacheHitsNearest, 1);
        reg.inc(Counter::CacheHitsWeighted, 1);
        reg.inc(Counter::CacheMisses, 4);
        let s = reg.snapshot();
        let [e, n, w] = s.cache_hit_ratio_by_kind().unwrap();
        assert_eq!(e, 0.25);
        assert_eq!(n, 0.125);
        assert_eq!(w, 0.125);
        assert_eq!(s.cache_hit_ratio().unwrap(), 0.5);
    }
}
