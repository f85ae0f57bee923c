//! The concurrent planning service: an admission queue in front of a
//! worker pool of optimizers sharing one sharded resource-plan cache.
//!
//! The paper's optimizer is a library call; a shared cluster runs it as a
//! *service* — many tenants submitting `optimize()` requests at once, an
//! admission queue absorbing bursts (the same queueing physics
//! `raqo-sim::queue` models for the cluster itself, here applied to the
//! optimizer), and admission control shedding load instead of letting the
//! backlog grow without bound. [`PlanningService`] provides exactly that:
//!
//! * a bounded multi-class [`AdmissionQueue`] (Interactive > Standard >
//!   Batch) feeding `workers` threads, each owning a full
//!   [`RaqoOptimizer`] built by the caller's factory;
//! * per-class [`PlanningBudget`]s, so an interactive request degrades
//!   down the planning ladder quickly while a batch request may search
//!   longer;
//! * one [`ShardedCacheBank`] shared by every worker, with per-request
//!   tenant namespaces keying cache entries apart, and optional periodic
//!   incremental checkpoints of that bank every `checkpoint_every`
//!   completed plans, taken by the completing worker after it has replied;
//! * a shed path that still answers: when the queue is full the request
//!   is planned inline under a zero-evaluation budget, so the ladder
//!   drops straight to its cheap bottom rungs and the caller receives a
//!   [`Degradation`](crate::Degradation)-annotated plan rather than an error.
//!
//! Two entry points share one admission path. [`PlanningService::submit`]
//! returns a [`PlanTicket`] to block on and sheds inline when the queue is
//! full. [`PlanningService::try_submit_with`] takes a reply hook instead —
//! it runs once, on the worker thread that planned the request — and hands
//! the request back unplanned when the queue is full, so a caller on an
//! I/O thread (the `raqo-net` event loop) never waits and never plans.
//! Either way a job dropped unanswered, by a worker unwinding out of a
//! panicking plan, still answers: with a `None`-plan reply.
//!
//! Queue depth, queue-wait, and shed/admit/complete counters flow through
//! `raqo-telemetry` (`raqo_service_queue_depth`,
//! `raqo_service_queue_wait_us`, `raqo_service_*_total`).

use crate::optimizer::{RaqoOptimizer, RaqoPlan};
use raqo_catalog::QuerySpec;
use raqo_cost::OperatorCost;
use raqo_resource::{PlanningBudget, ShardedCacheBank};
use raqo_sim::AdmissionQueue;
use raqo_telemetry::{Counter, Gauge, Hist, Telemetry, TraceContext};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Request priority class; lower classes are served first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// A user is waiting on the answer.
    Interactive = 0,
    /// Normal scheduled queries.
    Standard = 1,
    /// Background / speculative planning.
    Batch = 2,
}

impl Priority {
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Batch];

    fn from_class(class: usize) -> Priority {
        Priority::ALL[class]
    }

    /// Stable lowercase name, used as the trace attribute value.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }
}

/// Service knobs. `budgets` maps 1:1 onto [`Priority::ALL`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads, each owning one optimizer.
    pub workers: usize,
    /// Total queued requests across all classes before admission control
    /// sheds new arrivals.
    pub queue_capacity: usize,
    /// Planning budget per priority class (interactive, standard, batch).
    pub budgets: [PlanningBudget; 3],
    /// Checkpoint the shared cache bank after every this many completed
    /// plans; 0 disables checkpointing.
    pub checkpoint_every: u64,
    /// Where checkpoints go (required when `checkpoint_every > 0`).
    pub checkpoint_path: Option<PathBuf>,
    /// Cost-model fingerprint stamped into checkpoints.
    pub model_fingerprint: Option<u64>,
    /// Compact the shared bank down to this many entries (coldest first,
    /// see [`ShardedCacheBank::compact`]) at each periodic checkpoint, so
    /// a long-lived service's cache cannot grow without bound. `None`
    /// disables compaction.
    pub compact_high_water: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            budgets: [
                PlanningBudget::with_max_evals(20_000),
                PlanningBudget::with_max_evals(200_000),
                PlanningBudget::unlimited(),
            ],
            checkpoint_every: 0,
            checkpoint_path: None,
            model_fingerprint: None,
            compact_high_water: None,
        }
    }
}

/// One planning request.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    pub query: QuerySpec,
    pub priority: Priority,
    /// Tenant/workload cache namespace (0 = the shared default space).
    pub namespace: u32,
    /// Absolute wall-clock deadline for the *whole* request: queue wait
    /// counts against it. The worker that picks the request up plans under
    /// the remaining time (capped by the class budget); a request whose
    /// deadline already passed in the queue is planned under a
    /// zero-evaluation budget — the ladder's cheap bottom rung — rather
    /// than planned stale, and the reply says so.
    pub deadline: Option<Instant>,
}

impl PlanRequest {
    pub fn new(query: QuerySpec, priority: Priority) -> Self {
        PlanRequest { query, priority, namespace: 0, deadline: None }
    }

    pub fn with_namespace(mut self, namespace: u32) -> Self {
        self.namespace = namespace;
        self
    }

    /// Give the request `budget` of wall clock from now, queue wait
    /// included.
    pub fn with_deadline(self, budget: Duration) -> Self {
        self.with_deadline_at(Instant::now() + budget)
    }

    /// Set the absolute deadline instant (e.g. decoded from a wire frame's
    /// deadline-budget field at read time, so server-side queueing counts).
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The service's answer: always a plan (the shed path degrades rather
/// than refuses), annotated with how the request was handled.
#[derive(Debug, Clone)]
pub struct ServiceReply {
    /// The plan; `None` only if the optimizer found the query outright
    /// unplannable (no feasible join at all), which the ladder's
    /// rule-based rung prevents for any executable query, or if the worker
    /// planning it panicked.
    pub plan: Option<RaqoPlan>,
    pub priority: Priority,
    /// True when admission control shed the request and it was planned
    /// inline under a zero-evaluation budget.
    pub shed: bool,
    /// Time spent queued before a worker picked the request up (0 for
    /// shed requests — they never queued).
    pub queue_wait_us: u64,
    /// Planning time on the worker, in microseconds.
    pub service_us: u64,
    /// The ticket's telemetry trace id (0 when telemetry is disabled),
    /// for finding the ticket's trace among
    /// `Telemetry::completed_traces` (`CompletedTrace::trace_id`).
    pub trace_id: u128,
    /// True when the request's [`PlanRequest::deadline`] had already
    /// passed by the time a worker picked it up: the plan was produced at
    /// the zero-evaluation rung instead of being planned stale.
    pub deadline_expired: bool,
}

/// Typed error from [`PlanTicket::wait_timeout`]: the reply did not arrive
/// within the allowed wait. The ticket is consumed; the request may still
/// complete on the worker, but nobody is listening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeout;

impl std::fmt::Display for WaitTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "planning-service ticket wait timed out")
    }
}

impl std::error::Error for WaitTimeout {}

impl ServiceReply {
    /// The reply a job dropped unanswered degenerates to (never a hang).
    fn lost_worker() -> ServiceReply {
        ServiceReply {
            plan: None,
            priority: Priority::Standard,
            shed: false,
            queue_wait_us: 0,
            service_us: 0,
            trace_id: 0,
            deadline_expired: false,
        }
    }
}

/// Handle to a submitted request.
pub struct PlanTicket {
    rx: mpsc::Receiver<ServiceReply>,
}

impl PlanTicket {
    /// Block until the reply arrives. A worker dying mid-request answers
    /// with a `None` plan reply rather than leaving this to hang.
    pub fn wait(self) -> ServiceReply {
        self.rx.recv().unwrap_or_else(|_| ServiceReply::lost_worker())
    }

    /// Block until the reply arrives or `timeout` passes, whichever comes
    /// first. A wedged service surfaces as a typed [`WaitTimeout`] instead
    /// of blocking its caller forever.
    pub fn wait_timeout(self, timeout: Duration) -> Result<ServiceReply, WaitTimeout> {
        match self.rx.recv_timeout(timeout) {
            Ok(reply) => Ok(reply),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(WaitTimeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Ok(ServiceReply::lost_worker()),
        }
    }
}

/// A caller's completion hook (see [`PlanningService::try_submit_with`]).
type ReplyFn = Box<dyn FnOnce(ServiceReply) + Send>;

/// A job's completion hook, run exactly once: with the worker's reply, or
/// — when the job is dropped unanswered, i.e. by a worker unwinding out of
/// a panicking plan — with [`ServiceReply::lost_worker`], so the caller is
/// answered instead of left to time out.
struct ReplyHook(Option<ReplyFn>);

impl ReplyHook {
    fn send(mut self, reply: ServiceReply) {
        if let Some(hook) = self.0.take() {
            hook(reply);
        }
    }
}

impl Drop for ReplyHook {
    fn drop(&mut self) {
        if let Some(hook) = self.0.take() {
            hook(ServiceReply::lost_worker());
        }
    }
}

struct Job {
    request: PlanRequest,
    enqueued: Instant,
    reply: ReplyHook,
    /// The ticket's trace, opened at submission so the queue wait is part
    /// of the trace; the worker enters it while planning and finishes it
    /// after replying.
    trace: TraceContext,
}

impl Job {
    /// Admission refused the job: drop its hook uncalled, close its trace,
    /// and hand the request back.
    fn refuse(self) -> PlanRequest {
        let Job { request, mut reply, trace, .. } = self;
        reply.0 = None;
        trace.attr("admission.refused", true);
        trace.finish();
        request
    }
}

struct Shared {
    queue: Mutex<AdmissionQueue<Job>>,
    work_ready: Condvar,
    stop: AtomicBool,
    completed: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
}

/// The shed path's inline planner: one request in, its plan out.
type ShedLane = Box<dyn FnMut(&PlanRequest) -> Option<RaqoPlan> + Send>;

/// The admission-queue planning service. Dropping the service stops the
/// workers after they drain every admitted request, so no ticket is ever
/// left hanging.
pub struct PlanningService {
    shared: Arc<Shared>,
    config: ServiceConfig,
    bank: ShardedCacheBank,
    telemetry: Telemetry,
    /// Inline planner for the shed path, shared by submitting threads.
    shed_lane: Mutex<ShedLane>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

// Poisoning: a panicking optimizer inside a worker would poison a std
// mutex; recover the guard — the protected state (queue, shed optimizer)
// stays structurally valid because every mutation is a single call.
fn lock_queue<'m>(m: &'m Mutex<AdmissionQueue<Job>>) -> std::sync::MutexGuard<'m, AdmissionQueue<Job>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl PlanningService {
    /// Start the service. `build` is called once per worker (plus once for
    /// the shed lane) and must yield an independent optimizer; the service
    /// installs the shared sharded bank, the per-request namespace, and
    /// the per-class budget on top of whatever the factory configures.
    pub fn start<M, F>(
        config: ServiceConfig,
        bank: ShardedCacheBank,
        telemetry: Telemetry,
        build: F,
    ) -> Self
    where
        M: OperatorCost + Send + Sync + 'static,
        F: Fn(usize) -> RaqoOptimizer<'static, M>,
    {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(AdmissionQueue::bounded(
                Priority::ALL.len(),
                config.queue_capacity.max(1),
            )),
            work_ready: Condvar::new(),
            stop: AtomicBool::new(false),
            completed: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let mut optimizer = build(w);
            optimizer.share_sharded_cache(bank.clone().with_telemetry(telemetry.clone()));
            optimizer.set_telemetry(telemetry.clone());
            let shared = Arc::clone(&shared);
            let config = config.clone();
            // Telemetry-attached handle: checkpoint-time compaction counts
            // its evictions on this worker's sink.
            let bank = bank.clone().with_telemetry(telemetry.clone());
            let tel = telemetry.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(&shared, &config, &bank, &tel, &mut optimizer);
            }));
        }
        // The shed lane plans inline under a zero-evaluation budget: the
        // ladder falls through its cheap bottom rungs and still returns an
        // annotated plan.
        let mut shed_opt = build(workers);
        shed_opt.share_sharded_cache(bank.clone().with_telemetry(telemetry.clone()));
        shed_opt.set_telemetry(telemetry.clone());
        shed_opt.set_budget(PlanningBudget::with_max_evals(0));
        let shed_lane: ShedLane = Box::new(move |request: &PlanRequest| {
            shed_opt.set_cache_namespace(request.namespace);
            shed_opt.optimize(&request.query)
        });
        PlanningService {
            shared,
            config,
            bank,
            telemetry,
            shed_lane: Mutex::new(shed_lane),
            workers: handles,
        }
    }

    /// Submit a request. Admitted requests return a ticket that resolves
    /// when a worker finishes; shed requests are answered inline (the
    /// ticket resolves immediately).
    pub fn submit(&self, request: PlanRequest) -> PlanTicket {
        let (tx, rx) = mpsc::channel();
        let hook = Box::new(move |reply| {
            let _ = tx.send(reply);
        });
        if let Err(job) = self.enqueue(request, hook) {
            self.shed_inline(job);
        }
        PlanTicket { rx }
    }

    /// Submit a request whose reply goes to `on_reply` instead of a ticket.
    /// The hook runs once, on the worker thread that planned the request,
    /// before that worker does anything else — so it should be short (the
    /// wire front end encodes the reply and posts it to its event loop). A
    /// worker that panics mid-plan still runs it, with a `None` plan.
    ///
    /// When the admission queue is full the request comes back unplanned
    /// (`Err`) and the hook is dropped uncalled: no inline shed lane, no
    /// [`shed`](Self::shed) count, so the caller never plans on its own
    /// thread and answers the overload however it sees fit.
    pub fn try_submit_with<F>(&self, request: PlanRequest, on_reply: F) -> Result<(), PlanRequest>
    where
        F: FnOnce(ServiceReply) + Send + 'static,
    {
        self.enqueue(request, Box::new(on_reply)).map_err(Job::refuse)
    }

    /// The one admission path: open the request's trace and push it onto
    /// the queue, or hand the job back when the queue is full.
    #[allow(clippy::result_large_err)] // the job moves back only on overload
    fn enqueue(&self, request: PlanRequest, reply: ReplyFn) -> Result<(), Job> {
        let class = request.priority as usize;
        // Each ticket is one trace; the tenant namespace and priority
        // class ride along as attributes so an operator can attribute any
        // exported trace without joining against request logs.
        let trace = self.telemetry.start_trace("plan.ticket");
        trace.attr("tenant.namespace", request.namespace);
        trace.attr("priority.class", request.priority.name());
        let job = Job { request, enqueued: Instant::now(), reply: ReplyHook(Some(reply)), trace };
        {
            let mut queue = lock_queue(&self.shared.queue);
            let pushed = queue.try_push(class, job);
            self.telemetry.gauge_set(Gauge::ServiceQueueDepth, queue.len() as i64);
            pushed?;
        }
        self.shared.admitted.fetch_add(1, Ordering::Relaxed);
        self.telemetry.inc(Counter::ServiceAdmitted);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// `submit`'s answer to a full queue: plan inline under a
    /// zero-evaluation budget.
    fn shed_inline(&self, job: Job) {
        self.shared.shed.fetch_add(1, Ordering::Relaxed);
        self.telemetry.inc(Counter::ServiceShed);
        job.trace.attr("shed", true);
        let sw = Instant::now();
        let plan = {
            // Entering the trace here makes the zero-budget ladder's
            // degradation counters flag it for tail retention.
            let _in_trace = job.trace.enter();
            let mut lane = self.shed_lane.lock().unwrap_or_else(|e| e.into_inner());
            lane(&job.request)
        };
        let trace_id = job.trace.trace_id();
        job.reply.send(ServiceReply {
            plan,
            priority: job.request.priority,
            shed: true,
            queue_wait_us: 0,
            service_us: sw.elapsed().as_micros() as u64,
            trace_id,
            deadline_expired: false,
        });
        job.trace.finish();
    }

    /// Plans completed by workers so far (excludes shed replies).
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Requests admitted to the queue so far.
    pub fn admitted(&self) -> u64 {
        self.shared.admitted.load(Ordering::Relaxed)
    }

    /// Requests shed by admission control so far.
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// The shared cache bank handle.
    pub fn bank(&self) -> ShardedCacheBank {
        self.bank.clone()
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Run the configured cache-bank housekeeping now: compaction down to
    /// `compact_high_water`, then a checkpoint to `checkpoint_path`.
    /// Workers do it after replying to every `checkpoint_every`-th plan; a
    /// front end calls this once it has drained, so a restart starts warm.
    pub fn housekeep(&self) {
        housekeep(&self.config, &self.bank);
    }

    /// Stop accepting the queue as a live service and wait for the
    /// workers to drain every admitted request.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for PlanningService {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Cache-bank housekeeping: compact `bank` down to `compact_high_water`
/// first, so a long-lived bank stays bounded and the checkpoint reflects
/// the compacted contents, then checkpoint it to `checkpoint_path` with
/// the model fingerprint. A failed checkpoint is dropped: the previous
/// file stays in place and the next round writes everything again.
fn housekeep(config: &ServiceConfig, bank: &ShardedCacheBank) {
    if let Some(high_water) = config.compact_high_water {
        bank.compact(high_water);
    }
    if let Some(path) = &config.checkpoint_path {
        let _ = match config.model_fingerprint {
            Some(fp) => bank.checkpoint_with_fingerprint(path, fp),
            None => bank.checkpoint(path),
        };
    }
}

fn worker_loop<M: OperatorCost + Send + Sync>(
    shared: &Shared,
    config: &ServiceConfig,
    bank: &ShardedCacheBank,
    tel: &Telemetry,
    optimizer: &mut RaqoOptimizer<'static, M>,
) {
    loop {
        let job = {
            let mut queue = lock_queue(&shared.queue);
            loop {
                if let Some((class, job)) = queue.pop_next() {
                    tel.gauge_set(Gauge::ServiceQueueDepth, queue.len() as i64);
                    break Some((class, job));
                }
                if shared.stop.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some((class, job)) = job else { return };
        let wait_us = job.enqueued.elapsed().as_micros() as u64;
        tel.observe(Hist::ServiceQueueWaitUs, wait_us);
        job.trace.attr("queue.wait_us", wait_us);
        // Per-request deadlines tighten (never loosen) the class budget,
        // measured from now — the queue wait has already been spent.
        let mut deadline_expired = false;
        let budget = match job.request.deadline {
            None => config.budgets[class],
            Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                Some(remaining) if !remaining.is_zero() => {
                    config.budgets[class].and_deadline(remaining)
                }
                _ => {
                    // The deadline passed while the request queued: answer
                    // from the ladder's zero-evaluation bottom rung rather
                    // than plan stale.
                    deadline_expired = true;
                    job.trace.attr("deadline.expired", true);
                    PlanningBudget::with_max_evals(0)
                }
            },
        };
        optimizer.set_budget(budget);
        optimizer.set_cache_namespace(job.request.namespace);
        let sw = Instant::now();
        // Spans the optimizer opens on this thread parent under this
        // ticket's root, not the worker's ambient stack.
        let in_trace = job.trace.enter();
        let plan = optimizer.optimize(&job.request.query);
        drop(in_trace);
        let service_us = sw.elapsed().as_micros() as u64;
        tel.inc(Counter::ServiceCompleted);
        let done = shared.completed.fetch_add(1, Ordering::Relaxed) + 1;
        let trace_id = job.trace.trace_id();
        // Were this thread to unwind before here, dropping `job` would
        // answer the hook with `lost_worker`.
        job.reply.send(ServiceReply {
            plan,
            priority: Priority::from_class(class),
            shed: false,
            queue_wait_us: wait_us,
            service_us,
            trace_id,
            deadline_expired,
        });
        job.trace.finish();
        // Periodic housekeeping: the worker that crosses the boundary does
        // it, once its caller has the reply — the request that happens to
        // be the sixteenth does not wait for the bank to be written out.
        if config.checkpoint_every > 0 && done.is_multiple_of(config.checkpoint_every) {
            housekeep(config, bank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::PlannerKind;
    use crate::raqo_coster::ResourceStrategy;
    use raqo_catalog::tpch::TpchSchema;
    use raqo_cost::SimOracleCost;
    use raqo_resource::{CacheLookup, ClusterConditions, ResourceConfig};
    use raqo_sim::engine::JoinImpl;

    fn build_optimizer(_worker: usize) -> RaqoOptimizer<'static, SimOracleCost> {
        static MODEL: std::sync::OnceLock<SimOracleCost> = std::sync::OnceLock::new();
        static SCHEMA: std::sync::OnceLock<TpchSchema> = std::sync::OnceLock::new();
        let model = MODEL.get_or_init(SimOracleCost::hive);
        let schema = SCHEMA.get_or_init(|| TpchSchema::new(1.0));
        RaqoOptimizer::new(
            Arc::new(schema.catalog.clone()),
            Arc::new(schema.graph.clone()),
            model,
            ClusterConditions::paper_default(),
            PlannerKind::fast_randomized(7),
            ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.05 }),
        )
    }

    #[test]
    fn service_plans_requests_across_priorities() {
        let service = PlanningService::start(
            ServiceConfig { workers: 2, ..Default::default() },
            ShardedCacheBank::with_shards(8),
            Telemetry::disabled(),
            build_optimizer,
        );
        let tickets: Vec<PlanTicket> = Priority::ALL
            .iter()
            .map(|&p| service.submit(PlanRequest::new(QuerySpec::tpch_q3(), p)))
            .collect();
        for ticket in tickets {
            let reply = ticket.wait();
            assert!(!reply.shed);
            let plan = reply.plan.expect("service must plan q3");
            assert!(plan.time_sec() > 0.0);
        }
        assert_eq!(service.completed(), 3);
        assert_eq!(service.shed(), 0);
    }

    #[test]
    fn service_runs_cascades_optimizers_through_the_shared_bank() {
        fn build_cascades(_worker: usize) -> RaqoOptimizer<'static, SimOracleCost> {
            static MODEL: std::sync::OnceLock<SimOracleCost> = std::sync::OnceLock::new();
            static SCHEMA: std::sync::OnceLock<TpchSchema> = std::sync::OnceLock::new();
            let model = MODEL.get_or_init(SimOracleCost::hive);
            let schema = SCHEMA.get_or_init(|| TpchSchema::new(1.0));
            RaqoOptimizer::new(
                Arc::new(schema.catalog.clone()),
                Arc::new(schema.graph.clone()),
                model,
                ClusterConditions::paper_default(),
                PlannerKind::cascades(),
                ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor {
                    threshold: 0.05,
                }),
            )
        }
        let service = PlanningService::start(
            ServiceConfig { workers: 2, ..Default::default() },
            ShardedCacheBank::with_shards(8),
            Telemetry::disabled(),
            build_cascades,
        );
        let tickets: Vec<PlanTicket> = [QuerySpec::tpch_q3(), QuerySpec::tpch_q12()]
            .into_iter()
            .map(|q| service.submit(PlanRequest::new(q, Priority::Standard)))
            .collect();
        for ticket in tickets {
            let reply = ticket.wait();
            assert!(!reply.shed);
            let plan = reply.plan.expect("cascades worker must plan");
            assert!(plan.time_sec() > 0.0);
            assert!(plan.degradation.is_none(), "small queries stay on rung 1");
        }
        assert_eq!(service.completed(), 2);
    }

    #[test]
    fn namespaces_partition_the_shared_bank() {
        let bank = ShardedCacheBank::with_shards(8);
        let service = PlanningService::start(
            ServiceConfig { workers: 1, ..Default::default() },
            bank.clone(),
            Telemetry::disabled(),
            build_optimizer,
        );
        for ns in [1u32, 2, 3] {
            service
                .submit(PlanRequest::new(QuerySpec::tpch_q3(), Priority::Standard).with_namespace(ns))
                .wait();
        }
        drop(service);
        // Three tenants planned the same query: three namespaces' worth of
        // cache entries, not one shared set.
        let path = std::env::temp_dir().join("raqo_service_namespaces_test.json");
        bank.checkpoint(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let namespaces: std::collections::BTreeSet<u32> = text
            .lines()
            .filter_map(|line| line.trim().strip_prefix("\"model\": "))
            .map(|id| id.trim_end_matches(',').parse::<u32>().unwrap() >> 1)
            .collect();
        assert_eq!(namespaces.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    /// Submit `burst` requests to a one-worker service with a
    /// `queue_capacity`-slot queue: some must shed, every reply carries a
    /// plan, and a shed plan says how it degraded.
    fn assert_overload_sheds<M: OperatorCost + Send + Sync + 'static>(
        queue_capacity: usize,
        requests: impl Iterator<Item = PlanRequest>,
        build: impl Fn(usize) -> RaqoOptimizer<'static, M>,
    ) {
        let tel = Telemetry::enabled();
        let service = PlanningService::start(
            ServiceConfig { workers: 1, queue_capacity, ..Default::default() },
            ShardedCacheBank::with_shards(4),
            tel.clone(),
            build,
        );
        let tickets: Vec<PlanTicket> = requests.map(|r| service.submit(r)).collect();
        let replies: Vec<ServiceReply> = tickets.into_iter().map(|t| t.wait()).collect();
        let shed: Vec<&ServiceReply> = replies.iter().filter(|r| r.shed).collect();
        assert!(
            !shed.is_empty(),
            "a {queue_capacity}-slot queue under a {}-burst must shed",
            replies.len()
        );
        for reply in &replies {
            let plan = reply.plan.as_ref().expect("every reply carries a plan");
            if reply.shed {
                // Zero-eval budget: the ladder must have stepped down and
                // said so.
                assert!(
                    plan.degradation.is_some(),
                    "shed plans must be degradation-annotated"
                );
            }
        }
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.get(Counter::ServiceShed), shed.len() as u64);
        assert_eq!(
            snap.get(Counter::ServiceAdmitted),
            (replies.len() - shed.len()) as u64
        );
    }

    #[test]
    fn overload_sheds_with_annotated_plan_and_never_hangs() {
        // One worker, a one-slot queue, and a burst: most requests shed.
        let q3 = |_| PlanRequest::new(QuerySpec::tpch_q3(), Priority::Interactive);
        assert_overload_sheds(1, (0..8).map(q3), build_optimizer);
        // Two slots, a twelve-request burst over four tenants, and the
        // Selinger planner on the trained model.
        static MODEL: std::sync::OnceLock<raqo_cost::JoinCostModel> = std::sync::OnceLock::new();
        let schema = TpchSchema::new(1.0);
        let tenant = |i: u32| {
            PlanRequest::new(QuerySpec::tpch_q3(), Priority::Standard).with_namespace(i % 4)
        };
        assert_overload_sheds(2, (0..12).map(tenant), |_| {
            RaqoOptimizer::new(
                Arc::new(schema.catalog.clone()),
                Arc::new(schema.graph.clone()),
                MODEL.get_or_init(raqo_cost::JoinCostModel::trained_hive),
                ClusterConditions::paper_default(),
                PlannerKind::Selinger,
                ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.05 }),
            )
        });
    }

    #[test]
    fn try_submit_with_hands_back_what_a_full_queue_refuses() {
        let tel = Telemetry::enabled();
        let service = PlanningService::start(
            ServiceConfig { workers: 1, queue_capacity: 1, ..Default::default() },
            ShardedCacheBank::with_shards(4),
            tel.clone(),
            build_optimizer,
        );
        let q3 = || PlanRequest::new(QuerySpec::tpch_q3(), Priority::Standard);
        // Park the only worker inside the first request's hook, so the
        // queue holds exactly what is submitted next.
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        service
            .try_submit_with(q3(), move |reply| {
                entered_tx.send(reply.plan.is_some()).unwrap();
                let _ = release_rx.recv();
            })
            .expect("an empty queue admits");
        assert!(entered_rx.recv().unwrap(), "the first request was planned");
        let (second_tx, second_rx) = mpsc::channel();
        service
            .try_submit_with(q3(), move |reply| second_tx.send(reply).unwrap())
            .expect("the one slot is free");
        let refused = service
            .try_submit_with(q3().with_namespace(9), |_| panic!("a refused request's hook never runs"))
            .expect_err("a full queue refuses");
        assert_eq!(refused.namespace, 9, "the request comes back as submitted");
        release_tx.send(()).unwrap();
        assert!(second_rx.recv().unwrap().plan.is_some());
        assert_eq!(service.completed(), 2, "the refused request was never planned");
        assert_eq!((service.admitted(), service.shed()), (2, 0));
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.get(Counter::ServiceShed), 0, "refusal is not an inline shed");
        assert_eq!(snap.get(Counter::ServiceAdmitted), 2);
        drop(service);
        assert_eq!(tel.active_trace_count(), 0, "the refused request's trace is closed too");
    }

    #[test]
    fn a_panicking_plan_reaches_the_hook_as_a_lost_worker_reply() {
        struct PanickingCost;
        impl OperatorCost for PanickingCost {
            fn join_cost(&self, _: JoinImpl, _: f64, _: f64, _: f64, _: f64) -> Option<f64> {
                panic!("cost model failure (deliberate, test)");
            }
        }
        fn build_panicking(_worker: usize) -> RaqoOptimizer<'static, PanickingCost> {
            static SCHEMA: std::sync::OnceLock<TpchSchema> = std::sync::OnceLock::new();
            let schema = SCHEMA.get_or_init(|| TpchSchema::new(1.0));
            RaqoOptimizer::new(
                Arc::new(schema.catalog.clone()),
                Arc::new(schema.graph.clone()),
                &PanickingCost,
                ClusterConditions::paper_default(),
                PlannerKind::fast_randomized(7),
                ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor {
                    threshold: 0.05,
                }),
            )
        }
        let service = PlanningService::start(
            ServiceConfig { workers: 2, ..Default::default() },
            ShardedCacheBank::with_shards(4),
            Telemetry::disabled(),
            build_panicking,
        );
        let q3 = || PlanRequest::new(QuerySpec::tpch_q3(), Priority::Standard);
        let (tx, rx) = mpsc::channel();
        service.try_submit_with(q3(), move |reply| tx.send(reply).unwrap()).unwrap();
        let reply = rx.recv_timeout(Duration::from_secs(30)).expect("answered, not left hanging");
        assert!(reply.plan.is_none());
        assert!(!reply.shed && !reply.deadline_expired);
        // The ticket path degenerates the same way, on the other worker.
        assert!(service.submit(q3()).wait().plan.is_none());
        assert_eq!(service.completed(), 0);
    }

    #[test]
    fn concurrent_tickets_each_produce_one_rooted_trace() {
        let tel = Telemetry::enabled();
        let service = PlanningService::start(
            ServiceConfig { workers: 3, ..Default::default() },
            ShardedCacheBank::with_shards(8),
            tel.clone(),
            build_optimizer,
        );
        let tickets: Vec<(u32, PlanTicket)> = (0..6u32)
            .map(|ns| {
                let priority = Priority::ALL[ns as usize % 3];
                let t = service.submit(
                    PlanRequest::new(QuerySpec::tpch_q3(), priority).with_namespace(ns),
                );
                (ns, t)
            })
            .collect();
        let replies: Vec<(u32, ServiceReply)> =
            tickets.into_iter().map(|(ns, t)| (ns, t.wait())).collect();
        drop(service);

        let traces = tel.completed_traces();
        assert_eq!(traces.len(), 6, "one trace per ticket, none dropped or leaked");
        assert_eq!(tel.active_trace_count(), 0, "every ticket trace was finished");
        // Worker spans must land in the ticket's trace, never on the
        // submitting thread's ambient stack.
        assert!(tel.spans().is_empty(), "ambient span stack stays empty");

        for (ns, reply) in &replies {
            let trace = traces
                .iter()
                .find(|t| t.trace_id == reply.trace_id)
                .expect("reply's trace id matches an exported trace");
            // Exactly one root: the plan.ticket span opened at submit.
            let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
            assert_eq!(roots.len(), 1, "single-rooted trace");
            assert_eq!(roots[0].name, "plan.ticket");
            assert!(!roots[0].is_open(), "finish() closes the root");
            // Every non-root span parents inside this trace.
            for s in &trace.spans {
                if let Some(p) = s.parent {
                    assert!(
                        trace.spans.iter().any(|q| q.id == p),
                        "span {} parents to {} inside its own trace",
                        s.name,
                        p
                    );
                }
            }
            // Optimizer work actually attributed here: more than just the
            // root span.
            assert!(trace.spans.len() > 1, "optimizer spans attach to the ticket");
            let attr = |k: &str| {
                trace
                    .attrs
                    .iter()
                    .find(|(key, _)| key == k)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default()
            };
            assert_eq!(attr("tenant.namespace"), ns.to_string());
            assert_eq!(attr("priority.class"), reply.priority.name());
        }
        // Distinct tickets get distinct trace ids.
        let ids: std::collections::BTreeSet<u128> =
            traces.iter().map(|t| t.trace_id).collect();
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn drop_drains_admitted_requests() {
        let service = PlanningService::start(
            ServiceConfig { workers: 2, ..Default::default() },
            ShardedCacheBank::with_shards(4),
            Telemetry::disabled(),
            build_optimizer,
        );
        let tickets: Vec<PlanTicket> = (0..6)
            .map(|_| service.submit(PlanRequest::new(QuerySpec::tpch_q3(), Priority::Batch)))
            .collect();
        drop(service); // must block until every ticket is answerable
        for ticket in tickets {
            assert!(ticket.wait().plan.is_some());
        }
    }

    #[test]
    fn wait_timeout_times_out_and_succeeds() {
        let service = PlanningService::start(
            ServiceConfig { workers: 1, ..Default::default() },
            ShardedCacheBank::with_shards(4),
            Telemetry::disabled(),
            build_optimizer,
        );
        // Plenty of time: the reply arrives.
        let ticket = service.submit(PlanRequest::new(QuerySpec::tpch_q3(), Priority::Standard));
        let reply = ticket
            .wait_timeout(Duration::from_secs(60))
            .expect("a live worker answers well inside a minute");
        assert!(reply.plan.is_some());
        // Zero time on a fresh ticket: the typed timeout, not a hang.
        let ticket = service.submit(PlanRequest::new(QuerySpec::tpch_q3(), Priority::Standard));
        match ticket.wait_timeout(Duration::ZERO) {
            Err(WaitTimeout) => {}
            Ok(r) => {
                // The worker may have answered between submit and wait on a
                // fast machine; that is the other legal outcome.
                assert!(r.plan.is_some());
            }
        }
    }

    #[test]
    fn expired_deadline_answers_from_the_bottom_rung() {
        let service = PlanningService::start(
            ServiceConfig { workers: 1, ..Default::default() },
            ShardedCacheBank::with_shards(4),
            Telemetry::disabled(),
            build_optimizer,
        );
        // A deadline already in the past when the worker picks it up.
        let request = PlanRequest::new(QuerySpec::tpch_q3(), Priority::Interactive)
            .with_deadline_at(Instant::now() - Duration::from_millis(1));
        let reply = service.submit(request).wait();
        assert!(reply.deadline_expired, "queue wait consumed the deadline");
        let plan = reply.plan.expect("the zero-eval rung still answers");
        assert!(
            plan.degradation.is_some(),
            "an expired-deadline plan must be degradation-annotated"
        );
        // A generous deadline changes nothing.
        let request = PlanRequest::new(QuerySpec::tpch_q3(), Priority::Interactive)
            .with_deadline(Duration::from_secs(600));
        let reply = service.submit(request).wait();
        assert!(!reply.deadline_expired);
        assert!(reply.plan.is_some());
    }

    #[test]
    fn checkpoint_time_compaction_bounds_the_bank() {
        let path = std::env::temp_dir().join("raqo_service_compact_test.json");
        std::fs::remove_file(&path).ok();
        let bank = ShardedCacheBank::with_shards(4);
        let high_water = 4;
        let service = PlanningService::start(
            ServiceConfig {
                workers: 1,
                checkpoint_every: 1,
                checkpoint_path: Some(path.clone()),
                compact_high_water: Some(high_water),
                ..Default::default()
            },
            bank.clone(),
            Telemetry::disabled(),
            build_optimizer,
        );
        // Distinct namespaces force distinct cache entries.
        for ns in 0..6u32 {
            service
                .submit(PlanRequest::new(QuerySpec::tpch_q3(), Priority::Standard).with_namespace(ns))
                .wait();
        }
        drop(service);
        assert!(
            bank.total_entries() <= high_water,
            "compaction at every checkpoint holds the bank at ≤ {high_water} entries \
             (got {})",
            bank.total_entries()
        );
        // The persisted checkpoint reflects the compacted bank.
        let (loaded, _) = ShardedCacheBank::load(&path, 4, None).unwrap();
        assert!(loaded.total_entries() <= high_water);
        std::fs::remove_file(&path).ok();
    }

    /// The reply leaves before housekeeping starts. Forced, not timed: the
    /// test holds the write lock of a shard the request never touches, so
    /// the checkpoint (which reads every shard) cannot finish until the
    /// test lets go — and the ticket must resolve regardless.
    #[test]
    fn worker_replies_before_it_checkpoints() {
        let path = std::env::temp_dir().join("raqo_service_reply_first_test.json");
        std::fs::remove_file(&path).ok();
        let bank = ShardedCacheBank::with_shards(8);
        // Namespace 3 plans under model ids 6 and 7; block some other shard.
        let namespace = 3u32;
        let busy = [bank.shard_of(6, 0), bank.shard_of(7, 0)];
        let blocked_model =
            (100..).find(|&m| !busy.contains(&bank.shard_of(m, 0))).expect("8 shards, 2 busy");
        bank.insert(blocked_model, 0, 1.0, ResourceConfig::containers_and_size(1.0, 1.0));
        let service = PlanningService::start(
            ServiceConfig {
                workers: 1,
                checkpoint_every: 1,
                checkpoint_path: Some(path.clone()),
                ..Default::default()
            },
            bank.clone(),
            Telemetry::disabled(),
            build_optimizer,
        );
        let (locked_tx, locked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            // Owned by this closure: a failed assertion below drops it on
            // the way out, which lets the holder go instead of hanging.
            let release_tx = release_tx;
            let holder = bank.clone();
            scope.spawn(move || {
                let pair = (blocked_model, 0);
                let mut guard = holder.lock_pair(pair, pair);
                guard.lookup(0, 1.0, CacheLookup::Exact); // takes the shard's lock
                locked_tx.send(()).unwrap();
                let _ = release_rx.recv();
            });
            locked_rx.recv().unwrap();
            let reply = service
                .submit(
                    PlanRequest::new(QuerySpec::tpch_q3(), Priority::Standard)
                        .with_namespace(namespace),
                )
                .wait_timeout(Duration::from_secs(10))
                .expect("the reply must not wait for the checkpoint");
            assert!(reply.plan.is_some());
            assert!(!path.exists(), "the checkpoint cannot have been written yet");
            release_tx.send(()).unwrap();
        });
        drop(service); // joins the worker, which finishes its housekeeping first
        let (loaded, _) = ShardedCacheBank::load(&path, 8, None).unwrap();
        assert_eq!(loaded.total_entries(), bank.total_entries());
        assert!(!path.with_extension("json.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn service_checkpoints_the_bank_periodically() {
        let path = std::env::temp_dir().join("raqo_service_ckpt_test.json");
        std::fs::remove_file(&path).ok();
        let bank = ShardedCacheBank::with_shards(8);
        let service = PlanningService::start(
            ServiceConfig {
                workers: 1,
                checkpoint_every: 2,
                checkpoint_path: Some(path.clone()),
                model_fingerprint: Some(0xfeed),
                ..Default::default()
            },
            bank.clone(),
            Telemetry::disabled(),
            build_optimizer,
        );
        let tickets: Vec<PlanTicket> = (0..4)
            .map(|ns| {
                service.submit(
                    PlanRequest::new(QuerySpec::tpch_q3(), Priority::Standard)
                        .with_namespace(ns),
                )
            })
            .collect();
        for t in tickets {
            t.wait();
        }
        drop(service);
        let (loaded, invalidated) = ShardedCacheBank::load(&path, 8, Some(0xfeed)).unwrap();
        assert!(!invalidated);
        assert!(loaded.total_entries() > 0, "checkpoint must carry warm entries");
        std::fs::remove_file(&path).ok();
    }
}
