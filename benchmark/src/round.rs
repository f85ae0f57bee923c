//! One round: set the system up from nothing, warm it, then drive it closed
//! loop for a fixed window and check every reply.
//!
//! Every reply is compared, inside the window, against the reference reply
//! its query produced during warm-up — a byte (wire) or field (in-process)
//! comparison that costs the caller about a microsecond. The references
//! themselves, and any reply that differs from its reference, are validated
//! in full after the window closes (see [`crate::validate`]), so validation
//! work never sits between two requests of a closed-loop caller.

use crate::validate::{self, PlanView};
use crate::workload::{Inputs, Path, Workload, CHECKPOINT_EVERY, COMPACT_HIGH_WATER};
use raqo_catalog::QuerySpec;
use raqo_core::{
    PlanRequest, PlanningService, Priority, RaqoOptimizer, RaqoPlan, ServiceConfig, Telemetry,
};
use raqo_net::{ClientConfig, NetConfig, PlanClient, PlanServer};
use raqo_resource::ShardedCacheBank;
use raqo_telemetry::MetricsSnapshot;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Warm-up passes allowed before the cache must have stopped changing.
const MAX_WARM_PASSES: usize = 8;
/// Fixed-size part of a reply frame: header, ids, flags and timings.
const REPLY_FIXED_BYTES: usize = raqo_net::frame::HEADER_LEN + 8 + 16 + 1 + 8 + 8;
/// Failure messages kept per round for the report.
const MAX_FAILURE_MESSAGES: usize = 8;
/// Request number the timed window starts counting from, past any warm-up.
const WINDOW_FIRST_REQUEST: usize = 1 << 16;

/// Where the benchmark writes checkpoints and traces.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A plan as the caller received it.
#[derive(Debug, Clone)]
pub enum Payload {
    /// The server's JSON rendering, byte for byte.
    Json(String),
    Native(Box<RaqoPlan>),
}

impl Payload {
    fn same(&self, other: &Payload) -> bool {
        match (self, other) {
            (Payload::Json(a), Payload::Json(b)) => a == b,
            (Payload::Native(a), Payload::Native(b)) => {
                a.query == b.query && a.stats == b.stats && a.degradation == b.degradation
            }
            _ => false,
        }
    }

    pub fn view(&self) -> Result<PlanView, String> {
        match self {
            Payload::Json(text) => PlanView::from_json(text),
            Payload::Native(plan) => Ok(PlanView::from_plan(plan)),
        }
    }
}

/// One answered request, wire or in-process.
struct Reply {
    /// `None` when the optimizer found the query unplannable.
    payload: Option<Payload>,
    shed: bool,
    deadline_expired: bool,
    queue_wait_us: u64,
    service_us: u64,
    bytes: usize,
}

/// A closed-loop caller's handle on the system.
enum Caller<'s> {
    Wire(Box<PlanClient>),
    Service(&'s PlanningService),
}

impl Caller<'_> {
    /// One request; `Err` is an error frame, a timeout or exhausted retries.
    fn plan(&mut self, query: &QuerySpec, priority: Priority, ns: u32) -> Result<Reply, String> {
        match self {
            Caller::Wire(client) => {
                let reply = client
                    .plan_with(query, priority, ns, 0)
                    .map_err(|e| e.to_string())?;
                Ok(Reply {
                    bytes: REPLY_FIXED_BYTES + reply.plan_json.len(),
                    payload: reply
                        .plan
                        .is_some()
                        .then_some(Payload::Json(reply.plan_json)),
                    shed: reply.shed,
                    deadline_expired: reply.deadline_expired,
                    queue_wait_us: reply.queue_wait_us,
                    service_us: reply.service_us,
                })
            }
            Caller::Service(service) => {
                let reply = service
                    .submit(PlanRequest::new(query.clone(), priority).with_namespace(ns))
                    .wait();
                Ok(Reply {
                    bytes: 0,
                    payload: reply.plan.map(|plan| Payload::Native(Box::new(plan))),
                    shed: reply.shed,
                    deadline_expired: reply.deadline_expired,
                    queue_wait_us: reply.queue_wait_us,
                    service_us: reply.service_us,
                })
            }
        }
    }
}

/// One answered request of the timed window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the workload's queries.
    pub query: usize,
    /// When the caller sent it, microseconds after the window opened.
    pub sent_us: f64,
    /// Caller-observed submit → reply.
    pub latency_us: f64,
    pub queue_wait_us: f64,
    pub service_us: f64,
    pub reply_bytes: f64,
}

/// What one caller saw during the window.
#[derive(Default)]
struct CallerLog {
    samples: Vec<Sample>,
    attempted: u64,
    shed: u64,
    deadline_expired: u64,
    errors: Vec<String>,
    /// Replies that differ from their reference: (query index, payload).
    divergent: Vec<(usize, Payload)>,
    finished: Option<Instant>,
}

/// Per-query facts read off the validated reference plans.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    pub name: String,
    pub joins: usize,
    pub cost_s: f64,
    pub exec_s: f64,
    pub plan_cost_calls: u64,
    pub resource_iterations: u64,
}

/// One round's measurements.
pub struct RoundResult {
    pub setup_s: f64,
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub failures: Vec<String>,
    /// Replies that differed from their reference yet validated in full
    /// (only the churn workload tolerates these; see README).
    pub divergent_valid: u64,
    pub shed: u64,
    pub deadline_expired: u64,
    pub samples: Vec<Sample>,
    /// One entry per query, in query order; empty if a reference failed.
    pub queries: Vec<QueryOutcome>,
    /// Validated reference plans, in query order (caller 0's).
    pub plans: Vec<PlanView>,
    /// The reference replies themselves (caller 0's).
    pub references: Vec<Payload>,
    /// Requests the service completed during the window.
    pub completed: u64,
    pub entries_end: usize,
    /// Registry snapshots bracketing the window (traced rounds only).
    pub metrics: Option<(MetricsSnapshot, MetricsSnapshot)>,
    /// Spans the library's own telemetry retained (traced rounds only).
    pub library_spans: usize,
}

impl RoundResult {
    pub fn valid(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn column(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.note(message);
    }

    fn note(&mut self, message: String) {
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(message);
        }
    }
}

/// A system under test, warmed and ready for its timed window.
pub struct Harness<'w> {
    workload: &'w Workload,
    inputs: Inputs,
    telemetry: Telemetry,
    service: Arc<PlanningService>,
    server: Option<PlanServer>,
    clients: Vec<PlanClient>,
    /// Per caller, per query: the reply every later reply must equal.
    references: Vec<Vec<Payload>>,
    checkpoint_path: Option<PathBuf>,
    /// Seconds from nothing to the first timed request being possible.
    setup_s: f64,
}

impl<'w> Harness<'w> {
    /// Build everything from the seed and warm it: schema, cost model,
    /// service, server and connections on the wire path, then warm-up
    /// passes until replies stop changing.
    pub fn setup(
        workload: &'w Workload,
        seed: u64,
        telemetry: Telemetry,
    ) -> Result<Harness<'w>, String> {
        let started = Instant::now();
        let inputs = Inputs::build(workload, seed);
        let checkpoint_path = workload.churn.then(|| {
            let dir = out_dir();
            let _ = std::fs::create_dir_all(&dir);
            dir.join(format!(
                "checkpoint-{}-{}.json",
                workload.name,
                std::process::id()
            ))
        });
        let config = ServiceConfig {
            checkpoint_every: if workload.churn { CHECKPOINT_EVERY } else { 0 },
            checkpoint_path: checkpoint_path.clone(),
            model_fingerprint: workload.churn.then(|| inputs.model.fingerprint()),
            compact_high_water: workload.churn.then_some(COMPACT_HIGH_WATER),
            ..ServiceConfig::default()
        };
        let (catalog, graph, model) = (
            inputs.catalog.clone(),
            inputs.graph.clone(),
            inputs.model.clone(),
        );
        let (cluster, planner, strategy) =
            (inputs.cluster, workload.planner.clone(), workload.strategy);
        let service = Arc::new(PlanningService::start(
            config,
            ShardedCacheBank::with_shards(8),
            telemetry.clone(),
            move |_worker| {
                RaqoOptimizer::new(
                    catalog.clone(),
                    graph.clone(),
                    model.clone(),
                    cluster,
                    planner.clone(),
                    strategy,
                )
            },
        ));
        let mut server = None;
        let mut clients = Vec::new();
        if workload.path == Path::Wire {
            let bound = PlanServer::bind(
                "127.0.0.1:0",
                NetConfig::default(),
                service.clone(),
                telemetry.clone(),
            )
            .map_err(|e| format!("bind: {e}"))?;
            for _ in 0..workload.callers {
                clients.push(
                    PlanClient::connect(bound.local_addr(), ClientConfig::default())
                        .map_err(|e| format!("connect: {e}"))?
                        .with_telemetry(telemetry.clone()),
                );
            }
            server = Some(bound);
        }
        let mut harness = Harness {
            workload,
            inputs,
            telemetry,
            service,
            server,
            clients,
            references: Vec::new(),
            checkpoint_path,
            setup_s: 0.0,
        };
        harness.warm_up()?;
        harness.setup_s = started.elapsed().as_secs_f64();
        Ok(harness)
    }

    /// Plan every query in canonical order, per caller, until a whole pass
    /// answers exactly as the pass before it did. Warm-up runs in the Batch
    /// class: a cold pass may need more cost evaluations than the Standard
    /// budget allows, and a degraded warm-up reply proves nothing.
    fn warm_up(&mut self) -> Result<(), String> {
        // A plan that consults no warm cache depends on nothing but its
        // query, so its first pass already is its reference.
        let needs_fixed_point = self.workload.cached() && !self.workload.churn;
        let mut references: Vec<Vec<Payload>> = Vec::new();
        let mut clients = Vec::new();
        let (workload, queries) = (self.workload, &self.inputs.queries);
        let callers = callers(workload, &mut self.clients, &self.service);
        for (c, mut caller) in callers.into_iter().enumerate() {
            let mut previous: Option<Vec<Payload>> = None;
            let mut settled = false;
            for pass in 0..MAX_WARM_PASSES {
                let mut replies = Vec::with_capacity(queries.len());
                for (q, query) in queries.iter().enumerate() {
                    let ns = namespace(workload, c, pass * queries.len() + q);
                    let reply = caller
                        .plan(query, Priority::Batch, ns)
                        .map_err(|e| format!("warm-up of {}: {e}", query.name))?;
                    replies.push(
                        reply
                            .payload
                            .ok_or_else(|| format!("warm-up of {}: no plan", query.name))?,
                    );
                }
                let stable = previous
                    .as_ref()
                    .is_some_and(|prev| prev.iter().zip(&replies).all(|(a, b)| a.same(b)));
                previous = Some(replies);
                if stable || !needs_fixed_point {
                    settled = true;
                    break;
                }
            }
            if !settled {
                return Err(format!(
                    "cache still changing after {MAX_WARM_PASSES} warm-up passes"
                ));
            }
            references.push(previous.expect("at least one pass ran"));
            if let Caller::Wire(client) = caller {
                clients.push(*client);
            }
        }
        self.clients = clients;
        self.references = references;
        Ok(())
    }

    /// Drive the warmed system closed loop for `window`, tear it down, then
    /// validate what it answered.
    pub fn run(mut self, window: Duration) -> RoundResult {
        let workload = self.workload;
        let before = self.telemetry.snapshot();
        let completed_before = self.service.completed();
        let barrier = Barrier::new(workload.callers + 1);
        let mut opened = Instant::now();
        let logs: Vec<CallerLog> = {
            let callers = callers(workload, &mut self.clients, &self.service);
            std::thread::scope(|scope| {
                let handles: Vec<_> = callers
                    .into_iter()
                    .enumerate()
                    .map(|(c, caller)| {
                        let inputs = &self.inputs;
                        let references = &self.references[c];
                        let barrier = &barrier;
                        scope.spawn(move || {
                            barrier.wait();
                            drive(workload, inputs, references, caller, c, window)
                        })
                    })
                    .collect();
                barrier.wait();
                opened = Instant::now();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("caller thread panicked"))
                    .collect()
            })
        };
        let closed = logs
            .iter()
            .filter_map(|l| l.finished)
            .max()
            .unwrap_or(opened);

        // Tear the system down before validating, so validation does not
        // compete with the event loop and the planning workers.
        let Harness {
            inputs,
            telemetry,
            service,
            server,
            references,
            checkpoint_path,
            setup_s,
            ..
        } = self;
        let after = telemetry.snapshot();
        let completed = service.completed() - completed_before;
        let entries_end = service.bank().total_entries();
        if let Some(server) = server {
            server.shutdown();
        }
        drop(service);
        if let Some(path) = &checkpoint_path {
            let _ = std::fs::remove_file(path);
        }

        let mut result = RoundResult {
            setup_s,
            window_s: closed.duration_since(opened).as_secs_f64(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            divergent_valid: 0,
            shed: 0,
            deadline_expired: 0,
            samples: Vec::new(),
            queries: Vec::new(),
            plans: Vec::new(),
            references: Vec::new(),
            completed,
            entries_end,
            metrics: before.zip(after),
            library_spans: telemetry.completed_span_count(),
        };

        // References first: they stand for every reply that equalled them.
        let mut reference_ok = vec![true; inputs.queries.len()];
        for (q, query) in inputs.queries.iter().enumerate() {
            let checked = references[0][q]
                .view()
                .and_then(|view| validate::check(&view, query, &inputs).map(|()| view));
            match checked {
                Ok(view) => {
                    result.queries.push(QueryOutcome {
                        name: query.name.clone(),
                        joins: view.joins.len(),
                        cost_s: view.cost,
                        exec_s: validate::execute_on_simulator(&view),
                        plan_cost_calls: view.plan_cost_calls,
                        resource_iterations: view.resource_iterations,
                    });
                    result.plans.push(view);
                }
                Err(e) => {
                    reference_ok[q] = false;
                    result.note(format!("{}: {e}", query.name));
                }
            }
            // Every caller warmed its own namespace with the same sequence,
            // so their references must agree.
            if references.iter().any(|r| !r[q].same(&references[0][q])) {
                reference_ok[q] = false;
                result.note(format!("{}: callers' warm plans disagree", query.name));
            }
        }
        // Workload-level checks pair plans with queries by position.
        if result.plans.len() == inputs.queries.len() {
            if let Err(e) = validate::check_workload(workload, &inputs, &result.plans) {
                reference_ok.fill(false);
                result.note(e);
            }
        } else {
            result.queries.clear();
        }

        for log in logs {
            result.attempted += log.attempted;
            result.shed += log.shed;
            result.deadline_expired += log.deadline_expired;
            for e in log.errors {
                result.fail(e);
            }
            for sample in &log.samples {
                if !reference_ok[sample.query] {
                    result.fail("reply to a query whose reference failed validation".into());
                }
            }
            result.samples.extend(log.samples);
            for (q, payload) in log.divergent {
                if !reference_ok[q] {
                    continue; // already counted with its failed reference
                }
                let query = &inputs.queries[q];
                let verdict = if workload.churn {
                    // Compaction triggered by the other connection can evict
                    // entries under a plan in flight, so a cold plan may
                    // differ from its reference; it must still be valid.
                    payload
                        .view()
                        .and_then(|v| validate::check(&v, query, &inputs))
                } else {
                    Err("differs from its warm reference (determinism guard)".into())
                };
                match verdict {
                    Ok(()) => result.divergent_valid += 1,
                    Err(e) => result.fail(format!("{}: {e}", query.name)),
                }
            }
        }
        result.references = references.into_iter().next().unwrap_or_default();
        result
    }
}

/// Cache namespace of `caller`'s `request`-th request. Warm workloads keep
/// one namespace per caller; the churn workload never reuses one (warm-up
/// counts from 0, the window from [`WINDOW_FIRST_REQUEST`]).
fn namespace(workload: &Workload, caller: usize, request: usize) -> u32 {
    let caller = caller as u32 + 1;
    if workload.churn {
        (caller << 24) | (request as u32 & 0x00ff_ffff)
    } else {
        caller
    }
}

/// Hand each caller its handle on the system.
fn callers<'s>(
    workload: &Workload,
    clients: &mut Vec<PlanClient>,
    service: &'s PlanningService,
) -> Vec<Caller<'s>> {
    match workload.path {
        Path::Wire => clients
            .drain(..)
            .map(|client| Caller::Wire(Box::new(client)))
            .collect(),
        Path::Service => (0..workload.callers)
            .map(|_| Caller::Service(service))
            .collect(),
    }
}

/// One caller's closed loop: send, wait, compare, repeat until `window` ends.
fn drive(
    workload: &Workload,
    inputs: &Inputs,
    references: &[Payload],
    mut caller: Caller<'_>,
    caller_idx: usize,
    window: Duration,
) -> CallerLog {
    let order = &inputs.orders[caller_idx];
    let mut log = CallerLog::default();
    let opened = Instant::now();
    let deadline = opened + window;
    for i in 0usize.. {
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        let q = order[i % order.len()];
        let ns = namespace(workload, caller_idx, WINDOW_FIRST_REQUEST + i);
        log.attempted += 1;
        let reply = caller.plan(&inputs.queries[q], workload.priority, ns);
        let latency = sent.elapsed();
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                log.errors.push(e);
                continue;
            }
        };
        log.shed += u64::from(reply.shed);
        log.deadline_expired += u64::from(reply.deadline_expired);
        match reply.payload {
            Some(payload) if !reply.shed && !reply.deadline_expired => {
                log.samples.push(Sample {
                    query: q,
                    sent_us: sent.duration_since(opened).as_secs_f64() * 1e6,
                    latency_us: latency.as_secs_f64() * 1e6,
                    queue_wait_us: reply.queue_wait_us as f64,
                    service_us: reply.service_us as f64,
                    reply_bytes: reply.bytes as f64,
                });
                if !payload.same(&references[q]) {
                    log.divergent.push((q, payload));
                }
            }
            Some(_) => log.errors.push("shed or deadline-expired reply".into()),
            None => log.errors.push("reply carried no plan".into()),
        }
    }
    log.finished = Some(Instant::now());
    log
}
