//! Network chaos suite: fault schedules on every `net.*` probe site,
//! driven end to end through [`raqo_net::PlanServer`]/[`raqo_net::PlanClient`].
//!
//! The contract under test, per the wire front end's design invariants:
//! with delay, torn-frame, disconnect, or garbage faults armed the server
//! never hangs, never panics, and never leaks a connection or thread;
//! every surviving request gets a real plan, every failing one a *typed*
//! error; and requests the chaos schedule did not touch return plans
//! bit-identical to an in-process [`PlanningService`] fed the same
//! request stream.
//!
//! The injector is process-global, so every test takes `INJECTOR` for its
//! whole body and wraps its faults in a [`FaultGuard`]; the suite lives in
//! its own test binary so no unrelated test shares the process.

use raqo_catalog::{tpch::TpchSchema, QuerySpec};
use raqo_core::{
    PlanRequest, PlannerKind, PlanningService, Priority, RaqoOptimizer, ResourceStrategy,
    ServiceConfig, Telemetry,
};
use raqo_cost::JoinCostModel;
use raqo_faults::{Fault, FaultGuard, FaultKind};
use raqo_net::{ClientConfig, NetConfig, NetError, PlanClient, PlanServer};
use raqo_resource::{CacheLookup, ClusterConditions, ShardedCacheBank};
use raqo_telemetry::Counter;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Serializes tests because the fault injector is process-global state.
static INJECTOR: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    INJECTOR.lock().unwrap_or_else(|e| e.into_inner())
}

fn model() -> &'static JoinCostModel {
    static MODEL: OnceLock<JoinCostModel> = OnceLock::new();
    MODEL.get_or_init(JoinCostModel::trained_hive)
}

fn schema() -> &'static TpchSchema {
    static SCHEMA: OnceLock<TpchSchema> = OnceLock::new();
    SCHEMA.get_or_init(|| TpchSchema::new(1.0))
}

fn build_optimizer(planner: &PlannerKind) -> RaqoOptimizer<'static, JoinCostModel> {
    let schema = schema();
    RaqoOptimizer::new(
        Arc::new(schema.catalog.clone()),
        Arc::new(schema.graph.clone()),
        model(),
        ClusterConditions::paper_default(),
        planner.clone(),
        ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.05 }),
    )
}

fn start_service(workers: usize, tel: &Telemetry, planner: &PlannerKind) -> Arc<PlanningService> {
    Arc::new(PlanningService::start(
        ServiceConfig { workers, queue_capacity: 512, ..Default::default() },
        ShardedCacheBank::with_shards(8),
        tel.clone(),
        |_| build_optimizer(planner),
    ))
}

fn start_stack(net: NetConfig, workers: usize) -> (PlanServer, Arc<PlanningService>, Telemetry) {
    start_stack_planning(net, workers, &PlannerKind::fast_randomized(7))
}

fn start_stack_planning(
    net: NetConfig,
    workers: usize,
    planner: &PlannerKind,
) -> (PlanServer, Arc<PlanningService>, Telemetry) {
    let tel = Telemetry::enabled();
    let service = start_service(workers, &tel, planner);
    let server = PlanServer::bind("127.0.0.1:0", net, service.clone(), tel.clone())
        .expect("chaos: bind");
    (server, service, tel)
}

fn client(server: &PlanServer, read_timeout: Duration, retries: u32, tel: &Telemetry) -> PlanClient {
    PlanClient::connect(
        server.local_addr(),
        ClientConfig { read_timeout, retries, backoff_base: Duration::from_millis(5), ..ClientConfig::default() },
    )
    .expect("chaos: client connect")
    .with_telemetry(tel.clone())
}

/// Kernel threads of this process that carry the calling thread's name:
/// itself and every unnamed thread started from it, directly or not (a new
/// thread inherits its creator's name), so the server, worker and client
/// threads a test starts all count. The test threads the harness starts
/// beside it carry their own names and do not — one that starts while the
/// soak runs is not a leak.
fn threads_now() -> usize {
    let name = |task: &std::path::Path| std::fs::read_to_string(task.join("comm")).ok();
    let own = name(std::path::Path::new("/proc/thread-self")).expect("own thread name");
    std::fs::read_dir("/proc/self/task")
        .expect("proc tasks")
        .filter_map(Result::ok)
        .filter(|task| name(&task.path()).as_ref() == Some(&own))
        .count()
}

/// Assert every opened connection was accounted closed.
fn assert_connections_balanced(tel: &Telemetry) {
    let snap = tel.snapshot().expect("enabled");
    assert_eq!(
        snap.get(Counter::NetConnectionsOpened),
        snap.get(Counter::NetConnectionsClosed),
        "a connection leaked past shutdown"
    );
}

#[test]
fn delay_faults_on_the_read_path_stall_the_loop_but_never_hang() {
    let _serial = lock();
    let _guard = FaultGuard::new();
    let (server, service, tel) = start_stack(NetConfig::default(), 1);
    let mut client = client(&server, Duration::from_secs(5), 1, &tel);

    let clean = client.plan(&QuerySpec::tpch_q3(), Priority::Interactive).expect("clean reply");
    assert!(clean.plan.is_some());

    // The read probe fires once per readable event, so each of the next
    // three requests stalls the event loop 25 ms on its way in — the
    // slow-network case, not a dead one.
    for nth in 1..=3 {
        raqo_faults::arm(Fault::at("net.read", FaultKind::Delay(Duration::from_millis(25)), nth));
    }
    let fired_before = raqo_faults::fired_total();
    let start = Instant::now();
    for namespace in 1..=3 {
        let reply = client
            .plan_with(&QuerySpec::tpch_q12(), Priority::Standard, namespace, 0)
            .expect("delayed reply");
        assert!(reply.plan.is_some(), "delay fault lost the plan");
    }
    assert_eq!(
        raqo_faults::fired_total() - fired_before,
        3,
        "each request must have met its delay"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "delay fault wedged the event loop: {:?}",
        start.elapsed()
    );

    drop(client);
    server.shutdown();
    drop(service);
    assert_connections_balanced(&tel);
}

#[test]
fn torn_frame_recovers_through_the_client_timeout_retry() {
    let _serial = lock();
    let _guard = FaultGuard::new();
    let (server, service, tel) = start_stack(NetConfig::default(), 1);
    let mut client = client(&server, Duration::from_millis(250), 2, &tel);

    // The first buffered frame loses its tail: the server sits on an
    // incomplete prefix (it cannot know more bytes will never come), the
    // client times out, drops the wedged connection, and retries fresh.
    raqo_faults::arm(Fault::once("net.frame", FaultKind::Fail));
    let reply =
        client.plan(&QuerySpec::tpch_q3(), Priority::Interactive).expect("retry must recover");
    assert!(reply.plan.is_some());
    let snap = tel.snapshot().expect("enabled");
    assert!(snap.get(Counter::NetClientRetries) >= 1, "torn frame never forced a retry");

    drop(client);
    server.shutdown();
    drop(service);
    assert_connections_balanced(&tel);
}

#[test]
fn garbage_byte_surfaces_as_a_typed_error_frame_then_a_clean_close() {
    let _serial = lock();
    let _guard = FaultGuard::new();
    let (server, service, tel) = start_stack(NetConfig::default(), 1);
    // No retries: a garbage-corrupted request draws a non-retryable typed
    // error, and this test wants to see exactly that error.
    let mut c = client(&server, Duration::from_secs(5), 0, &tel);

    // A long query name pins the buffer midpoint (where the garbage byte
    // flips) inside the JSON tail, so the corruption deterministically
    // breaks the body rather than silently renaming a relation.
    let q3 = QuerySpec::tpch_q3();
    let query = QuerySpec::new(
        "chaos_garbage_a_name_long_enough_to_cover_the_buffer_midpoint_of_the_frame",
        q3.relations.clone(),
    );
    raqo_faults::arm(Fault::once("net.frame", FaultKind::Nan));
    let err = c
        .plan_with(&query, Priority::Standard, 3, 0)
        .expect_err("a corrupted frame must not plan");
    match &err {
        NetError::Server { .. } | NetError::Protocol(_) | NetError::Io(_) => {}
        other => panic!("garbage fault produced a non-typed outcome: {other:?}"),
    }
    let snap = tel.snapshot().expect("enabled");
    assert!(snap.get(Counter::NetFrameErrors) >= 1, "frame corruption was not counted");

    // The poisoned connection is gone; a fresh one still plans.
    let mut fresh = client(&server, Duration::from_secs(5), 1, &tel);
    let reply = fresh.plan(&q3, Priority::Interactive).expect("post-garbage reply");
    assert!(reply.plan.is_some());

    drop(c);
    drop(fresh);
    server.shutdown();
    drop(service);
    assert_connections_balanced(&tel);
}

#[test]
fn accept_and_write_resets_recover_and_replies_dedup_across_connections() {
    let _serial = lock();
    let _guard = FaultGuard::new();
    let (server, service, tel) = start_stack(NetConfig::default(), 1);
    let mut c = client(&server, Duration::from_millis(500), 3, &tel);

    // Reset inside the accept path: the TCP handshake succeeds but the
    // server drops the stream before servicing it.
    raqo_faults::arm(Fault::once("net.accept", FaultKind::Fail));
    let reply = c.plan(&QuerySpec::tpch_q3(), Priority::Interactive).expect("accept-reset retry");
    assert!(reply.plan.is_some());

    // Reset on the write side: the reply is computed and cached in the
    // reply ring, but the connection dies before delivery. The retry on a
    // fresh connection must be answered from the ring — same id, no
    // second planning run.
    let completed_before = service.completed();
    raqo_faults::arm(Fault::once("net.write", FaultKind::Fail));
    let reply = c.plan_with(&QuerySpec::tpch_q12(), Priority::Standard, 2, 0)
        .expect("write-reset retry");
    assert!(reply.plan.is_some());
    let snap = tel.snapshot().expect("enabled");
    assert!(
        snap.get(Counter::NetRepliesDeduped) >= 1,
        "the write-reset retry was not served from the reply ring"
    );
    assert_eq!(
        service.completed(),
        completed_before + 1,
        "the deduped retry must not trigger a second planning run"
    );

    drop(c);
    server.shutdown();
    drop(service);
    assert_connections_balanced(&tel);
}

#[test]
fn non_faulted_requests_bit_match_the_in_process_service() {
    let _serial = lock();
    for planner in [PlannerKind::fast_randomized(7), PlannerKind::Selinger] {
        let _guard = FaultGuard::new();
        let (server, service, tel) = start_stack_planning(NetConfig::default(), 1, &planner);
        let twin = start_service(1, &Telemetry::disabled(), &planner);
        let mut c = client(&server, Duration::from_millis(500), 3, &tel);

        let queries = [QuerySpec::tpch_q3(), QuerySpec::tpch_q12(), QuerySpec::tpch_q2()];
        let mut wire_json: Vec<String> = Vec::new();
        for i in 0..8usize {
            if i == 4 {
                // Mid-stream chaos: the next readable event — this request
                // arriving — resets the connection. The client's retry is
                // transparent, and because the reset lands before the
                // request is read, each request still plans exactly once,
                // in order — the twin comparison below stays 1:1.
                raqo_faults::arm(Fault::once("net.read", FaultKind::Fail));
            }
            let query = &queries[i % queries.len()];
            let priority = Priority::ALL[i % Priority::ALL.len()];
            let reply = c
                .plan_with(query, priority, i as u32, 0)
                .expect("chaos parity: wire reply");
            assert!(reply.plan.is_some(), "{planner:?} request {i}: the summary did not decode");
            wire_json.push(reply.plan_json);
        }
        let snap = tel.snapshot().expect("enabled");
        assert!(
            snap.get(Counter::NetClientRetries) >= 1,
            "{planner:?}: the injected reset never forced a retry"
        );
        for (i, wire) in wire_json.iter().enumerate() {
            let query = &queries[i % queries.len()];
            let priority = Priority::ALL[i % Priority::ALL.len()];
            let local = twin
                .submit(PlanRequest::new(query.clone(), priority).with_namespace(i as u32))
                .wait();
            let local_json = serde_json::to_string(&local.plan).expect("twin serializes");
            assert_eq!(
                wire, &local_json,
                "{planner:?} request {i}: wire plan diverged from the in-process answer under chaos"
            );
        }

        drop(c);
        server.shutdown();
        drop(service);
        drop(twin);
        assert_connections_balanced(&tel);
    }
    assert!(!raqo_faults::armed(), "a fault outlived its guard");
}

/// The deterministic soak: 300 mixed-priority requests over 12 client
/// connections with a scheduled fault roughly every 8th frame probe, plus
/// seeded resets on the accept/read/write paths. The server must answer
/// every request with a plan or a typed error — no hangs, no panics — and
/// afterwards the process must hold exactly as many threads and zero more
/// connections than before the storm.
#[test]
fn soak_survives_one_in_eight_faulted_frames_with_zero_leaks() {
    let _serial = lock();
    let threads_before = threads_now();
    let _guard = FaultGuard::new();
    let (server, service, tel) =
        start_stack(NetConfig { max_connections: 64, ..NetConfig::default() }, 4);

    // The schedule: every 8th `net.frame` probe is faulted — mostly
    // garbage bytes, every fifth one a torn frame — and one seeded reset
    // on each transport path.
    for k in 1u64..=40 {
        let kind = if k % 5 == 0 { FaultKind::Fail } else { FaultKind::Nan };
        raqo_faults::arm(Fault::at("net.frame", kind, 8 * k));
    }
    raqo_faults::arm(Fault::seeded("net.accept", FaultKind::Fail, 0xC0FF_EE01, 6));
    raqo_faults::arm(Fault::seeded("net.read", FaultKind::Fail, 0xC0FF_EE02, 400));
    raqo_faults::arm(Fault::seeded("net.write", FaultKind::Fail, 0xC0FF_EE03, 400));

    const CONNECTIONS: usize = 12;
    const PER_CONN: usize = 25;
    let addr = server.local_addr();
    let handles: Vec<_> = (0..CONNECTIONS)
        .map(|conn| {
            std::thread::spawn(move || {
                // The read timeout must cover a debug-build planning run
                // plus queue wait behind eleven sibling connections on a
                // cold process; a timed-out request retries as a duplicate
                // planning job, so a too-tight budget compounds the very
                // overload it then fails on.
                let mut client = PlanClient::connect(
                    addr,
                    ClientConfig {
                        read_timeout: Duration::from_millis(1200),
                        retries: 3,
                        backoff_base: Duration::from_millis(2),
                        jitter_seed: conn as u64,
                        ..ClientConfig::default()
                    },
                )
                .expect("soak: connect");
                let queries =
                    [QuerySpec::tpch_q3(), QuerySpec::tpch_q12(), QuerySpec::tpch_q2()];
                let (mut ok, mut typed_err) = (0usize, 0usize);
                for i in 0..PER_CONN {
                    let query = &queries[(conn + i) % queries.len()];
                    let priority = Priority::ALL[(conn + i) % Priority::ALL.len()];
                    match client.plan_with(query, priority, conn as u32, 0) {
                        Ok(reply) => {
                            assert!(reply.plan.is_some(), "soak: reply without a plan");
                            ok += 1;
                        }
                        // Any typed error is an acceptable casualty of the
                        // storm; a panic or a hang is not, and either would
                        // fail the join / overall test timeout instead.
                        Err(_) => typed_err += 1,
                    }
                }
                (ok, typed_err)
            })
        })
        .collect();

    let (mut ok, mut typed_err) = (0usize, 0usize);
    for handle in handles {
        let (o, e) = handle.join().expect("soak: a client thread panicked");
        ok += o;
        typed_err += e;
    }
    assert_eq!(ok + typed_err, CONNECTIONS * PER_CONN, "soak lost a request outcome");
    assert!(
        ok >= CONNECTIONS * PER_CONN / 2,
        "the storm ate the majority of requests: {ok} ok / {typed_err} errors"
    );

    // Drain with the faults still armed: shutdown itself must survive the
    // schedule. Then account for every resource.
    server.shutdown();
    drop(service);
    drop(_guard);
    assert!(!raqo_faults::armed(), "soak: faults leaked");
    assert_connections_balanced(&tel);

    // Thread accounting: every server, worker, and client thread must be
    // joined. Detached threads would show up here.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = threads_now();
        if now <= threads_before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "soak leaked threads: {threads_before} before, {now} after"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
