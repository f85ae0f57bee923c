//! End-to-end wire tests: a real [`PlanServer`] on a loopback socket, real
//! [`PlanClient`]s, and raw sockets for the protocol-abuse cases. The
//! chaos suite (armed faults) lives in `crates/bench/tests/net_chaos.rs`;
//! everything here runs with the injector disarmed.

use raqo_catalog::tpch::TpchSchema;
use raqo_catalog::QuerySpec;
use raqo_core::{
    PlanRequest, PlanningService, PlannerKind, Priority, RaqoOptimizer, ResourceStrategy,
    ServiceConfig, ShardedCacheBank,
};
use raqo_cost::{OperatorCost, SimOracleCost};
use raqo_net::{
    decode, ClientConfig, Decoded, ErrorCode, Frame, NetConfig, NetError, PlanClient, PlanServer,
    RequestFrame, DEFAULT_MAX_BODY, MAGIC, VERSION,
};
use raqo_resource::{CacheLookup, ClusterConditions};
use raqo_sim::engine::JoinImpl;
use raqo_telemetry::{Counter, Telemetry};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

fn start_service(config: ServiceConfig, telemetry: Telemetry) -> Arc<PlanningService> {
    Arc::new(PlanningService::start(
        config,
        ShardedCacheBank::with_shards(8),
        telemetry,
        build_optimizer,
    ))
}

fn start_server(net: NetConfig, svc: ServiceConfig) -> (PlanServer, Telemetry) {
    let telemetry = Telemetry::enabled();
    let service = start_service(svc, telemetry.clone());
    let server = PlanServer::bind("127.0.0.1:0", net, service, telemetry.clone())
        .expect("bind loopback");
    (server, telemetry)
}

/// Frame reader over a raw socket: keeps a buffer across calls so frames
/// that coalesce into one `read` are not lost.
struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    fn new() -> FrameReader {
        FrameReader { buf: Vec::new() }
    }

    fn next(&mut self, stream: &mut TcpStream) -> Option<Frame> {
        let mut chunk = [0u8; 4096];
        loop {
            match decode(&self.buf, DEFAULT_MAX_BODY) {
                Decoded::Frame(frame, consumed) => {
                    self.buf.drain(..consumed);
                    return Some(frame);
                }
                Decoded::Corrupt(_) => return None,
                Decoded::Incomplete { .. } => {}
            }
            match stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(_) => return None,
            }
        }
    }
}


/// Spin until `cond` holds or five seconds elapse.
fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

/// One-shot convenience for tests that expect a single frame.
fn read_frame(stream: &mut TcpStream) -> Option<Frame> {
    FrameReader::new().next(stream)
}

#[test]
fn wire_plans_match_in_process_planning_bit_for_bit() {
    let (server, _tel) = start_server(NetConfig::default(), ServiceConfig::default());
    let mut client = PlanClient::connect(server.local_addr(), ClientConfig::default()).unwrap();

    // In-process twin with its own bank: same factory, same budgets.
    let local = start_service(ServiceConfig::default(), Telemetry::disabled());

    for (query, priority) in [
        (QuerySpec::tpch_q12(), Priority::Interactive),
        (QuerySpec::tpch_q3(), Priority::Standard),
        (QuerySpec::tpch_q3(), Priority::Batch),
    ] {
        let wire = client.plan(&query, priority).expect("wire plan");
        assert!(!wire.shed);
        assert!(!wire.deadline_expired);
        let summary = wire.plan.as_ref().expect("plan summary decodes");
        assert!(summary.time_sec > 0.0);
        assert!(summary.cost > 0.0);

        let local_reply = local
            .submit(PlanRequest::new(query.clone(), priority))
            .wait();
        let local_json = serde_json::to_string(&local_reply.plan).unwrap();
        assert_eq!(
            wire.plan_json, local_json,
            "the wire answer must be byte-identical to in-process planning"
        );
    }
    server.shutdown();
}

/// Eight clients on their own threads, each in its own tenant namespace,
/// plan several queries in turn with no fault armed: every reply carries
/// a plan, none is shed, and each is byte-identical to planning the same
/// sequence in process.
#[test]
fn concurrent_connections_each_get_their_in_process_plans() {
    const CONNECTIONS: u32 = 8;
    let queries =
        [QuerySpec::tpch_q3(), QuerySpec::tpch_q12(), QuerySpec::tpch_q2(), QuerySpec::tpch_q3()];
    let (server, _tel) = start_server(NetConfig::default(), ServiceConfig::default());
    let addr = server.local_addr();
    let clients: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut client = PlanClient::connect(addr, ClientConfig::default()).unwrap();
                let mut replies = Vec::new();
                for query in &queries {
                    let reply = client
                        .plan_with(query, Priority::Standard, 100 + c, 0)
                        .expect("wire plan");
                    assert!(!reply.shed && !reply.deadline_expired, "connection {c}");
                    let summary = reply.plan.expect("every reply carries a plan");
                    assert!(summary.degradation.is_none(), "connection {c}: {summary:?}");
                    replies.push(reply.plan_json);
                }
                replies
            })
        })
        .collect();
    let wire: Vec<Vec<String>> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    server.shutdown();

    // The twin replays each namespace's sequence: a namespace's cache
    // entries see only its own requests, in the same order.
    let local = start_service(ServiceConfig::default(), Telemetry::disabled());
    for (c, replies) in (100..).zip(&wire) {
        for (query, json) in queries.iter().zip(replies) {
            let request = PlanRequest::new(query.clone(), Priority::Standard).with_namespace(c);
            let plan = local.submit(request).wait().plan;
            let local = serde_json::to_string(&plan).unwrap();
            assert_eq!(*json, local, "namespace {c}, {}", query.name);
        }
    }
}

#[test]
fn reply_carries_trace_id_and_timings() {
    let (server, _tel) = start_server(NetConfig::default(), ServiceConfig::default());
    let mut client = PlanClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    let reply = client.plan(&QuerySpec::tpch_q3(), Priority::Standard).unwrap();
    assert_ne!(reply.trace_id, 0, "enabled telemetry stamps a trace id into the frame");
    assert!(reply.service_us > 0);
    server.shutdown();
}

/// A reply's plan JSON reports exactly the planner's three counters —
/// resource iterations, `getPlanCost` calls, cache hits — as whole
/// numbers describing real work.
#[test]
fn reply_stats_carry_exactly_the_planner_counters() {
    use serde_json::Value;
    let (server, _tel) = start_server(NetConfig::default(), ServiceConfig::default());
    let mut client = PlanClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    let reply = client.plan(&QuerySpec::tpch_q3(), Priority::Standard).unwrap();
    server.shutdown();
    let field = |value: &Value, name: &str| match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone()),
        _ => None,
    };
    let plan = serde_json::from_str(&reply.plan_json).expect("the plan JSON parses");
    let Some(Value::Object(stats)) = field(&plan, "stats") else {
        panic!("no stats object in {}", reply.plan_json);
    };
    let names: Vec<&str> = stats.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["resource_iterations", "plan_cost_calls", "cache_hits"]);
    for (name, value) in &stats {
        let Value::Num(n) = value else { panic!("{name} = {value:?}") };
        assert!(n.fract() == 0.0 && *n >= 0.0, "{name} = {n}");
    }
    assert!(matches!(field(&Value::Object(stats), "plan_cost_calls"), Some(Value::Num(n)) if n > 0.0));
}

#[test]
fn expired_deadline_comes_back_annotated_not_stale() {
    // One worker: queue a slow-ish request ahead so the 1 ms deadline is
    // long gone when the worker reaches it.
    let (server, _tel) = start_server(
        NetConfig::default(),
        ServiceConfig { workers: 1, ..ServiceConfig::default() },
    );
    let addr = server.local_addr();
    // Pipeline a pile of cold-namespace batch requests on a raw socket (no
    // reads) so the single worker has real backlog when the deadline
    // request lands behind it.
    let mut ahead = TcpStream::connect(addr).unwrap();
    let mut backlog = Vec::new();
    for id in 0..32u64 {
        backlog.extend_from_slice(
            &RequestFrame {
                request_id: 500 + id,
                priority: Priority::Batch,
                namespace: 100 + id as u32,
                deadline_ms: 0,
                query: QuerySpec::tpch_q3(),
            }
            .encode(),
        );
    }
    ahead.write_all(&backlog).unwrap();
    // Let the backlog decode and enter the queues ahead of us.
    std::thread::sleep(Duration::from_millis(20));
    let mut client = PlanClient::connect(addr, ClientConfig::default()).unwrap();
    let reply = client
        .plan_with(&QuerySpec::tpch_q3(), Priority::Batch, 0, 1)
        .expect("an expired deadline still gets an answer");
    assert!(reply.deadline_expired, "queue wait must have consumed the 1 ms budget");
    let summary = reply.plan.expect("bottom-rung answer is still a plan");
    assert!(
        summary.degradation.is_some(),
        "expired-deadline plans are degradation-annotated"
    );
    drop(ahead);
    server.shutdown();
}

#[test]
fn same_request_id_is_deduped_from_the_reply_ring() {
    let (server, tel) = start_server(NetConfig::default(), ServiceConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let frame = RequestFrame {
        request_id: 77,
        priority: Priority::Standard,
        namespace: 0,
        deadline_ms: 0,
        query: QuerySpec::tpch_q3(),
    }
    .encode();

    stream.write_all(&frame).unwrap();
    let first = match read_frame(&mut stream) {
        Some(Frame::Reply(r)) => r,
        other => panic!("expected a reply, got {other:?}"),
    };
    // The same id again — answered from the ring, byte-identical, and
    // counted as a dedup rather than planned twice.
    stream.write_all(&frame).unwrap();
    let second = match read_frame(&mut stream) {
        Some(Frame::Reply(r)) => r,
        other => panic!("expected a deduped reply, got {other:?}"),
    };
    assert_eq!(first, second, "ring replay returns the exact original reply");
    let snap = tel.snapshot().unwrap();
    assert_eq!(snap.get(Counter::NetRepliesDeduped), 1);
    server.shutdown();
}

#[test]
fn malformed_frames_get_typed_errors_then_close() {
    let (server, tel) = start_server(NetConfig::default(), ServiceConfig::default());

    // Garbage that isn't even magic.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    match read_frame(&mut stream) {
        Some(Frame::Error(e)) => assert_eq!(e.code, ErrorCode::BadMagic),
        other => panic!("garbage must earn a typed error, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(
        stream.read_to_end(&mut rest).unwrap_or(0),
        0,
        "after the error frame the server closes the connection"
    );

    // Right magic, hostile version.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(200); // version from the future
    bytes.push(1);
    bytes.extend_from_slice(&8u32.to_be_bytes());
    bytes.extend_from_slice(&[0u8; 8]);
    stream.write_all(&bytes).unwrap();
    match read_frame(&mut stream) {
        Some(Frame::Error(e)) => assert_eq!(e.code, ErrorCode::BadVersion),
        other => panic!("{other:?}"),
    }

    // Hostile length prefix: rejected from the header alone.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(VERSION);
    bytes.push(1);
    bytes.extend_from_slice(&u32::MAX.to_be_bytes());
    stream.write_all(&bytes).unwrap();
    match read_frame(&mut stream) {
        Some(Frame::Error(e)) => assert_eq!(e.code, ErrorCode::Oversized),
        other => panic!("{other:?}"),
    }

    // A valid header whose body is hostile JSON.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let body = b"\0\0\0\0\0\0\0\x01\x00\0\0\0\0\0\0\0\0{\"name\":\"q\",\"relations\":[]}";
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(VERSION);
    bytes.push(1);
    bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
    bytes.extend_from_slice(body);
    stream.write_all(&bytes).unwrap();
    match read_frame(&mut stream) {
        Some(Frame::Error(e)) => assert_eq!(e.code, ErrorCode::BadBody),
        other => panic!("{other:?}"),
    }

    let snap = tel.snapshot().unwrap();
    assert_eq!(snap.get(Counter::NetFrameErrors), 4, "each abuse counted once");
    server.shutdown();
}

#[test]
fn connection_cap_sheds_with_an_overloaded_frame() {
    let (server, tel) = start_server(
        NetConfig { max_connections: 1, ..NetConfig::default() },
        ServiceConfig::default(),
    );
    // Fill the only slot and prove it's live.
    let mut occupant = PlanClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    occupant.plan(&QuerySpec::tpch_q3(), Priority::Standard).unwrap();
    assert_eq!(server.live_connections(), 1);

    // The next connection is shed at accept with a typed reply.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match read_frame(&mut stream) {
        Some(Frame::Error(e)) => {
            assert_eq!(e.code, ErrorCode::Overloaded);
            assert_eq!(e.request_id, 0);
        }
        other => panic!("cap overflow must answer Overloaded, got {other:?}"),
    }
    let snap = tel.snapshot().unwrap();
    assert_eq!(snap.get(Counter::NetShedConnCap), 1);
    server.shutdown();
}

#[test]
fn admission_overload_sheds_with_typed_replies_not_hangs() {
    // One worker and a one-slot admission queue: burst requests on one
    // socket and count typed answers. The loop never plans inline, so what
    // admission refuses comes back `Overloaded` at once.
    let (server, tel) = start_server(
        NetConfig { ticket_timeout: Duration::from_secs(30), ..NetConfig::default() },
        ServiceConfig { workers: 1, queue_capacity: 1, ..ServiceConfig::default() },
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let burst = 8u64;
    let mut bytes = Vec::new();
    for id in 0..burst {
        bytes.extend_from_slice(
            &RequestFrame {
                request_id: 1000 + id,
                priority: Priority::Standard,
                namespace: 0,
                deadline_ms: 0,
                query: QuerySpec::tpch_q3(),
            }
            .encode(),
        );
    }
    stream.write_all(&bytes).unwrap();
    let mut reader = FrameReader::new();
    let mut replies = 0u64;
    let mut overloaded = 0u64;
    for _ in 0..burst {
        match reader.next(&mut stream) {
            Some(Frame::Reply(_)) => replies += 1,
            Some(Frame::Error(e)) if e.code == ErrorCode::Overloaded => overloaded += 1,
            other => panic!("every request gets a typed answer, got {other:?}"),
        }
    }
    assert_eq!(replies + overloaded, burst);
    assert!(overloaded > 0, "a 1-slot admission queue under an 8-burst must shed");
    let snap = tel.snapshot().unwrap();
    assert_eq!(snap.get(Counter::NetShedOverloaded), overloaded);
    assert_eq!(snap.get(Counter::ServiceShed), 0, "nothing was planned inline");
    server.shutdown();
}

#[test]
fn wedged_tickets_surface_as_wait_timeout_errors() {
    // Wedged for real (see `GatedCost`): a zero timeout alone races a
    // release-build worker that can answer a warm retry before the loop
    // even looks at its timer.
    let (server, _tel, gate) = start_gated_server(NetConfig {
        ticket_timeout: Duration::from_millis(20),
        ..NetConfig::default()
    });
    let mut client = PlanClient::connect(
        server.local_addr(),
        ClientConfig { retries: 1, ..ClientConfig::default() },
    )
    .unwrap();
    match client.plan(&QuerySpec::tpch_q3(), Priority::Standard) {
        Err(NetError::RetriesExhausted { attempts, last }) => {
            assert_eq!(attempts, 2);
            match *last {
                NetError::Server { code, .. } => assert_eq!(code, ErrorCode::WaitTimeout),
                other => panic!("{other}"),
            }
        }
        other => panic!("a wedged ticket must exhaust retries, got {other:?}"),
    }
    drop(gate);
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped_working_ones_are_not() {
    let (server, tel) = start_server(
        NetConfig { idle_timeout: Duration::from_millis(80), ..NetConfig::default() },
        ServiceConfig::default(),
    );
    let mut client = PlanClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    client.plan(&QuerySpec::tpch_q3(), Priority::Standard).unwrap();
    assert_eq!(server.live_connections(), 1);
    // Planning kept the connection alive past several idle windows;
    // silence now gets it reaped.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.live_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.live_connections(), 0, "idle connection must be reaped");
    let snap = tel.snapshot().unwrap();
    assert_eq!(snap.get(Counter::NetIdleReaped), 1);
    assert_eq!(
        snap.get(Counter::NetConnectionsOpened),
        snap.get(Counter::NetConnectionsClosed),
        "reaped connections are accounted closed"
    );
    server.shutdown();
}

#[test]
fn half_frame_slow_loris_is_reaped_with_a_torn_error() {
    // A peer that sends a valid prefix of a frame and then goes silent
    // (crash without FIN, deliberate slow loris) must not hold its
    // connection slot forever: the reaper takes it back on inactivity
    // alone, answering with a typed Torn error first.
    let (server, tel) = start_server(
        NetConfig { idle_timeout: Duration::from_millis(80), ..NetConfig::default() },
        ServiceConfig::default(),
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let full = RequestFrame {
        request_id: 5,
        priority: Priority::Standard,
        namespace: 0,
        deadline_ms: 0,
        query: QuerySpec::tpch_q3(),
    }
    .encode();
    // Header complete, body torn off: decodes as Incomplete forever.
    stream.write_all(&full[..12]).unwrap();

    assert!(
        wait_until(|| {
            let snap = tel.snapshot().unwrap();
            snap.get(Counter::NetConnectionsOpened) == 1
                && snap.get(Counter::NetConnectionsClosed) == 1
        }),
        "half-frame connection must be reaped"
    );
    assert_eq!(server.live_connections(), 0);
    match read_frame(&mut stream) {
        Some(Frame::Error(e)) => assert_eq!(e.code, ErrorCode::Torn),
        other => panic!("reap of a half-frame must answer Torn, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0, "reaped socket closes");
    let snap = tel.snapshot().unwrap();
    assert_eq!(snap.get(Counter::NetIdleReaped), 1);
    assert_eq!(
        snap.get(Counter::NetConnectionsOpened),
        snap.get(Counter::NetConnectionsClosed),
    );
    server.shutdown();
}

#[test]
fn eof_mid_frame_is_answered_with_a_torn_error_frame() {
    // The peer's write side closes mid-frame: no more bytes are coming, so
    // the torn stream draws a typed error before the close — never silent.
    let (server, tel) = start_server(NetConfig::default(), ServiceConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let full = RequestFrame {
        request_id: 6,
        priority: Priority::Standard,
        namespace: 0,
        deadline_ms: 0,
        query: QuerySpec::tpch_q3(),
    }
    .encode();
    stream.write_all(&full[..full.len() - 3]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    match read_frame(&mut stream) {
        Some(Frame::Error(e)) => assert_eq!(e.code, ErrorCode::Torn),
        other => panic!("EOF mid-frame must answer Torn, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0);
    let snap = tel.snapshot().unwrap();
    assert_eq!(snap.get(Counter::NetFrameErrors), 1, "the torn stream is counted once");
    server.shutdown();
}

#[test]
fn slow_readers_are_shed_at_the_output_cap() {
    // A peer that sends requests but never reads its socket must not grow
    // the server's per-connection output buffer without bound: once the
    // buffered replies would pass `output_cap` the connection is dropped.
    let (server, tel) = start_server(
        // Smaller than any reply frame, so the very first completion
        // overflows deterministically without having to out-race the
        // kernel's socket buffers.
        NetConfig { output_cap: 64, ..NetConfig::default() },
        ServiceConfig::default(),
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .write_all(
            &RequestFrame {
                request_id: 8,
                priority: Priority::Standard,
                namespace: 0,
                deadline_ms: 0,
                query: QuerySpec::tpch_q3(),
            }
            .encode(),
        )
        .unwrap();
    // Monotonic counters, not `live_connections`: accept through shed can
    // all land inside one poll of this test's wait loop.
    assert!(
        wait_until(|| {
            let snap = tel.snapshot().unwrap();
            snap.get(Counter::NetConnectionsOpened) == 1
                && snap.get(Counter::NetConnectionsClosed) == 1
        }),
        "slow reader must be disconnected"
    );
    assert_eq!(server.live_connections(), 0);
    let snap = tel.snapshot().unwrap();
    assert_eq!(snap.get(Counter::NetShedSlowReader), 1);
    assert_eq!(
        snap.get(Counter::NetConnectionsOpened),
        snap.get(Counter::NetConnectionsClosed),
    );
    // Accept, read, completion: a handful of passes, not a spin.
    assert!(server.wakeups() <= 8, "{} passes for one shed request", server.wakeups());
    server.shutdown();
}

#[test]
fn shutdown_drains_flushes_the_checkpoint_and_balances_the_books() {
    let path = std::env::temp_dir().join("raqo_net_drain_ckpt.json");
    std::fs::remove_file(&path).ok();
    let (server, tel) = start_server(
        NetConfig::default(),
        ServiceConfig {
            checkpoint_path: Some(path.clone()),
            model_fingerprint: Some(0xabc),
            ..ServiceConfig::default()
        },
    );
    let mut client = PlanClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    client.plan(&QuerySpec::tpch_q3(), Priority::Standard).unwrap();
    client.plan(&QuerySpec::tpch_q12(), Priority::Interactive).unwrap();
    server.shutdown(); // must not hang, must close everything

    let snap = tel.snapshot().unwrap();
    assert_eq!(
        snap.get(Counter::NetConnectionsOpened),
        snap.get(Counter::NetConnectionsClosed),
        "every opened connection is closed by drain"
    );
    // The drain flushed the shared bank: a restarted server loads it warm.
    let (loaded, invalidated) = ShardedCacheBank::load(&path, 8, Some(0xabc)).unwrap();
    assert!(!invalidated);
    assert!(loaded.total_entries() > 0, "drain checkpoint carries the warm cache");
    std::fs::remove_file(&path).ok();
}

#[test]
fn client_retries_reconnect_after_the_server_drops_the_connection() {
    // The server reaps the client's idle connection; the next call's first
    // attempt hits the dead socket, and a bounded retry reconnects — same
    // request id throughout, so a duplicate answer would have been deduped.
    let (server, _tel) = start_server(
        NetConfig { idle_timeout: Duration::from_millis(60), ..NetConfig::default() },
        ServiceConfig::default(),
    );
    let tel = Telemetry::enabled();
    let mut client = PlanClient::connect(
        server.local_addr(),
        ClientConfig {
            retries: 3,
            backoff_base: Duration::from_millis(5),
            ..ClientConfig::default()
        },
    )
    .unwrap()
    .with_telemetry(tel.clone());
    client.plan(&QuerySpec::tpch_q3(), Priority::Standard).unwrap();

    // Wait until the reaper has taken the connection out from under us.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.live_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.live_connections(), 0);

    let reply = client
        .plan(&QuerySpec::tpch_q3(), Priority::Standard)
        .expect("a retry must carry the call onto a fresh connection");
    assert!(reply.plan.is_some());
    let snap = tel.snapshot().unwrap();
    assert!(
        snap.get(Counter::NetClientRetries) >= 1,
        "the dead first connection must have cost at least one retry"
    );
    server.shutdown();
}

// ---- the readiness loop ------------------------------------------------
//
// The event loop blocks until a socket is ready, a timer is due, or another
// thread wakes it. The tests below disarm every timer, so a lost wake-up is
// a hang rather than a late answer, and count loop passes
// ([`PlanServer::wakeups`]), so a level-triggered busy-spin is a failure
// rather than a hot core.

/// No idle deadline is representable, so the loop never has a timer to
/// fall back on: every pass must come from readiness or a wake.
fn no_timers() -> NetConfig {
    NetConfig { idle_timeout: Duration::MAX, ..NetConfig::default() }
}

fn request(request_id: u64) -> RequestFrame {
    RequestFrame {
        request_id,
        priority: Priority::Standard,
        namespace: 0,
        deadline_ms: 0,
        query: QuerySpec::tpch_q3(),
    }
}

/// A cost model that blocks every evaluation while its gate is shut: the
/// deterministic way to hold a planning ticket in flight.
struct GatedCost {
    inner: SimOracleCost,
    open: Mutex<bool>,
    opened: Condvar,
}

impl OperatorCost for GatedCost {
    fn join_cost(
        &self,
        join: JoinImpl,
        build_gb: f64,
        probe_gb: f64,
        containers: f64,
        container_size_gb: f64,
    ) -> Option<f64> {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        drop(open);
        self.inner.join_cost(join, build_gb, probe_gb, containers, container_size_gb)
    }
}

/// Opens the gate when dropped, so a failing assertion unwinds into a
/// shutdown that can finish instead of a hang. Declare it *after* the
/// server it gates (locals drop in reverse order).
struct GateOpener(&'static GatedCost);

impl Drop for GateOpener {
    fn drop(&mut self) {
        *self.0.open.lock().unwrap() = true;
        self.0.opened.notify_all();
    }
}

/// A server whose planning workers are wedged until the opener drops.
fn start_gated_server(net: NetConfig) -> (PlanServer, Telemetry, GateOpener) {
    let gated: &'static GatedCost = Box::leak(Box::new(GatedCost {
        inner: SimOracleCost::hive(),
        open: Mutex::new(false),
        opened: Condvar::new(),
    }));
    let (server, telemetry) = start_server_with_model(gated, net);
    (server, telemetry, GateOpener(gated))
}

/// A server whose planning workers price joins with `model`.
fn start_server_with_model<M: OperatorCost + Send + Sync + 'static>(
    model: &'static M,
    net: NetConfig,
) -> (PlanServer, Telemetry) {
    static SCHEMA: std::sync::OnceLock<TpchSchema> = std::sync::OnceLock::new();
    let schema = SCHEMA.get_or_init(|| TpchSchema::new(1.0));
    let telemetry = Telemetry::enabled();
    let service = Arc::new(PlanningService::start(
        ServiceConfig::default(),
        ShardedCacheBank::with_shards(8),
        telemetry.clone(),
        |_| {
            RaqoOptimizer::new(
                Arc::new(schema.catalog.clone()),
                Arc::new(schema.graph.clone()),
                model,
                ClusterConditions::paper_default(),
                PlannerKind::fast_randomized(7),
                ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor {
                    threshold: 0.05,
                }),
            )
        },
    ));
    let server = PlanServer::bind("127.0.0.1:0", net, service, telemetry.clone())
        .expect("bind loopback");
    (server, telemetry)
}

/// A cost model that panics on every evaluation: a plan that never
/// finishes because its worker unwinds.
struct PanickingCost;

impl OperatorCost for PanickingCost {
    fn join_cost(&self, _: JoinImpl, _: f64, _: f64, _: f64, _: f64) -> Option<f64> {
        panic!("cost model failure (deliberate, test)");
    }
}

#[test]
fn a_completion_after_its_wait_timeout_is_dropped() {
    // The timeout also bounds the two requests planned after the gate
    // opens, and a debug-build plan on a busy machine can outlast 20 ms:
    // one second wedges the first request just as surely.
    let (server, tel, gate) = start_gated_server(NetConfig {
        ticket_timeout: Duration::from_secs(1),
        ..NetConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = FrameReader::new();
    stream.write_all(&request(91).encode()).unwrap();
    match reader.next(&mut stream) {
        Some(Frame::Error(e)) => {
            assert_eq!(e.code, ErrorCode::WaitTimeout);
            assert_eq!(e.request_id, 91);
        }
        other => panic!("the wedged request must time out, got {other:?}"),
    }
    assert_eq!(server.in_flight(), 0, "a timed-out request is no longer in flight");
    // Let the wedged plan finish. A ticket's trace closes after its reply
    // hook has run, so once one has closed the late completion is in the
    // outbox, ahead of anything sent from here on.
    drop(gate);
    assert!(wait_until(|| {
        let snap = tel.snapshot().unwrap();
        snap.get(Counter::TracesRetained) + snap.get(Counter::TracesSampledOut) >= 1
    }));
    // The next frame answers the next request: nothing more for 91.
    stream.write_all(&request(92).encode()).unwrap();
    match reader.next(&mut stream) {
        Some(Frame::Reply(r)) => assert_eq!(r.request_id, 92),
        other => panic!("the late completion must be dropped, got {other:?}"),
    }
    // A retry of 91 is planned afresh, not replayed from the reply ring.
    stream.write_all(&request(91).encode()).unwrap();
    match reader.next(&mut stream) {
        Some(Frame::Reply(r)) => assert_eq!(r.request_id, 91),
        other => panic!("expected a fresh reply, got {other:?}"),
    }
    let snap = tel.snapshot().unwrap();
    assert_eq!(snap.get(Counter::NetRepliesDeduped), 0);
    assert_eq!(snap.get(Counter::ServiceCompleted), 3, "91 planned twice, 92 once");
    assert_eq!(server.in_flight(), 0);
    server.shutdown();
}

#[test]
fn a_panicking_plan_is_answered_with_a_null_plan_not_a_timeout() {
    static MODEL: PanickingCost = PanickingCost;
    let (server, tel) = start_server_with_model(&MODEL, no_timers());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(&request(95).encode()).unwrap();
    match read_frame(&mut stream) {
        Some(Frame::Reply(r)) => {
            assert_eq!(r.request_id, 95);
            assert_eq!(r.plan_json, "null", "the unwinding worker answers with no plan");
        }
        other => panic!("a panicking plan must still be answered, got {other:?}"),
    }
    assert_eq!(server.in_flight(), 0);
    assert_eq!(tel.snapshot().unwrap().get(Counter::ServiceCompleted), 0);
    server.shutdown();
}

#[test]
fn completions_and_new_connections_wake_a_loop_with_no_timer() {
    let (server, _tel) = start_server(no_timers(), ServiceConfig::default());
    // Completion wake: the reply exists only once a completion hook has
    // posted it, and nothing but the waker tells the loop.
    let mut first = PlanClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    first.plan(&QuerySpec::tpch_q3(), Priority::Standard).expect("completion wake");
    // Listener readiness: the first connection now sits idle, so only the
    // listener becoming readable can bring the second one in.
    let mut second = PlanClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    second.plan(&QuerySpec::tpch_q12(), Priority::Interactive).expect("listener readiness");
    assert_eq!(server.live_connections(), 2);
    first.plan(&QuerySpec::tpch_q12(), Priority::Batch).expect("idle connection still served");
    server.shutdown();
}

#[test]
fn shutdown_wakes_an_idle_loop() {
    let (server, tel) = start_server(no_timers(), ServiceConfig::default());
    let idle: Vec<TcpStream> =
        (0..2).map(|_| TcpStream::connect(server.local_addr()).unwrap()).collect();
    assert!(wait_until(|| server.live_connections() == 2));
    // Nothing is ready and no timer is armed: only the stop wake ends the
    // wait. A missed wake hangs here.
    server.shutdown();
    let snap = tel.snapshot().unwrap();
    assert_eq!(snap.get(Counter::NetConnectionsClosed), 2);
    drop(idle);
}

#[test]
fn requests_pipelined_in_one_write_are_all_answered() {
    // Readiness is reported once for the lot, so every complete frame in
    // the buffer must be decoded on that one pass — none may wait for a
    // second event that will not come.
    let (server, _tel) = start_server(no_timers(), ServiceConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut bytes = Vec::new();
    for id in 0..5u64 {
        bytes.extend_from_slice(&request(300 + id).encode());
    }
    stream.write_all(&bytes).unwrap();
    let mut reader = FrameReader::new();
    let mut answered: Vec<u64> = (0..5)
        .map(|_| match reader.next(&mut stream) {
            Some(Frame::Reply(r)) => r.request_id,
            other => panic!("expected five replies, got {other:?}"),
        })
        .collect();
    answered.sort_unstable();
    assert_eq!(answered, vec![300, 301, 302, 303, 304]);
    server.shutdown();
}

#[test]
fn half_closed_client_still_receives_its_wait_timeout() {
    // The peer's EOF arrives while its request is wedged in planning. The
    // connection must neither close early (the answer is still owed) nor
    // keep polling a socket whose EOF stays readable forever.
    let (server, _tel, gate) = start_gated_server(NetConfig {
        ticket_timeout: Duration::from_millis(150),
        ..no_timers()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&request(41).encode()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    match read_frame(&mut stream) {
        Some(Frame::Error(e)) => {
            assert_eq!(e.code, ErrorCode::WaitTimeout);
            assert_eq!(e.request_id, 41);
        }
        other => panic!("the wedged ticket must surface as WaitTimeout, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0, "then the server closes");
    // Accept, request, EOF, completion — the 150 ms in between were spent
    // asleep, not re-reading the EOF.
    assert!(server.wakeups() <= 8, "{} passes for one request", server.wakeups());
    drop(gate);
    server.shutdown();
}

#[test]
fn nothing_is_read_after_a_corrupt_frame() {
    let (server, tel, gate) = start_gated_server(no_timers());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = FrameReader::new();
    // One good request, held in flight by the gate; then the stream loses
    // its framing.
    stream.write_all(&request(51).encode()).unwrap();
    assert!(wait_until(|| server.in_flight() == 1));
    stream.write_all(b"not a frame").unwrap();
    match reader.next(&mut stream) {
        Some(Frame::Error(e)) => assert_eq!(e.code, ErrorCode::BadMagic),
        other => panic!("garbage must earn a typed error, got {other:?}"),
    }
    // Whatever follows on a desynchronised stream — even bytes that happen
    // to look like a request — is neither decoded nor dispatched, and its
    // sitting unread in the socket must not spin the loop.
    let passes = server.wakeups();
    stream.write_all(&request(52).encode()).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(server.wakeups(), passes, "unread input woke the loop");
    assert_eq!(server.in_flight(), 1);
    assert_eq!(tel.snapshot().unwrap().get(Counter::NetFramesIn), 1);
    // The reply still owed is delivered, then the connection closes.
    drop(gate);
    match reader.next(&mut stream) {
        Some(Frame::Reply(r)) => assert_eq!(r.request_id, 51),
        other => panic!("the in-flight reply is still owed, got {other:?}"),
    }
    assert!(reader.next(&mut stream).is_none(), "request 52 must never be answered");
    assert!(wait_until(|| server.live_connections() == 0));
    server.shutdown();
}

#[test]
fn idle_server_with_open_connections_does_not_wake() {
    let (server, _tel) = start_server(NetConfig::default(), ServiceConfig::default());
    let idle: Vec<TcpStream> =
        (0..8).map(|_| TcpStream::connect(server.local_addr()).unwrap()).collect();
    assert!(wait_until(|| server.live_connections() == 8));
    let before = server.wakeups();
    std::thread::sleep(Duration::from_millis(300));
    let passes = server.wakeups() - before;
    assert!(passes <= 4, "idle loop made {passes} passes in 300 ms");
    drop(idle);
    server.shutdown();
}

#[test]
fn blocked_output_waits_for_writability_and_then_resumes() {
    // A peer that pipelines without reading fills the kernel's socket
    // buffers; the rest of its replies wait in the server. While it stays
    // away the loop must sleep on POLLOUT, and when it finally reads, that
    // readiness alone must restart the flush.
    const REPLAYS: u64 = 16_000;
    let (server, tel) = start_server(
        NetConfig { output_cap: 64 << 20, ..no_timers() },
        ServiceConfig::default(),
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = FrameReader::new();
    let frame = request(61).encode();
    stream.write_all(&frame).unwrap();
    let original = match reader.next(&mut stream) {
        Some(Frame::Reply(r)) => r,
        other => panic!("expected a reply, got {other:?}"),
    };
    // Replays are served from the reply ring: ~15 MB of output for no
    // planning work, more than loopback buffers hold.
    let mut burst = Vec::new();
    for _ in 0..REPLAYS {
        burst.extend_from_slice(&frame);
    }
    stream.write_all(&burst).unwrap();
    assert!(wait_until(|| {
        tel.snapshot().unwrap().get(Counter::NetRepliesDeduped) == REPLAYS
    }));
    let before = server.wakeups();
    std::thread::sleep(Duration::from_millis(200));
    let passes = server.wakeups() - before;
    assert!(passes <= 4, "blocked output spun the loop: {passes} passes in 200 ms");
    for i in 0..REPLAYS {
        match reader.next(&mut stream) {
            Some(Frame::Reply(r)) => assert_eq!(r, original, "replay {i}"),
            other => panic!("replay {i} of {REPLAYS} lost: {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn a_zero_reply_ring_keeps_nothing() {
    let (server, tel) = start_server(
        NetConfig { reply_ring: 0, ..NetConfig::default() },
        ServiceConfig::default(),
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let frame = request(71).encode();
    for _ in 0..2 {
        stream.write_all(&frame).unwrap();
        match read_frame(&mut stream) {
            Some(Frame::Reply(r)) => assert_eq!(r.request_id, 71),
            other => panic!("expected a reply, got {other:?}"),
        }
    }
    assert_eq!(tel.snapshot().unwrap().get(Counter::NetRepliesDeduped), 0);
    server.shutdown();
}
