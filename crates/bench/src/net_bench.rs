//! The wire front end under load: `NetSeries` behind `repro --bench-json`.
//!
//! A [`raqo_net::PlanServer`] wrapping the same sharded planning service
//! the in-process throughput bench drives, hammered by closed-loop
//! [`raqo_net::PlanClient`]s at 1, 4, and 8 connections. Every request is
//! a full round trip — frame encode, TCP, decode, admission queue, worker
//! pool, reply frame — so the series prices exactly what the network
//! layer adds on top of `ThroughputSeries`.
//!
//! Reported per point: requests/sec (first send to last reply) and
//! p50/p99 *end-to-end* latency, computed with the same nearest-rank
//! [`raqo_sim::percentile`] the queue simulator uses. `repro
//! --bench-json` gates the 8-connection point against the in-process
//! series floor ×0.8: the wire layer may tax throughput, but falling
//! below even the slowest in-process configuration means the event loop
//! itself regressed.

use raqo_catalog::tpch::TpchSchema;
use raqo_catalog::QuerySpec;
use raqo_core::{
    PlannerKind, PlanningService, Priority, RaqoOptimizer, ResourceStrategy, ServiceConfig,
    Telemetry,
};
use raqo_cost::JoinCostModel;
use raqo_net::{ClientConfig, NetConfig, PlanClient, PlanServer};
use raqo_resource::{CacheLookup, ClusterConditions, PlanningBudget, ShardedCacheBank};
use raqo_sim::percentile;
use raqo_telemetry::Counter;
use serde::Serialize;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Instant;

/// One connection-count configuration's measurements.
#[derive(Debug, Clone, Serialize)]
pub struct NetPoint {
    /// Concurrent closed-loop client connections.
    pub connections: usize,
    /// Total requests across all connections (timed window only).
    pub requests: usize,
    /// First send to last reply.
    pub wall_ms: f64,
    pub requests_per_sec: f64,
    /// End-to-end: frame encode to decoded reply, per request.
    pub p50_latency_us: f64,
    pub p99_latency_us: f64,
    /// Requests answered shed (0 here: the bench sizes every queue to
    /// hold the whole sweep so each point does identical work).
    pub shed: u64,
    /// Client-side retries (0 in a clean run; nonzero flags flaky loopback).
    pub client_retries: u64,
}

/// The wire-throughput series serialized into `BENCH_planner.json`.
#[derive(Debug, Clone, Serialize)]
pub struct NetSeries {
    pub workload: String,
    /// Planning workers behind the server.
    pub workers: usize,
    pub requests_per_connection: usize,
    /// Points at 1, 4, and 8 client connections.
    pub points: Vec<NetPoint>,
    /// Requests/sec at the largest connection count — the number the
    /// `--bench-json` floor gate compares against `ThroughputSeries`.
    pub peak_requests_per_sec: f64,
}

fn model() -> &'static JoinCostModel {
    static MODEL: OnceLock<JoinCostModel> = OnceLock::new();
    MODEL.get_or_init(JoinCostModel::trained_hive)
}

fn schema() -> &'static TpchSchema {
    static SCHEMA: OnceLock<TpchSchema> = OnceLock::new();
    SCHEMA.get_or_init(|| TpchSchema::new(1.0))
}

fn build_optimizer(_worker: usize) -> RaqoOptimizer<'static, JoinCostModel> {
    let schema = schema();
    RaqoOptimizer::new(
        Arc::new(schema.catalog.clone()),
        Arc::new(schema.graph.clone()),
        model(),
        ClusterConditions::paper_default(),
        PlannerKind::Selinger,
        ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.05 }),
    )
}

/// Rotating per-request query mix — small enough to stay planner-bound,
/// varied enough that the resource cache sees distinct keys.
fn query_mix() -> [QuerySpec; 3] {
    [QuerySpec::tpch_q3(), QuerySpec::tpch_q12(), QuerySpec::tpch_q2()]
}

fn run_point(connections: usize, per_conn: usize) -> NetPoint {
    let total = connections * per_conn;
    let tel = Telemetry::enabled();
    let service = Arc::new(PlanningService::start(
        ServiceConfig {
            workers: 8,
            // Hold the whole sweep: each point plans every request and the
            // comparison across connection counts is pure pipeline time.
            queue_capacity: total.max(connections),
            budgets: [
                PlanningBudget::unlimited(),
                PlanningBudget::unlimited(),
                PlanningBudget::unlimited(),
            ],
            ..Default::default()
        },
        ShardedCacheBank::with_shards(8),
        tel.clone(),
        build_optimizer,
    ));
    let server = PlanServer::bind(
        "127.0.0.1:0",
        NetConfig { max_connections: connections + 4, ..NetConfig::default() },
        service.clone(),
        tel.clone(),
    )
    .expect("net bench: bind");
    let addr = server.local_addr();

    // Every thread warms up (TCP connect + first-plan lazy inits) before
    // the barrier; the wall clock starts when all are ready to send.
    let barrier = Arc::new(Barrier::new(connections + 1));
    let handles: Vec<_> = (0..connections)
        .map(|conn| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut client = PlanClient::connect(addr, ClientConfig::default())
                    .expect("net bench: client connect");
                let queries = query_mix();
                let warm = client
                    .plan_with(&queries[0], Priority::Standard, conn as u32, 0)
                    .expect("net bench: warm-up reply");
                assert!(!warm.plan_json.trim().is_empty(), "warm-up reply carried no plan");
                barrier.wait();
                let mut latencies_us = Vec::with_capacity(per_conn);
                let mut shed = 0u64;
                for i in 0..per_conn {
                    let query = &queries[i % queries.len()];
                    let priority = Priority::ALL[i % Priority::ALL.len()];
                    let sent = Instant::now();
                    let reply = client
                        .plan_with(query, priority, conn as u32, 0)
                        .expect("net bench: reply");
                    latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
                    assert!(reply.plan.is_some(), "net bench: reply without a plan");
                    if reply.shed {
                        shed += 1;
                    }
                }
                (latencies_us, shed)
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    let mut latencies_us: Vec<f64> = Vec::with_capacity(total);
    let mut shed = 0u64;
    for handle in handles {
        let (lat, s) = handle.join().expect("net bench: client thread");
        latencies_us.extend(lat);
        shed += s;
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    server.shutdown();
    drop(service);
    let snap = tel.snapshot().expect("enabled");

    NetPoint {
        connections,
        requests: total,
        wall_ms,
        requests_per_sec: total as f64 / (wall_ms / 1e3).max(1e-9),
        p50_latency_us: percentile(&latencies_us, 50.0),
        p99_latency_us: percentile(&latencies_us, 99.0),
        shed,
        client_retries: snap.get(Counter::NetClientRetries),
    }
}

/// Measure the wire-throughput series (see [`NetSeries`]).
pub fn measure(quick: bool) -> NetSeries {
    let per_conn = if quick { 16 } else { 64 };
    let points: Vec<NetPoint> =
        [1usize, 4, 8].iter().map(|&c| run_point(c, per_conn)).collect();
    let peak = points.last().map_or(0.0, |p| p.requests_per_sec);
    NetSeries {
        workload: format!(
            "TPC-H Q3/Q12/Q2 mix over RQNW v1 frames, closed-loop clients, \
             8 planning workers, per-connection tenant namespaces"
        ),
        workers: 8,
        requests_per_connection: per_conn,
        points,
        peak_requests_per_sec: peak,
    }
}

/// The slowest in-process configuration — the reference the wire series
/// must stay within ×`margin` of (`repro --bench-json` passes 0.8).
pub fn in_process_floor(series: &crate::throughput::ThroughputSeries) -> f64 {
    series.points.iter().map(|p| p.plans_per_sec).fold(f64::INFINITY, f64::min)
}

/// Render the series as a printable [`crate::Table`].
pub fn table(series: &NetSeries) -> crate::Table {
    let mut t = crate::Table::new(
        format!("Wire front end — {}", series.workload),
        &["connections", "requests", "wall (ms)", "req/s", "p50 e2e (us)", "p99 e2e (us)"],
    );
    for p in &series.points {
        t.row(vec![
            (p.connections as u64).into(),
            (p.requests as u64).into(),
            p.wall_ms.into(),
            p.requests_per_sec.into(),
            p.p50_latency_us.into(),
            p.p99_latency_us.into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_series_sweeps_connections_and_answers_every_request() {
        let _serial = crate::timing_lock();
        let series = measure(true);
        assert_eq!(series.points.len(), 3, "{series:?}");
        assert_eq!(
            series.points.iter().map(|p| p.connections).collect::<Vec<_>>(),
            vec![1, 4, 8]
        );
        for p in &series.points {
            assert_eq!(p.requests, p.connections * series.requests_per_connection);
            assert!(p.requests_per_sec > 0.0, "{p:?}");
            assert!(
                p.p99_latency_us >= p.p50_latency_us,
                "percentiles out of order: {p:?}"
            );
            assert_eq!(p.shed, 0, "a fully-provisioned sweep shed requests: {p:?}");
        }
        assert_eq!(series.peak_requests_per_sec, series.points[2].requests_per_sec);
    }
}
