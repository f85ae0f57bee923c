//! A `PlanServer` is one thread: the event loop. It submits straight into
//! the planning service, whose workers post replies back, so binding a
//! server beside a running service adds exactly that thread and shutting
//! it down takes it away again.
//!
//! The count is the whole process's, so this test lives alone in its own
//! test binary.

use raqo_catalog::tpch::TpchSchema;
use raqo_catalog::QuerySpec;
use raqo_core::{
    PlannerKind, PlanningService, Priority, RaqoOptimizer, ResourceStrategy, ServiceConfig,
    ShardedCacheBank,
};
use raqo_cost::SimOracleCost;
use raqo_net::{ClientConfig, NetConfig, PlanClient, PlanServer};
use raqo_resource::{CacheLookup, ClusterConditions};
use raqo_telemetry::Telemetry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kernel threads of this process, from `/proc/self/status`.
fn threads_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn bind_adds_exactly_one_thread_and_shutdown_takes_it_back() {
    let schema: &'static TpchSchema = Box::leak(Box::new(TpchSchema::new(1.0)));
    let model: &'static SimOracleCost = Box::leak(Box::new(SimOracleCost::hive()));
    let service = Arc::new(PlanningService::start(
        ServiceConfig::default(),
        ShardedCacheBank::with_shards(8),
        Telemetry::disabled(),
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
    let before = threads_now();
    let server =
        PlanServer::bind("127.0.0.1:0", NetConfig::default(), service.clone(), Telemetry::disabled())
            .expect("bind loopback");
    assert_eq!(threads_now(), before + 1, "the event loop is the server's only thread");

    // Serving a request spawns nothing either.
    let mut client = PlanClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
    let reply = client.plan(&QuerySpec::tpch_q3(), Priority::Standard).expect("served");
    assert!(reply.plan.is_some());
    assert_eq!(threads_now(), before + 1);

    drop(client);
    server.shutdown();
    // `join` returns once the thread has run to its end; the kernel reaps
    // it a moment later.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads_now() > before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads_now(), before, "shutdown joined the event loop");
}
