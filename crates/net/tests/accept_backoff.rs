//! `accept` failing for want of descriptors must back the listener off,
//! not spin the event loop: the refused connection stays in the backlog,
//! so a level-triggered listener is readable again at once.
//!
//! Exhausting descriptors is process-wide, so this test lives alone in its
//! own test binary.

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
use std::fs::File;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn accept_failure_backs_off_instead_of_spinning_and_recovers() {
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
    // No idle deadline: the back-off is the only timer the loop can have.
    let server = PlanServer::bind(
        "127.0.0.1:0",
        NetConfig { idle_timeout: Duration::MAX, ..NetConfig::default() },
        service,
        Telemetry::disabled(),
    )
    .expect("bind loopback");

    // Take every descriptor the process may have, then hand one back for
    // the client's own socket. The handshake completes in the kernel's
    // backlog, but the server's accept() now fails with EMFILE.
    let mut hoard: Vec<File> = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        hoard.push(file);
        if hoard.len() > 2_000_000 {
            return; // effectively unlimited descriptors: nothing to test here
        }
    }
    hoard.pop();
    let mut client = PlanClient::connect(server.local_addr(), ClientConfig::default())
        .expect("connect via the backlog");
    std::thread::sleep(Duration::from_millis(350));
    let passes = server.wakeups();
    assert_eq!(server.live_connections(), 0, "accept cannot have succeeded");
    assert!(passes <= 12, "failed accepts spun the loop: {passes} passes in 350 ms");

    // Descriptors come back: the next retry accepts the waiting connection
    // and serves it.
    drop(hoard);
    let reply = client.plan(&QuerySpec::tpch_q3(), Priority::Standard).expect("served");
    assert!(reply.plan.is_some());
    assert_eq!(server.live_connections(), 1, "served on the connection that waited");
    server.shutdown();
}
