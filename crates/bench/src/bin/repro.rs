//! `repro` — regenerate the paper's figures from the command line.
//!
//! ```text
//! repro --all                  # every figure, full-size sweeps
//! repro --fig 13               # one figure
//! repro --fig 15 --quick       # reduced sweep sizes
//! repro --all --json out.json  # machine-readable tables as well
//! repro --smoke                # fast path: every figure at tiny sizes
//! repro --chaos                # fault-injection gate: ladder + recovery paths
//! repro --cache-file <path>    # TPC-H sweep warm-started from a persisted cache
//! repro --trace <file>         # traced TPC-H sweep: EXPLAIN ANALYZE + span trees
//! repro --metrics <file>       # TPC-H sweep -> Prometheus text metrics
//! repro --serve <addr>         # raqo-net planning server (drain on Ctrl-D)
//! repro --client <addr>        # TPC-H sweep against a running server
//! repro --list                 # what exists
//! ```

use raqo_bench::experiments::{registry, timed};
use raqo_bench::{bushy, stress, throughput, Table};
use raqo_catalog::{tpch::TpchSchema, QuerySpec};
use raqo_core::{
    explain_analyze, PlannerKind, RaqoOptimizer, RaqoStats, ResourceStrategy, Telemetry,
};
use raqo_cost::JoinCostModel;
use raqo_resource::{CacheLookup, ClusterConditions, ShardedCacheBank};
use raqo_telemetry::{aggregate_spans, render_span_tree, Counter};

/// `--cache-file`: run the TPC-H query sweep with across-query caching,
/// warm-starting the shared resource-plan cache from `path` when it exists
/// and persisting the (further) warmed bank back afterwards. Repeated
/// invocations demonstrate the Fig. 15(b) payoff across *processes*.
fn run_cache_file(path: &str) {
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    // Persisted resource plans are only valid for the model that produced
    // them: the file carries the model fingerprint, and a mismatch (e.g.
    // after retraining) discards the stale bank instead of replaying it.
    let fingerprint = model.fingerprint();
    let tel = Telemetry::enabled();
    let bank = if std::path::Path::new(path).exists() {
        match ShardedCacheBank::load(path, 1, Some(fingerprint)) {
            Ok((bank, invalidated)) => {
                if invalidated {
                    tel.inc(Counter::CacheFileInvalidations);
                    println!(
                        "cache file at {path} is stale (cost-model fingerprint mismatch); starting cold"
                    );
                } else {
                    println!("loaded {} cached resource plans from {path}", bank.total_entries());
                }
                bank
            }
            // A corrupt cache is a recoverable condition, not a crash: the
            // loader has already quarantined the bad file, so we log it,
            // count it, and start cold.
            Err(e) if e.is_corrupt() => {
                tel.inc(Counter::CacheFileInvalidations);
                println!("cache file at {path} is corrupt ({e}); starting cold");
                ShardedCacheBank::with_shards(1)
            }
            Err(e) => panic!("loading cache bank from {path}: {e}"),
        }
    } else {
        println!("no cache file at {path}; starting cold");
        ShardedCacheBank::with_shards(1)
    };

    let queries = [
        ("Q2", QuerySpec::tpch_q2()),
        ("Q3", QuerySpec::tpch_q3()),
        ("Q12", QuerySpec::tpch_q12()),
        ("all-tables", QuerySpec::tpch_all(&schema)),
    ];
    let mut total_ms = 0.0;
    let mut hits = 0;
    for (name, query) in &queries {
        let mut opt = RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &model,
            ClusterConditions::paper_default(),
            PlannerKind::Selinger,
            ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.01 }),
        );
        opt.share_sharded_cache(bank.clone());
        opt.set_telemetry(tel.clone());
        let (plan, ms) = timed(|| opt.optimize(query).expect("plan"));
        total_ms += ms;
        hits += plan.stats.cache_hits;
        println!(
            "  {name:>10}  {ms:>8.1} ms  cost {:>12.3}  {} cache hits",
            plan.query.cost, plan.stats.cache_hits
        );
    }
    if let Err(e) = bank.checkpoint_with_fingerprint(path, fingerprint) {
        eprintln!("repro: saving cache bank to {path}: {e}");
        std::process::exit(1);
    }
    let invalidations =
        tel.snapshot().map_or(0, |s| s.get(Counter::CacheFileInvalidations));
    println!(
        "sweep: {:.1} ms, {hits} cache hits, {invalidations} stale-file invalidation(s); \
         saved {} resource plans to {path} (model {fingerprint:016x})",
        total_ms,
        bank.total_entries()
    );
}

/// The TPC-H sweep shared by `--trace` and `--metrics`.
fn tpch_queries(schema: &TpchSchema) -> [(&'static str, QuerySpec); 4] {
    [
        ("Q2", QuerySpec::tpch_q2()),
        ("Q3", QuerySpec::tpch_q3()),
        ("Q12", QuerySpec::tpch_q12()),
        ("all-tables", QuerySpec::tpch_all(schema)),
    ]
}

fn traced_optimizer<'a>(
    schema: &'a TpchSchema,
    model: &'a JoinCostModel,
    tel: &Telemetry,
) -> RaqoOptimizer<'a, JoinCostModel> {
    let mut opt = RaqoOptimizer::new(
        &schema.catalog,
        &schema.graph,
        model,
        ClusterConditions::paper_default(),
        PlannerKind::Selinger,
        ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor { threshold: 0.01 }),
    );
    opt.set_telemetry(tel.clone());
    opt
}

/// `--trace <file>`: optimize the TPC-H queries with span tracing enabled
/// (sequential planning, so each tree nests dispatch → planner → resource
/// planning → cache lookups), print `EXPLAIN ANALYZE` per query, and write
/// each query's full span tree as text to `file`, under a
/// `=== <query> ===` header.
fn run_trace(path: &str) {
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let mut out = String::new();
    for (name, query) in tpch_queries(&schema) {
        // A fresh handle per query keeps each span tree self-contained.
        let tel = Telemetry::enabled();
        let mut opt = traced_optimizer(&schema, &model, &tel);
        let plan = opt.optimize(&query).expect("plan");
        println!("=== {name} ===");
        println!("{}", explain_analyze(&plan, &schema.catalog, &tel));
        let spans = tel.spans();
        let tree = render_span_tree(&spans);
        if spans.len() <= 200 {
            println!("Span tree:\n{tree}");
        } else {
            println!("Span tree: {} spans (full tree in {path}); phase totals:", spans.len());
            for (phase, count, total_ns) in aggregate_spans(&spans).iter().take(12) {
                println!("  {phase}: {:.1} us across {count} span(s)", *total_ns as f64 / 1e3);
            }
            println!();
        }
        out.push_str(&format!("=== {name} ===\n{tree}\n"));
    }
    write_or_exit(path, out);
    println!("wrote span trees for 4 queries to {path}");
}

/// `--metrics <file>`: run the TPC-H sweep against one shared registry and
/// write it to `file` in Prometheus text exposition format.
fn run_metrics(path: &str) {
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let tel = Telemetry::enabled();
    for (name, query) in tpch_queries(&schema) {
        let mut opt = traced_optimizer(&schema, &model, &tel);
        let plan = opt.optimize(&query).expect("plan");
        println!(
            "  {name:>10}  cost {:>12.3}  {} getPlanCost calls, {} resource iterations",
            plan.query.cost, plan.stats.plan_cost_calls, plan.stats.resource_iterations
        );
    }
    write_or_exit(path, tel.snapshot().expect("enabled").to_prometheus());
    println!("wrote {path}");
}

/// `--serve <addr>`: put the planning service on the wire. Binds a
/// [`raqo_net::PlanServer`] at `addr` (e.g. `127.0.0.1:7432`), serves
/// RQNW v1 frames until stdin closes (Ctrl-D) or a `quit` line arrives,
/// then drains gracefully: stop accepting, finish in-flight tickets,
/// flush the cache-bank checkpoint, close every connection.
fn run_serve(addr: &str) {
    use raqo_core::{PlanningService, ServiceConfig};
    use raqo_net::{NetConfig, PlanServer};
    use raqo_resource::ShardedCacheBank;

    let schema = TpchSchema::new(1.0);
    let model: &'static JoinCostModel = Box::leak(Box::new(JoinCostModel::trained_hive()));
    let tel = Telemetry::enabled();
    let workers = 4;
    let service = std::sync::Arc::new(PlanningService::start(
        ServiceConfig { workers, ..Default::default() },
        ShardedCacheBank::with_shards(8),
        tel.clone(),
        |_| {
            RaqoOptimizer::new(
                std::sync::Arc::new(schema.catalog.clone()),
                std::sync::Arc::new(schema.graph.clone()),
                model,
                ClusterConditions::paper_default(),
                PlannerKind::Selinger,
                ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor {
                    threshold: 0.05,
                }),
            )
        },
    ));
    let server = PlanServer::bind(addr, NetConfig::default(), service.clone(), tel.clone())
        .unwrap_or_else(|e| panic!("binding {addr}: {e}"));
    println!("raqo-net serving RQNW v1 on {} ({workers} planning workers)", server.local_addr());
    println!("close stdin (Ctrl-D) or type `quit` to drain and stop");
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::stdin().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => {}
        }
    }
    server.shutdown();
    drop(service);
    let snap = tel.snapshot().expect("enabled");
    use raqo_telemetry::Counter as C;
    println!(
        "drained: {} connection(s) served, {} frames in / {} out, {} frame error(s), \
         {} reply(ies) deduped, shed {} overload / {} conn-cap / {} deadline",
        snap.get(C::NetConnectionsOpened),
        snap.get(C::NetFramesIn),
        snap.get(C::NetFramesOut),
        snap.get(C::NetFrameErrors),
        snap.get(C::NetRepliesDeduped),
        snap.get(C::NetShedOverloaded),
        snap.get(C::NetShedConnCap),
        snap.get(C::NetShedDeadline),
    );
}

/// `--client <addr>`: run the TPC-H sweep against a live `--serve`
/// process and print what came back over the wire, per query.
fn run_client(addr: &str) {
    use raqo_net::{ClientConfig, PlanClient};
    use std::time::Instant;

    let mut client = PlanClient::connect(addr, ClientConfig::default())
        .unwrap_or_else(|e| panic!("resolving {addr}: {e}"));
    let schema = TpchSchema::new(1.0);
    use raqo_core::Priority;
    let priorities =
        [Priority::Interactive, Priority::Standard, Priority::Standard, Priority::Batch];
    for (ns, ((name, query), priority)) in
        tpch_queries(&schema).iter().zip(priorities).enumerate()
    {
        let sent = Instant::now();
        match client.plan_with(query, priority, ns as u32, 0) {
            Ok(reply) => {
                let ms = sent.elapsed().as_secs_f64() * 1e3;
                let plan = reply.plan.unwrap_or_else(|| {
                    panic!("{name}: server reply carried no decodable plan")
                });
                let note = match plan.degradation {
                    Some(d) => format!("  (degraded: {} via {})", d.rung, d.trigger),
                    None if reply.shed => "  (shed)".to_string(),
                    None => String::new(),
                };
                println!(
                    "  {name:>10}  {:>11}  {ms:>7.1} ms  trace {:032x}  cost {:>12.3}{note}",
                    priority.name(),
                    reply.trace_id,
                    plan.cost,
                );
            }
            Err(e) => {
                eprintln!("  {name}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// `--smoke` net gate: the wire front end's three load-bearing promises.
/// (1) A server round trip returns plans bit-identical to an in-process
/// `PlanningService` twin fed the same requests. (2) One chaos schedule —
/// an injected `net.read` reset — is absorbed by the client's retry under
/// the same request id. (3) Graceful drain closes every connection it
/// opened.
fn net_smoke_gate() {
    use raqo_core::{PlanRequest, PlanningService, Priority, ServiceConfig};
    use raqo_faults::{Fault, FaultGuard, FaultKind};
    use raqo_net::{ClientConfig, NetConfig, PlanClient, PlanServer};
    use raqo_resource::ShardedCacheBank;

    let schema = TpchSchema::new(1.0);
    let model: &'static JoinCostModel = Box::leak(Box::new(JoinCostModel::trained_hive()));
    let (_, ms) = timed(|| {
        let tel = Telemetry::enabled();
        let mk_service = |tel: &Telemetry| {
            PlanningService::start(
                ServiceConfig { workers: 1, ..Default::default() },
                ShardedCacheBank::with_shards(8),
                tel.clone(),
                |_| {
                    RaqoOptimizer::new(
                        std::sync::Arc::new(schema.catalog.clone()),
                        std::sync::Arc::new(schema.graph.clone()),
                        model,
                        ClusterConditions::paper_default(),
                        PlannerKind::Selinger,
                        ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor {
                            threshold: 0.05,
                        }),
                    )
                },
            )
        };
        let service = std::sync::Arc::new(mk_service(&tel));
        let twin = mk_service(&Telemetry::disabled());
        let server =
            PlanServer::bind("127.0.0.1:0", NetConfig::default(), service.clone(), tel.clone())
                .expect("net smoke: bind");
        let mut client = PlanClient::connect(server.local_addr(), ClientConfig::default())
            .expect("net smoke: connect")
            .with_telemetry(tel.clone());

        // (1) Round-trip parity against the in-process twin, mixed classes.
        let sweep = [
            (QuerySpec::tpch_q3(), Priority::Interactive),
            (QuerySpec::tpch_q12(), Priority::Standard),
            (QuerySpec::tpch_q2(), Priority::Batch),
        ];
        for (ns, (query, priority)) in sweep.iter().enumerate() {
            let net = client
                .plan_with(query, *priority, ns as u32, 0)
                .expect("net smoke: wire reply");
            let local = twin
                .submit(PlanRequest::new(query.clone(), *priority).with_namespace(ns as u32))
                .wait();
            let local_json =
                serde_json::to_string(&local.plan).expect("net smoke: twin serializes");
            assert_eq!(
                net.plan_json, local_json,
                "net smoke: wire plan diverged from the in-process answer (ns {ns})"
            );
            assert!(net.plan.is_some(), "net smoke: reply summary did not decode");
        }

        // (2) One chaos schedule: a read-side reset kills the connection;
        // the retry (same request id, fresh connection) must recover.
        {
            let _guard = FaultGuard::new();
            raqo_faults::arm(Fault::once("net.read", FaultKind::Fail));
            let reply = client
                .plan_with(&QuerySpec::tpch_q3(), Priority::Interactive, 9, 0)
                .expect("net smoke: chaos retry must recover");
            assert!(reply.plan.is_some());
        }
        let snap = tel.snapshot().expect("enabled");
        assert!(
            snap.get(Counter::NetClientRetries) >= 1,
            "net smoke: the injected reset never forced a retry"
        );

        // (3) Graceful drain: shutdown while the client connection is
        // alive; every opened connection must be accounted closed.
        drop(client);
        server.shutdown();
        drop(service);
        drop(twin);
        let snap = tel.snapshot().expect("enabled");
        assert_eq!(
            snap.get(Counter::NetConnectionsOpened),
            snap.get(Counter::NetConnectionsClosed),
            "net smoke: drain leaked a connection"
        );
    });
    assert!(!raqo_faults::armed(), "net smoke: faults leaked");
    println!(
        "net       ok  {ms:>8.0} ms  wire replies bit-match in-process plans; injected reset \
         retried; drain closed every connection"
    );
}

/// `--smoke` observability gate: the trace pipeline's two load-bearing
/// promises, end to end. (1) Under 1% head sampling, tail retention still
/// keeps a fault-injected (NaN-sanitized) ticket and a budget-exhausted
/// ticket while sampling clean traffic out. (2) Disabled telemetry is
/// plan-bit-identical to enabled telemetry.
fn observability_smoke_gate() {
    use raqo_core::{PlanRequest, PlanningService, Priority, ServiceConfig};
    use raqo_faults::{Fault, FaultGuard, FaultKind};
    use raqo_resource::{PlanningBudget, ShardedCacheBank};
    use raqo_telemetry::{TraceConfig, TraceFlags};

    let schema = TpchSchema::new(1.0);
    let model: &'static JoinCostModel = Box::leak(Box::new(JoinCostModel::trained_hive()));
    let (_, ms) = timed(|| {
        let tel = Telemetry::with_trace_config(TraceConfig { head_rate: 0.01, seed: 7 });
        let mut config = ServiceConfig { workers: 1, ..Default::default() };
        config.budgets[Priority::Batch as usize] = PlanningBudget::with_max_evals(0);
        let service = PlanningService::start(
            config,
            ShardedCacheBank::with_shards(8),
            tel.clone(),
            |_| {
                RaqoOptimizer::new(
                    std::sync::Arc::new(schema.catalog.clone()),
                    std::sync::Arc::new(schema.graph.clone()),
                    model,
                    ClusterConditions::paper_default(),
                    PlannerKind::Selinger,
                    ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor {
                        threshold: 0.01,
                    }),
                )
            },
        );

        // One ticket plans under an injected NaN: sanitization fires on the
        // planning worker inside the ticket's trace, which must flag it
        // for tail retention.
        let sanitized_id = {
            let _guard = FaultGuard::new();
            raqo_faults::arm(Fault::at("cost.model.scalar", FaultKind::Nan, 5));
            raqo_faults::arm(Fault::at("cost.model.batch", FaultKind::Nan, 5));
            let reply = service
                .submit(PlanRequest::new(QuerySpec::tpch_q3(), Priority::Interactive))
                .wait();
            assert!(reply.plan.is_some(), "observability smoke: faulted ticket unplanned");
            reply.trace_id
        };
        // One ticket exhausts its (zero) budget: the ladder degrades and
        // the optimizer flags the trace.
        let exhausted_id = {
            let reply = service
                .submit(PlanRequest::new(QuerySpec::tpch_q12(), Priority::Batch))
                .wait();
            let plan = reply.plan.expect("observability smoke: batch ticket unplanned");
            assert!(plan.degradation.is_some(), "zero budget must degrade");
            reply.trace_id
        };
        // Clean traffic: at a 1% head rate nearly all of it samples out.
        for i in 0..20u32 {
            service
                .submit(
                    PlanRequest::new(QuerySpec::tpch_q3(), Priority::Standard)
                        .with_namespace(i),
                )
                .wait();
        }
        drop(service);

        let completed = tel.completed_traces();
        for (label, id, want) in [
            ("sanitized", sanitized_id, TraceFlags::COST_SANITIZED),
            ("budget-exhausted", exhausted_id, TraceFlags::BUDGET_EXHAUSTED),
        ] {
            let trace = completed.iter().find(|t| t.trace_id == id).unwrap_or_else(|| {
                panic!("observability smoke: {label} ticket not retained at 1% head rate")
            });
            assert!(
                trace.flags.contains(want),
                "observability smoke: {label} ticket retained but not flagged {want:?}"
            );
        }
        let snap = tel.snapshot().expect("enabled");
        assert_eq!(snap.get(Counter::TracesStarted), 22);
        assert!(
            snap.get(Counter::TracesSampledOut) >= 18,
            "observability smoke: head sampling kept too much clean traffic ({} sampled out)",
            snap.get(Counter::TracesSampledOut)
        );

        // Disabled telemetry changes nothing about the plan itself.
        let mut with_tel = traced_optimizer(&schema, model, &Telemetry::enabled());
        let mut without = traced_optimizer(&schema, model, &Telemetry::disabled());
        let a = with_tel.optimize(&QuerySpec::tpch_q3()).expect("plan");
        let b = without.optimize(&QuerySpec::tpch_q3()).expect("plan");
        assert_eq!(a.query.tree, b.query.tree, "observability smoke: tracing changed the tree");
        assert_eq!(
            a.query.cost.to_bits(),
            b.query.cost.to_bits(),
            "observability smoke: tracing changed the cost"
        );
    });
    assert!(!raqo_faults::armed(), "observability smoke: faults leaked");
    println!(
        "observab. ok  {ms:>8.0} ms  flagged tickets retained at 1% head rate; disabled == \
         enabled plans"
    );
}

/// `--smoke` telemetry gate: one traced query must produce a span tree
/// covering every pipeline phase, registry totals that agree exactly with
/// the run's [`RaqoStats`], and a well-formed Prometheus export.
fn telemetry_smoke_gate() {
    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let tel = Telemetry::enabled();
    let mut opt = traced_optimizer(&schema, &model, &tel);
    let before = tel.snapshot().expect("enabled");
    let (plan, ms) = timed(|| opt.optimize(&QuerySpec::tpch_q3()).expect("plan"));
    let after = tel.snapshot().expect("enabled");
    // The §V rule-based path dispatches through the same sink.
    let tree = raqo_core::train_raqo_tree(
        &raqo_sim::engine::Engine::hive(),
        &raqo_sim::profile::ProfileGrid::paper_default(),
    );
    let mut rule_coster =
        raqo_core::RuleBasedCoster::new(&tree, &model, 10.0, 4.0).with_telemetry(tel.clone());
    raqo_planner::SelingerPlanner::plan(
        &schema.catalog,
        &schema.graph,
        &QuerySpec::tpch_q3(),
        &mut rule_coster,
    )
    .expect("rule-based plan");
    let span_tree = tel.span_tree_text();
    for phase in [
        "optimize",
        "planner.selinger",
        "selinger.dp",
        "selinger.final_cost",
        "plan_cost",
        "resource_planning.cached",
        "cache.lookup.nearest",
        "rule.dispatch",
    ] {
        assert!(
            span_tree.contains(phase),
            "telemetry smoke: span tree missing phase {phase}:\n{span_tree}"
        );
    }
    assert_eq!(
        plan.stats,
        RaqoStats::from_registry_delta(&before, &after),
        "telemetry smoke: registry totals diverge from RaqoStats"
    );
    let final_snap = tel.snapshot().expect("enabled");
    assert!(final_snap.get(Counter::RuleDispatches) > 0, "rule dispatches not counted");
    let prom = final_snap.to_prometheus();
    for series in ["raqo_plan_cost_calls_total", "raqo_plan_cost_latency_us_bucket"] {
        assert!(prom.contains(series), "telemetry smoke: Prometheus export missing {series}");
    }
    println!(
        "telemetry ok  {ms:>8.0} ms  span tree covers dispatch/planner/resource-planning/cache; \
         registry matches stats"
    );
}

/// `--smoke` IDP parity gate: at the exhaustive-DP threshold (n = 20) a
/// covering-block IDP run must be bit-identical to Selinger DP, and past
/// it (24-relation chain and star) the optimizer must bridge with IDP —
/// reporting `relation_bound_bridged`, never the randomized rung — and
/// produce an executable joint plan that beats the randomized planner on
/// the same seed.
fn idp_smoke_gate() {
    use raqo_core::{DegradationRung, DegradationTrigger};
    use raqo_planner::coster::FixedResourceCoster;
    use raqo_planner::{IdpConfig, IdpPlanner, RandomizedConfig, SelingerPlanner};

    let model = JoinCostModel::trained_hive();
    let (_, ms) = timed(|| {
        // n = 20: IDP with a covering block *is* the DP — trees, costs, and
        // join decisions bit-for-bit.
        let schema = raqo_catalog::RandomSchemaConfig::with_tables(20, 20).generate();
        let query = QuerySpec::new("n20", schema.catalog.table_ids().collect::<Vec<_>>());
        let mut dp_coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let dp = SelingerPlanner::plan(&schema.catalog, &schema.graph, &query, &mut dp_coster)
            .expect("idp smoke: n=20 DP plan");
        let mut idp_coster = FixedResourceCoster::new(&model, 10.0, 4.0);
        let idp = IdpPlanner::plan(
            &schema.catalog,
            &schema.graph,
            &query,
            &mut idp_coster,
            IdpConfig { block_size: 20 },
        )
        .expect("idp smoke: n=20 IDP plan");
        assert_eq!(dp.tree, idp.tree, "idp smoke: n=20 trees diverge");
        assert_eq!(
            dp.cost.to_bits(),
            idp.cost.to_bits(),
            "idp smoke: n=20 costs diverge: {} vs {}",
            dp.cost,
            idp.cost
        );
        assert_eq!(dp.joins, idp.joins, "idp smoke: n=20 join decisions diverge");

        // n = 24 chain and star: bridged, executable, and better than the
        // randomized planner on the same smoke seed.
        for (shape, schema) in [
            ("chain", raqo_catalog::RandomSchema::chain(24, 24)),
            ("star", raqo_catalog::RandomSchema::star(24, 24)),
        ] {
            let query = QuerySpec::new(
                format!("{shape}_24"),
                schema.catalog.table_ids().collect::<Vec<_>>(),
            );
            let mk_opt = |planner| {
                RaqoOptimizer::new(
                    &schema.catalog,
                    &schema.graph,
                    &model,
                    ClusterConditions::paper_default(),
                    planner,
                    ResourceStrategy::HillClimb,
                )
            };
            let plan = mk_opt(PlannerKind::Selinger)
                .optimize(&query)
                .unwrap_or_else(|| panic!("idp smoke: {shape} plan not found"));
            let d = plan.degradation.expect("idp smoke: bridge must be reported");
            assert_eq!(d.rung, DegradationRung::IdpBridge, "idp smoke: {shape} wrong rung");
            assert_eq!(
                d.trigger,
                DegradationTrigger::RelationBoundBridged,
                "idp smoke: {shape} wrong trigger"
            );
            // Executable: covers the query, one decision per join, every
            // join carries a concrete resource assignment and finite cost.
            assert!(
                raqo_planner::plan::covers_exactly(&plan.query.tree, &query.relations),
                "idp smoke: {shape} plan does not cover the query"
            );
            assert_eq!(plan.query.joins.len(), 23, "idp smoke: {shape} join count");
            assert!(plan.query.cost.is_finite() && plan.query.cost > 0.0);
            for join in &plan.query.joins {
                assert!(
                    join.decision.resources.is_some(),
                    "idp smoke: {shape} join without resources"
                );
            }
            let randomized = mk_opt(PlannerKind::FastRandomized(RandomizedConfig {
                restarts: 2,
                rounds_per_join: 5,
                epsilon: 0.05,
                seed: 24,
            }))
            .optimize(&query)
            .unwrap_or_else(|| panic!("idp smoke: {shape} randomized plan not found"));
            assert!(
                plan.query.cost <= randomized.query.cost * (1.0 + 1e-9),
                "idp smoke: {shape} IDP cost {} worse than randomized {}",
                plan.query.cost,
                randomized.query.cost
            );
        }
    });
    println!(
        "idp       ok  {ms:>8.0} ms  n=20 DP parity bit-exact; 24-relation chain+star bridged \
         and beat the randomized planner"
    );
}

/// `--smoke` Cascades gate: on the crafted fact/dim star the bushy
/// planner's winner must be *bushy* and strictly cheaper than the best
/// left-deep Selinger plan; on a fully cyclic clique it must be no worse;
/// and whenever its winner happens to be left-deep (chains at small n)
/// its cost must agree with Selinger exactly — the subset DP covers
/// every left-deep order Selinger enumerates, plus the bushy shapes.
fn cascades_smoke_gate() {
    let (series, ms) = timed(|| bushy::measure_cascades(true));
    let star = series
        .points
        .iter()
        .find(|p| p.shape == "star")
        .expect("cascades smoke: star point");
    assert!(
        star.bushy,
        "cascades smoke: star winner must be bushy: {series:?}"
    );
    assert!(
        star.cascades_cost < star.selinger_cost,
        "cascades smoke: bushy star plan {} must strictly beat left-deep {}",
        star.cascades_cost,
        star.selinger_cost
    );
    assert!(
        series.clique_bushy_and_cheaper,
        "cascades smoke: crafted-clique winner must be bushy and strictly \
         cheaper than left-deep: {series:?}"
    );
    for p in &series.points {
        assert!(
            p.no_worse,
            "cascades smoke: {} plan {} worse than selinger {}",
            p.shape, p.cascades_cost, p.selinger_cost
        );
        if !p.bushy {
            assert!(
                (p.cascades_cost - p.selinger_cost).abs() <= 1e-9 * p.selinger_cost.abs(),
                "cascades smoke: left-deep {} winner must match selinger exactly \
                 ({} vs {})",
                p.shape,
                p.cascades_cost,
                p.selinger_cost
            );
        }
    }
    let gain = (1.0 - star.cascades_cost / star.selinger_cost) * 100.0;
    println!(
        "cascades  ok  {ms:>8.0} ms  bushy star beats best left-deep by {gain:.1}%; \
         bushy clique win; chain no worse than Selinger"
    );
}

/// `--smoke` SIMD/batched-kernel gate. Whichever cost kernel this binary
/// compiled in (the explicit AVX2 kernel under `--features simd`, the
/// scalar fold otherwise), the dispatching batch entry point must be
/// bit-identical to the scalar fold — across both feature maps, both join
/// implementations, BHJ-infeasible points, and slice lengths sweeping the
/// 4-lane remainder.
fn simd_parity_smoke_gate() {
    use raqo_resource::ResourceConfig;
    use raqo_sim::engine::JoinImpl;

    let (_, ms) = timed(|| {
        let cluster = ClusterConditions::two_dim(1.0..=40.0, 1.0..=6.0, 1.0, 1.0);
        let configs: Vec<ResourceConfig> = cluster.grid().collect();
        let lens = [0, 1, 3, configs.len() - 1, configs.len()];
        for model in [JoinCostModel::trained_hive(), JoinCostModel::trained_hive_extended()] {
            for join in [JoinImpl::SortMerge, JoinImpl::BroadcastHash] {
                // 10 GB builds are BHJ-infeasible at small container sizes,
                // so the feasibility select is exercised in both states.
                for build_gb in [0.5, 10.0] {
                    for len in lens {
                        let mut fast = vec![0.0; len];
                        let mut scalar = vec![0.0; len];
                        model.join_cost_batch(join, build_gb, &configs[..len], &mut fast);
                        model.join_cost_batch_scalar(
                            join,
                            build_gb,
                            &configs[..len],
                            &mut scalar,
                        );
                        for (i, (f, s)) in fast.iter().zip(&scalar).enumerate() {
                            assert_eq!(
                                f.to_bits(),
                                s.to_bits(),
                                "simd smoke: {join:?} build {build_gb} config {i}: {f} vs {s}"
                            );
                        }
                    }
                }
            }
        }
    });
    let kernel = if raqo_cost::simd_active() { "avx2" } else { "scalar" };
    println!("simd      ok  {ms:>8.0} ms  {kernel} kernel; batch==scalar bitwise");
}

/// `--smoke` concurrency gate: the threaded cache-bank stress harness (8
/// threads of mixed insert/lookup/clear/save traffic on one sharded bank)
/// must finish with no panics, no lost entries, and per-shard statistics
/// that sum to the merged bank's; then a tiny overloaded
/// [`raqo_core::PlanningService`] must answer every request — shed ones
/// included — with a plan.
fn concurrency_smoke_gate() {
    use raqo_core::{PlanRequest, PlanningService, Priority, ServiceConfig};
    use raqo_resource::ShardedCacheBank;

    let (report, ms) = timed(|| {
        let report = stress::concurrency_stress(8, 200)
            .unwrap_or_else(|e| panic!("concurrency smoke: stress harness failed: {e}"));
        assert!(
            report.clears > 0 && report.checkpoints > 0,
            "stress never exercised clear/checkpoint"
        );

        // Overload a 1-worker, 2-slot service with a burst: every ticket
        // must still resolve to a plan.
        let schema = TpchSchema::new(1.0);
        let model: &'static JoinCostModel =
            Box::leak(Box::new(JoinCostModel::trained_hive()));
        let service = PlanningService::start(
            ServiceConfig { workers: 1, queue_capacity: 2, ..Default::default() },
            ShardedCacheBank::with_shards(8),
            Telemetry::disabled(),
            |_| {
                RaqoOptimizer::new(
                    std::sync::Arc::new(schema.catalog.clone()),
                    std::sync::Arc::new(schema.graph.clone()),
                    model,
                    ClusterConditions::paper_default(),
                    PlannerKind::Selinger,
                    ResourceStrategy::HillClimbCached(CacheLookup::NearestNeighbor {
                        threshold: 0.05,
                    }),
                )
            },
        );
        let tickets: Vec<_> = (0..12)
            .map(|i| {
                service.submit(
                    PlanRequest::new(QuerySpec::tpch_q3(), Priority::Standard)
                        .with_namespace(i % 4),
                )
            })
            .collect();
        let mut shed = 0;
        for ticket in tickets {
            let reply = ticket.wait();
            assert!(reply.plan.is_some(), "concurrency smoke: request went unplanned");
            if reply.shed {
                shed += 1;
                assert!(
                    reply.plan.as_ref().is_some_and(|p| p.degradation.is_some()),
                    "concurrency smoke: shed plan lacks a degradation report"
                );
            }
        }
        assert!(shed > 0, "concurrency smoke: a 2-slot queue under a 12-burst must shed");
        report
    });
    println!(
        "concurr.  ok  {ms:>8.0} ms  {} threads x {} ops over {} shards, {} entries settled; \
         overloaded service answered every ticket",
        report.threads,
        report.ops,
        report.shards,
        report.entries
    );
}

/// `--chaos` gate: deterministic fault injection plus planning budgets must
/// never leave the optimizer without a plan. Exercises every rung of the
/// graceful-degradation ladder (undegraded, randomized, rule-based), cost
/// sanitization under injected NaNs, worker-panic recovery bit-identity,
/// and cache-file corruption quarantine.
fn chaos_smoke_gate() {
    use raqo_core::DegradationRung;
    use raqo_faults::{Fault, FaultGuard, FaultKind};
    use raqo_resource::PlanningBudget;
    use std::time::Duration;

    let schema = TpchSchema::new(1.0);
    let model = JoinCostModel::trained_hive();
    let queries = tpch_queries(&schema);
    let mk_opt = |strategy: ResourceStrategy| {
        RaqoOptimizer::new(
            &schema.catalog,
            &schema.graph,
            &model,
            ClusterConditions::paper_default(),
            PlannerKind::Selinger,
            strategy,
        )
    };

    let (_, ms) = timed(|| {
        // Rung 1: no budget, no faults — every sweep query plans undegraded.
        for (name, query) in &queries {
            let plan = mk_opt(ResourceStrategy::HillClimb)
                .optimize(query)
                .expect("chaos: clean plan");
            assert!(plan.degradation.is_none(), "chaos: {name} degraded without a budget");
        }

        // Rung 3: with faults armed and a 1 ms deadline, a valid plan must
        // still come back for every sweep query, and the report names the
        // rung. The injected NaN makes rung 1 hostile even if the clock
        // somehow holds.
        {
            let _guard = FaultGuard::new();
            raqo_faults::arm(Fault::repeating("cost.model.scalar", FaultKind::Nan));
            raqo_faults::arm(Fault::repeating("cost.model.batch", FaultKind::Nan));
            for (name, query) in &queries {
                let mut opt = mk_opt(ResourceStrategy::HillClimb);
                opt.set_budget(PlanningBudget::with_deadline(Duration::from_millis(1)));
                let plan = opt.optimize(query).expect("chaos: plan under faults + deadline");
                let rung = plan
                    .degradation
                    .map(|d| format!("rung {} (trigger {})", d.rung, d.trigger))
                    .unwrap_or_else(|| "undegraded".to_string());
                assert!(
                    raqo_planner::plan::covers_exactly(&plan.query.tree, &query.relations),
                    "chaos: {name} plan does not cover the query"
                );
                assert!(plan.query.cost.is_finite(), "chaos: {name} cost not finite");
                println!("  {name:>10}  faults + 1 ms deadline -> {rung}");
            }
        }

        // A zero deadline deterministically lands on the rule-based floor.
        {
            let mut opt = mk_opt(ResourceStrategy::BruteForce);
            opt.set_budget(PlanningBudget::with_deadline(Duration::ZERO));
            let plan = opt.optimize(&queries[1].1).expect("chaos: rung-3 plan");
            let d = plan.degradation.expect("chaos: zero deadline must degrade");
            assert_eq!(d.rung, DegradationRung::RuleBased, "chaos: rung 3 not reached");
        }

        // Rung 2: a tiny eval budget exhausts inside the first join; the
        // grace allowance lets the reduced randomized planner finish.
        {
            let mut opt = mk_opt(ResourceStrategy::BruteForce);
            opt.set_budget(PlanningBudget::with_max_evals(100));
            let plan = opt.optimize(&queries[1].1).expect("chaos: rung-2 plan");
            let d = plan.degradation.expect("chaos: eval exhaustion must degrade");
            assert_eq!(d.rung, DegradationRung::Randomized, "chaos: rung 2 not reached");
        }

        // Cost sanitization: a one-shot NaN mid-search is absorbed (the
        // poisoned point becomes infeasible), counted, and still planned
        // through.
        {
            let _guard = FaultGuard::new();
            raqo_faults::arm(Fault::at("cost.model.scalar", FaultKind::Nan, 5));
            raqo_faults::arm(Fault::at("cost.model.batch", FaultKind::Nan, 5));
            let tel = Telemetry::enabled();
            let mut opt = mk_opt(ResourceStrategy::HillClimb);
            opt.set_telemetry(tel.clone());
            let plan = opt.optimize(&queries[3].1).expect("chaos: plan with NaN injection");
            assert!(plan.query.cost.is_finite());
            let snap = tel.snapshot().expect("enabled");
            let sanitized = snap.get(Counter::CostSanitizationsScalar)
                + snap.get(Counter::CostSanitizationsBatch);
            assert!(sanitized >= 1, "chaos: injected NaN was not counted");
        }

        // Cache-file corruption: the loader quarantines the bad file and
        // reports a typed error instead of crashing or replaying garbage.
        {
            let dir = std::env::temp_dir().join(format!("raqo-chaos-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("chaos: temp dir");
            let path = dir.join("bank.json");
            let bank = ShardedCacheBank::with_shards(1);
            bank.checkpoint(&path).expect("chaos: checkpoint bank");
            raqo_faults::corrupt_file(&path, 42).expect("chaos: corrupt file");
            let err =
                ShardedCacheBank::load(&path, 1, None).expect_err("chaos: corrupt load must fail");
            assert!(err.is_corrupt(), "chaos: expected a corruption error, got {err}");
            let quarantined = dir.join("bank.json.corrupt");
            assert!(quarantined.exists(), "chaos: corrupt file was not quarantined");
            let _ = std::fs::remove_dir_all(&dir);
        }
    });
    assert!(!raqo_faults::armed(), "chaos: faults leaked past their guard");
    println!("chaos     ok  {ms:>8.0} ms  ladder rungs reachable; NaN/corruption contained");
}

/// The one-line synopsis printed with every command-line error.
const USAGE: &str = "usage: repro --list | --all | --fig <id> [--quick] [--json <path>] | \
    --smoke | --chaos | --service-demo | \
    --cache-file <path> | --trace <file> | --metrics <file> | --serve <addr> | --client <addr>";

/// Flags that stand alone.
const SWITCHES: [&str; 6] = ["--quick", "--list", "--all", "--smoke", "--chaos", "--service-demo"];

/// Flags that take a value, and what the value is.
const VALUED: [(&str, &str); 7] = [
    ("--fig", "an experiment id (see --list)"),
    ("--json", "an output path"),
    ("--cache-file", "a path"),
    ("--trace", "an output file"),
    ("--metrics", "an output file"),
    ("--serve", "a bind address (e.g. 127.0.0.1:7432)"),
    ("--client", "a server address (e.g. 127.0.0.1:7432)"),
];

/// The command line, checked: every argument is a known flag, and every
/// flag that takes a value has one that is not itself a flag.
#[derive(Default)]
struct Args {
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut args = args.iter().peekable();
        let is_value = |v: &&String| !v.starts_with("--");
        while let Some(arg) = args.next() {
            if let Some(&switch) = SWITCHES.iter().find(|&&f| f == arg) {
                out.switches.push(switch);
            } else if let Some(&(flag, what)) = VALUED.iter().find(|(f, _)| f == arg) {
                let value = args.next_if(is_value).ok_or(format!("{flag} needs {what}"))?;
                out.values.push((flag, value.clone()));
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(out)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }
}

/// Write `contents` to `path`; on failure print the path and the OS error
/// and exit 1.
fn write_or_exit(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("repro: writing {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw).unwrap_or_else(|e| {
        eprintln!("repro: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let quick = args.has("--quick");
    let list = args.has("--list");
    let all = args.has("--all");
    let smoke = args.has("--smoke");
    let chaos = args.has("--chaos");
    let service_demo = args.has("--service-demo");
    let fig = args.value("--fig");

    let experiments = registry();

    if let Some(addr) = args.value("--serve") {
        run_serve(addr);
        return;
    }

    if let Some(addr) = args.value("--client") {
        run_client(addr);
        return;
    }

    if let Some(path) = args.value("--cache-file") {
        run_cache_file(path);
        return;
    }

    if let Some(path) = args.value("--trace") {
        run_trace(path);
        return;
    }

    if let Some(path) = args.value("--metrics") {
        run_metrics(path);
        return;
    }

    // CI fast path: every figure module at its tiny sweep sizes, with a
    // per-figure pass/timing line instead of the full tables.
    if smoke {
        let mut total_ms = 0.0;
        for e in &experiments {
            let (tables, ms) = timed(|| (e.run)(true));
            total_ms += ms;
            println!("fig {:>2}  ok  {:>8.0} ms  {} table(s)  {}", e.id, ms, tables.len(), e.title);
        }
        idp_smoke_gate();
        cascades_smoke_gate();
        simd_parity_smoke_gate();
        telemetry_smoke_gate();
        observability_smoke_gate();
        concurrency_smoke_gate();
        net_smoke_gate();
        chaos_smoke_gate();
        println!("smoke: {} experiments in {:.1} s", experiments.len(), total_ms / 1000.0);
        return;
    }

    if chaos {
        chaos_smoke_gate();
        return;
    }

    // Walkthrough of the planning service: priority classes, admission
    // control, and degradation under overload.
    if service_demo {
        let (admitted, shed) = throughput::service_demo();
        assert!(admitted > 0, "service demo admitted nothing");
        assert!(shed > 0, "an 8-slot queue under a 32-burst must shed");
        return;
    }

    if list || (!all && fig.is_none()) {
        println!("Available experiments (run with --fig <id> or --all):");
        for e in &experiments {
            println!("  --fig {:>2}  {}", e.id, e.title);
        }
        println!("  --smoke      every figure at tiny sizes (CI fast path)");
        println!("  --chaos      fault-injection gate: degradation ladder + recovery paths");
        println!("  --service-demo  planning service under overload: priorities + degradation");
        println!("  --cache-file <path>  TPC-H sweep warm-started from a persisted cache");
        println!("  --trace <file>       traced TPC-H sweep: EXPLAIN ANALYZE + span trees -> file");
        println!("  --metrics <file>     TPC-H sweep metrics -> Prometheus text file");
        println!("  --serve <addr>       raqo-net planning server (Ctrl-D or `quit` drains)");
        println!("  --client <addr>      TPC-H sweep against a running --serve process");
        if !list {
            std::process::exit(2);
        }
        return;
    }

    let selected: Vec<_> = experiments.iter().filter(|e| all || fig == Some(e.id)).collect();
    if selected.is_empty() {
        eprintln!("no experiment with id {fig:?}; try --list");
        std::process::exit(2);
    }

    let mut all_tables: Vec<(String, Vec<Table>)> = Vec::new();
    for e in selected {
        println!("=== Figure {} — {} ===\n", e.id, e.title);
        let tables = (e.run)(quick);
        for table in &tables {
            table.print();
        }
        all_tables.push((e.id.to_string(), tables));
    }

    if let Some(path) = args.value("--json") {
        let json = serde_json::to_string_pretty(&all_tables).expect("tables serialize");
        write_or_exit(path, json);
        eprintln!("wrote JSON tables to {path}");
    }
}
