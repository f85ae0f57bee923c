//! `repro` — regenerate the paper's figures from the command line.
//!
//! ```text
//! repro --all                  # every figure, full-size sweeps
//! repro --fig 13               # one figure
//! repro --fig 15 --quick       # reduced sweep sizes
//! repro --all --json out.json  # machine-readable tables as well
//! repro --smoke                # fast path: every figure at tiny sizes
//! repro --cache-file <path>    # TPC-H sweep warm-started from a persisted cache
//! repro --trace <file>         # traced TPC-H sweep: EXPLAIN ANALYZE + span trees
//! repro --metrics <file>       # TPC-H sweep -> Prometheus text metrics
//! repro --serve <addr>         # raqo-net planning server (drain on Ctrl-D)
//! repro --client <addr>        # TPC-H sweep against a running server
//! repro --list                 # what exists
//! ```

use raqo_bench::experiments::{registry, timed};
use raqo_bench::{throughput, Table};
use raqo_catalog::{tpch::TpchSchema, QuerySpec};
use raqo_core::{explain_analyze, PlannerKind, RaqoOptimizer, ResourceStrategy, Telemetry};
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
            Err(e) => fail(format!("loading cache bank from {path}: {e}")),
        }
    } else {
        println!("no cache file at {path}; starting cold");
        ShardedCacheBank::with_shards(1)
    };

    let mut total_ms = 0.0;
    let mut hits = 0;
    for (name, query) in &tpch_queries(&schema) {
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
        fail(format!("saving cache bank to {path}: {e}"));
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

/// The TPC-H sweep shared by `--cache-file`, `--trace`, `--metrics` and
/// `--client`.
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
        .unwrap_or_else(|e| fail(format!("binding {addr}: {e}")));
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
        .unwrap_or_else(|e| fail(format!("resolving {addr}: {e}")));
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
                    fail(format!("{name}: the reply from {addr} carried no decodable plan"))
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
            Err(e) => fail(format!("{name} via {addr}: {e}")),
        }
    }
}

/// The one-line synopsis printed with every command-line error.
const USAGE: &str = "usage: repro --list | --all | --fig <id> [--quick] [--json <path>] | \
    --smoke | --service-demo | \
    --cache-file <path> | --trace <file> | --metrics <file> | --serve <addr> | --client <addr>";

/// Flags that stand alone.
const SWITCHES: [&str; 5] = ["--quick", "--list", "--all", "--smoke", "--service-demo"];

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

/// Print `message` (which names the path or address that failed, and the
/// OS error) and exit 1.
fn fail(message: String) -> ! {
    eprintln!("repro: {message}");
    std::process::exit(1);
}

/// Write `contents` to `path`; on failure print the path and the OS error
/// and exit 1.
fn write_or_exit(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(format!("writing {path}: {e}"));
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
        println!("smoke: {} experiments in {:.1} s", experiments.len(), total_ms / 1000.0);
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
