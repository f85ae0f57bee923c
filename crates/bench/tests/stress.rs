//! Threaded stress harness for the sharded cache bank, and the tests that
//! run it. The harness runs two phases on one [`ShardedCacheBank`] shared
//! by `threads` workers:
//!
//! 1. **Chaos phase** — every worker mixes inserts, lookups in all three
//!    modes, whole-bank clears, and checkpoints to a scratch file.
//!    Lookups may legitimately miss (another worker may have cleared), but
//!    a hit must return exactly the configuration some worker inserted for
//!    that key — a torn or mixed value is a failure, as is any panic.
//! 2. **Settle phase** — clears stop; every worker inserts a disjoint key
//!    set and then verifies every one of its own inserts. Lost entries or
//!    totals below the settle-phase floor fail the run.

use raqo_resource::{CacheLookup, ResourceConfig, ShardedCacheBank};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// What the stress run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StressReport {
    threads: usize,
    shards: usize,
    /// Total operations across both phases (inserts + lookups + clears +
    /// checkpoints).
    ops: u64,
    /// Whole-bank clears observed during the chaos phase.
    clears: u64,
    /// Checkpoints written during the chaos phase.
    checkpoints: u64,
    /// Entries present after the settle phase.
    entries: usize,
}

/// The configuration every worker inserts for `(model, key)`: derived from
/// the key alone, so a concurrent overwrite by another worker still stores
/// the same value and any hit can be checked exactly.
fn expected_cfg(model: u32, key: f64) -> ResourceConfig {
    ResourceConfig::containers_and_size(key + 1.0, model as f64 + 1.0)
}

/// Run the two-phase stress harness. Returns `Err` with a description on
/// the first detected violation (panics inside workers also surface as
/// errors, not aborts).
fn concurrency_stress(threads: usize, ops_per_thread: usize) -> Result<StressReport, String> {
    let threads = threads.max(2);
    let ops_per_thread = ops_per_thread.max(8);
    let bank = ShardedCacheBank::with_shards_and_salt(threads * 2, 0x57e5_5000);
    let shards = bank.shard_count();
    let ops = AtomicU64::new(0);
    let clears = AtomicU64::new(0);
    let checkpoints = AtomicU64::new(0);
    let start = Barrier::new(threads);
    let settle = Barrier::new(threads);
    let scratch = std::env::temp_dir().join(format!(
        "raqo_stress_bank_{}_{threads}.json",
        std::process::id()
    ));

    let result: Result<(), String> = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..threads {
            let bank = bank.clone();
            let ops = &ops;
            let clears = &clears;
            let checkpoints = &checkpoints;
            let start = &start;
            let settle = &settle;
            let scratch = &scratch;
            workers.push(scope.spawn(move || -> Result<(), String> {
                start.wait();
                // Phase 1: chaos. A worker that fails here still meets the
                // others at the settle barrier, so its failure is reported
                // instead of leaving them waiting there for ever.
                let chaos = std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
                    // Models overlap across workers on purpose.
                    for i in 0..ops_per_thread {
                        let model = ((t + i) % threads) as u32;
                        let key = ((i * 7) % 23) as f64 / 2.0;
                        match i % 8 {
                            6 if t == 0 => {
                                bank.clear();
                                clears.fetch_add(1, Ordering::Relaxed);
                            }
                            7 if t == 1 => {
                                bank.checkpoint(scratch)
                                    .map_err(|e| format!("chaos checkpoint failed: {e}"))?;
                                checkpoints.fetch_add(1, Ordering::Relaxed);
                            }
                            0..=2 => bank.insert(model, 0, key, expected_cfg(model, key)),
                            _ => {
                                let mode = match i % 3 {
                                    0 => CacheLookup::Exact,
                                    1 => CacheLookup::NearestNeighbor { threshold: 0.0 },
                                    _ => CacheLookup::WeightedAverage { threshold: 0.0 },
                                };
                                // Zero-threshold approximate modes only ever
                                // return exact matches, so every hit is
                                // checkable bit-for-bit.
                                if let Some(got) = bank.lookup(model, 0, key, mode) {
                                    let want = expected_cfg(model, key);
                                    if got != want {
                                        return Err(format!(
                                            "torn read: ({model}, {key}) returned {got:?}, \
                                             inserted values are always {want:?}"
                                        ));
                                    }
                                }
                            }
                        }
                        ops.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(())
                }));
                settle.wait();
                chaos.map_err(|_| format!("worker {t} panicked in the chaos phase"))??;
                // Phase 2: settle. Disjoint keys per worker, no clears.
                let model = t as u32;
                for i in 0..ops_per_thread {
                    let key = (t * ops_per_thread + i) as f64;
                    bank.insert(model, 1, key, expected_cfg(model, key));
                    ops.fetch_add(1, Ordering::Relaxed);
                }
                for i in 0..ops_per_thread {
                    let key = (t * ops_per_thread + i) as f64;
                    let got = bank.lookup(model, 1, key, CacheLookup::Exact);
                    ops.fetch_add(1, Ordering::Relaxed);
                    if got != Some(expected_cfg(model, key)) {
                        return Err(format!(
                            "lost entry: worker {t} inserted ({model}, {key}) but read {got:?}"
                        ));
                    }
                }
                Ok(())
            }));
        }
        for worker in workers {
            match worker.join() {
                Ok(outcome) => outcome?,
                Err(_) => return Err("a stress worker panicked".to_string()),
            }
        }
        Ok(())
    });
    std::fs::remove_file(&scratch).ok();
    result?;

    // Settle-phase inserts are disjoint and un-cleared: all present.
    let settled = threads * ops_per_thread;
    let entries = bank.total_entries();
    if entries < settled {
        return Err(format!(
            "expected at least {settled} settle-phase entries, bank holds {entries}"
        ));
    }
    let aggregate = bank.aggregate_stats();
    if aggregate.insertions < settled as u64 {
        return Err(format!(
            "aggregate insertions {} below settle-phase floor {settled}",
            aggregate.insertions
        ));
    }
    Ok(StressReport {
        threads,
        shards,
        ops: ops.into_inner(),
        clears: clears.into_inner(),
        checkpoints: checkpoints.into_inner(),
        entries,
    })
}

#[test]
fn eight_thread_stress_passes() {
    let report = concurrency_stress(8, 200).expect("stress run must pass");
    assert_eq!(report.threads, 8);
    assert_eq!(report.shards, 16);
    assert!(report.clears > 0, "chaos phase must exercise clears");
    assert!(report.checkpoints > 0, "chaos phase must exercise checkpoints");
    assert!(report.entries >= 8 * 200);
}

#[test]
fn floors_are_applied() {
    let report = concurrency_stress(0, 0).expect("tiny parameters are floored, not rejected");
    assert_eq!(report.threads, 2);
    assert!(report.ops >= 2 * 8);
}

/// A violation in the chaos phase comes back as an `Err` while the
/// other workers finish; it must not leave them waiting at the settle
/// barrier. The checkpoint is made to fail by a directory where its
/// temporary file goes; the harness runs on its own thread so that a
/// hang fails this test instead of stalling the suite.
#[test]
fn a_failed_chaos_checkpoint_is_reported_not_waited_on() {
    let threads = 3;
    let scratch = std::env::temp_dir().join(format!(
        "raqo_stress_bank_{}_{threads}.json.tmp",
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(concurrency_stress(threads, 16)));
    let outcome = rx.recv_timeout(std::time::Duration::from_secs(60));
    std::fs::remove_dir(&scratch).ok();
    let err = outcome.expect("the harness must return").expect_err("the checkpoint fails");
    assert!(err.contains("chaos checkpoint failed"), "{err}");
}
