//! # raqo-bench
//!
//! The benchmark harness that regenerates **every figure** of the paper's
//! evaluation. Each `experiments::figNN` module computes the figure's data
//! series and prints them in the paper's terms; the `repro` binary drives
//! them from the command line, and the Criterion benches under `benches/`
//! time the planner-facing ones.
//!
//! Absolute numbers come from the simulator substrate and this machine —
//! the *shapes* (who wins, where crossovers fall, relative overheads) are
//! the reproduction targets. See `EXPERIMENTS.md` for paper-vs-measured.

pub mod bushy;
pub mod experiments;
pub mod report;
pub mod stress;
pub mod throughput;

pub use report::{Cell, Table};

/// Serializes wall-clock-ratio tests: `cargo test` runs tests on parallel
/// threads, and one timing loop running beside another can starve it
/// enough to flip its ratio assertion.
/// Tests that assert relative timings grab this lock first.
#[cfg(test)]
pub(crate) fn timing_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
