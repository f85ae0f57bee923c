//! # raqo-faults — deterministic fault injection
//!
//! A zero-dependency injector for chaos-testing the planning stack. Library
//! crates expose named *probe sites* (e.g. `cost.model.scalar`,
//! `core.plan_cost`); tests arm faults against a substring pattern and
//! the Nth matching probe fires the fault. Everything is deterministic: no
//! clocks, no RNG — the only "randomness" is a caller-supplied seed fed to a
//! fixed LCG, so a failing chaos run replays exactly.
//!
//! The injector is process-global (the planning service's worker threads
//! must see faults armed by the test thread) and disarmed by default; the
//! disarmed fast path is a single relaxed atomic load. Library code marks
//! its probe sites with [`site`], which reaches the injector only with this
//! crate's `probes` feature on (each library crate's `faults` feature turns
//! it on); otherwise `site` is a constant `Proceed`, so production builds
//! carry no injection machinery at all.
//!
//! Concurrency note: the injector is shared state. Chaos tests that arm
//! faults must serialize themselves (e.g. behind a `Mutex`) and disarm when
//! done; see `crates/bench/tests/chaos.rs`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// What an armed fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The probe site reports failure (the caller maps this to its local
    /// notion of failure: infeasible cost, `Err`, `None`, ...).
    Fail,
    /// Sleep for the given duration inside `probe` (models a stall; used to
    /// trip wall-clock deadlines deterministically).
    Delay(Duration),
    /// The caller substitutes NaN for the value it was about to produce
    /// (models a learned cost model emitting garbage).
    Nan,
    /// `probe` panics (models a crashed worker thread).
    Panic,
}

/// What a probe site should do, as decided by the injector. `Delay` and
/// `Panic` faults are executed inside [`probe`] itself (so the panic
/// originates on the probing thread); callers only ever see `Proceed`,
/// `Fail`, or `Nan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    Proceed,
    Fail,
    Nan,
}

/// An armed fault: fires at the `nth` probe whose site name contains
/// `pattern` (1-based), once — or at every matching probe from the `nth`
/// on when `repeat` is set.
#[derive(Debug, Clone)]
pub struct Fault {
    pub pattern: String,
    pub kind: FaultKind,
    pub nth: u64,
    pub repeat: bool,
}

impl Fault {
    /// One-shot fault at the first matching probe.
    pub fn once(pattern: impl Into<String>, kind: FaultKind) -> Self {
        Fault { pattern: pattern.into(), kind, nth: 1, repeat: false }
    }

    /// One-shot fault at the `nth` matching probe (1-based).
    pub fn at(pattern: impl Into<String>, kind: FaultKind, nth: u64) -> Self {
        Fault { pattern: pattern.into(), kind, nth: nth.max(1), repeat: false }
    }

    /// Repeating fault: fires at every matching probe from the `nth` on.
    pub fn repeating(pattern: impl Into<String>, kind: FaultKind) -> Self {
        Fault { pattern: pattern.into(), kind, nth: 1, repeat: true }
    }

    /// Seed-deterministic placement: fires once at probe
    /// `1 + lcg(seed) % window`.
    pub fn seeded(pattern: impl Into<String>, kind: FaultKind, seed: u64, window: u64) -> Self {
        let nth = 1 + lcg(seed) % window.max(1);
        Fault::at(pattern, kind, nth)
    }
}

struct Armed {
    fault: Fault,
    /// Matching probes seen so far.
    hits: u64,
    /// Times this fault has fired.
    fired: u64,
}

static ARMED_ANY: AtomicBool = AtomicBool::new(false);
static FIRED_TOTAL: AtomicU64 = AtomicU64::new(0);
static FAULTS: Mutex<Vec<Armed>> = Mutex::new(Vec::new());

fn faults() -> std::sync::MutexGuard<'static, Vec<Armed>> {
    // A panic fault fires while this lock is held by design (the probing
    // thread panics inside `probe`); recover the poisoned guard.
    FAULTS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arm a fault. Faults accumulate until [`disarm_all`].
pub fn arm(fault: Fault) {
    faults().push(Armed { fault, hits: 0, fired: 0 });
    ARMED_ANY.store(true, Ordering::SeqCst);
}

/// Disarm every fault and reset probe counters.
pub fn disarm_all() {
    faults().clear();
    ARMED_ANY.store(false, Ordering::SeqCst);
}

/// True if any fault is currently armed.
pub fn armed() -> bool {
    ARMED_ANY.load(Ordering::Relaxed)
}

/// Total number of faults fired since the last [`disarm_all`] (the counter
/// itself is monotone across the process; take deltas).
pub fn fired_total() -> u64 {
    FIRED_TOTAL.load(Ordering::Relaxed)
}

/// A probe site. Disarmed cost: one relaxed atomic load. When a `Delay`
/// fault matches, this sleeps; when a `Panic` fault matches, this panics
/// (message prefixed `raqo-faults:` so recovery paths can assert on it);
/// otherwise the caller receives the action to apply.
pub fn probe(site: &str) -> Action {
    if !ARMED_ANY.load(Ordering::Relaxed) {
        return Action::Proceed;
    }
    let kind = {
        let mut guard = faults();
        let mut hit: Option<FaultKind> = None;
        for armed in guard.iter_mut() {
            if !site.contains(armed.fault.pattern.as_str()) {
                continue;
            }
            armed.hits += 1;
            let due = if armed.fault.repeat {
                armed.hits >= armed.fault.nth
            } else {
                armed.fired == 0 && armed.hits == armed.fault.nth
            };
            if due && hit.is_none() {
                armed.fired += 1;
                hit = Some(armed.fault.kind);
            }
        }
        hit
    };
    match kind {
        None => Action::Proceed,
        Some(k) => {
            FIRED_TOTAL.fetch_add(1, Ordering::Relaxed);
            match k {
                FaultKind::Fail => Action::Fail,
                FaultKind::Nan => Action::Nan,
                FaultKind::Delay(d) => {
                    std::thread::sleep(d);
                    Action::Proceed
                }
                FaultKind::Panic => panic!("raqo-faults: injected panic at site `{site}`"),
            }
        }
    }
}

/// A probe site in library code: [`probe`] with the `probes` feature on.
#[cfg(feature = "probes")]
#[inline]
pub fn site(name: &str) -> Action {
    probe(name)
}

/// A probe site in library code: without the `probes` feature, always
/// `Proceed` — not even the disarmed atomic load is compiled in.
#[cfg(not(feature = "probes"))]
#[inline(always)]
pub fn site(_name: &str) -> Action {
    Action::Proceed
}

/// RAII guard: disarms all faults when dropped (even on panic), so a
/// failing chaos test cannot leak faults into the next one.
pub struct FaultGuard(());

impl FaultGuard {
    pub fn new() -> Self {
        FaultGuard(())
    }
}

impl Default for FaultGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        disarm_all();
    }
}

/// Fixed 64-bit LCG (Knuth MMIX constants) — the crate's only "randomness",
/// fully determined by the seed.
fn lcg(seed: u64) -> u64 {
    seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// Deterministically byte-corrupt a file: truncate it to
/// `1 + lcg(seed) % (len/2)` bytes and XOR the last surviving byte with
/// 0xA5. Guaranteed to structurally break any JSON document longer than a
/// couple of bytes; same seed, same corruption.
pub fn corrupt_file(path: &std::path::Path, seed: u64) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        bytes = vec![0xA5];
    } else {
        let keep = (1 + lcg(seed) % ((bytes.len() as u64 / 2).max(1))) as usize;
        bytes.truncate(keep);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xA5;
    }
    std::fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    // The injector is process-global; serialize these tests.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disarmed_probe_proceeds() {
        let _l = lock();
        let _g = FaultGuard::new();
        assert_eq!(probe("anything"), Action::Proceed);
    }

    #[test]
    fn nth_probe_fires_once() {
        let _l = lock();
        let _g = FaultGuard::new();
        arm(Fault::at("cost.model", FaultKind::Nan, 3));
        assert_eq!(probe("cost.model.scalar"), Action::Proceed);
        assert_eq!(probe("cost.model.scalar"), Action::Proceed);
        assert_eq!(probe("cost.model.scalar"), Action::Nan);
        assert_eq!(probe("cost.model.scalar"), Action::Proceed, "one-shot");
        assert_eq!(faults()[0].hits, 4, "every matching probe is seen");
    }

    #[test]
    fn repeating_fault_fires_every_time() {
        let _l = lock();
        let _g = FaultGuard::new();
        arm(Fault::repeating("plan_cost", FaultKind::Fail));
        assert_eq!(probe("core.plan_cost"), Action::Fail);
        assert_eq!(probe("core.plan_cost"), Action::Fail);
        assert_eq!(probe("unrelated.site"), Action::Proceed);
    }

    #[test]
    fn panic_fault_panics_and_lock_recovers() {
        let _l = lock();
        let _g = FaultGuard::new();
        arm(Fault::once("boom", FaultKind::Panic));
        let r = std::panic::catch_unwind(|| probe("worker.boom"));
        let msg = *r.expect_err("must panic").downcast::<String>().unwrap();
        assert!(msg.contains("raqo-faults"), "{msg}");
        // The injector stays usable after the panic (poison recovered).
        assert_eq!(probe("worker.boom"), Action::Proceed);
    }

    #[test]
    fn seeded_placement_is_deterministic() {
        let _l = lock();
        let a = Fault::seeded("x", FaultKind::Fail, 7, 100);
        let b = Fault::seeded("x", FaultKind::Fail, 7, 100);
        assert_eq!(a.nth, b.nth);
        assert!((1..=100).contains(&a.nth));
    }

    #[test]
    fn corrupt_file_is_deterministic_and_breaks_json() {
        let _l = lock();
        let dir = std::env::temp_dir();
        let p1 = dir.join("raqo_faults_corrupt_1.json");
        let p2 = dir.join("raqo_faults_corrupt_2.json");
        let body = br#"{"version":1,"entries":[1,2,3,4,5,6,7,8]}"#;
        std::fs::write(&p1, body).unwrap();
        std::fs::write(&p2, body).unwrap();
        corrupt_file(&p1, 99).unwrap();
        corrupt_file(&p2, 99).unwrap();
        let a = std::fs::read(&p1).unwrap();
        let b = std::fs::read(&p2).unwrap();
        assert_eq!(a, b, "same seed, same corruption");
        assert!(a.len() < body.len(), "truncated");
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
    }
}
