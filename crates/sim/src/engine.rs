//! Task-level execution-time model for SMJ and BHJ on a YARN-like cluster.
//!
//! ## The model
//!
//! A join runs over `nc` concurrent containers of `cs` GB each. Let `ss` be
//! the byte size of the smaller (build) relation and `ls` the larger (probe)
//! relation, both in GB.
//!
//! **Broadcast hash join (BHJ)** — Hive's map join / Spark's broadcast join:
//!
//! * the build relation is replicated to every container through a shared
//!   distribution channel of aggregate bandwidth `broadcast_bw`
//!   (cost `ss · nc / broadcast_bw`; this is why BHJ degrades with very
//!   large clusters, matching Fig. 3(b));
//! * each container materializes a hash table. The table fits only when
//!   `ss ≤ cs · mem_fraction / hash_expansion`; otherwise the join **fails
//!   with OOM**, reproducing "below 5 GB containers, BHJ is not an option as
//!   it runs out of memory" (Fig. 3(a)) and the OOM cut-offs of Figs. 4–5;
//! * building under memory pressure slows down (GC churn, in-memory
//!   spilling): the build cost `ss / build_bw` is multiplied by a quadratic
//!   penalty above a pressure knee — this is what makes BHJ "benefit from
//!   larger memory" (§III-A);
//! * the probe side is scanned in parallel: `ls / (nc · disk_bw)`.
//!
//! **Shuffle sort-merge join (SMJ)** — both relations are re-partitioned,
//! sorted, and merged. With `d = (ls + ss) / nc` data per container:
//!
//! * scan + shuffle: `d / disk_bw + d / net_bw`;
//! * external sort: one extra disk pass per multiway-merge level that does
//!   not fit in the sort buffer (`cs · sort_fraction`), i.e.
//!   `⌈log_fanin(d / buffer)⌉` passes of `d / disk_bw`. Container size
//!   therefore matters only mildly — "the performance of SMJ remains
//!   relatively stable" (§III-A) — while parallelism divides everything,
//!   which is why "SMJ benefits more from increased parallelism".
//!
//! Both joins pay a per-stage startup latency. All parameters live in
//! [`EngineTuning`]; [`EngineTuning::hive`] and [`EngineTuning::spark`] are
//! calibrated presets whose switch points land where §III reports them
//! (see the calibration tests at the bottom of this file).

use serde::{Deserialize, Serialize};

/// Which big-data engine is being simulated. The two engines share the
/// model shape and differ in tuning (Spark: faster startup, torrent
/// broadcast, tighter JVM memory fraction), which yields the visibly
/// different switch-point curves of Fig. 9(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineKind {
    Hive,
    Spark,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Hive => write!(f, "Hive"),
            EngineKind::Spark => write!(f, "SparkSQL"),
        }
    }
}

/// Join implementation under study (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinImpl {
    /// Shuffle sort-merge join.
    SortMerge,
    /// Broadcast hash join (Hive map join).
    BroadcastHash,
}

impl JoinImpl {
    pub const ALL: [JoinImpl; 2] = [JoinImpl::SortMerge, JoinImpl::BroadcastHash];

    /// The paper's abbreviations.
    pub fn abbrev(&self) -> &'static str {
        match self {
            JoinImpl::SortMerge => "SMJ",
            JoinImpl::BroadcastHash => "BHJ",
        }
    }
}

impl std::fmt::Display for JoinImpl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// BHJ ran out of memory: the build relation's hash table does not fit in a
/// container. Carries the sizes for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OomError {
    pub build_gb: f64,
    pub capacity_gb: f64,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "broadcast hash table of {:.2} GB exceeds container capacity {:.2} GB",
            self.build_gb, self.capacity_gb
        )
    }
}

impl std::error::Error for OomError {}

/// Calibration parameters of the engine model. All bandwidths are effective
/// GB/s (they fold in decode, serialization, and I/O overlap).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineTuning {
    /// Per-container effective scan/spill rate (GB/s).
    pub disk_bw: f64,
    /// Per-container shuffle network rate (GB/s).
    pub net_bw: f64,
    /// Aggregate broadcast distribution rate (GB/s) — shared, so broadcast
    /// cost grows with the number of receivers.
    pub broadcast_bw: f64,
    /// Hash-table build rate (GB/s) at zero memory pressure.
    pub build_bw: f64,
    /// Fraction of a container usable for the hash table / sort buffer.
    pub mem_fraction: f64,
    /// In-memory bytes per input byte of the hash table.
    pub hash_expansion: f64,
    /// Memory-pressure level where the build penalty starts.
    pub pressure_knee: f64,
    /// Quadratic penalty scale at 100 % pressure.
    pub pressure_slope: f64,
    /// Fraction of a container usable as sort buffer.
    pub sort_fraction: f64,
    /// External-merge fan-in.
    pub sort_fanin: f64,
    /// Per-stage startup latency (seconds); each join has two stages.
    pub startup_sec: f64,
    /// Cores per container the 2-D calibration assumes (the paper's VMs
    /// have 4 cores). `join_time` uses this implicitly; the 3-D entry
    /// point [`Engine::join_time_with_cores`] scales around it.
    pub default_cores: f64,
    /// Fraction of per-container processing that is CPU-bound (decode,
    /// hashing, comparisons) and therefore scales with cores; the rest is
    /// I/O-bound and does not.
    pub cpu_fraction: f64,
}

impl EngineTuning {
    /// Hive-on-Tez preset. Calibrated against §III:
    /// * Fig. 3(a): 5.1 GB build, 77 GB probe, 10 containers → BHJ OOMs
    ///   below 5 GB containers and overtakes SMJ around 7 GB;
    /// * Fig. 3(b): 3.4 GB build, 3 GB containers → BHJ wins below ~20
    ///   containers, SMJ is ≥ 1.5× faster at 40;
    /// * Fig. 4(a): the BHJ/SMJ switch point over build size sits at the OOM
    ///   boundary (~3.4 GB) for 3 GB containers and near 6.4 GB for 9 GB.
    pub fn hive() -> Self {
        EngineTuning {
            disk_bw: 0.0101,
            net_bw: 0.025,
            broadcast_bw: 0.4,
            build_bw: 0.0537,
            mem_fraction: 0.92,
            hash_expansion: 0.80,
            pressure_knee: 0.4,
            pressure_slope: 9.0,
            sort_fraction: 1.0,
            sort_fanin: 10.0,
            startup_sec: 5.0,
            default_cores: 4.0,
            cpu_fraction: 0.5,
        }
    }

    /// SparkSQL preset: lower startup, faster scans (whole-stage codegen),
    /// torrent broadcast (cheaper per receiver), but a tighter usable memory
    /// fraction (JVM executor memory), so BHJ OOMs earlier relative to
    /// container size — Fig. 9(b)'s curves sit below Fig. 9(a)'s.
    pub fn spark() -> Self {
        EngineTuning {
            disk_bw: 0.013,
            net_bw: 0.03,
            broadcast_bw: 0.8,
            build_bw: 0.06,
            mem_fraction: 0.60,
            hash_expansion: 0.85,
            pressure_knee: 0.35,
            pressure_slope: 8.0,
            sort_fraction: 0.6,
            sort_fanin: 10.0,
            startup_sec: 2.0,
            default_cores: 4.0,
            cpu_fraction: 0.6,
        }
    }

    pub fn for_kind(kind: EngineKind) -> Self {
        match kind {
            EngineKind::Hive => EngineTuning::hive(),
            EngineKind::Spark => EngineTuning::spark(),
        }
    }
}

/// The simulated engine: a kind plus tuning.
///
/// ```
/// use raqo_sim::engine::{Engine, JoinImpl};
///
/// let hive = Engine::hive();
/// // The §III-A finding: broadcasting a 5.1 GB table needs ≥5 GB containers...
/// assert!(hive.join_time(JoinImpl::BroadcastHash, 5.1, 77.0, 10.0, 4.0).is_err());
/// // ...and beats the shuffle join once memory is plentiful.
/// let bhj = hive.join_time(JoinImpl::BroadcastHash, 5.1, 77.0, 10.0, 9.0).unwrap();
/// let smj = hive.join_time(JoinImpl::SortMerge, 5.1, 77.0, 10.0, 9.0).unwrap();
/// assert!(bhj < smj);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Engine {
    pub kind: EngineKind,
    pub tuning: EngineTuning,
}

impl Engine {
    pub fn hive() -> Self {
        Engine { kind: EngineKind::Hive, tuning: EngineTuning::hive() }
    }

    pub fn spark() -> Self {
        Engine { kind: EngineKind::Spark, tuning: EngineTuning::spark() }
    }

    pub fn new(kind: EngineKind) -> Self {
        Engine { kind, tuning: EngineTuning::for_kind(kind) }
    }

    /// Largest build relation (GB) a BHJ can hold in a container of
    /// `cs` GB — the OOM boundary.
    pub fn bhj_capacity_gb(&self, cs: f64) -> f64 {
        cs * self.tuning.mem_fraction / self.tuning.hash_expansion
    }

    /// Execution time (seconds) of one join of the given implementation
    /// with build size `ss`, probe size `ls` (GB) on `nc` containers of
    /// `cs` GB and the calibration-default core count. BHJ returns
    /// [`OomError`] when the build side does not fit.
    pub fn join_time(
        &self,
        join: JoinImpl,
        ss: f64,
        ls: f64,
        nc: f64,
        cs: f64,
    ) -> Result<f64, OomError> {
        self.join_time_with_cores(join, ss, ls, nc, cs, self.tuning.default_cores)
    }

    /// The three-dimensional resource space of §III's "our experiments can
    /// naturally be extended to include other resources, such as CPU":
    /// like [`Engine::join_time`] but with an explicit per-container core
    /// count. The CPU-bound share of per-container processing
    /// ([`EngineTuning::cpu_fraction`]) scales with cores; I/O, network,
    /// and startup do not. At `cores == default_cores` this is exactly the
    /// 2-D model.
    pub fn join_time_with_cores(
        &self,
        join: JoinImpl,
        ss: f64,
        ls: f64,
        nc: f64,
        cs: f64,
        cores: f64,
    ) -> Result<f64, OomError> {
        assert!(ss >= 0.0 && ls >= 0.0, "relation sizes must be non-negative");
        assert!(nc >= 1.0, "need at least one container, got {nc}");
        assert!(cs > 0.0, "container size must be positive, got {cs}");
        assert!(cores >= 1.0, "need at least one core, got {cores}");
        let factor = self.cpu_factor(cores);
        // The cost model treats `ss` as the build/broadcast side; calling
        // conventions upstream guarantee ss <= ls, but the model itself is
        // well defined either way.
        match join {
            JoinImpl::BroadcastHash => self.bhj_time(ss, ls, nc, cs, factor),
            JoinImpl::SortMerge => Ok(self.smj_time(ss, ls, nc, cs, factor)),
        }
    }

    /// Slowdown/speedup multiplier for per-container processing at a given
    /// core count: 1.0 at the calibration default, rising toward
    /// `1 + cpu_fraction·(default − 1)` at one core, and approaching the
    /// I/O floor `1 − cpu_fraction·(1 − default/cores)` as cores grow
    /// (Amdahl on the CPU-bound share).
    pub fn cpu_factor(&self, cores: f64) -> f64 {
        let t = &self.tuning;
        1.0 + t.cpu_fraction * (t.default_cores / cores - 1.0)
    }

    fn bhj_time(&self, ss: f64, ls: f64, nc: f64, cs: f64, cpu: f64) -> Result<f64, OomError> {
        let t = &self.tuning;
        let capacity = self.bhj_capacity_gb(cs);
        if ss > capacity {
            return Err(OomError { build_gb: ss, capacity_gb: capacity });
        }
        let pressure = ss / capacity;
        let penalty = if pressure > t.pressure_knee {
            let u = (pressure - t.pressure_knee) / (1.0 - t.pressure_knee);
            1.0 + t.pressure_slope * u * u
        } else {
            1.0
        };
        let broadcast = ss * nc / t.broadcast_bw;
        let build = cpu * penalty * ss / t.build_bw;
        let probe = cpu * ls / (nc * t.disk_bw);
        Ok(2.0 * t.startup_sec + broadcast + build + probe)
    }

    fn smj_time(&self, ss: f64, ls: f64, nc: f64, cs: f64, cpu: f64) -> f64 {
        let t = &self.tuning;
        let per_container = (ls + ss) / nc;
        let buffer = cs * t.sort_fraction;
        let passes = sort_passes(per_container, buffer, t.sort_fanin);
        let scan = cpu * per_container / t.disk_bw;
        let shuffle = per_container / t.net_bw;
        // Only the bytes beyond the sort buffer are spilled and re-read on
        // each merge pass, so container size affects SMJ smoothly and only
        // mildly — "the performance of SMJ remains relatively stable".
        let spill = cpu * passes * (per_container - buffer).max(0.0) / t.disk_bw;
        2.0 * t.startup_sec + scan + shuffle + spill
    }

    /// A chain of broadcast hash joins fused into one scan stage — Hive
    /// pipelines consecutive map joins inside the same mapper, so the probe
    /// relation is read **once** through all hash tables (this is what
    /// makes the paper's Fig. 5 "plan 1", two BHJs over lineitem, fast).
    ///
    /// All build relations must fit in a container *together*; pressure is
    /// computed from their combined occupancy.
    pub fn map_join_chain_time(
        &self,
        builds_gb: &[f64],
        probe_gb: f64,
        nc: f64,
        cs: f64,
    ) -> Result<f64, OomError> {
        assert!(!builds_gb.is_empty(), "a map-join chain needs at least one build side");
        assert!(nc >= 1.0 && cs > 0.0);
        let t = &self.tuning;
        let total_build: f64 = builds_gb.iter().sum();
        let capacity = self.bhj_capacity_gb(cs);
        if total_build > capacity {
            return Err(OomError { build_gb: total_build, capacity_gb: capacity });
        }
        let pressure = total_build / capacity;
        let penalty = if pressure > t.pressure_knee {
            let u = (pressure - t.pressure_knee) / (1.0 - t.pressure_knee);
            1.0 + t.pressure_slope * u * u
        } else {
            1.0
        };
        let broadcast: f64 = builds_gb.iter().map(|b| b * nc / t.broadcast_bw).sum();
        let build = penalty * total_build / t.build_bw;
        let probe = probe_gb / (nc * t.disk_bw);
        Ok(2.0 * t.startup_sec + broadcast + build + probe)
    }

    /// The faster feasible implementation for one join, or `None` when
    /// neither runs (cannot happen: SMJ always runs).
    pub fn best_join(&self, ss: f64, ls: f64, nc: f64, cs: f64) -> (JoinImpl, f64) {
        let cpu = self.cpu_factor(self.tuning.default_cores);
        let smj = self.smj_time(ss, ls, nc, cs, cpu);
        match self.bhj_time(ss, ls, nc, cs, cpu) {
            Ok(bhj) if bhj < smj => (JoinImpl::BroadcastHash, bhj),
            _ => (JoinImpl::SortMerge, smj),
        }
    }
}

/// Number of extra external-merge passes for `data` GB with a `buffer` GB
/// sort buffer and the given fan-in.
fn sort_passes(data: f64, buffer: f64, fanin: f64) -> f64 {
    if data <= buffer || buffer <= 0.0 {
        return 0.0;
    }
    (data / buffer).log(fanin).ceil().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINEITEM_GB: f64 = 77.0; // the paper's "large size table = 77G"

    fn hive() -> Engine {
        Engine::hive()
    }

    #[test]
    fn sort_passes_boundaries() {
        assert_eq!(sort_passes(1.0, 2.0, 10.0), 0.0);
        assert_eq!(sort_passes(2.0, 2.0, 10.0), 0.0);
        assert_eq!(sort_passes(3.0, 2.0, 10.0), 1.0);
        assert_eq!(sort_passes(25.0, 2.0, 10.0), 2.0); // log10(12.5) in (1,2]
        assert_eq!(sort_passes(1.0, 0.0, 10.0), 0.0); // degenerate buffer
    }

    // ---- Fig. 3(a): container-size sweep, 5.1 GB orders, 10 containers ---

    #[test]
    fn fig3a_bhj_oom_below_5gb_containers() {
        let e = hive();
        for cs in [1.0, 2.0, 3.0, 4.0] {
            assert!(
                e.join_time(JoinImpl::BroadcastHash, 5.1, LINEITEM_GB, 10.0, cs).is_err(),
                "BHJ should OOM at cs={cs}"
            );
        }
        assert!(e.join_time(JoinImpl::BroadcastHash, 5.1, LINEITEM_GB, 10.0, 5.0).is_ok());
    }

    #[test]
    fn fig3a_switch_point_between_5_and_9_gb() {
        // "SMJ outperforms BHJ for container sizes up to 7 GB, while BHJ is
        // better for bigger container sizes." Allow the crossover anywhere
        // in (5, 9).
        let e = hive();
        let smj5 = e.join_time(JoinImpl::SortMerge, 5.1, LINEITEM_GB, 10.0, 5.0).unwrap();
        let bhj5 = e.join_time(JoinImpl::BroadcastHash, 5.1, LINEITEM_GB, 10.0, 5.0).unwrap();
        assert!(smj5 < bhj5, "SMJ must win at 5 GB: smj={smj5:.0} bhj={bhj5:.0}");

        let smj10 = e.join_time(JoinImpl::SortMerge, 5.1, LINEITEM_GB, 10.0, 10.0).unwrap();
        let bhj10 = e.join_time(JoinImpl::BroadcastHash, 5.1, LINEITEM_GB, 10.0, 10.0).unwrap();
        assert!(bhj10 < smj10, "BHJ must win at 10 GB: smj={smj10:.0} bhj={bhj10:.0}");
    }

    #[test]
    fn fig3a_bhj_improves_with_container_size_smj_stays_stable() {
        let e = hive();
        let bhj = |cs: f64| e.join_time(JoinImpl::BroadcastHash, 5.1, LINEITEM_GB, 10.0, cs).unwrap();
        let smj = |cs: f64| e.join_time(JoinImpl::SortMerge, 5.1, LINEITEM_GB, 10.0, cs).unwrap();
        assert!(bhj(5.0) > bhj(7.0) && bhj(7.0) > bhj(10.0), "BHJ must improve with memory");
        // SMJ varies by at most ~50% across the sweep ("relatively
        // stable", vs BHJ's OOM-to-fast swing).
        let (lo, hi) = (3..=10).map(|c| smj(c as f64)).fold(
            (f64::INFINITY, 0.0f64),
            |(lo, hi), v| (lo.min(v), hi.max(v)),
        );
        assert!(hi / lo < 1.55, "SMJ spread too wide: {lo:.0}..{hi:.0}");
    }

    #[test]
    fn fig3a_magnitudes_are_paper_scale() {
        // The paper's Fig. 3 y-axis spans a few hundred to ~2000 seconds.
        let e = hive();
        for cs in 5..=10 {
            let bhj =
                e.join_time(JoinImpl::BroadcastHash, 5.1, LINEITEM_GB, 10.0, cs as f64).unwrap();
            let smj = e.join_time(JoinImpl::SortMerge, 5.1, LINEITEM_GB, 10.0, cs as f64).unwrap();
            assert!((200.0..3000.0).contains(&bhj), "bhj({cs})={bhj:.0}");
            assert!((200.0..3000.0).contains(&smj), "smj({cs})={smj:.0}");
        }
    }

    // ---- Fig. 3(b): container-count sweep, 3.4 GB orders, 3 GB containers

    #[test]
    fn fig3b_bhj_wins_low_parallelism_smj_wins_high() {
        let e = hive();
        let at = |imp, nc: f64| e.join_time(imp, 3.4, LINEITEM_GB, nc, 3.0).unwrap();
        // "BHJ is better than SMJ for less than 20 containers"
        assert!(
            at(JoinImpl::BroadcastHash, 10.0) < at(JoinImpl::SortMerge, 10.0),
            "BHJ must win at 10 containers"
        );
        // "...SMJ benefits more from increased parallelism and is twice
        // faster than BHJ for 40 containers" — require at least 1.5x.
        let smj40 = at(JoinImpl::SortMerge, 40.0);
        let bhj40 = at(JoinImpl::BroadcastHash, 40.0);
        assert!(
            bhj40 > 1.5 * smj40,
            "SMJ must be >=1.5x faster at 40 containers: smj={smj40:.0} bhj={bhj40:.0}"
        );
    }

    #[test]
    fn fig3b_switch_point_near_20_containers() {
        let e = hive();
        let mut switch = None;
        for nc in 5..=45 {
            let nc = nc as f64;
            let smj = e.join_time(JoinImpl::SortMerge, 3.4, LINEITEM_GB, nc, 3.0).unwrap();
            let bhj = e.join_time(JoinImpl::BroadcastHash, 3.4, LINEITEM_GB, nc, 3.0).unwrap();
            if smj < bhj {
                switch = Some(nc);
                break;
            }
        }
        let switch = switch.expect("SMJ must eventually win");
        assert!(
            (10.0..=30.0).contains(&switch),
            "switch at {switch} containers, paper reports ~20"
        );
    }

    // ---- Fig. 4(a): switch point over data size moves with memory -------

    #[test]
    fn fig4a_oom_cutoff_tracks_container_size() {
        let e = hive();
        // 3 GB containers hold up to ~3.45 GB ("BHJ runs out of memory
        // after [3.4 GB]"), 9 GB hold ~10.35 GB.
        let cap3 = e.bhj_capacity_gb(3.0);
        assert!((3.2..3.7).contains(&cap3), "cap(3GB)={cap3:.2}");
        let cap9 = e.bhj_capacity_gb(9.0);
        assert!((9.5..11.2).contains(&cap9), "cap(9GB)={cap9:.2}");
    }

    #[test]
    fn fig4a_switch_point_grows_with_container_size() {
        // At 3 GB containers the switch point is the OOM bound (~3.4 GB);
        // at 9 GB it is a genuine performance crossover near 6.4 GB.
        let e = hive();
        let switch_at = |cs: f64| -> f64 {
            let mut ss = 0.2;
            while ss < 12.0 {
                match e.join_time(JoinImpl::BroadcastHash, ss, LINEITEM_GB, 10.0, cs) {
                    Err(_) => return ss, // OOM bound
                    Ok(bhj) => {
                        let smj = e.join_time(JoinImpl::SortMerge, ss, LINEITEM_GB, 10.0, cs).unwrap();
                        if bhj > smj {
                            return ss;
                        }
                    }
                }
                ss += 0.2;
            }
            12.0
        };
        let s3 = switch_at(3.0);
        let s9 = switch_at(9.0);
        assert!((2.5..=4.5).contains(&s3), "switch(3GB)={s3:.1}, paper ~3.4");
        assert!((5.0..=8.5).contains(&s9), "switch(9GB)={s9:.1}, paper ~6.4");
        assert!(s9 > s3, "switch point must grow with container size");
    }

    // ---- Basic properties ----------------------------------------------

    #[test]
    fn times_monotone_in_probe_size() {
        let e = hive();
        for imp in JoinImpl::ALL {
            let t1 = e.join_time(imp, 1.0, 10.0, 10.0, 8.0).unwrap();
            let t2 = e.join_time(imp, 1.0, 20.0, 10.0, 8.0).unwrap();
            assert!(t2 > t1, "{imp} not monotone in probe size");
        }
    }

    #[test]
    fn smj_never_ooms() {
        let e = hive();
        assert!(e.join_time(JoinImpl::SortMerge, 500.0, 5000.0, 1.0, 1.0).is_ok());
    }

    #[test]
    fn oom_error_reports_sizes() {
        let e = hive();
        let err = e.join_time(JoinImpl::BroadcastHash, 10.0, 77.0, 10.0, 2.0).unwrap_err();
        assert_eq!(err.build_gb, 10.0);
        assert!(err.capacity_gb < 10.0);
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn best_join_prefers_feasible_faster() {
        let e = hive();
        // Tiny build side: BHJ clearly wins.
        let (imp, _) = e.best_join(0.05, LINEITEM_GB, 10.0, 4.0);
        assert_eq!(imp, JoinImpl::BroadcastHash);
        // Infeasible BHJ: SMJ chosen.
        let (imp, _) = e.best_join(10.0, LINEITEM_GB, 10.0, 2.0);
        assert_eq!(imp, JoinImpl::SortMerge);
    }

    #[test]
    fn map_join_chain_reads_probe_once() {
        // Chaining two BHJs must beat running them as two stages (the
        // intermediate never hits disk again).
        let e = hive();
        let chained = e.map_join_chain_time(&[0.8, 2.5], 77.0, 10.0, 8.0).unwrap();
        let staged = e.join_time(JoinImpl::BroadcastHash, 0.8, 77.0, 10.0, 8.0).unwrap()
            + e.join_time(JoinImpl::BroadcastHash, 2.5, 80.0, 10.0, 8.0).unwrap();
        assert!(chained < staged, "chained={chained:.0} staged={staged:.0}");
    }

    #[test]
    fn map_join_chain_oom_uses_combined_build_size() {
        let e = hive();
        // Each side fits alone in 3 GB (capacity ~3.45) but not together.
        assert!(e.map_join_chain_time(&[2.0], 77.0, 10.0, 3.0).is_ok());
        assert!(e.map_join_chain_time(&[2.0, 2.0], 77.0, 10.0, 3.0).is_err());
        assert!(e.map_join_chain_time(&[2.0, 2.0], 77.0, 10.0, 6.0).is_ok());
    }

    #[test]
    fn single_element_chain_matches_bhj() {
        let e = hive();
        let chain = e.map_join_chain_time(&[1.5], 40.0, 10.0, 6.0).unwrap();
        let bhj = e.join_time(JoinImpl::BroadcastHash, 1.5, 40.0, 10.0, 6.0).unwrap();
        assert!((chain - bhj).abs() < 1e-9);
    }

    #[test]
    fn spark_preset_differs_from_hive() {
        let hive = Engine::hive();
        let spark = Engine::spark();
        // Spark's tighter memory fraction -> smaller BHJ capacity per GB.
        assert!(spark.bhj_capacity_gb(4.0) < hive.bhj_capacity_gb(4.0));
        // Same join, different engines, different times.
        let th = hive.join_time(JoinImpl::SortMerge, 2.0, 40.0, 10.0, 4.0).unwrap();
        let ts = spark.join_time(JoinImpl::SortMerge, 2.0, 40.0, 10.0, 4.0).unwrap();
        assert_ne!(th, ts);
    }

    #[test]
    fn default_cores_reproduce_the_2d_model() {
        let e = hive();
        let a = e.join_time(JoinImpl::SortMerge, 3.4, 77.0, 20.0, 3.0).unwrap();
        let b = e
            .join_time_with_cores(JoinImpl::SortMerge, 3.4, 77.0, 20.0, 3.0, 4.0)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fewer_cores_slow_down_more_cores_speed_up_sublinearly() {
        let e = hive();
        let at = |cores: f64| {
            e.join_time_with_cores(JoinImpl::SortMerge, 3.4, 77.0, 20.0, 3.0, cores).unwrap()
        };
        let (one, four, sixteen) = (at(1.0), at(4.0), at(16.0));
        assert!(one > four, "1 core must be slower than 4");
        assert!(sixteen < four, "16 cores must be faster than 4");
        // Amdahl: quadrupling cores 4→16 gains far less than 4→1 loses.
        assert!(four / sixteen < one / four);
        // And the I/O floor bounds the speedup: never below the non-CPU
        // share of the 4-core time.
        assert!(sixteen > four * (1.0 - e.tuning.cpu_fraction));
    }

    #[test]
    fn cpu_factor_shape() {
        let e = hive();
        assert!((e.cpu_factor(4.0) - 1.0).abs() < 1e-12);
        assert!(e.cpu_factor(1.0) > 2.0); // 1 + 0.5*(4-1) = 2.5
        assert!(e.cpu_factor(100.0) > 0.5 && e.cpu_factor(100.0) < 1.0);
    }

    #[test]
    fn cores_do_not_change_oom_boundaries() {
        let e = hive();
        for cores in [1.0, 4.0, 16.0] {
            assert!(e
                .join_time_with_cores(JoinImpl::BroadcastHash, 5.1, 77.0, 10.0, 4.0, cores)
                .is_err());
            assert!(e
                .join_time_with_cores(JoinImpl::BroadcastHash, 5.1, 77.0, 10.0, 6.0, cores)
                .is_ok());
        }
    }

    #[test]
    fn abbreviations_and_display() {
        assert_eq!(JoinImpl::SortMerge.abbrev(), "SMJ");
        assert_eq!(JoinImpl::BroadcastHash.abbrev(), "BHJ");
        assert_eq!(EngineKind::Hive.to_string(), "Hive");
        assert_eq!(EngineKind::Spark.to_string(), "SparkSQL");
    }

    #[test]
    #[should_panic(expected = "at least one container")]
    fn zero_containers_rejected() {
        hive().join_time(JoinImpl::SortMerge, 1.0, 2.0, 0.0, 1.0).ok();
    }
}
