//! # raqo-sim
//!
//! The big-data substrate the paper runs on, rebuilt as a simulator.
//!
//! The paper's §III evidence comes from a 10-VM YARN cluster running Hive
//! 2.0.1 on Tez (and SparkSQL 1.6.1) over TPC-H SF-100. We do not have that
//! testbed, so this crate provides a deterministic analytic simulator of the
//! same moving parts:
//!
//! * [`engine`] — task-level execution-time model of the two join
//!   implementations the paper studies, **shuffle sort-merge join (SMJ)**
//!   and **broadcast hash join (BHJ)**, under a ⟨number of containers,
//!   container size⟩ resource configuration, including BHJ's out-of-memory
//!   behaviour ("below 5 GB containers, BHJ is not an option as it runs out
//!   of memory") and memory-pressure slowdown;
//! * [`money`] — the serverless monetary-cost model (total memory × time,
//!   reported by the paper in TB·seconds);
//! * [`sweeps`] — switch-point computation between BHJ and SMJ over data and
//!   resource dimensions (the machinery behind Figs. 3–7 and 9);
//! * [`queue`] — a discrete-event admission-queue simulator reproducing the
//!   queue-time/run-time distribution of Fig. 1;
//! * [`profile`] — profile-run generation ("our approach requires profile
//!   runs in order to train the cost model", §VI-A) consumed by the
//!   regression trainer in `raqo-cost` and the decision-tree learner in
//!   `raqo-dtree`.
//!
//! The simulator is calibrated so the *shapes* of the paper's findings hold
//! (who wins, where crossovers fall, how switch points move); absolute
//! seconds are in the same few-hundred-to-few-thousand range as the paper
//! but are not expected to match a 2016 testbed exactly. Calibration targets
//! and deviations are recorded in `EXPERIMENTS.md`.

pub mod engine;
pub mod money;
pub mod profile;
pub mod queue;
pub mod scheduler;
pub mod sweeps;

pub use engine::{Engine, EngineKind, EngineTuning, JoinImpl, OomError};
pub use money::monetary_cost_tb_sec;
pub use queue::{percentile, AdmissionQueue, JobOutcome, QueueSimConfig};
pub use scheduler::{ContentionPolicy, Scheduler, StageCandidate, StageSpec};
pub use sweeps::{switch_point_small_size, SwitchPoint};
