//! Discrete-event simulation of a shared cluster's admission queue (Fig. 1).
//!
//! Fig. 1 plots, for one business unit of Microsoft's production clusters,
//! the cumulative distribution of each job's queue-time/run-time ratio:
//! "more than 80% of the jobs spend as much time waiting for resources in
//! the queue as in the actual job execution. More than 20% of the jobs
//! spend at least 4 times their execution time waiting."
//!
//! We reproduce the *shape* with a synthetic but structurally faithful
//! workload: recurring bursts of analytics jobs (the classic
//! top-of-the-hour effect) contending FIFO for a fixed container pool. Jobs
//! demand a random number of containers for a heavy-tailed (log-normal)
//! runtime. Early jobs in a burst start immediately (ratio ≈ 0); later jobs
//! queue behind the backlog, pushing most ratios past 1 and the tail past 4.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A multi-class bounded admission queue: the data structure behind both
/// this simulator's FIFO waiting line and the live planning service's
/// request queue (`raqo-core`). Class 0 is the highest priority; within a
/// class, order is strictly FIFO. Capacity bounds the *total* backlog
/// across classes — a full queue rejects the push (admission control sheds
/// the request) instead of growing without bound.
#[derive(Debug, Clone)]
pub struct AdmissionQueue<T> {
    classes: Vec<VecDeque<T>>,
    capacity: usize,
    len: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue with `classes` priority classes and no backlog bound (the
    /// simulator's cluster queue: jobs wait forever rather than shed).
    pub fn unbounded(classes: usize) -> Self {
        Self::bounded(classes, usize::MAX)
    }

    /// A queue with `classes` priority classes holding at most `capacity`
    /// items in total.
    pub fn bounded(classes: usize, capacity: usize) -> Self {
        assert!(classes >= 1, "at least one priority class");
        AdmissionQueue {
            classes: (0..classes).map(|_| VecDeque::new()).collect(),
            capacity,
            len: 0,
        }
    }

    /// Total queued items across all classes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The total-backlog bound (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queued items in one class.
    pub fn class_len(&self, class: usize) -> usize {
        self.classes[class].len()
    }

    /// Enqueue at the tail of `class`, or hand the item back when the
    /// queue is at capacity (the caller sheds it).
    pub fn try_push(&mut self, class: usize, item: T) -> Result<(), T> {
        assert!(class < self.classes.len(), "priority class out of range");
        if self.len >= self.capacity {
            return Err(item);
        }
        self.classes[class].push_back(item);
        self.len += 1;
        Ok(())
    }

    /// The item the scheduler would serve next — head of the non-empty
    /// class with the highest priority (lowest index) — without removing it.
    pub fn peek_next(&self) -> Option<(usize, &T)> {
        self.classes
            .iter()
            .enumerate()
            .find_map(|(class, q)| q.front().map(|item| (class, item)))
    }

    /// Remove and return the next item in service order.
    pub fn pop_next(&mut self) -> Option<(usize, T)> {
        let class = self.classes.iter().position(|q| !q.is_empty())?;
        let item = self.classes[class].pop_front().expect("class is non-empty");
        self.len -= 1;
        Some((class, item))
    }
}

/// Nearest-rank percentile (`p` in \[0,100\]) of an unsorted sample;
/// `NaN`-free inputs assumed, 0 for an empty sample. Used for the p50/p99
/// queue-wait figures of the throughput bench.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile inputs must not be NaN"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Workload + cluster knobs for the queue simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueueSimConfig {
    /// Total containers in the pool.
    pub capacity: u32,
    /// Number of arrival bursts to simulate.
    pub bursts: u32,
    /// Jobs arriving together at the start of each burst.
    pub jobs_per_burst: u32,
    /// Seconds between bursts.
    pub burst_gap_sec: f64,
    /// Median job runtime (seconds).
    pub median_runtime_sec: f64,
    /// Log-normal sigma of runtimes (0 = deterministic).
    pub runtime_sigma: f64,
    /// Per-job container demand, inclusive range.
    pub demand: (u32, u32),
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueueSimConfig {
    /// Calibrated to reproduce Fig. 1's headline numbers: ≥ 80 % of jobs
    /// with ratio ≥ 1, ≥ 20 % with ratio ≥ 4, and a visible mass near 0.
    fn default() -> Self {
        QueueSimConfig {
            capacity: 100,
            bursts: 50,
            jobs_per_burst: 47,
            burst_gap_sec: 300.0,
            median_runtime_sec: 40.0,
            runtime_sigma: 0.6,
            demand: (5, 20),
            seed: 1,
        }
    }
}

/// One simulated job's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    pub arrival_sec: f64,
    pub start_sec: f64,
    pub runtime_sec: f64,
    pub demand: u32,
}

impl JobOutcome {
    pub fn queue_time(&self) -> f64 {
        self.start_sec - self.arrival_sec
    }

    /// The Fig. 1 metric.
    pub fn queue_runtime_ratio(&self) -> f64 {
        self.queue_time() / self.runtime_sec
    }
}

/// Run the FIFO admission simulation and return per-job outcomes in
/// arrival order.
pub fn simulate(config: &QueueSimConfig) -> Vec<JobOutcome> {
    assert!(config.capacity >= config.demand.1, "largest job must fit the cluster");
    assert!(config.demand.0 >= 1 && config.demand.0 <= config.demand.1);
    assert!(config.median_runtime_sec > 0.0 && config.burst_gap_sec > 0.0);
    let mut rng = StdRng::seed_from_u64(config.seed);

    struct Pending {
        arrival: f64,
        runtime: f64,
        demand: u32,
        idx: usize,
    }

    // Generate all arrivals up front (bursts at fixed times, jobs inside a
    // burst arriving in generation order — FIFO ties broken by index).
    let mut jobs = Vec::new();
    for b in 0..config.bursts {
        let t = b as f64 * config.burst_gap_sec;
        for _ in 0..config.jobs_per_burst {
            let runtime = config.median_runtime_sec * lognormal_factor(&mut rng, config.runtime_sigma);
            let demand = rng.gen_range(config.demand.0..=config.demand.1);
            jobs.push(Pending { arrival: t, runtime, demand, idx: jobs.len() });
        }
    }

    let mut outcomes: Vec<Option<JobOutcome>> = (0..jobs.len()).map(|_| None).collect();
    let mut free = config.capacity as i64;
    // Running jobs as (finish time, demand), earliest finish first. f64 is
    // not Ord; times are finite by construction, so order by bits.
    let mut running: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    // Single-class unbounded admission queue ≡ the plain FIFO line the
    // cluster model always had.
    let mut waiting: AdmissionQueue<Pending> = AdmissionQueue::unbounded(1);

    let key = |t: f64| -> u64 {
        debug_assert!(t.is_finite() && t >= 0.0);
        t.to_bits()
    };

    // Start as many FIFO-waiting jobs as currently fit, at time `now`.
    fn start_waiting(
        now: f64,
        free: &mut i64,
        waiting: &mut AdmissionQueue<Pending>,
        running: &mut BinaryHeap<Reverse<(u64, u32)>>,
        outcomes: &mut [Option<JobOutcome>],
        key: &dyn Fn(f64) -> u64,
    ) {
        while let Some((_, job)) = waiting.peek_next() {
            if (job.demand as i64) <= *free {
                let (_, job) = waiting.pop_next().expect("head exists");
                *free -= job.demand as i64;
                outcomes[job.idx] = Some(JobOutcome {
                    arrival_sec: job.arrival,
                    start_sec: now,
                    runtime_sec: job.runtime,
                    demand: job.demand,
                });
                running.push(Reverse((key(now + job.runtime), job.demand)));
            } else {
                break; // strict FIFO: head blocks the rest
            }
        }
    }

    let release_until = |t: f64,
                             free: &mut i64,
                             waiting: &mut AdmissionQueue<Pending>,
                             running: &mut BinaryHeap<Reverse<(u64, u32)>>,
                             outcomes: &mut [Option<JobOutcome>]| {
        while let Some(&Reverse((fk, d))) = running.peek() {
            let ft = f64::from_bits(fk);
            if ft <= t {
                running.pop();
                *free += d as i64;
                start_waiting(ft, free, waiting, running, outcomes, &key);
            } else {
                break;
            }
        }
    };

    for job in jobs {
        release_until(job.arrival, &mut free, &mut waiting, &mut running, &mut outcomes);
        let arrival = job.arrival;
        let _ = waiting.try_push(0, job); // unbounded: never sheds

        start_waiting(arrival, &mut free, &mut waiting, &mut running, &mut outcomes, &key);
    }
    // Drain everything.
    release_until(f64::INFINITY, &mut free, &mut waiting, &mut running, &mut outcomes);

    outcomes
        .into_iter()
        .map(|o| o.expect("every job eventually starts"))
        .collect()
}

/// Fraction of jobs whose queue/runtime ratio is at least `threshold`.
pub fn fraction_at_least(outcomes: &[JobOutcome], threshold: f64) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes.iter().filter(|o| o.queue_runtime_ratio() >= threshold).count() as f64
        / outcomes.len() as f64
}

/// The Fig. 1 CDF: sorted (ratio, cumulative fraction) points.
pub fn ratio_cdf(outcomes: &[JobOutcome]) -> Vec<(f64, f64)> {
    let mut ratios: Vec<f64> = outcomes.iter().map(|o| o.queue_runtime_ratio()).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    let n = ratios.len() as f64;
    ratios
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, (i + 1) as f64 / n))
        .collect()
}

/// Log-normal multiplier with median 1. Uses a 12-uniform Irwin–Hall sum as
/// the underlying standard normal (well within the accuracy the workload
/// model needs, and keeps us inside the sanctioned `rand` crate).
fn lognormal_factor(rng: &mut StdRng, sigma: f64) -> f64 {
    let z: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let cfg = QueueSimConfig::default();
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn all_jobs_start_after_arrival_and_capacity_is_respected() {
        let outcomes = simulate(&QueueSimConfig::default());
        assert_eq!(outcomes.len(), 50 * 47);
        for o in &outcomes {
            assert!(o.start_sec >= o.arrival_sec - 1e-9);
            assert!(o.runtime_sec > 0.0);
        }
        // Capacity check: at every start instant, the sum of demands of
        // overlapping jobs must not exceed capacity.
        let cap = QueueSimConfig::default().capacity as f64;
        for probe in outcomes.iter().step_by(97) {
            let t = probe.start_sec;
            let in_flight: f64 = outcomes
                .iter()
                .filter(|o| o.start_sec <= t && t < o.start_sec + o.runtime_sec)
                .map(|o| o.demand as f64)
                .sum();
            assert!(in_flight <= cap + 1e-6, "overcommit at t={t}: {in_flight}");
        }
    }

    #[test]
    fn fifo_order_within_waiting_queue() {
        // Jobs of the same burst must start in arrival (index) order.
        let outcomes = simulate(&QueueSimConfig::default());
        for pair in outcomes.chunks(40) {
            for w in pair.windows(2) {
                assert!(
                    w[1].start_sec >= w[0].start_sec - 1e-9,
                    "FIFO violated within burst"
                );
            }
        }
    }

    #[test]
    fn fig1_headline_numbers() {
        // "more than 80% of the jobs spend as much time waiting ... as in
        // the actual job execution" and "more than 20% ... at least 4
        // times". Allow modest slack on the 80%.
        let outcomes = simulate(&QueueSimConfig::default());
        let at_least_1 = fraction_at_least(&outcomes, 1.0);
        let at_least_4 = fraction_at_least(&outcomes, 4.0);
        assert!(at_least_1 >= 0.80, "P(ratio>=1) = {at_least_1:.2}");
        assert!(at_least_4 >= 0.20, "P(ratio>=4) = {at_least_4:.2}");
        // And some jobs start (nearly) immediately.
        let immediate = outcomes.iter().filter(|o| o.queue_runtime_ratio() < 0.1).count();
        assert!(immediate > 0, "no immediate starts at all");
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let outcomes = simulate(&QueueSimConfig::default());
        let cdf = ratio_cdf(&outcomes);
        assert_eq!(cdf.len(), outcomes.len());
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_cluster_has_no_queueing() {
        let cfg = QueueSimConfig {
            capacity: 10_000,
            jobs_per_burst: 5,
            ..Default::default()
        };
        let outcomes = simulate(&cfg);
        assert!(outcomes.iter().all(|o| o.queue_time() < 1e-9));
        assert_eq!(fraction_at_least(&outcomes, 1.0), 0.0);
    }

    #[test]
    fn lognormal_median_is_about_one() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<f64> = (0..4001).map(|_| lognormal_factor(&mut rng, 0.6)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!((0.85..1.15).contains(&median), "median {median}");
    }

    #[test]
    #[should_panic(expected = "largest job must fit")]
    fn oversized_jobs_rejected() {
        let cfg = QueueSimConfig { capacity: 10, demand: (5, 20), ..Default::default() };
        simulate(&cfg);
    }

    #[test]
    fn admission_queue_serves_classes_in_priority_then_fifo_order() {
        let mut q = AdmissionQueue::bounded(3, 10);
        q.try_push(1, "std-a").unwrap();
        q.try_push(2, "batch-a").unwrap();
        q.try_push(0, "int-a").unwrap();
        q.try_push(1, "std-b").unwrap();
        q.try_push(0, "int-b").unwrap();
        assert_eq!(q.len(), 5);
        assert_eq!(q.class_len(0), 2);
        assert_eq!(q.peek_next(), Some((0, &"int-a")));
        let order: Vec<_> = std::iter::from_fn(|| q.pop_next()).collect();
        assert_eq!(
            order,
            vec![(0, "int-a"), (0, "int-b"), (1, "std-a"), (1, "std-b"), (2, "batch-a")]
        );
        assert!(q.is_empty());
        assert_eq!(q.pop_next(), None);
    }

    #[test]
    fn admission_queue_sheds_at_capacity() {
        let mut q = AdmissionQueue::bounded(2, 2);
        q.try_push(1, 10).unwrap();
        q.try_push(1, 11).unwrap();
        // The bound covers the total backlog, not a single class.
        assert_eq!(q.try_push(0, 12), Err(12));
        assert_eq!(q.len(), 2);
        // Draining one slot re-opens admission.
        assert_eq!(q.pop_next(), Some((1, 10)));
        q.try_push(0, 12).unwrap();
        assert_eq!(q.pop_next(), Some((0, 12)));
    }

    #[test]
    fn percentile_nearest_rank() {
        let sample: Vec<f64> = (1..=100).rev().map(|v| v as f64).collect();
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 99.0), 99.0);
        assert_eq!(percentile(&sample, 100.0), 100.0);
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
