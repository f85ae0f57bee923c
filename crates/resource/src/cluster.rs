//! Cluster conditions: the dynamically changing min/max/step bounds of the
//! resource space.
//!
//! §VI-B: Algorithm 1 takes "the current cluster conditions (mainly providing
//! the minimum and maximum cluster resources available currently)" and
//! "gathers the hill climb step sizes along all resource dimensions"
//! (`GetDiscreteSteps`). §VII Setup instantiates this as: "a cluster of 100
//! containers each having a maximum size of 10GB. Minimum allocation is 1
//! container of size 1GB and resources could be increased in discrete
//! intervals of 1 on either axis."

use crate::config::ResourceConfig;
use serde::{Deserialize, Serialize};

/// Bounds and granularity of the resource space, per dimension.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConditions {
    pub min: ResourceConfig,
    pub max: ResourceConfig,
    step: ResourceConfig,
}

impl ClusterConditions {
    /// Build conditions from per-dimension min/max/step vectors.
    pub fn new(min: ResourceConfig, max: ResourceConfig, step: ResourceConfig) -> Self {
        assert_eq!(min.dims(), max.dims(), "min/max dimensionality mismatch");
        assert_eq!(min.dims(), step.dims(), "min/step dimensionality mismatch");
        for i in 0..min.dims() {
            assert!(
                min.get(i) <= max.get(i),
                "dimension {i}: min {} > max {}",
                min.get(i),
                max.get(i)
            );
            assert!(step.get(i) > 0.0, "dimension {i}: step must be positive");
        }
        ClusterConditions { min, max, step }
    }

    /// The paper's default evaluation cluster (§VII Setup): 1–100 containers,
    /// 1–10 GB each, unit steps on both axes.
    pub fn paper_default() -> Self {
        ClusterConditions::two_dim(1.0..=100.0, 1.0..=10.0, 1.0, 1.0)
    }

    /// Convenience constructor for the 2-D ⟨containers, size⟩ space.
    pub fn two_dim(
        containers: std::ops::RangeInclusive<f64>,
        size_gb: std::ops::RangeInclusive<f64>,
        container_step: f64,
        size_step: f64,
    ) -> Self {
        ClusterConditions::new(
            ResourceConfig::containers_and_size(*containers.start(), *size_gb.start()),
            ResourceConfig::containers_and_size(*containers.end(), *size_gb.end()),
            ResourceConfig::containers_and_size(container_step, size_step),
        )
    }

    /// `GetDiscreteSteps` of Algorithm 1.
    #[inline]
    pub fn discrete_steps(&self) -> ResourceConfig {
        self.step
    }

    /// Number of resource dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.min.dims()
    }

    /// Does `v` lie within the bounds along dimension `i`? `max` carries a
    /// rounding allowance, because coordinates are reached by adding steps:
    /// `0.1 + 0.1 + 0.1` is a grid point of `0.1..=0.3`. Every view of the
    /// grid, and every bounds check on it, uses this rule.
    pub(crate) fn admits(&self, i: usize, v: f64) -> bool {
        v >= self.min.get(i) && v <= self.max.get(i) + 1e-9
    }

    /// The grid coordinate after `v` along dimension `i`, if there is one:
    /// `v + step`, while [`ClusterConditions::admits`] it.
    fn step_from(&self, i: usize, v: f64) -> Option<f64> {
        let next = v + self.step.get(i);
        self.admits(i, next).then_some(next)
    }

    /// The grid's coordinates along dimension `i`, in order: `min`, then one
    /// `step` added at a time. Accumulating (rather than multiplying) keeps
    /// every enumeration bit-identical for steps that are not exactly
    /// representable, such as 0.1.
    pub fn axis(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        std::iter::successors(Some(self.min.get(i)), move |&v| self.step_from(i, v))
    }

    /// Number of grid points along dimension `i`.
    pub fn points_along(&self, i: usize) -> u64 {
        self.axis(i).count() as u64
    }

    /// Total number of grid points in the space (the brute-force search
    /// size; `rp · rc` in the paper's search-space formula §VI-B).
    pub fn grid_size(&self) -> u64 {
        (0..self.dims()).map(|i| self.points_along(i)).product()
    }

    /// Is `r` inside the bounds on every dimension, by the rule that
    /// generates the grid (up to `max` plus a rounding allowance)? Every
    /// grid point is. (Algorithm 1 lines 11–12 check each step the same
    /// way.)
    pub fn contains(&self, r: &ResourceConfig) -> bool {
        (0..self.dims()).all(|i| self.admits(i, r.get(i)))
    }

    /// Clamp `r` into bounds (used when cached configurations from a larger
    /// cluster are replayed under shrunken conditions).
    pub fn clamp(&self, r: &ResourceConfig) -> ResourceConfig {
        let mut out = *r;
        for i in 0..self.dims() {
            out.set(i, r.get(i).clamp(self.min.get(i), self.max.get(i)));
        }
        out
    }

    /// Iterate every grid point (row-major over dimensions): the order the
    /// brute-force row scan indexes, and what tests cross-check it against.
    pub fn grid(&self) -> GridIter {
        GridIter { cond: *self, current: Some(self.min) }
    }


    /// Stable 64-bit fingerprint of the exact bounds and steps (FNV-1a over
    /// the bit patterns of every min/max/step coordinate). Two conditions
    /// fingerprint equal iff their grids are identical, so memo entries
    /// keyed on it are never replayed under a different resource space.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.dims() as u64);
        for i in 0..self.dims() {
            mix(self.min.get(i).to_bits());
            mix(self.max.get(i).to_bits());
            mix(self.step.get(i).to_bits());
        }
        h
    }
}

/// Iterator over all grid points of a [`ClusterConditions`] space.
pub struct GridIter {
    cond: ClusterConditions,
    current: Option<ResourceConfig>,
}

impl Iterator for GridIter {
    type Item = ResourceConfig;

    fn next(&mut self) -> Option<ResourceConfig> {
        let out = self.current?;
        // Advance like an odometer, least-significant dimension last.
        let mut next = out;
        let dims = self.cond.dims();
        let mut i = dims;
        loop {
            if i == 0 {
                self.current = None;
                break;
            }
            i -= 1;
            if let Some(stepped) = self.cond.step_from(i, next.get(i)) {
                next.set(i, stepped);
                self.current = Some(next);
                break;
            }
            next.set(i, self.cond.min.get(i));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_grid_is_100_by_10() {
        let c = ClusterConditions::paper_default();
        assert_eq!(c.points_along(0), 100);
        assert_eq!(c.points_along(1), 10);
        assert_eq!(c.grid_size(), 1000);
    }

    #[test]
    fn contains_checks_all_dims() {
        let c = ClusterConditions::paper_default();
        assert!(c.contains(&ResourceConfig::containers_and_size(1.0, 1.0)));
        assert!(c.contains(&ResourceConfig::containers_and_size(100.0, 10.0)));
        assert!(!c.contains(&ResourceConfig::containers_and_size(101.0, 10.0)));
        assert!(!c.contains(&ResourceConfig::containers_and_size(100.0, 10.5)));
        assert!(!c.contains(&ResourceConfig::containers_and_size(0.0, 5.0)));
    }

    #[test]
    fn grid_points_past_an_inexact_max_are_contained() {
        let c = ClusterConditions::two_dim(1.0..=4.0, 0.1..=0.3, 1.0, 0.1);
        let last = c.axis(1).last().unwrap();
        assert_eq!(last, 0.1 + 0.1 + 0.1);
        assert!(last > 0.3);
        assert!(c.contains(&ResourceConfig::containers_and_size(4.0, last)));
        assert!(!c.contains(&ResourceConfig::containers_and_size(4.0, 0.3 + 1e-6)));
    }

    proptest::proptest! {
        /// Every point `grid()` yields satisfies `contains`, on grids whose
        /// 0.1 steps accumulate rounding.
        #[test]
        fn every_grid_point_is_contained(
            min in proptest::collection::vec(0usize..30, 3),
            len in proptest::collection::vec(0usize..25, 3),
            dims in 1usize..=3,
        ) {
            let lo: Vec<f64> = min[..dims].iter().map(|&m| m as f64 / 10.0).collect();
            let hi: Vec<f64> =
                lo.iter().zip(&len).map(|(&l, &n)| l + n as f64 / 10.0).collect();
            let c = ClusterConditions::new(
                ResourceConfig::from_slice(&lo),
                ResourceConfig::from_slice(&hi),
                ResourceConfig::from_slice(&vec![0.1; dims]),
            );
            for p in c.grid() {
                proptest::prop_assert!(c.contains(&p), "{:?} outside {:?}", p, c);
            }
        }
    }

    #[test]
    fn clamp_pulls_into_bounds() {
        let c = ClusterConditions::paper_default();
        let r = c.clamp(&ResourceConfig::containers_and_size(500.0, 0.5));
        assert_eq!(r, ResourceConfig::containers_and_size(100.0, 1.0));
    }

    #[test]
    fn grid_enumerates_every_point_once() {
        let c = ClusterConditions::two_dim(1.0..=3.0, 1.0..=2.0, 1.0, 1.0);
        let pts: Vec<_> = c.grid().collect();
        assert_eq!(pts.len() as u64, c.grid_size());
        assert_eq!(pts.len(), 6);
        // All unique.
        for (i, a) in pts.iter().enumerate() {
            for b in &pts[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Bounds respected.
        assert!(pts.iter().all(|p| c.contains(p)));
    }

    #[test]
    fn grid_handles_non_unit_steps() {
        let c = ClusterConditions::two_dim(10.0..=50.0, 2.0..=8.0, 10.0, 2.0);
        assert_eq!(c.points_along(0), 5);
        assert_eq!(c.points_along(1), 4);
        let pts: Vec<_> = c.grid().collect();
        assert_eq!(pts.len(), 20);
    }

    #[test]
    fn every_view_of_the_grid_agrees_on_non_representable_steps() {
        // 0.1 is not a binary fraction: `floor((max − min) / step) + 1`
        // undercounts both of these rows by one against the accumulated walk.
        for (c, points) in [
            (ClusterConditions::two_dim(1.0..=3.0, 1.0..=1.7, 1.0, 0.1), 3 * 8),
            (ClusterConditions::two_dim(1.0..=1.0, 0.0..=0.3, 1.0, 0.1), 4),
        ] {
            let pts: Vec<_> = c.grid().collect();
            assert_eq!(pts.len() as u64, points);
            assert_eq!(c.grid_size(), points);
            assert_eq!(c.points_along(1), c.axis(1).count() as u64);
        }
    }

    #[test]
    fn single_point_grid() {
        let c = ClusterConditions::two_dim(5.0..=5.0, 3.0..=3.0, 1.0, 1.0);
        let pts: Vec<_> = c.grid().collect();
        assert_eq!(pts, vec![ResourceConfig::containers_and_size(5.0, 3.0)]);
    }

    #[test]
    #[should_panic(expected = "min")]
    fn inverted_bounds_rejected() {
        ClusterConditions::two_dim(10.0..=1.0, 1.0..=10.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "step")]
    fn zero_step_rejected() {
        ClusterConditions::two_dim(1.0..=10.0, 1.0..=10.0, 0.0, 1.0);
    }

    #[test]
    fn fig15b_scaled_cluster_sizes() {
        // Fig. 15(b): up to 100K containers and 100 GB container sizes.
        let c = ClusterConditions::two_dim(1.0..=100_000.0, 1.0..=100.0, 1.0, 1.0);
        assert_eq!(c.grid_size(), 10_000_000);
    }
}
