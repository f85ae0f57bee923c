//! The resource-configuration vector.

use serde::{Deserialize, Serialize};

/// Maximum number of resource dimensions supported without allocation.
/// The paper's space is two-dimensional (number of containers × container
/// size); four leaves room for CPU cores and tasks-per-vertex.
pub const MAX_DIMS: usize = 4;

/// A point in the (discrete) resource space.
///
/// Stored inline as a fixed array + length so planners can copy it freely on
/// their hot path — resource planning evaluates the cost model hundreds of
/// thousands of times per query (Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceConfig {
    vals: [f64; MAX_DIMS],
    len: u8,
}

impl ResourceConfig {
    /// Build from a slice of dimension values (at most [`MAX_DIMS`]).
    pub fn from_slice(vals: &[f64]) -> Self {
        assert!(
            !vals.is_empty() && vals.len() <= MAX_DIMS,
            "resource config must have 1..={MAX_DIMS} dimensions"
        );
        let mut a = [0.0; MAX_DIMS];
        a[..vals.len()].copy_from_slice(vals);
        ResourceConfig { vals: a, len: vals.len() as u8 }
    }

    /// The paper's two-dimensional configuration:
    /// ⟨number of containers, container size in GB⟩.
    pub fn containers_and_size(containers: f64, container_size_gb: f64) -> Self {
        ResourceConfig::from_slice(&[containers, container_size_gb])
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.len as usize
    }

    /// Value of dimension `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        debug_assert!(i < self.dims());
        self.vals[i]
    }

    /// Set dimension `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: f64) {
        debug_assert!(i < self.dims());
        self.vals[i] = v;
    }

    /// Add `delta` to dimension `i` (Algorithm 1's step/backtrack).
    #[inline]
    pub fn nudge(&mut self, i: usize, delta: f64) {
        debug_assert!(i < self.dims());
        self.vals[i] += delta;
    }

    /// This point moved along its last dimension to `v` — how a grid scan
    /// names the points of one row.
    #[inline]
    pub fn with_last(mut self, v: f64) -> Self {
        self.vals[self.dims() - 1] = v;
        self
    }

    /// The dimension values as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.vals[..self.dims()]
    }

    // Convention accessors for the 2-D space used throughout the paper.

    /// Number of containers (dimension 0).
    #[inline]
    pub fn containers(&self) -> f64 {
        self.get(0)
    }

    /// Container size in GB (dimension 1).
    #[inline]
    pub fn container_size_gb(&self) -> f64 {
        self.get(1)
    }

    /// Total memory of the configuration in GB (containers × size). This is
    /// the quantity the monetary cost model charges for.
    #[inline]
    pub fn total_memory_gb(&self) -> f64 {
        self.containers() * self.container_size_gb()
    }

    /// Euclidean distance to another configuration (used by cache tests and
    /// diagnostics; both must have the same dimensionality).
    pub fn distance(&self, other: &ResourceConfig) -> f64 {
        assert_eq!(self.dims(), other.dims());
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

impl std::fmt::Display for ResourceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.dims() == 2 {
            write!(f, "<{} containers x {} GB>", self.get(0), self.get(1))
        } else {
            write!(f, "{:?}", self.as_slice())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_dim_convention() {
        let r = ResourceConfig::containers_and_size(10.0, 3.0);
        assert_eq!(r.dims(), 2);
        assert_eq!(r.containers(), 10.0);
        assert_eq!(r.container_size_gb(), 3.0);
        assert_eq!(r.total_memory_gb(), 30.0);
    }

    #[test]
    fn nudge_and_backtrack_round_trip() {
        let mut r = ResourceConfig::containers_and_size(10.0, 3.0);
        r.nudge(0, 5.0);
        assert_eq!(r.containers(), 15.0);
        r.nudge(0, -5.0);
        assert_eq!(r, ResourceConfig::containers_and_size(10.0, 3.0));
    }

    #[test]
    fn from_slice_supports_up_to_max_dims() {
        let r = ResourceConfig::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.dims(), 4);
        assert_eq!(r.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn too_many_dims_rejected() {
        ResourceConfig::from_slice(&[1.0; 5]);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn empty_rejected() {
        ResourceConfig::from_slice(&[]);
    }

    #[test]
    fn distance_is_euclidean() {
        let a = ResourceConfig::containers_and_size(0.0, 0.0);
        let b = ResourceConfig::containers_and_size(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
    }

    #[test]
    fn display_two_dims() {
        let r = ResourceConfig::containers_and_size(100.0, 10.0);
        assert_eq!(format!("{r}"), "<100 containers x 10 GB>");
    }
}
