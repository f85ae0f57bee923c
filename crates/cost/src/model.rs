//! Operator cost models: the interface RAQO's planners consume.
//!
//! §VI-C integrates resource planning "when computing the costs of a
//! sub-plan": the query planner asks for the cost of one join operator under
//! one resource configuration, and sums operator costs into plan costs
//! ("we assume disk-based processing and join operators to be at the shuffle
//! boundaries").

use crate::features::{extended_feature_vector, feature_vector, FeatureMap};
use crate::regression::LinearModel;
use raqo_resource::ResourceConfig;
use raqo_sim::engine::{Engine, JoinImpl};
use raqo_sim::profile::{profile, ProfileGrid};

/// Per-operator cost under a resource configuration. `None` means the
/// operator is infeasible there (BHJ whose hash table cannot fit).
pub trait OperatorCost {
    /// Cost of executing one join with the given implementation; `build_gb`
    /// is the smaller input ("ss"), `probe_gb` the larger.
    fn join_cost(
        &self,
        join: JoinImpl,
        build_gb: f64,
        probe_gb: f64,
        containers: f64,
        container_size_gb: f64,
    ) -> Option<f64>;

    /// Cost at a full resource configuration. The default interprets the
    /// first two dimensions as ⟨containers, container size⟩ and ignores any
    /// further ones; models that understand more dimensions (the simulator
    /// oracle reads dimension 2 as CPU cores per container) override this —
    /// the §III "naturally be extended to include other resources, such as
    /// CPU" hook.
    fn join_cost_at(
        &self,
        join: JoinImpl,
        build_gb: f64,
        probe_gb: f64,
        r: &ResourceConfig,
    ) -> Option<f64> {
        self.join_cost(join, build_gb, probe_gb, r.containers(), r.container_size_gb())
    }

    /// Batched form of [`OperatorCost::join_cost_at`], for scans that walk
    /// a resource grid one row at a time: point `k` is `base` with its last
    /// coordinate replaced by `coords[k]`, and `out[k]` receives its cost
    /// (`f64::INFINITY` where infeasible, so the output is totally ordered
    /// and branch-free to scan). No configuration is materialized per point
    /// by the caller. The default loops the scalar path; models that can
    /// hoist the row-invariant terms override it.
    fn join_cost_row_at(
        &self,
        join: JoinImpl,
        build_gb: f64,
        probe_gb: f64,
        base: &ResourceConfig,
        coords: &[f64],
        out: &mut [f64],
    ) {
        row_by_point(self, join, build_gb, probe_gb, base, coords, out);
    }

    /// A lower bound on every cost [`OperatorCost::join_cost_row_at`] writes
    /// for the same slice (`coords` ascending, as along any grid row), so a
    /// grid scan may skip slices that cannot hold its winner. `+∞` means
    /// the whole slice is infeasible. The default, `f64::NEG_INFINITY`,
    /// bounds nothing: every slice gets priced.
    fn join_cost_row_bound(
        &self,
        _join: JoinImpl,
        _build_gb: f64,
        _probe_gb: f64,
        _base: &ResourceConfig,
        _coords: &[f64],
    ) -> f64 {
        f64::NEG_INFINITY
    }

    /// Cheapest feasible implementation for one join, if any implementation
    /// is feasible (SMJ always is, for both provided models).
    fn best_impl(
        &self,
        build_gb: f64,
        probe_gb: f64,
        containers: f64,
        container_size_gb: f64,
    ) -> Option<(JoinImpl, f64)> {
        JoinImpl::ALL
            .iter()
            .filter_map(|&j| {
                self.join_cost(j, build_gb, probe_gb, containers, container_size_gb)
                    .map(|c| (j, c))
            })
            // `total_cmp`: feasible costs are finite by construction, but a
            // misbehaving model must not panic the comparison (NaN loses).
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// The point-wise loop behind [`OperatorCost::join_cost_row_at`].
fn row_by_point<M: OperatorCost + ?Sized>(
    model: &M,
    join: JoinImpl,
    build_gb: f64,
    probe_gb: f64,
    base: &ResourceConfig,
    coords: &[f64],
    out: &mut [f64],
) {
    assert_eq!(coords.len(), out.len(), "one output slot per coordinate");
    for (&x, o) in coords.iter().zip(out.iter_mut()) {
        let r = base.with_last(x);
        *o = model.join_cost_at(join, build_gb, probe_gb, &r).unwrap_or(f64::INFINITY);
    }
}

/// The paper's learned model: one [`LinearModel`] per join implementation
/// over the 7-feature map, plus a BHJ feasibility bound.
///
/// Faithful to §VI-A, the model depends on the *smaller* input size only;
/// the probe side was fixed during profiling (the paper profiled a fixed
/// query, we profile a fixed 77 GB probe side) and its cost is absorbed
/// into the resource terms.
#[derive(Debug, Clone)]
pub struct JoinCostModel {
    pub smj: LinearModel,
    pub bhj: LinearModel,
    /// Feature map both member models expect.
    pub feature_map: FeatureMap,
    /// BHJ feasible while `build_gb <= container_size_gb * capacity_per_gb`.
    pub bhj_capacity_per_gb: f64,
    /// Predictions are clamped from below: a linear extrapolation can dip
    /// negative far outside the profiled region, and planners need
    /// well-ordered positive costs.
    pub floor: f64,
}

impl JoinCostModel {
    /// The paper's published Hive coefficients (§VI-A) with Hive's BHJ
    /// capacity rule.
    pub fn paper_hive() -> Self {
        let engine = Engine::hive();
        JoinCostModel {
            smj: crate::paper::smj_model(),
            bhj: crate::paper::bhj_model(),
            feature_map: FeatureMap::Paper,
            bhj_capacity_per_gb: engine.bhj_capacity_gb(1.0),
            floor: 1.0,
        }
    }

    /// Train SMJ/BHJ models by OLS over simulator profile runs — the same
    /// workflow the paper ran against Hive ("we trained linear regression
    /// models for SMJ and BHJ").
    pub fn train(engine: &Engine, grid: &ProfileGrid, feature_map: FeatureMap) -> Self {
        let runs = profile(engine, grid);
        let mut xs_smj = Vec::new();
        let mut ys_smj = Vec::new();
        let mut xs_bhj = Vec::new();
        let mut ys_bhj = Vec::new();
        for r in runs {
            let Some(t) = r.time_sec else { continue };
            let f = feature_map.build(r.small_gb, r.container_size_gb, r.containers);
            match r.join {
                JoinImpl::SortMerge => {
                    xs_smj.push(f);
                    ys_smj.push(t);
                }
                JoinImpl::BroadcastHash => {
                    xs_bhj.push(f);
                    ys_bhj.push(t);
                }
            }
        }
        // Infallible for the built-in profile grids: `ProfileGrid` yields
        // far more samples than the 7 features and the feature map spans
        // independent axes, so the normal equations are well-conditioned.
        // A caller-supplied degenerate grid (e.g. a single point) is a
        // training-time programming error, not a runtime condition.
        let smj = LinearModel::fit(&xs_smj, &ys_smj).expect("SMJ profile grid is well-conditioned");
        let bhj = LinearModel::fit(&xs_bhj, &ys_bhj).expect("BHJ profile grid is well-conditioned");
        JoinCostModel {
            smj,
            bhj,
            feature_map,
            bhj_capacity_per_gb: engine.bhj_capacity_gb(1.0),
            floor: 1.0,
        }
    }

    /// Train on the paper-default grid with the paper's feature map.
    pub fn trained_hive() -> Self {
        JoinCostModel::train(&Engine::hive(), &ProfileGrid::paper_default(), FeatureMap::Paper)
    }

    /// Train on the paper-default grid with the extended feature map (adds
    /// `1/nc`, `ss/nc`, intercept) for higher-fidelity plan costs.
    pub fn trained_hive_extended() -> Self {
        JoinCostModel::train(&Engine::hive(), &ProfileGrid::paper_default(), FeatureMap::Extended)
    }

    /// A 64-bit FNV-1a fingerprint over everything that determines this
    /// model's predictions: both coefficient vectors (bit patterns), the
    /// feature map, the BHJ capacity, and the cost floor. Two models with
    /// the same fingerprint price every join identically, so persisted
    /// resource-plan caches are stamped with it and invalidated on
    /// mismatch when the model retrains.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bits: u64| {
            for byte in bits.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (tag, model) in [(1u64, &self.smj), (2u64, &self.bhj)] {
            mix(tag);
            mix(model.coefficients.len() as u64);
            for &c in &model.coefficients {
                mix(c.to_bits());
            }
        }
        mix(match self.feature_map {
            FeatureMap::Paper => 0,
            FeatureMap::Extended => 1,
        });
        mix(self.bhj_capacity_per_gb.to_bits());
        mix(self.floor.to_bits());
        h
    }

    /// The coefficient vector and BHJ capacity bound for one join
    /// implementation (SMJ never trips the capacity test, so it carries an
    /// infinite bound).
    fn join_params(&self, join: JoinImpl) -> (&crate::regression::LinearModel, f64) {
        match join {
            JoinImpl::SortMerge => (&self.smj, f64::INFINITY),
            JoinImpl::BroadcastHash => (&self.bhj, self.bhj_capacity_per_gb),
        }
    }

    /// Batched evaluation of the §VI polynomial over a slice of grid points,
    /// filling `out` with one cost per config (`f64::INFINITY` where BHJ is
    /// infeasible).
    ///
    /// Bit-identical to the scalar [`OperatorCost::join_cost`] whichever
    /// path runs: with the `simd` cargo feature on an AVX2 machine, full
    /// 4-lane groups go through the explicit `crate::simd` kernel and the
    /// remainder through the scalar fold; otherwise everything takes
    /// [`JoinCostModel::join_cost_batch_scalar`]. A NaN cost floor also
    /// forces the scalar path — `_mm256_max_pd` and `f64::max` disagree on
    /// which operand survives a NaN in the *second* slot.
    pub fn join_cost_batch(
        &self,
        join: JoinImpl,
        build_gb: f64,
        configs: &[ResourceConfig],
        out: &mut [f64],
    ) {
        assert_eq!(configs.len(), out.len(), "one output slot per config");
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if crate::simd::avx2_available() && !self.floor.is_nan() {
            let (model, cap) = self.join_params(join);
            assert_eq!(
                model.coefficients.len(),
                self.feature_map.arity(),
                "model arity matches feature map"
            );
            let full = configs.len() - configs.len() % crate::simd::LANES;
            // SAFETY: AVX2 presence was verified at runtime just above.
            unsafe {
                crate::simd::join_cost_batch_avx2(
                    &model.coefficients,
                    self.feature_map,
                    build_gb,
                    cap,
                    self.floor,
                    &configs[..full],
                    &mut out[..full],
                );
            }
            self.join_cost_batch_scalar(join, build_gb, &configs[full..], &mut out[full..]);
            return;
        }
        self.join_cost_batch_scalar(join, build_gb, configs, out);
    }

    /// The scalar (autovectorizable) batch path: the `ss`-only terms are
    /// folded into one per-join base constant, then a multiply-add sweep
    /// over `(cs, nc)` fills `out` (`f64::INFINITY` where BHJ is infeasible,
    /// via a select rather than a branch).
    ///
    /// Bit-identical to the scalar [`OperatorCost::join_cost`]: the
    /// accumulation replays `LinearModel::predict`'s left-to-right fold —
    /// same operations, same order, same rounding — and the feasibility test
    /// is the identical `build_gb > cs * capacity` comparison (SMJ uses an
    /// infinite capacity so it never trips).
    pub fn join_cost_batch_scalar(
        &self,
        join: JoinImpl,
        build_gb: f64,
        configs: &[ResourceConfig],
        out: &mut [f64],
    ) {
        assert_eq!(configs.len(), out.len(), "one output slot per config");
        let (model, cap) = self.join_params(join);
        let c = &model.coefficients;
        assert_eq!(c.len(), self.feature_map.arity(), "model arity matches feature map");
        let ss = build_gb;
        // `predict` is a left fold from 0.0 in feature order; features 0–1
        // depend only on `ss`, so their partial sum is a constant per join.
        let base = (0.0 + c[0] * ss) + c[1] * (ss * ss);
        let floor = self.floor;
        match self.feature_map {
            FeatureMap::Paper => {
                for (r, o) in configs.iter().zip(out.iter_mut()) {
                    let nc = r.containers();
                    let cs = r.container_size_gb();
                    let acc = ((((base + c[2] * cs) + c[3] * (cs * cs)) + c[4] * nc)
                        + c[5] * (nc * nc))
                        + c[6] * (cs * nc);
                    let cost = acc.max(floor);
                    *o = if build_gb > cs * cap { f64::INFINITY } else { cost };
                }
            }
            FeatureMap::Extended => {
                for (r, o) in configs.iter().zip(out.iter_mut()) {
                    let nc = r.containers();
                    let cs = r.container_size_gb();
                    let acc = (((((((base + c[2] * cs) + c[3] * (cs * cs)) + c[4] * nc)
                        + c[5] * (nc * nc))
                        + c[6] * (cs * nc))
                        + c[7] * (1.0 / nc))
                        + c[8] * (ss / nc))
                        + c[9] * 1.0;
                    let cost = acc.max(floor);
                    *o = if build_gb > cs * cap { f64::INFINITY } else { cost };
                }
            }
        }
    }
}

impl OperatorCost for JoinCostModel {
    fn join_cost(
        &self,
        join: JoinImpl,
        build_gb: f64,
        _probe_gb: f64,
        containers: f64,
        container_size_gb: f64,
    ) -> Option<f64> {
        if join == JoinImpl::BroadcastHash
            && build_gb > container_size_gb * self.bhj_capacity_per_gb
        {
            return None;
        }
        let (model, _) = self.join_params(join);
        // Features on the stack: this sits on every hill-climb probe.
        let raw = match self.feature_map {
            FeatureMap::Paper => {
                model.predict(&feature_vector(build_gb, container_size_gb, containers))
            }
            FeatureMap::Extended => {
                model.predict(&extended_feature_vector(build_gb, container_size_gb, containers))
            }
        };
        Some(raw.max(self.floor))
    }

    /// The §VI polynomial along one row of the 2-D ⟨containers, size⟩ grid:
    /// `nc` is fixed by `base` and `cs` runs over `coords`, so every product
    /// that involves only `ss` and `nc` (including the extended map's two
    /// divisions) is computed once per row. The sum itself is still
    /// `LinearModel::predict`'s left fold in feature order — same
    /// operations, same order, same rounding — with the same
    /// `build_gb > cs · capacity` select and the same `max(floor)`, hence
    /// bit-identical to [`OperatorCost::join_cost`] by construction. Rows of
    /// any other dimensionality vary a coordinate the model does not read
    /// and take the point-wise loop.
    fn join_cost_row_at(
        &self,
        join: JoinImpl,
        build_gb: f64,
        probe_gb: f64,
        base: &ResourceConfig,
        coords: &[f64],
        out: &mut [f64],
    ) {
        if base.dims() != 2 {
            return row_by_point(self, join, build_gb, probe_gb, base, coords, out);
        }
        assert_eq!(coords.len(), out.len(), "one output slot per coordinate");
        let (model, cap) = self.join_params(join);
        let c = &model.coefficients;
        assert_eq!(c.len(), self.feature_map.arity(), "model arity matches feature map");
        let (ss, nc, floor) = (build_gb, base.containers(), self.floor);
        let ss_part = (0.0 + c[0] * ss) + c[1] * (ss * ss);
        let (t4, t5) = (c[4] * nc, c[5] * (nc * nc));
        let extended = match self.feature_map {
            FeatureMap::Paper => None,
            FeatureMap::Extended => Some((c[7] * (1.0 / nc), c[8] * (ss / nc), c[9] * 1.0)),
        };
        for (&cs, o) in coords.iter().zip(out.iter_mut()) {
            let mut acc =
                ((((ss_part + c[2] * cs) + c[3] * (cs * cs)) + t4) + t5) + c[6] * (cs * nc);
            if let Some((t7, t8, t9)) = extended {
                acc = ((acc + t7) + t8) + t9;
            }
            let cost = acc.max(floor);
            *o = if build_gb > cs * cap { f64::INFINITY } else { cost };
        }
    }

    /// The §VI polynomial along a row is a quadratic in `cs`:
    /// `K + B·cs + A·cs²` with `K` = the `ss` terms + `c4·nc + c5·nc²` (+ the
    /// extended map's `c7/nc + c8·ss/nc + c9`), `B = c2 + c6·nc` and
    /// `A = c3`. Its least value over the slice's feasible part — BHJ needs
    /// `build_gb ≤ cs · capacity`, the kernel's own test, which holds on a
    /// suffix of an ascending row — sits at an endpoint or, when `A > 0`,
    /// at the vertex. That value, less a relative margin far above what
    /// the kernel's roundings can move it, then `max(floor)`, is the bound:
    /// `+∞` for a wholly infeasible slice, `f64::NEG_INFINITY` for a NaN
    /// floor, a non-finite term, or a base that is not 2-D.
    fn join_cost_row_bound(
        &self,
        join: JoinImpl,
        build_gb: f64,
        _probe_gb: f64,
        base: &ResourceConfig,
        coords: &[f64],
    ) -> f64 {
        /// Relative rounding margin: the kernel's ≤ 10 roundings move a
        /// value by ≲ 10 · 2⁻⁵³ of the terms' magnitude, 2⁻⁴⁰ is ≈ 800×
        /// that.
        const MARGIN: f64 = 1.0 / (1u64 << 40) as f64;
        let (model, cap) = self.join_params(join);
        let c = &model.coefficients;
        if base.dims() != 2 || self.floor.is_nan() || c.len() != self.feature_map.arity() {
            return f64::NEG_INFINITY;
        }
        // The feasible part is a suffix of the row only while `cs · cap`
        // grows with `cs`.
        if cap.is_nan() || cap < 0.0 {
            return f64::NEG_INFINITY;
        }
        debug_assert!(coords.windows(2).all(|w| w[0] < w[1]), "row slice ascends");
        let infeasible = |cs: f64| build_gb > cs * cap;
        let (Some(&first), Some(&hi)) = (coords.first(), coords.last()) else {
            return f64::NEG_INFINITY;
        };
        let lo = if !infeasible(first) {
            first
        } else if infeasible(hi) {
            return f64::INFINITY;
        } else {
            coords[coords.partition_point(|&cs| infeasible(cs))]
        };
        let (ss, nc) = (build_gb, base.containers());
        let (t0, t1, t4, t5) = (c[0] * ss, c[1] * (ss * ss), c[4] * nc, c[5] * (nc * nc));
        let (t7, t8, t9) = match self.feature_map {
            FeatureMap::Paper => (0.0, 0.0, 0.0),
            FeatureMap::Extended => (c[7] * (1.0 / nc), c[8] * (ss / nc), c[9]),
        };
        let (k, b, a) = (t0 + t1 + t4 + t5 + t7 + t8 + t9, c[2] + c[6] * nc, c[3]);
        // Largest |cs| on the slice, and what every term adds up to there.
        let m = lo.abs().max(hi.abs());
        let magnitude = [t0, t1, t4, t5, t7, t8, t9].iter().map(|t| t.abs()).sum::<f64>()
            + (c[2].abs() + (c[6] * nc).abs()) * m
            + a.abs() * (m * m);
        let at = |cs: f64| k + b * cs + a * (cs * cs);
        let mut least = at(lo).min(at(hi));
        if a > 0.0 {
            let vertex = -b / (2.0 * a);
            if lo < vertex && vertex < hi {
                least = least.min(at(vertex));
            }
        }
        if !(least.is_finite() && (4.0 * magnitude).is_finite()) {
            return f64::NEG_INFINITY;
        }
        (least - magnitude * MARGIN).max(self.floor)
    }
}

/// Ground-truth cost model: asks the simulator directly. Used to measure
/// how good the learned model's plan choices are, and as the "measured"
/// side of the Fig. 2 experiment.
#[derive(Debug, Clone)]
pub struct SimOracleCost {
    pub engine: Engine,
}

impl SimOracleCost {
    pub fn hive() -> Self {
        SimOracleCost { engine: Engine::hive() }
    }

    pub fn spark() -> Self {
        SimOracleCost { engine: Engine::spark() }
    }
}

impl OperatorCost for SimOracleCost {
    fn join_cost(
        &self,
        join: JoinImpl,
        build_gb: f64,
        probe_gb: f64,
        containers: f64,
        container_size_gb: f64,
    ) -> Option<f64> {
        self.engine
            .join_time(join, build_gb, probe_gb, containers, container_size_gb)
            .ok()
    }

    fn join_cost_at(
        &self,
        join: JoinImpl,
        build_gb: f64,
        probe_gb: f64,
        r: &ResourceConfig,
    ) -> Option<f64> {
        let cores = if r.dims() >= 3 { r.get(2) } else { self.engine.tuning.default_cores };
        self.engine
            .join_time_with_cores(
                join,
                build_gb,
                probe_gb,
                r.containers(),
                r.container_size_gb(),
                cores,
            )
            .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regression::tests::r_squared;

    /// Training R² on the full profile grid, per join implementation.
    fn training_r2(model: &JoinCostModel, engine: &Engine, grid: &ProfileGrid) -> (f64, f64) {
        let mut data: std::collections::HashMap<JoinImpl, (Vec<Vec<f64>>, Vec<f64>)> =
            Default::default();
        for r in profile(engine, grid) {
            if let Some(t) = r.time_sec {
                let entry = data.entry(r.join).or_default();
                entry.0.push(model.feature_map.build(r.small_gb, r.container_size_gb, r.containers));
                entry.1.push(t);
            }
        }
        let (xs, ys) = &data[&JoinImpl::SortMerge];
        let smj = r_squared(&model.smj, xs, ys);
        let (xs, ys) = &data[&JoinImpl::BroadcastHash];
        let bhj = r_squared(&model.bhj, xs, ys);
        (smj, bhj)
    }

    #[test]
    fn paper_feature_map_fit_is_limited_but_positive() {
        // The paper's polynomial feature map cannot represent the 1/nc
        // shape of parallel scan costs — a real limitation of the §VI-A
        // model (the paper itself defers "tuning the cost model" to future
        // work). It must still beat predicting the mean.
        let engine = Engine::hive();
        let grid = ProfileGrid::paper_default();
        let model = JoinCostModel::train(&engine, &grid, FeatureMap::Paper);
        let (smj, bhj) = training_r2(&model, &engine, &grid);
        assert!(smj > 0.25, "paper-map SMJ R^2 = {smj:.3}");
        assert!(bhj > 0.5, "paper-map BHJ R^2 = {bhj:.3}");
    }

    #[test]
    fn extended_feature_map_fits_simulator_well() {
        let engine = Engine::hive();
        let grid = ProfileGrid::paper_default();
        let model = JoinCostModel::train(&engine, &grid, FeatureMap::Extended);
        let (smj, bhj) = training_r2(&model, &engine, &grid);
        assert!(smj > 0.9, "extended SMJ R^2 = {smj:.3}");
        assert!(bhj > 0.8, "extended BHJ R^2 = {bhj:.3}");
    }

    #[test]
    fn trained_model_reproduces_engine_oom_boundary() {
        let model = JoinCostModel::trained_hive();
        let engine = Engine::hive();
        for cs in [2.0, 4.0, 8.0] {
            let cap = engine.bhj_capacity_gb(cs);
            assert!(model.join_cost(JoinImpl::BroadcastHash, cap - 0.01, 77.0, 10.0, cs).is_some());
            assert!(model.join_cost(JoinImpl::BroadcastHash, cap + 0.01, 77.0, 10.0, cs).is_none());
        }
    }

    #[test]
    fn trained_model_prefers_smj_under_high_parallelism() {
        // The defining resource-awareness property (Fig. 3(b)): at 3 GB
        // containers and 3.4 GB build side, BHJ wins at 10 containers and
        // SMJ wins at 40.
        let model = JoinCostModel::trained_hive();
        let (best10, _) = model.best_impl(3.4, 77.0, 10.0, 3.0).unwrap();
        let (best40, _) = model.best_impl(3.4, 77.0, 40.0, 3.0).unwrap();
        assert_eq!(best10, JoinImpl::BroadcastHash);
        assert_eq!(best40, JoinImpl::SortMerge);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminates() {
        // Deterministic training => identical fingerprints across builds.
        assert_eq!(
            JoinCostModel::trained_hive().fingerprint(),
            JoinCostModel::trained_hive().fingerprint()
        );
        // Different coefficients, feature maps, or knobs => different prints.
        let base = JoinCostModel::trained_hive();
        assert_ne!(base.fingerprint(), JoinCostModel::paper_hive().fingerprint());
        assert_ne!(base.fingerprint(), JoinCostModel::trained_hive_extended().fingerprint());
        let mut floored = base.clone();
        floored.floor = 2.0;
        assert_ne!(base.fingerprint(), floored.fingerprint());
        let mut cap = base.clone();
        cap.bhj_capacity_per_gb *= 2.0;
        assert_ne!(base.fingerprint(), cap.fingerprint());
    }

    #[test]
    fn paper_model_enforces_feasibility_and_floor() {
        let model = JoinCostModel::paper_hive();
        // Far outside the profiled region the raw linear value may be
        // negative; the floor keeps it usable.
        let c = model.join_cost(JoinImpl::BroadcastHash, 0.4, 77.0, 10.0, 3.0);
        if let Some(c) = c {
            assert!(c >= model.floor);
        }
        // Infeasible: big build side, small container.
        assert!(model.join_cost(JoinImpl::BroadcastHash, 9.0, 77.0, 10.0, 2.0).is_none());
        // SMJ always feasible.
        assert!(model.join_cost(JoinImpl::SortMerge, 9.0, 77.0, 10.0, 2.0).is_some());
    }

    #[test]
    fn oracle_matches_simulator_exactly() {
        let oracle = SimOracleCost::hive();
        let engine = Engine::hive();
        let a = oracle.join_cost(JoinImpl::SortMerge, 2.0, 40.0, 10.0, 4.0).unwrap();
        let b = engine.join_time(JoinImpl::SortMerge, 2.0, 40.0, 10.0, 4.0).unwrap();
        assert_eq!(a, b);
        assert!(oracle.join_cost(JoinImpl::BroadcastHash, 50.0, 60.0, 10.0, 2.0).is_none());
    }

    #[test]
    fn batched_kernel_matches_scalar_bitwise() {
        use raqo_resource::ClusterConditions;
        // Both feature maps, both joins, build sizes straddling the BHJ
        // feasibility boundary: every grid point must agree bit-for-bit
        // with the scalar path (infeasible -> INFINITY).
        let cluster = ClusterConditions::paper_default();
        let configs: Vec<_> = cluster.grid().collect();
        for model in [JoinCostModel::trained_hive(), JoinCostModel::trained_hive_extended()] {
            for join in raqo_sim::engine::JoinImpl::ALL {
                for build_gb in [0.4, 3.4, 9.0, 40.0] {
                    let mut batch = vec![0.0; configs.len()];
                    model.join_cost_batch(join, build_gb, &configs, &mut batch);
                    for (r, b) in configs.iter().zip(&batch) {
                        let scalar = model
                            .join_cost_at(join, build_gb, 77.0, r)
                            .unwrap_or(f64::INFINITY);
                        assert_eq!(
                            scalar.to_bits(),
                            b.to_bits(),
                            "{join:?} ss={build_gb} at {r:?}: scalar={scalar} batch={b}"
                        );
                        // The scalar path reads its features off the stack;
                        // the heap-built vector through `predict` is the
                        // definition it must keep matching.
                        let (cs, nc) = (r.container_size_gb(), r.containers());
                        let features = model.feature_map.build(build_gb, cs, nc);
                        let (member, cap) = model.join_params(join);
                        let defined = if join == JoinImpl::BroadcastHash && build_gb > cs * cap {
                            f64::INFINITY
                        } else {
                            member.predict(&features).max(model.floor)
                        };
                        assert_eq!(scalar.to_bits(), defined.to_bits(), "{join:?} at {r:?}");
                    }
                }
            }
        }
    }

    /// Bitwise comparison of the dispatching batch entry point against the
    /// scalar fold over an explicit config slice. With the `simd` feature on
    /// AVX2 hardware this pits the intrinsics kernel against the scalar
    /// loop; otherwise both sides run the same code and the check is a
    /// tautology — the property still gates the SIMD build via
    /// `cargo test --features simd` and the repro smoke gate.
    fn assert_batch_matches_scalar(model: &JoinCostModel, build_gb: f64, configs: &[ResourceConfig]) {
        for join in JoinImpl::ALL {
            let mut dispatched = vec![0.0; configs.len()];
            let mut scalar = vec![0.0; configs.len()];
            model.join_cost_batch(join, build_gb, configs, &mut dispatched);
            model.join_cost_batch_scalar(join, build_gb, configs, &mut scalar);
            for (i, (d, s)) in dispatched.iter().zip(&scalar).enumerate() {
                assert_eq!(
                    d.to_bits(),
                    s.to_bits(),
                    "{join:?} ss={build_gb} config[{i}]={:?}: dispatched={d} scalar={s}",
                    configs[i]
                );
            }
        }
    }

    /// Bitwise comparison of the row kernel against `join_cost_at`, point by
    /// point, along every row of `cluster` (rows run over the last axis).
    fn assert_rows_match_point_wise(
        model: &impl OperatorCost,
        build_gb: f64,
        cluster: &raqo_resource::ClusterConditions,
    ) {
        let inner = cluster.dims() - 1;
        let coords: Vec<f64> = cluster.axis(inner).collect();
        let mut out = vec![0.0; coords.len()];
        for join in JoinImpl::ALL {
            for base in cluster.grid().step_by(coords.len()) {
                model.join_cost_row_at(join, build_gb, 77.0, &base, &coords, &mut out);
                for (&x, o) in coords.iter().zip(&out) {
                    let r = base.with_last(x);
                    let scalar =
                        model.join_cost_at(join, build_gb, 77.0, &r).unwrap_or(f64::INFINITY);
                    assert_eq!(
                        scalar.to_bits(),
                        o.to_bits(),
                        "{join:?} ss={build_gb} at {r:?}: scalar={scalar} row={o}"
                    );
                }
            }
        }
    }

    /// The paper grid (rows of ten whole GB) and a serverless-style one
    /// (1/128 GB steps, rows of a thousand).
    fn row_grids() -> [raqo_resource::ClusterConditions; 2] {
        use raqo_resource::ClusterConditions;
        [
            ClusterConditions::paper_default(),
            ClusterConditions::two_dim(1.0..=10.0, 1.0..=8.8046875, 1.0, 0.0078125),
        ]
    }

    #[test]
    fn row_kernel_matches_scalar_bitwise() {
        use raqo_resource::ClusterConditions;
        // Both feature maps, both joins, build sizes on either side of and
        // across the BHJ capacity edge (which then falls mid-row).
        for model in [
            JoinCostModel::paper_hive(),
            JoinCostModel::trained_hive(),
            JoinCostModel::trained_hive_extended(),
        ] {
            for build_gb in [0.0, 0.4, 3.4, 9.0, 40.0] {
                for cluster in row_grids() {
                    assert_rows_match_point_wise(&model, build_gb, &cluster);
                }
            }
            // A third dimension the model does not read: rows run over it.
            let three_d = ClusterConditions::new(
                ResourceConfig::from_slice(&[1.0, 1.0, 1.0]),
                ResourceConfig::from_slice(&[6.0, 4.0, 8.0]),
                ResourceConfig::from_slice(&[1.0, 1.0, 1.0]),
            );
            assert_rows_match_point_wise(&model, 3.4, &three_d);
        }
        // The trait's default row loop, on a model that does read dimension 2.
        let oracle = SimOracleCost::hive();
        assert_rows_match_point_wise(&oracle, 5.0, &ClusterConditions::paper_default());
    }

    #[test]
    fn simd_dispatch_matches_scalar_on_remainder_lanes() {
        use raqo_resource::ClusterConditions;
        // Slice lengths 0..=9 cover every lane remainder (len % 4) twice,
        // including the all-remainder lengths 1–3 that never enter the
        // vector loop at all.
        let grid: Vec<_> = ClusterConditions::paper_default().grid().collect();
        for model in [JoinCostModel::trained_hive(), JoinCostModel::trained_hive_extended()] {
            for len in 0..=9 {
                for build_gb in [0.4, 3.4, 9.0] {
                    assert_batch_matches_scalar(&model, build_gb, &grid[100..100 + len]);
                }
            }
        }
    }

    #[test]
    fn simd_dispatch_matches_scalar_on_floor_and_capacity_edges() {
        use raqo_resource::ClusterConditions;
        let grid: Vec<_> = ClusterConditions::paper_default().grid().collect();
        // A floor high enough to clamp most of the surface, and one low
        // enough to never engage; capacity pushed to the extremes so the
        // BHJ select is all-feasible, all-infeasible, and mixed.
        for mut model in [JoinCostModel::trained_hive(), JoinCostModel::trained_hive_extended()] {
            for floor in [0.0, 1.0, 1e6, -5.0] {
                model.floor = floor;
                for cap in [model.bhj_capacity_per_gb, 0.0, f64::INFINITY, 1e-12] {
                    model.bhj_capacity_per_gb = cap;
                    for build_gb in [0.0, 0.4, 9.0, 1e9] {
                        assert_batch_matches_scalar(&model, build_gb, &grid);
                        assert_rows_match_point_wise(&model, build_gb, &row_grids()[0]);
                    }
                }
            }
        }
    }

    #[test]
    fn simd_dispatch_matches_scalar_with_non_finite_coefficients() {
        use raqo_resource::ClusterConditions;
        let grid: Vec<_> = ClusterConditions::paper_default().grid().collect();
        for base in [JoinCostModel::trained_hive(), JoinCostModel::trained_hive_extended()] {
            let arity = base.feature_map.arity();
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for slot in 0..arity {
                    let mut model = base.clone();
                    model.smj.coefficients[slot] = bad;
                    model.bhj.coefficients[arity - 1 - slot] = bad;
                    assert_batch_matches_scalar(&model, 3.4, &grid[..101]);
                    assert_rows_match_point_wise(&model, 3.4, &row_grids()[0]);
                }
            }
            // A NaN floor forces the scalar path; the dispatcher must still
            // agree with itself.
            let mut model = base.clone();
            model.floor = f64::NAN;
            assert_batch_matches_scalar(&model, 3.4, &grid[..101]);
            for cluster in row_grids() {
                assert_rows_match_point_wise(&model, 3.4, &cluster);
            }
        }
    }

    #[test]
    fn simd_active_consistent_with_build() {
        let active = crate::simd_active();
        if cfg!(not(all(feature = "simd", target_arch = "x86_64"))) {
            assert!(!active, "simd_active() must be false without the simd feature");
        }
        if active {
            // When the kernel is live, the bitwise parity above actually
            // exercised it; sanity-check one vectorizable batch here too.
            let model = JoinCostModel::trained_hive();
            let configs: Vec<_> = (1..=8)
                .map(|i| ResourceConfig::containers_and_size(i as f64 * 10.0, 4.0))
                .collect();
            assert_batch_matches_scalar(&model, 2.0, &configs);
        }
    }

    proptest::proptest! {
        /// SIMD==scalar bitwise parity over random coefficients (finite and
        /// non-finite), floors, capacities, build sizes, and config slices
        /// whose lengths sweep the lane remainder. Both feature maps.
        #[test]
        fn batch_dispatch_bitwise_parity(
            coeffs in proptest::collection::vec(-1e3f64..1e3, 20),
            poison_slot in 0usize..20,
            poison_kind in 0usize..4,
            floor in -10.0f64..10.0,
            cap_kind in 0usize..3,
            build_gb in 0.0f64..50.0,
            n_configs in 0usize..19,
            seed in 0u64..1000,
        ) {
            let poison = match poison_kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => coeffs[poison_slot] * 1e9,
            };
            let cap = match cap_kind {
                0 => f64::INFINITY,
                1 => 0.0,
                _ => build_gb / 5.0,
            };
            // Deterministic pseudo-random grid points off the proptest seed.
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let configs: Vec<_> = (0..n_configs)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let nc = ((state >> 33) % 100 + 1) as f64;
                    let cs = ((state >> 13) % 10 + 1) as f64;
                    ResourceConfig::containers_and_size(nc, cs)
                })
                .collect();
            for map in [FeatureMap::Paper, FeatureMap::Extended] {
                let arity = map.arity();
                let mut model = JoinCostModel::paper_hive();
                model.feature_map = map;
                model.smj.coefficients = coeffs[..arity].to_vec();
                model.bhj.coefficients = coeffs[20 - arity..].to_vec();
                let slot = poison_slot % arity;
                model.smj.coefficients[slot] = poison;
                model.bhj.coefficients[arity - 1 - slot] = poison;
                model.floor = floor;
                model.bhj_capacity_per_gb = cap;
                assert_batch_matches_scalar(&model, build_gb, &configs);
            }
        }
    }

    #[test]
    fn default_row_impl_matches_scalar_for_oracle() {
        use raqo_resource::ClusterConditions;
        let oracle = SimOracleCost::hive();
        let cluster = ClusterConditions::two_dim(1.0..=20.0, 1.0..=6.0, 1.0, 1.0);
        let configs: Vec<_> = cluster.grid().collect();
        let mut batch = vec![0.0; configs.len()];
        let sizes: Vec<f64> = cluster.axis(1).collect();
        for (row, out) in configs.chunks(sizes.len()).zip(batch.chunks_mut(sizes.len())) {
            oracle.join_cost_row_at(JoinImpl::BroadcastHash, 5.0, 77.0, &row[0], &sizes, out);
        }
        for (r, b) in configs.iter().zip(&batch) {
            let scalar = oracle
                .join_cost_at(JoinImpl::BroadcastHash, 5.0, 77.0, r)
                .unwrap_or(f64::INFINITY);
            assert_eq!(scalar.to_bits(), b.to_bits());
        }
        assert!(batch.iter().any(|c| c.is_finite()));
        assert!(batch.iter().any(|c| c.is_infinite()));
    }

    #[test]
    fn best_impl_picks_cheaper_feasible() {
        let oracle = SimOracleCost::hive();
        let (j, c) = oracle.best_impl(0.05, 77.0, 10.0, 4.0).unwrap();
        assert_eq!(j, JoinImpl::BroadcastHash);
        assert!(c > 0.0);
        let (j, _) = oracle.best_impl(10.0, 77.0, 10.0, 2.0).unwrap();
        assert_eq!(j, JoinImpl::SortMerge);
    }
}
