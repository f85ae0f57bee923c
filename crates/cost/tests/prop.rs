//! Property tests for the regression and cost-model layer.

use proptest::prelude::*;
use raqo_cost::features::{extended_feature_vector, feature_vector, FeatureMap};
use raqo_cost::{JoinCostModel, LinearModel, OperatorCost, SimOracleCost};
use raqo_resource::ResourceConfig;
use raqo_sim::engine::JoinImpl;

/// A model over `coefficients` (both joins), as the bound tests vary it.
fn model_of(coefficients: &[f64], extended: bool, cap: f64, floor: f64) -> JoinCostModel {
    let feature_map = if extended { FeatureMap::Extended } else { FeatureMap::Paper };
    let c = LinearModel::from_coefficients(coefficients[..feature_map.arity()].to_vec());
    JoinCostModel { smj: c.clone(), bhj: c, feature_map, bhj_capacity_per_gb: cap, floor }
}

/// `n` coordinates from `start`, one `step` added at a time, as a grid row.
fn row(start: f64, step: f64, n: usize) -> Vec<f64> {
    std::iter::successors(Some(start), |&x| Some(x + step)).take(n).collect()
}

proptest! {
    /// OLS residuals are orthogonal to every feature column (the normal
    /// equations' defining property), on arbitrary noisy data.
    #[test]
    fn residuals_orthogonal_to_features(
        rows in proptest::collection::vec(
            (0.1f64..10.0, 1.0f64..10.0, 1.0f64..50.0, -5.0f64..5.0),
            20..120,
        ),
    ) {
        let xs: Vec<Vec<f64>> =
            rows.iter().map(|&(ss, cs, nc, _)| feature_vector(ss, cs, nc).to_vec()).collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|&(ss, cs, nc, noise)| 3.0 * ss + 0.5 * cs * nc + noise)
            .collect();
        if let Ok(model) = LinearModel::fit(&xs, &ys) {
            let residuals: Vec<f64> =
                xs.iter().zip(&ys).map(|(x, y)| y - model.predict(x)).collect();
            // Scale-invariant check: |Xᵀr| relative to |Xᵀ||r|.
            for j in 0..7 {
                let dot: f64 = xs.iter().zip(&residuals).map(|(x, r)| x[j] * r).sum();
                let xnorm: f64 = xs.iter().map(|x| x[j] * x[j]).sum::<f64>().sqrt();
                let rnorm: f64 = residuals.iter().map(|r| r * r).sum::<f64>().sqrt();
                let denom = (xnorm * rnorm).max(1e-12);
                prop_assert!(dot.abs() / denom < 1e-6, "column {j}: {}", dot.abs() / denom);
            }
        }
    }

    /// Predictions are linear: predict(x + y) = predict(x) + predict(y).
    #[test]
    fn prediction_is_linear(
        coeffs in proptest::collection::vec(-10.0f64..10.0, 7),
        a in (0.1f64..5.0, 1.0f64..10.0, 1.0f64..50.0),
        b in (0.1f64..5.0, 1.0f64..10.0, 1.0f64..50.0),
    ) {
        let model = LinearModel::from_coefficients(coeffs);
        let fa = feature_vector(a.0, a.1, a.2);
        let fb = feature_vector(b.0, b.1, b.2);
        let summed: Vec<f64> = fa.iter().zip(&fb).map(|(x, y)| x + y).collect();
        let lhs = model.predict(&summed);
        let rhs = model.predict(&fa) + model.predict(&fb);
        prop_assert!((lhs - rhs).abs() < 1e-6 * (1.0 + lhs.abs()));
    }

    /// The extended feature map extends the paper map exactly.
    #[test]
    fn extended_map_prefix_property(
        ss in 0.01f64..10.0,
        cs in 1.0f64..10.0,
        nc in 1.0f64..100.0,
    ) {
        let paper = FeatureMap::Paper.build(ss, cs, nc);
        let ext = FeatureMap::Extended.build(ss, cs, nc);
        prop_assert_eq!(&ext[..7], &paper[..]);
        prop_assert_eq!(ext, extended_feature_vector(ss, cs, nc).to_vec());
    }

    /// The oracle model's BHJ feasibility is exactly the engine's OOM rule:
    /// feasible iff the build side fits the per-container capacity.
    #[test]
    fn oracle_feasibility_matches_capacity_rule(
        ss in 0.1f64..20.0,
        nc in 1.0f64..64.0,
        cs in 1.0f64..10.0,
    ) {
        let oracle = SimOracleCost::hive();
        let nc = nc.round();
        let cs = cs.round().max(1.0);
        let fits = ss <= oracle.engine.bhj_capacity_gb(cs);
        let feasible = oracle.join_cost(JoinImpl::BroadcastHash, ss, 77.0, nc, cs).is_some();
        prop_assert_eq!(fits, feasible);
        // SMJ is feasible everywhere.
        prop_assert!(oracle.join_cost(JoinImpl::SortMerge, ss, 77.0, nc, cs).is_some());
    }

    /// `join_cost_row_bound` is at most every cost `join_cost_row_at`
    /// writes for the same slice: random coefficients under both feature
    /// maps with `c3` positive, negative and zero, and convex rows whose
    /// vertex lies inside the slice; floors negative, 0, huge
    /// and NaN (which bounds nothing); capacities 0, 1e-12, finite and ∞;
    /// build sizes around `cs · capacity`; slices of one point and more. A
    /// bound of `+∞` means every point is infeasible.
    #[test]
    fn row_bound_is_below_every_row_cost(
        coefficients in proptest::collection::vec(-50.0f64..50.0, 10),
        scale in proptest::collection::vec(-6i32..6, 10),
        straddle in 0.5f64..1.5,
        nc in 1.0f64..100.0,
        start in 0.0f64..10.0,
        step_kind in 0usize..4,
        len in 1usize..300,
    ) {
        let mut c: Vec<f64> =
            coefficients.iter().zip(&scale).map(|(&c, &e)| c * 10f64.powi(e)).collect();
        let step = [0.1, 1.0 / 128.0, 1.0, 0.37][step_kind];
        let coords = row(start, step, len);
        let base = ResourceConfig::containers_and_size(nc.round(), coords[0]);
        let mid = coords[len / 2];
        let mut out = vec![0.0; len];
        // `c3` of each sign and zero, then `c2` moved so that the convex
        // row's vertex falls mid-slice.
        let vertex_mid = -2.0 * c[3].abs() * mid - c[6] * base.containers();
        for (c2, c3) in [
            (c[2], c[3].abs()),
            (c[2], -c[3].abs()),
            (c[2], 0.0),
            (vertex_mid, c[3].abs()),
        ] {
            (c[2], c[3]) = (c2, c3);
            let floors = [-5.0, 0.0, 1e12, f64::NAN, 1.0];
            let caps = [0.0, 1e-12, 0.37, f64::INFINITY];
            let cases = floors.into_iter().flat_map(|floor| {
                caps.into_iter().flat_map(move |cap| [(floor, cap, false), (floor, cap, true)])
            });
            for (floor, cap, extended) in cases {
                let model = model_of(&c, extended, cap, floor);
                // Around the capacity edge of the row's middle point.
                let edge = if cap.is_finite() && cap > 0.0 { mid * cap } else { mid };
                for (join, build) in [
                    (JoinImpl::SortMerge, edge * straddle),
                    (JoinImpl::BroadcastHash, edge * straddle),
                    (JoinImpl::BroadcastHash, edge),
                ] {
                    model.join_cost_row_at(join, build, 77.0, &base, &coords, &mut out);
                    let bound = model.join_cost_row_bound(join, build, 77.0, &base, &coords);
                    if floor.is_nan() {
                        prop_assert_eq!(bound, f64::NEG_INFINITY);
                    }
                    for (&cs, &o) in coords.iter().zip(&out) {
                        prop_assert!(
                            o.is_nan() || o >= bound,
                            "{:?} floor {} cap {} cs {}: cost {} under bound {}",
                            join, floor, cap, cs, o, bound
                        );
                    }
                    if bound == f64::INFINITY {
                        prop_assert!(out.iter().all(|&o| o == f64::INFINITY));
                    }
                }
            }
        }
    }
}

/// The bound is the row's least cost to within its rounding margin, so it
/// can rule rows out: published, trained and extended coefficients, both
/// joins, a row that crosses the BHJ capacity edge.
#[test]
fn row_bound_is_tight_on_trained_models() {
    let coords = row(1.0, 1.0 / 128.0, 256);
    for model in [
        JoinCostModel::paper_hive(),
        JoinCostModel::trained_hive(),
        JoinCostModel::trained_hive_extended(),
    ] {
        let model = JoinCostModel { floor: f64::NEG_INFINITY, ..model };
        for nc in [1.0, 5.0, 10.0, 40.0] {
            let base = ResourceConfig::containers_and_size(nc, coords[0]);
            for join in JoinImpl::ALL {
                let build = 1.5 * model.bhj_capacity_per_gb;
                let mut out = vec![0.0; coords.len()];
                model.join_cost_row_at(join, build, 77.0, &base, &coords, &mut out);
                let least = out.iter().copied().fold(f64::INFINITY, f64::min);
                let bound = model.join_cost_row_bound(join, build, 77.0, &base, &coords);
                assert!(least.is_finite(), "{join:?} nc {nc}");
                assert!(bound <= least, "{join:?} nc {nc}: {bound} > {least}");
                let slack = (least - bound) / least.abs().max(1.0);
                assert!(slack <= 1e-9, "{join:?} nc {nc}: {bound} vs {least}");
            }
        }
    }
}
