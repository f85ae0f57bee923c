//! Ordinary least squares, from scratch.
//!
//! The paper trained its SMJ/BHJ models with an (unspecified) offline
//! regression toolchain; we solve the same problem here with the normal
//! equations `XᵀX β = Xᵀy` and Gaussian elimination with partial pivoting.
//! Feature counts are tiny (7), so the O(k³) solve is immaterial next to
//! generating the profile runs.

use serde::{Deserialize, Serialize};

/// Why a fit failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegressionError {
    /// Fewer samples than features.
    Underdetermined { samples: usize, features: usize },
    /// `XᵀX` is singular (collinear features) beyond pivot tolerance.
    Singular,
    /// Inconsistent row lengths or empty input.
    MalformedInput,
}

impl std::fmt::Display for RegressionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegressionError::Underdetermined { samples, features } => {
                write!(f, "underdetermined system: {samples} samples for {features} features")
            }
            RegressionError::Singular => write!(f, "singular normal equations (collinear features)"),
            RegressionError::MalformedInput => write!(f, "malformed regression input"),
        }
    }
}

impl std::error::Error for RegressionError {}

/// A fitted linear model `y ≈ β · x` (no intercept, matching the paper's
/// 7-coefficient vectors; callers wanting an intercept append a constant-1
/// feature).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    pub coefficients: Vec<f64>,
}

impl LinearModel {
    /// Wrap an existing coefficient vector (e.g. the paper's published
    /// models).
    pub fn from_coefficients(coefficients: Vec<f64>) -> Self {
        assert!(!coefficients.is_empty());
        LinearModel { coefficients }
    }

    /// Fit by ordinary least squares.
    ///
    /// ```
    /// use raqo_cost::LinearModel;
    ///
    /// // y = 2·a − b, noise-free.
    /// let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, (i * i) as f64]).collect();
    /// let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] - x[1]).collect();
    /// let model = LinearModel::fit(&xs, &ys).unwrap();
    /// assert!((model.coefficients[0] - 2.0).abs() < 1e-9);
    /// assert!((model.coefficients[1] + 1.0).abs() < 1e-9);
    /// ```
    pub fn fit(xs: &[Vec<f64>], ys: &[f64]) -> Result<Self, RegressionError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(RegressionError::MalformedInput);
        }
        let k = xs[0].len();
        if k == 0 || xs.iter().any(|x| x.len() != k) {
            return Err(RegressionError::MalformedInput);
        }
        if xs.len() < k {
            return Err(RegressionError::Underdetermined { samples: xs.len(), features: k });
        }

        // Normal equations: A = XᵀX (k×k), b = Xᵀy (k). Index loops keep
        // the matrix arithmetic legible.
        let mut a = vec![vec![0.0; k]; k];
        let mut b = vec![0.0; k];
        #[allow(clippy::needless_range_loop)]
        for (x, &y) in xs.iter().zip(ys) {
            for i in 0..k {
                b[i] += x[i] * y;
                for j in i..k {
                    a[i][j] += x[i] * x[j];
                }
            }
        }
        #[allow(clippy::needless_range_loop)]
        for i in 0..k {
            for j in 0..i {
                a[i][j] = a[j][i];
            }
        }

        let coefficients = solve_gaussian(a, b)?;
        Ok(LinearModel { coefficients })
    }

    /// Predict `β · x`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.coefficients.len(),
            "feature vector length mismatch"
        );
        self.coefficients.iter().zip(x).map(|(c, v)| c * v).sum()
    }
}

/// Solve `A x = b` by Gaussian elimination with partial pivoting. Consumes
/// the inputs (they are scratch space).
fn solve_gaussian(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>, RegressionError> {
    let n = b.len();
    debug_assert!(a.len() == n && a.iter().all(|r| r.len() == n));

    for col in 0..n {
        // Partial pivot: largest |value| in this column at or below the
        // diagonal.
        let pivot_row = (col..n)
            // `total_cmp` keeps the pivot search panic-free on non-finite
            // entries (adversarial feature values); the guard below rejects
            // such a system as singular rather than eliminating with it.
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("range col..n is non-empty because col < n");
        let pivot = a[pivot_row][col];
        if !pivot.is_finite() || pivot.abs() < 1e-10 {
            return Err(RegressionError::Singular);
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);

        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            #[allow(clippy::needless_range_loop)]
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for col in (row + 1)..n {
            acc -= a[row][col] * x[col];
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Coefficient of determination of `m` on a dataset (1 = perfect fit).
    pub(crate) fn r_squared(m: &LinearModel, xs: &[Vec<f64>], ys: &[f64]) -> f64 {
        assert_eq!(xs.len(), ys.len());
        let n = ys.len() as f64;
        let mean = ys.iter().sum::<f64>() / n;
        let ss_tot: f64 = ys.iter().map(|y| (y - mean) * (y - mean)).sum();
        let ss_res: f64 = xs
            .iter()
            .zip(ys)
            .map(|(x, y)| {
                let e = y - m.predict(x);
                e * e
            })
            .sum();
        if ss_tot == 0.0 {
            if ss_res == 0.0 {
                1.0
            } else {
                f64::NEG_INFINITY
            }
        } else {
            1.0 - ss_res / ss_tot
        }
    }

    #[test]
    fn recovers_exact_linear_relationship() {
        // y = 2a - 3b + 0.5c, noise-free: OLS must recover the coefficients.
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<Vec<f64>> = (0..50)
            .map(|_| vec![rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] - 3.0 * x[1] + 0.5 * x[2]).collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        assert!((m.coefficients[0] - 2.0).abs() < 1e-9);
        assert!((m.coefficients[1] + 3.0).abs() < 1e-9);
        assert!((m.coefficients[2] - 0.5).abs() < 1e-9);
        assert!(r_squared(&m, &xs, &ys) > 1.0 - 1e-12);
    }

    #[test]
    fn tolerates_noise_with_reasonable_fit() {
        let mut rng = StdRng::seed_from_u64(2);
        let xs: Vec<Vec<f64>> =
            (0..500).map(|_| vec![rng.gen_range(0.0..10.0), 1.0]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 4.0 * x[0] + 7.0 + rng.gen_range(-0.5..0.5))
            .collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        assert!((m.coefficients[0] - 4.0).abs() < 0.05, "slope {}", m.coefficients[0]);
        assert!((m.coefficients[1] - 7.0).abs() < 0.3, "intercept {}", m.coefficients[1]);
        assert!(r_squared(&m, &xs, &ys) > 0.99);
    }

    #[test]
    fn rejects_underdetermined() {
        let xs = vec![vec![1.0, 2.0, 3.0]];
        let ys = vec![1.0];
        assert_eq!(
            LinearModel::fit(&xs, &ys),
            Err(RegressionError::Underdetermined { samples: 1, features: 3 })
        );
    }

    #[test]
    fn rejects_collinear_features() {
        // Second feature is exactly twice the first: singular XᵀX.
        let xs: Vec<Vec<f64>> = (1..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let ys: Vec<f64> = (1..10).map(|i| i as f64).collect();
        assert_eq!(LinearModel::fit(&xs, &ys), Err(RegressionError::Singular));
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(LinearModel::fit(&[], &[]), Err(RegressionError::MalformedInput));
        let ragged = vec![vec![1.0, 2.0], vec![1.0]];
        assert_eq!(
            LinearModel::fit(&ragged, &[1.0, 2.0]),
            Err(RegressionError::MalformedInput)
        );
        let xs = vec![vec![1.0]];
        assert_eq!(LinearModel::fit(&xs, &[1.0, 2.0]), Err(RegressionError::MalformedInput));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // First row starts with 0; naive elimination without pivoting
        // would divide by zero.
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let b = vec![3.0, 5.0];
        let x = solve_gaussian(a, b).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn predict_is_dot_product() {
        let m = LinearModel::from_coefficients(vec![1.0, -2.0]);
        assert_eq!(m.predict(&[3.0, 4.0]), -5.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn predict_rejects_wrong_arity() {
        LinearModel::from_coefficients(vec![1.0]).predict(&[1.0, 2.0]);
    }

    #[test]
    fn fits_paper_style_feature_space() {
        // Generate y from a known model over the 7-feature map and recover
        // it — the exact workflow used to train the operator models.
        use crate::features::feature_vector;
        let truth = [16.0, 0.97, 0.013, 0.16, -0.0078, -0.39, 0.11];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for ss in [0.5, 1.0, 2.0, 3.4, 5.1] {
            for cs in [1.0, 3.0, 5.0, 7.0, 9.0] {
                for nc in [5.0, 10.0, 20.0, 40.0] {
                    let f = feature_vector(ss, cs, nc);
                    ys.push(truth.iter().zip(&f).map(|(a, b)| a * b).sum::<f64>());
                    xs.push(f.to_vec());
                }
            }
        }
        let m = LinearModel::fit(&xs, &ys).unwrap();
        for (got, want) in m.coefficients.iter().zip(&truth) {
            assert!((got - want).abs() < 1e-6, "got {got} want {want}");
        }
    }
}
