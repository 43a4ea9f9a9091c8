//! SVD signal balancing.
//!
//! Datasets in a compendium differ wildly in how much correlated signal
//! they carry: one 300-condition stress compendium can drown thirty small
//! experiments. SPELL balances each dataset by the magnitude of its
//! dominant singular value so that the *pattern* of correlation, not the
//! raw signal mass, drives search. We estimate σ₁ from the condition-space
//! Gram matrix (cheap: conditions² entries) via power iteration, falling
//! back to a full Jacobi SVD for small matrices when exactness is wanted.

#![deny(clippy::disallowed_types, reason = "seeded: no wall clock")]

use crate::prep::PreparedDataset;
use fv_linalg::dense::Matrix;
use fv_linalg::power::dominant_eigenpair;
use fv_linalg::svd::svd;

/// Balancing strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Balancing {
    /// No balancing (the ablation baseline).
    None,
    /// Scale each dataset by `1/σ₁` of its prepared matrix, then rescale so
    /// the mean dataset keeps unit magnitude. The default.
    #[default]
    TopSingular,
}

/// Estimate the dominant singular value of a prepared dataset.
///
/// Builds the condition-space Gram matrix `G = XᵀX` (`n_cols × n_cols`) and
/// extracts its top eigenvalue λ₁ by power iteration; σ₁ = √λ₁.
pub fn top_singular_value(ds: &PreparedDataset) -> f64 {
    let n_cols = ds.n_cols();
    if n_cols == 0 || ds.n_genes() == 0 {
        return 0.0;
    }
    let mut gram = Matrix::zeros(n_cols, n_cols);
    for r in 0..ds.n_genes() {
        if !ds.is_valid(r) {
            continue;
        }
        let row = ds.row(r);
        for i in 0..n_cols {
            let vi = row[i] as f64;
            if vi == 0.0 {
                continue;
            }
            for j in i..n_cols {
                let add = vi * row[j] as f64;
                gram.set(i, j, gram.get(i, j) + add);
                if i != j {
                    gram.set(j, i, gram.get(j, i) + add);
                }
            }
        }
    }
    let (lambda, _) = dominant_eigenpair(&gram, 300, 1e-10);
    lambda.max(0.0).sqrt()
}

/// Exact singular values of a small prepared dataset (test oracle).
pub fn exact_singular_values(ds: &PreparedDataset) -> Vec<f64> {
    let m = ds.n_genes();
    let n = ds.n_cols();
    let mut a = Matrix::zeros(m, n);
    for r in 0..m {
        for (c, &v) in ds.row(r).iter().enumerate() {
            a.set(r, c, v as f64);
        }
    }
    svd(&a).sigma
}

/// Compute per-dataset balance factors.
///
/// The factors do **not** rescale the prepared rows — rows stay unit-norm
/// so dataset weights and gene scores remain true correlations. Instead the
/// engine multiplies each dataset's *contribution* to the aggregate gene
/// ranking by its factor, damping signal-dense datasets (large σ₁) so one
/// huge experiment cannot dominate the compendium — the role signal
/// balancing plays in Hibbs et al.
pub fn compute_balance_scales(datasets: &[PreparedDataset], mode: Balancing) -> Vec<f32> {
    match mode {
        Balancing::None => vec![1.0; datasets.len()],
        Balancing::TopSingular => {
            let sigmas: Vec<f64> = datasets.iter().map(top_singular_value).collect();
            // factor_d = mean(σ) / σ_d, so the average dataset keeps unit
            // influence and outliers are damped proportionally.
            let positive: Vec<f64> = sigmas.iter().copied().filter(|&s| s > 0.0).collect();
            if positive.is_empty() {
                return vec![1.0; datasets.len()];
            }
            let mean_sigma = positive.iter().sum::<f64>() / positive.len() as f64;
            sigmas
                .iter()
                .map(|&sigma| {
                    if sigma > 0.0 {
                        (mean_sigma / sigma) as f32
                    } else {
                        1.0
                    }
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_expr::matrix::ExprMatrix;

    fn prep(name: &str, rows: usize, cols: usize, vals: &[f32]) -> PreparedDataset {
        let m = ExprMatrix::from_rows(rows, cols, vals).unwrap();
        let ids = (0..rows).map(|i| format!("G{i}")).collect();
        PreparedDataset::from_matrix(name, &m, ids)
    }

    fn rand_vals(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.max(1);
        (0..rows * cols)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 2000) as f32 - 1000.0) / 250.0
            })
            .collect()
    }

    #[test]
    fn power_matches_exact_svd() {
        let p = prep("d", 8, 5, &rand_vals(8, 5, 42));
        let approx = top_singular_value(&p);
        let exact = exact_singular_values(&p);
        assert!(
            (approx - exact[0]).abs() < 1e-6 * exact[0].max(1.0),
            "approx {approx} vs exact {}",
            exact[0]
        );
    }

    #[test]
    fn zero_dataset_sigma_zero() {
        let p = prep("d", 2, 3, &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]); // constant rows → invalid
        assert_eq!(top_singular_value(&p), 0.0);
    }

    #[test]
    fn balancing_none_is_all_ones() {
        let ds = vec![prep("a", 6, 4, &rand_vals(6, 4, 7))];
        let scales = compute_balance_scales(&ds, Balancing::None);
        assert_eq!(scales, vec![1.0]);
    }

    #[test]
    fn balancing_damps_signal_dense_dataset() {
        // One dataset with many correlated rows (big σ1), one small.
        let n = 20;
        let mut big_vals = Vec::new();
        for i in 0..n {
            // strongly correlated rows: same pattern plus tiny jitter
            for c in 0..6 {
                big_vals.push((c as f32) + 0.01 * (i as f32));
            }
        }
        let ds = vec![
            prep("big", n, 6, &big_vals),
            prep("small", 4, 6, &rand_vals(4, 6, 99)),
        ];
        let sigmas: Vec<f64> = ds.iter().map(top_singular_value).collect();
        assert!(sigmas[0] > sigmas[1] * 1.5, "setup: {sigmas:?}");
        let scales = compute_balance_scales(&ds, Balancing::TopSingular);
        // dense dataset damped below the sparse one
        assert!(scales[0] < scales[1], "scales: {scales:?}");
        // σ_d · factor_d equal across datasets (the balancing identity)
        let b0 = sigmas[0] * scales[0] as f64;
        let b1 = sigmas[1] * scales[1] as f64;
        assert!((b0 - b1).abs() < 1e-4 * b0.max(1.0), "{b0} vs {b1}");
    }

    #[test]
    fn balancing_leaves_rows_untouched() {
        let ds = vec![prep("d", 4, 5, &rand_vals(4, 5, 13))];
        let before = ds[0].row(0).to_vec();
        let _ = compute_balance_scales(&ds, Balancing::TopSingular);
        assert_eq!(ds[0].row(0), &before[..], "correlations must stay true");
    }

    #[test]
    fn empty_dataset_list() {
        let ds: Vec<PreparedDataset> = Vec::new();
        assert!(compute_balance_scales(&ds, Balancing::TopSingular).is_empty());
    }

    #[test]
    fn all_zero_datasets_scale_one() {
        let ds = vec![prep("z", 2, 4, &[1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0])];
        let scales = compute_balance_scales(&ds, Balancing::TopSingular);
        assert_eq!(scales, vec![1.0]);
    }
}
