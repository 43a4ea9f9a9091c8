//! SVD signal balancing.
//!
//! Datasets in a compendium differ wildly in how much correlated signal
//! they carry: one 300-condition stress compendium can drown thirty small
//! experiments. SPELL balances each dataset by the magnitude of its
//! dominant singular value so that the *pattern* of correlation, not the
//! raw signal mass, drives search. We estimate σ₁ from the condition-space
//! Gram matrix (cheap: conditions² entries) via power iteration.

#![deny(clippy::disallowed_types, reason = "seeded: no wall clock")]

use crate::prep::PreparedDataset;

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

/// Power-iteration budget: at most this many steps, stopping once no
/// entry of the unit iterate moves by `POWER_TOL` or more.
const POWER_MAX_ITER: usize = 300;
const POWER_TOL: f64 = 1e-10;

/// Estimate the dominant singular value of a prepared dataset.
///
/// Builds the condition-space Gram matrix `G = XᵀX` (`n_cols × n_cols`) and
/// extracts its top eigenvalue λ₁ by power iteration; σ₁ = √λ₁.
pub fn top_singular_value(ds: &PreparedDataset) -> f64 {
    let n_cols = ds.n_cols();
    if n_cols == 0 || ds.n_genes() == 0 {
        return 0.0;
    }
    let lambda = dominant_eigenvalue(&gram(ds), n_cols);
    lambda.max(0.0).sqrt()
}

/// The Gram matrix `XᵀX` of the valid prepared rows, flat `n_cols × n_cols`
/// (symmetric, so row- and column-major agree).
fn gram(ds: &PreparedDataset) -> Vec<f64> {
    let n = ds.n_cols();
    let mut g = vec![0.0; n * n];
    for r in 0..ds.n_genes() {
        if !ds.is_valid(r) {
            continue;
        }
        let row = ds.row(r);
        for i in 0..n {
            let vi = row[i] as f64;
            if vi == 0.0 {
                continue;
            }
            for j in i..n {
                let add = vi * row[j] as f64;
                g[i * n + j] += add;
                if i != j {
                    g[j * n + i] += add;
                }
            }
        }
    }
    g
}

/// Dominant eigenvalue of a symmetric `n × n` matrix `a` (flat), by power
/// iteration from a deterministic start vector with a Rayleigh-quotient
/// estimate per step.
///
/// For positive semi-definite input such as a Gram matrix, convergence is
/// reliable; when the top two eigenvalues coincide the iterate settles
/// somewhere in their span, which still gives λ₁. Returns 0 for an empty
/// matrix or one that annihilates the iterate.
fn dominant_eigenvalue(a: &[f64], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    // y = a·x, column by column (`a` is symmetric), skipping zero entries.
    let matvec = |x: &[f64]| {
        let mut y = vec![0.0; n];
        for (col, &xc) in a.chunks_exact(n).zip(x) {
            if xc == 0.0 {
                continue;
            }
            for (yr, &acr) in y.iter_mut().zip(col) {
                *yr += acr * xc;
            }
        }
        y
    };
    // Varying entries keep the start off any eigenvector's orthogonal
    // complement for typical matrices.
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.01).collect();
    normalize_in_place(&mut v);
    let mut lambda = 0.0;
    for _ in 0..POWER_MAX_ITER {
        let mut w = matvec(&v);
        if normalize_in_place(&mut w) == 0.0 {
            return 0.0;
        }
        lambda = dot(&w, &matvec(&w));
        // A sign flip (negative eigenvalue) counts as no movement.
        let delta = w
            .iter()
            .zip(&v)
            .map(|(x, y)| (x - y).abs().min((x + y).abs()))
            .fold(0.0, f64::max);
        v = w;
        if delta < POWER_TOL {
            break;
        }
    }
    lambda
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Scale `a` to unit length; returns its prior norm. A zero vector stays
/// as it is and reports 0.
fn normalize_in_place(a: &mut [f64]) -> f64 {
    let norm = dot(a, a).sqrt();
    if norm > 0.0 {
        for v in a.iter_mut() {
            *v /= norm;
        }
    }
    norm
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

    /// Seeded prepared datasets whose σ₁ bits are pinned: three random
    /// shapes and one with constant (invalid) rows among random ones.
    fn pinned_datasets() -> Vec<PreparedDataset> {
        let mut with_constant = rand_vals(10, 6, 5);
        for r in [2, 7] {
            with_constant[r * 6..(r + 1) * 6].fill(1.5);
        }
        vec![
            prep("r8x5", 8, 5, &rand_vals(8, 5, 42)),
            prep("r200x12", 200, 12, &rand_vals(200, 12, 2007)),
            prep("r1000x30", 1000, 30, &rand_vals(1000, 30, 31)),
            prep("constant_rows", 10, 6, &with_constant),
        ]
    }

    #[test]
    fn top_singular_value_bits_are_pinned() {
        let pinned: [u64; 4] = [
            0x3ffc_1e8f_7f66_153c,
            0x4014_cb16_74b9_f305,
            0x401b_3205_5f2a_857d,
            0x3ffc_e353_d152_9a64,
        ];
        let datasets = pinned_datasets();
        assert!(!datasets[3].is_valid(2) && !datasets[3].is_valid(7));
        for (ds, bits) in datasets.iter().zip(pinned) {
            let sigma = top_singular_value(ds);
            assert_eq!(sigma.to_bits(), bits, "{}: σ₁ = {sigma}", ds.name);
        }
    }

    /// `k` rows that are affine copies `a·p + b` of one pattern, with
    /// `a` alternating in sign, prepare to `±u`: `G = k·u uᵀ`, so σ₁ = √k.
    #[test]
    fn signed_affine_copies_of_one_pattern_give_root_k() {
        let pattern = [0.3f32, -1.2, 2.5, 0.0, 1.1, -0.7, 4.0];
        for k in [1usize, 2, 5, 12] {
            let vals: Vec<f32> = (0..k)
                .flat_map(|i| {
                    let a = if i % 2 == 0 {
                        1.0 + i as f32
                    } else {
                        -0.5 * i as f32
                    };
                    let b = 3.0 - i as f32;
                    pattern.iter().map(move |&p| a * p + b)
                })
                .collect();
            let sigma = top_singular_value(&prep("rank1", k, pattern.len(), &vals));
            let expect = (k as f64).sqrt();
            assert!((sigma - expect).abs() < 1e-5 * expect, "k={k}: {sigma}");
        }
    }

    /// `k` copies of one zero-mean pattern and `m` of an orthogonal one:
    /// `G = k·p̂ p̂ᵀ + m·q̂ q̂ᵀ`, whose top eigenvalue is max(k, m).
    #[test]
    fn two_orthogonal_patterns_give_root_of_the_larger_count() {
        let p = [1.0f32, -1.0, 1.0, -1.0, 1.0, -1.0];
        let q = [1.0f32, 1.0, -2.0, 1.0, 1.0, -2.0];
        for (k, m) in [(5usize, 3usize), (2, 7), (9, 1)] {
            let vals: Vec<f32> = (0..k)
                .map(|i| (&p, 0.5 + i as f32))
                .chain((0..m).map(|i| (&q, 2.0 + i as f32)))
                .flat_map(|(pat, a)| pat.iter().map(move |&v| a * v - 1.0))
                .collect();
            let sigma = top_singular_value(&prep("two", k + m, 6, &vals));
            let expect = (k.max(m) as f64).sqrt();
            assert!(
                (sigma - expect).abs() < 1e-6 * expect,
                "k={k} m={m}: {sigma}"
            );
        }
    }

    /// A unit `w` with `(G − λI)w ≈ 0`: eliminate with partial pivoting
    /// over the first `n − 1` columns, set `w[n−1] = 1`, back-substitute.
    fn null_vector(g: &[f64], n: usize, lambda: f64) -> Vec<f64> {
        let mut m: Vec<f64> = g.to_vec();
        for i in 0..n {
            m[i * n + i] -= lambda;
        }
        for k in 0..n - 1 {
            let pivot = (k..n)
                .max_by(|&a, &b| m[a * n + k].abs().total_cmp(&m[b * n + k].abs()))
                .unwrap();
            for j in 0..n {
                m.swap(k * n + j, pivot * n + j);
            }
            for i in k + 1..n {
                let f = m[i * n + k] / m[k * n + k];
                for j in k..n {
                    let t = f * m[k * n + j];
                    m[i * n + j] -= t;
                }
            }
        }
        let mut w = vec![0.0; n];
        w[n - 1] = 1.0;
        for i in (0..n - 1).rev() {
            let s: f64 = (i + 1..n).map(|j| m[i * n + j] * w[j]).sum();
            w[i] = -s / m[i * n + i];
        }
        normalize_in_place(&mut w);
        w
    }

    /// On a random Gram: λ is an eigenvalue (small residual), at most the
    /// trace, and at least every Rayleigh quotient of random vectors.
    #[test]
    fn power_iteration_reaches_the_top_eigenvalue_of_a_random_gram() {
        let n = 5;
        let g = gram(&prep("d", 8, n, &rand_vals(8, n, 42)));
        let lambda = dominant_eigenvalue(&g, n);
        assert!(lambda > 0.0);

        let w = null_vector(&g, n, lambda);
        let residual: f64 = g
            .chunks_exact(n)
            .zip(&w)
            .map(|(row, wi)| (dot(row, &w) - lambda * wi).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(residual <= 1e-6 * lambda, "residual {residual}, λ {lambda}");

        let trace: f64 = (0..n).map(|i| g[i * n + i]).sum();
        assert!(lambda <= trace, "λ {lambda} > tr {trace}");

        let vals = rand_vals(64, n, 7);
        for x in vals.chunks_exact(n) {
            let x: Vec<f64> = x.iter().map(|&v| v as f64).collect();
            let gx: Vec<f64> = g.chunks_exact(n).map(|row| dot(row, &x)).collect();
            let rayleigh = dot(&x, &gx) / dot(&x, &x);
            assert!(lambda >= (1.0 - 1e-9) * rayleigh, "{lambda} < {rayleigh}");
        }
    }

    #[test]
    fn diagonal_dominant_eigenvalue() {
        let a = [5.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0];
        assert!((dominant_eigenvalue(&a, 3) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn symmetric_known_eigenvalue() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let lambda = dominant_eigenvalue(&[2.0, 1.0, 1.0, 2.0], 2);
        assert!((lambda - 3.0).abs() < 1e-9, "{lambda}");
    }

    #[test]
    fn zero_matrix_eigenvalue_is_zero() {
        assert_eq!(dominant_eigenvalue(&[0.0; 9], 3), 0.0);
    }

    #[test]
    fn empty_matrix_eigenvalue_is_zero() {
        assert_eq!(dominant_eigenvalue(&[], 0), 0.0);
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
