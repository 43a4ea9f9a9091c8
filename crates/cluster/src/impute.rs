//! KNN imputation of missing expression values.
//!
//! Microarray pipelines routinely impute missing spots before clustering —
//! the standard method is KNNimpute (Troyanskaya et al. 2001, by this
//! paper's senior author): for each gene row with missing cells, find the
//! `k` most similar rows that *do* measure the missing column and fill in
//! their similarity-weighted average. Clustering and SPELL both behave
//! better on imputed data when missingness is non-trivial.

use crate::distance::Metric;
use fv_expr::matrix::ExprMatrix;

/// Result summary of an imputation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImputeStats {
    /// Cells that were missing before.
    pub missing_before: usize,
    /// Cells actually filled (a cell stays missing when no neighbour
    /// measures its column).
    pub filled: usize,
}

/// Impute missing values in place using `k` nearest neighbours under
/// `metric`. Returns fill statistics.
///
/// Neighbour distances are computed once per gene with missing cells,
/// against all rows; a neighbour contributes to a cell only if it
/// measures that column. Weights are `1 / (d + ε)` so near-identical rows
/// dominate.
pub fn knn_impute(m: &mut ExprMatrix, k: usize, metric: Metric) -> ImputeStats {
    let n_rows = m.n_rows();
    let n_cols = m.n_cols();
    let missing_before = m.n_cells() - m.present_total();
    if missing_before == 0 || n_rows < 2 || k == 0 {
        return ImputeStats {
            missing_before,
            filled: 0,
        };
    }

    // For determinism and to avoid read/write hazards, compute all fills
    // against the ORIGINAL matrix, then apply.
    let snapshot = m.clone();
    let fills: Vec<(usize, usize, f32)> = (0..n_rows)
        .filter(|&r| snapshot.present_in_row(r) < n_cols)
        .flat_map(|r| {
            // distances to every other row
            let mut neigh: Vec<(usize, f32)> = (0..n_rows)
                .filter(|&o| o != r)
                .map(|o| (o, metric.distance(&snapshot, r, o)))
                .collect();
            neigh.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

            let mut out: Vec<(usize, usize, f32)> = Vec::new();
            for c in 0..n_cols {
                if snapshot.is_present(r, c) {
                    continue;
                }
                let mut num = 0.0f64;
                let mut den = 0.0f64;
                let mut used = 0usize;
                for &(o, d) in &neigh {
                    if used == k {
                        break;
                    }
                    if let Some(v) = snapshot.get(o, c) {
                        let w = 1.0 / (d as f64 + 1e-6);
                        num += w * v as f64;
                        den += w;
                        used += 1;
                    }
                }
                if den > 0.0 {
                    out.push((r, c, (num / den) as f32));
                }
            }
            out
        })
        .collect();

    let filled = fills.len();
    for (r, c, v) in fills {
        m.set(r, c, v);
    }
    ImputeStats {
        missing_before,
        filled,
    }
}

/// Baseline: fill each missing cell with its row mean (falling back to the
/// column mean, then 0). The ablation comparator for [`knn_impute`].
pub fn row_mean_impute(m: &mut ExprMatrix) -> ImputeStats {
    let missing_before = m.n_cells() - m.present_total();
    let n_cols = m.n_cols();
    let mut filled = 0usize;
    // column means as fallback
    let t = m.transpose();
    let col_means: Vec<Option<f64>> = (0..n_cols)
        .map(|c| fv_expr::stats::row_mean(&t, c))
        .collect();
    for r in 0..m.n_rows() {
        let mean = fv_expr::stats::row_mean(m, r);
        for c in 0..n_cols {
            if !m.is_present(r, c) {
                let v = mean.or(col_means[c]).unwrap_or(0.0);
                m.set(r, c, v as f32);
                filled += 1;
            }
        }
    }
    ImputeStats {
        missing_before,
        filled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Matrix with two tight gene groups; returns (matrix, hidden truth).
    fn masked_groups() -> (ExprMatrix, Vec<(usize, usize, f32)>) {
        let n_cols = 8;
        let mut vals = Vec::new();
        // group A: rows 0..4 follow pattern c; group B: rows 4..8 follow -c
        for r in 0..8 {
            for c in 0..n_cols {
                let base = if r < 4 { c as f32 } else { -(c as f32) };
                vals.push(base + 0.01 * r as f32);
            }
        }
        let mut m = ExprMatrix::from_rows(8, n_cols, &vals).unwrap();
        // hide a handful of cells, remembering the truth
        let hidden = vec![(0usize, 3usize), (2, 5), (5, 1), (7, 6)];
        let truth: Vec<(usize, usize, f32)> = hidden
            .iter()
            .map(|&(r, c)| (r, c, m.get(r, c).unwrap()))
            .collect();
        for &(r, c) in &hidden {
            m.set_missing(r, c);
        }
        (m, truth)
    }

    #[test]
    fn knn_fills_all_recoverable_cells() {
        let (mut m, truth) = masked_groups();
        let stats = knn_impute(&mut m, 3, Metric::Euclidean);
        assert_eq!(stats.missing_before, 4);
        assert_eq!(stats.filled, 4);
        for (r, c, v) in truth {
            let got = m.get(r, c).expect("filled");
            assert!((got - v).abs() < 0.05, "({r},{c}): {got} vs {v}");
        }
    }

    #[test]
    fn knn_beats_row_mean_on_structured_data() {
        let (m0, truth) = masked_groups();
        let mut knn = m0.clone();
        let mut mean = m0.clone();
        knn_impute(&mut knn, 3, Metric::Euclidean);
        row_mean_impute(&mut mean);
        let err = |m: &ExprMatrix| -> f64 {
            truth
                .iter()
                .map(|&(r, c, v)| (m.get(r, c).unwrap() as f64 - v as f64).powi(2))
                .sum::<f64>()
        };
        assert!(
            err(&knn) < err(&mean) / 4.0,
            "knn {} should beat mean {} clearly",
            err(&knn),
            err(&mean)
        );
    }

    #[test]
    fn no_missing_is_noop() {
        let mut m = ExprMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let before = m.clone();
        let stats = knn_impute(&mut m, 2, Metric::Euclidean);
        assert_eq!(stats.filled, 0);
        assert_eq!(m, before);
    }

    #[test]
    fn column_missing_everywhere_stays_missing() {
        let mut m =
            ExprMatrix::from_rows(3, 3, &[1.0, 0.0, 2.0, 1.1, 0.0, 2.1, 0.9, 0.0, 1.9]).unwrap();
        for r in 0..3 {
            m.set_missing(r, 1);
        }
        let stats = knn_impute(&mut m, 2, Metric::Euclidean);
        assert_eq!(stats.filled, 0, "no neighbour measures column 1");
        assert!(!m.is_present(0, 1));
    }

    #[test]
    fn k_zero_is_noop() {
        let (mut m, _) = masked_groups();
        let stats = knn_impute(&mut m, 0, Metric::Euclidean);
        assert_eq!(stats.filled, 0);
    }

    #[test]
    fn deterministic() {
        let (m0, _) = masked_groups();
        let mut a = m0.clone();
        let mut b = m0.clone();
        knn_impute(&mut a, 3, Metric::Pearson);
        knn_impute(&mut b, 3, Metric::Pearson);
        assert_eq!(a, b);
    }

    #[test]
    fn row_mean_fills_everything() {
        let (mut m, _) = masked_groups();
        let stats = row_mean_impute(&mut m);
        assert_eq!(stats.filled, 4);
        assert_eq!(m.present_total(), m.n_cells());
    }

    #[test]
    fn row_mean_falls_back_to_column_mean() {
        // row 0 entirely missing → column means used
        let mut m = ExprMatrix::from_rows(3, 2, &[0.0, 0.0, 2.0, 4.0, 4.0, 8.0]).unwrap();
        m.set_missing(0, 0);
        m.set_missing(0, 1);
        row_mean_impute(&mut m);
        assert_eq!(m.get(0, 0), Some(3.0));
        assert_eq!(m.get(0, 1), Some(6.0));
    }
}
