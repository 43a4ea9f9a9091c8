//! Normalization transforms applied before clustering, search and display.
//!
//! These mirror the preprocessing stack microarray pipelines applied before
//! data reached Java TreeView / ForestView: log-ratio transform, per-gene
//! centering, and z-scoring. SPELL additionally requires per-gene unit
//! variance within each dataset so correlations are comparable across
//! datasets; [`zscore_rows`] provides that.

use crate::matrix::ExprMatrix;
use crate::stats::{self, Welford};

/// log2-transform every present value. Values ≤ 0 become missing
/// (their logarithm is undefined), matching Cluster 3.0 behaviour.
pub fn log2_transform(m: &mut ExprMatrix) {
    m.map_in_place(|v| if v > 0.0 { v.log2() } else { f32::NAN });
}

/// Subtract each row's mean from its present values.
pub fn mean_center_rows(m: &mut ExprMatrix) {
    for r in 0..m.n_rows() {
        if let Some(mean) = stats::row_mean(m, r) {
            let mean = mean as f32;
            let cols: Vec<(usize, f32)> = m.present_in_row_iter(r).collect();
            for (c, v) in cols {
                m.set(r, c, v - mean);
            }
        }
    }
}

/// Subtract each row's median from its present values (the default
/// "center genes" operation in Cluster 3.0).
pub fn median_center_rows(m: &mut ExprMatrix) {
    for r in 0..m.n_rows() {
        if let Some(med) = stats::row_median(m, r) {
            let cols: Vec<(usize, f32)> = m.present_in_row_iter(r).collect();
            for (c, v) in cols {
                m.set(r, c, v - med);
            }
        }
    }
}

/// Z-score each row: subtract the row mean and divide by the row sample
/// standard deviation. Rows with zero variance (or <2 present values) are
/// centered only. This transform runs over every dataset of a compendium
/// when a SPELL index is built.
pub fn zscore_rows(m: &mut ExprMatrix) {
    let n_cols = m.n_cols();
    for r in 0..m.n_rows() {
        let w = row_welford(m, r);
        let (mean, sd) = (w.mean(), w.stddev_sample());
        let cols: Vec<(usize, f32)> = m.present_in_row_iter(r).collect();
        if cols.is_empty() {
            continue;
        }
        for (c, v) in cols {
            let centered = v as f64 - mean;
            let z = if sd > 0.0 { centered / sd } else { centered };
            m.set(r, c, z as f32);
        }
    }
    debug_assert_eq!(m.n_cols(), n_cols);
}

fn row_welford(m: &ExprMatrix, r: usize) -> Welford {
    let mut w = Welford::new();
    for (_, v) in m.present_in_row_iter(r) {
        w.push(v as f64);
    }
    w
}

/// Z-score each column (condition), used when conditions rather than genes
/// must be comparable (array-side clustering).
pub fn zscore_cols(m: &mut ExprMatrix) {
    let mut t = m.transpose();
    zscore_rows(&mut t);
    *m = t.transpose();
}

/// Rescale all present values linearly so the full matrix range maps onto
/// `[lo, hi]`. No-op for empty or constant matrices.
pub fn rescale_to(m: &mut ExprMatrix, lo: f32, hi: f32) {
    if let Some((vmin, vmax)) = m.value_range() {
        let span = vmax - vmin;
        if span <= 0.0 {
            return;
        }
        let scale = (hi - lo) / span;
        m.map_in_place(|v| lo + (v - vmin) * scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    fn mat(rows: usize, cols: usize, v: &[f32]) -> ExprMatrix {
        ExprMatrix::from_rows(rows, cols, v).unwrap()
    }

    #[test]
    fn log2_positive_values() {
        let mut m = mat(1, 3, &[1.0, 2.0, 8.0]);
        log2_transform(&mut m);
        assert_eq!(m.get(0, 0), Some(0.0));
        assert_eq!(m.get(0, 1), Some(1.0));
        assert_eq!(m.get(0, 2), Some(3.0));
    }

    #[test]
    fn log2_nonpositive_becomes_missing() {
        let mut m = mat(1, 3, &[0.0, -1.0, 4.0]);
        log2_transform(&mut m);
        assert_eq!(m.get(0, 0), None);
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(0, 2), Some(2.0));
    }

    #[test]
    fn mean_center_makes_zero_mean() {
        let mut m = mat(2, 3, &[1.0, 2.0, 3.0, 10.0, 20.0, 30.0]);
        mean_center_rows(&mut m);
        for r in 0..2 {
            let mean = stats::row_mean(&m, r).unwrap();
            assert!(mean.abs() < 1e-6, "row {r} mean {mean}");
        }
    }

    #[test]
    fn median_center_makes_zero_median() {
        let mut m = mat(1, 5, &[5.0, 1.0, 9.0, 3.0, 7.0]);
        median_center_rows(&mut m);
        assert_eq!(stats::row_median(&m, 0), Some(0.0));
    }

    #[test]
    fn center_skips_missing_rows() {
        let mut m = ExprMatrix::missing(2, 3);
        m.set(0, 0, 4.0);
        m.set(0, 1, 6.0);
        mean_center_rows(&mut m);
        assert_eq!(m.get(0, 0), Some(-1.0));
        assert_eq!(m.get(0, 1), Some(1.0));
        assert_eq!(m.present_in_row(1), 0); // untouched
    }

    #[test]
    fn zscore_rows_unit_variance() {
        let mut m = mat(1, 4, &[2.0, 4.0, 6.0, 8.0]);
        zscore_rows(&mut m);
        let w = stats::row_moments(&m, 0);
        assert!(w.mean().abs() < 1e-6);
        assert!((w.variance_sample() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zscore_constant_row_centers_only() {
        let mut m = mat(1, 3, &[5.0, 5.0, 5.0]);
        zscore_rows(&mut m);
        for c in 0..3 {
            assert_eq!(m.get(0, c), Some(0.0));
        }
    }

    #[test]
    fn zscore_preserves_missing_pattern() {
        let mut m = mat(2, 4, &[1.0, 2.0, 3.0, 4.0, 1.0, 1.0, 2.0, 2.0]);
        m.set_missing(0, 2);
        zscore_rows(&mut m);
        assert_eq!(m.get(0, 2), None);
        assert_eq!(m.present_in_row(0), 3);
    }

    #[test]
    fn zscore_cols_unit_variance_per_col() {
        let mut m = mat(4, 2, &[1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
        zscore_cols(&mut m);
        let t = m.transpose();
        for c in 0..2 {
            let w = stats::row_moments(&t, c);
            assert!(w.mean().abs() < 1e-6);
            assert!((w.variance_sample() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn rescale_maps_range() {
        let mut m = mat(1, 3, &[-2.0, 0.0, 2.0]);
        rescale_to(&mut m, 0.0, 1.0);
        assert_eq!(m.get(0, 0), Some(0.0));
        assert_eq!(m.get(0, 1), Some(0.5));
        assert_eq!(m.get(0, 2), Some(1.0));
    }

    #[test]
    fn rescale_constant_noop() {
        let mut m = mat(1, 2, &[3.0, 3.0]);
        rescale_to(&mut m, 0.0, 1.0);
        assert_eq!(m.get(0, 0), Some(3.0));
    }

    #[test]
    fn zscore_large_matches_reference() {
        // The in-place z-score must equal an independent reference.
        let n = 500;
        let cols = 37;
        let vals: Vec<f32> = (0..n * cols)
            .map(|i| ((i * 31 % 97) as f32) * 0.1)
            .collect();
        let mut a = mat(n, cols, &vals);
        let mut b = a.clone();
        zscore_rows(&mut a);
        // reference
        for r in 0..n {
            let w = stats::row_moments(&b, r);
            let (mean, sd) = (w.mean(), w.stddev_sample());
            let cs: Vec<(usize, f32)> = b.present_in_row_iter(r).collect();
            for (c, v) in cs {
                let z = if sd > 0.0 {
                    (v as f64 - mean) / sd
                } else {
                    v as f64 - mean
                };
                b.set(r, c, z as f32);
            }
        }
        for r in (0..n).step_by(97) {
            for c in 0..cols {
                let (x, y) = (a.get(r, c).unwrap(), b.get(r, c).unwrap());
                assert!((x - y).abs() < 1e-6);
            }
        }
    }
}
