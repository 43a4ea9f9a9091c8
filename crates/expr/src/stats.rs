//! Statistics over expression rows with exact missing-value handling.
//!
//! Correlation is the workhorse of both ForestView's cross-dataset pattern
//! comparison and the SPELL search engine, so these kernels are written to
//! be allocation-free on the hot path and to handle pairwise-present masks
//! exactly: a pair of rows is compared only over the columns where *both*
//! rows are present, which is the convention of Cluster 3.0 / Java TreeView.

use crate::matrix::ExprMatrix;

/// Running mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long streams; used for per-row and per-dataset
/// moments during normalization.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Fold in one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of observations; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (divide by n−1); 0 when fewer than 2 observations.
    pub fn variance_sample(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev_sample(&self) -> f64 {
        self.variance_sample().sqrt()
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

/// Moments of the present values in one row.
pub fn row_moments(m: &ExprMatrix, r: usize) -> Welford {
    let mut w = Welford::new();
    for (_, v) in m.present_in_row_iter(r) {
        w.push(v as f64);
    }
    w
}

/// Moments of every present value in the matrix.
pub fn matrix_moments(m: &ExprMatrix) -> Welford {
    let mut w = Welford::new();
    for r in 0..m.n_rows() {
        for (_, v) in m.present_in_row_iter(r) {
            w.push(v as f64);
        }
    }
    w
}

/// Pearson correlation between two slices of equal length (no missing
/// handling). Returns `None` when fewer than 2 points or zero variance.
pub fn pearson_dense(a: &[f32], b: &[f32]) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "pearson_dense requires equal lengths");
    if a.len() < 2 {
        return None;
    }
    let n = a.len() as f64;
    let (mut sa, mut sb) = (0.0f64, 0.0f64);
    for i in 0..a.len() {
        sa += a[i] as f64;
        sb += b[i] as f64;
    }
    let (ma, mb) = (sa / n, sb / n);
    let (mut num, mut da, mut db) = (0.0f64, 0.0f64, 0.0f64);
    for i in 0..a.len() {
        let xa = a[i] as f64 - ma;
        let xb = b[i] as f64 - mb;
        num += xa * xb;
        da += xa * xa;
        db += xb * xb;
    }
    if da <= 0.0 || db <= 0.0 {
        return None;
    }
    Some(num / (da.sqrt() * db.sqrt()))
}

/// Pearson correlation between two rows of (possibly different) matrices,
/// computed over the columns where **both** rows are present.
///
/// Returns `None` when fewer than `min_overlap` shared columns exist or
/// either row has zero variance over the shared columns.
pub fn pearson_rows(
    ma: &ExprMatrix,
    ra: usize,
    mb: &ExprMatrix,
    rb: usize,
    min_overlap: usize,
) -> Option<f64> {
    assert_eq!(
        ma.n_cols(),
        mb.n_cols(),
        "pearson_rows requires matrices with equal column counts"
    );
    let n_cols = ma.n_cols();
    let mut n = 0usize;
    let (mut sa, mut sb) = (0.0f64, 0.0f64);
    for c in 0..n_cols {
        if ma.is_present(ra, c) && mb.is_present(rb, c) {
            n += 1;
            sa += ma.get_raw(ra, c) as f64;
            sb += mb.get_raw(rb, c) as f64;
        }
    }
    if n < min_overlap.max(2) {
        return None;
    }
    let (mean_a, mean_b) = (sa / n as f64, sb / n as f64);
    let (mut num, mut da, mut db) = (0.0f64, 0.0f64, 0.0f64);
    for c in 0..n_cols {
        if ma.is_present(ra, c) && mb.is_present(rb, c) {
            let xa = ma.get_raw(ra, c) as f64 - mean_a;
            let xb = mb.get_raw(rb, c) as f64 - mean_b;
            num += xa * xb;
            da += xa * xa;
            db += xb * xb;
        }
    }
    if da <= 0.0 || db <= 0.0 {
        return None;
    }
    Some(num / (da.sqrt() * db.sqrt()))
}

/// Uncentered Pearson ("cosine") correlation over pairwise-present columns,
/// the Cluster 3.0 `correlation, uncentered` metric.
pub fn uncentered_pearson_rows(
    ma: &ExprMatrix,
    ra: usize,
    mb: &ExprMatrix,
    rb: usize,
    min_overlap: usize,
) -> Option<f64> {
    assert_eq!(ma.n_cols(), mb.n_cols());
    let mut n = 0usize;
    let (mut num, mut da, mut db) = (0.0f64, 0.0f64, 0.0f64);
    for c in 0..ma.n_cols() {
        if ma.is_present(ra, c) && mb.is_present(rb, c) {
            n += 1;
            let xa = ma.get_raw(ra, c) as f64;
            let xb = mb.get_raw(rb, c) as f64;
            num += xa * xb;
            da += xa * xa;
            db += xb * xb;
        }
    }
    if n < min_overlap.max(1) || da <= 0.0 || db <= 0.0 {
        return None;
    }
    Some(num / (da.sqrt() * db.sqrt()))
}

/// Euclidean distance over pairwise-present columns, scaled by the number
/// of shared columns so rows with different missingness are comparable.
pub fn euclidean_rows(
    ma: &ExprMatrix,
    ra: usize,
    mb: &ExprMatrix,
    rb: usize,
    min_overlap: usize,
) -> Option<f64> {
    assert_eq!(ma.n_cols(), mb.n_cols());
    let mut n = 0usize;
    let mut acc = 0.0f64;
    for c in 0..ma.n_cols() {
        if ma.is_present(ra, c) && mb.is_present(rb, c) {
            n += 1;
            let d = ma.get_raw(ra, c) as f64 - mb.get_raw(rb, c) as f64;
            acc += d * d;
        }
    }
    if n < min_overlap.max(1) {
        return None;
    }
    Some((acc / n as f64).sqrt())
}

/// Fractional ranks of the present values (average rank for ties), with
/// `None` preserved for missing positions. Used by Spearman correlation.
pub fn fractional_ranks(values: &[Option<f32>]) -> Vec<Option<f64>> {
    let mut idx: Vec<usize> = values
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.map(|_| i))
        .collect();
    idx.sort_by(|&a, &b| {
        values[a]
            .unwrap()
            .partial_cmp(&values[b].unwrap())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks: Vec<Option<f64>> = vec![None; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        // group ties
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0; // 1-based average rank
        for &k in &idx[i..=j] {
            ranks[k] = Some(avg);
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation between two rows over pairwise-present columns.
pub fn spearman_rows(
    ma: &ExprMatrix,
    ra: usize,
    mb: &ExprMatrix,
    rb: usize,
    min_overlap: usize,
) -> Option<f64> {
    assert_eq!(ma.n_cols(), mb.n_cols());
    // Collect pairwise-present values, then rank them.
    let mut va: Vec<Option<f32>> = Vec::with_capacity(ma.n_cols());
    let mut vb: Vec<Option<f32>> = Vec::with_capacity(ma.n_cols());
    for c in 0..ma.n_cols() {
        if let (Some(x), Some(y)) = (ma.get(ra, c), mb.get(rb, c)) {
            va.push(Some(x));
            vb.push(Some(y));
        }
    }
    if va.len() < min_overlap.max(2) {
        return None;
    }
    let rka = fractional_ranks(&va);
    let rkb = fractional_ranks(&vb);
    let a: Vec<f32> = rka.iter().map(|r| r.unwrap() as f32).collect();
    let b: Vec<f32> = rkb.iter().map(|r| r.unwrap() as f32).collect();
    pearson_dense(&a, &b)
}

/// Median of the present values of a row, if any.
pub fn row_median(m: &ExprMatrix, r: usize) -> Option<f32> {
    let mut vals: Vec<f32> = m.present_in_row_iter(r).map(|(_, v)| v).collect();
    median_in_place(&mut vals)
}

/// Median of a scratch buffer (consumed/reordered).
pub fn median_in_place(vals: &mut [f32]) -> Option<f32> {
    if vals.is_empty() {
        return None;
    }
    let mid = vals.len() / 2;
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    if vals.len() % 2 == 1 {
        Some(vals[mid])
    } else {
        Some((vals[mid - 1] + vals[mid]) / 2.0)
    }
}

/// Mean of present values of a row; `None` if the row is entirely missing.
pub fn row_mean(m: &ExprMatrix, r: usize) -> Option<f64> {
    let w = row_moments(m, r);
    if w.count() == 0 {
        None
    } else {
        Some(w.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, v: &[f32]) -> ExprMatrix {
        ExprMatrix::from_rows(rows, cols, v).unwrap()
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance_sample() - var).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.variance_sample(), 0.0);
        let mut w1 = Welford::new();
        w1.push(5.0);
        assert_eq!(w1.mean(), 5.0);
        assert_eq!(w1.variance_sample(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - all.mean()).abs() < 1e-10);
        assert!((left.variance_sample() - all.variance_sample()).abs() < 1e-10);
        assert_eq!(left.count(), all.count());
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a.mean(), before.mean());
        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e.count(), 2);
    }

    #[test]
    fn pearson_dense_perfect() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let r = pearson_dense(&a, &b).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
        let neg: Vec<f32> = b.iter().map(|x| -x).collect();
        let r2 = pearson_dense(&a, &neg).unwrap();
        assert!((r2 + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_dense_zero_variance_is_none() {
        assert_eq!(pearson_dense(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
        assert_eq!(pearson_dense(&[1.0], &[2.0]), None);
    }

    #[test]
    fn pearson_rows_pairwise_mask() {
        // Row 0 and row 1 correlate perfectly on shared columns {0,2,3}.
        let mut m = mat(2, 4, &[1.0, 99.0, 2.0, 3.0, 2.0, 0.0, 4.0, 6.0]);
        m.set_missing(1, 1); // col 1 only in row 0 → excluded
        let r = pearson_rows(&m, 0, &m, 1, 2).unwrap();
        assert!((r - 1.0).abs() < 1e-12, "r = {r}");
    }

    #[test]
    fn pearson_rows_min_overlap_enforced() {
        let m = mat(2, 3, &[1.0, 2.0, 3.0, 3.0, 2.0, 1.0]);
        assert!(pearson_rows(&m, 0, &m, 1, 4).is_none());
        assert!(pearson_rows(&m, 0, &m, 1, 3).is_some());
    }

    #[test]
    fn pearson_self_is_one() {
        let m = mat(1, 5, &[0.5, -1.0, 2.0, 0.0, 1.5]);
        let r = pearson_rows(&m, 0, &m, 0, 2).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncentered_pearson_cosine() {
        let m = mat(2, 3, &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        let r = uncentered_pearson_rows(&m, 0, &m, 1, 1).unwrap();
        assert!(r.abs() < 1e-12); // orthogonal
        let m2 = mat(2, 2, &[1.0, 1.0, 2.0, 2.0]);
        let r2 = uncentered_pearson_rows(&m2, 0, &m2, 1, 1).unwrap();
        assert!((r2 - 1.0).abs() < 1e-12); // parallel
    }

    #[test]
    fn euclidean_rows_normalized_by_overlap() {
        let m = mat(2, 4, &[0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0]);
        let d = euclidean_rows(&m, 0, &m, 1, 1).unwrap();
        assert!((d - 2.0).abs() < 1e-12);
        // Missing half the columns should not change the per-column scale.
        let mut m2 = m.clone();
        m2.set_missing(0, 0);
        m2.set_missing(0, 1);
        let d2 = euclidean_rows(&m2, 0, &m2, 1, 1).unwrap();
        assert!((d2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fractional_ranks_with_ties_and_missing() {
        let v = vec![Some(3.0), None, Some(1.0), Some(3.0), Some(2.0)];
        let r = fractional_ranks(&v);
        assert_eq!(r[1], None);
        assert_eq!(r[2], Some(1.0));
        assert_eq!(r[4], Some(2.0));
        // the two 3.0s share ranks 3 and 4 → 3.5
        assert_eq!(r[0], Some(3.5));
        assert_eq!(r[3], Some(3.5));
    }

    #[test]
    fn spearman_monotone_is_one() {
        // Monotone but nonlinear relationship: spearman 1, pearson < 1.
        let a: Vec<f32> = (1..=8).map(|i| i as f32).collect();
        let b: Vec<f32> = a.iter().map(|x| x.exp()).collect();
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let m = mat(2, 8, &all);
        let s = spearman_rows(&m, 0, &m, 1, 2).unwrap();
        assert!((s - 1.0).abs() < 1e-9);
        let p = pearson_rows(&m, 0, &m, 1, 2).unwrap();
        assert!(p < 0.999);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median_in_place(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_in_place(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_in_place(&mut []), None);
    }

    #[test]
    fn row_median_skips_missing() {
        let mut m = mat(1, 4, &[10.0, 1.0, 2.0, 3.0]);
        m.set_missing(0, 0);
        assert_eq!(row_median(&m, 0), Some(2.0));
    }

    #[test]
    fn row_mean_none_when_all_missing() {
        let m = ExprMatrix::missing(1, 3);
        assert_eq!(row_mean(&m, 0), None);
    }

    #[test]
    fn matrix_moments_counts_present_only() {
        let mut m = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        m.set_missing(1, 1);
        let w = matrix_moments(&m);
        assert_eq!(w.count(), 3);
        assert!((w.mean() - 2.0).abs() < 1e-12);
    }
}
