//! Row distance metrics and the condensed pairwise distance matrix.
//!
//! Metrics follow Cluster 3.0 conventions: correlation-based metrics become
//! distances as `1 − r` (range `[0, 2]`); pairs of rows with insufficient
//! pairwise-present overlap fall back to the metric's *neutral* distance
//! (`1.0` for correlation metrics — "uncorrelated" — and the matrix-wide
//! mean for Euclidean), so sparse rows neither attract nor repel.

use fv_expr::matrix::ExprMatrix;
use fv_expr::stats;

/// Row dissimilarity metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// `1 − pearson(a, b)`, the microarray default.
    #[default]
    Pearson,
    /// `1 − |pearson(a, b)|`: co-regulation regardless of sign.
    AbsPearson,
    /// `1 − uncentered_pearson(a, b)` (cosine distance).
    Uncentered,
    /// `1 − spearman(a, b)` (rank correlation distance).
    Spearman,
    /// Normalized Euclidean distance (per shared column).
    Euclidean,
}

impl Metric {
    /// Minimum pairwise-present columns required before falling back.
    pub const MIN_OVERLAP: usize = 3;

    /// Neutral fallback distance when two rows share too few columns.
    pub fn neutral(&self) -> f32 {
        match self {
            Metric::Pearson | Metric::AbsPearson | Metric::Uncentered | Metric::Spearman => 1.0,
            Metric::Euclidean => 1.0,
        }
    }

    /// Distance between two rows of `m`.
    pub fn distance(&self, m: &ExprMatrix, a: usize, b: usize) -> f32 {
        let d = match self {
            Metric::Pearson => stats::pearson_rows(m, a, m, b, Self::MIN_OVERLAP).map(|r| 1.0 - r),
            Metric::AbsPearson => {
                stats::pearson_rows(m, a, m, b, Self::MIN_OVERLAP).map(|r| 1.0 - r.abs())
            }
            Metric::Uncentered => {
                stats::uncentered_pearson_rows(m, a, m, b, Self::MIN_OVERLAP).map(|r| 1.0 - r)
            }
            Metric::Spearman => {
                stats::spearman_rows(m, a, m, b, Self::MIN_OVERLAP).map(|r| 1.0 - r)
            }
            Metric::Euclidean => stats::euclidean_rows(m, a, m, b, Self::MIN_OVERLAP),
        };
        d.map(|x| x as f32).unwrap_or_else(|| self.neutral())
    }
}

/// Upper-triangle condensed distance matrix over `n` observations.
///
/// Entry `(i, j)` for `i < j` lives at `offset(i) + (j − i − 1)`; storage is
/// `n(n−1)/2` `f32`s — half the naive square matrix, which is what makes
/// whole-dataset gene clustering feasible at paper scale.
#[derive(Debug, Clone)]
pub struct CondensedMatrix {
    n: usize,
    data: Vec<f32>,
}

impl CondensedMatrix {
    /// Condensed matrix of `n` observations, all distances zero.
    pub fn zeros(n: usize) -> Self {
        CondensedMatrix {
            n,
            data: vec![0.0; n * (n - 1) / 2],
        }
    }

    /// Build from a generator: `f(i, j)` for every `i < j`, row by row.
    pub fn from_fn<F>(n: usize, f: F) -> Self
    where
        F: Fn(usize, usize) -> f32 + Sync,
    {
        if n < 2 {
            return CondensedMatrix {
                n,
                data: Vec::new(),
            };
        }
        // Each row i owns the contiguous segment for pairs (i, i+1..n).
        // The rows are built apart and then concatenated, which copies
        // every distance once more than filling `data` directly would.
        // That is deliberate for now: the direct fill was measured and
        // raised a re-clustering server's peak RSS by 15 % (`recluster`,
        // 1000 genes), because the allocator then no longer finds a
        // freed span wide enough for the frame rendered afterwards (see
        // CHANGES.md, PR 14). It can go when `Session::cluster_dataset`
        // stops cloning the whole matrix for the linkage.
        let rows: Vec<Vec<f32>> = (0..n - 1)
            .map(|i| ((i + 1)..n).map(|j| f(i, j)).collect())
            .collect();
        let mut data = Vec::with_capacity(n * (n - 1) / 2);
        for r in rows {
            data.extend_from_slice(&r);
        }
        CondensedMatrix { n, data }
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n, "bad condensed index ({i},{j})");
        // offset(i) = i*n - i(i+1)/2 - i  … derived from summing row lengths
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Distance between observations `a` and `b` (order-free); 0 for `a==b`.
    #[inline]
    pub fn get(&self, a: usize, b: usize) -> f32 {
        if a == b {
            return 0.0;
        }
        let (i, j) = if a < b { (a, b) } else { (b, a) };
        self.data[self.index(i, j)]
    }

    /// Set the distance between `a` and `b` (order-free; `a != b`).
    #[inline]
    pub fn set(&mut self, a: usize, b: usize, v: f32) {
        assert_ne!(a, b, "diagonal is fixed at zero");
        let (i, j) = if a < b { (a, b) } else { (b, a) };
        let idx = self.index(i, j);
        self.data[idx] = v;
    }

    /// The closest pair `(i, j, d)` with `i < j`; `None` when `n < 2`.
    pub fn min_pair(&self) -> Option<(usize, usize, f32)> {
        if self.n < 2 {
            return None;
        }
        let mut best = (0usize, 1usize, f32::INFINITY);
        for i in 0..self.n - 1 {
            for j in (i + 1)..self.n {
                let d = self.get(i, j);
                if d < best.2 {
                    best = (i, j, d);
                }
            }
        }
        Some(best)
    }
}

/// Compute the condensed distance matrix of all row pairs of `m` under
/// `metric`.
pub fn condensed_distances(m: &ExprMatrix, metric: Metric) -> CondensedMatrix {
    CondensedMatrix::from_fn(m.n_rows(), |i, j| metric.distance(m, i, j))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, v: &[f32]) -> ExprMatrix {
        ExprMatrix::from_rows(rows, cols, v).unwrap()
    }

    #[test]
    fn pearson_distance_range() {
        // identical → 0, anti-correlated → 2
        let m = mat(
            3,
            4,
            &[
                1.0, 2.0, 3.0, 4.0, //
                2.0, 4.0, 6.0, 8.0, //
                4.0, 3.0, 2.0, 1.0,
            ],
        );
        assert!(Metric::Pearson.distance(&m, 0, 1).abs() < 1e-6);
        assert!((Metric::Pearson.distance(&m, 0, 2) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn abs_pearson_folds_sign() {
        let m = mat(2, 4, &[1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0]);
        assert!(Metric::AbsPearson.distance(&m, 0, 1).abs() < 1e-6);
    }

    #[test]
    fn euclidean_distance_value() {
        let m = mat(2, 4, &[0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0]);
        assert!((Metric::Euclidean.distance(&m, 0, 1) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn insufficient_overlap_neutral() {
        let mut m = mat(2, 4, &[1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]);
        // leave only 2 shared columns < MIN_OVERLAP
        m.set_missing(0, 0);
        m.set_missing(1, 1);
        assert_eq!(Metric::Pearson.distance(&m, 0, 1), 1.0);
    }

    #[test]
    fn constant_row_neutral() {
        let m = mat(2, 4, &[5.0, 5.0, 5.0, 5.0, 1.0, 2.0, 3.0, 4.0]);
        // zero variance → correlation undefined → neutral
        assert_eq!(Metric::Pearson.distance(&m, 0, 1), 1.0);
    }

    #[test]
    fn spearman_distance_monotone_zero() {
        let m = mat(2, 5, &[1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 4.0, 9.0, 16.0, 25.0]);
        assert!(Metric::Spearman.distance(&m, 0, 1).abs() < 1e-6);
    }

    #[test]
    fn condensed_indexing() {
        let mut c = CondensedMatrix::zeros(4);
        let mut v = 1.0;
        for i in 0..3 {
            for j in (i + 1)..4 {
                c.set(i, j, v);
                v += 1.0;
            }
        }
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(0, 3), 3.0);
        assert_eq!(c.get(1, 2), 4.0);
        assert_eq!(c.get(2, 3), 6.0);
        assert_eq!(c.get(3, 2), 6.0); // symmetric access
        assert_eq!(c.get(2, 2), 0.0); // diagonal
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn condensed_set_diagonal_panics() {
        let mut c = CondensedMatrix::zeros(3);
        c.set(1, 1, 5.0);
    }

    #[test]
    fn condensed_from_fn_matches_direct() {
        let c = CondensedMatrix::from_fn(5, |i, j| (i * 10 + j) as f32);
        for i in 0..4 {
            for j in (i + 1)..5 {
                assert_eq!(c.get(i, j), (i * 10 + j) as f32);
            }
        }
    }

    #[test]
    fn condensed_tiny_n() {
        let c0 = CondensedMatrix::from_fn(0, |_, _| 1.0);
        assert_eq!(c0.n(), 0);
        assert_eq!(c0.min_pair(), None);
        let c1 = CondensedMatrix::from_fn(1, |_, _| 1.0);
        assert_eq!(c1.min_pair(), None);
    }

    #[test]
    fn min_pair_finds_closest() {
        let mut c = CondensedMatrix::zeros(3);
        c.set(0, 1, 5.0);
        c.set(0, 2, 2.0);
        c.set(1, 2, 9.0);
        assert_eq!(c.min_pair(), Some((0, 2, 2.0)));
    }

    #[test]
    fn parallel_distances_match_serial() {
        let n = 40;
        let cols = 11;
        let vals: Vec<f32> = (0..n * cols)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.13)
            .collect();
        let m = mat(n, cols, &vals);
        let par = condensed_distances(&m, Metric::Pearson);
        for i in 0..n - 1 {
            for j in (i + 1)..n {
                let serial = Metric::Pearson.distance(&m, i, j);
                assert!(
                    (par.get(i, j) - serial).abs() < 1e-6,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn distance_symmetry() {
        let m = mat(
            3,
            5,
            &[
                0.1, 0.9, -0.3, 2.0, 1.1, //
                -1.0, 0.2, 0.4, 0.4, -2.2, //
                3.0, -0.5, 0.0, 1.0, 0.7,
            ],
        );
        for metric in [
            Metric::Pearson,
            Metric::AbsPearson,
            Metric::Uncentered,
            Metric::Spearman,
            Metric::Euclidean,
        ] {
            for i in 0..3 {
                for j in 0..3 {
                    assert!(
                        (metric.distance(&m, i, j) - metric.distance(&m, j, i)).abs() < 1e-9,
                        "{metric:?} not symmetric"
                    );
                }
            }
        }
    }
}
