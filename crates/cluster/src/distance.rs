//! Row distance metrics and the condensed pairwise distance matrix.
//!
//! Metrics follow Cluster 3.0 conventions: correlation-based metrics become
//! distances as `1 − r` (range `[0, 2]`); pairs of rows with insufficient
//! pairwise-present overlap fall back to the *neutral* distance `1.0`
//! ("uncorrelated") under every metric, so sparse rows neither attract nor
//! repel.
//!
//! [`Metric::distance`] is the single-pair definition. [`condensed_distances`]
//! computes all Pearson / absolute-Pearson pairs with one column-streaming
//! kernel whose `f32` output is bit-identical to it, pair by pair.

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
        1.0
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
    ///
    /// Of the metrics, only Uncentered, Spearman and Euclidean still reach
    /// this through [`condensed_distances`]; no benchmark workload clusters
    /// under them.
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
/// `metric`. Every entry equals [`Metric::distance`] of its pair exactly.
pub fn condensed_distances(m: &ExprMatrix, metric: Metric) -> CondensedMatrix {
    match metric {
        Metric::Pearson => pearson_condensed(m, false),
        Metric::AbsPearson => pearson_condensed(m, true),
        Metric::Uncentered | Metric::Spearman | Metric::Euclidean => {
            CondensedMatrix::from_fn(m.n_rows(), |i, j| metric.distance(m, i, j))
        }
    }
}

/// All `1 − r` (or `1 − |r|` when `fold_sign`) Pearson distances of `m`.
///
/// [`stats::pearson_rows`] walks one pair at a time and tests two mask bits
/// per cell. Here the matrix is copied once into column-major planes — the
/// value (0.0 where missing) and the presence as 0.0 / 1.0 — and row `i`
/// streams each column it has over per-`j` accumulators for `j > i`, so the
/// inner loops are contiguous in `j`, branch-free and need no reduction
/// across lanes.
///
/// The result is bit-identical to the per-pair form because every pair
/// still adds the same terms in the same column order: a column `j` lacks
/// contributes `x · 0.0 = ±0.0`, and an accumulator that started at `+0.0`
/// is never `−0.0`, so adding `±0.0` leaves it unchanged. That holds only
/// while the sums stay scalar per pair and unfused: no `mul_add`, no
/// summing across columns in lanes.
fn pearson_condensed(m: &ExprMatrix, fold_sign: bool) -> CondensedMatrix {
    let (n, k) = (m.n_rows(), m.n_cols());
    if n < 2 {
        return CondensedMatrix {
            n,
            data: Vec::new(),
        };
    }
    let mut val = vec![0.0f64; n * k];
    let mut pres = vec![0.0f64; n * k];
    for r in 0..n {
        for (c, v) in m.present_in_row_iter(r) {
            val[c * n + r] = v as f64;
            pres[c * n + r] = 1.0;
        }
    }
    let min_overlap = Metric::MIN_OVERLAP.max(2) as f64;
    let neutral = Metric::Pearson.neutral();

    // Per-`j` accumulators; `mean_a` / `mean_b` hold the sums until divided.
    let mut cnt = vec![0.0f64; n];
    let mut mean_a = vec![0.0f64; n];
    let mut mean_b = vec![0.0f64; n];
    let mut num = vec![0.0f64; n];
    let mut da = vec![0.0f64; n];
    let mut db = vec![0.0f64; n];

    let mut data: Vec<f32> = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n - 1 {
        let w = n - i - 1;
        let (cnt, mean_a, mean_b) = (&mut cnt[..w], &mut mean_a[..w], &mut mean_b[..w]);
        let (num, da, db) = (&mut num[..w], &mut da[..w], &mut db[..w]);
        // Columns row `i` has: its value and the planes' tails over `j > i`.
        let cols = (0..k).filter(|c| pres[c * n + i] != 0.0).map(|c| {
            let tail = c * n + i + 1..(c + 1) * n;
            (val[c * n + i], &val[tail.clone()], &pres[tail])
        });

        cnt.fill(0.0);
        mean_a.fill(0.0);
        mean_b.fill(0.0);
        for (a, v, p) in cols.clone() {
            for j in 0..w {
                cnt[j] += p[j];
                mean_a[j] += a * p[j];
                mean_b[j] += v[j];
            }
        }
        // A pair with no shared column divides 0 by 0; the NaN stays in
        // its own lane and the final select discards it.
        for j in 0..w {
            mean_a[j] /= cnt[j];
            mean_b[j] /= cnt[j];
        }

        num.fill(0.0);
        da.fill(0.0);
        db.fill(0.0);
        for (a, v, p) in cols {
            for j in 0..w {
                let xa = (a - mean_a[j]) * p[j];
                let xb = (v[j] - mean_b[j]) * p[j];
                num[j] += xa * xb;
                da[j] += xa * xa;
                db[j] += xb * xb;
            }
        }

        // Zero-fill then overwrite: unlike `extend` over the same
        // expression, this loop vectorises its square roots and divisions.
        let start = data.len();
        data.resize(start + w, 0.0);
        let out = &mut data[start..];
        for j in 0..w {
            let r = num[j] / (da[j].sqrt() * db[j].sqrt());
            let r = if fold_sign { r.abs() } else { r };
            let defined = cnt[j] >= min_overlap && da[j] > 0.0 && db[j] > 0.0;
            out[j] = if defined { (1.0 - r) as f32 } else { neutral };
        }
    }
    CondensedMatrix { n, data }
}

/// [`condensed_distances`], held to its contract on the way out: every
/// entry has the bits of [`Metric::distance`] of its pair.
#[cfg(test)]
pub(crate) fn checked_condensed_distances(m: &ExprMatrix, metric: Metric) -> CondensedMatrix {
    let all = condensed_distances(m, metric);
    for i in 0..m.n_rows() {
        for j in (i + 1)..m.n_rows() {
            assert_eq!(
                all.get(i, j).to_bits(),
                metric.distance(m, i, j).to_bits(),
                "{metric:?} differs at ({i},{j})"
            );
        }
    }
    all
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
    fn condensed_pearson_equals_pairwise_bit_for_bit() {
        let n = 40;
        let cols = 11;
        let vals: Vec<f32> = (0..n * cols)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.13)
            .collect();
        let mut m = mat(n, cols, &vals);
        for i in (0..n * cols).step_by(7) {
            m.set_missing(i / cols, i % cols);
        }
        checked_condensed_distances(&m, Metric::Pearson);
        checked_condensed_distances(&m, Metric::AbsPearson);
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
