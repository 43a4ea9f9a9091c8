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
//! kernel whose `f32` output is bit-identical to it, pair by pair; the
//! other metrics go through [`CondensedMatrix::from_fn`].
//!
//! Both fill rows `0..n−1` in contiguous **bands** of equal pair counts
//! (row `i` owns `n − i − 1`), each its own slice of the one `Vec<f32>`.
//! Workers, one per core but none for fewer than `MIN_WORKER_PAIRS` pairs,
//! take bands from a queue, so one that starts late or loses its core
//! leaves its bands to the others. A small matrix gets one worker, the
//! calling thread, and spawns nothing; scoped threads are the rest, each
//! with scratch the calling thread allocated before any spawn, so no
//! worker grows a heap arena of its own. A band decides which thread
//! computes a pair, never its arithmetic.

use fv_expr::matrix::ExprMatrix;
use fv_expr::stats;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::Mutex;

/// The fewest pairs worth a worker thread. On a 2-core x86-64 box the
/// Pearson kernel runs 16.9 M pairs/s at 60 columns, so this is ~3.9 ms
/// of work, against ~30 µs to spawn and join a scoped thread.
const MIN_WORKER_PAIRS: usize = 1 << 16;

/// Bands per worker: at 1000 rows on two cores a band is 7.8 K pairs,
/// ~0.5 ms of Pearson, the longest a worker finishing last keeps the
/// call waiting.
const BANDS_PER_WORKER: usize = 32;

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
    pub(crate) data: Vec<f32>,
}

/// Where row `i`, the pairs `(i, i+1..n)`, starts in the storage of `n`.
#[inline]
pub(crate) fn row_offset(n: usize, i: usize) -> usize {
    i * n - i * (i + 1) / 2
}

impl CondensedMatrix {
    /// Condensed matrix of `n` observations, all distances zero.
    pub fn zeros(n: usize) -> Self {
        CondensedMatrix {
            n,
            data: vec![0.0; n * (n - 1) / 2],
        }
    }

    /// Build from a generator: `f(i, j)` for every `i < j`, in row bands
    /// (see the module docs). `f` runs on the worker's thread, so whatever
    /// it allocates — Spearman ranks each pair afresh — is allocated there.
    pub fn from_fn<F>(n: usize, f: F) -> Self
    where
        F: Fn(usize, usize) -> f32 + Sync,
    {
        pairwise(n, worker_count(n), f)
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n, "bad condensed index ({i},{j})");
        row_offset(self.n, i) + (j - i - 1)
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
    condensed_distances_in(m, metric, worker_count(m.n_rows()))
}

/// [`condensed_distances`] by exactly `workers` threads.
fn condensed_distances_in(m: &ExprMatrix, metric: Metric, workers: usize) -> CondensedMatrix {
    match metric {
        Metric::Pearson => pearson_condensed(m, false, workers),
        Metric::AbsPearson => pearson_condensed(m, true, workers),
        Metric::Uncentered | Metric::Spearman | Metric::Euclidean => {
            pairwise(m.n_rows(), workers, |i, j| metric.distance(m, i, j))
        }
    }
}

/// How many workers `n` observations get: one per core, but none for
/// fewer than [`MIN_WORKER_PAIRS`] pairs, and always at least one.
fn worker_count(n: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    cores
        .min(n * n.saturating_sub(1) / 2 / MIN_WORKER_PAIRS)
        .max(1)
}

/// Rows `0..n−1` cut into `bands` contiguous ranges of about equal pair
/// counts; a band may get no row at all when there are few.
fn band_rows(n: usize, bands: usize) -> Vec<Range<usize>> {
    let pairs = n * (n - 1) / 2;
    let mut row = 0;
    (1..=bands)
        .map(|b| {
            let start = row;
            while row_offset(n, row) < pairs * b / bands {
                row += 1;
            }
            start..row
        })
        .collect()
}

/// `f(i, j)` for every pair of `n` observations, by exactly `workers` threads.
fn pairwise(n: usize, workers: usize, f: impl Fn(usize, usize) -> f32 + Sync) -> CondensedMatrix {
    let row = |i: usize, out: &mut [f32], _: &mut ()| {
        for (j, o) in (i + 1..n).zip(out) {
            *o = f(i, j);
        }
    };
    fill_bands(n, workers, || (), row)
}

/// The condensed matrix of `n` observations, its bands filled by `workers`
/// threads (module docs): `fill(i, out, s)` writes row `i` to `out`, `s`
/// being the worker's scratch, which `scratch()` made before any spawn.
fn fill_bands<S: Send>(
    n: usize,
    workers: usize,
    scratch: impl FnMut() -> S,
    fill: impl Fn(usize, &mut [f32], &mut S) + Sync,
) -> CondensedMatrix {
    if n < 2 {
        return CondensedMatrix { n, data: vec![] };
    }
    let mut data = vec![0.0f32; n * (n - 1) / 2];
    let mut rest = &mut data[..];
    // A band's slice is cut from the front of the rest when it is taken.
    let bands = band_rows(n, workers * BANDS_PER_WORKER).into_iter();
    let queue = Mutex::new(bands.map(|rows| {
        let len = row_offset(n, rows.end) - row_offset(n, rows.start);
        let (out, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        (rows, out)
    }));
    // The guard drops when `next` returns: no band is filled under it.
    let next = || queue.lock().expect("band queue poisoned").next();
    let drain = &|mut s: S| {
        while let Some((rows, out)) = next() {
            let band_start = row_offset(n, rows.start);
            for i in rows {
                let row = &mut out[row_offset(n, i) - band_start..][..n - i - 1];
                fill(i, row, &mut s);
            }
        }
    };
    let mut scratch: Vec<S> = std::iter::repeat_with(scratch).take(workers).collect();
    std::thread::scope(|scope| {
        for s in scratch.drain(1..) {
            scope.spawn(move || drain(s));
        }
        drain(scratch.pop().expect("at least one worker"));
    });
    CondensedMatrix { n, data }
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
/// summing across columns in lanes. Each worker has its own accumulators,
/// so which band, and which thread, computes a pair does not matter.
fn pearson_condensed(m: &ExprMatrix, fold_sign: bool, workers: usize) -> CondensedMatrix {
    let (n, k) = (m.n_rows(), m.n_cols());
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

    // Per-`j` accumulators, as wide as row 0, the widest a worker may
    // take; `mean_a` / `mean_b` hold the sums until divided.
    let accumulators = || -> [Vec<f64>; 6] { std::array::from_fn(|_| vec![0.0; n - 1]) };
    fill_bands(n, workers, accumulators, |i, out, acc| {
        let w = n - i - 1;
        let [cnt, mean_a, mean_b, num, da, db] = acc;
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

        // An indexed store into the row: unlike `extend` over the same
        // expression, this loop vectorises its square roots and divisions.
        for j in 0..w {
            let r = num[j] / (da[j].sqrt() * db[j].sqrt());
            let r = if fold_sign { r.abs() } else { r };
            let defined = cnt[j] >= min_overlap && da[j] > 0.0 && db[j] > 0.0;
            out[j] = if defined { (1.0 - r) as f32 } else { neutral };
        }
    })
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
    use proptest::prelude::*;

    const METRICS: [Metric; 5] = [
        Metric::Pearson,
        Metric::AbsPearson,
        Metric::Uncentered,
        Metric::Spearman,
        Metric::Euclidean,
    ];

    fn mat(rows: usize, cols: usize, v: &[f32]) -> ExprMatrix {
        ExprMatrix::from_rows(rows, cols, v).unwrap()
    }

    /// `rows × cols` values from an xorshift stream, `missing_pct` % of
    /// the cells missing.
    fn holey(rows: usize, cols: usize, missing_pct: u64, seed: u64) -> ExprMatrix {
        let mut s = seed | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut m = ExprMatrix::missing(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let v = ((next() % 2001) as f32 - 1000.0) / 100.0;
                if next() % 100 >= missing_pct {
                    m.set(r, c, v);
                }
            }
        }
        m
    }

    fn assert_same_bits(got: &CondensedMatrix, want: &CondensedMatrix, what: &str) {
        assert_eq!(got.n(), want.n(), "{what}");
        let bits = |c: &CondensedMatrix| c.data.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert!(bits(got) == bits(want), "{what}");
    }

    #[test]
    fn bands_cover_the_rows_in_order_with_balanced_pairs() {
        for n in 2..60 {
            for bands in 1..=5 {
                let rows = band_rows(n, bands);
                assert_eq!(rows.len(), bands);
                assert_eq!(rows[0].start, 0);
                assert_eq!(rows[bands - 1].end, n - 1);
                assert!(rows.windows(2).all(|w| w[0].end == w[1].start));
                // A band ends at the first row that reaches its share, so
                // it overshoots by less than one row: row 0's n − 1 pairs.
                let pairs = |r: &Range<usize>| row_offset(n, r.end) - row_offset(n, r.start);
                let share = n * (n - 1) / 2 / bands;
                assert!(rows.iter().all(|r| pairs(r) < share + n), "n={n}, {bands}");
            }
        }
        // Few rows, many bands: some bands get none.
        assert!(band_rows(3, 5).iter().any(Range::is_empty));
    }

    #[test]
    fn small_matrices_get_one_band() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        // n(n−1)/2 < 2 · MIN_WORKER_PAIRS: a second worker would fall
        // below its floor.
        assert_eq!(worker_count(400), 1);
    }

    #[test]
    fn shards_computing_at_once_both_get_the_serial_bits() {
        // 600 rows are ≥ 2 · MIN_WORKER_PAIRS pairs, two workers a call
        // on two cores: two calls at once put four workers on the cores
        // together, as two shards would.
        let m = holey(600, 12, 10, 7);
        let serial = condensed_distances_in(&m, Metric::Pearson, 1);
        let together = std::sync::Barrier::new(2);
        let shard = || {
            together.wait();
            condensed_distances(&m, Metric::Pearson)
        };
        std::thread::scope(|scope| {
            let shards = [(); 2].map(|_| scope.spawn(shard));
            for shard in shards {
                assert_same_bits(&shard.join().unwrap(), &serial, "a shard's matrix");
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_band_count_gives_the_per_pair_bits(
            n in prop_oneof![0usize..4, 4usize..12, 12usize..40],
            cols in 0usize..9,
            missing_pct in prop_oneof![Just(0u64), Just(5u64), Just(50u64), Just(90u64)],
            seed in any::<u64>(),
        ) {
            let m = holey(n, cols, missing_pct, seed);
            for metric in METRICS {
                let one = condensed_distances_in(&m, metric, 1);
                for i in 0..n {
                    for j in (i + 1)..n {
                        prop_assert_eq!(
                            one.get(i, j).to_bits(),
                            metric.distance(&m, i, j).to_bits(),
                            "{:?} differs at ({}, {})", metric, i, j
                        );
                    }
                }
                // 32 bands a worker, most of them empty at these sizes.
                for workers in 2..=5 {
                    let what = format!("{metric:?}, {workers} workers");
                    let got = condensed_distances_in(&m, metric, workers);
                    assert_same_bits(&got, &one, &what);
                }
            }
        }
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
