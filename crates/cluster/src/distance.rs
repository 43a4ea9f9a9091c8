//! Row distance metrics and the condensed pairwise distance matrix.
//!
//! Metrics follow Cluster 3.0 conventions: correlation-based metrics become
//! distances as `1 − r` (range `[0, 2]`); pairs of rows with insufficient
//! pairwise-present overlap fall back to the *neutral* distance `1.0`
//! ("uncorrelated") under every metric, so sparse rows neither attract nor
//! repel.
//!
//! [`Metric::distance`] is the single-pair definition. [`condensed_distances`]
//! computes all Pearson / absolute-Pearson pairs with one register-blocked
//! kernel whose `f32` output is bit-identical to it, pair by pair; the
//! other metrics go through [`CondensedMatrix::from_fn`].
//!
//! The kernel copies the matrix once into zero-padded column planes and
//! computes row `i` against eight `j`s at a time, each pair's sums in its
//! own lane of `[f64; 8]` accumulators that stay in registers across the
//! columns. Its row body is compiled twice: for the target's baseline, and
//! with AVX2 enabled, where each accumulator is two 256-bit registers. The
//! CPU is asked once per call which one runs. Both do the same arithmetic
//! in the same order, unfused, so the choice moves no bit; neither FMA nor
//! AVX-512 is enabled.
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

/// The fewest pairs worth a worker thread. On one core of a 2-core AVX2
/// Xeon the Pearson kernel runs 13–14 M pairs/s at 60 columns, so this
/// is ~4.7 ms of work, against ~30 µs to spawn and join a scoped thread.
const MIN_WORKER_PAIRS: usize = 1 << 16;

/// Bands per worker: at 1000 rows on two cores a band is 7.8 K pairs,
/// ~0.55 ms of Pearson at 60 columns on that Xeon, the longest a worker
/// finishing last keeps the call waiting.
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
        Metric::Pearson => pearson_condensed(m, false, workers, Kernel::detect()),
        Metric::AbsPearson => pearson_condensed(m, true, workers, Kernel::detect()),
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

/// The `j`s a Pearson block computes at once: eight `f64` lanes, two AVX2
/// registers per accumulator.
const LANES: usize = 8;

/// Which instantiation of [`pearson_row`] a call runs. Chosen once per
/// call, before any band is filled; it never changes a bit of the output.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    /// Compiled for the target's baseline (SSE2 on x86-64).
    Portable,
    /// Compiled with AVX2 enabled. Made only by [`Kernel::avx2`].
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// The widest kernel this CPU runs.
    fn detect() -> Kernel {
        Kernel::avx2().unwrap_or(Kernel::Portable)
    }

    /// [`Kernel::Avx2`], when the CPU has AVX2.
    fn avx2() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Kernel::Avx2);
        }
        None
    }
}

/// Column-major copies of a matrix: the value (0.0 where missing) and the
/// presence as 0.0 / 1.0. Each column's plane holds `n` rows and then one
/// block of zeros, so a block that starts at any row `< n` reads inside it.
struct Planes {
    val: Vec<f64>,
    pres: Vec<f64>,
    stride: usize,
    k: usize,
}

impl Planes {
    fn of(m: &ExprMatrix) -> Planes {
        let (n, k) = (m.n_rows(), m.n_cols());
        let stride = n + LANES;
        let mut val = vec![0.0f64; stride * k];
        let mut pres = vec![0.0f64; stride * k];
        for r in 0..n {
            for (c, v) in m.present_in_row_iter(r) {
                val[c * stride + r] = v as f64;
                pres[c * stride + r] = 1.0;
            }
        }
        Planes {
            val,
            pres,
            stride,
            k,
        }
    }

    /// The `LANES` entries of `plane` from `at` on.
    #[inline(always)]
    fn block(plane: &[f64], at: usize) -> &[f64; LANES] {
        plane[at..]
            .first_chunk()
            .expect("a block starts before the padding")
    }
}

/// All `1 − r` (or `1 − |r|` when `fold_sign`) Pearson distances of `m`,
/// each row by `kernel`.
///
/// [`stats::pearson_rows`] walks one pair at a time and tests two mask bits
/// per cell. Here the matrix is copied once into [`Planes`], and row `i`
/// is computed against `LANES` `j`s at a time, their accumulators in
/// registers (see [`pearson_row`]).
fn pearson_condensed(
    m: &ExprMatrix,
    fold_sign: bool,
    workers: usize,
    kernel: Kernel,
) -> CondensedMatrix {
    let planes = Planes::of(m);
    // Each worker's scratch: the columns row `i` has.
    let cols = || Vec::with_capacity(planes.k);
    fill_bands(m.n_rows(), workers, cols, |i, out, cols| match kernel {
        Kernel::Portable => pearson_row(&planes, i, fold_sign, cols, out),
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code, reason = "calling an AVX2 function is unsafe")]
        Kernel::Avx2 => {
            // SAFETY: `Kernel::Avx2` is made only by `Kernel::avx2`, after
            // the CPU reported AVX2, all `pearson_row_avx2` requires.
            unsafe { pearson_row_avx2(&planes, i, fold_sign, cols, out) }
        }
    })
}

/// [`pearson_row`] compiled with AVX2: each `[f64; LANES]` accumulator is
/// two 256-bit registers. No FMA: a fused multiply-add rounds once where
/// [`stats::pearson_rows`] rounds twice. Call it only once the CPU has
/// reported AVX2; elsewhere its instructions are undefined behaviour.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pearson_row_avx2(
    planes: &Planes,
    i: usize,
    fold_sign: bool,
    cols: &mut Vec<(f64, usize)>,
    out: &mut [f32],
) {
    pearson_row(planes, i, fold_sign, cols, out)
}

/// The body of [`pearson_row`], written once for it and for the tests'
/// `pearson_row_coefficients`: each finishes a lane's `r`, and whether it
/// is `defined`, into its own output type.
macro_rules! pearson_blocks {
    ($planes:expr, $i:expr, $fold_sign:expr, $cols:expr, $out:expr, $zero:expr,
     |$r:ident, $defined:ident| $finish:expr) => {{
        let (planes, i, fold_sign, cols, out) = ($planes, $i, $fold_sign, $cols, $out);
        let Planes {
            val,
            pres,
            stride,
            k,
        } = planes;
        // Row `i`'s value in each column it has, and that column's plane.
        cols.clear();
        cols.extend((0..*k).filter_map(|c| {
            let at = c * stride + i;
            (pres[at] != 0.0).then(|| (val[at], c * stride))
        }));
        let min_overlap = Metric::MIN_OVERLAP.max(2) as f64;

        for (b, out) in out.chunks_mut(LANES).enumerate() {
            let j = i + 1 + b * LANES;

            let [mut cnt, mut mean_a, mut mean_b] = [[0.0f64; LANES]; 3];
            for &(a, plane) in cols.iter() {
                let v = Planes::block(val, plane + j);
                let p = Planes::block(pres, plane + j);
                for l in 0..LANES {
                    cnt[l] += p[l];
                    mean_a[l] += a * p[l];
                    mean_b[l] += v[l];
                }
            }
            for l in 0..LANES {
                mean_a[l] /= cnt[l];
                mean_b[l] /= cnt[l];
            }

            let [mut num, mut da, mut db] = [[0.0f64; LANES]; 3];
            for &(a, plane) in cols.iter() {
                let v = Planes::block(val, plane + j);
                let p = Planes::block(pres, plane + j);
                for l in 0..LANES {
                    let xa = (a - mean_a[l]) * p[l];
                    let xb = (v[l] - mean_b[l]) * p[l];
                    num[l] += xa * xb;
                    da[l] += xa * xa;
                    db[l] += xb * xb;
                }
            }

            let mut d = [$zero; LANES];
            for l in 0..LANES {
                let $r = num[l] / (da[l].sqrt() * db[l].sqrt());
                let $r = if fold_sign { $r.abs() } else { $r };
                let $defined = cnt[l] >= min_overlap && da[l] > 0.0 && db[l] > 0.0;
                d[l] = $finish;
            }
            out.copy_from_slice(&d[..out.len()]);
        }
    }};
}

/// Row `i`'s distances to every `j > i`, written to `out`, `LANES` `j`s a
/// block: pass 1 sums the count, `Σ a` and `Σ b` over the columns both rows
/// have, the sums become means, pass 2 sums the centred cross and squares,
/// and the lanes are finished into distances. The last block runs into
/// the planes' padding; its lanes past the row's end are never written.
///
/// Every lane is bit-identical to [`Metric::distance`] of its pair because
/// the pair still adds the same terms in the same column order, one scalar
/// sum per lane: a column `j` lacks contributes `x · 0.0 = ±0.0`, and an
/// accumulator that started at `+0.0` is never `−0.0`, so adding `±0.0`
/// leaves it unchanged. That holds only while the sums stay unfused and
/// within their lane: no `mul_add`, no sum across lanes. A pair with no
/// shared column divides 0 by 0; the NaN stays in its lane and the final
/// select discards it.
#[inline(always)]
fn pearson_row(
    planes: &Planes,
    i: usize,
    fold_sign: bool,
    cols: &mut Vec<(f64, usize)>,
    out: &mut [f32],
) {
    let neutral = Metric::Pearson.neutral();
    pearson_blocks!(planes, i, fold_sign, cols, out, 0.0f32, |r, defined| {
        if defined {
            (1.0 - r) as f32
        } else {
            neutral
        }
    });
}

/// [`pearson_row`] finished into each pair's `f64` coefficient `r` (NaN
/// where the distance is the neutral one), before the cast to `f32`: a
/// one-rounding change in the passes shows in every `r`, not only in the
/// few `f32`s it moves. The same `pearson_blocks!` body, portable only.
#[cfg(test)]
fn pearson_row_coefficients(
    planes: &Planes,
    i: usize,
    cols: &mut Vec<(f64, usize)>,
    out: &mut [f64],
) {
    pearson_blocks!(planes, i, false, cols, out, 0.0f64, |r, defined| {
        if defined {
            r
        } else {
            f64::NAN
        }
    });
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

    /// Every instantiation of the Pearson row this CPU runs: the portable
    /// one, and the AVX2 one when the CPU has it.
    fn kernels() -> Vec<Kernel> {
        [Some(Kernel::Portable), Kernel::avx2()]
            .into_iter()
            .flatten()
            .collect()
    }

    /// [`holey`], with the rows Pearson leaves undefined mixed in: three
    /// bits of `shape` per row pick fully missing, constant (zero
    /// variance) or two columns present (below `MIN_OVERLAP`) for some.
    fn awkward(rows: usize, cols: usize, missing_pct: u64, seed: u64, shape: u64) -> ExprMatrix {
        let mut m = holey(rows, cols, missing_pct, seed);
        for r in 0..rows {
            for c in 0..cols {
                match (shape >> (3 * (r % 21))) & 7 {
                    5 => m.set_missing(r, c),
                    6 => m.set(r, c, 1.5),
                    7 if c >= 2 => m.set_missing(r, c),
                    _ => {}
                }
            }
        }
        m
    }

    /// The `f64` coefficient of every pair against [`stats::pearson_rows`],
    /// bit for bit; then each kernel by 1, 2 and 5 workers, Pearson and
    /// AbsPearson, held to [`Metric::distance`] pair by pair.
    fn assert_kernels_give_the_per_pair_bits(m: &ExprMatrix) {
        let n = m.n_rows();
        let planes = Planes::of(m);
        let mut cols = Vec::new();
        for i in 0..n {
            let mut r = vec![0.0; n - i - 1];
            pearson_row_coefficients(&planes, i, &mut cols, &mut r);
            for j in (i + 1)..n {
                let want = stats::pearson_rows(m, i, m, j, Metric::MIN_OVERLAP);
                let got = r[j - i - 1];
                assert_eq!(
                    (!got.is_nan()).then_some(got.to_bits()),
                    want.map(f64::to_bits),
                    "r at ({i}, {j})"
                );
            }
        }
        for (metric, fold_sign) in [(Metric::Pearson, false), (Metric::AbsPearson, true)] {
            for kernel in kernels() {
                for workers in [1, 2, 5] {
                    let got = pearson_condensed(m, fold_sign, workers, kernel);
                    assert_eq!(got.n(), n);
                    for i in 0..n {
                        for j in (i + 1)..n {
                            assert_eq!(
                                got.get(i, j).to_bits(),
                                metric.distance(m, i, j).to_bits(),
                                "{metric:?}, {kernel:?}, {workers} workers, ({i}, {j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_block_tail_gives_the_per_pair_bits() {
        // n = 0..=17 ends a row's last block at every lane, twice.
        for n in 0..=17 {
            let m = awkward(n, 7, 20, n as u64 + 1, 0x5f3e_a7c1_9b24_d86e);
            assert_kernels_give_the_per_pair_bits(&m);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn each_kernel_gives_the_per_pair_bits(
            n in 0usize..=40,
            cols in 0usize..12,
            missing_pct in prop_oneof![Just(0u64), Just(10u64), Just(60u64)],
            seed in any::<u64>(),
            shape in any::<u64>(),
        ) {
            assert_kernels_give_the_per_pair_bits(&awkward(n, cols, missing_pct, seed, shape));
        }
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
