//! Dense `f32` expression matrix with an explicit missing-value bitmask.
//!
//! Microarray data is logically dense (every gene is measured in every
//! condition) but individual spots are frequently flagged or absent. We store
//! values row-major in one contiguous `Vec<f32>` and track presence in a
//! packed `u64` bitmask, which keeps row scans contiguous and lets statistics
//! skip missing cells exactly rather than relying on NaN arithmetic.

use crate::error::ExprError;

/// A dense genes × conditions matrix of expression values with per-cell
/// presence tracking.
///
/// Rows are genes, columns are conditions/arrays, matching the orientation of
/// PCL/CDT microarray files.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprMatrix {
    n_rows: usize,
    n_cols: usize,
    /// Row-major values; missing cells hold 0.0 but are masked out.
    data: Vec<f32>,
    /// Packed presence bits, one per cell, row-major. Bit set = present.
    mask: Vec<u64>,
}

#[inline]
fn mask_len(cells: usize) -> usize {
    cells.div_ceil(64)
}

impl ExprMatrix {
    /// Create a matrix of the given shape with every cell present and zero.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        let cells = n_rows * n_cols;
        let mut mask = vec![u64::MAX; mask_len(cells)];
        Self::trim_mask_tail(&mut mask, cells);
        ExprMatrix {
            n_rows,
            n_cols,
            data: vec![0.0; cells],
            mask,
        }
    }

    /// Create a matrix of the given shape with every cell missing.
    pub fn missing(n_rows: usize, n_cols: usize) -> Self {
        let cells = n_rows * n_cols;
        ExprMatrix {
            n_rows,
            n_cols,
            data: vec![0.0; cells],
            mask: vec![0; mask_len(cells)],
        }
    }

    /// Build from row-major values. Non-finite values (NaN/±inf) are recorded
    /// as missing, matching how PCL parsers treat blank or flagged spots.
    pub fn from_rows(n_rows: usize, n_cols: usize, values: &[f32]) -> Result<Self, ExprError> {
        let cells = n_rows * n_cols;
        if values.len() != cells {
            return Err(ExprError::ShapeMismatch(cells, values.len()));
        }
        let mut m = ExprMatrix::missing(n_rows, n_cols);
        for (i, &v) in values.iter().enumerate() {
            if v.is_finite() {
                m.data[i] = v;
                m.mask[i / 64] |= 1u64 << (i % 64);
            }
        }
        Ok(m)
    }

    /// Build from an iterator of rows, each a slice of optional values.
    pub fn from_option_rows(rows: &[Vec<Option<f32>>]) -> Result<Self, ExprError> {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        for (i, r) in rows.iter().enumerate() {
            if r.len() != n_cols {
                return Err(ExprError::ShapeMismatch(n_cols, rows[i].len()));
            }
        }
        let mut m = ExprMatrix::missing(n_rows, n_cols);
        for (r, row) in rows.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                if let Some(x) = v {
                    if x.is_finite() {
                        m.set(r, c, *x);
                    }
                }
            }
        }
        Ok(m)
    }

    fn trim_mask_tail(mask: &mut [u64], cells: usize) {
        if !cells.is_multiple_of(64) {
            if let Some(last) = mask.last_mut() {
                *last &= (1u64 << (cells % 64)) - 1;
            }
        }
    }

    /// Number of gene rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of condition columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Total number of cells (present or missing).
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.n_rows * self.n_cols
    }

    #[inline]
    fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.n_rows && c < self.n_cols);
        r * self.n_cols + c
    }

    /// Whether the cell holds a measured value.
    #[inline]
    pub fn is_present(&self, r: usize, c: usize) -> bool {
        let i = self.idx(r, c);
        (self.mask[i / 64] >> (i % 64)) & 1 == 1
    }

    /// The value at `(r, c)` if present.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Option<f32> {
        if self.is_present(r, c) {
            Some(self.data[self.idx(r, c)])
        } else {
            None
        }
    }

    /// The raw stored value (0.0 for missing cells). Use only where the mask
    /// is consulted separately, e.g. vectorized kernels.
    #[inline]
    pub fn get_raw(&self, r: usize, c: usize) -> f32 {
        self.data[self.idx(r, c)]
    }

    /// Checked access returning an error on out-of-bounds indices.
    pub fn try_get(&self, r: usize, c: usize) -> Result<Option<f32>, ExprError> {
        if r >= self.n_rows {
            return Err(ExprError::RowOutOfBounds(r, self.n_rows));
        }
        if c >= self.n_cols {
            return Err(ExprError::ColOutOfBounds(c, self.n_cols));
        }
        Ok(self.get(r, c))
    }

    /// Store a value and mark the cell present. Non-finite input marks the
    /// cell missing instead.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        let i = self.idx(r, c);
        if v.is_finite() {
            self.data[i] = v;
            self.mask[i / 64] |= 1u64 << (i % 64);
        } else {
            self.data[i] = 0.0;
            self.mask[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Mark the cell missing.
    #[inline]
    pub fn set_missing(&mut self, r: usize, c: usize) {
        let i = self.idx(r, c);
        self.data[i] = 0.0;
        self.mask[i / 64] &= !(1u64 << (i % 64));
    }

    /// Iterator over `(col, value)` for the present cells of a row.
    pub fn present_in_row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let base = r * self.n_cols;
        (0..self.n_cols).filter_map(move |c| {
            let i = base + c;
            if (self.mask[i / 64] >> (i % 64)) & 1 == 1 {
                Some((c, self.data[i]))
            } else {
                None
            }
        })
    }

    /// Number of present cells in a row.
    pub fn present_in_row(&self, r: usize) -> usize {
        self.present_in_row_iter(r).count()
    }

    /// Number of present cells in the whole matrix.
    pub fn present_total(&self) -> usize {
        self.mask.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of cells missing, in `[0, 1]`. Empty matrices report 0.
    pub fn missing_fraction(&self) -> f64 {
        if self.n_cells() == 0 {
            return 0.0;
        }
        1.0 - self.present_total() as f64 / self.n_cells() as f64
    }

    /// A new matrix containing only the given rows, in the given order.
    /// Row indices may repeat; out-of-bounds indices are an error.
    pub fn select_rows(&self, rows: &[usize]) -> Result<ExprMatrix, ExprError> {
        for &r in rows {
            if r >= self.n_rows {
                return Err(ExprError::RowOutOfBounds(r, self.n_rows));
            }
        }
        let mut out = ExprMatrix::missing(rows.len(), self.n_cols);
        for (new_r, &old_r) in rows.iter().enumerate() {
            for (c, v) in self.present_in_row_iter(old_r) {
                out.set(new_r, c, v);
            }
        }
        Ok(out)
    }

    /// A new matrix containing only the given columns, in the given order.
    pub fn select_cols(&self, cols: &[usize]) -> Result<ExprMatrix, ExprError> {
        for &c in cols {
            if c >= self.n_cols {
                return Err(ExprError::ColOutOfBounds(c, self.n_cols));
            }
        }
        let mut out = ExprMatrix::missing(self.n_rows, cols.len());
        for r in 0..self.n_rows {
            for (new_c, &old_c) in cols.iter().enumerate() {
                if let Some(v) = self.get(r, old_c) {
                    out.set(r, new_c, v);
                }
            }
        }
        Ok(out)
    }

    /// A 64-bit hash of shape, raw value bits and presence-mask words,
    /// standing for the content where a derived result is shared by it.
    /// Missing cells store `0.0` (the derived `PartialEq` relies on that
    /// too), so equal matrices hash equal unless a zero differs in sign:
    /// a missed sharing, never a wrong one.
    ///
    /// It eats whole words — two values per word, a lone tail value as
    /// its own — each step `h = (h.rotate_left(5) ^ w·K)·K`. Every step is
    /// a bijection of `h` and of `w`, so one changed word always changes
    /// the hash. The rotation folds bit 63, which a multiply never moves,
    /// back down; without it two sign flips at odd indices cancel. The
    /// pre-multiplied word keeps the bit that rotation lands on (bit 4)
    /// from being cancelled by a one-bit change in the next word.
    pub fn content_hash(&self) -> u64 {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |w: u64| h = (h.rotate_left(5) ^ w.wrapping_mul(K)).wrapping_mul(K);
        eat(self.n_rows as u64);
        eat(self.n_cols as u64);
        let pairs = self.data.chunks_exact(2);
        let tail = pairs.remainder();
        for pair in pairs {
            eat(u64::from(pair[0].to_bits()) | u64::from(pair[1].to_bits()) << 32);
        }
        if let [last] = tail {
            eat(u64::from(last.to_bits()));
        }
        self.mask.iter().for_each(|&w| eat(w));
        h
    }

    /// Transposed copy (conditions become rows).
    pub fn transpose(&self) -> ExprMatrix {
        let mut out = ExprMatrix::missing(self.n_cols, self.n_rows);
        for r in 0..self.n_rows {
            for (c, v) in self.present_in_row_iter(r) {
                out.set(c, r, v);
            }
        }
        out
    }

    /// Apply a function to every present value in place.
    pub fn map_in_place<F: Fn(f32) -> f32>(&mut self, f: F) {
        for i in 0..self.data.len() {
            if (self.mask[i / 64] >> (i % 64)) & 1 == 1 {
                let v = f(self.data[i]);
                if v.is_finite() {
                    self.data[i] = v;
                } else {
                    self.data[i] = 0.0;
                    self.mask[i / 64] &= !(1u64 << (i % 64));
                }
            }
        }
    }

    /// Minimum and maximum over present values, if any cell is present.
    pub fn value_range(&self) -> Option<(f32, f32)> {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        let mut any = false;
        for r in 0..self.n_rows {
            for (_, v) in self.present_in_row_iter(r) {
                any = true;
                if v < lo {
                    lo = v;
                }
                if v > hi {
                    hi = v;
                }
            }
        }
        if any {
            Some((lo, hi))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::FnStrategy;
    use proptest::test_runner::TestRng;

    #[test]
    fn zeros_all_present() {
        let m = ExprMatrix::zeros(3, 5);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 5);
        assert_eq!(m.present_total(), 15);
        assert_eq!(m.get(2, 4), Some(0.0));
    }

    #[test]
    fn missing_all_absent() {
        let m = ExprMatrix::missing(2, 2);
        assert_eq!(m.present_total(), 0);
        assert_eq!(m.get(0, 0), None);
        assert!((m.missing_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = ExprMatrix::missing(4, 4);
        m.set(1, 2, 3.25);
        assert_eq!(m.get(1, 2), Some(3.25));
        assert_eq!(m.get(2, 1), None);
        m.set_missing(1, 2);
        assert_eq!(m.get(1, 2), None);
    }

    #[test]
    fn set_nan_marks_missing() {
        let mut m = ExprMatrix::zeros(1, 2);
        m.set(0, 0, f32::NAN);
        m.set(0, 1, f32::INFINITY);
        assert_eq!(m.get(0, 0), None);
        assert_eq!(m.get(0, 1), None);
    }

    #[test]
    fn from_rows_respects_shape() {
        let err = ExprMatrix::from_rows(2, 3, &[1.0; 5]).unwrap_err();
        assert_eq!(err, ExprError::ShapeMismatch(6, 5));
        let m = ExprMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.get(1, 2), Some(6.0));
    }

    #[test]
    fn from_rows_nan_becomes_missing() {
        let m = ExprMatrix::from_rows(1, 3, &[1.0, f32::NAN, 3.0]).unwrap();
        assert_eq!(m.present_in_row(0), 2);
        assert_eq!(m.get(0, 1), None);
    }

    #[test]
    fn from_option_rows_builds() {
        let rows = vec![vec![Some(1.0), None], vec![None, Some(4.0)]];
        let m = ExprMatrix::from_option_rows(&rows).unwrap();
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(1, 1), Some(4.0));
    }

    #[test]
    fn from_option_rows_ragged_is_error() {
        let rows = vec![vec![Some(1.0)], vec![Some(1.0), Some(2.0)]];
        assert!(ExprMatrix::from_option_rows(&rows).is_err());
    }

    #[test]
    fn try_get_bounds() {
        let m = ExprMatrix::zeros(2, 2);
        assert_eq!(m.try_get(5, 0), Err(ExprError::RowOutOfBounds(5, 2)));
        assert_eq!(m.try_get(0, 5), Err(ExprError::ColOutOfBounds(5, 2)));
        assert_eq!(m.try_get(1, 1), Ok(Some(0.0)));
    }

    #[test]
    fn present_iter_skips_missing() {
        let mut m = ExprMatrix::zeros(1, 4);
        m.set_missing(0, 1);
        m.set(0, 2, 7.0);
        let cells: Vec<(usize, f32)> = m.present_in_row_iter(0).collect();
        assert_eq!(cells, vec![(0, 0.0), (2, 7.0), (3, 0.0)]);
    }

    #[test]
    fn select_rows_reorders_and_repeats() {
        let m = ExprMatrix::from_rows(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let s = m.select_rows(&[2, 0, 2]).unwrap();
        assert_eq!(s.n_rows(), 3);
        assert_eq!(s.get(0, 0), Some(5.0));
        assert_eq!(s.get(1, 1), Some(2.0));
        assert_eq!(s.get(2, 0), Some(5.0));
    }

    #[test]
    fn select_rows_oob() {
        let m = ExprMatrix::zeros(2, 2);
        assert!(m.select_rows(&[0, 2]).is_err());
    }

    #[test]
    fn select_cols_preserves_mask() {
        let mut m = ExprMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        m.set_missing(0, 2);
        let s = m.select_cols(&[2, 1]).unwrap();
        assert_eq!(s.get(0, 0), None);
        assert_eq!(s.get(0, 1), Some(2.0));
        assert_eq!(s.get(1, 0), Some(6.0));
    }

    #[test]
    fn transpose_roundtrip() {
        let mut m = ExprMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        m.set_missing(1, 0);
        let t = m.transpose();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.get(0, 1), None);
        assert_eq!(t.get(2, 0), Some(3.0));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn content_hash_sees_shape_values_and_mask() {
        let m = ExprMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.content_hash(), m.clone().content_hash());
        let reshaped = ExprMatrix::from_rows(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_ne!(m.content_hash(), reshaped.content_hash());
        let mut edited = m.clone();
        edited.set(1, 1, 5.5);
        assert_ne!(m.content_hash(), edited.content_hash());
        // a present 0.0 and a missing cell store the same value bits
        let mut zero = m.clone();
        zero.set(0, 0, 0.0);
        let mut gone = m.clone();
        gone.set_missing(0, 0);
        assert_ne!(zero.content_hash(), gone.content_hash());
        // set → set_missing leaves no trace of the old value
        let mut cleared = edited;
        cleared.set_missing(1, 1);
        let mut direct = m.clone();
        direct.set_missing(1, 1);
        assert_eq!(cleared.content_hash(), direct.content_hash());
    }

    fn flip_bit(m: &ExprMatrix, i: usize, bit: u32) -> ExprMatrix {
        let mut flipped = m.clone();
        let (r, c) = (i / m.n_cols(), i % m.n_cols());
        flipped.set(r, c, f32::from_bits(m.get_raw(r, c).to_bits() ^ 1 << bit));
        flipped
    }

    #[test]
    fn two_sign_flips_at_odd_indices_do_not_cancel() {
        // Word-wise FNV, `(h ^ w)·P`, keeps a bit-63 difference in bit 63
        // forever, so the second sign flip (bit 63 of the next word) undoes
        // the first and a wrong tree would be served.
        let m = ExprMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let negated = flip_bit(&flip_bit(&m, 1, 31), 3, 31);
        assert_eq!(negated.get(0, 1), Some(-2.0));
        assert_eq!(negated.get(1, 0), Some(-4.0));
        assert_ne!(m.content_hash(), negated.content_hash());
    }

    #[test]
    fn a_sign_flip_and_the_next_values_bit_four_do_not_cancel() {
        // Rotating by 5 moves a bit-63 difference to bit 4 of the state;
        // were the next word xored in unmultiplied, flipping its bit 4
        // would cancel it.
        let m = ExprMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let changed = flip_bit(&flip_bit(&m, 1, 31), 2, 4);
        assert_ne!(changed.get(0, 2), Some(3.0));
        assert_ne!(m.content_hash(), changed.content_hash());
    }

    /// An odd row count times a column count of either parity, so odd
    /// cell counts (a lone tail value) and even ones both come up; about
    /// one cell in five missing and one in five a present zero.
    fn arb_hash_matrix() -> impl Strategy<Value = ExprMatrix> {
        FnStrategy::new(|rng: &mut TestRng| {
            let n_rows = 1 + 2 * rng.below(5) as usize;
            let n_cols = 1 + rng.below(12) as usize;
            let mut m = ExprMatrix::missing(n_rows, n_cols);
            for r in 0..n_rows {
                for c in 0..n_cols {
                    match rng.below(5) {
                        0 => {}
                        1 => m.set(r, c, 0.0),
                        _ => m.set(r, c, (rng.unit_f64() * 200.0 - 100.0) as f32),
                    }
                }
            }
            m
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_single_bit_and_mask_change_moves_the_hash(m in arb_hash_matrix()) {
            let h = m.content_hash();
            for i in 0..m.n_cells() {
                let (r, c) = (i / m.n_cols(), i % m.n_cols());
                if m.is_present(r, c) {
                    for bit in 0..32 {
                        let flipped = flip_bit(&m, i, bit);
                        // a non-finite pattern cannot be stored as present
                        if flipped.is_present(r, c) {
                            prop_assert_ne!(h, flipped.content_hash(), "cell {} bit {}", i, bit);
                        }
                    }
                }
                let mut toggled = m.clone();
                if m.is_present(r, c) {
                    toggled.set_missing(r, c);
                } else {
                    toggled.set(r, c, 0.0);
                }
                prop_assert_ne!(h, toggled.content_hash(), "mask bit {}", i);
            }
        }
    }

    #[test]
    fn map_in_place_only_touches_present() {
        let mut m = ExprMatrix::from_rows(1, 3, &[1.0, 2.0, 3.0]).unwrap();
        m.set_missing(0, 1);
        m.map_in_place(|v| v * 2.0);
        assert_eq!(m.get(0, 0), Some(2.0));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(0, 2), Some(6.0));
    }

    #[test]
    fn map_in_place_nan_result_becomes_missing() {
        let mut m = ExprMatrix::from_rows(1, 2, &[0.0, 4.0]).unwrap();
        m.map_in_place(|v| v.ln());
        assert_eq!(m.get(0, 0), None); // ln(0) = -inf
        assert!(m.get(0, 1).is_some());
    }

    #[test]
    fn value_range_over_present() {
        let mut m = ExprMatrix::from_rows(2, 2, &[-3.0, 9.0, 2.0, 5.0]).unwrap();
        m.set_missing(0, 1); // exclude the 9.0
        assert_eq!(m.value_range(), Some((-3.0, 5.0)));
        assert_eq!(ExprMatrix::missing(2, 2).value_range(), None);
    }

    #[test]
    fn mask_tail_is_trimmed() {
        // 3 cells < one u64 word: the tail bits beyond cell count must be 0
        // so present_total is exact.
        let m = ExprMatrix::zeros(1, 3);
        assert_eq!(m.present_total(), 3);
    }

    #[test]
    fn large_matrix_mask_word_boundaries() {
        let mut m = ExprMatrix::zeros(3, 43); // 129 cells spans >2 words
        assert_eq!(m.present_total(), 129);
        m.set_missing(1, 21); // cell 64 exactly
        assert_eq!(m.present_total(), 128);
        assert!(!m.is_present(1, 21));
        assert!(m.is_present(1, 20));
    }
}
