//! Dataset conditioning for correlation-as-dot-product search.
//!
//! Each gene row is z-scored (mean 0, sd 1 over present cells), missing
//! cells are filled with 0 (the row mean after centering — the neutral
//! value), and the row is scaled to unit L2 norm. After this, the Pearson
//! correlation of two genes within a dataset is approximated by the dot
//! product of their prepared vectors, which turns SPELL's inner loops into
//! dense BLAS-1 kernels.

use fv_expr::matrix::ExprMatrix;
use fv_expr::normalize;

/// A search-ready dataset: dense unit-norm rows plus presence bookkeeping.
#[derive(Debug, Clone)]
pub struct PreparedDataset {
    /// Dataset name (pane title / result label).
    pub name: String,
    /// Gene ids, one per row, as systematic-name strings.
    pub gene_ids: Vec<String>,
    /// Dense row-major unit vectors, `n_genes × n_cols`.
    data: Vec<f32>,
    n_cols: usize,
    /// Rows that had ≥ `MIN_PRESENT` present cells; others are zero vectors
    /// and excluded from scoring.
    valid: Vec<bool>,
}

impl PreparedDataset {
    /// Minimum present cells for a row to participate in search.
    pub const MIN_PRESENT: usize = 3;

    /// Prepare a dataset from an expression matrix and its gene ids.
    pub fn from_matrix(name: &str, matrix: &ExprMatrix, gene_ids: Vec<String>) -> Self {
        assert_eq!(
            gene_ids.len(),
            matrix.n_rows(),
            "gene id count must match rows"
        );
        let mut z = matrix.clone();
        normalize::zscore_rows(&mut z);
        let n_rows = z.n_rows();
        let n_cols = z.n_cols();
        let mut data = vec![0.0f32; n_rows * n_cols];
        let mut valid = vec![false; n_rows];
        for r in 0..n_rows {
            let mut norm2 = 0.0f64;
            let mut present = 0usize;
            for (c, v) in z.present_in_row_iter(r) {
                data[r * n_cols + c] = v;
                norm2 += (v as f64) * (v as f64);
                present += 1;
            }
            if present >= Self::MIN_PRESENT && norm2 > 0.0 {
                valid[r] = true;
                let inv = (1.0 / norm2.sqrt()) as f32;
                for c in 0..n_cols {
                    data[r * n_cols + c] *= inv;
                }
            } else {
                for c in 0..n_cols {
                    data[r * n_cols + c] = 0.0;
                }
            }
        }
        PreparedDataset {
            name: name.to_string(),
            gene_ids,
            data,
            n_cols,
            valid,
        }
    }

    /// Number of gene rows.
    pub fn n_genes(&self) -> usize {
        self.valid.len()
    }

    /// Number of condition columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Whether row `r` participates in search.
    pub fn is_valid(&self, r: usize) -> bool {
        self.valid[r]
    }

    /// The prepared unit vector of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.n_cols..(r + 1) * self.n_cols]
    }

    /// Dot product of two prepared rows — the correlation estimate.
    #[inline]
    pub fn corr(&self, a: usize, b: usize) -> f32 {
        let ra = self.row(a);
        let rb = self.row(b);
        let mut acc = 0.0f32;
        for i in 0..self.n_cols {
            acc += ra[i] * rb[i];
        }
        acc
    }

    /// Row index of a gene id (linear scan; engines keep their own maps).
    pub fn find_gene(&self, id: &str) -> Option<usize> {
        self.gene_ids
            .iter()
            .position(|g| g.eq_ignore_ascii_case(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("G{i}")).collect()
    }

    #[test]
    fn rows_are_unit_norm() {
        let m = ExprMatrix::from_rows(2, 4, &[1.0, 2.0, 3.0, 4.0, -1.0, 5.0, 2.0, 2.0]).unwrap();
        let p = PreparedDataset::from_matrix("d", &m, ids(2));
        for r in 0..2 {
            let n2: f32 = p.row(r).iter().map(|v| v * v).sum();
            assert!((n2 - 1.0).abs() < 1e-5, "row {r} norm² {n2}");
            assert!(p.is_valid(r));
        }
    }

    #[test]
    fn corr_matches_pearson_dense() {
        let m = ExprMatrix::from_rows(
            2,
            6,
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 1.5, 1.0, 3.5, 3.0, 5.5, 5.0],
        )
        .unwrap();
        let p = PreparedDataset::from_matrix("d", &m, ids(2));
        let a: Vec<f32> = (0..6).map(|c| m.get(0, c).unwrap()).collect();
        let b: Vec<f32> = (0..6).map(|c| m.get(1, c).unwrap()).collect();
        let exact = fv_expr::stats::pearson_dense(&a, &b).unwrap() as f32;
        assert!(
            (p.corr(0, 1) - exact).abs() < 1e-4,
            "{} vs {exact}",
            p.corr(0, 1)
        );
    }

    #[test]
    fn self_corr_is_one() {
        let m = ExprMatrix::from_rows(1, 5, &[0.3, -1.0, 2.0, 0.7, -0.4]).unwrap();
        let p = PreparedDataset::from_matrix("d", &m, ids(1));
        assert!((p.corr(0, 0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn sparse_row_invalid() {
        let mut m = ExprMatrix::from_rows(1, 5, &[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        for c in 0..3 {
            m.set_missing(0, c);
        }
        let p = PreparedDataset::from_matrix("d", &m, ids(1));
        assert!(!p.is_valid(0));
        assert!(p.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn constant_row_invalid() {
        let m = ExprMatrix::from_rows(1, 4, &[2.0, 2.0, 2.0, 2.0]).unwrap();
        let p = PreparedDataset::from_matrix("d", &m, ids(1));
        // constant row has zero variance → zero vector after z-score
        assert!(!p.is_valid(0));
    }

    #[test]
    fn missing_cells_zero_filled() {
        let mut m = ExprMatrix::from_rows(1, 4, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        m.set_missing(0, 2);
        let p = PreparedDataset::from_matrix("d", &m, ids(1));
        assert!(p.is_valid(0));
        assert_eq!(p.row(0)[2], 0.0);
    }

    #[test]
    fn anticorrelated_rows_negative_dot() {
        let m = ExprMatrix::from_rows(2, 4, &[1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        let p = PreparedDataset::from_matrix("d", &m, ids(2));
        assert!(p.corr(0, 1) < -0.99);
    }

    #[test]
    fn find_gene_case_insensitive() {
        let m = ExprMatrix::zeros(2, 4);
        let p = PreparedDataset::from_matrix("d", &m, vec!["YAL005C".into(), "YBR072W".into()]);
        assert_eq!(p.find_gene("ybr072w"), Some(1));
        assert_eq!(p.find_gene("nope"), None);
    }

    #[test]
    #[should_panic(expected = "gene id count")]
    fn mismatched_ids_panic() {
        let m = ExprMatrix::zeros(2, 3);
        let _ = PreparedDataset::from_matrix("d", &m, ids(3));
    }
}
