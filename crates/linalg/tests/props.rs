//! Property-based tests of the linear-algebra kernels: decompositions must
//! reconstruct their input and produce orthonormal factors for arbitrary
//! matrices.

use fv_linalg::dense::{dot, Matrix};
use fv_linalg::svd::svd;
use proptest::prelude::*;

prop_compose! {
    fn arb_matrix(max_rows: usize, max_cols: usize)(
        n_rows in 1usize..=8,
        n_cols in 1usize..=8,
        seed in any::<u64>(),
    ) -> Matrix {
        let n_rows = n_rows.min(max_rows);
        let n_cols = n_cols.min(max_cols);
        let mut m = Matrix::zeros(n_rows, n_cols);
        let mut s = seed | 1;
        for r in 0..n_rows {
            for c in 0..n_cols {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                m.set(r, c, ((s % 2001) as f64 - 1000.0) / 100.0);
            }
        }
        m
    }
}

fn frob(m: &Matrix) -> f64 {
    m.frobenius_norm().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn svd_reconstructs(a in arb_matrix(8, 8)) {
        let d = svd(&a);
        let r = d.reconstruct();
        prop_assert!(r.max_abs_diff(&a) < 1e-8 * frob(&a), "reconstruction error");
        // singular values descending and nonnegative
        for w in d.sigma.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        for &s in &d.sigma {
            prop_assert!(s >= 0.0);
        }
    }

    #[test]
    fn svd_factors_orthonormal(a in arb_matrix(8, 8)) {
        let d = svd(&a);
        for m in [&d.u, &d.v] {
            for i in 0..m.n_cols() {
                let nii = dot(m.col(i), m.col(i));
                if nii < 1e-9 { continue; } // zero columns for zero σ
                prop_assert!((nii - 1.0).abs() < 1e-8);
                for j in (i + 1)..m.n_cols() {
                    prop_assert!(dot(m.col(i), m.col(j)).abs() < 1e-7);
                }
            }
        }
    }

    #[test]
    fn svd_frobenius_identity(a in arb_matrix(8, 8)) {
        // ‖A‖_F² = Σ σᵢ²
        let d = svd(&a);
        let sum_sq: f64 = d.sigma.iter().map(|s| s * s).sum();
        let f2 = a.frobenius_norm().powi(2);
        prop_assert!((sum_sq - f2).abs() < 1e-7 * (1.0 + f2));
    }

    #[test]
    fn rank_truncation_error_decreases(a in arb_matrix(8, 8)) {
        // Eckart–Young: the FROBENIUS error of the rank-r truncation is
        // exactly sqrt(Σ_{i>r} σᵢ²), so it decreases monotonically in r
        // (the max-abs error need not).
        let d = svd(&a);
        let mut last = f64::INFINITY;
        for r in 1..=d.sigma.len() {
            let err = (&d.reconstruct_rank(r) - &a).frobenius_norm();
            prop_assert!(err <= last + 1e-9, "rank-{} error {} worse than rank-{} {}", r, err, r-1, last);
            let tail: f64 = d.sigma[r..].iter().map(|s| s * s).sum();
            prop_assert!((err - tail.sqrt()).abs() < 1e-7 * (1.0 + tail.sqrt()),
                "Eckart-Young identity violated: {} vs {}", err, tail.sqrt());
            last = err;
        }
    }

    #[test]
    fn matmul_associative(a in arb_matrix(5, 5), seed in any::<u64>()) {
        // (A·A)·A == A·(A·A) for square A
        if a.n_rows() != a.n_cols() { return Ok(()); }
        let _ = seed;
        let left = a.matmul(&a).matmul(&a);
        let right = a.matmul(&a.matmul(&a));
        prop_assert!(left.max_abs_diff(&right) < 1e-6 * frob(&a).powi(3));
    }
}
