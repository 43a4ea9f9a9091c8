//! # fv-linalg — small dense linear algebra for ForestView's analysis engines
//!
//! SPELL's signal-balancing step (Hibbs et al. 2007, paper reference [8])
//! reconstructs each dataset from its dominant singular vectors so that one
//! overwhelming biological signal cannot drown the search. That requires an
//! SVD; rather than pulling a heavyweight BLAS dependency into an otherwise
//! self-contained reproduction, this crate implements the handful of dense
//! kernels the analysis layer needs:
//!
//! - [`dense::Matrix`] — column-major `f64` matrix with the usual ops,
//! - [`svd`] — one-sided Jacobi SVD (accurate for the small-to-medium
//!   condition-count matrices microarray datasets produce),
//! - [`power`] — power iteration for the dominant eigenpair.
//!
//! Matrices here are `f64` (not the `f32` of expression storage): these
//! routines run on per-dataset condition-count-sized problems where the
//! extra precision is cheap and appreciated.

#![forbid(unsafe_code)]

pub mod dense;
pub mod power;
pub mod svd;

pub use dense::Matrix;
pub use svd::Svd;
