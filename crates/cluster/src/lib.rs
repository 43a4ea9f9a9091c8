//! # fv-cluster — hierarchical clustering for ForestView
//!
//! ForestView panes display "the gene and array hierarchies" (paper,
//! Section 2) — the dendrograms produced by agglomerative clustering of
//! genes (rows) and arrays (columns), in the tradition of Eisen's Cluster /
//! Java TreeView. CDT/GTR/ATR files store the result; this crate computes
//! it:
//!
//! - [`distance`] — the Cluster-3.0 family of row metrics (Pearson,
//!   absolute/uncentered Pearson, Spearman, Euclidean), with missing-value
//!   aware pairwise computation and a condensed distance matrix filled in
//!   pair-balanced row bands across the cores, bit-identical at any count,
//! - [`linkage`] — agglomerative clustering via the nearest-neighbor-chain
//!   algorithm with Lance–Williams updates (single, complete, average,
//!   Ward), O(n²) over the active clusters, one condensed matrix of space,
//! - [`tree`] — the merge tree, leaf ordering, and cluster extraction by
//!   count or height,
//! - [`order`] — leaf-ordering improvement by subtree flipping,
//! - [`impute`] — KNN imputation of missing values (Troyanskaya et al.
//!   2001), the standard preprocessing before clustering sparse arrays.

#![forbid(unsafe_code)]

pub mod distance;
pub mod impute;
pub mod linkage;
pub mod order;
pub mod tree;

pub use distance::{condensed_distances, CondensedMatrix, Metric};
pub use linkage::{cluster, Linkage};
pub use tree::{ClusterTree, Merge, NodeRef};
