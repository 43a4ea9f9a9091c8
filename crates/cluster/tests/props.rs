//! Property-based tests of clustering: whatever the input, the tree must
//! be structurally valid, heights monotone, leaf orders permutations, and
//! cuts proper partitions.

use fv_cluster::distance::{condensed_distances, CondensedMatrix, Metric};
use fv_cluster::linkage::{cluster_condensed, Linkage};
use fv_cluster::order::{adjacent_cost, improve_order};
use fv_cluster::tree::NodeRef;
use fv_expr::matrix::ExprMatrix;
use proptest::prelude::*;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

prop_compose! {
    /// A small matrix whose cells `value` draws from an xorshift stream.
    fn arb_matrix_of(value: fn(u64) -> f32)(
        n_rows in 2usize..24,
        n_cols in 3usize..10,
        seed in any::<u64>(),
    ) -> ExprMatrix {
        let mut s = seed | 1;
        let vals: Vec<f32> = (0..n_rows * n_cols)
            .map(|_| value(xorshift(&mut s)))
            .collect();
        ExprMatrix::from_rows(n_rows, n_cols, &vals).unwrap()
    }
}

fn arb_matrix() -> impl Strategy<Value = ExprMatrix> {
    arb_matrix_of(|s| ((s % 2001) as f32 - 1000.0) / 100.0)
}

/// Small integers only, so distances and merge heights tie often.
fn arb_integer_matrix() -> impl Strategy<Value = ExprMatrix> {
    arb_matrix_of(|s| (s % 4) as f32)
}

/// Shapes `(rows, cols)` the distance kernel must get right: degenerate,
/// many short rows (genes) and few long ones (`cluster_arrays` feeds the
/// transpose).
fn arb_shape() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        (0usize..4, 0usize..6),
        (2usize..60, 0usize..8),
        (2usize..8, 20usize..80),
    ]
}

prop_compose! {
    /// Matrices with holes: cells missing at one of four rates, and rows
    /// that are constant or missing altogether.
    fn arb_sparse_matrix()(
        (n_rows, n_cols) in arb_shape(),
        missing_pct in prop_oneof![Just(0u64), Just(5u64), Just(50u64), Just(90u64)],
        seed in any::<u64>(),
    ) -> ExprMatrix {
        let mut s = seed | 1;
        let mut m = ExprMatrix::missing(n_rows, n_cols);
        for r in 0..n_rows {
            let kind = xorshift(&mut s) % 10;
            for c in 0..n_cols {
                let v = ((xorshift(&mut s) % 2001) as f32 - 1000.0) / 100.0;
                let hole = xorshift(&mut s) % 100 < missing_pct;
                match kind {
                    0 => {} // an all-missing row
                    1 if !hole => m.set(r, c, 2.5), // a constant row
                    _ if !hole => m.set(r, c, v),
                    _ => {}
                }
            }
        }
        m
    }
}

fn arb_linkage() -> impl Strategy<Value = Linkage> {
    prop_oneof![
        Just(Linkage::Single),
        Just(Linkage::Complete),
        Just(Linkage::Average),
        Just(Linkage::Ward),
    ]
}

fn arb_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![
        Just(Metric::Pearson),
        Just(Metric::AbsPearson),
        Just(Metric::Uncentered),
        Just(Metric::Spearman),
        Just(Metric::Euclidean),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tree_structurally_valid(
        m in prop_oneof![arb_matrix(), arb_integer_matrix()],
        link in arb_linkage(),
        metric in arb_metric(),
    ) {
        let d = condensed_distances(&m, metric);
        let t = cluster_condensed(d, link);
        let n = m.n_rows();
        prop_assert_eq!(t.n_leaves(), n);
        prop_assert_eq!(t.merges().len(), n - 1);
        // root covers all leaves exactly once
        let mut order = t.leaf_order();
        order.sort_unstable();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
        // every merge counts the leaves under it
        for (i, mg) in t.merges().iter().enumerate() {
            let leaves = t.node_leaves(NodeRef::Internal(i as u32)).len();
            prop_assert_eq!(mg.size as usize, leaves, "merge {} of {:?}/{:?}", i, metric, link);
        }
    }

    #[test]
    fn condensed_pearson_is_pairwise_pearson_bit_for_bit(m in arb_sparse_matrix()) {
        for metric in [Metric::Pearson, Metric::AbsPearson] {
            let all = condensed_distances(&m, metric);
            prop_assert_eq!(all.n(), m.n_rows());
            for i in 0..m.n_rows() {
                for j in (i + 1)..m.n_rows() {
                    prop_assert_eq!(
                        all.get(i, j).to_bits(),
                        metric.distance(&m, i, j).to_bits(),
                        "{:?} differs at ({}, {})", metric, i, j
                    );
                }
            }
        }
    }

    #[test]
    fn heights_nondecreasing(m in arb_matrix(), link in arb_linkage()) {
        let d = condensed_distances(&m, Metric::Euclidean);
        let t = cluster_condensed(d, link);
        let mut last = f32::NEG_INFINITY;
        for mg in t.merges() {
            prop_assert!(mg.height >= last - 1e-4, "height {} after {last}", mg.height);
            last = mg.height;
        }
    }

    #[test]
    fn cut_k_is_partition_of_size_k(m in arb_matrix(), k in 1usize..10) {
        let d = condensed_distances(&m, Metric::Euclidean);
        let t = cluster_condensed(d, Linkage::Average);
        let k = k.min(m.n_rows());
        let labels = t.cut_k(k);
        prop_assert_eq!(labels.len(), m.n_rows());
        let distinct: std::collections::HashSet<usize> = labels.iter().copied().collect();
        prop_assert_eq!(distinct.len(), k, "cut_k({}) produced {} clusters", k, distinct.len());
        // labels densely numbered 0..k
        prop_assert_eq!(*distinct.iter().max().unwrap(), k - 1);
    }

    #[test]
    fn cut_height_refines_monotonically(m in arb_matrix()) {
        let d = condensed_distances(&m, Metric::Euclidean);
        let t = cluster_condensed(d, Linkage::Complete);
        let hmax = t.max_height();
        let coarse = t.cut_height(hmax + 1.0);
        let fine = t.cut_height(hmax / 2.0);
        // a finer cut never merges two clusters the coarse cut separates
        for i in 0..coarse.len() {
            for j in (i + 1)..coarse.len() {
                if fine[i] == fine[j] {
                    prop_assert_eq!(coarse[i], coarse[j],
                        "rows {},{} together at low cut but apart at high cut", i, j);
                }
            }
        }
    }

    #[test]
    fn improve_order_is_permutation_and_no_worse(m in arb_matrix()) {
        let d = condensed_distances(&m, Metric::Euclidean);
        let t = cluster_condensed(d.clone(), Linkage::Average);
        let before = adjacent_cost(&t.leaf_order(), &d);
        let (order, flips) = improve_order(&t, &d, 3);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..m.n_rows()).collect::<Vec<_>>());
        prop_assert!(adjacent_cost(&order, &d) <= before + 1e-9);
        prop_assert_eq!(t.leaf_order_flipped(&flips), order);
    }

    #[test]
    fn condensed_matrix_symmetric_access(n in 2usize..20, seed in any::<u64>()) {
        let c = CondensedMatrix::from_fn(n, |i, j| ((i * 31 + j * 17) as f32) + seed as f32 % 7.0);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(c.get(i, j), c.get(j, i));
            }
            prop_assert_eq!(c.get(i, i), 0.0);
        }
    }

    #[test]
    fn single_linkage_first_merge_is_min_pair(m in arb_matrix()) {
        let d = condensed_distances(&m, Metric::Euclidean);
        let (_, _, min_d) = d.min_pair().unwrap();
        let t = cluster_condensed(d, Linkage::Single);
        prop_assert!((t.merges()[0].height - min_d).abs() < 1e-5,
            "first merge {} vs min pair {min_d}", t.merges()[0].height);
    }
}
