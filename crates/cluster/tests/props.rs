//! Property-based tests of clustering: whatever the input, the tree must
//! be structurally valid, heights monotone, leaf orders permutations, and
//! cuts proper partitions.

use fv_cluster::distance::{condensed_distances, CondensedMatrix, Metric};
use fv_cluster::linkage::{cluster_condensed, Linkage};
use fv_cluster::order::{adjacent_cost, improve_order};
use fv_expr::matrix::ExprMatrix;
use proptest::prelude::*;

prop_compose! {
    fn arb_matrix()(
        n_rows in 2usize..24,
        n_cols in 3usize..10,
        seed in any::<u64>(),
    ) -> ExprMatrix {
        let mut vals = Vec::with_capacity(n_rows * n_cols);
        let mut s = seed | 1;
        for _ in 0..n_rows * n_cols {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            vals.push(((s % 2001) as f32 - 1000.0) / 100.0);
        }
        ExprMatrix::from_rows(n_rows, n_cols, &vals).unwrap()
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
    fn tree_structurally_valid(m in arb_matrix(), link in arb_linkage(), metric in arb_metric()) {
        let d = condensed_distances(&m, metric);
        let t = cluster_condensed(d, link);
        let n = m.n_rows();
        prop_assert_eq!(t.n_leaves(), n);
        prop_assert_eq!(t.merges().len(), n - 1);
        // root covers all leaves exactly once
        let mut order = t.leaf_order();
        order.sort_unstable();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
        // sizes are consistent
        prop_assert_eq!(t.merges().last().unwrap().size as usize, n);
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
