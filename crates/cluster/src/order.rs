//! Leaf-ordering improvement.
//!
//! A dendrogram fixes the *grouping* of leaves but each internal node may
//! present its children in either order — 2^(n−1) equivalent orderings.
//! TreeView-style displays look much better when adjacent rows are similar,
//! so we greedily flip children to reduce the summed distance between
//! neighbouring leaves (a cheap approximation of Bar-Joseph optimal leaf
//! ordering that preserves the tree).

use crate::distance::CondensedMatrix;
use crate::tree::{ClusterTree, NodeRef};

/// Summed distance between adjacent leaves of `order` under `d`.
pub fn adjacent_cost(order: &[usize], d: &CondensedMatrix) -> f64 {
    order.windows(2).map(|w| d.get(w[0], w[1]) as f64).sum()
}

/// Greedy flip passes: for each internal node (bottom-up), flip its children
/// if that reduces the adjacent-leaf cost of the full ordering. Repeats up
/// to `passes` times or until no flip helps. Returns the improved leaf order
/// and the flip mask that produces it.
///
/// The leaves under a node are one contiguous span of the order and its two
/// children are adjacent blocks of that span, so a flip swaps the blocks
/// without touching anything inside or outside them: it breaks at most
/// three adjacencies (before, between and after the blocks) and makes three
/// others. A candidate is priced from those alone and an accepted flip is a
/// rotation of the span. Span widths are summed from the children here, not
/// read from [`Merge::size`](crate::tree::Merge), which
/// [`ClusterTree::new`] does not check.
pub fn improve_order(
    tree: &ClusterTree,
    d: &CondensedMatrix,
    passes: usize,
) -> (Vec<usize>, Vec<bool>) {
    let merges = tree.merges();
    let mut flip = vec![false; merges.len()];
    let mut order = tree.leaf_order();
    let mut pos = vec![0usize; order.len()];
    for (p, &leaf) in order.iter().enumerate() {
        pos[leaf] = p;
    }
    let mut width = vec![0usize; merges.len()];
    let width_of = |node: NodeRef, width: &[usize]| match node {
        NodeRef::Leaf(_) => 1,
        NodeRef::Internal(c) => width[c as usize],
    };
    for (mi, m) in merges.iter().enumerate() {
        width[mi] = width_of(m.left, &width) + width_of(m.right, &width);
    }

    // A node's children in display order under `flip`.
    let children = |mi: usize, flip: &[bool]| {
        let m = &merges[mi];
        if flip[mi] {
            (m.right, m.left)
        } else {
            (m.left, m.right)
        }
    };

    for _ in 0..passes.max(1) {
        let mut improved = false;
        for mi in 0..merges.len() {
            let (first, second) = children(mi, &flip);
            // The span starts at the node's first leaf under today's flips.
            let mut node = first;
            let start = loop {
                match node {
                    NodeRef::Leaf(l) => break pos[l as usize],
                    NodeRef::Internal(c) => node = children(c as usize, &flip).0,
                }
            };
            let (w1, w2) = (width_of(first, &width), width_of(second, &width));
            let (mid, end) = (start + w1, start + w1 + w2);
            let dist = |a: usize, b: usize| d.get(order[a], order[b]) as f64;
            // first = [start, mid), second = [mid, end): after the flip the
            // order reads … before | second | first | after …
            let mut delta = dist(end - 1, start) - dist(mid - 1, mid);
            if start > 0 {
                delta += dist(start - 1, mid) - dist(start - 1, start);
            }
            if end < order.len() {
                delta += dist(mid - 1, end) - dist(end - 1, end);
            }
            if delta < -1e-12 {
                flip[mi] = !flip[mi];
                order[start..end].rotate_left(w1);
                for p in start..end {
                    pos[order[p]] = p;
                }
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    (order, flip)
}

/// [`improve_order`] as first written — rebuild the whole order and re-sum
/// its cost for every candidate flip — kept as the reference the tests hold
/// the incremental form to.
#[cfg(test)]
pub(crate) fn improve_order_reference(
    tree: &ClusterTree,
    d: &CondensedMatrix,
    passes: usize,
) -> (Vec<usize>, Vec<bool>) {
    let n_merges = tree.merges().len();
    let mut flip = vec![false; n_merges];
    if n_merges == 0 {
        return (tree.leaf_order(), flip);
    }
    let mut best_order = tree.leaf_order_flipped(&flip);
    let mut best_cost = adjacent_cost(&best_order, d);

    for _ in 0..passes.max(1) {
        let mut improved = false;
        for m in 0..n_merges {
            flip[m] = !flip[m];
            let cand = tree.leaf_order_flipped(&flip);
            let cost = adjacent_cost(&cand, d);
            if cost + 1e-12 < best_cost {
                best_cost = cost;
                best_order = cand;
                improved = true;
            } else {
                flip[m] = !flip[m]; // revert
            }
        }
        if !improved {
            break;
        }
    }
    (best_order, flip)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{checked_condensed_distances, condensed_distances, Metric};
    use crate::linkage::{checked_cluster_condensed, cluster, Linkage};
    use crate::tree::Merge;
    use fv_expr::matrix::ExprMatrix;
    use fv_synth::scenario::Scenario;
    use proptest::prelude::*;

    const LINKAGES: [Linkage; 4] = [
        Linkage::Single,
        Linkage::Complete,
        Linkage::Average,
        Linkage::Ward,
    ];

    /// The incremental orderer must make the reference's decisions: same
    /// order, same flip mask, on the tree of `d` under every linkage.
    fn assert_orders_as_reference(d: &CondensedMatrix, passes: &[usize], what: &str) {
        for linkage in LINKAGES {
            let tree = checked_cluster_condensed(d.clone(), linkage);
            for &p in passes {
                assert_eq!(
                    improve_order(&tree, d, p),
                    improve_order_reference(&tree, d, p),
                    "{what}, {linkage:?}, {p} passes"
                );
            }
        }
    }

    fn points(xs: &[f32]) -> ExprMatrix {
        let mut vals = Vec::with_capacity(xs.len() * 3);
        for &x in xs {
            vals.extend_from_slice(&[x, x, x]);
        }
        ExprMatrix::from_rows(xs.len(), 3, &vals).unwrap()
    }

    fn dmat(xs: &[f32]) -> CondensedMatrix {
        let m = points(xs);
        crate::distance::condensed_distances(&m, Metric::Euclidean)
    }

    #[test]
    fn adjacent_cost_computes() {
        let d = dmat(&[0.0, 1.0, 3.0]);
        // order 0,1,2 → |0-1| + |1-3| = 1 + 2
        assert!((adjacent_cost(&[0, 1, 2], &d) - 3.0).abs() < 1e-6);
        // order 1,0,2 → 1 + 3
        assert!((adjacent_cost(&[1, 0, 2], &d) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn improve_never_worsens() {
        let xs: Vec<f32> = vec![3.0, 0.5, 2.2, 9.0, 0.1, 5.5, 4.4, 8.8];
        let d = dmat(&xs);
        let t = cluster(&points(&xs), Metric::Euclidean, Linkage::Average);
        let before = adjacent_cost(&t.leaf_order(), &d);
        let (order, _) = improve_order(&t, &d, 5);
        let after = adjacent_cost(&order, &d);
        assert!(
            after <= before + 1e-9,
            "cost increased: {before} -> {after}"
        );
    }

    #[test]
    fn improved_order_is_permutation() {
        let xs: Vec<f32> = (0..16).map(|i| ((i * 53 % 97) as f32) * 0.11).collect();
        let d = dmat(&xs);
        let t = cluster(&points(&xs), Metric::Euclidean, Linkage::Complete);
        let (order, flip) = improve_order(&t, &d, 3);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_eq!(flip.len(), t.merges().len());
        // flip mask reproduces the order
        assert_eq!(t.leaf_order_flipped(&flip), order);
    }

    #[test]
    fn trivial_trees() {
        let t = ClusterTree::new(1, vec![]).unwrap();
        let d = CondensedMatrix::from_fn(1, |_, _| 0.0);
        let (order, flip) = improve_order(&t, &d, 3);
        assert_eq!(order, vec![0]);
        assert!(flip.is_empty());
    }

    #[test]
    fn flip_actually_helps_constructed_case() {
        // Points laid out so the default DFS order is suboptimal: tree
        // merges (0,1) then (2,3) then root; placing 1 next to 2 matters.
        let xs = vec![0.0, 5.0, 5.1, 10.0];
        let d = dmat(&xs);
        let t = cluster(&points(&xs), Metric::Euclidean, Linkage::Single);
        let (order, _) = improve_order(&t, &d, 4);
        let cost = adjacent_cost(&order, &d);
        // optimal chains the points monotonically: cost = 10.0
        assert!(cost <= 10.0 + 1e-5, "cost {cost} not near optimal");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn incremental_orderer_equals_reference(
            n_rows in 2usize..40,
            n_cols in 3usize..8,
            levels in prop_oneof![Just(4u64), Just(2001u64)],
            metric in prop_oneof![Just(Metric::Euclidean), Just(Metric::Pearson), Just(Metric::Spearman)],
            passes in 0usize..6,
            seed in any::<u64>(),
        ) {
            // Four levels make distances tie; 2001 make them distinct.
            let mut s = seed | 1;
            let vals: Vec<f32> = (0..n_rows * n_cols)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s % levels) as f32 / 7.0
                })
                .collect();
            let m = ExprMatrix::from_rows(n_rows, n_cols, &vals).unwrap();
            let d = condensed_distances(&m, metric);
            assert_orders_as_reference(&d, &[passes], "random matrix");
        }
    }

    #[test]
    fn synth_catalog_orders_as_reference() {
        for (n_genes, seed) in [(60, 1), (120, 8), (200, 2007)] {
            for ds in Scenario::three_datasets(n_genes, seed).datasets {
                // Spearman for its many exactly tied distances.
                for metric in [Metric::Pearson, Metric::Spearman] {
                    let what = format!("{} x{n_genes} seed {seed} {metric:?}", ds.name);
                    let genes = condensed_distances(&ds.matrix, metric);
                    assert_orders_as_reference(&genes, &[1, 2, 5], &what);
                    let arrays = condensed_distances(&ds.matrix.transpose(), metric);
                    assert_orders_as_reference(&arrays, &[1, 2, 5], &what);
                }
            }
        }
    }

    #[test]
    fn span_widths_do_not_come_from_merge_size() {
        let xs: Vec<f32> = (0..24).map(|i| ((i * 53 % 97) as f32) * 0.11).collect();
        let d = dmat(&xs);
        let t = cluster(&points(&xs), Metric::Euclidean, Linkage::Average);
        let unsized_merges = t.merges().iter().map(|m| Merge { size: 0, ..*m }).collect();
        let unsized_tree = ClusterTree::new(24, unsized_merges).unwrap();
        assert_eq!(
            improve_order(&unsized_tree, &d, 3),
            improve_order(&t, &d, 3)
        );
    }

    /// The equalities the kernels rest on, at the sizes the benchmark runs:
    /// distances equal the per-pair definition bit for bit, NN-chain builds
    /// the reference's tree under every linkage, and the orderer decides as
    /// the reference does. Too slow for a debug build; CI runs it with
    /// `cargo test -p fv-cluster --release -- --ignored`.
    #[test]
    #[ignore = "benchmark-size inputs; run in release"]
    fn equalities_hold_at_benchmark_size() {
        for (n_genes, seed) in [(1000, 1), (2000, 2)] {
            for ds in Scenario::three_datasets(n_genes, seed).datasets {
                for metric in [Metric::Pearson, Metric::AbsPearson] {
                    let d = checked_condensed_distances(&ds.matrix, metric);
                    let what = format!("{} x{n_genes} {metric:?}", ds.name);
                    assert_orders_as_reference(&d, &[2], &what);
                }
            }
        }
    }
}
