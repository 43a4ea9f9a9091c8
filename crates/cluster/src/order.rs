//! Leaf-ordering improvement.
//!
//! A dendrogram fixes the *grouping* of leaves but each internal node may
//! present its children in either order — 2^(n−1) equivalent orderings.
//! TreeView-style displays look much better when adjacent rows are similar,
//! so we greedily flip children to reduce the summed distance between
//! neighbouring leaves (a cheap approximation of Bar-Joseph optimal leaf
//! ordering that preserves the tree).

use crate::distance::CondensedMatrix;
use crate::tree::ClusterTree;

/// Summed distance between adjacent leaves of `order` under `d`.
pub fn adjacent_cost(order: &[usize], d: &CondensedMatrix) -> f64 {
    order.windows(2).map(|w| d.get(w[0], w[1]) as f64).sum()
}

/// Greedy flip passes: for each internal node (bottom-up), flip its children
/// if that reduces the adjacent-leaf cost of the full ordering. Repeats up
/// to `passes` times or until no flip helps. Returns the improved leaf order
/// and the flip mask that produces it.
pub fn improve_order(
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
    use crate::distance::Metric;
    use crate::linkage::{cluster, Linkage};
    use fv_expr::matrix::ExprMatrix;

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
}
