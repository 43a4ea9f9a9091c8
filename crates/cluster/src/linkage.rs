//! Agglomerative clustering via the nearest-neighbor-chain algorithm.
//!
//! NN-chain repeatedly extends a chain of nearest neighbors until it finds a
//! reciprocal pair, merges it, and continues — O(n²) time with one condensed
//! distance matrix of memory. It is exact for *reducible* linkages
//! (single, complete, average, Ward under Lance–Williams updates), which is
//! why those four are offered. Merges are emitted in height order (the
//! scipy relabeling convention) so [`crate::tree::ClusterTree::cut_k`] can
//! cut by simply dropping the top merges.
//! Scans and folds visit only the active clusters, on one thread, and
//! decide exactly as the scan over every cluster they replaced.

use crate::distance::{condensed_distances, row_offset, CondensedMatrix, Metric};
use crate::tree::{ClusterTree, Merge, NodeRef};
use fv_expr::matrix::ExprMatrix;

/// Linkage criterion (all reducible; see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Linkage {
    /// Minimum inter-cluster distance.
    Single,
    /// Maximum inter-cluster distance.
    Complete,
    /// Unweighted average (UPGMA) — the microarray default.
    #[default]
    Average,
    /// Ward's minimum-variance criterion.
    Ward,
}

impl Linkage {
    /// Lance–Williams update: distance from cluster `k` (size `nk`) to the
    /// merge of `a` (size `na`) and `b` (size `nb`).
    fn update(&self, dka: f32, dkb: f32, dab: f32, na: f32, nb: f32, nk: f32) -> f32 {
        match self {
            Linkage::Single => 0.5 * dka + 0.5 * dkb - 0.5 * (dka - dkb).abs(),
            Linkage::Complete => 0.5 * dka + 0.5 * dkb + 0.5 * (dka - dkb).abs(),
            Linkage::Average => (na * dka + nb * dkb) / (na + nb),
            Linkage::Ward => {
                let total = na + nb + nk;
                ((na + nk) * dka + (nb + nk) * dkb - nk * dab) / total
            }
        }
    }
}

/// Cluster the rows of `m`: compute the condensed distance matrix under
/// `metric`, then run NN-chain under `linkage`.
pub fn cluster(m: &ExprMatrix, metric: Metric, linkage: Linkage) -> ClusterTree {
    let d = condensed_distances(m, metric);
    cluster_condensed(d, linkage)
}

/// Run NN-chain over a precomputed condensed distance matrix (consumed —
/// it is updated in place as clusters merge).
///
/// The active clusters are a sorted list a merge drops its absorbed one
/// from; `d(t, j)` is read in place, from row `t`'s segment for `j > t`
/// and row `j`'s for `j < t`. Same candidates, same order: every decision,
/// ties included, is the reference scan's.
pub fn cluster_condensed(mut d: CondensedMatrix, linkage: Linkage) -> ClusterTree {
    let n = d.n();
    if n <= 1 {
        return ClusterTree::new(n, Vec::new()).expect("trivial tree");
    }
    let offset: Vec<usize> = (0..n).map(|i| row_offset(n, i)).collect();
    // Where `d(x, y)` lives, `x != y`.
    let at = |x: usize, y: usize| offset[x.min(y)] + x.abs_diff(y) - 1;

    let mut active: Vec<usize> = (0..n).collect();
    let mut size: Vec<f32> = vec![1.0; n];
    // A cluster goes by a leaf of its own (a merge keeps the tip's).
    let mut raw: Vec<(u32, u32, f32)> = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);

    for _ in 0..n - 1 {
        if chain.is_empty() {
            chain.push(active[0]);
        }
        loop {
            let tip = *chain.last().unwrap();
            let prev = chain.len().checked_sub(2).map(|p| chain[p]);
            // Nearest active neighbour of tip; preferring `prev` on ties ends the chain.
            let mut best: Option<(usize, f32)> = None;
            let mut consider = |j: usize, dj: f32| {
                let better = match best {
                    None => true,
                    Some((bj, bd)) => dj < bd || (dj == bd && Some(j) == prev && Some(bj) != prev),
                };
                if better {
                    best = Some((j, dj));
                }
            };
            let split = active.partition_point(|&j| j < tip);
            for &j in &active[..split] {
                consider(j, d.data[offset[j] + (tip - j - 1)]);
            }
            let segment = &d.data[offset[tip]..];
            for &j in &active[split + 1..] {
                consider(j, segment[j - tip - 1]);
            }
            let (nn, dist) = best.expect("at least two active clusters");
            if Some(nn) != prev {
                chain.push(nn);
                continue;
            }
            // Reciprocal pair (tip, nn): fold nn into tip.
            chain.truncate(chain.len() - 2);
            let (a, b) = (tip, nn);
            let (na, nb) = (size[a], size[b]);
            raw.push((a as u32, b as u32, dist));
            active.remove(active.binary_search(&b).expect("b is active"));
            for &k in &active {
                if k != a {
                    let (ka, kb) = (at(k, a), at(k, b));
                    d.data[ka] = linkage.update(d.data[ka], d.data[kb], dist, na, nb, size[k]);
                }
            }
            size[a] = na + nb;
            break;
        }
    }
    tree_of(n, &raw)
}

/// [`cluster_condensed`], held to its contract on the way out: the tree
/// of [`cluster_condensed_reference`], merge for merge, heights bit for bit.
#[cfg(test)]
pub(crate) fn checked_cluster_condensed(d: CondensedMatrix, linkage: Linkage) -> ClusterTree {
    let want = cluster_condensed_reference(d.clone(), linkage);
    let got = cluster_condensed(d, linkage);
    let bits = |t: &ClusterTree| {
        let merges = t.merges().iter();
        merges
            .map(|m| (m.left, m.right, m.size, m.height.to_bits()))
            .collect::<Vec<_>>()
    };
    assert!(bits(&got) == bits(&want), "{linkage:?} tree differs");
    got
}

/// [`cluster_condensed`] as first written — every cluster visited, active
/// or not, through [`CondensedMatrix::get`] — kept as the reference the
/// tests hold the row-segment form to.
#[cfg(test)]
pub(crate) fn cluster_condensed_reference(mut d: CondensedMatrix, linkage: Linkage) -> ClusterTree {
    let n = d.n();
    if n <= 1 {
        return ClusterTree::new(n, Vec::new()).expect("trivial tree");
    }

    let mut active: Vec<bool> = vec![true; n];
    let mut size: Vec<f32> = vec![1.0; n];
    // Any leaf inside each active cluster, used for post-sort relabeling.
    let rep_leaf: Vec<u32> = (0..n as u32).collect();

    // Raw merges in NN-chain emission order: (leaf in A, leaf in B, height).
    let mut raw: Vec<(u32, u32, f32)> = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);

    for _ in 0..n - 1 {
        if chain.is_empty() {
            let start = (0..n)
                .find(|&i| active[i])
                .expect("an active cluster exists");
            chain.push(start);
        }
        // Extend the chain until a reciprocal nearest-neighbor pair appears.
        loop {
            let tip = *chain.last().unwrap();
            let prev = if chain.len() >= 2 {
                Some(chain[chain.len() - 2])
            } else {
                None
            };
            // Nearest active neighbor of tip, preferring `prev` on ties —
            // the tie rule that guarantees chain termination.
            let mut best: Option<(usize, f32)> = None;
            for j in 0..n {
                if j == tip || !active[j] {
                    continue;
                }
                let dj = d.get(tip, j);
                let better = match best {
                    None => true,
                    Some((bj, bd)) => dj < bd || (dj == bd && Some(j) == prev && Some(bj) != prev),
                };
                if better {
                    best = Some((j, dj));
                }
            }
            let (nn, dist) = best.expect("at least two active clusters");
            if Some(nn) == prev {
                // Reciprocal pair (tip, nn): merge.
                chain.pop();
                chain.pop();
                let (a, b) = (tip, nn);
                let (na, nb) = (size[a], size[b]);
                raw.push((rep_leaf[a], rep_leaf[b], dist));
                // Fold b into a.
                let dab = dist;
                for k in 0..n {
                    if k == a || k == b || !active[k] {
                        continue;
                    }
                    let dka = d.get(k, a);
                    let dkb = d.get(k, b);
                    d.set(k, a, linkage.update(dka, dkb, dab, na, nb, size[k]));
                }
                active[b] = false;
                size[a] = na + nb;
                // rep_leaf[a] keeps representing the merged cluster.
                break;
            }
            chain.push(nn);
        }
    }
    tree_of(n, &raw)
}

/// The tree of `n` leaves from NN-chain's merges in emission order, each
/// `(leaf in A, leaf in B, height)`.
fn tree_of(n: usize, raw: &[(u32, u32, f32)]) -> ClusterTree {
    // Sort merges by height (stable: equal heights keep emission order) and
    // relabel via union-find over representative leaves. The `f32` update
    // can round a folded distance an ulp below the true one, so where
    // distances tie a merge can come out lower than a merge it was built
    // on; the sort then puts it first and it joins smaller clusters than
    // NN-chain had folded. A node's leaf count is therefore taken from the
    // two roots joined here, not from the sizes at emission time.
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by(|&x, &y| {
        raw[x]
            .2
            .partial_cmp(&raw[y].2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.cmp(&y))
    });

    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    // Each union-find root maps to its current NodeRef.
    let mut node_of_root: Vec<NodeRef> = (0..n as u32).map(NodeRef::Leaf).collect();
    let mut leaves_of_root: Vec<u32> = vec![1; n];
    let mut merges: Vec<Merge> = Vec::with_capacity(raw.len());
    for (mi, &oi) in order.iter().enumerate() {
        let (la, lb, h) = raw[oi];
        let ra = find(&mut parent, la as usize);
        let rb = find(&mut parent, lb as usize);
        debug_assert_ne!(ra, rb, "merge joins two distinct clusters");
        merges.push(Merge {
            left: node_of_root[ra],
            right: node_of_root[rb],
            height: h,
            size: leaves_of_root[ra] + leaves_of_root[rb],
        });
        parent[rb] = ra;
        leaves_of_root[ra] += leaves_of_root[rb];
        node_of_root[ra] = NodeRef::Internal(mi as u32);
    }

    ClusterTree::new(n, merges).expect("NN-chain produces a valid tree")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-D points embedded as single-column-free rows: use a matrix whose
    /// pairwise Euclidean distances equal |xi - xj|.
    fn points(xs: &[f32]) -> ExprMatrix {
        // Three identical columns: satisfies Metric::MIN_OVERLAP while
        // keeping pairwise Euclidean distance equal to |xi - xj|.
        let mut vals = Vec::with_capacity(xs.len() * 3);
        for &x in xs {
            vals.extend_from_slice(&[x, x, x]);
        }
        ExprMatrix::from_rows(xs.len(), 3, &vals).unwrap()
    }

    #[test]
    fn three_points_single_linkage() {
        // points 0, 1, 10: first merge (0,1) at d=1, then with 10 at d=9.
        let m = points(&[0.0, 1.0, 10.0]);
        let t = cluster(&m, Metric::Euclidean, Linkage::Single);
        assert_eq!(t.merges().len(), 2);
        assert!((t.merges()[0].height - 1.0).abs() < 1e-6);
        assert!((t.merges()[1].height - 9.0).abs() < 1e-6);
        assert_eq!(t.cut_k(2), vec![0, 0, 1]);
    }

    #[test]
    fn complete_vs_single_heights() {
        let m = points(&[0.0, 1.0, 3.0]);
        let s = cluster(&m, Metric::Euclidean, Linkage::Single);
        let c = cluster(&m, Metric::Euclidean, Linkage::Complete);
        // single: root at d(1,3)=2; complete: root at d(0,3)=3
        assert!((s.merges()[1].height - 2.0).abs() < 1e-6);
        assert!((c.merges()[1].height - 3.0).abs() < 1e-6);
    }

    #[test]
    fn average_linkage_height() {
        let m = points(&[0.0, 1.0, 4.0]);
        let t = cluster(&m, Metric::Euclidean, Linkage::Average);
        // root joins {0,1} with {4}: average of d=4 and d=3 → 3.5
        assert!((t.merges()[1].height - 3.5).abs() < 1e-6);
    }

    #[test]
    fn heights_monotone_nondecreasing() {
        let xs: Vec<f32> = (0..32).map(|i| ((i * 79 % 131) as f32) * 0.37).collect();
        let m = points(&xs);
        for link in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let t = cluster(&m, Metric::Euclidean, link);
            let mut last = f32::NEG_INFINITY;
            for mg in t.merges() {
                assert!(
                    mg.height >= last - 1e-5,
                    "{link:?} heights decreased: {} after {last}",
                    mg.height
                );
                last = mg.height;
            }
        }
    }

    #[test]
    fn merge_sizes_sum_to_n() {
        let m = points(&[5.0, 1.0, 9.0, 2.0, 7.0, 3.0]);
        let t = cluster(&m, Metric::Euclidean, Linkage::Average);
        assert_eq!(t.merges().last().unwrap().size, 6);
        // each merge size equals leaves under it
        for (i, mg) in t.merges().iter().enumerate() {
            let leaves = t.node_leaves(NodeRef::Internal(i as u32));
            assert_eq!(leaves.len() as u32, mg.size);
        }
    }

    #[test]
    fn two_well_separated_groups_recovered() {
        let m = points(&[0.0, 0.1, 0.2, 10.0, 10.1, 10.2]);
        for link in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let t = cluster(&m, Metric::Euclidean, link);
            let labels = t.cut_k(2);
            assert_eq!(labels[0], labels[1]);
            assert_eq!(labels[1], labels[2]);
            assert_eq!(labels[3], labels[4]);
            assert_eq!(labels[4], labels[5]);
            assert_ne!(labels[0], labels[3], "{link:?} failed to separate groups");
        }
    }

    #[test]
    fn pearson_metric_clusters_correlated_rows() {
        // rows 0,1 perfectly correlated; row 2 anti-correlated.
        let m = ExprMatrix::from_rows(
            3,
            4,
            &[1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0, 4.0, 3.0, 2.0, 1.0],
        )
        .unwrap();
        let t = cluster(&m, Metric::Pearson, Linkage::Average);
        assert_eq!(t.cut_k(2), vec![0, 0, 1]);
    }

    #[test]
    fn tiny_inputs() {
        let t0 = cluster(
            &ExprMatrix::zeros(0, 3),
            Metric::Euclidean,
            Linkage::Average,
        );
        assert_eq!(t0.n_leaves(), 0);
        let t1 = cluster(
            &ExprMatrix::zeros(1, 3),
            Metric::Euclidean,
            Linkage::Average,
        );
        assert_eq!(t1.n_leaves(), 1);
        let t2 = cluster(&points(&[0.0, 2.0]), Metric::Euclidean, Linkage::Average);
        assert_eq!(t2.merges().len(), 1);
        assert!((t2.merges()[0].height - 2.0).abs() < 1e-6);
    }

    #[test]
    fn ties_are_deterministic() {
        // Equidistant points: repeated runs must give identical trees.
        let m = points(&[0.0, 1.0, 2.0, 3.0]);
        let t1 = cluster(&m, Metric::Euclidean, Linkage::Single);
        let t2 = cluster(&m, Metric::Euclidean, Linkage::Single);
        assert_eq!(t1, t2);
    }

    #[test]
    fn matches_bruteforce_average_linkage_small() {
        // Brute-force UPGMA reference on 7 random points.
        let xs: Vec<f32> = vec![0.3, 2.9, 1.1, 7.7, 6.5, 0.9, 4.2];
        let m = points(&xs);
        let t = cluster(&m, Metric::Euclidean, Linkage::Average);

        // reference: naive O(n^3) agglomeration tracking member lists
        let n = xs.len();
        let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let dist = |a: &[usize], b: &[usize]| -> f32 {
            let mut s = 0.0;
            for &i in a {
                for &j in b {
                    s += (xs[i] - xs[j]).abs();
                }
            }
            s / (a.len() * b.len()) as f32
        };
        let mut ref_heights = Vec::new();
        while clusters.len() > 1 {
            let mut best = (0, 1, f32::INFINITY);
            for i in 0..clusters.len() - 1 {
                for j in (i + 1)..clusters.len() {
                    let d = dist(&clusters[i], &clusters[j]);
                    if d < best.2 {
                        best = (i, j, d);
                    }
                }
            }
            ref_heights.push(best.2);
            let merged = [clusters[best.0].clone(), clusters[best.1].clone()].concat();
            clusters.remove(best.1);
            clusters.remove(best.0);
            clusters.push(merged);
        }
        ref_heights.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut got: Vec<f32> = t.merges().iter().map(|m| m.height).collect();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (g, r) in got.iter().zip(&ref_heights) {
            assert!((g - r).abs() < 1e-4, "height mismatch {g} vs {r}");
        }
    }
}
