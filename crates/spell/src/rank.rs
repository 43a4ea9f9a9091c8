//! Weighted gene ranking.
//!
//! A gene's score is its weighted mean correlation to the query across the
//! compendium: `score(g) = Σ_d w_d · corr_d(g, Q) / Σ_{d ∋ g} w_d`, where
//! `corr_d(g, Q)` is the mean correlation of `g` to the query genes present
//! in dataset `d`, and the denominator only sums the weight of datasets
//! that actually measure `g` — so a gene measured in few (but relevant)
//! datasets is not penalized for absence elsewhere. Each gene's score
//! depends on no other gene's.

use crate::prep::PreparedDataset;

/// Per-dataset correlation of every gene row to the query rows: mean dot
/// product against the query genes' prepared vectors. Invalid rows score
/// `None`. Query rows themselves are scored too (callers typically exclude
/// them from display).
pub fn dataset_gene_scores(ds: &PreparedDataset, query_rows: &[usize]) -> Vec<Option<f32>> {
    let q: Vec<usize> = query_rows
        .iter()
        .copied()
        .filter(|&r| ds.is_valid(r))
        .collect();
    if q.is_empty() {
        return vec![None; ds.n_genes()];
    }
    // Sum the query unit vectors once; mean corr = dot(g, centroid_sum)/|Q|.
    let n_cols = ds.n_cols();
    let mut centroid = vec![0.0f32; n_cols];
    for &r in &q {
        for (c, v) in ds.row(r).iter().enumerate() {
            centroid[c] += v;
        }
    }
    let inv_q = 1.0 / q.len() as f32;
    (0..ds.n_genes())
        .map(|g| {
            if !ds.is_valid(g) {
                return None;
            }
            let row = ds.row(g);
            let mut acc = 0.0f32;
            for c in 0..n_cols {
                acc += row[c] * centroid[c];
            }
            Some(acc * inv_q)
        })
        .collect()
}

/// A ranked gene.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedGene {
    /// Systematic gene id.
    pub gene: String,
    /// Weighted mean correlation score.
    pub score: f32,
    /// Number of datasets that measured the gene with positive weight.
    pub n_datasets: usize,
    /// Whether the gene was part of the query.
    pub in_query: bool,
}

/// Combine per-dataset scores into the final ranking.
///
/// `per_dataset[d][g_universe]` must give dataset `d`'s score for universe
/// gene index `g_universe` (`None` when unmeasured/invalid); `weights[d]`
/// the dataset weights; `gene_names` the universe names; `query_set[g]`
/// marks query membership. Genes never measured in any positively-weighted
/// dataset are dropped. Sorted descending by score, ties by name.
pub fn combine_rankings(
    per_dataset: &[Vec<Option<f32>>],
    weights: &[f32],
    gene_names: &[String],
    query_set: &[bool],
) -> Vec<RankedGene> {
    assert_eq!(per_dataset.len(), weights.len());
    let n_genes = gene_names.len();
    let mut out: Vec<RankedGene> = (0..n_genes)
        .filter_map(|g| {
            let mut num = 0.0f64;
            let mut denom = 0.0f64;
            let mut n_ds = 0usize;
            for (d, scores) in per_dataset.iter().enumerate() {
                let w = weights[d];
                if w <= 0.0 {
                    continue;
                }
                if let Some(s) = scores[g] {
                    num += w as f64 * s as f64;
                    denom += w as f64;
                    n_ds += 1;
                }
            }
            if denom <= 0.0 {
                return None;
            }
            Some(RankedGene {
                gene: gene_names[g].clone(),
                score: (num / denom) as f32,
                n_datasets: n_ds,
                in_query: query_set[g],
            })
        })
        .collect();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.gene.cmp(&b.gene))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_expr::matrix::ExprMatrix;

    fn prep(vals: &[f32], rows: usize, cols: usize) -> PreparedDataset {
        let m = ExprMatrix::from_rows(rows, cols, vals).unwrap();
        let ids = (0..rows).map(|i| format!("G{i}")).collect();
        PreparedDataset::from_matrix("d", &m, ids)
    }

    #[test]
    fn correlated_gene_scores_high() {
        // rows 0,1 query; row 2 matches them; row 3 anti-correlated.
        let p = prep(
            &[
                1.0, 2.0, 3.0, 4.0, //
                1.1, 2.2, 3.1, 4.2, //
                0.9, 2.1, 2.9, 4.1, //
                4.0, 3.0, 2.0, 1.0,
            ],
            4,
            4,
        );
        let s = dataset_gene_scores(&p, &[0, 1]);
        assert!(s[2].unwrap() > 0.9);
        assert!(s[3].unwrap() < -0.9);
        assert!(s[0].unwrap() > 0.9); // query genes score high on themselves
    }

    #[test]
    fn empty_query_all_none() {
        let p = prep(&[1.0, 2.0, 3.0, 4.0], 1, 4);
        let s = dataset_gene_scores(&p, &[]);
        assert_eq!(s, vec![None]);
    }

    #[test]
    fn invalid_gene_scores_none() {
        let p = prep(
            &[
                1.0, 2.0, 3.0, 4.0, //
                5.0, 5.0, 5.0, 5.0, // constant → invalid
                1.2, 2.1, 3.3, 4.0,
            ],
            3,
            4,
        );
        let s = dataset_gene_scores(&p, &[0, 2]);
        assert!(s[1].is_none());
    }

    #[test]
    fn combine_weighted_mean() {
        let per = vec![vec![Some(1.0), Some(0.0)], vec![Some(0.0), Some(1.0)]];
        let names = vec!["A".to_string(), "B".to_string()];
        let ranked = combine_rankings(&per, &[3.0, 1.0], &names, &[false, false]);
        // A: (3*1 + 1*0)/4 = 0.75 ; B: (3*0 + 1*1)/4 = 0.25
        assert_eq!(ranked[0].gene, "A");
        assert!((ranked[0].score - 0.75).abs() < 1e-6);
        assert!((ranked[1].score - 0.25).abs() < 1e-6);
    }

    #[test]
    fn combine_normalizes_by_coverage() {
        // gene B only measured in dataset 1 but scores 1.0 there — it should
        // not be diluted by dataset 0's weight.
        let per = vec![vec![Some(0.5), None], vec![Some(0.5), Some(1.0)]];
        let names = vec!["A".to_string(), "B".to_string()];
        let ranked = combine_rankings(&per, &[1.0, 1.0], &names, &[false, false]);
        let b = ranked.iter().find(|r| r.gene == "B").unwrap();
        assert!((b.score - 1.0).abs() < 1e-6);
        assert_eq!(b.n_datasets, 1);
    }

    #[test]
    fn combine_drops_uncovered_genes() {
        let per = vec![vec![None, Some(0.3)]];
        let names = vec!["A".to_string(), "B".to_string()];
        let ranked = combine_rankings(&per, &[1.0], &names, &[false, false]);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].gene, "B");
    }

    #[test]
    fn combine_ignores_zero_weight_datasets() {
        let per = vec![vec![Some(-1.0)], vec![Some(0.8)]];
        let names = vec!["A".to_string()];
        let ranked = combine_rankings(&per, &[0.0, 1.0], &names, &[false]);
        assert!((ranked[0].score - 0.8).abs() < 1e-6);
        assert_eq!(ranked[0].n_datasets, 1);
    }

    #[test]
    fn combine_marks_query_genes() {
        let per = vec![vec![Some(0.9), Some(0.2)]];
        let names = vec!["Q".to_string(), "X".to_string()];
        let ranked = combine_rankings(&per, &[1.0], &names, &[true, false]);
        assert!(ranked[0].in_query);
        assert!(!ranked[1].in_query);
    }

    #[test]
    fn sorted_descending_with_name_ties() {
        let per = vec![vec![Some(0.5), Some(0.5), Some(0.9)]];
        let names = vec!["B".to_string(), "A".to_string(), "C".to_string()];
        let ranked = combine_rankings(&per, &[1.0], &names, &[false, false, false]);
        assert_eq!(ranked[0].gene, "C");
        assert_eq!(ranked[1].gene, "A"); // tie broken alphabetically
        assert_eq!(ranked[2].gene, "B");
    }
}
