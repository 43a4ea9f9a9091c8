//! GO-term enrichment of a gene list.
//!
//! For every term with at least `min_annotated` propagated annotations,
//! compute the hypergeometric upper-tail p-value of the query list's
//! overlap, then attach Bonferroni and Benjamini–Hochberg corrections.
//! A compendium-scale ontology has thousands of testable terms; each
//! term's test is independent of the others.

use crate::correct::benjamini_hochberg;
use crate::hypergeom::sf;
use fv_ontology::annotations::PropagatedAnnotations;
use fv_ontology::dag::OntologyDag;
use fv_ontology::term::TermId;

/// Configuration for an enrichment run.
#[derive(Debug, Clone, Copy)]
pub struct EnrichmentConfig {
    /// Skip terms with fewer propagated annotations than this (tiny terms
    /// produce unstable statistics). GOLEM's default is 2.
    pub min_annotated: usize,
    /// Skip terms annotating more than this fraction of the population
    /// (near-root terms are uninformative). 1.0 disables the filter.
    pub max_population_fraction: f64,
    /// Only report results with raw p below this (1.0 reports everything).
    pub p_cutoff: f64,
}

impl Default for EnrichmentConfig {
    fn default() -> Self {
        EnrichmentConfig {
            min_annotated: 2,
            max_population_fraction: 0.5,
            p_cutoff: 1.0,
        }
    }
}

/// One term's enrichment statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EnrichmentResult {
    /// The tested term.
    pub term: TermId,
    /// Query genes annotated to the term (k).
    pub overlap: usize,
    /// Population genes annotated to the term (K).
    pub annotated: usize,
    /// Query size counted in the population (n).
    pub query_size: usize,
    /// Population size (N).
    pub population: usize,
    /// Raw hypergeometric upper-tail p-value.
    pub p_value: f64,
    /// Bonferroni-adjusted p-value.
    pub p_bonferroni: f64,
    /// Benjamini–Hochberg q-value.
    pub q_value: f64,
    /// Fold enrichment: (k/n) / (K/N).
    pub fold: f64,
}

/// Run enrichment of `query` (gene names) against the propagated
/// annotations. Genes absent from the population are dropped from the
/// query. Results are sorted by ascending p-value, ties by term id.
pub fn enrich(
    dag: &OntologyDag,
    ann: &PropagatedAnnotations,
    query: &[&str],
    config: &EnrichmentConfig,
) -> Vec<EnrichmentResult> {
    let population = ann.n_genes();
    if population == 0 {
        return Vec::new();
    }
    // Deduplicate query genes that exist in the population.
    let mut q: Vec<&str> = query
        .iter()
        .copied()
        .filter(|g| ann.gene_population_index(g).is_some())
        .collect();
    q.sort_unstable();
    q.dedup();
    let n = q.len();
    if n == 0 {
        return Vec::new();
    }

    let max_annotated = (config.max_population_fraction * population as f64).ceil() as usize;
    let candidates: Vec<TermId> = dag
        .ids()
        .filter(|&t| !dag.term(t).obsolete)
        .filter(|&t| {
            let k_ann = ann.count(t);
            k_ann >= config.min_annotated && k_ann <= max_annotated
        })
        .collect();

    let mut results: Vec<EnrichmentResult> = candidates
        .iter()
        .filter_map(|&t| {
            let k_ann = ann.count(t);
            let overlap = ann.count_overlap(t, &q);
            if overlap == 0 {
                return None;
            }
            let p = sf(population as u64, k_ann as u64, n as u64, overlap as u64);
            let fold = (overlap as f64 / n as f64) / (k_ann as f64 / population as f64);
            Some(EnrichmentResult {
                term: t,
                overlap,
                annotated: k_ann,
                query_size: n,
                population,
                p_value: p,
                p_bonferroni: 0.0,
                q_value: 0.0,
                fold,
            })
        })
        .collect();

    // Correct over the number of *candidate* terms (the tests performed),
    // not just those with non-zero overlap — zero-overlap terms have p = 1
    // and cannot change BH ranks below existing p-values, but they do count
    // toward the Bonferroni denominator.
    let m = candidates.len().max(1);
    let pvals: Vec<f64> = results.iter().map(|r| r.p_value).collect();
    let qvals = benjamini_hochberg(&pvals);
    let bon: Vec<f64> = pvals.iter().map(|&p| (p * m as f64).min(1.0)).collect();
    for (r, (qv, bv)) in results.iter_mut().zip(qvals.into_iter().zip(bon)) {
        r.q_value = qv;
        r.p_bonferroni = bv;
    }

    results.retain(|r| r.p_value <= config.p_cutoff);
    results.sort_by(|a, b| {
        a.p_value
            .partial_cmp(&b.p_value)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.term.cmp(&b.term))
    });
    results
}

// Re-export for callers that correct externally-generated p-value sets.
pub use crate::correct::benjamini_hochberg as correct_bh;
pub use crate::correct::bonferroni as correct_bonferroni;

#[cfg(test)]
mod tests {
    use super::*;
    use fv_ontology::annotations::AnnotationSet;
    use fv_ontology::dag::{DagBuilder, RelType};
    use fv_ontology::term::{Namespace, Term};

    /// root ← stress ← heat; root ← other. 40 genes:
    /// g0..g9 heat, g10..g19 stress(only), g20..39 other.
    fn setup() -> (OntologyDag, PropagatedAnnotations) {
        let mut b = DagBuilder::new();
        let root = b
            .add_term(Term::new("GO:R", "root", Namespace::BiologicalProcess))
            .unwrap();
        let stress = b
            .add_term(Term::new("GO:S", "stress", Namespace::BiologicalProcess))
            .unwrap();
        let heat = b
            .add_term(Term::new("GO:H", "heat", Namespace::BiologicalProcess))
            .unwrap();
        let other = b
            .add_term(Term::new("GO:O", "other", Namespace::BiologicalProcess))
            .unwrap();
        b.add_edge(stress, root, RelType::IsA);
        b.add_edge(heat, stress, RelType::IsA);
        b.add_edge(other, root, RelType::IsA);
        let dag = b.build().unwrap();

        let mut ann = AnnotationSet::new();
        for i in 0..40 {
            let g = format!("g{i}");
            if i < 10 {
                ann.annotate(&g, heat);
            } else if i < 20 {
                ann.annotate(&g, stress);
            } else {
                ann.annotate(&g, other);
            }
        }
        let p = ann.propagate(&dag);
        (dag, p)
    }

    #[test]
    fn heat_cluster_is_enriched() {
        let (dag, p) = setup();
        let query: Vec<String> = (0..8).map(|i| format!("g{i}")).collect();
        let q: Vec<&str> = query.iter().map(|s| s.as_str()).collect();
        let res = enrich(&dag, &p, &q, &EnrichmentConfig::default());
        assert!(!res.is_empty());
        // heat should be the top hit
        let heat = dag.lookup("GO:H").unwrap();
        assert_eq!(res[0].term, heat);
        assert!(res[0].p_value < 1e-6);
        assert_eq!(res[0].overlap, 8);
        assert_eq!(res[0].annotated, 10);
        assert!(res[0].fold > 3.0);
    }

    #[test]
    fn random_query_not_significant() {
        let (dag, p) = setup();
        // one gene from each bucket
        let res = enrich(
            &dag,
            &p,
            &["g0", "g15", "g25", "g35"],
            &EnrichmentConfig::default(),
        );
        for r in &res {
            assert!(r.p_bonferroni > 0.05, "{:?}", r);
        }
    }

    #[test]
    fn near_root_terms_filtered() {
        let (dag, p) = setup();
        let query: Vec<String> = (0..8).map(|i| format!("g{i}")).collect();
        let q: Vec<&str> = query.iter().map(|s| s.as_str()).collect();
        let res = enrich(&dag, &p, &q, &EnrichmentConfig::default());
        let root = dag.lookup("GO:R").unwrap();
        // root annotates 100% > 50% default cap
        assert!(res.iter().all(|r| r.term != root));
    }

    #[test]
    fn unknown_query_genes_dropped() {
        let (dag, p) = setup();
        let res = enrich(
            &dag,
            &p,
            &["g0", "g1", "nope", "zzz"],
            &EnrichmentConfig::default(),
        );
        assert!(res.iter().all(|r| r.query_size == 2));
    }

    #[test]
    fn duplicate_query_genes_counted_once() {
        let (dag, p) = setup();
        let res = enrich(&dag, &p, &["g0", "g0", "g1"], &EnrichmentConfig::default());
        assert!(res.iter().all(|r| r.query_size == 2));
    }

    #[test]
    fn empty_query_empty_result() {
        let (dag, p) = setup();
        assert!(enrich(&dag, &p, &[], &EnrichmentConfig::default()).is_empty());
        assert!(enrich(&dag, &p, &["unknown"], &EnrichmentConfig::default()).is_empty());
    }

    #[test]
    fn results_sorted_by_p() {
        let (dag, p) = setup();
        let query: Vec<String> = (0..12).map(|i| format!("g{i}")).collect();
        let q: Vec<&str> = query.iter().map(|s| s.as_str()).collect();
        let res = enrich(&dag, &p, &q, &EnrichmentConfig::default());
        for w in res.windows(2) {
            assert!(w[0].p_value <= w[1].p_value);
        }
    }

    #[test]
    fn p_cutoff_filters() {
        let (dag, p) = setup();
        let query: Vec<String> = (0..8).map(|i| format!("g{i}")).collect();
        let q: Vec<&str> = query.iter().map(|s| s.as_str()).collect();
        let all = enrich(&dag, &p, &q, &EnrichmentConfig::default());
        let tight = enrich(
            &dag,
            &p,
            &q,
            &EnrichmentConfig {
                p_cutoff: 1e-6,
                ..EnrichmentConfig::default()
            },
        );
        assert!(tight.len() <= all.len());
        assert!(tight.iter().all(|r| r.p_value <= 1e-6));
    }

    #[test]
    fn corrections_attached_and_ordered() {
        let (dag, p) = setup();
        let query: Vec<String> = (0..8).map(|i| format!("g{i}")).collect();
        let q: Vec<&str> = query.iter().map(|s| s.as_str()).collect();
        let res = enrich(&dag, &p, &q, &EnrichmentConfig::default());
        for r in &res {
            assert!(r.q_value >= r.p_value - 1e-12);
            assert!(r.p_bonferroni >= r.q_value - 1e-12);
            assert!(r.p_bonferroni <= 1.0);
        }
    }
}
