//! Gene↔term annotations with true-path propagation.
//!
//! The *true-path rule*: a gene directly annotated to a term is implicitly
//! annotated to every ancestor of that term. GOLEM's enrichment statistics
//! count propagated annotations, so propagation is computed once here and
//! cached as per-term sorted gene lists.

use crate::dag::OntologyDag;
use crate::term::TermId;
use std::collections::{HashMap, HashSet};

/// A set of gene→term annotations over a fixed gene population.
///
/// Genes are plain strings (systematic names); the population is every gene
/// that appears in at least one annotation plus any genes registered via
/// [`AnnotationSet::ensure_gene`] (unannotated background genes matter for
/// enrichment statistics).
#[derive(Debug, Clone, Default)]
pub struct AnnotationSet {
    genes: Vec<String>,
    gene_index: HashMap<String, u32>,
    /// Direct annotations: per gene, the terms it is annotated to.
    direct: Vec<Vec<TermId>>,
}

impl AnnotationSet {
    /// Empty annotation set.
    pub fn new() -> Self {
        AnnotationSet::default()
    }

    /// Register a gene (idempotent), returning its internal index.
    pub fn ensure_gene(&mut self, gene: &str) -> u32 {
        if let Some(&i) = self.gene_index.get(gene) {
            return i;
        }
        let i = self.genes.len() as u32;
        self.genes.push(gene.to_string());
        self.gene_index.insert(gene.to_string(), i);
        self.direct.push(Vec::new());
        i
    }

    /// Annotate `gene` directly to `term`.
    pub fn annotate(&mut self, gene: &str, term: TermId) {
        let gi = self.ensure_gene(gene) as usize;
        if !self.direct[gi].contains(&term) {
            self.direct[gi].push(term);
        }
    }

    /// Number of genes in the population.
    pub fn n_genes(&self) -> usize {
        self.genes.len()
    }

    /// Gene names in registration order.
    pub fn genes(&self) -> &[String] {
        &self.genes
    }

    /// Direct annotations of a gene.
    pub fn direct_terms(&self, gene: &str) -> &[TermId] {
        match self.gene_index.get(gene) {
            Some(&i) => &self.direct[i as usize],
            None => &[],
        }
    }

    /// Propagate annotations up the DAG, producing a [`PropagatedAnnotations`]
    /// index: for every term, the set of genes annotated to it or to any
    /// descendant.
    pub fn propagate(&self, dag: &OntologyDag) -> PropagatedAnnotations {
        let n_terms = dag.n_terms();
        let mut gene_sets: Vec<HashSet<u32>> = vec![HashSet::new(); n_terms];
        for (gi, terms) in self.direct.iter().enumerate() {
            for &t in terms {
                gene_sets[t.index()].insert(gi as u32);
            }
        }
        // Walk terms children-before-parents (reverse topological order) and
        // union each term's genes into its parents.
        let topo = dag.topological_order().to_vec();
        for &t in topo.iter().rev() {
            if gene_sets[t.index()].is_empty() {
                continue;
            }
            let genes: Vec<u32> = gene_sets[t.index()].iter().copied().collect();
            for &(p, _) in dag.parents(t) {
                gene_sets[p.index()].extend(genes.iter().copied());
            }
        }
        let per_term: Vec<Vec<u32>> = gene_sets
            .into_iter()
            .map(|s| {
                let mut v: Vec<u32> = s.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();
        PropagatedAnnotations {
            genes: self.genes.clone(),
            gene_index: self.gene_index.clone(),
            per_term,
        }
    }
}

/// Propagated annotation index: per-term sorted gene lists.
#[derive(Debug, Clone)]
pub struct PropagatedAnnotations {
    genes: Vec<String>,
    gene_index: HashMap<String, u32>,
    per_term: Vec<Vec<u32>>,
}

impl PropagatedAnnotations {
    /// Number of genes in the population (enrichment background size).
    pub fn n_genes(&self) -> usize {
        self.genes.len()
    }

    /// Number of genes annotated (after propagation) to `term`.
    pub fn count(&self, term: TermId) -> usize {
        self.per_term[term.index()].len()
    }

    /// Gene names annotated (after propagation) to `term`.
    pub fn genes_for(&self, term: TermId) -> Vec<&str> {
        self.per_term[term.index()]
            .iter()
            .map(|&i| self.genes[i as usize].as_str())
            .collect()
    }

    /// Whether `gene` is annotated (after propagation) to `term`.
    pub fn is_annotated(&self, gene: &str, term: TermId) -> bool {
        match self.gene_index.get(gene) {
            Some(&gi) => self.per_term[term.index()].binary_search(&gi).is_ok(),
            None => false,
        }
    }

    /// Count how many of the given genes are annotated to `term`
    /// (the overlap statistic enrichment tests need). Unknown gene names
    /// are ignored.
    pub fn count_overlap(&self, term: TermId, genes: &[&str]) -> usize {
        genes.iter().filter(|g| self.is_annotated(g, term)).count()
    }

    /// Resolve a gene name to the internal population index.
    pub fn gene_population_index(&self, gene: &str) -> Option<u32> {
        self.gene_index.get(gene).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{DagBuilder, RelType};
    use crate::term::{Namespace, Term};

    /// A → B → D and A → C → D (diamond with D the leaf), plus lone E.
    fn dag() -> (OntologyDag, TermId, TermId, TermId, TermId, TermId) {
        let mut b = DagBuilder::new();
        let a = b
            .add_term(Term::new("GO:A", "a", Namespace::BiologicalProcess))
            .unwrap();
        let bb = b
            .add_term(Term::new("GO:B", "b", Namespace::BiologicalProcess))
            .unwrap();
        let c = b
            .add_term(Term::new("GO:C", "c", Namespace::BiologicalProcess))
            .unwrap();
        let d = b
            .add_term(Term::new("GO:D", "d", Namespace::BiologicalProcess))
            .unwrap();
        let e = b
            .add_term(Term::new("GO:E", "e", Namespace::BiologicalProcess))
            .unwrap();
        b.add_edge(bb, a, RelType::IsA);
        b.add_edge(c, a, RelType::IsA);
        b.add_edge(d, bb, RelType::IsA);
        b.add_edge(d, c, RelType::PartOf);
        let g = b.build().unwrap();
        (g, a, bb, c, d, e)
    }

    #[test]
    fn annotate_and_direct() {
        let (_, _, b, _, _, _) = dag();
        let mut ann = AnnotationSet::new();
        ann.annotate("g1", b);
        ann.annotate("g1", b); // duplicate ignored
        assert_eq!(ann.direct_terms("g1"), &[b]);
        assert_eq!(ann.direct_terms("unknown"), &[] as &[TermId]);
        assert_eq!(ann.n_genes(), 1);
    }

    #[test]
    fn propagate_leaf_reaches_all_ancestors() {
        let (g, a, b, c, d, _) = dag();
        let mut ann = AnnotationSet::new();
        ann.annotate("g1", d);
        let p = ann.propagate(&g);
        for t in [a, b, c, d] {
            assert!(
                p.is_annotated("g1", t),
                "g1 should reach {:?}",
                g.term(t).accession
            );
            assert_eq!(p.count(t), 1);
        }
    }

    #[test]
    fn propagate_mid_level_only_up() {
        let (g, a, b, _, d, _) = dag();
        let mut ann = AnnotationSet::new();
        ann.annotate("g1", b);
        let p = ann.propagate(&g);
        assert!(p.is_annotated("g1", a));
        assert!(p.is_annotated("g1", b));
        assert!(!p.is_annotated("g1", d), "propagation must not go downward");
    }

    #[test]
    fn propagate_counts_distinct_genes() {
        let (g, a, b, c, _, _) = dag();
        let mut ann = AnnotationSet::new();
        ann.annotate("g1", b);
        ann.annotate("g2", c);
        ann.annotate("g3", b);
        ann.annotate("g3", c); // g3 via both paths counts once at A
        let p = ann.propagate(&g);
        assert_eq!(p.count(a), 3);
        assert_eq!(p.count(b), 2);
        assert_eq!(p.count(c), 2);
    }

    #[test]
    fn unannotated_background_counts_in_population() {
        let (g, a, _, _, _, _) = dag();
        let mut ann = AnnotationSet::new();
        ann.annotate("g1", a);
        ann.ensure_gene("background_gene");
        let p = ann.propagate(&g);
        assert_eq!(p.n_genes(), 2);
        assert_eq!(p.count(a), 1);
    }

    #[test]
    fn genes_for_returns_names() {
        let (g, _, b, _, _, _) = dag();
        let mut ann = AnnotationSet::new();
        ann.annotate("g2", b);
        ann.annotate("g1", b);
        let p = ann.propagate(&g);
        let mut names = p.genes_for(b);
        names.sort();
        assert_eq!(names, vec!["g1", "g2"]);
    }

    #[test]
    fn count_overlap_ignores_unknowns() {
        let (g, _, b, _, _, _) = dag();
        let mut ann = AnnotationSet::new();
        ann.annotate("g1", b);
        ann.annotate("g2", b);
        ann.ensure_gene("g3");
        let p = ann.propagate(&g);
        assert_eq!(p.count_overlap(b, &["g1", "g3", "nope"]), 1);
    }

    #[test]
    fn isolated_term_has_no_genes() {
        let (g, _, _, _, _, e) = dag();
        let mut ann = AnnotationSet::new();
        ann.annotate("g1", e);
        let p = ann.propagate(&g);
        assert_eq!(p.count(e), 1);
        // Nothing flows to the diamond.
        let a = g.lookup("GO:A").unwrap();
        assert_eq!(p.count(a), 0);
    }
}
