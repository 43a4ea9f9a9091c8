//! Integration of SPELL and GOLEM into the ForestView session — Section 3
//! of the paper, and the content of Figure 6.
//!
//! The flows implemented here are the ones the paper describes verbatim:
//!
//! - **SPELL → ForestView**: run a similarity search seeded from the
//!   current selection; order the panes "in decreasing order of relevance
//!   to the query"; select the query plus "the top n genes … highlighted
//!   within each dataset".
//! - **ForestView → GOLEM**: take the selected gene list (instead of the
//!   export/re-import dance the paper laments) and compute statistical
//!   enrichment plus the local exploration map around the top hit.

use crate::ordering::{apply_order, OrderPolicy};
use crate::selection::{Selection, SelectionOrigin};
use crate::session::Session;
use fv_golem::layout::{layout_map, MapLayout};
use fv_golem::map::{build_local_map, LocalMap};
use fv_golem::{enrich, EnrichmentConfig, EnrichmentResult};
use fv_ontology::annotations::PropagatedAnnotations;
use fv_ontology::dag::OntologyDag;
use fv_spell::{SpellConfig, SpellEngine, SpellResult};

/// The analysis engines attached to a session (Figure 1's "Data Search
/// (e.g. SPELL)" and "Other Analysis (e.g. GOLEM)" boxes).
pub struct AnalysisSuite {
    /// SPELL compendium index over the session's datasets.
    pub spell: SpellEngine,
    /// The ontology GOLEM analyzes against.
    pub ontology: OntologyDag,
    /// Propagated gene↔term annotations.
    pub annotations: PropagatedAnnotations,
}

impl AnalysisSuite {
    /// Index every dataset of the session into a SPELL engine and attach
    /// the ontology.
    pub fn build(
        session: &Session,
        spell_config: SpellConfig,
        ontology: OntologyDag,
        annotations: PropagatedAnnotations,
    ) -> AnalysisSuite {
        let mut spell = SpellEngine::new(spell_config);
        for d in 0..session.n_datasets() {
            spell.add_dataset(session.dataset(d));
        }
        spell.finalize();
        AnalysisSuite {
            spell,
            ontology,
            annotations,
        }
    }

    /// Run SPELL seeded from the current selection; reorder panes by
    /// relevance and select the query plus the `top_n` best new genes.
    /// Returns the raw result (`None` if there is no selection).
    pub fn spell_from_selection(&self, session: &mut Session, top_n: usize) -> Option<SpellResult> {
        let sel = session.selection()?;
        let names: Vec<String> = sel
            .genes()
            .iter()
            .map(|&g| session.merged().universe().name(g).to_string())
            .collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let result = self.spell.query(&refs);

        // Pane order ← dataset relevance (match engine datasets to session
        // datasets by name; engine indexed them in session order).
        let mut scores = vec![0.0f32; session.n_datasets()];
        for rel in &result.datasets {
            if let Some(d) = session.merged().index_of(&rel.name) {
                scores[d] = rel.weight;
            }
        }
        apply_order(session, &OrderPolicy::ByRelevance(scores));

        // Selection ← query + top new genes, in rank order.
        let mut selected: Vec<&str> = refs.clone();
        let top: Vec<String> = result
            .top_new_genes(top_n)
            .iter()
            .map(|g| g.gene.clone())
            .collect();
        selected.extend(top.iter().map(|s| s.as_str()));
        let ids = session.merged().resolve_genes(&selected);
        session.set_selection(Selection::new(
            ids,
            SelectionOrigin::Analysis {
                tool: "SPELL".to_string(),
            },
        ));
        Some(result)
    }

    /// GOLEM enrichment of the current selection. Empty when nothing is
    /// selected.
    pub fn enrich_selection(
        &self,
        session: &Session,
        config: &EnrichmentConfig,
    ) -> Vec<EnrichmentResult> {
        let Some(sel) = session.selection() else {
            return Vec::new();
        };
        let names: Vec<String> = sel
            .genes()
            .iter()
            .map(|&g| session.merged().universe().name(g).to_string())
            .collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        enrich(&self.ontology, &self.annotations, &refs, config)
    }

    /// Build the local exploration map around the top enrichment hit.
    /// Returns `None` when the enrichment list is empty.
    pub fn local_map_for(
        &self,
        enrichment: &[EnrichmentResult],
        radius: u32,
        barycenter_passes: usize,
    ) -> Option<(LocalMap, MapLayout)> {
        let focus = enrichment.first()?.term;
        let map = build_local_map(&self.ontology, focus, radius, enrichment);
        let layout = layout_map(&map, barycenter_passes);
        Some((map, layout))
    }

    /// GOLEM → ForestView: select every session gene annotated (after
    /// propagation) to `term` — clicking a node in the local map to see
    /// its genes in the synchronized panes. Returns the selection size.
    pub fn select_term_genes(
        &self,
        session: &mut Session,
        term: fv_ontology::term::TermId,
    ) -> usize {
        let names: Vec<String> = self
            .annotations
            .genes_for(term)
            .iter()
            .map(|g| g.to_string())
            .collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let ids = session.merged().resolve_genes(&refs);
        let sel = Selection::new(
            ids,
            SelectionOrigin::Analysis {
                tool: format!("GOLEM:{}", self.ontology.term(term).accession),
            },
        );
        let n = sel.len();
        session.set_selection(sel);
        n
    }

    /// Iterative SPELL refinement: run the query, absorb the top `expand`
    /// new genes into the query, and repeat for `rounds` rounds — the
    /// exploratory loop the SPELL paper describes for growing a pathway
    /// from a small seed. Returns the final result and the grown query.
    pub fn spell_iterative(
        &self,
        seed: &[&str],
        rounds: usize,
        expand: usize,
    ) -> (SpellResult, Vec<String>) {
        let mut query: Vec<String> = seed.iter().map(|s| s.to_string()).collect();
        let mut result = self.spell.query(seed);
        for _ in 0..rounds {
            let additions: Vec<String> = result
                .top_new_genes(expand)
                .iter()
                .map(|g| g.gene.clone())
                .collect();
            if additions.is_empty() {
                break;
            }
            for a in additions {
                if !query.iter().any(|q| q.eq_ignore_ascii_case(&a)) {
                    query.push(a);
                }
            }
            let refs: Vec<&str> = query.iter().map(|s| s.as_str()).collect();
            result = self.spell.query(&refs);
        }
        (result, query)
    }

    /// The full Figure-6 pipeline: SPELL from selection → pane reorder +
    /// top-gene selection → GOLEM enrichment of the result → local map.
    pub fn integrated_analysis(
        &self,
        session: &mut Session,
        top_n: usize,
        enrich_config: &EnrichmentConfig,
        map_radius: u32,
    ) -> Option<IntegratedResult> {
        let spell = self.spell_from_selection(session, top_n)?;
        let enrichment = self.enrich_selection(session, enrich_config);
        let map = self.local_map_for(&enrichment, map_radius, 2);
        Some(IntegratedResult {
            spell,
            enrichment,
            map,
        })
    }
}

/// Everything the integrated (Figure 6) workflow produces.
pub struct IntegratedResult {
    /// SPELL's ordered datasets + genes.
    pub spell: SpellResult,
    /// GOLEM enrichment of the post-search selection.
    pub enrichment: Vec<EnrichmentResult>,
    /// Local exploration map around the top term (if any enrichment).
    pub map: Option<(LocalMap, MapLayout)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_synth::dataset::GenConfig;
    use fv_synth::modules::plant_modules;
    use fv_synth::names::orf_name;
    use fv_synth::ontogen::generate_ontology;
    use fv_synth::scenario::Scenario;

    fn setup() -> (Session, AnalysisSuite, fv_synth::modules::GroundTruth) {
        let sc = Scenario::three_datasets(240, 21);
        let truth = sc.truth.clone();
        let mut session = Session::new();
        for ds in sc.datasets {
            session.load_dataset(ds).unwrap();
        }
        let onto = generate_ontology(&truth, 120, 21);
        let prop = onto.annotations.propagate(&onto.dag);
        let suite = AnalysisSuite::build(&session, SpellConfig::default(), onto.dag, prop);
        (session, suite, truth)
    }

    #[test]
    fn spell_from_selection_reorders_and_selects() {
        let (mut session, suite, truth) = setup();
        // Seed with 5 ESR genes.
        let names: Vec<String> = truth.esr_induced()[..5]
            .iter()
            .map(|&g| orf_name(g))
            .collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        session.select_genes(&refs, SelectionOrigin::List);
        let result = suite.spell_from_selection(&mut session, 10).unwrap();
        // selection grew to query + up to 10 new genes
        let sel = session.selection().unwrap();
        assert!(sel.len() > 5 && sel.len() <= 15);
        assert_eq!(
            sel.origin,
            SelectionOrigin::Analysis {
                tool: "SPELL".into()
            }
        );
        // top dataset should be coherent for ESR genes (stress or nutrient)
        assert!(result.datasets[0].weight > 0.0);
        // panes reordered to relevance order
        let first_pane = session.dataset_order()[0];
        assert_eq!(session.dataset(first_pane).name, result.datasets[0].name);
    }

    #[test]
    fn spell_recovers_module_mates() {
        let (mut session, suite, truth) = setup();
        let names: Vec<String> = truth.esr_induced()[..5]
            .iter()
            .map(|&g| orf_name(g))
            .collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        session.select_genes(&refs, SelectionOrigin::List);
        let result = suite.spell_from_selection(&mut session, 20).unwrap();
        let esr: std::collections::HashSet<String> =
            truth.esr_induced().iter().map(|&g| orf_name(g)).collect();
        // Only esr.len() − 5 non-query members exist to recover; perfect
        // recovery places all of them in the top ranks.
        let remaining = esr.len() - 5;
        let top = result.top_new_genes(remaining);
        let hits = top.iter().filter(|g| esr.contains(&g.gene)).count();
        assert!(
            hits + 1 >= remaining,
            "recovered {hits}/{remaining} planted ESR members in the top ranks"
        );
    }

    #[test]
    fn enrich_selection_finds_module_term() {
        let (mut session, suite, truth) = setup();
        let names: Vec<String> = truth.modules[2].genes[..10]
            .iter()
            .map(|&g| orf_name(g))
            .collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        session.select_genes(&refs, SelectionOrigin::List);
        let res = suite.enrich_selection(&session, &EnrichmentConfig::default());
        assert!(!res.is_empty());
        assert_eq!(
            suite.ontology.term(res[0].term).name,
            truth.modules[2].name,
            "top enriched term should be the planted module"
        );
    }

    #[test]
    fn enrich_without_selection_empty() {
        let (session, suite, _) = setup();
        assert!(suite
            .enrich_selection(&session, &EnrichmentConfig::default())
            .is_empty());
    }

    #[test]
    fn local_map_built_around_top_hit() {
        let (mut session, suite, truth) = setup();
        let names: Vec<String> = truth.modules[2].genes[..10]
            .iter()
            .map(|&g| orf_name(g))
            .collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        session.select_genes(&refs, SelectionOrigin::List);
        let res = suite.enrich_selection(&session, &EnrichmentConfig::default());
        let (map, layout) = suite.local_map_for(&res, 2, 2).unwrap();
        assert_eq!(map.focus, res[0].term);
        assert!(map.n_nodes() >= 2);
        assert_eq!(layout.nodes.len(), map.n_nodes());
    }

    #[test]
    fn integrated_pipeline_end_to_end() {
        let (mut session, suite, truth) = setup();
        let names: Vec<String> = truth.esr_induced()[..6]
            .iter()
            .map(|&g| orf_name(g))
            .collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        session.select_genes(&refs, SelectionOrigin::List);
        let out = suite
            .integrated_analysis(&mut session, 15, &EnrichmentConfig::default(), 2)
            .unwrap();
        assert!(!out.spell.genes.is_empty());
        assert!(!out.enrichment.is_empty());
        // the enriched term for an ESR selection should be the ESR term
        assert_eq!(
            suite.ontology.term(out.enrichment[0].term).name,
            truth.modules[0].name
        );
        assert!(out.map.is_some());
    }

    #[test]
    fn select_term_genes_selects_module() {
        let (mut session, suite, truth) = setup();
        // The ESR term annotates exactly the planted ESR-induced genes.
        let esr_term = suite
            .ontology
            .ids()
            .find(|&t| suite.ontology.term(t).name == truth.modules[0].name)
            .unwrap();
        let n = suite.select_term_genes(&mut session, esr_term);
        assert_eq!(n, truth.esr_induced().len());
        let sel = session.selection().unwrap();
        assert!(matches!(
            &sel.origin,
            SelectionOrigin::Analysis { tool } if tool.starts_with("GOLEM:")
        ));
        // selected genes are exactly the module members
        let names: std::collections::HashSet<String> = sel
            .genes()
            .iter()
            .map(|&g| session.merged().universe().name(g).to_string())
            .collect();
        for &g in truth.esr_induced() {
            assert!(names.contains(&orf_name(g)));
        }
    }

    #[test]
    fn spell_iterative_grows_query_monotonically() {
        let (_, suite, truth) = setup();
        let seed: Vec<String> = truth.esr_induced()[..4]
            .iter()
            .map(|&g| orf_name(g))
            .collect();
        let refs: Vec<&str> = seed.iter().map(|s| s.as_str()).collect();
        let (result, grown) = suite.spell_iterative(&refs, 2, 5);
        assert!(grown.len() > 4, "query should grow: {}", grown.len());
        assert!(grown.len() <= 4 + 2 * 5);
        // grown query members are flagged as query in the final result
        for g in &result.genes {
            if grown.iter().any(|q| q.eq_ignore_ascii_case(&g.gene)) {
                assert!(g.in_query, "{} should be flagged", g.gene);
            }
        }
        // iterated query keeps finding planted members
        let esr: std::collections::HashSet<String> =
            truth.esr_induced().iter().map(|&g| orf_name(g)).collect();
        let found = grown.iter().filter(|g| esr.contains(*g)).count();
        assert!(
            found * 2 > grown.len(),
            "most of the grown query should be planted members: {found}/{}",
            grown.len()
        );
    }

    #[test]
    fn no_selection_spell_none() {
        let (mut session, suite, _) = setup();
        assert!(suite.spell_from_selection(&mut session, 5).is_none());
    }

    #[allow(
        unused,
        reason = "keeps the unused-import lint quiet for the helper types used above"
    )]
    fn _use(p: GenConfig, t: fv_synth::modules::GroundTruth) {
        let _ = (p, t);
        let _ = plant_modules(30, 0, 0, 1);
    }
}
