//! Structured results — the other half of the protocol.
//!
//! Every [`crate::Request`] executed successfully produces exactly one
//! `Response` variant; the pairing is part of the protocol contract (see
//! `crates/api/README.md`). Responses carry data, not prose: front ends
//! format them (or use [`crate::codec::format_response`] for the canonical
//! text form).

use fv_wall::tile::Viewport;

/// A scene rectangle invalidated by a mutation, in scene pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DamageRect {
    pub x: usize,
    pub y: usize,
    pub w: usize,
    pub h: usize,
}

impl From<Viewport> for DamageRect {
    fn from(v: Viewport) -> Self {
        DamageRect {
            x: v.x,
            y: v.y,
            w: v.w,
            h: v.h,
        }
    }
}

/// One dataset's relevance in a SPELL ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct SpellDatasetRow {
    /// Dataset name.
    pub name: String,
    /// SPELL weight (higher = more informative for the query).
    pub weight: f32,
    /// Query genes measured in the dataset.
    pub query_genes_present: usize,
}

/// One gene in a SPELL ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct SpellGeneRow {
    /// Systematic gene name.
    pub gene: String,
    /// Weighted mean correlation score.
    pub score: f32,
    /// Datasets contributing to the score.
    pub n_datasets: usize,
}

/// Rebuild the engine-native [`fv_spell::SpellResult`] from protocol rows
/// — for view-layer code (e.g. the Figure-4 panel renderer) that consumes
/// the classic struct. `query_found` is derived as the query genes not
/// reported missing.
pub fn spell_result_from_rows(
    datasets: &[SpellDatasetRow],
    genes: &[SpellGeneRow],
    query: &[String],
    query_missing: Vec<String>,
) -> fv_spell::SpellResult {
    fv_spell::SpellResult {
        datasets: datasets
            .iter()
            .enumerate()
            .map(|(i, d)| fv_spell::engine::DatasetRelevance {
                dataset: i,
                name: d.name.clone(),
                weight: d.weight,
                query_genes_present: d.query_genes_present,
            })
            .collect(),
        genes: genes
            .iter()
            .map(|g| fv_spell::rank::RankedGene {
                gene: g.gene.clone(),
                score: g.score,
                n_datasets: g.n_datasets,
                in_query: false,
            })
            .collect(),
        query_found: query
            .iter()
            .filter(|q| !query_missing.iter().any(|m| m.eq_ignore_ascii_case(q)))
            .cloned()
            .collect(),
        query_missing,
    }
}

/// One enriched term.
#[derive(Debug, Clone, PartialEq)]
pub struct EnrichmentRow {
    /// Term accession (e.g. `GO:0000042`).
    pub accession: String,
    /// Human-readable term name.
    pub name: String,
    /// Raw hypergeometric p-value.
    pub p_value: f64,
    /// Benjamini–Hochberg q-value.
    pub q_value: f64,
    /// Query genes annotated to the term.
    pub overlap: usize,
    /// Population genes annotated to the term.
    pub annotated: usize,
}

/// One dataset row in a session listing.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetRow {
    /// Dataset index (stable across reordering).
    pub dataset: usize,
    /// Dataset name.
    pub name: String,
    /// Gene (row) count.
    pub genes: usize,
    /// Condition (column) count.
    pub conditions: usize,
    /// Whether the gene axis has been clustered.
    pub gene_clustered: bool,
    /// Whether the condition axis has been clustered.
    pub array_clustered: bool,
}

/// Session-level summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInfoData {
    /// Loaded dataset count.
    pub n_datasets: usize,
    /// Distinct genes across all datasets.
    pub universe_genes: usize,
    /// Present (non-missing) measurements across all datasets.
    pub total_measurements: usize,
    /// Current selection size, if any.
    pub selection_len: Option<usize>,
    /// Synchronized-viewing flag.
    pub sync_enabled: bool,
    /// Shared zoom scroll offset.
    pub scroll: usize,
    /// Pane order as dataset indices.
    pub dataset_order: Vec<usize>,
    /// Human-readable multi-line summary (the classic
    /// `session_summary` text, kept verbatim for CLI parity).
    pub summary: String,
}

/// The result of a successfully executed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A mutation command was applied.
    Applied {
        /// Selection size after the mutation, if a selection exists.
        selection_len: Option<usize>,
        /// Scene rectangles invalidated.
        damage: Vec<DamageRect>,
    },
    /// A dataset was loaded.
    Loaded {
        /// Index assigned to the dataset.
        dataset: usize,
        /// Dataset name.
        name: String,
        /// Gene count.
        genes: usize,
        /// Condition count.
        conditions: usize,
    },
    /// A synthetic scenario was loaded.
    ScenarioLoaded {
        /// Names of the loaded datasets, in index order.
        names: Vec<String>,
        /// Genes per dataset.
        n_genes: usize,
    },
    /// An ontology is attached; `enrich` is now available.
    OntologyReady {
        /// Term count in the DAG.
        terms: usize,
    },
    /// Imputation finished.
    Imputed {
        /// Cells filled.
        filled: usize,
        /// Missing cells before imputation.
        missing_before: usize,
    },
    /// Normalization finished.
    Normalized {
        /// Datasets transformed.
        datasets: usize,
    },
    /// Condition clustering finished.
    ArraysClustered {
        /// The dataset whose array tree was built.
        dataset: usize,
    },
    /// Search hits (no selection change).
    SearchHits {
        /// Matching gene names, in universe order.
        genes: Vec<String>,
    },
    /// SPELL ranking.
    SpellRanking {
        /// Datasets by descending relevance.
        datasets: Vec<SpellDatasetRow>,
        /// Top non-query genes by descending score.
        genes: Vec<SpellGeneRow>,
        /// Query genes not found in the compendium.
        query_missing: Vec<String>,
    },
    /// Enrichment table.
    Enrichment {
        /// Terms by ascending p-value.
        rows: Vec<EnrichmentRow>,
    },
    /// A frame was rendered.
    Frame {
        /// Frame width.
        width: usize,
        /// Frame height.
        height: usize,
        /// Pane count in the scene.
        panes: usize,
        /// FNV-1a checksum of the raw RGB bytes — lets scripts assert
        /// pixel-exact determinism without storing images.
        checksum: u64,
        /// Where the PPM was written, if requested.
        path: Option<String>,
    },
    /// CDT bundle export.
    CdtExported {
        /// Source dataset.
        dataset: usize,
        /// Files written (empty when exporting in-memory).
        files: Vec<String>,
        /// CDT text size in bytes.
        cdt_bytes: usize,
        /// Whether a gene-tree file exists.
        has_gtr: bool,
        /// Whether an array-tree file exists.
        has_atr: bool,
    },
    /// PCL export.
    PclExported {
        /// Source dataset.
        dataset: usize,
        /// File written.
        path: String,
        /// Gene count.
        genes: usize,
        /// Condition count.
        conditions: usize,
    },
    /// A textual selection export.
    Text {
        /// The exported text (possibly empty when nothing is selected).
        text: String,
    },
    /// Session summary.
    SessionInfo(SessionInfoData),
    /// Dataset listing.
    Datasets {
        /// One row per dataset, in index order.
        rows: Vec<DatasetRow>,
    },
}
