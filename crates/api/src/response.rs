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

crate::wire_record! {
    /// One dataset's relevance in a SPELL ranking: a `dataset` row.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SpellDatasetRow {
        /// Dataset name; leads the row.
        pub name: String => _ as Spaced,
        /// SPELL weight (higher = more informative for the query).
        pub weight: f32 => "weight" as Fixed3,
        /// Query genes measured in the dataset.
        pub query_genes_present: usize => "present",
    }
}

crate::wire_record! {
    /// One gene in a SPELL ranking: a `gene` row.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SpellGeneRow {
        /// Systematic gene name; leads the row.
        pub gene: String => _ as Spaced,
        /// Weighted mean correlation score.
        pub score: f32 => "score" as Fixed3,
        /// Datasets contributing to the score.
        pub n_datasets: usize => "datasets",
    }
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

crate::wire_record! {
    /// One enriched term: a `term` row.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EnrichmentRow {
        /// Term accession (e.g. `GO:0000042`); leads the row.
        pub accession: String => _,
        /// Raw hypergeometric p-value.
        pub p_value: f64 => "p" as Sci3,
        /// Benjamini–Hochberg q-value.
        pub q_value: f64 => "q" as Sci3,
        /// Query genes annotated to the term.
        pub overlap: usize,
        /// Population genes annotated to the term.
        pub annotated: usize => "overlap" as Fraction,
        /// Human-readable term name.
        pub name: String => "name" as Spaced,
    }
}

crate::wire_record! {
    /// One dataset in a session listing: a `dataset` row.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DatasetRow {
        /// Dataset index (stable across reordering); leads the row.
        pub dataset: usize => _,
        /// Dataset name.
        pub name: String => "name" as Spaced,
        /// Gene (row) count.
        pub genes: usize => "genes",
        /// Condition (column) count.
        pub conditions: usize => "conditions",
        /// Whether the gene axis has been clustered.
        pub gene_clustered: bool,
        /// Whether the condition axis has been clustered.
        pub array_clustered: bool => "clustered" as Clustered,
    }
}

crate::wire_record! {
    /// Session-level summary.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SessionInfoData {
        /// Loaded dataset count.
        pub n_datasets: usize => "datasets",
        /// Distinct genes across all datasets.
        pub universe_genes: usize => "universe",
        /// Present (non-missing) measurements across all datasets.
        pub total_measurements: usize => "measurements",
        /// Current selection size, if any.
        pub selection_len: Option<usize> => "selection",
        /// Synchronized-viewing flag.
        pub sync_enabled: bool => "sync" as OnOff,
        /// Shared zoom scroll offset.
        pub scroll: usize => "scroll",
        /// Pane order as dataset indices.
        pub dataset_order: Vec<usize> => "order",
        /// Human-readable multi-line summary (the classic
        /// `session_summary` text, kept verbatim for CLI parity).
        pub summary: String => ["summary_bytes" body],
    }
}

crate::wire_record! {
    /// The result of a successfully executed request. Each kind is one
    /// canonical text led by its keyword (see
    /// [`crate::codec::format_response`]), declared here, once: its
    /// header's keys, leading values, row sections and body.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// A mutation command was applied.
        Applied = "applied" {
            /// Selection size after the mutation, if a selection exists.
            selection_len: Option<usize> => "selection",
            /// Scene rectangles invalidated.
            damage: Vec<DamageRect> => "damage",
        },
        /// A dataset was loaded.
        Loaded = "loaded" {
            /// Index assigned to the dataset.
            dataset: usize => "dataset",
            /// Dataset name.
            name: String => "name" as Spaced,
            /// Gene count.
            genes: usize => "genes",
            /// Condition count.
            conditions: usize => "conditions",
        },
        /// A synthetic scenario was loaded.
        ScenarioLoaded = "scenario" {
            /// Names of the loaded datasets, in index order.
            names: Vec<String> => "datasets",
            /// Genes per dataset.
            n_genes: usize => "genes",
        },
        /// An ontology is attached; `enrich` is now available.
        OntologyReady = "ontology" {
            /// Term count in the DAG.
            terms: usize => "terms",
        },
        /// Imputation finished.
        Imputed = "imputed" {
            /// Cells filled.
            filled: usize => "filled",
            /// Missing cells before imputation.
            missing_before: usize => "missing",
        },
        /// Normalization finished.
        Normalized = "normalized" {
            /// Datasets transformed.
            datasets: usize => "datasets",
        },
        /// Condition clustering finished.
        ArraysClustered = "arrays_clustered" {
            /// The dataset whose array tree was built.
            dataset: usize => "dataset",
        },
        /// Search hits (no selection change).
        SearchHits = "search" {
            /// Matching gene names, in universe order, after their count.
            genes: Vec<String> => ["hits" counts "genes"],
        },
        /// SPELL ranking.
        SpellRanking = "spell" {
            /// Datasets by descending relevance.
            datasets: Vec<SpellDatasetRow> => ["datasets" rows "dataset"],
            /// Top non-query genes by descending score.
            genes: Vec<SpellGeneRow> => ["genes" rows "gene"],
            /// Query genes not found in the compendium.
            query_missing: Vec<String> => "missing",
        },
        /// Enrichment table.
        Enrichment = "enrich" {
            /// Terms by ascending p-value.
            rows: Vec<EnrichmentRow> => ["terms" rows "term"],
        },
        /// A frame was rendered.
        Frame = "frame" {
            /// Frame width.
            width: usize,
            /// Frame height; `<w>x<h>` leads the row.
            height: usize => _,
            /// Pane count in the scene.
            panes: usize => "panes",
            /// FNV-1a checksum of the raw RGB bytes — lets scripts assert
            /// pixel-exact determinism without storing images.
            checksum: u64 => "checksum" as Hex16,
            /// Where the PPM was written, if requested.
            path: Option<String> => "path" as Spaced,
        },
        /// CDT bundle export.
        CdtExported = "cdt" {
            /// Source dataset.
            dataset: usize => "dataset",
            /// CDT text size in bytes.
            cdt_bytes: usize => "bytes",
            /// Whether a gene-tree file exists.
            has_gtr: bool => "gtr" as YesNo,
            /// Whether an array-tree file exists.
            has_atr: bool => "atr" as YesNo,
            /// Files written (empty when exporting in-memory).
            files: Vec<String> => "files" as Spaced,
        },
        /// PCL export.
        PclExported = "pcl" {
            /// Source dataset.
            dataset: usize => "dataset",
            /// File written.
            path: String => "path" as Spaced,
            /// Gene count.
            genes: usize => "genes",
            /// Condition count.
            conditions: usize => "conditions",
        },
        /// A textual selection export.
        Text = "text" {
            /// The exported text (possibly empty when nothing is selected).
            text: String => ["bytes" body],
        },
        /// Dataset listing.
        Datasets = "datasets" {
            /// One row per dataset, in index order.
            rows: Vec<DatasetRow> => ["n" rows "dataset"],
        },
        ..
        /// Session summary.
        SessionInfo = "session" (SessionInfoData),
    }
}
