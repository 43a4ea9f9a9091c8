//! The unified request surface: everything a front end can ask of a
//! ForestView engine, as one serializable type.
//!
//! Requests split into **mutations** (state changes: interaction commands,
//! dataset loading, in-place transforms) and **queries** (read-only
//! computations: search, SPELL, enrichment, rendering, exports, session
//! introspection). Only mutations enter a session's replay log and can
//! damage the scene; queries declare they touch nothing.

use crate::codec::BalanceMode;
use crate::error::ApiError;
use crate::record::Token;
use forestview::command::Command;
use fv_cluster::distance::Metric;
use fv_cluster::linkage::Linkage;

/// One request to a ForestView engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A state change.
    Mutate(Mutation),
    /// A read-only computation.
    Query(Query),
}

impl Request {
    /// Whether this request can change session state.
    pub fn is_mutation(&self) -> bool {
        matches!(self, Request::Mutate(_))
    }
}

impl From<Mutation> for Request {
    fn from(m: Mutation) -> Self {
        Request::Mutate(m)
    }
}

impl From<Query> for Request {
    fn from(q: Query) -> Self {
        Request::Query(q)
    }
}

impl From<Command> for Request {
    fn from(c: Command) -> Self {
        Request::Mutate(c.into())
    }
}

impl From<Command> for Mutation {
    fn from(c: Command) -> Self {
        Mutation::Command(c)
    }
}

/// State-changing requests.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// A deterministic interaction command (selection, sync, scrolling,
    /// ordering, clustering, display settings) — the full
    /// [`forestview::command::Command`] stream, embedded losslessly.
    Command(Command),
    /// Load a PCL/CDT dataset from disk (format auto-detected).
    LoadDataset {
        /// Path to the file; the dataset is named after the file stem.
        path: String,
    },
    /// Load the three-dataset synthetic scenario (deterministic per
    /// seed) — the paper's demo workspace, and the way scripts get a
    /// session without touching the filesystem.
    LoadScenario {
        /// Genes per dataset.
        n_genes: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Load the SPELL-compendium synthetic scenario: `n_datasets` datasets
    /// over a shared `n_genes`-gene universe with planted modules.
    LoadCompendium {
        /// Genes in the shared universe.
        n_genes: usize,
        /// Number of datasets.
        n_datasets: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Generate and attach the synthetic ontology derived from the loaded
    /// scenario's ground truth, enabling `enrich` queries.
    BuildOntology {
        /// Number of filler (non-module) terms.
        n_filler: usize,
        /// Generator seed.
        seed: u64,
    },
    /// KNN-impute missing cells of one dataset in place.
    Impute {
        /// Dataset index.
        dataset: usize,
        /// Neighbour count.
        k: usize,
    },
    /// Normalize dataset expression values in place
    /// (`None` = every dataset).
    Normalize {
        /// Target dataset, or all.
        dataset: Option<usize>,
        /// The transform.
        method: NormalizeMethod,
    },
    /// Hierarchically cluster one dataset's **conditions** (the array
    /// tree) with the session's current cluster settings.
    ClusterArrays {
        /// Dataset index.
        dataset: usize,
    },
}

/// In-place normalization transforms (from `fv_expr::normalize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NormalizeMethod {
    /// `log2(x)` per cell.
    Log2,
    /// Subtract row means.
    CenterRows,
    /// Subtract row medians.
    MedianCenterRows,
    /// Per-row z-score.
    ZscoreRows,
}

/// Read-only requests.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Substring search over gene metadata across all datasets. Unlike
    /// the `Command::Search` mutation this does **not** change the
    /// selection — it just reports the hits.
    Search {
        /// Case-insensitive substring.
        query: String,
    },
    /// SPELL similarity query over the session's datasets.
    Spell {
        /// Query gene names.
        genes: Vec<String>,
        /// How many ranked non-query genes to report.
        top_n: usize,
    },
    /// GOLEM enrichment. Requires `BuildOntology` to have run.
    Enrich {
        /// Explicit query genes, or `None` to enrich the current
        /// selection.
        genes: Option<Vec<String>>,
        /// Maximum number of enriched terms to report.
        max_terms: usize,
    },
    /// Render the session to a desktop frame, optionally writing a PPM.
    Render {
        /// Frame width in pixels.
        width: usize,
        /// Frame height in pixels.
        height: usize,
        /// Output path for the PPM image, if any.
        path: Option<String>,
    },
    /// Export one dataset as a clustered-data-table bundle
    /// (`.cdt` / `.gtr` / `.atr`), written to `<prefix>.<ext>` when a
    /// prefix is given.
    ExportCdt {
        /// Dataset index.
        dataset: usize,
        /// Output path prefix; `None` keeps the bundle in the response.
        prefix: Option<String>,
    },
    /// Export one dataset as PCL text to a file.
    ExportPcl {
        /// Dataset index.
        dataset: usize,
        /// Output path.
        path: String,
    },
    /// Export the current selection in one of the selection formats.
    ExportSelection {
        /// Which rendering of the selection.
        what: SelectionExport,
    },
    /// Structured summary of the whole session.
    SessionInfo,
    /// One row per dataset: name, shape, cluster state.
    ListDatasets,
}

/// Selection export formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionExport {
    /// Plain gene list, one name per line.
    GeneList,
    /// Expression of the selection across every dataset (TSV).
    Merged,
    /// Per-dataset coverage table (TSV).
    Coverage,
}

/// The keyword tokens of the wire grammar: each enum's variants beside
/// their words, and the refusal a word outside them gets. Both
/// directions of each [`Token`] come from this one table.
macro_rules! keyword_tokens {
    ($( $ty:ident, $refusal:literal { $( $variant:ident = $word:literal, )+ } )*) => {$(
        impl Token for $ty {
            fn put(&self, out: &mut String) {
                out.push_str(match self {
                    $( $ty::$variant => $word, )+
                });
            }
            fn get(token: &str) -> Option<Self> {
                match token {
                    $( $word => Some($ty::$variant), )+
                    _ => None,
                }
            }
            fn refuse(token: &str, _: &str) -> ApiError {
                ApiError::parse(format!($refusal, token))
            }
        }
    )*};
}

keyword_tokens! {
    Linkage, "unknown linkage {:?}" {
        Single = "single",
        Complete = "complete",
        Average = "average",
        Ward = "ward",
    }
    Metric, "unknown metric {:?}" {
        Pearson = "pearson",
        AbsPearson = "abspearson",
        Uncentered = "uncentered",
        Spearman = "spearman",
        Euclidean = "euclidean",
    }
    NormalizeMethod, "unknown normalize method {:?}" {
        Log2 = "log2",
        CenterRows = "center",
        MedianCenterRows = "median",
        ZscoreRows = "zscore",
    }
    SelectionExport, "unknown selection export {:?}" {
        GeneList = "gene_list",
        Merged = "merged",
        Coverage = "coverage",
    }
    BalanceMode, "balance mode is auto|off, got {:?}" {
        Auto = "auto",
        Off = "off",
    }
}
