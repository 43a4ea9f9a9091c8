//! Seeded, wall-clock-free **workload generator**: synthetic *traffic*
//! the way the sibling modules synthesize *data*.
//!
//! Each [`WorkloadKind`] is a named, parameterized query mix derived from
//! the visualization task taxonomies the ROADMAP cites (GQVis questions;
//! Nusrat/Harbig/Gehlenborg tasks): an **overview** skim, a **zoom/filter
//! cascade**, a **cluster–recluster loop**, a **spell-search burst**, and
//! a **many-viewer fan-in** on one shared session. [`generate`] expands a
//! [`WorkloadSpec`] into per-client scripts — for every client a private
//! (or, for fan-in, shared) session plus a list of *bursts*, each burst a
//! batch of wire lines meant to be pipelined in one write.
//!
//! The generator is deliberately decoupled from `fv-api`: it emits typed
//! [`WorkloadOp`]s that format themselves to canonical wire-grammar lines
//! ([`WorkloadOp::wire_line`]), and the `fv-api`/`fv-net` test suites
//! verify every emitted line parses. Only script-compatible lines are
//! emitted (`use`, `close`, requests — never transport controls), so the
//! same stream can be replayed against a TCP server or a local
//! `EngineHub` and compared byte-for-byte.
//!
//! Determinism: everything derives from the spec's `u64` seed through the
//! same xorshift64* generator the balance simulation harness uses — no
//! wall clock, no global state. Equal specs produce equal scripts.

use crate::names::orf_name;

/// Deterministic xorshift64* RNG (the balance_sim pattern): tiny, seeded,
/// and good enough for workload shaping.
#[derive(Debug, Clone)]
pub struct WorkloadRng(u64);

impl WorkloadRng {
    pub fn new(seed: u64) -> WorkloadRng {
        WorkloadRng(seed.max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform draw in `0..bound` (`bound` 0 is treated as 1).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// A named query mix from the task-taxonomy catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Read-mostly skim: session summaries, dataset listings, full-frame
    /// renders, scrolling — the taxonomy's "overview first".
    Overview,
    /// Zoom-and-filter cascades: region/gene/text selections narrowing a
    /// view, renders between refinements, selection exports, resets.
    ZoomFilter,
    /// Cluster–recluster loops: metric/linkage changes with a full
    /// recluster and render after each — the compute-heavy analyst loop.
    ClusterLoop,
    /// SPELL query bursts against a compendium: ranked gene-list searches
    /// interleaved with text search and ontology enrichment.
    SpellBurst,
    /// Many-viewer fan-in: every client of the spec shares ONE session —
    /// client 0 drives mutations, all others issue read-only queries.
    FanIn,
    /// Per-client mix over the four single-session kinds above.
    Mixed,
}

/// All kinds, for catalogs and CLI listings.
pub const WORKLOAD_KINDS: &[WorkloadKind] = &[
    WorkloadKind::Overview,
    WorkloadKind::ZoomFilter,
    WorkloadKind::ClusterLoop,
    WorkloadKind::SpellBurst,
    WorkloadKind::FanIn,
    WorkloadKind::Mixed,
];

impl WorkloadKind {
    /// Stable name used on CLIs and in docs.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Overview => "overview",
            WorkloadKind::ZoomFilter => "zoom-filter",
            WorkloadKind::ClusterLoop => "cluster-loop",
            WorkloadKind::SpellBurst => "spell-burst",
            WorkloadKind::FanIn => "fan-in",
            WorkloadKind::Mixed => "mixed",
        }
    }

    /// Inverse of [`WorkloadKind::name`].
    pub fn from_name(s: &str) -> Option<WorkloadKind> {
        WORKLOAD_KINDS.iter().copied().find(|k| k.name() == s)
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of one generated workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Which mix to expand.
    pub kind: WorkloadKind,
    /// Number of concurrent clients to script.
    pub clients: usize,
    /// Bursts per client after the setup burst.
    pub bursts: usize,
    /// Gene-universe scale passed to `scenario` / `compendium` setup.
    pub n_genes: usize,
    /// Master seed; every derived stream is a pure function of it.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A small spec suitable for tests and CI smokes.
    pub fn small(kind: WorkloadKind, clients: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            kind,
            clients,
            bursts: 6,
            n_genes: 120,
            seed,
        }
    }
}

/// One typed request-stream element. Formats to a canonical wire-grammar
/// line; the set is intentionally a subset of the script grammar (no
/// transport controls), so streams replay against servers and local hubs
/// alike.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadOp {
    /// `use <session>` — switch to (or create) the client's session.
    Use(String),
    /// `close <session>` — drop the session at teardown.
    Close(String),
    /// `scenario <n_genes> <seed>` — three-dataset setup.
    Scenario { n_genes: usize, seed: u64 },
    /// `compendium <n_genes> <n_datasets> <seed>` — SPELL-scale setup.
    Compendium {
        n_genes: usize,
        n_datasets: usize,
        seed: u64,
    },
    /// `ontology <n_filler> <seed>` — enrichment ground truth.
    Ontology { n_filler: usize, seed: u64 },
    /// `select_region <dataset> <start> <end>` (fractions in 64ths, so
    /// the float text is short and exact).
    SelectRegion {
        dataset: usize,
        start_64ths: u32,
        end_64ths: u32,
    },
    /// `select_genes <g,g,...>`.
    SelectGenes(Vec<String>),
    /// `search_select <text>` — select by substring match.
    SearchSelect(String),
    /// `clear_selection`.
    ClearSelection,
    /// `scroll <delta>`.
    Scroll(i64),
    /// `cluster_all`.
    ClusterAll,
    /// `set_linkage <kw>`.
    SetLinkage(&'static str),
    /// `set_metric <kw>`.
    SetMetric(&'static str),
    /// `normalize all <method>`.
    Normalize(&'static str),
    /// `impute <dataset> <k>`.
    Impute { dataset: usize, k: usize },
    /// `cluster_arrays <dataset>`.
    ClusterArrays(usize),
    /// `search <text>`.
    Search(String),
    /// `spell <top_n> <g,g,...>`.
    Spell { top_n: usize, genes: Vec<String> },
    /// `enrich <max_terms> <g,g,...>`.
    Enrich {
        max_terms: usize,
        genes: Vec<String>,
    },
    /// `export_selection <what>`.
    ExportSelection(&'static str),
    /// `render <w> <h>` (no path: nothing written to disk under load).
    Render { width: usize, height: usize },
    /// `session_info`.
    SessionInfo,
    /// `list_datasets`.
    ListDatasets,
}

impl WorkloadOp {
    /// The canonical wire line for this op (no trailing newline).
    pub fn wire_line(&self) -> String {
        match self {
            WorkloadOp::Use(s) => format!("use {s}"),
            WorkloadOp::Close(s) => format!("close {s}"),
            WorkloadOp::Scenario { n_genes, seed } => format!("scenario {n_genes} {seed}"),
            WorkloadOp::Compendium {
                n_genes,
                n_datasets,
                seed,
            } => format!("compendium {n_genes} {n_datasets} {seed}"),
            WorkloadOp::Ontology { n_filler, seed } => format!("ontology {n_filler} {seed}"),
            WorkloadOp::SelectRegion {
                dataset,
                start_64ths,
                end_64ths,
            } => {
                let start = *start_64ths as f32 / 64.0;
                let end = *end_64ths as f32 / 64.0;
                format!("select_region {dataset} {start:?} {end:?}")
            }
            WorkloadOp::SelectGenes(genes) => format!("select_genes {}", join_list(genes)),
            WorkloadOp::SearchSelect(text) => format!("search_select {text}"),
            WorkloadOp::ClearSelection => "clear_selection".into(),
            WorkloadOp::Scroll(delta) => format!("scroll {delta}"),
            WorkloadOp::ClusterAll => "cluster_all".into(),
            WorkloadOp::SetLinkage(kw) => format!("set_linkage {kw}"),
            WorkloadOp::SetMetric(kw) => format!("set_metric {kw}"),
            WorkloadOp::Normalize(method) => format!("normalize all {method}"),
            WorkloadOp::Impute { dataset, k } => format!("impute {dataset} {k}"),
            WorkloadOp::ClusterArrays(d) => format!("cluster_arrays {d}"),
            WorkloadOp::Search(text) => format!("search {text}"),
            WorkloadOp::Spell { top_n, genes } => format!("spell {top_n} {}", join_list(genes)),
            WorkloadOp::Enrich { max_terms, genes } => {
                format!("enrich {max_terms} {}", join_list(genes))
            }
            WorkloadOp::ExportSelection(what) => format!("export_selection {what}"),
            WorkloadOp::Render { width, height } => format!("render {width} {height}"),
            WorkloadOp::SessionInfo => "session_info".into(),
            WorkloadOp::ListDatasets => "list_datasets".into(),
        }
    }
}

fn join_list(items: &[String]) -> String {
    if items.is_empty() {
        "-".to_string()
    } else {
        items.join(",")
    }
}

/// One scripted client: a session plus bursts of ops. Bursts are meant to
/// be pipelined (written in one batch, replies read after), so their size
/// stays far below the server's per-connection queue limit — generated
/// load never trips `E_BUSY`, which keeps replay comparisons exact.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientScript {
    /// Session this client drives (`use`d by the first burst).
    pub session: String,
    /// The query mix this client runs (differs per client under `Mixed`).
    pub kind: WorkloadKind,
    /// Op batches; each inner vec is one pipelined write.
    pub bursts: Vec<Vec<WorkloadOp>>,
}

impl ClientScript {
    /// All bursts flattened to wire lines, in send order.
    pub fn wire_lines(&self) -> Vec<String> {
        self.bursts
            .iter()
            .flatten()
            .map(WorkloadOp::wire_line)
            .collect()
    }

    /// The whole client stream as a replayable script text.
    pub fn script_text(&self) -> String {
        let mut out = String::new();
        for line in self.wire_lines() {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// Largest burst the generator will emit. Far below the server's default
/// per-connection queue limit (128): generated clients must never be the
/// ones to trigger `E_BUSY`, or replay comparisons would depend on
/// scheduler timing.
pub const MAX_BURST: usize = 8;

/// Session shared by every client of a [`WorkloadKind::FanIn`] workload.
pub const FAN_IN_SESSION: &str = "wall";

/// Expand a spec into one script per client. Pure: equal specs give
/// equal scripts.
pub fn generate(spec: &WorkloadSpec) -> Vec<ClientScript> {
    (0..spec.clients)
        .map(|client| {
            let kind = match spec.kind {
                WorkloadKind::Mixed => {
                    let mut rng =
                        WorkloadRng::new(spec.seed ^ (client as u64).wrapping_mul(0x9E37));
                    match rng.below(4) {
                        0 => WorkloadKind::Overview,
                        1 => WorkloadKind::ZoomFilter,
                        2 => WorkloadKind::ClusterLoop,
                        _ => WorkloadKind::SpellBurst,
                    }
                }
                k => k,
            };
            client_script(spec, kind, client)
        })
        .collect()
}

fn client_script(spec: &WorkloadSpec, kind: WorkloadKind, client: usize) -> ClientScript {
    // Each client's stream is seeded independently, so adding clients
    // never reshuffles existing ones.
    let mut rng = WorkloadRng::new(
        spec.seed
            .wrapping_mul(0x100000001B3)
            .wrapping_add(client as u64),
    );
    let session = match kind {
        WorkloadKind::FanIn => FAN_IN_SESSION.to_string(),
        k => format!("{}-{client}", k.name()),
    };
    let mut bursts = vec![setup_burst(spec, kind, &session, client)];
    for _ in 0..spec.bursts {
        let burst = match kind {
            WorkloadKind::Overview => overview_burst(&mut rng, spec),
            WorkloadKind::ZoomFilter => zoom_filter_burst(&mut rng, spec),
            WorkloadKind::ClusterLoop => cluster_loop_burst(&mut rng, spec),
            WorkloadKind::SpellBurst => spell_burst(&mut rng, spec),
            WorkloadKind::FanIn if client == 0 => fan_in_driver_burst(&mut rng, spec),
            WorkloadKind::FanIn => fan_in_viewer_burst(&mut rng),
            WorkloadKind::Mixed => unreachable!("Mixed resolves to a concrete kind per client"),
        };
        debug_assert!(burst.len() <= MAX_BURST, "bursts must stay pipelinable");
        bursts.push(burst);
    }
    ClientScript {
        session,
        kind,
        bursts,
    }
}

/// First burst: enter the session and load its data. Fan-in viewers load
/// nothing — they read whatever the driver builds.
fn setup_burst(
    spec: &WorkloadSpec,
    kind: WorkloadKind,
    session: &str,
    client: usize,
) -> Vec<WorkloadOp> {
    let mut ops = vec![WorkloadOp::Use(session.to_string())];
    match kind {
        WorkloadKind::SpellBurst => {
            ops.push(WorkloadOp::Compendium {
                n_genes: spec.n_genes,
                n_datasets: 8,
                seed: spec.seed,
            });
            ops.push(WorkloadOp::Ontology {
                n_filler: 40,
                seed: spec.seed,
            });
        }
        WorkloadKind::FanIn if client != 0 => {}
        _ => {
            ops.push(WorkloadOp::Scenario {
                n_genes: spec.n_genes,
                seed: spec.seed,
            });
            ops.push(WorkloadOp::Ontology {
                n_filler: 40,
                seed: spec.seed,
            });
        }
    }
    ops
}

fn gene_list(rng: &mut WorkloadRng, spec: &WorkloadSpec, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| orf_name(rng.below(spec.n_genes as u64) as usize))
        .collect()
}

const SEARCH_TERMS: &[&str] = &["stress", "heat", "ribosome", "kinase", "YAL", "transport"];
const METRICS: &[&str] = &[
    "pearson",
    "abspearson",
    "uncentered",
    "spearman",
    "euclidean",
];
const LINKAGES: &[&str] = &["single", "complete", "average", "ward"];
const NORMALIZE_METHODS: &[&str] = &["log2", "center", "median", "zscore"];
const EXPORTS: &[&str] = &["gene_list", "merged", "coverage"];

fn pick<'a>(rng: &mut WorkloadRng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

fn render_op(rng: &mut WorkloadRng) -> WorkloadOp {
    WorkloadOp::Render {
        width: 320 + 64 * rng.below(6) as usize,
        height: 240 + 48 * rng.below(6) as usize,
    }
}

fn overview_burst(rng: &mut WorkloadRng, _spec: &WorkloadSpec) -> Vec<WorkloadOp> {
    let mut ops = vec![WorkloadOp::SessionInfo, WorkloadOp::ListDatasets];
    ops.push(WorkloadOp::Scroll(rng.below(7) as i64 - 3));
    ops.push(render_op(rng));
    if rng.below(3) == 0 {
        ops.push(WorkloadOp::Search(pick(rng, SEARCH_TERMS).to_string()));
    }
    ops
}

fn zoom_filter_burst(rng: &mut WorkloadRng, spec: &WorkloadSpec) -> Vec<WorkloadOp> {
    let mut ops = Vec::new();
    match rng.below(3) {
        0 => {
            let start = rng.below(48) as u32;
            let len = 1 + rng.below(16) as u32;
            ops.push(WorkloadOp::SelectRegion {
                dataset: rng.below(3) as usize,
                start_64ths: start,
                end_64ths: (start + len).min(64),
            });
        }
        1 => {
            let n = 1 + rng.below(5) as usize;
            ops.push(WorkloadOp::SelectGenes(gene_list(rng, spec, n)));
        }
        _ => ops.push(WorkloadOp::SearchSelect(
            pick(rng, SEARCH_TERMS).to_string(),
        )),
    }
    ops.push(render_op(rng));
    match rng.below(3) {
        0 => ops.push(WorkloadOp::ExportSelection(pick(rng, EXPORTS))),
        1 => {
            let max_terms = 1 + rng.below(8) as usize;
            let n = 1 + rng.below(4) as usize;
            ops.push(WorkloadOp::Enrich {
                max_terms,
                genes: gene_list(rng, spec, n),
            });
        }
        _ => {}
    }
    if rng.below(2) == 0 {
        ops.push(WorkloadOp::ClearSelection);
    }
    ops
}

fn cluster_loop_burst(rng: &mut WorkloadRng, spec: &WorkloadSpec) -> Vec<WorkloadOp> {
    let mut ops = Vec::new();
    match rng.below(6) {
        0 => ops.push(WorkloadOp::Normalize(pick(rng, NORMALIZE_METHODS))),
        1 => ops.push(WorkloadOp::Impute {
            dataset: rng.below(3) as usize,
            k: 1 + rng.below(8) as usize,
        }),
        2 => ops.push(WorkloadOp::ClusterArrays(rng.below(3) as usize)),
        _ => {}
    }
    ops.push(WorkloadOp::SetMetric(pick(rng, METRICS)));
    ops.push(WorkloadOp::SetLinkage(pick(rng, LINKAGES)));
    ops.push(WorkloadOp::ClusterAll);
    ops.push(render_op(rng));
    let _ = spec;
    ops
}

fn spell_burst(rng: &mut WorkloadRng, spec: &WorkloadSpec) -> Vec<WorkloadOp> {
    let top_n = 3 + rng.below(10) as usize;
    let n = 1 + rng.below(4) as usize;
    let mut ops = vec![WorkloadOp::Spell {
        top_n,
        genes: gene_list(rng, spec, n),
    }];
    if rng.below(2) == 0 {
        ops.push(WorkloadOp::Search(pick(rng, SEARCH_TERMS).to_string()));
    }
    if rng.below(3) == 0 {
        let max_terms = 1 + rng.below(6) as usize;
        let n = 1 + rng.below(4) as usize;
        ops.push(WorkloadOp::Enrich {
            max_terms,
            genes: gene_list(rng, spec, n),
        });
    }
    ops
}

fn fan_in_driver_burst(rng: &mut WorkloadRng, spec: &WorkloadSpec) -> Vec<WorkloadOp> {
    let mut ops = Vec::new();
    match rng.below(3) {
        0 => ops.push(WorkloadOp::SearchSelect(
            pick(rng, SEARCH_TERMS).to_string(),
        )),
        1 => {
            let n = 1 + rng.below(4) as usize;
            ops.push(WorkloadOp::SelectGenes(gene_list(rng, spec, n)));
        }
        _ => ops.push(WorkloadOp::Scroll(rng.below(5) as i64 - 2)),
    }
    ops.push(render_op(rng));
    ops
}

fn fan_in_viewer_burst(rng: &mut WorkloadRng) -> Vec<WorkloadOp> {
    let mut ops = vec![WorkloadOp::SessionInfo];
    if rng.below(2) == 0 {
        ops.push(WorkloadOp::ListDatasets);
    }
    ops.push(render_op(rng));
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_per_client_stable() {
        let spec = WorkloadSpec::small(WorkloadKind::Mixed, 6, 42);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b, "equal specs must generate equal scripts");
        // adding clients never reshuffles existing streams
        let more = generate(&WorkloadSpec {
            clients: 9,
            ..spec.clone()
        });
        assert_eq!(&more[..6], &a[..]);
    }

    #[test]
    fn every_kind_produces_bounded_bursts_and_private_sessions() {
        for &kind in WORKLOAD_KINDS {
            let spec = WorkloadSpec::small(kind, 4, 7);
            let scripts = generate(&spec);
            assert_eq!(scripts.len(), 4);
            for (i, script) in scripts.iter().enumerate() {
                assert_eq!(script.bursts.len(), spec.bursts + 1, "setup + N bursts");
                for burst in &script.bursts {
                    assert!(!burst.is_empty());
                    assert!(burst.len() <= MAX_BURST, "{kind}: burst too large");
                }
                match kind {
                    WorkloadKind::FanIn => assert_eq!(script.session, FAN_IN_SESSION),
                    WorkloadKind::Mixed => {
                        assert!(script.session.ends_with(&format!("-{i}")))
                    }
                    k => assert_eq!(script.session, format!("{}-{i}", k.name())),
                }
            }
        }
    }

    #[test]
    fn fan_in_viewers_are_read_only() {
        let spec = WorkloadSpec::small(WorkloadKind::FanIn, 5, 3);
        let scripts = generate(&spec);
        for script in &scripts[1..] {
            for op in script.bursts.iter().flatten() {
                assert!(
                    matches!(
                        op,
                        WorkloadOp::Use(_)
                            | WorkloadOp::SessionInfo
                            | WorkloadOp::ListDatasets
                            | WorkloadOp::Render { .. }
                    ),
                    "viewer emitted a mutation: {op:?}"
                );
            }
        }
        assert!(
            scripts[0]
                .bursts
                .iter()
                .flatten()
                .any(|op| matches!(op, WorkloadOp::Scenario { .. })),
            "the driver loads the shared session's data"
        );
    }

    #[test]
    fn kind_names_roundtrip() {
        for &kind in WORKLOAD_KINDS {
            assert_eq!(WorkloadKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::from_name("nope"), None);
    }

    #[test]
    fn wire_lines_look_like_the_script_grammar() {
        let spec = WorkloadSpec::small(WorkloadKind::ZoomFilter, 2, 11);
        for script in generate(&spec) {
            let text = script.script_text();
            assert!(text.starts_with("use zoom-filter-"));
            for line in text.lines() {
                assert!(!line.trim().is_empty());
                assert_eq!(line, line.trim(), "lines carry no stray whitespace");
            }
        }
    }
}
