//! Seeded, wall-clock-free **workload generator**: synthetic *traffic*
//! the way `fv-synth` synthesizes *data*.
//!
//! Each [`WorkloadKind`] is a named, parameterized query mix derived from
//! the visualization task taxonomies the ROADMAP cites (GQVis questions;
//! Nusrat/Harbig/Gehlenborg tasks): an **overview** skim, a **zoom/filter
//! cascade**, a **cluster–recluster loop**, a **spell-search burst**, and
//! a **many-viewer fan-in** on one shared session. [`generate`] expands a
//! [`WorkloadSpec`] into per-client scripts — for every client a private
//! (or, for fan-in, shared) session plus a list of *bursts*, each burst a
//! batch of script items meant to be pipelined in one write.
//!
//! The generator builds typed [`ScriptItem`]s — `use`, `close` and
//! requests, never transport controls — and the one request formatter
//! ([`format_script_item`]) writes their wire lines, so the same stream
//! can be replayed against a TCP server or a local `EngineHub` and
//! compared byte-for-byte.
//!
//! Determinism: everything derives from the spec's `u64` seed through
//! [`WorkloadRng`], the xorshift64* generator the balance simulation
//! harness uses — no wall clock, no global state. Equal specs produce
//! equal scripts.

#![deny(clippy::disallowed_types, reason = "seeded: no wall clock")]

use crate::codec::{format_script_item, ScriptItem};
use crate::request::{Mutation, NormalizeMethod, Query, Request, SelectionExport};
use forestview::command::Command;
use fv_cluster::distance::Metric;
use fv_cluster::linkage::Linkage;
use fv_synth::names::orf_name;
use fv_synth::workload::WorkloadRng;

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

/// One scripted client: a session plus bursts of script items. Bursts
/// are meant to be pipelined (written in one batch, replies read after),
/// so their size stays far below the server's per-connection queue limit
/// — generated load never trips `E_BUSY`, which keeps replay comparisons
/// exact.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientScript {
    /// Session this client drives (`use`d by the first burst).
    pub session: String,
    /// The query mix this client runs (differs per client under `Mixed`).
    pub kind: WorkloadKind,
    /// Item batches; each inner vec is one pipelined write.
    pub bursts: Vec<Vec<ScriptItem>>,
}

impl ClientScript {
    /// All bursts flattened to wire lines, in send order.
    pub fn wire_lines(&self) -> Vec<String> {
        self.bursts
            .iter()
            .flatten()
            .map(format_script_item)
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
            WorkloadKind::Overview => overview_burst(&mut rng),
            WorkloadKind::ZoomFilter => zoom_filter_burst(&mut rng, spec),
            WorkloadKind::ClusterLoop => cluster_loop_burst(&mut rng),
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
) -> Vec<ScriptItem> {
    let mut items = vec![ScriptItem::Use(session.to_string())];
    let ontology = Mutation::BuildOntology {
        n_filler: 40,
        seed: spec.seed,
    };
    match kind {
        WorkloadKind::SpellBurst => {
            items.push(request(Mutation::LoadCompendium {
                n_genes: spec.n_genes,
                n_datasets: 8,
                seed: spec.seed,
            }));
            items.push(request(ontology));
        }
        WorkloadKind::FanIn if client != 0 => {}
        _ => {
            items.push(request(Mutation::LoadScenario {
                n_genes: spec.n_genes,
                seed: spec.seed,
            }));
            items.push(request(ontology));
        }
    }
    items
}

fn request(request: impl Into<Request>) -> ScriptItem {
    ScriptItem::Request(request.into())
}

fn gene_list(rng: &mut WorkloadRng, spec: &WorkloadSpec, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| orf_name(rng.below(spec.n_genes as u64) as usize))
        .collect()
}

const SEARCH_TERMS: &[&str] = &["stress", "heat", "ribosome", "kinase", "YAL", "transport"];
const METRICS: &[Metric] = &[
    Metric::Pearson,
    Metric::AbsPearson,
    Metric::Uncentered,
    Metric::Spearman,
    Metric::Euclidean,
];
const LINKAGES: &[Linkage] = &[
    Linkage::Single,
    Linkage::Complete,
    Linkage::Average,
    Linkage::Ward,
];
const NORMALIZE_METHODS: &[NormalizeMethod] = &[
    NormalizeMethod::Log2,
    NormalizeMethod::CenterRows,
    NormalizeMethod::MedianCenterRows,
    NormalizeMethod::ZscoreRows,
];
const EXPORTS: &[SelectionExport] = &[
    SelectionExport::GeneList,
    SelectionExport::Merged,
    SelectionExport::Coverage,
];

fn pick<T: Copy>(rng: &mut WorkloadRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn search_term(rng: &mut WorkloadRng) -> String {
    pick(rng, SEARCH_TERMS).to_string()
}

/// `render <w> <h>` (no path: nothing is written to disk under load).
fn render(rng: &mut WorkloadRng) -> ScriptItem {
    request(Query::Render {
        width: 320 + 64 * rng.below(6) as usize,
        height: 240 + 48 * rng.below(6) as usize,
        path: None,
    })
}

fn overview_burst(rng: &mut WorkloadRng) -> Vec<ScriptItem> {
    let mut items = vec![request(Query::SessionInfo), request(Query::ListDatasets)];
    items.push(request(Command::Scroll(rng.below(7) as i64 - 3)));
    items.push(render(rng));
    if rng.below(3) == 0 {
        items.push(request(Query::Search {
            query: search_term(rng),
        }));
    }
    items
}

fn zoom_filter_burst(rng: &mut WorkloadRng, spec: &WorkloadSpec) -> Vec<ScriptItem> {
    let mut items = Vec::new();
    match rng.below(3) {
        0 => {
            // fractions in 64ths, so the float text is short and exact
            let start = rng.below(48) as u32;
            let len = 1 + rng.below(16) as u32;
            items.push(request(Command::SelectRegion {
                dataset: rng.below(3) as usize,
                start_frac: start as f32 / 64.0,
                end_frac: (start + len).min(64) as f32 / 64.0,
            }));
        }
        1 => {
            let n = 1 + rng.below(5) as usize;
            items.push(request(Command::SelectGenes(gene_list(rng, spec, n))));
        }
        _ => items.push(request(Command::Search(search_term(rng)))),
    }
    items.push(render(rng));
    match rng.below(3) {
        0 => items.push(request(Query::ExportSelection {
            what: pick(rng, EXPORTS),
        })),
        1 => items.push(enrich(rng, spec, 8)),
        _ => {}
    }
    if rng.below(2) == 0 {
        items.push(request(Command::ClearSelection));
    }
    items
}

/// `enrich <max_terms> <genes>`, up to `max_terms` terms over 1–4 genes.
fn enrich(rng: &mut WorkloadRng, spec: &WorkloadSpec, max_terms: u64) -> ScriptItem {
    let max_terms = 1 + rng.below(max_terms) as usize;
    let n = 1 + rng.below(4) as usize;
    request(Query::Enrich {
        max_terms,
        genes: Some(gene_list(rng, spec, n)),
    })
}

fn cluster_loop_burst(rng: &mut WorkloadRng) -> Vec<ScriptItem> {
    let mut items = Vec::new();
    match rng.below(6) {
        0 => items.push(request(Mutation::Normalize {
            dataset: None,
            method: pick(rng, NORMALIZE_METHODS),
        })),
        1 => items.push(request(Mutation::Impute {
            dataset: rng.below(3) as usize,
            k: 1 + rng.below(8) as usize,
        })),
        2 => items.push(request(Mutation::ClusterArrays {
            dataset: rng.below(3) as usize,
        })),
        _ => {}
    }
    items.push(request(Command::SetMetric(pick(rng, METRICS))));
    items.push(request(Command::SetLinkage(pick(rng, LINKAGES))));
    items.push(request(Command::ClusterAll));
    items.push(render(rng));
    items
}

fn spell_burst(rng: &mut WorkloadRng, spec: &WorkloadSpec) -> Vec<ScriptItem> {
    let top_n = 3 + rng.below(10) as usize;
    let n = 1 + rng.below(4) as usize;
    let mut items = vec![request(Query::Spell {
        top_n,
        genes: gene_list(rng, spec, n),
    })];
    if rng.below(2) == 0 {
        items.push(request(Query::Search {
            query: search_term(rng),
        }));
    }
    if rng.below(3) == 0 {
        items.push(enrich(rng, spec, 6));
    }
    items
}

fn fan_in_driver_burst(rng: &mut WorkloadRng, spec: &WorkloadSpec) -> Vec<ScriptItem> {
    let mut items = Vec::new();
    match rng.below(3) {
        0 => items.push(request(Command::Search(search_term(rng)))),
        1 => {
            let n = 1 + rng.below(4) as usize;
            items.push(request(Command::SelectGenes(gene_list(rng, spec, n))));
        }
        _ => items.push(request(Command::Scroll(rng.below(5) as i64 - 2))),
    }
    items.push(render(rng));
    items
}

fn fan_in_viewer_burst(rng: &mut WorkloadRng) -> Vec<ScriptItem> {
    let mut items = vec![request(Query::SessionInfo)];
    if rng.below(2) == 0 {
        items.push(request(Query::ListDatasets));
    }
    items.push(render(rng));
    items
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
            for item in script.bursts.iter().flatten() {
                assert!(
                    matches!(
                        item,
                        ScriptItem::Use(_) | ScriptItem::Request(Request::Query(_))
                    ),
                    "viewer emitted a mutation: {item:?}"
                );
            }
        }
        assert!(
            scripts[0].bursts.iter().flatten().any(|item| matches!(
                item,
                ScriptItem::Request(Request::Mutate(Mutation::LoadScenario { .. }))
            )),
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
