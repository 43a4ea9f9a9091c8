//! The execution engine: one [`Session`] driven entirely through
//! [`Request`]s.
//!
//! `Engine` is the seam between the protocol and the application core.
//! [`Engine::execute`] runs one request; [`Engine::execute_run`] runs a
//! contiguous request run — the same step per request, timed, stopping
//! at the first error — and is what replayed scripts and the network
//! transport go through.
//!
//! The engine owns lazily-built analysis state: a SPELL index rebuilt only
//! when dataset contents change (a version counter tracks mutations), and
//! an optional GOLEM ontology context attached by
//! [`Mutation::BuildOntology`].

use crate::cache::DatasetCache;
use crate::error::ApiError;
use crate::image::{DatasetStamp, SessionImage};
use crate::request::{Mutation, NormalizeMethod, Query, Request, SelectionExport};
use crate::response::{
    DamageRect, DatasetRow, EnrichmentRow, Response, SessionInfoData, SpellDatasetRow, SpellGeneRow,
};
use forestview::command;
use forestview::session::Axis;
use forestview::Session;
use fv_golem::{enrich, EnrichmentConfig};
use fv_ontology::annotations::PropagatedAnnotations;
use fv_ontology::dag::OntologyDag;
use fv_spell::{SpellConfig, SpellEngine};
use fv_synth::compendium::CompendiumSpec;
use fv_synth::modules::GroundTruth;
use fv_synth::ontogen::generate_ontology;
use fv_synth::scenario::Scenario;
use std::path::Path;

/// Default scene dimensions damage rectangles are resolved against.
pub const DEFAULT_SCENE: (usize, usize) = (1280, 960);

/// Outcome of a request *run* ([`Engine::execute_run`]): the responses of
/// the completed prefix, plus the first error (with its request index) if
/// the run stopped early. Each `Applied` response carries its own damage
/// rectangles — byte-identical to what sequential [`Engine::execute`]
/// calls would have produced — so a transport can relay per-request
/// results.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// One response per *completed* request, in order.
    pub responses: Vec<Response>,
    /// `(index of the failing request, its error)`, if the run aborted.
    /// Requests after the index never executed; mutations before it stay
    /// applied (the protocol has no rollback).
    pub error: Option<(usize, ApiError)>,
    /// Wall-clock execution time of each attempted request (the failing
    /// request included, if any) — one entry per response plus one for
    /// the error. Transports fold these into per-shard latency
    /// histograms; the values never cross the wire themselves.
    pub latencies: Vec<std::time::Duration>,
}

/// Placement-cost estimate of one engine — the per-session signals an
/// automatic rebalancer consumes. `requests` is cumulative and travels
/// with the engine across a migration, so load deltas stay meaningful
/// whichever shard the session lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineCost {
    /// Requests this engine has *attempted* since creation (a failing
    /// request counts; requests skipped after an error do not) — the same
    /// population per-shard latency histograms observe.
    pub requests: u64,
    /// Approximate resident bytes of the loaded datasets (expression
    /// values plus presence masks), counted through the shared-cache
    /// handles. Sessions sharing one cached parse each report the full
    /// size: the estimate prices what the session *uses*, not what an
    /// eviction would free.
    pub dataset_bytes: u64,
}

struct GolemContext {
    dag: OntologyDag,
    annotations: PropagatedAnnotations,
}

/// One session behind the request/response protocol.
pub struct Engine {
    session: Session,
    scene: (usize, usize),
    /// Shared cache `load` parses and `cluster_*` cluster through.
    /// Hub-created engines share their hub's (and, under fv-net, the
    /// whole server's); a standalone engine gets a private one — which
    /// still dedupes repeated loads of the same file within the session.
    cache: DatasetCache,
    /// Bumped by every mutation that can change expression values or the
    /// dataset roster; invalidates the SPELL index.
    dataset_version: u64,
    /// Attempted requests since creation (see [`EngineCost::requests`]).
    requests_executed: u64,
    /// Compacted log of every successful mutation, in application order —
    /// the replay half of [`Engine::snapshot`]. Consecutive same-slot
    /// absolute writes (contrast on one target, linkage, metric) collapse
    /// to the latest, which is provably state-preserving; nothing else is
    /// dropped, not even a repeated `cluster_all`, which replays as a
    /// derived-cache hit.
    log: Vec<Mutation>,
    /// Stamp of each file-loaded dataset, keyed by the user-spelled path
    /// (latest observation wins) — the restore-time assertion that
    /// replay sees the same bytes.
    stamps: std::collections::BTreeMap<String, DatasetStamp>,
    spell: Option<(u64, SpellEngine)>,
    golem: Option<GolemContext>,
    truth: Option<GroundTruth>,
}

// Shards move engines between threads, and a wall render shares one
// engine's `&Session` across tile threads.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Engine>();
};

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Engine over an empty session with the default scene size.
    pub fn new() -> Self {
        Engine::with_scene(DEFAULT_SCENE.0, DEFAULT_SCENE.1)
    }

    /// Engine over an empty session; damage resolves against
    /// `scene_w × scene_h`.
    pub fn with_scene(scene_w: usize, scene_h: usize) -> Self {
        Engine::with_scene_and_cache(scene_w, scene_h, DatasetCache::new())
    }

    /// Engine whose `load` requests go through a shared [`DatasetCache`]
    /// — how hubs (and sharded transports) make N sessions share one
    /// parse of the same file.
    pub fn with_scene_and_cache(scene_w: usize, scene_h: usize, cache: DatasetCache) -> Self {
        Engine {
            session: Session::new(),
            scene: (scene_w, scene_h),
            cache,
            dataset_version: 0,
            requests_executed: 0,
            log: Vec::new(),
            stamps: std::collections::BTreeMap::new(),
            spell: None,
            golem: None,
            truth: None,
        }
    }

    /// Read access to the underlying session (rendering helpers, tests).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The dataset cache this engine loads through.
    pub fn cache(&self) -> &DatasetCache {
        &self.cache
    }

    /// Scene dimensions damage is resolved against.
    pub fn scene(&self) -> (usize, usize) {
        self.scene
    }

    /// The engine's placement-cost estimate (see [`EngineCost`]).
    pub fn cost(&self) -> EngineCost {
        let mut dataset_bytes: u64 = 0;
        for d in 0..self.session.n_datasets() {
            let ds = self.session.dataset(d);
            let cells = (ds.n_genes() as u64) * (ds.n_conditions() as u64);
            // f32 values plus one presence bit per cell.
            dataset_bytes += cells * 4 + cells.div_ceil(8);
        }
        EngineCost {
            requests: self.requests_executed,
            dataset_bytes,
        }
    }

    /// Execute one request.
    pub fn execute(&mut self, request: &Request) -> Result<Response, ApiError> {
        self.requests_executed += 1;
        match request {
            Request::Mutate(m) => self.perform_mutation(m),
            Request::Query(q) => self.run_query(q),
        }
    }

    /// Execute a request run: sequential [`Engine::execute`] calls — a
    /// request is a run of one — each timed, stopping at the first error
    /// and keeping the completed prefix's responses. This is the entry
    /// point network transports map contiguous same-session request runs
    /// onto.
    pub fn execute_run(&mut self, requests: &[Request]) -> RunOutcome {
        let mut outcome = RunOutcome {
            responses: Vec::with_capacity(requests.len()),
            error: None,
            latencies: Vec::with_capacity(requests.len()),
        };
        for (i, request) in requests.iter().enumerate() {
            let started = std::time::Instant::now();
            let result = self.execute(request);
            outcome.latencies.push(started.elapsed());
            match result {
                Ok(r) => outcome.responses.push(r),
                Err(e) => {
                    outcome.error = Some((i, e));
                    break;
                }
            }
        }
        outcome
    }

    /// Durably represent this session: scene, attempted-request counter,
    /// dataset fingerprints (sorted by path), and the compacted mutation
    /// log. [`Engine::restore`] rebuilds an identical session from it —
    /// the representation process-backed shard transports migrate and the
    /// future on-disk persistence format.
    pub fn snapshot(&self) -> SessionImage {
        SessionImage {
            scene: self.scene,
            requests: self.requests_executed,
            datasets: self.stamps.values().cloned().collect(),
            log: self.log.clone(),
        }
    }

    /// Rebuild a session from its image: assert every dataset fingerprint
    /// still matches the file on disk (an image is exact only against
    /// unchanged bytes — a process-backed install must refuse otherwise),
    /// then replay the log through the normal execute path against
    /// `cache`. The restored engine re-snapshots to the same image.
    pub fn restore(image: &SessionImage, cache: &DatasetCache) -> Result<Engine, ApiError> {
        for stamp in &image.datasets {
            let same = stamp
                .verify(Path::new(&stamp.path))
                .map_err(|e| ApiError::io(format!("{}: {e}", stamp.path)))?;
            if same.is_none() {
                return Err(ApiError::stale_image(format!(
                    "dataset {} changed since the session image was taken ({} bytes then); \
                     refusing to restore",
                    stamp.path, stamp.len
                )));
            }
        }
        let mut engine = Engine::with_scene_and_cache(image.scene.0, image.scene.1, cache.clone());
        for mutation in &image.log {
            engine
                .execute(&Request::Mutate(mutation.clone()))
                .map_err(|e| {
                    ApiError::new(
                        e.code,
                        format!(
                            "session image replay failed at `{}`: {}",
                            crate::codec::format_request(&Request::Mutate(mutation.clone())),
                            e.message
                        ),
                    )
                })?;
        }
        // Queries and failed requests counted toward the original
        // engine's attempted-request total but never entered the log;
        // the explicit counter restores `Engine::cost` exactly.
        engine.requests_executed = image.requests;
        Ok(engine)
    }

    /// Apply a mutation, recording it in the session log on success. Only
    /// `Applied` carries damage rectangles on the wire — for the
    /// data-management mutations the damage is implied by the response
    /// kind, so they never pay for a layout pass.
    fn perform_mutation(&mut self, mutation: &Mutation) -> Result<Response, ApiError> {
        let result = self.apply_mutation(mutation);
        if result.is_ok() {
            self.record_mutation(mutation);
        }
        result
    }

    /// Append a successful mutation to the log, where a consecutive
    /// same-slot absolute write ([`supersedes`]) replaces the one before
    /// it. Nothing else is dropped: a repeated `cluster_all` or a
    /// re-asserted metric is recorded too, and replays as a derived-cache
    /// hit.
    fn record_mutation(&mut self, mutation: &Mutation) {
        if let Some(last) = self.log.last() {
            if supersedes(mutation, last) {
                self.log.pop();
            }
        }
        self.log.push(mutation.clone());
    }

    fn apply_mutation(&mut self, mutation: &Mutation) -> Result<Response, ApiError> {
        match mutation {
            Mutation::Command(cmd) => {
                self.validate_command(cmd)?;
                let class = if matches!(cmd, forestview::command::Command::ClusterAll) {
                    // `Session::cluster_all`, but asking the cache.
                    for d in 0..self.session.n_datasets() {
                        self.cluster_shared(d, Axis::Genes);
                    }
                    command::DamageClass::Full
                } else {
                    command::perform(&mut self.session, cmd)
                };
                let (w, h) = self.scene;
                let rects = command::resolve_damage(&self.session, class, w, h);
                Ok(Response::Applied {
                    selection_len: self.session.selection().map(|s| s.len()),
                    damage: rects.into_iter().map(DamageRect::from).collect(),
                })
            }
            Mutation::LoadDataset { path } => {
                let (ds, stamp) = self.cache.load_stamped(path)?;
                let (name, genes, conditions) = (ds.name.clone(), ds.n_genes(), ds.n_conditions());
                let idx = self.session.load_shared_dataset(ds)?;
                self.stamps.insert(path.clone(), stamp);
                self.dataset_version += 1;
                Ok(Response::Loaded {
                    dataset: idx,
                    name,
                    genes,
                    conditions,
                })
            }
            Mutation::LoadScenario { n_genes, seed } => {
                let min_genes = Scenario::min_genes();
                if *n_genes < min_genes {
                    return Err(ApiError::invalid(format!(
                        "scenario needs at least {min_genes} genes, got {n_genes}"
                    )));
                }
                let scenario = Scenario::three_datasets(*n_genes, *seed);
                let names: Vec<String> = scenario.datasets.iter().map(|d| d.name.clone()).collect();
                for ds in scenario.datasets {
                    self.session.load_dataset(ds)?;
                }
                self.truth = Some(scenario.truth);
                self.dataset_version += 1;
                Ok(Response::ScenarioLoaded {
                    names,
                    n_genes: *n_genes,
                })
            }
            Mutation::LoadCompendium {
                n_genes,
                n_datasets,
                seed,
            } => {
                let (min_genes, min_datasets) =
                    (Scenario::min_genes(), CompendiumSpec::MIN_DATASETS);
                if *n_genes < min_genes || *n_datasets < min_datasets {
                    return Err(ApiError::invalid(format!(
                        "compendium needs at least {min_genes} genes and {min_datasets} \
                         datasets, got {n_genes} and {n_datasets}"
                    )));
                }
                let scenario = Scenario::spell_compendium(*n_genes, *n_datasets, *seed);
                let names: Vec<String> = scenario.datasets.iter().map(|d| d.name.clone()).collect();
                for ds in scenario.datasets {
                    self.session.load_dataset(ds)?;
                }
                self.truth = Some(scenario.truth);
                self.dataset_version += 1;
                Ok(Response::ScenarioLoaded {
                    names,
                    n_genes: *n_genes,
                })
            }
            Mutation::BuildOntology { n_filler, seed } => {
                let truth = self.truth.as_ref().ok_or_else(|| {
                    ApiError::missing_context(
                        "ontology generation needs scenario ground truth; run `scenario` first",
                    )
                })?;
                let generated = generate_ontology(truth, *n_filler, *seed);
                let annotations = generated.annotations.propagate(&generated.dag);
                let terms = generated.dag.ids().count();
                self.golem = Some(GolemContext {
                    dag: generated.dag,
                    annotations,
                });
                Ok(Response::OntologyReady { terms })
            }
            Mutation::Impute { dataset, k } => {
                self.check_dataset(*dataset)?;
                if *k == 0 {
                    return Err(ApiError::invalid("impute needs k >= 1"));
                }
                // KNN imputation always uses Euclidean neighbours — the
                // session's cluster metric is a *clustering* setting and
                // must not silently change imputed values.
                let stats = fv_cluster::impute::knn_impute(
                    self.session.dataset_matrix_mut(*dataset),
                    *k,
                    fv_cluster::distance::Metric::Euclidean,
                );
                self.dataset_version += 1;
                Ok(Response::Imputed {
                    filled: stats.filled,
                    missing_before: stats.missing_before,
                })
            }
            Mutation::Normalize { dataset, method } => {
                let targets: Vec<usize> = match dataset {
                    Some(d) => {
                        self.check_dataset(*d)?;
                        vec![*d]
                    }
                    None => (0..self.session.n_datasets()).collect(),
                };
                for &d in &targets {
                    let m = self.session.dataset_matrix_mut(d);
                    match method {
                        NormalizeMethod::Log2 => fv_expr::normalize::log2_transform(m),
                        NormalizeMethod::CenterRows => fv_expr::normalize::mean_center_rows(m),
                        NormalizeMethod::MedianCenterRows => {
                            fv_expr::normalize::median_center_rows(m)
                        }
                        NormalizeMethod::ZscoreRows => fv_expr::normalize::zscore_rows(m),
                    }
                }
                self.dataset_version += 1;
                Ok(Response::Normalized {
                    datasets: targets.len(),
                })
            }
            Mutation::ClusterArrays { dataset } => {
                self.check_dataset(*dataset)?;
                self.cluster_shared(*dataset, Axis::Arrays);
                Ok(Response::ArraysClustered { dataset: *dataset })
            }
        }
    }

    fn run_query(&mut self, query: &Query) -> Result<Response, ApiError> {
        match query {
            Query::Search { query } => {
                let merged = self.session.merged();
                let genes = forestview::search::search_genes(merged, query)
                    .into_iter()
                    .map(|g| merged.universe().name(g).to_string())
                    .collect();
                Ok(Response::SearchHits { genes })
            }
            Query::Spell { genes, top_n } => {
                if genes.is_empty() {
                    return Err(ApiError::invalid("spell needs at least one query gene"));
                }
                if self.session.n_datasets() == 0 {
                    return Err(ApiError::invalid("spell needs at least one loaded dataset"));
                }
                let engine = self.ensure_spell_index();
                let refs: Vec<&str> = genes.iter().map(|s| s.as_str()).collect();
                let result = engine.query(&refs);
                Ok(Response::SpellRanking {
                    datasets: result
                        .datasets
                        .iter()
                        .map(|d| SpellDatasetRow {
                            name: d.name.clone(),
                            weight: d.weight,
                            query_genes_present: d.query_genes_present,
                        })
                        .collect(),
                    genes: result
                        .top_new_genes(*top_n)
                        .into_iter()
                        .map(|g| SpellGeneRow {
                            gene: g.gene.clone(),
                            score: g.score,
                            n_datasets: g.n_datasets,
                        })
                        .collect(),
                    query_missing: result.query_missing.clone(),
                })
            }
            Query::Enrich { genes, max_terms } => {
                let golem = self.golem.as_ref().ok_or_else(|| {
                    ApiError::missing_context("enrichment needs an ontology; run `ontology` first")
                })?;
                let names: Vec<String> = match genes {
                    Some(g) => g.clone(),
                    None => {
                        let sel = self.session.selection().ok_or_else(|| {
                            ApiError::invalid("enrich over selection, but nothing is selected")
                        })?;
                        sel.genes()
                            .iter()
                            .map(|&g| self.session.merged().universe().name(g).to_string())
                            .collect()
                    }
                };
                let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
                let results = enrich(
                    &golem.dag,
                    &golem.annotations,
                    &refs,
                    &EnrichmentConfig::default(),
                );
                Ok(Response::Enrichment {
                    rows: results
                        .iter()
                        .take(*max_terms)
                        .map(|r| EnrichmentRow {
                            accession: golem.dag.term(r.term).accession.clone(),
                            name: golem.dag.term(r.term).name.clone(),
                            p_value: r.p_value,
                            q_value: r.q_value,
                            overlap: r.overlap,
                            annotated: r.annotated,
                        })
                        .collect(),
                })
            }
            Query::Render {
                width,
                height,
                path,
            } => {
                if *width == 0 || *height == 0 {
                    return Err(ApiError::invalid("render needs nonzero dimensions"));
                }
                let fb = forestview::renderer::render_desktop(&self.session, *width, *height);
                if let Some(p) = path {
                    fv_render::image::write_ppm(&fb, p)
                        .map_err(|e| ApiError::io(format!("{p}: {e}")))?;
                }
                Ok(Response::Frame {
                    width: *width,
                    height: *height,
                    panes: self.session.n_datasets(),
                    checksum: fnv1a(fb.bytes()),
                    path: path.clone(),
                })
            }
            Query::ExportCdt { dataset, prefix } => {
                self.check_dataset(*dataset)?;
                let (cdt, gtr, atr) = self.session.export_clustered_cdt(*dataset);
                let mut files = Vec::new();
                if let Some(prefix) = prefix {
                    let cdt_path = format!("{prefix}.cdt");
                    std::fs::write(&cdt_path, &cdt)
                        .map_err(|e| ApiError::io(format!("{cdt_path}: {e}")))?;
                    files.push(cdt_path);
                    if let Some(g) = &gtr {
                        let p = format!("{prefix}.gtr");
                        std::fs::write(&p, g).map_err(|e| ApiError::io(format!("{p}: {e}")))?;
                        files.push(p);
                    }
                    if let Some(a) = &atr {
                        let p = format!("{prefix}.atr");
                        std::fs::write(&p, a).map_err(|e| ApiError::io(format!("{p}: {e}")))?;
                        files.push(p);
                    }
                }
                Ok(Response::CdtExported {
                    dataset: *dataset,
                    files,
                    cdt_bytes: cdt.len(),
                    has_gtr: gtr.is_some(),
                    has_atr: atr.is_some(),
                })
            }
            Query::ExportPcl { dataset, path } => {
                self.check_dataset(*dataset)?;
                let ds = self.session.dataset(*dataset);
                std::fs::write(path, fv_formats::pcl::write_pcl(ds))
                    .map_err(|e| ApiError::io(format!("{path}: {e}")))?;
                Ok(Response::PclExported {
                    dataset: *dataset,
                    path: path.clone(),
                    genes: ds.n_genes(),
                    conditions: ds.n_conditions(),
                })
            }
            Query::ExportSelection { what } => {
                let text = match what {
                    SelectionExport::GeneList => self.session.export_gene_list(),
                    SelectionExport::Merged => self.session.export_merged_selection(),
                    SelectionExport::Coverage => {
                        forestview::export::selection_coverage_tsv(&self.session)
                    }
                };
                Ok(Response::Text { text })
            }
            Query::SessionInfo => {
                let s = &self.session;
                Ok(Response::SessionInfo(SessionInfoData {
                    n_datasets: s.n_datasets(),
                    universe_genes: s.merged().universe().len(),
                    total_measurements: s.merged().total_measurements(),
                    selection_len: s.selection().map(|sel| sel.len()),
                    sync_enabled: s.sync_enabled(),
                    scroll: s.scroll(),
                    dataset_order: s.dataset_order().to_vec(),
                    summary: forestview::export::session_summary(s),
                }))
            }
            Query::ListDatasets => {
                let s = &self.session;
                Ok(Response::Datasets {
                    rows: (0..s.n_datasets())
                        .map(|d| {
                            let ds = s.dataset(d);
                            DatasetRow {
                                dataset: d,
                                name: ds.name.clone(),
                                genes: ds.n_genes(),
                                conditions: ds.n_conditions(),
                                gene_clustered: s.gene_tree(d).is_some(),
                                array_clustered: s.array_tree(d).is_some(),
                            }
                        })
                        .collect(),
                })
            }
        }
    }

    /// Commands index datasets without their own bounds checks (the
    /// session panics); validate up front so the API reports typed errors.
    fn validate_command(&self, cmd: &forestview::command::Command) -> Result<(), ApiError> {
        use forestview::command::Command;
        match cmd {
            Command::SelectRegion { dataset, .. } => self.check_dataset(*dataset),
            Command::SetContrast {
                dataset: Some(d), ..
            } => self.check_dataset(*d),
            Command::OrderByRelevance(scores) => {
                if scores.len() != self.session.n_datasets() {
                    return Err(ApiError::invalid(format!(
                        "relevance ordering needs one score per dataset ({} given, {} loaded)",
                        scores.len(),
                        self.session.n_datasets()
                    )));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Cluster `axis` of dataset `d` under the session's settings,
    /// sharing the result with every session over equal content.
    fn cluster_shared(&mut self, d: usize, axis: Axis) {
        let (metric, linkage) = self.session.cluster_settings();
        let matrix = &self.session.dataset(d).matrix;
        let clustering = self.cache.clustering(matrix, axis, metric, linkage);
        self.session.install_clustering(d, axis, clustering);
    }

    fn check_dataset(&self, d: usize) -> Result<(), ApiError> {
        if d >= self.session.n_datasets() {
            return Err(ApiError::not_found(format!(
                "dataset {d} (session has {})",
                self.session.n_datasets()
            )));
        }
        Ok(())
    }

    /// The SPELL index over the current dataset contents, (re)built when
    /// they changed since the last build.
    fn ensure_spell_index(&mut self) -> &SpellEngine {
        if matches!(&self.spell, Some((v, _)) if *v != self.dataset_version) {
            self.spell = None;
        }
        let (session, version) = (&self.session, self.dataset_version);
        let (_, engine) = self.spell.get_or_insert_with(|| {
            let mut engine = SpellEngine::new(SpellConfig::default());
            for d in 0..session.n_datasets() {
                engine.add_dataset(session.dataset(d));
            }
            engine.finalize();
            (version, engine)
        });
        engine
    }
}

/// Does recording `new` right after `last` make `last` unobservable?
/// True only for consecutive absolute single-slot writes — the later
/// value fully determines the slot, so dropping the earlier entry is
/// provably state-preserving.
fn supersedes(new: &Mutation, last: &Mutation) -> bool {
    use forestview::command::Command;
    match (new, last) {
        (
            Mutation::Command(Command::SetContrast { dataset: a, .. }),
            Mutation::Command(Command::SetContrast { dataset: b, .. }),
        ) => a == b,
        (Mutation::Command(Command::SetLinkage(_)), Mutation::Command(Command::SetLinkage(_))) => {
            true
        }
        (Mutation::Command(Command::SetMetric(_)), Mutation::Command(Command::SetMetric(_))) => {
            true
        }
        _ => false,
    }
}

/// Load a PCL or CDT dataset from disk, named after the file stem.
pub fn load_dataset_file(path: &str) -> Result<fv_expr::Dataset, ApiError> {
    let text = std::fs::read_to_string(path).map_err(|e| ApiError::io(format!("{path}: {e}")))?;
    parse_dataset_text(path, &text)
}

/// Parse dataset `text` (PCL or CDT) as if read from `path`, named
/// after the file stem. Split from [`load_dataset_file`] so
/// [`DatasetCache`] can hash the exact bytes it parses without a second
/// read.
pub(crate) fn parse_dataset_text(path: &str, text: &str) -> Result<fv_expr::Dataset, ApiError> {
    let name = Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string());
    let dataset = match fv_formats::detect_format(text) {
        fv_formats::FileFormat::Pcl => fv_formats::pcl::parse_pcl(&name, text)
            .map_err(|e| ApiError::format(format!("{path}: {e}"))),
        fv_formats::FileFormat::Cdt => fv_formats::cdt::parse_cdt(&name, text)
            .map(|c| c.dataset)
            .map_err(|e| ApiError::format(format!("{path}: {e}"))),
        other => Err(ApiError::format(format!(
            "{path}: unsupported format {other:?}"
        ))),
    }?;
    // A gene id travels as a list item (`select_genes a,b`, `genes=`): a
    // token without a comma.
    let unlisted = |id: &str| id.is_empty() || id.contains(|c: char| c == ',' || c.is_whitespace());
    match dataset.genes.iter().find(|gene| unlisted(&gene.id)) {
        Some(gene) => Err(ApiError::parse(format!(
            "{path}: gene id {:?} is empty or holds a comma or whitespace",
            gene.id
        ))),
        None => Ok(dataset),
    }
}

/// FNV-1a over raw bytes; the frame checksum of [`Response::Frame`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use forestview::command::Command;

    #[test]
    fn a_gene_id_no_list_can_carry_is_refused_by_name() {
        let pcl = |id: &str| {
            format!("ID\tNAME\tGWEIGHT\tc0\nEWEIGHT\t\t\t1\nYAL001C\tA\t1\t0.5\n{id}\tB\t1\t0.1\n")
        };
        assert!(parse_dataset_text("g.pcl", &pcl("YAL002W")).is_ok());
        for id in ["YAL,002W", "YAL 002W"] {
            let err = parse_dataset_text("g.pcl", &pcl(id)).unwrap_err();
            assert_eq!(err.code, crate::error::ErrorCode::Parse, "{id:?}");
            assert!(err.message.contains(&format!("{id:?}")), "{}", err.message);
        }
    }

    fn loaded_engine() -> Engine {
        let mut e = Engine::with_scene(800, 600);
        e.execute(&Request::Mutate(Mutation::LoadScenario {
            n_genes: 120,
            seed: 7,
        }))
        .unwrap();
        e
    }

    #[test]
    fn scenario_then_info() {
        let mut e = loaded_engine();
        let info = e.execute(&Request::Query(Query::SessionInfo)).unwrap();
        match info {
            Response::SessionInfo(data) => {
                assert_eq!(data.n_datasets, 3);
                assert_eq!(data.universe_genes, 120);
                assert!(data.sync_enabled);
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn command_mutations_report_damage() {
        let mut e = loaded_engine();
        let r = e
            .execute(&Request::Mutate(Mutation::Command(Command::Search(
                "stress".into(),
            ))))
            .unwrap();
        match r {
            Response::Applied {
                selection_len,
                damage,
            } => {
                assert!(selection_len.unwrap_or(0) > 0);
                assert!(!damage.is_empty());
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn bad_dataset_index_is_typed_error() {
        let mut e = loaded_engine();
        let err = e
            .execute(&Request::Mutate(Mutation::Impute { dataset: 9, k: 3 }))
            .unwrap_err();
        assert_eq!(err.code, crate::error::ErrorCode::NotFound);
    }

    #[test]
    fn undersized_synthetic_loads_are_invalid_and_change_nothing() {
        let mut e = loaded_engine();
        let info = e.execute(&Request::Query(Query::SessionInfo)).unwrap();
        let min = Scenario::min_genes();
        let undersized = [
            Mutation::LoadScenario {
                n_genes: min - 1,
                seed: 1,
            },
            Mutation::LoadScenario {
                n_genes: 1,
                seed: 1,
            },
            Mutation::LoadCompendium {
                n_genes: min - 1,
                n_datasets: 3,
                seed: 1,
            },
            Mutation::LoadCompendium {
                n_genes: 100,
                n_datasets: CompendiumSpec::MIN_DATASETS - 1,
                seed: 1,
            },
        ];
        for load in undersized {
            let err = e.execute(&Request::Mutate(load.clone())).unwrap_err();
            assert_eq!(
                err.code,
                crate::error::ErrorCode::InvalidRequest,
                "{load:?}"
            );
            assert!(err.message.contains(&min.to_string()), "{}", err.message);
            let after = e.execute(&Request::Query(Query::SessionInfo)).unwrap();
            assert_eq!(after, info, "{load:?} left the session changed");
        }
        let mut fresh = Engine::with_scene(800, 600);
        fresh
            .execute(&Request::Mutate(Mutation::LoadScenario {
                n_genes: min,
                seed: 1,
            }))
            .expect("the minimum itself loads");
    }

    #[test]
    fn enrich_without_ontology_is_missing_context() {
        let mut e = loaded_engine();
        let err = e
            .execute(&Request::Query(Query::Enrich {
                genes: Some(vec!["YAL001C".into()]),
                max_terms: 5,
            }))
            .unwrap_err();
        assert_eq!(err.code, crate::error::ErrorCode::MissingContext);
    }

    #[test]
    fn ontology_enables_enrich() {
        let mut e = loaded_engine();
        e.execute(&Request::Mutate(Mutation::BuildOntology {
            n_filler: 60,
            seed: 7,
        }))
        .unwrap();
        e.execute(&Request::Mutate(Mutation::Command(Command::Search(
            "general stress response".into(),
        ))))
        .unwrap();
        let r = e
            .execute(&Request::Query(Query::Enrich {
                genes: None,
                max_terms: 5,
            }))
            .unwrap();
        match r {
            Response::Enrichment { rows } => assert!(!rows.is_empty()),
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn spell_index_caches_until_mutation() {
        let mut e = loaded_engine();
        let q = Request::Query(Query::Spell {
            genes: vec![fv_synth::names::orf_name(0)],
            top_n: 5,
        });
        e.execute(&q).unwrap();
        let v1 = e.spell.as_ref().unwrap().0;
        e.execute(&q).unwrap();
        assert_eq!(e.spell.as_ref().unwrap().0, v1, "cache reused");
        e.execute(&Request::Mutate(Mutation::Normalize {
            dataset: None,
            method: NormalizeMethod::CenterRows,
        }))
        .unwrap();
        e.execute(&q).unwrap();
        assert_ne!(e.spell.as_ref().unwrap().0, v1, "cache rebuilt");
    }

    #[test]
    fn run_matches_sequential_execution_exactly() {
        // execute_run must produce byte-for-byte the responses (damage
        // rects included) of sequential execute calls — including across
        // layout changes mid-run (scenario load, first array tree,
        // reordering).
        let script = vec![
            Request::Mutate(Mutation::LoadScenario {
                n_genes: 90,
                seed: 3,
            }),
            Request::Mutate(Mutation::Command(Command::Search("stress".into()))),
            Request::Mutate(Mutation::Command(Command::Scroll(1))),
            Request::Mutate(Mutation::ClusterArrays { dataset: 0 }),
            Request::Mutate(Mutation::Command(Command::SetContrast {
                dataset: Some(1),
                contrast: 2.0,
            })),
            Request::Mutate(Mutation::Command(Command::OrderByRelevance(vec![
                0.2, 0.9, 0.4,
            ]))),
            Request::Mutate(Mutation::Command(Command::SelectRegion {
                dataset: 2,
                start_frac: 0.1,
                end_frac: 0.6,
            })),
            Request::Query(Query::SessionInfo),
        ];
        let mut seq = Engine::with_scene(800, 600);
        let expected: Vec<Response> = script.iter().map(|r| seq.execute(r).unwrap()).collect();
        let mut run = Engine::with_scene(800, 600);
        let outcome = run.execute_run(&script);
        assert!(outcome.error.is_none());
        assert_eq!(outcome.responses, expected);
    }

    #[test]
    fn run_stops_at_first_error_keeping_prefix() {
        let mut e = Engine::with_scene(800, 600);
        let outcome = e.execute_run(&[
            Request::Mutate(Mutation::LoadScenario {
                n_genes: 60,
                seed: 1,
            }),
            Request::Mutate(Mutation::Impute { dataset: 9, k: 3 }),
            Request::Query(Query::SessionInfo),
        ]);
        assert_eq!(outcome.responses.len(), 1, "prefix before the error");
        let (idx, err) = outcome.error.expect("run must report the error");
        assert_eq!(idx, 1);
        assert_eq!(err.code, crate::error::ErrorCode::NotFound);
        // the mutation before the error stays applied
        assert_eq!(e.session().n_datasets(), 3);
    }

    #[test]
    fn snapshot_restore_rebuilds_the_session_exactly() {
        let mut e = Engine::with_scene(800, 600);
        for r in [
            Request::Mutate(Mutation::LoadScenario {
                n_genes: 90,
                seed: 3,
            }),
            Request::Mutate(Mutation::Command(Command::Search("stress".into()))),
            Request::Mutate(Mutation::ClusterArrays { dataset: 0 }),
            Request::Mutate(Mutation::Command(Command::Scroll(2))),
        ] {
            e.execute(&r).unwrap();
        }
        // queries and failures bump the counter without entering the log
        e.execute(&Request::Query(Query::SessionInfo)).unwrap();
        let _ = e.execute(&Request::Mutate(Mutation::Impute { dataset: 9, k: 3 }));
        let image = e.snapshot();
        assert_eq!(image.requests, 6);
        assert_eq!(image.log.len(), 4, "only successful mutations recorded");
        let text = crate::image::format_session_image(&image);
        let parsed = crate::image::parse_session_image(&text).unwrap();
        assert_eq!(parsed, image);
        let mut restored = Engine::restore(&parsed, &DatasetCache::new()).unwrap();
        assert_eq!(restored.cost(), e.cost());
        assert_eq!(
            restored.session().cluster_settings(),
            e.session().cluster_settings()
        );
        // a second snapshot of the restored engine is byte-identical
        // (replaying a compacted log re-records exactly that log)
        assert_eq!(
            crate::image::format_session_image(&restored.snapshot()),
            text
        );
        let probe = Request::Query(Query::Render {
            width: 320,
            height: 240,
            path: None,
        });
        assert_eq!(
            restored.execute(&probe).unwrap(),
            e.execute(&probe).unwrap()
        );
    }

    #[test]
    fn log_compacts_consecutive_absolute_writes() {
        let mut e = loaded_engine();
        for r in [
            Request::Mutate(Mutation::Command(Command::SetContrast {
                dataset: Some(1),
                contrast: 2.0,
            })),
            Request::Mutate(Mutation::Command(Command::SetContrast {
                dataset: Some(1),
                contrast: 3.0,
            })),
            // different target: both stay
            Request::Mutate(Mutation::Command(Command::SetContrast {
                dataset: None,
                contrast: 1.5,
            })),
            Request::Mutate(Mutation::Command(Command::SetLinkage(
                fv_cluster::linkage::Linkage::Complete,
            ))),
            Request::Mutate(Mutation::Command(Command::SetLinkage(
                fv_cluster::linkage::Linkage::Ward,
            ))),
            Request::Mutate(Mutation::Command(Command::SetMetric(
                fv_cluster::distance::Metric::Euclidean,
            ))),
        ] {
            e.execute(&r).unwrap();
        }
        let image = e.snapshot();
        // scenario + contrast(1) + contrast(all) + linkage + metric
        assert_eq!(image.log.len(), 5, "consecutive same-slot writes collapse");
        let restored = Engine::restore(&image, &DatasetCache::new()).unwrap();
        assert_eq!(
            restored.session().cluster_settings(),
            e.session().cluster_settings()
        );
        assert_eq!(restored.snapshot(), image, "re-snapshot is stable");
    }

    #[test]
    fn restore_asserts_dataset_fingerprints() {
        let dir = std::env::temp_dir().join(format!("fv-image-stamp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.pcl");
        std::fs::write(
            &path,
            "ID\tNAME\tGWEIGHT\tc0\tc1\nG1\tG1\t1\t1.0\t2.0\nG2\tG2\t1\t3.0\t4.0\n",
        )
        .unwrap();
        let mut e = Engine::with_scene(640, 480);
        e.execute(&Request::Mutate(Mutation::LoadDataset {
            path: path.to_string_lossy().into_owned(),
        }))
        .unwrap();
        let image = e.snapshot();
        assert_eq!(image.datasets.len(), 1);
        assert!(image.datasets[0].len > 0);
        assert_ne!(image.datasets[0].hash, 0, "stamps carry a content hash");
        assert!(Engine::restore(&image, &DatasetCache::new()).is_ok());
        // grow the file: the stamp no longer matches and restore refuses
        std::fs::write(
            &path,
            "ID\tNAME\tGWEIGHT\tc0\tc1\nG1\tG1\t1\t9.0\t9.0\nG2\tG2\t1\t3.0\t4.0\nG3\tG3\t1\t5.0\t6.0\n",
        )
        .unwrap();
        let err = Engine::restore(&image, &DatasetCache::new()).err().unwrap();
        assert_eq!(err.code, crate::error::ErrorCode::StaleImage);
        // same length, different bytes: the cheap fingerprint may pass on
        // coarse-mtime filesystems, but the content hash must refuse
        let original = "ID\tNAME\tGWEIGHT\tc0\tc1\nG1\tG1\t1\t1.0\t2.0\nG2\tG2\t1\t3.0\t4.0\n";
        let altered = original.replace("1.0\t2.0", "9.0\t8.0");
        assert_eq!(altered.len(), original.len());
        std::fs::write(&path, &altered).unwrap();
        let err = Engine::restore(&image, &DatasetCache::new()).err().unwrap();
        assert_eq!(err.code, crate::error::ErrorCode::StaleImage);
        // a missing file is a typed I/O error
        std::fs::remove_file(&path).unwrap();
        let err = Engine::restore(&image, &DatasetCache::new()).err().unwrap();
        assert_eq!(err.code, crate::error::ErrorCode::Io);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_accepts_touched_but_identical_file() {
        let dir = std::env::temp_dir().join(format!("fv-image-touch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.pcl");
        let body = "ID\tNAME\tGWEIGHT\tc0\tc1\nG1\tG1\t1\t1.0\t2.0\nG2\tG2\t1\t3.0\t4.0\n";
        std::fs::write(&path, body).unwrap();
        let mut e = Engine::with_scene(640, 480);
        e.execute(&Request::Mutate(Mutation::LoadDataset {
            path: path.to_string_lossy().into_owned(),
        }))
        .unwrap();
        let image = e.snapshot();
        // rewrite the same bytes with a strictly newer mtime — the
        // regression: a copy or `touch` used to break restore/migration
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&path, body).unwrap();
        let (len, mtime) = (
            std::fs::metadata(&path).unwrap().len(),
            std::fs::metadata(&path)
                .unwrap()
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map(|d| d.as_nanos() as u64),
        );
        assert_eq!(len, image.datasets[0].len);
        if mtime == image.datasets[0].mtime_nanos {
            // mtime granularity too coarse to observe the rewrite; the
            // cheap fingerprint already passes and proves nothing
            std::fs::remove_dir_all(&dir).ok();
            return;
        }
        let restored = Engine::restore(&image, &DatasetCache::new())
            .expect("identical bytes behind a changed mtime must restore");
        assert_eq!(restored.cost(), e.cost());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_log_keeps_every_mutation_but_a_superseded_write() {
        let euclidean = Command::SetMetric(fv_cluster::distance::Metric::Euclidean);
        let contrast = |contrast| Command::SetContrast {
            dataset: Some(1),
            contrast,
        };
        let mutations = [
            euclidean.clone(),
            Command::ClusterAll,
            Command::Scroll(3),
            Command::Search("stress".into()),
            // the metric re-asserted, then re-clusterings that change nothing
            euclidean,
            Command::ClusterAll,
            Command::ClusterAll,
            // a re-cluster that restores the order `order_by_name` wrote over
            Command::OrderByName,
            Command::ClusterAll,
            // the one drop: a same-slot absolute write right after another
            contrast(2.0),
            contrast(3.0),
        ]
        .map(Mutation::Command);
        let mut e = loaded_engine();
        for m in &mutations {
            e.execute(&Request::Mutate(m.clone())).unwrap();
        }
        let image = e.snapshot();
        let mut expected = vec![Mutation::LoadScenario {
            n_genes: 120,
            seed: 7,
        }];
        expected.extend(
            mutations
                .iter()
                .filter(|&m| *m != Mutation::Command(contrast(2.0)))
                .cloned(),
        );
        assert_eq!(image.log, expected);
        let mut restored = Engine::restore(&image, &DatasetCache::new()).unwrap();
        assert_eq!(restored.snapshot(), image, "re-snapshot is stable");
        for probe in [
            Query::SessionInfo,
            Query::Render {
                width: 320,
                height: 240,
                path: None,
            },
        ] {
            let probe = Request::Query(probe);
            assert_eq!(
                restored.execute(&probe).unwrap(),
                e.execute(&probe).unwrap()
            );
        }
    }

    #[test]
    fn clustering_keeps_the_spell_index() {
        let mut e = loaded_engine();
        let q = Request::Query(Query::Spell {
            genes: vec![fv_synth::names::orf_name(0), fv_synth::names::orf_name(3)],
            top_n: 10,
        });
        let clusterings = [
            Mutation::Command(Command::ClusterAll),
            Mutation::ClusterArrays { dataset: 1 },
        ];
        let before = e.execute(&q).unwrap();
        let version = e.spell.as_ref().unwrap().0;
        for m in &clusterings {
            e.execute(&Request::Mutate(m.clone())).unwrap();
            assert_eq!(e.execute(&q).unwrap(), before);
            assert_eq!(e.spell.as_ref().unwrap().0, version, "index kept");
        }
        // and the index a clustered session builds afresh answers the same
        let mut clustered_first = loaded_engine();
        for m in clusterings {
            clustered_first.execute(&Request::Mutate(m)).unwrap();
        }
        assert_eq!(clustered_first.execute(&q).unwrap(), before);
    }

    #[test]
    fn render_checksum_deterministic() {
        let mut a = loaded_engine();
        let mut b = loaded_engine();
        let q = Request::Query(Query::Render {
            width: 320,
            height: 240,
            path: None,
        });
        let (ra, rb) = (a.execute(&q).unwrap(), b.execute(&q).unwrap());
        assert_eq!(ra, rb);
        match ra {
            Response::Frame {
                checksum, panes, ..
            } => {
                assert_ne!(checksum, 0);
                assert_eq!(panes, 3);
            }
            other => panic!("wrong response: {other:?}"),
        }
    }
}
