//! Line-oriented wire codec: replayable request scripts and canonical
//! response text.
//!
//! One request per line, whitespace-separated tokens, `#` comments, blank
//! lines ignored. The full grammar is documented in `crates/api/README.md`.
//! [`format_request`] and [`parse_request`] are exact inverses for every
//! representable request (`parse(format(r)) == r` — property-tested), with
//! the documented lexical limits: free-text fields (search queries, paths)
//! must not contain newlines or leading/trailing whitespace, and list
//! items (gene names, paths in lists) must not contain commas or
//! whitespace. Floats are printed in Rust's shortest round-trip form, so
//! no precision is lost.
//!
//! Scripts may also carry a `use <session>` directive, which the
//! [`crate::hub::EngineHub`] interprets as "switch to (or create) this
//! named session", and a `close <session>` directive, which drops the
//! named session (a later `use` recreates it empty); everything else
//! flows to the current session's engine.

use crate::decode::num;
use crate::error::ApiError;
use crate::request::{
    linkage_from_str, linkage_str, metric_from_str, metric_str, Mutation, NormalizeMethod, Query,
    Request, SelectionExport,
};
use crate::response::Response;
use forestview::command::Command;

/// Sentinel for empty lists and absent optionals on the wire.
pub(crate) const NONE: &str = "-";

/// One parsed script line.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptItem {
    /// `use <name>` — switch the hub to a named session.
    Use(String),
    /// `close <name>` — drop the named session and everything it owns.
    /// A later `use <name>` cleanly recreates it empty; datasets it held
    /// stay shared-cached, so re-loading them costs no parse.
    Close(String),
    /// A request for the current session.
    Request(Request),
}

/// One parsed *wire* line: everything a script line can be, plus the
/// transport-level control requests. Control lines are answered by the
/// server itself (`ping` → `pong`, `shutdown` → `bye` + server stop,
/// `close` → `closed <name>`, `stats` → a server-metrics reply,
/// `list-sessions` → a merged cross-shard session listing, `migrate` →
/// `migrated <name> shard=<s>`) and never reach an engine's request
/// surface; scripts deliberately reject them ([`parse_script`] treats
/// control keywords as unknown requests). `use <name>` and
/// `close <name>` are script items — they work identically in scripts
/// and on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum WireItem {
    /// A script item (`use`, `close <name>`, or a request).
    Script(ScriptItem),
    /// `ping` — liveness probe.
    Ping,
    /// `shutdown` — stop the server after acknowledging.
    Shutdown,
    /// Bare `close` — drop the connection's current session (and
    /// everything it owns), then fall back to the default session. How a
    /// one-shot remote client avoids leaking its scratch session. The
    /// named form `close <name>` parses as
    /// [`ScriptItem::Close`] instead.
    Close,
    /// `stats` — server metrics snapshot (connections, per-shard queue
    /// depth, run sizes, latency histograms, cache gauges, frame
    /// counters).
    Stats,
    /// `list-sessions` — every live session across all shards, merged and
    /// sorted by name (see [`format_sessions_reply`]).
    ListSessions,
    /// `migrate <session> <shard>` — move a live session to another
    /// shard without re-parsing its datasets. Answered
    /// `migrated <name> shard=<s>`.
    Migrate {
        /// Session to move.
        session: String,
        /// Destination shard index.
        shard: usize,
    },
    /// `balance` (status snapshot of the automatic rebalancer) or
    /// `balance auto` / `balance off` (flip its mode at runtime,
    /// acknowledged `balance mode=<mode>`).
    Balance {
        /// `None` asks for status; `Some(mode)` sets the mode.
        set: Option<BalanceMode>,
    },
    /// `subscribe <session> <tiles_x>x<tiles_y>` — register this
    /// connection as a streaming viewer of a session through a tile grid.
    /// Acknowledged `subscribed <session> <tx>x<ty> <wall_w>x<wall_h>`,
    /// then followed by an out-of-band keyframe burst of binary tile
    /// frames (see fv-wall's stream codec) and damage-limited deltas after
    /// every executed run.
    Subscribe {
        /// Session to view.
        session: String,
        /// Horizontal tile count of the viewer's grid.
        tiles_x: usize,
        /// Vertical tile count of the viewer's grid.
        tiles_y: usize,
    },
    /// Bare `unsubscribe` — stop streaming to this connection.
    /// Acknowledged `unsubscribed` (idempotent).
    Unsubscribe,
    /// `ack <seq>` — subscriber flow control: the highest tile-frame
    /// sequence number fully consumed. Never answered; a subscriber that
    /// acks and then falls far behind is re-synced with a keyframe.
    Ack {
        /// Highest fully consumed sequence number.
        seq: u64,
    },
}

/// Mode of a transport's automatic shard rebalancer, as it appears in the
/// `balance` wire grammar. The policy itself lives transport-side
/// (`fv-net`); the codec only names the two states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceMode {
    /// The server periodically plans and executes session migrations.
    Auto,
    /// Placement is operator-driven (`migrate` lines) only.
    Off,
}

/// Canonical wire token (`auto` / `off`).
impl std::fmt::Display for BalanceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BalanceMode::Auto => "auto",
            BalanceMode::Off => "off",
        })
    }
}

/// Parse a wire token; inverse of the `Display` form.
impl std::str::FromStr for BalanceMode {
    type Err = ApiError;

    fn from_str(token: &str) -> Result<BalanceMode, ApiError> {
        match token {
            "auto" => Ok(BalanceMode::Auto),
            "off" => Ok(BalanceMode::Off),
            other => Err(ApiError::parse(format!(
                "balance mode is auto|off, got {other:?}"
            ))),
        }
    }
}

/// Parse one line as a network transport sees it: `Ok(None)` for blank
/// lines and `#` comments (which produce no response frame), otherwise a
/// [`WireItem`].
pub fn parse_wire_line(raw: &str) -> Result<Option<WireItem>, ApiError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    if line == "ping" {
        return Ok(Some(WireItem::Ping));
    }
    if line == "shutdown" {
        return Ok(Some(WireItem::Shutdown));
    }
    if line == "close" {
        return Ok(Some(WireItem::Close));
    }
    if line == "stats" {
        return Ok(Some(WireItem::Stats));
    }
    if line == "list-sessions" {
        return Ok(Some(WireItem::ListSessions));
    }
    if let Some(rest) = line.strip_prefix("migrate ") {
        let [session, shard] = fixed_args("migrate", rest.trim())?;
        if session.is_empty() || session.contains(char::is_whitespace) {
            return Err(ApiError::parse("session names are single tokens"));
        }
        return Ok(Some(WireItem::Migrate {
            session: session.to_string(),
            shard: num(shard, "shard")?,
        }));
    }
    if line == "balance" {
        return Ok(Some(WireItem::Balance { set: None }));
    }
    if let Some(rest) = line.strip_prefix("balance ") {
        let [mode] = fixed_args("balance", rest.trim())?;
        return Ok(Some(WireItem::Balance {
            set: Some(mode.parse()?),
        }));
    }
    if let Some(rest) = line.strip_prefix("subscribe ") {
        let [session, grid] = fixed_args("subscribe", rest.trim())?;
        if session.is_empty() || session.contains(char::is_whitespace) {
            return Err(ApiError::parse("session names are single tokens"));
        }
        let (tiles_x, tiles_y) = parse_grid_token(grid)?;
        return Ok(Some(WireItem::Subscribe {
            session: session.to_string(),
            tiles_x,
            tiles_y,
        }));
    }
    if line == "unsubscribe" {
        return Ok(Some(WireItem::Unsubscribe));
    }
    if let Some(rest) = line.strip_prefix("ack ") {
        let [seq] = fixed_args("ack", rest.trim())?;
        return Ok(Some(WireItem::Ack {
            seq: num(seq, "seq")?,
        }));
    }
    if let Some(name) = parse_session_directive(line, "use ")? {
        return Ok(Some(WireItem::Script(ScriptItem::Use(name))));
    }
    if let Some(name) = parse_session_directive(line, "close ")? {
        return Ok(Some(WireItem::Script(ScriptItem::Close(name))));
    }
    Ok(Some(WireItem::Script(ScriptItem::Request(parse_request(
        line,
    )?))))
}

/// `<tiles_x>x<tiles_y>` → the two non-zero tile counts of a subscriber
/// grid.
fn parse_grid_token(token: &str) -> Result<(usize, usize), ApiError> {
    let Some((tx, ty)) = token.split_once('x') else {
        return Err(ApiError::parse(format!(
            "tile grid is <tiles_x>x<tiles_y>, got {token:?}"
        )));
    };
    let tiles_x: usize = num(tx, "tiles_x")?;
    let tiles_y: usize = num(ty, "tiles_y")?;
    if tiles_x == 0 || tiles_y == 0 {
        return Err(ApiError::parse("tile counts must be non-zero"));
    }
    Ok((tiles_x, tiles_y))
}

/// `<keyword><name>` → `Some(name)` for the session directives (`use `,
/// `close `); anything else → `None`.
fn parse_session_directive(line: &str, keyword: &str) -> Result<Option<String>, ApiError> {
    let Some(rest) = line.strip_prefix(keyword) else {
        return Ok(None);
    };
    let name = rest.trim();
    if name.is_empty() || name.contains(char::is_whitespace) {
        return Err(ApiError::parse("session names are single tokens"));
    }
    Ok(Some(name.to_string()))
}

/// A script line with its 1-based source line number (for error context).
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptLine {
    /// 1-based line number in the source text.
    pub line_no: usize,
    /// The parsed item.
    pub item: ScriptItem,
}

/// Parse a whole script: blank lines and `#` comments are skipped, every
/// other line is a `use` / `close <name>` directive or a request.
pub fn parse_script(text: &str) -> Result<Vec<ScriptLine>, ApiError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let line_no = i + 1;
        let with_line = |e: ApiError| ApiError::parse(format!("line {line_no}: {}", e.message));
        let item = if let Some(name) = parse_session_directive(line, "use ").map_err(with_line)? {
            ScriptItem::Use(name)
        } else if let Some(name) = parse_session_directive(line, "close ").map_err(with_line)? {
            ScriptItem::Close(name)
        } else {
            ScriptItem::Request(parse_request(line).map_err(with_line)?)
        };
        out.push(ScriptLine { line_no, item });
    }
    Ok(out)
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, ApiError> {
    let line = line.trim();
    let (keyword, rest) = match line.split_once(char::is_whitespace) {
        Some((k, r)) => (k, r.trim()),
        None => (line, ""),
    };
    match keyword {
        // ── mutations: interaction commands ─────────────────────────────
        "select_region" => {
            let [d, a, b] = fixed_args(keyword, rest)?;
            Ok(Command::SelectRegion {
                dataset: num(d, "dataset")?,
                start_frac: num(a, "start fraction")?,
                end_frac: num(b, "end fraction")?,
            }
            .into())
        }
        "select_genes" => Ok(Command::SelectGenes(parse_list(rest)?).into()),
        "search_select" => Ok(Command::Search(rest.to_string()).into()),
        "clear_selection" => {
            no_args(keyword, rest)?;
            Ok(Command::ClearSelection.into())
        }
        "toggle_sync" => {
            no_args(keyword, rest)?;
            Ok(Command::ToggleSync.into())
        }
        "scroll" => {
            let [delta] = fixed_args(keyword, rest)?;
            Ok(Command::Scroll(num(delta, "scroll delta")?).into())
        }
        "order_by_name" => {
            no_args(keyword, rest)?;
            Ok(Command::OrderByName.into())
        }
        "order_by_relevance" => {
            let scores = parse_list(rest)?
                .iter()
                .map(|s| num::<f32>(s, "relevance score"))
                .collect::<Result<Vec<f32>, _>>()?;
            Ok(Command::OrderByRelevance(scores).into())
        }
        "cluster_all" => {
            no_args(keyword, rest)?;
            Ok(Command::ClusterAll.into())
        }
        "set_contrast" => {
            let [target, value] = fixed_args(keyword, rest)?;
            Ok(Command::SetContrast {
                dataset: parse_target(target)?,
                contrast: num(value, "contrast")?,
            }
            .into())
        }
        "set_linkage" => {
            let [kw] = fixed_args(keyword, rest)?;
            let linkage = linkage_from_str(kw)
                .ok_or_else(|| ApiError::parse(format!("unknown linkage {kw:?}")))?;
            Ok(Command::SetLinkage(linkage).into())
        }
        "set_metric" => {
            let [kw] = fixed_args(keyword, rest)?;
            let metric = metric_from_str(kw)
                .ok_or_else(|| ApiError::parse(format!("unknown metric {kw:?}")))?;
            Ok(Command::SetMetric(metric).into())
        }

        // ── mutations: data management ──────────────────────────────────
        "load" => {
            if rest.is_empty() {
                return Err(ApiError::parse("load needs a path"));
            }
            Ok(Mutation::LoadDataset {
                path: rest.to_string(),
            }
            .into())
        }
        "scenario" => {
            let [n, seed] = fixed_args(keyword, rest)?;
            Ok(Mutation::LoadScenario {
                n_genes: num(n, "gene count")?,
                seed: num(seed, "seed")?,
            }
            .into())
        }
        "compendium" => {
            let [n, d, seed] = fixed_args(keyword, rest)?;
            Ok(Mutation::LoadCompendium {
                n_genes: num(n, "gene count")?,
                n_datasets: num(d, "dataset count")?,
                seed: num(seed, "seed")?,
            }
            .into())
        }
        "ontology" => {
            let [n, seed] = fixed_args(keyword, rest)?;
            Ok(Mutation::BuildOntology {
                n_filler: num(n, "filler term count")?,
                seed: num(seed, "seed")?,
            }
            .into())
        }
        "impute" => {
            let [d, k] = fixed_args(keyword, rest)?;
            Ok(Mutation::Impute {
                dataset: num(d, "dataset")?,
                k: num(k, "k")?,
            }
            .into())
        }
        "normalize" => {
            let [target, method] = fixed_args(keyword, rest)?;
            let method = NormalizeMethod::from_keyword(method)
                .ok_or_else(|| ApiError::parse(format!("unknown normalize method {method:?}")))?;
            Ok(Mutation::Normalize {
                dataset: parse_target(target)?,
                method,
            }
            .into())
        }
        "cluster_arrays" => {
            let [d] = fixed_args(keyword, rest)?;
            Ok(Mutation::ClusterArrays {
                dataset: num(d, "dataset")?,
            }
            .into())
        }

        // ── queries ─────────────────────────────────────────────────────
        "search" => Ok(Query::Search {
            query: rest.to_string(),
        }
        .into()),
        "spell" => {
            let (top_n, genes) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| ApiError::parse("spell needs <top_n> <gene,gene,...>"))?;
            Ok(Query::Spell {
                genes: parse_list(genes.trim())?,
                top_n: num(top_n, "top_n")?,
            }
            .into())
        }
        "enrich" => {
            let (max_terms, genes) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| ApiError::parse("enrich needs <max_terms> selection|<genes>"))?;
            let genes = match genes.trim() {
                "selection" => None,
                list => Some(parse_list(list)?),
            };
            Ok(Query::Enrich {
                genes,
                max_terms: num(max_terms, "max_terms")?,
            }
            .into())
        }
        "render" => {
            let mut parts = rest.splitn(3, char::is_whitespace);
            let (w, h) = match (parts.next(), parts.next()) {
                (Some(w), Some(h)) => (w, h),
                _ => return Err(ApiError::parse("render needs <width> <height> [path]")),
            };
            let path = parts
                .next()
                .map(|p| p.trim().to_string())
                .filter(|p| !p.is_empty());
            Ok(Query::Render {
                width: num(w, "width")?,
                height: num(h, "height")?,
                path,
            }
            .into())
        }
        "export_cdt" => {
            let mut parts = rest.splitn(2, char::is_whitespace);
            let d = parts
                .next()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| ApiError::parse("export_cdt needs <dataset> [prefix]"))?;
            let prefix = parts
                .next()
                .map(|p| p.trim().to_string())
                .filter(|p| !p.is_empty());
            Ok(Query::ExportCdt {
                dataset: num(d, "dataset")?,
                prefix,
            }
            .into())
        }
        "export_pcl" => {
            let (d, path) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| ApiError::parse("export_pcl needs <dataset> <path>"))?;
            Ok(Query::ExportPcl {
                dataset: num(d, "dataset")?,
                path: path.trim().to_string(),
            }
            .into())
        }
        "export_selection" => {
            let [what] = fixed_args(keyword, rest)?;
            let what = SelectionExport::from_keyword(what)
                .ok_or_else(|| ApiError::parse(format!("unknown selection export {what:?}")))?;
            Ok(Query::ExportSelection { what }.into())
        }
        "session_info" => {
            no_args(keyword, rest)?;
            Ok(Query::SessionInfo.into())
        }
        "list_datasets" => {
            no_args(keyword, rest)?;
            Ok(Query::ListDatasets.into())
        }
        other => Err(ApiError::parse(format!("unknown request {other:?}"))),
    }
}

/// Canonical text form of a request; the exact inverse of
/// [`parse_request`].
pub fn format_request(request: &Request) -> String {
    match request {
        Request::Mutate(Mutation::Command(cmd)) => match cmd {
            Command::SelectRegion {
                dataset,
                start_frac,
                end_frac,
            } => format!("select_region {dataset} {start_frac:?} {end_frac:?}"),
            Command::SelectGenes(genes) => {
                format!("select_genes {}", format_list(genes))
            }
            Command::Search(q) => format_trailing("search_select", q),
            Command::ClearSelection => "clear_selection".into(),
            Command::ToggleSync => "toggle_sync".into(),
            Command::Scroll(delta) => format!("scroll {delta}"),
            Command::OrderByName => "order_by_name".into(),
            Command::OrderByRelevance(scores) => {
                let items: Vec<String> = scores.iter().map(|s| format!("{s:?}")).collect();
                format!("order_by_relevance {}", format_list(&items))
            }
            Command::ClusterAll => "cluster_all".into(),
            Command::SetContrast { dataset, contrast } => {
                format!("set_contrast {} {contrast:?}", format_target(*dataset))
            }
            Command::SetLinkage(l) => format!("set_linkage {}", linkage_str(*l)),
            Command::SetMetric(m) => format!("set_metric {}", metric_str(*m)),
        },
        Request::Mutate(Mutation::LoadDataset { path }) => format!("load {path}"),
        Request::Mutate(Mutation::LoadScenario { n_genes, seed }) => {
            format!("scenario {n_genes} {seed}")
        }
        Request::Mutate(Mutation::LoadCompendium {
            n_genes,
            n_datasets,
            seed,
        }) => format!("compendium {n_genes} {n_datasets} {seed}"),
        Request::Mutate(Mutation::BuildOntology { n_filler, seed }) => {
            format!("ontology {n_filler} {seed}")
        }
        Request::Mutate(Mutation::Impute { dataset, k }) => format!("impute {dataset} {k}"),
        Request::Mutate(Mutation::Normalize { dataset, method }) => {
            format!("normalize {} {}", format_target(*dataset), method.as_str())
        }
        Request::Mutate(Mutation::ClusterArrays { dataset }) => {
            format!("cluster_arrays {dataset}")
        }
        Request::Query(Query::Search { query }) => format_trailing("search", query),
        Request::Query(Query::Spell { genes, top_n }) => {
            format!("spell {top_n} {}", format_list(genes))
        }
        Request::Query(Query::Enrich { genes, max_terms }) => match genes {
            Some(genes) => format!("enrich {max_terms} {}", format_list(genes)),
            None => format!("enrich {max_terms} selection"),
        },
        Request::Query(Query::Render {
            width,
            height,
            path,
        }) => match path {
            Some(p) => format!("render {width} {height} {p}"),
            None => format!("render {width} {height}"),
        },
        Request::Query(Query::ExportCdt { dataset, prefix }) => match prefix {
            Some(p) => format!("export_cdt {dataset} {p}"),
            None => format!("export_cdt {dataset}"),
        },
        Request::Query(Query::ExportPcl { dataset, path }) => {
            format!("export_pcl {dataset} {path}")
        }
        Request::Query(Query::ExportSelection { what }) => {
            format!("export_selection {}", what.as_str())
        }
        Request::Query(Query::SessionInfo) => "session_info".into(),
        Request::Query(Query::ListDatasets) => "list_datasets".into(),
    }
}

/// Canonical, deterministic text form of a response. Multi-line responses
/// indent continuation lines by two spaces so transcripts stay parseable
/// line-by-line. The text is structured enough for
/// [`crate::decode::parse_response`] to recover the typed response —
/// network clients rely on this — with one documented loss: floating-point
/// statistics print with fixed display precision (`{:.3}` / `{:.3e}`), so
/// the decoder recovers the displayed value, not the original bits.
pub fn format_response(response: &Response) -> String {
    match response {
        Response::Applied {
            selection_len,
            damage,
        } => {
            format!(
                "applied selection={} damage={}",
                opt_num(*selection_len),
                format_rects(damage)
            )
        }
        Response::Loaded {
            dataset,
            name,
            genes,
            conditions,
        } => format!("loaded dataset={dataset} name={name} genes={genes} conditions={conditions}"),
        Response::ScenarioLoaded { names, n_genes } => {
            format!("scenario datasets={} genes={n_genes}", format_list(names))
        }
        Response::OntologyReady { terms } => format!("ontology terms={terms}"),
        Response::Imputed {
            filled,
            missing_before,
        } => format!("imputed filled={filled} missing={missing_before}"),
        Response::Normalized { datasets } => format!("normalized datasets={datasets}"),
        Response::ArraysClustered { dataset } => format!("arrays_clustered dataset={dataset}"),
        Response::SearchHits { genes } => {
            format!("search hits={} genes={}", genes.len(), format_list(genes))
        }
        Response::SpellRanking {
            datasets,
            genes,
            query_missing,
        } => {
            let mut out = format!(
                "spell datasets={} genes={} missing={}",
                datasets.len(),
                genes.len(),
                format_list(query_missing)
            );
            for d in datasets {
                out.push_str(&format!(
                    "\n  dataset {} weight={:.3} present={}",
                    d.name, d.weight, d.query_genes_present
                ));
            }
            for g in genes {
                out.push_str(&format!(
                    "\n  gene {} score={:.3} datasets={}",
                    g.gene, g.score, g.n_datasets
                ));
            }
            out
        }
        Response::Enrichment { rows } => {
            let mut out = format!("enrich terms={}", rows.len());
            for r in rows {
                out.push_str(&format!(
                    "\n  term {} p={:.3e} q={:.3e} overlap={}/{} name={}",
                    r.accession, r.p_value, r.q_value, r.overlap, r.annotated, r.name
                ));
            }
            out
        }
        Response::Frame {
            width,
            height,
            panes,
            checksum,
            path,
        } => format!(
            "frame {width}x{height} panes={panes} checksum={checksum:016x} path={}",
            path.as_deref().unwrap_or(NONE)
        ),
        Response::CdtExported {
            dataset,
            files,
            cdt_bytes,
            has_gtr,
            has_atr,
        } => format!(
            "cdt dataset={dataset} bytes={cdt_bytes} gtr={} atr={} files={}",
            yes_no(*has_gtr),
            yes_no(*has_atr),
            format_list(files)
        ),
        Response::PclExported {
            dataset,
            path,
            genes,
            conditions,
        } => format!("pcl dataset={dataset} path={path} genes={genes} conditions={conditions}"),
        Response::Text { text } => {
            let mut out = format!("text bytes={}", text.len());
            for line in text.lines() {
                out.push_str("\n  ");
                out.push_str(line);
            }
            out
        }
        Response::SessionInfo(info) => {
            let mut out = format!(
                "session datasets={} universe={} measurements={} selection={} sync={} scroll={} order={} summary_bytes={}",
                info.n_datasets,
                info.universe_genes,
                info.total_measurements,
                opt_num(info.selection_len),
                if info.sync_enabled { "on" } else { "off" },
                info.scroll,
                format_list(
                    &info
                        .dataset_order
                        .iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                ),
                info.summary.len()
            );
            for line in info.summary.lines() {
                out.push_str("\n  ");
                out.push_str(line);
            }
            out
        }
        Response::Datasets { rows } => {
            let mut out = format!("datasets n={}", rows.len());
            for r in rows {
                out.push_str(&format!(
                    "\n  dataset {} name={} genes={} conditions={} clustered={}",
                    r.dataset,
                    r.name,
                    r.genes,
                    r.conditions,
                    match (r.gene_clustered, r.array_clustered) {
                        (true, true) => "gene+array",
                        (true, false) => "gene",
                        (false, true) => "array",
                        (false, false) => "none",
                    }
                ));
            }
            out
        }
    }
}

crate::wire_record! {
    /// One session in a cross-shard `list-sessions` reply.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SessionEntry {
        /// Shard the session lives on.
        pub shard: usize => "shard",
        /// Datasets loaded into the session.
        pub n_datasets: usize => "datasets",
        ..
        /// Session name (a single whitespace-free token, per
        /// [`crate::SessionId`]); leads its row.
        pub name: String,
    }
}

/// Canonical reply text for a `list-sessions` control line. Entries are
/// emitted in the order given — servers merge shard listings and sort by
/// name before formatting. The inverse is
/// [`crate::decode::parse_sessions_reply`].
pub fn format_sessions_reply(entries: &[SessionEntry]) -> String {
    let mut out = format!("sessions n={}", entries.len());
    for e in entries {
        out.push_str("\n  session ");
        out.push_str(&e.name);
        e.put_fields(&mut out);
    }
    out
}

// ── token helpers ───────────────────────────────────────────────────────

fn no_args(keyword: &str, rest: &str) -> Result<(), ApiError> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(ApiError::parse(format!("{keyword} takes no arguments")))
    }
}

fn fixed_args<'a, const N: usize>(keyword: &str, rest: &'a str) -> Result<[&'a str; N], ApiError> {
    let parts: Vec<&str> = rest.split_whitespace().collect();
    if parts.len() != N {
        return Err(ApiError::parse(format!(
            "{keyword} needs {N} argument(s), got {}",
            parts.len()
        )));
    }
    parts
        .try_into()
        .map_err(|_| ApiError::parse("argument count mismatch"))
}

/// `all` → None, `<index>` → Some(index).
fn parse_target(token: &str) -> Result<Option<usize>, ApiError> {
    if token == "all" {
        Ok(None)
    } else {
        num(token, "dataset").map(Some)
    }
}

fn format_target(target: Option<usize>) -> String {
    match target {
        Some(d) => d.to_string(),
        None => "all".into(),
    }
}

/// Comma-separated list; `-` is the empty list.
pub(crate) fn parse_list(token: &str) -> Result<Vec<String>, ApiError> {
    if token.is_empty() {
        return Err(ApiError::parse("expected a comma-separated list (or `-`)"));
    }
    if token == NONE {
        return Ok(Vec::new());
    }
    token
        .split(',')
        .map(|s| {
            let s = s.trim();
            if s.is_empty() {
                Err(ApiError::parse("empty list item"))
            } else {
                Ok(s.to_string())
            }
        })
        .collect()
}

fn format_list<S: AsRef<str>>(items: &[S]) -> String {
    if items.is_empty() {
        NONE.to_string()
    } else {
        items
            .iter()
            .map(|s| s.as_ref())
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Keyword plus free trailing text (empty text → bare keyword).
fn format_trailing(keyword: &str, text: &str) -> String {
    if text.is_empty() {
        keyword.to_string()
    } else {
        format!("{keyword} {text}")
    }
}

/// Damage rectangles as `x:y:w:h` items; `-` for no damage. Keeping the
/// full rectangles on the wire (rather than a count/area digest) is what
/// lets a remote client recover the exact [`Response::Applied`].
fn format_rects(rects: &[crate::response::DamageRect]) -> String {
    if rects.is_empty() {
        return NONE.to_string();
    }
    rects
        .iter()
        .map(|r| format!("{}:{}:{}:{}", r.x, r.y, r.w, r.h))
        .collect::<Vec<_>>()
        .join(",")
}

fn opt_num(v: Option<usize>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => NONE.into(),
    }
}

fn yes_no(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::DamageRect;

    fn roundtrip(line: &str) -> String {
        format_request(&parse_request(line).unwrap())
    }

    #[test]
    fn canonical_lines_roundtrip() {
        for line in [
            "select_region 0 0.25 0.5",
            "select_genes YAL001C,YBR002W",
            "select_genes -",
            "search_select heat shock",
            "clear_selection",
            "toggle_sync",
            "scroll -3",
            "order_by_name",
            "order_by_relevance 0.5,1.0,0.25",
            "cluster_all",
            "set_contrast all 2.0",
            "set_contrast 1 3.5",
            "set_linkage ward",
            "set_metric euclidean",
            "load data/gasch_stress.pcl",
            "scenario 800 2007",
            "compendium 2000 30 42",
            "ontology 120 7",
            "impute 0 10",
            "normalize all zscore",
            "normalize 2 log2",
            "cluster_arrays 0",
            "search ribosome biogenesis",
            "spell 20 YAL001C,YBR002W",
            "enrich 10 selection",
            "enrich 5 YAL001C,YCL009C",
            "render 1600 1200 out/frame.ppm",
            "render 320 240",
            "export_cdt 0 out/clustered",
            "export_cdt 1",
            "export_pcl 0 out/data.pcl",
            "export_selection gene_list",
            "export_selection coverage",
            "session_info",
            "list_datasets",
        ] {
            assert_eq!(roundtrip(line), line, "canonical form must be stable");
        }
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let script = "# a comment\n\n  cluster_all\n   # indented comment\nscroll 2\n";
        let lines = parse_script(script).unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].line_no, 3);
        assert_eq!(lines[1].line_no, 5);
    }

    #[test]
    fn use_directive_parses() {
        let lines = parse_script("use alpha\ncluster_all\n").unwrap();
        assert_eq!(lines[0].item, ScriptItem::Use("alpha".into()));
        assert!(matches!(lines[1].item, ScriptItem::Request(_)));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_script("cluster_all\nwat 7\n").unwrap_err();
        assert!(err.message.contains("line 2"), "{}", err.message);
        assert_eq!(err.code, crate::error::ErrorCode::Parse);
    }

    #[test]
    fn bad_arity_rejected() {
        assert!(parse_request("select_region 0 0.5").is_err());
        assert!(parse_request("cluster_all extra").is_err());
        assert!(parse_request("set_linkage diagonal").is_err());
        assert!(parse_request("normalize all sqrt").is_err());
        assert!(parse_request("scroll abc").is_err());
    }

    #[test]
    fn float_precision_survives() {
        let r = parse_request("select_region 0 0.1 0.30000001").unwrap();
        match &r {
            Request::Mutate(Mutation::Command(Command::SelectRegion {
                start_frac,
                end_frac,
                ..
            })) => {
                assert_eq!(*start_frac, 0.1f32);
                assert_eq!(*end_frac, 0.3_f32);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(parse_request(&format_request(&r)).unwrap(), r);
    }

    #[test]
    fn response_formats_are_stable() {
        let applied = Response::Applied {
            selection_len: Some(4),
            damage: vec![
                DamageRect {
                    x: 0,
                    y: 0,
                    w: 10,
                    h: 5,
                },
                DamageRect {
                    x: 10,
                    y: 0,
                    w: 2,
                    h: 3,
                },
            ],
        };
        assert_eq!(
            format_response(&applied),
            "applied selection=4 damage=0:0:10:5,10:0:2:3"
        );
        let empty = Response::Applied {
            selection_len: None,
            damage: vec![],
        };
        assert_eq!(format_response(&empty), "applied selection=- damage=-");
        let text = Response::Text {
            text: "G1\nG2\n".into(),
        };
        assert_eq!(format_response(&text), "text bytes=6\n  G1\n  G2");
    }

    #[test]
    fn wire_lines_parse_controls_scripts_reject_them() {
        assert_eq!(parse_wire_line("ping").unwrap(), Some(WireItem::Ping));
        assert_eq!(
            parse_wire_line(" shutdown ").unwrap(),
            Some(WireItem::Shutdown)
        );
        assert_eq!(parse_wire_line("# comment").unwrap(), None);
        assert_eq!(parse_wire_line("   ").unwrap(), None);
        match parse_wire_line("use alpha").unwrap() {
            Some(WireItem::Script(ScriptItem::Use(name))) => assert_eq!(name, "alpha"),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(matches!(
            parse_wire_line("cluster_all").unwrap(),
            Some(WireItem::Script(ScriptItem::Request(_)))
        ));
        assert_eq!(parse_wire_line("close").unwrap(), Some(WireItem::Close));
        assert_eq!(parse_wire_line("stats").unwrap(), Some(WireItem::Stats));
        assert_eq!(
            parse_wire_line("list-sessions").unwrap(),
            Some(WireItem::ListSessions)
        );
        assert_eq!(
            parse_wire_line("migrate alpha 2").unwrap(),
            Some(WireItem::Migrate {
                session: "alpha".into(),
                shard: 2,
            })
        );
        assert!(parse_wire_line("migrate alpha").is_err());
        assert!(parse_wire_line("migrate alpha x").is_err());
        assert_eq!(
            parse_wire_line("balance").unwrap(),
            Some(WireItem::Balance { set: None })
        );
        assert_eq!(
            parse_wire_line("balance auto").unwrap(),
            Some(WireItem::Balance {
                set: Some(BalanceMode::Auto)
            })
        );
        assert_eq!(
            parse_wire_line(" balance off ").unwrap(),
            Some(WireItem::Balance {
                set: Some(BalanceMode::Off)
            })
        );
        assert!(parse_wire_line("balance sideways").is_err());
        assert!(parse_wire_line("balance auto now").is_err());
        assert!(
            parse_script("balance\n").is_err(),
            "balance is transport-only"
        );
        // named close is a script item on the wire too
        match parse_wire_line("close alpha").unwrap() {
            Some(WireItem::Script(ScriptItem::Close(name))) => assert_eq!(name, "alpha"),
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(
            parse_wire_line("subscribe alpha 4x2").unwrap(),
            Some(WireItem::Subscribe {
                session: "alpha".into(),
                tiles_x: 4,
                tiles_y: 2,
            })
        );
        assert!(parse_wire_line("subscribe alpha").is_err());
        assert!(parse_wire_line("subscribe alpha 4x2 extra").is_err());
        assert!(parse_wire_line("subscribe alpha 4by2").is_err());
        assert!(parse_wire_line("subscribe alpha 0x2").is_err());
        assert!(parse_wire_line("subscribe alpha 4x0").is_err());
        assert_eq!(
            parse_wire_line(" unsubscribe ").unwrap(),
            Some(WireItem::Unsubscribe)
        );
        assert_eq!(
            parse_wire_line("ack 17").unwrap(),
            Some(WireItem::Ack { seq: 17 })
        );
        assert!(parse_wire_line("ack").is_err());
        assert!(parse_wire_line("ack nope").is_err());
        assert!(parse_wire_line("ack 1 2").is_err());
        assert!(parse_wire_line("wat 7").is_err());
        // control keywords are transport-only: scripts reject them
        assert!(parse_script("ping\n").is_err());
        assert!(parse_script("shutdown\n").is_err());
        assert!(parse_script("close\n").is_err(), "bare close is wire-only");
        assert!(parse_script("stats\n").is_err());
        assert!(parse_script("list-sessions\n").is_err());
        assert!(parse_script("migrate a 0\n").is_err());
        assert!(parse_script("subscribe a 2x2\n").is_err());
        assert!(parse_script("unsubscribe\n").is_err());
        assert!(parse_script("ack 3\n").is_err());
    }

    #[test]
    fn close_directive_parses_in_scripts() {
        let lines = parse_script("use alpha\nclose alpha\nuse alpha\n").unwrap();
        assert_eq!(lines[1].item, ScriptItem::Close("alpha".into()));
        assert!(parse_script("close two words\n").is_err());
    }
}
