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

use crate::error::ApiError;
use crate::record::{field, get, lead, num, put, Token, NONE};
use crate::request::{
    linkage_from_str, linkage_str, metric_from_str, metric_str, Mutation, NormalizeMethod, Query,
    Request, SelectionExport,
};
use crate::response::{DatasetRow, EnrichmentRow, Response, SpellDatasetRow, SpellGeneRow};
use forestview::command::Command;
use std::fmt::Write;

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
    parse_script_item(line).map(|item| Some(WireItem::Script(item)))
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
        let item = parse_script_item(line).map_err(with_line)?;
        out.push(ScriptLine { line_no, item });
    }
    Ok(out)
}

/// Parse one script line: a `use <name>` / `close <name>` directive or a
/// request. The inverse of [`format_script_item`].
pub fn parse_script_item(line: &str) -> Result<ScriptItem, ApiError> {
    let line = line.trim();
    if let Some(name) = parse_session_directive(line, "use ")? {
        return Ok(ScriptItem::Use(name));
    }
    if let Some(name) = parse_session_directive(line, "close ")? {
        return Ok(ScriptItem::Close(name));
    }
    parse_request(line).map(ScriptItem::Request)
}

/// Canonical text form of a script item; the exact inverse of
/// [`parse_script_item`].
pub fn format_script_item(item: &ScriptItem) -> String {
    match item {
        ScriptItem::Use(name) => format!("use {name}"),
        ScriptItem::Close(name) => format!("close {name}"),
        ScriptItem::Request(request) => format_request(request),
    }
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

/// Canonical, deterministic text form of a response: its keyword, what
/// leads the keyed fields (a frame's `<w>x<h>`, row counts), the keyed
/// fields [`Response`] declares, then rows and bodies. Continuation lines
/// are indented by two spaces so transcripts stay parseable
/// line-by-line. [`parse_response`] recovers the typed response —
/// network clients rely on this — with one documented loss:
/// floating-point statistics print with fixed display precision
/// (`{:.3}` / `{:.3e}`), so the parser recovers the displayed value, not
/// the original bits.
pub fn format_response(response: &Response) -> String {
    let mut out = String::with_capacity(64);
    out.push_str(response.keyword());
    match response {
        Response::SearchHits { genes } => put(&mut out, "hits", &genes.len()),
        Response::SpellRanking {
            datasets, genes, ..
        } => {
            put(&mut out, "datasets", &datasets.len());
            put(&mut out, "genes", &genes.len());
        }
        Response::Enrichment { rows } => put(&mut out, "terms", &rows.len()),
        Response::Frame { width, height, .. } => {
            out.push(' ');
            (*width, *height).put(&mut out);
        }
        Response::Text { text } => put(&mut out, "bytes", &text.len()),
        Response::Datasets { rows } => put(&mut out, "n", &rows.len()),
        _ => {}
    }
    response.put_fields(&mut out);
    match response {
        Response::SpellRanking {
            datasets, genes, ..
        } => {
            for d in datasets {
                out.push_str("\n  dataset ");
                out.push_str(&d.name);
                d.put_fields(&mut out);
            }
            for g in genes {
                out.push_str("\n  gene ");
                out.push_str(&g.gene);
                g.put_fields(&mut out);
            }
        }
        Response::Enrichment { rows } => {
            for r in rows {
                out.push_str("\n  term ");
                out.push_str(&r.accession);
                r.put_fields(&mut out);
                let _ = write!(
                    out,
                    " overlap={}/{} name={}",
                    r.overlap, r.annotated, r.name
                );
            }
        }
        Response::Text { text } => push_body(&mut out, text),
        Response::SessionInfo(info) => {
            put(&mut out, "summary_bytes", &info.summary.len());
            push_body(&mut out, &info.summary);
        }
        Response::Datasets { rows } => {
            for r in rows {
                let _ = write!(out, "\n  dataset {}", r.dataset);
                r.put_fields(&mut out);
                out.push_str(" clustered=");
                out.push_str(clustered_word((r.gene_clustered, r.array_clustered)));
            }
        }
        _ => {}
    }
    out
}

/// Parse canonical response text (as produced by [`format_response`])
/// back into a typed [`Response`]; `format_response(parse_response(s)?)
/// == s` for every `s` the formatter produces (property-tested).
pub fn parse_response(text: &str) -> Result<Response, ApiError> {
    let mut lines = text.lines();
    let head = lines
        .next()
        .ok_or_else(|| ApiError::parse("empty response text"))?;
    let body = lines
        .map(|l| {
            l.strip_prefix("  ")
                .ok_or_else(|| ApiError::parse(format!("continuation line not indented: {l:?}")))
        })
        .collect::<Result<Vec<&str>, _>>()?;
    let (keyword, tail) = head.split_once(' ').unwrap_or((head, ""));
    let mut response = Response::get_fields(keyword, tail)?;
    // The header counts only check the rows found; they are wire input
    // and never size a reservation.
    let count = |key: &str, found: usize| -> Result<(), ApiError> {
        if get::<usize>(tail, key)? == found {
            Ok(())
        } else {
            Err(ApiError::parse(format!(
                "{keyword} {key}= disagrees with the {found} row(s) found"
            )))
        }
    };
    match &mut response {
        Response::SearchHits { genes } => count("hits", genes.len())?,
        Response::SpellRanking {
            datasets, genes, ..
        } => {
            for line in &body {
                if let Some(row) = line.strip_prefix("dataset ") {
                    let (name, rest) = lead(row, "weight")?;
                    datasets.push(SpellDatasetRow {
                        name: name.to_string(),
                        ..SpellDatasetRow::get_fields(rest)?
                    });
                } else if let Some(row) = line.strip_prefix("gene ") {
                    let (gene, rest) = lead(row, "score")?;
                    genes.push(SpellGeneRow {
                        gene: gene.to_string(),
                        ..SpellGeneRow::get_fields(rest)?
                    });
                } else {
                    return Err(ApiError::parse(format!("unexpected spell row {line:?}")));
                }
            }
            count("datasets", datasets.len())?;
            count("genes", genes.len())?;
        }
        Response::Enrichment { rows } => {
            for line in &body {
                let (accession, rest) = line
                    .strip_prefix("term ")
                    .and_then(|row| row.split_once(' '))
                    .ok_or_else(|| ApiError::parse(format!("unexpected enrich row {line:?}")))?;
                let (keyed, name) = rest
                    .split_once(" name=")
                    .ok_or_else(|| ApiError::parse("enrich term row needs name="))?;
                let (overlap, annotated) = field(keyed, "overlap")?
                    .split_once('/')
                    .ok_or_else(|| ApiError::parse("enrich overlap is <overlap>/<annotated>"))?;
                rows.push(EnrichmentRow {
                    accession: accession.to_string(),
                    name: name.to_string(),
                    overlap: num(overlap, "overlap")?,
                    annotated: num(annotated, "annotated")?,
                    ..EnrichmentRow::get_fields(keyed)?
                });
            }
            count("terms", rows.len())?;
        }
        Response::Frame { width, height, .. } => {
            let dims = tail.split(' ').next().unwrap_or_default();
            (*width, *height) = <(usize, usize)>::get(dims)
                .ok_or_else(|| ApiError::parse(format!("frame needs <w>x<h>, got {dims:?}")))?;
        }
        Response::Text { text } => *text = rebuild_text(&body, get(tail, "bytes")?)?,
        Response::SessionInfo(info) => {
            info.summary = rebuild_text(&body, get(tail, "summary_bytes")?)?;
        }
        Response::Datasets { rows } => {
            for line in &body {
                let (dataset, rest) = line
                    .strip_prefix("dataset ")
                    .and_then(|row| row.split_once(' '))
                    .ok_or_else(|| ApiError::parse(format!("unexpected dataset row {line:?}")))?;
                let (keyed, clustered) = rest
                    .rsplit_once(" clustered=")
                    .ok_or_else(|| ApiError::parse("dataset row needs clustered="))?;
                let (gene_clustered, array_clustered) =
                    [(true, true), (true, false), (false, true), (false, false)]
                        .into_iter()
                        .find(|&state| clustered_word(state) == clustered)
                        .ok_or_else(|| {
                            ApiError::parse(format!("unknown cluster state {clustered:?}"))
                        })?;
                rows.push(DatasetRow {
                    dataset: num(dataset, "dataset")?,
                    gene_clustered,
                    array_clustered,
                    ..DatasetRow::get_fields(keyed)?
                });
            }
            count("n", rows.len())?;
        }
        _ if !body.is_empty() => {
            return Err(ApiError::parse(format!(
                "{keyword} responses are single-line, got {} continuation line(s)",
                body.len()
            )))
        }
        _ => {}
    }
    Ok(response)
}

/// A dataset row's `clustered=` word for its (gene, array) cluster state.
fn clustered_word(state: (bool, bool)) -> &'static str {
    match state {
        (true, true) => "gene+array",
        (true, false) => "gene",
        (false, true) => "array",
        (false, false) => "none",
    }
}

/// Append a multi-line body, each line indented two spaces.
fn push_body(out: &mut String, text: &str) {
    for line in text.lines() {
        out.push_str("\n  ");
        out.push_str(line);
    }
}

/// Rebuild a multi-line body from its de-indented lines plus the
/// advertised byte length (which disambiguates a trailing newline).
fn rebuild_text(lines: &[&str], bytes: usize) -> Result<String, ApiError> {
    let joined = lines.join("\n");
    if joined.len() == bytes {
        Ok(joined)
    } else if joined.len() + 1 == bytes {
        Ok(joined + "\n")
    } else {
        Err(ApiError::parse(format!(
            "text length {} disagrees with advertised {bytes} bytes",
            joined.len()
        )))
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
/// name before formatting. The inverse is [`parse_sessions_reply`].
pub fn format_sessions_reply(entries: &[SessionEntry]) -> String {
    let mut out = format!("sessions n={}", entries.len());
    for e in entries {
        out.push_str("\n  session ");
        out.push_str(&e.name);
        e.put_fields(&mut out);
    }
    out
}

/// Parse a `list-sessions` reply back into its entries; inverse of
/// [`format_sessions_reply`].
pub fn parse_sessions_reply(text: &str) -> Result<Vec<SessionEntry>, ApiError> {
    let mut lines = text.lines();
    let head = lines
        .next()
        .ok_or_else(|| ApiError::parse("empty sessions reply"))?;
    let tail = head
        .strip_prefix("sessions ")
        .ok_or_else(|| ApiError::parse(format!("not a sessions reply: {head:?}")))?;
    let n: usize = get(tail, "n")?;
    // The count only checks the rows found; it never sizes a reservation.
    let mut entries = Vec::new();
    for line in lines {
        let (name, rest) = line
            .strip_prefix("  session ")
            .and_then(|row| row.split_once(' '))
            .ok_or_else(|| ApiError::parse(format!("unexpected session row {line:?}")))?;
        entries.push(SessionEntry {
            name: name.to_string(),
            ..SessionEntry::get_fields(rest)?
        });
    }
    if entries.len() != n {
        return Err(ApiError::parse(
            "session row count disagrees with the header",
        ));
    }
    Ok(entries)
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
fn parse_list(token: &str) -> Result<Vec<String>, ApiError> {
    Token::get(token).ok_or_else(|| {
        ApiError::parse(format!(
            "expected a comma-separated list without empty items (or `-`), got {token:?}"
        ))
    })
}

fn format_list(items: &[String]) -> String {
    if items.is_empty() {
        NONE.to_string()
    } else {
        items.join(",")
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

    /// One canonical text per response kind, pinned byte for byte and
    /// read both ways: formatting gives the literal, parsing gives the
    /// value back. The floats are ones the display precision (`{:.3}`,
    /// `{:.3e}`) carries exactly, so every row is compared whole. A name
    /// may hold spaces, even the text of the key after it.
    #[test]
    fn every_response_kind_has_one_pinned_text() {
        use crate::response::{
            DatasetRow, EnrichmentRow, SessionInfoData, SpellDatasetRow, SpellGeneRow,
        };
        let row = |dataset, name: &str, genes, gene_clustered, array_clustered| DatasetRow {
            dataset,
            name: name.into(),
            genes,
            conditions: 6,
            gene_clustered,
            array_clustered,
        };
        let table = [
            (
                Response::Applied {
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
                },
                "applied selection=4 damage=0:0:10:5,10:0:2:3",
            ),
            (
                Response::Loaded {
                    dataset: 2,
                    name: "gasch_stress".into(),
                    genes: 100,
                    conditions: 12,
                },
                "loaded dataset=2 name=gasch_stress genes=100 conditions=12",
            ),
            (
                Response::Loaded {
                    dataset: 0,
                    name: "heat shock genes=5".into(),
                    genes: 80,
                    conditions: 6,
                },
                "loaded dataset=0 name=heat shock genes=5 genes=80 conditions=6",
            ),
            (
                Response::ScenarioLoaded {
                    names: vec!["gasch_stress".into(), "hughes_knockout".into()],
                    n_genes: 150,
                },
                "scenario datasets=gasch_stress,hughes_knockout genes=150",
            ),
            (Response::OntologyReady { terms: 42 }, "ontology terms=42"),
            (
                Response::Imputed {
                    filled: 7,
                    missing_before: 9,
                },
                "imputed filled=7 missing=9",
            ),
            (
                Response::Normalized { datasets: 3 },
                "normalized datasets=3",
            ),
            (
                Response::ArraysClustered { dataset: 1 },
                "arrays_clustered dataset=1",
            ),
            (
                Response::SearchHits {
                    genes: vec!["YAL001C".into(), "YBR002W".into()],
                },
                "search hits=2 genes=YAL001C,YBR002W",
            ),
            (
                Response::SpellRanking {
                    datasets: vec![SpellDatasetRow {
                        name: "heat shock response".into(),
                        weight: 1.25,
                        query_genes_present: 3,
                    }],
                    genes: vec![SpellGeneRow {
                        gene: "YAL001C".into(),
                        score: 0.875,
                        n_datasets: 2,
                    }],
                    query_missing: vec!["YZZ999X".into()],
                },
                "spell datasets=1 genes=1 missing=YZZ999X\n  \
                 dataset heat shock response weight=1.250 present=3\n  \
                 gene YAL001C score=0.875 datasets=2",
            ),
            (
                Response::Enrichment {
                    rows: vec![EnrichmentRow {
                        accession: "GO:0000042".into(),
                        name: "protein folding chaperone".into(),
                        p_value: 1.25e-7,
                        q_value: 2.5e-6,
                        overlap: 5,
                        annotated: 20,
                    }],
                },
                "enrich terms=1\n  \
                 term GO:0000042 p=1.250e-7 q=2.500e-6 overlap=5/20 name=protein folding chaperone",
            ),
            (
                Response::Frame {
                    width: 400,
                    height: 300,
                    panes: 3,
                    checksum: 0x0123_4567_89ab_cdef,
                    path: None,
                },
                "frame 400x300 panes=3 checksum=0123456789abcdef path=-",
            ),
            (
                Response::CdtExported {
                    dataset: 0,
                    files: vec!["out.cdt".into(), "out.gtr".into()],
                    cdt_bytes: 1234,
                    has_gtr: true,
                    has_atr: false,
                },
                "cdt dataset=0 bytes=1234 gtr=yes atr=no files=out.cdt,out.gtr",
            ),
            (
                Response::PclExported {
                    dataset: 0,
                    path: "out.pcl".into(),
                    genes: 100,
                    conditions: 8,
                },
                "pcl dataset=0 path=out.pcl genes=100 conditions=8",
            ),
            (
                Response::Text {
                    text: "G1\nG2\n".into(),
                },
                "text bytes=6\n  G1\n  G2",
            ),
            (
                Response::SessionInfo(SessionInfoData {
                    n_datasets: 2,
                    universe_genes: 100,
                    total_measurements: 800,
                    selection_len: None,
                    sync_enabled: true,
                    scroll: 3,
                    dataset_order: vec![1, 0],
                    summary: "ForestView session: 2 dataset(s)\n  pane  0: alpha\n".into(),
                }),
                "session datasets=2 universe=100 measurements=800 selection=- sync=on \
                 scroll=3 order=1,0 summary_bytes=50\n  \
                 ForestView session: 2 dataset(s)\n    pane  0: alpha",
            ),
            (
                Response::Datasets {
                    rows: vec![row(0, "osmotic_shock", 100, true, false)],
                },
                "datasets n=1\n  \
                 dataset 0 name=osmotic_shock genes=100 conditions=6 clustered=gene",
            ),
            (
                Response::Datasets {
                    rows: vec![
                        row(0, "heat shock genes=5", 80, true, true),
                        row(1, "x", 9, false, false),
                    ],
                },
                "datasets n=2\n  \
                 dataset 0 name=heat shock genes=5 genes=80 conditions=6 clustered=gene+array\n  \
                 dataset 1 name=x genes=9 conditions=6 clustered=none",
            ),
        ];
        for (response, text) in &table {
            assert_eq!(&format_response(response), text);
            assert_eq!(&parse_response(text).unwrap(), response, "{text:?}");
        }
    }

    #[test]
    fn malformed_sessions_replies_are_parse_errors() {
        // (the text itself is pinned by `tests/record_props.rs`)
        assert!(parse_sessions_reply("sessions n=2\n  session a shard=0 datasets=0").is_err());
        assert!(parse_sessions_reply("wat n=0").is_err());
        let huge = "sessions n=18446744073709551615\n  session a shard=0 datasets=0";
        assert_eq!(
            parse_sessions_reply(huge).unwrap_err().code,
            crate::error::ErrorCode::Parse
        );
    }

    #[test]
    fn garbage_responses_are_parse_errors() {
        for bad in [
            "",
            "wat 7",
            "applied selection=x damage=-",
            "applied selection=4",
            "applied selection=4 damage=-\n  extra",
            "search hits=2 genes=YAL001C",
            "frame 400 panes=3 checksum=00 path=-",
            "loaded dataset=0 name=a b conditions=6",
            "text bytes=5\n  G1",
            "text bytes=2\nG1",
            "session datasets=1 universe=1 measurements=1 selection=- sync=maybe scroll=0 order=0 summary_bytes=0",
            "enrich terms=1\n  term GO:1 p=1.000e0 q=1.000e0 overlap=1 name=x",
            "datasets n=1\n  dataset 0 name=d genes=1 conditions=1 clustered=both",
            // header counts no reply could hold
            "spell datasets=18446744073709551615 genes=0 missing=-",
            "spell datasets=0 genes=1099511627776 missing=-\n  gene G1 score=0.5 datasets=1",
            "enrich terms=18446744073709551615",
            "datasets n=1099511627776\n  dataset 0 name=d genes=1 conditions=1 clustered=none",
        ] {
            let err = parse_response(bad).unwrap_err();
            assert_eq!(
                err.code,
                crate::error::ErrorCode::Parse,
                "{bad:?} must be E_PARSE, got {err:?}"
            );
        }
    }

    #[test]
    fn script_items_roundtrip_through_one_parser() {
        for line in [
            "use alpha",
            "close alpha",
            "cluster_all",
            "render 320 240 a b.ppm",
        ] {
            let item = parse_script_item(line).unwrap();
            assert_eq!(format_script_item(&item), line);
            assert_eq!(parse_wire_line(line).unwrap(), Some(WireItem::Script(item)));
        }
        assert!(parse_script_item("use two words").is_err());
        assert!(
            parse_script_item("ping").is_err(),
            "controls are not script items"
        );
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
