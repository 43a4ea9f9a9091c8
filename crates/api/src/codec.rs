//! Line-oriented wire codec: replayable request scripts, control lines
//! and canonical response text.
//!
//! One line per request, whitespace-separated tokens, `#` comments, blank
//! lines ignored. Every line a client sends is declared once, in one of
//! four `line_table!` tables below (the macro is in `record.rs`) —
//! mutations, queries, the script directives `use`/`close <name>`, and
//! the transport's control lines — each row giving a verb's keyword, its
//! arguments and their spellings (from the record kit), and the value it
//! builds. [`parse_request`]/[`format_request`],
//! [`parse_script_item`]/[`format_script_item`] and
//! [`parse_wire_item`]/[`format_wire_item`] are derived from them, exact
//! inverses for every representable value (`parse(format(x)) == x`,
//! property-tested), with the documented lexical limits: free text
//! (search queries, paths) holds no newline and no leading or trailing
//! whitespace, and list items (gene names) hold no comma or whitespace.
//! Floats are written in Rust's shortest round-trip `{:?}` form, so no
//! precision is lost. The verb tables of `crates/api/README.md` list
//! exactly these keywords (checked by `tests/invariants.rs`).
//!
//! `use <session>` switches the [`crate::hub::EngineHub`] to (or
//! creates) a named session and `close <session>` drops one (a later
//! `use` recreates it empty); everything else flows to the current
//! session's engine.

use crate::error::ApiError;
use crate::record::{line_table, read_text, write_text, Record, Rows, Token};
use crate::request::{Mutation, Query, Request};
use crate::response::Response;
use forestview::command::Command;

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
/// server itself — a [`ControlReply`], or a `stats`, `list-sessions` or
/// `balance` snapshot — and never reach an engine's request surface;
/// scripts deliberately reject them ([`parse_script`] treats control
/// keywords as unknown requests). `use <name>` and `close <name>` are
/// script items — they work identically in scripts and on the wire.
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
    /// shard without re-parsing its datasets.
    Migrate {
        /// Session to move.
        session: String,
        /// Destination shard index.
        shard: usize,
    },
    /// `balance` (status snapshot of the automatic rebalancer) or
    /// `balance auto` / `balance off` (flip its mode at runtime).
    Balance {
        /// `None` asks for status; `Some(mode)` sets the mode.
        set: Option<BalanceMode>,
    },
    /// `subscribe <session> <tiles_x>x<tiles_y>` — register this
    /// connection as a streaming viewer of a session through a tile grid.
    /// After the ack, a keyframe burst of binary tile frames (see
    /// fv-wall's stream codec) and damage-limited deltas after every
    /// executed run.
    Subscribe {
        /// Session to view.
        session: String,
        /// The viewer's grid: horizontal and vertical tile counts, both
        /// non-zero.
        tiles: (usize, usize),
    },
    /// Bare `unsubscribe` — stop streaming to this connection
    /// (idempotent).
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
/// `balance` wire grammar (its words are in `request.rs`'s keyword
/// table). The policy itself lives transport-side (`fv-net`); the codec
/// only names the two states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceMode {
    /// The server periodically plans and executes session migrations.
    Auto,
    /// Placement is operator-driven (`migrate` lines) only.
    Off,
}

/// Parse a wire token; inverse of the `Display` form.
impl std::str::FromStr for BalanceMode {
    type Err = ApiError;

    fn from_str(token: &str) -> Result<BalanceMode, ApiError> {
        BalanceMode::get(token).ok_or_else(|| BalanceMode::refuse(token, "balance mode"))
    }
}

line_table! {
    fn read_control / write_wire_item for WireItem, exact: true;
    in [] {
        "ping" => (WireItem::Ping);
        "shutdown" => (WireItem::Shutdown);
        "close" => (WireItem::Close);
        "stats" => (WireItem::Stats);
        "list-sessions" => (WireItem::ListSessions);
        "migrate" session, shard => (WireItem::Migrate { session, shard });
        "balance" => (WireItem::Balance { set: None });
        "balance" mode => (WireItem::Balance { set: Some(mode) });
        "subscribe" session, tiles as Grid => (WireItem::Subscribe { session, tiles });
        "unsubscribe" => (WireItem::Unsubscribe);
        "ack" seq => (WireItem::Ack { seq });
    }
    else WireItem::Script(item) => write_script_item;
}

line_table! {
    fn read_directive / write_script_item for ScriptItem, exact: true;
    in [] {
        "use" ..name as Name => (ScriptItem::Use(name));
        "close" ..name as Name => (ScriptItem::Close(name));
    }
    else ScriptItem::Request(request) => write_request;
}

line_table! {
    fn read_mutation / write_mutation for Mutation, exact: false;
    // ── mutations: interaction commands ─────────────────────────────────
    in [Mutation::Command] {
        "select_region" dataset, start_frac "start fraction", end_frac "end fraction"
            => (Command::SelectRegion { dataset, start_frac, end_frac });
        "select_genes" ..genes => (Command::SelectGenes(genes));
        "search_select" ..query => (Command::Search(query));
        "clear_selection" => (Command::ClearSelection);
        "toggle_sync" => (Command::ToggleSync);
        "scroll" delta "scroll delta" => (Command::Scroll(delta));
        "order_by_name" => (Command::OrderByName);
        "order_by_relevance" ..scores "relevance score" => (Command::OrderByRelevance(scores));
        "cluster_all" => (Command::ClusterAll);
        "set_contrast" dataset as OrAll, contrast
            => (Command::SetContrast { dataset, contrast });
        "set_linkage" linkage => (Command::SetLinkage(linkage));
        "set_metric" metric => (Command::SetMetric(metric));
    }
    // ── mutations: data management ──────────────────────────────────────
    in [] {
        "load" ..path as Path, needs "a path" => (Mutation::LoadDataset { path });
        "scenario" n_genes "gene count", seed => (Mutation::LoadScenario { n_genes, seed });
        "compendium" n_genes "gene count", n_datasets "dataset count", seed
            => (Mutation::LoadCompendium { n_genes, n_datasets, seed });
        "ontology" n_filler "filler term count", seed
            => (Mutation::BuildOntology { n_filler, seed });
        "impute" dataset, k => (Mutation::Impute { dataset, k });
        "normalize" dataset as OrAll, method => (Mutation::Normalize { dataset, method });
        "cluster_arrays" dataset => (Mutation::ClusterArrays { dataset });
    }
}

line_table! {
    fn read_query / write_request for Request, exact: false;
    // ── queries ─────────────────────────────────────────────────────────
    in [Request::Query] {
        "search" ..query => (Query::Search { query });
        "spell" top_n, ..genes, needs "<top_n> <gene,gene,...>"
            => (Query::Spell { genes, top_n });
        "enrich" max_terms, ..genes as OrSelection, needs "<max_terms> selection|<genes>"
            => (Query::Enrich { genes, max_terms });
        "render" width, height, ..path as Optional, needs "<width> <height> [path]"
            => (Query::Render { width, height, path });
        "export_cdt" dataset, ..prefix as Optional, needs "<dataset> [prefix]"
            => (Query::ExportCdt { dataset, prefix });
        "export_pcl" dataset, ..path as Path, needs "<dataset> <path>"
            => (Query::ExportPcl { dataset, path });
        "export_selection" what "selection export" => (Query::ExportSelection { what });
        "session_info" => (Query::SessionInfo);
        "list_datasets" => (Query::ListDatasets);
    }
    else Request::Mutate(mutation) => write_mutation;
}

crate::wire_record! {
    /// The one-line ack a server answers a control line or a `use`/`close`
    /// directive with, declared once: [`format_control_reply`] writes it
    /// and [`parse_control_reply`] reads it, on both sides of the wire.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ControlReply {
        /// To `ping`.
        Pong = "pong" {},
        /// To `shutdown`, before the server stops.
        Bye = "bye" {},
        /// To `use <session>`.
        Using = "using" { session: String => _ as Name, },
        /// To `close` and `close <session>`: the session that ended.
        Closed = "closed" { session: String => _ as Name, },
        /// To `migrate`: the shard the session lives on now.
        Migrated = "migrated" { session: String => _ as Name, shard: usize => "shard", },
        /// To `balance auto|off`.
        Balance = "balance" { mode: BalanceMode => "mode", },
        /// To `subscribe`: the viewer's grid and the wall it cuts, in
        /// pixels. Tile frames follow.
        Subscribed = "subscribed" {
            session: String => _ as Name,
            tiles: (usize, usize) => _ as Grid,
            wall: (usize, usize) => _,
        },
        /// To `unsubscribe`: the session a subscriber watched; none for a
        /// connection that watched nothing.
        Unsubscribed = "unsubscribed" { session: Option<String> => _ as Optional, },
    }
}

/// Canonical text of a control ack; the exact inverse of
/// [`parse_control_reply`].
pub fn format_control_reply(reply: &ControlReply) -> String {
    written(reply, ControlReply::put_text)
}

/// Read a control ack. Only its canonical text is one: the kit reads the
/// values a table names and passes over other text, which an ack holds
/// none of.
pub fn parse_control_reply(text: &str) -> Result<ControlReply, ApiError> {
    let (keyword, head) = text.split_once(' ').unwrap_or((text, ""));
    let reply = ControlReply::get_record(keyword, head, &mut Rows::none())?;
    let canonical = format_control_reply(&reply) == text;
    canonical
        .then_some(reply)
        .ok_or_else(|| ApiError::parse(format!("not an ack: {text:?}")))
}

/// `value`'s text, as `write` spells it.
fn written<T>(value: &T, write: fn(&T, &mut String)) -> String {
    let mut out = String::with_capacity(64);
    write(value, &mut out);
    out
}

/// Parse one line as a network transport sees it: `Ok(None)` for blank
/// lines and `#` comments (which produce no response frame), otherwise a
/// [`WireItem`].
pub fn parse_wire_line(raw: &str) -> Result<Option<WireItem>, ApiError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    parse_wire_item(line).map(Some)
}

/// Parse one wire line that is neither blank nor a comment: a control
/// line, else a script item. The inverse of [`format_wire_item`].
pub fn parse_wire_item(line: &str) -> Result<WireItem, ApiError> {
    let line = line.trim();
    let word = first_word(line);
    match read_control(line, word)? {
        Some(item) => Ok(item),
        None => script_item(line, word).map(WireItem::Script),
    }
}

/// Canonical text of a wire line; the exact inverse of
/// [`parse_wire_item`] (and so of [`parse_wire_line`]).
pub fn format_wire_item(item: &WireItem) -> String {
    written(item, write_wire_item)
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
    script_item(line, first_word(line))
}

/// [`parse_script_item`] of a trimmed line whose first word is `word`.
fn script_item(line: &str, word: &str) -> Result<ScriptItem, ApiError> {
    match read_directive(line, word)? {
        Some(item) => Ok(item),
        None => request(line, word).map(ScriptItem::Request),
    }
}

/// Canonical text form of a script item; the exact inverse of
/// [`parse_script_item`].
pub fn format_script_item(item: &ScriptItem) -> String {
    written(item, write_script_item)
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, ApiError> {
    let line = line.trim();
    request(line, first_word(line))
}

/// [`parse_request`] of a trimmed line whose first word is `word`.
fn request(line: &str, word: &str) -> Result<Request, ApiError> {
    if let Some(mutation) = read_mutation(line, word)? {
        return Ok(Request::Mutate(mutation));
    }
    read_query(line, word)?.ok_or_else(|| ApiError::parse(format!("unknown request {word:?}")))
}

/// A line's first word, the keyword a table row is found by: up to the
/// first whitespace.
fn first_word(line: &str) -> &str {
    line.split(char::is_whitespace).next().unwrap_or_default()
}

/// Canonical text form of a request; the exact inverse of
/// [`parse_request`].
pub fn format_request(request: &Request) -> String {
    written(request, write_request)
}

/// Canonical, deterministic text form of a response: its keyword, then
/// the header row and the rows and body [`Response`] declares.
/// Continuation lines are indented by two spaces so transcripts stay
/// parseable line-by-line. [`parse_response`] recovers the typed
/// response — network clients rely on this — with one documented loss:
/// floating-point statistics print with fixed display precision
/// (`{:.3}` / `{:.3e}`), so the parser recovers the displayed value, not
/// the original bits.
pub fn format_response(response: &Response) -> String {
    written(response, Response::put_text)
}

/// Parse canonical response text (as produced by [`format_response`])
/// back into a typed [`Response`]; `format_response(parse_response(s)?)
/// == s` for every `s` the formatter produces (property-tested).
pub fn parse_response(text: &str) -> Result<Response, ApiError> {
    let (head, mut rows) =
        Rows::split(text).ok_or_else(|| ApiError::parse("empty response text"))?;
    let (keyword, tail) = head.split_once(' ').unwrap_or((head, ""));
    let response = Response::get_record(keyword, tail, &mut rows)?;
    rows.end()?;
    Ok(response)
}

/// A session image's log row: the mutation's request line.
impl Record for Mutation {
    fn put_record(&self, out: &mut String) {
        write_mutation(self, out);
    }

    fn get_record(text: &str, _: &mut Rows<'_>) -> Result<Mutation, ApiError> {
        let line = text.trim();
        let word = first_word(line);
        if let Some(mutation) = read_mutation(line, word)? {
            return Ok(mutation);
        }
        // Anything else is refused as a request line is, and a query
        // that parses is refused as a query.
        request(line, word)?;
        Err(ApiError::parse(format!(
            "session image log rows are mutations, got query {text:?}"
        )))
    }
}

crate::wire_record! {
    /// One session in a cross-shard `list-sessions` reply: a `session`
    /// row.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SessionEntry {
        /// Session name (a single whitespace-free token, per
        /// [`crate::SessionId`]); leads the row.
        pub name: String => _,
        /// Shard the session lives on.
        pub shard: usize => "shard",
        /// Datasets loaded into the session.
        pub n_datasets: usize => "datasets",
    }
}

crate::wire_record! {
    /// A `list-sessions` reply: an `n=` count, then one row per session.
    struct SessionsReply {
        entries: Vec<SessionEntry> => ["n" rows "session"],
    }
}

/// Canonical reply text for a `list-sessions` control line. Entries are
/// emitted in the order given — servers merge shard listings and sort by
/// name before formatting. The inverse is [`parse_sessions_reply`].
pub fn format_sessions_reply(entries: &[SessionEntry]) -> String {
    let entries = entries.to_vec();
    write_text("sessions", &SessionsReply { entries })
}

/// Parse a `list-sessions` reply back into its entries; inverse of
/// [`format_sessions_reply`].
pub fn parse_sessions_reply(text: &str) -> Result<Vec<SessionEntry>, ApiError> {
    read_text("sessions", text).map(|reply: SessionsReply| reply.entries)
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
    fn an_image_log_row_is_a_mutation_line() {
        for line in ["load data/my file.pcl", "scroll -2", "set_contrast all 1.5"] {
            let mutation = Mutation::get_record(line, &mut Rows::none()).unwrap();
            let mut out = String::new();
            mutation.put_record(&mut out);
            assert_eq!(out, line);
            assert_eq!(out, format_request(&Request::Mutate(mutation)));
        }
        let query = Mutation::get_record("session_info", &mut Rows::none()).unwrap_err();
        assert!(query.message.contains("got query"), "{query:?}");
        for bad in ["wat 7", "scroll", "session_info now"] {
            let refused = Mutation::get_record(bad, &mut Rows::none()).unwrap_err();
            assert_eq!(Some(refused), parse_request(bad).err(), "{bad:?}");
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

    /// Every control ack, pinned to the text servers answer, read both
    /// ways; text that is not exactly an ack is refused.
    #[test]
    fn every_control_ack_has_one_pinned_text() {
        let s = || "sëss:1".to_string();
        let table = [
            (ControlReply::Pong {}, "pong".to_string()),
            (ControlReply::Bye {}, "bye".into()),
            (ControlReply::Using { session: s() }, "using sëss:1".into()),
            (
                ControlReply::Closed { session: s() },
                "closed sëss:1".into(),
            ),
            (
                ControlReply::Migrated {
                    session: "shard=3".into(),
                    shard: 1,
                },
                "migrated shard=3 shard=1".into(),
            ),
            (
                ControlReply::Balance {
                    mode: BalanceMode::Auto,
                },
                "balance mode=auto".into(),
            ),
            (
                ControlReply::Balance {
                    mode: BalanceMode::Off,
                },
                "balance mode=off".into(),
            ),
            (
                ControlReply::Subscribed {
                    session: s(),
                    tiles: (4, 2),
                    wall: (1280, 960),
                },
                "subscribed sëss:1 4x2 1280x960".into(),
            ),
            (
                ControlReply::Unsubscribed { session: Some(s()) },
                "unsubscribed sëss:1".into(),
            ),
            (
                ControlReply::Unsubscribed { session: None },
                "unsubscribed".into(),
            ),
        ];
        for (ack, text) in &table {
            assert_eq!(&format_control_reply(ack), text);
            assert_eq!(&parse_control_reply(text).unwrap(), ack, "{text:?}");
        }
        for bad in [
            "",
            "pong ",
            "pong x",
            "Pong",
            "using",
            "using a b",
            "using a\tb",
            "closed ",
            "migrated a",
            "migrated a shard=x",
            "migrated a shard=1 x",
            "migrated a x shard=1",
            "balance mode=sideways",
            "balance mode=auto ticks=3",
            "subscribed s 0x2 800x600",
            "subscribed s 4by2 800x600",
            "subscribed s 2x2",
            "subscribed s 2x2 800x600 x",
            "unsubscribed ",
            "unsubscribed a b",
            "sessions n=0",
            "wat",
        ] {
            let err = parse_control_reply(bad).unwrap_err();
            assert_eq!(err.code, crate::error::ErrorCode::Parse, "{bad:?}");
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
            // rows out of declared order, or under another kind's word
            "spell datasets=1 genes=1 missing=-\n  gene G1 score=0.500 datasets=1\n  dataset d weight=1.000 present=1",
            "datasets n=1\n  term 0 name=d genes=1 conditions=1 clustered=none",
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
                tiles: (4, 2),
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
