//! fv-lint — the workspace invariant linter.
//!
//! The repo's correctness rests on conventions no compiler checks: the
//! balancer policy and workload generator must stay wall-clock-free,
//! the event-loop server paths must never panic, thread creation is
//! confined to sanctioned modules, `unsafe` needs a written
//! justification, every wire error code is registered in the fv-net
//! README, and every public `format_x` has a `parse_x` inverse. This
//! crate makes those conventions machine-checked: a lightweight Rust
//! tokenizer ([`lex`]) feeds a rule engine that walks the workspace and
//! reports `file:line: rule: message` diagnostics.
//!
//! Violations can be waived per line with a justification comment:
//!
//! ```text
//! // fv-lint: allow(no-spawn-outside-sanctioned-modules) -- writer thread, joined below
//! ```
//!
//! The waiver applies to the line it sits on and the line directly
//! below it, and the ` -- <reason>` part is mandatory: a waiver without
//! a reason does not waive anything.

#![forbid(unsafe_code)]

pub mod lex;

use lex::{lex, Lexed, TokKind, Token};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule names, as they appear in diagnostics and waiver comments.
pub const NO_WALL_CLOCK: &str = "no-wall-clock";
pub const NO_PANIC: &str = "no-panic-in-server-paths";
pub const NO_SPAWN: &str = "no-spawn-outside-sanctioned-modules";
pub const UNSAFE_SAFETY: &str = "unsafe-needs-safety-comment";
pub const ERROR_REGISTRY: &str = "error-code-registry";
pub const FORMAT_PARSE: &str = "format-parse-inverse";

pub const RULES: &[&str] = &[
    NO_WALL_CLOCK,
    NO_PANIC,
    NO_SPAWN,
    UNSAFE_SAFETY,
    ERROR_REGISTRY,
    FORMAT_PARSE,
];

/// One input file: a workspace-relative path (always `/`-separated) and
/// its full text. The path decides which rules apply.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub path: String,
    pub text: String,
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Files where `no-panic-in-server-paths` applies: the event-loop
/// server (IO shell and protocol core) and everything it calls on the
/// request path.
const SERVER_PATHS: &[&str] = &[
    "crates/net/src/server.rs",
    "crates/net/src/protocol.rs",
    "crates/net/src/shard.rs",
    "crates/net/src/procshard.rs",
    "crates/net/src/stream.rs",
    "crates/net/src/poll.rs",
    "crates/net/src/frame.rs",
    "crates/net/src/tap.rs",
];

/// Modules allowed to create threads (plus any test code). Child
/// *process* creation is tighter still: `rule_no_spawn` only ever
/// accepts it here, and in practice only `procshard.rs` (the process
/// shard backend) does it.
const SPAWN_SANCTIONED: &[&str] = &["shard.rs", "procshard.rs", "tap.rs"];

/// The module set for `format-parse-inverse`: the wire codec and its
/// satellite text formats. A `parse_x` anywhere in the set satisfies a
/// `format_x` anywhere else in it.
const CODEC_PATHS: &[&str] = &[
    "crates/api/src/codec.rs",
    "crates/api/src/trace.rs",
    "crates/api/src/image.rs",
    "crates/net/src/metrics.rs",
    "crates/net/src/balance.rs",
];

/// Where the error-code registry lives.
const ERROR_TABLE_PATH: &str = "crates/net/README.md";

fn file_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn in_path_set(path: &str, set: &[&str]) -> bool {
    set.iter()
        .any(|p| path == *p || path.ends_with(&format!("/{p}")))
}

/// Whether the whole file is test code by location.
fn is_test_path(path: &str) -> bool {
    path.split('/')
        .any(|seg| seg == "tests" || seg == "benches")
}

fn wall_clock_scope(path: &str) -> bool {
    let name = file_name(path);
    name == "balance.rs"
        || in_path_set(
            path,
            &["crates/net/src/protocol.rs", "crates/api/src/workload.rs"],
        )
        || name.trim_end_matches(".rs").ends_with("_sim")
}

/// Per-file context shared by the rules.
struct FileCtx<'a> {
    path: &'a str,
    lexed: &'a Lexed,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    test_ranges: Vec<(usize, usize)>,
    test_file: bool,
    /// line → rules waived on that line.
    waivers: HashMap<usize, HashSet<String>>,
}

impl FileCtx<'_> {
    fn is_test_line(&self, line: usize) -> bool {
        self.test_file
            || self
                .test_ranges
                .iter()
                .any(|&(a, b)| line >= a && line <= b)
    }

    fn is_waived(&self, line: usize, rule: &str) -> bool {
        self.waivers.get(&line).is_some_and(|s| s.contains(rule))
    }
}

/// Find line ranges of `#[cfg(test)]`-gated items by token scanning:
/// match the attribute, then brace-match (or skip to `;`) the item that
/// follows.
fn test_line_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 3 < tokens.len() {
        let gate = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct('(');
        if !gate {
            i += 1;
            continue;
        }
        // Scan the cfg(...) predicate for a `test` ident.
        let mut j = i + 4;
        let mut depth = 1usize;
        let mut has_test = false;
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
            } else if tokens[j].is_ident("test") {
                has_test = true;
            }
            j += 1;
        }
        // Expect the closing `]` of the attribute.
        if j < tokens.len() && tokens[j].is_punct(']') {
            j += 1;
        }
        if !has_test {
            i = j;
            continue;
        }
        let start_line = tokens[i].line;
        // Skip any further attributes on the same item.
        while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[') {
            let mut d = 0usize;
            while j < tokens.len() {
                if tokens[j].is_punct('[') {
                    d += 1;
                } else if tokens[j].is_punct(']') {
                    d -= 1;
                    if d == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // The gated item ends at the matching `}` of its first brace, or
        // at the first top-level `;` if it has no body (e.g. `use`).
        let mut end_line = start_line;
        while j < tokens.len() {
            if tokens[j].is_punct(';') {
                end_line = tokens[j].line;
                j += 1;
                break;
            }
            if tokens[j].is_punct('{') {
                let mut d = 0usize;
                while j < tokens.len() {
                    if tokens[j].is_punct('{') {
                        d += 1;
                    } else if tokens[j].is_punct('}') {
                        d -= 1;
                        if d == 0 {
                            end_line = tokens[j].line;
                            break;
                        }
                    }
                    j += 1;
                }
                j += 1;
                break;
            }
            j += 1;
        }
        ranges.push((start_line, end_line.max(start_line)));
        i = j;
    }
    ranges
}

/// Parse `fv-lint: allow(rule, ...) -- reason` waiver comments. A
/// waiver is registered for its own line and the line below; a missing
/// or empty reason disqualifies it.
fn parse_waivers(comments: &[(usize, String)]) -> HashMap<usize, HashSet<String>> {
    let mut map: HashMap<usize, HashSet<String>> = HashMap::new();
    for (line, text) in comments {
        let Some(at) = text.find("fv-lint:") else {
            continue;
        };
        let rest = &text[at + "fv-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let after_open = &rest[open + "allow(".len()..];
        let Some(close) = after_open.find(')') else {
            continue;
        };
        let reason_ok = after_open[close + 1..]
            .trim_start()
            .strip_prefix("--")
            .map(str::trim)
            .is_some_and(|r| !r.is_empty());
        if !reason_ok {
            continue;
        }
        let rules: Vec<String> = after_open[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        for l in [*line, *line + 1] {
            map.entry(l).or_default().extend(rules.iter().cloned());
        }
    }
    map
}

/// `tokens[i..]` matches the ident path `a::b`.
fn path2(tokens: &[Token], i: usize, a: &str, b: &str) -> bool {
    i + 3 < tokens.len()
        && tokens[i].is_ident(a)
        && tokens[i + 1].is_punct(':')
        && tokens[i + 2].is_punct(':')
        && tokens[i + 3].is_ident(b)
}

fn check(
    out: &mut Vec<Violation>,
    ctx: &FileCtx<'_>,
    line: usize,
    rule: &'static str,
    message: String,
) {
    if !ctx.is_waived(line, rule) {
        out.push(Violation {
            file: ctx.path.to_string(),
            line,
            rule,
            message,
        });
    }
}

fn rule_no_wall_clock(out: &mut Vec<Violation>, ctx: &FileCtx<'_>) {
    if !wall_clock_scope(ctx.path) {
        return;
    }
    // Applies to test code too: the `*_sim` harnesses ARE tests, and
    // determinism is exactly what they promise.
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        for src in ["Instant", "SystemTime"] {
            if path2(toks, i, src, "now") {
                check(
                    out,
                    ctx,
                    toks[i].line,
                    NO_WALL_CLOCK,
                    format!(
                        "`{src}::now` in a seeded/deterministic scope; derive time from \
                         the simulation clock or a seed instead"
                    ),
                );
            }
        }
    }
}

fn rule_no_panic(out: &mut Vec<Violation>, ctx: &FileCtx<'_>) {
    if !in_path_set(ctx.path, SERVER_PATHS) || ctx.test_file {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || ctx.is_test_line(t.line) {
            continue;
        }
        let method_call =
            i > 0 && toks[i - 1].is_punct('.') && i + 1 < toks.len() && toks[i + 1].is_punct('(');
        if method_call && (t.text == "unwrap" || t.text == "expect") {
            check(
                out,
                ctx,
                t.line,
                NO_PANIC,
                format!(
                    "`.{}()` in a server path; return a typed `ApiError` (`E_*`) instead",
                    t.text
                ),
            );
            continue;
        }
        let bang_macro = i + 1 < toks.len() && toks[i + 1].is_punct('!');
        if bang_macro
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
        {
            check(
                out,
                ctx,
                t.line,
                NO_PANIC,
                format!(
                    "`{}!` in a server path; return a typed `ApiError` (`E_*`) instead",
                    t.text
                ),
            );
        }
    }
}

fn rule_no_spawn(out: &mut Vec<Violation>, ctx: &FileCtx<'_>) {
    if ctx.test_file || SPAWN_SANCTIONED.contains(&file_name(ctx.path)) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if ctx.is_test_line(toks[i].line) {
            continue;
        }
        if path2(toks, i, "thread", "spawn") || path2(toks, i, "thread", "Builder") {
            check(
                out,
                ctx,
                toks[i].line,
                NO_SPAWN,
                "thread creation outside the sanctioned modules \
                 (shard.rs, procshard.rs, tap.rs, tests)"
                    .to_string(),
            );
        }
        // Child processes are confined even harder than threads: the
        // process shard backend (procshard.rs) is the only non-test
        // module that may spawn them. Both spellings are anchored so
        // forestview's unrelated `Command` enum never matches; a fully
        // qualified `process::Command::new` reports once, at `process`.
        let cmd_new = path2(toks, i, "Command", "new")
            && !(i >= 3 && path2(toks, i - 3, "process", "Command"));
        if path2(toks, i, "process", "Command") || cmd_new {
            check(
                out,
                ctx,
                toks[i].line,
                NO_SPAWN,
                "child-process creation outside the sanctioned modules \
                 (procshard.rs, tests); shard worker processes are the only ones we spawn"
                    .to_string(),
            );
        }
    }
}

fn rule_unsafe_safety(out: &mut Vec<Violation>, ctx: &FileCtx<'_>) {
    let toks = &ctx.lexed.tokens;
    for t in toks {
        if !t.is_ident("unsafe") {
            continue;
        }
        let justified =
            ctx.lexed.comments.iter().any(|(line, text)| {
                *line + 3 >= t.line && *line <= t.line && text.contains("SAFETY:")
            });
        if !justified {
            check(
                out,
                ctx,
                t.line,
                UNSAFE_SAFETY,
                "`unsafe` without an adjacent `// SAFETY:` comment explaining why it is sound"
                    .to_string(),
            );
        }
    }
}

/// A source-side `E_*` occurrence or a codec-side `format_`/`parse_`
/// definition, collected per file and judged across the whole set.
#[derive(Default)]
struct CrossFile {
    /// (file, line, code, waived) for each `"E_*"` string literal in
    /// non-test code.
    error_codes: Vec<(String, usize, String, bool)>,
    /// (file, line, name, waived) for each `pub fn format_*` in the
    /// codec module set.
    format_fns: Vec<(String, usize, String, bool)>,
    /// Every `fn parse_*` name in the codec module set.
    parse_fns: HashSet<String>,
}

fn looks_like_error_code(s: &str) -> bool {
    s.strip_prefix("E_").is_some_and(|rest| {
        !rest.is_empty() && rest.chars().all(|c| c.is_ascii_uppercase() || c == '_')
    })
}

fn collect_cross_file(cross: &mut CrossFile, ctx: &FileCtx<'_>) {
    let toks = &ctx.lexed.tokens;
    if !ctx.test_file {
        for t in toks {
            if t.kind == TokKind::Str && looks_like_error_code(&t.text) && !ctx.is_test_line(t.line)
            {
                cross.error_codes.push((
                    ctx.path.to_string(),
                    t.line,
                    t.text.clone(),
                    ctx.is_waived(t.line, ERROR_REGISTRY),
                ));
            }
        }
    }
    if in_path_set(ctx.path, CODEC_PATHS) {
        for i in 0..toks.len() {
            if !toks[i].is_ident("fn") || i + 1 >= toks.len() {
                continue;
            }
            let name = &toks[i + 1];
            if name.kind != TokKind::Ident {
                continue;
            }
            if name.text.starts_with("parse_") {
                cross.parse_fns.insert(name.text.clone());
            }
            // Only plain `pub fn` counts as public; `pub(crate)` and
            // private helpers are exempt from the inverse requirement.
            if name.text.starts_with("format_") && i > 0 && toks[i - 1].is_ident("pub") {
                cross.format_fns.push((
                    ctx.path.to_string(),
                    name.line,
                    name.text.clone(),
                    ctx.is_waived(name.line, FORMAT_PARSE),
                ));
            }
        }
    }
}

/// One row of the fv-net README error table.
struct TableRow {
    line: usize,
    code: String,
    exit: Option<u32>,
}

fn parse_error_table(md: &str) -> Vec<TableRow> {
    let mut rows = Vec::new();
    for (idx, raw) in md.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        let Some(code_cell) = cells.iter().find(|c| c.starts_with("`E_")) else {
            continue;
        };
        let code = code_cell.trim_matches('`').to_string();
        if !looks_like_error_code(&code) {
            continue;
        }
        let exit = cells.last().and_then(|c| c.parse::<u32>().ok());
        rows.push(TableRow { line, code, exit });
    }
    rows
}

fn finalize_error_registry(
    out: &mut Vec<Violation>,
    cross: &CrossFile,
    readme: Option<&SourceFile>,
) {
    let live: Vec<_> = cross
        .error_codes
        .iter()
        .filter(|(.., waived)| !waived)
        .collect();
    let Some(readme) = readme else {
        if let Some((file, line, code, _)) = live.first() {
            out.push(Violation {
                file: file.clone(),
                line: *line,
                rule: ERROR_REGISTRY,
                message: format!(
                    "error code `{code}` used but `{ERROR_TABLE_PATH}` (the error-code \
                     registry) was not found"
                ),
            });
        }
        return;
    };
    let rows = parse_error_table(&readme.text);
    let mut row_count: HashMap<&str, Vec<&TableRow>> = HashMap::new();
    for row in &rows {
        row_count.entry(&row.code).or_default().push(row);
    }

    let mut reported: HashSet<&str> = HashSet::new();
    for (file, line, code, _) in &live {
        match row_count.get(code.as_str()).map(Vec::as_slice) {
            None | Some([]) => {
                if reported.insert(code) {
                    out.push(Violation {
                        file: file.clone(),
                        line: *line,
                        rule: ERROR_REGISTRY,
                        message: format!(
                            "error code `{code}` is not registered in the \
                             {ERROR_TABLE_PATH} error table"
                        ),
                    });
                }
            }
            Some([row]) => {
                if row.exit.is_none() && reported.insert(code) {
                    out.push(Violation {
                        file: readme.path.clone(),
                        line: row.line,
                        rule: ERROR_REGISTRY,
                        message: format!(
                            "registry row for `{code}` has no stable numeric exit code"
                        ),
                    });
                }
            }
            Some(dups) => {
                if reported.insert(code) {
                    out.push(Violation {
                        file: readme.path.clone(),
                        line: dups[1].line,
                        rule: ERROR_REGISTRY,
                        message: format!(
                            "error code `{code}` registered {} times (must be exactly once)",
                            dups.len()
                        ),
                    });
                }
            }
        }
    }

    // Stale rows: registered codes no longer used anywhere in source.
    let used: HashSet<&str> = cross
        .error_codes
        .iter()
        .map(|(_, _, code, _)| code.as_str())
        .collect();
    let mut seen_rows: HashSet<&str> = HashSet::new();
    for row in &rows {
        if seen_rows.insert(&row.code) && !used.contains(row.code.as_str()) {
            out.push(Violation {
                file: readme.path.clone(),
                line: row.line,
                rule: ERROR_REGISTRY,
                message: format!(
                    "registered error code `{}` does not appear anywhere in source (stale row)",
                    row.code
                ),
            });
        }
    }
}

fn finalize_format_parse(out: &mut Vec<Violation>, cross: &CrossFile) {
    for (file, line, name, waived) in &cross.format_fns {
        if *waived {
            continue;
        }
        let suffix = name.trim_start_matches("format_");
        let inverse = format!("parse_{suffix}");
        if !cross.parse_fns.contains(&inverse) {
            out.push(Violation {
                file: file.clone(),
                line: *line,
                rule: FORMAT_PARSE,
                message: format!(
                    "public `{name}` has no `{inverse}` inverse in the codec module set"
                ),
            });
        }
    }
}

/// Lint an explicit set of files. Paths are workspace-relative and
/// decide rule scope; `.md` files participate only as the error-code
/// registry. This is the seam the fixture tests drive.
pub fn lint_files(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut cross = CrossFile::default();
    let readme = files
        .iter()
        .find(|f| f.path == ERROR_TABLE_PATH || f.path.ends_with("net/README.md"));

    for f in files {
        if !f.path.ends_with(".rs") {
            continue;
        }
        let lexed = lex(&f.text);
        let ctx = FileCtx {
            path: &f.path,
            lexed: &lexed,
            test_ranges: test_line_ranges(&lexed.tokens),
            test_file: is_test_path(&f.path),
            waivers: parse_waivers(&lexed.comments),
        };
        rule_no_wall_clock(&mut out, &ctx);
        rule_no_panic(&mut out, &ctx);
        rule_no_spawn(&mut out, &ctx);
        rule_unsafe_safety(&mut out, &ctx);
        collect_cross_file(&mut cross, &ctx);
    }

    finalize_error_registry(&mut out, &cross, readme);
    finalize_format_parse(&mut out, &cross);

    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out
}

/// Directories never linted: build output, VCS metadata, the vendored
/// third-party API shims (not first-party architecture), and the
/// linter's own deliberately-bad fixture corpus.
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    "artifacts",
    "crates/shims",
    "crates/lint/tests/fixtures",
];

/// Walk the workspace rooted at `root` and lint every `.rs` file plus
/// the fv-net README (the error-code registry).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = rel_path(root, &path);
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&rel.as_str()) && !rel.starts_with('.') {
                    stack.push(path);
                }
                continue;
            }
            if rel.ends_with(".rs") || rel == ERROR_TABLE_PATH {
                let bytes = std::fs::read(&path)?;
                files.push(SourceFile {
                    path: rel,
                    text: String::from_utf8_lossy(&bytes).into_owned(),
                });
            }
        }
    }
    Ok(lint_files(&files))
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}

/// Ascend from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// `file:line: rule: message`, one per line. Empty string when clean.
pub fn render_text(violations: &[Violation]) -> String {
    let mut s = String::new();
    for v in violations {
        s.push_str(&v.to_string());
        s.push('\n');
    }
    s
}

/// Stable machine-readable form: `{"version":1,"violations":[...]}`.
pub fn render_json(violations: &[Violation]) -> String {
    let mut s = String::from("{\"version\":1,\"violations\":[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
            json_str(&v.file),
            v.line,
            json_str(v.rule),
            json_str(&v.message)
        ));
    }
    s.push_str("]}");
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(path: &str, text: &str) -> Vec<SourceFile> {
        vec![SourceFile {
            path: path.to_string(),
            text: text.to_string(),
        }]
    }

    #[test]
    fn cfg_test_regions_are_excluded_from_server_path_rules() {
        let src = "pub fn ok() -> u32 { 1 }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { Some(1).unwrap(); }\n\
                   }\n";
        let v = lint_files(&one("crates/net/src/frame.rs", src));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_in_string_or_comment_is_not_a_violation() {
        let src = "// .unwrap() in a comment\n\
                   pub fn f() -> &'static str { \".unwrap()\" }\n";
        let v = lint_files(&one("crates/net/src/frame.rs", src));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }\n";
        let v = lint_files(&one("crates/net/src/frame.rs", src));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn waiver_without_reason_does_not_waive() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n\
                   // fv-lint: allow(no-panic-in-server-paths)\n\
                   x.unwrap()\n\
                   }\n";
        let v = lint_files(&one("crates/net/src/frame.rs", src));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, NO_PANIC);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn safety_comment_satisfies_unsafe_rule() {
        let src = "pub fn f(p: *const u8) -> u8 {\n\
                   // SAFETY: caller guarantees p is valid.\n\
                   unsafe { *p }\n\
                   }\n";
        let v = lint_files(&one("crates/core/src/x.rs", src));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn error_table_round_trip() {
        let rows = parse_error_table(
            "| code | meaning | CLI exit |\n\
             | --- | --- | --- |\n\
             | `E_IO` | io failure | 66 |\n\
             | `E_BUSY` | backpressure | |\n",
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].code, "E_IO");
        assert_eq!(rows[0].exit, Some(66));
        assert_eq!(rows[1].exit, None);
    }

    #[test]
    fn json_rendering_escapes_and_is_stable() {
        let v = vec![Violation {
            file: "a.rs".into(),
            line: 3,
            rule: NO_PANIC,
            message: "say \"no\"".into(),
        }];
        assert_eq!(
            render_json(&v),
            "{\"version\":1,\"violations\":[{\"file\":\"a.rs\",\"line\":3,\
             \"rule\":\"no-panic-in-server-paths\",\"message\":\"say \\\"no\\\"\"}]}"
        );
        assert_eq!(render_json(&[]), "{\"version\":1,\"violations\":[]}");
    }
}
