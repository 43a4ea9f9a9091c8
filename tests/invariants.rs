//! The workspace invariants no clippy lint can state, read from the
//! source text: the error-code registry in `crates/net/README.md` agrees
//! with `fv_api::ErrorCode` and with every `"E_…"` literal in the source,
//! the verb tables of `crates/api/README.md` list exactly the keywords of
//! the codec's line tables, every public `format_x` of the codec set has
//! a `parse_x` inverse and a test that names both, and the `unsafe`
//! declarations clippy does not see carry a `// SAFETY:` comment. (The others — no wall clock, no
//! panic in fv-net, threads only in the shard modules, `// SAFETY:` on
//! every `unsafe` block and impl — are clippy lints; see `clippy.toml`.)

use fv_api::ErrorCode;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The wire codec and its satellite text formats. A `parse_x` anywhere in
/// the set answers a `format_x` anywhere in it.
const CODEC_SET: &[&str] = &[
    "crates/api/src/codec.rs",
    "crates/api/src/trace.rs",
    "crates/api/src/image.rs",
    "crates/net/src/metrics.rs",
    "crates/net/src/balance.rs",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `.rs` file under the root's `dirs`, at any depth, as a path
/// relative to the root.
fn rs_files(dirs: &[&str]) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = dirs.iter().map(PathBuf::from).collect();
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(root().join(&dir))
            .into_iter()
            .flatten()
            .flatten()
        {
            let path = dir.join(entry.file_name());
            if entry.path().is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    files
}

/// Every `"E_…"` string literal in non-test source: the files outside
/// `tests/` and `benches/` directories, each read up to its
/// `#[cfg(test)] mod`.
fn source_error_codes() -> Vec<(PathBuf, String)> {
    let mut found = Vec::new();
    for path in rs_files(&["crates", "src"]) {
        if path.iter().any(|part| part == "tests" || part == "benches") {
            continue;
        }
        let text = read(&root().join(&path));
        let text = text
            .split("\n#[cfg(test)]\nmod ")
            .next()
            .unwrap_or_default();
        for (at, _) in text.match_indices("\"E_") {
            let code = &text[at + 1..];
            let end = code
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(code.len());
            if code[end..].starts_with('"') {
                found.push((path.clone(), code[..end].to_string()));
            }
        }
    }
    found
}

#[test]
fn every_error_code_has_one_registry_row_with_its_exit_code() {
    let readme = read(&root().join("crates/net/README.md"));
    // `(code, exit)` for every table row whose first cell is a
    // backticked `E_*` code; the CLI exit code is the last cell.
    let rows: Vec<(&str, &str)> = readme
        .lines()
        .filter_map(|line| {
            let row = line.strip_prefix('|')?.strip_suffix('|')?;
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let code = cells[0].strip_prefix('`')?.strip_suffix('`')?;
            code.starts_with("E_")
                .then_some((code, cells[cells.len() - 1]))
        })
        .collect();
    for code in ErrorCode::ALL {
        let exits: Vec<&str> = rows
            .iter()
            .filter(|(name, _)| *name == code.as_str())
            .map(|&(_, exit)| exit)
            .collect();
        assert_eq!(
            exits,
            [code.exit_code().to_string()],
            "{} needs exactly one row in crates/net/README.md, giving its exit code",
            code.as_str()
        );
    }
    for (name, _) in &rows {
        assert!(
            ErrorCode::from_wire(name).is_some(),
            "crates/net/README.md registers {name}, which is no ErrorCode"
        );
    }
    // `ErrorCode::as_str` spells each code as such a literal, so a code
    // left out of `ALL` (and so out of the table check above) fails here.
    let literals = source_error_codes();
    assert!(!literals.is_empty(), "no \"E_…\" literal in the source");
    for (path, code) in literals {
        assert!(
            ErrorCode::from_wire(&code).is_some(),
            "{} names {code}, which is not in ErrorCode::ALL",
            path.display()
        );
    }
}

/// The keywords of the `line_table!` in `crates/api/src/codec.rs` that
/// declares the lines of type `ty`: each row opens with its quoted
/// keyword.
fn line_table_keywords(ty: &str) -> BTreeSet<String> {
    let codec = read(&root().join("crates/api/src/codec.rs"));
    let header = format!(" for {ty}, exact:");
    let table = codec
        .split("\nline_table! {\n")
        .skip(1)
        .find(|table| table.lines().next().is_some_and(|l| l.contains(&header)))
        .unwrap_or_else(|| panic!("no line_table! for {ty} in codec.rs"));
    let rows = table.split("\n}\n").next().unwrap_or_default().lines();
    let keyword = |row: &str| Some(row.trim().strip_prefix('"')?.split('"').next()?.to_string());
    rows.filter_map(keyword).collect()
}

/// The verbs of the table under `heading` in `readme`: the first word
/// of every backticked span in each row's first cell that starts with a
/// letter (`` `order_by_name` / `order_by_relevance <f1,f2,…>` `` names
/// two).
fn readme_verbs(readme: &str, heading: &str) -> BTreeSet<String> {
    let (_, section) = readme
        .split_once(&format!("\n### {heading}"))
        .unwrap_or_else(|| panic!("crates/api/README.md has no {heading} section"));
    let section = section.split("\n#").next().unwrap_or_default();
    let mut verbs = BTreeSet::new();
    for row in section.lines().filter(|l| l.starts_with('|')) {
        let row = row.replace("\\|", "");
        let cell = row.split('|').nth(1).unwrap_or_default();
        for span in cell.split('`').skip(1).step_by(2) {
            let verb = span.split_whitespace().next().unwrap_or_default();
            if verb.starts_with(|c: char| c.is_ascii_lowercase()) {
                verbs.insert(verb.to_string());
            }
        }
    }
    verbs
}

#[test]
fn the_readme_verb_tables_are_the_line_tables() {
    let readme = read(&root().join("crates/api/README.md"));
    assert_eq!(
        readme_verbs(&readme, "Mutations"),
        line_table_keywords("Mutation"),
        "crates/api/README.md's Mutations table against the mutation table"
    );
    assert_eq!(
        readme_verbs(&readme, "Queries"),
        line_table_keywords("Request"),
        "crates/api/README.md's Queries table against the query table"
    );
    assert_eq!(
        readme_verbs(&readme, "Control lines"),
        line_table_keywords("WireItem"),
        "crates/api/README.md's Control lines table against the control-line table"
    );
    assert_eq!(
        readme_verbs(&readme, "Acks"),
        ack_table_keywords(),
        "crates/api/README.md's Acks table against the ControlReply table"
    );
}

/// The keywords of the `ControlReply` table in `crates/api/src/codec.rs`:
/// each row is `Variant = "keyword" {`.
fn ack_table_keywords() -> BTreeSet<String> {
    let codec = read(&root().join("crates/api/src/codec.rs"));
    let (_, table) = codec
        .split_once("pub enum ControlReply {")
        .expect("a ControlReply table in codec.rs");
    let rows = table.split("\n}\n").next().unwrap_or_default().lines();
    let keyword = |row: &str| Some(row.split_once(" = \"")?.1.split('"').next()?.to_string());
    rows.filter_map(keyword).collect()
}

/// Clippy's `undocumented_unsafe_blocks` sees `unsafe` blocks and impls;
/// an `unsafe extern` block, `unsafe fn` or `unsafe trait` needs its
/// `// SAFETY:` comment on the line or within the three lines above it.
#[test]
fn every_unsafe_declaration_has_a_safety_comment() {
    let declarations = ["extern", "fn", "trait"].map(|item| format!("unsafe {item}"));
    let mut seen = 0;
    for path in rs_files(&["crates", "src", "tests", "examples"]) {
        let text = read(&root().join(&path));
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let code = line.split("//").next().unwrap_or_default();
            if !declarations.iter().any(|d| code.contains(d.as_str())) {
                continue;
            }
            seen += 1;
            assert!(
                lines[i.saturating_sub(3)..=i]
                    .iter()
                    .any(|l| l.contains("// SAFETY:")),
                "{}:{} declares `unsafe` without a `// SAFETY:` comment",
                path.display(),
                i + 1
            );
        }
    }
    // poll.rs declares poll(2) in an `unsafe extern` block.
    assert!(
        seen > 0,
        "no unsafe declaration found; is the scan reading the tree?"
    );
}

/// The identifier at each `prefix` in `text`, read from the prefix's
/// last word on: `fn parse_` finds `parse_trace`.
fn fns_after<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
    let skip = prefix.rfind(' ').map_or(0, |i| i + 1);
    text.match_indices(prefix)
        .map(|(at, _)| {
            let name = &text[at + skip..];
            let end = name
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(name.len());
            &name[..end]
        })
        .collect()
}

/// Whether `text` holds `ident` as a whole identifier.
fn names(text: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(ident).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + ident.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

#[test]
fn every_public_format_has_a_parse_inverse_and_a_test_naming_both() {
    let codecs: Vec<String> = CODEC_SET.iter().map(|p| read(&root().join(p))).collect();
    let formats: Vec<&str> = codecs
        .iter()
        .flat_map(|text| fns_after(text, "pub fn format_"))
        .collect();
    let parses: Vec<&str> = codecs
        .iter()
        .flat_map(|text| fns_after(text, "fn parse_"))
        .collect();
    assert!(!formats.is_empty(), "no pub fn format_ in the codec set");

    // The test files: every `.rs` file in `tests/` and `crates/*/tests/`.
    let tests: Vec<String> = rs_files(&["tests", "crates"])
        .into_iter()
        .filter(|path| path.iter().any(|part| part == "tests"))
        .map(|path| read(&root().join(path)))
        .collect();

    for format in formats {
        let parse = format.replacen("format_", "parse_", 1);
        assert!(
            parses.contains(&parse.as_str()),
            "pub fn {format} has no fn {parse} in the codec set"
        );
        assert!(
            tests.iter().any(|t| names(t, format) && names(t, &parse)),
            "no test file names both {format} and {parse}"
        );
    }
}
