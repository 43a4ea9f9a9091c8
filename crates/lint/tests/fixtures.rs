//! The fixture corpus: for every rule, one known-bad snippet that must
//! be flagged at its exact line, and one waived snippet that must pass.
//! Fixtures live under `tests/fixtures/` (excluded from the workspace
//! walk) and are linted under *virtual* workspace paths, since path
//! decides rule scope.

use fv_lint::{lint_files, SourceFile, Violation};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lint one fixture under a virtual path, optionally alongside a
/// fixture registry standing in for the fv-net README.
fn lint_fixture(name: &str, virtual_path: &str, registry: Option<&str>) -> Vec<Violation> {
    let mut files = vec![SourceFile {
        path: virtual_path.to_string(),
        text: fixture(name),
    }];
    if let Some(md) = registry {
        files.push(SourceFile {
            path: "crates/net/README.md".to_string(),
            text: fixture(md),
        });
    }
    lint_files(&files)
}

/// (bad fixture, virtual path, expected rule, expected 1-based line,
/// registry fixture). Each must produce exactly one violation, at
/// exactly that line.
const BAD: &[(&str, &str, &str, usize, Option<&str>)] = &[
    (
        "no_wall_clock_bad.rs",
        "crates/net/tests/balance_sim.rs",
        fv_lint::NO_WALL_CLOCK,
        2,
        None,
    ),
    (
        "no_panic_bad.rs",
        "crates/net/src/frame.rs",
        fv_lint::NO_PANIC,
        2,
        None,
    ),
    // The protocol core is a server path AND a clock-free scope: moving
    // the handlers out of server.rs must not move them out of either.
    (
        "core_panic_bad.rs",
        "crates/net/src/protocol.rs",
        fv_lint::NO_PANIC,
        3,
        None,
    ),
    (
        "core_clock_bad.rs",
        "crates/net/src/protocol.rs",
        fv_lint::NO_WALL_CLOCK,
        3,
        None,
    ),
    (
        "no_spawn_bad.rs",
        "crates/net/src/metrics.rs",
        fv_lint::NO_SPAWN,
        2,
        None,
    ),
    (
        "no_proc_spawn_bad.rs",
        "crates/net/src/metrics.rs",
        fv_lint::NO_SPAWN,
        2,
        None,
    ),
    (
        "unsafe_bad.rs",
        "crates/render/src/raster.rs",
        fv_lint::UNSAFE_SAFETY,
        2,
        None,
    ),
    (
        "error_code_bad.rs",
        "crates/net/src/metrics.rs",
        fv_lint::ERROR_REGISTRY,
        2,
        Some("registry_empty.md"),
    ),
    (
        "format_parse_bad.rs",
        "crates/api/src/codec.rs",
        fv_lint::FORMAT_PARSE,
        1,
        None,
    ),
];

/// (waived fixture, virtual path, registry fixture). Each must lint
/// clean: the snippet violates its rule, and the waiver comment with a
/// reason forgives it.
const WAIVED: &[(&str, &str, Option<&str>)] = &[
    (
        "no_wall_clock_waived.rs",
        "crates/net/tests/balance_sim.rs",
        None,
    ),
    ("no_panic_waived.rs", "crates/net/src/frame.rs", None),
    ("no_spawn_waived.rs", "crates/net/src/metrics.rs", None),
    ("no_proc_spawn_waived.rs", "crates/net/src/metrics.rs", None),
    ("unsafe_waived.rs", "crates/render/src/raster.rs", None),
    (
        "error_code_waived.rs",
        "crates/net/src/metrics.rs",
        Some("registry_empty.md"),
    ),
    ("format_parse_waived.rs", "crates/api/src/codec.rs", None),
];

#[test]
fn bad_fixtures_are_flagged_at_the_exact_line() {
    for &(name, path, rule, line, registry) in BAD {
        let v = lint_fixture(name, path, registry);
        assert_eq!(
            v.len(),
            1,
            "{name}: expected exactly one violation, got {v:?}"
        );
        assert_eq!(v[0].rule, rule, "{name}: wrong rule: {v:?}");
        assert_eq!(v[0].line, line, "{name}: wrong line: {v:?}");
        assert_eq!(v[0].file, path, "{name}: wrong file: {v:?}");
        // The rendered diagnostic leads with the file:line: rule: prefix
        // the CLI contract promises.
        let text = fv_lint::render_text(&v);
        assert!(
            text.starts_with(&format!("{path}:{line}: {rule}: ")),
            "{name}: bad rendering {text:?}"
        );
    }
}

#[test]
fn waived_fixtures_pass() {
    for &(name, path, registry) in WAIVED {
        let v = lint_fixture(name, path, registry);
        assert!(v.is_empty(), "{name}: expected clean, got {v:?}");
    }
}

#[test]
fn the_io_shell_may_read_the_clock_the_core_may_not() {
    // The same snippet, under the shell's path: keeping time is
    // server.rs's job, so only protocol.rs puts it in the clock-free
    // scope (flagged above, in `BAD`).
    let v = lint_fixture("core_clock_bad.rs", "crates/net/src/server.rs", None);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn safety_comment_satisfies_the_unsafe_rule_without_a_waiver() {
    let v = lint_fixture(
        "unsafe_safety_comment.rs",
        "crates/render/src/raster.rs",
        None,
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn stale_registry_rows_are_flagged_in_the_readme() {
    // A registered code that no longer appears anywhere in source is a
    // stale row, anchored at the README line so the fix is obvious.
    let v = lint_files(&[
        SourceFile {
            path: "crates/net/src/metrics.rs".to_string(),
            text: "pub fn nothing() {}\n".to_string(),
        },
        SourceFile {
            path: "crates/net/README.md".to_string(),
            text: fixture("registry_stale.md"),
        },
    ]);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, fv_lint::ERROR_REGISTRY);
    assert_eq!(v[0].file, "crates/net/README.md");
    assert_eq!(v[0].line, 5);
    assert!(v[0].message.contains("stale"), "{v:?}");
}

#[test]
fn missing_registry_is_itself_a_violation() {
    let v = lint_fixture("error_code_bad.rs", "crates/net/src/metrics.rs", None);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, fv_lint::ERROR_REGISTRY);
    assert!(v[0].message.contains("not found"), "{v:?}");
}
