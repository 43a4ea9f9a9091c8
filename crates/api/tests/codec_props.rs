//! Wire-codec round-trip property tests: `parse(format(req)) == req` for
//! every [`Request`] variant, through both the single-request parser and
//! the script parser; `parse_wire_line(format_wire_item(x)) == Some(x)`
//! for every [`WireItem`] variant, control lines included — and the
//! response side's
//! `format_response(parse_response(t)) == t` for every `t` that
//! `format_response` can produce (multi-line bodies, empty damage-rect
//! lists, and free-text fields included), with names and paths that hold
//! inner spaces read back whole. The generators cover the documented
//! lexical domain (tokens without whitespace/commas, free text and paths
//! without leading/trailing whitespace) — the codec's losslessness
//! contract.

use forestview::command::Command;
use fv_api::codec::{
    format_request, format_response, format_script_item, format_wire_item, parse_request,
    parse_script, parse_script_item, parse_wire_item, parse_wire_line, BalanceMode, ScriptItem,
    WireItem,
};
use fv_api::response::{
    DamageRect, DatasetRow, EnrichmentRow, SessionInfoData, SpellDatasetRow, SpellGeneRow,
};
use fv_api::{
    parse_response, Mutation, NormalizeMethod, Query, Request, Response, SelectionExport,
};
use fv_cluster::distance::Metric;
use fv_cluster::linkage::Linkage;
use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;

/// A wire-safe token: no whitespace, no commas, not `-` (the empty-list
/// sentinel), not `all` (the all-datasets sentinel).
fn arb_token() -> impl Strategy<Value = String> {
    FnStrategy::new(|rng: &mut TestRng| {
        const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.";
        let len = 1 + rng.below(11) as usize;
        let s: String = (0..len)
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize] as char)
            .collect();
        if s == "-" || s == "all" {
            "tok".to_string()
        } else {
            s
        }
    })
}

/// A path-ish token (may contain `/`).
fn arb_path() -> impl Strategy<Value = String> {
    FnStrategy::new(|rng: &mut TestRng| {
        const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_./";
        let len = 1 + rng.below(19) as usize;
        let s: String = (0..len).map(|_| rng_char(rng, CHARS)).collect();
        // keep it a clean token: no leading '-' (sentinel confusion)
        format!("p{s}")
    })
}

/// A path that may hold inner spaces (never outer ones), as `render`,
/// `export_cdt` and `export_pcl` accept it and answer with it.
fn arb_spaced_path() -> impl Strategy<Value = String> {
    FnStrategy::new(|rng: &mut TestRng| {
        let words = 1 + rng.below(3) as usize;
        (0..words)
            .map(|_| arb_path().generate(rng))
            .collect::<Vec<_>>()
            .join(" ")
    })
}

fn rng_char(rng: &mut TestRng, chars: &[u8]) -> char {
    chars[rng.below(chars.len() as u64) as usize] as char
}

/// Free text: space-separated tokens, no leading/trailing whitespace
/// (the codec's documented constraint for trailing-text fields).
fn arb_text() -> impl Strategy<Value = String> {
    FnStrategy::new(|rng: &mut TestRng| {
        let words = 1 + rng.below(4) as usize;
        (0..words)
            .map(|_| {
                const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
                let len = 1 + rng.below(7) as usize;
                (0..len).map(|_| rng_char(rng, CHARS)).collect::<String>()
            })
            .collect::<Vec<_>>()
            .join(" ")
    })
}

fn arb_gene_list() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_token(), 0..5)
}

/// Finite, sign-varied floats; `{:?}` round-trips any finite float, so
/// the exact distribution only needs to exercise breadth.
fn arb_f32() -> impl Strategy<Value = f32> {
    FnStrategy::new(|rng: &mut TestRng| {
        let v = (rng.unit_f64() as f32 - 0.5) * 2000.0;
        // include exact-integer and tiny values on some draws
        match rng.below(4) {
            0 => v.round(),
            1 => v / 1.0e4,
            _ => v,
        }
    })
}

fn arb_linkage() -> impl Strategy<Value = Linkage> {
    prop_oneof![
        Just(Linkage::Single),
        Just(Linkage::Complete),
        Just(Linkage::Average),
        Just(Linkage::Ward),
    ]
}

fn arb_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![
        Just(Metric::Pearson),
        Just(Metric::AbsPearson),
        Just(Metric::Uncentered),
        Just(Metric::Spearman),
        Just(Metric::Euclidean),
    ]
}

fn arb_normalize_method() -> impl Strategy<Value = NormalizeMethod> {
    prop_oneof![
        Just(NormalizeMethod::Log2),
        Just(NormalizeMethod::CenterRows),
        Just(NormalizeMethod::MedianCenterRows),
        Just(NormalizeMethod::ZscoreRows),
    ]
}

fn arb_selection_export() -> impl Strategy<Value = SelectionExport> {
    prop_oneof![
        Just(SelectionExport::GeneList),
        Just(SelectionExport::Merged),
        Just(SelectionExport::Coverage),
    ]
}

prop_compose! {
    fn arb_target()(d in 0usize..10, all in any::<bool>()) -> Option<usize> {
        if all { None } else { Some(d) }
    }
}

/// Every Request variant, with generated payloads.
fn arb_request() -> impl Strategy<Value = Request> {
    let cmd: Vec<Box<dyn Strategy<Value = Request>>> = vec![
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Command::SelectRegion {
                dataset: rng.below(8) as usize,
                start_frac: (rng.unit_f64() as f32).clamp(0.0, 1.0),
                end_frac: (rng.unit_f64() as f32).clamp(0.0, 1.0),
            })
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            let genes = arb_gene_list().generate(rng);
            Request::from(Command::SelectGenes(genes))
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Command::Search(arb_text().generate(rng)))
        })),
        Box::new(Just(Request::from(Command::ClearSelection))),
        Box::new(Just(Request::from(Command::ToggleSync))),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Command::Scroll(rng.next_u64() as i64 % 10_000))
        })),
        Box::new(Just(Request::from(Command::OrderByName))),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            let n = rng.below(5) as usize;
            let scores: Vec<f32> = (0..n).map(|_| arb_f32().generate(rng)).collect();
            Request::from(Command::OrderByRelevance(scores))
        })),
        Box::new(Just(Request::from(Command::ClusterAll))),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Command::SetContrast {
                dataset: arb_target().generate(rng),
                contrast: arb_f32().generate(rng),
            })
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Command::SetLinkage(arb_linkage().generate(rng)))
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Command::SetMetric(arb_metric().generate(rng)))
        })),
    ];
    let mutations: Vec<Box<dyn Strategy<Value = Request>>> = vec![
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Mutation::LoadDataset {
                path: arb_path().generate(rng),
            })
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Mutation::LoadScenario {
                n_genes: 1 + rng.below(5000) as usize,
                seed: rng.next_u64(),
            })
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Mutation::LoadCompendium {
                n_genes: 1 + rng.below(5000) as usize,
                n_datasets: 1 + rng.below(100) as usize,
                seed: rng.next_u64(),
            })
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Mutation::BuildOntology {
                n_filler: rng.below(2000) as usize,
                seed: rng.next_u64(),
            })
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Mutation::Impute {
                dataset: rng.below(8) as usize,
                k: 1 + rng.below(30) as usize,
            })
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Mutation::Normalize {
                dataset: arb_target().generate(rng),
                method: arb_normalize_method().generate(rng),
            })
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Mutation::ClusterArrays {
                dataset: rng.below(8) as usize,
            })
        })),
    ];
    let queries: Vec<Box<dyn Strategy<Value = Request>>> = vec![
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Query::Search {
                query: arb_text().generate(rng),
            })
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            let mut genes = arb_gene_list().generate(rng);
            if genes.is_empty() {
                genes.push("YAL001C".into());
            }
            Request::from(Query::Spell {
                genes,
                top_n: rng.below(200) as usize,
            })
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            let genes = if rng.below(2) == 0 {
                None
            } else {
                let mut g = arb_gene_list().generate(rng);
                if g.is_empty() {
                    g.push("YBR002W".into());
                }
                Some(g)
            };
            Request::from(Query::Enrich {
                genes,
                max_terms: rng.below(50) as usize,
            })
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            let path = if rng.below(2) == 0 {
                None
            } else {
                Some(arb_path().generate(rng))
            };
            Request::from(Query::Render {
                width: 1 + rng.below(4000) as usize,
                height: 1 + rng.below(4000) as usize,
                path,
            })
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            let prefix = if rng.below(2) == 0 {
                None
            } else {
                Some(arb_path().generate(rng))
            };
            Request::from(Query::ExportCdt {
                dataset: rng.below(8) as usize,
                prefix,
            })
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Query::ExportPcl {
                dataset: rng.below(8) as usize,
                path: arb_path().generate(rng),
            })
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Request::from(Query::ExportSelection {
                what: arb_selection_export().generate(rng),
            })
        })),
        Box::new(Just(Request::from(Query::SessionInfo))),
        Box::new(Just(Request::from(Query::ListDatasets))),
    ];
    let mut all = cmd;
    all.extend(mutations);
    all.extend(queries);
    proptest::strategy::OneOf::new(all)
}

/// Every [`WireItem`] variant: each control line, and every script item
/// (directives and requests) as the wire carries it.
fn arb_wire_item() -> impl Strategy<Value = WireItem> {
    FnStrategy::new(|rng: &mut TestRng| {
        let session = arb_token().generate(rng);
        let mode = [BalanceMode::Auto, BalanceMode::Off][rng.below(2) as usize];
        match rng.below(13) {
            0 => WireItem::Ping,
            1 => WireItem::Shutdown,
            2 => WireItem::Close,
            3 => WireItem::Stats,
            4 => WireItem::ListSessions,
            5 => WireItem::Migrate {
                session,
                shard: rng.below(64) as usize,
            },
            6 => WireItem::Balance { set: None },
            7 => WireItem::Balance { set: Some(mode) },
            8 => WireItem::Subscribe {
                session,
                tiles: (1 + rng.below(16) as usize, 1 + rng.below(16) as usize),
            },
            9 => WireItem::Unsubscribe,
            10 => WireItem::Ack {
                seq: rng.next_u64(),
            },
            11 => WireItem::Script(if rng.below(2) == 0 {
                ScriptItem::Use(session)
            } else {
                ScriptItem::Close(session)
            }),
            _ => WireItem::Script(ScriptItem::Request(arb_request().generate(rng))),
        }
    })
}

/// Multi-line free text for `Response::Text` bodies and session
/// summaries: word lines, blank lines, and adversarial lines that mimic
/// frame headers (`err …`, `ok …`) — all of which the continuation
/// indent plus advertised byte length must carry losslessly.
fn arb_multiline(rng: &mut TestRng) -> String {
    let n_lines = rng.below(5) as usize;
    let mut text = String::new();
    for _ in 0..n_lines {
        match rng.below(5) {
            0 => {} // blank line
            1 => text.push_str("err E_FAKE looks like an error frame"),
            2 => text.push_str("ok 3 looks like a success frame"),
            _ => {
                let words = 1 + rng.below(4) as usize;
                for w in 0..words {
                    if w > 0 {
                        text.push(' ');
                    }
                    text.push_str(arb_token().generate(rng).as_str());
                }
            }
        }
        text.push('\n');
    }
    if !text.is_empty() && rng.below(3) == 0 {
        text.pop(); // sometimes no trailing newline
    }
    text
}

fn arb_rects(rng: &mut TestRng) -> Vec<DamageRect> {
    // 0 rects on a third of draws: the empty-damage-list case.
    let n = rng.below(3) as usize * rng.below(2) as usize + rng.below(2) as usize;
    (0..n)
        .map(|_| DamageRect {
            x: rng.below(4000) as usize,
            y: rng.below(4000) as usize,
            w: rng.below(2000) as usize,
            h: rng.below(2000) as usize,
        })
        .collect()
}

fn arb_opt_len(rng: &mut TestRng) -> Option<usize> {
    if rng.below(3) == 0 {
        None
    } else {
        Some(rng.below(10_000) as usize)
    }
}

/// Every Response variant, with generated payloads.
fn arb_response() -> impl Strategy<Value = Response> {
    let variants: Vec<Box<dyn Strategy<Value = Response>>> = vec![
        Box::new(FnStrategy::new(|rng: &mut TestRng| Response::Applied {
            selection_len: arb_opt_len(rng),
            damage: arb_rects(rng),
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| Response::Loaded {
            dataset: rng.below(16) as usize,
            name: arb_text().generate(rng),
            genes: rng.below(10_000) as usize,
            conditions: rng.below(500) as usize,
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Response::ScenarioLoaded {
                names: arb_gene_list().generate(rng),
                n_genes: rng.below(10_000) as usize,
            }
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Response::OntologyReady {
                terms: rng.below(5000) as usize,
            }
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| Response::Imputed {
            filled: rng.below(100_000) as usize,
            missing_before: rng.below(100_000) as usize,
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| Response::Normalized {
            datasets: rng.below(32) as usize,
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            Response::ArraysClustered {
                dataset: rng.below(16) as usize,
            }
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| Response::SearchHits {
            genes: arb_gene_list().generate(rng),
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            let n_ds = rng.below(4) as usize;
            let n_genes = rng.below(4) as usize;
            Response::SpellRanking {
                datasets: (0..n_ds)
                    .map(|_| SpellDatasetRow {
                        name: arb_text().generate(rng),
                        weight: arb_f32().generate(rng),
                        query_genes_present: rng.below(20) as usize,
                    })
                    .collect(),
                genes: (0..n_genes)
                    .map(|_| SpellGeneRow {
                        gene: arb_token().generate(rng),
                        score: arb_f32().generate(rng),
                        n_datasets: rng.below(32) as usize,
                    })
                    .collect(),
                query_missing: arb_gene_list().generate(rng),
            }
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            let n = rng.below(4) as usize;
            Response::Enrichment {
                rows: (0..n)
                    .map(|_| EnrichmentRow {
                        accession: format!("GO:{:07}", rng.below(10_000_000)),
                        name: arb_text().generate(rng),
                        p_value: rng.unit_f64() / 1.0e6,
                        q_value: rng.unit_f64() / 1.0e3,
                        overlap: rng.below(50) as usize,
                        annotated: rng.below(500) as usize,
                    })
                    .collect(),
            }
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| Response::Frame {
            width: 1 + rng.below(4000) as usize,
            height: 1 + rng.below(4000) as usize,
            panes: rng.below(16) as usize,
            checksum: rng.next_u64(),
            path: if rng.below(2) == 0 {
                None
            } else {
                Some(arb_spaced_path().generate(rng))
            },
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| Response::CdtExported {
            dataset: rng.below(16) as usize,
            files: (0..rng.below(4) as usize)
                .map(|_| arb_spaced_path().generate(rng))
                .collect(),
            cdt_bytes: rng.below(1 << 20) as usize,
            has_gtr: rng.below(2) == 0,
            has_atr: rng.below(2) == 0,
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| Response::PclExported {
            dataset: rng.below(16) as usize,
            path: arb_spaced_path().generate(rng),
            genes: rng.below(10_000) as usize,
            conditions: rng.below(500) as usize,
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| Response::Text {
            text: arb_multiline(rng),
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            let n = rng.below(6) as usize;
            Response::SessionInfo(SessionInfoData {
                n_datasets: n,
                universe_genes: rng.below(10_000) as usize,
                total_measurements: rng.below(1_000_000) as usize,
                selection_len: arb_opt_len(rng),
                sync_enabled: rng.below(2) == 0,
                scroll: rng.below(1000) as usize,
                dataset_order: (0..n).map(|_| rng.below(16) as usize).collect(),
                summary: arb_multiline(rng),
            })
        })),
        Box::new(FnStrategy::new(|rng: &mut TestRng| {
            let n = rng.below(4) as usize;
            Response::Datasets {
                rows: (0..n)
                    .map(|d| DatasetRow {
                        dataset: d,
                        name: arb_text().generate(rng),
                        genes: rng.below(10_000) as usize,
                        conditions: rng.below(500) as usize,
                        gene_clustered: rng.below(2) == 0,
                        array_clustered: rng.below(2) == 0,
                    })
                    .collect(),
            }
        })),
    ];
    proptest::strategy::OneOf::new(variants)
}

/// Whether the variant's canonical text carries every bit of the value
/// (no display-precision floats), so typed equality must hold too.
fn is_float_free(r: &Response) -> bool {
    !matches!(
        r,
        Response::SpellRanking { .. } | Response::Enrichment { .. }
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn format_then_parse_is_identity(req in arb_request(), name in arb_token()) {
        let line = format_request(&req);
        let parsed = parse_request(&line);
        prop_assert!(parsed.is_ok(), "format produced unparseable {line:?}: {parsed:?}");
        prop_assert_eq!(parsed.unwrap(), req.clone(), "line was {}", line);
        // canonical form is a fixed point
        let parsed_again = parse_request(&line).unwrap();
        prop_assert_eq!(format_request(&parsed_again), line);
        // a script item is a request or a session directive
        let directives = [ScriptItem::Use(name.clone()), ScriptItem::Close(name)];
        for item in directives.into_iter().chain([ScriptItem::Request(req)]) {
            let line = format_script_item(&item);
            prop_assert_eq!(parse_script_item(&line).unwrap(), item, "line was {}", line);
        }
    }

    #[test]
    fn every_wire_item_roundtrips(item in arb_wire_item()) {
        let line = format_wire_item(&item);
        prop_assert_eq!(parse_wire_item(&line).unwrap(), item.clone(), "line was {}", line);
        prop_assert_eq!(parse_wire_line(&line).unwrap(), Some(item));
    }

    #[test]
    fn script_parser_agrees_with_request_parser(reqs in prop::collection::vec(arb_request(), 1..10)) {
        let text: String = reqs
            .iter()
            .map(|r| format!("{}\n", format_request(r)))
            .collect();
        let lines = parse_script(&text).unwrap();
        prop_assert_eq!(lines.len(), reqs.len());
        for (line, req) in lines.iter().zip(&reqs) {
            match &line.item {
                ScriptItem::Request(parsed) => prop_assert_eq!(parsed, req),
                other => prop_assert!(false, "unexpected item {other:?}"),
            }
        }
    }

    #[test]
    fn scripts_survive_comments_and_whitespace(reqs in prop::collection::vec(arb_request(), 1..6)) {
        let mut text = String::from("# header comment\n\n");
        for r in &reqs {
            text.push_str(&format!("  {}  \n# trailing note\n\n", format_request(r)));
        }
        let lines = parse_script(&text).unwrap();
        prop_assert_eq!(lines.len(), reqs.len());
    }

    #[test]
    fn response_format_then_parse_is_identity(resp in arb_response()) {
        // Canonical-text identity holds for EVERY response the formatter
        // can produce — multi-line bodies, empty damage-rect lists,
        // frame-header-lookalike text lines, the lot. (Floats round-trip
        // at display precision, hence text-level identity; float-free
        // variants must also be typed-equal.)
        let text = format_response(&resp);
        let parsed = parse_response(&text);
        prop_assert!(parsed.is_ok(), "format produced undecodable {text:?}: {parsed:?}");
        let parsed = parsed.unwrap();
        prop_assert_eq!(
            format_response(&parsed),
            text.clone(),
            "decode must preserve the canonical text"
        );
        if is_float_free(&resp) {
            prop_assert_eq!(parsed, resp, "lossless variant drifted; text was {}", text);
        }
    }
}
