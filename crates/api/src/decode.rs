//! The inbound half of the response codec: recover a typed [`Response`]
//! from its [`crate::codec::format_response`] text.
//!
//! Network clients receive response *text* over the wire; this module is
//! what lets them hand typed responses back to callers (so `fvtool
//! --remote` prints byte-identical output through the same formatting
//! code as local execution). The decoder is an exact inverse of the
//! formatter up to the documented display-precision loss:
//! `format_response(parse_response(s)?) == s` for every `s` produced by
//! `format_response` (property-tested), and the recovered floats are the
//! displayed `{:.3}` / `{:.3e}` values rather than the original bits.
//!
//! Lexical assumptions (shared with the formatter): names embedded
//! mid-line (dataset names) must not contain the literal delimiter of the
//! field that follows them (e.g. `" weight="` in a SPELL dataset row);
//! free-text fields at end of line (enrichment term names) may contain
//! anything but newlines.

use crate::codec::{parse_list, SessionEntry, NONE};
use crate::error::ApiError;
use crate::response::{
    DamageRect, DatasetRow, EnrichmentRow, Response, SessionInfoData, SpellDatasetRow, SpellGeneRow,
};

/// Parse a `list-sessions` reply (as produced by
/// [`crate::codec::format_sessions_reply`]) back into its entries.
pub fn parse_sessions_reply(text: &str) -> Result<Vec<SessionEntry>, ApiError> {
    let mut lines = text.lines();
    let head = lines
        .next()
        .ok_or_else(|| ApiError::parse("empty sessions reply"))?;
    let tail = head
        .strip_prefix("sessions ")
        .ok_or_else(|| ApiError::parse(format!("not a sessions reply: {head:?}")))?;
    let n: usize = num(field(tail, "n")?, "n")?;
    let cont: Vec<&str> = lines.collect();
    let cont = de_indent(&cont)?;
    // Here and in the decoders below the header count only checks the
    // rows found; it is wire input and never sizes a reservation.
    let mut entries = Vec::new();
    for line in &cont {
        let row = line
            .strip_prefix("session ")
            .ok_or_else(|| ApiError::parse(format!("unexpected session row {line:?}")))?;
        let (name, rest) = row
            .split_once(' ')
            .ok_or_else(|| ApiError::parse("session row needs fields"))?;
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

/// Parse canonical response text (as produced by
/// [`crate::codec::format_response`]) back into a typed [`Response`].
pub fn parse_response(text: &str) -> Result<Response, ApiError> {
    let mut lines = text.lines();
    let head = lines
        .next()
        .ok_or_else(|| ApiError::parse("empty response text"))?;
    let rest: Vec<&str> = lines.collect();
    let cont = de_indent(&rest)?;
    let (keyword, tail) = match head.split_once(' ') {
        Some((k, t)) => (k, t),
        None => (head, ""),
    };
    match keyword {
        "applied" => {
            no_continuation(&cont, "applied")?;
            Ok(Response::Applied {
                selection_len: opt_num_of(field(tail, "selection")?)?,
                damage: parse_rects(field(tail, "damage")?)?,
            })
        }
        "loaded" => {
            no_continuation(&cont, "loaded")?;
            let (name, around) = mid_name(tail, "name=", " genes=")?;
            Ok(Response::Loaded {
                dataset: num(field(&around, "dataset")?, "dataset")?,
                name,
                genes: num(field(&around, "genes")?, "genes")?,
                conditions: num(field(&around, "conditions")?, "conditions")?,
            })
        }
        "scenario" => {
            no_continuation(&cont, "scenario")?;
            Ok(Response::ScenarioLoaded {
                names: parse_list(field(tail, "datasets")?)?,
                n_genes: num(field(tail, "genes")?, "genes")?,
            })
        }
        "ontology" => {
            no_continuation(&cont, "ontology")?;
            Ok(Response::OntologyReady {
                terms: num(field(tail, "terms")?, "terms")?,
            })
        }
        "imputed" => {
            no_continuation(&cont, "imputed")?;
            Ok(Response::Imputed {
                filled: num(field(tail, "filled")?, "filled")?,
                missing_before: num(field(tail, "missing")?, "missing")?,
            })
        }
        "normalized" => {
            no_continuation(&cont, "normalized")?;
            Ok(Response::Normalized {
                datasets: num(field(tail, "datasets")?, "datasets")?,
            })
        }
        "arrays_clustered" => {
            no_continuation(&cont, "arrays_clustered")?;
            Ok(Response::ArraysClustered {
                dataset: num(field(tail, "dataset")?, "dataset")?,
            })
        }
        "search" => {
            no_continuation(&cont, "search")?;
            let genes = parse_list(field(tail, "genes")?)?;
            let hits: usize = num(field(tail, "hits")?, "hits")?;
            if hits != genes.len() {
                return Err(ApiError::parse(format!(
                    "search hit count {hits} disagrees with gene list length {}",
                    genes.len()
                )));
            }
            Ok(Response::SearchHits { genes })
        }
        "spell" => parse_spell(tail, &cont),
        "enrich" => parse_enrich(tail, &cont),
        "frame" => {
            no_continuation(&cont, "frame")?;
            let (dims, tail) = tail
                .split_once(' ')
                .ok_or_else(|| ApiError::parse("frame needs <w>x<h>"))?;
            let (w, h) = dims
                .split_once('x')
                .ok_or_else(|| ApiError::parse("frame dimensions are <w>x<h>"))?;
            let checksum = u64::from_str_radix(field(tail, "checksum")?, 16)
                .map_err(|_| ApiError::parse("bad frame checksum"))?;
            Ok(Response::Frame {
                width: num(w, "width")?,
                height: num(h, "height")?,
                panes: num(field(tail, "panes")?, "panes")?,
                checksum,
                path: opt_str_of(field(tail, "path")?),
            })
        }
        "cdt" => {
            no_continuation(&cont, "cdt")?;
            Ok(Response::CdtExported {
                dataset: num(field(tail, "dataset")?, "dataset")?,
                files: parse_list(field(tail, "files")?)?,
                cdt_bytes: num(field(tail, "bytes")?, "bytes")?,
                has_gtr: yes_no_of(field(tail, "gtr")?)?,
                has_atr: yes_no_of(field(tail, "atr")?)?,
            })
        }
        "pcl" => {
            no_continuation(&cont, "pcl")?;
            Ok(Response::PclExported {
                dataset: num(field(tail, "dataset")?, "dataset")?,
                path: field(tail, "path")?.to_string(),
                genes: num(field(tail, "genes")?, "genes")?,
                conditions: num(field(tail, "conditions")?, "conditions")?,
            })
        }
        "text" => Ok(Response::Text {
            text: rebuild_text(&cont, num(field(tail, "bytes")?, "bytes")?)?,
        }),
        "session" => {
            let order = parse_list(field(tail, "order")?)?
                .iter()
                .map(|t| num(t, "order index"))
                .collect::<Result<Vec<usize>, _>>()?;
            let summary =
                rebuild_text(&cont, num(field(tail, "summary_bytes")?, "summary_bytes")?)?;
            Ok(Response::SessionInfo(SessionInfoData {
                n_datasets: num(field(tail, "datasets")?, "datasets")?,
                universe_genes: num(field(tail, "universe")?, "universe")?,
                total_measurements: num(field(tail, "measurements")?, "measurements")?,
                selection_len: opt_num_of(field(tail, "selection")?)?,
                sync_enabled: on_off_of(field(tail, "sync")?)?,
                scroll: num(field(tail, "scroll")?, "scroll")?,
                dataset_order: order,
                summary,
            }))
        }
        "datasets" => parse_datasets(tail, &cont),
        other => Err(ApiError::parse(format!("unknown response {other:?}"))),
    }
}

fn parse_spell(tail: &str, cont: &[String]) -> Result<Response, ApiError> {
    let n_datasets: usize = num(field(tail, "datasets")?, "datasets")?;
    let n_genes: usize = num(field(tail, "genes")?, "genes")?;
    let query_missing = parse_list(field(tail, "missing")?)?;
    let mut datasets = Vec::new();
    let mut genes = Vec::new();
    for line in cont {
        if let Some(row) = line.strip_prefix("dataset ") {
            let (name, rest) = name_before(row, " weight=")?;
            datasets.push(SpellDatasetRow {
                name,
                weight: num(field(&rest, "weight")?, "weight")?,
                query_genes_present: num(field(&rest, "present")?, "present")?,
            });
        } else if let Some(row) = line.strip_prefix("gene ") {
            let (gene, rest) = name_before(row, " score=")?;
            genes.push(SpellGeneRow {
                gene,
                score: num(field(&rest, "score")?, "score")?,
                n_datasets: num(field(&rest, "datasets")?, "datasets")?,
            });
        } else {
            return Err(ApiError::parse(format!("unexpected spell row {line:?}")));
        }
    }
    if datasets.len() != n_datasets || genes.len() != n_genes {
        return Err(ApiError::parse("spell row counts disagree with the header"));
    }
    Ok(Response::SpellRanking {
        datasets,
        genes,
        query_missing,
    })
}

fn parse_enrich(tail: &str, cont: &[String]) -> Result<Response, ApiError> {
    let n: usize = num(field(tail, "terms")?, "terms")?;
    let mut rows = Vec::new();
    for line in cont {
        let row = line
            .strip_prefix("term ")
            .ok_or_else(|| ApiError::parse(format!("unexpected enrich row {line:?}")))?;
        let (accession, rest) = row
            .split_once(' ')
            .ok_or_else(|| ApiError::parse("enrich term row needs fields"))?;
        let name = rest
            .split_once("name=")
            .map(|(_, n)| n.to_string())
            .ok_or_else(|| ApiError::parse("enrich term row needs name="))?;
        let (overlap, annotated) = field(rest, "overlap")?
            .split_once('/')
            .ok_or_else(|| ApiError::parse("enrich overlap is <overlap>/<annotated>"))?;
        rows.push(EnrichmentRow {
            accession: accession.to_string(),
            name,
            p_value: num(field(rest, "p")?, "p")?,
            q_value: num(field(rest, "q")?, "q")?,
            overlap: num(overlap, "overlap")?,
            annotated: num(annotated, "annotated")?,
        });
    }
    if rows.len() != n {
        return Err(ApiError::parse("enrich row count disagrees with header"));
    }
    Ok(Response::Enrichment { rows })
}

fn parse_datasets(tail: &str, cont: &[String]) -> Result<Response, ApiError> {
    let n: usize = num(field(tail, "n")?, "n")?;
    let mut rows = Vec::new();
    for line in cont {
        let row = line
            .strip_prefix("dataset ")
            .ok_or_else(|| ApiError::parse(format!("unexpected dataset row {line:?}")))?;
        let (d, rest) = row
            .split_once(' ')
            .ok_or_else(|| ApiError::parse("dataset row needs fields"))?;
        let (name, around) = mid_name(rest, "name=", " genes=")?;
        let (gene_clustered, array_clustered) = match field(&around, "clustered")? {
            "gene+array" => (true, true),
            "gene" => (true, false),
            "array" => (false, true),
            "none" => (false, false),
            other => return Err(ApiError::parse(format!("unknown cluster state {other:?}"))),
        };
        rows.push(DatasetRow {
            dataset: num(d, "dataset")?,
            name,
            genes: num(field(&around, "genes")?, "genes")?,
            conditions: num(field(&around, "conditions")?, "conditions")?,
            gene_clustered,
            array_clustered,
        });
    }
    if rows.len() != n {
        return Err(ApiError::parse("dataset row count disagrees with header"));
    }
    Ok(Response::Datasets { rows })
}

// ── helpers ─────────────────────────────────────────────────────────────

/// Strip the two-space continuation indent from every line after the
/// first.
fn de_indent(lines: &[&str]) -> Result<Vec<String>, ApiError> {
    lines
        .iter()
        .map(|l| {
            l.strip_prefix("  ")
                .map(str::to_string)
                .ok_or_else(|| ApiError::parse(format!("continuation line not indented: {l:?}")))
        })
        .collect()
}

fn no_continuation(cont: &[String], what: &str) -> Result<(), ApiError> {
    if cont.is_empty() {
        Ok(())
    } else {
        Err(ApiError::parse(format!(
            "{what} responses are single-line, got {} continuation line(s)",
            cont.len()
        )))
    }
}

/// Whitespace-delimited `key=value` lookup. Only safe for values without
/// spaces — use [`mid_name`] / [`name_before`] for embedded names.
/// Public because transport-level reply decoders (e.g. fv-net's `stats`
/// parser) share this exact grammar — one parser, no drift. Whole
/// records are read through it by [`crate::record`].
pub fn field<'a>(s: &'a str, key: &str) -> Result<&'a str, ApiError> {
    s.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
        .ok_or_else(|| ApiError::parse(format!("missing field {key}=")))
}

/// Extract a mid-line name value delimited by `prefix` (e.g. `name=`) and
/// the literal start of the next field (e.g. `" genes="`). Returns the
/// name and the line with `prefix+name` removed, so the remaining
/// token-safe fields can be looked up with [`field`].
fn mid_name(s: &str, prefix: &str, next: &str) -> Result<(String, String), ApiError> {
    let start = s
        .find(prefix)
        .ok_or_else(|| ApiError::parse(format!("missing field {prefix}")))?;
    let after = &s[start + prefix.len()..];
    let end = after
        .rfind(next)
        .ok_or_else(|| ApiError::parse(format!("missing field {next}")))?;
    let name = after[..end].to_string();
    let around = format!("{}{}", &s[..start], &after[end + 1..]);
    Ok((name, around))
}

/// Extract a leading name that runs until the literal `delim` (e.g.
/// `" weight="`), returning the name and the rest from `delim`'s
/// key onward.
fn name_before(s: &str, delim: &str) -> Result<(String, String), ApiError> {
    let at = s
        .rfind(delim)
        .ok_or_else(|| ApiError::parse(format!("missing field {delim}")))?;
    Ok((s[..at].to_string(), s[at + 1..].to_string()))
}

/// Parse a numeric field value; `what` names the field in the error.
/// Public for the same reason as [`field`].
pub fn num<T: std::str::FromStr>(token: &str, what: &str) -> Result<T, ApiError> {
    token
        .parse()
        .map_err(|_| ApiError::parse(format!("bad {what}: {token:?}")))
}

fn opt_num_of(token: &str) -> Result<Option<usize>, ApiError> {
    if token == NONE {
        Ok(None)
    } else {
        num(token, "optional count").map(Some)
    }
}

fn opt_str_of(token: &str) -> Option<String> {
    if token == NONE {
        None
    } else {
        Some(token.to_string())
    }
}

fn yes_no_of(token: &str) -> Result<bool, ApiError> {
    match token {
        "yes" => Ok(true),
        "no" => Ok(false),
        other => Err(ApiError::parse(format!("expected yes/no, got {other:?}"))),
    }
}

fn on_off_of(token: &str) -> Result<bool, ApiError> {
    match token {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(ApiError::parse(format!("expected on/off, got {other:?}"))),
    }
}

/// `x:y:w:h` rectangle list; `-` is empty.
fn parse_rects(token: &str) -> Result<Vec<DamageRect>, ApiError> {
    if token == NONE {
        return Ok(Vec::new());
    }
    token
        .split(',')
        .map(|r| {
            let parts: Vec<&str> = r.split(':').collect();
            let [x, y, w, h] = parts.as_slice() else {
                return Err(ApiError::parse(format!("bad damage rect {r:?}")));
            };
            Ok(DamageRect {
                x: num(x, "rect x")?,
                y: num(y, "rect y")?,
                w: num(w, "rect w")?,
                h: num(h, "rect h")?,
            })
        })
        .collect()
}

/// Rebuild multi-line text from de-indented continuation lines plus the
/// advertised byte length (which disambiguates a trailing newline).
fn rebuild_text(lines: &[String], bytes: usize) -> Result<String, ApiError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::format_response;

    fn roundtrip(r: &Response) {
        let text = format_response(r);
        let parsed = parse_response(&text).expect("canonical text parses");
        assert_eq!(
            format_response(&parsed),
            text,
            "decode must preserve the canonical text"
        );
    }

    #[test]
    fn simple_responses_roundtrip_exactly() {
        for r in [
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
            Response::Applied {
                selection_len: None,
                damage: vec![],
            },
            Response::Loaded {
                dataset: 2,
                name: "gasch_stress".into(),
                genes: 100,
                conditions: 12,
            },
            Response::ScenarioLoaded {
                names: vec!["a".into(), "b".into()],
                n_genes: 150,
            },
            Response::OntologyReady { terms: 42 },
            Response::Imputed {
                filled: 7,
                missing_before: 9,
            },
            Response::Normalized { datasets: 3 },
            Response::ArraysClustered { dataset: 1 },
            Response::SearchHits {
                genes: vec!["YAL001C".into(), "YBR002W".into()],
            },
            Response::Frame {
                width: 400,
                height: 300,
                panes: 3,
                checksum: 0x0123_4567_89ab_cdef,
                path: None,
            },
            Response::CdtExported {
                dataset: 0,
                files: vec!["out.cdt".into(), "out.gtr".into()],
                cdt_bytes: 1234,
                has_gtr: true,
                has_atr: false,
            },
            Response::PclExported {
                dataset: 0,
                path: "out.pcl".into(),
                genes: 100,
                conditions: 8,
            },
            Response::Text {
                text: "G1\nG2\n".into(),
            },
            Response::Text {
                text: String::new(),
            },
        ] {
            let text = format_response(&r);
            assert_eq!(parse_response(&text).unwrap(), r, "text was {text:?}");
            roundtrip(&r);
        }
    }

    #[test]
    fn structured_responses_roundtrip() {
        roundtrip(&Response::SpellRanking {
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
        });
        roundtrip(&Response::Enrichment {
            rows: vec![EnrichmentRow {
                accession: "GO:0000042".into(),
                name: "protein folding chaperone".into(),
                p_value: 1.25e-7,
                q_value: 2.5e-6,
                overlap: 5,
                annotated: 20,
            }],
        });
        roundtrip(&Response::SessionInfo(SessionInfoData {
            n_datasets: 2,
            universe_genes: 100,
            total_measurements: 800,
            selection_len: Some(7),
            sync_enabled: true,
            scroll: 3,
            dataset_order: vec![1, 0],
            summary: "ForestView session: 2 dataset(s)\n  pane  0: alpha\n".into(),
        }));
        roundtrip(&Response::Datasets {
            rows: vec![DatasetRow {
                dataset: 0,
                name: "osmotic_shock".into(),
                genes: 100,
                conditions: 10,
                gene_clustered: true,
                array_clustered: false,
            }],
        });
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
    fn garbage_is_a_parse_error() {
        for bad in [
            "",
            "wat 7",
            "applied selection=x damage=-",
            "applied selection=4",
            "search hits=2 genes=YAL001C",
            "frame 400 panes=3 checksum=00 path=-",
            "text bytes=5\n  G1",
            "session datasets=1 universe=1 measurements=1 selection=- sync=maybe scroll=0 order=0 summary_bytes=0",
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
}
