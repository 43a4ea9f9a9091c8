//! Total parsers for the text fv-api reads back from disk or the wire:
//! the record kit's count-list token (latency histograms, cache gauges),
//! `parse_session_image` (checkpoints, migrating sessions),
//! `parse_sessions_reply` (`list-sessions`), `parse_trace` (`fvtrace`
//! files), `parse_wire_line` (every line a server is sent) and
//! `parse_response` (every body a client is answered). Whatever text
//! arrives — arbitrary bytes, or a valid record with a few bytes flipped
//! or its tail cut off — each returns a typed `ApiError` or a well-formed
//! value (one that re-formats and re-parses to itself). None panics, and
//! none reserves from a header count.

use fv_api::record::Token;
use fv_api::{
    format_response, format_session_image, format_sessions_reply, format_trace, format_wire_item,
    parse_response, parse_session_image, parse_sessions_reply, parse_trace, parse_wire_line,
    CacheStats, EngineHub,
};
use proptest::prelude::*;
use std::sync::LazyLock;

const IMAGE: &str = "session-image v2 scene=800x600 requests=12 datasets=2 log=3\n  \
    dataset len=482 mtime=1754550000000000000 hash=9637325990313059835 \
    path=data/gasch stress.pcl\n  \
    dataset len=77 mtime=- hash=42 path=data/other.pcl\n  \
    load data/gasch stress.pcl\n  \
    set_metric euclidean\n  \
    normalize all zscore";
/// A latency histogram's buckets, and a cache's seven gauges.
const COUNTS: &str = "0,2,3,1,0,0,0,0,0,18446744073709551615";
const GAUGES: &str = "1,63,1,0,3,6,3";
const SESSIONS: &str =
    "sessions n=2\n  session alpha shard=1 datasets=3\n  session beta shard=0 datasets=0";
const TRACE: &str = "fvtrace 1\n\
    send use α\n\
    recv ok using α\n\
    send session_info\n\
    recv ok session datasets=0\n  \
    ForestView session: 0 dataset(s)\n\
    send impute 9 3\n\
    recv err E_NOT_FOUND dataset 9\n";

/// The golden script: its lines are wire lines, and replaying it answers
/// one body of nearly every response kind.
const SCRIPT: &str = include_str!("data/session.fvs");
const CONTROL_LINES: &str = "ping\nshutdown\nclose\nstats\nlist-sessions\nmigrate alpha 1\n\
    balance\nbalance auto\nsubscribe alpha 4x2\nunsubscribe\nack 17\n";

/// Every verb a server can be sent, one valid line each.
static WIRE_LINES: LazyLock<Vec<&str>> = LazyLock::new(|| {
    let lines = CONTROL_LINES.lines().chain(SCRIPT.lines());
    lines.filter(|line| !line.is_empty()).collect()
});

/// What [`SCRIPT`] is answered, as the wire carries it.
static RESPONSES: LazyLock<Vec<String>> = LazyLock::new(|| {
    let outcome = EngineHub::new().run_script(SCRIPT).expect("golden replay");
    let bodies = outcome.entries.iter().map(|e| format_response(&e.response));
    bodies.collect()
});

/// `text` with `flips` bytes overwritten and, one time in four, its tail
/// cut off — corruption that keeps most of the structure (headers,
/// counts, keys), which is what reaches the deep parse paths. Lossy
/// UTF-8: the parsers take `&str`, their callers having already refused
/// bytes that are not.
fn mangle(text: &str, flips: &[(usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(at, byte) in flips {
        let at = at % bytes.len();
        if byte % 4 == 0 {
            bytes.truncate(at);
            break;
        }
        bytes[at] = byte;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A token's canonical text.
fn token<T: Token>(value: &T) -> String {
    let mut text = String::new();
    value.put(&mut text);
    text
}

/// The texts above are the wire bytes, pinned: each parses, re-formats
/// to itself, and so is a fair seed for the property below (which would
/// be vacuous over seeds that do not parse). The empty forms ride along.
#[test]
fn the_pinned_texts_roundtrip() {
    let counts = <[u64; 10]>::get(COUNTS).unwrap();
    assert_eq!((counts[1], counts[9]), (2, u64::MAX));
    assert_eq!(token(&counts), COUNTS);
    let gauges = CacheStats::get(GAUGES).unwrap();
    assert_eq!((gauges.hits, gauges.derived_entries), (63, 3));
    assert_eq!(token(&gauges), GAUGES);
    // one count short, one over, or a word among them is no list
    for bad in [
        "",
        "0,2,3,1,0,0,0,0,0",
        "0,2,3,1,0,0,0,0,0,0,0",
        "0,2,x,1,0,0,0,0,0,0",
    ] {
        assert_eq!(<[u64; 10]>::get(bad), None, "{bad:?}");
    }
    assert_eq!(CacheStats::get("1,63,1,0,3,6"), None);
    for text in [
        IMAGE,
        "session-image v2 scene=1280x960 requests=0 datasets=0 log=0",
    ] {
        let image = parse_session_image(text).unwrap();
        assert_eq!(format_session_image(&image), text);
    }
    for text in [SESSIONS, "sessions n=0"] {
        let sessions = parse_sessions_reply(text).unwrap();
        assert_eq!(format_sessions_reply(&sessions), text);
    }
    let trace = parse_trace(TRACE).unwrap();
    assert_eq!(format_trace(&trace), TRACE);
    // A `\r` inside a send payload or an error message (the formatter
    // flattens it) or ending a body line (the line reader strips it) has
    // no text to re-format to: the trace is refused, not read lossily.
    for bad in [
        "send session_\rinfo",
        "recv err E_NOT_FOUND data\rset 9",
        "recv ok using α\r\r",
        "recv ok session\n  Forest\rView\r\r",
    ] {
        assert!(parse_trace(&format!("{TRACE}{bad}\n")).is_err(), "{bad:?}");
    }
    // keyed and un-keyed fields land where they should
    let image = parse_session_image(IMAGE).unwrap();
    assert_eq!((image.scene, image.requests), ((800, 600), 12));
    assert_eq!(image.datasets[0].path, "data/gasch stress.pcl");
    assert_eq!(image.datasets[1].mtime_nanos, None);
    assert_eq!((image.datasets[1].len, image.datasets[1].hash), (77, 42));
    let sessions = parse_sessions_reply(SESSIONS).unwrap();
    assert_eq!(sessions[0].name, "alpha");
    assert_eq!((sessions[0].shard, sessions[0].n_datasets), (1, 3));
    for line in WIRE_LINES.iter() {
        let item = parse_wire_line(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        if let Some(item) = item {
            assert_eq!(format_wire_item(&item), *line);
        }
    }
    for body in RESPONSES.iter() {
        let response = parse_response(body).unwrap_or_else(|e| panic!("{body:?}: {e}"));
        assert_eq!(&format_response(&response), body);
    }
}

proptest! {
    #[test]
    fn image_sessions_and_trace_parsers_are_total(
        noise in prop::collection::vec(any::<u8>(), 0..300),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..5),
        pick in any::<usize>(),
    ) {
        let noise = String::from_utf8_lossy(&noise).into_owned();
        for text in [noise.clone(), mangle(COUNTS, &flips)] {
            if let Some(counts) = <[u64; 10]>::get(&text) {
                prop_assert_eq!(<[u64; 10]>::get(&token(&counts)), Some(counts));
            }
        }
        for text in [noise.clone(), mangle(GAUGES, &flips)] {
            if let Some(gauges) = CacheStats::get(&text) {
                prop_assert_eq!(CacheStats::get(&token(&gauges)), Some(gauges));
            }
        }
        for text in [noise.clone(), mangle(IMAGE, &flips)] {
            if let Ok(image) = parse_session_image(&text) {
                prop_assert_eq!(parse_session_image(&format_session_image(&image)).unwrap(), image);
            }
        }
        for text in [noise.clone(), mangle(SESSIONS, &flips)] {
            if let Ok(entries) = parse_sessions_reply(&text) {
                prop_assert_eq!(
                    parse_sessions_reply(&format_sessions_reply(&entries)).unwrap(),
                    entries
                );
            }
        }
        for text in [noise.clone(), mangle(TRACE, &flips)] {
            if let Ok(events) = parse_trace(&text) {
                prop_assert_eq!(parse_trace(&format_trace(&events)).unwrap(), events);
            }
        }
        for text in [noise.clone(), mangle(WIRE_LINES[pick % WIRE_LINES.len()], &flips)] {
            if let Ok(Some(item)) = parse_wire_line(&text) {
                prop_assert_eq!(parse_wire_line(&format_wire_item(&item)).unwrap(), Some(item));
            }
        }
        for text in [noise, mangle(&RESPONSES[pick % RESPONSES.len()], &flips)] {
            if let Ok(response) = parse_response(&text) {
                prop_assert_eq!(parse_response(&format_response(&response)).unwrap(), response);
            }
        }
    }
}
