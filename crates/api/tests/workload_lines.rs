//! The workload generator builds typed script items that the request
//! formatter writes. These tests close the loop: every line every
//! scenario emits must parse under the real wire grammar as a *script*
//! item (never a transport control), a generated client stream must
//! replay cleanly through a local [`EngineHub`], and the traffic itself
//! is pinned.

use fv_api::codec::{parse_script, parse_wire_line, WireItem};
use fv_api::workload::{generate, WorkloadKind, WorkloadSpec, WORKLOAD_KINDS};
use fv_api::EngineHub;

#[test]
fn every_generated_line_parses_as_a_script_item() {
    for &kind in WORKLOAD_KINDS {
        let spec = WorkloadSpec {
            kind,
            clients: 4,
            bursts: 12,
            n_genes: 90,
            seed: 20070331,
        };
        for script in generate(&spec) {
            for line in script.wire_lines() {
                match parse_wire_line(&line) {
                    Ok(Some(WireItem::Script(_))) => {}
                    other => panic!("{kind}: line {line:?} is not a script item: {other:?}"),
                }
            }
            // the stream is also a valid script file, wholesale
            parse_script(&script.script_text())
                .unwrap_or_else(|e| panic!("{kind}: stream rejected as a script: {e}"));
        }
    }
}

#[test]
fn generated_streams_replay_cleanly_through_a_local_hub() {
    let spec = WorkloadSpec {
        kind: WorkloadKind::Mixed,
        clients: 3,
        bursts: 4,
        n_genes: 60,
        seed: 7,
    };
    for script in generate(&spec) {
        let mut hub = EngineHub::with_scene(640, 480);
        let outcome = hub
            .run_script(&script.script_text())
            .unwrap_or_else(|e| panic!("{}: generated stream failed locally: {e}", script.session));
        assert!(
            !outcome.entries.is_empty(),
            "{}: replay produced no transcript",
            script.session
        );
    }
}

#[test]
fn replay_of_equal_streams_is_byte_identical() {
    let spec = WorkloadSpec {
        kind: WorkloadKind::ClusterLoop,
        clients: 1,
        bursts: 3,
        n_genes: 60,
        seed: 99,
    };
    let script = &generate(&spec)[0];
    let run = || {
        let mut hub = EngineHub::with_scene(640, 480);
        hub.run_script(&script.script_text()).unwrap().transcript()
    };
    assert_eq!(run(), run(), "two fresh local replays must match");
}

/// `generate`'s output, pinned per kind at one small spec: the FNV-1a of
/// every client's script text, in client order. A change to the
/// generator or to the request formatter that moves one byte of traffic
/// fails here.
#[test]
fn generated_traffic_is_pinned() {
    let pinned: [(&str, u64); 6] = [
        ("overview", 0xd72243a4cb0bca95),
        ("zoom-filter", 0xaf4b750225bb56f8),
        ("cluster-loop", 0xfcdaafc9da6d169a),
        ("spell-burst", 0x1b82f1d1a43113a3),
        ("fan-in", 0x08ab6377cf28cb88),
        ("mixed", 0x636fe1deeb7110af),
    ];
    let seen = WORKLOAD_KINDS.iter().map(|&kind| {
        let spec = WorkloadSpec::small(kind, 3, 2007);
        let text: String = generate(&spec).iter().map(|s| s.script_text()).collect();
        (kind.name(), fv_api::engine::fnv1a(text.as_bytes()))
    });
    assert_eq!(seen.collect::<Vec<_>>(), pinned);
}
