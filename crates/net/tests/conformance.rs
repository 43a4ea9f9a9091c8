//! Local-vs-remote conformance: replaying a script through a real
//! localhost server must produce a transcript byte-identical to
//! in-process `EngineHub::run_script` replay — including the golden
//! script that pins the whole protocol surface.

use fv_api::EngineHub;
use fv_net::{run_script_remote, Client, Server, ServerConfig};

/// The golden script of `fv-api` (the protocol's reference workload).
const GOLDEN_SCRIPT: &str = include_str!("../../api/tests/data/session.fvs");

/// Scene used by the golden transcript.
const SCENE: (usize, usize) = (800, 600);

fn server(shards: usize) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            shards,
            scene: SCENE,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

fn local_transcript(script: &str) -> String {
    EngineHub::with_scene(SCENE.0, SCENE.1)
        .run_script(script)
        .expect("local replay succeeds")
        .transcript()
}

fn remote_transcript(addr: &str, script: &str) -> String {
    let mut out = String::new();
    run_script_remote(addr, script, |block| out.push_str(block)).expect("remote replay succeeds");
    out
}

#[test]
fn golden_script_is_byte_identical_over_the_wire() {
    let server = server(4);
    let addr = server.local_addr().to_string();
    let local = local_transcript(GOLDEN_SCRIPT);
    let remote = remote_transcript(&addr, GOLDEN_SCRIPT);
    assert_eq!(remote, local, "wire transcript drifted from local replay");
    // …and the checked-in golden file agrees too, transitively pinning
    // the wire format.
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../api/tests/data/session.golden"
    ))
    .expect("golden file");
    assert_eq!(remote, golden);
    server.shutdown();
    server.join();
}

#[test]
fn remote_transcript_identical_across_shard_counts() {
    // Shard routing must be invisible to any single session's results.
    let local = local_transcript(GOLDEN_SCRIPT);
    for shards in [1, 4] {
        let server = server(shards);
        let addr = server.local_addr().to_string();
        assert_eq!(
            remote_transcript(&addr, GOLDEN_SCRIPT),
            local,
            "transcript must not depend on shard count {shards}"
        );
        server.shutdown();
        server.join();
    }
}

#[test]
fn failing_script_matches_local_prefix_and_error() {
    let script = "\
scenario 80 3
cluster_all
impute 9 3
session_info
";
    let mut hub = EngineHub::with_scene(SCENE.0, SCENE.1);
    let mut local = String::new();
    let local_err = hub
        .run_script_streaming(script, |e| local.push_str(&e.render()))
        .expect_err("impute 9 must fail");

    let server = server(2);
    let addr = server.local_addr().to_string();
    let mut remote = String::new();
    let remote_err = run_script_remote(&addr, script, |b| remote.push_str(b))
        .expect_err("remote replay must fail identically");

    assert_eq!(remote, local, "executed-prefix transcripts must match");
    assert_eq!(remote_err.code, local_err.code);
    assert_eq!(remote_err.message, local_err.message);
    server.shutdown();
    server.join();
}

#[test]
fn typed_client_execute_roundtrips_responses() {
    // Client::execute must hand back typed responses equal to local
    // execution — the decode path the remote CLI rests on.
    use fv_api::{Mutation, Query, Request};
    let server = server(2);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.use_session("typed").unwrap();
    let mut engine = fv_api::Engine::with_scene(SCENE.0, SCENE.1);

    let requests = [
        Request::Mutate(Mutation::LoadScenario {
            n_genes: 80,
            seed: 11,
        }),
        Request::Mutate(Mutation::Command(forestview::command::Command::ClusterAll)),
        Request::Mutate(Mutation::Command(forestview::command::Command::Search(
            "stress".into(),
        ))),
        Request::Query(Query::ListDatasets),
        Request::Query(Query::Spell {
            genes: vec![fv_synth::names::orf_name(0)],
            top_n: 3,
        }),
        Request::Query(Query::Render {
            width: 200,
            height: 150,
            path: None,
        }),
        Request::Query(Query::SessionInfo),
    ];
    for request in &requests {
        let local = engine.execute(request).unwrap();
        let remote = client.execute(request).unwrap();
        // Typed equality holds wherever the wire is lossless; for the
        // float-carrying SPELL response, canonical text equality is the
        // contract.
        match &local {
            fv_api::Response::SpellRanking { .. } => assert_eq!(
                fv_api::format_response(&remote),
                fv_api::format_response(&local)
            ),
            _ => assert_eq!(remote, local),
        }
    }
    // typed error parity
    let bad = Request::Mutate(Mutation::Impute { dataset: 9, k: 3 });
    let local_err = engine.execute(&bad).unwrap_err();
    let remote_err = client.execute(&bad).unwrap_err();
    assert_eq!(remote_err.code, local_err.code);
    assert_eq!(remote_err.message, local_err.message);
    server.shutdown();
    server.join();
}

#[test]
fn typed_client_execute_reads_a_spaced_export_path_back_whole() {
    // The request grammar takes a path with inner spaces; the typed reply
    // must carry all of it, not the path up to its first space.
    use fv_api::{Mutation, Query, Request, Response};
    let dir = std::env::temp_dir().join(format!("fv-conf-spaced-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("a b.pcl").to_string_lossy().into_owned();
    let server = server(2);
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    client.use_session("spaced").unwrap();
    client
        .execute(&Request::Mutate(Mutation::LoadScenario {
            n_genes: 60,
            seed: 3,
        }))
        .unwrap();
    let export = Request::Query(Query::ExportPcl {
        dataset: 0,
        path: path.clone(),
    });
    match client.execute(&export).unwrap() {
        Response::PclExported { path: answered, .. } => assert_eq!(answered, path),
        other => panic!("unexpected response {other:?}"),
    }
    assert!(std::path::Path::new(&path).exists());
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn list_sessions_merges_across_shards_sorted_by_name() {
    use fv_api::{Mutation, Request, SessionEntry};
    let server = server(2);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.use_session("alpha").unwrap();
    client
        .execute(&Request::Mutate(Mutation::LoadScenario {
            n_genes: 60,
            seed: 1,
        }))
        .unwrap();
    client.use_session("beta").unwrap(); // materialized, empty
    let shard = |name: &str| fv_net::shard_of(&fv_api::SessionId::new(name).unwrap(), 2);
    // typed client path
    let listed = client.list_sessions().unwrap();
    assert_eq!(
        listed,
        [
            SessionEntry {
                name: "alpha".into(),
                shard: shard("alpha"),
                n_datasets: 3,
            },
            SessionEntry {
                name: "beta".into(),
                shard: shard("beta"),
                n_datasets: 0,
            },
        ]
    );
    // golden wire text (the merged + sorted reply shape is frozen)
    let raw = client.roundtrip("list-sessions").unwrap().unwrap();
    assert_eq!(
        raw,
        format!(
            "sessions n=2\n  session alpha shard={} datasets=3\n  session beta shard={} datasets=0",
            shard("alpha"),
            shard("beta")
        )
    );
    server.shutdown();
    server.join();
}

#[test]
fn stats_reports_connections_sessions_and_drained_queues() {
    use fv_api::{Mutation, Request};
    let server = server(2);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.use_session("metered").unwrap();
    client
        .execute(&Request::Mutate(Mutation::LoadScenario {
            n_genes: 60,
            seed: 1,
        }))
        .unwrap();
    client
        .execute(&Request::Query(fv_api::Query::SessionInfo))
        .unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.shards.len(), 2);
    assert_eq!(stats.connections, 1, "only this client is connected");
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.busy_rejections, 0);
    assert!(
        stats.shards.iter().all(|s| s.queued == 0),
        "lockstep client leaves no stuck queues: {stats:?}"
    );
    // two single-request runs executed on `metered`'s shard
    assert_eq!(stats.runs, 2);
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.max_run, 1);
    // use + 2 requests + stats were received; frames_out answered each,
    // the stats frame itself included
    assert_eq!(stats.frames_in, 4);
    assert_eq!(stats.frames_out, 4);
    assert_eq!(
        stats.sessions,
        stats.shards.iter().map(|s| s.sessions).sum::<usize>()
    );
    // the typed snapshot round-trips through the canonical wire text
    let raw = client.roundtrip("stats").unwrap().unwrap();
    let reparsed = fv_net::metrics::parse_stats(&raw).unwrap();
    assert_eq!(reparsed.connections, 1);
    assert_eq!(fv_net::metrics::format_stats(&reparsed), raw);
    server.shutdown();
    server.join();
}

/// Write a small PCL file and return its path.
fn write_pcl(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fv-conf-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.pcl"));
    std::fs::write(
        &path,
        "ID\tNAME\tGWEIGHT\tc0\tc1\tc2\n\
         EWEIGHT\t\t\t1\t1\t1\n\
         G1\tG1 alpha\t1\t1.0\t2.0\t3.0\n\
         G2\tG2 beta\t1\t4.0\t5.0\t6.0\n\
         G3\tG3 gamma\t1\t7.0\t8.0\t9.0\n",
    )
    .unwrap();
    path
}

#[test]
fn shared_cache_parses_once_across_sessions_and_shards() {
    use fv_api::{Mutation, Request};
    let pcl = write_pcl("shared");
    let server = server(4);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let load = Request::Mutate(Mutation::LoadDataset {
        path: pcl.to_string_lossy().into_owned(),
    });
    // 8 sessions spread over 4 shards, all loading the same file
    for i in 0..8 {
        client.use_session(&format!("cache{i}")).unwrap();
        client.execute(&load).unwrap();
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_misses, 1, "one parse for eight sessions");
    assert_eq!(stats.cache_hits, 7);
    assert_eq!(stats.cache_entries, 1);
    assert_eq!(stats.cache_evictions, 0);
    // per-request latency histograms cover every executed request
    let observed: u64 = stats.shards.iter().map(|s| s.latency.total()).sum();
    assert_eq!(observed, stats.requests);
    server.shutdown();
    server.join();
}

#[test]
fn cached_and_cold_loads_produce_identical_transcripts_across_shard_counts() {
    // The cache must be semantically invisible: a transcript whose
    // sessions share cached parses must be byte-identical to a cold local
    // replay, whatever the shard count.
    let pcl = write_pcl("coldwarm");
    let path = pcl.to_string_lossy().into_owned();
    let script = format!(
        "use a\nload {path}\ncluster_all\nsession_info\n\
         use b\nload {path}\nsearch_select alpha\nsession_info\n\
         use c\nload {path}\nnormalize all zscore\nlist_datasets\n"
    );
    let local = local_transcript(&script);
    for shards in [1, 4] {
        let server = server(shards);
        let addr = server.local_addr().to_string();
        // run the script twice on one server: the second replay is fully
        // cache-warm (sessions d/e/f), and both must match local replay
        let warm_script = script
            .replace("use a", "use d")
            .replace("use b", "use e")
            .replace("use c", "use f");
        assert_eq!(remote_transcript(&addr, &script), local);
        assert_eq!(
            remote_transcript(&addr, &warm_script),
            local_transcript(&warm_script),
            "cache-warm replay must match cold local replay (shards={shards})"
        );
        let stats = Client::connect(&addr).unwrap().stats().unwrap();
        assert_eq!(stats.cache_misses, 1, "shards={shards}");
        assert_eq!(stats.cache_hits, 5, "shards={shards}");
        // `d` clusters the parse `a` clustered: served, not recomputed
        assert_eq!(
            (stats.derived_misses, stats.derived_hits),
            (1, 1),
            "shards={shards}"
        );
        server.shutdown();
        server.join();
    }
}

#[test]
fn migrate_moves_a_live_session_with_transcript_parity() {
    use fv_api::{Mutation, Query, Request};
    let server = server(4);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.use_session("mover").unwrap();
    client
        .execute(&Request::Mutate(Mutation::LoadScenario {
            n_genes: 80,
            seed: 9,
        }))
        .unwrap();
    client
        .execute(&Request::Mutate(Mutation::Command(
            forestview::command::Command::Search("stress".into()),
        )))
        .unwrap();
    let probe = |client: &mut Client| {
        let info = client.execute(&Request::Query(Query::SessionInfo)).unwrap();
        let frame = client
            .execute(&Request::Query(Query::Render {
                width: 200,
                height: 150,
                path: None,
            }))
            .unwrap();
        (
            fv_api::format_response(&info),
            fv_api::format_response(&frame),
        )
    };
    let before = probe(&mut client);
    let listed_before = client.list_sessions().unwrap();
    let home = fv_net::shard_of(&fv_api::SessionId::new("mover").unwrap(), 4);
    let away = (home + 1) % 4;

    // away: state must cross the shard boundary intact
    client.migrate("mover", away).unwrap();
    assert_eq!(
        probe(&mut client),
        before,
        "transcript parity after migrate"
    );
    let listed_away = client.list_sessions().unwrap();
    assert_eq!(listed_away.len(), 1);
    assert_eq!(listed_away[0].shard, away, "listing reflects the new shard");
    assert_eq!(listed_away[0].n_datasets, 3);

    // and back: the round trip restores the original listing exactly
    client.migrate("mover", home).unwrap();
    assert_eq!(probe(&mut client), before, "parity after the round trip");
    assert_eq!(client.list_sessions().unwrap(), listed_before);

    // migrating to the same shard is a checked no-op
    client.migrate("mover", home).unwrap();

    // typed errors: unknown session / out-of-range shard
    let err = client
        .roundtrip("migrate ghost 1")
        .unwrap()
        .expect_err("unknown session");
    assert_eq!(err.code, fv_api::ErrorCode::NotFound);
    let err = client
        .roundtrip("migrate mover 99")
        .unwrap()
        .expect_err("bad shard");
    assert_eq!(err.code, fv_api::ErrorCode::InvalidRequest);
    server.shutdown();
    server.join();
}

#[test]
fn migrated_session_serves_requests_and_closes_on_its_new_shard() {
    use fv_api::{Mutation, Query, Request, Response};
    let server = server(2);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.use_session("roamer").unwrap();
    client
        .execute(&Request::Mutate(Mutation::LoadScenario {
            n_genes: 60,
            seed: 3,
        }))
        .unwrap();
    let home = fv_net::shard_of(&fv_api::SessionId::new("roamer").unwrap(), 2);
    client.migrate("roamer", 1 - home).unwrap();
    // mutations keep landing on the migrated engine (routing overrides)
    client
        .execute(&Request::Mutate(Mutation::Command(
            forestview::command::Command::Scroll(2),
        )))
        .unwrap();
    // a second connection reaches the same migrated session
    let mut other = Client::connect(&addr).unwrap();
    other.use_session("roamer").unwrap();
    match other.execute(&Request::Query(Query::SessionInfo)).unwrap() {
        Response::SessionInfo(info) => assert_eq!(info.n_datasets, 3),
        other => panic!("wrong response: {other:?}"),
    }
    // close finds it on the override shard; a fresh use starts empty AND
    // falls back to hash routing — the override died with the session
    other.close_session().unwrap();
    client.use_session("roamer").unwrap();
    match client.execute(&Request::Query(Query::SessionInfo)).unwrap() {
        Response::SessionInfo(info) => assert_eq!(info.n_datasets, 0),
        other => panic!("wrong response: {other:?}"),
    }
    let listed = client.list_sessions().unwrap();
    let roamer = listed.iter().find(|e| e.name == "roamer").unwrap();
    assert_eq!(
        roamer.shard, home,
        "a re-created session routes by hash again"
    );
    server.shutdown();
    server.join();
}

#[test]
fn close_drops_only_the_current_session() {
    use fv_api::{Mutation, Query, Request, Response};
    let server = server(2);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.use_session("keep").unwrap();
    client
        .execute(&Request::Mutate(Mutation::LoadScenario {
            n_genes: 60,
            seed: 1,
        }))
        .unwrap();
    client.use_session("scratch").unwrap();
    client
        .execute(&Request::Mutate(Mutation::LoadScenario {
            n_genes: 60,
            seed: 2,
        }))
        .unwrap();
    client.close_session().unwrap();
    // connection fell back to the default session; `keep` is untouched,
    // `scratch` is gone (a fresh `use` sees an empty hub entry).
    client.use_session("keep").unwrap();
    match client.execute(&Request::Query(Query::SessionInfo)).unwrap() {
        Response::SessionInfo(info) => assert_eq!(info.n_datasets, 3),
        other => panic!("wrong response: {other:?}"),
    }
    client.use_session("scratch").unwrap();
    match client.execute(&Request::Query(Query::SessionInfo)).unwrap() {
        Response::SessionInfo(info) => assert_eq!(info.n_datasets, 0, "scratch was dropped"),
        other => panic!("wrong response: {other:?}"),
    }
    server.shutdown();
    server.join();
}
