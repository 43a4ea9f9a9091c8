//! Property tests for the shared dataset cache: random interleavings of
//! `load` / `close <session>` / on-disk rewrites across a pool of
//! sessions must uphold the cache's two ownership guarantees:
//!
//! 1. **No leak** — once every session holding a file is closed, the
//!    cache keeps nothing alive (`entries` drops to zero; the `Weak`
//!    entries cannot pin a dataset).
//! 2. **Eviction never invalidates a live handle** — rewriting a file on
//!    disk evicts its cache entry, but every session that loaded the old
//!    contents keeps seeing exactly the data it loaded.
//!
//! Contents are generation-stamped (cell `[0,0]` holds the generation,
//! and the row count varies with it so the length fingerprint always
//! changes), which lets the model check every session's view after every
//! operation.
//!
//! The cache's second map (clusterings by matrix content) adds a third:
//!
//! 3. **A hit is indistinguishable from a recompute** — whatever the
//!    matrix, metric, linkage and axis, and whether a transform copied a
//!    shared matrix or rewrote a uniquely held one in place, the served
//!    tree and order equal a fresh [`Clustering::derive`]; and the map
//!    leaks nothing and computes once under a race.

use forestview::command::Command;
use forestview::session::{Axis, Clustering};
use fv_api::{
    DatasetCache, Engine, EngineHub, Mutation, NormalizeMethod, Query, Request, Response,
    SessionId, SessionImage,
};
use fv_cluster::distance::Metric;
use fv_cluster::linkage::Linkage;
use fv_expr::{Dataset, ExprMatrix};
use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const SESSIONS: [&str; 4] = ["s0", "s1", "s2", "s3"];
const FILES: [&str; 2] = ["f0", "f1"];

#[derive(Debug, Clone)]
enum Op {
    /// Load file `f` into session `s`.
    Load { s: usize, f: usize },
    /// Close session `s`.
    Close { s: usize },
    /// Rewrite file `f` on disk with the next generation's contents.
    Rewrite { f: usize },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    FnStrategy::new(|rng: &mut TestRng| {
        let len = 4 + rng.below(17) as usize;
        (0..len)
            .map(|_| match rng.below(5) {
                // loads dominate: they are the interesting operation
                0..=2 => Op::Load {
                    s: rng.below(SESSIONS.len() as u64) as usize,
                    f: rng.below(FILES.len() as u64) as usize,
                },
                3 => Op::Close {
                    s: rng.below(SESSIONS.len() as u64) as usize,
                },
                _ => Op::Rewrite {
                    f: rng.below(FILES.len() as u64) as usize,
                },
            })
            .collect()
    })
}

/// Write generation `generation` of file `f`: cell `[0,0]` stamps the
/// generation; `generation + 1` rows make the byte length (and thus the
/// fingerprint) unique per generation.
fn write_generation(dir: &Path, f: usize, generation: usize) -> PathBuf {
    let mut text = String::from("ID\tNAME\tGWEIGHT\tc0\tc1\n");
    for row in 0..=generation {
        let value = if row == 0 { generation } else { row };
        text.push_str(&format!("G{row}\tG{row}\t1\t{value}.0\t0.5\n"));
    }
    let path = dir.join(format!("{}.pcl", FILES[f]));
    std::fs::write(&path, text).unwrap();
    path
}

fn fresh_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fv-cache-props-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn interleaved_load_close_never_leaks_or_invalidates(ops in arb_ops()) {
        let dir = fresh_dir();
        let mut generations = [0usize; FILES.len()];
        let mut paths: Vec<PathBuf> = (0..FILES.len())
            .map(|f| write_generation(&dir, f, 0))
            .collect();
        let mut hub = EngineHub::with_scene(640, 480);
        // model: session -> (file -> generation loaded)
        let mut held: BTreeMap<usize, BTreeMap<usize, usize>> = BTreeMap::new();
        // Every Load op consults the cache (even one the session then
        // rejects as a duplicate name), so the hit+miss ledger counts
        // attempts, not successful session loads.
        let mut load_attempts: u64 = 0;

        for op in &ops {
            match *op {
                Op::Load { s, f } => {
                    let id = SessionId::new(SESSIONS[s]).unwrap();
                    let request = Request::Mutate(Mutation::LoadDataset {
                        path: paths[f].to_string_lossy().into_owned(),
                    });
                    let result = hub.execute_on(&id, &request);
                    load_attempts += 1;
                    if held.get(&s).is_some_and(|m| m.contains_key(&f)) {
                        // same stem already loaded: duplicate-name error,
                        // the session keeps its original handle
                        let err = result.expect_err("duplicate load must fail");
                        prop_assert_eq!(err.code, fv_api::ErrorCode::AlreadyExists);
                    } else {
                        prop_assert!(result.is_ok(), "load failed: {:?}", result);
                        held.entry(s).or_default().insert(f, generations[f]);
                    }
                }
                Op::Close { s } => {
                    let id = SessionId::new(SESSIONS[s]).unwrap();
                    let existed = hub.close(&id);
                    prop_assert_eq!(existed, held.contains_key(&s));
                    held.remove(&s);
                }
                Op::Rewrite { f } => {
                    generations[f] += 1;
                    paths[f] = write_generation(&dir, f, generations[f]);
                }
            }
            // Invariant: every live session still sees exactly the
            // generation it loaded — eviction and rewrites are invisible
            // to held handles.
            for (&s, files) in &held {
                let id = SessionId::new(SESSIONS[s]).unwrap();
                let engine = hub.get(&id).expect("held session exists");
                for (&f, &generation) in files {
                    let d = engine
                        .session()
                        .merged()
                        .index_of(FILES[f])
                        .expect("dataset present");
                    let ds = engine.session().dataset(d);
                    prop_assert_eq!(
                        ds.matrix.get(0, 0),
                        Some(generation as f32),
                        "session {} sees wrong generation of {}",
                        SESSIONS[s],
                        FILES[f]
                    );
                    prop_assert_eq!(ds.n_genes(), generation + 1);
                }
            }
            // The cache never holds more live entries than there are
            // files, and its ledger accounts for every successful load.
            let stats = hub.cache_stats();
            prop_assert!(stats.entries <= FILES.len());
            prop_assert_eq!(stats.hits + stats.misses, load_attempts);
        }

        // Teardown: closing every session must drop every refcount to
        // zero — the cache's weak entries cannot leak datasets.
        for s in SESSIONS {
            hub.close(&SessionId::new(s).unwrap());
        }
        prop_assert_eq!(hub.cache_stats().entries, 0, "cache leaked entries");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ── the derived map: clusterings by matrix content ──────────────────────

const METRICS: [Metric; 5] = [
    Metric::Pearson,
    Metric::AbsPearson,
    Metric::Uncentered,
    Metric::Spearman,
    Metric::Euclidean,
];
const LINKAGES: [Linkage; 4] = [
    Linkage::Single,
    Linkage::Complete,
    Linkage::Average,
    Linkage::Ward,
];
const AXES: [Axis; 2] = [Axis::Genes, Axis::Arrays];

/// 3–9 genes × 3–7 conditions, about one cell in six missing.
fn arb_matrix() -> impl Strategy<Value = ExprMatrix> {
    FnStrategy::new(|rng: &mut TestRng| {
        let (rows, cols) = (3 + rng.below(7) as usize, 3 + rng.below(5) as usize);
        let mut m = ExprMatrix::missing(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.below(6) != 0 {
                    m.set(r, c, (rng.unit_f64() * 8.0 - 4.0) as f32);
                }
            }
        }
        m
    })
}

fn mutate(m: Mutation) -> Request {
    Request::Mutate(m)
}

fn command(c: Command) -> Request {
    mutate(Mutation::Command(c))
}

/// Cluster both axes of dataset 0 through the engine (and so the cache),
/// then hold the session against a fresh derive of its own matrix.
fn cluster_and_check(hub: &mut EngineHub, id: &SessionId) -> Result<(), proptest::TestCaseError> {
    for request in [
        command(Command::ClusterAll),
        mutate(Mutation::ClusterArrays { dataset: 0 }),
    ] {
        hub.execute_on(id, &request).expect("clustering succeeds");
    }
    let s = hub.get(id).expect("session exists").session();
    let (metric, linkage) = s.cluster_settings();
    let m = &s.dataset(0).matrix;
    let genes = Clustering::derive(m, Axis::Genes, metric, linkage);
    let arrays = Clustering::derive(m, Axis::Arrays, metric, linkage);
    prop_assert_eq!(s.gene_tree(0), Some(&genes.tree));
    prop_assert_eq!(s.display_order(0), &genes.order[..]);
    prop_assert_eq!(s.array_tree(0), Some(&arrays.tree));
    prop_assert_eq!(s.col_order(0), &arrays.order[..]);
    Ok(())
}

/// Where session `id` keeps dataset 0 — moves iff a transform copied.
fn dataset_at(hub: &EngineHub, id: &SessionId) -> *const Dataset {
    Arc::as_ptr(
        hub.get(id)
            .expect("session exists")
            .session()
            .dataset_handle(0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_served_clustering_equals_a_fresh_derive_and_nothing_leaks(m in arb_matrix()) {
        let cache = DatasetCache::new();
        let mut held = Vec::new();
        for metric in METRICS {
            for linkage in LINKAGES {
                for axis in AXES {
                    let computed = cache.clustering(&m, axis, metric, linkage);
                    // equal content in another allocation: the key is bytes
                    let served = cache.clustering(&m.clone(), axis, metric, linkage);
                    prop_assert!(Arc::ptr_eq(&computed, &served));
                    prop_assert_eq!(&*served, &Clustering::derive(&m, axis, metric, linkage));
                    held.push(served);
                }
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(
            (stats.derived_entries, stats.derived_misses, stats.derived_hits),
            (40, 40, 40)
        );
        // every holder dropped: nothing stays, and the next one computes
        drop(held);
        prop_assert_eq!(cache.stats().derived_entries, 0, "derived map leaked");
        let _again = cache.clustering(&m, Axis::Genes, Metric::Pearson, Linkage::Average);
        let stats = cache.stats();
        prop_assert_eq!((stats.derived_entries, stats.derived_misses), (1, 41));
    }

    #[test]
    fn a_transform_never_leaves_a_stale_tree_copied_or_in_place(
        m in arb_matrix(),
        metric in 0usize..5,
        linkage in 0usize..4,
        method in 0usize..3,
    ) {
        let dir = fresh_dir();
        let path = dir.join("d.pcl");
        std::fs::write(&path, fv_formats::pcl::write_pcl(&Dataset::with_default_meta("d", m)))
            .unwrap();
        let mut hub = EngineHub::with_scene(640, 480);
        let (a, b) = (SessionId::new("a").unwrap(), SessionId::new("b").unwrap());
        for id in [&a, &b] {
            for request in [
                mutate(Mutation::LoadDataset { path: path.to_string_lossy().into_owned() }),
                command(Command::SetMetric(METRICS[metric])),
                command(Command::SetLinkage(LINKAGES[linkage])),
            ] {
                hub.execute_on(id, &request).expect("set-up succeeds");
            }
            cluster_and_check(&mut hub, id)?;
        }
        let stats = hub.cache_stats();
        prop_assert_eq!((stats.derived_misses, stats.derived_hits), (2, 2), "b shares a's trees");

        // b's matrix is the parse a holds too: the transform copies it
        let shared = dataset_at(&hub, &b);
        let method = [
            NormalizeMethod::CenterRows,
            NormalizeMethod::MedianCenterRows,
            NormalizeMethod::ZscoreRows,
        ][method];
        hub.execute_on(&b, &mutate(Mutation::Normalize { dataset: None, method })).unwrap();
        prop_assert_ne!(dataset_at(&hub, &b), shared, "a shared matrix is copied");
        cluster_and_check(&mut hub, &b)?;
        cluster_and_check(&mut hub, &a)?;

        // b's copy is its own now: the next transform rewrites it in place
        let own = dataset_at(&hub, &b);
        hub.execute_on(&b, &mutate(Mutation::Impute { dataset: 0, k: 2 })).unwrap();
        hub.execute_on(&b, &mutate(Mutation::Normalize {
            dataset: Some(0),
            method: NormalizeMethod::ZscoreRows,
        }))
        .unwrap();
        prop_assert_eq!(dataset_at(&hub, &b), own, "a uniquely held matrix is not");
        cluster_and_check(&mut hub, &b)?;

        hub.close(&a);
        hub.close(&b);
        prop_assert_eq!(hub.cache_stats().derived_entries, 0, "derived map leaked");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn racing_clusterings_of_one_content_compute_once() {
    let m = fv_synth::scenario::Scenario::three_datasets(60, 7)
        .datasets
        .swap_remove(0)
        .matrix;
    let cache = DatasetCache::new();
    let start = std::sync::Barrier::new(8);
    // every racer's result is held until all are in, so none can find
    // the entry dead and compute a second time
    let held: Vec<Arc<Clustering>> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    cache.clustering(&m, Axis::Genes, Metric::Pearson, Linkage::Average)
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert!(held.iter().all(|c| Arc::ptr_eq(c, &held[0])));
    let stats = cache.stats();
    assert_eq!(
        (
            stats.derived_misses,
            stats.derived_hits,
            stats.derived_entries
        ),
        (1, 7, 1),
        "the per-key gate admits one compute"
    );
}

/// What a client can see of a session: its image, `session_info` and a
/// rendered frame's checksum.
fn observe(engine: &mut Engine) -> (SessionImage, Response, Response) {
    let info = engine.execute(&Request::Query(Query::SessionInfo)).unwrap();
    let frame = engine
        .execute(&Request::Query(Query::Render {
            width: 320,
            height: 240,
            path: None,
        }))
        .unwrap();
    (engine.snapshot(), info, frame)
}

#[test]
fn restore_beside_a_live_sibling_is_one_hit_and_equals_a_cold_restore() {
    let dir = fresh_dir();
    let path = dir.join("shared.pcl");
    let ds = fv_synth::scenario::Scenario::three_datasets(60, 7)
        .datasets
        .swap_remove(0);
    std::fs::write(&path, fv_formats::pcl::write_pcl(&ds)).unwrap();
    let cache = DatasetCache::new();
    let mut sibling = Engine::with_scene_and_cache(800, 600, cache.clone());
    for request in [
        mutate(Mutation::LoadDataset {
            path: path.to_string_lossy().into_owned(),
        }),
        command(Command::ClusterAll),
        command(Command::SelectRegion {
            dataset: 0,
            start_frac: 0.2,
            end_frac: 0.6,
        }),
        command(Command::Scroll(3)),
    ] {
        sibling.execute(&request).unwrap();
    }
    let image = sibling.snapshot();
    let before = cache.stats();
    let mut warm = Engine::restore(&image, &cache).unwrap();
    let after = cache.stats();
    assert_eq!(
        (
            after.derived_hits - before.derived_hits,
            after.derived_misses - before.derived_misses
        ),
        (1, 0),
        "the sibling's clustering is served, not recomputed"
    );
    let mut cold = Engine::restore(&image, &DatasetCache::new()).unwrap();
    let served = observe(&mut warm);
    assert_eq!(served, observe(&mut cold));
    assert_eq!(served, observe(&mut sibling));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenario_sessions_share_by_content_not_by_path() {
    let cache = DatasetCache::new();
    let mut engines: Vec<Engine> = (0..2)
        .map(|_| {
            let mut e = Engine::with_scene_and_cache(800, 600, cache.clone());
            for request in [
                mutate(Mutation::LoadScenario {
                    n_genes: 60,
                    seed: 7,
                }),
                command(Command::ClusterAll),
            ] {
                e.execute(&request).unwrap();
            }
            e
        })
        .collect();
    // no file and no shared `Arc<Dataset>`: three generated datasets each
    let stats = cache.stats();
    assert_eq!((stats.entries, stats.hits + stats.misses), (0, 0));
    assert_eq!(
        (
            stats.derived_misses,
            stats.derived_hits,
            stats.derived_entries
        ),
        (3, 3, 3)
    );
    for d in 0..3 {
        assert!(std::ptr::eq(
            engines[0].session().gene_tree(d).unwrap(),
            engines[1].session().gene_tree(d).unwrap()
        ));
    }
    let second = engines.pop().unwrap();
    drop(second);
    assert_eq!(
        cache.stats().derived_entries,
        3,
        "the first still holds them"
    );
    drop(engines);
    assert_eq!(cache.stats().derived_entries, 0);
}

#[test]
fn a_redundant_cluster_all_in_a_replayed_log_is_a_hit() {
    // Eight `cluster_all`s separated by scrolls, against the log with one.
    let log = |n_cluster: usize| {
        let mut log = vec![
            Mutation::LoadScenario {
                n_genes: 60,
                seed: 7,
            },
            Mutation::Command(Command::Search("stress".into())),
            Mutation::Command(Command::ClusterAll),
        ];
        for i in 1..8 {
            log.push(Mutation::Command(Command::Scroll(1)));
            if i < n_cluster {
                log.push(Mutation::Command(Command::ClusterAll));
            }
        }
        SessionImage {
            scene: (800, 600),
            requests: 0,
            datasets: Vec::new(),
            log,
        }
    };
    let cache = DatasetCache::new();
    let mut redundant = Engine::restore(&log(8), &cache).unwrap();
    let stats = cache.stats();
    assert_eq!(
        (stats.derived_misses, stats.derived_hits),
        (3, 21),
        "the restoring session itself keeps the first clustering alive"
    );
    let mut once = Engine::restore(&log(1), &DatasetCache::new()).unwrap();
    let (image, info, frame) = observe(&mut redundant);
    assert_eq!(image.log, log(8).log, "the log survives a restore verbatim");
    let (_, once_info, once_frame) = observe(&mut once);
    assert_eq!((info, frame), (once_info, once_frame));
}
