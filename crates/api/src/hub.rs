//! Multi-session hub: many named engines behind one dispatch surface.
//!
//! `EngineHub` is the seam where horizontal scaling attaches: an
//! in-process map from [`SessionId`] to [`Engine`]. The network transport
//! (`fv-net`) serializes requests with the wire codec, routes them here by
//! session id, and gives every shard worker — a thread or a child process
//! — a hub of its own. Sessions move between hubs as
//! [`SessionImage`](crate::SessionImage)s, copy first and delete last:
//! [`Engine::snapshot`] on the source, [`Engine::restore`] (a log replay)
//! plus [`EngineHub::install_session`] on the destination, and only then
//! [`EngineHub::close`] on the source.

use crate::cache::{CacheStats, DatasetCache};
use crate::codec::{format_response, parse_script, ScriptItem};
use crate::engine::{Engine, RunOutcome};
use crate::error::ApiError;
use crate::request::Request;
use crate::response::Response;
use std::collections::BTreeMap;

// The hub (and everything under it) must be movable into worker threads —
// it is the unit a sharded transport partitions sessions across. Compile-
// time proof; a transport crate should not discover `!Send` at a distance.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<EngineHub>();
    assert_send::<Engine>();
};

/// Name of an engine session within a hub. Session names are single
/// whitespace-free tokens (enforced by [`SessionId::new`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(String);

impl SessionId {
    /// Validate and wrap a session name.
    pub fn new(name: impl Into<String>) -> Result<SessionId, ApiError> {
        let name = name.into();
        if name.is_empty() || name.contains(char::is_whitespace) {
            return Err(ApiError::invalid(format!(
                "session names are non-empty single tokens, got {name:?}"
            )));
        }
        Ok(SessionId(name))
    }

    /// The session name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// One executed script line in a transcript.
#[derive(Debug, Clone, PartialEq)]
pub struct TranscriptEntry {
    /// 1-based line number in the script source.
    pub line_no: usize,
    /// Session the request ran against.
    pub session: SessionId,
    /// The executed request.
    pub request: Request,
    /// Its response.
    pub response: Response,
}

impl TranscriptEntry {
    /// Canonical transcript block for this entry: [`transcript_block`]
    /// of its formatted response.
    pub fn render(&self) -> String {
        let text = format_response(&self.response);
        transcript_block(&self.session, self.line_no, &self.request, &text)
    }
}

/// Canonical transcript block of one executed request:
/// `<session>:<line>> <canonical request>` followed by the response
/// text, newline-terminated. The single source of the transcript shape —
/// [`ScriptOutcome::transcript`], streaming front ends (`fvtool script`)
/// and the remote script runner, which holds only the reply text, all
/// emit exactly this.
pub fn transcript_block(
    session: &SessionId,
    line_no: usize,
    request: &Request,
    text: &str,
) -> String {
    let request = crate::codec::format_request(request);
    format!("{session}:{line_no}> {request}\n{text}\n")
}

/// Result of replaying a script through a hub.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptOutcome {
    /// Executed lines, in order.
    pub entries: Vec<TranscriptEntry>,
}

impl ScriptOutcome {
    /// Deterministic text transcript: the concatenated
    /// [`TranscriptEntry::render`] blocks of every executed request.
    pub fn transcript(&self) -> String {
        self.entries.iter().map(TranscriptEntry::render).collect()
    }
}

/// Many named engine sessions; the default session is `"main"`.
///
/// Every session the hub creates loads datasets through one shared
/// [`DatasetCache`], so N sessions loading the same file cost one parse.
/// A sharded transport goes one step further and hands the *same* cache
/// to every hub (see [`EngineHub::with_cache`]).
pub struct EngineHub {
    scene: (usize, usize),
    cache: DatasetCache,
    sessions: BTreeMap<SessionId, Engine>,
}

impl Default for EngineHub {
    fn default() -> Self {
        EngineHub::new()
    }
}

impl EngineHub {
    /// Hub whose engines use the default scene size.
    pub fn new() -> Self {
        EngineHub::with_scene(
            crate::engine::DEFAULT_SCENE.0,
            crate::engine::DEFAULT_SCENE.1,
        )
    }

    /// Hub whose engines resolve damage against `scene_w × scene_h`.
    pub fn with_scene(scene_w: usize, scene_h: usize) -> Self {
        EngineHub::with_cache(scene_w, scene_h, DatasetCache::new())
    }

    /// Hub whose sessions load through a caller-provided [`DatasetCache`]
    /// — the hook a sharded transport uses to share one cache across
    /// every shard's hub.
    pub fn with_cache(scene_w: usize, scene_h: usize, cache: DatasetCache) -> Self {
        EngineHub {
            scene: (scene_w, scene_h),
            cache,
            sessions: BTreeMap::new(),
        }
    }

    /// The dataset cache this hub's sessions share.
    pub fn cache(&self) -> &DatasetCache {
        &self.cache
    }

    /// Snapshot of the shared cache's gauges (entries / hits / misses /
    /// evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The default session id.
    pub fn default_session() -> SessionId {
        SessionId("main".to_string())
    }

    /// Number of live sessions.
    pub fn n_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Every live session with its loaded-dataset count, sorted by name —
    /// the per-hub half of a cross-shard `list-sessions` (a sharded
    /// transport fans this out over its workers and merges the replies).
    pub fn list_sessions(&self) -> Vec<(SessionId, usize)> {
        self.sessions
            .iter()
            .map(|(id, engine)| (id.clone(), engine.session().n_datasets()))
            .collect()
    }

    /// The engine behind `id`, created empty on first use.
    pub fn engine(&mut self, id: &SessionId) -> &mut Engine {
        let scene = self.scene;
        let cache = self.cache.clone();
        self.sessions
            .entry(id.clone())
            .or_insert_with(|| Engine::with_scene_and_cache(scene.0, scene.1, cache))
    }

    /// Read-only engine access; `None` until the session exists.
    pub fn get(&self, id: &SessionId) -> Option<&Engine> {
        self.sessions.get(id)
    }

    /// Drop a session and everything it owns. Returns whether it existed.
    pub fn close(&mut self, id: &SessionId) -> bool {
        self.sessions.remove(id).is_some()
    }

    /// Remove the session and hand its engine out — [`EngineHub::close`]
    /// for an embedder that wants the engine back. fv-net does not move
    /// sessions this way (it copies an image and closes the source once
    /// the copy is confirmed); `fvbench`'s staged restore pass does.
    pub fn take_session(&mut self, id: &SessionId) -> Option<Engine> {
        self.sessions.remove(id)
    }

    /// Install an engine (in fv-net: one [`Engine::restore`] rebuilt from
    /// an image) under `id`. Returns `false` (and drops the incoming
    /// engine) if a session with that name already lives here; routing
    /// guarantees callers never hit that in practice.
    pub fn install_session(&mut self, id: &SessionId, engine: Engine) -> bool {
        match self.sessions.entry(id.clone()) {
            std::collections::btree_map::Entry::Occupied(_) => false,
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(engine);
                true
            }
        }
    }

    /// Execute one request against a named session.
    pub fn execute_on(&mut self, id: &SessionId, request: &Request) -> Result<Response, ApiError> {
        self.engine(id).execute(request)
    }

    /// Execute a request run against a named session — the entry point
    /// both script replay and network transports use for contiguous
    /// same-session request runs. Responses (damage rects included) are
    /// identical to sequential [`EngineHub::execute_on`] calls
    /// (see [`Engine::execute_run`]).
    ///
    /// Session lifecycle: a session this call implicitly creates is
    /// **rolled back** if the run's very first request fails — an error
    /// must not leave a partially-created session behind. Once any
    /// request has succeeded the session stays, whatever happens later
    /// (mutations are never rolled back). A session materialized
    /// beforehand (by `use`, [`EngineHub::engine`], or an earlier run) is
    /// never removed.
    pub fn execute_run_on(&mut self, id: &SessionId, requests: &[Request]) -> RunOutcome {
        let created = !self.sessions.contains_key(id);
        let outcome = self.engine(id).execute_run(requests);
        if created && outcome.responses.is_empty() && outcome.error.is_some() {
            self.sessions.remove(id);
        }
        outcome
    }

    /// Replay a wire-format script. `use <name>` lines switch (and create)
    /// sessions, `close <name>` lines drop them; requests run against the
    /// current session, starting at `"main"`. Stops at the first error,
    /// reporting its script line.
    pub fn run_script(&mut self, text: &str) -> Result<ScriptOutcome, ApiError> {
        let mut entries = Vec::new();
        self.run_script_streaming(text, |e| entries.push(e.clone()))?;
        Ok(ScriptOutcome { entries })
    }

    /// Like [`EngineHub::run_script`], but hands each executed entry to
    /// `sink` as soon as its response exists — so a front end can emit the
    /// transcript incrementally, and the already-executed prefix survives
    /// a mid-script error (mutations are not rolled back; the transcript
    /// should not pretend they never ran).
    ///
    /// Contiguous same-session request lines execute as one *run* via
    /// [`EngineHub::execute_run_on`] — the exact grouping a network
    /// transport applies — so local replay and remote serving share both
    /// code path and semantics (including the rollback of a session whose
    /// first-ever request fails). `use <name>` materializes its session
    /// immediately and is itself never rolled back.
    pub fn run_script_streaming(
        &mut self,
        text: &str,
        mut sink: impl FnMut(&TranscriptEntry),
    ) -> Result<(), ApiError> {
        let lines = parse_script(text)?;
        let mut current = EngineHub::default_session();
        let mut i = 0;
        while i < lines.len() {
            match &lines[i].item {
                ScriptItem::Use(name) => {
                    current = SessionId::new(name.clone())?;
                    // `use` alone materializes the session
                    self.engine(&current);
                    i += 1;
                }
                ScriptItem::Close(name) => {
                    // Dropping a session is idempotent; a later `use` (or
                    // request routed at it) recreates it empty — never a
                    // stale-session error. The current session pointer is
                    // left alone even when it names the closed session.
                    let id = SessionId::new(name.clone())?;
                    self.close(&id);
                    i += 1;
                }
                ScriptItem::Request(_) => {
                    let start = i;
                    while i < lines.len() && matches!(lines[i].item, ScriptItem::Request(_)) {
                        i += 1;
                    }
                    let requests: Vec<Request> = lines[start..i]
                        .iter()
                        .map(|l| match &l.item {
                            ScriptItem::Request(r) => r.clone(),
                            _ => unreachable!("run holds only requests"),
                        })
                        .collect();
                    let outcome = self.execute_run_on(&current, &requests);
                    for (j, response) in outcome.responses.iter().enumerate() {
                        sink(&TranscriptEntry {
                            line_no: lines[start + j].line_no,
                            session: current.clone(),
                            request: requests[j].clone(),
                            response: response.clone(),
                        });
                    }
                    if let Some((idx, e)) = outcome.error {
                        return Err(e.at_line(lines[start + idx].line_no));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Mutation, Query};

    #[test]
    fn sessions_isolated() {
        let mut hub = EngineHub::with_scene(640, 480);
        let a = SessionId::new("a").unwrap();
        let b = SessionId::new("b").unwrap();
        hub.execute_on(
            &a,
            &Request::Mutate(Mutation::LoadScenario {
                n_genes: 60,
                seed: 1,
            }),
        )
        .unwrap();
        let info_a = hub
            .execute_on(&a, &Request::Query(Query::SessionInfo))
            .unwrap();
        let info_b = hub
            .execute_on(&b, &Request::Query(Query::SessionInfo))
            .unwrap();
        match (info_a, info_b) {
            (Response::SessionInfo(ia), Response::SessionInfo(ib)) => {
                assert_eq!(ia.n_datasets, 3);
                assert_eq!(ib.n_datasets, 0, "session b must be untouched");
            }
            other => panic!("wrong responses: {other:?}"),
        }
        assert_eq!(hub.n_sessions(), 2);
        assert!(hub.close(&b));
        assert!(!hub.close(&b));
    }

    #[test]
    fn list_sessions_reports_names_and_dataset_counts() {
        let mut hub = EngineHub::with_scene(640, 480);
        assert!(hub.list_sessions().is_empty());
        let b = SessionId::new("b").unwrap();
        hub.execute_on(
            &b,
            &Request::Mutate(Mutation::LoadScenario {
                n_genes: 60,
                seed: 1,
            }),
        )
        .unwrap();
        hub.engine(&SessionId::new("a").unwrap()); // materialized, empty
        let listed: Vec<(String, usize)> = hub
            .list_sessions()
            .into_iter()
            .map(|(id, n)| (id.to_string(), n))
            .collect();
        assert_eq!(listed, [("a".to_string(), 0), ("b".to_string(), 3)]);
    }

    #[test]
    fn script_switches_sessions() {
        let mut hub = EngineHub::with_scene(640, 480);
        let script = "\
# two sessions side by side
scenario 60 1
use other
scenario 60 2
search_select stress
use main
session_info
";
        let out = hub.run_script(script).unwrap();
        assert_eq!(out.entries.len(), 4);
        assert_eq!(out.entries[0].session.as_str(), "main");
        assert_eq!(out.entries[1].session.as_str(), "other");
        assert_eq!(out.entries[3].session.as_str(), "main");
        let transcript = out.transcript();
        assert!(transcript.contains("main:2> scenario 60 1"));
        assert!(transcript.contains("other:5> search_select stress"));
    }

    #[test]
    fn script_errors_name_the_line() {
        let mut hub = EngineHub::new();
        let err = hub.run_script("scenario 60 1\nimpute 99 3\n").unwrap_err();
        assert!(err.message.contains("line 2"), "{}", err.message);
        assert_eq!(err.code, crate::error::ErrorCode::NotFound);
    }

    #[test]
    fn replay_is_deterministic() {
        let script = "\
scenario 120 7
set_metric euclidean
set_linkage ward
cluster_all
search_select general stress response
scroll 2
render 320 240
session_info
";
        let mut h1 = EngineHub::with_scene(800, 600);
        let mut h2 = EngineHub::with_scene(800, 600);
        let t1 = h1.run_script(script).unwrap().transcript();
        let t2 = h2.run_script(script).unwrap().transcript();
        assert_eq!(t1, t2);
        assert!(t1.contains("frame 320x240 panes=3"));
    }

    #[test]
    fn bad_session_names_rejected() {
        assert!(SessionId::new("").is_err());
        assert!(SessionId::new("two words").is_err());
        assert!(SessionId::new("ok-name_1").is_ok());
    }

    #[test]
    fn script_transcript_identical_to_per_request_execution() {
        // Run-grouped replay must be byte-identical to naive per-request
        // execution — the property the remote transport's conformance
        // rests on.
        let script = "\
scenario 100 5
cluster_all
search_select stress
scroll 2
cluster_arrays 0
set_contrast 1 2.0
use other
scenario 100 5
order_by_relevance 0.3,0.9,0.1
select_region 2 0.2 0.7
session_info
";
        let mut grouped = EngineHub::with_scene(800, 600);
        let run_transcript = grouped.run_script(script).unwrap().transcript();
        // naive replay: one execute_on per parsed line
        let mut naive = EngineHub::with_scene(800, 600);
        let mut naive_transcript = String::new();
        let mut current = EngineHub::default_session();
        for line in crate::codec::parse_script(script).unwrap() {
            match line.item {
                crate::codec::ScriptItem::Use(name) => {
                    current = SessionId::new(name).unwrap();
                }
                crate::codec::ScriptItem::Close(name) => {
                    naive.close(&SessionId::new(name).unwrap());
                }
                crate::codec::ScriptItem::Request(request) => {
                    let response = naive.execute_on(&current, &request).unwrap();
                    naive_transcript.push_str(
                        &TranscriptEntry {
                            line_no: line.line_no,
                            session: current.clone(),
                            request,
                            response,
                        }
                        .render(),
                    );
                }
            }
        }
        assert_eq!(run_transcript, naive_transcript);
    }

    #[test]
    fn failed_first_request_rolls_back_created_session() {
        // Regression (session-lifecycle semantics): a session implicitly
        // created by a run whose FIRST request fails must not linger.
        let mut hub = EngineHub::new();
        let err = hub.run_script("impute 0 3\n").unwrap_err();
        assert_eq!(err.code, crate::error::ErrorCode::NotFound);
        assert_eq!(hub.n_sessions(), 0, "main must be rolled back");
        // …but once any request succeeded, the session stays, error or not.
        let err = hub.run_script("scenario 60 1\nimpute 99 3\n").unwrap_err();
        assert_eq!(err.code, crate::error::ErrorCode::NotFound);
        assert_eq!(hub.n_sessions(), 1, "main executed a request; it stays");
    }

    #[test]
    fn use_materializes_and_survives_later_errors() {
        // `use` is a materializing directive: the named session exists
        // even if the script then dies on another session — documented
        // semantics, pinned here.
        let mut hub = EngineHub::new();
        let err = hub
            .run_script("use a\nscenario 60 1\nuse b\nuse main\nimpute 0 3\n")
            .unwrap_err();
        assert_eq!(err.code, crate::error::ErrorCode::NotFound);
        let names: Vec<String> = hub
            .list_sessions()
            .iter()
            .map(|(s, _)| s.to_string())
            .collect();
        // `a` ran a request, `b` was materialized by `use`; `main`'s first
        // request failed but `use main` had already materialized it.
        assert_eq!(names, ["a", "b", "main"]);
    }

    #[test]
    fn use_after_close_recreates_the_session_cleanly() {
        // Regression: `use <name>` after `close <name>` in one script must
        // recreate the session empty — no stale-session error, no leftover
        // datasets from the closed incarnation.
        let mut hub = EngineHub::with_scene(640, 480);
        let script = "\
use scratch
scenario 60 1
close scratch
use scratch
session_info
";
        let out = hub.run_script(script).unwrap();
        assert_eq!(out.entries.len(), 2);
        match &out.entries[1].response {
            Response::SessionInfo(info) => {
                assert_eq!(info.n_datasets, 0, "recreated session starts empty");
            }
            other => panic!("wrong response: {other:?}"),
        }
        assert_eq!(hub.n_sessions(), 1);
        // closing a session that never existed is a quiet no-op
        hub.run_script("close never\nsession_info\n").unwrap();
    }

    #[test]
    fn sessions_share_one_parse_through_the_hub_cache() {
        let dir = std::env::temp_dir().join(format!("fv-hub-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.pcl");
        std::fs::write(
            &path,
            "ID\tNAME\tGWEIGHT\tc0\tc1\nG1\tG1\t1\t1.0\t2.0\nG2\tG2\t1\t3.0\t4.0\n",
        )
        .unwrap();
        let mut hub = EngineHub::with_scene(640, 480);
        let load = Request::Mutate(Mutation::LoadDataset {
            path: path.to_string_lossy().into_owned(),
        });
        for name in ["a", "b", "c"] {
            hub.execute_on(&SessionId::new(name).unwrap(), &load)
                .unwrap();
        }
        let stats = hub.cache_stats();
        assert_eq!(stats.misses, 1, "one parse for three sessions");
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.entries, 1);
        // the three sessions hold the *same* allocation
        let a = SessionId::new("a").unwrap();
        let b = SessionId::new("b").unwrap();
        let ha = hub.get(&a).unwrap().session().dataset_handle(0).clone();
        let hb = hub.get(&b).unwrap().session().dataset_handle(0).clone();
        assert!(std::sync::Arc::ptr_eq(&ha, &hb));
        drop((ha, hb));
        // closing every holder frees the entry — the cache never leaks
        for name in ["a", "b", "c"] {
            hub.close(&SessionId::new(name).unwrap());
        }
        assert_eq!(hub.cache_stats().entries, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_costs_track_attempted_requests_and_dataset_bytes() {
        let mut hub = EngineHub::with_scene(640, 480);
        let a = SessionId::new("a").unwrap();
        let b = SessionId::new("b").unwrap();
        hub.execute_on(
            &a,
            &Request::Mutate(Mutation::LoadScenario {
                n_genes: 60,
                seed: 1,
            }),
        )
        .unwrap();
        hub.execute_on(&a, &Request::Query(Query::SessionInfo))
            .unwrap();
        hub.engine(&b); // materialized, never executed anything
        let cost = |hub: &EngineHub, id| hub.get(id).expect("a live session").cost();
        assert_eq!(hub.list_sessions(), [(a.clone(), 3), (b.clone(), 0)]);
        assert_eq!(cost(&hub, &a).requests, 2);
        assert!(
            cost(&hub, &a).dataset_bytes > 0,
            "scenario datasets have size"
        );
        assert_eq!(cost(&hub, &b), crate::engine::EngineCost::default());
        // A failing request is attempted — it counts, exactly like the
        // shard latency histograms count it.
        let _ = hub.execute_on(&a, &Request::Mutate(Mutation::Impute { dataset: 9, k: 3 }));
        assert_eq!(cost(&hub, &a).requests, 3);
        // Taking an engine out and installing it back loses nothing, and
        // an occupied name refuses the newcomer.
        let engine = hub.take_session(&a).unwrap();
        assert!(hub.get(&a).is_none());
        assert!(hub.install_session(&a, engine));
        assert_eq!(cost(&hub, &a).requests, 3);
        assert!(!hub.install_session(&a, Engine::new()));
        assert_eq!(cost(&hub, &a).requests, 3);
    }

    #[test]
    fn run_on_fresh_session_rolls_back_only_if_nothing_succeeded() {
        let mut hub = EngineHub::new();
        let id = SessionId::new("fresh").unwrap();
        let outcome = hub.execute_run_on(
            &id,
            &[Request::Mutate(Mutation::Impute { dataset: 0, k: 3 })],
        );
        assert!(outcome.error.is_some());
        assert_eq!(hub.n_sessions(), 0);
        // empty run (the `use` materialization path) keeps the session
        let outcome = hub.execute_run_on(&id, &[]);
        assert!(outcome.error.is_none());
        assert_eq!(hub.n_sessions(), 1);
    }
}
