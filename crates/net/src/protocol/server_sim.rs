//! Whole-server simulation: the real [`Core`] over parked shards, driven
//! by **one seeded loop** — no thread, no process, no socket, no clock,
//! no sleep (`protocol.rs` denies `clippy::disallowed_types` for this
//! child module too, and `clippy::disallowed_methods` is denied
//! workspace-wide: see `clippy.toml`). A [`World`] is N scripted
//! connections, 2–4 parked shards of one backend and one core — process
//! shards in about half the worlds, every op of theirs through the shard
//! codec; [`World::step`] is the step alphabet, [`World::check`]
//! what the service must answer for after every step, [`World::finish`]
//! what it must answer for once everything has come to rest. The three
//! lists are spelled out in `crates/net/README.md` ("Shell and core").
//!
//! A failure prints the seed, the step and the tail of the step log. To
//! re-run it, put the seed in [`replay_one_seed`]:
//! `cargo test -p fv-net replay_one_seed -- --ignored`.

use super::tests::Rig;
use super::*;
use crate::balance::BalanceConfig;
use crate::frame::{decode_replies, Reply, ReplyAssembler};
use crate::metrics::{parse_stats, LatencyHistogram};
use crate::shard::{answer_run, session_reports};
use crate::ShardBackendConfig;
use fv_api::{parse_session_image, CacheStats, Engine, ErrorCode};
use fv_wall::stream::{decode, max_payload_len, FrameKind, TileAssembler, TileFrame};
use fv_wall::tile::Viewport;
use std::collections::BTreeSet;
use std::fmt::Write;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Deterministic xorshift64* — the simulation's only source of choice.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) % bound.max(1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len())]
    }
}

// ── scripts, and what the grammar owes their lines ──────────────────────

const NAMES: [&str; 4] = ["a", "b", "c", "main"];
/// The grids viewers subscribe through. The last divides no scene. The
/// one before cuts only the wall-sized scene, into 3×3-pixel tiles: its
/// keyframe's 12 288 frame headers alone cross `OUTBOX_HIGH_WATER`,
/// whatever the wall shows, so a viewer whose transport stops taking
/// bytes is dropped to a keyframe.
const GRIDS: [(usize, usize); 5] = [(2, 2), (1, 1), (4, 2), (128, 96), (7, 3)];
const REQUESTS: &str = "scroll 1|scroll 3|scroll 0|select_region 0 0.1 0.8|search_select strëss\
    |set_contrast 0 1.5|toggle_sync|session_info|list_datasets|impute 9 3|cluster_all|cluster_all\
    |set_metric spearman|set_linkage average|normalize all zscore|cluster_arrays 0\
    |select_genes G1,G3,G6|clear_selection|search stress|spell 3 G1,G2|export_selection coverage\
    |render 32 24";
const CONTROL: &str = "ping|stats|list-sessions|list-sessions|balance|balance auto|balance off\
    |close|unsubscribe||# a comment|wat 7|use two words|subscribe a 4by2";

/// A connection's script: wire lines, some CRLF, some not UTF-8.
fn script(rng: &mut Rng, pcl: &str, n_shards: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for _ in 0..6 + rng.below(14) {
        let s = rng.pick(&NAMES[..3]);
        let any =
            |rng: &mut Rng, of: &str| rng.pick(&of.split('|').collect::<Vec<_>>()).to_string();
        let line = match rng.below(46) {
            0..=4 => format!("use {s}"),
            5..=6 => format!("load {pcl}"),
            // One past the last shard is `E_INVALID`.
            7..=9 => format!("migrate {s} {}", rng.below(n_shards + 1)),
            10..=11 => format!("close {s}"),
            12..=14 => {
                let (tx, ty) = rng.pick(&GRIDS);
                format!("subscribe {s} {tx}x{ty}")
            }
            15 => format!("ack {}", rng.below(40)),
            // Too long: reported before its newline arrives.
            16 if rng.below(2) == 0 => "x".repeat(MAX_LINE + 1 + rng.below(64)),
            17..=24 => any(rng, CONTROL),
            _ => any(rng, REQUESTS),
        };
        bytes.extend_from_slice(line.as_bytes());
        if !line.is_empty() && rng.below(50) == 0 {
            let at = bytes.len() - 1 - rng.below(line.len());
            bytes[at] = 0xff;
        }
        bytes.extend_from_slice(if rng.below(5) == 0 { b"\r\n" } else { b"\n" });
    }
    bytes
}

/// What the one frame answering a line must be.
#[derive(Debug)]
enum Kind {
    /// `ok` with exactly this ack; `true` where the state of the server
    /// may answer a typed `err` instead (a `migrate`).
    Ack(ControlReply, bool),
    /// `ok` with the `unsubscribed` ack that names the session watched
    /// when it is answered, if any.
    Unsubscribe,
    /// `ok` with a `stats` snapshot.
    Stats,
    /// `ok` with a `list-sessions` listing, each session once.
    Sessions,
    /// `ok` with a `balance` status.
    Balance,
    /// A typed `E_PARSE` / `E_INVALID`, the connection surviving.
    Reject,
    /// An engine request: `E_BUSY`, or the next frame its run produced.
    Request,
}

/// What the grammar owes `line` on a server of `config`'s shape —
/// `None` for a blank, a comment or an `ack`, which are not answered.
/// `session` follows the connection's session pointer the way the core
/// will.
fn owed(
    line: Result<String, LineFault>,
    session: &mut String,
    config: &ServerConfig,
) -> Option<Kind> {
    use ScriptItem::{Close, Request, Use};
    let (w, h) = config.scene;
    let kind = match line.map(|text| fv_api::parse_wire_line(&text)) {
        Ok(Ok(item)) => match item? {
            WireItem::Ping => Kind::Ack(ControlReply::Pong {}, false),
            WireItem::Script(Use(name)) => {
                *session = name.clone();
                Kind::Ack(ControlReply::Using { session: name }, false)
            }
            WireItem::Script(Close(session)) => Kind::Ack(ControlReply::Closed { session }, false),
            WireItem::Close => {
                let session = std::mem::replace(session, "main".into());
                Kind::Ack(ControlReply::Closed { session }, false)
            }
            WireItem::Stats => Kind::Stats,
            WireItem::ListSessions => Kind::Sessions,
            WireItem::Balance { set: None } => Kind::Balance,
            WireItem::Balance { set: Some(mode) } => {
                Kind::Ack(ControlReply::Balance { mode }, false)
            }
            WireItem::Migrate { shard, .. } if shard >= config.shards => Kind::Reject,
            WireItem::Migrate { session, shard } => {
                Kind::Ack(ControlReply::Migrated { session, shard }, true)
            }
            WireItem::Subscribe {
                tiles: (tx, ty), ..
            } if w % tx != 0 || h % ty != 0 => Kind::Reject,
            WireItem::Subscribe { session, tiles } => {
                let wall = config.scene;
                Kind::Ack(
                    ControlReply::Subscribed {
                        session,
                        tiles,
                        wall,
                    },
                    false,
                )
            }
            WireItem::Unsubscribe => Kind::Unsubscribe,
            WireItem::Script(Request(_)) => Kind::Request,
            WireItem::Ack { .. } | WireItem::Shutdown => return None,
        },
        // A framing fault, or a line the grammar does not know.
        _ => Kind::Reject,
    };
    Some(kind)
}

// ── the client side of one connection ───────────────────────────────────

#[derive(Default)]
struct Client {
    id: u64,
    /// The script, how much of it the core has had, and the client's
    /// own framing of that much.
    script: Vec<u8>,
    fed: usize,
    framer: FrameBuf,
    session: String,
    /// What each line the core has but has not answered is owed, oldest
    /// first.
    asked: VecDeque<Kind>,
    /// What the shards answered this connection's runs, oldest first.
    produced: VecDeque<Reply>,
    /// Per request line the step it arrived at and, once answered,
    /// `(step, busy)` — what the `E_BUSY` bound is judged from.
    marks: Vec<(usize, Option<(usize, bool)>)>,
    /// Outbox bytes already decoded, and the undecoded tail.
    seen: usize,
    tail: Vec<u8>,
    text: ReplyAssembler,
    heard: Vec<Reply>,
    /// A `use` or `subscribe` was answered and its empty run is not back
    /// from its shard: no line waits on it, yet the connection owes it.
    materializing: bool,
    /// Between `subscribed` and `unsubscribed`: the session watched and
    /// the wall its tile frames assemble into.
    viewer: Option<(String, TileAssembler)>,
    eof: bool,
    gone: bool,
}

// ── the oracle ──────────────────────────────────────────────────────────

/// One fresh hub per shard, replaying the ops that shard served, and
/// the counters its report owes: non-empty runs, attempted requests and
/// the largest run.
struct Oracle {
    scene: (usize, usize),
    hubs: Vec<EngineHub>,
    counters: Vec<(u64, u64, usize)>,
}

/// The head of a debug-formatted op: an install's image is long.
struct Brief(String);

impl Write for Brief {
    fn write_str(&mut self, part: &str) -> std::fmt::Result {
        self.0.push_str(part);
        (self.0.len() < 100).then_some(()).ok_or(std::fmt::Error)
    }
}

fn sid(name: &str) -> SessionId {
    SessionId::new(name).expect("a valid session name")
}

/// The part of a reply the oracle answers for.
fn essence(reply: &ShardReply) -> String {
    match reply {
        ShardReply::Run(done) => {
            assert!(done.dropped.is_none(), "a request panicked");
            String::from_utf8_lossy(&done.reply).into_owned()
        }
        ShardReply::Closed(closed) => closed.to_string(),
        ShardReply::Installed(outcome) => format!("{outcome:?}"),
        ShardReply::Image(image) => format!("{image:?}"),
        // What its cache gauges owe is judged at the end, against the
        // shards' own caches.
        ShardReply::Report(r) => {
            let counters = (r.shard, r.runs, r.requests, r.max_run);
            format!("{:?}", (counters, &r.latency, &r.sessions))
        }
    }
}

/// Whether dead shard `k` answered with the process backend's refusal:
/// `E_SHARD_DOWN` where the reply carries an error, nothing elsewhere.
fn refused(reply: &ShardReply, k: usize) -> bool {
    let down = |e: &ApiError| e.code == ErrorCode::ShardDown;
    match reply {
        ShardReply::Run(done) => {
            let replies = decode_replies(&done.reply).expect("a run answers whole frames");
            replies.first().is_none_or(|r| r.as_ref().is_err_and(down))
        }
        ShardReply::Installed(outcome) => outcome.as_ref().is_err_and(down),
        ShardReply::Closed(existed) => !existed,
        ShardReply::Image(image) => image.is_none(),
        ShardReply::Report(r) => *r == ShardReport::empty(k),
    }
}

impl Oracle {
    fn holders(&self, session: &str) -> Vec<usize> {
        let holds = |k: &usize| self.hubs[*k].get(&sid(session)).is_some();
        (0..self.hubs.len()).filter(holds).collect()
    }

    fn sessions(&self) -> BTreeSet<String> {
        let all = self.hubs.iter().flat_map(EngineHub::list_sessions);
        all.map(|(id, _)| id.to_string()).collect()
    }

    /// The scene averaged afresh from the cells, so a stale kept grid on
    /// a shard cannot hide behind an equally stale one here.
    fn render(&self, engine: &Engine) -> Vec<u8> {
        let (w, h) = self.scene;
        let wall = forestview::renderer::render_desktop_uncached(engine.session(), w, h);
        wall.bytes().to_vec()
    }

    /// Replay `op` on shard `k`'s hub; the [`essence`] of its answer.
    fn replay(&mut self, k: usize, op: &ShardOp) -> String {
        let (hub, counters) = (&mut self.hubs[k], &mut self.counters[k]);
        match op {
            ShardOp::Run {
                session, requests, ..
            } => {
                let outcome = hub.execute_run_on(session, requests);
                if !requests.is_empty() {
                    counters.0 += 1;
                    counters.1 += outcome.latencies.len() as u64;
                    counters.2 = counters.2.max(requests.len());
                }
                String::from_utf8_lossy(&answer_run(&outcome, requests.len()).0).into_owned()
            }
            ShardOp::Close { session, .. } => hub.close(session).to_string(),
            ShardOp::Install { session, image } => {
                // Routing never installs a session where it lives.
                assert!(hub.get(session).is_none(), "{session} installed twice");
                let installed = Engine::restore(image, hub.cache()).map(|engine| {
                    hub.install_session(session, engine);
                });
                format!("{installed:?}")
            }
            ShardOp::Snapshot { session } => {
                format!("{:?}", hub.get(session).map(Engine::snapshot))
            }
            ShardOp::Report => {
                let (runs, requests, max_run) = *counters;
                // A parked shard observes every request at 0 µs.
                let mut latency = LatencyHistogram::new();
                latency.counts[0] = requests;
                let counters = (k, runs, requests, max_run);
                format!("{:?}", (counters, &latency, &session_reports(hub)))
            }
        }
    }
}

// ── the world ───────────────────────────────────────────────────────────

struct World {
    seed: u64,
    rng: Rng,
    steps: usize,
    log: Vec<String>,
    config: ServerConfig,
    rig: Rig,
    oracle: Oracle,
    clients: Vec<Client>,
    pcl: std::path::PathBuf,
    tampered: bool,
    down: Option<usize>,
    /// A second handle on the state directory, if there is one.
    store: Option<SessionStore>,
    /// Per shard, oldest first: the session of each reply it served and
    /// has not delivered, if the op was a run.
    runs: Vec<VecDeque<Option<String>>>,
    /// A shard served or a completion landed since the last check.
    moved: bool,
    /// The sessions that lived on the shard that went down.
    lost: BTreeSet<String>,
    /// The sessions some hub held at the last check.
    held: Vec<String>,
    /// Framing faults the clients' own framers saw.
    garbage: u64,
    /// Connections retired while they still owed something: a line
    /// unanswered, a byte not taken, or a `use` or `subscribe`
    /// materializing.
    dirty: u64,
    /// See [`most_owed`].
    most_owed: usize,
}

impl Drop for World {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let tail = &self.log[self.log.len().saturating_sub(30)..];
            let (seed, steps) = (self.seed, self.steps);
            eprintln!("server_sim: seed {seed} failed at step {steps}; the step log ends");
            eprintln!("  {}", tail.join("\n  "));
        }
        std::fs::remove_file(&self.pcl).ok();
        if let Some(dir) = &self.config.state_dir {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// The most bytes an outbox may owe in a `scene`-sized world. Below the
/// watermark nothing stops a drain, and past it nothing more is packed,
/// so at most one burst rides over it — a frame per tile of the finest
/// grid, each as long as a frame of that tile can be — with replies
/// beside.
fn most_owed((w, h): (usize, usize)) -> usize {
    let grids = GRIDS.iter().filter(|&&(tx, ty)| w % tx == 0 && h % ty == 0);
    let tiles = grids.map(|(tx, ty)| tx * ty).max().unwrap_or(1);
    let payload = max_payload_len(w * h / tiles).expect("a tile's payload fits");
    let longest = TileFrame {
        seq: u64::MAX,
        kind: FrameKind::Delta,
        tile: tiles,
        rect: Viewport { x: w, y: h, w, h },
        payload: vec![0; payload],
    };
    OUTBOX_HIGH_WATER + tiles * longest.encoded_len() + 16 * 1024
}

const PCL: &str = "ID\tNAME\tGWEIGHT\tc0\tc1\tc2\tc3\n\
    G1\tstress one\t1\t1.0\t2.0\t3.0\t4.0\nG2\tstress two\t1\t1.1\t2.1\t\t4.1\n\
    G3\tthree\t1\t0.9\t1.9\t2.9\t3.9\nG4\tfour\t1\t-1.0\t0.5\t-2.0\t0.0\n\
    G5\tfive\t1\t0.2\t-0.3\t1.2\t-1.1\nG6\tstrëss six\t1\t2.0\t1.0\t0.0\t-1.0\n";

impl World {
    fn new(seed: u64) -> World {
        let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        // On tmpfs where the box has one: every run of a durable world
        // saves its session with an fsync, and the sweep's tens of
        // thousands cost a disk tens of seconds.
        let root = std::path::Path::new("/dev/shm");
        let root = root.is_dir().then(|| root.to_path_buf());
        let root = root.unwrap_or_else(std::env::temp_dir);
        // Worlds of one seed run side by side (tests are threads); the
        // fixed width keeps a script's length, and so its chunking, put.
        static WORLDS: AtomicUsize = AtomicUsize::new(0);
        let nth = WORLDS.fetch_add(1, Ordering::Relaxed);
        let scratch = root.join(format!("fv-sim-{}-{nth:06}", std::process::id()));
        let pcl = scratch.with_extension("pcl");
        std::fs::write(&pcl, PCL).expect("write the shared PCL");
        let _ = std::fs::remove_dir_all(&scratch);
        let config = ServerConfig {
            shards: 2 + rng.below(3),
            // One scene in five is wall-sized (see `GRIDS`).
            scene: rng.pick(&[(64, 48), (64, 48), (64, 48), (160, 120), (384, 288)]),
            queue_limit: 3 + rng.below(6),
            balance: rng.pick(&[BalanceMode::Off, BalanceMode::Auto]),
            balance_cfg: BalanceConfig {
                budget: 1 + rng.below(2),
                min_total_load: 1,
                cooldown_ticks: 2,
                ..BalanceConfig::default()
            },
            state_dir: (rng.below(2) == 0).then_some(scratch),
            // Parked either way: process shards spawn no child here.
            backend: match rng.below(2) {
                0 => ShardBackendConfig::Threads,
                _ => ShardBackendConfig::Procs {
                    worker_cmd: Vec::new(),
                },
            },
            ..ServerConfig::default()
        };
        let (w, h) = config.scene;
        let hubs = (0..config.shards).map(|_| EngineHub::with_scene(w, h));
        let runs = vec![VecDeque::new(); config.shards];
        let store = config.state_dir.as_deref().map(SessionStore::open);
        let mut world = World {
            seed,
            rng,
            steps: 0,
            log: Vec::new(),
            most_owed: most_owed(config.scene),
            rig: Rig::new(config.clone()),
            oracle: Oracle {
                scene: config.scene,
                hubs: hubs.collect(),
                counters: vec![(0, 0, 0); config.shards],
            },
            config,
            clients: Vec::new(),
            pcl,
            tampered: false,
            down: None,
            store: store.map(|store| store.expect("open the store")),
            runs,
            moved: false,
            lost: BTreeSet::new(),
            held: Vec::new(),
            garbage: 0,
            dirty: 0,
        };
        for _ in 0..4 + world.rng.below(3) {
            world.connect();
        }
        world
    }

    fn procs(&self) -> bool {
        matches!(self.config.backend, ShardBackendConfig::Procs { .. })
    }

    fn note(&mut self, what: String) {
        self.steps += 1;
        self.log.push(what);
    }

    // ── steps ───────────────────────────────────────────────────────────

    fn connect(&mut self) {
        let pcl = self.pcl.display().to_string();
        let script = script(&mut self.rng, &pcl, self.config.shards);
        self.open(script);
    }

    fn open(&mut self, script: Vec<u8>) -> usize {
        let id = self.rig.core.open();
        self.note(format!("open c{id}"));
        self.clients.push(Client {
            id,
            script,
            session: "main".into(),
            ..Client::default()
        });
        self.clients.len() - 1
    }

    fn can_feed(&self, c: usize) -> bool {
        let client = &self.clients[c];
        let conn = self.rig.core.conns().get(&client.id);
        !client.eof && client.fed < client.script.len() && conn.is_some_and(Conn::wants_read)
    }

    fn feed(&mut self, c: usize, n: usize) {
        let step = self.steps;
        let client = &mut self.clients[c];
        let chunk = client.fed..(client.fed + n).min(client.script.len());
        client.fed = chunk.end;
        client.framer.feed(&client.script[chunk.clone()]);
        while let Some(line) = client.framer.next_line() {
            self.garbage += line.is_err() as u64;
            let Some(kind) = owed(line, &mut client.session, &self.config) else {
                continue;
            };
            if let Kind::Request = kind {
                client.marks.push((step, None));
            }
            client.asked.push_back(kind);
        }
        let id = client.id;
        self.rig.core.ingest(id, &client.script[chunk.clone()]);
        self.note(format!("feed c{id} {chunk:?}"));
    }

    /// The core drops connection `c` where it stands. A `close` it
    /// dispatched is the core's to finish.
    fn retire(&mut self, c: usize) {
        let client = &mut self.clients[c];
        // `seen` is what the transport heard and has not taken.
        let owes = !client.asked.is_empty() || client.seen > 0 || client.materializing;
        self.dirty += owes as u64;
        client.asked.clear();
        client.gone = true;
        self.rig.core.close(client.id);
    }

    fn serve(&mut self, k: usize) -> bool {
        let (oracle, live) = (&mut self.oracle, self.down != Some(k));
        let mut what = Brief(String::new());
        let mut ran = None;
        let peek = |op: &ShardOp| {
            let _ = write!(what, "{op:?}");
            if let ShardOp::Run { session, .. } = op {
                ran = Some(session.to_string());
            }
            live.then(|| oracle.replay(k, op))
        };
        let Some((want, reply)) = self.rig.parked.serve(k, peek) else {
            return false;
        };
        self.runs[k].push_back(ran);
        match want {
            Some(want) => assert_eq!(essence(reply), want, "shard {k} on {}", what.0),
            None => assert!(refused(reply, k), "dead shard {k} on {}: {reply:?}", what.0),
        }
        self.moved = true;
        // The scratch names differ from world to world of one seed.
        let what = what.0.split("fv-sim-").next().unwrap_or_default();
        self.note(format!("serve k{k} {what}"));
        true
    }

    fn deliver(&mut self, k: usize) -> bool {
        let Some(done) = self.rig.next_completion(k) else {
            return false;
        };
        let ran = self.runs[k].pop_front().expect("a served op");
        if let Some(session) = ran {
            self.judge_file(&session);
        }
        let to = format!("{:?}", done.to);
        if let (Waiter::Conn(id), ShardReply::Run(run)) = (&done.to, &done.reply) {
            let client = self.clients.iter_mut().find(|c| c.id == *id && !c.gone);
            let conn = self.rig.core.conns().get(id);
            if let (Some(client), Some(_)) = (client, conn) {
                // What the core is about to write: the frames the shard
                // answered the run with.
                client.materializing = false;
                let replies = decode_replies(&run.reply).expect("a run answers whole frames");
                assert_eq!(replies.len(), run.frames, "a run's frame count");
                client.produced.extend(replies);
            }
        }
        self.rig.core.on_completion(done);
        self.moved = true;
        self.note(format!("deliver k{k} to {to}"));
        true
    }

    /// The transport took `n` bytes, and reports room the way the shell
    /// does: with an empty progress call.
    fn wrote(&mut self, c: usize, n: usize) {
        let id = self.clients[c].id;
        self.rig.core.wrote(id, n);
        self.clients[c].seen -= n;
        self.rig.core.ingest(id, b"");
        self.note(format!("wrote c{id} {n}"));
    }

    fn owes(&self, c: usize) -> usize {
        let conn = self.rig.core.conns().get(&self.clients[c].id);
        conn.map_or(0, |conn| conn.outbox().len())
    }

    fn step(&mut self) {
        let n = self.config.shards;
        let clients = 0..self.clients.len();
        let live: Vec<usize> = clients.filter(|&c| !self.clients[c].gone).collect();
        match self.rng.below(100) {
            0..=2 => {
                let started = self.rig.core.tick();
                return self.note(format!("tick started={started}"));
            }
            3 | 4 if !live.is_empty() => {
                let c = self.rng.pick(&live);
                let id = self.clients[c].id;
                if self.rng.below(2) == 0 {
                    self.clients[c].eof = true;
                    self.rig.core.hangup(id);
                    return self.note(format!("hangup c{id}"));
                }
                self.retire(c);
                return self.note(format!("close c{id}"));
            }
            // Only a process shard dies alone, and only without a state
            // directory: a dead shard's sessions keep their checkpoints,
            // by design.
            5 if self.procs() && self.config.state_dir.is_none() && self.down.is_none() => {
                let k = self.rng.below(n);
                self.rig.parked.kill(k);
                let (w, h) = self.config.scene;
                let hub = std::mem::replace(&mut self.oracle.hubs[k], EngineHub::with_scene(w, h));
                let lost = hub.list_sessions().into_iter();
                self.lost.extend(lost.map(|(id, _)| id.to_string()));
                (self.down, self.moved) = (Some(k), true);
                return self.note(format!("down k{k}"));
            }
            6 if !self.tampered => {
                self.tampered = true;
                let rewritten = format!("{PCL}G7\ttampered\t1\t0\t0\t0\t0\n");
                std::fs::write(&self.pcl, rewritten).expect("rewrite the PCL");
                return self.note("tamper".to_string());
            }
            7 => return self.connect(),
            _ => {}
        }
        // The everyday steps, weighted, among those that can be taken.
        let readers: Vec<usize> = live.iter().copied().filter(|&c| self.can_feed(c)).collect();
        let depths = self.rig.core.st.shards.queue_depths();
        let queued: Vec<usize> = (0..n).filter(|&k| depths[k] > 0).collect();
        let served: Vec<usize> = (0..n).filter(|&k| self.rig.parked.served(k) > 0).collect();
        let writers: Vec<usize> = live.iter().copied().filter(|&c| self.owes(c) > 0).collect();
        let menu = [(7, &readers), (4, &queued), (4, &served), (3, &writers)];
        let weigh = |i: usize| vec![i; if menu[i].1.is_empty() { 0 } else { menu[i].0 }];
        let menu: Vec<usize> = (0..4).flat_map(weigh).collect();
        let taken = menu.is_empty().then_some(4);
        match taken.unwrap_or_else(|| self.rng.pick(&menu)) {
            0 => {
                let c = self.rng.pick(&readers);
                let rest = &self.clients[c].script[self.clients[c].fed..];
                // Inside an oversized line the chunks are transport-sized.
                let long = rest.len() > 1000 && !rest[..1000].contains(&b'\n');
                let most = match self.rng.below(10) {
                    _ if long => 40_000,
                    0..=5 => 24,
                    _ => 200,
                };
                let n = 1 + self.rng.below(most);
                self.feed(c, n)
            }
            1 => {
                let k = self.rng.pick(&queued);
                self.serve(k);
            }
            2 => {
                let k = self.rng.pick(&served);
                self.deliver(k);
            }
            3 => {
                let c = self.rng.pick(&writers);
                let all = self.owes(c);
                let part = [all, 1 + self.rng.below(all), 1 + self.rng.below(all)];
                let n = self.rng.pick(&part);
                self.wrote(c, n)
            }
            _ => self.connect(),
        }
    }

    // ── invariants ──────────────────────────────────────────────────────

    /// Decode what `c`'s outbox gained and hold each frame to its line.
    fn hear(&mut self, c: usize) {
        let step = self.steps;
        let client = &mut self.clients[c];
        let Some(conn) = self.rig.core.conns().get(&client.id) else {
            return;
        };
        if conn.outbox().len() == client.seen {
            return;
        }
        client.tail.extend_from_slice(&conn.outbox()[client.seen..]);
        client.seen = conn.outbox().len();
        let mut at = 0;
        loop {
            let rest = &client.tail[at..];
            let tile = !client.text.mid_frame() && b"til".starts_with(&rest[..rest.len().min(3)]);
            if tile && rest.len() >= 3 {
                let Some((frame, used)) = decode(rest).expect("a well-formed tile frame") else {
                    break;
                };
                at += used;
                let (_, wall) = client.viewer.as_mut().expect("a tile frame, unsubscribed");
                let next = wall.last_seq().map_or(0, |s| s + 1);
                let gapless = frame.seq == next || Some(frame.seq) == wall.last_seq();
                assert!(gapless, "seq {} after {:?}", frame.seq, wall.last_seq());
                wall.apply(&frame).expect("the frame applies");
                continue;
            }
            let Some(end) = rest.iter().position(|&b| b == b'\n').filter(|_| !tile) else {
                break;
            };
            let text = std::str::from_utf8(&rest[..end]).expect("reply lines are UTF-8");
            at += end + 1;
            let Some(reply) = client.text.push_line(text).expect("a well-formed reply") else {
                continue;
            };
            let asked = client.asked.pop_front().expect("a frame no line asked for");
            let ack = |body: &str| fv_api::parse_control_reply(body).ok();
            let fits = match (&asked, &reply) {
                (Kind::Ack(want, _), Ok(body)) => ack(body).as_ref() == Some(want),
                (Kind::Ack(_, may_fail), Err(_)) => *may_fail,
                (Kind::Unsubscribe, Ok(body)) => {
                    let session = client.viewer.as_ref().map(|(session, _)| session.clone());
                    ack(body) == Some(ControlReply::Unsubscribed { session })
                }
                (Kind::Stats, Ok(body)) => parse_stats(body).is_ok(),
                // A session listed twice is out of name order too.
                (Kind::Sessions, Ok(body)) => fv_api::parse_sessions_reply(body)
                    .is_ok_and(|listed| listed.windows(2).all(|w| w[0].name < w[1].name)),
                (Kind::Balance, Ok(body)) => crate::balance::parse_balance(body).is_ok(),
                (Kind::Reject, Err(e)) => {
                    matches!(e.code, ErrorCode::Parse | ErrorCode::InvalidRequest)
                }
                (Kind::Request, Err(e)) if e.code == ErrorCode::Busy => true,
                (Kind::Request, reply) => {
                    let produced = client.produced.pop_front();
                    *reply == produced.expect("a response no shard produced")
                }
                _ => false,
            };
            assert!(fits, "c{}: {asked:?} answered {reply:?}", client.id);
            match (asked, &reply) {
                (Kind::Request, reply) => {
                    let busy = matches!(reply, Err(e) if e.code == ErrorCode::Busy);
                    let mark = client.marks.iter_mut().find(|m| m.1.is_none());
                    mark.expect("a request line arrived").1 = Some((step, busy));
                }
                (
                    Kind::Ack(
                        ControlReply::Subscribed {
                            session,
                            tiles,
                            wall,
                        },
                        _,
                    ),
                    Ok(_),
                ) => {
                    let ((tx, ty), (w, h)) = (tiles, wall);
                    let wall = TileAssembler::new(TileGrid::new(tx, ty, w / tx, h / ty));
                    client.viewer = Some((session, wall));
                    client.materializing = true;
                }
                (Kind::Ack(ControlReply::Using { .. }, _), Ok(_)) => client.materializing = true,
                (Kind::Unsubscribe, _) => client.viewer = None,
                _ => {}
            }
            client.heard.push(reply);
        }
        client.tail.drain(..at);
    }

    /// What must hold after every step.
    fn check(&mut self) {
        for c in 0..self.clients.len() {
            if !self.clients[c].gone {
                self.hear(c);
            }
        }
        // The shell retires a connection once it is finished.
        for id in self.rig.core.take_touched() {
            if self.rig.core.conns().get(&id).is_some_and(Conn::finished) {
                self.rig.core.close(id);
                let client = self.clients.iter_mut().find(|c| c.id == id && !c.gone);
                let client = client.expect("a connection the world opened");
                assert!(client.asked.is_empty(), "c{id} retired, a line unanswered");
                client.gone = true;
            }
        }
        let most = self.most_owed;
        for owed in self
            .rig
            .core
            .conns()
            .values()
            .map(|conn| conn.outbox().len())
        {
            assert!(owed <= most, "an outbox of {owed} bytes");
        }
        // Hubs and checkpoint files change when a shard serves; the
        // stall set when a completion lands.
        if !std::mem::take(&mut self.moved) {
            return;
        }
        let mut holders: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for k in 0..self.config.shards {
            let listed = self.oracle.hubs[k].list_sessions();
            if let Some(hub) = self.rig.parked.hub(k) {
                assert_eq!(hub.list_sessions(), listed, "shard {k}");
            }
            for (session, _) in listed {
                holders.entry(session.to_string()).or_default().push(k);
            }
        }
        // A close is a move to nowhere: it is in `moving` until its reply
        // lands, like a migration. A migration copies, confirms, then
        // deletes, so it never leaves a session in zero hubs.
        let moving = &self.rig.core.st.moving;
        let closing = |session: &str| moving.get(session) == Some(&None);
        for (session, at) in &holders {
            // One copy, one more while it moves.
            let placed = at.len() <= 1 + moving.contains_key(session) as usize;
            assert!(placed, "session {session} is on shards {at:?}");
        }
        for session in self.held.iter().filter(|s| !holders.contains_key(*s)) {
            let closed = closing(session) || self.lost.contains(session);
            assert!(
                closed,
                "session {session} is in zero hubs, and no close is in flight"
            );
        }
        self.held = holders.keys().cloned().collect();
        for session in NAMES.iter().filter(|s| !holders.contains_key(**s)) {
            let saved = |store: &SessionStore| store.checkpoint_path(&sid(session)).exists();
            let saved = self.store.as_ref().is_some_and(saved);
            assert!(
                !saved,
                "checkpoint files != live sessions: {session} is closed"
            );
        }
    }

    /// Durable at every ack: as a run's answer is delivered, its
    /// session's file parses and equals the oracle's snapshot of the
    /// session as it now stands, or there is no file if no shard holds
    /// the session (its run dropped it, or a close came after it).
    fn judge_file(&self, session: &str) {
        let Some(store) = &self.store else {
            return;
        };
        let text = std::fs::read_to_string(store.checkpoint_path(&sid(session))).ok();
        let parse = |text: String| parse_session_image(text.trim_end_matches('\n'));
        let saved = text.map(|text| parse(text).expect("the file parses"));
        // Mid-migration the session is on two shards, as one image.
        let holder = self.oracle.holders(session).first().copied();
        let live = holder.and_then(|k| self.oracle.hubs[k].get(&sid(session)));
        let live = live.map(Engine::snapshot);
        assert_eq!(saved, live, "the file of session {session} at its ack");
    }

    // ── quiescence ──────────────────────────────────────────────────────

    /// Everything in motion comes to rest: scripts end, shards drain,
    /// transports take every byte — round-robin, checked step by step.
    fn quiesce(&mut self) {
        let mut before = usize::MAX;
        while std::mem::replace(&mut before, self.steps) != self.steps {
            for c in 0..self.clients.len() {
                if !self.clients[c].gone && self.can_feed(c) {
                    self.feed(c, 4096);
                    self.check();
                }
                let owed = self.owes(c);
                if !self.clients[c].gone && owed > 0 {
                    self.wrote(c, owed);
                    self.check();
                }
            }
            for k in 0..self.config.shards {
                if self.serve(k) {
                    self.check();
                }
                if self.deliver(k) {
                    self.check();
                }
            }
        }
    }

    /// Bring the world to rest and hold it to the end-state guarantees.
    fn finish(mut self) -> Ending {
        self.quiesce();
        // A viewer that paces itself catches up, so its wall can be judged.
        for client in self.clients.iter().filter(|c| !c.gone && !c.eof) {
            let seq = client.viewer.as_ref().and_then(|(_, wall)| wall.last_seq());
            if let Some(seq) = seq {
                let ack = format!("ack {seq}\n");
                self.rig.core.ingest(client.id, ack.as_bytes());
            }
        }
        self.quiesce();
        let core = &self.rig.core;
        assert_eq!(core.st.in_flight, 0);
        assert!(core.st.moving.is_empty() && core.st.balance_gather.is_none());
        for client in self.clients.iter().filter(|c| !c.gone) {
            let conn = &core.conns()[&client.id];
            let idle = conn.inbox.is_empty() && conn.inflight.is_none();
            assert!(idle && client.asked.is_empty() && client.produced.is_empty());
        }
        // The fault counters count exactly the faults the clients made.
        assert_eq!(core.st.metrics.garbage_frames, self.garbage, "garbage");
        assert_eq!(core.st.metrics.dirty_disconnects, self.dirty, "disconnects");
        // `E_BUSY` went to exactly the requests that arrived with
        // `queue_limit` accepted ones still unanswered.
        for client in &self.clients {
            for (i, &(arrived, answered)) in client.marks.iter().enumerate() {
                let Some((_, busy)) = answered else {
                    break;
                };
                let earlier = client.marks[..i].iter();
                let pending = earlier.filter(|m| matches!(m.1, Some((at, false)) if at > arrived));
                let pending = pending.count();
                let full = pending >= self.config.queue_limit;
                assert_eq!(busy, full, "c{} request {i}", client.id);
            }
        }
        self.judge_checkpoints();
        self.judge_walls();
        let stats = self.probe();
        self.judge_caches(&stats);
        Ending {
            log: std::mem::take(&mut self.log),
            procs: self.procs(),
            dropped: stats.stream.dropped,
            moves: stats.balancer_moves,
        }
    }

    fn judge_checkpoints(&self) {
        let Some(store) = &self.store else {
            return;
        };
        let scan = store.scan().expect("the state directory scans");
        assert!(scan.corrupt.is_empty(), "{:?}", scan.corrupt);
        let saved = scan.sessions.iter().map(|(id, _)| id.to_string());
        let saved: BTreeSet<String> = saved.collect();
        let live = self.oracle.sessions();
        assert_eq!(saved, live, "checkpoint files != live sessions");
        for (session, image) in scan.sessions {
            let [k] = self.oracle.holders(session.as_str())[..] else {
                panic!("{session} is not on one shard");
            };
            let hub = &self.oracle.hubs[k];
            let engine = hub.get(&session).expect("its holder holds it");
            assert_eq!(image, engine.snapshot(), "the checkpoint of {session}");
            let stale = self.tampered && !image.datasets.is_empty();
            match Engine::restore(&image, hub.cache()) {
                Ok(restored) => {
                    assert!(self.oracle.render(&restored) == self.oracle.render(engine))
                }
                Err(e) => assert!(stale, "{session}: {e}"),
            }
        }
    }

    fn judge_walls(&self) {
        for client in self.clients.iter().filter(|c| !c.gone) {
            let Some((session, wall)) = &client.viewer else {
                continue;
            };
            let [k] = self.oracle.holders(session)[..] else {
                continue;
            };
            let engine = self.oracle.hubs[k].get(&sid(session));
            let engine = engine.expect("its holder holds it");
            let synced = wall.framebuffer().bytes() == &self.oracle.render(engine)[..];
            assert!(synced, "c{}'s wall is not session {session}", client.id);
        }
    }

    /// `stats`' cache gauges are the parked shards' own: the sum of each
    /// live process shard's cache, or the one cache thread shards share.
    fn judge_caches(&self, stats: &ServerStats) {
        let backend = if self.procs() { "procs" } else { "threads" };
        assert_eq!(stats.backend, backend);
        let caches = if self.procs() { self.config.shards } else { 1 };
        let caches = (0..caches).filter_map(|k| self.rig.parked.hub(k));
        let gauges = |c: CacheStats| {
            let [e, de] = [c.entries, c.derived_entries].map(|n| n as u64);
            [
                e,
                c.hits,
                c.misses,
                c.evictions,
                de,
                c.derived_hits,
                c.derived_misses,
            ]
        };
        let mut want = [0; 7];
        for cache in caches.map(EngineHub::cache_stats) {
            let sum = want.iter_mut().zip(gauges(cache));
            sum.for_each(|(w, g)| *w += g);
        }
        let got = CacheStats {
            entries: stats.cache_entries,
            hits: stats.cache_hits,
            misses: stats.cache_misses,
            evictions: stats.cache_evictions,
            derived_entries: stats.derived_entries,
            derived_hits: stats.derived_hits,
            derived_misses: stats.derived_misses,
        };
        assert_eq!(gauges(got), want, "stats' cache gauges");
    }

    /// Fresh connections probe each session, list them all and ask for
    /// `stats`, which comes back. The oracle judges every answer as the
    /// shards give it; here they must be `ok`.
    fn probe(&mut self) -> ServerStats {
        let sessions = self.oracle.sessions();
        let rendered = self.rng.below(sessions.len().max(1));
        let mut scripts = vec!["list-sessions\nstats\n".to_string()];
        for (i, session) in sessions.iter().enumerate() {
            // Every fourth seed: the render is most of a probe's cost.
            let render = i == rendered && self.seed.is_multiple_of(4);
            let render = if render { "render 160 120\n" } else { "" };
            let probe = format!("use {session}\nsession_info\nlist_datasets\n{render}");
            scripts.push(probe);
        }
        for script in scripts.into_iter().rev() {
            let c = self.open(script.into_bytes());
            self.quiesce();
            let heard = &self.clients[c].heard;
            let ok = !heard.is_empty() && heard.iter().all(Result::is_ok);
            assert!(ok, "{heard:?}");
        }
        let listing = self.clients.last().and_then(|c| c.heard[0].as_ref().ok());
        let listing = fv_api::parse_sessions_reply(listing.expect("an ok listing"));
        let listed = listing.expect("the listing parses").into_iter();
        let hubs = self.oracle.hubs.iter().enumerate();
        let held = hubs.flat_map(|(k, hub)| {
            let held = hub.list_sessions().into_iter();
            held.map(move |(id, n)| (id.to_string(), k, n))
        });
        let held: BTreeSet<_> = held.collect();
        let listed = listed.map(|s| (s.name, s.shard, s.n_datasets));
        assert!(listed.eq(held), "list-sessions is not the hubs' union");
        let stats = self.clients.last().and_then(|c| c.heard[1].as_ref().ok());
        parse_stats(stats.expect("an ok stats")).expect("stats parse")
    }
}

/// What a world came to: its step log, its backend, and what the sweep
/// needs some world to have done — drop a viewer to a keyframe, move a
/// session on the balancer's own plan.
#[derive(PartialEq)]
struct Ending {
    log: Vec<String>,
    procs: bool,
    dropped: u64,
    moves: u64,
}

/// One seed, start to finish.
fn run_seed(seed: u64, each_step: impl Fn()) -> Ending {
    let mut world = World::new(seed);
    while world.steps < 150 {
        world.step();
        world.check();
        each_step();
    }
    world.finish()
}

#[test]
fn five_hundred_seeds_hold_every_invariant() {
    let (mut procs, mut dropped, mut moves) = (0, 0, [0, 0]);
    for seed in 0..500 {
        let end = run_seed(seed, || ());
        procs += end.procs as usize;
        dropped += end.dropped;
        moves[end.procs as usize] += end.moves;
    }
    // Both backends run, and under each the balancer moves sessions on
    // the reports it gathered.
    assert!(
        0 < procs && procs < 500,
        "{procs} of 500 worlds ran process shards"
    );
    assert!(
        moves.iter().all(|&m| m > 0),
        "balancer moves by backend: {moves:?}"
    );
    // Else no seed crosses the watermark, and `judge_walls` never sees
    // a viewer that was re-synced from a keyframe.
    assert!(dropped > 0, "no viewer was dropped to a keyframe");
}

#[test]
fn the_same_seed_takes_the_same_steps() {
    for seed in [3, 77] {
        let (once, again) = (run_seed(seed, || ()), run_seed(seed, || ()));
        assert!(once == again, "seed {seed}");
    }
}

/// Run by `protocol::tests::the_sweep_spawns_no_thread`, in a process
/// where every thread is this test's to answer for.
#[test]
#[ignore = "needs a process of its own; the_sweep_spawns_no_thread gives it one"]
fn a_sweep_alone_in_its_process() {
    let threads = || std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count);
    let before = threads();
    let each_step = || assert_eq!(threads(), before, "a step spawned one");
    let procs = (0..20).filter(|&seed| run_seed(seed, each_step).procs);
    assert!(procs.count() > 0, "no process world among the 20");
    assert_eq!(threads(), before);
}

/// Where a failing seed goes to be looked at: put it here and run
/// `cargo test -p fv-net replay_one_seed -- --ignored`.
#[test]
#[ignore = "a seat for one seed; the sweep runs them all"]
fn replay_one_seed() {
    run_seed(0, || ());
}
