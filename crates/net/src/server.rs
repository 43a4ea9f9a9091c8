//! The IO shell of the event-loop TCP server: one poll-driven thread
//! owns every socket. No thread is ever spawned per connection — 1000
//! idle clients cost 1000 file descriptors and nothing else.
//!
//! This is the only file on the server path that touches a socket or a
//! clock, and it holds no protocol decision. Readiness (accept, read,
//! the waker pipe, the balance interval) becomes one of the inputs of
//! the protocol core (`crate::protocol`), and after each handled input
//! the one write pass (`Shell::write_pass`) hands the touched
//! connections' outboxes to their sockets and retires the connections
//! that finished or died. What remains here is [`Server`] and its
//! config, the `Waker` pipe, `poll::wait` and the shutdown grace.

use crate::balance::{BalanceConfig, BalanceMode};
use crate::poll::{self, PollEntry};
use crate::procshard;
use crate::protocol::{recover_sessions, Conn, Core};
use crate::shard::Shards;
use fv_api::SessionStore;
use std::collections::BTreeMap;
use std::io::{ErrorKind, PipeReader, PipeWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Whether [`crate::poll`] reports real readiness (Linux) or the
/// portable scan fallback (everything claims ready). The waker pipe is
/// only polled for readiness on the real path.
const REAL_POLL: bool = cfg!(target_os = "linux");

/// Most bytes read from one connection per readiness event.
const READ_BUDGET: usize = 64 * 1024;

/// How long shutdown waits for already-written frames (e.g. the `bye`
/// acknowledging a wire `shutdown`) to flush before closing sockets.
const SHUTDOWN_FLUSH_GRACE: Duration = Duration::from_millis(500);

/// Where the shard workers live.
#[derive(Debug, Clone, Default)]
pub enum ShardBackendConfig {
    /// In-process worker threads sharing one dataset cache (the
    /// default): [`crate::shard::Shards::threads`].
    #[default]
    Threads,
    /// One child worker process per shard, each with its own dataset
    /// cache, speaking the shard control protocol (`crate::procshard`)
    /// over its stdin and stdout. `worker_cmd` is the argv prefix to
    /// exec per shard: `["/path/to/fvtool", "shard-worker"]`.
    Procs { worker_cmd: Vec<String> },
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker shard count; sessions are hash-partitioned across shards.
    pub shards: usize,
    /// Thread shards or child-process shards.
    pub backend: ShardBackendConfig,
    /// Scene dimensions every shard's hub resolves damage against.
    pub scene: (usize, usize),
    /// Per-connection bound on pending (queued + dispatched, not yet
    /// answered) requests; overruns are rejected with `E_BUSY`.
    pub queue_limit: usize,
    /// Startup mode of the automatic rebalancer (`balance auto|off` on
    /// the wire flips it at runtime).
    pub balance: BalanceMode,
    /// Rebalancer policy knobs (watermarks, budget, cooldown).
    pub balance_cfg: BalanceConfig,
    /// How often the rebalancer snapshots the shards and plans.
    pub balance_interval: Duration,
    /// Durable session state directory. When set, the shard serving a
    /// session saves it after every run, before the reply leaves (a save
    /// that fails is warned about on stderr, and the reply goes out), a
    /// `close` removes its file before `closed` is answered, and
    /// [`Server::bind`] re-installs every saved session before accepting
    /// a connection. `None` (the default) keeps sessions in memory.
    pub state_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            backend: ShardBackendConfig::Threads,
            scene: fv_api::engine::DEFAULT_SCENE,
            queue_limit: 128,
            balance: BalanceMode::Off,
            balance_cfg: BalanceConfig::default(),
            balance_interval: Duration::from_millis(500),
            state_dir: None,
        }
    }
}

/// Wakes the event loop from shard workers and [`Server::shutdown`]: a
/// self-pipe with an at-most-one-byte-in-flight guarantee, so writes
/// never block and a drain never starves.
#[derive(Clone)]
pub(crate) struct Waker {
    tx: Arc<PipeWriter>,
    pending: Arc<AtomicBool>,
}

impl Waker {
    pub(crate) fn new(tx: PipeWriter) -> Waker {
        Waker {
            tx: Arc::new(tx),
            pending: Arc::new(AtomicBool::new(false)),
        }
    }

    pub(crate) fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            let _ = (&*self.tx).write(&[1u8]);
        }
    }

    /// Called by the loop before draining completions, so wakes that race
    /// the drain write a fresh byte.
    fn clear(&self) {
        self.pending.store(false, Ordering::SeqCst);
    }
}

struct Shared {
    stop: AtomicBool,
    waker: Waker,
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`Server::shutdown`] (or send a `shutdown` line) and then
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shards: usize,
    recovered: u64,
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving: one event-loop thread plus the shard workers.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let (waker_rx, waker_tx) = std::io::pipe()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            waker: Waker::new(waker_tx),
        });
        let loop_shared = Arc::clone(&shared);
        // Opened (its manifest written) before a shard starts: thread
        // shards save through this handle, process shards open their own.
        let store = config
            .state_dir
            .as_deref()
            .map(SessionStore::open)
            .transpose();
        let store = store.map_err(|e| std::io::Error::other(e.to_string()))?;
        // Start the shards here so a failure (a worker thread or child
        // process that cannot start) surfaces as the bind error instead
        // of a panic inside the event-loop thread.
        let shards = match &config.backend {
            ShardBackendConfig::Threads => Shards::threads(&config, store.clone())?,
            ShardBackendConfig::Procs { worker_cmd } => procshard::spawn(worker_cmd, &config)?,
        };
        let n_shards = shards.n_shards();
        // Crash recovery happens HERE, synchronously, before the loop
        // thread exists: every checkpoint in the state directory is
        // re-installed through the same install op migrations use, so by
        // the time `bind` returns the first client already sees the
        // recovered sessions. Stale images (dataset changed on disk,
        // `E_STALE_IMAGE`) and corrupt files are warned about and
        // skipped, never panicked on.
        let recovered = store
            .map(|store| recover_sessions(&store, n_shards, |shard, op| shards.call(shard, op)))
            .transpose()
            .map_err(|e| std::io::Error::other(e.to_string()))?
            .unwrap_or(0);
        #[allow(
            clippy::disallowed_methods,
            reason = "the one event-loop thread; every other server thread is a shard drain (shard.rs)"
        )]
        let event_loop = std::thread::Builder::new()
            .name("fv-net-loop".into())
            .spawn(move || {
                event_loop(listener, config, shards, loop_shared, waker_rx, recovered)
            })?;
        Ok(Server {
            addr: local,
            shards: n_shards,
            recovered,
            shared,
            event_loop: Some(event_loop),
        })
    }

    /// Sessions recovered from the state directory's checkpoints during
    /// [`Server::bind`]. Zero without [`ServerConfig::state_dir`].
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of worker shards.
    pub fn n_shards(&self) -> usize {
        self.shards
    }

    /// Ask the server to stop. The event loop is woken immediately (live
    /// connections do not have to speak or hang up first), flushes what
    /// it owes, closes every connection, and lets the shard workers
    /// drain and exit.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
    }

    /// Block until the server has fully stopped (after [`Server::shutdown`]
    /// or a client's `shutdown` line).
    pub fn join(mut self) {
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
    }
}

// ── the loop ────────────────────────────────────────────────────────────

/// The core plus the sockets of its connections, keyed by the core's
/// connection ids: the two tables always hold the same keys, because
/// [`Shell::accept_all`] and [`Shell::retire`] are the only places a
/// connection is opened or closed, and each does both halves.
struct Shell {
    core: Core,
    socks: BTreeMap<u64, TcpStream>,
    read_buf: Vec<u8>,
}

fn event_loop(
    listener: TcpListener,
    config: ServerConfig,
    shards: Shards,
    shared: Arc<Shared>,
    waker_rx: PipeReader,
    recovered: u64,
) {
    let (core, done_rx) = Core::new(&config, shards, shared.waker.clone(), recovered);
    let mut sh = Shell {
        core,
        socks: BTreeMap::new(),
        read_buf: vec![0u8; READ_BUDGET],
    };
    let mut last_balance = Instant::now();
    // Poll must wake often enough to honor the balance interval; a
    // too-small interval must not busy-spin the loop.
    let balance_tick_ms = config.balance_interval.as_millis().clamp(10, 250) as i32;

    while !sh.core.stopping() && !shared.stop.load(Ordering::SeqCst) {
        // Interest set, rebuilt per iteration: [listener, waker, conns…].
        let mut ids = Vec::with_capacity(sh.socks.len());
        let mut entries = Vec::with_capacity(sh.socks.len() + 2);
        entries.push(PollEntry::new(listener.as_raw_fd(), true, false));
        entries.push(PollEntry::new(waker_rx.as_raw_fd(), REAL_POLL, false));
        for ((&id, conn), stream) in sh.core.conns().iter().zip(sh.socks.values()) {
            ids.push(id);
            entries.push(PollEntry::new(
                stream.as_raw_fd(),
                conn.wants_read(),
                conn.wants_write(),
            ));
        }
        // Finite timeout: a bounded safety net under the waker, the tick
        // the portable fallback scans on, and (in auto mode) the
        // heartbeat the balance interval rides on.
        let timeout = if sh.core.balance_mode() == BalanceMode::Auto {
            balance_tick_ms
        } else {
            250
        };
        if poll::wait(&mut entries, timeout).is_err() {
            break;
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }

        // Drain the waker before the completion channel. Order matters:
        // consume the pipe byte FIRST, then clear `pending` — a wake
        // racing this window skips its write (pending is still true),
        // but its completion was sent before the wake, so the try_recv
        // below observes it; any wake after the clear writes a fresh
        // byte for the next iteration. Clearing before reading would
        // eat a racing wake's byte while leaving `pending` set,
        // permanently silencing the waker.
        if entries[1].readable || entries[1].hangup {
            let mut sink = [0u8; 4096];
            let _ = (&waker_rx).read(&mut sink);
            shared.waker.clear();
        }
        while let Ok(done) = done_rx.try_recv() {
            sh.core.on_completion(done);
            sh.write_pass();
        }
        // A balance interval elapsed. The core refuses the tick while a
        // gather or a migration is still in flight; the interval then
        // stays due and the next iteration asks again.
        if last_balance.elapsed() >= config.balance_interval && sh.core.tick() {
            last_balance = Instant::now();
        }
        if entries[0].readable || entries[0].hangup {
            sh.accept_all(&listener);
        }
        for (id, e) in ids.iter().zip(&entries[2..]) {
            sh.conn_ready(*id, *e);
        }
    }

    // Shutdown: give already-written frames (e.g. the `bye` answering a
    // wire `shutdown`) a bounded chance to flush, then close everything
    // and let the shard workers drain. In-flight run results are
    // abandoned — the sockets are about to close.
    shared.stop.store(true, Ordering::SeqCst);
    drop(listener);
    let deadline = Instant::now() + SHUTDOWN_FLUSH_GRACE;
    while Instant::now() < deadline {
        sh.socks.retain(|&id, stream| {
            write_outbox(stream, &mut sh.core, id)
                && sh.core.conns().get(&id).is_some_and(Conn::wants_write)
        });
        if sh.socks.is_empty() {
            break;
        }
        let mut entries: Vec<PollEntry> = sh
            .socks
            .values()
            .map(|s| PollEntry::new(s.as_raw_fd(), false, true))
            .collect();
        if poll::wait(&mut entries, 50).is_err() {
            break;
        }
    }
    drop(sh.socks);
    sh.core.shutdown();
}

/// Write as much of `id`'s outbox as the socket accepts and tell the
/// core how much that was; `false` on a dead transport.
fn write_outbox(stream: &mut TcpStream, core: &mut Core, id: u64) -> bool {
    let Some(conn) = core.conns().get(&id) else {
        return false;
    };
    let out = conn.outbox();
    let mut n = 0;
    let alive = loop {
        if n == out.len() {
            break true;
        }
        match stream.write(&out[n..]) {
            Ok(0) => break false,
            Ok(k) => n += k,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break false,
        }
    };
    core.wrote(id, n);
    alive
}

impl Shell {
    /// The write pass, run after each handled input: flush every
    /// connection that input touched, in the order it touched them.
    fn write_pass(&mut self) {
        for id in self.core.take_touched() {
            self.flush(id);
        }
    }

    /// Hand `id`'s outbox to its socket, and retire the connection if
    /// that finished it or the transport died — the one place a client
    /// socket is written or closed (the shutdown drain aside).
    fn flush(&mut self, id: u64) {
        let Some(stream) = self.socks.get_mut(&id) else {
            return;
        };
        let alive = write_outbox(stream, &mut self.core, id);
        if !alive || self.core.conns().get(&id).is_none_or(Conn::finished) {
            self.retire(id);
        }
    }

    fn retire(&mut self, id: u64) {
        self.core.close(id);
        self.socks.remove(&id);
    }

    fn accept_all(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.socks.insert(self.core.open(), stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted
                            | ErrorKind::ConnectionAborted
                            | ErrorKind::ConnectionReset
                    ) =>
                {
                    // A peer that reset before we accepted costs nothing
                    // but its own slot; keep accepting.
                    continue;
                }
                Err(_) => {
                    // EMFILE/ENFILE and friends are load conditions, not
                    // reasons to drop every live session. Stop this
                    // accept burst and back off briefly so a persistent
                    // condition cannot spin the loop (the listener stays
                    // level-triggered readable).
                    std::thread::sleep(Duration::from_millis(10));
                    break;
                }
            }
        }
    }

    /// Service one connection's readiness: flush, read (at most
    /// [`READ_BUDGET`] bytes per event, for fairness across connections),
    /// and hand the core what arrived. With nothing read that is still a
    /// progress call — it is how a subscriber that was deferred behind a
    /// full outbox gets its re-sync once the socket has taken bytes.
    fn conn_ready(&mut self, id: u64, e: PollEntry) {
        if !(e.readable || e.writable || e.hangup) {
            return;
        }
        if e.writable || e.hangup {
            self.flush(id);
        }
        let reads =
            (e.readable || e.hangup) && self.core.conns().get(&id).is_some_and(Conn::wants_read);
        let Some(stream) = self.socks.get_mut(&id) else {
            return;
        };
        let mut n = 0;
        if reads {
            match stream.read(&mut self.read_buf) {
                Ok(0) => self.core.hangup(id),
                Ok(read) => n = read,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                // A dead transport: whatever it still owed is lost.
                Err(_) => return self.retire(id),
            }
        }
        self.core.ingest(id, &self.read_buf[..n]);
        self.write_pass();
    }
}
