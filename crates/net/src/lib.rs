//! # fv-net — sharded, event-loop TCP transport for the fv-api wire protocol
//!
//! This crate takes the `fv-api` request/response protocol across the
//! process boundary: a std-only TCP server whose connections are all
//! driven by **one poll-based event-loop thread** (readiness-driven
//! reads, incremental line framing, buffered writes — idle connections
//! cost zero threads), with sessions partitioned across N worker shards,
//! and a client (plus remote script runner) that make `fvtool --remote`
//! byte-identical to local execution.
//!
//! ```text
//!   clients            fvtool --remote · Client · run_script_remote
//!        │  request lines ▸ / ◂ ok|err frames        [`frame`]
//!        ▼
//!   Server (IO shell)  ONE event-loop thread: poll(accept, conns,
//!        │  waker) · read · the write pass · the balance clock
//!        │  open/ingest/hangup · on_completion · tick · wrote  [`server`], [`poll`]
//!        ▼
//!   Core (sans-IO)     bytes → inbox → contiguous same-session runs,
//!        │  bounded pending queues (E_BUSY), migrations, balancing,
//!        │  stream fan-out, stats → outbox bytes; no disk I/O
//!        │  Completion{to: Waiter, reply} ◂ / ▸ ShardOp     (`protocol`)
//!        ▼
//!   Shards             hash(SessionId) → shard; each shard is one
//!        │  WorkerCore (an EngineHub, and on a durable server the
//!        │  SessionStore it saves every run's session to) behind a
//!        │  queue; one `serve` both backends drive — by value on a
//!        │  thread, or through the control-protocol codec to a child
//!        │  process.                                         [`shard`]
//!        ▼
//!   fv-api             EngineHub::execute_run_on (one shard hop per run)
//! ```
//!
//! Guarantees:
//! - **Per-connection ordering**: responses arrive in request order, one
//!   frame per non-blank non-comment line — pre-resolved errors
//!   (parse faults, `E_BUSY` rejections) queue in line order too.
//! - **Session affinity**: a session's requests always execute on the
//!   same shard, serialized; disjoint sessions on different shards run
//!   concurrently.
//! - **Coalescing survives the wire**: contiguous same-session request
//!   runs map onto `EngineHub::execute_run_on` — one shard hop per run
//!   — exactly like local script replay (which uses the same entry
//!   point).
//! - **Bounded resources**: thread count is `1 + n_shards`, independent
//!   of connection count; per-connection memory is bounded by the
//!   pending-request limit (`E_BUSY` beyond it) plus inbox/outbox
//!   watermarks that pause reads until the peer drains.
//! - **Durability (opt-in)**: with a state directory, the shard serving
//!   a session saves it after every run, before the reply leaves the
//!   shard — an `ok` is on disk, and a rebooted server recovers every
//!   answered request.
//! - **Failure containment**: malformed, oversized, or non-UTF-8 lines
//!   produce typed error frames and the connection survives; a panicking
//!   request costs its session, never the shard.
//! - **Observability**: the `stats` control line snapshots
//!   [`ServerStats`] (connections, per-shard queue depth, run sizes,
//!   frame counters, balancer gauges); `list-sessions` lists every
//!   session across all shards, merged and sorted.
//! - **Tile streaming (pub/sub)**: `subscribe <session> <TX>x<TY>`
//!   turns a connection into a viewer ([`stream`]): after every
//!   executed run the owning shard renders once and the loop fans out
//!   delta-encoded tile frames (keyframe on subscribe, damage-only
//!   after) to every subscriber with gapless per-subscriber seqs; a
//!   slow viewer is coalesced and, past the outbox watermark or ack
//!   lag, dropped to a fresh keyframe — never a backlog, never a stall
//!   for the publisher or its peers. Migrations re-sync subscribers
//!   with a keyframe from the new shard.
//! - **Load-aware placement (opt-in)**: under `balance auto`, a pure,
//!   clock-free policy engine ([`balance`]) periodically turns the
//!   stats plane (queue depths, latency-histogram deltas, per-session
//!   cost estimates) into migration plans executed through the same
//!   snapshot → install → close chain as operator `migrate`s — with
//!   hysteresis watermarks, a per-tick budget, and per-session
//!   cooldowns so it never thrashes.
//!
//! See `crates/net/README.md` for the framing grammar and a quickstart.

#![deny(unsafe_code, reason = "`unsafe` lives in poll.rs alone")]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "fv-net answers a typed error, never a panic"
)]

pub mod balance;
pub mod client;
pub mod frame;
pub mod metrics;
mod poll;
mod procshard;
mod protocol;
pub mod replay;
pub mod server;
pub mod shard;
pub mod stream;
pub mod tap;

pub use balance::{plan_moves, BalanceConfig, BalanceMode, BalanceStatus, Balancer, MovePlan};
pub use client::{run_script_remote, Client};
pub use frame::ReplyAssembler;
pub use metrics::{ServerStats, ShardStats};
pub use procshard::worker_main;
pub use replay::{recv_transcript, replay_local, replay_remote, ReplayOutcome};
pub use server::{Server, ServerConfig, ShardBackendConfig};
pub use shard::shard_of;
pub use stream::Watcher;
pub use tap::record_session;
