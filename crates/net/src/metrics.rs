//! Server observability: the typed [`ServerStats`] snapshot behind the
//! `stats` control line, plus its canonical wire text.
//!
//! The reply is one multi-line `ok` frame in the same `key=value` shape
//! as `fv-api` response text, so transcripts stay line-parseable:
//!
//! ```text
//! stats shards=2 backend=threads connections=1 sessions=3 frames_in=12 frames_out=11 busy=0 garbage=0 disconnects=0 runs=5 requests=9 max_run=4 cache_entries=1 cache_hits=63 cache_misses=1 cache_evictions=0 derived_entries=3 derived_hits=6 derived_misses=3 balancer_ticks=0 balancer_moves=0 balancer_failed=0 recovered=0
//!   stream subscribers=2 frames=48 bytes=1843298 pixels=614400 coalesced=3 dropped=1
//!   shard 0 pid=4242 sessions=2 queued=0 runs=3 requests=6 max_run=4 lat_us=0,2,3,1,0,0,0,0,0,0 lat_max_us=812
//!   shard 1 pid=4242 sessions=1 queued=0 runs=2 requests=3 max_run=2 lat_us=0,1,2,0,0,0,0,0,0,0 lat_max_us=401
//! ```
//!
//! `backend` names the shard backend kind (`threads` or `procs`), and
//! each shard row's `pid` is the OS process serving that shard — the
//! server's own pid for every thread shard, the child worker's pid for a
//! process shard. `cache_*` are the gauges of the backend's dataset
//! cache(s) ([`fv_api::DatasetCache`]), aggregated across child caches
//! in the process backend: `cache_entries` live cached parses,
//! `cache_hits`/`cache_misses` loads served shared vs. parsed, and
//! `cache_evictions` entries replaced (file changed on disk) or pruned
//! (last holder gone); `derived_*` the same cache's content-keyed map of
//! clusterings: ones some session holds, and ones served shared vs.
//! computed. `lat_us` is the per-shard request-latency histogram: one
//! count per [`LATENCY_BUCKETS_US`] bucket plus a final overflow bucket,
//! with `lat_max_us` the largest single request.
//!
//! [`format_stats`] and [`parse_stats`] are exact inverses — the typed
//! client (`Client::stats`, `fvtool stats --remote`) round-trips through
//! them, mirroring how responses flow through `format_response` /
//! `parse_response`.

use fv_api::record::{field, num};
use fv_api::ApiError;
use std::fmt::Write;
use std::time::Duration;

/// Upper bounds (inclusive, in microseconds) of the per-request latency
/// histogram buckets. A tenth, unbounded overflow bucket catches
/// everything slower than the last bound.
pub const LATENCY_BUCKETS_US: [u64; 9] =
    [50, 100, 250, 500, 1_000, 5_000, 25_000, 100_000, 1_000_000];

/// Bucket count of [`LatencyHistogram`]: the bounded buckets plus the
/// overflow bucket.
pub const LATENCY_BUCKET_COUNT: usize = LATENCY_BUCKETS_US.len() + 1;

fv_api::wire_record! {
    /// Fixed-bucket per-request latency histogram (see
    /// [`LATENCY_BUCKETS_US`]). Cheap to record into, mergeable, and
    /// losslessly wire-representable as a count list.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct LatencyHistogram {
        /// One count per bucket, overflow last.
        pub counts: [u64; LATENCY_BUCKET_COUNT] => "lat_us",
        /// Largest single observation, in microseconds.
        pub max_us: u64 => "lat_max_us",
    }
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one request's wall-clock latency.
    pub fn record(&mut self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        let bucket = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKET_COUNT - 1);
        self.counts[bucket] += 1;
        self.max_us = self.max_us.max(us);
    }

    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

fv_api::wire_record! {
    /// One worker shard's slice of a [`ServerStats`] snapshot: a `shard`
    /// row.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ShardStats {
        /// OS process serving this shard: the server's own pid for a thread
        /// shard, the child worker's pid for a process shard.
        pub pid: u32 => "pid",
        /// Live sessions owned by the shard's hub.
        pub sessions: usize => "sessions",
        /// Jobs queued on the shard channel, not yet picked up — the
        /// backpressure gauge. A healthy idle server reports 0 everywhere.
        pub queued: usize => "queued",
        /// Non-empty request runs executed since startup.
        pub runs: u64 => "runs",
        /// Requests *attempted* across those runs (a run's failing request
        /// counts; the skipped tail after it does not). Always equals
        /// `latency.total()` — one observation per attempted request.
        pub requests: u64 => "requests",
        /// Largest single run (requests the loop batched into one job).
        pub max_run: usize => "max_run",
        ..
        /// Shard index; leads the row.
        pub shard: usize,
        /// Per-request latency histogram of every request this shard
        /// attempted; its own record closes the row.
        pub latency: LatencyHistogram,
    }
}

fv_api::wire_record! {
    /// The streaming plane's slice of a [`ServerStats`] snapshot: the
    /// `stream` row. Counters cover every subscriber since startup.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct StreamStats {
        /// Live subscriptions right now (a connection holds at most one).
        pub subscribers: usize => "subscribers",
        /// Tile frames written to subscriber outboxes (key + delta).
        pub frames: u64 => "frames",
        /// Encoded tile-frame bytes written (headers + pixel payloads).
        pub bytes: u64 => "bytes",
        /// Pixels shipped across those frames (sum of frame rect areas).
        pub pixels: u64 => "pixels",
        /// Pending same-tile deltas that collapsed into one frame because the
        /// subscriber had not drained yet.
        pub coalesced: u64 => "coalesced",
        /// Publishes discarded for a backlogged subscriber, repaid with a
        /// fresh keyframe once its outbox drained.
        pub dropped: u64 => "dropped",
    }
}

fv_api::wire_record! {
    /// Snapshot answered to the `stats` control line; the keyed fields are
    /// its header row, after the `shards=` row count.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ServerStats {
        /// Shard backend kind: `threads` (in-process workers) or `procs`
        /// (child worker processes).
        pub backend: String => "backend",
        /// Live connections (the asking connection included).
        pub connections: usize => "connections",
        /// Live sessions across all shards.
        pub sessions: usize => "sessions",
        /// Wire items received (requests + control lines; blank/comment
        /// lines excluded), faults included.
        pub frames_in: u64 => "frames_in",
        /// Response frames written (`ok` + `err`).
        pub frames_out: u64 => "frames_out",
        /// Requests rejected with `E_BUSY` by the per-connection queue bound.
        pub busy_rejections: u64 => "busy",
        /// Garbage frames accepted then rejected: request lines that failed
        /// framing (over [`crate::frame::MAX_LINE`] or not UTF-8) and were
        /// answered with a typed `err` instead of tearing the connection
        /// down. The server simulation holds it to the faults its own
        /// client framers saw.
        pub garbage_frames: u64 => "garbage",
        /// Connections that disconnected with work still pending: lines
        /// queued, shard work in flight, or buffered responses unflushed.
        /// A `use`'s or `subscribe`'s empty run counts while it is at the
        /// shard, though its answer went out at dispatch: the client left
        /// before the work it asked for was done. Clean closes at a request
        /// boundary are not counted.
        pub dirty_disconnects: u64 => "disconnects",
        /// Sum of per-shard executed runs.
        pub runs: u64 => "runs",
        /// Sum of per-shard attempted requests (see [`ShardStats::requests`]).
        pub requests: u64 => "requests",
        /// Largest run across all shards.
        pub max_run: usize => "max_run",
        /// Live entries in the server-wide shared dataset cache.
        pub cache_entries: usize => "cache_entries",
        /// Dataset loads served from the shared cache (no parse).
        pub cache_hits: u64 => "cache_hits",
        /// Dataset loads that parsed a file (first load or post-eviction).
        pub cache_misses: u64 => "cache_misses",
        /// Cache entries replaced (file changed) or pruned (last holder
        /// dropped). Never invalidates a live session's handle.
        pub cache_evictions: u64 => "cache_evictions",
        /// Clusterings some session holds in the cache's derived map.
        pub derived_entries: usize => "derived_entries",
        /// Clusterings served shared (equal content and settings).
        pub derived_hits: u64 => "derived_hits",
        /// Clusterings computed.
        pub derived_misses: u64 => "derived_misses",
        /// Rebalancer planning intervals observed. Only `auto` mode
        /// gathers reports, so `off` mode counts none.
        pub balancer_ticks: u64 => "balancer_ticks",
        /// Automatic migrations completed by the rebalancer. Operator
        /// `migrate` lines are not counted here.
        pub balancer_moves: u64 => "balancer_moves",
        /// Automatic migrations that failed (the session never left its
        /// source shard) or were skipped as stale.
        pub balancer_failed: u64 => "balancer_failed",
        /// Sessions re-installed from the state directory's checkpoints at
        /// boot. Zero when the server runs without `--state-dir` or started
        /// against an empty store; stale or corrupt checkpoints are skipped
        /// (and warned about), not counted.
        pub recovered: u64 => "recovered",
        ..
        /// The streaming plane's counters (the `stream` row).
        pub stream: StreamStats,
        /// Per-shard breakdown, in shard order.
        pub shards: Vec<ShardStats>,
    }
}

/// Canonical reply text for a `stats` control line; inverse of
/// [`parse_stats`].
pub fn format_stats(stats: &ServerStats) -> String {
    let mut out = format!("stats shards={}", stats.shards.len());
    stats.put_fields(&mut out);
    out.push_str("\n  stream");
    stats.stream.put_fields(&mut out);
    for s in &stats.shards {
        let _ = write!(out, "\n  shard {}", s.shard);
        s.put_fields(&mut out);
        s.latency.put_fields(&mut out);
    }
    out
}

/// Parse a `stats` reply back into the typed snapshot.
pub fn parse_stats(text: &str) -> Result<ServerStats, ApiError> {
    let mut lines = text.lines();
    let head = lines
        .next()
        .ok_or_else(|| ApiError::parse("empty stats reply"))?;
    let tail = head
        .strip_prefix("stats ")
        .ok_or_else(|| ApiError::parse(format!("not a stats reply: {head:?}")))?;
    let n_shards: usize = num(field(tail, "shards")?, "shards")?;
    let stream_line = lines
        .next()
        .ok_or_else(|| ApiError::parse("stats reply is missing its stream row"))?;
    let stream_tail = stream_line
        .strip_prefix("  stream ")
        .ok_or_else(|| ApiError::parse(format!("expected stream row, got {stream_line:?}")))?;
    let stream = StreamStats::get_fields(stream_tail)?;
    // `n_shards` is wire input: it checks the rows, it reserves nothing.
    let mut shards = Vec::new();
    for line in lines {
        let row = line
            .strip_prefix("  shard ")
            .ok_or_else(|| ApiError::parse(format!("unexpected stats row {line:?}")))?;
        let (idx, rest) = row
            .split_once(' ')
            .ok_or_else(|| ApiError::parse("shard row needs fields"))?;
        shards.push(ShardStats {
            shard: num(idx, "shard")?,
            latency: LatencyHistogram::get_fields(rest)?,
            ..ShardStats::get_fields(rest)?
        });
    }
    if shards.len() != n_shards {
        return Err(ApiError::parse("shard row count disagrees with header"));
    }
    Ok(ServerStats {
        stream,
        shards,
        ..ServerStats::get_fields(tail)?
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The `stats` text itself is pinned, and walked format → parse → ==,
    // by `tests/adversarial.rs` beside the other transport records.

    #[test]
    fn histogram_buckets_by_bound_and_tracks_max() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(10)); // bucket 0 (≤50)
        h.record(Duration::from_micros(50)); // bucket 0 (inclusive bound)
        h.record(Duration::from_micros(51)); // bucket 1 (≤100)
        h.record(Duration::from_millis(2)); // bucket 5 (≤5000us)
        h.record(Duration::from_secs(5)); // overflow bucket
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[5], 1);
        assert_eq!(h.counts[LATENCY_BUCKET_COUNT - 1], 1);
        assert_eq!(h.total(), 5);
        assert_eq!(h.max_us, 5_000_000);
    }

    #[test]
    fn garbage_is_a_parse_error() {
        for bad in [
            "",
            "wat",
            "stats shards=2 connections=1",
            // pre-balancer header (missing balancer_* fields)
            "stats shards=0 connections=1 sessions=0 frames_in=0 frames_out=0 busy=0 runs=0 requests=0 max_run=0 cache_entries=0 cache_hits=0 cache_misses=0 cache_evictions=0",
            // pre-stream reply (balancer-era header with no stream row)
            "stats shards=0 connections=1 sessions=0 frames_in=0 frames_out=0 busy=0 runs=0 requests=0 max_run=0 cache_entries=0 cache_hits=0 cache_misses=0 cache_evictions=0 balancer_ticks=0 balancer_moves=0 balancer_failed=0",
            // pre-soak header (missing garbage=/disconnects= counters)
            "stats shards=0 connections=1 sessions=0 frames_in=0 frames_out=0 busy=0 runs=0 requests=0 max_run=0 cache_entries=0 cache_hits=0 cache_misses=0 cache_evictions=0 balancer_ticks=0 balancer_moves=0 balancer_failed=0\n  stream subscribers=0 frames=0 bytes=0 pixels=0 coalesced=0 dropped=0 link_us=0",
            // shard row where the stream row belongs
            "stats shards=1 connections=1 sessions=0 frames_in=0 frames_out=0 busy=0 runs=0 requests=0 max_run=0 cache_entries=0 cache_hits=0 cache_misses=0 cache_evictions=0 balancer_ticks=0 balancer_moves=0 balancer_failed=0\n  shard 0 sessions=0 queued=0 runs=0 requests=0 max_run=0 lat_us=0,0,0,0,0,0,0,0,0,0 lat_max_us=0",
            // stream row with a missing field
            "stats shards=0 connections=1 sessions=0 frames_in=0 frames_out=0 busy=0 runs=0 requests=0 max_run=0 cache_entries=0 cache_hits=0 cache_misses=0 cache_evictions=0 balancer_ticks=0 balancer_moves=0 balancer_failed=0\n  stream subscribers=0 frames=0 bytes=0",
            // shard row with a short histogram
            "stats shards=1 backend=threads connections=1 sessions=0 frames_in=0 frames_out=0 busy=0 garbage=0 disconnects=0 runs=0 requests=0 max_run=0 cache_entries=0 cache_hits=0 cache_misses=0 cache_evictions=0 balancer_ticks=0 balancer_moves=0 balancer_failed=0\n  stream subscribers=0 frames=0 bytes=0 pixels=0 coalesced=0 dropped=0 link_us=0\n  shard 0 pid=1 sessions=0 queued=0 runs=0 requests=0 max_run=0 lat_us=0,0 lat_max_us=0",
            // pre-recovery header (missing the recovered= counter)
            "stats shards=0 backend=threads connections=1 sessions=0 frames_in=0 frames_out=0 busy=0 garbage=0 disconnects=0 runs=0 requests=0 max_run=0 cache_entries=0 cache_hits=0 cache_misses=0 cache_evictions=0 balancer_ticks=0 balancer_moves=0 balancer_failed=0\n  stream subscribers=0 frames=0 bytes=0 pixels=0 coalesced=0 dropped=0 link_us=0",
            // pre-derived-map header (missing the derived_* gauges)
            "stats shards=0 backend=threads connections=1 sessions=0 frames_in=0 frames_out=0 busy=0 garbage=0 disconnects=0 runs=0 requests=0 max_run=0 cache_entries=0 cache_hits=0 cache_misses=0 cache_evictions=0 balancer_ticks=0 balancer_moves=0 balancer_failed=0 recovered=0\n  stream subscribers=0 frames=0 bytes=0 pixels=0 coalesced=0 dropped=0 link_us=0",
            // pre-process-shards header (no backend= kind, no shard pid=)
            "stats shards=1 connections=1 sessions=0 frames_in=0 frames_out=0 busy=0 garbage=0 disconnects=0 runs=0 requests=0 max_run=0 cache_entries=0 cache_hits=0 cache_misses=0 cache_evictions=0 balancer_ticks=0 balancer_moves=0 balancer_failed=0\n  stream subscribers=0 frames=0 bytes=0 pixels=0 coalesced=0 dropped=0 link_us=0\n  shard 0 sessions=0 queued=0 runs=0 requests=0 max_run=0 lat_us=0,0,0,0,0,0,0,0,0,0 lat_max_us=0",
        ] {
            let code = parse_stats(bad).map(|_| ()).unwrap_err().code;
            assert_eq!(code, fv_api::ErrorCode::Parse, "{bad:?} must not parse");
        }
        // The histogram is read through its own record: exactly ten
        // numeric buckets, and its max beside them.
        let row = "stats shards=1 backend=threads connections=1 sessions=0 frames_in=0 frames_out=0 busy=0 garbage=0 disconnects=0 runs=0 requests=0 max_run=0 cache_entries=0 cache_hits=0 cache_misses=0 cache_evictions=0 derived_entries=0 derived_hits=0 derived_misses=0 balancer_ticks=0 balancer_moves=0 balancer_failed=0 recovered=0\n  stream subscribers=0 frames=0 bytes=0 pixels=0 coalesced=0 dropped=0\n  shard 0 pid=1 sessions=0 queued=0 runs=0 requests=0 max_run=0";
        let lat = |tail: &str| parse_stats(&format!("{row} {tail}"));
        assert!(lat("lat_us=0,0,0,0,0,0,0,0,0,1 lat_max_us=9").is_ok());
        for tail in [
            "lat_us=0,0,0,0,0,0,0,0,1 lat_max_us=9",
            "lat_us=0,0,0,0,0,0,0,0,0,0,1 lat_max_us=9",
            "lat_us=0,0,0,0,x,0,0,0,0,1 lat_max_us=9",
            "lat_us=0,0,0,0,0,0,0,0,0,1",
        ] {
            let code = lat(tail).map(|_| ()).unwrap_err().code;
            assert_eq!(code, fv_api::ErrorCode::Parse, "{tail:?} must not parse");
        }
        // a shard count no reply could hold is a typed error, not a
        // reservation
        let huge = "stats shards=18446744073709551615 backend=threads connections=1 sessions=0 frames_in=0 frames_out=0 busy=0 garbage=0 disconnects=0 runs=0 requests=0 max_run=0 cache_entries=0 cache_hits=0 cache_misses=0 cache_evictions=0 derived_entries=0 derived_hits=0 derived_misses=0 balancer_ticks=0 balancer_moves=0 balancer_failed=0 recovered=0\n  stream subscribers=0 frames=0 bytes=0 pixels=0 coalesced=0 dropped=0";
        assert_eq!(
            parse_stats(huge).unwrap_err().code,
            fv_api::ErrorCode::Parse
        );
    }
}
