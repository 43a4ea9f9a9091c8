//! `SessionImage`: a session as durable, transportable text.
//!
//! The replayable-script design makes a session's state a pure function
//! of the successful mutations applied to it, so a session can be
//! represented *exactly* as (scene, attempted-request counter, dataset
//! fingerprints, compacted mutation log) — no engine internals cross the
//! boundary. [`Engine::snapshot`](crate::Engine::snapshot) produces one;
//! [`Engine::restore`](crate::Engine::restore) replays it through the
//! normal execute path. Process-backed shard transports ship images
//! instead of engines, and the same text is the future on-disk
//! persistence format.
//!
//! The canonical text form:
//!
//! ```text
//! session-image v2 scene=800x600 requests=12 datasets=1 log=3
//!   dataset len=482 mtime=1754550000000000000 hash=9637325990313059835 path=data/gasch_stress.pcl
//!   load data/gasch_stress.pcl
//!   set_metric euclidean
//!   cluster_all
//! ```
//!
//! The header carries exact row counts; `datasets` rows fingerprint every
//! file-loaded dataset (byte length + mtime in nanoseconds since the Unix
//! epoch, `-` when the filesystem reports none, plus an FNV-1a hash of
//! the file bytes so a touched-but-identical file still restores; the
//! path comes last so it may contain spaces), and `log` rows are
//! canonical [`format_request`](crate::format_request) mutation lines,
//! replayed in order on restore. [`format_session_image`] and
//! [`parse_session_image`] are exact inverses (property-tested),
//! mirroring the `format_request`/`parse_request` contract. The v1 form
//! (no `hash=` column) is rejected, not silently upgraded — images only
//! ever travel between processes of one build, or through the versioned
//! on-disk [`SessionStore`](crate::store::SessionStore) layout.

use crate::engine::fnv1a;
use crate::error::ApiError;
use crate::record::{read_text, write_text};
use crate::request::Mutation;

/// What an image's header row starts with: its format and version.
const HEADER: &str = "session-image v2";

crate::wire_record! {
    /// Fingerprint of one file-backed dataset a session loaded: enough for a
    /// restoring process to assert it is replaying against the same bytes.
    /// Paths are the user-spelled `load` argument, not the canonicalized
    /// cache key, so the image replays through the same cache lookup.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DatasetStamp {
        /// File length in bytes at load time.
        pub len: u64 => "len",
        /// Modification time in nanoseconds since the Unix epoch; `None`
        /// when the filesystem reports no (or a pre-epoch) mtime.
        pub mtime_nanos: Option<u64> => "mtime",
        /// FNV-1a hash of the file's bytes at load time. The restore-time
        /// fallback: when only the mtime disagrees (the file was copied or
        /// `touch`ed), identical bytes — proven by this hash — still
        /// restore.
        pub hash: u64 => "hash",
        /// The path as the `load` request spelled it. Last on the row, so
        /// it may contain spaces (but not start or end with one).
        pub path: String => "path" as Path,
    }
}

impl DatasetStamp {
    /// The one observation of a file's identity: `meta`'s length and
    /// mtime (nanoseconds since the Unix epoch; `None` when the
    /// filesystem reports none, or a pre-epoch time) beside `hash`, the
    /// FNV-1a of the file's bytes. Take `meta` BEFORE reading the bytes
    /// that are hashed: a write racing the read then leaves a stale
    /// mtime behind, which the next [`DatasetStamp::verify`] catches.
    pub fn observe(path: &str, meta: &std::fs::Metadata, hash: u64) -> DatasetStamp {
        DatasetStamp {
            len: meta.len(),
            mtime_nanos: meta
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map(|d| d.as_nanos().min(u64::MAX as u128) as u64),
            hash,
            path: path.to_string(),
        }
    }

    /// The one verification: does the file at `at` still hold the bytes
    /// this stamp recorded? Equal length and mtime say yes without
    /// reading it; same length but a different mtime (the file was
    /// copied or `touch`ed) lets the content hash decide; anything else
    /// is a changed file. `Some` is the stamp as the file reads now —
    /// the same bytes under a possibly newer mtime.
    pub fn verify(&self, at: &std::path::Path) -> std::io::Result<Option<DatasetStamp>> {
        let now = DatasetStamp::observe(&self.path, &std::fs::metadata(at)?, self.hash);
        let same = now == *self || (now.len == self.len && fnv1a(&std::fs::read(at)?) == self.hash);
        Ok(same.then_some(now))
    }
}

crate::wire_record! {
    /// A session, durably: everything needed to rebuild its engine exactly,
    /// provided its dataset files are unchanged (which [`DatasetStamp`]s
    /// assert at restore time).
    #[derive(Debug, Clone, PartialEq)]
    pub struct SessionImage {
        /// Scene dimensions damage resolves against.
        pub scene: (usize, usize) => "scene",
        /// The engine's attempted-request counter. Queries and failed
        /// requests count here but never appear in the log, so the counter
        /// must travel explicitly for `Engine::cost` to survive a restore.
        pub requests: u64 => "requests",
        /// Fingerprints of every file-loaded dataset, sorted by path. One
        /// stamp per path (the latest observation) — an image is exact
        /// provided each file is unchanged since the session loaded it.
        pub datasets: Vec<DatasetStamp> => ["datasets" rows "dataset"],
        /// The compacted log of successful mutations, in application order.
        /// Replaying it through the normal execute path rebuilds the session
        /// state exactly; each is a bare request line.
        pub log: Vec<Mutation> => ["log" rows ""],
    }
}

/// Canonical text form of a session image; inverse of
/// [`parse_session_image`].
pub fn format_session_image(image: &SessionImage) -> String {
    write_text(HEADER, image)
}

/// Parse a session image back from its canonical text; inverse of
/// [`format_session_image`]. Strict: the header's row counts must match
/// the rows present, dataset rows must precede log rows, and every log
/// row must be a mutation (queries never enter a session log).
pub fn parse_session_image(text: &str) -> Result<SessionImage, ApiError> {
    read_text(HEADER, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The image text itself is pinned, and walked parse → format → parse,
    // by `tests/record_props.rs` (and property-tested by
    // `tests/image_props.rs`).

    #[test]
    fn garbage_is_a_parse_error() {
        for bad in [
            "",
            "wat",
            // wrong versions: the hash-less v1 form and a future v3
            "session-image v1 scene=800x600 requests=0 datasets=0 log=0",
            "session-image v1 scene=800x600 requests=0 datasets=1 log=0\n  dataset len=1 mtime=2 path=a.pcl",
            "session-image v3 scene=800x600 requests=0 datasets=0 log=0",
            // counts disagree with rows
            "session-image v2 scene=800x600 requests=0 datasets=1 log=0",
            "session-image v2 scene=800x600 requests=0 datasets=0 log=1",
            "session-image v2 scene=800x600 requests=0 datasets=0 log=0\n  cluster_all",
            // a query in the log
            "session-image v2 scene=800x600 requests=1 datasets=0 log=1\n  session_info",
            // malformed dataset rows (truncated; v1 row without hash=)
            "session-image v2 scene=800x600 requests=0 datasets=1 log=0\n  dataset len=1 mtime=2",
            "session-image v2 scene=800x600 requests=0 datasets=1 log=0\n  dataset len=1 mtime=2 path=a.pcl",
            // bad scene token
            "session-image v2 scene=800 requests=0 datasets=0 log=0",
            // counts no file could hold: a typed error, not a reservation
            "session-image v2 scene=1x1 requests=0 datasets=18446744073709551615 log=0",
            "session-image v2 scene=1x1 requests=0 datasets=0 log=1099511627776\n  cluster_all",
        ] {
            assert!(parse_session_image(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
