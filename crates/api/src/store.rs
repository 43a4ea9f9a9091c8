//! `SessionStore`: durable session checkpoints on disk.
//!
//! A server restart used to lose every session — the engine state lived
//! only in memory. The store closes that hole with the smallest possible
//! durable surface: one [`SessionImage`] text file per session, written
//! with the classic torn-write-safe sequence (temp file in the same
//! directory → `fsync` → atomic rename), under a versioned layout:
//!
//! ```text
//! <state_dir>/
//!   v1/
//!     manifest               "fv-state v1"
//!     sessions/
//!       <encoded-name>.img   format_session_image text
//! ```
//!
//! Session names are arbitrary whitespace-free tokens (they may contain
//! `/` or `..`), so file names percent-encode every byte outside
//! `[A-Za-z0-9_-]` — the encoding is injective and reversible, and a
//! hostile name can never escape `sessions/`.
//!
//! Crash-safety contract, which the torn-write tests assert byte by
//! byte: a `kill -9` at *any* point during [`SessionStore::save`] leaves
//! either the previous checkpoint or the new one, never a mix and never
//! a partial file. Interrupted temp files (`*.tmp`) are ignored and
//! swept by [`SessionStore::scan`]; a checkpoint that fails to parse
//! (disk corruption, a file planted by hand) is reported per-entry in
//! [`ScanOutcome::corrupt`] rather than aborting recovery of the healthy
//! sessions.

use crate::error::ApiError;
use crate::hub::SessionId;
use crate::image::{format_session_image, parse_session_image, SessionImage};
use std::io::Write;
use std::path::{Path, PathBuf};

/// First line of the store manifest; bumped if the layout ever changes.
pub const MANIFEST: &str = "fv-state v1";

/// Result of scanning a store at boot: every recoverable checkpoint,
/// plus per-file diagnostics for the ones that were not.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Parsed checkpoints, sorted by session name.
    pub sessions: Vec<(SessionId, SessionImage)>,
    /// Checkpoints that could not be read or parsed (and why). Recovery
    /// proceeds without them; the files are left in place for autopsy.
    pub corrupt: Vec<(PathBuf, ApiError)>,
    /// Interrupted temp files swept during the scan — evidence of a
    /// crash mid-save, never a recovery candidate.
    pub swept_tmp: usize,
}

/// Durable per-session checkpoint store. Cheap to clone conceptually —
/// it holds only paths; every operation re-opens the files it needs.
#[derive(Debug, Clone)]
pub struct SessionStore {
    /// `<state_dir>/v1/sessions`, created by [`SessionStore::open`].
    sessions_dir: PathBuf,
}

impl SessionStore {
    /// Open (creating if absent) a store under `state_dir`. Refuses a
    /// directory whose manifest names a different layout version rather
    /// than guessing at its contents.
    pub fn open(state_dir: &Path) -> Result<SessionStore, ApiError> {
        let v1 = state_dir.join("v1");
        let sessions_dir = v1.join("sessions");
        std::fs::create_dir_all(&sessions_dir)
            .map_err(|e| ApiError::io(format!("{}: {e}", sessions_dir.display())))?;
        let manifest = v1.join("manifest");
        match std::fs::read_to_string(&manifest) {
            Ok(text) => {
                if text.trim_end() != MANIFEST {
                    return Err(ApiError::format(format!(
                        "{}: unknown state layout {:?} (expected {MANIFEST:?})",
                        manifest.display(),
                        text.trim_end()
                    )));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                write_atomic(&manifest, format!("{MANIFEST}\n").as_bytes())?;
            }
            Err(e) => return Err(ApiError::io(format!("{}: {e}", manifest.display()))),
        }
        Ok(SessionStore { sessions_dir })
    }

    /// The checkpoint file a session maps to.
    pub fn checkpoint_path(&self, session: &SessionId) -> PathBuf {
        self.sessions_dir
            .join(format!("{}.img", encode_name(session.as_str())))
    }

    /// Durably replace `session`'s checkpoint with `image`: temp file in
    /// the same directory, `fsync`, atomic rename. A crash at any byte
    /// offset leaves the previous checkpoint intact.
    pub fn save(&self, session: &SessionId, image: &SessionImage) -> Result<(), ApiError> {
        let mut text = format_session_image(image);
        text.push('\n');
        write_atomic(&self.checkpoint_path(session), text.as_bytes())
    }

    /// Drop `session`'s checkpoint. Removing a checkpoint that does not
    /// exist is not an error: a run that leaves no session removes its
    /// name's file whether or not one was ever written.
    pub fn remove(&self, session: &SessionId) -> Result<(), ApiError> {
        let path = self.checkpoint_path(session);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(ApiError::io(format!("{}: {e}", path.display()))),
        }
    }

    /// Read every checkpoint for boot-time recovery. Never fails on a
    /// single bad file: unparseable checkpoints are reported in
    /// [`ScanOutcome::corrupt`], interrupted `*.tmp` files are deleted
    /// and counted, and everything else is returned sorted by name.
    pub fn scan(&self) -> Result<ScanOutcome, ApiError> {
        let mut out = ScanOutcome::default();
        let entries = std::fs::read_dir(&self.sessions_dir)
            .map_err(|e| ApiError::io(format!("{}: {e}", self.sessions_dir.display())))?;
        for entry in entries {
            let path = entry
                .map_err(|e| ApiError::io(format!("{}: {e}", self.sessions_dir.display())))?
                .path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if name.ends_with(".tmp") {
                // A save was interrupted before its rename; the previous
                // checkpoint (if any) is still the good one.
                std::fs::remove_file(&path).ok();
                out.swept_tmp += 1;
                continue;
            }
            let Some(encoded) = name.strip_suffix(".img") else {
                out.corrupt.push((
                    path.clone(),
                    ApiError::format(format!("{name}: not a checkpoint file")),
                ));
                continue;
            };
            let session = match decode_name(encoded).and_then(SessionId::new) {
                Ok(s) => s,
                Err(e) => {
                    out.corrupt.push((path.clone(), e));
                    continue;
                }
            };
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    out.corrupt
                        .push((path.clone(), ApiError::io(e.to_string())));
                    continue;
                }
            };
            match parse_session_image(text.trim_end_matches('\n')) {
                Ok(image) => out.sessions.push((session, image)),
                Err(e) => out.corrupt.push((path.clone(), e)),
            }
        }
        out.sessions.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }
}

/// Write `bytes` to `path` torn-write-safely: unique temp file in the
/// same directory, `fsync` the data, rename over the target, `fsync` the
/// directory so the rename itself is durable.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ApiError> {
    let dir = path
        .parent()
        .ok_or_else(|| ApiError::io(format!("{}: no parent directory", path.display())))?;
    let tmp = path.with_extension(format!("{}.tmp", std::process::id()));
    let io_err = |e: std::io::Error| ApiError::io(format!("{}: {e}", tmp.display()));
    let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
    file.write_all(bytes).map_err(io_err)?;
    file.sync_all().map_err(io_err)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        ApiError::io(format!("{} -> {}: {e}", tmp.display(), path.display()))
    })?;
    if let Ok(d) = std::fs::File::open(dir) {
        d.sync_all().ok();
    }
    Ok(())
}

/// Percent-encode a session name for use as a file name: every byte
/// outside `[A-Za-z0-9_-]` (including `.`, so `..` cannot appear) is
/// `%XX`. Injective, so distinct sessions never collide on disk.
pub fn encode_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for &b in name.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Inverse of [`encode_name`], and only of it: a name is accepted
/// exactly when [`encode_name`] writes it back byte for byte. So a stray
/// `%`, a non-hex digit or bytes that are not UTF-8 are refused, and so
/// is every other spelling of a name (`%41` for `A`, `%2f` for `%2F`):
/// one session has one file name, and a planted second spelling is not
/// a second checkpoint of it.
pub fn decode_name(encoded: &str) -> Result<String, ApiError> {
    let bad = || ApiError::format(format!("{encoded}: not the file name of a session"));
    let mut parts = encoded.split('%');
    let mut bytes = parts.next().unwrap_or_default().as_bytes().to_vec();
    for part in parts {
        let byte = part
            .get(..2)
            .and_then(|hex| u8::from_str_radix(hex, 16).ok());
        let (Some(byte), Some(tail)) = (byte, part.get(2..)) else {
            return Err(bad());
        };
        bytes.push(byte);
        bytes.extend_from_slice(tail.as_bytes());
    }
    let name = String::from_utf8(bytes)
        .ok()
        .filter(|name| encode_name(name) == encoded);
    name.ok_or_else(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Mutation;
    use forestview::command::Command;
    use proptest::prelude::*;

    fn temp_store(tag: &str) -> (PathBuf, SessionStore) {
        let dir = std::env::temp_dir().join(format!(
            "fv-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = SessionStore::open(&dir).unwrap();
        (dir, store)
    }

    fn sample_image(requests: u64) -> SessionImage {
        SessionImage {
            scene: (800, 600),
            requests,
            datasets: Vec::new(),
            log: vec![
                Mutation::LoadScenario {
                    n_genes: 60,
                    seed: 1,
                },
                Mutation::Command(Command::Search("stress".into())),
            ],
        }
    }

    #[test]
    fn save_scan_roundtrips_and_overwrites() {
        let (dir, store) = temp_store("roundtrip");
        let a = SessionId::new("alice").unwrap();
        let b = SessionId::new("bob/with/slashes").unwrap();
        store.save(&a, &sample_image(3)).unwrap();
        store.save(&b, &sample_image(7)).unwrap();
        // overwrite: latest checkpoint wins
        store.save(&a, &sample_image(5)).unwrap();
        let scan = store.scan().unwrap();
        assert!(scan.corrupt.is_empty());
        assert_eq!(scan.sessions.len(), 2);
        assert_eq!(scan.sessions[0].0, a);
        assert_eq!(scan.sessions[0].1.requests, 5);
        assert_eq!(scan.sessions[1].0, b);
        assert_eq!(scan.sessions[1].1.requests, 7);
        store.remove(&a).unwrap();
        store.remove(&a).unwrap(); // idempotent
        assert_eq!(store.scan().unwrap().sessions.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_preserves_checkpoints_and_checks_manifest() {
        let (dir, store) = temp_store("reopen");
        let s = SessionId::new("s1").unwrap();
        store.save(&s, &sample_image(2)).unwrap();
        let again = SessionStore::open(&dir).unwrap();
        assert_eq!(again.scan().unwrap().sessions.len(), 1);
        // a future layout version is refused, not misread
        std::fs::write(dir.join("v1/manifest"), "fv-state v9\n").unwrap();
        let err = SessionStore::open(&dir).err().unwrap();
        assert_eq!(err.code, crate::error::ErrorCode::Format);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_at_any_byte_offset_mid_write_keeps_last_good() {
        let (dir, store) = temp_store("torn");
        let s = SessionId::new("victim").unwrap();
        let good = sample_image(41);
        store.save(&s, &good).unwrap();
        let next = {
            let mut text = format_session_image(&sample_image(42));
            text.push('\n');
            text.into_bytes()
        };
        // Simulate kill -9 after writing exactly `cut` bytes of the temp
        // file (the rename never happened): recovery must see the
        // previous checkpoint, bit-for-bit, at every offset.
        for cut in 0..=next.len() {
            let tmp = store.checkpoint_path(&s).with_extension("img.99999.tmp");
            std::fs::write(&tmp, &next[..cut]).unwrap();
            let scan = store.scan().unwrap();
            assert_eq!(scan.swept_tmp, 1, "cut={cut}");
            assert!(scan.corrupt.is_empty(), "cut={cut}: {:?}", scan.corrupt);
            assert_eq!(scan.sessions.len(), 1, "cut={cut}");
            assert_eq!(scan.sessions[0].1, good, "cut={cut}");
        }
        // A torn *checkpoint* (disk corruption after rename) is isolated:
        // reported corrupt, other sessions still recover.
        let other = SessionId::new("other").unwrap();
        store.save(&other, &sample_image(7)).unwrap();
        std::fs::write(store.checkpoint_path(&s), &next[..next.len() / 2]).unwrap();
        let scan = store.scan().unwrap();
        assert_eq!(scan.corrupt.len(), 1);
        assert_eq!(scan.sessions.len(), 1);
        assert_eq!(scan.sessions[0].0, other);
        // So is a header whose counts lie: scan runs inside server boot,
        // where reserving room for the claimed rows would abort the
        // process (or ask the allocator for terabytes).
        for counts in [
            "datasets=18446744073709551615 log=0",
            "datasets=0 log=1099511627776",
        ] {
            let planted = format!("session-image v2 scene=1x1 requests=0 {counts}\n");
            std::fs::write(store.checkpoint_path(&s), planted).unwrap();
            let scan = store.scan().unwrap();
            assert_eq!(scan.corrupt.len(), 1, "{counts}");
            assert_eq!(scan.corrupt[0].1.code, crate::error::ErrorCode::Parse);
            assert_eq!(scan.sessions.len(), 1, "{counts}");
            assert_eq!(scan.sessions[0].0, other);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_names_stay_inside_the_store() {
        let (dir, store) = temp_store("hostile");
        for name in ["../escape", "..", "a/b", "%41", "ü", "c:d"] {
            let s = SessionId::new(name).unwrap();
            let path = store.checkpoint_path(&s);
            assert!(
                path.parent().unwrap().ends_with("v1/sessions"),
                "{name:?} must map inside sessions/, got {}",
                path.display()
            );
            store.save(&s, &sample_image(1)).unwrap();
        }
        let scan = store.scan().unwrap();
        assert!(scan.corrupt.is_empty(), "{:?}", scan.corrupt);
        let names: Vec<&str> = scan.sessions.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(names, ["%41", "..", "../escape", "a/b", "c:d", "ü"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_second_spelling_of_a_name_is_corrupt_not_a_second_checkpoint() {
        let (dir, store) = temp_store("spelling");
        let a = SessionId::new("A").unwrap();
        store.save(&a, &sample_image(1)).unwrap();
        let percent = store.checkpoint_path(&a).with_file_name("%41.img");
        std::fs::write(
            &percent,
            format!("{}\n", format_session_image(&sample_image(2))),
        )
        .unwrap();
        // `%2f` and `%2F` both spell `/`; only the upper case is written.
        let slash = SessionId::new("a/b").unwrap();
        store.save(&slash, &sample_image(3)).unwrap();
        let lower = store.checkpoint_path(&slash).with_file_name("a%2fb.img");
        std::fs::write(
            &lower,
            format!("{}\n", format_session_image(&sample_image(4))),
        )
        .unwrap();
        let scan = store.scan().unwrap();
        let recovered: Vec<_> = scan
            .sessions
            .iter()
            .map(|(s, i)| (s.as_str(), i.requests))
            .collect();
        assert_eq!(recovered, [("A", 1), ("a/b", 3)]);
        let mut corrupt: Vec<_> = scan
            .corrupt
            .iter()
            .map(|(p, e)| (p.clone(), e.code))
            .collect();
        corrupt.sort_by(|a, b| a.0.cmp(&b.0));
        let format = crate::error::ErrorCode::Format;
        assert_eq!(corrupt, [(percent, format), (lower, format)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn arb_name() -> impl Strategy<Value = String> {
        use proptest::strategy::FnStrategy;
        use proptest::test_runner::TestRng;
        const POOL: &[char] = &[
            'a', 'Z', '0', '_', '-', '.', '/', '%', 'ü', 'λ', ':', '~', '+', '=', '\\',
        ];
        FnStrategy::new(|rng: &mut TestRng| {
            let len = 1 + rng.below(24) as usize;
            (0..len)
                .map(|_| POOL[rng.below(POOL.len() as u64) as usize])
                .collect()
        })
    }

    proptest! {
        #[test]
        fn name_encoding_roundtrips(name in arb_name()) {
            let encoded = encode_name(&name);
            prop_assert!(
                encoded.bytes().all(|b| matches!(
                    b,
                    b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-' | b'%'
                )),
                "encoded {encoded:?} has a raw special byte"
            );
            prop_assert_eq!(decode_name(&encoded).unwrap(), name.clone());
            // Read as a file name, the raw name decodes only if it is
            // the canonical spelling of what it decodes to.
            if let Ok(decoded) = decode_name(&name) {
                prop_assert_eq!(encode_name(&decoded), name);
            }
        }

        /// Totality of the open: whatever bytes sit where the manifest
        /// belongs — noise, or the real one mangled — the store opens
        /// (and then scans) or refuses with a typed error; never a panic.
        #[test]
        fn a_manifest_of_arbitrary_bytes_is_a_store_or_a_typed_error(
            noise in prop::collection::vec(any::<u8>(), 0..64),
            flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..3),
        ) {
            let (dir, _) = temp_store("manifest");
            let mut mangled = format!("{MANIFEST}\n").into_bytes();
            for (at, byte) in flips {
                let at = at % mangled.len();
                mangled[at] = byte;
            }
            for manifest in [noise, mangled] {
                std::fs::write(dir.join("v1/manifest"), &manifest).unwrap();
                match SessionStore::open(&dir) {
                    Ok(store) => prop_assert!(store.scan().is_ok()),
                    Err(e) => prop_assert!(
                        matches!(e.code, crate::ErrorCode::Format | crate::ErrorCode::Io),
                        "{e}"
                    ),
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
