//! Content-addressed dataset cache: one parse per file, shared by every
//! session that loads it — and one clustering per content, shared by
//! every session that asks for it.
//!
//! The paper's premise is many concurrent analysis views over *one* large
//! genomic dataset. Before this cache, every `load <path>` re-read and
//! re-parsed the file into a private copy — N sessions holding the same
//! PCL cost N× the memory and N× the parse time. [`DatasetCache`] fixes
//! that at the sharing seam: it hands out [`Arc<Dataset>`] handles keyed
//! by the file's **canonicalized path** (so `./a.pcl`, `a.pcl`, and
//! `dir/../a.pcl` are one entry) plus an **mtime/length fingerprint** (so
//! a rewritten file is re-parsed, never served stale).
//!
//! Ownership rules, chosen so sharing is invisible to session semantics:
//!
//! - The cache holds [`Weak`] references. It never keeps a dataset alive:
//!   when the last session drops its handle, the memory is freed and the
//!   entry is pruned on the next access (`no leak`).
//! - Eviction (a fingerprint change) replaces the cache *entry* only.
//!   Sessions holding the old handle keep byte-identical data — eviction
//!   can never invalidate a live session's view.
//! - In-place transforms (normalize, impute) copy-on-write through
//!   `Arc::make_mut` in `fv_expr`, so a session mutating its view never
//!   writes into another session's (or the cache's) copy.
//!
//! The cache is `Clone + Send + Sync` (an `Arc<Mutex<…>>`), so one
//! instance can back every session of an [`crate::EngineHub`] — and, one
//! layer up, every hub of a sharded transport (fv-net gives all shard
//! workers one cache). Concurrent loads of **the same file** serialize
//! on a per-file parse gate — when 64 sessions race to load one PCL,
//! exactly one parse happens and 63 loads are hits (what the hit/miss
//! gauges in server stats assert) — while loads of *different* files
//! parse in parallel: the map lock is only ever held for map lookups,
//! never across a parse.
//!
//! # The second map: what is derived from a parse
//!
//! Clustering is a pure function of (matrix, axis, metric, linkage), and
//! every migration and crash recovery replays a `cluster_all` over
//! content a sibling session has already clustered.
//! [`DatasetCache::clustering`] shares that work under the same rules:
//!
//! - **Key:** ([`ExprMatrix::content_hash`], axis, metric, linkage) —
//!   content, not path: sessions that generated the same scenario share,
//!   and a normalize or impute changes the key whether `Arc::make_mut`
//!   copied the matrix or rewrote it in place, so no stale tree is served.
//!   The hash eats whole words (shape, two values per word, mask words),
//!   ~0.08 ms at 1500 × 60, and is taken per ask: a replayed redundant
//!   `cluster_all` costs that and a hit, which is why session logs keep
//!   every re-cluster.
//! - **Value:** a [`Weak`] clustering. Sessions hold the `Arc`s; the last
//!   to drop frees the entry, pruned on the next access — so a lone
//!   session entering a worker process where nobody holds its content is
//!   a miss.
//! - **Compute gate:** each entry's own lock. N racers of one key cost
//!   one clustering and N − 1 hits; the map lock is never held across a
//!   compute.
//! - **Collisions:** equal hashes are taken for equal content, the trust
//!   [`DatasetStamp`] places in a 64-bit hash of file bytes. The key is
//!   in-process only (never persisted, never on the wire). Its word steps
//!   are bijective, so one changed word always changes it, and they fold
//!   high bits back down, so structured edits such as two sign flips do
//!   not cancel (tests in `fv_expr::matrix`).
//!
//! Only [`crate::Engine`] asks; `forestview::Session::cluster_all` always
//! recomputes (it is what the kernels' benchmarks time).

use crate::engine::{fnv1a, parse_dataset_text};
use crate::error::ApiError;
use crate::image::DatasetStamp;
use forestview::session::{Axis, Clustering};
use fv_cluster::distance::Metric;
use fv_cluster::linkage::Linkage;
use fv_expr::{Dataset, ExprMatrix};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Weak};

struct Entry {
    /// The file as it read when this entry was parsed or last verified
    /// (`path` is the canonical one): what a load checks the file
    /// against, and — its `hash` captured from the bytes the parse
    /// consumed — how sessions stamp loads without re-reading the file.
    stamp: DatasetStamp,
    dataset: Weak<Dataset>,
}

/// One derived clustering: the lock is its key's compute gate.
type DerivedSlot = Arc<Mutex<Weak<Clustering>>>;

#[derive(Default)]
struct Inner {
    entries: BTreeMap<PathBuf, Entry>,
    /// Per-file parse gates: loads of one file serialize on its gate (so
    /// racing loads cost one parse), loads of different files do not.
    /// Gates are taken *without* holding the map lock.
    parsing: BTreeMap<PathBuf, Arc<Mutex<()>>>,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Clusterings by (content hash, axis, metric, linkage). Slots are
    /// locked *without* holding the map lock.
    derived: HashMap<(u64, Axis, Metric, Linkage), DerivedSlot>,
    derived_hits: u64,
    derived_misses: u64,
}

impl Inner {
    /// Drop entries whose dataset is gone (counting them as evictions),
    /// parse gates nobody holds or waits on, and clusterings no session
    /// holds. A derived slot someone else has cloned is in use and stays;
    /// one only the map holds nobody can have locked, so looking inside
    /// it never waits.
    fn prune(&mut self) {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.dataset.strong_count() > 0);
        self.evictions += (before - self.entries.len()) as u64;
        let entries = &self.entries;
        self.parsing
            .retain(|path, gate| Arc::strong_count(gate) > 1 || entries.contains_key(path));
        self.derived.retain(|_, slot| {
            Arc::strong_count(slot) > 1 || slot.lock().is_ok_and(|held| held.strong_count() > 0)
        });
    }
}

/// Counters a cache snapshot reports (the `cache_*` gauges of fv-net's
/// `stats` reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries whose dataset is still alive (held by at least one
    /// session). Dead entries are pruned before counting.
    pub entries: usize,
    /// Loads served from a live entry with a matching fingerprint.
    pub hits: u64,
    /// Loads that parsed the file (first load, or after eviction).
    pub misses: u64,
    /// Entries replaced because the file changed on disk (live handles
    /// stay valid) or pruned after their last holder dropped them.
    pub evictions: u64,
    /// Clusterings some session still holds.
    pub derived_entries: usize,
    /// Clusterings served from a live entry (no compute).
    pub derived_hits: u64,
    /// Clusterings computed (no live entry under their key).
    pub derived_misses: u64,
}

/// Shared, content-addressed map from canonical file path to parsed
/// dataset, and from matrix content to clustering. See the module docs
/// for the ownership rules.
#[derive(Clone, Default)]
pub struct DatasetCache {
    inner: Arc<Mutex<Inner>>,
}

impl DatasetCache {
    /// Empty cache.
    pub fn new() -> DatasetCache {
        DatasetCache::default()
    }

    /// Load `path`, reusing a live parse when the canonical path and
    /// fingerprint match. Errors name the *offending path as given* (the
    /// canonical path may differ and would send the user hunting).
    pub fn load(&self, path: &str) -> Result<Arc<Dataset>, ApiError> {
        self.load_stamped(path).map(|(ds, _)| ds)
    }

    /// [`DatasetCache::load`], plus the stamp of the bytes this very load
    /// was served from — the parse's, or the verified hit's — under the
    /// user's spelling of `path`. Asking the map again afterwards could
    /// stamp bytes a racing reload parsed instead.
    pub(crate) fn load_stamped(
        &self,
        path: &str,
    ) -> Result<(Arc<Dataset>, DatasetStamp), ApiError> {
        let io = |e: std::io::Error| ApiError::io(format!("{path}: {e}"));
        let canonical = std::fs::canonicalize(path).map_err(io)?;
        let spelled = |(ds, mut stamp): (Arc<Dataset>, DatasetStamp)| {
            stamp.path = path.to_string();
            (ds, stamp)
        };
        // Fast path: a live, still-valid entry.
        if let Some(hit) = self.verified_hit(&canonical).map_err(io)? {
            return Ok(spelled(hit));
        }
        let gate = {
            let mut inner = self.inner.lock().expect("cache lock poisoned");
            Arc::clone(inner.parsing.entry(canonical.clone()).or_default())
        };
        // Serialize with other loads of THIS file only (lock order is
        // always gate → map, never map → gate, so no deadlock).
        let _parsing = gate.lock().expect("parse gate poisoned");
        // Re-check: whoever held the gate before us may have parsed.
        if let Some(hit) = self.verified_hit(&canonical).map_err(io)? {
            return Ok(spelled(hit));
        }
        {
            let mut inner = self.inner.lock().expect("cache lock poisoned");
            if inner.entries.remove(&canonical).is_some() {
                // Stale: the file changed, or every holder dropped the
                // handle. Either way the entry is replaced below.
                inner.evictions += 1;
            }
        }
        let meta = std::fs::metadata(&canonical).map_err(io)?;
        let (ds, hash) = load_dataset_file_named(&canonical, path)?;
        let ds = Arc::new(ds);
        let stamp = DatasetStamp::observe(&canonical.to_string_lossy(), &meta, hash);
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.misses += 1;
        inner.entries.insert(
            canonical,
            Entry {
                stamp: stamp.clone(),
                dataset: Arc::downgrade(&ds),
            },
        );
        Ok(spelled((ds, stamp)))
    }

    /// `canonical`'s live entry and the stamp it verified as, if the file
    /// still holds the bytes it was parsed from ([`DatasetStamp::verify`])
    /// — counted as a hit. A copied or `touch`ed file (same bytes, new
    /// mtime) refreshes the stored stamp instead of re-parsing, so session
    /// restores stay cache hits. The file is examined outside the map
    /// lock.
    fn verified_hit(
        &self,
        canonical: &Path,
    ) -> std::io::Result<Option<(Arc<Dataset>, DatasetStamp)>> {
        let found = {
            let inner = self.inner.lock().expect("cache lock poisoned");
            inner
                .entries
                .get(canonical)
                .and_then(|e| Some((e.dataset.upgrade()?, e.stamp.clone())))
        };
        let Some((ds, stamp)) = found else {
            return Ok(None);
        };
        let Some(now) = stamp.verify(canonical)? else {
            return Ok(None);
        };
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.hits += 1;
        // Only the entry that was verified may be refreshed: a reload
        // racing this check has stamped newer bytes.
        if let Some(entry) = inner
            .entries
            .get_mut(canonical)
            .filter(|e| e.stamp == stamp)
        {
            entry.stamp = now.clone();
        }
        Ok(Some((ds, now)))
    }

    /// Cluster `axis` of `matrix`, or share the result a session still
    /// holds for equal content and settings ([`Clustering::derive`] is a
    /// pure function of the key, so a hit equals a recompute).
    pub fn clustering(
        &self,
        matrix: &ExprMatrix,
        axis: Axis,
        metric: Metric,
        linkage: Linkage,
    ) -> Arc<Clustering> {
        let key = (matrix.content_hash(), axis, metric, linkage);
        let slot = {
            let mut inner = self.inner.lock().expect("cache lock poisoned");
            inner.prune();
            Arc::clone(inner.derived.entry(key).or_default())
        };
        // Racers of THIS key queue on its slot, so N concurrent installs
        // cost one compute. The map lock is not held meanwhile.
        let mut held = slot.lock().expect("derive gate poisoned");
        let live = held.upgrade();
        let hit = live.is_some();
        let clustering = live.unwrap_or_else(|| {
            let fresh = Arc::new(Clustering::derive(matrix, axis, metric, linkage));
            *held = Arc::downgrade(&fresh);
            fresh
        });
        drop(held);
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        if hit {
            inner.derived_hits += 1;
        } else {
            inner.derived_misses += 1;
        }
        clustering
    }

    /// Drop entries whose dataset is gone; returns how many were pruned.
    /// Pruned entries count as evictions (the slot is reclaimed).
    pub fn prune(&self) -> usize {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        let before = inner.entries.len();
        inner.prune();
        before - inner.entries.len()
    }

    /// Snapshot of the gauges. Prunes dead entries first, so `entries`
    /// and `derived_entries` count only what some session still holds.
    pub fn stats(&self) -> CacheStats {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.prune();
        CacheStats {
            entries: inner.entries.len(),
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            derived_entries: inner.derived.len(),
            derived_hits: inner.derived_hits,
            derived_misses: inner.derived_misses,
        }
    }
}

/// Parse `canonical` from disk but attribute errors (and the dataset
/// name) to `display_path`, the path the user actually typed. Also
/// returns the FNV-1a hash of the bytes the parse consumed, so the
/// entry's content stamp costs no second read.
fn load_dataset_file_named(
    canonical: &Path,
    display_path: &str,
) -> Result<(Dataset, u64), ApiError> {
    let canonical_str = canonical.to_string_lossy();
    let text = std::fs::read_to_string(canonical)
        .map_err(|e| ApiError::io(format!("{display_path}: {e}")))?;
    let hash = fnv1a(text.as_bytes());
    let ds = parse_dataset_text(&canonical_str, &text).map_err(|e| {
        // Errors from the parse carry the canonical path; rewrite them to
        // the user's spelling so `E_IO`/`E_FORMAT` messages are actionable.
        ApiError::new(
            e.code,
            e.message.replace(canonical_str.as_ref(), display_path),
        )
    })?;
    Ok((ds, hash))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_pcl(dir: &Path, name: &str, rows: &[(&str, &[f32])], n_cols: usize) -> PathBuf {
        let mut text = String::from("ID\tNAME\tGWEIGHT");
        for c in 0..n_cols {
            text.push_str(&format!("\tc{c}"));
        }
        text.push('\n');
        text.push_str("EWEIGHT\t\t");
        for _ in 0..n_cols {
            text.push_str("\t1");
        }
        text.push('\n');
        for (id, vals) in rows {
            text.push_str(&format!("{id}\t{id}\t1"));
            for v in *vals {
                text.push_str(&format!("\t{v}"));
            }
            text.push('\n');
        }
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fv-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn same_file_parses_once_across_spellings() {
        let dir = temp_dir("spellings");
        let path = write_pcl(&dir, "a.pcl", &[("G1", &[1.0, 2.0])], 2);
        let cache = DatasetCache::new();
        let direct = cache.load(path.to_str().unwrap()).unwrap();
        // a different spelling of the same file: dir/../dir/a.pcl
        let dotted = format!(
            "{}/../{}/a.pcl",
            dir.display(),
            dir.file_name().unwrap().to_string_lossy()
        );
        let aliased = cache.load(&dotted).unwrap();
        assert!(Arc::ptr_eq(&direct, &aliased), "one parse, one allocation");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[allow(clippy::disallowed_methods, reason = "eight loads race on threads")]
    fn racing_loads_of_one_file_share_one_parse() {
        let dir = temp_dir("race");
        let path = write_pcl(&dir, "r.pcl", &[("G1", &[1.0, 2.0])], 2);
        let cache = DatasetCache::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                let p = path.to_str().unwrap().to_string();
                std::thread::spawn(move || cache.load(&p).unwrap())
            })
            .collect();
        let loaded: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        for ds in &loaded[1..] {
            assert!(Arc::ptr_eq(&loaded[0], ds), "all racers share one copy");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "the per-file gate admits one parse");
        assert_eq!(stats.hits, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_error_names_the_given_path() {
        let cache = DatasetCache::new();
        let err = cache.load("no/such/file.pcl").unwrap_err();
        assert_eq!(err.code, crate::error::ErrorCode::Io);
        assert!(
            err.message.contains("no/such/file.pcl"),
            "error must name the offending path: {}",
            err.message
        );
    }

    #[test]
    fn rewrite_evicts_but_live_handles_survive() {
        let dir = temp_dir("rewrite");
        let path = write_pcl(&dir, "d.pcl", &[("G1", &[1.0])], 1);
        let path_str = path.to_str().unwrap().to_string();
        let cache = DatasetCache::new();
        let old = cache.load(&path_str).unwrap();
        assert_eq!(old.matrix.get(0, 0), Some(1.0));
        // rewrite with different contents (length changes ⇒ fingerprint
        // changes even if mtime granularity is coarse)
        write_pcl(&dir, "d.pcl", &[("G1", &[7.5]), ("G2", &[8.5])], 1);
        let new = cache.load(&path_str).unwrap();
        assert!(!Arc::ptr_eq(&old, &new), "changed file must re-parse");
        assert_eq!(new.n_genes(), 2);
        // the evicted handle still sees its original data
        assert_eq!(old.matrix.get(0, 0), Some(1.0));
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn touched_identical_file_refreshes_without_reparse() {
        let dir = temp_dir("touch");
        let path = write_pcl(&dir, "t.pcl", &[("G1", &[1.0, 2.0])], 2);
        let path_str = path.to_str().unwrap().to_string();
        let cache = DatasetCache::new();
        let first = cache.load(&path_str).unwrap();
        // rewrite the same bytes: at worst only the mtime changes
        std::thread::sleep(std::time::Duration::from_millis(20));
        let text = std::fs::read(&path).unwrap();
        std::fs::write(&path, &text).unwrap();
        let again = cache.load(&path_str).unwrap();
        assert!(
            Arc::ptr_eq(&first, &again),
            "identical bytes must not re-parse"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one parse across the touch");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.evictions, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_load_is_stamped_with_the_bytes_that_served_it() {
        let dir = temp_dir("stamp");
        let path = write_pcl(&dir, "s.pcl", &[("G1", &[1.0, 2.0])], 2);
        let path_str = path.to_str().unwrap().to_string();
        let as_file_reads = |spelling: &str| {
            DatasetStamp::observe(
                spelling,
                &std::fs::metadata(&path).unwrap(),
                fnv1a(&std::fs::read(&path).unwrap()),
            )
        };
        let cache = DatasetCache::new();
        // miss: the parse's stamp
        let (parsed, stamp) = cache.load_stamped(&path_str).unwrap();
        assert_eq!(stamp, as_file_reads(&path_str));
        // hit under another spelling: the entry's stamp, re-spelled
        let dotted = format!(
            "{}/../{}/s.pcl",
            dir.display(),
            dir.file_name().unwrap().to_string_lossy()
        );
        let (hit, stamp) = cache.load_stamped(&dotted).unwrap();
        assert!(Arc::ptr_eq(&parsed, &hit));
        assert_eq!(stamp, as_file_reads(&dotted));
        // same bytes, newer mtime: the refreshed stamp of the verified hit
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&path, std::fs::read(&path).unwrap()).unwrap();
        let (touched, stamp) = cache.load_stamped(&path_str).unwrap();
        assert!(
            Arc::ptr_eq(&parsed, &touched),
            "identical bytes: no re-parse"
        );
        assert_eq!(stamp, as_file_reads(&path_str));
        // new bytes: the new parse's stamp, never the old entry's
        write_pcl(
            &dir,
            "s.pcl",
            &[("G1", &[3.0, 4.0]), ("G2", &[5.0, 6.0])],
            2,
        );
        let (reparsed, stamp) = cache.load_stamped(&path_str).unwrap();
        assert!(!Arc::ptr_eq(&parsed, &reparsed));
        assert_eq!(stamp, as_file_reads(&path_str));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (2, 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropping_all_handles_frees_the_entry() {
        let dir = temp_dir("drop");
        let path = write_pcl(&dir, "d.pcl", &[("G1", &[1.0])], 1);
        let cache = DatasetCache::new();
        let ds = cache.load(path.to_str().unwrap()).unwrap();
        assert_eq!(cache.stats().entries, 1);
        drop(ds);
        // the Weak entry cannot keep the dataset alive; stats prunes it
        assert_eq!(cache.stats().entries, 0, "no leak after last drop");
        std::fs::remove_dir_all(&dir).ok();
    }
}
