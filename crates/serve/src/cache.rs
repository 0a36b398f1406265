//! The persistent content-addressed schedule cache.
//!
//! On-disk layout under the cache directory:
//!
//! ```text
//! <cache-dir>/
//!   index.json                  LRU recency hint {version, tick, entries:[...]}
//!   entries/<key>.json          one versioned entry per cache key
//!   quarantine/<key>.json.<n>   corrupt entries moved aside, never deleted
//! ```
//!
//! Each entry file is a JSON object
//! `{"format": FORMAT_VERSION, "key", "kind", "checksum", "payload"}`
//! where `checksum` is the FNV-1a 64 hex digest of the serialized
//! payload. Entries are written atomically (tmp file, fsynced, renamed
//! into place in the same directory). Reads re-verify the checksum; any
//! parse, version, key, or checksum failure counts as a miss, bumps the
//! error counter and moves the file to `quarantine/` for post-mortem
//! instead of silently serving bad artifacts.
//!
//! The entry files are the cache; `index.json` is only a recency hint.
//! It is written at open (when it was missing or stale) and by
//! [`DiskCache::flush`], never by `put`: renaming over an existing file
//! can cost tens of milliseconds on a disk mounted with `discard`, while
//! an entry lands under a fresh name. Opening adopts every entry file
//! the loaded index does not list, so a crash between flushes loses
//! recency, never entries.
//!
//! Every filesystem call goes through the [`crate::faults::Io`] seam, so
//! the chaos suite can open the same cache over a fault-injecting
//! filesystem ([`DiskCache::open_with_io`]) and prove that no failure
//! mode ever serves a corrupt payload. Opening also sweeps stale
//! `.tmp.*` files left by writes that died between create and rename.
//!
//! Eviction is LRU over a logical tick (persisted in the index, so
//! recency survives a flushed restart) and bounded by a total payload
//! byte budget.

use crate::faults::{Io, RealIo};
use crate::hash::hex_digest;
use crate::json::Json;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Cache entry format version; bump on any incompatible change to the
/// entry or payload schema — old entries then read as misses.
pub const FORMAT_VERSION: u64 = 1;

/// Default size bound: 256 MiB of payload bytes.
pub const DEFAULT_MAX_BYTES: u64 = 256 << 20;

/// Prefix of the temporary files atomic writes stage their bytes in.
/// Files with this prefix are, by construction, never a live entry, so
/// the startup sweep may remove any it finds.
const TMP_PREFIX: &str = ".tmp.";

/// Operation counters of one [`DiskCache`] instance (process-local, not
/// persisted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Successful, checksum-verified reads.
    pub hits: u64,
    /// Reads that found no (valid) entry.
    pub misses: u64,
    /// Entries written.
    pub puts: u64,
    /// Entries evicted by the LRU size bound.
    pub evictions: u64,
    /// Corrupt entries quarantined.
    pub errors: u64,
    /// Stale `.tmp.*` files removed by the startup sweep.
    pub swept_tmps: u64,
}

#[derive(Clone, Debug)]
struct IndexEntry {
    key: String,
    kind: String,
    bytes: u64,
    last_used: u64,
}

/// A persistent, content-addressed, size-bounded LRU cache of compile
/// artifacts.
///
/// Keys are 16-hex-char content hashes (see [`crate::service::cache_key`]);
/// payloads are arbitrary JSON values whose schema is identified by a
/// `kind` string.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    max_bytes: u64,
    tick: u64,
    entries: HashMap<String, IndexEntry>,
    stats: CacheStats,
    io: Box<dyn Io>,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory with the given
    /// payload byte budget.
    ///
    /// A missing, unreadable or stale `index.json` is not an error:
    /// entry files it does not list are adopted by scanning `entries/`
    /// (with no recency), and the refreshed index is written back. Stale
    /// temporaries from writes that died mid-flight are swept.
    ///
    /// # Errors
    ///
    /// Propagates failures to create or list the cache directories.
    pub fn open(dir: &Path, max_bytes: u64) -> io::Result<DiskCache> {
        DiskCache::open_with_io(dir, max_bytes, Box::new(RealIo))
    }

    /// [`DiskCache::open`] over an explicit [`Io`] implementation — the
    /// chaos suite's entry point for fault injection.
    ///
    /// # Errors
    ///
    /// Propagates failures to create or list the cache directories.
    pub fn open_with_io(dir: &Path, max_bytes: u64, io: Box<dyn Io>) -> io::Result<DiskCache> {
        let mut cache = DiskCache {
            dir: dir.to_path_buf(),
            max_bytes: max_bytes.max(1),
            tick: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
            io,
        };
        cache.io.create_dir_all(&dir.join("entries"))?;
        cache.io.create_dir_all(&dir.join("quarantine"))?;
        cache.sweep_stale_tmps();
        let loaded = cache.load_index();
        let adopted = cache.adopt_unindexed()?;
        if !loaded || adopted > 0 {
            // Only a recency hint: failing to refresh it must not fail
            // the open.
            let _ = cache.flush();
        }
        Ok(cache)
    }

    /// Opens with the default size budget.
    ///
    /// # Errors
    ///
    /// See [`DiskCache::open`].
    pub fn open_default(dir: &Path) -> io::Result<DiskCache> {
        DiskCache::open(dir, DEFAULT_MAX_BYTES)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Process-local operation counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of entries currently indexed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total payload bytes currently indexed.
    pub fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join("entries").join(format!("{key}.json"))
    }

    /// Removes every `.tmp.*` staging file in the cache root and
    /// `entries/` — debris of atomic writes that died between create and
    /// rename (torn state). Live entries never carry the prefix, so this
    /// can only reclaim garbage.
    fn sweep_stale_tmps(&mut self) {
        for sub in [self.dir.clone(), self.dir.join("entries")] {
            let Ok(names) = self.io.read_dir_names(&sub) else {
                continue;
            };
            for name in names {
                if name.starts_with(TMP_PREFIX) && self.io.remove_file(&sub.join(&name)).is_ok() {
                    self.stats.swept_tmps += 1;
                }
            }
        }
    }

    /// Looks up a key, verifying the entry checksum. Returns the
    /// `(kind, payload)` on a hit. Corrupt entries are quarantined and
    /// reported as misses.
    pub fn get(&mut self, key: &str) -> Option<(String, Json)> {
        let path = self.entry_path(key);
        if !self.entries.contains_key(key) && !self.io.exists(&path) {
            self.stats.misses += 1;
            return None;
        }
        match self.read_verified(key) {
            Ok((kind, payload)) => {
                self.stats.hits += 1;
                self.tick += 1;
                let tick = self.tick;
                match self.entries.get_mut(key) {
                    Some(e) => e.last_used = tick,
                    None => {
                        // Valid entry written by another process: adopt it.
                        let bytes = self.io.metadata_len(&path).unwrap_or(0);
                        self.entries.insert(
                            key.to_string(),
                            IndexEntry {
                                key: key.to_string(),
                                kind: kind.clone(),
                                bytes,
                                last_used: tick,
                            },
                        );
                    }
                }
                Some((kind, payload))
            }
            Err(reason) => {
                self.quarantine(key, &reason);
                self.stats.misses += 1;
                None
            }
        }
    }

    fn read_verified(&mut self, key: &str) -> Result<(String, Json), String> {
        let path = self.entry_path(key);
        let text = self
            .io
            .read_to_string(&path)
            .map_err(|e| format!("unreadable: {e}"))?;
        let v = Json::parse(&text).map_err(|e| format!("bad json: {e}"))?;
        let format = v
            .get("format")
            .and_then(Json::as_u64)
            .ok_or("missing format")?;
        if format != FORMAT_VERSION {
            return Err(format!("format {format} != {FORMAT_VERSION}"));
        }
        if v.str_field("key")? != key {
            return Err("key mismatch".to_string());
        }
        let kind = v.str_field("kind")?.to_string();
        let payload = v.get("payload").ok_or("missing payload")?.clone();
        let checksum = v.str_field("checksum")?;
        let actual = hex_digest(&payload.render());
        if checksum != actual {
            return Err(format!("checksum {actual} != recorded {checksum}"));
        }
        Ok((kind, payload))
    }

    /// Writes an entry atomically (fsynced tmp + rename), records it in
    /// the in-memory index, and evicts least-recently-used entries if
    /// the byte budget is exceeded. The on-disk index is left to
    /// [`DiskCache::flush`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; the cache directory is left
    /// consistent (the rename either happened or it didn't).
    pub fn put(&mut self, key: &str, kind: &str, payload: &Json) -> io::Result<()> {
        let payload_text = payload.render();
        let entry = Json::obj(vec![
            ("format", Json::Num(FORMAT_VERSION as f64)),
            ("key", Json::Str(key.to_string())),
            ("kind", Json::Str(kind.to_string())),
            ("checksum", Json::Str(hex_digest(&payload_text))),
            ("payload", payload.clone()),
        ]);
        let text = entry.render();
        let path = self.entry_path(key);
        self.write_atomic(&path, text.as_bytes())?;
        self.tick += 1;
        self.entries.insert(
            key.to_string(),
            IndexEntry {
                key: key.to_string(),
                kind: kind.to_string(),
                bytes: text.len() as u64,
                last_used: self.tick,
            },
        );
        self.stats.puts += 1;
        self.evict_to_budget(key);
        Ok(())
    }

    /// Evicts LRU entries until the budget holds, never evicting
    /// `keep` (the entry just written).
    fn evict_to_budget(&mut self, keep: &str) {
        while self.total_bytes() > self.max_bytes {
            let victim = self
                .entries
                .values()
                .filter(|e| e.key != keep)
                .min_by_key(|e| e.last_used)
                .map(|e| e.key.clone());
            let Some(victim) = victim else { break };
            let path = self.entry_path(&victim);
            let _ = self.io.remove_file(&path);
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    /// Removes an entry. Returns whether it existed.
    pub fn remove(&mut self, key: &str) -> bool {
        let existed = self.entries.remove(key).is_some();
        let path = self.entry_path(key);
        let on_disk = self.io.remove_file(&path).is_ok();
        existed || on_disk
    }

    /// Lists `(key, kind, bytes, last_used)` for every indexed entry,
    /// most recently used first.
    pub fn list(&self) -> Vec<(String, String, u64, u64)> {
        let mut v: Vec<_> = self
            .entries
            .values()
            .map(|e| (e.key.clone(), e.kind.clone(), e.bytes, e.last_used))
            .collect();
        v.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Re-reads and checksum-verifies every entry — indexed ones *and*
    /// unindexed `entries/*.json` files (written by another process or
    /// orphaned by an index loss) — quarantining the corrupt ones.
    /// Returns `(ok, quarantined)` counts.
    pub fn verify(&mut self) -> (usize, usize) {
        let mut keys: Vec<String> = self.entries.keys().cloned().collect();
        if let Ok(names) = self.io.read_dir_names(&self.dir.join("entries")) {
            for name in names {
                if name.starts_with(TMP_PREFIX) {
                    continue;
                }
                if let Some(key) = name.strip_suffix(".json") {
                    keys.push(key.to_string());
                }
            }
        }
        keys.sort();
        keys.dedup();
        let (mut ok, mut bad) = (0, 0);
        for key in keys {
            match self.read_verified(&key) {
                Ok(_) => ok += 1,
                Err(reason) => {
                    self.quarantine(&key, &reason);
                    bad += 1;
                }
            }
        }
        (ok, bad)
    }

    /// Number of quarantined corpses on disk — corrupt entries moved
    /// aside by earlier runs and kept for post-mortem. Nonzero means an
    /// operator has uninspected corruption to look at.
    pub fn quarantined_count(&mut self) -> usize {
        self.io
            .read_dir_names(&self.dir.join("quarantine"))
            .map(|names| names.len())
            .unwrap_or(0)
    }

    /// Deletes every quarantined corpse — the operator's acknowledgment
    /// after a post-mortem, so `verify` backlogs do not linger forever.
    /// Returns the number removed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn purge_quarantine(&mut self) -> io::Result<usize> {
        let qdir = self.dir.join("quarantine");
        let names = match self.io.read_dir_names(&qdir) {
            Ok(names) => names,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut removed = 0;
        for name in names {
            self.io.remove_file(&qdir.join(&name))?;
            removed += 1;
        }
        Ok(removed)
    }

    fn quarantine(&mut self, key: &str, reason: &str) {
        let src = self.entry_path(key);
        if self.io.exists(&src) {
            // Find a free quarantine slot (don't clobber earlier corpses).
            let qdir = self.dir.join("quarantine");
            for n in 0.. {
                let dst = qdir.join(format!("{key}.json.{n}"));
                if !self.io.exists(&dst) {
                    let _ = self.io.rename(&src, &dst);
                    break;
                }
            }
        }
        self.entries.remove(key);
        self.stats.errors += 1;
        eprintln!("[cache] quarantined {key}: {reason}");
    }

    /// Persists the LRU index (the recency hint) atomically. `put` does
    /// not call it; call it at the end of a write or read phase (daemon
    /// shutdown, the end of a bench run) so recency survives a restart.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn flush(&mut self) -> io::Result<()> {
        let entries: Vec<Json> = self
            .list()
            .into_iter()
            .map(|(key, kind, bytes, last_used)| {
                Json::obj(vec![
                    ("key", Json::Str(key)),
                    ("kind", Json::Str(kind)),
                    ("bytes", Json::Num(bytes as f64)),
                    ("last_used", Json::Num(last_used as f64)),
                ])
            })
            .collect();
        let index = Json::obj(vec![
            ("version", Json::Num(FORMAT_VERSION as f64)),
            ("tick", Json::Num(self.tick as f64)),
            ("entries", Json::Arr(entries)),
        ]);
        self.write_atomic(&self.dir.join("index.json"), index.render().as_bytes())
    }

    /// Loads `index.json`; returns `false` (leaving the cache empty) on
    /// any problem. Either way [`DiskCache::adopt_unindexed`] then picks
    /// up the entry files it does not list.
    fn load_index(&mut self) -> bool {
        let index_path = self.dir.join("index.json");
        let Ok(text) = self.io.read_to_string(&index_path) else {
            return false;
        };
        let Ok(v) = Json::parse(&text) else {
            return false;
        };
        if v.get("version").and_then(Json::as_u64) != Some(FORMAT_VERSION) {
            return false;
        }
        let Some(entries) = v.get("entries").and_then(Json::as_arr) else {
            return false;
        };
        self.tick = v.get("tick").and_then(Json::as_u64).unwrap_or(0);
        for e in entries {
            let (Ok(key), Ok(kind)) = (e.str_field("key"), e.str_field("kind")) else {
                continue;
            };
            // Stale index rows for deleted files are dropped here.
            let path = self.entry_path(key);
            if !self.io.exists(&path) {
                continue;
            }
            self.entries.insert(
                key.to_string(),
                IndexEntry {
                    key: key.to_string(),
                    kind: kind.to_string(),
                    bytes: e.get("bytes").and_then(Json::as_u64).unwrap_or(0),
                    last_used: e.get("last_used").and_then(Json::as_u64).unwrap_or(0),
                },
            );
        }
        true
    }

    /// Indexes every verified `entries/*.json` file the index does not
    /// list — entries put after the last flush (the process died before
    /// flushing) or written by another process — with no recency.
    /// Unverifiable files are left for `get`/`verify` to quarantine.
    /// Returns the number adopted.
    fn adopt_unindexed(&mut self) -> io::Result<usize> {
        let names = self.io.read_dir_names(&self.dir.join("entries"))?;
        let mut adopted = 0;
        for name in names {
            if name.starts_with(TMP_PREFIX) {
                continue;
            }
            let Some(key) = name.strip_suffix(".json") else {
                continue;
            };
            if self.entries.contains_key(key) {
                continue;
            }
            let Ok((kind, _)) = self.read_verified(key) else {
                continue;
            };
            let bytes = self.io.metadata_len(&self.entry_path(key)).unwrap_or(0);
            self.entries.insert(
                key.to_string(),
                IndexEntry {
                    key: key.to_string(),
                    kind,
                    bytes,
                    last_used: 0,
                },
            );
            adopted += 1;
        }
        Ok(adopted)
    }

    /// Writes `bytes` to `path` atomically: a tmp file in the same
    /// directory (same filesystem, so the rename is atomic), fsynced,
    /// then renamed over the target.
    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let dir = path.parent().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "path has no parent directory")
        })?;
        let base = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
        let tmp = dir.join(format!("{TMP_PREFIX}{}.{base}", std::process::id()));
        self.io.write(&tmp, bytes)?;
        self.io.rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let d = std::env::temp_dir().join(format!(
            "polyject-cache-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn payload(tag: &str) -> Json {
        Json::obj(vec![
            ("cuda", Json::Str(format!("__global__ void {tag}() {{}}"))),
            ("ms", Json::Num(1.25)),
        ])
    }

    /// A pass-through [`Io`] that logs every `write` and `rename`.
    #[derive(Debug)]
    struct CountingIo {
        log: std::sync::Arc<std::sync::Mutex<Vec<(&'static str, PathBuf)>>>,
    }

    impl Io for CountingIo {
        fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
            RealIo.create_dir_all(path)
        }
        fn read_to_string(&mut self, path: &Path) -> io::Result<String> {
            RealIo.read_to_string(path)
        }
        fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.log.lock().unwrap().push(("write", path.to_path_buf()));
            RealIo.write(path, bytes)
        }
        fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
            self.log.lock().unwrap().push(("rename", to.to_path_buf()));
            RealIo.rename(from, to)
        }
        fn remove_file(&mut self, path: &Path) -> io::Result<()> {
            RealIo.remove_file(path)
        }
        fn metadata_len(&mut self, path: &Path) -> io::Result<u64> {
            RealIo.metadata_len(path)
        }
        fn exists(&mut self, path: &Path) -> bool {
            RealIo.exists(path)
        }
        fn read_dir_names(&mut self, dir: &Path) -> io::Result<Vec<String>> {
            RealIo.read_dir_names(dir)
        }
    }

    #[test]
    fn put_writes_and_renames_only_the_entry() {
        let dir = tmpdir("put-io");
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let io = CountingIo {
            log: std::sync::Arc::clone(&log),
        };
        let mut c = DiskCache::open_with_io(&dir, DEFAULT_MAX_BYTES, Box::new(io)).unwrap();
        log.lock().unwrap().clear();
        c.put("k1", "compile", &payload("a")).unwrap();
        let ops = log.lock().unwrap().clone();
        assert_eq!(ops.len(), 2, "one write and one rename: {ops:?}");
        assert_eq!(ops[0].0, "write");
        assert_eq!(ops[0].1.parent(), Some(dir.join("entries").as_path()));
        assert_eq!(ops[1], ("rename", dir.join("entries").join("k1.json")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unflushed_puts_survive_a_crash() {
        let dir = tmpdir("crash");
        let mut c = DiskCache::open_default(&dir).unwrap();
        // The index as of the last flush (here: the one open wrote).
        let flushed_index = std::fs::read(dir.join("index.json")).unwrap();
        let n = 5;
        for i in 0..n {
            let kind = if i % 2 == 0 {
                "compile"
            } else {
                "tuned-config"
            };
            c.put(&format!("k{i}"), kind, &payload(&format!("p{i}")))
                .unwrap();
        }
        let before: HashMap<String, (String, u64)> = c
            .list()
            .into_iter()
            .map(|(key, kind, bytes, _)| (key, (kind, bytes)))
            .collect();
        // Dropped without `flush`, as a killed process would be: the
        // on-disk index still lists none of the puts.
        drop(c);
        assert_eq!(
            std::fs::read(dir.join("index.json")).unwrap(),
            flushed_index,
            "put must not rewrite the index"
        );
        let mut c = DiskCache::open_default(&dir).unwrap();
        let after: HashMap<String, (String, u64)> = c
            .list()
            .into_iter()
            .map(|(key, kind, bytes, _)| (key, (kind, bytes)))
            .collect();
        assert_eq!(after.len(), n);
        assert_eq!(after, before, "every entry adopted with its kind and size");
        for i in 0..n {
            let (_, p) = c.get(&format!("k{i}")).expect("adopted entry hits");
            assert_eq!(p, payload(&format!("p{i}")));
        }
        assert_eq!(c.stats().hits, n as u64);
        assert_eq!(c.stats().misses, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_row_of_an_evicted_entry_is_dropped_on_open() {
        let dir = tmpdir("evicted-row");
        let one = payload("x").render();
        let entry_overhead = 120; // format/key/kind/checksum wrapper
        let budget = 2 * (one.len() as u64 + entry_overhead);
        let mut c = DiskCache::open(&dir, budget).unwrap();
        c.put("k1", "compile", &payload("x")).unwrap();
        c.put("k2", "compile", &payload("x")).unwrap();
        c.flush().unwrap();
        // Evicts k1's file; the flushed index still lists it.
        c.put("k3", "compile", &payload("x")).unwrap();
        assert_eq!(c.stats().evictions, 1);
        drop(c);
        let index = std::fs::read_to_string(dir.join("index.json")).unwrap();
        assert!(index.contains("\"k1\""), "stale row on disk: {index}");
        assert!(!dir.join("entries").join("k1.json").exists());
        let mut c = DiskCache::open(&dir, budget).unwrap();
        let keys: Vec<String> = c.list().into_iter().map(|(key, ..)| key).collect();
        assert_eq!(keys.len(), 2);
        assert!(
            !keys.contains(&"k1".to_string()),
            "stale row dropped: {keys:?}"
        );
        assert!(c.get("k1").is_none());
        assert!(c.get("k2").is_some() && c.get("k3").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_get_roundtrip_and_persistence() {
        let dir = tmpdir("roundtrip");
        let mut c = DiskCache::open_default(&dir).unwrap();
        assert!(c.get("aaaa").is_none());
        c.put("aaaa", "compile", &payload("k")).unwrap();
        let (kind, p) = c.get("aaaa").unwrap();
        assert_eq!(kind, "compile");
        assert_eq!(p, payload("k"));
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                puts: 1,
                ..CacheStats::default()
            }
        );
        drop(c);
        // Reopen: entry and recency survive.
        let mut c = DiskCache::open_default(&dir).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("aaaa").unwrap().1, payload("k"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_rebuild_after_index_loss() {
        let dir = tmpdir("rebuild");
        let mut c = DiskCache::open_default(&dir).unwrap();
        c.put("k1", "compile", &payload("a")).unwrap();
        c.put("k2", "compile", &payload("b")).unwrap();
        drop(c);
        std::fs::remove_file(dir.join("index.json")).unwrap();
        let mut c = DiskCache::open_default(&dir).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.get("k1").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_eviction_respects_recency_and_budget() {
        let dir = tmpdir("lru");
        let one = payload("x").render();
        let entry_overhead = 120; // format/key/kind/checksum wrapper
        let budget = 2 * (one.len() as u64 + entry_overhead);
        let mut c = DiskCache::open(&dir, budget).unwrap();
        c.put("k1", "compile", &payload("x")).unwrap();
        c.put("k2", "compile", &payload("x")).unwrap();
        // Touch k1 so k2 becomes the LRU victim.
        assert!(c.get("k1").is_some());
        c.put("k3", "compile", &payload("x")).unwrap();
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get("k2").is_none(), "LRU entry evicted");
        assert!(c.get("k1").is_some(), "recently used entry kept");
        assert!(c.get("k3").is_some(), "new entry kept");
        assert!(!dir.join("entries").join("k2.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_and_list() {
        let dir = tmpdir("rm");
        let mut c = DiskCache::open_default(&dir).unwrap();
        c.put("k1", "compile", &payload("a")).unwrap();
        c.put("k2", "table2-op", &payload("b")).unwrap();
        let l = c.list();
        assert_eq!(l.len(), 2);
        assert_eq!(l[0].0, "k2", "most recent first");
        assert!(c.remove("k1"));
        assert!(!c.remove("k1"));
        assert_eq!(c.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmps_swept_on_open() {
        // Simulate writes that died between create and rename: torn
        // `.tmp.*` staging files in both the root (index writes) and
        // `entries/` (entry writes). Opening must reclaim them all while
        // leaving live entries untouched.
        let dir = tmpdir("sweep");
        let mut c = DiskCache::open_default(&dir).unwrap();
        c.put("live", "compile", &payload("keep")).unwrap();
        drop(c);
        let torn_entry = dir.join("entries").join(".tmp.4242.dead.json");
        let torn_index = dir.join(".tmp.4242.index.json");
        std::fs::write(&torn_entry, "{\"format\":1,\"key\":\"dead").unwrap();
        std::fs::write(&torn_index, "{\"version\":1,\"ti").unwrap();

        let mut c = DiskCache::open_default(&dir).unwrap();
        assert_eq!(c.stats().swept_tmps, 2);
        assert!(!torn_entry.exists(), "torn entry tmp removed");
        assert!(!torn_index.exists(), "torn index tmp removed");
        assert_eq!(c.get("live").unwrap().1, payload("keep"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_entry_is_quarantined_not_served() {
        // A torn rename can land a truncated entry file under the real
        // entry name; the checksum layer must quarantine it, never
        // serve it.
        let dir = tmpdir("torn");
        let mut c = DiskCache::open_default(&dir).unwrap();
        c.put("kk", "compile", &payload("v")).unwrap();
        drop(c);
        let entry = dir.join("entries").join("kk.json");
        let full = std::fs::read_to_string(&entry).unwrap();
        std::fs::write(&entry, &full[..full.len() / 2]).unwrap();

        let mut c = DiskCache::open_default(&dir).unwrap();
        assert!(c.get("kk").is_none(), "torn entry must read as a miss");
        assert!(!entry.exists(), "torn entry moved aside");
        assert!(
            dir.join("quarantine").join("kk.json.0").exists(),
            "torn entry preserved for post-mortem"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_covers_unindexed_entries_and_counts_corpses() {
        let dir = tmpdir("verify");
        let mut c = DiskCache::open_default(&dir).unwrap();
        c.put("good", "compile", &payload("ok")).unwrap();
        drop(c);
        // An entry file the index knows nothing about (e.g. dropped from
        // a stale index), corrupted on disk.
        let orphan = dir.join("entries").join("orphan.json");
        std::fs::write(&orphan, "{\"format\":1,\"key\":\"orphan\",\"ga").unwrap();
        let mut c = DiskCache::open_default(&dir).unwrap();
        assert!(!c.entries.contains_key("orphan"), "not in the index");
        let (ok, bad) = c.verify();
        assert_eq!((ok, bad), (1, 1), "orphan found and quarantined");
        assert!(!orphan.exists());
        assert_eq!(c.quarantined_count(), 1);
        // A second verify finds nothing new: the backlog persists until
        // an operator purges it, and purging empties it exactly once.
        let (_, bad) = c.verify();
        assert_eq!(bad, 0, "already-quarantined corpse re-flagged");
        assert_eq!(c.quarantined_count(), 1);
        assert_eq!(c.purge_quarantine().unwrap(), 1);
        assert_eq!(c.quarantined_count(), 0);
        assert_eq!(c.purge_quarantine().unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
