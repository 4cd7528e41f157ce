//! Content-addressed result cache for `branch-lab serve`.
//!
//! Every study is a pure, deterministic function of (study name, dataset
//! shape, study config, trace digest) — see the study registry — so its
//! rendered report and metrics manifest can be cached under a content
//! hash of exactly those inputs. [`CacheKey`] derives that hash;
//! [`ResultCache`] stores the (report, manifest) pair in two tiers:
//!
//! * **Memory** — one `OnceLock` slot per key, filled exactly once like
//!   the trace store's memo slots: [`ResultCache::get_or_fill`] lets the
//!   first request that finds a slot empty fill it, from disk or by
//!   computing the result, while concurrent requests for the key wait and
//!   share that entry. A fill that unwinds stores nothing, and a waiting
//!   request then runs its own fill. The tier is LRU-bounded by resident
//!   bytes.
//! * **Disk** — one `BLR1` file per key under the cache directory,
//!   framed with an FNV-1a trailer and written with
//!   [`durable::write_atomic`] (unique temp file, fsync, atomic rename):
//!   a `kill -9` mid-write can leave a stale temp file or no file, but
//!   never a loadable-but-wrong entry. Torn or corrupt files are
//!   quarantined as `<key>.blr.corrupt-<n>` by [`durable::quarantine`],
//!   as the trace store quarantines trace files, and the result
//!   regenerates. The disk tier is LRU-bounded by resident bytes
//!   (coldest-by-mtime first across restarts).
//!
//! Key derivation canonicalizes before hashing: components are sorted by
//! name and joined unambiguously, so two requests that spell the same
//! configuration in different orders (JSON key order, flag order) hash
//! identically, while any single component *value* change produces a new
//! key.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use bp_metrics::durable::{self, Lru};
use bp_metrics::{faultpoint, fnv1a, Counter, FNV_OFFSET};

/// File magic for v1 cache entries.
const MAGIC: &[u8; 4] = b"BLR1";
/// Refuse to load cache files larger than this (a corrupt or hostile
/// file must not drive allocation).
const MAX_ENTRY_BYTES: u64 = 256 * 1024 * 1024;

/// A content hash identifying one study result.
///
/// Built from named components via [`CacheKey::builder`]; the canonical
/// form sorts components by name, so insertion order never changes the
/// key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(u64);

impl CacheKey {
    /// Starts an empty key derivation.
    #[must_use]
    pub fn builder() -> KeyBuilder {
        KeyBuilder {
            components: BTreeMap::new(),
        }
    }

    /// The raw 64-bit hash.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Fixed-width lower-hex rendering (the wire / file-name form).
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the [`CacheKey::hex`] form.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        (s.len() == 16)
            .then(|| u64::from_str_radix(s, 16).ok())
            .flatten()
            .map(CacheKey)
    }
}

/// Accumulates named components for a [`CacheKey`].
#[derive(Clone, Debug, Default)]
pub struct KeyBuilder {
    components: BTreeMap<String, String>,
}

impl KeyBuilder {
    /// Adds (or replaces) one named component.
    #[must_use]
    pub fn component(mut self, name: &str, value: impl ToString) -> KeyBuilder {
        self.components.insert(name.to_string(), value.to_string());
        self
    }

    /// The canonical pre-hash form: `name=value` pairs sorted by name,
    /// newline-joined. Exposed so tests and logs can show exactly what
    /// was hashed.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.components {
            out.push_str(name);
            out.push('=');
            out.push_str(value);
            out.push('\n');
        }
        out
    }

    /// Finishes the derivation: FNV-1a 64 over the canonical form.
    #[must_use]
    pub fn finish(&self) -> CacheKey {
        // Hash each component with explicit separators so no
        // concatenation of adjacent names/values can collide with a
        // different split of the same bytes.
        CacheKey(self.components.iter().fold(FNV_OFFSET, |hash, (name, value)| {
            let hash = fnv1a(fnv1a(hash, name.as_bytes()), &[0x00]);
            fnv1a(fnv1a(hash, value.as_bytes()), &[0x01])
        }))
    }
}

/// One cached result: the study's rendered report (byte-identical to the
/// equivalent CLI invocation's stdout) and its metrics manifest JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// The key the entry was stored under.
    pub key: CacheKey,
    /// Rendered report bytes.
    pub body: Vec<u8>,
    /// Run-manifest JSON captured when the result was first computed.
    pub manifest: String,
}

impl CacheEntry {
    fn resident_bytes(&self) -> u64 {
        (self.body.len() + self.manifest.len()) as u64
    }

    /// Serializes to the `BLR1` on-disk form, trailer included.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 8 * 4 + self.body.len() + self.manifest.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.key.raw().to_le_bytes());
        out.extend_from_slice(&(self.body.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.manifest.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.body);
        out.extend_from_slice(self.manifest.as_bytes());
        let trailer = fnv1a(FNV_OFFSET, &out);
        out.extend_from_slice(&trailer.to_le_bytes());
        out
    }

    /// Decodes and verifies a `BLR1` payload (including its trailer).
    fn decode(raw: &[u8], expect: CacheKey) -> Result<CacheEntry, String> {
        let header = 4 + 8 * 3;
        if raw.len() < header + 8 {
            return Err("truncated header".to_string());
        }
        let (payload, trailer) = raw.split_at(raw.len() - 8);
        if trailer != fnv1a(FNV_OFFSET, payload).to_le_bytes() {
            return Err("checksum mismatch".to_string());
        }
        if &payload[..4] != MAGIC {
            return Err("bad magic".to_string());
        }
        let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        let key = CacheKey(word(4));
        if key != expect {
            return Err(format!("key mismatch: file says {}", key.hex()));
        }
        let body_len = word(12) as usize;
        let manifest_len = word(20) as usize;
        if payload.len() - header != body_len.saturating_add(manifest_len) {
            return Err("length fields disagree with payload".to_string());
        }
        let body = payload[header..header + body_len].to_vec();
        let manifest = String::from_utf8(payload[header + body_len..].to_vec())
            .map_err(|_| "manifest is not UTF-8".to_string())?;
        Ok(CacheEntry { key, body, manifest })
    }
}

/// How a request for an entry was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Already in the memory tier.
    Memory,
    /// Loaded from the disk tier (and promoted to memory).
    Disk,
    /// Computed by this request.
    Computed,
    /// Filled by a concurrent request that this one waited on.
    Joined,
}

impl Source {
    /// The `X-Branch-Lab-Cache` label: `hit`, `hit-disk`, `miss` or
    /// `join`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Source::Memory => "hit",
            Source::Disk => "hit-disk",
            Source::Computed => "miss",
            Source::Joined => "join",
        }
    }
}

/// One memory-tier slot, filled at most once.
type Slot = Arc<OnceLock<Arc<CacheEntry>>>;

/// The two-tier content-addressed result cache.
pub struct ResultCache {
    slots: Mutex<HashMap<CacheKey, Slot>>,
    mem_lru: Mutex<Lru<CacheKey>>,
    disk_lru: Mutex<Lru<CacheKey>>,
    dir: Option<PathBuf>,
    m_hit: Counter,
    m_disk_hit: Counter,
    m_miss: Counter,
    m_store: Counter,
    m_evict: Counter,
    m_corrupt: Counter,
}

impl ResultCache {
    /// A cache with an optional disk tier under `dir` and an optional
    /// per-tier resident-byte `budget`.
    #[must_use]
    pub fn new(dir: Option<PathBuf>, budget: Option<u64>) -> ResultCache {
        let cache = ResultCache {
            slots: Mutex::new(HashMap::new()),
            mem_lru: Mutex::new(Lru::new(budget)),
            disk_lru: Mutex::new(Lru::new(budget)),
            dir,
            m_hit: Counter::get("serve.cache.hit"),
            m_disk_hit: Counter::get("serve.cache.disk_hit"),
            m_miss: Counter::get("serve.cache.miss"),
            m_store: Counter::get("serve.cache.store"),
            m_evict: Counter::get("serve.cache.evict"),
            m_corrupt: Counter::get("serve.cache.corrupt"),
        };
        cache.scan_disk();
        cache
    }

    /// Seeds the disk LRU from pre-existing entries, coldest (oldest
    /// mtime) first, so the byte budget holds across restarts.
    fn scan_disk(&self) {
        let Some(dir) = &self.dir else { return };
        let Ok(read) = std::fs::read_dir(dir) else { return };
        let mut found: Vec<(std::time::SystemTime, CacheKey, u64)> = Vec::new();
        for dent in read.flatten() {
            let name = dent.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".blr")) else {
                continue;
            };
            let Some(key) = CacheKey::from_hex(stem) else { continue };
            let Ok(meta) = dent.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            found.push((mtime, key, meta.len()));
        }
        found.sort();
        for (_, key, bytes) in found {
            self.touch_disk(key, bytes);
        }
    }

    fn entry_path(&self, key: CacheKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{}.blr", key.hex())))
    }

    /// The memory-tier slot of `key`, created empty if it has none.
    fn slot(&self, key: CacheKey) -> Slot {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(slots.entry(key).or_default())
    }

    /// Looks `key` up without computing it: memory first, then disk
    /// (verifying the trailer and promoting the entry to memory). Returns
    /// the entry and where it was found, or `None` on a miss. A corrupt
    /// disk entry is quarantined and reads as a miss.
    #[must_use]
    pub fn get(&self, key: CacheKey) -> Option<(Arc<CacheEntry>, Source)> {
        let resident = {
            let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            slots.get(&key).and_then(|slot| slot.get().cloned())
        };
        let (entry, source) = match resident {
            Some(entry) => {
                self.m_hit.incr();
                (entry, Source::Memory)
            }
            None => {
                let Some(entry) = self.load_disk(key) else {
                    self.m_miss.incr();
                    return None;
                };
                (Arc::clone(self.slot(key).get_or_init(|| Arc::new(entry))), Source::Disk)
            }
        };
        self.touch_mem(&entry);
        Some((entry, source))
    }

    /// Returns the entry under `key`, filling its memory slot at most
    /// once: the first request to find the slot empty loads the disk
    /// entry or, if there is none, stores the entry `compute` returns in
    /// both tiers. Requests that arrive while a fill runs wait for it and
    /// share its entry.
    ///
    /// If `compute` unwinds — a cancelled or panicking request — nothing
    /// is stored, the unwind reaches this caller, and a request waiting on
    /// the slot runs its own fill.
    pub fn get_or_fill(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> CacheEntry,
    ) -> (Arc<CacheEntry>, Source) {
        let slot = self.slot(key);
        let mut source = Source::Joined;
        let entry = match slot.get() {
            Some(entry) => {
                self.m_hit.incr();
                source = Source::Memory;
                Arc::clone(entry)
            }
            None => Arc::clone(slot.get_or_init(|| {
                if let Some(entry) = self.load_disk(key) {
                    source = Source::Disk;
                    return Arc::new(entry);
                }
                self.m_miss.incr();
                let entry = compute();
                self.persist(&entry);
                source = Source::Computed;
                Arc::new(entry)
            })),
        };
        self.touch_mem(&entry);
        (entry, source)
    }

    /// Reads and verifies the disk entry of `key`. A damaged entry is
    /// quarantined and reads as `None`.
    fn load_disk(&self, key: CacheKey) -> Option<CacheEntry> {
        let path = self.entry_path(key)?;
        let meta = std::fs::metadata(&path).ok()?;
        if meta.len() > MAX_ENTRY_BYTES {
            self.quarantine(key, &path, "oversized entry");
            return None;
        }
        let raw = std::fs::read(&path).ok()?;
        let injected = faultpoint::should_fail("serve.cache.load");
        match CacheEntry::decode(&raw, key) {
            Ok(_) if injected => {
                self.quarantine(key, &path, "injected fault: corrupt cache entry");
                None
            }
            Ok(entry) => {
                self.m_disk_hit.incr();
                self.touch_disk(key, raw.len() as u64);
                Some(entry)
            }
            Err(reason) => {
                self.quarantine(key, &path, &reason);
                None
            }
        }
    }

    /// Quarantines a damaged entry so it is never served and never
    /// reloaded: moved aside by [`durable::quarantine`], forgotten by the
    /// LRU, counted.
    fn quarantine(&self, key: CacheKey, path: &Path, reason: &str) {
        self.m_corrupt.incr();
        eprintln!(
            "branch-lab serve: quarantined corrupt cache entry {} ({reason})",
            path.display()
        );
        durable::quarantine(path);
        self.disk_lru
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .forget(&key);
    }

    /// Writes a freshly computed entry to the disk tier. Best-effort: a
    /// full disk degrades to memory-only caching.
    fn persist(&self, entry: &CacheEntry) {
        self.m_store.incr();
        let (Some(dir), Some(path)) = (&self.dir, self.entry_path(entry.key)) else { return };
        if faultpoint::should_fail("serve.cache.save") {
            eprintln!("branch-lab serve: injected fault: skipping cache save {}", entry.key.hex());
            return;
        }
        let payload = entry.encode();
        let saved = std::fs::create_dir_all(dir)
            .and_then(|()| durable::write_atomic(&path, |w| w.write_all(&payload)));
        match saved {
            Ok(()) => self.touch_disk(entry.key, payload.len() as u64),
            Err(e) => eprintln!(
                "branch-lab serve: failed to persist cache entry {}: {e}",
                path.display()
            ),
        }
    }

    fn touch_mem(&self, entry: &CacheEntry) {
        let cold = self
            .mem_lru
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .note_use(entry.key, entry.resident_bytes());
        if !cold.is_empty() {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            for key in cold {
                slots.remove(&key);
                self.m_evict.incr();
            }
        }
    }

    fn touch_disk(&self, key: CacheKey, bytes: u64) {
        let cold = self
            .disk_lru
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .note_use(key, bytes);
        for key in cold {
            if let Some(path) = self.entry_path(key) {
                let _ = std::fs::remove_file(path);
                self.m_evict.incr();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bp-serve-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(key: CacheKey, body: &str) -> CacheEntry {
        CacheEntry {
            key,
            body: body.as_bytes().to_vec(),
            manifest: format!("{{\"run\": \"{body}\"}}"),
        }
    }

    #[test]
    fn key_components_canonicalize_and_discriminate() {
        let a = CacheKey::builder()
            .component("study", "fig7")
            .component("trace_len", 1_000_000)
            .finish();
        let b = CacheKey::builder()
            .component("trace_len", 1_000_000)
            .component("study", "fig7")
            .finish();
        assert_eq!(a, b, "component order must not matter");
        let c = CacheKey::builder()
            .component("study", "fig7")
            .component("trace_len", 1_000_001)
            .finish();
        assert_ne!(a, c, "value changes must change the key");
        // Name/value boundary ambiguity must not collide.
        let d = CacheKey::builder().component("ab", "c").finish();
        let e = CacheKey::builder().component("a", "bc").finish();
        assert_ne!(d, e);
        assert_eq!(CacheKey::from_hex(&a.hex()), Some(a));
    }

    #[test]
    fn memory_roundtrip_and_miss() {
        let cache = ResultCache::new(None, None);
        let key = CacheKey::builder().component("k", 1).finish();
        assert!(cache.get(key).is_none());
        let (filled, source) = cache.get_or_fill(key, || entry(key, "hello"));
        assert_eq!(source, Source::Computed);
        let (got, source) = cache.get(key).unwrap();
        assert_eq!(source, Source::Memory);
        assert!(Arc::ptr_eq(&got, &filled));
        assert_eq!(got.body, b"hello");
        let (_, source) = cache.get_or_fill(key, || unreachable!("the slot is filled"));
        assert_eq!(source, Source::Memory);
    }

    #[test]
    fn concurrent_requests_fill_a_missing_key_once() {
        let cache = ResultCache::new(None, None);
        let key = CacheKey::builder().component("k", 7).finish();
        let fills = std::sync::atomic::AtomicU32::new(0);
        let start = std::sync::Barrier::new(8);
        let got: Vec<(Arc<CacheEntry>, Source)> = std::thread::scope(|scope| {
            let requests: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        cache.get_or_fill(key, || {
                            fills.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            // Hold the fill open while the others arrive.
                            std::thread::sleep(std::time::Duration::from_millis(40));
                            entry(key, "once")
                        })
                    })
                })
                .collect();
            requests.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(fills.load(std::sync::atomic::Ordering::SeqCst), 1, "one fill");
        assert!(got.iter().all(|(e, _)| Arc::ptr_eq(e, &got[0].0)), "one Arc for all");
        let computed = got.iter().filter(|(_, s)| *s == Source::Computed).count();
        assert_eq!(computed, 1);
        assert!(got.iter().all(|(_, s)| matches!(s, Source::Computed | Source::Joined | Source::Memory)));
    }

    #[test]
    fn a_fill_that_unwinds_stores_nothing() {
        use bp_metrics::cancel::Cancelled;
        let dir = temp_dir("unwind");
        let cache = ResultCache::new(Some(dir.clone()), None);
        let key = CacheKey::builder().component("k", 8).finish();
        let stop = || -> CacheEntry {
            std::panic::resume_unwind(Box::new(Cancelled { reason: "deadline expired".into() }))
        };
        let crash = || -> CacheEntry { panic!("study crashed") };
        for fail in [&stop as &dyn Fn() -> CacheEntry, &crash] {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.get_or_fill(key, fail)
            }));
            assert!(unwound.is_err(), "the unwind reaches the caller");
            assert!(cache.get(key).is_none(), "nothing stored in either tier");
        }
        assert!(!dir.join(format!("{}.blr", key.hex())).exists());
        // The next request fills the key.
        let (got, source) = cache.get_or_fill(key, || entry(key, "second try"));
        assert_eq!((got.body.as_slice(), source), (&b"second try"[..], Source::Computed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_survives_a_new_cache_instance() {
        let dir = temp_dir("persist");
        let key = CacheKey::builder().component("k", 2).finish();
        {
            let cache = ResultCache::new(Some(dir.clone()), None);
            let _ = cache.get_or_fill(key, || entry(key, "persisted"));
        }
        let fresh = ResultCache::new(Some(dir.clone()), None);
        let (got, source) = fresh.get(key).unwrap();
        assert_eq!(source, Source::Disk);
        assert_eq!(got.body, b"persisted");
        assert_eq!(got.manifest, "{\"run\": \"persisted\"}");
        // Second lookup is a memory hit (promotion).
        assert_eq!(fresh.get(key).unwrap().1, Source::Memory);
        // A fill finds the disk entry without computing.
        let other = ResultCache::new(Some(dir.clone()), None);
        let (got, source) = other.get_or_fill(key, || unreachable!("the disk holds the entry"));
        assert_eq!((got.body.as_slice(), source), (&b"persisted"[..], Source::Disk));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_quarantine_and_regenerate() {
        let dir = temp_dir("corrupt");
        let key = CacheKey::builder().component("k", 3).finish();
        {
            let cache = ResultCache::new(Some(dir.clone()), None);
            let _ = cache.get_or_fill(key, || entry(key, "good"));
        }
        let path = dir.join(format!("{}.blr", key.hex()));
        // Flip a byte in the body region: the trailer must catch it.
        let mut raw = std::fs::read(&path).unwrap();
        let at = raw.len() - 12;
        raw[at] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();

        let fresh = ResultCache::new(Some(dir.clone()), None);
        assert!(fresh.get(key).is_none(), "corrupt entry must read as a miss");
        assert!(!path.exists(), "corrupt entry must not stay loadable");
        assert!(
            dir.join(format!("{}.blr.corrupt-1", key.hex())).exists(),
            "corrupt entry must be quarantined, not deleted"
        );
        // Regeneration overwrites cleanly.
        let (_, source) = fresh.get_or_fill(key, || entry(key, "good"));
        assert_eq!(source, Source::Computed);
        assert!(fresh.get(key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entries_are_rejected() {
        let dir = temp_dir("torn");
        let key = CacheKey::builder().component("k", 4).finish();
        {
            let cache = ResultCache::new(Some(dir.clone()), None);
            let _ = cache.get_or_fill(key, || {
                entry(key, "some body text that is long enough to truncate")
            });
        }
        let path = dir.join(format!("{}.blr", key.hex()));
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        let fresh = ResultCache::new(Some(dir.clone()), None);
        assert!(fresh.get(key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_is_detected() {
        let dir = temp_dir("mismatch");
        let key_a = CacheKey::builder().component("k", 5).finish();
        let key_b = CacheKey::builder().component("k", 6).finish();
        {
            let cache = ResultCache::new(Some(dir.clone()), None);
            let _ = cache.get_or_fill(key_a, || entry(key_a, "a"));
        }
        // Masquerade entry A as entry B.
        std::fs::rename(
            dir.join(format!("{}.blr", key_a.hex())),
            dir.join(format!("{}.blr", key_b.hex())),
        )
        .unwrap();
        let fresh = ResultCache::new(Some(dir.clone()), None);
        assert!(fresh.get(key_b).is_none(), "renamed entry must not serve under the wrong key");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_budget_evicts_coldest_but_never_the_entry_in_use() {
        let dir = temp_dir("lru");
        // Each entry is ~60 bytes on disk; budget fits roughly two.
        let cache = ResultCache::new(Some(dir.clone()), Some(150));
        let keys: Vec<CacheKey> = (0..4)
            .map(|i| CacheKey::builder().component("k", 100 + i).finish())
            .collect();
        for (i, &key) in keys.iter().enumerate() {
            let _ = cache.get_or_fill(key, || entry(key, &format!("body-{i}")));
        }
        let on_disk = |key: CacheKey| dir.join(format!("{}.blr", key.hex())).exists();
        assert!(!on_disk(keys[0]), "coldest entry must evict");
        assert!(on_disk(keys[3]), "the just-stored entry must survive");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
