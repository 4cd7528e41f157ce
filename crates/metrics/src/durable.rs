//! Durable cache files and bounded residency, shared by branch-lab's two
//! caches: the trace store (`bp_workloads::TraceStore`, `.bptr` files)
//! and serve's result cache (`bp_core::serve::cache::ResultCache`,
//! `.blr` files).
//!
//! * [`write_atomic`] — a file is written to a unique temporary name in
//!   its directory, fsynced and renamed into place, so a reader (or a
//!   crash) sees the old complete file or the new one, never a torn one.
//! * [`quarantine`] — a file found damaged is moved aside under a fresh
//!   `<file>.corrupt-<n>` name, and only the newest [`QUARANTINE_KEEP`]
//!   such files stay in its directory.
//! * [`Lru`] — least-recently-used order over resident entries under an
//!   optional byte budget.
//!
//! Each cache keeps its own format and integrity check (BPTR checks each
//! block inside `bp-trace`; serve frames a whole entry) and its own
//! stderr wording; this module only moves bytes and keeps the order.

use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes the file at `path` atomically: `write` fills a unique temporary
/// file in the same directory, which is flushed, fsynced and then renamed
/// over `path`. Readers, and concurrent writers racing on one path, only
/// ever see a complete file; a crash mid-write leaves at worst an
/// orphaned `.tmp` file, never a torn file at `path`. The directory is
/// not synced: a power loss may undo the rename, leaving the old file or
/// none, which both caches read as a miss.
///
/// # Errors
///
/// Propagates the error of `write` and any create, flush, sync or rename
/// failure. On error the temporary file is removed (best-effort).
pub fn write_atomic<E, F>(path: &Path, write: F) -> Result<(), E>
where
    E: From<io::Error>,
    F: FnOnce(&mut BufWriter<File>) -> Result<(), E>,
{
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let base = path.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    let tmp = dir.join(format!(
        ".{base}.{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let written = File::create(&tmp).map_err(E::from).and_then(|file| {
        let mut writer = BufWriter::new(file);
        write(&mut writer)?;
        // Sync before the rename, so the new name can never be durable
        // before the data it points at.
        let file = writer.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Most recent quarantined files kept per directory; older evidence is
/// pruned.
pub const QUARANTINE_KEEP: usize = 8;

/// Moves the damaged file at `path` aside as `<file>.corrupt-<n>`, with
/// `n` picked so the name is fresh (repeated damage to one file never
/// overwrites earlier evidence), then deletes the directory's oldest
/// quarantined files beyond [`QUARANTINE_KEEP`]. Renaming within a
/// directory is atomic, so a concurrent reader sees the file or no file,
/// never a half-moved one. If even the rename fails, the file is deleted
/// so it cannot be read again. Best-effort throughout; the caller reports
/// the damage.
pub fn quarantine(path: &Path) {
    let fresh = (1u32..10_000)
        .map(|n| {
            let mut q = path.as_os_str().to_owned();
            q.push(format!(".corrupt-{n}"));
            PathBuf::from(q)
        })
        .find(|q| !q.exists());
    if fresh.is_none_or(|q| std::fs::rename(path, q).is_err()) {
        let _ = std::fs::remove_file(path);
    }
    if let Some(dir) = path.parent() {
        prune_quarantine(dir);
    }
}

/// Deletes the oldest (by modification time, then name) quarantined files
/// in `dir` beyond [`QUARANTINE_KEEP`]. Pruning bounds disk growth; it
/// does not promise an exact census.
fn prune_quarantine(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut quarantined: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter(|e| e.file_name().to_str().is_some_and(|n| n.contains(".corrupt")))
        .map(|e| {
            let mtime =
                e.metadata().and_then(|m| m.modified()).unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            (mtime, e.path())
        })
        .collect();
    if quarantined.len() <= QUARANTINE_KEEP {
        return;
    }
    quarantined.sort();
    let excess = quarantined.len() - QUARANTINE_KEEP;
    for (_, p) in quarantined.into_iter().take(excess) {
        let _ = std::fs::remove_file(p);
    }
}

/// Least-recently-used order over resident entries, each with its
/// resident bytes, under an optional byte budget. The owner keeps the
/// entries themselves and drops the ones [`Lru::note_use`] returns.
#[derive(Debug)]
pub struct Lru<K> {
    /// `(key, bytes)`, coldest first.
    order: Vec<(K, u64)>,
    resident: u64,
    budget: Option<u64>,
}

impl<K: PartialEq> Lru<K> {
    /// An empty order; `None` never evicts.
    #[must_use]
    pub fn new(budget: Option<u64>) -> Lru<K> {
        Lru { order: Vec::new(), resident: 0, budget }
    }

    /// Marks `key` (of `bytes` resident bytes, counted when it is new) as
    /// just used and returns the coldest keys to evict until the resident
    /// bytes fit the budget. It never returns `key` itself, so the entry
    /// in use stays even when it alone exceeds the budget.
    pub fn note_use(&mut self, key: K, bytes: u64) -> Vec<K> {
        if let Some(pos) = self.order.iter().position(|(k, _)| *k == key) {
            let used = self.order.remove(pos);
            self.order.push(used);
        } else {
            self.order.push((key, bytes));
            self.resident += bytes;
        }
        let mut cold = Vec::new();
        while self.budget.is_some_and(|b| self.resident > b) && self.order.len() > 1 {
            let (k, b) = self.order.remove(0);
            self.resident -= b;
            cold.push(k);
        }
        cold
    }

    /// Drops `key` from the order without evicting anything, e.g. after
    /// its file was quarantined.
    pub fn forget(&mut self, key: &K) {
        if let Some(pos) = self.order.iter().position(|(k, _)| k == key) {
            let (_, b) = self.order.remove(pos);
            self.resident -= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bp_durable_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn save_leaves_no_temp_files_behind() {
        let dir = scratch_dir("atomic");
        let path = dir.join("atomic.bptr");
        write_atomic(&path, |w| w.write_all(b"first")).unwrap();
        write_atomic(&path, |w| w.write_all(b"second")).unwrap(); // overwrite is atomic too
        assert_eq!(names(&dir), vec!["atomic.bptr".to_string()]);
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_write_removes_its_temp_file_and_keeps_the_old_file() {
        let dir = scratch_dir("failed");
        let path = dir.join("entry.blr");
        write_atomic(&path, |w| w.write_all(b"old")).unwrap();
        let err = write_atomic(&path, |w| {
            w.write_all(b"half of the new")?;
            Err(io::Error::other("disk full"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(names(&dir), vec!["entry.blr".to_string()]);
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_quarantines_keep_distinct_evidence_up_to_the_cap() {
        let dir = scratch_dir("quarantine");
        let victim = dir.join("w-i0-l100.bptr");
        for round in 1..=(QUARANTINE_KEEP + 3) {
            std::fs::write(&victim, format!("garbage {round}")).unwrap();
            quarantine(&victim);
            assert!(!victim.exists(), "original must be moved aside");
            if round == 2 {
                assert_eq!(
                    names(&dir),
                    ["w-i0-l100.bptr.corrupt-1", "w-i0-l100.bptr.corrupt-2"],
                    "a second quarantine takes a fresh name"
                );
            }
        }
        let quarantined: Vec<String> =
            names(&dir).into_iter().filter(|n| n.contains(".corrupt")).collect();
        assert_eq!(quarantined.len(), QUARANTINE_KEEP, "retention is capped: {quarantined:?}");
        let unique: std::collections::HashSet<&String> = quarantined.iter().collect();
        assert_eq!(unique.len(), quarantined.len(), "names never clobber each other");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_evicts_coldest_first_but_never_the_key_in_use() {
        let mut lru = Lru::new(Some(10));
        assert!(lru.note_use('a', 4).is_empty());
        assert!(lru.note_use('b', 4).is_empty());
        // Using `a` again makes `b` the coldest.
        assert!(lru.note_use('a', 4).is_empty());
        assert_eq!(lru.note_use('c', 4), vec!['b']);
        // An entry larger than the budget evicts everything else but stays.
        assert_eq!(lru.note_use('d', 64), vec!['a', 'c']);
        assert!(lru.note_use('d', 64).is_empty());
        // A forgotten key no longer counts against the budget.
        lru.forget(&'d');
        assert!(lru.note_use('e', 10).is_empty());
        // Without a budget nothing is ever evicted.
        let mut open = Lru::new(None);
        assert!((0..100).all(|k| open.note_use(k, u64::MAX / 128).is_empty()));
    }
}
