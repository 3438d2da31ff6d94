//! The round-report store: a `VANETCACHE1` [`Journal`] behind a writer
//! lock.
//!
//! The journal format, its crash tolerance and compaction are the shared
//! [`Journal`]'s (see [`crate::journal`]); this module adds the codec that
//! makes its records [`RoundReport`]s and the cross-process writer
//! exclusion.
//!
//! ## Writer exclusion
//!
//! Appends from two *handles* on one journal are not torn-safe, so a
//! writable open takes an advisory lockfile (`cache.lock`, holding the
//! writer's pid). A second writer on the same directory fails fast with a
//! clear [`CacheError`] instead of interleaving appends; a lockfile left
//! behind by a crashed writer is detected (the pid is gone) and reclaimed.
//! [`SweepCache::open_read_only`] stays lock-free: it never writes, never
//! truncates a torn tail, and coexists with a live writer.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use vanet_stats::RoundReport;

use crate::journal::{Journal, RecordCodec};
use crate::key::CacheKey;

/// The advisory writer lockfile kept next to the journal.
const LOCK_FILE: &str = "cache.lock";

/// The `VANETCACHE1` codec: one [`RoundReport`] per cache key, in the
/// `vanet_stats::codec` encoding, in `rounds.journal`.
#[derive(Debug)]
pub struct RoundReportCodec;

impl RecordCodec for RoundReportCodec {
    type Value = RoundReport;
    const MAGIC: &'static [u8] = b"VANETCACHE1\n";
    const FILE_NAME: &'static str = "rounds.journal";

    fn encode(report: &RoundReport) -> Vec<u8> {
        report.to_bytes()
    }

    fn decode(payload: &[u8]) -> Option<RoundReport> {
        RoundReport::from_bytes(payload).ok()
    }
}

/// Why a journal operation failed. Carries the journal path so that errors
/// surfacing through a sweep, an analysis or the CLI are actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheError {
    path: PathBuf,
    message: String,
}

impl CacheError {
    pub(crate) fn new(path: &Path, message: impl Into<String>) -> Self {
        CacheError { path: path.to_path_buf(), message: message.into() }
    }

    pub(crate) fn io(path: &Path, action: &str, err: &std::io::Error) -> Self {
        CacheError::new(path, format!("cannot {action}: {err}"))
    }

    /// The journal (or directory) the failure concerns.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal at `{}`: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for CacheError {}

/// A point-in-time summary of a cache, as shown by `carq-cli cache stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Distinct round reports in the index.
    pub entries: usize,
    /// Journal size on disk, in bytes.
    pub file_bytes: u64,
    /// Bytes of torn tail dropped when the journal was opened (0 after a
    /// clean shutdown). A read-only open reports the torn bytes it skipped
    /// without truncating them away.
    pub recovered_bytes: u64,
    /// Bytes the journal would occupy after [`SweepCache::compact`]: the
    /// header plus one record per live index entry. The difference
    /// `file_bytes - live_bytes` is what a compaction reclaims.
    pub live_bytes: u64,
    /// Entries per scenario name, sorted by name. Generated scenarios
    /// (`gen/<generator>/<id16>`) roll up under their generator
    /// (`gen/<generator>`): a campaign populates thousands of one-off
    /// scenario names, and per-name rows would drown the breakdown.
    pub scenarios: Vec<(String, usize)>,
}

impl CacheStats {
    /// Bytes a [`SweepCache::compact`] would reclaim: dead superseded or
    /// forgotten records beyond the live set.
    pub fn reclaimable_bytes(&self) -> u64 {
        self.file_bytes.saturating_sub(self.live_bytes)
    }
}

/// Removes the advisory lockfile when the owning writer handle drops.
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Whether `pid` names a live process. Advisory only: on platforms without
/// a `/proc` to consult the answer is a conservative "yes".
fn process_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

/// Whether two paths name the same inode (the post-claim ownership check).
/// On platforms without inode identity the answer is a conservative "yes" —
/// the lock is advisory there anyway, like [`process_alive`].
fn same_file(a: &Path, b: &Path) -> bool {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt as _;
        match (std::fs::metadata(a), std::fs::metadata(b)) {
            (Ok(ma), Ok(mb)) => ma.dev() == mb.dev() && ma.ino() == mb.ino(),
            _ => false,
        }
    }
    #[cfg(not(unix))]
    {
        let _ = (a, b);
        true
    }
}

/// Takes the directory's advisory writer lock, reclaiming a lockfile whose
/// recorded pid is no longer alive (a crashed writer).
///
/// Acquisition is atomic. This process's pid is written once to a private
/// claim file, and the lock is taken by `hard_link`ing the claim to
/// `cache.lock`: the link fails if the path exists, and the lockfile's
/// content is complete the instant the path appears — there is no
/// create-then-write window in which a concurrent opener reads an empty
/// lockfile. A stale lock is stolen by atomically renaming it into a
/// private tomb and then **re-verifying the tomb's content**: exactly one
/// racer wins the rename, and if what it yanked is not the stale pid it
/// observed (a faster reclaimer already stole the stale lock *and*
/// re-locked), the yanked fresh lock is linked back into place and the
/// contention error is returned — two processes reclaiming the same stale
/// pid can no longer both proceed. After a successful link the claim and
/// the lockfile are compared by inode as a final ownership check.
fn acquire_lock(dir: &Path, journal: &Path) -> Result<LockGuard, CacheError> {
    let lock_path = dir.join(LOCK_FILE);
    let pid = std::process::id();
    let claim_path = dir.join(format!("{LOCK_FILE}.claim.{pid}"));
    std::fs::write(&claim_path, format!("{pid}\n"))
        .map_err(|e| CacheError::io(&claim_path, "write the lock claim file", &e))?;
    // Dropping this on every exit path removes the claim; on success the
    // lockfile is a second link to the same inode and survives it.
    let claim_guard = LockGuard { path: claim_path.clone() };
    let contention = |holder: Option<u32>| -> CacheError {
        let who = holder.map(|p| format!(" (pid {p})")).unwrap_or_default();
        CacheError::new(
            journal,
            format!(
                "another writer{who} holds this cache (lockfile `{}`); run one \
                 sweep per cache directory at a time, or delete the lockfile if \
                 that process is gone",
                lock_path.display()
            ),
        )
    };
    // Two reclaim rounds cover every benign interleaving; a loop that is
    // still losing races after that reports contention instead of spinning.
    for _attempt in 0..3 {
        match std::fs::hard_link(&claim_path, &lock_path) {
            Ok(()) => {
                if !same_file(&claim_path, &lock_path) {
                    // The claim linked but the path is someone else's inode:
                    // only possible if an outside agent swapped the lockfile
                    // under us. Do not touch it; report contention.
                    return Err(contention(None));
                }
                drop(claim_guard);
                return Ok(LockGuard { path: lock_path });
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = std::fs::read_to_string(&lock_path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                let stale = holder.is_some_and(|p| p != pid && !process_alive(p));
                if !stale {
                    return Err(contention(holder));
                }
                let tomb = dir.join(format!("{LOCK_FILE}.stale.{pid}"));
                if std::fs::rename(&lock_path, &tomb).is_ok() {
                    let yanked = std::fs::read_to_string(&tomb)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    if yanked != holder {
                        // We yanked a *fresh* lock a faster reclaimer just
                        // created. Restore it and concede.
                        let _ = std::fs::hard_link(&tomb, &lock_path);
                        let _ = std::fs::remove_file(&tomb);
                        return Err(contention(yanked));
                    }
                    let _ = std::fs::remove_file(&tomb);
                }
                // Retry the link; whoever claims first wins.
            }
            Err(e) => return Err(CacheError::io(&lock_path, "create the writer lockfile", &e)),
        }
    }
    Err(contention(None))
}

/// A shared, thread-safe handle on one cache directory.
///
/// Lookups are served from an in-memory index loaded at open; [`put`]
/// appends to the journal and updates the index. A `&SweepCache` can be
/// used from any number of threads (the sweep engine's workers share one).
///
/// Across *processes*, a writable [`open`] takes an advisory lockfile so a
/// second concurrent writer on the same directory fails fast instead of
/// interleaving appends; shard the work across separate directories (see
/// `vanet-fleet`) and merge the journals instead. [`open_read_only`] stays
/// lock-free.
///
/// [`put`]: SweepCache::put
/// [`open`]: SweepCache::open
/// [`open_read_only`]: SweepCache::open_read_only
pub struct SweepCache {
    path: PathBuf,
    /// Held for the handle's lifetime by a writable open; dropping the
    /// handle releases the lockfile. `None` for a read-only handle.
    lock: Option<LockGuard>,
    journal: Mutex<Journal<RoundReportCodec>>,
}

impl fmt::Debug for SweepCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepCache").field("journal", &*self.journal()).finish()
    }
}

impl SweepCache {
    /// Opens (creating if necessary) the cache in directory `dir` for
    /// reading *and writing*: takes the directory's advisory writer lock,
    /// replays the journal into memory, and truncates away a torn tail if
    /// the previous writer was killed mid-append.
    ///
    /// # Errors
    ///
    /// I/O failures; a journal whose header is not a vanet-cache magic (the
    /// open refuses to clobber a file it does not recognise); and a live
    /// concurrent writer on the same directory — interleaved appends from
    /// two processes are not torn-safe, so the second writer fails fast.
    /// Use [`SweepCache::open_read_only`] for lock-free inspection.
    pub fn open(dir: impl AsRef<Path>) -> Result<SweepCache, CacheError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| CacheError::io(dir, "create the cache directory", &e))?;
        let path = dir.join(RoundReportCodec::FILE_NAME);
        let lock = acquire_lock(dir, &path)?;
        let journal = Journal::open(dir)?;
        Ok(SweepCache { path, lock: Some(lock), journal: Mutex::new(journal) })
    }

    /// Opens the cache in `dir` **read-only and lock-free**: no lockfile is
    /// taken (a live writer is left undisturbed), nothing is created, and a
    /// torn tail is skipped in memory without truncating the file. A
    /// missing journal opens as an empty cache. Writing through this handle
    /// ([`put`], [`compact`]) is an error.
    ///
    /// # Errors
    ///
    /// I/O failures other than the journal not existing, and an
    /// unrecognised journal header.
    ///
    /// [`put`]: SweepCache::put
    /// [`compact`]: SweepCache::compact
    pub fn open_read_only(dir: impl AsRef<Path>) -> Result<SweepCache, CacheError> {
        let journal = Journal::open_read_only(dir)?;
        Ok(SweepCache {
            path: journal.path().to_path_buf(),
            lock: None,
            journal: Mutex::new(journal),
        })
    }

    /// The journal, locked for this thread.
    pub(crate) fn journal(&self) -> MutexGuard<'_, Journal<RoundReportCodec>> {
        self.journal.lock().expect("cache lock poisoned")
    }

    /// Whether this handle was opened with [`SweepCache::open_read_only`].
    pub fn is_read_only(&self) -> bool {
        self.lock.is_none()
    }

    /// Whether `key` is cached, without cloning the stored report — the
    /// cheap membership probe coverage checks (e.g. fleet warm-run
    /// pre-filtering) use.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.journal().get(key.as_str()).is_some()
    }

    /// The report cached under `key`, if any.
    pub fn get(&self, key: &CacheKey) -> Option<RoundReport> {
        self.journal().get(key.as_str()).cloned()
    }

    /// Appends `report` under `key`. Returns `false` (writing nothing) if
    /// the key is already cached — by the purity contract an existing entry
    /// is identical, so the journal stays free of redundant records.
    ///
    /// # Errors
    ///
    /// A read-only handle, and I/O failures while appending. The record is
    /// written with a single `write_all`, so a kill mid-append leaves at
    /// worst a torn tail for the next open to drop; a write *error* (e.g. a
    /// full disk) rolls the file back to the last good record before
    /// returning, so later puts cannot strand valid records behind a
    /// mid-file tear.
    pub fn put(&self, key: &CacheKey, report: &RoundReport) -> Result<bool, CacheError> {
        let mut journal = self.journal();
        if journal.get(key.as_str()).is_some() {
            return Ok(false);
        }
        journal.put(key.as_str(), report)?;
        Ok(true)
    }

    /// Rewrites the journal from the live index, dropping superseded
    /// records and entries removed with [`forget`] — the append-only file's
    /// garbage collection (see `Journal::compact`). Returns the bytes
    /// reclaimed.
    ///
    /// # Errors
    ///
    /// A read-only handle, and I/O failures while rewriting.
    ///
    /// [`forget`]: SweepCache::forget
    pub fn compact(&self) -> Result<u64, CacheError> {
        self.journal().compact()
    }

    /// Drops `key` from the **in-memory index only** (the journal is
    /// append-only), returning whether it was present. Until this handle
    /// re-`put`s the key, lookups through it miss; a fresh [`open`] sees the
    /// original entry again — unless a [`compact`] rewrote the journal
    /// without it first. This exists for tests and tools that need to
    /// simulate partial caches — it is not an on-disk delete (that is
    /// [`clear`], or a `forget` made durable by `compact`).
    ///
    /// [`open`]: SweepCache::open
    /// [`compact`]: SweepCache::compact
    pub fn forget(&self, key: &CacheKey) -> bool {
        self.journal().forget(key.as_str())
    }

    /// Number of cached reports.
    pub fn len(&self) -> usize {
        self.journal().len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical key lines currently indexed, in sorted order.
    pub fn keys(&self) -> Vec<CacheKey> {
        self.journal().keys().map(|k| CacheKey::from_canonical(k.to_string())).collect()
    }

    /// A point-in-time summary: entry and byte counts, recovery info, and a
    /// per-scenario breakdown.
    pub fn stats(&self) -> CacheStats {
        let journal = self.journal();
        let mut scenarios: BTreeMap<String, usize> = BTreeMap::new();
        for key in journal.keys() {
            let scenario = key.split('|').next().unwrap_or("");
            // Roll generated scenarios (`gen/<generator>/<id16>`) up under
            // their generator so campaign-sized caches stay readable.
            let group = match scenario.strip_prefix("gen/").and_then(|rest| rest.split_once('/')) {
                Some((generator, _)) => format!("gen/{generator}"),
                None => scenario.to_string(),
            };
            *scenarios.entry(group).or_insert(0) += 1;
        }
        CacheStats {
            entries: journal.len(),
            file_bytes: journal.file_bytes(),
            recovered_bytes: journal.recovered_bytes(),
            live_bytes: journal.live_bytes(),
            scenarios: scenarios.into_iter().collect(),
        }
    }

    /// The journal file this handle reads and appends.
    pub fn journal_path(&self) -> &Path {
        &self.path
    }
}

/// Removes the journal in `dir`, returning the bytes freed (0 if there was
/// none). The directory itself — and any writer lockfile in it — is left in
/// place; clearing a directory another process is actively writing is a
/// caller error the advisory lock does not police.
///
/// # Errors
///
/// I/O failures other than the journal not existing.
pub fn clear(dir: impl AsRef<Path>) -> Result<u64, CacheError> {
    let path = dir.as_ref().join(RoundReportCodec::FILE_NAME);
    match std::fs::metadata(&path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(CacheError::io(&path, "stat the journal", &e)),
        Ok(meta) => {
            std::fs::remove_file(&path)
                .map_err(|e| CacheError::io(&path, "remove the journal", &e))?;
            Ok(meta.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{frame, IngestOutcome};
    use std::fs::OpenOptions;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vanet_stats::RoundResult;

    const JOURNAL_FILE: &str = RoundReportCodec::FILE_NAME;
    const MAGIC: &[u8] = RoundReportCodec::MAGIC;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vanet-cache-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn key(i: u32) -> CacheKey {
        CacheKey::new("fake", 0xF1, "scenario=fake;x=i1", i, u64::from(i) * 31 + 7)
    }

    fn report(i: u32) -> RoundReport {
        RoundReport::new(i, u64::from(i) * 31 + 7, RoundResult::default())
            .with_counter("value", f64::from(i) + 0.5)
    }

    /// The journal record `put` would write for `report(r)` under `key(k)`.
    fn record(k: u32, r: u32) -> Vec<u8> {
        frame(key(k).as_str(), &report(r).to_bytes())
    }

    #[test]
    fn put_get_and_reopen() {
        let dir = temp_dir("roundtrip");
        let cache = SweepCache::open(&dir).unwrap();
        assert!(cache.is_empty());
        assert!(cache.get(&key(0)).is_none());
        for i in 0..5 {
            assert!(cache.put(&key(i), &report(i)).unwrap());
        }
        // Duplicate puts write nothing.
        assert!(!cache.put(&key(2), &report(2)).unwrap());
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.get(&key(3)), Some(report(3)));
        let bytes_before = cache.stats().file_bytes;
        drop(cache);

        let reopened = SweepCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), 5);
        assert_eq!(reopened.get(&key(3)), Some(report(3)));
        let stats = reopened.stats();
        assert_eq!(stats.entries, 5);
        assert_eq!(stats.file_bytes, bytes_before);
        assert_eq!(stats.recovered_bytes, 0);
        assert_eq!(stats.live_bytes, bytes_before, "no dead bytes after plain puts");
        assert_eq!(stats.reclaimable_bytes(), 0);
        assert_eq!(stats.scenarios, vec![("fake".to_string(), 5)]);
        assert_eq!(reopened.keys().len(), 5);
        assert!(format!("{reopened:?}").contains("entries"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_roll_generated_scenarios_up_by_generator() {
        let dir = temp_dir("gen-rollup");
        let cache = SweepCache::open(&dir).unwrap();
        cache.put(&key(0), &report(0)).unwrap();
        // Generated scenario names vary per identity; the stats breakdown
        // groups them by generator so campaign caches stay readable.
        for (i, name) in [
            "gen/grid-city/0011223344556677",
            "gen/grid-city/8899aabbccddeeff",
            "gen/highway-flow/0123456789abcdef",
        ]
        .iter()
        .enumerate()
        {
            let k = CacheKey::new(name, 0xF2, &format!("scenario={name};rounds=i1"), 0, i as u64);
            cache.put(&k, &report(0)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(
            stats.scenarios,
            vec![
                ("fake".to_string(), 1),
                ("gen/grid-city".to_string(), 2),
                ("gen/highway-flow".to_string(), 1),
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let dir = temp_dir("torn");
        let cache = SweepCache::open(&dir).unwrap();
        for i in 0..4 {
            cache.put(&key(i), &report(i)).unwrap();
        }
        let path = cache.journal_path().to_path_buf();
        let full_len = cache.stats().file_bytes;
        drop(cache);

        // Chop the last record mid-payload, as a kill mid-write would.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full_len - 7).unwrap();
        drop(file);

        let recovered = SweepCache::open(&dir).unwrap();
        assert_eq!(recovered.len(), 3, "the torn record is dropped");
        assert!(recovered.get(&key(3)).is_none());
        assert_eq!(recovered.get(&key(2)), Some(report(2)));
        let stats = recovered.stats();
        assert!(stats.recovered_bytes > 0);
        assert!(stats.file_bytes < full_len - 7, "file truncated to the last good record");

        // Appending after recovery works and survives another reopen.
        recovered.put(&key(3), &report(3)).unwrap();
        drop(recovered);
        let again = SweepCache::open(&dir).unwrap();
        assert_eq!(again.len(), 4);
        assert_eq!(again.get(&key(3)), Some(report(3)));
        assert_eq!(again.stats().recovered_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_checksum_cuts_the_journal_there() {
        let dir = temp_dir("bitrot");
        let cache = SweepCache::open(&dir).unwrap();
        for i in 0..3 {
            cache.put(&key(i), &report(i)).unwrap();
        }
        let path = cache.journal_path().to_path_buf();
        drop(cache);

        // Flip one byte in the middle record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let recovered = SweepCache::open(&dir).unwrap();
        assert!(recovered.len() < 3, "everything from the corrupt record on is dropped");
        assert_eq!(recovered.get(&key(0)), Some(report(0)));
        assert!(recovered.stats().recovered_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_files_are_refused() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(JOURNAL_FILE), b"totally not a cache journal").unwrap();
        let err = SweepCache::open(&dir).unwrap_err();
        assert!(err.to_string().contains("unrecognised header"), "{err}");
        assert!(err.path().ends_with(JOURNAL_FILE));
        let err = SweepCache::open_read_only(&dir).unwrap_err();
        assert!(err.to_string().contains("unrecognised header"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_header_is_rewritten() {
        let dir = temp_dir("torn-header");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(JOURNAL_FILE), &MAGIC[..5]).unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().recovered_bytes, 5);
        cache.put(&key(0), &report(0)).unwrap();
        drop(cache);
        assert_eq!(SweepCache::open(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forget_is_in_memory_only() {
        let dir = temp_dir("forget");
        let cache = SweepCache::open(&dir).unwrap();
        cache.put(&key(0), &report(0)).unwrap();
        assert!(cache.forget(&key(0)));
        assert!(!cache.forget(&key(0)));
        assert!(cache.get(&key(0)).is_none());
        drop(cache);
        // The journal still has it.
        assert_eq!(SweepCache::open(&dir).unwrap().get(&key(0)), Some(report(0)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clear_removes_the_journal() {
        let dir = temp_dir("clear");
        assert_eq!(clear(&dir).unwrap(), 0, "clearing a missing journal is a no-op");
        let cache = SweepCache::open(&dir).unwrap();
        cache.put(&key(0), &report(0)).unwrap();
        drop(cache);
        assert!(clear(&dir).unwrap() > 0);
        assert!(SweepCache::open(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_puts_from_many_threads() {
        let dir = temp_dir("parallel");
        let cache = SweepCache::open(&dir).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..25u32 {
                        let n = t * 25 + i;
                        cache.put(&key(n), &report(n)).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.len(), 100);
        drop(cache);
        let reopened = SweepCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), 100);
        for n in [0u32, 37, 99] {
            assert_eq!(reopened.get(&key(n)), Some(report(n)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_writer_fails_fast_until_the_first_drops() {
        let dir = temp_dir("lock");
        let first = SweepCache::open(&dir).unwrap();
        let err = SweepCache::open(&dir).unwrap_err();
        assert!(err.to_string().contains("another writer"), "{err}");
        assert!(err.to_string().contains("cache.lock"), "{err}");
        // The failed open must not have stolen the lock...
        first.put(&key(0), &report(0)).unwrap();
        drop(first);
        // ...and dropping the holder releases it.
        let second = SweepCache::open(&dir).unwrap();
        assert_eq!(second.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_reclaimed() {
        if !cfg!(target_os = "linux") {
            return; // liveness is only checkable via /proc
        }
        let dir = temp_dir("stale-lock");
        std::fs::create_dir_all(&dir).unwrap();
        // No real process has pid u32::MAX - 1 (far beyond pid_max).
        std::fs::write(dir.join(LOCK_FILE), format!("{}\n", u32::MAX - 1)).unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        cache.put(&key(0), &report(0)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_only_open_is_lock_free_and_rejects_writes() {
        let dir = temp_dir("read-only");
        let writer = SweepCache::open(&dir).unwrap();
        writer.put(&key(0), &report(0)).unwrap();
        // Coexists with the live writer...
        let reader = SweepCache::open_read_only(&dir).unwrap();
        assert!(reader.is_read_only());
        assert!(!writer.is_read_only());
        assert_eq!(reader.get(&key(0)), Some(report(0)));
        // ...and refuses to mutate anything.
        let err = reader.put(&key(1), &report(1)).unwrap_err();
        assert!(err.to_string().contains("read-only"), "{err}");
        let err = reader.compact().unwrap_err();
        assert!(err.to_string().contains("read-only"), "{err}");
        drop(writer);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_only_open_skips_a_torn_tail_without_truncating() {
        let dir = temp_dir("read-only-torn");
        let cache = SweepCache::open(&dir).unwrap();
        for i in 0..3 {
            cache.put(&key(i), &report(i)).unwrap();
        }
        let path = cache.journal_path().to_path_buf();
        let full_len = cache.stats().file_bytes;
        drop(cache);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full_len - 5).unwrap();
        drop(file);

        let reader = SweepCache::open_read_only(&dir).unwrap();
        assert_eq!(reader.len(), 2, "the torn record is skipped");
        assert!(reader.stats().recovered_bytes > 0);
        // The file itself was left exactly as found.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full_len - 5);
        // A missing journal opens as an empty cache.
        let empty = SweepCache::open_read_only(temp_dir("read-only-missing")).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.stats().file_bytes, 0);
        assert_eq!(empty.stats().live_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_reclaims_forgotten_and_superseded_records() {
        let dir = temp_dir("compact");
        let cache = SweepCache::open(&dir).unwrap();
        for i in 0..6 {
            cache.put(&key(i), &report(i)).unwrap();
        }
        // Supersede one entry (last-write-wins ingest) and forget another.
        cache.journal().ingest(key(1).as_str(), report(41), Some(&record(1, 41))).unwrap();
        assert!(cache.forget(&key(4)));
        let stats = cache.stats();
        assert_eq!(stats.entries, 5);
        assert!(stats.reclaimable_bytes() > 0, "dead bytes accumulated");

        let reclaimed = cache.compact().unwrap();
        assert_eq!(reclaimed, stats.reclaimable_bytes());
        let after = cache.stats();
        assert_eq!(after.entries, 5);
        assert_eq!(after.file_bytes, stats.live_bytes);
        assert_eq!(after.reclaimable_bytes(), 0);
        // The handle keeps working after the swap...
        cache.put(&key(7), &report(7)).unwrap();
        assert_eq!(cache.get(&key(1)), Some(report(41)), "superseding value survives");
        drop(cache);
        // ...and a fresh open sees the compacted set: the forgotten key is
        // gone for good, the superseded one holds its last value.
        let reopened = SweepCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), 6);
        assert!(reopened.get(&key(4)).is_none(), "forget became durable");
        assert_eq!(reopened.get(&key(1)), Some(report(41)));
        assert_eq!(reopened.get(&key(7)), Some(report(7)));
        assert_eq!(reopened.stats().recovered_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_distinguishes_insert_duplicate_and_supersede() {
        let dir = temp_dir("ingest");
        let cache = SweepCache::open(&dir).unwrap();
        let ingest = |r: u32| {
            cache.journal().ingest(key(0).as_str(), report(r), Some(&record(0, r))).unwrap()
        };
        assert_eq!(ingest(0), IngestOutcome::Inserted);
        assert_eq!(ingest(0), IngestOutcome::Duplicate);
        assert_eq!(ingest(9), IngestOutcome::Superseded);
        assert_eq!(cache.get(&key(0)), Some(report(9)), "last write wins");
        drop(cache);
        // Replay preserves last-write-wins: the superseding record is later
        // in the journal.
        assert_eq!(SweepCache::open(&dir).unwrap().get(&key(0)), Some(report(9)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
