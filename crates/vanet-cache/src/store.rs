//! The on-disk store: an append-only journal plus an in-memory index.
//!
//! ## Journal format
//!
//! ```text
//! magic   : b"VANETCACHE1\n"                         (12 bytes, format version)
//! record  : u32 key_len | u32 payload_len | u64 checksum | key | payload
//! ```
//!
//! All integers are little-endian; `checksum` is FNV-1a over `key` then
//! `payload`; `key` is a [`CacheKey`] canonical line and `payload` a
//! [`RoundReport`] in the `vanet_stats::codec` encoding.
//!
//! ## Crash tolerance
//!
//! Appends are single `write_all` calls, so a kill mid-write can only tear
//! the **tail** of the file. [`SweepCache::open`] replays the journal from
//! the start and stops at the first record that is incomplete, fails its
//! checksum, or does not decode; the file is truncated back to the last
//! good record, the loss is reported via [`CacheStats::recovered_bytes`],
//! and the next append continues from there. Every record before the tear
//! survives — an interrupted sweep resumes instead of restarting.
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
//!
//! ## Compaction
//!
//! The journal is append-only, so superseded records (last-write-wins
//! ingests, entries dropped with [`forget`]) accumulate as dead bytes.
//! [`SweepCache::compact`] rewrites the journal from the live index —
//! written to a temporary file and atomically renamed into place — and
//! returns the bytes reclaimed; [`CacheStats::live_bytes`] reports ahead of
//! time how small a compaction would make the file.
//!
//! [`forget`]: SweepCache::forget

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use vanet_stats::RoundReport;

use crate::key::{fnv1a64, fnv1a64_chain, fnv1a64_each, CacheKey};

/// The journal file kept inside a cache directory.
pub(crate) const JOURNAL_FILE: &str = "rounds.journal";

/// The advisory writer lockfile kept next to the journal.
const LOCK_FILE: &str = "cache.lock";

/// Format magic; bump the digit when the record or payload encoding changes.
pub(crate) const MAGIC: &[u8; 12] = b"VANETCACHE1\n";

/// `key_len | payload_len | checksum`.
const RECORD_HEADER_LEN: usize = 4 + 4 + 8;

/// Why a cache operation failed. Carries the journal path so that errors
/// surfacing through a sweep or the CLI are actionable.
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
        write!(f, "round cache at `{}`: {}", self.path.display(), self.message)
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

/// One live index entry: the decoded report plus the size of its journal
/// record (for live-byte accounting and compaction estimates).
struct IndexEntry {
    report: RoundReport,
    record_len: u64,
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

struct Inner {
    /// `None` for a read-only handle — lookups only, no appends.
    file: Option<File>,
    index: BTreeMap<String, IndexEntry>,
    file_bytes: u64,
    recovered_bytes: u64,
}

/// What [`SweepCache::ingest`] did with a merged record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IngestOutcome {
    /// The key was new: one record appended.
    Inserted,
    /// The key was already present with an identical report: nothing written.
    Duplicate,
    /// The key was present with a *different* report: last-write-wins, the
    /// new record appended and the index entry replaced.
    Superseded,
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
    /// handle releases the lockfile. Never read — it exists for its `Drop`.
    _lock: Option<LockGuard>,
    inner: Mutex<Inner>,
}

impl fmt::Debug for SweepCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().expect("cache lock poisoned");
        f.debug_struct("SweepCache")
            .field("path", &self.path)
            .field("read_only", &inner.file.is_none())
            .field("entries", &inner.index.len())
            .field("file_bytes", &inner.file_bytes)
            .finish()
    }
}

/// Encodes one journal record: header, checksum, key, payload.
fn encode_record(key: &str, report: &RoundReport) -> Vec<u8> {
    frame_payload(key, &report.to_bytes())
}

/// Frames an encoded payload under `key`: header, checksum, key, payload.
fn frame_payload(key: &str, payload: &[u8]) -> Vec<u8> {
    let key_bytes = key.as_bytes();
    let checksum = fnv1a64_chain(fnv1a64(key_bytes), payload);
    let mut record = Vec::with_capacity(RECORD_HEADER_LEN + key_bytes.len() + payload.len());
    record.extend_from_slice(&(key_bytes.len() as u32).to_le_bytes());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&checksum.to_le_bytes());
    record.extend_from_slice(key_bytes);
    record.extend_from_slice(payload);
    record
}

/// Replays the records of a journal image (everything after the magic),
/// handing each decoded `(key, report, record)` to `accept`, where
/// `record` is the record's raw bytes, header included. Returns the length
/// of the prefix that parsed cleanly — anything beyond it is a torn or
/// corrupt tail.
///
/// Records are accepted in order up to the first one that is torn, fails
/// its checksum, has a key that is not UTF-8 or a payload that does not
/// decode — the prefix a record-by-record scan accepts. The checksums are
/// all verified before the first decode (see [`verified_records`]).
pub(crate) fn replay(buf: &[u8], mut accept: impl FnMut(&str, RoundReport, &[u8])) -> usize {
    let mut pos = MAGIC.len().min(buf.len());
    for _ in 0..verified_records(buf, pos) {
        let frame = frame_record(buf, pos).expect("a verified record frames again");
        let key_bytes = &buf[frame.start + RECORD_HEADER_LEN..frame.payload_start];
        let (Ok(key), Ok(report)) = (
            std::str::from_utf8(key_bytes),
            RoundReport::from_bytes(&buf[frame.payload_start..frame.end]),
        ) else {
            break;
        };
        accept(key, report, &buf[frame.start..frame.end]);
        pos = frame.end;
    }
    pos
}

/// How many records from `pos` on pass their checksum, up to the first
/// that is torn or does not.
///
/// Every record is framed from its header first (length bounds only), then
/// all framed bodies are checksummed four at a time with
/// [`sim_core::fnv1a64_each`]: a body, `key ‖ payload`, is contiguous and
/// is exactly what the stored FNV-1a covers. The frames and checksums are
/// freed on return, before [`replay`] decodes anything, so they never add
/// to the memory of a replay that holds every decoded report.
fn verified_records(buf: &[u8], mut pos: usize) -> usize {
    let mut frames = Vec::new();
    while let Some(frame) = frame_record(buf, pos) {
        pos = frame.end;
        frames.push(frame);
    }
    let bodies: Vec<&[u8]> =
        frames.iter().map(|f| &buf[f.start + RECORD_HEADER_LEN..f.end]).collect();
    let checksums = fnv1a64_each(&bodies);
    frames.iter().zip(checksums).take_while(|(frame, sum)| frame.checksum == *sum).count()
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
        let path = dir.join(JOURNAL_FILE);
        let lock = acquire_lock(dir, &path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| CacheError::io(&path, "open the journal", &e))?;

        let mut buf = Vec::new();
        file.read_to_end(&mut buf).map_err(|e| CacheError::io(&path, "read the journal", &e))?;

        let mut recovered_bytes = 0u64;
        if buf.is_empty() || (buf.len() < MAGIC.len() && MAGIC.starts_with(&buf)) {
            // Fresh file, or a kill tore the header write itself: (re)write it.
            recovered_bytes = buf.len() as u64;
            file.set_len(0).map_err(|e| CacheError::io(&path, "reset the journal", &e))?;
            file.seek(SeekFrom::Start(0)).map_err(|e| CacheError::io(&path, "seek", &e))?;
            file.write_all(MAGIC).map_err(|e| CacheError::io(&path, "write the header", &e))?;
            buf = MAGIC.to_vec();
        } else if !buf.starts_with(MAGIC) {
            return Err(CacheError::new(
                &path,
                "not a vanet-cache journal (unrecognised header); refusing to touch it",
            ));
        }

        // Replay records up to the first torn/corrupt one. Duplicate keys
        // (last-write-wins ingests) are benign: the last record wins, as it
        // was the last written.
        let mut index = BTreeMap::new();
        let valid_len = replay(&buf, |key, report, record| {
            index.insert(key.to_string(), IndexEntry { report, record_len: record.len() as u64 });
        });
        if valid_len < buf.len() {
            recovered_bytes += (buf.len() - valid_len) as u64;
            file.set_len(valid_len as u64)
                .map_err(|e| CacheError::io(&path, "truncate the torn tail", &e))?;
            file.seek(SeekFrom::Start(valid_len as u64))
                .map_err(|e| CacheError::io(&path, "seek", &e))?;
        }

        Ok(SweepCache {
            path,
            _lock: Some(lock),
            inner: Mutex::new(Inner {
                file: Some(file),
                index,
                file_bytes: valid_len as u64,
                recovered_bytes,
            }),
        })
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
        let path = dir.as_ref().join(JOURNAL_FILE);
        let buf = match std::fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(CacheError::io(&path, "read the journal", &e)),
            Ok(bytes) => bytes,
        };
        let recovered_bytes;
        let mut index = BTreeMap::new();
        if buf.len() < MAGIC.len() {
            if !MAGIC.starts_with(buf.as_slice()) {
                return Err(CacheError::new(
                    &path,
                    "not a vanet-cache journal (unrecognised header); refusing to touch it",
                ));
            }
            recovered_bytes = buf.len() as u64;
        } else if !buf.starts_with(MAGIC) {
            return Err(CacheError::new(
                &path,
                "not a vanet-cache journal (unrecognised header); refusing to touch it",
            ));
        } else {
            let valid_len = replay(&buf, |key, report, record| {
                index.insert(
                    key.to_string(),
                    IndexEntry { report, record_len: record.len() as u64 },
                );
            });
            recovered_bytes = (buf.len() - valid_len) as u64;
        }
        Ok(SweepCache {
            path,
            _lock: None,
            inner: Mutex::new(Inner {
                file: None,
                index,
                file_bytes: buf.len() as u64,
                recovered_bytes,
            }),
        })
    }

    /// Whether this handle was opened with [`SweepCache::open_read_only`].
    pub fn is_read_only(&self) -> bool {
        self.inner.lock().expect("cache lock poisoned").file.is_none()
    }

    /// Whether `key` is cached, without cloning the stored report — the
    /// cheap membership probe coverage checks (e.g. fleet warm-run
    /// pre-filtering) use.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.inner.lock().expect("cache lock poisoned").index.contains_key(key.as_str())
    }

    /// The report cached under `key`, if any.
    pub fn get(&self, key: &CacheKey) -> Option<RoundReport> {
        self.inner
            .lock()
            .expect("cache lock poisoned")
            .index
            .get(key.as_str())
            .map(|entry| entry.report.clone())
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
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        if inner.index.contains_key(key.as_str()) {
            return Ok(false);
        }
        let record = encode_record(key.as_str(), report);
        self.append_record(&mut inner, key.as_str(), report.clone(), record)?;
        Ok(true)
    }

    /// Appends `report` under the raw canonical `key` with
    /// **last-write-wins** semantics — the merge layer's ingest path. An
    /// identical existing entry writes nothing; a *differing* one is
    /// superseded (new record appended, index entry replaced; the old
    /// record becomes dead bytes a [`compact`] reclaims).
    ///
    /// `source` is the verified journal record `report` was decoded from.
    /// When the report re-encodes to exactly the source payload, the source
    /// record is appended verbatim — its checksum already covers those
    /// bytes, so it is not hashed again. Otherwise (a payload that decodes
    /// but is not in canonical form) the re-encoded report is framed with a
    /// fresh checksum.
    ///
    /// [`compact`]: SweepCache::compact
    pub(crate) fn ingest(
        &self,
        key: &str,
        report: RoundReport,
        source: &[u8],
    ) -> Result<IngestOutcome, CacheError> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        let outcome = match inner.index.get(key) {
            Some(existing) if existing.report == report => return Ok(IngestOutcome::Duplicate),
            Some(_) => IngestOutcome::Superseded,
            None => IngestOutcome::Inserted,
        };
        let payload = report.to_bytes();
        let record = if payload == source[RECORD_HEADER_LEN + key.len()..] {
            // Free the re-encoding before copying, so the two never coexist.
            drop(payload);
            source.to_vec()
        } else {
            frame_payload(key, &payload)
        };
        self.append_record(&mut inner, key, report, record)?;
        Ok(outcome)
    }

    /// The shared append path of [`put`] and [`ingest`]: writes the encoded
    /// `record` in one `write_all` (rolling back to the last good record on
    /// error), and updates the index.
    ///
    /// [`put`]: SweepCache::put
    /// [`ingest`]: SweepCache::ingest
    fn append_record(
        &self,
        inner: &mut Inner,
        key: &str,
        report: RoundReport,
        mut record: Vec<u8>,
    ) -> Result<(), CacheError> {
        let good = inner.file_bytes;
        let Some(file) = inner.file.as_mut() else {
            return Err(CacheError::new(&self.path, "opened read-only; cannot append"));
        };
        // The injectable write seam: an armed chaos schedule may corrupt
        // the record, delay it, fail it, or demand a torn write-then-die
        // here. Disarmed (every production run) this is one atomic load.
        match vanet_faults::before_append(vanet_faults::StoreKind::Sweep, &mut record) {
            Ok(vanet_faults::AppendAction::Write) => {}
            Ok(vanet_faults::AppendAction::TornWriteThenDie { keep }) => {
                let _ = file.write_all(&record[..keep]);
                let _ = file.sync_all();
                eprintln!("fault: torn append — exiting mid-record");
                std::process::exit(vanet_faults::CHAOS_EXIT);
            }
            Err(e) => return Err(CacheError::io(&self.path, "append a record", &e)),
        }
        if let Err(e) = file.write_all(&record) {
            // A partial append would become a *mid-file* tear if later puts
            // landed after it — and everything after a tear is dropped on
            // the next open. Roll back to the last good record so the
            // journal stays a valid prefix whatever happens next.
            let _ = file.set_len(good);
            let _ = file.seek(SeekFrom::Start(good));
            return Err(CacheError::io(&self.path, "append a record", &e));
        }
        inner.file_bytes += record.len() as u64;
        inner.index.insert(key.to_string(), IndexEntry { report, record_len: record.len() as u64 });
        Ok(())
    }

    /// Rewrites the journal from the live index, dropping superseded
    /// records and entries removed with [`forget`] — the append-only file's
    /// garbage collection. The replacement is written to a temporary file
    /// and atomically renamed over the journal, so a kill mid-compaction
    /// leaves either the old journal or the new one, never a mix. Returns
    /// the bytes reclaimed.
    ///
    /// # Errors
    ///
    /// A read-only handle, and I/O failures while rewriting.
    ///
    /// [`forget`]: SweepCache::forget
    pub fn compact(&self) -> Result<u64, CacheError> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        if inner.file.is_none() {
            return Err(CacheError::new(&self.path, "opened read-only; cannot compact"));
        }
        let mut bytes = Vec::with_capacity(
            MAGIC.len() + inner.index.values().map(|e| e.record_len as usize).sum::<usize>(),
        );
        bytes.extend_from_slice(MAGIC);
        for (key, entry) in &inner.index {
            bytes.extend_from_slice(&encode_record(key, &entry.report));
        }
        // Write the replacement through a handle we keep: after the atomic
        // rename that same handle *is* the journal (the fd follows the
        // inode), already positioned at the end for the next append. No
        // fallible step remains after the swap, so an error can only leave
        // the old journal fully in place — never a handle on an unlinked
        // file that would silently swallow later puts.
        let tmp = self.path.with_extension("journal.tmp");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| CacheError::io(&tmp, "create the compaction file", &e))?;
        if let Err(e) = file.write_all(&bytes) {
            let _ = std::fs::remove_file(&tmp);
            return Err(CacheError::io(&tmp, "write the compacted journal", &e));
        }
        if let Err(e) = std::fs::rename(&tmp, &self.path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(CacheError::io(&self.path, "swap in the compacted journal", &e));
        }
        let reclaimed = inner.file_bytes.saturating_sub(bytes.len() as u64);
        inner.file = Some(file);
        inner.file_bytes = bytes.len() as u64;
        Ok(reclaimed)
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
        self.inner.lock().expect("cache lock poisoned").index.remove(key.as_str()).is_some()
    }

    /// Number of cached reports.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock poisoned").index.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical key lines currently indexed, in sorted order.
    pub fn keys(&self) -> Vec<CacheKey> {
        self.inner
            .lock()
            .expect("cache lock poisoned")
            .index
            .keys()
            .map(|k| CacheKey::from_canonical(k.clone()))
            .collect()
    }

    /// A point-in-time summary: entry and byte counts, recovery info, and a
    /// per-scenario breakdown.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock poisoned");
        let mut scenarios: BTreeMap<String, usize> = BTreeMap::new();
        for key in inner.index.keys() {
            let scenario = key.split('|').next().unwrap_or("");
            // Roll generated scenarios (`gen/<generator>/<id16>`) up under
            // their generator so campaign-sized caches stay readable.
            let group = match scenario.strip_prefix("gen/").and_then(|rest| rest.split_once('/')) {
                Some((generator, _)) => format!("gen/{generator}"),
                None => scenario.to_string(),
            };
            *scenarios.entry(group).or_insert(0) += 1;
        }
        let live_bytes = if inner.index.is_empty() && inner.file_bytes == 0 {
            0
        } else {
            MAGIC.len() as u64 + inner.index.values().map(|e| e.record_len).sum::<u64>()
        };
        CacheStats {
            entries: inner.index.len(),
            file_bytes: inner.file_bytes,
            recovered_bytes: inner.recovered_bytes,
            live_bytes,
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
    let path = dir.as_ref().join(JOURNAL_FILE);
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

fn read_u32(buf: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes"))
}

fn read_u64(buf: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(buf[pos..pos + 8].try_into().expect("8 bytes"))
}

/// Where one record sits in a journal image, read from its header alone.
struct Frame {
    /// Offset of the record header.
    start: usize,
    /// Offset of the payload (the key runs from the header's end to here).
    payload_start: usize,
    /// Offset one past the payload.
    end: usize,
    /// The checksum the header claims for `key ‖ payload`.
    checksum: u64,
}

/// Frames the record starting at `pos` from its header, or `None` if the
/// header or the body it announces runs past the end of `buf` (i.e. the
/// journal is torn at `pos`). Checks length bounds only;
/// [`verified_records`] verifies the checksum.
fn frame_record(buf: &[u8], pos: usize) -> Option<Frame> {
    if buf.len() - pos < RECORD_HEADER_LEN {
        return None;
    }
    let key_len = read_u32(buf, pos) as usize;
    let payload_len = read_u32(buf, pos + 4) as usize;
    let checksum = read_u64(buf, pos + 8);
    let payload_start = (pos + RECORD_HEADER_LEN).checked_add(key_len)?;
    let end = payload_start.checked_add(payload_len)?;
    if end > buf.len() {
        return None;
    }
    Some(Frame { start: pos, payload_start, end, checksum })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vanet_stats::RoundResult;

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
        encode_record(key(k).as_str(), &report(r))
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
        cache.ingest(key(1).as_str(), report(41), &record(1, 41)).unwrap();
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
        let ingest = |r: u32| cache.ingest(key(0).as_str(), report(r), &record(0, r)).unwrap();
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

    /// The one-record-at-a-time scan the batched [`replay`] must agree with:
    /// each record is bounds-checked and checksummed on its own before the
    /// next is looked at. Returns the accepted `(key, report, record_len)`s
    /// and the valid prefix length.
    fn oracle_replay(buf: &[u8]) -> (Vec<(String, RoundReport, u64)>, usize) {
        fn record_end(buf: &[u8], pos: usize) -> Option<usize> {
            if buf.len() - pos < RECORD_HEADER_LEN {
                return None;
            }
            let key_len = read_u32(buf, pos) as usize;
            let payload_len = read_u32(buf, pos + 4) as usize;
            let checksum = read_u64(buf, pos + 8);
            let body_start = pos + RECORD_HEADER_LEN;
            let end = body_start.checked_add(key_len)?.checked_add(payload_len)?;
            if end > buf.len() {
                return None;
            }
            let key = &buf[body_start..body_start + key_len];
            let payload = &buf[body_start + key_len..end];
            if fnv1a64_chain(fnv1a64(key), payload) != checksum {
                return None;
            }
            Some(end)
        }
        let mut records = Vec::new();
        let mut pos = MAGIC.len().min(buf.len());
        while pos < buf.len() {
            let Some(end) = record_end(buf, pos) else { break };
            let key_len = read_u32(buf, pos) as usize;
            let key_bytes = &buf[pos + RECORD_HEADER_LEN..pos + RECORD_HEADER_LEN + key_len];
            let payload = &buf[pos + RECORD_HEADER_LEN + key_len..end];
            let (Ok(key), Ok(report)) =
                (std::str::from_utf8(key_bytes), RoundReport::from_bytes(payload))
            else {
                break;
            };
            records.push((key.to_string(), report, (end - pos) as u64));
            pos = end;
        }
        (records, pos)
    }

    /// What a handle serves: every live key with its report, and the stats.
    fn served(cache: &SweepCache) -> (Vec<(String, Option<RoundReport>)>, CacheStats) {
        let entries = cache.keys().iter().map(|k| (k.as_str().to_string(), cache.get(k))).collect();
        (entries, cache.stats())
    }

    /// Writes `image` as the journal in `dir` and checks that a writable and
    /// a read-only open serve exactly what [`oracle_replay`] accepts, report
    /// the same torn bytes, and (writable only) truncate at the same offset.
    fn assert_opens_like_the_oracle(dir: &Path, image: &[u8], what: &str) {
        let path = dir.join(JOURNAL_FILE);
        let (records, valid_len) = oracle_replay(image);
        let mut live = BTreeMap::new();
        for (key, report, record_len) in records {
            live.insert(key, (report, record_len));
        }
        let entries: Vec<_> =
            live.iter().map(|(key, (report, _))| (key.clone(), Some(report.clone()))).collect();
        let live_bytes = MAGIC.len() as u64 + live.values().map(|(_, len)| len).sum::<u64>();
        let header_torn = image.len() < MAGIC.len();
        let torn = if header_torn { image.len() } else { image.len() - valid_len } as u64;

        std::fs::write(&path, image).unwrap();
        let (ro_entries, ro_stats) = served(&SweepCache::open_read_only(dir).unwrap());
        assert_eq!(ro_entries, entries, "read-only entries, {what}");
        assert_eq!(ro_stats.recovered_bytes, torn, "{what}");
        assert_eq!(ro_stats.file_bytes, image.len() as u64, "{what}");
        if !header_torn {
            assert_eq!(ro_stats.live_bytes, live_bytes, "read-only live bytes, {what}");
        }
        assert_eq!(std::fs::read(&path).unwrap(), image, "read-only open wrote, {what}");

        let (rw_entries, rw_stats) = served(&SweepCache::open(dir).unwrap());
        assert_eq!(rw_entries, entries, "writable entries, {what}");
        assert_eq!(rw_stats.recovered_bytes, torn, "{what}");
        // A torn header is rewritten; a torn record is truncated away.
        let kept = if header_torn { MAGIC.len() } else { valid_len };
        assert_eq!(rw_stats.file_bytes, kept as u64, "{what}");
        assert_eq!(rw_stats.live_bytes, live_bytes, "writable live bytes, {what}");
        let on_disk = std::fs::read(&path).unwrap();
        let expected = if header_torn { &MAGIC[..] } else { &image[..valid_len] };
        assert_eq!(on_disk, expected, "truncated journal, {what}");
    }

    /// Records of unequal lengths: more than four, and not a multiple of
    /// four, so the checksum kernel refills lanes and ends on a partial set.
    fn uneven_journal() -> Vec<u8> {
        let mut image = MAGIC.to_vec();
        for i in 0..10u32 {
            // The eighth record reuses the fourth's key and supersedes it.
            let n = if i == 7 { 3 } else { i };
            let config = format!("scenario=fake;x={}", "i".repeat(n as usize * 3));
            let key = CacheKey::new("fake", 0xF1, &config, n, u64::from(n));
            image.extend_from_slice(&encode_record(key.as_str(), &report(i * 11)));
        }
        image
    }

    #[test]
    fn replay_cuts_every_torn_or_corrupt_journal_where_a_record_scan_does() {
        let dir = temp_dir("every-offset");
        std::fs::create_dir_all(&dir).unwrap();
        let image = uneven_journal();
        let (records, valid_len) = oracle_replay(&image);
        assert_eq!(
            (records.len(), valid_len),
            (10, image.len()),
            "the clean journal replays whole"
        );
        let lens: BTreeSet<u64> = records.iter().map(|r| r.2).collect();
        assert!(lens.len() >= 9, "record lengths vary: {lens:?}");

        for cut in 0..=image.len() {
            assert_opens_like_the_oracle(&dir, &image[..cut], &format!("cut at {cut}"));
        }
        for at in 0..image.len() {
            let mut flipped = image.clone();
            flipped[at] ^= 0x01;
            let what = format!("bit flipped at {at}");
            if at < MAGIC.len() {
                std::fs::write(dir.join(JOURNAL_FILE), &flipped).unwrap();
                assert!(SweepCache::open_read_only(&dir).is_err(), "{what}");
                assert!(SweepCache::open(&dir).is_err(), "{what}");
            } else {
                assert_opens_like_the_oracle(&dir, &flipped, &what);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_stops_at_checksummed_records_that_do_not_decode() {
        let dir = temp_dir("undecodable");
        std::fs::create_dir_all(&dir).unwrap();
        let mut image = uneven_journal();
        let clean = image.len();
        // A key that is not UTF-8 and a payload that is not a report, each
        // under a valid checksum, then one more good record.
        let bad_key = [0xFF, 0xFE, b'k'];
        let payload = report(5).to_bytes();
        let mut record = Vec::new();
        record.extend_from_slice(&(bad_key.len() as u32).to_le_bytes());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&fnv1a64_chain(fnv1a64(&bad_key), &payload).to_le_bytes());
        record.extend_from_slice(&bad_key);
        record.extend_from_slice(&payload);
        let good = encode_record(key(40).as_str(), &report(40));
        let undecodable = frame_payload(key(41).as_str(), &[1, 2, 3]);
        for tail in [&record, &undecodable] {
            image.truncate(clean);
            image.extend_from_slice(tail);
            image.extend_from_slice(&good);
            assert_eq!(oracle_replay(&image).1, clean);
            assert_opens_like_the_oracle(&dir, &image, "a checksummed but undecodable record");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
