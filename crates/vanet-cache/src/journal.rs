//! The one journal behind both durable stores: an append-only file of
//! checksummed `key → value` records plus an in-memory last-write-wins
//! index, generic over the [`RecordCodec`] that encodes the values.
//!
//! ## Format
//!
//! ```text
//! magic   : C::MAGIC                                 (format version)
//! record  : u32 key_len | u32 payload_len | u64 checksum | key | payload
//! ```
//!
//! All integers are little-endian; `checksum` is FNV-1a over `key` then
//! `payload`; `key` is a [`CacheKey`](crate::CacheKey) canonical line and
//! `payload` one value in the codec's encoding. Two codecs exist: the round
//! cache's `VANETCACHE1` reports ([`RoundReportCodec`](crate::RoundReportCodec))
//! and `vanet-analysis`'s `CARQANA1` digests.
//!
//! ## Crash tolerance
//!
//! Appends are single `write_all` calls, so a kill mid-write can only tear
//! the **tail** of the file. [`Journal::open`] replays the journal from the
//! start and stops at the first record that is incomplete, fails its
//! checksum, has a key that is not UTF-8, or does not decode; the file is
//! truncated back to the last good record (a header torn by a kill during
//! the very first write is rewritten), and the loss is reported by
//! [`Journal::recovered_bytes`]. A write *error* rolls the file back to the
//! last good record, so later appends cannot strand valid records behind a
//! mid-file tear. [`Journal::open_read_only`] never writes: it skips a torn
//! tail in memory and leaves the file as found.
//!
//! ## Compaction
//!
//! Superseded records (last-write-wins puts and merges) and forgotten
//! entries accumulate as dead bytes; compaction rewrites the journal from
//! the live index — written to a temporary file and atomically renamed
//! into place — and [`Journal::live_bytes`] reports ahead of time how
//! small that would make the file.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

// The record checksum: FNV-1a, the workspace's one specified hash (shared
// via `sim-core` so durable-format implementations cannot drift). It guards
// against torn writes and bit rot, not adversaries.
use sim_core::{fnv1a64, fnv1a64_chain, fnv1a64_each};

use crate::store::CacheError;

/// `key_len | payload_len | checksum`.
pub(crate) const RECORD_HEADER_LEN: usize = 4 + 4 + 8;

/// One on-disk format: the constants and the value codec a [`Journal`] is
/// instantiated with. Everything else — framing, replay, recovery, the
/// index, merge and compaction — is the journal's.
pub trait RecordCodec {
    /// The value stored under each key.
    type Value: Clone + PartialEq;
    /// The file's magic header; bump its digit when the record or payload
    /// encoding changes.
    const MAGIC: &'static [u8];
    /// The journal's file name inside a store directory.
    const FILE_NAME: &'static str;
    /// Encodes one value as a record payload.
    fn encode(value: &Self::Value) -> Vec<u8>;
    /// Decodes one record payload; `None` marks the record (and everything
    /// after it) as a corrupt tail.
    fn decode(payload: &[u8]) -> Option<Self::Value>;
}

/// What writing one record did to the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The key was new: one record appended.
    Inserted,
    /// The key was already present with an identical value: nothing written.
    Duplicate,
    /// The key was present with a *different* value: last-write-wins, the
    /// new record appended and the index entry replaced.
    Superseded,
}

/// One live index entry: the decoded value plus the size of its journal
/// record (for live-byte accounting and compaction estimates).
struct Entry<V> {
    value: V,
    record_len: u64,
}

/// An open journal file of codec `C`: lookups are served from an in-memory
/// index loaded at open; [`put`](Journal::put) appends a record and updates
/// the index. Single-handle: the caller serialises access (a `Mutex`) and,
/// across processes, excludes concurrent writers (see `SweepCache`'s lock).
pub struct Journal<C: RecordCodec> {
    path: PathBuf,
    /// `None` for a read-only handle — lookups only, no appends.
    file: Option<File>,
    index: BTreeMap<String, Entry<C::Value>>,
    file_bytes: u64,
    recovered_bytes: u64,
}

impl<C: RecordCodec> fmt::Debug for Journal<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("read_only", &self.file.is_none())
            .field("entries", &self.index.len())
            .field("file_bytes", &self.file_bytes)
            .field("recovered_bytes", &self.recovered_bytes)
            .finish()
    }
}

/// Whether `buf` starts with a whole magic (`Some(false)`), is a torn
/// prefix of one — empty included (`Some(true)`) — or is foreign (`None`).
pub(crate) fn header_torn<C: RecordCodec>(buf: &[u8]) -> Option<bool> {
    if buf.starts_with(C::MAGIC) {
        Some(false)
    } else if C::MAGIC.starts_with(buf) {
        Some(true)
    } else {
        None
    }
}

/// The error for a file whose header is not `C`'s magic.
pub(crate) fn foreign<C: RecordCodec>(path: &Path, action: &str) -> CacheError {
    let magic = String::from_utf8_lossy(C::MAGIC);
    CacheError::new(
        path,
        format!("not a {} journal (unrecognised header); refusing to {action} it", magic.trim()),
    )
}

/// Frames an encoded payload under `key`: header, checksum, key, payload.
pub(crate) fn frame(key: &str, payload: &[u8]) -> Vec<u8> {
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

fn read_u32(buf: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes"))
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
    let checksum = u64::from_le_bytes(buf[pos + 8..pos + 16].try_into().expect("8 bytes"));
    let payload_start = (pos + RECORD_HEADER_LEN).checked_add(key_len)?;
    let end = payload_start.checked_add(payload_len)?;
    if end > buf.len() {
        return None;
    }
    Some(Frame { start: pos, payload_start, end, checksum })
}

/// How many records from `pos` on pass their checksum, up to the first
/// that is torn or does not.
///
/// Every record is framed from its header first (length bounds only), then
/// all framed bodies are checksummed four at a time with
/// [`sim_core::fnv1a64_each`]: a body, `key ‖ payload`, is contiguous and
/// is exactly what the stored FNV-1a covers. The frames and checksums are
/// freed on return, before [`replay`] decodes anything, so they never add
/// to the memory of a replay that holds every decoded value.
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

/// Replays the records of a journal image (magic included), handing each
/// decoded `(key, value, record)` to `accept`, where `record` is the
/// record's raw bytes, header included. Returns the length of the prefix
/// that parsed cleanly — anything beyond it is a torn or corrupt tail.
///
/// Records are accepted in order up to the first one that is torn, fails
/// its checksum, has a key that is not UTF-8 or a payload that does not
/// decode — the prefix a record-by-record scan accepts. The checksums are
/// all verified before the first decode (see [`verified_records`]).
pub(crate) fn replay<C: RecordCodec>(
    buf: &[u8],
    mut accept: impl FnMut(&str, C::Value, &[u8]),
) -> usize {
    let mut pos = C::MAGIC.len().min(buf.len());
    for _ in 0..verified_records(buf, pos) {
        let frame = frame_record(buf, pos).expect("a verified record frames again");
        let key_bytes = &buf[frame.start + RECORD_HEADER_LEN..frame.payload_start];
        let (Ok(key), Some(value)) =
            (std::str::from_utf8(key_bytes), C::decode(&buf[frame.payload_start..frame.end]))
        else {
            break;
        };
        accept(key, value, &buf[frame.start..frame.end]);
        pos = frame.end;
    }
    pos
}

impl<C: RecordCodec> Journal<C> {
    /// Opens (creating if necessary) the journal `C::FILE_NAME` in `dir`
    /// for reading *and writing*: replays it into memory, rewrites a torn
    /// header, and truncates away a torn tail.
    ///
    /// # Errors
    ///
    /// I/O failures, and a file whose header is not `C`'s magic (the open
    /// refuses to clobber a file it does not recognise).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, CacheError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| CacheError::io(dir, "create the journal directory", &e))?;
        let path = dir.join(C::FILE_NAME);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| CacheError::io(&path, "open the journal", &e))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf).map_err(|e| CacheError::io(&path, "read the journal", &e))?;
        let mut journal = Self::from_image(path, &buf)?;
        // Cut the file back to what replayed; a fresh file or a torn
        // header (a kill during the very first write) restarts from the
        // magic. An empty file is already positioned there.
        let header_torn = buf.len() < C::MAGIC.len();
        let path = &journal.path;
        if journal.recovered_bytes > 0 {
            let keep = if header_torn { 0 } else { journal.file_bytes - journal.recovered_bytes };
            file.set_len(keep).map_err(|e| CacheError::io(path, "truncate the torn tail", &e))?;
            file.seek(SeekFrom::Start(keep)).map_err(|e| CacheError::io(path, "seek", &e))?;
            journal.file_bytes = keep;
        }
        if header_torn {
            file.write_all(C::MAGIC).map_err(|e| CacheError::io(path, "write the header", &e))?;
            journal.file_bytes = C::MAGIC.len() as u64;
        }
        journal.file = Some(file);
        Ok(journal)
    }

    /// Opens the journal in `dir` **read-only**: nothing is created, and a
    /// torn tail is skipped in memory without truncating the file. A missing
    /// journal opens empty. Writing through this handle is an error.
    ///
    /// # Errors
    ///
    /// I/O failures other than the journal not existing, and an
    /// unrecognised header.
    pub fn open_read_only(dir: impl AsRef<Path>) -> Result<Self, CacheError> {
        let path = dir.as_ref().join(C::FILE_NAME);
        match std::fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Self::from_image(path, &[]),
            Err(e) => Err(CacheError::io(&path, "read the journal", &e)),
            Ok(buf) => Self::from_image(path, &buf),
        }
    }

    /// A read-only handle on the journal image `buf`: its records replayed
    /// into a last-write-wins index (the last record of a key wins, as it
    /// was the last written), and everything past them counted as torn.
    fn from_image(path: PathBuf, buf: &[u8]) -> Result<Self, CacheError> {
        let mut index = BTreeMap::new();
        let valid_len = match header_torn::<C>(buf) {
            None => return Err(foreign::<C>(&path, "touch")),
            Some(true) => 0,
            Some(false) => replay::<C>(buf, |key, value, record| {
                index.insert(key.to_string(), Entry { value, record_len: record.len() as u64 });
            }),
        };
        let (file_bytes, recovered_bytes) = (buf.len() as u64, (buf.len() - valid_len) as u64);
        Ok(Journal { path, file: None, index, file_bytes, recovered_bytes })
    }

    /// The journal file this handle reads (and appends).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&C::Value> {
        self.index.get(key).map(|entry| &entry.value)
    }

    /// The indexed keys, in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(String::as_str)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index holds nothing.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Journal size in bytes: on disk for a writable handle, as read for a
    /// read-only one.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Bytes of torn header or tail dropped (writable) or skipped
    /// (read-only) at open.
    pub fn recovered_bytes(&self) -> u64 {
        self.recovered_bytes
    }

    /// Bytes the journal would occupy after a compaction: the header
    /// plus one record per live entry (0 for a journal that does not exist).
    pub fn live_bytes(&self) -> u64 {
        if self.index.is_empty() && self.file_bytes == 0 {
            0
        } else {
            C::MAGIC.len() as u64 + self.index.values().map(|e| e.record_len).sum::<u64>()
        }
    }

    /// Drops `key` from the **in-memory index only** (the journal is
    /// append-only), returning whether it was present. A [`compact`]
    /// makes the drop durable.
    ///
    /// [`compact`]: Journal::compact
    pub(crate) fn forget(&mut self, key: &str) -> bool {
        self.index.remove(key).is_some()
    }

    /// Stores `value` under `key` with **last-write-wins** semantics: an
    /// identical existing entry writes nothing; a differing one is
    /// superseded (new record appended, index entry replaced; the old record
    /// becomes dead bytes a compaction reclaims).
    ///
    /// # Errors
    ///
    /// A read-only handle, and I/O failures while appending (the file is
    /// rolled back to the last good record first).
    pub fn put(&mut self, key: &str, value: &C::Value) -> Result<IngestOutcome, CacheError> {
        self.ingest(key, value.clone(), None)
    }

    /// The one append path: [`put`](Journal::put), and the merge's ingest of
    /// a value decoded from the verified journal record `source`. When the
    /// value re-encodes to exactly the source payload, the source record is
    /// appended verbatim: its checksum already covers those bytes, so it is
    /// not hashed again. Otherwise (a fresh value, or a payload that decodes
    /// but is not in canonical form) the encoded value is framed with a
    /// fresh checksum. The record is written in one `write_all` through the
    /// fault seam, rolling back to the last good record on error.
    pub(crate) fn ingest(
        &mut self,
        key: &str,
        value: C::Value,
        source: Option<&[u8]>,
    ) -> Result<IngestOutcome, CacheError> {
        let outcome = match self.index.get(key) {
            Some(existing) if existing.value == value => return Ok(IngestOutcome::Duplicate),
            Some(_) => IngestOutcome::Superseded,
            None => IngestOutcome::Inserted,
        };
        let payload = C::encode(&value);
        let mut record = match source {
            Some(source) if payload == source[RECORD_HEADER_LEN + key.len()..] => {
                // Free the re-encoding before copying, so the two never coexist.
                drop(payload);
                source.to_vec()
            }
            _ => frame(key, &payload),
        };
        let good = self.file_bytes;
        let Some(file) = self.file.as_mut() else {
            return Err(CacheError::new(&self.path, "opened read-only; cannot append"));
        };
        // The injectable write seam: an armed chaos schedule may corrupt
        // the record, delay it, fail it, or demand a torn write-then-die
        // here. Disarmed (every production run) this is one atomic load.
        match vanet_faults::before_append(&mut record) {
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
            // A partial append would become a *mid-file* tear if later
            // appends landed after it — and everything after a tear is
            // dropped on the next open. Roll back to the last good record
            // so the journal stays a valid prefix whatever happens next.
            let _ = file.set_len(good);
            let _ = file.seek(SeekFrom::Start(good));
            return Err(CacheError::io(&self.path, "append a record", &e));
        }
        self.file_bytes += record.len() as u64;
        self.index.insert(key.to_string(), Entry { value, record_len: record.len() as u64 });
        Ok(outcome)
    }

    /// Rewrites the journal from the live index, in key order, dropping
    /// superseded and forgotten records. The replacement is written to a
    /// temporary file and atomically renamed over the journal, so a kill
    /// mid-compaction leaves either the old journal or the new one, never a
    /// mix. Returns the bytes reclaimed.
    ///
    /// # Errors
    ///
    /// A read-only handle, and I/O failures while rewriting.
    pub(crate) fn compact(&mut self) -> Result<u64, CacheError> {
        if self.file.is_none() {
            return Err(CacheError::new(&self.path, "opened read-only; cannot compact"));
        }
        let mut bytes = Vec::with_capacity(self.live_bytes() as usize);
        bytes.extend_from_slice(C::MAGIC);
        for (key, entry) in &self.index {
            bytes.extend_from_slice(&frame(key, &C::encode(&entry.value)));
        }
        // Write the replacement through a handle we keep: after the atomic
        // rename that same handle *is* the journal (the fd follows the
        // inode), already positioned at the end for the next append. No
        // fallible step remains after the swap, so an error can only leave
        // the old journal fully in place — never a handle on an unlinked
        // file that would silently swallow later appends.
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
        let reclaimed = self.file_bytes.saturating_sub(bytes.len() as u64);
        self.file = Some(file);
        self.file_bytes = bytes.len() as u64;
        Ok(reclaimed)
    }
}
