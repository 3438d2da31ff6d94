//! Unioning shard journals into one store — the "ship the journal, merge
//! on open" half of distributed sweeps.
//!
//! A fleet of worker processes (or machines) each fills its own shard
//! journals; [`merge_into`] folds any set of round journals into a
//! destination cache, and [`Journal::merge`] does the same for a journal of
//! any codec (the `CARQANA1` digests of `vanet-analysis`). Records are
//! validated exactly like an open replays them — checksummed, UTF-8 keys,
//! decodable payloads — so a journal that was torn mid-write on the worker
//! (or corrupted in transit) contributes its clean prefix and reports the
//! dropped tail instead of poisoning the destination; the source file is
//! only read. A verified record whose value re-encodes to its payload byte
//! for byte is appended verbatim; one that decodes but is not in the
//! codec's canonical form is re-encoded and checksummed afresh. Records
//! land in source-journal order, and identical keys resolve
//! **last-write-wins** in that order; under the purity contract duplicates
//! carry identical payloads, so in practice a supersede only happens when
//! two journals were produced by *different* code or schema versions — the
//! [`MergeReport`] counts them separately so that drift is visible.

use std::path::{Path, PathBuf};

use crate::journal::{foreign, header_torn, replay, IngestOutcome, Journal, RecordCodec};
use crate::store::{CacheError, SweepCache};

/// What a merge did, per record disposition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MergeReport {
    /// Source journals read.
    pub sources: usize,
    /// Records appended under keys the destination did not hold.
    pub records_ingested: usize,
    /// Records skipped because the destination already held an identical
    /// value — the expected case when shards overlap or are re-merged.
    pub records_duplicate: usize,
    /// Records that *replaced* a differing value under the same key
    /// (last-write-wins). Non-zero means the sources disagree — different
    /// code or schema versions produced them.
    pub records_superseded: usize,
    /// Torn or corrupt trailing bytes dropped across all sources.
    pub torn_bytes_dropped: u64,
}

impl MergeReport {
    /// Total records accepted into the destination (ingested + superseding).
    pub fn records_written(&self) -> usize {
        self.records_ingested + self.records_superseded
    }
}

/// Unions the shard journals (or whole cache directories) in `sources`
/// into `dest`, in order, validating every record on ingest. See the
/// module docs for the exact semantics and [`Journal::merge`] for the
/// errors; `dest` must be a writable handle.
pub fn merge_into<P: AsRef<Path>>(
    dest: &SweepCache,
    sources: &[P],
) -> Result<MergeReport, CacheError> {
    dest.journal().merge(sources)
}

impl<C: RecordCodec> Journal<C> {
    /// Unions the journals in `sources` into this one, in order. A source
    /// *directory* means its `C::FILE_NAME` journal; anything else is taken
    /// as a journal path. Sources are read, never written: a torn tail is
    /// skipped and counted in [`MergeReport::torn_bytes_dropped`].
    ///
    /// # Errors
    ///
    /// A missing or unrecognised source journal (an explicitly listed source
    /// that cannot contribute is a caller error, not a skip), a source that
    /// *is* this journal, and I/O or append failures. A failed merge leaves
    /// the destination valid — every record already ingested stays.
    pub fn merge<P: AsRef<Path>>(&mut self, sources: &[P]) -> Result<MergeReport, CacheError> {
        let dest_journal = self.path().canonicalize().ok();
        let mut report = MergeReport::default();
        for source in sources {
            let source = source.as_ref();
            let path =
                if source.is_dir() { source.join(C::FILE_NAME) } else { PathBuf::from(source) };
            if dest_journal.is_some() && path.canonicalize().ok() == dest_journal {
                return Err(CacheError::new(&path, "cannot merge a cache into itself"));
            }
            let buf = std::fs::read(&path)
                .map_err(|e| CacheError::io(&path, "read the shard journal", &e))?;
            // A bare or torn-in-the-header journal holds no records; an
            // unrelated file is refused outright.
            let valid_len = match header_torn::<C>(&buf) {
                None => return Err(foreign::<C>(&path, "merge")),
                Some(true) => 0,
                Some(false) => {
                    let mut failure: Option<CacheError> = None;
                    let valid_len = replay::<C>(&buf, |key, value, record| {
                        if failure.is_some() {
                            return;
                        }
                        match self.ingest(key, value, Some(record)) {
                            Ok(IngestOutcome::Inserted) => report.records_ingested += 1,
                            Ok(IngestOutcome::Duplicate) => report.records_duplicate += 1,
                            Ok(IngestOutcome::Superseded) => report.records_superseded += 1,
                            Err(e) => failure = Some(e),
                        }
                    });
                    if let Some(e) = failure {
                        return Err(e);
                    }
                    valid_len
                }
            };
            report.sources += 1;
            report.torn_bytes_dropped += (buf.len() - valid_len) as u64;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::frame as framed;
    use crate::key::CacheKey;
    use crate::store::RoundReportCodec;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vanet_stats::{RoundReport, RoundResult};

    const JOURNAL_FILE: &str = RoundReportCodec::FILE_NAME;
    const MAGIC: &[u8] = RoundReportCodec::MAGIC;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vanet-cache-merge-test-{tag}-{}-{}",
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

    /// Builds a shard cache holding `range` and returns its directory.
    fn shard(tag: &str, range: std::ops::Range<u32>) -> PathBuf {
        let dir = temp_dir(tag);
        let cache = SweepCache::open(&dir).unwrap();
        for i in range {
            cache.put(&key(i), &report(i)).unwrap();
        }
        dir
    }

    #[test]
    fn merging_disjoint_shards_unions_them() {
        let a = shard("union-a", 0..3);
        let b = shard("union-b", 3..7);
        let dest_dir = temp_dir("union-dest");
        let dest = SweepCache::open(&dest_dir).unwrap();
        let merged = merge_into(&dest, &[&a, &b]).unwrap();
        assert_eq!(merged.sources, 2);
        assert_eq!(merged.records_ingested, 7);
        assert_eq!(merged.records_duplicate, 0);
        assert_eq!(merged.records_superseded, 0);
        assert_eq!(merged.torn_bytes_dropped, 0);
        assert_eq!(merged.records_written(), 7);
        assert_eq!(dest.len(), 7);
        drop(dest);
        // The union is durable.
        let reopened = SweepCache::open(&dest_dir).unwrap();
        for i in 0..7 {
            assert_eq!(reopened.get(&key(i)), Some(report(i)), "key {i}");
        }
        for dir in [a, b, dest_dir] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn overlapping_and_re_merged_records_count_as_duplicates() {
        let a = shard("dup-a", 0..4);
        let b = shard("dup-b", 2..6);
        let dest_dir = temp_dir("dup-dest");
        let dest = SweepCache::open(&dest_dir).unwrap();
        let first = merge_into(&dest, &[&a, &b]).unwrap();
        assert_eq!(first.records_ingested, 6);
        assert_eq!(first.records_duplicate, 2, "the overlap is skipped, not re-written");
        let bytes = dest.stats().file_bytes;
        // Merging the same shards again writes nothing at all.
        let again = merge_into(&dest, &[&a, &b]).unwrap();
        assert_eq!(again.records_ingested, 0);
        assert_eq!(again.records_duplicate, 8);
        assert_eq!(dest.stats().file_bytes, bytes);
        for dir in [a, b, dest_dir] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn conflicting_records_resolve_last_write_wins() {
        let a = temp_dir("lww-a");
        let cache = SweepCache::open(&a).unwrap();
        cache.put(&key(0), &report(100)).unwrap();
        drop(cache);
        let b = temp_dir("lww-b");
        let cache = SweepCache::open(&b).unwrap();
        cache.put(&key(0), &report(200)).unwrap();
        drop(cache);

        let dest_dir = temp_dir("lww-dest");
        let dest = SweepCache::open(&dest_dir).unwrap();
        let merged = merge_into(&dest, &[&a, &b]).unwrap();
        assert_eq!(merged.records_ingested, 1);
        assert_eq!(merged.records_superseded, 1, "the conflict is counted");
        assert_eq!(dest.get(&key(0)), Some(report(200)), "the later source wins");
        assert!(dest.stats().reclaimable_bytes() > 0, "the superseded record is dead bytes");
        for dir in [a, b, dest_dir] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn torn_shard_journals_contribute_their_clean_prefix() {
        let a = shard("torn-a", 0..4);
        // Tear the shard's last record mid-payload, as a worker killed
        // mid-append would.
        let journal = a.join(JOURNAL_FILE);
        let len = std::fs::metadata(&journal).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&journal).unwrap();
        file.set_len(len - 6).unwrap();
        drop(file);

        let dest_dir = temp_dir("torn-dest");
        let dest = SweepCache::open(&dest_dir).unwrap();
        let merged = merge_into(&dest, &[&a]).unwrap();
        assert_eq!(merged.records_ingested, 3, "the clean prefix is ingested");
        assert!(merged.torn_bytes_dropped > 0);
        assert_eq!(dest.get(&key(2)), Some(report(2)));
        assert!(dest.get(&key(3)).is_none(), "the torn record is dropped");
        // The source was read, not repaired.
        assert_eq!(std::fs::metadata(&journal).unwrap().len(), len - 6);
        for dir in [a, dest_dir] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn merge_refuses_missing_foreign_and_self_sources() {
        let dest_dir = temp_dir("refuse-dest");
        let dest = SweepCache::open(&dest_dir).unwrap();
        dest.put(&key(0), &report(0)).unwrap();

        let missing = temp_dir("refuse-missing").join("nope.journal");
        let err = merge_into(&dest, &[&missing]).unwrap_err();
        assert!(err.to_string().contains("read the shard journal"), "{err}");

        let foreign = temp_dir("refuse-foreign");
        std::fs::create_dir_all(&foreign).unwrap();
        let foreign_file = foreign.join("random.bin");
        std::fs::write(&foreign_file, b"not a journal at all").unwrap();
        let err = merge_into(&dest, &[&foreign_file]).unwrap_err();
        assert!(err.to_string().contains("unrecognised header"), "{err}");

        let err = merge_into(&dest, &[&dest_dir]).unwrap_err();
        assert!(err.to_string().contains("into itself"), "{err}");

        // A bare-header (record-free) journal is fine — zero records.
        let empty = temp_dir("refuse-empty");
        drop(SweepCache::open(&empty).unwrap());
        let merged = merge_into(&dest, &[&empty]).unwrap();
        assert_eq!(merged.sources, 1);
        assert_eq!(merged.records_written(), 0);
        for dir in [dest_dir, foreign, empty] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn canonical_source_records_land_byte_for_byte() {
        let a = shard("verbatim-a", 0..3);
        let b = shard("verbatim-b", 3..7);
        let dest_dir = temp_dir("verbatim-dest");
        let dest = SweepCache::open(&dest_dir).unwrap();
        assert_eq!(merge_into(&dest, &[&a, &b]).unwrap().records_ingested, 7);
        drop(dest);
        let read = |dir: &PathBuf| std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let expected = [read(&a), read(&b)[MAGIC.len()..].to_vec()].concat();
        assert_eq!(read(&dest_dir), expected, "the sources' records, in merge order");
        for dir in [a, b, dest_dir] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A one-flow report payload written field by field (the codec's
    /// layout), with `direct` as the destination's reception run as given.
    fn hand_built_payload(direct: &[u32]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut put = |x: u32| bytes.extend_from_slice(&x.to_le_bytes());
        put(9); // round
        put(42); // seed, low half
        put(0); // seed, high half
        put(0); // counters
        put(1); // flows
        put(1); // destination
        put(0); // sent
        put(1); // observers
        put(1); // the destination observes itself
        put(direct.len() as u32);
        direct.iter().for_each(|&seq| put(seq));
        put(0); // after_coop
        bytes
    }

    #[test]
    fn non_canonical_source_payloads_are_re_encoded_with_a_fresh_checksum() {
        // An unsorted run with a repeat decodes to the set {0, 3, 7}, which
        // encodes ascending and deduplicated.
        let payload = hand_built_payload(&[7, 0, 7, 3]);
        let canonical = hand_built_payload(&[0, 3, 7]);
        let report = RoundReport::from_bytes(&payload).unwrap();
        assert_eq!(report.to_bytes(), canonical, "the hand-built layout is the codec's");

        let src = temp_dir("non-canonical-src");
        std::fs::create_dir_all(&src).unwrap();
        let k = key(0);
        let source = [MAGIC, &framed(k.as_str(), &payload), &framed(key(1).as_str(), &canonical)];
        std::fs::write(src.join(JOURNAL_FILE), source.concat()).unwrap();

        let dest_dir = temp_dir("non-canonical-dest");
        let dest = SweepCache::open(&dest_dir).unwrap();
        let merged = merge_into(&dest, &[&src]).unwrap();
        assert_eq!(merged.records_ingested, 2);
        assert_eq!(merged.torn_bytes_dropped, 0);
        drop(dest);
        let written = std::fs::read(dest_dir.join(JOURNAL_FILE)).unwrap();
        let expected =
            [MAGIC, &framed(k.as_str(), &canonical), &framed(key(1).as_str(), &canonical)];
        assert_eq!(written, expected.concat(), "re-encoded canonically, checksummed afresh");
        let reopened = SweepCache::open(&dest_dir).unwrap();
        assert_eq!(reopened.get(&k), Some(report.clone()));
        assert_eq!(reopened.stats().recovered_bytes, 0);
        for dir in [src, dest_dir] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
