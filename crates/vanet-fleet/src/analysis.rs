//! Fleet-side plumbing for analysis digests: merging the per-shard
//! `analysis.journal`s workers leave behind into one store — the shared
//! journal merge ([`Journal::merge`]) over the `CARQANA1` codec, exactly
//! as [`vanet_cache::merge_into`] is over round reports.

use std::path::{Path, PathBuf};

use vanet_analysis::DigestCodec;
use vanet_cache::{CacheError, Journal, MergeReport, RecordCodec};

/// Unions the analysis journals under `sources` (shard cache directories)
/// into the store under `dest`, returning a per-disposition
/// [`MergeReport`] whose `sources` counts the journals that actually
/// contributed. Source directories without an analysis journal (and the
/// destination itself) are skipped — a worker that only ran sweeps has
/// round reports but no digests, and that is not an error. The source
/// journals are only read: a torn tail is skipped and counted in
/// `torn_bytes_dropped`, never truncated. Records land in source order;
/// identical duplicates are skipped and conflicting digests resolve to the
/// later record (last write wins, the journal's own rule).
///
/// # Errors
///
/// [`CacheError`] when a journal cannot be opened, replayed or appended to.
pub fn merge_analysis<P: AsRef<Path>>(
    dest: impl AsRef<Path>,
    sources: &[P],
) -> Result<MergeReport, CacheError> {
    let mut journal = Journal::<DigestCodec>::open(dest)?;
    let dest_journal = journal.path().canonicalize().ok();
    let shards: Vec<PathBuf> = sources
        .iter()
        .map(|source| source.as_ref().join(DigestCodec::FILE_NAME))
        .filter(|shard| shard.exists() && shard.canonicalize().ok() != dest_journal)
        .collect();
    journal.merge(&shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vanet_analysis::{AnalysisStore, RoundDigest};
    use vanet_cache::CacheKey;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vanet-fleet-analysis-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn digest(round: u32) -> RoundDigest {
        RoundDigest { round, seed: 7, records: round, ..RoundDigest::default() }
    }

    fn key(round: u32) -> CacheKey {
        CacheKey::new("urban", 1, "scenario=urban", round, 7)
    }

    #[test]
    fn shard_journals_union_into_one_store() {
        let (dest, a, b, bare) = (temp_dir("dest"), temp_dir("a"), temp_dir("b"), temp_dir("bare"));
        std::fs::create_dir_all(&bare).unwrap();
        let mut shard_a = AnalysisStore::open(&a).unwrap();
        shard_a.put(&key(0), &digest(0)).unwrap();
        shard_a.put(&key(1), &digest(1)).unwrap();
        drop(shard_a);
        let mut shard_b = AnalysisStore::open(&b).unwrap();
        shard_b.put(&key(1), &digest(1)).unwrap();
        shard_b.put(&key(2), &digest(2)).unwrap();
        drop(shard_b);

        // `bare` has no journal and is skipped; the overlap deduplicates.
        let report = merge_analysis(&dest, &[&a, &b, &bare]).unwrap();
        assert_eq!(report.sources, 2, "the journal-less source does not count");
        assert_eq!(report.records_ingested, 3);
        assert_eq!(report.records_duplicate, 1);
        assert_eq!(report.records_superseded, 0);
        let merged = AnalysisStore::open(&dest).unwrap();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.get(&key(2)), Some(digest(2)));
        drop(merged);

        // Re-merging the same shards is idempotent.
        let again = merge_analysis(&dest, &[&a, &b]).unwrap();
        assert_eq!((again.records_written(), again.records_duplicate), (0, 4));

        // Merging the destination into itself is a no-op, not corruption.
        assert_eq!(merge_analysis(&dest, &[&dest]).unwrap().records_written(), 0);
        for dir in [dest, a, b, bare] {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn torn_source_journals_are_read_not_repaired() {
        let (dest, shard) = (temp_dir("torn-dest"), temp_dir("torn-shard"));
        let journal = shard.join(DigestCodec::FILE_NAME);
        let mut store = AnalysisStore::open(&shard).unwrap();
        store.put(&key(0), &digest(0)).unwrap();
        store.put(&key(1), &digest(1)).unwrap();
        let clean = std::fs::metadata(&journal).unwrap().len();
        store.put(&key(2), &digest(2)).unwrap();
        drop(store);
        // Tear the last record, as a worker killed mid-append would.
        let mut bytes = std::fs::read(&journal).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&journal, &bytes).unwrap();

        let report = merge_analysis(&dest, &[&shard]).unwrap();
        assert_eq!(report.records_ingested, 2, "the clean prefix is ingested");
        assert_eq!(report.torn_bytes_dropped, bytes.len() as u64 - clean, "the torn tail counts");
        assert_eq!(std::fs::read(&journal).unwrap(), bytes, "the source is byte-identical");
        assert_eq!(AnalysisStore::open(&dest).unwrap().get(&key(1)), Some(digest(1)));
        for dir in [dest, shard] {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}
