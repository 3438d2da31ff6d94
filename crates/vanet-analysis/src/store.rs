//! The persistent analysis journal: per-round [`RoundDigest`]s keyed by
//! the *same* content-addressed [`CacheKey`]s the round cache uses.
//!
//! It is the shared [`vanet_cache::Journal`] with a second codec,
//! [`DigestCodec`] (`CARQANA1` magic, `analysis.journal`), so it has the
//! round cache's robustness contract exactly: checksummed append-only
//! records, a torn header rewritten and a torn tail (from a killed process)
//! truncated on the next open, a failed write rolled back, the fault seam,
//! and the same merge ([`vanet_cache::Journal::merge`]). The two files
//! coexist in one `--cache` directory. Single-writer: concurrent writers
//! are not coordinated (the CLI drives one analysis at a time); concurrent
//! *readers* of a finished journal are fine.

use std::path::Path;

use vanet_cache::{CacheError, CacheKey, IngestOutcome, Journal, RecordCodec};

use crate::digest::RoundDigest;

/// The `CARQANA1` codec: one [`RoundDigest`] per cache key, in the digest
/// encoding, in `analysis.journal`.
#[derive(Debug)]
pub struct DigestCodec;

impl RecordCodec for DigestCodec {
    type Value = RoundDigest;
    const MAGIC: &'static [u8] = b"CARQANA1";
    const FILE_NAME: &'static str = "analysis.journal";

    fn encode(digest: &RoundDigest) -> Vec<u8> {
        digest.to_bytes()
    }

    fn decode(payload: &[u8]) -> Option<RoundDigest> {
        RoundDigest::from_bytes(payload)
    }
}

/// The persistent digest store. Open it on a directory (shared with or
/// separate from a round cache — the file names never collide), `get` by
/// cache key, `put` fresh digests; entries survive process restarts.
#[derive(Debug)]
pub struct AnalysisStore {
    journal: Journal<DigestCodec>,
}

impl AnalysisStore {
    /// Opens (creating if needed) the analysis journal inside `dir`,
    /// replaying its records into memory. A torn tail — an incomplete
    /// record from a killed writer, a checksum mismatch or an undecodable
    /// digest — is truncated away, keeping every record before it.
    ///
    /// # Errors
    ///
    /// I/O failures, and a file that is not a `CARQANA1` journal.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, CacheError> {
        Ok(AnalysisStore { journal: Journal::open(dir)? })
    }

    /// The journal file path.
    pub fn journal_path(&self) -> &Path {
        self.journal.path()
    }

    /// Bytes dropped from a torn header or tail at open time.
    pub fn recovered_bytes(&self) -> u64 {
        self.journal.recovered_bytes()
    }

    /// Number of stored digests.
    pub fn len(&self) -> usize {
        self.journal.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.journal.is_empty()
    }

    /// Looks up the digest stored under `key`.
    pub fn get(&self, key: &CacheKey) -> Option<RoundDigest> {
        self.journal.get(key.as_str()).cloned()
    }

    /// Stores `digest` under `key`, appending to the journal. Returns
    /// `false` when an identical digest was already stored (nothing is
    /// written); a *different* digest under an existing key is appended and
    /// supersedes (last write wins — the analysis code changed).
    ///
    /// # Errors
    ///
    /// I/O failures while appending.
    pub fn put(&mut self, key: &CacheKey, digest: &RoundDigest) -> Result<bool, CacheError> {
        Ok(self.journal.put(key.as_str(), digest)? != IngestOutcome::Duplicate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vanet-analysis-store-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn key(round: u32) -> CacheKey {
        CacheKey::new("urban", 0xFEED, "scenario=urban", round, u64::from(round) ^ 0xABC)
    }

    fn digest(round: u32) -> RoundDigest {
        RoundDigest {
            round,
            seed: u64::from(round) ^ 0xABC,
            records: 10 + round,
            latency: crate::latency::LatencyReport {
                samples_ns: vec![u64::from(round) * 1000, 5_000],
                opened: 3,
                unmatched: 1,
            },
            occupancy: crate::occupancy::OccupancyReport {
                span_ns: 100_000,
                busy_ns: 40_000,
                airtime_ns: 45_000,
                tx_count: 7,
                collision_windows: 1,
                per_node_airtime_ns: vec![(0, 30_000), (2, 15_000)],
            },
        }
    }

    #[test]
    fn put_get_and_reopen() {
        let dir = temp_dir("roundtrip");
        let mut store = AnalysisStore::open(&dir).unwrap();
        assert!(store.is_empty());
        assert!(store.put(&key(0), &digest(0)).unwrap());
        assert!(store.put(&key(1), &digest(1)).unwrap());
        assert!(!store.put(&key(0), &digest(0)).unwrap(), "identical duplicate skipped");
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(&key(0)), Some(digest(0)));
        assert_eq!(store.get(&key(7)), None);

        // A fresh open replays everything.
        drop(store);
        let reopened = AnalysisStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get(&key(1)), Some(digest(1)));
        assert_eq!(reopened.recovered_bytes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn conflicting_put_supersedes() {
        let dir = temp_dir("supersede");
        let mut store = AnalysisStore::open(&dir).unwrap();
        store.put(&key(0), &digest(0)).unwrap();
        let mut changed = digest(0);
        changed.records += 1;
        assert!(store.put(&key(0), &changed).unwrap());
        assert_eq!(store.get(&key(0)), Some(changed.clone()));
        drop(store);
        // Last write wins across reopen too.
        let reopened = AnalysisStore::open(&dir).unwrap();
        assert_eq!(reopened.get(&key(0)), Some(changed));
        assert_eq!(reopened.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_files_are_rejected() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(DigestCodec::FILE_NAME), b"NOTANANALYSISJOURNAL").unwrap();
        let err = AnalysisStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("not a CARQANA1 journal"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
