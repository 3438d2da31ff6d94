//! Both journal formats against the shared `vanet_cache::Journal`: the
//! committed fixtures still replay and re-encode byte for byte (they were
//! written before the formats shared one journal, and pin the on-disk
//! bytes; never regenerate them), and every torn or corrupt image opens
//! exactly as a record-by-record scan says.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use sim_core::{fnv1a64, fnv1a64_chain};
use vanet_analysis::{DigestCodec, LatencyReport, OccupancyReport, RoundDigest};
use vanet_cache::{CacheKey, Journal, RecordCodec, RoundReportCodec};
use vanet_dtn::{ReceptionMap, SeqNo};
use vanet_mac::NodeId;
use vanet_stats::{FlowObservation, RoundReport, RoundResult};

/// The committed fixtures: `rounds.journal` (`VANETCACHE1`) and
/// `analysis.journal` (`CARQANA1`).
const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data");

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vanet-journal-formats-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture_key(i: u32) -> CacheKey {
    let config = format!("scenario=urban;n_cars=i{}", 2 + i % 2);
    CacheKey::new("urban", 0xFEED, &config, i, 0xBEEF ^ u64::from(i))
}

fn seqs(seqs: impl Iterator<Item = u32>) -> ReceptionMap {
    seqs.map(SeqNo::new).collect()
}

/// A one-flow report whose maps span two 64-sequence blocks.
fn fixture_report(i: u32) -> RoundReport {
    let n = 12 + 5 * i;
    let far = 70 + i;
    let flow = FlowObservation {
        destination: NodeId::new(1),
        sent: (0..n).chain([far]).map(SeqNo::new).collect(),
        received_by: BTreeMap::from([
            (NodeId::new(1), seqs((0..n).filter(|s| s % 3 != i % 3))),
            (NodeId::new(2), seqs((0..n).filter(|s| s % 2 == 0).chain([far]))),
        ]),
        after_coop: seqs((0..n).filter(|s| s % 3 != i % 3 || s % 2 == 0).chain([far])),
    };
    RoundReport::new(i, 0xBEEF ^ u64::from(i), RoundResult::new(vec![flow]))
        .with_counter("frames_sent", f64::from(40 + i))
        .with_counter("coop_requests", f64::from(i) * 0.5)
}

fn fixture_digest(i: u32) -> RoundDigest {
    RoundDigest {
        round: i,
        seed: 0xBEEF ^ u64::from(i),
        records: 100 + 7 * i,
        latency: LatencyReport {
            samples_ns: (0..=i).map(|s| 1_000 * u64::from(s + 1)).collect(),
            opened: i + 2,
            unmatched: 1,
        },
        occupancy: OccupancyReport {
            span_ns: 1_000_000,
            busy_ns: 250_000 + u64::from(i),
            airtime_ns: 300_000,
            tx_count: 10 + i,
            collision_windows: i,
            per_node_airtime_ns: vec![(0, 200_000), (i + 1, 100_000)],
        },
    }
}

/// The records each fixture holds, in file order: three keys, then one of
/// them again with a different value (a superseded record).
fn fixture_rounds() -> Vec<(String, RoundReport)> {
    [(0, 0), (1, 1), (2, 2), (0, 3)]
        .map(|(k, v)| (fixture_key(k).as_str().to_string(), fixture_report(v)))
        .to_vec()
}

fn fixture_digests() -> Vec<(String, RoundDigest)> {
    [(0, 0), (1, 1), (2, 2), (1, 3)]
        .map(|(k, v)| (fixture_key(k).as_str().to_string(), fixture_digest(v)))
        .to_vec()
}

/// The fixture of codec `C` replays to the last-write-wins view of
/// `records`; writing `records` through a fresh journal, or merging the
/// fixture into one, reproduces its bytes exactly; the fixture is not
/// written to.
fn check_fixture<C: RecordCodec>(records: &[(String, C::Value)])
where
    C::Value: std::fmt::Debug,
{
    let path = Path::new(FIXTURES).join(C::FILE_NAME);
    let bytes = std::fs::read(&path).unwrap();
    let fixture = Journal::<C>::open_read_only(FIXTURES).unwrap();
    assert_eq!(fixture.recovered_bytes(), 0, "{}", C::FILE_NAME);
    assert_eq!(fixture.file_bytes(), bytes.len() as u64);
    assert!(fixture.live_bytes() < fixture.file_bytes(), "one record is superseded");
    let live: BTreeMap<&str, &C::Value> = records.iter().map(|(k, v)| (k.as_str(), v)).collect();
    let replayed: BTreeMap<&str, &C::Value> =
        fixture.keys().map(|k| (k, fixture.get(k).unwrap())).collect();
    assert_eq!(replayed, live, "{}", C::FILE_NAME);

    let written = temp_dir("fixture-put");
    let mut journal = Journal::<C>::open(&written).unwrap();
    for (key, value) in records {
        journal.put(key, value).unwrap();
    }
    drop(journal);
    assert_eq!(std::fs::read(written.join(C::FILE_NAME)).unwrap(), bytes, "re-encoded");

    let merged = temp_dir("fixture-merge");
    let report = Journal::<C>::open(&merged).unwrap().merge(&[FIXTURES]).unwrap();
    assert_eq!((report.records_ingested, report.records_superseded), (3, 1));
    assert_eq!(std::fs::read(merged.join(C::FILE_NAME)).unwrap(), bytes, "merged");
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "the fixture was only read");
    for dir in [written, merged] {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn committed_fixtures_replay_and_re_encode_byte_for_byte() {
    check_fixture::<RoundReportCodec>(&fixture_rounds());
    check_fixture::<DigestCodec>(&fixture_digests());
}

/// A journal record framing `payload` under `key` with a valid checksum.
fn framed(key: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut record = Vec::new();
    record.extend_from_slice(&(key.len() as u32).to_le_bytes());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&fnv1a64_chain(fnv1a64(key), payload).to_le_bytes());
    record.extend_from_slice(key);
    record.extend_from_slice(payload);
    record
}

/// The one-record-at-a-time scan the journal's batched replay must agree
/// with: each record is bounds-checked, checksummed and decoded on its own
/// before the next is looked at. Returns the accepted
/// `(key, value, record_len)`s and the valid prefix length.
fn oracle_replay<C: RecordCodec>(buf: &[u8]) -> (Vec<(String, C::Value, u64)>, usize) {
    let mut records = Vec::new();
    let mut pos = C::MAGIC.len().min(buf.len());
    while let Some(header) = buf.get(pos..pos + 16) {
        let key_len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let payload_len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let Some(key) = buf.get(pos + 16..pos + 16 + key_len) else { break };
        let end = pos + 16 + key_len + payload_len;
        let Some(payload) = buf.get(pos + 16 + key_len..end) else { break };
        if fnv1a64_chain(fnv1a64(key), payload) != checksum {
            break;
        }
        let (Ok(key), Some(value)) = (std::str::from_utf8(key), C::decode(payload)) else {
            break;
        };
        records.push((key.to_string(), value, (end - pos) as u64));
        pos = end;
    }
    (records, pos)
}

/// What a handle serves: every live key with its value, and its counters
/// `(file_bytes, recovered_bytes, live_bytes)`.
type Served<V> = (Vec<(String, V)>, (u64, u64, u64));

fn served<C: RecordCodec>(journal: &Journal<C>) -> Served<C::Value> {
    let entries =
        journal.keys().map(|k| (k.to_string(), journal.get(k).unwrap().clone())).collect();
    (entries, (journal.file_bytes(), journal.recovered_bytes(), journal.live_bytes()))
}

/// Writes `image` as the journal in `dir` and checks that a read-only and a
/// writable open serve exactly what [`oracle_replay`] accepts, report the
/// same torn bytes and (writable only) rewrite a torn header or truncate
/// at the same offset. With `append`, the recovered journal must then take
/// `fresh` and reopen clean with it.
fn assert_opens_like_the_oracle<C: RecordCodec>(
    dir: &Path,
    image: &[u8],
    what: &str,
    fresh: Option<(&str, &C::Value)>,
) where
    C::Value: std::fmt::Debug,
{
    let path = dir.join(C::FILE_NAME);
    let (records, valid_len) = oracle_replay::<C>(image);
    let mut live = BTreeMap::new();
    for (key, value, record_len) in records {
        live.insert(key, (value, record_len));
    }
    let entries: Vec<_> = live.iter().map(|(k, (v, _))| (k.clone(), v.clone())).collect();
    let live_bytes = C::MAGIC.len() as u64 + live.values().map(|(_, len)| len).sum::<u64>();
    let header_torn = image.len() < C::MAGIC.len();
    let torn = if header_torn { image.len() } else { image.len() - valid_len } as u64;

    std::fs::write(&path, image).unwrap();
    let read_only = served(&Journal::<C>::open_read_only(dir).unwrap());
    let ro_live = if image.is_empty() { 0 } else { live_bytes };
    assert_eq!(
        read_only,
        (entries.clone(), (image.len() as u64, torn, ro_live)),
        "read-only, {what}"
    );
    assert_eq!(std::fs::read(&path).unwrap(), image, "read-only open wrote, {what}");

    let mut journal = Journal::<C>::open(dir).unwrap();
    let kept = if header_torn { C::MAGIC.len() } else { valid_len };
    assert_eq!(
        served(&journal),
        (entries.clone(), (kept as u64, torn, live_bytes)),
        "writable, {what}"
    );
    let expected = if header_torn { C::MAGIC } else { &image[..valid_len] };
    assert_eq!(std::fs::read(&path).unwrap(), expected, "truncated journal, {what}");

    if let Some((key, value)) = fresh {
        journal.put(key, value).unwrap();
        drop(journal);
        let reopened = Journal::<C>::open(dir).unwrap();
        assert_eq!(reopened.len(), live.len() + 1, "{what}");
        assert_eq!(reopened.get(key), Some(value), "appended after recovery, {what}");
        assert_eq!(reopened.recovered_bytes(), 0, "{what}");
    }
}

/// Ten records with keys of unequal lengths — more than four and not a
/// multiple of four, so the checksum kernel refills lanes and ends on a
/// partial set — where the eighth reuses the fourth's key and supersedes it.
fn uneven_journal<C: RecordCodec>(value: &impl Fn(u32) -> C::Value) -> Vec<u8> {
    let mut image = C::MAGIC.to_vec();
    for i in 0..10u32 {
        let n = if i == 7 { 3 } else { i };
        let config = format!("scenario=fake;x={}", "i".repeat(n as usize * 3));
        let key = CacheKey::new("fake", 0xF1, &config, n, u64::from(n));
        image.extend_from_slice(&framed(key.as_str().as_bytes(), &C::encode(&value(i * 11))));
    }
    image
}

/// Short values keep the every-offset sweeps quick; the keys already make
/// every record a different length.
fn small_report(i: u32) -> RoundReport {
    RoundReport::new(i, u64::from(i) * 31 + 7, RoundResult::default())
        .with_counter("value", f64::from(i) + 0.5)
}

fn small_digest(i: u32) -> RoundDigest {
    fixture_digest(i % 4)
}

/// Every cut (a kill at any byte offset) and every single-bit flip of an
/// uneven journal of codec `C`, for writable and read-only opens, against
/// the record-by-record oracle; every cut journal must also stay
/// appendable after recovery.
fn every_cut_and_flip<C: RecordCodec>(tag: &str, value: impl Fn(u32) -> C::Value)
where
    C::Value: std::fmt::Debug,
{
    let dir = temp_dir(tag);
    let image = uneven_journal::<C>(&value);
    let (records, valid_len) = oracle_replay::<C>(&image);
    assert_eq!((records.len(), valid_len), (10, image.len()), "the clean journal replays whole");
    let lens: std::collections::BTreeSet<u64> = records.iter().map(|r| r.2).collect();
    assert!(lens.len() >= 9, "record lengths vary: {lens:?}");

    let fresh = (fixture_key(99).as_str().to_string(), value(99));
    for cut in 0..=image.len() {
        let what = format!("{tag} cut at {cut}");
        assert_opens_like_the_oracle::<C>(&dir, &image[..cut], &what, Some((&fresh.0, &fresh.1)));
    }
    for at in 0..image.len() {
        let mut flipped = image.clone();
        flipped[at] ^= 0x01;
        let what = format!("{tag} bit flipped at {at}");
        if at < C::MAGIC.len() {
            std::fs::write(dir.join(C::FILE_NAME), &flipped).unwrap();
            assert!(Journal::<C>::open_read_only(&dir).is_err(), "{what}");
            assert!(Journal::<C>::open(&dir).is_err(), "{what}");
        } else {
            assert_opens_like_the_oracle::<C>(&dir, &flipped, &what, None);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_torn_or_corrupt_journal_opens_where_a_record_scan_cuts_it() {
    every_cut_and_flip::<RoundReportCodec>("rounds", small_report);
    every_cut_and_flip::<DigestCodec>("digests", small_digest);
}

/// A checksummed record whose key is not UTF-8, and one whose payload does
/// not decode, each followed by a good record: replay stops at the bad one.
fn stops_at_undecodable<C: RecordCodec>(tag: &str, value: impl Fn(u32) -> C::Value)
where
    C::Value: std::fmt::Debug,
{
    let dir = temp_dir(tag);
    let mut image = uneven_journal::<C>(&value);
    let clean = image.len();
    let bad_key = framed(&[0xFF, 0xFE, b'k'], &C::encode(&value(5)));
    let undecodable = framed(fixture_key(41).as_str().as_bytes(), &[1, 2, 3]);
    let good = framed(fixture_key(40).as_str().as_bytes(), &C::encode(&value(40)));
    for tail in [&bad_key, &undecodable] {
        image.truncate(clean);
        image.extend_from_slice(tail);
        image.extend_from_slice(&good);
        assert_eq!(oracle_replay::<C>(&image).1, clean);
        assert_opens_like_the_oracle::<C>(
            &dir,
            &image,
            "a checksummed but undecodable record",
            None,
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_stops_at_checksummed_records_that_do_not_decode() {
    stops_at_undecodable::<RoundReportCodec>("undecodable-rounds", small_report);
    stops_at_undecodable::<DigestCodec>("undecodable-digests", small_digest);
}
