//! Reception maps and cooperation buffers.
//!
//! Two bookkeeping structures drive the Cooperative-ARQ phase:
//!
//! * every car keeps, for its *own* flow, a [`ReceptionMap`]: which sequence
//!   numbers it has received from the AP and which are missing "from the
//!   first to the last received" (the paper's recovery target);
//! * every car keeps a [`CoopBuffer`] with the packets it has overheard that
//!   are addressed to the cars that listed it as a cooperator.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};
use vanet_mac::NodeId;

use crate::packet::{DataPacket, SeqNo};

/// Tracks which sequence numbers of one flow have been received.
///
/// The set is stored as a sorted list of 64-sequence blocks, one
/// `(block, bits)` entry per block that holds at least one sequence number,
/// where bit `i` of block `b` stands for sequence number `64 b + i`. A run
/// of consecutive sequence numbers costs about one bit each; a sparse set
/// costs one entry per non-empty block, never a bitset as long as its
/// largest member. No entry is ever empty, so two maps holding the same set
/// are equal field by field.
///
/// The map derives no serde traits: the derived form would expose the block
/// layout and accept blocks that break the invariant above.
///
/// # Examples
///
/// ```
/// use vanet_dtn::{ReceptionMap, SeqNo};
///
/// let mut map = ReceptionMap::new();
/// map.mark_received(SeqNo::new(3));
/// map.mark_received(SeqNo::new(6));
/// assert_eq!(map.missing(), vec![SeqNo::new(4), SeqNo::new(5)]);
/// assert_eq!(map.received_count(), 2);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ReceptionMap {
    /// `(block, bits)` entries, ascending by block, none with `bits == 0`.
    blocks: Vec<(u32, u64)>,
    /// Number of set bits over all blocks.
    len: usize,
}

/// The block holding `seq` and the bit standing for it there.
fn block_of(seq: SeqNo) -> (u32, u64) {
    (seq.value() >> 6, 1 << (seq.value() & 63))
}

impl ReceptionMap {
    /// Creates an empty map.
    pub const fn new() -> Self {
        ReceptionMap { blocks: Vec::new(), len: 0 }
    }

    /// The index of `block` in `blocks` (`Ok`) or where it would be inserted
    /// (`Err`).
    fn locate(&self, block: u32) -> Result<usize, usize> {
        self.blocks.binary_search_by_key(&block, |&(b, _)| b)
    }

    /// Marks `seq` as received. Returns `true` if it was not already present.
    pub fn mark_received(&mut self, seq: SeqNo) -> bool {
        let (block, bit) = block_of(seq);
        let index = match self.blocks.last() {
            // Ascending inserts (the AP's order) land in or after the last block.
            Some(&(last, _)) if last == block => self.blocks.len() - 1,
            Some(&(last, _)) if last > block => match self.locate(block) {
                Ok(index) => index,
                Err(index) => {
                    self.blocks.insert(index, (block, 0));
                    index
                }
            },
            _ => {
                self.blocks.push((block, 0));
                self.blocks.len() - 1
            }
        };
        let bits = &mut self.blocks[index].1;
        let fresh = *bits & bit == 0;
        *bits |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Whether `seq` has been received.
    pub fn contains(&self, seq: SeqNo) -> bool {
        let (block, bit) = block_of(seq);
        self.locate(block).is_ok_and(|index| self.blocks[index].1 & bit != 0)
    }

    /// Number of distinct sequence numbers received.
    pub fn received_count(&self) -> usize {
        self.len
    }

    /// Whether nothing has been received yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The lowest sequence number received, if any.
    pub fn first(&self) -> Option<SeqNo> {
        self.blocks.first().map(|&(block, bits)| SeqNo::new(block << 6 | bits.trailing_zeros()))
    }

    /// The highest sequence number received, if any.
    pub fn last(&self) -> Option<SeqNo> {
        self.blocks
            .last()
            .map(|&(block, bits)| SeqNo::new(block << 6 | (63 - bits.leading_zeros())))
    }

    /// The sequence numbers missing between the first and the last received —
    /// the recovery target of the Cooperative-ARQ phase ("recover all packets
    /// from the first to the last received from the AP").
    pub fn missing(&self) -> Vec<SeqNo> {
        let mut missing = Vec::with_capacity(self.missing_count());
        let mut next_block = self.blocks.first().map_or(0, |&(b, _)| b);
        for (index, &(block, bits)) in self.blocks.iter().enumerate() {
            // Blocks between two entries hold nothing at all.
            missing.extend((next_block << 6..block << 6).map(SeqNo::new));
            let mut absent = !bits;
            if index == 0 {
                absent &= u64::MAX << bits.trailing_zeros();
            }
            if index + 1 == self.blocks.len() {
                absent &= u64::MAX >> bits.leading_zeros();
            }
            missing.extend(BitSeqs { base: block << 6, bits: absent });
            next_block = block + 1;
        }
        missing
    }

    /// Number of missing sequence numbers between first and last received.
    pub fn missing_count(&self) -> usize {
        self.span_len() - self.len
    }

    /// The span (first..=last) length, i.e. how many packets the AP sent to
    /// this flow while the node could observe them. Zero when nothing was
    /// received.
    pub fn span_len(&self) -> usize {
        match (self.first(), self.last()) {
            (Some(first), Some(last)) => (last.value() - first.value()) as usize + 1,
            _ => 0,
        }
    }

    /// Iterates over the received sequence numbers in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = SeqNo> + '_ {
        self.blocks.iter().flat_map(|&(block, bits)| BitSeqs { base: block << 6, bits })
    }

    /// Adds every sequence number of `other` (set union), block by block.
    pub fn union_with(&mut self, other: &ReceptionMap) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.clone_from(other);
            return;
        }
        let (mine, theirs) = (&self.blocks, &other.blocks);
        let mut merged = Vec::with_capacity(mine.len() + theirs.len());
        let (mut i, mut j) = (0, 0);
        while let (Some(&(a, x)), Some(&(b, y))) = (mine.get(i), theirs.get(j)) {
            merged.push(match a.cmp(&b) {
                Ordering::Less => (a, x),
                Ordering::Greater => (b, y),
                Ordering::Equal => (a, x | y),
            });
            i += usize::from(a <= b);
            j += usize::from(b <= a);
        }
        merged.extend_from_slice(&mine[i..]);
        merged.extend_from_slice(&theirs[j..]);
        self.len = merged.iter().map(|&(_, bits)| bits.count_ones() as usize).sum();
        self.blocks = merged;
    }

    /// The union of `maps`: the joint ("virtual car") reception of several
    /// observers of one flow.
    pub fn union_of<'a>(maps: impl IntoIterator<Item = &'a ReceptionMap>) -> ReceptionMap {
        let mut union = ReceptionMap::new();
        for map in maps {
            union.union_with(map);
        }
        union
    }

    /// Removes everything (e.g. when a new AP session starts).
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.len = 0;
    }

    /// Number of 64-sequence blocks the map stores.
    #[cfg(test)]
    fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

/// The sequence numbers of the set bits of one block, ascending.
struct BitSeqs {
    base: u32,
    bits: u64,
}

impl Iterator for BitSeqs {
    type Item = SeqNo;

    fn next(&mut self) -> Option<SeqNo> {
        if self.bits == 0 {
            return None;
        }
        let offset = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(SeqNo::new(self.base | offset))
    }
}

/// Prints the set of received sequence numbers.
impl fmt::Debug for ReceptionMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<SeqNo> for ReceptionMap {
    fn from_iter<I: IntoIterator<Item = SeqNo>>(iter: I) -> Self {
        let mut map = ReceptionMap::new();
        map.extend(iter);
        map
    }
}

/// Ascending input (the AP's order, an encoded map) is appended as it comes.
/// From the first number below the map's last block, the rest of the input
/// is sorted once and merged in, so any input order costs O(n log n) rather
/// than one block insert per number.
impl Extend<SeqNo> for ReceptionMap {
    fn extend<I: IntoIterator<Item = SeqNo>>(&mut self, iter: I) {
        let mut iter = iter.into_iter();
        while let Some(seq) = iter.next() {
            if self.blocks.last().is_some_and(|&(last, _)| block_of(seq).0 < last) {
                let mut rest: Vec<SeqNo> = iter.collect();
                rest.push(seq);
                rest.sort_unstable();
                let mut sorted = ReceptionMap::new();
                for seq in rest {
                    sorted.mark_received(seq);
                }
                self.union_with(&sorted);
                return;
            }
            self.mark_received(seq);
        }
    }
}

/// What one [`CoopBuffer::store_with_eviction`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOutcome {
    /// Whether the packet was newly inserted (not already buffered).
    pub stored: bool,
    /// The sequence number evicted to make room, if the peer's flow was at
    /// capacity.
    pub evicted: Option<SeqNo>,
}

/// The packets a node buffers on behalf of other cars (its "cooperatees").
///
/// Capacity is bounded per peer; when full, the oldest buffered packet for
/// that peer is evicted first (the protocol requests packets in ascending
/// order, so older packets are the most likely to have been recovered
/// already).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoopBuffer {
    capacity_per_peer: usize,
    buffered: BTreeMap<NodeId, BTreeMap<SeqNo, DataPacket>>,
}

impl CoopBuffer {
    /// Creates a buffer that keeps at most `capacity_per_peer` packets per
    /// peer flow.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(capacity_per_peer: usize) -> Self {
        assert!(capacity_per_peer > 0, "capacity must be positive");
        CoopBuffer { capacity_per_peer, buffered: BTreeMap::new() }
    }

    /// Stores a packet overheard for `packet.destination`. Returns `true` if
    /// the packet was newly inserted (not already buffered).
    pub fn store(&mut self, packet: DataPacket) -> bool {
        self.store_with_eviction(packet).stored
    }

    /// [`CoopBuffer::store`] reporting what happened, so callers can count
    /// buffer drops: whether the packet was newly inserted and which
    /// sequence number (if any) was evicted to make room.
    pub fn store_with_eviction(&mut self, packet: DataPacket) -> StoreOutcome {
        let per_peer = self.buffered.entry(packet.destination).or_default();
        if per_peer.contains_key(&packet.seq) {
            return StoreOutcome { stored: false, evicted: None };
        }
        let mut evicted = None;
        if per_peer.len() >= self.capacity_per_peer {
            // Evict the oldest (lowest) sequence number.
            let oldest = *per_peer.keys().next().expect("non-empty by len check");
            per_peer.remove(&oldest);
            evicted = Some(oldest);
        }
        per_peer.insert(packet.seq, packet);
        StoreOutcome { stored: true, evicted }
    }

    /// Looks up a buffered packet for `peer` with sequence number `seq`.
    pub fn get(&self, peer: NodeId, seq: SeqNo) -> Option<&DataPacket> {
        self.buffered.get(&peer).and_then(|m| m.get(&seq))
    }

    /// Whether a packet for `peer`/`seq` is buffered.
    pub fn holds(&self, peer: NodeId, seq: SeqNo) -> bool {
        self.get(peer, seq).is_some()
    }

    /// Number of packets buffered for `peer`.
    pub fn buffered_for(&self, peer: NodeId) -> usize {
        self.buffered.get(&peer).map_or(0, BTreeMap::len)
    }

    /// Total number of buffered packets across all peers.
    pub fn len(&self) -> usize {
        self.buffered.values().map(BTreeMap::len).sum()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sequence numbers buffered for `peer`, ascending.
    pub fn seqs_for(&self, peer: NodeId) -> Vec<SeqNo> {
        self.buffered.get(&peer).map_or_else(Vec::new, |m| m.keys().copied().collect())
    }

    /// Drops everything buffered for `peer` (e.g. when the peer leaves the
    /// platoon or has recovered everything).
    pub fn drop_peer(&mut self, peer: NodeId) {
        self.buffered.remove(&peer);
    }

    /// Drops all buffered packets.
    pub fn clear(&mut self) {
        self.buffered.clear();
    }

    /// The per-peer capacity this buffer was created with.
    pub fn capacity_per_peer(&self) -> usize {
        self.capacity_per_peer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest, TestCaseError};
    use sim_core::SimTime;
    use std::collections::BTreeSet;

    fn pkt(dst: u32, seq: u32) -> DataPacket {
        DataPacket::new(NodeId::new(dst), SeqNo::new(seq), 1_000, SimTime::ZERO)
    }

    #[test]
    fn reception_map_tracks_missing_between_first_and_last() {
        let mut map = ReceptionMap::new();
        assert!(map.is_empty());
        assert_eq!(map.missing(), Vec::<SeqNo>::new());
        assert_eq!(map.span_len(), 0);
        for s in [2u32, 3, 6, 9] {
            assert!(map.mark_received(SeqNo::new(s)));
        }
        assert!(!map.mark_received(SeqNo::new(3)), "duplicate reception");
        assert_eq!(map.first(), Some(SeqNo::new(2)));
        assert_eq!(map.last(), Some(SeqNo::new(9)));
        assert_eq!(map.span_len(), 8);
        assert_eq!(map.received_count(), 4);
        assert_eq!(map.missing_count(), 4);
        let missing: Vec<u32> = map.missing().into_iter().map(SeqNo::value).collect();
        assert_eq!(missing, vec![4, 5, 7, 8]);
        assert!(map.contains(SeqNo::new(6)));
        assert!(!map.contains(SeqNo::new(7)));
        map.clear();
        assert!(map.is_empty());
    }

    #[test]
    fn reception_map_collects_from_iterator() {
        let map: ReceptionMap = (0..5u32).map(SeqNo::new).collect();
        assert_eq!(map.received_count(), 5);
        assert_eq!(map.missing_count(), 0);
        let mut extended = map.clone();
        extended.extend([SeqNo::new(7)]);
        assert_eq!(extended.missing(), vec![SeqNo::new(5), SeqNo::new(6)]);
        assert_eq!(map.iter().count(), 5);
    }

    #[test]
    fn sparse_maps_store_one_entry_per_occupied_block() {
        let map: ReceptionMap = [u32::MAX, 0].into_iter().map(SeqNo::new).collect();
        assert_eq!(map.block_count(), 2, "no bitset as long as the largest member");
        assert_eq!(map.span_len(), 1 << 32);
        assert_eq!(map.missing_count(), (1 << 32) - 2);
    }

    #[test]
    fn coop_buffer_stores_and_looks_up() {
        let mut buf = CoopBuffer::new(10);
        assert!(buf.is_empty());
        assert!(buf.store(pkt(1, 5)));
        assert!(!buf.store(pkt(1, 5)), "duplicate store");
        assert!(buf.store(pkt(2, 5)));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.buffered_for(NodeId::new(1)), 1);
        assert!(buf.holds(NodeId::new(1), SeqNo::new(5)));
        assert!(!buf.holds(NodeId::new(1), SeqNo::new(6)));
        assert_eq!(buf.get(NodeId::new(2), SeqNo::new(5)).unwrap().destination, NodeId::new(2));
        assert_eq!(buf.seqs_for(NodeId::new(1)), vec![SeqNo::new(5)]);
        buf.drop_peer(NodeId::new(1));
        assert_eq!(buf.buffered_for(NodeId::new(1)), 0);
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity_per_peer(), 10);
    }

    #[test]
    fn coop_buffer_evicts_oldest_when_full() {
        let mut buf = CoopBuffer::new(3);
        for s in 0..5u32 {
            buf.store(pkt(1, s));
        }
        assert_eq!(buf.buffered_for(NodeId::new(1)), 3);
        let seqs: Vec<u32> = buf.seqs_for(NodeId::new(1)).into_iter().map(SeqNo::value).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest packets evicted first");
    }

    #[test]
    fn store_with_eviction_reports_what_happened() {
        let mut buf = CoopBuffer::new(2);
        assert_eq!(
            buf.store_with_eviction(pkt(1, 3)),
            StoreOutcome { stored: true, evicted: None }
        );
        assert_eq!(
            buf.store_with_eviction(pkt(1, 3)),
            StoreOutcome { stored: false, evicted: None },
            "duplicates are rejected without evicting"
        );
        assert_eq!(
            buf.store_with_eviction(pkt(1, 4)),
            StoreOutcome { stored: true, evicted: None }
        );
        assert_eq!(
            buf.store_with_eviction(pkt(1, 5)),
            StoreOutcome { stored: true, evicted: Some(SeqNo::new(3)) },
            "the oldest packet makes room"
        );
        // Another peer's flow has its own capacity.
        assert_eq!(
            buf.store_with_eviction(pkt(2, 9)),
            StoreOutcome { stored: true, evicted: None }
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = CoopBuffer::new(0);
    }

    /// Decodes raw draws into an insert sequence mixing the shapes a
    /// reception map meets: ascending runs (the AP's order), descending runs
    /// and lone values anywhere in `u32` (out-of-order inserts), block edges
    /// and the extremes `0` and `u32::MAX` (sparse inserts), and repeats of
    /// earlier inserts (duplicates).
    fn insert_sequence(ops: &[(u32, u32, u32)]) -> Vec<u32> {
        let mut seqs: Vec<u32> = Vec::new();
        for &(kind, value, small) in ops {
            let start = if value % 2 == 0 { value % 3_000 } else { value };
            match kind {
                0 => seqs.extend((0..=small % 130).map_while(|i| start.checked_add(i))),
                1 => seqs.extend((0..=small % 130).map_while(|i| start.checked_sub(i))),
                2 => seqs.push(value),
                3 => seqs.push(
                    [0, u32::MAX, 63, 64, u32::MAX - 63, u32::MAX - 64, value & !63, value | 63]
                        [small as usize % 8],
                ),
                _ => seqs.push(seqs.get(small as usize % seqs.len().max(1)).copied().unwrap_or(0)),
            }
        }
        seqs
    }

    /// Inserts `seqs` one by one into a map and into a `BTreeSet` reference
    /// and checks every accessor against the reference.
    fn check_against_reference(seqs: &[u32]) -> Result<ReceptionMap, TestCaseError> {
        let mut map = ReceptionMap::new();
        let mut reference = BTreeSet::new();
        for &s in seqs {
            prop_assert_eq!(map.mark_received(SeqNo::new(s)), reference.insert(s));
            prop_assert!(map.block_count() <= map.received_count());
        }
        let first = reference.first().copied();
        let last = reference.last().copied();
        prop_assert_eq!(map.first().map(SeqNo::value), first);
        prop_assert_eq!(map.last().map(SeqNo::value), last);
        prop_assert_eq!(map.received_count(), reference.len());
        prop_assert_eq!(map.is_empty(), reference.is_empty());
        let span = first.zip(last).map_or(0, |(f, l)| (l - f) as usize + 1);
        prop_assert_eq!(map.span_len(), span);
        prop_assert_eq!(map.missing_count(), span - reference.len());
        if span <= 1 << 16 {
            let expected: Vec<u32> = first.zip(last).map_or_else(Vec::new, |(f, l)| {
                (f..=l).filter(|s| !reference.contains(s)).collect()
            });
            prop_assert_eq!(
                map.missing().into_iter().map(SeqNo::value).collect::<Vec<_>>(),
                expected
            );
        }
        prop_assert_eq!(
            map.iter().map(SeqNo::value).collect::<Vec<_>>(),
            reference.iter().copied().collect::<Vec<_>>()
        );
        for &s in seqs {
            for probe in [s, s.wrapping_add(1), s.wrapping_sub(1), s ^ 64] {
                prop_assert_eq!(map.contains(SeqNo::new(probe)), reference.contains(&probe));
            }
        }
        // The same set collected in insert order, ascending or descending,
        // or extended from a non-empty map, is the same map.
        let ascending: ReceptionMap = reference.iter().copied().map(SeqNo::new).collect();
        let descending: ReceptionMap = reference.iter().rev().copied().map(SeqNo::new).collect();
        let collected: ReceptionMap = seqs.iter().copied().map(SeqNo::new).collect();
        let (head, tail) = seqs.split_at(seqs.len() / 2);
        let mut extended: ReceptionMap = head.iter().copied().map(SeqNo::new).collect();
        extended.extend(tail.iter().copied().map(SeqNo::new));
        for built in [&ascending, &descending, &collected, &extended] {
            prop_assert_eq!(built, &map);
            prop_assert_eq!(built.received_count(), reference.len());
        }
        prop_assert_eq!(
            format!("{map:?}"),
            format!("{:?}", reference.iter().copied().map(SeqNo::new).collect::<BTreeSet<_>>())
        );
        let mut cleared = map.clone();
        cleared.clear();
        prop_assert_eq!(&cleared, &ReceptionMap::new());
        prop_assert!(
            cleared.is_empty() && cleared.first().is_none() && cleared.iter().next().is_none()
        );
        prop_assert_eq!(cleared.span_len(), 0);
        Ok(map)
    }

    proptest! {
        /// Every accessor agrees with a `BTreeSet` model on insert sequences
        /// with ascending runs, out-of-order, duplicate and sparse values;
        /// the same sequences folded into a few thousand numbers give dense
        /// maps whose `missing` list is checked too. `union_with` agrees with
        /// the set union.
        #[test]
        fn prop_reception_map_matches_a_btreeset_model(
            ops in proptest::collection::vec((0u32..5, 0u32..u32::MAX, 0u32..1_000), 1..30),
            other in proptest::collection::vec((0u32..5, 0u32..u32::MAX, 0u32..1_000), 0..10),
        ) {
            let sparse = insert_sequence(&ops);
            let dense: Vec<u32> = sparse.iter().map(|s| s % 5_000).collect();
            let mut map = check_against_reference(&sparse)?;
            check_against_reference(&dense)?;
            let other = insert_sequence(&other);
            let other_map = check_against_reference(&other)?;
            map.union_with(&other_map);
            let union: Vec<u32> = sparse.iter().chain(&other).copied().collect();
            prop_assert_eq!(map, check_against_reference(&union)?);
        }

        /// received + missing always equals the span between first and last.
        #[test]
        fn prop_reception_map_partition(seqs in proptest::collection::btree_set(0u32..500, 0..100)) {
            let map: ReceptionMap = seqs.iter().copied().map(SeqNo::new).collect();
            prop_assert_eq!(map.received_count() + map.missing_count(), map.span_len());
            for m in map.missing() {
                prop_assert!(!map.contains(m));
            }
        }

        /// The buffer never exceeds its per-peer capacity, only ever holds
        /// packets that were actually stored, and when packets arrive in
        /// ascending order it retains the newest ones.
        #[test]
        fn prop_buffer_capacity_respected(seqs in proptest::collection::vec(0u32..200, 1..80), cap in 1usize..20) {
            let mut buf = CoopBuffer::new(cap);
            for s in &seqs {
                buf.store(pkt(1, *s));
            }
            prop_assert!(buf.buffered_for(NodeId::new(1)) <= cap);
            for held in buf.seqs_for(NodeId::new(1)) {
                prop_assert!(seqs.contains(&held.value()));
            }

            // Ascending arrival (the AP's actual pattern): the newest `cap`
            // distinct packets must be retained.
            let mut sorted: Vec<u32> = seqs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let mut ordered = CoopBuffer::new(cap);
            for s in &sorted {
                ordered.store(pkt(1, *s));
            }
            let expect_newest: Vec<u32> = sorted.iter().rev().take(cap).rev().copied().collect();
            let held: Vec<u32> = ordered.seqs_for(NodeId::new(1)).into_iter().map(SeqNo::value).collect();
            prop_assert_eq!(held, expect_newest);
        }
    }
}
