//! Payload codec and per-peer bookkeeping for the epidemic (`Advr`/`Want`)
//! dissemination plane — `docs/PROTOCOL.md` §11.
//!
//! On a fabric without working multicast the transport cannot put one
//! datagram on the wire and have the switch fan it out; instead each
//! endpoint *advertises* the message ids it holds ([`crate::MsgKind::Advr`])
//! and peers *pull* what they are missing ([`crate::MsgKind::Want`]).
//! Both kinds carry the same payload, a [`GossipDigest`]: message ids
//! interned as `(src, inclusive seq ranges)` — the identical range form
//! the NACK codec uses ([`crate::nack::NackPayload`]), so a digest of a
//! thousand contiguous messages costs sixteen bytes, not a thousand
//! entries.
//!
//! The [`SeenTable`] is the receiver-side half: one per peer, recording
//! which ids that peer is known to hold (from its advertisements and its
//! ACK-horizon frontiers), so re-advertising is suppressed and pulls are
//! routed to a peer that can actually answer. Tables are dense rows
//! indexed by source — digests iterate into wire bytes in source order,
//! and replay determinism forbids hash-order output.
//!
//! Like the NACK codec, a digest decodes two ways: [`GossipDigestView`]
//! reads a validated payload in place (what the gossip plane ingests),
//! [`GossipDigest::decode`] collects the view into `Vec`s.

use bytes::{Bytes, BytesMut};

use crate::error::WireError;
use crate::nack::{RangesView, SeqRange};
use crate::read::Reader;

/// Cap on per-source entries in one encoded digest. Entries beyond the
/// cap are dropped (under-advertise): the ids stay correct, they are just
/// advertised on a later cycle — unlike the NACK codec's open-ended
/// collapse, which here would advertise ids the sender does not hold and
/// turn every such pull into an unanswerable hole.
pub const MAX_DIGEST_SOURCES: usize = 16;
/// Cap on encoded ranges per digest source (same drop-tail rule).
pub const MAX_DIGEST_RANGES: usize = 8;

/// Wire size of the digest's fixed prefix (source count).
const DIGEST_FIXED: usize = 2;
/// Wire size of one source entry's fixed part (src + range count).
const SOURCE_FIXED: usize = 6;
/// Wire size of one encoded range.
const RANGE_LEN: usize = 16;

/// Merge a list of inclusive ranges into sorted, disjoint,
/// maximally-coalesced form: adjacent (`end + 1 == start`) and
/// overlapping ranges fuse into one. The canonical form both the codec
/// and the [`SeenTable`] maintain — and what the range-compaction
/// proptests check is minimal.
pub fn compact_ranges(mut ranges: Vec<SeqRange>) -> Vec<SeqRange> {
    ranges.sort_unstable_by_key(|r| (r.start, r.end));
    let mut out: Vec<SeqRange> = Vec::with_capacity(ranges.len());
    for r in ranges {
        if r.start > r.end {
            continue; // empty/inverted: nothing to represent
        }
        match out.last_mut() {
            // `r.start <= last.end + 1` means overlap or adjacency; the
            // saturating add keeps `end = u64::MAX` from wrapping.
            Some(last) if r.start <= last.end.saturating_add(1) => {
                last.end = last.end.max(r.end);
            }
            _ => out.push(r),
        }
    }
    out
}

/// The ids one source contributed to a digest: the source rank plus the
/// inclusive seq ranges held, sorted and disjoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceDigest {
    /// Rank whose per-sender sequence space the ranges index.
    pub src: u32,
    /// Inclusive seq ranges, sorted, disjoint, coalesced.
    pub ranges: Vec<SeqRange>,
}

/// Decoded body of a [`crate::MsgKind::Advr`] or [`crate::MsgKind::Want`]
/// datagram: message ids in interned `(src, seq-range)` form. For an
/// `Advr` the ids are what the sender *holds and will answer pulls for*;
/// for a `Want` they are what the sender is *missing and asks the
/// addressee to unicast back*.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GossipDigest {
    /// Per-source entries, sorted by `src` (the encoder's iteration order
    /// — `BTreeMap`-fed, never hash-order).
    pub entries: Vec<SourceDigest>,
}

impl GossipDigest {
    /// A digest naming the single id `(src, seq)` — the common
    /// advertise-on-send shape.
    pub fn single(src: u32, seq: u64) -> Self {
        GossipDigest {
            entries: vec![SourceDigest {
                src,
                ranges: vec![SeqRange {
                    start: seq,
                    end: seq,
                }],
            }],
        }
    }

    /// True when no ids are named.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|e| e.ranges.is_empty())
    }

    /// True when the digest names `(src, seq)`.
    pub fn contains(&self, src: u32, seq: u64) -> bool {
        self.entries
            .iter()
            .filter(|e| e.src == src)
            .any(|e| e.ranges.iter().any(|r| r.contains(seq)))
    }

    /// Encode into a fresh payload buffer. Ranges are compacted first;
    /// sources beyond [`MAX_DIGEST_SOURCES`] and ranges beyond
    /// [`MAX_DIGEST_RANGES`] are *dropped*, never collapsed open-ended —
    /// a digest must only name ids its sender really holds (Advr) or
    /// really misses (Want). Dropped entries go out on a later cycle.
    pub fn encode(&self) -> Bytes {
        let mut entries: Vec<SourceDigest> = self
            .entries
            .iter()
            .map(|e| {
                let mut ranges = compact_ranges(e.ranges.clone());
                ranges.truncate(MAX_DIGEST_RANGES);
                SourceDigest { src: e.src, ranges }
            })
            .filter(|e| !e.ranges.is_empty())
            .collect();
        entries.truncate(MAX_DIGEST_SOURCES);
        let mut buf = BytesMut::with_capacity(
            DIGEST_FIXED + entries.len() * (SOURCE_FIXED + MAX_DIGEST_RANGES * RANGE_LEN),
        );
        buf.extend_from_slice(&(entries.len() as u16).to_le_bytes());
        for e in &entries {
            buf.extend_from_slice(&e.src.to_le_bytes());
            buf.extend_from_slice(&(e.ranges.len() as u16).to_le_bytes());
            for r in &e.ranges {
                buf.extend_from_slice(&r.start.to_le_bytes());
                buf.extend_from_slice(&r.end.to_le_bytes());
            }
        }
        buf.freeze()
    }

    /// Decode a gossip digest payload: [`GossipDigestView::parse`],
    /// collected.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let entries = GossipDigestView::parse(bytes)?
            .entries()
            .map(|e| SourceDigest {
                src: e.src,
                ranges: e.ranges.to_vec(),
            })
            .collect();
        Ok(GossipDigest { entries })
    }
}

/// One entry of a [`GossipDigestView`]: a [`SourceDigest`] whose ranges
/// are still on the wire.
#[derive(Clone, Copy, Debug)]
pub struct SourceDigestView<'a> {
    /// Rank whose per-sender sequence space the ranges index.
    pub src: u32,
    /// Inclusive seq ranges ([`SourceDigest::ranges`]).
    pub ranges: RangesView<'a>,
}

/// An `Advr`/`Want` payload read in place. `parse` walks and validates
/// every entry once; [`GossipDigestView::entries`] then reads them off the
/// payload bytes.
#[derive(Clone, Copy, Debug)]
pub struct GossipDigestView<'a> {
    count: usize,
    /// The entries, each `SOURCE_FIXED` bytes plus its ranges.
    entries: &'a [u8],
}

impl<'a> GossipDigestView<'a> {
    /// Validate a gossip digest payload and view it.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let count = r.u16()? as usize;
        r.counted(count, MAX_DIGEST_SOURCES, SOURCE_FIXED)?;
        let entries = r.rest();
        for _ in 0..count {
            read_entry(&mut r)?;
        }
        Ok(GossipDigestView { count, entries })
    }

    /// Per-source entries, in wire order.
    pub fn entries(&self) -> DigestEntryIter<'a> {
        DigestEntryIter {
            r: Reader::new(self.entries),
            left: self.count,
        }
    }
}

/// Read one digest entry.
fn read_entry<'a>(r: &mut Reader<'a>) -> Result<SourceDigestView<'a>, WireError> {
    let src = r.u32()?;
    let count = r.u16()? as usize;
    let ranges = RangesView::read(r, count, MAX_DIGEST_RANGES)?;
    Ok(SourceDigestView { src, ranges })
}

/// Iterator over the entries of a [`GossipDigestView`].
#[derive(Clone, Debug)]
pub struct DigestEntryIter<'a> {
    r: Reader<'a>,
    left: usize,
}

impl<'a> Iterator for DigestEntryIter<'a> {
    type Item = SourceDigestView<'a>;

    fn next(&mut self) -> Option<SourceDigestView<'a>> {
        self.left = self.left.checked_sub(1)?;
        read_entry(&mut self.r).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for DigestEntryIter<'_> {}

/// Merge `range` into `ranges` — sorted, disjoint and coalesced before
/// and after. Returns `true` when at least one seq of it was new.
pub(crate) fn merge_range(ranges: &mut Vec<SeqRange>, range: SeqRange) -> bool {
    if range.start > range.end {
        return false;
    }
    // Only the run `lo..hi` of ranges that overlap or abut `range` changes.
    let lo = ranges.partition_point(|r| r.end.saturating_add(1) < range.start);
    let hi = lo + ranges[lo..].partition_point(|r| r.start <= range.end.saturating_add(1));
    if lo == hi {
        if ranges.capacity() == 0 {
            // Most lists stay one coalesced range for life: do not let
            // `insert` reserve four slots for it.
            *ranges = vec![range];
        } else {
            ranges.insert(lo, range);
        }
        return true;
    }
    let merged = SeqRange {
        start: range.start.min(ranges[lo].start),
        end: range.end.max(ranges[hi - 1].end),
    };
    if hi - lo == 1 && merged == ranges[lo] {
        return false; // covered
    }
    ranges[lo] = merged;
    ranges.drain(lo + 1..hi);
    true
}

/// Which interned message ids one peer is known to hold: per source, the
/// sorted, disjoint, coalesced seq ranges. Fed from the peer's `Advr`
/// digests and its ACK-horizon frontiers; consulted before advertising to
/// that peer (suppression) and when routing a `Want` to a peer that can
/// answer it. GC'd by the AckHorizon plane via [`SeenTable::release_below`].
///
/// Dense: one row per source, indexed by rank, so a lookup is an index and
/// a note allocates only when a row first holds a range or outgrows its
/// buffer (a row the GC emptied keeps its buffer). The table is built for
/// a group of `sources` ranks and holds nothing until the first note; ids
/// of a source outside the group — stray or hostile traffic — are refused
/// rather than given a row.
#[derive(Clone, Debug)]
pub struct SeenTable {
    sources: usize,
    /// `rows[src]`, grown to `src + 1` by the first note of `src`.
    rows: Vec<Vec<SeqRange>>,
}

impl PartialEq for SeenTable {
    /// Two tables are equal when they hold the same ids: rows never
    /// noted and rows emptied again do not tell them apart.
    fn eq(&self, other: &Self) -> bool {
        self.held().eq(other.held())
    }
}

impl Eq for SeenTable {}

impl SeenTable {
    /// An empty table for the sources `0..sources`.
    pub fn new(sources: usize) -> Self {
        SeenTable {
            sources,
            rows: Vec::new(),
        }
    }

    /// The non-empty rows, in source order.
    fn held(&self) -> impl Iterator<Item = (u32, &[SeqRange])> {
        (0u32..)
            .zip(&self.rows)
            .filter(|(_, row)| !row.is_empty())
            .map(|(src, row)| (src, row.as_slice()))
    }

    /// Record that the peer holds `(src, seq)`. Returns `true` when the
    /// id was not already recorded.
    pub fn note(&mut self, src: u32, seq: u64) -> bool {
        self.note_range(
            src,
            SeqRange {
                start: seq,
                end: seq,
            },
        )
    }

    /// Record that the peer holds every id of `(src, range)`. Returns
    /// `true` when at least one id was new (never for a source outside
    /// the group: it is not recorded).
    pub fn note_range(&mut self, src: u32, range: SeqRange) -> bool {
        let src = src as usize;
        if src >= self.sources || range.start > range.end {
            return false;
        }
        if self.rows.len() <= src {
            self.rows.resize_with(src + 1, Vec::new);
        }
        merge_range(&mut self.rows[src], range)
    }

    /// True when the peer is known to hold `(src, seq)`.
    pub fn contains(&self, src: u32, seq: u64) -> bool {
        self.rows
            .get(src as usize)
            .is_some_and(|row| row.iter().any(|r| r.contains(seq)))
    }

    /// Drop all recorded ids of `src` at or below `floor` — the
    /// AckHorizon-plane GC hook: once the whole group acknowledged a
    /// prefix, remembering who holds it buys nothing.
    pub fn release_below(&mut self, src: u32, floor: u64) {
        let Some(row) = self.rows.get_mut(src as usize) else {
            return;
        };
        row.retain_mut(|r| {
            if r.end <= floor {
                return false;
            }
            r.start = r.start.max(floor.saturating_add(1));
            true
        });
    }

    /// The table's contents as a digest (for re-advertising).
    pub fn digest(&self) -> GossipDigest {
        GossipDigest {
            entries: self
                .held()
                .map(|(src, row)| SourceDigest {
                    src,
                    ranges: row.to_vec(),
                })
                .collect(),
        }
    }

    /// Stored range count across sources (bookkeeping bound checks).
    pub fn range_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(start: u64, end: u64) -> SeqRange {
        SeqRange { start, end }
    }

    #[test]
    fn compact_merges_overlap_and_adjacency() {
        let out = compact_ranges(vec![r(5, 7), r(0, 2), r(3, 4), r(9, 9), r(6, 10)]);
        assert_eq!(out, vec![r(0, 10)]);
        let out = compact_ranges(vec![r(0, 1), r(3, 4)]);
        assert_eq!(out, vec![r(0, 1), r(3, 4)], "a gap of one seq stays");
    }

    #[test]
    fn compact_handles_open_ended_tail() {
        let out = compact_ranges(vec![r(0, 3), r(2, u64::MAX)]);
        assert_eq!(out, vec![r(0, u64::MAX)]);
    }

    #[test]
    fn digest_roundtrip() {
        let d = GossipDigest {
            entries: vec![
                SourceDigest {
                    src: 0,
                    ranges: vec![r(0, 4), r(7, 7)],
                },
                SourceDigest {
                    src: 3,
                    ranges: vec![r(100, u64::MAX)],
                },
            ],
        };
        assert_eq!(GossipDigest::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn digest_single_and_contains() {
        let d = GossipDigest::single(2, 9);
        assert!(d.contains(2, 9));
        assert!(!d.contains(2, 8) && !d.contains(1, 9));
        assert!(!d.is_empty());
        assert!(GossipDigest::default().is_empty());
    }

    #[test]
    fn digest_encode_drops_tail_never_inflates() {
        // 12 isolated ids (gap 2 apart): over the per-source range cap.
        let ranges: Vec<SeqRange> = (0..12).map(|i| r(i * 2, i * 2)).collect();
        let d = GossipDigest {
            entries: vec![SourceDigest { src: 1, ranges }],
        };
        let dec = GossipDigest::decode(&d.encode()).unwrap();
        assert_eq!(dec.entries[0].ranges.len(), MAX_DIGEST_RANGES);
        // Every decoded id was in the original — drop-tail, no open-ended
        // collapse claiming ids the sender does not hold.
        for e in &dec.entries {
            for rr in &e.ranges {
                for s in rr.start..=rr.end {
                    assert!(d.contains(e.src, s), "id {s} invented by encode");
                }
            }
        }
    }

    #[test]
    fn digest_decode_rejects_garbage() {
        assert!(GossipDigest::decode(&[1]).is_err());
        // Claimed source count beyond the bytes present.
        let mut enc = GossipDigest::single(0, 1).encode().into_vec();
        enc[0] = 7;
        assert!(GossipDigest::decode(&enc).is_err());
        // Counts beyond the protocol caps are malformed.
        let mut enc = GossipDigest::default().encode().into_vec();
        enc[0] = (MAX_DIGEST_SOURCES + 1) as u8;
        assert!(GossipDigest::decode(&enc).is_err());
    }

    #[test]
    fn seen_table_notes_and_coalesces() {
        let mut t = SeenTable::new(8);
        assert!(t.note(0, 1));
        assert!(t.note(0, 2), "new id");
        assert!(!t.note(0, 1), "already known");
        assert!(t.note_range(0, r(3, 9)));
        assert!(!t.note_range(0, r(4, 8)), "covered");
        assert_eq!(t.range_count(), 1, "1..=9 coalesced into one range");
        assert!(t.contains(0, 9) && !t.contains(0, 0) && !t.contains(1, 1));
    }

    #[test]
    fn seen_table_release_below_gcs() {
        let mut t = SeenTable::new(8);
        t.note_range(0, r(0, 10));
        t.note_range(1, r(5, 5));
        t.release_below(0, 7);
        assert!(!t.contains(0, 7) && t.contains(0, 8));
        t.release_below(1, 5);
        assert!(!t.contains(1, 5));
        t.release_below(0, u64::MAX);
        assert!(t.is_empty());
    }

    #[test]
    fn seen_table_digest_roundtrips_through_wire() {
        let mut t = SeenTable::new(8);
        t.note_range(2, r(0, 3));
        t.note(5, 9);
        let d = t.digest();
        let dec = GossipDigest::decode(&d.encode()).unwrap();
        assert!(dec.contains(2, 0) && dec.contains(2, 3) && dec.contains(5, 9));
        assert!(!dec.contains(2, 4));
    }

    /// A source outside the group the table was built for gets no row.
    #[test]
    fn seen_table_refuses_sources_outside_the_group() {
        let mut t = SeenTable::new(4);
        assert!(!t.note(4, 1) && !t.note_range(u32::MAX, r(0, 9)));
        assert!(t.is_empty() && !t.contains(4, 1) && !t.contains(u32::MAX, 3));
        t.release_below(u32::MAX, 5);
        assert_eq!(t.rows.capacity(), 0, "nothing was allocated for them");
        assert!(t.note(3, 1));
    }

    /// The `BTreeMap` table the dense one replaced, kept as its oracle.
    #[derive(Default)]
    struct MapTable {
        map: std::collections::BTreeMap<u32, Vec<SeqRange>>,
    }

    impl MapTable {
        fn note_range(&mut self, src: u32, range: SeqRange) -> bool {
            if range.start > range.end {
                return false;
            }
            let ranges = self.map.entry(src).or_default();
            let covered = ranges
                .iter()
                .any(|m| m.start <= range.start && range.end <= m.end);
            ranges.push(range);
            *ranges = compact_ranges(std::mem::take(ranges));
            !covered
        }

        fn contains(&self, src: u32, seq: u64) -> bool {
            self.map
                .get(&src)
                .is_some_and(|rs| rs.iter().any(|r| r.contains(seq)))
        }

        fn release_below(&mut self, src: u32, floor: u64) {
            let Some(ranges) = self.map.get_mut(&src) else {
                return;
            };
            ranges.retain_mut(|r| {
                if r.end <= floor {
                    return false;
                }
                r.start = r.start.max(floor.saturating_add(1));
                true
            });
            if ranges.is_empty() {
                self.map.remove(&src);
            }
        }

        fn digest(&self) -> GossipDigest {
            GossipDigest {
                entries: self
                    .map
                    .iter()
                    .map(|(&src, ranges)| SourceDigest {
                        src,
                        ranges: ranges.clone(),
                    })
                    .collect(),
            }
        }
    }

    proptest::proptest! {
        /// Dense rows ≡ the map, over random histories of notes, range
        /// notes, releases and digests: the same answers and, after every
        /// step, the same digest, emptiness and range count.
        #[test]
        fn dense_seen_table_matches_the_map(
            ops in proptest::collection::vec((0u8..4, 0u32..6, 0u64..24, 0u64..6), 0..80),
        ) {
            const SOURCES: usize = 6;
            let mut dense = SeenTable::new(SOURCES);
            let mut map = MapTable::default();
            for (kind, src, a, b) in ops {
                match kind {
                    0 => proptest::prop_assert_eq!(
                        dense.note(src, a),
                        map.note_range(src, r(a, a))
                    ),
                    1 => proptest::prop_assert_eq!(
                        dense.note_range(src, r(a, a + b)),
                        map.note_range(src, r(a, a + b))
                    ),
                    2 => {
                        dense.release_below(src, a);
                        map.release_below(src, a);
                    }
                    _ => proptest::prop_assert_eq!(dense.contains(src, a), map.contains(src, a)),
                }
                proptest::prop_assert_eq!(dense.digest(), map.digest());
                proptest::prop_assert_eq!(dense.is_empty(), map.map.is_empty());
                proptest::prop_assert_eq!(
                    dense.range_count(),
                    map.map.values().map(Vec::len).sum::<usize>()
                );
            }
        }
    }
}
