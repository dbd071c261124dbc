//! Payload codecs for the SRM-style repair control messages.
//!
//! With suppression enabled (`docs/PROTOCOL.md` §8) a NACK is *multicast*
//! to the whole group instead of unicast to the awaited sender, so every
//! stuck receiver can overhear it and defer its own solicitation. The
//! datagram header still carries the solicited tag (and the requester as
//! `src_rank`), but the header alone can no longer say *whose* traffic is
//! being re-requested — that moves into the payload, together with a
//! compact encoding of the sequence ranges the requester is missing, so
//! the responder re-sends only what the requester does not already hold.
//!
//! The companion [`UnavailPayload`] answers a NACK for traffic that has
//! been evicted from the responder's retransmit ring: it advertises the
//! eviction floor (the highest tag known to be gone), letting the
//! requester surface a typed unrecoverable-loss error instead of
//! re-soliciting forever.
//!
//! The codecs are deliberately tiny, fixed little-endian layouts, read
//! through one checked cursor (`read::Reader`) — the decoders are total
//! on hostile bytes.
//!
//! Each payload decodes two ways. A *view* ([`NackView`],
//! [`AckHorizonView`]) validates the whole payload once and then reads
//! fields and ranges in place, straight off the received bytes: the
//! repair planes consume these, so a payload an endpoint only looks at —
//! an overheard NACK, a session message that changes no frontier — costs
//! no allocation. The owned `decode`s collect a view into `Vec`s; the
//! wire format is the same either way.

use bytes::{Bytes, BytesMut};

use crate::error::WireError;
use crate::member::{HeartbeatPayload, HEARTBEAT_LEN};
use crate::read::Reader;

/// `target` value naming no specific rank: an any-source solicitation —
/// every peer holding matching traffic may answer.
pub const NACK_TARGET_ANY: u32 = u32::MAX;

/// Cap on encoded missing ranges. A requester with more holes than this
/// collapses the tail into one open-ended range — the NACK payload stays
/// a bounded handful of bytes no matter how lossy the fabric was.
pub const MAX_NACK_RANGES: usize = 8;

/// An inclusive range of per-sender sequence numbers the requester has
/// not received.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeqRange {
    /// First missing sequence number.
    pub start: u64,
    /// Last missing sequence number (inclusive; `u64::MAX` = open-ended).
    pub end: u64,
}

impl SeqRange {
    /// True when `seq` falls inside this range.
    pub fn contains(&self, seq: u64) -> bool {
        self.start <= seq && seq <= self.end
    }
}

/// Decoded body of a [`crate::MsgKind::Nack`] datagram (SRM form).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NackPayload {
    /// Rank whose traffic is solicited, or [`NACK_TARGET_ANY`].
    pub target: u32,
    /// Sequence ranges (of the target's per-sender counter) the requester
    /// is missing, sorted and disjoint. Empty = "anything matching the
    /// tag" (always the case for any-source solicits).
    pub missing: Vec<SeqRange>,
}

/// Wire size of the fixed payload prefix (target + range count).
const NACK_FIXED: usize = 6;
/// Wire size of one encoded range.
const RANGE_LEN: usize = 16;

impl NackPayload {
    /// A solicitation addressed to one rank with no range information.
    pub fn addressed_to(target: u32) -> Self {
        NackPayload {
            target,
            missing: Vec::new(),
        }
    }

    /// True when the requester's missing set covers `seq` (an empty set
    /// covers everything — no information means "send all matches").
    pub fn covers(&self, seq: u64) -> bool {
        self.missing.is_empty() || self.missing.iter().any(|r| r.contains(seq))
    }

    /// Encode into a fresh payload buffer. Ranges beyond
    /// [`MAX_NACK_RANGES`] are collapsed into a final open-ended range.
    pub fn encode(&self) -> Bytes {
        let mut ranges: Vec<SeqRange> = self.missing.clone();
        if ranges.len() > MAX_NACK_RANGES {
            let tail_start = ranges[MAX_NACK_RANGES - 1].start;
            ranges.truncate(MAX_NACK_RANGES - 1);
            ranges.push(SeqRange {
                start: tail_start,
                end: u64::MAX,
            });
        }
        let mut buf = BytesMut::with_capacity(NACK_FIXED + ranges.len() * RANGE_LEN);
        buf.extend_from_slice(&self.target.to_le_bytes());
        buf.extend_from_slice(&(ranges.len() as u16).to_le_bytes());
        for r in &ranges {
            buf.extend_from_slice(&r.start.to_le_bytes());
            buf.extend_from_slice(&r.end.to_le_bytes());
        }
        buf.freeze()
    }

    /// Decode a NACK payload: [`NackView::parse`], collected.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let view = NackView::parse(bytes)?;
        Ok(NackPayload {
            target: view.target,
            missing: view.missing.to_vec(),
        })
    }
}

/// A run of encoded [`SeqRange`]s inside a received payload. Only a
/// view's `parse` makes one, after checking the count in front of the run
/// against its protocol cap and the bytes present, so reading it cannot
/// fail.
#[derive(Clone, Copy, Debug)]
pub struct RangesView<'a> {
    /// Exactly `len() * RANGE_LEN` bytes.
    bytes: &'a [u8],
}

impl<'a> RangesView<'a> {
    /// Read a count-prefixed run: `count` (at most `cap`) encoded ranges.
    pub(crate) fn read(r: &mut Reader<'a>, count: usize, cap: usize) -> Result<Self, WireError> {
        r.counted(count, cap, RANGE_LEN)?;
        Ok(RangesView {
            bytes: r.bytes(count * RANGE_LEN)?,
        })
    }

    /// Number of ranges in the run.
    pub fn len(&self) -> usize {
        self.bytes.len() / RANGE_LEN
    }

    /// True when the run holds no range.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The ranges, decoded one at a time off the payload bytes.
    pub fn iter(&self) -> RangeIter<'a> {
        RangeIter(self.bytes.chunks_exact(RANGE_LEN))
    }

    /// The ranges as an owned list.
    pub fn to_vec(&self) -> Vec<SeqRange> {
        self.bytes.chunks_exact(RANGE_LEN).map(range_of).collect()
    }

    /// True when the run is exactly `ranges`, in order.
    pub fn eq_ranges(&self, ranges: &[SeqRange]) -> bool {
        self.len() == ranges.len() && self.iter().eq(ranges.iter().copied())
    }
}

/// Decode one `RANGE_LEN`-byte entry of a validated run.
fn range_of(entry: &[u8]) -> SeqRange {
    let mut r = Reader::new(entry);
    SeqRange {
        start: r.u64().unwrap_or_default(),
        end: r.u64().unwrap_or_default(),
    }
}

impl<'a> IntoIterator for RangesView<'a> {
    type Item = SeqRange;
    type IntoIter = RangeIter<'a>;
    fn into_iter(self) -> RangeIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`RangesView`].
#[derive(Clone, Debug)]
pub struct RangeIter<'a>(std::slice::ChunksExact<'a, u8>);

impl Iterator for RangeIter<'_> {
    type Item = SeqRange;

    fn next(&mut self) -> Option<SeqRange> {
        self.0.next().map(range_of)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for RangeIter<'_> {}

/// A [`crate::MsgKind::Nack`] payload read in place: what
/// [`NackPayload::decode`] returns, minus the `Vec`.
#[derive(Clone, Copy, Debug)]
pub struct NackView<'a> {
    /// Rank whose traffic is solicited, or [`NACK_TARGET_ANY`].
    pub target: u32,
    /// The requester's missing ranges ([`NackPayload::missing`]).
    pub missing: RangesView<'a>,
}

impl<'a> NackView<'a> {
    /// Validate a NACK payload and view it.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let target = r.u32()?;
        let count = r.u16()? as usize;
        let missing = RangesView::read(&mut r, count, MAX_NACK_RANGES)?;
        Ok(NackView { target, missing })
    }

    /// [`NackPayload::covers`].
    pub fn covers(&self, seq: u64) -> bool {
        self.missing.is_empty() || self.missing.iter().any(|r| r.contains(seq))
    }
}

/// Decoded body of a [`crate::MsgKind::Unavail`] datagram: the responder's
/// eviction-floor advertisement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnavailPayload {
    /// Highest tag among the records evicted from the responder's
    /// retransmit ring: traffic tagged at or below this can never be
    /// re-sent. (Sound because the collective layer issues nondecreasing
    /// tags per sender — see `RetransmitBuffer::evicted_tag_max`.)
    pub tag_floor: u32,
}

impl UnavailPayload {
    /// Encode into a fresh payload buffer.
    pub fn encode(&self) -> Bytes {
        Bytes::copy_from_slice(&self.tag_floor.to_le_bytes())
    }

    /// Decode an Unavail payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        Ok(UnavailPayload {
            tag_floor: Reader::new(bytes).u32()?,
        })
    }
}

/// Cap on timestamp echoes carried by one ACK-horizon message.
pub const MAX_HORIZON_ECHOES: usize = 16;
/// Cap on per-source frontier entries carried by one ACK-horizon message.
pub const MAX_HORIZON_ACKS: usize = 32;
/// Cap on encoded holes per frontier entry. More holes than this collapse
/// into one open-ended range — conservative in the safe direction (a
/// collapsed hole keeps the sender from freeing, never frees too much).
pub const MAX_HORIZON_HOLES: usize = 4;

/// One timestamp echo inside an [`AckHorizonPayload`]: "peer, I heard
/// your probe stamped `ts` and sat on it for `hold_ns` before answering".
/// The probing peer computes `rtt = now - ts - hold_ns` on its own clock,
/// so no clock synchronization between hosts is needed (SRM session
/// messages use the same trick).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HorizonEcho {
    /// Rank whose probe timestamp is being echoed.
    pub peer: u32,
    /// That peer's probe timestamp, returned verbatim (its clock).
    pub ts: u64,
    /// Nanoseconds this endpoint held the timestamp before echoing.
    pub hold_ns: u64,
}

/// One per-source delivery frontier inside an [`AckHorizonPayload`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceHorizon {
    /// The sender whose traffic this frontier describes.
    pub src: u32,
    /// Highest sequence number received from `src` (high-water mark).
    pub hwm: u64,
    /// Holes at or below `hwm` still outstanding, sorted and disjoint.
    /// May be conservatively over-wide (see [`MAX_HORIZON_HOLES`]).
    pub missing: Vec<SeqRange>,
}

impl SourceHorizon {
    /// True when this frontier acknowledges `seq`: at or below the
    /// high-water mark and not inside a hole. Unlike
    /// [`NackPayload::covers`], an empty `missing` set here means *no
    /// holes* — everything up to `hwm` is acknowledged.
    pub fn acks(&self, seq: u64) -> bool {
        seq <= self.hwm && !self.missing.iter().any(|r| r.contains(seq))
    }
}

/// Decoded body of a [`crate::MsgKind::AckHorizon`] datagram: the
/// receiver-driven session message that closes the repair loop. It serves
/// two consumers at once — retransmit-ring garbage collection (the
/// frontiers say what every peer already holds) and per-peer RTT
/// estimation (the probe/echo pair).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AckHorizonPayload {
    /// This endpoint's clock when the message was built; peers echo it
    /// back (with their hold time) so this endpoint can measure RTT.
    pub probe_ts: u64,
    /// Echoes of peers' recent probe timestamps.
    pub echoes: Vec<HorizonEcho>,
    /// Per-source delivery frontiers observed by this endpoint.
    pub acks: Vec<SourceHorizon>,
    /// Optional liveness trailer (`docs/PROTOCOL.md` §10): with membership
    /// enabled the heartbeat piggybacks on the session cadence instead of
    /// spending its own datagrams. `None` encodes zero extra bytes, so a
    /// membership-off endpoint's horizons stay byte-identical; decoders
    /// that predate the trailer simply ignore it.
    pub member: Option<HeartbeatPayload>,
}

/// Wire size of the fixed ACK-horizon prefix (probe_ts + two counts).
const HORIZON_FIXED: usize = 12;
/// Wire size of one encoded echo.
const ECHO_LEN: usize = 20;
/// Wire size of one frontier entry's fixed part (src + hwm + hole count).
const ACK_FIXED: usize = 14;

impl AckHorizonPayload {
    /// Encode into a fresh payload buffer. Echo/ack entries beyond their
    /// caps are dropped (stale echoes and extra frontiers are re-sent on
    /// the next period); holes beyond [`MAX_HORIZON_HOLES`] collapse into
    /// an open-ended range, which can only under-acknowledge.
    pub fn encode(&self) -> Bytes {
        let echoes = &self.echoes[..self.echoes.len().min(MAX_HORIZON_ECHOES)];
        let acks = &self.acks[..self.acks.len().min(MAX_HORIZON_ACKS)];
        let mut buf = BytesMut::with_capacity(
            HORIZON_FIXED
                + echoes.len() * ECHO_LEN
                + acks.len() * (ACK_FIXED + MAX_HORIZON_HOLES * RANGE_LEN),
        );
        buf.extend_from_slice(&self.probe_ts.to_le_bytes());
        buf.extend_from_slice(&(echoes.len() as u16).to_le_bytes());
        buf.extend_from_slice(&(acks.len() as u16).to_le_bytes());
        for e in echoes {
            buf.extend_from_slice(&e.peer.to_le_bytes());
            buf.extend_from_slice(&e.ts.to_le_bytes());
            buf.extend_from_slice(&e.hold_ns.to_le_bytes());
        }
        for a in acks {
            let mut holes: Vec<SeqRange> = a.missing.clone();
            if holes.len() > MAX_HORIZON_HOLES {
                let tail_start = holes[MAX_HORIZON_HOLES - 1].start;
                holes.truncate(MAX_HORIZON_HOLES - 1);
                holes.push(SeqRange {
                    start: tail_start,
                    end: u64::MAX,
                });
            }
            buf.extend_from_slice(&a.src.to_le_bytes());
            buf.extend_from_slice(&a.hwm.to_le_bytes());
            buf.extend_from_slice(&(holes.len() as u16).to_le_bytes());
            for r in &holes {
                buf.extend_from_slice(&r.start.to_le_bytes());
                buf.extend_from_slice(&r.end.to_le_bytes());
            }
        }
        if let Some(hb) = &self.member {
            buf.extend_from_slice(&hb.encode_array());
        }
        buf.freeze()
    }

    /// Decode an ACK-horizon payload: the [`AckHorizonView`] of it,
    /// collected — the frontiers during the view's one validating walk.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut acks = Vec::with_capacity(MAX_HORIZON_ACKS);
        let view = AckHorizonView::walk(bytes, |ack| acks.push(ack.to_owned()))?;
        Ok(AckHorizonPayload {
            probe_ts: view.probe_ts,
            echoes: view.echoes().collect(),
            acks,
            member: view.member,
        })
    }
}

/// One frontier entry of an [`AckHorizonView`]: a [`SourceHorizon`] whose
/// holes are still on the wire.
#[derive(Clone, Copy, Debug)]
pub struct SourceHorizonView<'a> {
    /// The sender whose traffic this frontier describes.
    pub src: u32,
    /// Highest sequence number received from `src`.
    pub hwm: u64,
    /// Holes at or below `hwm` ([`SourceHorizon::missing`]).
    pub missing: RangesView<'a>,
}

impl SourceHorizonView<'_> {
    /// The frontier as an owned [`SourceHorizon`]. One with holes gets
    /// room for every hole a frontier can carry, so that a stored one is
    /// overwritten in place ([`SourceHorizonView::store_into`]) for good.
    pub fn to_owned(&self) -> SourceHorizon {
        let mut missing = Vec::new();
        if !self.missing.is_empty() {
            missing.reserve_exact(MAX_HORIZON_HOLES);
            missing.extend(self.missing);
        }
        SourceHorizon {
            src: self.src,
            hwm: self.hwm,
            missing,
        }
    }

    /// True when `stored` is this frontier (same high-water mark, same
    /// holes; the source is the caller's key).
    pub fn same_as(&self, stored: &SourceHorizon) -> bool {
        self.hwm == stored.hwm && self.missing.eq_ranges(&stored.missing)
    }

    /// Overwrite `stored` with this frontier, reusing its hole buffer.
    pub fn store_into(&self, stored: &mut SourceHorizon) {
        stored.src = self.src;
        stored.hwm = self.hwm;
        stored.missing.clear();
        stored.missing.extend(self.missing);
    }
}

/// A [`crate::MsgKind::AckHorizon`] payload read in place. `parse` walks
/// and validates every entry once; the accessors then read the echoes and
/// frontiers off the payload bytes.
#[derive(Clone, Copy, Debug)]
pub struct AckHorizonView<'a> {
    /// The sender's clock when the message was built.
    pub probe_ts: u64,
    /// Optional liveness trailer ([`AckHorizonPayload::member`]).
    pub member: Option<HeartbeatPayload>,
    /// `echo count * ECHO_LEN` bytes.
    echoes: &'a [u8],
    ack_count: usize,
    /// The frontier entries, each `ACK_FIXED` bytes plus its holes.
    acks: &'a [u8],
}

impl<'a> AckHorizonView<'a> {
    /// Validate an ACK-horizon payload and view it.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, WireError> {
        Self::walk(bytes, |_| ())
    }

    /// [`AckHorizonView::parse`], showing `each_ack` every frontier entry
    /// as the walk validates it.
    fn walk(
        bytes: &'a [u8],
        mut each_ack: impl FnMut(SourceHorizonView<'a>),
    ) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let probe_ts = r.u64()?;
        let echo_count = r.u16()? as usize;
        let ack_count = r.u16()? as usize;
        r.counted(echo_count, MAX_HORIZON_ECHOES, ECHO_LEN)?;
        let echoes = r.bytes(echo_count * ECHO_LEN)?;
        r.counted(ack_count, MAX_HORIZON_ACKS, ACK_FIXED)?;
        let acks_from = r.rest();
        for _ in 0..ack_count {
            each_ack(read_ack(&mut r)?);
        }
        let acks = acks_from
            .get(..acks_from.len() - r.rest().len())
            .unwrap_or_default();
        let member = if r.rest().len() >= HEARTBEAT_LEN {
            Some(HeartbeatPayload::decode(r.rest())?)
        } else {
            None
        };
        Ok(AckHorizonView {
            probe_ts,
            member,
            echoes,
            ack_count,
            acks,
        })
    }

    /// Echoes of peers' recent probe timestamps.
    pub fn echoes(&self) -> EchoIter<'a> {
        EchoIter(Reader::new(self.echoes))
    }

    /// Per-source delivery frontiers, in wire order.
    pub fn acks(&self) -> AckIter<'a> {
        AckIter {
            r: Reader::new(self.acks),
            left: self.ack_count,
        }
    }
}

/// Iterator over the echoes of an [`AckHorizonView`].
#[derive(Clone, Debug)]
pub struct EchoIter<'a>(Reader<'a>);

impl Iterator for EchoIter<'_> {
    type Item = HorizonEcho;

    fn next(&mut self) -> Option<HorizonEcho> {
        Some(HorizonEcho {
            peer: self.0.u32().ok()?,
            ts: self.0.u64().ok()?,
            hold_ns: self.0.u64().ok()?,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.0.rest().len() / ECHO_LEN;
        (left, Some(left))
    }
}

impl ExactSizeIterator for EchoIter<'_> {}

/// Iterator over the frontier entries of an [`AckHorizonView`].
#[derive(Clone, Debug)]
pub struct AckIter<'a> {
    r: Reader<'a>,
    left: usize,
}

impl<'a> Iterator for AckIter<'a> {
    type Item = SourceHorizonView<'a>;

    fn next(&mut self) -> Option<SourceHorizonView<'a>> {
        self.left = self.left.checked_sub(1)?;
        read_ack(&mut self.r).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for AckIter<'_> {}

/// Read one frontier entry.
fn read_ack<'a>(r: &mut Reader<'a>) -> Result<SourceHorizonView<'a>, WireError> {
    let src = r.u32()?;
    let hwm = r.u64()?;
    let holes = r.u16()? as usize;
    let missing = RangesView::read(r, holes, MAX_HORIZON_HOLES)?;
    Ok(SourceHorizonView { src, hwm, missing })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_ranges() {
        let p = NackPayload {
            target: 3,
            missing: vec![
                SeqRange { start: 2, end: 4 },
                SeqRange {
                    start: 9,
                    end: u64::MAX,
                },
            ],
        };
        let enc = p.encode();
        assert_eq!(NackPayload::decode(&enc).unwrap(), p);
    }

    #[test]
    fn roundtrip_any_target_no_ranges() {
        let p = NackPayload::addressed_to(NACK_TARGET_ANY);
        let enc = p.encode();
        let dec = NackPayload::decode(&enc).unwrap();
        assert_eq!(dec.target, NACK_TARGET_ANY);
        assert!(dec.missing.is_empty());
        assert!(dec.covers(0) && dec.covers(u64::MAX));
    }

    #[test]
    fn covers_respects_ranges() {
        let p = NackPayload {
            target: 0,
            missing: vec![SeqRange { start: 5, end: 7 }],
        };
        assert!(!p.covers(4));
        assert!(p.covers(5) && p.covers(7));
        assert!(!p.covers(8));
    }

    #[test]
    fn encode_caps_ranges_with_open_tail() {
        let missing: Vec<SeqRange> = (0..20)
            .map(|i| SeqRange {
                start: i * 10,
                end: i * 10 + 1,
            })
            .collect();
        let p = NackPayload { target: 1, missing };
        let dec = NackPayload::decode(&p.encode()).unwrap();
        assert_eq!(dec.missing.len(), MAX_NACK_RANGES);
        assert_eq!(dec.missing.last().unwrap().end, u64::MAX);
        // Everything the original ranges covered is still covered.
        for r in &p.missing {
            assert!(dec.covers(r.start), "seq {} lost by capping", r.start);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(NackPayload::decode(&[1, 2, 3]).is_err());
        // Claimed count larger than the bytes present.
        let mut short = NackPayload::addressed_to(0).encode().into_vec();
        short[4] = 5;
        assert!(NackPayload::decode(&short).is_err());
    }

    #[test]
    fn unavail_roundtrip() {
        let u = UnavailPayload { tag_floor: 0xBEEF };
        assert_eq!(UnavailPayload::decode(&u.encode()).unwrap(), u);
        assert!(UnavailPayload::decode(&[1]).is_err());
    }

    #[test]
    fn horizon_roundtrip() {
        let p = AckHorizonPayload {
            probe_ts: 42_000,
            echoes: vec![
                HorizonEcho {
                    peer: 1,
                    ts: 7,
                    hold_ns: 900,
                },
                HorizonEcho {
                    peer: 3,
                    ts: 11,
                    hold_ns: 0,
                },
            ],
            acks: vec![
                SourceHorizon {
                    src: 0,
                    hwm: 99,
                    missing: vec![SeqRange { start: 5, end: 7 }],
                },
                SourceHorizon {
                    src: 2,
                    hwm: 3,
                    missing: Vec::new(),
                },
            ],
            member: None,
        };
        assert_eq!(AckHorizonPayload::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn horizon_member_trailer_roundtrip() {
        let mut p = AckHorizonPayload {
            probe_ts: 5,
            echoes: vec![HorizonEcho {
                peer: 2,
                ts: 1,
                hold_ns: 0,
            }],
            acks: vec![SourceHorizon {
                src: 0,
                hwm: 9,
                missing: vec![SeqRange { start: 3, end: 4 }],
            }],
            member: None,
        };
        let bare = p.encode();
        p.member = Some(HeartbeatPayload {
            epoch: 4,
            incarnation: 1,
        });
        let with = p.encode();
        // The trailer costs exactly HEARTBEAT_LEN bytes; None adds none,
        // so membership-off traffic is byte-identical to the old codec.
        assert_eq!(with.len(), bare.len() + HEARTBEAT_LEN);
        assert_eq!(&with[..bare.len()], &bare[..]);
        assert_eq!(AckHorizonPayload::decode(&with).unwrap(), p);
        // A trailer-unaware decode of the bare form sees member: None.
        assert_eq!(AckHorizonPayload::decode(&bare).unwrap().member, None);
    }

    #[test]
    fn horizon_acks_respects_hwm_and_holes() {
        let h = SourceHorizon {
            src: 0,
            hwm: 10,
            missing: vec![SeqRange { start: 4, end: 5 }],
        };
        assert!(h.acks(0) && h.acks(3) && h.acks(6) && h.acks(10));
        assert!(!h.acks(4) && !h.acks(5), "holes are not acknowledged");
        assert!(!h.acks(11), "beyond the high-water mark");
        let no_holes = SourceHorizon {
            src: 1,
            hwm: 2,
            missing: Vec::new(),
        };
        assert!(
            no_holes.acks(0) && no_holes.acks(2),
            "empty missing means no holes, unlike NackPayload::covers"
        );
    }

    #[test]
    fn horizon_encode_caps_holes_conservatively() {
        let missing: Vec<SeqRange> = (0..12)
            .map(|i| SeqRange {
                start: i * 10,
                end: i * 10 + 1,
            })
            .collect();
        let p = AckHorizonPayload {
            probe_ts: 0,
            echoes: Vec::new(),
            acks: vec![SourceHorizon {
                src: 7,
                hwm: 1_000,
                missing: missing.clone(),
            }],
            member: None,
        };
        let dec = AckHorizonPayload::decode(&p.encode()).unwrap();
        let a = &dec.acks[0];
        assert_eq!(a.missing.len(), MAX_HORIZON_HOLES);
        assert_eq!(a.missing.last().unwrap().end, u64::MAX);
        // Capping may withhold acknowledgement but never grants one the
        // uncapped frontier would not have granted.
        let full = SourceHorizon {
            src: 7,
            hwm: 1_000,
            missing,
        };
        for seq in 0..=1_001 {
            assert!(!a.acks(seq) || full.acks(seq), "seq {seq} over-acked");
        }
    }

    #[test]
    fn horizon_decode_rejects_garbage() {
        assert!(AckHorizonPayload::decode(&[0u8; 4]).is_err());
        // Claimed echo count larger than the bytes present.
        let p = AckHorizonPayload {
            probe_ts: 1,
            echoes: Vec::new(),
            acks: Vec::new(),
            member: None,
        };
        let mut enc = p.encode().into_vec();
        enc[8] = 3;
        assert!(AckHorizonPayload::decode(&enc).is_err());
        // Counts beyond the protocol caps are malformed.
        enc[8] = (MAX_HORIZON_ECHOES + 1) as u8;
        assert!(AckHorizonPayload::decode(&enc).is_err());
    }
}
