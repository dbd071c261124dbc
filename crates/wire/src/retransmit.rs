//! Sender-side retransmission ring buffer and repair-loop counters.
//!
//! The collectives send over an *unreliable* fabric: a multicast (or
//! unicast) datagram may never arrive. Recovery is **receiver-driven**: a
//! receiver that has been blocked on `(src, tag)` longer than the repair
//! timeout sends a [`MsgKind::Nack`] carrying the awaited tag; the sender
//! answers out of its [`RetransmitBuffer`] — a bounded ring of the last
//! `capacity` messages it sent — by re-sending, *unicast to the
//! requester*, every buffered message the requester could legitimately
//! match (original multicasts, plus unicasts that were addressed to it).
//! Retransmissions reuse the original sequence number, so receivers that
//! already have the message drop the copy in their dedup layer.
//!
//! The ring stores the **already-encoded** [`Datagram`]s of each message
//! — cheap [`bytes::Bytes`] views of the original send's header buffer
//! and payload, so recording costs a handful of reference-count bumps
//! (never a payload copy) and a NACK answer re-sends the very same
//! buffers. When a record is evicted its views drop, releasing the
//! underlying message memory.
//!
//! The buffer is deliberately dumb: no per-receiver ack state, no timers.
//! All policy (when to NACK, how long to keep draining) lives in the
//! transport's repair loop; see `docs/PROTOCOL.md` at the repository root
//! for the full state machine and a worked lost-fragment timeline.

use std::collections::VecDeque;

use crate::assemble::Datagram;
use crate::header::MsgKind;

/// Default retransmission ring capacity (messages, not bytes). Collective
/// protocols re-request only recent traffic; 512 comfortably covers many
/// in-flight collectives at the paper's scales.
pub const DEFAULT_RETRANSMIT_CAP: usize = 512;

/// Where a recorded message was originally addressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendDst {
    /// Unicast to one rank.
    Rank(u32),
    /// Multicast to the communicator's group.
    Multicast,
}

/// One sent message, as remembered for possible retransmission.
#[derive(Clone, Debug)]
pub struct SentRecord {
    /// The sequence number the message went out with (reused on resend).
    pub seq: u64,
    /// Original destination.
    pub dst: SendDst,
    /// Wire tag.
    pub tag: u32,
    /// Message kind.
    pub kind: MsgKind,
    /// The encoded wire datagrams of the original send (shared views —
    /// re-sending clones handles, not bytes).
    pub datagrams: Vec<Datagram>,
}

impl SentRecord {
    /// True if `requester` could legitimately match this message: it was
    /// multicast, or unicast to the requester. Unicasts addressed to
    /// *other* ranks are never replayed to a requester — that would leak
    /// another rank's point-to-point payload into the wrong inbox.
    pub fn matches(&self, requester: u32, tag: u32) -> bool {
        self.tag == tag
            && match self.dst {
                SendDst::Multicast => true,
                SendDst::Rank(r) => r == requester,
            }
    }
}

/// Bounded ring of recently sent messages, keyed by send order.
///
/// `record` on every send, `matching` on every received NACK. When the
/// ring overflows, the oldest record is evicted; a NACK for evicted
/// traffic goes unanswered (and `evicted()` tells you it happened — size
/// the ring up if a workload ever trips this).
#[derive(Debug)]
pub struct RetransmitBuffer {
    ring: VecDeque<SentRecord>,
    cap: usize,
    evicted: u64,
    evicted_tag_max: Option<u32>,
    evicted_seq_max: Option<u64>,
    acked_freed: u64,
    data_bytes: usize,
}

impl RetransmitBuffer {
    /// A ring holding at most `capacity` messages.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "retransmit buffer needs room for one message");
        RetransmitBuffer {
            ring: VecDeque::with_capacity(capacity.min(64)),
            cap: capacity,
            evicted: 0,
            evicted_tag_max: None,
            evicted_seq_max: None,
            acked_freed: 0,
            data_bytes: 0,
        }
    }

    /// Wire bytes of one record's `Data` payload, as charged against the
    /// send window (control traffic is never charged).
    fn charged_bytes(rec: &SentRecord) -> usize {
        if rec.kind == MsgKind::Data {
            rec.datagrams.iter().map(|d| d.len()).sum()
        } else {
            0
        }
    }

    /// Remember a sent message as its already-encoded datagrams (clones
    /// the `Bytes` handles only). NACKs themselves are not recorded (the
    /// repair loop must never retransmit repair traffic).
    pub fn record(
        &mut self,
        seq: u64,
        dst: SendDst,
        tag: u32,
        kind: MsgKind,
        datagrams: &[Datagram],
    ) {
        if kind == MsgKind::Nack {
            return;
        }
        if self.ring.len() == self.cap {
            if let Some(old) = self.ring.pop_front() {
                self.evicted += 1;
                self.evicted_tag_max =
                    Some(self.evicted_tag_max.map_or(old.tag, |m| m.max(old.tag)));
                self.evicted_seq_max =
                    Some(self.evicted_seq_max.map_or(old.seq, |m| m.max(old.seq)));
                self.data_bytes -= Self::charged_bytes(&old);
            }
        }
        let rec = SentRecord {
            seq,
            dst,
            tag,
            kind,
            datagrams: datagrams.to_vec(),
        };
        self.data_bytes += Self::charged_bytes(&rec);
        self.ring.push_back(rec);
    }

    /// Garbage-collect acknowledged history: pop records off the *front*
    /// of the ring while `acked` says every relevant peer has the
    /// message, returning how many were freed. Front-only freeing keeps
    /// the ring's send-order invariants (oldest-first replay, eviction
    /// floors monotone); an acknowledged record stuck behind an
    /// unacknowledged older one is simply retained until the head clears
    /// — conservative, never wrong.
    ///
    /// Unlike capacity eviction this does **not** advance
    /// `evicted_tag_max` / `evicted_seq_max`: an acknowledged message was
    /// *delivered*, so freeing it must not teach the `Unavail` path to
    /// declare its tag unrecoverable.
    pub fn release_acked(&mut self, mut acked: impl FnMut(&SentRecord) -> bool) -> u64 {
        let mut freed = 0;
        while self.ring.front().is_some_and(&mut acked) {
            let Some(old) = self.ring.pop_front() else {
                break;
            };
            self.data_bytes -= Self::charged_bytes(&old);
            freed += 1;
        }
        self.acked_freed += freed;
        freed
    }

    /// Records freed by ACK-horizon garbage collection so far.
    pub fn acked_freed(&self) -> u64 {
        self.acked_freed
    }

    /// Wire bytes of `Data` traffic currently held in the ring — the
    /// sender's unacknowledged-bytes figure for send-window back-pressure
    /// (repair/control kinds are never charged, so repair traffic can
    /// always flow even when the window is closed).
    pub fn data_bytes(&self) -> usize {
        self.data_bytes
    }

    /// Every buffered message `requester` could match on `tag`, oldest
    /// first (so a multi-message tag replays in the original order).
    pub fn matching(&self, requester: u32, tag: u32) -> impl Iterator<Item = &SentRecord> {
        self.ring.iter().filter(move |r| r.matches(requester, tag))
    }

    /// The record sent under `seq`, if still buffered. Seqs are unique
    /// per sender, so this is the gossip plane's `Want`-answer lookup:
    /// a pull names an exact `(src, seq)` id rather than a tag.
    pub fn find_seq(&self, seq: u64) -> Option<&SentRecord> {
        self.ring.iter().find(|r| r.seq == seq)
    }

    /// Messages currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records evicted by ring overflow so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The eviction floor: the highest tag among evicted records, if any
    /// were evicted. Because every sender issues tags in nondecreasing
    /// order (collective op-sequence numbers dominate the tag layout) and
    /// the ring evicts in send order, a NACK whose tag is at or below
    /// this floor names traffic that is *permanently* unanswerable — the
    /// responder advertises it with a `MsgKind::Unavail` so the requester
    /// can fail fast instead of re-soliciting forever.
    pub fn evicted_tag_max(&self) -> Option<u32> {
        self.evicted_tag_max
    }

    /// The eviction horizon in sequence space: the highest seq among
    /// evicted records (seqs are allocated in send order, so this is the
    /// seq of the most recently evicted record). A requester whose
    /// missing-range advertisement reaches at or below this horizon may
    /// be asking for a message that is gone even while *newer* records
    /// with the same tag are still retained.
    pub fn evicted_seq_max(&self) -> Option<u64> {
        self.evicted_seq_max
    }
}

impl Default for RetransmitBuffer {
    fn default() -> Self {
        RetransmitBuffer::new(DEFAULT_RETRANSMIT_CAP)
    }
}

/// Counters kept by a transport's repair loop (per endpoint; summed into
/// the run-level `WorldStats` by the harness).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// NACKs this endpoint sent (timeout-driven solicitations).
    pub nacks_sent: u64,
    /// NACKs this endpoint received and serviced (addressed to it).
    pub nacks_received: u64,
    /// Messages re-sent out of the retransmit buffer.
    pub retransmits_sent: u64,
    /// NACKs that matched nothing in the buffer (evicted or never ours).
    pub unanswered_nacks: u64,
    /// Solicitations this endpoint *suppressed*: its deadline expired but
    /// a peer's overheard NACK for the same traffic was recent enough
    /// that re-soliciting would be redundant (SRM suppression).
    pub nacks_suppressed: u64,
    /// Multicast NACKs overheard that were addressed to another rank —
    /// the suppression signal fan-in.
    pub nacks_overheard: u64,
    /// Retransmissions *not* re-sent because the same message was already
    /// multicast-repaired within the responder's suppression window.
    pub repairs_suppressed: u64,
    /// `Unavail` answers sent for NACKs naming ring-evicted traffic.
    pub unavailable_sent: u64,
    /// ACK-horizon session messages this endpoint sent.
    pub horizons_sent: u64,
    /// ACK-horizon session messages this endpoint received and applied.
    pub horizons_received: u64,
    /// Retransmit-ring records freed by ACK-horizon garbage collection
    /// (as opposed to capacity eviction).
    pub acked_records_freed: u64,
    /// Per-peer RTT samples folded into the adaptive-timer estimators.
    pub rtt_samples: u64,
    /// Times a send stalled (or reported `WouldBlock`) on the send
    /// window waiting for peers' horizons to advance.
    pub send_window_stalls: u64,
    /// Standalone liveness heartbeats this endpoint multicast (only while
    /// its data/session traffic was quiet — piggybacked beacons ride the
    /// horizon counter instead).
    pub heartbeats_sent: u64,
    /// Suspicion episodes opened: a peer went silent past the adaptive
    /// bound. Counted once per episode; cleared suspicions don't repeat.
    pub suspicions: u64,
    /// Peers this endpoint itself confirmed dead (suspicion ran through
    /// the confirmation misses). Failures adopted from peers' announce
    /// floods are not re-counted.
    pub failures_confirmed: u64,
    /// Gossip advertisements (`MsgKind::Advr`) this endpoint sent — one
    /// per (peer, digest) lazy-push cycle under the gossip dissemination
    /// plane; always zero under multicast.
    pub advrs_sent: u64,
    /// Gossip pull requests (`MsgKind::Want`) this endpoint sent for
    /// advertised ids it was missing.
    pub wants_sent: u64,
    /// `Want` requests this endpoint answered with a unicast payload out
    /// of its retransmit ring or relay store.
    pub pulls_answered: u64,
    /// Advertised ids this endpoint declined to pull because it already
    /// held the payload — the epidemic plane's duplicate-suppression win
    /// (each skipped pull is a payload that did not cross the link again).
    pub duplicate_payloads_avoided: u64,
    /// Control messages (`Nack`, `AckHorizon`, `Advr`, `Want`) a plane
    /// dropped at ingest: a payload that does not decode, or a sender
    /// rank outside the group. Stray or hostile traffic on a real port;
    /// always zero on the closed simulated fabric.
    pub malformed_dropped: u64,
    /// Messages dropped for carrying another communicator's context
    /// (the inbox's count, folded into the endpoint's snapshot).
    pub foreign_dropped: u64,
    /// Highest membership epoch this endpoint committed (merged by max —
    /// an epoch is a water mark, not a count).
    pub epoch: u64,
}

impl std::fmt::Debug for RepairStats {
    /// The derived rendering — with the two drop counters shown only when
    /// they counted something. The recorded replay fingerprints
    /// (`tests/determinism.rs`) hash this rendering of lossy simulated
    /// runs, where nothing is ever malformed or foreign: such a run must
    /// go on rendering exactly as it did before the counters existed.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("RepairStats");
        s.field("nacks_sent", &self.nacks_sent)
            .field("nacks_received", &self.nacks_received)
            .field("retransmits_sent", &self.retransmits_sent)
            .field("unanswered_nacks", &self.unanswered_nacks)
            .field("nacks_suppressed", &self.nacks_suppressed)
            .field("nacks_overheard", &self.nacks_overheard)
            .field("repairs_suppressed", &self.repairs_suppressed)
            .field("unavailable_sent", &self.unavailable_sent)
            .field("horizons_sent", &self.horizons_sent)
            .field("horizons_received", &self.horizons_received)
            .field("acked_records_freed", &self.acked_records_freed)
            .field("rtt_samples", &self.rtt_samples)
            .field("send_window_stalls", &self.send_window_stalls)
            .field("heartbeats_sent", &self.heartbeats_sent)
            .field("suspicions", &self.suspicions)
            .field("failures_confirmed", &self.failures_confirmed)
            .field("advrs_sent", &self.advrs_sent)
            .field("wants_sent", &self.wants_sent)
            .field("pulls_answered", &self.pulls_answered)
            .field(
                "duplicate_payloads_avoided",
                &self.duplicate_payloads_avoided,
            );
        if self.malformed_dropped != 0 {
            s.field("malformed_dropped", &self.malformed_dropped);
        }
        if self.foreign_dropped != 0 {
            s.field("foreign_dropped", &self.foreign_dropped);
        }
        s.field("epoch", &self.epoch).finish()
    }
}

impl RepairStats {
    /// Accumulate another endpoint's counters into this one.
    pub fn merge(&mut self, other: &RepairStats) {
        self.nacks_sent += other.nacks_sent;
        self.nacks_received += other.nacks_received;
        self.retransmits_sent += other.retransmits_sent;
        self.unanswered_nacks += other.unanswered_nacks;
        self.nacks_suppressed += other.nacks_suppressed;
        self.nacks_overheard += other.nacks_overheard;
        self.repairs_suppressed += other.repairs_suppressed;
        self.unavailable_sent += other.unavailable_sent;
        self.horizons_sent += other.horizons_sent;
        self.horizons_received += other.horizons_received;
        self.acked_records_freed += other.acked_records_freed;
        self.rtt_samples += other.rtt_samples;
        self.send_window_stalls += other.send_window_stalls;
        self.heartbeats_sent += other.heartbeats_sent;
        self.suspicions += other.suspicions;
        self.failures_confirmed += other.failures_confirmed;
        self.advrs_sent += other.advrs_sent;
        self.wants_sent += other.wants_sent;
        self.pulls_answered += other.pulls_answered;
        self.duplicate_payloads_avoided += other.duplicate_payloads_avoided;
        self.malformed_dropped += other.malformed_dropped;
        self.foreign_dropped += other.foreign_dropped;
        self.epoch = self.epoch.max(other.epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::split_message;
    use bytes::Bytes;

    fn dgs(kind: MsgKind, tag: u32, seq: u64, payload: &[u8]) -> Vec<Datagram> {
        split_message(
            kind,
            0,
            1,
            tag,
            seq,
            &Bytes::copy_from_slice(payload),
            60_000,
        )
    }

    fn buf3() -> RetransmitBuffer {
        let mut b = RetransmitBuffer::new(3);
        b.record(
            0,
            SendDst::Multicast,
            10,
            MsgKind::Data,
            &dgs(MsgKind::Data, 10, 0, b"mc"),
        );
        b.record(
            1,
            SendDst::Rank(2),
            10,
            MsgKind::Data,
            &dgs(MsgKind::Data, 10, 1, b"to2"),
        );
        b.record(
            2,
            SendDst::Rank(3),
            10,
            MsgKind::Scout,
            &dgs(MsgKind::Scout, 10, 2, b""),
        );
        b
    }

    #[test]
    fn matching_replays_multicast_and_own_unicast_only() {
        let b = buf3();
        let for2: Vec<u64> = b.matching(2, 10).map(|r| r.seq).collect();
        assert_eq!(for2, vec![0, 1], "rank 2 gets the mcast + its unicast");
        let for3: Vec<u64> = b.matching(3, 10).map(|r| r.seq).collect();
        assert_eq!(for3, vec![0, 2], "rank 3 never sees rank 2's payload");
        assert_eq!(b.matching(2, 99).count(), 0, "tag filter");
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut b = buf3();
        assert_eq!(b.len(), 3);
        b.record(
            3,
            SendDst::Multicast,
            11,
            MsgKind::Data,
            &dgs(MsgKind::Data, 11, 3, b"new"),
        );
        assert_eq!(b.len(), 3);
        assert_eq!(b.evicted(), 1);
        assert_eq!(b.matching(2, 10).count(), 1, "seq 0 evicted");
    }

    #[test]
    fn nacks_are_never_recorded() {
        let mut b = RetransmitBuffer::new(2);
        b.record(
            0,
            SendDst::Rank(1),
            5,
            MsgKind::Nack,
            &dgs(MsgKind::Nack, 5, 0, b""),
        );
        assert!(b.is_empty());
    }

    #[test]
    fn record_shares_payload_and_eviction_releases_it() {
        let payload = Bytes::from(vec![7u8; 50_000]);
        let sent = split_message(MsgKind::Data, 0, 1, 4, 9, &payload, 1472);
        let chunks = sent.len();
        let mut b = RetransmitBuffer::new(1);
        b.record(9, SendDst::Multicast, 4, MsgKind::Data, &sent);
        // 1 (ours) + one view per chunk in `sent` + the same again in the
        // ring: recording bumped refcounts, it did not copy 50 kB.
        assert_eq!(payload.handle_count(), 1 + 2 * chunks);
        drop(sent);
        assert_eq!(payload.handle_count(), 1 + chunks);
        // Overwriting the only slot evicts the record and releases every
        // payload view it held.
        b.record(10, SendDst::Multicast, 4, MsgKind::Data, &[]);
        assert_eq!(payload.handle_count(), 1, "eviction frees the message");
    }

    #[test]
    fn stats_render_the_drop_counters_only_when_set() {
        let quiet = format!("{:?}", RepairStats::default());
        assert!(quiet.starts_with("RepairStats { nacks_sent: 0, nacks_received: 0,"));
        assert!(quiet.ends_with("duplicate_payloads_avoided: 0, epoch: 0 }"));
        let noisy = RepairStats {
            malformed_dropped: 2,
            ..RepairStats::default()
        };
        assert!(format!("{noisy:?}").ends_with("malformed_dropped: 2, epoch: 0 }"));
    }

    #[test]
    fn stats_merge_sums() {
        let mut a = RepairStats {
            nacks_sent: 1,
            nacks_received: 2,
            retransmits_sent: 3,
            unanswered_nacks: 4,
            nacks_suppressed: 5,
            nacks_overheard: 6,
            repairs_suppressed: 7,
            unavailable_sent: 8,
            horizons_sent: 9,
            horizons_received: 10,
            acked_records_freed: 11,
            rtt_samples: 12,
            send_window_stalls: 13,
            heartbeats_sent: 14,
            suspicions: 15,
            failures_confirmed: 16,
            advrs_sent: 17,
            wants_sent: 18,
            pulls_answered: 19,
            duplicate_payloads_avoided: 20,
            malformed_dropped: 22,
            foreign_dropped: 23,
            epoch: 21,
        };
        a.merge(&a.clone());
        assert_eq!(a.nacks_sent, 2);
        assert_eq!(a.retransmits_sent, 6);
        assert_eq!(a.unanswered_nacks, 8);
        assert_eq!(a.nacks_suppressed, 10);
        assert_eq!(a.nacks_overheard, 12);
        assert_eq!(a.repairs_suppressed, 14);
        assert_eq!(a.unavailable_sent, 16);
        assert_eq!(a.horizons_sent, 18);
        assert_eq!(a.horizons_received, 20);
        assert_eq!(a.acked_records_freed, 22);
        assert_eq!(a.rtt_samples, 24);
        assert_eq!(a.send_window_stalls, 26);
        assert_eq!(a.heartbeats_sent, 28);
        assert_eq!(a.suspicions, 30);
        assert_eq!(a.failures_confirmed, 32);
        assert_eq!(a.advrs_sent, 34);
        assert_eq!(a.wants_sent, 36);
        assert_eq!(a.pulls_answered, 38);
        assert_eq!(a.duplicate_payloads_avoided, 40);
        assert_eq!((a.malformed_dropped, a.foreign_dropped), (44, 46));
        assert_eq!(a.epoch, 21, "epoch merges by max, not sum");
    }

    #[test]
    fn release_acked_frees_front_only_and_keeps_floors_clean() {
        let mut b = buf3();
        let before = b.data_bytes();
        assert!(before > 0, "Data records charge bytes");
        // Middle record (seq 1) acked, head (seq 0) not: nothing frees.
        assert_eq!(b.release_acked(|r| r.seq == 1), 0);
        assert_eq!(b.len(), 3);
        // Head + middle acked: both free; seq 2 (unacked) stays.
        assert_eq!(b.release_acked(|r| r.seq <= 1), 2);
        assert_eq!(b.len(), 1);
        assert_eq!(b.acked_freed(), 2);
        assert!(b.data_bytes() < before, "freed Data bytes are uncharged");
        // ACK freeing is not eviction: the Unavail floors stay untouched.
        assert_eq!(b.evicted(), 0);
        assert_eq!(b.evicted_tag_max(), None);
        assert_eq!(b.evicted_seq_max(), None);
    }

    #[test]
    fn data_bytes_tracks_data_kind_only() {
        let mut b = RetransmitBuffer::new(4);
        b.record(
            0,
            SendDst::Multicast,
            1,
            MsgKind::Scout,
            &dgs(MsgKind::Scout, 1, 0, b""),
        );
        assert_eq!(b.data_bytes(), 0, "control kinds are never charged");
        let sent = dgs(MsgKind::Data, 1, 1, b"payload");
        let wire: usize = sent.iter().map(|d| d.len()).sum();
        b.record(1, SendDst::Multicast, 1, MsgKind::Data, &sent);
        assert_eq!(b.data_bytes(), wire);
        // Capacity eviction uncharges too.
        let mut small = RetransmitBuffer::new(1);
        small.record(0, SendDst::Multicast, 1, MsgKind::Data, &sent);
        small.record(1, SendDst::Multicast, 2, MsgKind::Data, &sent);
        assert_eq!(small.data_bytes(), wire, "evicted record was uncharged");
    }

    #[test]
    fn eviction_floor_tracks_highest_evicted_tag() {
        let mut b = RetransmitBuffer::new(2);
        assert_eq!(b.evicted_tag_max(), None);
        b.record(
            0,
            SendDst::Multicast,
            10,
            MsgKind::Data,
            &dgs(MsgKind::Data, 10, 0, b"a"),
        );
        b.record(
            1,
            SendDst::Multicast,
            11,
            MsgKind::Data,
            &dgs(MsgKind::Data, 11, 1, b"b"),
        );
        assert_eq!(b.evicted_tag_max(), None, "nothing evicted yet");
        b.record(
            2,
            SendDst::Multicast,
            12,
            MsgKind::Data,
            &dgs(MsgKind::Data, 12, 2, b"c"),
        );
        assert_eq!(b.evicted_tag_max(), Some(10), "tag 10 evicted");
        b.record(
            3,
            SendDst::Multicast,
            13,
            MsgKind::Data,
            &dgs(MsgKind::Data, 13, 3, b"d"),
        );
        assert_eq!(
            b.evicted_tag_max(),
            Some(11),
            "floor advances in send order"
        );
    }
}
