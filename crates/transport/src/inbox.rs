//! Receive-side bookkeeping shared by every transport ([`Inbox`]).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mmpi_wire::{Assembler, Bytes, Datagram, Message, MsgKind, SeqRange, SourceHorizon, WireError};

use crate::api::{Tag, FIRE_AND_FORGET_TAG};

/// Sources below this get a dense [`SourceRow`], indexed by rank; the
/// rest — no sender is authenticated, so `src_rank` is whatever a
/// datagram claims — go to an ordered map. Growing the dense table to a
/// claimed index costs at most `DENSE_SOURCES` rows, once
/// (`docs/INVARIANTS.md` §6).
const DENSE_SOURCES: u32 = 1024;

/// How far past the end of a row's bitmap an accepted sequence number may
/// extend it, in sequence numbers: one accepted message grows the row by
/// at most `DENSE_REACH / 8` bytes. A sequence number further out goes to
/// the sparse set, so a forged `seq = 1 << 62` costs one set entry, not a
/// bitmap up to it.
const DENSE_REACH: u64 = 4096;

/// What the inbox knows about one source.
#[derive(Debug, Default)]
struct SourceRow {
    /// High-water mark of accepted data-space sequence numbers (bounds
    /// the [`Inbox::missing_from`] walk); `None` before the first.
    hwm: Option<u64>,
    /// Count of every message accepted past the context and self-echo
    /// filters — the liveness signal the membership layer diffs: *any*
    /// traffic from a peer proves it alive, so heartbeats are only spent
    /// when a peer has nothing else to say.
    activity: u64,
    /// Bit `s` is set once data-space sequence number `s` was accepted.
    /// Grows with the traffic, a bit per sequence number.
    bits: Vec<u64>,
}

impl SourceRow {
    fn bit(&self, seq: u64) -> bool {
        usize::try_from(seq / 64)
            .ok()
            .and_then(|word| self.bits.get(word))
            .is_some_and(|word| word >> (seq % 64) & 1 == 1)
    }
}

/// Per-source receive history: dense rows for the ranks and sequence
/// numbers real traffic uses, an ordered sparse fallback for whatever else
/// a datagram names. Which of the two holds an entry is invisible from
/// outside.
#[derive(Debug, Default)]
struct SeenRows {
    /// Indexed by `src_rank`, for sources below [`DENSE_SOURCES`]; grows
    /// to the highest source heard.
    rows: Vec<SourceRow>,
    /// Sources at or above [`DENSE_SOURCES`] (their `bits` stay empty).
    far_rows: BTreeMap<u32, SourceRow>,
    /// Accepted `(src, seq)` that no bitmap took: a far source, or a
    /// sequence number more than [`DENSE_REACH`] past its row's end.
    far_seqs: BTreeSet<(u32, u64)>,
}

impl SeenRows {
    fn row(&self, src: u32) -> Option<&SourceRow> {
        if src < DENSE_SOURCES {
            self.rows.get(src as usize)
        } else {
            self.far_rows.get(&src)
        }
    }

    fn row_mut(&mut self, src: u32) -> &mut SourceRow {
        if src < DENSE_SOURCES {
            let i = src as usize;
            if i >= self.rows.len() {
                self.rows.resize_with(i + 1, SourceRow::default);
            }
            &mut self.rows[i]
        } else {
            self.far_rows.entry(src).or_default()
        }
    }

    fn contains(&self, src: u32, seq: u64) -> bool {
        self.row(src).is_some_and(|row| row.bit(seq))
            || (!self.far_seqs.is_empty() && self.far_seqs.contains(&(src, seq)))
    }

    /// Record `(src, seq)` as accepted; false if it already was.
    fn insert(&mut self, src: u32, seq: u64) -> bool {
        if self.contains(src, seq) {
            return false;
        }
        let row = self.row_mut(src);
        row.hwm = Some(row.hwm.map_or(seq, |hwm| hwm.max(seq)));
        let dense_end = (row.bits.len() as u64).saturating_mul(64);
        if src < DENSE_SOURCES && seq.saturating_sub(dense_end) < DENSE_REACH {
            let word = (seq / 64) as usize; // < (len + DENSE_REACH / 64): fits
            if word >= row.bits.len() {
                row.bits.resize(word + 1, 0);
            }
            row.bits[word] |= 1 << (seq % 64);
        } else {
            self.far_seqs.insert((src, seq));
        }
        true
    }
}

/// Receive-side bookkeeping shared by every transport: reassembly,
/// context filtering, duplicate suppression, tag matching, and NACK
/// diversion (repair solicitations never reach the application — they
/// queue separately for the transport's repair loop).
#[derive(Debug)]
pub struct Inbox {
    context: u32,
    rank: u32,
    unmatched: VecDeque<Message>,
    nacks: VecDeque<Message>,
    unavail: VecDeque<Message>,
    horizons: VecDeque<Message>,
    membership: VecDeque<Message>,
    /// Gossip-plane control (`Advr`/`Want`/`Served`/`Repull`), diverted like
    /// horizons: out-of-band sequence space, never application-matchable.
    gossip: VecDeque<Message>,
    /// `(source, tag)` of each send notice (`MsgKind::Sent`), diverted
    /// like horizons.
    notices: VecDeque<(u32, Tag)>,
    /// When set (gossip plane armed), every accepted application message
    /// is also logged here for the endpoint's relay store — receivers
    /// re-advertise what they pulled so partitioned peers can pull from
    /// any reachable relay. Off (and empty) under multicast.
    log_data: bool,
    data_log: VecDeque<Message>,
    assembler: Assembler,
    /// Per-source history: accepted sequence numbers, high-water mark,
    /// activity count.
    seen: SeenRows,
    /// The context this inbox matched before an epoch rebase
    /// ([`Inbox::rebase`]). Repair-plane traffic (NACKs, Unavail,
    /// horizons, membership) from the previous epoch is still honored —
    /// a survivor may drain a pre-shrink recovery across the boundary —
    /// but old-epoch *data* stragglers are discarded as foreign.
    prev_context: Option<u32>,
    /// The context of the *next* epoch (derivable ahead of time — the
    /// epoch→context mix is deterministic). Repair-plane traffic stamped
    /// with it is honored: during a shrink, survivors that finish the
    /// vote early rebase first, and their beacons/horizons must keep
    /// proving them alive to survivors still voting in the old epoch —
    /// otherwise the laggards' suspicion timers would confirm the
    /// fastest survivors dead mid-agreement. `None` when membership is
    /// off (the context never changes, so there is no next epoch).
    next_context: Option<u32>,
    /// Count of ingested datagrams that can matter to a draining
    /// endpoint — everything except pure-liveness traffic (heartbeats,
    /// failure announces). The membership-armed drain restarts its
    /// quiet clock only when this advances: beacons keep flowing from
    /// *other* drainers by design, and letting them restart the clock
    /// would keep a group of draining endpoints alive forever.
    repair_relevant: u64,
    dropped_duplicates: u64,
    dropped_foreign: u64,
    /// Datagrams the wire layer refused: too short for a header, a bad
    /// magic/version/kind, or chunking no sender produces.
    dropped_malformed: u64,
}

impl Inbox {
    /// Inbox for a communicator with the given context, owned by `rank`.
    pub fn new(context: u32, rank: u32) -> Self {
        Inbox {
            context,
            rank,
            unmatched: VecDeque::new(),
            nacks: VecDeque::new(),
            unavail: VecDeque::new(),
            horizons: VecDeque::new(),
            membership: VecDeque::new(),
            gossip: VecDeque::new(),
            notices: VecDeque::new(),
            log_data: false,
            data_log: VecDeque::new(),
            assembler: Assembler::new(),
            seen: SeenRows::default(),
            prev_context: None,
            next_context: None,
            repair_relevant: 0,
            dropped_duplicates: 0,
            dropped_foreign: 0,
            dropped_malformed: 0,
        }
    }

    /// Feed one wire datagram (already in header-view/payload-view form —
    /// zero-copy). Malformed datagrams are rejected and counted
    /// ([`Inbox::malformed_dropped`]) — an unreliable network may hand us
    /// anything.
    pub fn ingest_wire(
        &mut self,
        datagram: &Datagram,
        via_multicast: bool,
    ) -> Result<(), WireError> {
        let fed = self.feed(datagram, via_multicast);
        self.count_refusal(fed)
    }

    /// Feed raw contiguous datagram bytes (one socket read);
    /// `via_multicast` marks a datagram that arrived on a multicast socket
    /// (enables the self-echo filter).
    pub fn ingest_datagram_via(
        &mut self,
        bytes: &Bytes,
        via_multicast: bool,
    ) -> Result<(), WireError> {
        let fed =
            Datagram::from_contiguous(bytes.clone()).and_then(|dg| self.feed(&dg, via_multicast));
        self.count_refusal(fed)
    }

    /// Feed a datagram as the shared segments a zero-copy fabric delivered
    /// ([`Datagram::from_segments`]).
    pub fn ingest_segments(
        &mut self,
        segments: &[Bytes],
        via_multicast: bool,
    ) -> Result<(), WireError> {
        let fed = Datagram::from_segments(segments).and_then(|dg| self.feed(&dg, via_multicast));
        self.count_refusal(fed)
    }

    fn feed(&mut self, datagram: &Datagram, via_multicast: bool) -> Result<(), WireError> {
        if let Some(m) = self.assembler.feed(datagram)? {
            self.ingest_message(m, via_multicast);
        }
        Ok(())
    }

    /// Every way in ends here, so each datagram the wire layer refuses is
    /// counted once.
    fn count_refusal(&mut self, fed: Result<(), WireError>) -> Result<(), WireError> {
        self.dropped_malformed += u64::from(fed.is_err());
        fed
    }

    /// Feed an already-decoded message. `via_multicast` enables the
    /// self-echo filter (a sender's own multicast looping back).
    pub fn ingest_message(&mut self, m: Message, via_multicast: bool) {
        if !matches!(m.kind, MsgKind::Heartbeat | MsgKind::FailureAnnounce) {
            // Counted before every filter: the drain's quiet test is
            // about the wire still carrying non-liveness traffic at
            // all, not about whether this endpoint accepted it.
            self.repair_relevant += 1;
        }
        if m.context != self.context {
            // After an epoch rebase the *repair plane* of the previous
            // epoch stays open (a survivor may still be answering NACKs
            // or draining horizons from a pre-shrink recovery); data
            // stragglers from the old epoch are exactly what the epoch
            // stamp exists to discard.
            let repair_plane = matches!(
                m.kind,
                MsgKind::Nack
                    | MsgKind::Unavail
                    | MsgKind::AckHorizon
                    | MsgKind::Heartbeat
                    | MsgKind::FailureAnnounce
                    | MsgKind::Advr
                    | MsgKind::Want
                    | MsgKind::Served
                    | MsgKind::Repull
                    | MsgKind::Sent
            );
            // ...and the *next* epoch's repair plane is already open:
            // mid-shrink, the survivors that rebased first must keep
            // proving themselves alive to the ones still voting.
            let adjacent =
                self.prev_context == Some(m.context) || self.next_context == Some(m.context);
            if !(repair_plane && adjacent) {
                self.dropped_foreign += 1;
                return;
            }
        }
        if via_multicast && m.src_rank == self.rank {
            return; // our own multicast echoed back
        }
        self.seen.row_mut(m.src_rank).activity += 1;
        if m.tag == FIRE_AND_FORGET_TAG {
            return; // modelled ack traffic: wire-visible, never matched
        }
        if matches!(m.kind, MsgKind::Heartbeat | MsgKind::FailureAnnounce) {
            // Membership traffic shares the horizons' out-of-band
            // sequence space (same reasoning: a lost beacon must not
            // become an unanswerable data hole), so it too is diverted
            // before the seq tracking. Bounded queue — beacons are
            // idempotent, so shedding the oldest under a flood is safe.
            self.membership.push_back(m);
            if self.membership.len() > 64 {
                self.membership.pop_front();
            }
            return;
        }
        if matches!(
            m.kind,
            MsgKind::Advr | MsgKind::Want | MsgKind::Served | MsgKind::Repull
        ) {
            // Gossip-plane control: like horizons and beacons it lives in
            // the out-of-band control sequence space (a lost digest must
            // never become an unanswerable data hole), so it is diverted
            // before the seq tracking. Bounded queue: digests are
            // cumulative — a later `Advr` re-covers anything a shed one
            // carried — an unanswered `Want` is re-issued by the
            // requester's retry timer, and a shed `Served` echo or
            // `Repull` only delays the re-pull: the next probe draws
            // another echo.
            self.gossip.push_back(m);
            if self.gossip.len() > 256 {
                self.gossip.pop_front();
            }
            return;
        }
        if m.kind == MsgKind::Sent {
            // Send notice: control sequence space like the horizons, so
            // diverted before the seq tracking. Only `(source, tag)`
            // matters. Bounded queue: a shed notice only leaves its
            // receiver on the timer it had.
            self.notices.push_back((m.src_rank, m.tag));
            if self.notices.len() > 64 {
                self.notices.pop_front();
            }
            return;
        }
        if m.kind == MsgKind::AckHorizon {
            // Session message: repair-plane traffic, never matchable by
            // the application — and diverted BEFORE the seq tracking,
            // because horizons live in their own sequence space (a
            // per-endpoint counter, not `fresh_seq`). Folding them into
            // the data seq space would make every *lost* horizon a
            // permanent hole that receivers solicit forever: the origin
            // never records session messages for retransmission, so the
            // hole is unanswerable by design. One live entry per peer —
            // the one with the highest seq wins (a reordered fabric may
            // deliver an older horizon after a newer one; frontiers are
            // monotone per sender, so seq order is supersession order).
            if let Some(i) = self.horizons.iter().position(|h| h.src_rank == m.src_rank) {
                if self.horizons[i].seq <= m.seq {
                    self.horizons.remove(i);
                } else {
                    return;
                }
            }
            self.horizons.push_back(m);
            return;
        }
        if !self.seen.insert(m.src_rank, m.seq) {
            self.dropped_duplicates += 1;
            return;
        }
        if m.kind == MsgKind::Nack {
            // Repair solicitation: divert to the transport's repair loop.
            // The tag field names the traffic being re-requested, so a
            // NACK must never be matchable as that traffic itself.
            self.nacks.push_back(m);
            return;
        }
        if m.kind == MsgKind::Unavail {
            // Eviction-floor advertisement: also repair-loop traffic —
            // it answers a NACK, it must never match as the data itself.
            // One live entry per (responder, tag) — every re-solicit
            // draws a fresh answer under a fresh seq — and a bounded
            // queue, so stale advertisements cannot accumulate.
            self.unavail
                .retain(|u| !(u.src_rank == m.src_rank && u.tag == m.tag));
            self.unavail.push_back(m);
            if self.unavail.len() > 64 {
                self.unavail.pop_front();
            }
            return;
        }
        if self.log_data {
            // Relay feed (gossip plane): remember accepted payloads of
            // every kind — a barrier's `Release` is group-sent too — so
            // this endpoint can re-advertise and answer pulls for the ones
            // it pulled. Clone is handle-bumps only — `Message` payloads
            // are shared `Bytes` views. Bounded: the relay store drains
            // this every pump; shedding the oldest under a flood only
            // costs a relay opportunity, never delivery.
            self.data_log.push_back(m.clone());
            if self.data_log.len() > 256 {
                self.data_log.pop_front();
            }
        }
        self.unmatched.push_back(m);
    }

    /// Take the oldest pending repair solicitation, if any.
    pub fn take_nack(&mut self) -> Option<Message> {
        self.nacks.pop_front()
    }

    /// Take the oldest pending gossip control message (`Advr`/`Want`/
    /// `Served`/`Repull`), if any.
    pub fn take_gossip(&mut self) -> Option<Message> {
        self.gossip.pop_front()
    }

    /// Take the oldest pending send notice, as `(source, tag)`, if any.
    pub fn take_notice(&mut self) -> Option<(u32, Tag)> {
        self.notices.pop_front()
    }

    /// Arm the relay feed: accepted application messages are also logged for
    /// [`Inbox::take_data_log`]. Called once when the gossip plane is
    /// selected — under multicast the log stays off and empty.
    pub fn set_log_data(&mut self, on: bool) {
        self.log_data = on;
    }

    /// Take the oldest logged application message (relay feed), if any.
    pub fn take_data_log(&mut self) -> Option<Message> {
        self.data_log.pop_front()
    }

    /// Take the oldest pending ACK-horizon session message, if any.
    pub fn take_horizon(&mut self) -> Option<Message> {
        self.horizons.pop_front()
    }

    /// Take the oldest pending membership message (`Heartbeat` or
    /// `FailureAnnounce`), if any.
    pub fn take_membership(&mut self) -> Option<Message> {
        self.membership.pop_front()
    }

    /// True when a message `(src, seq)` has already been accepted past
    /// the dedup layer — the gossip plane's "do I hold this id" test (a
    /// pulled payload is delivered through the same dedup, so an id in
    /// here is an id this endpoint, or its application, has).
    pub fn has_seen(&self, src: u32, seq: u64) -> bool {
        self.seen.contains(src, seq)
    }

    /// Messages accepted from `src` so far (the liveness counter the
    /// membership layer snapshots and diffs).
    pub fn activity_of(&self, src: u32) -> u64 {
        self.seen.row(src).map_or(0, |row| row.activity)
    }

    /// Ingested datagrams other than pure-liveness traffic (see the
    /// field docs) — the membership-armed drain's quiet-clock signal.
    pub fn repair_relevant(&self) -> u64 {
        self.repair_relevant
    }

    /// Switch to a new communicator context after an epoch bump
    /// (communicator shrink). Buffered *data* from the old epoch is
    /// discarded — those are exactly the stragglers the epoch stamp
    /// exists to kill — while the repair-plane queues survive, and the
    /// old context stays honored for repair-plane arrivals (see
    /// [`Inbox::ingest_message`]). The seq/dedup history is kept: senders
    /// never rewind their counters across a rebase, so old history stays
    /// valid.
    pub fn rebase(&mut self, new_context: u32) {
        self.prev_context = Some(self.context);
        self.context = new_context;
        self.dropped_foreign += self.unmatched.len() as u64;
        self.unmatched.clear();
    }

    /// Honor repair-plane traffic stamped with `context` — the next
    /// epoch's — from now on (see the `next_context` field docs).
    pub(crate) fn set_next_context(&mut self, context: u32) {
        self.next_context = Some(context);
    }

    /// Take the oldest `Unavail` advertisement matching `(src, tag)`, if
    /// any (`src = None` matches any source) — the signal that the
    /// awaited traffic is permanently unrecoverable.
    pub fn take_unavail(&mut self, src: Option<usize>, tag: Tag) -> Option<Message> {
        let pos = self
            .unavail
            .iter()
            .position(|m| m.tag == tag && src.map(|s| m.src_rank == s as u32).unwrap_or(true))?;
        self.unavail.remove(pos)
    }

    /// The sequence ranges *not yet received* from `src`, as sorted
    /// disjoint ranges — what a NACK advertises so the responder replays
    /// only what this endpoint is actually missing. Holes are computed
    /// precisely only inside a recent window below the source's
    /// high-water mark (retransmittable traffic is recent — the sender's
    /// ring is bounded); everything below the window is one conservative
    /// "missing" range, which can only cause a redundant replay, never a
    /// missed one. Cost is O(window) membership probes per solicit, not
    /// a scan of the whole receive history. The result may exceed what a
    /// NACK payload can carry — seqs the source unicast to *other* ranks
    /// look like holes here — in which case `NackPayload::encode`
    /// collapses the overflow into an open-ended tail; the collapse is
    /// conservative (covers more, suppresses less) and preserves the
    /// lowest hole, which the responder's eviction-horizon check relies
    /// on. Never empty: "no information" would disable that check.
    pub fn missing_from(&self, src: u32) -> Vec<SeqRange> {
        /// Sequence distance below the high-water mark inside which
        /// holes are reported precisely (≥ any sane retransmit ring).
        const PRECISE_WINDOW: u64 = 1024;
        let Some((row, max)) = self.seen.row(src).and_then(|row| Some((row, row.hwm?))) else {
            // Nothing received from this source yet: everything missing.
            return vec![SeqRange {
                start: 0,
                end: u64::MAX,
            }];
        };
        let sparse = !self.seen.far_seqs.is_empty();
        let seen = |s| row.bit(s) || (sparse && self.seen.far_seqs.contains(&(src, s)));
        let wstart = max.saturating_sub(PRECISE_WINDOW);
        let mut out = Vec::new();
        // A hole open on entry covers everything below the window.
        let mut hole_start = (wstart > 0).then_some(0u64);
        for s in wstart..=max {
            match (seen(s), hole_start) {
                (true, Some(start)) => {
                    out.push(SeqRange { start, end: s - 1 });
                    hole_start = None;
                }
                (false, None) => hole_start = Some(s),
                _ => {}
            }
        }
        // Everything above the high-water mark is unseen by definition
        // (`max` itself is always seen, so no hole is open here).
        if max < u64::MAX {
            out.push(SeqRange {
                start: max + 1,
                end: u64::MAX,
            });
        }
        out
    }

    /// Every source this inbox has accepted sequenced traffic from,
    /// ascending — the deterministic iteration order the ACK-horizon
    /// builder needs.
    pub fn sources(&self) -> Vec<u32> {
        let heard = |(src, row): (u32, &SourceRow)| row.hwm.map(|_| src);
        let far = self.seen.far_rows.iter().map(|(&src, row)| (src, row));
        // One allocation: a filtered iterator would grow the list by
        // doubling, once per session message.
        let mut out = Vec::with_capacity(self.seen.rows.len() + self.seen.far_rows.len());
        out.extend((0u32..).zip(&self.seen.rows).filter_map(heard));
        out.extend(far.filter_map(heard));
        out
    }

    /// This inbox's delivery frontier for `src`, as advertised in an
    /// ACK-horizon message: the high-water mark plus the holes at or
    /// below it (from [`Inbox::missing_from`], so the below-window
    /// conservatism carries over — old unseen history stays "missing",
    /// which can only under-acknowledge). `None` before anything was
    /// accepted from `src`.
    pub fn frontier_of(&self, src: u32) -> Option<SourceHorizon> {
        let hwm = self.seen.row(src)?.hwm?;
        let mut missing = self.missing_from(src);
        missing.retain(|r| r.start <= hwm);
        for r in &mut missing {
            r.end = r.end.min(hwm);
        }
        Some(SourceHorizon { src, hwm, missing })
    }

    /// Put a message back at the *front* of the matching queue — the
    /// cancel path of a posted receive that had already claimed its
    /// match. Front, not back: the message was the oldest match, and the
    /// next request with the same matcher must see it first.
    pub fn requeue_front(&mut self, m: Message) {
        self.unmatched.push_front(m);
    }

    /// Take the oldest buffered message matching `(src, tag)`; `src =
    /// None` matches any source.
    pub fn take_match(&mut self, src: Option<usize>, tag: Tag) -> Option<Message> {
        let pos = self
            .unmatched
            .iter()
            .position(|m| m.tag == tag && src.map(|s| m.src_rank == s as u32).unwrap_or(true))?;
        self.unmatched.remove(pos)
    }

    /// Messages buffered but not yet matched.
    pub fn backlog(&self) -> usize {
        self.unmatched.len()
    }

    /// Retransmitted duplicates suppressed so far.
    pub fn duplicates_dropped(&self) -> u64 {
        self.dropped_duplicates
    }

    /// Messages for other communicators dropped so far.
    pub fn foreign_dropped(&self) -> u64 {
        self.dropped_foreign
    }

    /// Datagrams the wire layer refused so far (see
    /// [`Inbox::ingest_wire`]).
    pub fn malformed_dropped(&self) -> u64 {
        self.dropped_malformed
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use proptest::prelude::*;

    use super::*;

    /// The hash-keyed history the dense rows replaced, kept as the oracle:
    /// a seen-set, a high-water mark and an activity count per source, each
    /// in its own map.
    #[derive(Default)]
    struct MapSeen {
        seen: HashMap<u32, HashSet<u64>>,
        seen_max: HashMap<u32, u64>,
        activity: HashMap<u32, u64>,
        dropped_duplicates: u64,
    }

    impl MapSeen {
        /// What `Inbox::ingest_message` did with a message of this inbox's
        /// context that is not its own echo.
        fn ingest(&mut self, kind: MsgKind, src: u32, seq: u64) {
            *self.activity.entry(src).or_default() += 1;
            if kind == MsgKind::Heartbeat {
                return; // diverted before the sequence tracking
            }
            if !self.seen.entry(src).or_default().insert(seq) {
                self.dropped_duplicates += 1;
                return;
            }
            self.seen_max
                .entry(src)
                .and_modify(|mx| *mx = (*mx).max(seq))
                .or_insert(seq);
        }

        fn has_seen(&self, src: u32, seq: u64) -> bool {
            self.seen.get(&src).is_some_and(|s| s.contains(&seq))
        }

        fn activity_of(&self, src: u32) -> u64 {
            self.activity.get(&src).copied().unwrap_or(0)
        }

        fn missing_from(&self, src: u32) -> Vec<SeqRange> {
            const PRECISE_WINDOW: u64 = 1024;
            let (Some(seen), Some(&max)) = (self.seen.get(&src), self.seen_max.get(&src)) else {
                return vec![SeqRange {
                    start: 0,
                    end: u64::MAX,
                }];
            };
            let wstart = max.saturating_sub(PRECISE_WINDOW);
            let mut out = Vec::new();
            let mut hole_start = (wstart > 0).then_some(0u64);
            for s in wstart..=max {
                match (seen.contains(&s), hole_start) {
                    (true, Some(start)) => {
                        out.push(SeqRange { start, end: s - 1 });
                        hole_start = None;
                    }
                    (false, None) => hole_start = Some(s),
                    _ => {}
                }
            }
            if max < u64::MAX {
                out.push(SeqRange {
                    start: max + 1,
                    end: u64::MAX,
                });
            }
            out
        }

        #[expect(clippy::disallowed_methods, reason = "sorted before it is returned")]
        fn sources(&self) -> Vec<u32> {
            let mut v: Vec<u32> = self.seen_max.keys().copied().collect();
            v.sort_unstable();
            v
        }

        fn frontier_of(&self, src: u32) -> Option<SourceHorizon> {
            let &hwm = self.seen_max.get(&src)?;
            let mut missing = self.missing_from(src);
            missing.retain(|r| r.start <= hwm);
            for r in &mut missing {
                r.end = r.end.min(hwm);
            }
            Some(SourceHorizon { src, hwm, missing })
        }
    }

    fn message(kind: MsgKind, src: u32, seq: u64) -> Message {
        Message {
            kind,
            context: 0,
            src_rank: src,
            tag: 5,
            seq,
            payload: Bytes::new(),
        }
    }

    /// Sources: the ranks of a small world, the last dense index, the
    /// first sparse one, and `u32::MAX`.
    fn source() -> impl Strategy<Value = u32> {
        prop_oneof![
            0u32..4,
            0u32..4,
            Just(DENSE_SOURCES - 1),
            Just(DENSE_SOURCES),
            Just(u32::MAX),
        ]
    }

    /// One ingest: `(kind, src, base, run)` accepts `run` consecutive
    /// sequence numbers from `base`. Bases cluster low (duplicates, holes,
    /// the gaps a source's unicasts to other ranks leave), step past the
    /// 1 024-wide precise window and the bitmap's reach, and include the
    /// ends of the sequence space.
    fn ingest() -> impl Strategy<Value = (MsgKind, u32, u64, u64)> {
        let kind = prop_oneof![
            Just(MsgKind::Data),
            Just(MsgKind::Data),
            Just(MsgKind::Nack),
            Just(MsgKind::Heartbeat),
        ];
        let base = prop_oneof![
            0u64..48,
            0u64..48,
            (0u64..6).prop_map(|k| k * 700),
            (0u64..4).prop_map(|k| DENSE_REACH - 2 + k),
            (0u64..4).prop_map(|k| 3 * DENSE_REACH + k),
            Just(1u64 << 62),
            (0u64..3).prop_map(|k| u64::MAX - k),
        ];
        (kind, source(), base, 1u64..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Dense rows and their sparse fallback answer as the maps did —
        /// accept or duplicate, `has_seen`, `missing_from`, `frontier_of`,
        /// `sources`, `activity_of` — over random ingest histories.
        #[test]
        fn dense_rows_answer_as_the_maps_did(
            history in proptest::collection::vec(ingest(), 1..60),
        ) {
            let mut inbox = Inbox::new(0, 9);
            let mut oracle = MapSeen::default();
            let mut named: Vec<(u32, u64)> = Vec::new();
            for (kind, src, base, run) in history {
                for seq in (base..=base.saturating_add(run - 1)).take(run as usize) {
                    inbox.ingest_message(message(kind, src, seq), false);
                    oracle.ingest(kind, src, seq);
                    prop_assert_eq!(inbox.duplicates_dropped(), oracle.dropped_duplicates);
                }
                named.push((src, base));
                named.push((src, base.saturating_add(run)));
                for &(src, seq) in &named {
                    prop_assert_eq!(inbox.has_seen(src, seq), oracle.has_seen(src, seq));
                    prop_assert_eq!(inbox.has_seen(src ^ 1, seq), oracle.has_seen(src ^ 1, seq));
                }
                prop_assert_eq!(inbox.sources(), oracle.sources());
                prop_assert_eq!(inbox.activity_of(src), oracle.activity_of(src));
                prop_assert_eq!(inbox.missing_from(src), oracle.missing_from(src));
                prop_assert_eq!(inbox.frontier_of(src), oracle.frontier_of(src));
            }
            for src in [0, 1, 2, 3, 7, DENSE_SOURCES - 1, DENSE_SOURCES, u32::MAX] {
                prop_assert_eq!(inbox.activity_of(src), oracle.activity_of(src));
                prop_assert_eq!(inbox.missing_from(src), oracle.missing_from(src));
                prop_assert_eq!(inbox.frontier_of(src), oracle.frontier_of(src));
            }
        }
    }

    /// What a forged `(src, seq)` may cost: a sparse entry, never a table
    /// sized by what it claims.
    #[test]
    fn a_far_source_or_sequence_number_goes_to_the_sparse_set() {
        let mut inbox = Inbox::new(0, 9);
        inbox.ingest_message(message(MsgKind::Data, 1, 0), false);
        inbox.ingest_message(message(MsgKind::Data, 1, 1 << 62), false);
        inbox.ingest_message(message(MsgKind::Data, u32::MAX, 3), false);
        inbox.ingest_message(message(MsgKind::Heartbeat, u32::MAX - 1, 0), false);
        assert_eq!(inbox.seen.rows.len(), 2);
        assert_eq!(inbox.seen.rows[1].bits.len(), 1);
        assert_eq!(inbox.seen.far_seqs.len(), 2);
        assert_eq!(inbox.seen.far_rows.len(), 2);
        // The answers do not say where an entry lives.
        assert!(inbox.has_seen(1, 1 << 62) && inbox.has_seen(u32::MAX, 3));
        assert_eq!(inbox.sources(), vec![1, u32::MAX]);
        assert_eq!(inbox.activity_of(u32::MAX - 1), 1);
        // Both are duplicates the second time.
        inbox.ingest_message(message(MsgKind::Data, 1, 1 << 62), false);
        inbox.ingest_message(message(MsgKind::Data, u32::MAX, 3), false);
        assert_eq!(inbox.duplicates_dropped(), 2);
        // Within reach the row grows by what the step covers, no more.
        inbox.ingest_message(message(MsgKind::Data, 1, DENSE_REACH + 63), false);
        assert_eq!(inbox.seen.rows[1].bits.len() as u64, DENSE_REACH / 64 + 1);
        assert_eq!(inbox.seen.far_seqs.len(), 2);
    }
}
