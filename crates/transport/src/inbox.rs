//! Receive-side bookkeeping shared by every transport ([`Inbox`]).

use std::collections::{HashMap, HashSet, VecDeque};

use mmpi_wire::{Assembler, Bytes, Datagram, Message, MsgKind, SeqRange, SourceHorizon, WireError};

use crate::api::{Tag, FIRE_AND_FORGET_TAG};

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
    /// Gossip-plane control (`Advr`/`Want`), diverted like horizons:
    /// out-of-band sequence space, never application-matchable.
    gossip: VecDeque<Message>,
    /// When set (gossip plane armed), every accepted `Data` message is
    /// also logged here for the endpoint's relay store — receivers
    /// re-advertise what they hold so partitioned peers can pull from
    /// any reachable relay. Off (and empty) under multicast.
    log_data: bool,
    data_log: VecDeque<Message>,
    assembler: Assembler,
    seen: HashMap<u32, HashSet<u64>>,
    /// Per-source high-water mark of accepted seqs (bounds the
    /// [`Inbox::missing_from`] walk without scanning the seen-set).
    seen_max: HashMap<u32, u64>,
    /// Per-source count of every message accepted past the context and
    /// self-echo filters — the liveness signal the membership layer
    /// diffs: *any* traffic from a peer proves it alive, so heartbeats
    /// are only spent when a peer has nothing else to say.
    activity: HashMap<u32, u64>,
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
            log_data: false,
            data_log: VecDeque::new(),
            assembler: Assembler::new(),
            seen: HashMap::new(),
            seen_max: HashMap::new(),
            activity: HashMap::new(),
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
        *self.activity.entry(m.src_rank).or_default() += 1;
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
        if matches!(m.kind, MsgKind::Advr | MsgKind::Want) {
            // Gossip-plane control: like horizons and beacons it lives in
            // the out-of-band control sequence space (a lost digest must
            // never become an unanswerable data hole), so it is diverted
            // before the seq tracking. Bounded queue: digests are
            // cumulative — a later `Advr` re-covers anything a shed one
            // carried — and an unanswered `Want` is re-issued by the
            // requester's retry timer.
            self.gossip.push_back(m);
            if self.gossip.len() > 256 {
                self.gossip.pop_front();
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
        let seqs = self.seen.entry(m.src_rank).or_default();
        if !seqs.insert(m.seq) {
            self.dropped_duplicates += 1;
            return;
        }
        self.seen_max
            .entry(m.src_rank)
            .and_modify(|mx| *mx = (*mx).max(m.seq))
            .or_insert(m.seq);
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
        if self.log_data && m.kind == MsgKind::Data {
            // Relay feed (gossip plane): remember accepted payloads so
            // this endpoint can re-advertise and answer pulls for them.
            // Clone is handle-bumps only — `Message` payloads are shared
            // `Bytes` views. Bounded: the relay store drains this every
            // pump; shedding the oldest under a flood only costs a relay
            // opportunity, never delivery.
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

    /// Take the oldest pending gossip control message (`Advr`/`Want`),
    /// if any.
    pub fn take_gossip(&mut self) -> Option<Message> {
        self.gossip.pop_front()
    }

    /// Arm the relay feed: accepted `Data` messages are also logged for
    /// [`Inbox::take_data_log`]. Called once when the gossip plane is
    /// selected — under multicast the log stays off and empty.
    pub fn set_log_data(&mut self, on: bool) {
        self.log_data = on;
    }

    /// Take the oldest logged `Data` message (relay feed), if any.
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
        self.seen.get(&src).is_some_and(|s| s.contains(&seq))
    }

    /// Messages accepted from `src` so far (the liveness counter the
    /// membership layer snapshots and diffs).
    pub fn activity_of(&self, src: u32) -> u64 {
        self.activity.get(&src).copied().unwrap_or(0)
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
        let (Some(seen), Some(&max)) = (self.seen.get(&src), self.seen_max.get(&src)) else {
            // Nothing received from this source yet: everything missing.
            return vec![SeqRange {
                start: 0,
                end: u64::MAX,
            }];
        };
        let wstart = max.saturating_sub(PRECISE_WINDOW);
        let mut out = Vec::new();
        // A hole open on entry covers everything below the window.
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

    /// Every source this inbox has accepted traffic from, sorted — the
    /// deterministic iteration order the ACK-horizon builder needs (the
    /// seen-sets themselves are hash maps).
    pub fn sources(&self) -> Vec<u32> {
        // mmpi-lint: allow(hash-iter) — collected then sorted; hash
        // order never escapes this function.
        let mut v: Vec<u32> = self.seen_max.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// This inbox's delivery frontier for `src`, as advertised in an
    /// ACK-horizon message: the high-water mark plus the holes at or
    /// below it (from [`Inbox::missing_from`], so the below-window
    /// conservatism carries over — old unseen history stays "missing",
    /// which can only under-acknowledge). `None` before anything was
    /// accepted from `src`.
    pub fn frontier_of(&self, src: u32) -> Option<SourceHorizon> {
        let &hwm = self.seen_max.get(&src)?;
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
