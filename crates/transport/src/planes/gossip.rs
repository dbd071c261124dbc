//! The epidemic dissemination plane (`docs/PROTOCOL.md` §11): `Advr`
//! digests pushed lazily, `Want` pulls answered out of the retransmit
//! ring or the relay store, and the retry rotation over known holders.
//! Everything iterated into wire bytes is `BTreeMap`/`Vec`-backed — replay
//! determinism forbids hash-order output.

use std::collections::{BTreeMap, VecDeque};

use mmpi_wire::{
    split_message, GossipDigest, Message, MsgKind, SeenTable, SeqRange, SourceDigest, SourceHorizon,
};

use super::horizon::HorizonState;
use super::membership::{self, MemberState};
use super::{Ctx, Encoder};
use crate::pump::{Nanos, RepairPort};

/// Re-issue an unanswered `Want` after this many repair timeouts
/// (`nack_timeout`, or the adaptive per-peer RTO), stretched by the `n/2`
/// constant-bandwidth-share factor (see [`GossipState::want_retry_after`]),
/// rotating to a different advertiser when one is known. Keeps a lost pull
/// from stalling delivery forever without re-pulling answers that are
/// merely queued behind a collective's fan-in burst.
const WANT_RETRY_FACTOR: u64 = 2;

/// Capacity of the relay store (messages): payloads this endpoint received
/// and re-advertises so partitioned peers can pull from it. Bounded like
/// the retransmit ring; the ACK-horizon plane frees fully-acknowledged
/// entries first.
const RELAY_CAP: usize = mmpi_wire::DEFAULT_RETRANSMIT_CAP;

/// One outstanding gossip pull: the advertiser it was sent to and when
/// to retry (rotating to another known holder) if no payload lands.
#[derive(Clone, Copy, Debug)]
struct WantPending {
    /// The peer the `Want` was addressed to.
    peer: u32,
    /// Retry deadline.
    at: Nanos,
}

/// Per-endpoint state of the epidemic dissemination plane.
#[derive(Debug)]
pub(crate) struct GossipState {
    /// Per-peer: which ids that peer is known to hold (its `Advr`s plus
    /// the positive half of its ACK-horizon frontiers). Routes pulls and
    /// retries; GC'd by the horizon plane.
    peer_seen: Vec<SeenTable>,
    /// Per-peer: which ids we already advertised to that peer —
    /// re-advertising is suppressed. GC'd with `peer_seen`.
    advertised: Vec<SeenTable>,
    /// Relay store: payloads this endpoint accepted and re-advertises,
    /// so a peer partitioned from the origin can pull from us. Keyed
    /// `(src, seq)`; FIFO-evicted at [`RELAY_CAP`] via `relay_order`,
    /// horizon-GC'd first.
    relay: BTreeMap<(u32, u64), Message>,
    /// Insertion order of `relay` keys (the FIFO eviction queue).
    relay_order: VecDeque<(u32, u64)>,
    /// Outstanding pulls by id. One `Want` in flight per id — the inbox
    /// dedups any duplicate answers, but not re-pulling at all is what
    /// keeps each payload to one crossing per link.
    wanted: BTreeMap<(u32, u64), WantPending>,
    /// Per-peer frontiers from the horizon plane (`peer → src → that
    /// peer's advertised SourceHorizon`): the GC quorum for the relay
    /// store and the tables.
    frontiers: Vec<BTreeMap<u32, SourceHorizon>>,
}

/// Intern a flat id list into wire digests: group by source, coalesce
/// into ranges, and split across as many digests as the codec caps
/// require — never silently dropping an id (the encoder's drop-tail rule
/// is a backstop, not the plan).
fn digests_of(ids: &[(u32, u64)]) -> Vec<GossipDigest> {
    let mut by_src: BTreeMap<u32, Vec<SeqRange>> = BTreeMap::new();
    for &(src, seq) in ids {
        by_src.entry(src).or_default().push(SeqRange {
            start: seq,
            end: seq,
        });
    }
    let mut out = Vec::new();
    let mut cur: Vec<SourceDigest> = Vec::new();
    for (src, ranges) in by_src {
        for chunk in mmpi_wire::compact_ranges(ranges).chunks(mmpi_wire::MAX_DIGEST_RANGES) {
            if cur.len() == mmpi_wire::MAX_DIGEST_SOURCES {
                out.push(GossipDigest {
                    entries: std::mem::take(&mut cur),
                });
            }
            cur.push(SourceDigest {
                src,
                ranges: chunk.to_vec(),
            });
        }
    }
    if !cur.is_empty() {
        out.push(GossipDigest { entries: cur });
    }
    out
}

/// Unicast one digest per [`digests_of`] chunk of `ids` to `peer`, as
/// `kind` (`Advr` or `Want`) in the control sequence space.
fn send_digests<P: RepairPort>(
    enc: &mut Encoder,
    io: &mut P,
    kind: MsgKind,
    peer: usize,
    ids: &[(u32, u64)],
) -> u64 {
    let digests = digests_of(ids);
    for d in &digests {
        let seq = enc.control_seq();
        let dgs = enc.encode(0, kind, &d.encode(), seq);
        io.send_encoded(peer, &dgs);
    }
    digests.len() as u64
}

impl GossipState {
    pub(crate) fn new(n: usize) -> Self {
        GossipState {
            peer_seen: vec![SeenTable::new(); n],
            advertised: vec![SeenTable::new(); n],
            relay: BTreeMap::new(),
            relay_order: VecDeque::new(),
            wanted: BTreeMap::new(),
            frontiers: vec![BTreeMap::new(); n],
        }
    }

    /// Earliest outstanding pull retry, if any — folded into the park
    /// deadline so a lost `Want` or answer is re-solicited even from an
    /// endpoint parked in a wait loop.
    pub(crate) fn next_deadline(&self) -> Option<Nanos> {
        self.wanted.values().map(|w| w.at).min()
    }

    /// One pass of the gossip state machine: fold freshly accepted
    /// payloads into the relay store and advertise them, ingest queued
    /// `Advr`s (pulling what we miss) and `Want`s (answering out of the
    /// ring or relay), then re-issue expired pulls.
    pub(crate) fn service<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        horizon: &HorizonState,
        member: Option<&MemberState>,
    ) {
        let (me, n) = (cx.enc.rank, cx.enc.n);
        // 1. Relay feed: every payload the inbox accepted becomes
        //    answerable here and is advertised onward — the epidemic
        //    relay that lets a peer partitioned from the origin pull
        //    from whoever it *can* reach.
        let mut fresh: Vec<(u32, u64)> = Vec::new();
        while let Some(m) = cx.inbox.take_data_log() {
            let src = m.src_rank;
            if src as usize >= n {
                continue;
            }
            let key = (src, m.seq);
            if self.relay.contains_key(&key) {
                continue;
            }
            // The origin of a payload holds it by definition.
            self.peer_seen[src as usize].note(src, m.seq);
            self.relay.insert(key, m);
            self.relay_order.push_back(key);
            while self.relay.len() > RELAY_CAP {
                match self.relay_order.pop_front() {
                    Some(old) => {
                        self.relay.remove(&old);
                    }
                    None => break,
                }
            }
            fresh.push(key);
        }
        if !fresh.is_empty() {
            self.advertise(cx, io, &fresh, member);
        }
        // 2. Queued gossip control.
        while let Some(msg) = cx.inbox.take_gossip() {
            let peer = msg.src_rank as usize;
            if peer >= n || peer == me {
                continue; // stray traffic on a real port
            }
            let Ok(digest) = GossipDigest::decode(&msg.payload) else {
                continue; // malformed stray traffic
            };
            match msg.kind {
                MsgKind::Advr => self.ingest_advr(cx, io, horizon, peer, &digest),
                MsgKind::Want => self.answer_want(cx, io, peer, &digest),
                _ => {}
            }
        }
        // 3. Expired pulls rotate to another known holder.
        self.retry_wants(cx, io, horizon, member);
    }

    /// Unicast an `Advr` digest of `ids` to every live peer that is not
    /// already known (or already told) to hold them — the lazy-push step
    /// of a group send, and of the relay. The per-peer `advertised` table
    /// is what keeps re-sends and relay loops from amplifying: an id is
    /// pushed at a peer once, ever, per endpoint.
    pub(crate) fn advertise<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        ids: &[(u32, u64)],
        member: Option<&MemberState>,
    ) {
        for p in 0..cx.enc.n {
            if p == cx.enc.rank || membership::is_dead(member, p) {
                continue;
            }
            let mut fresh: Vec<(u32, u64)> = Vec::new();
            for &(src, seq) in ids {
                if src as usize == p || self.peer_seen[p].contains(src, seq) {
                    continue; // the origin, or a peer already known to hold it
                }
                if !self.advertised[p].note(src, seq) {
                    continue; // already advertised to this peer
                }
                fresh.push((src, seq));
            }
            cx.stats.advrs_sent += send_digests(cx.enc, io, MsgKind::Advr, p, &fresh);
        }
    }

    /// Fold one peer's advertisement: every id it names is positive
    /// knowledge (the peer holds it and will answer pulls); ids we do
    /// not hold and are not already pulling become a merged `Want` back
    /// to the advertiser. Ids we already hold count as
    /// `duplicate_payloads_avoided` — each is a payload that did *not*
    /// cross our link a second time.
    fn ingest_advr<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        horizon: &HorizonState,
        peer: usize,
        digest: &GossipDigest,
    ) {
        let me = cx.enc.rank as u32;
        let now = io.now();
        let mut missing: Vec<(u32, u64)> = Vec::new();
        for e in &digest.entries {
            for r in &e.ranges {
                // Bound the walk: a corrupt range cannot spin us.
                let end = r.end.min(r.start.saturating_add(4096));
                for s in r.start..=end {
                    let newly = self.peer_seen[peer].note(e.src, s);
                    if e.src == me {
                        continue; // our own traffic: we hold it
                    }
                    if cx.inbox.has_seen(e.src, s) || self.relay.contains_key(&(e.src, s)) {
                        if newly {
                            cx.stats.duplicate_payloads_avoided += 1;
                        }
                        continue;
                    }
                    if self.wanted.contains_key(&(e.src, s)) {
                        continue; // pull in flight; `peer` is a known alternate now
                    }
                    let retry = Self::want_retry_after(cx.enc, horizon, peer);
                    self.wanted.insert(
                        (e.src, s),
                        WantPending {
                            peer: peer as u32,
                            at: now + retry,
                        },
                    );
                    missing.push((e.src, s));
                }
            }
        }
        cx.stats.wants_sent += send_digests(cx.enc, io, MsgKind::Want, peer, &missing);
    }

    /// Answer one peer's pull: our own traffic replays out of the
    /// retransmit ring (group records, or unicasts that were addressed
    /// to the requester — never another rank's point-to-point payload),
    /// relayed traffic re-encodes from the relay store under the
    /// *origin's* rank and sequence number, so the requester's dedup and
    /// matching treat the relayed copy exactly like the original. Ids we
    /// no longer hold go unanswered — the requester's retry rotates to
    /// another holder, and the NACK plane backstops it.
    fn answer_want<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        peer: usize,
        digest: &GossipDigest,
    ) {
        let me = cx.enc.rank as u32;
        for e in &digest.entries {
            for r in &e.ranges {
                let end = r.end.min(r.start.saturating_add(4096));
                for s in r.start..=end {
                    if e.src == me {
                        let answer = cx
                            .rtx
                            .find_seq(s)
                            .filter(|rec| rec.matches(peer as u32, rec.tag))
                            .map(|rec| rec.datagrams.clone());
                        if let Some(dgs) = answer {
                            cx.stats.pulls_answered += 1;
                            io.send_encoded(peer, &dgs);
                        }
                    } else if let Some(m) = self.relay.get(&(e.src, s)) {
                        let dgs = split_message(
                            m.kind,
                            m.context,
                            m.src_rank,
                            m.tag,
                            m.seq,
                            &m.payload,
                            cx.enc.max_chunk,
                        );
                        cx.stats.pulls_answered += 1;
                        io.send_encoded(peer, &dgs);
                    }
                }
            }
        }
    }

    /// Retire pulls whose payload landed, then re-issue expired ones —
    /// rotated to the next live peer known to hold the id, so one slow
    /// or dead advertiser cannot stall a pull that anyone else could
    /// answer. An id with no live known holder left is dropped: the
    /// per-request NACK plane is the backstop for truly lost traffic.
    fn retry_wants<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        horizon: &HorizonState,
        member: Option<&MemberState>,
    ) {
        if self.wanted.is_empty() {
            return;
        }
        let inbox = &*cx.inbox;
        self.wanted.retain(|&(src, s), _| !inbox.has_seen(src, s));
        if self.wanted.is_empty() {
            return;
        }
        let now = io.now();
        let expired: Vec<((u32, u64), u32)> = self
            .wanted
            .iter()
            .filter(|(_, w)| now >= w.at)
            .map(|(&k, w)| (k, w.peer))
            .collect();
        let mut per_peer: BTreeMap<usize, Vec<(u32, u64)>> = BTreeMap::new();
        for (key, prev) in expired {
            let (src, s) = key;
            // First live holder ranked strictly after the previous
            // advertiser, wrapping to the smallest — a deterministic
            // rotation (no RNG: replay must hold).
            let next = (0..cx.enc.n)
                .filter(|&p| {
                    p != cx.enc.rank
                        && !membership::is_dead(member, p)
                        && self.peer_seen[p].contains(src, s)
                })
                .min_by_key(|&p| (p as u32 <= prev, p));
            let (Some(peer), Some(w)) = (next, self.wanted.get_mut(&key)) else {
                self.wanted.remove(&key);
                continue;
            };
            w.peer = peer as u32;
            w.at = now + Self::want_retry_after(cx.enc, horizon, peer);
            per_peer.entry(peer).or_default().push(key);
        }
        for (peer, ids) in per_peer {
            cx.stats.wants_sent += send_digests(cx.enc, io, MsgKind::Want, peer, &ids);
        }
    }

    /// How long an outstanding `Want` waits before rotating to another
    /// holder: [`WANT_RETRY_FACTOR`] repair timeouts, stretched by `n/2`
    /// (floor 1×) — the constant-bandwidth-share rule again. A
    /// collective phase advertises from up to `n-1` origins at once, so
    /// a pull answer's latency includes the fan-in queue *and* the
    /// advertiser's service cadence; an unscaled deadline fires while
    /// the answer is still in flight and the duplicate answer breaks
    /// the one-crossing-per-link property on a clean fabric. Truly lost
    /// answers still recover: first by this rotation, ultimately by the
    /// per-request NACK plane.
    fn want_retry_after(enc: &Encoder, horizon: &HorizonState, peer: usize) -> Nanos {
        let (t, _) = horizon.timers(Some(peer));
        t.max(1) * WANT_RETRY_FACTOR * (enc.n as u64 / 2).max(1)
    }

    /// Horizon feed: a frontier is positive knowledge — `peer` *holds*
    /// its acknowledged prefix — and the GC quorum for the relay store
    /// and the tables.
    pub(crate) fn note_frontiers(&mut self, peer: usize, acks: &[SourceHorizon]) {
        for f in acks {
            let prefix = match f.missing.iter().map(|r| r.start).min() {
                Some(first) => first.checked_sub(1),
                None => Some(f.hwm),
            };
            if let Some(end) = prefix {
                self.peer_seen[peer].note_range(f.src, SeqRange { start: 0, end });
            }
            self.frontiers[peer].insert(f.src, f.clone());
        }
    }

    /// Horizon-driven GC: a relay entry every live peer (other than the
    /// origin) has acknowledged can never be pulled again, and
    /// per-source seen/advertised history below the group-wide
    /// acknowledged floor buys nothing — exactly the quorum rule
    /// [`HorizonState::gc_ring`] applies to the retransmit ring.
    pub(crate) fn gc(&mut self, enc: &Encoder, member: Option<&MemberState>) {
        let (me, n) = (enc.rank, enc.n);
        let dead: Vec<bool> = (0..n).map(|p| membership::is_dead(member, p)).collect();
        let quorum = |g: &GossipState, src: u32, seq: u64| {
            (0..n)
                .filter(|&p| p != me && p != src as usize && !dead[p])
                .all(|p| g.frontiers[p].get(&src).is_some_and(|f| f.acks(seq)))
        };
        let drop_keys: Vec<(u32, u64)> = self
            .relay
            .keys()
            .filter(|&&(src, seq)| quorum(self, src, seq))
            .copied()
            .collect();
        for k in &drop_keys {
            self.relay.remove(k);
        }
        // Per-source floors for the tables: the contiguous prefix every
        // live peer's frontier acknowledges.
        let srcs: Vec<u32> = {
            let mut s: Vec<u32> = self
                .frontiers
                .iter()
                .flat_map(|f| f.keys().copied())
                .collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        for src in srcs {
            let floor = (0..n)
                .filter(|&p| p != me && p != src as usize && !dead[p])
                .map(|p| {
                    self.frontiers[p].get(&src).map_or(0, |f| {
                        match f.missing.iter().map(|r| r.start).min() {
                            Some(first) => first.saturating_sub(1),
                            None => f.hwm,
                        }
                    })
                })
                .min()
                .unwrap_or(0);
            if floor == 0 {
                continue;
            }
            for p in 0..n {
                self.peer_seen[p].release_below(src, floor);
                self.advertised[p].release_below(src, floor);
            }
        }
    }
}
