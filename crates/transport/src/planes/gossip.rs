//! The epidemic dissemination plane (`docs/PROTOCOL.md` §11): `Advr`
//! digests pushed lazily, `Want` pulls answered out of the retransmit
//! ring or the relay store, and the retry rotation over known holders.
//! Everything iterated into wire bytes is `BTreeMap`/`Vec`-backed — replay
//! determinism forbids hash-order output.
//!
//! The plane sends ≈ 640 `Advr`s a collective at N=32 and ingests as many,
//! so both directions work in place: digests and frontiers are read off
//! the received payload through `mmpi_wire`'s views, and what is sent is
//! encoded in scratch the state owns ([`DigestScratch`]) — an `Advr`
//! allocates its payload and `split_message`'s datagram, nothing else.

use std::collections::{BTreeMap, VecDeque};

use mmpi_wire::{
    split_message, Bytes, GossipDigestView, Message, MsgKind, SeenTable, SeqRange, SourceHorizon,
    SourceHorizonView, MAX_DIGEST_RANGES, MAX_DIGEST_SOURCES,
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
    /// The horizon plane's feed and what [`GossipState::gc`] still owes
    /// for it.
    acked: AckBook,
    /// Where outgoing digests are built.
    digests: DigestScratch,
    /// Scratch: the ids one pass of [`GossipState::service`] newly relays.
    relayed: Vec<(u32, u64)>,
}

/// Every peer's latest frontier per source — the GC quorum for the relay
/// store and the tables — and which sources something has changed for
/// since the last GC, so a GC pays for those only (`docs/PROTOCOL.md`
/// §11, "Incremental GC"). Dense: `rows[peer]` indexed by source; a
/// source `>= n` off the wire is refused at the door.
#[derive(Debug)]
struct AckBook {
    n: usize,
    rows: Vec<PeerRow>,
    /// Per source: a frontier for it changed, a relay entry or a table
    /// note of it is new, or the dead-set moved — GC must visit it.
    dirty: Vec<bool>,
    /// The membership dead-set the last GC ran under.
    dead: Vec<bool>,
    /// Per source: the floor the last GC computed, and the highest floor
    /// the tables were ever released below. `floor < released` only after
    /// a frontier dragged a floor back down: a reordered session message,
    /// or a peer whose high-water mark outgrew the window its inbox
    /// reports holes precisely in (`Inbox::missing_from`).
    floor: Vec<u64>,
    released: Vec<u64>,
    /// `(peer, src, prefix)` of every frontier since the last GC that was
    /// equal to the stored one, so noting its prefix into `peer_seen` was
    /// skipped. The skip is exact while floors only rise (the prefix was
    /// noted when the frontier was stored, and nothing above the floor
    /// has been released since); GC replays these for a source whose
    /// floor fell below `released`.
    skipped: Vec<(u32, u32, u64)>,
    /// Scratch: relay seqs of one source the quorum has acknowledged.
    drop_seqs: Vec<u64>,
    /// Sources [`GossipState::gc`] evaluated a quorum for, ever.
    #[cfg(test)]
    quorum_evals: u64,
}

/// What one peer last advertised, by source. Both columns stay empty
/// until the peer's first session message (an endpoint's set-up does not
/// pay for peers it never hears), then hold `n` slots.
#[derive(Clone, Debug, Default)]
struct PeerRow {
    frontier: Vec<Option<SourceHorizon>>,
    /// [`acked_prefix`] of each frontier, 0 while there is none: a floor
    /// is the minimum of these over the voting peers.
    prefix: Vec<u64>,
}

impl AckBook {
    fn new(n: usize) -> Self {
        AckBook {
            n,
            rows: vec![PeerRow::default(); n],
            dirty: vec![false; n],
            dead: vec![false; n],
            floor: vec![0; n],
            released: vec![0; n],
            skipped: Vec::new(),
            drop_seqs: Vec::new(),
            #[cfg(test)]
            quorum_evals: 0,
        }
    }

    fn frontier(&self, peer: usize, src: usize) -> Option<&SourceHorizon> {
        self.rows[peer].frontier.get(src)?.as_ref()
    }

    fn prefix(&self, peer: usize, src: usize) -> u64 {
        self.rows[peer].prefix.get(src).copied().unwrap_or(0)
    }

    /// GC must look at `src` again. Sources outside the group have no
    /// frontier and are never collected.
    fn mark(&mut self, src: u32) {
        if let Some(d) = self.dirty.get_mut(src as usize) {
            *d = true;
        }
    }
}

/// The contiguous prefix a frontier acknowledges: everything below its
/// first hole, up to `hwm` without one; `None` when seq 0 is itself a hole.
fn acked_prefix(hwm: u64, holes: impl Iterator<Item = SeqRange>) -> Option<u64> {
    match holes.map(|r| r.start).min() {
        Some(first) => first.checked_sub(1),
        None => Some(hwm),
    }
}

/// The buffers an outgoing digest is built in, owned by the plane and
/// cleared, not dropped, between sends: the id list (filled by the sender,
/// sorted here in place), the payload bytes, and the payloads of the last
/// list encoded — a pass that advertises one id to 31 peers encodes it
/// once and hands every peer a handle to the same bytes.
#[derive(Debug, Default)]
struct DigestScratch {
    /// The ids to send next; [`DigestScratch::send`] consumes them.
    ids: Vec<(u32, u64)>,
    buf: Vec<u8>,
    /// The sorted id list `payloads` encodes.
    encoded: Vec<(u32, u64)>,
    payloads: Vec<Bytes>,
}

impl DigestScratch {
    /// Intern `ids` into wire digests: group by source, coalesce into
    /// ranges, and split across as many digests as the codec caps require
    /// — never silently dropping an id (the decoder's caps are a backstop,
    /// not the plan). Byte for byte what `GossipDigest::encode` makes of
    /// the same ids (the tests hold it to that), written straight into one
    /// buffer: each count is patched in once its run is known.
    fn encode(&mut self) {
        const RANGE_CAP: u16 = MAX_DIGEST_RANGES as u16;
        const SOURCE_CAP: u16 = MAX_DIGEST_SOURCES as u16;
        let DigestScratch {
            ids,
            buf,
            encoded,
            payloads,
        } = self;
        ids.sort_unstable();
        ids.dedup();
        if ids == encoded {
            return;
        }
        encoded.clone_from(ids);
        payloads.clear();
        let mut flush = |buf: &mut Vec<u8>, entries: u16| {
            buf[..2].copy_from_slice(&entries.to_le_bytes());
            payloads.push(Bytes::copy_from_slice(buf));
            buf.clear();
        };
        buf.clear();
        let mut entries = 0;
        let mut rest = ids.iter().copied().peekable();
        while let Some(&(src, _)) = rest.peek() {
            if entries == SOURCE_CAP {
                flush(buf, entries);
                entries = 0;
            }
            if buf.is_empty() {
                buf.extend_from_slice(&[0; 2]); // entry count
            }
            // One entry: up to `RANGE_CAP` ranges of `src`. A source with
            // more takes the next entry as well.
            buf.extend_from_slice(&src.to_le_bytes());
            let count_at = buf.len();
            buf.extend_from_slice(&[0; 2]);
            let mut ranges = 0;
            while ranges < RANGE_CAP {
                let Some((_, start)) = rest.next_if(|&(s, _)| s == src) else {
                    break;
                };
                let mut end = start;
                while let Some((_, next)) =
                    rest.next_if(|&(s, seq)| s == src && end.checked_add(1) == Some(seq))
                {
                    end = next;
                }
                buf.extend_from_slice(&start.to_le_bytes());
                buf.extend_from_slice(&end.to_le_bytes());
                ranges += 1;
            }
            buf[count_at..count_at + 2].copy_from_slice(&ranges.to_le_bytes());
            entries += 1;
        }
        if entries > 0 {
            flush(buf, entries);
        }
    }

    /// Unicast `self.ids` to `peer` as `kind` (`Advr` or `Want`), one
    /// message per digest, each under its own sequence number of the
    /// control space. Returns how many went out; leaves `ids` empty.
    fn send<P: RepairPort>(
        &mut self,
        enc: &mut Encoder,
        io: &mut P,
        kind: MsgKind,
        peer: usize,
    ) -> u64 {
        if self.ids.is_empty() {
            return 0;
        }
        self.encode();
        self.ids.clear();
        for payload in &self.payloads {
            let seq = enc.control_seq();
            let dgs = enc.encode(0, kind, payload, seq);
            io.send_encoded(peer, &dgs);
        }
        self.payloads.len() as u64
    }
}

impl GossipState {
    pub(crate) fn new(n: usize) -> Self {
        GossipState {
            peer_seen: vec![SeenTable::new(n); n],
            advertised: vec![SeenTable::new(n); n],
            relay: BTreeMap::new(),
            relay_order: VecDeque::new(),
            wanted: BTreeMap::new(),
            acked: AckBook::new(n),
            digests: DigestScratch::default(),
            relayed: Vec::new(),
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
        let mut fresh = std::mem::take(&mut self.relayed);
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
            self.relay_insert(m);
            fresh.push(key);
        }
        if !fresh.is_empty() {
            self.advertise(cx, io, &fresh, member);
            fresh.clear();
        }
        self.relayed = fresh;
        // 2. Queued gossip control, read in place off the payload.
        while let Some(msg) = cx.inbox.take_gossip() {
            let peer = msg.src_rank as usize;
            if peer == me {
                continue;
            }
            let Some(digest) = cx.admit(msg.src_rank, GossipDigestView::parse(&msg.payload)) else {
                continue;
            };
            match msg.kind {
                MsgKind::Advr => self.ingest_advr(cx, io, horizon, peer, digest),
                MsgKind::Want => self.answer_want(cx, io, peer, digest),
                _ => {}
            }
        }
        // 3. Expired pulls rotate to another known holder.
        self.retry_wants(cx, io, horizon, member);
    }

    /// Store one accepted payload for relaying, FIFO-evicting at
    /// [`RELAY_CAP`]. The caller has checked `src < n` and that the id is
    /// not already stored.
    fn relay_insert(&mut self, m: Message) {
        let key = (m.src_rank, m.seq);
        // The origin of a payload holds it by definition.
        self.peer_seen[key.0 as usize].note(key.0, key.1);
        self.acked.mark(key.0);
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
            for &(src, seq) in ids {
                if src as usize == p || self.peer_seen[p].contains(src, seq) {
                    continue; // the origin, or a peer already known to hold it
                }
                if !self.advertised[p].note(src, seq) {
                    continue; // already advertised to this peer
                }
                self.acked.mark(src);
                self.digests.ids.push((src, seq));
            }
            cx.stats.advrs_sent += self.digests.send(cx.enc, io, MsgKind::Advr, p);
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
        digest: GossipDigestView<'_>,
    ) {
        let me = cx.enc.rank as u32;
        let now = io.now();
        for e in digest.entries() {
            for r in e.ranges {
                // Bound the walk: a corrupt range cannot spin us.
                let end = r.end.min(r.start.saturating_add(4096));
                for s in r.start..=end {
                    let newly = self.peer_seen[peer].note(e.src, s);
                    if newly {
                        self.acked.mark(e.src);
                    }
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
                    self.digests.ids.push((e.src, s));
                }
            }
        }
        cx.stats.wants_sent += self.digests.send(cx.enc, io, MsgKind::Want, peer);
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
        digest: GossipDigestView<'_>,
    ) {
        let me = cx.enc.rank as u32;
        for e in digest.entries() {
            for r in e.ranges {
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
            self.digests.ids.extend_from_slice(&ids);
            cx.stats.wants_sent += self.digests.send(cx.enc, io, MsgKind::Want, peer);
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
    /// and the tables. A frontier equal to the one already stored (almost
    /// every one: a session message repeats all of them each period)
    /// costs one comparison against the bytes it arrived in; one naming a
    /// source outside the group is stray or hostile traffic and is
    /// ignored. A frontier is copied out of the payload only when it is
    /// stored.
    pub(crate) fn note_frontiers<'a>(
        &mut self,
        peer: usize,
        acks: impl Iterator<Item = SourceHorizonView<'a>>,
    ) {
        let book = &mut self.acked;
        for f in acks {
            let src = f.src as usize;
            if src >= book.n {
                continue;
            }
            let row = &mut book.rows[peer];
            if row.frontier.is_empty() {
                row.frontier.resize(book.n, None);
                row.prefix.resize(book.n, 0);
            }
            let prefix = acked_prefix(f.hwm, f.missing.iter());
            let stored = &mut row.frontier[src];
            if stored.as_ref().is_some_and(|old| f.same_as(old)) {
                if let Some(end) = prefix {
                    book.skipped.push((peer as u32, f.src, end));
                    if book.floor[src] < book.released[src] {
                        book.dirty[src] = true;
                    }
                }
                continue;
            }
            if let Some(end) = prefix {
                self.peer_seen[peer].note_range(f.src, SeqRange { start: 0, end });
            }
            match stored {
                Some(old) => f.store_into(old),
                None => *stored = Some(f.to_owned()),
            }
            row.prefix[src] = prefix.unwrap_or(0);
            book.dirty[src] = true;
        }
    }

    /// Horizon-driven GC: a relay entry every live peer (other than the
    /// origin) has acknowledged can never be pulled again, and
    /// per-source seen/advertised history below the group-wide
    /// acknowledged floor buys nothing — exactly the quorum rule
    /// [`HorizonState::gc_ring`] applies to the retransmit ring. Visits
    /// only the sources marked dirty since the last call (all of them
    /// when the dead-set moved): for any other source every input of the
    /// rule is what the last GC already acted on.
    pub(crate) fn gc(&mut self, enc: &Encoder, member: Option<&MemberState>) {
        let n = self.acked.n;
        for p in 0..n {
            let dead = membership::is_dead(member, p);
            if self.acked.dead[p] != dead {
                self.acked.dead[p] = dead;
                self.acked.dirty.fill(true);
            }
        }
        for src in 0..n {
            if std::mem::take(&mut self.acked.dirty[src]) {
                self.gc_source(enc.rank, src);
            }
        }
        self.acked.skipped.clear();
    }

    /// [`GossipState::gc`] for one source: drop its acknowledged relay
    /// entries, then release the tables below its floor.
    fn gc_source(&mut self, me: usize, src: usize) {
        let book = &mut self.acked;
        let n = book.n;
        #[cfg(test)]
        {
            book.quorum_evals += 1;
        }
        // Whose acknowledgement counts: every live peer but the origin.
        let votes = |dead: &[bool], p: usize| p != me && p != src && !dead[p];
        let (mut voters, mut floor) = (0, u64::MAX);
        for p in (0..n).filter(|&p| votes(&book.dead, p)) {
            voters += 1;
            floor = floor.min(book.prefix(p, src));
        }
        if voters == 0 {
            floor = 0;
        }
        let key = |seq: u64| (src as u32, seq);
        book.drop_seqs.clear();
        for (&(_, seq), _) in self.relay.range(key(0)..=key(u64::MAX)) {
            // At or below the floor every voter's prefix covers `seq`
            // (seq 0 excepted: prefix 0 also stands for "none").
            let acked = (seq != 0 && seq <= floor)
                || (0..n)
                    .filter(|&p| votes(&book.dead, p))
                    .all(|p| book.frontier(p, src).is_some_and(|f| f.acks(seq)));
            if acked {
                book.drop_seqs.push(seq);
            }
        }
        for &seq in &book.drop_seqs {
            self.relay.remove(&key(seq));
        }
        // A floor that fell back below what was already released: the
        // skipped prefix notes would have put part of it back.
        if floor < book.released[src] {
            for &(peer, s, end) in &book.skipped {
                if s as usize == src {
                    self.peer_seen[peer as usize].note_range(s, SeqRange { start: 0, end });
                }
            }
        }
        book.floor[src] = floor;
        if floor == 0 {
            return;
        }
        book.released[src] = book.released[src].max(floor);
        for p in 0..n {
            self.peer_seen[p].release_below(src as u32, floor);
            self.advertised[p].release_below(src as u32, floor);
        }
    }
}

/// The feed and the GC as they were before they became incremental, kept
/// as the oracle the tests below hold [`GossipState::note_frontiers`] and
/// [`GossipState::gc`] to: every frontier noted and stored, every relay
/// key and every source scanned, on every call. They read and write
/// nothing of [`AckBook`] but the stored frontiers.
#[cfg(test)]
impl GossipState {
    fn note_frontiers_reference(&mut self, peer: usize, acks: &[SourceHorizon]) {
        let n = self.acked.n;
        for f in acks.iter().filter(|f| (f.src as usize) < n) {
            if let Some(end) = acked_prefix(f.hwm, f.missing.iter().copied()) {
                self.peer_seen[peer].note_range(f.src, SeqRange { start: 0, end });
            }
            let row = &mut self.acked.rows[peer].frontier;
            row.resize(n, None);
            row[f.src as usize] = Some(f.clone());
        }
    }

    fn gc_reference(&mut self, enc: &Encoder, member: Option<&MemberState>) {
        let (me, n) = (enc.rank, enc.n);
        let dead: Vec<bool> = (0..n).map(|p| membership::is_dead(member, p)).collect();
        let quorum = |g: &GossipState, src: u32, seq: u64| {
            (0..n)
                .filter(|&p| p != me && p != src as usize && !dead[p])
                .all(|p| {
                    g.acked
                        .frontier(p, src as usize)
                        .is_some_and(|f| f.acks(seq))
                })
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
        let srcs: Vec<u32> = (0..n as u32)
            .filter(|&src| (0..n).any(|p| self.acked.frontier(p, src as usize).is_some()))
            .collect();
        for src in srcs {
            let floor = (0..n)
                .filter(|&p| p != me && p != src as usize && !dead[p])
                .map(|p| {
                    self.acked.frontier(p, src as usize).map_or(0, |f| {
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

#[cfg(test)]
mod tests {
    use mmpi_wire::{
        AckHorizonPayload, AckHorizonView, GossipDigest, RepairStats, RetransmitBuffer,
        SourceDigest,
    };
    use proptest::prelude::*;

    use super::*;
    use crate::config::{MembershipConfig, RepairConfig};
    use crate::inbox::Inbox;
    use crate::testing::ScriptedPump;

    /// One gossip plane and everything its entry points borrow.
    struct Rig {
        g: GossipState,
        enc: Encoder,
        inbox: Inbox,
        rtx: RetransmitBuffer,
        stats: RepairStats,
        horizon: HorizonState,
        member: MemberState,
        io: ScriptedPump,
        /// Drive the full-scan oracle instead of the incremental pair.
        reference: bool,
    }

    /// One step of a random history (see [`Rig::apply`]).
    type Op = (u8, u32, u32, u64, u64);

    fn horizon_of(src: u32, hwm: u64, shape: u64) -> SourceHorizon {
        let missing = match shape % 4 {
            0 | 1 => vec![],
            2 => vec![SeqRange {
                start: shape % (hwm + 1),
                end: hwm,
            }],
            _ => vec![SeqRange { start: 0, end: 0 }],
        };
        SourceHorizon { src, hwm, missing }
    }

    impl Rig {
        fn new(n: usize, me: usize, reference: bool) -> Self {
            let cfg = RepairConfig::sim_default().with_gossip();
            let hb = MembershipConfig {
                heartbeat_interval: std::time::Duration::from_millis(2),
            };
            Rig {
                g: GossipState::new(n),
                enc: Encoder::new(0, me, n, 60_000, true),
                inbox: Inbox::new(0, me as u32),
                rtx: RetransmitBuffer::new(8),
                stats: RepairStats::default(),
                horizon: HorizonState::new(&cfg, n),
                member: MemberState::new(hb, n),
                io: ScriptedPump::new(),
                reference,
            }
        }

        /// Feed one session message's frontiers: the oracle takes them
        /// as given, the plane as it meets them — a view of the payload.
        fn frontiers(&mut self, peer: usize, acks: &[SourceHorizon]) {
            if self.reference {
                self.g.note_frontiers_reference(peer, acks);
                return;
            }
            let payload = AckHorizonPayload {
                probe_ts: 0,
                echoes: vec![],
                acks: acks.to_vec(),
                member: None,
            }
            .encode();
            let view = AckHorizonView::parse(&payload).expect("own encoding");
            self.g.note_frontiers(peer, view.acks());
        }

        fn gc(&mut self) {
            if self.reference {
                self.g.gc_reference(&self.enc, Some(&self.member));
            } else {
                self.g.gc(&self.enc, Some(&self.member));
            }
        }

        /// Interpret one op. Small value ranges on purpose: repeated and
        /// regressing frontiers, re-noted ids and emptied quorums must be
        /// common, not rare.
        fn apply(&mut self, (kind, a, b, s, t): Op) {
            let (n, me) = (self.enc.n, self.enc.rank);
            let peer = 1 + a as usize % (n - 1); // never `me` (rank 0)
            let mut cx = Ctx {
                enc: &mut self.enc,
                inbox: &mut self.inbox,
                rtx: &mut self.rtx,
                stats: &mut self.stats,
            };
            match kind {
                0 | 1 => {
                    let src = 1 + b % (n as u32 - 1);
                    if !self.g.relay.contains_key(&(src, s)) {
                        self.g.relay_insert(Message {
                            kind: MsgKind::Data,
                            context: 0,
                            src_rank: src,
                            tag: 0,
                            seq: s,
                            payload: Bytes::new(),
                        });
                    }
                }
                2 => {
                    // `b` may name a source outside the group.
                    let digest = GossipDigest {
                        entries: vec![SourceDigest {
                            src: b,
                            ranges: vec![SeqRange {
                                start: s,
                                end: s + t % 3,
                            }],
                        }],
                    };
                    let payload = digest.encode();
                    let view = GossipDigestView::parse(&payload).expect("own encoding");
                    self.g
                        .ingest_advr(&mut cx, &mut self.io, &self.horizon, peer, view);
                }
                3 => {
                    let ids = [(b % n as u32, s)];
                    self.g
                        .advertise(&mut cx, &mut self.io, &ids, Some(&self.member));
                }
                4..=8 => {
                    let acks: Vec<SourceHorizon> = (0..1 + t % 3)
                        .map(|k| horizon_of((b + k as u32) % (n as u32 + 2), (s + k) % 12, t + k))
                        .collect();
                    self.frontiers(peer, &acks);
                }
                9 if t < 4 && peer != me => {
                    self.member.force_fail(peer);
                }
                _ => self.gc(),
            }
        }

        /// Everything the GC may touch, and everything a divergence in it
        /// would eventually move on the wire.
        fn observable(&self) -> impl PartialEq + std::fmt::Debug + '_ {
            (
                self.g.relay.keys().collect::<Vec<_>>(),
                &self.g.relay_order,
                &self.g.peer_seen,
                &self.g.advertised,
                self.g.wanted.keys().collect::<Vec<_>>(),
                (self.stats.advrs_sent, self.stats.wants_sent),
                self.stats.duplicate_payloads_avoided,
                self.io.unicasts_out,
            )
        }
    }

    /// The digest interner [`DigestScratch::encode`] replaced — a map of
    /// per-source range lists, compacted, chunked and handed to the owned
    /// encoder — kept as its oracle.
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
            for chunk in mmpi_wire::compact_ranges(ranges).chunks(MAX_DIGEST_RANGES) {
                if cur.len() == MAX_DIGEST_SOURCES {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The scratch encoder writes the bytes the owned encoder wrote:
        /// over random id lists — duplicates, runs, `u64::MAX`, more
        /// ranges than one entry and more entries than one digest holds —
        /// and with whatever the scratch last encoded still in it.
        #[test]
        fn scratch_digests_are_byte_identical_to_the_owned_encoder(
            lists in proptest::collection::vec(
                proptest::collection::vec(
                    (0u32..24, prop_oneof![0u64..40, (0u64..3).prop_map(|k| u64::MAX - k)], 1u64..4),
                    0..120,
                ),
                1..4,
            ),
        ) {
            let mut scratch = DigestScratch::default();
            for list in lists {
                // `stride` spreads a source's seqs out, so that some lists
                // are mostly runs and some mostly isolated ids.
                let ids: Vec<(u32, u64)> = list
                    .iter()
                    .map(|&(src, seq, stride)| (src, seq.saturating_mul(stride)))
                    .collect();
                let want: Vec<Bytes> = digests_of(&ids).iter().map(GossipDigest::encode).collect();
                scratch.ids.clone_from(&ids);
                scratch.encode();
                prop_assert_eq!(&scratch.payloads, &want);
            }
        }

        /// The equivalence oracle: over random histories of relay inserts,
        /// `Advr` ingests, advertisements, session messages (repeated,
        /// advancing and stale), failures and GCs, the incremental feed
        /// and GC leave exactly what the full scan leaves, after every GC.
        #[test]
        fn incremental_gc_matches_the_full_scan(
            ops in proptest::collection::vec(
                (0u8..12, 0u32..8, 0u32..8, 0u64..12, 0u64..12), 1..120),
        ) {
            let mut real = Rig::new(5, 0, false);
            let mut oracle = Rig::new(5, 0, true);
            for op in ops {
                real.apply(op);
                oracle.apply(op);
                if op.0 >= 10 {
                    prop_assert_eq!(real.observable(), oracle.observable());
                }
            }
            real.gc();
            oracle.gc();
            prop_assert_eq!(real.observable(), oracle.observable());
        }
    }

    /// The corner the `skipped` log exists for: a repeated frontier's
    /// prefix note is skipped, then a stale frontier later in the same
    /// batch drags the floor back below what was already released — the
    /// full scan would have re-noted the repeated prefix first.
    #[test]
    fn stale_frontier_replays_the_skipped_prefix_notes() {
        let full = |src, hwm| SourceHorizon {
            src,
            hwm,
            missing: vec![],
        };
        let mut rigs = [Rig::new(4, 0, false), Rig::new(4, 0, true)];
        for rig in &mut rigs {
            rig.frontiers(2, &[full(1, 10)]);
            rig.frontiers(3, &[full(1, 10)]);
            rig.gc(); // floor 10: everything of source 1 released
            rig.frontiers(2, &[full(1, 10)]); // repeated
            rig.frontiers(3, &[full(1, 4)]); // stale
            rig.gc();
            assert!(rig.g.peer_seen[2].contains(1, 5), "5..=10 is back");
            assert!(!rig.g.peer_seen[2].contains(1, 4));
        }
        assert_eq!(rigs[0].observable(), rigs[1].observable());
    }

    /// A session message that changes nothing costs comparisons only: no
    /// quorum is evaluated and the state-owned scratch does not grow.
    #[test]
    fn unchanged_session_message_evaluates_no_quorum() {
        let n = 32;
        let mut rig = Rig::new(n, 0, false);
        let acks: Vec<SourceHorizon> = (1..n as u32).map(|src| horizon_of(src, 7, 0)).collect();
        for _ in 0..2 {
            rig.frontiers(1, &acks);
            rig.gc();
        }
        let (evals, scratch) = (rig.g.acked.quorum_evals, rig.g.acked.skipped.capacity());
        assert_eq!(
            evals,
            n as u64 - 1,
            "the first message dirtied every source"
        );
        for _ in 0..100 {
            rig.frontiers(1, &acks);
            rig.gc();
        }
        assert_eq!(rig.g.acked.quorum_evals, evals);
        assert_eq!(rig.g.acked.skipped.capacity(), scratch);
    }

    /// Frontiers naming sources outside the group — stray or hostile
    /// traffic — must not grow anything.
    #[test]
    fn frontiers_for_sources_outside_the_group_are_ignored() {
        let n = 4;
        let mut rig = Rig::new(n, 0, false);
        for k in 0..1000u32 {
            let acks: Vec<SourceHorizon> = (0..32)
                .map(|j| horizon_of(n as u32 + k * 32 + j, 9, 0))
                .collect();
            rig.frontiers(1, &acks);
            rig.gc();
        }
        let book = &rig.g.acked;
        assert!(book
            .rows
            .iter()
            .all(|r| r.frontier.is_empty() && r.prefix.is_empty()));
        assert!(book.skipped.is_empty() && rig.g.peer_seen.iter().all(SeenTable::is_empty));
    }
}
