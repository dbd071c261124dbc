//! The epidemic dissemination plane (`docs/PROTOCOL.md` §11): a group
//! send is pushed eagerly down the binomial tree its origin's finger
//! graph forms ([`tree_children`]), each push behind its `Advr` on the
//! same path, and advertised lazily (`Advr` alone) to the holder's other
//! fingers. An `Advr` arms a pull that waits one repair timeout for the
//! push before its first `Want`, so the pulls — answered out of the
//! retransmit ring or the relay store, each payload at most once per
//! requester, a repeated `Want` drawing a `Served` echo instead — are
//! the repair path: a pull that has asked probes its holder every half
//! repair timeout, rotates to the next known holder when its echo proves
//! the answer lost, and re-pulls (`Repull`) from a holder whose echo
//! already did. Everything iterated into wire bytes is
//! `BTreeMap`/`Vec`-backed — replay determinism forbids hash-order output.
//!
//! Origins and relays alike advertise to their ⌊log₂(n−1)⌋+1 finger
//! peers only ([`GossipState::advertise_to_fingers`]), so a holder
//! answers that many pulls, not n−1. The plane still sends ≈ 140
//! `Advr`s a collective at N=32 and ingests as many, so both
//! directions work in place: digests and frontiers are read off the
//! received payload through `mmpi_wire`'s views, and what is sent is
//! encoded in scratch the state owns ([`DigestScratch`]) — an `Advr`
//! allocates its payload and `split_message`'s datagram, nothing else.

use std::collections::{BTreeMap, VecDeque};

use mmpi_wire::{
    split_message, Bytes, Datagram, GossipDigestView, Message, MsgKind, SeenTable, SeqRange,
    SourceHorizon, SourceHorizonView, MAX_DIGEST_RANGES, MAX_DIGEST_SOURCES,
};

use super::horizon::HorizonState;
use super::membership::{self, MemberState};
use super::{Ctx, Encoder};
use crate::pump::{Nanos, RepairPort};

/// Capacity of the relay store (messages): payloads this endpoint received
/// and re-advertises so partitioned peers can pull from it. Bounded like
/// the retransmit ring; the ACK-horizon plane frees fully-acknowledged
/// entries first.
const RELAY_CAP: usize = mmpi_wire::DEFAULT_RETRANSMIT_CAP;

/// One outstanding gossip pull: the holder it is addressed to, whether
/// it has asked yet, when to ask or probe that holder again, when to
/// give up on it, and which holders have proved their answer lost.
#[derive(Clone, Debug)]
struct WantPending {
    /// The peer the `Want` is (or will be) addressed to.
    peer: u32,
    /// The first `Want` has gone out. Until then the pull waits for the
    /// push its `Advr` heralded, and a payload landing is a push.
    asked: bool,
    /// When to ask `peer` — or, once asked, probe it again.
    at: Nanos,
    /// The probe interval once asked: half a repair timeout toward `peer`.
    every: Nanos,
    /// When to rotate to the next holder though `peer` never echoed: a
    /// dead or cut-off holder.
    rotate_at: Nanos,
    /// Holders whose `Served` echo proved their last answer to this pull
    /// lost, and that have not been re-pulled since: the next pull to one
    /// of them is a `Repull`. Empty (and unallocated) on a clean fabric.
    lost: Vec<u32>,
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
    /// Per-peer: which payloads we already unicast to that peer in answer
    /// to a `Want`. A repeated `Want` for one of them draws a `Served`
    /// echo, never a second payload. GC'd with `peer_seen`.
    served: Vec<SeenTable>,
    /// Relay store: payloads this endpoint accepted and re-advertises,
    /// so a peer partitioned from the origin can pull from us. Keyed
    /// `(src, seq)`; FIFO-evicted at [`RELAY_CAP`] via `relay_order`,
    /// horizon-GC'd first.
    relay: BTreeMap<(u32, u64), Message>,
    /// Insertion order of `relay` keys (the FIFO eviction queue). Keys GC
    /// took out of `relay` may linger here; after a GC they never
    /// outnumber the live ones ([`GossipState::compact_relay_order`]).
    relay_order: VecDeque<(u32, u64)>,
    /// Outstanding pulls by id, one holder at a time. The holder's
    /// `served` table, not the requester's patience, is what keeps each
    /// payload to one crossing per link.
    wanted: BTreeMap<(u32, u64), WantPending>,
    /// The horizon plane's feed and what [`GossipState::gc`] still owes
    /// for it.
    acked: AckBook,
    /// Where outgoing digests are built.
    digests: DigestScratch,
    /// Scratch: the ids one pass of [`GossipState::service`] newly relays
    /// after pulling them.
    relayed: Vec<(u32, u64)>,
    /// Scratch: payloads one pass took in that no pull was waiting for —
    /// a push whose `Advr` is still queued behind it in the same pass, a
    /// push whose `Advr` was lost, or a point-to-point send. An `Advr` of
    /// the same pass naming one claims it as a push; the rest are `held`.
    unclaimed: Vec<Message>,
    /// What earlier passes left unclaimed, and when, for one repair
    /// timeout. An `Advr` naming one claims it for the relay store and
    /// the lazy `Advr`s, not for the tree: by then the subtree below has
    /// had other holders' `Advr`s as long, and pushing on races its
    /// pulls. What no `Advr` names in time is dropped.
    held: Vec<(Nanos, Message)>,
}

/// The binomial tree the finger graph forms around origin `src`: `me`'s
/// children, the fingers `me + d` for the powers of two `d > r` with
/// `r + d < n`, where `r = (me − src) mod n` — smallest offset (largest
/// subtree) first. Every rank but the origin is the child of exactly one
/// rank, so the pushes cross n−1 links.
fn tree_children(me: usize, src: usize, n: usize) -> impl Iterator<Item = usize> {
    let r = (me + n - src) % n;
    std::iter::successors(Some(1usize), |&d| d.checked_mul(2))
        .take_while(move |&d| r + d < n)
        .filter(move |&d| d > r)
        .map(move |d| (me + d) % n)
}

/// The datagrams a stored relay message goes out as: re-encoded under
/// the *origin's* rank and sequence number, so the receiver's dedup and
/// matching treat the relayed copy exactly like the original.
fn relay_datagrams(m: &Message, enc: &Encoder) -> Vec<Datagram> {
    split_message(
        m.kind,
        m.context,
        m.src_rank,
        m.tag,
        m.seq,
        &m.payload,
        enc.max_chunk,
    )
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
/// list encoded — a pass that advertises one id to its fingers (five at
/// N=32) encodes it once and hands each a handle to the same bytes.
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

    /// Unicast `self.ids` to `peer` as `kind` (`Advr`, `Want` or `Served`), one
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
            served: vec![SeenTable::new(n); n],
            relay: BTreeMap::new(),
            relay_order: VecDeque::new(),
            wanted: BTreeMap::new(),
            acked: AckBook::new(n),
            digests: DigestScratch::default(),
            relayed: Vec::new(),
            unclaimed: Vec::new(),
            held: Vec::new(),
        }
    }

    /// Earliest outstanding pull ask or retry, if any — folded into the
    /// park deadline so a lost push, `Want` or answer is re-solicited even
    /// from an endpoint parked in a wait loop.
    pub(crate) fn next_deadline(&self) -> Option<Nanos> {
        self.wanted.values().map(|w| w.at).min()
    }

    /// One pass of the gossip state machine: fold freshly landed
    /// payloads into the relay store — pushing on down the tree what came
    /// by push, advertising what came by pull — then ingest queued `Advr`s
    /// (arming a pull for what we miss), `Want`s (answering out of the
    /// ring or relay, or echoing), `Repull`s (answering) and `Served`
    /// echoes (re-pulling an answer that was lost), then ask, probe or
    /// rotate expired pulls.
    pub(crate) fn service<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        horizon: &HorizonState,
        member: Option<&MemberState>,
    ) {
        let (me, n) = (cx.enc.rank, cx.enc.n);
        // 1. Relay feed: every payload an `Advr` heralded becomes
        //    answerable here. One that landed while its pull still waited
        //    is a push, and goes on down the tree; one an asked pull drew
        //    is advertised onward to our finger peers and never pushed —
        //    the lazy relay that lets a peer cut off from its tree parent
        //    pull from whoever it *can* reach. What no pull waits for is
        //    held for this pass's `Advr`s — a push may have overtaken its
        //    own `Advr` in the queues — and then for a repair timeout, in
        //    case its `Advr` was lost. What nobody advertises to us — a
        //    point-to-point send, or its NACK repair — stays with its
        //    receiver. A pull is still `wanted` here: only
        //    `retry_wants`, below, retires the ones that landed.
        let now = io.now();
        let (t, _) = horizon.timers(None);
        self.held.retain(|&(at, _)| now < at.saturating_add(t));
        let mut fresh = std::mem::take(&mut self.relayed);
        while let Some(m) = cx.inbox.take_data_log() {
            let key = (m.src_rank, m.seq);
            if key.0 as usize >= n || self.relay.contains_key(&key) {
                continue;
            }
            match self.wanted.get(&key) {
                Some(w) if !w.asked => self.hold_pushed(cx, io, m, member),
                Some(_) => {
                    self.relay_insert(m);
                    fresh.push(key);
                }
                None => self.unclaimed.push(m),
            }
        }
        if !fresh.is_empty() {
            self.advertise_to_fingers(cx, io, &fresh, member);
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
                MsgKind::Advr => self.ingest_advr(cx, io, horizon, member, peer, digest),
                MsgKind::Want => self.answer_want(cx, io, peer, digest, false),
                MsgKind::Repull => self.answer_want(cx, io, peer, digest, true),
                MsgKind::Served => self.ingest_served(cx, io, horizon, member, peer, digest),
                _ => {}
            }
        }
        self.held.extend(self.unclaimed.drain(..).map(|m| (now, m)));
        // 3. Expired pulls ask or probe their holder, or rotate off a
        //    silent one.
        self.retry_wants(cx, io, horizon, member);
    }

    /// Take in a payload that arrived by push: store it for relaying and
    /// push it on to our own tree children, then advertise it lazily to
    /// the rest of our fingers. A leaf encodes nothing.
    fn hold_pushed<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        m: Message,
        member: Option<&MemberState>,
    ) {
        let key = (m.src_rank, m.seq);
        let dgs = match tree_children(cx.enc.rank, key.0 as usize, cx.enc.n).next() {
            Some(_) => relay_datagrams(&m, cx.enc),
            None => Vec::new(),
        };
        self.relay_insert(m);
        self.push_down_tree(cx, io, key, &dgs, member);
    }

    /// The eager push of a group send, by its origin (`dgs` are the
    /// recorded datagrams) and by every relay that itself received it by
    /// push: to each live tree child ([`tree_children`]) not known to
    /// hold it, an `Advr` of the id and then the payload, on the same
    /// path — so a child that loses the push has the `Advr` to pull by.
    /// Only after every push are the other fingers told, lazily
    /// ([`GossipState::advertise_to_fingers`]). A push counts as served:
    /// a child's later `Want` for it draws an echo, not a second copy.
    pub(crate) fn push_down_tree<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        (src, seq): (u32, u64),
        dgs: &[Datagram],
        member: Option<&MemberState>,
    ) {
        for child in tree_children(cx.enc.rank, src as usize, cx.enc.n) {
            if membership::is_dead(member, child) || self.peer_seen[child].contains(src, seq) {
                continue;
            }
            self.acked.mark(src);
            if self.advertised[child].note(src, seq) {
                self.digests.ids.push((src, seq));
                cx.stats.advrs_sent += self.digests.send(cx.enc, io, MsgKind::Advr, child);
            }
            if self.served[child].note(src, seq) {
                cx.stats.pushes_sent += 1;
                io.send_encoded(child, dgs);
            }
        }
        self.advertise_to_fingers(cx, io, &[(src, seq)], member);
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

    /// After a GC: drop the keys it took out of `relay` from the eviction
    /// queue once they outnumber the live ones. The live keys keep their
    /// order, and eviction popped a dropped key as a no-op (a key enters
    /// the store once: the inbox logs each id once), so nothing is
    /// evicted at another time.
    fn compact_relay_order(&mut self) {
        if self.relay_order.len() > 2 * self.relay.len() {
            let relay = &self.relay;
            self.relay_order.retain(|k| relay.contains_key(k));
        }
    }

    /// The lazy push of a group send, by every holder: unicast an `Advr`
    /// digest of `ids` to each live finger peer — the `p` with
    /// `(p − me) mod n` a power of two, ⌊log₂(n−1)⌋+1 of them — that is
    /// not already known (or already told) to hold them. Every rank is a
    /// finger of some holder, so the digest reaches the group in
    /// ⌈log₂ n⌉ relay hops even where pushes are lost, and no holder
    /// answers more pulls than it has fingers. A dead finger is skipped,
    /// not replaced. The per-peer `advertised` table is what keeps
    /// re-sends and relay loops from amplifying: an id is advertised to a
    /// peer once, ever, per endpoint — so a tree child, told ahead of its
    /// push, is not told again here.
    fn advertise_to_fingers<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        ids: &[(u32, u64)],
        member: Option<&MemberState>,
    ) {
        let (me, n) = (cx.enc.rank, cx.enc.n);
        for p in 0..n {
            let finger = ((p + n - me) % n).is_power_of_two();
            if p == me || !finger || membership::is_dead(member, p) {
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
    /// knowledge (the peer holds it and will answer pulls); an id we do
    /// not hold and are not already pulling arms a pull from the
    /// advertiser that waits one repair timeout for the push before it
    /// asks. An id that landed this pass with no pull waiting is the push
    /// this `Advr` heralds, and goes on down the tree; one an earlier pass
    /// left `held` — its own `Advr` lost — is stored and advertised
    /// lazily. Other ids we already hold count as
    /// `duplicate_payloads_avoided` — each is a payload that did *not*
    /// cross our link a second time.
    fn ingest_advr<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        horizon: &HorizonState,
        member: Option<&MemberState>,
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
                        let is_id = |m: &Message| (m.src_rank, m.seq) == (e.src, s);
                        if let Some(i) = self.unclaimed.iter().position(is_id) {
                            let m = self.unclaimed.swap_remove(i);
                            self.hold_pushed(cx, io, m, member);
                        } else if let Some(i) = self.held.iter().position(|(_, m)| is_id(m)) {
                            let (_, m) = self.held.swap_remove(i);
                            self.relay_insert(m);
                            self.advertise_to_fingers(cx, io, &[(e.src, s)], member);
                        } else if newly {
                            cx.stats.duplicate_payloads_avoided += 1;
                        }
                        continue;
                    }
                    if self.wanted.contains_key(&(e.src, s)) {
                        continue; // pull armed; `peer` is a known alternate now
                    }
                    let pull = Self::pull_from(cx.enc, horizon, peer, now, Vec::new(), true);
                    self.wanted.insert((e.src, s), pull);
                }
            }
        }
    }

    /// Answer one peer's pull: our own traffic replays out of the
    /// retransmit ring (group records, or unicasts that were addressed
    /// to the requester — never another rank's point-to-point payload),
    /// relayed traffic re-encodes from the relay store under the
    /// *origin's* rank and sequence number, so the requester's dedup and
    /// matching treat the relayed copy exactly like the original. Each
    /// payload goes to a requester once: ids already served are echoed
    /// back in one `Served` digest, which on a FIFO path lands behind the
    /// payload it names — unless the pull is a `Repull` (`repull`): the
    /// requester's evidence that our answer was lost, so the payload goes
    /// again. Ids we do not hold go unanswered — the requester rotates to
    /// another holder at its deadline, and the NACK plane backstops it.
    fn answer_want<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        peer: usize,
        digest: GossipDigestView<'_>,
        repull: bool,
    ) {
        let me = cx.enc.rank as u32;
        for e in digest.entries() {
            for r in e.ranges {
                let end = r.end.min(r.start.saturating_add(4096));
                for s in r.start..=end {
                    if !repull && self.served[peer].contains(e.src, s) {
                        self.digests.ids.push((e.src, s));
                        continue;
                    }
                    let answer = if e.src == me {
                        cx.rtx
                            .find_seq(s)
                            .filter(|rec| rec.matches(peer as u32, rec.tag))
                            .map(|rec| rec.datagrams.clone())
                    } else {
                        self.relay
                            .get(&(e.src, s))
                            .map(|m| relay_datagrams(m, cx.enc))
                    };
                    if let Some(dgs) = answer {
                        self.served[peer].note(e.src, s);
                        self.acked.mark(e.src);
                        cx.stats.pulls_answered += 1;
                        io.send_encoded(peer, &dgs);
                    }
                }
            }
        }
        cx.stats.echoes_sent += self.digests.send(cx.enc, io, MsgKind::Served, peer);
    }

    /// Fold one holder's echo: an id it names that we still miss, and are
    /// pulling from that same holder, had its answer sent ahead of the
    /// echo on the same path — the answer was lost. Rotate that pull to
    /// the next live holder at once, the echoing one itself when no other
    /// is known: a `Want` to a holder with no lost answer, a `Repull` to
    /// one whose echo proved it (then that holder's answer is unproven
    /// again). A `Repull` goes out only here, right behind the echo that
    /// justifies it, so on a FIFO path it never duplicates an answer
    /// still on its way. An echo naming ids we pull from someone else, or
    /// hold, changes nothing.
    fn ingest_served<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        horizon: &HorizonState,
        member: Option<&MemberState>,
        peer: usize,
        digest: GossipDigestView<'_>,
    ) {
        let now = io.now();
        let mut per_peer: BTreeMap<(usize, bool), Vec<(u32, u64)>> = BTreeMap::new();
        for e in digest.entries() {
            for r in e.ranges {
                let end = r.end.min(r.start.saturating_add(4096));
                for s in r.start..=end {
                    let key = (e.src, s);
                    let Some(w) = self.wanted.get_mut(&key) else {
                        continue;
                    };
                    if !w.asked || w.peer as usize != peer || cx.inbox.has_seen(e.src, s) {
                        continue;
                    }
                    let mut lost = std::mem::take(&mut w.lost);
                    if !lost.contains(&(peer as u32)) {
                        lost.push(peer as u32);
                    }
                    let next = self
                        .next_holder(cx.enc, member, key, peer, true)
                        .unwrap_or(peer);
                    let repull = lost.contains(&(next as u32));
                    lost.retain(|&p| p as usize != next);
                    let pull = Self::pull_from(cx.enc, horizon, next, now, lost, false);
                    self.wanted.insert(key, pull);
                    per_peer.entry((next, repull)).or_default().push(key);
                }
            }
        }
        self.send_pulls(cx, io, per_peer);
    }

    /// Retire pulls whose payload landed, then act on expired ones: a pull
    /// whose push never came asks its advertiser; one that has asked
    /// probes the same holder again, half a repair timeout later each
    /// time — a probe is a `Want`, so a queued answer is never pulled
    /// twice, and a lost one draws the echo that re-pulls it — or, once
    /// the holder has been silent past its `n/2`-stretched deadline,
    /// rotates to the next live peer known to hold the id. An id with no
    /// live known holder left is dropped: the per-request NACK plane is
    /// the backstop for truly lost traffic.
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
        let expired: Vec<(u32, u64)> = self
            .wanted
            .iter()
            .filter(|(_, w)| now >= w.at)
            .map(|(&k, _)| k)
            .collect();
        let mut per_peer: BTreeMap<(usize, bool), Vec<(u32, u64)>> = BTreeMap::new();
        for key in expired {
            let Some(w) = self.wanted.get_mut(&key) else {
                continue;
            };
            let prev = w.peer as usize;
            if !w.asked || now < w.rotate_at {
                // The overdue push's first ask, or a probe: the same
                // holder, one interval on.
                w.asked = true;
                w.at = now.saturating_add(w.every).min(w.rotate_at);
                per_peer.entry((prev, false)).or_default().push(key);
                continue;
            }
            let lost = std::mem::take(&mut w.lost);
            match self.next_holder(cx.enc, member, key, prev, false) {
                Some(peer) => {
                    let pull = Self::pull_from(cx.enc, horizon, peer, now, lost, false);
                    self.wanted.insert(key, pull);
                    per_peer.entry((peer, false)).or_default().push(key);
                }
                None => {
                    self.wanted.remove(&key);
                }
            }
        }
        self.send_pulls(cx, io, per_peer);
    }

    /// The first live peer known to hold `key` ranked strictly after
    /// `prev`, wrapping to the smallest — a deterministic rotation (no
    /// RNG: replay must hold). `prev` itself comes last, or not at all
    /// with `skip_prev`.
    fn next_holder(
        &self,
        enc: &Encoder,
        member: Option<&MemberState>,
        (src, s): (u32, u64),
        prev: usize,
        skip_prev: bool,
    ) -> Option<usize> {
        (0..enc.n)
            .filter(|&p| {
                p != enc.rank
                    && !(skip_prev && p == prev)
                    && !membership::is_dead(member, p)
                    && self.peer_seen[p].contains(src, s)
            })
            .min_by_key(|&p| (p <= prev, p))
    }

    /// Send one merged pull per `(holder, is a Repull)`: a `Want`, or a
    /// `Repull`. Both count as pulls sent.
    fn send_pulls<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        per_peer: BTreeMap<(usize, bool), Vec<(u32, u64)>>,
    ) {
        for ((peer, repull), ids) in per_peer {
            let kind = if repull {
                MsgKind::Repull
            } else {
                MsgKind::Want
            };
            self.digests.ids.extend_from_slice(&ids);
            cx.stats.wants_sent += self.digests.send(cx.enc, io, kind, peer);
        }
    }

    /// A fresh pull of one id from `peer` at `now`, with T one repair
    /// timeout toward `peer` (`nack_timeout`, or the adaptive per-peer
    /// RTO). `deferred` — an `Advr` armed it — the pull first waits T for
    /// the push; otherwise it has just asked. Once asked it probes every
    /// T/2 — a holder answers at most ⌊log₂(n−1)⌋+1 pulls, so its queue
    /// is short, and the `Served` echo keeps a probe from re-sending a
    /// payload — and rotates `n/2` × T (floor 1×) after asking, the
    /// constant-bandwidth-share stretch, which only a holder that never
    /// echoes (dead, cut off, or no longer holding the id) lets run out;
    /// a live holder's echo rotates the pull long before it. `lost`
    /// carries over from the pull this one replaces.
    fn pull_from(
        enc: &Encoder,
        horizon: &HorizonState,
        peer: usize,
        now: Nanos,
        lost: Vec<u32>,
        deferred: bool,
    ) -> WantPending {
        let (t, _) = horizon.timers(Some(peer));
        let t = t.max(2);
        let every = t / 2;
        // When the first `Want` goes out, and when the pull acts next.
        let (asks_at, at) = if deferred {
            (now.saturating_add(t), now.saturating_add(t))
        } else {
            (now, now.saturating_add(every))
        };
        WantPending {
            peer: peer as u32,
            asked: !deferred,
            at,
            every,
            rotate_at: asks_at.saturating_add(t.saturating_mul((enc.n as u64 / 2).max(1))),
            lost,
        }
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
        self.compact_relay_order();
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
            self.served[p].release_below(src as u32, floor);
        }
    }
}

#[cfg(test)]
#[path = "gossip_tests.rs"]
mod tests;
