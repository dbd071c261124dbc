//! The SRM plane (`docs/PROTOCOL.md` §8): answering NACKs out of the
//! retransmit ring, and deciding — at a posted receive's expired deadline —
//! whether to solicit or stay quiet because a peer already did.

use std::collections::HashMap;

use mmpi_netsim::rng::SplitMix64;
use mmpi_wire::{MsgKind, NackPayload, NackView, SendDst, UnavailPayload, NACK_TARGET_ANY};

use super::horizon::HorizonState;
use super::membership::{self, MemberState};
use super::{Ctx, Encoder};
use crate::api::Tag;
use crate::config::RepairConfig;
use crate::pump::{dur_nanos, Nanos, RepairPort};

/// Drop stale entries once a suppression map has grown past a small
/// bound — keeps the maps O(live window) without a timer wheel.
fn prune_stale<K: std::hash::Hash + Eq>(map: &mut HashMap<K, Nanos>, now: Nanos, window: Nanos) {
    if map.len() >= 128 {
        map.retain(|_, &mut at| now.saturating_sub(at) < window);
    }
}

/// Per-endpoint SRM scale-out state: the seeded backoff stream plus the
/// two suppression memories (solicits overheard from peers, repairs this
/// endpoint already multicast).
#[derive(Debug)]
pub(crate) struct SrmState {
    cfg: RepairConfig,
    /// Deterministic backoff jitter: seeded from
    /// `(config seed, rank, context)`, so a replayed simulation draws the
    /// identical delays.
    rng: SplitMix64,
    /// `(target, tag) → when` we last overheard a peer's solicit for that
    /// traffic. Our own deadline expiring inside the suppression window
    /// of such an entry is suppressed: the peer's NACK will trigger a
    /// multicast repair that heals us too.
    heard: HashMap<(u32, Tag), Nanos>,
    /// `seq → when` we last answered with a *multicast* retransmission —
    /// the responder-side window that keeps one loss from producing one
    /// repair per stuck receiver.
    repaired: HashMap<u64, Nanos>,
}

impl SrmState {
    pub(crate) fn new(cfg: &RepairConfig, rank: usize, context: u32) -> Self {
        // Decorrelate endpoints sharing one configured seed.
        let mix = cfg.seed
            ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (context as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        SrmState {
            cfg: *cfg,
            rng: SplitMix64::new(mix),
            heard: HashMap::new(),
            repaired: HashMap::new(),
        }
    }

    fn note_heard(&mut self, target: u32, tag: Tag, now: Nanos, window: Nanos) {
        prune_stale(&mut self.heard, now, window);
        self.heard.insert((target, tag), now);
    }

    /// Was a peer's solicit *covering* `(target, tag)` overheard within
    /// the window? A specific target is covered by an overheard solicit
    /// naming the same rank or naming any-source (every peer answers an
    /// ANY solicit, the target included). Our own any-source wait
    /// (`target = None`) is covered only by an overheard ANY solicit —
    /// a solicit naming one specific rank draws only *that* rank's
    /// records, which need not include the message our wait is for.
    fn heard_recently(&self, target: Option<u32>, tag: Tag, now: Nanos, window: Nanos) -> bool {
        let fresh = |at: &Nanos| now.saturating_sub(*at) < window;
        let covered = |k: &(u32, Tag)| self.heard.get(k).is_some_and(fresh);
        match target {
            Some(t) => covered(&(t, tag)) || covered(&(NACK_TARGET_ANY, tag)),
            None => covered(&(NACK_TARGET_ANY, tag)),
        }
    }

    fn recently_repaired(&self, seq: u64, now: Nanos, window: Nanos) -> bool {
        self.repaired
            .get(&seq)
            .is_some_and(|&at| now.saturating_sub(at) < window)
    }

    fn note_repaired(&mut self, seq: u64, now: Nanos, window: Nanos) {
        prune_stale(&mut self.repaired, now, window);
        self.repaired.insert(seq, now);
    }

    /// Answer every queued NACK out of the retransmit buffer. A solicit
    /// addressed to another rank is only *overheard* (it arms the
    /// suppression memory); one addressed to us answers with a
    /// **multicast** re-send for originally-multicast records — one
    /// repair heals every stuck receiver, and a responder-side window
    /// keeps the same loss from being repaired once per requester —
    /// while unicast records still replay unicast to their requester
    /// (re-multicasting them would leak point-to-point payload). A NACK
    /// matching nothing whose tag falls at or below the ring's eviction
    /// floor is answered with `Unavail`, so the requester fails fast
    /// instead of re-soliciting forever. Re-sends always reuse the
    /// original sequence number (receivers that already have the message
    /// dedup the copy) and re-send the recorded views themselves — no
    /// per-record clone.
    pub(crate) fn service<P: RepairPort>(&mut self, cx: &mut Ctx<'_>, io: &mut P) {
        let window = dur_nanos(self.cfg.suppress_window);
        let me = cx.enc.rank as u32;
        while let Some(nack) = cx.inbox.take_nack() {
            let requester = nack.src_rank;
            // Read in place: a solicit this endpoint only overhears costs
            // it no allocation.
            let Some(payload) = cx.admit(requester, NackView::parse(&nack.payload)) else {
                continue;
            };
            let now = io.now();
            // Every foreign solicit — whoever it targets, ourselves and
            // any-source included — arms the suppression memory: if we
            // are stuck on the same traffic, the repair it triggers will
            // heal us too, so our own deadline expiry can stay quiet.
            self.note_heard(payload.target, nack.tag, now, window);
            if payload.target != me && payload.target != NACK_TARGET_ANY {
                // Addressed to another rank: suppression signal only.
                cx.stats.nacks_overheard += 1;
                continue;
            }
            cx.stats.nacks_received += 1;
            // `matched_any`: some retained record carries the tag at
            // all. `answered`: a record the requester is actually
            // missing was re-sent (or its multicast repair is already in
            // flight) — only that satisfies the solicit.
            let mut matched_any = false;
            let mut answered = false;
            // Under gossip the fabric has no multicast: every repair is
            // a unicast to the requester, and the responder-side repeat
            // suppression does not apply (each requester needs its own
            // copy — there is no shared repair for peers to overhear).
            let mcast_repair = !cx.enc.unicast_only;
            for record in cx.rtx.matching(requester, nack.tag) {
                matched_any = true;
                if !payload.covers(record.seq) {
                    // The requester's missing-ranges say it already holds
                    // this message — nothing to re-send.
                    cx.stats.repairs_suppressed += 1;
                    continue;
                }
                answered = true;
                if record.dst == SendDst::Multicast && mcast_repair {
                    if self.recently_repaired(record.seq, now, window) {
                        cx.stats.repairs_suppressed += 1;
                    } else {
                        cx.stats.retransmits_sent += 1;
                        io.send_encoded_mcast(&record.datagrams);
                        self.note_repaired(record.seq, now, window);
                    }
                } else {
                    cx.stats.retransmits_sent += 1;
                    io.send_encoded(requester as usize, &record.datagrams);
                }
            }
            // Fail-fast advertisement. Tags are nondecreasing per
            // sender, so a tag at or below the eviction floor names
            // traffic that can be gone for good; the wrap guard keeps a
            // stale floor inert after the 24-bit op-sequence in the tag
            // layout wraps. Only solicits that name *us* specifically
            // qualify — an any-source NACK is serviced by every peer,
            // and a peer that never held the traffic must not declare it
            // unrecoverable while the real holder's repair is in flight.
            // Two unanswerable shapes: no retained record carries the
            // tag at all, or (same-tag streams past the ring) newer
            // same-tag records survive but the requester's advertised
            // holes reach at or below the eviction horizon in seq space
            // and none of the retained records fills them.
            let evicted_floor = cx.rtx.evicted_tag_max().filter(|&floor| {
                payload.target == me
                    && nack.tag <= floor
                    && floor - nack.tag < (1 << 31)
                    && (!matched_any
                        || (!answered
                            && cx.rtx.evicted_seq_max().is_some_and(|horizon| {
                                payload.missing.iter().any(|r| r.start <= horizon)
                            })))
            });
            if let Some(floor) = evicted_floor {
                cx.stats.unavailable_sent += 1;
                let pl = UnavailPayload { tag_floor: floor }.encode();
                let seq = cx.enc.fresh_seq();
                let dgs = cx.enc.encode(nack.tag, MsgKind::Unavail, &pl, seq);
                io.send_encoded(requester as usize, &dgs);
            } else if !matched_any {
                // Not yet sent (the normal-path match will handle it) or
                // never ours: count and stay silent.
                cx.stats.unanswered_nacks += 1;
            }
        }
    }

    /// Solicit a retransmission of `tag` traffic: one *multicast* NACK
    /// naming the target (or any-source) plus the sequence ranges we are
    /// missing — peers overhear it and suppress their own.
    fn solicit<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        src: Option<usize>,
        tag: Tag,
        horizon: &mut HorizonState,
        member: Option<&MemberState>,
    ) {
        if src == Some(cx.enc.rank) {
            return; // self-sends never need repair
        }
        if src.is_some_and(|s| membership::is_dead(member, s)) {
            // Confirmed dead or departed: NACKing a corpse can never be
            // answered, and the blocked receive is about to complete
            // with `PeerFailed` instead.
            return;
        }
        if let Some(s) = src {
            horizon.note_solicited(io, s);
        }
        let target = src.map_or(NACK_TARGET_ANY, |s| s as u32);
        let missing = match src {
            Some(s) => cx.inbox.missing_from(s as u32),
            None => Vec::new(),
        };
        let payload = NackPayload { target, missing }.encode();
        cx.stats.nacks_sent += 1;
        let seq = cx.enc.fresh_seq();
        let dgs = cx.enc.encode(tag, MsgKind::Nack, &payload, seq);
        if cx.enc.unicast_only {
            // No multicast to overhear: the solicit goes straight to
            // the awaited source (or to every live peer when
            // any-source — each may hold a relayed copy).
            match src {
                Some(s) => io.send_encoded(s, &dgs),
                None => cx.enc.group_transmit(io, member, &dgs),
            }
        } else {
            io.send_solicit(src, &dgs);
        }
    }

    /// Next solicitation deadline: `now + nack_timeout` plus a uniform
    /// draw from `[0, backoff]` off the endpoint's seeded stream. The
    /// jitter is what de-synchronizes the group's stuck receivers so one
    /// solicit goes out first and the rest overhear it. With adaptivity
    /// on, both terms are the RTT-derived per-peer pair of
    /// [`HorizonState::timers`] for a directed `src`.
    ///
    /// Under the gossip dissemination plane the deadline is stretched by
    /// the same `n/2` factor as the `Want` rotation: there, normal
    /// delivery *is* the Advr→Want→answer pull (plus its fan-in
    /// queueing), so an unstretched NACK races the pull and its
    /// retransmission puts a second copy of the payload on a link the
    /// pull already crossed. The NACK plane stays the final backstop —
    /// it just fires behind the rotation instead of in front of it.
    pub(crate) fn deadline<P: RepairPort>(
        &mut self,
        enc: &Encoder,
        io: &mut P,
        horizon: &HorizonState,
        src: Option<usize>,
    ) -> Nanos {
        let (mut t, b) = horizon.timers(src);
        if enc.unicast_only {
            t = t.saturating_mul((enc.n as u64 / 2).max(1));
        }
        let mut at = io.now() + t;
        if b > 0 {
            at += self.rng.next_below(b + 1);
        }
        at
    }

    /// True when our own solicit for `(src, tag)` should be skipped
    /// because a peer's was overheard inside the suppression window —
    /// which scales with the adaptive timeout ratio for a directed
    /// source, so fast links suppress briefly and slow links long
    /// enough for their slower repairs to land.
    fn suppressed(&self, horizon: &HorizonState, now: Nanos, src: Option<usize>, tag: Tag) -> bool {
        let base_w = dur_nanos(self.cfg.suppress_window);
        let base_t = dur_nanos(self.cfg.nack_timeout);
        let window = if self.cfg.adaptive && base_t > 0 {
            let (t, _) = horizon.timers(src);
            (base_w.saturating_mul(t) / base_t).max(1)
        } else {
            base_w
        };
        self.heard_recently(src.map(|s| s as u32), tag, now, window)
    }

    /// Solicit-or-suppress at a posted receive's expired deadline,
    /// returning its next one.
    pub(crate) fn solicit_step<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        src: Option<usize>,
        tag: Tag,
        horizon: &mut HorizonState,
        member: Option<&MemberState>,
    ) -> Nanos {
        if self.suppressed(horizon, io.now(), src, tag) {
            cx.stats.nacks_suppressed += 1;
        } else {
            self.solicit(cx, io, src, tag, horizon, member);
        }
        self.deadline(cx.enc, io, horizon, src)
    }
}
