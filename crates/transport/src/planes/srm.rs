//! The SRM plane (`docs/PROTOCOL.md` §8): answering NACKs out of the
//! retransmit ring, deciding — at a posted receive's expired deadline —
//! whether to solicit or stay quiet because a peer already did, the
//! standing requests and send notices of §8.4, and when a send goes out
//! twice (§8.5).

use std::collections::HashMap;

use mmpi_netsim::rng::SplitMix64;
use mmpi_wire::{MsgKind, NackPayload, NackView, SendDst, UnavailPayload, NACK_TARGET_ANY};

use super::horizon::{HorizonState, MAX_STRETCH};
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

/// How many solicit timeouts (`nack_timeout`) a solicit sent or taken in
/// keeps one-frame sends copied (§8.5): a loss seen now says the fabric is
/// lossy for the next few exchanges, not for the rest of the run.
const COPY_WINDOW_TIMEOUTS: u64 = 8;

/// Per-endpoint SRM scale-out state: the seeded backoff stream, the two
/// suppression memories (solicits overheard from peers, repairs this
/// endpoint already multicast), the solicits that came before the
/// traffic they name, and when this endpoint last saw a solicit.
#[derive(Debug)]
pub(crate) struct SrmState {
    cfg: RepairConfig,
    /// Deterministic backoff jitter: seeded from
    /// `(config seed, rank, context)`, so a replayed simulation draws the
    /// identical delays.
    rng: SplitMix64,
    /// `(target, tag) → when` we last overheard a peer's solicit for that
    /// traffic. Our own deadline expiring less than one solicit timeout
    /// after such an entry is suppressed: the peer's NACK will trigger a
    /// multicast repair that heals us too.
    heard: HashMap<(u32, Tag), Nanos>,
    /// `seq → when` we last answered with a *multicast* retransmission —
    /// the responder-side window that keeps one loss from producing one
    /// repair per stuck receiver.
    repaired: HashMap<u64, Nanos>,
    /// Standing requests: `(tag, requester) → when` a peer last solicited
    /// a tag of ours that we had not sent yet. The first send of the tag
    /// answers them with a send notice ([`SrmState::answer_standing`]).
    standing: HashMap<(Tag, u32), Nanos>,
    /// When this endpoint last sent or took in a solicit on a multicast
    /// fabric: the group is repairing loss, so one-frame sends go out
    /// twice ([`SrmState::copies_due`]). `None` until the first, and
    /// always under gossip.
    solicit_seen: Option<Nanos>,
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
            standing: HashMap::new(),
            solicit_seen: None,
        }
    }

    /// Is the group repairing loss, as far as this endpoint can tell: did
    /// it send or take in a solicit less than [`COPY_WINDOW_TIMEOUTS`]
    /// solicit timeouts ago? Reads the clock only once it has seen one,
    /// so a fabric that never solicits sends exactly as before.
    pub(crate) fn copies_due<P: RepairPort>(&self, io: &mut P) -> bool {
        let window = dur_nanos(self.cfg.nack_timeout).saturating_mul(COPY_WINDOW_TIMEOUTS);
        self.solicit_seen
            .is_some_and(|at| io.now().saturating_sub(at) < window)
    }

    /// Remember an overheard solicit. Pruning uses the widest window
    /// [`SrmState::suppressed`] can check with — a peer's timeout
    /// stretches up to [`MAX_STRETCH`] × `nack_timeout` under adaptive
    /// timers — so no entry that could still suppress is dropped.
    fn note_heard(&mut self, target: u32, tag: Tag, now: Nanos) {
        let stretch = if self.cfg.adaptive { MAX_STRETCH } else { 1 };
        let widest = dur_nanos(self.cfg.nack_timeout).saturating_mul(stretch);
        prune_stale(&mut self.heard, now, widest);
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

    /// Remember a solicit for `tag` that came before we sent it. A waiting
    /// requester asks again at least once per `nack_timeout + backoff`
    /// (stretched up to [`MAX_STRETCH`]× under adaptive timers), which
    /// refreshes its entry; one older than that belongs to a requester
    /// that stopped asking, and pruning it only leaves that requester on
    /// its own timer.
    fn note_standing(&mut self, tag: Tag, requester: u32, now: Nanos) {
        let stretch = if self.cfg.adaptive { MAX_STRETCH } else { 1 };
        let period = dur_nanos(self.cfg.nack_timeout) + dur_nanos(self.cfg.backoff);
        prune_stale(&mut self.standing, now, period.saturating_mul(stretch));
        self.standing.insert((tag, requester), now);
    }

    /// Whether any solicit stands: the one branch every send pays.
    pub(crate) fn has_standing(&self) -> bool {
        !self.standing.is_empty()
    }

    /// A send of `tag` just went out — to rank `dst`, or to the group
    /// when `None`. Drop the standing requests it answers (a multicast
    /// answers every requester of the tag, a unicast only its
    /// destination) and say whether any did, that is whether a send
    /// notice is owed.
    pub(crate) fn answer_standing(&mut self, tag: Tag, dst: Option<u32>) -> bool {
        match dst {
            Some(d) => self.standing.remove(&(tag, d)).is_some(),
            None => {
                let before = self.standing.len();
                self.standing.retain(|&(t, _), _| t != tag);
                self.standing.len() < before
            }
        }
    }

    /// A send notice from `src` for `tag` arrived (`docs/PROTOCOL.md`
    /// §8.4). The source has sent the tag, so a solicit for it overheard
    /// earlier no longer says a repair is on its way: forget it. When a
    /// posted receive is still `waiting` on `(src, tag)` after the match
    /// step, the message was lost, and the receive re-arms to the returned
    /// deadline: `now + U[0, backoff / 4]`, so that concurrent losers
    /// still draw apart and suppress each other.
    pub(crate) fn notice<P: RepairPort>(
        &mut self,
        io: &mut P,
        horizon: &HorizonState,
        src: usize,
        tag: Tag,
        waiting: bool,
    ) -> Option<Nanos> {
        self.heard.remove(&(src as u32, tag));
        if !waiting {
            return None;
        }
        let jitter = horizon.timers(Some(src)).1 / 4;
        let mut at = io.now();
        if jitter > 0 {
            at += self.rng.next_below(jitter + 1);
        }
        Some(at)
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
    /// repair heals every stuck receiver, and a responder-side window of
    /// one `nack_timeout` keeps the same loss from being repaired once
    /// per requester. A requester re-solicits no sooner than one timeout
    /// after its last solicit, so one whose repair was lost is answered
    /// again at its next solicit. Unicast records still replay unicast to
    /// their requester (re-multicasting them would leak point-to-point
    /// payload). A NACK
    /// matching nothing whose tag falls at or below the ring's eviction
    /// floor is answered with `Unavail`, so the requester fails fast
    /// instead of re-soliciting forever. One naming us that matches
    /// nothing above the floor names traffic not sent yet: it gets no
    /// reply, but on a multicast fabric it becomes a *standing request*,
    /// which the first send of the tag answers with a send notice (§8.4).
    /// Re-sends always reuse the original sequence number (receivers that
    /// already have the message dedup the copy) and re-send the recorded
    /// views themselves — no per-record clone.
    pub(crate) fn service<P: RepairPort>(&mut self, cx: &mut Ctx<'_>, io: &mut P) {
        let window = dur_nanos(self.cfg.nack_timeout);
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
            self.note_heard(payload.target, nack.tag, now);
            if !cx.enc.unicast_only {
                self.solicit_seen = Some(now);
            }
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
                // never ours: count and stay silent. A solicit naming us
                // on a multicast fabric stands until we send the tag
                // (gossip has its own pull probes).
                cx.stats.unanswered_nacks += 1;
                if payload.target == me && !cx.enc.unicast_only {
                    self.note_standing(nack.tag, requester, now);
                }
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
            self.solicit_seen = Some(io.now());
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
    /// the same `n/2` factor as a silent holder's `Want` rotation: there,
    /// normal delivery *is* the Advr→Want→answer pull (plus its fan-in
    /// queueing and probes), so an unstretched NACK races the pull and
    /// its retransmission puts a second copy of the payload on a link the
    /// pull already crossed. The NACK plane stays the final backstop —
    /// it just fires behind the pull instead of in front of it.
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
    /// because a peer's was overheard less than one solicit timeout ago
    /// — `src`'s per-peer timeout under adaptive timers, `nack_timeout`
    /// otherwise. Only then can its repair still be on its way; an older
    /// solicit (often one that named traffic not yet sent) has had its
    /// answer, so waiting on it would strand us.
    fn suppressed(&self, horizon: &HorizonState, now: Nanos, src: Option<usize>, tag: Tag) -> bool {
        let (window, _) = horizon.timers(src);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Under adaptive timers a peer's timeout stretches up to 16 ×
    /// `nack_timeout`. Once the overheard-solicit map passes its prune
    /// bound, pruning with the base timeout would forget a solicit that
    /// the stretched timeout still counts as fresh.
    #[test]
    fn a_full_heard_map_keeps_solicits_a_stretched_timeout_covers() {
        let cfg = RepairConfig::sim_default().with_adaptive();
        let t = dur_nanos(cfg.nack_timeout);
        let mut horizon = HorizonState::new(&cfg, 4);
        // One sample s sets srtt = s and rttvar = s/2: timeout 3s.
        horizon.observe_rtt(1, 3 * t);
        assert_eq!(horizon.timers(Some(1)).0, 9 * t);
        assert_eq!(horizon.timers(Some(2)).0, t, "no samples: the base");

        let mut srm = SrmState::new(&cfg, 0, 0);
        srm.note_heard(1, 7, 0);
        srm.note_heard(2, 7, 0);
        // Five timeouts later, 200 unrelated solicits trigger pruning.
        let now = 5 * t;
        for tag in 100..300 {
            srm.note_heard(3, tag, now);
        }
        assert!(
            srm.suppressed(&horizon, now, Some(1), 7),
            "rank 1's 9-timeout window still covers a 5-timeout-old solicit"
        );
        assert!(
            !srm.suppressed(&horizon, now, Some(2), 7),
            "rank 2 has the base window, which the solicit outlived"
        );
        assert!(!srm.suppressed(&horizon, 9 * t, Some(1), 7));
    }
}
