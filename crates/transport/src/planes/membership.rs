//! The membership/liveness plane (`docs/PROTOCOL.md` §10): heartbeats,
//! per-peer suspicion timers, failure announcements, and the verdicts the
//! other planes read ("is peer `p` dead").

use mmpi_wire::{FailureAnnouncePayload, HeartbeatPayload, MsgKind};

use super::horizon::HorizonState;
use super::Ctx;
use crate::api::RecvError;
use crate::config::MembershipConfig;
use crate::pump::{dur_nanos, Nanos, RepairPort};

/// Silence tolerance before suspicion, in units of `max(nack_timeout,
/// heartbeat interval)`.
const SUSPICION_FACTOR: u64 = 4;
/// Further such intervals a *suspected* peer must stay silent before the
/// suspicion is confirmed as a failure. The 4 + 3 split matters on a lossy
/// fabric: a verdict takes seven consecutive missing liveness proofs.
const CONFIRM_MISSES: u64 = 3;

/// Per-peer liveness record.
#[derive(Clone, Copy, Debug, Default)]
struct PeerLive {
    /// Last instant this peer proved itself alive. *Any* accepted
    /// traffic counts — the inbox's activity counter, not just
    /// heartbeats — so a chatty peer never pays a beacon.
    last_heard: Nanos,
    /// Snapshot of [`crate::Inbox::activity_of`] at the last refresh; a
    /// higher live value means traffic arrived since.
    activity: u64,
    /// When suspicion opened; `None` while the peer is in good standing.
    suspected_at: Option<Nanos>,
    /// Confirmed failed — by our own timer or an adopted announcement.
    /// Sticky: a failure is never un-declared (a late heartbeat from a
    /// declared-dead peer is the classic split-brain seed).
    failed: bool,
    /// Announced a graceful departure. Sticky.
    departed: bool,
    /// This peer's failure has been flooded by us once (either our own
    /// confirmation or the one-shot re-flood when adopting a foreign
    /// announcement on a lossy fabric).
    announced: bool,
}

impl PeerLive {
    fn dead(&self) -> bool {
        self.failed || self.departed
    }
}

/// Membership/liveness state of one endpoint: the group epoch and this
/// endpoint's incarnation (both carried by every heartbeat), the
/// per-peer suspicion records, and the standalone-beacon schedule.
#[derive(Debug)]
pub(crate) struct MemberState {
    cfg: MembershipConfig,
    /// The repair plane's `nack_timeout`: the floor of a suspicion
    /// interval, so a heartbeat cadence faster than one repair timeout
    /// cannot make the layer cry wolf.
    timeout: Nanos,
    /// Liveness epoch — bumped by [`MemberState::set_epoch`] after a
    /// communicator shrink; stamped into the message context so
    /// old-epoch stragglers are discarded.
    epoch: u32,
    /// This endpoint's incarnation. Restarts would bump it so peers can
    /// tell a reborn endpoint from a late duplicate; this transport
    /// never restarts an endpoint in place, so it stays 0.
    incarnation: u32,
    /// Per-peer records, indexed by rank (our own slot is unused).
    peers: Vec<PeerLive>,
    /// Next heartbeat-schedule tick (emission is skipped when outbound
    /// traffic already proved us alive this interval).
    next_hb_at: Nanos,
    /// Our last outbound transmission of any kind — the "quiet" test.
    last_tx_at: Nanos,
    /// Baselines (`last_heard` = first-observed now) are set lazily on
    /// the first progress pass, not at construction: endpoint creation
    /// time is not a liveness proof.
    started: bool,
}

/// True when the membership plane has declared `p` failed or departed.
/// Always false with membership off.
pub(crate) fn is_dead(member: Option<&MemberState>, p: usize) -> bool {
    member
        .and_then(|m| m.peers.get(p))
        .is_some_and(PeerLive::dead)
}

impl MemberState {
    pub(crate) fn new(cfg: MembershipConfig, n: usize, timeout: Nanos) -> Self {
        MemberState {
            cfg,
            timeout,
            epoch: 0,
            incarnation: 0,
            peers: vec![PeerLive::default(); n],
            next_hb_at: 0,
            last_tx_at: 0,
            started: false,
        }
    }

    /// When the next standalone heartbeat is due; `None` before the
    /// first service pass.
    pub(crate) fn next_deadline(&self) -> Option<Nanos> {
        self.started.then_some(self.next_hb_at)
    }

    /// The [`RecvError::PeerFailed`] a *directed* receive from `src`
    /// should complete with, if its peer is confirmed dead. Any-source
    /// receives never fail over: another peer can still satisfy them.
    pub(crate) fn failed_error(&self, src: Option<usize>) -> Option<RecvError> {
        let s = src?;
        self.peers.get(s)?.dead().then_some(RecvError::PeerFailed {
            rank: s as u32,
            epoch: self.epoch,
        })
    }

    /// Peers declared failed or departed.
    pub(crate) fn dead_count(&self) -> usize {
        self.peers.iter().filter(|p| p.dead()).count()
    }

    fn ranks_where(&self, pred: impl Fn(&PeerLive) -> bool) -> Vec<usize> {
        self.peers
            .iter()
            .enumerate()
            .filter(|(_, p)| pred(p))
            .map(|(i, _)| i)
            .collect()
    }

    /// Ranks confirmed failed (crash-dead, not graceful), sorted.
    pub(crate) fn failed(&self) -> Vec<usize> {
        self.ranks_where(|p| p.failed)
    }

    /// Ranks that announced a graceful departure, sorted.
    pub(crate) fn departed(&self) -> Vec<usize> {
        self.ranks_where(|p| p.departed)
    }

    /// The current liveness epoch.
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Adopt a new liveness epoch (communicator shrink).
    pub(crate) fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// The liveness proof every heartbeat — standalone, or piggybacked on
    /// a session message — carries.
    pub(crate) fn beacon(&self) -> HeartbeatPayload {
        HeartbeatPayload {
            epoch: self.epoch,
            incarnation: self.incarnation,
        }
    }

    /// Stamp an outbound *multicast* for the "quiet" test (a peer whose
    /// multicast the whole group just heard owes no standalone
    /// heartbeat). Unicast sends never stamp: they prove liveness to a
    /// single destination, and suppressing the beacon on their account
    /// starves every other observer's suspicion clock.
    pub(crate) fn note_tx(&mut self, now: Nanos) {
        self.last_tx_at = now;
    }

    /// Adopt an externally agreed failure verdict for `rank` without
    /// waiting out the suspicion timers. False when the peer is unknown
    /// or already dead.
    pub(crate) fn force_fail(&mut self, rank: usize) -> bool {
        match self.peers.get_mut(rank) {
            Some(st) if !st.dead() => {
                st.failed = true;
                st.announced = true;
                true
            }
            _ => false,
        }
    }

    fn interval(&self, n: usize) -> Nanos {
        dur_nanos(self.cfg.effective_heartbeat_interval(n)).max(1)
    }

    fn send_heartbeat<P: RepairPort>(&self, cx: &mut Ctx<'_>, io: &mut P) {
        cx.stats.heartbeats_sent += 1;
        let pl = self.beacon().encode();
        let seq = cx.enc.control_seq();
        let dgs = cx.enc.encode(0, MsgKind::Heartbeat, &pl, seq);
        cx.enc.group_transmit(io, Some(self), &dgs);
    }

    /// Emit the standalone heartbeat if the schedule is due, with no
    /// quiet test: callers invoke this from phases where the endpoint is
    /// otherwise mute (the drain loop, mid-`compute` slices), so the
    /// beacon is the only thing keeping its suspicion clocks at bay.
    /// No-op before the first service pass.
    pub(crate) fn beacon_tick<P: RepairPort>(&mut self, cx: &mut Ctx<'_>, io: &mut P) {
        if !self.started {
            return;
        }
        let now = io.now();
        if now < self.next_hb_at {
            return;
        }
        self.next_hb_at = now + self.interval(cx.enc.n);
        self.last_tx_at = now;
        self.send_heartbeat(cx, io);
    }

    /// Multicast a `FailureAnnounce` naming `ranks` (split across
    /// messages past the wire cap), stamping the current epoch.
    pub(crate) fn announce<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        ranks: &[u32],
        graceful: bool,
    ) {
        if ranks.is_empty() {
            return;
        }
        for chunk in ranks.chunks(mmpi_wire::MAX_ANNOUNCE_RANKS) {
            let pl = FailureAnnouncePayload {
                epoch: self.epoch,
                graceful,
                ranks: chunk.to_vec(),
            }
            .encode();
            let seq = cx.enc.control_seq();
            let dgs = cx.enc.encode(0, MsgKind::FailureAnnounce, &pl, seq);
            cx.enc.group_transmit(io, Some(&*self), &dgs);
        }
        self.last_tx_at = io.now();
    }

    /// One pass of the membership state machine: fold queued
    /// announcements, refresh per-peer liveness from the inbox activity
    /// counters, open/confirm suspicions against the silence bound,
    /// flood confirmed failures, and emit a standalone heartbeat if the
    /// schedule is due and the endpoint has been quiet.
    pub(crate) fn service<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        horizon: &HorizonState,
    ) {
        let now = io.now();
        let (me, n) = (cx.enc.rank, cx.enc.n);
        // The group-size-scaled cadence: at a fixed period every rank's
        // beacon is a frame on every receiving link, which queues at the
        // switch as the group grows (the BENCH_8 N=64 confirmation-tail
        // blowup). Suspicion bounds below use `max(nack_timeout,
        // interval)`, so tolerance stretches with the cadence
        // automatically.
        let interval = self.interval(n);
        if !self.started {
            self.started = true;
            self.next_hb_at = now + interval;
            self.last_tx_at = now;
            for p in &mut self.peers {
                p.last_heard = now;
            }
        }
        // 1. Queued membership traffic: heartbeats prove liveness via
        //    the activity counters (folded below); announcements adopt
        //    the sender's verdicts.
        let mut adopted: Vec<u32> = Vec::new();
        while let Some(msg) = cx.inbox.take_membership() {
            if msg.src_rank as usize >= n {
                continue; // stray traffic on a real port
            }
            if msg.kind != MsgKind::FailureAnnounce {
                continue; // heartbeat: nothing beyond the activity bump
            }
            let Ok(p) = FailureAnnouncePayload::decode(&msg.payload) else {
                continue;
            };
            for &r in &p.ranks {
                let ri = r as usize;
                if ri >= n || ri == me {
                    // An announce naming us is a false positive about a
                    // peer that is, demonstrably, running this code:
                    // ignore it (we keep proving liveness by traffic).
                    continue;
                }
                let st = &mut self.peers[ri];
                if st.dead() {
                    continue;
                }
                if p.graceful {
                    st.departed = true;
                } else {
                    st.failed = true;
                    // One-shot gossip re-flood: on a lossy fabric the
                    // origin's announce may have missed some survivors;
                    // each adopter re-multicasts once, which converges
                    // (the flag is sticky) without a NACK storm's worth
                    // of copies.
                    if !st.announced {
                        st.announced = true;
                        adopted.push(r);
                    }
                }
            }
        }
        // 2. Liveness refresh: any accepted traffic since the last
        //    snapshot clears suspicion and restamps `last_heard`.
        for (p, st) in self.peers.iter_mut().enumerate() {
            if p == me || st.dead() {
                continue;
            }
            let cur = cx.inbox.activity_of(p as u32);
            if cur > st.activity {
                st.activity = cur;
                st.last_heard = now;
                st.suspected_at = None;
            }
        }
        // 3. Suspicion timers: silent past `k × max(nack_timeout,
        //    interval)` opens suspicion; a suspect silent for `m` further
        //    such intervals is confirmed failed. The bound is the same
        //    for every peer: no timer reads the measured RTT.
        let unit = self.timeout.max(interval);
        let suspect_bound = SUSPICION_FACTOR * unit;
        let confirm_bound = CONFIRM_MISSES * unit;
        let mut confirmed: Vec<u32> = Vec::new();
        let mut new_suspects = 0u64;
        for (p, st) in self.peers.iter_mut().enumerate() {
            if p == me || st.dead() {
                continue;
            }
            match st.suspected_at {
                None if now.saturating_sub(st.last_heard) > suspect_bound => {
                    st.suspected_at = Some(now);
                    new_suspects += 1;
                }
                Some(at) if now.saturating_sub(at) > confirm_bound => {
                    st.failed = true;
                    st.announced = true;
                    confirmed.push(p as u32);
                }
                _ => {}
            }
        }
        cx.stats.suspicions += new_suspects;
        cx.stats.failures_confirmed += confirmed.len() as u64;
        // 4. Flood what changed, then re-run ring GC: a dead peer just
        //    left every ack quorum, which may free ring history.
        if !confirmed.is_empty() || !adopted.is_empty() {
            self.announce(cx, io, &confirmed, false);
            self.announce(cx, io, &adopted, false);
            horizon.gc_ring(cx, Some(self));
        }
        // 5. Standalone heartbeat: only when the schedule is due *and*
        //    nothing else we sent this interval already proved us alive.
        if now >= self.next_hb_at {
            let quiet = now.saturating_sub(self.last_tx_at) >= interval;
            self.next_hb_at = now + interval;
            if quiet {
                self.send_heartbeat(cx, io);
                self.last_tx_at = now;
            }
        }
    }
}
