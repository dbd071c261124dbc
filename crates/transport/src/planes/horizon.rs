//! The ACK-horizon session plane (`docs/PROTOCOL.md` §9): the periodic
//! session message, the per-peer RTT estimators it feeds, and the
//! retransmit-ring GC the advertised frontiers allow.

use std::collections::BTreeMap;
use std::time::Duration;

use mmpi_wire::{
    AckHorizonPayload, AckHorizonView, HorizonEcho, MsgKind, SendDst, SourceHorizon,
    MAX_HORIZON_ACKS, MAX_HORIZON_ECHOES,
};

use super::gossip::GossipState;
use super::membership::{self, MemberState};
use super::Ctx;
use crate::config::RepairConfig;
use crate::pump::{dur_nanos, Nanos, RepairPort};

/// RFC-6298-style smoothed RTT for one peer: the integer-nanosecond
/// EWMA `srtt += (sample − srtt)/8`, seeded by the first sample. All
/// arithmetic is on [`Nanos`] from the backend clock, so simulated
/// estimates replay byte-identically. A measurement only: no timer reads
/// it.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PeerRtt {
    srtt: Nanos,
    samples: u64,
}

impl PeerRtt {
    pub(crate) fn observe(&mut self, sample: Nanos) {
        let sample = sample.max(1);
        if self.samples == 0 {
            self.srtt = sample;
        } else {
            self.srtt = (7 * self.srtt + sample) / 8;
        }
        self.samples += 1;
    }

    /// Smoothed RTT, once at least one sample exists.
    pub(crate) fn srtt(&self) -> Option<Nanos> {
        (self.samples > 0).then_some(self.srtt)
    }
}

/// Per-endpoint state of the ACK-horizon session plane: the per-peer RTT
/// estimators, the probe timestamps owed an echo, each peer's advertised
/// frontier for *our* traffic, and the emission schedule. Exists whenever
/// the repair loop is armed (cheap: two `Vec`s of `n`); stays inert until
/// [`RepairConfig::horizon_interval`] turns emission on.
#[derive(Debug)]
pub(crate) struct HorizonState {
    cfg: RepairConfig,
    /// Per-peer RTT estimators, indexed by rank.
    rtt: Vec<PeerRtt>,
    /// `peer → (their latest probe timestamp, our clock at ingest)`:
    /// probes owed an echo on our next horizon. `BTreeMap`, not
    /// `HashMap`: the builder iterates it into wire bytes, and replay
    /// determinism forbids hash-order output.
    owed: BTreeMap<u32, (Nanos, Nanos)>,
    /// `peer → frontier that peer advertised for our traffic` (only the
    /// `src == our rank` entry of their horizon), indexed by rank.
    frontier: Vec<Option<SourceHorizon>>,
    /// Next scheduled emission (0 = emit on the first progress pass).
    next_at: Nanos,
    /// Rotation cursor over the inbox's known sources when there are
    /// more frontiers than one message carries.
    ack_cursor: usize,
}

impl HorizonState {
    pub(crate) fn new(cfg: &RepairConfig, n: usize) -> Self {
        HorizonState {
            cfg: *cfg,
            rtt: vec![PeerRtt::default(); n],
            owed: BTreeMap::new(),
            frontier: vec![None; n],
            next_at: 0,
            ack_cursor: 0,
        }
    }

    /// One pass of the plane: emit our session message if its period is
    /// due, then ingest the peers'.
    pub(crate) fn service<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        mut member: Option<&mut MemberState>,
        gossip: Option<&mut GossipState>,
    ) {
        self.emit_if_due(cx, io, member.as_deref_mut());
        self.ingest(cx, io, member.as_deref(), gossip);
    }

    /// When the next session message is due, if emission is on.
    pub(crate) fn next_deadline(&self) -> Option<Nanos> {
        self.cfg.horizon_interval.map(|_| self.next_at)
    }

    /// Multicast our ACK-horizon session message when its period is due:
    /// a probe timestamp, every echo owed (capped; the map refills each
    /// period), and our per-source frontiers (rotating through the
    /// sources when one message cannot carry them all). Never recorded
    /// in the retransmit ring — a replayed stale frontier could only
    /// mislead — and never emitted from the drain loop, whose quiet
    /// clock it would restart forever.
    fn emit_if_due<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        member: Option<&mut MemberState>,
    ) {
        let Some(interval) = self.cfg.effective_horizon_interval(cx.enc.n) else {
            return;
        };
        let now = io.now();
        if now < self.next_at {
            return;
        }
        let sources = cx.inbox.sources();
        self.next_at = now + dur_nanos(interval);
        let mut echoes = Vec::new();
        while echoes.len() < MAX_HORIZON_ECHOES {
            let Some((peer, (ts, seen_at))) = self.owed.pop_first() else {
                break;
            };
            echoes.push(HorizonEcho {
                peer,
                ts,
                hold_ns: now.saturating_sub(seen_at),
            });
        }
        let total = sources.len();
        let take = total.min(MAX_HORIZON_ACKS);
        let mut acks = Vec::with_capacity(take);
        for k in 0..take {
            let src = sources[(self.ack_cursor + k) % total];
            if let Some(f) = cx.inbox.frontier_of(src) {
                acks.push(f);
            }
        }
        if total > 0 {
            self.ack_cursor = (self.ack_cursor + take) % total;
        }
        let payload = AckHorizonPayload {
            probe_ts: now,
            echoes,
            acks,
            // The piggybacked heartbeat: with membership on, the session
            // cadence carries the liveness proof for free — `None`
            // encodes zero bytes, keeping membership-off horizons
            // byte-identical.
            member: member.as_deref().map(MemberState::beacon),
        }
        .encode();
        cx.stats.horizons_sent += 1;
        let seq = cx.enc.control_seq();
        let dgs = cx.enc.encode(0, MsgKind::AckHorizon, &payload, seq);
        cx.enc.group_transmit(io, member.as_deref(), &dgs);
        if let Some(m) = member {
            m.note_tx(now);
        }
    }

    /// Ingest every queued ACK-horizon session message: remember the
    /// peer's probe for echoing, fold any echo of *our* probe into that
    /// peer's RTT estimator, adopt the peer's advertised frontier for
    /// our traffic (monotone by high-water mark — a reordered stale
    /// horizon cannot regress it), then garbage-collect the ring. The
    /// payload is read in place: a frontier is copied out only when it
    /// differs from the one stored, so a session message that changes
    /// nothing — most of them — allocates nothing.
    fn ingest<P: RepairPort>(
        &mut self,
        cx: &mut Ctx<'_>,
        io: &mut P,
        member: Option<&MemberState>,
        mut gossip: Option<&mut GossipState>,
    ) {
        let me = cx.enc.rank as u32;
        let mut applied = false;
        while let Some(m) = cx.inbox.take_horizon() {
            let peer = m.src_rank;
            if peer == me {
                continue;
            }
            let Some(p) = cx.admit(peer, AckHorizonView::parse(&m.payload)) else {
                continue;
            };
            let now = io.now();
            cx.stats.horizons_received += 1;
            applied = true;
            self.owed.insert(peer, (p.probe_ts, now));
            for e in p.echoes() {
                if e.peer == me {
                    let rtt = now.saturating_sub(e.ts).saturating_sub(e.hold_ns);
                    self.rtt[peer as usize].observe(rtt);
                    cx.stats.rtt_samples += 1;
                }
            }
            if let Some(f) = p.acks().find(|a| a.src == me) {
                match &mut self.frontier[peer as usize] {
                    Some(old) if f.hwm < old.hwm => {} // reordered, stale
                    Some(old) if f.same_as(old) => {}
                    Some(old) => f.store_into(old),
                    slot => *slot = Some(f.to_owned()),
                }
            }
            if let Some(g) = gossip.as_deref_mut() {
                g.note_frontiers(peer as usize, p.acks());
            }
        }
        if applied {
            self.gc_ring(cx, member);
            if let Some(g) = gossip {
                g.gc(cx.enc, member);
            }
        }
    }

    /// Free ring history every relevant peer has acknowledged: a
    /// multicast record needs every other rank's frontier to cover its
    /// seq, a unicast record only its target's. Peers that have never
    /// advertised a frontier acknowledge nothing — conservative, the
    /// capacity eviction floor still backstops them. Confirmed-dead
    /// peers are dropped from the quorum: a corpse will never advance
    /// its frontier, and keeping it in the quorum would pin the ring
    /// forever.
    pub(crate) fn gc_ring(&self, cx: &mut Ctx<'_>, member: Option<&MemberState>) {
        let (n, me) = (cx.enc.n, cx.enc.rank);
        let dead = |p: usize| membership::is_dead(member, p);
        if self.frontier.iter().all(|f| f.is_none()) && !(0..n).any(dead) {
            return;
        }
        let frontier = &self.frontier;
        let acked_by = |p: usize, seq: u64| frontier[p].as_ref().is_some_and(|f| f.acks(seq));
        let freed = cx.rtx.release_acked(|rec| match rec.dst {
            SendDst::Multicast => (0..n)
                .filter(|&p| p != me && !dead(p))
                .all(|p| acked_by(p, rec.seq)),
            SendDst::Rank(d) => dead(d as usize) || acked_by(d as usize, rec.seq),
        });
        cx.stats.acked_records_freed += freed;
    }

    /// The smoothed RTT estimate for `peer`, if any samples exist.
    pub(crate) fn peer_srtt(&self, peer: usize) -> Option<Nanos> {
        self.rtt.get(peer)?.srtt()
    }

    /// The drain grace an endpoint with `n_live` live group members
    /// applies: the group-size-scaled configured bound
    /// ([`RepairConfig::effective_drain_grace`]).
    pub(crate) fn drain_grace(&self, n_live: usize) -> Duration {
        self.cfg.effective_drain_grace(n_live)
    }
}
