//! The ACK-horizon session plane (`docs/PROTOCOL.md` §9): the periodic
//! session message, the per-peer RTT estimators it feeds, the timers
//! derived from them, and the retransmit-ring GC the advertised frontiers
//! allow.

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

/// SRM/RFC-6298-style RTT estimator for one peer: integer-nanosecond
/// EWMAs `srtt += (sample − srtt)/8`, `rttvar += (|sample − srtt| −
/// rttvar)/4`, retransmission timeout `srtt + 4·rttvar`. All arithmetic
/// is on [`Nanos`] from the backend clock, so simulated estimates replay
/// byte-identically.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PeerRtt {
    srtt: Nanos,
    rttvar: Nanos,
    samples: u64,
}

impl PeerRtt {
    pub(crate) fn observe(&mut self, sample: Nanos) {
        let sample = sample.max(1);
        if self.samples == 0 {
            self.srtt = sample;
            self.rttvar = sample / 2;
        } else {
            self.rttvar = (3 * self.rttvar + self.srtt.abs_diff(sample)) / 4;
            self.srtt = (7 * self.srtt + sample) / 8;
        }
        self.samples += 1;
    }

    /// Smoothed RTT, once at least one sample exists.
    pub(crate) fn srtt(&self) -> Option<Nanos> {
        (self.samples > 0).then_some(self.srtt)
    }

    /// Derived solicitation timeout `srtt + 4·rttvar` (unclamped — the
    /// consumer clamps into its configured band).
    pub(crate) fn timeout(&self) -> Option<Nanos> {
        (self.samples > 0).then(|| self.srtt + 4 * self.rttvar.max(1))
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
    /// `src → when we last solicited it` — the NACK→repair secondary
    /// RTT source: the next matched arrival from that source closes the
    /// pair. Gated against app-not-ready pollution at sample time.
    solicited_at: BTreeMap<u32, Nanos>,
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
            solicited_at: BTreeMap::new(),
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

    /// The `(timeout, backoff)` a solicit of `src` uses, in [`Nanos`]:
    /// the RTT-derived pair — `srtt + 4·rttvar` clamped into
    /// `[nack_timeout, 16 × nack_timeout]`, backoff scaled by the same
    /// ratio — when adaptivity is on and samples exist for a directed
    /// source, otherwise the configured constants (any-source waits have
    /// no single peer to adapt to). The clamp floor is the *configured*
    /// timeout, never below it: the RTT estimate measures the network,
    /// but a blocked receive is also waiting out the sender's service
    /// time (the peer may simply not have reached its send yet), and
    /// that floor is exactly what `nack_timeout` encodes. Adaptivity
    /// only stretches timers for links slower than assumed — shrinking
    /// them below the base turns ordinary scheduling skew into a
    /// premature-solicit storm.
    pub(crate) fn timers(&self, src: Option<usize>) -> (Nanos, Nanos) {
        let base_t = dur_nanos(self.cfg.nack_timeout);
        let base_b = dur_nanos(self.cfg.backoff);
        if !self.cfg.adaptive {
            return (base_t, base_b);
        }
        let est = src.and_then(|s| self.rtt.get(s)).and_then(|p| p.timeout());
        match est {
            Some(e) if base_t > 0 => {
                let t = e.clamp(base_t, base_t.saturating_mul(16));
                let b = (t.saturating_mul(base_b) / base_t).min(base_b.saturating_mul(16));
                (t, b)
            }
            _ => (base_t, base_b),
        }
    }

    /// The smoothed RTT estimate for `peer`, if any samples exist.
    pub(crate) fn peer_srtt(&self, peer: usize) -> Option<Nanos> {
        self.rtt.get(peer)?.srtt()
    }

    /// Open the NACK→repair RTT pair for `src` (adaptive timers only):
    /// the next matched arrival from it closes the pair in
    /// [`HorizonState::note_arrival`].
    pub(crate) fn note_solicited<P: RepairPort>(&mut self, io: &mut P, src: usize) {
        if self.cfg.adaptive {
            let now = io.now();
            self.solicited_at.insert(src as u32, now);
        }
    }

    /// Record the NACK→repair RTT sampling point: a matched arrival from
    /// `src` while a solicit of it is outstanding closes the pair. The
    /// sample includes responder service time (it still tracks the link)
    /// but is rejected beyond the adaptive clamp ceiling — an arrival
    /// that late measures the application not being ready, not the
    /// network.
    pub(crate) fn note_arrival<P: RepairPort>(&mut self, cx: &mut Ctx<'_>, io: &mut P, src: u32) {
        let Some(at) = self.solicited_at.remove(&src) else {
            return;
        };
        if !self.cfg.adaptive {
            return;
        }
        let sample = io.now().saturating_sub(at);
        let ceiling = dur_nanos(self.cfg.nack_timeout).saturating_mul(16);
        if sample <= ceiling {
            self.rtt[src as usize].observe(sample);
            cx.stats.rtt_samples += 1;
        }
    }

    /// The drain grace an endpoint with `n_live` live group members
    /// applies: the group-size-scaled configured bound
    /// ([`RepairConfig::effective_drain_grace`]) — or, with adaptivity
    /// on and RTT samples in hand, the same straggler-chain derivation
    /// `2 × n × (timeout + backoff)` computed from the *measured* worst
    /// per-peer timeout (clamped into the configured band) instead of
    /// the configured constants, still capped at
    /// [`RepairConfig::drain_grace_cap`]. Measured-fast worlds drain
    /// sooner; measured-slow worlds get the grace their repairs need.
    pub(crate) fn drain_grace(&self, n_live: usize) -> Duration {
        let rc = &self.cfg;
        let base = rc.effective_drain_grace(n_live);
        if !rc.adaptive {
            return base;
        }
        let Some(w) = self.rtt.iter().filter_map(|p| p.timeout()).max() else {
            return base;
        };
        let base_t = dur_nanos(rc.nack_timeout);
        if base_t == 0 {
            return base;
        }
        let t = w.clamp(base_t, base_t.saturating_mul(16));
        let b = (t.saturating_mul(dur_nanos(rc.backoff)) / base_t)
            .min(dur_nanos(rc.backoff).saturating_mul(16));
        let chained = (t + b).saturating_mul(2 * n_live.max(2) as u64);
        let chained = Duration::from_nanos(chained.min(dur_nanos(rc.drain_grace_cap)));
        rc.drain_grace.max(chained)
    }
}
