//! Tuning for the repair loop and the planes under it: [`RepairConfig`]
//! (the NACK/retransmit loop and the ACK-horizon session plane),
//! [`MembershipConfig`] (liveness) and
//! [`Dissemination`] (multicast or gossip). `docs/PROTOCOL.md` walks
//! through what each knob drives.

use std::time::Duration;

/// Tuning for the NACK/retransmit repair loop shared by the sim and UDP
/// backends. `None` (the default in both backend configs) disables repair
/// entirely: receives block without polling and no NACK traffic exists —
/// the right mode for a lossless fabric, and byte-identical to the
/// pre-repair protocol.
///
/// Recovery runs the SRM-style scale-out of `docs/PROTOCOL.md` §8:
/// solicitation deadlines carry a seeded random jitter of up to one
/// [`RepairConfig::nack_timeout`], NACKs are *multicast*
/// so peers stuck on the same traffic overhear and suppress their own,
/// and the origin answers one NACK with a *multicast* retransmission that
/// heals every stuck receiver at once.
#[derive(Clone, Copy, Debug)]
pub struct RepairConfig {
    /// How long a blocked receive waits before (re-)soliciting a
    /// retransmission with a NACK, plus a random jitter uniform in
    /// `[0, nack_timeout]` drawn from a `SplitMix64` stream seeded by
    /// `seed ^ rank ^ context` (deterministic replay holds). The jitter is
    /// what draws a group's stuck receivers apart, so that one solicits
    /// and the rest overhear it. The timeout is also both suppression
    /// windows of `docs/PROTOCOL.md` §8: a peer's solicit overheard less
    /// than one timeout ago silences our own, and a multicast repair sent
    /// less than one timeout ago is not repeated. Every repair timer of
    /// every peer runs on it; none is derived from a measured RTT.
    pub nack_timeout: Duration,
    /// Base quiet period an endpoint keeps servicing NACKs after its
    /// program finished (the drain phase). Every received datagram
    /// restarts the clock. The *effective* grace scales with group size
    /// (see [`RepairConfig::effective_drain_grace`]): a straggler can
    /// spend `~n × 2 × nack_timeout` (timeout plus jitter) chaining through
    /// recoveries (the multicast allgather, which posts only two blocks
    /// ahead of the highest one in hand, is the worst case) before it
    /// even posts the receive that needs this endpoint's final message.
    pub drain_grace: Duration,
    /// Capacity of the sender-side retransmit ring, in messages. The one
    /// bound on a sender that outruns its receivers: the oldest record is
    /// evicted, and a NACK for it is answered with `Unavail`
    /// (`docs/PROTOCOL.md` §8.1).
    pub buffer_cap: usize,
    /// Upper bound on the group-size-scaled drain grace. The scaling is
    /// free in the simulator (virtual time) but on UDP it is wall-clock
    /// spent in every endpoint's destructor, so it must stay bounded no
    /// matter how large the world is.
    pub drain_grace_cap: Duration,
    /// Base seed of the per-endpoint jitter stream.
    pub seed: u64,
    /// Period of the ACK-horizon session message (`MsgKind::AckHorizon`,
    /// `docs/PROTOCOL.md` §9): each endpoint periodically multicasts its
    /// per-source delivery frontiers plus RTT probe/echo timestamps.
    /// Enables retransmit-ring garbage collection (acknowledged history
    /// is freed instead of waiting for capacity eviction) and measures
    /// each peer's smoothed RTT. `None` (the default) disables the
    /// session-message plane entirely — byte-identical to the
    /// pre-horizon protocol.
    pub horizon_interval: Option<Duration>,
    /// Membership/liveness layer (`docs/PROTOCOL.md` §10): heartbeats
    /// piggybacked on the ACK-horizon cadence (standalone beacons only
    /// while outbound traffic is quiet), per-peer suspicion timers,
    /// confirmed failures flooded as
    /// `MsgKind::FailureAnnounce` and surfaced to blocked receives as
    /// [`crate::RecvError::PeerFailed`]. `None` (the default) disables the
    /// layer entirely — byte-identical to the membership-less protocol.
    pub membership: Option<MembershipConfig>,
    /// How a payload reaches the group (`docs/PROTOCOL.md` §11). The
    /// default, [`Dissemination::Multicast`], is the paper's setting —
    /// one datagram on the wire, the fabric fans it out — and is
    /// byte-identical to the pre-seam protocol. [`Dissemination::Gossip`]
    /// replaces the fan-out with the epidemic `Advr`/`Want` lazy-push
    /// pull plane: group sends advertise digests unicast and peers pull
    /// what they miss, so the stack runs on fabrics where multicast
    /// structurally cannot (unicast-only switches, partitions with a
    /// relay).
    pub dissemination: Dissemination,
}

impl RepairConfig {
    /// Defaults for the simulator: timings are virtual, so aggressive
    /// (2 ms) polling costs nothing real, and generous drain only
    /// stretches virtual, never wall-clock, time.
    pub fn sim_default() -> Self {
        RepairConfig {
            nack_timeout: Duration::from_millis(2),
            drain_grace: Duration::from_millis(50),
            buffer_cap: mmpi_wire::DEFAULT_RETRANSMIT_CAP,
            drain_grace_cap: Duration::from_secs(1),
            seed: 0x5EED_BACC_0FF5,
            horizon_interval: None,
            membership: None,
            dissemination: Dissemination::Multicast,
        }
    }

    /// Defaults for real UDP sockets: wall-clock polling, so gentler —
    /// and a drain cap of one second, since the scaled grace is real
    /// time every endpoint's destructor spends listening.
    pub fn udp_default() -> Self {
        RepairConfig {
            nack_timeout: Duration::from_millis(40),
            drain_grace: Duration::from_millis(400),
            ..Self::sim_default()
        }
    }

    /// Builder-style: reseed the solicit-jitter stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: turn the ACK-horizon plane on at its default
    /// period, `4 × nack_timeout`, unless an interval was already set.
    /// It changes no timer; the benchmark ladder still calls it by this
    /// name. New code uses [`RepairConfig::with_horizon_interval`].
    pub fn with_adaptive(mut self) -> Self {
        self.arm_horizons();
        self
    }

    /// Turn the ACK-horizon plane on at its default period,
    /// `4 × nack_timeout`, unless an interval was already set.
    fn arm_horizons(&mut self) {
        self.horizon_interval.get_or_insert(self.nack_timeout * 4);
    }

    /// Builder-style: set the ACK-horizon session-message period.
    pub fn with_horizon_interval(mut self, interval: Duration) -> Self {
        self.horizon_interval = Some(interval);
        self
    }

    /// Builder-style: arm the membership/liveness layer with heartbeats
    /// every `interval`. Suspicion is fixed at 4 intervals of silence to
    /// suspect and 3 more to confirm (see [`MembershipConfig`]). The
    /// split matters on a lossy fabric: a verdict takes
    /// seven consecutive missing liveness proofs, so at 10% loss a
    /// false confirmation is a one-in-10⁷-per-window event rather than
    /// the one-in-10⁵ the old 3+2 split allowed — which a seed sweep
    /// over enough rank pairs *will* hit. Enables horizons at the
    /// default period if no interval was set — heartbeats piggyback on
    /// the session cadence, so a membership endpoint with no horizon
    /// plane would pay a standalone datagram for every beacon.
    pub fn with_membership(mut self, interval: Duration) -> Self {
        self.arm_horizons();
        self.membership = Some(MembershipConfig {
            heartbeat_interval: interval,
        });
        self
    }

    /// Builder-style: select the epidemic `Advr`/`Want` dissemination
    /// plane. Arms the ACK-horizon plane at the
    /// default period if no interval was set — gossip needs the horizon
    /// frontiers to garbage-collect its per-peer seen tables and relay
    /// store, exactly as the retransmit ring does.
    pub fn with_gossip(mut self) -> Self {
        self.arm_horizons();
        self.dissemination = Dissemination::Gossip;
        self
    }

    /// True when the epidemic plane is selected.
    pub fn is_gossip(&self) -> bool {
        self.dissemination == Dissemination::Gossip
    }

    /// The horizon period actually used by an endpoint in an `n`-rank
    /// world: the configured interval stretched by `n/2` (floor 1×).
    /// Every endpoint multicasts its session message each period, so
    /// aggregate horizon traffic per receiving link is `(n-1)/period` —
    /// linear in `n` at a fixed period, which saturates the fabric long
    /// before the sizes this transport targets. Scaling the period by
    /// `n/2` pins that aggregate near `2/interval` regardless of group
    /// size (the same constant-bandwidth-share rule SRM applies to its
    /// session messages).
    pub fn effective_horizon_interval(&self, n: usize) -> Option<Duration> {
        let base = self.horizon_interval?;
        Some(base.saturating_mul((n as u32 / 2).max(1)))
    }

    /// The drain grace actually applied by an endpoint in an `n`-rank
    /// world: the configured base, or the group-size-derived bound
    /// `4 × n × nack_timeout` — twice `n` solicit rounds of a timeout plus
    /// at most a timeout of jitter — capped at
    /// [`RepairConfig::drain_grace_cap`], whichever is larger (so a cap
    /// equal to the base pins the grace to the base).
    /// The derivation covers the documented worst case of a straggler
    /// chaining through `~n` earlier-round recoveries, each costing up
    /// to a solicitation deadline plus its jitter, before posting the
    /// receive that needs this endpoint's final message; the cap — not a
    /// hidden clamp on `n` — is the sole bound, because on UDP the grace
    /// is wall-clock time spent in every destructor.
    pub fn effective_drain_grace(&self, n: usize) -> Duration {
        let chained = self.nack_timeout * 4 * (n.max(2) as u32);
        self.drain_grace.max(chained.min(self.drain_grace_cap))
    }
}

/// Tuning for the membership/liveness layer (`docs/PROTOCOL.md` §10),
/// armed via [`RepairConfig::with_membership`]. A peer silent longer than
/// `4 × max(nack_timeout, heartbeat_interval)` becomes *suspected*; a
/// suspect still silent after 3 further such intervals is
/// *confirmed failed*, counted in
/// [`mmpi_wire::RepairStats::failures_confirmed`], and flooded to the
/// group.
#[derive(Clone, Copy, Debug)]
pub struct MembershipConfig {
    /// Target period between liveness proofs from each endpoint. Any
    /// outbound traffic counts as a proof (receivers track per-peer
    /// activity, and horizons carry a piggybacked heartbeat trailer), so
    /// a standalone `MsgKind::Heartbeat` datagram is only spent when the
    /// endpoint has been quiet for a full interval.
    pub heartbeat_interval: Duration,
}

impl MembershipConfig {
    /// The heartbeat period actually used by an endpoint in an `n`-rank
    /// world: the configured interval stretched by `n/2` (floor 1×) —
    /// the same constant-bandwidth-share rule
    /// [`RepairConfig::effective_horizon_interval`] applies to the
    /// session messages. Every endpoint's standalone beacon is a
    /// multicast each period, so at a fixed period aggregate beacon
    /// traffic per receiving link grows linearly with `n`; at N=64 and a
    /// 2 ms base that is 63 ranks' beacons queuing at the switch every
    /// 2 ms, which is what blew the confirmation tail to ~770 ms virtual
    /// in BENCH_8. Scaling the period keeps the aggregate near
    /// `2/interval` at any size. Suspicion/confirmation bounds already
    /// use `max(nack_timeout, interval)`, so tolerance stretches with the
    /// cadence automatically.
    pub fn effective_heartbeat_interval(&self, n: usize) -> Duration {
        self.heartbeat_interval
            .saturating_mul((n as u32 / 2).max(1))
    }
}

/// The dissemination plane: how a group send's payload reaches every
/// member (`docs/PROTOCOL.md` §11). Selected per endpoint via
/// [`RepairConfig::dissemination`]; both impls share the sequence space,
/// the retransmit ring, the ACK-horizon GC, and the membership layer —
/// only the "who transmits the payload bytes, and when" decision moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dissemination {
    /// The paper's setting: one datagram on the wire, the fabric (IP
    /// multicast or the simulated switch's flood/snoop) fans it out.
    /// The default, byte-identical to the pre-seam protocol.
    Multicast,
    /// Epidemic lazy-push pull: a group send *records* the payload and
    /// unicasts a compact `Advr` digest to each live peer; peers answer
    /// with `Want` pulls for ids they miss, served unicast out of the
    /// retransmit ring (origin) or the relay store (a receiver re-Advrs
    /// what it accepted to its ⌊log₂(n−1)⌋+1 finger peers, the ranks at
    /// power-of-two offsets from it, so a peer partitioned from the
    /// origin pulls from a reachable relay). Each payload crosses each
    /// receiving link at most once. Control traffic (horizons, beacons,
    /// failure floods, NACK solicits) also goes unicast-per-peer — under
    /// this plane the fabric is assumed to have no working multicast at
    /// all.
    Gossip,
}
