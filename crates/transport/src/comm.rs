//! The request-based communication interface the collective algorithms
//! program against — and the backend-shared halves of it.
//!
//! [`Comm`] is an MPI-3-flavoured *nonblocking* surface over what the
//! paper's implementation had underneath MPICH's ADI: unreliable
//! unicast/multicast datagram sends and tag-matched receives. Receives
//! are **posted** ([`Comm::post_recv`]) and produce a [`RecvReq`] handle
//! that is driven to completion through the **progress engine**
//! ([`Comm::progress`], [`Comm::test`], [`Comm::wait`],
//! [`Comm::wait_any`]). The engine advances *every* outstanding request
//! at once — matching, reassembly, and (with repair armed) the NACK
//! solicitation deadlines of all posted receives, not just the one the
//! caller happens to be blocked on. The blocking calls of the original
//! API ([`Comm::recv_match`] & co.) survive as thin post-and-wait
//! conveniences, now returning the typed [`RecvError`] instead of
//! panicking. One implementation of a collective algorithm runs over:
//!
//! * [`crate::sim::SimComm`] — the deterministic network simulator,
//! * [`crate::udp::UdpComm`] — real UDP + IP multicast sockets,
//! * [`crate::mem::MemComm`] — in-memory channels (fast correctness tests).
//!
//! Payloads are [`Bytes`]: a message is written once (by the sender into
//! its wire encoding) and only *sliced* thereafter — chunking, the
//! retransmit ring, NACK replays, and multicast fan-out all clone
//! reference-counted views, never payload bytes (`docs/PERFORMANCE.md`).
//! Because the transport takes ownership of a shared view at post time,
//! [`Comm::post_send`]/[`Comm::post_mcast`] complete *immediately* (the
//! [`SendReq`] they return exists for API symmetry and carries the
//! sequence number).
//!
//! The sim and UDP backends optionally run a NACK-based **repair loop**
//! (see [`RepairConfig`] and `docs/PROTOCOL.md`). The *policy* — when to
//! solicit, how NACKs are serviced, how an endpoint drains on shutdown —
//! is implemented exactly once, in [`EndpointCore`]'s progress engine,
//! parameterized over the backend's clock and socket primitives via the
//! [`RepairPump`] trait; the backends cannot drift (ROADMAP "repair-loop
//! dedup"). A walkthrough of a posted receive's lifecycle through the
//! engine is in `docs/API.md`.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mmpi_netsim::rng::SplitMix64;
use mmpi_wire::{
    split_message, AckHorizonPayload, Assembler, Bytes, Datagram, FailureAnnouncePayload,
    GossipDigest, HeartbeatPayload, HorizonEcho, Message, MsgKind, NackPayload, RepairStats,
    RetransmitBuffer, SeenTable, SendDst, SeqRange, SourceDigest, SourceHorizon, UnavailPayload,
    WireError, MAX_HORIZON_ACKS, MAX_HORIZON_ECHOES, NACK_TARGET_ANY,
};

/// Tuning for the NACK/retransmit repair loop shared by the sim and UDP
/// backends. `None` (the default in both backend configs) disables repair
/// entirely: receives block without polling and no NACK traffic exists —
/// the right mode for a lossless fabric, and byte-identical to the
/// pre-repair protocol.
///
/// With [`RepairConfig::srm`] set (the default), recovery runs the
/// SRM-style scale-out of `docs/PROTOCOL.md` §8: solicitation deadlines
/// carry a seeded random [`RepairConfig::backoff`], NACKs are *multicast*
/// so peers stuck on the same traffic overhear and suppress their own,
/// and the origin answers one NACK with a *multicast* retransmission that
/// heals every stuck receiver at once.
#[derive(Clone, Copy, Debug)]
pub struct RepairConfig {
    /// How long a blocked receive waits before (re-)soliciting a
    /// retransmission with a NACK (plus a random backoff when `srm`).
    pub nack_timeout: Duration,
    /// Base quiet period an endpoint keeps servicing NACKs after its
    /// program finished (the drain phase). Every received datagram
    /// restarts the clock. The *effective* grace scales with group size
    /// (see [`RepairConfig::effective_drain_grace`]): a straggler can
    /// spend `~n × (nack_timeout + backoff)` chaining through
    /// earlier-round recoveries (rank-ordered multicast allgather is the
    /// worst case) before it even posts the receive that needs this
    /// endpoint's final message.
    pub drain_grace: Duration,
    /// Capacity of the sender-side retransmit ring, in messages.
    pub buffer_cap: usize,
    /// SRM-style repair scale-out: randomized NACK backoff, multicast
    /// NACKs with overheard-solicit suppression, multicast repair with a
    /// responder-side suppression window. `false` reverts to the
    /// PR-2-era unicast solicit/answer protocol (kept for A/B loss
    /// sweeps and regression tests).
    pub srm: bool,
    /// Maximum random extra delay added to every solicitation deadline
    /// (uniform in `[0, backoff]`, drawn from a [`SplitMix64`] stream
    /// seeded by `seed ^ rank ^ context` — deterministic replay holds).
    /// Zero disables the randomization even with `srm` on.
    pub backoff: Duration,
    /// Suppression window: an overheard solicit for the same traffic
    /// younger than this cancels our own solicit, and a multicast
    /// retransmission younger than this is not repeated by the
    /// responder.
    pub suppress_window: Duration,
    /// Upper bound on the group-size-scaled drain grace. The scaling is
    /// free in the simulator (virtual time) but on UDP it is wall-clock
    /// spent in every endpoint's destructor, so it must stay bounded no
    /// matter how large the world is.
    pub drain_grace_cap: Duration,
    /// Base seed of the per-endpoint backoff stream.
    pub seed: u64,
    /// Pin the drain grace to exactly [`RepairConfig::drain_grace`]
    /// instead of scaling it with group size — the pre-scale-out
    /// behavior, kept only so regression tests can demonstrate the
    /// livelock it caused (`tests/lossy_recovery.rs`).
    pub fixed_drain: bool,
    /// Period of the ACK-horizon session message (`MsgKind::AckHorizon`,
    /// `docs/PROTOCOL.md` §9): each endpoint periodically multicasts its
    /// per-source delivery frontiers plus RTT probe/echo timestamps.
    /// Enables retransmit-ring garbage collection (acknowledged history
    /// is freed instead of waiting for capacity eviction), feeds the
    /// adaptive timers, and is what advances the send window. `None`
    /// (the default) disables the session-message plane entirely —
    /// byte-identical to the pre-horizon protocol.
    pub horizon_interval: Option<Duration>,
    /// Derive `nack_timeout`/`backoff`/`suppress_window` per peer from
    /// the measured RTT (SRM-style EWMA of srtt/var, clamped to
    /// `[nack_timeout, 16 × nack_timeout]`) instead of using the
    /// configured constants. Falls back to the constants for peers with
    /// no samples yet, so enabling this is safe before any horizon
    /// exchange has happened. Estimates come from the virtual clock and
    /// the seeded streams, so sim replay stays deterministic.
    pub adaptive: bool,
    /// Send-window back-pressure: when the wire bytes of
    /// unacknowledged `Data` traffic held in the retransmit ring exceed
    /// this, `post_send`/`post_mcast` block (and the `try_post_*`
    /// request path returns [`SendWindowFull`]) until peers' ACK
    /// horizons advance. Requires [`RepairConfig::horizon_interval`] —
    /// without the session messages nothing could ever open the window,
    /// so the window is ignored. `None` disables back-pressure: a fast
    /// sender can outrun its own repair history (capacity eviction +
    /// `Unavail` is then the only bound).
    pub send_window: Option<usize>,
    /// Membership/liveness layer (`docs/PROTOCOL.md` §10): heartbeats
    /// piggybacked on the ACK-horizon cadence (standalone beacons only
    /// while outbound traffic is quiet), per-peer suspicion timers
    /// derived from the RTT estimators, confirmed failures flooded as
    /// `MsgKind::FailureAnnounce` and surfaced to blocked receives as
    /// [`RecvError::PeerFailed`]. `None` (the default) disables the
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
            srm: true,
            backoff: Duration::from_millis(2),
            suppress_window: Duration::from_millis(4),
            drain_grace_cap: Duration::from_secs(1),
            seed: 0x5EED_BACC_0FF5,
            fixed_drain: false,
            horizon_interval: None,
            adaptive: false,
            send_window: None,
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
            buffer_cap: mmpi_wire::DEFAULT_RETRANSMIT_CAP,
            srm: true,
            backoff: Duration::from_millis(40),
            suppress_window: Duration::from_millis(80),
            drain_grace_cap: Duration::from_secs(1),
            seed: 0x5EED_BACC_0FF5,
            fixed_drain: false,
            horizon_interval: None,
            adaptive: false,
            send_window: None,
            membership: None,
            dissemination: Dissemination::Multicast,
        }
    }

    /// Builder-style: disable the SRM scale-out (unicast solicits and
    /// repairs, no backoff/suppression) — the PR-2-era protocol.
    pub fn without_srm(mut self) -> Self {
        self.srm = false;
        self
    }

    /// Builder-style: reseed the randomized-backoff stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: turn on the full adaptive control plane — ACK
    /// horizons every `4 × nack_timeout` (unless an interval was already
    /// set) plus RTT-derived per-peer timers.
    pub fn with_adaptive(mut self) -> Self {
        if self.horizon_interval.is_none() {
            self.horizon_interval = Some(self.nack_timeout * 4);
        }
        self.adaptive = true;
        self
    }

    /// Builder-style: set the ACK-horizon session-message period.
    pub fn with_horizon_interval(mut self, interval: Duration) -> Self {
        self.horizon_interval = Some(interval);
        self
    }

    /// Builder-style: arm send-window back-pressure at `bytes` of
    /// unacknowledged `Data` traffic (enables horizons at the default
    /// period if no interval was set — the window needs them to open).
    pub fn with_send_window(mut self, bytes: usize) -> Self {
        if self.horizon_interval.is_none() {
            self.horizon_interval = Some(self.nack_timeout * 4);
        }
        self.send_window = Some(bytes);
        self
    }

    /// Builder-style: arm the membership/liveness layer with heartbeats
    /// every `interval` and the default suspicion knobs
    /// ([`MembershipConfig::suspicion_factor`] = 4 intervals of silence
    /// to suspect, [`MembershipConfig::confirm_misses`] = 3 more to
    /// confirm). The split matters on a lossy fabric: a verdict takes
    /// seven consecutive missing liveness proofs, so at 10% loss a
    /// false confirmation is a one-in-10⁷-per-window event rather than
    /// the one-in-10⁵ the old 3+2 split allowed — which a seed sweep
    /// over enough rank pairs *will* hit. Enables horizons at the
    /// default period if no interval was set — heartbeats piggyback on
    /// the session cadence, so a membership endpoint with no horizon
    /// plane would pay a standalone datagram for every beacon.
    pub fn with_membership(mut self, interval: Duration) -> Self {
        if self.horizon_interval.is_none() {
            self.horizon_interval = Some(self.nack_timeout * 4);
        }
        self.membership = Some(MembershipConfig {
            heartbeat_interval: interval,
            suspicion_factor: 4,
            confirm_misses: 3,
        });
        self
    }

    /// Builder-style: select the epidemic `Advr`/`Want` dissemination
    /// plane with its default knobs. Arms the ACK-horizon plane at the
    /// default period if no interval was set — gossip needs the horizon
    /// frontiers to garbage-collect its per-peer seen tables and relay
    /// store, exactly as the retransmit ring does.
    pub fn with_gossip(mut self) -> Self {
        if self.horizon_interval.is_none() {
            self.horizon_interval = Some(self.nack_timeout * 4);
        }
        self.dissemination = Dissemination::Gossip(GossipConfig::default());
        self
    }

    /// True when the epidemic plane is selected.
    pub fn is_gossip(&self) -> bool {
        matches!(self.dissemination, Dissemination::Gossip(_))
    }

    /// The gossip knobs, when the epidemic plane is selected.
    pub fn gossip(&self) -> Option<GossipConfig> {
        match self.dissemination {
            Dissemination::Gossip(g) => Some(g),
            Dissemination::Multicast => None,
        }
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
    /// world: the configured base, or — unless [`RepairConfig::fixed_drain`]
    /// — the group-size-derived bound `2 × n × (nack_timeout + backoff)`
    /// capped at [`RepairConfig::drain_grace_cap`], whichever is larger.
    /// The derivation covers the documented worst case of a straggler
    /// chaining through `~n` earlier-round recoveries, each costing up
    /// to a solicitation deadline plus its backoff, before posting the
    /// receive that needs this endpoint's final message; the cap — not a
    /// hidden clamp on `n` — is the sole bound, because on UDP the grace
    /// is wall-clock time spent in every destructor.
    pub fn effective_drain_grace(&self, n: usize) -> Duration {
        if self.fixed_drain {
            return self.drain_grace;
        }
        let chained = (self.nack_timeout + self.backoff) * 2 * (n.max(2) as u32);
        self.drain_grace.max(chained.min(self.drain_grace_cap))
    }
}

/// Tuning for the membership/liveness layer (`docs/PROTOCOL.md` §10),
/// armed via [`RepairConfig::with_membership`]. Detection reads three
/// knobs: a peer silent longer than
/// `suspicion_factor × max(rto, heartbeat_interval)` (rto = the same
/// clamped `srtt + 4·rttvar` estimate the adaptive repair timers use)
/// becomes *suspected*; a suspect still silent after `confirm_misses`
/// further heartbeat intervals is *confirmed failed*, counted in
/// [`RepairStats::failures_confirmed`], and flooded to the group.
#[derive(Clone, Copy, Debug)]
pub struct MembershipConfig {
    /// Target period between liveness proofs from each endpoint. Any
    /// outbound traffic counts as a proof (receivers track per-peer
    /// activity, and horizons carry a piggybacked heartbeat trailer), so
    /// a standalone `MsgKind::Heartbeat` datagram is only spent when the
    /// endpoint has been quiet for a full interval.
    pub heartbeat_interval: Duration,
    /// Silence tolerance before suspicion, in units of
    /// `max(rto, heartbeat_interval)`.
    pub suspicion_factor: u32,
    /// Heartbeat intervals a *suspected* peer must stay silent before
    /// the suspicion is confirmed as a failure.
    pub confirm_misses: u32,
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
    /// use `max(rto, interval)`, so tolerance stretches with the cadence
    /// automatically.
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
    /// retransmit ring (origin) or the relay store (receivers re-Advr
    /// what they hold, so partitioned-from-origin peers pull from any
    /// reachable relay). Each payload crosses each receiving link at
    /// most once. Control traffic (horizons, beacons, failure floods,
    /// NACK solicits) also goes unicast-per-peer — under this plane the
    /// fabric is assumed to have no working multicast at all.
    Gossip(GossipConfig),
}

/// Knobs of the epidemic plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GossipConfig {
    /// Re-issue an unanswered `Want` after this many repair timeouts
    /// (`nack_timeout`, or the adaptive per-peer RTO), stretched by the
    /// `n/2` constant-bandwidth-share factor (see
    /// `EndpointCore::want_retry_after`), rotating to a different
    /// advertiser when one is known. Keeps a lost pull from stalling
    /// delivery forever without re-pulling answers that are merely
    /// queued behind a collective's fan-in burst.
    pub want_retry_factor: u32,
    /// Capacity of the relay store (messages): payloads this endpoint
    /// received and re-advertises so partitioned peers can pull from it.
    /// Bounded like the retransmit ring; the ACK-horizon plane frees
    /// fully-acknowledged entries first.
    pub relay_cap: usize,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            want_retry_factor: 2,
            relay_cap: mmpi_wire::DEFAULT_RETRANSMIT_CAP,
        }
    }
}

/// Typed unrecoverable-loss errors a repair-enabled receive can surface
/// (see [`Comm::recv_checked`]). The blocking conveniences
/// ([`Comm::recv_match`] & co.) panic on these instead — an unrecoverable
/// loss inside a collective has no sane continuation — so only code that
/// opts into the checked API needs to handle them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// The awaited sender answered our NACK with `MsgKind::Unavail`: the
    /// traffic was evicted from its retransmit ring and can never be
    /// re-sent. Without this answer the receiver would re-solicit
    /// forever (the PR-2 livelock).
    Unavailable {
        /// The rank that advertised the eviction.
        src: u32,
        /// The tag we were blocked on.
        tag: Tag,
        /// The responder's eviction floor: tags at or below this are gone.
        tag_floor: u32,
    },
    /// The awaited sender is gone: the membership layer confirmed it
    /// failed (heartbeat silence past the suspicion bound) or it
    /// announced a graceful departure. The receive can never complete —
    /// the ULFM-style continuation is to `shrink()` the communicator to
    /// the survivor group and retry the operation over it
    /// (`docs/API.md`).
    PeerFailed {
        /// The rank the membership layer declared dead or departed.
        rank: u32,
        /// The liveness epoch in which the failure was observed.
        epoch: u32,
    },
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Unavailable {
                src,
                tag,
                tag_floor,
            } => write!(
                f,
                "repair unavailable: rank {src} evicted tag {tag} traffic from its \
                 retransmit ring (eviction floor {tag_floor}); size the ring up or \
                 shorten the tag distance the workload re-requests"
            ),
            RecvError::PeerFailed { rank, epoch } => write!(
                f,
                "peer failed: rank {rank} was declared dead in liveness epoch \
                 {epoch}; shrink the communicator to the survivor group and \
                 retry the operation"
            ),
        }
    }
}

impl std::error::Error for RecvError {}

/// `WouldBlock` of the nonblocking send path ([`Comm::try_post_send`] /
/// [`Comm::try_post_mcast`]): the send window is full — the wire bytes of
/// unacknowledged `Data` traffic exceed [`RepairConfig::send_window`] —
/// and one nonblocking progress pass did not open it. Keep progressing
/// (peers' ACK horizons advance the window) and retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendWindowFull;

impl fmt::Display for SendWindowFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "send window full: unacknowledged bytes exceed the configured \
             window; progress until peers' ACK horizons advance, then retry"
        )
    }
}

impl std::error::Error for SendWindowFull {}

/// Deferred-cancel sink: a cheap cloneable handle into an endpoint's
/// progress engine through which *dropped* request machines (see
/// `mmpi-core`'s `CollRequest`) register their outstanding receive
/// handles for cancellation. A `Drop` impl has no `&mut Comm` to call
/// [`Comm::cancel_recv`] on, so it pushes the handles here instead; the
/// engine drains the sink at the start of every progress pass. Handles
/// are never reused, so a raced double-cancel (explicit cancel *and*
/// drop) is a harmless no-op.
#[derive(Clone, Debug, Default)]
pub struct CancelSink(Arc<Mutex<Vec<RecvReq>>>);

impl CancelSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a receive handle for deferred cancellation.
    pub fn push(&self, req: RecvReq) {
        self.0.lock().expect("cancel sink poisoned").push(req);
    }

    /// Register every handle in `reqs` for deferred cancellation.
    pub fn push_all(&self, reqs: impl IntoIterator<Item = RecvReq>) {
        self.0.lock().expect("cancel sink poisoned").extend(reqs);
    }

    /// Take every deferred handle (the engine's half).
    pub fn drain(&self) -> Vec<RecvReq> {
        std::mem::take(&mut *self.0.lock().expect("cancel sink poisoned"))
    }

    /// True when no cancellations are pending.
    pub fn is_empty(&self) -> bool {
        self.0.lock().expect("cancel sink poisoned").is_empty()
    }
}

/// Handle to a **posted receive** — a ticket into the endpoint's pending
/// request table. Obtained from [`Comm::post_recv`]; driven by the
/// progress engine; consumed by the completing call ([`Comm::test`]
/// returning `Some`, [`Comm::wait`], [`Comm::wait_any`] picking it, or
/// [`Comm::cancel_recv`]). The handle is `Copy` for ergonomic bookkeeping
/// (MPI-style request arrays); using a handle after it completed, was
/// cancelled, or against a different endpoint is a programming error and
/// panics with a descriptive message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RecvReq(u64);

/// Handle to a posted send. Datagram sends on this transport are
/// fire-and-forget and the payload is a shared [`Bytes`] view the
/// endpoint may hold as long as it needs (retransmit ring), so a send is
/// **complete the moment it is posted** — there is no buffer the caller
/// must keep alive, hence nothing to test or wait for. The handle exists
/// for API symmetry with MPI's `Isend` and carries the sequence number
/// the send used.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SendReq {
    seq: u64,
}

impl SendReq {
    /// Wrap a completed send's sequence number (used by backends
    /// implementing the `try_post_*` window paths).
    pub(crate) fn completed(seq: u64) -> SendReq {
        SendReq { seq }
    }

    /// The sequence number the posted send used (what
    /// [`Comm::send_kind`] returns on the blocking path).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Always true — see the type docs.
    pub fn is_complete(&self) -> bool {
        true
    }
}

/// Message tag. Collectives encode (operation, phase, round) in it.
pub type Tag = u32;

/// Tag for fire-and-forget traffic (modelled TCP acks): receivers drop
/// these at ingest instead of buffering them for matching.
pub const FIRE_AND_FORGET_TAG: Tag = u32::MAX;

/// Request-based, tag-matching datagram communicator over an unreliable
/// fabric.
///
/// Semantics shared by all implementations:
///
/// * `send`/`mcast` are *unreliable*: they return once the datagram has
///   left the sender; delivery is not guaranteed (multicast to a receiver
///   that is not ready can be lost — the paper's core hazard).
/// * Receives are **posted** and match on `(source rank, tag)` within
///   this communicator's context; non-matching messages are buffered,
///   never dropped. When several posted receives share a matcher,
///   messages complete them in post order (FIFO both ways).
/// * Per-sender sequence numbers deduplicate retransmitted multicasts.
/// * The progress engine ([`Comm::progress`] and every blocking call)
///   advances *all* outstanding requests — with repair armed, every
///   posted receive keeps its own NACK solicitation deadline live even
///   while the caller waits on an unrelated request.
/// * No primitive panics on unrecoverable loss: completion is always a
///   `Result` carrying the typed [`RecvError`]. Backends without a
///   repair loop can never fail.
///
/// The `*_kind` primitives take `&Bytes` so an already-shared payload
/// (e.g. a received [`Message`] being forwarded) moves through without a
/// copy; the [`Comm::send`]/[`Comm::mcast`] conveniences accept anything
/// convertible (slices and `Vec`s pay the one unavoidable import copy).
pub trait Comm {
    /// This process's rank in `0..size()`.
    fn rank(&self) -> usize;
    /// Number of ranks in the communicator.
    fn size(&self) -> usize;
    /// Context id separating concurrent communicators.
    fn context(&self) -> u32;

    /// Unicast `payload` to `dst`. Returns the sequence number used.
    fn send_kind(&mut self, dst: usize, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64;

    /// Multicast `payload` to every rank of the communicator's group
    /// (excluding self). Returns the sequence number used.
    fn mcast_kind(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64;

    /// Retransmit a multicast with an explicit (previously used) sequence
    /// number, so receivers that already have it deduplicate.
    fn mcast_resend(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes, seq: u64);

    /// Does the fabric actually deliver [`Comm::mcast_kind`] as a single
    /// multicast send? When `false` the transport falls back to unicast
    /// fan-out, and algorithm selectors (e.g. the `Auto` broadcast) should
    /// prefer gossip dissemination over multicast-shaped plans. Default
    /// `true`: multicast is this project's whole premise, so only
    /// backends that *know* they lack it report otherwise.
    fn multicast_capable(&self) -> bool {
        true
    }

    // ------------------------------------------------------------------
    // The request layer: post / progress / test / wait.
    // ------------------------------------------------------------------

    /// Post a receive for `(src, tag)` (`src = None` matches any source)
    /// and return its handle. Posting never blocks and never fails; the
    /// request is completed by the progress engine and claimed through
    /// [`Comm::test`], [`Comm::wait`], [`Comm::wait_deadline`] or
    /// [`Comm::wait_any`]. With repair armed, the post also arms the
    /// request's NACK solicitation deadline.
    fn post_recv(&mut self, src: Option<usize>, tag: Tag) -> RecvReq;

    /// One nonblocking pass of the progress engine: ingest every datagram
    /// already available, service queued NACKs, match buffered messages
    /// to posted requests, and fire any expired solicitation deadlines.
    /// Never blocks, never fails — completions (including errors) park in
    /// their request slots until claimed.
    fn progress(&mut self);

    /// Block until the progress engine observes one event — a datagram
    /// ingested or a solicitation deadline fired — then run a progress
    /// pass; returns *immediately* when any posted receive already holds
    /// an unclaimed completion (claimable work must never be parked
    /// over). The building block for round-robin polling of several
    /// composed operations: loop `poll each → progress_block` and
    /// virtual/wall time advances correctly on every backend. Spurious
    /// wakeups are allowed.
    fn progress_block(&mut self);

    /// Block until at least one of `reqs` is complete, without claiming
    /// it (follow up with [`Comm::test`]). Unlike
    /// [`Comm::progress_block`], this parks even while *other* posted
    /// receives sit complete-but-unclaimed — the wait a single composed
    /// operation uses when unrelated operations are outstanding on the
    /// same endpoint. No-op on an empty slice.
    fn wait_ready(&mut self, reqs: &[RecvReq]);

    /// Nonblocking completion check. `None` means still pending;
    /// `Some(result)` claims the completion and **retires the handle**.
    /// Runs a nonblocking progress pass first, so a lone `test` loop
    /// observes arrivals (but see [`Comm::progress_block`] for how to
    /// wait without spinning).
    fn test(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>>;

    /// Claim-only variant of [`Comm::test`]: no progress pass, just a
    /// table lookup. For pollers checking many requests after one
    /// explicit [`Comm::progress`] — avoids a socket drain (and, on the
    /// simulator, a round of the co-simulation) per request.
    fn test_claimed(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>>;

    /// Block until `req` completes and claim it.
    fn wait(&mut self, req: RecvReq) -> Result<Message, RecvError>;

    /// Block until `req` completes or `timeout` elapses. `Ok(None)` means
    /// the timeout won — the request is **cancelled** (an already-matched
    /// message would be requeued, but claim beats cancel, so none is
    /// lost) and the handle retired. This is the single deadline
    /// implementation every backend's timeout receive goes through.
    fn wait_deadline(
        &mut self,
        req: RecvReq,
        timeout: Duration,
    ) -> Result<Option<Message>, RecvError>;

    /// Block until *one* of `reqs` completes; claim it and return its
    /// index in `reqs` with the message. The other requests stay posted.
    /// On `Err`, the failing request is the one consumed and its handle
    /// retired; to abandon the operation, [`Comm::cancel_recv`] every
    /// handle in `reqs` — cancel is a no-op on the retired one, so no
    /// identification is needed (testing it would panic). Panics on an
    /// empty slice — that wait could never return.
    fn wait_any(&mut self, reqs: &[RecvReq]) -> Result<(usize, Message), RecvError>;

    /// Abandon a posted receive: its handle is retired and its repair
    /// state dropped. A message already matched to it is requeued for the
    /// next matching request, so cancel never loses data. No-op on an
    /// already-retired handle.
    fn cancel_recv(&mut self, req: RecvReq);

    /// The endpoint's deferred-cancel sink: dropped request machines push
    /// their outstanding receive handles here and the progress engine
    /// cancels them on its next pass (a `Drop` impl has no `&mut Comm`).
    /// Clones share the sink.
    fn cancel_sink(&self) -> CancelSink;

    /// Post a unicast send. Completes immediately (see [`SendReq`]) —
    /// but with a send window configured ([`RepairConfig::send_window`]),
    /// *posting itself* blocks while the window is full, progressing the
    /// engine until peers' ACK horizons open it (the back-pressure that
    /// keeps a fast sender from outrunning its repair history). Use
    /// [`Comm::try_post_send`] to get `WouldBlock` instead.
    fn post_send(&mut self, dst: usize, tag: Tag, payload: &Bytes) -> SendReq {
        SendReq {
            seq: self.send_kind(dst, tag, MsgKind::Data, payload),
        }
    }

    /// Post a multicast send. Completes immediately, with the same
    /// send-window blocking semantics as [`Comm::post_send`].
    fn post_mcast(&mut self, tag: Tag, payload: &Bytes) -> SendReq {
        SendReq {
            seq: self.mcast_kind(tag, MsgKind::Data, payload),
        }
    }

    /// Nonblocking [`Comm::post_send`]: with the send window full (after
    /// one nonblocking progress pass that may open it) returns
    /// [`SendWindowFull`] instead of blocking. Backends without a send
    /// window never fail.
    fn try_post_send(
        &mut self,
        dst: usize,
        tag: Tag,
        payload: &Bytes,
    ) -> Result<SendReq, SendWindowFull> {
        Ok(self.post_send(dst, tag, payload))
    }

    /// Nonblocking [`Comm::post_mcast`] (see [`Comm::try_post_send`]).
    fn try_post_mcast(&mut self, tag: Tag, payload: &Bytes) -> Result<SendReq, SendWindowFull> {
        Ok(self.post_mcast(tag, payload))
    }

    // ------------------------------------------------------------------
    // Blocking conveniences: thin post-and-wait wrappers (compatibility
    // with the original blocking API, now Result-typed).
    // ------------------------------------------------------------------

    /// Block until a message from `src` with `tag` arrives.
    fn recv_match(&mut self, src: usize, tag: Tag) -> Result<Message, RecvError> {
        let req = self.post_recv(Some(src), tag);
        self.wait(req)
    }

    /// Like [`Comm::recv_match`] with a timeout (`Ok(None)` on expiry).
    fn recv_match_timeout(
        &mut self,
        src: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Option<Message>, RecvError> {
        let req = self.post_recv(Some(src), tag);
        self.wait_deadline(req, timeout)
    }

    /// Block until a message with `tag` arrives from any source.
    fn recv_any(&mut self, tag: Tag) -> Result<Message, RecvError> {
        let req = self.post_recv(None, tag);
        self.wait(req)
    }

    /// Like [`Comm::recv_any`] with a timeout (`Ok(None)` on expiry).
    fn recv_any_timeout(
        &mut self,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Option<Message>, RecvError> {
        let req = self.post_recv(None, tag);
        self.wait_deadline(req, timeout)
    }

    /// Blocking receive behind one optional-source, optional-timeout
    /// entry point (kept for compatibility; new code can post and wait
    /// directly).
    fn recv_checked(
        &mut self,
        src: Option<usize>,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<Option<Message>, RecvError> {
        let req = self.post_recv(src, tag);
        match timeout {
            None => self.wait(req).map(Some),
            Some(t) => self.wait_deadline(req, t),
        }
    }

    /// Model `d` of local computation (advances virtual time in the
    /// simulator; sleeps on real transports).
    fn compute(&mut self, d: Duration);

    /// Model the kernel-generated TCP acknowledgement traffic the
    /// MPICH-over-TCP baseline would put on the wire: `count` minimum-size
    /// frames to `dst`, cheap for the host, never matched by receivers.
    /// A no-op except on the simulator (real transports genuinely run
    /// over UDP; there is no TCP to model).
    fn tcp_ack_model(&mut self, dst: usize, count: u32) {
        let _ = (dst, count);
    }

    /// Ranks the membership layer has confirmed failed (sorted). Empty
    /// on transports without membership ([`RepairConfig::membership`]).
    fn failed_peers(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Ranks that announced a graceful departure (sorted). Empty on
    /// transports without membership.
    fn departed_peers(&self) -> Vec<usize> {
        Vec::new()
    }

    /// The current liveness epoch (0 without membership or before any
    /// communicator shrink).
    fn epoch(&self) -> u32 {
        0
    }

    /// Graceful departure: announce, flush the retransmit ring, and
    /// retire this endpoint (drain-on-leave, `docs/API.md`). A no-op on
    /// transports without membership.
    fn leave(&mut self) {}

    /// Adopt a new liveness epoch after a communicator shrink: the
    /// message context is re-derived so old-epoch stragglers are
    /// discarded. A no-op on transports without membership (their
    /// context never changes).
    fn rebase_epoch(&mut self, epoch: u32) {
        let _ = epoch;
    }

    /// Adopt an externally agreed failure verdict (the communicator
    /// shrink's vote union): mark `rank` failed immediately, without
    /// waiting out the local suspicion timers. A no-op on transports
    /// without membership.
    fn declare_failed(&mut self, rank: usize) {
        let _ = rank;
    }

    /// Convenience: unicast data.
    fn send(&mut self, dst: usize, tag: Tag, payload: impl Into<Bytes>) -> u64
    where
        Self: Sized,
    {
        let payload = payload.into();
        self.send_kind(dst, tag, MsgKind::Data, &payload)
    }

    /// Convenience: multicast data.
    fn mcast(&mut self, tag: Tag, payload: impl Into<Bytes>) -> u64
    where
        Self: Sized,
    {
        let payload = payload.into();
        self.mcast_kind(tag, MsgKind::Data, &payload)
    }

    /// Convenience: receive and return just the payload, as an owned
    /// `Vec` (free when the message owns its buffer, one copy when it is
    /// a zero-copy slice of a larger receive buffer).
    fn recv(&mut self, src: usize, tag: Tag) -> Result<Vec<u8>, RecvError> {
        self.recv_match(src, tag).map(Message::into_vec)
    }
}

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
        }
    }

    /// Feed one wire datagram (already in header-view/payload-view form —
    /// zero-copy). Malformed datagrams are rejected — an unreliable
    /// network may hand us anything.
    pub fn ingest_wire(
        &mut self,
        datagram: &Datagram,
        via_multicast: bool,
    ) -> Result<(), WireError> {
        match self.assembler.feed(datagram) {
            Ok(Some(m)) => {
                self.ingest_message(m, via_multicast);
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Feed raw contiguous datagram bytes (one socket read).
    pub fn ingest_datagram(&mut self, bytes: &Bytes) -> Result<(), WireError> {
        self.ingest_datagram_via(bytes, false)
    }

    /// Like [`Inbox::ingest_datagram`] but marking the datagram as having
    /// arrived on a multicast socket (enables the self-echo filter).
    pub fn ingest_datagram_via(
        &mut self,
        bytes: &Bytes,
        via_multicast: bool,
    ) -> Result<(), WireError> {
        let dg = Datagram::from_contiguous(bytes.clone())?;
        self.ingest_wire(&dg, via_multicast)
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
}

/// Nanoseconds on a backend's monotone clock (virtual nanos for the
/// simulator, wall nanos since endpoint creation for UDP). The repair
/// loops' timer arithmetic — deadlines, backoff jitter, suppression
/// windows — is plain integer math on this one representation, which is
/// what lets [`EndpointCore`] persist timestamps across calls without
/// being generic over a backend instant type.
pub type Nanos = u64;

/// Backend primitives the shared repair/receive loops are parameterized
/// over: a clock (virtual or wall) and a socket pump. Implemented by the
/// sim backend over [`mmpi_netsim::SimTime`] and by the UDP backend over
/// [`std::time::Instant`]; the loops in [`EndpointCore`] are written once
/// against this trait. The half that does not receive is [`RepairPort`].
pub trait RepairPump {
    /// The current instant, as [`Nanos`] on this backend's clock.
    fn now(&mut self) -> Nanos;

    /// Block until one datagram has been received and ingested into
    /// `core`'s inbox, or `until` passes (`None`: wait indefinitely).
    /// Malformed datagrams are ingested-and-ignored, not errors.
    fn pump_one(&mut self, core: &mut EndpointCore, until: Option<Nanos>);

    /// Nonblocking pump: ingest one datagram into `core` *if one is
    /// already available*, without waiting. Returns whether a datagram
    /// was ingested. The progress engine drains with this in
    /// [`Comm::progress`]/[`Comm::test`]; blocking waits use
    /// [`RepairPump::pump_one`] so a backend's time model (virtual time
    /// in the simulator) advances while the caller is parked.
    fn pump_ready(&mut self, core: &mut EndpointCore) -> bool;

    /// Drain-phase pump: wait up to `quiet` for one datagram, ingesting
    /// it into `core`. Returns `false` when the wait elapsed silently
    /// (or the backend is tearing down — drain must never panic).
    fn pump_drain(&mut self, core: &mut EndpointCore, quiet: Duration) -> bool;

    /// Hand already-encoded datagrams to rank `dst`, unicast. Used for
    /// NACKs and retransmissions — the datagrams are shared views, so
    /// implementations must not need to copy payload bytes (a real
    /// socket's contiguous write is the one allowed exception).
    fn send_encoded(&mut self, dst: usize, datagrams: &[Datagram]);

    /// Hand already-encoded datagrams to the communicator's multicast
    /// group. Used by the SRM scale-out for NACK solicitations (so peers
    /// overhear and suppress) and repair retransmissions (one answer
    /// heals everyone); same zero-copy contract as
    /// [`RepairPump::send_encoded`].
    fn send_encoded_mcast(&mut self, datagrams: &[Datagram]);

    /// Carry one SRM solicitation to the fabric. The default multicasts
    /// only — peers must overhear it for suppression to work. The UDP
    /// backend *additionally* unicasts a directed solicit to its target,
    /// so point-to-point repair keeps working in environments that
    /// silently eat multicast (the target's inbox dedups the duplicate
    /// by sequence number).
    fn send_solicit(&mut self, target: Option<usize>, datagrams: &[Datagram]) {
        let _ = target;
        self.send_encoded_mcast(datagrams);
    }
}

/// The clock-and-send half of [`RepairPump`]: everything one pass of the
/// engine ([`EndpointCore::poll_wait`] and the planes under it) needs from
/// a backend. It cannot receive, so a pass may be handed one by somebody
/// who is not the endpoint's own thread — the simulator's round closer,
/// stepping a parked rank (`docs/SIMULATOR.md`, "Served waits"). Every
/// [`RepairPump`] is one.
pub trait RepairPort {
    /// [`RepairPump::now`].
    fn now(&mut self) -> Nanos;
    /// [`RepairPump::send_encoded`].
    fn send_encoded(&mut self, dst: usize, datagrams: &[Datagram]);
    /// [`RepairPump::send_encoded_mcast`].
    fn send_encoded_mcast(&mut self, datagrams: &[Datagram]);
    /// [`RepairPump::send_solicit`].
    fn send_solicit(&mut self, target: Option<usize>, datagrams: &[Datagram]) {
        let _ = target;
        self.send_encoded_mcast(datagrams);
    }
}

impl<P: RepairPump> RepairPort for P {
    #[inline]
    fn now(&mut self) -> Nanos {
        RepairPump::now(self)
    }
    #[inline]
    fn send_encoded(&mut self, dst: usize, datagrams: &[Datagram]) {
        RepairPump::send_encoded(self, dst, datagrams);
    }
    #[inline]
    fn send_encoded_mcast(&mut self, datagrams: &[Datagram]) {
        RepairPump::send_encoded_mcast(self, datagrams);
    }
    #[inline]
    fn send_solicit(&mut self, target: Option<usize>, datagrams: &[Datagram]) {
        RepairPump::send_solicit(self, target, datagrams);
    }
}

/// What a blocking wait on an [`EndpointCore`] is waiting for.
#[derive(Clone, Copy, Debug)]
pub enum WaitKind<'a> {
    /// One of these posted receives holds a completion
    /// ([`Comm::wait`], [`Comm::wait_any`], [`Comm::wait_ready`]).
    AnyOf(&'a [RecvReq]),
    /// The receive holds a completion, or the backend's clock has reached
    /// the deadline ([`Comm::wait_deadline`]).
    Until(RecvReq, Nanos),
    /// Any posted receive at all holds a completion
    /// ([`Comm::progress_block`]).
    AnyPosted,
}

/// One turn of a blocking wait ([`EndpointCore::poll_wait`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitPoll {
    /// The wait is over; the caller claims what it came for.
    Ready,
    /// Nothing yet: receive one datagram, giving up at this instant
    /// (`None`: no timer is armed), and poll again.
    Park(Option<Nanos>),
}

/// Duration → backend-clock [`Nanos`].
fn dur_nanos(d: Duration) -> Nanos {
    d.as_nanos() as Nanos
}

/// Drop stale entries once a suppression map has grown past a small
/// bound — keeps the maps O(live window) without a timer wheel.
fn prune_stale<K: std::hash::Hash + Eq>(map: &mut HashMap<K, Nanos>, now: Nanos, window: Nanos) {
    if map.len() >= 128 {
        map.retain(|_, &mut at| now.saturating_sub(at) < window);
    }
}

/// Per-endpoint SRM scale-out state: the seeded backoff stream plus the
/// two suppression memories (solicits overheard from peers, repairs this
/// endpoint already multicast). Exists only when
/// [`RepairConfig::srm`] is set.
#[derive(Debug)]
struct SrmState {
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
    fn new(seed: u64, rank: usize, context: u32) -> Self {
        // Decorrelate endpoints sharing one configured seed.
        let mix = seed
            ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (context as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        SrmState {
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
}

/// SRM/RFC-6298-style RTT estimator for one peer: integer-nanosecond
/// EWMAs `srtt += (sample − srtt)/8`, `rttvar += (|sample − srtt| −
/// rttvar)/4`, retransmission timeout `srtt + 4·rttvar`. All arithmetic
/// is on [`Nanos`] from the backend clock, so simulated estimates replay
/// byte-identically.
#[derive(Clone, Copy, Debug, Default)]
struct PeerRtt {
    srtt: Nanos,
    rttvar: Nanos,
    samples: u64,
}

impl PeerRtt {
    fn observe(&mut self, sample: Nanos) {
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
    fn srtt(&self) -> Option<Nanos> {
        (self.samples > 0).then_some(self.srtt)
    }

    /// Derived solicitation timeout `srtt + 4·rttvar` (unclamped — the
    /// consumer clamps into its configured band).
    fn timeout(&self) -> Option<Nanos> {
        (self.samples > 0).then(|| self.srtt + 4 * self.rttvar.max(1))
    }
}

/// Wire offset of the horizon sequence space: session messages count
/// from here, data messages from zero, and the chunk assembler (keyed
/// by `(src, seq)`) can never confuse the two.
const HORIZON_SEQ_BASE: u64 = 1 << 63;

/// Per-endpoint state of the ACK-horizon session plane: the per-peer RTT
/// estimators, the probe timestamps owed an echo, each peer's advertised
/// frontier for *our* traffic, and the emission schedule. Exists whenever
/// the repair loop is armed (cheap: two `Vec`s of `n`); stays inert until
/// [`RepairConfig::horizon_interval`] turns emission on.
#[derive(Debug)]
struct HorizonState {
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
    /// Sequence counter for our own horizon emissions. A space of its
    /// own, *not* [`EndpointCore::fresh_seq`]: session messages are
    /// never recorded for retransmission, so threading them through the
    /// data sequence space would turn every lost horizon into a
    /// permanent, unanswerable hole in receivers' missing-range
    /// advertisements. Offset by [`HORIZON_SEQ_BASE`] on the wire so
    /// the two spaces can never collide in the chunk assembler's
    /// `(src, seq)` keys.
    seq: u64,
}

impl HorizonState {
    fn new(n: usize) -> Self {
        HorizonState {
            rtt: vec![PeerRtt::default(); n],
            owed: BTreeMap::new(),
            frontier: vec![None; n],
            next_at: 0,
            ack_cursor: 0,
            solicited_at: BTreeMap::new(),
            seq: 0,
        }
    }
}

/// Per-peer liveness record of the membership layer (`docs/PROTOCOL.md`
/// §10).
#[derive(Clone, Copy, Debug)]
struct PeerLive {
    /// Last instant this peer proved itself alive. *Any* accepted
    /// traffic counts — the inbox's activity counter, not just
    /// heartbeats — so a chatty peer never pays a beacon.
    last_heard: Nanos,
    /// Snapshot of [`Inbox::activity_of`] at the last refresh; a higher
    /// live value means traffic arrived since.
    activity: u64,
    /// When suspicion opened; `None` while the peer is in good standing.
    suspected_at: Option<Nanos>,
    /// Confirmed failed — by our own timer or an adopted announcement.
    /// Sticky: a failure is never un-declared (a late heartbeat from a
    /// declared-dead peer is the classic split-brain seed).
    failed: bool,
    /// Announced a graceful departure ([`EndpointCore::leave`]). Sticky.
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
struct MemberState {
    /// Liveness epoch — bumped by [`EndpointCore::rebase_epoch`] after a
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

impl MemberState {
    fn new(n: usize) -> Self {
        MemberState {
            epoch: 0,
            incarnation: 0,
            peers: vec![
                PeerLive {
                    last_heard: 0,
                    activity: 0,
                    suspected_at: None,
                    failed: false,
                    departed: false,
                    announced: false,
                };
                n
            ],
            next_hb_at: 0,
            last_tx_at: 0,
            started: false,
        }
    }
}

/// One outstanding gossip pull: the advertiser it was sent to and when
/// to retry (rotating to another known holder) if no payload lands.
#[derive(Clone, Copy, Debug)]
struct WantPending {
    /// The peer the `Want` was addressed to.
    peer: u32,
    /// Retry deadline.
    at: Nanos,
}

/// Per-endpoint state of the epidemic dissemination plane
/// (`docs/PROTOCOL.md` §11). Everything iterated into wire bytes is
/// `BTreeMap`/`Vec`-backed — replay determinism forbids hash-order
/// output.
#[derive(Debug)]
struct GossipState {
    cfg: GossipConfig,
    /// Per-peer: which ids that peer is known to hold (its `Advr`s plus
    /// the positive half of its ACK-horizon frontiers). Routes pulls and
    /// retries; GC'd by the horizon plane.
    peer_seen: Vec<SeenTable>,
    /// Per-peer: which ids we already advertised to that peer —
    /// re-advertising is suppressed. GC'd with `peer_seen`.
    advertised: Vec<SeenTable>,
    /// Relay store: payloads this endpoint accepted and re-advertises,
    /// so a peer partitioned from the origin can pull from us. Keyed
    /// `(src, seq)`; FIFO-evicted at `cfg.relay_cap` via `relay_order`,
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

impl GossipState {
    fn new(cfg: GossipConfig, n: usize) -> Self {
        GossipState {
            cfg,
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
    fn earliest_retry(&self) -> Option<Nanos> {
        self.wanted.values().map(|w| w.at).min()
    }
}

/// One posted receive in the endpoint's request table: its matcher, its
/// private NACK solicitation deadline, and — once the progress engine
/// completes it — the parked result awaiting a claim.
#[derive(Debug)]
struct PendingRecv {
    id: u64,
    src: Option<usize>,
    tag: Tag,
    /// Next solicitation deadline (`None` with repair off).
    solicit_at: Option<Nanos>,
    /// Parked completion; claimed by `test`/`wait`/`wait_any`.
    done: Option<Result<Message, RecvError>>,
}

/// The backend-independent half of a transport endpoint: sequence
/// numbers, wire encoding, the receive inbox, the retransmit ring, the
/// posted-receive request table, and — written exactly once for all
/// backends — the **progress engine** driving the NACK service / solicit
/// / drain policy of `docs/PROTOCOL.md` (including the SRM
/// backoff/suppression/multicast-repair scale-out of §8) for *every*
/// outstanding request, through a [`RepairPump`].
#[derive(Debug)]
pub struct EndpointCore {
    context: u32,
    rank: usize,
    n: usize,
    max_chunk: usize,
    /// Repair tuning; `None` disables the repair loop entirely.
    pub repair: Option<RepairConfig>,
    /// Receive-side bookkeeping.
    pub inbox: Inbox,
    rtx: RetransmitBuffer,
    rstats: RepairStats,
    srm: Option<SrmState>,
    horizon: Option<HorizonState>,
    member: Option<MemberState>,
    /// Epidemic dissemination state; `None` under the `Multicast` plane
    /// (every gossip hook is gated on it, so the multicast paths draw
    /// and send byte-identically to the pre-seam protocol).
    gossip: Option<GossipState>,
    /// The context this endpoint was created with; epoch rebases derive
    /// each epoch's context from it ([`EndpointCore::rebase_epoch`]).
    base_context: u32,
    /// Set by [`EndpointCore::leave`] (graceful, after announcing and
    /// draining) or [`EndpointCore::abandon`] (crash injection): the
    /// endpoint is out of the group and must not drain again on drop.
    left: bool,
    cancels: CancelSink,
    next_seq: u64,
    /// Posted receives, in post order (the matching priority).
    pending: Vec<PendingRecv>,
    next_req: u64,
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

/// The message context of `epoch` for a communicator whose epoch-0
/// context is `base`. A SplitMix64-style finalizer over the epoch: any
/// two epochs' contexts differ in ~half their bits, so cross-epoch
/// traffic can never alias. Pure, so any endpoint can derive the
/// context of an epoch it has not reached yet.
fn epoch_context(base: u32, epoch: u32) -> u32 {
    let x = (u64::from(epoch)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let x = (x ^ (x >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let salt = if epoch == 0 {
        0
    } else {
        (x >> 32) as u32 ^ x as u32
    };
    base ^ salt
}

impl EndpointCore {
    /// A fresh endpoint core for `rank` of `n`, chunking at `max_chunk`.
    pub fn new(
        context: u32,
        rank: usize,
        n: usize,
        max_chunk: usize,
        repair: Option<RepairConfig>,
    ) -> Self {
        let mut inbox = Inbox::new(context, rank as u32);
        if repair.and_then(|r| r.membership).is_some() {
            inbox.next_context = Some(epoch_context(context, 1));
        }
        let gossip_cfg = repair.and_then(|r| r.gossip());
        if gossip_cfg.is_some() {
            inbox.set_log_data(true);
        }
        EndpointCore {
            context,
            rank,
            n,
            max_chunk,
            repair,
            inbox,
            rtx: RetransmitBuffer::new(
                repair
                    .map(|r| r.buffer_cap)
                    .unwrap_or(mmpi_wire::DEFAULT_RETRANSMIT_CAP),
            ),
            rstats: RepairStats::default(),
            srm: repair
                .filter(|r| r.srm)
                .map(|r| SrmState::new(r.seed, rank, context)),
            horizon: repair.map(|_| HorizonState::new(n)),
            member: repair
                .and_then(|r| r.membership)
                .map(|_| MemberState::new(n)),
            gossip: gossip_cfg.map(|g| GossipState::new(g, n)),
            base_context: context,
            left: false,
            cancels: CancelSink::new(),
            next_seq: 0,
            pending: Vec::new(),
            next_req: 0,
        }
    }

    /// A clone of this endpoint's deferred-cancel sink (see
    /// [`CancelSink`]); drained at the start of every progress pass.
    pub fn cancel_sink(&self) -> CancelSink {
        self.cancels.clone()
    }

    /// The smoothed RTT estimate for `peer`, if any samples exist —
    /// exposed for the adaptive-timer convergence tests and diagnostics.
    pub fn peer_rtt(&self, peer: usize) -> Option<Duration> {
        self.horizon
            .as_ref()?
            .rtt
            .get(peer)?
            .srtt()
            .map(Duration::from_nanos)
    }

    /// The per-peer solicitation timeout a directed receive from `peer`
    /// would use right now: RTT-derived (clamped into the configured
    /// band) when adaptivity is on and samples exist, otherwise the
    /// configured [`RepairConfig::nack_timeout`]. `None` with repair off.
    pub fn peer_nack_timeout(&self, peer: usize) -> Option<Duration> {
        self.repair?;
        let (t, _) = self.repair_timers(Some(peer));
        Some(Duration::from_nanos(t))
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Communicator context id.
    pub fn context(&self) -> u32 {
        self.context
    }

    /// Allocate the next send sequence number.
    pub fn fresh_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Encode a message into wire datagrams (zero-copy views of
    /// `payload`).
    pub fn encode(&self, tag: Tag, kind: MsgKind, payload: &Bytes, seq: u64) -> Vec<Datagram> {
        split_message(
            kind,
            self.context,
            self.rank as u32,
            tag,
            seq,
            payload,
            self.max_chunk,
        )
    }

    /// Remember an encoded send for retransmission — only when the repair
    /// loop is armed (recording clones `Bytes` handles, never bytes).
    pub fn record_if_armed(
        &mut self,
        seq: u64,
        dst: SendDst,
        tag: Tag,
        kind: MsgKind,
        datagrams: &[Datagram],
    ) {
        if self.repair.is_some() {
            self.rtx.record(seq, dst, tag, kind, datagrams);
        }
    }

    /// Repair counters of this endpoint so far.
    pub fn repair_stats(&self) -> RepairStats {
        self.rstats
    }

    /// The shared unicast send path: allocate a sequence number, encode,
    /// record for retransmission when armed, hand to the pump. Every
    /// backend's [`Comm::send_kind`] is this. `Data` sends first block on
    /// the send window when one is configured (control and repair kinds
    /// are never gated — gating them would deadlock the very plane that
    /// opens the window).
    pub fn send_message<P: RepairPump>(
        &mut self,
        io: &mut P,
        dst: usize,
        tag: Tag,
        kind: MsgKind,
        payload: &Bytes,
    ) -> u64 {
        assert!(dst < self.n, "rank {dst} out of range");
        if kind == MsgKind::Data {
            self.wait_for_send_window(io);
        }
        let seq = self.fresh_seq();
        let dgs = self.encode(tag, kind, payload, seq);
        self.record_if_armed(seq, SendDst::Rank(dst as u32), tag, kind, &dgs);
        io.send_encoded(dst, &dgs);
        // Deliberately no `note_tx`: a unicast proves us alive to its
        // one destination only. Every other observer's suspicion clock
        // keeps running, so a unicast-heavy phase (pairwise barrier
        // rounds, directed repair) must NOT suppress the standalone
        // beacon — only group-visible multicasts may.
        seq
    }

    /// The shared *group* send path (see [`EndpointCore::send_message`]) —
    /// the dissemination seam. Under [`Dissemination::Multicast`] the
    /// encoded message goes out as one fabric multicast, byte-identical
    /// to the pre-seam protocol. Under [`Dissemination::Gossip`] the
    /// payload is only *recorded* (as a `Multicast` record, so any
    /// requester may pull it) and a compact `Advr` digest is unicast to
    /// every live peer instead — lazy push; the payload itself crosses a
    /// link only when a peer answers with a `Want`.
    pub fn mcast_message<P: RepairPump>(
        &mut self,
        io: &mut P,
        tag: Tag,
        kind: MsgKind,
        payload: &Bytes,
    ) -> u64 {
        if kind == MsgKind::Data {
            self.wait_for_send_window(io);
        }
        let seq = self.fresh_seq();
        let dgs = self.encode(tag, kind, payload, seq);
        self.record_if_armed(seq, SendDst::Multicast, tag, kind, &dgs);
        if self.gossip.is_some() {
            self.advertise_ids(io, &[(self.rank as u32, seq)]);
        } else {
            io.send_encoded_mcast(&dgs);
        }
        self.note_tx(io);
        seq
    }

    /// Put an encoded control message in front of the whole group: one
    /// fabric multicast under the `Multicast` plane, a unicast per live
    /// peer under `Gossip` (whose fabric is assumed to have no working
    /// multicast at all).
    fn group_transmit<P: RepairPort>(&self, io: &mut P, dgs: &[Datagram]) {
        if self.gossip.is_some() {
            for p in 0..self.n {
                if p != self.rank && !self.peer_dead(p) {
                    io.send_encoded(p, dgs);
                }
            }
        } else {
            io.send_encoded_mcast(dgs);
        }
    }

    /// Stamp an outbound *multicast* for the membership layer's "quiet"
    /// test (a peer whose multicast the whole group just heard owes no
    /// standalone heartbeat). Unicast sends never stamp: they prove
    /// liveness to a single destination, and suppressing the beacon on
    /// their account starves every other observer's suspicion clock.
    /// No-op — and, deliberately, no clock read — with membership off,
    /// so the membership-less send path stays identical.
    fn note_tx<P: RepairPort>(&mut self, io: &mut P) {
        if let Some(m) = self.member.as_mut() {
            m.last_tx_at = io.now();
        }
    }

    /// Nonblocking unicast `Data` send: with the window full after one
    /// nonblocking progress pass, fail with [`SendWindowFull`] instead
    /// of blocking — the request-path (`WouldBlock`) surface.
    pub fn try_send_message<P: RepairPump>(
        &mut self,
        io: &mut P,
        dst: usize,
        tag: Tag,
        payload: &Bytes,
    ) -> Result<u64, SendWindowFull> {
        if !self.send_window_open() {
            self.progress(io);
            if !self.send_window_open() {
                self.rstats.send_window_stalls += 1;
                return Err(SendWindowFull);
            }
        }
        Ok(self.send_message(io, dst, tag, MsgKind::Data, payload))
    }

    /// Nonblocking multicast `Data` send (see
    /// [`EndpointCore::try_send_message`]).
    pub fn try_mcast_message<P: RepairPump>(
        &mut self,
        io: &mut P,
        tag: Tag,
        payload: &Bytes,
    ) -> Result<u64, SendWindowFull> {
        if !self.send_window_open() {
            self.progress(io);
            if !self.send_window_open() {
                self.rstats.send_window_stalls += 1;
                return Err(SendWindowFull);
            }
        }
        Ok(self.mcast_message(io, tag, MsgKind::Data, payload))
    }

    /// True when another `Data` send fits the send window. Always true
    /// without a configured window — and without a horizon interval,
    /// whose session messages are the only thing that could ever open a
    /// closed window again.
    pub fn send_window_open(&self) -> bool {
        match self.repair {
            Some(RepairConfig {
                send_window: Some(w),
                horizon_interval: Some(_),
                ..
            }) => self.rtx.data_bytes() <= w,
            _ => true,
        }
    }

    /// Block until the send window opens: progress the engine (which
    /// ingests peers' ACK horizons and garbage-collects acknowledged
    /// ring history) and park on the pump between passes. The park
    /// deadline includes our own next horizon emission, so mutually
    /// blocked endpoints keep exchanging session messages — the window
    /// cannot deadlock on itself.
    fn wait_for_send_window<P: RepairPump>(&mut self, io: &mut P) {
        if self.send_window_open() {
            return;
        }
        self.rstats.send_window_stalls += 1;
        let interval = self
            .repair
            .and_then(|rc| rc.effective_horizon_interval(self.n))
            .map(dur_nanos)
            .expect("window closed implies horizon interval set");
        loop {
            self.advance(io);
            if self.send_window_open() {
                return;
            }
            let now = io.now();
            let until = self
                .park_deadline()
                .map_or(now + interval, |at| at.min(now + interval))
                .max(now + 1);
            io.pump_one(self, Some(until));
        }
    }

    /// Re-send to the group under an explicit (previously used) sequence
    /// number — already recorded when first sent, so no re-record. Under
    /// gossip the re-send goes unicast per live peer (receivers that
    /// already hold the seq dedup it).
    pub fn mcast_resend_message<P: RepairPort>(
        &mut self,
        io: &mut P,
        tag: Tag,
        kind: MsgKind,
        payload: &Bytes,
        seq: u64,
    ) {
        let dgs = self.encode(tag, kind, payload, seq);
        self.group_transmit(io, &dgs);
    }

    /// Answer every queued NACK out of the retransmit buffer. With SRM
    /// on, a solicit addressed to another rank is only *overheard* (it
    /// arms the suppression memory); one addressed to us answers with a
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
    pub fn service_nacks<P: RepairPort>(&mut self, io: &mut P) {
        let Some(rc) = self.repair else {
            return;
        };
        let window = dur_nanos(rc.suppress_window);
        while let Some(nack) = self.inbox.take_nack() {
            let requester = nack.src_rank;
            if requester as usize >= self.n {
                // Malformed rank (stray traffic on a real port; cannot
                // happen on the closed simulated fabric): ignore.
                continue;
            }
            // An empty payload is the legacy unicast form: it was sent
            // *to us*, about our traffic, with no range information.
            let payload = if nack.payload.is_empty() {
                NackPayload::addressed_to(self.rank as u32)
            } else {
                match NackPayload::decode(&nack.payload) {
                    Ok(p) => p,
                    Err(_) => continue, // malformed stray traffic
                }
            };
            let now = io.now();
            // Every foreign solicit — whoever it targets, ourselves and
            // any-source included — arms the suppression memory: if we
            // are stuck on the same traffic, the repair it triggers will
            // heal us too, so our own deadline expiry can stay quiet.
            if let Some(srm) = &mut self.srm {
                srm.note_heard(payload.target, nack.tag, now, window);
            }
            if payload.target != self.rank as u32 && payload.target != NACK_TARGET_ANY {
                // Addressed to another rank: suppression signal only.
                self.rstats.nacks_overheard += 1;
                continue;
            }
            self.rstats.nacks_received += 1;
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
            let gossip_on = self.gossip.is_some();
            let mut mcast_guard = self.srm.as_mut().filter(|_| !gossip_on);
            for record in self.rtx.matching(requester, nack.tag) {
                matched_any = true;
                if !payload.covers(record.seq) {
                    // The requester's missing-ranges say it already holds
                    // this message — nothing to re-send.
                    self.rstats.repairs_suppressed += 1;
                    continue;
                }
                answered = true;
                match (record.dst, &mut mcast_guard) {
                    (SendDst::Multicast, Some(srm)) => {
                        if srm.recently_repaired(record.seq, now, window) {
                            self.rstats.repairs_suppressed += 1;
                        } else {
                            self.rstats.retransmits_sent += 1;
                            io.send_encoded_mcast(&record.datagrams);
                            srm.note_repaired(record.seq, now, window);
                        }
                    }
                    _ => {
                        self.rstats.retransmits_sent += 1;
                        io.send_encoded(requester as usize, &record.datagrams);
                    }
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
            let unavailable = payload.target == self.rank as u32
                && match self.rtx.evicted_tag_max() {
                    Some(floor) if nack.tag <= floor && floor - nack.tag < (1 << 31) => {
                        !matched_any
                            || (!answered
                                && self.rtx.evicted_seq_max().is_some_and(|horizon| {
                                    payload.missing.iter().any(|r| r.start <= horizon)
                                }))
                    }
                    _ => false,
                };
            if unavailable {
                self.rstats.unavailable_sent += 1;
                let floor = self.rtx.evicted_tag_max().expect("checked above");
                let pl = UnavailPayload { tag_floor: floor }.encode();
                let seq = self.fresh_seq();
                let dgs = self.encode(nack.tag, MsgKind::Unavail, &pl, seq);
                io.send_encoded(requester as usize, &dgs);
            } else if !matched_any {
                // Not yet sent (the normal-path match will handle it) or
                // never ours: count and stay silent.
                self.rstats.unanswered_nacks += 1;
            }
        }
    }

    /// Ingest every queued ACK-horizon session message: remember the
    /// peer's probe for echoing, fold any echo of *our* probe into that
    /// peer's RTT estimator, adopt the peer's advertised frontier for
    /// our traffic (monotone by high-water mark — a reordered stale
    /// horizon cannot regress it), then garbage-collect the ring.
    fn service_horizons<P: RepairPort>(&mut self, io: &mut P) {
        if self.horizon.is_none() {
            return;
        }
        let me = self.rank as u32;
        let mut applied = false;
        while let Some(m) = self.inbox.take_horizon() {
            let peer = m.src_rank;
            if peer as usize >= self.n || peer == me {
                continue;
            }
            let Ok(p) = AckHorizonPayload::decode(&m.payload) else {
                continue;
            };
            let now = io.now();
            self.rstats.horizons_received += 1;
            applied = true;
            let hz = self.horizon.as_mut().expect("checked above");
            hz.owed.insert(peer, (p.probe_ts, now));
            for e in &p.echoes {
                if e.peer == me {
                    let rtt = now.saturating_sub(e.ts).saturating_sub(e.hold_ns);
                    hz.rtt[peer as usize].observe(rtt);
                    self.rstats.rtt_samples += 1;
                }
            }
            if let Some(f) = p.acks.iter().find(|a| a.src == me) {
                let slot = &mut hz.frontier[peer as usize];
                if slot.as_ref().is_none_or(|old| f.hwm >= old.hwm) {
                    *slot = Some(f.clone());
                }
            }
            if let Some(g) = &mut self.gossip {
                // Gossip feed: a frontier is positive knowledge — the
                // peer *holds* its acknowledged prefix — and the GC
                // quorum for the relay store and tables.
                for f in &p.acks {
                    let prefix = match f.missing.iter().map(|r| r.start).min() {
                        Some(first) => first.checked_sub(1),
                        None => Some(f.hwm),
                    };
                    if let Some(end) = prefix {
                        g.peer_seen[peer as usize].note_range(f.src, SeqRange { start: 0, end });
                    }
                    g.frontiers[peer as usize].insert(f.src, f.clone());
                }
            }
        }
        if applied {
            self.gc_acked();
            self.gc_gossip();
        }
    }

    /// Free ring history every relevant peer has acknowledged: a
    /// multicast record needs every other rank's frontier to cover its
    /// seq, a unicast record only its target's. Peers that have never
    /// advertised a frontier acknowledge nothing — conservative, the
    /// capacity eviction floor still backstops them. Confirmed-dead
    /// peers are dropped from the quorum: a corpse will never advance
    /// its frontier, and keeping it in the quorum would pin the ring
    /// (and a closed send window) forever.
    fn gc_acked(&mut self) {
        let dead: Vec<bool> = (0..self.n).map(|p| self.peer_dead(p)).collect();
        let Some(hz) = &self.horizon else {
            return;
        };
        if hz.frontier.iter().all(|f| f.is_none()) && !dead.iter().any(|&d| d) {
            return;
        }
        let (n, me) = (self.n, self.rank);
        let frontier = &hz.frontier;
        let acked_by = |p: usize, seq: u64| frontier[p].as_ref().is_some_and(|f| f.acks(seq));
        let freed = self.rtx.release_acked(|rec| match rec.dst {
            SendDst::Multicast => (0..n)
                .filter(|&p| p != me && !dead[p])
                .all(|p| acked_by(p, rec.seq)),
            SendDst::Rank(d) => dead[d as usize] || acked_by(d as usize, rec.seq),
        });
        self.rstats.acked_records_freed += freed;
    }

    // ------------------------------------------------------------------
    // The epidemic dissemination plane (`docs/PROTOCOL.md` §11).
    // ------------------------------------------------------------------

    /// One pass of the gossip state machine, run from every
    /// [`EndpointCore::advance`]: fold freshly accepted payloads into the
    /// relay store and advertise them, ingest queued `Advr`s (pulling
    /// what we miss) and `Want`s (answering out of the ring or relay),
    /// then re-issue expired pulls. No-op — with no clock read and no
    /// RNG draw — under the `Multicast` plane, so multicast replay stays
    /// byte-identical to the pre-seam protocol.
    fn service_gossip<P: RepairPort>(&mut self, io: &mut P) {
        let Some(mut g) = self.gossip.take() else {
            return;
        };
        // 1. Relay feed: every payload the inbox accepted becomes
        //    answerable here and is advertised onward — the epidemic
        //    relay that lets a peer partitioned from the origin pull
        //    from whoever it *can* reach.
        let mut fresh: Vec<(u32, u64)> = Vec::new();
        while let Some(m) = self.inbox.take_data_log() {
            let src = m.src_rank;
            if src as usize >= self.n {
                continue;
            }
            let key = (src, m.seq);
            if g.relay.contains_key(&key) {
                continue;
            }
            // The origin of a payload holds it by definition.
            g.peer_seen[src as usize].note(src, m.seq);
            g.relay.insert(key, m);
            g.relay_order.push_back(key);
            while g.relay.len() > g.cfg.relay_cap.max(1) {
                match g.relay_order.pop_front() {
                    Some(old) => {
                        g.relay.remove(&old);
                    }
                    None => break,
                }
            }
            fresh.push(key);
        }
        if !fresh.is_empty() {
            self.advertise_to_peers(io, &mut g, &fresh);
        }
        // 2. Queued gossip control.
        while let Some(msg) = self.inbox.take_gossip() {
            let peer = msg.src_rank as usize;
            if peer >= self.n || peer == self.rank {
                continue; // stray traffic on a real port
            }
            let Ok(digest) = GossipDigest::decode(&msg.payload) else {
                continue; // malformed stray traffic
            };
            match msg.kind {
                MsgKind::Advr => self.ingest_advr(io, &mut g, peer, &digest),
                MsgKind::Want => self.answer_want(io, &mut g, peer, &digest),
                _ => {}
            }
        }
        // 3. Expired pulls rotate to another known holder.
        self.retry_wants(io, &mut g);
        self.gossip = Some(g);
    }

    /// Lazy-push step of [`EndpointCore::mcast_message`]: advertise the
    /// freshly recorded ids to every live peer (via
    /// [`EndpointCore::advertise_to_peers`]). No-op under `Multicast`.
    fn advertise_ids<P: RepairPort>(&mut self, io: &mut P, ids: &[(u32, u64)]) {
        let Some(mut g) = self.gossip.take() else {
            return;
        };
        self.advertise_to_peers(io, &mut g, ids);
        self.gossip = Some(g);
    }

    /// Unicast an `Advr` digest of `ids` to every live peer that is not
    /// already known (or already told) to hold them. The per-peer
    /// `advertised` table is what keeps re-sends and relay loops from
    /// amplifying: an id is pushed at a peer once, ever, per endpoint.
    fn advertise_to_peers<P: RepairPort>(
        &mut self,
        io: &mut P,
        g: &mut GossipState,
        ids: &[(u32, u64)],
    ) {
        for p in 0..self.n {
            if p == self.rank || self.peer_dead(p) {
                continue;
            }
            let mut fresh: Vec<(u32, u64)> = Vec::new();
            for &(src, seq) in ids {
                if src as usize == p || g.peer_seen[p].contains(src, seq) {
                    continue; // the origin, or a peer already known to hold it
                }
                if !g.advertised[p].note(src, seq) {
                    continue; // already advertised to this peer
                }
                fresh.push((src, seq));
            }
            for d in digests_of(&fresh) {
                self.rstats.advrs_sent += 1;
                let seq = self.control_seq();
                let dgs = self.encode(0, MsgKind::Advr, &d.encode(), seq);
                io.send_encoded(p, &dgs);
            }
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
        io: &mut P,
        g: &mut GossipState,
        peer: usize,
        digest: &GossipDigest,
    ) {
        let me = self.rank as u32;
        let now = io.now();
        let mut missing: Vec<(u32, u64)> = Vec::new();
        for e in &digest.entries {
            for r in &e.ranges {
                // Bound the walk: a corrupt range cannot spin us.
                let end = r.end.min(r.start.saturating_add(4096));
                for s in r.start..=end {
                    let newly = g.peer_seen[peer].note(e.src, s);
                    if e.src == me {
                        continue; // our own traffic: we hold it
                    }
                    if self.inbox.has_seen(e.src, s) || g.relay.contains_key(&(e.src, s)) {
                        if newly {
                            self.rstats.duplicate_payloads_avoided += 1;
                        }
                        continue;
                    }
                    if g.wanted.contains_key(&(e.src, s)) {
                        continue; // pull in flight; `peer` is a known alternate now
                    }
                    let retry = self.want_retry_after(&g.cfg, peer);
                    g.wanted.insert(
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
        self.send_want(io, peer, &missing);
    }

    /// Unicast a merged `Want` digest of `ids` to `peer` (no-op when
    /// empty).
    fn send_want<P: RepairPort>(&mut self, io: &mut P, peer: usize, ids: &[(u32, u64)]) {
        for d in digests_of(ids) {
            self.rstats.wants_sent += 1;
            let seq = self.control_seq();
            let dgs = self.encode(0, MsgKind::Want, &d.encode(), seq);
            io.send_encoded(peer, &dgs);
        }
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
        io: &mut P,
        g: &mut GossipState,
        peer: usize,
        digest: &GossipDigest,
    ) {
        let me = self.rank as u32;
        for e in &digest.entries {
            for r in &e.ranges {
                let end = r.end.min(r.start.saturating_add(4096));
                for s in r.start..=end {
                    if e.src == me {
                        let answer = self
                            .rtx
                            .find_seq(s)
                            .filter(|rec| rec.matches(peer as u32, rec.tag))
                            .map(|rec| rec.datagrams.clone());
                        if let Some(dgs) = answer {
                            self.rstats.pulls_answered += 1;
                            io.send_encoded(peer, &dgs);
                        }
                    } else if let Some(m) = g.relay.get(&(e.src, s)) {
                        let dgs = split_message(
                            m.kind,
                            m.context,
                            m.src_rank,
                            m.tag,
                            m.seq,
                            &m.payload,
                            self.max_chunk,
                        );
                        self.rstats.pulls_answered += 1;
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
    fn retry_wants<P: RepairPort>(&mut self, io: &mut P, g: &mut GossipState) {
        if g.wanted.is_empty() {
            return;
        }
        {
            let inbox = &self.inbox;
            g.wanted.retain(|&(src, s), _| !inbox.has_seen(src, s));
        }
        if g.wanted.is_empty() {
            return;
        }
        let now = io.now();
        let expired: Vec<((u32, u64), u32)> = g
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
            let next = (0..self.n)
                .filter(|&p| {
                    p != self.rank && !self.peer_dead(p) && g.peer_seen[p].contains(src, s)
                })
                .min_by_key(|&p| (p as u32 <= prev, p));
            let Some(peer) = next else {
                g.wanted.remove(&key);
                continue;
            };
            let retry = self.want_retry_after(&g.cfg, peer);
            let w = g.wanted.get_mut(&key).expect("expired key still present");
            w.peer = peer as u32;
            w.at = now + retry;
            per_peer.entry(peer).or_default().push(key);
        }
        for (peer, ids) in per_peer {
            self.send_want(io, peer, &ids);
        }
    }

    /// Horizon-driven GC of the gossip plane: a relay entry every live
    /// peer (other than the origin) has acknowledged can never be pulled
    /// again, and per-source seen/advertised history below the
    /// group-wide acknowledged floor buys nothing — exactly the quorum
    /// rule [`EndpointCore::gc_acked`] applies to the retransmit ring.
    fn gc_gossip(&mut self) {
        if self.gossip.is_none() {
            return;
        }
        let dead: Vec<bool> = (0..self.n).map(|p| self.peer_dead(p)).collect();
        let (me, n) = (self.rank, self.n);
        let g = self.gossip.as_mut().expect("checked");
        let quorum = |g: &GossipState, src: u32, seq: u64| {
            (0..n)
                .filter(|&p| p != me && p != src as usize && !dead[p])
                .all(|p| g.frontiers[p].get(&src).is_some_and(|f| f.acks(seq)))
        };
        let drop_keys: Vec<(u32, u64)> = g
            .relay
            .keys()
            .filter(|&&(src, seq)| quorum(g, src, seq))
            .copied()
            .collect();
        for k in &drop_keys {
            g.relay.remove(k);
        }
        // Per-source floors for the tables: the contiguous prefix every
        // live peer's frontier acknowledges.
        let srcs: Vec<u32> = {
            let mut s: Vec<u32> = g.frontiers.iter().flat_map(|f| f.keys().copied()).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        for src in srcs {
            let floor = (0..n)
                .filter(|&p| p != me && p != src as usize && !dead[p])
                .map(|p| {
                    g.frontiers[p].get(&src).map_or(0, |f| {
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
                g.peer_seen[p].release_below(src, floor);
                g.advertised[p].release_below(src, floor);
            }
        }
    }

    /// Multicast our ACK-horizon session message when its period is due:
    /// a probe timestamp, every echo owed (capped; the map refills each
    /// period), and our per-source frontiers (rotating through the
    /// sources when one message cannot carry them all). Never recorded
    /// in the retransmit ring — a replayed stale frontier could only
    /// mislead — and never emitted from the drain loop, whose quiet
    /// clock it would restart forever.
    fn emit_horizon_if_due<P: RepairPort>(&mut self, io: &mut P) {
        let Some(interval) = self
            .repair
            .and_then(|rc| rc.effective_horizon_interval(self.n))
        else {
            return;
        };
        if self.horizon.is_none() {
            return;
        }
        let now = io.now();
        if now < self.horizon.as_ref().expect("checked").next_at {
            return;
        }
        let sources = self.inbox.sources();
        let (echoes, acks) = {
            let hz = self.horizon.as_mut().expect("checked");
            hz.next_at = now + dur_nanos(interval);
            let mut echoes = Vec::new();
            while echoes.len() < MAX_HORIZON_ECHOES {
                let Some((&peer, &(ts, seen_at))) = hz.owed.iter().next() else {
                    break;
                };
                hz.owed.remove(&peer);
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
                let src = sources[(hz.ack_cursor + k) % total];
                if let Some(f) = self.inbox.frontier_of(src) {
                    acks.push(f);
                }
            }
            if total > 0 {
                hz.ack_cursor = (hz.ack_cursor + take) % total;
            }
            (echoes, acks)
        };
        let payload = AckHorizonPayload {
            probe_ts: now,
            echoes,
            acks,
            // The piggybacked heartbeat: with membership on, the session
            // cadence carries the liveness proof for free — `None`
            // encodes zero bytes, keeping membership-off horizons
            // byte-identical.
            member: self.member.as_ref().map(|m| HeartbeatPayload {
                epoch: m.epoch,
                incarnation: m.incarnation,
            }),
        }
        .encode();
        self.rstats.horizons_sent += 1;
        let hz = self.horizon.as_mut().expect("checked");
        let seq = HORIZON_SEQ_BASE | hz.seq;
        hz.seq += 1;
        let dgs = self.encode(0, MsgKind::AckHorizon, &payload, seq);
        self.group_transmit(io, &dgs);
        if let Some(m) = &mut self.member {
            m.last_tx_at = now;
        }
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
    fn repair_timers(&self, src: Option<usize>) -> (Nanos, Nanos) {
        let Some(rc) = self.repair else {
            return (0, 0);
        };
        let base_t = dur_nanos(rc.nack_timeout);
        let base_b = dur_nanos(rc.backoff);
        if !rc.adaptive {
            return (base_t, base_b);
        }
        let est = src
            .and_then(|s| self.horizon.as_ref()?.rtt.get(s))
            .and_then(|p| p.timeout());
        match est {
            Some(e) if base_t > 0 => {
                let t = e.clamp(base_t, base_t.saturating_mul(16));
                let b = (t.saturating_mul(base_b) / base_t).min(base_b.saturating_mul(16));
                (t, b)
            }
            _ => (base_t, base_b),
        }
    }

    /// How long an outstanding `Want` waits before rotating to another
    /// holder: `want_retry_factor` repair timeouts, stretched by `n/2`
    /// (floor 1×) — the constant-bandwidth-share rule again. A
    /// collective phase advertises from up to `n-1` origins at once, so
    /// a pull answer's latency includes the fan-in queue *and* the
    /// advertiser's service cadence; an unscaled deadline fires while
    /// the answer is still in flight and the duplicate answer breaks
    /// the one-crossing-per-link property on a clean fabric. Truly lost
    /// answers still recover: first by this rotation, ultimately by the
    /// per-request NACK plane.
    fn want_retry_after(&self, cfg: &GossipConfig, peer: usize) -> Nanos {
        let (t, _) = self.repair_timers(Some(peer));
        t.max(1) * u64::from(cfg.want_retry_factor.max(1)) * (self.n as u64 / 2).max(1)
    }

    /// Record the NACK→repair RTT sampling point: a matched arrival from
    /// `src` while a solicit of it is outstanding closes the pair. The
    /// sample includes responder service time (it still tracks the link)
    /// but is rejected beyond the adaptive clamp ceiling — an arrival
    /// that late measures the application not being ready, not the
    /// network.
    fn note_repair_sample<P: RepairPort>(&mut self, io: &mut P, src: u32) {
        let adaptive = self.repair.is_some_and(|rc| rc.adaptive);
        let Some(hz) = &mut self.horizon else {
            return;
        };
        let Some(at) = hz.solicited_at.remove(&src) else {
            return;
        };
        if !adaptive {
            return;
        }
        let sample = io.now().saturating_sub(at);
        let ceiling = dur_nanos(self.repair.expect("adaptive implies repair").nack_timeout)
            .saturating_mul(16);
        if sample <= ceiling {
            hz.rtt[src as usize].observe(sample);
            self.rstats.rtt_samples += 1;
        }
    }

    /// Solicit a retransmission of `tag` traffic. SRM: one *multicast*
    /// NACK naming the target (or any-source) plus the sequence ranges we
    /// are missing — peers overhear it and suppress their own. Legacy:
    /// unicast to the awaited source (or every peer for any-source).
    fn solicit<P: RepairPort>(&mut self, io: &mut P, src: Option<usize>, tag: Tag) {
        if src == Some(self.rank) {
            return; // self-sends never need repair
        }
        if src.is_some_and(|s| self.peer_dead(s)) {
            // Confirmed dead or departed: NACKing a corpse can never be
            // answered, and the blocked receive is about to complete
            // with `PeerFailed` instead.
            return;
        }
        if self.repair.is_some_and(|rc| rc.adaptive) {
            if let (Some(hz), Some(s)) = (&mut self.horizon, src) {
                let now = io.now();
                hz.solicited_at.insert(s as u32, now);
            }
        }
        if self.srm.is_some() {
            let target = src.map_or(NACK_TARGET_ANY, |s| s as u32);
            let missing = match src {
                Some(s) => self.inbox.missing_from(s as u32),
                None => Vec::new(),
            };
            let payload = NackPayload { target, missing }.encode();
            self.rstats.nacks_sent += 1;
            let seq = self.fresh_seq();
            let dgs = self.encode(tag, MsgKind::Nack, &payload, seq);
            if self.gossip.is_some() {
                // No multicast to overhear: the solicit goes straight to
                // the awaited source (or to every live peer when
                // any-source — each may hold a relayed copy).
                match src {
                    Some(s) => io.send_encoded(s, &dgs),
                    None => self.group_transmit(io, &dgs),
                }
            } else {
                io.send_solicit(src, &dgs);
            }
        } else {
            match src {
                // Directed: the empty payload is the PR-2 wire form,
                // read by the responder as "addressed to you".
                Some(s) => self.send_nack(io, s, tag, Bytes::new()),
                // Any-source: must carry an explicit ANY target even on
                // the legacy path — an empty payload would read as
                // "addressed to you" at every peer, and a peer that
                // never held the traffic could then answer `Unavail`.
                None => {
                    let payload = NackPayload::addressed_to(NACK_TARGET_ANY).encode();
                    for p in 0..self.n {
                        if p != self.rank {
                            self.send_nack(io, p, tag, payload.clone());
                        }
                    }
                }
            }
        }
    }

    fn send_nack<P: RepairPort>(&mut self, io: &mut P, dst: usize, tag: Tag, payload: Bytes) {
        self.rstats.nacks_sent += 1;
        let seq = self.fresh_seq();
        let dgs = self.encode(tag, MsgKind::Nack, &payload, seq);
        io.send_encoded(dst, &dgs);
    }

    /// Next solicitation deadline: `now + nack_timeout`, plus — with SRM
    /// — a uniform draw from `[0, backoff]` off the endpoint's seeded
    /// stream. The jitter is what de-synchronizes the group's stuck
    /// receivers so one solicit goes out first and the rest overhear it.
    /// With adaptivity on, both terms are the RTT-derived per-peer pair
    /// of [`EndpointCore::repair_timers`] for a directed `src`.
    ///
    /// Under the gossip dissemination plane the deadline is stretched by
    /// the same `n/2` factor as the `Want` rotation: there, normal
    /// delivery *is* the Advr→Want→answer pull (plus its fan-in
    /// queueing), so an unstretched NACK races the pull and its
    /// retransmission puts a second copy of the payload on a link the
    /// pull already crossed. The NACK plane stays the final backstop —
    /// it just fires behind the rotation instead of in front of it.
    fn solicit_deadline<P: RepairPort>(&mut self, io: &mut P, src: Option<usize>) -> Option<Nanos> {
        let rc = self.repair?;
        let (mut t, b) = self.repair_timers(src);
        if rc.is_gossip() {
            t = t.saturating_mul((self.n as u64 / 2).max(1));
        }
        let mut at = io.now() + t;
        if let Some(srm) = &mut self.srm {
            if b > 0 {
                at += srm.rng.next_below(b + 1);
            }
        }
        Some(at)
    }

    /// True when our own solicit for `(src, tag)` should be skipped
    /// because a peer's was overheard inside the suppression window —
    /// which scales with the adaptive timeout ratio for a directed
    /// source, so fast links suppress briefly and slow links long
    /// enough for their slower repairs to land.
    fn solicit_suppressed(&self, now: Nanos, src: Option<usize>, tag: Tag) -> bool {
        match (&self.srm, self.repair) {
            (Some(srm), Some(rc)) => {
                let base_w = dur_nanos(rc.suppress_window);
                let base_t = dur_nanos(rc.nack_timeout);
                let window = if rc.adaptive && base_t > 0 {
                    let (t, _) = self.repair_timers(src);
                    (base_w.saturating_mul(t) / base_t).max(1)
                } else {
                    base_w
                };
                srm.heard_recently(src.map(|s| s as u32), tag, now, window)
            }
            _ => false,
        }
    }

    /// Solicit-or-suppress at an expired deadline, returning the next one.
    fn solicit_step<P: RepairPort>(
        &mut self,
        io: &mut P,
        now: Nanos,
        src: Option<usize>,
        tag: Tag,
    ) -> Option<Nanos> {
        if self.solicit_suppressed(now, src, tag) {
            self.rstats.nacks_suppressed += 1;
        } else {
            self.solicit(io, src, tag);
        }
        self.solicit_deadline(io, src)
    }

    /// Turn a matching `Unavail` advertisement into the typed error —
    /// only for *directed* waits. An advertisement names one responder's
    /// eviction; an any-source wait could still be satisfied by another
    /// peer (and, since any-source solicits are never answered with
    /// `Unavail`, any queued entry it would see is a leftover from an
    /// earlier directed wait — consuming it would fail recoverable
    /// traffic).
    fn take_unavailable(&mut self, src: Option<usize>, tag: Tag) -> Option<RecvError> {
        src?;
        let m = self.inbox.take_unavail(src, tag)?;
        let tag_floor = UnavailPayload::decode(&m.payload)
            .map(|u| u.tag_floor)
            .unwrap_or(m.tag);
        Some(RecvError::Unavailable {
            src: m.src_rank,
            tag,
            tag_floor,
        })
    }

    // ------------------------------------------------------------------
    // The progress engine: posted receives, matching, per-request repair.
    // ------------------------------------------------------------------

    /// Post a receive into the request table, arming its solicitation
    /// deadline when repair is on. Never blocks.
    pub fn post_recv<P: RepairPort>(
        &mut self,
        io: &mut P,
        src: Option<usize>,
        tag: Tag,
    ) -> RecvReq {
        let id = self.next_req;
        self.next_req += 1;
        let solicit_at = self.solicit_deadline(io, src);
        self.pending.push(PendingRecv {
            id,
            src,
            tag,
            solicit_at,
            done: None,
        });
        RecvReq(id)
    }

    /// One pass of the engine over everything already in hand: service
    /// queued NACKs, then for every incomplete posted receive try to
    /// complete it from the inbox (matched message or `Unavail`
    /// advertisement) and fire its solicitation deadline if expired.
    /// Does **not** pump the socket — callers decide whether to drain
    /// nonblockingly ([`EndpointCore::progress`]) or park
    /// ([`EndpointCore::wait_req`] & co.).
    pub(crate) fn advance<P: RepairPort>(&mut self, io: &mut P) {
        if !self.cancels.is_empty() {
            for req in self.cancels.drain() {
                self.cancel_req(req);
            }
        }
        self.emit_horizon_if_due(io);
        self.service_horizons(io);
        self.service_membership(io);
        self.service_gossip(io);
        self.service_nacks(io);
        for i in 0..self.pending.len() {
            if self.pending[i].done.is_some() {
                continue;
            }
            let (src, tag) = (self.pending[i].src, self.pending[i].tag);
            if let Some(m) = self.inbox.take_match(src, tag) {
                self.note_repair_sample(io, m.src_rank);
                self.pending[i].done = Some(Ok(m));
                continue;
            }
            if let Some(e) = self.take_unavailable(src, tag) {
                self.pending[i].done = Some(Err(e));
                continue;
            }
            // Checked after the match: traffic already in hand from a
            // now-dead peer is still delivered (it is valid pre-failure
            // data); only a receive that would otherwise block forever
            // fails over to the membership verdict.
            if let Some(e) = self.peer_failed_error(src) {
                self.pending[i].done = Some(Err(e));
                continue;
            }
            if let Some(at) = self.pending[i].solicit_at {
                let now = io.now();
                if now >= at {
                    // Deadline-based, per request: a busy socket cannot
                    // starve any posted receive's solicitation, and a
                    // wait on one request advances the repair state of
                    // every other.
                    let next = self.solicit_step(io, now, src, tag);
                    self.pending[i].solicit_at = next;
                    // One solicit serves every posted receive with the
                    // same matcher — the NACK's missing-seq ranges are
                    // computed from the shared inbox, so duplicates
                    // would be byte-identical. Re-arm them all to the
                    // fresh deadline; otherwise a ring posting n-1
                    // same-matcher receives would multicast n-1 copies
                    // of the same NACK per timeout window (the storm
                    // the SRM scale-out exists to prevent).
                    for j in 0..self.pending.len() {
                        if j != i
                            && self.pending[j].done.is_none()
                            && self.pending[j].src == src
                            && self.pending[j].tag == tag
                        {
                            self.pending[j].solicit_at = next;
                        }
                    }
                }
            }
        }
    }

    /// Earliest live solicitation deadline across all incomplete posted
    /// receives — what a blocking pump may park until.
    fn earliest_solicit(&self) -> Option<Nanos> {
        self.pending
            .iter()
            .filter(|p| p.done.is_none())
            .filter_map(|p| p.solicit_at)
            .min()
    }

    /// The deadline a blocking pump parks until: the earliest solicit,
    /// or — with the session plane on — our next horizon emission,
    /// whichever is sooner. Folding the emission schedule in is what
    /// keeps periodic horizons flowing from endpoints that spend their
    /// life parked in wait loops; folding the heartbeat tick in is what
    /// keeps the suspicion clocks advancing (and beacons flowing) from
    /// parked endpoints even when no solicit is armed.
    fn park_deadline(&self) -> Option<Nanos> {
        let horizon_due = match (self.repair, &self.horizon) {
            (
                Some(RepairConfig {
                    horizon_interval: Some(_),
                    ..
                }),
                Some(hz),
            ) => Some(hz.next_at),
            _ => None,
        };
        let hb_due = self
            .member
            .as_ref()
            .filter(|m| m.started)
            .map(|m| m.next_hb_at);
        // Outstanding gossip pulls: their retry deadlines must wake a
        // parked endpoint, or a lost Want/answer stalls the pull until
        // the (much later) NACK backstop.
        let want_due = self.gossip.as_ref().and_then(GossipState::earliest_retry);
        [self.earliest_solicit(), horizon_due, hb_due, want_due]
            .into_iter()
            .flatten()
            .min()
    }

    /// Claim a parked completion, retiring the handle. `None` while
    /// pending.
    fn claim(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        let i = self.pending.iter().position(|p| p.id == req.0)?;
        if self.pending[i].done.is_some() {
            // Order-preserving removal: post order is the matching
            // priority of the survivors.
            self.pending.remove(i).done
        } else {
            None
        }
    }

    pub(crate) fn expect_posted(&self, req: RecvReq) {
        assert!(
            self.pending.iter().any(|p| p.id == req.0),
            "receive request {} is not posted on this endpoint \
             (already completed, cancelled, or foreign)",
            req.0
        );
    }

    /// Nonblocking progress pass: drain every datagram already available,
    /// then advance the request table.
    pub fn progress<P: RepairPump>(&mut self, io: &mut P) {
        while io.pump_ready(self) {}
        self.advance(io);
    }

    /// Claim-only completion check: [`EndpointCore::test_req`] minus the
    /// progress pass. For pollers that already ran
    /// [`EndpointCore::progress`] this turn and are checking many
    /// requests — one engine pass, then O(1)-ish claims, instead of a
    /// socket drain per request (on the simulator every drain is a
    /// round of the co-simulation).
    pub fn test_claimed(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        self.expect_posted(req);
        self.claim(req)
    }

    /// One turn of a blocking wait, the body every wait loop repeats: run
    /// the engine over what is in hand (`advance`), then
    /// either the wait is over or the caller should receive one datagram —
    /// by no later than the returned instant, when the next solicit,
    /// horizon, heartbeat or gossip retry falls due — and poll again.
    /// Claims nothing. The loops below block in [`RepairPump::pump_one`]
    /// between turns; the simulator's endpoint parks its rank and lets the
    /// round closer take the turns (`sim.rs`).
    #[inline]
    pub fn poll_wait<P: RepairPort>(&mut self, io: &mut P, kind: &WaitKind<'_>) -> WaitPoll {
        self.advance(io);
        let done = |id: u64| self.pending.iter().any(|p| p.id == id && p.done.is_some());
        let until = match *kind {
            WaitKind::AnyOf(reqs) if reqs.iter().any(|r| done(r.0)) => return WaitPoll::Ready,
            WaitKind::Until(req, _) if done(req.0) => return WaitPoll::Ready,
            WaitKind::AnyPosted if self.pending.iter().any(|p| p.done.is_some()) => {
                return WaitPoll::Ready
            }
            WaitKind::Until(_, deadline) => {
                if io.now() >= deadline {
                    return WaitPoll::Ready;
                }
                Some(self.park_deadline().map_or(deadline, |at| at.min(deadline)))
            }
            WaitKind::AnyOf(_) | WaitKind::AnyPosted => self.park_deadline(),
        };
        WaitPoll::Park(until)
    }

    /// Blocking progress step: park until one datagram arrives or the
    /// earliest solicitation deadline fires, then advance the table —
    /// **unless** some posted receive already holds an unclaimed
    /// completion, in which case return immediately. The early return is
    /// what makes round-robin polling of several composed operations
    /// safe: one operation's nonblocking poll may drain the socket and
    /// park another operation's *last* message in its slot, and a park
    /// here would then wait for a datagram that will never come.
    pub fn progress_block<P: RepairPump>(&mut self, io: &mut P) {
        if let WaitPoll::Park(until) = self.poll_wait(io, &WaitKind::AnyPosted) {
            io.pump_one(self, until);
            self.advance(io);
        }
    }

    /// Block until at least one of `reqs` holds a parked completion,
    /// without claiming anything — the set-scoped wait a composed
    /// operation parks on while *other* requests on the endpoint may
    /// already be complete-but-unclaimed (a plain
    /// [`EndpointCore::progress_block`] would return immediately for
    /// those and the caller would spin). No-op on an empty set.
    pub fn wait_ready<P: RepairPump>(&mut self, io: &mut P, reqs: &[RecvReq]) {
        if reqs.is_empty() {
            return;
        }
        for r in reqs {
            self.expect_posted(*r);
        }
        while let WaitPoll::Park(until) = self.poll_wait(io, &WaitKind::AnyOf(reqs)) {
            io.pump_one(self, until);
        }
    }

    /// Nonblocking completion check; claims and retires on completion.
    pub fn test_req<P: RepairPump>(
        &mut self,
        io: &mut P,
        req: RecvReq,
    ) -> Option<Result<Message, RecvError>> {
        self.expect_posted(req);
        self.progress(io);
        self.claim(req)
    }

    /// Block until `req` completes; the single wait loop every blocking
    /// receive convenience goes through. Identical to the pre-request
    /// blocking loop when `req` is the only posted receive; with more
    /// outstanding, every one of them keeps soliciting while this one is
    /// waited on.
    pub fn wait_req<P: RepairPump>(
        &mut self,
        io: &mut P,
        req: RecvReq,
    ) -> Result<Message, RecvError> {
        self.wait_any_req(io, std::slice::from_ref(&req))
            .map(|(_, m)| m)
    }

    /// [`EndpointCore::wait_req`] against a deadline — the one timeout
    /// implementation shared by every backend (`Ok(None)`: timed out,
    /// request cancelled).
    pub fn wait_req_deadline<P: RepairPump>(
        &mut self,
        io: &mut P,
        req: RecvReq,
        timeout: Duration,
    ) -> Result<Option<Message>, RecvError> {
        self.expect_posted(req);
        let deadline = io.now() + dur_nanos(timeout);
        while let WaitPoll::Park(until) = self.poll_wait(io, &WaitKind::Until(req, deadline)) {
            io.pump_one(self, until);
        }
        self.claim_by_deadline(req)
    }

    /// The end of a [`WaitKind::Until`] wait: the completion if there is
    /// one, else the deadline passed and the request is cancelled.
    pub(crate) fn claim_by_deadline(&mut self, req: RecvReq) -> Result<Option<Message>, RecvError> {
        match self.claim(req) {
            Some(r) => r.map(Some),
            None => {
                self.cancel_req(req);
                Ok(None)
            }
        }
    }

    /// Block until one of `reqs` completes; claim it and return its index
    /// with the result.
    pub fn wait_any_req<P: RepairPump>(
        &mut self,
        io: &mut P,
        reqs: &[RecvReq],
    ) -> Result<(usize, Message), RecvError> {
        self.expect_waitable(reqs);
        loop {
            if let WaitPoll::Park(until) = self.poll_wait(io, &WaitKind::AnyOf(reqs)) {
                io.pump_one(self, until);
            } else if let Some(claimed) = self.claim_first(reqs) {
                return claimed;
            }
        }
    }

    /// The precondition of a [`WaitKind::AnyOf`] wait that claims.
    pub(crate) fn expect_waitable(&self, reqs: &[RecvReq]) {
        assert!(
            !reqs.is_empty(),
            "wait_any on no requests would block forever"
        );
        for r in reqs {
            self.expect_posted(*r);
        }
    }

    /// Claim the first of `reqs` (in the caller's order) that holds a
    /// completion, with its index.
    pub(crate) fn claim_first(
        &mut self,
        reqs: &[RecvReq],
    ) -> Option<Result<(usize, Message), RecvError>> {
        reqs.iter()
            .enumerate()
            .find_map(|(i, r)| Some(self.claim(*r)?.map(|m| (i, m))))
    }

    /// Abandon a posted receive; an already-matched message is requeued
    /// so no data is lost (a parked error is discarded — cancelling
    /// declares the caller no longer cares). No-op on a retired handle.
    pub fn cancel_req(&mut self, req: RecvReq) {
        if let Some(i) = self.pending.iter().position(|p| p.id == req.0) {
            if let Some(Ok(m)) = self.pending.remove(i).done {
                self.inbox.requeue_front(m);
            }
        }
    }

    /// Posted receives not yet claimed (diagnostics; a steadily growing
    /// value means requests are being leaked instead of waited or
    /// cancelled).
    pub fn outstanding_recvs(&self) -> usize {
        self.pending.len()
    }

    // ------------------------------------------------------------------
    // Blocking compatibility wrappers over the engine.
    // ------------------------------------------------------------------

    /// Post-and-wait in one call (the pre-request-API receive loop,
    /// preserved for tests and simple endpoint drivers).
    pub fn recv_loop<P: RepairPump>(
        &mut self,
        io: &mut P,
        src: Option<usize>,
        tag: Tag,
    ) -> Result<Message, RecvError> {
        let req = self.post_recv(io, src, tag);
        self.wait_req(io, req)
    }

    /// [`EndpointCore::recv_loop`] with a deadline.
    pub fn recv_loop_timeout<P: RepairPump>(
        &mut self,
        io: &mut P,
        src: Option<usize>,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Option<Message>, RecvError> {
        let req = self.post_recv(io, src, tag);
        self.wait_req_deadline(io, req, timeout)
    }

    /// Unwrap a receive result at a program boundary (examples, benches,
    /// endpoint drivers) where an unrecoverable loss has no sane
    /// continuation. The panic message carries the rank plus the error's
    /// source rank, tag, and eviction floor. Library code — the [`Comm`]
    /// trait and the collectives — never panics; it propagates the typed
    /// [`RecvError`] instead.
    pub fn expect_recv<T>(&self, result: Result<T, RecvError>) -> T {
        result.unwrap_or_else(|e| panic!("unrecoverable loss at rank {}: {e}", self.rank))
    }

    /// Shutdown drain: a peer may still be missing this endpoint's
    /// *final* message, so keep answering NACKs until the link has been
    /// quiet for the grace period — which scales with group size
    /// ([`RepairConfig::effective_drain_grace`]), because a straggler can
    /// chain through `~n` earlier-round recoveries before posting the
    /// receive that needs us. No-op with repair off.
    ///
    /// With membership armed the drain also keeps the *beacon* cadence
    /// running: a draining endpoint still services repair, so for the
    /// liveness layer it is alive, and going dark here would have a
    /// straggler confirm its drained peers failed mid-repair and abort
    /// (`tests/membership.rs` regresses that teardown race). To keep
    /// mutually-draining endpoints from holding each other open
    /// forever, liveness traffic does not restart the quiet clock —
    /// only [`Inbox::repair_relevant`] arrivals do.
    pub fn drain<P: RepairPump>(&mut self, io: &mut P) {
        if self.repair.is_none() || self.left {
            return;
        };
        let grace = self.drain_grace();
        if self.member.is_none() {
            // The membership-less path, byte-for-byte the pre-liveness
            // behavior: any arrival restarts the full grace (the gossip
            // pass is a strict no-op under multicast).
            self.service_gossip(io);
            self.service_nacks(io);
            while io.pump_drain(self, grace) {
                self.service_gossip(io);
                self.service_nacks(io);
            }
            return;
        }
        let grace = dur_nanos(grace);
        self.service_gossip(io);
        self.service_nacks(io);
        self.beacon_tick(io);
        let mut quiet_since = io.now();
        loop {
            let now = io.now();
            let deadline = quiet_since.saturating_add(grace);
            if now >= deadline {
                break;
            }
            // Wake no later than the next beacon is due, so the cadence
            // holds even when nothing arrives.
            let hb_at = self.next_heartbeat_due().unwrap_or(deadline);
            let wake = deadline.min(hb_at.max(now + 1));
            let before = self.inbox.repair_relevant();
            let got = io.pump_drain(self, Duration::from_nanos(wake - now));
            self.service_gossip(io);
            self.service_nacks(io);
            self.beacon_tick(io);
            if self.inbox.repair_relevant() > before {
                quiet_since = io.now();
            } else if !got && io.now() <= now {
                // The pump produced nothing and cannot advance its
                // clock (test harness pumps): grace semantics are
                // meaningless, treat the link as already quiet.
                break;
            }
        }
    }

    /// When the next standalone heartbeat is due, or `None` when the
    /// membership layer is off (or has not seen its first service pass).
    /// Transports use this to slice long mute phases — drains, compute —
    /// at beacon boundaries.
    pub fn next_heartbeat_due(&self) -> Option<Nanos> {
        self.member
            .as_ref()
            .filter(|m| m.started)
            .map(|m| m.next_hb_at)
    }

    /// Emit the standalone heartbeat if the schedule is due, with no
    /// quiet test: callers invoke this from phases where the endpoint is
    /// otherwise mute (the drain loop, mid-`compute` slices), so the
    /// beacon is the only thing keeping its suspicion clocks at bay —
    /// see [`EndpointCore::drain`] for the teardown race it prevents.
    /// No-op with membership off or before the first service pass.
    pub fn beacon_tick<P: RepairPort>(&mut self, io: &mut P) {
        let Some(mc) = self.repair.and_then(|r| r.membership) else {
            return;
        };
        if !self.member.as_ref().is_some_and(|m| m.started) {
            return;
        }
        let now = io.now();
        let interval = dur_nanos(mc.effective_heartbeat_interval(self.n)).max(1);
        {
            let m = self.member.as_mut().expect("checked");
            if now < m.next_hb_at {
                return;
            }
            m.next_hb_at = now + interval;
            m.last_tx_at = now;
        }
        let m = self.member.as_ref().expect("checked");
        let pl = HeartbeatPayload {
            epoch: m.epoch,
            incarnation: m.incarnation,
        }
        .encode();
        self.rstats.heartbeats_sent += 1;
        let seq = self.control_seq();
        let dgs = self.encode(0, MsgKind::Heartbeat, &pl, seq);
        self.group_transmit(io, &dgs);
    }

    /// The drain grace this endpoint actually applies: the
    /// group-size-scaled configured bound
    /// ([`RepairConfig::effective_drain_grace`]) — or, with adaptivity
    /// on and RTT samples in hand, the same straggler-chain derivation
    /// `2 × n × (timeout + backoff)` computed from the *measured* worst
    /// per-peer timeout (clamped into the configured band) instead of
    /// the configured constants, still capped at
    /// [`RepairConfig::drain_grace_cap`]. Measured-fast worlds drain
    /// sooner; measured-slow worlds get the grace their repairs need.
    /// The straggler-chain length is the *live* group size: peers that
    /// failed or announced a graceful departure cannot be chaining
    /// through recoveries, so survivors need not wait out their share of
    /// the grace (`tests/membership.rs` regresses the early-leaver
    /// case).
    pub fn drain_grace(&self) -> Duration {
        let Some(rc) = self.repair else {
            return Duration::ZERO;
        };
        let n_live = self.live_n();
        let base = rc.effective_drain_grace(n_live);
        if !rc.adaptive || rc.fixed_drain {
            return base;
        }
        let worst = self
            .horizon
            .as_ref()
            .and_then(|hz| hz.rtt.iter().filter_map(|p| p.timeout()).max());
        let Some(w) = worst else {
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

    // ------------------------------------------------------------------
    // The membership/liveness layer (`docs/PROTOCOL.md` §10).
    // ------------------------------------------------------------------

    /// True when the membership layer has declared `p` failed or
    /// departed. Always false with membership off.
    fn peer_dead(&self, p: usize) -> bool {
        self.member
            .as_ref()
            .and_then(|m| m.peers.get(p))
            .is_some_and(PeerLive::dead)
    }

    /// The [`RecvError::PeerFailed`] a *directed* receive from `src`
    /// should complete with, if its peer is confirmed dead. Any-source
    /// receives never fail over: another peer can still satisfy them.
    fn peer_failed_error(&self, src: Option<usize>) -> Option<RecvError> {
        let s = src?;
        let m = self.member.as_ref()?;
        m.peers.get(s)?.dead().then_some(RecvError::PeerFailed {
            rank: s as u32,
            epoch: m.epoch,
        })
    }

    /// Group members not confirmed dead — what the drain grace and the
    /// straggler-chain derivations scale with.
    fn live_n(&self) -> usize {
        match &self.member {
            Some(m) => self.n - m.peers.iter().filter(|p| p.dead()).count(),
            None => self.n,
        }
    }

    /// Ranks the membership layer has confirmed failed (crash-dead, not
    /// graceful), sorted. Empty with membership off.
    pub fn failed_peers(&self) -> Vec<usize> {
        self.member.as_ref().map_or_else(Vec::new, |m| {
            m.peers
                .iter()
                .enumerate()
                .filter(|(_, p)| p.failed)
                .map(|(i, _)| i)
                .collect()
        })
    }

    /// Ranks that announced a graceful departure, sorted. Empty with
    /// membership off.
    pub fn departed_peers(&self) -> Vec<usize> {
        self.member.as_ref().map_or_else(Vec::new, |m| {
            m.peers
                .iter()
                .enumerate()
                .filter(|(_, p)| p.departed)
                .map(|(i, _)| i)
                .collect()
        })
    }

    /// The current liveness epoch (0 with membership off or before any
    /// shrink).
    pub fn epoch(&self) -> u32 {
        self.member.as_ref().map_or(0, |m| m.epoch)
    }

    /// Allocate a sequence number in the out-of-band control space
    /// shared with horizons (see [`HorizonState::seq`]) — membership
    /// beacons are session traffic: never recorded for retransmission,
    /// so they must not punch holes in the data space.
    fn control_seq(&mut self) -> u64 {
        let hz = self
            .horizon
            .as_mut()
            .expect("repair armed implies horizon state");
        let s = HORIZON_SEQ_BASE | hz.seq;
        hz.seq += 1;
        s
    }

    /// Multicast a `FailureAnnounce` naming `ranks` (split across
    /// messages past the wire cap), stamping the current epoch.
    fn announce_failure<P: RepairPort>(&mut self, io: &mut P, ranks: &[u32], graceful: bool) {
        if self.member.is_none() || ranks.is_empty() {
            return;
        }
        let epoch = self.member.as_ref().expect("checked").epoch;
        for chunk in ranks.chunks(mmpi_wire::MAX_ANNOUNCE_RANKS) {
            let pl = FailureAnnouncePayload {
                epoch,
                graceful,
                ranks: chunk.to_vec(),
            }
            .encode();
            let seq = self.control_seq();
            let dgs = self.encode(0, MsgKind::FailureAnnounce, &pl, seq);
            self.group_transmit(io, &dgs);
        }
        self.note_tx(io);
    }

    /// One pass of the membership state machine, run from every
    /// [`EndpointCore::advance`]: fold queued announcements, refresh
    /// per-peer liveness from the inbox activity counters, open/confirm
    /// suspicions against the RTT-derived bound, flood confirmed
    /// failures, and emit a standalone heartbeat if the schedule is due
    /// and the endpoint has been quiet. No-op — with no clock read —
    /// when membership is off.
    fn service_membership<P: RepairPort>(&mut self, io: &mut P) {
        let Some(mc) = self.repair.and_then(|r| r.membership) else {
            return;
        };
        if self.member.is_none() {
            return;
        }
        let now = io.now();
        // The group-size-scaled cadence: at a fixed period every rank's
        // beacon is a frame on every receiving link, which queues at the
        // switch as the group grows (the BENCH_8 N=64 confirmation-tail
        // blowup). Suspicion bounds below use `max(rto, interval)`, so
        // tolerance stretches with the cadence automatically.
        let interval = dur_nanos(mc.effective_heartbeat_interval(self.n)).max(1);
        {
            let m = self.member.as_mut().expect("checked");
            if !m.started {
                m.started = true;
                m.next_hb_at = now + interval;
                m.last_tx_at = now;
                for p in &mut m.peers {
                    p.last_heard = now;
                }
            }
        }
        // 1. Queued membership traffic: heartbeats prove liveness via
        //    the activity counters (folded below); announcements adopt
        //    the sender's verdicts.
        let mut adopted: Vec<u32> = Vec::new();
        let (me, n) = (self.rank, self.n);
        while let Some(msg) = self.inbox.take_membership() {
            if msg.src_rank as usize >= n {
                continue; // stray traffic on a real port
            }
            if msg.kind != MsgKind::FailureAnnounce {
                continue; // heartbeat: nothing beyond the activity bump
            }
            let Ok(p) = FailureAnnouncePayload::decode(&msg.payload) else {
                continue;
            };
            let m = self.member.as_mut().expect("checked");
            for &r in &p.ranks {
                let ri = r as usize;
                if ri >= n || ri == me {
                    // An announce naming us is a false positive about a
                    // peer that is, demonstrably, running this code:
                    // ignore it (we keep proving liveness by traffic).
                    continue;
                }
                let st = &mut m.peers[ri];
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
        {
            let me = self.rank;
            let inbox = &self.inbox;
            let m = self.member.as_mut().expect("checked");
            for (p, st) in m.peers.iter_mut().enumerate() {
                if p == me || st.dead() {
                    continue;
                }
                let cur = inbox.activity_of(p as u32);
                if cur > st.activity {
                    st.activity = cur;
                    st.last_heard = now;
                    st.suspected_at = None;
                }
            }
        }
        // 3. Suspicion timers: silent past `k × max(rto, interval)`
        //    opens suspicion; a suspect silent for `m` further intervals
        //    is confirmed failed. The rto term is the same clamped
        //    `srtt + 4·rttvar` the adaptive repair timers use, so slow
        //    links get proportionally more tolerance before the layer
        //    cries wolf.
        let mut confirmed: Vec<u32> = Vec::new();
        let mut new_suspects = 0u64;
        for p in 0..self.n {
            if p == self.rank || self.peer_dead(p) {
                continue;
            }
            let (rto, _) = self.repair_timers(Some(p));
            let suspect_bound = u64::from(mc.suspicion_factor.max(1)) * rto.max(interval);
            let confirm_bound = u64::from(mc.confirm_misses.max(1)) * rto.max(interval);
            let st = &mut self.member.as_mut().expect("checked").peers[p];
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
        self.rstats.suspicions += new_suspects;
        self.rstats.failures_confirmed += confirmed.len() as u64;
        // 4. Flood what changed, then re-run ring GC: a dead peer just
        //    left every ack quorum, which may reopen the send window.
        if !confirmed.is_empty() || !adopted.is_empty() {
            self.announce_failure(io, &confirmed, false);
            self.announce_failure(io, &adopted, false);
            self.gc_acked();
        }
        // 5. Standalone heartbeat: only when the schedule is due *and*
        //    nothing else we sent this interval already proved us alive.
        let m = self.member.as_ref().expect("checked");
        if now >= m.next_hb_at {
            let quiet = now.saturating_sub(m.last_tx_at) >= interval;
            let beacon = HeartbeatPayload {
                epoch: m.epoch,
                incarnation: m.incarnation,
            };
            self.member.as_mut().expect("checked").next_hb_at = now + interval;
            if quiet {
                self.rstats.heartbeats_sent += 1;
                let pl = beacon.encode();
                let seq = self.control_seq();
                let dgs = self.encode(0, MsgKind::Heartbeat, &pl, seq);
                self.group_transmit(io, &dgs);
                self.member.as_mut().expect("checked").last_tx_at = now;
            }
        }
    }

    /// Graceful departure (drain-on-leave, `docs/API.md`): flood a
    /// graceful `FailureAnnounce` (several copies — it races the same
    /// lossy fabric the repair plane exists for, and a missed announce
    /// costs every survivor the full drain grace), flush the retransmit
    /// ring by draining (peers may still be missing our final traffic),
    /// and mark the endpoint as left so the drop-time drain is a no-op.
    /// Idempotent.
    pub fn leave<P: RepairPump>(&mut self, io: &mut P) {
        if self.left {
            return;
        }
        if self.member.is_some() {
            for _ in 0..3 {
                self.announce_failure(io, &[self.rank as u32], true);
            }
        }
        self.drain(io);
        self.left = true;
    }

    /// Crash injection for tests: the endpoint stops participating
    /// without announcing or draining — exactly what a killed process
    /// looks like to the survivors. Not reversible.
    pub fn abandon(&mut self) {
        self.left = true;
    }

    /// True once [`EndpointCore::leave`] or [`EndpointCore::abandon`]
    /// retired this endpoint.
    pub fn has_left(&self) -> bool {
        self.left
    }

    /// Adopt an externally agreed failure verdict — the communicator
    /// shrink's vote union: mark `rank` failed *now*, without waiting
    /// out the local suspicion timers, so ack quorums and the drain
    /// grace stop counting it immediately. No announce is flooded: the
    /// verdict came out of an agreement round, so every survivor
    /// already holds it. A no-op with membership off, for the local
    /// rank, and for peers already dead.
    pub fn force_fail(&mut self, rank: usize) {
        if rank == self.rank {
            return;
        }
        let Some(m) = &mut self.member else {
            return;
        };
        let Some(st) = m.peers.get_mut(rank) else {
            return;
        };
        if st.dead() {
            return;
        }
        st.failed = true;
        st.announced = true;
        self.rstats.failures_confirmed += 1;
        self.gc_acked();
    }

    /// Adopt a new liveness epoch after a communicator shrink: derive
    /// the epoch's context from the creation context (a seeded integer
    /// mix — deterministic, so every survivor lands on the same
    /// context), rebase the inbox onto it (old-epoch data stragglers
    /// become foreign; the old epoch's repair plane stays honored), and
    /// stamp the epoch into the stats. Sequence counters are *not*
    /// rewound — receivers' dedup history stays valid across the
    /// boundary.
    pub fn rebase_epoch(&mut self, epoch: u32) {
        let new_context = epoch_context(self.base_context, epoch);
        self.inbox.rebase(new_context);
        self.inbox.next_context = Some(epoch_context(self.base_context, epoch.wrapping_add(1)));
        self.context = new_context;
        if let Some(m) = &mut self.member {
            m.epoch = epoch;
        }
        self.rstats.epoch = self.rstats.epoch.max(u64::from(epoch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmpi_wire::split_message;

    fn msg(src: u32, tag: u32, seq: u64, payload: &[u8]) -> Message {
        Message {
            kind: MsgKind::Data,
            context: 0,
            src_rank: src,
            tag,
            seq,
            payload: Bytes::copy_from_slice(payload),
        }
    }

    #[test]
    fn matches_by_src_and_tag_in_fifo_order() {
        let mut inbox = Inbox::new(0, 9);
        inbox.ingest_message(msg(1, 5, 0, b"a"), false);
        inbox.ingest_message(msg(2, 5, 0, b"b"), false);
        inbox.ingest_message(msg(1, 5, 1, b"c"), false);
        assert_eq!(inbox.take_match(Some(1), 5).unwrap().payload, b"a");
        assert_eq!(inbox.take_match(Some(1), 5).unwrap().payload, b"c");
        assert!(inbox.take_match(Some(1), 5).is_none());
        assert_eq!(inbox.take_match(Some(2), 5).unwrap().payload, b"b");
    }

    #[test]
    fn any_source_matching() {
        let mut inbox = Inbox::new(0, 9);
        inbox.ingest_message(msg(3, 7, 0, b"x"), false);
        inbox.ingest_message(msg(1, 7, 0, b"y"), false);
        assert_eq!(inbox.take_match(None, 7).unwrap().src_rank, 3);
        assert_eq!(inbox.take_match(None, 7).unwrap().src_rank, 1);
    }

    #[test]
    fn wrong_tag_stays_buffered() {
        let mut inbox = Inbox::new(0, 9);
        inbox.ingest_message(msg(1, 5, 0, b"a"), false);
        assert!(inbox.take_match(Some(1), 6).is_none());
        assert_eq!(inbox.backlog(), 1);
    }

    #[test]
    fn duplicates_suppressed_by_seq() {
        let mut inbox = Inbox::new(0, 9);
        inbox.ingest_message(msg(1, 5, 42, b"a"), false);
        inbox.ingest_message(msg(1, 5, 42, b"a"), false);
        assert_eq!(inbox.backlog(), 1);
        assert_eq!(inbox.duplicates_dropped(), 1);
        // Same seq from a different sender is a different message.
        inbox.ingest_message(msg(2, 5, 42, b"b"), false);
        assert_eq!(inbox.backlog(), 2);
    }

    #[test]
    fn foreign_context_dropped() {
        let mut inbox = Inbox::new(3, 9);
        let mut m = msg(1, 5, 0, b"a");
        m.context = 4;
        inbox.ingest_message(m, false);
        assert_eq!(inbox.backlog(), 0);
        assert_eq!(inbox.foreign_dropped(), 1);
    }

    #[test]
    fn multicast_self_echo_filtered() {
        let mut inbox = Inbox::new(0, 2);
        inbox.ingest_message(msg(2, 5, 0, b"me"), true);
        assert_eq!(inbox.backlog(), 0);
        inbox.ingest_message(msg(2, 5, 0, b"me"), false);
        assert_eq!(inbox.backlog(), 1, "unicast self-send is legitimate");
    }

    #[test]
    fn ingest_wire_assembles_chunks_zero_copy() {
        let mut inbox = Inbox::new(0, 9);
        let payload = Bytes::from(vec![7u8; 5000]);
        for d in split_message(MsgKind::Data, 0, 1, 2, 3, &payload, 2000) {
            inbox.ingest_wire(&d, false).unwrap();
        }
        let m = inbox.take_match(Some(1), 2).unwrap();
        assert_eq!(m.payload, payload);
    }

    #[test]
    fn ingest_single_chunk_shares_receive_buffer() {
        let mut inbox = Inbox::new(0, 9);
        let payload = Bytes::from(vec![1u8; 100]);
        let dgs = split_message(MsgKind::Data, 0, 1, 2, 3, &payload, 2000);
        inbox.ingest_wire(&dgs[0], false).unwrap();
        drop(dgs);
        let m = inbox.take_match(Some(1), 2).unwrap();
        assert_eq!(
            payload.handle_count(),
            2,
            "matched message still views the sender's buffer"
        );
        assert_eq!(m.payload, payload);
    }

    #[test]
    fn nacks_divert_to_repair_queue_not_matching() {
        let mut inbox = Inbox::new(0, 9);
        let mut n = msg(1, 5, 0, b"");
        n.kind = MsgKind::Nack;
        inbox.ingest_message(n, false);
        assert_eq!(inbox.backlog(), 0, "NACK must not be matchable");
        assert!(inbox.take_match(Some(1), 5).is_none());
        let taken = inbox.take_nack().expect("NACK queued for repair loop");
        assert_eq!(taken.tag, 5);
        assert!(inbox.take_nack().is_none());
    }

    #[test]
    fn effective_drain_grace_scales_and_caps() {
        let sim = RepairConfig::sim_default();
        // Small worlds keep the configured base.
        assert_eq!(sim.effective_drain_grace(4), sim.drain_grace);
        // n=16: 2 × 16 × (2+2) ms = 128 ms — the straggler-chain bound.
        assert_eq!(sim.effective_drain_grace(16), Duration::from_millis(128));
        // UDP at n=64 would be 2 × 64 × 80 ms = 10.24 s of wall-clock
        // teardown; the cap bounds it.
        let udp = RepairConfig::udp_default();
        assert_eq!(udp.effective_drain_grace(64), udp.drain_grace_cap);
        // Pinned legacy behavior ignores scaling entirely.
        let mut fixed = sim;
        fixed.fixed_drain = true;
        assert_eq!(fixed.effective_drain_grace(64), fixed.drain_grace);
    }

    #[test]
    fn missing_from_reports_holes_and_tail() {
        let mut inbox = Inbox::new(0, 9);
        for seq in [0u64, 1, 3] {
            inbox.ingest_message(msg(1, 5, seq, b"x"), false);
        }
        assert_eq!(
            inbox.missing_from(1),
            vec![
                SeqRange { start: 2, end: 2 },
                SeqRange {
                    start: 4,
                    end: u64::MAX
                },
            ]
        );
        // Unknown source: everything is missing (one conservative range).
        assert_eq!(
            inbox.missing_from(7),
            vec![SeqRange {
                start: 0,
                end: u64::MAX
            }]
        );
        // More holes than a NACK payload can carry: the full set is
        // still produced (never empty — the responder's eviction-horizon
        // check needs the lowest hole) and the wire encode collapses the
        // overflow conservatively, preserving that lowest hole.
        let mut holey = Inbox::new(0, 9);
        for seq in (0u64..40).step_by(2) {
            holey.ingest_message(msg(1, 5, seq, b"x"), false);
        }
        let ranges = holey.missing_from(1);
        assert!(ranges.len() > mmpi_wire::MAX_NACK_RANGES);
        assert_eq!(ranges[0], SeqRange { start: 1, end: 1 });
        let encoded = NackPayload {
            target: 1,
            missing: ranges,
        }
        .encode();
        let decoded = NackPayload::decode(&encoded).unwrap();
        assert_eq!(decoded.missing.len(), mmpi_wire::MAX_NACK_RANGES);
        assert_eq!(decoded.missing[0].start, 1, "lowest hole survives");
    }

    #[test]
    fn unavail_queue_dedups_per_responder_and_tag() {
        let mut inbox = Inbox::new(0, 9);
        for seq in 0..3 {
            let mut m = msg(1, 5, seq, b"");
            m.kind = MsgKind::Unavail;
            inbox.ingest_message(m, false);
        }
        let mut other = msg(2, 5, 0, b"");
        other.kind = MsgKind::Unavail;
        inbox.ingest_message(other, false);
        // Three answers from rank 1 collapse to the freshest one; rank
        // 2's is independent.
        assert!(inbox.take_unavail(Some(1), 5).is_some());
        assert!(inbox.take_unavail(Some(1), 5).is_none());
        assert!(inbox.take_unavail(Some(2), 5).is_some());
    }

    #[test]
    fn ingest_datagram_rejects_garbage() {
        let mut inbox = Inbox::new(0, 9);
        assert!(inbox
            .ingest_datagram(&Bytes::from(&[1u8, 2, 3][..]))
            .is_err());
        assert_eq!(inbox.backlog(), 0);
    }

    /// Minimal scripted pump for engine-level tests: a manual clock and a
    /// queue of inbound datagrams; outbound traffic is only counted.
    struct QueuePump {
        now: Nanos,
        inbound: VecDeque<Datagram>,
        unicasts_out: usize,
        mcasts_out: usize,
    }

    impl QueuePump {
        fn new() -> Self {
            QueuePump {
                now: 0,
                inbound: Default::default(),
                unicasts_out: 0,
                mcasts_out: 0,
            }
        }

        fn queue_message(&mut self, src: u32, tag: Tag, seq: u64, payload: &[u8]) {
            let shared = Bytes::copy_from_slice(payload);
            for d in split_message(MsgKind::Data, 0, src, tag, seq, &shared, 60_000) {
                self.inbound.push_back(d);
            }
        }
    }

    impl RepairPump for QueuePump {
        fn now(&mut self) -> Nanos {
            self.now
        }

        fn pump_one(&mut self, core: &mut EndpointCore, until: Option<Nanos>) {
            if let Some(d) = self.inbound.pop_front() {
                let _ = core.inbox.ingest_wire(&d, false);
            } else if let Some(at) = until {
                self.now = self.now.max(at);
            } else {
                panic!("blocking receive with nothing queued would hang");
            }
        }

        fn pump_ready(&mut self, core: &mut EndpointCore) -> bool {
            match self.inbound.pop_front() {
                Some(d) => {
                    let _ = core.inbox.ingest_wire(&d, false);
                    true
                }
                None => false,
            }
        }

        fn pump_drain(&mut self, _core: &mut EndpointCore, _quiet: Duration) -> bool {
            false
        }

        fn send_encoded(&mut self, _dst: usize, datagrams: &[Datagram]) {
            self.unicasts_out += datagrams.len();
        }

        fn send_encoded_mcast(&mut self, datagrams: &[Datagram]) {
            self.mcasts_out += datagrams.len();
        }
    }

    #[test]
    fn cancel_requeues_matched_message_for_next_request() {
        let mut core = EndpointCore::new(0, 1, 2, 60_000, None);
        let mut io = QueuePump::new();
        let req = core.post_recv(&mut io, Some(0), 5);
        io.queue_message(0, 5, 0, b"survivor");
        // The progress pass matches the message into the request slot.
        core.progress(&mut io);
        core.cancel_req(req);
        // The cancel must have requeued it: a fresh request claims it.
        let again = core.post_recv(&mut io, Some(0), 5);
        let got = core.test_req(&mut io, again).expect("requeued message");
        assert_eq!(got.unwrap().payload, b"survivor");
    }

    #[test]
    fn test_retires_the_handle() {
        let mut core = EndpointCore::new(0, 1, 2, 60_000, None);
        let mut io = QueuePump::new();
        let req = core.post_recv(&mut io, Some(0), 5);
        io.queue_message(0, 5, 0, b"x");
        assert!(core.test_req(&mut io, req).is_some());
        assert_eq!(core.outstanding_recvs(), 0);
    }

    #[test]
    #[should_panic(expected = "not posted")]
    fn waiting_a_retired_handle_panics() {
        let mut core = EndpointCore::new(0, 1, 2, 60_000, None);
        let mut io = QueuePump::new();
        let req = core.post_recv(&mut io, Some(0), 5);
        io.queue_message(0, 5, 0, b"x");
        assert!(core.test_req(&mut io, req).is_some());
        let _ = core.test_req(&mut io, req); // second use: programming error
    }

    /// Regression (found by the overlapping-collectives kitchen sink):
    /// `progress_block` must NOT park while a posted receive already
    /// holds an unclaimed completion — a round-robin poller's other
    /// operation may have drained the socket and parked this one's
    /// *last* message, and no further datagram will ever arrive. The
    /// scripted pump panics on a blocking pump with nothing queued, so
    /// the old behaviour fails loudly here.
    #[test]
    fn progress_block_returns_instead_of_parking_over_claimable_work() {
        let mut core = EndpointCore::new(0, 1, 2, 60_000, None);
        let mut io = QueuePump::new();
        let a = core.post_recv(&mut io, Some(0), 1);
        let b = core.post_recv(&mut io, Some(0), 2);
        io.queue_message(0, 1, 0, b"for-a");
        io.queue_message(0, 2, 1, b"for-b");
        // A nonblocking test of `b` drains the queue and parks BOTH
        // completions; claiming `b` leaves `a` complete-but-unclaimed.
        assert!(core.test_req(&mut io, b).is_some());
        core.progress_block(&mut io); // must return, not pump
        assert_eq!(core.claim(a).unwrap().unwrap().payload, b"for-a");
    }

    /// The dual contract: `wait_ready` on a specific set must keep
    /// pumping even while an unrelated request sits complete-but-
    /// unclaimed (a `progress_block` loop would spin on it).
    #[test]
    fn wait_ready_pumps_past_unrelated_parked_completions() {
        let mut core = EndpointCore::new(0, 1, 2, 60_000, None);
        let mut io = QueuePump::new();
        let unrelated = core.post_recv(&mut io, Some(0), 1);
        let target = core.post_recv(&mut io, Some(0), 2);
        io.queue_message(0, 1, 0, b"parked");
        core.progress(&mut io); // parks `unrelated`, leaves it unclaimed
        io.queue_message(0, 2, 1, b"wanted");
        core.wait_ready(&mut io, &[target]); // must pump to `target`
        assert_eq!(core.claim(target).unwrap().unwrap().payload, b"wanted");
        core.cancel_req(unrelated);
    }

    /// The tentpole property at unit level: a wait on one request keeps
    /// the solicitation deadlines of *every other* posted request firing
    /// — repair is not head-of-line-blocked on the request being waited.
    #[test]
    fn waiting_one_request_solicits_for_all_posted() {
        let mut rc = RepairConfig::sim_default().without_srm();
        rc.backoff = Duration::ZERO;
        let mut core = EndpointCore::new(0, 1, 4, 60_000, Some(rc));
        let mut io = QueuePump::new();
        // Three directed receives from three different peers, none of
        // which will ever arrive.
        let _a = core.post_recv(&mut io, Some(0), 10);
        let _b = core.post_recv(&mut io, Some(2), 11);
        let c = core.post_recv(&mut io, Some(3), 12);
        // Park on the *last* one long enough for two solicitation rounds.
        let waited = core
            .wait_req_deadline(&mut io, c, rc.nack_timeout * 2 + Duration::from_millis(1))
            .expect("nothing unavailable here");
        assert!(waited.is_none(), "nothing ever arrives");
        let s = core.repair_stats();
        assert!(
            s.nacks_sent >= 6,
            "each of the 3 posted receives must have solicited at least \
             twice while only one was being waited on (got {})",
            s.nacks_sent
        );
    }

    #[test]
    fn peer_rtt_follows_rfc6298() {
        let mut p = PeerRtt::default();
        assert_eq!(p.timeout(), None, "no estimate before the first sample");
        p.observe(1_000_000);
        // First sample: srtt = s, rttvar = s/2, timeout = 3s.
        assert_eq!(p.srtt(), Some(1_000_000));
        assert_eq!(p.timeout(), Some(3_000_000));
        // Repeated identical samples: variance decays, timeout tightens
        // toward srtt.
        for _ in 0..40 {
            p.observe(1_000_000);
        }
        assert_eq!(p.srtt(), Some(1_000_000));
        assert!(p.timeout().unwrap() < 1_200_000, "{:?}", p.timeout());
        // A sustained jump re-converges the mean.
        for _ in 0..60 {
            p.observe(5_000_000);
        }
        assert!(p.srtt().unwrap() > 4_500_000, "{:?}", p.srtt());
    }

    fn horizon_repair() -> RepairConfig {
        RepairConfig::sim_default()
            .with_adaptive()
            .with_horizon_interval(Duration::from_millis(1))
    }

    /// Queue an encoded ACK-horizon session message from `src`.
    fn queue_horizon(io: &mut QueuePump, src: u32, seq: u64, p: &AckHorizonPayload) {
        let payload = p.encode();
        for d in split_message(
            MsgKind::AckHorizon,
            0,
            src,
            0,
            HORIZON_SEQ_BASE | seq,
            &payload,
            60_000,
        ) {
            io.inbound.push_back(d);
        }
    }

    #[test]
    fn horizon_emission_paces_by_interval_and_own_seq_space() {
        let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(horizon_repair()));
        let mut io = QueuePump::new();
        core.progress(&mut io);
        assert_eq!(core.repair_stats().horizons_sent, 1, "due immediately");
        core.progress(&mut io);
        assert_eq!(
            core.repair_stats().horizons_sent,
            1,
            "not due again within the period"
        );
        io.now += 1_000_000;
        core.progress(&mut io);
        assert_eq!(core.repair_stats().horizons_sent, 2);
        // Session messages never enter the data sequence space: the next
        // data send still takes seq 0, so a lost horizon can never look
        // like a data hole to receivers.
        let seq = core.send_message(&mut io, 1, 5, MsgKind::Data, &Bytes::new());
        assert_eq!(seq, 0, "horizons must not consume data seqs");
    }

    #[test]
    fn horizon_frontier_frees_acked_ring_history() {
        let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(horizon_repair()));
        let mut io = QueuePump::new();
        for i in 0..3u64 {
            core.send_message(
                &mut io,
                1,
                5,
                MsgKind::Data,
                &Bytes::from(vec![i as u8; 100]),
            );
        }
        // Ring bytes are encoded-frame sizes (header + payload), so
        // compare per-record rather than hardcoding the frame overhead.
        let per_record = core.rtx.data_bytes() / 3;
        assert!(per_record >= 100, "each record holds at least its payload");
        // Rank 1 advertises seqs 0..=1 delivered (hwm 1, no holes).
        let hz = AckHorizonPayload {
            probe_ts: 0,
            echoes: vec![],
            acks: vec![SourceHorizon {
                src: 0,
                hwm: 1,
                missing: vec![],
            }],
            member: None,
        };
        queue_horizon(&mut io, 1, 0, &hz);
        core.progress(&mut io);
        let s = core.repair_stats();
        assert_eq!(s.horizons_received, 1);
        assert_eq!(s.acked_records_freed, 2, "seqs 0 and 1 acked, 2 still out");
        assert_eq!(core.rtx.data_bytes(), per_record);
    }

    #[test]
    fn horizon_echo_yields_rtt_sample_minus_hold_time() {
        let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(horizon_repair()));
        let mut io = QueuePump::new();
        io.now = 1_000_000;
        // Rank 1 echoes a probe we stamped at t=600µs and claims it sat
        // on it for 100µs: rtt = 1000 - 600 - 100 = 300µs.
        let hz = AckHorizonPayload {
            probe_ts: 7,
            echoes: vec![HorizonEcho {
                peer: 0,
                ts: 600_000,
                hold_ns: 100_000,
            }],
            acks: vec![],
            member: None,
        };
        queue_horizon(&mut io, 1, 0, &hz);
        core.progress(&mut io);
        assert_eq!(core.repair_stats().rtt_samples, 1);
        assert_eq!(core.peer_rtt(1), Some(Duration::from_micros(300)));
        // First sample: timeout = 3 × rtt = 900µs, below the configured
        // 2 ms — the per-peer timer clamps up to the configured floor.
        assert_eq!(
            core.peer_nack_timeout(1),
            Some(Duration::from_millis(2)),
            "estimate below the configured timeout clamps up to it"
        );
    }

    #[test]
    fn send_window_gates_data_and_reopens_on_ack() {
        let mut rc = horizon_repair();
        rc.send_window = Some(1000);
        let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(rc));
        let mut io = QueuePump::new();
        let payload = Bytes::from(vec![0u8; 800]);
        core.try_send_message(&mut io, 1, 5, &payload)
            .expect("empty ring: window open");
        core.try_send_message(&mut io, 1, 5, &payload)
            .expect("800 ≤ 1000: still open");
        assert!(
            core.try_send_message(&mut io, 1, 5, &payload).is_err(),
            "1600 unacked bytes exceed the window"
        );
        assert_eq!(core.repair_stats().send_window_stalls, 1);
        // Rank 1 acknowledges everything: the window reopens.
        let hz = AckHorizonPayload {
            probe_ts: 0,
            echoes: vec![],
            acks: vec![SourceHorizon {
                src: 0,
                hwm: 1,
                missing: vec![],
            }],
            member: None,
        };
        queue_horizon(&mut io, 1, 0, &hz);
        core.progress(&mut io);
        core.try_send_message(&mut io, 1, 5, &payload)
            .expect("acked history freed: window reopens");
    }

    #[test]
    fn cancel_sink_drains_posted_receives_on_progress() {
        let mut core = EndpointCore::new(0, 0, 1, 60_000, None);
        let mut io = QueuePump::new();
        let req = core.post_recv(&mut io, Some(0), 5);
        assert_eq!(core.outstanding_recvs(), 1);
        // A dropped request machine pushes its handles here instead of
        // cancelling inline (no `&mut Comm` inside `Drop`).
        core.cancel_sink().push(req);
        core.progress(&mut io);
        assert_eq!(core.outstanding_recvs(), 0, "deferred cancel applied");
        // Ids are never reused, so a double-push is a no-op.
        core.cancel_sink().push(req);
        core.progress(&mut io);
        assert_eq!(core.outstanding_recvs(), 0);
    }

    fn member_repair() -> RepairConfig {
        RepairConfig::sim_default().with_membership(Duration::from_millis(1))
    }

    /// Queue an encoded membership message (`Heartbeat` or
    /// `FailureAnnounce`) from `src`, in the out-of-band control seq
    /// space like the real emitters.
    fn queue_control(io: &mut QueuePump, kind: MsgKind, src: u32, seq: u64, payload: &[u8]) {
        let shared = Bytes::copy_from_slice(payload);
        for d in split_message(kind, 0, src, 0, HORIZON_SEQ_BASE | seq, &shared, 60_000) {
            io.inbound.push_back(d);
        }
    }

    #[test]
    fn standalone_heartbeat_only_when_quiet() {
        let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(member_repair()));
        let mut io = QueuePump::new();
        // First pass baselines the layer; creation time is not silence.
        core.progress(&mut io);
        assert_eq!(core.repair_stats().heartbeats_sent, 0);
        io.now = 1_000_000;
        core.progress(&mut io);
        assert_eq!(
            core.repair_stats().heartbeats_sent,
            1,
            "a full quiet interval owes a beacon"
        );
        // A multicast inside the interval proves us alive for free...
        io.now = 1_500_000;
        core.mcast_message(&mut io, 5, MsgKind::Data, &Bytes::new());
        io.now = 2_000_000;
        core.progress(&mut io);
        assert_eq!(
            core.repair_stats().heartbeats_sent,
            1,
            "recent multicast suppresses the standalone beacon"
        );
        io.now = 3_000_000;
        core.progress(&mut io);
        assert_eq!(core.repair_stats().heartbeats_sent, 2, "quiet again");
        // ...but a unicast does not: only its destination heard it, so
        // the rest of the group is still owed the beacon.
        io.now = 3_500_000;
        core.send_message(&mut io, 1, 5, MsgKind::Data, &Bytes::new());
        io.now = 4_000_000;
        core.progress(&mut io);
        assert_eq!(
            core.repair_stats().heartbeats_sent,
            3,
            "a unicast must not suppress the standalone beacon"
        );
    }

    #[test]
    fn silent_peer_suspected_confirmed_and_directed_recv_fails() {
        // sim defaults: nack_timeout 2 ms, not adaptive → rto = 2 ms.
        // Suspect after 4 × 2 ms of silence, confirm 3 × 2 ms later.
        let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(member_repair()));
        let mut io = QueuePump::new();
        core.progress(&mut io); // baseline at t=0
        io.now = 9_000_000;
        core.progress(&mut io);
        assert_eq!(core.repair_stats().suspicions, 1);
        assert!(core.failed_peers().is_empty(), "suspected is not failed");
        io.now = 16_000_000;
        let before = io.mcasts_out;
        core.progress(&mut io);
        assert_eq!(core.repair_stats().failures_confirmed, 1);
        assert_eq!(core.failed_peers(), vec![1]);
        assert!(io.mcasts_out > before, "confirmation floods an announce");
        // A directed receive from the corpse fails typed instead of
        // NACKing forever.
        let req = core.post_recv(&mut io, Some(1), 5);
        let got = core.test_req(&mut io, req).expect("completes immediately");
        assert_eq!(got, Err(RecvError::PeerFailed { rank: 1, epoch: 0 }));
        assert_eq!(
            core.repair_stats().nacks_sent,
            0,
            "confirmed-dead sources are never solicited"
        );
    }

    #[test]
    fn peer_traffic_clears_suspicion_before_confirmation() {
        let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(member_repair()));
        let mut io = QueuePump::new();
        core.progress(&mut io);
        io.now = 9_000_000;
        core.progress(&mut io);
        assert_eq!(core.repair_stats().suspicions, 1);
        // Any accepted traffic — not just a heartbeat — clears it.
        io.now = 10_000_000;
        io.queue_message(1, 5, 0, b"alive");
        core.progress(&mut io);
        io.now = 16_000_000;
        core.progress(&mut io);
        assert_eq!(
            core.repair_stats().failures_confirmed,
            0,
            "suspicion cleared by traffic at 10 ms; 6 ms of silence since \
             is inside the suspicion bound"
        );
        assert!(core.failed_peers().is_empty());
    }

    #[test]
    fn heartbeats_prevent_false_positives() {
        let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(member_repair()));
        let mut io = QueuePump::new();
        core.progress(&mut io);
        // Peer 1 beacons every millisecond for 50 ms; we never suspect.
        for k in 1..=50u64 {
            io.now = k * 1_000_000;
            let hb = HeartbeatPayload {
                epoch: 0,
                incarnation: 0,
            }
            .encode();
            queue_control(&mut io, MsgKind::Heartbeat, 1, k, &hb);
            core.progress(&mut io);
        }
        assert_eq!(core.repair_stats().suspicions, 0);
        assert_eq!(core.repair_stats().failures_confirmed, 0);
    }

    #[test]
    fn adopted_announce_marks_failed_refloods_once_without_own_count() {
        let mut core = EndpointCore::new(0, 0, 4, 60_000, Some(member_repair()));
        let mut io = QueuePump::new();
        core.progress(&mut io);
        let ann = FailureAnnouncePayload {
            epoch: 0,
            graceful: false,
            ranks: vec![3],
        }
        .encode();
        let before = io.mcasts_out;
        queue_control(&mut io, MsgKind::FailureAnnounce, 1, 0, &ann);
        core.progress(&mut io);
        assert_eq!(core.failed_peers(), vec![3]);
        assert_eq!(
            core.repair_stats().failures_confirmed,
            0,
            "adopted verdicts are the origin's count, not ours"
        );
        let after_first = io.mcasts_out;
        assert!(after_first > before, "adoption re-floods once (gossip)");
        // A duplicate announce changes nothing and floods nothing.
        queue_control(&mut io, MsgKind::FailureAnnounce, 2, 0, &ann);
        core.progress(&mut io);
        assert_eq!(core.failed_peers(), vec![3]);
        assert_eq!(io.mcasts_out, after_first, "sticky flags: no re-flood");
    }

    #[test]
    fn graceful_departure_shrinks_drain_grace_and_leave_is_idempotent() {
        let mut core = EndpointCore::new(0, 0, 16, 60_000, Some(member_repair()));
        let mut io = QueuePump::new();
        core.progress(&mut io);
        // sim defaults: chained grace = (2 ms + 2 ms) × 2 × n.
        assert_eq!(core.drain_grace(), Duration::from_millis(128));
        let bye = FailureAnnouncePayload {
            epoch: 0,
            graceful: true,
            ranks: vec![3],
        }
        .encode();
        queue_control(&mut io, MsgKind::FailureAnnounce, 3, 0, &bye);
        core.progress(&mut io);
        assert_eq!(core.departed_peers(), vec![3]);
        assert!(core.failed_peers().is_empty(), "departed is not failed");
        assert_eq!(
            core.drain_grace(),
            Duration::from_millis(120),
            "survivors stop waiting out the leaver's share of the grace"
        );
        // Our own leave announces, drains, and retires the endpoint.
        let before = io.mcasts_out;
        core.leave(&mut io);
        assert!(core.has_left());
        assert!(io.mcasts_out > before);
        let announced = io.mcasts_out;
        core.leave(&mut io);
        assert_eq!(io.mcasts_out, announced, "leave is idempotent");
    }

    #[test]
    fn rebase_epoch_discards_stragglers_but_keeps_repair_plane_open() {
        let mut core = EndpointCore::new(7, 0, 2, 60_000, Some(member_repair()));
        let mut io = QueuePump::new();
        let old_context = core.context();
        core.rebase_epoch(1);
        assert_eq!(core.epoch(), 1);
        assert_ne!(core.context(), old_context);
        assert_eq!(core.repair_stats().epoch, 1);
        // An old-epoch data straggler is foreign now...
        let shared = Bytes::copy_from_slice(b"stale");
        for d in split_message(MsgKind::Data, old_context, 1, 5, 0, &shared, 60_000) {
            let _ = core.inbox.ingest_wire(&d, false);
        }
        assert_eq!(core.inbox.backlog(), 0);
        assert_eq!(core.inbox.foreign_dropped(), 1);
        // ...but an old-epoch NACK still reaches the repair loop (the
        // pre-shrink recovery tail must be allowed to finish).
        let nack = NackPayload::addressed_to(0).encode();
        for d in split_message(MsgKind::Nack, old_context, 1, 5, 1, &nack, 60_000) {
            let _ = core.inbox.ingest_wire(&d, false);
        }
        core.progress(&mut io);
        assert_eq!(
            core.repair_stats().nacks_received,
            1,
            "prev-epoch solicit serviced across the boundary"
        );
        // Same-epoch survivors agree on the context deterministically.
        let mut twin = EndpointCore::new(7, 1, 2, 60_000, Some(member_repair()));
        twin.rebase_epoch(1);
        assert_eq!(twin.context(), core.context());
    }

    #[test]
    fn membership_off_emits_nothing_and_declares_no_one() {
        let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(horizon_repair()));
        let mut io = QueuePump::new();
        for k in 0..40u64 {
            io.now = k * 1_000_000;
            core.progress(&mut io);
        }
        let s = core.repair_stats();
        assert_eq!(s.heartbeats_sent, 0);
        assert_eq!(s.suspicions, 0);
        assert_eq!(s.failures_confirmed, 0);
        assert!(core.failed_peers().is_empty());
        assert!(core.departed_peers().is_empty());
        assert_eq!(core.epoch(), 0);
    }
}
