//! The request-based communication interface the collective algorithms
//! program against: [`Comm`], its request handles and its typed errors.
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
//! caller happens to be blocked on. A blocking receive is a post and a
//! wait; completion is a `Result` carrying the typed [`RecvError`], never
//! a panic. One implementation of a collective algorithm runs over:
//!
//! * [`crate::sim::SimComm`] — the deterministic network simulator,
//! * [`crate::udp::UdpComm`] — real UDP + IP multicast sockets,
//! * [`crate::mem::MemComm`] — in-memory channels (fast correctness tests).
//!
//! All three are one type, [`crate::Endpoint`], over a
//! [`crate::Backend`]: the trait is implemented for it once
//! (`endpoint.rs`).
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
//! is implemented exactly once, in [`crate::EndpointCore`]'s progress
//! engine, parameterized over the backend's clock and socket primitives
//! via the [`crate::RepairPump`] trait, and reached through the one
//! [`Comm`] implementation of [`crate::Endpoint`]; the backends cannot
//! drift. A walkthrough of a posted receive's lifecycle through the
//! engine is in `docs/API.md`.

use std::any::Any;
use std::fmt;
use std::slice;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use mmpi_wire::{Bytes, Message, MsgKind};

#[cfg(doc)]
use crate::config::RepairConfig;

/// Typed unrecoverable-loss errors a repair-enabled receive can surface,
/// and the expiry of a receive's deadline. Every receive returns them —
/// [`Comm::wait`], [`Comm::wait_any`] and the collectives built on them —
/// so an unrecoverable loss ends the operation instead of re-soliciting
/// forever.
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
    /// An operation that retransmits on its own gave up: `src` answered
    /// none of its `rounds` sends (the first and every retransmission).
    /// `mmpi-core`'s PVM-style acknowledged broadcast returns it on the
    /// root instead of retransmitting forever.
    Unreachable {
        /// The lowest rank that never answered.
        src: u32,
        /// The unanswered rounds.
        rounds: u32,
    },
    /// The deadline [`Comm::expire_recv`] armed on the receive passed
    /// before a message matched it. [`Comm::wait_deadline`] returns it as
    /// `Ok(None)`; `mmpi-core`'s PVM-style broadcast retransmits on it.
    TimedOut,
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
            RecvError::Unreachable { src, rounds } => write!(
                f,
                "peer unreachable: rank {src} answered none of {rounds} rounds; \
                 it never entered the operation or every round was lost"
            ),
            RecvError::TimedOut => f.write_str("receive timed out before a message matched it"),
        }
    }
}

impl std::error::Error for RecvError {}

/// The error type of [`Comm::try_post_send`] / [`Comm::try_post_mcast`],
/// which never return it: there is no send window, so a send never
/// waits (`docs/PROTOCOL.md` §9.4). Kept so that implementations of the
/// two methods outside this crate still build; it goes with them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendWindowFull;

impl fmt::Display for SendWindowFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "send window full (never returned: this transport has no send window)"
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

    /// The handle list. A poisoned lock is taken over: a list of handles
    /// has no state a panic could leave half-updated, and the usual
    /// pusher is a request machine's `Drop` — which runs *during*
    /// unwinding, where a second panic would abort the process.
    fn handles(&self) -> MutexGuard<'_, Vec<RecvReq>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a receive handle for deferred cancellation.
    pub fn push(&self, req: RecvReq) {
        self.handles().push(req);
    }

    /// Take every deferred handle (the engine's half).
    pub fn drain(&self) -> Vec<RecvReq> {
        std::mem::take(&mut *self.handles())
    }

    /// True when no cancellations are pending.
    pub fn is_empty(&self) -> bool {
        self.handles().is_empty()
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
pub struct RecvReq(pub(crate) u64);

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
    /// The sequence number the posted send used (what
    /// [`Comm::send_kind`] returns on the blocking path).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// A waited operation, as the one step [`Comm::wait_op`] repeats:
/// `mmpi-core`'s request machines. Object-safe, so a backend can hold the
/// operation while its caller sleeps and take the steps itself — the
/// simulator's round closer does, between the receives of a parked rank
/// (`docs/SIMULATOR.md`, "Served waits").
///
/// An operation is blocked on a *set* of posted receives: most hold one,
/// the multicast allgather one per block it still lacks within its
/// lookahead. A wait parks on any of them ([`Comm::wait_ready`]); a
/// [`RecvError`] on any fails the operation, which cancels the rest.
pub trait ClaimStep: Any + Send {
    /// Claim every posted receive of the operation that has completed and
    /// run the operation on as far as that takes it: to further receives,
    /// which it posts, or to its end. Returns the posted receives the
    /// operation is now blocked on ([`ClaimStep::pending`]) — empty once it
    /// is complete. Makes no blocking call and runs no progress pass, so
    /// whoever takes the step, the backend sees the same calls. On `Err`
    /// the operation has failed and cancelled its other receives.
    fn claim(&mut self, c: &mut dyn Comm) -> Result<&[RecvReq], RecvError>;

    /// The posted receives the operation is blocked on, as the last
    /// [`ClaimStep::claim`] returned them; empty once complete.
    fn pending(&self) -> &[RecvReq];

    /// A spent operation of this type: the slot a backend moves this one
    /// into ([`ClaimStep::exchange`]) while it holds it, kept for the next
    /// operation of the type.
    fn vacant(&self) -> Box<dyn ClaimStep>;

    /// Swap with `other` if it is of this type; `false` (and nothing
    /// moved) otherwise.
    fn exchange(&mut self, other: &mut dyn ClaimStep) -> bool;
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
    /// [`Comm::test`], [`Comm::wait`] or [`Comm::wait_any`]. With repair
    /// armed, the post also arms the request's NACK solicitation deadline.
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
    /// wait without spinning). Provided: [`Comm::progress`], then
    /// [`Comm::test_claimed`].
    fn test(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        self.progress();
        self.test_claimed(req)
    }

    /// Claim-only variant of [`Comm::test`]: no progress pass, just a
    /// table lookup. For pollers checking many requests after one
    /// explicit [`Comm::progress`] — avoids a socket drain (and, on the
    /// simulator, a round of the co-simulation) per request.
    fn test_claimed(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>>;

    /// Block until `req` completes and claim it. Provided:
    /// [`Comm::wait_any`] over the one request.
    fn wait(&mut self, req: RecvReq) -> Result<Message, RecvError> {
        self.wait_any(slice::from_ref(&req)).map(|(_, m)| m)
    }

    /// Arm `req` to complete with [`RecvError::TimedOut`] once `after`
    /// has passed on the backend's clock with no message matched to it.
    /// The expiry is a completion like any other: it wakes every wait on
    /// `req`, and a message already in hand when it falls due still wins.
    /// The default arms nothing, so `req` waits on for its message; the
    /// one implementation, [`crate::Endpoint`], arms it in the request
    /// table.
    fn expire_recv(&mut self, req: RecvReq, after: Duration) {
        let _ = (req, after);
    }

    /// Block until `req` completes or `timeout` elapses. `Ok(None)` means
    /// the timeout won and the handle is retired. Provided:
    /// [`Comm::expire_recv`], then [`Comm::wait`], with
    /// [`RecvError::TimedOut`] read as `Ok(None)`.
    fn wait_deadline(
        &mut self,
        req: RecvReq,
        timeout: Duration,
    ) -> Result<Option<Message>, RecvError> {
        self.expire_recv(req, timeout);
        match self.wait(req) {
            Err(RecvError::TimedOut) => Ok(None),
            done => done.map(Some),
        }
    }

    /// Block until *one* of `reqs` completes; claim it and return its
    /// index in `reqs` with the message. The other requests stay posted.
    /// On `Err`, the failing request is the one consumed and its handle
    /// retired; to abandon the operation, [`Comm::cancel_recv`] every
    /// handle in `reqs` — cancel is a no-op on the retired one, so no
    /// identification is needed (testing it would panic). Panics on an
    /// empty slice — that wait could never return. Provided:
    /// [`Comm::wait_ready`], then [`Comm::test_claimed`] in the caller's
    /// order — so an implementor translates a completion in
    /// [`Comm::test_claimed`] only.
    fn wait_any(&mut self, reqs: &[RecvReq]) -> Result<(usize, Message), RecvError> {
        assert!(
            !reqs.is_empty(),
            "wait_any on no requests would block forever"
        );
        loop {
            self.wait_ready(reqs);
            for (i, req) in reqs.iter().enumerate() {
                if let Some(done) = self.test_claimed(*req) {
                    return done.map(|m| (i, m));
                }
            }
        }
    }

    /// Drive a waited operation to its end: take its claim step, and while
    /// it is blocked, [`Comm::wait_ready`] on the receives it is blocked
    /// on — the calls a blocking `wait_any` makes, so waiting an operation
    /// moves a backend's time model as a blocking formulation would. A
    /// backend may take the steps itself while the caller sleeps (the
    /// simulator does); it makes the same calls. On `Err` the operation
    /// failed and is not stepped again.
    fn wait_op(&mut self, op: &mut dyn ClaimStep) -> Result<(), RecvError>
    where
        Self: Sized,
    {
        loop {
            let reqs = op.claim(self)?;
            if reqs.is_empty() {
                return Ok(());
            }
            self.wait_ready(reqs);
        }
    }

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

    /// Post a unicast send. Completes immediately (see [`SendReq`]), and
    /// posting never waits: a sender that outruns its receivers is
    /// bounded by the retransmit ring's capacity eviction, answered by
    /// `Unavail` ([`RecvError::Unavailable`], `docs/PROTOCOL.md` §8.1).
    fn post_send(&mut self, dst: usize, tag: Tag, payload: &Bytes) -> SendReq {
        SendReq {
            seq: self.send_kind(dst, tag, MsgKind::Data, payload),
        }
    }

    /// Post a multicast send. Completes immediately and never waits, like
    /// [`Comm::post_send`].
    fn post_mcast(&mut self, tag: Tag, payload: &Bytes) -> SendReq {
        SendReq {
            seq: self.mcast_kind(tag, MsgKind::Data, payload),
        }
    }

    /// [`Comm::post_send`], which never blocks, so this never fails. Kept
    /// only so that implementations of it outside this crate still build;
    /// it goes, with [`SendWindowFull`], once they drop them.
    fn try_post_send(
        &mut self,
        dst: usize,
        tag: Tag,
        payload: &Bytes,
    ) -> Result<SendReq, SendWindowFull> {
        Ok(self.post_send(dst, tag, payload))
    }

    /// [`Comm::post_mcast`]; never fails (see [`Comm::try_post_send`]).
    fn try_post_mcast(&mut self, tag: Tag, payload: &Bytes) -> Result<SendReq, SendWindowFull> {
        Ok(self.post_mcast(tag, payload))
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
    /// retire this endpoint (drain-on-leave, `docs/API.md`). Without
    /// membership there is no one to announce to; the ring is still
    /// flushed, which with repair off is nothing at all.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request machine dropped while its thread unwinds pushes into the
    /// sink; if an earlier panic poisoned the lock, that push must not be
    /// the second panic that aborts the process.
    #[test]
    fn cancel_sink_survives_a_poisoned_lock() {
        let sink = CancelSink::new();
        let poisoner = sink.clone();
        let held = std::thread::spawn(move || {
            let _held = poisoner.handles();
            panic!("poisoning the sink on purpose");
        });
        assert!(held.join().is_err());
        sink.push(RecvReq(7));
        sink.push(RecvReq(8));
        assert!(!sink.is_empty());
        assert_eq!(sink.drain(), vec![RecvReq(7), RecvReq(8)]);
    }
}
