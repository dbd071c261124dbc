//! What the engine asks of a backend: a clock and a socket pump
//! ([`RepairPump`], and its clock-and-send half [`RepairPort`]), plus the
//! vocabulary of a blocking wait ([`WaitKind`], [`WaitPoll`]).

use std::time::Duration;

use mmpi_wire::Datagram;

#[cfg(doc)]
use crate::api::Comm;
use crate::api::RecvReq;
use crate::engine::EndpointCore;

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
    /// ([`Comm::wait`], [`Comm::wait_any`], [`Comm::wait_ready`]) — an
    /// expiry armed by [`Comm::expire_recv`] included.
    AnyOf(&'a [RecvReq]),
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

/// Duration → backend-clock [`Nanos`], saturating: a duration past the
/// clock's range (584 years) is "never", not a wrapped small number.
pub(crate) fn dur_nanos(d: Duration) -> Nanos {
    Nanos::try_from(d.as_nanos()).unwrap_or(Nanos::MAX)
}

/// The instant `timeout` after `now`, saturating at [`Nanos::MAX`] — which
/// [`EndpointCore::expire_at`] reads as "never", so a `Duration::MAX` wait
/// blocks instead of expiring in the past.
pub(crate) fn deadline_after(now: Nanos, timeout: Duration) -> Nanos {
    now.saturating_add(dur_nanos(timeout))
}
