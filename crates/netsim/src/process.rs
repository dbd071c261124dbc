//! The blocking API a simulated MPI process programs against.
//!
//! Each rank runs on its own OS thread. A [`SimProcess`] method posts a
//! [`Request`] to the co-simulation ([`crate::cluster`]) and returns once
//! the simulation has a [`Response`] for it, together with the rank's new
//! local virtual time. Whether the calling thread parked in between or ran
//! the simulation itself (the rank that closes a round does) is invisible
//! here. The same collective-operation code therefore runs unmodified on
//! this handle and on a real UDP transport — only the handle differs.
//!
//! A rank whose receive is one turn of a longer loop (ingest, look, maybe
//! send or compute, receive again) can leave the loop body behind as a
//! [`Served`] when it parks in [`SimProcess::recv_served`]: the round
//! closer then runs the body for it and wakes the rank's thread only once
//! the loop is over. The body acts in the rank's name through a
//! [`RankPort`], whose `send`, `send_kernel` and `compute` are the
//! requests of this handle the rank's thread would have posted. A body can
//! be a whole waited collective: `mmpi-transport`'s `SimComm` parks one
//! with its request machine and lets the closer run every phase between
//! the receives.

use std::fmt;
use std::sync::Arc;

use crate::cluster::{Cluster, RankPort};
use crate::frame::{Datagram, SharedPayload};
use crate::ids::{DatagramDst, GroupId, SocketId, UdpPort};
use crate::time::{SimDuration, SimTime};

/// What a rank asks the simulation to do.
#[derive(Debug)]
pub enum Request {
    /// Bind a UDP socket (free: setup-time configuration).
    Bind {
        /// Local port to bind.
        port: UdpPort,
    },
    /// Join a multicast group without IGMP traffic (setup-time).
    JoinQuiet {
        /// Socket joining.
        socket: SocketId,
        /// Group to join.
        group: GroupId,
    },
    /// Leave a multicast group (setup-time).
    LeaveQuiet {
        /// Socket leaving.
        socket: SocketId,
        /// Group to leave.
        group: GroupId,
    },
    /// Join a multicast group with an IGMP membership report on the wire.
    JoinIgmp {
        /// Socket joining.
        socket: SocketId,
        /// Group to join.
        group: GroupId,
    },
    /// Send a datagram (charges `o_send` + per-byte copy, or the cheap
    /// `o_kernel_send` when `kernel` is set).
    Send {
        /// Sending socket.
        socket: SocketId,
        /// Destination host or group.
        dst: DatagramDst,
        /// Destination port.
        dst_port: UdpPort,
        /// Payload bytes (shared segments — never copied by the simulator).
        payload: SharedPayload,
        /// Kernel-generated traffic (modelled TCP acks): cheaper host
        /// cost, separate statistics.
        kernel: bool,
    },
    /// Receive the next datagram on `socket`, optionally with a timeout.
    Recv {
        /// Receiving socket.
        socket: SocketId,
        /// Give up after this long, if set.
        timeout: Option<SimDuration>,
        /// The receive loop this receive is a turn of, if the round closer
        /// may run it ([`SimProcess::recv_served`]).
        served: Option<Arc<dyn Served>>,
    },
    /// Advance the local clock by `dur` (models application computation).
    Compute {
        /// Amount of virtual work.
        dur: SimDuration,
    },
}

/// What the simulation answers.
#[derive(Debug)]
pub enum Response {
    /// Socket created.
    Socket(SocketId),
    /// Operation done (joins, sends, compute); the timestamp is the rank's
    /// new local time.
    Done,
    /// Receive completed: `None` means the timeout elapsed first.
    Datagram(Option<Arc<Datagram>>),
    /// A served receive ended with [`Step::Done`]: the rank's [`Served`]
    /// has already consumed what arrived.
    Stepped,
    /// The run is being torn down (another rank panicked, deadlock, limit);
    /// the handle raises a panic to unwind this rank.
    Aborted,
}

/// Marker payload used to unwind a rank thread during simulation teardown.
pub struct AbortUnwind;

/// The body of a blocked rank's receive loop, for whichever thread closes
/// the round to run while the rank's own thread stays parked in
/// [`SimProcess::recv_served`].
///
/// The closer calls [`Served::step`] holding the simulation lock, and only
/// for a rank parked in `recv_served`; whatever state the step shares with
/// its rank must be reachable without that rank's thread (it is parked) and
/// without the simulation lock (the closer holds it).
pub trait Served: Send + Sync {
    /// The parked receive finished with `datagram` (`None`: its timeout
    /// ran out). Consume it, send or compute through `port` whatever the
    /// rank would have next, and say whether the rank receives again or
    /// wakes.
    fn step(&self, port: &mut RankPort<'_>, datagram: Option<Arc<Datagram>>) -> Step;
}

impl fmt::Debug for dyn Served {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Served")
    }
}

/// What a [`Served::step`] wants next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Receive again on the same socket, with this timeout: the rank stays
    /// parked.
    Park(Option<SimDuration>),
    /// The loop is over: wake the rank ([`ServedRecv::Stepped`]).
    Done,
}

/// How a [`SimProcess::recv_served`] ended.
#[derive(Debug)]
pub enum ServedRecv {
    /// Steps consumed everything that arrived and the last one returned
    /// [`Step::Done`].
    Stepped,
    /// The receive completed the ordinary way, as
    /// [`SimProcess::recv_timeout`] does, and no step saw its result
    /// (`None`: timed out). The caller runs the loop body itself.
    Woken(Option<Arc<Datagram>>),
}

/// Handle a rank uses to interact with the simulated network.
///
/// All methods block the calling thread until virtual time has advanced
/// far enough to answer. Local time is monotone per rank and reflects the
/// LogP-style software overheads charged for each request.
pub struct SimProcess {
    cluster: Arc<Cluster>,
    rank: usize,
    local_time: SimTime,
}

impl SimProcess {
    pub(crate) fn new(cluster: Arc<Cluster>, rank: usize, start: SimTime) -> Self {
        SimProcess {
            cluster,
            rank,
            local_time: start,
        }
    }

    /// This process's rank (== its simulated host id).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Local virtual time.
    pub fn now(&self) -> SimTime {
        self.local_time
    }

    fn call(&mut self, req: Request) -> Response {
        let (resp, at) = self.cluster.request(self.rank, req);
        self.local_time = at;
        if matches!(resp, Response::Aborted) {
            // Unwind without invoking the panic hook (this is controlled
            // teardown, not a bug in the rank's code).
            std::panic::resume_unwind(Box::new(AbortUnwind));
        }
        resp
    }

    /// Bind a UDP socket on this host (setup-time, free).
    pub fn bind(&mut self, port: u16) -> SocketId {
        match self.call(Request::Bind {
            port: UdpPort(port),
        }) {
            Response::Socket(s) => s,
            other => bad_response(&other),
        }
    }

    /// Join `group` on `socket` without emitting IGMP traffic (models a
    /// group set up before the timed region, like an MPI communicator).
    pub fn join_group(&mut self, socket: SocketId, group: GroupId) {
        self.call(Request::JoinQuiet { socket, group });
    }

    /// Leave `group` on `socket` (setup-time, free).
    pub fn leave_group(&mut self, socket: SocketId, group: GroupId) {
        self.call(Request::LeaveQuiet { socket, group });
    }

    /// Join `group` emitting a real IGMP membership report (costs a send
    /// overhead and a frame on the wire).
    pub fn join_group_igmp(&mut self, socket: SocketId, group: GroupId) {
        self.call(Request::JoinIgmp { socket, group });
    }

    /// Send `payload` as one UDP datagram to a unicast or multicast
    /// destination. Returns once the host stack has accepted the datagram
    /// (UDP semantics — no delivery guarantee). Accepts anything
    /// convertible into a [`SharedPayload`] (a `Vec<u8>`, a
    /// `bytes::Bytes`, or pre-built shared segments) — conversion never
    /// copies payload bytes.
    pub fn send(
        &mut self,
        socket: SocketId,
        dst: DatagramDst,
        dst_port: u16,
        payload: impl Into<SharedPayload>,
    ) {
        self.call(Request::Send {
            socket,
            dst,
            dst_port: UdpPort(dst_port),
            payload: payload.into(),
            kernel: false,
        });
    }

    /// Send kernel-generated traffic (e.g. a modelled TCP ack): the frame
    /// occupies the wire like any other, but the host is charged only the
    /// small `o_kernel_send` cost, and statistics count it separately.
    pub fn send_kernel(
        &mut self,
        socket: SocketId,
        dst: DatagramDst,
        dst_port: u16,
        payload: impl Into<SharedPayload>,
    ) {
        self.call(Request::Send {
            socket,
            dst,
            dst_port: UdpPort(dst_port),
            payload: payload.into(),
            kernel: true,
        });
    }

    /// Block until a datagram arrives on `socket`.
    pub fn recv(&mut self, socket: SocketId) -> Arc<Datagram> {
        match self.call(Request::Recv {
            socket,
            timeout: None,
            served: None,
        }) {
            Response::Datagram(Some(d)) => d,
            other => bad_response(&other),
        }
    }

    /// Block until a datagram arrives or `timeout` elapses.
    pub fn recv_timeout(
        &mut self,
        socket: SocketId,
        timeout: SimDuration,
    ) -> Option<Arc<Datagram>> {
        match self.call(Request::Recv {
            socket,
            timeout: Some(timeout),
            served: None,
        }) {
            Response::Datagram(d) => d,
            other => bad_response(&other),
        }
    }

    /// Block in a receive on `socket` (`timeout: None` waits forever) and
    /// let the round closer run `served` for every datagram or timeout
    /// that arrives while this rank is the only one answered — which is
    /// almost always (`docs/SIMULATOR.md`, "Served waits"). The call
    /// returns once a step says [`Step::Done`], or with the receive's own
    /// result when the closer had to answer several ranks at once.
    ///
    /// The caller must not hold a lock `served` takes.
    pub fn recv_served(
        &mut self,
        socket: SocketId,
        timeout: Option<SimDuration>,
        served: &Arc<dyn Served>,
    ) -> ServedRecv {
        match self.call(Request::Recv {
            socket,
            timeout,
            served: Some(Arc::clone(served)),
        }) {
            Response::Stepped => ServedRecv::Stepped,
            Response::Datagram(d) => ServedRecv::Woken(d),
            other => bad_response(&other),
        }
    }

    /// Model `dur` of local computation.
    pub fn compute(&mut self, dur: SimDuration) {
        self.call(Request::Compute { dur });
    }
}

/// A request was answered with a response of another kind (a receive
/// without a timeout with `None`, say).
#[expect(
    clippy::unreachable,
    reason = "`Cluster` answers each request with its own kind of response: a bind with a socket, a receive with a datagram (or `None` only under a timeout, or `Stepped` only when served)"
)]
fn bad_response(resp: &Response) -> ! {
    unreachable!("bad response {resp:?}")
}
