//! [`Comm`] over the deterministic network simulator.
//!
//! [`SimComm`] is a [`crate::Endpoint`] over a [`SimProcess`] (one rank's
//! handle into the co-simulation) and speaks the `mmpi-wire` format over
//! simulated UDP. [`run_sim_world`] is the entry point the experiment
//! harness and the benches use: it runs an SPMD closure over a
//! fully-configured simulated cluster where every rank has already bound
//! its socket and joined the communicator's multicast group.
//!
//! Wire datagrams travel through the simulator as
//! [`mmpi_netsim::SharedPayload`] segments — the header view and payload
//! view produced by `split_message` — so a multicast to N ranks, an
//! injected duplicate, or a NACK-triggered retransmission never copies
//! payload bytes anywhere between the sender's encode and the receiver's
//! reassembly.
//!
//! With [`SimCommConfig::repair`] set, every endpoint also runs the
//! NACK/retransmit repair loop (`docs/PROTOCOL.md`), whose policy lives
//! backend-independently in [`EndpointCore`]; this file only provides the
//! simulator's clock and socket pump ([`RepairPump`] over
//! [`mmpi_netsim::SimTime`]). [`run_sim_world_stats`] additionally
//! aggregates every rank's [`RepairStats`] with the network counters into
//! a [`WorldStats`].
//!
//! # Served waits
//!
//! A blocking [`Comm`] wait is a loop of [`EndpointCore::poll_wait`] turns
//! with one socket receive between them, and on the simulator most turns
//! only file a datagram away (an overheard NACK, a repair for somebody
//! else). [`SimBackend`] therefore overrides [`Backend::block`] — the one
//! place every blocking call goes through — and does not receive in that
//! loop itself: it parks in [`SimProcess::recv_served`] and leaves the
//! endpoint behind as a [`Served`], so the thread that closes the round
//! takes the turns and the rank's own thread wakes once, when the wait is
//! over (`docs/SIMULATOR.md`, "Served waits"). A waited collective
//! ([`Comm::wait_op`], [`Backend::block_op`]) goes further: the rank lends
//! the closer its request machine with the park, and the closer runs the
//! machine's claim steps between the receives over `Stepped` — the rank's
//! core and the closer's port as an [`crate::Endpoint`] — so the thread
//! wakes once per collective. That is why the endpoint sits in an
//! `Arc<Mutex<_>>`. **Lock order:** a round closer takes the simulation
//! lock, then the endpoint of a rank parked in `recv_served`; the owner
//! releases its endpoint before it parks there. The owner does hold the
//! endpoint across its other requests (sends, the drain's plain
//! receives), which is safe because a closer only ever touches the
//! endpoint of a rank parked *served*.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use mmpi_netsim::cluster::{run_cluster, ClusterConfig, RankPort, RunReport};
use mmpi_netsim::ids::{DatagramDst, GroupId, HostId, SocketId};
use mmpi_netsim::process::{Served, ServedRecv, SimProcess, Step};
use mmpi_netsim::stats::NetStats;
use mmpi_netsim::time::SimDuration;
use mmpi_netsim::{SharedPayload, SimError, SimTime};
use mmpi_wire::{Bytes, Datagram, MsgKind, RepairStats};

#[cfg(doc)]
use crate::Comm;
use crate::{
    Backend, ClaimStep, EndpointCore, Nanos, RecvError, RecvReq, RepairConfig, RepairPort,
    RepairPump, WaitKind, WaitPoll,
};

/// Where the ranks of a [`run_sim_world_stats`] run flush their
/// [`RepairStats`] (each rank merges its totals when its endpoint drops).
/// Totals are order-independent sums, so the aggregate is as deterministic
/// as the per-rank counters.
type StatsSink = Arc<Mutex<RepairStats>>;

/// Network + repair statistics of one simulated run, the unit the
/// experiment tables report: fabric-level drops alongside the protocol's
/// recovery effort.
#[derive(Clone, Debug)]
pub struct WorldStats {
    /// The simulator's frame/drop counters (includes injected faults and
    /// per-link [`mmpi_netsim::stats::LinkStats`] rows).
    pub net: NetStats,
    /// Summed repair-loop counters across all ranks.
    pub repair: RepairStats,
}

impl WorldStats {
    /// Total frames/datagrams lost in the fabric (all causes).
    pub fn total_drops(&self) -> u64 {
        self.net.total_drops()
    }
}

/// How a [`SimComm`] maps onto the simulated network.
#[derive(Clone, Debug)]
pub struct SimCommConfig {
    /// UDP port every rank binds (unicast and multicast).
    pub port: u16,
    /// The communicator's multicast group.
    pub group: GroupId,
    /// Communicator context id.
    pub context: u32,
    /// Maximum wire-message chunk per datagram. The default keeps whole
    /// paper-sized messages in one datagram and lets the simulated IP
    /// layer do the fragmenting, as the paper's implementation did.
    pub max_chunk: usize,
    /// NACK/retransmit repair loop; `None` (default) disables it. Enable
    /// whenever the cluster's [`mmpi_netsim::params::FaultParams`] inject
    /// loss, or the collectives will block forever on a dropped datagram.
    pub repair: Option<RepairConfig>,
}

impl Default for SimCommConfig {
    fn default() -> Self {
        SimCommConfig {
            port: 5000,
            group: GroupId(1),
            context: 0,
            max_chunk: mmpi_wire::DEFAULT_MAX_CHUNK,
            repair: None,
        }
    }
}

impl SimCommConfig {
    /// Builder-style: enable the repair loop with simulator defaults.
    pub fn with_repair(mut self) -> Self {
        self.repair = Some(RepairConfig::sim_default());
        self
    }
}

/// Where one rank's datagrams go on the simulated network.
#[derive(Clone, Copy)]
struct Link {
    socket: SocketId,
    port: u16,
    group: GroupId,
}

/// A rank's local clock and the requests of it that never block: its own
/// [`SimProcess`], or the [`RankPort`] of a round closer stepping it.
///
/// Every clock read is the rank's *local* virtual clock, which runs ahead
/// of the world's global `now` by the software overheads the rank has been
/// charged since it last blocked.
trait Wire {
    fn now(&self) -> SimTime;
    fn send(&mut self, socket: SocketId, dst: DatagramDst, port: u16, payload: SharedPayload);
    fn send_kernel(
        &mut self,
        socket: SocketId,
        dst: DatagramDst,
        port: u16,
        payload: SharedPayload,
    );
    fn compute(&mut self, dur: SimDuration);
}

impl Wire for SimProcess {
    fn now(&self) -> SimTime {
        SimProcess::now(self)
    }
    fn send(&mut self, socket: SocketId, dst: DatagramDst, port: u16, payload: SharedPayload) {
        SimProcess::send(self, socket, dst, port, payload);
    }
    fn send_kernel(
        &mut self,
        socket: SocketId,
        dst: DatagramDst,
        port: u16,
        payload: SharedPayload,
    ) {
        SimProcess::send_kernel(self, socket, dst, port, payload);
    }
    fn compute(&mut self, dur: SimDuration) {
        SimProcess::compute(self, dur);
    }
}

impl Wire for &mut RankPort<'_> {
    fn now(&self) -> SimTime {
        RankPort::now(self)
    }
    fn send(&mut self, socket: SocketId, dst: DatagramDst, port: u16, payload: SharedPayload) {
        RankPort::send(self, socket, dst, port, payload);
    }
    fn send_kernel(
        &mut self,
        socket: SocketId,
        dst: DatagramDst,
        port: u16,
        payload: SharedPayload,
    ) {
        RankPort::send_kernel(self, socket, dst, port, payload);
    }
    fn compute(&mut self, dur: SimDuration) {
        RankPort::compute(self, dur);
    }
}

/// The simulator half of the endpoint: a `Wire` and the addressing. Over
/// the rank's own process handle it is the full [`RepairPump`]; over a
/// closer's borrowed [`RankPort`] it cannot receive.
pub struct SimIo<W> {
    wire: W,
    link: Link,
}

/// [`Backend::pass_time`] on the simulator.
fn pass_time<W: Wire>(io: &mut SimIo<W>, nanos: Nanos) -> Nanos {
    io.wire.compute(SimDuration::from_nanos(nanos));
    nanos
}

/// [`Backend::tcp_ack_model`] on the simulator: `count` kernel-sent acks to
/// `dst`.
fn tcp_acks<W: Wire>(core: &mut EndpointCore, io: &mut SimIo<W>, dst: usize, count: u32) {
    assert!(dst < core.size(), "rank {dst} out of range");
    let Link { socket, port, .. } = io.link;
    for _ in 0..count {
        let seq = core.fresh_seq();
        let dgs = core.encode(crate::FIRE_AND_FORGET_TAG, MsgKind::Ack, &Bytes::new(), seq);
        for d in &dgs {
            io.wire.send_kernel(socket, unicast(dst), port, segments(d));
        }
    }
}

/// A wire datagram as simulator payload segments (header view + payload
/// view — refcount bumps only).
fn segments(d: &Datagram) -> SharedPayload {
    SharedPayload::pair(d.header().clone(), d.payload().clone())
}

fn ingest(core: &mut EndpointCore, dg: &mmpi_netsim::Datagram) {
    // Only a raw rank can put a malformed datagram on the simulated
    // fabric; the inbox counts and reports them, and like UDP we go on.
    let _ = core.inbox.ingest_segments(dg.payload.segments(), false);
}

fn transmit<W: Wire>(io: &mut SimIo<W>, dst: DatagramDst, dgs: &[Datagram]) {
    for d in dgs {
        io.wire.send(io.link.socket, dst, io.link.port, segments(d));
    }
}

fn unicast(dst: usize) -> DatagramDst {
    DatagramDst::Unicast(HostId(dst as u32))
}

/// A stepped rank cannot receive: its thread is parked in the receive the
/// closer is serving. Nothing a closer runs gets here — turns and claim
/// steps make no blocking call, a send never waits, and closing the
/// [`Stepped`] endpoint does not drain.
#[expect(
    clippy::panic,
    reason = "a receive on the closer's thread would be a contract breach of `ClaimStep::claim`"
)]
fn cannot_receive() -> ! {
    panic!("a rank stepped by the round closer cannot receive")
}

impl RepairPump for SimIo<&mut RankPort<'_>> {
    fn now(&mut self) -> Nanos {
        self.wire.now().as_nanos()
    }

    fn pump_one(&mut self, _core: &mut EndpointCore, _until: Option<Nanos>) {
        cannot_receive()
    }

    fn pump_ready(&mut self, _core: &mut EndpointCore) -> bool {
        cannot_receive()
    }

    fn pump_drain(&mut self, _core: &mut EndpointCore, _quiet: Duration) -> bool {
        cannot_receive()
    }

    fn send_encoded(&mut self, dst: usize, datagrams: &[Datagram]) {
        transmit(self, unicast(dst), datagrams);
    }

    fn send_encoded_mcast(&mut self, datagrams: &[Datagram]) {
        transmit(self, DatagramDst::Multicast(self.link.group), datagrams);
    }
}

impl RepairPump for SimIo<SimProcess> {
    fn now(&mut self) -> Nanos {
        self.wire.now().as_nanos()
    }

    fn pump_one(&mut self, core: &mut EndpointCore, until: Option<Nanos>) {
        let socket = self.link.socket;
        match until {
            None => ingest(core, &self.wire.recv(socket)),
            Some(at) => {
                let now = self.wire.now().as_nanos();
                if at > now {
                    let wait = SimDuration::from_nanos(at - now);
                    if let Some(dg) = self.wire.recv_timeout(socket, wait) {
                        ingest(core, &dg);
                    }
                }
            }
        }
    }

    fn pump_ready(&mut self, core: &mut EndpointCore) -> bool {
        // A zero-duration receive: the round closer completes it at once
        // from the socket buffer when a datagram is queued, and otherwise
        // answers the zero timer without advancing this rank's clock.
        self.pump_drain(core, Duration::ZERO)
    }

    fn pump_drain(&mut self, core: &mut EndpointCore, quiet: Duration) -> bool {
        let quiet = SimDuration::from_nanos(quiet.as_nanos() as u64);
        match self.wire.recv_timeout(self.link.socket, quiet) {
            Some(dg) => {
                ingest(core, &dg);
                true
            }
            None => false,
        }
    }

    fn send_encoded(&mut self, dst: usize, datagrams: &[Datagram]) {
        transmit(self, unicast(dst), datagrams);
    }

    fn send_encoded_mcast(&mut self, datagrams: &[Datagram]) {
        transmit(self, DatagramDst::Multicast(self.link.group), datagrams);
    }
}

/// The wait a rank parked in [`SimProcess::recv_served`] is in the middle
/// of: [`WaitKind`] without the borrow (the requests of `AnyOf` are in
/// [`EndpointState::reqs`]).
#[derive(Clone, Copy)]
enum Parked {
    AnyOf,
    AnyPosted,
    /// [`Comm::progress_block`] after its one receive: a last engine pass
    /// and the call returns, whatever that pass found.
    Pass,
}

/// What a rank shares with the round closers that step it.
struct EndpointState {
    core: EndpointCore,
    parked: Parked,
    reqs: Vec<RecvReq>,
    /// The operation a rank parked in [`Backend::block_op`] lent the
    /// closer together with its wait.
    lent: Option<Box<dyn ClaimStep>>,
    /// How the closer's claim steps ended the lent operation; `None` while
    /// it runs, and when the claim of a finished wait is left to the owner.
    ended: Option<Result<(), RecvError>>,
    /// A slot per operation type lent before, reused by the next operation
    /// of the type: a lent operation is moved, not boxed.
    spare: Vec<Box<dyn ClaimStep>>,
}

impl EndpointState {
    fn park(&mut self, kind: WaitKind<'_>) {
        self.parked = match kind {
            WaitKind::AnyOf(reqs) => {
                self.reqs.clear();
                self.reqs.extend_from_slice(reqs);
                Parked::AnyOf
            }
            WaitKind::AnyPosted => Parked::AnyPosted,
        };
    }

    /// Move `op` into the closer's reach: into the spare slot of its type
    /// (`exchange` swaps with that one only), or a new slot the first time.
    fn lend(&mut self, op: &mut dyn ClaimStep) {
        let slot = match self.spare.iter_mut().position(|s| op.exchange(&mut **s)) {
            Some(i) => self.spare.swap_remove(i),
            None => {
                let mut slot = op.vacant();
                op.exchange(&mut *slot);
                slot
            }
        };
        self.lent = Some(slot);
    }

    /// Move the lent operation back into `op`, and say how the closer
    /// ended it, if it did.
    fn reclaim(&mut self, op: &mut dyn ClaimStep) -> Option<Result<(), RecvError>> {
        if let Some(mut slot) = self.lent.take() {
            op.exchange(&mut *slot);
            self.spare.push(slot);
        }
        self.ended.take()
    }

    /// Take turns of the parked wait for as long as that needs no receive:
    /// [`Step::Done`] when the wait is over, else how long the rank's next
    /// receive may take. The owner's thread and a closer's both come
    /// through here, so a wait behaves the same whoever takes its turns.
    fn turn<P: RepairPort>(&mut self, io: &mut P) -> Step {
        loop {
            let kind = match self.parked {
                Parked::AnyOf => WaitKind::AnyOf(&self.reqs),
                Parked::AnyPosted => WaitKind::AnyPosted,
                Parked::Pass => {
                    self.core.advance(io);
                    return Step::Done;
                }
            };
            let until = match self.core.poll_wait(io, &kind) {
                WaitPoll::Ready => return Step::Done,
                WaitPoll::Park(until) => until,
            };
            if let Parked::AnyPosted = self.parked {
                self.parked = Parked::Pass;
            }
            match until {
                None => return Step::Park(None),
                Some(at) => {
                    // A deadline the rank's clock has already passed needs
                    // no receive to fire: take the next turn at once.
                    let now = io.now();
                    if at > now {
                        return Step::Park(Some(SimDuration::from_nanos(at - now)));
                    }
                }
            }
        }
    }

    /// A closer's share of the parked wait: its turns, through `port`, and
    /// when the wait of a lent operation is over, the operation's claim step
    /// too — over [`Stepped`], so it makes the calls the owner's thread
    /// would have made — and the wait on the receives that step left it
    /// blocked on. [`Step::Done`] wakes the owner: its wait is over, or the
    /// lent operation ended.
    fn serve(&mut self, port: &mut RankPort<'_>, link: Link, multicast_capable: bool) -> Step {
        loop {
            let step = self.turn(&mut SimIo {
                wire: &mut *port,
                link,
            });
            if step != Step::Done {
                return step;
            }
            let Some(op) = &mut self.lent else {
                return step;
            };
            let claimed = op.claim(&mut crate::Endpoint(Stepped {
                core: &mut self.core,
                io: SimIo {
                    wire: &mut *port,
                    link,
                },
                multicast_capable,
            }));
            match claimed {
                Ok(next) if !next.is_empty() => {
                    self.reqs.clear();
                    self.reqs.extend_from_slice(next);
                    self.parked = Parked::AnyOf;
                }
                ended => {
                    self.ended = Some(ended.map(|_| ()));
                    return step;
                }
            }
        }
    }
}

/// One rank's endpoint, reachable from its own [`SimComm`] and — while the
/// rank is parked in a served wait — from the round closer.
struct Endpoint {
    link: Link,
    multicast_capable: bool,
    state: Mutex<EndpointState>,
}

impl Endpoint {
    fn lock(&self) -> MutexGuard<'_, EndpointState> {
        // A poisoned endpoint belongs to a run that is already aborting.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Served for Endpoint {
    fn step(&self, port: &mut RankPort<'_>, datagram: Option<Arc<mmpi_netsim::Datagram>>) -> Step {
        let mut state = self.lock();
        // Dropped once ingested: a claim step below may take the message
        // out of the inbox, and `Message::into_vec` copies a payload whose
        // datagram is still alive.
        if let Some(dg) = datagram {
            ingest(&mut state.core, &dg);
        }
        state.serve(port, self.link, self.multicast_capable)
    }
}

/// What a round closer runs a lent operation's claim step over: the
/// stepped rank's core and the closer's port, behind the one `Comm` glue
/// ([`crate::Endpoint`]), so every call is the one the owner's thread
/// makes and reaches the `World` as the request it would have posted
/// ([`RankPort`]), translated by the rank's view. Closing it does
/// nothing — the endpoint stays the rank's — and it cannot receive.
struct Stepped<'a, 'p> {
    core: &'a mut EndpointCore,
    io: SimIo<&'a mut RankPort<'p>>,
    multicast_capable: bool,
}

impl<'a, 'p> Backend for Stepped<'a, 'p> {
    type Pump = SimIo<&'a mut RankPort<'p>>;

    fn with<R>(&mut self, f: impl FnOnce(&mut EndpointCore, &mut Self::Pump) -> R) -> R {
        f(&mut *self.core, &mut self.io)
    }

    fn peek<R>(&self, f: impl FnOnce(&EndpointCore) -> R) -> R {
        f(&*self.core)
    }

    fn multicast_capable(&self) -> bool {
        self.multicast_capable
    }

    fn pass_time(&mut self, nanos: Nanos) -> Nanos {
        pass_time(&mut self.io, nanos)
    }

    fn tcp_ack_model(&mut self, dst: usize, count: u32) {
        tcp_acks(&mut *self.core, &mut self.io, dst, count);
    }

    fn close(&mut self) {}
}

/// The simulator [`Backend`]: the rank's process handle, and its endpoint
/// shared with the round closers that step it while it is parked.
pub struct SimBackend {
    io: SimIo<SimProcess>,
    endpoint: Arc<Endpoint>,
    /// `endpoint` again, as [`SimProcess::recv_served`] takes it.
    served: Arc<dyn Served>,
    stats_sink: Option<StatsSink>,
}

impl SimBackend {
    /// The first turns of the wait parked in the endpoint are taken here;
    /// once one needs a receive, the rank parks *served* with the endpoint
    /// unlocked (and `op`, if any, lent to the closer), and wakes either
    /// because a closer's step ended the wait or — the closer answered
    /// several ranks at once — with the receive's result to take the next
    /// turns itself. `Some` when the closer ran `op` to its end.
    fn park_served(&mut self, mut op: Option<&mut dyn ClaimStep>) -> Option<Result<(), RecvError>> {
        let mut state = self.endpoint.lock();
        while let Step::Park(timeout) = state.turn(&mut self.io) {
            if let Some(op) = op.as_deref_mut() {
                state.lend(op);
            }
            drop(state);
            let socket = self.io.link.socket;
            let woke = self.io.wire.recv_served(socket, timeout, &self.served);
            state = self.endpoint.lock();
            let ended = op.as_deref_mut().and_then(|op| state.reclaim(op));
            match woke {
                ServedRecv::Stepped => return ended,
                ServedRecv::Woken(Some(dg)) => ingest(&mut state.core, &dg),
                ServedRecv::Woken(None) => {}
            }
        }
        None
    }
}

impl Backend for SimBackend {
    type Pump = SimIo<SimProcess>;

    fn with<R>(&mut self, f: impl FnOnce(&mut EndpointCore, &mut Self::Pump) -> R) -> R {
        f(&mut self.endpoint.lock().core, &mut self.io)
    }

    fn peek<R>(&self, f: impl FnOnce(&EndpointCore) -> R) -> R {
        f(&self.endpoint.lock().core)
    }

    fn block(&mut self, kind: WaitKind<'_>) {
        self.endpoint.lock().park(kind);
        self.park_served(None);
    }

    /// The wait on the receives `op` is blocked on parks with `op` lent to
    /// the round closer, which runs `op`'s claim steps between the
    /// receives: the thread wakes once the operation is over, or with the
    /// claim still to take when the closer had to wake it (several ranks
    /// answered at once).
    fn block_op(&mut self, op: &mut dyn ClaimStep) -> Result<bool, RecvError> {
        self.endpoint.lock().park(WaitKind::AnyOf(op.pending()));
        match self.park_served(Some(op)) {
            Some(ended) => ended.map(|()| true),
            None => Ok(false),
        }
    }

    fn multicast_capable(&self) -> bool {
        self.endpoint.multicast_capable
    }

    fn pass_time(&mut self, nanos: Nanos) -> Nanos {
        pass_time(&mut self.io, nanos)
    }

    fn tcp_ack_model(&mut self, dst: usize, count: u32) {
        self.with(|core, io| tcp_acks(core, io, dst, count));
    }
}

impl Drop for SimBackend {
    /// Runs after the [`crate::Endpoint`]'s drain, so the flushed counters
    /// include it.
    fn drop(&mut self) {
        if let Some(sink) = &self.stats_sink {
            let stats = self.peek(EndpointCore::repair_stats);
            sink.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .merge(&stats);
        }
    }
}

/// A communicator bound to one simulated rank.
pub type SimComm = crate::Endpoint<SimBackend>;

impl SimComm {
    /// Wrap a rank's process handle: binds the port and joins the group.
    /// [`Comm::multicast_capable`] reads `true`; [`run_sim_world`] derives
    /// it from the fabric instead.
    pub fn new(proc: SimProcess, n: usize, cfg: SimCommConfig) -> Self {
        SimComm::open(proc, n, cfg, true)
    }

    fn open(mut proc: SimProcess, n: usize, cfg: SimCommConfig, multicast_capable: bool) -> Self {
        let socket = proc.bind(cfg.port);
        proc.join_group(socket, cfg.group);
        let link = Link {
            socket,
            port: cfg.port,
            group: cfg.group,
        };
        let endpoint = Arc::new(Endpoint {
            link,
            multicast_capable,
            state: Mutex::new(EndpointState {
                core: EndpointCore::new(cfg.context, proc.rank(), n, cfg.max_chunk, cfg.repair),
                parked: Parked::AnyPosted,
                reqs: Vec::new(),
                lent: None,
                ended: None,
                spare: Vec::new(),
            }),
        });
        crate::Endpoint(SimBackend {
            io: SimIo { wire: proc, link },
            served: Arc::clone(&endpoint) as Arc<dyn Served>,
            endpoint,
            stats_sink: None,
        })
    }

    /// Local virtual time (for measurement).
    pub fn now(&self) -> SimTime {
        self.0.io.wire.now()
    }

    /// Crash injection for failure tests: the endpoint stops
    /// participating immediately — no departure announcement, no drain
    /// on drop — exactly what a killed process looks like to survivors.
    pub fn simulate_crash(&mut self) {
        self.0.with(|core, _| core.abandon());
    }
}

/// Run an SPMD closure over a simulated cluster, one [`SimComm`] per rank.
///
/// Deterministic for fixed `(closure, cluster config, comm config)`.
pub fn run_sim_world<F, R>(
    cluster: &ClusterConfig,
    comm_cfg: &SimCommConfig,
    f: F,
) -> Result<RunReport<R>, SimError>
where
    F: Fn(SimComm) -> R + Sync,
    R: Send,
{
    run_world(cluster, comm_cfg, None, f)
}

/// [`run_sim_world`], with every rank flushing its repair counters into
/// `sink` when its endpoint drops.
fn run_world<F, R>(
    cluster: &ClusterConfig,
    comm_cfg: &SimCommConfig,
    sink: Option<&StatsSink>,
    f: F,
) -> Result<RunReport<R>, SimError>
where
    F: Fn(SimComm) -> R + Sync,
    R: Send,
{
    let n = cluster.n;
    // A unicast-only switch drops every multicast frame, so selectors
    // should know not to build multicast-shaped plans that only the
    // repair plane would ever deliver.
    let multicast_capable = !cluster.params.is_unicast_only();
    run_cluster(cluster, move |proc| {
        let mut comm = SimComm::open(proc, n, comm_cfg.clone(), multicast_capable);
        comm.0.stats_sink = sink.cloned();
        f(comm)
    })
}

/// Like [`run_sim_world`], additionally collecting a [`WorldStats`]:
/// the network's frame/drop/fault counters plus the summed repair-loop
/// counters of every rank. This is the entry point for loss-sweep
/// experiments — it answers both "what did the fabric do to us" and
/// "what did recovery cost".
pub fn run_sim_world_stats<F, R>(
    cluster: &ClusterConfig,
    comm_cfg: &SimCommConfig,
    f: F,
) -> Result<(RunReport<R>, WorldStats), SimError>
where
    F: Fn(SimComm) -> R + Sync,
    R: Send,
{
    let sink = StatsSink::default();
    let report = run_world(cluster, comm_cfg, Some(&sink), f)?;
    let stats = WorldStats {
        net: report.stats.clone(),
        repair: *sink.lock().unwrap_or_else(PoisonError::into_inner),
    };
    Ok((report, stats))
}
