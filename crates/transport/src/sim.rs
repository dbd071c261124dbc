//! [`Comm`] over the deterministic network simulator.
//!
//! [`SimComm`] wraps a [`SimProcess`] (one rank's handle into the
//! co-simulation) and speaks the `mmpi-wire` format over simulated UDP.
//! [`run_sim_world`] is the entry point the experiment harness and the
//! benches use: it runs an SPMD closure over a fully-configured simulated
//! cluster where every rank has already bound its socket and joined the
//! communicator's multicast group.
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
//! else). [`SimComm`] therefore does not receive in that loop itself: it
//! parks in [`SimProcess::recv_served`] and leaves the endpoint behind as
//! a [`Served`], so the thread that closes the round takes the turns and
//! the rank's own thread wakes once, when the wait is over
//! (`docs/SIMULATOR.md`, "Served waits"). That is why the endpoint sits in
//! an `Arc<Mutex<_>>`. **Lock order:** a round closer takes the simulation
//! lock, then the endpoint of a rank parked in `recv_served`; the owner
//! releases its endpoint before it parks there. The owner does hold the
//! endpoint across its other requests (sends, the drain's and the send
//! window's plain receives), which is safe because a closer only ever
//! touches the endpoint of a rank parked *served*.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use mmpi_netsim::cluster::{run_cluster, ClusterConfig, RankPort, RunReport};
use mmpi_netsim::ids::{DatagramDst, GroupId, HostId, SocketId};
use mmpi_netsim::process::{Served, ServedRecv, SimProcess, Step};
use mmpi_netsim::stats::NetStats;
use mmpi_netsim::time::SimDuration;
use mmpi_netsim::{SharedPayload, SimError, SimTime};
use mmpi_wire::{Bytes, Datagram, Message, MsgKind, RepairStats};

use crate::pump::deadline_after;
use crate::{
    CancelSink, Comm, EndpointCore, Nanos, RecvError, RecvReq, RepairConfig, RepairPort,
    RepairPump, SendReq, SendWindowFull, Tag, WaitKind, WaitPoll,
};

/// Thread-safe accumulator the ranks of one run flush their
/// [`RepairStats`] into (each rank adds its totals when its endpoint
/// drops). Totals are order-independent sums, so the aggregate is as
/// deterministic as the per-rank counters.
#[derive(Debug, Default)]
pub struct RepairStatsSink(Mutex<RepairStats>);

impl RepairStatsSink {
    fn totals(&self) -> MutexGuard<'_, RepairStats> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add one endpoint's counters (sums; `epoch` is a high-water mark,
    /// see [`RepairStats::merge`]).
    pub fn add(&self, s: &RepairStats) {
        self.totals().merge(s);
    }

    /// Current totals.
    pub fn snapshot(&self) -> RepairStats {
        *self.totals()
    }
}

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
    /// Where ranks flush their repair counters on drop (see
    /// [`run_sim_world_stats`], which wires this automatically).
    pub stats_sink: Option<Arc<RepairStatsSink>>,
    /// What [`Comm::multicast_capable`] reports. `None` (default) means
    /// "derive from the fabric": [`run_sim_world`] fills it from
    /// [`mmpi_netsim::params::NetParams::is_unicast_only`], and a bare
    /// [`SimComm::new`] treats it as `true`. Set `Some(false)` to force
    /// algorithm selectors onto gossip-shaped plans regardless of the
    /// fabric.
    pub multicast_capable: Option<bool>,
}

impl Default for SimCommConfig {
    fn default() -> Self {
        SimCommConfig {
            port: 5000,
            group: GroupId(1),
            context: 0,
            max_chunk: mmpi_wire::DEFAULT_MAX_CHUNK,
            repair: None,
            stats_sink: None,
            multicast_capable: None,
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

/// A rank's local clock and send path: its own [`SimProcess`], or the
/// [`RankPort`] of a round closer stepping it.
///
/// Every clock read is the rank's *local* virtual clock, which runs ahead
/// of the world's global `now` by the software overheads the rank has been
/// charged since it last blocked.
trait Wire {
    fn now(&self) -> SimTime;
    fn send(&mut self, socket: SocketId, dst: DatagramDst, port: u16, payload: SharedPayload);
}

impl Wire for SimProcess {
    fn now(&self) -> SimTime {
        SimProcess::now(self)
    }
    fn send(&mut self, socket: SocketId, dst: DatagramDst, port: u16, payload: SharedPayload) {
        SimProcess::send(self, socket, dst, port, payload);
    }
}

impl Wire for RankPort<'_> {
    fn now(&self) -> SimTime {
        RankPort::now(self)
    }
    fn send(&mut self, socket: SocketId, dst: DatagramDst, port: u16, payload: SharedPayload) {
        RankPort::send(self, socket, dst, port, payload);
    }
}

/// The simulator half of the endpoint, borrowed for one call: a [`Wire`]
/// and the addressing. Over the rank's own process handle it is the full
/// [`RepairPump`]; over a closer's [`RankPort`] only the [`RepairPort`].
struct SimIo<'a, W> {
    wire: &'a mut W,
    link: Link,
}

/// A wire datagram as simulator payload segments (header view + payload
/// view — refcount bumps only).
fn segments(d: &Datagram) -> SharedPayload {
    SharedPayload::from_segments(vec![d.header().clone(), d.payload().clone()])
}

fn ingest(core: &mut EndpointCore, dg: &mmpi_netsim::Datagram) {
    // Malformed datagrams are impossible on the simulated fabric, but
    // the inbox API reports them; keep UDP's ignore semantics.
    if let Ok(wire) = Datagram::from_segments(dg.payload.segments()) {
        let _ = core.inbox.ingest_wire(&wire, false);
    }
}

impl<W: Wire> SimIo<'_, W> {
    fn now_nanos(&self) -> Nanos {
        self.wire.now().as_nanos()
    }

    fn transmit(&mut self, dst: DatagramDst, dgs: &[Datagram]) {
        for d in dgs {
            self.wire
                .send(self.link.socket, dst, self.link.port, segments(d));
        }
    }

    fn unicast(&mut self, dst: usize, dgs: &[Datagram]) {
        self.transmit(DatagramDst::Unicast(HostId(dst as u32)), dgs);
    }

    fn mcast(&mut self, dgs: &[Datagram]) {
        self.transmit(DatagramDst::Multicast(self.link.group), dgs);
    }
}

impl RepairPort for SimIo<'_, RankPort<'_>> {
    fn now(&mut self) -> Nanos {
        self.now_nanos()
    }

    fn send_encoded(&mut self, dst: usize, datagrams: &[Datagram]) {
        self.unicast(dst, datagrams);
    }

    fn send_encoded_mcast(&mut self, datagrams: &[Datagram]) {
        self.mcast(datagrams);
    }
}

impl RepairPump for SimIo<'_, SimProcess> {
    fn now(&mut self) -> Nanos {
        self.now_nanos()
    }

    fn pump_one(&mut self, core: &mut EndpointCore, until: Option<Nanos>) {
        let socket = self.link.socket;
        match until {
            None => ingest(core, &self.wire.recv(socket)),
            Some(at) => {
                let now = self.now_nanos();
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
        self.unicast(dst, datagrams);
    }

    fn send_encoded_mcast(&mut self, datagrams: &[Datagram]) {
        self.mcast(datagrams);
    }
}

/// The wait a rank parked in [`SimProcess::recv_served`] is in the middle
/// of: [`WaitKind`] without the borrow (the requests of `AnyOf` are in
/// [`EndpointState::reqs`]).
#[derive(Clone, Copy)]
enum Parked {
    AnyOf,
    Until(RecvReq, Nanos),
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
}

impl EndpointState {
    fn park(&mut self, kind: WaitKind<'_>) {
        self.parked = match kind {
            WaitKind::AnyOf(reqs) => {
                self.reqs.clear();
                self.reqs.extend_from_slice(reqs);
                Parked::AnyOf
            }
            WaitKind::Until(req, deadline) => Parked::Until(req, deadline),
            WaitKind::AnyPosted => Parked::AnyPosted,
        };
    }

    /// Take turns of the parked wait for as long as that needs no receive:
    /// [`Step::Done`] when the wait is over, else how long the rank's next
    /// receive may take. The owner's thread and a closer's both come
    /// through here, so a wait behaves the same whoever takes its turns.
    fn turn<P: RepairPort>(&mut self, io: &mut P) -> Step {
        loop {
            let kind = match self.parked {
                Parked::AnyOf => WaitKind::AnyOf(&self.reqs),
                Parked::Until(req, deadline) => WaitKind::Until(req, deadline),
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
}

/// One rank's endpoint, reachable from its own [`SimComm`] and — while the
/// rank is parked in a served wait — from the round closer.
struct Endpoint {
    link: Link,
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
        if let Some(dg) = &datagram {
            ingest(&mut state.core, dg);
        }
        let link = self.link;
        state.turn(&mut SimIo { wire: port, link })
    }
}

/// A communicator bound to one simulated rank.
pub struct SimComm {
    proc: SimProcess,
    endpoint: Arc<Endpoint>,
    /// `endpoint` again, as [`SimProcess::recv_served`] takes it.
    served: Arc<dyn Served>,
    stats_sink: Option<Arc<RepairStatsSink>>,
    multicast_capable: bool,
}

impl SimComm {
    /// Wrap a rank's process handle: binds the port and joins the group.
    pub fn new(mut proc: SimProcess, n: usize, cfg: SimCommConfig) -> Self {
        let socket = proc.bind(cfg.port);
        proc.join_group(socket, cfg.group);
        let rank = proc.rank();
        let endpoint = Arc::new(Endpoint {
            link: Link {
                socket,
                port: cfg.port,
                group: cfg.group,
            },
            state: Mutex::new(EndpointState {
                core: EndpointCore::new(cfg.context, rank, n, cfg.max_chunk, cfg.repair),
                parked: Parked::AnyPosted,
                reqs: Vec::new(),
            }),
        });
        SimComm {
            proc,
            served: Arc::clone(&endpoint) as Arc<dyn Served>,
            endpoint,
            stats_sink: cfg.stats_sink,
            multicast_capable: cfg.multicast_capable.unwrap_or(true),
        }
    }

    /// Run `f` on the endpoint with this rank's own pump.
    fn with<R>(&mut self, f: impl FnOnce(&mut EndpointCore, &mut SimIo<'_, SimProcess>) -> R) -> R {
        let link = self.endpoint.link;
        let mut state = self.endpoint.lock();
        let wire = &mut self.proc;
        f(&mut state.core, &mut SimIo { wire, link })
    }

    /// The endpoint, for calls that touch neither clock nor socket.
    fn state(&self) -> MutexGuard<'_, EndpointState> {
        self.endpoint.lock()
    }

    /// Block until `kind` is satisfied and hand the endpoint back, locked,
    /// for the caller to claim from. The first turns are taken here; once
    /// one needs a receive, the rank parks *served* with the endpoint
    /// unlocked, and wakes either because a closer's turn ended the wait
    /// or — the closer answered several ranks at once — with the receive's
    /// result to take the next turns itself.
    fn wait_served(&mut self, kind: WaitKind<'_>) -> MutexGuard<'_, EndpointState> {
        let endpoint = &self.endpoint;
        let link = endpoint.link;
        let mut state = endpoint.lock();
        state.park(kind);
        loop {
            let wire = &mut self.proc;
            let Step::Park(timeout) = state.turn(&mut SimIo { wire, link }) else {
                return state;
            };
            drop(state);
            let woke = self.proc.recv_served(link.socket, timeout, &self.served);
            state = endpoint.lock();
            match woke {
                ServedRecv::Stepped => return state,
                ServedRecv::Woken(Some(dg)) => ingest(&mut state.core, &dg),
                ServedRecv::Woken(None) => {}
            }
        }
    }

    /// Repair counters of this endpoint so far.
    pub fn repair_stats(&self) -> RepairStats {
        self.state().core.repair_stats()
    }

    /// Smoothed RTT estimate toward `peer`, if the adaptive control
    /// plane has collected samples for it.
    pub fn peer_rtt(&self, peer: usize) -> Option<Duration> {
        self.state().core.peer_rtt(peer)
    }

    /// The NACK solicitation timeout the repair loop currently applies
    /// toward `peer` (configured base, or RTT-derived when adaptive).
    pub fn peer_nack_timeout(&self, peer: usize) -> Option<Duration> {
        self.state().core.peer_nack_timeout(peer)
    }

    /// Posted-but-unclaimed receives (diagnostics).
    pub fn outstanding_recvs(&self) -> usize {
        self.state().core.outstanding_recvs()
    }

    /// Local virtual time (for measurement).
    pub fn now(&self) -> SimTime {
        self.proc.now()
    }

    /// The drain grace this endpoint would apply on shutdown right now
    /// (exposed for the drain-on-leave regression tests).
    pub fn drain_grace(&self) -> Duration {
        self.state().core.drain_grace()
    }

    /// Crash injection for failure tests: the endpoint stops
    /// participating immediately — no departure announcement, no drain
    /// on drop — exactly what a killed process looks like to survivors.
    pub fn simulate_crash(&mut self) {
        self.state().core.abandon();
    }
}

impl Drop for SimComm {
    fn drop(&mut self) {
        // Drain: a peer may still be missing our *final* message, so keep
        // answering NACKs until the link has been quiet for the grace
        // period. Skipped while unwinding — the run is being torn down and
        // every blocking call would re-panic.
        if !std::thread::panicking() {
            self.with(|core, io| core.drain(io));
        }
        if let Some(sink) = &self.stats_sink {
            sink.add(&self.repair_stats());
        }
    }
}

impl Comm for SimComm {
    fn rank(&self) -> usize {
        self.state().core.rank()
    }

    fn multicast_capable(&self) -> bool {
        self.multicast_capable
    }

    fn size(&self) -> usize {
        self.state().core.size()
    }

    fn context(&self) -> u32 {
        self.state().core.context()
    }

    fn send_kind(&mut self, dst: usize, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        self.with(|core, io| core.send_message(io, dst, tag, kind, payload))
    }

    fn mcast_kind(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        self.with(|core, io| core.mcast_message(io, tag, kind, payload))
    }

    fn mcast_resend(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes, seq: u64) {
        self.with(|core, io| core.mcast_resend_message(io, tag, kind, payload, seq));
    }

    fn post_recv(&mut self, src: Option<usize>, tag: Tag) -> RecvReq {
        self.with(|core, io| core.post_recv(io, src, tag))
    }

    fn progress(&mut self) {
        self.with(|core, io| core.progress(io));
    }

    fn progress_block(&mut self) {
        drop(self.wait_served(WaitKind::AnyPosted));
    }

    fn test(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        self.with(|core, io| core.test_req(io, req))
    }

    fn test_claimed(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        self.state().core.test_claimed(req)
    }

    fn wait(&mut self, req: RecvReq) -> Result<Message, RecvError> {
        self.wait_any(std::slice::from_ref(&req)).map(|(_, m)| m)
    }

    fn wait_deadline(
        &mut self,
        req: RecvReq,
        timeout: Duration,
    ) -> Result<Option<Message>, RecvError> {
        self.state().core.expect_posted(req);
        let deadline = deadline_after(self.proc.now().as_nanos(), timeout);
        self.wait_served(WaitKind::Until(req, deadline))
            .core
            .claim_by_deadline(req)
    }

    fn wait_any(&mut self, reqs: &[RecvReq]) -> Result<(usize, Message), RecvError> {
        self.state().core.expect_waitable(reqs);
        loop {
            let mut state = self.wait_served(WaitKind::AnyOf(reqs));
            if let Some(claimed) = state.core.claim_first(reqs) {
                return claimed;
            }
        }
    }

    fn wait_ready(&mut self, reqs: &[RecvReq]) {
        if reqs.is_empty() {
            return;
        }
        let state = self.state();
        reqs.iter().for_each(|r| state.core.expect_posted(*r));
        drop(state);
        drop(self.wait_served(WaitKind::AnyOf(reqs)));
    }

    fn cancel_recv(&mut self, req: RecvReq) {
        self.state().core.cancel_req(req);
    }

    fn cancel_sink(&self) -> CancelSink {
        self.state().core.cancel_sink()
    }

    fn try_post_send(
        &mut self,
        dst: usize,
        tag: Tag,
        payload: &Bytes,
    ) -> Result<SendReq, SendWindowFull> {
        self.with(|core, io| core.try_send_message(io, dst, tag, payload))
            .map(SendReq::completed)
    }

    fn try_post_mcast(&mut self, tag: Tag, payload: &Bytes) -> Result<SendReq, SendWindowFull> {
        self.with(|core, io| core.try_mcast_message(io, tag, payload))
            .map(SendReq::completed)
    }

    fn compute(&mut self, d: Duration) {
        // A busy rank is deaf, but it must not go mute: with membership
        // armed, slice the advance at beacon boundaries and emit the
        // heartbeats that fall due mid-slice (the job a real
        // deployment's progress thread does), so peers never read a
        // long compute phase as death. Without membership this folds to
        // the plain single clock advance.
        self.with(|core, io| {
            let mut remaining = d.as_nanos() as u64;
            while remaining > 0 {
                let step = match core.next_heartbeat_due() {
                    Some(hb_at) => remaining.min(hb_at.saturating_sub(io.now_nanos()).max(1)),
                    None => remaining,
                };
                io.wire.compute(SimDuration::from_nanos(step));
                remaining -= step;
                core.beacon_tick(io);
            }
        });
    }

    fn failed_peers(&self) -> Vec<usize> {
        self.state().core.failed_peers()
    }

    fn departed_peers(&self) -> Vec<usize> {
        self.state().core.departed_peers()
    }

    fn epoch(&self) -> u32 {
        self.state().core.epoch()
    }

    fn leave(&mut self) {
        self.with(|core, io| core.leave(io));
    }

    fn rebase_epoch(&mut self, epoch: u32) {
        self.state().core.rebase_epoch(epoch);
    }

    fn declare_failed(&mut self, rank: usize) {
        self.state().core.force_fail(rank);
    }

    fn tcp_ack_model(&mut self, dst: usize, count: u32) {
        self.with(|core, io| {
            assert!(dst < core.size(), "rank {dst} out of range");
            for _ in 0..count {
                let seq = core.fresh_seq();
                let dgs = core.encode(crate::FIRE_AND_FORGET_TAG, MsgKind::Ack, &Bytes::new(), seq);
                for d in &dgs {
                    io.wire.send_kernel(
                        io.link.socket,
                        DatagramDst::Unicast(HostId(dst as u32)),
                        io.link.port,
                        segments(d),
                    );
                }
            }
        });
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
    let n = cluster.n;
    // Resolve "derive from the fabric" here, where we can see the
    // cluster's NetParams: a unicast-only switch drops every multicast
    // frame, so selectors should know not to build multicast-shaped
    // plans that only the repair plane would ever deliver.
    let mut comm_cfg = comm_cfg.clone();
    if comm_cfg.multicast_capable.is_none() {
        comm_cfg.multicast_capable = Some(!cluster.params.is_unicast_only());
    }
    run_cluster(cluster, move |proc| {
        let comm = SimComm::new(proc, n, comm_cfg.clone());
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
    // Reuse a caller-supplied sink rather than silently replacing it
    // (the returned totals then include whatever that sink had already
    // accumulated — e.g. across several runs sharing one sink).
    let sink = match &comm_cfg.stats_sink {
        Some(s) => Arc::clone(s),
        None => Arc::new(RepairStatsSink::default()),
    };
    let mut cfg = comm_cfg.clone();
    cfg.stats_sink = Some(Arc::clone(&sink));
    let report = run_sim_world(cluster, &cfg, f)?;
    let stats = WorldStats {
        net: report.stats.clone(),
        repair: sink.snapshot(),
    };
    Ok((report, stats))
}
