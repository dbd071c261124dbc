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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mmpi_netsim::cluster::{run_cluster, ClusterConfig, RunReport};
use mmpi_netsim::ids::{DatagramDst, GroupId, HostId, SocketId};
use mmpi_netsim::process::SimProcess;
use mmpi_netsim::stats::NetStats;
use mmpi_netsim::time::SimDuration;
use mmpi_netsim::{SharedPayload, SimError, SimTime};
use mmpi_wire::{Bytes, Datagram, Message, MsgKind, RepairStats};

use crate::comm::{
    CancelSink, Comm, EndpointCore, RecvError, RecvReq, RepairConfig, RepairPump, SendReq,
    SendWindowFull, Tag,
};

/// Thread-safe accumulator the ranks of one run flush their
/// [`RepairStats`] into (each rank adds its totals when its endpoint
/// drops). Totals are order-independent sums, so the aggregate is as
/// deterministic as the per-rank counters.
#[derive(Debug, Default)]
pub struct RepairStatsSink {
    nacks_sent: AtomicU64,
    nacks_received: AtomicU64,
    retransmits_sent: AtomicU64,
    unanswered_nacks: AtomicU64,
    nacks_suppressed: AtomicU64,
    nacks_overheard: AtomicU64,
    repairs_suppressed: AtomicU64,
    unavailable_sent: AtomicU64,
    horizons_sent: AtomicU64,
    horizons_received: AtomicU64,
    acked_records_freed: AtomicU64,
    rtt_samples: AtomicU64,
    send_window_stalls: AtomicU64,
    heartbeats_sent: AtomicU64,
    suspicions: AtomicU64,
    failures_confirmed: AtomicU64,
    advrs_sent: AtomicU64,
    wants_sent: AtomicU64,
    pulls_answered: AtomicU64,
    duplicate_payloads_avoided: AtomicU64,
    /// High-water mark (merged by max, like [`RepairStats::merge`]):
    /// the epoch the furthest-along rank reached, not a sum.
    epoch: AtomicU64,
}

impl RepairStatsSink {
    /// Add one endpoint's counters.
    pub fn add(&self, s: &RepairStats) {
        self.nacks_sent.fetch_add(s.nacks_sent, Ordering::Relaxed);
        self.nacks_received
            .fetch_add(s.nacks_received, Ordering::Relaxed);
        self.retransmits_sent
            .fetch_add(s.retransmits_sent, Ordering::Relaxed);
        self.unanswered_nacks
            .fetch_add(s.unanswered_nacks, Ordering::Relaxed);
        self.nacks_suppressed
            .fetch_add(s.nacks_suppressed, Ordering::Relaxed);
        self.nacks_overheard
            .fetch_add(s.nacks_overheard, Ordering::Relaxed);
        self.repairs_suppressed
            .fetch_add(s.repairs_suppressed, Ordering::Relaxed);
        self.unavailable_sent
            .fetch_add(s.unavailable_sent, Ordering::Relaxed);
        self.horizons_sent
            .fetch_add(s.horizons_sent, Ordering::Relaxed);
        self.horizons_received
            .fetch_add(s.horizons_received, Ordering::Relaxed);
        self.acked_records_freed
            .fetch_add(s.acked_records_freed, Ordering::Relaxed);
        self.rtt_samples.fetch_add(s.rtt_samples, Ordering::Relaxed);
        self.send_window_stalls
            .fetch_add(s.send_window_stalls, Ordering::Relaxed);
        self.heartbeats_sent
            .fetch_add(s.heartbeats_sent, Ordering::Relaxed);
        self.suspicions.fetch_add(s.suspicions, Ordering::Relaxed);
        self.failures_confirmed
            .fetch_add(s.failures_confirmed, Ordering::Relaxed);
        self.advrs_sent.fetch_add(s.advrs_sent, Ordering::Relaxed);
        self.wants_sent.fetch_add(s.wants_sent, Ordering::Relaxed);
        self.pulls_answered
            .fetch_add(s.pulls_answered, Ordering::Relaxed);
        self.duplicate_payloads_avoided
            .fetch_add(s.duplicate_payloads_avoided, Ordering::Relaxed);
        self.epoch.fetch_max(s.epoch, Ordering::Relaxed);
    }

    /// Current totals.
    pub fn snapshot(&self) -> RepairStats {
        RepairStats {
            nacks_sent: self.nacks_sent.load(Ordering::Relaxed),
            nacks_received: self.nacks_received.load(Ordering::Relaxed),
            retransmits_sent: self.retransmits_sent.load(Ordering::Relaxed),
            unanswered_nacks: self.unanswered_nacks.load(Ordering::Relaxed),
            nacks_suppressed: self.nacks_suppressed.load(Ordering::Relaxed),
            nacks_overheard: self.nacks_overheard.load(Ordering::Relaxed),
            repairs_suppressed: self.repairs_suppressed.load(Ordering::Relaxed),
            unavailable_sent: self.unavailable_sent.load(Ordering::Relaxed),
            horizons_sent: self.horizons_sent.load(Ordering::Relaxed),
            horizons_received: self.horizons_received.load(Ordering::Relaxed),
            acked_records_freed: self.acked_records_freed.load(Ordering::Relaxed),
            rtt_samples: self.rtt_samples.load(Ordering::Relaxed),
            send_window_stalls: self.send_window_stalls.load(Ordering::Relaxed),
            heartbeats_sent: self.heartbeats_sent.load(Ordering::Relaxed),
            suspicions: self.suspicions.load(Ordering::Relaxed),
            failures_confirmed: self.failures_confirmed.load(Ordering::Relaxed),
            advrs_sent: self.advrs_sent.load(Ordering::Relaxed),
            wants_sent: self.wants_sent.load(Ordering::Relaxed),
            pulls_answered: self.pulls_answered.load(Ordering::Relaxed),
            duplicate_payloads_avoided: self.duplicate_payloads_avoided.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
        }
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

/// The simulator half of the endpoint: process handle, socket, and
/// addressing. Implements [`RepairPump`] over virtual time.
///
/// Every clock read goes through `proc.now()` — the rank's *local*
/// virtual clock, which runs ahead of the world's global `now` by the
/// software overheads the rank has been charged since it last blocked.
struct SimIo {
    proc: SimProcess,
    socket: SocketId,
    port: u16,
    group: GroupId,
}

/// A wire datagram as simulator payload segments (header view + payload
/// view — refcount bumps only).
fn segments(d: &Datagram) -> SharedPayload {
    SharedPayload::from_segments(vec![d.header().clone(), d.payload().clone()])
}

impl SimIo {
    fn ingest(core: &mut EndpointCore, dg: &mmpi_netsim::Datagram) {
        // Malformed datagrams are impossible on the simulated fabric, but
        // the inbox API reports them; keep UDP's ignore semantics.
        if let Ok(wire) = Datagram::from_segments(dg.payload.segments()) {
            let _ = core.inbox.ingest_wire(&wire, false);
        }
    }

    fn send_mcast(&mut self, dgs: &[Datagram]) {
        for d in dgs {
            self.proc.send(
                self.socket,
                DatagramDst::Multicast(self.group),
                self.port,
                segments(d),
            );
        }
    }
}

impl RepairPump for SimIo {
    fn now(&mut self) -> u64 {
        self.proc.now().as_nanos()
    }

    fn pump_one(&mut self, core: &mut EndpointCore, until: Option<u64>) {
        match until {
            None => {
                let dg = self.proc.recv(self.socket);
                Self::ingest(core, &dg);
            }
            Some(at) => {
                let now = self.proc.now().as_nanos();
                if at > now {
                    let wait = SimDuration::from_nanos(at - now);
                    if let Some(dg) = self.proc.recv_timeout(self.socket, wait) {
                        Self::ingest(core, &dg);
                    }
                }
            }
        }
    }

    fn pump_ready(&mut self, core: &mut EndpointCore) -> bool {
        // A zero-duration receive: the driver completes it immediately
        // from the socket buffer when a datagram is queued, and otherwise
        // answers the zero timer without advancing this rank's clock.
        match self
            .proc
            .recv_timeout(self.socket, SimDuration::from_nanos(0))
        {
            Some(dg) => {
                Self::ingest(core, &dg);
                true
            }
            None => false,
        }
    }

    fn pump_drain(&mut self, core: &mut EndpointCore, quiet: Duration) -> bool {
        let quiet = SimDuration::from_nanos(quiet.as_nanos() as u64);
        match self.proc.recv_timeout(self.socket, quiet) {
            Some(dg) => {
                Self::ingest(core, &dg);
                true
            }
            None => false,
        }
    }

    fn send_encoded(&mut self, dst: usize, datagrams: &[Datagram]) {
        for d in datagrams {
            self.proc.send(
                self.socket,
                DatagramDst::Unicast(HostId(dst as u32)),
                self.port,
                segments(d),
            );
        }
    }

    fn send_encoded_mcast(&mut self, datagrams: &[Datagram]) {
        self.send_mcast(datagrams);
    }
}

/// A communicator bound to one simulated rank.
pub struct SimComm {
    io: SimIo,
    core: EndpointCore,
    stats_sink: Option<Arc<RepairStatsSink>>,
    multicast_capable: bool,
}

impl SimComm {
    /// Wrap a rank's process handle: binds the port and joins the group.
    pub fn new(mut proc: SimProcess, n: usize, cfg: SimCommConfig) -> Self {
        let socket = proc.bind(cfg.port);
        proc.join_group(socket, cfg.group);
        let rank = proc.rank();
        let core = EndpointCore::new(cfg.context, rank, n, cfg.max_chunk, cfg.repair);
        SimComm {
            io: SimIo {
                proc,
                socket,
                port: cfg.port,
                group: cfg.group,
            },
            core,
            stats_sink: cfg.stats_sink,
            multicast_capable: cfg.multicast_capable.unwrap_or(true),
        }
    }

    /// Repair counters of this endpoint so far.
    pub fn repair_stats(&self) -> RepairStats {
        self.core.repair_stats()
    }

    /// Smoothed RTT estimate toward `peer`, if the adaptive control
    /// plane has collected samples for it.
    pub fn peer_rtt(&self, peer: usize) -> Option<Duration> {
        self.core.peer_rtt(peer)
    }

    /// The NACK solicitation timeout the repair loop currently applies
    /// toward `peer` (configured base, or RTT-derived when adaptive).
    pub fn peer_nack_timeout(&self, peer: usize) -> Option<Duration> {
        self.core.peer_nack_timeout(peer)
    }

    /// Posted-but-unclaimed receives (diagnostics).
    pub fn outstanding_recvs(&self) -> usize {
        self.core.outstanding_recvs()
    }

    /// Local virtual time (for measurement).
    pub fn now(&self) -> SimTime {
        self.io.proc.now()
    }

    /// The underlying process handle (advanced uses: extra sockets).
    pub fn process_mut(&mut self) -> &mut SimProcess {
        &mut self.io.proc
    }

    /// The drain grace this endpoint would apply on shutdown right now
    /// (exposed for the drain-on-leave regression tests).
    pub fn drain_grace(&self) -> Duration {
        self.core.drain_grace()
    }

    /// Crash injection for failure tests: the endpoint stops
    /// participating immediately — no departure announcement, no drain
    /// on drop — exactly what a killed process looks like to survivors.
    pub fn simulate_crash(&mut self) {
        self.core.abandon();
    }
}

impl Drop for SimComm {
    fn drop(&mut self) {
        // Drain: a peer may still be missing our *final* message, so keep
        // answering NACKs until the link has been quiet for the grace
        // period. Skipped while unwinding — the driver is tearing the run
        // down and every blocking call would re-panic.
        if !std::thread::panicking() {
            self.core.drain(&mut self.io);
        }
        if let Some(sink) = &self.stats_sink {
            sink.add(&self.core.repair_stats());
        }
    }
}

impl Comm for SimComm {
    fn rank(&self) -> usize {
        self.core.rank()
    }

    fn multicast_capable(&self) -> bool {
        self.multicast_capable
    }

    fn size(&self) -> usize {
        self.core.size()
    }

    fn context(&self) -> u32 {
        self.core.context()
    }

    fn send_kind(&mut self, dst: usize, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        self.core
            .send_message(&mut self.io, dst, tag, kind, payload)
    }

    fn mcast_kind(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        self.core.mcast_message(&mut self.io, tag, kind, payload)
    }

    fn mcast_resend(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes, seq: u64) {
        self.core
            .mcast_resend_message(&mut self.io, tag, kind, payload, seq);
    }

    fn post_recv(&mut self, src: Option<usize>, tag: Tag) -> RecvReq {
        self.core.post_recv(&mut self.io, src, tag)
    }

    fn progress(&mut self) {
        self.core.progress(&mut self.io);
    }

    fn progress_block(&mut self) {
        self.core.progress_block(&mut self.io);
    }

    fn test(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        self.core.test_req(&mut self.io, req)
    }

    fn test_claimed(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        self.core.test_claimed(req)
    }

    fn wait(&mut self, req: RecvReq) -> Result<Message, RecvError> {
        self.core.wait_req(&mut self.io, req)
    }

    fn wait_deadline(
        &mut self,
        req: RecvReq,
        timeout: Duration,
    ) -> Result<Option<Message>, RecvError> {
        self.core.wait_req_deadline(&mut self.io, req, timeout)
    }

    fn wait_any(&mut self, reqs: &[RecvReq]) -> Result<(usize, Message), RecvError> {
        self.core.wait_any_req(&mut self.io, reqs)
    }

    fn wait_ready(&mut self, reqs: &[RecvReq]) {
        self.core.wait_ready(&mut self.io, reqs);
    }

    fn cancel_recv(&mut self, req: RecvReq) {
        self.core.cancel_req(req);
    }

    fn cancel_sink(&self) -> CancelSink {
        self.core.cancel_sink()
    }

    fn try_post_send(
        &mut self,
        dst: usize,
        tag: Tag,
        payload: &Bytes,
    ) -> Result<SendReq, SendWindowFull> {
        self.core
            .try_send_message(&mut self.io, dst, tag, payload)
            .map(SendReq::completed)
    }

    fn try_post_mcast(&mut self, tag: Tag, payload: &Bytes) -> Result<SendReq, SendWindowFull> {
        self.core
            .try_mcast_message(&mut self.io, tag, payload)
            .map(SendReq::completed)
    }

    fn compute(&mut self, d: Duration) {
        // A busy rank is deaf, but it must not go mute: with membership
        // armed, slice the advance at beacon boundaries and emit the
        // heartbeats that fall due mid-slice (the job a real
        // deployment's progress thread does), so peers never read a
        // long compute phase as death. Without membership this folds to
        // the plain single clock advance.
        let mut remaining = d.as_nanos() as u64;
        while remaining > 0 {
            let step = match self.core.next_heartbeat_due() {
                Some(hb_at) => {
                    let now = self.io.now();
                    remaining.min(hb_at.saturating_sub(now).max(1))
                }
                None => remaining,
            };
            self.io.proc.compute(SimDuration::from_nanos(step));
            remaining -= step;
            self.core.beacon_tick(&mut self.io);
        }
    }

    fn failed_peers(&self) -> Vec<usize> {
        self.core.failed_peers()
    }

    fn departed_peers(&self) -> Vec<usize> {
        self.core.departed_peers()
    }

    fn epoch(&self) -> u32 {
        self.core.epoch()
    }

    fn leave(&mut self) {
        self.core.leave(&mut self.io);
    }

    fn rebase_epoch(&mut self, epoch: u32) {
        self.core.rebase_epoch(epoch);
    }

    fn declare_failed(&mut self, rank: usize) {
        self.core.force_fail(rank);
    }

    fn tcp_ack_model(&mut self, dst: usize, count: u32) {
        assert!(dst < self.core.size(), "rank {dst} out of range");
        for _ in 0..count {
            let seq = self.core.fresh_seq();
            let dgs = self.core.encode(
                crate::comm::FIRE_AND_FORGET_TAG,
                MsgKind::Ack,
                &Bytes::new(),
                seq,
            );
            for d in &dgs {
                self.io.proc.send_kernel(
                    self.io.socket,
                    DatagramDst::Unicast(HostId(dst as u32)),
                    self.io.port,
                    segments(d),
                );
            }
        }
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
