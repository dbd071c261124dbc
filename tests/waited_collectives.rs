//! A waited collective parks its rank once. `SimComm` overrides
//! `Comm::wait_op`: the rank lends its request machine to the round closer
//! with the park, and the closer takes the machine's claim steps between
//! the receives (`docs/SIMULATOR.md`, "Served waits"). This file is the
//! oracle that the override changes who takes the steps and nothing else:
//! every world runs twice — through `SimComm` itself, and through
//! [`DefaultLoop`], a pass-through `Comm` that keeps the trait's default
//! `wait_op` loop (claim, else `wait_ready` on the one posted receive) —
//! and both runs must agree on every local clock, every output, the
//! network and repair counters and the number of `World` events. A
//! sub-communicator (a `GroupComm`, a shrunk communicator) is the same
//! endpoint under a view, so its collectives park once too.

use std::time::Duration;

use mcast_mpi::core::{BcastAlgorithm, CollRequest, Communicator, GroupComm};
use mcast_mpi::netsim::cluster::{ClusterConfig, HandoffStats, RunReport};
use mcast_mpi::netsim::params::NetParams;
use mcast_mpi::netsim::SimDuration;
use mcast_mpi::transport::{
    run_sim_world_stats, CancelSink, Comm, RecvError, RecvReq, RepairConfig, SimCommConfig, Tag,
    WorldStats,
};
use mcast_mpi::wire::{Bytes, Message, MsgKind};

/// Every call forwarded to `C`, except `wait_op`: this wrapper keeps the
/// trait's default loop, as every `Comm` but `SimComm` does.
struct DefaultLoop<C>(C);

impl<C: Comm> Comm for DefaultLoop<C> {
    fn rank(&self) -> usize {
        self.0.rank()
    }
    fn size(&self) -> usize {
        self.0.size()
    }
    fn context(&self) -> u32 {
        self.0.context()
    }
    fn multicast_capable(&self) -> bool {
        self.0.multicast_capable()
    }
    fn send_kind(&mut self, dst: usize, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        self.0.send_kind(dst, tag, kind, payload)
    }
    fn mcast_kind(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        self.0.mcast_kind(tag, kind, payload)
    }
    fn mcast_resend(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes, seq: u64) {
        self.0.mcast_resend(tag, kind, payload, seq);
    }
    fn post_recv(&mut self, src: Option<usize>, tag: Tag) -> RecvReq {
        self.0.post_recv(src, tag)
    }
    fn progress(&mut self) {
        self.0.progress();
    }
    fn progress_block(&mut self) {
        self.0.progress_block();
    }
    fn wait_ready(&mut self, reqs: &[RecvReq]) {
        self.0.wait_ready(reqs);
    }
    fn test_claimed(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        self.0.test_claimed(req)
    }
    fn wait_deadline(
        &mut self,
        req: RecvReq,
        timeout: Duration,
    ) -> Result<Option<Message>, RecvError> {
        self.0.wait_deadline(req, timeout)
    }
    fn cancel_recv(&mut self, req: RecvReq) {
        self.0.cancel_recv(req);
    }
    fn cancel_sink(&self) -> CancelSink {
        self.0.cancel_sink()
    }
    fn compute(&mut self, d: Duration) {
        self.0.compute(d);
    }
    fn tcp_ack_model(&mut self, dst: usize, count: u32) {
        self.0.tcp_ack_model(dst, count);
    }
    fn failed_peers(&self) -> Vec<usize> {
        self.0.failed_peers()
    }
    fn departed_peers(&self) -> Vec<usize> {
        self.0.departed_peers()
    }
    fn epoch(&self) -> u32 {
        self.0.epoch()
    }
    fn leave(&mut self) {
        self.0.leave();
    }
    fn rebase_epoch(&mut self, epoch: u32) {
        self.0.rebase_epoch(epoch);
    }
    fn declare_failed(&mut self, rank: usize) {
        self.0.declare_failed(rank);
    }
}

/// What every rank runs; the digest covers every byte it ended up with.
#[derive(Clone, Copy)]
enum Program {
    /// `n` bcast / barrier / allgather cycles, `size` bytes of bcast.
    Cycles { n: usize, size: usize },
    /// `n` broadcasts of 1 B to 9 KB, two in a row from each root.
    Bcasts { n: usize },
    /// `n` waited `iallgather`s, each followed by a barrier.
    Iallgathers { n: usize },
}

fn digest(acc: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(acc, |h, &b| h.wrapping_mul(31).wrapping_add(u64::from(b)))
}

fn program<C: Comm>(comm: &mut Communicator<C>, p: Program) -> u64 {
    let (n, rank) = (comm.size(), comm.rank());
    let mut acc = 0;
    match p {
        Program::Cycles { n: cycles, size } => {
            for i in 0..cycles {
                let root = (i * 7) % n;
                let fill = if rank == root { 0xA5 ^ i as u8 } else { 0 };
                let mut buf = vec![fill; size - size / 4 * (i % 3)];
                comm.bcast(root, &mut buf).unwrap();
                comm.barrier().unwrap();
                let blocks = comm.allgather(&[rank as u8 ^ i as u8; 200]).unwrap();
                acc = digest(digest(acc, &buf), &blocks.concat());
            }
        }
        Program::Bcasts { n: rounds } => {
            for i in 0..rounds {
                let root = (i / 2) % n;
                let len = [9000, 1, 5000, 1000][i % 4];
                let fill = if rank == root { 0x3C ^ i as u8 } else { 0 };
                let mut buf = vec![fill; len];
                comm.bcast(root, &mut buf).unwrap();
                acc = digest(acc, &buf);
            }
        }
        Program::Iallgathers { n: rounds } => {
            for i in 0..rounds {
                let req = comm.iallgather(&[rank as u8 ^ i as u8; 300]);
                let blocks = req.wait(comm.transport_mut()).unwrap();
                comm.barrier().unwrap();
                acc = digest(acc, &blocks.concat());
            }
        }
    }
    acc
}

/// Which communicator the ranks run the program on.
#[derive(Clone, Copy)]
enum Over {
    /// The world endpoint.
    World,
    /// `GroupComm::split` by rank parity: two concurrent groups.
    Parity,
    /// The survivors, after each declared `victim` failed and shrank;
    /// `victim` crashes at once.
    Shrunk { victim: usize },
}

/// Which algorithms the communicator runs.
#[derive(Clone, Copy)]
enum Algos {
    /// The paper's barrier and multicast allgather, with this broadcast.
    Bcast(BcastAlgorithm),
    /// `Communicator::new_mpich`: MPICH's binomial broadcast and barrier,
    /// and the gather + broadcast allgather.
    Mpich,
}

fn communicator<C: Comm>(c: C, algos: Algos) -> Communicator<C> {
    match algos {
        Algos::Bcast(bcast) => Communicator::new(c).with_bcast(bcast),
        Algos::Mpich => Communicator::new_mpich(c),
    }
}

/// Run `p` over `c`, through [`DefaultLoop`] when `default_loop`.
fn on<C: Comm>(c: C, algos: Algos, p: Program, default_loop: bool) -> u64 {
    if default_loop {
        program(&mut communicator(DefaultLoop(c), algos), p)
    } else {
        program(&mut communicator(c, algos), p)
    }
}

fn run(
    cluster: &ClusterConfig,
    repair: Option<RepairConfig>,
    algos: Algos,
    p: Program,
    over: Over,
    default_loop: bool,
) -> (RunReport<u64>, WorldStats) {
    let comm_cfg = SimCommConfig {
        repair,
        ..SimCommConfig::default()
    };
    run_sim_world_stats(cluster, &comm_cfg, |mut c| match over {
        Over::World => on(c, algos, p, default_loop),
        Over::Parity => {
            let colors: Vec<u32> = (0..c.size() as u32).map(|r| r % 2).collect();
            on(GroupComm::split(&mut c, &colors, 3), algos, p, default_loop)
        }
        Over::Shrunk { victim } => {
            if c.rank() == victim {
                c.simulate_crash();
                return 0;
            }
            c.declare_failed(victim);
            let survivors = Communicator::new(c).shrink().unwrap();
            on(survivors.into_transport(), algos, p, default_loop)
        }
    })
    .expect("every collective completes")
}

/// Run the world both ways and hold them equal; the hand-off counts of
/// the override and of the default loop, and the override's counters.
fn both_ways(
    cluster: &ClusterConfig,
    repair: Option<RepairConfig>,
    algos: Algos,
    p: Program,
) -> (HandoffStats, HandoffStats, WorldStats) {
    both_ways_report(cluster, repair, algos, p, Over::World).0
}

/// [`both_ways`] over `over`, with the override's report.
fn both_ways_report(
    cluster: &ClusterConfig,
    repair: Option<RepairConfig>,
    algos: Algos,
    p: Program,
    over: Over,
) -> ((HandoffStats, HandoffStats, WorldStats), RunReport<u64>) {
    let (plain, plain_stats) = run(cluster, repair, algos, p, over, true);
    let (lent, lent_stats) = run(cluster, repair, algos, p, over, false);
    assert_eq!(lent.completion_times, plain.completion_times);
    assert_eq!(lent.outputs, plain.outputs);
    assert_eq!(format!("{lent_stats:?}"), format!("{plain_stats:?}"));
    assert_eq!(lent.events_handled, plain.events_handled);
    assert_eq!(
        lent.handoff.answered + lent.handoff.stepped_inline,
        plain.handoff.answered + plain.handoff.stepped_inline,
        "the same completions, handed over differently"
    );
    ((lent.handoff, plain.handoff, lent_stats), lent)
}

fn skewed(n: usize, params: NetParams, seed: u64) -> ClusterConfig {
    ClusterConfig::new(n, params, seed).with_start_skew(SimDuration::from_micros(50))
}

fn handoff(answered: u64, stepped_inline: u64) -> HandoffStats {
    HandoffStats {
        answered,
        stepped_inline,
    }
}

/// The lossy N=64 SRM cycle of `tests/determinism.rs`: on a switch almost
/// every completion is alone in its batch, so the closer runs the machines
/// and a rank's thread wakes once per collective (64 × 9 of the 1 591;
/// the rest are the drop-time drain's own receives).
#[test]
fn switch_n64_lossy_srm_cycle() {
    let switch = NetParams::fast_ethernet_switch().with_loss(0.05);
    let (lent, plain, stats) = both_ways(
        &skewed(64, switch, 0x5E12_7ED1),
        Some(RepairConfig::sim_default().with_seed(11)),
        Algos::Bcast(BcastAlgorithm::McastBinary),
        Program::Cycles { n: 3, size: 3000 },
    );
    assert!(stats.net.injected_frame_losses > 0, "the loss model ran");
    assert_eq!(
        (lent, plain),
        (handoff(1_591, 49_424), handoff(11_981, 39_034))
    );
}

/// A hub frame reaches every station in one event: a multi-completion
/// batch wakes its ranks, which resume their machines on their own
/// threads, in rank order within each round. Only lone completions are
/// stepped, so the hub saves little.
#[test]
fn hub_n8_cycle() {
    let hub = NetParams::fast_ethernet_hub().with_loss(0.10);
    let (lent, plain, stats) = both_ways(
        &skewed(8, hub, 0x5E12_7ED2),
        Some(RepairConfig::sim_default().with_seed(12)),
        Algos::Bcast(BcastAlgorithm::McastBinary),
        Program::Cycles { n: 4, size: 3000 },
    );
    assert!(stats.net.injected_frame_losses > 0, "the loss model ran");
    assert_eq!((lent, plain), (handoff(895, 255), handoff(944, 206)));
}

/// MPICH's binomial tree charges its layering cost with `compute` and
/// models TCP acknowledgements as kernel traffic on every hop: stepped by
/// the closer, those are `RankPort::{compute, send_kernel}`. A tree rank
/// receives once per broadcast, so it wakes once either way; what moves
/// to the closer is the fan-out after that receive.
#[test]
fn mpich_binomial_bcast_n8() {
    let (lent, plain, stats) = both_ways(
        &skewed(8, NetParams::fast_ethernet_switch(), 0x5E12_7ED4),
        None,
        Algos::Bcast(BcastAlgorithm::MpichBinomial),
        Program::Bcasts { n: 12 },
    );
    assert!(
        stats.net.kernel_datagrams_sent > 0,
        "TCP acks were modelled"
    );
    assert_eq!((lent, plain), (handoff(84, 91), handoff(84, 91)));
}

/// ACK horizons every 500 µs over a lossless switch: session messages
/// interleave with every broadcast, and the closer still runs the lent
/// machines (104 answered, against the default loop's 176). A send never
/// waits, so the closer never hands a claim back to the rank's thread.
#[test]
fn horizons_leave_claims_with_the_closer() {
    let (lent, plain, stats) = both_ways(
        &skewed(8, NetParams::fast_ethernet_switch(), 0x5E12_7ED5),
        Some(horizons(7)),
        Algos::Bcast(BcastAlgorithm::McastBinary),
        Program::Bcasts { n: 12 },
    );
    assert!(stats.repair.horizons_sent > 0, "the session plane ran");
    assert_eq!((lent, plain), (handoff(104, 307), handoff(176, 235)));
}

/// The repair loop at `seed` with ACK horizons every 500 µs.
fn horizons(seed: u64) -> RepairConfig {
    RepairConfig::sim_default()
        .with_seed(seed)
        .with_horizon_interval(Duration::from_micros(500))
}

/// Twelve binomial broadcasts under 500 µs horizons on a lossless switch
/// complete at every size, and agree both ways. A receiver's frontier
/// folds every hole past its fourth into an open-ended tail, so a unicast
/// record above it is never acknowledged: the deleted send window
/// deadlocked on this shape at N ≥ 4 (`docs/PROTOCOL.md` §9.4).
#[test]
fn mpich_binomial_bcasts_under_horizons_complete_at_every_size() {
    for n in [3, 4, 8, 16] {
        let (_, _, stats) = both_ways(
            &skewed(n, NetParams::fast_ethernet_switch(), 0x5E12_7ED5),
            Some(horizons(7)),
            Algos::Bcast(BcastAlgorithm::MpichBinomial),
            Program::Bcasts { n: 12 },
        );
        assert!(
            stats.repair.horizons_sent > 0,
            "N={n}: the session plane ran"
        );
    }
}

/// Four 16 KiB broadcast / barrier / allgather cycles under 500 µs
/// horizons at N=8, with the broadcast `algo`, lossless and at 5 % loss:
/// shapes the deleted send window deadlocked on.
fn large_cycles_under_horizons(algo: BcastAlgorithm) {
    for loss in [0.0, 0.05] {
        let switch = NetParams::fast_ethernet_switch().with_loss(loss);
        let (_, _, stats) = both_ways(
            &skewed(8, switch, 0x5E12_7ED5),
            Some(horizons(7)),
            Algos::Bcast(algo),
            Program::Cycles {
                n: 4,
                size: 16 * 1024,
            },
        );
        assert!(stats.repair.horizons_sent > 0, "the session plane ran");
        assert_eq!(
            stats.net.injected_frame_losses > 0,
            loss > 0.0,
            "the loss model ran at {loss}"
        );
    }
}

#[test]
fn scatter_allgather_16k_cycles_under_horizons() {
    large_cycles_under_horizons(BcastAlgorithm::ScatterAllgather);
}

#[test]
fn mcast_binary_16k_cycles_under_horizons() {
    large_cycles_under_horizons(BcastAlgorithm::McastBinary);
}

/// The MPICH family: the binomial broadcast, the three-phase barrier and
/// the gather + broadcast allgather. A barrier rank receives up to
/// `log2 N + 1` times and the allgather's two stages chain, so the closer
/// takes 46 more of the steps (92 answered, against the default loop's
/// 138). `events_handled` = 2 775 is what the blocking barrier and
/// allgather bodies these machines replaced handled in this run: the
/// machines make the same calls.
#[test]
fn mpich_family_cycle_n8() {
    let ((lent, plain, stats), report) = both_ways_report(
        &skewed(8, NetParams::fast_ethernet_switch(), 0x5E12_7ED6),
        None,
        Algos::Mpich,
        Program::Cycles { n: 4, size: 3000 },
        Over::World,
    );
    assert!(
        stats.net.kernel_datagrams_sent > 0,
        "TCP acks were modelled"
    );
    assert_eq!(report.events_handled, 2_775);
    assert_eq!((lent, plain), (handoff(92, 234), handoff(138, 188)));
}

/// The gossip broadcast on a unicast-only fabric at 5 % loss: a receiver
/// has one receive per broadcast, so it parks once either way, and the
/// pulls that heal the losses happen inside that one wait — the hand-off
/// is the same both ways, and the blocking body's before the port.
/// `events_handled` = 18 926 is that blocking body's count for this run.
#[test]
fn gossip_bcast_n16_unicast_only_lossy() {
    let fabric = NetParams::fast_ethernet_switch()
        .with_unicast_only()
        .with_loss(0.05);
    let ((lent, plain, stats), report) = both_ways_report(
        &skewed(16, fabric, 0x5E12_7ED7),
        Some(RepairConfig::sim_default().with_seed(13).with_gossip()),
        Algos::Bcast(BcastAlgorithm::Gossip),
        Program::Bcasts { n: 12 },
        Over::World,
    );
    assert!(stats.net.injected_frame_losses > 0, "the loss model ran");
    assert!(stats.repair.wants_sent > 0, "receivers pulled");
    assert_eq!(report.events_handled, 18_926);
    assert_eq!((lent, plain), (handoff(196, 1_221), handoff(196, 1_221)));
}

/// Two concurrent parity groups of an 8-rank world on a lossy switch:
/// each group is the world endpoint under a view, so its machines are lent
/// to the closer like the world's (122 answered, against the default
/// loop's 184). `events_handled` = 1 857 and the default loop's hand-off
/// are what the `GroupComm` wrapper this view replaced handled and handed
/// off in this run.
#[test]
fn parity_split_n8_lossy_srm_cycle() {
    let switch = NetParams::fast_ethernet_switch().with_loss(0.05);
    let ((lent, plain, stats), report) = both_ways_report(
        &skewed(8, switch, 0x5E12_7ED8),
        Some(RepairConfig::sim_default().with_seed(14)),
        Algos::Bcast(BcastAlgorithm::McastBinary),
        Program::Cycles { n: 3, size: 3000 },
        Over::Parity,
    );
    assert!(stats.net.injected_frame_losses > 0, "the loss model ran");
    assert_eq!(report.events_handled, 1_857);
    assert!(lent.answered < plain.answered);
    assert_eq!((lent, plain), (handoff(122, 323), handoff(184, 261)));
}

/// Seven survivors of an 8-rank world declare rank 5 failed, shrink, and
/// run waited `iallgather`s and barriers over the shrunk communicator: the
/// same endpoint under the survivors' view, so the closer runs their
/// machines too (150 answered, against the default loop's 250).
/// `events_handled` = 2 742 and the default loop's hand-off are what the
/// `ShrunkComm` wrapper this view replaced handled and handed off in this
/// run.
#[test]
fn shrunk_n8_iallgather_barrier() {
    let switch = NetParams::fast_ethernet_switch().with_loss(0.05);
    let repair = RepairConfig::sim_default()
        .with_seed(15)
        .with_membership(Duration::from_millis(4));
    let ((lent, plain, stats), report) = both_ways_report(
        &skewed(8, switch, 0x5E12_7ED9),
        Some(repair),
        Algos::Bcast(BcastAlgorithm::McastBinary),
        Program::Iallgathers { n: 3 },
        Over::Shrunk { victim: 5 },
    );
    assert!(stats.net.injected_frame_losses > 0, "the loss model ran");
    assert_eq!(stats.repair.epoch, 1, "the shrink committed epoch 1");
    assert_eq!(report.events_handled, 2_742);
    assert!(lent.answered < plain.answered);
    assert_eq!((lent, plain), (handoff(150, 541), handoff(250, 441)));
}
