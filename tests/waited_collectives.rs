//! A waited collective parks its rank once. `SimComm` overrides
//! `Comm::wait_op`: the rank lends its request machine to the round closer
//! with the park, and the closer takes the machine's claim steps between
//! the receives (`docs/SIMULATOR.md`, "Served waits"). This file is the
//! oracle that the override changes who takes the steps and nothing else:
//! every world runs twice — through `SimComm` itself, and through
//! [`DefaultLoop`], a pass-through `Comm` that keeps the trait's default
//! `wait_op` loop (claim, else `wait_ready` on the receives it waits on) —
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
    fn expire_recv(&mut self, req: RecvReq, after: Duration) {
        self.0.expire_recv(req, after);
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
/// and a rank's thread wakes once per collective (64 × 9 of the 986;
/// the rest are the drop-time drain's own receives). Re-recorded once
/// when an overheard solicit came to silence ours, and a multicast repair
/// to hold back its repeat, for one solicit timeout instead of two
/// (`docs/PROTOCOL.md` §8): the run's repairs differ, and the drain's
/// receives went 1 015 → 525 (the pin was 1 591 / 49 424 against the
/// default loop's 11 981 / 39 034). Re-recorded once more when the
/// multicast allgather came to pass its turn on its predecessor's block,
/// with a receive posted for each block it lacks up to two past the
/// highest in hand (`many_to_many.rs`): its repairs overlap, so the loss
/// draws differ and the drain's receives went 525 → 621 (the pin was
/// 1 101 / 49 708 against the default loop's 11 255 / 39 554). Re-recorded once more when a solicit for traffic not sent yet came to
/// stand at its source, whose first send of the tag is followed by a send
/// notice that re-arms a receiver still missing it (`docs/PROTOCOL.md`
/// §8.4): the run's solicits and repairs differ, and the drain's
/// receives went 621 → 410 (the pin was 1 197 / 43 515 against the
/// default loop's 13 127 / 31 585). Re-recorded once more when a rank
/// that has sent or taken in a solicit lately came to send each one-frame
/// message twice under one seq (`docs/PROTOCOL.md` §8.5): fewer losses
/// need a solicit, so the run is shorter, and the drain's receives went
/// 410 → 640, the copies of the last messages among them (the pin was
/// 986 / 42 053 against the default loop's 12 976 / 30 063).
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
        (handoff(1_216, 29_850), handoff(13_448, 17_618))
    );
}

/// A hub frame reaches every station in one event: a multi-completion
/// batch wakes its ranks, which resume their machines on their own
/// threads, in rank order within each round. Only lone completions are
/// stepped, so the hub saves little. Re-recorded once when an overheard
/// solicit came to silence ours, and a multicast repair to hold back its
/// repeat, for one solicit timeout instead of two (`docs/PROTOCOL.md` §8);
/// it was 895 / 255 against the default loop's 944 / 206. Re-recorded once
/// more when the multicast allgather came to pass its turn on its
/// predecessor's block, with a receive posted for each block it lacks up
/// to two past the highest in hand (`many_to_many.rs`); it was 856 / 227
/// against 892 / 191. Re-recorded once more when a solicit for traffic not sent yet came to
/// stand at its source, whose first send of the tag is followed by a send
/// notice that re-arms a receiver still missing it (`docs/PROTOCOL.md`
/// §8.4): the run's solicits and repairs differ; it was 901 / 278 against 944 / 235.
/// Re-recorded once more when a rank that has sent or taken in a solicit
/// lately came to send each one-frame message twice under one seq
/// (`docs/PROTOCOL.md` §8.5): fewer losses need a solicit; it was 681 /
/// 288 against 728 / 241.
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
    assert_eq!((lent, plain), (handoff(642, 218), handoff(684, 176)));
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
/// `events_handled` was 18 926, the blocking body's count for this run,
/// with `stepped_inline` 1 221 both ways. Re-recorded once when relays
/// stopped advertising to every peer and took to their log₂ N finger
/// peers (`docs/PROTOCOL.md` §11.1): fewer `Advr`s cross the fabric, so
/// the `World` handles 12 633 events and steps 834 completions inline
/// (196 answered). Re-recorded once more when an unanswered pull took to
/// probing its holder on an exponential backoff, and a holder to echoing
/// a repeated `Want` with `Served` instead of re-sending the payload
/// (§11.2): probes and echoes are datagrams of their own, so the `World`
/// handles 15 141 events, answers 225 waits and steps 1 125 completions
/// inline. Re-recorded once more when an origin took to advertising to its
/// finger peers only, a pull to probing every repair timeout, and a
/// requester to re-pulling (`MsgKind::Repull`) from a holder whose echo
/// proved its answer lost (§11.1, §11.2): fewer `Advr`s, probes and
/// NACK-backstop repairs cross the fabric, so the `World` handles 11 542
/// events, answers 180 waits and steps 867 completions inline.
/// Re-recorded once more when a holder took to pushing each group send
/// down its finger tree, a pull to waiting one repair timeout for the push
/// before it asks and to probing every half repair timeout once it has,
/// and a receiver to relaying, lazily, a push whose own `Advr` was lost
/// (§11.1, §11.2): most payloads cross as one push instead of
/// `Advr` → `Want` → answer, so the `World` handles 10 428 events, answers
/// 189 waits and steps 801 completions inline (10 759 and 825 while such a
/// push was dropped from the relay feed).
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
    assert_eq!(report.events_handled, 10_428);
    assert_eq!((lent, plain), (handoff(189, 801), handoff(189, 801)));
}

/// Two concurrent parity groups of an 8-rank world on a lossy switch:
/// each group is the world endpoint under a view, so its machines are lent
/// to the closer like the world's (110 answered, against the default
/// loop's 176). `events_handled` was 1 857, with hand-offs 122 / 323 and
/// 184 / 261, in the `GroupComm` wrapper this view replaced, and stayed so
/// under the view. Re-recorded once when an overheard solicit came to
/// silence ours, and a multicast repair to hold back its repeat, for one
/// solicit timeout instead of two (`docs/PROTOCOL.md` §8): the `World`
/// handled 1 663 events, with hand-offs 111 / 261 and 176 / 196. Re-recorded
/// once more when the multicast allgather came to pass its turn on its
/// predecessor's block, with a receive posted for each block it lacks up
/// to two past the highest in hand (`many_to_many.rs`): the `World`
/// handled 1 673 events, with hand-offs 116 / 258 and 183 / 191. Re-recorded once more when a solicit for traffic not sent yet came to
/// stand at its source, whose first send of the tag is followed by a send
/// notice that re-arms a receiver still missing it (`docs/PROTOCOL.md`
/// §8.4): the run's solicits and repairs differ: the `World`
/// handled 1 762 events, with hand-offs 110 / 286 and 176 / 220.
/// Re-recorded once more when a rank that has sent or taken in a solicit
/// lately came to send each one-frame message twice under one seq
/// (`docs/PROTOCOL.md` §8.5): the copies are events of their own, and
/// the `World` handles 2 102.
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
    assert_eq!(report.events_handled, 2_102);
    assert!(lent.answered < plain.answered);
    assert_eq!((lent, plain), (handoff(116, 260), handoff(187, 189)));
}

/// Seven survivors of an 8-rank world declare rank 5 failed, shrink, and
/// run waited `iallgather`s and barriers over the shrunk communicator: the
/// same endpoint under the survivors' view, so the closer runs their
/// machines too (178 answered, against the default loop's 282).
/// `events_handled` was 2 742, with hand-offs 150 / 541 and 250 / 441, in
/// the `ShrunkComm` wrapper this view replaced, and stayed so under the
/// view. Re-recorded once when an overheard solicit came to silence ours,
/// and a multicast repair to hold back its repeat, for one solicit timeout
/// instead of two (`docs/PROTOCOL.md` §8): the `World` handled 2 193
/// events, with hand-offs 150 / 394 and 259 / 285. Re-recorded once more
/// when the multicast allgather came to pass its turn on its
/// predecessor's block, with a receive posted for each block it lacks up
/// to two past the highest in hand (`many_to_many.rs`): the `World`
/// handled 2 160 events, with hand-offs 121 / 401 and 230 / 292. Re-recorded once more when a solicit for traffic not sent yet came to
/// stand at its source, whose first send of the tag is followed by a send
/// notice that re-arms a receiver still missing it (`docs/PROTOCOL.md`
/// §8.4): the run's solicits and repairs differ: the `World`
/// handled 2 554 events, with hand-offs 178 / 461 and 282 / 357.
/// Re-recorded once more when a rank that has sent or taken in a solicit
/// lately came to send each one-frame message twice under one seq
/// (`docs/PROTOCOL.md` §8.5): fewer losses need a solicit, and the
/// `World` handles 2 485 events.
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
    assert_eq!(report.events_handled, 2_485);
    assert!(lent.answered < plain.answered);
    assert_eq!((lent, plain), (handoff(149, 414), handoff(262, 301)));
}

/// The PVM-style broadcast at N=8 on a switch, lossless and at 5 % loss.
/// Its ack receives expire and a retransmission is recovered from that
/// expiry, so the waited broadcast is lent to the closer like every other
/// machine: 72 answered against the default loop's 88 lossless, 86 against
/// 112 under loss. The lossy run read 2 314 events, with hand-offs 73 / 325
/// and 95 / 303, until a solicit for traffic not sent yet came to stand at
/// its source, whose first send of the tag is followed by a send notice
/// that re-arms a receiver still missing it (`docs/PROTOCOL.md` §8.4): its
/// solicits and repairs differ. Re-recorded once for it. It read 2 492
/// events, with hand-offs 86 / 336 and 112 / 310, until a rank that has
/// sent or taken in a solicit lately came to send each one-frame message
/// — the acks and the 1- and 1 000-byte broadcasts — twice under one seq
/// (`docs/PROTOCOL.md` §8.5) once the run repairs loss: fewer of them need
/// a repair. Re-recorded once for it. The lossless run solicits nothing and sends no copy; its pins held.
#[test]
fn pvm_ack_bcasts_n8() {
    for (loss, seed, events, pins) in [
        (0.0, 0x5E12_7ED7, 720, (handoff(72, 16), handoff(88, 0))),
        (
            0.05,
            0x5E12_7ED8,
            2_396,
            (handoff(77, 251), handoff(98, 230)),
        ),
    ] {
        let switch = NetParams::fast_ethernet_switch().with_loss(loss);
        let ((lent, plain, stats), report) = both_ways_report(
            &skewed(8, switch, seed),
            Some(RepairConfig::sim_default().with_seed(13)),
            Algos::Bcast(BcastAlgorithm::PvmAck),
            Program::Bcasts { n: 8 },
            Over::World,
        );
        assert_eq!(
            stats.net.injected_frame_losses > 0,
            loss > 0.0,
            "the loss model ran at {loss}"
        );
        assert_eq!(report.events_handled, events, "at {loss}");
        assert_eq!((lent, plain), pins, "at {loss}");
    }
}
