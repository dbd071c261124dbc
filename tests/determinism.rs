//! Deterministic-replay guarantees: the same `NetParams` + seed must
//! reproduce a run bit-for-bit — identical virtual timestamps, identical
//! statistics, identical event traces. This is the netsim RNG contract
//! everything above (figure regeneration, failure replay) relies on.

use mcast_mpi::core::{combine_u64_sum, BcastAlgorithm, Communicator};
use mcast_mpi::netsim::cluster::ClusterConfig;
use mcast_mpi::netsim::ids::{DatagramDst, GroupId, HostId, UdpPort};
use mcast_mpi::netsim::params::NetParams;
use mcast_mpi::netsim::world::{StepOutcome, World};
use mcast_mpi::netsim::{SimDuration, SimTime};
use mcast_mpi::transport::{run_sim_world, SimCommConfig};

/// A collective-heavy workload with per-rank skew: bcast + allreduce +
/// barrier, returning each rank's digest and final local time.
fn replay_once(n: usize, params: NetParams, seed: u64) -> (Vec<SimTime>, Vec<(u64, u64)>, String) {
    let cluster = ClusterConfig::new(n, params, seed).with_start_skew(SimDuration::from_micros(80));
    let report = run_sim_world(&cluster, &SimCommConfig::default(), |c| {
        let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::McastBinary);
        let mut buf = if comm.rank() == 0 {
            vec![0x5A; 3000]
        } else {
            vec![0; 3000]
        };
        comm.bcast(0, &mut buf).unwrap();
        let sum = comm
            .allreduce(
                (comm.rank() as u64 + 1).to_le_bytes().to_vec(),
                &combine_u64_sum,
            )
            .unwrap();
        comm.barrier().unwrap();
        (
            buf.iter().map(|&b| b as u64).sum::<u64>(),
            u64::from_le_bytes(sum[..8].try_into().unwrap()),
        )
    })
    .expect("replay workload must not deadlock");
    // Render the stats debug output so every counter participates in the
    // byte-identical comparison.
    let stats = format!("{:?}", report.stats);
    (report.completion_times, report.outputs, stats)
}

#[test]
fn run_sim_world_replays_byte_identically() {
    let hub = NetParams::fast_ethernet_hub;
    let switch = NetParams::fast_ethernet_switch;
    let mut inputs = vec![(5, hub(), 0xDE7E_4A11), (5, switch(), 0xDE7E_4A11)];
    for n in [8, 64] {
        inputs.extend([1, 7, 23].map(|seed| (n, switch(), seed)));
    }
    for (n, params, seed) in inputs {
        let a = replay_once(n, params.clone(), seed);
        let b = replay_once(n, params, seed);
        assert_eq!(a.0, b.0, "completion times must replay exactly");
        assert_eq!(a.1, b.1, "outputs must replay exactly");
        assert_eq!(a.2, b.2, "every stats counter must replay exactly");
        let want = (0x5A * 3000, (1..=n as u64).sum());
        assert_eq!(a.1, vec![want; n], "and be correct (n={n} seed={seed})");
    }
}

#[test]
fn different_seed_changes_timing_but_not_results() {
    let a = replay_once(5, NetParams::fast_ethernet_hub(), 1);
    let b = replay_once(5, NetParams::fast_ethernet_hub(), 2);
    assert_eq!(a.1, b.1, "collective results are seed-independent");
    assert_ne!(a.0, b.0, "start skew must differ across seeds");
}

/// Lossy-run replay: with fault injection *and* the NACK/retransmit
/// repair loop active, a run is still a pure function of the seed —
/// identical timings, identical drop counters, identical repair effort.
/// (The fault RNG is a separate stream, so this holds independently of
/// the backoff/skew draws.)
#[test]
fn lossy_repaired_run_replays_byte_identically() {
    use mcast_mpi::transport::run_sim_world_stats;
    let replay = |seed: u64| {
        let params = NetParams::fast_ethernet_switch().with_loss(0.10);
        let cluster =
            ClusterConfig::new(4, params, seed).with_start_skew(SimDuration::from_micros(80));
        let (report, stats) =
            run_sim_world_stats(&cluster, &SimCommConfig::default().with_repair(), |c| {
                let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::McastBinary);
                let mut buf = if comm.rank() == 0 {
                    vec![0x5A; 3000]
                } else {
                    vec![0; 3000]
                };
                comm.bcast(0, &mut buf).unwrap();
                comm.barrier().unwrap();
                buf.iter().map(|&b| b as u64).sum::<u64>()
            })
            .expect("lossy replay workload must recover");
        (
            report.completion_times,
            report.outputs,
            format!("{:?}", stats.net),
            format!("{:?}", stats.repair),
        )
    };
    let a = replay(0x0105_5EED);
    let b = replay(0x0105_5EED);
    assert_eq!(a, b, "lossy repaired runs must replay byte-identically");
    assert_eq!(a.1, vec![0x5A * 3000; 4], "and still be correct");
}

/// World-level replay: the full event trace (rendered timeline) of a
/// contended hub run — collisions, backoff draws and all — must be
/// byte-identical for the same seed.
#[test]
fn world_trace_replays_byte_identically() {
    let port = UdpPort(4100);
    let trace_of = |seed: u64| -> String {
        let mut world = World::new(4, NetParams::fast_ethernet_hub(), seed);
        world.enable_trace(4096);
        for h in 0..4u32 {
            let s = world.bind(HostId(h), port);
            world.join_group_quiet(HostId(h), s, GroupId(1));
        }
        // Three hosts transmit at the same instant (collision storm) and
        // host 0 follows with a multicast.
        let at = SimTime::from_micros(10);
        for h in 1..4u32 {
            world.send_datagram(
                HostId(h),
                port,
                DatagramDst::Unicast(HostId(0)),
                port,
                vec![h as u8; 900].into(),
                at,
                false,
                false,
            );
        }
        world.send_datagram(
            HostId(0),
            port,
            DatagramDst::Multicast(GroupId(1)),
            port,
            vec![9; 2500].into(),
            SimTime::from_micros(15),
            false,
            false,
        );
        while !matches!(world.step(), StepOutcome::Quiescent) {}
        format!("{}", world.trace().expect("trace enabled"))
    };
    let a = trace_of(0xBEEF);
    assert!(a.contains("COLLISION"), "the storm must actually collide");
    assert_eq!(a, trace_of(0xBEEF), "trace must replay byte-identically");
    assert_ne!(a, trace_of(0xBEF0), "a different seed must change backoff");
}

/// FNV-1a over the rendered completion times, outputs, `NetStats` and
/// `RepairStats` of one repaired run of `cycles` rounds of `round`.
fn served_wait_fingerprint(
    cluster: &ClusterConfig,
    repair: mcast_mpi::transport::RepairConfig,
    bcast: BcastAlgorithm,
    round: &(dyn Fn(&mut Communicator<mcast_mpi::transport::SimComm>, usize) -> u64 + Sync),
    cycles: usize,
) -> u64 {
    use mcast_mpi::transport::run_sim_world_stats;
    let comm_cfg = SimCommConfig {
        repair: Some(repair),
        ..SimCommConfig::default()
    };
    let (report, stats) = run_sim_world_stats(cluster, &comm_cfg, |c| {
        let mut comm = Communicator::new(c).with_bcast(bcast);
        (0..cycles).fold(0xcbf2_9ce4_8422_2325u64, |acc, i| {
            (acc ^ round(&mut comm, i)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
    .expect("the repair plane must recover every loss");
    assert!(stats.net.injected_frame_losses > 0, "the loss model ran");
    let rendered = format!(
        "{:?}|{:?}|{:?}|{:?}",
        report.completion_times, report.outputs, stats.net, stats.repair
    );
    rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One bcast / barrier / allgather cycle; the digest covers every byte a
/// rank ended up with.
fn bcast_barrier_allgather(
    comm: &mut Communicator<mcast_mpi::transport::SimComm>,
    i: usize,
) -> u64 {
    let (n, rank) = (comm.size(), comm.rank());
    let root = (i * 7) % n;
    let mut buf = vec![if rank == root { 0xA5 ^ i as u8 } else { 0 }; 3000 - 900 * (i % 3)];
    comm.bcast(root, &mut buf).unwrap();
    comm.barrier().unwrap();
    let blocks = comm.allgather(&[rank as u8 ^ i as u8; 200]).unwrap();
    buf.iter()
        .chain(blocks.iter().flatten())
        .fold(i as u64, |h, &b| {
            h.wrapping_mul(31).wrapping_add(u64::from(b))
        })
}

/// Recorded on the last commit whose blocking waits woke the rank's thread
/// for every datagram (PR 17). Served waits (`docs/SIMULATOR.md`) move the
/// receive loop onto the round closer's thread and nothing else: the
/// `World` sees the same calls in the same order, so these never change
/// with the hand-off. Three shapes: the switch (single-completion rounds,
/// stepped inline), the hub (every station hears a frame at once: the
/// multi-completion fallback) and unicast-only gossip.
const SERVED_SWITCH_N64_SRM: u64 = 0x821b_2c9a_830a_464a;
const SERVED_HUB_N8_SRM: u64 = 0x59a2_ebda_29de_2e3f;
const SERVED_GOSSIP_N16: u64 = 0xf7ed_58e5_f497_b5f4;

#[test]
fn served_waits_replay_the_recorded_runs() {
    use mcast_mpi::transport::RepairConfig;
    let skew = SimDuration::from_micros(50);
    let switch = NetParams::fast_ethernet_switch().with_loss(0.05);
    let switch_n64 = served_wait_fingerprint(
        &ClusterConfig::new(64, switch.clone(), 0x5E12_7ED1).with_start_skew(skew),
        RepairConfig::sim_default().with_seed(11),
        BcastAlgorithm::McastBinary,
        &bcast_barrier_allgather,
        3,
    );
    println!("switch n64 srm: {switch_n64:#018x}");

    let hub = NetParams::fast_ethernet_hub().with_loss(0.10);
    let hub_n8 = served_wait_fingerprint(
        &ClusterConfig::new(8, hub, 0x5E12_7ED2).with_start_skew(skew),
        RepairConfig::sim_default().with_seed(12),
        BcastAlgorithm::McastBinary,
        &bcast_barrier_allgather,
        4,
    );
    println!("hub n8 srm: {hub_n8:#018x}");

    let gossip_n16 = served_wait_fingerprint(
        &ClusterConfig::new(16, switch.with_unicast_only(), 0x5E12_7ED3).with_start_skew(skew),
        RepairConfig::sim_default().with_seed(13).with_gossip(),
        BcastAlgorithm::Gossip,
        &|comm, i| {
            let root = (i * 5) % comm.size();
            let mut buf = vec![
                if comm.rank() == root {
                    0x3C ^ i as u8
                } else {
                    0
                };
                4096 >> (2 * (i % 3))
            ];
            comm.bcast(root, &mut buf).unwrap();
            buf.iter().fold(i as u64, |h, &b| {
                h.wrapping_mul(31).wrapping_add(u64::from(b))
            })
        },
        6,
    );
    println!("gossip n16: {gossip_n16:#018x}");
    assert_eq!(
        (switch_n64, hub_n8, gossip_n16),
        (SERVED_SWITCH_N64_SRM, SERVED_HUB_N8_SRM, SERVED_GOSSIP_N16),
        "moved off the recorded runs"
    );
}

/// The served-wait win as an exact count instead of a wall time: on the
/// lossy N=64 switch the SRM plane multicasts every NACK and repair, and
/// almost every datagram a parked rank receives is one it only files away.
/// Each of those used to wake the rank's thread (`answered`); now the round
/// closer steps the rank's receive loop and the thread sleeps on
/// (`stepped_inline`). Both counts follow from the `World`'s event order.
///
/// So does the number of events the `World` handled for it (PR 24): the
/// parent handled **220 014** for this run — 48 594 `PortTxNext` and 1 281
/// `NicTxNext` that found nothing to dequeue, 48 351 receive timeouts
/// `cancel_timer` had left queued to fire into nothing, and the 121 788
/// that do something and are all that is handled now (−44.6 %;
/// `docs/SIMULATOR.md`, "Event order"), with the hand-off counts where
/// they were.
///
/// Since a waited collective lends its request machine to the closer with
/// the park, the closer also takes the claim steps between the receives of
/// a collective, and a rank's thread wakes once per collective: `answered`
/// went 11 872 → 1 616. Of the 11 872, 10 832 were the end of a completed
/// `Comm`-level wait (one per scout, data, release or allgather-block
/// receive) and 1 040 the receives of the drop-time drain, which still
/// receives for itself. Of the 1 616, 576 are the per-collective wakes —
/// 64 ranks × 9 collectives, exactly one each — and the same 1 040 are the
/// drain's. The 10 256 completions that no longer wake a thread are
/// stepped inline instead (38 322 → 48 578): every completion is handed
/// over one way or the other, and the `World` — its 121 788 events, and
/// every replay constant above — does not notice which.
#[test]
fn lossy_n64_ranks_sleep_through_most_of_what_they_receive() {
    use mcast_mpi::transport::RepairConfig;
    let run = || {
        let params = NetParams::fast_ethernet_switch().with_loss(0.05);
        let cluster = ClusterConfig::new(64, params, 0x5E12_7ED1)
            .with_start_skew(SimDuration::from_micros(50));
        let comm_cfg = SimCommConfig {
            repair: Some(RepairConfig::sim_default().with_seed(11)),
            ..SimCommConfig::default()
        };
        run_sim_world(&cluster, &comm_cfg, |c| {
            let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::McastBinary);
            (0..3).fold(0, |acc, i| acc ^ bcast_barrier_allgather(&mut comm, i))
        })
        .expect("the repair plane must recover every loss")
    };
    let (handoff, events) = {
        let report = run();
        (report.handoff, report.events_handled)
    };
    println!("{handoff:?}, {events} events");
    let again = run();
    assert_eq!(
        (handoff, events),
        (again.handoff, again.events_handled),
        "hand-off and event counts replay exactly"
    );
    let want = mcast_mpi::netsim::cluster::HandoffStats {
        answered: 1_616,
        stepped_inline: 48_578,
    };
    assert_eq!((handoff, events), (want, 121_788));
    assert!(
        handoff.answered < 11_872,
        "a waited collective must wake its rank less often than once per wait: {handoff:?}"
    );
    assert_eq!(
        handoff.answered + handoff.stepped_inline,
        11_872 + 38_322,
        "the same completions, handed over differently"
    );
}
