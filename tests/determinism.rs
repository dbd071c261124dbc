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
