//! Sub-communicators over the simulated network: concurrent groups on one
//! fabric, timing isolation, and interaction with the world communicator.

use mcast_mpi::core::{combine_u64_sum, BcastAlgorithm, Communicator, GroupComm};
use mcast_mpi::netsim::cluster::ClusterConfig;
use mcast_mpi::netsim::params::NetParams;
use mcast_mpi::transport::{run_sim_world, run_sim_world_stats, Comm, SimCommConfig};

/// FNV-1a over the rendered parts of a run's outcome.
fn digest(parts: &[String]) -> u64 {
    parts
        .iter()
        .flat_map(|p| p.bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `digest` of the parity run's outputs, completion times and
/// `WorldStats`, captured before sub-communicators became views inside
/// the endpoint: two concurrent groups put the same unicast fan-out on
/// the switch at the same virtual instants.
const SUBGROUP_PARITY_N6: u64 = 0xde47_d29c_b090_b265;

#[test]
fn parity_groups_run_concurrently_on_the_switch() {
    let cluster = ClusterConfig::new(6, NetParams::fast_ethernet_switch(), 41);
    let (report, stats) = run_sim_world_stats(&cluster, &SimCommConfig::default(), |mut c| {
        let colors: Vec<u32> = (0..6).map(|r| (r % 2) as u32).collect();
        let group = GroupComm::split(&mut c, &colors, 5);
        let mut comm = Communicator::new(group);
        // Each group allreduces its members' world ranks.
        let world = comm.transport().world_rank_of(comm.rank());
        let s = comm
            .allreduce((world as u64).to_le_bytes().to_vec(), &combine_u64_sum)
            .unwrap();
        u64::from_le_bytes(s[..8].try_into().unwrap())
    })
    .unwrap();
    // Evens: 0+2+4 = 6; odds: 1+3+5 = 9.
    assert_eq!(report.outputs, vec![6, 9, 6, 9, 6, 9]);
    assert_eq!(report.stats.total_drops(), 0);
    let d = digest(&[
        format!("{:?}", report.outputs),
        format!("{:?}", report.completion_times),
        format!("{stats:?}"),
    ]);
    println!("SUBGROUP_PARITY_N6: {d:#018x}");
    assert_eq!(d, SUBGROUP_PARITY_N6);
}

#[test]
fn world_collective_after_group_collective() {
    // Group phase then world phase: the tag spaces must not collide even
    // though both run on the same sockets.
    let cluster = ClusterConfig::new(4, NetParams::fast_ethernet_hub(), 42);
    let report = run_sim_world(&cluster, &SimCommConfig::default(), |mut c| {
        // Phase 1: halves each broadcast internally.
        {
            let colors = vec![0u32, 0, 1, 1];
            let group = GroupComm::split(&mut c, &colors, 9);
            let mut g = Communicator::new(group).with_bcast(BcastAlgorithm::FlatTree);
            let mut buf = if g.rank() == 0 {
                vec![7u8; 100]
            } else {
                vec![0; 100]
            };
            g.bcast(0, &mut buf).unwrap();
            assert_eq!(buf, vec![7u8; 100]);
        }
        // Phase 2: the whole world synchronizes and allreduces.
        let mut world = Communicator::new(c);
        world.barrier().unwrap();
        let s = world
            .allreduce(1u64.to_le_bytes().to_vec(), &combine_u64_sum)
            .unwrap();
        u64::from_le_bytes(s[..8].try_into().unwrap())
    })
    .unwrap();
    assert_eq!(report.outputs, vec![4, 4, 4, 4]);
}

#[test]
fn singleton_group_is_trivial() {
    let cluster = ClusterConfig::new(3, NetParams::fast_ethernet_switch(), 43);
    let report = run_sim_world(&cluster, &SimCommConfig::default(), |mut c| {
        let me = c.rank();
        let group = GroupComm::new(&mut c, &[me], me as u16);
        let mut comm = Communicator::new(group);
        let mut buf = vec![me as u8; 10];
        comm.bcast(0, &mut buf).unwrap();
        comm.barrier().unwrap();
        buf[0]
    })
    .unwrap();
    assert_eq!(report.outputs, vec![0, 1, 2]);
    // Singleton collectives send nothing.
    assert_eq!(report.stats.datagrams_sent, 0);
}
