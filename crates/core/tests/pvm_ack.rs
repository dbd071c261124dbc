//! The PVM-style acknowledged broadcast (the paper's ref \[2\]) is one
//! request machine wherever it runs: the blocking `bcast`, `ibcast`, and
//! the broadcast stage of `allreduce`. Its retransmit timer is its ack
//! receive's expiry, so a polled or staged broadcast retransmits exactly
//! as the blocking one does.

use std::time::Duration;

use mmpi_core::{combine_u64_sum, BcastAlgorithm, CollRequest, Communicator, RecvError};
use mmpi_netsim::cluster::{ClusterConfig, RunReport};
use mmpi_netsim::params::NetParams;
use mmpi_transport::{run_mem_world, run_sim_world, Comm, SimComm, SimCommConfig};

/// The strict-mode cluster and laggard of `paper_oracles.rs`'s
/// `pvm_ack_recovers_from_strict_mode_loss_but_pays_for_it`: rank 3 is busy
/// for 3 ms before it enters the collective, so it has no receive posted
/// when an unsynchronized multicast arrives.
fn strict_laggard_world<R: Send>(f: impl Fn(Communicator<SimComm>) -> R + Sync) -> RunReport<R> {
    let mut params = NetParams::fast_ethernet_switch();
    params.host.strict_posted_recv = true;
    let cluster = ClusterConfig::new(4, params, 13);
    run_sim_world(&cluster, &SimCommConfig::default(), |mut c| {
        if c.rank() == 3 {
            c.compute(Duration::from_millis(3));
        }
        f(Communicator::new(c).with_bcast(BcastAlgorithm::PvmAck))
    })
    .unwrap()
}

/// `ibcast` runs the PVM-style broadcast: polled to completion, its first
/// multicast is lost by the laggard, and the root's ack receive expires
/// and retransmits it.
#[test]
fn polled_ibcast_recovers_from_strict_mode_loss() {
    let report = strict_laggard_world(|mut comm| {
        let buf = if comm.rank() == 0 {
            vec![9; 2000]
        } else {
            Vec::new()
        };
        let mut req = comm.ibcast(0, buf);
        while !req.poll(comm.transport_mut()).unwrap() {
            comm.transport_mut().progress_block();
        }
        req.take_output() == vec![9; 2000]
    });
    assert!(report.outputs.iter().all(|&ok| ok), "every rank delivers");
    assert!(
        report.stats.unposted_recv_drops > 0,
        "the unsynchronized first multicast should have been lost by the laggard"
    );
}

/// `allreduce`'s broadcast stage recovers from its ack receive's expiry:
/// with an ack timeout shorter than an ack takes to come back, the root
/// retransmits from inside the stage and every rank still holds the sum.
#[test]
fn allreduce_retransmits_from_its_broadcast_stage() {
    let report = strict_laggard_world(|mut comm| {
        comm.bcast_cfg.ack_timeout = Duration::from_micros(50);
        let mine = (comm.rank() as u64 + 1).to_le_bytes().to_vec();
        comm.allreduce(mine, &combine_u64_sum).unwrap()
    });
    let sum = 10u64.to_le_bytes().to_vec();
    assert!(
        report.outputs.iter().all(|out| *out == sum),
        "every rank holds the sum"
    );
    assert!(
        report.stats.mcast_datagrams_sent > 1,
        "the root retransmitted: {}",
        report.stats.mcast_datagrams_sent
    );
}

/// A receiver that never enters a waited `ibcast` costs the root its
/// retransmissions and then the typed error naming it, as the blocking
/// call does.
#[test]
fn ibcast_root_reports_a_receiver_that_never_acknowledges() {
    let out = run_mem_world(3, 0, |c| {
        let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::PvmAck);
        comm.bcast_cfg.ack_timeout = Duration::from_millis(2);
        comm.bcast_cfg.max_retransmits = 3;
        if comm.rank() == 2 {
            return None;
        }
        let buf = if comm.rank() == 0 {
            vec![1; 64]
        } else {
            Vec::new()
        };
        let req = comm.ibcast(0, buf);
        Some(req.wait(comm.transport_mut()))
    });
    assert_eq!(
        out,
        vec![
            Some(Err(RecvError::Unreachable { src: 2, rounds: 4 })),
            Some(Ok(vec![1; 64])),
            None,
        ]
    );
}
