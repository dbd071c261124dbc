//! End-to-end behaviour of the simulator: timing sanity, determinism,
//! collision dynamics, loss models, and failure reporting.

use mmpi_netsim::cluster::{run_cluster, ClusterConfig, RunReport};
use mmpi_netsim::ids::{DatagramDst, GroupId, HostId};
use mmpi_netsim::params::{FabricKind, NetParams};
use mmpi_netsim::time::{SimDuration, SimTime};
use mmpi_netsim::SimError;

const PORT: u16 = 5000;
const GROUP: GroupId = GroupId(1);

fn ping_pong(params: NetParams, payload: usize) -> RunReport<()> {
    let cfg = ClusterConfig::new(2, params, 1);
    run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        if p.rank() == 0 {
            p.send(s, DatagramDst::Unicast(HostId(1)), PORT, vec![1; payload]);
            let d = p.recv(s);
            assert_eq!(d.payload.len(), payload);
        } else {
            let d = p.recv(s);
            p.send(s, DatagramDst::Unicast(HostId(0)), PORT, d.payload.clone());
        }
    })
    .unwrap()
}

#[test]
fn ping_pong_round_trip_time_is_plausible() {
    // 0-byte payload over the switch: two messages, each roughly
    // o_send (55us) + wire (~6us) + switch (10us) + wire + o_recv (50us).
    let report = ping_pong(NetParams::fast_ethernet_switch(), 0);
    let rtt = report.makespan.as_micros_f64();
    assert!(rtt > 150.0, "RTT {rtt}us implausibly fast");
    assert!(rtt < 1000.0, "RTT {rtt}us implausibly slow");
}

#[test]
fn hub_is_faster_than_switch_for_a_single_message() {
    // With no contention the hub has no forwarding latency and only one
    // serialization, so it must beat the store-and-forward switch.
    let hub = ping_pong(NetParams::fast_ethernet_hub(), 1000).makespan;
    let sw = ping_pong(NetParams::fast_ethernet_switch(), 1000).makespan;
    assert!(
        hub < sw,
        "hub {hub} should beat switch {sw} without contention"
    );
}

#[test]
fn payload_size_increases_latency() {
    let small = ping_pong(NetParams::fast_ethernet_switch(), 10).makespan;
    let large = ping_pong(NetParams::fast_ethernet_switch(), 5000).makespan;
    assert!(large > small);
}

#[test]
fn fragmentation_counts_match_paper_formula() {
    for (bytes, frames) in [(0u32, 1u64), (1000, 1), (2000, 2), (5000, 4)] {
        let cfg = ClusterConfig::new(2, NetParams::fast_ethernet_switch(), 3);
        let report = run_cluster(&cfg, move |mut p| {
            let s = p.bind(PORT);
            if p.rank() == 0 {
                p.send(
                    s,
                    DatagramDst::Unicast(HostId(1)),
                    PORT,
                    vec![0; bytes as usize],
                );
            } else {
                p.recv(s);
            }
        })
        .unwrap();
        assert_eq!(
            report.stats.data_frames_sent, frames,
            "M={bytes} should need {frames} frames (paper: floor(M/T)+1)"
        );
    }
}

#[test]
fn identical_seeds_are_bit_identical() {
    let run = |seed| {
        let cfg = ClusterConfig::new(5, NetParams::fast_ethernet_hub(), seed)
            .with_start_skew(SimDuration::from_micros(50));
        run_cluster(&cfg, |mut p| {
            let s = p.bind(PORT);
            p.join_group(s, GROUP);
            if p.rank() == 0 {
                // Everyone scouts to 0, then 0 multicasts.
                for _ in 0..4 {
                    p.recv(s);
                }
                p.send(s, DatagramDst::Multicast(GROUP), PORT, vec![9; 2000]);
            } else {
                p.send(s, DatagramDst::Unicast(HostId(0)), PORT, vec![]);
                p.recv(s);
            }
            p.now()
        })
        .unwrap()
    };
    let a = run(77);
    let b = run(77);
    let c = run(78);
    assert_eq!(a.completion_times, b.completion_times);
    assert_eq!(a.stats.frames_sent, b.stats.frames_sent);
    assert_eq!(a.stats.collisions, b.stats.collisions);
    // A different seed shifts skews, so times should differ somewhere.
    assert_ne!(a.completion_times, c.completion_times);
}

#[test]
fn simultaneous_hub_senders_collide_and_all_deliver() {
    // All ranks send to rank 0 at t=0 on the hub: a collision storm the
    // backoff must resolve, with every message eventually delivered.
    let cfg = ClusterConfig::new(6, NetParams::fast_ethernet_hub(), 11);
    let report = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        if p.rank() == 0 {
            for _ in 0..5 {
                p.recv(s);
            }
        } else {
            p.send(
                s,
                DatagramDst::Unicast(HostId(0)),
                PORT,
                vec![p.rank() as u8],
            );
        }
    })
    .unwrap();
    assert!(
        report.stats.collisions > 0,
        "five synchronized senders must collide at least once"
    );
    assert_eq!(report.stats.datagrams_delivered, 5);
    assert_eq!(report.stats.total_drops(), 0);
}

#[test]
fn switch_has_no_collisions() {
    let cfg = ClusterConfig::new(6, NetParams::fast_ethernet_switch(), 11);
    let report = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        if p.rank() == 0 {
            for _ in 0..5 {
                p.recv(s);
            }
        } else {
            p.send(
                s,
                DatagramDst::Unicast(HostId(0)),
                PORT,
                vec![p.rank() as u8],
            );
        }
    })
    .unwrap();
    assert_eq!(report.stats.collisions, 0);
    assert_eq!(report.stats.datagrams_delivered, 5);
    assert_eq!(report.stats.unicast_datagrams_sent, 5);
    assert_eq!(report.stats.mcast_datagrams_sent, 0);
}

#[test]
fn multicast_on_switch_reaches_only_members() {
    let cfg = ClusterConfig::new(4, NetParams::fast_ethernet_switch(), 5);
    let report = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        // Only ranks 1 and 2 join; rank 3 must not receive.
        if p.rank() == 1 || p.rank() == 2 {
            p.join_group(s, GROUP);
        }
        match p.rank() {
            0 => {
                p.send(s, DatagramDst::Multicast(GROUP), PORT, vec![5; 100]);
                0
            }
            1 | 2 => p.recv(s).payload.len(),
            _ => p
                .recv_timeout(s, SimDuration::from_millis(5))
                .map(|d| d.payload.len())
                .unwrap_or(0),
        }
    })
    .unwrap();
    assert_eq!(report.outputs, vec![0, 100, 100, 0]);
    // Exactly two copies left the switch (one per member port).
    assert_eq!(report.stats.datagrams_delivered, 2);
    // The fan-out classification: one multicast send, no unicasts.
    assert_eq!(report.stats.mcast_datagrams_sent, 1);
    assert_eq!(report.stats.unicast_datagrams_sent, 0);
}

#[test]
fn strict_posted_recv_loses_unsynchronized_multicast() {
    // The paper's §1 failure mode: without scout synchronization, a
    // receiver that has not posted its receive loses the datagram.
    let mut params = NetParams::fast_ethernet_switch();
    params.host.strict_posted_recv = true;
    let cfg = ClusterConfig::new(2, params, 9);
    let result = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        p.join_group(s, GROUP);
        if p.rank() == 0 {
            p.send(s, DatagramDst::Multicast(GROUP), PORT, vec![1; 64]);
        } else {
            // Simulate a slow receiver: compute for 10 ms before receiving.
            p.compute(SimDuration::from_millis(10));
            assert!(
                p.recv_timeout(s, SimDuration::from_millis(20)).is_none(),
                "datagram should have been lost"
            );
        }
    });
    let report = result.unwrap();
    assert_eq!(report.stats.unposted_recv_drops, 1);
}

#[test]
fn rx_buffer_overflow_drops_excess_datagrams() {
    let mut params = NetParams::fast_ethernet_switch();
    params.host.rx_buffer_bytes = 3000;
    let cfg = ClusterConfig::new(2, params, 10);
    let report = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        if p.rank() == 0 {
            // Blast ten 1 kB datagrams at a receiver that never reads.
            for _ in 0..10 {
                p.send(s, DatagramDst::Unicast(HostId(1)), PORT, vec![0; 1000]);
            }
        } else {
            p.compute(SimDuration::from_millis(50));
        }
    })
    .unwrap();
    assert!(report.stats.rx_buffer_drops >= 7, "only ~3 kB fits");
    assert_eq!(
        report.stats.rx_buffer_drops + report.stats.datagrams_delivered,
        10
    );
}

#[test]
fn deadlock_is_detected_and_reported() {
    let cfg = ClusterConfig::new(2, NetParams::fast_ethernet_switch(), 1);
    let err = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        // Everyone receives, nobody sends.
        p.recv(s);
    })
    .unwrap_err();
    match err {
        SimError::Deadlock { detail, .. } => {
            assert!(detail.contains("rank 0"));
            assert!(detail.contains("rank 1"));
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn rank_panic_aborts_cleanly() {
    let cfg = ClusterConfig::new(3, NetParams::fast_ethernet_switch(), 1);
    let err = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        if p.rank() == 2 {
            panic!("boom");
        }
        p.recv(s);
    })
    .unwrap_err();
    assert!(matches!(err, SimError::RankPanicked { rank: 2, .. }));
}

/// The world clock only moves while every rank is blocked, so a rank that
/// never blocks has to be held to the time limit on its own clock: before
/// that check this run spun in wall time forever (the network, which would
/// deliver to rank 0, only advances once nobody is running).
#[test]
fn time_limit_stops_a_rank_that_never_blocks() {
    for send_only in [false, true] {
        let mut cfg = ClusterConfig::new(2, NetParams::fast_ethernet_switch(), 1);
        cfg.time_limit = SimDuration::from_millis(2);
        let err = run_cluster(&cfg, |mut p| {
            let s = p.bind(PORT);
            if p.rank() == 0 {
                p.recv(s);
            } else if send_only {
                loop {
                    p.send(s, DatagramDst::Unicast(HostId(0)), PORT, vec![0; 8]);
                }
            } else {
                loop {
                    p.compute(SimDuration::from_micros(10));
                }
            }
        })
        .unwrap_err();
        match err {
            SimError::TimeLimitExceeded { limit } => {
                assert_eq!(limit, SimTime::ZERO + SimDuration::from_millis(2));
            }
            other => panic!("expected the time limit, got {other}"),
        }
    }
}

#[test]
fn recv_timeout_fires_when_nothing_arrives() {
    let cfg = ClusterConfig::new(1, NetParams::fast_ethernet_switch(), 1);
    let report = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        let before = p.now();
        let got = p.recv_timeout(s, SimDuration::from_micros(500));
        assert!(got.is_none());
        (p.now() - before).as_nanos()
    })
    .unwrap();
    assert_eq!(report.outputs[0], 500_000);
}

#[test]
fn self_send_uses_loopback_not_wire() {
    let cfg = ClusterConfig::new(1, NetParams::fast_ethernet_switch(), 1);
    let report = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        p.send(s, DatagramDst::Unicast(HostId(0)), PORT, vec![1, 2, 3]);
        p.recv(s).payload.clone()
    })
    .unwrap();
    assert_eq!(report.outputs[0].to_vec(), vec![1, 2, 3]);
    assert_eq!(report.stats.frames_sent, 0, "loopback bypasses the wire");
}

#[test]
fn injected_frame_loss_drops_traffic() {
    let params = NetParams::fast_ethernet_switch().with_loss(1.0);
    let cfg = ClusterConfig::new(2, params, 1);
    let report = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        if p.rank() == 0 {
            p.send(s, DatagramDst::Unicast(HostId(1)), PORT, vec![0; 100]);
        } else {
            assert!(p.recv_timeout(s, SimDuration::from_millis(5)).is_none());
        }
    })
    .unwrap();
    assert_eq!(report.stats.injected_frame_losses, 1);
    assert_eq!(report.stats.datagrams_delivered, 0);
}

#[test]
fn makespan_is_max_completion_time() {
    let cfg = ClusterConfig::new(3, NetParams::fast_ethernet_switch(), 1);
    let report = run_cluster(&cfg, |mut p| {
        p.compute(SimDuration::from_micros(100 * (p.rank() as u64 + 1)));
    })
    .unwrap();
    assert_eq!(report.makespan, SimTime::from_micros(300));
    assert_eq!(report.completion_times.len(), 3);
    assert!(report
        .completion_times
        .iter()
        .all(|t| *t <= report.makespan));
}

#[test]
fn hub_fabric_delivers_multicast_without_switch_tables() {
    // On the hub multicast is physically broadcast; the NIC filter decides.
    let cfg = ClusterConfig::new(3, NetParams::fast_ethernet_hub(), 2);
    let report = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        if p.rank() != 2 {
            p.join_group(s, GROUP);
        }
        match p.rank() {
            0 => {
                p.send(s, DatagramDst::Multicast(GROUP), PORT, vec![1; 300]);
                true
            }
            1 => p.recv(s).payload.len() == 300,
            _ => p.recv_timeout(s, SimDuration::from_millis(5)).is_none(),
        }
    })
    .unwrap();
    assert_eq!(report.outputs, vec![true, true, true]);
}

#[test]
fn runtime_igmp_join_registers_with_switch() {
    let params = NetParams::fast_ethernet_switch();
    assert!(matches!(params.fabric, FabricKind::Switch(_)));
    let cfg = ClusterConfig::new(2, params, 2);
    let report = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        if p.rank() == 1 {
            // Join at runtime via IGMP, then tell rank 0 we are ready.
            p.join_group_igmp(s, GROUP);
            p.send(s, DatagramDst::Unicast(HostId(0)), PORT, vec![]);
            p.recv(s).payload.len()
        } else {
            p.recv(s); // wait for join notification
            p.send(s, DatagramDst::Multicast(GROUP), PORT, vec![3; 200]);
            0
        }
    })
    .unwrap();
    assert_eq!(report.outputs[1], 200);
}
