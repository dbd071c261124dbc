//! The adaptive repair control plane (`docs/PROTOCOL.md` §9): per-peer
//! RTT estimation off the ACK-horizon session messages, RTT-derived
//! solicitation timers, ring garbage collection from acknowledged
//! frontiers, and send-window back-pressure. Everything here runs on
//! the simulator, so the estimates come from the virtual clock and the
//! seeded streams — lossy runs replay byte-identically with the whole
//! plane enabled.

use std::time::Duration;

use mcast_mpi::core::{expect_coll, BcastAlgorithm, Communicator};
use mcast_mpi::netsim::cluster::ClusterConfig;
use mcast_mpi::netsim::ids::HostId;
use mcast_mpi::netsim::params::{FaultParams, NetParams};
use mcast_mpi::netsim::time::SimDuration;
use mcast_mpi::transport::{run_sim_world_stats, Comm, RecvError, RepairConfig, SimCommConfig};

/// A fault plan with uniform loss plus heterogeneous per-link extra
/// delay: host `h` receives every frame `extra[h]` late. Host 0 always
/// stays fast so its measurements are one-sided.
fn heterogeneous_faults(loss: f64, extra: &[(usize, Duration)]) -> FaultParams {
    FaultParams {
        drop_prob: loss,
        per_link_extra_delay: extra
            .iter()
            .map(|&(h, d)| {
                (
                    HostId(h as u32),
                    SimDuration::from_nanos(d.as_nanos() as u64),
                )
            })
            .collect(),
        ..Default::default()
    }
}

/// The adaptive plane at its default cadence (horizons every
/// `4 × nack_timeout`). Small-world tests shorten the interval; the
/// large-N tests keep it — every endpoint multicasts a session message
/// per period, so the cadence scales the simulator's event volume by
/// `n²`.
fn adaptive_repair(seed: u64) -> RepairConfig {
    RepairConfig::sim_default().with_seed(seed).with_adaptive()
}

/// Satellite: the per-peer solicitation timers must *order with the
/// configured link delays* — a peer behind an 8 ms link earns a longer
/// NACK timeout than one behind 2 ms, which earns longer than an
/// undelayed peer — and the whole adaptive run must replay
/// byte-identically (estimates are virtual-clock functions of the
/// seeded config, nothing wall-clock leaks in).
#[test]
fn adaptive_timers_order_with_link_delays_and_replay() {
    let delays = [
        (2usize, Duration::from_millis(2)),
        (3usize, Duration::from_millis(8)),
    ];
    let run = || {
        let cfg = SimCommConfig {
            repair: Some(adaptive_repair(11).with_horizon_interval(Duration::from_micros(500))),
            ..Default::default()
        };
        let params =
            NetParams::fast_ethernet_switch().with_faults(heterogeneous_faults(0.05, &delays));
        run_sim_world_stats(&ClusterConfig::new(4, params, 11), &cfg, |c| {
            let mut comm = Communicator::new(c);
            for round in 0..12u8 {
                let mut buf = if comm.rank() == 0 {
                    vec![round; 1200]
                } else {
                    vec![0u8; 1200]
                };
                expect_coll(comm.bcast(0, &mut buf));
                assert!(buf.iter().all(|&b| b == round), "bcast corrupted");
                expect_coll(comm.barrier());
            }
            // Rank 0's learned per-peer timers, in nanoseconds.
            let c = comm.transport_mut();
            (1..4)
                .map(|p| c.peer_nack_timeout(p).map(|d| d.as_nanos() as u64))
                .collect::<Vec<_>>()
        })
        .expect("adaptive heterogeneous run failed")
    };

    let (report, stats) = run();
    assert!(
        stats.repair.horizons_sent > 0 && stats.repair.horizons_received > 0,
        "the session-message plane must be live: {:?}",
        stats.repair
    );
    assert!(
        stats.repair.rtt_samples > 0,
        "echoes must have produced RTT samples"
    );
    let timers = &report.outputs[0];
    let t = |p: usize| {
        timers[p - 1].unwrap_or_else(|| panic!("rank 0 never estimated peer {p}: {timers:?}"))
    };
    assert!(
        t(1) < t(2) && t(2) < t(3),
        "timers must order with the configured link delays \
         (t1={} t2={} t3={})",
        t(1),
        t(2),
        t(3)
    );

    // Byte-identical replay with the full adaptive plane on.
    let (r2, s2) = run();
    assert_eq!(report.outputs, r2.outputs, "estimates must replay");
    assert_eq!(
        report.completion_times, r2.completion_times,
        "timing must replay"
    );
    assert_eq!(
        format!("{:?}{:?}", stats.net, stats.repair),
        format!("{:?}{:?}", s2.net, s2.repair),
        "WorldStats must replay byte-identically with adaptivity on"
    );
}

/// The tentpole gate: the §8 NACK-storm scenario at N = 64 — multicast
/// broadcast plus barrier at 10% loss — but on *heterogeneous* links
/// (a quarter of the hosts sit behind 4–12 ms extra delay, far past the
/// fixed 2 ms solicitation timer). The fixed timers fire long before
/// slow-link traffic can arrive, soliciting repairs nobody needed;
/// the RTT-adapted timers stretch per peer and cut both solicits and
/// retransmissions, strictly, at the same seed.
#[test]
fn adaptive_timers_beat_fixed_on_heterogeneous_links_at_n64() {
    let n = 64;
    let extra: Vec<(usize, Duration)> = (0..n)
        .filter(|h| h % 4 == 3)
        .map(|h| (h, Duration::from_millis(4 * (1 + (h / 16) as u64))))
        .collect();
    let run = |adaptive: bool| {
        let cfg = SimCommConfig {
            repair: Some(if adaptive {
                adaptive_repair(1)
            } else {
                RepairConfig::sim_default().with_seed(1)
            }),
            ..Default::default()
        };
        let params =
            NetParams::fast_ethernet_switch().with_faults(heterogeneous_faults(0.10, &extra));
        run_sim_world_stats(&ClusterConfig::new(n, params, 1), &cfg, |c| {
            let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::McastBinary);
            for round in 0..3u8 {
                let mut buf = if comm.rank() == 0 {
                    vec![round; 3000]
                } else {
                    vec![0u8; 3000]
                };
                expect_coll(comm.bcast(0, &mut buf));
                assert!(buf.iter().all(|&b| b == round), "bcast corrupted");
                expect_coll(comm.barrier());
            }
            true
        })
        .unwrap_or_else(|e| panic!("storm trial failed (adaptive={adaptive}): {e:?}"))
    };

    let (r_fixed, s_fixed) = run(false);
    let (r_adapt, s_adapt) = run(true);
    assert!(r_fixed.outputs.iter().all(|&ok| ok));
    assert!(r_adapt.outputs.iter().all(|&ok| ok));
    assert!(
        s_fixed.net.injected_frame_losses > 0 && s_fixed.repair.retransmits_sent > 0,
        "the gate must actually lose and recover"
    );
    let (fixed_cost, adapt_cost) = (
        s_fixed.repair.nacks_sent + s_fixed.repair.retransmits_sent,
        s_adapt.repair.nacks_sent + s_adapt.repair.retransmits_sent,
    );
    assert!(
        adapt_cost < fixed_cost,
        "adaptive timers must strictly reduce solicits+retransmits on \
         heterogeneous links (adaptive {} = {}+{}, fixed {} = {}+{})",
        adapt_cost,
        s_adapt.repair.nacks_sent,
        s_adapt.repair.retransmits_sent,
        fixed_cost,
        s_fixed.repair.nacks_sent,
        s_fixed.repair.retransmits_sent,
    );
    assert!(
        s_adapt.repair.rtt_samples > 0,
        "adaptivity must actually have fired"
    );
}

/// ACK-horizon garbage collection plus send-window back-pressure: a
/// sender blasting a long unicast stream through a tiny retransmit ring
/// *must* hit `Unavailable` when a loss outlives the ring (capacity
/// eviction is the only bound) — and must *never* hit it with the send
/// window armed, because back-pressure keeps unacknowledged history
/// inside the ring until the receiver's frontier frees it.
#[test]
fn send_window_prevents_unavailable_where_capacity_eviction_fails() {
    const TAG: u32 = 77;
    const MSGS: usize = 64;
    let run = |window: bool| {
        let mut rc = RepairConfig::sim_default().with_seed(5);
        rc.buffer_cap = 8;
        if window {
            rc = rc
                .with_send_window(4 * 1024)
                .with_horizon_interval(Duration::from_micros(500));
        }
        let cfg = SimCommConfig {
            repair: Some(rc),
            ..Default::default()
        };
        let params = NetParams::fast_ethernet_switch().with_loss(0.10);
        // Seed 5 is tuned so the baseline leg loses exactly the frames
        // that outlive the 8-record ring yet still lets the run drain.
        let cluster = ClusterConfig::new(2, params, 5);
        run_sim_world_stats(&cluster, &cfg, |mut c| {
            if c.rank() == 0 {
                for i in 0..MSGS {
                    c.send(1, TAG, vec![i as u8; 1024]);
                }
                0u64
            } else {
                let mut unavailable = 0u64;
                for _ in 0..MSGS {
                    let req = c.post_recv(Some(0), TAG);
                    match c.wait(req) {
                        Ok(_) => {}
                        Err(RecvError::Unavailable { .. }) => unavailable += 1,
                        Err(e) => panic!("unexpected recv error: {e:?}"),
                    }
                }
                unavailable
            }
        })
        .unwrap_or_else(|e| panic!("overrun trial failed (window={window}): {e:?}"))
    };

    let (baseline, s_base) = run(false);
    assert!(
        baseline.outputs[1] > 0,
        "without back-pressure the 8-record ring must evict a lost \
         message and answer Unavail (else this gate no longer provokes \
         the failure; stats: {:?})",
        s_base.repair
    );

    let (windowed, s_win) = run(true);
    assert_eq!(
        windowed.outputs[1], 0,
        "back-pressure must keep every lost message recoverable \
         (stats: {:?})",
        s_win.repair
    );
    assert!(
        s_win.repair.send_window_stalls > 0,
        "the window must actually have throttled the sender"
    );
    assert!(
        s_win.repair.acked_records_freed > 0,
        "freed history must come from ACK horizons, not eviction"
    );
    assert!(
        s_win.net.injected_frame_losses > 0 && s_win.repair.retransmits_sent > 0,
        "the windowed run must still lose and recover"
    );
}

/// Satellite: the RTT-derived drain-grace clamp at N = 128 under loss.
/// Rank 0 multicasts its final message and exits immediately; everyone
/// else wakes staggered and must still be able to recover it from rank
/// 0's draining endpoint — with the adaptive plane on, the grace comes
/// from measured per-peer timeouts clamped into the configured band.
#[test]
fn adaptive_drain_grace_recovers_stragglers_at_n128() {
    const FINAL: u32 = 900;
    let n = 128;
    let cfg = SimCommConfig {
        repair: Some(adaptive_repair(23)),
        ..Default::default()
    };
    let params = NetParams::fast_ethernet_switch().with_loss(0.05);
    let (report, stats) = run_sim_world_stats(&ClusterConfig::new(n, params, 23), &cfg, |mut c| {
        if c.rank() == 0 {
            c.mcast(FINAL, vec![0x5A_u8; 600]);
            true
        } else {
            // Staggered wakeup: the last rank posts its receive well
            // past any fixed small constant.
            c.compute(Duration::from_micros(500) * c.rank() as u32);
            let req = c.post_recv(Some(0), FINAL);
            matches!(
                c.wait_deadline(req, Duration::from_millis(300)),
                Ok(Some(_))
            )
        }
    })
    .expect("drain scenario must not deadlock");
    assert!(
        report.outputs.iter().all(|&ok| ok),
        "every straggler must recover the final multicast: {} failed",
        report.outputs.iter().filter(|&&ok| !ok).count()
    );
    assert!(
        stats.net.injected_frame_losses > 0,
        "5% loss at n=128 must drop frames"
    );
}
