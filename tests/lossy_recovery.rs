//! The headline fault-tolerance guarantee: the multicast collectives
//! complete with *correct results* on a fabric that drops, duplicates and
//! reorders frames, because the NACK/retransmit repair loop recovers
//! every lost message (`docs/PROTOCOL.md`). The kitchen-sink digest of a
//! lossy simulated run must equal the digest of a lossless in-memory run
//! — and the run's `WorldStats` must show the faults actually happened.

use mcast_mpi::core::{combine_u64_sum, CollRequest, Communicator};
use mcast_mpi::netsim::cluster::ClusterConfig;
use mcast_mpi::netsim::ids::HostId;
use mcast_mpi::netsim::params::{FaultParams, NetParams};
use mcast_mpi::netsim::time::{SimDuration, SimTime};
use mcast_mpi::netsim::topology::TopologyScript;
use mcast_mpi::transport::{run_mem_world, run_sim_world_stats, Comm, RepairConfig, SimCommConfig};

/// Every multicast-family collective the paper cares about; returns a
/// digest all backends must agree on.
fn kitchen_sink<C: Comm>(c: C) -> u64 {
    let mut comm = Communicator::new(c);
    let me = comm.rank();
    let n = comm.size();

    let mut buf = if me == 0 {
        vec![3u8; 2048]
    } else {
        vec![0; 2048]
    };
    comm.bcast(0, &mut buf).unwrap();
    let mut digest = buf.iter().map(|&b| b as u64).sum::<u64>();

    comm.barrier().unwrap();

    let gathered = comm.gather(1 % n, &[me as u8]).unwrap();
    if let Some(parts) = gathered {
        digest += parts.iter().map(|p| p[0] as u64).sum::<u64>();
    }

    let summed = comm
        .allreduce((me as u64 + 1).to_le_bytes().to_vec(), &combine_u64_sum)
        .unwrap();
    digest += u64::from_le_bytes(summed[..8].try_into().unwrap());

    let everyone = comm.allgather(&[me as u8; 3]).unwrap();
    digest += everyone.iter().map(|p| p[0] as u64).sum::<u64>();

    digest
}

/// The kitchen sink through the request-based API (ISSUE 5): ibcast,
/// ibarrier + iallgather genuinely in flight together, blocking calls
/// for the rest. Digest-identical to [`kitchen_sink`] by construction.
fn kitchen_sink_requests<C: Comm>(c: C) -> u64 {
    let mut comm = Communicator::new(c);
    let me = comm.rank();
    let n = comm.size();

    let buf0 = if me == 0 {
        vec![3u8; 2048]
    } else {
        vec![0; 2048]
    };
    let buf = comm.ibcast(0, buf0).wait(comm.transport_mut()).unwrap();
    let mut digest = buf.iter().map(|&b| b as u64).sum::<u64>();

    let gathered = comm.gather(1 % n, &[me as u8]).unwrap();
    if let Some(parts) = gathered {
        digest += parts.iter().map(|p| p[0] as u64).sum::<u64>();
    }

    let summed = comm
        .allreduce((me as u64 + 1).to_le_bytes().to_vec(), &combine_u64_sum)
        .unwrap();
    digest += u64::from_le_bytes(summed[..8].try_into().unwrap());

    let mut bar = comm.ibarrier();
    let mut gather = comm.iallgather(&[me as u8; 3]);
    let t = comm.transport_mut();
    let (mut bar_done, mut gather_done) = (false, false);
    let mut everyone = Vec::new();
    while !(bar_done && gather_done) {
        if !bar_done {
            bar_done = bar.poll(t).unwrap();
        }
        if !gather_done && gather.poll(t).unwrap() {
            gather_done = true;
            everyone = gather.take_output();
        }
        if !(bar_done && gather_done) {
            t.progress_block();
        }
    }
    digest += everyone.iter().map(|p| p[0] as u64).sum::<u64>();

    digest
}

fn lossy_cluster(n: usize, loss: f64, seed: u64) -> ClusterConfig {
    ClusterConfig::new(n, NetParams::fast_ethernet_switch().with_loss(loss), seed)
}

/// Acceptance (ISSUE 5): the request-based path recovers losses exactly
/// like the blocking one — lossy sim digests equal the lossless mem
/// digests, with every posted receive's repair state driven by the one
/// progress engine (collectives here hold several receives posted at
/// once while parked).
#[test]
fn request_api_digest_survives_ten_percent_loss() {
    for (n, seed) in [(4usize, 1u64), (8, 1), (16, 1)] {
        let mem = run_mem_world(n, 0, kitchen_sink);
        let (report, stats) = run_sim_world_stats(
            &lossy_cluster(n, 0.10, seed),
            &SimCommConfig::default().with_repair(),
            kitchen_sink_requests,
        )
        .unwrap_or_else(|e| panic!("lossy request-path run failed at n={n}: {e:?}"));
        assert_eq!(report.outputs, mem, "digest mismatch at n={n}");
        assert!(
            stats.net.injected_frame_losses > 0 && stats.repair.retransmits_sent > 0,
            "the run must actually lose and recover (n={n}: {:?})",
            stats.repair
        );
    }
}

/// The ring formulations under loss — blocking and request-based ring
/// allgather plus the scatter–allgather broadcast. These are the
/// order-sensitive shapes: a NACK-recovered block completes *after*
/// blocks that arrived intact, so any forward-by-position rule silently
/// corrupts the output (or wedges the ring). Forwarding is decided by
/// block identity instead; this sweep pins it across seeds at 25%
/// per-link loss, where the reordering actually happens.
#[test]
fn ring_collectives_survive_heavy_loss() {
    let mem = run_mem_world(4, 0, ring_workload);
    for seed in 1u64..=6 {
        let (report, stats) = run_sim_world_stats(
            &lossy_cluster(4, 0.25, seed),
            &SimCommConfig::default().with_repair(),
            ring_workload,
        )
        .unwrap_or_else(|e| panic!("lossy ring run failed at seed={seed}: {e:?}"));
        assert_eq!(report.outputs, mem, "ring digest mismatch at seed={seed}");
        assert!(
            stats.net.injected_frame_losses > 0 && stats.repair.retransmits_sent > 0,
            "25% loss must lose and recover (seed={seed})"
        );
    }
}

/// Backend-generic body of [`ring_collectives_survive_heavy_loss`]:
/// blocking and request-based ring allgather + scatter–allgather bcast.
fn ring_workload<C: Comm>(c: C) -> u64 {
    let mut comm = Communicator::new(c)
        .with_allgather(mcast_mpi::core::AllgatherAlgorithm::Ring)
        .with_bcast(mcast_mpi::core::BcastAlgorithm::ScatterAllgather);
    let me = comm.rank();

    let parts = comm.allgather(&vec![me as u8 + 1; 700 + me]).unwrap();
    let mut digest: u64 = parts
        .iter()
        .enumerate()
        .map(|(src, p)| (src as u64 + 1) * p.iter().map(|&b| b as u64).sum::<u64>())
        .sum();
    let mut buf = if me == 0 {
        vec![0xC3; 3000]
    } else {
        vec![0; 3000]
    };
    comm.bcast(0, &mut buf).unwrap();
    digest += buf.iter().map(|&b| b as u64).sum::<u64>();

    let req = comm.iallgather(&vec![me as u8 + 1; 700 + me]);
    let parts = req.wait(comm.transport_mut()).unwrap();
    digest += parts
        .iter()
        .enumerate()
        .map(|(src, p)| (src as u64 + 1) * p.iter().map(|&b| b as u64).sum::<u64>())
        .sum::<u64>();
    let ibuf = if me == 0 {
        vec![0x3C; 3000]
    } else {
        Vec::new()
    };
    let req = comm.ibcast(0, ibuf);
    let out = req.wait(comm.transport_mut()).unwrap();
    digest += out.iter().map(|&b| b as u64).sum::<u64>();
    digest
}

/// One multicast allgather of `[rank; 3]` blocks at 5 % loss, through
/// `iallgather(..).wait(..)` or the blocking `allgather`, under a 2 s
/// virtual time limit. Returns each rank's parts, the makespan in
/// nanoseconds and the `World` events handled.
fn mcast_allgather_at_five_percent(n: usize, nonblocking: bool) -> (Vec<Vec<Vec<u8>>>, u64, u64) {
    let mut cluster = lossy_cluster(n, 0.05, 0x5E12_7ED1);
    cluster.time_limit = SimDuration::from_secs(2);
    let cfg = SimCommConfig {
        repair: Some(RepairConfig::sim_default().with_seed(11)),
        ..Default::default()
    };
    let (report, _) = run_sim_world_stats(&cluster, &cfg, move |c| {
        let mut comm = Communicator::new(c);
        let mine = [comm.rank() as u8; 3];
        if nonblocking {
            comm.iallgather(&mine).wait(comm.transport_mut()).unwrap()
        } else {
            comm.allgather(&mine).unwrap()
        }
    })
    .unwrap_or_else(|e| panic!("n={n} nonblocking={nonblocking}: {e:?}"));
    (
        report.outputs,
        report.makespan.as_nanos(),
        report.events_handled,
    )
}

/// The multicast `iallgather` livelock regression. When the request
/// machine posted all `N-1` receives upfront, every one solicited repair
/// at once, and at N ≥ 24 under 5 % loss the waited machine never
/// completed: it ran into the 2 s virtual time limit, while the blocking
/// allgather finished in a fraction of that. The machine now posts its
/// receives in rank order, one at a time, so the request path is the
/// blocking path: identical parts, makespan and event count.
#[test]
fn mcast_iallgather_completes_under_five_percent_loss() {
    for (n, makespan_ns, events) in [
        (24usize, 219_078_753u64, 4_076u64),
        (32, 295_842_137, 8_227),
    ] {
        let (parts, end, handled) = mcast_allgather_at_five_percent(n, true);
        for (rank, got) in parts.iter().enumerate() {
            let want: Vec<Vec<u8>> = (0..n).map(|src| vec![src as u8; 3]).collect();
            assert_eq!(got, &want, "n={n} rank={rank}");
        }
        assert_eq!(
            (end, handled),
            (makespan_ns, events),
            "n={n}: virtual makespan and World events"
        );
        let (_, blocking_end, blocking_handled) = mcast_allgather_at_five_percent(n, false);
        assert_eq!((end, handled), (blocking_end, blocking_handled), "n={n}");
    }
}

/// The chain-bcast ordering regression (this PR's bugfix): the pipelined
/// chain used to assemble segments in *receive order* and stop at the
/// first short segment — both of which a NACK-recovered segment breaks,
/// since it completes after segments sent later. Segments now carry
/// explicit `[index, count]` framing and assemble by identity; this
/// sweep pins it at 25% per-link loss across the same seeds as the ring
/// sweep, with a position-weighted digest so a scrambled-but-complete
/// payload cannot pass.
#[test]
fn chain_bcast_survives_heavy_loss() {
    let mem = run_mem_world(4, 0, chain_workload);
    for seed in 1u64..=6 {
        let (report, stats) = run_sim_world_stats(
            &lossy_cluster(4, 0.25, seed),
            &SimCommConfig::default().with_repair(),
            chain_workload,
        )
        .unwrap_or_else(|e| panic!("lossy chain run failed at seed={seed}: {e:?}"));
        assert_eq!(report.outputs, mem, "chain digest mismatch at seed={seed}");
        assert!(
            stats.net.injected_frame_losses > 0 && stats.repair.retransmits_sent > 0,
            "25% loss must lose and recover (seed={seed})"
        );
    }
}

/// Backend-generic body of [`chain_bcast_survives_heavy_loss`]: two
/// pipelined chains (zero and nonzero root, distinct op slots), digest
/// weighted by byte position.
fn chain_workload<C: Comm>(c: C) -> u64 {
    use mcast_mpi::core::BcastAlgorithm;

    let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::Chain);
    let me = comm.rank();
    let mut buf = if me == 0 {
        (0..5000u32).map(|i| (i % 251) as u8).collect()
    } else {
        Vec::new()
    };
    comm.bcast_cfg.chain_segment_bytes = 512;
    comm.bcast(0, &mut buf).unwrap();
    let digest: u64 = buf
        .iter()
        .enumerate()
        .map(|(i, &b)| (i as u64 + 1) * b as u64)
        .sum();

    let mut buf2 = if me == 2 {
        (0..2048u32).map(|i| (i % 119) as u8).collect()
    } else {
        Vec::new()
    };
    comm.bcast_cfg.chain_segment_bytes = 300;
    comm.bcast(2, &mut buf2).unwrap();
    digest
        + buf2
            .iter()
            .enumerate()
            .map(|(i, &b)| (i as u64 + 1) * b as u64)
            .sum::<u64>()
}

/// The acceptance sweep: mem (lossless) and sim-with-10%-loss agree on
/// the kitchen-sink digest at N ∈ {2, 4, 8}, and the lossy runs really
/// were lossy (nonzero drops) and really recovered (nonzero retransmits).
#[test]
fn kitchen_sink_digest_survives_ten_percent_loss() {
    // Seeds chosen so every size actually loses frames (a 2-rank kitchen
    // sink puts few enough frames on the wire that some seeds sail
    // through 10% loss untouched); determinism makes the choice stable.
    for (n, seed) in [(2usize, 7u64), (4, 1), (8, 1)] {
        let mem = run_mem_world(n, 0, kitchen_sink);
        let (report, stats) = run_sim_world_stats(
            &lossy_cluster(n, 0.10, seed),
            &SimCommConfig::default().with_repair(),
            kitchen_sink,
        )
        .unwrap_or_else(|e| panic!("lossy sim run failed at n={n}: {e:?}"));
        assert_eq!(report.outputs, mem, "digest mismatch at n={n}");
        assert!(
            stats.net.injected_frame_losses > 0,
            "10% loss must actually drop frames (n={n})"
        );
        assert!(
            stats.total_drops() > 0,
            "WorldStats must report the drops (n={n})"
        );
        assert!(
            stats.repair.retransmits_sent > 0,
            "recovery must have retransmitted (n={n})"
        );
        // One multicast NACK may be legitimately *received* by every
        // peer it addresses (any-source solicits address all of them),
        // but nobody can service more NACK deliveries than n-1 per sent.
        assert!(
            stats.repair.nacks_received <= stats.repair.nacks_sent * (n as u64 - 1).max(1),
            "NACKs can be lost or fanned out, never invented (n={n})"
        );
    }
}

/// Loss-rate sweep at the three rates the loss figures use: 0% stays
/// repair-clean (no drops, no retransmits), 1% and 10% recover.
#[test]
fn loss_rate_sweep_recovers_at_every_rate() {
    let n = 4;
    let mem = run_mem_world(n, 0, kitchen_sink);
    for loss in [0.0, 0.01, 0.10] {
        let (report, stats) = run_sim_world_stats(
            &lossy_cluster(n, loss, 0x5EED),
            &SimCommConfig::default().with_repair(),
            kitchen_sink,
        )
        .unwrap_or_else(|e| panic!("sim run failed at loss={loss}: {e:?}"));
        assert_eq!(report.outputs, mem, "digest mismatch at loss={loss}");
        if loss == 0.0 {
            assert_eq!(stats.net.injected_frame_losses, 0);
            assert_eq!(stats.repair.retransmits_sent, 0, "nothing to repair");
        } else if loss >= 0.05 {
            // At 1% a short run may legitimately drop nothing; at 10%
            // this seed is known (deterministically) to lose frames.
            assert!(stats.net.injected_frame_losses > 0, "loss={loss}");
        }
    }
}

/// Duplication and bounded reordering are correctness-invisible: dedup
/// and tag matching absorb them without repair traffic being required
/// (repair stays enabled to prove the paths coexist).
#[test]
fn duplication_and_reordering_are_absorbed() {
    let n = 5;
    let mem = run_mem_world(n, 0, kitchen_sink);
    let faults = FaultParams {
        dup_prob: 0.10,
        reorder_prob: 0.10,
        reorder_max_delay: SimDuration::from_micros(200),
        ..Default::default()
    };
    let params = NetParams::fast_ethernet_switch().with_faults(faults);
    let (report, stats) = run_sim_world_stats(
        &ClusterConfig::new(n, params, 0xD0_5EED),
        &SimCommConfig::default().with_repair(),
        kitchen_sink,
    )
    .expect("dup/reorder run failed");
    assert_eq!(report.outputs, mem);
    assert!(stats.net.injected_duplicates > 0, "dup knob must fire");
    assert!(stats.net.injected_reorders > 0, "reorder knob must fire");
}

/// The SRM scale-out acceptance sweep (ISSUE 4): at N ∈ {16, 32} under
/// 10% loss, (a) the lossy digests still equal the lossless mem backend,
/// (b) suppression keeps the NACK solicits under an absolute ceiling
/// taken from the last run of the unicast solicit/answer protocol PR 20
/// deleted — 274 solicits at N = 16 and 850 at N = 32 at these seeds
/// (suppression sent 81 and 144; `BENCH_4.json` has the full on/off
/// sweep): strictly fewer at N = 16, ≥2× fewer (≤ 425) at N = 32 — and
/// (c) a lossy run replays byte-identically (the randomized backoff is
/// drawn from a seeded stream, so `WorldStats` is a pure function of the
/// config).
#[test]
fn srm_suppression_scales_and_replays() {
    for (n, seed, nack_ceiling) in [(16usize, 1u64, 273u64), (32, 1, 425)] {
        let mem = run_mem_world(n, 0, kitchen_sink);
        let run = || {
            let cfg = SimCommConfig::default().with_repair();
            run_sim_world_stats(&lossy_cluster(n, 0.10, seed), &cfg, kitchen_sink)
                .unwrap_or_else(|e| panic!("lossy run failed at n={n}: {e:?}"))
        };

        let (r_on, s_on) = run();
        assert_eq!(r_on.outputs, mem, "digest mismatch (n={n})");
        assert!(
            s_on.net.injected_frame_losses > 0 && s_on.repair.retransmits_sent > 0,
            "the sweep must actually lose and recover (n={n})"
        );

        // (b) Suppression pays, and the suppression machinery visibly
        // fired.
        assert!(
            s_on.repair.nacks_sent <= nack_ceiling,
            "suppression must keep solicits under the ceiling (n={n}: {} vs {nack_ceiling})",
            s_on.repair.nacks_sent,
        );
        assert!(
            s_on.repair.nacks_suppressed > 0 && s_on.repair.nacks_overheard > 0,
            "suppression counters must fire (n={n})"
        );

        // (c) Byte-identical replay, randomized backoff included.
        let (r2, s2) = run();
        assert_eq!(
            r_on.completion_times, r2.completion_times,
            "timing replay (n={n})"
        );
        assert_eq!(
            format!("{:?}{:?}", s_on.net, s_on.repair),
            format!("{:?}{:?}", s2.net, s2.repair),
            "WorldStats must replay byte-identically (n={n})"
        );
    }
}

/// The drain-grace regression (ISSUE 4): `drain_grace` used to be a
/// fixed constant, but a straggler can legitimately spend
/// `~n × nack_timeout` chaining recoveries before posting the receive
/// that needs the origin's final message. At n=16 / 10% loss this
/// scenario — rank 0 multicasts its final message and exits while ranks
/// wake staggered, the last past the old 50 ms constant — loses
/// stragglers with the grace pinned to the constant (`drain_grace_cap`
/// = `drain_grace` leaves the scaling no room) and recovers everyone
/// with the group-size-derived grace.
#[test]
fn drain_grace_scales_with_group_size() {
    const FINAL: u32 = 900;
    let n = 16;
    let run = |pinned: bool| {
        let mut cfg = SimCommConfig::default();
        let mut rc = RepairConfig::sim_default();
        if pinned {
            rc.drain_grace_cap = rc.drain_grace;
        }
        cfg.repair = Some(rc);
        // Seed 23: two stragglers (ranks 10 and 15) deterministically
        // lose the final multicast and wake after the old constant.
        let cluster = lossy_cluster(n, 0.10, 23);
        let (report, _) = run_sim_world_stats(&cluster, &cfg, |mut c| {
            if c.rank() == 0 {
                c.mcast(FINAL, vec![0x5A_u8; 600]);
                true
            } else {
                // Staggered wakeup models the chained earlier-round
                // recoveries of the documented worst case: the last rank
                // posts its receive 75 ms in — past the old 50 ms grace.
                c.compute(std::time::Duration::from_millis(5) * c.rank() as u32);
                let req = c.post_recv(Some(0), FINAL);
                let timeout = std::time::Duration::from_millis(300);
                matches!(c.wait_deadline(req, timeout), Ok(Some(_)))
            }
        })
        .expect("drain scenario must not deadlock");
        report.outputs
    };

    let old = run(true);
    assert!(
        old.iter().any(|ok| !ok),
        "the fixed 50 ms constant must lose a straggler (else this \
         regression no longer provokes the bug)"
    );
    let scaled = run(false);
    assert!(
        scaled.iter().all(|ok| *ok),
        "the group-size-derived grace must recover every straggler: {scaled:?}"
    );
}

/// A one-shot partition early in the run delays but does not corrupt the
/// collectives: NACK recovery re-fetches everything once the cut heals.
#[test]
fn one_shot_partition_heals_and_recovers() {
    let n = 4;
    let mem = run_mem_world(n, 0, kitchen_sink);
    let faults = FaultParams {
        topology: TopologyScript::partition_window(
            SimTime::from_micros(200),
            SimDuration::from_millis(3),
            vec![HostId(1)],
        ),
        ..Default::default()
    };
    let params = NetParams::fast_ethernet_switch().with_faults(faults);
    let (report, stats) = run_sim_world_stats(
        &ClusterConfig::new(n, params, 0x9A87_1710),
        &SimCommConfig::default().with_repair(),
        kitchen_sink,
    )
    .expect("partitioned run failed");
    assert_eq!(report.outputs, mem);
    assert!(stats.net.partition_drops > 0, "the cut must drop frames");
    assert!(stats.repair.retransmits_sent > 0, "healing needs repair");
}
