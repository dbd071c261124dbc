//! Dynamic membership end-to-end (`docs/PROTOCOL.md` §10): heartbeat
//! failure detection, typed `PeerFailed` errors out of a collective
//! that lost a participant, the ULFM-style `shrink`/retry recovery
//! recipe, and drain-on-leave. Everything runs on the simulator — the
//! detector's timers come off the virtual clock, so a whole
//! kill/detect/shrink/retry run replays byte-identically.

use std::time::Duration;

use mcast_mpi::core::{expect_coll, AllgatherAlgorithm, Communicator};
use mcast_mpi::netsim::cluster::ClusterConfig;
use mcast_mpi::netsim::ids::HostId;
use mcast_mpi::netsim::params::{FaultParams, NetParams};
use mcast_mpi::netsim::time::{SimDuration, SimTime};
use mcast_mpi::netsim::topology::TopologyScript;
use mcast_mpi::transport::{
    run_mem_world, run_sim_world_stats, Comm, RecvError, RepairConfig, SimComm, SimCommConfig,
};

/// Membership-armed repair: the detector on a 4 ms beacon cadence over
/// the stock sim repair plane (2 ms fixed solicitation timer, horizons
/// every 8 ms). Suspicion opens after 16 ms of silence, confirms 12 ms
/// later — fast against the run, but the interval still dominates the
/// longest legitimate quiet gap in these scenarios (5 ms compute
/// slices plus a barrier-repair tail under 10% loss), per the §10
/// sizing rule.
fn member_repair(seed: u64) -> RepairConfig {
    RepairConfig::sim_default()
        .with_seed(seed)
        .with_membership(Duration::from_millis(4))
}

/// Per-world-rank contribution: rank-distinct bytes and length, so a
/// block landing in the wrong slot (or from the wrong epoch) breaks
/// the digest comparison loudly.
fn block_of(world_rank: usize) -> Vec<u8> {
    vec![world_rank as u8 + 1; 24 + world_rank]
}

/// What each rank of the kill scenario reports: the retried allgather
/// blocks, the agreed survivor set, the committed epoch, and the rank
/// the failure error named. The victim reports an empty sentinel.
type KillOutcome = (Vec<Vec<u8>>, Vec<usize>, u32, u32);

/// One kill-mid-iallgather run: `victim` posts its receives (it is
/// inside the collective), then dies without ever multicasting its
/// block — `simulate_crash` retires the endpoint the way a killed
/// process would, and the fabric-level crash drops whatever the
/// survivors keep sending at the corpse. Every survivor's directed
/// receive from the victim fails over to `PeerFailed`, the survivors
/// shrink, and the retried allgather runs over the new group.
fn kill_run(n: usize, victim: usize, seed: u64) -> (Vec<KillOutcome>, Vec<SimTime>, String) {
    let cfg = SimCommConfig {
        repair: Some(member_repair(seed)),
        ..Default::default()
    };
    let faults = FaultParams {
        drop_prob: 0.10,
        // Belt and braces past the warm-up round: by 50 ms (virtual)
        // the victim has long since returned, and everything still
        // aimed at its host is dropped at the final hop.
        topology: TopologyScript::new().crash(SimTime::from_micros(50_000), HostId(victim as u32)),
        ..Default::default()
    };
    let params = NetParams::fast_ethernet_switch().with_faults(faults);
    let (report, stats) = run_sim_world_stats(&ClusterConfig::new(n, params, seed), &cfg, |c| {
        let me = c.rank();
        let mut comm = Communicator::new(c).with_allgather(AllgatherAlgorithm::Multicast);
        // Warm-up round: everyone is alive, the collective completes.
        // The barrier keeps the victim breathing until every rank has
        // finished repairing its warm-up losses — dying earlier would
        // (correctly) strand an unrepaired warm-up block forever.
        let warm = expect_coll(comm.allgather(&block_of(me)));
        assert_eq!(warm.len(), n);
        expect_coll(comm.barrier());
        if me == victim {
            // Enter the next collective (receives posted), then die
            // before contributing our block: no survivor can complete.
            let req = comm.iallgather(&block_of(me));
            drop(req);
            comm.transport_mut().simulate_crash();
            return (Vec::new(), Vec::new(), 0, victim as u32);
        }
        let failed_rank = match comm.allgather(&block_of(me)) {
            Ok(_) => panic!("rank {me}: collective completed despite the dead victim"),
            Err(RecvError::PeerFailed { rank, epoch }) => {
                assert_eq!(epoch, 0, "failure must be reported in the pre-shrink epoch");
                rank
            }
            Err(e) => panic!("rank {me}: expected PeerFailed, got {e}"),
        };
        let mut comm = comm.shrink().expect("survivor agreement must complete");
        let members = comm.transport().members().to_vec();
        let epoch = comm.transport().epoch();
        let blocks = expect_coll(comm.allgather(&block_of(members[comm.rank()])));
        // March virtual time past the 50 ms fabric-level crash: the
        // post-shrink barrier multicasts must be seen dying at the
        // corpse (`crashed_frames` below). The compute slices exercise
        // the busy-rank beacon slicing (a mute 5 ms phase would
        // otherwise stretch the audible period past the suspicion
        // bound), and the closing barriers keep every survivor alive
        // until the slowest finishes its repairs — a rank that tears
        // down early looks dead to a straggler.
        for _ in 0..8 {
            comm.transport_mut().compute(Duration::from_millis(5));
            expect_coll(comm.barrier());
        }
        (blocks, members, epoch, failed_rank)
    })
    .unwrap_or_else(|e| panic!("kill run failed at n={n}: {e:?}"));
    assert!(
        stats.net.injected_frame_losses > 0,
        "10% loss must drop frames"
    );
    assert!(
        stats.net.crashed_frames > 0,
        "the crashed host must have eaten late frames: {:?}",
        stats.net
    );
    assert!(
        stats.repair.suspicions > 0 && stats.repair.failures_confirmed > 0,
        "the detector must have confirmed the victim: {:?}",
        stats.repair
    );
    assert_eq!(
        stats.repair.epoch, 1,
        "the shrink must have committed epoch 1"
    );
    let times = report.completion_times.clone();
    (report.outputs, times, format!("{stats:?}"))
}

/// FNV-1a over the rendered parts of a run's outcome.
fn digest(parts: &[String]) -> u64 {
    parts
        .iter()
        .flat_map(|p| p.bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `digest` of `kill_run(8, 4, 3)`'s outputs, completion times and
/// `WorldStats`, captured before sub-communicators became views inside
/// the endpoint: the kill, the agreement round, the shrunk
/// communicator's retry and its barriers put the same bytes on the
/// fabric at the same virtual instants. It was `0x9445_8ad7_c39d_d84c`
/// until an overheard solicit came to silence ours, and a multicast repair
/// to hold back its repeat, for one solicit timeout instead of two
/// (`docs/PROTOCOL.md` §8): a protocol change that moves the lossy run's
/// repairs, re-recorded once for it. It was `0xf3e3_b761_0707_d006` until
/// the multicast allgather came to multicast its block as soon as its
/// predecessor's is in, with a receive posted for each block it lacks up
/// to two past the highest in hand (`many_to_many.rs`): the interrupted
/// `iallgather` and its retry post and repair in a different order.
/// Re-recorded once for it. It was `0xd24f_4adb_8a34_513a` until a
/// solicit for traffic not sent yet came to stand at its source, whose
/// first send of the tag is followed by a send notice that re-arms a
/// receiver still missing it (`docs/PROTOCOL.md` §8.4): the lossy run's
/// repairs move. Re-recorded once for it. It was `0x5df8_923a_9be5_8982`
/// until a rank that has sent or taken in a solicit lately came to send
/// each one-frame message twice under one seq (`docs/PROTOCOL.md` §8.5):
/// the lossy run's blocks, scouts and releases are copied once it
/// repairs, so its datagrams, repairs and times move. Re-recorded once
/// for it.
const SHRINK_KILL_N8: u64 = 0xbb07_b895_207f_37e1;

/// Full verification of one kill scenario: run it, check every
/// survivor against the lossless mem ground truth, and (optionally)
/// re-run the whole thing to pin byte-identical replay. Returns the
/// run's `digest`.
fn kill_case(n: usize, seed: u64, replay: bool) -> u64 {
    let victim = n / 2;
    let survivors_expected: Vec<usize> = (0..n).filter(|&p| p != victim).collect();
    // The ground truth: the same survivor world on the lossless mem
    // transport, each rank contributing its *pre-shrink* block.
    let mem = run_mem_world(n - 1, 0, |c| {
        let world = survivors_expected[c.rank()];
        let mut comm = Communicator::new(c).with_allgather(AllgatherAlgorithm::Multicast);
        expect_coll(comm.allgather(&block_of(world)))
    });

    let (outputs, times, fingerprint) = kill_run(n, victim, seed);
    for (rank, (blocks, members, epoch, failed)) in outputs.iter().enumerate() {
        if rank == victim {
            continue;
        }
        assert_eq!(
            *failed, victim as u32,
            "rank {rank} blamed the wrong peer (n={n}, seed={seed})"
        );
        assert_eq!(
            members, &survivors_expected,
            "rank {rank} agreed on a different survivor group (n={n}, seed={seed})"
        );
        assert_eq!(
            *epoch, 1,
            "rank {rank} committed the wrong epoch (n={n}, seed={seed})"
        );
        assert_eq!(
            blocks, &mem[0],
            "rank {rank}: retried allgather diverged from the mem ground truth \
             (n={n}, seed={seed})"
        );
    }

    if replay {
        // Byte-identical replay of the whole failure/shrink/retry run.
        let (o2, t2, f2) = kill_run(n, victim, seed);
        assert_eq!(outputs, o2, "outputs must replay (n={n})");
        assert_eq!(times, t2, "completion times must replay (n={n})");
        assert_eq!(fingerprint, f2, "WorldStats must replay (n={n})");
    }
    digest(&[format!("{outputs:?}"), format!("{times:?}"), fingerprint])
}

/// The acceptance gate: kill a rank mid-`iallgather` at 10% loss.
/// Survivors all see `PeerFailed` naming the victim, agree on an
/// identical survivor group, and the retried collective's output
/// matches a lossless mem-transport world of the survivors — then the
/// whole failure/shrink/retry run replays byte-identically.
#[test]
fn kill_mid_iallgather_survivors_shrink_and_retry() {
    let n8 = kill_case(8, 3, true);
    println!("SHRINK_KILL_N8: {n8:#018x}");
    assert_eq!(n8, SHRINK_KILL_N8);
    kill_case(16, 3, true);
}

/// The CI chaos sweep: `MMPI_CHAOS_SEEDS="1,2,…"` re-runs the n=16
/// kill scenario under every listed seed (the workflow sweeps six
/// seeds). Replay is skipped per seed — determinism is pinned by the
/// gate above and by `tests/determinism.rs` — so the sweep buys
/// fault-pattern coverage, not repetition. A no-op without the env var, keeping the
/// local tier-1 run fast.
#[test]
fn chaos_seed_sweep_from_env() {
    let Ok(seeds) = std::env::var("MMPI_CHAOS_SEEDS") else {
        return;
    };
    for seed in seeds.split(',') {
        let seed: u64 = seed
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("MMPI_CHAOS_SEEDS entry {seed:?}: {e}"));
        eprintln!("chaos sweep: n=16 seed={seed}");
        kill_case(16, seed, false);
    }
}

/// No false positives: peers behind heterogeneous 4–12 ms links stay
/// quiet for a long stretch with only the beacon cadence proving them
/// alive. The 8 ms heartbeat interval dominates the worst link delay
/// (the §10 sizing rule), so not a single suspicion opens.
#[test]
fn slow_links_and_long_quiet_run_raise_no_suspicion() {
    let n = 6;
    let cfg = SimCommConfig {
        repair: Some(
            RepairConfig::sim_default()
                .with_seed(7)
                .with_membership(Duration::from_millis(8)),
        ),
        ..Default::default()
    };
    let extra: Vec<(HostId, SimDuration)> = [(1usize, 4u64), (3, 8), (5, 12)]
        .iter()
        .map(|&(h, ms)| (HostId(h as u32), SimDuration::from_nanos(ms * 1_000_000)))
        .collect();
    let params = NetParams::fast_ethernet_switch().with_faults(FaultParams {
        per_link_extra_delay: extra,
        ..Default::default()
    });
    let (report, stats) = run_sim_world_stats(&ClusterConfig::new(n, params, 7), &cfg, |c| {
        let mut comm = Communicator::new(c);
        expect_coll(comm.barrier());
        // A long quiet stretch: no collectives, just the progress pump
        // keeping the beacon schedule honest while virtual time runs.
        for _ in 0..60 {
            comm.transport_mut().progress();
            comm.transport_mut().compute(Duration::from_millis(2));
        }
        expect_coll(comm.barrier());
        let t = comm.transport();
        (t.failed_peers().is_empty(), t.departed_peers().is_empty())
    })
    .expect("quiet heterogeneous run failed");
    assert!(
        report.outputs.iter().all(|&(f, d)| f && d),
        "no peer may be declared failed or departed: {:?}",
        report.outputs
    );
    assert_eq!(
        stats.repair.suspicions, 0,
        "slow links must never open a suspicion: {:?}",
        stats.repair
    );
    assert_eq!(stats.repair.failures_confirmed, 0);
    assert!(
        stats.repair.heartbeats_sent > 0,
        "the quiet stretch must have been bridged by standalone beacons"
    );
}

/// Drain-on-leave regression: a graceful departure must cost the
/// survivors *less* than a silent crash of the same rank — the leaver
/// announces, so nobody burns suspicion timers confirming it, no
/// failure is ever recorded, and the shrink excludes it immediately.
#[test]
fn graceful_leave_beats_silent_crash_for_survivors() {
    let n = 16;
    let leaver = 3usize;
    let run = |graceful: bool| {
        let cfg = SimCommConfig {
            repair: Some(member_repair(9)),
            ..Default::default()
        };
        let params = NetParams::fast_ethernet_switch().with_loss(0.10);
        run_sim_world_stats(
            &ClusterConfig::new(n, params, 9),
            &cfg,
            move |c: SimComm| {
                let me = c.rank();
                let grace_full = c.drain_grace();
                let mut comm = Communicator::new(c).with_allgather(AllgatherAlgorithm::Multicast);
                expect_coll(comm.barrier());
                if me == leaver {
                    if graceful {
                        comm.leave();
                    } else {
                        comm.transport_mut().simulate_crash();
                    }
                    return 0u64;
                }
                // Survivors regroup. With the announce in flight this needs
                // no failure detection at all; without it, the shrink's
                // vote round leans on the detector confirming the corpse.
                let comm: Communicator<SimComm> =
                    comm.shrink().expect("survivor agreement must complete");
                assert_eq!(
                    comm.size(),
                    n - 1,
                    "rank {me}: wrong survivor group {:?}",
                    comm.transport().members()
                );
                assert!(
                    comm.transport().drain_grace() < grace_full,
                    "rank {me}: the dead rank must stop counting toward drain grace"
                );
                let mut comm = comm;
                let blocks = expect_coll(comm.allgather(&[me as u8; 8]));
                // Closing barrier: under loss the survivors finish their
                // repairs at different times, and a rank that exits the
                // group early looks dead to a straggler still soliciting —
                // real programs synchronize before tearing down.
                expect_coll(comm.barrier());
                blocks.iter().map(|b| b[0] as u64).sum()
            },
        )
        .unwrap_or_else(|e| panic!("leave run (graceful={graceful}) failed: {e:?}"))
    };

    let (graceful, g_stats) = run(true);
    let (crashed, c_stats) = run(false);
    let expected: u64 = (0..n as u64).filter(|&r| r != leaver as u64).sum();
    for rank in (0..n).filter(|&r| r != leaver) {
        assert_eq!(graceful.outputs[rank], expected, "rank {rank} (graceful)");
        assert_eq!(crashed.outputs[rank], expected, "rank {rank} (crashed)");
    }
    assert_eq!(
        g_stats.repair.failures_confirmed, 0,
        "a graceful departure must never be recorded as a failure: {:?}",
        g_stats.repair
    );
    assert!(
        c_stats.repair.failures_confirmed > 0,
        "the silent crash must have been detector-confirmed: {:?}",
        c_stats.repair
    );
    // The announce is what the survivors save: the graceful run's
    // detector never has to work (a departed rank is excluded before
    // any timer runs), while the crashed run burns a suspicion per
    // survivor confirming the corpse. Completion times are dominated by
    // the (identical) drain grace both runs pay at teardown, so the
    // detector economics — not wall-clock — are the observable.
    assert!(
        g_stats.repair.suspicions < c_stats.repair.suspicions,
        "the announce must spare the survivors detector work \
         (graceful {} vs crashed {} suspicions)",
        g_stats.repair.suspicions,
        c_stats.repair.suspicions
    );
}

/// The beacon-cadence scaling regression (ISSUE 9 satellite). BENCH_8
/// measured crash-to-confirmation at N=64 on a 2 ms base heartbeat:
/// first survivor 83 ms, last 770 ms (virtual) — 63 ranks' beacons
/// queuing at the switch every 2 ms starved the stragglers.
/// `MembershipConfig::effective_heartbeat_interval` now stretches the
/// period by `n/2` (the AckHorizon constant-bandwidth-share rule), so
/// confirmation is slower-but-uniform: the deterministic
/// `(4 + 3) × interval` bound, with the
/// 9× first-to-last spread collapsed to under one beacon period.
#[test]
fn beacon_cadence_scales_with_group_size_and_tightens_the_tail() {
    let n = 64;
    let victim = n / 2;
    let base = Duration::from_millis(2);
    let cfg = SimCommConfig {
        repair: Some(
            RepairConfig::sim_default()
                .with_seed(1)
                .with_membership(base),
        ),
        ..Default::default()
    };
    let mc = cfg.repair.as_ref().unwrap().membership.unwrap();
    let effective = mc.effective_heartbeat_interval(n);
    assert_eq!(
        effective,
        base * 32,
        "N=64 must stretch the 2 ms base by n/2"
    );

    let params = NetParams::fast_ethernet_switch();
    let (report, _) = run_sim_world_stats(
        &ClusterConfig::new(n, params, 1),
        &cfg,
        move |c: SimComm| {
            let me = c.rank();
            let mut comm = Communicator::new(c);
            expect_coll(comm.barrier());
            let t0 = comm.transport().now();
            if me == victim {
                comm.transport_mut().simulate_crash();
                return 0u64;
            }
            for _ in 0..100_000 {
                comm.transport_mut().progress();
                comm.transport_mut().compute(Duration::from_micros(500));
                if !comm.transport().failed_peers().is_empty() {
                    return comm.transport().now().as_nanos() - t0.as_nanos();
                }
            }
            panic!("rank {me}: victim never confirmed");
        },
    )
    .expect("detect run failed");
    let mut lat: Vec<u64> = report
        .outputs
        .iter()
        .enumerate()
        .filter(|&(r, _)| r != victim)
        .map(|(_, &v)| v)
        .collect();
    lat.sort_unstable();
    let (first, last) = (lat[0], lat[lat.len() - 1]);
    // BENCH_8's pre-scaling tail was 770 ms; the analytic bound is now
    // 7 × 64 ms = 448 ms plus at most one beacon period of slack.
    assert!(
        last < 600_000_000,
        "confirmation tail must tighten below the pre-scaling 770 ms \
         (last = {:.2} ms)",
        last as f64 / 1e6
    );
    assert!(
        last - first < 2 * effective.as_nanos() as u64,
        "survivors must confirm within ~a beacon period of each other \
         (first = {:.2} ms, last = {:.2} ms)",
        first as f64 / 1e6,
        last as f64 / 1e6
    );
}
