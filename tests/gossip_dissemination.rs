//! The epidemic dissemination plane end-to-end (`docs/PROTOCOL.md`
//! §11): `Advr`/`Want` gossip must deliver the same bytes the multicast
//! plane does — on lossless, lossy, and *multicast-less* fabrics — and
//! the whole thing must replay byte-identically. The seam itself is
//! locked the other way too: with `Dissemination::Multicast` selected
//! (the default) a lossy repaired run's fingerprint is pinned by
//! constant, so the refactor cannot silently perturb the pre-seam
//! protocol.

use mcast_mpi::core::{combine_u64_sum, BarrierAlgorithm, BcastAlgorithm, Communicator};
use mcast_mpi::netsim::cluster::ClusterConfig;
use mcast_mpi::netsim::error::SimError;
use mcast_mpi::netsim::ids::{DatagramDst, GroupId, HostId, UdpPort};
use mcast_mpi::netsim::params::{FaultParams, NetParams};
use mcast_mpi::netsim::time::{SimDuration, SimTime};
use mcast_mpi::netsim::topology::TopologyScript;
use mcast_mpi::netsim::world::{StepOutcome, World};
use mcast_mpi::transport::{
    run_mem_world, run_sim_world_stats, Comm, RepairConfig, SimCommConfig, WorldStats,
};

/// The lossy-recovery kitchen sink with the gossip bcast selected:
/// every collective family the paper cares about, digested so all
/// backends must agree byte-for-byte.
fn gossip_sink<C: Comm>(c: C) -> u64 {
    let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::Gossip);
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

/// Repair plane with the epidemic dissemination selected.
fn gossip_cfg(seed: u64) -> SimCommConfig {
    SimCommConfig {
        repair: Some(RepairConfig::sim_default().with_seed(seed).with_gossip()),
        ..Default::default()
    }
}

/// Acceptance (ISSUE 9): the gossip plane's kitchen-sink digest equals
/// the lossless in-memory ground truth at N ∈ {4, 8, 16} — on a clean
/// switch, at 10% per-link loss, and on a `unicast_only` fabric where
/// the switch forwards no multicast at all. Every gossip run must show
/// the epidemic machinery actually ran (advertisements out, payloads
/// pushed or pulls answered — a clean fabric answers none: every push
/// lands) and must emit zero multicast frames for the fabric to drop.
/// Gossip notes no solicit, so it copies no send (`docs/PROTOCOL.md`
/// §8.5), though its lossy runs' point-to-point collectives do solicit.
#[test]
fn gossip_digest_matches_mem_across_sizes_and_fabrics() {
    for n in [4usize, 8, 16] {
        let mem = run_mem_world(n, 0, gossip_sink);
        let seed = 9_000 + n as u64;
        let fabrics = [
            ("clean switch", NetParams::fast_ethernet_switch()),
            (
                "10% loss",
                NetParams::fast_ethernet_switch().with_loss(0.10),
            ),
            (
                "unicast-only",
                NetParams::fast_ethernet_switch().with_unicast_only(),
            ),
            (
                "unicast-only + 10% loss",
                NetParams::fast_ethernet_switch()
                    .with_unicast_only()
                    .with_loss(0.10),
            ),
        ];
        for (label, params) in fabrics {
            let lossy = params.faults.drop_prob > 0.0;
            let (report, stats) = run_sim_world_stats(
                &ClusterConfig::new(n, params, seed),
                &gossip_cfg(seed),
                gossip_sink,
            )
            .unwrap_or_else(|e| panic!("gossip run failed (n={n}, {label}): {e:?}"));
            assert_eq!(report.outputs, mem, "digest mismatch (n={n}, {label})");
            assert!(
                stats.repair.advrs_sent > 0
                    && stats.repair.pushes_sent + stats.repair.pulls_answered > 0,
                "the epidemic plane must actually run (n={n}, {label}): {:?}",
                stats.repair
            );
            assert_eq!(
                stats.net.unicast_only_drops, 0,
                "gossip emits no multicast frames, so a unicast-only \
                 switch has nothing to drop (n={n}, {label})"
            );
            assert_eq!(stats.repair.copies_sent, 0, "n={n}, {label}");
            if lossy {
                assert!(
                    stats.net.injected_frame_losses > 0 && stats.repair.wants_sent > 0,
                    "a lossy run must lose frames and re-pull (n={n}, {label}): {:?}",
                    stats.repair
                );
            }
        }
    }
}

/// The kitchen sink with the size-based `Auto` selector left in place.
fn auto_sink<C: Comm>(c: C) -> u64 {
    let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::Auto);
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

/// Acceptance (ISSUE 10): `BcastAlgorithm::Auto` must notice a transport
/// that reports no multicast capability and lower to the *gossip* plan —
/// not merely "a plan that happens to get repaired". The 2048-byte
/// payload sits above the size crossover, so on a capable fabric `Auto`
/// would pick multicast-binary with its scout-reduction phase; on the
/// unicast-only fabric the run must instead be frame-for-frame identical
/// to an explicit `Gossip` run (same seed, same config) — the scout
/// phase's extra traffic would show up in every counter.
#[test]
fn auto_bcast_lowers_to_gossip_on_multicast_less_fabric() {
    let n = 8;
    let seed = 0xA07D_55E1;
    let params = || NetParams::fast_ethernet_switch().with_unicast_only();
    let mem = run_mem_world(n, 0, auto_sink);

    let (auto_report, auto_stats) = run_sim_world_stats(
        &ClusterConfig::new(n, params(), seed),
        &gossip_cfg(seed),
        auto_sink,
    )
    .expect("auto run on a multicast-less fabric must complete");
    assert_eq!(auto_report.outputs, mem, "auto digest mismatch");

    let (gossip_report, gossip_stats) = run_sim_world_stats(
        &ClusterConfig::new(n, params(), seed),
        &gossip_cfg(seed),
        gossip_sink,
    )
    .expect("explicit gossip reference run must complete");
    assert_eq!(auto_report.outputs, gossip_report.outputs);

    assert_eq!(
        auto_stats.repair, gossip_stats.repair,
        "Auto must lower to the exact gossip plan on a multicast-less fabric"
    );
    assert_eq!(
        format!("{:?}", auto_stats.net),
        format!("{:?}", gossip_stats.net),
        "Auto's traffic must be frame-for-frame the gossip plan's traffic"
    );
    assert_eq!(
        auto_stats.net.unicast_only_drops, 0,
        "the selector kept every frame off the multicast path"
    );
}

/// Gossip replay: advertisement cadence, pull retries and relay choices
/// all come off the virtual clock and the seeded RNG, so a lossy
/// unicast-only gossip run is a pure function of the seed.
#[test]
fn gossip_run_replays_byte_identically() {
    let replay = |seed: u64| {
        let params = NetParams::fast_ethernet_switch()
            .with_unicast_only()
            .with_loss(0.10);
        let cluster =
            ClusterConfig::new(8, params, seed).with_start_skew(SimDuration::from_micros(80));
        let (report, stats) = run_sim_world_stats(&cluster, &gossip_cfg(seed), gossip_sink)
            .expect("gossip replay run must complete");
        (
            report.completion_times,
            report.outputs,
            format!("{:?}", stats.net),
            format!("{:?}", stats.repair),
        )
    };
    let a = replay(0x6055_1112);
    let b = replay(0x6055_1112);
    assert_eq!(a, b, "gossip runs must replay byte-identically");
}

/// Fingerprint of the observable outcome of a run: virtual completion
/// times plus the counters that summarize every frame the fabric
/// carried and every repair action taken. FNV-1a over the rendered
/// string — stable across platforms, sensitive to any behavior change.
fn fingerprint(parts: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for &b in p.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The seam lock (ISSUE 9 acceptance): with `Dissemination::Multicast`
/// selected — the default, i.e. plain `with_repair()` — a lossy
/// repaired run is byte-identical to the pre-seam protocol. The
/// fingerprint below was captured when the seam landed; every gossip
/// hook must stay gated so tightly that no counter, timestamp or RNG
/// draw moves. If this fails, the dissemination seam leaked into the
/// multicast path — that is a bug, not a fingerprint to refresh
/// (refresh it only for a deliberate protocol change, by running the
/// test and copying the printed value).
#[test]
fn multicast_dissemination_is_byte_identical_through_the_seam() {
    let run = || {
        let params = NetParams::fast_ethernet_switch().with_loss(0.10);
        let cluster = ClusterConfig::new(4, params, 0x5EA3_10CC)
            .with_start_skew(SimDuration::from_micros(80));
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
            .expect("multicast seam run must recover");
        assert_eq!(
            (
                stats.repair.advrs_sent,
                stats.repair.wants_sent,
                stats.repair.pulls_answered,
                stats.repair.duplicate_payloads_avoided,
            ),
            (0, 0, 0, 0),
            "no gossip machinery may run under Dissemination::Multicast"
        );
        let parts = vec![
            format!("{:?}", report.completion_times),
            format!("{:?}", report.outputs),
            format!(
                "frames={} dgrams={} losses={} mcast={}",
                stats.net.frames_sent,
                stats.net.datagrams_delivered,
                stats.net.injected_frame_losses,
                stats.net.mcast_datagrams_sent,
            ),
            format!(
                "nacks={} retx={} suppressed={} horizons={}",
                stats.repair.nacks_sent,
                stats.repair.retransmits_sent,
                stats.repair.nacks_suppressed,
                stats.repair.horizons_sent,
            ),
        ];
        fingerprint(&parts)
    };
    let a = run();
    println!("multicast seam fingerprint: {a:#018x}");
    assert_eq!(a, run(), "seam run must replay byte-identically");
    assert_eq!(
        a, MULTICAST_SEAM_FINGERPRINT,
        "Dissemination::Multicast must stay byte-identical to the \
         pre-seam protocol"
    );
}

/// Captured from the run above when the dissemination seam landed, as
/// `0x400e_b4e8_1957_be5e`. Re-recorded once when an overheard solicit
/// came to silence ours, and a multicast repair to hold back its repeat,
/// for one solicit timeout instead of two (`docs/PROTOCOL.md` §8): the
/// multicast plane's NACK and retransmit counts moved with the protocol,
/// the seam did not. It was `0xdb0e_3c14_c256_d226` until a solicit for
/// traffic not sent yet came to stand at its source, whose first send of
/// the tag is followed by a multicast send notice (`docs/PROTOCOL.md`
/// §8.4): the run's datagram, NACK and retransmit counts moved with the
/// protocol, the seam did not. Re-recorded once for it. It was
/// `0x43c1_6191_13cb_f977` until a source that has sent or taken in a
/// solicit lately came to send each one-frame message twice under one seq
/// (`docs/PROTOCOL.md` §8.5): the run's barrier scouts and release are
/// copied once a loss is being repaired, so its datagram, NACK and
/// retransmit counts and its times moved with the protocol, the seam did
/// not. Re-recorded once for it.
const MULTICAST_SEAM_FINGERPRINT: u64 = 0x9df6_659c_d460_13bf;

/// The epidemic efficiency invariant (ISSUE 9): under gossip on a
/// unicast-only fabric, no payload chunk crosses any single link more
/// than once — single-outstanding-`Want` plus inbox dedup means each
/// host pulls each chunk exactly once. Counted at the fabric itself
/// (`LinkStats::duplicate_data_chunks`), not inferred from endpoint
/// counters.
#[test]
fn gossip_payload_crosses_each_link_at_most_once() {
    for n in [4usize, 8] {
        let params = NetParams::fast_ethernet_switch()
            .with_unicast_only()
            .with_payload_tracking();
        let seed = 77 + n as u64;
        let (report, stats) = run_sim_world_stats(
            &ClusterConfig::new(n, params, seed),
            &gossip_cfg(seed),
            gossip_sink,
        )
        .unwrap_or_else(|e| panic!("tracked gossip run failed (n={n}): {e:?}"));
        assert_eq!(report.outputs, run_mem_world(n, 0, gossip_sink));
        let mut delivered = 0u64;
        for (i, link) in stats.net.links.iter().enumerate() {
            assert_eq!(
                link.duplicate_data_chunks, 0,
                "payload chunk crossed link {i} more than once (n={n}): {link:?}"
            );
            delivered += link.data_chunks_delivered;
        }
        assert!(
            delivered > 0,
            "tracking must have observed payload chunks (n={n})"
        );
    }
}

/// A stream of `count` 4 KiB gossip broadcasts at N=`n`, the root
/// rotating each time, on a unicast-only switch that tracks payload
/// crossings: every rank's bytes checked, the fabric's counters returned.
fn tracked_bcast_stream(n: usize, loss: f64, seed: u64, count: usize) -> WorldStats {
    let params = NetParams::fast_ethernet_switch()
        .with_unicast_only()
        .with_payload_tracking()
        .with_loss(loss);
    let cluster = ClusterConfig::new(n, params, seed).with_start_skew(SimDuration::from_micros(50));
    let (report, stats) = run_sim_world_stats(&cluster, &gossip_cfg(seed), |c| {
        let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::Gossip);
        let mut intact = true;
        for i in 0..count {
            let root = i % comm.size();
            let fill = |k: usize| (i * 31 + k) as u8;
            let mut buf: Vec<u8> = if comm.rank() == root {
                (0..4096).map(fill).collect()
            } else {
                vec![0; 4096]
            };
            comm.bcast(root, &mut buf).unwrap();
            intact &= buf.iter().enumerate().all(|(k, &b)| b == fill(k));
        }
        intact
    })
    .unwrap_or_else(|e| panic!("gossip stream failed (n={n}, loss={loss}): {e:?}"));
    assert!(
        report.outputs.iter().all(|&ok| ok),
        "a rank got wrong bytes (n={n})"
    );
    stats
}

fn duplicate_chunks(stats: &WorldStats) -> u64 {
    stats
        .net
        .links
        .iter()
        .map(|l| l.duplicate_data_chunks)
        .sum()
}

/// The crossing invariant where it can fail: at N ∈ {16, 32} a root's
/// pull queue holds up to 31 answers, long enough to outlast a probe of
/// the first `Want`s. A holder sends each payload to a requester once and
/// echoes any repeat (`docs/PROTOCOL.md` §11.2), so a lossless fabric
/// carries no chunk twice. Answering a repeated `Want` with the payload
/// passes at N ∈ {4, 8} but puts hundreds of duplicate chunks on the wire
/// here.
#[test]
fn gossip_payload_crosses_each_link_at_most_once_at_n16_and_n32() {
    for n in [16usize, 32] {
        let stats = tracked_bcast_stream(n, 0.0, 0x6055_0000 + n as u64, 2 * n);
        let delivered: u64 = stats
            .net
            .links
            .iter()
            .map(|l| l.data_chunks_delivered)
            .sum();
        assert!(
            delivered > 0,
            "tracking must have observed payload chunks (n={n})"
        );
        assert_eq!(duplicate_chunks(&stats), 0, "n={n}: {:?}", stats.repair);
    }
}

/// On a lossless unicast-only switch a gossip broadcast is its tree: each
/// rank but the root gets the payload by push, exactly once, from its
/// tree parent, and no pull draws a payload — a pull armed by an `Advr`
/// waits one repair timeout for the push (`docs/PROTOCOL.md` §11.1).
/// `2n` 4 KiB broadcasts, the root rotating, a point-to-point barrier
/// after each. A push can still land after its pull asked: every session
/// period each rank unicasts its session message to all n−1 peers at
/// once, and at N=32 that burst (≈ 2.5 ms of a 100 Mb/s link) can queue
/// between an `Advr` and its push on the way down (6 of the 1 984 pushes
/// here; at most one per eight broadcasts passes, so "no `Want`" holds
/// at N=16 only). Such a `Want` goes to the tree parent, whose `Advr`
/// came first, and draws an echo, never a second payload; a first `Want`
/// sent without waiting would go out for every push. A late push is not
/// pushed on, so the exact push count also says that every late push at
/// these seeds landed at a leaf: at a rank with children it would show
/// as pushes missing and pulls answered. Reversing the push order
/// (largest offset first) holds the root's biggest subtree back behind
/// its smallest ones, and their lazy `Advr`s outrun the late pushes.
#[test]
fn a_lossless_broadcast_is_n_minus_1_pushes_and_a_want_only_for_a_late_push() {
    for n in [16usize, 32] {
        let count = 2 * n;
        let params = NetParams::fast_ethernet_switch()
            .with_unicast_only()
            .with_payload_tracking();
        let seed = 0x6055_7EE0 + n as u64;
        let (report, stats) = run_sim_world_stats(
            &ClusterConfig::new(n, params, seed),
            &gossip_cfg(seed),
            |c| {
                let mut comm = Communicator::new(c)
                    .with_bcast(BcastAlgorithm::Gossip)
                    .with_barrier(BarrierAlgorithm::Mpich);
                let mut intact = true;
                for i in 0..count {
                    let root = i % comm.size();
                    let fill = |k: usize| (i * 17 + k) as u8;
                    let mut buf: Vec<u8> = if comm.rank() == root {
                        (0..4096).map(fill).collect()
                    } else {
                        vec![0; 4096]
                    };
                    comm.bcast(root, &mut buf).unwrap();
                    intact &= buf.iter().enumerate().all(|(k, &b)| b == fill(k));
                    comm.barrier().unwrap();
                }
                intact
            },
        )
        .unwrap_or_else(|e| panic!("lossless gossip run failed (n={n}): {e:?}"));
        assert!(report.outputs.iter().all(|&ok| ok), "n={n}: wrong bytes");
        let r = &stats.repair;
        println!("n={n}: {} pushes, {} Wants", r.pushes_sent, r.wants_sent);
        assert_eq!(
            (r.pushes_sent, r.pulls_answered, r.echoes_sent),
            (count as u64 * (n as u64 - 1), 0, r.wants_sent),
            "n={n}: {r:?}"
        );
        assert!(r.wants_sent <= count as u64 / 8, "n={n}: {r:?}");
        assert_eq!(duplicate_chunks(&stats), 0, "n={n}");
    }
}

/// A tree parent that has failed takes its subtree's pushes with it; the
/// subtree completes through the lazy `Advr`s of the other holders
/// instead. At N=16 rank 1 — the root's first child, parent of every
/// odd rank's subtree — crashes before the broadcast and every survivor
/// declares it failed, so the root skips it: the seven even ranks get
/// the payload by push, and the seven odd survivors each pull it. A
/// payload obtained by a pull is never pushed on, so the run pushes
/// exactly seven times.
#[test]
fn a_failed_tree_parents_subtree_completes_through_the_lazy_advrs() {
    const DEAD: usize = 1;
    let n = 16;
    let params = NetParams::fast_ethernet_switch()
        .with_unicast_only()
        .with_payload_tracking();
    let seed = 0x6055_DEAD;
    let cfg = SimCommConfig {
        repair: Some(
            RepairConfig::sim_default()
                .with_seed(seed)
                .with_gossip()
                .with_membership(std::time::Duration::from_millis(5)),
        ),
        ..Default::default()
    };
    let payload: Vec<u8> = (0..2048u32).map(|i| (i * 13 % 251) as u8).collect();
    let (report, stats) =
        run_sim_world_stats(&ClusterConfig::new(n, params, seed), &cfg, |mut c| {
            if c.rank() == DEAD {
                c.simulate_crash();
                return None;
            }
            c.declare_failed(DEAD);
            let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::Gossip);
            let mut buf = if comm.rank() == 0 {
                payload.clone()
            } else {
                vec![0; payload.len()]
            };
            comm.bcast(0, &mut buf).unwrap();
            let wants = comm.transport().repair_stats().wants_sent;
            Some((buf, wants))
        })
        .unwrap_or_else(|e| panic!("failed-parent gossip run failed: {e:?}"));
    for (rank, out) in report.outputs.iter().enumerate() {
        if rank == DEAD {
            continue;
        }
        let (got, wants) = out.as_ref().expect("a survivor reports");
        assert_eq!(got, &payload, "rank {rank} holds the wrong bytes");
        assert_eq!(*wants > 0, rank % 2 == 1, "rank {rank} sent {wants} Wants");
    }
    assert_eq!(stats.repair.pushes_sent, 7, "{:?}", stats.repair);
    assert_eq!(duplicate_chunks(&stats), 0, "{:?}", stats.repair);
}

/// Under loss a pull is re-asked only when the evidence says so: the
/// probe draws the payload when the `Want` was lost, or an echo that
/// rotates the pull when the answer was lost. At N=32, 5 % loss, 96
/// broadcasts put at most 8 duplicate chunks on the wire (a lost answer
/// of several chunks is re-sent whole); re-pulling on an `n/2`-stretched
/// timer put 57–87 there.
#[test]
fn lossy_gossip_repulls_only_lost_answers() {
    let stats = tracked_bcast_stream(32, 0.05, 0x6055_0032, 96);
    assert!(stats.net.injected_frame_losses > 0, "the loss model ran");
    assert!(stats.repair.echoes_sent > 0, "some answers were probed");
    let dups = duplicate_chunks(&stats);
    println!("{dups} duplicate chunks, {:?}", stats.repair);
    assert!(dups <= 8, "{dups} duplicate chunks: {:?}", stats.repair);
}

/// An origin is pulled by its finger peers only: at N=32 on a lossless
/// unicast-only switch, root 0's `Advr` goes to ranks 1, 2, 4, 8 and 16,
/// and every other rank pulls from a relay that pulled before it
/// (`docs/PROTOCOL.md` §11.1). Over 8 broadcasts the root answers at most
/// ⌊log₂ 31⌋+1 = 5 pulls each; advertising to every peer had it answer
/// all 31. Each rank reports back point-to-point once it holds all 8, so
/// the root counts after the last pull it will ever answer.
#[test]
fn an_origin_answers_only_its_fingers_pulls() {
    const DONE: u32 = 0x0D0E;
    let (n, count) = (32usize, 8u64);
    let params = NetParams::fast_ethernet_switch().with_unicast_only();
    let seed = 0x6055_F165;
    let (report, _) = run_sim_world_stats(
        &ClusterConfig::new(n, params, seed),
        &gossip_cfg(seed),
        |c| {
            let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::Gossip);
            for i in 0..count {
                let mut buf = vec![i as u8; 4096];
                comm.bcast(0, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == i as u8));
            }
            let c = comm.transport_mut();
            if c.rank() != 0 {
                c.send(0, DONE, vec![1]);
                return 0;
            }
            for peer in 1..n {
                let req = c.post_recv(Some(peer), DONE);
                c.wait(req).unwrap();
            }
            c.repair_stats().pulls_answered
        },
    )
    .unwrap_or_else(|e| panic!("gossip bcast stream failed: {e:?}"));
    let bound = ((n - 1).ilog2() as u64 + 1) * count;
    assert!(
        report.outputs[0] <= bound,
        "the root answered {} pulls for {count} broadcasts (bound {bound})",
        report.outputs[0]
    );
}

/// A point-to-point send under gossip reaches its destination and no one
/// else: a relay passes on only what it pulled (`docs/PROTOCOL.md`
/// §11.1). At N=4 on a unicast-only switch, after rank 0's
/// `send(1, 77, 100 B)` nobody advertises or pulls anything, and only
/// rank 1's link carries the payload. Relaying every accepted message had
/// rank 1 send 2 `Advr`s, and ranks 2 and 3 each pull the payload.
#[test]
fn a_point_to_point_send_under_gossip_reaches_only_its_destination() {
    let params = NetParams::fast_ethernet_switch()
        .with_unicast_only()
        .with_payload_tracking();
    let seed = 0x9E1D_0077;
    let payload = vec![0x5Au8; 100];
    let (report, stats) = run_sim_world_stats(
        &ClusterConfig::new(4, params, seed),
        &gossip_cfg(seed),
        |mut c| match c.rank() {
            0 => {
                c.send(1, 77, payload.clone());
                None
            }
            1 => {
                let req = c.post_recv(Some(0), 77);
                Some(c.wait(req).unwrap().payload.to_vec())
            }
            _ => None,
        },
    )
    .unwrap_or_else(|e| panic!("point-to-point gossip run failed: {e:?}"));
    assert_eq!(report.outputs[1].as_deref(), Some(&payload[..]));
    let r = &stats.repair;
    assert_eq!(
        (r.advrs_sent, r.wants_sent, r.pulls_answered),
        (0, 0, 0),
        "{r:?}"
    );
    let crossed: Vec<u64> = stats
        .net
        .links
        .iter()
        .map(|l| l.data_chunks_delivered)
        .collect();
    assert_eq!(crossed, [0, 1, 0, 0], "data chunks per receiving link");
}

/// A rank cut off from the origin gets the payload through a relay: at
/// N=16 on a unicast-only switch, every frame from the root to rank 4 —
/// one of the root's finger peers, so the root does advertise to it — is
/// held from the start until 1 s. The root's `Advr` to rank 4 is parked
/// with the rest, so rank 4 can only learn of the payload from the ranks
/// that pulled it — its finger predecessors relay the `Advr` — and must
/// pull it from one of them long before the hold is released
/// (`docs/PROTOCOL.md` §11.1, §11.3). The victim was rank 5 until the
/// root took to advertising to its fingers only: rank 5 is none of them,
/// so nothing was held.
#[test]
fn held_root_link_is_routed_around_by_a_relay() {
    let (n, root, victim) = (16, 0usize, 4usize);
    let release = SimTime::from_micros(1_000_000);
    let (from, to) = (HostId(root as u32), HostId(victim as u32));
    let faults = FaultParams {
        topology: TopologyScript::new()
            .hold(SimTime::ZERO, from, to)
            .release(release, from, to),
        ..Default::default()
    };
    let params = NetParams::fast_ethernet_switch()
        .with_unicast_only()
        .with_faults(faults);
    let payload: Vec<u8> = (0..2048u32).map(|i| (i * 7 % 251) as u8).collect();
    let seed = 0x4E1D_0005;
    let (report, stats) = run_sim_world_stats(
        &ClusterConfig::new(n, params, seed),
        &gossip_cfg(seed),
        |c| {
            let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::Gossip);
            let mut buf = if comm.rank() == root {
                payload.clone()
            } else {
                vec![0; payload.len()]
            };
            comm.bcast(root, &mut buf).unwrap();
            (buf, comm.transport().now())
        },
    )
    .unwrap_or_else(|e| panic!("held-link gossip run failed: {e:?}"));
    assert!(
        stats.net.frames_held > 0,
        "the hold parked the root's frames"
    );
    for (rank, (got, _)) in report.outputs.iter().enumerate() {
        assert_eq!(got, &payload, "rank {rank} holds the wrong bytes");
    }
    let done = report.outputs[victim].1;
    assert!(
        done < release,
        "the victim waited for the held link: done at {done:?}, released at {release:?}"
    );
}

/// The motivating scenario: on a fabric with no multicast routing the
/// paper's multicast collectives cannot complete — the repair loop
/// re-solicits forever and the run dies at the virtual time limit —
/// while the gossip plane finishes the identical workload. This is the
/// netsim-level proof BENCH_9 quantifies.
#[test]
fn unicast_only_fabric_kills_multicast_but_not_gossip() {
    let params = NetParams::fast_ethernet_switch().with_unicast_only();
    let mut cluster = ClusterConfig::new(4, params.clone(), 42);
    // 2 virtual seconds is hundreds of repair rounds: plenty to prove
    // the livelock without simulating the default 60 s limit.
    cluster.time_limit = SimDuration::from_millis(2_000);
    let err = run_sim_world_stats(
        &cluster,
        &SimCommConfig::default().with_repair(),
        gossip_sink,
    )
    .expect_err("multicast dissemination cannot cross a unicast-only switch");
    assert!(
        matches!(
            err,
            SimError::TimeLimitExceeded { .. } | SimError::Deadlock { .. }
        ),
        "expected a livelock or wedge, got {err:?}"
    );

    let (report, _) = run_sim_world_stats(
        &ClusterConfig::new(4, params, 42),
        &gossip_cfg(42),
        gossip_sink,
    )
    .expect("gossip completes where multicast cannot");
    assert_eq!(report.outputs, run_mem_world(4, 0, gossip_sink));
}

/// Fabric-level contract of `unicast_only`: the switch forwards
/// unicast frames untouched and drops every multicast frame at
/// ingress, counting each in `NetStats::unicast_only_drops` (and
/// through `total_drops`), even when every port has joined the group.
#[test]
fn unicast_only_switch_drops_and_counts_multicast_frames() {
    let port = UdpPort(4200);
    let mut world = World::new(3, NetParams::fast_ethernet_switch().with_unicast_only(), 7);
    let socks: Vec<_> = (0..3u32)
        .map(|h| {
            let s = world.bind(HostId(h), port);
            world.join_group_quiet(HostId(h), s, GroupId(1));
            s
        })
        .collect();
    world.send_datagram(
        HostId(0),
        port,
        DatagramDst::Multicast(GroupId(1)),
        port,
        vec![0xAB; 600].into(),
        SimTime::from_micros(10),
        false,
        false,
    );
    world.send_datagram(
        HostId(0),
        port,
        DatagramDst::Unicast(HostId(2)),
        port,
        vec![0xCD; 600].into(),
        SimTime::from_micros(20),
        false,
        false,
    );
    while !matches!(world.step(), StepOutcome::Quiescent) {}
    assert_eq!(
        world.stats().unicast_only_drops,
        1,
        "the multicast frame is dropped at switch ingress, once"
    );
    assert!(
        world.stats().total_drops() >= 1,
        "unicast-only drops participate in total_drops"
    );
    for (h, &s) in socks.iter().enumerate().take(2) {
        assert!(
            world.try_pop_buffered(HostId(h as u32), s).is_none(),
            "host {h} must not receive the multicast payload"
        );
    }
    let (_, got) = world
        .try_pop_buffered(HostId(2), socks[2])
        .expect("the unicast frame still goes through");
    assert_eq!(&got.payload.to_vec()[..], &[0xCD; 600][..]);
}

/// The third backend of the ISSUE-9 matrix: the gossip family over
/// genuine UDP sockets. The endpoint still joins the multicast group
/// (the transport does so unconditionally), but with gossip selected it
/// never *sends* a multicast frame — dissemination, repair and liveness
/// all ride the per-rank unicast ports — so the digest must equal the
/// in-memory ground truth. Skipped where the sandbox forbids multicast
/// (the join itself would fail), same probe idiom as `udp_live.rs`.
#[test]
fn gossip_digest_matches_mem_over_live_udp() {
    use mcast_mpi::transport::{multicast_available_cached, run_udp_world, UdpConfig};
    if !multicast_available_cached(51_000) {
        eprintln!("skipping live UDP gossip test: multicast unavailable");
        return;
    }
    let n = 4;
    let mem = run_mem_world(n, 0, gossip_sink);
    let cfg = UdpConfig {
        repair: Some(RepairConfig::udp_default().with_gossip()),
        ..UdpConfig::loopback(51_100)
    };
    let udp = run_udp_world(n, &cfg, gossip_sink).expect("udp gossip world");
    assert_eq!(
        udp, mem,
        "live-UDP gossip digest must match mem ground truth"
    );
}
