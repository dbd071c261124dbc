//! The epidemic dissemination plane end-to-end (`docs/PROTOCOL.md`
//! §11): `Advr`/`Want` gossip must deliver the same bytes the multicast
//! plane does — on lossless, lossy, and *multicast-less* fabrics — and
//! the whole thing must replay byte-identically. The seam itself is
//! locked the other way too: with `Dissemination::Multicast` selected
//! (the default) a lossy repaired run's fingerprint is pinned by
//! constant, so the refactor cannot silently perturb the pre-seam
//! protocol.

use mcast_mpi::core::{combine_u64_sum, BcastAlgorithm, Communicator};
use mcast_mpi::netsim::cluster::ClusterConfig;
use mcast_mpi::netsim::error::SimError;
use mcast_mpi::netsim::ids::{DatagramDst, GroupId, HostId, UdpPort};
use mcast_mpi::netsim::params::NetParams;
use mcast_mpi::netsim::time::{SimDuration, SimTime};
use mcast_mpi::netsim::world::{StepOutcome, World};
use mcast_mpi::transport::{run_mem_world, run_sim_world_stats, Comm, RepairConfig, SimCommConfig};

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
/// the epidemic machinery actually ran (advertisements out, pulls
/// answered) and must emit zero multicast frames for the fabric to drop.
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
                stats.repair.advrs_sent > 0 && stats.repair.pulls_answered > 0,
                "the epidemic plane must actually run (n={n}, {label}): {:?}",
                stats.repair
            );
            assert_eq!(
                stats.net.unicast_only_drops, 0,
                "gossip emits no multicast frames, so a unicast-only \
                 switch has nothing to drop (n={n}, {label})"
            );
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

/// Captured from the run above when the dissemination seam landed.
const MULTICAST_SEAM_FINGERPRINT: u64 = 0x400e_b4e8_1957_be5e;

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
