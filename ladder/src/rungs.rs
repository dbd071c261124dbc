//! The isolated rungs: each times calls into one layer's public API from
//! this file, with nothing of the layers above it involved. They do not
//! depend on the workload or the seed; they run in every traced
//! invocation so that one output always carries the whole ladder.

use std::hint::black_box;
use std::time::Duration;

use mmpi_cluster::{run_trial, Experiment, Fabric};
use mmpi_core::BcastAlgorithm;
use mmpi_netsim::cluster::{run_cluster, ClusterConfig};
use mmpi_netsim::ids::{DatagramDst, GroupId, HostId, UdpPort};
use mmpi_netsim::params::NetParams;
use mmpi_netsim::world::{StepOutcome, World};
use mmpi_netsim::SimTime;
use mmpi_transport::RepairConfig;
use mmpi_wire::{
    split_message, AckHorizonPayload, Assembler, Bytes, GossipDigest, HorizonEcho, MsgKind,
    NackPayload, RetransmitBuffer, SendDst, SeqRange, SourceDigest, SourceHorizon,
    MAX_DIGEST_RANGES, MAX_DIGEST_SOURCES, MAX_HORIZON_ACKS, MAX_HORIZON_ECHOES, MAX_HORIZON_HOLES,
    MAX_NACK_RANGES,
};

use crate::alloc;
use crate::pump::Pair;
use crate::stats::median_f64;
use crate::workload::wall_ns;

/// An Ethernet MTU's worth of UDP payload: the chunk size at which a
/// 64 KiB message becomes 45 datagrams.
const MTU_CHUNK: usize = 1472;

/// One measured rung: its metric name and value.
pub type Rung = (&'static str, f64);

/// Median wall ns per call of `f`, over batches that together fill
/// `budget_ns`. The batch size is calibrated so there are about sixteen
/// batches, and never fewer than three.
fn ns_per_call(budget_ns: u64, mut f: impl FnMut()) -> f64 {
    f();
    let t = wall_ns();
    f();
    let once = (wall_ns() - t).max(1);
    let batch = (budget_ns / 16 / once).max(1);
    let mut per_call = Vec::new();
    let start = wall_ns();
    while per_call.len() < 3 || wall_ns() - start < budget_ns {
        let t = wall_ns();
        for _ in 0..batch {
            f();
        }
        per_call.push((wall_ns() - t) as f64 / batch as f64);
    }
    median_f64(&per_call)
}

/// Exact allocations per call of `f` (mean over `calls`, after warm-up).
fn allocs_per_call(calls: u64, mut f: impl FnMut()) -> f64 {
    f();
    let before = alloc::allocs();
    for _ in 0..calls {
        f();
    }
    (alloc::allocs() - before) as f64 / calls as f64
}

fn split_assemble(payload: &Bytes, chunk: usize) {
    let dgs = split_message(MsgKind::Data, 0, 1, 7, 3, payload, chunk);
    let mut asm = Assembler::new();
    let mut out = None;
    for d in &dgs {
        if let Some(m) = asm.feed(d).expect("well-formed datagram") {
            out = Some(m);
        }
    }
    assert_eq!(
        black_box(out).expect("complete").payload.len(),
        payload.len()
    );
}

fn ranges(n: usize) -> Vec<SeqRange> {
    (0..n as u64)
        .map(|k| SeqRange {
            start: 10 * k,
            end: 10 * k + 3,
        })
        .collect()
}

fn wire_rungs(budget_ns: u64, out: &mut Vec<Rung>) {
    let kib = Bytes::from(vec![0xA5u8; 1024]);
    let big = Bytes::from(vec![0xA5u8; 64 * 1024]);
    let mut ns = |name, f: &mut dyn FnMut()| out.push((name, ns_per_call(budget_ns, f)));
    ns("wire.split_assemble_ns_1k", &mut || {
        split_assemble(&kib, mmpi_wire::DEFAULT_MAX_CHUNK)
    });
    ns("wire.split_assemble_ns_64k_mtu", &mut || {
        split_assemble(&big, MTU_CHUNK)
    });

    let dgs = split_message(MsgKind::Data, 0, 1, 7, 3, &big, MTU_CHUNK);
    let mut ring = RetransmitBuffer::new(mmpi_wire::DEFAULT_RETRANSMIT_CAP);
    let mut seq = 0;
    ns("wire.rtx_record_replay_ns_64k", &mut || {
        seq += 1;
        ring.record(seq, SendDst::Multicast, 7, MsgKind::Data, &dgs);
        // A replay hands the recorded datagrams (handles, not bytes) back
        // to the pump.
        let replay = ring.find_seq(seq).map(|rec| rec.datagrams.to_vec());
        assert_eq!(black_box(replay).map_or(0, |d| d.len()), dgs.len());
    });

    let nack = NackPayload {
        target: 3,
        missing: ranges(MAX_NACK_RANGES),
    };
    ns("wire.codec_ns_nack", &mut || {
        let back = NackPayload::decode(&black_box(&nack).encode()).expect("own encoding");
        assert_eq!(black_box(back).missing.len(), MAX_NACK_RANGES);
    });

    let horizon = AckHorizonPayload {
        probe_ts: 1,
        echoes: (0..MAX_HORIZON_ECHOES as u32)
            .map(|peer| HorizonEcho {
                peer,
                ts: 5,
                hold_ns: 7,
            })
            .collect(),
        acks: (0..MAX_HORIZON_ACKS as u32)
            .map(|src| SourceHorizon {
                src,
                hwm: 1000,
                missing: ranges(MAX_HORIZON_HOLES),
            })
            .collect(),
        member: None,
    };
    ns("wire.codec_ns_horizon", &mut || {
        let back = AckHorizonPayload::decode(&black_box(&horizon).encode()).expect("own encoding");
        assert_eq!(black_box(back).acks.len(), MAX_HORIZON_ACKS);
    });

    let digest = GossipDigest {
        entries: (0..MAX_DIGEST_SOURCES as u32)
            .map(|src| SourceDigest {
                src,
                ranges: ranges(MAX_DIGEST_RANGES),
            })
            .collect(),
    };
    ns("wire.codec_ns_gossip", &mut || {
        let back = GossipDigest::decode(&black_box(&digest).encode()).expect("own encoding");
        assert_eq!(black_box(back).entries.len(), MAX_DIGEST_SOURCES);
    });

    out.push((
        "wire.allocs_per_msg_64k_mtu",
        allocs_per_call(200, || split_assemble(&big, MTU_CHUNK)),
    ));
}

fn transport_rungs(budget_ns: u64, out: &mut Vec<Rung>) {
    let sim = RepairConfig::sim_default;
    let beat = Duration::from_millis(5);
    let payload = Bytes::from(vec![0x3Cu8; 1024]);
    let planes = [
        ("transport.send_deliver_ns_plain", None),
        ("transport.send_deliver_ns_srm", Some(sim())),
        (
            "transport.send_deliver_ns_adaptive",
            Some(sim().with_adaptive()),
        ),
        (
            "transport.send_deliver_ns_membership",
            Some(sim().with_membership(beat)),
        ),
        (
            "transport.send_deliver_ns_gossip",
            Some(sim().with_gossip()),
        ),
    ];
    for (name, repair) in planes {
        let mut pair = Pair::new(repair);
        out.push((
            name,
            ns_per_call(budget_ns, || {
                black_box(pair.send_deliver(&payload));
            }),
        ));
    }

    let all_planes = sim().with_adaptive().with_membership(beat).with_gossip();
    for (name, repair) in [
        ("transport.progress_idle_ns_plain", None),
        ("transport.progress_idle_ns_allplanes", Some(all_planes)),
    ] {
        let mut pair = Pair::new(repair);
        // One delivered message first, so every plane has started.
        pair.send_deliver(&payload);
        for tag in 0..16 {
            pair.b.post_recv(&mut pair.b_io, Some(0), 1_000_000 + tag);
        }
        out.push((
            name,
            ns_per_call(budget_ns, || pair.b.progress(&mut pair.b_io)),
        ));
    }

    let mut pair = Pair::new(Some(sim()));
    out.push((
        "transport.nack_repair_ns",
        ns_per_call(budget_ns, || {
            black_box(pair.lose_then_repair(&payload));
        }),
    ));

    let mut pair = Pair::new(Some(sim()));
    // Fill the retransmit ring first: steady state, not growth.
    for _ in 0..2 * mmpi_wire::DEFAULT_RETRANSMIT_CAP {
        pair.send_deliver(&payload);
    }
    out.push((
        "transport.allocs_per_send_deliver_srm",
        allocs_per_call(1000, || {
            black_box(pair.send_deliver(&payload));
        }),
    ));
}

/// The `world_scale` bench's storm against the default engine: every
/// 16th host multicasts two 1200-byte datagrams to the whole group at
/// 5 % loss, and the world is stepped until it drains. Returns datagrams
/// delivered.
fn storm(n: usize, seed: u64) -> u64 {
    const PORT: UdpPort = UdpPort(4400);
    const GROUP: GroupId = GroupId(1);
    let params = NetParams::fast_ethernet_switch().with_loss(0.05);
    let mut world = World::new(n, params, seed);
    for h in 0..n as u32 {
        let s = world.bind(HostId(h), PORT);
        world.join_group_quiet(HostId(h), s, GROUP);
    }
    for (k, h) in (0..n as u32).step_by(16).enumerate() {
        for j in 0..2u64 {
            world.send_datagram(
                HostId(h),
                PORT,
                DatagramDst::Multicast(GROUP),
                PORT,
                vec![h as u8; 1200].into(),
                SimTime::from_micros(5 + (k as u64 % 7) * 3 + 40 * j),
                false,
                false,
            );
        }
    }
    while !matches!(world.step(), StepOutcome::Quiescent) {}
    let delivered = world.stats().datagrams_delivered;
    assert!(delivered > 0, "the storm must deliver");
    delivered
}

/// Wall ns per round trip of a raw two-rank ping-pong through
/// `run_cluster`: two rank↔driver hand-offs each way.
fn driver_roundtrip_ns(rounds: u32) -> f64 {
    let cfg = ClusterConfig::new(2, NetParams::fast_ethernet_switch(), 1);
    let report = run_cluster(&cfg, |mut p| {
        let s = p.bind(9000);
        let peer = DatagramDst::Unicast(HostId(1 - p.rank() as u32));
        let ball = || mmpi_netsim::SharedPayload::from(vec![0u8; 8]);
        let start = wall_ns();
        for _ in 0..rounds {
            if p.rank() == 0 {
                p.send(s, peer, 9000, ball());
                p.recv(s);
            } else {
                p.recv(s);
                p.send(s, peer, 9000, ball());
            }
        }
        wall_ns() - start
    })
    .expect("a ping-pong cannot deadlock");
    report.outputs[0] as f64 / f64::from(rounds)
}

fn netsim_rungs(budget_ns: u64, out: &mut Vec<Rung>) {
    for (name, n) in [
        ("netsim.storm_deliveries_per_s_n256", 256),
        ("netsim.storm_deliveries_per_s_n1024", 1024),
    ] {
        let mut delivered = 0;
        let ns = ns_per_call(budget_ns, || delivered = storm(n, 7));
        out.push((name, delivered as f64 / (ns / 1e9)));
    }

    let rounds = (budget_ns / 20_000).clamp(1000, 100_000) as u32;
    let trips: Vec<f64> = (0..3).map(|_| driver_roundtrip_ns(rounds)).collect();
    out.push(("netsim.driver_roundtrip_ns", median_f64(&trips)));

    let cfg = ClusterConfig::new(64, NetParams::fast_ethernet_switch(), 1);
    out.push((
        "netsim.cluster_spawn_us_n64",
        ns_per_call(budget_ns, || {
            run_cluster(&cfg, |_p| ()).expect("an empty program cannot fail");
        }) / 1e3,
    ));
}

fn cluster_rungs(budget_ns: u64, out: &mut Vec<Rung>) {
    let exp = Experiment::new(
        16,
        Fabric::Switch,
        mmpi_cluster::Workload::Bcast {
            algo: BcastAlgorithm::McastBinary,
            bytes: 4096,
        },
    );
    out.push((
        "cluster.trial_wall_ms_n16",
        ns_per_call(budget_ns, || {
            black_box(run_trial(&exp, 0));
        }) / 1e6,
    ));
}

/// Every isolated rung, each given `budget_ns` of wall time.
pub fn run_all(budget_ns: u64) -> Vec<Rung> {
    let mut out = Vec::new();
    wire_rungs(budget_ns, &mut out);
    transport_rungs(budget_ns, &mut out);
    netsim_rungs(budget_ns, &mut out);
    cluster_rungs(budget_ns, &mut out);
    out
}
