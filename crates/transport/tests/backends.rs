//! Cross-backend behaviour: the same SPMD code must produce identical
//! results over the simulator, in-memory channels, and (where the
//! environment allows) real UDP multicast sockets.

use std::time::Duration;

use mmpi_netsim::cluster::{run_cluster, ClusterConfig};
use mmpi_netsim::ids::{DatagramDst, HostId};
use mmpi_netsim::params::NetParams;
use mmpi_netsim::{SharedPayload, SimDuration};
use mmpi_transport::{
    multicast_available_cached, run_mem_world, run_sim_world, run_sim_world_stats, run_udp_world,
    Comm, SimComm, SimCommConfig, UdpComm, UdpConfig,
};
use mmpi_wire::{split_message, Bytes, Message, MsgKind};

/// A blocking receive: a post, then a wait.
fn recv<C: Comm>(c: &mut C, src: Option<usize>, tag: u32) -> Message {
    let req = c.post_recv(src, tag);
    c.wait(req).unwrap()
}

/// The SPMD program used across backends: rank 0 multicasts, everyone
/// acks, rank 0 reports the ack count.
fn mcast_and_ack<C: Comm>(mut c: C) -> usize {
    const TAG_DATA: u32 = 1;
    const TAG_ACK: u32 = 2;
    if c.rank() == 0 {
        c.mcast(TAG_DATA, &[0xAB; 2000]);
        (1..c.size())
            .map(|_| recv(&mut c, None, TAG_ACK))
            .filter(|m| m.payload == b"ok")
            .count()
    } else {
        let m = recv(&mut c, Some(0), TAG_DATA);
        assert_eq!(m.payload, vec![0xAB; 2000]);
        c.send(0, TAG_ACK, b"ok");
        0
    }
}

#[test]
fn sim_backend_mcast_and_ack() {
    for params in [
        NetParams::fast_ethernet_hub(),
        NetParams::fast_ethernet_switch(),
    ] {
        let cluster = ClusterConfig::new(5, params, 42);
        let report = run_sim_world(&cluster, &SimCommConfig::default(), mcast_and_ack).unwrap();
        assert_eq!(report.outputs[0], 4);
    }
}

#[test]
fn mem_backend_mcast_and_ack() {
    let outputs = run_mem_world(5, 0, mcast_and_ack);
    assert_eq!(outputs[0], 4);
}

#[test]
fn udp_backend_mcast_and_ack() {
    if !multicast_available_cached(46_000) {
        eprintln!("skipping: IP multicast unavailable in this environment");
        return;
    }
    let cfg = UdpConfig::loopback(46_100);
    let outputs = run_udp_world(5, &cfg, mcast_and_ack).unwrap();
    assert_eq!(outputs[0], 4);
}

#[test]
fn udp_unicast_works_even_without_multicast() {
    // Plain UDP p2p should work everywhere.
    let cfg = UdpConfig::loopback(46_200);
    let outputs = run_udp_world(2, &cfg, |mut c| {
        if c.rank() == 0 {
            c.send(1, 7, b"hello");
            recv(&mut c, Some(1), 8).into_vec()
        } else {
            let m = recv(&mut c, Some(0), 7).into_vec();
            c.send(0, 8, &m);
            m
        }
    })
    .unwrap();
    assert_eq!(outputs[0], b"hello");
}

#[test]
fn sim_recv_any_collects_from_all_sources_in_arrival_order() {
    let cluster = ClusterConfig::new(4, NetParams::fast_ethernet_switch(), 7);
    let report = run_sim_world(&cluster, &SimCommConfig::default(), |mut c| {
        if c.rank() == 0 {
            let mut seen: Vec<u32> = (1..4).map(|_| recv(&mut c, None, 3).src_rank).collect();
            seen.sort();
            seen
        } else {
            c.send(0, 3, &[c.rank() as u8]);
            Vec::new()
        }
    })
    .unwrap();
    assert_eq!(report.outputs[0], vec![1, 2, 3]);
}

#[test]
fn sim_recv_timeout_expires_in_virtual_time() {
    let cluster = ClusterConfig::new(2, NetParams::fast_ethernet_switch(), 7);
    let report = run_sim_world(&cluster, &SimCommConfig::default(), |mut c| {
        if c.rank() == 1 {
            let before = c.now();
            let req = c.post_recv(Some(0), 9);
            let got = c.wait_deadline(req, Duration::from_millis(2)).unwrap();
            assert!(got.is_none());
            (c.now() - before).as_nanos()
        } else {
            0
        }
    })
    .unwrap();
    assert_eq!(report.outputs[1], 2_000_000);
}

#[test]
fn sim_messages_larger_than_chunk_limit_assemble() {
    let comm_cfg = SimCommConfig {
        max_chunk: 1024,
        ..Default::default()
    };
    let payload: Vec<u8> = (0..50_000usize).map(|i| (i % 251) as u8).collect();
    let expect = payload.clone();
    let cluster = ClusterConfig::new(2, NetParams::fast_ethernet_switch(), 3);
    let report = run_sim_world(&cluster, &comm_cfg, move |mut c| {
        if c.rank() == 0 {
            c.send(1, 1, &payload);
            true
        } else {
            recv(&mut c, Some(0), 1).into_vec() == expect
        }
    })
    .unwrap();
    assert!(report.outputs[1]);
}

/// Repair on a lossless fabric is a no-op with zero overhead counters:
/// no drops to recover means no NACKs, no retransmits, same results.
#[test]
fn repair_on_lossless_fabric_is_invisible() {
    let cluster = ClusterConfig::new(4, NetParams::fast_ethernet_switch(), 5);
    let (report, stats) = run_sim_world_stats(
        &cluster,
        &SimCommConfig::default().with_repair(),
        mcast_and_ack,
    )
    .unwrap();
    assert_eq!(report.outputs[0], 3);
    assert_eq!(stats.net.total_drops(), 0);
    assert_eq!(stats.repair.retransmits_sent, 0);
    assert_eq!(stats.repair.nacks_received, 0);
}

/// The sim repair loop end-to-end at the transport layer: one link drops
/// 60% of its arrivals (retransmissions included, so recovery may take
/// several rounds), yet the multicast-and-ack program completes. The
/// fixed seed pins a run where the loss actually fires.
#[test]
fn sim_repair_recovers_heavy_loss() {
    use mmpi_netsim::ids::HostId;
    use mmpi_netsim::params::FaultParams;
    let faults = FaultParams {
        per_link_drop: vec![(HostId(1), 0.6)],
        ..Default::default()
    };
    let cluster = ClusterConfig::new(3, NetParams::fast_ethernet_switch().with_faults(faults), 7);
    let (report, stats) = run_sim_world_stats(
        &cluster,
        &SimCommConfig::default().with_repair(),
        mcast_and_ack,
    )
    .unwrap();
    assert_eq!(report.outputs[0], 2, "all acks arrive despite 60% loss");
    assert!(stats.net.injected_frame_losses > 0, "loss must have fired");
    assert!(
        stats.repair.nacks_sent > 0 && stats.repair.retransmits_sent > 0,
        "recovery must have done work: {:?}",
        stats.repair
    );
}

#[test]
fn sim_deterministic_across_runs() {
    let run = || {
        let cluster = ClusterConfig::new(6, NetParams::fast_ethernet_hub(), 99)
            .with_start_skew(SimDuration::from_micros(40));
        run_sim_world(&cluster, &SimCommConfig::default(), mcast_and_ack)
            .unwrap()
            .makespan
    };
    assert_eq!(run(), run());
}

/// The request layer's contract, as one two-rank program every backend
/// must run to the same end — the guard for what `Backend::block`
/// promises, whoever implements it. Rank 1 is under test; rank 0 sends
/// one message per `GO` it is handed, so nothing is ever in flight that
/// rank 1 has not asked for. Unicast only: it runs where multicast does
/// not.
fn request_contract<C: Comm>(mut c: C) {
    const GO: u32 = 1;
    const UNRELATED: u32 = 10;
    const TARGET: u32 = 11;
    const LATE: u32 = 12;
    const FIRST: u32 = 13;
    const SECOND: u32 = 14;
    const POLLED: u32 = 15;
    const UNPOSTED: u32 = 16;
    const IDLE: u32 = 17;
    const PAUSE: Duration = Duration::from_millis(2);
    if c.rank() == 0 {
        for tag in [
            UNRELATED, TARGET, LATE, SECOND, FIRST, POLLED, UNPOSTED, IDLE,
        ] {
            recv(&mut c, Some(1), GO);
            // Rank 1 is inside its wait by the time this arrives (on the
            // simulator: provably; on real threads: all but surely).
            c.compute(PAUSE);
            c.send(1, tag, &tag.to_le_bytes());
        }
        return;
    }
    let payload_of = |m: Message| u32::from_le_bytes(m.payload[..4].try_into().unwrap());

    // `wait_ready` names its set: it returns when `unrelated` completes,
    // claims nothing, and then parks for `target` although `unrelated`
    // still sits complete-but-unclaimed.
    let unrelated = c.post_recv(Some(0), UNRELATED);
    let target = c.post_recv(Some(0), TARGET);
    c.wait_ready(&[]);
    c.send(0, GO, b"");
    c.wait_ready(&[unrelated]);
    c.send(0, GO, b"");
    c.wait_ready(&[target]);
    let got = c.test_claimed(target).expect("wait_ready returned early");
    assert_eq!(payload_of(got.unwrap()), TARGET);

    // `progress_block` is the opposite: with any completion unclaimed it
    // returns at once — nothing else is coming, a park here never ends.
    c.progress_block();
    let got = c.test_claimed(unrelated).expect("still parked in its slot");
    assert_eq!(payload_of(got.unwrap()), UNRELATED);

    // A `wait_deadline` that times out retires the request: the stale
    // request is ahead in post order and would otherwise take the message.
    let stale = c.post_recv(Some(0), LATE);
    assert!(c.wait_deadline(stale, PAUSE).unwrap().is_none());
    c.cancel_recv(stale); // retired already: a no-op
    let fresh = c.post_recv(Some(0), LATE);
    c.send(0, GO, b"");
    assert_eq!(payload_of(c.wait(fresh).unwrap()), LATE);

    // `wait_any` answers with the caller's index and leaves the rest
    // posted: `first` is still there to be waited on.
    let first = c.post_recv(Some(0), FIRST);
    let second = c.post_recv(Some(0), SECOND);
    c.send(0, GO, b"");
    let (index, m) = c.wait_any(&[first, second]).unwrap();
    assert_eq!((index, payload_of(m)), (1, SECOND));
    c.send(0, GO, b"");
    assert_eq!(payload_of(c.wait(first).unwrap()), FIRST);

    // `test` is a progress pass plus the claim: `None` while nothing has
    // been sent, and a `progress_block` between tests is enough to see
    // the message arrive.
    let polled = c.post_recv(Some(0), POLLED);
    assert!(c.test(polled).is_none());
    c.send(0, GO, b"");
    let got = loop {
        match c.test(polled) {
            Some(done) => break done,
            None => c.progress_block(),
        }
    };
    assert_eq!(payload_of(got.unwrap()), POLLED);

    // `progress_block` blocks for one *event*, not for a completion: a
    // datagram nobody has posted for ends it, with `idle` still pending.
    let idle = c.post_recv(Some(0), IDLE);
    c.send(0, GO, b"");
    c.progress_block();
    let buffered = c.post_recv(Some(0), UNPOSTED);
    assert_eq!(payload_of(c.wait(buffered).unwrap()), UNPOSTED);
    c.send(0, GO, b"");
    assert_eq!(payload_of(c.wait(idle).unwrap()), IDLE);
}

/// Run `body` on its own thread and fail, not hang, if it has neither
/// returned nor panicked within `secs` of wall time (a broken wait on real
/// threads is a rank blocked for good).
fn within(secs: u64, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("the world panicked or is still blocked");
}

#[test]
fn request_contract_holds_on_every_backend() {
    for params in [
        NetParams::fast_ethernet_hub(),
        NetParams::fast_ethernet_switch(),
    ] {
        let cluster = ClusterConfig::new(2, params, 11);
        run_sim_world(&cluster, &SimCommConfig::default(), request_contract).unwrap();
    }
    within(30, || drop(run_mem_world(2, 0, request_contract)));
    within(30, || {
        run_udp_world(2, &UdpConfig::loopback(46_300), request_contract).unwrap();
    });
}

/// What a stranger can put on a live endpoint's port: noise, a datagram
/// cut off inside its header, a well-formed message of somebody else's
/// communicator, a NACK with no body, and a forged chunk header — forty
/// bytes claiming the first of four billion chunks of a 4 GiB message,
/// which used to reserve the 4 GiB. Then two forgeries that are
/// well-formed and, nothing authenticating a sender, accepted: a message
/// naming rank `u32::MAX` as its source and one numbered `1 << 62`, under
/// [`forged_tag`] so that they match no receive of the test — what they may
/// not do is size a table by what they claim (`docs/INVARIANTS.md` §6).
/// `valid` is what the endpoint is actually waiting for, from rank 0.
fn hostile_datagrams(context: u32, tag: u32) -> (Vec<Vec<u8>>, Vec<u8>) {
    let wire_from = |kind, context, src, tag, seq, payload: &[u8]| {
        let mut out = Vec::new();
        let payload = Bytes::copy_from_slice(payload);
        split_message(kind, context, src, tag, seq, &payload, 60_000)[0].write_contiguous(&mut out);
        out
    };
    let wire = |kind, context, seq, payload: &[u8]| wire_from(kind, context, 0, tag, seq, payload);
    let valid = wire(MsgKind::Data, context, 0, b"valid");
    let forged = forged_tag(tag);
    let hostile = vec![
        (0..97u32).map(|i| (i * 193 + 7) as u8).collect(),
        valid[..mmpi_wire::HEADER_LEN / 2].to_vec(),
        wire(MsgKind::Data, context ^ 0x5A5A, 0, b"foreign"),
        // Its own sequence number: a forged one that collides with real
        // traffic would shadow it as a duplicate, as any forgery can.
        wire(MsgKind::Nack, context, 1, b""),
        mmpi_wire::Header {
            kind: MsgKind::Data,
            context,
            src_rank: 0,
            tag,
            seq: 2,
            msg_len: u32::MAX,
            chunk_index: 0,
            chunk_count: u32::MAX,
            chunk_len: 0,
        }
        .encode_array()
        .to_vec(),
        wire_from(MsgKind::Data, context, u32::MAX, forged, 3, b"far source"),
        wire_from(MsgKind::Data, context, 0, forged, 1 << 62, b"far seq"),
    ];
    (hostile, valid)
}

/// The tag the two accepted forgeries of [`hostile_datagrams`] carry.
fn forged_tag(tag: u32) -> u32 {
    tag + 2
}

/// The two forgeries were accepted and filed like any message, in arrival
/// order: an any-source receive on their tag finds them.
fn assert_forgeries_accepted(comm: &mut impl Comm, tag: u32) {
    for (src, seq, payload) in [(u32::MAX, 3, &b"far source"[..]), (0, 1 << 62, b"far seq")] {
        let req = comm.post_recv(None, forged_tag(tag));
        let got = comm.test(req).expect("already buffered").unwrap();
        assert_eq!(
            (got.src_rank, got.seq, &got.payload[..]),
            (src, seq, payload)
        );
    }
}

/// The first five datagrams of [`hostile_datagrams`] are dropped exactly
/// once each, under the counter that says why: the foreign communicator's
/// message as foreign, the other four as malformed — the noise, the cut
/// header and the forged chunking by the wire layer, the empty NACK by the
/// SRM plane. The two forgeries behind them count as neither.
fn assert_hostile_datagrams_counted(stats: &mmpi_wire::RepairStats) {
    assert_eq!((stats.malformed_dropped, stats.foreign_dropped), (4, 1));
    assert_eq!((stats.nacks_received, stats.retransmits_sent), (0, 0));
}

#[test]
fn udp_endpoint_drops_hostile_datagrams_and_keeps_receiving() {
    const TAG: u32 = 5;
    let cfg = UdpConfig::loopback(46_400).with_repair();
    let (hostile, valid) = hostile_datagrams(cfg.context, TAG);
    let mut comm = UdpComm::new(1, 2, cfg).unwrap();
    let req = comm.post_recv(Some(0), TAG);
    let stranger = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    for bytes in hostile.iter().chain([&valid]) {
        stranger.send_to(bytes, "127.0.0.1:46401").unwrap();
    }
    // One socket, one queue: the valid datagram is read last.
    let got = comm.wait_deadline(req, Duration::from_secs(5)).unwrap();
    assert_eq!(got.expect("delivered after the noise").payload, b"valid");
    assert_eq!(comm.outstanding_recvs(), 0);
    assert_hostile_datagrams_counted(&comm.repair_stats());
    assert_forgeries_accepted(&mut comm, TAG);
}

#[test]
fn sim_endpoint_drops_hostile_datagrams_and_keeps_receiving() {
    const TAG: u32 = 5;
    let cfg = SimCommConfig::default().with_repair();
    let (hostile, valid) = hostile_datagrams(cfg.context, TAG);
    let cluster = ClusterConfig::new(2, NetParams::fast_ethernet_switch(), 3);
    let report = run_cluster(&cluster, |mut proc| {
        if proc.rank() == 0 {
            // A raw rank: no endpoint, just a socket to shout from.
            let socket = proc.bind(cfg.port);
            for bytes in hostile.iter().chain([&valid]) {
                let to = DatagramDst::Unicast(HostId(1));
                proc.send(socket, to, cfg.port, SharedPayload::from(bytes.clone()));
                proc.compute(SimDuration::from_micros(200));
            }
            return None;
        }
        let mut comm = SimComm::new(proc, 2, cfg.clone());
        let req = comm.post_recv(Some(0), TAG);
        let other = comm.post_recv(Some(0), TAG + 1);
        let other = comm.wait_deadline(other, Duration::from_micros(1300));
        assert!(other.unwrap().is_none(), "nothing hostile matched");
        // The seven hostile datagrams have come and gone; `req` is as it was.
        assert_eq!(comm.outstanding_recvs(), 1);
        let got = comm.wait(req).unwrap();
        assert_eq!(comm.outstanding_recvs(), 0);
        assert_hostile_datagrams_counted(&comm.repair_stats());
        assert_forgeries_accepted(&mut comm, TAG);
        Some(got.payload)
    })
    .unwrap();
    assert_eq!(report.outputs[1].as_deref(), Some(&b"valid"[..]));
}
