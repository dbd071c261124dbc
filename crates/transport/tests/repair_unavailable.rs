//! Regression tests for the PR-2 repair-path livelock: a NACK for
//! traffic evicted from the sender's `RetransmitBuffer` ring used to be
//! silently unanswerable — the requester re-solicited forever. The
//! responder now answers with `MsgKind::Unavail` (an eviction-floor
//! advertisement) and the receiver surfaces a typed
//! [`RecvError::Unavailable`] within a bounded number of solicits.
//!
//! The first tests drive two bare [`EndpointCore`]s through the scripted
//! in-memory [`ScriptedPump`] (full control over delivery and time); the
//! last reproduces the livelock end-to-end on the simulator with a
//! one-shot partition provoking the eviction.

use std::time::Duration;

use mmpi_transport::testing::ScriptedPump;
use mmpi_transport::{EndpointCore, Nanos, RecvError, RepairConfig, WaitKind};
use mmpi_wire::{Bytes, Message, MsgKind, SendDst};

/// A 2-rank harness: rank 0 (the sender) and rank 1 (the receiver),
/// wired back-to-back with a shared clock.
fn pipes(cfg: RepairConfig) -> (EndpointCore, ScriptedPump, EndpointCore, ScriptedPump) {
    let (sender_io, receiver_io) = ScriptedPump::pair();
    let sender = EndpointCore::new(0, 0, 2, 60_000, Some(cfg));
    let receiver = EndpointCore::new(0, 1, 2, 60_000, Some(cfg));
    (sender, sender_io, receiver, receiver_io)
}

/// One bounded receive attempt at `core`: post, wait out `timeout`,
/// cancel on expiry.
fn recv_within(
    core: &mut EndpointCore,
    io: &mut ScriptedPump,
    src: Option<usize>,
    tag: u32,
    timeout: Duration,
) -> Result<Option<Message>, RecvError> {
    let req = core.post_recv(io, src, tag);
    let deadline = io.clock().saturating_add(timeout.as_nanos() as Nanos);
    core.block(io, &WaitKind::Until(req, deadline));
    match core.test_claimed(req) {
        Some(done) => done.map(Some),
        None => {
            core.cancel_req(req);
            Ok(None)
        }
    }
}

/// Encode + record a send on `core` *without* delivering it (the "lost
/// datagram" of the scenario).
fn send_lost(core: &mut EndpointCore, tag: u32) {
    let payload = Bytes::from(vec![7u8; 64]);
    let seq = core.fresh_seq();
    let dgs = core.encode(tag, MsgKind::Data, &payload, seq);
    core.record_if_armed(seq, SendDst::Rank(1), tag, MsgKind::Data, &dgs);
}

fn small_ring() -> RepairConfig {
    let mut rc = RepairConfig::sim_default();
    rc.buffer_cap = 4;
    rc
}

/// The headline regression: the receiver NACKs ring-evicted traffic and
/// gets a typed [`RecvError::Unavailable`] within a bounded number of
/// solicits instead of livelocking.
#[test]
fn evicted_traffic_fails_fast_with_typed_error() {
    let (mut sender, mut sender_io, mut receiver, mut receiver_io) = pipes(small_ring());

    // Rank 0 sends tag 10 (lost), then five more messages (tags 11..=15)
    // — a 4-slot ring evicts tags 10 and 11.
    for tag in 10..=15 {
        send_lost(&mut sender, tag);
    }

    let mut solicits = 0;
    let err = loop {
        // One bounded receive attempt: long enough (5 ms against a 2 ms
        // nack_timeout + ≤2 ms backoff) that every attempt solicits.
        match recv_within(
            &mut receiver,
            &mut receiver_io,
            Some(0),
            10,
            Duration::from_millis(5),
        ) {
            Err(e) => break e,
            Ok(Some(_)) => panic!("the message was lost; nothing can arrive"),
            Ok(None) => {}
        }
        solicits += 1;
        assert!(
            solicits < 4,
            "receiver must fail fast, not re-solicit forever (the PR-2 livelock)"
        );
        // The sender takes the NACK in and services it; the answer is
        // queued for the receiver's next attempt.
        sender.progress(&mut sender_io);
    };
    assert_eq!(
        err,
        RecvError::Unavailable {
            src: 0,
            tag: 10,
            tag_floor: 11,
        },
        "the eviction floor (highest evicted tag) is advertised"
    );
    assert_eq!(sender.repair_stats().unavailable_sent, 1);
    assert_eq!(
        sender.repair_stats().retransmits_sent,
        0,
        "nothing could be replayed"
    );
    // The error is typed, printable, and names the remedy.
    assert!(err.to_string().contains("retransmit ring"));
}

/// A NACK for traffic *above* the eviction floor (not yet sent, or never
/// this sender's) stays silently unanswered — the normal path: the
/// message will match when it arrives.
#[test]
fn nack_above_eviction_floor_stays_pending() {
    let (mut sender, mut sender_io, mut receiver, mut receiver_io) = pipes(small_ring());
    for tag in 10..=15 {
        send_lost(&mut sender, tag);
    }

    // Tag 99 was never sent and is above the floor (11): no Unavail.
    let got = recv_within(
        &mut receiver,
        &mut receiver_io,
        Some(0),
        99,
        Duration::from_millis(5),
    )
    .expect("no unavailability may be reported");
    assert!(got.is_none(), "nothing arrived, and that is fine");
    sender.progress(&mut sender_io);
    let s = sender.repair_stats();
    assert_eq!(s.unavailable_sent, 0);
    assert_eq!(s.unanswered_nacks, 1);

    // The receiver keeps waiting rather than erroring.
    let got = recv_within(
        &mut receiver,
        &mut receiver_io,
        Some(0),
        99,
        Duration::from_millis(5),
    )
    .expect("still no error");
    assert!(got.is_none());
}

/// Traffic still in the ring is replayed, not declared unavailable, even
/// when *other* records have been evicted.
#[test]
fn retained_traffic_still_recovers_after_eviction() {
    let (mut sender, mut sender_io, mut receiver, mut receiver_io) = pipes(small_ring());
    for tag in 10..=15 {
        send_lost(&mut sender, tag);
    }

    // Tag 14 is still in the 4-slot ring (12..=15 retained).
    let mut attempts = 0;
    let got = loop {
        match recv_within(
            &mut receiver,
            &mut receiver_io,
            Some(0),
            14,
            Duration::from_millis(5),
        ) {
            Err(e) => panic!("tag 14 is retained; {e}"),
            Ok(Some(m)) => break m,
            Ok(None) => {}
        }
        attempts += 1;
        assert!(attempts < 4, "one solicit round must recover it");
        sender.progress(&mut sender_io);
    };
    assert_eq!(got.payload, vec![7u8; 64]);
    assert_eq!(sender.repair_stats().retransmits_sent, 1);
    assert_eq!(sender.repair_stats().unavailable_sent, 0);
}

/// An *any-source* solicit must never draw an `Unavail`: it is serviced
/// by every peer, and a peer whose ring happens to have evicted
/// unrelated traffic is not entitled to declare the awaited message
/// unrecoverable — the real holder's repair may be in flight.
#[test]
fn any_source_nack_never_answered_unavailable() {
    let (mut sender, mut sender_io, mut receiver, mut receiver_io) = pipes(small_ring());
    for tag in 10..=15 {
        send_lost(&mut sender, tag);
    }

    // Any-source receive of the evicted tag 10: solicits target ANY.
    for _ in 0..2 {
        let got = recv_within(
            &mut receiver,
            &mut receiver_io,
            None,
            10,
            Duration::from_millis(5),
        )
        .expect("an ANY solicit must not be declared unavailable");
        assert!(got.is_none());
        sender.progress(&mut sender_io);
    }
    assert_eq!(sender.repair_stats().unavailable_sent, 0);
    // The evicted tag matches nothing, so the solicit stays pending —
    // counted, never escalated.
    assert!(sender.repair_stats().unanswered_nacks > 0);
}

/// Same-tag streams past the ring: the requester already holds every
/// *retained* tag-10 record, but the message it actually needs was
/// evicted — the responder must recognize the advertised holes reaching
/// the eviction horizon and answer `Unavail` instead of staying silent
/// forever (nothing to replay, nothing to advertise would be the
/// livelock).
#[test]
fn evicted_seq_behind_retained_same_tag_records_fails_fast() {
    let (mut sender, mut sender_io, mut receiver, mut receiver_io) = pipes(small_ring());

    // Six same-tag messages; the 4-slot ring evicts seqs 0 and 1.
    // Seqs 2..=5 are delivered and consumed; 0 and 1 were lost.
    let payload = Bytes::from(vec![9u8; 32]);
    for _ in 0..6 {
        let seq = sender.fresh_seq();
        let dgs = sender.encode(10, MsgKind::Data, &payload, seq);
        sender.record_if_armed(seq, SendDst::Rank(1), 10, MsgKind::Data, &dgs);
        if seq >= 2 {
            receiver_io.inject(dgs);
        }
    }
    for _ in 2..=5 {
        let got = recv_within(
            &mut receiver,
            &mut receiver_io,
            Some(0),
            10,
            Duration::from_millis(5),
        )
        .expect("delivered records match normally");
        assert!(got.is_some());
    }

    // The receiver now waits for the lost traffic: its solicit
    // advertises holes at seqs 0..=1, which reach the eviction horizon
    // even though newer tag-10 records are still retained.
    let mut attempts = 0;
    let err = loop {
        match recv_within(
            &mut receiver,
            &mut receiver_io,
            Some(0),
            10,
            Duration::from_millis(5),
        ) {
            Err(e) => break e,
            Ok(Some(_)) => panic!("seqs 0/1 are gone; nothing can arrive"),
            Ok(None) => {}
        }
        attempts += 1;
        assert!(attempts < 4, "must fail fast, not livelock");
        sender.progress(&mut sender_io);
    };
    assert!(matches!(
        err,
        RecvError::Unavailable {
            src: 0,
            tag: 10,
            ..
        }
    ));
    assert_eq!(
        sender.repair_stats().retransmits_sent,
        0,
        "retained records are all held by the requester — none replayed"
    );
}

/// A leftover *directed* advertisement must not fail a later any-source
/// wait for the same tag: the documented fallback after
/// `RecvError::Unavailable` is to fetch the traffic from another peer,
/// and an `Unavail` only speaks for the one responder that sent it.
#[test]
fn stale_directed_unavail_does_not_fail_any_source_waits() {
    let (mut sender, mut sender_io, mut receiver, mut receiver_io) = pipes(small_ring());
    for tag in 10..=15 {
        send_lost(&mut sender, tag);
    }

    // Directed wait fails fast, as designed...
    let err = loop {
        match recv_within(
            &mut receiver,
            &mut receiver_io,
            Some(0),
            10,
            Duration::from_millis(5),
        ) {
            Err(e) => break e,
            Ok(Some(_)) => panic!("the message was lost; nothing can arrive"),
            Ok(None) => {}
        }
        sender.progress(&mut sender_io);
        // Service may answer twice before the receiver consumes one:
        // queue another round so a second Unavail is actually pending.
    };
    assert!(matches!(err, RecvError::Unavailable { src: 0, .. }));

    // ...and the fallback any-source wait for the same tag must NOT be
    // poisoned by any still-queued advertisement: it returns pending,
    // never Err.
    let got = recv_within(
        &mut receiver,
        &mut receiver_io,
        None,
        10,
        Duration::from_millis(5),
    )
    .expect("an any-source wait never consumes a directed Unavail");
    assert!(got.is_none());
}

/// Overheard *any-source* solicits arm the suppression memory too: a
/// peer stuck on the same tag stays quiet inside the window instead of
/// adding its own NACK to the storm.
#[test]
fn overheard_any_source_solicit_suppresses_our_own() {
    // Rank 1 of 3; rank 2 (not wired up — we forge its solicit) NACKs
    // tag 7 any-source just before rank 1's own deadline expires.
    let mut core = EndpointCore::new(0, 1, 3, 60_000, Some(RepairConfig::sim_default()));
    let mut io = ScriptedPump::new();

    // Forge rank 2's multicast any-source NACK for tag 7.
    let mut peer = EndpointCore::new(0, 2, 3, 60_000, Some(RepairConfig::sim_default()));
    let payload = mmpi_wire::NackPayload::addressed_to(mmpi_wire::NACK_TARGET_ANY).encode();
    let seq = peer.fresh_seq();
    io.inject(peer.encode(7, MsgKind::Nack, &payload, seq));

    // Rank 1 now waits any-source on the same tag: its deadline expiry
    // falls inside the suppression window of the overheard solicit.
    let got = recv_within(&mut core, &mut io, None, 7, Duration::from_millis(4))
        .expect("nothing unavailable here");
    assert!(got.is_none());
    let s = core.repair_stats();
    assert!(
        s.nacks_suppressed > 0,
        "the overheard ANY solicit must suppress our own ({s:?})"
    );
    assert_eq!(s.nacks_sent, 0, "no redundant NACK inside the window");
}

/// End-to-end on the simulator: a one-shot partition hides rank 0's
/// sends from rank 1 long enough for a tiny retransmit ring to evict the
/// first one; after the cut heals, rank 1's NACK is answered with the
/// eviction advertisement and the timed wait surfaces the typed error in
/// bounded time.
#[test]
fn sim_partition_provokes_eviction_and_typed_error() {
    use mmpi_netsim::cluster::ClusterConfig;
    use mmpi_netsim::ids::HostId;
    use mmpi_netsim::params::{FaultParams, NetParams};
    use mmpi_netsim::topology::TopologyScript;
    use mmpi_netsim::{SimDuration, SimTime};
    use mmpi_transport::{run_sim_world_stats, Comm, SimCommConfig};

    let faults = FaultParams {
        topology: TopologyScript::partition_window(
            SimTime::from_micros(100),
            SimDuration::from_millis(4),
            vec![HostId(1)],
        ),
        ..Default::default()
    };
    let params = NetParams::fast_ethernet_switch().with_faults(faults);
    let mut comm_cfg = SimCommConfig::default().with_repair();
    let mut rc = comm_cfg.repair.expect("just set");
    rc.buffer_cap = 4;
    comm_cfg.repair = Some(rc);

    let (report, stats) =
        run_sim_world_stats(&ClusterConfig::new(2, params, 42), &comm_cfg, |mut c| {
            if c.rank() == 0 {
                // Inside the partition window: tag 10 plus five evicting
                // sends, none of which reach rank 1.
                c.compute(Duration::from_millis(1));
                for tag in 10..=15 {
                    c.send(1, tag, vec![tag as u8; 64]);
                }
                // Stay alive past the heal so the drain answers NACKs.
                Ok(None)
            } else {
                // Wake after the cut heals and ask for the evicted tag.
                c.compute(Duration::from_millis(6));
                let req = c.post_recv(Some(0), 10);
                c.wait_deadline(req, Duration::from_millis(100))
            }
        })
        .expect("sim run failed");

    assert_eq!(
        report.outputs[1],
        Err(RecvError::Unavailable {
            src: 0,
            tag: 10,
            tag_floor: 11,
        }),
        "rank 1 must learn the loss is unrecoverable"
    );
    assert!(stats.net.partition_drops > 0, "the cut must drop frames");
    assert_eq!(stats.repair.unavailable_sent, 1);
    assert!(
        stats.repair.nacks_sent <= 3,
        "bounded solicits before failing fast, got {}",
        stats.repair.nacks_sent
    );
}
