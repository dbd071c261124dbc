//! Unit tests of the inbox, the engine and — through the engine's
//! surface — each plane, over the scripted pump.

use std::time::Duration;

use mmpi_wire::{
    split_message, AckHorizonPayload, Bytes, FailureAnnouncePayload, HeartbeatPayload, HorizonEcho,
    Message, MsgKind, NackPayload, SeqRange, SourceHorizon,
};

use crate::planes::horizon::PeerRtt;
use crate::planes::CONTROL_SEQ_BASE;
use crate::pump::deadline_after;
use crate::testing::ScriptedPump;
use crate::{EndpointCore, Inbox, RecvError, RecvReq, RepairConfig, WaitKind};

/// [`crate::Comm::test`] on a bare core: a progress pass, then the claim.
fn test_req(
    core: &mut EndpointCore,
    io: &mut ScriptedPump,
    req: RecvReq,
) -> Option<Result<Message, RecvError>> {
    core.progress(io);
    core.test_claimed(req)
}

fn msg(src: u32, tag: u32, seq: u64, payload: &[u8]) -> Message {
    Message {
        kind: MsgKind::Data,
        context: 0,
        src_rank: src,
        tag,
        seq,
        payload: Bytes::copy_from_slice(payload),
    }
}

#[test]
fn matches_by_src_and_tag_in_fifo_order() {
    let mut inbox = Inbox::new(0, 9);
    inbox.ingest_message(msg(1, 5, 0, b"a"), false);
    inbox.ingest_message(msg(2, 5, 0, b"b"), false);
    inbox.ingest_message(msg(1, 5, 1, b"c"), false);
    assert_eq!(inbox.take_match(Some(1), 5).unwrap().payload, b"a");
    assert_eq!(inbox.take_match(Some(1), 5).unwrap().payload, b"c");
    assert!(inbox.take_match(Some(1), 5).is_none());
    assert_eq!(inbox.take_match(Some(2), 5).unwrap().payload, b"b");
}

#[test]
fn any_source_matching() {
    let mut inbox = Inbox::new(0, 9);
    inbox.ingest_message(msg(3, 7, 0, b"x"), false);
    inbox.ingest_message(msg(1, 7, 0, b"y"), false);
    assert_eq!(inbox.take_match(None, 7).unwrap().src_rank, 3);
    assert_eq!(inbox.take_match(None, 7).unwrap().src_rank, 1);
}

#[test]
fn wrong_tag_stays_buffered() {
    let mut inbox = Inbox::new(0, 9);
    inbox.ingest_message(msg(1, 5, 0, b"a"), false);
    assert!(inbox.take_match(Some(1), 6).is_none());
    assert_eq!(inbox.backlog(), 1);
}

#[test]
fn duplicates_suppressed_by_seq() {
    let mut inbox = Inbox::new(0, 9);
    inbox.ingest_message(msg(1, 5, 42, b"a"), false);
    inbox.ingest_message(msg(1, 5, 42, b"a"), false);
    assert_eq!(inbox.backlog(), 1);
    assert_eq!(inbox.duplicates_dropped(), 1);
    // Same seq from a different sender is a different message.
    inbox.ingest_message(msg(2, 5, 42, b"b"), false);
    assert_eq!(inbox.backlog(), 2);
}

#[test]
fn foreign_context_dropped() {
    let mut inbox = Inbox::new(3, 9);
    let mut m = msg(1, 5, 0, b"a");
    m.context = 4;
    inbox.ingest_message(m, false);
    assert_eq!(inbox.backlog(), 0);
    assert_eq!(inbox.foreign_dropped(), 1);
}

#[test]
fn multicast_self_echo_filtered() {
    let mut inbox = Inbox::new(0, 2);
    inbox.ingest_message(msg(2, 5, 0, b"me"), true);
    assert_eq!(inbox.backlog(), 0);
    inbox.ingest_message(msg(2, 5, 0, b"me"), false);
    assert_eq!(inbox.backlog(), 1, "unicast self-send is legitimate");
}

#[test]
fn ingest_wire_assembles_chunks_zero_copy() {
    let mut inbox = Inbox::new(0, 9);
    let payload = Bytes::from(vec![7u8; 5000]);
    for d in split_message(MsgKind::Data, 0, 1, 2, 3, &payload, 2000) {
        inbox.ingest_wire(&d, false).unwrap();
    }
    let m = inbox.take_match(Some(1), 2).unwrap();
    assert_eq!(m.payload, payload);
}

#[test]
fn ingest_single_chunk_shares_receive_buffer() {
    let mut inbox = Inbox::new(0, 9);
    let payload = Bytes::from(vec![1u8; 100]);
    let dgs = split_message(MsgKind::Data, 0, 1, 2, 3, &payload, 2000);
    inbox.ingest_wire(&dgs[0], false).unwrap();
    drop(dgs);
    let m = inbox.take_match(Some(1), 2).unwrap();
    assert_eq!(
        payload.handle_count(),
        2,
        "matched message still views the sender's buffer"
    );
    assert_eq!(m.payload, payload);
}

#[test]
fn nacks_divert_to_repair_queue_not_matching() {
    let mut inbox = Inbox::new(0, 9);
    let mut n = msg(1, 5, 0, b"");
    n.kind = MsgKind::Nack;
    inbox.ingest_message(n, false);
    assert_eq!(inbox.backlog(), 0, "NACK must not be matchable");
    assert!(inbox.take_match(Some(1), 5).is_none());
    let taken = inbox.take_nack().expect("NACK queued for repair loop");
    assert_eq!(taken.tag, 5);
    assert!(inbox.take_nack().is_none());
}

#[test]
fn effective_drain_grace_scales_and_caps() {
    let sim = RepairConfig::sim_default();
    // Small worlds keep the configured base.
    assert_eq!(sim.effective_drain_grace(4), sim.drain_grace);
    // n=16: 2 × 16 × (2+2) ms = 128 ms — the straggler-chain bound.
    assert_eq!(sim.effective_drain_grace(16), Duration::from_millis(128));
    // UDP at n=64 would be 2 × 64 × 80 ms = 10.24 s of wall-clock
    // teardown; the cap bounds it.
    let udp = RepairConfig::udp_default();
    assert_eq!(udp.effective_drain_grace(64), udp.drain_grace_cap);
    // A cap equal to the base pins the grace: scaling has no room.
    let mut fixed = sim;
    fixed.drain_grace_cap = fixed.drain_grace;
    assert_eq!(fixed.effective_drain_grace(64), fixed.drain_grace);
}

#[test]
fn missing_from_reports_holes_and_tail() {
    let mut inbox = Inbox::new(0, 9);
    for seq in [0u64, 1, 3] {
        inbox.ingest_message(msg(1, 5, seq, b"x"), false);
    }
    assert_eq!(
        inbox.missing_from(1),
        vec![
            SeqRange { start: 2, end: 2 },
            SeqRange {
                start: 4,
                end: u64::MAX
            },
        ]
    );
    // Unknown source: everything is missing (one conservative range).
    assert_eq!(
        inbox.missing_from(7),
        vec![SeqRange {
            start: 0,
            end: u64::MAX
        }]
    );
    // More holes than a NACK payload can carry: the full set is
    // still produced (never empty — the responder's eviction-horizon
    // check needs the lowest hole) and the wire encode collapses the
    // overflow conservatively, preserving that lowest hole.
    let mut holey = Inbox::new(0, 9);
    for seq in (0u64..40).step_by(2) {
        holey.ingest_message(msg(1, 5, seq, b"x"), false);
    }
    let ranges = holey.missing_from(1);
    assert!(ranges.len() > mmpi_wire::MAX_NACK_RANGES);
    assert_eq!(ranges[0], SeqRange { start: 1, end: 1 });
    let encoded = NackPayload {
        target: 1,
        missing: ranges,
    }
    .encode();
    let decoded = NackPayload::decode(&encoded).unwrap();
    assert_eq!(decoded.missing.len(), mmpi_wire::MAX_NACK_RANGES);
    assert_eq!(decoded.missing[0].start, 1, "lowest hole survives");
}

#[test]
fn unavail_queue_dedups_per_responder_and_tag() {
    let mut inbox = Inbox::new(0, 9);
    for seq in 0..3 {
        let mut m = msg(1, 5, seq, b"");
        m.kind = MsgKind::Unavail;
        inbox.ingest_message(m, false);
    }
    let mut other = msg(2, 5, 0, b"");
    other.kind = MsgKind::Unavail;
    inbox.ingest_message(other, false);
    // Three answers from rank 1 collapse to the freshest one; rank
    // 2's is independent.
    assert!(inbox.take_unavail(Some(1), 5).is_some());
    assert!(inbox.take_unavail(Some(1), 5).is_none());
    assert!(inbox.take_unavail(Some(2), 5).is_some());
}

#[test]
fn ingest_datagram_rejects_garbage() {
    let mut inbox = Inbox::new(0, 9);
    assert!(inbox
        .ingest_datagram_via(&Bytes::from(&[1u8, 2, 3][..]), false)
        .is_err());
    assert_eq!(inbox.backlog(), 0);
}

#[test]
fn cancel_requeues_matched_message_for_next_request() {
    let mut core = EndpointCore::new(0, 1, 2, 60_000, None);
    let mut io = ScriptedPump::new();
    let req = core.post_recv(&mut io, Some(0), 5);
    io.inject_message(MsgKind::Data, 0, 5, 0, b"survivor");
    // The progress pass matches the message into the request slot.
    core.progress(&mut io);
    core.cancel_req(req);
    // The cancel must have requeued it: a fresh request claims it.
    let again = core.post_recv(&mut io, Some(0), 5);
    let got = test_req(&mut core, &mut io, again).expect("requeued message");
    assert_eq!(got.unwrap().payload, b"survivor");
}

#[test]
fn test_retires_the_handle() {
    let mut core = EndpointCore::new(0, 1, 2, 60_000, None);
    let mut io = ScriptedPump::new();
    let req = core.post_recv(&mut io, Some(0), 5);
    io.inject_message(MsgKind::Data, 0, 5, 0, b"x");
    assert!(test_req(&mut core, &mut io, req).is_some());
    assert_eq!(core.outstanding_recvs(), 0);
}

#[test]
#[should_panic(expected = "not posted")]
fn waiting_a_retired_handle_panics() {
    let mut core = EndpointCore::new(0, 1, 2, 60_000, None);
    let mut io = ScriptedPump::new();
    let req = core.post_recv(&mut io, Some(0), 5);
    io.inject_message(MsgKind::Data, 0, 5, 0, b"x");
    assert!(test_req(&mut core, &mut io, req).is_some());
    let _ = test_req(&mut core, &mut io, req); // second use: programming error
}

/// Regression (found by the overlapping-collectives kitchen sink):
/// `progress_block` must NOT park while a posted receive already
/// holds an unclaimed completion — a round-robin poller's other
/// operation may have drained the socket and parked this one's
/// *last* message, and no further datagram will ever arrive. The
/// scripted pump panics on a blocking pump with nothing queued, so
/// the old behaviour fails loudly here.
#[test]
fn progress_block_returns_instead_of_parking_over_claimable_work() {
    let mut core = EndpointCore::new(0, 1, 2, 60_000, None);
    let mut io = ScriptedPump::new();
    let a = core.post_recv(&mut io, Some(0), 1);
    let b = core.post_recv(&mut io, Some(0), 2);
    io.inject_message(MsgKind::Data, 0, 1, 0, b"for-a");
    io.inject_message(MsgKind::Data, 0, 2, 1, b"for-b");
    // A nonblocking test of `b` drains the queue and parks BOTH
    // completions; claiming `b` leaves `a` complete-but-unclaimed.
    assert!(test_req(&mut core, &mut io, b).is_some());
    core.block(&mut io, &WaitKind::AnyPosted); // must return, not pump
    assert_eq!(core.test_claimed(a).unwrap().unwrap().payload, b"for-a");
}

/// The dual contract: `wait_ready` on a specific set must keep
/// pumping even while an unrelated request sits complete-but-
/// unclaimed (a `progress_block` loop would spin on it).
#[test]
fn wait_ready_pumps_past_unrelated_parked_completions() {
    let mut core = EndpointCore::new(0, 1, 2, 60_000, None);
    let mut io = ScriptedPump::new();
    let unrelated = core.post_recv(&mut io, Some(0), 1);
    let target = core.post_recv(&mut io, Some(0), 2);
    io.inject_message(MsgKind::Data, 0, 1, 0, b"parked");
    core.progress(&mut io); // parks `unrelated`, leaves it unclaimed
    io.inject_message(MsgKind::Data, 0, 2, 1, b"wanted");
    core.block(&mut io, &WaitKind::AnyOf(&[target])); // must pump to `target`
    assert_eq!(
        core.test_claimed(target).unwrap().unwrap().payload,
        b"wanted"
    );
    core.cancel_req(unrelated);
}

/// The tentpole property at unit level: a wait on one request keeps
/// the solicitation deadlines of *every other* posted request firing
/// — repair is not head-of-line-blocked on the request being waited.
#[test]
fn waiting_one_request_solicits_for_all_posted() {
    let mut rc = RepairConfig::sim_default();
    rc.backoff = Duration::ZERO;
    let mut core = EndpointCore::new(0, 1, 4, 60_000, Some(rc));
    let mut io = ScriptedPump::new();
    // Three directed receives from three different peers, none of
    // which will ever arrive.
    let _a = core.post_recv(&mut io, Some(0), 10);
    let _b = core.post_recv(&mut io, Some(2), 11);
    let c = core.post_recv(&mut io, Some(3), 12);
    // Park on the *last* one long enough for two solicitation rounds.
    let deadline = deadline_after(io.clock(), rc.nack_timeout * 2 + Duration::from_millis(1));
    core.expire_at(c, deadline);
    core.block(&mut io, &WaitKind::AnyOf(&[c]));
    let waited = core.test_claimed(c);
    assert_eq!(
        waited,
        Some(Err(RecvError::TimedOut)),
        "nothing ever arrives"
    );
    let s = core.repair_stats();
    assert!(
        s.nacks_sent >= 6,
        "each of the 3 posted receives must have solicited at least \
         twice while only one was being waited on (got {})",
        s.nacks_sent
    );
}

#[test]
fn peer_rtt_follows_rfc6298() {
    let mut p = PeerRtt::default();
    assert_eq!(p.timeout(), None, "no estimate before the first sample");
    p.observe(1_000_000);
    // First sample: srtt = s, rttvar = s/2, timeout = 3s.
    assert_eq!(p.srtt(), Some(1_000_000));
    assert_eq!(p.timeout(), Some(3_000_000));
    // Repeated identical samples: variance decays, timeout tightens
    // toward srtt.
    for _ in 0..40 {
        p.observe(1_000_000);
    }
    assert_eq!(p.srtt(), Some(1_000_000));
    assert!(p.timeout().unwrap() < 1_200_000, "{:?}", p.timeout());
    // A sustained jump re-converges the mean.
    for _ in 0..60 {
        p.observe(5_000_000);
    }
    assert!(p.srtt().unwrap() > 4_500_000, "{:?}", p.srtt());
}

fn horizon_repair() -> RepairConfig {
    RepairConfig::sim_default()
        .with_adaptive()
        .with_horizon_interval(Duration::from_millis(1))
}

/// Queue an encoded ACK-horizon session message from `src`.
fn queue_horizon(io: &mut ScriptedPump, src: u32, seq: u64, p: &AckHorizonPayload) {
    queue_control(io, MsgKind::AckHorizon, src, seq, &p.encode());
}

/// Queue an encoded session message (`AckHorizon`, `Heartbeat` or
/// `FailureAnnounce`) from `src`, in the out-of-band control seq space
/// like the real emitters.
fn queue_control(io: &mut ScriptedPump, kind: MsgKind, src: u32, seq: u64, payload: &[u8]) {
    io.inject_message(kind, src, 0, CONTROL_SEQ_BASE | seq, payload);
}

#[test]
fn horizon_emission_paces_by_interval_and_own_seq_space() {
    let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(horizon_repair()));
    let mut io = ScriptedPump::new();
    core.progress(&mut io);
    assert_eq!(core.repair_stats().horizons_sent, 1, "due immediately");
    core.progress(&mut io);
    assert_eq!(
        core.repair_stats().horizons_sent,
        1,
        "not due again within the period"
    );
    io.set_clock(io.clock() + 1_000_000);
    core.progress(&mut io);
    assert_eq!(core.repair_stats().horizons_sent, 2);
    // Session messages never enter the data sequence space: the next
    // data send still takes seq 0, so a lost horizon can never look
    // like a data hole to receivers.
    let seq = core.send_message(&mut io, 1, 5, MsgKind::Data, &Bytes::new());
    assert_eq!(seq, 0, "horizons must not consume data seqs");
}

#[test]
fn horizon_frontier_frees_acked_ring_history() {
    let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(horizon_repair()));
    let mut io = ScriptedPump::new();
    for i in 0..3u64 {
        core.send_message(
            &mut io,
            1,
            5,
            MsgKind::Data,
            &Bytes::from(vec![i as u8; 100]),
        );
    }
    assert_eq!(core.ring_len(), 3, "every send is recorded");
    // Rank 1 advertises seqs 0..=1 delivered (hwm 1, no holes).
    let hz = AckHorizonPayload {
        probe_ts: 0,
        echoes: vec![],
        acks: vec![SourceHorizon {
            src: 0,
            hwm: 1,
            missing: vec![],
        }],
        member: None,
    };
    queue_horizon(&mut io, 1, 0, &hz);
    core.progress(&mut io);
    let s = core.repair_stats();
    assert_eq!(s.horizons_received, 1);
    assert_eq!(s.acked_records_freed, 2, "seqs 0 and 1 acked, 2 still out");
    assert_eq!(core.ring_len(), 1, "only seq 2 is left in the ring");
}

#[test]
fn horizon_echo_yields_rtt_sample_minus_hold_time() {
    let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(horizon_repair()));
    let mut io = ScriptedPump::new();
    io.set_clock(1_000_000);
    // Rank 1 echoes a probe we stamped at t=600µs and claims it sat
    // on it for 100µs: rtt = 1000 - 600 - 100 = 300µs.
    let hz = AckHorizonPayload {
        probe_ts: 7,
        echoes: vec![HorizonEcho {
            peer: 0,
            ts: 600_000,
            hold_ns: 100_000,
        }],
        acks: vec![],
        member: None,
    };
    queue_horizon(&mut io, 1, 0, &hz);
    core.progress(&mut io);
    assert_eq!(core.repair_stats().rtt_samples, 1);
    assert_eq!(core.peer_rtt(1), Some(Duration::from_micros(300)));
    // First sample: timeout = 3 × rtt = 900µs, below the configured
    // 2 ms — the per-peer timer clamps up to the configured floor.
    assert_eq!(
        core.peer_nack_timeout(1),
        Some(Duration::from_millis(2)),
        "estimate below the configured timeout clamps up to it"
    );
}

#[test]
fn cancel_sink_drains_posted_receives_on_progress() {
    let mut core = EndpointCore::new(0, 0, 1, 60_000, None);
    let mut io = ScriptedPump::new();
    let req = core.post_recv(&mut io, Some(0), 5);
    assert_eq!(core.outstanding_recvs(), 1);
    // A dropped request machine pushes its handles here instead of
    // cancelling inline (no `&mut Comm` inside `Drop`).
    core.cancel_sink().push(req);
    core.progress(&mut io);
    assert_eq!(core.outstanding_recvs(), 0, "deferred cancel applied");
    // Ids are never reused, so a double-push is a no-op.
    core.cancel_sink().push(req);
    core.progress(&mut io);
    assert_eq!(core.outstanding_recvs(), 0);
}

fn member_repair() -> RepairConfig {
    RepairConfig::sim_default().with_membership(Duration::from_millis(1))
}

#[test]
fn standalone_heartbeat_only_when_quiet() {
    let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(member_repair()));
    let mut io = ScriptedPump::new();
    // First pass baselines the layer; creation time is not silence.
    core.progress(&mut io);
    assert_eq!(core.repair_stats().heartbeats_sent, 0);
    io.set_clock(1_000_000);
    core.progress(&mut io);
    assert_eq!(
        core.repair_stats().heartbeats_sent,
        1,
        "a full quiet interval owes a beacon"
    );
    // A multicast inside the interval proves us alive for free...
    io.set_clock(1_500_000);
    core.mcast_message(&mut io, 5, MsgKind::Data, &Bytes::new());
    io.set_clock(2_000_000);
    core.progress(&mut io);
    assert_eq!(
        core.repair_stats().heartbeats_sent,
        1,
        "recent multicast suppresses the standalone beacon"
    );
    io.set_clock(3_000_000);
    core.progress(&mut io);
    assert_eq!(core.repair_stats().heartbeats_sent, 2, "quiet again");
    // ...but a unicast does not: only its destination heard it, so
    // the rest of the group is still owed the beacon.
    io.set_clock(3_500_000);
    core.send_message(&mut io, 1, 5, MsgKind::Data, &Bytes::new());
    io.set_clock(4_000_000);
    core.progress(&mut io);
    assert_eq!(
        core.repair_stats().heartbeats_sent,
        3,
        "a unicast must not suppress the standalone beacon"
    );
}

#[test]
fn silent_peer_suspected_confirmed_and_directed_recv_fails() {
    // sim defaults: nack_timeout 2 ms, not adaptive → rto = 2 ms.
    // Suspect after 4 × 2 ms of silence, confirm 3 × 2 ms later.
    let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(member_repair()));
    let mut io = ScriptedPump::new();
    core.progress(&mut io); // baseline at t=0
    io.set_clock(9_000_000);
    core.progress(&mut io);
    assert_eq!(core.repair_stats().suspicions, 1);
    assert!(core.failed_peers().is_empty(), "suspected is not failed");
    io.set_clock(16_000_000);
    let before = io.mcasts_out;
    core.progress(&mut io);
    assert_eq!(core.repair_stats().failures_confirmed, 1);
    assert_eq!(core.failed_peers(), vec![1]);
    assert!(io.mcasts_out > before, "confirmation floods an announce");
    // A directed receive from the corpse fails typed instead of
    // NACKing forever.
    let req = core.post_recv(&mut io, Some(1), 5);
    let got = test_req(&mut core, &mut io, req).expect("completes immediately");
    assert_eq!(got, Err(RecvError::PeerFailed { rank: 1, epoch: 0 }));
    assert_eq!(
        core.repair_stats().nacks_sent,
        0,
        "confirmed-dead sources are never solicited"
    );
}

#[test]
fn peer_traffic_clears_suspicion_before_confirmation() {
    let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(member_repair()));
    let mut io = ScriptedPump::new();
    core.progress(&mut io);
    io.set_clock(9_000_000);
    core.progress(&mut io);
    assert_eq!(core.repair_stats().suspicions, 1);
    // Any accepted traffic — not just a heartbeat — clears it.
    io.set_clock(10_000_000);
    io.inject_message(MsgKind::Data, 1, 5, 0, b"alive");
    core.progress(&mut io);
    io.set_clock(16_000_000);
    core.progress(&mut io);
    assert_eq!(
        core.repair_stats().failures_confirmed,
        0,
        "suspicion cleared by traffic at 10 ms; 6 ms of silence since \
         is inside the suspicion bound"
    );
    assert!(core.failed_peers().is_empty());
}

#[test]
fn heartbeats_prevent_false_positives() {
    let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(member_repair()));
    let mut io = ScriptedPump::new();
    core.progress(&mut io);
    // Peer 1 beacons every millisecond for 50 ms; we never suspect.
    for k in 1..=50u64 {
        io.set_clock(k * 1_000_000);
        let hb = HeartbeatPayload {
            epoch: 0,
            incarnation: 0,
        }
        .encode();
        queue_control(&mut io, MsgKind::Heartbeat, 1, k, &hb);
        core.progress(&mut io);
    }
    assert_eq!(core.repair_stats().suspicions, 0);
    assert_eq!(core.repair_stats().failures_confirmed, 0);
}

#[test]
fn adopted_announce_marks_failed_refloods_once_without_own_count() {
    let mut core = EndpointCore::new(0, 0, 4, 60_000, Some(member_repair()));
    let mut io = ScriptedPump::new();
    core.progress(&mut io);
    let ann = FailureAnnouncePayload {
        epoch: 0,
        graceful: false,
        ranks: vec![3],
    }
    .encode();
    let before = io.mcasts_out;
    queue_control(&mut io, MsgKind::FailureAnnounce, 1, 0, &ann);
    core.progress(&mut io);
    assert_eq!(core.failed_peers(), vec![3]);
    assert_eq!(
        core.repair_stats().failures_confirmed,
        0,
        "adopted verdicts are the origin's count, not ours"
    );
    let after_first = io.mcasts_out;
    assert!(after_first > before, "adoption re-floods once (gossip)");
    // A duplicate announce changes nothing and floods nothing.
    queue_control(&mut io, MsgKind::FailureAnnounce, 2, 0, &ann);
    core.progress(&mut io);
    assert_eq!(core.failed_peers(), vec![3]);
    assert_eq!(io.mcasts_out, after_first, "sticky flags: no re-flood");
}

#[test]
fn graceful_departure_shrinks_drain_grace_and_leave_is_idempotent() {
    let mut core = EndpointCore::new(0, 0, 16, 60_000, Some(member_repair()));
    let mut io = ScriptedPump::new();
    core.progress(&mut io);
    // sim defaults: chained grace = (2 ms + 2 ms) × 2 × n.
    assert_eq!(core.drain_grace(), Duration::from_millis(128));
    let bye = FailureAnnouncePayload {
        epoch: 0,
        graceful: true,
        ranks: vec![3],
    }
    .encode();
    queue_control(&mut io, MsgKind::FailureAnnounce, 3, 0, &bye);
    core.progress(&mut io);
    assert_eq!(core.departed_peers(), vec![3]);
    assert!(core.failed_peers().is_empty(), "departed is not failed");
    assert_eq!(
        core.drain_grace(),
        Duration::from_millis(120),
        "survivors stop waiting out the leaver's share of the grace"
    );
    // Our own leave announces, drains, and retires the endpoint.
    let before = io.mcasts_out;
    core.leave(&mut io);
    assert!(core.has_left());
    assert!(io.mcasts_out > before);
    let announced = io.mcasts_out;
    core.leave(&mut io);
    assert_eq!(io.mcasts_out, announced, "leave is idempotent");
}

#[test]
fn rebase_epoch_discards_stragglers_but_keeps_repair_plane_open() {
    let mut core = EndpointCore::new(7, 0, 2, 60_000, Some(member_repair()));
    let mut io = ScriptedPump::new();
    let old_context = core.context();
    core.rebase_epoch(1);
    assert_eq!(core.epoch(), 1);
    assert_ne!(core.context(), old_context);
    assert_eq!(core.repair_stats().epoch, 1);
    // An old-epoch data straggler is foreign now...
    let shared = Bytes::copy_from_slice(b"stale");
    for d in split_message(MsgKind::Data, old_context, 1, 5, 0, &shared, 60_000) {
        let _ = core.inbox.ingest_wire(&d, false);
    }
    assert_eq!(core.inbox.backlog(), 0);
    assert_eq!(core.inbox.foreign_dropped(), 1);
    // ...but an old-epoch NACK still reaches the repair loop (the
    // pre-shrink recovery tail must be allowed to finish).
    let nack = NackPayload::addressed_to(0).encode();
    for d in split_message(MsgKind::Nack, old_context, 1, 5, 1, &nack, 60_000) {
        let _ = core.inbox.ingest_wire(&d, false);
    }
    core.progress(&mut io);
    assert_eq!(
        core.repair_stats().nacks_received,
        1,
        "prev-epoch solicit serviced across the boundary"
    );
    // Same-epoch survivors agree on the context deterministically.
    let mut twin = EndpointCore::new(7, 1, 2, 60_000, Some(member_repair()));
    twin.rebase_epoch(1);
    assert_eq!(twin.context(), core.context());
}

#[test]
fn membership_off_emits_nothing_and_declares_no_one() {
    let mut core = EndpointCore::new(0, 0, 2, 60_000, Some(horizon_repair()));
    let mut io = ScriptedPump::new();
    for k in 0..40u64 {
        io.set_clock(k * 1_000_000);
        core.progress(&mut io);
    }
    let s = core.repair_stats();
    assert_eq!(s.heartbeats_sent, 0);
    assert_eq!(s.suspicions, 0);
    assert_eq!(s.failures_confirmed, 0);
    assert!(core.failed_peers().is_empty());
    assert!(core.departed_peers().is_empty());
    assert_eq!(core.epoch(), 0);
}
