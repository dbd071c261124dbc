//! Tests of the gossip plane (`gossip.rs`), and the oracle they hold it
//! to: the feed and GC as they were before they became incremental.

use mmpi_wire::{
    AckHorizonPayload, AckHorizonView, GossipDigest, RepairStats, RetransmitBuffer, SourceDigest,
};
use proptest::prelude::*;

use super::*;
use crate::config::{MembershipConfig, RepairConfig};
use crate::inbox::Inbox;
use crate::planes::CONTROL_SEQ_BASE;
use crate::testing::ScriptedPump;

/// The feed and the GC as they were before they became incremental, kept
/// as the oracle the tests below hold [`GossipState::note_frontiers`] and
/// [`GossipState::gc`] to: every frontier noted and stored, every relay
/// key and every source scanned, on every call. They read and write
/// nothing of [`AckBook`] but the stored frontiers.
impl GossipState {
    fn note_frontiers_reference(&mut self, peer: usize, acks: &[SourceHorizon]) {
        let n = self.acked.n;
        for f in acks.iter().filter(|f| (f.src as usize) < n) {
            if let Some(end) = acked_prefix(f.hwm, f.missing.iter().copied()) {
                self.peer_seen[peer].note_range(f.src, SeqRange { start: 0, end });
            }
            let row = &mut self.acked.rows[peer].frontier;
            row.resize(n, None);
            row[f.src as usize] = Some(f.clone());
        }
    }

    fn gc_reference(&mut self, enc: &Encoder, member: Option<&MemberState>) {
        let (me, n) = (enc.rank, enc.n);
        let dead: Vec<bool> = (0..n).map(|p| membership::is_dead(member, p)).collect();
        let quorum = |g: &GossipState, src: u32, seq: u64| {
            (0..n)
                .filter(|&p| p != me && p != src as usize && !dead[p])
                .all(|p| {
                    g.acked
                        .frontier(p, src as usize)
                        .is_some_and(|f| f.acks(seq))
                })
        };
        let drop_keys: Vec<(u32, u64)> = self
            .relay
            .keys()
            .filter(|&&(src, seq)| quorum(self, src, seq))
            .copied()
            .collect();
        for k in &drop_keys {
            self.relay.remove(k);
        }
        self.compact_relay_order();
        let srcs: Vec<u32> = (0..n as u32)
            .filter(|&src| (0..n).any(|p| self.acked.frontier(p, src as usize).is_some()))
            .collect();
        for src in srcs {
            let floor = (0..n)
                .filter(|&p| p != me && p != src as usize && !dead[p])
                .map(|p| {
                    self.acked.frontier(p, src as usize).map_or(0, |f| {
                        match f.missing.iter().map(|r| r.start).min() {
                            Some(first) => first.saturating_sub(1),
                            None => f.hwm,
                        }
                    })
                })
                .min()
                .unwrap_or(0);
            if floor == 0 {
                continue;
            }
            for p in 0..n {
                self.peer_seen[p].release_below(src, floor);
                self.advertised[p].release_below(src, floor);
                self.served[p].release_below(src, floor);
            }
        }
    }
}

/// One repair timeout under the simulator's defaults, in [`Nanos`].
fn timeout() -> Nanos {
    crate::pump::dur_nanos(RepairConfig::sim_default().nack_timeout)
}

/// One gossip plane and everything its entry points borrow.
struct Rig {
    g: GossipState,
    enc: Encoder,
    inbox: Inbox,
    rtx: RetransmitBuffer,
    stats: RepairStats,
    member: MemberState,
    io: ScriptedPump,
    /// Drive the full-scan oracle instead of the incremental pair.
    reference: bool,
}

/// One step of a random history (see [`Rig::apply`]).
type Op = (u8, u32, u32, u64, u64);

fn horizon_of(src: u32, hwm: u64, shape: u64) -> SourceHorizon {
    let missing = match shape % 4 {
        0 | 1 => vec![],
        2 => vec![SeqRange {
            start: shape % (hwm + 1),
            end: hwm,
        }],
        _ => vec![SeqRange { start: 0, end: 0 }],
    };
    SourceHorizon { src, hwm, missing }
}

impl Rig {
    fn new(n: usize, me: usize, reference: bool) -> Self {
        let hb = MembershipConfig {
            heartbeat_interval: std::time::Duration::from_millis(2),
        };
        Rig {
            g: GossipState::new(n, timeout()),
            enc: Encoder::new(0, me, n, 60_000, true),
            inbox: Inbox::new(0, me as u32),
            rtx: RetransmitBuffer::new(8),
            stats: RepairStats::default(),
            member: MemberState::new(hb, n, timeout()),
            io: ScriptedPump::new(),
            reference,
        }
    }

    /// Feed one session message's frontiers: the oracle takes them
    /// as given, the plane as it meets them — a view of the payload.
    fn frontiers(&mut self, peer: usize, acks: &[SourceHorizon]) {
        if self.reference {
            self.g.note_frontiers_reference(peer, acks);
            return;
        }
        let payload = AckHorizonPayload {
            probe_ts: 0,
            echoes: vec![],
            acks: acks.to_vec(),
            member: None,
        }
        .encode();
        let view = AckHorizonView::parse(&payload).expect("own encoding");
        self.g.note_frontiers(peer, view.acks());
    }

    fn gc(&mut self) {
        if self.reference {
            self.g.gc_reference(&self.enc, Some(&self.member));
        } else {
            self.g.gc(&self.enc, Some(&self.member));
        }
    }

    /// Interpret one op. Small value ranges on purpose: repeated and
    /// regressing frontiers, re-noted ids and emptied quorums must be
    /// common, not rare.
    fn apply(&mut self, (kind, a, b, s, t): Op) {
        let (n, me) = (self.enc.n, self.enc.rank);
        let peer = 1 + a as usize % (n - 1); // never `me` (rank 0)
        let mut cx = Ctx {
            enc: &mut self.enc,
            inbox: &mut self.inbox,
            rtx: &mut self.rtx,
            stats: &mut self.stats,
        };
        match kind {
            0 | 1 => {
                let src = 1 + b % (n as u32 - 1);
                if !self.g.relay.contains_key(&(src, s)) {
                    self.g.relay_insert(Message {
                        kind: MsgKind::Data,
                        context: 0,
                        src_rank: src,
                        tag: 0,
                        seq: s,
                        payload: Bytes::new(),
                    });
                }
            }
            2 => {
                // `b` may name a source outside the group.
                let digest = GossipDigest {
                    entries: vec![SourceDigest {
                        src: b,
                        ranges: vec![SeqRange {
                            start: s,
                            end: s + t % 3,
                        }],
                    }],
                };
                let payload = digest.encode();
                let view = GossipDigestView::parse(&payload).expect("own encoding");
                self.g
                    .ingest_advr(&mut cx, &mut self.io, Some(&self.member), peer, view);
            }
            3 if t % 2 == 0 => {
                let ids = [(b % n as u32, s)];
                self.g
                    .advertise_to_fingers(&mut cx, &mut self.io, &ids, Some(&self.member));
            }
            3 => {
                // A pull of one (maybe relayed, maybe repeated) id; now
                // and then a `Repull`.
                let payload = GossipDigest::single(1 + b % (n as u32 - 1), s).encode();
                let view = GossipDigestView::parse(&payload).expect("own encoding");
                self.g
                    .answer_want(&mut cx, &mut self.io, peer, view, t % 4 == 3);
            }
            4..=8 => {
                let acks: Vec<SourceHorizon> = (0..1 + t % 3)
                    .map(|k| horizon_of((b + k as u32) % (n as u32 + 2), (s + k) % 12, t + k))
                    .collect();
                self.frontiers(peer, &acks);
            }
            9 if t < 4 && peer != me => {
                self.member.force_fail(peer);
            }
            _ => self.gc(),
        }
    }

    /// Everything the GC may touch, and everything a divergence in it
    /// would eventually move on the wire.
    fn observable(&self) -> impl PartialEq + std::fmt::Debug + '_ {
        (
            self.g.relay.keys().collect::<Vec<_>>(),
            &self.g.relay_order,
            &self.g.peer_seen,
            &self.g.advertised,
            &self.g.served,
            self.g.wanted.keys().collect::<Vec<_>>(),
            (self.stats.advrs_sent, self.stats.wants_sent),
            (self.stats.pulls_answered, self.stats.echoes_sent),
            self.stats.duplicate_payloads_avoided,
            self.io.unicasts_out,
        )
    }
}

/// The digest interner [`DigestScratch::encode`] replaced — a map of
/// per-source range lists, compacted, chunked and handed to the owned
/// encoder — kept as its oracle.
fn digests_of(ids: &[(u32, u64)]) -> Vec<GossipDigest> {
    let mut by_src: BTreeMap<u32, Vec<SeqRange>> = BTreeMap::new();
    for &(src, seq) in ids {
        by_src.entry(src).or_default().push(SeqRange {
            start: seq,
            end: seq,
        });
    }
    let mut out = Vec::new();
    let mut cur: Vec<SourceDigest> = Vec::new();
    for (src, ranges) in by_src {
        for chunk in mmpi_wire::compact_ranges(ranges).chunks(MAX_DIGEST_RANGES) {
            if cur.len() == MAX_DIGEST_SOURCES {
                out.push(GossipDigest {
                    entries: std::mem::take(&mut cur),
                });
            }
            cur.push(SourceDigest {
                src,
                ranges: chunk.to_vec(),
            });
        }
    }
    if !cur.is_empty() {
        out.push(GossipDigest { entries: cur });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The scratch encoder writes the bytes the owned encoder wrote:
    /// over random id lists — duplicates, runs, `u64::MAX`, more
    /// ranges than one entry and more entries than one digest holds —
    /// and with whatever the scratch last encoded still in it.
    #[test]
    fn scratch_digests_are_byte_identical_to_the_owned_encoder(
        lists in proptest::collection::vec(
            proptest::collection::vec(
                (0u32..24, prop_oneof![0u64..40, (0u64..3).prop_map(|k| u64::MAX - k)], 1u64..4),
                0..120,
            ),
            1..4,
        ),
    ) {
        let mut scratch = DigestScratch::default();
        for list in lists {
            // `stride` spreads a source's seqs out, so that some lists
            // are mostly runs and some mostly isolated ids.
            let ids: Vec<(u32, u64)> = list
                .iter()
                .map(|&(src, seq, stride)| (src, seq.saturating_mul(stride)))
                .collect();
            let want: Vec<Bytes> = digests_of(&ids).iter().map(GossipDigest::encode).collect();
            scratch.ids.clone_from(&ids);
            scratch.encode();
            prop_assert_eq!(&scratch.payloads, &want);
        }
    }

    /// The equivalence oracle: over random histories of relay inserts,
    /// `Advr` ingests, advertisements, session messages (repeated,
    /// advancing and stale), failures and GCs, the incremental feed
    /// and GC leave exactly what the full scan leaves, after every GC.
    #[test]
    fn incremental_gc_matches_the_full_scan(
        ops in proptest::collection::vec(
            (0u8..12, 0u32..8, 0u32..8, 0u64..12, 0u64..12), 1..120),
    ) {
        let mut real = Rig::new(5, 0, false);
        let mut oracle = Rig::new(5, 0, true);
        for op in ops {
            real.apply(op);
            oracle.apply(op);
            if op.0 >= 10 {
                prop_assert_eq!(real.observable(), oracle.observable());
            }
        }
        real.gc();
        oracle.gc();
        prop_assert_eq!(real.observable(), oracle.observable());
    }
}

/// The corner the `skipped` log exists for: a repeated frontier's
/// prefix note is skipped, then a stale frontier later in the same
/// batch drags the floor back below what was already released — the
/// full scan would have re-noted the repeated prefix first.
#[test]
fn stale_frontier_replays_the_skipped_prefix_notes() {
    let full = |src, hwm| SourceHorizon {
        src,
        hwm,
        missing: vec![],
    };
    let mut rigs = [Rig::new(4, 0, false), Rig::new(4, 0, true)];
    for rig in &mut rigs {
        rig.frontiers(2, &[full(1, 10)]);
        rig.frontiers(3, &[full(1, 10)]);
        rig.gc(); // floor 10: everything of source 1 released
        rig.frontiers(2, &[full(1, 10)]); // repeated
        rig.frontiers(3, &[full(1, 4)]); // stale
        rig.gc();
        assert!(rig.g.peer_seen[2].contains(1, 5), "5..=10 is back");
        assert!(!rig.g.peer_seen[2].contains(1, 4));
    }
    assert_eq!(rigs[0].observable(), rigs[1].observable());
}

/// A session message that changes nothing costs comparisons only: no
/// quorum is evaluated and the state-owned scratch does not grow.
#[test]
fn unchanged_session_message_evaluates_no_quorum() {
    let n = 32;
    let mut rig = Rig::new(n, 0, false);
    let acks: Vec<SourceHorizon> = (1..n as u32).map(|src| horizon_of(src, 7, 0)).collect();
    for _ in 0..2 {
        rig.frontiers(1, &acks);
        rig.gc();
    }
    let (evals, scratch) = (rig.g.acked.quorum_evals, rig.g.acked.skipped.capacity());
    assert_eq!(
        evals,
        n as u64 - 1,
        "the first message dirtied every source"
    );
    for _ in 0..100 {
        rig.frontiers(1, &acks);
        rig.gc();
    }
    assert_eq!(rig.g.acked.quorum_evals, evals);
    assert_eq!(rig.g.acked.skipped.capacity(), scratch);
}

/// How a payload reaches the plane in [`land`].
#[derive(Clone, Copy, PartialEq)]
enum Landing {
    /// Behind its origin's `Advr`, while the pull it armed still waits.
    Pushed,
    /// After an asked pull: the `Advr` of the rank it names came a repair
    /// timeout earlier, and the pull's `Want` went out to that rank.
    Pulled(usize),
    /// With no `Advr` at all: a point-to-point send.
    Unadvertised,
}

/// `(src, seq)` lands in the rig's inbox, `how` says behind what, and one
/// pass runs.
fn land(rig: &mut Rig, src: u32, seq: u64, how: Landing) {
    let mut cx = Ctx {
        enc: &mut rig.enc,
        inbox: &mut rig.inbox,
        rtx: &mut rig.rtx,
        stats: &mut rig.stats,
    };
    let member = Some(&rig.member);
    let advertiser = match how {
        Landing::Pushed => Some(src as usize),
        Landing::Pulled(from) => Some(from),
        Landing::Unadvertised => None,
    };
    if let Some(from) = advertiser {
        let payload = GossipDigest::single(src, seq).encode();
        let view = GossipDigestView::parse(&payload).expect("own encoding");
        rig.g.ingest_advr(&mut cx, &mut rig.io, member, from, view);
    }
    if matches!(how, Landing::Pulled(_)) {
        rig.io.set_clock(rig.io.clock() + timeout());
        rig.g.service(&mut cx, &mut rig.io, member);
        assert!(rig.g.wanted[&(src, seq)].asked, "the pull asked");
    }
    for d in split_message(MsgKind::Data, 0, src, 0, seq, &Bytes::new(), 60_000) {
        cx.inbox.ingest_wire(&d, false).expect("well-formed");
    }
    rig.g.service(&mut cx, &mut rig.io, member);
}

/// Origins and relays alike advertise to the finger peers, the
/// power-of-two offsets from `me` — a relay less the origin; a dead
/// finger is skipped, not replaced. A relay passes on only what an
/// `Advr` heralded, pushed or pulled: a payload nobody advertised to it
/// is told to no one. Who was told is read off the `advertised` table.
#[test]
fn relays_and_origins_advertise_to_the_fingers() {
    fn told(rig: &Rig, (src, seq): (u32, u64)) -> Vec<usize> {
        (0..rig.enc.n)
            .filter(|&p| rig.g.advertised[p].contains(src, seq))
            .collect()
    }
    for n in [2usize, 3, 16, 32, 64] {
        let (me, src) = (n - 1, 0u32);
        let mut rig = Rig::new(n, me, false);
        rig.inbox.set_log_data(true);
        let mut fingers: Vec<usize> = (0..n.ilog2() + 1)
            .map(|k| 1 << k)
            .filter(|&d| d < n)
            .map(|d| (me + d) % n)
            .collect();
        assert_eq!(fingers.len() as u32, (n - 1).ilog2() + 1, "n={n}");
        fingers.sort_unstable();

        let own = (me as u32, 5);
        rig.apply((3, 0, own.0, own.1, 0)); // the origin's advertisement
        assert_eq!(told(&rig, own), fingers, "n={n}");

        fingers.retain(|&p| p != src as usize);
        land(&mut rig, src, 1, Landing::Pushed);
        assert_eq!(told(&rig, (src, 1)), fingers, "n={n}");
        land(&mut rig, src, 2, Landing::Unadvertised);
        assert!(told(&rig, (src, 2)).is_empty(), "n={n}: not advertised");
        land(&mut rig, src, 3, Landing::Pulled(src as usize));
        assert_eq!(told(&rig, (src, 3)), fingers, "n={n}");

        if let Some(&dead) = fingers.first() {
            rig.member.force_fail(dead);
            land(&mut rig, src, 4, Landing::Pushed);
            fingers.remove(0);
            assert_eq!(told(&rig, (src, 4)), fingers, "n={n}");
        }
        assert_eq!(rig.stats.pushes_sent, 0, "n={n}: rank n-1 is a leaf");
    }
}

/// The tree is the binomial tree of the origin's finger graph: every rank
/// but the origin is the child of exactly one rank, each child is a
/// finger of its parent, and a parent lists its children by offset,
/// largest subtree first — at every size and around every origin.
#[test]
fn the_push_tree_spans_the_group_through_fingers() {
    for n in 1usize..=40 {
        for src in 0..n {
            let mut parents = vec![0usize; n];
            for me in 0..n {
                let offsets: Vec<usize> = tree_children(me, src, n)
                    .map(|c| (c + n - me) % n)
                    .collect();
                assert!(offsets.windows(2).all(|w| w[0] < w[1]), "{offsets:?}");
                assert!(offsets.iter().all(|d| d.is_power_of_two()));
                for c in tree_children(me, src, n) {
                    parents[c] += 1;
                }
            }
            let want: Vec<usize> = (0..n).map(|p| usize::from(p != src)).collect();
            assert_eq!(parents, want, "n={n}, src={src}");
        }
    }
    let children: Vec<usize> = tree_children(2, 0, 32).collect();
    assert_eq!(children, [6, 10, 18]);
}

/// A rank that got a payload by push pushes it on to its tree children —
/// each behind its `Advr`, smallest offset first — and only then tells its
/// other fingers. One that got it after its pull asked advertises it to
/// every finger and pushes nothing, even when the holder asked was its
/// tree parent (the origin here) and what landed was that parent's push,
/// held up: by then its subtree has waited a repair timeout on the lazy
/// `Advr`s, and pushing on puts about three times the duplicate chunks
/// on a lossy N=32 fabric. Rank 2 of 32 around origin 0: children 6, 10
/// and 18, other fingers 3 and 4.
#[test]
fn a_pushed_payload_goes_down_the_tree_and_a_pulled_one_is_only_advertised() {
    let sent = |rig: &mut Rig| -> Vec<(usize, MsgKind)> {
        rig.io
            .take_sent()
            .iter()
            .map(|(to, d)| (*to, d.decode().expect("well-formed").kind))
            .collect()
    };
    let mut rig = Rig::new(32, 2, false);
    rig.io = ScriptedPump::routed(1).remove(0);
    rig.inbox.set_log_data(true);

    land(&mut rig, 0, 1, Landing::Pushed);
    use MsgKind::{Advr, Data, Want};
    assert_eq!(
        sent(&mut rig),
        [
            (6, Advr),
            (6, Data),
            (10, Advr),
            (10, Data),
            (18, Advr),
            (18, Data),
            (3, Advr),
            (4, Advr),
        ]
    );
    assert_eq!(rig.stats.pushes_sent, 3);
    assert_eq!(
        rig.stats.wants_sent, 0,
        "the push came before the pull asked"
    );

    land(&mut rig, 0, 2, Landing::Pulled(1));
    assert_eq!(
        sent(&mut rig),
        [
            (1, Want),
            (3, Advr),
            (4, Advr),
            (6, Advr),
            (10, Advr),
            (18, Advr),
        ],
        "a pulled payload is advertised, never pushed"
    );
    assert_eq!(rig.stats.pushes_sent, 3);

    land(&mut rig, 0, 3, Landing::Pulled(0));
    assert_eq!(
        sent(&mut rig),
        [
            (0, Want),
            (3, Advr),
            (4, Advr),
            (6, Advr),
            (10, Advr),
            (18, Advr),
        ],
        "landed after asking the tree parent: advertised, not pushed"
    );
    assert_eq!(rig.stats.pushes_sent, 3);
}

/// A payload that lands with no pull waiting for it is claimed by the
/// first `Advr` naming it. In the same pass it is the push that `Advr`
/// heralds, overtaken in the inbox queues, and goes on down the tree. In
/// a later pass, within a repair timeout, it is a push whose own `Advr`
/// was lost: it is stored and advertised to the fingers, not pushed on.
/// Later still it is gone, and the `Advr` counts a duplicate avoided.
/// Rank 2 of 32 around origin 0: children 6, 10 and 18, other fingers 3
/// and 4; rank 1, a holder, advertises. Every message comes through the
/// inbox, as off the wire.
#[test]
fn a_payload_with_no_pull_waiting_is_claimed_by_an_advr_naming_it() {
    use MsgKind::{Advr, Data};
    let mut rig = Rig::new(32, 2, false);
    rig.io = ScriptedPump::routed(1).remove(0);
    rig.inbox.set_log_data(true);
    let t = timeout();
    let payload = |seq: u64| split_message(Data, 0, 0, 0, seq, &Bytes::new(), 60_000);
    let advr = |seq: u64| {
        let digest = GossipDigest::single(0, seq).encode();
        split_message(Advr, 0, 1, 0, CONTROL_SEQ_BASE | seq, &digest, 60_000)
    };
    // Take `dgs` in and run one pass; what it sent, to whom.
    let pass = |rig: &mut Rig, dgs: Vec<Datagram>| -> Vec<(usize, MsgKind)> {
        for d in dgs {
            rig.inbox.ingest_wire(&d, false).expect("well-formed");
        }
        let mut cx = Ctx {
            enc: &mut rig.enc,
            inbox: &mut rig.inbox,
            rtx: &mut rig.rtx,
            stats: &mut rig.stats,
        };
        rig.g.service(&mut cx, &mut rig.io, Some(&rig.member));
        rig.io
            .take_sent()
            .iter()
            .map(|(to, d)| (*to, d.decode().expect("well-formed").kind))
            .collect()
    };

    let both = payload(1).into_iter().chain(advr(1)).collect();
    let pushed = [
        (6, Advr),
        (6, Data),
        (10, Advr),
        (10, Data),
        (18, Advr),
        (18, Data),
        (3, Advr),
        (4, Advr),
    ];
    assert_eq!(pass(&mut rig, both), pushed, "the same pass: a push");

    assert!(
        pass(&mut rig, payload(2)).is_empty(),
        "nothing names it yet"
    );
    rig.io.set_clock(rig.io.clock() + t - 1);
    let lazy = [(3, Advr), (4, Advr), (6, Advr), (10, Advr), (18, Advr)];
    assert_eq!(
        pass(&mut rig, advr(2)),
        lazy,
        "a later pass: relayed lazily"
    );
    assert!(rig.g.relay.contains_key(&(0, 2)));

    assert!(pass(&mut rig, payload(3)).is_empty());
    rig.io.set_clock(rig.io.clock() + t);
    let sent = pass(&mut rig, advr(3));
    assert!(sent.is_empty(), "held no longer: {sent:?}");
    assert!(!rig.g.relay.contains_key(&(0, 3)));
    assert!(rig.g.held.is_empty());
    assert_eq!(rig.stats.pushes_sent, 3);
    assert_eq!(rig.stats.duplicate_payloads_avoided, 1);
}

/// GC empties the relay store while it is under its cap; the keys it
/// took must not pile up in the eviction queue.
#[test]
fn relay_order_stays_within_twice_the_store_under_gc() {
    for reference in [false, true] {
        let mut rig = Rig::new(4, 0, reference);
        for seq in 0..10_000 {
            rig.apply((0, 0, 0, seq, 0)); // relay (1, seq)
            let acked = [horizon_of(1, seq, 0)];
            rig.frontiers(2, &acked);
            rig.frontiers(3, &acked);
            rig.gc();
            let (queued, live) = (rig.g.relay_order.len(), rig.g.relay.len());
            assert!(live <= 1 && queued <= 2 * live, "{queued}/{live}");
        }
    }
}

/// Frontiers naming sources outside the group — stray or hostile
/// traffic — must not grow anything.
#[test]
fn frontiers_for_sources_outside_the_group_are_ignored() {
    let n = 4;
    let mut rig = Rig::new(n, 0, false);
    for k in 0..1000u32 {
        let acks: Vec<SourceHorizon> = (0..32)
            .map(|j| horizon_of(n as u32 + k * 32 + j, 9, 0))
            .collect();
        rig.frontiers(1, &acks);
        rig.gc();
    }
    let book = &rig.g.acked;
    assert!(book
        .rows
        .iter()
        .all(|r| r.frontier.is_empty() && r.prefix.is_empty()));
    assert!(book.skipped.is_empty() && rig.g.peer_seen.iter().all(SeenTable::is_empty));
}
