//! The two SRM suppression windows last one solicit timeout each
//! (`docs/PROTOCOL.md` §8). A receiver stays quiet at its deadline only
//! while a peer's overheard solicit for the same traffic is younger than
//! one timeout, the span in which that solicit's repair can still arrive.
//! A source repeats a multicast repair once one timeout has passed since
//! the last, the soonest its requester can ask again.
//!
//! A solicit that comes before its traffic exists stands at the source,
//! and the source's first send of the tag answers it with a send notice
//! right behind the message (§8.4). A receiver still missing the message
//! when the notice arrives lost it, and solicits within `nack_timeout / 4`.
//!
//! An endpoint that sent or took in a solicit lately sends each message
//! that fits one frame twice under one seq (§8.5), so a script that
//! exercises the solicit paths after a solicit has been seen loses both
//! copies.
//!
//! Three bare [`EndpointCore`]s of a 3-rank group over
//! [`ScriptedPump::routed`], stepped from deadline to deadline on the
//! shared clock. Rank 0 is the source, rank 1 the receiver under test and
//! rank 2 a peer that may be stuck on the same traffic. Each test loses
//! exactly the datagrams it names; the rest arrive at once.

use mmpi_transport::testing::ScriptedPump;
use mmpi_transport::{EndpointCore, Nanos, RecvReq, RepairConfig, WaitKind, WaitPoll};
use mmpi_wire::{Bytes, Datagram, MsgKind, NackPayload, RepairStats, ONE_FRAME_PAYLOAD};

const N: usize = 3;
const SOURCE: usize = 0;
const VICTIM: usize = 1;
const PEER: usize = 2;
const TAG: u32 = 7;
/// `nack_timeout` under `sim_default`.
const T: Nanos = 2_000_000;
/// The widest jitter a solicit deadline draws: one `nack_timeout`.
const J: Nanos = T;

/// One datagram handed to the fabric: `(from, to, kind)`. A multicast is
/// one hop per other rank.
type Hop = (usize, usize, MsgKind);

/// What the victim's solicit deadline did when it expired.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Verdict {
    Suppressed,
    Solicited,
}

struct Net {
    cores: Vec<EndpointCore>,
    ios: Vec<ScriptedPump>,
    /// The payload the source sends, which every receive must get.
    payload: Vec<u8>,
    /// Every hop handed to the fabric, lost or not, in send order.
    hops: Vec<Hop>,
    /// Each rank's posted receive of `(SOURCE, TAG)` until it completes.
    posted: Vec<Option<RecvReq>>,
    /// When each rank's receive completed.
    done_at: Vec<Option<Nanos>>,
    /// Every expired deadline of the victim's receive, in order.
    verdicts: Vec<(Nanos, Verdict)>,
}

impl Net {
    fn new() -> Self {
        Net::with(RepairConfig::sim_default())
    }

    fn with(cfg: RepairConfig) -> Self {
        assert_eq!(cfg.nack_timeout.as_nanos() as Nanos, T);
        Net {
            cores: (0..N)
                .map(|rank| EndpointCore::new(0, rank, N, 60_000, Some(cfg)))
                .collect(),
            ios: ScriptedPump::routed(N),
            payload: vec![0xAB; 256],
            hops: Vec::new(),
            posted: vec![None; N],
            done_at: vec![None; N],
            verdicts: Vec::new(),
        }
    }

    fn now(&self) -> Nanos {
        self.ios[0].clock()
    }

    fn stats(&self, rank: usize) -> RepairStats {
        self.cores[rank].repair_stats()
    }

    fn post(&mut self, rank: usize) {
        let req = self.cores[rank].post_recv(&mut self.ios[rank], Some(SOURCE), TAG);
        self.posted[rank] = Some(req);
    }

    fn multicast(&mut self) {
        let payload = Bytes::from(self.payload.clone());
        self.cores[SOURCE].mcast_message(&mut self.ios[SOURCE], TAG, MsgKind::Data, &payload);
    }

    /// Send `to` the empty unicast a scout is.
    fn scout(&mut self, to: usize) {
        self.payload = Vec::new();
        let empty = Bytes::new();
        self.cores[SOURCE].send_message(&mut self.ios[SOURCE], to, TAG, MsgKind::Scout, &empty);
    }

    /// How many hops of `kind` went from the source to `to`.
    fn hops_to(&self, to: usize, kind: MsgKind) -> usize {
        self.hops
            .iter()
            .filter(|h| **h == (SOURCE, to, kind))
            .count()
    }

    /// Run every rank's engine pass and route what it sent, unless `lost`
    /// drops the hop, until nothing moves.
    fn settle(&mut self, lost: &mut impl FnMut(&Hop) -> bool) {
        loop {
            let before = self.stats(VICTIM);
            for rank in 0..N {
                self.cores[rank].progress(&mut self.ios[rank]);
                let Some(req) = self.posted[rank] else {
                    continue;
                };
                if let Some(got) = self.cores[rank].test_claimed(req) {
                    assert_eq!(got.expect("the data is retained").payload, self.payload);
                    self.posted[rank] = None;
                    self.done_at[rank] = Some(self.now());
                }
            }
            let after = self.stats(VICTIM);
            if after.nacks_suppressed > before.nacks_suppressed {
                self.verdicts.push((self.now(), Verdict::Suppressed));
            }
            if after.nacks_sent > before.nacks_sent {
                self.verdicts.push((self.now(), Verdict::Solicited));
            }
            let mut moved = false;
            for from in 0..N {
                let mut out: Vec<(usize, Datagram)> = self.ios[from].take_sent();
                for d in self.ios[from].take_mcast() {
                    out.extend((0..N).filter(|&to| to != from).map(|to| (to, d.clone())));
                }
                for (to, d) in out {
                    moved = true;
                    let hop = (from, to, d.decode().expect("well-formed").kind);
                    self.hops.push(hop);
                    if !lost(&hop) {
                        self.ios[to].inject([d]);
                    }
                }
            }
            if !moved {
                return;
            }
        }
    }

    /// The earliest deadline a posted receive parks until.
    fn next_deadline(&mut self) -> Option<Nanos> {
        (0..N)
            .filter_map(|rank| {
                let req = self.posted[rank]?;
                match self.cores[rank].poll_wait(&mut self.ios[rank], &WaitKind::AnyOf(&[req])) {
                    WaitPoll::Park(at) => at,
                    WaitPoll::Ready => None,
                }
            })
            .min()
    }

    /// Step from deadline to deadline until the clock reaches `until`.
    fn run_until(&mut self, until: Nanos, lost: &mut impl FnMut(&Hop) -> bool) {
        loop {
            self.settle(lost);
            match self.next_deadline() {
                Some(at) if at < until => self.ios[0].set_clock(at),
                _ => {
                    self.ios[0].set_clock(until);
                    self.settle(lost);
                    return;
                }
            }
        }
    }

    /// The victim's solicits, in order.
    fn solicits(&self) -> Vec<Nanos> {
        self.verdicts
            .iter()
            .filter(|(_, v)| *v == Verdict::Solicited)
            .map(|&(at, _)| at)
            .collect()
    }

    /// The peer solicits `(0, tag)` before the source has sent it, and the
    /// victim overhears it: the victim posts half a timeout before the
    /// peer's deadline, so its own deadline lands after the peer's
    /// solicit. Returns when the peer solicited.
    fn early_solicit(&mut self, lost: &mut impl FnMut(&Hop) -> bool) -> Nanos {
        self.post(PEER);
        let heard = self.next_deadline().expect("the peer's first deadline");
        self.run_until(heard - T / 2, lost);
        self.post(VICTIM);
        self.run_until(heard + 1, lost);
        assert_eq!(
            self.stats(PEER).nacks_sent,
            1,
            "the peer solicited at {heard}"
        );
        assert_eq!(
            self.stats(SOURCE).unanswered_nacks,
            1,
            "the solicit named a tag not sent yet"
        );
        heard
    }
}

/// A fate that loses the source's first `n` hops of `kind` to the victim
/// and delivers everything else.
fn lose_to_victim(kind: MsgKind, n: usize) -> impl FnMut(&Hop) -> bool {
    let mut lost = 0;
    move |hop| {
        let lose = *hop == (SOURCE, VICTIM, kind) && lost < n;
        lost += usize::from(lose);
        lose
    }
}

/// Rank 21's case of `docs/PERFORMANCE.md` ("an early solicit"). The
/// peer solicits `(0, tag)` before the source has sent, and the victim
/// overhears it. The source's multicast 0.4 ms later — both copies, the
/// source having taken in the solicit — is lost at the victim. The victim
/// solicits within `nack_timeout / 4` of the loss, not a timeout later, and
/// its repair arrives with that solicit. On its own timer, its first
/// deadline falls at least half a timeout after the loss, inside the
/// window of the overheard solicit.
#[test]
fn a_send_notice_turns_a_later_loss_into_a_prompt_solicit() {
    let mut net = Net::new();
    let mut lost = lose_to_victim(MsgKind::Data, 2);
    let heard = net.early_solicit(&mut lost);
    let loss = heard + 400_000;
    net.run_until(loss, &mut lost);
    net.multicast();
    net.run_until(loss + 4 * (T + J), &mut lost);
    assert!(net.done_at[PEER].is_some(), "the peer got the multicast");

    let asked = net.solicits();
    assert_eq!(asked.len(), 1, "{:?}", net.verdicts);
    assert!(
        asked[0] - loss <= J / 4,
        "the victim solicited {} ns after the loss: {:?}",
        asked[0] - loss,
        net.verdicts
    );
    assert_eq!(net.done_at[VICTIM], Some(asked[0]));
    assert_eq!(net.stats(SOURCE).retransmits_sent, 1);
    assert_eq!(net.stats(SOURCE).copies_sent, 1);
}

/// The same over a unicast, shaped like a scout: the victim itself asks
/// the source for an empty message it has not sent yet, and the message
/// is lost, both copies. The victim re-solicits within `nack_timeout / 4` of
/// the loss, not a timeout later, and the source replays the scout to it.
#[test]
fn a_lost_scout_is_solicited_promptly() {
    let mut net = Net::new();
    let mut lost = lose_to_victim(MsgKind::Scout, 2);
    net.post(VICTIM);
    let first = net.next_deadline().expect("the victim's first deadline");
    net.run_until(first + 1, &mut lost);
    assert_eq!(net.solicits(), [first], "the victim asked early");
    assert_eq!(net.stats(SOURCE).unanswered_nacks, 1);

    let loss = first + 400_000;
    net.run_until(loss, &mut lost);
    net.scout(VICTIM);
    net.run_until(loss + 4 * (T + J), &mut lost);
    let asked = net.solicits();
    assert_eq!(asked.len(), 2, "{:?}", net.verdicts);
    assert!(
        asked[1] - loss <= J / 4,
        "the victim solicited {} ns after the loss: {:?}",
        asked[1] - loss,
        net.verdicts
    );
    assert_eq!(net.done_at[VICTIM], Some(asked[1]));
    assert_eq!(net.stats(SOURCE).retransmits_sent, 1);
    assert_eq!(
        net.hops_to(VICTIM, MsgKind::Scout),
        3,
        "two copies, one replay"
    );
    assert_eq!(
        net.hops_to(PEER, MsgKind::Sent),
        0,
        "a unicast's notice goes to its destination only"
    );
}

/// The copy rule (`docs/PROTOCOL.md` §8.5). The victim asks the source
/// for a scout it has not sent yet, so the source has taken in a solicit,
/// and its scout 0.4 ms later goes out twice under one seq. The first copy
/// is lost; the second delivers the scout at once, with no solicit, no
/// replay and no wait for the notice behind it. Had both arrived, the
/// victim would have dropped the second as a duplicate: the scout is
/// delivered once.
#[test]
fn a_scout_whose_first_copy_is_lost_arrives_by_the_second() {
    for lose in [1, 0] {
        let mut net = Net::new();
        let mut lost = lose_to_victim(MsgKind::Scout, lose);
        net.post(VICTIM);
        let first = net.next_deadline().expect("the victim's first deadline");
        net.run_until(first + 1, &mut lost);
        assert_eq!(net.solicits(), [first], "the victim asked early");

        let sent = first + 400_000;
        net.run_until(sent, &mut lost);
        net.scout(VICTIM);
        net.run_until(sent + 1, &mut lost);
        assert_eq!(net.done_at[VICTIM], Some(sent), "lost {lose}");
        net.post(VICTIM);
        net.run_until(sent + 4 * (T + J), &mut lost);

        assert_eq!(net.hops_to(VICTIM, MsgKind::Scout), 2, "lost {lose}");
        assert_eq!(net.stats(SOURCE).copies_sent, 1);
        assert_eq!(net.stats(SOURCE).retransmits_sent, 0, "lost {lose}");
        assert_eq!(
            net.cores[VICTIM].inbox.duplicates_dropped(),
            1 - lose as u64,
            "lost {lose}"
        );
        assert!(
            net.posted[VICTIM].is_some(),
            "a second receive of the tag matches nothing: lost {lose}"
        );
    }
}

/// The copy window opens at a solicit the endpoint sends as well as at
/// one it takes in, and closes `8 × nack_timeout` after the last. The
/// victim solicits a scout not sent yet, and the scout then arrives: its
/// own one-frame sends are copied until eight timeouts after its solicit.
/// A solicit it overhears later opens the window again.
#[test]
fn the_copy_window_runs_eight_timeouts_from_the_last_solicit_seen() {
    let mut net = Net::new();
    let mut lost = |_: &Hop| false;
    net.post(VICTIM);
    let asked = net.next_deadline().expect("the victim's first deadline");
    net.run_until(asked + 1, &mut lost);
    assert_eq!(net.solicits(), [asked], "the victim solicited");
    net.scout(VICTIM);
    net.settle(&mut lost);
    assert!(net.posted[VICTIM].is_none(), "the scout arrived");

    let sends_at = |net: &mut Net, at: Nanos| {
        net.ios[0].set_clock(at);
        let empty = Bytes::new();
        net.cores[VICTIM].send_message(&mut net.ios[VICTIM], PEER, 9, MsgKind::Scout, &empty);
        net.ios[VICTIM].take_sent().len()
    };
    assert_eq!(sends_at(&mut net, asked + 8 * T - 1), 2, "its own solicit");
    assert_eq!(sends_at(&mut net, asked + 8 * T), 1, "the window closed");
    let solicit = NackPayload::addressed_to(SOURCE as u32).encode();
    net.ios[VICTIM].inject_message(MsgKind::Nack, PEER as u32, 99, 0, &solicit);
    net.cores[VICTIM].progress(&mut net.ios[VICTIM]);
    assert_eq!(sends_at(&mut net, asked + 8 * T), 2, "an overheard solicit");
    assert_eq!(net.stats(VICTIM).copies_sent, 2);
}

/// What the copy rule leaves alone. With a solicit taken in, a message
/// whose one datagram would not fit one frame (here the 4 KiB of a
/// broadcast block, and one byte past [`ONE_FRAME_PAYLOAD`]) goes out
/// once, and one that fits exactly goes out twice. A source that has
/// taken in no solicit copies nothing, and neither does a gossip source
/// that has: its group sends are pushed, and its solicits never count.
#[test]
fn only_one_frame_multicast_sends_after_a_solicit_are_copied() {
    let solicit = NackPayload::addressed_to(SOURCE as u32).encode();
    let data_hops = |net: &mut Net, len: usize| {
        net.payload = vec![0x5A; len];
        net.multicast();
        let before = net.hops.len();
        net.settle(&mut |_| false);
        net.hops[before..]
            .iter()
            .filter(|h| **h == (SOURCE, VICTIM, MsgKind::Data))
            .count()
    };
    let mut net = Net::new();
    assert_eq!(data_hops(&mut net, 64), 1, "no solicit seen: one copy");
    net.ios[SOURCE].inject_message(MsgKind::Nack, PEER as u32, 99, 0, &solicit);
    for (len, copies) in [
        (4096, 1),
        (ONE_FRAME_PAYLOAD + 1, 1),
        (ONE_FRAME_PAYLOAD, 2),
        (0, 2),
    ] {
        assert_eq!(data_hops(&mut net, len), copies, "{len} bytes");
    }
    assert_eq!(net.stats(SOURCE).copies_sent, 2);

    let mut gossip = Net::with(RepairConfig::sim_default().with_gossip());
    gossip.ios[SOURCE].inject_message(MsgKind::Nack, PEER as u32, 99, 0, &solicit);
    assert_eq!(data_hops(&mut gossip, 64), 1, "pushed once");
    gossip.scout(VICTIM);
    gossip.settle(&mut |_| false);
    assert_eq!(gossip.hops_to(VICTIM, MsgKind::Scout), 1);
    assert_eq!(gossip.stats(SOURCE).copies_sent, 0);
}

/// A receiver that holds the data ignores the notice: nobody solicits
/// again and the source re-sends nothing. On each path the notice trails
/// the data, and one early solicit draws one notice however often the tag
/// is sent. The source took in that solicit, so each send goes out as two
/// copies (§8.5), both ahead of the notice.
#[test]
fn a_holder_ignores_the_notice_and_a_tag_is_noticed_once() {
    let mut net = Net::new();
    let mut lost = |_: &Hop| false;
    let heard = net.early_solicit(&mut lost);
    let sent = heard + 400_000;
    net.run_until(sent, &mut lost);
    net.multicast();
    net.run_until(sent + 1, &mut lost);
    assert_eq!(net.done_at[VICTIM], Some(sent));
    assert_eq!(net.done_at[PEER], Some(sent));
    net.post(VICTIM);
    net.multicast();
    net.run_until(sent + 4 * (T + J), &mut lost);

    assert!(net.solicits().is_empty(), "{:?}", net.verdicts);
    assert_eq!(net.stats(PEER).nacks_sent, 1, "only the early solicit");
    assert_eq!(net.stats(SOURCE).retransmits_sent, 0);
    for to in [VICTIM, PEER] {
        let path: Vec<MsgKind> = net
            .hops
            .iter()
            .filter(|h| h.0 == SOURCE && h.1 == to)
            .map(|h| h.2)
            .collect();
        assert_eq!(
            path,
            [
                MsgKind::Data,
                MsgKind::Data,
                MsgKind::Sent,
                MsgKind::Data,
                MsgKind::Data
            ],
            "rank {to}"
        );
    }
    assert_eq!(net.stats(SOURCE).copies_sent, 2);
}

/// A standing request for a tag that is never sent does not stay. Once
/// the source holds 128 of them, it prunes each at least
/// `2 × nack_timeout` old, the longest a requester still waiting goes
/// without asking again (a timeout plus the widest jitter), and keeps each
/// younger one: a late send of the pruned tag owes no notice, and a send
/// of a kept tag or a fresh one still does.
#[test]
fn a_standing_request_for_a_tag_never_sent_is_pruned() {
    const KEPT: u32 = TAG + 1;
    let mut net = Net::new();
    let solicit = NackPayload::addressed_to(SOURCE as u32).encode();
    let mut seq = 0;
    let mut ask = |net: &mut Net, from: usize, tag: u32| {
        net.ios[SOURCE].inject_message(MsgKind::Nack, from as u32, tag, seq, &solicit);
        seq += 1;
        net.cores[SOURCE].progress(&mut net.ios[SOURCE]);
    };
    ask(&mut net, PEER, TAG);
    net.ios[0].set_clock(1);
    ask(&mut net, PEER, KEPT);
    net.ios[0].set_clock(T + J);
    for tag in 100..228 {
        ask(&mut net, VICTIM, tag);
    }
    assert_eq!(net.stats(SOURCE).unanswered_nacks, 130);
    let send = |net: &mut Net, tag: u32| {
        let payload = Bytes::from(net.payload.clone());
        net.cores[SOURCE].mcast_message(&mut net.ios[SOURCE], tag, MsgKind::Data, &payload);
        net.settle(&mut |_| false);
        net.hops_to(PEER, MsgKind::Sent)
    };
    assert_eq!(
        send(&mut net, TAG),
        0,
        "the request 2 × nack_timeout old was pruned"
    );
    assert_eq!(send(&mut net, KEPT), 1, "the request 1 ns younger stands");
    send(&mut net, 100);
    assert_eq!(net.hops_to(VICTIM, MsgKind::Sent), 2, "a fresh one stands");
}

/// A lost notice leaves the receiver on its timer, and a solicit for
/// traffic not sent yet must not strand it there. The peer solicits
/// `(0, tag)` before the source has sent; the victim overhears it. The
/// source's multicast then reaches the peer and is lost at the victim,
/// both copies, and so is its send notice. The victim stays quiet only while the
/// overheard solicit is younger than one timeout, solicits at its first
/// deadline after that, and holds the data within
/// `4 × nack_timeout` of the loss: twice a timeout plus the widest jitter.
#[test]
fn an_early_solicit_does_not_strand_a_later_loss() {
    let mut net = Net::new();
    let mut lose_data = lose_to_victim(MsgKind::Data, 2);
    let mut lose_notice = lose_to_victim(MsgKind::Sent, 1);
    let mut lost = |hop: &Hop| lose_data(hop) | lose_notice(hop);
    let heard = net.early_solicit(&mut lost);

    // The source multicasts 0.4 ms later; both copies to the victim are
    // lost, and so is the notice behind them.
    let loss = heard + 400_000;
    net.run_until(loss, &mut lost);
    net.multicast();
    net.run_until(loss + 4 * (T + J), &mut lost);
    assert!(net.done_at[PEER].is_some(), "the peer got the multicast");
    assert_eq!(net.hops_to(VICTIM, MsgKind::Sent), 1);

    let (solicited_at, _) = *net
        .verdicts
        .iter()
        .find(|(_, v)| *v == Verdict::Solicited)
        .expect("the victim solicits");
    for &(at, verdict) in &net.verdicts {
        let young = at - heard < T;
        assert_eq!(
            verdict == Verdict::Suppressed,
            young && at < solicited_at,
            "deadline at {at} ns, solicit overheard at {heard} ns: {:?}",
            net.verdicts
        );
    }
    assert!(
        solicited_at - heard < 2 * T,
        "the scenario puts the victim's solicit where a two-timeout window \
         would still have silenced it: {:?}",
        net.verdicts
    );
    let done = net.done_at[VICTIM].expect("the repair heals the victim");
    assert_eq!(done, solicited_at, "the repair arrives with the solicit");
    assert!(
        done - loss <= 2 * (T + J),
        "delivered {} ns after the loss",
        done - loss
    );
    assert_eq!(net.stats(SOURCE).retransmits_sent, 1);
}

/// A lost multicast repair is answered again at the requester's next
/// solicit: the source holds back a repeat for one timeout, and the
/// requester re-solicits no sooner than that.
#[test]
fn a_lost_repair_is_answered_at_the_next_solicit() {
    let mut net = Net::new();
    // The original multicast and the first repair are lost at the victim.
    let mut lost = lose_to_victim(MsgKind::Data, 2);
    net.post(VICTIM);
    net.multicast();
    net.run_until(4 * (T + J), &mut lost);

    let solicits = net.solicits();
    assert_eq!(solicits.len(), 2, "{:?}", net.verdicts);
    assert!(
        solicits[1] - solicits[0] < 2 * T,
        "the second solicit comes where a two-timeout responder window \
         would still refuse it: {solicits:?}"
    );
    let s = net.stats(SOURCE);
    assert_eq!(s.retransmits_sent, 2, "each solicit drew a repair ({s:?})");
    assert_eq!(s.repairs_suppressed, 0);
    assert_eq!(net.done_at[VICTIM], Some(solicits[1]));
}
