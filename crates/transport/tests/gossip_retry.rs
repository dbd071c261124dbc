//! The gossip pull's retry rule, one path at a time (`docs/PROTOCOL.md`
//! §11.2): a pull armed by an `Advr` waits one repair timeout T for the
//! push before it asks; once asked, the requester probes the holder
//! every T/2, a holder sends each payload to a requester once — by push
//! or in answer to a pull — and echoes a repeated `Want` with `Served`,
//! an echo that arrives while the payload is still missing rotates the
//! pull to another holder at once, and a holder whose echo already proved
//! its answer lost is sent a `Repull`, which it answers with the payload
//! again. Only a payload that lands before its pull asked goes on down
//! the requester's subtree (its one child, rank 6, absent here: counted
//! in its `pushes_sent`); one that lands after — its push held up, or
//! an answer — and one whose `Advr` was lost are advertised lazily.
//!
//! Three bare [`EndpointCore`]s of an 8-rank group over
//! [`ScriptedPump::routed`], routed by hand so that each test loses or
//! holds exactly the datagram it names (what is sent to the five absent
//! ranks is dropped). Rank 0 originates one group send and pushes it,
//! each push behind its `Advr`, to its tree children 1, 2 and 4; rank 1,
//! the relay, pushes it on to its own children 3 and 5 and advertises it
//! lazily to its other finger, rank 2 — the requester, whose tree parent
//! is the origin. At N=8 the `n/2` rotation deadline is 4 T after the
//! first ask, past its seven probes.

use mmpi_transport::testing::ScriptedPump;
use mmpi_transport::{EndpointCore, Nanos, RepairConfig};
use mmpi_wire::{Bytes, Datagram, GossipDigest, MsgKind};

const N: usize = 8;
const REQUESTER: usize = 2;
const ORIGIN: usize = 0;
const RELAY: usize = 1;
/// The requester first: its pump's clock is the one the tests move.
const PRESENT: [usize; 3] = [REQUESTER, ORIGIN, RELAY];
const TAG: u32 = 7;
/// The probe interval: one repair timeout, `nack_timeout` (2 ms under
/// `sim_default`).
const T: Nanos = 2_000_000;

/// What the script does with one datagram.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fate {
    Deliver,
    Drop,
    /// Park it, and everything after it on the same link, until
    /// [`Net::release`]: a FIFO link that stalls.
    Hold,
}

/// One datagram a rank handed to the fabric: `(from, to, kind)`.
type Sent = (usize, usize, MsgKind);

struct Net {
    /// The endpoint and pump of each rank in [`PRESENT`], in that order.
    cores: Vec<EndpointCore>,
    ios: Vec<ScriptedPump>,
    /// Held links, `(from, to)`, and what is parked on each in send order.
    held: Vec<((usize, usize), Vec<Datagram>)>,
    /// Every datagram sent so far between present ranks.
    log: Vec<Sent>,
}

fn at(rank: usize) -> Option<usize> {
    PRESENT.iter().position(|&r| r == rank)
}

impl Net {
    fn new() -> Self {
        let cfg = RepairConfig::sim_default().with_gossip();
        Net {
            cores: PRESENT
                .iter()
                .map(|&rank| EndpointCore::new(0, rank, N, 60_000, Some(cfg)))
                .collect(),
            ios: ScriptedPump::routed(PRESENT.len()),
            held: Vec::new(),
            log: Vec::new(),
        }
    }

    fn stats(&self, rank: usize) -> mmpi_wire::RepairStats {
        self.cores[at(rank).expect("present")].repair_stats()
    }

    /// The origin's group send: under gossip an `Advr` to each peer.
    fn originate(&mut self) {
        let i = at(ORIGIN).expect("present");
        let payload = Bytes::from(vec![0xAB; 512]);
        self.cores[i].mcast_message(&mut self.ios[i], TAG, MsgKind::Data, &payload);
    }

    /// Run every rank's progress pass and route what it sent, until
    /// nothing moves. `fate` sees each datagram not already on a held
    /// link. Returns what was sent, in order. A script that moves for
    /// 100 rounds at one instant is a ping-pong between ranks, and fails.
    fn settle(&mut self, mut fate: impl FnMut(&Sent) -> Fate) -> Vec<Sent> {
        let first = self.log.len();
        for _ in 0..100 {
            for (core, io) in self.cores.iter_mut().zip(&mut self.ios) {
                core.progress(io);
            }
            let mut moved = false;
            for (i, &from) in PRESENT.iter().enumerate() {
                for (to, d) in self.ios[i].take_sent() {
                    moved = true;
                    let Some(j) = at(to) else {
                        continue; // an absent rank
                    };
                    let sent = (from, to, kind(&d));
                    self.log.push(sent);
                    if let Some((_, parked)) = self.held.iter_mut().find(|(l, _)| *l == (from, to))
                    {
                        parked.push(d);
                        continue;
                    }
                    match fate(&sent) {
                        Fate::Deliver => self.ios[j].inject([d]),
                        Fate::Drop => {}
                        Fate::Hold => self.held.push(((from, to), vec![d])),
                    }
                }
            }
            if !moved {
                return self.log[first..].to_vec();
            }
        }
        panic!(
            "still moving after 100 rounds: {:?}",
            &self.log[first..][..24]
        );
    }

    /// Deliver everything parked on `from → to`, in order, reopen the
    /// link and settle.
    fn release(&mut self, from: usize, to: usize) -> Vec<Sent> {
        let held = self.held.iter().position(|(l, _)| *l == (from, to));
        let (_, parked) = self.held.remove(held.expect("the link is held"));
        self.ios[at(to).expect("present")].inject(parked);
        self.settle(|_| Fate::Deliver)
    }

    /// Move the shared clock, then settle with every datagram delivered.
    fn settle_at(&mut self, now: Nanos) -> Vec<Sent> {
        self.ios[0].set_clock(now);
        self.settle(|_| Fate::Deliver)
    }

    /// Whether the requester holds the payload: a receive posted now is
    /// matched at once. The requester is `cores[0]`.
    fn requester_has(&mut self) -> bool {
        let (core, io) = (&mut self.cores[0], &mut self.ios[0]);
        let req = core.post_recv(io, Some(ORIGIN), TAG);
        core.progress(io);
        match core.test_claimed(req) {
            Some(got) => got.is_ok_and(|m| m.payload.len() == 512),
            None => {
                core.cancel_req(req);
                false
            }
        }
    }

    /// How many payloads crossed `from → to` so far.
    fn payloads(&self, from: usize, to: usize) -> usize {
        let data = (from, to, MsgKind::Data);
        self.log.iter().filter(|&&s| s == data).count()
    }
}

fn kind(d: &Datagram) -> MsgKind {
    d.decode().expect("well-formed").kind
}

/// The requester's pulls and the answers to them, in order.
fn pulls(log: &[Sent]) -> Vec<Sent> {
    log.iter()
        .copied()
        .filter(|&(from, to, k)| {
            (from == REQUESTER || to == REQUESTER)
                && matches!(
                    k,
                    MsgKind::Want | MsgKind::Repull | MsgKind::Served | MsgKind::Data
                )
        })
        .collect()
}

/// The first datagram of kind `k` on `from → to` meets `fate`; every
/// other one is delivered.
fn first(from: usize, to: usize, k: MsgKind, fate: Fate) -> impl FnMut(&Sent) -> Fate {
    let mut armed = true;
    move |&s| {
        if armed && s == (from, to, k) {
            armed = false;
            fate
        } else {
            Fate::Deliver
        }
    }
}

/// The origin sends: it pushes to the requester and the relay, and the
/// relay advertises the payload to the requester. Returns the
/// requester's pulls and answers.
fn advertised(net: &mut Net, fate: impl FnMut(&Sent) -> Fate) -> Vec<Sent> {
    net.originate();
    let log = net.settle(fate);
    assert!(log.contains(&(RELAY, REQUESTER, MsgKind::Advr)), "{log:?}");
    assert_eq!(net.payloads(ORIGIN, RELAY), 1);
    pulls(&log)
}

/// The origin's push to the requester; also its answer to a `Repull`.
const PUSH: Sent = (ORIGIN, REQUESTER, MsgKind::Data);
const ANSWER: Sent = PUSH;
const WANT: Sent = (REQUESTER, ORIGIN, MsgKind::Want);
const ECHO: Sent = (ORIGIN, REQUESTER, MsgKind::Served);
const REPULL: Sent = (REQUESTER, ORIGIN, MsgKind::Repull);
const RELAY_WANT: Sent = (REQUESTER, RELAY, MsgKind::Want);
const RELAY_ANSWER: Sent = (RELAY, REQUESTER, MsgKind::Data);
const RELAY_ECHO: Sent = (RELAY, REQUESTER, MsgKind::Served);

/// The origin's `Advr` and push to the requester are lost: the requester
/// knows of the payload from the relay alone.
fn origin_silent(s: &Sent) -> bool {
    matches!(s, (ORIGIN, REQUESTER, MsgKind::Advr | MsgKind::Data))
}

#[test]
fn a_lost_want_is_answered_at_the_first_probe() {
    let mut net = Net::new();
    let mut lost_want = first(REQUESTER, RELAY, MsgKind::Want, Fate::Drop);
    let mut fate = |s: &Sent| {
        if origin_silent(s) {
            Fate::Drop
        } else {
            lost_want(s)
        }
    };
    assert_eq!(advertised(&mut net, &mut fate), [PUSH]);
    assert!(!net.requester_has());

    net.ios[0].set_clock(T - 1);
    assert!(pulls(&net.settle(&mut fate)).is_empty(), "no ask before T");
    net.ios[0].set_clock(T);
    assert_eq!(pulls(&net.settle(&mut fate)), [RELAY_WANT], "lost");
    assert!(
        pulls(&net.settle_at(T + T / 2 - 1)).is_empty(),
        "no probe before T/2"
    );
    assert_eq!(pulls(&net.settle_at(T + T / 2)), [RELAY_WANT, RELAY_ANSWER]);
    assert!(net.requester_has());
    assert_eq!(net.stats(RELAY).echoes_sent, 0);
}

#[test]
fn a_lost_answer_draws_an_echo_and_rotates_to_the_other_holder_at_once() {
    let mut net = Net::new();
    let log = advertised(
        &mut net,
        first(ORIGIN, REQUESTER, MsgKind::Data, Fate::Drop),
    );
    assert_eq!(log, [PUSH]);
    assert!(!net.requester_has());

    assert!(
        pulls(&net.settle_at(T - 1)).is_empty(),
        "the pull waits T for the push"
    );
    assert_eq!(
        pulls(&net.settle_at(T)),
        [WANT, ECHO, RELAY_WANT, RELAY_ANSWER],
        "the origin echoed instead of re-sending its push, and the echo moved the pull"
    );
    assert!(net.requester_has());
    let origin = net.stats(ORIGIN);
    assert_eq!(
        (
            origin.pushes_sent,
            origin.pulls_answered,
            origin.echoes_sent
        ),
        (3, 0, 1)
    );
    assert_eq!(net.stats(REQUESTER).pushes_sent, 0, "pulled: not pushed on");
}

#[test]
fn an_answer_delayed_behind_probes_crosses_once() {
    let mut net = Net::new();
    let log = advertised(
        &mut net,
        first(ORIGIN, REQUESTER, MsgKind::Data, Fate::Hold),
    );
    assert_eq!(log, [PUSH]);
    // The ask at T and probes T/2 apart; each draws an echo, which queues
    // behind the held push.
    for now in [T, T + T / 2, 2 * T] {
        assert!(pulls(&net.settle_at(now - 1)).is_empty(), "before {now}");
        assert_eq!(pulls(&net.settle_at(now)), [WANT, ECHO], "at {now}");
        assert!(!net.requester_has());
    }
    let log = net.release(ORIGIN, REQUESTER);
    assert!(
        pulls(&log).is_empty(),
        "echoes behind the payload move nothing: {log:?}"
    );
    assert!(net.requester_has());
    assert_eq!(net.payloads(ORIGIN, REQUESTER), 1);
    assert_eq!(net.payloads(RELAY, REQUESTER), 0);
    assert_eq!(net.stats(ORIGIN).echoes_sent, 3);
    assert_eq!(
        net.stats(REQUESTER).pushes_sent,
        0,
        "the push landed after the pull asked: not pushed on"
    );
    assert!(pulls(&net.settle_at(60 * T)).is_empty(), "the pull retired");
}

#[test]
fn a_silent_holder_is_left_at_the_n_over_2_deadline() {
    let mut net = Net::new();
    // The push is lost and nothing the requester sends reaches the
    // origin: a cut-off holder.
    let cut = |&s: &Sent| {
        if s == PUSH || (s.0, s.1) == (REQUESTER, ORIGIN) {
            Fate::Drop
        } else {
            Fate::Deliver
        }
    };
    net.originate();
    net.settle(cut);
    // The ask at T, then seven probes T/2 apart.
    for k in 0..8 {
        let now = T + k * T / 2;
        net.ios[0].set_clock(now);
        assert_eq!(pulls(&net.settle(cut)), [WANT], "at {now}");
    }
    net.ios[0].set_clock(5 * T - 1);
    assert!(pulls(&net.settle(cut)).is_empty());
    net.ios[0].set_clock(5 * T);
    assert_eq!(pulls(&net.settle(cut)), [RELAY_WANT, RELAY_ANSWER]);
    assert!(net.requester_has());
}

#[test]
fn a_strangers_echo_changes_nothing() {
    let mut net = Net::new();
    let log = advertised(
        &mut net,
        first(ORIGIN, REQUESTER, MsgKind::Data, Fate::Hold),
    );
    assert_eq!(log, [PUSH]);
    assert_eq!(
        pulls(&net.settle_at(T)),
        [WANT, ECHO],
        "asked; the echo is held"
    );
    let before = net.stats(REQUESTER);
    // The relay echoes the id the requester pulls from the origin, and
    // the origin echoes an id nobody pulls.
    for (k, (from, seq)) in [(RELAY, 0), (ORIGIN, 5)].into_iter().enumerate() {
        let digest = GossipDigest::single(ORIGIN as u32, seq).encode();
        let control = (1 << 63) | (900 + k as u64);
        net.ios[0].inject_message(MsgKind::Served, from as u32, 0, control, &digest);
    }
    assert!(pulls(&net.settle(|_| Fate::Deliver)).is_empty());
    assert_eq!(net.stats(REQUESTER), before);

    // The pull goes on as if nothing had arrived: its probe is due at
    // T + T/2, to the origin.
    assert!(pulls(&net.settle_at(T + T / 2 - 1)).is_empty());
    assert_eq!(pulls(&net.settle_at(T + T / 2)), [WANT, ECHO]);
    net.release(ORIGIN, REQUESTER);
    assert!(net.requester_has());
    assert_eq!(net.payloads(RELAY, REQUESTER), 0);
}

#[test]
fn when_every_holder_lost_its_answer_the_first_is_re_pulled() {
    let mut net = Net::new();
    // The first answer of each holder is lost: the origin's push and the
    // relay's answer to the requester's pull.
    let (mut origin, mut relay) = (
        first(ORIGIN, REQUESTER, MsgKind::Data, Fate::Drop),
        first(RELAY, REQUESTER, MsgKind::Data, Fate::Drop),
    );
    let mut lose_both = move |s: &Sent| match (origin(s), relay(s)) {
        (Fate::Deliver, Fate::Deliver) => Fate::Deliver,
        _ => Fate::Drop,
    };
    let log = advertised(&mut net, &mut lose_both);
    assert_eq!(log, [PUSH]);
    net.ios[0].set_clock(T);
    assert_eq!(
        pulls(&net.settle(&mut lose_both)),
        [WANT, ECHO, RELAY_WANT, RELAY_ANSWER]
    );
    assert!(!net.requester_has());
    // The relay's echo proves its answer lost too: the origin, whose
    // echo already did, is asked again and answers with the payload.
    assert_eq!(
        pulls(&net.settle_at(T + T / 2)),
        [RELAY_WANT, RELAY_ECHO, REPULL, ANSWER]
    );
    assert!(net.requester_has(), "within 2 T, not at the NACK backstop");
    assert_eq!(net.payloads(ORIGIN, REQUESTER), 2);
    assert!(pulls(&net.settle_at(60 * T)).is_empty(), "the pull retired");
}

#[test]
fn the_only_known_holder_is_re_pulled_after_its_echo() {
    let mut net = Net::new();
    // The requester hears of the payload from the relay alone, and the
    // relay's first answer is lost.
    let mut lost_answer = first(RELAY, REQUESTER, MsgKind::Data, Fate::Drop);
    let mut fate = |s: &Sent| {
        if origin_silent(s) {
            Fate::Drop
        } else {
            lost_answer(s)
        }
    };
    assert_eq!(advertised(&mut net, &mut fate), [PUSH]);
    net.ios[0].set_clock(T);
    assert_eq!(pulls(&net.settle(&mut fate)), [RELAY_WANT, RELAY_ANSWER]);
    assert_eq!(
        pulls(&net.settle_at(T + T / 2)),
        [
            RELAY_WANT,
            RELAY_ECHO,
            (REQUESTER, RELAY, MsgKind::Repull),
            RELAY_ANSWER
        ]
    );
    assert!(net.requester_has());
    let relay = net.stats(RELAY);
    assert_eq!((relay.pulls_answered, relay.echoes_sent), (2, 1));
}

/// A push whose `Advr` arrived but which was itself lost is recovered
/// from the tree parent: the relay's lazy `Advr` is stalled behind a
/// held link, so the parent is the only holder the requester knows. Its
/// pull asks the parent at T, whose echo — the push counts as served —
/// proves the push lost and draws a `Repull`, answered with the payload.
#[test]
fn a_lost_push_is_recovered_from_the_tree_parent() {
    let mut net = Net::new();
    let mut lost_push = first(ORIGIN, REQUESTER, MsgKind::Data, Fate::Drop);
    let mut fate = |s: &Sent| match s {
        (RELAY, REQUESTER, _) => Fate::Hold,
        _ => lost_push(s),
    };
    net.originate();
    assert_eq!(pulls(&net.settle(&mut fate)), [PUSH]);
    assert!(!net.requester_has());
    net.ios[0].set_clock(T);
    assert_eq!(pulls(&net.settle(&mut fate)), [WANT, ECHO, REPULL, ANSWER]);
    assert!(net.requester_has(), "from the parent, within T");
    let log = net.release(RELAY, REQUESTER);
    assert!(
        pulls(&log).is_empty(),
        "the relay's late Advr pulls nothing: {log:?}"
    );
    assert_eq!(net.payloads(ORIGIN, REQUESTER), 2);
    assert_eq!(net.payloads(RELAY, REQUESTER), 0);
    let origin = net.stats(ORIGIN);
    assert_eq!(
        (
            origin.pushes_sent,
            origin.pulls_answered,
            origin.echoes_sent
        ),
        (3, 1, 1)
    );
    assert_eq!(
        net.stats(REQUESTER).pushes_sent,
        0,
        "a Repull's answer is pulled: not pushed on"
    );
}

/// A push whose `Advr` was lost lands with no pull waiting for it. The
/// requester holds it until the relay's lazy `Advr`, a pass later, names
/// it: then it stores it and advertises it to its fingers (3, 4 and 6,
/// absent here), but does not push it on — by then its subtree has had
/// the other holders' `Advr`s as long. It asks no one, and answers a
/// pull for it.
#[test]
fn a_push_that_lost_its_advr_is_relayed_lazily() {
    let mut net = Net::new();
    let log = advertised(
        &mut net,
        first(ORIGIN, REQUESTER, MsgKind::Advr, Fate::Drop),
    );
    assert_eq!(log, [PUSH]);
    assert!(net.requester_has());
    let requester = net.stats(REQUESTER);
    assert_eq!((requester.pushes_sent, requester.advrs_sent), (0, 3));
    for now in [T, 2 * T, 60 * T] {
        assert!(pulls(&net.settle_at(now)).is_empty(), "at {now}");
    }
    assert_eq!(net.stats(REQUESTER).wants_sent, 0);
    assert_eq!(net.payloads(RELAY, REQUESTER), 0);

    let digest = GossipDigest::single(ORIGIN as u32, 0).encode();
    net.ios[0].inject_message(MsgKind::Want, RELAY as u32, 0, (1 << 63) | 900, &digest);
    let log = net.settle(|_| Fate::Deliver);
    assert_eq!(log, [(REQUESTER, RELAY, MsgKind::Data)], "answered");
    assert_eq!(net.stats(REQUESTER).pulls_answered, 1);
}
