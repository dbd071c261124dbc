//! The two SRM suppression windows last one solicit timeout each
//! (`docs/PROTOCOL.md` §8). A receiver stays quiet at its deadline only
//! while a peer's overheard solicit for the same traffic is younger than
//! one timeout, the span in which that solicit's repair can still arrive.
//! A source repeats a multicast repair once one timeout has passed since
//! the last, the soonest its requester can ask again.
//!
//! Three bare [`EndpointCore`]s of a 3-rank group over
//! [`ScriptedPump::routed`], stepped from deadline to deadline on the
//! shared clock. Rank 0 is the source, rank 1 the receiver under test and
//! rank 2 a peer that may be stuck on the same traffic. Each test loses
//! exactly the datagrams it names; the rest arrive at once.

use mmpi_transport::testing::ScriptedPump;
use mmpi_transport::{EndpointCore, Nanos, RecvReq, RepairConfig, WaitKind, WaitPoll};
use mmpi_wire::{Bytes, Datagram, MsgKind, RepairStats};

const N: usize = 3;
const SOURCE: usize = 0;
const VICTIM: usize = 1;
const PEER: usize = 2;
const TAG: u32 = 7;
/// `nack_timeout` and `backoff` under `sim_default`.
const T: Nanos = 2_000_000;
const B: Nanos = 2_000_000;

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
    /// Each rank's posted receive of `(SOURCE, TAG)` until it completes.
    posted: Vec<Option<RecvReq>>,
    /// When each rank's receive completed.
    done_at: Vec<Option<Nanos>>,
    /// Every expired deadline of the victim's receive, in order.
    verdicts: Vec<(Nanos, Verdict)>,
}

impl Net {
    fn new() -> Self {
        let cfg = RepairConfig::sim_default();
        assert_eq!(cfg.nack_timeout.as_nanos() as Nanos, T);
        assert_eq!(cfg.backoff.as_nanos() as Nanos, B);
        Net {
            cores: (0..N)
                .map(|rank| EndpointCore::new(0, rank, N, 60_000, Some(cfg)))
                .collect(),
            ios: ScriptedPump::routed(N),
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
        let payload = Bytes::from(vec![0xAB; 256]);
        self.cores[SOURCE].mcast_message(&mut self.ios[SOURCE], TAG, MsgKind::Data, &payload);
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
                    assert_eq!(got.expect("the data is retained").payload, vec![0xAB; 256]);
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
}

/// A fate that loses the source's first `n` data hops to the victim and
/// delivers everything else.
fn lose_data_to_victim(n: usize) -> impl FnMut(&Hop) -> bool {
    let mut lost = 0;
    move |hop| {
        let lose = *hop == (SOURCE, VICTIM, MsgKind::Data) && lost < n;
        lost += usize::from(lose);
        lose
    }
}

/// A solicit for traffic not sent yet must not strand a receiver that
/// loses that traffic later. The peer solicits `(0, tag)` before the
/// source has sent; the victim overhears it. The source's multicast then
/// reaches the peer and is lost at the victim. The victim stays quiet only
/// while the overheard solicit is younger than one timeout, solicits at
/// its first deadline after that, and holds the data within
/// `2 × (nack_timeout + backoff)` of the loss.
#[test]
fn an_early_solicit_does_not_strand_a_later_loss() {
    let mut net = Net::new();
    let mut lost = lose_data_to_victim(1);
    net.post(PEER);
    let heard = net.next_deadline().expect("the peer's first deadline");
    // The victim posts half a timeout before the peer's deadline, so its
    // own deadline lands after the peer's solicit.
    net.run_until(heard - T / 2, &mut lost);
    net.post(VICTIM);
    net.run_until(heard + 1, &mut lost);
    assert_eq!(
        net.stats(PEER).nacks_sent,
        1,
        "the peer solicited at {heard}"
    );
    assert_eq!(
        net.stats(SOURCE).unanswered_nacks,
        1,
        "the solicit named a tag not sent yet"
    );

    // The source multicasts 0.4 ms later; the copy to the victim is lost.
    let loss = heard + 400_000;
    net.run_until(loss, &mut lost);
    net.multicast();
    net.run_until(loss + 4 * (T + B), &mut lost);
    assert!(net.done_at[PEER].is_some(), "the peer got the multicast");

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
        done - loss <= 2 * (T + B),
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
    let mut lost = lose_data_to_victim(2);
    net.post(VICTIM);
    net.multicast();
    net.run_until(4 * (T + B), &mut lost);

    let solicits: Vec<Nanos> = net
        .verdicts
        .iter()
        .filter(|(_, v)| *v == Verdict::Solicited)
        .map(|&(at, _)| at)
        .collect();
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
