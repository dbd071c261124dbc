//! Collectives as request machines: `MPI_Ibcast` / `MPI_Ibarrier` /
//! `MPI_Iallgather`, and — waited on — every blocking collective as well.
//!
//! Each algorithm exists once, as a resumable machine (`Phases`, run by
//! `Machine`) that walks the algorithm's phases in the paper's order:
//! scouts are claimed one at a time (up the binomial tree in
//! ascending-mask order, or at the root from any source), the data (or
//! release) receive is posted only after this rank's scout went up, the
//! multicast allgather walks the ranks in order, and the rings, chains
//! and trees post one receive per step. A machine therefore holds at most
//! one posted receive ([`CollRequest::pending`]), posted exactly where the
//! algorithm receives. That is what lets every blocking
//! [`crate::Communicator`] collective be a machine, waited on, without
//! moving a virtual time, a count or a replay constant. The one exception
//! is [`crate::bcast::bcast_pvm_ack`], whose retransmit timer is not a
//! receive.
//!
//! The machines live with their algorithms (`bcast`, `bcast_ext`,
//! `barrier`, `coll`, `many_to_many`); this module holds the machinery,
//! the paper's scouted multicast that the broadcast and the barrier
//! share, and the three public requests.
//!
//! A request is created by its `Communicator` entry point
//! (`ibcast`/`ibarrier`/`iallgather`), which consumes one operation slot
//! exactly like the blocking call — nonblocking and blocking collectives
//! can be mixed freely as long as every rank issues the same sequence
//! (the MPI "safe program" requirement). Construction fires the first
//! sends and posts the first receive; afterwards the caller drives the
//! machine with [`CollRequest::poll`] while doing its own work — the
//! compute/communication overlap the blocking API cannot express — or
//! finishes it with [`CollRequest::wait`]. Several operations can be in
//! flight on one communicator at once (distinct op slots keep their tag
//! spaces disjoint).
//!
//! On unrecoverable loss (`RecvError`) the failing receive was the
//! machine's only one, so nothing is left to cancel; polling the machine
//! again afterwards is a programming error and panics.

use std::any::Any;
use std::fmt;
use std::mem;

use mmpi_transport::{CancelSink, ClaimStep, Comm, RecvError, RecvReq, Tag};
use mmpi_wire::{Bytes, Message, MsgKind};

use crate::barrier::Barrier;
use crate::bcast::Bcast;
use crate::many_to_many::Allgather;
use crate::tags::{OpTags, Phase};
use crate::tree::{self, Reduction};

/// A nonblocking collective in flight: poll it to completion, then take
/// the output — or [`CollRequest::wait`] for it.
pub trait CollRequest {
    /// What the operation resolves to.
    type Output;

    /// The claim-only step: if the operation's posted receive has
    /// completed, claim it and run the algorithm on to its next receive
    /// (which it posts) or to completion. Runs no progress pass.
    /// `Ok(true)` once the operation is complete (the output is then
    /// available via [`CollRequest::take_output`]).
    fn poll_claimed<C: Comm>(&mut self, c: &mut C) -> Result<bool, RecvError>;

    /// Drive the operation as far as currently possible without
    /// blocking: one [`Comm::progress`] pass, then
    /// [`CollRequest::poll_claimed`].
    fn poll<C: Comm>(&mut self, c: &mut C) -> Result<bool, RecvError> {
        c.progress();
        self.poll_claimed(c)
    }

    /// Take the completed operation's output. Panics if the operation
    /// has not completed (or the output was already taken).
    fn take_output(&mut self) -> Self::Output;

    /// The one receive this operation is blocked on — what
    /// [`CollRequest::wait`] parks against. `None` once complete.
    fn pending(&self) -> Option<RecvReq>;

    /// Abandon an in-flight operation, cancelling its posted receive
    /// immediately. Dropping an incomplete machine instead is also safe:
    /// its `Drop` pushes the outstanding handle into the endpoint's
    /// [`CancelSink`] and the progress engine cancels it on its next
    /// pass — `cancel` just does it now, without waiting for that pass.
    fn cancel<C: Comm>(self, c: &mut C)
    where
        Self: Sized,
    {
        if let Some(r) = self.pending() {
            c.cancel_recv(r);
        }
    }

    /// This operation as the object-safe step [`Comm::wait_op`] repeats:
    /// [`CollRequest::poll_claimed`] over a `dyn Comm`.
    fn claim_step(&mut self) -> &mut dyn ClaimStep;

    /// Drive to completion: [`Comm::wait_op`] — claim, else wait on the
    /// one posted receive. By default that is [`Comm::wait_ready`], the
    /// calls a blocking receive makes, so a waited machine moves the
    /// backend's time model exactly as a blocking formulation would, and
    /// an *unrelated* operation's parked completion cannot make the wait
    /// spin. The simulator's `SimComm` parks its rank once for the whole
    /// operation instead: the round closer takes the claim steps between
    /// the receives, making the same calls.
    fn wait<C: Comm>(mut self, c: &mut C) -> Result<Self::Output, RecvError>
    where
        Self: Sized,
    {
        c.wait_op(self.claim_step())?;
        Ok(self.take_output())
    }
}

// ---------------------------------------------------------------------
// The machine shared by every collective
// ---------------------------------------------------------------------

/// Where an algorithm stands once it has run as far as it can without a
/// message: blocked on the one receive it just posted, or done.
pub(crate) enum Next<O> {
    Recv(RecvReq),
    Done(O),
}

impl<O> Next<O> {
    /// The same step, with the output (if done) passed through `f`.
    pub(crate) fn map<P>(self, f: impl FnOnce(O) -> P) -> Next<P> {
        match self {
            Next::Recv(req) => Next::Recv(req),
            Next::Done(out) => Next::Done(f(out)),
        }
    }
}

/// One collective algorithm as phases: `start` runs from the call to
/// its first receive, `resume` from that receive's message to the next.
pub(crate) trait Phases: Send + 'static {
    type Output: Send;
    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Self::Output>;
    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Self::Output>;
}

/// An algorithm's phases with the lifecycle every request shares. `Drop`
/// hands a still-posted receive to the endpoint's cancel sink (a `Drop`
/// has no `&mut Comm`); the progress engine cancels it on its next pass.
pub(crate) struct Machine<P: Phases> {
    life: Life<P>,
    sink: CancelSink,
}

enum Life<P: Phases> {
    Blocked(P, RecvReq),
    Complete(P::Output),
    Claimed,
    Failed,
}

impl<P: Phases> Machine<P> {
    fn start<C: Comm + ?Sized>(c: &mut C, mut phases: P) -> Self {
        let life = match phases.start(c) {
            Next::Recv(req) => Life::Blocked(phases, req),
            Next::Done(out) => Life::Complete(out),
        };
        Machine {
            life,
            sink: c.cancel_sink(),
        }
    }

    /// Start `phases` and wait them to the end: a blocking collective.
    pub(crate) fn run<C: Comm>(c: &mut C, phases: P) -> Result<P::Output, RecvError> {
        let mut machine = Machine::start(c, phases);
        c.wait_op(&mut machine)?;
        Ok(machine.take_output())
    }

    #[expect(
        clippy::panic,
        reason = "reviewed: polling a spent request is a caller bug"
    )]
    fn poll_claimed<C: Comm + ?Sized>(&mut self, c: &mut C) -> Result<bool, RecvError> {
        let (phases, req) = match &mut self.life {
            Life::Blocked(phases, req) => (phases, req),
            Life::Complete(_) => return Ok(true),
            Life::Claimed => panic!("collective request polled after its output was taken"),
            Life::Failed => panic!("collective request polled after it failed"),
        };
        let next = match c.test_claimed(*req) {
            None => return Ok(false),
            Some(Ok(m)) => phases.resume(c, m),
            Some(Err(e)) => {
                self.life = Life::Failed;
                return Err(e);
            }
        };
        // Only a progress pass completes a receive, so the one just
        // posted has nothing to claim yet.
        Ok(match next {
            Next::Recv(posted) => {
                *req = posted;
                false
            }
            Next::Done(out) => {
                self.life = Life::Complete(out);
                true
            }
        })
    }

    #[expect(
        clippy::panic,
        reason = "reviewed: the output exists once, after completion"
    )]
    fn take_output(&mut self) -> P::Output {
        match mem::replace(&mut self.life, Life::Claimed) {
            Life::Complete(out) => out,
            _ => panic!("collective output taken before completion, or twice"),
        }
    }

    fn pending(&self) -> Option<RecvReq> {
        match self.life {
            Life::Blocked(_, req) => Some(req),
            _ => None,
        }
    }
}

impl<P: Phases> fmt::Debug for Machine<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("pending", &self.pending())
            .finish_non_exhaustive()
    }
}

impl<P: Phases> ClaimStep for Machine<P> {
    fn claim(&mut self, c: &mut dyn Comm) -> Result<Option<RecvReq>, RecvError> {
        Ok(if self.poll_claimed(c)? {
            None
        } else {
            self.pending()
        })
    }

    fn vacant(&self) -> Box<dyn ClaimStep> {
        Box::new(Machine::<P> {
            life: Life::Claimed,
            sink: self.sink.clone(),
        })
    }

    fn exchange(&mut self, other: &mut dyn ClaimStep) -> bool {
        let other: &mut dyn Any = other;
        match other.downcast_mut::<Self>() {
            Some(other) => {
                mem::swap(self, other);
                true
            }
            None => false,
        }
    }
}

impl<P: Phases> Drop for Machine<P> {
    fn drop(&mut self) {
        if let Some(req) = self.pending() {
            self.sink.push(req);
        }
    }
}

// ---------------------------------------------------------------------
// Scouted multicast (the paper's Bcast and Barrier)
// ---------------------------------------------------------------------

/// How the scouts reach the root before its one multicast.
pub(crate) enum Scouts {
    /// Up a binomial tree (the paper's binary algorithm, Fig. 3): a rank
    /// claims its children's scouts one at a time in ascending-mask
    /// order, then sends one to its parent — `N-1` scouts in
    /// `ceil(log2 N)` rounds. (The paper draws a slightly different,
    /// irregular edge set for seven processes; the standard binomial
    /// reduction has the same message count and depth.)
    Binomial,
    /// Straight to the root, which claims them one at a time from any
    /// source (the paper's linear algorithm, Fig. 4): `N-1` sequential
    /// steps.
    Linear,
    /// No scouts: the root sends at once (the gossip broadcast, whose
    /// lazy-push plane covers receivers that are not ready yet).
    None,
}

/// Scouts to the root, then one multicast down from it: the broadcast's
/// multicast algorithms (the payload, `MsgKind::Data`) and the
/// multicast barriers (an empty `MsgKind::Release` from rank 0).
pub(crate) struct Scouted {
    scouts: Scouts,
    scout_tag: Tag,
    root: usize,
    /// The scouts' round: the binomial mask, or the linear root's count
    /// of claimed scouts plus one.
    step: usize,
    tag: Tag,
    kind: MsgKind,
    /// The root's payload.
    buf: Vec<u8>,
    /// Past the scout phase: the posted receive is the multicast's.
    awaiting_multicast: bool,
}

impl Scouted {
    pub(crate) fn new(
        scouts: Scouts,
        tags: OpTags,
        root: usize,
        phase: Phase,
        kind: MsgKind,
        buf: Vec<u8>,
    ) -> Self {
        Scouted {
            scouts,
            scout_tag: tags.tag(Phase::Scout),
            root,
            step: 1,
            tag: tags.tag(phase),
            kind,
            buf,
            awaiting_multicast: false,
        }
    }

    /// Run the scout phase on from the current step: post the next scout
    /// receive, or — every scout this rank waits for being in — send
    /// this rank's own (unless root) and return `None`, after which it
    /// must not be called again.
    fn next_scout<C: Comm + ?Sized>(&mut self, c: &mut C) -> Option<RecvReq> {
        let (n, rank) = (c.size(), c.rank());
        let up = match self.scouts {
            Scouts::Binomial => {
                match tree::binomial_reduction(rank, n, self.root, &mut self.step) {
                    Reduction::Child(src) => return Some(c.post_recv(Some(src), self.scout_tag)),
                    Reduction::Parent(dst) => Some(dst),
                    Reduction::Root => None,
                }
            }
            Scouts::Linear if rank != self.root => Some(self.root),
            Scouts::Linear if self.step < n => {
                self.step += 1;
                return Some(c.post_recv(None, self.scout_tag));
            }
            Scouts::Linear | Scouts::None => None,
        };
        if let Some(dst) = up {
            c.send_kind(dst, self.scout_tag, MsgKind::Scout, &Bytes::new());
        }
        None
    }

    fn advance<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<u8>> {
        if let Some(req) = self.next_scout(c) {
            return Next::Recv(req);
        }
        if c.rank() == self.root {
            c.mcast_kind(self.tag, self.kind, &Bytes::from(&self.buf));
            return Next::Done(mem::take(&mut self.buf));
        }
        self.awaiting_multicast = true;
        Next::Recv(c.post_recv(Some(self.root), self.tag))
    }
}

impl Phases for Scouted {
    type Output = Vec<u8>;

    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<u8>> {
        if c.size() == 1 {
            return Next::Done(mem::take(&mut self.buf));
        }
        self.advance(c)
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Vec<u8>> {
        if self.awaiting_multicast {
            Next::Done(m.into_vec())
        } else {
            self.advance(c)
        }
    }
}

// ---------------------------------------------------------------------
// The public requests
// ---------------------------------------------------------------------

/// A public request: a [`CollRequest`] over one `Machine`, started by
/// the `Communicator` entry points.
macro_rules! request {
    ($(#[$doc:meta])* $name:ident($phases:ty) -> $out:ty) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name(Machine<$phases>);

        impl $name {
            pub(crate) fn new<C: Comm>(c: &mut C, phases: $phases) -> Self {
                $name(Machine::start(c, phases))
            }
        }

        impl CollRequest for $name {
            type Output = $out;

            fn poll_claimed<C: Comm>(&mut self, c: &mut C) -> Result<bool, RecvError> {
                self.0.poll_claimed(c)
            }

            fn take_output(&mut self) -> $out {
                self.0.take_output()
            }

            fn pending(&self) -> Option<RecvReq> {
                self.0.pending()
            }

            fn claim_step(&mut self) -> &mut dyn ClaimStep {
                &mut self.0
            }
        }
    };
}

request! {
    /// Nonblocking broadcast, in the communicator's configured algorithm
    /// (`Auto` lowered first). `PvmAck` runs `McastBinary`'s shape here:
    /// its retransmit timer is not a receive a machine could wait on.
    IbcastRequest(Bcast) -> Vec<u8>
}

request! {
    /// Nonblocking barrier, in the communicator's configured algorithm.
    IbarrierRequest(Barrier) -> ()
}

request! {
    /// Nonblocking allgather, in the communicator's configured algorithm;
    /// `GatherBcast`'s broadcast stage runs the configured broadcast.
    IallgatherRequest(Allgather) -> Vec<Vec<u8>>
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::tags::OpCode;
    use crate::{AllgatherAlgorithm, BarrierAlgorithm, BcastAlgorithm, BcastConfig};
    use mmpi_transport::run_mem_world;

    fn ibarrier<C: Comm>(c: &mut C, algo: BarrierAlgorithm, seq: u32) -> IbarrierRequest {
        let tags = OpTags::new(OpCode::Barrier, seq);
        IbarrierRequest::new(c, Barrier::new(algo, Duration::ZERO, tags))
    }

    fn ibcast<C: Comm>(
        c: &mut C,
        algo: BcastAlgorithm,
        seq: u32,
        root: usize,
        buf: Vec<u8>,
    ) -> IbcastRequest {
        let tags = OpTags::new(OpCode::Bcast, seq);
        let phases = Bcast::new(c, algo, &BcastConfig::default(), tags, root, buf);
        IbcastRequest::new(c, phases)
    }

    fn iallgather_of<C: Comm>(
        c: &mut C,
        algo: AllgatherAlgorithm,
        bcast: BcastAlgorithm,
        seq: u32,
        mine: &[u8],
    ) -> IallgatherRequest {
        let tags = OpTags::new(OpCode::Allgather, seq);
        let phases = Allgather::new(c, algo, (bcast, &BcastConfig::default()), tags, mine);
        IallgatherRequest::new(c, phases)
    }

    fn iallgather<C: Comm>(c: &mut C, algo: AllgatherAlgorithm, seq: u32) -> IallgatherRequest {
        let mine = [c.rank() as u8; 2];
        iallgather_of(c, algo, BcastAlgorithm::McastBinary, seq, &mine)
    }

    #[test]
    fn ibarrier_completes_everywhere() {
        for algo in [
            BarrierAlgorithm::McastBinary,
            BarrierAlgorithm::McastLinear,
            BarrierAlgorithm::Mpich,
        ] {
            for n in [1usize, 2, 5, 8] {
                let out =
                    run_mem_world(n, 0, |mut c| ibarrier(&mut c, algo, 0).wait(&mut c).is_ok());
                assert!(out.iter().all(|&ok| ok), "{algo:?} n={n}");
            }
        }
    }

    #[test]
    fn ibcast_matches_blocking_for_all_shapes() {
        for algo in [
            BcastAlgorithm::McastBinary,
            BcastAlgorithm::McastLinear,
            BcastAlgorithm::MpichBinomial,
            BcastAlgorithm::ScatterAllgather,
            BcastAlgorithm::FlatTree,
            BcastAlgorithm::Chain,
            BcastAlgorithm::Gossip,
            BcastAlgorithm::PvmAck,
        ] {
            for n in [1usize, 2, 3, 5, 8] {
                for len in [0usize, 1, 1000, 9000] {
                    let payload: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
                    let want = payload.clone();
                    let out = run_mem_world(n, 0, move |mut c| {
                        let buf = if c.rank() == 2 % n {
                            payload.clone()
                        } else {
                            Vec::new()
                        };
                        ibcast(&mut c, algo, 0, 2 % n, buf).wait(&mut c).unwrap()
                    });
                    for (r, o) in out.iter().enumerate() {
                        assert_eq!(o, &want, "{algo:?} n={n} len={len} rank={r}");
                    }
                }
            }
        }
    }

    #[test]
    fn iallgather_matches_blocking_for_both_shapes() {
        for algo in [AllgatherAlgorithm::Ring, AllgatherAlgorithm::Multicast] {
            for n in [1usize, 2, 4, 7] {
                let out = run_mem_world(n, 0, move |mut c| {
                    let mine = vec![c.rank() as u8 + 1; (c.rank() * 3) % 5 + 1];
                    let req = iallgather_of(&mut c, algo, BcastAlgorithm::McastBinary, 0, &mine);
                    req.wait(&mut c).unwrap()
                });
                for parts in &out {
                    for (src, p) in parts.iter().enumerate() {
                        assert_eq!(p, &vec![src as u8 + 1; (src * 3) % 5 + 1], "{algo:?} n={n}");
                    }
                }
            }
        }
    }

    /// The gather + broadcast allgather runs whichever broadcast it is
    /// given as its second stage.
    #[test]
    fn gather_bcast_iallgather_runs_every_bcast_shape() {
        for bcast in [
            BcastAlgorithm::MpichBinomial,
            BcastAlgorithm::McastBinary,
            BcastAlgorithm::McastLinear,
            BcastAlgorithm::FlatTree,
            BcastAlgorithm::Chain,
            BcastAlgorithm::ScatterAllgather,
            BcastAlgorithm::Gossip,
            BcastAlgorithm::Auto,
        ] {
            for n in [1usize, 3, 6] {
                let out = run_mem_world(n, 0, move |mut c| {
                    let mine = [c.rank() as u8; 2];
                    let req =
                        iallgather_of(&mut c, AllgatherAlgorithm::GatherBcast, bcast, 0, &mine);
                    req.wait(&mut c).unwrap()
                });
                for parts in &out {
                    assert_eq!(parts.len(), n, "{bcast:?} n={n}");
                    for (src, p) in parts.iter().enumerate() {
                        assert_eq!(p, &[src as u8; 2], "{bcast:?} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn dropped_machine_cancels_outstanding_receives_via_sink() {
        // Abandoning a half-finished machine must not leak its posted
        // receive: `Drop` pushes it into the endpoint's cancel sink and
        // the next progress pass retires it.
        let out = run_mem_world(2, 0, |mut c| {
            let req = ibarrier(&mut c, BarrierAlgorithm::McastBinary, 0);
            // Rank 0 posted the scout receive, rank 1 the release receive.
            assert_eq!(c.outstanding_recvs(), 1);
            drop(req);
            c.progress();
            c.outstanding_recvs()
        });
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn dropped_ring_machine_cancels_all_posted_receives() {
        // The ring posts one receive per step, so construction leaves
        // exactly the first step's receive outstanding (not one per
        // step); dropping the machine unpolled must retire it (and a
        // fresh identical operation afterwards still completes — no
        // traffic was stolen).
        let out = run_mem_world(4, 0, |mut c| {
            let abandoned = iallgather(&mut c, AllgatherAlgorithm::Ring, 0);
            assert_eq!(c.outstanding_recvs(), 1);
            drop(abandoned);
            c.progress();
            let after_drop = c.outstanding_recvs();
            // The abandoned op's first-step block is in flight toward the
            // successor, but its op slot is dead; a fresh slot must be
            // unaffected.
            let req = iallgather(&mut c, AllgatherAlgorithm::Ring, 1);
            let parts = req.wait(&mut c).unwrap();
            for (src, p) in parts.iter().enumerate() {
                assert_eq!(p, &[src as u8; 2]);
            }
            after_drop
        });
        assert_eq!(out, vec![0, 0, 0, 0]);
    }

    #[test]
    fn multiple_collectives_in_flight_interleave() {
        // Two nonblocking operations on one communicator, polled
        // round-robin: distinct op slots keep their tags disjoint, so
        // both complete regardless of interleaving.
        let out = run_mem_world(4, 0, |mut c| {
            let bcast_buf = if c.rank() == 0 {
                vec![7u8; 500]
            } else {
                Vec::new()
            };
            let mut a = ibcast(&mut c, BcastAlgorithm::McastBinary, 0, 0, bcast_buf);
            let mut b = iallgather(&mut c, AllgatherAlgorithm::Ring, 1);
            let (mut a_done, mut b_done) = (false, false);
            while !(a_done && b_done) {
                if !a_done {
                    a_done = a.poll(&mut c).unwrap();
                }
                if !b_done {
                    b_done = b.poll(&mut c).unwrap();
                }
                if !(a_done && b_done) {
                    c.progress_block();
                }
            }
            let bcast = a.take_output();
            let gathered = b.take_output();
            assert_eq!(bcast, vec![7u8; 500]);
            for (src, p) in gathered.iter().enumerate() {
                assert_eq!(p, &[src as u8; 2]);
            }
            true
        });
        assert!(out.iter().all(|&ok| ok));
    }
}
