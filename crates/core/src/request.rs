//! Collectives as request machines: `MPI_Ibcast` / `MPI_Ibarrier` /
//! `MPI_Iallgather`, and — waited on — the blocking calls as well.
//!
//! Each machine-backed algorithm exists once, here, as a resumable
//! machine that walks the algorithm's phases in the paper's order: the
//! binomial scout reduction claims its children one at a time in
//! ascending-mask order, the data (or release) receive is posted only
//! after this rank's scout went up, the multicast allgather walks the
//! ranks in order, and the rings post one receive per step. A machine
//! therefore holds at most one posted receive ([`CollRequest::pending`]),
//! posted exactly where the algorithm receives. That is what lets the
//! blocking [`crate::Communicator`] calls for these algorithms be
//! `I…Request::new(..).wait(c)` without moving a virtual time, a count
//! or a replay constant.
//!
//! A machine is created by its `Communicator` entry point
//! (`ibcast`/`ibarrier`/`iallgather`), which consumes one operation slot
//! exactly like the blocking call — nonblocking and blocking collectives
//! can be mixed freely as long as every rank issues the same sequence
//! (the MPI "safe program" requirement). Construction fires the first
//! sends and posts the first receive; afterwards the caller drives the
//! machine with [`CollRequest::poll`] while doing its own work — the
//! compute/communication overlap the blocking API cannot express — or
//! finishes it with [`CollRequest::wait`]. Several operations can be in
//! flight on one communicator at once (distinct op slots keep their tag
//! spaces disjoint). The rings forward each claimed block to the
//! successor as the shared [`Bytes`] view it arrived in — no per-hop
//! copy.
//!
//! On unrecoverable loss (`RecvError`) the failing receive was the
//! machine's only one, so nothing is left to cancel; polling the machine
//! again afterwards is a programming error and panics.

use std::any::Any;
use std::mem;
use std::time::Duration;

use mmpi_transport::{CancelSink, ClaimStep, Comm, RecvError, RecvReq, Tag};
use mmpi_wire::{Bytes, Message, MsgKind};

use crate::bcast::{tcp_acks_for, BcastAlgorithm};
use crate::communicator::AllgatherAlgorithm;
use crate::ring::{place_block, SuccessorSkip};
use crate::tags::{OpTags, Phase};
use crate::tree;

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
    /// calls a blocking `recv` makes, so a waited machine moves the
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
// The machine shared by every request type
// ---------------------------------------------------------------------

/// Where an algorithm stands once it has run as far as it can without a
/// message: blocked on the one receive it just posted, or done.
#[derive(Debug)]
enum Next<O> {
    Recv(RecvReq),
    Done(O),
}

/// One collective algorithm as phases: `start` runs from the call to
/// its first receive, `resume` from that receive's message to the next.
trait Phases: std::fmt::Debug {
    type Output: std::fmt::Debug;
    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Self::Output>;
    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Self::Output>;
}

/// An algorithm's phases with the lifecycle every request shares. `Drop`
/// hands a still-posted receive to the endpoint's cancel sink (a `Drop`
/// has no `&mut Comm`); the progress engine cancels it on its next pass.
#[derive(Debug)]
struct Machine<P: Phases> {
    life: Life<P>,
    sink: CancelSink,
}

#[derive(Debug)]
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

    fn take_output(&mut self) -> P::Output {
        match mem::replace(&mut self.life, Life::Claimed) {
            Life::Complete(out) => out,
            other => panic!("collective output taken before completion ({other:?})"),
        }
    }

    fn pending(&self) -> Option<RecvReq> {
        match self.life {
            Life::Blocked(_, req) => Some(req),
            _ => None,
        }
    }
}

impl<P> ClaimStep for Machine<P>
where
    P: Phases + Send + 'static,
    P::Output: Send,
{
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

/// The binomial scout reduction towards `root` (the paper's Fig. 3):
/// this rank claims its children's empty scouts one at a time in
/// ascending-mask order, then sends one scout to its parent — `N-1`
/// scouts in `ceil(log2 N)` rounds. (The paper draws a slightly
/// different, irregular edge set for seven processes; the standard
/// binomial reduction has the same message count and depth.)
#[derive(Debug)]
struct ScoutReduce {
    tag: Tag,
    root: usize,
    /// The next round's mask.
    mask: usize,
}

impl ScoutReduce {
    /// Run the reduction on from the current round: post the next
    /// child's scout receive, or — every child having reported — send
    /// this subtree's scout to the parent (unless root) and return
    /// `None`, after which it must not be called again.
    fn next<C: Comm + ?Sized>(&mut self, c: &mut C) -> Option<RecvReq> {
        let (n, rank) = (c.size(), c.rank());
        let relrank = (rank + n - self.root) % n;
        while self.mask < n {
            let mask = self.mask;
            self.mask <<= 1;
            if relrank & mask != 0 {
                c.send_kind(
                    (rank + n - mask) % n,
                    self.tag,
                    MsgKind::Scout,
                    &Bytes::new(),
                );
                return None;
            }
            if relrank + mask < n {
                return Some(c.post_recv(Some((rank + mask) % n), self.tag));
            }
        }
        None
    }
}

/// Scouts up a binomial tree, then one multicast down from its root:
/// the broadcast's binary algorithm (the payload, `MsgKind::Data`) and
/// the barrier (an empty `MsgKind::Release` from rank 0).
#[derive(Debug)]
struct Scouted {
    scout: ScoutReduce,
    tag: Tag,
    kind: MsgKind,
    /// The root's payload.
    buf: Vec<u8>,
    /// Past the scout phase: the posted receive is the multicast's.
    awaiting_multicast: bool,
}

impl Scouted {
    fn new(tags: OpTags, root: usize, phase: Phase, kind: MsgKind, buf: Vec<u8>) -> Self {
        Scouted {
            scout: ScoutReduce {
                tag: tags.tag(Phase::Scout),
                root,
                mask: 1,
            },
            tag: tags.tag(phase),
            kind,
            buf,
            awaiting_multicast: false,
        }
    }

    fn advance<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<u8>> {
        if let Some(req) = self.scout.next(c) {
            return Next::Recv(req);
        }
        let root = self.scout.root;
        if c.rank() == root {
            c.mcast_kind(self.tag, self.kind, &Bytes::from(&self.buf));
            return Next::Done(mem::take(&mut self.buf));
        }
        self.awaiting_multicast = true;
        Next::Recv(c.post_recv(Some(root), self.tag))
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
// Ibarrier
// ---------------------------------------------------------------------

/// Nonblocking barrier: the paper's scout reduction to rank 0, then one
/// multicast release.
#[derive(Debug)]
pub struct IbarrierRequest(Machine<Scouted>);

impl IbarrierRequest {
    pub(crate) fn new<C: Comm>(c: &mut C, tags: OpTags) -> Self {
        let phases = Scouted::new(tags, 0, Phase::Release, MsgKind::Release, Vec::new());
        IbarrierRequest(Machine::start(c, phases))
    }
}

impl CollRequest for IbarrierRequest {
    type Output = ();

    fn poll_claimed<C: Comm>(&mut self, c: &mut C) -> Result<bool, RecvError> {
        self.0.poll_claimed(c)
    }

    fn take_output(&mut self) {
        self.0.take_output();
    }

    fn pending(&self) -> Option<RecvReq> {
        self.0.pending()
    }

    fn claim_step(&mut self) -> &mut dyn ClaimStep {
        &mut self.0
    }
}

// ---------------------------------------------------------------------
// Ibcast
// ---------------------------------------------------------------------

/// Nonblocking broadcast. The shape follows the communicator's
/// configured algorithm: MPICH binomial tree, scatter + ring allgather,
/// or (for every other selector) the paper's scouts + one multicast.
#[derive(Debug)]
pub struct IbcastRequest(Machine<Bcast>);

#[derive(Debug)]
enum Bcast {
    Scouted(Scouted),
    /// MPICH's binomial tree (paper Fig. 2): receive from the parent,
    /// then fan out. `N-1` point-to-point data messages in
    /// `ceil(log2 N)` rounds, each charged `layer` on both sides.
    Binomial {
        tag: Tag,
        layer: Duration,
        root: usize,
        buf: Vec<u8>,
    },
    Scatter(ScatterAllgather),
}

impl IbcastRequest {
    pub(crate) fn new<C: Comm>(
        c: &mut C,
        algo: BcastAlgorithm,
        layer: Duration,
        tags: OpTags,
        root: usize,
        buf: Vec<u8>,
    ) -> Self {
        let phases = match algo {
            BcastAlgorithm::MpichBinomial => Bcast::Binomial {
                tag: tags.tag(Phase::Data),
                layer,
                root,
                buf,
            },
            BcastAlgorithm::ScatterAllgather => Bcast::Scatter(ScatterAllgather {
                tags,
                root,
                buf,
                ring: None,
            }),
            // The paper's binary shape for every other selector (the data
            // movement is identical for the nonblocking caller).
            _ => Bcast::Scouted(Scouted::new(tags, root, Phase::Data, MsgKind::Data, buf)),
        };
        IbcastRequest(Machine::start(c, phases))
    }
}

/// MPICH's fan-out: send `buf` to this rank's children in descending-mask
/// order, charging the layering cost per send. The buffer is imported
/// into wire form once, and only if there is a child.
fn fan_out<C: Comm + ?Sized>(c: &mut C, tag: Tag, layer: Duration, root: usize, buf: &[u8]) {
    let mut wire = None;
    for dst in tree::binomial_children(c.rank(), c.size(), root) {
        let wire = wire.get_or_insert_with(|| Bytes::from(buf));
        c.compute(layer);
        c.send_kind(dst, tag, MsgKind::Data, wire);
    }
}

impl Phases for Bcast {
    type Output = Vec<u8>;

    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<u8>> {
        match self {
            Bcast::Scouted(s) => s.start(c),
            Bcast::Binomial {
                tag,
                layer,
                root,
                buf,
            } => match tree::binomial_parent(c.rank(), c.size(), *root) {
                Some(parent) => Next::Recv(c.post_recv(Some(parent), *tag)),
                None => {
                    fan_out(c, *tag, *layer, *root, buf);
                    Next::Done(mem::take(buf))
                }
            },
            Bcast::Scatter(s) => s.start(c),
        }
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Vec<u8>> {
        match self {
            Bcast::Scouted(s) => s.resume(c, m),
            Bcast::Binomial {
                tag,
                layer,
                root,
                buf,
            } => {
                let src = m.src_rank as usize;
                // The payload replaces (and frees) the receiver's own
                // buffer before the fan-out copies it.
                *buf = m.into_vec();
                c.compute(*layer);
                // MPICH-1.x ran its p2p channel over TCP: model the
                // kernel's acknowledgement traffic.
                c.tcp_ack_model(src, tcp_acks_for(buf.len()));
                fan_out(c, *tag, *layer, *root, buf);
                Next::Done(mem::take(buf))
            }
            Bcast::Scatter(s) => s.resume(c, m),
        }
    }
}

impl CollRequest for IbcastRequest {
    type Output = Vec<u8>;

    fn poll_claimed<C: Comm>(&mut self, c: &mut C) -> Result<bool, RecvError> {
        self.0.poll_claimed(c)
    }

    fn take_output(&mut self) -> Vec<u8> {
        self.0.take_output()
    }

    fn pending(&self) -> Option<RecvReq> {
        self.0.pending()
    }

    fn claim_step(&mut self) -> &mut dyn ClaimStep {
        &mut self.0
    }
}

// ---------------------------------------------------------------------
// Scatter + ring allgather (van de Geijn)
// ---------------------------------------------------------------------

/// Van de Geijn's large-message broadcast: the root scatters `N` blocks
/// framed `[total u32, offset u32, data]`, then the blocks travel the
/// rank ring so every rank ends with the whole message — each byte
/// crosses any link at most twice regardless of `N`. A rank enters the
/// ring once its own block is in hand and then receives one block from
/// its predecessor per step, forwarding every block but the successor's
/// own (the [`SuccessorSkip`] rule: the offset is the block's identity,
/// since a NACK-repaired block completes after blocks sent later).
#[derive(Debug)]
struct ScatterAllgather {
    tags: OpTags,
    root: usize,
    /// The root's message (consumed by the scatter).
    buf: Vec<u8>,
    /// Set once this rank entered the ring.
    ring: Option<ScatterRing>,
}

#[derive(Debug)]
struct ScatterRing {
    skip: SuccessorSkip,
    out: Vec<u8>,
    /// Ring blocks still to come.
    left: usize,
}

impl ScatterAllgather {
    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<u8>> {
        let (n, rank) = (c.size(), c.rank());
        if n == 1 {
            return Next::Done(mem::take(&mut self.buf));
        }
        let scatter_tag = self.tags.tag(Phase::Data);
        if rank != self.root {
            return Next::Recv(c.post_recv(Some(self.root), scatter_tag));
        }
        let buf = mem::take(&mut self.buf);
        let total = buf.len();
        let per = total.div_ceil(n).max(1);
        let block = |i: usize| {
            let lo = (i * per).min(total);
            let hi = ((i + 1) * per).min(total);
            let mut block = Vec::with_capacity(8 + hi - lo);
            block.extend_from_slice(&(total as u32).to_le_bytes());
            block.extend_from_slice(&(lo as u32).to_le_bytes());
            block.extend_from_slice(&buf[lo..hi]);
            block
        };
        // Block `i` goes to `root + i`; the root keeps block 0.
        for i in 1..n {
            let part = Bytes::from(block(i));
            c.send_kind((self.root + i) % n, scatter_tag, MsgKind::Data, &part);
        }
        self.enter_ring(c, &Bytes::from(block(0)))
    }

    /// Own block in hand: allocate the output, place the block and send
    /// it around the ring, then post the first ring receive.
    fn enter_ring<C: Comm + ?Sized>(&mut self, c: &mut C, own: &Bytes) -> Next<Vec<u8>> {
        let (n, rank) = (c.size(), c.rank());
        let next = (rank + 1) % n;
        let total = u32::from_le_bytes(own[0..4].try_into().unwrap()) as usize;
        let mut out = vec![0u8; total];
        place_block(&mut out, own);
        let ring_tag = self.tags.tag(Phase::Exchange);
        c.send_kind(next, ring_tag, MsgKind::Data, own);
        self.ring = Some(ScatterRing {
            skip: SuccessorSkip::new(n, self.root, next, total),
            out,
            left: n - 1,
        });
        Next::Recv(c.post_recv(Some((rank + n - 1) % n), ring_tag))
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Vec<u8>> {
        let Some(ring) = &mut self.ring else {
            return self.enter_ring(c, &m.payload);
        };
        let (n, rank) = (c.size(), c.rank());
        let ring_tag = self.tags.tag(Phase::Exchange);
        if !ring
            .skip
            .should_skip(place_block(&mut ring.out, &m.payload))
        {
            c.send_kind((rank + 1) % n, ring_tag, MsgKind::Data, &m.payload);
        }
        ring.left -= 1;
        if ring.left == 0 {
            return Next::Done(mem::take(&mut ring.out));
        }
        Next::Recv(c.post_recv(Some((rank + n - 1) % n), ring_tag))
    }
}

// ---------------------------------------------------------------------
// Iallgather
// ---------------------------------------------------------------------

/// Nonblocking allgather: the ring or the rank-ordered multicast
/// exchange, per the communicator's configured algorithm.
#[derive(Debug)]
pub struct IallgatherRequest(Machine<Allgather>);

/// The two allgathers (the paper's §5 future work, many-to-many):
///
/// * the ring — owner-prefixed blocks travel the rank ring, one receive
///   from the predecessor per step, `N-1` steps, each byte crossing every
///   link once;
/// * the multicast exchange — every rank multicasts its block **once**,
///   in rank order: a rank receives each lower rank's block in turn,
///   then multicasts its own, so `N` multicasts replace `N(N-1)`
///   point-to-point transfers. The ordering is the paper's §4 safety
///   argument: rank `i+1` cannot multicast before it received rank `i`'s
///   block, so receivers are provably inside the collective.
#[derive(Debug)]
struct Allgather {
    /// The ring, or else the rank-ordered multicast.
    ring: bool,
    tag: Tag,
    /// Every rank's block; this rank's own is in place from the start.
    out: Vec<Vec<u8>>,
    /// Ring: blocks still to come. Multicast: the rank whose turn it is.
    step: usize,
}

impl IallgatherRequest {
    pub(crate) fn new<C: Comm>(
        c: &mut C,
        algo: AllgatherAlgorithm,
        tags: OpTags,
        mine: &[u8],
    ) -> Self {
        // GatherBcast has no nonblocking shape of its own; the ring
        // produces the identical result.
        let ring = algo != AllgatherAlgorithm::Multicast;
        let mut out = vec![Vec::new(); c.size()];
        out[c.rank()] = mine.to_vec();
        let phases = Allgather {
            ring,
            tag: tags.tag(if ring { Phase::Exchange } else { Phase::Data }),
            out,
            step: 0,
        };
        IallgatherRequest(Machine::start(c, phases))
    }
}

impl Allgather {
    /// Walk the ranks in order from the current turn: multicast our own
    /// block when its turn comes, post the next other rank's receive, or
    /// finish.
    fn take_turns<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<Vec<u8>>> {
        let rank = c.rank();
        while self.step < self.out.len() {
            if self.step != rank {
                return Next::Recv(c.post_recv(Some(self.step), self.tag));
            }
            c.mcast_kind(self.tag, MsgKind::Data, &Bytes::from(&self.out[rank]));
            self.step += 1;
        }
        Next::Done(mem::take(&mut self.out))
    }
}

impl Phases for Allgather {
    type Output = Vec<Vec<u8>>;

    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<Vec<u8>>> {
        let (n, rank) = (c.size(), c.rank());
        if n == 1 {
            return Next::Done(mem::take(&mut self.out));
        }
        if !self.ring {
            return self.take_turns(c);
        }
        let mine = &self.out[rank];
        let mut own = Vec::with_capacity(4 + mine.len());
        own.extend_from_slice(&(rank as u32).to_le_bytes());
        own.extend_from_slice(mine);
        c.send_kind((rank + 1) % n, self.tag, MsgKind::Data, &Bytes::from(own));
        self.step = n - 1;
        Next::Recv(c.post_recv(Some((rank + n - 1) % n), self.tag))
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Vec<Vec<u8>>> {
        if !self.ring {
            self.out[self.step] = m.into_vec();
            self.step += 1;
            return self.take_turns(c);
        }
        let (n, rank) = (c.size(), c.rank());
        let next = (rank + 1) % n;
        let owner = u32::from_le_bytes(m.payload[0..4].try_into().unwrap()) as usize;
        // Forward by identity, not arrival order: a NACK-recovered block
        // completes after blocks sent later, so every block travels on
        // except the successor's own, which it started with.
        if owner != next {
            c.send_kind(next, self.tag, MsgKind::Data, &m.payload);
        }
        self.out[owner] = m.payload[4..].to_vec();
        self.step -= 1;
        if self.step == 0 {
            return Next::Done(mem::take(&mut self.out));
        }
        Next::Recv(c.post_recv(Some((rank + n - 1) % n), self.tag))
    }
}

impl CollRequest for IallgatherRequest {
    type Output = Vec<Vec<u8>>;

    fn poll_claimed<C: Comm>(&mut self, c: &mut C) -> Result<bool, RecvError> {
        self.0.poll_claimed(c)
    }

    fn take_output(&mut self) -> Vec<Vec<u8>> {
        self.0.take_output()
    }

    fn pending(&self) -> Option<RecvReq> {
        self.0.pending()
    }

    fn claim_step(&mut self) -> &mut dyn ClaimStep {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags::OpCode;
    use mmpi_transport::run_mem_world;

    #[test]
    fn ibarrier_completes_everywhere() {
        for n in [1usize, 2, 5, 8] {
            let out = run_mem_world(n, 0, |mut c| {
                let req = IbarrierRequest::new(&mut c, OpTags::new(OpCode::Barrier, 0));
                req.wait(&mut c).is_ok()
            });
            assert!(out.iter().all(|&ok| ok), "n={n}");
        }
    }

    #[test]
    fn ibcast_matches_blocking_for_all_shapes() {
        for algo in [
            BcastAlgorithm::McastBinary,
            BcastAlgorithm::MpichBinomial,
            BcastAlgorithm::ScatterAllgather,
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
                        let req = IbcastRequest::new(
                            &mut c,
                            algo,
                            Duration::ZERO,
                            OpTags::new(OpCode::Bcast, 0),
                            2 % n,
                            buf,
                        );
                        req.wait(&mut c).unwrap()
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
                    let req = IallgatherRequest::new(
                        &mut c,
                        algo,
                        OpTags::new(OpCode::Allgather, 0),
                        &mine,
                    );
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

    #[test]
    fn dropped_machine_cancels_outstanding_receives_via_sink() {
        // Abandoning a half-finished machine must not leak its posted
        // receive: `Drop` pushes it into the endpoint's cancel sink and
        // the next progress pass retires it.
        let out = run_mem_world(2, 0, |mut c| {
            let req = IbarrierRequest::new(&mut c, OpTags::new(OpCode::Barrier, 0));
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
            let mine = [c.rank() as u8; 2];
            let abandoned = IallgatherRequest::new(
                &mut c,
                AllgatherAlgorithm::Ring,
                OpTags::new(OpCode::Allgather, 0),
                &mine,
            );
            assert_eq!(c.outstanding_recvs(), 1);
            drop(abandoned);
            c.progress();
            let after_drop = c.outstanding_recvs();
            // The abandoned op's first-step block is in flight toward the
            // successor, but its op slot is dead; a fresh slot must be
            // unaffected.
            let req = IallgatherRequest::new(
                &mut c,
                AllgatherAlgorithm::Ring,
                OpTags::new(OpCode::Allgather, 1),
                &mine,
            );
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
            let mut a = IbcastRequest::new(
                &mut c,
                BcastAlgorithm::McastBinary,
                Duration::ZERO,
                OpTags::new(OpCode::Bcast, 0),
                0,
                bcast_buf,
            );
            let mine = [c.rank() as u8; 2];
            let mut b = IallgatherRequest::new(
                &mut c,
                AllgatherAlgorithm::Ring,
                OpTags::new(OpCode::Allgather, 1),
                &mine,
            );
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
