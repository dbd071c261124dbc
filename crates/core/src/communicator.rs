//! The user-facing [`Communicator`]: MPI-flavoured collective operations
//! over any [`Comm`] backend.
//!
//! A communicator tracks the operation sequence number that keeps the tag
//! space of successive collectives disjoint, and carries the algorithm
//! selection (which broadcast/barrier implementation to use). All ranks
//! must issue collective calls in the same order — the MPI "safe program"
//! requirement the paper's §4 discusses; the deterministic tag scheme
//! depends on it.

use std::mem;

use mmpi_transport::{Comm, RecvError};

use crate::barrier::{Barrier, BarrierAlgorithm};
use crate::bcast::{Bcast, BcastAlgorithm, BcastConfig};
use crate::coll::{Combine, Gather, Reduce, ThenBcast};
use crate::many_to_many::Allgather;
use crate::request::{CollRequest, IallgatherRequest, IbarrierRequest, IbcastRequest, Machine};
use crate::tags::{OpCode, OpTags};

/// Allgather algorithm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllgatherAlgorithm {
    /// Gather everything to rank 0, then broadcast the concatenation with
    /// the communicator's broadcast algorithm (multicast-assisted).
    GatherBcast,
    /// Classic ring: `N-1` steps, bandwidth-optimal point-to-point.
    Ring,
    /// Each rank multicasts its block once, in rank order — the paper's
    /// many-to-many future-work direction (`N` multicasts total).
    Multicast,
}

/// Collective operations bound to a transport endpoint.
pub struct Communicator<C: Comm> {
    comm: C,
    pub(crate) op_seq: u32,
    /// Broadcast algorithm used by [`Communicator::bcast`].
    pub bcast_algo: BcastAlgorithm,
    /// Barrier algorithm used by [`Communicator::barrier`].
    pub barrier_algo: BarrierAlgorithm,
    /// Tuning for broadcast variants (auto crossover, ack timeouts).
    pub bcast_cfg: BcastConfig,
    /// Allgather algorithm used by [`Communicator::allgather`].
    pub allgather_algo: AllgatherAlgorithm,
}

impl<C: Comm> Communicator<C> {
    /// Wrap a transport endpoint with the default (paper) algorithms:
    /// multicast-binary broadcast and multicast barrier.
    pub fn new(comm: C) -> Self {
        Communicator {
            comm,
            op_seq: 0,
            bcast_algo: BcastAlgorithm::McastBinary,
            barrier_algo: BarrierAlgorithm::McastBinary,
            bcast_cfg: BcastConfig::default(),
            allgather_algo: AllgatherAlgorithm::Multicast,
        }
    }

    /// Wrap with the MPICH baseline algorithms (point-to-point only).
    pub fn new_mpich(comm: C) -> Self {
        Communicator {
            bcast_algo: BcastAlgorithm::MpichBinomial,
            barrier_algo: BarrierAlgorithm::Mpich,
            allgather_algo: AllgatherAlgorithm::GatherBcast,
            ..Communicator::new(comm)
        }
    }

    /// Builder-style algorithm override.
    pub fn with_bcast(mut self, algo: BcastAlgorithm) -> Self {
        self.bcast_algo = algo;
        self
    }

    /// Builder-style barrier override.
    pub fn with_barrier(mut self, algo: BarrierAlgorithm) -> Self {
        self.barrier_algo = algo;
        self
    }

    /// Builder-style allgather override.
    pub fn with_allgather(mut self, algo: AllgatherAlgorithm) -> Self {
        self.allgather_algo = algo;
        self
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// Borrow the underlying transport (e.g. for timing queries).
    pub fn transport(&self) -> &C {
        &self.comm
    }

    /// Mutably borrow the underlying transport.
    pub fn transport_mut(&mut self) -> &mut C {
        &mut self.comm
    }

    /// Unwrap the transport.
    pub fn into_transport(self) -> C {
        self.comm
    }

    fn next_tags(&mut self, op: OpCode) -> OpTags {
        let tags = OpTags::new(op, self.op_seq);
        self.op_seq = self.op_seq.wrapping_add(1);
        tags
    }

    /// MPI_Bcast: broadcast `buf` from `root` to all ranks, using the
    /// communicator's configured algorithm.
    pub fn bcast(&mut self, root: usize, buf: &mut Vec<u8>) -> Result<(), RecvError> {
        self.bcast_with(self.bcast_algo, root, buf)
    }

    /// MPI_Bcast with an explicit algorithm (still consumes one op slot,
    /// so mixed-algorithm programs remain tag-safe).
    ///
    /// On the root, `buf` is the message; on other ranks its contents are
    /// replaced with the broadcast payload. Like `MPI_Bcast`,
    /// [`BcastAlgorithm::Auto`] requires every rank to know the message
    /// size: pass a `buf` of the correct length on receivers too (MPI
    /// programs know the count everywhere). The explicit algorithms are
    /// lenient — a receiver may pass an empty buffer.
    pub fn bcast_with(
        &mut self,
        algo: BcastAlgorithm,
        root: usize,
        buf: &mut Vec<u8>,
    ) -> Result<(), RecvError> {
        let tags = self.next_tags(OpCode::Bcast);
        let c = &mut self.comm;
        let phases = Bcast::new(c, algo, &self.bcast_cfg, tags, root, mem::take(buf));
        // On an error `buf` is left empty.
        *buf = IbcastRequest::new(c, phases).wait(c)?;
        Ok(())
    }

    /// MPI_Ibcast: nonblocking broadcast. Consumes one op slot like
    /// [`Communicator::bcast`]; the returned state machine is driven with
    /// [`crate::request::CollRequest::poll`] against the transport
    /// (`comm.transport_mut()`) and resolves to the broadcast buffer. It
    /// is the configured algorithm's machine — the one
    /// [`Communicator::bcast`] waits on, `Auto`'s lowering included.
    pub fn ibcast(&mut self, root: usize, buf: Vec<u8>) -> IbcastRequest {
        let tags = self.next_tags(OpCode::Bcast);
        let phases = Bcast::new(
            &self.comm,
            self.bcast_algo,
            &self.bcast_cfg,
            tags,
            root,
            buf,
        );
        IbcastRequest::new(&mut self.comm, phases)
    }

    /// MPI_Barrier: block until every rank has entered the barrier.
    pub fn barrier(&mut self) -> Result<(), RecvError> {
        self.barrier_with(self.barrier_algo)
    }

    /// MPI_Barrier with an explicit algorithm.
    pub fn barrier_with(&mut self, algo: BarrierAlgorithm) -> Result<(), RecvError> {
        self.ibarrier_with(algo).wait(&mut self.comm)
    }

    /// MPI_Ibarrier: nonblocking barrier in the configured algorithm —
    /// the machine [`Communicator::barrier`] waits on. Consumes one op
    /// slot.
    pub fn ibarrier(&mut self) -> IbarrierRequest {
        self.ibarrier_with(self.barrier_algo)
    }

    fn ibarrier_with(&mut self, algo: BarrierAlgorithm) -> IbarrierRequest {
        let tags = self.next_tags(OpCode::Barrier);
        let layer = self.bcast_cfg.mpich_layer_overhead;
        IbarrierRequest::new(&mut self.comm, Barrier::new(algo, layer, tags))
    }

    /// MPI_Gather: collect every rank's buffer at `root` (returns `Some`
    /// on the root).
    pub fn gather(&mut self, root: usize, send: &[u8]) -> Result<Option<Vec<Vec<u8>>>, RecvError> {
        let tags = self.next_tags(OpCode::Gather);
        Machine::run(&mut self.comm, Gather::new(tags, root, send))
    }

    /// MPI_Reduce: combine every rank's buffer at `root` (returns `Some`
    /// on the root).
    pub fn reduce(
        &mut self,
        root: usize,
        data: Vec<u8>,
        combine: &'static Combine,
    ) -> Result<Option<Vec<u8>>, RecvError> {
        let tags = self.next_tags(OpCode::Reduce);
        Machine::run(&mut self.comm, Reduce::new(tags, root, data, combine))
    }

    /// MPI_Allreduce: reduce to rank 0, then broadcast the result with the
    /// configured broadcast algorithm — so multicast accelerates this
    /// many-to-many operation too (the paper's future-work direction).
    pub fn allreduce(
        &mut self,
        data: Vec<u8>,
        combine: &'static Combine,
    ) -> Result<Vec<u8>, RecvError> {
        let tags = self.next_tags(OpCode::Allreduce);
        let reduce = Reduce::new(tags, 0, data, combine);
        let bcast = (self.bcast_algo, &self.bcast_cfg);
        let phases = ThenBcast::new(reduce, bcast, tags, Option::unwrap_or_default);
        Machine::run(&mut self.comm, phases)
    }

    /// MPI_Allgather: gather everyone's buffer everywhere, with the
    /// configured [`AllgatherAlgorithm`].
    pub fn allgather(&mut self, send: &[u8]) -> Result<Vec<Vec<u8>>, RecvError> {
        self.iallgather(send).wait(&mut self.comm)
    }

    /// MPI_Iallgather: nonblocking allgather in the configured
    /// [`AllgatherAlgorithm`] — the machine [`Communicator::allgather`]
    /// waits on; `GatherBcast`'s broadcast stage runs the configured
    /// broadcast's machine. Consumes one op slot.
    pub fn iallgather(&mut self, send: &[u8]) -> IallgatherRequest {
        let tags = self.next_tags(OpCode::Allgather);
        let bcast = (self.bcast_algo, &self.bcast_cfg);
        let phases = Allgather::new(&self.comm, self.allgather_algo, bcast, tags, send);
        IallgatherRequest::new(&mut self.comm, phases)
    }
}
