//! The user-facing [`Communicator`]: MPI-flavoured collective operations
//! over any [`Comm`] backend.
//!
//! A communicator tracks the operation sequence number that keeps the tag
//! space of successive collectives disjoint, and carries the algorithm
//! selection (which broadcast/barrier implementation to use). All ranks
//! must issue collective calls in the same order — the MPI "safe program"
//! requirement the paper's §4 discusses; the deterministic tag scheme
//! depends on it.

use mmpi_transport::{Comm, RecvError};

use crate::barrier::{barrier, BarrierAlgorithm};
use crate::bcast::{bcast, BcastAlgorithm, BcastConfig};
use crate::coll::{self, Combine};
use crate::request::{CollRequest, IallgatherRequest, IbarrierRequest, IbcastRequest};
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
    op_seq: u32,
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
            comm,
            op_seq: 0,
            bcast_algo: BcastAlgorithm::MpichBinomial,
            barrier_algo: BarrierAlgorithm::Mpich,
            bcast_cfg: BcastConfig::default(),
            allgather_algo: AllgatherAlgorithm::GatherBcast,
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
        let tags = self.next_tags(OpCode::Bcast);
        let algo = self.bcast_algo;
        let cfg = self.bcast_cfg.clone();
        bcast(&mut self.comm, algo, &cfg, tags, root, buf)
    }

    /// MPI_Bcast with an explicit algorithm (still consumes one op slot,
    /// so mixed-algorithm programs remain tag-safe).
    pub fn bcast_with(
        &mut self,
        algo: BcastAlgorithm,
        root: usize,
        buf: &mut Vec<u8>,
    ) -> Result<(), RecvError> {
        let tags = self.next_tags(OpCode::Bcast);
        let cfg = self.bcast_cfg.clone();
        bcast(&mut self.comm, algo, &cfg, tags, root, buf)
    }

    /// MPI_Ibcast: nonblocking broadcast. Consumes one op slot like
    /// [`Communicator::bcast`]; the returned state machine is driven with
    /// [`crate::request::CollRequest::poll`] against the transport
    /// (`comm.transport_mut()`) and resolves to the broadcast buffer.
    /// Supported shapes: the MPICH binomial tree for
    /// [`BcastAlgorithm::MpichBinomial`], the scatter + ring-allgather for
    /// [`BcastAlgorithm::ScatterAllgather`], and the paper's scouts and
    /// one multicast for every other selector. For `MpichBinomial`,
    /// `McastBinary` and `ScatterAllgather` this is the machine the
    /// blocking [`Communicator::bcast`] waits on.
    pub fn ibcast(&mut self, root: usize, buf: Vec<u8>) -> IbcastRequest {
        let tags = self.next_tags(OpCode::Bcast);
        let algo = self.bcast_algo;
        let layer = self.bcast_cfg.mpich_layer_overhead;
        IbcastRequest::new(&mut self.comm, algo, layer, tags, root, buf)
    }

    /// MPI_Barrier: block until every rank has entered the barrier.
    pub fn barrier(&mut self) -> Result<(), RecvError> {
        let tags = self.next_tags(OpCode::Barrier);
        let algo = self.barrier_algo;
        let layer = self.bcast_cfg.mpich_layer_overhead;
        barrier(&mut self.comm, algo, layer, tags)
    }

    /// MPI_Barrier with an explicit algorithm.
    pub fn barrier_with(&mut self, algo: BarrierAlgorithm) -> Result<(), RecvError> {
        let tags = self.next_tags(OpCode::Barrier);
        let layer = self.bcast_cfg.mpich_layer_overhead;
        barrier(&mut self.comm, algo, layer, tags)
    }

    /// MPI_Ibarrier: nonblocking barrier (the paper's scout-reduce +
    /// multicast-release shape, regardless of the blocking selector).
    /// Consumes one op slot.
    pub fn ibarrier(&mut self) -> IbarrierRequest {
        let tags = self.next_tags(OpCode::Barrier);
        IbarrierRequest::new(&mut self.comm, tags)
    }

    /// MPI_Gather: collect every rank's buffer at `root` (returns `Some`
    /// on the root).
    pub fn gather(&mut self, root: usize, send: &[u8]) -> Result<Option<Vec<Vec<u8>>>, RecvError> {
        let tags = self.next_tags(OpCode::Gather);
        coll::gather(&mut self.comm, tags, root, send)
    }

    /// MPI_Scatter: distribute per-rank buffers from `root`.
    pub fn scatter(
        &mut self,
        root: usize,
        chunks: Option<&[Vec<u8>]>,
    ) -> Result<Vec<u8>, RecvError> {
        let tags = self.next_tags(OpCode::Scatter);
        coll::scatter(&mut self.comm, tags, root, chunks)
    }

    /// MPI_Reduce: combine every rank's buffer at `root` (returns `Some`
    /// on the root).
    pub fn reduce(
        &mut self,
        root: usize,
        data: Vec<u8>,
        combine: &Combine,
    ) -> Result<Option<Vec<u8>>, RecvError> {
        let tags = self.next_tags(OpCode::Reduce);
        coll::reduce(&mut self.comm, tags, root, data, combine)
    }

    /// MPI_Allreduce: reduce to rank 0, then broadcast the result with the
    /// configured broadcast algorithm — so multicast accelerates this
    /// many-to-many operation too (the paper's future-work direction).
    pub fn allreduce(&mut self, data: Vec<u8>, combine: &Combine) -> Result<Vec<u8>, RecvError> {
        let tags = self.next_tags(OpCode::Allreduce);
        let reduced = coll::reduce(&mut self.comm, tags, 0, data, combine)?;
        let mut buf = reduced.unwrap_or_default();
        let algo = self.bcast_algo;
        let cfg = self.bcast_cfg.clone();
        bcast(&mut self.comm, algo, &cfg, tags, 0, &mut buf)?;
        Ok(buf)
    }

    /// MPI_Allgather: gather everyone's buffer everywhere, with the
    /// configured [`AllgatherAlgorithm`].
    pub fn allgather(&mut self, send: &[u8]) -> Result<Vec<Vec<u8>>, RecvError> {
        let algo = self.allgather_algo;
        let tags = self.next_tags(OpCode::Allgather);
        match algo {
            AllgatherAlgorithm::GatherBcast => self.allgather_gather_bcast(tags, send),
            machine => {
                IallgatherRequest::new(&mut self.comm, machine, tags, send).wait(&mut self.comm)
            }
        }
    }

    /// MPI_Iallgather: nonblocking allgather. Consumes one op slot; the
    /// returned machine (see `crate::request`) is the one
    /// [`Communicator::allgather`] waits on. Uses the ring for
    /// [`AllgatherAlgorithm::Ring`] and [`AllgatherAlgorithm::GatherBcast`]
    /// (the latter has no nonblocking shape of its own; the result is
    /// identical), and the rank-ordered multicast exchange for
    /// [`AllgatherAlgorithm::Multicast`].
    pub fn iallgather(&mut self, send: &[u8]) -> IallgatherRequest {
        let algo = self.allgather_algo;
        let tags = self.next_tags(OpCode::Allgather);
        IallgatherRequest::new(&mut self.comm, algo, tags, send)
    }

    /// Gather-to-0 + broadcast of the framed concatenation.
    fn allgather_gather_bcast(
        &mut self,
        tags: OpTags,
        send: &[u8],
    ) -> Result<Vec<Vec<u8>>, RecvError> {
        let n = self.comm.size();
        let gathered = coll::gather(&mut self.comm, tags, 0, send)?;
        // Frame the concatenation so variable-length buffers survive.
        let mut buf = gathered
            .map(|parts| {
                let mut enc = Vec::new();
                for p in &parts {
                    enc.extend_from_slice(&(p.len() as u32).to_le_bytes());
                    enc.extend_from_slice(p);
                }
                enc
            })
            .unwrap_or_default();
        let algo = self.bcast_algo;
        let cfg = self.bcast_cfg.clone();
        bcast(&mut self.comm, algo, &cfg, tags, 0, &mut buf)?;
        // Decode.
        let mut out = Vec::with_capacity(n);
        let mut off = 0usize;
        while off < buf.len() {
            let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
            off += 4;
            out.push(buf[off..off + len].to_vec());
            off += len;
        }
        assert_eq!(out.len(), n, "allgather decoded wrong part count");
        Ok(out)
    }

    /// MPI_Alltoall: personalized exchange; `sends[j]` goes to rank `j`.
    pub fn alltoall(&mut self, sends: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, RecvError> {
        let tags = self.next_tags(OpCode::Alltoall);
        coll::alltoall(&mut self.comm, tags, sends)
    }

    /// MPI_Scan: inclusive prefix combine along ranks.
    pub fn scan(&mut self, data: Vec<u8>, combine: &Combine) -> Result<Vec<u8>, RecvError> {
        let tags = self.next_tags(OpCode::Scan);
        coll::scan(&mut self.comm, tags, data, combine)
    }
}
