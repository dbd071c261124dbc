//! # mmpi-core — MPI collective operations over IP multicast
//!
//! The primary contribution of *"MPI Collective Operations over IP
//! Multicast"* (Apon, Chen, Carrasco — IPPS 2000), reimplemented as a
//! library over the pluggable [`mmpi_transport::Comm`] interface.
//!
//! ## What the paper does
//!
//! IP multicast lets one send reach every member of a group — but it is
//! unreliable: a receiver that is not ready loses the datagram. The paper
//! re-implements `MPI_Bcast` and `MPI_Barrier` directly over UDP/IP
//! multicast, using tiny **scout** messages to prove all receivers are
//! ready before the single multicast send:
//!
//! * **binary algorithm** — scouts reduced to the root along a binomial
//!   tree (`ceil(log2 N)` rounds), then one multicast;
//! * **linear algorithm** — scouts sent straight to the root (`N-1`
//!   sequential receives), then one multicast.
//!
//! Against MPICH's binomial broadcast tree the data crosses the wire once
//! instead of `N-1` times, which wins once the message outweighs the
//! scout overhead (the paper's ~1 kB crossover).
//!
//! ## Quick start
//!
//! ```
//! use mmpi_core::{BcastAlgorithm, Communicator};
//! use mmpi_transport::run_mem_world;
//!
//! let outputs = run_mem_world(4, 0, |c| {
//!     let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::McastBinary);
//!     let mut buf = if comm.rank() == 0 { b"hello".to_vec() } else { Vec::new() };
//!     comm.bcast(0, &mut buf);
//!     comm.barrier();
//!     buf
//! });
//! assert!(outputs.iter().all(|b| b == b"hello"));
//! ```
//!
//! Swap `run_mem_world` for [`mmpi_transport::run_sim_world`] to execute
//! the same program on the simulated hub/switch testbed, or
//! [`mmpi_transport::run_udp_world`] for real IP multicast sockets. On a
//! fabric with injected loss (`FaultParams` in `mmpi-netsim`), enable
//! the transport's NACK/retransmit repair loop
//! ([`mmpi_transport::RepairConfig`]) and the same collectives complete
//! with correct results — see `docs/PROTOCOL.md` for the recovery
//! protocol.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Collectives surface errors; the reviewed exceptions carry an
// `#[expect]` at their site (docs/INVARIANTS.md §4).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::todo
)]

pub mod barrier;
pub mod bcast;
pub mod bcast_ext;
pub mod coll;
pub mod communicator;
pub mod cost;
pub mod group;
pub mod many_to_many;
pub mod request;
mod ring;
pub mod shrink;
pub mod tags;
mod tree;

pub use barrier::BarrierAlgorithm;
pub use bcast::{BcastAlgorithm, BcastConfig};
pub use coll::{combine_u64_max, combine_u64_sum, Combine};
pub use communicator::{AllgatherAlgorithm, Communicator};
pub use group::GroupComm;
pub use request::{CollRequest, IallgatherRequest, IbarrierRequest, IbcastRequest};
pub use tags::{OpCode, OpTags, Phase};

/// Re-export of the transport's typed unrecoverable-loss error — what
/// every collective's `Result` carries.
pub use mmpi_transport::RecvError;

/// Unwrap a collective result at a program boundary — examples, benches,
/// and experiment drivers, where an unrecoverable loss has no sane
/// continuation. The panic message carries the error's source rank, tag,
/// and eviction floor (via [`RecvError`]'s `Display`). Library code
/// propagates the typed error instead of calling this.
#[expect(
    clippy::panic,
    reason = "reviewed: the program-boundary unwrap of a collective"
)]
pub fn expect_coll<T>(result: Result<T, RecvError>) -> T {
    result.unwrap_or_else(|e| panic!("collective failed with unrecoverable loss: {e}"))
}
