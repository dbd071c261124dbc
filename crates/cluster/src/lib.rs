//! # mmpi-cluster — experiment harness for the `mcast-mpi` reproduction
//!
//! Turns the simulator + collectives into the paper's evaluation: seeded
//! repeated trials of a collective on a chosen fabric and process count
//! ([`experiment`]), order-statistic summaries ([`stats`]), and the
//! definitions of **every figure in the paper** as runnable sweeps with
//! text-table and CSV output ([`figures`]). Experiments can also inject
//! per-link frame loss ([`experiment::Experiment::with_loss`]); the
//! [`experiment::loss_sweep`] table reports median latency next to the
//! drop/NACK/retransmit counters of the recovery protocol.
//!
//! ```
//! use mmpi_cluster::experiment::{run_experiment, Experiment, Fabric, Workload};
//! use mmpi_core::BcastAlgorithm;
//!
//! let exp = Experiment::new(
//!     4,
//!     Fabric::Switch,
//!     Workload::Bcast { algo: BcastAlgorithm::McastBinary, bytes: 2000 },
//! )
//! .with_trials(3);
//! let result = run_experiment(&exp);
//! assert!(result.summary.median > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The harness surfaces errors; the reviewed exceptions carry an
// `#[expect]` at their site (docs/INVARIANTS.md §4).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::todo
)]

pub mod experiment;
pub mod figures;
pub mod stats;

pub use experiment::{
    loss_sweep, render_loss_table, render_scale_table, run_experiment, run_trial, scale_sweep,
    try_run_trial, Experiment, ExperimentResult, Fabric, LossSweepRow, RepairCounters,
    ScaleSweepRow, Workload,
};
pub use figures::{all_figures, render_table, run_figure, write_csv, FigureData, FigureSpec};
pub use stats::Summary;
