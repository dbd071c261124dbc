//! # mmpi-bench — benchmark harness for the `mcast-mpi` reproduction
//!
//! * `cargo run -p mmpi-bench --release --bin figures` regenerates every
//!   figure of the paper (tables + CSV + shape checks).
//! * `cargo bench -p mmpi-bench` runs the two criterion benches that are
//!   not ladder rungs: one group per paper figure, and blocking vs
//!   request-based collectives over `MemComm` (`overlap`). Everything
//!   else is measured by the benchmark ladder (`ladder/`,
//!   `docs/PERFORMANCE.md`).

// Bench *library* code is unsafe-free; the GlobalAlloc instrumentation
// lives in bins/tests, which carry their own SAFETY comments.
#![forbid(unsafe_code)]
