//! # mmpi-bench — benchmark harness for the `mcast-mpi` reproduction
//!
//! * `cargo run -p mmpi-bench --release --bin figures` regenerates every
//!   figure of the paper (tables + CSV + shape checks).
//! * Performance is measured by the benchmark ladder (`ladder/`,
//!   `docs/PERFORMANCE.md`); `tests/alloc_gauge.rs` holds the allocation
//!   budget of the delivery path as exact counts.

// Bench *library* code is unsafe-free; the GlobalAlloc instrumentation
// lives in bins/tests, which carry their own SAFETY comments.
#![forbid(unsafe_code)]
