//! Workspace-native correctness tooling for the mcast-mpi repo.
//!
//! **`mmpi-lint`** ([`rules`], [`lexer`], [`config`]) is a
//! repo-specific static analyzer enforcing the invariants in
//! `docs/INVARIANTS.md`: SAFETY comments on every `unsafe`, no wall
//! clock / hash-order iteration / ambient randomness / panics in
//! replay-critical paths. Driven by the checked-in `lint.toml`
//! allowlist; run as `cargo run -p mmpi-analysis --bin mmpi-lint`.
//!
//! Everything here is std-only so the tooling never constrains the
//! toolchain (it must run under miri and whatever CI carries).

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod rules;
