//! Shared pieces of the tamperscope benchmark: workload definitions, input
//! synthesis, child-process measurement, statistics and the span recorder.
//!
//! Two binaries use this library. `tamperbench` times the real
//! `tamperscope` CLI as a child process (end-to-end metrics); `probes`
//! times calls into each crate's public functions in process (per-layer
//! metrics). See `README.md` beside this package for the full contract.

pub mod child;
pub mod spec;
pub mod stats;
pub mod synth;
pub mod trace;
