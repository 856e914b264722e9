//! Benchmark harness support: shared helpers for the table- and
//! figure-regeneration benches (see the `benches/` directory and
//! EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frontier;
pub mod harness;
pub mod speedup;
