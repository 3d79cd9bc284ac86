//! # aorta-bench — the reproduction harness
//!
//! One function per table/figure of the paper's §6, each returning
//! structured rows that the `repro` binary prints; [`artifact`] renders
//! and writes the committed `BENCH_*.json` files. See `DESIGN.md`
//! (experiment index) and `EXPERIMENTS.md` (paper-vs-measured) at the
//! repository root.

#![warn(missing_docs)]

pub mod artifact;
pub mod experiments;
pub mod table;
