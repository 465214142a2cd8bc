#![warn(missing_docs)]

//! # afs-bench — reproduction and benchmark harness
//!
//! One function per table/figure of the paper (see [`experiments`]); the
//! `repro` binary runs them and prints paper-style rows. EXPERIMENTS.md in
//! the repository root records paper-vs-measured for each.

pub mod ablations;
pub mod adaptive;
pub mod chaos;
pub mod check;
pub mod experiments;
pub mod faults;
pub mod grabs;
pub mod kernels;
pub mod microbench;
pub mod report;
pub mod serve;
pub mod tracing;

pub use experiments::{Experiment, ExperimentResult};
pub use report::render;
