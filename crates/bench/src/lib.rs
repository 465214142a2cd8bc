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
pub mod report;
pub mod serve;
pub mod tracing;

pub use experiments::{Experiment, ExperimentResult};
pub use report::render;

#[cfg(test)]
mod tests {
    /// Whether the bench document `json` passes [`crate::check::validate`],
    /// the one gate `repro --bench-*` and `--check-bench` apply.
    pub(crate) fn passes(json: &str) -> bool {
        let doc = afs_core::json::parse(json).unwrap();
        crate::check::validate(&doc).is_ok()
    }
}
