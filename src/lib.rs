#![warn(missing_docs)]

//! # affinity-sched — facade crate
//!
//! Re-exports the full public API of the affinity loop scheduling library:
//!
//! * [`core`] — scheduling policies (AFS, GSS, factoring,
//!   trapezoid, ...), chunk mathematics, and the paper's analytic results;
//! * [`runtime`] — a real-thread `parallel_for` executor with
//!   pluggable scheduling policies and per-worker queues;
//! * [`sim`] — a discrete-event shared-memory multiprocessor
//!   simulator with calibrated machine models (SGI Iris, BBN Butterfly,
//!   Sequent Symmetry, KSR-1);
//! * [`kernels`] — the paper's five application kernels plus
//!   synthetic imbalance workloads, as real computations and as simulator
//!   workload models;
//! * [`metrics`] — always-on per-worker counters, duration
//!   histograms, one JSON export, the per-pool flight recorder and the
//!   live JSON telemetry endpoint;
//! * [`trace`] — `afs-metrics`' opt-in execution tracing for real runs:
//!   per-worker ring buffers assembled into the same `Timeline` (ASCII
//!   Gantt) the simulator draws, a Chrome trace-event exporter, and
//!   aggregate reports.
//!
//! See the repository README for a tour and `DESIGN.md` for the
//! paper-to-module map.

pub mod apps;

pub use afs_core as core;
pub use afs_kernels as kernels;
pub use afs_metrics as metrics;
pub use afs_metrics::trace;
pub use afs_runtime as runtime;
pub use afs_sim as sim;

/// One-stop prelude: scheduling policies, runtime entry points, simulator
/// machine models, and kernels.
pub mod prelude {
    pub use afs_core::prelude::*;
    pub use afs_kernels::prelude::*;
    pub use afs_metrics::prelude::*;
    pub use afs_metrics::trace::prelude::*;
    pub use afs_runtime::prelude::*;
    pub use afs_sim::prelude::*;
}
