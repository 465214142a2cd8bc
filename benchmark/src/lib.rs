#![warn(missing_docs)]

//! The repository's benchmark: six seeded workloads over the crates'
//! public functions, end-to-end metrics from untraced runs, per-layer
//! metrics and spans from traced ones. See `README.md` in this directory.

pub mod compare;
pub mod harness;
pub mod layers;
pub mod nest;
pub mod report;
pub mod rng;
pub mod serve;
pub mod sim;
pub mod spans;
pub mod spec;
pub mod stats;

use harness::Ctx;

/// A step of a run: measures, checks, and leaves its metrics and gate
/// verdicts in the context.
pub type Step = fn(&mut Ctx);

/// The workloads, in run order: name, the workload itself, and the layer
/// probes a traced run adds after it (the layers that workload's end-to-end
/// number is made of).
pub const WORKLOADS: [(&str, Step, Step); 6] = [
    ("serve-pingpong", serve::pingpong, layers::serve_latency),
    ("serve-saturate", serve::saturate, layers::serve_capacity),
    ("nest-sor", nest::sor, layers::phase_turnaround),
    ("nest-tc", nest::tc, layers::steal_path),
    ("nest-gauss", nest::gauss, layers::body),
    ("sim-paper", sim::paper, layers::simulator),
];
