#![warn(missing_docs)]

//! # afs-metrics — always-on runtime counters and hardware perf events
//!
//! The paper's whole argument rests on a quantity the runtime must be able
//! to *observe*: the cost of executing an iteration on a processor that
//! does not hold its data. `afs-trace` reconstructs timelines after a run;
//! this crate is the live side — counters that are always on, cheap enough
//! to leave enabled in every benchmark:
//!
//! * [`MetricsRegistry`] — one [`CachePadded`] block of relaxed atomic
//!   counters per worker ([`WorkerCounters`]: grabs by kind, iterations,
//!   CAS retries, grab-ahead stash hits, barrier wait outcomes) plus two
//!   shared log₂ histograms (phase duration, region makespan). Counters
//!   are **single-writer**: worker `w` is the only thread that ever writes
//!   slot `w` (the same lane discipline `afs-trace` uses), so relaxed
//!   plain stores are exact, not approximate.
//! * [`perf`] — a Linux-gated `perf_event_open(2)` wrapper (raw syscall,
//!   no external crates) sampling per-worker LLC misses, dTLB misses and
//!   cpu-migrations, so core pinning's affinity claim is physically
//!   measurable. Degrades gracefully to counters-only when the kernel
//!   refuses (perf_event_paranoid, containers, non-Linux).
//! * [`MetricsSnapshot`] — an on-demand aggregate with an **affinity hit
//!   ratio** (`local / (local + remote)` grabs) and exporters: Prometheus
//!   text exposition format and JSON.

pub mod controllers;
pub mod counters;
pub mod histogram;
pub mod host;
pub mod pad;
pub mod perf;
pub mod registry;
pub mod serve;
pub mod snapshot;

pub use controllers::{ControllersSnapshot, SchedControllerSnapshot};
pub use counters::{CounterSnapshot, WaitOutcome, WorkerCounters};
pub use histogram::{AtomicHistogram, HistogramSnapshot, BUCKETS};
pub use host::HostInfo;
pub use perf::{PerfGroup, PerfSample};
pub use registry::{MetricsRegistry, PerfStatus};
pub use serve::{ServeSnapshot, TenantServeSnapshot};
pub use snapshot::{MetricsSnapshot, WorkerSnapshot, METRICS_SCHEMA_VERSION};

pub use pad::CachePadded;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::counters::{WaitOutcome, WorkerCounters};
    pub use crate::host::HostInfo;
    pub use crate::pad::CachePadded;
    pub use crate::registry::MetricsRegistry;
    pub use crate::snapshot::MetricsSnapshot;
}
