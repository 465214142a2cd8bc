#![warn(missing_docs)]

//! # afs-metrics — always-on runtime counters
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
//! * [`MetricsSnapshot`] — an on-demand aggregate with an **affinity hit
//!   ratio** (`local / (local + remote)` grabs) and one export format,
//!   versioned JSON ([`MetricsSnapshot::to_json`]).
//! * [`FlightRecorder`] — an always-on black box per pool: bounded rings
//!   of per-phase summary records and recent serve events, dumped to a
//!   timestamped JSON file when a [`Trigger`] fires (watchdog stall,
//!   contained `PhaseError` panic, spawn degradation, shed spike).
//! * [`TelemetryServer`] — a tiny blocking HTTP/1.0 endpoint serving the
//!   JSON routes `/snapshot.json`, `/healthz` and `/tune`, each rendered
//!   fresh per request from the [`TelemetrySource`] its owner passes in.
//!   Started by `LoopServer::builder(..).telemetry(addr)`.

pub mod controllers;
pub mod counters;
pub mod histogram;
pub mod host;
pub mod http;
pub mod pad;
pub mod recorder;
pub mod registry;
pub mod serve;
pub mod snapshot;

pub use controllers::{ControllersSnapshot, SchedControllerSnapshot};
pub use counters::{CounterSnapshot, WaitOutcome, WorkerCounters};
pub use histogram::{AtomicHistogram, HistogramSnapshot, BUCKETS};
pub use host::HostInfo;
pub use http::{get, TelemetryServer, TelemetrySource};
pub use recorder::{FlightRecorder, PhaseRecord, ServeEventKind, ServeRecord, Trigger};
pub use registry::MetricsRegistry;
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
