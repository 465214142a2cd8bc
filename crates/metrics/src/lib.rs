#![warn(missing_docs)]

//! # afs-metrics — runtime telemetry: counters, flight recorder, trace
//!
//! The paper's whole argument rests on a quantity the runtime must be able
//! to *observe*: the cost of executing an iteration on a processor that
//! does not hold its data. This crate holds every way the real-thread
//! runtime records itself — the always-on side, cheap enough to leave
//! enabled in every benchmark, and the opt-in per-grab [`trace`]:
//!
//! * [`MetricsRegistry`] — one [`CachePadded`] block of relaxed atomic
//!   counters per worker ([`WorkerCounters`]: grabs by kind, iterations,
//!   CAS retries, grab-ahead stash hits, barrier wait outcomes) plus two
//!   shared log₂ histograms (phase duration, region makespan). Counters
//!   are **single-writer**: worker `w` is the only thread that ever writes
//!   slot `w` (the same lane discipline the trace uses), so relaxed
//!   plain stores are exact, not approximate.
//! * [`MetricsSnapshot`] — an on-demand aggregate with an **affinity hit
//!   ratio** (`local / (local + remote)` grabs) and one export format,
//!   versioned JSON ([`MetricsSnapshot::to_json`]).
//! * [`FlightRecorder`] — an always-on black box per pool: per-worker
//!   lanes of per-phase summary records and a ring of recent serve
//!   events, dumped to a timestamped JSON file when a [`Trigger`] fires
//!   (watchdog stall, contained `PhaseError` panic, spawn degradation,
//!   shed spike).
//! * [`TelemetryServer`] — a tiny blocking HTTP/1.0 endpoint serving the
//!   JSON routes `/snapshot.json`, `/healthz` and `/tune`, each rendered
//!   fresh per request from the [`TelemetrySource`] its owner passes in.
//!   Started by `LoopServer::builder(..).telemetry(addr)`.
//! * [`trace`] — per-worker event recording for one traced run
//!   ([`trace::TraceSink`]), assembled afterwards into a
//!   [`trace::Timeline`], a Chrome trace or a [`trace::TraceReport`].

// The trace's parts, public through `trace`, and the one ring its lanes
// and the flight recorder's serve events share.
mod chrome;
mod event;
mod report;
mod ring;
mod sink;
mod timeline;

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
pub mod trace;

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
