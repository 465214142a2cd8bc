#![warn(missing_docs)]

//! # afs-scope — live observability for the affinity-scheduling runtime
//!
//! Eight PRs of counters, traces and verdicts are only *operable* if they
//! can be read while the system runs and captured when it fails. This
//! crate is that layer, in three pillars (std-only, like the rest of the
//! workspace):
//!
//! * [`TelemetryServer`] — a tiny blocking HTTP/1.0 endpoint serving
//!   `GET /metrics` (Prometheus text, rendered from a fresh
//!   [`afs_metrics::MetricsSnapshot`] per scrape), `/snapshot.json`,
//!   `/healthz` (watchdog stall state + pool liveness), and `/tune` (the
//!   adaptive controller's `(k, b)` trajectory). Started via
//!   `LoopServer::builder().telemetry(addr)` or `repro --telemetry ADDR`.
//! * [`FlightRecorder`] — an always-on black box: bounded rings of
//!   per-phase summary records and recent serve events, dumped to a
//!   timestamped JSON file when a [`Trigger`] fires (watchdog stall,
//!   contained `PhaseError` panic, spawn degradation, shed spike).
//! * [`promcheck`] — a Prometheus text-exposition conformance checker the
//!   tests run against both the file export and a live scrape, so the
//!   hand-rolled exporter cannot silently drift from what scrapers parse.
//!
//! The [`mod@hub`] module carries the process-global registration path that
//! lets `repro --telemetry` observe every pool a bench run creates without
//! threading handles through bench signatures.

pub mod http;
pub mod hub;
pub mod promcheck;
pub mod recorder;

pub use http::{get, TelemetryServer, TelemetrySource};
pub use hub::{hub, TelemetryHub};
pub use promcheck::check_exposition;
pub use recorder::{
    clear_dumps, FlightRecorder, PhaseRecord, ServeEventKind, ServeRecord, Trigger,
};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::http::{TelemetryServer, TelemetrySource};
    pub use crate::recorder::{FlightRecorder, Trigger};
}
