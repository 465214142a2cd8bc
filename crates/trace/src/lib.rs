#![warn(missing_docs)]

//! # afs-trace — low-overhead execution tracing for real-thread runs
//!
//! The simulator can already show *where time goes* (per-processor
//! timelines, lock serialization, idle tails); this crate brings the same
//! observability to real executions on `afs-runtime`:
//!
//! * [`sink::TraceSink`] — per-worker, allocation-free event recording.
//!   Each worker owns a fixed-capacity ring buffer ([`ring::EventRing`]) of
//!   timestamped [`event::Event`]s, so the hot grab path records with **no
//!   cross-thread synchronization**: one branch, one monotonic clock read,
//!   one slot write.
//! * [`timeline::to_timeline`] — assembles recorded events into the *same*
//!   [`afs_sim::timeline::Timeline`] structure the simulator produces, so
//!   the existing ASCII Gantt renderer (and any analysis built on it) works
//!   unchanged on real runs — enabling direct sim-vs-real comparison.
//! * [`chrome::chrome_trace`] — a Chrome trace-event JSON exporter
//!   (loadable in `chrome://tracing` / Perfetto), one lane per worker, with
//!   steal events drawn as flow arrows from victim to thief.
//! * [`report::TraceReport`] — aggregate post-run analysis: per-worker
//!   busy/sync/wait/idle breakdown, log₂-bucket latency histograms for
//!   chunk execution and grabs, and a who-stole-from-whom matrix.
//!
//! Recording is optional and zero-cost when absent: the runtime only emits
//! events when a sink is attached, and a sink can additionally be switched
//! off at run time (`set_enabled(false)` turns [`sink::TraceSink::record`]
//! into an early return before the clock is read).
//!
//! ```
//! use afs_trace::prelude::*;
//!
//! let sink = TraceSink::new(2);
//! // Worker 0 records its own lane; no locks involved.
//! sink.record(0, EventKind::GrabBegin);
//! sink.record(0, EventKind::GrabLocal { queue: 0, lo: 0, hi: 8 });
//! sink.record(0, EventKind::ChunkStart { queue: 0, lo: 0, hi: 8 });
//! sink.record(0, EventKind::ChunkEnd);
//! let tl = to_timeline(&sink);
//! assert_eq!(tl.lanes.len(), 2);
//! let json = chrome_trace(&sink, "doc-test");
//! assert!(json.starts_with('{'));
//! ```

pub mod chrome;
pub mod event;
pub mod report;
pub mod ring;
pub mod sink;
pub mod timeline;

/// The workspace JSON module, re-exported for readers that reach it
/// through this crate.
pub use afs_core::json;

pub use chrome::chrome_trace;
pub use event::{Event, EventKind};
pub use report::TraceReport;
pub use ring::EventRing;
pub use sink::TraceSink;
pub use timeline::to_timeline;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::chrome::chrome_trace;
    pub use crate::event::{Event, EventKind};
    pub use crate::report::TraceReport;
    pub use crate::sink::TraceSink;
    pub use crate::timeline::to_timeline;
}
