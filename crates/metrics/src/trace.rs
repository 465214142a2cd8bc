//! Opt-in, per-grab execution tracing for real-thread runs.
//!
//! The simulator can already show *where time goes* (per-processor
//! timelines, lock serialization, idle tails); this module brings the same
//! view to real executions on `afs-runtime`:
//!
//! * [`TraceSink`] — per-worker, allocation-free event recording.
//!   Each worker owns a fixed-capacity overwrite-oldest ring of
//!   timestamped [`Event`]s, so the hot grab path records with **no
//!   cross-thread synchronization**: one branch, one monotonic clock read,
//!   one slot write.
//! * [`to_timeline`] — assembles recorded events into the *same*
//!   [`Timeline`] structure the simulator produces, so
//!   the ASCII Gantt renderer (and any analysis built on it) works
//!   unchanged on real runs — enabling direct sim-vs-real comparison.
//! * [`chrome_trace`] — a Chrome trace-event JSON exporter
//!   (loadable in `chrome://tracing` / Perfetto), one lane per worker, with
//!   steal events drawn as flow arrows from victim to thief.
//! * [`TraceReport`] — aggregate post-run analysis: per-worker
//!   busy/sync/wait/idle breakdown, log₂-bucket latency histograms for
//!   chunk execution and grabs, and a who-stole-from-whom matrix.
//!
//! Recording is optional and zero-cost when absent: the runtime only emits
//! events when a sink is attached, and a sink can additionally be switched
//! off at run time (`set_enabled(false)` turns [`TraceSink::record`]
//! into an early return before the clock is read).
//!
//! ```
//! use afs_metrics::trace::prelude::*;
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

pub use crate::chrome::chrome_trace;
pub use crate::event::{Event, EventKind};
pub use crate::report::{TraceReport, WorkerBreakdown};
pub use crate::sink::{TraceSink, DEFAULT_CAPACITY};
pub use crate::timeline::{chunk_span_total, to_timeline, NS_PER_UNIT};
pub use afs_core::timeline::{Segment, SegmentKind, Timeline};

/// The workspace JSON module, re-exported for readers that reach it
/// through this module.
pub use afs_core::json;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use super::{chrome_trace, to_timeline, Event, EventKind, TraceReport, TraceSink};
}
