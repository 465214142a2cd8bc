#![warn(missing_docs)]

//! # afs-sim — discrete-event shared-memory multiprocessor simulator
//!
//! The paper evaluates loop scheduling on four machines (SGI 4D/480GTX Iris,
//! BBN Butterfly I, Sequent Symmetry S81, KSR-1) that no longer exist — and
//! this build host has a single CPU, so real-thread speedup curves are
//! physically unobtainable. This crate substitutes a discrete-event
//! simulator that executes the *same scheduler state machines* an online run
//! would, modelling the machine features that drive the paper's results:
//!
//! * **per-processor caches** ([`cache`]) with block granularity, LRU
//!   replacement, and version-based coherence (a write invalidates all other
//!   cached copies), which is what creates and destroys *affinity*;
//! * **interconnect contention** ([`machine::Interconnect`]): a shared bus is
//!   a FCFS resource occupied for the duration of each block transfer (the
//!   Iris/Symmetry bottleneck), a switched network adds latency without
//!   global serialization (Butterfly, KSR-1);
//! * **work-queue locks** as FCFS resources, serializing grabs on a central
//!   queue while per-processor queues proceed in parallel — the paper's
//!   "serializable synchronization operations" distinction;
//! * **machine cost ratios** ([`machine::MachineSpec`]): time per flop, per
//!   (possibly software) divide, per transferred byte, per queue operation.
//!
//! A [`workload::Workload`] describes a sequence of parallel-loop phases
//! (the paper's parallel-loop-inside-sequential-loop structure): for each
//! iteration, its compute cost and the memory blocks it reads and writes.
//! Cache state persists across phases, so a scheduler that re-assigns an
//! iteration to the processor that executed it last phase finds the blocks
//! already cached — exactly the effect AFS exploits.
//!
//! ```
//! use afs_core::prelude::*;
//! use afs_sim::prelude::*;
//!
//! // A balanced 1000-iteration pure-compute loop on an 8-processor Iris.
//! let wl = SyntheticLoop::balanced(1000, 100.0);
//! let res = simulate(&wl, &Affinity::with_k_equals_p(), &SimConfig::new(MachineSpec::iris(), 8));
//! assert!(res.completion_time > 0.0);
//! assert_eq!(res.metrics.total_iters(), 1000);
//! ```

pub mod analytic;
pub mod cache;
pub mod exec;
pub mod machine;
pub mod oracle;
pub mod resource;
pub mod result;
/// Per-processor timelines and the Gantt renderer, shared with the real
/// runtime's trace (re-exported from `afs-core`).
pub use afs_core::timeline;
pub mod trace;
pub mod workload;

pub use analytic::{lower_bounds, Bounds};
pub use exec::{simulate, SimConfig};
pub use machine::{Interconnect, MachineSpec};
pub use result::SimResult;
pub use timeline::{Segment, SegmentKind, Timeline};
pub use trace::{TraceError, TraceWorkload};
pub use workload::{BlockAccess, SyntheticLoop, Work, Workload, BLOCK_ID_LIMIT};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::analytic::{lower_bounds, Bounds};
    pub use crate::exec::{simulate, SimConfig};
    pub use crate::machine::{Interconnect, MachineSpec};
    pub use crate::oracle::OracleBestStatic;
    pub use crate::result::SimResult;
    pub use crate::timeline::{Segment, SegmentKind, Timeline};
    pub use crate::trace::{TraceError, TraceWorkload};
    pub use crate::workload::{BlockAccess, SyntheticLoop, Work, Workload, BLOCK_ID_LIMIT};
}
