#![warn(missing_docs)]

//! # afs-runtime — real-thread parallel loop execution
//!
//! A worker-pool executor that runs parallel loops under any of the paper's
//! scheduling policies with real threads, real locks, and real atomics:
//!
//! * [`pool::Pool`] — `P` persistent worker threads with a broadcast/barrier
//!   protocol (one pool per "application", reused across loops and phases);
//! * [`source::WorkSource`] — the concurrent counterpart of
//!   `afs_core::LoopState`: central-queue policies run the exact core state
//!   machine under its queue lock, AFS runs a true distributed
//!   implementation with per-worker queues and lock-free load checks;
//! * [`parallel::parallel_for`] / [`parallel::parallel_phases`] — the
//!   execution entry points, returning the same [`afs_core::LoopMetrics`]
//!   the simulator produces (derived from the workers' counter slots, with
//!   `per_queue` left empty);
//! * [`shared::RowMatrix`] — a row-sharded shared array giving kernels
//!   race-free mutable access to disjoint rows from multiple workers;
//! * [`wait::EventCount`] — the one spin → yield → park ladder every wait
//!   above (and `afs-serve`'s dispatcher) goes through.
//!
//! Execution can be traced: build the pool with [`pool::Pool::with_trace`]
//! and every grab, chunk, contended lock acquisition and barrier entry is
//! recorded into an [`afs_metrics::trace::TraceSink`] (per-worker ring
//! buffers, no cross-thread synchronization on the hot path), which
//! assembles into the same `afs_core::timeline::Timeline` the simulator
//! draws. Pools without a sink pay nothing — the drivers specialize on the
//! sink's presence per loop.
//!
//! ```
//! use afs_runtime::prelude::*;
//! use afs_core::prelude::*;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = Pool::new(4);
//! let sum = AtomicU64::new(0);
//! let metrics = parallel_for(&pool, 1000, &RuntimeScheduler::afs_k_equals_p(), |i| {
//!     sum.fetch_add(i, Ordering::Relaxed);
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 1000 * 999 / 2);
//! assert_eq!(metrics.total_iters(), 1000);
//! ```

pub mod adapt;
pub mod affinity;
pub mod barrier;
pub mod fault;
#[doc(hidden)]
pub mod inject;
pub mod parallel;
pub mod pool;
pub mod shared;
pub mod source;
pub mod sync;
pub mod wait;
mod watchdog;

pub use adapt::{AdaptController, Tune};
pub use barrier::SenseBarrier;
pub use fault::{FaultPlan, PhaseError};
pub use parallel::{
    parallel_for, parallel_nest, parallel_phases, try_parallel_for, try_parallel_phases, PhasePlan,
    RuntimeScheduler, StandingRegion,
};
pub use pool::{DispatchSlot, DispatchTicket, Pool, PoolBuilder, TryDispatchError};
pub use shared::RowMatrix;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::fault::{FaultPlan, PhaseError};
    pub use crate::parallel::{
        parallel_for, parallel_nest, parallel_phases, try_parallel_for, try_parallel_phases,
        RuntimeScheduler,
    };
    pub use crate::pool::{Pool, PoolBuilder};
    pub use crate::shared::RowMatrix;
}
