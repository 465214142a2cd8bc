#![warn(missing_docs)]

//! # afs-core — loop scheduling policies and analytic results
//!
//! This crate implements the loop scheduling algorithms studied in
//! *"Using Processor Affinity in Loop Scheduling on Shared-Memory
//! Multiprocessors"* (Markatos & LeBlanc, Supercomputing 1992), together with
//! the pure chunk-size mathematics they are built from and the paper's
//! analytic results (Theorems 3.1–3.3).
//!
//! The central abstraction is the [`Scheduler`] trait, which produces a
//! [`LoopState`] — a *deterministic state machine* describing how iterations
//! of a parallel loop are handed out to processors. The state machine is
//! driven under external synchronization:
//!
//! * the discrete-event simulator in `afs-sim` drives it event by event,
//!   charging queue-lock serialization and memory-system costs, and
//! * the real-thread runtime in `afs-runtime` mirrors the same chunk
//!   mathematics (from [`chunking`]) with real locks and atomics.
//!
//! ## Implemented schedulers
//!
//! | Module | Algorithm | Source |
//! |---|---|---|
//! | [`schedulers::static_sched`] | STATIC (even contiguous partition) | folklore |
//! | [`schedulers::self_sched`] | SS, self-scheduling (chunk = 1) | Smith '81, Tang & Yew '86 |
//! | [`schedulers::chunk_ss`] | fixed-size chunking (chunk = K) | Kruskal & Weiss '85 |
//! | [`schedulers::gss`] | GSS, guided self-scheduling (± divisor k) | Polychronopoulos & Kuck '87 |
//! | [`schedulers::adaptive_gss`] | adaptive GSS (simplified) | Eager & Zahorjan '92 |
//! | [`schedulers::factoring`] | FACTORING | Hummel, Schonberg & Flynn '92 |
//! | [`schedulers::tapering`] | TAPERING (simplified) | Lucco '92 |
//! | [`schedulers::trapezoid`] | TRAPEZOID self-scheduling | Tzen & Ni '93 |
//! | [`schedulers::affinity`] | **AFS, affinity scheduling** (the paper's contribution) | Markatos & LeBlanc '92 |
//! | [`schedulers::affinity_lastexec`] | AFS "last executed" variant (§4.3 extension) | Markatos & LeBlanc '92 |
//! | [`schedulers::mod_factoring`] | MOD-FACTORING (affinity-aware factoring, §2.3) | Markatos & LeBlanc '92 |
//! | [`schedulers::best_static`] | BEST-STATIC (input-aware oracle baseline) | Markatos & LeBlanc '92 |
//!
//! ## Quick example
//!
//! ```
//! use afs_core::prelude::*;
//!
//! // An AFS loop over 100 iterations on 4 processors with k = P.
//! let sched = Affinity::with_k_equals_p();
//! let mut state = sched.begin_loop(100, 4);
//!
//! // Processor 2 asks for work: it gets 1/4 of its own queue of 25.
//! let grab = state.next(2).unwrap();
//! assert_eq!(grab.queue, 2);
//! assert_eq!(grab.access, AccessKind::Local);
//! assert_eq!(grab.range.len(), 7); // ceil(25 / 4)
//! ```

pub mod chunking;
pub mod json;
pub mod metrics;
pub mod nest;
pub mod partition;
pub mod policy;
pub mod range;
pub mod rng;
pub mod schedulers;
pub mod theory;
pub mod timeline;

pub use metrics::{LoopMetrics, SyncOps};
pub use policy::{AccessKind, Grab, LoopState, QueueTopology, Scheduler, Target};
pub use range::IterRange;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::metrics::{LoopMetrics, SyncOps};
    pub use crate::policy::{AccessKind, Grab, LoopState, QueueTopology, Scheduler, Target};
    pub use crate::range::IterRange;
    pub use crate::schedulers::{
        AdaptiveGss, Affinity, AffinityLastExec, BestStatic, ChunkSelf, Factoring, Gss,
        ModFactoring, SelfSched, StaticSched, Tapering, Trapezoid,
    };
}
