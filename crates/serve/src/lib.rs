#![warn(missing_docs)]

//! # afs-serve — a request-driven loop-serving frontend
//!
//! Everything below this crate executes loops the caller already holds:
//! `parallel_for` blocks one thread until one loop finishes. This crate
//! turns that executor into a *server*: many client threads submit
//! [`LoopRequest`]s (kernel × size × policy × phases, under a tenant),
//! admission applies explicit backpressure, a dispatcher multiplexes one
//! [`afs_runtime::Pool`] across tenants under a pluggable discipline,
//! and every request's queueing delay, service time and sojourn land in
//! per-tenant histograms with p50/p99/p999 read-outs.
//!
//! The parts:
//!
//! * [`queue::MpmcQueue`] — the bounded lock-free admission ring
//!   (Vyukov); full ⇒ shed, never block;
//! * [`LoopRequest`] / [`Admit`] / [`ShedReason`] — the request surface:
//!   admission answers *accepted* or *shed-with-reason*, immediately;
//! * [`Discipline`] — centralized FCFS, per-tenant deficit round-robin
//!   (iteration-weighted fairness), or batching (small loops fused into
//!   one pool dispatch: one runtime region, `afs_runtime::PhasePlan`);
//! * [`LoopServer`] — owns the pipeline; snapshots ride inside the
//!   metrics document (schema v3) and its live JSON endpoint;
//! * failure containment — a panicking request retires as
//!   [`Outcome::Failed`] without killing its batchmates or the
//!   dispatcher; deadlines and per-tenant SLO budgets shed hopeless work
//!   at admission ([`ShedReason::DeadlineHopeless`] /
//!   [`ShedReason::SloBudget`]) or expire it in queue; a
//!   [`Supervisor`] (see [`ServerBuilder::supervise`]) replaces a
//!   wounded pool outright.
//!
//! ```
//! use afs_runtime::Pool;
//! use afs_serve::prelude::*;
//! use std::sync::Arc;
//!
//! let pool = Arc::new(Pool::new(2));
//! let server = LoopServer::builder(pool)
//!     .tenant("small")
//!     .discipline(Discipline::Batch { max_requests: 8, max_iters: 4096 })
//!     .build();
//! for _ in 0..10 {
//!     let verdict = server.admit(LoopRequest {
//!         tenant: 0,
//!         kernel: ServeKernel::Touch,
//!         n: 64,
//!         phases: 1,
//!         policy: ServePolicy::Afs,
//!         deadline: None,
//!     });
//!     assert!(verdict.is_accepted());
//! }
//! server.drain();
//! let ledger = server.shutdown();
//! assert_eq!(ledger.completed, 10);
//! ```

pub mod dispatch;
pub mod queue;
pub mod request;
pub mod server;
pub mod supervise;

pub use dispatch::Discipline;
pub use queue::MpmcQueue;
pub use request::{Admit, LoopRequest, Outcome, ServeKernel, ServePolicy, ShedReason};
pub use server::{LoopServer, ServerBuilder, TenantSpec};
pub use supervise::{Supervisor, SupervisorConfig};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::dispatch::Discipline;
    pub use crate::request::{Admit, LoopRequest, Outcome, ServeKernel, ServePolicy, ShedReason};
    pub use crate::server::{LoopServer, ServerBuilder, TenantSpec};
    pub use crate::supervise::{Supervisor, SupervisorConfig};
}
