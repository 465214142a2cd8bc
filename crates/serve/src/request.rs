//! What clients submit ([`LoopRequest`]) and what admission answers
//! ([`Admit`]).
//!
//! A request names a *loop*, not a closure: the kernel is one of a small
//! set of built-in bodies ([`ServeKernel`]) that touch the tenant's
//! resident workset, the size and phase count shape the work, and the
//! policy ([`ServePolicy`]) picks which scheduler hands iterations to
//! workers. Keeping the kernel enumerable (rather than a boxed closure)
//! keeps requests `Send + 'static` without allocation, makes load
//! generation seedable, and keeps the loop body panic-free by
//! construction. The fused driver still armors against panics (fault
//! injection, future closure kernels): a body that does unwind fails
//! only its own request ([`Outcome::Failed`]), never the dispatcher.

use afs_runtime::{AdaptController, RuntimeScheduler};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The loop body a request runs, one call per iteration, against the
/// tenant's workset. All kernels are panic-free by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeKernel {
    /// One read-modify-write per iteration on the workset — a pure
    /// affinity probe: throughput is bounded by where the cache lines
    /// live, not by compute.
    Touch,
    /// One RMW plus `work` rounds of integer mixing per iteration —
    /// dials the compute:memory ratio up from [`ServeKernel::Touch`].
    Spin {
        /// Rounds of the mix function per iteration.
        work: u32,
    },
}

impl ServeKernel {
    /// Stable label for bench rows and traces.
    pub fn label(&self) -> &'static str {
        match self {
            ServeKernel::Touch => "touch",
            ServeKernel::Spin { .. } => "spin",
        }
    }
}

/// Executes one iteration of `kernel` against workset slot `i & mask`.
/// `mask` must be `workset.len() - 1` with a power-of-two length.
#[inline]
pub(crate) fn run_iter(workset: &[AtomicU64], mask: usize, i: u64, kernel: ServeKernel) {
    let cell = &workset[(i as usize) & mask];
    match kernel {
        ServeKernel::Touch => {
            cell.fetch_add(1, Ordering::Relaxed);
        }
        ServeKernel::Spin { work } => {
            let mut x = cell.load(Ordering::Relaxed) ^ i;
            for _ in 0..work {
                x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23) ^ (x >> 17);
            }
            cell.store(x | 1, Ordering::Relaxed);
        }
    }
}

/// Which scheduler hands the request's iterations to workers. Mirrors the
/// runtime's policy set, minus the mutex-serialized adapters (a server
/// exists to measure the concurrent schedulers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServePolicy {
    /// Affinity scheduling, `k = P`: per-worker queues, steal when dry.
    Afs,
    /// Affinity scheduling with grab-ahead batching of local claims.
    AfsGrabAhead {
        /// Local chunks claimed per CAS.
        ahead: usize,
    },
    /// Central self-scheduling, one iteration per grab.
    SelfSched,
    /// Central chunk self-scheduling, `chunk` iterations per grab.
    Css {
        /// Iterations per grab.
        chunk: u64,
    },
    /// Static partition: no run-time scheduling at all.
    Static,
    /// Self-tuning AFS: the server's shared
    /// [`afs_runtime::adapt::AdaptController`] re-tunes the subdivision k
    /// and grab-ahead b from the pool's counters at each phase boundary
    /// of a dispatch, as it does in any region: before every phase of an
    /// adaptive request, not once per batch. Requests from all tenants
    /// feed one controller, so the server converges on parameters for the
    /// *mix* it is actually serving.
    Adaptive,
}

impl ServePolicy {
    /// Stable label for bench rows and traces.
    pub fn label(&self) -> &'static str {
        match self {
            ServePolicy::Afs => "afs",
            ServePolicy::AfsGrabAhead { .. } => "afs_ga",
            ServePolicy::SelfSched => "self",
            ServePolicy::Css { .. } => "css",
            ServePolicy::Static => "static",
            ServePolicy::Adaptive => "adaptive",
        }
    }

    /// The runtime policy that schedules every phase of a request under
    /// this one. `adapt` is the server's shared controller, which
    /// [`ServePolicy::Adaptive`] requests feed.
    pub(crate) fn scheduler(self, adapt: &Arc<AdaptController>) -> RuntimeScheduler {
        match self {
            ServePolicy::Afs => RuntimeScheduler::afs_k_equals_p(),
            ServePolicy::AfsGrabAhead { ahead } => RuntimeScheduler::afs_grab_ahead(ahead),
            ServePolicy::SelfSched => RuntimeScheduler::self_sched(),
            ServePolicy::Css { chunk } => RuntimeScheduler::chunk_self(chunk.max(1)),
            ServePolicy::Static => RuntimeScheduler::static_partition(),
            ServePolicy::Adaptive => RuntimeScheduler::adaptive_with(Arc::clone(adapt)),
        }
    }
}

/// One unit of admission: a parallel loop a tenant wants run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopRequest {
    /// Index of the tenant (as registered on the server builder).
    pub tenant: usize,
    /// The loop body.
    pub kernel: ServeKernel,
    /// Iterations per phase.
    pub n: u64,
    /// Number of barrier-separated phases (≥ 1).
    pub phases: u32,
    /// Scheduling policy for every phase of this request.
    pub policy: ServePolicy,
    /// Optional completion deadline, measured from admission. Admission
    /// sheds the request as [`ShedReason::DeadlineHopeless`] when the
    /// sojourn predictor says it cannot make it; a queued request whose
    /// deadline elapses before dispatch retires as
    /// [`Outcome::Expired`] without touching the pool; one that
    /// completes late is stamped [`Outcome::TimedOut`].
    pub deadline: Option<std::time::Duration>,
}

impl LoopRequest {
    /// Total iterations across all phases — the cost unit the deficit
    /// round-robin discipline charges against a tenant's deficit.
    pub fn iters(&self) -> u64 {
        self.n.saturating_mul(self.phases as u64)
    }
}

/// Why admission refused a request. Discriminants are stable and mirror
/// the trace reason codes (`afs_metrics::trace::EventKind::RequestShed`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum ShedReason {
    /// The shared admission ring was full.
    QueueFull = 0,
    /// The tenant exceeded its private in-flight backlog cap.
    TenantBacklog = 1,
    /// The server is shutting down.
    ShuttingDown = 2,
    /// The request carried a deadline the sojourn predictor says cannot
    /// be met: predicted wait behind the tenant's current backlog already
    /// exceeds it. Shedding now is kinder than expiring later.
    DeadlineHopeless = 3,
    /// Admitting the request would push the tenant's predicted sojourn
    /// past its configured latency SLO budget
    /// (`TenantSpec::slo`). Protects the tenant's own tail: better to
    /// refuse one request than to late-serve the next hundred.
    SloBudget = 4,
}

impl ShedReason {
    /// The stable numeric code recorded in traces.
    pub fn code(self) -> u32 {
        self as u32
    }

    /// Stable label for exports.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::TenantBacklog => "tenant_backlog",
            ShedReason::ShuttingDown => "shutdown",
            ShedReason::DeadlineHopeless => "deadline_hopeless",
            ShedReason::SloBudget => "slo_budget",
        }
    }
}

/// How an *admitted* request left the system. Shed requests never get an
/// outcome — they were refused at the door; this enum classifies the ones
/// that made it in. The serve ledger invariant is
/// `admitted == ok + timed_out + failed + expired + stranded-at-shutdown`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to completion within its deadline (or had none).
    Ok,
    /// Its loop body panicked on a worker; its batch contained the blast
    /// to this one request, which leaves the ledger as failed.
    Failed {
        /// Worker whose body panicked.
        worker: u32,
        /// Zero-based phase index the panic happened in.
        phase: u32,
    },
    /// Ran to completion, but after its deadline had already passed.
    /// The work was done — the result was just late.
    TimedOut,
    /// Its deadline elapsed while it was still queued; the dispatcher
    /// retired it without touching the pool.
    Expired,
}

impl Outcome {
    /// Stable label for exports (`afs_serve_outcome_total{outcome=...}`).
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Failed { .. } => "failed",
            Outcome::TimedOut => "timed_out",
            Outcome::Expired => "expired",
        }
    }
}

/// The admission verdict: in, or shed with an explicit reason. Shedding
/// is backpressure working as designed, not an error — hence a plain
/// enum rather than `Result`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// The request is queued; `id` is its server-assigned identity.
    Accepted {
        /// Monotone per-server request id.
        id: u64,
    },
    /// The request was refused.
    Shed(ShedReason),
}

impl Admit {
    /// Whether the request was accepted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Admit::Accepted { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_reason_codes_are_stable() {
        assert_eq!(ShedReason::QueueFull.code(), 0);
        assert_eq!(ShedReason::TenantBacklog.code(), 1);
        assert_eq!(ShedReason::ShuttingDown.code(), 2);
        assert_eq!(ShedReason::DeadlineHopeless.code(), 3);
        assert_eq!(ShedReason::SloBudget.code(), 4);
        assert_eq!(ShedReason::DeadlineHopeless.label(), "deadline_hopeless");
        assert_eq!(ShedReason::SloBudget.label(), "slo_budget");
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(Outcome::Ok.label(), "ok");
        assert_eq!(
            Outcome::Failed {
                worker: 1,
                phase: 0
            }
            .label(),
            "failed"
        );
        assert_eq!(Outcome::TimedOut.label(), "timed_out");
        assert_eq!(Outcome::Expired.label(), "expired");
    }

    #[test]
    fn request_cost_is_iters_times_phases() {
        let r = LoopRequest {
            tenant: 0,
            kernel: ServeKernel::Touch,
            n: 128,
            phases: 3,
            policy: ServePolicy::Afs,
            deadline: None,
        };
        assert_eq!(r.iters(), 384);
        assert!(!Admit::Shed(ShedReason::QueueFull).is_accepted());
        assert!(Admit::Accepted { id: 7 }.is_accepted());
    }

    #[test]
    fn kernels_cover_every_workset_slot_reachable_by_mask() {
        let ws: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        for i in 0..64u64 {
            run_iter(&ws, 7, i, ServeKernel::Touch);
        }
        for slot in &ws {
            assert_eq!(slot.load(Ordering::Relaxed), 8);
        }
        // Spin writes a nonzero mix result.
        run_iter(&ws, 7, 3, ServeKernel::Spin { work: 4 });
        assert_ne!(ws[3].load(Ordering::Relaxed), 8);
    }

    #[test]
    fn policies_build_sources_that_cover_n() {
        let pool = afs_runtime::Pool::new(2);
        let adapt = Arc::new(AdaptController::new(2));
        for (policy, name) in [
            (ServePolicy::Afs, "AFS"),
            (ServePolicy::AfsGrabAhead { ahead: 4 }, "AFS(ga=4)"),
            (ServePolicy::SelfSched, "SS"),
            (ServePolicy::Css { chunk: 8 }, "CSS(8)"),
            (ServePolicy::Css { chunk: 0 }, "SS"),
            (ServePolicy::Static, "STATIC"),
            (ServePolicy::Adaptive, "ADAPTIVE"),
        ] {
            let sched = policy.scheduler(&adapt);
            assert_eq!(sched.name(), name);
            let m = afs_runtime::parallel_for(&pool, 100, &sched, |_| {});
            assert_eq!(m.total_iters(), 100, "{name}");
        }
        assert_eq!(
            adapt.phases(),
            1,
            "the adaptive request fed the shared controller"
        );
    }
}
