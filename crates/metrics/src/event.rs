//! Trace events: what a worker records, with nanosecond timestamps.

use afs_core::policy::{AccessKind, Grab};

/// What happened. Payloads are kept small and `Copy` so recording writes a
/// single fixed-size slot — no allocation on the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The worker entered the scheduler's grab path (`WorkSource::next`).
    /// Paired with the `Grab*` event that follows on the same lane; the
    /// distance between them is the grab latency.
    GrabBegin,
    /// Took iterations `[lo, hi)` from the worker's own queue.
    GrabLocal {
        /// Queue the chunk came from (the worker's own).
        queue: u32,
        /// First iteration of the chunk.
        lo: u64,
        /// One past the last iteration.
        hi: u64,
    },
    /// Stole iterations `[lo, hi)` from another worker's queue.
    GrabRemote {
        /// Victim queue.
        queue: u32,
        /// First iteration of the chunk.
        lo: u64,
        /// One past the last iteration.
        hi: u64,
    },
    /// Took iterations `[lo, hi)` from a central shared queue.
    GrabCentral {
        /// First iteration of the chunk.
        lo: u64,
        /// One past the last iteration.
        hi: u64,
    },
    /// Claimed a static partition `[lo, hi)` — no run-time synchronization.
    GrabFree {
        /// First iteration of the chunk.
        lo: u64,
        /// One past the last iteration.
        hi: u64,
    },
    /// Started executing the loop body for iterations `[lo, hi)`.
    ChunkStart {
        /// Queue the chunk was grabbed from.
        queue: u32,
        /// First iteration of the chunk.
        lo: u64,
        /// One past the last iteration.
        hi: u64,
    },
    /// Finished the chunk opened by the preceding `ChunkStart` on this lane.
    ChunkEnd,
    /// Started waiting for queue `queue`'s lock (it was contended).
    LockWaitBegin {
        /// Queue whose lock is being waited on.
        queue: u32,
    },
    /// Acquired queue `queue`'s lock after waiting.
    LockWaitEnd {
        /// Queue whose lock was acquired.
        queue: u32,
    },
    /// A compare-and-swap on queue `queue`'s lock-free head/tail word lost
    /// to a concurrent claimer and is being retried. Only real contention
    /// produces this event (the claim uses the strong `compare_exchange`).
    CasRetry {
        /// Queue whose packed word the CAS targeted.
        queue: u32,
    },
    /// The worker arrived at the end-of-phase barrier (its final grab
    /// failed). Paired with the next [`EventKind::BarrierRelease`] on the
    /// same lane; the distance between them is the exact rendezvous time.
    BarrierArrive,
    /// The worker left the rendezvous: the pool handed it the next phase's
    /// job. The first release of a pool's life has no preceding arrive;
    /// consumers ignore unmatched releases.
    BarrierRelease,
    /// The worker's barrier wait escalated past spinning and yielding and
    /// the worker went to sleep. Recorded between the lane's
    /// [`EventKind::BarrierArrive`] / [`EventKind::BarrierRelease`] pair.
    BarrierPark,
    /// The stall watchdog observed worker `worker`'s heartbeat frozen while
    /// the worker was not waiting at a barrier — it is stalled (preempted,
    /// stuck, or in a very long iteration). Recorded on the watchdog's own
    /// lane, not the stalled worker's, preserving the single-writer rule.
    StallDetected {
        /// The worker that appears stalled.
        worker: u32,
    },
    /// The serving frontend accepted a request into its admission queue.
    /// Recorded on a lane past the workers' (the admitting thread is a
    /// client, not a worker), preserving the single-writer rule.
    RequestAdmit {
        /// Tenant the request belongs to.
        tenant: u32,
        /// Server-assigned request id (monotone per server).
        id: u64,
    },
    /// The dispatcher handed a request (possibly fused into a batch) to
    /// the pool. Recorded on the dispatcher's own lane.
    RequestDispatch {
        /// Tenant the request belongs to.
        tenant: u32,
        /// Server-assigned request id.
        id: u64,
    },
    /// The serving frontend refused a request at admission (backpressure),
    /// or accounted an already-admitted request as stranded at shutdown.
    RequestShed {
        /// Tenant the request belonged to.
        tenant: u32,
        /// Shed reason code (`afs_serve::ShedReason` discriminant: 0 =
        /// queue full, 1 = tenant backlog, 2 = shutting down, 3 = deadline
        /// hopeless, 4 = SLO budget).
        reason: u32,
    },
    /// One phase of an admitted request finished executing on the pool:
    /// the in-batch barrier turned for it, or — for the final phase — the
    /// request retired, which may be before that barrier (whoever retires
    /// it records this just before [`EventKind::RequestComplete`]).
    /// Recorded on the serve lane; together with
    /// [`EventKind::RequestAdmit`] / [`EventKind::RequestComplete`] it
    /// decomposes a request's sojourn into queue wait, per-phase
    /// execution, and barrier sync.
    RequestPhase {
        /// Server-assigned request id.
        id: u64,
        /// Zero-based phase index within the request.
        phase: u32,
    },
    /// An admitted request finished its final phase: completion stamps
    /// were taken by the worker that ran its last iteration, before the
    /// final barrier (or, for an `n = 0` request, in that barrier's turn
    /// slot). Closes the async span opened by
    /// [`EventKind::RequestAdmit`]. Recorded on the serve lane.
    RequestComplete {
        /// Tenant the request belongs to.
        tenant: u32,
        /// Server-assigned request id.
        id: u64,
    },
    /// An admitted request failed: its loop body panicked on a worker and
    /// its batch contained the blast to this one request. The
    /// request leaves the ledger as `failed`, never `completed`. Recorded
    /// on the dispatcher's lane.
    RequestFailed {
        /// Tenant the request belongs to.
        tenant: u32,
        /// Server-assigned request id.
        id: u64,
        /// Worker whose body panicked.
        worker: u32,
        /// Zero-based phase index the panic happened in.
        phase: u32,
    },
}

impl EventKind {
    /// The `Grab*` event corresponding to a successful [`Grab`].
    pub fn of_grab(grab: &Grab) -> EventKind {
        let (lo, hi) = (grab.range.start, grab.range.end);
        match grab.access {
            AccessKind::Local => EventKind::GrabLocal {
                queue: grab.queue as u32,
                lo,
                hi,
            },
            AccessKind::Remote => EventKind::GrabRemote {
                queue: grab.queue as u32,
                lo,
                hi,
            },
            AccessKind::Central => EventKind::GrabCentral { lo, hi },
            AccessKind::Free => EventKind::GrabFree { lo, hi },
        }
    }

    /// The synchronization class of a `Grab*` event, if it is one.
    pub fn grab_access(&self) -> Option<AccessKind> {
        match self {
            EventKind::GrabLocal { .. } => Some(AccessKind::Local),
            EventKind::GrabRemote { .. } => Some(AccessKind::Remote),
            EventKind::GrabCentral { .. } => Some(AccessKind::Central),
            EventKind::GrabFree { .. } => Some(AccessKind::Free),
            _ => None,
        }
    }
}

/// One recorded event: a monotonic timestamp (nanoseconds since the sink's
/// origin) and what happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since [`TraceSink`](crate::trace::TraceSink) creation.
    pub t: u64,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_core::range::IterRange;

    #[test]
    fn grab_events_mirror_access_kinds() {
        for (access, expect_queue) in [
            (AccessKind::Local, true),
            (AccessKind::Remote, true),
            (AccessKind::Central, false),
            (AccessKind::Free, false),
        ] {
            let g = Grab {
                range: IterRange::new(3, 9),
                queue: 5,
                access,
            };
            let ev = EventKind::of_grab(&g);
            assert_eq!(ev.grab_access(), Some(access));
            match ev {
                EventKind::GrabLocal { queue, lo, hi }
                | EventKind::GrabRemote { queue, lo, hi } => {
                    assert!(expect_queue);
                    assert_eq!((queue, lo, hi), (5, 3, 9));
                }
                EventKind::GrabCentral { lo, hi } | EventKind::GrabFree { lo, hi } => {
                    assert!(!expect_queue);
                    assert_eq!((lo, hi), (3, 9));
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn non_grab_events_have_no_access() {
        assert_eq!(EventKind::GrabBegin.grab_access(), None);
        assert_eq!(EventKind::ChunkEnd.grab_access(), None);
        assert_eq!(EventKind::BarrierArrive.grab_access(), None);
        assert_eq!(EventKind::BarrierRelease.grab_access(), None);
        assert_eq!(EventKind::BarrierPark.grab_access(), None);
        assert_eq!(EventKind::StallDetected { worker: 3 }.grab_access(), None);
        assert_eq!(
            EventKind::RequestAdmit { tenant: 0, id: 7 }.grab_access(),
            None
        );
        assert_eq!(
            EventKind::RequestDispatch { tenant: 1, id: 7 }.grab_access(),
            None
        );
        assert_eq!(
            EventKind::RequestShed {
                tenant: 0,
                reason: 1
            }
            .grab_access(),
            None
        );
        assert_eq!(
            EventKind::RequestPhase { id: 7, phase: 2 }.grab_access(),
            None
        );
        assert_eq!(
            EventKind::RequestComplete { tenant: 1, id: 7 }.grab_access(),
            None
        );
        assert_eq!(
            EventKind::RequestFailed {
                tenant: 0,
                id: 7,
                worker: 2,
                phase: 1
            }
            .grab_access(),
            None
        );
    }
}
