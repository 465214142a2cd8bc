//! The shared recording sink: one ring buffer per worker, no locks.

use crate::event::{Event, EventKind};
use crate::ring::Ring;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Default per-worker capacity (events). At 32 bytes per event this is
/// 2 MiB per worker — roomy enough for hundreds of thousands of chunks.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// One worker's lane. The ring lives in an `UnsafeCell` so the owning
/// worker can record through a shared `&TraceSink` without any lock; the
/// single-writer discipline is what makes this sound (see
/// [`TraceSink::record`]).
struct Lane {
    ring: UnsafeCell<Ring<Event>>,
    /// Debug-build guard catching violations of the single-writer contract.
    #[cfg(debug_assertions)]
    busy: AtomicBool,
}

/// Per-worker, allocation-free event recording for one (or several
/// back-to-back) parallel executions.
///
/// # Writer discipline
///
/// Lane `w` must only ever be written by one thread at a time — in the
/// runtime that is the pool worker with index `w`, which is the only caller
/// of `record(w, ..)`. Reads (`events`, `dropped`, the exporters) must
/// happen after the run completes (the pool's end-of-loop barrier is the
/// synchronization point). Debug builds verify the discipline with a
/// per-lane busy flag; release builds pay nothing.
///
/// # Cost when disabled
///
/// `record` first checks an atomic `enabled` flag and returns before
/// touching the clock or the buffer, so a disabled sink performs no event
/// writes at all (verified by test). With no sink attached the runtime
/// skips even that check.
pub struct TraceSink {
    origin: Instant,
    enabled: AtomicBool,
    lanes: Box<[Lane]>,
}

// SAFETY: lanes are independent single-writer cells; cross-thread handoff
// of their contents happens only through external synchronization (the
// pool barrier), per the documented writer discipline.
unsafe impl Sync for TraceSink {}
// SAFETY: a lane owns its ring buffer outright (no thread-local or borrowed
// state), so moving the sink between threads moves plain owned memory.
unsafe impl Send for TraceSink {}

impl TraceSink {
    /// A sink for `workers` lanes with the default per-lane capacity.
    pub fn new(workers: usize) -> Self {
        Self::with_capacity(workers, DEFAULT_CAPACITY)
    }

    /// A sink for `workers` lanes holding at most `capacity` events each
    /// (`capacity >= 1`).
    pub fn with_capacity(workers: usize, capacity: usize) -> Self {
        assert!(workers >= 1, "need at least one lane");
        let lanes = (0..workers)
            .map(|_| Lane {
                ring: UnsafeCell::new(Ring::with_capacity(capacity)),
                #[cfg(debug_assertions)]
                busy: AtomicBool::new(false),
            })
            .collect();
        Self {
            origin: Instant::now(),
            enabled: AtomicBool::new(true),
            lanes,
        }
    }

    /// Number of lanes (workers) this sink records.
    pub fn workers(&self) -> usize {
        self.lanes.len()
    }

    /// Whether recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switches recording on or off. Off turns [`TraceSink::record`] into an
    /// early return: no clock read, no buffer write.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds elapsed since the sink was created.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `kind` on `worker`'s lane, stamped with the current time.
    ///
    /// Must only be called by the single thread currently acting as
    /// `worker` (see the type-level writer discipline). The hot path is one
    /// atomic load, one monotonic clock read, and one slot write.
    #[inline]
    pub fn record(&self, worker: usize, kind: EventKind) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let t = self.now_ns();
        let lane = &self.lanes[worker];
        #[cfg(debug_assertions)]
        {
            assert!(
                !lane.busy.swap(true, Ordering::Acquire),
                "TraceSink lane {worker} written concurrently"
            );
        }
        // SAFETY: single-writer discipline — only this worker's thread
        // writes this lane, and readers wait for the run barrier.
        unsafe { (*lane.ring.get()).push(Event { t, kind }) };
        #[cfg(debug_assertions)]
        lane.busy.store(false, Ordering::Release);
    }

    /// `worker`'s surviving events in recording order, borrowed from its
    /// ring (`.rev()` walks them newest first).
    ///
    /// Call only when no worker is concurrently recording (post-run).
    pub fn lane(&self, worker: usize) -> impl DoubleEndedIterator<Item = &Event> {
        // SAFETY: per the writer discipline, callers invoke this only after
        // the run's barrier, when no thread is writing.
        unsafe { (*self.lanes[worker].ring.get()).iter() }
    }

    /// Snapshot of `worker`'s surviving events in recording order: a copy
    /// of [`TraceSink::lane`].
    pub fn events(&self, worker: usize) -> Vec<Event> {
        self.lane(worker).copied().collect()
    }

    /// Events overwritten on `worker`'s lane because its ring was full.
    pub fn dropped(&self, worker: usize) -> u64 {
        // SAFETY: see `lane`.
        unsafe { (*self.lanes[worker].ring.get()).dropped() }
    }

    /// Discards all recorded events (capacity retained), e.g. to reuse one
    /// sink across experiments. Requires exclusive access.
    pub fn clear(&mut self) {
        for lane in self.lanes.iter() {
            // SAFETY: `&mut self` guarantees no concurrent writer.
            unsafe { (*lane.ring.get()).clear() };
        }
    }

    /// A sink holding hand-stamped events: lane `w` holds `lanes[w]` in
    /// order, each `(t, kind)` stamped `t` ns rather than read off the
    /// clock. Lets an exporter's output be pinned byte for byte.
    #[cfg(test)]
    pub(crate) fn stamped(lanes: &[&[(u64, EventKind)]]) -> Self {
        Self::stamped_in(DEFAULT_CAPACITY, lanes)
    }

    /// [`TraceSink::stamped`] with `capacity` events a lane, so a test can
    /// wrap a lane.
    #[cfg(test)]
    pub(crate) fn stamped_in(capacity: usize, lanes: &[&[(u64, EventKind)]]) -> Self {
        let sink = Self::with_capacity(lanes.len(), capacity);
        for (lane, events) in sink.lanes.iter().zip(lanes) {
            for &(t, kind) in *events {
                // SAFETY: the sink is not yet shared, so nothing else
                // reaches the lane.
                unsafe { (*lane.ring.get()).push(Event { t, kind }) };
            }
        }
        sink
    }

    /// Latest event timestamp across all lanes (ns), or 0 if empty: each
    /// lane's newest event.
    pub fn last_event_ns(&self) -> u64 {
        (0..self.workers())
            .filter_map(|w| self.lane(w).next_back().map(|e| e.t))
            .max()
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("workers", &self.workers())
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_monotone_timestamps() {
        let sink = TraceSink::new(2);
        for _ in 0..100 {
            sink.record(0, EventKind::GrabBegin);
        }
        let evs = sink.events(0);
        assert_eq!(evs.len(), 100);
        assert!(evs.windows(2).all(|w| w[0].t <= w[1].t));
        assert!(sink.events(1).is_empty());
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::new(1);
        sink.set_enabled(false);
        for _ in 0..50 {
            sink.record(0, EventKind::BarrierArrive);
        }
        assert_eq!(sink.events(0).len(), 0);
        assert_eq!(sink.dropped(0), 0);
        sink.set_enabled(true);
        sink.record(0, EventKind::BarrierArrive);
        assert_eq!(sink.events(0).len(), 1);
    }

    #[test]
    fn concurrent_workers_each_own_a_lane() {
        let p = 8;
        let per = 5000usize;
        let sink = TraceSink::with_capacity(p, per * 2);
        std::thread::scope(|s| {
            for w in 0..p {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..per {
                        sink.record(
                            w,
                            EventKind::GrabLocal {
                                queue: w as u32,
                                lo: i as u64,
                                hi: i as u64 + 1,
                            },
                        );
                    }
                });
            }
        });
        for w in 0..p {
            let evs = sink.events(w);
            assert_eq!(evs.len(), per);
            assert!(evs.windows(2).all(|a| a[0].t <= a[1].t), "lane {w}");
            // Every event in lane w carries lane w's payload: no cross-lane
            // interference.
            assert!(evs.iter().all(|e| matches!(
                e.kind,
                EventKind::GrabLocal { queue, .. } if queue == w as u32
            )));
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_lanes_rejected() {
        TraceSink::with_capacity(2, 0);
    }

    #[test]
    fn clear_resets_lanes() {
        let mut sink = TraceSink::with_capacity(2, 4);
        for _ in 0..10 {
            sink.record(1, EventKind::GrabBegin);
        }
        assert!(sink.dropped(1) > 0);
        sink.clear();
        assert_eq!(sink.events(1).len(), 0);
        assert_eq!(sink.dropped(1), 0);
    }
}
