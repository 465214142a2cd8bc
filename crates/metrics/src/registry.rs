//! The per-pool metrics registry.
//!
//! One [`MetricsRegistry`] lives for the lifetime of a thread pool. Hot
//! paths touch only their own worker's [`CachePadded`] counter block. The
//! phase-duration histogram is sharded the same way: whoever closes a phase
//! records it in its own shard, so a phase boundary writes no line another
//! worker reads. The region-makespan histogram is recorded once per region,
//! by the caller, not per grab or per phase.

use crate::controllers::{ControllersSnapshot, SchedControllerSnapshot};
use crate::counters::WorkerCounters;
use crate::histogram::AtomicHistogram;
use crate::pad::CachePadded;
use crate::snapshot::{MetricsSnapshot, WorkerSnapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Per-worker pin status encoding: unknown (never attempted).
const PIN_UNKNOWN: u8 = 0;
/// Pin was attempted and the kernel refused.
const PIN_FAILED: u8 = 1;
/// Worker is pinned to its core.
const PIN_OK: u8 = 2;

/// All metrics state for one pool: per-worker counters, shared duration
/// histograms, and robustness / placement / controller state.
#[derive(Debug)]
pub struct MetricsRegistry {
    workers: Vec<CachePadded<WorkerCounters>>,
    /// Phase durations, one shard per worker (see
    /// [`MetricsRegistry::phase_hist`]).
    phase_ns: Vec<CachePadded<AtomicHistogram>>,
    loop_ns: AtomicHistogram,
    /// Stalls flagged by the watchdog (heartbeat frozen while not waiting).
    stalls: AtomicU64,
    /// Per-worker stall attribution. The watchdog thread is the only
    /// writer; readers are snapshots.
    stalls_by_worker: Vec<AtomicU64>,
    /// Phases that overran the configured per-phase deadline.
    deadline_misses: AtomicU64,
    /// Per-worker core-pin outcome (unknown / failed / pinned).
    pins: Vec<AtomicU8>,
    /// Per-worker pinned core id (`u64::MAX` = not pinned / unknown).
    cores: Vec<AtomicU64>,
    /// Workers that actually started. Equals `workers.len()` unless the
    /// pool degraded at spawn time (thread creation failed).
    effective_workers: AtomicUsize,
    /// Latest adaptive-scheduling controller state. Written at phase
    /// boundaries (coarse, never per grab); `sched_present` gates whether
    /// snapshots report a block at all.
    sched_present: AtomicBool,
    sched_k: AtomicU64,
    sched_b: AtomicU64,
    sched_decisions: AtomicU64,
    sched_settled: AtomicBool,
}

impl MetricsRegistry {
    /// Registry for `p` workers, counters zeroed.
    pub fn new(p: usize) -> MetricsRegistry {
        MetricsRegistry {
            workers: (0..p).map(|_| CachePadded::default()).collect(),
            phase_ns: (0..p).map(|_| CachePadded::default()).collect(),
            loop_ns: AtomicHistogram::new(),
            stalls: AtomicU64::new(0),
            stalls_by_worker: (0..p).map(|_| AtomicU64::new(0)).collect(),
            deadline_misses: AtomicU64::new(0),
            pins: (0..p).map(|_| AtomicU8::new(PIN_UNKNOWN)).collect(),
            cores: (0..p).map(|_| AtomicU64::new(u64::MAX)).collect(),
            effective_workers: AtomicUsize::new(p),
            sched_present: AtomicBool::new(false),
            sched_k: AtomicU64::new(0),
            sched_b: AtomicU64::new(0),
            sched_decisions: AtomicU64::new(0),
            sched_settled: AtomicBool::new(false),
        }
    }

    /// Number of workers this registry tracks.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Worker `w`'s counter block. Only the thread driving worker `w` may
    /// *record* into it (the single-writer discipline); anyone may read.
    pub fn worker(&self, w: usize) -> &WorkerCounters {
        &self.workers[w]
    }

    /// Worker `w`'s shard of the phase-duration histogram (one sample per
    /// barrier-to-barrier phase, recorded by the worker that closed it).
    /// Only the thread driving worker `w` may record into it, with
    /// [`AtomicHistogram::record_owned`]; [`MetricsRegistry::snapshot`]
    /// merges the shards.
    pub fn phase_hist(&self, w: usize) -> &AtomicHistogram {
        &self.phase_ns[w]
    }

    /// The region-makespan histogram (one sample per parallel loop/nest).
    pub fn loop_hist(&self) -> &AtomicHistogram {
        &self.loop_ns
    }

    /// Flags one stalled observation of worker `w` (watchdog side).
    pub fn record_stall(&self, w: usize) {
        self.stalls.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.stalls_by_worker.get(w) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Stalls flagged so far, all workers.
    pub fn stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// Stalls attributed to worker `w` so far.
    pub fn worker_stalls(&self, w: usize) -> u64 {
        self.stalls_by_worker[w].load(Ordering::Relaxed)
    }

    /// Flags one phase that overran its deadline.
    pub fn record_deadline_miss(&self) {
        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Deadline misses flagged so far.
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses.load(Ordering::Relaxed)
    }

    /// Records whether worker `w`'s core pin succeeded (called once per
    /// worker at spawn when pinning was requested).
    pub fn set_pin_status(&self, w: usize, pinned: bool) {
        self.pins[w].store(if pinned { PIN_OK } else { PIN_FAILED }, Ordering::Relaxed);
    }

    /// Worker `w`'s pin outcome: `None` if pinning was never attempted.
    pub fn pin_status(&self, w: usize) -> Option<bool> {
        match self.pins[w].load(Ordering::Relaxed) {
            PIN_OK => Some(true),
            PIN_FAILED => Some(false),
            _ => None,
        }
    }

    /// Records where worker `w` landed: its pinned core (called once per
    /// worker after a successful pin; never called when pinning failed or
    /// was not requested).
    pub fn set_worker_placement(&self, w: usize, core: usize) {
        self.cores[w].store(core as u64, Ordering::Relaxed);
    }

    /// The core worker `w` is pinned to, if placement was recorded.
    pub fn worker_core(&self, w: usize) -> Option<usize> {
        match self.cores[w].load(Ordering::Relaxed) {
            u64::MAX => None,
            c => Some(c as usize),
        }
    }

    /// Records how many workers actually started (pool spawn degradation).
    pub fn set_effective_workers(&self, n: usize) {
        self.effective_workers.store(n, Ordering::Relaxed);
    }

    /// Workers that actually started (= [`MetricsRegistry::workers`] unless
    /// the pool degraded at spawn time).
    pub fn effective_workers(&self) -> usize {
        self.effective_workers.load(Ordering::Relaxed)
    }

    /// Records the adaptive scheduling controller's latest decision: the
    /// `(k, b)` pair in force for the next phase, how many parameter
    /// changes it has made, and whether it considers itself settled.
    /// Called once per phase boundary — cold relative to grabs.
    pub fn record_sched_tune(&self, k: u64, b: u64, decisions: u64, settled: bool) {
        self.sched_k.store(k, Ordering::Relaxed);
        self.sched_b.store(b, Ordering::Relaxed);
        self.sched_decisions.store(decisions, Ordering::Relaxed);
        self.sched_settled.store(settled, Ordering::Relaxed);
        self.sched_present.store(true, Ordering::Release);
    }

    /// The adaptive scheduling controller's latest state, if it has ever
    /// reported one.
    pub fn sched_controller(&self) -> Option<SchedControllerSnapshot> {
        self.sched_present
            .load(Ordering::Acquire)
            .then(|| SchedControllerSnapshot {
                k: self.sched_k.load(Ordering::Relaxed),
                b: self.sched_b.load(Ordering::Relaxed),
                decisions: self.sched_decisions.load(Ordering::Relaxed),
                settled: self.sched_settled.load(Ordering::Relaxed),
            })
    }

    /// Aggregates everything into a plain-value [`MetricsSnapshot`]. Exact
    /// at quiescent points (between loops); mid-run it may be slightly
    /// stale, never torn per counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let workers = self
            .workers
            .iter()
            .enumerate()
            .map(|(w, counters)| WorkerSnapshot {
                counters: counters.get(),
                pinned: self.pin_status(w),
                pinned_core: self.worker_core(w),
                stalls: self.worker_stalls(w),
            })
            .collect();
        MetricsSnapshot {
            workers,
            phase_ns: self
                .phase_ns
                .iter()
                .fold(Default::default(), |mut all, shard| {
                    all.add(&shard.get());
                    all
                }),
            loop_ns: self.loop_ns.get(),
            stalls_detected: self.stalls(),
            deadline_misses: self.deadline_misses(),
            effective_workers: self.effective_workers(),
            serve: None,
            controllers: self
                .sched_controller()
                .map(|sched| ControllersSnapshot { sched: Some(sched) }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_core::policy::AccessKind;

    #[test]
    fn registry_tracks_per_worker_counters_independently() {
        let reg = MetricsRegistry::new(4);
        assert_eq!(reg.workers(), 4);
        reg.worker(0).record_grab(AccessKind::Local, 10);
        reg.worker(2).record_grab(AccessKind::Remote, 5);
        let snap = reg.snapshot();
        assert_eq!(snap.workers[0].counters.local_grabs, 1);
        assert_eq!(snap.workers[1].counters.sync().total(), 0);
        assert_eq!(snap.workers[2].counters.remote_grabs, 1);
        assert_eq!(snap.totals().iters, 15);
    }

    #[test]
    fn stalls_attribute_to_workers() {
        let reg = MetricsRegistry::new(3);
        reg.record_stall(1);
        reg.record_stall(1);
        reg.record_stall(2);
        assert_eq!(reg.stalls(), 3);
        assert_eq!(reg.worker_stalls(0), 0);
        assert_eq!(reg.worker_stalls(1), 2);
        assert_eq!(reg.worker_stalls(2), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.stalls_detected, 3);
        assert_eq!(snap.workers[1].stalls, 2);
        // An out-of-range worker still counts globally (defensive).
        reg.record_stall(99);
        assert_eq!(reg.stalls(), 4);
    }

    #[test]
    fn placement_is_unknown_until_recorded() {
        let reg = MetricsRegistry::new(2);
        assert_eq!(reg.worker_core(0), None);
        reg.set_worker_placement(1, 5);
        assert_eq!(reg.worker_core(1), Some(5));
        let snap = reg.snapshot();
        assert_eq!(snap.workers[0].pinned_core, None);
        assert_eq!(snap.workers[1].pinned_core, Some(5));
    }

    #[test]
    fn controller_state_is_absent_until_recorded() {
        let reg = MetricsRegistry::new(2);
        assert_eq!(reg.sched_controller(), None);
        assert_eq!(reg.snapshot().controllers, None);
        reg.record_sched_tune(8, 2, 3, true);
        let sched = reg.sched_controller().unwrap();
        assert_eq!(
            (sched.k, sched.b, sched.decisions, sched.settled),
            (8, 2, 3, true)
        );
        let c = reg.snapshot().controllers.unwrap();
        assert_eq!(c.sched, Some(sched));
        // Latest write wins.
        reg.record_sched_tune(4, 1, 4, false);
        assert_eq!(reg.sched_controller().unwrap().k, 4);
    }

    #[test]
    fn histograms_feed_the_snapshot() {
        let reg = MetricsRegistry::new(2);
        reg.phase_hist(0).record_owned(1000);
        reg.phase_hist(1).record_owned(3000);
        reg.loop_hist().record(5000);
        let snap = reg.snapshot();
        assert_eq!(snap.phase_ns.samples, 2);
        assert_eq!(snap.phase_ns.total_ns, 4000);
        assert_eq!(snap.phase_ns.max_ns, 3000);
        assert_eq!(snap.loop_ns.samples, 1);
        assert_eq!(snap.loop_ns.max_ns, 5000);
    }
}
