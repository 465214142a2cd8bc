//! Per-worker event counters.
//!
//! # Memory-ordering argument
//!
//! Every counter in [`WorkerCounters`] is **single-writer**: the thread
//! currently driving worker index `w` is the only thread that ever writes
//! slot `w` — the same exclusivity the runtime's pool guarantees for trace
//! lanes and grab-ahead stashes. A bump is
//! therefore a plain `Relaxed` load + store (no RMW, no `lock` prefix on
//! x86): there is no concurrent writer to lose an increment to, so the
//! counts are *exact*, not approximate. Readers ([`WorkerCounters::get`])
//! may observe a mid-run value that is slightly stale, which is fine —
//! snapshots are taken at quiescent points (after a loop returns), where
//! the pool's end-of-phase `SeqCst` ack edge orders every worker store
//! before the coordinator's read. The owning worker's own reads are exact
//! at any time: the runtime's per-region `LoopMetrics` is the difference
//! of two such reads, taken by each worker of its own slot.

use afs_core::metrics::SyncOps;
use afs_core::policy::AccessKind;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a barrier wait was resolved (see the runtime's spin→yield→park
/// waiting ladder).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitOutcome {
    /// Resolved during the busy-spin budget (or immediately).
    Spin,
    /// Resolved during the `yield_now` rounds.
    Yield,
    /// The waiter gave up and parked on a condvar.
    Park,
}

/// One worker's counters. Wrap in `CachePadded` (the registry does) so two
/// workers' counters never share a cache line; the whole block fits in one
/// 128-byte padding unit.
#[derive(Debug, Default)]
pub struct WorkerCounters {
    /// Own-queue grabs (the affinity hits).
    local_grabs: AtomicU64,
    /// Remote grabs — steals from another worker's queue.
    remote_grabs: AtomicU64,
    /// Central-queue grabs (SS, CSS, GSS, …).
    central_grabs: AtomicU64,
    /// Synchronization-free claims (static partitions).
    free_grabs: AtomicU64,
    /// Iterations executed.
    iters: AtomicU64,
    /// Contended compare-and-swap retries on lock-free queue words.
    cas_retries: AtomicU64,
    /// Grabs served from the grab-ahead stash without touching the queue.
    stash_hits: AtomicU64,
    /// Barrier arrivals (pool rendezvous + phase barriers).
    barrier_arrives: AtomicU64,
    /// Arrivals resolved while spinning.
    barrier_spin: AtomicU64,
    /// Arrivals resolved while yielding.
    barrier_yield: AtomicU64,
    /// Arrivals that parked on a condvar.
    barrier_park: AtomicU64,
    /// Arrivals as the last worker: ran the barrier's turn closure.
    barrier_turns: AtomicU64,
    /// Liveness heartbeats: bumped on every grab attempt. The stall
    /// watchdog compares successive readings — a worker whose heartbeat is
    /// frozen while it is not waiting at a rendezvous is stalled.
    heartbeats: AtomicU64,
    /// 1 while the worker is blocked at a rendezvous (pool start wait or
    /// phase barrier), 0 while it is supposed to be making progress.
    /// Transient state, not a counter: excluded from [`CounterSnapshot`].
    waiting: AtomicU64,
}

/// Single-writer bump: a plain load + store (see the module docs for why
/// this cannot lose increments).
#[inline]
fn bump(c: &AtomicU64, by: u64) {
    c.store(
        c.load(Ordering::Relaxed).wrapping_add(by),
        Ordering::Relaxed,
    );
}

impl WorkerCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one grab of `access` kind covering `iters` iterations.
    #[inline]
    pub fn record_grab(&self, access: AccessKind, iters: u64) {
        self.record_access(access);
        self.record_iters(iters);
    }

    /// Records the synchronization side of one grab (no iterations yet):
    /// the split form for callers that learn the executed count only after
    /// the chunk ran.
    #[inline]
    pub fn record_access(&self, access: AccessKind) {
        match access {
            AccessKind::Local => bump(&self.local_grabs, 1),
            AccessKind::Remote => bump(&self.remote_grabs, 1),
            AccessKind::Central => bump(&self.central_grabs, 1),
            AccessKind::Free => bump(&self.free_grabs, 1),
        }
    }

    /// Credits `iters` executed iterations.
    #[inline]
    pub fn record_iters(&self, iters: u64) {
        bump(&self.iters, iters);
    }

    /// Bumps the liveness heartbeat (one per grab attempt).
    #[inline]
    pub fn record_heartbeat(&self) {
        bump(&self.heartbeats, 1);
    }

    /// Current heartbeat reading (watchdog side).
    #[inline]
    pub fn heartbeat(&self) -> u64 {
        self.heartbeats.load(Ordering::Relaxed)
    }

    /// Marks this worker as blocked at (or leaving) a rendezvous. Single
    /// writer: only the worker's own thread flips it.
    #[inline]
    pub fn set_waiting(&self, waiting: bool) {
        self.waiting.store(u64::from(waiting), Ordering::Relaxed);
    }

    /// Whether the worker is currently blocked at a rendezvous.
    #[inline]
    pub fn is_waiting(&self) -> bool {
        self.waiting.load(Ordering::Relaxed) != 0
    }

    /// Records one contended CAS retry.
    #[inline]
    pub fn record_cas_retry(&self) {
        bump(&self.cas_retries, 1);
    }

    /// Records one grab served from the grab-ahead stash.
    #[inline]
    pub fn record_stash_hit(&self) {
        bump(&self.stash_hits, 1);
    }

    /// Records one barrier arrival that waited and was resolved by
    /// `outcome`.
    #[inline]
    pub fn record_barrier_wait(&self, outcome: WaitOutcome) {
        bump(&self.barrier_arrives, 1);
        match outcome {
            WaitOutcome::Spin => bump(&self.barrier_spin, 1),
            WaitOutcome::Yield => bump(&self.barrier_yield, 1),
            WaitOutcome::Park => bump(&self.barrier_park, 1),
        }
    }

    /// Records one barrier arrival as the last worker (no wait; ran the
    /// turn closure).
    #[inline]
    pub fn record_barrier_turn(&self) {
        bump(&self.barrier_arrives, 1);
        bump(&self.barrier_turns, 1);
    }

    /// Reads the current values (exact at quiescent points; may be
    /// mid-bump stale during a run).
    pub fn get(&self) -> CounterSnapshot {
        let r = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CounterSnapshot {
            local_grabs: r(&self.local_grabs),
            remote_grabs: r(&self.remote_grabs),
            central_grabs: r(&self.central_grabs),
            free_grabs: r(&self.free_grabs),
            iters: r(&self.iters),
            cas_retries: r(&self.cas_retries),
            stash_hits: r(&self.stash_hits),
            barrier_arrives: r(&self.barrier_arrives),
            barrier_spin: r(&self.barrier_spin),
            barrier_yield: r(&self.barrier_yield),
            barrier_park: r(&self.barrier_park),
            barrier_turns: r(&self.barrier_turns),
            heartbeats: r(&self.heartbeats),
        }
    }
}

/// Plain-value copy of one worker's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Own-queue grabs (the affinity hits).
    pub local_grabs: u64,
    /// Remote grabs — steals from another worker's queue.
    pub remote_grabs: u64,
    /// Central-queue grabs.
    pub central_grabs: u64,
    /// Synchronization-free claims.
    pub free_grabs: u64,
    /// Iterations executed.
    pub iters: u64,
    /// Contended compare-and-swap retries.
    pub cas_retries: u64,
    /// Grabs served from the grab-ahead stash.
    pub stash_hits: u64,
    /// Barrier arrivals.
    pub barrier_arrives: u64,
    /// Arrivals resolved while spinning.
    pub barrier_spin: u64,
    /// Arrivals resolved while yielding.
    pub barrier_yield: u64,
    /// Arrivals that parked.
    pub barrier_park: u64,
    /// Arrivals that ran the turn closure.
    pub barrier_turns: u64,
    /// Liveness heartbeats (grab attempts).
    pub heartbeats: u64,
}

impl CounterSnapshot {
    /// Total grabs of any kind.
    pub fn total_grabs(&self) -> u64 {
        self.sync().total()
    }

    /// The four grab counters as the paper's removal counts (Tables 3–5).
    pub fn sync(&self) -> SyncOps {
        SyncOps {
            central: self.central_grabs,
            local: self.local_grabs,
            remote: self.remote_grabs,
            free: self.free_grabs,
        }
    }

    /// Number of fields, in the order [`CounterSnapshot::to_words`] lists
    /// them.
    pub(crate) const WORDS: usize = 13;

    /// The fields as words, in declaration order (the flight recorder's
    /// lanes store a snapshot so).
    pub(crate) fn to_words(self) -> [u64; Self::WORDS] {
        [
            self.local_grabs,
            self.remote_grabs,
            self.central_grabs,
            self.free_grabs,
            self.iters,
            self.cas_retries,
            self.stash_hits,
            self.barrier_arrives,
            self.barrier_spin,
            self.barrier_yield,
            self.barrier_park,
            self.barrier_turns,
            self.heartbeats,
        ]
    }

    /// Inverse of [`CounterSnapshot::to_words`].
    pub(crate) fn from_words(w: [u64; Self::WORDS]) -> CounterSnapshot {
        let [local_grabs, remote_grabs, central_grabs, free_grabs, iters, cas_retries, stash_hits, barrier_arrives, barrier_spin, barrier_yield, barrier_park, barrier_turns, heartbeats] =
            w;
        CounterSnapshot {
            local_grabs,
            remote_grabs,
            central_grabs,
            free_grabs,
            iters,
            cas_retries,
            stash_hits,
            barrier_arrives,
            barrier_spin,
            barrier_yield,
            barrier_park,
            barrier_turns,
            heartbeats,
        }
    }

    /// Adds `other` into `self` field by field.
    pub fn add(&mut self, other: &CounterSnapshot) {
        self.local_grabs += other.local_grabs;
        self.remote_grabs += other.remote_grabs;
        self.central_grabs += other.central_grabs;
        self.free_grabs += other.free_grabs;
        self.iters += other.iters;
        self.cas_retries += other.cas_retries;
        self.stash_hits += other.stash_hits;
        self.barrier_arrives += other.barrier_arrives;
        self.barrier_spin += other.barrier_spin;
        self.barrier_yield += other.barrier_yield;
        self.barrier_park += other.barrier_park;
        self.barrier_turns += other.barrier_turns;
        self.heartbeats += other.heartbeats;
    }

    /// `self − other` field by field (saturating), for deltas between two
    /// snapshots of a long-lived registry.
    pub fn minus(&self, other: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            local_grabs: self.local_grabs.saturating_sub(other.local_grabs),
            remote_grabs: self.remote_grabs.saturating_sub(other.remote_grabs),
            central_grabs: self.central_grabs.saturating_sub(other.central_grabs),
            free_grabs: self.free_grabs.saturating_sub(other.free_grabs),
            iters: self.iters.saturating_sub(other.iters),
            cas_retries: self.cas_retries.saturating_sub(other.cas_retries),
            stash_hits: self.stash_hits.saturating_sub(other.stash_hits),
            barrier_arrives: self.barrier_arrives.saturating_sub(other.barrier_arrives),
            barrier_spin: self.barrier_spin.saturating_sub(other.barrier_spin),
            barrier_yield: self.barrier_yield.saturating_sub(other.barrier_yield),
            barrier_park: self.barrier_park.saturating_sub(other.barrier_park),
            barrier_turns: self.barrier_turns.saturating_sub(other.barrier_turns),
            heartbeats: self.heartbeats.saturating_sub(other.heartbeats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip_every_field() {
        let w: [u64; CounterSnapshot::WORDS] = std::array::from_fn(|i| i as u64 + 1);
        let s = CounterSnapshot::from_words(w);
        assert_eq!(s.to_words(), w);
        assert_eq!((s.local_grabs, s.heartbeats), (1, 13));
        let mut sum = s;
        sum.add(&s);
        assert_eq!(sum.minus(&s), s);
    }

    #[test]
    fn counters_fit_one_padding_unit() {
        // The whole per-worker block must fit in one 128-byte CachePadded
        // slot, or two workers' counters would share a line after all.
        assert!(std::mem::size_of::<WorkerCounters>() <= 128);
    }

    #[test]
    fn grab_kinds_route_to_their_counters() {
        let c = WorkerCounters::new();
        c.record_grab(AccessKind::Local, 10);
        c.record_grab(AccessKind::Local, 5);
        c.record_grab(AccessKind::Remote, 3);
        c.record_grab(AccessKind::Central, 2);
        c.record_grab(AccessKind::Free, 100);
        let s = c.get();
        assert_eq!(s.local_grabs, 2);
        assert_eq!(s.remote_grabs, 1);
        assert_eq!(s.central_grabs, 1);
        assert_eq!(s.free_grabs, 1);
        assert_eq!(s.total_grabs(), 5);
        assert_eq!(s.iters, 120);
    }

    #[test]
    fn barrier_outcomes_sum_to_arrivals() {
        let c = WorkerCounters::new();
        c.record_barrier_wait(WaitOutcome::Spin);
        c.record_barrier_wait(WaitOutcome::Yield);
        c.record_barrier_wait(WaitOutcome::Park);
        c.record_barrier_turn();
        let s = c.get();
        assert_eq!(s.barrier_arrives, 4);
        assert_eq!(
            s.barrier_spin + s.barrier_yield + s.barrier_park + s.barrier_turns,
            s.barrier_arrives
        );
    }

    #[test]
    fn heartbeat_and_waiting_flag() {
        let c = WorkerCounters::new();
        assert_eq!(c.heartbeat(), 0);
        assert!(!c.is_waiting());
        c.record_heartbeat();
        c.record_heartbeat();
        assert_eq!(c.heartbeat(), 2);
        c.set_waiting(true);
        assert!(c.is_waiting());
        c.set_waiting(false);
        assert!(!c.is_waiting());
        // The transient waiting flag never leaks into snapshots; the
        // heartbeat does (it is a real monotone counter).
        assert_eq!(c.get().heartbeats, 2);
    }

    #[test]
    fn split_grab_recording_matches_combined() {
        let a = WorkerCounters::new();
        a.record_grab(AccessKind::Remote, 9);
        let b = WorkerCounters::new();
        b.record_access(AccessKind::Remote);
        b.record_iters(9);
        assert_eq!(a.get(), b.get());
    }

    #[test]
    fn add_and_minus_are_inverse() {
        let a = WorkerCounters::new();
        a.record_grab(AccessKind::Local, 7);
        a.record_cas_retry();
        a.record_stash_hit();
        let before = a.get();
        a.record_grab(AccessKind::Remote, 3);
        a.record_cas_retry();
        let after = a.get();
        let delta = after.minus(&before);
        assert_eq!(delta.remote_grabs, 1);
        assert_eq!(delta.local_grabs, 0);
        assert_eq!(delta.cas_retries, 1);
        assert_eq!(delta.iters, 3);
        let mut sum = before;
        sum.add(&delta);
        assert_eq!(sum, after);
    }
}
