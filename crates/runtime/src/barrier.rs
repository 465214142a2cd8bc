//! A decentralized sense-reversing phase barrier.
//!
//! The pool's start/done rendezvous routes every phase through the
//! coordinator thread: publish, wake, collect, repeat. For a nest of many
//! short phases that round-trip *is* the cost — on an oversubscribed host
//! it adds a whole extra scheduling slot (the coordinator's) per phase.
//! This barrier removes the coordinator from the steady state: the workers
//! release each other, and the last worker to arrive performs the serial
//! phase turnaround (re-arming the region's work source for the next
//! phase) before releasing the others, so a P-worker phase costs P scheduling slots and
//! zero kernel round-trips on a dedicated machine.
//!
//! The "sense" is a monotone generation counter rather than a flipping
//! boolean: arrivals for generation `g + 1` cannot begin until every
//! waiter of generation `g` has been released *logically* (the arrival
//! counter is reset strictly before the sense store publishes `g`), so the
//! classic two-sense alternation collapses to one word and there is no
//! reuse hazard even if a released waiter races far ahead.
//!
//! Waiting is [`crate::wait`]'s ladder on the barrier's own
//! [`EventCount`]: the event is the `SeqCst` sense store, published before
//! the releaser's `notify`, and a waiter's look is a `SeqCst` load of it.

use crate::wait::{Budget, EventCount, Worker};
use afs_metrics::pad::CachePadded;
use afs_metrics::trace::TraceSink;
use afs_metrics::MetricsRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A reusable phase barrier for a fixed party of `p` workers.
///
/// All `p` workers must call [`SenseBarrier::arrive`] (or
/// [`SenseBarrier::arrive_then`]) with the same strictly-increasing
/// generation sequence `1, 2, 3, …`; the call returns once all `p` have
/// arrived at that generation. Everything a worker wrote before arriving
/// happens-before everything any worker does after being released.
pub struct SenseBarrier {
    p: u64,
    hot: CachePadded<Hot>,
    /// Where waiters for the next sense sleep.
    released: EventCount,
    budget: Budget,
    /// Barrier-arrival accounting, fed via [`SenseBarrier::arrive_then_as`]
    /// when the caller identifies which worker is arriving.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Trace lanes: identified arrivers that park record a
    /// [`afs_metrics::trace::EventKind::BarrierPark`].
    trace: Option<Arc<TraceSink>>,
}

/// The two words every arrival writes or spins on, on a line of their own:
/// sharing one with the read-only fields every arriver also reads (`p`, the
/// budget) costs the P = 2 round trip 150 ns instead of 110, and without
/// the padding which of the two a barrier gets is decided by where its
/// stack slot happens to fall (`bench/runs/PR-20.md`). The turn closure's
/// word rides along: the last arriver owns this line when it runs the turn.
#[derive(Default)]
struct Hot {
    /// Arrivals in the in-progress generation; reset by the last arriver.
    arrivals: AtomicU64,
    /// The last fully-arrived generation (the monotone "sense").
    sense: AtomicU64,
    /// See [`SenseBarrier::turn_word`].
    turn_word: AtomicU64,
}

impl SenseBarrier {
    /// A barrier for `p` workers with the given spin/yield budgets before
    /// parking. Panics if `p == 0`.
    pub fn new(p: usize, spins: u32, yields: u32) -> Self {
        Self::with_injection(p, Budget { spins, yields }, None)
    }

    /// Like [`SenseBarrier::new`], with deterministic yield injection at
    /// the protocol's race windows (seeded stress tests only).
    pub(crate) fn with_injection(p: usize, budget: Budget, seed: Option<u64>) -> Self {
        assert!(p >= 1, "a barrier needs at least one participant");
        Self {
            p: p as u64,
            hot: CachePadded::default(),
            released: EventCount::with_injection(seed),
            budget,
            metrics: None,
            trace: None,
        }
    }

    /// Attaches a metrics registry; [`SenseBarrier::arrive_then_as`] then
    /// records each arrival's wait outcome (or turn) against its worker,
    /// and flags the worker as waiting while it does.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a trace sink; arrivals identified to an attached registry
    /// that escalate to a park then record a
    /// [`afs_metrics::trace::EventKind::BarrierPark`] on the worker's lane.
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// A word on the line the last arriver already owns when it runs the
    /// turn closure, for state a turn carries to the next generation's
    /// turn: keeping it here moves no line the barrier does not move
    /// anyway. It starts at 0 and the barrier never reads it, writing it
    /// only when a re-armed region restarts the barrier; its user writes
    /// it only inside turn closures, or while no one is arriving (the
    /// fused phase driver keeps its last phase boundary's timestamp here).
    pub fn turn_word(&self) -> &AtomicU64 {
        &self.hot.turn_word
    }

    /// Starts the generation sequence over at 1 and stores `turn_word`,
    /// for a party that reuses the barrier from scratch (a standing
    /// region's re-arm). Only while no one arrives: whatever hands the
    /// barrier to the party next (a pool publish) orders these stores
    /// before every arrival.
    pub(crate) fn restart(&self, turn_word: u64) {
        self.hot.arrivals.store(0, Ordering::Relaxed);
        self.hot.sense.store(0, Ordering::Relaxed);
        self.hot.turn_word.store(turn_word, Ordering::Relaxed);
    }

    /// Arrives at generation `gen`; returns once all `p` workers have.
    pub fn arrive(&self, gen: u64) {
        self.arrive_then(gen, || {});
    }

    /// Arrives at generation `gen`; the last worker to arrive runs `turn`
    /// (exclusively — every other worker has arrived and none has been
    /// released) before releasing the party. Returns once released; `turn`
    /// happens-before every return.
    pub fn arrive_then(&self, gen: u64, turn: impl FnOnce()) {
        self.arrive_inner(gen, turn, None);
    }

    /// Like [`SenseBarrier::arrive_then`], identifying the arriver as
    /// worker `worker` so an attached metrics registry can attribute the
    /// arrival (wait outcome, or turn) to it. Identical synchronization.
    pub fn arrive_then_as(&self, worker: usize, gen: u64, turn: impl FnOnce()) {
        self.arrive_inner(gen, turn, Some(worker));
    }

    fn arrive_inner(&self, gen: u64, turn: impl FnOnce(), worker: Option<usize>) {
        let arrived = self.hot.arrivals.fetch_add(1, Ordering::SeqCst) + 1;
        self.released.inject_point();
        // An arriver is somebody only when both a registry and a worker
        // identity are present; anonymous arrivals are charged to no one.
        let who = self.metrics.as_ref().zip(worker).map(|(m, w)| Worker {
            counters: m.worker(w),
            lane: self.trace.as_deref().map(|sink| (sink, w)),
        });
        if arrived == self.p {
            // Reset strictly before publishing the sense: a released
            // waiter's arrival for `gen + 1` can only happen after this
            // store, so the counter never counts across generations.
            self.hot.arrivals.store(0, Ordering::SeqCst);
            turn();
            if let Some(w) = who {
                w.counters.record_barrier_turn();
            }
            self.hot.sense.store(gen, Ordering::SeqCst);
            self.released.notify();
            return;
        }
        let ((), how) = self.released.wait(
            self.budget,
            who,
            || (self.hot.sense.load(Ordering::SeqCst) >= gen).then_some(()),
            |_| {},
        );
        if let Some(w) = who {
            w.counters.record_barrier_wait(how);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Drives `p` threads through `gens` generations, checking at every
    /// barrier that all increments of the previous generation are visible.
    fn drive(barrier: &SenseBarrier, p: usize, gens: u64) {
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..p {
                s.spawn(|| {
                    for gen in 1..=gens {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.arrive(gen);
                        assert!(
                            counter.load(Ordering::Relaxed) >= gen * p as u64,
                            "arrivals of generation {gen} not all visible"
                        );
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), gens * p as u64);
    }

    #[test]
    fn all_arrivals_visible_after_release() {
        drive(&SenseBarrier::new(4, 64, 16), 4, 500);
    }

    #[test]
    fn zero_budget_barrier_parks_and_completes() {
        drive(&SenseBarrier::new(4, 0, 0), 4, 200);
    }

    #[test]
    fn oversubscribed_party_completes() {
        // Far more threads than this machine has cores.
        drive(&SenseBarrier::new(16, 64, 4), 16, 100);
    }

    #[test]
    fn single_participant_never_waits() {
        let b = SenseBarrier::new(1, 0, 0);
        for gen in 1..=1000 {
            b.arrive(gen);
        }
    }

    #[test]
    fn turn_runs_exactly_once_per_generation_before_release() {
        let p = 4;
        let gens = 300u64;
        let b = SenseBarrier::new(p, 64, 16);
        let turns = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..p {
                s.spawn(|| {
                    for gen in 1..=gens {
                        b.arrive_then(gen, || {
                            turns.fetch_add(1, Ordering::Relaxed);
                        });
                        // The turn of this generation has run by the time
                        // anyone is released.
                        assert!(turns.load(Ordering::Relaxed) >= gen);
                    }
                });
            }
        });
        assert_eq!(turns.load(Ordering::Relaxed), gens);
    }

    #[test]
    fn injected_yields_do_not_break_the_protocol() {
        for seed in 0..8 {
            let b = SenseBarrier::with_injection(4, Budget::yielding(4), Some(seed));
            drive(&b, 4, 100);
        }
    }

    #[test]
    fn metrics_account_every_identified_arrival() {
        let p = 4;
        let gens = 200u64;
        let reg = Arc::new(MetricsRegistry::new(p));
        let b = SenseBarrier::new(p, 64, 16).with_metrics(Arc::clone(&reg));
        std::thread::scope(|s| {
            for w in 0..p {
                let b = &b;
                s.spawn(move || {
                    for gen in 1..=gens {
                        b.arrive_then_as(w, gen, || {});
                    }
                });
            }
        });
        let snap = reg.snapshot();
        let t = snap.totals();
        assert_eq!(t.barrier_arrives, gens * p as u64);
        // Exactly one turn-taker per generation; the rest waited.
        assert_eq!(t.barrier_turns, gens);
        assert_eq!(
            t.barrier_spin + t.barrier_yield + t.barrier_park + t.barrier_turns,
            t.barrier_arrives
        );
        // Anonymous arrivals must not be charged to anyone.
        let before = reg.snapshot().totals().barrier_arrives;
        let lone = SenseBarrier::new(1, 0, 0).with_metrics(Arc::clone(&reg));
        lone.arrive(1);
        assert_eq!(reg.snapshot().totals().barrier_arrives, before);
    }
}
