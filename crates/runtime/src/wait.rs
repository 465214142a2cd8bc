//! The one way to wait: spin → yield → park, and the one rule for how
//! long a waiter may spin.
//!
//! Every blocking wait in the runtime and in `afs-serve` — a worker's
//! wait for its next job, the coordinator's wait for the last ack, the
//! in-region [`crate::barrier::SenseBarrier`], the serve dispatcher's wait
//! for work and for the batch it dispatched — is [`EventCount::wait`]: the
//! waiter looks for its event `spins` times with a
//! [`std::hint::spin_loop`] between looks, then `yields` times with a
//! [`std::thread::yield_now`] between looks, then sleeps on a condvar
//! until a publisher wakes it. `scripts/check_waits.sh` keeps it the only
//! one.
//!
//! # Why a wakeup cannot be lost
//!
//! The sleep is guarded by an eventcount. A waiter *registers*
//! (`sleepers += 1`) and only then takes its last look; a publisher
//! *publishes* its event and only then loads `sleepers`
//! ([`EventCount::notify`]). All four accesses are `SeqCst` — the contract
//! on callers is that the event is a `SeqCst` store or read-modify-write
//! and that `look` reads it with `SeqCst` loads. In the single total order
//! either the publisher's load follows the registration, and it notifies
//! under the lock — which the waiter holds from its last look until the
//! condvar releases it, so the notify cannot fall between the two — or
//! the registration follows the load and therefore the event, and the
//! waiter's last look sees it and never sleeps. This is the whole
//! argument; the five call sites differ only in what the event is.

use crate::inject::YieldInject;
use afs_metrics::{WaitOutcome, WorkerCounters};
use afs_trace::{EventKind, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Default spin iterations before yielding (dedicated machines). One
/// iteration is two `SeqCst` loads plus a `spin_loop` hint, and `pause`
/// alone is ~140 cycles on Skylake and later (~10 on older cores): measured
/// ≈ 11.5 ns per iteration on the 2-core reference host, so the full
/// budget is ≈ 47 µs — several phase turnarounds, far below a timeslice.
pub const DEFAULT_SPINS: u32 = 4_096;

/// Default `yield_now` rounds between spinning and parking. On an
/// oversubscribed host each yield lets the publisher (or the remaining
/// workers) run, so the rendezvous usually completes here without a
/// kernel sleep.
pub const DEFAULT_YIELDS: u32 = 256;

/// Spin iterations (≈ 0.7 µs) for a waiter holding a core that a thread it
/// waits for may need ([`spin_leg`]). Just enough to catch an event that
/// is already on its way.
pub const OVERSUBSCRIBED_SPINS: u32 = 64;

/// Yield rounds for a coordinator collecting acks from more workers than
/// there are cores ([`coordinator_yields`]).
pub const OVERSUBSCRIBED_COORD_YIELDS: u32 = 2;

/// How long a waiter looks before it sleeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Looks separated by a `spin_loop` hint.
    pub spins: u32,
    /// Looks separated by a `yield_now`.
    pub yields: u32,
}

impl Budget {
    /// No spin leg, for a waiter that would sooner give its core away: the
    /// serve dispatcher's rule, whatever it waits for.
    pub const fn yielding(yields: u32) -> Budget {
        Budget { spins: 0, yields }
    }
}

/// The one rule for the pure-spin leg. `runners` counts every thread that
/// must be running for the awaited event to happen, *plus the waiter*:
/// `p + 1` for a worker waiting for the coordinator's next job and for the
/// coordinator waiting for its workers' acks, `p` for a barrier among the
/// workers. When they all fit on `cores` the configured budget applies;
/// otherwise each iteration the waiter spins is one a thread it depends on
/// sits runnable behind it, and the leg is cut to
/// [`OVERSUBSCRIBED_SPINS`]. The yield and park legs are untouched.
pub fn spin_leg(spins: u32, runners: usize, cores: usize) -> u32 {
    if runners <= cores {
        spins
    } else {
        spins.min(OVERSUBSCRIBED_SPINS)
    }
}

/// Yield rounds for the coordinator's ack wait. While acks trickle in from
/// `p > cores` workers, every futile coordinator wakeup takes a timeslice
/// from the workers still computing; parking after
/// [`OVERSUBSCRIBED_COORD_YIELDS`] costs one notify by the last acker and
/// returns the core. Workers keep the full yield budget: their next event
/// arrives quickly, and parking all of them would turn every publish into
/// a wake-all storm.
pub fn coordinator_yields(yields: u32, p: usize, cores: usize) -> u32 {
    if p <= cores {
        yields
    } else {
        yields.min(OVERSUBSCRIBED_COORD_YIELDS)
    }
}

/// The waiter, when it is a pool worker: the ladder raises its `waiting`
/// flag for the duration (a legitimately blocked worker's frozen heartbeat
/// is not a stall — see the watchdog) and records
/// [`EventKind::BarrierPark`] on its lane when it commits to sleeping.
#[derive(Clone, Copy)]
pub struct Worker<'a> {
    /// The worker's counter slot.
    pub counters: &'a WorkerCounters,
    /// The worker's trace lane: sink and lane index.
    pub lane: Option<(&'a TraceSink, usize)>,
}

/// The spin and yield legs: looks for the event until the budget runs out.
/// `on_leg(Yield)` runs before every `yield_now`.
#[inline]
pub(crate) fn poll<T>(
    budget: Budget,
    inject: Option<&YieldInject>,
    mut look: impl FnMut() -> Option<T>,
    mut on_leg: impl FnMut(WaitOutcome),
) -> Option<(T, WaitOutcome)> {
    for _ in 0..budget.spins {
        if let Some(v) = look() {
            return Some((v, WaitOutcome::Spin));
        }
        std::hint::spin_loop();
    }
    for _ in 0..budget.yields {
        if let Some(v) = look() {
            return Some((v, WaitOutcome::Yield));
        }
        on_leg(WaitOutcome::Yield);
        if let Some(inj) = inject {
            inj.maybe_yield();
        }
        std::thread::yield_now();
    }
    None
}

/// Where waiters for one kind of event sleep, and how its publishers find
/// them. See the module docs for the protocol and its contract.
#[derive(Default)]
pub struct EventCount {
    /// Waiters asleep or committed to sleeping. Publishers take the lock
    /// only when this is non-zero, so an event nobody sleeps on costs one
    /// load.
    sleepers: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
    /// Deterministic yield injection at the two race windows (seeded
    /// stress tests only).
    inject: Option<YieldInject>,
}

impl EventCount {
    /// Like [`EventCount::default`], yielding on a seeded coin in the
    /// register → last-look and publish → sleeper-load windows and before
    /// every ladder yield (seeded stress tests only).
    #[doc(hidden)]
    pub fn with_injection(seed: Option<u64>) -> Self {
        Self {
            inject: seed.map(YieldInject::new),
            ..Self::default()
        }
    }

    /// A marked race window of the owning protocol (or of this one).
    #[inline]
    pub(crate) fn inject_point(&self) {
        if let Some(inj) = &self.inject {
            inj.maybe_yield();
        }
    }

    fn lock(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Waiters asleep or committed to sleeping.
    #[cfg(test)]
    pub(crate) fn sleepers(&self) -> u64 {
        self.sleepers.load(Ordering::SeqCst)
    }

    /// Publisher side: wakes every sleeper. Call *after* publishing the
    /// event. Returns whether anyone was asleep.
    #[inline]
    pub fn notify(&self) -> bool {
        self.notify_if(|| true)
    }

    /// [`EventCount::notify`] for an event several publishers complete
    /// between them (every worker's ack): each calls this after its own
    /// `SeqCst` store, and only one for which `complete` holds notifies.
    /// The module's argument carries over to the publisher whose store is
    /// last in the total order: its loads follow every store, so if it
    /// sees a sleeper it also sees the event complete. `complete` is asked
    /// only when someone is asleep, so the common case stays one load.
    #[inline]
    pub fn notify_if(&self, complete: impl FnOnce() -> bool) -> bool {
        self.inject_point();
        let wake = self.sleepers.load(Ordering::SeqCst) > 0 && complete();
        if wake {
            let _guard = self.lock();
            self.cv.notify_all();
        }
        wake
    }

    /// Waits until `look` returns the event: spin, yield, then sleep until
    /// a publisher's [`EventCount::notify`]. Returns what `look` found and
    /// the leg that found it. `on_leg` hears `Yield` before every
    /// `yield_now` (a waiter with work of its own does it there) and
    /// `Park` once, when the waiter commits to sleeping.
    #[inline]
    pub fn wait<T>(
        &self,
        budget: Budget,
        who: Option<Worker<'_>>,
        mut look: impl FnMut() -> Option<T>,
        mut on_leg: impl FnMut(WaitOutcome),
    ) -> (T, WaitOutcome) {
        if let Some(w) = &who {
            w.counters.set_waiting(true);
        }
        let found = match poll(budget, self.inject.as_ref(), &mut look, &mut on_leg) {
            Some(found) => found,
            None => {
                on_leg(WaitOutcome::Park);
                if let Some((sink, lane)) = who.and_then(|w| w.lane) {
                    sink.record(lane, EventKind::BarrierPark);
                }
                (self.park(look), WaitOutcome::Park)
            }
        };
        if let Some(w) = &who {
            w.counters.set_waiting(false);
        }
        found
    }

    /// The park leg: register, take the last look under the lock, sleep.
    #[cold]
    fn park<T>(&self, mut look: impl FnMut() -> Option<T>) -> T {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        self.inject_point();
        let mut guard = self.lock();
        let v = loop {
            if let Some(v) = look() {
                break v;
            }
            guard = self.cv.wait(guard).unwrap_or_else(|p| p.into_inner());
        };
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn spin_leg_is_full_only_when_waiter_and_awaited_threads_fit_the_cores() {
        const FULL: u32 = DEFAULT_SPINS;
        // (what waits, runners, cores, spin leg)
        let table = [
            ("2 workers + coordinator: start and ack wait", 2 + 1, 2, 64),
            ("the same pool with cores to spare", 2 + 1, 4, FULL),
            ("2 barrier peers", 2, 2, FULL),
            ("4 barrier peers", 4, 2, 64),
            ("1 worker + coordinator", 1 + 1, 1, 64),
        ];
        for (what, runners, cores, want) in table {
            assert_eq!(spin_leg(FULL, runners, cores), want, "{what}");
        }
        // A cut, never a raise: a smaller configured budget stands.
        assert_eq!(spin_leg(8, 3, 2), 8);
        assert_eq!(OVERSUBSCRIBED_SPINS, 64);
        // The coordinator's yield leg shrinks only once the workers alone
        // outnumber the cores.
        assert_eq!(coordinator_yields(DEFAULT_YIELDS, 2, 2), DEFAULT_YIELDS);
        assert_eq!(coordinator_yields(DEFAULT_YIELDS, 3, 2), 2);
    }

    #[test]
    fn on_leg_hears_every_yield_then_one_park() {
        let ec = EventCount::default();
        let flag = AtomicU64::new(0);
        let mut legs = Vec::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                while ec.sleepers() == 0 {
                    std::thread::yield_now();
                }
                flag.store(1, Ordering::SeqCst);
                assert!(ec.notify(), "a registered sleeper must be seen");
            });
            let budget = Budget {
                spins: 4,
                yields: 3,
            };
            let look = || (flag.load(Ordering::SeqCst) == 1).then_some(7);
            let found = ec.wait(budget, None, look, |leg| legs.push(leg));
            assert_eq!(found, (7, WaitOutcome::Park));
        });
        use WaitOutcome::{Park, Yield};
        assert_eq!(legs, [Yield, Yield, Yield, Park]);
        assert!(!ec.notify(), "nobody is asleep any more");
    }

    /// `WAITERS` threads sleep on `go` for round `t`; the round's publisher
    /// sleeps on `back` until all of them acknowledged round `t − 1`. Every
    /// event is published exactly once, to waiters that are asleep or about
    /// to be, so one lost wakeup on either eventcount deadlocks the seed.
    /// Zero budgets send every wait to the park leg; the seeded injector
    /// yields inside both race windows.
    #[test]
    fn seeded_waiters_and_publishers_lose_no_wakeup_on_the_park_leg() {
        const WAITERS: u64 = 5;
        const PUBLISHERS: u64 = 3;
        const ROUNDS: u64 = 150;
        const ASLEEP: Budget = Budget::yielding(0);
        struct Seed {
            go: EventCount,
            back: EventCount,
            round: AtomicU64,
            acks: AtomicU64,
        }
        for seed in 0..20u64 {
            let st = Arc::new(Seed {
                go: EventCount::with_injection(Some(seed)),
                back: EventCount::with_injection(Some(!seed)),
                round: AtomicU64::new(0),
                acks: AtomicU64::new(0),
            });
            let (tx, rx) = std::sync::mpsc::channel();
            for _ in 0..WAITERS {
                let (st, tx) = (Arc::clone(&st), tx.clone());
                std::thread::spawn(move || {
                    for t in 1..=ROUNDS {
                        let look = || (st.round.load(Ordering::SeqCst) >= t).then_some(());
                        st.go.wait(ASLEEP, None, look, |_| {});
                        st.acks.fetch_add(1, Ordering::SeqCst);
                        st.back.notify();
                    }
                    let _ = tx.send(());
                });
            }
            for j in 0..PUBLISHERS {
                let (st, tx) = (Arc::clone(&st), tx.clone());
                std::thread::spawn(move || {
                    for t in (1..=ROUNDS).filter(|t| t % PUBLISHERS == j) {
                        let want = WAITERS * (t - 1);
                        let look = || (st.acks.load(Ordering::SeqCst) >= want).then_some(());
                        st.back.wait(ASLEEP, None, look, |_| {});
                        st.round.store(t, Ordering::SeqCst);
                        st.go.notify();
                    }
                    let _ = tx.send(());
                });
            }
            for _ in 0..WAITERS + PUBLISHERS {
                rx.recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("seed {seed}: a thread never woke"));
            }
            assert_eq!(st.acks.load(Ordering::SeqCst), WAITERS * ROUNDS);
        }
    }
}
