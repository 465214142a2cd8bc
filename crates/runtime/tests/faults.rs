//! Fault-injection integration tests: panic containment, the exactly-once
//! invariant under faults, spawn degradation, the stall watchdog and phase
//! deadlines.
//!
//! The exactly-once checks are differential: a per-iteration count array
//! (ground truth from the bodies themselves) is compared against both the
//! `LoopMetrics` the driver returns and the pool's `MetricsSnapshot` delta,
//! so a miscount in any of the three layers breaks the test.

use afs_runtime::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// Per-iteration ground truth: one atomic per (phase, iteration) slot.
fn count_array(len: u64) -> Vec<AtomicU32> {
    (0..len).map(|_| AtomicU32::new(0)).collect()
}

fn ones(counts: &[AtomicU32]) -> u64 {
    counts
        .iter()
        .filter(|c| c.load(Ordering::SeqCst) == 1)
        .count() as u64
}

/// A panicking iteration costs exactly itself. Every other iteration
/// executes exactly once, the error names the worker and phase, and the
/// same pool runs the next loop cleanly.
#[test]
fn drain_executes_every_other_iteration_exactly_once() {
    let (n, p) = (4096u64, 4usize);
    // Worker 1 owns [1024, 2048) under STATIC, so iteration 1500 is
    // deterministically executed (and poisoned) by worker 1.
    let poison = 1500u64;
    let pool = Pool::builder(p)
        .faults(FaultPlan::new(7).with_panic_at(1, 0, poison))
        .build();
    let counts = count_array(n);
    let before = pool.metrics().snapshot();
    let err = try_parallel_for(&pool, n, &RuntimeScheduler::static_partition(), |i| {
        counts[i as usize].fetch_add(1, Ordering::SeqCst);
    })
    .unwrap_err();
    assert_eq!(err.worker(), 1);
    assert_eq!(err.phase(), 0);
    assert!(
        err.message().unwrap_or_default().contains("injected fault"),
        "{err:?}"
    );
    // Ground truth: only the poisoned iteration is missing, nothing ran
    // twice.
    for (i, c) in counts.iter().enumerate() {
        let want = u32::from(i as u64 != poison);
        assert_eq!(c.load(Ordering::SeqCst), want, "iteration {i}");
    }
    // Differential: the runtime's own accounting agrees with the bodies.
    let delta = pool.metrics().snapshot().delta_since(&before);
    assert_eq!(delta.totals().iters, n - 1);
    // The trigger is one-shot and the pool is fully usable: the same
    // loop now completes.
    let again = count_array(n);
    let m = parallel_for(&pool, n, &RuntimeScheduler::static_partition(), |i| {
        again[i as usize].fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(m.total_iters(), n);
    assert!(again.iter().all(|c| c.load(Ordering::SeqCst) == 1));
}

/// A panic in the middle phase of a nest: the nest still finishes (minus
/// one iteration) and the error carries the phase index.
#[test]
fn drain_nest_loses_only_the_poisoned_iteration() {
    let (n, p, phases) = (2048u64, 4usize, 3usize);
    let poison = 700u64; // worker 1 owns [512, 1024) under STATIC
    let pool = Pool::builder(p)
        .faults(FaultPlan::new(3).with_panic_at(1, 1, poison))
        .build();
    let counts = count_array(n * phases as u64);
    let before = pool.metrics().snapshot();
    let err = try_parallel_phases(
        &pool,
        phases,
        |_| n,
        &RuntimeScheduler::static_partition(),
        |ph, i| {
            counts[ph * n as usize + i as usize].fetch_add(1, Ordering::SeqCst);
        },
    )
    .unwrap_err();
    assert_eq!(err.worker(), 1);
    assert_eq!(err.phase(), 1);
    for (slot, c) in counts.iter().enumerate() {
        let want = u32::from(slot != n as usize + poison as usize);
        assert_eq!(c.load(Ordering::SeqCst), want, "slot {slot}");
    }
    let delta = pool.metrics().snapshot().delta_since(&before);
    assert_eq!(delta.totals().iters, n * phases as u64 - 1);
}

/// Timing faults (delayed start, stall, preemption) disturb the schedule
/// but never the result: exact coverage, and the returned `LoopMetrics`
/// agrees with the registry delta and the bodies.
#[test]
fn timing_faults_preserve_exactly_once() {
    let n = 2000u64;
    let plan = FaultPlan::new(11)
        .with_delayed_start(0, Duration::from_millis(5))
        .with_stall(2, 0, 0, Duration::from_millis(2))
        .with_preemption(64, Duration::from_micros(100));
    let pool = Pool::builder(4).faults(plan).build();
    let counts = count_array(n);
    let before = pool.metrics().snapshot();
    let m = parallel_for(&pool, n, &RuntimeScheduler::afs_k_equals_p(), |i| {
        counts[i as usize].fetch_add(1, Ordering::SeqCst);
    });
    assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    assert_eq!(m.total_iters(), n);
    let delta = pool.metrics().snapshot().delta_since(&before);
    assert_eq!(delta.totals().iters, n);
    // Every worker that grabbed left a heartbeat trail.
    assert!(
        delta
            .workers
            .iter()
            .map(|w| w.counters.heartbeats)
            .sum::<u64>()
            > 0
    );
}

/// The watchdog flags a worker frozen mid-phase (and only then): an
/// injected stall longer than several intervals is detected, counted in
/// the registry and — when the sink has a spare lane — traced with the
/// stalled worker's id.
#[test]
fn watchdog_detects_injected_stall() {
    use afs_metrics::trace::{EventKind, TraceSink};
    use std::sync::Arc;

    let p = 2usize;
    // One spare lane beyond the workers' for the watchdog's events.
    let sink = Arc::new(TraceSink::new(p + 1));
    // The stall fires on worker 0's *first* grab attempt: on a busy host a
    // sibling may drain the whole loop before worker 0 is ever scheduled,
    // so a later attempt is not guaranteed to happen.
    let pool = Pool::builder(p)
        .trace(Arc::clone(&sink))
        .faults(FaultPlan::new(1).with_stall(0, 0, 0, Duration::from_millis(400)))
        .watchdog(Duration::from_millis(25))
        .build();
    let m = parallel_for(&pool, 64, &RuntimeScheduler::afs_k_equals_p(), |_| {});
    assert_eq!(m.total_iters(), 64);
    assert!(
        pool.metrics().stalls() >= 1,
        "a 400ms freeze must trip a 25ms watchdog"
    );
    assert_eq!(
        pool.metrics().snapshot().stalls_detected,
        pool.metrics().stalls()
    );
    let flagged: Vec<u32> = sink
        .events(p)
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::StallDetected { worker } => Some(worker),
            _ => None,
        })
        .collect();
    assert!(
        flagged.contains(&0),
        "the stalled worker must be named on the watchdog lane: {flagged:?}"
    );
}

/// An idle pool never accumulates stalls: parked workers waiting for work
/// (and workers waiting at the phase barrier) are not stalled.
#[test]
fn watchdog_stays_quiet_on_healthy_and_idle_pools() {
    let pool = Pool::builder(2).watchdog(Duration::from_millis(10)).build();
    for _ in 0..5 {
        parallel_for(&pool, 500, &RuntimeScheduler::afs_k_equals_p(), |_| {});
    }
    // Idle long enough for several watchdog scans of frozen heartbeats.
    std::thread::sleep(Duration::from_millis(80));
    assert_eq!(pool.metrics().stalls(), 0, "idle workers are not stalled");
}

/// Phase deadlines: an absurdly tight one is missed, a generous one never.
#[test]
fn phase_deadline_misses_are_counted() {
    let strict = Pool::builder(2)
        .phase_deadline(Duration::from_nanos(1))
        .build();
    parallel_for(&strict, 1000, &RuntimeScheduler::afs_k_equals_p(), |_| {});
    assert!(strict.metrics().deadline_misses() >= 1);
    assert_eq!(
        strict.metrics().snapshot().deadline_misses,
        strict.metrics().deadline_misses()
    );

    let lax = Pool::builder(2)
        .phase_deadline(Duration::from_secs(3600))
        .build();
    parallel_for(&lax, 1000, &RuntimeScheduler::afs_k_equals_p(), |_| {});
    assert_eq!(lax.metrics().deadline_misses(), 0);
}

/// Raw `Pool::try_run` panics and loop-body panics compose: a body panic in
/// a region on a pool that previously survived a raw job panic still obeys
/// the exactly-once bound.
#[test]
fn containment_composes_across_region_kinds() {
    let pool = Pool::new(3);
    let err = pool
        .try_run(|w| assert!(w != 2, "raw job panic"))
        .unwrap_err();
    assert_eq!(err.worker(), 2);
    let n = 900u64;
    let counts = count_array(n);
    let m = parallel_for(&pool, n, &RuntimeScheduler::self_sched(), |i| {
        counts[i as usize].fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(m.total_iters(), n);
    assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
}

/// A core scheduler that refuses to start its `at`-th loop.
struct RefusesLoop {
    calls: AtomicU32,
    at: u32,
}

impl afs_core::policy::Scheduler for RefusesLoop {
    fn name(&self) -> String {
        "REFUSES".into()
    }

    fn topology(&self) -> afs_core::policy::QueueTopology {
        afs_core::policy::QueueTopology::Central
    }

    fn begin_loop(&self, n: u64, p: usize) -> Box<dyn afs_core::policy::LoopState> {
        assert!(
            self.calls.fetch_add(1, Ordering::SeqCst) != self.at,
            "begin_loop refused"
        );
        afs_core::schedulers::Gss::new().begin_loop(n, p)
    }
}

/// The driver-internal failure path: the *next phase's source* cannot be
/// produced — the scheduler's `begin_loop` panics, `len_of` panics, or an
/// AFS re-arm is asked for a partition beyond the packed 32-bit cursor
/// range. Unlike a body panic, which never halts a region, that is fatal
/// for the region and for nothing else: the error names the phase that
/// could not start, every earlier phase ran exactly once, no later phase
/// ran at all, every worker was released from every barrier (the call
/// returns), and the same pool runs the next loop cleanly. Phase 0 fails on the calling
/// thread before any worker is involved; later phases fail inside a
/// barrier turn with the rest of the party parked on it.
#[test]
fn unbuildable_phase_is_fatal_to_the_region_only() {
    let (n, p, phases) = (512u64, 4usize, 6usize);
    // (what breaks, message fragment, policy and phase lengths for a break at `k`)
    type Case = (
        &'static str,
        &'static str,
        fn(usize) -> RuntimeScheduler,
        fn(usize, usize) -> u64,
    );
    let cases: [Case; 3] = [
        (
            "begin_loop",
            "begin_loop refused",
            |k| {
                RuntimeScheduler::from_core(RefusesLoop {
                    calls: AtomicU32::new(0),
                    at: k as u32,
                })
            },
            |_, _| 512,
        ),
        (
            "len_of",
            "len_of refused",
            |_| RuntimeScheduler::afs_k_equals_p(),
            |k, ph| {
                assert!(ph != k, "len_of refused");
                512
            },
        ),
        (
            "rearm range",
            "packed 32-bit cursor range",
            |_| RuntimeScheduler::afs_k_equals_p(),
            // 2^32 iterations per queue: one more than a packed cursor holds.
            |k, ph| if ph == k { 4u64 << 32 } else { 512 },
        ),
    ];
    let pool = Pool::new(p);
    for (what, fragment, policy_for, len_for) in &cases {
        for k in [0usize, 1, 3, phases - 1] {
            let ctx = format!("{what} at phase {k}");
            let counts = count_array(n * phases as u64);
            let err = try_parallel_phases(
                &pool,
                phases,
                |ph| len_for(k, ph),
                &policy_for(k),
                |ph, i| {
                    counts[ph * n as usize + i as usize].fetch_add(1, Ordering::SeqCst);
                },
            )
            .expect_err(&ctx);
            assert_eq!(err.phase(), k, "{ctx}");
            assert!(
                err.message().is_some_and(|m| m.contains(fragment)),
                "{ctx}: {:?}",
                err.message()
            );
            let (ran, skipped) = counts.split_at(k * n as usize);
            assert_eq!(ones(ran), k as u64 * n, "{ctx}: phases before the failure");
            assert!(
                skipped.iter().all(|c| c.load(Ordering::SeqCst) == 0),
                "{ctx}: a phase at or after the failure ran"
            );
            // The pool is whole: the next loop covers everything.
            let again = count_array(n);
            let m = parallel_for(&pool, n, &RuntimeScheduler::afs_k_equals_p(), |i| {
                again[i as usize].fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(m.total_iters(), n, "{ctx}");
            assert_eq!(ones(&again), n, "{ctx}");
        }
    }
}
