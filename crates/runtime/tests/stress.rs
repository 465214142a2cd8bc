//! Stress and failure-injection tests for the real-thread runtime.

use afs_core::rng::Xoshiro256;
use afs_runtime::prelude::*;
use afs_runtime::source::{AfsSource, WorkSource};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A slow worker (simulating a transient external load, the paper's
/// processor-arrival scenario) must not lose or duplicate iterations.
#[test]
fn slow_worker_is_rescued_by_steals() {
    let pool = Pool::new(4);
    let n = 4000u64;
    let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let m = parallel_for(&pool, n, &RuntimeScheduler::afs_k_equals_p(), |i| {
        // Iterations in worker 1's initial partition are 100x slower.
        if (1000..2000).contains(&i) {
            std::hint::black_box((0..5_000u64).sum::<u64>());
        }
        counts[i as usize].fetch_add(1, Ordering::Relaxed);
    });
    assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    assert_eq!(m.total_iters(), n);
}

/// Repeated loops on one pool: no state leaks between loops.
#[test]
fn thousand_small_loops() {
    let pool = Pool::new(4);
    let total = AtomicU64::new(0);
    for round in 0..1000u64 {
        let n = 1 + (round % 17);
        let m = parallel_for(&pool, n, &RuntimeScheduler::afs_k_equals_p(), |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(m.total_iters(), n);
    }
    let expect: u64 = (0..1000u64).map(|r| 1 + (r % 17)).sum();
    assert_eq!(total.load(Ordering::Relaxed), expect);
}

/// Zero-length loops and phases are no-ops for every policy.
#[test]
fn zero_length_loops() {
    let pool = Pool::new(3);
    for policy in [
        RuntimeScheduler::static_partition(),
        RuntimeScheduler::self_sched(),
        RuntimeScheduler::gss(),
        RuntimeScheduler::afs_k_equals_p(),
        RuntimeScheduler::mod_factoring(),
    ] {
        let hits = AtomicU64::new(0);
        let m = parallel_for(&pool, 0, &policy, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0, "{}", policy.name());
        assert_eq!(m.total_iters(), 0);
    }
}

/// More workers than iterations: everyone terminates, nothing double-runs.
#[test]
fn more_workers_than_iterations() {
    let pool = Pool::new(8);
    for n in [1u64, 2, 5, 7] {
        let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        parallel_for(&pool, n, &RuntimeScheduler::afs_k_equals_p(), |i| {
            counts[i as usize].fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
            "n = {n}"
        );
    }
}

/// Hammer the AFS source from threads that *only* steal (their own queues
/// are empty because p_workers > p_queues regions never happen — instead we
/// spawn extra thieves beyond the queue owners).
#[test]
fn thieves_beyond_queue_owners() {
    // 4-queue source driven by 8 threads: workers 4..8 have no local queue
    // work mapped to them (their index is out of the queue range), so they
    // must never be handed out-of-range queues.
    let n = 10_000u64;
    let src = AfsSource::new(n, 4, 4);
    let seen: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    std::thread::scope(|s| {
        for w in 0..4 {
            let src = &src;
            let seen = &seen;
            s.spawn(move || {
                while let Some(g) = src.next(w) {
                    for i in g.range.iter() {
                        assert_eq!(seen[i as usize].fetch_add(1, Ordering::SeqCst), 0);
                    }
                }
            });
        }
    });
    assert!(seen.iter().all(|c| c.load(Ordering::SeqCst) == 1));
}

/// Seeded interleaving stress for the lock-free AFS source: deterministic
/// `yield_now` injection between the load and the CAS widens the race
/// window that real schedulers only rarely hit, across 20 seeds × 8
/// threads. Each handed-out range must be covered exactly once, lie inside
/// its reported queue's original static partition (a stolen range is
/// executed indivisibly and never migrates queues), and never be empty.
#[test]
fn afs_lockfree_seeded_interleavings() {
    use afs_core::chunking::static_partition;
    let n = 4_096u64;
    let p = 8usize;
    let parts: Vec<_> = (0..p).map(|i| static_partition(n, p, i)).collect();
    for seed in 0..20u64 {
        let src = AfsSource::new(n, p, p as u64).with_yield_injection(seed);
        let seen: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        std::thread::scope(|s| {
            for w in 0..p {
                let src = &src;
                let seen = &seen;
                let parts = &parts;
                s.spawn(move || {
                    while let Some(g) = src.next(w) {
                        assert!(!g.range.is_empty(), "seed {seed}: empty grab");
                        let home = &parts[g.queue];
                        assert!(
                            g.range.start >= home.start && g.range.end <= home.end,
                            "seed {seed}: grab {:?} outside queue {}'s partition {home:?}",
                            g.range,
                            g.queue,
                        );
                        for i in g.range.iter() {
                            let prev = seen[i as usize].fetch_add(1, Ordering::SeqCst);
                            assert_eq!(prev, 0, "seed {seed}: iteration {i} duplicated");
                        }
                    }
                });
            }
        });
        assert!(
            seen.iter().all(|c| c.load(Ordering::SeqCst) == 1),
            "seed {seed}: incomplete coverage"
        );
    }
}

/// Metrics from concurrent execution are internally consistent.
#[test]
fn concurrent_metrics_consistency() {
    let pool = Pool::new(4);
    let n = 50_000u64;
    for policy in [
        RuntimeScheduler::gss(),
        RuntimeScheduler::afs_k_equals_p(),
        RuntimeScheduler::trapezoid(),
    ] {
        let m = parallel_for(&pool, n, &policy, |_| {});
        assert_eq!(m.total_iters(), n, "{}", policy.name());
        // Per-worker iteration counts sum to the total.
        let worker_sum: u64 = m.iters_per_worker.iter().sum();
        assert_eq!(worker_sum, n);
        // Every synchronized grab is attributed to some queue.
        let queue_sum: u64 = m.per_queue.iter().map(|q| q.synchronized()).sum();
        assert_eq!(queue_sum, m.sync.synchronized(), "{}", policy.name());
    }
}

/// Concurrent AFS coverage under arbitrary (n, p, k), sampled from a fixed
/// seed so every run checks the same deterministic case set.
#[test]
fn afs_source_concurrent_coverage_any_shape() {
    let mut rng = Xoshiro256::seed_from_u64(0x57E5_0001);
    for _ in 0..24 {
        let n = rng.next_below(20_000);
        let p = 1 + rng.next_below(7) as usize;
        let k = 1 + rng.next_below(11);
        let src = AfsSource::new(n, p, k);
        let seen: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        std::thread::scope(|s| {
            for w in 0..p {
                let src = &src;
                let seen = &seen;
                s.spawn(move || {
                    while let Some(g) = src.next(w) {
                        for i in g.range.iter() {
                            let prev = seen[i as usize].fetch_add(1, Ordering::SeqCst);
                            assert_eq!(prev, 0, "iteration {i} duplicated");
                        }
                    }
                });
            }
        });
        assert!(seen.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }
}

/// Seeded interleaving stress for the sense-reversing phase barrier:
/// deterministic `yield_now` injection at the protocol's race windows
/// (arrival increment → sense re-check, sleeper registration → park),
/// 8 threads × 20 seeds. Phases must never overlap — every iteration of
/// phase `ph − 1` is visible before any body of phase `ph` runs — and the
/// run must complete (a lost wakeup would park a worker forever).
#[test]
fn spin_barrier_seeded_interleavings() {
    let p = 8;
    let phases = 40usize;
    let len = 64u64;
    for seed in 0..20u64 {
        // Zero spin budget + tiny yield budget drives every waiter through
        // the yield ladder *and* the parking fallback under injection.
        let pool = Pool::builder(p)
            .spin_budget(0, 2)
            .yield_injection(seed)
            .build();
        let counts: Vec<AtomicU64> = (0..phases).map(|_| AtomicU64::new(0)).collect();
        let m = parallel_phases(
            &pool,
            phases,
            |_| len,
            &RuntimeScheduler::afs_k_equals_p(),
            |ph, _i| {
                if ph > 0 {
                    let prev = counts[ph - 1].load(Ordering::SeqCst);
                    assert_eq!(
                        prev,
                        len,
                        "seed {seed}: phase {ph} body ran before phase {} drained",
                        ph - 1
                    );
                }
                counts[ph].fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(m.total_iters(), phases as u64 * len, "seed {seed}");
        for (ph, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), len, "seed {seed}: phase {ph}");
        }
    }
}

/// 10k tiny phases through the fused driver produce exactly the metrics
/// the static partition predicts. STATIC's metrics are fully deterministic
/// (fixed partition, zero synchronized grabs), so equality is exact —
/// worker by worker.
#[test]
fn ten_thousand_tiny_phases_match_the_static_partition() {
    use afs_core::chunking::static_partition;
    let phases = 10_000usize;
    let p = 4;
    let len_of = |ph: usize| (ph % 3) as u64 + 1;
    let pool = Pool::new(p);
    let total = AtomicU64::new(0);
    let m = parallel_phases(
        &pool,
        phases,
        len_of,
        &RuntimeScheduler::static_partition(),
        |_, _| {
            total.fetch_add(1, Ordering::Relaxed);
        },
    );
    let expect: Vec<u64> = (0..p)
        .map(|w| {
            (0..phases)
                .map(|ph| static_partition(len_of(ph), p, w).len())
                .sum()
        })
        .collect();
    assert_eq!(total.load(Ordering::Relaxed), expect.iter().sum::<u64>());
    assert_eq!(m.total_iters(), expect.iter().sum::<u64>());
    assert_eq!(m.iters_per_worker, expect);
    assert_eq!(m.sync.synchronized(), 0);
}

/// Every policy covers every (phase, iteration) exactly once on eight
/// threads, and its `LoopMetrics` match the policy's `afs_core` state
/// machine to the extent they are schedule-independent — total iterations
/// always; synchronized-grab counts for the central-queue policies (the
/// chunk-size recurrence depends only on the remaining count, which the
/// queue lock serializes), checked against a single-threaded drain of the
/// core state machine; zero central grabs for the distributed AFS family
/// (the local/remote split itself is timing-dependent by design).
#[test]
fn all_policies_cover_exactly_and_match_core_grab_counts() {
    use afs_core::policy::Scheduler;
    use afs_core::schedulers::{Factoring, Gss, SelfSched, StaticSched, Trapezoid};
    // (policy, its `afs_core` reference where the synchronized-grab count
    // is schedule-independent; `None` for the distributed AFS family).
    let cases: Vec<(RuntimeScheduler, Option<Box<dyn Scheduler>>)> = vec![
        (
            RuntimeScheduler::static_partition(),
            Some(Box::new(StaticSched::new())),
        ),
        (
            RuntimeScheduler::self_sched(),
            Some(Box::new(SelfSched::new())),
        ),
        (RuntimeScheduler::gss(), Some(Box::new(Gss::new()))),
        (
            RuntimeScheduler::factoring(),
            Some(Box::new(Factoring::new())),
        ),
        (
            RuntimeScheduler::trapezoid(),
            Some(Box::new(Trapezoid::new())),
        ),
        (RuntimeScheduler::afs_k_equals_p(), None),
        (RuntimeScheduler::afs_with_k(2), None),
        (RuntimeScheduler::afs_grab_ahead(8), None),
    ];
    let n = 3_000u64;
    let phases = 4usize;
    let p = 8;
    let pool = Pool::new(p);
    for (policy, reference) in cases {
        let name = policy.name();
        let counts: Vec<AtomicU32> = (0..n * phases as u64).map(|_| AtomicU32::new(0)).collect();
        let m = parallel_phases(
            &pool,
            phases,
            |_| n,
            &policy,
            |ph, i| {
                let slot = ph as u64 * n + i;
                let prev = counts[slot as usize].fetch_add(1, Ordering::SeqCst);
                assert_eq!(prev, 0, "{name}: ({ph}, {i}) duplicated");
            },
        );
        assert!(
            counts.iter().all(|c| c.load(Ordering::SeqCst) == 1),
            "{name}: incomplete coverage"
        );
        assert_eq!(
            m.total_iters(),
            n * phases as u64,
            "{name}: wrong iteration total"
        );
        match reference {
            Some(core) => {
                let mut state = core.begin_loop(n, p);
                let mut per_phase = afs_core::SyncOps::default();
                let mut w = 0;
                while let Some(g) = state.next(w % p) {
                    per_phase.record(g.access);
                    w += 1;
                }
                assert_eq!(
                    m.sync.synchronized(),
                    per_phase.synchronized() * phases as u64,
                    "{name}: synchronized-grab count diverges from the core state machine"
                );
            }
            None => assert_eq!(m.sync.central, 0, "{name}"),
        }
    }
}

/// Lost-wakeup regression under injected stalls: zero spin/yield budgets
/// force every rendezvous wait through the eventcount park branch, seeded
/// yield injection widens the register-vs-publish race window, and a
/// stalled worker stretches each phase so its siblings genuinely park
/// (rather than catching the flag mid-spin). A lost wakeup parks a worker
/// forever and hangs the test; completion plus exact coverage is the
/// assertion.
#[test]
fn park_branch_survives_injected_stalls() {
    use std::time::Duration;
    let p = 4usize;
    let phases = 6usize;
    let n = 256u64;
    for seed in 0..20u64 {
        let pool = Pool::builder(p)
            .spin_budget(0, 0)
            .yield_injection(seed)
            .faults(
                FaultPlan::new(seed)
                    .with_delayed_start(1, Duration::from_millis(2))
                    .with_stall(
                        0,
                        (seed % phases as u64) as usize,
                        0,
                        Duration::from_millis(3),
                    ),
            )
            .build();
        let counts: Vec<AtomicU32> = (0..n * phases as u64).map(|_| AtomicU32::new(0)).collect();
        let m = parallel_phases(
            &pool,
            phases,
            |_| n,
            &RuntimeScheduler::afs_k_equals_p(),
            |ph, i| {
                let prev = counts[ph * n as usize + i as usize].fetch_add(1, Ordering::SeqCst);
                assert_eq!(prev, 0, "seed {seed}: ({ph}, {i}) duplicated");
            },
        );
        assert_eq!(m.total_iters(), n * phases as u64, "seed {seed}");
        assert!(
            counts.iter().all(|c| c.load(Ordering::SeqCst) == 1),
            "seed {seed}: incomplete coverage"
        );
        let t = pool.metrics().snapshot().totals();
        assert!(
            t.barrier_park > 0,
            "seed {seed}: the park branch was never exercised"
        );
    }
}

/// `parallel_phases` covers every (phase, iteration) exactly once for
/// arbitrary phase-length vectors.
#[test]
fn phases_cover_exactly_once() {
    let mut rng = Xoshiro256::seed_from_u64(0x57E5_0002);
    for _ in 0..24 {
        let n_phases = 1 + rng.next_below(7) as usize;
        let lens: Vec<u64> = (0..n_phases).map(|_| rng.next_below(200)).collect();
        let workers = 1 + rng.next_below(5) as usize;
        let pool = Pool::new(workers);
        let total: u64 = lens.iter().sum();
        let offsets: Vec<u64> = lens
            .iter()
            .scan(0, |acc, &l| {
                let o = *acc;
                *acc += l;
                Some(o)
            })
            .collect();
        let counts: Vec<AtomicU32> = (0..total.max(1)).map(|_| AtomicU32::new(0)).collect();
        parallel_phases(
            &pool,
            lens.len(),
            |ph| lens[ph],
            &RuntimeScheduler::afs_k_equals_p(),
            |ph, i| {
                counts[(offsets[ph] + i) as usize].fetch_add(1, Ordering::SeqCst);
            },
        );
        for (idx, c) in counts.iter().enumerate().take(total as usize) {
            assert_eq!(c.load(Ordering::SeqCst), 1, "slot {idx} miscounted");
        }
    }
}
