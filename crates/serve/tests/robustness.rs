//! Robustness integration tests: panic isolation inside fused batches,
//! deadline expiry and predictive shedding, pool supervision, and the
//! admission ring's push-versus-shutdown-drain race.
//!
//! CI runs them in release mode with the rest of the crate's tests — the
//! `panic_` and `supervisor_` families are the ones that would catch a
//! containment or restart race, and those only mean anything under
//! optimized codegen.

use afs_runtime::{FaultPlan, Pool};
use afs_serve::prelude::*;
use afs_serve::MpmcQueue;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn req(tenant: usize, n: u64, phases: u32) -> LoopRequest {
    LoopRequest {
        tenant,
        kernel: ServeKernel::Touch,
        n,
        phases,
        policy: ServePolicy::Afs,
        deadline: None,
    }
}

/// A request under STATIC partitioning: worker ownership of iterations is
/// deterministic, so an injected panic-at-iteration fires predictably.
fn static_req(n: u64, phases: u32) -> LoopRequest {
    LoopRequest {
        tenant: 0,
        kernel: ServeKernel::Touch,
        n,
        phases,
        policy: ServePolicy::Static,
        deadline: None,
    }
}

/// Tentpole, part 1: a poisoned request in a fused batch fails alone.
/// Worker 1 owns [1024, 2048) of a 4096-iteration static phase on 4
/// workers, so the one-shot injected panic at iteration 1500 fires in
/// the *first* request of the batch and nowhere else. Its co-batched
/// requests complete exactly once, the dispatcher survives, and the
/// same server keeps serving afterwards.
#[test]
fn panic_in_a_fused_batch_fails_only_the_faulting_request() {
    let pool = Arc::new(
        Pool::builder(4)
            .faults(FaultPlan::new(7).with_panic_at(1, 0, 1500))
            .build(),
    );
    let server = LoopServer::builder(Arc::clone(&pool))
        .tenant("t")
        .discipline(Discipline::Batch {
            max_requests: 8,
            max_iters: 1 << 20,
        })
        .manual()
        .build();
    for _ in 0..8 {
        assert!(server.admit(static_req(4096, 1)).is_accepted());
    }
    assert_eq!(server.pump(), 8);
    // All 8 fuse into one dispatch; the dispatch itself must not unwind.
    let ran = server.dispatch_next();
    assert_eq!(ran.len(), 8);
    let snap = server.serve_snapshot();
    assert_eq!(snap.admitted, 8);
    assert_eq!(snap.completed, 7, "batchmates complete exactly once");
    assert_eq!(snap.failed, 1, "exactly the poisoned request fails");
    assert_eq!(snap.dispatches, 1);
    assert_eq!(snap.tenants[0].failed, 1);
    // Completion stamps fired only for the survivors.
    assert_eq!(snap.tenants[0].sojourn_ns.samples, 7);
    // The fault is one-shot and containment leaves the pool healthy: the
    // same server serves the next batch cleanly.
    for _ in 0..4 {
        assert!(server.admit(static_req(512, 2)).is_accepted());
    }
    server.pump();
    while !server.dispatch_next().is_empty() {}
    let snap = server.serve_snapshot();
    assert_eq!(snap.completed, 11);
    assert_eq!(snap.failed, 1);
    // Outcome accounting reaches the metrics snapshot.
    let serve = server
        .metrics_snapshot()
        .serve
        .expect("serve block attached");
    assert_eq!(serve.failed, 1);
    assert_eq!(serve.completed - serve.timed_out, 11);
}

/// The contained failure names its blast site: the trace's serve lane
/// carries a `RequestFailed` event with the panicking worker and phase.
#[test]
fn panic_containment_traces_worker_and_phase() {
    use afs_metrics::trace::prelude::*;
    let p = 4;
    let sink = Arc::new(TraceSink::new(p + 2));
    let pool = Arc::new(
        Pool::builder(p)
            .trace(Arc::clone(&sink))
            // Phase index 1 of the three-phase request below.
            .faults(FaultPlan::new(3).with_panic_at(2, 1, 2500))
            .build(),
    );
    let server = LoopServer::builder(pool)
        .tenant("t")
        .trace(Arc::clone(&sink))
        .manual()
        .build();
    assert!(server.admit(static_req(4096, 3)).is_accepted());
    server.pump();
    server.dispatch_next();
    let snap = server.serve_snapshot();
    assert_eq!(snap.failed, 1);
    drop(server);
    let failures: Vec<(u32, u32)> = sink
        .events(p + 1)
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RequestFailed { worker, phase, .. } => Some((worker, phase)),
            _ => None,
        })
        .collect();
    assert_eq!(failures, vec![(2, 1)], "blast site is (worker 2, phase 1)");
}

/// A request with more than `u32::MAX` iterations a phase is a caller
/// bug: `admit` panics before booking anything, whether the server is
/// driven manually or an idle dispatcher sleeps (where the admit itself
/// would dispatch it), and the same server goes on serving with an exact
/// ledger.
#[test]
fn oversized_request_panics_at_admit_and_books_nothing() {
    let huge = req(0, (1 << 33) + 4, 1);
    for manual in [true, false] {
        let builder = LoopServer::builder(Arc::new(Pool::new(2))).tenant("t");
        let server = if manual {
            builder.manual().build()
        } else {
            builder.build()
        };
        let refused =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.admit(huge.clone())));
        assert!(
            refused.is_err(),
            "manual={manual}: an oversized admit panics"
        );
        assert_eq!(server.pending(), 0, "manual={manual}: nothing booked");
        assert!(server.admit(req(0, 4096, 1)).is_accepted());
        if manual {
            server.pump();
            while !server.dispatch_next().is_empty() {}
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.pending() > 0 {
            assert!(
                Instant::now() < deadline,
                "manual={manual}: a request stranded"
            );
            std::thread::yield_now();
        }
        let ledger = server.shutdown();
        assert_eq!(ledger.admitted, 1, "manual={manual}");
        assert_eq!(ledger.completed, 1, "manual={manual}");
        assert_eq!(ledger.failed + ledger.expired, 0, "manual={manual}");
        assert_eq!(ledger.tenants[0].iters, 4096, "manual={manual}");
    }
}

/// Tentpole, part 2: a queued request whose deadline elapses before
/// dispatch retires as `Expired` without costing a pool dispatch.
#[test]
fn queued_requests_expire_without_touching_the_pool() {
    let pool = Arc::new(Pool::new(2));
    let server = LoopServer::builder(pool).tenant("t").manual().build();
    for _ in 0..4 {
        let mut r = req(0, 256, 1);
        r.deadline = Some(Duration::from_nanos(1));
        assert!(server.admit(r).is_accepted());
    }
    assert_eq!(server.pump(), 4);
    std::thread::sleep(Duration::from_millis(2));
    // Each select pops one already-dead request; none reaches the pool.
    for _ in 0..4 {
        assert!(server.dispatch_next().is_empty());
    }
    let snap = server.serve_snapshot();
    assert_eq!(snap.expired, 4);
    assert_eq!(snap.completed, 0);
    assert_eq!(snap.dispatches, 0, "expiry must not cost a pool dispatch");
    assert_eq!(snap.tenants[0].expired, 4);
    assert_eq!(server.pending(), 0, "expired requests leave the backlog");
    // A live request still dispatches normally afterwards.
    assert!(server.admit(req(0, 256, 1)).is_accepted());
    server.pump();
    assert_eq!(server.dispatch_next().len(), 1);
    assert_eq!(server.serve_snapshot().completed, 1);
}

/// A request that completes after its deadline is `TimedOut`: counted
/// completed (the work ran exactly once) *and* timed-out.
#[test]
fn late_completion_counts_as_timed_out() {
    let pool = Arc::new(Pool::new(2));
    let server = LoopServer::builder(pool).tenant("t").manual().build();
    let mut r = req(0, 4096, 2);
    r.deadline = Some(Duration::from_nanos(1));
    assert!(server.admit(r).is_accepted());
    server.pump();
    // Dispatch immediately: the deadline has long passed by completion,
    // but expiry checks run at *selection* — make sure a request that
    // was selected before anyone noticed still completes. (To dodge the
    // selection-time expiry we dispatch in the same instant; if the
    // clock already moved past 1ns — it has — the request expires
    // instead, which is also a legal outcome. Accept either, but the
    // ledger must balance exactly.)
    server.dispatch_next();
    let snap = server.serve_snapshot();
    assert_eq!(snap.admitted, 1);
    assert_eq!(
        snap.completed + snap.expired,
        1,
        "exactly one of completed/expired"
    );
    if snap.completed == 1 {
        assert_eq!(snap.timed_out, 1, "a late completion is TimedOut");
    }
    assert_eq!(server.pending(), 0);
}

/// Tentpole, part 2 (admission side): once the per-tenant EWMA service
/// rate is seeded, hopeless deadlines shed as `DeadlineHopeless` and
/// SLO-budget overruns as `SloBudget` — before the queue is touched.
#[test]
fn seeded_predictor_sheds_hopeless_deadlines_and_slo_overruns() {
    let pool = Arc::new(Pool::new(2));
    let server = LoopServer::builder(pool)
        .tenant("free")
        .tenant_spec(TenantSpec::new("strict").slo(Duration::from_nanos(1)))
        .manual()
        .build();
    // Unseeded predictors abstain: even the strict tenant admits.
    assert!(server.admit(req(0, 2048, 1)).is_accepted());
    assert!(server.admit(req(1, 2048, 1)).is_accepted());
    server.pump();
    while !server.dispatch_next().is_empty() {}
    assert_eq!(server.serve_snapshot().completed, 2);
    // Both tenants' rates are now seeded; any nonzero predicted sojourn
    // beats a 1ns budget.
    let mut hopeless = req(0, 2048, 1);
    hopeless.deadline = Some(Duration::from_nanos(1));
    assert_eq!(
        server.admit(hopeless),
        Admit::Shed(ShedReason::DeadlineHopeless)
    );
    assert_eq!(
        server.admit(req(1, 2048, 1)),
        Admit::Shed(ShedReason::SloBudget)
    );
    // The free tenant without a deadline still admits — prediction sheds
    // only against an explicit constraint.
    assert!(server.admit(req(0, 2048, 1)).is_accepted());
    let snap = server.serve_snapshot();
    assert_eq!(snap.shed_deadline_hopeless, 1);
    assert_eq!(snap.shed_slo_budget, 1);
    assert_eq!(snap.tenants[0].shed, 1);
    assert_eq!(snap.tenants[1].shed, 1);
    server.pump();
    while !server.dispatch_next().is_empty() {}
}

/// Tentpole, part 3: the supervisor notices a pool that spawned degraded
/// (fewer live workers than requested), dumps its flight recorder,
/// swaps in the factory's replacement, and the server keeps serving on
/// the healthy pool. The wounded pool's recorder keeps the forensic
/// trigger after the swap.
#[test]
fn supervisor_replaces_a_spawn_degraded_pool() {
    let wounded = Arc::new(Pool::builder(2).fail_spawn_after(1).build());
    assert!(
        wounded.metrics().snapshot().effective_workers < 2,
        "precondition: the pool must actually be degraded"
    );
    let wounded_recorder = Arc::clone(wounded.recorder());
    let server = LoopServer::builder(Arc::clone(&wounded))
        .tenant("t")
        .supervise(
            SupervisorConfig::default()
                .interval(Duration::from_millis(1))
                .initial_backoff(Duration::from_millis(1)),
            |_restart| Arc::new(Pool::new(2)),
        )
        .build();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.serve_snapshot().supervisor_restarts == 0 {
        assert!(Instant::now() < deadline, "supervisor never restarted");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The served pool is now the healthy replacement.
    let snap = server.pool().metrics().snapshot();
    assert_eq!(snap.effective_workers, 2);
    // Forensics fired on the wounded pool before it was retired:
    // trigger index 2 is spawn_degraded.
    assert!(wounded_recorder.triggered());
    assert!(wounded_recorder.trigger_counts()[2] >= 1);
    // And the server serves on: work admitted after the swap completes.
    for _ in 0..8 {
        assert!(server.admit(req(0, 512, 1)).is_accepted());
    }
    server.drain();
    let ledger = server.shutdown();
    assert_eq!(ledger.completed, 8);
    assert!(ledger.supervisor_restarts >= 1);
}

/// Repeated contained failures justify a restart: with the failure
/// threshold at 1, a single poisoned request makes the supervisor retire
/// the faulted pool, and requests after the swap run on a clean one.
#[test]
fn supervisor_restarts_after_repeated_contained_failures() {
    let faulted = Arc::new(
        Pool::builder(4)
            .faults(FaultPlan::new(7).with_panic_at(1, 0, 1500))
            .build(),
    );
    let server = LoopServer::builder(faulted)
        .tenant("t")
        .supervise(
            SupervisorConfig::default()
                .interval(Duration::from_millis(1))
                .initial_backoff(Duration::from_millis(1))
                .failure_threshold(1),
            |_restart| Arc::new(Pool::new(4)),
        )
        .build();
    assert!(server.admit(static_req(4096, 1)).is_accepted());
    server.drain();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.serve_snapshot().supervisor_restarts == 0 {
        assert!(Instant::now() < deadline, "supervisor never restarted");
        std::thread::sleep(Duration::from_millis(1));
    }
    for _ in 0..8 {
        assert!(server.admit(static_req(1024, 1)).is_accepted());
    }
    server.drain();
    let ledger = server.shutdown();
    assert_eq!(ledger.admitted, 9);
    assert_eq!(ledger.failed, 1);
    assert_eq!(ledger.completed, 8);
    assert!(ledger.supervisor_restarts >= 1);
}

/// The failure baseline belongs to `build()`, not to the watcher thread's
/// first instruction: with a poll interval far longer than the requests
/// take, the whole threshold's worth of failures is on the books before
/// the supervisor's first poll — and however late its thread was first
/// scheduled, that poll must still see them as *new* and restart. (The
/// one-shot panics sit in different phases so each poisons its own
/// request: worker 1 in phase 0 of the first, worker 2 in phase 1 of the
/// second.)
#[test]
fn supervisor_counts_failures_that_precede_its_first_poll() {
    let faulted = Arc::new(
        Pool::builder(4)
            .faults(
                FaultPlan::new(7)
                    .with_panic_at(1, 0, 1500)
                    .with_panic_at(2, 1, 2500),
            )
            .build(),
    );
    let server = LoopServer::builder(faulted)
        .tenant("t")
        .supervise(
            SupervisorConfig::default()
                .interval(Duration::from_millis(250))
                .initial_backoff(Duration::from_millis(1))
                .failure_threshold(2),
            |_restart| Arc::new(Pool::new(4)),
        )
        .build();
    assert!(server.admit(static_req(4096, 1)).is_accepted());
    assert!(server.admit(static_req(4096, 2)).is_accepted());
    server.drain();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.serve_snapshot().supervisor_restarts == 0 {
        assert!(Instant::now() < deadline, "supervisor never restarted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let ledger = server.shutdown();
    assert_eq!(ledger.admitted, 2);
    assert_eq!(ledger.failed, 2);
    assert_eq!(ledger.supervisor_restarts, 1);
}

/// The server's one standing region carries nothing from a panicked
/// request into the next. Worker 1 owns [2048, 4096) of a 4096-iteration
/// static phase on 2 workers, so the one-shot panic at 3000 poisons the
/// first two-phase request's phase 0, and its phase 1 is skipped. The
/// clean request after it, on the same region, runs both its phases in
/// full and completes at its count, not in a barrier turn.
#[test]
fn a_panicked_request_leaves_nothing_in_the_region_for_the_next() {
    let pool = Arc::new(
        Pool::builder(2)
            .faults(FaultPlan::new(7).with_panic_at(1, 0, 3000))
            .build(),
    );
    let server = LoopServer::builder(pool)
        .tenant_spec(TenantSpec::new("t").workset_slots(4096))
        .manual()
        .build();
    assert!(server.admit(static_req(4096, 2)).is_accepted());
    assert_eq!(server.pump(), 1);
    assert_eq!(server.dispatch_next().len(), 1);
    let ledger = server.serve_snapshot();
    assert_eq!((ledger.completed, ledger.failed), (0, 1));
    assert_eq!(
        ledger.turn_retires, 1,
        "the poisoned request retires in the turn"
    );
    assert!(server.admit(static_req(4096, 2)).is_accepted());
    assert_eq!(server.pump(), 1);
    assert_eq!(server.dispatch_next().len(), 1);
    let ledger = server.serve_snapshot();
    assert_eq!((ledger.completed, ledger.failed), (1, 1));
    assert_eq!(
        ledger.turn_retires, 1,
        "the clean request retires at its count"
    );
    assert_eq!(ledger.tenants[0].iters, 4095 + 2 * 4096);
    let mut touched = vec![3u64; 4096];
    touched[3000] = 2;
    assert_eq!(
        server.workset_values(0),
        touched,
        "every iteration ran once"
    );
    assert_eq!(server.pending(), 0);
}

/// A supervisor pool swap under load: the next launch builds a standing
/// region for the replacement, so what runs there lands in its counters
/// and its flight recorder, and the ledger stays exact across the swap.
/// A client thread keeps admitting while one poisoned request (worker 1
/// owns [2048, 4096) of a 4096-iteration static phase on 2 workers) makes
/// the supervisor retire the faulted pool.
#[test]
fn pool_swap_under_load_builds_a_region_for_the_new_pool() {
    let faulted = Arc::new(
        Pool::builder(2)
            .faults(FaultPlan::new(7).with_panic_at(1, 0, 3000))
            .build(),
    );
    let server = LoopServer::builder(Arc::clone(&faulted))
        .tenant_spec(TenantSpec::new("t").backlog_cap(1 << 16))
        .supervise(
            SupervisorConfig::default()
                .interval(Duration::from_millis(1))
                .initial_backoff(Duration::from_millis(1))
                .failure_threshold(1)
                .max_restarts(1),
            |_restart| Arc::new(Pool::new(2)),
        )
        .build();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let load = s.spawn(|| {
            let mut accepted = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if server.pending() > 32 {
                    std::thread::yield_now();
                } else if server.admit(req(0, 256, 1)).is_accepted() {
                    accepted += 1;
                }
            }
            accepted
        });
        assert!(server.admit(static_req(4096, 1)).is_accepted());
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.serve_snapshot().supervisor_restarts == 0 {
            assert!(Instant::now() < deadline, "supervisor never restarted");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Load keeps running on the replacement for a while.
        let after_swap = server.serve_snapshot().completed + 200;
        while server.serve_snapshot().completed < after_swap {
            assert!(Instant::now() < deadline, "no progress after the swap");
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        assert!(load.join().unwrap() > 0);
    });
    server.drain();
    let replacement = server.pool();
    assert!(!Arc::ptr_eq(&replacement, &faulted));
    let before = replacement.metrics().snapshot().totals().iters;
    let seqs = |pool: &Pool| pool.recorder().phase_records().last().map(|r| r.seq);
    let (faulted_seq, replacement_seq) = (seqs(&faulted), seqs(&replacement));
    for _ in 0..16 {
        assert!(server.admit(req(0, 512, 1)).is_accepted());
        server.drain();
    }
    let ran = replacement.metrics().snapshot().totals().iters - before;
    assert_eq!(ran, 16 * 512, "requests after the swap run on its region");
    assert_eq!(
        seqs(&faulted),
        faulted_seq,
        "nothing more on the retired pool"
    );
    assert!(seqs(&replacement) > replacement_seq);
    let ledger = server.shutdown();
    assert_eq!(ledger.supervisor_restarts, 1);
    assert_eq!(ledger.failed, 1);
    assert_eq!(ledger.expired + ledger.shed_shutdown, 0);
    assert_eq!(ledger.completed + ledger.failed, ledger.admitted);
    let tenant = &ledger.tenants[0];
    assert_eq!(tenant.completed + tenant.failed, tenant.admitted);
}

/// A healthy pool under supervision is left alone: no restarts, ever.
#[test]
fn supervisor_leaves_a_healthy_pool_alone() {
    let server = LoopServer::builder(Arc::new(Pool::new(2)))
        .tenant("t")
        .supervise(
            SupervisorConfig::default().interval(Duration::from_millis(1)),
            |_| Arc::new(Pool::new(2)),
        )
        .build();
    for _ in 0..16 {
        assert!(server.admit(req(0, 512, 1)).is_accepted());
    }
    server.drain();
    std::thread::sleep(Duration::from_millis(20));
    let ledger = server.shutdown();
    assert_eq!(ledger.completed, 16);
    assert_eq!(ledger.supervisor_restarts, 0);
}

/// Satellite: the admission ring under a push-versus-shutdown-drain
/// race, across 20 seeded interleavings. Producers push request ids
/// while a "dispatcher" pops until the shutdown flag goes up; the
/// "shutdown sweep" then drains the remainder. Every pushed id must
/// land in exactly one of the two sets — a request can be dispatched or
/// shed-as-shutdown, never both, never neither.
#[test]
fn mpmc_queue_push_racing_shutdown_drain_loses_nothing() {
    const PRODUCERS: u64 = 3;
    const PER_PRODUCER: u64 = 400;
    for seed in 0..20u64 {
        let q = MpmcQueue::<u64>::new(64).with_yield_injection(seed);
        let stop = AtomicBool::new(false);
        let (mut pushed, dispatched) = std::thread::scope(|s| {
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let (q, stop) = (&q, &stop);
                    s.spawn(move || {
                        let mut pushed = Vec::new();
                        'ids: for i in 0..PER_PRODUCER {
                            let id = p * PER_PRODUCER + i;
                            let mut v = id;
                            loop {
                                // Shutdown refuses at the door, exactly
                                // like `admit` does — a producer must
                                // never spin on a full ring nobody will
                                // drain again.
                                if stop.load(Ordering::Acquire) {
                                    continue 'ids;
                                }
                                match q.push(v) {
                                    Ok(()) => {
                                        pushed.push(id);
                                        break;
                                    }
                                    Err(back) => {
                                        v = back;
                                        std::thread::yield_now();
                                    }
                                }
                            }
                        }
                        pushed
                    })
                })
                .collect();
            let dispatcher = s.spawn(|| {
                let mut got = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    while let Some(id) = q.pop() {
                        got.push(id);
                    }
                    std::thread::yield_now();
                }
                got
            });
            // Let the race run, then raise shutdown mid-flight: some ids
            // are already dispatched, some sit in the ring for the sweep,
            // some get refused at the door.
            std::thread::sleep(Duration::from_micros(200 + seed * 37));
            stop.store(true, Ordering::Release);
            let dispatched = dispatcher.join().unwrap();
            let pushed: Vec<u64> = producers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            (pushed, dispatched)
        });
        // The shutdown sweep: everything still in the ring.
        let mut all = dispatched;
        let sweep_start = all.len();
        while let Some(id) = q.pop() {
            all.push(id);
        }
        let swept = all.len() - sweep_start;
        assert_eq!(
            all.len(),
            pushed.len(),
            "seed {seed}: dispatched {} + swept {swept} must cover every push",
            sweep_start
        );
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            pushed.len(),
            "seed {seed}: an id was both dispatched and swept"
        );
        pushed.sort_unstable();
        assert_eq!(all, pushed, "seed {seed}: sets differ");
        assert!(q.is_empty(), "seed {seed}: sweep left residue");
    }
}

/// The server-level version of the same race: concurrent admitters versus
/// shutdown. Whatever the interleaving, the ledger is exact — every
/// accepted request is either completed or stranded-shed, never both.
#[test]
fn server_shutdown_race_keeps_the_ledger_exact() {
    for seed in 0..20u64 {
        let pool = Arc::new(Pool::new(2));
        let server = LoopServer::builder(pool)
            .tenant_spec(TenantSpec::new("t").backlog_cap(100_000))
            .queue_capacity(256)
            .queue_yield_injection(seed)
            .build();
        let accepted = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let server = &server;
                    s.spawn(move || {
                        let mut accepted = 0u64;
                        for _ in 0..200 {
                            match server.admit(req(0, 32, 1)) {
                                Admit::Accepted { .. } => accepted += 1,
                                Admit::Shed(_) => {}
                            }
                        }
                        accepted
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        });
        let snap = server.shutdown();
        assert_eq!(snap.admitted, accepted, "seed {seed}");
        // No deadlines, no faults: accepted splits exactly between
        // completed and stranded-at-shutdown (here: zero — admitters
        // joined before shutdown, so the dispatcher drains everything;
        // the exactness of the sum is the invariant).
        assert_eq!(
            snap.completed + snap.shed_shutdown,
            accepted,
            "seed {seed}: a request was double-accounted or lost"
        );
        assert_eq!(snap.failed + snap.expired, 0, "seed {seed}");
    }
}
