//! Seeded-interleaving stress for the MPMC admission ring: producers ×
//! consumers × 20 seeds, with deterministic yield injection at the CAS
//! race windows. The contract under every provoked schedule: every value
//! pushed successfully is popped exactly once (a counter ledger over the
//! value space), every push refusal really happened against a full ring,
//! and nothing is lost or duplicated across wrap-around.
//!
//! Second half: the admit → parked-dispatcher hand-off. An idle dispatcher
//! parks; an admit then dispatches on its own thread, or wakes it when it
//! cannot, and `shutdown` and `Drop` must wake it. Every test here fails
//! (by timeout) on a build where a request can be left behind a sleeping
//! dispatcher.
//!
//! Third part: the same waiting rule applied to a batch in flight. A
//! dispatch that outlasts the 64-poll grace parks its waiter; the ring
//! buffers meanwhile, and shutdown still drains. A pool somebody else
//! holds is waited for the same way.
//!
//! Last: a fused batch is one runtime region. A batch mixing every
//! serving policy, under the pool's barrier yield injection, runs each
//! iteration exactly once across the turn's source re-arms, replacements
//! and rebuilds, and writes one phase record per request-phase.

use afs_runtime::{FaultPlan, Pool};
use afs_serve::prelude::*;
use afs_serve::MpmcQueue;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Exactly-once delivery under concurrency: P producers push tagged
/// values through a small ring (forcing wrap-around and full-ring
/// refusals), C consumers drain it. The ledger counts receipts per
/// value; at the end every *successfully pushed* value has exactly one
/// receipt and the shed values have none.
#[test]
fn seeded_mpmc_exactly_once_ledger() {
    const PRODUCERS: usize = 4;
    const CONSUMERS: usize = 3;
    const PER_PRODUCER: u64 = 2_000;
    for seed in 0..20u64 {
        let q = Arc::new(MpmcQueue::<u64>::new(64).with_yield_injection(seed));
        let total = PRODUCERS as u64 * PER_PRODUCER;
        let ledger: Arc<Vec<AtomicU32>> = Arc::new((0..total).map(|_| AtomicU32::new(0)).collect());
        let pushed: Arc<Vec<AtomicU32>> = Arc::new((0..total).map(|_| AtomicU32::new(0)).collect());
        let produced = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            let pushed = Arc::clone(&pushed);
            let produced = Arc::clone(&produced);
            handles.push(thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let val = p as u64 * PER_PRODUCER + i;
                    // Retry on full: this stress wants delivery, and the
                    // full ring is exercised constantly by the tiny
                    // capacity. The shed path gets its own test below.
                    loop {
                        match q.push(val) {
                            Ok(()) => break,
                            Err(v) => {
                                assert_eq!(v, val, "push must return the refused value");
                                thread::yield_now();
                            }
                        }
                    }
                    pushed[val as usize].fetch_add(1, Ordering::SeqCst);
                    produced.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for _ in 0..CONSUMERS {
            let q = Arc::clone(&q);
            let ledger = Arc::clone(&ledger);
            let produced = Arc::clone(&produced);
            handles.push(thread::spawn(move || loop {
                match q.pop() {
                    Some(val) => {
                        ledger[val as usize].fetch_add(1, Ordering::SeqCst);
                    }
                    None => {
                        // Drained *and* production finished ⇒ done. The
                        // order matters: check production first, then
                        // take one more pass at the ring.
                        if produced.load(Ordering::SeqCst) == PRODUCERS as u64 * PER_PRODUCER
                            && q.pop()
                                .map(|val| ledger[val as usize].fetch_add(1, Ordering::SeqCst))
                                .is_none()
                        {
                            return;
                        }
                        thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(q.is_empty(), "seed {seed}: ring not drained");
        for v in 0..total as usize {
            assert_eq!(
                pushed[v].load(Ordering::SeqCst),
                1,
                "seed {seed}: value {v} pushed wrong number of times"
            );
            assert_eq!(
                ledger[v].load(Ordering::SeqCst),
                1,
                "seed {seed}: value {v} delivered wrong number of times"
            );
        }
    }
}

/// The shed path under concurrency: producers push without retry into a
/// tiny ring while a consumer, once the ring has refused, drains it
/// concurrently. Accepted + refused must equal offered, and every accepted
/// value must come out exactly once — a refusal never destroys a slot.
#[test]
fn seeded_mpmc_full_ring_sheds_without_losing_slots() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: u64 = 1_000;
    for seed in 0..20u64 {
        let q = Arc::new(MpmcQueue::<u64>::new(16).with_yield_injection(seed));
        let accepted = Arc::new(AtomicU64::new(0));
        let refused = Arc::new(AtomicU64::new(0));
        let drained = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            let accepted = Arc::clone(&accepted);
            let refused = Arc::clone(&refused);
            let done = Arc::clone(&done);
            handles.push(thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    match q.push(p as u64 * PER_PRODUCER + i) {
                        Ok(()) => accepted.fetch_add(1, Ordering::SeqCst),
                        Err(_) => refused.fetch_add(1, Ordering::SeqCst),
                    };
                }
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        {
            let q = Arc::clone(&q);
            let drained = Arc::clone(&drained);
            let refused = Arc::clone(&refused);
            let done = Arc::clone(&done);
            handles.push(thread::spawn(move || {
                // Hold off until the ring has refused once (or every
                // producer is done): with nothing popped, the 17th push
                // into the 16 slots must refuse, so the refusal the test
                // asserts no longer depends on the producers outrunning
                // this consumer. The concurrent drain runs afterwards.
                while refused.load(Ordering::SeqCst) == 0
                    && done.load(Ordering::SeqCst) < PRODUCERS as u64
                {
                    thread::yield_now();
                }
                loop {
                    match q.pop() {
                        Some(_) => {
                            drained.fetch_add(1, Ordering::SeqCst);
                        }
                        None => {
                            if done.load(Ordering::SeqCst) == PRODUCERS as u64
                                && q.pop()
                                    .map(|_| drained.fetch_add(1, Ordering::SeqCst))
                                    .is_none()
                            {
                                return;
                            }
                            thread::yield_now();
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let acc = accepted.load(Ordering::SeqCst);
        let refd = refused.load(Ordering::SeqCst);
        assert_eq!(
            acc + refd,
            PRODUCERS as u64 * PER_PRODUCER,
            "seed {seed}: offered accounting leak"
        );
        assert!(
            refd > 0,
            "seed {seed}: a 16-slot ring must refuse under this load"
        );
        assert_eq!(
            drained.load(Ordering::SeqCst),
            acc,
            "seed {seed}: accepted vs drained mismatch"
        );
        assert!(q.is_empty(), "seed {seed}: ring not drained");
    }
}

/// Generous bound on anything that should take microseconds: a lost
/// wakeup shows up as this expiring, not as a hung test binary.
const LOST_WAKEUP_TIMEOUT: Duration = Duration::from_secs(10);

fn small(n: u64) -> LoopRequest {
    LoopRequest {
        tenant: 0,
        kernel: ServeKernel::Touch,
        n,
        phases: 1,
        policy: ServePolicy::Afs,
        deadline: None,
    }
}

/// Yield-polls `cond` until it holds; panics with `what` on timeout.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + LOST_WAKEUP_TIMEOUT;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::yield_now();
    }
}

/// Waits until the (idle) dispatcher has committed to a park.
fn wait_parked(server: &LoopServer) {
    wait_for("the idle dispatcher to park", || {
        server.serve_snapshot().dispatcher_parks >= 1
    });
}

/// Runs `f` on a helper thread and fails if it has not returned in time.
fn must_return(what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(LOST_WAKEUP_TIMEOUT)
        .unwrap_or_else(|_| panic!("{what} did not return: the parked dispatcher was never woken"));
}

/// One request at a time, with inter-arrival gaps that straddle the
/// dispatcher's 64-yield grace: a quarter of the admits follow the
/// previous completion immediately (dispatcher still busy or yielding, or
/// the previous batch's late worker not yet back), one in sixteen waits
/// until the dispatcher is asleep (a gap that outlasts the grace however
/// slowly the host yields), and the rest wait U[0, 256) µs (it may be
/// yielding, committing to park, or parked). Under 20 ring-injection seeds
/// every request completes and the ledger is exact — and both sides of the
/// race were actually taken: some requests were dispatched by an admit
/// that found the dispatcher asleep, some by the dispatcher.
#[test]
fn seeded_admits_straddling_the_park_commit_all_complete() {
    const REQUESTS: u64 = 200;
    let (mut total_parks, mut total_inline, mut total_dispatches) = (0u64, 0u64, 0u64);
    for seed in 0..20u64 {
        let server = LoopServer::builder(Arc::new(Pool::new(2)))
            .tenant("t")
            .queue_yield_injection(seed)
            .build();
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut offered_iters = 0u64;
        for i in 0..REQUESTS {
            // xorshift64: the gaps only need to differ from seed to seed.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if rng & 15 == 1 {
                // The idle dispatcher parks once the previous request is
                // done, and an inline dispatch leaves it asleep, so this
                // wait always ends.
                wait_for("the idle dispatcher to park", || server.dispatcher_asleep());
            } else {
                let gap = if rng & 3 == 0 {
                    Duration::ZERO
                } else {
                    Duration::from_micros((rng >> 8) % 256)
                };
                let t = Instant::now();
                while t.elapsed() < gap {
                    std::hint::spin_loop();
                }
            }
            let n = 16 + (rng >> 20) % 113;
            offered_iters += n;
            assert!(server.admit(small(n)).is_accepted(), "seed {seed} req {i}");
            wait_for("an admitted request to complete", || server.pending() == 0);
        }
        let ledger = server.shutdown();
        total_parks += ledger.dispatcher_parks;
        total_inline += ledger.inline_dispatches;
        total_dispatches += ledger.dispatches;
        assert_eq!(ledger.admitted, REQUESTS, "seed {seed}");
        assert_eq!(ledger.completed, REQUESTS, "seed {seed}");
        assert_eq!(
            ledger.failed + ledger.expired + ledger.timed_out,
            0,
            "seed {seed}"
        );
        assert_eq!(ledger.tenants[0].shed, 0, "seed {seed}");
        assert_eq!(ledger.tenants[0].iters, offered_iters, "seed {seed}");
    }
    assert!(total_parks > 0, "no gap outlasted the yield grace");
    assert!(
        total_inline > 0,
        "no admit ever found the dispatcher parked"
    );
    assert!(
        total_dispatches > total_inline,
        "every admit found the dispatcher parked: no gap fell inside the grace"
    );
}

/// An idle server is quiet: the dispatcher parks once and nothing wakes
/// it — counted, not timed. The first admit afterwards finds it parked and
/// dispatches on its own thread: the request completes and the dispatcher
/// is never woken.
#[test]
fn idle_server_parks_once_and_the_next_admit_is_served_inline() {
    let server = LoopServer::builder(Arc::new(Pool::new(2)))
        .tenant("t")
        .build();
    wait_parked(&server);
    thread::sleep(Duration::from_millis(100));
    let ledger = server.serve_snapshot();
    assert_eq!(
        (ledger.dispatcher_parks, ledger.dispatcher_wakes),
        (1, 0),
        "an idle dispatcher must stay parked, unwoken"
    );
    assert!(server.admit(small(64)).is_accepted());
    wait_for("the request admitted to a parked server", || {
        server.pending() == 0
    });
    let ledger = server.serve_snapshot();
    assert_eq!(
        (ledger.dispatcher_parks, ledger.dispatcher_wakes),
        (1, 0),
        "the admit dispatched inline: the dispatcher stays parked, unwoken"
    );
    assert_eq!((ledger.inline_dispatches, ledger.dispatches), (1, 1));
    let ledger = server.shutdown();
    assert_eq!((ledger.admitted, ledger.completed), (1, 1));
}

/// `shutdown()` and a plain `Drop` both have to wake a parked dispatcher:
/// nobody else is left to.
#[test]
fn shutdown_and_drop_of_a_parked_server_return() {
    for by_drop in [false, true] {
        let server = LoopServer::builder(Arc::new(Pool::new(2)))
            .tenant("t")
            .build();
        assert!(server.admit(small(64)).is_accepted());
        wait_for("the warm-up request", || server.pending() == 0);
        wait_parked(&server);
        if by_drop {
            must_return("Drop of a parked server", move || drop(server));
        } else {
            must_return("shutdown() of a parked server", move || {
                let ledger = server.shutdown();
                assert_eq!((ledger.admitted, ledger.completed), (1, 1));
            });
        }
    }
}

/// The supervisor swaps the pool while the dispatcher sleeps; the swap
/// needs no wake of its own, because the next admit wakes the dispatcher
/// and its dispatch reads the pool slot afresh.
#[test]
fn request_after_a_pool_swap_under_a_parked_dispatcher_completes() {
    let wounded = Arc::new(Pool::builder(2).fail_spawn_after(1).build());
    let server = LoopServer::builder(wounded)
        .tenant("t")
        .supervise(
            SupervisorConfig::default()
                .interval(Duration::from_millis(1))
                .initial_backoff(Duration::from_millis(1))
                .max_restarts(1),
            |_restart| Arc::new(Pool::new(2)),
        )
        .build();
    wait_for("the supervisor to replace the degraded pool", || {
        server.serve_snapshot().supervisor_restarts == 1
    });
    wait_parked(&server);
    let replacement = server.pool();
    assert_eq!(replacement.metrics().snapshot().effective_workers, 2);
    let before = replacement.metrics().snapshot().totals().iters;
    assert!(server.admit(small(128)).is_accepted());
    wait_for("the request admitted after the swap", || {
        server.pending() == 0
    });
    assert_eq!(
        replacement.metrics().snapshot().totals().iters - before,
        128,
        "the request must have run on the replacement pool"
    );
    let ledger = server.shutdown();
    assert_eq!((ledger.admitted, ledger.completed), (1, 1));
}

/// A manual-mode server has no dispatcher to park, so `admit` never
/// takes the wake path: one load of a flag nobody ever sets.
#[test]
fn manual_server_admit_never_touches_the_wake_path() {
    let server = LoopServer::builder(Arc::new(Pool::new(2)))
        .tenant("t")
        .manual()
        .build();
    for _ in 0..32 {
        assert!(server.admit(small(64)).is_accepted());
    }
    assert_eq!(server.pump(), 32);
    while !server.dispatch_next().is_empty() {}
    let ledger = server.serve_snapshot();
    assert_eq!(ledger.completed, 32);
    assert_eq!((ledger.dispatcher_parks, ledger.dispatcher_wakes), (0, 0));
}

/// A pool whose worker 1 sleeps 20 ms on entering every dispatch, so each
/// dispatch outlasts the waiter's polling grace (64 yields, tens of µs)
/// by three orders of magnitude — while the sleeper is off the CPU, so
/// the yields stay cheap even on a busy host.
fn slow_start_pool() -> Arc<Pool> {
    let plan = FaultPlan::new(1).with_delayed_start(1, Duration::from_millis(20));
    Arc::new(Pool::builder(2).faults(plan).build())
}

/// Admits one request at a time until a dispatch has parked its waiter.
/// The first one does unless the host stretched 64 yields past 20 ms;
/// this bounds how often that may happen. Returns the requests admitted.
fn admit_until_a_batch_parks(server: &LoopServer) -> u64 {
    for admitted in 1..=50 {
        assert!(server.admit(small(64)).is_accepted());
        let parked = || server.serve_snapshot().batch_parks >= 1;
        wait_for("a batch to park its waiter, or finish", || {
            parked() || server.pending() == 0
        });
        if parked() {
            return admitted;
        }
    }
    panic!("50 dispatches of 20 ms each finished inside the 64-yield grace");
}

/// A dispatch that outlasts the grace parks the dispatcher (counted, not
/// timed). Requests admitted while it sleeps wait in the ring and are
/// served after it; the ledger is exact.
#[test]
fn batch_outlasting_the_grace_parks_the_dispatcher_and_the_ring_buffers() {
    let server = LoopServer::builder(slow_start_pool())
        .tenant("t")
        .discipline(Discipline::Batch {
            max_requests: 8,
            max_iters: 1 << 20,
        })
        .build();
    let mut admitted = admit_until_a_batch_parks(&server);
    // The dispatcher is asleep on a batch with ~20 ms to run: nothing
    // pumps, so these sit in the ring until it wakes.
    for _ in 0..24 {
        assert!(server.admit(small(64)).is_accepted());
        admitted += 1;
    }
    wait_for("everything admitted behind a parked batch", || {
        server.pending() == 0
    });
    let ledger = server.shutdown();
    assert_eq!(ledger.admitted, admitted);
    assert_eq!(ledger.completed, admitted);
    assert_eq!(ledger.tenants[0].iters, admitted * 64);
    assert_eq!(ledger.tenants[0].shed, 0);
    assert_eq!(ledger.failed + ledger.expired + ledger.timed_out, 0);
}

/// Shutdown while the dispatcher sleeps on a batch: nobody wakes it but
/// the batch's last ack, and it then drains what the ring buffered.
#[test]
fn shutdown_during_a_parked_batch_wait_still_drains() {
    let server = LoopServer::builder(slow_start_pool()).tenant("t").build();
    let mut admitted = admit_until_a_batch_parks(&server);
    for _ in 0..3 {
        assert!(server.admit(small(64)).is_accepted());
        admitted += 1;
    }
    must_return("shutdown() during a parked batch wait", move || {
        let ledger = server.shutdown();
        assert_eq!(ledger.admitted, admitted);
        assert_eq!(ledger.completed, admitted);
        assert_eq!(ledger.tenants[0].shed, 0);
    });
}

/// Manual `dispatch_next` waits by the same rule: the caller is the
/// waiter, and it parks on a long dispatch just as the dispatcher does.
#[test]
fn manual_dispatch_parks_on_a_long_batch() {
    let server = LoopServer::builder(slow_start_pool())
        .tenant("t")
        .manual()
        .build();
    let mut served = 0;
    while server.serve_snapshot().batch_parks == 0 {
        assert!(served < 50, "50 dispatches of 20 ms each never parked");
        assert!(server.admit(small(64)).is_accepted());
        assert_eq!(server.pump(), 1);
        assert_eq!(server.dispatch_next().len(), 1);
        served += 1;
    }
    assert_eq!(server.serve_snapshot().completed, served);
}

/// A blocking `Pool::run` caller holds the pool for as long as its job
/// runs (a whole nest: tens of ms). The dispatcher must not poll for the
/// pool all that while on a core the job's workers need: after its grace
/// it blocks on the dispatch slot (counted, not timed), and the request it
/// was carrying is dispatched when the job lets go.
#[test]
fn dispatcher_sleeps_on_a_pool_held_by_a_blocking_run() {
    let pool = Arc::new(Pool::new(2));
    let server = LoopServer::builder(Arc::clone(&pool)).tenant("t").build();
    let (entered, gate) = (AtomicBool::new(false), AtomicBool::new(false));
    thread::scope(|s| {
        s.spawn(|| {
            pool.run(|_| {
                entered.store(true, Ordering::SeqCst);
                while !gate.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
            })
        });
        wait_for("the blocking run to take the pool", || {
            entered.load(Ordering::SeqCst)
        });
        assert!(server.admit(small(64)).is_accepted());
        wait_for("the dispatcher to block on the held pool", || {
            server.serve_snapshot().batch_parks >= 1
        });
        assert_eq!(
            server.pending(),
            1,
            "nothing can run while the gate is shut"
        );
        gate.store(true, Ordering::SeqCst);
        wait_for("the request behind the blocking run", || {
            server.pending() == 0
        });
    });
    let ledger = server.shutdown();
    assert_eq!((ledger.admitted, ledger.completed), (1, 1));
    assert_eq!(ledger.tenants[0].shed, 0, "offered = accepted");
    assert_eq!(ledger.tenants[0].iters, 64);
    assert_eq!(ledger.failed + ledger.expired + ledger.timed_out, 0);
}

/// Four clients admit against one server under 20 ring-injection seeds,
/// each with gaps that straddle the dispatcher's grace: none, U[0, 256)
/// µs, or until the dispatcher is asleep — which, with several clients
/// waiting for it, releases them together onto a sleeping dispatcher.
/// Admits race each other for the staging lock and race the dispatcher's
/// park commit; in odd seeds a fifth thread keeps taking the pool with
/// short blocking `Pool::run`s, so an inline dispatch can lose the slot
/// after its pump. Every request completes within the lost-wakeup bound,
/// the ledger is exact, and both paths were taken.
#[test]
fn seeded_concurrent_admits_and_blocking_runs_strand_nothing() {
    const CLIENTS: u64 = 4;
    const PER_CLIENT: u64 = 50;
    let (mut total_inline, mut total_dispatches) = (0u64, 0u64);
    for seed in 0..20u64 {
        let pool = Arc::new(Pool::new(2));
        let server = LoopServer::builder(Arc::clone(&pool))
            .tenant("t")
            .queue_yield_injection(seed)
            .build();
        let clients_done = AtomicU64::new(0);
        let offered_iters = AtomicU64::new(0);
        thread::scope(|s| {
            for c in 0..CLIENTS {
                let (server, clients_done, offered_iters) =
                    (&server, &clients_done, &offered_iters);
                s.spawn(move || {
                    let mut rng = (seed * CLIENTS + c).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    for i in 0..PER_CLIENT {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let gap = match rng & 7 {
                            0 => Duration::ZERO,
                            1 => {
                                // Ends: once every client waits here, or
                                // is done, nothing wakes the dispatcher.
                                wait_for("the dispatcher to park", || server.dispatcher_asleep());
                                Duration::ZERO
                            }
                            _ => Duration::from_micros((rng >> 8) % 256),
                        };
                        let t = Instant::now();
                        while t.elapsed() < gap {
                            std::hint::spin_loop();
                        }
                        let n = 16 + (rng >> 20) % 113;
                        offered_iters.fetch_add(n, Ordering::SeqCst);
                        assert!(
                            server.admit(small(n)).is_accepted(),
                            "seed {seed} client {c} req {i}"
                        );
                    }
                    clients_done.fetch_add(1, Ordering::SeqCst);
                });
            }
            if seed % 2 == 1 {
                let (pool, clients_done) = (&pool, &clients_done);
                s.spawn(move || {
                    while clients_done.load(Ordering::SeqCst) < CLIENTS {
                        pool.run(|_| {
                            let t = Instant::now();
                            while t.elapsed() < Duration::from_micros(20) {
                                std::hint::spin_loop();
                            }
                        });
                        thread::sleep(Duration::from_micros(50));
                    }
                });
            }
        });
        wait_for("every admitted request to complete", || {
            server.pending() == 0
        });
        let ledger = server.shutdown();
        total_inline += ledger.inline_dispatches;
        total_dispatches += ledger.dispatches;
        let requests = CLIENTS * PER_CLIENT;
        assert_eq!(ledger.admitted, requests, "seed {seed}");
        assert_eq!(ledger.completed, requests, "seed {seed}");
        assert_eq!(
            ledger.failed + ledger.expired + ledger.timed_out,
            0,
            "seed {seed}"
        );
        assert_eq!(ledger.tenants[0].shed, 0, "seed {seed}");
        assert_eq!(
            ledger.tenants[0].iters,
            offered_iters.load(Ordering::SeqCst),
            "seed {seed}"
        );
    }
    assert!(total_inline > 0, "no admit ever dispatched inline");
    assert!(
        total_dispatches > total_inline,
        "the dispatcher never dispatched"
    );
}

/// A request is complete the moment its last iteration is: every
/// co-batched request of a fused dispatch retires at its count, and only
/// the one whose grab panicked is left to the barrier turn, which fails it.
/// Worker 1 owns [1024, 2048) of each 4096-iteration static phase on 4
/// workers, so the one-shot panic at iteration 1500 fires in the batch's
/// first request. Nothing is retired twice: the ledger, the turn tally and
/// the trace's one terminal event per request agree.
#[test]
fn panicked_request_retires_in_the_turn_and_its_batchmates_at_their_count() {
    use afs_metrics::trace::prelude::*;
    let p = 4;
    let sink = Arc::new(TraceSink::new(p + 2));
    let pool = Arc::new(
        Pool::builder(p)
            .trace(Arc::clone(&sink))
            .faults(FaultPlan::new(7).with_panic_at(1, 0, 1500))
            .build(),
    );
    let server = LoopServer::builder(pool)
        .tenant("t")
        .discipline(Discipline::Batch {
            max_requests: 8,
            max_iters: 1 << 20,
        })
        .trace(Arc::clone(&sink))
        .manual()
        .build();
    let static_req = LoopRequest {
        policy: ServePolicy::Static,
        ..small(4096)
    };
    for _ in 0..6 {
        assert!(server.admit(static_req.clone()).is_accepted());
    }
    assert_eq!(server.pump(), 6);
    assert_eq!(server.dispatch_next().len(), 6);
    let ledger = server.serve_snapshot();
    assert_eq!((ledger.completed, ledger.failed), (5, 1));
    assert_eq!(ledger.completed + ledger.failed, ledger.admitted);
    assert_eq!(
        ledger.turn_retires, 1,
        "only the panicked request waits for the barrier turn"
    );
    drop(server);
    let mut terminal = std::collections::HashMap::<u64, u32>::new();
    for e in sink.events(p + 1) {
        if let EventKind::RequestComplete { id, .. } | EventKind::RequestFailed { id, .. } = e.kind
        {
            *terminal.entry(id).or_default() += 1;
        }
    }
    assert_eq!(terminal.len(), 6);
    assert!(
        terminal.values().all(|&c| c == 1),
        "retired twice: {terminal:?}"
    );
}

/// A two-phase request completes only after its final phase: its second
/// phase's count, not the first's, retires it. And once `pending() == 0`
/// is observed, every counter the request touched is already written: the
/// tenant's iteration count equals what was offered, both phases'.
#[test]
fn two_phase_request_completes_after_its_final_phase_with_counters_written() {
    let server = LoopServer::builder(Arc::new(Pool::new(2)))
        .tenant("t")
        .build();
    let mut offered = 0u64;
    for round in 0..200u64 {
        let n = 16 + round % 113;
        offered += 2 * n;
        let req = LoopRequest {
            phases: 2,
            ..small(n)
        };
        assert!(server.admit(req).is_accepted());
        wait_for("a two-phase request to complete", || server.pending() == 0);
        let ledger = server.serve_snapshot();
        assert_eq!(ledger.completed, round + 1);
        assert_eq!(ledger.tenants[0].iters, offered, "round {round}");
    }
    let ledger = server.shutdown();
    assert_eq!(ledger.turn_retires, 0);
    assert_eq!(ledger.completed, 200);
}

/// One manual dispatch fuses requests of every serving policy, with
/// `n` ∈ {0, 1, 97, 4096} and 1–3 phases, into one region, at P = 2 and
/// P = 4 under 20 seeds of the barrier's yield injection — the turn is
/// where the one source is re-armed (AFS after AFS), replaced (a central
/// or static policy) and rebuilt (AFS after those). Every workset slot is
/// touched exactly as often as the requests offered it, the ledger is
/// exact, and the region's phase records — one per request-phase — sum
/// to the pool's counter delta for the batch.
#[test]
fn seeded_mixed_policy_batch_is_one_region() {
    use afs_serve::ServePolicy::*;
    let policies = [
        Afs,
        AfsGrabAhead { ahead: 4 },
        SelfSched,
        Css { chunk: 16 },
        Static,
        Adaptive,
    ];
    let mut reqs = Vec::new();
    for n in [0u64, 1, 97, 4096] {
        for policy in policies {
            reqs.push(LoopRequest {
                n,
                phases: 1 + (reqs.len() % 3) as u32,
                policy,
                ..small(0)
            });
        }
    }
    let units: u64 = reqs.iter().map(|r| r.phases as u64).sum();
    let mut offered = vec![0u64; 4096];
    for r in &reqs {
        for slot in &mut offered[..r.n as usize] {
            *slot += r.phases as u64;
        }
    }
    for p in [2usize, 4] {
        for seed in 0..20u64 {
            let pool = Arc::new(Pool::builder(p).yield_injection(seed).build());
            let server = LoopServer::builder(Arc::clone(&pool))
                .tenant_spec(TenantSpec::new("t").workset_slots(4096))
                .discipline(Discipline::Batch {
                    max_requests: reqs.len(),
                    max_iters: 1 << 20,
                })
                .manual()
                .build();
            for r in &reqs {
                assert!(server.admit(r.clone()).is_accepted());
            }
            let totals = || {
                let mut sum = afs_metrics::CounterSnapshot::default();
                for w in 0..p {
                    sum.add(&pool.metrics().worker(w).get());
                }
                sum
            };
            let before = totals();
            server.pump();
            assert_eq!(server.dispatch_next().len(), reqs.len(), "one dispatch");
            let delta = totals().minus(&before);
            let at = format!("p={p} seed={seed}");
            assert_eq!(server.workset_values(0), offered, "{at}");
            let ledger = server.serve_snapshot();
            assert_eq!(ledger.dispatches, 1, "{at}");
            assert_eq!(ledger.admitted, reqs.len() as u64, "{at}");
            assert_eq!(ledger.completed, ledger.admitted, "{at}");
            assert_eq!(ledger.failed + ledger.expired, 0, "{at}");
            assert_eq!(server.pending(), 0, "{at}");
            assert_eq!(ledger.tenants[0].iters, offered.iter().sum::<u64>(), "{at}");
            let records = pool.recorder().phase_records();
            assert_eq!(records.len() as u64, units, "{at}: one record per unit");
            let mut recorded = afs_metrics::CounterSnapshot::default();
            for (g, r) in records.iter().enumerate() {
                assert_eq!(r.phase, g as u64, "{at}");
                recorded.add(&r.counters);
            }
            assert_eq!(recorded.sync(), delta.sync(), "{at}: grab columns");
            assert_eq!(recorded.iters, delta.iters, "{at}");
        }
    }
}
