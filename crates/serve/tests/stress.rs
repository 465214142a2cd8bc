//! Seeded-interleaving stress for the MPMC admission ring: producers ×
//! consumers × 20 seeds, with deterministic yield injection at the CAS
//! race windows. The contract under every provoked schedule: every value
//! pushed successfully is popped exactly once (a counter ledger over the
//! value space), every push refusal really happened against a full ring,
//! and nothing is lost or duplicated across wrap-around.
//!
//! Second half: the admit → parked-dispatcher hand-off. An idle dispatcher
//! parks; `admit`, `shutdown` and `Drop` must wake it. Every test here
//! fails (by timeout) on a build where one of them forgets to.
//!
//! Third part: the same waiting rule applied to a batch in flight. A
//! dispatch that outlasts the 64-poll grace parks its waiter; the ring
//! buffers meanwhile, and shutdown still drains. A pool somebody else
//! holds is waited for the same way.

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
/// tiny ring while consumers drain slowly. Accepted + refused must equal
/// offered, and every accepted value must come out exactly once — a
/// refusal never destroys a slot.
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
            let done = Arc::clone(&done);
            handles.push(thread::spawn(move || loop {
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
        server.dispatcher_park_tally().0 >= 1
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
/// previous completion immediately (dispatcher still busy or yielding),
/// the rest wait U[0, 256) µs (it may be yielding, committing to park,
/// or parked). Under 20 ring-injection seeds every request completes and
/// the ledger is exact — and both sides of the race were actually taken.
#[test]
fn seeded_admits_straddling_the_park_commit_all_complete() {
    const REQUESTS: u64 = 200;
    let (mut total_wakes, mut total_parks) = (0u64, 0u64);
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
            let gap = if rng & 3 == 0 {
                Duration::ZERO
            } else {
                Duration::from_micros((rng >> 8) % 256)
            };
            let t = Instant::now();
            while t.elapsed() < gap {
                std::hint::spin_loop();
            }
            let n = 16 + (rng >> 20) % 113;
            offered_iters += n;
            assert!(server.admit(small(n)).is_accepted(), "seed {seed} req {i}");
            wait_for("an admitted request to complete", || server.pending() == 0);
        }
        let (parks, wakes) = server.dispatcher_park_tally();
        total_parks += parks;
        total_wakes += wakes;
        let ledger = server.shutdown();
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
    assert!(total_wakes > 0, "no admit ever found the dispatcher parked");
    assert!(
        total_wakes < 20 * REQUESTS,
        "every admit found the dispatcher parked: no gap fell inside the grace"
    );
}

/// An idle server is quiet: the dispatcher parks once and nothing wakes
/// it — counted, not timed. The first admit afterwards finds it parked,
/// wakes it exactly once, and completes.
#[test]
fn idle_server_parks_once_and_the_next_admit_wakes_it() {
    let server = LoopServer::builder(Arc::new(Pool::new(2)))
        .tenant("t")
        .build();
    wait_parked(&server);
    thread::sleep(Duration::from_millis(100));
    assert_eq!(
        server.dispatcher_park_tally(),
        (1, 0),
        "an idle dispatcher must stay parked, unwoken"
    );
    assert!(server.admit(small(64)).is_accepted());
    wait_for("the request admitted to a parked server", || {
        server.pending() == 0
    });
    assert_eq!(server.dispatcher_park_tally().1, 1);
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
        server.supervisor_restarts() == 1
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
    assert_eq!(server.serve_snapshot().completed, 32);
    assert_eq!(server.dispatcher_park_tally(), (0, 0));
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
        wait_for("a batch to park its waiter, or finish", || {
            server.batch_park_tally() >= 1 || server.pending() == 0
        });
        if server.batch_park_tally() >= 1 {
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
    while server.batch_park_tally() == 0 {
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
            server.batch_park_tally() >= 1
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
