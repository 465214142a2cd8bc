//! The per-layer probes of a traced run: every layer timed from outside,
//! around the public call named. Each group of probes runs once, under the
//! workload whose end-to-end number it explains, so a traced run's probe
//! budget goes to the layers that workload exercises.
//!
//! Each probe is time-boxed to a share of the group's budget and reports a
//! median. The probes that need a pool build their own `Pool::new(2)` one
//! after the other, so at most two workers are ever alive.

use crate::harness::{Ctx, P};
use crate::nest::{gauss_system, sor_rep_secs, SOR_N, TC_CLIQUE, TC_N};
use crate::report::Outcome;
use crate::rng::SplitMix64;
use crate::serve::{batch_unit_ns, manual_replay, pingpong_stream, pool_dispatch};
use crate::sim;
use crate::stats::median;
use affinity_sched::core::prelude::*;
use affinity_sched::kernels::prelude::*;
use affinity_sched::runtime::source::{AfsSource, FetchAddSource, WorkSource};
use affinity_sched::runtime::{parallel_for, parallel_phases, Pool, RuntimeScheduler};
use affinity_sched::trace::TraceSink;
use afs_serve::MpmcQueue;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Iterations of the loops the source / scheduler probes drain.
const LOOP_N: u64 = 4096;
/// Loops drained per timed batch, so the clock stays out of the grab loop.
const LOOPS_PER_BATCH: usize = 64;
/// Barrier rounds / empty phases per timed region.
const ROUNDS: u64 = 2_000;
/// Steps of the short SOR reps the trace-cost and sequential probes run.
const SHORT_SOR_STEPS: usize = 5_000;

/// Calls `sample` (which returns one measurement) until `budget` is spent
/// and at least `min` samples exist; returns their median.
fn median_of(budget: Duration, min: usize, mut sample: impl FnMut() -> f64) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < min {
        samples.push(sample());
    }
    median(&samples)
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Prints the nest's speed-up: its sequential time over the parallel time
/// the workload stored under `parallel` (same unit). Commentary, not a
/// metric: sequential runs vary too much here to gate it.
fn print_speedup(out: &Outcome, sequential: f64, parallel: &str) {
    if let Some(par) = out.get(parallel) {
        println!(
            "# speed-up at P={P}: sequential {sequential:.4} / {parallel} {par:.4} = {:.2}",
            sequential / par
        );
    }
}

/// Drains `sources` with one thread playing all `P` workers round-robin —
/// the deterministic protocol: every local/steal path runs with the request
/// mix of a P-worker loop, free of OS-scheduler noise. Returns grabs taken.
fn drain_round_robin<S: WorkSource>(sources: &[S]) -> u64 {
    let mut grabs = 0;
    for src in sources {
        let mut live = [true; P];
        while live.iter().any(|l| *l) {
            for (w, alive) in live.iter_mut().enumerate() {
                if *alive {
                    match src.next(w) {
                        Some(g) => {
                            black_box(g);
                            grabs += 1;
                        }
                        None => *alive = false,
                    }
                }
            }
        }
    }
    grabs
}

/// Under `serve-pingpong`, the latency path: the workload's own stream
/// replayed on a manual server against bare pool dispatches, summed against
/// the sojourn the workload measured; then the pool's build / run / dispatch.
pub fn serve_latency(ctx: &mut Ctx) {
    let unit = ctx.plan.layers / 10;
    let stream = pingpong_stream(&mut SplitMix64::new(ctx.seed));
    ctx.spans.set_enabled(true);
    let replay = manual_replay(&stream, unit * 5, &mut ctx.spans);
    ctx.spans.set_enabled(false);
    let out = &mut ctx.out;
    let admit = median(&replay.admit_ns);
    let pump = median(&replay.pump_ns);
    let dispatch_next = median(&replay.dispatch_next_ns);
    let pool_dispatch_idle = median(&replay.pool_dispatch_ns);
    out.put("serve.admit_ns", admit, "ns");
    out.put("serve.pump_ns", pump, "ns");
    out.put("serve.dispatch_next_us", dispatch_next / 1e3, "us");
    out.put(
        "runtime.pool.dispatch_idle_us",
        pool_dispatch_idle / 1e3,
        "us",
    );
    out.put(
        "serve.dispatch_self_us",
        (dispatch_next - pool_dispatch_idle) / 1e3,
        "us",
    );
    let sojourn = 1e3
        * out
            .get("sojourn_p50_us")
            .expect("serve-pingpong measured its sojourn before its layers");
    let handoff = sojourn - (admit + pump + dispatch_next);
    out.put("serve.handoff_us", handoff / 1e3, "us");
    println!(
        "# budget: admit {:.2} + pump {:.2} + dispatch_next {:.2} + handoff {:.2} = sojourn_p50 {:.2} us (handoff is {:.0} % of it)",
        admit / 1e3,
        pump / 1e3,
        dispatch_next / 1e3,
        handoff / 1e3,
        sojourn / 1e3,
        100.0 * handoff / sojourn
    );

    let build = median_of(unit, 5, || {
        let t = Instant::now();
        let pool = Pool::new(P);
        let took = t.elapsed();
        drop(pool);
        took.as_secs_f64() * 1e3
    });
    out.put("runtime.pool.build_ms", build, "ms");

    let pool = Pool::new(P);
    let run = median_of(unit, 32, || {
        let t = Instant::now();
        pool.run(|_| {});
        ns(t.elapsed()) / 1e3
    });
    out.put("runtime.pool.run_us", run, "us");

    // Back to back, so the workers are still spinning when the next job is
    // published: the floor under `runtime.pool.dispatch_idle_us`.
    let noop: Arc<dyn Fn(usize) + Send + Sync> = Arc::new(|_| {});
    let dispatch = median_of(unit, 32, || ns(pool_dispatch(&pool, &noop)) / 1e3);
    out.put("runtime.pool.dispatch_us", dispatch, "us");
}

/// Under `serve-saturate`, the capacity path: the admission ring alone and
/// one fused dispatch per request.
pub fn serve_capacity(ctx: &mut Ctx) {
    let unit = ctx.plan.layers / 4;
    let out = &mut ctx.out;
    let queue: MpmcQueue<u64> = MpmcQueue::new(1024);
    let pushpop = median_of(unit, 8, || {
        let t = Instant::now();
        for i in 0..1024u64 {
            let _ = black_box(queue.push(i));
            black_box(queue.pop());
        }
        ns(t.elapsed()) / 1024.0
    });
    out.put("serve.queue.pushpop_ns", pushpop, "ns");

    let stream = pingpong_stream(&mut SplitMix64::new(ctx.seed));
    out.put(
        "serve.batch_unit_us",
        median(&batch_unit_ns(&stream, unit * 2)) / 1e3,
        "us",
    );
}

/// Under `nest-sor`, phase turnaround: the barrier round, the phase drivers
/// with an empty body, the per-phase source build, the sequential phase, and
/// what watching (a trace sink, a metrics snapshot) costs.
pub fn phase_turnaround(ctx: &mut Ctx) {
    let unit = ctx.plan.layers / 12;
    let out = &mut ctx.out;
    let pool = Pool::new(P);
    let afs = RuntimeScheduler::afs_k_equals_p();
    let round = median_of(unit, 3, || {
        let barrier = pool.phase_barrier();
        let t = Instant::now();
        pool.run(|_| {
            for gen in 1..=ROUNDS {
                barrier.arrive(gen);
            }
        });
        ns(t.elapsed()) / 1e3 / ROUNDS as f64
    });
    out.put("runtime.barrier.round_us", round, "us");

    let phase = median_of(unit, 3, || {
        let t = Instant::now();
        black_box(parallel_phases(
            &pool,
            ROUNDS as usize,
            |_| P as u64,
            &afs,
            |_, _| {},
        ));
        ns(t.elapsed()) / 1e3 / ROUNDS as f64
    });
    out.put("runtime.parallel.phase_us", phase, "us");

    let oneshot = median_of(unit, 32, || {
        let t = Instant::now();
        black_box(parallel_for(&pool, 64, &afs, |_| {}));
        ns(t.elapsed()) / 1e3
    });
    out.put("runtime.parallel.oneshot_us", oneshot, "us");

    let snapshot = median_of(unit, 32, || {
        let t = Instant::now();
        black_box(pool.metrics().snapshot());
        ns(t.elapsed()) / 1e3
    });
    out.put("metrics.snapshot_us", snapshot, "us");
    drop(pool);

    let afs_new = median_of(unit, 8, || {
        let t = Instant::now();
        for _ in 0..LOOPS_PER_BATCH {
            black_box(new_afs_source());
        }
        ns(t.elapsed()) / LOOPS_PER_BATCH as f64
    });
    out.put("runtime.source.afs_new_ns", afs_new, "ns");

    let sor = median_of(unit, 2, || {
        let mut grid = SorGrid::new(SOR_N);
        let t = Instant::now();
        grid.run_sequential(SHORT_SOR_STEPS);
        black_box(&grid);
        ns(t.elapsed()) / 1e3 / SHORT_SOR_STEPS as f64
    });
    out.put("kernels.sor_seq_phase_us", sor, "us");
    print_speedup(out, sor, "phase_us");

    // Plain and watched pools take turns (one pool alive at a time), so a
    // slow period of the host lands on both sides of the ratio.
    let (mut plain, mut watched) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let pool = Pool::new(P);
        plain.push(sor_rep_secs(&pool, SHORT_SOR_STEPS, unit));
        drop(pool);
        let pool = Pool::builder(P).trace(Arc::new(TraceSink::new(P))).build();
        watched.push(sor_rep_secs(&pool, SHORT_SOR_STEPS, unit));
    }
    out.put(
        "trace.overhead_ratio",
        median(&watched) / median(&plain),
        "ratio",
    );
}

fn new_afs_source() -> AfsSource {
    AfsSource::new(LOOP_N, P, P as u64)
}

/// Under `nest-tc`, the steal path: the work sources under the round-robin
/// protocol, steals alone, and the sequential closure.
pub fn steal_path(ctx: &mut Ctx) {
    let unit = ctx.plan.layers / 8;
    let out = &mut ctx.out;
    let mut grabs_per_loop = Vec::new();
    let afs_grab = median_of(unit, 8, || {
        let sources: Vec<AfsSource> = (0..LOOPS_PER_BATCH).map(|_| new_afs_source()).collect();
        let t = Instant::now();
        let grabs = drain_round_robin(&sources);
        let took = t.elapsed();
        grabs_per_loop.push(grabs as f64 / LOOPS_PER_BATCH as f64);
        ns(took) / grabs as f64
    });
    out.put("runtime.source.afs_grab_ns", afs_grab, "ns");
    out.put(
        "runtime.source.afs_grabs_per_loop",
        grabs_per_loop[0],
        "count",
    );
    out.gate(
        grabs_per_loop.iter().all(|g| *g == grabs_per_loop[0]),
        || format!("AFS grabs per loop did not repeat exactly: {grabs_per_loop:?}"),
    );

    // Steals only: worker 1 first empties its own queue untimed, then every
    // further grab takes 1/P of worker 0's untouched queue.
    let afs_steal = median_of(unit, 8, || {
        let sources: Vec<AfsSource> = (0..LOOPS_PER_BATCH).map(|_| new_afs_source()).collect();
        for src in &sources {
            while src.next(1).is_some_and(|g| g.access != AccessKind::Remote) {}
        }
        let mut steals = 0u64;
        let t = Instant::now();
        for src in &sources {
            while let Some(grab) = src.next(1) {
                black_box(grab);
                steals += 1;
            }
        }
        ns(t.elapsed()) / steals as f64
    });
    out.put("runtime.source.afs_steal_ns", afs_steal, "ns");

    let fetchadd = median_of(unit, 8, || {
        let sources: Vec<FetchAddSource> = (0..LOOPS_PER_BATCH)
            .map(|_| FetchAddSource::new(LOOP_N, 1))
            .collect();
        let t = Instant::now();
        let grabs = drain_round_robin(&sources);
        ns(t.elapsed()) / grabs as f64
    });
    out.put("runtime.source.fetchadd_grab_ns", fetchadd, "ns");

    let graph = clique_graph(TC_N, TC_CLIQUE);
    let tc = median_of(unit * 4, 2, || {
        let mut closure = TransitiveClosure::new(graph.clone());
        let t = Instant::now();
        closure.run_sequential();
        black_box(&closure);
        t.elapsed().as_secs_f64() * 1e3
    });
    out.put("kernels.tc_seq_ms", tc, "ms");
    print_speedup(out, tc, "closure_ms");
}

/// Under `nest-gauss`, the body: the sequential solve of the same system.
pub fn body(ctx: &mut Ctx) {
    let system = gauss_system(&mut SplitMix64::new(ctx.seed));
    let gauss = median_of(ctx.plan.layers * 3 / 4, 2, || {
        let mut sys = system.clone();
        let t = Instant::now();
        sys.run_sequential();
        black_box(&sys);
        t.elapsed().as_secs_f64() * 1e3
    });
    ctx.out.put("kernels.gauss_seq_ms", gauss, "ms");
    print_speedup(&ctx.out, gauss, "solve_ms");
}

/// One `LoopState::next` step of `scheduler`, all `P` workers played
/// round-robin by one thread.
fn core_next_ns(scheduler: &dyn Scheduler, budget: Duration) -> f64 {
    median_of(budget, 8, || {
        let mut states: Vec<Box<dyn LoopState>> = (0..LOOPS_PER_BATCH)
            .map(|_| scheduler.begin_loop(LOOP_N, P))
            .collect();
        let mut grabs = 0u64;
        let t = Instant::now();
        for state in &mut states {
            let mut live = [true; P];
            while live.iter().any(|l| *l) {
                for (w, alive) in live.iter_mut().enumerate() {
                    if *alive {
                        match state.next(w) {
                            Some(g) => {
                                black_box(g);
                                grabs += 1;
                            }
                            None => *alive = false,
                        }
                    }
                }
            }
        }
        ns(t.elapsed()) / grabs as f64
    })
}

/// Under `sim-paper`: the scheduler state machines alone, then each model's
/// simulation rate.
pub fn simulator(ctx: &mut Ctx) {
    let unit = ctx.plan.layers / 10;
    let out = &mut ctx.out;
    out.put(
        "core.afs_next_ns",
        core_next_ns(&Affinity::with_k_equals_p(), unit),
        "ns",
    );
    out.put("core.gss_next_ns", core_next_ns(&Gss::new(), unit), "ns");

    let models = sim::models();
    let mut sync_ops = 0;
    for (i, m) in models.iter().enumerate() {
        let (rate, ops) = sim::model_rate(&models, i, unit * 2);
        out.put(&format!("sim.{}_iters_per_s", m.name), rate, "1/s");
        sync_ops += ops;
    }
    out.put("sim.sync_ops", sync_ops as f64, "count");
}
