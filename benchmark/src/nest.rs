//! The three loop-nest workloads: `apps::par_sor`, `apps::par_transitive`
//! and `apps::par_gauss` on `Pool::new(2)` under AFS (k = P), each rep
//! checked against the sequential reference.

use crate::harness::{put_pool_counters, put_trace_overhead, Ctx, P};
use crate::rng::SplitMix64;
use crate::spans::NONE;
use crate::stats::median;
use affinity_sched::apps;
use affinity_sched::core::LoopMetrics;
use affinity_sched::kernels::prelude::*;
use affinity_sched::runtime::{Pool, RuntimeScheduler};
use std::time::{Duration, Instant};

/// `nest-sor`: grid side.
pub const SOR_N: usize = 64;
/// `nest-sor`: fused relaxation steps per rep.
pub const SOR_STEPS: usize = 20_000;
/// Warm-up steps (fixed; part of `setup_s`).
const SOR_WARMUP_STEPS: usize = 10_000;
/// `nest-tc`: nodes.
pub const TC_N: usize = 4096;
/// `nest-tc`: clique size (all work sits in worker 0's queue).
pub const TC_CLIQUE: usize = 1280;
/// `nest-gauss`: system dimension.
pub const GAUSS_N: usize = 1024;
/// Reps a window holds at least, however short it is.
const MIN_REPS: usize = 3;
/// Warm-up reps of `nest-tc` / `nest-gauss` (fixed; part of `setup_s`): a
/// single rep's time varies ±15 % on the reference host, several even it
/// out.
const TC_WARMUP_REPS: usize = 3;
const GAUSS_WARMUP_REPS: usize = 2;

/// One kernel under test: a pristine input, how to run it, and what a
/// correct result looks like.
struct Nest<K, R, V> {
    pool: Pool,
    input: K,
    run: R,
    verify: V,
}

/// Seconds per rep, for the untraced window and (traced runs) the traced
/// one. Every rep starts from a clone of the pristine input and is checked.
fn drive<K, R, V>(ctx: &mut Ctx, nest: &Nest<K, R, V>, ops_per_rep: u64) -> Vec<Vec<f64>>
where
    K: Clone,
    R: Fn(&Pool, &mut K) -> LoopMetrics,
    V: Fn(&K, &LoopMetrics) -> bool,
{
    let mut per_window = Vec::new();
    let mut rep = 0u64;
    for (window, traced) in ctx.windows() {
        ctx.spans.set_enabled(traced);
        let pool_base = nest.pool.metrics().snapshot();
        let mut secs = Vec::new();
        let start = Instant::now();
        while start.elapsed() < window || secs.len() < MIN_REPS {
            let mut state = nest.input.clone();
            let root = ctx.spans.begin("rep", NONE, rep);
            let kernel = ctx.spans.begin("kernel", root, rep);
            let t = Instant::now();
            let metrics = (nest.run)(&nest.pool, &mut state);
            secs.push(t.elapsed().as_secs_f64());
            ctx.spans.end(kernel);
            let check = ctx.spans.begin("verify", root, rep);
            let ok = (nest.verify)(&state, &metrics);
            ctx.spans.end(check);
            ctx.spans.end(root);
            ctx.out.count(1, u64::from(!ok));
            ctx.out.gate(ok, || {
                format!("rep {rep}: result differs from the sequential reference")
            });
            rep += 1;
        }
        ctx.spans.set_enabled(false);
        if !traced {
            let ops = secs.len() as u64 * ops_per_rep;
            let pool_delta = nest.pool.metrics().snapshot().delta_since(&pool_base);
            put_pool_counters(&mut ctx.out, &pool_delta, ops);
            ctx.out.put("harness.samples", secs.len() as f64, "count");
        }
        per_window.push(secs);
    }
    let medians: Vec<f64> = per_window.iter().map(|s| median(s)).collect();
    put_trace_overhead(&mut ctx.out, &medians);
    per_window
}

fn afs() -> RuntimeScheduler {
    RuntimeScheduler::afs_k_equals_p()
}

/// `nest-sor`: phase turnaround — one pool dispatch per rep, 20 000 tiny
/// balanced phases.
pub fn sor(ctx: &mut Ctx) {
    let mut reference = SorGrid::new(SOR_N);
    reference.run_sequential(SOR_STEPS);
    let expected = reference.checksum(SOR_STEPS).to_bits();
    let pool = ctx.setup(|_| {
        let pool = Pool::new(P);
        apps::par_sor(&pool, &mut SorGrid::new(SOR_N), SOR_WARMUP_STEPS, &afs());
        pool
    });
    let nest = Nest {
        pool,
        input: SorGrid::new(SOR_N),
        run: |pool: &Pool, grid: &mut SorGrid| apps::par_sor(pool, grid, SOR_STEPS, &afs()),
        verify: |grid: &SorGrid, m: &LoopMetrics| {
            grid.checksum(SOR_STEPS).to_bits() == expected
                && m.total_iters() == (SOR_N * SOR_STEPS) as u64
        },
    };
    let secs = drive(ctx, &nest, SOR_STEPS as u64);
    let phase_us = median(&secs[0]) * 1e6 / SOR_STEPS as f64;
    ctx.out.put("time_per_op_us", phase_us, "us");
    ctx.out.put("phase_us", phase_us, "us");
}

/// `nest-tc`: the paper's imbalanced case — worker 1 steals every phase.
pub fn tc(ctx: &mut Ctx) {
    let (pool, graph) = ctx.setup(|_| {
        let pool = Pool::new(P);
        let graph = clique_graph(TC_N, TC_CLIQUE);
        for _ in 0..TC_WARMUP_REPS {
            apps::par_transitive(&pool, &mut TransitiveClosure::new(graph.clone()), &afs());
        }
        (pool, graph)
    });
    let mut reference = TransitiveClosure::new(graph.clone());
    reference.run_sequential();
    let expected = reference.reachable_pairs();
    let nest = Nest {
        pool,
        input: TransitiveClosure::new(graph),
        run: |pool: &Pool, tc: &mut TransitiveClosure| apps::par_transitive(pool, tc, &afs()),
        verify: |tc: &TransitiveClosure, m: &LoopMetrics| {
            tc.reachable_pairs() == expected && m.total_iters() == (TC_N * TC_N) as u64
        },
    };
    let secs = drive(ctx, &nest, 1);
    let closure_us = median(&secs[0]) * 1e6;
    ctx.out.put("time_per_op_us", closure_us, "us");
    ctx.out.put("closure_ms", closure_us / 1e3, "ms");
}

/// The seeded system `nest-gauss` solves, drawn from the head of `rng`.
pub fn gauss_system(rng: &mut SplitMix64) -> GaussSystem {
    GaussSystem::new(GAUSS_N, rng.next_u64())
}

/// `nest-gauss`: the body-dominated control.
pub fn gauss(ctx: &mut Ctx) {
    let (pool, system) = ctx.setup(|rng| {
        let pool = Pool::new(P);
        let system = gauss_system(rng);
        for _ in 0..GAUSS_WARMUP_REPS {
            apps::par_gauss(&pool, &mut system.clone(), &afs());
        }
        (pool, system)
    });
    let mut reference = system.clone();
    reference.run_sequential();
    let expected = reference.checksum().to_bits();
    let nest = Nest {
        pool,
        input: system,
        run: |pool: &Pool, sys: &mut GaussSystem| apps::par_gauss(pool, sys, &afs()),
        verify: |sys: &GaussSystem, m: &LoopMetrics| {
            sys.checksum().to_bits() == expected
                && m.total_iters() == (GAUSS_N * (GAUSS_N - 1) / 2) as u64
        },
    };
    let secs = drive(ctx, &nest, 1);
    let solve_us = median(&secs[0]) * 1e6;
    ctx.out.put("time_per_op_us", solve_us, "us");
    ctx.out.put("solve_ms", solve_us / 1e3, "ms");
}

/// Median seconds per `par_sor` rep of `steps` steps on `pool` — the
/// per-layer suite's probe for what an attached trace sink costs.
pub fn sor_rep_secs(pool: &Pool, steps: usize, budget: Duration) -> f64 {
    let mut secs = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || secs.len() < MIN_REPS {
        let mut grid = SorGrid::new(SOR_N);
        let t = Instant::now();
        apps::par_sor(pool, &mut grid, steps, &afs());
        secs.push(t.elapsed().as_secs_f64());
    }
    median(&secs)
}
