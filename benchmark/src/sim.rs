//! `sim-paper`: the discrete-event simulator on the three cells the
//! reproduction spends its time in, single-threaded. Bypasses runtime and
//! serve entirely: `core` scheduler state machines + `sim`.

use crate::harness::{put_trace_overhead, Ctx};
use crate::spans::NONE;
use crate::stats::median;
use affinity_sched::core::prelude::*;
use affinity_sched::core::theory::thm31_afs_queue_bound;
use affinity_sched::kernels::prelude::*;
use affinity_sched::sim::prelude::*;
use std::time::{Duration, Instant};

/// The paper's schedulers the reproduction sweeps (Figs. 3–6, 15–17).
pub const SCHEDULERS: [&str; 6] = [
    "STATIC",
    "GSS",
    "FACTORING",
    "TRAPEZOID",
    "MOD-FACTORING",
    "AFS",
];

/// Timing jitter the reproduction's machine-level experiments use.
const JITTER: f64 = 0.05;
/// Full passes a window holds at least (the determinism gate needs two).
const MIN_PASSES: usize = 2;

/// A fresh scheduler by paper name (stateful schedulers carry history
/// across loops, so every simulated cell gets its own).
pub fn scheduler(name: &str) -> Box<dyn Scheduler> {
    match name {
        "STATIC" => Box::new(StaticSched::new()),
        "GSS" => Box::new(Gss::new()),
        "FACTORING" => Box::new(Factoring::new()),
        "TRAPEZOID" => Box::new(Trapezoid::new()),
        "MOD-FACTORING" => Box::new(ModFactoring::new()),
        "AFS" => Box::new(Affinity::with_k_equals_p()),
        other => panic!("unknown scheduler {other}"),
    }
}

/// One workload model on the machine the paper ran it on, with the end
/// points of the paper's processor sweep. (The full sweeps — 1,2,4,6,8 on
/// the Iris, 1…57 on the KSR-1 — make one pass 4.2 s; the end points make
/// it ~1.3 s, so a run holds enough passes to take a median per cell.)
pub struct Model {
    /// Short name (`gauss`, `tc`, `sor`).
    pub name: &'static str,
    /// The simulator workload.
    pub workload: Box<dyn Workload>,
    /// The machine model.
    pub machine: MachineSpec,
    /// Processor counts simulated.
    pub procs: &'static [usize],
}

/// The three models: Gaussian elimination (N=768) and skewed transitive
/// closure (n=640, 320-clique) on the Iris, SOR (N=1024, 128 steps) on the
/// KSR-1.
pub fn models() -> Vec<Model> {
    vec![
        Model {
            name: "gauss",
            workload: Box::new(GaussModel::new(768)),
            machine: MachineSpec::iris(),
            procs: &[2, 8],
        },
        Model {
            name: "tc",
            workload: Box::new(TcModel::from_graph(&clique_graph(640, 320), "clique")),
            machine: MachineSpec::iris(),
            procs: &[2, 8],
        },
        Model {
            name: "sor",
            workload: Box::new(SorModel::new(1024, 128)),
            machine: MachineSpec::ksr1(),
            procs: &[8, 57],
        },
    ]
}

/// One simulated configuration.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Index into [`models`].
    pub model: usize,
    /// Index into [`SCHEDULERS`].
    pub scheduler: usize,
    /// Processors.
    pub p: usize,
}

/// Every model × scheduler × processor count.
pub fn cells(models: &[Model]) -> Vec<Cell> {
    let mut all = Vec::new();
    for (model, m) in models.iter().enumerate() {
        for scheduler in 0..SCHEDULERS.len() {
            for &p in m.procs {
                all.push(Cell {
                    model,
                    scheduler,
                    p,
                });
            }
        }
    }
    all
}

/// Simulates `cell`; returns the result and the wall seconds it took.
pub fn simulate_cell(models: &[Model], cell: Cell, jitter_seed: u64) -> (SimResult, f64) {
    let m = &models[cell.model];
    let sched = scheduler(SCHEDULERS[cell.scheduler]);
    let cfg = SimConfig::new(m.machine.clone(), cell.p)
        .with_jitter(JITTER)
        .with_seed(jitter_seed);
    let t = Instant::now();
    let result = simulate(m.workload.as_ref(), &sched, &cfg);
    (result, t.elapsed().as_secs_f64())
}

/// Theorem 3.1 over a multi-phase run: every AFS queue sees at most the
/// per-phase bound (with the constant the repository's own test allows),
/// summed over phases.
fn within_thm31(workload: &dyn Workload, p: usize, result: &SimResult) -> bool {
    let allowed: f64 = (0..workload.phases())
        .map(|ph| 3.0 * thm31_afs_queue_bound(workload.phase_len(ph), p, p as u64) + 3.0 * p as f64)
        .sum();
    result
        .metrics
        .per_queue
        .iter()
        .all(|q| (q.local + q.remote) as f64 <= allowed)
}

/// `sim-paper`.
pub fn paper(ctx: &mut Ctx) {
    let models = ctx.setup(|_| {
        let models = models();
        // Warm-up: each model under AFS at every processor count.
        for (i, m) in models.iter().enumerate() {
            for &p in m.procs {
                let cell = Cell {
                    model: i,
                    scheduler: SCHEDULERS.len() - 1,
                    p,
                };
                simulate_cell(&models, cell, 0);
            }
        }
        models
    });
    let cells = cells(&models);
    let jitter_seed = ctx.rng.next_u64();
    // completion_time bits of each cell's first simulation.
    let mut first: Vec<Option<u64>> = vec![None; cells.len()];
    let mut iters = vec![0u64; cells.len()];
    // Per window: Σ over cells of the cell's fastest (and its median) time
    // over the passes. The fastest is what is reported: every pass does
    // bit-identical single-threaded work (gated below), so the code has no
    // slow mode of its own and whatever a pass takes beyond the fastest is
    // the host. Over 30 consecutive runs on the reference host the
    // median-based number spread by 23 % of its median, this one by 5.5 %
    // (`README.md`); a slower simulator moves both alike.
    let mut pass_secs = Vec::new();
    let mut median_pass_secs = Vec::new();
    let mut op = 0u64;
    for (window, traced) in ctx.windows() {
        ctx.spans.set_enabled(traced);
        let mut secs: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
        let start = Instant::now();
        let mut passes = 0usize;
        while start.elapsed() < window || passes < MIN_PASSES {
            let pass = ctx.spans.begin("pass", NONE, passes as u64);
            let mut order: Vec<usize> = (0..cells.len()).collect();
            ctx.rng.shuffle(&mut order);
            for i in order {
                let cell = cells[i];
                let span = ctx.spans.begin("simulate", pass, i as u64);
                let (result, took) = simulate_cell(&models, cell, jitter_seed);
                ctx.spans.end(span);
                secs[i].push(took);
                let bits = result.completion_time.to_bits();
                let deterministic = *first[i].get_or_insert(bits) == bits;
                let afs_bounded = SCHEDULERS[cell.scheduler] != "AFS"
                    || within_thm31(models[cell.model].workload.as_ref(), cell.p, &result);
                let ok = result.completed() && deterministic && afs_bounded;
                ctx.out.count(1, u64::from(!ok));
                ctx.out.gate(ok, || {
                    format!(
                        "sim cell {} {} P={}: completed {} deterministic {deterministic} within Thm 3.1 {afs_bounded}",
                        models[cell.model].name,
                        SCHEDULERS[cell.scheduler],
                        cell.p,
                        result.completed()
                    )
                });
                iters[i] = result.expected_iters;
                op += 1;
            }
            ctx.spans.end(pass);
            passes += 1;
        }
        ctx.spans.set_enabled(false);
        pass_secs.push(
            secs.iter()
                .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
                .sum::<f64>(),
        );
        median_pass_secs.push(secs.iter().map(|s| median(s)).sum::<f64>());
        if !traced {
            ctx.out.put("harness.samples", op as f64, "count");
        }
    }
    let total_iters: u64 = iters.iter().sum();
    let out = &mut ctx.out;
    out.put(
        "time_per_op_us",
        pass_secs[0] * 1e6 / (total_iters as f64 / 1e3),
        "us",
    );
    out.put("sim_iters_per_s", total_iters as f64 / pass_secs[0], "1/s");
    out.put(
        "time_per_op_median_pass_us",
        median_pass_secs[0] * 1e6 / (total_iters as f64 / 1e3),
        "us",
    );
    put_trace_overhead(out, &pass_secs);
}

/// Simulated iterations per wall second of `model` under AFS and GSS at
/// its largest processor count, plus the synchronization operations those
/// two cells count — the per-layer suite's view of `sim`.
pub fn model_rate(models: &[Model], model: usize, budget: Duration) -> (f64, u64) {
    let p = *models[model].procs.last().expect("a model has processors");
    let mut rates = Vec::new();
    let mut sync_ops = 0;
    let start = Instant::now();
    while start.elapsed() < budget || rates.is_empty() {
        let mut iters = 0;
        let mut secs = 0.0;
        sync_ops = 0;
        for name in ["GSS", "AFS"] {
            let scheduler = SCHEDULERS
                .iter()
                .position(|s| *s == name)
                .expect("GSS and AFS are swept");
            let cell = Cell {
                model,
                scheduler,
                p,
            };
            let (result, took) = simulate_cell(models, cell, 0);
            iters += result.expected_iters;
            secs += took;
            sync_ops += result.metrics.sync.synchronized();
        }
        rates.push(iters as f64 / secs);
    }
    (median(&rates), sync_ops)
}
