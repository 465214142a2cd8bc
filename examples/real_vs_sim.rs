//! Sim-vs-real timeline comparison: the same SOR workload, once through
//! the discrete-event simulator and once executed on real threads with
//! tracing enabled, rendered as side-by-side ASCII Gantt charts.
//!
//! Both paths produce the *same* `Timeline` structure, so the same
//! renderer and lane accounting apply — the shapes should agree: GSS shows
//! a central-queue sync band on every lane, AFS mostly-local grabs with a
//! few steals.
//!
//! ```text
//! cargo run --release --example real_vs_sim
//! ```

use affinity_sched::apps::par_sor;
use affinity_sched::prelude::*;
use affinity_sched::trace::TraceReport;
use std::sync::Arc;

const N: u64 = 192;
const STEPS: usize = 6;
const P: usize = 4;
const WIDTH: usize = 64;

fn breakdown(tl: &Timeline, p: usize) -> String {
    let span = tl.span().max(1e-12);
    (0..p)
        .map(|w| {
            format!(
                "   P{w}: busy {:>5.1}%  sync {:>5.1}%  wait {:>5.1}%",
                100.0 * tl.lane_total(w, SegmentKind::Busy) / span,
                100.0 * tl.lane_total(w, SegmentKind::Sync) / span,
                100.0 * tl.lane_total(w, SegmentKind::Wait) / span,
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let wl = SorModel::new(N, STEPS);

    for (name, sim_sched, real_sched) in [
        (
            "AFS",
            Box::new(Affinity::with_k_equals_p()) as Box<dyn Scheduler>,
            RuntimeScheduler::afs_k_equals_p(),
        ),
        ("GSS", Box::new(Gss::new()), RuntimeScheduler::gss()),
    ] {
        // Simulated execution on the calibrated Iris model.
        let cfg = SimConfig::new(MachineSpec::iris(), P)
            .with_jitter(0.05)
            .with_timeline();
        let res = simulate(&wl, &sim_sched, &cfg);
        let sim_tl = res.timeline.as_ref().expect("timeline enabled");

        // Real execution of the same grid on a traced worker pool, workers
        // pinned to cores (best-effort; a no-op where unsupported).
        let sink = Arc::new(TraceSink::new(P));
        let pool = Pool::builder(P)
            .pin_cores(true)
            .trace(Arc::clone(&sink))
            .build();
        let mut grid = SorGrid::new(N as usize);
        let metrics = par_sor(&pool, &mut grid, STEPS, &real_sched);
        drop(pool);
        let real_tl = to_timeline(&sink);

        println!("══ {name} — SOR {N}×{STEPS}, {P} processors");
        println!(
            "── simulated (Iris model): completion {:.2} Ktu, \
             {} local / {} remote grabs",
            res.completion_time / 1e3,
            res.metrics.sync.local,
            res.metrics.sync.remote
        );
        print!("{}", sim_tl.render_gantt(WIDTH));
        println!("{}", breakdown(sim_tl, P));
        println!(
            "── real threads: span {:.2} ms, {} local / {} remote grabs",
            real_tl.span() / 1e3,
            metrics.sync.local,
            metrics.sync.remote
        );
        print!("{}", real_tl.render_gantt(WIDTH));
        println!("{}", breakdown(&real_tl, P));
        let report = TraceReport::from_sink(&sink);
        print!("{}", report.render());
        println!();
    }
    println!("Same renderer, same Timeline type — the simulator lanes and the");
    println!("traced real lanes are directly comparable. GSS pays a sync band");
    println!("on every lane; AFS grabs locally and steals only into idle tails.");
}
