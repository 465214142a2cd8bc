//! Real-runtime trace capture for `repro --trace <dir>`.
//!
//! Every paper experiment maps to a representative *real* execution of its
//! kernel: the same application the figure simulates, run on a traced
//! worker pool under AFS. The capture returns the Chrome trace-event JSON
//! (load it at `chrome://tracing` or <https://ui.perfetto.dev>) plus the
//! aggregate [`TraceReport`], so a reproduction run leaves behind not just
//! the paper-style table but a browsable record of what the threads
//! actually did.
//!
//! Captures always run at quick-scale sizes — a trace is a magnifying
//! glass, not a benchmark, and full-size kernels would produce JSON files
//! in the hundreds of megabytes.

use std::sync::Arc;

use affinity_sched::apps;
use afs_kernels::adjoint::AdjointConvolution;
use afs_kernels::gauss::GaussSystem;
use afs_kernels::l4::L4Model;
use afs_kernels::sor::SorGrid;
use afs_kernels::transitive::{clique_graph, random_graph, TransitiveClosure};
use afs_metrics::trace::{chrome_trace, TraceReport, TraceSink};
use afs_runtime::{parallel_for, Pool, RuntimeScheduler};

use crate::experiments::Experiment;

/// Workers used for every capture: small enough to run anywhere, large
/// enough that AFS steals show up as flow arrows.
const WORKERS: usize = 4;

/// The result of tracing one experiment's representative real run.
pub struct Capture {
    /// Chrome trace-event JSON for the whole run.
    pub json: String,
    /// Aggregate per-worker breakdown, grab counts and steal matrix.
    pub report: TraceReport,
}

/// Burns roughly `units` arithmetic operations — the stand-in body for the
/// synthetic Butterfly loops, mirroring how `par_l4` realizes work units.
fn burn(units: u64) {
    let mut acc = 0u64;
    for step in 0..units {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(step);
    }
    std::hint::black_box(acc);
}

/// Runs a traced real execution representative of `e` and returns its
/// Chrome trace and report. `None` for qualitative experiments with no
/// loop to run (Table 1).
pub fn capture(e: &Experiment) -> Option<Capture> {
    use Experiment::*;
    let sink = Arc::new(TraceSink::new(WORKERS));
    let pool = Pool::with_trace(WORKERS, Arc::clone(&sink));
    let afs = RuntimeScheduler::afs_k_equals_p();
    match e {
        Table1 => return None,
        // SOR experiments (Figs. 3, 17; Table 3).
        Fig3 | Fig17 | Table3 => {
            let mut grid = SorGrid::new(96);
            apps::par_sor(&pool, &mut grid, 8, &afs);
        }
        // Gaussian elimination (Figs. 4, 14, 15; Table 6).
        Fig4 | Fig14 | Fig15 | Table6 => {
            let mut sys = GaussSystem::new(96, 0xBE7C);
            apps::par_gauss(&pool, &mut sys, &afs);
        }
        // Transitive closure, random graph (Figs. 5, 16).
        Fig5 | Fig16 => {
            let mut tc = TransitiveClosure::new(random_graph(128, 0.05, 0xBE7C));
            apps::par_transitive(&pool, &mut tc, &afs);
        }
        // Transitive closure, skewed clique input (Fig. 6; Table 4).
        Fig6 | Table4 => {
            let mut tc = TransitiveClosure::new(clique_graph(128, 16));
            apps::par_transitive(&pool, &mut tc, &afs);
        }
        // Adjoint convolution, forward and reversed (Figs. 7, 8; Table 5).
        Fig7 | Table5 => {
            let mut adj = AdjointConvolution::new(2_000, 0xBE7C);
            apps::par_adjoint(&pool, &mut adj, &afs, false);
        }
        Fig8 => {
            let mut adj = AdjointConvolution::new(2_000, 0xBE7C);
            apps::par_adjoint(&pool, &mut adj, &afs, true);
        }
        // L4 (Fig. 9).
        Fig9 => {
            let model = L4Model::with_outer(0xBE7C, 4);
            apps::par_l4(&pool, &model, &afs);
        }
        // Synthetic Butterfly loops (Figs. 10–13) and the delayed-start
        // Table 2: per-iteration cost shapes realized as arithmetic burn.
        Fig10 => {
            let n = 2_000u64;
            parallel_for(&pool, n, &afs, |i| burn((n - i) * 8));
        }
        Fig11 => {
            let n = 1_000u64;
            parallel_for(&pool, n, &afs, |i| {
                let d = n - i;
                burn(d * d / 16);
            });
        }
        Fig12 => {
            let n = 2_000u64;
            parallel_for(&pool, n, &afs, |i| {
                burn(if i < n / 10 { 4_000 } else { 40 })
            });
        }
        Fig13 | Table2 => {
            parallel_for(&pool, 4_000, &afs, |_| burn(400));
        }
    }
    drop(pool);
    let json = chrome_trace(&sink, &format!("repro/{}", e.id()));
    let report = TraceReport::from_sink(&sink);
    Some(Capture { json, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_core::json;

    #[test]
    fn every_experiment_capture_is_valid_json_or_none() {
        // Exercise one representative of each kernel family (running all 21
        // would repeat the same code paths).
        for e in [
            Experiment::Table1,
            Experiment::Fig3,
            Experiment::Fig4,
            Experiment::Fig13,
        ] {
            match capture(&e) {
                None => assert!(matches!(e, Experiment::Table1)),
                Some(c) => {
                    let doc = json::parse(&c.json).expect("capture emits valid JSON");
                    assert!(doc.get("traceEvents").is_some());
                    assert!(c.report.grabs.total() > 0, "{}: empty trace", e.id());
                }
            }
        }
    }
}
