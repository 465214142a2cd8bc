//! Watch the adaptive controller tune itself out of a bad configuration.
//!
//! The loop is deliberately hostile to coarse scheduling: iteration `i`
//! costs `∝ 1/(i+1)`, so most of each phase's work sits at the front of
//! worker 0's static queue. We *start* the controller at the worst
//! operating point in its range — k = 1 (each local grab claims the whole
//! queue, leaving nothing to steal) with grab-ahead b = 1 — and run a
//! phase sequence, printing the (k, b) trajectory as the controller walks
//! itself up the ladder toward fine subdivision.
//!
//! Two "before vs after" numbers close the demo:
//!
//! * **modeled makespan** — a deterministic replay of each operating
//!   point on P virtual dedicated processors (max virtual-worker clock,
//!   in work units). This is the schedule-quality number and improves on
//!   any host, no matter how few cores the container has.
//! * **wall time** — honest but only meaningful when the machine really
//!   has P free cores; on a shared or single-core host every schedule of
//!   the same total work takes the same wall time.
//!
//! ```text
//! cargo run --release --example adaptive_demo
//! ```

use afs_runtime::adapt::AdaptController;
use afs_runtime::source::{AfsSource, WorkSource};
use afs_runtime::{parallel_phases, Pool, RuntimeScheduler};
use std::sync::Arc;
use std::time::Instant;

const P: usize = 8;
const N: u64 = 2_048;
const WORK: u64 = 65_536;
const PHASES: usize = 24;

fn body(i: u64) {
    let rounds = WORK / (i + 1);
    let mut x = i ^ 0x9E37_79B9_7F4A_7C15;
    for _ in 0..rounds {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23) ^ (x >> 17);
    }
    std::hint::black_box(x);
}

/// One timed multi-phase run under `policy`; returns wall nanoseconds.
fn run(pool: &Pool, policy: &RuntimeScheduler) -> u64 {
    let start = Instant::now();
    let m = parallel_phases(pool, PHASES, |_| N, policy, |_, i| body(i));
    assert_eq!(m.total_iters(), N * PHASES as u64);
    start.elapsed().as_nanos() as u64
}

/// Deterministic replay of a fixed (k, b) on P virtual dedicated
/// processors: always advance the least-loaded virtual worker, charge each
/// grab its iterations' mix rounds, return the max clock (one phase).
fn modeled_span(k: u64, b: usize) -> u64 {
    let src = AfsSource::new(N, P, k).with_grab_ahead(b);
    let mut clock = [0u64; P];
    let mut live = [true; P];
    while let Some(w) = (0..P).filter(|&w| live[w]).min_by_key(|&w| clock[w]) {
        match src.next(w) {
            Some(g) => {
                clock[w] += (g.range.start..g.range.end)
                    .map(|i| WORK / (i + 1))
                    .sum::<u64>()
            }
            None => live[w] = false,
        }
    }
    clock.into_iter().max().unwrap_or(0)
}

fn main() {
    println!("adaptive_demo: power-law loop, N={N}, {PHASES} phases, P={P} workers");
    println!("starting the controller at the WORST point in its range: (k=1, b=1)\n");

    let pool = Pool::new(P);
    let ctl = Arc::new(AdaptController::with_initial(P, 1, 1));
    let (k0, b0) = ctl.current();
    let policy = RuntimeScheduler::adaptive_with(Arc::clone(&ctl));

    // Run the phase sequence one phase at a time so every controller
    // decision lands between two prints.
    println!(
        "{:>6} {:>4} {:>4} {:>10} {:>8}",
        "phase", "k", "b", "decisions", "settled"
    );
    let mut trajectory = vec![(k0, b0)];
    let wall_before = {
        let start = Instant::now();
        for phase in 0..PHASES {
            let m = parallel_phases(&pool, 1, |_| N, &policy, |_, i| body(i));
            assert_eq!(m.total_iters(), N);
            let (k, b) = ctl.current();
            if trajectory.last() != Some(&(k, b)) {
                trajectory.push((k, b));
            }
            println!(
                "{:>6} {:>4} {:>4} {:>10} {:>8}",
                phase,
                k,
                b,
                ctl.decisions(),
                if ctl.settled() { "yes" } else { "no" }
            );
        }
        start.elapsed().as_nanos() as u64
    };

    let (k1, b1) = ctl.current();
    let path: Vec<String> = trajectory
        .iter()
        .map(|(k, b)| format!("({k},{b})"))
        .collect();
    println!("\ntrajectory: {}", path.join(" -> "));

    // Before/after, on both scales. The "after" wall run reuses the same
    // pool and the now-converged controller.
    let wall_after = run(&pool, &policy);
    let (span0, span1) = (modeled_span(k0, b0), modeled_span(k1, b1));
    println!(
        "\n              {:>14} {:>14}",
        format!("start ({k0},{b0})"),
        format!("final ({k1},{b1})")
    );
    println!(
        "modeled span  {:>14} {:>14}   ({:.2}x better schedule)",
        span0,
        span1,
        span0 as f64 / span1.max(1) as f64
    );
    println!(
        "wall time     {:>12}us {:>12}us   (equal-cost on a host with < P cores)",
        wall_before / 1_000 / PHASES as u64,
        wall_after / 1_000 / PHASES as u64
    );
}
