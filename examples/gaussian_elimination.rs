//! Gaussian elimination: solve a dense linear system with the parallel
//! runtime, then verify the solution against the original system.
//!
//! ```text
//! cargo run --release --example gaussian_elimination [n]
//! ```

use affinity_sched::apps::par_gauss;
use affinity_sched::prelude::*;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(192);

    let original = GaussSystem::new(n, 42);
    let a0 = original.a.clone();
    let cols = n + 1;

    let pool = Pool::new(4);
    let mut sys = original.clone();
    let metrics = par_gauss(&pool, &mut sys, &RuntimeScheduler::afs_k_equals_p());
    let x = sys.solve_back();

    // Verify: ‖Ax − b‖∞ on the *original* system.
    let mut max_residual = 0.0f64;
    for r in 0..n {
        let mut s = 0.0;
        for c in 0..n {
            s += a0[r * cols + c] * x[c];
        }
        max_residual = max_residual.max((s - a0[r * cols + n]).abs());
    }
    println!("n = {n}: solved with AFS; max residual {max_residual:.3e}");
    println!(
        "flush loop: {} copy",
        affinity_sched::kernels::gauss::flush_copy()
    );
    println!(
        "scheduling: {} phases, {} local grabs, {} steals",
        sys.phases(),
        metrics.sync.local,
        metrics.sync.remote
    );
    assert!(max_residual < 1e-6, "residual too large");

    // The same elimination through every scheduler produces bit-identical
    // results (floating-point operations are per-row, order-independent
    // across rows within a phase).
    let reference = {
        let mut s = original.clone();
        s.run_sequential();
        s.a
    };
    for policy in [
        RuntimeScheduler::afs_k_equals_p(),
        RuntimeScheduler::self_sched(),
        RuntimeScheduler::gss(),
        RuntimeScheduler::trapezoid(),
        RuntimeScheduler::mod_factoring(),
    ] {
        let mut s = original.clone();
        par_gauss(&pool, &mut s, &policy);
        assert_eq!(s.a, reference, "{} diverged", policy.name());
        println!(
            "{:<14} matches the sequential elimination bit-for-bit",
            policy.name()
        );
    }
}
