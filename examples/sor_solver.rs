//! SOR solver: the paper's headline affinity workload, executed on the
//! real-thread runtime under several scheduling policies, verified against
//! the sequential reference.
//!
//! ```text
//! cargo run --release --example sor_solver [n] [steps]
//! ```

use affinity_sched::apps::par_sor;
use affinity_sched::prelude::*;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);
    let steps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);

    // Sequential reference.
    let mut reference = SorGrid::new(n);
    let t0 = Instant::now();
    reference.run_sequential(steps);
    let seq_time = t0.elapsed();
    let expect = reference.checksum(steps);
    println!("sequential: checksum {expect:.6}, {seq_time:.2?}");

    // Core pinning: the configuration the kernel benchmark
    // (`repro --bench-kernels`) measures against the unpinned pool.
    let pool = Pool::builder(4).pin_cores(true).build();
    let policies = [
        RuntimeScheduler::static_partition(),
        RuntimeScheduler::self_sched(),
        RuntimeScheduler::gss(),
        RuntimeScheduler::factoring(),
        RuntimeScheduler::trapezoid(),
        RuntimeScheduler::afs_k_equals_p(),
        RuntimeScheduler::afs_grab_ahead(8),
    ];
    for policy in policies {
        let mut grid = SorGrid::new(n);
        let t0 = Instant::now();
        let metrics = par_sor(&pool, &mut grid, steps, &policy);
        let wall = t0.elapsed();
        let got = grid.checksum(steps);
        let ok = (got - expect).abs() < 1e-9 * expect.abs().max(1.0);
        println!(
            "{:<14} checksum {:>12.6} [{}]  {:>9.2?}  sync: {} central / {} local / {} remote",
            policy.name(),
            got,
            if ok { "OK" } else { "MISMATCH" },
            wall,
            metrics.sync.central,
            metrics.sync.local,
            metrics.sync.remote,
        );
        assert!(
            ok,
            "{} diverged from the sequential reference",
            policy.name()
        );
    }
    println!("\nall policies computed the identical grid; scheduling metrics differ.");
    println!("(wall-clock differences are uninformative on a 1-CPU host — the");
    println!(" machine-level comparison lives in the simulator: `repro fig3 fig17`)");
}
