//! Adaptive-policy integration tests.
//!
//! Two contracts, end to end on real pools:
//!
//! * **Frozen differential**: a frozen [`AdaptController`] must make
//!   `Policy::Adaptive` indistinguishable from the static AFS cell it is
//!   frozen at — same computed bytes, same exactly-once coverage, and the
//!   controller must not move.
//! * **Theorem 3.2 under faults**: across many fault-injection seeds, a
//!   delayed worker's residual imbalance under the *self-tuning* policy
//!   must respect the paper's bound at whatever `k` the controller ended
//!   on — re-tuning never costs the theorem.

use afs_core::theory::thm32_imbalance_bound;
use afs_runtime::adapt::AdaptController;
use afs_runtime::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const P: usize = 8;

/// A deterministic multi-phase stencil whose output depends on every
/// (phase, iteration) body running exactly once: phase `t` reads buffer
/// `t % 2` and writes buffer `(t + 1) % 2`. Any skipped, doubled, or
/// misrouted iteration changes the final bytes.
fn jacobi_bytes(pool: &Pool, policy: &RuntimeScheduler, n: u64, phases: usize) -> (Vec<u64>, u64) {
    let bufs: [Vec<AtomicU64>; 2] = [
        (0..n).map(|i| AtomicU64::new(i * 0x9E37_79B9)).collect(),
        (0..n).map(|_| AtomicU64::new(0)).collect(),
    ];
    let m = parallel_phases(
        pool,
        phases,
        |_| n,
        policy,
        |phase, i| {
            let (src, dst) = (&bufs[phase % 2], &bufs[(phase + 1) % 2]);
            let at = |j: u64| src[(j % n) as usize].load(Ordering::Relaxed);
            let v = at(i + n - 1)
                .wrapping_mul(3)
                .wrapping_add(at(i))
                .wrapping_add(at(i + 1))
                .rotate_left((phase as u32) & 31)
                ^ i;
            dst[i as usize].store(v, Ordering::Relaxed);
        },
    );
    let out = bufs[phases % 2]
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    (out, m.total_iters())
}

/// Frozen controller ≡ static cell: the bytes a multi-phase computation
/// produces, and the iteration totals, must be identical — and the frozen
/// controller must report zero decisions and an unmoved operating point
/// afterwards.
#[test]
fn frozen_controller_matches_static_policy() {
    let (n, phases) = (4_096u64, 9usize);
    let (k, b) = (4u64, 2usize);
    let (want, static_iters) =
        jacobi_bytes(&Pool::new(P), &RuntimeScheduler::afs_tuned(k, b), n, phases);

    let ctl = Arc::new(AdaptController::with_initial(P, k, b));
    ctl.freeze();
    let frozen = RuntimeScheduler::adaptive_with(Arc::clone(&ctl));
    let (got, frozen_iters) = jacobi_bytes(&Pool::new(P), &frozen, n, phases);

    assert_eq!(static_iters, n * phases as u64, "static coverage");
    assert_eq!(frozen_iters, n * phases as u64, "frozen coverage");
    assert_eq!(got, want, "frozen Adaptive diverged from afs_tuned");
    assert!(ctl.is_frozen());
    assert_eq!(ctl.current(), (k, b), "operating point moved");
    assert_eq!(ctl.decisions(), 0, "frozen controller decided");
}

/// A frozen controller at the paper default (k = P, b = 1) must also match
/// the canonical `afs_k_equals_p` constructor, not just `afs_tuned`.
#[test]
fn frozen_default_matches_afs_k_equals_p() {
    let (n, phases) = (2_048u64, 5usize);
    let pool = || Pool::new(P);
    let (want, _) = jacobi_bytes(&pool(), &RuntimeScheduler::afs_k_equals_p(), n, phases);
    let ctl = Arc::new(AdaptController::with_initial(P, P as u64, 1));
    ctl.freeze();
    let (got, _) = jacobi_bytes(
        &pool(),
        &RuntimeScheduler::adaptive_with(Arc::clone(&ctl)),
        n,
        phases,
    );
    assert_eq!(got, want);
}

/// Theorem 3.2 across 20 fault seeds: delay worker 0 long enough that the
/// other P−1 workers drain everything stealable, then check the residual
/// (iterations worker 0 still executes on arrival) against the paper's
/// bound *at the k the controller ended on*. The bound must hold for every
/// seed — self-tuning may move k, but never out of the theorem.
#[test]
fn adaptive_residual_respects_thm32_bound_across_fault_seeds() {
    let n = 4_096u64;
    // Size the delay off a clean adaptive run, the same calibration the
    // fault bench uses: by 3× the clean makespan plus slack, the healthy
    // workers have long since drained every queue.
    let clean_policy = RuntimeScheduler::adaptive(P);
    let start = Instant::now();
    let m = afs_runtime::parallel_for(&Pool::builder(P).build(), n, &clean_policy, |i| {
        std::hint::black_box(i.wrapping_mul(0x9E37_79B9));
    });
    assert_eq!(m.total_iters(), n);
    let delay = Duration::from_nanos(3 * start.elapsed().as_nanos() as u64 + 30_000_000);

    for seed in 0..20u64 {
        let pool = Pool::builder(P)
            .faults(FaultPlan::new(seed).with_delayed_start(0, delay))
            .build();
        let policy = RuntimeScheduler::adaptive(P);
        let m = afs_runtime::parallel_for(&pool, n, &policy, |i| {
            std::hint::black_box(i.wrapping_mul(0x9E37_79B9));
        });
        assert_eq!(m.total_iters(), n, "seed {seed}: exactly-once");
        let residual = m.iters_per_worker[0];
        let (final_k, _) = policy.controller().expect("adaptive").current();
        let bound = thm32_imbalance_bound(n, P, final_k);
        assert!(
            residual as f64 <= bound,
            "seed {seed}: residual {residual} exceeds Thm 3.2 bound {bound:.1} at k={final_k}"
        );
    }
}
