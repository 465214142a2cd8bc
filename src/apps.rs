//! Parallel drivers: the paper's kernels executed on the real-thread
//! runtime under any scheduling policy.
//!
//! Each driver mutates the kernel's state exactly as the sequential
//! reference would (verified by the integration tests in `tests/`), and
//! returns the scheduling metrics of the run.
//!
//! # Safety architecture
//!
//! The kernels update disjoint matrix rows per iteration. Each driver moves
//! the kernel's storage into a [`RowMatrix`] and hands workers row views
//! under the documented contract: the scheduler assigns every iteration
//! index to exactly one worker (property-tested in `afs-core`), and the
//! kernel's phase structure guarantees rows read are never concurrently
//! written (Jacobi reads only the previous buffer; Gaussian elimination
//! reads only its panel's pivot rows, none of which is in the written set; transitive
//! closure skips the `j == k` no-op so the pivot row is read-only).

use afs_core::metrics::LoopMetrics;
use afs_kernels::adjoint::AdjointConvolution;
use afs_kernels::bitmat::{row_get, row_or, BitMatrix};
use afs_kernels::gauss::{eliminate_step, GaussSystem, PANEL};
use afs_kernels::l4::L4Model;
use afs_kernels::sor::{update_row_into, SorGrid};
use afs_kernels::transitive::TransitiveClosure;
use afs_runtime::{parallel_phases, Pool, RowMatrix, RuntimeScheduler};

/// Runs `steps` SOR relaxation steps in parallel. Equivalent to
/// [`SorGrid::run_sequential`].
pub fn par_sor(
    pool: &Pool,
    grid: &mut SorGrid,
    steps: usize,
    policy: &RuntimeScheduler,
) -> LoopMetrics {
    let n = grid.n();
    let a = RowMatrix::from_vec(std::mem::take(&mut grid.a), n, n);
    let b = RowMatrix::from_vec(std::mem::take(&mut grid.b), n, n);
    let metrics = parallel_phases(
        pool,
        steps,
        |_| n as u64,
        policy,
        |phase, i| {
            let (src, dst) = if phase % 2 == 0 { (&a, &b) } else { (&b, &a) };
            // SAFETY: `src` is read-only this phase (buffers alternate), and
            // row `i` of `dst` is written only by iteration `i`.
            unsafe {
                update_row_into(src.full(), dst.row_mut(i as usize), n, i as usize);
            }
        },
    );
    grid.a = a.into_vec();
    grid.b = b.into_vec();
    metrics
}

/// Runs the full Gaussian elimination in parallel. Equivalent to
/// [`GaussSystem::run_sequential`]: the same [`eliminate_step`] per
/// `(phase, row)`, row `i` being iteration `i − phase − 1` of every phase.
pub fn par_gauss(pool: &Pool, sys: &mut GaussSystem, policy: &RuntimeScheduler) -> LoopMetrics {
    let n = sys.n();
    let phases = sys.phases();
    let m = RowMatrix::from_vec(std::mem::take(&mut sys.a), n, sys.cols());
    // One multiplier slot per row that is ever eliminated: row `i >= 1` at
    // `i − 1`. A 1 × 1 system has none, and its 0 phases dispatch nothing.
    let mults = RowMatrix::from_vec(vec![0.0; phases * PANEL], phases, PANEL);
    let metrics = parallel_phases(
        pool,
        phases,
        |ph| (n - 1 - ph) as u64,
        policy,
        |phase, j| {
            let row = phase + 1 + j as usize;
            // SAFETY: the step asks for pivot rows `r <= phase` only, and the
            // rows written in this phase are `phase+1..n`, so no writer of the
            // phase aliases `r`; `r`'s last write (its flush, in a phase
            // `< phase`) is ordered before this read by the phase barrier.
            let pivot = |r: usize| unsafe { m.row(r) };
            // SAFETY: matrix row `row` and multiplier slot `row − 1` are
            // touched only by iteration `j` of this phase — the scheduler
            // hands `j` to exactly one worker — and `row > phase` is no
            // phase's pivot until phase `row`, which the barrier orders after
            // this write.
            let (row_mut, mult) = unsafe { (m.row_mut(row), mults.row_mut(row - 1)) };
            eliminate_step(phase, row, pivot, row_mut, mult);
        },
    );
    sys.a = m.into_vec();
    metrics
}

/// Runs Warshall's transitive closure in parallel. Equivalent to
/// [`TransitiveClosure::run_sequential`].
pub fn par_transitive(
    pool: &Pool,
    tc: &mut TransitiveClosure,
    policy: &RuntimeScheduler,
) -> LoopMetrics {
    let n = tc.a.n();
    let words = tc.a.words_per_row();
    let owned = std::mem::replace(&mut tc.a, BitMatrix::zeros(0));
    let m = RowMatrix::from_vec(owned.into_words(), n, words);
    let metrics = parallel_phases(
        pool,
        n,
        |_| n as u64,
        policy,
        |k, j| {
            let j = j as usize;
            if j == k {
                // `row_k |= row_k` is a semantic no-op; skipping it keeps the
                // pivot row read-only for the whole phase.
                return;
            }
            // SAFETY: row `j` is written only by iteration `j`; row `k` is
            // read-only this phase (iteration `k` was skipped above).
            unsafe {
                let row_j = m.row_mut(j);
                if row_get(row_j, k) {
                    row_or(row_j, m.row(k));
                }
            }
        },
    );
    tc.a = BitMatrix::from_words(n, m.into_vec());
    metrics
}

/// Runs the adjoint convolution in parallel (optionally in reverse index
/// order, the paper's Fig. 8 variant). Equivalent to
/// [`AdjointConvolution::run_sequential`].
pub fn par_adjoint(
    pool: &Pool,
    adj: &mut AdjointConvolution,
    policy: &RuntimeScheduler,
    reversed: bool,
) -> LoopMetrics {
    let len = adj.len();
    let out = RowMatrix::from_vec(std::mem::take(&mut adj.a), len as usize, 1);
    let adj_ref: &AdjointConvolution = adj;
    let metrics = parallel_phases(
        pool,
        1,
        |_| len,
        policy,
        |_, idx| {
            // Reverse scheduling maps scheduler index `idx` to element
            // `len−1−idx`, so the cheap elements are handed out first.
            let i = if reversed { len - 1 - idx } else { idx };
            // SAFETY: element `i` is written only by this iteration.
            unsafe {
                out.row_mut(i as usize)[0] = adj_ref.element(i);
            }
        },
    );
    adj.a = out.into_vec();
    metrics
}

/// Executes the L4 benchmark's loop structure, burning each iteration's
/// work units with arithmetic. Returns (metrics, burned-units checksum).
pub fn par_l4(pool: &Pool, model: &L4Model, policy: &RuntimeScheduler) -> (LoopMetrics, f64) {
    use std::sync::atomic::{AtomicU64, Ordering};
    let burned = AtomicU64::new(0);
    let metrics = parallel_phases(
        pool,
        afs_sim::Workload::phases(model),
        |ph| afs_sim::Workload::phase_len(model, ph),
        policy,
        |ph, i| {
            let units = model.units(ph, i);
            // Burn ~`units` arithmetic operations.
            let mut acc = 0u64;
            for step in 0..units as u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(step);
            }
            std::hint::black_box(acc);
            burned.fetch_add(units as u64, Ordering::Relaxed);
        },
    );
    let total = burned.load(std::sync::atomic::Ordering::Relaxed) as f64;
    (metrics, total)
}
