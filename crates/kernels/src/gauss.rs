//! Gaussian elimination (no pivoting) on an `n × n` system.
//!
//! The paper's structure (§4.2): the sequential loop runs over elimination
//! steps `k`; the parallel loop updates rows `k..n` against pivot row `k−1`.
//! The parallel loop *shrinks* with `k` (slight imbalance); iteration `j`
//! mostly touches the same row it touched in earlier phases (strong but
//! imperfect affinity) plus the shared pivot row (true sharing).
//!
//! The `A[i][k−1] / A[k−1][k−1]` multiplier is row-invariant and hoisted out
//! of the inner loop — one divide per row update (this is why Gaussian
//! elimination does *not* hit the KSR-1 software-divide anomaly that SOR
//! does; see DESIGN.md).
//!
//! The paper fixes that nest, not how a row's inner update is staged.
//! [`eliminate_step`] defers each row's trailing-column update over a panel
//! of [`PANEL`] pivots and applies the pending ones in a single pass, so a
//! row is loaded and stored once per panel instead of once per pivot. Every
//! element still receives the same subtractions in the same order: the
//! result is bit-identical to the textbook one-pivot-per-pass update (the
//! test-only reference this module is pinned to). DESIGN.md §3.4.

use crate::simd::{copies, Loop};
use afs_sim::{BlockAccess, Work, Workload};

/// A dense linear system being eliminated in place.
#[derive(Clone, Debug)]
pub struct GaussSystem {
    n: usize,
    /// Row-major `n × (n+1)` augmented matrix.
    pub a: Vec<f64>,
}

impl GaussSystem {
    /// Creates a diagonally dominant system (elimination never divides by
    /// ~zero) with deterministic pseudo-random entries.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 1);
        let cols = n + 1;
        let mut rng = afs_core::rng::Xoshiro256::seed_from_u64(seed);
        let mut a = vec![0.0; n * cols];
        for r in 0..n {
            let mut row_sum = 0.0;
            for c in 0..cols {
                let v = rng.next_f64() * 2.0 - 1.0;
                a[r * cols + c] = v;
                if c < n && c != r {
                    row_sum += v.abs();
                }
            }
            // Dominant diagonal.
            a[r * cols + r] = row_sum + 1.0;
        }
        Self { n, a }
    }

    /// System dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of columns (n + 1, augmented).
    pub fn cols(&self) -> usize {
        self.n + 1
    }

    /// Number of elimination phases (`n − 1`).
    pub fn phases(&self) -> usize {
        self.n - 1
    }

    /// Rows updated in `phase` (0-based): rows `phase+1 .. n`.
    pub fn phase_len(&self, phase: usize) -> u64 {
        (self.n - 1 - phase) as u64
    }

    /// Runs the full elimination sequentially: [`eliminate_step`] over the
    /// same `(phase, row)` nest the parallel driver schedules.
    pub fn run_sequential(&mut self) {
        let cols = self.cols();
        // One slot per row that is ever eliminated: row `i >= 1` at `i − 1`.
        let mut mults = vec![0.0; self.phases() * PANEL];
        for phase in 0..self.phases() {
            // Rows `..= phase` are final; only the rows below are written.
            let (done, below) = self.a.split_at_mut((phase + 1) * cols);
            let pivot = |r: usize| &done[r * cols..][..cols];
            let rows = below.chunks_exact_mut(cols);
            let mults = mults[phase * PANEL..].chunks_exact_mut(PANEL);
            for (j, (row, mult)) in rows.zip(mults).enumerate() {
                eliminate_step(phase, phase + 1 + j, pivot, row, mult);
            }
        }
    }

    /// Maps parallel-iteration `j` of `phase` to its matrix row.
    pub fn iter_row(&self, phase: usize, j: u64) -> usize {
        phase + 1 + j as usize
    }

    /// Back-substitutes and returns the solution vector (after elimination).
    pub fn solve_back(&self) -> Vec<f64> {
        let (n, cols) = (self.n, self.cols());
        let mut x = vec![0.0; n];
        for r in (0..n).rev() {
            let mut s = self.a[r * cols + n];
            for (c, &xc) in x.iter().enumerate().take(n).skip(r + 1) {
                s -= self.a[r * cols + c] * xc;
            }
            x[r] = s / self.a[r * cols + r];
        }
        x
    }

    /// Checksum over the eliminated matrix.
    pub fn checksum(&self) -> f64 {
        self.a.iter().map(|v| v.abs().min(1e6)).sum()
    }
}

/// Pivots over which a row's trailing-column update is deferred: the width
/// of the multiplier slot [`eliminate_step`] keeps per row. A constant of
/// the kernel, not a parameter: the smallest panel on the plateau of the
/// 2 / 4 / 8 readings in DESIGN.md §3.4.
pub const PANEL: usize = 4;
// `eliminate_step` monomorphises the flush on the pending counts 1..=4.
const _: () = assert!(PANEL == 4);

/// Iteration `(k, i)` of the elimination nest — the parallel-loop body:
/// eliminates column `k` of `row` (matrix row `i > k`).
///
/// Phases are grouped into panels of [`PANEL`] consecutive pivots. The step
/// computes row `i`'s multiplier for pivot `k`, stores it in `mult` (row
/// `i`'s `PANEL`-wide slot, which must survive from phase to phase), and
/// updates only the row's panel columns `k .. panel end` — enough for the
/// panel's later multipliers. The trailing columns are updated when the row
/// is *flushed*: when it is the next pivot (`i == k + 1`), or when phase
/// `k` closes its panel (`k % PANEL == PANEL − 1`, or the last phase). The
/// flush applies every pending pivot of the panel in one pass that keeps
/// the element in a register between subtractions.
///
/// `pivot(r)` is matrix row `r`, asked only for `r` in `panel start ..= k`.
/// Those rows were flushed before phase `k` began (each as the next pivot
/// of the phase before its own, or at the previous panel's close) and are
/// not in the phase's written set `k+1 .. n`, so the rows of one phase may
/// be stepped in any order, concurrently.
///
/// Every element receives exactly the subtractions `x −= pivot[c] · m` of
/// the one-pivot-per-pass update, in the same pivot order, each product and
/// difference rounded separately — bit-identical results.
pub fn eliminate_step<'a>(
    k: usize,
    i: usize,
    pivot: impl Fn(usize) -> &'a [f64],
    row: &mut [f64],
    mult: &mut [f64],
) {
    let n = row.len() - 1;
    let start = k - k % PANEL;
    let end = (start + PANEL).min(n + 1);
    let pk = pivot(k);
    let m = row[k] / pk[k]; // hoisted divide
    mult[k - start] = m;
    for c in k..end {
        row[c] -= pk[c] * m;
    }
    let closes = k % PANEL == PANEL - 1 || k == n - 2;
    if i == k + 1 || closes {
        let tail = &mut row[end..];
        let pivot = |j: usize| &pivot(start + j)[end..];
        match k - start {
            0 => flush::<1>(tail, pivot, mult),
            1 => flush::<2>(tail, pivot, mult),
            2 => flush::<3>(tail, pivot, mult),
            _ => flush::<PANEL>(tail, pivot, mult),
        }
    }
}

/// Applies a row's `K` pending pivots to its trailing columns: one load and
/// one store per element, the `K` multiply-subtracts in pivot order between.
///
/// Runs [`flush_loop`]'s copy that [`Loop::GaussFlush`]'s entry in
/// [`crate::simd::TABLE`] names (AVX-512F), or the portable copy on a CPU
/// without it.
fn flush<'a, const K: usize>(tail: &mut [f64], pivot: impl Fn(usize) -> &'a [f64], mult: &[f64]) {
    // Every slice gets the one length the loop runs over.
    let pivots: [&[f64]; K] = std::array::from_fn(|j| &pivot(j)[..tail.len()]);
    let m: [f64; K] = std::array::from_fn(|j| mult[j]);
    flush_as(Loop::GaussFlush.chosen(), tail, &pivots, &m)
}

copies! {
    /// [`flush_loop`] compiled for `isa` (see [`crate::simd::copies`]).
    fn flush_as<const K: usize>(tail: &mut [f64], pivots: &[&[f64]; K], m: &[f64; K]) = flush_loop;
}

/// The flush body, compiled once per [`crate::simd::Isa`]. Every copy
/// gives every element the same `v −= p[c] · m` sequence, each product and
/// difference rounded on its own (rustc never fuses them into an FMA), so
/// the copies agree bit for bit.
#[inline(always)]
fn flush_loop<const K: usize>(tail: &mut [f64], pivots: &[&[f64]; K], m: &[f64; K]) {
    for (c, x) in tail.iter_mut().enumerate() {
        let mut v = *x;
        for j in 0..K {
            v -= pivots[j][c] * m[j];
        }
        *x = v;
    }
}

/// Simulator workload model of Gaussian elimination.
///
/// Deliberately the paper's traffic, not [`eliminate_step`]'s: every phase
/// reads one pivot row and reads and writes the whole active part of each
/// remaining row — one pivot per pass, the memory behaviour the paper's
/// machines were measured on (as `TcModel` keeps the paper's Fortran
/// logicals while the executable kernel packs bits).
#[derive(Clone, Debug)]
pub struct GaussModel {
    n: u64,
}

impl GaussModel {
    /// Elimination of an `n × n` system.
    pub fn new(n: u64) -> Self {
        assert!(n >= 2);
        Self { n }
    }

    fn active_bytes(&self, phase: usize) -> u32 {
        // Columns phase..n+1 are touched.
        ((self.n as usize + 1 - phase) * 8) as u32
    }
}

impl Workload for GaussModel {
    fn name(&self) -> String {
        format!("GAUSS(n={})", self.n)
    }

    fn phases(&self) -> usize {
        (self.n - 1) as usize
    }

    fn phase_len(&self, phase: usize) -> u64 {
        self.n - 1 - phase as u64
    }

    fn cost(&self, phase: usize, _i: u64) -> Work {
        // 2 flops per touched element (multiply + subtract), 1 hoisted div.
        let elems = (self.n as usize + 1 - phase) as f64;
        Work::new(2.0 * elems, 1.0)
    }

    fn reads(&self, phase: usize, i: u64, out: &mut Vec<BlockAccess>) {
        let bytes = self.active_bytes(phase);
        // Pivot row (true sharing) and the row being updated.
        out.push(BlockAccess {
            block: phase as u64,
            bytes,
        });
        out.push(BlockAccess {
            block: phase as u64 + 1 + i,
            bytes,
        });
    }

    fn writes(&self, phase: usize, i: u64, out: &mut Vec<BlockAccess>) {
        out.push(BlockAccess {
            block: phase as u64 + 1 + i,
            bytes: self.active_bytes(phase),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::Isa;

    #[test]
    fn elimination_solves_the_system() {
        let n = 24;
        let sys0 = GaussSystem::new(n, 7);
        // Record A and b to verify the solution.
        let a0 = sys0.a.clone();
        let mut sys = sys0;
        sys.run_sequential();
        let x = sys.solve_back();
        let cols = n + 1;
        for r in 0..n {
            let mut s = 0.0;
            for c in 0..n {
                s += a0[r * cols + c] * x[c];
            }
            let b = a0[r * cols + n];
            assert!((s - b).abs() < 1e-8, "row {r}: Ax = {s}, b = {b}");
        }
    }

    #[test]
    fn elimination_zeroes_subdiagonal() {
        let mut sys = GaussSystem::new(16, 3);
        sys.run_sequential();
        let cols = sys.cols();
        for r in 1..16 {
            for c in 0..r {
                assert!(
                    sys.a[r * cols + c].abs() < 1e-9,
                    "a[{r}][{c}] = {}",
                    sys.a[r * cols + c]
                );
            }
        }
    }

    #[test]
    fn phase_rows_are_disjoint() {
        let sys = GaussSystem::new(10, 1);
        for phase in 0..sys.phases() {
            let rows: Vec<usize> = (0..sys.phase_len(phase))
                .map(|j| sys.iter_row(phase, j))
                .collect();
            let set: std::collections::HashSet<_> = rows.iter().collect();
            assert_eq!(set.len(), rows.len());
            assert!(
                rows.iter().all(|&r| r > phase),
                "no row may alias the pivot"
            );
        }
    }

    /// The textbook update this module replaced, kept as the reference:
    /// one pivot per pass over the whole active row.
    fn eliminate_row(pivot: &[f64], row: &mut [f64], phase: usize) {
        let mult = row[phase] / pivot[phase];
        for c in phase..row.len() {
            row[c] -= pivot[c] * mult;
        }
    }

    /// `sys` after `phases` one-pivot phases of the reference.
    fn reference(mut sys: GaussSystem, phases: usize) -> GaussSystem {
        let cols = sys.cols();
        for phase in 0..phases {
            let (done, below) = sys.a.split_at_mut((phase + 1) * cols);
            for row in below.chunks_exact_mut(cols) {
                eliminate_row(&done[phase * cols..], row, phase);
            }
        }
        sys
    }

    fn bits(sys: &GaussSystem) -> Vec<u64> {
        sys.a.iter().map(|v| v.to_bits()).collect()
    }

    /// n < PANEL, n ≡ 0 / ±1 mod PANEL, and last panels that reach the
    /// augmented column (n = 2, 3) or stop one short of it (n = 4).
    const SIZES: [usize; 10] = [1, 2, 3, 4, 5, 7, 8, 9, 64, 257];

    #[test]
    fn run_sequential_is_bit_identical_to_the_one_pivot_reference() {
        for n in SIZES {
            for seed in [3, 11] {
                let mut sys = GaussSystem::new(n, seed);
                let expected = reference(sys.clone(), sys.phases());
                sys.run_sequential();
                assert_eq!(bits(&sys), bits(&expected), "n = {n}, seed = {seed}");
            }
        }
    }

    /// Steps every phase of a 12-system up to and including `last`, that
    /// one over its rows in `order`, and compares with the reference where
    /// the deferred update has caught up: every row after a panel-closing
    /// phase, the flushed next-pivot row (all columns) and the panel
    /// columns of the others after a light one.
    fn phase_in_order(last: usize, reversed: bool) {
        let mut sys = GaussSystem::new(12, 5);
        let expected = reference(sys.clone(), last + 1);
        let (n, cols) = (sys.n(), sys.cols());
        let mut mults = vec![0.0; (n - 1) * PANEL];
        for phase in 0..=last {
            let (done, below) = sys.a.split_at_mut((phase + 1) * cols);
            let mut rows: Vec<usize> = (phase + 1..n).collect();
            if phase == last && reversed {
                rows.reverse();
            }
            for i in rows {
                eliminate_step(
                    phase,
                    i,
                    |r| &done[r * cols..][..cols],
                    &mut below[(i - phase - 1) * cols..][..cols],
                    &mut mults[(i - 1) * PANEL..][..PANEL],
                );
            }
        }
        let closes = last % PANEL == PANEL - 1;
        let panel_end = last - last % PANEL + PANEL;
        for r in 0..n {
            let upto = if closes || r <= last + 1 {
                cols
            } else {
                panel_end
            };
            let (got, want) = (&sys.a[r * cols..][..upto], &expected.a[r * cols..][..upto]);
            assert!(
                got.iter()
                    .zip(want)
                    .all(|(g, w)| g.to_bits() == w.to_bits()),
                "phase {last}, reversed = {reversed}: row {r} diverged"
            );
        }
    }

    #[test]
    fn light_phase_is_order_independent() {
        // Phase 5 is the second of panel 4..8: row 6 (the next pivot) is
        // flushed, rows 7.. only get their panel columns.
        phase_in_order(5, false);
        phase_in_order(5, true);
    }

    #[test]
    fn panel_closing_phase_is_order_independent() {
        // Phase 7 closes panel 4..8: every remaining row is flushed.
        phase_in_order(7, false);
        phase_in_order(7, true);
    }

    /// The `isa` copy of the flush loop against the portable one on the
    /// same awkward inputs, `K` pending pivots, every tail length in
    /// `0..=17` and 1025 (each vector remainder), bit for bit.
    fn flush_copies_agree<const K: usize>(isa: Isa) {
        for len in (0..=17).chain([1025]) {
            let seed = 0x6a55 + (K * 2000 + len) as u64;
            let values = crate::awkward_buffer((K + 1) * len + K, seed);
            let (rows, m) = values.split_at((K + 1) * len);
            let m: [f64; K] = std::array::from_fn(|j| m[j]);
            let (tail, pivots) = rows.split_at(len);
            let pivots: [&[f64]; K] = std::array::from_fn(|j| &pivots[j * len..][..len]);
            let mut portable = tail.to_vec();
            let mut wide = tail.to_vec();
            flush_as(Isa::Portable, &mut portable, &pivots, &m);
            flush_as(isa, &mut wide, &pivots, &m);
            let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&wide),
                bits(&portable),
                "{isa:?}, K = {K}, len = {len}"
            );
        }
    }

    #[test]
    fn flush_avx512f_is_bit_identical_to_the_portable_loop() {
        let isa = Isa::Avx512f;
        if !crate::simd::check_or_say(isa, "flush_avx512f_is_bit_identical_to_the_portable_loop") {
            return;
        }
        flush_copies_agree::<1>(isa);
        flush_copies_agree::<2>(isa);
        flush_copies_agree::<3>(isa);
        flush_copies_agree::<4>(isa);
    }

    #[test]
    fn model_shapes_match_system() {
        let sys = GaussSystem::new(64, 2);
        let model = GaussModel::new(64);
        assert_eq!(model.phases(), sys.phases());
        for ph in 0..model.phases() {
            assert_eq!(model.phase_len(ph), sys.phase_len(ph));
        }
        // Shrinking cost.
        assert!(model.cost(0, 0).flops > model.cost(30, 0).flops);
        assert_eq!(model.cost(0, 0).divs, 1.0);
    }

    #[test]
    fn model_footprint_reads_pivot_and_own_row() {
        let m = GaussModel::new(16);
        let mut reads = Vec::new();
        m.reads(3, 5, &mut reads);
        assert_eq!(reads[0].block, 3); // pivot row
        assert_eq!(reads[1].block, 9); // row 3+1+5
        let mut writes = Vec::new();
        m.writes(3, 5, &mut writes);
        assert_eq!(writes[0].block, 9);
    }
}
