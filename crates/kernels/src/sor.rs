//! Successive over-relaxation (SOR) on an `n × n` grid.
//!
//! The paper's structure (§4.2): a parallel loop over rows nested inside a
//! sequential loop over relaxation steps. Every parallel iteration costs the
//! same, and iteration `j` always touches row `j` — no load imbalance,
//! maximal affinity (Table 1).
//!
//! We use the Jacobi two-buffer update (read the previous buffer, write the
//! next) so that parallel row updates are race-free: row `j` of the output
//! depends on rows `j−1, j, j+1` of the input. The scheduler-relevant
//! structure (uniform cost, one row per iteration, reuse across steps) is
//! identical to the paper's in-place variant; DESIGN.md records the
//! substitution.

use afs_sim::{BlockAccess, Work, Workload};

/// Five-point-stencil relaxation factor.
const OMEGA: f64 = 0.8;

/// The SOR grid: two `n × n` buffers that alternate roles per step.
#[derive(Clone, Debug)]
pub struct SorGrid {
    n: usize,
    /// Buffer read during even phases, written during odd phases.
    pub a: Vec<f64>,
    /// Buffer written during even phases, read during odd phases.
    pub b: Vec<f64>,
}

impl SorGrid {
    /// Creates a grid with a deterministic, non-trivial initial condition.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        let mut a = vec![0.0; n * n];
        for (idx, v) in a.iter_mut().enumerate() {
            let (r, c) = (idx / n, idx % n);
            *v = ((r * 31 + c * 17) % 97) as f64 / 97.0;
        }
        let b = a.clone();
        Self { n, a, b }
    }

    /// Grid dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The buffer read during `phase`.
    pub fn src(&self, phase: usize) -> &[f64] {
        if phase.is_multiple_of(2) {
            &self.a
        } else {
            &self.b
        }
    }

    /// Runs `steps` relaxation steps sequentially (the reference
    /// implementation parallel executions must match).
    pub fn run_sequential(&mut self, steps: usize) {
        let n = self.n;
        for phase in 0..steps {
            for row in 0..n {
                let (src, dst) = self.buffers_mut(phase);
                update_row(src, dst, n, row);
            }
        }
    }

    /// Splits the two buffers into (source, destination) for `phase`.
    ///
    /// Exposed so executors can drive row updates; destination rows are
    /// written disjointly by iteration index.
    pub fn buffers_mut(&mut self, phase: usize) -> (&[f64], &mut [f64]) {
        if phase.is_multiple_of(2) {
            (&self.a, &mut self.b)
        } else {
            (&self.b, &mut self.a)
        }
    }

    /// Checksum for correctness comparisons.
    pub fn checksum(&self, steps: usize) -> f64 {
        self.src(steps).iter().sum()
    }
}

/// Updates one row: `dst[row] = relax(src[row−1], src[row], src[row+1])`.
///
/// This is the body of the parallel loop — one call per iteration.
pub fn update_row(src: &[f64], dst: &mut [f64], n: usize, row: usize) {
    debug_assert_eq!(dst.len(), n * n);
    let base = row * n;
    update_row_into(src, &mut dst[base..base + n], n, row);
}

/// Row-sliced variant: writes the updated row into `dst_row` (length `n`).
/// Used by parallel executors that hand out disjoint destination rows.
///
/// The three source rows are sliced once and the two edge columns peeled,
/// so the interior is one straight-line loop with no edge test or bounds
/// check per point, which the compiler unswitches on the (loop-invariant)
/// first-row / last-row cases and vectorizes. A missing neighbour, row or
/// column, is a literal `0.0` in its own position of the sum — `x + 0.0`,
/// not `x`, which differ for `x = -0.0` — exactly what the per-element
/// reference stencil in the tests computes, so the two agree bit for bit.
pub fn update_row_into(src: &[f64], dst_row: &mut [f64], n: usize, row: usize) {
    debug_assert_eq!(src.len(), n * n);
    debug_assert_eq!(dst_row.len(), n);
    let base = row * n;
    // Every slice gets the one length `n` the loop runs over.
    let mid = &src[base..][..n];
    let up = (row > 0).then(|| &src[base - n..][..n]);
    let down = (row + 1 < n).then(|| &src[base + n..][..n]);
    let dst = &mut dst_row[..n];
    let point = |col: usize, left: f64, right: f64| {
        let up = up.map_or(0.0, |r| r[col]);
        let down = down.map_or(0.0, |r| r[col]);
        let old = mid[col];
        // One division per element: the operation mix the paper calls out
        // for the KSR-1's software divide (§5.2).
        let avg = (up + down + left + right) / 4.0;
        old + OMEGA * (avg - old)
    };
    if n == 1 {
        dst[0] = point(0, 0.0, 0.0);
        return;
    }
    dst[0] = point(0, 0.0, mid[1]);
    for col in 1..n - 1 {
        dst[col] = point(col, mid[col - 1], mid[col + 1]);
    }
    dst[n - 1] = point(n - 1, mid[n - 2], 0.0);
}

/// Simulator workload model of SOR: `steps` phases of `n` row-iterations.
#[derive(Clone, Debug)]
pub struct SorModel {
    n: u64,
    steps: usize,
}

impl SorModel {
    /// SOR on an `n × n` grid for `steps` relaxation steps.
    pub fn new(n: u64, steps: usize) -> Self {
        assert!(n >= 1 && steps >= 1);
        Self { n, steps }
    }

    /// Block id of row `r` of the buffer read in even phases.
    fn block_a(&self, r: u64) -> u64 {
        r
    }
    /// Block id of row `r` of the other buffer.
    fn block_b(&self, r: u64) -> u64 {
        self.n + r
    }
    fn row_bytes(&self) -> u32 {
        (self.n * 8) as u32
    }
}

impl Workload for SorModel {
    fn name(&self) -> String {
        format!("SOR(n={}, steps={})", self.n, self.steps)
    }

    fn phases(&self) -> usize {
        self.steps
    }

    fn phase_len(&self, _phase: usize) -> u64 {
        self.n
    }

    fn cost(&self, _phase: usize, _i: u64) -> Work {
        // Per element: 4 adds + 1 multiply-ish ≈ 5 flops, plus 1 divide.
        Work::new(5.0 * self.n as f64, self.n as f64)
    }

    fn reads(&self, phase: usize, i: u64, out: &mut Vec<BlockAccess>) {
        let src = |r: u64| {
            if phase.is_multiple_of(2) {
                self.block_a(r)
            } else {
                self.block_b(r)
            }
        };
        let bytes = self.row_bytes();
        if i > 0 {
            out.push(BlockAccess {
                block: src(i - 1),
                bytes,
            });
        }
        out.push(BlockAccess {
            block: src(i),
            bytes,
        });
        if i + 1 < self.n {
            out.push(BlockAccess {
                block: src(i + 1),
                bytes,
            });
        }
    }

    fn writes(&self, phase: usize, i: u64, out: &mut Vec<BlockAccess>) {
        let dst = if phase.is_multiple_of(2) {
            self.block_b(i)
        } else {
            self.block_a(i)
        };
        out.push(BlockAccess {
            block: dst,
            bytes: self.row_bytes(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_sor_converges_toward_smoothness() {
        let mut g = SorGrid::new(32);
        let rough_before: f64 = roughness(g.src(0), 32);
        g.run_sequential(50);
        let rough_after: f64 = roughness(g.src(50), 32);
        assert!(
            rough_after < rough_before * 0.5,
            "relaxation should smooth the grid: {rough_before} → {rough_after}"
        );
    }

    fn roughness(grid: &[f64], n: usize) -> f64 {
        let mut sum = 0.0;
        for r in 0..n {
            for c in 0..n.saturating_sub(1) {
                sum += (grid[r * n + c] - grid[r * n + c + 1]).abs();
            }
        }
        sum
    }

    /// The stencil written per element — four edge tests and five indexed
    /// loads per point: the reference `update_row_into` must equal bit for
    /// bit.
    fn reference_update_row_into(src: &[f64], dst_row: &mut [f64], n: usize, row: usize) {
        let base = row * n;
        for col in 0..n {
            let up = if row > 0 { src[base - n + col] } else { 0.0 };
            let down = if row + 1 < n {
                src[base + n + col]
            } else {
                0.0
            };
            let left = if col > 0 { src[base + col - 1] } else { 0.0 };
            let right = if col + 1 < n {
                src[base + col + 1]
            } else {
                0.0
            };
            let old = src[base + col];
            let avg = (up + down + left + right) / 4.0;
            dst_row[col] = old + OMEGA * (avg - old);
        }
    }

    /// A seeded `n × n` buffer of the values where a reordered or fused
    /// floating-point expression would show: signed zeros, subnormals,
    /// and magnitudes from 1e-300 up to 1e150 (no NaN; four 1e150s sum
    /// without overflowing).
    fn awkward_buffer(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = afs_core::rng::Xoshiro256::seed_from_u64(seed);
        (0..n * n)
            .map(|_| {
                let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
                match rng.next_below(5) {
                    0 => sign * 0.0,
                    1 => sign * f64::from_bits(1 + rng.next_below((1 << 52) - 1)),
                    2 => sign * 1e-300 * rng.next_f64(),
                    3 => sign * 1e150 * rng.next_f64(),
                    _ => sign * rng.next_f64(),
                }
            })
            .collect()
    }

    const EDGE_SIZES: [usize; 6] = [1, 2, 3, 5, 64, 65];

    #[test]
    fn update_row_into_is_bit_identical_to_the_reference_stencil() {
        for n in EDGE_SIZES {
            let awkward = awkward_buffer(n, 0x50b + n as u64);
            if n >= 64 {
                // The generator really produces the values it is for.
                assert!(awkward.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()));
                assert!(awkward.iter().any(|v| v.is_subnormal()));
                assert!(awkward.iter().any(|v| v.abs() > 1e149));
            }
            for src in [SorGrid::new(n).a, awkward] {
                for row in 0..n {
                    let mut want = vec![f64::NAN; n];
                    let mut got = vec![f64::NAN; n];
                    reference_update_row_into(&src, &mut want, n, row);
                    update_row_into(&src, &mut got, n, row);
                    let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "n={n} row={row}");
                }
            }
        }
    }

    #[test]
    fn run_sequential_keeps_the_reference_checksum_bits() {
        // An odd step count, so the result is read from buffer `b`.
        let steps = 101;
        for n in EDGE_SIZES {
            let mut grid = SorGrid::new(n);
            let (mut src, mut dst) = (grid.a.clone(), grid.b.clone());
            for _ in 0..steps {
                for row in 0..n {
                    reference_update_row_into(&src, &mut dst[row * n..(row + 1) * n], n, row);
                }
                std::mem::swap(&mut src, &mut dst);
            }
            grid.run_sequential(steps);
            let want: f64 = src.iter().sum();
            assert_eq!(grid.checksum(steps).to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn update_row_matches_manual_stencil() {
        let n = 3;
        let src: Vec<f64> = (0..9).map(|x| x as f64).collect();
        let mut dst = vec![0.0; 9];
        update_row(&src, &mut dst, n, 1);
        // Element (1,1) = src[4]=4; neighbours 1,7,3,5 → avg 4.
        let expect = 4.0 + OMEGA * (4.0 - 4.0);
        assert!((dst[4] - expect).abs() < 1e-12);
        // Other rows untouched.
        assert_eq!(dst[0], 0.0);
        assert_eq!(dst[8], 0.0);
    }

    #[test]
    fn row_updates_commute_with_order() {
        // Updating rows in any order within a phase gives the same result
        // (the property that makes the loop fully parallel).
        let n = 16;
        let mut fwd = SorGrid::new(n);
        let mut rev = SorGrid::new(n);
        {
            let (src, dst) = fwd.buffers_mut(0);
            for row in 0..n {
                update_row(src, dst, n, row);
            }
        }
        {
            let (src, dst) = rev.buffers_mut(0);
            for row in (0..n).rev() {
                update_row(src, dst, n, row);
            }
        }
        assert_eq!(fwd.b, rev.b);
    }

    #[test]
    fn model_footprint_matches_stencil() {
        let m = SorModel::new(8, 4);
        let mut reads = Vec::new();
        m.reads(0, 3, &mut reads);
        assert_eq!(reads.len(), 3);
        assert_eq!(reads[0].block, 2);
        assert_eq!(reads[1].block, 3);
        assert_eq!(reads[2].block, 4);
        let mut writes = Vec::new();
        m.writes(0, 3, &mut writes);
        assert_eq!(
            writes,
            vec![BlockAccess {
                block: 8 + 3,
                bytes: 64
            }]
        );
        // Odd phases swap buffers.
        reads.clear();
        m.reads(1, 0, &mut reads);
        assert_eq!(reads[0].block, 8);
    }

    #[test]
    fn model_boundary_rows_have_two_reads() {
        let m = SorModel::new(8, 1);
        let mut reads = Vec::new();
        m.reads(0, 0, &mut reads);
        assert_eq!(reads.len(), 2);
        reads.clear();
        m.reads(0, 7, &mut reads);
        assert_eq!(reads.len(), 2);
    }

    #[test]
    fn model_cost_is_uniform_with_divides() {
        let m = SorModel::new(512, 1);
        let w = m.cost(0, 0);
        assert_eq!(w, m.cost(0, 511));
        assert_eq!(w.divs, 512.0);
    }
}
