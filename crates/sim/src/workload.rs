//! Workload models: phased parallel loops with per-iteration cost and
//! memory footprint.
//!
//! A workload is a sequence of *phases*, each a fully parallel loop (the
//! paper's `DO PARALLEL` nested inside `DO SEQUENTIAL`). For each iteration
//! the model supplies the compute cost ([`Work`]) and the memory blocks read
//! and written. Blocks are workload-defined (typically one matrix row each);
//! cache state persists across phases, which is what makes affinity visible.

/// Compute cost of one iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Work {
    /// Ordinary operations (adds, multiplies, compares...).
    pub flops: f64,
    /// Divisions (priced separately; software FP divide on the KSR-1).
    pub divs: f64,
}

impl Work {
    /// Cost with `flops` ordinary operations only.
    pub const fn flops(flops: f64) -> Self {
        Self { flops, divs: 0.0 }
    }

    /// Cost with both operation classes.
    pub const fn new(flops: f64, divs: f64) -> Self {
        Self { flops, divs }
    }
}

/// Exclusive upper bound on [`BlockAccess::block`].
///
/// The simulator indexes plain arrays by block id — the global version table
/// and every processor's cache index, 4 bytes per id each — so ids must be
/// dense. The largest id any in-tree model emits is 2·1024 (SOR's two
/// 1024-row buffers); 2²⁰ leaves 512× that for traced applications while
/// capping the tables at 4 MiB apiece. The simulator panics on an id at or
/// above the bound, and [`crate::TraceWorkload::from_bytes`] rejects it.
pub const BLOCK_ID_LIMIT: u64 = 1 << 20;

/// One block touched by an iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockAccess {
    /// Workload-global block id: dense, and below [`BLOCK_ID_LIMIT`].
    pub block: u64,
    /// Block size in bytes (transferred in full on a miss).
    pub bytes: u32,
}

/// A phased parallel-loop workload.
pub trait Workload: Sync {
    /// Workload name for reports.
    fn name(&self) -> String;

    /// Number of sequential phases (executions of the parallel loop).
    fn phases(&self) -> usize;

    /// Iteration count of the parallel loop in `phase`.
    fn phase_len(&self, phase: usize) -> u64;

    /// Compute cost of iteration `i` of `phase`.
    fn cost(&self, phase: usize, i: u64) -> Work;

    /// Blocks read by iteration `i` of `phase` (appended to `out`).
    fn reads(&self, _phase: usize, _i: u64, _out: &mut Vec<BlockAccess>) {}

    /// Blocks written by iteration `i` of `phase` (appended to `out`).
    fn writes(&self, _phase: usize, _i: u64, _out: &mut Vec<BlockAccess>) {}

    /// Whether any iteration of `phase` touches memory. Phases without
    /// memory are simulated chunk-at-a-time instead of per-iteration,
    /// which keeps 200-million-iteration loops (Table 2) cheap.
    fn has_memory(&self, _phase: usize) -> bool {
        true
    }

    /// Exact per-iteration costs of `phase` in machine-independent units
    /// (`flops + divs`), for the BEST-STATIC oracle and tapering estimates.
    fn cost_vector(&self, phase: usize) -> Vec<f64> {
        (0..self.phase_len(phase))
            .map(|i| {
                let w = self.cost(phase, i);
                w.flops + w.divs
            })
            .collect()
    }

    /// Total compute work across all phases (for speedup baselines).
    fn total_work(&self) -> Work {
        let mut total = Work::default();
        for ph in 0..self.phases() {
            for i in 0..self.phase_len(ph) {
                let w = self.cost(ph, i);
                total.flops += w.flops;
                total.divs += w.divs;
            }
        }
        total
    }
}

/// A single-phase synthetic loop defined by a cost function — the building
/// block for the paper's Butterfly experiments (§4.4) and Table 2.
pub struct SyntheticLoop {
    name: String,
    n: u64,
    cost_fn: Box<dyn Fn(u64) -> Work + Sync + Send>,
}

impl SyntheticLoop {
    /// A loop with an arbitrary per-iteration cost.
    pub fn from_fn(
        name: impl Into<String>,
        n: u64,
        cost_fn: impl Fn(u64) -> Work + Sync + Send + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            n,
            cost_fn: Box::new(cost_fn),
        }
    }

    /// Balanced loop: every iteration costs `flops` (Fig. 13, Table 2).
    pub fn balanced(n: u64, flops: f64) -> Self {
        Self::from_fn("balanced", n, move |_| Work::flops(flops))
    }

    /// Triangular workload: iteration `i` costs `∝ (n − i)` (Fig. 10).
    pub fn triangular(n: u64, scale: f64) -> Self {
        Self::from_fn("triangular", n, move |i| {
            Work::flops(scale * (n - i) as f64)
        })
    }

    /// Decreasing parabolic workload: iteration `i` costs `∝ (n − i)²`
    /// (Fig. 11).
    pub fn parabolic(n: u64, scale: f64) -> Self {
        Self::from_fn("parabolic", n, move |i| {
            let d = (n - i) as f64;
            Work::flops(scale * d * d)
        })
    }

    /// Step workload: the first 10% of iterations cost `heavy`, the rest
    /// cost `light` (Fig. 12; the transitive-closure-like imbalance).
    pub fn step_front(n: u64, heavy: f64, light: f64) -> Self {
        Self::from_fn("step-front", n, move |i| {
            if i < n / 10 {
                Work::flops(heavy)
            } else {
                Work::flops(light)
            }
        })
    }
}

impl Workload for SyntheticLoop {
    fn name(&self) -> String {
        self.name.clone()
    }
    fn phases(&self) -> usize {
        1
    }
    fn phase_len(&self, _phase: usize) -> u64 {
        self.n
    }
    fn cost(&self, _phase: usize, i: u64) -> Work {
        (self.cost_fn)(i)
    }
    fn has_memory(&self, _phase: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_loop_is_uniform() {
        let wl = SyntheticLoop::balanced(100, 7.0);
        assert_eq!(wl.phases(), 1);
        assert_eq!(wl.phase_len(0), 100);
        assert_eq!(wl.cost(0, 0), Work::flops(7.0));
        assert_eq!(wl.cost(0, 99), Work::flops(7.0));
        assert!(!wl.has_memory(0));
    }

    #[test]
    fn triangular_decreases() {
        let wl = SyntheticLoop::triangular(10, 2.0);
        assert_eq!(wl.cost(0, 0).flops, 20.0);
        assert_eq!(wl.cost(0, 9).flops, 2.0);
    }

    #[test]
    fn step_front_loads_first_tenth() {
        let wl = SyntheticLoop::step_front(100, 100.0, 1.0);
        assert_eq!(wl.cost(0, 9).flops, 100.0);
        assert_eq!(wl.cost(0, 10).flops, 1.0);
    }

    #[test]
    fn cost_vector_matches_cost() {
        let wl = SyntheticLoop::parabolic(5, 1.0);
        let v = wl.cost_vector(0);
        assert_eq!(v, vec![25.0, 16.0, 9.0, 4.0, 1.0]);
    }

    #[test]
    fn total_work_sums_phases() {
        let wl = SyntheticLoop::balanced(10, 3.0);
        let t = wl.total_work();
        assert_eq!(t.flops, 30.0);
        assert_eq!(t.divs, 0.0);
    }
}
