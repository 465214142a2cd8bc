//! Transitive closure (Warshall's algorithm) over a boolean adjacency
//! matrix.
//!
//! The paper's structure (§4.2): sequential loop over pivots `k`, parallel
//! loop over rows `j`; iteration `j` of phase `k` costs O(1) if `A[j][k]` is
//! false and O(n) if true (it ORs row `k` into row `j`). The *input graph*
//! therefore controls the load profile — a random graph averages out
//! (Fig. 5), a half-clique concentrates all the work in the clique rows
//! (Fig. 6). Row `j` is written only by iteration `j`, and iteration
//! `j == k` is a semantic no-op and skipped, so all writes within a phase
//! are disjoint — the loop is fully parallel.
//!
//! The simulator model is *derived from the real algorithm*: we run
//! Warshall once, recording for every phase which rows are active, so the
//! modelled cost profile is exact.

use crate::bitmat::BitMatrix;
use afs_sim::{BlockAccess, Work, Workload};

/// Random directed graph on `n` nodes with edge probability `p_edge`.
pub fn random_graph(n: usize, p_edge: f64, seed: u64) -> BitMatrix {
    let mut m = BitMatrix::zeros(n);
    let mut rng = afs_core::rng::Xoshiro256::seed_from_u64(seed);
    for r in 0..n {
        for c in 0..n {
            if r != c && rng.chance(p_edge) {
                m.set(r, c, true);
            }
        }
    }
    m
}

/// The paper's skewed input: the first `clique` nodes form a complete
/// subgraph; there are no other edges (Fig. 6 uses n = 640, clique = 320).
pub fn clique_graph(n: usize, clique: usize) -> BitMatrix {
    assert!(clique <= n);
    let mut m = BitMatrix::zeros(n);
    for r in 0..clique {
        for c in 0..clique {
            if r != c {
                m.set(r, c, true);
            }
        }
    }
    m
}

/// Transitive closure computation state.
#[derive(Clone, Debug)]
pub struct TransitiveClosure {
    /// The adjacency matrix, closed in place.
    pub a: BitMatrix,
}

impl TransitiveClosure {
    /// Wraps an adjacency matrix.
    pub fn new(a: BitMatrix) -> Self {
        Self { a }
    }

    /// Number of phases (one per pivot node).
    pub fn phases(&self) -> usize {
        self.a.n()
    }

    /// Iterations per phase (one per row).
    pub fn phase_len(&self) -> u64 {
        self.a.n() as u64
    }

    /// The parallel-loop body: row `j` of phase `k`.
    ///
    /// Safe to run concurrently for distinct `j` of the same `k` *when
    /// `j != k`* (the executor integration skips `j == k`, a semantic
    /// no-op); this sequential form handles it for completeness.
    pub fn update_row(&mut self, k: usize, j: usize) {
        if j != k && self.a.get(j, k) {
            self.a.or_row_into(k, j);
        }
    }

    /// Runs the whole closure sequentially.
    pub fn run_sequential(&mut self) {
        for k in 0..self.a.n() {
            for j in 0..self.a.n() {
                self.update_row(k, j);
            }
        }
    }

    /// Reachable-pair count (correctness checksum).
    pub fn reachable_pairs(&self) -> u64 {
        self.a.count_ones()
    }
}

/// Simulator workload model with the exact per-phase activity profile,
/// recorded from a sequential run of the real algorithm.
///
/// The cost/footprint model follows the *paper's* Fortran implementation,
/// which stores the matrix as element-wise logical arrays (4 bytes per
/// element, an O(n) element loop per active row). Our Rust kernel packs
/// rows into 64-bit words for the real-thread runtime path; the model keeps
/// the paper's representation because it is what the paper's machines
/// moved and computed on.
#[derive(Clone, Debug)]
pub struct TcModel {
    n: u64,
    row_bytes: u32,
    /// `active[k]` packs, per row `j`, whether phase `k` does the O(n) work.
    active: Vec<Vec<u64>>,
    name: String,
}

impl TcModel {
    /// Builds the model by running Warshall on (a copy of) `graph`.
    pub fn from_graph(graph: &BitMatrix, name: impl Into<String>) -> Self {
        let n = graph.n();
        let mut tc = TransitiveClosure::new(graph.clone());
        let words = n.div_ceil(64);
        let mut active = Vec::with_capacity(n);
        for k in 0..n {
            let mut phase_bits = vec![0u64; words];
            for j in 0..n {
                if j != k && tc.a.get(j, k) {
                    phase_bits[j / 64] |= 1 << (j % 64);
                }
            }
            // Apply the phase after recording its pre-state activity.
            for j in 0..n {
                tc.update_row(k, j);
            }
            active.push(phase_bits);
        }
        Self {
            n: n as u64,
            // 4-byte logicals, as in the paper's Fortran arrays.
            row_bytes: (n * 4) as u32,
            active,
            name: name.into(),
        }
    }

    /// Whether iteration `j` of phase `k` does the heavy (O(n)) work.
    pub fn is_active(&self, k: usize, j: u64) -> bool {
        (self.active[k][(j / 64) as usize] >> (j % 64)) & 1 == 1
    }
}

impl Workload for TcModel {
    fn name(&self) -> String {
        format!("TC({}, n={})", self.name, self.n)
    }

    fn phases(&self) -> usize {
        self.n as usize
    }

    fn phase_len(&self, _phase: usize) -> u64 {
        self.n
    }

    fn cost(&self, phase: usize, i: u64) -> Work {
        if self.is_active(phase, i) {
            // Element-wise `IF (A(K,I)) A(J,I) = TRUE` over n elements:
            // load, test, store ≈ 3 ops each.
            Work::flops(3.0 * self.n as f64)
        } else {
            // Just the A[j][k] test.
            Work::flops(2.0)
        }
    }

    fn reads(&self, phase: usize, i: u64, out: &mut Vec<BlockAccess>) {
        // Testing A[j][k] touches row j.
        out.push(BlockAccess {
            block: i,
            bytes: self.row_bytes,
        });
        if self.is_active(phase, i) {
            // Heavy path also reads pivot row k.
            out.push(BlockAccess {
                block: phase as u64,
                bytes: self.row_bytes,
            });
        }
    }

    fn writes(&self, phase: usize, i: u64, out: &mut Vec<BlockAccess>) {
        if self.is_active(phase, i) {
            out.push(BlockAccess {
                block: i,
                bytes: self.row_bytes,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of heavy iterations in phase `k`.
    fn active_count(model: &TcModel, k: usize) -> u64 {
        model.active[k].iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Reference closure by repeated BFS.
    fn closure_bfs(g: &BitMatrix) -> BitMatrix {
        let n = g.n();
        let mut out = BitMatrix::zeros(n);
        for s in 0..n {
            let mut seen = vec![false; n];
            let mut stack = vec![s];
            while let Some(u) = stack.pop() {
                for (v, slot) in seen.iter_mut().enumerate() {
                    if g.get(u, v) && !*slot {
                        *slot = true;
                        stack.push(v);
                    }
                }
            }
            for (v, &hit) in seen.iter().enumerate() {
                if hit {
                    out.set(s, v, true);
                }
            }
        }
        out
    }

    #[test]
    fn warshall_matches_bfs_closure() {
        let g = random_graph(48, 0.06, 11);
        let mut tc = TransitiveClosure::new(g.clone());
        tc.run_sequential();
        let reference = closure_bfs(&g);
        for r in 0..48 {
            for c in 0..48 {
                // Warshall includes the original edges; BFS reachability may
                // also mark paths of length ≥ 1. These agree by definition.
                assert_eq!(
                    tc.a.get(r, c),
                    reference.get(r, c) || g.get(r, c),
                    "mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn clique_closes_to_full_clique() {
        let g = clique_graph(40, 16);
        let mut tc = TransitiveClosure::new(g);
        tc.run_sequential();
        // Clique nodes reach each other (including self via cycles).
        for r in 0..16 {
            for c in 0..16 {
                assert!(tc.a.get(r, c), "({r},{c}) should be reachable");
            }
        }
        // Non-clique nodes reach nothing.
        for r in 16..40 {
            assert!(
                tc.a.row(r).iter().all(|&w| w == 0),
                "row {r} reaches nothing"
            );
        }
    }

    #[test]
    fn pivot_iteration_is_noop() {
        // A(k,k) updates must not change anything: update_row(k, k) skips.
        let g = clique_graph(10, 10);
        let mut a = TransitiveClosure::new(g.clone());
        let b = TransitiveClosure::new(g);
        a.update_row(3, 3);
        assert_eq!(a.a, b.a, "update_row(k, k) must not change the matrix");
    }

    #[test]
    fn model_activity_matches_algorithm() {
        let g = random_graph(32, 0.1, 5);
        let model = TcModel::from_graph(&g, "rand");
        // Phase 0 activity = original column 0 (minus diagonal).
        for j in 0..32u64 {
            let expect = j != 0 && g.get(j as usize, 0);
            assert_eq!(model.is_active(0, j), expect, "phase 0 row {j}");
        }
    }

    #[test]
    fn clique_model_concentrates_work_in_clique_rows() {
        let g = clique_graph(64, 32);
        let model = TcModel::from_graph(&g, "clique");
        // During clique pivots, only clique rows are active.
        for k in 0..32 {
            for j in 0..64u64 {
                if j >= 32 {
                    assert!(!model.is_active(k, j), "non-clique row {j} active at {k}");
                }
            }
            assert!(active_count(&model, k) >= 30, "phase {k} should be busy");
        }
        // Pivots outside the clique do nothing.
        for k in 32..64 {
            assert_eq!(active_count(&model, k), 0);
        }
    }

    #[test]
    fn model_cost_vector_is_input_dependent() {
        let skew = TcModel::from_graph(&clique_graph(64, 32), "clique");
        let heavy = skew.cost(0, 1).flops;
        let light = skew.cost(0, 40).flops;
        assert!(heavy > 20.0 * light);
    }

    #[test]
    fn random_graph_edge_density() {
        let g = random_graph(100, 0.08, 42);
        let edges = g.count_ones() as f64;
        let expected = 100.0 * 99.0 * 0.08;
        assert!(
            (edges - expected).abs() < expected * 0.25,
            "{edges} vs {expected}"
        );
    }

    #[test]
    fn model_footprint_heavy_vs_light() {
        let model = TcModel::from_graph(&clique_graph(64, 32), "clique");
        let mut reads = Vec::new();
        model.reads(0, 5, &mut reads); // clique row: heavy
        assert_eq!(reads.len(), 2);
        reads.clear();
        model.reads(0, 40, &mut reads); // outside clique: light
        assert_eq!(reads.len(), 1);
        let mut writes = Vec::new();
        model.writes(0, 40, &mut writes);
        assert!(writes.is_empty());
    }
}
