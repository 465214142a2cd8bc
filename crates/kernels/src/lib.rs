#![warn(missing_docs)]

//! # afs-kernels — the paper's application suite
//!
//! Five kernels chosen by the paper (§4.2, Table 1) to span the space of
//! load imbalance × affinity:
//!
//! | Kernel | Load imbalance | Affinity | Module |
//! |---|---|---|---|
//! | Successive over-relaxation | none | yes | [`sor`] |
//! | Gaussian elimination | little | yes | [`gauss`] |
//! | Transitive closure | input dependent | yes | [`transitive`] |
//! | Adjoint convolution | large | no | [`adjoint`] |
//! | L4 (hybrid nested loops) | little | no | [`l4`] |
//!
//! Each kernel ships in two forms:
//!
//! 1. a **real computation** — plain-Rust data structures, a sequential
//!    reference implementation, and per-iteration body functions that any
//!    executor (notably `afs-runtime::parallel_for`) can drive; and
//! 2. a **workload model** implementing [`afs_sim::Workload`] — the exact
//!    per-iteration compute cost and block footprint, used by the simulator
//!    to reproduce the paper's figures.
//!
//! The models are derived from the kernels' actual structure (for
//! transitive closure, by running the real algorithm once and recording the
//! per-phase activity), so the two forms stay in lock-step.

pub mod adjoint;
pub mod bitmat;
pub mod gauss;
pub mod l4;
pub mod sor;
pub mod transitive;

/// `len` seeded values of the kinds where a reordered or fused
/// floating-point expression would show: signed zeros, subnormals, and
/// magnitudes from 1e-300 up to 1e150 (no NaN or infinity; four 1e150s sum,
/// and four products of two of them subtract, without overflowing).
#[cfg(test)]
fn awkward_buffer(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = afs_core::rng::Xoshiro256::seed_from_u64(seed);
    (0..len)
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

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::adjoint::{AdjointConvolution, AdjointModel};
    pub use crate::bitmat::BitMatrix;
    pub use crate::gauss::{GaussModel, GaussSystem};
    pub use crate::l4::L4Model;
    pub use crate::sor::{SorGrid, SorModel};
    pub use crate::transitive::{clique_graph, random_graph, TcModel, TransitiveClosure};
}
