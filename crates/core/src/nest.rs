//! Loop-nest coalescing: flattening nested parallel loops into the single
//! non-nested loops this library schedules.
//!
//! The paper considers "non-nested completely parallelizable loops only",
//! citing loop coalescing (Polychronopoulos) for the transformation
//! (footnote 1); its L4 benchmark is exactly such a multi-way nest. This
//! module mechanizes the transformation: a [`LoopNest`] describes a
//! rectangular index space, and maps between flat iteration indices (what a
//! scheduler hands out) and multi-dimensional indices (what the loop body
//! uses).
//!
//! ```
//! use afs_core::nest::LoopNest;
//!
//! // DO I = 0,9 / DO J = 0,19 / DO K = 0,4 → one loop of 1000 iterations.
//! let nest = LoopNest::new(&[10, 20, 5]);
//! assert_eq!(nest.len(), 1000);
//! let mut idx = [0; 3];
//! nest.unflatten_into(537, &mut idx);
//! assert_eq!(idx, [5, 7, 2]);
//! assert_eq!(nest.flatten(&idx), 537);
//! ```

/// A rectangular nest of parallel loops, coalesced row-major (the last
/// dimension varies fastest, matching nested `DO` loops).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopNest {
    extents: Vec<u64>,
    /// Row-major strides; `strides[d]` = product of extents after `d`.
    strides: Vec<u64>,
    len: u64,
}

impl LoopNest {
    /// Builds a nest from per-dimension extents. Panics on overflow.
    pub fn new(extents: &[u64]) -> Self {
        assert!(!extents.is_empty(), "nest needs at least one dimension");
        let mut strides = vec![1u64; extents.len()];
        for d in (0..extents.len() - 1).rev() {
            strides[d] = strides[d + 1]
                .checked_mul(extents[d + 1])
                .expect("loop nest size overflows u64");
        }
        let len = strides[0]
            .checked_mul(extents[0])
            .expect("loop nest size overflows u64");
        Self {
            extents: extents.to_vec(),
            strides,
            len,
        }
    }

    /// Total (flattened) iteration count.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the nest is empty (any extent zero).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.extents.len()
    }

    /// Per-dimension extents.
    pub fn extents(&self) -> &[u64] {
        &self.extents
    }

    /// Maps a multi-index to its flat iteration index.
    pub fn flatten(&self, index: &[u64]) -> u64 {
        assert_eq!(index.len(), self.extents.len(), "dimension mismatch");
        let mut flat = 0;
        for (d, (&i, &e)) in index.iter().zip(&self.extents).enumerate() {
            assert!(
                i < e,
                "index {i} out of bounds for dimension {d} (extent {e})"
            );
            flat += i * self.strides[d];
        }
        flat
    }

    /// Maps a flat iteration index back to its multi-index, written into a
    /// caller buffer (no allocation — the form a parallel-loop body uses).
    pub fn unflatten_into(&self, mut flat: u64, out: &mut [u64]) {
        assert!(flat < self.len);
        assert_eq!(out.len(), self.extents.len());
        for (slot, &stride) in out.iter_mut().zip(&self.strides) {
            *slot = flat / stride;
            flat %= stride;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The multi-index of `flat`, as a `Vec`.
    fn unflatten(nest: &LoopNest, flat: u64) -> Vec<u64> {
        let mut index = vec![0; nest.dims()];
        nest.unflatten_into(flat, &mut index);
        index
    }

    #[test]
    fn roundtrip_all_indices() {
        let nest = LoopNest::new(&[3, 4, 5]);
        assert_eq!(nest.len(), 60);
        for flat in 0..60 {
            let idx = unflatten(&nest, flat);
            assert_eq!(nest.flatten(&idx), flat);
        }
    }

    #[test]
    fn row_major_order() {
        // Last dimension varies fastest.
        let nest = LoopNest::new(&[2, 3]);
        assert_eq!(unflatten(&nest, 0), vec![0, 0]);
        assert_eq!(unflatten(&nest, 1), vec![0, 1]);
        assert_eq!(unflatten(&nest, 2), vec![0, 2]);
        assert_eq!(unflatten(&nest, 3), vec![1, 0]);
        assert_eq!(unflatten(&nest, 5), vec![1, 2]);
    }

    #[test]
    fn single_dimension_is_identity() {
        let nest = LoopNest::new(&[17]);
        assert_eq!(nest.flatten(&[9]), 9);
        assert_eq!(unflatten(&nest, 9), vec![9]);
    }

    #[test]
    fn l4_inner_nest_shape() {
        // Figure 2's loops 2x3x4: 10 x 10 x 10.
        let nest = LoopNest::new(&[10, 10, 10]);
        assert_eq!(nest.len(), 1000);
        let idx = unflatten(&nest, 999);
        assert_eq!(idx, vec![9, 9, 9]);
    }

    #[test]
    fn empty_extent_gives_empty_nest() {
        let nest = LoopNest::new(&[4, 0, 3]);
        assert!(nest.is_empty());
        assert_eq!(nest.len(), 0);
    }

    #[test]
    fn coalesce_concatenates() {
        // A nest of nests: the outer dimensions, then the inner ones.
        let outer = LoopNest::new(&[20]);
        let inner = LoopNest::new(&[4]);
        let both = LoopNest::new(&[outer.extents(), inner.extents()].concat());
        assert_eq!(both.extents(), &[20, 4]);
        assert_eq!(both.len(), 80);
        assert_eq!(unflatten(&both, 9), vec![2, 1]);
    }

    #[test]
    fn unflatten_into_matches_unflatten() {
        let nest = LoopNest::new(&[6, 7, 2]);
        let mut buf = [0u64; 3];
        for flat in [0u64, 1, 41, 83] {
            nest.unflatten_into(flat, &mut buf);
            assert_eq!(buf, [flat / 14, flat / 2 % 7, flat % 2]);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn flatten_checks_bounds() {
        LoopNest::new(&[2, 2]).flatten(&[1, 2]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn flatten_checks_dims() {
        LoopNest::new(&[2, 2]).flatten(&[1]);
    }

    #[test]
    fn scheduled_nest_covers_every_cell() {
        // End-to-end: schedule the flattened nest with GSS and check every
        // (i, j) cell is visited exactly once.
        use crate::policy::Scheduler;
        let nest = LoopNest::new(&[13, 9]);
        let sched = crate::schedulers::Gss::new();
        let mut state = sched.begin_loop(nest.len(), 4);
        let mut seen = vec![0u32; nest.len() as usize];
        let mut w = 0;
        while let Some(g) = state.next(w) {
            for flat in g.range.iter() {
                let idx = unflatten(&nest, flat);
                seen[(idx[0] * 9 + idx[1]) as usize] += 1;
            }
            w = (w + 1) % 4;
        }
        assert!(seen.iter().all(|&c| c == 1));
    }
}
