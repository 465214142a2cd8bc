//! Fixed-size chunking (Kruskal & Weiss '85): `K` iterations per grab.
//!
//! Amortizes one synchronization over `K` iterations; processors may finish
//! up to `K` iterations apart. Choosing `K` well is hard — the paper cites
//! this as the algorithm's main limitation.

use super::central::CentralState;
use crate::policy::{LoopState, QueueTopology, Scheduler};

/// Uniform-sized chunking with chunk size `K`.
#[derive(Clone, Copy, Debug)]
pub struct ChunkSelf {
    k: u64,
}

impl ChunkSelf {
    /// Creates the scheduler with chunk size `k` (must be ≥ 1).
    pub fn new(k: u64) -> Self {
        assert!(k >= 1, "chunk size must be at least 1");
        Self { k }
    }
}

impl Scheduler for ChunkSelf {
    fn name(&self) -> String {
        format!("CSS({})", self.k)
    }

    fn topology(&self) -> QueueTopology {
        QueueTopology::Central
    }

    fn begin_loop(&self, n: u64, _p: usize) -> Box<dyn LoopState> {
        let k = self.k;
        Box::new(CentralState::new(n, move |_remaining: u64| k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_chunks_with_short_tail() {
        let s = ChunkSelf::new(4);
        let mut st = s.begin_loop(10, 2);
        let sizes: Vec<u64> = std::iter::from_fn(|| st.next(0).map(|g| g.range.len())).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn grab_count_is_ceil_n_over_k() {
        let s = ChunkSelf::new(7);
        let mut st = s.begin_loop(100, 4);
        let mut count = 0;
        while st.next(count % 4).is_some() {
            count += 1;
        }
        assert_eq!(count, 15); // ceil(100/7)
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_chunk_rejected() {
        ChunkSelf::new(0);
    }
}
