//! Adaptive guided self-scheduling (Eager & Zahorjan '92), simplified.
//!
//! The original algorithm augments GSS with (a) a back-off that reduces
//! contention for the central queue, and (b) assignment of consecutive
//! iterations to different processors to decorrelate iteration costs.
//!
//! **Simplification** (documented in DESIGN.md): our deterministic state
//! machine cannot observe wall-clock contention, so we implement the two
//! structural ingredients that affect the schedule itself: a chunk divisor
//! (`⌈R/(k·P)⌉`, the paper's §4.3 "trivial change") and a *minimum chunk
//! size* `m` that plays the role of back-off by bounding how often the queue
//! is touched during the end-game.

use super::central::CentralState;
use crate::chunking::gss_chunk;
use crate::policy::{LoopState, QueueTopology, Scheduler};

/// Simplified adaptive GSS: `max(m, ⌈R/(k·P)⌉)` per grab.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveGss {
    divisor: u64,
    min_chunk: u64,
}

impl Default for AdaptiveGss {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptiveGss {
    /// Default parameters: divisor 2, minimum chunk 2.
    pub fn new() -> Self {
        Self {
            divisor: 2,
            min_chunk: 2,
        }
    }
}

impl Scheduler for AdaptiveGss {
    fn name(&self) -> String {
        format!("AGSS({},{})", self.divisor, self.min_chunk)
    }

    fn topology(&self) -> QueueTopology {
        QueueTopology::Central
    }

    fn begin_loop(&self, n: u64, p: usize) -> Box<dyn LoopState> {
        let (divisor, min_chunk) = (self.divisor, self.min_chunk);
        Box::new(CentralState::new(n, move |remaining: u64| {
            gss_chunk(remaining, p, divisor)
                .max(min_chunk)
                .min(remaining)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(n: u64, p: usize, sched: AdaptiveGss) -> Vec<u64> {
        let mut st = sched.begin_loop(n, p);
        std::iter::from_fn(|| st.next(0).map(|g| g.range.len())).collect()
    }

    #[test]
    fn covers_all_iterations() {
        for &(n, p) in &[(100u64, 4usize), (512, 8), (1, 2), (9, 16)] {
            let seq = sizes(n, p, AdaptiveGss::new());
            assert_eq!(seq.iter().sum::<u64>(), n);
        }
    }

    #[test]
    fn starts_smaller_than_gss() {
        let agss = sizes(1000, 8, AdaptiveGss::new());
        assert_eq!(agss[0], 63); // ceil(1000/16) vs GSS's 125
    }

    #[test]
    fn min_chunk_bounds_endgame_grabs() {
        let seq = sizes(
            1000,
            4,
            AdaptiveGss {
                divisor: 1,
                min_chunk: 8,
            },
        );
        // Every grab except possibly the last takes at least 8.
        for &c in &seq[..seq.len() - 1] {
            assert!(c >= 8, "{seq:?}");
        }
        let plain = sizes(
            1000,
            4,
            AdaptiveGss {
                divisor: 1,
                min_chunk: 1,
            },
        );
        assert!(
            seq.len() < plain.len(),
            "min chunk should reduce grab count"
        );
    }
}
