//! TAPERING (Lucco '92), simplified.
//!
//! Tapering targets irregular loops whose iteration times vary widely and
//! unpredictably. It uses execution-profile estimates of the mean and
//! variance of iteration times to pick chunk sizes that, with high
//! probability, bound the resulting imbalance.
//!
//! **Simplification** (documented in DESIGN.md): instead of Lucco's on-line
//! profiler we accept the `(mean, stddev)` estimates up front (our kernels
//! can report exact values), and pick the largest chunk `c` satisfying
//! `c·μ + α·σ·√c ≤ R·μ/P` — see [`crate::chunking::tapering_chunk`]. With
//! `σ = 0` this degenerates to GSS exactly.

use super::central::CentralState;
use crate::chunking::tapering_chunk;
use crate::policy::{LoopState, QueueTopology, Scheduler};

/// The confidence factor `α` of the chunk rule.
const ALPHA: f64 = 1.3;

/// Tapering with profile estimates `(mean, stddev)` and confidence `α = 1.3`.
#[derive(Clone, Copy, Debug)]
pub struct Tapering {
    mean: f64,
    stddev: f64,
}

impl Tapering {
    /// Creates the scheduler from iteration-time estimates.
    pub fn new(mean: f64, stddev: f64) -> Self {
        Self { mean, stddev }
    }

    /// Builds estimates by sampling a cost function over the loop.
    pub fn from_costs(costs: impl Iterator<Item = f64>) -> Self {
        let samples: Vec<f64> = costs.collect();
        let n = samples.len().max(1) as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / n;
        Self::new(mean, var.sqrt())
    }
}

impl Scheduler for Tapering {
    fn name(&self) -> String {
        "TAPERING".to_string()
    }

    fn topology(&self) -> QueueTopology {
        QueueTopology::Central
    }

    fn begin_loop(&self, n: u64, p: usize) -> Box<dyn LoopState> {
        let (mean, stddev) = (self.mean, self.stddev);
        Box::new(CentralState::new(n, move |remaining: u64| {
            tapering_chunk(remaining, p, mean, stddev, ALPHA)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(n: u64, p: usize, sched: Tapering) -> Vec<u64> {
        let mut st = sched.begin_loop(n, p);
        std::iter::from_fn(|| st.next(0).map(|g| g.range.len())).collect()
    }

    #[test]
    fn uniform_loop_behaves_like_gss() {
        let tap = sizes(100, 4, Tapering::new(10.0, 0.0));
        let gss = {
            let mut st = super::super::gss::Gss::new().begin_loop(100, 4);
            std::iter::from_fn(|| st.next(0).map(|g| g.range.len())).collect::<Vec<u64>>()
        };
        assert_eq!(tap, gss);
    }

    #[test]
    fn variance_shrinks_chunks() {
        let calm = sizes(1000, 4, Tapering::new(10.0, 0.0));
        let wild = sizes(1000, 4, Tapering::new(10.0, 50.0));
        assert!(wild[0] < calm[0]);
        assert_eq!(wild.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn from_costs_estimates_moments() {
        let t = Tapering::from_costs([2.0, 4.0, 6.0, 8.0].into_iter());
        assert!((t.mean - 5.0).abs() < 1e-9);
        assert!((t.stddev - 5.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn empty_costs_do_not_panic() {
        let t = Tapering::from_costs(std::iter::empty());
        let seq = sizes(10, 2, t);
        assert_eq!(seq.iter().sum::<u64>(), 10);
    }
}
