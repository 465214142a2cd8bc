//! The loop scheduling algorithms.
//!
//! Central-queue algorithms (SS, chunking, GSS, adaptive GSS, factoring,
//! tapering, trapezoid) share the [`central::CentralState`] machinery and
//! differ only in their chunk-size rule. STATIC and BEST-STATIC need no
//! run-time queue. AFS, the AFS "last executed" variant, and MOD-FACTORING
//! have their own state machines.

pub mod adaptive_gss;
pub mod affinity;
pub mod affinity_lastexec;
pub mod best_static;
pub mod central;
pub mod chunk_ss;
pub mod factoring;
pub mod gss;
pub mod mod_factoring;
pub mod self_sched;
pub mod static_sched;
pub mod tapering;
pub mod trapezoid;

pub use adaptive_gss::AdaptiveGss;
pub use affinity::Affinity;
pub use affinity_lastexec::AffinityLastExec;
pub use best_static::BestStatic;
pub use chunk_ss::ChunkSelf;
pub use factoring::Factoring;
pub use gss::Gss;
pub use mod_factoring::ModFactoring;
pub use self_sched::SelfSched;
pub use static_sched::StaticSched;
pub use tapering::Tapering;
pub use trapezoid::Trapezoid;

use crate::policy::Scheduler;

/// The scheduler line-up used throughout the paper's Iris experiments
/// (§4.1), minus BEST-STATIC which needs per-input iteration costs.
pub fn paper_suite() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(StaticSched::new()),
        Box::new(SelfSched::new()),
        Box::new(Gss::new()),
        Box::new(Factoring::new()),
        Box::new(Trapezoid::new()),
        Box::new(ModFactoring::new()),
        Box::new(Affinity::with_k_equals_p()),
    ]
}

#[cfg(test)]
mod suite_tests {
    use super::*;
    use crate::policy::LoopState;
    use std::collections::BTreeSet;

    /// Drives a loop to completion with a round-robin worker order and
    /// asserts every iteration is executed exactly once.
    pub(crate) fn assert_covers_exactly_once(state: &mut dyn LoopState, n: u64, p: usize) {
        let mut seen = BTreeSet::new();
        let mut active: Vec<usize> = (0..p).collect();
        let mut guard = 0u64;
        while !active.is_empty() {
            guard += 1;
            assert!(guard < 10 * n + 10_000, "scheduler does not terminate");
            let mut next_active = Vec::new();
            for &w in &active {
                if let Some(grab) = state.next(w) {
                    for i in grab.range.iter() {
                        assert!(seen.insert(i), "iteration {i} scheduled twice");
                    }
                    next_active.push(w);
                }
            }
            active = next_active;
        }
        assert_eq!(seen.len() as u64, n, "not all iterations scheduled");
        if n > 0 {
            assert_eq!(*seen.iter().next().unwrap(), 0);
            assert_eq!(*seen.iter().next_back().unwrap(), n - 1);
        }
    }

    #[test]
    fn every_paper_scheduler_covers_all_iterations() {
        for sched in paper_suite() {
            for &(n, p) in &[
                (0u64, 4usize),
                (1, 4),
                (100, 1),
                (512, 8),
                (7, 8),
                (1000, 6),
            ] {
                let mut state = sched.begin_loop(n, p);
                assert_covers_exactly_once(&mut *state, n, p);
            }
        }
    }

    #[test]
    fn suite_names_are_unique() {
        let names: Vec<String> = paper_suite().iter().map(|s| s.name()).collect();
        let set: BTreeSet<&String> = names.iter().collect();
        assert_eq!(set.len(), names.len(), "duplicate names in {names:?}");
    }
}
