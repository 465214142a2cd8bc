//! Simulation results.

use afs_core::metrics::LoopMetrics;

use crate::timeline::Timeline;

/// Outcome of simulating one workload under one scheduler on one machine.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Workload name.
    pub workload: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Machine name.
    pub machine: String,
    /// Processors used.
    pub p: usize,
    /// Total simulated completion time (all phases, including barriers).
    pub completion_time: f64,
    /// Completion time of each phase.
    pub phase_times: Vec<f64>,
    /// Scheduling metrics merged over all phases.
    pub metrics: LoopMetrics,
    /// Cache hits across all processors.
    pub cache_hits: u64,
    /// Cache misses across all processors.
    pub cache_misses: u64,
    /// Misses caused by invalidated (stale) copies.
    pub coherence_misses: u64,
    /// Total time the shared bus was occupied (0 on switch machines).
    pub bus_busy: f64,
    /// Total time processors waited for the bus.
    pub bus_wait: f64,
    /// Total time processors waited for work-queue locks.
    pub queue_wait: f64,
    /// Per-processor time spent computing and moving data (excludes waits
    /// and end-of-phase idling).
    pub busy_time: Vec<f64>,
    /// Sum over phases of (last finisher − first finisher): observed
    /// load-imbalance time.
    pub imbalance_time: f64,
    /// Per-processor timelines, when enabled via `SimConfig::with_timeline`.
    pub timeline: Option<Timeline>,
    /// Iterations the workload defines (sum of phase lengths). Less than
    /// [`afs_core::LoopMetrics::total_iters`] only when processors departed
    /// with statically-assigned work nobody else could take.
    pub expected_iters: u64,
}

impl SimResult {
    /// Iterations that were never executed (non-zero only when a processor
    /// departed holding statically-assigned work): the loop did not really
    /// complete, and `completion_time` covers only the executed part.
    pub fn lost_iters(&self) -> u64 {
        self.expected_iters
            .saturating_sub(self.metrics.total_iters())
    }

    /// Whether every iteration was executed.
    pub fn completed(&self) -> bool {
        self.lost_iters() == 0
    }

    /// Cache miss ratio over all block accesses.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_misses as f64 / total as f64
        }
    }
}
