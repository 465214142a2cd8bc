//! Scheduling metrics: synchronization-operation counts and chunk traces.
//!
//! The paper's metric for synchronization overhead is "the number of times a
//! processor removes iterations from a work queue" (§4.6); Tables 3–5 report
//! it per algorithm, distinguishing AFS's local and remote queue operations.

use crate::policy::{AccessKind, Grab};
use crate::range::IterRange;

/// Counts of successful queue removals, by synchronization class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncOps {
    /// Removals from a central shared queue.
    pub central: u64,
    /// Removals from the processor's own queue.
    pub local: u64,
    /// Removals from another processor's queue (migrations).
    pub remote: u64,
    /// Static grabs requiring no run-time synchronization.
    pub free: u64,
}

impl SyncOps {
    /// Total removals that required a synchronization operation.
    pub fn synchronized(&self) -> u64 {
        self.central + self.local + self.remote
    }

    /// Total removals of any kind.
    pub fn total(&self) -> u64 {
        self.synchronized() + self.free
    }

    /// Affinity hit ratio: the fraction of queue-based removals served
    /// from the remover's own queue, `local / (local + remote)` — the
    /// paper's locality claim as one number. `None` when no queue-based
    /// removal happened: central and free removals carry no locality
    /// signal either way.
    pub fn affinity_hit_ratio(&self) -> Option<f64> {
        let denom = self.local + self.remote;
        (denom > 0).then(|| self.local as f64 / denom as f64)
    }

    /// Records one removal of the given kind.
    pub fn record(&mut self, access: AccessKind) {
        match access {
            AccessKind::Free => self.free += 1,
            AccessKind::Central => self.central += 1,
            AccessKind::Local => self.local += 1,
            AccessKind::Remote => self.remote += 1,
        }
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &SyncOps) {
        self.central += other.central;
        self.local += other.local;
        self.remote += other.remote;
        self.free += other.free;
    }
}

/// One recorded chunk grab.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Worker that grabbed the chunk.
    pub worker: usize,
    /// Queue it came from.
    pub queue: usize,
    /// Synchronization class.
    pub access: AccessKind,
    /// Iterations grabbed.
    pub range: IterRange,
}

/// Metrics for one execution of one parallel loop.
#[derive(Clone, Debug, Default)]
pub struct LoopMetrics {
    /// Aggregate removal counts.
    pub sync: SyncOps,
    /// Removal counts per queue (indexed by queue id). Filled by the
    /// simulator only: a real-thread runtime result leaves it empty (its
    /// per-victim steal counts are the trace report's steal matrix).
    pub per_queue: Vec<SyncOps>,
    /// Removal counts per worker.
    pub per_worker: Vec<SyncOps>,
    /// Iterations executed per worker.
    pub iters_per_worker: Vec<u64>,
    /// Full grab trace, in grab order (empty unless tracing enabled).
    pub trace: Vec<TraceEntry>,
    /// Whether to retain the full trace.
    pub tracing: bool,
}

impl LoopMetrics {
    /// Creates metrics for `p` workers and `queues` queues.
    pub fn new(p: usize, queues: usize) -> Self {
        Self {
            sync: SyncOps::default(),
            per_queue: vec![SyncOps::default(); queues],
            per_worker: vec![SyncOps::default(); p],
            iters_per_worker: vec![0; p],
            trace: Vec::new(),
            tracing: false,
        }
    }

    /// Enables full grab tracing.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Records a successful grab by `worker`: the synchronization operation
    /// and its iterations.
    pub fn record(&mut self, worker: usize, grab: &Grab) {
        self.sync.record(grab.access);
        if let Some(q) = self.per_queue.get_mut(grab.queue) {
            q.record(grab.access);
        }
        if let Some(w) = self.per_worker.get_mut(worker) {
            w.record(grab.access);
        }
        if let Some(w) = self.iters_per_worker.get_mut(worker) {
            *w += grab.range.len();
        }
        if self.tracing {
            self.trace.push(TraceEntry {
                worker,
                queue: grab.queue,
                access: grab.access,
                range: grab.range,
            });
        }
    }

    /// Total iterations executed across all workers.
    pub fn total_iters(&self) -> u64 {
        self.iters_per_worker.iter().sum()
    }

    /// Average synchronized removals per queue (the per-work-queue numbers of
    /// Tables 3–5), split (local, remote) for distributed-queue schedulers.
    pub fn per_queue_avg(&self) -> (f64, f64) {
        if self.per_queue.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.per_queue.len() as f64;
        let local: u64 = self.per_queue.iter().map(|q| q.local).sum();
        let remote: u64 = self.per_queue.iter().map(|q| q.remote).sum();
        (local as f64 / n, remote as f64 / n)
    }

    /// Merges another loop's metrics into this one (for multi-phase totals).
    pub fn merge(&mut self, other: &LoopMetrics) {
        self.sync.add(&other.sync);
        if self.per_queue.len() < other.per_queue.len() {
            self.per_queue
                .resize(other.per_queue.len(), SyncOps::default());
        }
        for (a, b) in self.per_queue.iter_mut().zip(&other.per_queue) {
            a.add(b);
        }
        if self.per_worker.len() < other.per_worker.len() {
            self.per_worker
                .resize(other.per_worker.len(), SyncOps::default());
            self.iters_per_worker
                .resize(other.iters_per_worker.len(), 0);
        }
        for (a, b) in self.per_worker.iter_mut().zip(&other.per_worker) {
            a.add(b);
        }
        for (a, b) in self
            .iters_per_worker
            .iter_mut()
            .zip(&other.iters_per_worker)
        {
            *a += b;
        }
        if self.tracing {
            self.trace.extend(other.trace.iter().copied());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grab(queue: usize, access: AccessKind, start: u64, end: u64) -> Grab {
        Grab {
            range: IterRange::new(start, end),
            queue,
            access,
        }
    }

    #[test]
    fn records_by_kind() {
        let mut m = LoopMetrics::new(2, 2);
        m.record(0, &grab(0, AccessKind::Local, 0, 10));
        m.record(1, &grab(1, AccessKind::Local, 10, 20));
        m.record(1, &grab(0, AccessKind::Remote, 20, 25));
        assert_eq!(m.sync.local, 2);
        assert_eq!(m.sync.remote, 1);
        assert_eq!(m.sync.synchronized(), 3);
        assert_eq!(m.per_queue[0].local, 1);
        assert_eq!(m.per_queue[0].remote, 1);
        assert_eq!(m.per_worker[1].remote, 1);
        assert_eq!(m.iters_per_worker, vec![10, 15]);
        assert_eq!(m.total_iters(), 25);
    }

    #[test]
    fn free_grabs_not_synchronized() {
        let mut m = LoopMetrics::new(1, 1);
        m.record(0, &grab(0, AccessKind::Free, 0, 100));
        assert_eq!(m.sync.synchronized(), 0);
        assert_eq!(m.sync.total(), 1);
    }

    #[test]
    fn imbalance_measure() {
        let mut m = LoopMetrics::new(3, 1);
        m.record(0, &grab(0, AccessKind::Central, 0, 10));
        m.record(1, &grab(0, AccessKind::Central, 10, 13));
        // Worker 2 executed nothing: 10 − 0 iterations apart.
        assert_eq!(m.iters_per_worker, vec![10, 3, 0]);
    }

    #[test]
    fn tracing_captures_order() {
        let mut m = LoopMetrics::new(1, 1).with_tracing();
        m.record(0, &grab(0, AccessKind::Central, 0, 4));
        m.record(0, &grab(0, AccessKind::Central, 4, 6));
        assert_eq!(m.trace.len(), 2);
        assert_eq!(m.trace[0].range, IterRange::new(0, 4));
        assert_eq!(m.trace[1].range, IterRange::new(4, 6));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LoopMetrics::new(2, 2);
        a.record(0, &grab(0, AccessKind::Local, 0, 5));
        let mut b = LoopMetrics::new(2, 2);
        b.record(1, &grab(1, AccessKind::Local, 5, 10));
        b.record(0, &grab(1, AccessKind::Remote, 10, 12));
        a.merge(&b);
        assert_eq!(a.sync.local, 2);
        assert_eq!(a.sync.remote, 1);
        assert_eq!(a.iters_per_worker, vec![7, 5]);
    }

    #[test]
    fn per_queue_avg_splits_local_remote() {
        let mut m = LoopMetrics::new(2, 2);
        m.record(0, &grab(0, AccessKind::Local, 0, 5));
        m.record(1, &grab(1, AccessKind::Local, 5, 10));
        m.record(1, &grab(0, AccessKind::Remote, 10, 12));
        let (local, remote) = m.per_queue_avg();
        assert!((local - 1.0).abs() < 1e-9);
        assert!((remote - 0.5).abs() < 1e-9);
    }
}
