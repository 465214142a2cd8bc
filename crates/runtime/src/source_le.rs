//! Distributed "last executed" AFS (§4.3 of the paper) for the runtime.
//!
//! Like [`crate::source::AfsSource`], but the initial assignment of each
//! loop execution is *where each iteration ran last time* instead of the
//! fixed home mapping. Queues can therefore hold several discontiguous
//! ranges; each queue is an `afs_core` [`RangeQueue`] under its own lock,
//! with an atomic length for lock-free load checks.

use crate::source::WorkSource;
use crate::sync::{lock_traced, Mutex};
use afs_core::chunking::{afs_local_chunk, afs_steal_chunk, static_partition};
use afs_core::policy::{AccessKind, Grab};
use afs_core::range::IterRange;
use afs_core::schedulers::affinity::RangeQueue;
use afs_metrics::pad::CachePadded;
use afs_trace::TraceSink;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared execution history: which ranges each worker executed during the
/// previous loop execution. Owned by the policy, fed by its sources.
#[derive(Debug, Default)]
pub struct LeHistory {
    ranges: Mutex<Vec<Vec<IterRange>>>,
}

impl LeHistory {
    /// Creates empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Swaps out the previous execution's record and resets for `p` workers.
    fn take_and_reset(&self, p: usize) -> Vec<Vec<IterRange>> {
        let mut guard = self.ranges.lock();
        let prev = std::mem::take(&mut *guard);
        *guard = vec![Vec::new(); p];
        prev
    }

    fn record(&self, worker: usize, range: IterRange) {
        let mut guard = self.ranges.lock();
        if worker < guard.len() {
            guard[worker].push(range);
        }
    }
}

/// A per-loop AFS-LE work source.
pub struct AfsLeSource {
    queues: Vec<Mutex<RangeQueue>>,
    lens: Vec<CachePadded<AtomicU64>>,
    k: u64,
    p: usize,
    history: Arc<LeHistory>,
    trace: Option<Arc<TraceSink>>,
}

impl AfsLeSource {
    /// Builds the source for a loop of `n` iterations over `p` workers with
    /// local divisor `k`, seeding queues from `history` when it exactly
    /// covers `[0, n)` (otherwise the deterministic static assignment).
    pub fn new(n: u64, p: usize, k: u64, history: Arc<LeHistory>) -> Self {
        assert!(p >= 1 && k >= 1);
        let prev = history.take_and_reset(p);
        let total: u64 = prev.iter().flatten().map(|r| r.len()).sum();
        let usable = prev.len() == p && total == n && prev.iter().flatten().all(|r| r.end <= n);
        let queues: Vec<RangeQueue> = if usable {
            prev.into_iter()
                .map(|mut ranges| {
                    ranges.sort_by_key(|r| r.start);
                    let mut q = RangeQueue::new();
                    for r in ranges {
                        q.push_back(r);
                    }
                    q
                })
                .collect()
        } else {
            (0..p)
                .map(|i| RangeQueue::from_range(static_partition(n, p, i)))
                .collect()
        };
        Self {
            lens: queues
                .iter()
                .map(|q| CachePadded::new(AtomicU64::new(q.len())))
                .collect(),
            queues: queues.into_iter().map(Mutex::new).collect(),
            k,
            p,
            history,
            trace: None,
        }
    }

    /// Records contended queue-lock acquisitions into `sink`.
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    fn most_loaded(&self) -> Option<usize> {
        let mut best = 0usize;
        let mut best_len = 0u64;
        for (i, len) in self.lens.iter().enumerate() {
            let l = len.load(Ordering::Relaxed);
            if l > best_len {
                best_len = l;
                best = i;
            }
        }
        (best_len > 0).then_some(best)
    }
}

impl WorkSource for AfsLeSource {
    fn next(&self, worker: usize) -> Option<Grab> {
        debug_assert!(worker < self.p);
        loop {
            if self.lens[worker].load(Ordering::Relaxed) > 0 {
                let mut q = lock_traced(
                    &self.queues[worker],
                    self.trace.as_deref(),
                    worker,
                    worker as u32,
                );
                let len = q.len();
                if len > 0 {
                    let m = afs_local_chunk(len, self.k);
                    if let Some(range) = q.take_front(m) {
                        self.lens[worker].store(q.len(), Ordering::Relaxed);
                        drop(q);
                        self.history.record(worker, range);
                        return Some(Grab {
                            range,
                            queue: worker,
                            access: AccessKind::Local,
                        });
                    }
                }
            }
            let victim = self.most_loaded()?;
            let mut q = lock_traced(
                &self.queues[victim],
                self.trace.as_deref(),
                worker,
                victim as u32,
            );
            let len = q.len();
            if len == 0 {
                continue;
            }
            let m = afs_steal_chunk(len, self.p);
            if let Some(range) = q.take_back(m) {
                self.lens[victim].store(q.len(), Ordering::Relaxed);
                drop(q);
                self.history.record(worker, range);
                let access = if victim == worker {
                    AccessKind::Local
                } else {
                    AccessKind::Remote
                };
                return Some(Grab {
                    range,
                    queue: victim,
                    access,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_with(source: &AfsLeSource, active: &[usize]) -> (u64, u64) {
        // (iterations, remote grabs) with only `active` workers alive.
        let mut iters = 0;
        let mut remote = 0;
        let mut live: Vec<usize> = active.to_vec();
        while !live.is_empty() {
            let mut next = Vec::new();
            for &w in &live {
                if let Some(g) = source.next(w) {
                    iters += g.range.len();
                    if g.access == AccessKind::Remote {
                        remote += 1;
                    }
                    next.push(w);
                }
            }
            live = next;
        }
        (iters, remote)
    }

    #[test]
    fn first_execution_uses_static_assignment() {
        let hist = Arc::new(LeHistory::new());
        let src = AfsLeSource::new(100, 4, 4, Arc::clone(&hist));
        let g = src.next(2).unwrap();
        assert_eq!(g.queue, 2);
        assert!(g.range.start >= 50 && g.range.end <= 75);
    }

    #[test]
    fn history_carries_assignment_to_next_execution() {
        let hist = Arc::new(LeHistory::new());
        // Execution 1: only workers 0 and 1 participate.
        let src = AfsLeSource::new(256, 4, 4, Arc::clone(&hist));
        let (iters, remote1) = drain_with(&src, &[0, 1]);
        assert_eq!(iters, 256);
        assert!(remote1 > 0, "workers 2/3's queues must be stolen");
        drop(src);
        // Execution 2: same two workers — their queues now hold everything,
        // so (almost) no migration is needed.
        let src = AfsLeSource::new(256, 4, 4, Arc::clone(&hist));
        assert_eq!(
            src.lens
                .iter()
                .map(|l| l.load(Ordering::Relaxed))
                .sum::<u64>(),
            256
        );
        assert_eq!(src.lens[2].load(Ordering::Relaxed), 0);
        assert_eq!(src.lens[3].load(Ordering::Relaxed), 0);
        let (iters, remote2) = drain_with(&src, &[0, 1]);
        assert_eq!(iters, 256);
        assert!(
            remote2 <= 2 && remote2 < remote1,
            "migration should not repeat: {remote1} -> {remote2}"
        );
    }

    #[test]
    fn length_change_falls_back_to_static() {
        let hist = Arc::new(LeHistory::new());
        let src = AfsLeSource::new(64, 4, 4, Arc::clone(&hist));
        drain_with(&src, &[0]);
        drop(src);
        let src = AfsLeSource::new(128, 4, 4, hist);
        let g = src.next(3).unwrap();
        assert_eq!(g.queue, 3);
        assert!(g.range.start >= 96);
    }

    #[test]
    fn concurrent_coverage_with_history() {
        use std::sync::atomic::AtomicU8;
        let hist = Arc::new(LeHistory::new());
        for _round in 0..3 {
            let n = 5000u64;
            let src = AfsLeSource::new(n, 4, 4, Arc::clone(&hist));
            let seen: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
            std::thread::scope(|s| {
                for w in 0..4 {
                    let src = &src;
                    let seen = &seen;
                    s.spawn(move || {
                        while let Some(g) = src.next(w) {
                            for i in g.range.iter() {
                                assert_eq!(seen[i as usize].fetch_add(1, Ordering::SeqCst), 0);
                            }
                        }
                    });
                }
            });
            assert!(seen.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        }
    }
}
