//! AFS — affinity scheduling (Markatos & LeBlanc '92), the paper's
//! contribution.
//!
//! * **Deterministic assignment**: chunk `i` of size `⌈N/P⌉` always starts on
//!   processor `i`'s local work queue (Figure 1's `loop_initialization`), so
//!   repeated executions of the loop find their data in local storage.
//! * **Per-processor queues**: a processor grabs `1/k` of the iterations
//!   remaining in its *own* queue (default `k = P`); queue accesses by
//!   different processors proceed in parallel.
//! * **Stealing only under imbalance**: an idle processor finds the most
//!   loaded queue (an unsynchronized load check) and removes `1/P` of its
//!   remaining iterations. A stolen range is executed indivisibly, so an
//!   iteration is reassigned at most once.
//!
//! Stolen iterations are taken from the *back* of the victim's queue, which
//! keeps the victim's remaining work contiguous with what it has already
//! executed (the paper does not prescribe an end; this choice maximizes the
//! victim's retained locality).

use crate::chunking::{afs_local_chunk, afs_steal_chunk, static_partition};
use crate::policy::{AccessKind, LoopState, QueueId, QueueTopology, Scheduler, Target};
use crate::range::IterRange;
use std::collections::VecDeque;

/// How the AFS `k` parameter (local grab divisor) is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KParam {
    /// `k = P`, the paper's default: same worst-case imbalance as GSS.
    EqualsP,
    /// A fixed constant (the paper's Table 2 evaluates `k = 2`).
    Fixed(u64),
}

impl KParam {
    /// Resolves the divisor for `p` processors.
    pub fn resolve(self, p: usize) -> u64 {
        match self {
            KParam::EqualsP => p as u64,
            KParam::Fixed(k) => k,
        }
    }
}

/// Affinity scheduling.
#[derive(Clone, Copy, Debug)]
pub struct Affinity {
    k: KParam,
}

impl Affinity {
    /// AFS with `k = P` (the configuration used in most of the paper).
    pub fn with_k_equals_p() -> Self {
        Self { k: KParam::EqualsP }
    }

    /// AFS with a fixed `k`.
    pub fn with_k(k: u64) -> Self {
        assert!(k >= 1);
        Self {
            k: KParam::Fixed(k),
        }
    }
}

/// A per-processor work queue holding an ordered list of iteration ranges.
///
/// Plain AFS queues always hold at most one contiguous range (local grabs
/// take from the front, steals from the back); the "last executed" variant
/// can fragment queues, so the general list form lives here.
#[derive(Clone, Debug, Default)]
pub struct RangeQueue {
    ranges: VecDeque<IterRange>,
    total: u64,
}

impl RangeQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a queue holding one range.
    pub fn from_range(r: IterRange) -> Self {
        let mut q = Self::new();
        q.push_back(r);
        q
    }

    /// Iterations currently in the queue.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Appends a range at the back (no-op if empty); merges when adjacent.
    pub fn push_back(&mut self, r: IterRange) {
        if r.is_empty() {
            return;
        }
        self.total += r.len();
        if let Some(last) = self.ranges.back_mut() {
            if last.adjacent_before(&r) {
                last.merge_after(r);
                return;
            }
        }
        self.ranges.push_back(r);
    }

    /// Removes up to `m` iterations from the front. Returns a single
    /// contiguous range (at most the first stored range), or `None` if empty.
    pub fn take_front(&mut self, m: u64) -> Option<IterRange> {
        let first = self.ranges.front_mut()?;
        let taken = first.split_front(m);
        if first.is_empty() {
            self.ranges.pop_front();
        }
        self.total -= taken.len();
        (!taken.is_empty()).then_some(taken)
    }

    /// Removes up to `m` iterations from the back, as a contiguous range.
    pub fn take_back(&mut self, m: u64) -> Option<IterRange> {
        let last = self.ranges.back_mut()?;
        let taken = last.split_back(m);
        if last.is_empty() {
            self.ranges.pop_back();
        }
        self.total -= taken.len();
        (!taken.is_empty()).then_some(taken)
    }
}

/// AFS loop state: P per-processor queues.
pub(crate) struct AfsState {
    pub(crate) queues: Vec<RangeQueue>,
    pub(crate) k: u64,
    pub(crate) p: usize,
}

impl AfsState {
    pub(crate) fn with_static_assignment(n: u64, p: usize, k: u64) -> Self {
        assert!(p > 0 && k > 0);
        let queues = (0..p)
            .map(|i| RangeQueue::from_range(static_partition(n, p, i)))
            .collect();
        Self { queues, k, p }
    }

    /// The most-loaded queue with any work, ties broken by lowest index
    /// (deterministic). This is the unsynchronized `find_most_loaded_processor`
    /// of Figure 1.
    pub(crate) fn most_loaded(&self) -> Option<usize> {
        let (idx, q) = self
            .queues
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.len().cmp(&b.len()).then(ib.cmp(ia)))?;
        (!q.is_empty()).then_some(idx)
    }
}

impl LoopState for AfsState {
    fn target(&self, worker: usize) -> Option<Target> {
        if worker < self.p && !self.queues[worker].is_empty() {
            return Some(Target {
                queue: worker,
                access: AccessKind::Local,
            });
        }
        let victim = self.most_loaded()?;
        Some(Target {
            queue: victim,
            access: AccessKind::Remote,
        })
    }

    fn take(&mut self, worker: usize, queue: QueueId) -> Option<IterRange> {
        if queue >= self.p {
            return None;
        }
        if queue == worker {
            let m = afs_local_chunk(self.queues[queue].len(), self.k);
            self.queues[queue].take_front(m)
        } else {
            let m = afs_steal_chunk(self.queues[queue].len(), self.p);
            self.queues[queue].take_back(m)
        }
    }
}

impl Scheduler for Affinity {
    fn name(&self) -> String {
        match self.k {
            KParam::EqualsP => "AFS".to_string(),
            KParam::Fixed(k) => format!("AFS(k={k})"),
        }
    }

    fn topology(&self) -> QueueTopology {
        QueueTopology::PerProcessor
    }

    fn begin_loop(&self, n: u64, p: usize) -> Box<dyn LoopState> {
        Box::new(AfsState::with_static_assignment(n, p, self.k.resolve(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_grab_takes_one_kth_from_front() {
        // N = 512, P = 8: each queue holds 64; k = 8 → first grab 8.
        let s = Affinity::with_k_equals_p();
        let mut st = s.begin_loop(512, 8);
        let g = st.next(3).unwrap();
        assert_eq!(g.access, AccessKind::Local);
        assert_eq!(g.queue, 3);
        assert_eq!(g.range, IterRange::new(192, 200));
        // Second grab: ceil(56/8) = 7.
        let g2 = st.next(3).unwrap();
        assert_eq!(g2.range, IterRange::new(200, 207));
    }

    #[test]
    fn steal_takes_one_pth_from_most_loaded_back() {
        let s = Affinity::with_k_equals_p();
        let mut st = s.begin_loop(64, 4); // 16 per queue
                                          // Worker 0 drains its own queue.
        while st.target(0).map(|t| t.access) == Some(AccessKind::Local) {
            st.next(0).unwrap();
        }
        // All other queues hold 16; victim is the lowest index (1).
        let g = st.next(0).unwrap();
        assert_eq!(g.access, AccessKind::Remote);
        assert_eq!(g.queue, 1);
        // Steal ceil(16/4) = 4 from the back of queue 1 ([16,32) → [28,32)).
        assert_eq!(g.range, IterRange::new(28, 32));
    }

    #[test]
    fn no_steals_when_load_balanced() {
        // All workers drain in lock-step: nobody should ever steal.
        let s = Affinity::with_k_equals_p();
        let mut st = s.begin_loop(512, 8);
        let mut done = [false; 8];
        while !done.iter().all(|&d| d) {
            for (w, flag) in done.iter_mut().enumerate() {
                if *flag {
                    continue;
                }
                match st.target(w) {
                    Some(t) if t.access == AccessKind::Local => {
                        st.next(w);
                    }
                    Some(_) | None => *flag = true,
                }
            }
        }
        // All iterations must be gone (no remote access was ever needed).
        assert!(st.target(0).is_none());
    }

    #[test]
    fn deterministic_assignment_across_executions() {
        let s = Affinity::with_k_equals_p();
        let mut a = s.begin_loop(100, 4);
        let mut b = s.begin_loop(100, 4);
        for w in [2usize, 0, 3, 1, 2, 0] {
            assert_eq!(a.next(w).map(|g| g.range), b.next(w).map(|g| g.range));
        }
    }

    #[test]
    fn iteration_reassigned_at_most_once() {
        // Worker 0 does all the work (extreme imbalance): every iteration of
        // queues 1..3 is stolen exactly once, none twice.
        let s = Affinity::with_k_equals_p();
        let mut st = s.begin_loop(64, 4);
        let mut seen = std::collections::HashSet::new();
        let mut steals = 0;
        while let Some(g) = st.next(0) {
            for i in g.range.iter() {
                assert!(seen.insert(i), "iteration {i} scheduled twice");
            }
            if g.access == AccessKind::Remote {
                steals += 1;
            }
        }
        assert_eq!(seen.len(), 64);
        assert!(steals > 0);
    }

    #[test]
    fn k_fixed_takes_bigger_chunks() {
        let s = Affinity::with_k(2);
        let mut st = s.begin_loop(512, 8);
        let g = st.next(0).unwrap();
        assert_eq!(g.range.len(), 32); // ceil(64/2)
    }

    #[test]
    fn range_queue_merges_adjacent() {
        let mut q = RangeQueue::new();
        q.push_back(IterRange::new(0, 4));
        q.push_back(IterRange::new(4, 8));
        assert_eq!(q.len(), 8);
        assert_eq!(q.take_front(8), Some(IterRange::new(0, 8)));
        assert!(q.is_empty());
    }

    #[test]
    fn range_queue_fragmented_takes() {
        let mut q = RangeQueue::new();
        q.push_back(IterRange::new(0, 4));
        q.push_back(IterRange::new(10, 14));
        // take_front is limited to the first range.
        assert_eq!(q.take_front(100), Some(IterRange::new(0, 4)));
        assert_eq!(q.take_back(2), Some(IterRange::new(12, 14)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn tiny_loops() {
        let s = Affinity::with_k_equals_p();
        for (n, p) in [(0u64, 4usize), (1, 4), (3, 8)] {
            let mut st = s.begin_loop(n, p);
            let mut total = 0;
            for w in 0..p {
                while let Some(g) = st.next(w) {
                    total += g.range.len();
                }
            }
            assert_eq!(total, n);
        }
    }
}
