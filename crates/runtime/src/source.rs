//! Concurrent work sources: the real-thread counterparts of
//! `afs_core::LoopState`.
//!
//! The paper's schedulers are cheap precisely because their grabs are
//! (nearly) synchronization-free: footnote 4 stipulates that load checks
//! need no synchronization, and on the machines studied SS and fixed-size
//! chunking are literally fetch-and-add schedulers. The hot paths here
//! follow suit:
//!
//! * [`AfsSource`] — true distributed AFS with one *lock-free* queue per
//!   worker: a single packed `head:32 | tail:32` atomic word per queue,
//!   local grabs CAS the head forward, steals CAS the tail backward.
//! * [`FetchAddSource`] — SS and fixed-size chunking are strictly-monotone
//!   counters, so one `fetch_add` per grab implements them exactly.
//! * [`LockedSource`] — GSS, factoring, trapezoid and friends hand out
//!   chunks whose size depends on the remaining work, so they keep the
//!   faithful implementation: the core state machine under one mutex.

use crate::inject::YieldInject;
use crate::sync::{lock_traced, Mutex};
use afs_core::chunking::{
    afs_local_chunk, afs_steal_chunk, pack_queue, packed_queue_len, packed_take_back,
    packed_take_front, static_partition, unpack_queue,
};
use afs_core::policy::{AccessKind, Grab, LoopState};
use afs_core::range::IterRange;
use afs_metrics::pad::CachePadded;
use afs_metrics::MetricsRegistry;
use afs_trace::{EventKind, TraceSink};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A concurrent source of loop chunks.
pub trait WorkSource: Sync {
    /// Grabs the next chunk for `worker`, or `None` when the loop is
    /// exhausted from this worker's point of view.
    fn next(&self, worker: usize) -> Option<Grab>;

    /// Touches `worker`-owned state from the worker's own thread before
    /// the first grab of a phase. On a pinned pool this runs on the
    /// worker's core, so lazily-allocated per-worker state (a grab-ahead
    /// stash's heap block) is first-touched — hence NUMA-placed — on the
    /// node that will use it, and coordinator-written queue words are
    /// pulled into the local cache before the timed region. Default: no-op.
    fn warm(&self, _worker: usize) {}
}

/// Any core scheduler state machine driven under its queue lock.
pub struct LockedSource {
    state: Mutex<Box<dyn LoopState>>,
    trace: Option<Arc<TraceSink>>,
}

impl LockedSource {
    /// Wraps a per-loop state machine.
    pub fn new(state: Box<dyn LoopState>) -> Self {
        Self {
            state: Mutex::new(state),
            trace: None,
        }
    }

    /// Records contended acquisitions of the central queue lock into `sink`.
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }
}

impl WorkSource for LockedSource {
    fn next(&self, worker: usize) -> Option<Grab> {
        // The single central queue is queue 0 in lock-wait events.
        lock_traced(&self.state, self.trace.as_deref(), worker, 0).next(worker)
    }
}

/// A lock-free central queue for strictly-monotone chunk policies.
///
/// SS (chunk = 1) and fixed-size chunking (chunk = c) always hand out the
/// next `chunk` iterations regardless of how much work remains, so the
/// whole scheduler state is one cursor and a grab is one `fetch_add` — the
/// paper's own characterization of these policies on fetch-and-add
/// hardware. Policies whose chunk size depends on the remaining count
/// (GSS, factoring, trapezoid) cannot be expressed this way and stay on
/// [`LockedSource`].
pub struct FetchAddSource {
    cursor: CachePadded<AtomicU64>,
    n: u64,
    chunk: u64,
}

impl FetchAddSource {
    /// A loop of `n` iterations handed out `chunk` at a time.
    pub fn new(n: u64, chunk: u64) -> Self {
        assert!(chunk >= 1);
        Self {
            cursor: CachePadded::new(AtomicU64::new(0)),
            n,
            chunk,
        }
    }
}

impl WorkSource for FetchAddSource {
    fn next(&self, _worker: usize) -> Option<Grab> {
        // Exactly-once is the uniqueness of fetch_add return values; each
        // worker overshoots at most once after exhaustion, so the cursor
        // stays far from wrapping. AcqRel keeps grab acquisition ordered
        // with the previous holder's writes, like the mutex it replaces.
        let start = self.cursor.fetch_add(self.chunk, Ordering::AcqRel);
        if start >= self.n {
            return None;
        }
        Some(Grab {
            range: IterRange::new(start, (start + self.chunk).min(self.n)),
            queue: 0,
            access: AccessKind::Central,
        })
    }
}

/// How many full O(P) load scans the steal path performs before switching
/// from "most loaded" to a cheap linear probe (see [`AfsSource::next`]).
const MAX_FULL_SCANS: u32 = 2;

/// Upper bound on the consecutive local chunks a single CAS may claim when
/// grab-ahead is enabled (see [`AfsSource::with_grab_ahead`]).
pub const MAX_GRAB_AHEAD: usize = 8;

/// A worker-private stash of pre-claimed local sub-chunks, stored in
/// reverse order so handing one out is a `pop`.
struct Stash(UnsafeCell<Vec<Grab>>);

// SAFETY: stash slot `i` is only ever touched by the thread currently
// driving worker index `i` — the same exclusivity `Pool` guarantees for
// trace lanes and per-worker `LoopMetrics` — and a worker's grabs are
// sequential, so no two threads access one slot concurrently.
unsafe impl Sync for Stash {}

/// Per-queue partition bases, rewritten only by [`AfsSource::rearm`].
struct Bases(UnsafeCell<Vec<u64>>);

// SAFETY: the bases vector is written only by `rearm`, which the fused
// driver calls from the phase barrier's turn closure — after every worker's
// final grab of the old phase (each happens-before that worker's arrival,
// and the turn runs after the last arrival) and before any worker's first
// grab of the new one (each follows the release the turn precedes). All
// other accesses are reads from inside a phase.
unsafe impl Sync for Bases {}

/// True distributed AFS with lock-free queues.
///
/// Plain AFS queues are always a single contiguous range (local grabs take
/// from the front, steals from the back), so each queue is fully described
/// by a packed `head:32 | tail:32` word in one cache-padded atomic. A grab
/// is one load plus one CAS:
///
/// * local: `head += ⌈len/k⌉` (claims the front of the queue);
/// * steal: `tail −= ⌈len/P⌉` (claims the back of the most loaded queue).
///
/// Because both cursors live in the *same* word, any interleaved grab or
/// steal changes the word and fails the CAS — claimed ranges can never
/// overlap, which is the exactly-once handout property (and the paper's
/// Thm 3.1 premise that a stolen range is executed indivisibly). The
/// load check (`most_loaded`) stays a plain unsynchronized scan, exactly
/// the paper's footnote 4.
pub struct AfsSource {
    /// Queue `i`'s packed `(head, tail)` offsets, relative to `bases[i]`.
    words: Vec<CachePadded<AtomicU64>>,
    /// First iteration index of each queue's static partition.
    bases: Bases,
    /// Local grab divisor (atomic so [`AfsSource::rearm`] can re-tune it
    /// between phases; plain loads elsewhere).
    k: AtomicU64,
    p: usize,
    /// Local chunks claimed per CAS (1 = plain AFS). Atomic for the same
    /// reason as `k`.
    ahead: AtomicUsize,
    /// NUMA node index of each worker slot: same-node victims are probed
    /// before cross-node ones on the steal fallback path.
    node_of: Vec<usize>,
    /// Per-worker stash of pre-claimed sub-chunks (drained before any new
    /// CAS; empty whenever `ahead == 1`).
    stash: Vec<CachePadded<Stash>>,
    trace: Option<Arc<TraceSink>>,
    /// Always-on counters: CAS retries and stash hits, per worker.
    metrics: Option<Arc<MetricsRegistry>>,
    inject: Option<YieldInject>,
    /// Last steal victim: where the linear-probe fallback starts.
    last_victim: CachePadded<AtomicUsize>,
    /// Full O(P) steal-path scans performed (most-loaded or probe passes);
    /// observability for the bounded-rescan policy.
    scans: CachePadded<AtomicU64>,
}

impl AfsSource {
    /// Deterministic initial assignment of `n` iterations to `p` queues,
    /// with local grab divisor `k` (pass `p as u64` for the paper's
    /// `k = P` default).
    pub fn new(n: u64, p: usize, k: u64) -> Self {
        assert!(p >= 1 && k >= 1);
        let parts: Vec<IterRange> = (0..p).map(|i| static_partition(n, p, i)).collect();
        assert!(
            parts.iter().all(|r| r.len() <= u32::MAX as u64),
            "per-queue partition exceeds the packed 32-bit cursor range"
        );
        // Worker slot w pins to core w (modulo core count) on pinned
        // pools, so the slot's node is the node of that core. Single-node
        // hosts get an all-equal map, which degrades the probe order to
        // the plain wrap-around scan below.
        let topo = crate::affinity::topology();
        let node_of = (0..p).map(|w| topo.node_of_cpu(w)).collect();
        Self {
            words: parts
                .iter()
                .map(|r| CachePadded::new(AtomicU64::new(pack_queue(0, r.len() as u32))))
                .collect(),
            bases: Bases(UnsafeCell::new(parts.iter().map(|r| r.start).collect())),
            k: AtomicU64::new(k),
            p,
            ahead: AtomicUsize::new(1),
            node_of,
            stash: (0..p)
                .map(|_| CachePadded::new(Stash(UnsafeCell::new(Vec::new()))))
                .collect(),
            trace: None,
            metrics: None,
            inject: None,
            last_victim: CachePadded::new(AtomicUsize::new(0)),
            scans: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Records contended-CAS retries into `sink` (the lock-free analogue of
    /// the mutex path's `LockWait*` events).
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Counts CAS retries and grab-ahead stash hits into `metrics`. Grab
    /// counts themselves are recorded by the loop drivers (uniformly for
    /// every source kind); only the events private to this source's grab
    /// paths are counted here.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Claims up to `batch` consecutive local chunks with one CAS and
    /// hands them out through a worker-private stash, amortizing the
    /// atomic on fine-grained bodies. The planned chunk sizes follow the
    /// same `⌈rem/k⌉` recurrence live grabs compute, and each sub-chunk is
    /// still reported as its own `Local` grab — so on any deterministic
    /// drive the handed-out sequence (and therefore `LoopMetrics` and the
    /// paper's sync-count tables) is bit-identical to plain AFS; the head
    /// cursor merely advances in larger steps. Exactly-once is untouched:
    /// the CAS claims the whole batch range exclusively, and the stash
    /// partitions it. `batch` is clamped to `1..=`[`MAX_GRAB_AHEAD`].
    pub fn with_grab_ahead(mut self, batch: usize) -> Self {
        *self.ahead.get_mut() = batch.clamp(1, MAX_GRAB_AHEAD);
        self
    }

    /// Overrides the worker→node map (tests only: lets a single-node host
    /// exercise the two-pass cross-node probe order deterministically).
    #[doc(hidden)]
    pub fn with_node_map(mut self, node_of: Vec<usize>) -> Self {
        assert_eq!(node_of.len(), self.p);
        self.node_of = node_of;
        self
    }

    /// The current local grab divisor.
    pub fn k(&self) -> u64 {
        self.k.load(Ordering::Relaxed)
    }

    /// The current grab-ahead batch.
    pub fn grab_ahead(&self) -> usize {
        self.ahead.load(Ordering::Relaxed)
    }

    /// Re-arms the source for a fresh loop of `n` iterations with
    /// subdivision `k` and grab-ahead `batch`, reusing every allocation
    /// (queue words, bases, stashes): one source serves every phase of a
    /// fused region, and the adaptive policy re-tunes between phases
    /// without rebuilding it. Afterwards the source hands out exactly what
    /// `AfsSource::new(n, p, k).with_grab_ahead(batch)` would.
    ///
    /// Must be called from the drivers' exclusive phase-boundary window —
    /// after all workers' final grabs of the previous phase and before any
    /// first grab of the next (the same window in which other policies'
    /// sources are replaced).
    pub fn rearm(&self, n: u64, k: u64, batch: usize) {
        assert!(k >= 1);
        // SAFETY: see `Bases` — `rearm` runs exclusively at a phase
        // boundary, so no worker is reading the vector concurrently.
        let bases = unsafe { &mut *self.bases.0.get() };
        for (i, base) in bases.iter_mut().enumerate().take(self.p) {
            let r = static_partition(n, self.p, i);
            assert!(
                r.len() <= u32::MAX as u64,
                "per-queue partition exceeds the packed 32-bit cursor range"
            );
            *base = r.start;
            self.words[i].store(pack_queue(0, r.len() as u32), Ordering::Release);
            // Stashes are empty after a drained phase; clear defensively in
            // case the previous phase was abandoned mid-flight (a panic).
            // SAFETY: same exclusive window as the bases write.
            unsafe { &mut *self.stash[i].0.get() }.clear();
        }
        self.k.store(k, Ordering::Release);
        self.ahead
            .store(batch.clamp(1, MAX_GRAB_AHEAD), Ordering::Release);
        self.last_victim.store(0, Ordering::Relaxed);
    }

    /// Deterministically injects `yield_now` between CAS attempts (seeded
    /// interleaving stress tests only).
    #[doc(hidden)]
    pub fn with_yield_injection(mut self, seed: u64) -> Self {
        self.inject = Some(YieldInject::new(seed));
        self
    }

    /// Number of full O(P) steal-path scans performed so far.
    pub fn steal_scans(&self) -> u64 {
        self.scans.load(Ordering::Relaxed)
    }

    #[inline]
    fn queue_len(&self, i: usize) -> u64 {
        packed_queue_len(self.words[i].load(Ordering::Relaxed))
    }

    /// Lock-free load check: index of the most loaded queue, or `None` if
    /// all appear empty. May be stale by the time the caller CASes it.
    fn most_loaded(&self) -> Option<usize> {
        let mut best = 0usize;
        let mut best_len = 0u64;
        for i in 0..self.p {
            let l = self.queue_len(i);
            if l > best_len {
                best_len = l;
                best = i;
            }
        }
        (best_len > 0).then_some(best)
    }

    /// Cheap fallback victim choice: the first non-empty queue after
    /// `start`, wrapping — but seeded by the NUMA topology: queues on
    /// `worker`'s own node are probed first, cross-node queues only when
    /// every same-node victim is empty. On a single-node host every queue
    /// is same-node, so the first pass *is* the original scan and the
    /// order is unchanged. Used once `MAX_FULL_SCANS` most-loaded scans
    /// have been wasted on steal races.
    fn probe_from(&self, worker: usize, start: usize) -> Option<usize> {
        let home = self.node_of.get(worker).copied().unwrap_or(0);
        let seq = || (0..self.p).map(|off| (start + 1 + off) % self.p);
        seq()
            .find(|&i| self.node_of[i] == home && self.queue_len(i) > 0)
            .or_else(|| seq().find(|&i| self.node_of[i] != home && self.queue_len(i) > 0))
    }

    #[inline]
    fn inject_point(&self) {
        if let Some(inj) = &self.inject {
            inj.maybe_yield();
        }
    }

    #[cold]
    fn note_retry(&self, worker: usize, queue: usize) {
        if let Some(sink) = &self.trace {
            sink.record(
                worker,
                EventKind::CasRetry {
                    queue: queue as u32,
                },
            );
        }
        if let Some(m) = &self.metrics {
            m.worker(worker).record_cas_retry();
        }
    }

    /// One local-grab attempt loop: claims the next (up to `ahead`)
    /// `⌈len/k⌉` chunks from the front of the worker's own queue with one
    /// CAS, retrying while the CAS loses races. Pre-claimed sub-chunks are
    /// drained from the stash before any new claim.
    #[inline]
    fn try_local(&self, worker: usize) -> Option<Grab> {
        // SAFETY: worker index `worker` is driven by exactly one thread at
        // a time (see `Stash`), so this is effectively a thread-local.
        let stash = unsafe { &mut *self.stash[worker].0.get() };
        if let Some(g) = stash.pop() {
            if let Some(m) = &self.metrics {
                m.worker(worker).record_stash_hit();
            }
            return Some(g);
        }
        let k = self.k.load(Ordering::Relaxed);
        let ahead = self.ahead.load(Ordering::Relaxed);
        loop {
            let word = self.words[worker].load(Ordering::Acquire);
            let len = packed_queue_len(word);
            if len == 0 {
                return None;
            }
            // Plan up to `ahead` consecutive chunk sizes against the frozen
            // length — the same recurrence live grabs would compute.
            let mut takes = [0u64; MAX_GRAB_AHEAD];
            let mut planned = 0usize;
            let (mut rem, mut total) = (len, 0u64);
            while planned < ahead && rem > 0 {
                let t = afs_local_chunk(rem, k);
                takes[planned] = t;
                planned += 1;
                rem -= t;
                total += t;
            }
            self.inject_point();
            if self.words[worker]
                .compare_exchange(
                    word,
                    packed_take_front(word, total),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                let (head, _) = unpack_queue(word);
                // SAFETY: `Bases` is only written at exclusive phase
                // boundaries; inside a phase this is a plain shared read.
                let base = unsafe { (*self.bases.0.get()).as_slice()[worker] };
                let mut start = base + head as u64;
                for &take in &takes[..planned] {
                    stash.push(Grab {
                        range: IterRange::new(start, start + take),
                        queue: worker,
                        access: AccessKind::Local,
                    });
                    start += take;
                }
                // Pops must hand the batch out front to back.
                stash.reverse();
                return stash.pop();
            }
            self.note_retry(worker, worker);
        }
    }

    /// One steal attempt loop against `victim`: claims `⌈len/P⌉` from the
    /// back. Returns `None` when the victim drained under us (rescan).
    #[inline]
    fn try_steal(&self, worker: usize, victim: usize) -> Option<Grab> {
        loop {
            let word = self.words[victim].load(Ordering::Acquire);
            let len = packed_queue_len(word);
            if len == 0 {
                return None;
            }
            let take = afs_steal_chunk(len, self.p);
            self.inject_point();
            if self.words[victim]
                .compare_exchange(
                    word,
                    packed_take_back(word, take),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                let (_, tail) = unpack_queue(word);
                // SAFETY: see `Bases` — written only at phase boundaries.
                let base = unsafe { (*self.bases.0.get()).as_slice()[victim] };
                let end = base + tail as u64;
                let access = if victim == worker {
                    AccessKind::Local
                } else {
                    AccessKind::Remote
                };
                return Some(Grab {
                    range: IterRange::new(end - take, end),
                    queue: victim,
                    access,
                });
            }
            self.note_retry(worker, victim);
        }
    }
}

impl WorkSource for AfsSource {
    fn warm(&self, worker: usize) {
        debug_assert!(worker < self.p);
        // Pull the worker's own queue word into its cache before the timed
        // region (the coordinator wrote it at construction).
        let _ = self.words[worker].load(Ordering::Relaxed);
        // Allocate the grab-ahead stash from the owning thread: its heap
        // block is then first-touched on this worker's node, not the
        // coordinator's.
        let ahead = self.ahead.load(Ordering::Relaxed);
        // SAFETY: same exclusivity as `next` — only the thread driving
        // `worker` calls `warm(worker)`, so no other reference to this
        // worker's stash exists.
        let stash = unsafe { &mut *self.stash[worker].0.get() };
        if ahead > 1 && stash.capacity() < ahead {
            stash.reserve_exact(ahead - stash.capacity());
        }
    }

    fn next(&self, worker: usize) -> Option<Grab> {
        debug_assert!(worker < self.p);
        // Bounded rescans: when a steal race drains the chosen victim, the
        // first MAX_FULL_SCANS re-selections use the paper's most-loaded
        // rule; after that we fall back to a linear probe from the last
        // victim, so a herd of thieves cannot spin on O(P) scans that keep
        // electing the same contended queue.
        let mut full_scans = 0u32;
        loop {
            // Local queue first.
            if let Some(g) = self.try_local(worker) {
                return Some(g);
            }
            // Observability-only counter: a plain load+store (not an atomic
            // RMW) keeps the locked prefix off the steal path; racing
            // increments may be lost, which the single-threaded regression
            // test for the scan bound never sees.
            self.scans
                .store(self.scans.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            let victim = if full_scans < MAX_FULL_SCANS {
                full_scans += 1;
                self.most_loaded()?
            } else {
                self.probe_from(worker, self.last_victim.load(Ordering::Relaxed))?
            };
            self.last_victim.store(victim, Ordering::Relaxed);
            if let Some(g) = self.try_steal(worker, victim) {
                return Some(g);
            }
        }
    }
}

/// Lock-free static partition: each worker claims its fixed range once.
pub struct StaticSource {
    n: u64,
    p: usize,
    taken: Vec<CachePadded<AtomicU64>>,
}

impl StaticSource {
    /// Static partition of `n` iterations over `p` workers.
    pub fn new(n: u64, p: usize) -> Self {
        assert!(p >= 1);
        Self {
            n,
            p,
            taken: (0..p).map(|_| CachePadded::default()).collect(),
        }
    }
}

impl WorkSource for StaticSource {
    fn next(&self, worker: usize) -> Option<Grab> {
        if worker >= self.p || self.taken[worker].swap(1, Ordering::Relaxed) != 0 {
            return None;
        }
        let range = static_partition(self.n, self.p, worker);
        (!range.is_empty()).then_some(Grab {
            range,
            queue: worker,
            access: AccessKind::Free,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_core::prelude::*;

    #[test]
    fn locked_source_drives_core_scheduler() {
        let sched = Gss::new();
        let src = LockedSource::new(sched.begin_loop(100, 4));
        let mut total = 0;
        while let Some(g) = src.next(0) {
            total += g.range.len();
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn afs_source_matches_core_afs_single_threaded() {
        // Driven by the same request sequence, the concurrent AFS source and
        // the core AFS state machine must hand out identical chunks.
        let fixed: Vec<usize> = [3usize, 0, 7, 3, 1, 2, 3, 3, 3, 3, 0, 5, 6, 4, 3, 0]
            .into_iter()
            .cycle()
            .take(400)
            .collect();
        let strided = |p: usize| (0..600).map(|i| (i * 7 + i / 5) % p).collect::<Vec<_>>();
        for (n, p, k, order) in [
            (512u64, 8usize, 8u64, fixed),
            (512, 8, 8, strided(8)),
            (100, 4, 2, strided(4)),
            (7, 3, 3, strided(3)),
            (1, 1, 1, strided(1)),
        ] {
            let concurrent = AfsSource::new(n, p, k);
            let mut core_state = Affinity::with_k(k).begin_loop(n, p);
            for &w in &order {
                match (concurrent.next(w), core_state.next(w)) {
                    (Some(x), Some(y)) => {
                        assert_eq!((x.range, x.queue, x.access), (y.range, y.queue, y.access));
                    }
                    (None, None) => break,
                    (x, y) => panic!("divergence (n={n} p={p} k={k}) at {w}: {x:?} vs {y:?}"),
                }
            }
        }
    }

    #[test]
    fn grab_ahead_matches_plain_afs_on_deterministic_drives() {
        // With no interleaved steal between a batch claim and its drain,
        // grab-ahead must hand out the exact chunk sequence plain AFS
        // computes live — single-worker drives guarantee that, and so does
        // a per-worker full drain before moving on.
        for (n, p, k, ahead) in [
            (512u64, 1usize, 1u64, 8usize),
            (512, 1, 1, 3),
            (1000, 4, 4, 8),
            (7, 2, 2, 8),
        ] {
            let plain = AfsSource::new(n, p, k);
            let batched = AfsSource::new(n, p, k).with_grab_ahead(ahead);
            for w in 0..p {
                loop {
                    match (plain.try_local(w), batched.try_local(w)) {
                        (Some(a), Some(b)) => {
                            assert_eq!(a.range, b.range, "n={n} p={p} k={k} ga={ahead}");
                            assert_eq!(a.access, AccessKind::Local);
                            assert_eq!(b.access, AccessKind::Local);
                        }
                        (None, None) => break,
                        (a, b) => panic!("divergence: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn grab_ahead_concurrent_coverage() {
        // Exactly-once must survive 8 threads with batched local claims
        // racing steals.
        use std::sync::atomic::AtomicU8;
        let n = 10_000u64;
        let p = 8;
        let src = AfsSource::new(n, p, p as u64).with_grab_ahead(8);
        let seen: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
        std::thread::scope(|s| {
            for w in 0..p {
                let src = &src;
                let seen = &seen;
                s.spawn(move || {
                    while let Some(g) = src.next(w) {
                        for i in g.range.iter() {
                            let prev = seen[i as usize].fetch_add(1, Ordering::SeqCst);
                            assert_eq!(prev, 0, "iteration {i} handed out twice");
                        }
                    }
                });
            }
        });
        assert!(seen.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn grab_ahead_batch_is_clamped() {
        // Out-of-range batches clamp instead of panicking or over-claiming.
        let src = AfsSource::new(100, 1, 1).with_grab_ahead(0);
        assert_eq!(src.grab_ahead(), 1);
        let src = AfsSource::new(100, 1, 1).with_grab_ahead(1000);
        assert_eq!(src.grab_ahead(), MAX_GRAB_AHEAD);
        let src = AfsSource::new(100, 1, 1);
        src.rearm(100, 1, 99);
        assert_eq!(src.grab_ahead(), MAX_GRAB_AHEAD);
    }

    #[test]
    fn rearmed_source_matches_a_fresh_one() {
        // A rearmed source must hand out exactly the chunk sequence a
        // freshly built source with the same (n, k, b) would — queues,
        // bases and stashes are reused, not semantically different.
        let src = AfsSource::new(512, 4, 4).with_grab_ahead(2);
        let order: Vec<usize> = (0..600).map(|i| (i * 7 + i / 5) % 4).collect();
        for &w in &order {
            if src.next(w).is_none() {
                break;
            }
        }
        for (n, k, b) in [(300u64, 2u64, 1usize), (512, 4, 8), (7, 1, 3)] {
            src.rearm(n, k, b);
            assert_eq!((src.k(), src.grab_ahead()), (k, b.clamp(1, MAX_GRAB_AHEAD)));
            let fresh = AfsSource::new(n, 4, k).with_grab_ahead(b);
            for &w in &order {
                let (x, y) = (src.next(w), fresh.next(w));
                match (x, y) {
                    (Some(x), Some(y)) => {
                        assert_eq!((x.range, x.queue, x.access), (y.range, y.queue, y.access));
                    }
                    (None, None) => break,
                    (x, y) => panic!("divergence (n={n} k={k} b={b}): {x:?} vs {y:?}"),
                }
            }
        }
    }

    #[test]
    fn rearm_covers_exactly_once_concurrently() {
        use std::sync::atomic::AtomicU8;
        let n = 8_000u64;
        let p = 8;
        let src = AfsSource::new(n, p, p as u64);
        for round in 0..3 {
            src.rearm(n, 1 << round, 1 + round as usize);
            let seen: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
            std::thread::scope(|s| {
                for w in 0..p {
                    let src = &src;
                    let seen = &seen;
                    s.spawn(move || {
                        while let Some(g) = src.next(w) {
                            for i in g.range.iter() {
                                let prev = seen[i as usize].fetch_add(1, Ordering::SeqCst);
                                assert_eq!(prev, 0, "iteration {i} handed out twice");
                            }
                        }
                    });
                }
            });
            assert!(seen.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        }
    }

    #[test]
    fn probe_prefers_same_node_victims() {
        // Two synthetic nodes: workers {0,1} on node 0, {2,3} on node 1.
        let src = AfsSource::new(400, 4, 4).with_node_map(vec![0, 0, 1, 1]);
        // Drain queue 1 only (its owner pulling local chunks).
        while src.try_local(1).is_some() {}
        // Probing from start=0 scans 1,2,3,0: the plain order would pick 2
        // (first non-empty), the node-aware order picks 0 — the only
        // remaining same-node victim.
        assert_eq!(src.probe_from(0, 0), Some(0));
        // A worker on node 1 probing the same start picks 2 (same-node).
        assert_eq!(src.probe_from(2, 0), Some(2));
        // Once the whole home node is empty, the cross-node pass kicks in.
        while src.try_local(0).is_some() {}
        assert_eq!(src.probe_from(0, 0), Some(2));
    }

    #[test]
    fn single_node_map_leaves_probe_order_unchanged() {
        // On a single-node map the first probe pass is exactly the old
        // wrap-around scan: same victim for every (worker, start).
        let flat = AfsSource::new(400, 4, 4).with_node_map(vec![0; 4]);
        let reference = |start: usize, skip: &[usize]| {
            (0..4usize)
                .map(|off| (start + 1 + off) % 4)
                .find(|i| !skip.contains(i))
        };
        for start in 0..4 {
            for w in 0..4 {
                assert_eq!(flat.probe_from(w, start), reference(start, &[]));
            }
        }
        while flat.try_local(2).is_some() {}
        for start in 0..4 {
            for w in 0..4 {
                assert_eq!(flat.probe_from(w, start), reference(start, &[2]));
            }
        }
    }

    #[test]
    fn node_map_does_not_change_handed_out_chunks() {
        // The node map only re-orders the steal *fallback* probe; on a
        // deterministic drive the grabs (and hence iteration/sync counts)
        // are identical with and without it.
        let plain = AfsSource::new(512, 4, 4);
        let mapped = AfsSource::new(512, 4, 4).with_node_map(vec![0, 1, 0, 1]);
        let order: Vec<usize> = (0..600).map(|i| (i * 5 + i / 3) % 4).collect();
        for &w in &order {
            let (x, y) = (plain.next(w), mapped.next(w));
            match (x, y) {
                (Some(x), Some(y)) => {
                    assert_eq!((x.range, x.queue, x.access), (y.range, y.queue, y.access));
                }
                (None, None) => break,
                (x, y) => panic!("divergence: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn node_mapped_source_concurrent_coverage() {
        use std::sync::atomic::AtomicU8;
        let n = 10_000u64;
        let p = 8;
        let src = AfsSource::new(n, p, p as u64).with_node_map(vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let seen: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
        std::thread::scope(|s| {
            for w in 0..p {
                let src = &src;
                let seen = &seen;
                s.spawn(move || {
                    while let Some(g) = src.next(w) {
                        for i in g.range.iter() {
                            let prev = seen[i as usize].fetch_add(1, Ordering::SeqCst);
                            assert_eq!(prev, 0, "iteration {i} handed out twice");
                        }
                    }
                });
            }
        });
        assert!(seen.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn afs_source_concurrent_coverage() {
        // 8 real threads hammer the source; every iteration must be handed
        // out exactly once.
        use std::sync::atomic::AtomicU8;
        let n = 10_000u64;
        let p = 8;
        let src = AfsSource::new(n, p, p as u64);
        let seen: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
        std::thread::scope(|s| {
            for w in 0..p {
                let src = &src;
                let seen = &seen;
                s.spawn(move || {
                    while let Some(g) = src.next(w) {
                        for i in g.range.iter() {
                            let prev = seen[i as usize].fetch_add(1, Ordering::SeqCst);
                            assert_eq!(prev, 0, "iteration {i} handed out twice");
                        }
                    }
                });
            }
        });
        assert!(seen.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn drained_source_returns_none_within_bounded_scans() {
        // Regression for the bounded-rescan policy: once the loop is
        // exhausted, a worker's final (failing) grab must cost at most
        // P + 2 full load scans, not an unbounded retry storm.
        for p in [1usize, 4, 8] {
            let src = AfsSource::new(64, p, p as u64);
            for w in (0..p).cycle() {
                if src.next(w).is_none() {
                    break;
                }
            }
            for w in 0..p {
                let before = src.steal_scans();
                assert!(src.next(w).is_none());
                let used = src.steal_scans() - before;
                assert!(
                    used <= p as u64 + 2,
                    "p={p}: drained next() took {used} scans"
                );
            }
        }
    }

    #[test]
    fn fetch_add_source_matches_core_self_sched() {
        let src = FetchAddSource::new(100, 1);
        let sched = SelfSched::new();
        let mut core = sched.begin_loop(100, 4);
        loop {
            match (src.next(0), core.next(0)) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.range, b.range);
                    assert_eq!(a.access, AccessKind::Central);
                    assert_eq!(a.queue, 0);
                }
                (None, None) => break,
                (a, b) => panic!("divergence: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn fetch_add_chunked_covers_exactly_once_concurrently() {
        use std::sync::atomic::AtomicU8;
        for chunk in [1u64, 7, 16] {
            let n = 10_000u64;
            let src = FetchAddSource::new(n, chunk);
            let seen: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
            std::thread::scope(|s| {
                for w in 0..8 {
                    let src = &src;
                    let seen = &seen;
                    s.spawn(move || {
                        while let Some(g) = src.next(w) {
                            assert!(g.range.len() <= chunk);
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

    #[test]
    fn static_source_one_grab_per_worker() {
        let src = StaticSource::new(100, 4);
        let g = src.next(2).unwrap();
        assert_eq!(g.range, afs_core::chunking::static_partition(100, 4, 2));
        assert!(src.next(2).is_none());
        assert_eq!(g.access, AccessKind::Free);
    }

    #[test]
    fn afs_source_empty_loop() {
        let src = AfsSource::new(0, 4, 4);
        for w in 0..4 {
            assert!(src.next(w).is_none());
        }
    }
}
