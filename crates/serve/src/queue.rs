//! The bounded lock-free MPMC admission queue (Vyukov's array ring).
//!
//! Admission is the server's front door: many client threads push, the
//! dispatcher (and, in manual mode, test drivers) pop. The queue must
//! refuse work *immediately* when full — backpressure is a first-class
//! outcome ([`crate::Admit::Shed`]), not an error — so the classic
//! Vyukov bounded ring fits exactly: each slot carries a sequence number,
//! producers and consumers claim slots with one CAS on their own cursor,
//! and a producer that observes a lagging sequence knows the ring is full
//! without touching the consumer cursor's cache line.
//!
//! Per-slot protocol (capacity `C`, power of two): slot `i` starts with
//! `seq = i`. A producer claiming position `pos` requires `seq == pos`,
//! writes the value, then publishes `seq = pos + 1`. A consumer at `pos`
//! requires `seq == pos + 1`, takes the value, then recycles
//! `seq = pos + C`. The sequence is therefore both the handshake (has the
//! counterpart finished?) and the full/empty test (`seq < pos` ⇒ the ring
//! has wrapped onto an unconsumed slot ⇒ full).

use afs_metrics::CachePadded;
use afs_runtime::inject::YieldInject;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One ring slot: the handshake word and the (possibly uninitialized)
/// value it guards.
struct Slot<T> {
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded lock-free multi-producer multi-consumer queue.
///
/// `push` fails fast (returning the value) when the ring is full — the
/// caller sheds. Capacity is rounded up to a power of two, minimum 2.
pub struct MpmcQueue<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    /// Producer cursor: next position to claim for enqueue.
    tail: CachePadded<AtomicUsize>,
    /// Consumer cursor: next position to claim for dequeue.
    head: CachePadded<AtomicUsize>,
    inject: Option<YieldInject>,
}

// SAFETY: values are moved in and out through the per-slot sequence
// handshake (Release publish / Acquire observe), which transfers
// ownership of the `UnsafeCell` contents between threads exactly once.
unsafe impl<T: Send> Send for MpmcQueue<T> {}
// SAFETY: same handshake — a shared `&MpmcQueue` only ever moves whole `T`s
// across threads (never hands out `&T`), so `T: Send` is the full bound.
unsafe impl<T: Send> Sync for MpmcQueue<T> {}

impl<T> MpmcQueue<T> {
    /// A queue holding up to `capacity` items (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot<T>]> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots,
            mask: cap - 1,
            tail: CachePadded::new(AtomicUsize::new(0)),
            head: CachePadded::new(AtomicUsize::new(0)),
            inject: None,
        }
    }

    /// Enables deterministic yield injection at the CAS race windows.
    /// Seeded interleaving stress tests only; not part of the stable API.
    #[doc(hidden)]
    pub fn with_yield_injection(mut self, seed: u64) -> Self {
        self.inject = Some(YieldInject::new(seed));
        self
    }

    /// The usable capacity (power of two ≥ the requested capacity).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether the queue currently looks empty. Racy by nature — exact
    /// only as a quiescence check when producers have stopped. It compares
    /// the *claim* cursors, so it turns false as soon as a producer's tail
    /// CAS lands, possibly before that item can be popped: a consumer
    /// about to go to sleep may rely on `false` meaning "an item is on
    /// its way", never on `true` meaning more than "none was claimed yet".
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::SeqCst) == self.tail.load(Ordering::SeqCst)
    }

    #[inline]
    fn inject_point(&self) {
        if let Some(inj) = &self.inject {
            inj.maybe_yield();
        }
    }

    /// Enqueues `val`, or returns it when the ring is full (the caller
    /// sheds). Lock-free: a stalled producer can delay consumers of its
    /// own slot only.
    pub fn push(&self, val: T) -> Result<(), T> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            self.inject_point();
            if seq == pos {
                // Slot is free for this position; claim it by advancing
                // the producer cursor. SeqCst on success: this CAS is the
                // event the server's idle dispatcher waits for — its last
                // look before sleeping is `is_empty` (SeqCst loads), and
                // `admit` notifies after this CAS — so the claim must sit
                // in the eventcount's total order (`afs_runtime::wait`).
                // Same `lock cmpxchg` as Relaxed on x86.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the successful CAS makes this thread the
                        // unique producer for `pos`; no reader touches the
                        // cell until the Release store below.
                        unsafe { (*slot.val.get()).write(val) };
                        self.inject_point();
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(now) => pos = now,
                }
            } else if (seq.wrapping_sub(pos) as isize) < 0 {
                // The slot still holds an unconsumed value from one lap
                // ago: the ring is full right now. Fail fast — admission
                // control wants the refusal, not a wait.
                return Err(val);
            } else {
                // Another producer claimed `pos`; chase the cursor.
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues the oldest item, or `None` when the queue looks empty.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            self.inject_point();
            let expect = pos.wrapping_add(1);
            if seq == expect {
                match self.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the successful CAS makes this thread the
                        // unique consumer for `pos`; the Acquire load of
                        // `seq` ordered the producer's write before us.
                        let val = unsafe { (*slot.val.get()).assume_init_read() };
                        self.inject_point();
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(val);
                    }
                    Err(now) => pos = now,
                }
            } else if (seq.wrapping_sub(expect) as isize) < 0 {
                // The slot has not been produced for this lap: empty.
                return None;
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }
}

impl<T> Drop for MpmcQueue<T> {
    fn drop(&mut self) {
        // Drain undelivered values so their destructors run.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_threaded() {
        let q = MpmcQueue::new(8);
        for i in 0..8 {
            q.push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_returns_the_value() {
        let q = MpmcQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.push(99), Err(99));
        assert_eq!(q.pop(), Some(0));
        q.push(99).unwrap();
        assert_eq!(q.push(100), Err(100));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(MpmcQueue::<u8>::new(0).capacity(), 2);
        assert_eq!(MpmcQueue::<u8>::new(3).capacity(), 4);
        assert_eq!(MpmcQueue::<u8>::new(1024).capacity(), 1024);
    }

    #[test]
    fn dropping_a_nonempty_queue_drops_the_values() {
        let token = Arc::new(());
        let q = MpmcQueue::new(8);
        for _ in 0..5 {
            q.push(Arc::clone(&token)).unwrap();
        }
        assert_eq!(Arc::strong_count(&token), 6);
        drop(q);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn wraps_many_laps() {
        let q = MpmcQueue::new(4);
        for lap in 0u64..100 {
            for i in 0..4 {
                q.push(lap * 4 + i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(q.pop(), Some(lap * 4 + i));
            }
        }
    }
}
