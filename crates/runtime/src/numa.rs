//! First-touch NUMA placement for worker-owned memory.
//!
//! Linux places an anonymous page on the node of the CPU that **first
//! writes** it, not the one that allocated it. A grid built naively by the
//! coordinator therefore lands entirely on the coordinator's node, and
//! every remote worker pays the paper's "non-local data" penalty on every
//! access — the very cost AFS schedules to avoid. [`NumaAlloc`] keeps a
//! zero-initialized allocation *untouched* (large `alloc_zeroed` requests
//! are served by fresh `mmap` zero pages, which stay unmapped until the
//! first write), hands each worker its own partition to fault in from its
//! pinned core, and only then releases the memory as an ordinary `Vec`.
//!
//! The touch pass writes zeros **through per-page atomic stores**, so even
//! a sloppy caller handing overlapping ranges to two workers is race-free
//! — the write exists purely to trigger the page fault on the right core.
//!
//! Granularity caveat (see DESIGN.md §13): placement is per *page*, so
//! only structures at least a page per worker benefit. Grid rows qualify;
//! the pool's per-worker queue words / ack slots / counter blocks are
//! 128-byte `CachePadded` slots that share pages by construction — for
//! those, the touch pass is a cheap warm-up, not real placement, and the
//! padded layout (no false sharing) is what actually bounds their cost.

use crate::pool::Pool;
use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::sync::atomic::{AtomicU8, Ordering};

/// Types an all-zero byte pattern validly inhabits, so a freshly zeroed
/// allocation can be released as an initialized `Vec<T>`.
///
/// # Safety
/// Implementors must be `Copy` types for which the all-zero bit pattern is
/// a valid value (no references, no niches).
pub unsafe trait ZeroInit: Copy + Send + Sync + 'static {}

// SAFETY: the all-zero pattern is a valid value of every type below.
unsafe impl ZeroInit for u8 {}
// SAFETY: as above.
unsafe impl ZeroInit for u16 {}
// SAFETY: as above.
unsafe impl ZeroInit for u32 {}
// SAFETY: as above.
unsafe impl ZeroInit for u64 {}
// SAFETY: as above.
unsafe impl ZeroInit for usize {}
// SAFETY: as above.
unsafe impl ZeroInit for i32 {}
// SAFETY: as above.
unsafe impl ZeroInit for i64 {}
// SAFETY: 0.0f32 is all-zero.
unsafe impl ZeroInit for f32 {}
// SAFETY: 0.0f64 is all-zero.
unsafe impl ZeroInit for f64 {}

/// Page stride used by the touch pass. 4 KiB is the smallest page size on
/// every target we run on; touching at 4 KiB stride also covers larger
/// pages (every large page contains a touched 4 KiB offset).
const TOUCH_STRIDE: usize = 4096;

/// A zero-initialized, *not yet faulted-in* allocation of `len` `T`s.
///
/// Created by the coordinator, touched by the workers, then converted into
/// a `Vec<T>` whose pages live where their owners faulted them in.
pub struct NumaAlloc<T: ZeroInit> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: the raw pointer is only written through per-byte atomic stores
// (`touch`) until `into_vec` takes unique ownership, so sharing the handle
// across worker threads is race-free.
unsafe impl<T: ZeroInit> Send for NumaAlloc<T> {}
// SAFETY: as above.
unsafe impl<T: ZeroInit> Sync for NumaAlloc<T> {}

impl<T: ZeroInit> NumaAlloc<T> {
    /// Allocates `len` zeroed elements without touching any page.
    pub fn zeroed(len: usize) -> NumaAlloc<T> {
        if len == 0 || std::mem::size_of::<T>() == 0 {
            return NumaAlloc {
                ptr: std::ptr::NonNull::dangling().as_ptr(),
                len,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (checked above).
        let ptr = unsafe { alloc_zeroed(layout) } as *mut T;
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        NumaAlloc { ptr, len }
    }

    fn layout(len: usize) -> Layout {
        Layout::array::<T>(len).expect("allocation size overflows")
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the allocation is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Faults in the pages backing elements `lo..hi` from the calling
    /// thread: one atomic zero-store per page. Call from the worker that
    /// owns the range, pinned to its core, so the kernel's first-touch
    /// policy places those pages on the worker's node. Overlapping ranges
    /// from concurrent callers are race-free (the stores are atomic and
    /// write the value the memory already holds).
    pub fn touch(&self, lo: usize, hi: usize) {
        let hi = hi.min(self.len);
        if lo >= hi || std::mem::size_of::<T>() == 0 {
            return;
        }
        let bytes_lo = lo * std::mem::size_of::<T>();
        let bytes_hi = hi * std::mem::size_of::<T>();
        let base = self.ptr as *mut u8;
        let mut at = bytes_lo;
        while at < bytes_hi {
            // SAFETY: `at < bytes_hi ≤ len·size_of::<T>()`, inside the
            // allocation; AtomicU8 has no alignment requirement beyond 1.
            let slot = unsafe { &*(base.add(at) as *const AtomicU8) };
            slot.store(0, Ordering::Relaxed);
            at += TOUCH_STRIDE;
        }
        // The last page of the range may start after the final stride step.
        // SAFETY: bytes_hi - 1 is in bounds (hi > lo ≥ 0 ⇒ bytes_hi ≥ 1).
        let last = unsafe { &*(base.add(bytes_hi - 1) as *const AtomicU8) };
        last.store(0, Ordering::Relaxed);
    }

    /// Releases the (now placed) memory as an ordinary zeroed `Vec<T>`.
    pub fn into_vec(self) -> Vec<T> {
        let me = std::mem::ManuallyDrop::new(self);
        if me.len == 0 || std::mem::size_of::<T>() == 0 {
            let mut v = Vec::new();
            // SAFETY: `T: ZeroInit` guarantees the all-zero bit pattern is
            // a valid `T` (and a zero-sized `T` has no bits at all).
            v.resize(me.len, unsafe { std::mem::zeroed() });
            return v;
        }
        // SAFETY: the allocation came from the global allocator with
        // exactly `Layout::array::<T>(len)` — the layout `Vec` expects for
        // length == capacity == len — and `ZeroInit` guarantees the zeroed
        // contents are valid `T`s.
        unsafe { Vec::from_raw_parts(me.ptr, me.len, me.len) }
    }
}

impl<T: ZeroInit> Drop for NumaAlloc<T> {
    fn drop(&mut self) {
        if self.len > 0 && std::mem::size_of::<T>() > 0 {
            // SAFETY: allocated in `zeroed` with the same layout; `T` is
            // `Copy`, so elements need no dropping.
            unsafe { dealloc(self.ptr as *mut u8, Self::layout(self.len)) };
        }
    }
}

/// Allocates a zeroed `Vec<T>` whose pages are first-touched by the pool's
/// workers: worker `w` faults in the contiguous share `w·len/p ..
/// (w+1)·len/p` — the same static split the schedulers use to seed
/// per-worker queues, so under AFS/STATIC each worker's iterations read
/// and write pages its own core placed.
pub fn first_touch_vec<T: ZeroInit>(pool: &Pool, len: usize) -> Vec<T> {
    let alloc = NumaAlloc::<T>::zeroed(len);
    let p = pool.workers();
    pool.run(|w| {
        alloc.touch(len * w / p, len * (w + 1) / p);
    });
    alloc.into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_alloc_roundtrips_to_vec() {
        let a = NumaAlloc::<u64>::zeroed(1000);
        a.touch(0, 1000);
        let v = a.into_vec();
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&x| x == 0));
    }

    #[test]
    fn untouched_alloc_still_reads_zero() {
        // Touching is an optimization, never a requirement.
        let v = NumaAlloc::<f64>::zeroed(64).into_vec();
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn empty_alloc_is_fine() {
        let a = NumaAlloc::<u32>::zeroed(0);
        assert!(a.is_empty());
        a.touch(0, 0);
        assert_eq!(a.into_vec().len(), 0);
    }

    #[test]
    fn dropping_without_conversion_leaks_nothing() {
        // Exercised under the test allocator / sanitizers in CI: dealloc
        // path must match the alloc layout.
        let a = NumaAlloc::<u8>::zeroed(10_000);
        a.touch(0, 10_000);
        drop(a);
    }

    #[test]
    fn touch_clamps_out_of_range() {
        let a = NumaAlloc::<u8>::zeroed(10);
        a.touch(5, 1_000_000); // hi clamps to len
        a.touch(20, 30); // fully out of range: no-op
        assert_eq!(a.into_vec().len(), 10);
    }

    #[test]
    fn first_touch_vec_partitions_across_workers() {
        let pool = Pool::new(4);
        let v: Vec<u64> = first_touch_vec(&pool, 4096);
        assert_eq!(v.len(), 4096);
        assert!(v.iter().all(|&x| x == 0));
    }

    #[test]
    fn concurrent_overlapping_touches_are_race_free() {
        let a = NumaAlloc::<u64>::zeroed(100_000);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| a.touch(0, 100_000));
            }
        });
        assert!(a.into_vec().iter().all(|&x| x == 0));
    }
}
