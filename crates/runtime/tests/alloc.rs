//! Allocation regression test for the fused phase boundary.
//!
//! The paper's applications run one parallel loop thousands of times inside
//! a sequential loop, so whatever a phase boundary allocates is multiplied
//! by the phase count — and happens inside the barrier's serial turn, with
//! every other worker waiting. The contract pinned here, with a counting
//! `#[global_allocator]` (hence a test binary of its own, and one `#[test]`
//! so nothing else allocates while a region is measured):
//!
//! * under AFS the region's source is re-armed in place, so a nest's heap
//!   allocations and retained bytes do not depend on its phase count at
//!   all — zero per phase;
//! * the adaptive policy re-arms the same way and its controller reads the
//!   counter slots without a per-phase buffer, so its allocation count
//!   does not grow with the phase count either — up to P × log₂ of the
//!   grab-ahead cap: a worker's stash reallocates when the controller
//!   raises b past its capacity within a region, at most once a doubling;
//! * every other policy may allocate per phase (it builds a source), but
//!   drops the old source first, so what a region *retains* is bounded by a
//!   constant however many phases it runs.

use afs_runtime::prelude::*;
use afs_runtime::source::MAX_GRAB_AHEAD;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every allocation and tracks live bytes and their high-water mark.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every request unchanged to `System`; the bookkeeping around
// it only touches atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: u64 = 256;

/// What one region cost the heap: allocations made, and the most bytes it
/// ever held above the level it started at.
#[derive(Debug, PartialEq, Eq)]
struct Usage {
    allocs: usize,
    retained: usize,
}

fn measure(pool: &Pool, policy: &RuntimeScheduler, phases: usize) -> Usage {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let m = parallel_phases(pool, phases, |_| N, policy, |_, _| {});
    let usage = Usage {
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs,
        retained: PEAK.load(Ordering::Relaxed) - live,
    };
    assert_eq!(m.total_iters(), N * phases as u64, "{}", policy.name());
    usage
}

#[test]
fn phase_boundaries_retain_nothing_and_afs_allocates_nothing() {
    let pool = Pool::new(2);
    let p = pool.workers();
    // (policy, whether its regions must be allocation-free per phase,
    // how many more allocations 4096 phases may make than 64).
    let policies = [
        (RuntimeScheduler::afs_k_equals_p(), true, Some(0)),
        (RuntimeScheduler::afs_tuned(1, 4), true, Some(0)),
        (
            RuntimeScheduler::adaptive(2),
            false,
            Some(p * MAX_GRAB_AHEAD.ilog2() as usize),
        ),
        (RuntimeScheduler::afs_last_exec(), false, None),
        (RuntimeScheduler::static_partition(), false, None),
        (RuntimeScheduler::self_sched(), false, None),
        (RuntimeScheduler::gss(), false, None),
    ];
    for (policy, rearmed, alloc_slack) in &policies {
        // Lazy one-time state (thread-locals, stash blocks) is not the
        // phase path's.
        measure(&pool, policy, 64);
        let short = measure(&pool, policy, 64);
        let long = measure(&pool, policy, 4096);
        let name = policy.name();
        if let Some(slack) = alloc_slack {
            assert!(
                long.allocs <= short.allocs + slack,
                "{name}: {} allocations over 4096 phases against {} over 64",
                long.allocs,
                short.allocs
            );
        }
        if *rearmed {
            assert_eq!(
                short, long,
                "{name}: a re-armed region's heap use must not depend on its phase count"
            );
        }
        // 64x the phases, a constant's worth of memory: on a driver that
        // keeps every phase's source until the region ends this ratio is
        // ~64 (the slack absorbs which worker frees before which allocates).
        assert!(
            long.retained <= 4 * short.retained,
            "{name}: retained {} bytes over 4096 phases against {} over 64",
            long.retained,
            short.retained
        );
    }
}
