//! Allocation regression test for the runtime's and the server's steady
//! state.
//!
//! The paper's applications run one parallel loop thousands of times inside
//! a sequential loop, so whatever a phase boundary, a `parallel_for` call or
//! a served request allocates is multiplied by that count — and a phase
//! boundary's share happens inside the barrier's serial turn, with every
//! other worker waiting. The contract pinned here, with a counting
//! `#[global_allocator]` (hence a test binary of its own, and one `#[test]`
//! so nothing else allocates while a region is measured):
//!
//! * under AFS, STATIC and SS the region's source is re-armed in place, so
//!   a nest's heap allocations and retained bytes do not depend on its
//!   phase count at all — zero per phase;
//! * GSS, FACTORING and TRAPEZOID re-arm the same source as SS, its chunk
//!   table drained from a fresh core machine: exactly one allocation per
//!   phase, that machine's box, freed before the phase runs, so what they
//!   retain does not depend on the phase count either;
//! * the adaptive policy re-arms the same way and its controller reads the
//!   counter slots without a per-phase buffer, so its allocation count
//!   does not grow with the phase count either — up to P × log₂ of the
//!   grab-ahead cap: a worker's stash reallocates when the controller
//!   raises b past its capacity within a region, at most once a doubling;
//! * MOD-FACTORING, AFS-LE and `from_core` policies, locked, may allocate
//!   per phase (each builds a source), but drop the old source first, so
//!   what a region *retains* does not grow with its phase count;
//! * a region's source outlives it as the pool's spare, and a served
//!   request's whole region stands in the server, so a steady-state
//!   `parallel_for` and a steady-state served request make a fixed handful
//!   of allocations
//!   (their call sites are named at [`PARALLEL_FOR_ALLOCS`], [`DRAINED_ALLOCS`]
//!   and [`REQUEST_ALLOCS`]) and retain the same bytes however many ran.

use afs_runtime::prelude::*;
use afs_runtime::source::MAX_GRAB_AHEAD;
use afs_serve::{LoopRequest, LoopServer, ServeKernel, ServePolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Allocations one steady-state `parallel_for` makes under AFS, STATIC
/// and SS, P = 2. The source is the pool's spare, re-armed, and
/// `Pool::try_run` lends the workers its closure, boxing nothing. What
/// remains:
/// * 2 — `try_parallel_phases`'s `LoopMetrics::new(p, 0)`: its
///   `per_worker` and `iters_per_worker` vectors, the value returned.
const PARALLEL_FOR_ALLOCS: usize = 2;

/// Allocations a phase of GSS, FACTORING or TRAPEZOID makes beyond SS's:
/// * 1 — the core machine `Scheduler::begin_loop` boxes, drained into the
///   source's retained chunk table and dropped before the phase runs.
const DRAINED_ALLOCS: usize = 1;

/// Allocations one steady-state served request makes: FCFS, P = 2,
/// `ServePolicy::Afs`, `Touch`, n = 64, through a manual server's `admit`,
/// `pump` and `dispatch_next`. The server's standing region is re-armed
/// with its batch refilled and its source kept, and its ticket holds a
/// clone of its one job. What remains:
/// * 1 — `dispatch_next`'s returned `Vec<(usize, u64)>` of the ids that ran
///   (manual mode's API; the dispatcher and an inline admit make none).
const REQUEST_ALLOCS: usize = 1;

/// What a stretch of work cost the heap: allocations made, and the most
/// bytes it ever held above the level it started at.
#[derive(Debug, PartialEq, Eq)]
struct Usage {
    allocs: usize,
    retained: usize,
}

fn measure(work: impl FnOnce()) -> Usage {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    work();
    Usage {
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs,
        retained: PEAK.load(Ordering::Relaxed) - live,
    }
}

fn nest(pool: &Pool, policy: &RuntimeScheduler, phases: usize) -> Usage {
    measure(|| {
        let m = parallel_phases(pool, phases, |_| N, policy, |_, _| {});
        assert_eq!(m.total_iters(), N * phases as u64, "{}", policy.name());
    })
}

fn loops(pool: &Pool, policy: &RuntimeScheduler, calls: usize) -> Usage {
    measure(|| {
        for _ in 0..calls {
            let m = parallel_for(pool, N, policy, |_| {});
            assert_eq!(m.total_iters(), N, "{}", policy.name());
        }
    })
}

fn requests(server: &LoopServer, count: usize) -> Usage {
    let req = LoopRequest {
        tenant: 0,
        kernel: ServeKernel::Touch,
        n: 64,
        phases: 1,
        policy: ServePolicy::Afs,
        deadline: None,
    };
    measure(|| {
        for _ in 0..count {
            assert!(server.admit(req.clone()).is_accepted());
            assert_eq!(server.pump(), 1);
            assert_eq!(server.dispatch_next().len(), 1);
        }
    })
}

#[test]
fn phase_boundaries_retain_nothing_and_afs_allocates_nothing() {
    let pool = Arc::new(Pool::new(2));
    let p = pool.workers();
    // (policy, how many allocations each phase makes when that is exact,
    // how many more allocations 4096 phases may make than 64 otherwise, how
    // many more bytes they may retain). An exact count also pins the
    // retained bytes: they may not depend on the phase count. The byte
    // slack bounds state whose size depends on timing: the adaptive
    // controller may raise b past a stash's capacity, and AFS-LE's queues
    // and history hold at most one range per iteration, in vectors at most
    // twice their length.
    let stash = p * MAX_GRAB_AHEAD * std::mem::size_of::<afs_core::policy::Grab>();
    let history = 4 * N as usize * std::mem::size_of::<afs_core::range::IterRange>();
    let policies = [
        (RuntimeScheduler::afs_k_equals_p(), Some(0), None, 0),
        (RuntimeScheduler::afs_tuned(1, 4), Some(0), None, 0),
        (RuntimeScheduler::static_partition(), Some(0), None, 0),
        (RuntimeScheduler::self_sched(), Some(0), None, 0),
        (RuntimeScheduler::gss(), Some(DRAINED_ALLOCS), None, 0),
        (RuntimeScheduler::factoring(), Some(DRAINED_ALLOCS), None, 0),
        (RuntimeScheduler::trapezoid(), Some(DRAINED_ALLOCS), None, 0),
        (
            RuntimeScheduler::adaptive(2),
            None,
            Some(p * MAX_GRAB_AHEAD.ilog2() as usize),
            stash,
        ),
        (RuntimeScheduler::afs_last_exec(), None, None, history),
        (RuntimeScheduler::mod_factoring(), None, None, 0),
    ];
    for (policy, per_phase, alloc_slack, growth) in &policies {
        // Lazy one-time state (thread-locals, stash blocks) is not the
        // phase path's, and the first region of a kind builds the spare.
        nest(&pool, policy, 64);
        let short = nest(&pool, policy, 64);
        let long = nest(&pool, policy, 4096);
        let name = policy.name();
        if let Some(slack) = alloc_slack {
            assert!(
                long.allocs <= short.allocs + slack,
                "{name}: {} allocations over 4096 phases against {} over 64",
                long.allocs,
                short.allocs
            );
        }
        if let Some(per_phase) = per_phase {
            let more = Usage {
                allocs: short.allocs + per_phase * (4096 - 64),
                retained: short.retained,
            };
            assert_eq!(
                long, more,
                "{name}: a re-armed region's allocations per phase, and its bytes retained"
            );
        }
        // 64x the phases, the same memory: a driver that kept every
        // phase's source until the region ended would retain ~64x. The
        // spare source is held before, during and after either region, so
        // it is in neither figure.
        assert!(
            long.retained <= short.retained + growth,
            "{name}: retained {} bytes over 4096 phases against {} over 64",
            long.retained,
            short.retained
        );
    }

    // A steady-state region: the spare source is re-armed, not rebuilt.
    for (policy, drained) in [
        (RuntimeScheduler::afs_k_equals_p(), 0),
        (RuntimeScheduler::static_partition(), 0),
        (RuntimeScheduler::self_sched(), 0),
        (RuntimeScheduler::gss(), DRAINED_ALLOCS),
        (RuntimeScheduler::factoring(), DRAINED_ALLOCS),
        (RuntimeScheduler::trapezoid(), DRAINED_ALLOCS),
    ] {
        loops(&pool, &policy, 50);
        let usage = loops(&pool, &policy, 100);
        assert_eq!(
            usage.allocs,
            100 * (PARALLEL_FOR_ALLOCS + drained),
            "{}: allocations over 100 parallel_for calls",
            policy.name()
        );
    }

    // A steady-state served request: the batch is refilled, its source
    // re-armed.
    let server = LoopServer::builder(Arc::clone(&pool))
        .tenant("t")
        .manual()
        .build();
    requests(&server, 200);
    let short = requests(&server, 1_000);
    let long = requests(&server, 10_000);
    assert_eq!(
        short.allocs,
        1_000 * REQUEST_ALLOCS,
        "allocations per request"
    );
    assert_eq!(
        long.allocs,
        10_000 * REQUEST_ALLOCS,
        "allocations per request"
    );
    assert_eq!(
        short.retained, long.retained,
        "bytes retained after 1 000 requests and after 10 000"
    );
}
