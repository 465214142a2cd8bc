//! Parallel loop execution: `parallel_for` and multi-phase regions.
//!
//! # Panic safety
//!
//! Every loop body runs under `catch_unwind`: a panicking iteration marks
//! the region failed (first panic wins) but never tears down the pool. The
//! panicking worker itself survives — it resumes grabbing right after the
//! poisoned iteration — and what happens to the *remaining* iterations is
//! the pool's [`crate::fault::PanicPolicy`]: `Drain` (default) executes
//! every non-panicking iteration exactly once; `SkipRemaining` stops
//! grabbing new chunks and skips later phases. Either way every worker
//! still arrives at every barrier generation, so the rendezvous can never
//! deadlock, and the [`crate::fault::PhaseError`] — worker id, phase,
//! payload — comes back from [`try_parallel_for`] / [`try_parallel_phases`]
//! (the non-`try` forms re-raise it via `resume_unwind`).

use crate::adapt::AdaptController;
use crate::fault::{FaultPlan, PanicPolicy, PhaseError};
use crate::pool::Pool;
use crate::source::{AfsSource, FetchAddSource, LockedSource, StaticSource, WorkSource};
use crate::source_le::{AfsLeSource, LeHistory};
use crate::sync::Mutex;
use afs_core::metrics::LoopMetrics;
use afs_core::policy::{Grab, Scheduler};
use afs_core::schedulers::affinity::KParam;
use afs_metrics::{MetricsRegistry, WorkerCounters};
use afs_trace::{EventKind, TraceSink};
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A scheduling policy usable by the runtime.
///
/// Most policies wrap the corresponding `afs-core` scheduler; AFS and STATIC
/// get dedicated concurrent implementations (per-worker queues and a
/// lock-free partition respectively) because avoiding a shared lock is their
/// defining property.
pub struct RuntimeScheduler {
    kind: Kind,
}

enum Kind {
    /// Drive any core scheduler under its (single) queue lock.
    Locked(Box<dyn Scheduler>),
    /// A strictly-monotone central counter (SS and fixed-size chunking):
    /// one `fetch_add` per grab, no lock.
    FetchAdd { chunk: u64 },
    /// Distributed AFS; `ahead` local chunks are claimed per CAS (1 =
    /// plain AFS, see `AfsSource::with_grab_ahead`).
    Afs { k: KParam, ahead: usize },
    /// Distributed AFS, "last executed" assignment (§4.3).
    AfsLe {
        k: KParam,
        history: std::sync::Arc<LeHistory>,
    },
    /// Distributed AFS whose subdivision k and grab-ahead b are re-tuned
    /// at every phase boundary by an [`AdaptController`] reading the
    /// pool's counter deltas.
    Adaptive(Arc<AdaptController>),
    /// Lock-free static partition.
    Static,
}

/// One phase's work source. AFS keeps its concrete type so the next phase
/// can re-arm it in place; every other policy's is type-erased, and replaced.
enum PhaseSource<'a> {
    Afs(Box<AfsSource>),
    Other(Box<dyn WorkSource + Send + 'a>),
}

impl<'a> PhaseSource<'a> {
    fn other(src: impl WorkSource + Send + 'a) -> Self {
        PhaseSource::Other(Box::new(src))
    }

    fn get(&self) -> &dyn WorkSource {
        match self {
            PhaseSource::Afs(src) => &**src,
            PhaseSource::Other(src) => &**src,
        }
    }
}

impl RuntimeScheduler {
    /// AFS with `k = P` (the paper's default configuration).
    pub fn afs_k_equals_p() -> Self {
        Self {
            kind: Kind::Afs {
                k: KParam::EqualsP,
                ahead: 1,
            },
        }
    }

    /// AFS with a fixed local-grab divisor `k`.
    pub fn afs_with_k(k: u64) -> Self {
        assert!(k >= 1);
        Self {
            kind: Kind::Afs {
                k: KParam::Fixed(k),
                ahead: 1,
            },
        }
    }

    /// AFS (`k = P`) with grab-ahead: each local CAS claims up to `batch`
    /// consecutive chunks, amortizing the atomic on fine-grained bodies.
    /// Chunk boundaries, `LoopMetrics`, and the sync-count tables are
    /// unchanged on deterministic drives (see
    /// `AfsSource::with_grab_ahead`).
    pub fn afs_grab_ahead(batch: usize) -> Self {
        Self {
            kind: Kind::Afs {
                k: KParam::EqualsP,
                ahead: batch.clamp(1, crate::source::MAX_GRAB_AHEAD),
            },
        }
    }

    /// AFS with both tuning knobs fixed: local-grab divisor `k` and
    /// grab-ahead `batch`. This is one *static* cell of the (k, b) grid
    /// the adaptive policy searches — the bench harness sweeps these to
    /// establish the envelope [`RuntimeScheduler::adaptive`] must land in.
    pub fn afs_tuned(k: u64, batch: usize) -> Self {
        assert!(k >= 1);
        Self {
            kind: Kind::Afs {
                k: KParam::Fixed(k),
                ahead: batch.clamp(1, crate::source::MAX_GRAB_AHEAD),
            },
        }
    }

    /// Distributed AFS with "last executed" assignment across loop
    /// executions (the paper's §4.3 extension): migrations performed in one
    /// phase carry over to the next, so persistent imbalance stops causing
    /// repeated work movement. The policy value owns the cross-phase
    /// history; reuse the same value across the phases of one region.
    pub fn afs_last_exec() -> Self {
        Self {
            kind: Kind::AfsLe {
                k: KParam::EqualsP,
                history: std::sync::Arc::new(LeHistory::new()),
            },
        }
    }

    /// Self-tuning AFS for a pool of `p` workers: a fresh
    /// [`AdaptController`] re-tunes the subdivision k (starting at the
    /// paper's k = P) and the grab-ahead b (starting at 1) at every phase
    /// boundary from the pool's always-on counters.
    pub fn adaptive(p: usize) -> Self {
        Self::adaptive_with(Arc::new(AdaptController::new(p)))
    }

    /// Self-tuning AFS driven by a caller-owned controller, so the (k, b)
    /// trajectory can be inspected, seeded via
    /// [`AdaptController::with_initial`], or pinned via
    /// [`AdaptController::freeze`] — and so a serving frontend can share
    /// one controller across many requests.
    pub fn adaptive_with(ctl: Arc<AdaptController>) -> Self {
        Self {
            kind: Kind::Adaptive(ctl),
        }
    }

    /// The adaptive controller, when this is an adaptive policy.
    pub fn controller(&self) -> Option<&Arc<AdaptController>> {
        match &self.kind {
            Kind::Adaptive(ctl) => Some(ctl),
            _ => None,
        }
    }

    /// Lock-free static partitioning.
    pub fn static_partition() -> Self {
        Self { kind: Kind::Static }
    }

    /// Self-scheduling (one iteration per central-queue grab). SS is a
    /// strictly-monotone counter, so the runtime implements it with a
    /// lock-free fetch-and-add — the paper's own realization of SS.
    pub fn self_sched() -> Self {
        Self {
            kind: Kind::FetchAdd { chunk: 1 },
        }
    }

    /// Fixed-size chunking (`chunk` iterations per central grab), also
    /// served by a lock-free fetch-and-add counter.
    pub fn chunk_self(chunk: u64) -> Self {
        assert!(chunk >= 1);
        Self {
            kind: Kind::FetchAdd { chunk },
        }
    }

    /// Guided self-scheduling.
    pub fn gss() -> Self {
        Self::from_core(afs_core::schedulers::Gss::new())
    }

    /// Factoring.
    pub fn factoring() -> Self {
        Self::from_core(afs_core::schedulers::Factoring::new())
    }

    /// Trapezoid self-scheduling.
    pub fn trapezoid() -> Self {
        Self::from_core(afs_core::schedulers::Trapezoid::new())
    }

    /// Modified factoring (affinity-aware chunk preference).
    pub fn mod_factoring() -> Self {
        Self::from_core(afs_core::schedulers::ModFactoring::new())
    }

    /// Any `afs-core` scheduler, driven under a single queue lock.
    pub fn from_core(sched: impl Scheduler + 'static) -> Self {
        Self {
            kind: Kind::Locked(Box::new(sched)),
        }
    }

    /// An OpenMP-style clause: `"static"`, `"static,c"`, `"dynamic"`,
    /// `"dynamic,c"`, `"guided"`, `"guided,c"`, or `"auto"` (→ AFS).
    /// Returns `None` for unrecognized clauses.
    pub fn omp(clause: &str) -> Option<Self> {
        let parsed = afs_core::omp::OmpSchedule::parse(clause)?;
        Some(match parsed {
            afs_core::omp::OmpSchedule::Static => Self::static_partition(),
            afs_core::omp::OmpSchedule::Auto => Self::afs_k_equals_p(),
            afs_core::omp::OmpSchedule::Dynamic => Self::self_sched(),
            afs_core::omp::OmpSchedule::DynamicChunk { chunk } => Self::chunk_self(chunk),
            other => Self::from_core(other.scheduler()),
        })
    }

    /// Policy name for reports.
    pub fn name(&self) -> String {
        match &self.kind {
            Kind::Locked(s) => s.name(),
            Kind::FetchAdd { chunk: 1 } => "SS".into(),
            Kind::FetchAdd { chunk } => format!("CSS({chunk})"),
            Kind::Afs {
                k: KParam::EqualsP,
                ahead: 1,
            } => "AFS".into(),
            Kind::Afs {
                k: KParam::EqualsP,
                ahead,
            } => format!("AFS(ga={ahead})"),
            Kind::Afs {
                k: KParam::Fixed(k),
                ahead: 1,
            } => format!("AFS(k={k})"),
            Kind::Afs {
                k: KParam::Fixed(k),
                ahead,
            } => format!("AFS(k={k},ga={ahead})"),
            Kind::AfsLe { .. } => "AFS-LE".into(),
            Kind::Adaptive(_) => "ADAPTIVE".into(),
            Kind::Static => "STATIC".into(),
        }
    }

    /// Arms `slot` with the work source for a phase of `n` iterations. An
    /// AFS source left there by the previous phase is re-armed in place —
    /// same queue words, bases and stashes, no allocation — so the caller
    /// must hold the exclusive phase-boundary window [`AfsSource::rearm`]
    /// requires; any other leftover is dropped *before* its successor is
    /// built, so a region retains one source however many phases it runs.
    /// `lane` is the calling thread's trace lane: the turn-taking worker at
    /// a phase boundary, lane 0 at region setup (on the coordinator, before
    /// the dispatch) where worker 0 is provably idle.
    #[allow(clippy::too_many_arguments)] // one serial call per phase; a struct would just rename the list
    fn arm_source<'a>(
        &'a self,
        slot: &mut Option<PhaseSource<'a>>,
        n: u64,
        p: usize,
        trace: Option<&Arc<TraceSink>>,
        metrics: &Arc<MetricsRegistry>,
        lane: usize,
    ) {
        // Only an AFS source outlives its phase.
        if let Some(PhaseSource::Other(_)) = slot {
            *slot = None;
        }
        let afs = |slot: &mut Option<PhaseSource<'a>>, k: u64, ahead: usize| {
            if let Some(PhaseSource::Afs(src)) = slot {
                return src.rearm(n, k, ahead);
            }
            // The only source with grab-path-private events (CAS retries,
            // stash hits); grab counts themselves are recorded uniformly
            // by `drain_phase`.
            let src = AfsSource::new(n, p, k)
                .with_grab_ahead(ahead)
                .with_metrics(Arc::clone(metrics));
            *slot = Some(PhaseSource::Afs(Box::new(match trace {
                Some(sink) => src.with_trace(Arc::clone(sink)),
                None => src,
            })));
        };
        match &self.kind {
            Kind::Locked(s) => {
                let src = LockedSource::new(s.begin_loop(n, p));
                *slot = Some(PhaseSource::other(match trace {
                    Some(sink) => src.with_trace(Arc::clone(sink)),
                    None => src,
                }));
            }
            Kind::FetchAdd { chunk } => {
                *slot = Some(PhaseSource::other(FetchAddSource::new(n, *chunk)))
            }
            Kind::Afs { k, ahead } => afs(slot, k.resolve(p), *ahead),
            Kind::AfsLe { k, history } => {
                let src = AfsLeSource::new(n, p, k.resolve(p), Arc::clone(history));
                *slot = Some(PhaseSource::other(match trace {
                    Some(sink) => src.with_trace(Arc::clone(sink)),
                    None => src,
                }));
            }
            Kind::Adaptive(ctl) => {
                // Phase boundary: read the finished phase's counter deltas,
                // decide the next phase's (k, b), and surface the controller
                // state to the metrics layer.
                let tune = ctl.observe_registry(metrics);
                metrics.record_sched_tune(tune.k, tune.b as u64, ctl.decisions(), ctl.settled());
                if let (true, Some(sink)) = (tune.changed, trace) {
                    sink.record(
                        lane,
                        EventKind::SchedTune {
                            k: tune.k as u32,
                            b: tune.b as u32,
                        },
                    );
                }
                afs(slot, tune.k, tune.b)
            }
            Kind::Static => *slot = Some(PhaseSource::other(StaticSource::new(n, p))),
        }
    }
}

/// Executes `body(i)` for every `i` in `0..n` on the pool's workers,
/// scheduled by `policy`. Blocks until the loop completes; returns the
/// scheduling metrics.
///
/// `body` must tolerate concurrent invocation for *distinct* iteration
/// indices (each index is passed to exactly one invocation).
///
/// A panicking iteration is re-raised here via `resume_unwind` after the
/// loop winds down cleanly; use [`try_parallel_for`] to receive it as a
/// [`PhaseError`] instead.
pub fn parallel_for<F>(pool: &Pool, n: u64, policy: &RuntimeScheduler, body: F) -> LoopMetrics
where
    F: Fn(u64) + Sync,
{
    match try_parallel_for(pool, n, policy, body) {
        Ok(m) => m,
        Err(e) => std::panic::resume_unwind(e.into_payload()),
    }
}

/// Like [`parallel_for`], but a panicking iteration is returned as
/// `Err(PhaseError)` (worker id + payload) instead of propagating. The
/// pool's [`PanicPolicy`] decides what survivors do with the remaining
/// iterations; the pool remains fully usable either way.
pub fn try_parallel_for<F>(
    pool: &Pool,
    n: u64,
    policy: &RuntimeScheduler,
    body: F,
) -> Result<LoopMetrics, PhaseError>
where
    F: Fn(u64) + Sync,
{
    try_parallel_phases(pool, 1, |_| n, policy, |_, i| body(i))
}

/// Executes a sequence of parallel-loop phases with a barrier between
/// phases (the paper's parallel-loop-inside-sequential-loop structure).
///
/// Phase `ph` has `len_of(ph)` iterations; `body(ph, i)` is invoked exactly
/// once per (phase, iteration). Every phase starts from a fresh scheduler
/// loop-state, so deterministic policies re-create the same assignment
/// each phase — which is what preserves affinity.
///
/// The whole nest is dispatched to the workers **once**, around one work
/// source that lives as long as the region: between phases the workers
/// pass a [`crate::barrier::SenseBarrier`], and the last to arrive re-arms
/// that source for the next phase before releasing the others — in place
/// and allocation-free under AFS; other policies drop it and build anew —
/// so the coordinator thread is out of the per-phase loop entirely.
pub fn parallel_phases<F, L>(
    pool: &Pool,
    phases: usize,
    len_of: L,
    policy: &RuntimeScheduler,
    body: F,
) -> LoopMetrics
where
    F: Fn(usize, u64) + Sync,
    L: Fn(usize) -> u64 + Sync,
{
    match try_parallel_phases(pool, phases, len_of, policy, body) {
        Ok(m) => m,
        Err(e) => std::panic::resume_unwind(e.into_payload()),
    }
}

/// Like [`parallel_phases`], but a panicking phase is returned as
/// `Err(PhaseError)` — carrying the worker id, phase index and panic
/// payload — instead of propagating. See the module docs for the
/// containment protocol.
pub fn try_parallel_phases<F, L>(
    pool: &Pool,
    phases: usize,
    len_of: L,
    policy: &RuntimeScheduler,
    body: F,
) -> Result<LoopMetrics, PhaseError>
where
    F: Fn(usize, u64) + Sync,
    L: Fn(usize) -> u64 + Sync,
{
    fused_phases(pool, phases, &len_of, policy, &body)
}

/// Shared failure state of one parallel region: the first [`PhaseError`]
/// and whether survivors should stop grabbing (`SkipRemaining`, or a
/// driver-internal failure that makes later phases unrunnable).
struct RegionFailure {
    halt: AtomicBool,
    skip_on_panic: bool,
    slot: Mutex<Option<PhaseError>>,
}

impl RegionFailure {
    fn new(policy: PanicPolicy) -> RegionFailure {
        RegionFailure {
            halt: AtomicBool::new(false),
            skip_on_panic: policy == PanicPolicy::SkipRemaining,
            slot: Mutex::new(None),
        }
    }

    /// Records a body panic (first wins); halts the region only under
    /// [`PanicPolicy::SkipRemaining`].
    fn record(&self, worker: usize, phase: usize, payload: Box<dyn std::any::Any + Send>) {
        {
            let mut slot = self.slot.lock();
            if slot.is_none() {
                *slot = Some(PhaseError::new(worker, phase, payload));
            }
        }
        if self.skip_on_panic {
            self.halt.store(true, Ordering::SeqCst);
        }
    }

    /// Runs a driver-internal step — arming `phase`'s work source: the
    /// scheduler's `begin_loop`, the caller's `len_of`, an AFS re-arm —
    /// so that a panic in it becomes the region's error instead of
    /// unwinding through the driver or a barrier turn. Always halts: there
    /// is nothing left to schedule.
    fn guard(&self, worker: usize, phase: usize, step: impl FnOnce()) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(step)) {
            self.record(worker, phase, payload);
            self.halt.store(true, Ordering::SeqCst);
        }
    }

    fn halted(&self) -> bool {
        self.halt.load(Ordering::Relaxed)
    }

    /// The region's result: its first error (arming the pool's flight
    /// recorder on the way out), else the merged metrics.
    fn finish(self, pool: &Pool, total: LoopMetrics) -> Result<LoopMetrics, PhaseError> {
        match self.slot.into_inner() {
            Some(e) => Err(flag_phase_error(pool, e)),
            None => Ok(total),
        }
    }
}

/// Executes one grabbed chunk under `catch_unwind`, returning how many
/// iterations actually ran. On a panic the worker itself survives: the
/// poisoned iteration is recorded into `region` and, under
/// [`PanicPolicy::Drain`], execution resumes at the *next* iteration of the
/// same chunk — so every non-panicking iteration still runs exactly once.
fn run_chunk_guarded<F: Fn(usize, u64) + Sync>(
    worker: usize,
    phase: usize,
    grab: &Grab,
    faults: Option<&FaultPlan>,
    region: &RegionFailure,
    body: &F,
) -> u64 {
    let mut lo = grab.range.start;
    let hi = grab.range.end;
    let mut executed = 0u64;
    while lo < hi {
        let mut done = 0u64;
        let caught = {
            let done = &mut done;
            catch_unwind(AssertUnwindSafe(|| {
                let mut i = lo;
                while i < hi {
                    if let Some(f) = faults {
                        f.maybe_panic(worker, phase, i);
                    }
                    body(phase, i);
                    *done += 1;
                    i += 1;
                }
            }))
        };
        executed += done;
        match caught {
            Ok(()) => break,
            Err(payload) => {
                region.record(worker, phase, payload);
                if region.halted() {
                    // SkipRemaining: the chunk tail is abandoned with the
                    // rest of the region.
                    break;
                }
                // Drain: skip only the iteration that panicked.
                lo = lo + done + 1;
            }
        }
    }
    executed
}

/// Drains `source` on `worker`, recording grabs into the worker's
/// always-on `counters` (and `sink`, when tracing). One phase of one
/// worker. Each grab attempt bumps the worker's
/// heartbeat (the watchdog's liveness signal) and runs the fault hooks when
/// a plan is attached; each chunk executes under [`run_chunk_guarded`], so
/// a body panic is contained here and the worker keeps draining (or stops,
/// per the region's policy) — it always reaches the barrier.
#[inline]
#[allow(clippy::too_many_arguments)] // one call frame per worker-phase; grouping would just rename the list
fn drain_phase<F: Fn(usize, u64) + Sync>(
    worker: usize,
    phase: usize,
    source: &dyn WorkSource,
    counters: &WorkerCounters,
    trace: Option<&Arc<TraceSink>>,
    faults: Option<&FaultPlan>,
    region: &RegionFailure,
    body: &F,
) {
    let mut grabs = 0u64;
    match trace {
        None => {
            // Untraced fast path: no per-grab branches beyond the halt
            // check and the `None` fault plan.
            loop {
                if region.halted() {
                    break;
                }
                counters.record_heartbeat();
                if let Some(f) = faults {
                    f.on_grab(worker, phase, grabs);
                }
                grabs += 1;
                let Some(grab) = source.next(worker) else {
                    break;
                };
                counters.record_access(grab.access);
                let executed = run_chunk_guarded(worker, phase, &grab, faults, region, body);
                counters.record_iters(executed);
            }
        }
        Some(sink) => loop {
            if region.halted() {
                // The region is over for this worker; it heads straight to
                // the barrier, so mark the arrival for span accounting.
                sink.record(worker, EventKind::BarrierArrive);
                break;
            }
            counters.record_heartbeat();
            if let Some(f) = faults {
                f.on_grab(worker, phase, grabs);
            }
            grabs += 1;
            sink.record(worker, EventKind::GrabBegin);
            let Some(grab) = source.next(worker) else {
                // The failed final grab is not a Grab* event; mark the
                // arrival at the end-of-phase barrier (the matching
                // BarrierRelease is recorded when this worker passes it).
                sink.record(worker, EventKind::BarrierArrive);
                break;
            };
            sink.record(worker, EventKind::of_grab(&grab));
            counters.record_access(grab.access);
            let (q, lo, hi) = (grab.queue as u32, grab.range.start, grab.range.end);
            sink.record(worker, EventKind::ChunkStart { queue: q, lo, hi });
            let executed = run_chunk_guarded(worker, phase, &grab, faults, region, body);
            counters.record_iters(executed);
            sink.record(worker, EventKind::ChunkEnd);
        },
    }
}

/// Arms the pool's flight recorder with a contained-panic trigger before
/// the error propagates; the phase that panicked was already recorded, so
/// the dump (written at the next flush point) carries its lead-up.
fn flag_phase_error(pool: &Pool, e: PhaseError) -> PhaseError {
    pool.recorder().trigger(afs_metrics::Trigger::PhaseError {
        worker: e.worker(),
        phase: e.phase(),
    });
    e
}

/// The fused driver's one work source, alive for the whole region. Plain
/// memory, synchronized by the [`crate::barrier::SenseBarrier`]: after
/// region setup it is rewritten only inside the barrier's turn closure (all
/// workers arrived, none released — exclusive by construction) and read
/// only between a release and the reader's next arrival. Every worker's
/// last grab of phase k happens-before its arrival, hence before the turn
/// that re-arms or replaces the source, and that turn happens-before the
/// release every phase-k+1 grab follows — the window
/// [`AfsSource::rearm`] requires. `None` once the region halted: later
/// phases are skipped, but every worker still takes every barrier.
struct RegionSource<'a>(UnsafeCell<Option<PhaseSource<'a>>>);

// SAFETY: see the access protocol above — the barrier orders every rewrite
// exclusively against all reads; the sources themselves are `Sync` for the
// workers sharing them and `Send` for whichever thread's turn replaces them.
unsafe impl Sync for RegionSource<'_> {}

impl<'a> RegionSource<'a> {
    /// The slot; dereferencing it is sound only under the protocol above.
    fn slot(&self) -> *mut Option<PhaseSource<'a>> {
        self.0.get()
    }
}

/// The fused driver: one `Pool::run` for the whole nest; workers chain
/// from phase to phase through a decentralized sense-reversing barrier,
/// the last arriver re-arming the region's source for the next phase (so
/// cross-phase scheduler state such as AFS-LE's history sees every update
/// of the finished phase).
///
/// The returned `LoopMetrics` is derived from the workers' counter slots,
/// the only per-grab record: each worker reads its own slot when its job
/// starts and after its last phase, and credits the difference. The reads
/// happen on the worker because only there are they bounded by this
/// region — callers sharing the pool are serialized by it, so a snapshot
/// the coordinator took before dispatching could include another
/// caller's region. `per_queue` stays empty.
fn fused_phases<F, L>(
    pool: &Pool,
    phases: usize,
    len_of: &L,
    policy: &RuntimeScheduler,
    body: &F,
) -> Result<LoopMetrics, PhaseError>
where
    F: Fn(usize, u64) + Sync,
    L: Fn(usize) -> u64 + Sync,
{
    let p = pool.workers();
    let trace = pool.trace();
    let registry = Arc::clone(pool.metrics());
    let recorder = Arc::clone(pool.recorder());
    let faults = pool.fault_plan().cloned();
    let region = RegionFailure::new(pool.panic_policy());
    let deadline_ns = pool.phase_deadline().map(|d| d.as_nanos() as u64);
    let total = Mutex::new(LoopMetrics::new(p, 0));
    if phases == 0 {
        return Ok(total.into_inner());
    }
    let mut first = None;
    region.guard(0, 0, || {
        policy.arm_source(&mut first, len_of(0), p, trace, &registry, 0)
    });
    if first.is_none() {
        return region.finish(pool, total.into_inner());
    }
    let source = RegionSource(UnsafeCell::new(first));
    let barrier = pool.phase_barrier();
    // Phase boundaries happen inside barrier turn closures (exclusive, all
    // workers arrived), so the turn-taker timestamps them: `prev_ns` holds
    // the region-relative nanosecond of the last boundary, and each phase's
    // duration is the distance between consecutive boundaries. The final
    // phase ends at `pool.run` return, recorded by the coordinator.
    let region_start = Instant::now();
    let prev_ns = AtomicU64::new(0);
    let ran = pool.try_run(|worker| {
        if let Some(f) = &faults {
            f.on_region_start(worker);
        }
        let counters = registry.worker(worker);
        let start = counters.get();
        for phase in 0..phases {
            // SAFETY: the source was armed for `phase` before this worker
            // got here (phase 0 before the pool ran; later phases inside
            // the barrier turn that released this worker) and no one
            // rewrites it until this worker has arrived again.
            let current = unsafe { (*source.slot()).as_ref() }.map(PhaseSource::get);
            if let Some(current) = current {
                // First-touch worker-owned scheduler state (stash heap
                // blocks, queue words) from this worker's core before the
                // first grab — see `WorkSource::warm`.
                current.warm(worker);
                drain_phase(
                    worker,
                    phase,
                    current,
                    counters,
                    trace,
                    faults.as_deref(),
                    &region,
                    body,
                );
            }
            if phase + 1 < phases {
                barrier.arrive_then_as(worker, (phase + 1) as u64, || {
                    let now = region_start.elapsed().as_nanos() as u64;
                    let prev = prev_ns.swap(now, Ordering::Relaxed);
                    registry.phase_hist().record(now - prev);
                    // Turn-exclusive (all arrived, none released): the
                    // canonical once-per-phase point for the black box.
                    recorder.record_phase(phase as u64, now - prev, &registry);
                    if deadline_ns.is_some_and(|d| now - prev > d) {
                        registry.record_deadline_miss();
                    }
                    // SAFETY: the turn closure runs on exactly one worker,
                    // after every worker arrived and before any is
                    // released — exclusive access to the region source.
                    let slot = unsafe { &mut *source.slot() };
                    if !region.halted() {
                        region.guard(worker, phase + 1, || {
                            let n = len_of(phase + 1);
                            policy.arm_source(slot, n, p, trace, &registry, worker)
                        });
                    }
                    // Halted, before this boundary or at it: skip the rest.
                    if region.halted() {
                        *slot = None;
                    }
                });
                if let Some(sink) = trace {
                    sink.record(worker, EventKind::BarrierRelease);
                }
            }
        }
        let done = counters.get().minus(&start);
        let sync = done.sync();
        let mut total = total.lock();
        total.sync.add(&sync);
        total.per_worker[worker] = sync;
        total.iters_per_worker[worker] = done.iters;
    });
    let end_ns = region_start.elapsed().as_nanos() as u64;
    let last_phase_ns = end_ns - prev_ns.load(Ordering::Relaxed);
    registry.phase_hist().record(last_phase_ns);
    recorder.record_phase((phases - 1) as u64, last_phase_ns, &registry);
    if deadline_ns.is_some_and(|d| last_phase_ns > d) {
        registry.record_deadline_miss();
    }
    registry.loop_hist().record(end_ns);
    // Body panics are contained inside drain_phase; an Err here means a
    // panic in the driver itself.
    ran.map_err(|e| flag_phase_error(pool, e))?;
    region.finish(pool, total.into_inner())
}

/// Executes a coalesced loop nest: `body` receives the multi-index of each
/// cell of `nest`, scheduled as one flat loop (the paper's footnote-1
/// transformation, mechanized by [`afs_core::nest::LoopNest`]).
///
/// The index buffer passed to `body` is per-call scratch; copy out what you
/// need.
pub fn parallel_nest<F>(
    pool: &Pool,
    nest: &afs_core::nest::LoopNest,
    policy: &RuntimeScheduler,
    body: F,
) -> LoopMetrics
where
    F: Fn(&[u64]) + Sync,
{
    let dims = nest.dims();
    parallel_for(pool, nest.len(), policy, |flat| {
        let mut idx = [0u64; 8];
        if dims <= 8 {
            nest.unflatten_into(flat, &mut idx[..dims]);
            body(&idx[..dims]);
        } else {
            let mut big = vec![0u64; dims];
            nest.unflatten_into(flat, &mut big);
            body(&big);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

    fn all_policies() -> Vec<RuntimeScheduler> {
        vec![
            RuntimeScheduler::static_partition(),
            RuntimeScheduler::self_sched(),
            RuntimeScheduler::gss(),
            RuntimeScheduler::factoring(),
            RuntimeScheduler::trapezoid(),
            RuntimeScheduler::mod_factoring(),
            RuntimeScheduler::afs_k_equals_p(),
            RuntimeScheduler::afs_with_k(2),
            RuntimeScheduler::afs_last_exec(),
            RuntimeScheduler::adaptive(4),
            RuntimeScheduler::from_core(afs_core::schedulers::ChunkSelf::new(8)),
            RuntimeScheduler::from_core(afs_core::schedulers::AdaptiveGss::new()),
        ]
    }

    #[test]
    fn every_policy_executes_each_iteration_once() {
        let pool = Pool::new(4);
        for policy in all_policies() {
            let n = 2000u64;
            let counts: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
            let m = parallel_for(&pool, n, &policy, |i| {
                counts[i as usize].fetch_add(1, Ordering::SeqCst);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                "{}: some iteration not executed exactly once",
                policy.name()
            );
            assert_eq!(m.total_iters(), n, "{}", policy.name());
        }
    }

    #[test]
    fn metrics_match_algorithm_shape() {
        let pool = Pool::new(4);
        // SS does exactly n central grabs.
        let m = parallel_for(&pool, 500, &RuntimeScheduler::self_sched(), |_| {});
        assert_eq!(m.sync.central, 500);
        // STATIC does no synchronized grabs.
        let m = parallel_for(&pool, 500, &RuntimeScheduler::static_partition(), |_| {});
        assert_eq!(m.sync.synchronized(), 0);
        // AFS: local grabs dominate.
        let m = parallel_for(&pool, 5000, &RuntimeScheduler::afs_k_equals_p(), |_| {});
        assert!(m.sync.local > 0);
        assert!(m.sync.central == 0);
    }

    #[test]
    fn phases_run_in_order_with_barriers() {
        let pool = Pool::new(4);
        let log = Mutex::new(Vec::new());
        parallel_phases(
            &pool,
            5,
            |_| 16,
            &RuntimeScheduler::gss(),
            |ph, _i| {
                log.lock().push(ph);
            },
        );
        let log = log.into_inner();
        assert_eq!(log.len(), 80);
        // Phases never interleave: the sequence is non-decreasing.
        assert!(log.windows(2).all(|w| w[0] <= w[1]), "phases interleaved");
    }

    #[test]
    fn varying_phase_lengths() {
        let pool = Pool::new(3);
        let total = AtomicU64::new(0);
        let m = parallel_phases(
            &pool,
            4,
            |ph| [10u64, 0, 7, 100][ph],
            &RuntimeScheduler::factoring(),
            |_, _| {
                total.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(total.load(Ordering::Relaxed), 117);
        assert_eq!(m.total_iters(), 117);
    }

    #[test]
    fn afs_imbalanced_body_triggers_steals() {
        let pool = Pool::new(4);
        // Iterations 0..250 are slow (worker 0's queue): others must steal.
        let m = parallel_for(&pool, 1000, &RuntimeScheduler::afs_k_equals_p(), |i| {
            if i < 250 {
                std::hint::black_box((0..30_000u64).sum::<u64>());
            }
        });
        assert!(
            m.sync.remote > 0,
            "imbalance should force remote grabs: {:?}",
            m.sync
        );
    }

    #[test]
    fn omp_clauses_map_to_policies() {
        let pool = Pool::new(4);
        for clause in [
            "static",
            "static,16",
            "dynamic",
            "dynamic,8",
            "guided",
            "guided,4",
            "auto",
        ] {
            let policy = RuntimeScheduler::omp(clause)
                .unwrap_or_else(|| panic!("clause {clause} should parse"));
            let counts = AtomicU64::new(0);
            parallel_for(&pool, 777, &policy, |_| {
                counts.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counts.load(Ordering::Relaxed), 777, "{clause}");
        }
        assert!(RuntimeScheduler::omp("runtime").is_none());
        assert_eq!(RuntimeScheduler::omp("auto").unwrap().name(), "AFS");
    }

    #[test]
    fn nest_covers_every_cell_once() {
        let pool = Pool::new(4);
        let nest = afs_core::nest::LoopNest::new(&[9, 7, 5]);
        let counts: Vec<AtomicU8> = (0..nest.len()).map(|_| AtomicU8::new(0)).collect();
        let m = parallel_nest(&pool, &nest, &RuntimeScheduler::afs_k_equals_p(), |idx| {
            assert_eq!(idx.len(), 3);
            let flat = idx[0] * 35 + idx[1] * 5 + idx[2];
            counts[flat as usize].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        assert_eq!(m.total_iters(), 9 * 7 * 5);
    }

    #[test]
    fn single_worker_runs_everything() {
        let pool = Pool::new(1);
        let total = AtomicU64::new(0);
        for policy in all_policies() {
            total.store(0, Ordering::SeqCst);
            parallel_for(&pool, 100, &policy, |_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(total.load(Ordering::SeqCst), 100, "{}", policy.name());
        }
    }

    #[test]
    fn adaptive_ticks_once_per_phase_and_covers_every_iteration() {
        let pool = Pool::new(4);
        let policy = RuntimeScheduler::adaptive(4);
        let ctl = Arc::clone(policy.controller().unwrap());
        let phases = 6usize;
        let n = 512u64;
        let counts: Vec<AtomicU8> = (0..n as usize * phases).map(|_| AtomicU8::new(0)).collect();
        let m = parallel_phases(
            &pool,
            phases,
            |_| n,
            &policy,
            |ph, i| {
                counts[ph * n as usize + i as usize].fetch_add(1, Ordering::SeqCst);
            },
        );
        assert!(
            counts.iter().all(|c| c.load(Ordering::SeqCst) == 1),
            "adaptive dropped or duplicated iterations"
        );
        assert_eq!(m.total_iters(), n * phases as u64);
        // One controller observation per phase (region setup, then every
        // boundary's re-arm).
        assert_eq!(ctl.phases(), phases as u64);
        // The decision is surfaced through the pool's metrics snapshot.
        let sched = pool
            .metrics()
            .snapshot()
            .controllers
            .expect("adaptive runs must publish controller state")
            .sched
            .expect("sched block present");
        let (k, b) = ctl.current();
        assert_eq!(sched.k, k);
        assert_eq!(sched.b, b as u64);
    }

    #[test]
    fn adaptive_survives_pool_size_changes_and_varying_lengths() {
        // One policy value reused across pools of different widths: each
        // region builds its source for its own pool, and re-arms it across
        // phases of different lengths without losing work.
        let policy = RuntimeScheduler::adaptive(4);
        for p in [4usize, 2, 1] {
            let pool = Pool::new(p);
            let total = AtomicU64::new(0);
            let m = parallel_phases(
                &pool,
                4,
                |ph| [97u64, 0, 1024, 3][ph],
                &policy,
                |_, _| {
                    total.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(total.load(Ordering::Relaxed), 1124, "p={p}");
            assert_eq!(m.total_iters(), 1124, "p={p}");
        }
    }

    type EventCounts = std::collections::HashMap<std::mem::Discriminant<EventKind>, usize>;

    /// One P = 1 nest, `fused` into a single [`parallel_phases`] region or
    /// run as one [`parallel_for`] — a coordinator rendezvous around a
    /// freshly built source — per phase: the merged metrics and the trace's
    /// per-kind event counts (parks excluded — whether a wait escalates to
    /// one is timing, not scheduling).
    fn single_worker_nest(
        fused: bool,
        policy: &RuntimeScheduler,
        lens: &[u64],
        traced: bool,
    ) -> (LoopMetrics, EventCounts) {
        let sink = traced.then(|| Arc::new(TraceSink::new(1)));
        let pool = match &sink {
            Some(sink) => Pool::with_trace(1, Arc::clone(sink)),
            None => Pool::new(1),
        };
        let m = if fused {
            parallel_phases(&pool, lens.len(), |ph| lens[ph], policy, |_, _| {})
        } else {
            let mut total = LoopMetrics::default();
            for &n in lens {
                total.merge(&parallel_for(&pool, n, policy, |_| {}));
            }
            total
        };
        drop(pool);
        let mut kinds = EventCounts::new();
        for e in sink.iter().flat_map(|s| s.events(0)) {
            if e.kind != EventKind::BarrierPark {
                *kinds.entry(std::mem::discriminant(&e.kind)).or_default() += 1;
            }
        }
        assert_eq!(sink.map_or(0, |s| s.dropped(0)), 0, "trace ring overflowed");
        (m, kinds)
    }

    #[test]
    fn rearmed_region_source_matches_a_source_built_fresh_each_phase() {
        // A region keeps one source for all its phases (re-armed in place
        // for AFS, replaced for the rest); a loop of one-phase regions
        // builds a fresh one every phase. On one worker both are
        // deterministic, so they must agree grab for grab — over growing,
        // shrinking, empty and one-iteration phases — and event for event
        // when traced.
        let lens = [97u64, 0, 1024, 3, 1, 4096];
        for traced in [false, true] {
            // Fresh policy values per driver: AFS-LE's history and the
            // adaptive controller are cross-region state.
            for (fused_policy, fresh_policy) in all_policies().into_iter().zip(all_policies()) {
                let name = fused_policy.name();
                // A live controller reads barrier-wait outcomes, which the
                // two drives legitimately differ in; pinned, the adaptive
                // policy is its tick plus the same re-arm.
                for policy in [&fused_policy, &fresh_policy] {
                    if let Some(ctl) = policy.controller() {
                        ctl.freeze();
                    }
                }
                let (fused, fused_events) = single_worker_nest(true, &fused_policy, &lens, traced);
                let (fresh, fresh_events) = single_worker_nest(false, &fresh_policy, &lens, traced);
                assert_eq!(fused.total_iters(), lens.iter().sum::<u64>(), "{name}");
                assert_eq!(fused.sync, fresh.sync, "{name}");
                assert_eq!(fused.per_worker, fresh.per_worker, "{name}");
                assert_eq!(fused.iters_per_worker, fresh.iters_per_worker, "{name}");
                assert_eq!(traced, !fused_events.is_empty(), "{name}");
                assert_eq!(fused_events, fresh_events, "{name}");
            }
        }
    }

    #[test]
    fn afs_le_history_sees_the_whole_finished_phase_in_both_drivers() {
        // A deterministic two-worker schedule: in each phase worker 0 waits
        // (in iteration 0) until worker 1 has claimed its first chunk, and
        // worker 1 then sits in that chunk's first iteration (128) until
        // everything else has run — so worker 0 drains its own queue and
        // steals the rest of worker 1's. Phase 0 starts from the static
        // halves: worker 1 keeps [128, 192), 64 iterations. If the boundary
        // saw *every* grab of phase 0, phase 1 is seeded from where the
        // iterations ran — worker 1's queue is just [128, 192), its first
        // chunk 32 — otherwise the history does not cover the loop and the
        // static halves (first chunk 64) come back. The boundary is a
        // barrier turn inside one fused region, or the gap between two
        // one-phase regions sharing the policy value.
        let n = 256u64;
        let own = [64u64, 32];
        for fused in [true, false] {
            let pool = Pool::new(2);
            let started = [AtomicBool::new(false), AtomicBool::new(false)];
            let done = [AtomicU64::new(0), AtomicU64::new(0)];
            let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
                let deadline = Instant::now() + std::time::Duration::from_secs(20);
                while !cond() {
                    assert!(Instant::now() < deadline, "fused={fused}: never saw {what}");
                    std::thread::yield_now();
                }
            };
            let body = |ph: usize, i: u64| {
                if i == 0 {
                    wait_for("worker 1 start", &|| started[ph].load(Ordering::SeqCst));
                }
                if i == 128 {
                    started[ph].store(true, Ordering::SeqCst);
                    wait_for("the rest of the phase", &|| {
                        done[ph].load(Ordering::SeqCst) == n - own[ph]
                    });
                }
                done[ph].fetch_add(1, Ordering::SeqCst);
            };
            let policy = RuntimeScheduler::afs_last_exec();
            let m = if fused {
                parallel_phases(&pool, 2, |_| n, &policy, body)
            } else {
                let mut total = parallel_for(&pool, n, &policy, |i| body(0, i));
                total.merge(&parallel_for(&pool, n, &policy, |i| body(1, i)));
                total
            };
            assert_eq!(m.iters_per_worker, vec![2 * n - 96, 96], "fused={fused}");
        }
    }

    #[test]
    fn frozen_adaptive_matches_the_equivalent_static_policy() {
        // A frozen controller must behave exactly like the static AFS
        // policy it is pinned to: same per-worker iteration counts, same
        // grab mix — the differential that makes the adaptive path safe to
        // reason about. Single worker keeps the run deterministic.
        let pool = Pool::new(1);
        let ctl = Arc::new(AdaptController::with_initial(1, 1, 2));
        ctl.freeze();
        let adaptive = RuntimeScheduler::adaptive_with(ctl);
        let fixed = RuntimeScheduler {
            kind: Kind::Afs {
                k: KParam::Fixed(1),
                ahead: 2,
            },
        };
        let ma = parallel_phases(&pool, 3, |_| 300, &adaptive, |_, _| {});
        let mf = parallel_phases(&pool, 3, |_| 300, &fixed, |_, _| {});
        assert_eq!(ma.iters_per_worker, mf.iters_per_worker);
        assert_eq!(ma.sync, mf.sync);
    }
}
