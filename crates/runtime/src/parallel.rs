//! Parallel loop execution: `parallel_for` and multi-phase regions.
//!
//! # Panic safety
//!
//! Every loop body runs under `catch_unwind`: a panicking iteration marks
//! the region failed (first panic wins; a [`PhasePlan`] may instead
//! contain it, as a serving batch does) but never tears down the pool or
//! halts the region. The panicking worker itself survives — it resumes at
//! the iteration after the poisoned one — so every non-panicking iteration
//! still runs exactly once. Only a driver-internal failure (arming a
//! phase's work source) halts a region. Either way every worker still
//! arrives at every barrier generation, so the rendezvous can never
//! deadlock, and the [`crate::fault::PhaseError`] — worker id, phase,
//! payload — comes back from [`try_parallel_for`] / [`try_parallel_phases`]
//! (the non-`try` forms re-raise it via `resume_unwind`).

use crate::adapt::AdaptController;
use crate::barrier::SenseBarrier;
use crate::fault::{FaultPlan, PhaseError};
use crate::pool::{DispatchSlot, DispatchTicket, Pool};
use crate::source::{
    AfsSource, FetchAddSource, LockedSource, PhaseSource, StaticSource, WorkSource,
};
use crate::sync::Mutex;
use afs_core::metrics::LoopMetrics;
use afs_core::policy::{Grab, Scheduler};
use afs_core::schedulers::affinity::KParam;
use afs_metrics::trace::{EventKind, TraceSink};
use afs_metrics::{CachePadded, FlightRecorder, MetricsRegistry};
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A scheduling policy usable by the runtime.
///
/// AFS, STATIC and the central-queue policies get dedicated concurrent
/// implementations (per-worker queues, a lock-free partition, one fetch-add
/// per grab) because avoiding a shared lock is their defining property; the
/// rest run their `afs-core` scheduler under one lock.
pub struct RuntimeScheduler {
    kind: Kind,
}

enum Kind {
    /// Drive any core scheduler under its (single) queue lock.
    Locked(Box<dyn Scheduler>),
    /// A strictly-monotone central counter (SS and fixed-size chunking):
    /// one `fetch_add` per grab, no lock.
    FetchAdd { chunk: u64 },
    /// A central queue, drained into the fetch-add source's chunk table.
    Drained(Box<dyn Scheduler>),
    /// Distributed AFS; `ahead` local chunks are claimed per CAS (1 =
    /// plain AFS, see `AfsSource::with_grab_ahead`).
    Afs { k: KParam, ahead: usize },
    /// Distributed AFS whose subdivision k and grab-ahead b are re-tuned
    /// at every phase boundary by an [`AdaptController`] reading the
    /// pool's counter deltas.
    Adaptive(Arc<AdaptController>),
    /// Lock-free static partition.
    Static,
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

    /// AFS with "last executed" assignment across loop executions (the
    /// paper's §4.3 extension): migrations performed in one phase carry
    /// over to the next, so persistent imbalance stops causing repeated
    /// work movement. This is `afs-core`'s [`AffinityLastExec`] under its
    /// queue lock; the policy value owns the core scheduler and through it
    /// the history, so reuse the same value across the phases of one
    /// region or consecutive loops.
    ///
    /// [`AffinityLastExec`]: afs_core::schedulers::AffinityLastExec
    pub fn afs_last_exec() -> Self {
        Self::from_core(afs_core::schedulers::AffinityLastExec::with_k_equals_p())
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
        Self {
            kind: Kind::Drained(Box::new(afs_core::schedulers::Gss::new())),
        }
    }

    /// Factoring.
    pub fn factoring() -> Self {
        Self {
            kind: Kind::Drained(Box::new(afs_core::schedulers::Factoring::new())),
        }
    }

    /// Trapezoid self-scheduling.
    pub fn trapezoid() -> Self {
        Self {
            kind: Kind::Drained(Box::new(afs_core::schedulers::Trapezoid::new())),
        }
    }

    /// Modified factoring (affinity-aware chunk preference).
    pub fn mod_factoring() -> Self {
        Self::from_core(afs_core::schedulers::ModFactoring::new())
    }

    /// Any `afs-core` scheduler, driven under a single queue lock even when
    /// it reports `Central`: its grabs may read the worker, as MOD-FACTORING's do.
    pub fn from_core(sched: impl Scheduler + 'static) -> Self {
        Self {
            kind: Kind::Locked(Box::new(sched)),
        }
    }

    /// Policy name for reports.
    pub fn name(&self) -> String {
        match &self.kind {
            Kind::Locked(s) | Kind::Drained(s) => s.name(),
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
            Kind::Adaptive(_) => "ADAPTIVE".into(),
            Kind::Static => "STATIC".into(),
        }
    }

    /// Arms `slot` with the work source for a loop of `n` iterations. A
    /// source of this policy's kind left there — by the previous phase, or
    /// by an earlier region as the pool's spare — is re-armed in place, with
    /// no allocation, so the caller must hold the slot exclusively (the
    /// window the sources' `rearm` requires); any other leftover is dropped
    /// *before* its successor is built, so a region retains one source
    /// however many phases it runs.
    fn arm_source(
        &self,
        slot: &mut Option<PhaseSource>,
        n: u64,
        p: usize,
        trace: Option<&Arc<TraceSink>>,
        metrics: &Arc<MetricsRegistry>,
    ) {
        // An AFS policy's (k, b) for this loop: the adaptive controller
        // decides them here.
        let afs = match &self.kind {
            Kind::Afs { k, ahead } => Some((k.resolve(p), *ahead)),
            Kind::Adaptive(ctl) => {
                // Phase boundary: read the finished phase's counter deltas,
                // decide the next phase's (k, b), and surface the controller
                // state to the metrics layer.
                let tune = ctl.observe_registry(metrics);
                metrics.record_sched_tune(tune.k, tune.b as u64, ctl.decisions(), ctl.settled());
                Some((tune.k, tune.b))
            }
            _ => None,
        };
        match (slot.as_mut(), &self.kind, afs) {
            (Some(PhaseSource::Afs(src)), _, Some((k, ahead))) => return src.rearm(n, k, ahead),
            (Some(PhaseSource::FetchAdd(src)), Kind::FetchAdd { chunk }, _) => {
                return src.rearm(n, *chunk)
            }
            (Some(PhaseSource::FetchAdd(src)), Kind::Drained(s), _) => {
                return src.rearm_drained(s.begin_loop(n, p))
            }
            (Some(PhaseSource::Static(src)), Kind::Static, _) => return src.rearm(n),
            _ => {}
        }
        *slot = None;
        *slot = Some(match &self.kind {
            // The scheduler's own state machine: built for every loop.
            Kind::Locked(s) => {
                let src = LockedSource::new(s.begin_loop(n, p));
                PhaseSource::Locked(Box::new(match trace {
                    Some(sink) => src.with_trace(Arc::clone(sink)),
                    None => src,
                }))
            }
            Kind::FetchAdd { chunk } => {
                PhaseSource::FetchAdd(Box::new(FetchAddSource::new(n, *chunk)))
            }
            Kind::Drained(s) => {
                let mut src = FetchAddSource::new(0, 1);
                src.rearm_drained(s.begin_loop(n, p));
                PhaseSource::FetchAdd(Box::new(src))
            }
            Kind::Static => PhaseSource::Static(Box::new(StaticSource::new(n, p))),
            Kind::Afs { .. } | Kind::Adaptive(_) => {
                let (k, ahead) = afs.expect("an AFS policy's (k, b)");
                // The only source with grab-path-private events (CAS
                // retries, stash hits); grab counts themselves are recorded
                // uniformly by `drain`.
                let src = AfsSource::new(n, p, k)
                    .with_grab_ahead(ahead)
                    .with_metrics(Arc::clone(metrics));
                PhaseSource::Afs(Box::new(match trace {
                    Some(sink) => src.with_trace(Arc::clone(sink)),
                    None => src,
                }))
            }
        });
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
/// `Err(PhaseError)` (worker id + payload) instead of propagating. Every
/// other iteration still runs exactly once, and the pool remains fully
/// usable.
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
/// under AFS, STATIC and the central policies (allocation-free but for the
/// core machine GSS, factoring and trapezoid drain; locked ones build anew)
/// — so the coordinator thread is out of the per-phase loop entirely. The
/// source then waits in the pool for the next region.
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
    if phases == 0 {
        return Ok(LoopMetrics::new(pool.workers(), 0));
    }
    let plan = Closures(phases, len_of, policy, body);
    let merged = LoopMetrics::new(pool.workers(), 0);
    let region = Region::new(pool, &plan, Some(merged));
    if !region.failure.halted() {
        // Body panics are contained inside `Region::run_chunk`; an Err
        // here means a panic in the driver itself.
        pool.try_run(|worker| region.work(worker))
            .map_err(|e| flag_phase_error(pool.recorder(), e))?;
    }
    region.finish()
}

/// What a fused region runs: each phase's length, policy and body, and
/// hooks for a caller with rules of its own. The driver is generic over
/// the plan, so hooks left at their defaults compile away.
/// [`parallel_phases`] runs a plan of one closure pair and one policy; the
/// serving frontend's fused batch, whose phase *g* is its *g*-th
/// request-phase, runs as a [`StandingRegion`].
pub trait PhasePlan: Sync {
    /// How many phases the region runs (at least one).
    fn phases(&self) -> usize;
    /// Iterations in `phase`.
    fn len(&self, phase: usize) -> u64;
    /// The policy that schedules `phase`. Consecutive phases whose
    /// policies share a source kind (AFS; STATIC; any fetch-add central
    /// queue) re-arm one source in place, whichever policy values they
    /// come from.
    fn policy(&self, phase: usize) -> &RuntimeScheduler;
    /// `phase`'s body, called with each iteration index. Each worker asks
    /// once per phase, so what the body needs is read once, not per call.
    fn body(&self, phase: usize) -> impl Fn(u64) + '_;

    /// Whether `phase` runs empty. Asked where the phase is armed (region
    /// setup, or the previous phase's barrier turn), so every worker sees
    /// one answer; a skipped phase still takes its barrier and closes.
    fn skip(&self, _phase: usize) -> bool {
        false
    }

    /// `iters` iterations of `phase` ran on `worker`: called once the
    /// worker's counters are written, before it arrives at the phase's end.
    fn drained(&self, _worker: usize, _phase: usize, _iters: u64) {}

    /// `phase` is over. Runs once, exclusively, on the worker closing it:
    /// the barrier's turn-taker, or for the last phase the last finisher.
    /// Not called once a driver-internal failure has halted the region.
    fn close(&self, _worker: usize, _phase: usize) {}

    /// Whether the plan contains a body panic on `worker` in `phase`.
    /// Otherwise the panic is the region's failure. Either way only the
    /// poisoned iteration is skipped.
    fn contain(&self, _worker: usize, _phase: usize) -> bool {
        false
    }
}

/// [`parallel_phases`]'s plan: its phase count, `len_of`, policy and body.
struct Closures<'a, L, F>(usize, L, &'a RuntimeScheduler, F);

impl<L, F> PhasePlan for Closures<'_, L, F>
where
    L: Fn(usize) -> u64 + Sync,
    F: Fn(usize, u64) + Sync,
{
    fn phases(&self) -> usize {
        self.0
    }

    fn len(&self, phase: usize) -> u64 {
        (self.1)(phase)
    }

    fn policy(&self, _phase: usize) -> &RuntimeScheduler {
        self.2
    }

    fn body(&self, phase: usize) -> impl Fn(u64) + '_ {
        move |i| (self.3)(phase, i)
    }
}

/// A fused region built once and published many times, as the serving
/// frontend's batch is. Each [`StandingRegion::publish`] lets its owner
/// rewrite the plan, re-arms the region in place — barrier, failure state,
/// finish count, epoch, flight-recorder claim, and phase 0's source, which
/// the region keeps from publish to publish — and hands the ticket a clone
/// of its one job, which the workers borrow, so a publish builds, boxes
/// and drops nothing. Dropping
/// it returns its source to the pool's spare.
pub struct StandingRegion<P: PhasePlan + Send + 'static> {
    region: Arc<Region<PlanCell<P>>>,
    /// What every publish hands the pool: each worker runs the region, and
    /// a recorded failure is re-raised so the ticket returns it.
    job: Arc<dyn Fn(usize) + Send + Sync>,
}

impl<P: PhasePlan + Send + 'static> StandingRegion<P> {
    /// Builds `plan`'s region on `pool`, with the pool's spare source.
    /// Nothing is armed before the first publish, so the plan may still
    /// be empty.
    pub fn new(pool: &Pool, plan: P) -> StandingRegion<P> {
        let plan = PlanCell(UnsafeCell::new(plan));
        let region = Arc::new(Region::build(pool, plan, None));
        let shared = Arc::clone(&region);
        let job = Arc::new(move |worker| {
            shared.work(worker);
            if let Some(e) = shared.failure.take() {
                // The error itself is the payload: the pool keeps it, with
                // the worker and phase that failed, as the ticket's error.
                let e = flag_phase_error(&shared.recorder, e);
                std::panic::resume_unwind(Box::new(e));
            }
        });
        StandingRegion { region, job }
    }

    /// The plan.
    pub fn plan(&self) -> &P {
        &self.region.plan
    }

    /// Rewrites the plan with `refill`, re-arms the region for it and
    /// publishes it into `slot`, a claim on the pool it was built for,
    /// returning the ticket without waiting. Phase 0 is armed on the
    /// calling thread; the claim keeps every worker out until the publish.
    /// The region's failure — a driver-internal one, or a body panic the
    /// plan did not contain — is the ticket's error. Panics while an
    /// earlier publish is out (until its ticket finishes it holds a clone
    /// of the job), and when the plan has no phase.
    pub fn publish(&mut self, slot: DispatchSlot, refill: impl FnOnce(&mut P)) -> DispatchTicket {
        assert!(
            Arc::strong_count(&self.job) == 1,
            "a standing region is rewritten while the pool still holds its job"
        );
        // Every other clone of the job is gone: a ticket drops the one it
        // was handed, a release decrement, only after it saw the last
        // worker's RMW on the pool's word, which follows that worker's
        // last access to the region. This makes all of them happen-before
        // the rewrite.
        fence(Ordering::Acquire);
        // SAFETY: no other thread holds the job, through which alone the
        // workers reach the region (above), and `&mut self` keeps this
        // handle's own `plan()` borrows out; no worker reads the region
        // again before it loads the generation the publish below stores,
        // which orders every write here before its reads.
        unsafe {
            refill(&mut *self.region.plan.0.get());
            self.region.rearm();
        }
        slot.publish(Arc::clone(&self.job))
    }
}

/// A standing region's plan: the workers read it through `Deref`, and
/// [`StandingRegion::publish`] rewrites it while no worker can.
struct PlanCell<P>(UnsafeCell<P>);

impl<P> std::ops::Deref for PlanCell<P> {
    type Target = P;

    fn deref(&self) -> &P {
        // SAFETY: the only `&mut P` is the one `StandingRegion::publish`
        // lends its refill, while no other thread holds the region and
        // while its handle is mutably borrowed, so it never overlaps a
        // shared borrow.
        unsafe { &*self.0.get() }
    }
}

// SAFETY: shared access is `&P` only (`Deref`), which `P: Sync` allows
// across threads; the one `&mut P` is exclusive (above), and handing it to
// another thread than the one that last shared it needs `P: Send`.
unsafe impl<P: Send + Sync> Sync for PlanCell<P> {}

/// Shared failure state of one parallel region: the first [`PhaseError`]
/// and whether the region halted (a driver-internal failure that makes
/// later phases unrunnable: they run empty).
#[derive(Default)]
struct RegionFailure {
    halt: AtomicBool,
    /// Whether a failure was recorded this run, so that reading none — a
    /// worker's epilogue, every publish — is one load, not the lock.
    recorded: AtomicBool,
    slot: Mutex<Option<PhaseError>>,
}

impl RegionFailure {
    /// Records a panic (first wins). A body panic does not halt the region.
    fn record(&self, worker: usize, phase: usize, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(PhaseError::new(worker, phase, payload));
            self.recorded.store(true, Ordering::Release);
        }
    }

    /// Takes the recorded failure, if no one has yet. A worker always
    /// sees its own record; a failure recorded after a worker looked is
    /// taken by its recorder.
    fn take(&self) -> Option<PhaseError> {
        if !self.recorded.load(Ordering::Acquire) {
            return None;
        }
        self.slot.lock().take()
    }

    /// Forgets this run's failure, for the next: writes only when there
    /// was one (a halt always records first).
    fn reset(&self) {
        if self.recorded.load(Ordering::Relaxed) {
            self.slot.lock().take();
            self.halt.store(false, Ordering::Relaxed);
            self.recorded.store(false, Ordering::Relaxed);
        }
    }

    /// Runs a driver-internal step — arming `phase`'s work source: the
    /// scheduler's `begin_loop`, the plan's `len`, an AFS re-arm — so that
    /// a panic in it becomes the region's error instead of unwinding
    /// through the driver or a barrier turn. Always halts: there is
    /// nothing left to schedule.
    fn guard(&self, worker: usize, phase: usize, step: impl FnOnce()) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(step)) {
            self.record(worker, phase, payload);
            self.halt.store(true, Ordering::SeqCst);
        }
    }

    fn halted(&self) -> bool {
        self.halt.load(Ordering::Relaxed)
    }
}

/// Arms the pool's flight recorder with a region-failure trigger before
/// the error propagates; the phase that failed was already recorded, so
/// the dump (written at the next flush point) carries its lead-up.
fn flag_phase_error(recorder: &FlightRecorder, e: PhaseError) -> PhaseError {
    recorder.trigger(afs_metrics::Trigger::PhaseError {
        worker: e.worker(),
        phase: e.phase(),
    });
    e
}

/// The fused driver: one pool dispatch for the whole plan; workers chain
/// from phase to phase through a decentralized sense-reversing barrier,
/// the last arriver closing the phase and re-arming the region's source
/// for the next one (so cross-phase scheduler state such as AFS-LE's
/// history sees every update of the finished phase).
///
/// The `LoopMetrics` [`try_parallel_phases`] returns is derived from the
/// workers' counter slots, the only per-grab record: each worker reads its
/// own slot when its job starts and after its last phase, and credits the
/// difference. The reads happen on the worker because only there are they
/// bounded by this region — callers sharing the pool are serialized by it,
/// so a snapshot the coordinator took before dispatching could include
/// another caller's region. `per_queue` stays empty. A standing region
/// returns no metrics, so it merges none.
///
/// Telemetry stays on each worker's own lines. Arriving at the end of a
/// phase, a worker appends its counter delta to its own flight-recorder
/// lane. The phase's closer — the barrier's turn-taker, or for the last
/// phase the worker that finishes last — adds only the phase's duration
/// (to its own phase-histogram shard) and its turn record (to its own
/// lane). The previous boundary's timestamp lives on the barrier's hot
/// line, which the turn-taker already owns. So a boundary writes the
/// barrier's words and the queue words `AfsSource::rearm` must write, and
/// no line a worker reads during the phase.
struct Region<Q> {
    /// The plan, borrowed or shared.
    plan: Q,
    p: usize,
    trace: Option<Arc<TraceSink>>,
    registry: Arc<MetricsRegistry>,
    recorder: Arc<FlightRecorder>,
    faults: Option<Arc<FaultPlan>>,
    // Written only on a failure: on a line of its own, as is the source
    // slot the turn rewrites.
    failure: CachePadded<RegionFailure>,
    /// The one work source, alive for the whole region: taken from the
    /// pool's spare when one is there, kept from one re-arm to the next,
    /// and returned to the spare when the region is dropped, after every
    /// worker has left (DESIGN §9). Plain memory, synchronized by the
    /// barrier: after a re-arm it is rewritten only inside the barrier's
    /// turn closure (all workers arrived, none released — exclusive by
    /// construction) and read only between a release and the reader's
    /// next arrival. Every worker's last grab of
    /// phase k happens-before its arrival, hence before the turn that
    /// re-arms or replaces the source, and that turn happens-before the
    /// release every phase-k+1 grab follows — the window
    /// [`AfsSource::rearm`] requires. `None` once the region halted: later
    /// phases are skipped, but every worker still takes every barrier.
    source: CachePadded<UnsafeCell<Option<PhaseSource>>>,
    /// Where the source goes when the region is dropped: the pool's spare.
    spare: Arc<Mutex<Option<PhaseSource>>>,
    barrier: SenseBarrier,
    deadline_ns: Option<u64>,
    /// The metrics [`try_parallel_phases`] returns, merged as workers finish.
    merged: Option<Mutex<LoopMetrics>>,
    /// How many workers have finished.
    finished: AtomicUsize,
    /// Phase boundaries are nanoseconds since this: the last arrival at a
    /// barrier, and for the final phase the last worker's finish. The
    /// barrier's turn word holds the previous one, so a phase lasts from
    /// one boundary to the next.
    start: Instant,
    /// When the current run began, in nanoseconds since `start`: the
    /// re-arm's reading, phase 0's opening boundary and what the loop
    /// histogram measures from.
    epoch_ns: AtomicU64,
    /// Phase `ph`'s flight-recorder record is `first_seq + ph`, claimed
    /// afresh by every re-arm.
    first_seq: AtomicU64,
}

// SAFETY: `source` is the only field not `Sync` by itself; see its access
// protocol — the barrier orders every rewrite exclusively against all
// reads, and the sources are `Sync` for the workers sharing them and
// `Send` for whichever thread's turn replaces them.
unsafe impl<Q: Sync> Sync for Region<Q> {}

impl<Q: std::ops::Deref<Target: PhasePlan>> Region<Q> {
    /// Sets up `plan`'s region on `pool` and re-arms it: ready to run.
    /// `merged`, when given, collects the workers' metrics.
    fn new(pool: &Pool, plan: Q, merged: Option<LoopMetrics>) -> Region<Q> {
        let region = Region::build(pool, plan, merged);
        // SAFETY: the region was built just now and is not shared yet.
        unsafe { region.rearm() };
        region
    }

    /// Sets up `plan`'s region on `pool`, unarmed, with the pool's spare
    /// source in its slot.
    fn build(pool: &Pool, plan: Q, merged: Option<LoopMetrics>) -> Region<Q> {
        // Moved out under the lock: no other region can hold it now.
        let first = pool.spare_source().lock().take();
        Region {
            plan,
            p: pool.workers(),
            trace: pool.trace().cloned(),
            registry: Arc::clone(pool.metrics()),
            recorder: Arc::clone(pool.recorder()),
            faults: pool.fault_plan().cloned(),
            failure: CachePadded::new(RegionFailure::default()),
            source: CachePadded::new(UnsafeCell::new(first)),
            spare: Arc::clone(pool.spare_source()),
            barrier: pool.phase_barrier(),
            deadline_ns: pool.phase_deadline().map(|d| d.as_nanos() as u64),
            merged: merged.map(Mutex::new),
            finished: AtomicUsize::new(0),
            start: Instant::now(),
            epoch_ns: AtomicU64::new(0),
            first_seq: AtomicU64::new(0),
        }
    }

    /// Readies the region for a run of its plan: the barrier's generations
    /// start over at this epoch, no failure is recorded and no worker has
    /// finished, the plan's phases are claimed in the flight recorder, and
    /// phase 0 is armed on the calling thread, as lane 0, in the source
    /// the region keeps — re-armed in place when it is of the policy's
    /// kind. A failure there halts the region, which then runs no phase.
    /// Every region runs through here: `new`, and every standing publish.
    ///
    /// # Safety
    ///
    /// The caller holds the region exclusively — no worker is in it — and
    /// whatever hands the region to the workers next (the pool's publish)
    /// orders these writes before their reads.
    unsafe fn rearm(&self) {
        let phases = self.plan.phases() as u64;
        assert!(phases >= 1, "a fused region needs at least one phase");
        let epoch = self.start.elapsed().as_nanos() as u64;
        self.failure.reset();
        self.finished.store(0, Ordering::Relaxed);
        self.barrier.restart(epoch);
        self.epoch_ns.store(epoch, Ordering::Relaxed);
        let first_seq = self.recorder.claim(phases);
        self.first_seq.store(first_seq, Ordering::Relaxed);
        // SAFETY: the caller holds the region, hence its source slot,
        // exclusively.
        self.arm(unsafe { &mut *self.source.get() }, 0, 0);
    }

    /// Arms `slot` for `phase` on `worker`, which holds it exclusively —
    /// empty when the plan skips the phase. A halted region drops it.
    fn arm(&self, slot: &mut Option<PhaseSource>, worker: usize, phase: usize) {
        if !self.failure.halted() {
            self.failure.guard(worker, phase, || {
                let n = if self.plan.skip(phase) {
                    0
                } else {
                    self.plan.len(phase)
                };
                let (trace, registry) = (self.trace.as_ref(), &self.registry);
                let policy = self.plan.policy(phase);
                policy.arm_source(slot, n, self.p, trace, registry)
            });
        }
        if self.failure.halted() {
            *slot = None;
        }
    }

    /// Closes `phase` at `now` on `worker`, which holds it exclusively
    /// (the barrier turn, or the last finisher).
    fn close(&self, worker: usize, phase: usize, now: u64) {
        let stamp = self.barrier.turn_word();
        let wall_ns = now - stamp.load(Ordering::Relaxed);
        stamp.store(now, Ordering::Relaxed);
        self.registry.phase_hist(worker).record_owned(wall_ns);
        let seq = self.first_seq.load(Ordering::Relaxed) + phase as u64;
        let registry = &self.registry;
        self.recorder
            .record_turn(worker, seq, phase as u64, wall_ns, registry);
        if self.deadline_ns.is_some_and(|d| wall_ns > d) {
            self.registry.record_deadline_miss();
        }
        if !self.failure.halted() {
            self.plan.close(worker, phase);
        }
    }

    /// One worker's whole region.
    fn work(&self, worker: usize) {
        let phases = self.plan.phases();
        if let Some(f) = &self.faults {
            f.on_region_start(worker);
        }
        let counters = self.registry.worker(worker);
        let start = counters.get();
        let mut last = start;
        let first_seq = self.first_seq.load(Ordering::Relaxed);
        for phase in 0..phases {
            // SAFETY: the source was armed for `phase` before this worker
            // got here (phase 0 before the dispatch; later phases inside
            // the barrier turn that released this worker) and no one
            // rewrites it until this worker has arrived again.
            if let Some(current) = unsafe { (*self.source.get()).as_ref() } {
                let iters = self.drain(worker, phase, current.get());
                self.plan.drained(worker, phase, iters);
            }
            let now = counters.get();
            let seq = first_seq + phase as u64;
            self.recorder.record_arrival(worker, seq, &now.minus(&last));
            last = now;
            if phase + 1 < phases {
                // Read before arriving: the last arriver's reading is the
                // boundary, and its turn then stamps it while the
                // barrier's line is still the one it just wrote.
                let arrived_ns = self.start.elapsed().as_nanos() as u64;
                self.barrier.arrive_then_as(worker, (phase + 1) as u64, || {
                    // Turn-exclusive (all arrived, none released): the
                    // canonical once-per-phase point for the black box.
                    self.close(worker, phase, arrived_ns);
                    // SAFETY: the turn closure runs on exactly one worker,
                    // after every worker arrived and before any is
                    // released — exclusive access to the region source.
                    self.arm(unsafe { &mut *self.source.get() }, worker, phase + 1);
                });
                if let Some(sink) = &self.trace {
                    sink.record(worker, EventKind::BarrierRelease);
                }
            }
        }
        if let Some(merged) = &self.merged {
            let done = last.minus(&start);
            let sync = done.sync();
            let mut metrics = merged.lock();
            metrics.sync.add(&sync);
            metrics.per_worker[worker] = sync;
            metrics.iters_per_worker[worker] = done.iters;
        }
        // Every other worker has recorded its last arrival and finished:
        // the AcqRel count carries their writes to the last finisher.
        if self.finished.fetch_add(1, Ordering::AcqRel) + 1 == self.p {
            let now = self.start.elapsed().as_nanos() as u64;
            self.close(worker, phases - 1, now);
            let epoch = self.epoch_ns.load(Ordering::Relaxed);
            self.registry.loop_hist().record(now - epoch);
        }
    }

    /// Drains `source` on `worker` for one phase, recording grabs into the
    /// worker's always-on counters (and the trace sink, when tracing), and
    /// returns how many iterations ran. It first-touches worker-owned
    /// scheduler state from this worker's core (`WorkSource::warm`). Each
    /// grab attempt bumps the worker's heartbeat (the watchdog's liveness
    /// signal) and runs the fault hooks, numbering attempts from 0 within
    /// the phase; each chunk runs under [`Region::run_chunk`], so a body
    /// panic is contained there and the worker always reaches the barrier.
    #[inline]
    fn drain(&self, worker: usize, phase: usize, source: &dyn WorkSource) -> u64 {
        let counters = self.registry.worker(worker);
        source.warm(worker);
        let body = self.plan.body(phase);
        let (faults, mut grabs, mut iters) = (self.faults.as_deref(), 0u64, 0u64);
        match &self.trace {
            None => {
                // Untraced fast path: no per-grab branch beyond the `None`
                // fault plan. A halted region has no source, so a drain
                // never sees a halt.
                loop {
                    counters.record_heartbeat();
                    if let Some(f) = faults {
                        f.on_grab(worker, phase, grabs);
                    }
                    grabs += 1;
                    let Some(grab) = source.next(worker) else {
                        break;
                    };
                    counters.record_access(grab.access);
                    let executed = self.run_chunk(worker, phase, &grab, &body);
                    counters.record_iters(executed);
                    iters += executed;
                }
            }
            Some(sink) => loop {
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
                let executed = self.run_chunk(worker, phase, &grab, &body);
                counters.record_iters(executed);
                iters += executed;
                sink.record(worker, EventKind::ChunkEnd);
            },
        }
        iters
    }

    /// Executes one grabbed chunk under `catch_unwind`, returning how many
    /// iterations actually ran. On a panic the worker itself survives: the
    /// plan contains the poisoned iteration or the region records it, and
    /// execution resumes at the *next* iteration of the same chunk — so
    /// every non-panicking iteration still runs exactly once.
    fn run_chunk(&self, worker: usize, phase: usize, grab: &Grab, body: &impl Fn(u64)) -> u64 {
        let faults = self.faults.as_deref();
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
                        body(i);
                        *done += 1;
                        i += 1;
                    }
                }))
            };
            executed += done;
            match caught {
                Ok(()) => break,
                Err(payload) => {
                    if !self.plan.contain(worker, phase) {
                        self.failure.record(worker, phase, payload);
                    }
                    // Skip only the iteration that panicked.
                    lo = lo + done + 1;
                }
            }
        }
        executed
    }

    /// The region's result: its first error (arming the pool's flight
    /// recorder on the way out), else the merged metrics.
    fn finish(mut self) -> Result<LoopMetrics, PhaseError> {
        match self.failure.take() {
            Some(e) => Err(flag_phase_error(&self.recorder, e)),
            None => Ok(self.merged.take().expect("a merging region").into_inner()),
        }
    }
}

impl<Q> Drop for Region<Q> {
    /// Hands the source to the pool's spare. Every worker has left the
    /// region by now: a borrowed region is dropped after `Pool::try_run`
    /// returned, a standing one with the last clone of its job, which a
    /// ticket drops only after every worker left it. A
    /// [`LockedSource`] carries its scheduler's loop state, so it is not
    /// kept.
    fn drop(&mut self) {
        match self.source.get_mut().take() {
            None | Some(PhaseSource::Locked(_)) => {}
            Some(src) => {
                let old = self.spare.lock().replace(src);
                drop(old);
            }
        }
    }
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
            RuntimeScheduler::afs_tuned(2, 1),
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
    /// source armed for it — per phase: the merged metrics and the trace's
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
        // but for the locked policies, replaced for those); a loop of
        // one-phase regions arms the pool's spare once a region, around a
        // coordinator rendezvous each. On one worker both are
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

    /// `src` driven on one thread, worker after worker in a skewed order
    /// that makes AFS steal, until every worker has come back dry or
    /// after `cut` grabs: what it handed out, `None`s included.
    fn drive(src: &dyn WorkSource, p: usize, cut: Option<usize>) -> Vec<Option<Grab>> {
        let mut dry = vec![false; p];
        let mut grabs = Vec::new();
        for w in (0..).map(|i| (i * 7 + i / 5) % p) {
            if dry.iter().all(|&d| d) || cut.is_some_and(|c| grabs.len() == c) {
                break;
            }
            let g = src.next(w);
            dry[w] = g.is_none();
            grabs.push(g);
        }
        grabs
    }

    /// Sets up a one-phase region of `policy` over `n` iterations the way
    /// every region starts — its source the pool's spare, re-armed, or
    /// built — drives that source on this thread (no worker runs it), and
    /// drops the region, which hands the source back as the spare.
    fn region_grabs(
        pool: &Pool,
        policy: &RuntimeScheduler,
        n: u64,
        cut: Option<usize>,
    ) -> Vec<Option<Grab>> {
        let plan = Closures(1, |_| n, policy, |_, _| {});
        let region = Region::new(pool, &plan, None);
        // SAFETY: no worker runs this region; this thread is its only user.
        let source = unsafe { (*region.source.get()).as_ref() };
        drive(source.expect("an armed source").get(), pool.workers(), cut)
    }

    #[test]
    fn a_reused_source_hands_out_what_a_fresh_one_would() {
        // Consecutive regions on one pool take the previous region's source
        // and re-arm it. Each must hand out exactly what a source built for
        // it would, grab for grab — across loop lengths, subdivisions and
        // grab-ahead batches; after a region whose body panicked; after one
        // cut short with chunks still in a grab-ahead stash; and after a
        // region of another policy took the spare's place.
        let pool = Pool::new(3);
        let p = pool.workers();
        let afs = |n: u64, k: u64, b: usize| {
            let fresh = AfsSource::new(n, p, k).with_grab_ahead(b);
            let reused = region_grabs(&pool, &RuntimeScheduler::afs_tuned(k, b), n, None);
            assert_eq!(reused, drive(&fresh, p, None), "AFS n={n} k={k} b={b}");
        };
        let lens = [0u64, 1, p as u64 - 1, 97, 4096];
        for (i, &n) in lens.iter().cycle().take(3 * lens.len()).enumerate() {
            for k in [1u64, p as u64, 2 * p as u64] {
                for b in [1usize, 4] {
                    afs(n, k, b);
                }
            }
            match i % 3 {
                0 => {
                    let panicky = RuntimeScheduler::afs_tuned(p as u64, 4);
                    let err = try_parallel_for(&pool, 4096, &panicky, |i| {
                        if i == 2000 {
                            panic!("poisoned iteration");
                        }
                    });
                    assert_eq!(err.unwrap_err().message(), Some("poisoned iteration"));
                }
                1 => {
                    let cut = RuntimeScheduler::afs_tuned(p as u64, 4);
                    let grabs = region_grabs(&pool, &cut, 4096, Some(1));
                    assert_eq!(grabs.len(), 1, "one grab-ahead claim, three chunks left");
                }
                _ => {
                    for other in [
                        RuntimeScheduler::static_partition(),
                        RuntimeScheduler::gss(),
                    ] {
                        region_grabs(&pool, &other, 97, None);
                    }
                }
            }
        }
        // STATIC and SS re-arm the same way, each after regions cut short.
        let static_partition = RuntimeScheduler::static_partition();
        for (i, &n) in lens.iter().cycle().take(2 * lens.len()).enumerate() {
            let reused = region_grabs(&pool, &static_partition, n, None);
            assert_eq!(
                reused,
                drive(&StaticSource::new(n, p), p, None),
                "STATIC n={n}"
            );
            if i % 2 == 0 {
                region_grabs(&pool, &static_partition, 4096, Some(1));
            }
        }
        // The central queues share one source: computed (SS, CSS) and
        // drained (GSS, FACTORING, TRAPEZOID) kinds alternate on the spare,
        // each after a region cut short — of its own kind or of the other —
        // and each hands out what its core machine does.
        use afs_core::schedulers::{ChunkSelf, Factoring, Gss, Trapezoid};
        let central: [(RuntimeScheduler, Box<dyn Scheduler>); 6] = [
            (RuntimeScheduler::self_sched(), Box::new(ChunkSelf::new(1))),
            (RuntimeScheduler::gss(), Box::new(Gss::new())),
            (RuntimeScheduler::chunk_self(2), Box::new(ChunkSelf::new(2))),
            (RuntimeScheduler::factoring(), Box::new(Factoring::new())),
            (RuntimeScheduler::chunk_self(3), Box::new(ChunkSelf::new(3))),
            (RuntimeScheduler::trapezoid(), Box::new(Trapezoid::new())),
        ];
        let rounds = lens.len() * central.len();
        for (i, &n) in lens.iter().cycle().take(rounds).enumerate() {
            let (policy, core) = &central[i % central.len()];
            let reused = region_grabs(&pool, policy, n, None);
            let fresh = LockedSource::new(core.begin_loop(n, p));
            assert_eq!(reused, drive(&fresh, p, None), "{} n={n}", policy.name());
            // The next region re-arms after a cut one of the kind it
            // follows or of its own: both kinds, both ways.
            let (cut, _) = &central[(i + [1, 0, 0, 1][i % 4]) % central.len()];
            region_grabs(&pool, cut, 4096, Some(5));
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

    /// Longest phase and most phases [`Rewritten`] runs.
    const MAX_N: usize = 200;
    const MAX_PHASES: usize = 3;

    /// A plan its test rewrites between publishes of one standing region.
    struct Rewritten {
        phases: usize,
        n: u64,
        policy: RuntimeScheduler,
        /// A phase whose length cannot be read: a driver failure, which
        /// halts the region there.
        broken_len: Option<usize>,
        /// An iteration of phase 0 whose body panics, uncontained.
        poisoned: Option<u64>,
        /// The worker that ran the poisoned iteration.
        poisoned_on: AtomicUsize,
        /// How often each (phase, iteration) ran, at `phase * (MAX_N + 1) + i`.
        runs: Vec<AtomicU8>,
    }

    impl PhasePlan for Rewritten {
        fn phases(&self) -> usize {
            self.phases
        }

        fn len(&self, phase: usize) -> u64 {
            if self.broken_len == Some(phase) {
                panic!("unreadable length");
            }
            self.n
        }

        fn policy(&self, _phase: usize) -> &RuntimeScheduler {
            &self.policy
        }

        fn body(&self, phase: usize) -> impl Fn(u64) + '_ {
            move |i| {
                if phase == 0 && self.poisoned == Some(i) {
                    panic!("poisoned iteration");
                }
                self.runs[phase * (MAX_N + 1) + i as usize].fetch_add(1, Ordering::Relaxed);
            }
        }

        fn contain(&self, worker: usize, _phase: usize) -> bool {
            self.poisoned_on.store(worker, Ordering::Relaxed);
            false
        }
    }

    #[test]
    fn a_standing_region_republished_runs_every_iteration_once() {
        // One region, re-armed and re-published 1 200 times with its plan
        // rewritten in between: n in 0..=200, one to three phases, the
        // policy cycling AFS / STATIC / SS / GSS / MOD-FACTORING (a change
        // of kind, or the locked MOD-FACTORING, builds the source anew; SS
        // and GSS share one), and now and then a driver
        // failure that halts it or a body panic it does not contain. Each
        // publish runs every iteration of its plan exactly once, whatever
        // the last one left behind, and claims its own run of
        // flight-recorder seqs, every phase of it closed.
        let pool = Pool::new(3);
        let policies = [
            RuntimeScheduler::afs_k_equals_p,
            RuntimeScheduler::static_partition,
            RuntimeScheduler::self_sched,
            RuntimeScheduler::gss,
            RuntimeScheduler::mod_factoring,
        ];
        let plan = Rewritten {
            phases: 1,
            n: 0,
            policy: RuntimeScheduler::afs_k_equals_p(),
            broken_len: None,
            poisoned: None,
            poisoned_on: AtomicUsize::new(usize::MAX),
            runs: (0..MAX_PHASES * (MAX_N + 1))
                .map(|_| AtomicU8::new(0))
                .collect(),
        };
        let mut region = StandingRegion::new(&pool, plan);
        let (mut rng, mut claimed) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
        for it in 0..1200usize {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let n = (rng >> 33) % (MAX_N as u64 + 1);
            let phases = 1 + it % MAX_PHASES;
            let broken_len = (it % 97 == 13).then_some(it % phases);
            let poisoned = (it % 89 == 7 && n > 0).then_some(n / 2);
            let slot = pool.claim(0, |_| {});
            let ticket = region.publish(slot, |plan| {
                plan.phases = phases;
                plan.n = n;
                plan.policy = policies[it % policies.len()]();
                plan.broken_len = broken_len;
                plan.poisoned = poisoned;
                *plan.poisoned_on.get_mut() = usize::MAX;
                plan.runs.iter_mut().for_each(|r| *r.get_mut() = 0);
            });
            let result = ticket.wait();
            let plan = region.plan();
            let at = format!("publish {it}: {} n={n} phases={phases}", plan.policy.name());
            // Phases before a broken one ran in full; from it on, none ran.
            let ran = broken_len.unwrap_or(phases);
            for (slot, runs) in plan.runs.iter().enumerate() {
                let (ph, i) = (slot / (MAX_N + 1), (slot % (MAX_N + 1)) as u64);
                let once = ph < ran && i < n && !(ph == 0 && poisoned == Some(i));
                let runs = runs.load(Ordering::Relaxed);
                assert_eq!(runs, u8::from(once), "{at}: phase {ph} iteration {i}");
            }
            // The ticket's error is the region's: its payload, the phase
            // that failed and the worker it failed on (phase 0 is armed as
            // worker 0; a later phase by whichever worker took the turn).
            let failure = match (broken_len, poisoned) {
                (Some(ph), _) => Some(("unreadable length", ph, (ph == 0).then_some(0))),
                (None, Some(_)) => {
                    let on = plan.poisoned_on.load(Ordering::Relaxed);
                    Some(("poisoned iteration", 0, Some(on)))
                }
                (None, None) => None,
            };
            let message = result.as_ref().err().map(PhaseError::message);
            assert_eq!(message, failure.map(|f| Some(f.0)), "{at}");
            if let (Err(e), Some((_, phase, worker))) = (&result, failure) {
                assert_eq!(e.phase(), phase, "{at}");
                assert!(e.worker() < 3, "{at}: worker {}", e.worker());
                if let Some(worker) = worker {
                    assert_eq!(e.worker(), worker, "{at}");
                }
            }
            let first = claimed;
            claimed += phases as u64;
            let records = pool.recorder().phase_records();
            assert!(
                records.windows(2).all(|w| w[0].seq < w[1].seq),
                "{at}: seqs distinct and increasing"
            );
            let mine: Vec<(u64, u64)> = records
                .iter()
                .filter(|r| r.seq >= first)
                .map(|r| (r.seq, r.phase))
                .collect();
            let closed: Vec<(u64, u64)> = (0..phases as u64).map(|ph| (first + ph, ph)).collect();
            assert_eq!(mine, closed, "{at}: this publish's phase records");
        }
    }
}
