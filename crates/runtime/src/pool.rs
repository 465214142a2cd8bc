//! A persistent worker pool with broadcast jobs and a completion barrier.
//!
//! The paper's execution model dedicates `P` processors to the application
//! (space sharing, §2.1); the pool mirrors that: `P` threads are spawned
//! once and reused for every parallel loop and phase, so per-loop overhead
//! is a broadcast + barrier, not thread creation.
//!
//! # The dispatch word
//!
//! The paper's kernels are nests of short parallel phases inside a
//! sequential loop (SOR runs 100+ steps × 2 phases), so once individual
//! grabs are lock-free the dominant runtime cost is the rendezvous around
//! each job. The pool's rendezvous is one atomic word: a monotone
//! generation and the number of workers still in that generation's job.
//! A claim CASes the word from free to claimed; a publish stores the job's
//! pointer and then, in one store, the next generation with the count of
//! live workers; each worker's last act on a job is one read-modify-write
//! (RMW) that takes itself off the count, and the RMW that reaches zero
//! frees the pool. Nobody reaps: the owner of a job — [`Pool::run`]'s
//! caller, or a [`DispatchTicket`]'s — only waits to see the word free at
//! or past its generation, then takes any failure its job recorded. The
//! ordering contract (DESIGN §9):
//!
//! * the job pointer is stored before the generation, so a worker that
//!   loads the generation reads the pointer it belongs to;
//! * a worker records its failure before its RMW;
//! * an owner reads failures, and marks its ticket finished, only after
//!   it sees the word free, so an unwind out of its wait still waits the
//!   job out before dropping it.
//!
//! Jobs are lent, not cloned: the word's cell holds a pointer. [`Pool::run`]
//! lends the caller's closure as `std::thread::scope` lends its
//! environment, and a ticket owns the `Arc` given to
//! [`DispatchSlot::publish`] and drops it on its owner's thread once the
//! word is free — never on a worker, which may not join the pool its job
//! happens to own the last handle to.
//!
//! Both sides wait on [`crate::wait`]'s spin → yield → park ladder — so an
//! oversubscribed pool (more workers than cores, e.g. a CI container)
//! degrades to blocking instead of burning timeslices, and on a dedicated
//! machine a phase turnaround is pure user-space stores and loads: zero
//! kernel round-trips. Workers sleep on one eventcount (`start`), owners
//! and claimers on another (`free`), and the pool derives each wait's
//! budget at build time from the one rule, [`crate::wait::spin_leg`]: a
//! worker's *start wait* and an owner's *free wait* each need the `P`
//! workers *and* the owner running (`P + 1` threads), the *in-region
//! barrier* ([`Pool::phase_barrier`]) only the `P` peers. The events are
//! `SeqCst` stores and RMWs on the word, which is all the ladder's
//! lost-wakeup argument asks of them.
//!
//! A pool can pin worker `i` to core `i mod cores`
//! ([`PoolBuilder::pin_cores`]), making AFS's deterministic
//! chunk→processor mapping physical cache affinity (see
//! [`crate::affinity`]).
//!
//! A pool can carry an [`afs_metrics::trace::TraceSink`]
//! ([`PoolBuilder::trace`]): the loop drivers in [`crate::parallel`] then
//! record scheduling events into the sink's per-worker lanes, and the pool
//! itself records a `BarrierRelease` on each lane when a worker leaves the
//! rendezvous — the closing half of the `BarrierArrive` the driver records
//! when the worker runs out of work. Without a sink, tracing costs nothing.

use crate::affinity;
use crate::fault::{FaultPlan, PhaseError};
use crate::source::PhaseSource;
use crate::wait::{self, Budget, EventCount, Worker, DEFAULT_SPINS, DEFAULT_YIELDS};
use crate::watchdog::Watchdog;
use afs_metrics::pad::CachePadded;
use afs_metrics::trace::{EventKind, TraceSink};
use afs_metrics::{FlightRecorder, MetricsRegistry, Trigger, WaitOutcome};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Arc<dyn Fn(usize) + Send + Sync>;

/// What the job cell holds: a lent job, live while its generation holds
/// the word.
type JobPtr = *const (dyn Fn(usize) + Send + Sync);

/// The dispatch word's low bits: how many workers are still in the job.
/// Free is 0, and [`CLAIMED`] marks a claim not yet published; the rest of
/// the word is the generation.
const COUNT_BITS: u32 = 16;
const COUNT: u64 = (1 << COUNT_BITS) - 1;
const CLAIMED: u64 = COUNT;

/// Whether a published job holds the word `w`: some worker is still in it.
fn in_job(w: u64) -> bool {
    !matches!(w & COUNT, 0 | CLAIMED)
}

/// Why [`Pool::try_dispatch`] refused a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryDispatchError {
    /// A previous job still holds the pool: some worker has not finished
    /// it, or another claim has not published yet. The pool broadcasts one
    /// job at a time.
    Busy,
}

impl std::fmt::Display for TryDispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TryDispatchError::Busy => write!(f, "a job is already in flight"),
        }
    }
}

impl std::error::Error for TryDispatchError {}

/// The published job's pointer. Plain memory, synchronized by the word:
/// only a claim's holder writes it, strictly before the `SeqCst` store
/// that publishes the generation, and workers read it strictly after
/// loading that generation; the next claim cannot begin until every
/// worker's RMW has left the generation, so no write overlaps a read.
struct JobCell(UnsafeCell<JobPtr>);

// SAFETY: see the protocol above — every access is ordered through the
// word, so no two threads ever touch the cell concurrently, and what it
// points to is `Send + Sync`.
unsafe impl Send for JobCell {}
// SAFETY: as for `Send`.
unsafe impl Sync for JobCell {}

/// The cell's content before the first publish, which no worker reads.
const NO_JOB: &(dyn Fn(usize) + Send + Sync) = &|_| {};

/// A closure [`Pool::try_run`] lends the workers: its address and the
/// function that calls it, with its type — and so its lifetime — erased.
#[derive(Clone, Copy)]
struct Lent {
    env: *const (),
    run: unsafe fn(*const (), usize),
}

// SAFETY: made only from a `&F` with `F: Send + Sync` (`Lent::new`), so
// calling it from any thread is what `F` allows.
unsafe impl Send for Lent {}
// SAFETY: as for `Send`.
unsafe impl Sync for Lent {}

impl Lent {
    fn new<F: Fn(usize) + Send + Sync>(job: &F) -> Lent {
        /// # Safety
        /// `env` is a `&F` that is still live.
        unsafe fn run<F: Fn(usize)>(env: *const (), worker: usize) {
            // SAFETY: the caller's contract.
            unsafe { (*env.cast::<F>())(worker) }
        }
        Lent {
            env: (job as *const F).cast(),
            run: run::<F>,
        }
    }

    /// Calls the lent closure.
    ///
    /// # Safety
    /// The closure this was made from is still live.
    unsafe fn call(self, worker: usize) {
        // SAFETY: `run` is the one `Lent::new` paired with `env`, which the
        // caller's contract keeps live.
        unsafe { (self.run)(self.env, worker) }
    }
}

struct Shared {
    /// The job of the current generation.
    job: JobCell,
    /// The dispatch word: `generation << COUNT_BITS | count`. Moved by
    /// `SeqCst` CASes, stores and RMWs only. Padded: every worker polls it.
    word: CachePadded<AtomicU64>,
    /// Set (once) when the pool is dropping; checked at every wait point.
    shutdown: AtomicBool,
    /// Where workers sleep for the next generation (or shutdown).
    start: EventCount,
    /// Where owners and claimers sleep for the word to go free. The
    /// events are the RMW that frees it and an unpublished claim's drop.
    free: EventCount,
    /// Panics that escaped a job closure — the first of each generation —
    /// until the generation's owner takes its own, which may be after
    /// later jobs ran and failed. Loop-body panics never reach this list —
    /// the drivers in [`crate::parallel`] contain them per chunk; this is
    /// the backstop for panics in raw [`Pool::run`] closures.
    failures: Mutex<Vec<(u64, PhaseError)>>,
    /// `failures.len()`, so an owner whose job failed nowhere takes no lock.
    failed: AtomicUsize,
    /// The start wait's budget.
    start_budget: Budget,
    /// The owner's free wait's budget ([`DispatchTicket::wait`]).
    free_budget: Budget,
    /// The budget [`Pool::phase_barrier`] hands its barrier.
    barrier_budget: Budget,
    /// The yield-injection seed (seeded stress tests only), so derived
    /// barriers can inject too.
    inject_seed: Option<u64>,
    /// Workers that successfully pinned themselves to a core.
    pinned: AtomicUsize,
    /// Always-on runtime metrics (cheap relaxed counters; see
    /// `afs_metrics` for the single-writer argument).
    metrics: Arc<MetricsRegistry>,
    /// Workers actually spawned. Equals the requested `p` unless thread
    /// creation failed partway and the pool degraded: a publish counts
    /// only these.
    live: AtomicUsize,
}

impl Shared {
    /// Records generation `gen`'s failure on `worker` (first wins when
    /// several workers race). A region's job re-raises its [`PhaseError`],
    /// which is kept as it is: it names the worker and phase that failed.
    fn record_failure(&self, gen: u64, worker: usize, payload: Box<dyn std::any::Any + Send>) {
        let mut failures = self.failures.lock().unwrap_or_else(|p| p.into_inner());
        if failures.iter().all(|(g, _)| *g != gen) {
            let e = match payload.downcast::<PhaseError>() {
                Ok(e) => *e,
                Err(payload) => PhaseError::new(worker, 0, payload),
            };
            failures.push((gen, e));
            self.failed.store(failures.len(), Ordering::SeqCst);
        }
    }

    /// Takes generation `gen`'s failure, for its owner. Call only once the
    /// word is free at or past `gen`: each worker records before its RMW.
    fn take_failure(&self, gen: u64) -> Option<PhaseError> {
        if self.failed.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let mut failures = self.failures.lock().unwrap_or_else(|p| p.into_inner());
        let i = failures.iter().position(|(g, _)| *g == gen)?;
        let (_, e) = failures.swap_remove(i);
        self.failed.store(failures.len(), Ordering::SeqCst);
        Some(e)
    }

    /// Claims the word if it is free: one `SeqCst` CAS, so safe as an
    /// eventcount's look. Returns the generation the claim publishes, or
    /// `None` while a job runs or another claim holds it. Never waits.
    fn try_claim(&self) -> Option<u64> {
        let ord = Ordering::SeqCst;
        let cur = self.word.load(ord);
        if cur & COUNT != 0 {
            return None;
        }
        self.word
            .compare_exchange(cur, cur | CLAIMED, ord, ord)
            .ok()?;
        Some((cur >> COUNT_BITS) + 1)
    }

    /// Whether every worker has left generation `gen`'s job. Published
    /// generations only grow, so once true it stays true.
    fn left(&self, gen: u64) -> bool {
        let w = self.word.load(Ordering::SeqCst);
        w >> COUNT_BITS > gen || !in_job(w)
    }

    /// Waits until the owner publishes a generation newer than `seen`.
    /// Returns the new generation, or `None` on shutdown.
    ///
    /// A job published before the shutdown flag went up still runs: its
    /// ticket may outlive the pool, and waits for this worker's RMW. The
    /// look loads the flag first, so when it sees shutdown it also sees
    /// every generation stored before it.
    fn wait_start(&self, idx: usize, seen: u64, sink: Option<&TraceSink>) -> Option<u64> {
        let who = Worker {
            counters: self.metrics.worker(idx),
            lane: sink.map(|s| (s, idx)),
        };
        let (gen, how) = self.start.wait(
            self.start_budget,
            Some(who),
            || {
                let down = self.shutdown.load(Ordering::SeqCst);
                let g = self.word.load(Ordering::SeqCst) >> COUNT_BITS;
                if g != seen {
                    Some(Some(g))
                } else {
                    down.then_some(None)
                }
            },
            |_| {},
        );
        // The shutdown wakeup is not a barrier arrival.
        if gen.is_some() {
            who.counters.record_barrier_wait(how);
        }
        gen
    }

    /// A worker's last act on a job: takes itself off the count, and the
    /// worker that empties it frees the pool and wakes the owners and
    /// claimers asleep on it.
    fn leave(&self) {
        if self.word.fetch_sub(1, Ordering::SeqCst) & COUNT == 1 {
            self.free.notify();
        }
    }
}

/// A fixed-size pool of worker threads, indexed `0..p`.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    p: usize,
    trace: Option<Arc<TraceSink>>,
    faults: Option<Arc<FaultPlan>>,
    deadline: Option<Duration>,
    watchdog: Option<Watchdog>,
    /// Always-on black box (see [`FlightRecorder`]): phase summaries accumulate
    /// in a bounded ring; a trigger (stall, contained panic, spawn
    /// degradation, shed spike) dumps it to the configured directory.
    recorder: Arc<FlightRecorder>,
    /// The last finished region's work source, for the next region to
    /// re-arm instead of building one ([`crate::parallel`]). The pool's
    /// sink, registry and P are fixed, so any spare fits any region.
    spare: Arc<crate::sync::Mutex<Option<PhaseSource>>>,
}

/// Configures and builds a [`Pool`].
///
/// ```
/// use afs_runtime::pool::Pool;
/// let pool = Pool::builder(4).pin_cores(true).build();
/// assert_eq!(pool.workers(), 4);
/// ```
pub struct PoolBuilder {
    p: usize,
    pin: bool,
    spins: u32,
    yields: u32,
    trace: Option<Arc<TraceSink>>,
    inject_seed: Option<u64>,
    faults: Option<Arc<FaultPlan>>,
    watchdog: Option<Duration>,
    deadline: Option<Duration>,
    fail_spawn_after: Option<usize>,
    flight_dir: Option<std::path::PathBuf>,
}

impl PoolBuilder {
    /// Pins worker `i` to core `i mod cores` at spawn (best-effort; no-op
    /// off Linux). Default: off.
    pub fn pin_cores(mut self, on: bool) -> Self {
        self.pin = on;
        self
    }

    /// Overrides the spin budget: `spins` busy iterations, then `yields`
    /// rounds of `yield_now`, then parking. Each of the pool's waits cuts
    /// `spins` down by [`crate::wait::spin_leg`] when its waiter would
    /// hold a core from a thread it is waiting for.
    pub fn spin_budget(mut self, spins: u32, yields: u32) -> Self {
        self.spins = spins;
        self.yields = yields;
        self
    }

    /// Records scheduling and barrier events into `sink` (one lane per
    /// worker; the sink must have at least `p` lanes).
    pub fn trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Deterministically injects `yield_now` at the barrier's sense-flip
    /// points (seeded interleaving stress tests only).
    #[doc(hidden)]
    pub fn yield_injection(mut self, seed: u64) -> Self {
        self.inject_seed = Some(seed);
        self
    }

    /// Attaches a seeded, replayable [`FaultPlan`]: delayed starts,
    /// mid-phase stalls, random preemption slices and panic triggers, all
    /// applied by the loop drivers in [`crate::parallel`]. Zero-cost when
    /// absent (the hot paths check one `Option` that is `None`).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Starts a stall watchdog that samples every worker's heartbeat
    /// counter at `interval`: a worker whose heartbeat is frozen across an
    /// interval while a job is running — and which is not waiting at a
    /// barrier — is flagged via `MetricsRegistry::record_stall` and (when
    /// the pool's trace sink has a spare lane beyond the workers') a
    /// `StallDetected` trace event. Detection only; nothing is killed.
    pub fn watchdog(mut self, interval: Duration) -> Self {
        self.watchdog = Some(interval);
        self
    }

    /// Flags phases that take longer than `dur`, measured
    /// barrier-to-barrier, by bumping the registry's deadline-miss
    /// counter. Detection only.
    pub fn phase_deadline(mut self, dur: Duration) -> Self {
        self.deadline = Some(dur);
        self
    }

    /// Simulates thread-spawn failure for workers `n..p` (degradation
    /// tests only — real spawn failures take the same path).
    #[doc(hidden)]
    pub fn fail_spawn_after(mut self, n: usize) -> Self {
        self.fail_spawn_after = Some(n);
        self
    }

    /// Directory the pool's flight recorder dumps into when a trigger
    /// fires (stall, contained panic, spawn degradation, shed spike).
    /// Without it, triggers count but nothing is written.
    pub fn flight_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.flight_dir = Some(dir.into());
        self
    }

    /// Spawns the workers and returns the pool.
    ///
    /// Panics if `p == 0` or an attached sink has fewer than `p` lanes.
    pub fn build(self) -> Pool {
        let p = self.p;
        assert!(p >= 1, "need at least one worker");
        assert!((p as u64) < CLAIMED, "at most {} workers", CLAIMED - 1);
        if let Some(sink) = &self.trace {
            assert!(
                sink.workers() >= p,
                "trace sink has {} lanes but the pool needs {p}",
                sink.workers()
            );
        }
        let cores = affinity::core_count();
        let (spins, yields) = (self.spins, self.yields);
        let shared = Arc::new(Shared {
            job: JobCell(UnsafeCell::new(NO_JOB)),
            word: CachePadded::default(),
            shutdown: AtomicBool::new(false),
            start: EventCount::with_injection(self.inject_seed),
            // A distinct stream, so the two sides' injection decisions
            // don't mirror each other.
            free: EventCount::with_injection(self.inject_seed.map(|s| s ^ 0x5107_5107_5107_5107)),
            failures: Mutex::new(Vec::new()),
            failed: AtomicUsize::new(0),
            start_budget: Budget {
                spins: wait::spin_leg(spins, p + 1, cores),
                yields,
            },
            free_budget: Budget {
                spins: wait::spin_leg(spins, p + 1, cores),
                yields: wait::coordinator_yields(yields, p, cores),
            },
            barrier_budget: Budget {
                spins: wait::spin_leg(spins, p, cores),
                yields,
            },
            inject_seed: self.inject_seed,
            pinned: AtomicUsize::new(0),
            metrics: Arc::new(MetricsRegistry::new(p)),
            live: AtomicUsize::new(p),
        });
        // Worker `i` pins to core `i mod cores`, recorded in the metrics
        // registry so snapshots show where each worker runs.
        let mut handles = Vec::with_capacity(p);
        for idx in 0..p {
            let worker_shared = Arc::clone(&shared);
            let sink = self.trace.clone();
            let pin_to = self.pin.then_some(idx % cores);
            let spawned = if self.fail_spawn_after.is_some_and(|n| idx >= n) {
                Err(std::io::Error::other("simulated spawn failure"))
            } else {
                std::thread::Builder::new()
                    .name(format!("afs-worker-{idx}"))
                    .spawn(move || worker_loop(idx, &worker_shared, pin_to, sink))
            };
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // Graceful degradation: run with the workers that did
                    // start rather than panicking with some already live.
                    eprintln!("afs-runtime: could not spawn worker {idx}: {e}");
                    break;
                }
            }
        }
        let live = handles.len();
        assert!(live >= 1, "failed to spawn any worker");
        shared.live.store(live, Ordering::Relaxed);
        shared.metrics.set_effective_workers(live);
        let recorder = Arc::new(FlightRecorder::new(live));
        if let Some(dir) = self.flight_dir {
            recorder.set_dump_dir(dir);
        }
        if live < p {
            eprintln!("afs-runtime: pool degraded to {live} of {p} requested workers");
            recorder.trigger(Trigger::SpawnDegraded { live, requested: p });
        }
        let mut pool = Pool {
            shared,
            handles,
            p: live,
            trace: self.trace,
            faults: self.faults,
            deadline: self.deadline,
            watchdog: None,
            recorder,
            spare: Arc::default(),
        };
        if self.pin {
            // One sync round so every worker has started (and pinned)
            // before the first real phase — `pinned_workers` is then exact.
            pool.run(|_| {});
            let pinned = pool.pinned_workers();
            let total = pool.workers();
            if pinned < total {
                // Once per pool, with the partial-pin count spelled out:
                // per-worker detail is in the metrics snapshot
                // (`WorkerSnapshot::pinned` / `pinned_core`).
                eprintln!(
                    "afs-runtime: pinned {pinned} of {total} workers ({} pin calls failed); \
                     affinity is advisory on this host",
                    total - pinned
                );
            }
        }
        if let Some(interval) = self.watchdog {
            let shared = Arc::clone(&pool.shared);
            pool.watchdog = Some(Watchdog::spawn(
                interval,
                Arc::clone(&pool.shared.metrics),
                move || in_job(shared.word.load(Ordering::SeqCst)),
                pool.trace.clone(),
                live,
                Arc::clone(&pool.recorder),
            ));
        }
        pool
    }
}

impl Pool {
    /// Starts configuring a pool of `p` workers.
    pub fn builder(p: usize) -> PoolBuilder {
        PoolBuilder {
            p,
            pin: false,
            spins: DEFAULT_SPINS,
            yields: DEFAULT_YIELDS,
            trace: None,
            inject_seed: None,
            faults: None,
            watchdog: None,
            deadline: None,
            fail_spawn_after: None,
            flight_dir: None,
        }
    }

    /// Spawns `p` workers with the default spin/yield budgets. Panics if
    /// `p == 0`.
    pub fn new(p: usize) -> Self {
        Self::builder(p).build()
    }

    /// Spawns `p` workers that record scheduling events into `sink`.
    ///
    /// The sink must have at least `p` lanes (one per worker); the same
    /// sink keeps accumulating across every loop and phase run on this
    /// pool, so one trace can span a whole multi-loop application.
    pub fn with_trace(p: usize, sink: Arc<TraceSink>) -> Self {
        Self::builder(p).trace(sink).build()
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.p
    }

    /// How many workers successfully pinned themselves to a core. Exact
    /// once the first job has completed (always, for pools built with
    /// `pin_cores(true)`, which run a sync round at build time).
    pub fn pinned_workers(&self) -> usize {
        self.shared.pinned.load(Ordering::SeqCst)
    }

    /// The trace sink attached at construction, if any.
    pub fn trace(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    /// The pool's always-on metrics registry. Take a
    /// [`afs_metrics::MetricsSnapshot`] before and after a region and
    /// subtract (`delta_since`) to attribute activity to that region.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// The pool's black-box flight recorder (always on; dumps only when a
    /// trigger fires and a dump directory is configured).
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The fault plan attached at construction, if any: the one the fused
    /// phase driver applies to every region, serving batches included.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The spare work source a region takes and returns.
    pub(crate) fn spare_source(&self) -> &Arc<crate::sync::Mutex<Option<PhaseSource>>> {
        &self.spare
    }

    /// The per-phase deadline, if one was configured.
    pub(crate) fn phase_deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// A [`crate::barrier::SenseBarrier`] for this pool's worker party,
    /// inheriting the pool's spin/yield budgets (and injection seed, when
    /// stressed). The fused phase driver uses it to chain phases
    /// worker-to-worker without a coordinator round-trip per phase; a
    /// caller timing the barrier on its own can do the same.
    pub fn phase_barrier(&self) -> crate::barrier::SenseBarrier {
        let s = &self.shared;
        let barrier = crate::barrier::SenseBarrier::with_injection(
            self.p,
            s.barrier_budget,
            // A distinct stream so pool and barrier injection decisions
            // don't mirror each other.
            s.inject_seed.map(|seed| seed ^ 0x5EB0_5EB0_5EB0_5EB0),
        );
        let barrier = barrier.with_metrics(Arc::clone(&s.metrics));
        match &self.trace {
            Some(sink) => barrier.with_trace(Arc::clone(sink)),
            None => barrier,
        }
    }

    /// Runs `job(worker_index)` on every worker and waits for all to finish.
    ///
    /// A panic in `job` is caught on the worker (the rendezvous still
    /// completes — no deadlock, no abort) and re-raised here on the caller
    /// via [`std::panic::resume_unwind`]. Use [`Pool::try_run`] to receive
    /// it as a [`PhaseError`] instead.
    pub fn run(&self, job: impl Fn(usize) + Send + Sync) {
        if let Err(e) = self.try_run(job) {
            std::panic::resume_unwind(e.into_payload());
        }
    }

    /// Like [`Pool::run`], but a panic in `job` is returned as
    /// `Err(PhaseError)` — carrying the worker id and panic payload —
    /// instead of propagating. The pool remains fully usable afterward.
    pub fn try_run(&self, job: impl Fn(usize) + Send + Sync) -> Result<(), PhaseError> {
        self.run_lent(Lent::new(&job))
    }

    /// Publishes `lent` and waits for every worker to leave it. Not
    /// generic, so the shim is `'static`: it holds only `lent`.
    fn run_lent(&self, lent: Lent) -> Result<(), PhaseError> {
        // SAFETY: the closure `lent` was made from outlives this call, and
        // the ticket's wait — or its drop, should anything unwind — returns
        // only once every worker has left the job.
        let shim = move |worker| unsafe { lent.call(worker) };
        // No yield grace: whoever holds the pool may be running a whole
        // nest, and its last worker out wakes this caller.
        self.claim(0, |_| {}).lend(&shim, None).wait()
    }

    /// Claims the pool without waiting, so the caller can build a job
    /// knowing no other one can start first, and then
    /// [`DispatchSlot::publish`] it. A job every worker has left does not
    /// block the claim, whether or not its ticket has been waited for.
    /// Fails with [`TryDispatchError::Busy`] while another job runs.
    pub fn try_claim(&self) -> Result<DispatchSlot, TryDispatchError> {
        self.shared
            .try_claim()
            .map(|gen| DispatchSlot::new(&self.shared, gen))
            .ok_or(TryDispatchError::Busy)
    }

    /// [`Pool::try_claim`] for a caller that will wait for a busy pool:
    /// retries for `grace` yield rounds, then sleeps until the job in
    /// flight is finished. `on_leg` hears `Yield` before every yield and
    /// `Park` before sleeping, as in [`crate::wait::EventCount::wait`]; a
    /// free pool is taken on the first look, with no leg heard.
    pub fn claim(&self, grace: u32, on_leg: impl FnMut(WaitOutcome)) -> DispatchSlot {
        let s = &self.shared;
        let gen = s.try_claim().unwrap_or_else(|| {
            let look = || s.try_claim();
            s.free.wait(Budget::yielding(grace), None, look, on_leg).0
        });
        DispatchSlot::new(s, gen)
    }

    /// Starts `job(worker_index)` on every worker **without waiting** for
    /// completion. Returns a [`DispatchTicket`] whose owner polls
    /// [`DispatchTicket::is_complete`] and eventually calls
    /// [`DispatchTicket::wait`]; fails with [`TryDispatchError::Busy`] if
    /// a previous job (from `run` or another ticket) is still in flight.
    ///
    /// The job must be `'static` (an `Arc` closure): unlike [`Pool::run`],
    /// the caller keeps executing while workers hold the job. The serving
    /// frontend uses this to keep draining its admission queue during a
    /// dispatch instead of blocking at the rendezvous.
    pub fn try_dispatch(
        &self,
        job: Arc<dyn Fn(usize) + Send + Sync>,
    ) -> Result<DispatchTicket, TryDispatchError> {
        self.try_claim().map(|slot| slot.publish(job))
    }
}

/// The pool, claimed and not yet published ([`Pool::try_claim`],
/// [`Pool::claim`]). No other job can start while it lives; dropping it
/// unpublished frees the pool again.
pub struct DispatchSlot {
    /// `Some` until published or dropped.
    shared: Option<Arc<Shared>>,
    /// The generation this claim publishes.
    gen: u64,
}

impl DispatchSlot {
    fn new(shared: &Arc<Shared>, gen: u64) -> DispatchSlot {
        DispatchSlot {
            shared: Some(Arc::clone(shared)),
            gen,
        }
    }

    /// Publishes `job` as the claimed generation and returns its ticket,
    /// which owns `job` until every worker has left it.
    pub fn publish(self, job: Arc<dyn Fn(usize) + Send + Sync>) -> DispatchTicket {
        let ptr = Arc::as_ptr(&job);
        self.lend(ptr, Some(job))
    }

    /// Lends the workers `job`, which must stay live until the returned
    /// ticket sees every worker leave it: `owned` when the ticket owns it.
    fn lend(mut self, job: JobPtr, owned: Option<Job>) -> DispatchTicket {
        let shared = self.shared.take().expect("an unpublished slot");
        let gen = self.gen;
        // SAFETY: the claim made this thread the word's only holder, and
        // no worker reads the cell until it loads `gen`, stored below.
        unsafe { *shared.job.0.get() = job };
        shared.start.inject_point();
        let live = shared.live.load(Ordering::Relaxed) as u64;
        shared
            .word
            .store((gen << COUNT_BITS) | live, Ordering::SeqCst);
        shared.start.notify();
        DispatchTicket {
            shared,
            gen,
            job: owned,
            finished: false,
        }
    }
}

impl Drop for DispatchSlot {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.take() {
            shared
                .word
                .store((self.gen - 1) << COUNT_BITS, Ordering::SeqCst);
            shared.free.notify();
        }
    }
}

/// An in-flight broadcast job ([`Pool::try_dispatch`],
/// [`DispatchSlot::publish`]).
///
/// While the job runs no other job can start (`run` sleeps,
/// `try_dispatch` returns `Busy`); the last worker to leave it frees the
/// pool, whether or not anyone waits on this ticket. The ticket owns the
/// job, and [`DispatchTicket::wait`], [`DispatchTicket::wait_parked`] or
/// drop wait for the job to be left, drop it on their own thread and
/// return its first escaped panic — even after later jobs have run and
/// failed. It is an owned `Send + 'static` handle: the thread that
/// published the job need not be the one that waits, and it may outlive
/// the [`Pool`] (whose workers run a job published before the drop, then
/// exit). Poll [`DispatchTicket::is_complete`] to overlap work with the
/// job. Dropping the ticket waits if needed but discards any job panic.
/// Leaking it (`mem::forget`) leaks the job and the panic it would have
/// returned.
pub struct DispatchTicket {
    shared: Arc<Shared>,
    gen: u64,
    /// The job [`DispatchSlot::publish`] was given (`None` for one
    /// [`Pool::try_run`] lends, or once finished).
    job: Option<Job>,
    /// Set once the owner has seen the job left and taken its failure.
    finished: bool,
}

impl DispatchTicket {
    /// Whether every worker has finished the job. Non-blocking; once true
    /// it stays true, and [`DispatchTicket::wait`] will not block.
    pub fn is_complete(&self) -> bool {
        self.shared.left(self.gen)
    }

    /// Waits for every worker to finish the job. A panic in the job
    /// surfaces as `Err(PhaseError)`, exactly like [`Pool::try_run`].
    pub fn wait(mut self) -> Result<(), PhaseError> {
        let budget = self.shared.free_budget;
        self.finish(budget, |_| {})
    }

    /// [`DispatchTicket::wait`] for an owner that would rather sleep than
    /// spin, and has work of its own meanwhile: no spin leg, `grace` yield
    /// rounds with `on_leg(Yield)` before each, then `on_leg(Park)` and
    /// sleep until the last worker leaves. A caller that keeps polling a
    /// long job stays runnable throughout, and on a host with no spare
    /// core that takes a core from the workers it is waiting for.
    pub fn wait_parked(
        mut self,
        grace: u32,
        on_leg: impl FnMut(WaitOutcome),
    ) -> Result<(), PhaseError> {
        self.finish(Budget::yielding(grace), on_leg)
    }

    /// Waits, once, until every worker has left the job, then drops the
    /// job and takes the failure its workers recorded. `finished` is set
    /// only past the wait: should `on_leg` panic, the drop the unwind
    /// runs waits the job out again before the job can go.
    fn finish(
        &mut self,
        budget: Budget,
        on_leg: impl FnMut(WaitOutcome),
    ) -> Result<(), PhaseError> {
        if self.finished {
            return Ok(());
        }
        let (shared, gen) = (&*self.shared, self.gen);
        let left = || shared.left(gen).then_some(());
        shared.free.wait(budget, None, left, on_leg);
        self.finished = true;
        shared.free.inject_point();
        let failure = shared.take_failure(gen);
        // No worker holds the job any more. When it owns the last
        // `Arc<Pool>` this drops the pool here, on the owner's thread,
        // and this ticket's `Arc<Shared>` keeps the word alive.
        self.job = None;
        failure.map_or(Ok(()), Err)
    }
}

impl Drop for DispatchTicket {
    fn drop(&mut self) {
        // A dropped ticket still waits the job out, so the job's
        // environment outlives its workers; its panic (if any) is
        // discarded here.
        let budget = self.shared.free_budget;
        let _ = self.finish(budget, |_| {});
    }
}

fn worker_loop(idx: usize, shared: &Shared, pin_to: Option<usize>, sink: Option<Arc<TraceSink>>) {
    if let Some(cpu) = pin_to {
        let ok = affinity::pin_current_to(cpu);
        if ok {
            shared.pinned.fetch_add(1, Ordering::SeqCst);
            shared.metrics.set_worker_placement(idx, cpu);
        }
        shared.metrics.set_pin_status(idx, ok);
    }
    let mut seen = 0u64;
    while let Some(gen) = shared.wait_start(idx, seen, sink.as_deref()) {
        seen = gen;
        // SAFETY: the owner wrote the cell before storing `gen` (both word
        // accesses SeqCst ⇒ synchronizes-with), and the job it points to
        // stays live, and the cell unwritten, until this worker leaves.
        let job = unsafe { &**shared.job.0.get() };
        if let Some(sink) = &sink {
            // Closes the BarrierArrive the loop driver recorded when this
            // worker ran out of work last phase (the first release of a
            // pool's life has no arrive; consumers ignore it).
            sink.record(idx, EventKind::BarrierRelease);
        }
        // Contain panics: the RMW below must happen no matter what the job
        // did, or its owner would wait forever. The payload travels back
        // through `failures`, recorded strictly before the RMW.
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(idx))) {
            shared.record_failure(gen, idx, payload);
        }
        shared.free.inject_point();
        // Past this the job may be gone: its owner may have returned.
        shared.leave();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Stop the watchdog first: once shutdown wakes the workers their
        // heartbeats freeze legitimately.
        if let Some(w) = self.watchdog.take() {
            w.stop();
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.start.notify();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Everything is quiescent: write any pending flight-recorder dump
        // (covers triggers with no later phase boundary).
        self.recorder.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn every_worker_runs_once() {
        let pool = Pool::new(4);
        let hits = [const { AtomicUsize::new(0) }; 4];
        pool.run(|w| {
            hits[w].fetch_add(1, Ordering::SeqCst);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn jobs_are_sequential_barriers() {
        let pool = Pool::new(3);
        let counter = AtomicU64::new(0);
        for round in 0..10u64 {
            pool.run(|_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(counter.load(Ordering::SeqCst), (round + 1) * 3);
        }
    }

    #[test]
    fn borrows_local_state() {
        let pool = Pool::new(2);
        let data = [1u64, 2, 3, 4];
        let sum = AtomicU64::new(0);
        pool.run(|w| {
            // Borrow both `data` and `sum` from the enclosing stack frame.
            sum.fetch_add(data[w], Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn single_worker_pool() {
        let pool = Pool::new(1);
        let flag = std::sync::atomic::AtomicBool::new(false);
        pool.run(|w| {
            assert_eq!(w, 0);
            flag.store(true, Ordering::SeqCst);
        });
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = Pool::new(4);
        pool.run(|_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn oversubscribed_pool_completes() {
        // More workers than this machine has cores: the spin barrier must
        // degrade to yielding/parking, not livelock.
        let pool = Pool::builder(16).spin_budget(u32::MAX, 2).build();
        let counter = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50 * 16);
    }

    #[test]
    fn zero_budget_spin_pool_parks_and_completes() {
        let pool = Pool::builder(4).spin_budget(0, 0).build();
        let counter = AtomicU64::new(0);
        for _ in 0..20 {
            pool.run(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 80);
    }

    #[test]
    fn pinned_pool_reports_pinned_workers() {
        let pool = Pool::builder(3).pin_cores(true).build();
        if cfg!(target_os = "linux") {
            assert_eq!(pool.pinned_workers(), 3);
        } else {
            assert_eq!(pool.pinned_workers(), 0);
        }
        // Pinning must not affect correctness.
        let counter = AtomicU64::new(0);
        pool.run(|_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 3);
        // Unpinned pools report zero.
        assert_eq!(Pool::new(2).pinned_workers(), 0);
    }

    #[test]
    fn with_trace_exposes_sink() {
        let sink = Arc::new(TraceSink::new(2));
        let pool = Pool::with_trace(2, Arc::clone(&sink));
        assert!(pool.trace().is_some());
        assert_eq!(pool.trace().unwrap().workers(), 2);
        assert!(Pool::new(2).trace().is_none());
    }

    #[test]
    fn pool_records_barrier_release_per_job() {
        let sink = Arc::new(TraceSink::new(2));
        let pool = Pool::with_trace(2, Arc::clone(&sink));
        pool.run(|_| {});
        pool.run(|_| {});
        drop(pool);
        for w in 0..2 {
            let releases = sink
                .events(w)
                .iter()
                .filter(|e| e.kind == EventKind::BarrierRelease)
                .count();
            assert_eq!(releases, 2, "worker {w}");
        }
    }

    #[test]
    #[should_panic(expected = "lanes")]
    fn with_trace_rejects_undersized_sink() {
        let sink = Arc::new(TraceSink::new(1));
        let _ = Pool::with_trace(4, sink);
    }

    #[test]
    fn job_panic_is_contained_and_pool_survives() {
        let pool = Pool::new(3);
        let err = pool
            .try_run(|w| {
                if w == 1 {
                    panic!("job blew up");
                }
            })
            .unwrap_err();
        assert_eq!(err.worker(), 1);
        assert_eq!(err.message(), Some("job blew up"));
        // The rendezvous completed and the pool is still usable.
        let counter = AtomicU64::new(0);
        pool.try_run(|_| {
            counter.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    #[should_panic(expected = "job blew up")]
    fn run_reraises_the_worker_panic() {
        let pool = Pool::new(2);
        pool.run(|w| {
            if w == 0 {
                panic!("job blew up");
            }
        });
    }

    #[test]
    fn first_failure_wins_when_all_workers_panic() {
        let pool = Pool::new(4);
        let err = pool.try_run(|_| panic!("everyone")).unwrap_err();
        assert!(err.worker() < 4);
        assert_eq!(err.message(), Some("everyone"));
        pool.try_run(|_| {}).unwrap();
    }

    #[test]
    fn spawn_failure_degrades_to_started_workers() {
        let pool = Pool::builder(4).fail_spawn_after(2).build();
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.metrics().effective_workers(), 2);
        assert_eq!(pool.metrics().workers(), 4, "registry keeps requested P");
        let counter = AtomicU64::new(0);
        for _ in 0..5 {
            pool.run(|w| {
                assert!(w < 2);
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        assert_eq!(pool.metrics().snapshot().effective_workers, 2);
    }

    #[test]
    fn try_dispatch_runs_and_completes() {
        let pool = Pool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        let ticket = pool
            .try_dispatch(Arc::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        // Poll to completion, then collect.
        while !ticket.is_complete() {
            std::thread::yield_now();
        }
        ticket.wait().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn try_dispatch_reports_busy_while_in_flight() {
        let pool = Pool::new(2);
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let ticket = pool
            .try_dispatch(Arc::new(move |_| {
                while !g.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }))
            .unwrap();
        assert!(!ticket.is_complete());
        assert_eq!(
            pool.try_dispatch(Arc::new(|_| {})).err(),
            Some(TryDispatchError::Busy)
        );
        gate.store(true, Ordering::SeqCst);
        ticket.wait().unwrap();
        // Slot released: the next dispatch is accepted.
        pool.try_dispatch(Arc::new(|_| {})).unwrap().wait().unwrap();
    }

    #[test]
    fn the_pool_stays_busy_until_its_last_worker_leaves() {
        let (left, gate) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let (l, g) = (Arc::clone(&left), Arc::clone(&gate));
        // Held past the pool's drop, so that a pool freed too early fails
        // the assertion below rather than freeing a job a worker is in.
        let job: Job = Arc::new(move |w| {
            if w == 0 {
                l.store(true, Ordering::SeqCst);
                return;
            }
            while !g.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        let pool = Pool::new(2);
        let ticket = pool.try_dispatch(Arc::clone(&job)).unwrap();
        while !left.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // Worker 0 is out, or about to be; worker 1 is still in the job.
        let busy = (0..1_000).all(|_| {
            std::thread::yield_now();
            !ticket.is_complete() && pool.try_claim().is_err()
        });
        // Opened before asserting, so a failure does not leave worker 1
        // gated and the pool's drop waiting on it.
        gate.store(true, Ordering::SeqCst);
        ticket.wait().unwrap();
        assert!(busy, "the pool went free with a worker in the job");
        assert!(pool.try_claim().is_ok());
    }

    #[test]
    fn dispatch_yields_its_grace_then_blocks_on_a_held_pool() {
        let pool = Pool::new(2);
        let (entered, blocked, ran) = (
            AtomicBool::new(false),
            AtomicBool::new(false),
            Arc::new(AtomicU64::new(0)),
        );
        let mut legs = Vec::new();
        std::thread::scope(|s| {
            // A blocking run holds the dispatch slot until `claim`
            // below has given up yielding.
            s.spawn(|| {
                pool.run(|_| {
                    entered.store(true, Ordering::SeqCst);
                    while !blocked.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                })
            });
            while !entered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let r = Arc::clone(&ran);
            let job = Arc::new(move |_| {
                r.fetch_add(1, Ordering::SeqCst);
            });
            let slot = pool.claim(3, |leg| {
                legs.push(leg);
                if leg == WaitOutcome::Park {
                    blocked.store(true, Ordering::SeqCst);
                }
            });
            slot.publish(job).wait().unwrap();
        });
        use WaitOutcome::{Park, Yield};
        assert_eq!(legs, [Yield, Yield, Yield, Park]);
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        // A free pool is taken on the first look: no leg is heard.
        let slot = pool.claim(3, |leg| legs.push(leg));
        slot.publish(Arc::new(|_| {})).wait().unwrap();
        assert_eq!(legs.len(), 4);
    }

    #[test]
    fn wait_parked_sleeps_through_a_gated_job_and_returns_its_panic() {
        let pool = Pool::new(2);
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let ticket = pool
            .try_dispatch(Arc::new(move |w| {
                while !g.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                if w == 1 {
                    panic!("after the gate");
                }
            }))
            .unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Open the gate only once the waiter below has
                // registered for its park.
                while pool.shared.free.sleepers() == 0 {
                    std::thread::yield_now();
                }
                gate.store(true, Ordering::SeqCst);
            });
            let err = ticket
                .wait_parked(0, |_| {})
                .expect_err("worker 1 panicked");
            assert_eq!(err.worker(), 1);
        });
        // Already complete: returns without blocking, slot released.
        let ticket = pool.try_dispatch(Arc::new(|_| {})).unwrap();
        while !ticket.is_complete() {
            std::thread::yield_now();
        }
        ticket.wait_parked(0, |_| {}).unwrap();
        pool.run(|_| {});
    }

    #[test]
    fn a_panic_in_wait_parkeds_leg_still_waits_the_job_out() {
        struct Marks(Arc<AtomicBool>);
        impl Drop for Marks {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let pool = Pool::new(2);
        let (gate, dropped) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let left = Arc::new(AtomicU64::new(0));
        let (g, l, marks) = (
            Arc::clone(&gate),
            Arc::clone(&left),
            Marks(Arc::clone(&dropped)),
        );
        let ticket = pool
            .try_dispatch(Arc::new(move |_| {
                let _ = &marks;
                while !g.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                l.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        let heard = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Open the gate once the unwind's drop sleeps on the job
                // (the leg panics before its own wait registers), or
                // after a bound, should the drop not wait at all.
                while !heard.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                let t = std::time::Instant::now();
                while pool.shared.free.sleepers() == 0 && t.elapsed() < Duration::from_secs(1) {
                    std::thread::yield_now();
                }
                gate.store(true, Ordering::SeqCst);
            });
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ticket.wait_parked(0, |_| {
                    heard.store(true, Ordering::SeqCst);
                    panic!("the owner's leg");
                })
            }));
            assert!(unwound.is_err());
            assert_eq!(
                left.load(Ordering::SeqCst),
                2,
                "the unwind dropped the job with workers in it"
            );
            assert!(dropped.load(Ordering::SeqCst));
        });
        pool.run(|_| {});
    }

    #[test]
    fn dropped_ticket_releases_the_slot() {
        let pool = Pool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        drop(pool.try_dispatch(Arc::new(move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        })));
        // Drop completed the rendezvous; the pool is immediately reusable
        // and the job ran exactly once per worker.
        assert_eq!(counter.load(Ordering::SeqCst), 2);
        let counter2 = AtomicU64::new(0);
        pool.run(|_| {
            counter2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter2.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn ticket_wait_surfaces_job_panics() {
        let pool = Pool::new(3);
        let err = pool
            .try_dispatch(Arc::new(|w| {
                if w == 2 {
                    panic!("ticket job blew up");
                }
            }))
            .unwrap()
            .wait()
            .unwrap_err();
        assert_eq!(err.worker(), 2);
        assert_eq!(err.message(), Some("ticket job blew up"));
        pool.try_run(|_| {}).unwrap();
    }

    #[test]
    fn tickets_interleave_with_blocking_runs() {
        let pool = Pool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            let t = pool
                .try_dispatch(Arc::new(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                }))
                .unwrap();
            t.wait().unwrap();
            pool.run(|_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 10 * 2 * 2);
    }

    #[test]
    fn pin_status_lands_in_snapshot() {
        let pool = Pool::builder(2).pin_cores(true).build();
        let snap = pool.metrics().snapshot();
        if cfg!(target_os = "linux") {
            assert!(snap.workers.iter().all(|w| w.pinned == Some(true)));
        }
        // Unpinned pools never report a pin opinion.
        let plain = Pool::new(2);
        plain.run(|_| {});
        assert!(plain
            .metrics()
            .snapshot()
            .workers
            .iter()
            .all(|w| w.pinned.is_none()));
    }
}
