//! A persistent worker pool with broadcast jobs and a completion barrier.
//!
//! The paper's execution model dedicates `P` processors to the application
//! (space sharing, §2.1); the pool mirrors that: `P` threads are spawned
//! once and reused for every parallel loop and phase, so per-loop overhead
//! is a broadcast + barrier, not thread creation.
//!
//! # The phase rendezvous
//!
//! The paper's kernels are nests of short parallel phases inside a
//! sequential loop (SOR runs 100+ steps × 2 phases), so once individual
//! grabs are lock-free the dominant runtime cost is the per-phase
//! rendezvous itself. The pool has one protocol: a sense-reversing
//! barrier. The "sense" is a monotone 64-bit generation, published into one
//! `CachePadded` flag per worker (local spinning: each worker's flag line
//! is invalidated exactly once per phase, there is no broadcast storm on a
//! shared word), with per-worker padded ack slots on the completion side.
//! Both sides wait on [`crate::wait`]'s spin → yield → park ladder — so an
//! oversubscribed pool (more workers than cores, e.g. a CI container)
//! degrades to blocking instead of burning timeslices, and on a dedicated
//! machine a phase turnaround is pure user-space stores and loads: zero
//! kernel round-trips. The pool has three waits and derives each one's
//! budget at build time from the one rule, [`crate::wait::spin_leg`]: a
//! worker's *start wait* and the coordinator's *ack wait* each need the
//! `P` workers *and* the coordinator running (`P + 1` threads), the
//! *in-region barrier* ([`Pool::phase_barrier`]) only the `P` peers. The
//! events are the `SeqCst` stores into the per-worker start flags and ack
//! slots, which is all the ladder's lost-wakeup argument asks of them.
//!
//! A pool can pin worker `i` to core `i mod cores`
//! ([`PoolBuilder::pin_cores`]), making AFS's deterministic
//! chunk→processor mapping physical cache affinity (see
//! [`crate::affinity`]).
//!
//! A pool can carry an [`afs_trace::TraceSink`] ([`PoolBuilder::trace`]):
//! the loop drivers in [`crate::parallel`] then record scheduling events
//! into the sink's per-worker lanes, and the pool itself records a
//! `BarrierRelease` on each lane when a worker leaves the rendezvous — the
//! closing half of the `BarrierArrive` the driver records when the worker
//! runs out of work. Without a sink, tracing costs nothing.

use crate::affinity;
use crate::fault::{FaultPlan, PanicPolicy, PhaseError};
use crate::wait::{self, Budget, EventCount, Worker, DEFAULT_SPINS, DEFAULT_YIELDS};
use crate::watchdog::Watchdog;
use afs_metrics::pad::CachePadded;
use afs_metrics::{MetricsRegistry, WaitOutcome};
use afs_scope::{FlightRecorder, Trigger};
use afs_trace::{EventKind, TraceSink};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Arc<dyn Fn(usize) + Send + Sync>;

/// Why [`Pool::try_dispatch`] refused a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryDispatchError {
    /// A previous job is still in flight: poll its [`DispatchTicket`] or
    /// wait it out first. The pool broadcasts one job at a time.
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

/// The published job slot. Plain memory, synchronized by the generation
/// flags: the coordinator writes it strictly before storing the new
/// generation into the per-worker flags, workers read it strictly after
/// loading that generation, and the coordinator clears it only after every
/// worker's ack store has been observed. Those flag/ack accesses are
/// `SeqCst`, so each access to the cell is ordered by a synchronizes-with
/// edge and the cell itself needs no atomicity.
struct JobCell(UnsafeCell<Option<Job>>);

// SAFETY: see the field protocol above — all accesses are ordered through
// the `starts`/`acks` atomics, so no two threads ever touch the cell
// concurrently.
unsafe impl Sync for JobCell {}

struct Shared {
    /// The job of the current generation.
    job: JobCell,
    /// Per-worker sense flags: the generation published to that worker.
    /// Padded so each worker spins on a line only the coordinator writes,
    /// exactly once per phase.
    starts: Vec<CachePadded<AtomicU64>>,
    /// Per-worker completion slots: the last generation each worker
    /// finished. Padded so the end-of-phase barrier is P independent
    /// stores, not P RMWs on one shared counter line.
    acks: Vec<CachePadded<AtomicU64>>,
    /// Set (once) when the pool is dropping; checked at every wait point.
    shutdown: AtomicBool,
    /// Where workers sleep for the next generation (or shutdown).
    start: EventCount,
    /// Where a coordinator sleeps for the generation's last ack.
    done: EventCount,
    /// The start wait's budget.
    start_budget: Budget,
    /// The ack wait's budget ([`DispatchTicket::wait`]).
    ack_budget: Budget,
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
    /// First panic that escaped a job closure, taken by the coordinator
    /// once every ack is in. Loop-body panics never reach this slot — the
    /// drivers in [`crate::parallel`] contain them per chunk; this is the
    /// backstop for panics in raw [`Pool::run`] closures.
    failure: Mutex<Option<PhaseError>>,
    /// Workers actually spawned. Equals `starts.len()` unless thread
    /// creation failed partway and the pool degraded; indices `live..p`
    /// never started and are excluded from the rendezvous.
    live: AtomicUsize,
    /// Whether a job is currently in flight (arms the stall watchdog; an
    /// idle pool's frozen heartbeats are not stalls).
    running: Arc<AtomicBool>,
}

impl Shared {
    /// Whether every live worker has finished generation `generation`.
    fn all_acked(&self, generation: u64) -> bool {
        let live = self.live.load(Ordering::Relaxed);
        self.acks[..live]
            .iter()
            .all(|a| a.load(Ordering::SeqCst) >= generation)
    }

    /// Records the first panic that escaped a job closure (first wins when
    /// several workers race).
    fn record_failure(&self, worker: usize, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.failure.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(PhaseError::new(worker, 0, payload));
        }
    }

    /// Waits until the coordinator publishes a generation newer than
    /// `seen` into this worker's flag. Returns the new generation, or
    /// `None` on shutdown.
    fn wait_start(&self, idx: usize, seen: u64, sink: Option<&TraceSink>) -> Option<u64> {
        let who = Worker {
            counters: self.metrics.worker(idx),
            lane: sink.map(|s| (s, idx)),
        };
        let (gen, how) = self.start.wait(
            self.start_budget,
            Some(who),
            || {
                if self.shutdown.load(Ordering::SeqCst) {
                    return Some(None);
                }
                let g = self.starts[idx].load(Ordering::SeqCst);
                (g != seen).then_some(Some(g))
            },
            |_| {},
        );
        // The shutdown wakeup is not a barrier arrival.
        if gen.is_some() {
            who.counters.record_barrier_wait(how);
        }
        gen
    }
}

/// A fixed-size pool of worker threads, indexed `0..p`.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes concurrent `run` callers and carries the generation.
    generation: Mutex<u64>,
    p: usize,
    trace: Option<Arc<TraceSink>>,
    faults: Option<Arc<FaultPlan>>,
    policy: PanicPolicy,
    deadline: Option<Duration>,
    watchdog: Option<Watchdog>,
    /// Always-on black box (see `afs_scope`): phase summaries accumulate
    /// in a bounded ring; a trigger (stall, contained panic, spawn
    /// degradation, shed spike) dumps it to the configured directory.
    recorder: Arc<FlightRecorder>,
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
    perf: bool,
    spins: u32,
    yields: u32,
    trace: Option<Arc<TraceSink>>,
    inject_seed: Option<u64>,
    faults: Option<Arc<FaultPlan>>,
    policy: PanicPolicy,
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

    /// Opens hardware perf events (LLC misses, dTLB misses,
    /// cpu-migrations) on each worker thread at spawn, feeding the pool's
    /// [`Pool::metrics`] registry. Best-effort: when the kernel refuses
    /// (perf_event_paranoid, containers, non-Linux) the registry records
    /// the reason and the pool runs counters-only. Default: off.
    pub fn perf_events(mut self, on: bool) -> Self {
        self.perf = on;
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

    /// What surviving workers do with remaining iterations after a loop
    /// body panics (default: [`PanicPolicy::Drain`]).
    pub fn panic_policy(mut self, policy: PanicPolicy) -> Self {
        self.policy = policy;
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
    /// Without this, the `AFS_FLIGHT_DIR` environment variable is
    /// consulted at build time; with neither, triggers count but nothing
    /// is written.
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
            job: JobCell(UnsafeCell::new(None)),
            starts: (0..p).map(|_| CachePadded::default()).collect(),
            acks: (0..p).map(|_| CachePadded::default()).collect(),
            shutdown: AtomicBool::new(false),
            start: EventCount::with_injection(self.inject_seed),
            // A distinct stream, so the two sides' injection decisions
            // don't mirror each other.
            done: EventCount::with_injection(self.inject_seed.map(|s| s ^ 0xD07E_D07E_D07E_D07E)),
            start_budget: Budget {
                spins: wait::spin_leg(spins, p + 1, cores),
                yields,
            },
            ack_budget: Budget {
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
            failure: Mutex::new(None),
            live: AtomicUsize::new(p),
            running: Arc::new(AtomicBool::new(false)),
        });
        // Worker ↔ node pairing: worker `i` pins to core `i mod cores`,
        // which the host topology maps to a node — recorded in the metrics
        // registry so snapshots (and the Prometheus export) show where
        // each worker's first-touched pages live.
        let topo = affinity::NumaTopology::detect();
        let mut handles = Vec::with_capacity(p);
        for idx in 0..p {
            let worker_shared = Arc::clone(&shared);
            let sink = self.trace.clone();
            let pin_to = self.pin.then(|| {
                let cpu = idx % cores;
                (cpu, topo.node_of_cpu(cpu))
            });
            let perf = self.perf;
            let spawned = if self.fail_spawn_after.is_some_and(|n| idx >= n) {
                Err(std::io::Error::other("simulated spawn failure"))
            } else {
                std::thread::Builder::new()
                    .name(format!("afs-worker-{idx}"))
                    .spawn(move || worker_loop(idx, &worker_shared, pin_to, perf, sink))
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
        let recorder = Arc::new(FlightRecorder::new());
        match self.flight_dir {
            Some(dir) => recorder.set_dump_dir(dir, false),
            // The env path is how `repro --flight DIR` reaches every pool a
            // bench run creates; env-configured recorders share one
            // process-wide dump claim so such a run leaves exactly one file.
            None => {
                if let Ok(dir) = std::env::var("AFS_FLIGHT_DIR") {
                    if !dir.is_empty() {
                        recorder.set_dump_dir(dir, true);
                    }
                }
            }
        }
        if live < p {
            eprintln!("afs-runtime: pool degraded to {live} of {p} requested workers");
            recorder.trigger(Trigger::SpawnDegraded { live, requested: p });
        }
        afs_scope::hub().install(&shared.metrics, &recorder);
        let mut pool = Pool {
            shared,
            handles,
            generation: Mutex::new(0),
            p: live,
            trace: self.trace,
            faults: self.faults,
            policy: self.policy,
            deadline: self.deadline,
            watchdog: None,
            recorder,
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
            pool.watchdog = Some(Watchdog::spawn(
                interval,
                Arc::clone(&pool.shared.metrics),
                Arc::clone(&pool.shared.running),
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
            perf: false,
            spins: DEFAULT_SPINS,
            yields: DEFAULT_YIELDS,
            trace: None,
            inject_seed: None,
            faults: None,
            policy: PanicPolicy::default(),
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

    /// The fault plan attached at construction, if any. Public so external
    /// drivers (the serving frontend's batch driver) can consult the same
    /// plan the runtime's loop drivers apply.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// What survivors do with remaining iterations after a body panic.
    pub(crate) fn panic_policy(&self) -> PanicPolicy {
        self.policy
    }

    /// The per-phase deadline, if one was configured.
    pub(crate) fn phase_deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// A [`crate::barrier::SenseBarrier`] for this pool's worker party,
    /// inheriting the pool's spin/yield budgets (and injection seed, when
    /// stressed). The loop drivers use it to chain phases worker-to-worker
    /// without a coordinator round-trip per phase; external drivers (the
    /// serving frontend fusing several requests into one dispatch) can do
    /// the same.
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
        // SAFETY-free trick avoided: we genuinely require 'static here via
        // Arc; short-lived closures are wrapped through a scoped shim below.
        self.run_arc(make_scoped_job(job))
    }

    fn run_arc(&self, job: Job) -> Result<(), PhaseError> {
        // The generation lock serializes concurrent callers: the previous
        // job was fully acked (and the job cell cleared) before the lock
        // was last released, so the cell is exclusively ours now.
        let generation = self.generation.lock().unwrap_or_else(|p| p.into_inner());
        self.dispatch_locked(generation, job).wait()
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
    ) -> Result<DispatchTicket<'_>, TryDispatchError> {
        match self.try_lock_generation() {
            Some(generation) => Ok(self.dispatch_locked(generation, job)),
            None => Err(TryDispatchError::Busy),
        }
    }

    /// [`Pool::try_dispatch`] for a caller that will wait for a busy pool:
    /// retries for `grace` yield rounds, then blocks on the dispatch slot
    /// until the job in flight releases it. `on_leg` hears `Yield` before
    /// every yield and `Park` before blocking, as in
    /// [`crate::wait::EventCount::wait`].
    pub fn dispatch(
        &self,
        job: Arc<dyn Fn(usize) + Send + Sync>,
        grace: u32,
        mut on_leg: impl FnMut(WaitOutcome),
    ) -> DispatchTicket<'_> {
        let try_lock = || self.try_lock_generation();
        let generation = wait::poll(Budget::yielding(grace), None, try_lock, &mut on_leg)
            .map(|(generation, _)| generation)
            .unwrap_or_else(|| {
                on_leg(WaitOutcome::Park);
                self.generation.lock().unwrap_or_else(|p| p.into_inner())
            });
        self.dispatch_locked(generation, job)
    }

    fn try_lock_generation(&self) -> Option<MutexGuard<'_, u64>> {
        match self.generation.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        }
    }

    /// Publishes `job` as the next generation, with the generation lock
    /// already held. Both the blocking path (`run_arc`) and the
    /// non-blocking path (`try_dispatch`) funnel through here, so the two
    /// share one publication protocol.
    fn dispatch_locked<'a>(&'a self, guard: MutexGuard<'a, u64>, job: Job) -> DispatchTicket<'a> {
        let gen = *guard + 1;
        self.shared.running.store(true, Ordering::SeqCst);
        // SAFETY: no worker reads the cell until it observes `gen` in its
        // start flag (stored below), and all acks of `gen - 1` were
        // collected before the previous coordinator released the lock.
        unsafe { *self.shared.job.0.get() = Some(job) };
        for flag in &self.shared.starts[..self.p] {
            flag.store(gen, Ordering::SeqCst);
            self.shared.start.inject_point();
        }
        self.shared.start.notify();
        DispatchTicket {
            pool: self,
            guard: Some(guard),
            gen,
        }
    }
}

/// An in-flight broadcast job started by [`Pool::try_dispatch`].
///
/// The ticket *is* the pool's dispatch slot: while it lives, no other job
/// can start (`run` blocks, `try_dispatch` returns `Busy`). Poll
/// [`DispatchTicket::is_complete`] to overlap caller-side work with the
/// job, then collect the outcome with [`DispatchTicket::wait`]. Dropping
/// the ticket also completes the protocol (waiting if needed) but
/// discards any job panic. Leaking it (`mem::forget`) wedges the pool —
/// the dispatch slot is never released.
pub struct DispatchTicket<'a> {
    pool: &'a Pool,
    /// `Some` until the epilogue has run; holds the generation lock.
    guard: Option<MutexGuard<'a, u64>>,
    gen: u64,
}

impl DispatchTicket<'_> {
    /// Whether every worker has finished the job. Non-blocking; once true
    /// it stays true, and [`DispatchTicket::wait`] will not block.
    pub fn is_complete(&self) -> bool {
        self.pool.shared.all_acked(self.gen)
    }

    /// The generation this ticket published (monotone per pool).
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Waits for every worker to finish and releases the dispatch slot.
    /// A panic in the job surfaces as `Err(PhaseError)`, exactly like
    /// [`Pool::try_run`].
    pub fn wait(mut self) -> Result<(), PhaseError> {
        let budget = self.pool.shared.ack_budget;
        self.finish(budget, |_| {})
    }

    /// [`DispatchTicket::wait`] for an owner that would rather sleep than
    /// spin, and has work of its own meanwhile: no spin leg, `grace` yield
    /// rounds with `on_leg(Yield)` before each, then `on_leg(Park)` and
    /// sleep until the last ack. A caller that keeps polling a long job
    /// stays runnable throughout, and on a host with no spare core that
    /// takes a core from the workers it is waiting for.
    pub fn wait_parked(
        mut self,
        grace: u32,
        on_leg: impl FnMut(WaitOutcome),
    ) -> Result<(), PhaseError> {
        self.finish(Budget::yielding(grace), on_leg)
    }

    /// Completes the rendezvous and runs the epilogue once: clears the
    /// job cell, advances the generation, releases the lock, and takes
    /// any recorded failure.
    fn finish(
        &mut self,
        budget: Budget,
        on_leg: impl FnMut(WaitOutcome),
    ) -> Result<(), PhaseError> {
        let Some(mut generation) = self.guard.take() else {
            return Ok(());
        };
        let shared = &self.pool.shared;
        let all_acked = || shared.all_acked(self.gen).then_some(());
        shared.done.wait(budget, None, all_acked, on_leg);
        // SAFETY: every worker acked `gen`, and each ack store follows the
        // worker's clone of the job; dropping the cell contents is ordered
        // after all uses.
        unsafe { *shared.job.0.get() = None };
        shared.running.store(false, Ordering::SeqCst);
        *generation = self.gen;
        drop(generation);
        // Each worker records its failure strictly before its ack store, so
        // after the acks this read is race-free; take() leaves the slot
        // clean for the next generation.
        shared
            .failure
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
            .map_or(Ok(()), Err)
    }
}

impl Drop for DispatchTicket<'_> {
    fn drop(&mut self) {
        // A dropped ticket still completes the protocol so the pool stays
        // usable; the job's panic (if any) is discarded here.
        let budget = self.pool.shared.ack_budget;
        let _ = self.finish(budget, |_| {});
    }
}

/// Wraps a short-lived `Fn(usize)` into a `'static` job.
fn make_scoped_job<F: Fn(usize) + Send + Sync>(job: F) -> Job {
    let boxed: Box<dyn Fn(usize) + Send + Sync> = Box::new(job);
    // SAFETY: `Pool::run` does not return until every worker has finished
    // the job, so the borrowed environment outlives all uses. The transmute
    // only erases the lifetime; `Send + Sync` are enforced on the original
    // closure.
    let boxed: Box<dyn Fn(usize) + Send + Sync + 'static> = unsafe { std::mem::transmute(boxed) };
    Arc::from(boxed)
}

fn worker_loop(
    idx: usize,
    shared: &Shared,
    pin_to: Option<(usize, usize)>,
    perf: bool,
    sink: Option<Arc<TraceSink>>,
) {
    if let Some((cpu, node)) = pin_to {
        let ok = affinity::pin_current_to(cpu);
        if ok {
            shared.pinned.fetch_add(1, Ordering::SeqCst);
            shared.metrics.set_worker_placement(idx, cpu, node);
        }
        shared.metrics.set_pin_status(idx, ok);
    }
    if perf {
        // After pinning, so the migration counter measures the pinned run,
        // not the spawn-time placement. Events attach to this thread.
        shared.metrics.enable_perf_on_current_thread(idx);
    }
    let mut seen = 0u64;
    loop {
        let Some(gen) = shared.wait_start(idx, seen, sink.as_deref()) else {
            return; // shutdown
        };
        seen = gen;
        // SAFETY: the coordinator wrote the cell before storing `gen` into
        // our flag (both flag accesses SeqCst ⇒ synchronizes-with), and
        // will not touch it again until our ack below.
        let job = unsafe { (*shared.job.0.get()).as_ref().map(Arc::clone) };
        let Some(job) = job else { continue };
        if let Some(sink) = &sink {
            // Closes the BarrierArrive the loop driver recorded when this
            // worker ran out of work last phase (the first release of a
            // pool's life has no arrive; consumers ignore it).
            sink.record(idx, EventKind::BarrierRelease);
        }
        // Contain panics: the ack below must happen no matter what the job
        // did, or `run` would wait forever. The payload travels back to the
        // coordinator through the failure slot (recorded strictly before
        // the ack store, so the coordinator's post-ack read is race-free).
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(idx))) {
            shared.record_failure(idx, payload);
        }

        // Publish completion in this worker's own padded slot, then wake a
        // parked coordinator — only from the worker whose ack completes
        // the generation.
        shared.acks[idx].store(seen, Ordering::SeqCst);
        shared.done.notify_if(|| shared.all_acked(seen));
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
        // (covers triggers with no later phase boundary) and fold the final
        // counters into the telemetry hub so post-run scrapes still see
        // this pool's totals.
        self.recorder.flush();
        afs_scope::hub().retire(&self.shared.metrics);
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
    fn dispatch_yields_its_grace_then_blocks_on_a_held_pool() {
        let pool = Pool::new(2);
        let (entered, blocked, ran) = (
            AtomicBool::new(false),
            AtomicBool::new(false),
            Arc::new(AtomicU64::new(0)),
        );
        let mut legs = Vec::new();
        std::thread::scope(|s| {
            // A blocking run holds the dispatch slot until `dispatch`
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
            let ticket = pool.dispatch(job, 3, |leg| {
                legs.push(leg);
                if leg == WaitOutcome::Park {
                    blocked.store(true, Ordering::SeqCst);
                }
            });
            ticket.wait().unwrap();
        });
        use WaitOutcome::{Park, Yield};
        assert_eq!(legs, [Yield, Yield, Yield, Park]);
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        // A free pool is taken on the first look: no leg is heard.
        let ticket = pool.dispatch(Arc::new(|_| {}), 3, |leg| legs.push(leg));
        ticket.wait().unwrap();
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
                while pool.shared.done.sleepers() == 0 {
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
