//! The [`LoopServer`]: admission control in front of one [`Pool`].
//!
//! Lifecycle of a request: a client thread calls [`LoopServer::admit`],
//! which either stamps the request and pushes it onto the bounded MPMC
//! ring, or sheds it with an explicit [`ShedReason`] — per-tenant backlog
//! caps refuse first (a tenant drowning in its own requests cannot crowd
//! the shared ring), then the ring itself refuses when full. The
//! dispatcher — a dedicated thread by default, or the caller via
//! [`LoopServer::pump`]/[`LoopServer::dispatch_next`] in manual mode —
//! stages admitted requests into per-tenant FIFOs, selects what runs
//! next under the configured [`Discipline`], and executes each pick as
//! one non-blocking pool dispatch. It pumps the ring for a short polling
//! grace while the pool crunches and then parks until the batch is done;
//! admission never waits for it, so the ring's capacity bounds what a long
//! batch can buffer. An admit that finds the dispatcher asleep on an idle
//! server dispatches on its own thread instead of waking it, when the
//! staging lock and the pool are both free at once
//! ([`LoopServer::admit`]); otherwise `admit` touches only the ring and
//! atomics.
//!
//! Every request is stamped at admit, dispatch and complete; the three
//! deltas (queueing delay, service time, sojourn) land in per-tenant
//! log₂ histograms that surface as a [`ServeSnapshot`] — standalone via
//! [`LoopServer::serve_snapshot`], or riding inside the pool's
//! [`MetricsSnapshot`] (schema v3) via [`LoopServer::metrics_snapshot`]
//! for one document carrying both the scheduler's view and the server's.

use crate::dispatch::{execute, Discipline, DispatchState};
use crate::queue::MpmcQueue;
use crate::request::{Admit, LoopRequest, ShedReason};
use crate::supervise::{PoolFactory, Supervisor, SupervisorConfig};
use afs_metrics::trace::EventKind;
use afs_metrics::trace::TraceSink;
use afs_metrics::{
    AtomicHistogram, MetricsSnapshot, ServeEventKind, ServeRecord, ServeSnapshot, TelemetryServer,
    TelemetrySource, TenantServeSnapshot, WaitOutcome,
};
use afs_runtime::wait::{Budget, EventCount};
use afs_runtime::Pool;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Per-tenant configuration: identity, backpressure cap, and the size of
/// the resident workset the tenant's loops touch.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Tenant label (appears in snapshots).
    pub name: String,
    /// Max in-flight requests (admitted, not yet completed) before
    /// admission sheds with [`ShedReason::TenantBacklog`].
    pub backlog_cap: usize,
    /// Workset slots (one `u64` each; rounded up to a power of two). The
    /// workset is what gives requests something to have affinity *to*:
    /// successive requests from the same tenant touch the same lines.
    pub workset_slots: usize,
    /// Optional latency SLO budget in nanoseconds. When set, admission
    /// sheds with [`ShedReason::SloBudget`] any request whose predicted
    /// sojourn (per-tenant EWMA service rate × backlog) exceeds it.
    pub slo_ns: Option<u64>,
}

impl TenantSpec {
    /// A tenant with default caps: 1024 in-flight requests, 4096 workset
    /// slots (32 KiB), no latency SLO.
    pub fn new(name: impl Into<String>) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            backlog_cap: 1024,
            workset_slots: 4096,
            slo_ns: None,
        }
    }

    /// Sets the in-flight request cap.
    pub fn backlog_cap(mut self, cap: usize) -> TenantSpec {
        self.backlog_cap = cap.max(1);
        self
    }

    /// Sets the workset size in slots.
    pub fn workset_slots(mut self, slots: usize) -> TenantSpec {
        self.workset_slots = slots.max(1);
        self
    }

    /// Sets the latency SLO budget: requests predicted to sojourn past
    /// this are shed at admission with [`ShedReason::SloBudget`].
    pub fn slo(mut self, budget: Duration) -> TenantSpec {
        self.slo_ns = Some((budget.as_nanos() as u64).max(1));
        self
    }
}

/// A request that passed admission, carrying its identity and stamp.
pub(crate) struct Admitted {
    pub(crate) req: LoopRequest,
    pub(crate) id: u64,
    pub(crate) admit_ns: u64,
}

/// One tenant's live accounting: the ledger counters and the three
/// latency histograms. All fields are multi-writer atomics — admission
/// threads, the dispatcher, and the workers that retire requests all
/// write here.
pub(crate) struct TenantState {
    pub(crate) name: String,
    pub(crate) backlog_cap: u64,
    /// The tenant's resident array (power-of-two length).
    pub(crate) workset: Vec<AtomicU64>,
    /// Admitted but not yet completed (the backlog-cap gauge).
    pub(crate) pending: AtomicU64,
    pub(crate) admitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) shed: AtomicU64,
    /// Completed, but after the request's deadline (`Outcome::TimedOut`).
    pub(crate) timed_out: AtomicU64,
    /// Panicked on a worker, contained (`Outcome::Failed`).
    pub(crate) failed: AtomicU64,
    /// Deadline elapsed while queued (`Outcome::Expired`).
    pub(crate) expired: AtomicU64,
    pub(crate) iters: AtomicU64,
    /// Iterations admitted but not yet retired — the backlog the sojourn
    /// predictor multiplies by the EWMA service rate.
    pub(crate) backlog_iters: AtomicU64,
    /// EWMA of observed service cost, in nanoseconds per 1024 iterations
    /// (integer fixed-point, `AdaptController` style: α = 1/4 via
    /// `(ewma*3 + obs)/4`, first observation seeds directly). Zero means
    /// unseeded — the predictor abstains until the first completion.
    pub(crate) ewma_ns_per_kiter: AtomicU64,
    /// Latency SLO budget from the spec, if any.
    pub(crate) slo_ns: Option<u64>,
    /// Admit → dispatch.
    pub(crate) queue_ns: AtomicHistogram,
    /// Dispatch → complete.
    pub(crate) service_ns: AtomicHistogram,
    /// Admit → complete.
    pub(crate) sojourn_ns: AtomicHistogram,
}

impl TenantState {
    fn from_spec(spec: &TenantSpec) -> TenantState {
        let slots = spec.workset_slots.next_power_of_two();
        TenantState {
            name: spec.name.clone(),
            backlog_cap: spec.backlog_cap as u64,
            workset: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            pending: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            iters: AtomicU64::new(0),
            backlog_iters: AtomicU64::new(0),
            ewma_ns_per_kiter: AtomicU64::new(0),
            slo_ns: spec.slo_ns,
            queue_ns: AtomicHistogram::new(),
            service_ns: AtomicHistogram::new(),
            sojourn_ns: AtomicHistogram::new(),
        }
    }
}

/// Trace attachment: all serve events (admit, shed, dispatch) record on
/// one lane past the workers' and the watchdog's, serialized by a mutex
/// — the ring's single-writer discipline is satisfied by the lock's
/// mutual exclusion and happens-before edges.
struct TraceLanes {
    sink: Arc<TraceSink>,
    lane: usize,
    lock: Mutex<()>,
}

/// The staging lock, held. Releasing it publishes the staged count, so
/// the count a waiter reads is the backlog as of the last release.
pub(crate) struct Staging<'a> {
    guard: MutexGuard<'a, DispatchState>,
    staged: &'a AtomicUsize,
}

impl std::ops::Deref for Staging<'_> {
    type Target = DispatchState;
    fn deref(&self) -> &DispatchState {
        &self.guard
    }
}

impl std::ops::DerefMut for Staging<'_> {
    fn deref_mut(&mut self) -> &mut DispatchState {
        &mut self.guard
    }
}

impl Drop for Staging<'_> {
    fn drop(&mut self) {
        self.staged.store(self.guard.backlog(), Ordering::SeqCst);
    }
}

/// State shared between admission threads, the dispatcher, and executing
/// batches.
pub(crate) struct ServerShared {
    /// The pool dispatches run on. Behind a `RwLock` so the supervisor
    /// can retire a wounded pool and swap in a replacement while the
    /// server keeps serving; everyone else takes short read locks and
    /// clones the `Arc` out ([`ServerShared::pool`]).
    pub(crate) pool: RwLock<Arc<Pool>>,
    pub(crate) queue: MpmcQueue<Admitted>,
    pub(crate) tenants: Vec<TenantState>,
    /// Stamp origin: all request stamps are nanoseconds since this.
    epoch: Instant,
    next_id: AtomicU64,
    pub(crate) shutdown: AtomicBool,
    /// The one staging state: the dispatcher thread, manual mode and an
    /// admit on an idle server all go through this lock
    /// ([`ServerShared::lock_state`]).
    state: Mutex<DispatchState>,
    /// Requests staged behind that lock, published (`SeqCst`) whenever
    /// it is released, so the dispatcher can wait for them without it.
    staged: AtomicUsize,
    /// Where the dispatcher thread sleeps on an empty ring and empty
    /// staging FIFOs. `admit`, `stop` and `Drop` publish their event first
    /// (the ring's tail CAS, the staged count, the shutdown flag — all
    /// `SeqCst`), then notify.
    idle: EventCount,
    /// Times the dispatcher committed to sleeping there.
    dispatcher_parks: AtomicU64,
    /// Times a producer found it asleep and woke it.
    dispatcher_wakes: AtomicU64,
    /// Times a dispatch's waiter outlasted its [`IDLE_YIELDS`] grace and
    /// went to sleep — on the batch, or on a pool somebody else held.
    pub(crate) batch_parks: AtomicU64,
    pub(crate) admitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    /// Completed after deadline (a subset of `completed`).
    pub(crate) timed_out: AtomicU64,
    /// Contained panics ([`crate::Outcome::Failed`]).
    pub(crate) failed: AtomicU64,
    /// Deadline elapsed in queue ([`crate::Outcome::Expired`]).
    pub(crate) expired: AtomicU64,
    pub(crate) shed_queue_full: AtomicU64,
    pub(crate) shed_tenant_backlog: AtomicU64,
    pub(crate) shed_shutdown: AtomicU64,
    pub(crate) shed_deadline_hopeless: AtomicU64,
    pub(crate) shed_slo_budget: AtomicU64,
    /// Pool rebuilds performed by the supervisor.
    pub(crate) supervisor_restarts: AtomicU64,
    pub(crate) dispatches: AtomicU64,
    /// Dispatches an admit made on its own thread.
    inline_dispatches: AtomicU64,
    /// Requests retired at a final phase's close rather than at
    /// their last iteration.
    pub(crate) turn_retires: AtomicU64,
    pub(crate) batched_requests: AtomicU64,
    /// One self-tuning controller for every [`ServePolicy::Adaptive`]
    /// request the server runs: the (k, b) trajectory spans batches, so
    /// the server converges on the request mix it actually serves.
    pub(crate) adapt: Arc<afs_runtime::adapt::AdaptController>,
    trace: Option<TraceLanes>,
}

impl ServerShared {
    /// Nanoseconds since the server's epoch (the stamp clock).
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The current pool, cloned out from under the supervisor's swap
    /// slot. Callers that need a consistent pool across several calls
    /// (a batch's whole execution, a snapshot) hold the clone.
    pub(crate) fn pool(&self) -> Arc<Pool> {
        Arc::clone(&self.pool.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Feeds one completed request's observed service cost into its
    /// tenant's EWMA service-rate estimate (ns per 1024 iterations,
    /// integer fixed-point, α = 1/4 — the `AdaptController` idiom). The
    /// first informative observation seeds the estimate directly.
    pub(crate) fn observe_service(&self, a: &Admitted, service_ns: u64) {
        let iters = a.req.iters().max(1);
        let obs = (service_ns.saturating_mul(1024) / iters).max(1);
        let t = &self.tenants[a.req.tenant];
        let _ = t
            .ewma_ns_per_kiter
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(if cur == 0 { obs } else { (cur * 3 + obs) / 4 })
            });
    }

    /// Predicted sojourn for a new request from `tenant`: the tenant's
    /// admitted-but-unretired iteration backlog plus the request's own
    /// cost, times the EWMA service rate. `None` while the estimate is
    /// unseeded (the predictor abstains rather than shedding blind).
    pub(crate) fn predicted_sojourn_ns(&self, tenant: usize, req: &LoopRequest) -> Option<u64> {
        let t = &self.tenants[tenant];
        let rate = t.ewma_ns_per_kiter.load(Ordering::Relaxed);
        if rate == 0 {
            return None;
        }
        let iters = t
            .backlog_iters
            .load(Ordering::Relaxed)
            .saturating_add(req.iters());
        Some(iters.saturating_mul(rate) / 1024)
    }

    pub(crate) fn trace_record(&self, kind: EventKind) {
        if let Some(tl) = &self.trace {
            let _guard = tl.lock.lock().unwrap_or_else(|e| e.into_inner());
            tl.sink.record(tl.lane, kind);
        }
    }

    /// Feeds one serve lifecycle event, stamped `t_ns` — the reading its
    /// caller already holds — to `pool`'s flight recorder: the black box
    /// keeps the last N of these, and shed events drive its shed-spike
    /// trigger. A batch's events go to the pool it runs on.
    pub(crate) fn serve_event_on(
        &self,
        pool: &Pool,
        kind: ServeEventKind,
        tenant: usize,
        id: u64,
        code: u32,
        t_ns: u64,
    ) {
        pool.recorder().record_serve_event(ServeRecord {
            t_ns,
            kind,
            tenant: tenant as u32,
            id,
            code,
        });
    }

    /// Takes the staging lock.
    pub(crate) fn lock_state(&self) -> Staging<'_> {
        Staging {
            guard: self.state.lock().unwrap_or_else(|e| e.into_inner()),
            staged: &self.staged,
        }
    }

    /// Takes the staging lock if nobody holds it.
    fn try_lock_state(&self) -> Option<Staging<'_>> {
        let guard = match self.state.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => return None,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        };
        Some(Staging {
            guard,
            staged: &self.staged,
        })
    }

    /// Whether anything waits for a dispatch: in the ring, or staged.
    fn has_work(&self) -> bool {
        !self.queue.is_empty() || self.staged.load(Ordering::SeqCst) > 0
    }

    /// Reaps the batch an admit left in flight, if any, waiting for it,
    /// and drops its region and the spare one, so none keeps a retired
    /// pool alive. Both are taken out under the staging lock; the ticket
    /// is waited on outside it.
    pub(crate) fn reap_in_flight(&self) {
        let (in_flight, spare) = {
            let mut st = self.lock_state();
            (st.in_flight.take(), st.spare.take())
        };
        drop(spare);
        if let Some(f) = in_flight {
            f.reap(|_| {});
        }
    }

    /// Books admitted request `a` out of the ledger at `now` as `kind` —
    /// completed, failed, expired, or else shed at shutdown — with `code`
    /// in `pool`'s flight recorder; a caller with a trace event records it
    /// first. The `pending` decrement is the exit a client sees: a `SeqCst`
    /// RMW after every ledger, histogram and trace write the request's
    /// exit made, so an observer of `pending` sees them. Two writes are not
    /// behind it: the flight-recorder event just after it, and the
    /// request's queue-wait sample, which its dispatcher records after the
    /// publish (DESIGN §12).
    pub(crate) fn book_out(
        &self,
        pool: &Pool,
        a: &Admitted,
        kind: ServeEventKind,
        code: u32,
        now: u64,
    ) {
        let t = &self.tenants[a.req.tenant];
        let (mine, all) = match kind {
            ServeEventKind::Complete => (&t.completed, &self.completed),
            ServeEventKind::Failed => (&t.failed, &self.failed),
            ServeEventKind::Expired => (&t.expired, &self.expired),
            _ => (&t.shed, &self.shed_shutdown),
        };
        mine.fetch_add(1, Ordering::Relaxed);
        all.fetch_add(1, Ordering::Relaxed);
        t.backlog_iters.fetch_sub(a.req.iters(), Ordering::Relaxed);
        t.pending.fetch_sub(1, Ordering::SeqCst);
        self.serve_event_on(pool, kind, a.req.tenant, a.id, code, now);
    }

    /// Books one already-admitted request out of the ledger as shed
    /// (stranded at shutdown), with the trace event and recorder
    /// serve-event the admission-time shed path emits, so trace, ledger
    /// and flight-recorder counts agree.
    pub(crate) fn strand(&self, a: &Admitted) {
        let reason = ShedReason::ShuttingDown.code();
        self.trace_record(EventKind::RequestShed {
            tenant: a.req.tenant as u32,
            reason,
        });
        self.book_out(&self.pool(), a, ServeEventKind::Shed, reason, self.now_ns());
    }
}

/// Retires out of `picked` every request whose deadline elapsed while it
/// was queued: pending/backlog books are balanced, the `expired`
/// counters move, and the recorder serve-event fires — all without
/// touching the pool. The still-live requests stay, in order. The clock
/// is read only when a picked request has a deadline.
pub(crate) fn retire_expired(shared: &ServerShared, picked: &mut Vec<Admitted>) {
    let mut now = None;
    picked.retain(|a| {
        let Some(deadline) = a.req.deadline else {
            return true;
        };
        let now = *now.get_or_insert_with(|| shared.now_ns());
        let expired = now.saturating_sub(a.admit_ns) > deadline.as_nanos() as u64;
        if expired {
            shared.book_out(&shared.pool(), a, ServeEventKind::Expired, 0, now);
        }
        !expired
    });
}

/// The serving ledger read straight off `ServerShared` — shared by
/// [`LoopServer::serve_snapshot`] and the telemetry endpoint's scrape
/// closure (which holds the `Arc<ServerShared>`, not the server).
pub(crate) fn serve_snapshot_of(s: &ServerShared, discipline: Discipline) -> ServeSnapshot {
    let load = |c: &AtomicU64| c.load(Ordering::SeqCst);
    ServeSnapshot {
        discipline: discipline.label().to_string(),
        admitted: load(&s.admitted),
        completed: load(&s.completed),
        timed_out: load(&s.timed_out),
        failed: load(&s.failed),
        expired: load(&s.expired),
        shed_queue_full: load(&s.shed_queue_full),
        shed_tenant_backlog: load(&s.shed_tenant_backlog),
        shed_shutdown: load(&s.shed_shutdown),
        shed_deadline_hopeless: load(&s.shed_deadline_hopeless),
        shed_slo_budget: load(&s.shed_slo_budget),
        supervisor_restarts: load(&s.supervisor_restarts),
        dispatches: load(&s.dispatches),
        inline_dispatches: load(&s.inline_dispatches),
        dispatcher_parks: load(&s.dispatcher_parks),
        dispatcher_wakes: load(&s.dispatcher_wakes),
        batch_parks: load(&s.batch_parks),
        turn_retires: load(&s.turn_retires),
        batched_requests: load(&s.batched_requests),
        tenants: s
            .tenants
            .iter()
            .map(|t| TenantServeSnapshot {
                name: t.name.clone(),
                admitted: load(&t.admitted),
                completed: load(&t.completed),
                timed_out: load(&t.timed_out),
                failed: load(&t.failed),
                expired: load(&t.expired),
                shed: load(&t.shed),
                iters: load(&t.iters),
                queue_ns: t.queue_ns.get(),
                service_ns: t.service_ns.get(),
                sojourn_ns: t.sojourn_ns.get(),
            })
            .collect(),
    }
}

/// Pool snapshot with the serve ledger attached — the one-document view
/// served by `/snapshot.json` and `/metrics`.
pub(crate) fn metrics_snapshot_of(s: &ServerShared, discipline: Discipline) -> MetricsSnapshot {
    let mut snap = s.pool().metrics().snapshot();
    snap.serve = Some(serve_snapshot_of(s, discipline));
    snap
}

/// Configures and builds a [`LoopServer`].
pub struct ServerBuilder {
    pool: Arc<Pool>,
    tenants: Vec<TenantSpec>,
    discipline: Discipline,
    queue_capacity: usize,
    manual: bool,
    trace: Option<Arc<TraceSink>>,
    queue_seed: Option<u64>,
    telemetry: Option<String>,
    supervise: Option<(SupervisorConfig, PoolFactory)>,
}

impl ServerBuilder {
    /// Registers a tenant with default caps. Tenant indices follow
    /// registration order.
    pub fn tenant(mut self, name: impl Into<String>) -> ServerBuilder {
        self.tenants.push(TenantSpec::new(name));
        self
    }

    /// Registers a fully specified tenant.
    pub fn tenant_spec(mut self, spec: TenantSpec) -> ServerBuilder {
        self.tenants.push(spec);
        self
    }

    /// Sets the dispatch discipline (default: [`Discipline::CentralFcfs`]).
    pub fn discipline(mut self, d: Discipline) -> ServerBuilder {
        self.discipline = d;
        self
    }

    /// Sets the admission ring capacity (default 1024; rounded up to a
    /// power of two).
    pub fn queue_capacity(mut self, cap: usize) -> ServerBuilder {
        self.queue_capacity = cap;
        self
    }

    /// Builds without a dispatcher thread: the caller drives dispatch via
    /// [`LoopServer::pump`] and [`LoopServer::dispatch_next`]. For
    /// deterministic discipline tests.
    pub fn manual(mut self) -> ServerBuilder {
        self.manual = true;
        self
    }

    /// Attaches a trace sink; request lifecycle events record on lane
    /// `pool.workers() + 1` (lane `p` stays reserved for the watchdog).
    /// The sink needs at least `p + 2` lanes.
    pub fn trace(mut self, sink: Arc<TraceSink>) -> ServerBuilder {
        self.trace = Some(sink);
        self
    }

    /// Starts a live telemetry HTTP endpoint on `addr` (e.g.
    /// `"127.0.0.1:9100"`, or port `0` for an OS-assigned port readable
    /// via [`LoopServer::telemetry_addr`]). The endpoint serves JSON:
    /// `/snapshot.json` (the combined
    /// pool + serve document), `/healthz` (watchdog stall state and pool
    /// liveness), and `/tune` (the adaptive controller's current `(k, b)`
    /// and its trajectory). Each scrape takes a fresh snapshot —
    /// no cached state. If the bind fails the server still builds; the
    /// failure is reported on stderr and the endpoint is absent.
    pub fn telemetry(mut self, addr: impl Into<String>) -> ServerBuilder {
        self.telemetry = Some(addr.into());
        self
    }

    /// Enables deterministic yield injection inside the admission ring.
    /// Seeded interleaving stress tests only; not part of the stable API.
    #[doc(hidden)]
    pub fn queue_yield_injection(mut self, seed: u64) -> ServerBuilder {
        self.queue_seed = Some(seed);
        self
    }

    /// Spawns a [`Supervisor`] next to the dispatcher: it polls pool
    /// health (watchdog stalls, spawn degradation, repeated contained
    /// failures), and on trouble dumps the wounded pool's flight
    /// recorder, retires it, and swaps in a pool built by `factory` —
    /// with exponential backoff, up to the configured restart cap. The
    /// factory receives the zero-based restart ordinal and must return a
    /// pool with the same worker count.
    pub fn supervise(
        mut self,
        config: SupervisorConfig,
        factory: impl Fn(u32) -> Arc<Pool> + Send + 'static,
    ) -> ServerBuilder {
        self.supervise = Some((config, Box::new(factory)));
        self
    }

    /// Builds the server (spawning the dispatcher thread unless
    /// [`ServerBuilder::manual`] was requested). Panics if no tenant was
    /// registered, or if a trace sink lacks the serve lane.
    pub fn build(self) -> LoopServer {
        assert!(
            !self.tenants.is_empty(),
            "a server needs at least one tenant"
        );
        let lane = self.pool.workers() + 1;
        let trace = self.trace.map(|sink| {
            assert!(
                sink.workers() > lane,
                "trace sink needs at least {} lanes (p workers + watchdog + serve)",
                lane + 1
            );
            TraceLanes {
                sink,
                lane,
                lock: Mutex::new(()),
            }
        });
        let mut queue = MpmcQueue::new(self.queue_capacity);
        if let Some(seed) = self.queue_seed {
            queue = queue.with_yield_injection(seed);
        }
        let adapt = Arc::new(afs_runtime::adapt::AdaptController::new(
            self.pool.workers(),
        ));
        let shared = Arc::new(ServerShared {
            pool: RwLock::new(self.pool),
            queue,
            tenants: self.tenants.iter().map(TenantState::from_spec).collect(),
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            state: Mutex::new(DispatchState::new(self.tenants.len())),
            staged: AtomicUsize::new(0),
            idle: EventCount::default(),
            dispatcher_parks: AtomicU64::new(0),
            dispatcher_wakes: AtomicU64::new(0),
            batch_parks: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_tenant_backlog: AtomicU64::new(0),
            shed_shutdown: AtomicU64::new(0),
            shed_deadline_hopeless: AtomicU64::new(0),
            shed_slo_budget: AtomicU64::new(0),
            supervisor_restarts: AtomicU64::new(0),
            dispatches: AtomicU64::new(0),
            inline_dispatches: AtomicU64::new(0),
            turn_retires: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            adapt,
            trace,
        });
        let discipline = self.discipline;
        let telemetry = self.telemetry.and_then(|addr| {
            let snap = Arc::clone(&shared);
            let rec = Arc::clone(&shared);
            let source = TelemetrySource::new(
                move || metrics_snapshot_of(&snap, discipline),
                move || Arc::clone(rec.pool().recorder()),
            );
            match TelemetryServer::start(addr.as_str(), source) {
                Ok(srv) => Some(srv),
                Err(e) => {
                    eprintln!("afs-serve: telemetry bind on {addr} failed ({e}); serving without");
                    None
                }
            }
        });
        let dispatcher = (!self.manual).then(|| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("afs-serve-dispatch".into())
                .spawn(move || dispatcher_loop(&shared, discipline))
                .expect("spawn dispatcher")
        });
        let supervisor = self
            .supervise
            .map(|(config, factory)| Supervisor::spawn(Arc::clone(&shared), config, factory));
        LoopServer {
            shared,
            discipline,
            dispatcher,
            supervisor,
            telemetry,
        }
    }
}

/// `yield_now` rounds a waiting dispatcher spends before it parks — for
/// work on an empty ring, for a pool somebody else holds, or for a batch in
/// flight ([`execute`]): long enough (tens of µs) that a burst's next
/// request, or a short dispatch's last worker, usually finds it still
/// runnable; short enough that it stops competing with the pool workers
/// for a core almost at once. Once it parks, an admit dispatches on its
/// own thread instead of waking it ([`LoopServer::admit`]), so a
/// closed-loop client's requests after a pause never wait for its wake.
pub(crate) const IDLE_YIELDS: u32 = 64;
const IDLE: Budget = Budget::yielding(IDLE_YIELDS);

/// The dispatcher thread body: pump, select, execute, until shutdown
/// *and* drained. With the ring and the staging FIFOs empty it waits on
/// [`ServerShared::idle`] — [`IDLE_YIELDS`] yields, then asleep until a
/// producer wakes it, so an idle server makes no wakeups at all. Polling
/// with short naps is not an alternative: a `sleep(100 µs)` measures
/// 216 µs on the reference host, and an arriving request waits half a nap
/// on average.
///
/// What it waits for is the ring's *claim* cursors moving
/// ([`MpmcQueue::is_empty`]) or the staged count rising, not an item it can
/// pop: the tail CAS and the count's store are the `SeqCst` events a
/// producer publishes before it notifies, which is what the eventcount's
/// lost-wakeup argument needs. A wait that ends on a slot claimed but not
/// yet published costs trips round this loop until the producer's next
/// store lands.
fn dispatcher_loop(shared: &Arc<ServerShared>, discipline: Discipline) {
    loop {
        {
            let mut st = shared.lock_state();
            st.pump(shared, discipline);
            if st.pick(shared, discipline) {
                execute(shared, &mut st, |st| {
                    st.pump(shared, discipline);
                });
                continue;
            }
            if st.backlog() > 0 {
                // The whole pick expired in the queue; more is staged.
                continue;
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) && !shared.has_work() {
            return;
        }
        let something_to_do =
            || (shared.has_work() || shared.shutdown.load(Ordering::SeqCst)).then_some(());
        shared.idle.wait(IDLE, None, something_to_do, |leg| {
            if leg == WaitOutcome::Park {
                shared.dispatcher_parks.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
}

/// A request-driven serving frontend over one [`Pool`]. See the module
/// docs for the pipeline; see [`ServerBuilder`] for configuration.
pub struct LoopServer {
    shared: Arc<ServerShared>,
    discipline: Discipline,
    dispatcher: Option<JoinHandle<()>>,
    /// Pool supervisor thread, when [`ServerBuilder::supervise`] asked
    /// for one. Joined at shutdown.
    supervisor: Option<JoinHandle<()>>,
    /// Live telemetry endpoint, when [`ServerBuilder::telemetry`] asked
    /// for one and the bind succeeded. Stopped on drop.
    telemetry: Option<TelemetryServer>,
}

impl LoopServer {
    /// Starts configuring a server over `pool`.
    pub fn builder(pool: Arc<Pool>) -> ServerBuilder {
        ServerBuilder {
            pool,
            tenants: Vec::new(),
            discipline: Discipline::CentralFcfs,
            queue_capacity: 1024,
            manual: false,
            trace: None,
            queue_seed: None,
            telemetry: None,
            supervise: None,
        }
    }

    /// The bound address of the live telemetry endpoint, when one was
    /// requested and its bind succeeded. With port `0` this is how the
    /// caller learns the OS-assigned port.
    pub fn telemetry_addr(&self) -> Option<std::net::SocketAddr> {
        self.telemetry.as_ref().map(|t| t.local_addr())
    }

    /// The discipline this server dispatches under.
    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    /// The pool this server currently dispatches onto. A clone out of
    /// the supervisor's swap slot: after a supervised restart this is
    /// the replacement, while earlier clones keep the retired pool alive
    /// until their batches finish.
    pub fn pool(&self) -> Arc<Pool> {
        self.shared.pool()
    }

    /// Submits a request. Non-blocking: either the request is queued
    /// (`Accepted` with its id) or it is shed right now with the reason.
    /// Callable from any number of client threads concurrently.
    ///
    /// When the dispatcher sleeps on an idle server, the admitting thread
    /// dispatches in its stead and returns without waking anyone; it never
    /// waits for a lock or the pool, and wakes the dispatcher as before
    /// when either is taken.
    ///
    /// Panics if `req.tenant` is out of range, `req.phases == 0` or
    /// `req.n > u32::MAX` (a work source's queue cursor is 32 bits wide,
    /// whatever the pool size) — those are caller bugs, not load
    /// conditions, and nothing is booked for them.
    pub fn admit(&self, req: LoopRequest) -> Admit {
        let s = &*self.shared;
        assert!(
            req.tenant < s.tenants.len(),
            "unknown tenant index {}",
            req.tenant
        );
        assert!(req.phases >= 1, "a request needs at least one phase");
        assert!(
            req.n <= u64::from(u32::MAX),
            "a request runs at most u32::MAX iterations a phase, not {}",
            req.n
        );
        if s.shutdown.load(Ordering::SeqCst) {
            return self.shed(req.tenant, ShedReason::ShuttingDown);
        }
        let tenant_idx = req.tenant;
        let t = &s.tenants[tenant_idx];
        // Reserve the backlog slot optimistically; back it out on shed.
        // The cap is enforced against concurrent admitters by the
        // fetch_add itself — two racers cannot both observe room that
        // only one slot provides.
        let prev = t.pending.fetch_add(1, Ordering::SeqCst);
        if prev >= t.backlog_cap {
            t.pending.fetch_sub(1, Ordering::SeqCst);
            return self.shed(tenant_idx, ShedReason::TenantBacklog);
        }
        // Sojourn prediction: EWMA service rate × (tenant backlog + this
        // request). Abstains until the rate is seeded; sheds hopeless
        // deadlines first (the request's own constraint), then SLO
        // overruns (the tenant's configured budget).
        if let Some(predicted) = s.predicted_sojourn_ns(tenant_idx, &req) {
            if req
                .deadline
                .is_some_and(|d| predicted > d.as_nanos() as u64)
            {
                t.pending.fetch_sub(1, Ordering::SeqCst);
                return self.shed(tenant_idx, ShedReason::DeadlineHopeless);
            }
            if t.slo_ns.is_some_and(|budget| predicted > budget) {
                t.pending.fetch_sub(1, Ordering::SeqCst);
                return self.shed(tenant_idx, ShedReason::SloBudget);
            }
        }
        let id = s.next_id.fetch_add(1, Ordering::Relaxed);
        let admit_ns = s.now_ns();
        // The iteration backlog is booked before the push so the retire
        // paths (which subtract) can never observe the request without
        // its backlog contribution; a failed push backs it out.
        let cost = req.iters();
        t.backlog_iters.fetch_add(cost, Ordering::Relaxed);
        match s.queue.push(Admitted { req, id, admit_ns }) {
            Ok(()) => {
                // Booked before the request can run: an inline dispatch
                // below completes it on the pool before this returns.
                t.admitted.fetch_add(1, Ordering::Relaxed);
                s.admitted.fetch_add(1, Ordering::Relaxed);
                s.trace_record(EventKind::RequestAdmit {
                    tenant: tenant_idx as u32,
                    id,
                });
                let pool = s.pool();
                let kind = ServeEventKind::Admit;
                s.serve_event_on(&pool, kind, tenant_idx, id, 0, admit_ns);
                // The push is the `SeqCst` event: a dispatcher that has not
                // yet registered to sleep will see it on its last look.
                if s.idle.sleepers() > 0 && !self.try_dispatch_inline(pool) {
                    self.wake_dispatcher();
                }
                Admit::Accepted { id }
            }
            Err(_) => {
                t.pending.fetch_sub(1, Ordering::SeqCst);
                t.backlog_iters.fetch_sub(cost, Ordering::Relaxed);
                self.shed(tenant_idx, ShedReason::QueueFull)
            }
        }
    }

    /// The dispatcher is asleep (or committed to sleeping): does its work
    /// on this thread instead of waking it. Takes the staging lock and the
    /// pool only if both are free; reaps the batch an
    /// earlier admit left in flight only if it is complete; pumps the
    /// ring, selects and launches one dispatch, and leaves its ticket in
    /// the staging state. Returns `true` when nothing is left for the
    /// dispatcher. Otherwise the caller wakes it, and what this call
    /// staged is in the count its wait looks at.
    ///
    /// No request is stranded. Every push is followed by this call or a
    /// wake, and this call fails exactly when it cannot be sure the pushed
    /// request is dispatched: the lock is held (its holder may have pumped
    /// before the push), the earlier batch still runs, the pool is taken
    /// (a blocking `Pool::run` may take it between the pump and the
    /// claim), or the pick left requests staged.
    fn try_dispatch_inline(&self, pool: Arc<Pool>) -> bool {
        let s = &self.shared;
        let Some(mut st) = s.try_lock_state() else {
            return false;
        };
        if st.in_flight.as_ref().is_some_and(|f| !f.is_complete()) {
            return false;
        }
        st.reap(|_| {});
        st.pump(s, self.discipline);
        let Ok(slot) = pool.try_claim() else {
            return false;
        };
        if st.pick(s, self.discipline) {
            s.inline_dispatches.fetch_add(1, Ordering::Relaxed);
            st.launch(s, pool, slot);
        }
        st.backlog() == 0
    }

    /// Wakes the dispatcher if it is asleep or committing to sleep; one
    /// `SeqCst` load otherwise (always, on a busy or manual-mode server).
    /// Callers publish their event — the ring push, the shutdown flag —
    /// *before* calling this.
    fn wake_dispatcher(&self) {
        if self.shared.idle.notify() {
            self.shared.dispatcher_wakes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the dispatcher is asleep, or committed to sleeping, on an
    /// idle server: the state in which an admit dispatches inline. For
    /// tests: the snapshot's park and wake counts cannot tell this state
    /// from one the dispatcher has already left.
    #[doc(hidden)]
    pub fn dispatcher_asleep(&self) -> bool {
        self.shared.idle.sleepers() > 0
    }

    /// Tenant `tenant`'s workset, slot by slot: under
    /// [`crate::ServeKernel::Touch`], how many iterations touched each
    /// slot. A read-out for tests, which check every slot exactly.
    #[doc(hidden)]
    pub fn workset_values(&self, tenant: usize) -> Vec<u64> {
        let workset = &self.shared.tenants[tenant].workset;
        workset.iter().map(|c| c.load(Ordering::SeqCst)).collect()
    }

    fn shed(&self, tenant: usize, reason: ShedReason) -> Admit {
        let s = &*self.shared;
        s.tenants[tenant].shed.fetch_add(1, Ordering::Relaxed);
        let counter = match reason {
            ShedReason::QueueFull => &s.shed_queue_full,
            ShedReason::TenantBacklog => &s.shed_tenant_backlog,
            ShedReason::ShuttingDown => &s.shed_shutdown,
            ShedReason::DeadlineHopeless => &s.shed_deadline_hopeless,
            ShedReason::SloBudget => &s.shed_slo_budget,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        s.trace_record(EventKind::RequestShed {
            tenant: tenant as u32,
            reason: reason.code(),
        });
        let (kind, code) = (ServeEventKind::Shed, reason.code());
        s.serve_event_on(&s.pool(), kind, tenant, 0, code, s.now_ns());
        Admit::Shed(reason)
    }

    /// Manual mode: drains the admission ring into the staging FIFOs.
    /// Returns how many requests moved. Panics on a threaded server —
    /// requests staged here would compete with the dispatcher's own
    /// state and could strand.
    pub fn pump(&self) -> usize {
        assert!(
            self.dispatcher.is_none(),
            "pump() is for manual-mode servers; the dispatcher thread owns staging here"
        );
        self.shared.lock_state().pump(&self.shared, self.discipline)
    }

    /// Manual mode: selects and synchronously executes the next dispatch
    /// under the configured discipline. Returns the `(tenant, id)` pairs
    /// that ran, or an empty vec when nothing is staged (callers should
    /// [`LoopServer::pump`] first). Panics on a threaded server.
    pub fn dispatch_next(&self) -> Vec<(usize, u64)> {
        assert!(
            self.dispatcher.is_none(),
            "dispatch_next() is for manual-mode servers"
        );
        let mut st = self.shared.lock_state();
        if !st.pick(&self.shared, self.discipline) {
            return Vec::new();
        }
        let ids: Vec<(usize, u64)> = st.picked.iter().map(|a| (a.req.tenant, a.id)).collect();
        execute(&self.shared, &mut st, |_| {});
        ids
    }

    /// Requests admitted but not yet completed, across all tenants.
    pub fn pending(&self) -> u64 {
        let tenants = &self.shared.tenants;
        tenants
            .iter()
            .map(|t| t.pending.load(Ordering::SeqCst))
            .sum()
    }

    /// Blocks until every admitted request has completed. Threaded
    /// servers only (manual callers drive dispatch themselves, so they
    /// already know when they are done).
    ///
    /// This one still polls (yield, then 100 µs naps): it is a shutdown
    /// and test path, and waking it from the completion side would put a
    /// load of a "drainer waiting" flag on every request's retire.
    pub fn drain(&self) {
        assert!(
            self.dispatcher.is_some(),
            "drain() needs the dispatcher thread; manual servers drive dispatch_next()"
        );
        let mut spins = 0u32;
        while self.pending() > 0 {
            spins += 1;
            if spins < 256 {
                thread::yield_now();
            } else {
                thread::sleep(Duration::from_micros(100));
            }
        }
    }

    /// The serving ledger: per-tenant counts and latency histograms,
    /// plus shed/dispatch totals.
    pub fn serve_snapshot(&self) -> ServeSnapshot {
        serve_snapshot_of(&self.shared, self.discipline)
    }

    /// The pool's metrics snapshot with this server's ledger attached —
    /// one schema-v3 document carrying both views.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        metrics_snapshot_of(&self.shared, self.discipline)
    }

    /// Stops admission, drains everything already admitted, joins the
    /// dispatcher, and returns the final ledger. Requests racing this
    /// call may be shed with [`ShedReason::ShuttingDown`]; an admit that
    /// slips past the flag after the dispatcher's final sweep is counted
    /// shed as well (it was accepted but never served).
    pub fn shutdown(mut self) -> ServeSnapshot {
        self.stop();
        self.shared.reap_in_flight();
        // Requests that slipped into the ring after the dispatcher's
        // final sweep: account them as shutdown sheds so the ledger
        // balances (admitted = completed + failed + expired +
        // stranded-shed). `strand` emits the Shed trace event and the
        // recorder serve-event, so trace/ledger/recorder counts agree.
        while let Some(a) = self.shared.queue.pop() {
            self.shared.strand(&a);
        }
        self.serve_snapshot()
    }

    /// Raises the shutdown flag and wakes the dispatcher, which may be
    /// parked on an empty ring with nobody left to admit anything.
    fn signal_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.wake_dispatcher();
    }

    fn stop(&mut self) {
        self.signal_shutdown();
        if let Some(h) = self.dispatcher.take() {
            h.join().expect("serve dispatcher panicked");
        }
        if let Some(h) = self.supervisor.take() {
            h.join().expect("serve supervisor panicked");
        }
    }
}

impl Drop for LoopServer {
    fn drop(&mut self) {
        self.signal_shutdown();
        if let Some(h) = self.dispatcher.take() {
            // Propagating a panic out of drop would abort; the dispatcher
            // panicking is already a loud test failure elsewhere.
            let _ = h.join();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        self.shared.reap_in_flight();
    }
}
