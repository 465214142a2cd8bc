//! Dispatch disciplines and the fused batch.
//!
//! The dispatcher owns the middle of the pipeline: it pumps admitted
//! requests out of the MPMC ring into the per-tenant staging FIFOs (behind
//! the server's one staging lock, which an admit on an idle server also
//! takes), picks what runs next under a pluggable [`Discipline`], and
//! executes the pick as *one* pool dispatch: a runtime region whose phase
//! *g* is the batch's *g*-th request-phase ([`afs_runtime::PhasePlan`]).
//! Workers flow from one request's phase into the next through the
//! region's barrier, whose turn re-arms the one work source, so eight
//! fused 64-iteration loops cost one pool broadcast + 7 barrier turns
//! instead of eight broadcasts — the whole case for batching. Like any
//! region, a batch writes phase records, feeds the phase and loop
//! histograms and traces its grabs on the worker lanes.
//!
//! A request completes at its last iteration, not at a barrier: each
//! worker adds the iterations it ran of a request's final phase to that
//! phase's count once, after its drain, and the worker whose add reaches
//! `n` stamps service and sojourn and retires the request. A worker late
//! to the dispatch is then not on the request's path: its peers steal its
//! queue (the paper's Theorem 3.2) and the request is done before it
//! arrives. The final phase's close retires only what the count cannot
//! reach — a request with a panicked grab, and an `n = 0` request.
//!
//! The batch is the plan of one [`StandingRegion`] per server and pool,
//! built once and then re-armed. After its reap the staging state holds
//! the region again, so the next launch clears and refills the batch's
//! vectors in place and publishes a clone of the region's one job, and
//! `select` picks into one kept buffer: a steady stream of requests
//! allocates no batch, region or job.
//!
//! Panic containment: the batch's `contain` hook keeps a body panic to
//! its own request. The first panic wins a CAS into the request's failure
//! slot, the batch skips the request's later phases, and the final
//! phase's close retires it as failed; batchmates complete exactly once
//! (a body panic never halts a region), and the dispatcher never unwinds. Fault-plan hooks see the region's coordinates (phase
//! *g*, grab attempts counted per phase); `RequestFailed.phase` stays
//! request-relative.

use crate::server::{retire_expired, Admitted, ServerShared, IDLE_YIELDS};
use afs_metrics::trace::EventKind;
use afs_metrics::{ServeEventKind, WaitOutcome};
use afs_runtime::{
    DispatchSlot, DispatchTicket, PhasePlan, Pool, RuntimeScheduler, StandingRegion,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel in a request's failure slot: no worker has panicked in it.
const NOT_FAILED: u64 = u64::MAX;

/// How the dispatcher picks the next pool dispatch from its backlog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// One global FIFO, one request per pool dispatch. The baseline: no
    /// fairness, no fusion, minimum bookkeeping.
    CentralFcfs,
    /// Per-tenant FIFOs served by deficit round-robin, one request per
    /// dispatch. Each needy tenant earns `quantum` iterations of credit
    /// per replenish round; a request dispatches when its tenant's
    /// deficit covers its total iteration cost, so tenants share the
    /// pool in proportion to rounds, not request counts — a tenant
    /// spamming small requests cannot starve one submitting large ones.
    TenantDrr {
        /// Iterations of credit per tenant per replenish round.
        quantum: u64,
    },
    /// Per-tenant FIFOs drained round-robin into a fused batch: up to
    /// `max_requests` requests (stopping earlier once `max_iters` total
    /// iterations are aboard) execute as one pool dispatch, one region
    /// chained through its barrier. Amortizes broadcast turnaround over
    /// small loops.
    Batch {
        /// Most requests fused into one dispatch.
        max_requests: usize,
        /// Iteration budget per fused dispatch (soft: the first request
        /// always boards).
        max_iters: u64,
    },
}

impl Discipline {
    /// Stable label for snapshots and bench rows.
    pub fn label(&self) -> &'static str {
        match self {
            Discipline::CentralFcfs => "fcfs",
            Discipline::TenantDrr { .. } => "drr",
            Discipline::Batch { .. } => "batch",
        }
    }

    /// Whether this discipline stages requests in one central FIFO
    /// (otherwise per-tenant FIFOs).
    pub(crate) fn uses_central(&self) -> bool {
        matches!(self, Discipline::CentralFcfs)
    }
}

/// The server's staging state, behind [`ServerShared`]'s one staging
/// lock: the dispatcher thread, the manual driver and an admit that
/// dispatches on an idle server all pump, select and launch through it.
pub(crate) struct DispatchState {
    /// Global FIFO ([`Discipline::CentralFcfs`] only).
    central: VecDeque<Admitted>,
    /// Per-tenant FIFOs (DRR and batching disciplines).
    fifos: Vec<VecDeque<Admitted>>,
    /// DRR iteration credits, indexed by tenant.
    deficits: Vec<u64>,
    /// Round-robin cursor over tenants.
    rr: usize,
    /// The batch an admit launched on an idle server, until somebody
    /// reaps its ticket (see [`InFlight`]).
    pub(crate) in_flight: Option<InFlight>,
    /// The next dispatch's requests: picked by [`DispatchState::pick`],
    /// moved into the batch at launch.
    pub(crate) picked: Vec<Admitted>,
    /// The standing region, its plan the last reaped batch, for the next
    /// launch to refill and publish.
    pub(crate) spare: Option<StandingRegion<Batch>>,
}

impl DispatchState {
    pub(crate) fn new(tenants: usize) -> Self {
        Self {
            central: VecDeque::new(),
            fifos: (0..tenants).map(|_| VecDeque::new()).collect(),
            deficits: vec![0; tenants],
            rr: 0,
            in_flight: None,
            picked: Vec::new(),
            spare: None,
        }
    }

    /// Requests staged but not yet dispatched.
    pub(crate) fn backlog(&self) -> usize {
        self.central.len() + self.fifos.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Drains the admission ring into the staging FIFOs. Returns how many
    /// requests moved.
    pub(crate) fn pump(&mut self, shared: &ServerShared, discipline: Discipline) -> usize {
        let mut moved = 0;
        while let Some(a) = shared.queue.pop() {
            if discipline.uses_central() {
                self.central.push_back(a);
            } else {
                self.fifos[a.req.tenant].push_back(a);
            }
            moved += 1;
        }
        moved
    }

    /// Picks the next dispatch under `discipline` into `picked`, the next
    /// dispatch's requests. Returns whether any request is left there once
    /// those whose deadline ran out in the queue retired as expired, without
    /// costing a pool dispatch.
    pub(crate) fn pick(&mut self, shared: &ServerShared, discipline: Discipline) -> bool {
        let mut picked = std::mem::take(&mut self.picked);
        debug_assert!(picked.is_empty(), "a launch moves the last pick out");
        self.select(discipline, &mut picked);
        retire_expired(shared, &mut picked);
        self.picked = picked;
        !self.picked.is_empty()
    }

    /// Appends the next dispatch under `discipline` to `out`. Nothing
    /// appended means nothing is staged.
    pub(crate) fn select(&mut self, discipline: Discipline, out: &mut Vec<Admitted>) {
        match discipline {
            Discipline::CentralFcfs => out.extend(self.central.pop_front()),
            Discipline::TenantDrr { quantum } => self.select_drr(quantum.max(1), out),
            Discipline::Batch {
                max_requests,
                max_iters,
            } => self.select_batch(max_requests.max(1), max_iters.max(1), out),
        }
    }

    /// Launches `picked` as one dispatch in `slot`, a claim on `pool`'s
    /// dispatch slot, through the standing region, and leaves it in flight.
    pub(crate) fn launch(
        &mut self,
        shared: &Arc<ServerShared>,
        pool: Arc<Pool>,
        slot: DispatchSlot,
    ) {
        let spare = self.spare.take();
        let launched = launch(shared, pool, slot, &mut self.picked, spare);
        self.in_flight = Some(launched);
    }

    /// Reaps the batch in flight, if any, waiting for it the way
    /// [`InFlight::reap`] does, and keeps its region as the spare.
    pub(crate) fn reap(&mut self, on_leg: impl FnMut(WaitOutcome)) {
        if let Some(done) = self.in_flight.take() {
            self.spare = Some(done.reap(on_leg));
        }
    }

    fn select_drr(&mut self, quantum: u64, out: &mut Vec<Admitted>) {
        if self.fifos.iter().all(VecDeque::is_empty) {
            return;
        }
        let t_count = self.fifos.len();
        loop {
            for k in 0..t_count {
                let t = (self.rr + k) % t_count;
                let Some(front) = self.fifos[t].front() else {
                    // An idle tenant banks no credit (classic DRR: the
                    // deficit resets when the queue goes empty).
                    self.deficits[t] = 0;
                    continue;
                };
                let cost = front.req.iters().max(1);
                if self.deficits[t] >= cost {
                    self.deficits[t] -= cost;
                    // Stay on this tenant: it keeps dispatching while its
                    // credit lasts, then the scan naturally moves on.
                    self.rr = t;
                    return out.extend(self.fifos[t].pop_front());
                }
            }
            // Nobody could afford their head-of-line request: every needy
            // tenant earns a quantum and the scan repeats. Terminates —
            // deficits grow monotonically toward the bounded head cost.
            for t in 0..t_count {
                if !self.fifos[t].is_empty() {
                    self.deficits[t] += quantum;
                }
            }
        }
    }

    fn select_batch(&mut self, max_requests: usize, max_iters: u64, batch: &mut Vec<Admitted>) {
        let t_count = self.fifos.len();
        let mut iters = 0u64;
        let mut empty_streak = 0;
        while batch.len() < max_requests && empty_streak < t_count {
            let t = self.rr;
            self.rr = (self.rr + 1) % t_count;
            match self.fifos[t].front() {
                Some(front) => {
                    let cost = front.req.iters();
                    if !batch.is_empty() && iters.saturating_add(cost) > max_iters {
                        break;
                    }
                    iters += cost;
                    batch.extend(self.fifos[t].pop_front());
                    empty_streak = 0;
                }
                None => empty_streak += 1,
            }
        }
    }
}

/// One phase of one request: one phase of the batch's region.
struct Unit {
    /// Index into [`Batch::reqs`].
    req: usize,
    /// Zero-based phase index within the request.
    phase: u32,
    /// Whether this is the request's final phase.
    last: bool,
    /// The request's policy.
    policy: RuntimeScheduler,
    /// Iterations of this unit run so far (final phases only): each worker
    /// adds its own total once, after its drain.
    ran: AtomicU64,
}

/// An executing batch: a [`PhasePlan`] whose phase *g* is the *g*-th
/// request-phase of the batch, with the per-request failure slots and
/// retirement latches its hooks keep, and the stamps.
pub(crate) struct Batch {
    shared: Arc<ServerShared>,
    /// The pool this batch's region was built for. The server's pool slot
    /// may be swapped by the supervisor mid-batch; this batch keeps running
    /// (and stamping) against the pool it was actually handed to, and the
    /// next launch builds a region for the new one.
    pool: Arc<Pool>,
    reqs: Vec<Admitted>,
    units: Vec<Unit>,
    /// Per-request failure slot: [`NOT_FAILED`] while healthy, else
    /// `(worker << 32) | phase` of the first panic (first CAS wins).
    failed: Vec<AtomicU64>,
    /// Per-request retirement latch: set exactly once — by the worker
    /// whose count reaches the final phase's `n`, in the final phase's
    /// close, or in the reaper's escape hatch — when the request leaves
    /// the ledger as completed or failed.
    retired: Vec<AtomicBool>,
    /// Dispatch stamp (shared by every request in the batch — they were
    /// handed to the pool together).
    dispatch_ns: u64,
}

impl Batch {
    /// An empty batch, for [`Batch::load`] to fill.
    fn new(shared: Arc<ServerShared>, pool: Arc<Pool>) -> Batch {
        Batch {
            shared,
            pool,
            reqs: Vec::new(),
            units: Vec::new(),
            failed: Vec::new(),
            retired: Vec::new(),
            dispatch_ns: 0,
        }
    }

    /// Fills the batch with `reqs`, dispatched at `dispatch_ns`, leaving
    /// `reqs` empty. Whatever an earlier load put here is cleared, and
    /// every vector keeps its capacity.
    fn load(&mut self, reqs: &mut Vec<Admitted>, dispatch_ns: u64) {
        self.reqs.clear();
        self.reqs.append(reqs);
        self.units.clear();
        for (req, a) in self.reqs.iter().enumerate() {
            let phases = a.req.phases;
            self.units.extend((0..phases).map(|phase| Unit {
                req,
                phase,
                last: phase + 1 == phases,
                policy: a.req.policy.scheduler(&self.shared.adapt),
                ran: AtomicU64::new(0),
            }));
        }
        let n_reqs = self.reqs.len();
        self.failed.clear();
        self.failed
            .extend((0..n_reqs).map(|_| AtomicU64::new(NOT_FAILED)));
        self.retired.clear();
        self.retired
            .extend((0..n_reqs).map(|_| AtomicBool::new(false)));
        self.dispatch_ns = dispatch_ns;
    }

    /// Retires request `ri`, whose final phase is `last_phase`, out of the
    /// ledger: completed when its failure slot is clean, failed otherwise.
    /// Called by the worker whose count reaches `n` and by the final
    /// phase's close; the latch lets the first of them through and also
    /// guards the reaper's escape hatch ([`Batch::fail_unretired`]), so no
    /// path can count a request twice. The final phase's span instant is
    /// recorded here, so it precedes `RequestComplete` on the request's
    /// track whichever path retires it. Returns whether this call retired
    /// the request.
    fn retire(&self, ri: usize, last_phase: u32) -> bool {
        if self.retired[ri].swap(true, Ordering::AcqRel) {
            return false;
        }
        self.shared.trace_record(EventKind::RequestPhase {
            id: self.reqs[ri].id,
            phase: last_phase,
        });
        match self.failed[ri].load(Ordering::Acquire) {
            NOT_FAILED => self.complete(ri),
            packed => self.fail(ri, (packed >> 32) as u32, packed as u32),
        }
        true
    }

    /// Completion stamps for request `ri`. A request that finished after
    /// its deadline still completed — the work ran exactly once — but is
    /// additionally counted timed-out, the `Outcome::TimedOut` lane.
    fn complete(&self, ri: usize) {
        let a = &self.reqs[ri];
        let now = self.shared.now_ns();
        let tenant = &self.shared.tenants[a.req.tenant];
        let service = now.saturating_sub(self.dispatch_ns);
        tenant.service_ns.record(service);
        let sojourn = now.saturating_sub(a.admit_ns);
        tenant.sojourn_ns.record(sojourn);
        // The admission predictor wants pure service time: sojourn folds
        // queue wait back in and would double-count the backlog term.
        self.shared.observe_service(a, service);
        let late = a
            .req
            .deadline
            .is_some_and(|d| sojourn > d.as_nanos() as u64);
        if late {
            tenant.timed_out.fetch_add(1, Ordering::Relaxed);
            self.shared.timed_out.fetch_add(1, Ordering::Relaxed);
        }
        let (tenant, id) = (a.req.tenant as u32, a.id);
        self.shared
            .trace_record(EventKind::RequestComplete { tenant, id });
        let kind = ServeEventKind::Complete;
        self.shared
            .book_out(&self.pool, a, kind, u32::from(late), now);
    }

    /// Failure stamps for request `ri`: the contained-panic exit lane.
    /// No latency histograms — a poisoned request has no service time
    /// worth aggregating — but the books balance as for a completion.
    fn fail(&self, ri: usize, worker: u32, phase: u32) {
        let a = &self.reqs[ri];
        let (tenant, id) = (a.req.tenant as u32, a.id);
        self.shared.trace_record(EventKind::RequestFailed {
            tenant,
            id,
            worker,
            phase,
        });
        let code = (worker << 16) | (phase & 0xFFFF);
        let (kind, now) = (ServeEventKind::Failed, self.shared.now_ns());
        self.shared.book_out(&self.pool, a, kind, code, now);
    }

    /// Escape hatch for a panic in the driver itself rather than in a
    /// body (arming a unit's source, or one that escaped the driver):
    /// every request neither its count nor a close retired is failed here,
    /// by whoever reaps the batch, so the ledger still balances and the
    /// dispatcher still does not die.
    pub(crate) fn fail_unretired(&self, worker: u32, phase: u32) {
        for ri in 0..self.reqs.len() {
            if !self.retired[ri].swap(true, Ordering::AcqRel) {
                self.fail(ri, worker, phase);
            }
        }
    }
}

impl PhasePlan for Batch {
    fn phases(&self) -> usize {
        self.units.len()
    }

    fn len(&self, g: usize) -> u64 {
        self.reqs[self.units[g].req].req.n
    }

    fn policy(&self, g: usize) -> &RuntimeScheduler {
        &self.units[g].policy
    }

    fn body(&self, g: usize) -> impl Fn(u64) + '_ {
        let req = &self.reqs[self.units[g].req].req;
        let workset = &self.shared.tenants[req.tenant].workset[..];
        let (mask, kernel) = (workset.len() - 1, req.kernel);
        move |i| crate::request::run_iter(workset, mask, i, kernel)
    }

    /// A failed request's later units are skipped.
    fn skip(&self, g: usize) -> bool {
        self.failed[self.units[g].req].load(Ordering::Acquire) != NOT_FAILED
    }

    /// The tenant's iteration count first, then — on a final unit — the
    /// unit's `ran` count: the `AcqRel` chain on it carries every peer's
    /// writes for the request to the worker whose add reaches `n`, which
    /// retires the request at its last iteration.
    fn drained(&self, _worker: usize, g: usize, iters: u64) {
        if iters == 0 {
            return;
        }
        let unit = &self.units[g];
        let req = &self.reqs[unit.req].req;
        let tenant = &self.shared.tenants[req.tenant];
        tenant.iters.fetch_add(iters, Ordering::Relaxed);
        if unit.last && unit.ran.fetch_add(iters, Ordering::AcqRel) + iters == req.n {
            self.retire(unit.req, unit.phase);
        }
    }

    /// A final unit's close retires what its count cannot reach — a
    /// request with a panicked grab (whose count never reaches `n`), or
    /// an `n = 0` one; an earlier unit's marks the request's phase span.
    fn close(&self, _worker: usize, g: usize) {
        let unit = &self.units[g];
        if unit.last {
            if self.retire(unit.req, unit.phase) {
                self.shared.turn_retires.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.shared.trace_record(EventKind::RequestPhase {
                id: self.reqs[unit.req].id,
                phase: unit.phase,
            });
        }
    }

    /// A panicking body fails its own request only: the first panic's
    /// `(worker, phase)` wins the CAS into its failure slot, and the batch
    /// goes on.
    fn contain(&self, worker: usize, g: usize) -> bool {
        let unit = &self.units[g];
        let packed = ((worker as u64) << 32) | unit.phase as u64;
        let _ = self.failed[unit.req].compare_exchange(
            NOT_FAILED,
            packed,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
        true
    }
}

/// A batch an admit launched on an idle server, with its pool ticket,
/// until somebody reaps it: the next admit that dispatches inline (once
/// the ticket is complete), the dispatcher before its next launch,
/// shutdown or drop, or the supervisor when it swaps the pool. The pool
/// is free again as soon as its last worker leaves the batch, reaped or
/// not; the ticket still returns its escaped panic here.
pub(crate) struct InFlight {
    ticket: DispatchTicket,
    region: StandingRegion<Batch>,
}

impl InFlight {
    /// Whether every worker has left the batch; reaping it then does not
    /// wait.
    pub(crate) fn is_complete(&self) -> bool {
        self.ticket.is_complete()
    }

    /// Waits the batch out the way the dispatcher waits for its own
    /// ([`IDLE_YIELDS`] rounds, then asleep) and frees the pool. A failure
    /// of the driver itself fails whatever was never retired, so the
    /// ledger balances and the reaper survives. Returns the region, whose
    /// job's one clone, the ticket's, the wait has dropped.
    pub(crate) fn reap(self, on_leg: impl FnMut(WaitOutcome)) -> StandingRegion<Batch> {
        if let Err(e) = self.ticket.wait_parked(IDLE_YIELDS, on_leg) {
            let batch = self.region.plan();
            batch.fail_unretired(e.worker() as u32, e.phase() as u32);
        }
        self.region
    }
}

/// Stamps `reqs` dispatched, loads them into the standing region's batch
/// and publishes it in `slot`, a claim on `pool`'s dispatch slot. Returns
/// without waiting, with `reqs` empty. The region is `spare` when it was
/// built for `pool`; otherwise — the first launch, or the first after a
/// supervisor swapped the pool — a new one, and the old one's source goes
/// back to the old pool as it drops.
fn launch(
    shared: &Arc<ServerShared>,
    pool: Arc<Pool>,
    slot: DispatchSlot,
    reqs: &mut Vec<Admitted>,
    spare: Option<StandingRegion<Batch>>,
) -> InFlight {
    debug_assert!(!reqs.is_empty());
    let dispatch_ns = shared.now_ns();
    for a in reqs.iter() {
        let (tenant, id) = (a.req.tenant as u32, a.id);
        shared.trace_record(EventKind::RequestDispatch { tenant, id });
        let kind = ServeEventKind::Dispatch;
        shared.serve_event_on(&pool, kind, a.req.tenant, a.id, 0, dispatch_ns);
    }
    shared.dispatches.fetch_add(1, Ordering::Relaxed);
    if reqs.len() > 1 {
        shared
            .batched_requests
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
    }
    let mut region = spare
        .filter(|region| Arc::ptr_eq(&region.plan().pool, &pool))
        .unwrap_or_else(|| {
            let batch = Batch::new(Arc::clone(shared), Arc::clone(&pool));
            StandingRegion::new(&pool, batch)
        });
    let ticket = region.publish(slot, |batch| batch.load(reqs, dispatch_ns));
    // Each request's queue wait was fixed at `dispatch_ns`: its sample is
    // written off the request's path, visible once this launch returns
    // (DESIGN §12).
    for a in &region.plan().reqs {
        let queue_ns = &shared.tenants[a.req.tenant].queue_ns;
        queue_ns.record(dispatch_ns.saturating_sub(a.admit_ns));
    }
    InFlight { ticket, region }
}

/// Executes the picked requests ([`DispatchState::pick`]) as one pool
/// dispatch and waits for it.
///
/// The caller waits the way the dispatcher waits for work — for a batch an
/// admit left in flight, for the pool if a blocking `Pool::run` caller
/// holds it, and then for its own batch: [`IDLE_YIELDS`] rounds that each
/// run `while_waiting` on the staging state (the dispatcher's ring pump)
/// and yield, then asleep until the pool is free or the batch's last
/// worker leaves. A short dispatch finishes inside the grace and never sleeps. A
/// long one must not keep its waiter runnable: with no spare core that
/// thread takes a CPU from the workers, which then spin out every
/// in-batch barrier against a peer that cannot run. `admit` needs no help
/// meanwhile — with the dispatcher awake it touches only the ring and
/// atomics — so the ring's capacity bounds what one batch can buffer.
pub(crate) fn execute(
    shared: &Arc<ServerShared>,
    st: &mut DispatchState,
    mut while_waiting: impl FnMut(&mut DispatchState),
) {
    let pool = shared.pool();
    // Out of the staging state, which the waits below lend to
    // `while_waiting`.
    let earlier = st.in_flight.take();
    let mut reqs = std::mem::take(&mut st.picked);
    let mut spare = st.spare.take();
    let mut on_leg = |leg| match leg {
        WaitOutcome::Spin => {}
        WaitOutcome::Yield => while_waiting(st),
        WaitOutcome::Park => {
            shared.batch_parks.fetch_add(1, Ordering::Relaxed);
        }
    };
    if let Some(earlier) = earlier {
        spare = Some(earlier.reap(&mut on_leg));
    }
    let slot = pool.claim(IDLE_YIELDS, &mut on_leg);
    let done = launch(shared, pool, slot, &mut reqs, spare).reap(&mut on_leg);
    st.picked = reqs;
    st.spare = Some(done);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{LoopRequest, ServeKernel, ServePolicy};

    fn req(tenant: usize, n: u64) -> Admitted {
        Admitted {
            req: LoopRequest {
                tenant,
                kernel: ServeKernel::Touch,
                n,
                phases: 1,
                policy: ServePolicy::Afs,
                deadline: None,
            },
            id: 0,
            admit_ns: 0,
        }
    }

    /// The next pick under `discipline`, into a fresh buffer.
    fn select(st: &mut DispatchState, discipline: Discipline) -> Vec<Admitted> {
        let mut out = Vec::new();
        st.select(discipline, &mut out);
        out
    }

    fn staged(discipline: Discipline, reqs: Vec<Admitted>) -> DispatchState {
        let tenants = reqs.iter().map(|a| a.req.tenant).max().unwrap_or(0) + 1;
        let mut st = DispatchState::new(tenants);
        for a in reqs {
            if discipline.uses_central() {
                st.central.push_back(a);
            } else {
                st.fifos[a.req.tenant].push_back(a);
            }
        }
        st
    }

    #[test]
    fn fcfs_preserves_arrival_order_across_tenants() {
        let d = Discipline::CentralFcfs;
        let mut st = staged(d, vec![req(1, 10), req(0, 20), req(1, 30)]);
        let picks: Vec<u64> =
            std::iter::from_fn(|| select(&mut st, d).into_iter().next().map(|a| a.req.n)).collect();
        assert_eq!(picks, vec![10, 20, 30]);
        assert_eq!(st.backlog(), 0);
    }

    #[test]
    fn drr_shares_iterations_not_request_counts() {
        // Tenant 0 spams cheap requests (32 iters), tenant 1 submits
        // expensive ones (96 iters). Under DRR with equal quanta, tenant
        // 0 should dispatch ~3 requests per tenant-1 request: equal
        // iteration shares, unequal request counts.
        let d = Discipline::TenantDrr { quantum: 32 };
        let mut reqs: Vec<Admitted> = (0..12).map(|_| req(0, 32)).collect();
        reqs.extend((0..4).map(|_| req(1, 96)));
        let mut st = staged(d, reqs);
        let mut order = Vec::new();
        loop {
            let b = select(&mut st, d);
            let Some(a) = b.into_iter().next() else { break };
            order.push(a.req.tenant);
        }
        assert_eq!(order.len(), 16);
        // In any window where both tenants had backlog (the first 12
        // dispatches), iteration shares stay within one request of even.
        let head = &order[..8];
        let t0_iters: u64 = head.iter().filter(|&&t| t == 0).count() as u64 * 32;
        let t1_iters: u64 = head.iter().filter(|&&t| t == 1).count() as u64 * 96;
        assert!(
            t0_iters.abs_diff(t1_iters) <= 96,
            "iteration shares diverged: t0 {t0_iters} vs t1 {t1_iters} in {order:?}"
        );
    }

    #[test]
    fn drr_resets_credit_when_a_tenant_goes_idle() {
        let d = Discipline::TenantDrr { quantum: 1000 };
        let mut st = staged(d, vec![req(0, 10), req(1, 10)]);
        while !select(&mut st, d).is_empty() {}
        // Tenant 0 banked a large deficit; once idle it must not carry it
        // into the next burst (no stale-credit monopoly).
        st.fifos[0].push_back(req(0, 10));
        st.fifos[1].push_back(req(1, 10));
        let first = select(&mut st, d).remove(0);
        let second = select(&mut st, d).remove(0);
        let mut got = [first.req.tenant, second.req.tenant];
        got.sort_unstable();
        assert_eq!(got, [0, 1], "both tenants dispatch within one round");
    }

    #[test]
    fn batch_fuses_round_robin_up_to_the_caps() {
        let d = Discipline::Batch {
            max_requests: 4,
            max_iters: 1_000_000,
        };
        let mut st = staged(
            d,
            vec![req(0, 1), req(0, 2), req(1, 3), req(1, 4), req(0, 5)],
        );
        let b1 = select(&mut st, d);
        assert_eq!(b1.len(), 4);
        // Round-robin: alternating tenants while both have backlog.
        let tenants: Vec<usize> = b1.iter().map(|a| a.req.tenant).collect();
        assert_eq!(tenants, vec![0, 1, 0, 1]);
        let b2 = select(&mut st, d);
        assert_eq!(b2.len(), 1);
        assert!(select(&mut st, d).is_empty());
    }

    #[test]
    fn batch_respects_the_iteration_budget_but_always_boards_one() {
        let d = Discipline::Batch {
            max_requests: 8,
            max_iters: 100,
        };
        let mut st = staged(d, vec![req(0, 90), req(0, 90), req(0, 500)]);
        assert_eq!(
            select(&mut st, d).len(),
            1,
            "second 90 would blow the budget"
        );
        assert_eq!(select(&mut st, d).len(), 1);
        // A single oversized request still boards (soft cap).
        assert_eq!(select(&mut st, d).len(), 1);
        assert!(select(&mut st, d).is_empty());
    }
}
