//! Dispatch disciplines and the fused batch driver.
//!
//! The dispatcher owns the middle of the pipeline: it pumps admitted
//! requests out of the MPMC ring into its private per-tenant FIFOs (no
//! locks — the ring is the only shared structure), picks what runs next
//! under a pluggable [`Discipline`], and executes the pick as *one* pool
//! dispatch. A batch of fused requests becomes a chain of phases welded
//! together by a [`SenseBarrier`]: workers flow from one request's phase
//! into the next with a single decentralized rendezvous between them, so
//! a dispatch of eight 64-iteration loops costs one pool broadcast + 8
//! barrier turns instead of eight broadcasts — that amortization is the
//! whole case for the batching discipline.
//!
//! Completion stamping rides the barrier's turn slot: the last worker to
//! arrive at a request's final phase boundary records the service and
//! sojourn stamps *before* releasing the party, so a completed request's
//! latency is visible the instant any thread observes its completion.
//!
//! Panic containment: each worker drains each unit inside
//! `catch_unwind`, so a loop body that panics (fault injection, a future
//! closure kernel) poisons only its own request. The first panic wins a
//! CAS into the request's failure slot; every worker still arrives at
//! every barrier (the fused chain keeps turning), survivors skip the
//! failed request's later phases, and the final-phase turn slot retires
//! the request as failed instead of completed. Co-batched requests
//! complete exactly-once, and the dispatcher thread never unwinds.

use crate::request::OwnedSource;
use crate::server::{Admitted, ServerShared, IDLE_YIELDS};
use afs_metrics::WaitOutcome;
use afs_runtime::{Pool, SenseBarrier};
use afs_scope::ServeEventKind;
use afs_trace::event::EventKind;
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
    /// iterations are aboard) execute as one pool dispatch, chained
    /// through an in-batch barrier. Amortizes broadcast turnaround over
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

/// The dispatcher's private staging state. Never shared: the dispatcher
/// thread (or the manual driver, serialized by the server's state lock)
/// is its only owner.
pub(crate) struct DispatchState {
    /// Global FIFO ([`Discipline::CentralFcfs`] only).
    central: VecDeque<Admitted>,
    /// Per-tenant FIFOs (DRR and batching disciplines).
    fifos: Vec<VecDeque<Admitted>>,
    /// DRR iteration credits, indexed by tenant.
    deficits: Vec<u64>,
    /// Round-robin cursor over tenants.
    rr: usize,
}

impl DispatchState {
    pub(crate) fn new(tenants: usize) -> Self {
        Self {
            central: VecDeque::new(),
            fifos: (0..tenants).map(|_| VecDeque::new()).collect(),
            deficits: vec![0; tenants],
            rr: 0,
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

    /// Picks the next dispatch under `discipline`. Empty means nothing is
    /// staged.
    pub(crate) fn select(&mut self, discipline: Discipline) -> Vec<Admitted> {
        match discipline {
            Discipline::CentralFcfs => self.central.pop_front().into_iter().collect(),
            Discipline::TenantDrr { quantum } => self.select_drr(quantum.max(1)),
            Discipline::Batch {
                max_requests,
                max_iters,
            } => self.select_batch(max_requests.max(1), max_iters.max(1)),
        }
    }

    fn select_drr(&mut self, quantum: u64) -> Vec<Admitted> {
        if self.fifos.iter().all(VecDeque::is_empty) {
            return Vec::new();
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
                    return self.fifos[t].pop_front().into_iter().collect();
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

    fn select_batch(&mut self, max_requests: usize, max_iters: u64) -> Vec<Admitted> {
        let t_count = self.fifos.len();
        let mut batch = Vec::new();
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
        batch
    }
}

/// One phase of one request within a batch's execution plan.
struct Unit {
    source: OwnedSource,
    /// Index into [`Batch::reqs`].
    req_idx: usize,
    /// Zero-based phase index within the request (span annotation).
    phase: u32,
    /// Whether this is the request's final phase (completion stamps fire
    /// at its barrier turn).
    last: bool,
}

/// An executing batch: the flattened phase plan, the in-batch barrier,
/// and the stamps. Shared with every pool worker through the job `Arc`.
pub(crate) struct Batch {
    shared: Arc<ServerShared>,
    /// The pool this batch was built against, captured once at dispatch.
    /// The server's pool slot may be swapped by the supervisor mid-batch;
    /// this batch keeps running (and stamping) against the pool it was
    /// actually handed to.
    pool: Arc<Pool>,
    reqs: Vec<Admitted>,
    units: Vec<Unit>,
    barrier: SenseBarrier,
    /// Per-request failure slot: [`NOT_FAILED`] while healthy, else
    /// `(worker << 32) | phase` of the first panic (first CAS wins).
    failed: Vec<AtomicU64>,
    /// Per-request retirement latch: set exactly once, in the barrier
    /// turn slot (or the dispatcher's escape hatch), when the request
    /// leaves the ledger as completed or failed.
    retired: Vec<AtomicBool>,
    /// Dispatch stamp (shared by every request in the batch — they were
    /// handed to the pool together).
    dispatch_ns: u64,
}

impl Batch {
    fn build(
        shared: Arc<ServerShared>,
        pool: Arc<Pool>,
        reqs: Vec<Admitted>,
        dispatch_ns: u64,
    ) -> Batch {
        let p = pool.workers();
        let metrics = pool.metrics();
        // One controller observation per dispatched batch: every adaptive
        // unit in this batch runs with the same freshly tuned (k, b), and
        // the decision is surfaced through the pool's metrics snapshot.
        let tune = if reqs
            .iter()
            .any(|a| a.req.policy == crate::request::ServePolicy::Adaptive)
        {
            let ctl = &shared.adapt;
            let t = ctl.observe_registry(metrics);
            metrics.record_sched_tune(t.k, t.b as u64, ctl.decisions(), ctl.settled());
            (t.k, t.b)
        } else {
            (p as u64, 1)
        };
        let mut units = Vec::new();
        for (ri, a) in reqs.iter().enumerate() {
            let phases = a.req.phases.max(1);
            for ph in 0..phases {
                units.push(Unit {
                    source: a.req.policy.build(a.req.n, p, metrics, tune),
                    req_idx: ri,
                    phase: ph,
                    last: ph + 1 == phases,
                });
            }
        }
        let barrier = pool.phase_barrier();
        let n_reqs = reqs.len();
        Batch {
            shared,
            pool,
            reqs,
            units,
            barrier,
            failed: (0..n_reqs).map(|_| AtomicU64::new(NOT_FAILED)).collect(),
            retired: (0..n_reqs).map(|_| AtomicBool::new(false)).collect(),
            dispatch_ns,
        }
    }

    /// The per-worker body: drain each unit's source, then rendezvous.
    /// Units are totally ordered; the barrier generation is the unit
    /// index, so every worker walks the same chain.
    ///
    /// Each unit's drain runs inside `catch_unwind`: a panicking body
    /// CASes `(worker, phase)` into its request's failure slot and the
    /// worker proceeds to the barrier anyway, so the chain keeps turning
    /// for every co-batched request. A failure in phase `k` is published
    /// before the worker's phase-`k` arrive, so every worker observes it
    /// by phase `k+1` and skips the failed request's remaining phases.
    fn run_worker(&self, w: usize) {
        let counters = self.pool.metrics().worker(w);
        let faults = self.pool.fault_plan();
        if let Some(f) = faults {
            f.on_region_start(w);
        }
        // Grab attempts by this worker across the whole batch region —
        // the coordinate the fault plan's stall/preemption coins key on.
        let mut grabs = 0u64;
        for (g, unit) in self.units.iter().enumerate() {
            let a = &self.reqs[unit.req_idx];
            let tenant = &self.shared.tenants[a.req.tenant];
            if self.failed[unit.req_idx].load(Ordering::Acquire) == NOT_FAILED {
                let phase = unit.phase as usize;
                let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let workset = &tenant.workset[..];
                    let mask = workset.len() - 1;
                    let kernel = a.req.kernel;
                    let mut iters = 0u64;
                    loop {
                        counters.record_heartbeat();
                        if let Some(f) = faults {
                            f.on_grab(w, phase, grabs);
                        }
                        grabs += 1;
                        let Some(grab) = unit.source.next(w) else {
                            break;
                        };
                        counters.record_access(grab.access);
                        for i in grab.range.start..grab.range.end {
                            if let Some(f) = faults {
                                f.maybe_panic(w, phase, i);
                            }
                            crate::request::run_iter(workset, mask, i, kernel);
                        }
                        iters += grab.range.len();
                    }
                    iters
                }));
                match drained {
                    Ok(iters) => {
                        counters.record_iters(iters);
                        if iters > 0 {
                            tenant.iters.fetch_add(iters, Ordering::Relaxed);
                        }
                    }
                    Err(_) => {
                        let packed = ((w as u64) << 32) | unit.phase as u64;
                        let _ = self.failed[unit.req_idx].compare_exchange(
                            NOT_FAILED,
                            packed,
                            Ordering::AcqRel,
                            Ordering::Relaxed,
                        );
                    }
                }
            }
            let completes = unit.last.then_some(unit.req_idx);
            let (span_id, span_phase) = (a.id, unit.phase);
            self.barrier.arrive_then_as(w, (g + 1) as u64, || {
                // The turn slot runs on exactly one worker, after every
                // worker finished this phase — the moment the phase
                // retired, which is what the span instant marks.
                self.shared.trace_record(EventKind::RequestPhase {
                    id: span_id,
                    phase: span_phase,
                });
                if let Some(ri) = completes {
                    self.retire(ri);
                }
            });
        }
    }

    /// Retires request `ri` out of the ledger: completed when its failure
    /// slot is clean, failed otherwise. Runs in the barrier turn slot —
    /// exactly once, after every worker finished the final phase, before
    /// any is released. The latch also guards the dispatcher's escape
    /// hatch ([`Batch::fail_unretired`]) so the two paths cannot double-
    /// count a request.
    fn retire(&self, ri: usize) {
        if self.retired[ri].swap(true, Ordering::AcqRel) {
            return;
        }
        match self.failed[ri].load(Ordering::Acquire) {
            NOT_FAILED => self.complete(ri),
            packed => self.fail(ri, (packed >> 32) as u32, packed as u32),
        }
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
        tenant.completed.fetch_add(1, Ordering::Relaxed);
        tenant.pending.fetch_sub(1, Ordering::Relaxed);
        tenant
            .backlog_iters
            .fetch_sub(a.req.iters(), Ordering::Relaxed);
        self.shared.completed.fetch_add(1, Ordering::Relaxed);
        self.shared.trace_record(EventKind::RequestComplete {
            tenant: a.req.tenant as u32,
            id: a.id,
        });
        self.shared.serve_event(
            ServeEventKind::Complete,
            a.req.tenant,
            a.id,
            u32::from(late),
        );
    }

    /// Failure stamps for request `ri`: the contained-panic exit lane.
    /// No latency histograms — a poisoned request has no service time
    /// worth aggregating — but the pending/backlog books are balanced
    /// exactly as completion would, so the ledger stays exact.
    fn fail(&self, ri: usize, worker: u32, phase: u32) {
        let a = &self.reqs[ri];
        let tenant = &self.shared.tenants[a.req.tenant];
        tenant.failed.fetch_add(1, Ordering::Relaxed);
        tenant.pending.fetch_sub(1, Ordering::Relaxed);
        tenant
            .backlog_iters
            .fetch_sub(a.req.iters(), Ordering::Relaxed);
        self.shared.failed.fetch_add(1, Ordering::Relaxed);
        self.shared.trace_record(EventKind::RequestFailed {
            tenant: a.req.tenant as u32,
            id: a.id,
            worker,
            phase,
        });
        self.shared.serve_event(
            ServeEventKind::Failed,
            a.req.tenant,
            a.id,
            (worker << 16) | (phase & 0xFFFF),
        );
    }

    /// Escape hatch for a panic that got past per-request containment
    /// (e.g. a pool running [`afs_runtime::PanicPolicy::SkipRemaining`]
    /// aborting the chain): every request the barrier turns never
    /// retired is failed here, on the dispatcher, so the ledger still
    /// balances and the dispatcher still does not die.
    pub(crate) fn fail_unretired(&self, worker: u32, phase: u32) {
        for ri in 0..self.reqs.len() {
            if !self.retired[ri].swap(true, Ordering::AcqRel) {
                self.fail(ri, worker, phase);
            }
        }
    }
}

/// Executes `reqs` as one pool dispatch, recording dispatch stamps and
/// queueing delays on the way in. Returns the number of requests executed.
///
/// The caller waits the way the dispatcher waits for work — for the pool,
/// if a blocking `Pool::run` caller holds it, and then for the batch:
/// [`IDLE_YIELDS`] rounds that each run `while_waiting` (the dispatcher's
/// ring pump) and yield, then asleep until the pool is released or the
/// last worker acks. A short dispatch finishes inside the grace and never
/// sleeps. A long one must not keep its waiter runnable: with no spare
/// core that thread takes a CPU from the workers, which then spin out
/// every in-batch barrier against a peer that cannot run. `admit` needs no
/// help meanwhile — it touches only the ring and atomics — so the ring's
/// capacity bounds what one batch can buffer.
pub(crate) fn execute(
    shared: &Arc<ServerShared>,
    reqs: Vec<Admitted>,
    mut while_waiting: impl FnMut(),
) -> usize {
    debug_assert!(!reqs.is_empty());
    let pool = shared.pool();
    let dispatch_ns = shared.now_ns();
    for a in &reqs {
        shared.tenants[a.req.tenant]
            .queue_ns
            .record(dispatch_ns.saturating_sub(a.admit_ns));
        shared.trace_dispatch(a.req.tenant, a.id);
        shared.serve_event(ServeEventKind::Dispatch, a.req.tenant, a.id, 0);
    }
    shared.dispatches.fetch_add(1, Ordering::Relaxed);
    if reqs.len() > 1 {
        shared
            .batched_requests
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
    }
    let count = reqs.len();
    let batch = Arc::new(Batch::build(
        Arc::clone(shared),
        Arc::clone(&pool),
        reqs,
        dispatch_ns,
    ));
    let job = {
        let b = Arc::clone(&batch);
        Arc::new(move |w| b.run_worker(w))
    };
    let mut on_leg = |leg| match leg {
        WaitOutcome::Spin => {}
        WaitOutcome::Yield => while_waiting(),
        WaitOutcome::Park => {
            shared.batch_parks.fetch_add(1, Ordering::Relaxed);
        }
    };
    let ticket = pool.dispatch(job, IDLE_YIELDS, &mut on_leg);
    if let Err(e) = ticket.wait_parked(IDLE_YIELDS, &mut on_leg) {
        // A panic escaped per-request containment (the pool's own
        // catch_unwind caught it instead). Whatever the barrier turns
        // never retired is failed here so the ledger balances; the
        // dispatcher itself survives.
        batch.fail_unretired(e.worker() as u32, e.phase() as u32);
    }
    count
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
            std::iter::from_fn(|| st.select(d).into_iter().next().map(|a| a.req.n)).collect();
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
            let b = st.select(d);
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
        while !st.select(d).is_empty() {}
        // Tenant 0 banked a large deficit; once idle it must not carry it
        // into the next burst (no stale-credit monopoly).
        st.fifos[0].push_back(req(0, 10));
        st.fifos[1].push_back(req(1, 10));
        let first = st.select(d).remove(0);
        let second = st.select(d).remove(0);
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
        let b1 = st.select(d);
        assert_eq!(b1.len(), 4);
        // Round-robin: alternating tenants while both have backlog.
        let tenants: Vec<usize> = b1.iter().map(|a| a.req.tenant).collect();
        assert_eq!(tenants, vec![0, 1, 0, 1]);
        let b2 = st.select(d);
        assert_eq!(b2.len(), 1);
        assert!(st.select(d).is_empty());
    }

    #[test]
    fn batch_respects_the_iteration_budget_but_always_boards_one() {
        let d = Discipline::Batch {
            max_requests: 8,
            max_iters: 100,
        };
        let mut st = staged(d, vec![req(0, 90), req(0, 90), req(0, 500)]);
        assert_eq!(st.select(d).len(), 1, "second 90 would blow the budget");
        assert_eq!(st.select(d).len(), 1);
        // A single oversized request still boards (soft cap).
        assert_eq!(st.select(d).len(), 1);
        assert!(st.select(d).is_empty());
    }
}
