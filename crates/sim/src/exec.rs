//! The discrete-event simulation driver.
//!
//! Each processor cycles through: *request* work (targeting a queue, free),
//! *acquire* the queue lock (FCFS resource, pays the machine's sync cost),
//! *take* a chunk (the scheduler state machine, invoked at the lock grant
//! time so concurrent grabs serialize exactly as they would online), then
//! *execute* the chunk iteration by iteration, paying compute and memory
//! costs. Caches persist across phases; a barrier separates phases.
//!
//! A processor has exactly one pending event until it is done with the
//! phase: each handler returns its successor, or `None`. The event heap
//! therefore holds at most P entries, and the loop overwrites the top with
//! the successor (one sift-down) where it would otherwise pop and push. The
//! order is untouched: either way the heap holds the same *set* of events,
//! and `(time, seq)` — `seq` counts every scheduled event — is a total
//! order, so the next minimum is the same whatever the heap's layout.
//!
//! Modelling notes (documented deviations, see DESIGN.md):
//! * An iteration's memory traffic is charged at the iteration's start
//!   event, so a multi-miss iteration reserves the bus for all its misses
//!   at once; the resulting FCFS skew is bounded by one iteration's misses.
//! * Phases whose iterations touch no memory are executed chunk-at-a-time
//!   (single event per chunk), which is exact for them.

use crate::cache::{BlockCache, VersionTable};
use crate::machine::{Interconnect, MachineSpec};
use crate::resource::FcfsResource;
use crate::result::SimResult;
use crate::timeline::{SegmentKind, Timeline};
use crate::workload::Workload;
use afs_core::metrics::LoopMetrics;
use afs_core::policy::{AccessKind, Grab, LoopState, QueueTopology, Scheduler};
use afs_core::range::IterRange;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Simulation configuration: machine, processor count, start delays.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Machine cost model.
    pub machine: MachineSpec,
    /// Number of processors to use (≤ `machine.max_procs`).
    pub p: usize,
    /// Per-processor start delays applied to phase 0 (Table 2's experiment).
    /// Missing entries are 0.
    pub start_delays: Vec<f64>,
    /// Record the full chunk trace in the metrics.
    pub trace: bool,
    /// Record per-processor timelines (see [`crate::timeline`]).
    pub timeline: bool,
    /// Time-sharing disruption: every `quantum` time units, a competing
    /// application evicts all but `keep_fraction` of each processor's
    /// cache (applied at iteration boundaries). `None` models the paper's
    /// preferred space sharing (dedicated processors). This is the knob
    /// behind the §6 debate: Squillante & Lazowska's small quanta destroy
    /// affinity; Gupta et al.'s large quanta make it nearly free.
    pub disruption: Option<(f64, f64)>,
    /// Per-processor departure times: after this (absolute) simulation
    /// time, the processor takes no new work (it finishes its current chunk
    /// first — the paper's processor-departure model, §2.2/§7: AFS "is
    /// immune to the arrival and departure of processors"). Missing entries
    /// mean the processor never departs. A *static* scheduler's untaken
    /// iterations are simply lost when their owner departs — the loop never
    /// completes; see [`SimResult`]'s iteration counts.
    pub departures: Vec<f64>,
    /// Relative per-iteration timing jitter (e.g. `0.02` = ±2%), applied
    /// multiplicatively to compute times, seeded by `seed`.
    ///
    /// Real machines have timing noise (cache effects, interrupts, memory
    /// refresh); a perfectly deterministic simulation would let a central
    /// queue hand out iterations in the *same* round-robin pattern every
    /// phase, accidentally preserving affinity that self-scheduling and GSS
    /// do not have in reality. A small jitter reproduces the arrival-order
    /// nondeterminism of a real run while keeping the simulation
    /// reproducible.
    pub jitter: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl SimConfig {
    /// Creates a configuration with no start delays.
    pub fn new(machine: MachineSpec, p: usize) -> Self {
        assert!(p >= 1, "need at least one processor");
        assert!(
            p <= machine.max_procs,
            "{} supports at most {} processors, asked for {p}",
            machine.name,
            machine.max_procs
        );
        Self {
            machine,
            p,
            start_delays: Vec::new(),
            trace: false,
            timeline: false,
            disruption: None,
            departures: Vec::new(),
            jitter: 0.0,
            seed: 0x5EED,
        }
    }

    /// Enables time-sharing disruption: every `quantum`, each cache keeps
    /// only `keep_fraction` of its contents.
    pub fn with_disruption(mut self, quantum: f64, keep_fraction: f64) -> Self {
        assert!(quantum > 0.0);
        assert!((0.0..=1.0).contains(&keep_fraction));
        self.disruption = Some((quantum, keep_fraction));
        self
    }

    /// Enables per-processor timeline recording.
    pub fn with_timeline(mut self) -> Self {
        self.timeline = true;
        self
    }

    /// Marks processor `proc` as departing at absolute time `when`.
    pub fn with_departure(mut self, proc: usize, when: f64) -> Self {
        if self.departures.len() <= proc {
            self.departures.resize(proc + 1, f64::INFINITY);
        }
        self.departures[proc] = when;
        self
    }

    /// Enables relative timing jitter of `jitter` (e.g. `0.02` for ±2%).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter));
        self.jitter = jitter;
        self
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Delays processor `proc`'s start (phase 0) by `delay` time units.
    pub fn with_delay(mut self, proc: usize, delay: f64) -> Self {
        if self.start_delays.len() <= proc {
            self.start_delays.resize(proc + 1, 0.0);
        }
        self.start_delays[proc] = delay;
        self
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum EventKind {
    /// Processor asks the scheduler for work.
    Request { proc: usize },
    /// Queue lock granted; take a chunk, resume at `release`.
    Granted {
        proc: usize,
        queue: usize,
        access: AccessKind,
        release: f64,
    },
    /// Execute the next iteration of the processor's current chunk.
    Step { proc: usize },
}

#[derive(Clone, Copy, Debug)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// A handler's result: the processor's one successor event (time, kind), or
/// `None` when the processor is done with the phase.
type Successor = Option<(f64, EventKind)>;

/// Per-processor execution cursor over a grabbed chunk.
#[derive(Clone, Copy, Debug)]
struct Cursor {
    range: IterRange,
    next: u64,
}

struct Engine<'a> {
    wl: &'a dyn Workload,
    cfg: &'a SimConfig,
    caches: Vec<BlockCache>,
    versions: VersionTable,
    bus: FcfsResource,
    queues: Vec<FcfsResource>,
    /// Grabs of every phase so far.
    metrics: LoopMetrics,
    // Per-phase state:
    state: Option<Box<dyn LoopState>>,
    phase: usize,
    phase_memory: bool,
    cursors: Vec<Option<Cursor>>,
    finish_time: Vec<f64>,
    busy_time: Vec<f64>,
    timeline: Option<Timeline>,
    req_time: Vec<f64>,
    next_disrupt: Vec<f64>,
    // Scratch buffers.
    reads: Vec<crate::workload::BlockAccess>,
    writes: Vec<crate::workload::BlockAccess>,
}

impl<'a> Engine<'a> {
    /// Deterministic per-(phase, iteration) jitter factor in
    /// `[1 − j, 1 + j]`.
    fn jitter_factor(&self, i: u64) -> f64 {
        if self.cfg.jitter == 0.0 {
            return 1.0;
        }
        let mut h = afs_core::rng::SplitMix64::new(
            self.cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((self.phase as u64).wrapping_mul(0xA24B_AED4_963E_E407))
                .wrapping_add(i.wrapping_mul(0x9FB2_1C65_1E98_DF25)),
        );
        let u = (h.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        1.0 + self.cfg.jitter * (2.0 * u - 1.0)
    }

    fn iter_compute_time(&self, i: u64) -> f64 {
        let w = self.wl.cost(self.phase, i);
        self.cfg.machine.compute_time(w.flops, w.divs) * self.jitter_factor(i)
    }

    fn handle(&mut self, t: f64, kind: EventKind) -> Successor {
        match kind {
            EventKind::Request { proc } => self.handle_request(t, proc),
            EventKind::Granted {
                proc,
                queue,
                access,
                release,
            } => Some(self.handle_granted(t, proc, queue, access, release)),
            EventKind::Step { proc } => Some(self.handle_step(t, proc)),
        }
    }

    fn handle_request(&mut self, t: f64, proc: usize) -> Successor {
        let departed = self.cfg.departures.get(proc).is_some_and(|&when| t >= when);
        let target = if departed {
            None
        } else {
            self.req_time[proc] = t;
            self.state.as_mut().expect("phase state").target(proc)
        };
        let Some(target) = target else {
            self.finish_time[proc] = t;
            return None;
        };
        let hold = self.cfg.machine.sync_time(target.access);
        // A free grab has no lock to wait for (and holds it for 0).
        let grant = if target.access == AccessKind::Free {
            t
        } else {
            self.queues[target.queue].acquire(t, hold)
        };
        let granted = EventKind::Granted {
            proc,
            queue: target.queue,
            access: target.access,
            release: grant + hold,
        };
        Some((grant, granted))
    }

    fn handle_granted(
        &mut self,
        t: f64,
        proc: usize,
        queue: usize,
        access: AccessKind,
        release: f64,
    ) -> (f64, EventKind) {
        if let Some(tl) = self.timeline.as_mut() {
            tl.push(proc, SegmentKind::Wait, self.req_time[proc], t);
            tl.push(proc, SegmentKind::Sync, t, release);
        }
        let state = self.state.as_mut().expect("phase state");
        let Some(range) = state.take(proc, queue) else {
            // Queue drained between targeting and locking: retry.
            return (release, EventKind::Request { proc });
        };
        let grab = Grab {
            range,
            queue,
            access,
        };
        self.metrics.record(proc, &grab);
        if self.phase_memory {
            self.cursors[proc] = Some(Cursor {
                range,
                next: range.start,
            });
            return (release, EventKind::Step { proc });
        }
        // Pure-compute chunk: execute it in one shot.
        let mut dur = 0.0;
        for i in range.iter() {
            dur += self.iter_compute_time(i);
        }
        self.busy_time[proc] += dur;
        if let Some(tl) = self.timeline.as_mut() {
            tl.push(proc, SegmentKind::Busy, release, release + dur);
        }
        (release + dur, EventKind::Request { proc })
    }

    fn handle_step(&mut self, t: f64, proc: usize) -> (f64, EventKind) {
        let cursor = self.cursors[proc].as_mut().expect("active cursor");
        if cursor.next >= cursor.range.end {
            self.cursors[proc] = None;
            return (t, EventKind::Request { proc });
        }
        let i = cursor.next;
        cursor.next += 1;

        // Time-sharing disruption at iteration boundaries. Several missed
        // quantum boundaries compound as keep^k, applied in one step so a
        // long-idle processor does not spin per-quantum.
        if let Some((quantum, keep)) = self.cfg.disruption {
            if t >= self.next_disrupt[proc] {
                let crossings = ((t - self.next_disrupt[proc]) / quantum).floor() as i32 + 1;
                self.caches[proc].evict_fraction(keep.powi(crossings));
                self.next_disrupt[proc] += quantum * crossings as f64;
            }
        }

        let mut now = t;
        // Memory first (reads fetch inputs; write misses are
        // read-for-ownership), then compute.
        self.reads.clear();
        self.writes.clear();
        self.wl.reads(self.phase, i, &mut self.reads);
        self.wl.writes(self.phase, i, &mut self.writes);
        let m = &self.cfg.machine;
        let cache = &mut self.caches[proc];
        let n_reads = self.reads.len();
        for (k, acc) in self.reads.iter().chain(&self.writes).enumerate() {
            // One cache resolution per access: a write looks up and
            // re-stamps its copy in the same step.
            let hit = if k < n_reads {
                cache.access(acc.block, acc.bytes, self.versions.get(acc.block))
            } else {
                let newv = self.versions.bump(acc.block);
                cache.write(acc.block, acc.bytes, newv - 1, newv)
            };
            if hit {
                now += m.hit_time;
            } else {
                let cost = m.miss_time(acc.bytes);
                match m.interconnect {
                    Interconnect::Bus => {
                        let grant = self.bus.acquire(now, cost);
                        now = grant + cost;
                    }
                    Interconnect::Switch => now += cost,
                }
            }
        }
        now += self.iter_compute_time(i);
        self.busy_time[proc] += now - t;
        if let Some(tl) = self.timeline.as_mut() {
            tl.push(proc, SegmentKind::Busy, t, now);
        }
        (now, EventKind::Step { proc })
    }
}

/// Simulates `workload` under `scheduler` on the configured machine.
pub fn simulate(workload: &dyn Workload, scheduler: &dyn Scheduler, cfg: &SimConfig) -> SimResult {
    let p = cfg.p;
    let num_queues = match scheduler.topology() {
        QueueTopology::Central => 1,
        QueueTopology::PerProcessor => p,
    };
    let mut metrics = LoopMetrics::new(p, num_queues.max(p));
    if cfg.trace {
        metrics = metrics.with_tracing();
    }
    let mut eng = Engine {
        wl: workload,
        cfg,
        caches: (0..p)
            .map(|_| BlockCache::new(cfg.machine.cache_bytes))
            .collect(),
        versions: VersionTable::new(),
        bus: FcfsResource::new(),
        queues: (0..num_queues.max(1))
            .map(|_| FcfsResource::new())
            .collect(),
        metrics,
        state: None,
        phase: 0,
        phase_memory: true,
        cursors: vec![None; p],
        finish_time: vec![0.0; p],
        busy_time: vec![0.0; p],
        timeline: cfg.timeline.then(|| Timeline::new(p)),
        req_time: vec![0.0; p],
        next_disrupt: vec![cfg.disruption.map_or(f64::INFINITY, |(q, _)| q); p],
        reads: Vec::with_capacity(8),
        writes: Vec::with_capacity(8),
    };

    // One pending event per live processor; `seq` numbers events in
    // scheduling order and breaks time ties (module docs).
    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::with_capacity(p);
    let mut seq = 0u64;
    let mut order: Vec<usize> = Vec::with_capacity(p);
    let mut phase_start = 0.0f64;
    let mut phase_times = Vec::with_capacity(workload.phases());
    let mut imbalance_time = 0.0;

    for phase in 0..workload.phases() {
        let n = workload.phase_len(phase);
        eng.phase = phase;
        eng.phase_memory = workload.has_memory(phase);
        eng.state = Some(scheduler.begin_loop(n, p));
        eng.finish_time.fill(phase_start);

        // Barrier-exit skew: on a real machine processors leave the phase
        // barrier in an unpredictable order, so central-queue schedulers
        // hand chunk 0 to a different processor each phase. We model it as
        // a deterministic pseudo-random *ordering* of the simultaneous
        // start requests (FCFS queues then serve them in that order).
        // Without this, the perfectly deterministic barrier would re-create
        // the same arrival order every phase, letting arrival-keyed
        // schedulers (GSS, factoring, ...) keep affinity they do not have
        // in reality. Disabled when jitter is 0 (exact-math tests).
        order.clear();
        order.extend(0..p);
        if cfg.jitter > 0.0 {
            let mut rng = afs_core::rng::SplitMix64::new(
                cfg.seed ^ (phase as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
            );
            for i in (1..p).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
        }
        for &proc in &order {
            let delay = if phase == 0 {
                cfg.start_delays.get(proc).copied().unwrap_or(0.0)
            } else {
                0.0
            };
            seq += 1;
            heap.push(Reverse(Event {
                time: phase_start + delay,
                seq,
                kind: EventKind::Request { proc },
            }));
        }

        // The earliest event's successor replaces it at the top and sifts
        // down when `top` drops; only a finished processor pops.
        loop {
            debug_assert!(heap.len() <= p, "a processor has two pending events");
            let Some(mut top) = heap.peek_mut() else {
                break;
            };
            let Event { time, kind, .. } = top.0;
            match eng.handle(time, kind) {
                Some((time, kind)) => {
                    seq += 1;
                    top.0 = Event { time, seq, kind };
                }
                None => {
                    PeekMut::pop(top);
                }
            }
        }

        let phase_end = eng.finish_time.iter().cloned().fold(phase_start, f64::max);
        let first_done = eng
            .finish_time
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        imbalance_time += phase_end - first_done;
        phase_times.push(phase_end - phase_start);
        phase_start = phase_end; // barrier
    }

    SimResult {
        workload: workload.name(),
        scheduler: scheduler.name(),
        machine: cfg.machine.name.clone(),
        p,
        completion_time: phase_start,
        phase_times,
        metrics: eng.metrics,
        cache_hits: eng.caches.iter().map(|c| c.hits).sum(),
        cache_misses: eng.caches.iter().map(|c| c.misses).sum(),
        coherence_misses: eng.caches.iter().map(|c| c.coherence_misses).sum(),
        bus_busy: eng.bus.busy_time,
        bus_wait: eng.bus.wait_time,
        queue_wait: eng.queues.iter().map(|q| q.wait_time).sum(),
        busy_time: eng.busy_time,
        imbalance_time,
        expected_iters: (0..workload.phases())
            .map(|ph| workload.phase_len(ph))
            .sum(),
        timeline: eng.timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{BlockAccess, SyntheticLoop, Work};
    use afs_core::prelude::*;

    #[test]
    fn balanced_loop_on_ideal_machine_scales_linearly() {
        let wl = SyntheticLoop::balanced(1024, 10.0);
        for p in [1usize, 2, 4, 8] {
            let cfg = SimConfig::new(MachineSpec::ideal(8), p);
            let res = simulate(&wl, &StaticSched::new(), &cfg);
            let expect = 1024.0 * 10.0 / p as f64;
            assert!(
                (res.completion_time - expect).abs() < 1e-6,
                "p={p}: {} vs {expect}",
                res.completion_time
            );
        }
    }

    #[test]
    fn all_iterations_executed_once() {
        let wl = SyntheticLoop::triangular(500, 1.0);
        let cfg = SimConfig::new(MachineSpec::ideal(4), 4);
        for sched in afs_core::schedulers::paper_suite() {
            let res = simulate(&wl, &sched, &cfg);
            assert_eq!(res.metrics.total_iters(), 500, "{}", sched.name());
        }
    }

    #[test]
    fn factoring_balances_better_than_static_on_triangular() {
        let wl = SyntheticLoop::triangular(1000, 1.0);
        let cfg = SimConfig::new(MachineSpec::ideal(8), 8);
        let fac = simulate(&wl, &Factoring::new(), &cfg);
        let st = simulate(&wl, &StaticSched::new(), &cfg);
        assert!(
            fac.completion_time < st.completion_time * 0.75,
            "FACTORING {} vs STATIC {}",
            fac.completion_time,
            st.completion_time
        );
    }

    #[test]
    fn gss_first_chunk_bottlenecks_triangular() {
        // The effect behind the paper's Fig. 10: GSS's first chunk (1/P of
        // the iterations) of a triangular loop carries ~2/P of the work, so
        // GSS behaves like STATIC while TRAPEZOID (first chunk 1/(2P))
        // balances well.
        let wl = SyntheticLoop::triangular(2000, 1.0);
        let cfg = SimConfig::new(MachineSpec::ideal(16), 16);
        let gss = simulate(&wl, &Gss::new(), &cfg);
        let trap = simulate(&wl, &Trapezoid::new(), &cfg);
        assert!(
            trap.completion_time < gss.completion_time * 0.7,
            "TRAPEZOID {} vs GSS {}",
            trap.completion_time,
            gss.completion_time
        );
    }

    #[test]
    fn sync_cost_charged_per_grab() {
        // Balanced loop, SS on 1 processor: completion = n·(cost + sync).
        let wl = SyntheticLoop::balanced(100, 10.0);
        let mut m = MachineSpec::ideal(2);
        m.sync_central = 5.0;
        let cfg = SimConfig::new(m, 1);
        let res = simulate(&wl, &SelfSched::new(), &cfg);
        assert!((res.completion_time - 100.0 * 15.0).abs() < 1e-6);
        assert_eq!(res.metrics.sync.central, 100);
    }

    #[test]
    fn central_queue_serializes_under_contention() {
        // Tiny iterations, expensive sync: with SS the queue is the
        // bottleneck, so 8 processors barely beat 1.
        let wl = SyntheticLoop::balanced(2000, 1.0);
        let mut m = MachineSpec::ideal(8);
        m.sync_central = 10.0;
        let t1 = simulate(&wl, &SelfSched::new(), &SimConfig::new(m.clone(), 1));
        let t8 = simulate(&wl, &SelfSched::new(), &SimConfig::new(m, 8));
        // Queue serialization bounds completion below by n·sync.
        assert!(t8.completion_time >= 2000.0 * 10.0);
        let speedup = t1.completion_time / t8.completion_time;
        assert!(speedup < 2.0, "SS speedup {speedup} should be queue-bound");
    }

    #[test]
    fn start_delay_shifts_completion() {
        let wl = SyntheticLoop::balanced(100, 10.0);
        let cfg = SimConfig::new(MachineSpec::ideal(4), 4).with_delay(0, 100.0);
        // GSS rebalances: the delayed processor simply takes less work.
        let res = simulate(&wl, &Gss::new(), &cfg);
        let no_delay = simulate(&wl, &Gss::new(), &SimConfig::new(MachineSpec::ideal(4), 4));
        assert!(res.completion_time >= no_delay.completion_time);
        // But not by the whole delay: others worked meanwhile.
        assert!(res.completion_time < no_delay.completion_time + 100.0);
    }

    /// Two-phase workload where each iteration reads/writes its own block:
    /// affinity-preserving schedulers hit in phase 1, central ones may not.
    struct RowLoop {
        n: u64,
        phases: usize,
    }
    impl Workload for RowLoop {
        fn name(&self) -> String {
            "row-loop".into()
        }
        fn phases(&self) -> usize {
            self.phases
        }
        fn phase_len(&self, _p: usize) -> u64 {
            self.n
        }
        fn cost(&self, _p: usize, _i: u64) -> Work {
            Work::flops(10.0)
        }
        fn reads(&self, _p: usize, i: u64, out: &mut Vec<BlockAccess>) {
            out.push(BlockAccess {
                block: i,
                bytes: 1024,
            });
        }
        fn writes(&self, _p: usize, i: u64, out: &mut Vec<BlockAccess>) {
            out.push(BlockAccess {
                block: i,
                bytes: 1024,
            });
        }
    }

    #[test]
    fn affinity_hits_cache_on_second_phase() {
        let wl = RowLoop { n: 64, phases: 2 };
        let cfg = SimConfig::new(MachineSpec::iris(), 4);
        let afs = simulate(&wl, &Affinity::with_k_equals_p(), &cfg);
        // Phase 0: all cold misses. Phase 1: every block was written by its
        // own processor last phase → all hits under AFS.
        assert_eq!(afs.cache_misses, 64, "only cold read misses expected");
        // Phase 0: 64 write hits (block just fetched by the read);
        // phase 1: 64 read hits + 64 write hits.
        assert_eq!(afs.cache_hits, 192);
        // And phase 1 must be faster than phase 0.
        assert!(afs.phase_times[1] < afs.phase_times[0]);
    }

    #[test]
    fn self_scheduling_destroys_affinity() {
        let wl = RowLoop { n: 64, phases: 4 };
        // Jitter reproduces real arrival-order nondeterminism: without it a
        // deterministic SS run would re-create the same round-robin
        // assignment every phase and accidentally keep affinity.
        let cfg = SimConfig::new(MachineSpec::iris(), 4).with_jitter(0.3);
        let afs = simulate(&wl, &Affinity::with_k_equals_p(), &cfg);
        let ss = simulate(&wl, &SelfSched::new(), &cfg);
        assert!(
            ss.cache_misses > afs.cache_misses,
            "SS misses {} should exceed AFS misses {}",
            ss.cache_misses,
            afs.cache_misses
        );
        assert!(ss.completion_time > afs.completion_time);
    }

    #[test]
    fn bus_occupancy_accumulates() {
        let wl = RowLoop { n: 32, phases: 1 };
        let cfg = SimConfig::new(MachineSpec::iris(), 4);
        let res = simulate(&wl, &StaticSched::new(), &cfg);
        // 32 cold misses of (30 + 512) each on the bus.
        let per_miss = MachineSpec::iris().miss_time(1024);
        assert!((res.bus_busy - 32.0 * per_miss).abs() < 1e-6);
    }

    #[test]
    fn deterministic_across_runs() {
        let wl = SyntheticLoop::step_front(1000, 100.0, 1.0);
        let cfg = SimConfig::new(MachineSpec::iris(), 8);
        let a = simulate(&wl, &Factoring::new(), &cfg);
        let b = simulate(&wl, &Factoring::new(), &cfg);
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.metrics.sync, b.metrics.sync);
    }

    #[test]
    fn conservation_iterations_equal_n_times_phases() {
        let wl = RowLoop { n: 50, phases: 3 };
        let cfg = SimConfig::new(MachineSpec::iris(), 3);
        let res = simulate(&wl, &Gss::new(), &cfg);
        assert_eq!(res.metrics.total_iters(), 150);
        assert_eq!(res.phase_times.len(), 3);
        let sum: f64 = res.phase_times.iter().sum();
        assert!((sum - res.completion_time).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_processors_rejected() {
        SimConfig::new(MachineSpec::iris(), 9);
    }
}
