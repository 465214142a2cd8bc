//! The black-box flight recorder.
//!
//! An always-on bounded ring of per-phase summary records plus the last N
//! serving events, dumped to a timestamped JSON file when a trigger fires:
//! a watchdog [`Trigger::Stall`], a contained [`Trigger::PhaseError`]
//! panic, [`Trigger::SpawnDegraded`] (thread creation failed at pool
//! build), or a [`Trigger::ShedSpike`] (admission refusing most recent
//! requests). The point is the same as an aircraft recorder: when a rare
//! failure fires, the *lead-up* — where the last phases spent their time,
//! which queues they stole from, how the barrier resolved — is already
//! captured, not reconstructed from whatever counters survived.
//!
//! Phase records live in one preallocated *lane* per pool worker, on lines
//! no other worker writes. Arriving at the end of a phase, each worker
//! appends its own counter delta to its lane
//! ([`FlightRecorder::record_arrival`]); the worker that closes the phase
//! — the barrier's turn-taker, or the region's last finisher — appends only
//! the phase's `(phase, wall_ns, k, b)` to its own lane
//! ([`FlightRecorder::record_turn`]). Neither takes a lock or reads another
//! worker's counters. [`FlightRecorder::phase_records`], the dump and
//! every other reader merge the lanes back into one [`PhaseRecord`] per
//! phase; a per-slot seqlock keeps a read racing a running region from
//! merging a torn slot. Serve events go to a mutex-guarded `Ring`, written
//! on the admission/dispatch threads. Nothing allocates in the steady
//! state.
//!
//! What the telemetry costs a phase, measured by deleting it outright (a
//! P = 2 AFS empty-body phase on the 2-core host, medians of ten runs of
//! 9 × 20 000 phases, `bench/runs/PR-34.md`): with one iteration a phase,
//! 1.27 µs with it against 0.72 µs without, when the turn took the ring's
//! mutex, diffed the registry's totals and added to a shared histogram
//! with locked instructions; 0.97 µs with the lanes. With 64 iterations,
//! 2.09 → 1.83 µs against 1.61 µs. What remains is mostly the boundary's
//! clock read and the arrival appends.
//!
//! Dumping is once-per-recorder: the first trigger arms the recorder and
//! the next phase boundary (or an explicit [`FlightRecorder::flush`], which
//! the pool runs on drop) writes exactly one file. Deferring the write to
//! the next boundary is deliberate: a stall is detected *mid*-phase, and
//! the stalled phase's own summary record only exists once the phase ends —
//! flushing lazily guarantees the dump contains the record of the phase
//! that stalled.

use crate::ring::Ring;
use crate::{CounterSnapshot, MetricsRegistry, METRICS_SCHEMA_VERSION};
use afs_core::json::{self, Fields, Obj};
use std::path::PathBuf;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Default capacity of the per-phase summary ring: the phases each worker
/// lane holds.
pub const DEFAULT_PHASE_CAPACITY: usize = 256;
/// Default capacity of the serve-event ring.
pub const DEFAULT_SERVE_CAPACITY: usize = 256;
/// Default shed-spike window (events) and threshold (sheds within it).
const DEFAULT_SHED_WINDOW: u32 = 32;
const DEFAULT_SHED_THRESHOLD: u32 = 16;

/// Disambiguates dump filenames created within the same millisecond.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// One phase's summary: wall time, the phase's counter *deltas* (grabs by
/// kind, steals are the `remote` column, CAS retries, barrier wait split)
/// and the tuning parameters in force. Fixed-size and `Copy` so ring
/// writes are plain stores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Monotone phase counter across the recorder's lifetime.
    pub seq: u64,
    /// Phase index within its parallel region.
    pub phase: u64,
    /// Wall time of the phase (ns).
    pub wall_ns: u64,
    /// The phase's counter deltas, summed over all workers.
    pub counters: CounterSnapshot,
    /// AFS subdivision `k` in force (0 when no adaptive controller ran).
    pub k: u64,
    /// Grab-ahead batch `b` in force (0 when no adaptive controller ran).
    pub b: u64,
}

impl Fields for PhaseRecord {
    fn fields(&self, o: &mut Obj<'_>) {
        let c = &self.counters;
        let grabs = c.sync();
        o.field("seq", &self.seq)
            .field("phase", &self.phase)
            .field("wall_ns", &self.wall_ns)
            .object("grabs", |o| {
                o.field("local", &grabs.local)
                    .field("remote", &grabs.remote)
                    .field("central", &grabs.central)
                    .field("free", &grabs.free);
            })
            .field("iters", &c.iters)
            .field("cas_retries", &c.cas_retries)
            .field("stash_hits", &c.stash_hits)
            .object("barrier", |o| {
                o.field("spin", &c.barrier_spin)
                    .field("yield", &c.barrier_yield)
                    .field("park", &c.barrier_park);
            })
            .field("affinity_hit_ratio", &grabs.affinity_hit_ratio())
            .object("tune", |o| {
                o.field("k", &self.k).field("b", &self.b);
            });
    }
}

/// What kind of serving event a [`ServeRecord`] captures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeEventKind {
    /// A request entered the admission queue.
    Admit,
    /// A request was handed to the pool (possibly fused into a batch).
    Dispatch,
    /// A request was refused at admission; `code` is the shed reason.
    Shed,
    /// A request's completion stamp was recorded. `code` is 1 when the
    /// request completed after its deadline (timed out), 0 otherwise.
    Complete,
    /// A request's body panicked and its batch contained it;
    /// `code` packs `(worker << 16) | phase`.
    Failed,
    /// A queued request's deadline elapsed before dispatch; it was
    /// retired without touching the pool.
    Expired,
}

impl ServeEventKind {
    /// Stable label used in dumps.
    pub fn label(self) -> &'static str {
        match self {
            ServeEventKind::Admit => "admit",
            ServeEventKind::Dispatch => "dispatch",
            ServeEventKind::Shed => "shed",
            ServeEventKind::Complete => "complete",
            ServeEventKind::Failed => "failed",
            ServeEventKind::Expired => "expired",
        }
    }
}

/// One serving event in the recorder's ring. Fixed-size and `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeRecord {
    /// Nanoseconds since the server's epoch.
    pub t_ns: u64,
    /// What happened.
    pub kind: ServeEventKind,
    /// Tenant index.
    pub tenant: u32,
    /// Server-assigned request id (0 for sheds, which never got one).
    pub id: u64,
    /// Shed reason code for [`ServeEventKind::Shed`], 0 otherwise.
    pub code: u32,
}

impl Fields for ServeRecord {
    fn fields(&self, o: &mut Obj<'_>) {
        o.field("t_ns", &self.t_ns)
            .field("kind", self.kind.label())
            .field("tenant", &self.tenant)
            .field("id", &self.id)
            .field("code", &self.code);
    }
}

/// Why a dump fired. The four triggers wire the runtime's existing failure
/// verdicts (watchdog stalls, contained panics, spawn degradation, shed
/// storms) into capture rather than just counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// The stall watchdog flagged `worker`'s heartbeat frozen mid-phase.
    Stall {
        /// The stalled worker.
        worker: usize,
    },
    /// A body panic was contained and surfaced as a `PhaseError`.
    PhaseError {
        /// Worker whose body panicked.
        worker: usize,
        /// Phase the panic happened in.
        phase: usize,
    },
    /// Thread creation failed at pool build; the pool runs degraded.
    SpawnDegraded {
        /// Workers that actually started.
        live: usize,
        /// Workers that were requested.
        requested: usize,
    },
    /// Admission shed most of the recent window — backpressure has tipped
    /// from "working as designed" into a storm worth capturing.
    ShedSpike {
        /// Sheds observed inside the window.
        sheds: u32,
        /// Window size (serve events).
        window: u32,
    },
}

impl Trigger {
    fn index(self) -> usize {
        match self {
            Trigger::Stall { .. } => 0,
            Trigger::PhaseError { .. } => 1,
            Trigger::SpawnDegraded { .. } => 2,
            Trigger::ShedSpike { .. } => 3,
        }
    }

    /// Stable label used in dumps and health reports.
    pub fn label(self) -> &'static str {
        match self {
            Trigger::Stall { .. } => "stall",
            Trigger::PhaseError { .. } => "phase_error",
            Trigger::SpawnDegraded { .. } => "spawn_degraded",
            Trigger::ShedSpike { .. } => "shed_spike",
        }
    }
}

impl Fields for Trigger {
    fn fields(&self, o: &mut Obj<'_>) {
        o.field("kind", self.label());
        match *self {
            Trigger::Stall { worker } => o.field("worker", &worker),
            Trigger::PhaseError { worker, phase } => {
                o.field("worker", &worker).field("phase", &phase)
            }
            Trigger::SpawnDegraded { live, requested } => {
                o.field("live", &live).field("requested", &requested)
            }
            Trigger::ShedSpike { sheds, window } => {
                o.field("sheds", &sheds).field("window", &window)
            }
        };
    }
}

/// Fire counts per trigger kind, in [`Trigger`] declaration order, as the
/// object `{"stall": n, "phase_error": n, "spawn_degraded": n,
/// "shed_spike": n}` the dump and `/healthz` both carry.
pub(crate) struct TriggerCounts(pub(crate) [u64; 4]);

impl Fields for TriggerCounts {
    fn fields(&self, o: &mut Obj<'_>) {
        let labels = ["stall", "phase_error", "spawn_degraded", "shed_spike"];
        for (label, n) in labels.into_iter().zip(self.0) {
            o.field(label, &n);
        }
    }
}

/// Sheds among the newest `window` events of `ring`. Walks the ring in
/// place: it runs under the serve mutex, on every shed.
fn recent_sheds(ring: &Ring<ServeRecord>, window: u32) -> u32 {
    ring.iter()
        .rev()
        .take(window as usize)
        .filter(|r| r.kind == ServeEventKind::Shed)
        .count() as u32
}

/// A lane slot's `seq` before its first write.
const EMPTY: u64 = u64::MAX;
/// A lane slot's turn `phase` word when its worker did not close the phase.
const NO_TURN: u64 = u64::MAX;
/// Words of a turn record: `(phase, wall_ns, k, b)`.
const TURN_WORDS: usize = 4;
/// Tries a reader makes before giving up on a slot its owner keeps
/// rewriting (a live read racing a running region).
const READ_TRIES: usize = 64;

/// What one worker recorded about the phase numbered `seq`: its counter
/// delta since its previous arrival, and — when it closed the phase — the
/// phase's turn record. Every word is an atomic written only by the lane's
/// worker, under a seqlock `version` (odd while a write is in progress), so
/// a reader on another thread never merges a torn slot.
#[derive(Debug)]
struct Slot {
    version: AtomicU64,
    seq: AtomicU64,
    counters: [AtomicU64; CounterSnapshot::WORDS],
    /// `(phase, wall_ns, k, b)`; `phase == NO_TURN` when this worker did
    /// not close phase `seq`.
    turn: [AtomicU64; TURN_WORDS],
}

/// A consistent copy of a written [`Slot`].
#[derive(Clone, Copy, Debug)]
struct SlotCopy {
    seq: u64,
    counters: CounterSnapshot,
    turn: Option<[u64; TURN_WORDS]>,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            seq: AtomicU64::new(EMPTY),
            counters: [const { AtomicU64::new(0) }; CounterSnapshot::WORDS],
            turn: [const { AtomicU64::new(NO_TURN) }; TURN_WORDS],
        }
    }

    /// Rewrites the slot through `write`. Only the lane's worker calls this.
    fn write(&self, write: impl FnOnce(&Slot)) {
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        write(self);
        self.version.store(v.wrapping_add(2), Ordering::Release);
    }

    /// A consistent copy of the slot, `None` when it was never written (or
    /// its owner kept rewriting it for [`READ_TRIES`] tries).
    fn read(&self) -> Option<SlotCopy> {
        let load = |w: &AtomicU64| w.load(Ordering::Relaxed);
        for _ in 0..READ_TRIES {
            let v = self.version.load(Ordering::Acquire);
            if v % 2 == 1 {
                continue;
            }
            let seq = load(&self.seq);
            let counters = CounterSnapshot::from_words(self.counters.each_ref().map(load));
            let turn = self.turn.each_ref().map(load);
            fence(Ordering::Acquire);
            if self.version.load(Ordering::Relaxed) == v {
                return (seq != EMPTY).then_some(SlotCopy {
                    seq,
                    counters,
                    turn: (turn[0] != NO_TURN).then_some(turn),
                });
            }
        }
        None
    }
}

/// Every worker's recorder lane, in one allocation: worker `w`'s lane is
/// `cap` slots (a power of two) starting at slot `w × (cap + 1)`, indexed
/// by `seq` modulo `cap`, so every lane holds the same phases. The unused
/// slot between two lanes keeps them off a shared line.
#[derive(Debug)]
struct Lanes {
    slots: Box<[Slot]>,
    cap: usize,
}

impl Lanes {
    fn new(workers: usize, cap: usize) -> Lanes {
        let cap = cap.max(1).next_power_of_two();
        Lanes {
            slots: (0..workers * (cap + 1)).map(|_| Slot::new()).collect(),
            cap,
        }
    }

    fn workers(&self) -> usize {
        self.slots.len() / (self.cap + 1)
    }

    /// Worker `worker`'s lane.
    fn lane(&self, worker: usize) -> &[Slot] {
        &self.slots[worker * (self.cap + 1)..][..self.cap]
    }

    /// Worker `worker`'s slot for phase `seq`.
    fn slot(&self, worker: usize, seq: u64) -> &Slot {
        &self.lane(worker)[seq as usize & (self.cap - 1)]
    }
}

/// The always-on black-box recorder. One per pool; shared with the
/// watchdog, the serving frontend and the telemetry endpoint via `Arc`.
#[derive(Debug)]
pub struct FlightRecorder {
    /// One lane per pool worker, each written only by that worker.
    lanes: Lanes,
    /// The next unclaimed phase sequence number ([`FlightRecorder::claim`]).
    next_seq: AtomicU64,
    serve: Mutex<Ring<ServeRecord>>,
    /// Fire counts per trigger kind (stall, phase_error, spawn_degraded,
    /// shed_spike).
    trigger_counts: [AtomicU64; 4],
    /// Armed: at least one trigger fired; the next flush point dumps.
    triggered: AtomicBool,
    /// The first trigger, kept for the dump header.
    first: Mutex<Option<Trigger>>,
    /// A dump was written (or conclusively skipped); later triggers only
    /// count.
    dumped: AtomicBool,
    dump_dir: Mutex<Option<PathBuf>>,
    shed_window: AtomicU32,
    shed_threshold: AtomicU32,
}

impl FlightRecorder {
    /// A recorder for a pool of `workers` workers, with the default ring
    /// capacities and no dump directory (triggers count, nothing is
    /// written).
    pub fn new(workers: usize) -> FlightRecorder {
        Self::with_capacity(workers, DEFAULT_PHASE_CAPACITY, DEFAULT_SERVE_CAPACITY)
    }

    /// A recorder for `workers` workers holding at most `phase_cap` phase
    /// records (rounded up to a power of two) and `serve_cap` serve events.
    pub fn with_capacity(workers: usize, phase_cap: usize, serve_cap: usize) -> FlightRecorder {
        FlightRecorder {
            lanes: Lanes::new(workers, phase_cap),
            next_seq: AtomicU64::new(0),
            serve: Mutex::new(Ring::with_capacity(serve_cap.max(1))),
            trigger_counts: [const { AtomicU64::new(0) }; 4],
            triggered: AtomicBool::new(false),
            first: Mutex::new(None),
            dumped: AtomicBool::new(false),
            dump_dir: Mutex::new(None),
            shed_window: AtomicU32::new(DEFAULT_SHED_WINDOW),
            shed_threshold: AtomicU32::new(DEFAULT_SHED_THRESHOLD),
        }
    }

    /// Configures where dumps land.
    pub fn set_dump_dir(&self, dir: impl Into<PathBuf>) {
        *self.dump_dir.lock().unwrap() = Some(dir.into());
    }

    /// The configured dump directory, if any.
    pub fn dump_dir(&self) -> Option<PathBuf> {
        self.dump_dir.lock().unwrap().clone()
    }

    /// Re-tunes the shed-spike trigger: fire when at least `threshold`
    /// sheds land inside the last `window` serve events. Tests only:
    /// deployments run the defaults.
    #[cfg(test)]
    pub(crate) fn set_shed_spike(&self, threshold: u32, window: u32) {
        self.shed_threshold
            .store(threshold.max(1), Ordering::Relaxed);
        self.shed_window.store(window.max(1), Ordering::Relaxed);
    }

    /// Whether a shed-rate spike is active *right now*: the last
    /// `window` serve events contain at least `threshold` sheds.
    /// Recomputed from the ring on every call — unlike
    /// [`FlightRecorder::trigger_counts`], which remembers that a spike
    /// happened, this answers whether the storm is still blowing (the
    /// health endpoint's question).
    pub fn shed_spike_active(&self) -> bool {
        let window = self.shed_window.load(Ordering::Relaxed);
        let threshold = self.shed_threshold.load(Ordering::Relaxed);
        recent_sheds(&self.serve.lock().unwrap(), window) >= threshold
    }

    /// Reserves sequence numbers for a parallel region of `phases` phases
    /// and returns the first: phase `i` of the region is record
    /// `first + i`. Called once per region, before its workers start.
    pub fn claim(&self, phases: u64) -> u64 {
        self.next_seq.fetch_add(phases, Ordering::Relaxed)
    }

    /// Worker `worker` arrived at the end of record `seq`'s phase, having
    /// done `delta` since its previous arrival (or since its region
    /// started). Written to the worker's own lane — no lock, no line
    /// another worker writes — before the worker's barrier arrival, so the
    /// phase's closer and every later reader see it.
    pub fn record_arrival(&self, worker: usize, seq: u64, delta: &CounterSnapshot) {
        self.lanes.slot(worker, seq).write(|slot| {
            slot.seq.store(seq, Ordering::Relaxed);
            for (word, v) in slot.counters.iter().zip(delta.to_words()) {
                word.store(v, Ordering::Relaxed);
            }
            slot.turn[0].store(NO_TURN, Ordering::Relaxed);
        });
    }

    /// Worker `worker` closed record `seq`'s phase — as the barrier's
    /// turn-taker, or as its region's last finisher — which was phase
    /// `phase` of its region and lasted `wall_ns`. Stamps the `(k, b)` the
    /// adaptive controller in `registry` has in force (0 when none ran).
    /// Goes to the same slot of the worker's own lane as its
    /// [`FlightRecorder::record_arrival`] for `seq`, which must come first.
    /// Flushes a pending dump, so a mid-phase trigger's dump always
    /// contains the triggering phase's record.
    pub fn record_turn(
        &self,
        worker: usize,
        seq: u64,
        phase: u64,
        wall_ns: u64,
        registry: &MetricsRegistry,
    ) {
        let (k, b) = registry.sched_controller().map_or((0, 0), |s| (s.k, s.b));
        let slot = self.lanes.slot(worker, seq);
        debug_assert_eq!(slot.seq.load(Ordering::Relaxed), seq, "arrival first");
        slot.write(|slot| {
            for (word, v) in slot.turn.iter().zip([phase, wall_ns, k, b]) {
                word.store(v, Ordering::Relaxed);
            }
        });
        self.flush();
    }

    /// Records one serving event. A shed may fire the
    /// [`Trigger::ShedSpike`] trigger when the recent window tipped over
    /// the threshold.
    pub fn record_serve_event(&self, record: ServeRecord) {
        let spike = {
            let mut ring = self.serve.lock().unwrap();
            ring.push(record);
            if record.kind == ServeEventKind::Shed {
                let window = self.shed_window.load(Ordering::Relaxed);
                let sheds = recent_sheds(&ring, window);
                (sheds >= self.shed_threshold.load(Ordering::Relaxed)).then_some((sheds, window))
            } else {
                None
            }
        };
        if let Some((sheds, window)) = spike {
            self.trigger(Trigger::ShedSpike { sheds, window });
        }
    }

    /// Fires a trigger: counts it, and arms the recorder so the next flush
    /// point writes the dump. The first trigger is kept for the dump
    /// header; later ones only count.
    pub fn trigger(&self, t: Trigger) {
        self.trigger_counts[t.index()].fetch_add(1, Ordering::Relaxed);
        let mut first = self.first.lock().unwrap();
        if first.is_none() {
            *first = Some(t);
        }
        drop(first);
        self.triggered.store(true, Ordering::Release);
    }

    /// Fire counts per trigger kind, in [`Trigger`] declaration order
    /// (stall, phase_error, spawn_degraded, shed_spike).
    pub fn trigger_counts(&self) -> [u64; 4] {
        [0, 1, 2, 3].map(|i| self.trigger_counts[i].load(Ordering::Relaxed))
    }

    /// Whether any trigger has fired.
    pub fn triggered(&self) -> bool {
        self.triggered.load(Ordering::Acquire)
    }

    /// Surviving phase records, oldest first: the lanes merged back into
    /// one record per phase — the closer's turn record, carrying the sum of
    /// every worker's counter delta for that phase. A phase some lane has
    /// already moved past is being overwritten, and is left out.
    pub fn phase_records(&self) -> Vec<PhaseRecord> {
        let copies: Vec<Vec<Option<SlotCopy>>> = (0..self.lanes.workers())
            .map(|w| self.lanes.lane(w).iter().map(Slot::read).collect())
            .collect();
        let mut records: Vec<PhaseRecord> = copies
            .iter()
            .flatten()
            .flatten()
            .filter_map(|c| {
                let [phase, wall_ns, k, b] = c.turn?;
                Some(PhaseRecord {
                    seq: c.seq,
                    phase,
                    wall_ns,
                    counters: CounterSnapshot::default(),
                    k,
                    b,
                })
            })
            .collect();
        records.retain_mut(|r| {
            for lane in &copies {
                match lane[r.seq as usize & (lane.len() - 1)] {
                    Some(c) if c.seq == r.seq => r.counters.add(&c.counters),
                    Some(c) if c.seq > r.seq => return false,
                    _ => {}
                }
            }
            true
        });
        records.sort_unstable_by_key(|r| r.seq);
        // A lane that sat out later phases still holds older turns.
        let cap = self.lanes.cap as u64;
        if let Some(newest) = records.last().map(|r| r.seq) {
            records.retain(|r| r.seq + cap > newest);
        }
        records
    }

    /// Surviving serve events, oldest first.
    pub fn serve_records(&self) -> Vec<ServeRecord> {
        self.serve.lock().unwrap().iter().copied().collect()
    }

    /// Writes the pending dump if the recorder is armed, a dump directory
    /// is configured, and no dump has been written yet. Returns the path
    /// when this call wrote the file. The pool calls this on drop so a
    /// trigger with no later phase boundary still dumps.
    pub fn flush(&self) -> Option<PathBuf> {
        if !self.triggered.load(Ordering::Acquire) || self.dumped.load(Ordering::Acquire) {
            return None;
        }
        let dir = self.dump_dir.lock().unwrap().clone()?;
        if self.dumped.swap(true, Ordering::AcqRel) {
            return None;
        }
        let path = dir.join(dump_file_name());
        if let Err(err) = std::fs::create_dir_all(&dir) {
            eprintln!("flight-recorder: cannot create {}: {err}", dir.display());
            return None;
        }
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => {
                eprintln!("flight-recorder: wrote {}", path.display());
                Some(path)
            }
            Err(err) => {
                eprintln!("flight-recorder: cannot write {}: {err}", path.display());
                None
            }
        }
    }

    /// The full dump document: schema version, the first trigger, fire
    /// counts, and both rings oldest-first.
    pub fn to_json(&self) -> String {
        let phases = self.phase_records();
        let serve_events = self.serve_records();
        json::document(|o| {
            o.field("schema_version", &METRICS_SCHEMA_VERSION)
                .field("trigger", &*self.first.lock().unwrap())
                .field("triggers", &TriggerCounts(self.trigger_counts()))
                .field("phases", &phases)
                .field("serve_events", &serve_events);
        })
    }
}

/// `flight-<epoch-ms>-<pid>-<n>.json`: sortable, collision-free within a
/// process even when two dumps land in the same millisecond.
fn dump_file_name() -> String {
    let ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let n = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    format!("flight-{ms}-{}-{n}.json", std::process::id())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use afs_core::json::Value;
    use afs_core::policy::AccessKind;

    fn dir_for(test: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("afs-flight-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Records one phase the way the fused driver does: every worker of
    /// `reg` records its counter delta since `last`, then `closer` closes
    /// the phase (sequence number = phase index).
    pub(crate) fn record(
        rec: &FlightRecorder,
        reg: &MetricsRegistry,
        last: &mut [CounterSnapshot],
        phase: u64,
        wall_ns: u64,
        closer: usize,
    ) {
        for (w, last) in last.iter_mut().enumerate() {
            let now = reg.worker(w).get();
            rec.record_arrival(w, phase, &now.minus(last));
            *last = now;
        }
        rec.record_turn(closer, phase, phase, wall_ns, reg);
    }

    #[test]
    fn phase_records_are_deltas_not_totals() {
        let reg = MetricsRegistry::new(2);
        let rec = FlightRecorder::new(2);
        let mut last = [CounterSnapshot::default(); 2];
        reg.worker(0).record_grab(AccessKind::Local, 10);
        record(&rec, &reg, &mut last, 0, 1_000, 1);
        reg.worker(0).record_grab(AccessKind::Local, 5);
        reg.worker(1).record_grab(AccessKind::Remote, 5);
        record(&rec, &reg, &mut last, 1, 2_000, 0);
        let records = rec.phase_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].counters.local_grabs, 1);
        assert_eq!(records[0].counters.iters, 10);
        assert_eq!(records[1].counters.local_grabs, 1);
        assert_eq!(records[1].counters.remote_grabs, 1);
        assert_eq!(records[1].counters.iters, 10);
        assert_eq!(records[1].counters.sync().affinity_hit_ratio(), Some(0.5));
        assert_eq!(records[1].seq, 1);
        assert_eq!((records[0].wall_ns, records[1].wall_ns), (1_000, 2_000));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let reg = MetricsRegistry::new(1);
        let rec = FlightRecorder::with_capacity(1, 4, 4);
        let mut last = [CounterSnapshot::default()];
        for ph in 0..10u64 {
            record(&rec, &reg, &mut last, ph, ph, 0);
        }
        let records = rec.phase_records();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].phase, 6);
        assert_eq!(records[3].phase, 9);
        let dump = json::parse(&rec.to_json()).unwrap();
        let seqs: Vec<f64> = dump
            .get("phases")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|p| p.get("seq").and_then(Value::as_f64))
            .collect();
        assert_eq!(seqs, [6.0, 7.0, 8.0, 9.0]);
    }

    /// A lane that sat out the later phases keeps its old turns; the merge
    /// still returns only the ring's worth of newest phases, and a phase a
    /// lane has moved past (being overwritten) is left out.
    #[test]
    fn merge_keeps_the_newest_ring_of_phases() {
        let reg = MetricsRegistry::new(2);
        let rec = FlightRecorder::with_capacity(2, 4, 4);
        let mut last = [CounterSnapshot::default(); 2];
        for ph in 0..4u64 {
            record(&rec, &reg, &mut last, ph, ph, 1);
        }
        // Worker 0 alone records phases 4..6 and closes them.
        for ph in 4..7u64 {
            rec.record_arrival(0, ph, &CounterSnapshot::default());
            rec.record_turn(0, ph, ph, ph, &reg);
        }
        let phases: Vec<u64> = rec.phase_records().iter().map(|r| r.phase).collect();
        assert_eq!(phases, [3, 4, 5, 6]);
        // Worker 1 arrives at phase 7 before anyone closes it: its slot
        // for phase 3 is gone, so phase 3's record is too.
        rec.record_arrival(1, 7, &CounterSnapshot::default());
        let phases: Vec<u64> = rec.phase_records().iter().map(|r| r.phase).collect();
        assert_eq!(phases, [4, 5, 6]);
    }

    /// The seqlock never hands a reader a torn slot: a writer keeps
    /// rewriting one slot with every counter equal to its sequence number
    /// while a reader checks each copy it gets.
    #[test]
    fn concurrent_reads_never_see_a_torn_slot() {
        let rec = FlightRecorder::with_capacity(1, 1, 1);
        let reg = MetricsRegistry::new(1);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for seq in 0..20_000u64 {
                    let words = [seq; CounterSnapshot::WORDS];
                    rec.record_arrival(0, seq, &CounterSnapshot::from_words(words));
                    rec.record_turn(0, seq, seq, seq, &reg);
                }
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                for r in rec.phase_records() {
                    assert_eq!(r.counters.to_words(), [r.seq; CounterSnapshot::WORDS]);
                    assert_eq!((r.phase, r.wall_ns), (r.seq, r.seq));
                }
            }
        });
        assert_eq!(rec.phase_records()[0].seq, 19_999);
    }

    #[test]
    fn first_trigger_wins_and_all_count() {
        let rec = FlightRecorder::new(1);
        assert!(!rec.triggered());
        rec.trigger(Trigger::Stall { worker: 2 });
        rec.trigger(Trigger::PhaseError {
            worker: 0,
            phase: 3,
        });
        assert!(rec.triggered());
        assert_eq!(rec.trigger_counts(), [1, 1, 0, 0]);
        let v = json::parse(&rec.to_json()).unwrap();
        assert_eq!(
            v.get("trigger"),
            Some(&json::parse(r#"{"kind": "stall", "worker": 2}"#).unwrap())
        );
        let triggers = v.get("triggers").unwrap();
        assert_eq!(triggers.get("stall").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            triggers.get("phase_error").and_then(Value::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn dump_writes_exactly_one_file() {
        let reg = MetricsRegistry::new(1);
        let dir = dir_for("once");
        let rec = FlightRecorder::new(1);
        rec.set_dump_dir(&dir);
        let mut last = [CounterSnapshot::default()];
        record(&rec, &reg, &mut last, 0, 100, 0);
        assert!(rec.flush().is_none(), "no dump before a trigger");
        rec.trigger(Trigger::Stall { worker: 0 });
        let dumps = || -> Vec<_> {
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().starts_with("flight-"))
                .collect()
        };
        // The next phase boundary flushes, carrying the triggering phase.
        record(&rec, &reg, &mut last, 1, 200, 0);
        assert_eq!(dumps().len(), 1, "the boundary after the trigger dumps");
        rec.trigger(Trigger::Stall { worker: 0 });
        assert!(rec.flush().is_none(), "second trigger must not re-dump");
        let dumps = dumps();
        assert_eq!(dumps.len(), 1);
        let v = json::parse(&std::fs::read_to_string(dumps[0].path()).unwrap()).unwrap();
        assert_eq!(
            v.get("schema_version").and_then(Value::as_f64),
            Some(METRICS_SCHEMA_VERSION as f64)
        );
        let phases = v.get("phases").and_then(Value::as_array).unwrap();
        assert!(
            phases
                .iter()
                .any(|p| p.get("phase").and_then(Value::as_f64) == Some(1.0)),
            "stalled phase record present"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shed_spike_fires_at_threshold() {
        let rec = FlightRecorder::new(1);
        rec.set_shed_spike(4, 8);
        for i in 0..3 {
            rec.record_serve_event(ServeRecord {
                t_ns: i,
                kind: ServeEventKind::Shed,
                tenant: 0,
                id: 0,
                code: 0,
            });
        }
        assert!(!rec.triggered(), "below threshold");
        rec.record_serve_event(ServeRecord {
            t_ns: 3,
            kind: ServeEventKind::Shed,
            tenant: 0,
            id: 0,
            code: 0,
        });
        assert!(rec.triggered());
        assert_eq!(rec.trigger_counts()[3], 1);
    }

    #[test]
    fn shed_spike_active_tracks_the_live_window() {
        let rec = FlightRecorder::new(1);
        rec.set_shed_spike(3, 4);
        for i in 0..3 {
            rec.record_serve_event(ServeRecord {
                t_ns: i,
                kind: ServeEventKind::Shed,
                tenant: 0,
                id: 0,
                code: 0,
            });
        }
        assert!(rec.shed_spike_active(), "3 sheds in last 4 events");
        // Healthy traffic pushes the sheds out of the window: the latched
        // trigger count stays, but the live spike clears.
        for i in 3..7 {
            rec.record_serve_event(ServeRecord {
                t_ns: i,
                kind: ServeEventKind::Complete,
                tenant: 0,
                id: i,
                code: 0,
            });
        }
        assert!(!rec.shed_spike_active(), "window is all completes now");
        assert!(rec.triggered(), "the spike that happened stays on record");
    }

    /// A window that straddles the serve ring's wrap point counts exactly
    /// its newest `window` events: a shed still held by the ring but older
    /// than the window does not count.
    #[test]
    fn shed_window_straddling_the_wrap_counts_only_the_newest() {
        let rec = FlightRecorder::with_capacity(1, 4, 6);
        rec.set_shed_spike(3, 4);
        let push = |i: u64, kind| {
            rec.record_serve_event(ServeRecord {
                t_ns: i,
                kind,
                tenant: 0,
                id: i,
                code: 0,
            })
        };
        let (c, shed) = (ServeEventKind::Complete, ServeEventKind::Shed);
        for (i, kind) in [c, c, c, shed, c, c, shed, shed].into_iter().enumerate() {
            push(i as u64, kind);
        }
        // The ring holds events 2..=7 with 6 and 7 in its first two slots;
        // the window is 4..=7, two sheds, while the ring holds three.
        assert!(!rec.shed_spike_active());
        assert!(!rec.triggered());
        push(8, shed);
        assert!(rec.shed_spike_active());
        assert_eq!(
            *rec.first.lock().unwrap(),
            Some(Trigger::ShedSpike {
                sheds: 3,
                window: 4
            })
        );
    }

    #[test]
    fn zero_serve_capacity_clamps_to_one() {
        let rec = FlightRecorder::with_capacity(1, 4, 0);
        for i in 0..3 {
            rec.record_serve_event(ServeRecord {
                t_ns: i,
                kind: ServeEventKind::Admit,
                tenant: 0,
                id: i,
                code: 0,
            });
        }
        let events = rec.serve_records();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].id, 2);
    }

    #[test]
    fn new_serve_event_kinds_have_stable_labels() {
        assert_eq!(ServeEventKind::Failed.label(), "failed");
        assert_eq!(ServeEventKind::Expired.label(), "expired");
    }

    #[test]
    fn serve_ring_keeps_the_most_recent_events() {
        let rec = FlightRecorder::with_capacity(1, 4, 4);
        for i in 0..9u64 {
            rec.record_serve_event(ServeRecord {
                t_ns: i,
                kind: ServeEventKind::Admit,
                tenant: 0,
                id: i,
                code: 0,
            });
        }
        let events = rec.serve_records();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].id, 5);
        assert_eq!(events[3].id, 8);
    }
}
