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
//! Records are fixed-size [`Copy`] structs in preallocated rings, so the
//! steady state allocates nothing. Writes happen at phase granularity
//! (inside the barrier turn, where exactly one thread is live) and at
//! serve-event granularity (on the admission/dispatch threads), so the
//! guarding mutexes are effectively uncontended — this layer rides inside
//! the same overhead budget as the metrics registry it summarizes.
//!
//! Dumping is once-per-recorder: the first trigger arms the recorder and
//! the next phase boundary (or an explicit [`FlightRecorder::flush`], which
//! the pool runs on drop) writes exactly one file. Deferring the write to
//! the next boundary is deliberate: a stall is detected *mid*-phase, and
//! the stalled phase's own summary record only exists once the phase ends —
//! flushing lazily guarantees the dump contains the record of the phase
//! that stalled. A recorder whose dump directory came from the
//! `AFS_FLIGHT_DIR` environment variable additionally claims a
//! process-wide once-flag, so a bench run spanning many pools still leaves
//! exactly one dump.

use afs_metrics::{CounterSnapshot, MetricsRegistry, METRICS_SCHEMA_VERSION};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Default capacity of the per-phase summary ring.
pub const DEFAULT_PHASE_CAPACITY: usize = 256;
/// Default capacity of the serve-event ring.
pub const DEFAULT_SERVE_CAPACITY: usize = 256;
/// Default shed-spike window (events) and threshold (sheds within it).
const DEFAULT_SHED_WINDOW: u32 = 32;
const DEFAULT_SHED_THRESHOLD: u32 = 16;

/// Process-wide claim for environment-configured dumps: the first recorder
/// to flush wins, every later one stays silent. Scoped to env-configured
/// recorders only, so tests using explicit dump directories stay isolated.
static ENV_DUMP_CLAIMED: AtomicBool = AtomicBool::new(false);
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
    /// Grabs served from the worker's own queue during this phase.
    pub local_grabs: u64,
    /// Grabs stolen from another worker's queue (the migration column).
    pub remote_grabs: u64,
    /// Grabs from a central queue.
    pub central_grabs: u64,
    /// Static-partition claims.
    pub free_grabs: u64,
    /// Iterations executed.
    pub iters: u64,
    /// Contended CAS retries on queue words.
    pub cas_retries: u64,
    /// Grabs served from the grab-ahead stash.
    pub stash_hits: u64,
    /// Barrier waits resolved while spinning.
    pub barrier_spin: u64,
    /// Barrier waits resolved after yielding.
    pub barrier_yield: u64,
    /// Barrier waits that parked the worker.
    pub barrier_park: u64,
    /// AFS subdivision `k` in force (0 when no adaptive controller ran).
    pub k: u64,
    /// Grab-ahead batch `b` in force (0 when no adaptive controller ran).
    pub b: u64,
}

impl PhaseRecord {
    /// This phase's affinity hit ratio delta: `local / (local + remote)`
    /// over the phase's own grabs. `None` when the phase had no
    /// queue-based grabs.
    pub fn affinity_hit_ratio(&self) -> Option<f64> {
        let denom = self.local_grabs + self.remote_grabs;
        (denom > 0).then(|| self.local_grabs as f64 / denom as f64)
    }

    fn to_json(self) -> String {
        let hit = match self.affinity_hit_ratio() {
            Some(r) => format!("{r:.6}"),
            None => "null".to_string(),
        };
        format!(
            "{{\"seq\": {}, \"phase\": {}, \"wall_ns\": {}, \
             \"grabs\": {{\"local\": {}, \"remote\": {}, \"central\": {}, \"free\": {}}}, \
             \"iters\": {}, \"cas_retries\": {}, \"stash_hits\": {}, \
             \"barrier\": {{\"spin\": {}, \"yield\": {}, \"park\": {}}}, \
             \"affinity_hit_ratio\": {hit}, \
             \"tune\": {{\"k\": {}, \"b\": {}}}}}",
            self.seq,
            self.phase,
            self.wall_ns,
            self.local_grabs,
            self.remote_grabs,
            self.central_grabs,
            self.free_grabs,
            self.iters,
            self.cas_retries,
            self.stash_hits,
            self.barrier_spin,
            self.barrier_yield,
            self.barrier_park,
            self.k,
            self.b,
        )
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
    /// A request's body panicked and the batch driver contained it;
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

impl ServeRecord {
    fn to_json(self) -> String {
        format!(
            "{{\"t_ns\": {}, \"kind\": \"{}\", \"tenant\": {}, \"id\": {}, \"code\": {}}}",
            self.t_ns,
            self.kind.label(),
            self.tenant,
            self.id,
            self.code
        )
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

    fn to_json(self) -> String {
        match self {
            Trigger::Stall { worker } => {
                format!("{{\"kind\": \"stall\", \"worker\": {worker}}}")
            }
            Trigger::PhaseError { worker, phase } => {
                format!("{{\"kind\": \"phase_error\", \"worker\": {worker}, \"phase\": {phase}}}")
            }
            Trigger::SpawnDegraded { live, requested } => format!(
                "{{\"kind\": \"spawn_degraded\", \"live\": {live}, \"requested\": {requested}}}"
            ),
            Trigger::ShedSpike { sheds, window } => {
                format!("{{\"kind\": \"shed_spike\", \"sheds\": {sheds}, \"window\": {window}}}")
            }
        }
    }
}

/// A bounded overwrite-oldest ring of `Copy` records, preallocated once.
#[derive(Debug)]
struct Ring<T: Copy> {
    slots: Vec<T>,
    cap: usize,
    /// Next slot to write once the ring is full.
    next: usize,
    /// Total records ever pushed (so readers know how many were dropped).
    total: u64,
}

impl<T: Copy> Ring<T> {
    fn new(cap: usize) -> Ring<T> {
        Ring {
            slots: Vec::with_capacity(cap.max(1)),
            cap: cap.max(1),
            next: 0,
            total: 0,
        }
    }

    fn push(&mut self, v: T) {
        if self.slots.len() < self.cap {
            self.slots.push(v);
        } else {
            self.slots[self.next] = v;
            self.next = (self.next + 1) % self.cap;
        }
        self.total += 1;
    }

    /// Surviving records, oldest first.
    fn in_order(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.slots.len());
        out.extend_from_slice(&self.slots[self.next..]);
        out.extend_from_slice(&self.slots[..self.next]);
        out
    }

    /// The `n` most recent records, oldest of them first.
    fn last_n(&self, n: usize) -> Vec<T> {
        let all = self.in_order();
        let skip = all.len().saturating_sub(n);
        all[skip..].to_vec()
    }
}

/// Phase ring plus the running counter totals the deltas are diffed
/// against, guarded by one mutex (written once per phase, by the single
/// thread holding the barrier turn).
#[derive(Debug)]
struct PhaseState {
    ring: Ring<PhaseRecord>,
    last: CounterSnapshot,
    seq: u64,
}

/// The always-on black-box recorder. One per pool; shared with the
/// watchdog, the serving frontend and the telemetry endpoint via `Arc`.
#[derive(Debug)]
pub struct FlightRecorder {
    phases: Mutex<PhaseState>,
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
    /// Whether the dump dir came from `AFS_FLIGHT_DIR` (participates in
    /// the process-wide single-dump claim).
    env_scoped: AtomicBool,
    shed_window: AtomicU32,
    shed_threshold: AtomicU32,
    last_dump: Mutex<Option<PathBuf>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default ring capacities and no dump directory
    /// (triggers count, nothing is written).
    pub fn new() -> FlightRecorder {
        Self::with_capacity(DEFAULT_PHASE_CAPACITY, DEFAULT_SERVE_CAPACITY)
    }

    /// A recorder holding at most `phase_cap` phase records and
    /// `serve_cap` serve events.
    pub fn with_capacity(phase_cap: usize, serve_cap: usize) -> FlightRecorder {
        FlightRecorder {
            phases: Mutex::new(PhaseState {
                ring: Ring::new(phase_cap),
                last: CounterSnapshot::default(),
                seq: 0,
            }),
            serve: Mutex::new(Ring::new(serve_cap)),
            trigger_counts: [const { AtomicU64::new(0) }; 4],
            triggered: AtomicBool::new(false),
            first: Mutex::new(None),
            dumped: AtomicBool::new(false),
            dump_dir: Mutex::new(None),
            env_scoped: AtomicBool::new(false),
            shed_window: AtomicU32::new(DEFAULT_SHED_WINDOW),
            shed_threshold: AtomicU32::new(DEFAULT_SHED_THRESHOLD),
            last_dump: Mutex::new(None),
        }
    }

    /// Configures where dumps land. `env_scoped` marks directories taken
    /// from `AFS_FLIGHT_DIR`: those recorders share one process-wide dump
    /// claim, so a multi-pool bench run leaves exactly one file.
    pub fn set_dump_dir(&self, dir: impl Into<PathBuf>, env_scoped: bool) {
        *self.dump_dir.lock().unwrap() = Some(dir.into());
        self.env_scoped.store(env_scoped, Ordering::Relaxed);
    }

    /// The configured dump directory, if any.
    pub fn dump_dir(&self) -> Option<PathBuf> {
        self.dump_dir.lock().unwrap().clone()
    }

    /// Re-tunes the shed-spike trigger: fire when at least `threshold`
    /// sheds land inside the last `window` serve events.
    pub fn set_shed_spike(&self, threshold: u32, window: u32) {
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
        let ring = self.serve.lock().unwrap();
        let sheds = ring
            .last_n(window as usize)
            .iter()
            .filter(|r| r.kind == ServeEventKind::Shed)
            .count() as u32;
        sheds >= threshold
    }

    /// Records the phase that just ended: `wall_ns` of wall time, counter
    /// deltas diffed against the previous boundary's totals from
    /// `registry`, and the tuning parameters currently in force. Called
    /// once per phase by the thread holding the barrier turn. Flushes a
    /// pending dump, so a mid-phase trigger's dump always contains the
    /// triggering phase's record.
    pub fn record_phase(&self, phase: u64, wall_ns: u64, registry: &MetricsRegistry) {
        let totals = registry.totals();
        let (k, b) = registry.sched_controller().map_or((0, 0), |s| (s.k, s.b));
        {
            let mut st = self.phases.lock().unwrap();
            let d = totals.minus(&st.last);
            let seq = st.seq;
            st.ring.push(PhaseRecord {
                seq,
                phase,
                wall_ns,
                local_grabs: d.local_grabs,
                remote_grabs: d.remote_grabs,
                central_grabs: d.central_grabs,
                free_grabs: d.free_grabs,
                iters: d.iters,
                cas_retries: d.cas_retries,
                stash_hits: d.stash_hits,
                barrier_spin: d.barrier_spin,
                barrier_yield: d.barrier_yield,
                barrier_park: d.barrier_park,
                k,
                b,
            });
            st.last = totals;
            st.seq += 1;
        }
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
                let sheds = ring
                    .last_n(window as usize)
                    .iter()
                    .filter(|r| r.kind == ServeEventKind::Shed)
                    .count() as u32;
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

    /// Whether a dump has been written.
    pub fn dumped(&self) -> bool {
        self.dumped.load(Ordering::Acquire) && self.last_dump.lock().unwrap().is_some()
    }

    /// Path of the dump written by this recorder, if any.
    pub fn dump_path(&self) -> Option<PathBuf> {
        self.last_dump.lock().unwrap().clone()
    }

    /// Surviving phase records, oldest first.
    pub fn phase_records(&self) -> Vec<PhaseRecord> {
        self.phases.lock().unwrap().ring.in_order()
    }

    /// Surviving serve events, oldest first.
    pub fn serve_records(&self) -> Vec<ServeRecord> {
        self.serve.lock().unwrap().in_order()
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
        if self.env_scoped.load(Ordering::Relaxed) && ENV_DUMP_CLAIMED.swap(true, Ordering::AcqRel)
        {
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
                *self.last_dump.lock().unwrap() = Some(path.clone());
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
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {METRICS_SCHEMA_VERSION},\n"
        ));
        out.push_str("  \"kind\": \"flight_recorder\",\n");
        out.push_str("  \"trigger\": ");
        match *self.first.lock().unwrap() {
            Some(t) => out.push_str(&t.to_json()),
            None => out.push_str("null"),
        }
        out.push_str(",\n");
        let [stall, perr, spawn, shed] = self.trigger_counts();
        out.push_str(&format!(
            "  \"triggers\": {{\"stall\": {stall}, \"phase_error\": {perr}, \
             \"spawn_degraded\": {spawn}, \"shed_spike\": {shed}}},\n"
        ));
        let (records, phases_total) = {
            let st = self.phases.lock().unwrap();
            (st.ring.in_order(), st.ring.total)
        };
        out.push_str(&format!("  \"phases_recorded\": {phases_total},\n"));
        out.push_str("  \"phases\": [\n");
        for (i, r) in records.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&r.to_json());
            out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        let events = self.serve.lock().unwrap().in_order();
        out.push_str("  \"serve_events\": [\n");
        for (i, e) in events.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&e.to_json());
            out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
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

/// Removes any dumps a previous run left in `dir` (test helper; dumps are
/// append-only otherwise).
pub fn clear_dumps(dir: &Path) -> std::io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("flight-") && name.ends_with(".json") {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_core::policy::AccessKind;

    fn dir_for(test: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("afs-scope-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn phase_records_are_deltas_not_totals() {
        let reg = MetricsRegistry::new(2);
        let rec = FlightRecorder::new();
        reg.worker(0).record_grab(AccessKind::Local, 10);
        rec.record_phase(0, 1_000, &reg);
        reg.worker(0).record_grab(AccessKind::Local, 5);
        reg.worker(1).record_grab(AccessKind::Remote, 5);
        rec.record_phase(1, 2_000, &reg);
        let records = rec.phase_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].local_grabs, 1);
        assert_eq!(records[0].iters, 10);
        assert_eq!(records[1].local_grabs, 1);
        assert_eq!(records[1].remote_grabs, 1);
        assert_eq!(records[1].iters, 10);
        assert_eq!(records[1].affinity_hit_ratio(), Some(0.5));
        assert_eq!(records[1].seq, 1);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let reg = MetricsRegistry::new(1);
        let rec = FlightRecorder::with_capacity(4, 4);
        for ph in 0..10u64 {
            rec.record_phase(ph, ph, &reg);
        }
        let records = rec.phase_records();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].phase, 6);
        assert_eq!(records[3].phase, 9);
    }

    #[test]
    fn first_trigger_wins_and_all_count() {
        let rec = FlightRecorder::new();
        assert!(!rec.triggered());
        rec.trigger(Trigger::Stall { worker: 2 });
        rec.trigger(Trigger::PhaseError {
            worker: 0,
            phase: 3,
        });
        assert!(rec.triggered());
        assert_eq!(rec.trigger_counts(), [1, 1, 0, 0]);
        let j = rec.to_json();
        assert!(j.contains("\"trigger\": {\"kind\": \"stall\", \"worker\": 2}"));
        assert!(j.contains("\"phase_error\": 1"));
    }

    #[test]
    fn dump_writes_exactly_one_file() {
        let reg = MetricsRegistry::new(1);
        let dir = dir_for("once");
        let rec = FlightRecorder::new();
        rec.set_dump_dir(&dir, false);
        rec.record_phase(0, 100, &reg);
        assert!(rec.flush().is_none(), "no dump before a trigger");
        rec.trigger(Trigger::Stall { worker: 0 });
        // The next phase boundary flushes, carrying the triggering phase.
        rec.record_phase(1, 200, &reg);
        assert!(rec.dumped());
        rec.trigger(Trigger::Stall { worker: 0 });
        assert!(rec.flush().is_none(), "second trigger must not re-dump");
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("flight-"))
            .collect();
        assert_eq!(dumps.len(), 1);
        let body = std::fs::read_to_string(dumps[0].path()).unwrap();
        assert!(body.contains("\"kind\": \"flight_recorder\""));
        assert!(
            body.contains("\"phase\": 1"),
            "stalled phase record present"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shed_spike_fires_at_threshold() {
        let rec = FlightRecorder::new();
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
        let rec = FlightRecorder::new();
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

    #[test]
    fn new_serve_event_kinds_have_stable_labels() {
        assert_eq!(ServeEventKind::Failed.label(), "failed");
        assert_eq!(ServeEventKind::Expired.label(), "expired");
    }

    #[test]
    fn serve_ring_keeps_the_most_recent_events() {
        let rec = FlightRecorder::with_capacity(4, 4);
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
