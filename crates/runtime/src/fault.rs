//! Deterministic fault injection and the phase failure model.
//!
//! The paper's robustness claims (Theorem 3.2's imbalance bound under
//! *delayed start*, the §4 discussion of preemption) describe how AFS
//! degrades when processors are late, slow, or interrupted. The simulator
//! injects those disturbances directly; this module brings the same
//! capability to the real-thread runtime so that every scheduling policy
//! can be exercised — and differential-tested — under adversity.
//!
//! A [`FaultPlan`] is a seeded, replayable description of the disturbances
//! to apply: per-worker delayed starts, bounded mid-phase stalls, random
//! preemption slices, and panic-at-iteration triggers. It is wired in via
//! [`crate::PoolBuilder::faults`] and costs nothing when absent — the hot
//! paths check one `Option` that is `None` in production.
//!
//! Panic containment itself ([`PhaseError`]) is always on: a panicking
//! loop body forfeits only its own iteration, survivors run every other
//! iteration exactly once, every barrier still releases, and the error —
//! carrying the worker id and panic payload — is returned from
//! [`crate::try_parallel_phases`] instead of aborting the process.

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A failed parallel phase: which worker panicked, in which phase, and the
/// panic payload it threw.
pub struct PhaseError {
    worker: usize,
    phase: usize,
    payload: Box<dyn Any + Send>,
}

impl PhaseError {
    /// Builds an error from a caught panic payload.
    pub(crate) fn new(worker: usize, phase: usize, payload: Box<dyn Any + Send>) -> PhaseError {
        PhaseError {
            worker,
            phase,
            payload,
        }
    }

    /// The worker whose body panicked (first panic wins when several race).
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The phase index (0 for single-loop regions) in which it panicked.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// The panic message, when the payload was a string (the common case
    /// for `panic!("...")`); `None` for non-string payloads.
    pub fn message(&self) -> Option<&str> {
        if let Some(s) = self.payload.downcast_ref::<&'static str>() {
            Some(s)
        } else {
            self.payload.downcast_ref::<String>().map(|s| s.as_str())
        }
    }

    /// Consumes the error, returning the raw panic payload — suitable for
    /// [`std::panic::resume_unwind`].
    pub fn into_payload(self) -> Box<dyn Any + Send> {
        self.payload
    }
}

impl fmt::Debug for PhaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhaseError")
            .field("worker", &self.worker)
            .field("phase", &self.phase)
            .field("message", &self.message())
            .finish()
    }
}

impl fmt::Display for PhaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker {} panicked in phase {}", self.worker, self.phase)?;
        if let Some(msg) = self.message() {
            write!(f, ": {msg}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PhaseError {}

/// A bounded mid-phase stall for one worker.
#[derive(Clone, Copy, Debug)]
struct Stall {
    /// Phase in which to stall.
    phase: usize,
    /// Stall after this many grab attempts within the region.
    after_grabs: u64,
    /// How long to sleep.
    dur: Duration,
}

/// A panic trigger for one worker.
#[derive(Clone, Copy, Debug)]
struct PanicAt {
    /// Phase in which to fire.
    phase: usize,
    /// Iteration index that panics.
    iter: u64,
}

/// Random preemption: roughly one grab in `one_in` loses the CPU for
/// `slice`.
#[derive(Clone, Copy, Debug)]
struct Preempt {
    one_in: u64,
    slice: Duration,
}

/// A seeded, replayable plan of disturbances for one parallel region.
///
/// The same plan (same seed, same triggers) injects the same faults on
/// every run, making failures reproducible: preemption coin flips are a
/// pure hash of `(seed, worker, phase, grab_index)`, and the other faults
/// fire at fixed (worker, phase, position) coordinates. Panic triggers are
/// one-shot — after firing once they disarm, so the pool that survived the
/// failure can re-run the same region successfully.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Per-worker delay applied at region start (Theorem 3.2's "delayed
    /// start"). Sparse: missing workers start on time.
    delays: Vec<Duration>,
    stalls: Vec<Option<Stall>>,
    panics: Vec<Option<PanicAt>>,
    /// One-shot flags: `fired[w]` disarms worker `w`'s panic trigger.
    fired: Vec<AtomicBool>,
    preempt: Option<Preempt>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed for preemption coins.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            delays: Vec::new(),
            stalls: Vec::new(),
            panics: Vec::new(),
            fired: Vec::new(),
            preempt: None,
        }
    }

    fn grow(&mut self, w: usize) {
        if self.delays.len() <= w {
            self.delays.resize(w + 1, Duration::ZERO);
            self.stalls.resize(w + 1, None);
            self.panics.resize(w + 1, None);
            self.fired.resize_with(w + 1, AtomicBool::default);
        }
    }

    /// Delays worker `w`'s entry into each parallel region by `dur` — the
    /// real-thread analogue of the simulator's delayed-start disturbance.
    pub fn with_delayed_start(mut self, w: usize, dur: Duration) -> FaultPlan {
        self.grow(w);
        self.delays[w] = dur;
        self
    }

    /// Stalls worker `w` for `dur` after its `after_grabs`-th grab attempt
    /// in `phase` (a bounded freeze, visible to the stall watchdog when it
    /// exceeds the watchdog interval).
    pub fn with_stall(
        mut self,
        w: usize,
        phase: usize,
        after_grabs: u64,
        dur: Duration,
    ) -> FaultPlan {
        self.grow(w);
        self.stalls[w] = Some(Stall {
            phase,
            after_grabs,
            dur,
        });
        self
    }

    /// Panics worker `w` at iteration `iter` of `phase`. One-shot: the
    /// trigger disarms after firing so the pool remains usable.
    pub fn with_panic_at(mut self, w: usize, phase: usize, iter: u64) -> FaultPlan {
        self.grow(w);
        self.panics[w] = Some(PanicAt { phase, iter });
        self
    }

    /// Adds seeded random preemption: roughly one grab in `one_in` sleeps
    /// for `slice`, on a coin that is a pure function of the seed and the
    /// (worker, phase, grab) coordinates.
    pub fn with_preemption(mut self, one_in: u64, slice: Duration) -> FaultPlan {
        assert!(one_in >= 1, "preemption rate must be at least 1");
        self.preempt = Some(Preempt { one_in, slice });
        self
    }

    /// Hook: called once per worker when it enters a parallel region.
    pub(crate) fn on_region_start(&self, worker: usize) {
        if let Some(d) = self.delays.get(worker) {
            if !d.is_zero() {
                std::thread::sleep(*d);
            }
        }
    }

    /// Hook: called before each grab attempt; `grabs` counts attempts by
    /// this worker within the current phase (0-based).
    pub(crate) fn on_grab(&self, worker: usize, phase: usize, grabs: u64) {
        if let Some(Some(s)) = self.stalls.get(worker) {
            if s.phase == phase && s.after_grabs == grabs && !s.dur.is_zero() {
                std::thread::sleep(s.dur);
            }
        }
        if let Some(pre) = &self.preempt {
            let coin = splitmix64(
                self.seed
                    .wrapping_add((worker as u64) << 40)
                    .wrapping_add((phase as u64) << 20)
                    .wrapping_add(grabs),
            );
            if coin.is_multiple_of(pre.one_in) && !pre.slice.is_zero() {
                std::thread::sleep(pre.slice);
            }
        }
    }

    /// Hook: called before each iteration; panics when worker `w`'s trigger
    /// matches `(phase, i)` and has not fired yet.
    pub(crate) fn maybe_panic(&self, worker: usize, phase: usize, i: u64) {
        if let Some(Some(p)) = self.panics.get(worker) {
            if p.phase == phase && p.iter == i && !self.fired[worker].swap(true, Ordering::Relaxed)
            {
                panic!("injected fault: worker {worker} panicked at phase {phase} iteration {i}");
            }
        }
    }
}

/// SplitMix64 finalizer — same generator family as `runtime::inject`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new(42);
        plan.on_region_start(0);
        plan.on_grab(0, 0, 0);
        plan.maybe_panic(0, 0, 0); // must not panic
    }

    #[test]
    fn panic_trigger_is_one_shot_and_targeted() {
        let plan = FaultPlan::new(1).with_panic_at(2, 1, 7);
        plan.maybe_panic(2, 0, 7); // wrong phase
        plan.maybe_panic(2, 1, 6); // wrong iteration
        plan.maybe_panic(1, 1, 7); // wrong worker
        let hit =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.maybe_panic(2, 1, 7)));
        assert!(hit.is_err(), "matching trigger must fire");
        plan.maybe_panic(2, 1, 7); // disarmed: must not panic again
    }

    #[test]
    fn preemption_coin_is_deterministic() {
        let a = FaultPlan::new(9).with_preemption(u64::MAX, Duration::ZERO);
        // Zero-duration slices make the hook a pure no-op timing-wise; the
        // point is that construction and the hook path are exercised.
        for g in 0..64 {
            a.on_grab(3, 2, g);
        }
        // Different seeds give different coin streams.
        let c1: Vec<u64> = (0..16).map(|g| splitmix64(9 + g)).collect();
        let c2: Vec<u64> = (0..16).map(|g| splitmix64(10 + g)).collect();
        assert_ne!(c1, c2);
    }

    #[test]
    fn phase_error_reports_worker_and_message() {
        let e = PhaseError::new(3, 1, Box::new("boom"));
        assert_eq!(e.worker(), 3);
        assert_eq!(e.phase(), 1);
        assert_eq!(e.message(), Some("boom"));
        assert!(format!("{e}").contains("worker 3 panicked in phase 1: boom"));
        let owned = PhaseError::new(0, 0, Box::new(String::from("owned")));
        assert_eq!(owned.message(), Some("owned"));
        let opaque = PhaseError::new(0, 0, Box::new(17u32));
        assert_eq!(opaque.message(), None);
    }
}
