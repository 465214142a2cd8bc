//! Online re-tuning of the AFS parameters from the always-on metrics.
//!
//! The 1992 paper fixes the subdivision parameter k (= P) and this
//! codebase's grab-ahead batch b once, offline. [`AdaptController`] closes
//! the loop instead: at every phase boundary it reads the per-worker
//! counter deltas for the phase that just finished — affinity hit ratio,
//! CAS-retry rate, steal volume, barrier park fraction, per-worker
//! iteration imbalance — and re-tunes the *next* phase's k and b.
//!
//! The controller's state is a set of integer EWMAs over per-mille rates
//! plus the last observed counter totals, and [`AdaptController::observe`] is a pure
//! integer function of those — no floats, no wall-clock, no randomness —
//! so identical observation sequences always produce identical decision
//! sequences (asserted by tests).
//!
//! # Decision table
//!
//! k walks a ladder {1, 2, 4, 8, P} where **larger k = finer subdivision**
//! (a local grab takes ⌈len/k⌉ iterations, so k = 1 claims the whole queue
//! at once and leaves nothing stealable, while k = P is the paper's 1/P
//! decay). b doubles/halves within 1..=[`crate::source::MAX_GRAB_AHEAD`].
//!
//! * high remote-steal share, park-majority barrier waits, or high
//!   per-worker iteration imbalance → the load is uneven: push k **up the
//!   ladder** (finer subdivision, more stealable tail, better rebalancing);
//! * negligible steal share *and* balanced iteration counts → the
//!   subdivision is paying CAS traffic for rebalancing nobody needs: push
//!   k **down** (coarser chunks, fewer shared-word touches);
//! * high CAS-retry rate → the shared queue words are contended: push b
//!   **up** (one CAS claims a batch, the rest come from the private stash);
//! * high steal share → batching hoards work away from thieves: push b
//!   **down**.
//!
//! Each push is a *vote*; a parameter only moves after
//! [`HYSTERESIS`] consecutive same-direction votes, and any decision
//! resets the settle streak — so a settled workload stops oscillating
//! and [`AdaptController::settled`] reports convergence.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::source::MAX_GRAB_AHEAD;
use afs_metrics::MetricsRegistry;

/// Consecutive same-direction votes required before a parameter moves.
pub const HYSTERESIS: u32 = 2;

/// Consecutive no-change observations after which the controller reports
/// itself settled.
pub const SETTLE_AFTER: u64 = 3;

/// Remote-steal share (per mille of all grabs) above which the load is
/// considered uneven enough to want finer subdivision.
const STEAL_HIGH_PM: u64 = 150;
/// Remote-steal share below which rebalancing is considered idle.
const STEAL_LOW_PM: u64 = 20;
/// Barrier park fraction (per mille of waited arrivals) above which the
/// phase tail is park-dominated (some workers finish far early).
const PARK_HIGH_PM: u64 = 500;
/// CAS-retry rate (per mille of all grabs) above which the queue words are
/// considered contended.
const RETRY_HIGH_PM: u64 = 50;
/// Per-worker iteration imbalance (max/mean, per mille) above which the
/// phase is considered skewed. 1000 = perfectly balanced.
const IMBAL_HIGH_PM: u64 = 1500;
/// Imbalance at or below which the phase is considered balanced enough to
/// coarsen.
const IMBAL_LOW_PM: u64 = 1200;

/// The subdivision ladder for `p` workers: {1, 2, 4, 8, P}, sorted and
/// deduplicated. Larger k = finer local chunks (⌈len/k⌉ per grab).
pub fn k_ladder(p: usize) -> Vec<u64> {
    let mut ladder = vec![1u64, 2, 4, 8, p.max(1) as u64];
    ladder.sort_unstable();
    ladder.dedup();
    ladder
}

/// Cumulative counter readings the controller derives phase deltas from.
/// All scalar fields are running totals since pool creation (never
/// deltas), summed over all workers; `iters` is the per-worker cumulative
/// iteration totals (for the imbalance signal).
#[derive(Clone, Copy, Debug, Default)]
pub struct AdaptObservation<'a> {
    /// Own-queue grabs, all workers.
    pub local_grabs: u64,
    /// Steals from other workers' queues, all workers.
    pub remote_grabs: u64,
    /// Contended CAS retries on queue words, all workers.
    pub cas_retries: u64,
    /// Grabs served from the grab-ahead stash, all workers.
    pub stash_hits: u64,
    /// Barrier waits resolved while spinning, all workers.
    pub barrier_spin: u64,
    /// Barrier waits resolved while yielding, all workers.
    pub barrier_yield: u64,
    /// Barrier waits that parked, all workers.
    pub barrier_park: u64,
    /// Per-worker cumulative iteration totals.
    pub iters: &'a [u64],
}

impl<'a> AdaptObservation<'a> {
    /// Builds the observation from a registry's current counter totals,
    /// writing the per-worker iteration totals into `iters_buf` (reused
    /// across phases so the hot path does not allocate).
    pub fn from_registry(reg: &MetricsRegistry, iters_buf: &'a mut Vec<u64>) -> Self {
        let mut obs = AdaptObservation::default();
        iters_buf.clear();
        for w in 0..reg.workers() {
            let c = reg.worker(w).get();
            obs.local_grabs += c.local_grabs;
            obs.remote_grabs += c.remote_grabs;
            obs.cas_retries += c.cas_retries;
            obs.stash_hits += c.stash_hits;
            obs.barrier_spin += c.barrier_spin;
            obs.barrier_yield += c.barrier_yield;
            obs.barrier_park += c.barrier_park;
            iters_buf.push(c.iters);
        }
        obs.iters = iters_buf;
        obs
    }
}

/// What [`AdaptController::observe`] decided for the next phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tune {
    /// Subdivision parameter for the next phase.
    pub k: u64,
    /// Grab-ahead batch for the next phase.
    pub b: usize,
    /// Whether this observation changed k or b (a *decision*). The
    /// runtime records the `SchedTune` trace event only when this is set.
    pub changed: bool,
}

/// Scalar totals remembered from the previous observation.
#[derive(Clone, Copy, Debug, Default)]
struct LastScalars {
    local: u64,
    remote: u64,
    retries: u64,
    spin: u64,
    yields: u64,
    park: u64,
}

/// Controller state mutated under one short lock per phase boundary.
#[derive(Debug, Default)]
struct Inner {
    last: LastScalars,
    /// Per-worker cumulative iteration totals at the last observation.
    last_iters: Vec<u64>,
    /// Whether the EWMAs have been seeded by a first informative phase.
    seeded: bool,
    steal_ewma_pm: u64,
    park_ewma_pm: u64,
    retry_ewma_pm: u64,
    imbal_ewma_pm: u64,
    finer_streak: u32,
    coarser_streak: u32,
    b_up_streak: u32,
    b_down_streak: u32,
}

/// A per-pool (or per-server) controller re-tuning AFS's k and grab-ahead
/// b between phases from observed counter deltas. See the module docs for
/// the decision table.
#[derive(Debug)]
pub struct AdaptController {
    p: usize,
    ladder: Vec<u64>,
    /// Index into `ladder` of the current k.
    k_idx: AtomicUsize,
    /// Current grab-ahead batch, 1..=[`MAX_GRAB_AHEAD`].
    b: AtomicUsize,
    /// A frozen controller observes (deltas keep flowing) but never moves
    /// k or b — the differential-test mode.
    frozen: AtomicBool,
    /// Observations applied (phase boundaries seen).
    phases: AtomicU64,
    /// Observations that changed k or b.
    decisions: AtomicU64,
    /// Consecutive no-change observations (the settle streak).
    settle: AtomicU64,
    inner: Mutex<Inner>,
}

impl AdaptController {
    /// A controller for `p` workers starting at the paper's default
    /// k = P and grab-ahead b = 1.
    pub fn new(p: usize) -> AdaptController {
        let k = p.max(1) as u64;
        AdaptController::with_initial(p, k, 1)
    }

    /// A controller starting from a chosen point: k snaps to the nearest
    /// ladder entry at or above it, b clamps to `1..=MAX_GRAB_AHEAD`.
    pub fn with_initial(p: usize, k: u64, b: usize) -> AdaptController {
        assert!(p >= 1, "need at least one worker");
        let ladder = k_ladder(p);
        let k_idx = ladder
            .iter()
            .position(|&step| step >= k)
            .unwrap_or(ladder.len() - 1);
        AdaptController {
            p,
            ladder,
            k_idx: AtomicUsize::new(k_idx),
            b: AtomicUsize::new(b.clamp(1, MAX_GRAB_AHEAD)),
            frozen: AtomicBool::new(false),
            phases: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
            settle: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The worker count the ladder was built for.
    pub fn workers(&self) -> usize {
        self.p
    }

    /// The subdivision ladder this controller walks.
    pub fn ladder(&self) -> &[u64] {
        &self.ladder
    }

    /// The current (k, b) — what the next phase will run with.
    pub fn current(&self) -> (u64, usize) {
        (
            self.ladder[self.k_idx.load(Ordering::Relaxed)],
            self.b.load(Ordering::Relaxed),
        )
    }

    /// Pins (k, b) where they are: the controller keeps consuming
    /// observations but never moves a parameter again. Used by the
    /// frozen-controller differential tests.
    pub fn freeze(&self) {
        self.frozen.store(true, Ordering::Relaxed);
    }

    /// Whether the controller is frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Relaxed)
    }

    /// Phase boundaries observed so far.
    pub fn phases(&self) -> u64 {
        self.phases.load(Ordering::Relaxed)
    }

    /// Observations that moved k or b.
    pub fn decisions(&self) -> u64 {
        self.decisions.load(Ordering::Relaxed)
    }

    /// Consecutive no-change observations.
    pub fn settle_streak(&self) -> u64 {
        self.settle.load(Ordering::Relaxed)
    }

    /// Whether the workload has settled: at least [`SETTLE_AFTER`]
    /// consecutive observations without a decision.
    pub fn settled(&self) -> bool {
        self.settle_streak() >= SETTLE_AFTER
    }

    /// Convenience: observes a registry's current totals (see
    /// [`AdaptObservation::from_registry`]).
    pub fn observe_registry(&self, reg: &MetricsRegistry) -> Tune {
        let mut buf = Vec::with_capacity(reg.workers());
        let obs = AdaptObservation::from_registry(reg, &mut buf);
        self.observe(obs)
    }

    /// Feeds one reading of the cumulative counters (a phase boundary) and
    /// returns the tuning for the next phase. Deterministic: the same
    /// sequence of observations always produces the same decisions.
    pub fn observe(&self, obs: AdaptObservation<'_>) -> Tune {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        self.phases.fetch_add(1, Ordering::Relaxed);

        let d_local = obs.local_grabs.saturating_sub(g.last.local);
        let d_remote = obs.remote_grabs.saturating_sub(g.last.remote);
        let d_retries = obs.cas_retries.saturating_sub(g.last.retries);
        let d_spin = obs.barrier_spin.saturating_sub(g.last.spin);
        let d_yield = obs.barrier_yield.saturating_sub(g.last.yields);
        let d_park = obs.barrier_park.saturating_sub(g.last.park);
        g.last = LastScalars {
            local: obs.local_grabs,
            remote: obs.remote_grabs,
            retries: obs.cas_retries,
            spin: obs.barrier_spin,
            yields: obs.barrier_yield,
            park: obs.barrier_park,
        };

        // Per-worker iteration deltas for the imbalance signal.
        g.last_iters.resize(obs.iters.len(), 0);
        let mut d_max = 0u64;
        let mut d_total = 0u64;
        for (now, then) in obs.iters.iter().zip(g.last_iters.iter_mut()) {
            let d = now.saturating_sub(*then);
            *then = *now;
            d_max = d_max.max(d);
            d_total += d;
        }

        let d_grabs = d_local + d_remote;
        let waited = d_spin + d_yield + d_park;
        if d_grabs == 0 && waited == 0 {
            // No information: an empty phase (or a repeat reading) must
            // not decay the EWMAs or break a streak.
            return self.unchanged();
        }

        // Per-mille rates for this phase, then integer EWMA with α = 1/4.
        // The first informative phase seeds the EWMAs directly.
        let steal_pm = (d_remote * 1000)
            .checked_div(d_grabs)
            .unwrap_or(g.steal_ewma_pm);
        let retry_pm = (d_retries * 1000)
            .checked_div(d_grabs)
            .unwrap_or(g.retry_ewma_pm);
        let park_pm = (d_park * 1000).checked_div(waited).unwrap_or(0);
        let workers = obs.iters.len().max(1) as u64;
        let imbal_pm = (d_max * workers * 1000)
            .checked_div(d_total)
            .unwrap_or(1000);
        if g.seeded {
            g.steal_ewma_pm = (g.steal_ewma_pm * 3 + steal_pm) / 4;
            g.retry_ewma_pm = (g.retry_ewma_pm * 3 + retry_pm) / 4;
            g.park_ewma_pm = (g.park_ewma_pm * 3 + park_pm) / 4;
            g.imbal_ewma_pm = (g.imbal_ewma_pm * 3 + imbal_pm) / 4;
        } else {
            g.steal_ewma_pm = steal_pm;
            g.retry_ewma_pm = retry_pm;
            g.park_ewma_pm = park_pm;
            g.imbal_ewma_pm = imbal_pm;
            g.seeded = true;
        }

        if self.frozen.load(Ordering::Relaxed) {
            return self.unchanged();
        }

        // Votes for this phase (see the module docs' decision table).
        let uneven = g.steal_ewma_pm >= STEAL_HIGH_PM
            || g.park_ewma_pm >= PARK_HIGH_PM
            || g.imbal_ewma_pm >= IMBAL_HIGH_PM;
        let balanced =
            !uneven && g.steal_ewma_pm <= STEAL_LOW_PM && g.imbal_ewma_pm <= IMBAL_LOW_PM;
        let contended = g.retry_ewma_pm >= RETRY_HIGH_PM;

        if uneven {
            g.finer_streak += 1;
            g.coarser_streak = 0;
        } else if balanced {
            g.coarser_streak += 1;
            g.finer_streak = 0;
        } else {
            g.finer_streak = 0;
            g.coarser_streak = 0;
        }
        if contended && !uneven {
            g.b_up_streak += 1;
            g.b_down_streak = 0;
        } else if g.steal_ewma_pm >= STEAL_HIGH_PM {
            g.b_down_streak += 1;
            g.b_up_streak = 0;
        } else {
            g.b_up_streak = 0;
            g.b_down_streak = 0;
        }

        let mut changed = false;
        let k_idx = self.k_idx.load(Ordering::Relaxed);
        if g.finer_streak >= HYSTERESIS && k_idx + 1 < self.ladder.len() {
            self.k_idx.store(k_idx + 1, Ordering::Relaxed);
            g.finer_streak = 0;
            changed = true;
        } else if g.coarser_streak >= HYSTERESIS && k_idx > 0 {
            self.k_idx.store(k_idx - 1, Ordering::Relaxed);
            g.coarser_streak = 0;
            changed = true;
        }
        let b = self.b.load(Ordering::Relaxed);
        if g.b_up_streak >= HYSTERESIS && b < MAX_GRAB_AHEAD {
            self.b.store((b * 2).min(MAX_GRAB_AHEAD), Ordering::Relaxed);
            g.b_up_streak = 0;
            changed = true;
        } else if g.b_down_streak >= HYSTERESIS && b > 1 {
            self.b.store(b / 2, Ordering::Relaxed);
            g.b_down_streak = 0;
            changed = true;
        }

        if changed {
            self.decisions.fetch_add(1, Ordering::Relaxed);
            self.settle.store(0, Ordering::Relaxed);
        } else {
            self.settle.fetch_add(1, Ordering::Relaxed);
        }
        let (k, b) = self.current();
        Tune { k, b, changed }
    }

    fn unchanged(&self) -> Tune {
        self.settle.fetch_add(1, Ordering::Relaxed);
        let (k, b) = self.current();
        Tune {
            k,
            b,
            changed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the controller with synthetic cumulative totals built from
    /// per-phase deltas.
    struct Feed {
        local: u64,
        remote: u64,
        retries: u64,
        park: u64,
        spin: u64,
        iters: Vec<u64>,
    }

    impl Feed {
        fn new(p: usize) -> Feed {
            Feed {
                local: 0,
                remote: 0,
                retries: 0,
                park: 0,
                spin: 0,
                iters: vec![0; p],
            }
        }

        /// One phase: `local`/`remote` grabs, `retries` CAS retries,
        /// `park` parked waits (+ `spin` spin-resolved), and per-worker
        /// iteration deltas `d_iters`.
        #[allow(clippy::too_many_arguments)]
        fn phase(
            &mut self,
            c: &AdaptController,
            local: u64,
            remote: u64,
            retries: u64,
            park: u64,
            spin: u64,
            d_iters: &[u64],
        ) -> Tune {
            self.local += local;
            self.remote += remote;
            self.retries += retries;
            self.park += park;
            self.spin += spin;
            for (slot, d) in self.iters.iter_mut().zip(d_iters) {
                *slot += d;
            }
            c.observe(AdaptObservation {
                local_grabs: self.local,
                remote_grabs: self.remote,
                cas_retries: self.retries,
                stash_hits: 0,
                barrier_spin: self.spin,
                barrier_yield: 0,
                barrier_park: self.park,
                iters: &self.iters,
            })
        }
    }

    #[test]
    fn ladder_is_sorted_and_deduped() {
        assert_eq!(k_ladder(8), vec![1, 2, 4, 8]);
        assert_eq!(k_ladder(4), vec![1, 2, 4, 8]);
        assert_eq!(k_ladder(6), vec![1, 2, 4, 6, 8]);
        assert_eq!(k_ladder(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(k_ladder(1), vec![1, 2, 4, 8]);
    }

    #[test]
    fn starts_at_the_papers_default() {
        let c = AdaptController::new(8);
        assert_eq!(c.current(), (8, 1));
        let c = AdaptController::new(16);
        assert_eq!(c.current(), (16, 1));
    }

    #[test]
    fn steal_heavy_stream_climbs_to_finest() {
        let c = AdaptController::with_initial(8, 1, 1);
        let mut f = Feed::new(8);
        for _ in 0..12 {
            // 40% of grabs are steals: very uneven.
            f.phase(&c, 60, 40, 0, 0, 7, &[100; 8]);
        }
        assert_eq!(c.current().0, 8, "should reach the finest rung");
        assert!(c.decisions() >= 3);
    }

    #[test]
    fn balanced_low_steal_stream_coarsens() {
        let c = AdaptController::new(8); // starts at k = 8
        let mut f = Feed::new(8);
        for _ in 0..12 {
            // No steals, perfectly balanced iterations, no contention.
            f.phase(&c, 64, 0, 0, 0, 7, &[100; 8]);
        }
        assert_eq!(c.current().0, 1, "should coarsen to the bottom rung");
    }

    #[test]
    fn park_majority_pushes_finer() {
        let c = AdaptController::with_initial(8, 1, 1);
        let mut f = Feed::new(8);
        for _ in 0..4 {
            // No steals (k = 1 leaves nothing stealable), but most waits
            // park and iterations are skewed: the k = 1 signature.
            f.phase(&c, 8, 0, 0, 6, 1, &[800, 100, 100, 100, 100, 100, 100, 100]);
        }
        assert!(c.current().0 > 1, "park-majority must push k finer");
    }

    #[test]
    fn retry_heavy_stream_grows_grab_ahead() {
        let c = AdaptController::new(8);
        let mut f = Feed::new(8);
        for _ in 0..16 {
            // 20% CAS-retry rate, balanced load, no steals.
            f.phase(&c, 100, 0, 20, 0, 7, &[100; 8]);
        }
        assert_eq!(c.current().1, MAX_GRAB_AHEAD, "b should reach the cap");
    }

    #[test]
    fn steal_heavy_stream_shrinks_grab_ahead() {
        let c = AdaptController::with_initial(8, 8, 8);
        let mut f = Feed::new(8);
        for _ in 0..12 {
            f.phase(&c, 60, 40, 0, 0, 7, &[100; 8]);
        }
        assert_eq!(c.current().1, 1, "stealing must shrink b to 1");
    }

    #[test]
    fn one_spike_does_not_move_k() {
        let c = AdaptController::new(8);
        let mut f = Feed::new(8);
        // Seed a neutral regime (steal share ~8%: neither high nor low).
        f.phase(&c, 92, 8, 0, 0, 7, &[100; 8]);
        let before = c.current();
        // A single wildly uneven phase: one vote, below hysteresis.
        f.phase(&c, 10, 90, 0, 8, 0, &[800, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(c.current(), before, "one vote must not move a parameter");
    }

    #[test]
    fn settles_and_reports_it() {
        let c = AdaptController::new(8);
        let mut f = Feed::new(8);
        assert!(!c.settled());
        for _ in 0..SETTLE_AFTER + 1 {
            // Neutral steady state: ~8% steals, balanced.
            f.phase(&c, 92, 8, 0, 0, 7, &[100; 8]);
        }
        assert!(c.settled());
        assert_eq!(c.decisions(), 0);
    }

    #[test]
    fn frozen_controller_never_moves() {
        let c = AdaptController::with_initial(8, 4, 2);
        c.freeze();
        let before = c.current();
        let mut f = Feed::new(8);
        for _ in 0..10 {
            let t = f.phase(&c, 10, 90, 50, 8, 0, &[800, 0, 0, 0, 0, 0, 0, 0]);
            assert!(!t.changed);
        }
        assert_eq!(c.current(), before);
        assert_eq!(c.decisions(), 0);
        assert!(c.is_frozen());
    }

    #[test]
    fn empty_phases_carry_no_information() {
        let c = AdaptController::new(8);
        let mut f = Feed::new(8);
        f.phase(&c, 92, 8, 0, 0, 7, &[100; 8]);
        let before = c.current();
        // Re-reading identical totals (zero deltas) changes nothing and
        // still counts toward settling.
        let settle = c.settle_streak();
        f.phase(&c, 0, 0, 0, 0, 0, &[0; 8]);
        assert_eq!(c.current(), before);
        assert_eq!(c.settle_streak(), settle + 1);
    }

    #[test]
    fn deterministic_given_the_stream() {
        let run = || {
            let c = AdaptController::new(8);
            let mut f = Feed::new(8);
            let mut trail = Vec::new();
            for r in 1..=20u64 {
                let skew = if r % 3 == 0 { 90 } else { 5 };
                let t = f.phase(
                    &c,
                    100 - skew,
                    skew,
                    r % 7,
                    r % 5,
                    3,
                    &[10 + r, 10, 10, 10, 10, 10, 10, 10],
                );
                trail.push((t.k, t.b, t.changed));
            }
            (trail, c.decisions(), c.phases())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observation_builds_from_a_registry() {
        use afs_core::policy::AccessKind;
        let reg = MetricsRegistry::new(2);
        reg.worker(0).record_grab(AccessKind::Local, 10);
        reg.worker(1).record_grab(AccessKind::Remote, 4);
        reg.worker(1).record_cas_retry();
        let mut buf = Vec::new();
        let obs = AdaptObservation::from_registry(&reg, &mut buf);
        assert_eq!(obs.local_grabs, 1);
        assert_eq!(obs.remote_grabs, 1);
        assert_eq!(obs.cas_retries, 1);
        assert_eq!(obs.iters, &[10, 4]);
    }
}
