//! Pool supervision: the serving layer's restart domain.
//!
//! A [`Supervisor`] is a watcher thread the server spawns next to its
//! dispatcher. Each poll it reads the live pool's health — watchdog
//! stall count, effective worker count versus configured, and the
//! server's contained-failure counter — and when the pool looks wounded
//! it: (1) fires the matching [`Trigger`] on the pool's flight recorder
//! and flushes the black-box dump (forensics survive the pool), (2)
//! builds a replacement via the user-supplied factory, (3) swaps it into
//! the server's pool slot under the write lock, and (4) backs off
//! exponentially before watching again, up to a restart cap.
//!
//! The dispatcher's staging FIFOs are pool-independent, so queued and
//! staged requests ride through a restart untouched — the next dispatch
//! simply lands on the replacement pool. A batch already in flight keeps
//! the old pool alive through its own `Arc` and finishes there; the old
//! pool's threads are joined when the last reference drops.

use crate::server::ServerShared;
use afs_runtime::Pool;
use afs_scope::Trigger;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Builds replacement pools, one call per restart (the argument is the
/// zero-based restart ordinal). Must return a pool with the same worker
/// count as the one it replaces.
pub type PoolFactory = Box<dyn Fn(u32) -> Arc<Pool> + Send>;

/// Supervision knobs: poll cadence, restart budget, and what counts as
/// wounded.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// How often the supervisor polls pool health.
    pub interval: Duration,
    /// Backoff after the first restart; doubles per restart (so the
    /// supervisor cannot thrash a persistently failing environment).
    pub initial_backoff: Duration,
    /// Restarts budget; once spent the supervisor stands down and the
    /// last pool serves on, wounded or not.
    pub max_restarts: u32,
    /// Contained request failures (since the current pool took over)
    /// that count as "repeated PhaseErrors" and justify a restart.
    pub failure_threshold: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            interval: Duration::from_millis(10),
            initial_backoff: Duration::from_millis(10),
            max_restarts: 4,
            failure_threshold: 8,
        }
    }
}

impl SupervisorConfig {
    /// Sets the health-poll interval.
    pub fn interval(mut self, d: Duration) -> SupervisorConfig {
        self.interval = d.max(Duration::from_micros(100));
        self
    }

    /// Sets the initial (doubling) restart backoff.
    pub fn initial_backoff(mut self, d: Duration) -> SupervisorConfig {
        self.initial_backoff = d;
        self
    }

    /// Sets the restart cap.
    pub fn max_restarts(mut self, n: u32) -> SupervisorConfig {
        self.max_restarts = n;
        self
    }

    /// Sets how many contained failures on one pool justify replacing it.
    pub fn failure_threshold(mut self, n: u64) -> SupervisorConfig {
        self.failure_threshold = n.max(1);
        self
    }
}

/// The watcher thread's state. Built by the server from
/// [`crate::ServerBuilder::supervise`]; not constructed directly.
pub struct Supervisor {
    shared: Arc<ServerShared>,
    config: SupervisorConfig,
    factory: PoolFactory,
}

impl Supervisor {
    pub(crate) fn spawn(
        shared: Arc<ServerShared>,
        config: SupervisorConfig,
        factory: PoolFactory,
    ) -> JoinHandle<()> {
        // Failures already on the books when this pool took over; the
        // threshold is judged against the delta, not the lifetime total.
        // Read here, on the building thread: the watcher thread may first
        // be scheduled only after requests have already failed, and a
        // baseline taken then would swallow them.
        let failed_base = shared.failed.load(Ordering::SeqCst);
        let sup = Supervisor {
            shared,
            config,
            factory,
        };
        thread::Builder::new()
            .name("afs-serve-supervise".into())
            .spawn(move || sup.run(failed_base))
            .expect("spawn supervisor")
    }

    fn run(self, mut failed_base: u64) {
        let mut restarts = 0u32;
        let mut backoff = self.config.initial_backoff;
        loop {
            if sleep_watching_shutdown(&self.shared, self.config.interval) {
                return;
            }
            if restarts >= self.config.max_restarts {
                // Budget spent: stand down (the thread exits; the flag
                // that matters — supervisor_restarts — is on the ledger).
                return;
            }
            let pool = self.shared.pool();
            let snap = pool.metrics().snapshot();
            let failed_now = self.shared.failed.load(Ordering::SeqCst);
            let cause = if snap.effective_workers < snap.workers.len() {
                Some(Trigger::SpawnDegraded {
                    live: snap.effective_workers,
                    requested: snap.workers.len(),
                })
            } else if snap.stalls_detected > 0 {
                // Blame the worker the watchdog charged the most; ties go
                // to the lowest index, which is stable across polls.
                let worker = snap
                    .workers
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, w)| w.stalls)
                    .map_or(0, |(i, _)| i);
                Some(Trigger::Stall { worker })
            } else if failed_now.saturating_sub(failed_base) >= self.config.failure_threshold {
                // The per-request slots carry (worker, phase); the trigger
                // only needs "repeated phase errors", so attribute the
                // aggregate to the dump header with zeros.
                Some(Trigger::PhaseError {
                    worker: 0,
                    phase: 0,
                })
            } else {
                None
            };
            let Some(cause) = cause else { continue };
            // Forensics first: arm and flush the wounded pool's black box
            // so the dump reflects the state that earned the restart.
            pool.recorder().trigger(cause);
            let _ = pool.recorder().flush();
            let replacement = (self.factory)(restarts);
            // Judge against the *requested* worker count (the registry's
            // size), not `pool.workers()`: a spawn-degraded pool reports
            // only its live workers, and the whole point of replacing it
            // is to restore the requested capacity.
            assert_eq!(
                replacement.workers(),
                snap.workers.len(),
                "replacement pool must restore the requested worker count \
                 (trace lanes and batch plans are sized to it)"
            );
            {
                let mut slot = self.shared.pool.write().unwrap_or_else(|e| e.into_inner());
                *slot = replacement;
            }
            drop(pool);
            self.shared
                .supervisor_restarts
                .fetch_add(1, Ordering::SeqCst);
            restarts += 1;
            failed_base = self.shared.failed.load(Ordering::SeqCst);
            if sleep_watching_shutdown(&self.shared, backoff) {
                return;
            }
            backoff = backoff.saturating_mul(2);
        }
    }
}

/// Sleeps `total` in small slices, returning `true` early the moment the
/// server's shutdown flag goes up (so shutdown never waits out a backoff).
fn sleep_watching_shutdown(shared: &ServerShared, total: Duration) -> bool {
    let slice = Duration::from_millis(1);
    let mut left = total;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return true;
        }
        if left.is_zero() {
            return false;
        }
        let nap = left.min(slice);
        thread::sleep(nap);
        left = left.saturating_sub(nap);
    }
}
