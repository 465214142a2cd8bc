//! The stall watchdog: heartbeat-based liveness detection for workers.
//!
//! Each worker bumps its `heartbeats` counter (in `afs_metrics`) on every
//! grab attempt, and sets a `waiting` flag while blocked at the phase
//! barrier. The watchdog samples those counters at a fixed interval from
//! its own thread: a worker whose heartbeat did not advance across a full
//! interval, while a job was running and the worker was *not* waiting at a
//! barrier, is stalled — preempted by the OS, stuck in a lock, or inside a
//! pathologically long iteration. Detection is the whole job: the watchdog
//! bumps `MetricsRegistry::record_stall`, optionally records a
//! `StallDetected` trace event, and never kills anything (the paper's
//! model has no processor revocation; we observe disturbance, we don't
//! add to it).
//!
//! The trace lane: `StallDetected` is recorded on lane `p` (one past the
//! workers'), preserving the per-lane single-writer discipline — the
//! watchdog is the only writer there. Pools whose sink has exactly `p`
//! lanes still count stalls in metrics; they just skip the trace event.

use afs_metrics::trace::{EventKind, TraceSink};
use afs_metrics::{FlightRecorder, MetricsRegistry, Trigger};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Handle to the watchdog thread; stopping joins it.
pub(crate) struct Watchdog {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns the watchdog thread sampling `p` workers of `metrics` every
    /// `interval` while `running` says a job is in flight.
    pub(crate) fn spawn(
        interval: Duration,
        metrics: Arc<MetricsRegistry>,
        running: impl Fn() -> bool + Send + 'static,
        sink: Option<Arc<TraceSink>>,
        p: usize,
        recorder: Arc<FlightRecorder>,
    ) -> Watchdog {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("afs-watchdog".into())
            .spawn(move || {
                watch(
                    interval,
                    &metrics,
                    &running,
                    sink.as_deref(),
                    p,
                    &recorder,
                    &stop2,
                )
            })
            .ok();
        Watchdog { stop, handle }
    }

    /// Signals the watchdog to exit and joins it.
    pub(crate) fn stop(self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().unwrap_or_else(|p| p.into_inner()) = true;
        cv.notify_all();
        if let Some(h) = self.handle {
            let _ = h.join();
        }
    }
}

fn watch(
    interval: Duration,
    metrics: &MetricsRegistry,
    running: &dyn Fn() -> bool,
    sink: Option<&TraceSink>,
    p: usize,
    recorder: &FlightRecorder,
    stop: &(Mutex<bool>, Condvar),
) {
    let (lock, cv) = stop;
    let mut last = vec![0u64; p];
    // Armed only after one full interval of the run has been baselined:
    // a fresh run's frozen-looking counters are not evidence of a stall.
    let mut armed = false;
    let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        let (guard, _) = cv
            .wait_timeout(stopped, interval)
            .unwrap_or_else(|e| e.into_inner());
        stopped = guard;
        if *stopped {
            return;
        }
        if !running() {
            armed = false;
            continue;
        }
        for (w, seen) in last.iter_mut().enumerate().take(p) {
            let hb = metrics.worker(w).heartbeat();
            if armed && hb == *seen && !metrics.worker(w).is_waiting() {
                metrics.record_stall(w);
                // Arm the flight recorder: the dump is written at the next
                // phase boundary (or pool drop), so it contains the record
                // of the phase that stalled — the lead-up, not just the
                // verdict.
                recorder.trigger(Trigger::Stall { worker: w });
                if let Some(sink) = sink {
                    if sink.workers() > p {
                        sink.record(p, EventKind::StallDetected { worker: w as u32 });
                    }
                }
            }
            *seen = hb;
        }
        armed = true;
    }
}
