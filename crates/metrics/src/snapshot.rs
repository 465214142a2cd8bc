//! Plain-value aggregates and exporters.
//!
//! A [`MetricsSnapshot`] is what leaves the runtime: per-worker counter
//! readings and placement, the shared duration histograms, and derived quantities —
//! chiefly the **affinity hit ratio**, the fraction of queue grabs a worker
//! served from its own queue. Under AFS that ratio is the paper's locality
//! claim in one number: 1.0 means every chunk ran where its data lives,
//! anything lower is migration pressure the steal path paid for.
//!
//! One export format: [`MetricsSnapshot::to_json`], a versioned document
//! read by the files, the bench tooling and the telemetry endpoint alike.

use crate::controllers::ControllersSnapshot;
use crate::counters::CounterSnapshot;
use crate::histogram::HistogramSnapshot;
use crate::serve::ServeSnapshot;
use afs_core::json::{self, Fields, Obj};

/// Schema version stamped into every JSON document this workspace emits —
/// the metrics export, the bench result files, flight-recorder dumps, and
/// the telemetry endpoint's JSON routes. This constant is the **single
/// source of truth**: bench writers and the flight recorder use it rather
/// than keeping their own numbers, so a schema bump happens in exactly one
/// place.
///
/// Version 2 added the fault / robustness fields: per-worker `pinned` and
/// `heartbeats`, and the registry-level `stalls_detected`,
/// `deadline_misses` and `effective_workers`. Version 3 added per-worker
/// `stalls` attribution and the optional `serve` block (per-tenant request
/// accounting and latency quantiles from the serving frontend). Version 4
/// added per-worker placement (`pinned_core`, `numa_node`). Version 5 added
/// the optional `controllers` block (adaptive scheduling controller
/// state). Version 6 is the live-observability release: one
/// shared constant across all writers, flight-recorder dump documents, and
/// the `/snapshot.json` / `/healthz` / `/tune` telemetry routes. Version 7
/// is the robustness release: serve outcome accounting (`timed_out`,
/// `failed`, `expired`), the deadline/SLO shed reasons
/// (`deadline_hopeless`, `slo_budget`), and `supervisor_restarts`.
/// Version 8 removed what only the deleted rendezvous twins wrote: the
/// futex syscall counters, the `controllers.spin` block, the flight
/// recorder's `spin_budget`, and the kernels bench's `barrier` axis.
/// Version 9 removed the hardware perf-event fields (`perf_status`,
/// `perf_totals`, per-worker `perf`). Version 10 removed the signals no
/// test, gate or document read: per-worker `numa_node`, the tenants'
/// `mean_ns`, `/healthz`'s `schema_version`, `effective_workers`,
/// `deadline_misses`, `recorders` and `dumped`, `/tune`'s
/// `schema_version`, and the flight dump's `kind` and `phases_recorded`;
/// it added the serve block's `inline_dispatches`, `dispatcher_parks`,
/// `dispatcher_wakes`, `batch_parks` and `turn_retires`.
pub const METRICS_SCHEMA_VERSION: u64 = 10;

/// One worker's slice of a snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// The software event counters.
    pub counters: CounterSnapshot,
    /// Core-pin outcome: `None` when pinning was never attempted,
    /// otherwise whether `sched_setaffinity` succeeded for this worker.
    pub pinned: Option<bool>,
    /// The core this worker is pinned to (`None` when unpinned).
    pub pinned_core: Option<usize>,
    /// Stall observations the watchdog attributed to this worker.
    pub stalls: u64,
}

/// A point-in-time aggregate of a [`crate::MetricsRegistry`].
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-worker readings, indexed by worker id.
    pub workers: Vec<WorkerSnapshot>,
    /// Phase (barrier-to-barrier) duration histogram.
    pub phase_ns: HistogramSnapshot,
    /// Parallel-region makespan histogram.
    pub loop_ns: HistogramSnapshot,
    /// Stalls flagged by the watchdog (heartbeat frozen while not waiting).
    pub stalls_detected: u64,
    /// Phases that overran the configured per-phase deadline.
    pub deadline_misses: u64,
    /// Workers that actually started (< `workers.len()` only when the pool
    /// degraded because thread spawning failed).
    pub effective_workers: usize,
    /// Serving-frontend accounting, when a `LoopServer` owns the pool.
    /// `None` for plain (non-served) runs.
    pub serve: Option<ServeSnapshot>,
    /// Self-tuning controller state (adaptive scheduling, adaptive spin),
    /// when at least one controller has reported to the registry. `None`
    /// for fully static runs.
    pub controllers: Option<ControllersSnapshot>,
}

impl MetricsSnapshot {
    /// An all-zero snapshot for `p` workers.
    pub fn empty(p: usize) -> MetricsSnapshot {
        MetricsSnapshot {
            workers: vec![WorkerSnapshot::default(); p],
            phase_ns: HistogramSnapshot::default(),
            loop_ns: HistogramSnapshot::default(),
            stalls_detected: 0,
            deadline_misses: 0,
            effective_workers: p,
            serve: None,
            controllers: None,
        }
    }

    /// Sum of all workers' counters.
    pub fn totals(&self) -> CounterSnapshot {
        let mut total = CounterSnapshot::default();
        for w in &self.workers {
            total.add(&w.counters);
        }
        total
    }

    /// Fraction of queue grabs served from the worker's own queue:
    /// `local / (local + remote)`. `None` when no queue-based grabs
    /// happened (central-only policies, empty runs) — central and free
    /// grabs are excluded because they carry no locality signal either way.
    pub fn affinity_hit_ratio(&self) -> Option<f64> {
        self.totals().sync().affinity_hit_ratio()
    }

    /// `self − base` per worker and histogram: the activity that happened
    /// *after* `base` was taken from the same registry. Worker count
    /// follows `self`; extra workers in `base` are ignored.
    pub fn delta_since(&self, base: &MetricsSnapshot) -> MetricsSnapshot {
        let workers = self
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let b = base.workers.get(i);
                WorkerSnapshot {
                    counters: match b {
                        Some(b) => w.counters.minus(&b.counters),
                        None => w.counters,
                    },
                    pinned: w.pinned,
                    pinned_core: w.pinned_core,
                    stalls: w.stalls.saturating_sub(b.map(|b| b.stalls).unwrap_or(0)),
                }
            })
            .collect();
        MetricsSnapshot {
            workers,
            phase_ns: self.phase_ns.minus(&base.phase_ns),
            loop_ns: self.loop_ns.minus(&base.loop_ns),
            stalls_detected: self.stalls_detected.saturating_sub(base.stalls_detected),
            deadline_misses: self.deadline_misses.saturating_sub(base.deadline_misses),
            effective_workers: self.effective_workers,
            // Serve ledgers are attached per measurement window by the
            // server, not accumulated in the registry; keep the current one.
            serve: self.serve.clone(),
            // Controller state is instantaneous: the latest opinion *is*
            // the delta-window state.
            controllers: self.controllers,
        }
    }

    /// Merges `other` into `self` worker by worker (growing if `other` has
    /// more workers), for combining snapshots from several pools.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        if other.workers.len() > self.workers.len() {
            self.workers
                .resize(other.workers.len(), WorkerSnapshot::default());
        }
        for (mine, theirs) in self.workers.iter_mut().zip(&other.workers) {
            mine.counters.add(&theirs.counters);
            // A worker is pinned only if every merged snapshot that has an
            // opinion says so.
            mine.pinned = match (mine.pinned, theirs.pinned) {
                (Some(a), Some(b)) => Some(a && b),
                (None, b) => b,
                (a, None) => a,
            };
            // Placement: keep ours unless we have none (merging pools on
            // different cores has no single right answer; first one wins).
            mine.pinned_core = mine.pinned_core.or(theirs.pinned_core);
            mine.stalls += theirs.stalls;
        }
        self.phase_ns.add(&other.phase_ns);
        self.loop_ns.add(&other.loop_ns);
        self.stalls_detected += other.stalls_detected;
        self.deadline_misses += other.deadline_misses;
        self.effective_workers = self.effective_workers.min(other.effective_workers);
        if let Some(theirs) = &other.serve {
            match &mut self.serve {
                Some(mine) => mine.merge(theirs),
                None => self.serve = Some(theirs.clone()),
            }
        }
        if let Some(theirs) = &other.controllers {
            match &mut self.controllers {
                Some(mine) => mine.merge(theirs),
                None => self.controllers = Some(*theirs),
            }
        }
    }

    /// Serializes to a versioned JSON document.
    pub fn to_json(&self) -> String {
        json::document(|o| {
            o.field("schema_version", &METRICS_SCHEMA_VERSION)
                .field("stalls_detected", &self.stalls_detected)
                .field("deadline_misses", &self.deadline_misses)
                .field("effective_workers", &self.effective_workers)
                .field("affinity_hit_ratio", &self.affinity_hit_ratio())
                .field("totals", &self.totals())
                .array("workers", |a| {
                    for (i, w) in self.workers.iter().enumerate() {
                        a.object(|o| {
                            o.field("worker", &i)
                                .field("pinned", &w.pinned)
                                .field("pinned_core", &w.pinned_core)
                                .field("stalls", &w.stalls)
                                .field("counters", &w.counters);
                        });
                    }
                })
                .field("serve", &self.serve)
                .field("controllers", &self.controllers)
                .field("phase_ns", &self.phase_ns)
                .field("loop_ns", &self.loop_ns);
        })
    }
}

json::fields!(CounterSnapshot: local_grabs, remote_grabs, central_grabs, free_grabs, iters,
    cas_retries, stash_hits, barrier_arrives, barrier_spin, barrier_yield, barrier_park,
    barrier_turns, heartbeats);

impl Fields for HistogramSnapshot {
    fn fields(&self, o: &mut Obj<'_>) {
        o.field("samples", &self.samples)
            .field("total_ns", &self.total_ns)
            .field("max_ns", &self.max_ns)
            .field("mean_ns", &self.mean_ns())
            .field("counts", &self.counts[..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_core::json::Value;

    fn num(v: &Value, key: &str) -> Option<f64> {
        v.get(key).and_then(Value::as_f64)
    }

    fn worker(v: &Value, i: usize) -> &Value {
        &v.get("workers").and_then(Value::as_array).unwrap()[i]
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::empty(2);
        s.workers[0].counters.local_grabs = 30;
        s.workers[0].counters.remote_grabs = 10;
        s.workers[0].counters.iters = 400;
        s.workers[1].counters.local_grabs = 50;
        s.workers[1].counters.barrier_arrives = 4;
        s.workers[1].counters.barrier_spin = 3;
        s.workers[1].counters.barrier_turns = 1;
        s.phase_ns.counts[10] = 2;
        s.phase_ns.samples = 2;
        s.phase_ns.total_ns = 3000;
        s.phase_ns.max_ns = 2000;
        s
    }

    #[test]
    fn affinity_hit_ratio_uses_queue_grabs_only() {
        let s = sample_snapshot();
        // 80 local, 10 remote → 8/9.
        let r = s.affinity_hit_ratio().unwrap();
        assert!((r - 80.0 / 90.0).abs() < 1e-12);

        let mut central_only = MetricsSnapshot::empty(1);
        central_only.workers[0].counters.central_grabs = 100;
        assert_eq!(central_only.affinity_hit_ratio(), None);
    }

    #[test]
    fn delta_and_merge_are_consistent() {
        let base = {
            let mut b = MetricsSnapshot::empty(2);
            b.workers[0].counters.local_grabs = 10;
            b
        };
        let s = sample_snapshot();
        let d = s.delta_since(&base);
        assert_eq!(d.workers[0].counters.local_grabs, 20);
        assert_eq!(d.workers[1].counters.local_grabs, 50);
        let mut merged = base.clone();
        merged.merge(&d);
        assert_eq!(merged.totals().local_grabs, s.totals().local_grabs);
        assert_eq!(merged.totals().iters, s.totals().iters);
    }

    #[test]
    fn json_export_is_parseable_shape() {
        let s = sample_snapshot();
        let v = json::parse(&s.to_json()).unwrap();
        assert_eq!(
            num(&v, "schema_version"),
            Some(METRICS_SCHEMA_VERSION as f64)
        );
        assert_eq!(v.get("serve"), Some(&Value::Null));
        assert_eq!(v.get("controllers"), Some(&Value::Null));
        assert_eq!(num(&v, "affinity_hit_ratio"), Some(80.0 / 90.0));
        assert_eq!(num(&v, "stalls_detected"), Some(0.0));
        assert_eq!(num(&v, "deadline_misses"), Some(0.0));
        assert_eq!(num(&v, "effective_workers"), Some(2.0));
        assert_eq!(num(v.get("totals").unwrap(), "local_grabs"), Some(80.0));
        let w0 = worker(&v, 0);
        assert_eq!(num(w0, "stalls"), Some(0.0));
        assert_eq!(w0.get("pinned"), Some(&Value::Null));
        assert_eq!(w0.get("pinned_core"), Some(&Value::Null));
        let c0 = w0.get("counters").unwrap();
        assert_eq!(num(c0, "local_grabs"), Some(30.0));
        assert_eq!(num(c0, "iters"), Some(400.0));
        assert_eq!(num(c0, "heartbeats"), Some(0.0));
        let c1 = worker(&v, 1).get("counters").unwrap();
        assert_eq!(num(c1, "local_grabs"), Some(50.0));
        assert_eq!(num(c1, "barrier_spin"), Some(3.0));
        let phase = v.get("phase_ns").unwrap();
        assert_eq!(num(phase, "samples"), Some(2.0));
        assert_eq!(num(phase, "total_ns"), Some(3000.0));
        assert_eq!(num(phase, "mean_ns"), Some(1500.0));
        assert_eq!(
            phase.get("counts").and_then(Value::as_array).unwrap()[10].as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn serve_block_round_trips_through_exports() {
        use crate::serve::{ServeSnapshot, TenantServeSnapshot};
        let mut s = sample_snapshot();
        let mut tenant = TenantServeSnapshot::new("small");
        tenant.admitted = 10;
        tenant.completed = 9;
        tenant.shed = 1;
        s.serve = Some(ServeSnapshot {
            discipline: "batch".into(),
            admitted: 10,
            completed: 9,
            shed_queue_full: 1,
            dispatches: 3,
            batched_requests: 6,
            tenants: vec![tenant],
            ..ServeSnapshot::default()
        });
        let v = json::parse(&s.to_json()).unwrap();
        let serve = v.get("serve").unwrap();
        assert_eq!(
            serve.get("discipline").and_then(Value::as_str),
            Some("batch")
        );
        assert_eq!(num(serve.get("shed").unwrap(), "queue_full"), Some(1.0));
        assert_eq!(num(serve, "dispatches"), Some(3.0));
        let tenants = serve.get("tenants").and_then(Value::as_array).unwrap();
        assert_eq!(
            tenants[0].get("name").and_then(Value::as_str),
            Some("small")
        );
        assert_eq!(num(&tenants[0], "admitted"), Some(10.0));
        // Merging two served snapshots merges the ledgers.
        let mut m = MetricsSnapshot::empty(2);
        m.merge(&s);
        m.merge(&s);
        let merged = m.serve.as_ref().unwrap();
        assert_eq!(merged.admitted, 20);
        assert_eq!(merged.tenants.len(), 1);
        assert_eq!(merged.tenants[0].admitted, 20);
    }

    #[test]
    fn controllers_block_round_trips_through_exports() {
        use crate::controllers::{ControllersSnapshot, SchedControllerSnapshot};
        let mut s = sample_snapshot();
        s.controllers = Some(ControllersSnapshot {
            sched: Some(SchedControllerSnapshot {
                k: 8,
                b: 2,
                decisions: 5,
                settled: true,
            }),
        });
        let v = json::parse(&s.to_json()).unwrap();
        let sched = v.get("controllers").and_then(|c| c.get("sched")).unwrap();
        assert_eq!(num(sched, "k"), Some(8.0));
        assert_eq!(num(sched, "b"), Some(2.0));
        assert_eq!(sched.get("settled"), Some(&Value::Bool(true)));
        // Merging keeps the newest controller opinion.
        let mut m = MetricsSnapshot::empty(2);
        m.merge(&s);
        assert_eq!(m.controllers.unwrap().sched.unwrap().decisions, 5);
        // The plain snapshot carries no controller block.
        assert_eq!(MetricsSnapshot::empty(1).controllers, None);
    }

    #[test]
    fn pin_status_round_trips_through_exports() {
        let mut s = sample_snapshot();
        s.workers[0].pinned = Some(true);
        s.workers[0].pinned_core = Some(3);
        s.workers[1].pinned = Some(false);
        s.workers[1].stalls = 2;
        s.stalls_detected = 3;
        s.deadline_misses = 1;
        s.effective_workers = 1;
        let v = json::parse(&s.to_json()).unwrap();
        let (w0, w1) = (worker(&v, 0), worker(&v, 1));
        assert_eq!(num(w0, "worker"), Some(0.0));
        assert_eq!(w0.get("pinned"), Some(&Value::Bool(true)));
        assert_eq!(num(w0, "pinned_core"), Some(3.0));
        assert_eq!(num(w1, "worker"), Some(1.0));
        assert_eq!(w1.get("pinned"), Some(&Value::Bool(false)));
        assert_eq!(w1.get("pinned_core"), Some(&Value::Null));
        assert_eq!(num(w1, "stalls"), Some(2.0));
        assert_eq!(num(&v, "stalls_detected"), Some(3.0));
        assert_eq!(num(&v, "deadline_misses"), Some(1.0));
        assert_eq!(num(&v, "effective_workers"), Some(1.0));
        // Merge keeps the pessimistic view of pinning and effective P.
        let mut m = MetricsSnapshot::empty(2);
        m.merge(&s);
        assert_eq!(m.workers[0].pinned, Some(true));
        assert_eq!(m.workers[1].pinned, Some(false));
        assert_eq!(m.effective_workers, 1);
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let s = MetricsSnapshot::empty(1);
        assert_eq!(s.affinity_hit_ratio(), None);
        let v = json::parse(&s.to_json()).unwrap();
        assert_eq!(v.get("affinity_hit_ratio"), Some(&Value::Null));
        assert_eq!(num(v.get("loop_ns").unwrap(), "samples"), Some(0.0));
    }
}
