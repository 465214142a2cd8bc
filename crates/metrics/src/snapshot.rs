//! Plain-value aggregates and exporters.
//!
//! A [`MetricsSnapshot`] is what leaves the runtime: per-worker counter and
//! perf readings, the shared duration histograms, and derived quantities —
//! chiefly the **affinity hit ratio**, the fraction of queue grabs a worker
//! served from its own queue. Under AFS that ratio is the paper's locality
//! claim in one number: 1.0 means every chunk ran where its data lives,
//! anything lower is migration pressure the steal path paid for.
//!
//! Two export formats, both dependency-free:
//! * [`MetricsSnapshot::to_json`] — a versioned document for files and the
//!   bench tooling;
//! * [`MetricsSnapshot::to_prometheus`] — text exposition format, ready to
//!   drop behind any scrape endpoint.

use crate::controllers::ControllersSnapshot;
use crate::counters::CounterSnapshot;
use crate::histogram::{HistogramSnapshot, BUCKETS};
use crate::host::escape;
use crate::perf::PerfSample;
use crate::registry::PerfStatus;
use crate::serve::ServeSnapshot;

/// Schema version stamped into every JSON document this workspace emits —
/// the metrics export, the bench result files, flight-recorder dumps, and
/// the telemetry endpoint's JSON routes. This constant is the **single
/// source of truth**: bench writers and `afs-scope` re-export it rather
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
pub const METRICS_SCHEMA_VERSION: u64 = 8;

/// One worker's slice of a snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// The software event counters.
    pub counters: CounterSnapshot,
    /// Hardware readings, when a perf group is open for this worker.
    pub perf: Option<PerfSample>,
    /// Core-pin outcome: `None` when pinning was never attempted,
    /// otherwise whether `sched_setaffinity` succeeded for this worker.
    pub pinned: Option<bool>,
    /// The core this worker is pinned to (`None` when unpinned).
    pub pinned_core: Option<usize>,
    /// The NUMA node the pinned core belongs to (`None` when unpinned).
    pub numa_node: Option<usize>,
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
    /// Hardware event availability at snapshot time.
    pub perf_status: PerfStatus,
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
            perf_status: PerfStatus::Disabled,
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

    /// Sum of all workers' hardware readings.
    pub fn perf_totals(&self) -> PerfSample {
        let mut total = PerfSample::default();
        for w in &self.workers {
            if let Some(p) = &w.perf {
                total.add(p);
            }
        }
        total
    }

    /// Fraction of queue grabs served from the worker's own queue:
    /// `local / (local + remote)`. `None` when no queue-based grabs
    /// happened (central-only policies, empty runs) — central and free
    /// grabs are excluded because they carry no locality signal either way.
    pub fn affinity_hit_ratio(&self) -> Option<f64> {
        let t = self.totals();
        let denom = t.local_grabs + t.remote_grabs;
        (denom > 0).then(|| t.local_grabs as f64 / denom as f64)
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
                    perf: match (&w.perf, b.and_then(|b| b.perf.as_ref())) {
                        (Some(cur), Some(old)) => Some(cur.minus(old)),
                        (cur, _) => *cur,
                    },
                    pinned: w.pinned,
                    pinned_core: w.pinned_core,
                    numa_node: w.numa_node,
                    stalls: w.stalls.saturating_sub(b.map(|b| b.stalls).unwrap_or(0)),
                }
            })
            .collect();
        MetricsSnapshot {
            workers,
            phase_ns: self.phase_ns.minus(&base.phase_ns),
            loop_ns: self.loop_ns.minus(&base.loop_ns),
            perf_status: self.perf_status.clone(),
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
            if let Some(p) = &theirs.perf {
                match &mut mine.perf {
                    Some(acc) => acc.add(p),
                    None => mine.perf = Some(*p),
                }
            }
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
            mine.numa_node = mine.numa_node.or(theirs.numa_node);
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
        if other.perf_status == PerfStatus::Active {
            self.perf_status = PerfStatus::Active;
        } else if self.perf_status == PerfStatus::Disabled {
            self.perf_status = other.perf_status.clone();
        }
    }

    /// Serializes to a versioned JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {METRICS_SCHEMA_VERSION},\n"
        ));
        out.push_str(&format!(
            "  \"perf_status\": \"{}\",\n",
            escape(&self.perf_status.label())
        ));
        out.push_str(&format!(
            "  \"stalls_detected\": {},\n",
            self.stalls_detected
        ));
        out.push_str(&format!(
            "  \"deadline_misses\": {},\n",
            self.deadline_misses
        ));
        out.push_str(&format!(
            "  \"effective_workers\": {},\n",
            self.effective_workers
        ));
        match self.affinity_hit_ratio() {
            Some(r) => out.push_str(&format!("  \"affinity_hit_ratio\": {r:.6},\n")),
            None => out.push_str("  \"affinity_hit_ratio\": null,\n"),
        }
        let t = self.totals();
        out.push_str("  \"totals\": ");
        out.push_str(&counters_json(&t));
        out.push_str(",\n");
        let pt = self.perf_totals();
        out.push_str("  \"perf_totals\": ");
        out.push_str(&perf_json(&pt));
        out.push_str(",\n");
        out.push_str("  \"workers\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            let opt_usize = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "    {{\"worker\": {i}, \"pinned\": {}, \"pinned_core\": {}, \
                 \"numa_node\": {}, \"stalls\": {}, \
                 \"counters\": {}, \"perf\": {}}}{}\n",
                match w.pinned {
                    Some(b) => b.to_string(),
                    None => "null".to_string(),
                },
                opt_usize(w.pinned_core),
                opt_usize(w.numa_node),
                w.stalls,
                counters_json(&w.counters),
                match &w.perf {
                    Some(p) => perf_json(p),
                    None => "null".to_string(),
                },
                if i + 1 < self.workers.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"serve\": ");
        match &self.serve {
            Some(s) => out.push_str(&s.to_json()),
            None => out.push_str("null"),
        }
        out.push_str(",\n");
        out.push_str("  \"controllers\": ");
        match &self.controllers {
            Some(c) => out.push_str(&c.to_json()),
            None => out.push_str("null"),
        }
        out.push_str(",\n");
        out.push_str("  \"phase_ns\": ");
        out.push_str(&hist_json(&self.phase_ns));
        out.push_str(",\n");
        out.push_str("  \"loop_ns\": ");
        out.push_str(&hist_json(&self.loop_ns));
        out.push_str("\n}\n");
        out
    }

    /// Serializes to Prometheus text exposition format. Counter samples are
    /// labelled by worker (and kind/outcome where applicable); histograms
    /// use cumulative `le` buckets at powers of two.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);

        out.push_str("# HELP afs_grabs_total Work grabs by worker and access kind.\n");
        out.push_str("# TYPE afs_grabs_total counter\n");
        for (w, ws) in self.workers.iter().enumerate() {
            let c = &ws.counters;
            for (kind, v) in [
                ("local", c.local_grabs),
                ("remote", c.remote_grabs),
                ("central", c.central_grabs),
                ("free", c.free_grabs),
            ] {
                out.push_str(&format!(
                    "afs_grabs_total{{worker=\"{w}\",kind=\"{kind}\"}} {v}\n"
                ));
            }
        }

        for (name, help, get) in [
            (
                "afs_iters_total",
                "Loop iterations executed.",
                (|c: &CounterSnapshot| c.iters) as fn(&CounterSnapshot) -> u64,
            ),
            (
                "afs_cas_retries_total",
                "Contended CAS retries on queue words.",
                |c| c.cas_retries,
            ),
            (
                "afs_stash_hits_total",
                "Grabs served from the grab-ahead stash.",
                |c| c.stash_hits,
            ),
            (
                "afs_barrier_turns_total",
                "Barrier arrivals as last worker (ran the turn).",
                |c| c.barrier_turns,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for (w, ws) in self.workers.iter().enumerate() {
                out.push_str(&format!("{name}{{worker=\"{w}\"}} {}\n", get(&ws.counters)));
            }
        }

        out.push_str("# HELP afs_barrier_waits_total Barrier waits by resolution outcome.\n");
        out.push_str("# TYPE afs_barrier_waits_total counter\n");
        for (w, ws) in self.workers.iter().enumerate() {
            let c = &ws.counters;
            for (outcome, v) in [
                ("spin", c.barrier_spin),
                ("yield", c.barrier_yield),
                ("park", c.barrier_park),
            ] {
                out.push_str(&format!(
                    "afs_barrier_waits_total{{worker=\"{w}\",outcome=\"{outcome}\"}} {v}\n"
                ));
            }
        }

        for (name, help, get) in [
            (
                "afs_perf_llc_misses_total",
                "Last-level-cache read misses (hardware).",
                (|p: &PerfSample| p.llc_misses) as fn(&PerfSample) -> Option<u64>,
            ),
            (
                "afs_perf_dtlb_misses_total",
                "Data-TLB read misses (hardware).",
                |p| p.dtlb_misses,
            ),
            (
                "afs_perf_cpu_migrations_total",
                "OS migrations of the worker thread.",
                |p| p.cpu_migrations,
            ),
        ] {
            let any = self
                .workers
                .iter()
                .any(|w| w.perf.as_ref().and_then(&get).is_some());
            if !any {
                continue;
            }
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for (w, ws) in self.workers.iter().enumerate() {
                if let Some(v) = ws.perf.as_ref().and_then(&get) {
                    out.push_str(&format!("{name}{{worker=\"{w}\"}} {v}\n"));
                }
            }
        }

        out.push_str("# HELP afs_heartbeats_total Liveness heartbeats recorded by workers.\n");
        out.push_str("# TYPE afs_heartbeats_total counter\n");
        for (w, ws) in self.workers.iter().enumerate() {
            out.push_str(&format!(
                "afs_heartbeats_total{{worker=\"{w}\"}} {}\n",
                ws.counters.heartbeats
            ));
        }

        out.push_str("# HELP afs_stalls_detected_total Worker stalls flagged by the watchdog.\n");
        out.push_str("# TYPE afs_stalls_detected_total counter\n");
        out.push_str(&format!(
            "afs_stalls_detected_total {}\n",
            self.stalls_detected
        ));

        out.push_str("# HELP afs_worker_stalls_total Stalls attributed to each worker.\n");
        out.push_str("# TYPE afs_worker_stalls_total counter\n");
        for (w, ws) in self.workers.iter().enumerate() {
            out.push_str(&format!(
                "afs_worker_stalls_total{{worker=\"{w}\"}} {}\n",
                ws.stalls
            ));
        }

        out.push_str("# HELP afs_deadline_misses_total Phases that overran their deadline.\n");
        out.push_str("# TYPE afs_deadline_misses_total counter\n");
        out.push_str(&format!(
            "afs_deadline_misses_total {}\n",
            self.deadline_misses
        ));

        if self.workers.iter().any(|w| w.pinned.is_some()) {
            out.push_str("# HELP afs_worker_pinned Whether the worker's core pin succeeded.\n");
            out.push_str("# TYPE afs_worker_pinned gauge\n");
            for (w, ws) in self.workers.iter().enumerate() {
                if let Some(p) = ws.pinned {
                    out.push_str(&format!(
                        "afs_worker_pinned{{worker=\"{w}\"}} {}\n",
                        u8::from(p)
                    ));
                }
            }
        }

        if self.workers.iter().any(|w| w.numa_node.is_some()) {
            out.push_str("# HELP afs_worker_node NUMA node of the worker's pinned core.\n");
            out.push_str("# TYPE afs_worker_node gauge\n");
            for (w, ws) in self.workers.iter().enumerate() {
                if let Some(n) = ws.numa_node {
                    out.push_str(&format!("afs_worker_node{{worker=\"{w}\"}} {n}\n"));
                }
            }
        }

        out.push_str("# HELP afs_effective_workers Workers that actually started.\n");
        out.push_str("# TYPE afs_effective_workers gauge\n");
        out.push_str(&format!(
            "afs_effective_workers {}\n",
            self.effective_workers
        ));

        out.push_str(
            "# HELP afs_affinity_hit_ratio Fraction of queue grabs served locally.\n\
             # TYPE afs_affinity_hit_ratio gauge\n",
        );
        match self.affinity_hit_ratio() {
            Some(r) => out.push_str(&format!("afs_affinity_hit_ratio {r:.6}\n")),
            None => out.push_str("afs_affinity_hit_ratio NaN\n"),
        }

        for (name, help, h) in [
            (
                "afs_phase_duration_ns",
                "Barrier-to-barrier phase durations.",
                &self.phase_ns,
            ),
            (
                "afs_loop_duration_ns",
                "Parallel-region makespans.",
                &self.loop_ns,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                cum += c;
                // Bucket i holds [2^i, 2^(i+1)), so its upper bound is
                // 2^(i+1); skip empty leading buckets to keep output short.
                if c > 0 || i + 1 == BUCKETS {
                    out.push_str(&format!(
                        "{name}_bucket{{le=\"{}\"}} {cum}\n",
                        1u128 << (i + 1)
                    ));
                }
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.samples));
            out.push_str(&format!("{name}_sum {}\n", h.total_ns));
            out.push_str(&format!("{name}_count {}\n", h.samples));
        }

        if let Some(serve) = &self.serve {
            out.push_str(&serve.to_prometheus());
        }

        if let Some(controllers) = &self.controllers {
            out.push_str(&controllers.to_prometheus());
        }

        out
    }
}

fn counters_json(c: &CounterSnapshot) -> String {
    format!(
        "{{\"local_grabs\": {}, \"remote_grabs\": {}, \"central_grabs\": {}, \
         \"free_grabs\": {}, \"iters\": {}, \"cas_retries\": {}, \"stash_hits\": {}, \
         \"barrier_arrives\": {}, \"barrier_spin\": {}, \"barrier_yield\": {}, \
         \"barrier_park\": {}, \"barrier_turns\": {}, \"heartbeats\": {}}}",
        c.local_grabs,
        c.remote_grabs,
        c.central_grabs,
        c.free_grabs,
        c.iters,
        c.cas_retries,
        c.stash_hits,
        c.barrier_arrives,
        c.barrier_spin,
        c.barrier_yield,
        c.barrier_park,
        c.barrier_turns,
        c.heartbeats
    )
}

fn perf_json(p: &PerfSample) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    format!(
        "{{\"llc_misses\": {}, \"dtlb_misses\": {}, \"cpu_migrations\": {}}}",
        opt(p.llc_misses),
        opt(p.dtlb_misses),
        opt(p.cpu_migrations)
    )
}

fn hist_json(h: &HistogramSnapshot) -> String {
    let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
    format!(
        "{{\"samples\": {}, \"total_ns\": {}, \"max_ns\": {}, \"mean_ns\": {:.3}, \"counts\": [{}]}}",
        h.samples,
        h.total_ns,
        h.max_ns,
        h.mean_ns(),
        counts.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::empty(2);
        s.workers[0].counters.local_grabs = 30;
        s.workers[0].counters.remote_grabs = 10;
        s.workers[0].counters.iters = 400;
        s.workers[0].perf = Some(PerfSample {
            llc_misses: Some(1234),
            dtlb_misses: None,
            cpu_migrations: Some(0),
        });
        s.workers[1].counters.local_grabs = 50;
        s.workers[1].counters.barrier_arrives = 4;
        s.workers[1].counters.barrier_spin = 3;
        s.workers[1].counters.barrier_turns = 1;
        s.phase_ns.counts[10] = 2;
        s.phase_ns.samples = 2;
        s.phase_ns.total_ns = 3000;
        s.phase_ns.max_ns = 2000;
        s.perf_status = PerfStatus::Active;
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
        let j = s.to_json();
        assert!(j.contains(&format!("\"schema_version\": {METRICS_SCHEMA_VERSION}")));
        assert!(j.contains("\"serve\": null"));
        assert!(j.contains("\"controllers\": null"));
        assert!(j.contains("\"stalls\": 0"));
        assert!(j.contains("\"pinned_core\": null"));
        assert!(j.contains("\"numa_node\": null"));
        assert!(j.contains("\"affinity_hit_ratio\": 0.888889"));
        assert!(j.contains("\"perf_status\": \"active\""));
        assert!(j.contains("\"llc_misses\": 1234"));
        assert!(j.contains("\"dtlb_misses\": null"));
        assert!(j.contains("\"stalls_detected\": 0"));
        assert!(j.contains("\"deadline_misses\": 0"));
        assert!(j.contains("\"effective_workers\": 2"));
        assert!(j.contains("\"pinned\": null"));
        assert!(j.contains("\"heartbeats\": 0"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn prometheus_export_has_expected_families() {
        let s = sample_snapshot();
        let p = s.to_prometheus();
        assert!(p.contains("afs_grabs_total{worker=\"0\",kind=\"local\"} 30"));
        assert!(p.contains("afs_grabs_total{worker=\"1\",kind=\"local\"} 50"));
        assert!(p.contains("afs_barrier_waits_total{worker=\"1\",outcome=\"spin\"} 3"));
        assert!(p.contains("afs_perf_llc_misses_total{worker=\"0\"} 1234"));
        assert!(
            !p.contains("afs_perf_dtlb_misses_total"),
            "all-None family omitted"
        );
        assert!(p.contains("afs_affinity_hit_ratio 0.888889"));
        assert!(p.contains("afs_phase_duration_ns_bucket{le=\"2048\"} 2"));
        assert!(p.contains("afs_phase_duration_ns_bucket{le=\"+Inf\"} 2"));
        assert!(p.contains("afs_phase_duration_ns_sum 3000"));
        assert!(p.contains("afs_phase_duration_ns_count 2"));
        assert!(p.contains("afs_stalls_detected_total 0"));
        assert!(p.contains("afs_worker_stalls_total{worker=\"0\"} 0"));
        assert!(p.contains("afs_deadline_misses_total 0"));
        assert!(p.contains("afs_effective_workers 2"));
        assert!(
            !p.contains("afs_serve_requests_total"),
            "serve families omitted for plain runs"
        );
        assert!(
            !p.contains("afs_worker_pinned"),
            "pin family omitted when pinning never attempted"
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
        let j = s.to_json();
        assert!(j.contains("\"serve\": {\"discipline\": \"batch\""));
        assert!(j.contains("\"name\": \"small\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let p = s.to_prometheus();
        assert!(p.contains("afs_serve_requests_total{tenant=\"small\",outcome=\"admitted\"} 10"));
        assert!(p.contains("afs_serve_shed_total{reason=\"queue_full\"} 1"));
        assert!(p.contains("afs_serve_dispatches_total 3"));
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
        let j = s.to_json();
        assert!(j.contains("\"controllers\": {\"sched\": {\"k\": 8, \"b\": 2"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let p = s.to_prometheus();
        assert!(p.contains("afs_sched_tune_k 8"));
        assert!(p.contains("afs_sched_tune_settled 1"));
        // Merging keeps the newest controller opinion.
        let mut m = MetricsSnapshot::empty(2);
        m.merge(&s);
        assert_eq!(m.controllers.unwrap().sched.unwrap().decisions, 5);
        // The plain snapshot omits the families entirely.
        let plain = MetricsSnapshot::empty(1).to_prometheus();
        assert!(!plain.contains("afs_sched_tune_k"));
    }

    #[test]
    fn pin_status_round_trips_through_exports() {
        let mut s = sample_snapshot();
        s.workers[0].pinned = Some(true);
        s.workers[0].pinned_core = Some(3);
        s.workers[0].numa_node = Some(1);
        s.workers[1].pinned = Some(false);
        s.workers[1].stalls = 2;
        s.stalls_detected = 3;
        s.deadline_misses = 1;
        s.effective_workers = 1;
        let j = s.to_json();
        assert!(j.contains("\"worker\": 0, \"pinned\": true, \"pinned_core\": 3, \"numa_node\": 1"));
        assert!(j.contains("\"worker\": 1, \"pinned\": false, \"pinned_core\": null"));
        assert!(j.contains("\"stalls_detected\": 3"));
        let p = s.to_prometheus();
        assert!(p.contains("afs_worker_pinned{worker=\"0\"} 1"));
        assert!(p.contains("afs_worker_pinned{worker=\"1\"} 0"));
        assert!(p.contains("afs_worker_node{worker=\"0\"} 1"));
        assert!(!p.contains("afs_worker_node{worker=\"1\"}"));
        assert!(p.contains("afs_stalls_detected_total 3"));
        assert!(p.contains("afs_worker_stalls_total{worker=\"1\"} 2"));
        assert!(p.contains("afs_deadline_misses_total 1"));
        assert!(p.contains("afs_effective_workers 1"));
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
        let j = s.to_json();
        assert!(j.contains("\"affinity_hit_ratio\": null"));
        let p = s.to_prometheus();
        assert!(p.contains("afs_affinity_hit_ratio NaN"));
        assert!(p.contains("afs_loop_duration_ns_count 0"));
    }
}
