//! Serving-layer aggregates: per-tenant request accounting and latency.
//!
//! The serve frontend (crate `afs-serve`) stamps every request at admit,
//! dispatch and complete. Those stamps land here as three histograms per
//! tenant — queueing delay (admit→dispatch), service time
//! (dispatch→complete) and sojourn (admit→complete) — plus the admission
//! ledger: how many requests each tenant offered, how many finished, and
//! how many were shed, broken down by reason. A [`ServeSnapshot`] rides
//! inside [`crate::MetricsSnapshot`] (schema v3) so one document carries
//! both the pool's view (grabs, barriers, stalls) and the server's view
//! (tails, backpressure).

use crate::histogram::HistogramSnapshot;
use afs_core::json::{Fields, Obj};

/// One tenant's slice of the serving ledger.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantServeSnapshot {
    /// Tenant label (stable across snapshots; merge keys on it).
    pub name: String,
    /// Requests accepted into the admission queue.
    pub admitted: u64,
    /// Requests fully executed (complete stamp recorded).
    pub completed: u64,
    /// Requests completed after their deadline (subset of `completed`).
    pub timed_out: u64,
    /// Requests whose body panicked; contained, counted here instead of
    /// `completed`.
    pub failed: u64,
    /// Requests whose deadline elapsed while queued; retired without a
    /// dispatch.
    pub expired: u64,
    /// Requests refused at admission (any reason).
    pub shed: u64,
    /// Loop iterations executed on behalf of this tenant.
    pub iters: u64,
    /// Queueing delay: admit → dispatch.
    pub queue_ns: HistogramSnapshot,
    /// Service time: dispatch → complete.
    pub service_ns: HistogramSnapshot,
    /// Sojourn: admit → complete (the tenant-visible latency).
    pub sojourn_ns: HistogramSnapshot,
}

impl TenantServeSnapshot {
    /// Empty ledger for tenant `name`.
    pub fn new(name: impl Into<String>) -> TenantServeSnapshot {
        TenantServeSnapshot {
            name: name.into(),
            ..TenantServeSnapshot::default()
        }
    }

    /// Median sojourn latency (ns).
    pub fn p50_ns(&self) -> f64 {
        self.sojourn_ns.quantile(0.50)
    }

    /// 99th-percentile sojourn latency (ns).
    pub fn p99_ns(&self) -> f64 {
        self.sojourn_ns.quantile(0.99)
    }

    /// 99.9th-percentile sojourn latency (ns).
    pub fn p999_ns(&self) -> f64 {
        self.sojourn_ns.quantile(0.999)
    }

    /// Adds `other`'s ledger into `self` (same tenant, later window).
    pub fn add(&mut self, other: &TenantServeSnapshot) {
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.timed_out += other.timed_out;
        self.failed += other.failed;
        self.expired += other.expired;
        self.shed += other.shed;
        self.iters += other.iters;
        self.queue_ns.add(&other.queue_ns);
        self.service_ns.add(&other.service_ns);
        self.sojourn_ns.add(&other.sojourn_ns);
    }
}

/// The serving layer's slice of a [`crate::MetricsSnapshot`]: admission
/// and shed totals, dispatch/batching counts, and the per-tenant ledgers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeSnapshot {
    /// Dispatch discipline label (`"fcfs"`, `"drr"`, `"batch"`, or
    /// `"mixed"` after merging across disciplines).
    pub discipline: String,
    /// Requests accepted across all tenants.
    pub admitted: u64,
    /// Requests completed across all tenants.
    pub completed: u64,
    /// Requests completed after deadline (subset of `completed`).
    pub timed_out: u64,
    /// Requests whose body panicked, contained per-request.
    pub failed: u64,
    /// Requests expired in queue (deadline passed before dispatch).
    pub expired: u64,
    /// Sheds because the shared admission queue was full.
    pub shed_queue_full: u64,
    /// Sheds because the tenant exceeded its private backlog cap.
    pub shed_tenant_backlog: u64,
    /// Sheds because the server was shutting down.
    pub shed_shutdown: u64,
    /// Sheds because the sojourn predictor found the request's deadline
    /// unreachable.
    pub shed_deadline_hopeless: u64,
    /// Sheds because the tenant's predicted sojourn overran its SLO
    /// budget.
    pub shed_slo_budget: u64,
    /// Pool rebuilds performed by the supervisor.
    pub supervisor_restarts: u64,
    /// Pool dispatches issued (a batch of fused requests counts once).
    pub dispatches: u64,
    /// The subset of `dispatches` an admit made on its own thread, having
    /// found the dispatcher asleep on an idle server.
    pub inline_dispatches: u64,
    /// Times the dispatcher went to sleep on an empty ring.
    pub dispatcher_parks: u64,
    /// Times an admit (or shutdown) found it asleep and woke it.
    pub dispatcher_wakes: u64,
    /// Times a dispatch's waiter outlasted its yield grace and slept — on
    /// the batch, or on a pool somebody else held.
    pub batch_parks: u64,
    /// Requests retired at a final phase's close (a panicked or `n = 0`
    /// request) rather than by the worker that ran their last iteration.
    pub turn_retires: u64,
    /// Requests that shared a dispatch with at least one other request.
    pub batched_requests: u64,
    /// Per-tenant ledgers.
    pub tenants: Vec<TenantServeSnapshot>,
}

impl ServeSnapshot {
    /// Total requests shed, all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full
            + self.shed_tenant_backlog
            + self.shed_shutdown
            + self.shed_deadline_hopeless
            + self.shed_slo_budget
    }

    /// Fraction of offered requests that were shed (0 when nothing was
    /// offered).
    pub fn shed_rate(&self) -> f64 {
        let offered = self.admitted + self.shed_total();
        if offered == 0 {
            0.0
        } else {
            self.shed_total() as f64 / offered as f64
        }
    }

    /// Merges `other` into `self`, keying tenants by name. Differing
    /// disciplines collapse to `"mixed"`.
    pub fn merge(&mut self, other: &ServeSnapshot) {
        if self.discipline.is_empty() {
            self.discipline = other.discipline.clone();
        } else if self.discipline != other.discipline && !other.discipline.is_empty() {
            self.discipline = "mixed".to_string();
        }
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.timed_out += other.timed_out;
        self.failed += other.failed;
        self.expired += other.expired;
        self.shed_queue_full += other.shed_queue_full;
        self.shed_tenant_backlog += other.shed_tenant_backlog;
        self.shed_shutdown += other.shed_shutdown;
        self.shed_deadline_hopeless += other.shed_deadline_hopeless;
        self.shed_slo_budget += other.shed_slo_budget;
        self.supervisor_restarts += other.supervisor_restarts;
        self.dispatches += other.dispatches;
        self.inline_dispatches += other.inline_dispatches;
        self.dispatcher_parks += other.dispatcher_parks;
        self.dispatcher_wakes += other.dispatcher_wakes;
        self.batch_parks += other.batch_parks;
        self.turn_retires += other.turn_retires;
        self.batched_requests += other.batched_requests;
        for theirs in &other.tenants {
            match self.tenants.iter_mut().find(|t| t.name == theirs.name) {
                Some(mine) => mine.add(theirs),
                None => self.tenants.push(theirs.clone()),
            }
        }
    }
}

impl Fields for ServeSnapshot {
    fn fields(&self, o: &mut Obj<'_>) {
        o.field("discipline", &self.discipline)
            .field("admitted", &self.admitted)
            .field("completed", &self.completed)
            .field("timed_out", &self.timed_out)
            .field("failed", &self.failed)
            .field("expired", &self.expired)
            .object("shed", |o| {
                o.field("queue_full", &self.shed_queue_full)
                    .field("tenant_backlog", &self.shed_tenant_backlog)
                    .field("shutdown", &self.shed_shutdown)
                    .field("deadline_hopeless", &self.shed_deadline_hopeless)
                    .field("slo_budget", &self.shed_slo_budget);
            })
            .field("shed_rate", &self.shed_rate())
            .field("supervisor_restarts", &self.supervisor_restarts)
            .field("dispatches", &self.dispatches)
            .field("inline_dispatches", &self.inline_dispatches)
            .field("dispatcher_parks", &self.dispatcher_parks)
            .field("dispatcher_wakes", &self.dispatcher_wakes)
            .field("batch_parks", &self.batch_parks)
            .field("turn_retires", &self.turn_retires)
            .field("batched_requests", &self.batched_requests)
            .field("tenants", &self.tenants);
    }
}

impl Fields for TenantServeSnapshot {
    fn fields(&self, o: &mut Obj<'_>) {
        o.field("name", &self.name)
            .field("admitted", &self.admitted)
            .field("completed", &self.completed)
            .field("timed_out", &self.timed_out)
            .field("failed", &self.failed)
            .field("expired", &self.expired)
            .field("shed", &self.shed)
            .field("iters", &self.iters)
            .field("queue_p50_ns", &self.queue_ns.quantile(0.50))
            .field("p50_ns", &self.p50_ns())
            .field("p99_ns", &self.p99_ns())
            .field("p999_ns", &self.p999_ns())
            .field("max_ns", &self.sojourn_ns.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::AtomicHistogram;
    use afs_core::json::{self, Value};

    fn num(v: &Value, key: &str) -> Option<f64> {
        v.get(key).and_then(Value::as_f64)
    }

    fn tenant(name: &str, latencies: &[u64]) -> TenantServeSnapshot {
        let h = AtomicHistogram::new();
        for &ns in latencies {
            h.record(ns);
        }
        let mut t = TenantServeSnapshot::new(name);
        t.sojourn_ns = h.get();
        t.admitted = latencies.len() as u64;
        t.completed = latencies.len() as u64;
        t
    }

    #[test]
    fn shed_accounting_sums_reasons() {
        let s = ServeSnapshot {
            discipline: "fcfs".into(),
            admitted: 90,
            shed_queue_full: 5,
            shed_tenant_backlog: 2,
            shed_shutdown: 1,
            shed_deadline_hopeless: 1,
            shed_slo_budget: 1,
            ..ServeSnapshot::default()
        };
        assert_eq!(s.shed_total(), 10);
        assert!((s.shed_rate() - 0.1).abs() < 1e-12);
        assert_eq!(ServeSnapshot::default().shed_rate(), 0.0);
    }

    #[test]
    fn outcome_and_supervisor_families_export() {
        let s = ServeSnapshot {
            discipline: "fcfs".into(),
            admitted: 10,
            completed: 7,
            timed_out: 2,
            failed: 2,
            expired: 1,
            supervisor_restarts: 3,
            shed_deadline_hopeless: 4,
            shed_slo_budget: 5,
            ..ServeSnapshot::default()
        };
        let v = json::parse(&json::document(|o| s.fields(o))).unwrap();
        // The "ok" outcome is completed minus timed out.
        assert_eq!(num(&v, "completed"), Some(7.0));
        assert_eq!(num(&v, "timed_out"), Some(2.0));
        assert_eq!(num(&v, "failed"), Some(2.0));
        assert_eq!(num(&v, "expired"), Some(1.0));
        assert_eq!(num(&v, "supervisor_restarts"), Some(3.0));
        let shed = v.get("shed").unwrap();
        assert_eq!(num(shed, "deadline_hopeless"), Some(4.0));
        assert_eq!(num(shed, "slo_budget"), Some(5.0));
        assert_eq!(num(&v, "shed_rate"), Some(9.0 / 19.0));
    }

    #[test]
    fn merge_keys_tenants_by_name_and_mixes_disciplines() {
        let mut a = ServeSnapshot {
            discipline: "fcfs".into(),
            admitted: 5,
            tenants: vec![tenant("small", &[100, 200])],
            ..ServeSnapshot::default()
        };
        let b = ServeSnapshot {
            discipline: "batch".into(),
            admitted: 3,
            tenants: vec![tenant("small", &[400]), tenant("bulk", &[1000])],
            ..ServeSnapshot::default()
        };
        a.merge(&b);
        assert_eq!(a.discipline, "mixed");
        assert_eq!(a.admitted, 8);
        assert_eq!(a.tenants.len(), 2);
        let small = a.tenants.iter().find(|t| t.name == "small").unwrap();
        assert_eq!(small.sojourn_ns.samples, 3);
    }

    #[test]
    fn quantiles_read_off_the_sojourn_histogram() {
        let t = tenant(
            "t",
            &[100; 99]
                .iter()
                .chain(&[100_000])
                .copied()
                .collect::<Vec<_>>(),
        );
        // p50 sits in the [64,128) bucket; p999 must see the outlier.
        assert!(t.p50_ns() < 128.0, "p50 {}", t.p50_ns());
        assert!(t.p999_ns() > 1_000.0, "p999 {}", t.p999_ns());
        assert!(t.p50_ns() <= t.p99_ns() && t.p99_ns() <= t.p999_ns());
    }

    #[test]
    fn exports_carry_tenant_labels() {
        let s = ServeSnapshot {
            discipline: "drr".into(),
            admitted: 2,
            completed: 2,
            dispatches: 2,
            tenants: vec![tenant("small", &[100, 200])],
            ..ServeSnapshot::default()
        };
        let v = json::parse(&json::document(|o| s.fields(o))).unwrap();
        assert_eq!(v.get("discipline").and_then(Value::as_str), Some("drr"));
        let t = &v.get("tenants").and_then(Value::as_array).unwrap()[0];
        assert_eq!(t.get("name").and_then(Value::as_str), Some("small"));
        assert_eq!(num(t, "p99_ns"), Some(s.tenants[0].p99_ns()));
        assert_eq!(num(t, "max_ns"), Some(200.0));
        assert_eq!(num(t, "completed"), Some(2.0));
        assert_eq!(num(v.get("shed").unwrap(), "queue_full"), Some(0.0));
        assert_eq!(num(t, "p50_ns"), Some(s.tenants[0].p50_ns()));
        assert_eq!(num(t, "queue_p50_ns"), Some(0.0));
    }
}
