//! Serving benchmark: the request-driven frontend under load.
//!
//! `repro --bench-serve` drives an [`afs_serve::LoopServer`] over a real
//! pool with a seeded load generator and measures what the serving layer
//! is *for*: throughput and shed rate under admission control, tail
//! latency (p50/p99/p999 sojourn) per discipline, and the affinity hit
//! ratio while requests churn through the pool.
//!
//! The grid is 3 dispatch disciplines × 3 load points:
//!
//! * **open 0.75×** — open-loop arrivals at 75% of calibrated capacity:
//!   the underload point, where queueing delay should be small and
//!   nothing sheds;
//! * **open 1.25×** — open-loop arrivals at 125% of capacity: the
//!   overload point, where backpressure must shed rather than let the
//!   backlog (and the tails) grow without bound;
//! * **saturate** — closed-loop: clients resubmit shed requests until
//!   accepted. This measures each discipline's actual capacity, and the
//!   full run's headline gate reads off it: the batching discipline must
//!   beat per-request centralized FCFS on this small-loop-dominated mix
//!   (`batch_over_fcfs ≥ 1`, recorded as a checked row — validation
//!   fails otherwise, exactly like the Theorem 3.2 gate in the faults
//!   bench). The same full run gates DRR on what it is for: the `small`
//!   tenant's saturate p99 must be below FCFS's, read off the rows.
//!
//! The request mix is seeded and identical across cells: 3/4 small
//! affinity probes (16–128 iterations, one phase), 1/4 bulk compute
//! loops (256–512 iterations, 1–2 phases), across two tenants. Capacity
//! is calibrated per run with a short closed-loop FCFS burst, so the
//! open-loop rates track the host instead of a hardcoded request/s.

use crate::check::{self, write_envelope, BenchKind};
use afs_core::json;
use afs_metrics::{HistogramSnapshot, HostInfo};
use afs_runtime::Pool;
use afs_serve::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool workers for every cell. Small enough to leave cores for the two
/// client threads and the dispatcher on an 8-way host.
pub const P: usize = 4;

/// Client (load-generator) threads per cell.
const CLIENTS: usize = 2;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z
}

/// The seeded request mix: 3/4 small one-phase affinity probes for
/// tenant 0, 1/4 bulk 1–2-phase compute loops for tenant 1.
fn gen_request(state: &mut u64) -> LoopRequest {
    if !splitmix(state).is_multiple_of(4) {
        LoopRequest {
            tenant: 0,
            kernel: ServeKernel::Touch,
            n: 16 + splitmix(state) % 113,
            phases: 1,
            policy: ServePolicy::Afs,
            deadline: None,
        }
    } else {
        LoopRequest {
            tenant: 1,
            kernel: ServeKernel::Spin { work: 2 },
            n: 256 + splitmix(state) % 257,
            phases: 1 + (splitmix(state) % 2) as u32,
            policy: ServePolicy::Afs,
            deadline: None,
        }
    }
}

/// One tenant's slice of a cell.
#[derive(Clone, Debug)]
pub struct TenantRow {
    /// Tenant label.
    pub name: String,
    /// Requests admitted / completed / shed for this tenant.
    pub admitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed.
    pub shed: u64,
    /// Sojourn quantiles, ns.
    pub p50_ns: f64,
    /// 99th percentile sojourn, ns.
    pub p99_ns: f64,
    /// 99.9th percentile sojourn, ns.
    pub p999_ns: f64,
}

/// One measured (discipline, load point) cell.
#[derive(Clone, Debug)]
pub struct ServeSample {
    /// Discipline label (`fcfs` | `drr` | `batch`).
    pub discipline: String,
    /// Load mode: `open` (paced arrivals) or `saturate` (closed loop).
    pub mode: String,
    /// Offered rate as a fraction of calibrated capacity (0 for
    /// `saturate` — the closed loop has no offered rate).
    pub rate_factor: f64,
    /// Requests the generator produced.
    pub offered: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Shed verdicts recorded (under `saturate` this counts retries, so
    /// it may exceed `offered`).
    pub shed: u64,
    /// Shed fraction of admission attempts.
    pub shed_rate: f64,
    /// Wall time of the cell, generation through drain, ns.
    pub wall_ns: u64,
    /// Completed requests per second of wall time.
    pub throughput_rps: f64,
    /// Median queueing delay (admit → dispatch) across tenants, ns.
    pub queue_p50_ns: f64,
    /// Sojourn quantiles across tenants, ns.
    pub p50_ns: f64,
    /// 99th percentile sojourn, ns.
    pub p99_ns: f64,
    /// 99.9th percentile sojourn, ns.
    pub p999_ns: f64,
    /// Pool-level affinity hit ratio during the cell (None when no
    /// queue-based grabs happened).
    pub affinity_hit_ratio: Option<f64>,
    /// Pool dispatches the server issued.
    pub dispatches: u64,
    /// Requests that shared a dispatch with at least one other.
    pub batched_requests: u64,
    /// Per-tenant rows.
    pub tenants: Vec<TenantRow>,
}

/// Everything one `--bench-serve` run measured.
#[derive(Clone, Debug)]
pub struct ServeBenchResult {
    /// Shrunken smoke-test sizes?
    pub quick: bool,
    /// Pool workers per cell.
    pub p: usize,
    /// The machine that produced the numbers.
    pub host: HostInfo,
    /// Calibrated FCFS capacity, requests/s (sets the open-loop rates).
    pub calibrated_rps: f64,
    /// Total completed requests across every cell (full runs must clear
    /// one million).
    pub total_completed: u64,
    /// Saturation throughput of the batching discipline over centralized
    /// FCFS — the headline amortization claim.
    pub batch_over_fcfs: f64,
    /// Whether `batch_over_fcfs ≥ 1` and DRR's small-tenant p99 gate are
    /// enforced (full runs: yes; quick smoke sizes are too noisy to gate).
    pub checked: bool,
    /// All measured cells.
    pub samples: Vec<ServeSample>,
}

impl ServeBenchResult {
    /// Plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve benchmark — request-driven frontend, P={} workers, {} clients{}",
            self.p,
            CLIENTS,
            if self.quick { " (quick)" } else { "" }
        );
        let _ = writeln!(
            out,
            "calibrated FCFS capacity: {:.0} req/s",
            self.calibrated_rps
        );
        let _ = writeln!(
            out,
            "{:<7}{:<10}{:>9}{:>10}{:>10}{:>12}{:>12}{:>12}{:>8}",
            "disc", "mode", "offered", "done", "shed%", "thru r/s", "p50 us", "p99 us", "hit%"
        );
        for s in &self.samples {
            let hit = match s.affinity_hit_ratio {
                Some(r) => format!("{:.0}", r * 100.0),
                None => "-".into(),
            };
            let _ = writeln!(
                out,
                "{:<7}{:<10}{:>9}{:>10}{:>10.1}{:>12.0}{:>12.1}{:>12.1}{:>8}",
                s.discipline,
                s.mode,
                s.offered,
                s.completed,
                s.shed_rate * 100.0,
                s.throughput_rps,
                s.p50_ns / 1_000.0,
                s.p99_ns / 1_000.0,
                hit,
            );
        }
        let _ = writeln!(
            out,
            "total completed: {}  batch/fcfs saturation speedup: {:.2}x{}",
            self.total_completed,
            self.batch_over_fcfs,
            if self.checked { " (checked)" } else { "" }
        );
        // The cells DRR's gate compares, read as the gate reads them.
        let doc = json::parse(&self.to_json()).expect("the bench writes valid JSON");
        let ms = |d| check::small_p99(&doc, d).map_or(f64::NAN, |ns| ns / 1e6);
        let _ = writeln!(
            out,
            "saturate small-tenant p99: drr {:.3} ms vs fcfs {:.3} ms",
            ms("drr"),
            ms("fcfs")
        );
        out
    }

    /// Serializes the result as a JSON document (`BENCH_serve.json`).
    pub fn to_json(&self) -> String {
        json::document(|o| {
            write_envelope(o, BenchKind::Serve, &self.host, self.quick)
                .field("p", &self.p)
                .field("calibrated_rps", &self.calibrated_rps)
                .field("total_completed", &self.total_completed)
                .field("batch_over_fcfs", &self.batch_over_fcfs)
                .field("checked", &self.checked)
                .field(
                    "metric",
                    "per-discipline serving capacity and tails under open-loop and saturating \
                     load; checked runs must show the batching discipline at or above \
                     centralized FCFS saturation throughput (batch_over_fcfs >= 1) and \
                     DRR's small-tenant saturate p99 below FCFS's",
                )
                .field("samples", &self.samples);
        })
    }
}

json::fields!(ServeSample: discipline, mode, rate_factor, offered, completed, shed, shed_rate,
    wall_ns, throughput_rps, queue_p50_ns, p50_ns, p99_ns, p999_ns, affinity_hit_ratio,
    dispatches, batched_requests, tenants);

json::fields!(TenantRow: name, admitted, completed, shed, p50_ns, p99_ns, p999_ns);

/// Builds the per-cell server: two tenants on a fresh `P`-worker pool.
fn build_server(discipline: Discipline) -> LoopServer {
    let pool = Arc::new(Pool::new(P));
    LoopServer::builder(pool)
        .tenant_spec(
            TenantSpec::new("small")
                .backlog_cap(2048)
                .workset_slots(4096),
        )
        .tenant_spec(TenantSpec::new("bulk").backlog_cap(512).workset_slots(8192))
        .discipline(discipline)
        .queue_capacity(4096)
        .build()
}

/// Drives one cell and reduces its ledger to a sample row.
fn run_cell(
    discipline: Discipline,
    mode: &str,
    rate_factor: f64,
    rate_rps: f64,
    offered: u64,
    seed: u64,
) -> ServeSample {
    let server = build_server(discipline);
    let before = server.pool().metrics().snapshot();
    let per_client = offered / CLIENTS as u64;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let server = &server;
            scope.spawn(move || {
                let mut st = seed ^ (0x9E37 * (c as u64 + 1));
                if mode == "saturate" {
                    for _ in 0..per_client {
                        let req = gen_request(&mut st);
                        // Closed loop: a shed is backpressure, so yield
                        // and resubmit until admission takes it.
                        while !server.admit(req.clone()).is_accepted() {
                            std::thread::yield_now();
                        }
                    }
                } else {
                    // Open loop: arrivals paced at rate/CLIENTS with
                    // seeded jitter; sheds are final (no retry) — that
                    // is the point of measuring overload.
                    let interval_ns = (1e9 * CLIENTS as f64 / rate_rps) as u64;
                    for k in 0..per_client {
                        let jitter = splitmix(&mut st) % (interval_ns / 2 + 1);
                        let due = k * interval_ns + jitter;
                        loop {
                            let now = start.elapsed().as_nanos() as u64;
                            if now >= due {
                                break;
                            }
                            let gap = due - now;
                            if gap > 300_000 {
                                std::thread::sleep(Duration::from_nanos(gap - 200_000));
                            } else {
                                // Yield, never spin: on an oversubscribed
                                // host a spinning client starves the very
                                // workers it is waiting for.
                                std::thread::yield_now();
                            }
                        }
                        server.admit(gen_request(&mut st));
                    }
                }
            });
        }
    });
    server.drain();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let delta = server.pool().metrics().snapshot().delta_since(&before);
    let ledger = server.shutdown();

    let mut queue = HistogramSnapshot::default();
    let mut sojourn = HistogramSnapshot::default();
    for t in &ledger.tenants {
        queue.add(&t.queue_ns);
        sojourn.add(&t.sojourn_ns);
    }
    ServeSample {
        discipline: ledger.discipline.clone(),
        mode: mode.to_string(),
        rate_factor,
        offered,
        completed: ledger.completed,
        shed: ledger.shed_total(),
        shed_rate: ledger.shed_rate(),
        wall_ns,
        throughput_rps: ledger.completed as f64 / (wall_ns as f64 / 1e9),
        queue_p50_ns: queue.quantile(0.50),
        p50_ns: sojourn.quantile(0.50),
        p99_ns: sojourn.quantile(0.99),
        p999_ns: sojourn.quantile(0.999),
        affinity_hit_ratio: delta.affinity_hit_ratio(),
        dispatches: ledger.dispatches,
        batched_requests: ledger.batched_requests,
        tenants: ledger
            .tenants
            .iter()
            .map(|t| TenantRow {
                name: t.name.clone(),
                admitted: t.admitted,
                completed: t.completed,
                shed: t.shed,
                p50_ns: t.p50_ns(),
                p99_ns: t.p99_ns(),
                p999_ns: t.p999_ns(),
            })
            .collect(),
    }
}

/// Short closed-loop FCFS burst: the capacity estimate the open-loop
/// rates are derived from.
fn calibrate(offered: u64, seed: u64) -> f64 {
    let s = run_cell(Discipline::CentralFcfs, "saturate", 0.0, 0.0, offered, seed);
    s.throughput_rps.max(1.0)
}

/// The disciplines under test, with their tuning.
fn disciplines() -> Vec<Discipline> {
    vec![
        Discipline::CentralFcfs,
        Discipline::TenantDrr { quantum: 256 },
        Discipline::Batch {
            max_requests: 16,
            max_iters: 16_384,
        },
    ]
}

/// Runs the full grid. `quick` shrinks counts for smoke tests/CI; quick
/// results are unchecked (the speedup gate needs full-size cells).
pub fn run(quick: bool) -> ServeBenchResult {
    let seed = 0x5E27_AF50_u64;
    let (cal_n, open_n, sat_n) = if quick {
        (1_200u64, 800u64, 1_600u64)
    } else {
        // Sized so the saturation cells alone complete over a million
        // requests: 3 × 340k, plus six open-loop cells of 40k.
        (40_000u64, 40_000u64, 340_000u64)
    };
    let calibrated_rps = calibrate(cal_n, seed);
    let mut samples = Vec::new();
    for discipline in disciplines() {
        for (mode, factor, offered) in [
            ("open", 0.75, open_n),
            ("open", 1.25, open_n),
            ("saturate", 0.0, sat_n),
        ] {
            samples.push(run_cell(
                discipline,
                mode,
                factor,
                calibrated_rps * factor,
                offered,
                seed ^ (samples.len() as u64 + 1).wrapping_mul(0xABCD),
            ));
        }
    }
    let sat_of = |label: &str| {
        samples
            .iter()
            .find(|s| s.discipline == label && s.mode == "saturate")
            .map(|s| s.throughput_rps)
            .unwrap_or(0.0)
    };
    let batch_over_fcfs = sat_of("batch") / sat_of("fcfs").max(1e-9);
    let pin_probe = Pool::builder(2).pin_cores(true).build();
    let pin_ok = pin_probe.pinned_workers() == 2;
    drop(pin_probe);
    ServeBenchResult {
        quick,
        p: P,
        host: HostInfo::capture(pin_ok),
        calibrated_rps,
        total_completed: samples.iter().map(|s| s.completed).sum(),
        batch_over_fcfs,
        checked: !quick,
        samples,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tests::passes;

    pub(crate) fn synthetic() -> ServeBenchResult {
        let cell = |disc: &str, mode: &str, factor: f64, thru: f64| ServeSample {
            discipline: disc.into(),
            mode: mode.into(),
            rate_factor: factor,
            offered: 10_000,
            completed: if mode == "saturate" { 10_000 } else { 9_000 },
            shed: 1_000,
            shed_rate: 0.1,
            wall_ns: 1_000_000_000,
            throughput_rps: thru,
            queue_p50_ns: 4_000.0,
            p50_ns: 20_000.0,
            p99_ns: 300_000.0,
            p999_ns: 900_000.0,
            affinity_hit_ratio: Some(0.92),
            dispatches: 5_000,
            batched_requests: if disc == "batch" { 9_000 } else { 0 },
            tenants: vec![
                TenantRow {
                    name: "small".into(),
                    admitted: 7_000,
                    completed: 6_800,
                    shed: 700,
                    p50_ns: 15_000.0,
                    // DRR shields the small tenant (the serve gate).
                    p99_ns: if disc == "drr" { 50_000.0 } else { 250_000.0 },
                    p999_ns: 800_000.0,
                },
                TenantRow {
                    name: "bulk".into(),
                    admitted: 3_000,
                    completed: 2_200,
                    shed: 300,
                    p50_ns: 40_000.0,
                    p99_ns: 500_000.0,
                    p999_ns: 950_000.0,
                },
            ],
        };
        let mut samples = Vec::new();
        for (disc, sat_thru) in [("fcfs", 100_000.0), ("drr", 95_000.0), ("batch", 150_000.0)] {
            samples.push(cell(disc, "open", 0.75, 75_000.0));
            samples.push(cell(disc, "open", 1.25, 100_000.0));
            samples.push(cell(disc, "saturate", 0.0, sat_thru));
        }
        ServeBenchResult {
            quick: false,
            p: P,
            host: HostInfo {
                cpus: 8,
                kernel: "6.1.0-test".into(),
                os: "linux".into(),
                arch: "x86_64".into(),
                pin_capable: true,
            },
            calibrated_rps: 100_000.0,
            total_completed: samples.iter().map(|s| s.completed).sum(),
            batch_over_fcfs: 1.5,
            checked: true,
            samples,
        }
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let json = synthetic().to_json();
        let v = json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("bench").and_then(|b| b.as_str()), Some("serve"));
        assert_eq!(
            v.get("schema_version").and_then(|s| s.as_f64()),
            Some(afs_metrics::METRICS_SCHEMA_VERSION as f64)
        );
        assert_eq!(v.get("checked").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("batch_over_fcfs").and_then(|b| b.as_f64()), Some(1.5));
        let samples = v.get("samples").and_then(|s| s.as_array()).unwrap();
        assert_eq!(samples.len(), 9);
        let tenants = samples[0]
            .get("tenants")
            .and_then(|t| t.as_array())
            .unwrap();
        assert_eq!(tenants.len(), 2);
        assert_eq!(
            tenants[0].get("name").and_then(|n| n.as_str()),
            Some("small")
        );
        assert_eq!(
            samples[0]
                .get("affinity_hit_ratio")
                .and_then(|r| r.as_f64()),
            Some(0.92)
        );
        assert_eq!(
            crate::check::validate(&v),
            Ok(crate::check::BenchKind::Serve)
        );
    }

    #[test]
    fn ok_gates_the_speedup_only_when_checked() {
        let good = synthetic();
        assert!(passes(&good.to_json()));
        let mut slow = synthetic();
        slow.batch_over_fcfs = 0.8;
        assert!(!passes(&slow.to_json()), "checked run below 1.0 must fail");
        slow.checked = false;
        slow.quick = true;
        assert!(passes(&slow.to_json()), "quick runs report without gating");
        let mut unfair = synthetic();
        unfair.samples.retain(|s| s.discipline != "drr");
        assert!(
            !passes(&unfair.to_json()),
            "checked run without DRR's small-tenant cell"
        );
    }

    #[test]
    fn render_shows_the_grid_and_the_verdict() {
        let text = synthetic().render();
        assert!(text.contains("serve benchmark"));
        assert!(text.contains("fcfs"));
        assert!(text.contains("saturate"));
        assert!(text.contains("speedup: 1.50x (checked)"));
    }

    #[test]
    fn request_mix_is_seeded_and_covers_both_tenants() {
        let mut a = 42u64;
        let mut b = 42u64;
        let xs: Vec<LoopRequest> = (0..200).map(|_| gen_request(&mut a)).collect();
        let ys: Vec<LoopRequest> = (0..200).map(|_| gen_request(&mut b)).collect();
        assert_eq!(xs, ys, "same seed, same mix");
        assert!(xs.iter().any(|r| r.tenant == 0));
        assert!(xs.iter().any(|r| r.tenant == 1));
        assert!(xs.iter().all(|r| r.n >= 16 && r.n < 513 && r.phases >= 1));
        let small = xs.iter().filter(|r| r.tenant == 0).count();
        assert!(small > 100, "mix skews small: {small}/200");
    }
}
