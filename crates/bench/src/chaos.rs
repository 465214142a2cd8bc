//! Chaos gate: the serving frontend under seeded fault injection.
//!
//! `repro --bench-chaos` drives a live [`afs_serve::LoopServer`] — real
//! pool, threaded dispatcher, supervisor armed — through a grid of
//! seeded [`FaultPlan`] scenarios × dispatch disciplines and checks the
//! robustness invariants the serving layer promises, cell by cell:
//!
//! * **exact ledger** — every offered request is accounted for exactly
//!   once: `offered == accepted + refused` at the door, and
//!   `admitted == completed + failed + expired` on the closing snapshot.
//!   No request is lost, none is double-counted, under any fault.
//! * **dispatcher never dies** — after the fault storm each cell admits
//!   a batch of clean probe requests; all of them must complete. A
//!   dispatcher (or pool) killed by an injected fault fails the probe.
//! * **zero cross-request damage** — contained failures equal the number
//!   of poison requests injected, exactly. A panic that takes a
//!   co-batched bystander down with it shows up as `failed` exceeding
//!   `expected_failures`.
//! * **bounded tails with shedding on** — admission control caps the
//!   backlog, so p999 sojourn must stay within a slack factor of
//!   (backlog capacity × mean service time). An unbounded queue would
//!   blow through it. Checked on full runs only (quick cells are too
//!   small for stable tails).
//!
//! The scenarios are the four disturbance families of the fault plan,
//! plus a clean control:
//!
//! | scenario  | injection                                               |
//! |-----------|---------------------------------------------------------|
//! | `clean`   | none (control)                                          |
//! | `delay`   | worker 1 enters every region late                       |
//! | `stall`   | worker 2 freezes mid-region on a grab-count trigger     |
//! | `preempt` | seeded random preemption, ~1 grab in 64 loses its slice |
//! | `panic`   | worker 1 panics at iteration 1500 of a poison request   |
//!
//! The poison request in the `panic` scenario uses [`ServePolicy::Static`]
//! with `n = 4096` on `P = 4` workers, so worker 1 deterministically owns
//! iterations [1024, 2048) and the one-shot trigger at 1500 fires inside
//! that request and no other — the background mix tops out at 512
//! iterations, below the trigger, so only the poison can trip it.

use crate::check::{write_envelope, BenchKind};
use afs_core::json;
use afs_metrics::{HistogramSnapshot, HostInfo};
use afs_runtime::{FaultPlan, Pool};
use afs_serve::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool workers per cell — must stay 4: the poison request's iteration
/// math (worker 1 owns [1024, 2048) of n = 4096) depends on it.
pub const P: usize = 4;

/// Client (load-generator) threads per cell.
const CLIENTS: usize = 2;

/// Clean probe requests per cell, admitted after the storm drains; all
/// must complete or the dispatcher died.
const PROBES: u64 = 8;

/// Admission-side backlog capacity: shared queue + per-tenant caps. The
/// tail bound is proportional to it.
const QUEUE_CAP: usize = 1024;
const SMALL_BACKLOG: usize = 512;
const BULK_BACKLOG: usize = 256;

/// Slack factor on the tail bound: p999 sojourn must stay within
/// `TAIL_SLACK × total backlog × mean service time` (plus an absolute
/// floor for tiny cells).
const TAIL_SLACK: f64 = 16.0;
const TAIL_FLOOR_NS: f64 = 100.0e6;

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

/// The seeded request mix: 3/4 small one-phase probes for tenant 0, 1/4
/// bulk 1–2-phase loops for tenant 1; every 8th request carries a
/// deadline so expiry and deadline shedding stay live paths. All `n`
/// stay at or below 512 — strictly under the poison trigger iteration.
fn gen_request(state: &mut u64) -> LoopRequest {
    let deadline = if splitmix(state).is_multiple_of(8) {
        Some(Duration::from_millis(250))
    } else {
        None
    };
    if !splitmix(state).is_multiple_of(4) {
        LoopRequest {
            tenant: 0,
            kernel: ServeKernel::Touch,
            n: 16 + splitmix(state) % 113,
            phases: 1,
            policy: ServePolicy::Afs,
            deadline,
        }
    } else {
        LoopRequest {
            tenant: 1,
            kernel: ServeKernel::Spin { work: 2 },
            n: 256 + splitmix(state) % 257,
            phases: 1 + (splitmix(state) % 2) as u32,
            policy: ServePolicy::Afs,
            deadline,
        }
    }
}

/// The poison request for the `panic` scenario: static ownership makes
/// worker 1 deterministically execute the trigger iteration.
fn poison_request() -> LoopRequest {
    LoopRequest {
        tenant: 0,
        kernel: ServeKernel::Touch,
        n: 4096,
        phases: 1,
        policy: ServePolicy::Static,
        deadline: None,
    }
}

/// One fault scenario of the grid.
struct Scenario {
    name: &'static str,
    /// Poison requests this scenario injects — and therefore exactly how
    /// many contained failures the cell must show.
    expected_failures: u64,
    make: fn(u64) -> FaultPlan,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "clean",
            expected_failures: 0,
            make: FaultPlan::new,
        },
        Scenario {
            name: "delay",
            expected_failures: 0,
            make: |seed| FaultPlan::new(seed).with_delayed_start(1, Duration::from_micros(100)),
        },
        Scenario {
            name: "stall",
            expected_failures: 0,
            make: |seed| FaultPlan::new(seed).with_stall(2, 0, 3, Duration::from_micros(200)),
        },
        Scenario {
            name: "preempt",
            expected_failures: 0,
            make: |seed| FaultPlan::new(seed).with_preemption(64, Duration::from_micros(50)),
        },
        Scenario {
            name: "panic",
            expected_failures: 1,
            make: |seed| FaultPlan::new(seed).with_panic_at(1, 0, 1500),
        },
    ]
}

/// One measured (scenario, discipline) cell with its invariant verdicts.
#[derive(Clone, Debug)]
pub struct ChaosSample {
    /// Scenario label (`clean` | `delay` | `stall` | `preempt` | `panic`).
    pub scenario: String,
    /// Discipline label (`fcfs` | `drr` | `batch`).
    pub discipline: String,
    /// Unique requests the generators produced (poison and probes
    /// included).
    pub offered: u64,
    /// Requests admission accepted (closing snapshot).
    pub admitted: u64,
    /// Requests that completed (includes `timed_out`).
    pub completed: u64,
    /// Requests that completed after their deadline (subset of
    /// `completed`).
    pub timed_out: u64,
    /// Requests whose body panicked, contained per-request.
    pub failed: u64,
    /// Requests whose deadline elapsed while queued.
    pub expired: u64,
    /// Refusals the clients took as final (deadline/SLO sheds; capacity
    /// sheds are retried closed-loop).
    pub shed_final: u64,
    /// Shed verdicts on the snapshot — includes closed-loop retries, so
    /// it can exceed `offered`.
    pub shed_verdicts: u64,
    /// Pool dispatches the server issued.
    pub dispatches: u64,
    /// Requests that shared a dispatch with at least one other.
    pub batched_requests: u64,
    /// Pool rebuilds the supervisor performed during the cell.
    pub supervisor_restarts: u64,
    /// Wall time of the cell, ns.
    pub wall_ns: u64,
    /// Sojourn quantiles across tenants, ns.
    pub p50_ns: f64,
    /// 99th percentile sojourn, ns.
    pub p99_ns: f64,
    /// 99.9th percentile sojourn, ns.
    pub p999_ns: f64,
    /// The backlog-derived tail allowance for this cell, ns.
    pub p999_bound_ns: f64,
    /// Contained failures this scenario is allowed (== poison count).
    pub expected_failures: u64,
    /// `offered == accepted + refused` and
    /// `admitted == completed + failed + expired`, exactly.
    pub ledger_exact: bool,
    /// `failed == expected_failures`: no cross-request damage.
    pub isolated: bool,
    /// Every post-storm probe request completed.
    pub probe_ok: bool,
    /// `p999_ns <= p999_bound_ns` (gated on full runs only).
    pub tail_bounded: bool,
}

/// Everything one `--bench-chaos` run measured and verified.
#[derive(Clone, Debug)]
pub struct ChaosBenchResult {
    /// Shrunken smoke-test sizes?
    pub quick: bool,
    /// Pool workers per cell.
    pub p: usize,
    /// The machine that produced the numbers.
    pub host: HostInfo,
    /// Whether the tail bound is enforced (full runs: yes).
    pub checked: bool,
    /// Unique requests offered across every cell.
    pub total_requests: u64,
    /// All measured cells.
    pub samples: Vec<ChaosSample>,
}

impl ChaosBenchResult {
    /// Whether `holds` is true of every cell: the aggregate verdicts
    /// (ledger exact, isolation, dispatcher alive) the table and the
    /// document report, and `check::validate` gates.
    fn every(&self, holds: impl Fn(&ChaosSample) -> bool) -> bool {
        self.samples.iter().all(holds)
    }

    /// Plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chaos gate — fault-injected serving, P={} workers, {} clients{}",
            self.p,
            CLIENTS,
            if self.quick { " (quick)" } else { "" }
        );
        let _ = writeln!(
            out,
            "{:<9}{:<7}{:>9}{:>9}{:>9}{:>7}{:>9}{:>9}{:>11}{:>9}",
            "scenario",
            "disc",
            "offered",
            "done",
            "failed",
            "exp",
            "shed",
            "restart",
            "p999 ms",
            "verdict"
        );
        for s in &self.samples {
            let verdict = if s.ledger_exact && s.isolated && s.probe_ok {
                if s.tail_bounded {
                    "ok"
                } else {
                    "tail!"
                }
            } else {
                "FAIL"
            };
            let _ = writeln!(
                out,
                "{:<9}{:<7}{:>9}{:>9}{:>9}{:>7}{:>9}{:>9}{:>11.1}{:>9}",
                s.scenario,
                s.discipline,
                s.offered,
                s.completed,
                s.failed,
                s.expired,
                s.shed_final,
                s.supervisor_restarts,
                s.p999_ns / 1.0e6,
                verdict,
            );
        }
        let _ = writeln!(
            out,
            "total requests: {}  ledger exact: {}  isolation: {}  dispatcher alive: {}{}",
            self.total_requests,
            self.every(|s| s.ledger_exact),
            self.every(|s| s.isolated),
            self.every(|s| s.probe_ok),
            if self.checked {
                "  (tails checked)"
            } else {
                ""
            }
        );
        out
    }

    /// Serializes the result as a JSON document (`BENCH_chaos.json`).
    pub fn to_json(&self) -> String {
        json::document(|o| {
            write_envelope(o, BenchKind::Chaos, &self.host, self.quick)
                .field("p", &self.p)
                .field("checked", &self.checked)
                .field("total_requests", &self.total_requests)
                .field("ledger_exact", &self.every(|s| s.ledger_exact))
                .field("isolation", &self.every(|s| s.isolated))
                .field("dispatcher_alive", &self.every(|s| s.probe_ok))
                .field(
                    "metric",
                    "per-cell robustness invariants under seeded fault injection: exact \
                     request ledger, contained failures equal to injected poisons, post-storm \
                     probe completion, and (checked runs) p999 sojourn within the \
                     backlog-derived allowance",
                )
                .field("samples", &self.samples);
        })
    }
}

json::fields!(ChaosSample: scenario, discipline, offered, admitted, completed, timed_out,
    failed, expired, shed_final, shed_verdicts, dispatches, batched_requests, supervisor_restarts,
    wall_ns, p50_ns, p99_ns, p999_ns, p999_bound_ns, expected_failures, ledger_exact, isolated,
    probe_ok, tail_bounded);

/// Builds the per-cell server: two tenants over a fault-injected pool,
/// threaded dispatcher, supervisor armed with a clean-pool factory.
fn build_server(discipline: Discipline, plan: FaultPlan) -> LoopServer {
    let pool = Arc::new(Pool::builder(P).faults(plan).build());
    LoopServer::builder(pool)
        .tenant_spec(
            TenantSpec::new("small")
                .backlog_cap(SMALL_BACKLOG)
                .workset_slots(8192),
        )
        .tenant_spec(
            TenantSpec::new("bulk")
                .backlog_cap(BULK_BACKLOG)
                .workset_slots(8192)
                .slo(Duration::from_millis(500)),
        )
        .discipline(discipline)
        .queue_capacity(QUEUE_CAP)
        .supervise(SupervisorConfig::default(), |_| Arc::new(Pool::new(P)))
        .build()
}

/// Admits `req` closed-loop: capacity sheds are backpressure (yield and
/// retry), everything else is a final refusal. Returns whether the
/// request was eventually accepted.
fn admit_closed_loop(server: &LoopServer, req: &LoopRequest) -> bool {
    loop {
        match server.admit(req.clone()) {
            Admit::Accepted { .. } => return true,
            Admit::Shed(ShedReason::QueueFull) | Admit::Shed(ShedReason::TenantBacklog) => {
                std::thread::yield_now();
            }
            Admit::Shed(_) => return false,
        }
    }
}

/// Drives one (scenario, discipline) cell and reduces it to a verified
/// sample row.
fn run_cell(scenario: &Scenario, discipline: Discipline, storm: u64, seed: u64) -> ChaosSample {
    let server = build_server(discipline, (scenario.make)(seed));
    let start = Instant::now();

    // The poison goes in first so the one-shot trigger arms against a
    // known request; everything after it is background mix.
    let mut accepted = 0u64;
    let mut refused = 0u64;
    for _ in 0..scenario.expected_failures {
        assert!(
            admit_closed_loop(&server, &poison_request()),
            "poison request must be admittable on an empty server"
        );
        accepted += 1;
    }

    let per_client = storm / CLIENTS as u64;
    let counts: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let server = &server;
                scope.spawn(move || {
                    let mut st = seed ^ (0x9E37 * (c as u64 + 1));
                    let (mut acc, mut refu) = (0u64, 0u64);
                    for _ in 0..per_client {
                        if admit_closed_loop(server, &gen_request(&mut st)) {
                            acc += 1;
                        } else {
                            refu += 1;
                        }
                    }
                    (acc, refu)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (acc, refu) in counts {
        accepted += acc;
        refused += refu;
    }
    server.drain();

    // The storm is over; now the dispatcher must still serve clean work.
    let before_probe = server.serve_snapshot();
    for _ in 0..PROBES {
        if admit_closed_loop(
            &server,
            &LoopRequest {
                tenant: 0,
                kernel: ServeKernel::Touch,
                n: 64,
                phases: 1,
                policy: ServePolicy::Afs,
                deadline: None,
            },
        ) {
            accepted += 1;
        } else {
            refused += 1;
        }
    }
    server.drain();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let snap = server.shutdown();

    let probe_ok = snap.completed.saturating_sub(before_probe.completed) == PROBES;
    let offered = scenario.expected_failures + storm + PROBES;
    let ledger_exact = offered == accepted + refused
        && snap.admitted == accepted
        && snap.admitted == snap.completed + snap.failed + snap.expired
        && snap.shed_shutdown == 0;
    let isolated = snap.failed == scenario.expected_failures;

    let mut sojourn = HistogramSnapshot::default();
    for t in &snap.tenants {
        sojourn.add(&t.sojourn_ns);
    }
    let p999_ns = sojourn.quantile(0.999);
    // Admission control bounds the backlog, so sojourn tails are bounded
    // by (backlog capacity × mean service time) — allow a generous slack
    // factor over that, plus an absolute floor so tiny quick cells with
    // coarse histograms don't flap.
    let backlog_cap = (QUEUE_CAP + SMALL_BACKLOG + BULK_BACKLOG) as f64;
    let mean_service_ns = wall_ns as f64 / snap.completed.max(1) as f64;
    let p999_bound_ns = (TAIL_SLACK * backlog_cap * mean_service_ns).max(TAIL_FLOOR_NS);

    ChaosSample {
        scenario: scenario.name.to_string(),
        discipline: snap.discipline.clone(),
        offered,
        admitted: snap.admitted,
        completed: snap.completed,
        timed_out: snap.timed_out,
        failed: snap.failed,
        expired: snap.expired,
        shed_final: refused,
        shed_verdicts: snap.shed_total(),
        dispatches: snap.dispatches,
        batched_requests: snap.batched_requests,
        supervisor_restarts: snap.supervisor_restarts,
        wall_ns,
        p50_ns: sojourn.quantile(0.50),
        p99_ns: sojourn.quantile(0.99),
        p999_ns,
        p999_bound_ns,
        expected_failures: scenario.expected_failures,
        ledger_exact,
        isolated,
        probe_ok,
        tail_bounded: p999_ns <= p999_bound_ns,
    }
}

/// Runs the full scenario × discipline grid. `quick` shrinks the storm
/// for smoke tests/CI; the ledger, isolation and probe invariants are
/// enforced at every size, the tail bound only at full size.
pub fn run(quick: bool) -> ChaosBenchResult {
    let seed = 0xC4A0_5F13_u64;
    let storm = if quick { 400u64 } else { 12_000u64 };
    let disciplines = [
        Discipline::CentralFcfs,
        Discipline::TenantDrr { quantum: 256 },
        Discipline::Batch {
            max_requests: 16,
            max_iters: 16_384,
        },
    ];
    let mut samples = Vec::new();
    for scenario in scenarios() {
        for discipline in disciplines.iter().copied() {
            samples.push(run_cell(
                &scenario,
                discipline,
                storm,
                seed ^ (samples.len() as u64 + 1).wrapping_mul(0x51ED),
            ));
        }
    }
    let pin_probe = Pool::builder(2).pin_cores(true).build();
    let pin_ok = pin_probe.pinned_workers() == 2;
    drop(pin_probe);
    ChaosBenchResult {
        quick,
        p: P,
        host: HostInfo::capture(pin_ok),
        checked: !quick,
        total_requests: samples.iter().map(|s| s.offered).sum(),
        samples,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tests::passes;

    pub(crate) fn synthetic() -> ChaosBenchResult {
        let cell = |scenario: &str, disc: &str, failures: u64| ChaosSample {
            scenario: scenario.into(),
            discipline: disc.into(),
            offered: 12_009,
            admitted: 12_000,
            completed: 11_990 - failures,
            timed_out: 3,
            failed: failures,
            expired: 10,
            shed_final: 9,
            shed_verdicts: 450,
            dispatches: 9_000,
            batched_requests: if disc == "batch" { 11_000 } else { 0 },
            supervisor_restarts: 0,
            wall_ns: 2_000_000_000,
            p50_ns: 30_000.0,
            p99_ns: 900_000.0,
            p999_ns: 4_000_000.0,
            p999_bound_ns: 100_000_000.0,
            expected_failures: failures,
            ledger_exact: true,
            isolated: true,
            probe_ok: true,
            tail_bounded: true,
        };
        let mut samples = Vec::new();
        for scenario in ["clean", "delay", "stall", "preempt", "panic"] {
            for disc in ["fcfs", "drr", "batch"] {
                samples.push(cell(scenario, disc, u64::from(scenario == "panic")));
            }
        }
        ChaosBenchResult {
            quick: false,
            p: P,
            host: HostInfo {
                cpus: 8,
                kernel: "6.1.0-test".into(),
                os: "linux".into(),
                arch: "x86_64".into(),
                pin_capable: true,
            },
            checked: true,
            total_requests: samples.iter().map(|s| s.offered).sum(),
            samples,
        }
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let json = synthetic().to_json();
        let v = json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("bench").and_then(|b| b.as_str()), Some("chaos"));
        assert_eq!(
            v.get("schema_version").and_then(|s| s.as_f64()),
            Some(afs_metrics::METRICS_SCHEMA_VERSION as f64)
        );
        assert_eq!(v.get("checked").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("ledger_exact").and_then(|b| b.as_bool()), Some(true));
        assert_eq!(v.get("isolation").and_then(|b| b.as_bool()), Some(true));
        assert_eq!(
            v.get("dispatcher_alive").and_then(|b| b.as_bool()),
            Some(true)
        );
        let samples = v.get("samples").and_then(|s| s.as_array()).unwrap();
        assert_eq!(samples.len(), 15, "5 scenarios x 3 disciplines");
        assert_eq!(
            samples[0].get("scenario").and_then(|s| s.as_str()),
            Some("clean")
        );
        assert_eq!(
            samples[0].get("probe_ok").and_then(|b| b.as_bool()),
            Some(true)
        );
        assert_eq!(
            crate::check::validate(&v),
            Ok(crate::check::BenchKind::Chaos)
        );
    }

    #[test]
    fn ok_requires_the_hard_invariants_at_every_size() {
        let good = synthetic();
        assert!(passes(&good.to_json()));

        let mut unbalanced = synthetic();
        unbalanced.samples[4].ledger_exact = false;
        assert!(
            !passes(&unbalanced.to_json()),
            "a broken ledger fails even quick runs"
        );
        unbalanced.quick = true;
        unbalanced.checked = false;
        assert!(!passes(&unbalanced.to_json()));

        let mut bleeding = synthetic();
        bleeding.samples[12].isolated = false;
        assert!(
            !passes(&bleeding.to_json()),
            "cross-request damage fails the gate"
        );

        let mut dead = synthetic();
        dead.samples[0].probe_ok = false;
        assert!(!passes(&dead.to_json()), "a dead dispatcher fails the gate");
        let doc = json::parse(&dead.to_json()).unwrap();
        assert_eq!(
            doc.get("dispatcher_alive").and_then(|b| b.as_bool()),
            Some(false)
        );
    }

    #[test]
    fn tail_bound_gates_checked_runs_only() {
        let mut fat = synthetic();
        fat.samples[2].tail_bounded = false;
        assert!(
            !passes(&fat.to_json()),
            "checked run with a blown tail must fail"
        );
        fat.checked = false;
        fat.quick = true;
        assert!(
            passes(&fat.to_json()),
            "quick runs report tails without gating"
        );
    }

    #[test]
    fn render_shows_the_grid_and_the_verdicts() {
        let text = synthetic().render();
        assert!(text.contains("chaos gate"));
        assert!(text.contains("panic"));
        assert!(text.contains("preempt"));
        assert!(text.contains("ledger exact: true"));
        assert!(text.contains("dispatcher alive: true"));
        assert!(text.contains("(tails checked)"));
    }

    #[test]
    fn request_mix_is_seeded_and_stays_below_the_poison_trigger() {
        let mut a = 7u64;
        let mut b = 7u64;
        let xs: Vec<LoopRequest> = (0..200).map(|_| gen_request(&mut a)).collect();
        let ys: Vec<LoopRequest> = (0..200).map(|_| gen_request(&mut b)).collect();
        assert_eq!(xs, ys, "same seed, same mix");
        assert!(
            xs.iter().all(|r| r.n <= 512),
            "background mix must stay below iteration 1500 so only the \
             poison request can trip the panic trigger"
        );
        assert!(xs.iter().any(|r| r.deadline.is_some()));
        assert!(xs.iter().any(|r| r.deadline.is_none()));
        let poison = poison_request();
        assert_eq!(poison.policy, ServePolicy::Static);
        assert!(
            poison.n > 1500,
            "poison must actually contain the trigger iteration"
        );
    }
}
