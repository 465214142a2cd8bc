//! Fault benchmark: Theorem 3.2's delayed-start bound on real threads.
//!
//! `repro --bench-faults` injects a delayed start into worker 0 of a real
//! `P`-thread pool (via the runtime's seeded [`afs_runtime::FaultPlan`])
//! and measures the *residual imbalance*: the iterations of the delayed
//! worker's partition that nobody redistributed — the work it must still
//! execute by itself once it finally shows up. Theorem 3.2 bounds exactly
//! this quantity for AFS at `N(P−k)/(P(P−1)k) + 1` iterations; STATIC
//! rides along as the contrast row, where no redistribution exists and the
//! residual is the worker's entire `N/P` partition.
//!
//! The delay is sized from a measured no-fault makespan (3× plus a fixed
//! margin), so the other `P−1` workers are guaranteed to have drained
//! everything stealable before worker 0 wakes. The residual is then read
//! straight off the per-worker iteration counters
//! (`LoopMetrics::iters_per_worker`) — an exact count, not a timestamp —
//! which keeps the gate sound on oversubscribed hosts (CI containers,
//! laptops) where wall-clock finishing spreads are dominated by OS
//! timeslices rather than by scheduling policy. Every AFS row is checked
//! against its bound; the STATIC row has no bound and is reported only.
//!
//! The run also smoke-tests panic containment — an injected body panic
//! must surface as `Err(PhaseError)` with every other iteration executed
//! exactly once — and records the verdict in the JSON (`--check-bench`
//! requires it to be `true`).

use crate::check::{write_envelope, BenchKind};
use afs_core::json;
use afs_core::theory::thm32_imbalance_bound;
use afs_metrics::HostInfo;
use afs_runtime::{FaultPlan, Pool, RuntimeScheduler};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Workers for every row: the paper's P=8 configuration.
pub const P: usize = 8;

/// Arithmetic per loop iteration — enough to dwarf a grab, small enough
/// for thousands of iterations per rep.
const WORK_PER_ITER: u64 = 500;

#[inline]
fn body_work() {
    std::hint::black_box((0..WORK_PER_ITER).sum::<u64>());
}

/// One measured (policy, k) row.
#[derive(Clone, Debug)]
pub struct FaultSample {
    /// Policy name (matches `RuntimeScheduler::name`).
    pub policy: String,
    /// AFS divisor `k`; `None` for STATIC.
    pub k: Option<u64>,
    /// Loop length.
    pub n: u64,
    /// Worker count.
    pub p: usize,
    /// Injected start delay of worker 0, ns.
    pub delay_ns: u64,
    /// Iterations worker 0 had to execute itself after the delay —
    /// the residual imbalance (worst over reps).
    pub residual_iters: u64,
    /// Theorem 3.2 bound in iterations; `None` for STATIC.
    pub bound_iters: Option<f64>,
    /// `residual_iters ≤ bound_iters` (rows without a bound report `true`).
    pub within: bool,
    /// Whether `--check-bench` enforces `within` for this row.
    pub checked: bool,
    /// Fastest faulty-run makespan, ns (includes the delay).
    pub makespan_ns: u64,
    /// Fastest no-fault makespan, ns (the delay was sized from this).
    pub baseline_makespan_ns: u64,
}

/// Everything one `--bench-faults` run measured.
#[derive(Clone, Debug)]
pub struct FaultBenchResult {
    /// Shrunken smoke-test sizes?
    pub quick: bool,
    /// Worker count used for every row.
    pub p: usize,
    /// Loop length used for every row.
    pub n: u64,
    /// The machine that produced the numbers.
    pub host: HostInfo,
    /// Did the panic-containment smoke test pass?
    pub panic_containment: bool,
    /// All measured rows.
    pub samples: Vec<FaultSample>,
}

impl FaultBenchResult {
    /// Plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fault benchmark — delayed-start residual vs Theorem 3.2, P={} real threads, N={}{}",
            self.p,
            self.n,
            if self.quick { " (quick)" } else { "" }
        );
        let _ = writeln!(
            out,
            "{:<12}{:>13}{:>12}{:>10}{:>9}",
            "policy", "residual it", "bound it", "within", "checked"
        );
        for s in &self.samples {
            let bound = match s.bound_iters {
                Some(b) => format!("{b:.0}"),
                None => "-".into(),
            };
            let _ = writeln!(
                out,
                "{:<12}{:>13}{:>12}{:>10}{:>9}",
                s.policy,
                s.residual_iters,
                bound,
                if s.within { "yes" } else { "NO" },
                if s.checked { "yes" } else { "-" },
            );
        }
        let _ = writeln!(
            out,
            "panic containment: {}",
            if self.panic_containment {
                "ok"
            } else {
                "FAILED"
            }
        );
        out
    }

    /// Serializes the result as a JSON document (`BENCH_faults.json`).
    pub fn to_json(&self) -> String {
        json::document(|o| {
            write_envelope(o, BenchKind::Faults, &self.host, self.quick)
                .field("p", &self.p)
                .field("n", &self.n)
                .field("panic_containment", &self.panic_containment)
                .field(
                    "metric",
                    "residual imbalance: iterations the delayed worker must execute itself \
                     after a start delay longer than the other workers' makespan; checked rows \
                     must satisfy residual_iters <= bound_iters (Theorem 3.2)",
                )
                .field("samples", &self.samples);
        })
    }
}

json::fields!(FaultSample: policy, k, n, p, delay_ns, residual_iters, bound_iters, within,
    checked, makespan_ns, baseline_makespan_ns);

/// Runs one loop and returns (worker 0's executed iterations, makespan ns).
fn measure_residual(policy: &RuntimeScheduler, n: u64, delay: Option<Duration>) -> (u64, u64) {
    let mut builder = Pool::builder(P);
    if let Some(d) = delay {
        builder = builder.faults(FaultPlan::new(0x3_2).with_delayed_start(0, d));
    }
    let pool = builder.build();
    let start = Instant::now();
    let m = afs_runtime::parallel_for(&pool, n, policy, |_| body_work());
    let makespan = start.elapsed().as_nanos() as u64;
    assert_eq!(m.total_iters(), n, "{}", policy.name());
    (m.iters_per_worker[0], makespan)
}

/// Injects a body panic and verifies the containment contract end to end.
/// The default panic hook is silenced for the duration so the expected
/// backtrace does not pollute the bench output.
fn panic_containment_smoke() -> bool {
    let n = 1_024u64;
    let poison = 300u64; // worker 2 owns [256, 384) under STATIC at P=8
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let pool = Pool::builder(P)
        .faults(FaultPlan::new(1).with_panic_at(2, 0, poison))
        .build();
    let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let err = afs_runtime::try_parallel_for(&pool, n, &RuntimeScheduler::static_partition(), |i| {
        counts[i as usize].fetch_add(1, Ordering::SeqCst);
    });
    drop(pool);
    std::panic::set_hook(prev_hook);
    let exactly_once = counts
        .iter()
        .enumerate()
        .all(|(i, c)| c.load(Ordering::SeqCst) == u32::from(i as u64 != poison));
    match err {
        Err(e) => e.worker() == 2 && exactly_once,
        Ok(_) => false,
    }
}

/// Runs the full row set. `quick` shrinks sizes for smoke tests/CI.
pub fn run(quick: bool) -> FaultBenchResult {
    let (n, reps) = if quick {
        (2_048u64, 2u32)
    } else {
        (8_192u64, 3u32)
    };
    let rows: Vec<(RuntimeScheduler, Option<u64>, bool)> = vec![
        (RuntimeScheduler::afs_tuned(1, 1), Some(1), true),
        (RuntimeScheduler::afs_tuned(2, 1), Some(2), true),
        (RuntimeScheduler::afs_tuned(4, 1), Some(4), true),
        (RuntimeScheduler::afs_k_equals_p(), Some(P as u64), true),
        // No redistribution, no bound: the contrast row.
        (RuntimeScheduler::static_partition(), None, false),
    ];
    let mut samples = Vec::new();
    for (policy, k, checked) in rows {
        // Size the delay off the slowest no-fault rep so the other P−1
        // workers are certain to have drained everything stealable before
        // worker 0 wakes — only then is worker 0's iteration count the
        // residual the theorem talks about.
        let mut slowest_clean = 0u64;
        let mut baseline_makespan = u64::MAX;
        for _ in 0..reps {
            let (_, span) = measure_residual(&policy, n, None);
            slowest_clean = slowest_clean.max(span);
            baseline_makespan = baseline_makespan.min(span);
        }
        let delay = Duration::from_nanos(3 * slowest_clean + 30_000_000);
        let mut residual = 0u64;
        let mut best_makespan = u64::MAX;
        for _ in 0..reps {
            let (r, span) = measure_residual(&policy, n, Some(delay));
            residual = residual.max(r); // worst over reps: the gated value
            best_makespan = best_makespan.min(span);
        }
        let bound_iters = k.map(|k| thm32_imbalance_bound(n, P, k));
        let within = match bound_iters {
            Some(b) => residual as f64 <= b,
            None => true,
        };
        samples.push(FaultSample {
            policy: policy.name(),
            k,
            n,
            p: P,
            delay_ns: delay.as_nanos() as u64,
            residual_iters: residual,
            bound_iters,
            within,
            checked,
            makespan_ns: best_makespan,
            baseline_makespan_ns: baseline_makespan,
        });
    }
    let pin_probe = Pool::builder(2).pin_cores(true).build();
    let pin_ok = pin_probe.pinned_workers() == 2;
    drop(pin_probe);
    FaultBenchResult {
        quick,
        p: P,
        n,
        host: HostInfo::capture(pin_ok),
        panic_containment: panic_containment_smoke(),
        samples,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tests::passes;

    pub(crate) fn synthetic() -> FaultBenchResult {
        let row = |policy: &str, k: Option<u64>, residual: u64, checked: bool| FaultSample {
            policy: policy.into(),
            k,
            n: 8_192,
            p: 8,
            delay_ns: 200_000_000,
            residual_iters: residual,
            bound_iters: k.map(|k| thm32_imbalance_bound(8_192, 8, k)),
            within: match k {
                Some(k) => residual as f64 <= thm32_imbalance_bound(8_192, 8, k),
                None => true,
            },
            checked,
            makespan_ns: 220_000_000,
            baseline_makespan_ns: 9_000_000,
        };
        FaultBenchResult {
            quick: true,
            p: 8,
            n: 8_192,
            host: HostInfo {
                cpus: 8,
                kernel: "6.1.0-test".into(),
                os: "linux".into(),
                arch: "x86_64".into(),
                pin_capable: true,
            },
            panic_containment: true,
            samples: vec![
                row("AFS(k=1)", Some(1), 700, true),
                row("AFS(k=2)", Some(2), 300, true),
                row("AFS", Some(8), 0, true),
                row("STATIC", None, 1_024, false),
            ],
        }
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let json = synthetic().to_json();
        let v = json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("bench").and_then(|b| b.as_str()), Some("faults"));
        assert_eq!(
            v.get("schema_version").and_then(|s| s.as_f64()),
            Some(afs_metrics::METRICS_SCHEMA_VERSION as f64)
        );
        assert_eq!(
            v.get("panic_containment").and_then(|b| b.as_bool()),
            Some(true)
        );
        let samples = v.get("samples").and_then(|s| s.as_array()).unwrap();
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[0].get("k").and_then(|k| k.as_f64()), Some(1.0));
        assert!(samples[3].get("k").is_some(), "STATIC row carries k: null");
        assert_eq!(samples[3].get("k").and_then(|k| k.as_f64()), None);
        assert_eq!(
            samples[0].get("within").and_then(|w| w.as_bool()),
            Some(true)
        );
        assert_eq!(
            samples[3].get("residual_iters").and_then(|r| r.as_f64()),
            Some(1_024.0)
        );
        assert_eq!(
            samples[0].get("bound_iters").and_then(|b| b.as_f64()),
            Some(thm32_imbalance_bound(8_192, 8, 1))
        );
        assert_eq!(
            crate::check::validate(&v),
            Ok(crate::check::BenchKind::Faults)
        );
    }

    #[test]
    fn ok_requires_checked_rows_within_and_containment() {
        let good = synthetic();
        assert!(passes(&good.to_json()));
        let mut bad = synthetic();
        bad.samples[0].within = false;
        assert!(
            !passes(&bad.to_json()),
            "a checked row outside the bound must fail"
        );
        let mut unchecked = synthetic();
        unchecked.samples[3].within = false; // STATIC: reported, not gated
        unchecked.samples[3].checked = false;
        assert!(passes(&unchecked.to_json()));
        let mut leak = synthetic();
        leak.panic_containment = false;
        assert!(!passes(&leak.to_json()));
    }

    #[test]
    fn render_shows_rows_and_verdicts() {
        let text = synthetic().render();
        assert!(text.contains("Theorem 3.2"));
        assert!(text.contains("AFS(k=1)"));
        assert!(text.contains("STATIC"));
        assert!(text.contains("panic containment: ok"));
    }

    #[test]
    fn quick_run_respects_the_bound_end_to_end() {
        let r = run(true);
        assert!(r.panic_containment, "injected panic must be contained");
        assert_eq!(r.samples.len(), 5);
        let static_row = r.samples.last().unwrap();
        assert_eq!(
            static_row.residual_iters,
            r.n / P as u64,
            "STATIC cannot redistribute the delayed worker's partition"
        );
        for s in &r.samples {
            if s.checked {
                assert!(
                    s.within,
                    "{}: residual {} exceeds Theorem 3.2 bound {:?}",
                    s.policy, s.residual_iters, s.bound_iters
                );
            }
        }
        assert!(passes(&r.to_json()));
    }
}
