//! End-to-end kernel benchmark: whole paper kernels on real threads.
//!
//! `repro --bench-grabs` measures one scheduler grab; this benchmark
//! measures what the user actually waits for — SOR, Gaussian elimination
//! and transitive closure driven through `parallel_phases` on a live
//! worker pool — across the grid
//!
//! > kernels × policies × {pinned, unpinned}
//!
//! at `P = 8` workers. The kernels are deliberately sized so the loop
//! bodies are short: SOR runs hundreds of steps × 2 phases over a small
//! grid, which makes the per-phase rendezvous the first-order cost — the
//! regime the paper's kernels actually live in at their inner-loop sizes.
//!
//! Every cell reports best-of-reps makespan (robust against scheduler
//! noise) plus the totals; the pinning delta is reported per policy.

use crate::check::{write_envelope, BenchKind};
use affinity_sched::apps;
use afs_core::json::{self, Fields, Obj};
use afs_kernels::gauss::GaussSystem;
use afs_kernels::sor::SorGrid;
use afs_kernels::transitive::{random_graph, TransitiveClosure};
use afs_metrics::{HostInfo, MetricsSnapshot};
use afs_runtime::{Pool, RuntimeScheduler};
use std::fmt::Write as _;
use std::time::Instant;

/// Workers for every cell: the paper's P=8 configuration.
pub const P: usize = 8;

/// Kernels measured.
pub const KERNELS: [&str; 3] = ["sor", "gauss", "tc"];

/// One measured (kernel, policy, pinned) cell.
#[derive(Clone, Debug)]
pub struct KernelSample {
    /// `"sor"`, `"gauss"` or `"tc"`.
    pub kernel: &'static str,
    /// Policy name (matches `RuntimeScheduler::name`).
    pub policy: String,
    /// Workers pinned to cores?
    pub pinned: bool,
    /// Worker count.
    pub p: usize,
    /// Barrier rendezvous per run (phase count).
    pub phases: u64,
    /// Iterations per run (verified against `LoopMetrics`).
    pub iters: u64,
    /// Repetitions measured.
    pub reps: u64,
    /// Σ makespan over all reps, ns.
    pub total_ns: u64,
    /// Fastest single rep, ns — the headline number per cell.
    pub best_ns: u64,
}

impl KernelSample {
    /// Best-rep nanoseconds per phase (rendezvous + its work).
    pub fn ns_per_phase(&self) -> f64 {
        self.best_ns as f64 / self.phases.max(1) as f64
    }
}

/// Everything one bench run measured.
#[derive(Clone, Debug)]
pub struct KernelBenchResult {
    /// Shrunken smoke-test sizes?
    pub quick: bool,
    /// Worker count used for the whole grid.
    pub p: usize,
    /// SOR steps per run (the phase-heavy headline workload).
    pub sor_steps: u64,
    /// The machine that produced the numbers.
    pub host: HostInfo,
    /// All measured cells.
    pub samples: Vec<KernelSample>,
    /// Always-on runtime metrics merged over every pool the grid used.
    /// Exported separately via `repro --metrics`, not serialized into
    /// `BENCH_kernels.json`.
    pub metrics: MetricsSnapshot,
}

impl KernelBenchResult {
    /// Best-rep makespan (ns) of one cell.
    pub fn best_of(&self, kernel: &str, policy: &str, pinned: bool) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.kernel == kernel && s.policy == policy && s.pinned == pinned)
            .map(|s| s.best_ns as f64)
    }

    /// Unpinned-over-pinned makespan ratio for one (kernel, policy) row
    /// (>1 means pinning wins).
    pub fn pin_speedup(&self, kernel: &str, policy: &str) -> Option<f64> {
        let unpinned = self.best_of(kernel, policy, false)?;
        let pinned = self.best_of(kernel, policy, true)?;
        Some(unpinned / pinned.max(1.0))
    }

    /// Distinct policy names, in first-seen order.
    fn policies(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for s in &self.samples {
            if !out.contains(&s.policy.as_str()) {
                out.push(&s.policy);
            }
        }
        out
    }

    /// Plain-text tables, one per kernel, with the per-policy pinning delta.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "kernel benchmark — P={} real threads, best-of-reps makespan{}",
            self.p,
            if self.quick { " (quick)" } else { "" }
        );
        for kernel in KERNELS {
            let Some(head) = self.samples.iter().find(|s| s.kernel == kernel) else {
                continue;
            };
            let _ = writeln!(
                out,
                "== {kernel} ({} phases, {} iters) ==",
                head.phases, head.iters
            );
            let _ = writeln!(
                out,
                "{:<12}{:>14}{:>14}{:>8}",
                "policy", "unpinned ms", "pinned ms", "pin×"
            );
            let cell = |v: Option<f64>, scale: f64| match v {
                Some(v) => format!("{:.2}", v / scale),
                None => "-".into(),
            };
            for policy in self.policies() {
                let _ = writeln!(
                    out,
                    "{:<12}{:>14}{:>14}{:>8}",
                    policy,
                    cell(self.best_of(kernel, policy, false), 1e6),
                    cell(self.best_of(kernel, policy, true), 1e6),
                    cell(self.pin_speedup(kernel, policy), 1.0),
                );
            }
        }
        out
    }

    /// Serializes the result as a JSON document (`BENCH_kernels.json`).
    pub fn to_json(&self) -> String {
        json::document(|o| {
            write_envelope(o, BenchKind::Kernels, &self.host, self.quick)
                .field("p", &self.p)
                .field("sor_steps", &self.sor_steps)
                .field(
                    "metric",
                    "whole-kernel makespan ns on real threads; best_ns = fastest rep; \
                     grid = kernels x policies x core pinning at P workers",
                )
                .field("samples", &self.samples)
                .array("pin_speedup_unpinned_over_pinned", |a| {
                    for kernel in KERNELS {
                        for policy in self.policies() {
                            if let Some(r) = self.pin_speedup(kernel, policy) {
                                a.object(|o| {
                                    o.field("kernel", kernel)
                                        .field("policy", policy)
                                        .field("speedup", &r);
                                });
                            }
                        }
                    }
                });
        })
    }
}

impl Fields for KernelSample {
    fn fields(&self, o: &mut Obj<'_>) {
        o.field("kernel", self.kernel)
            .field("policy", &self.policy)
            .field("pinned", &self.pinned)
            .field("p", &self.p)
            .field("phases", &self.phases)
            .field("iters", &self.iters)
            .field("reps", &self.reps)
            .field("total_ns", &self.total_ns)
            .field("best_ns", &self.best_ns)
            .field("ns_per_phase", &self.ns_per_phase());
    }
}

/// The policy grid: the paper's AFS (plain and grab-ahead), the two
/// central-queue references, and the no-synchronization floor.
fn policies() -> Vec<RuntimeScheduler> {
    vec![
        RuntimeScheduler::afs_k_equals_p(),
        RuntimeScheduler::afs_grab_ahead(8),
        RuntimeScheduler::gss(),
        RuntimeScheduler::self_sched(),
        RuntimeScheduler::static_partition(),
    ]
}

/// Kernel problem sizes. Small grids + many phases on purpose: the bodies
/// must be short enough that the rendezvous dominates (the regime the
/// paper's kernels actually live in at their inner-loop sizes).
struct Sizes {
    sor_n: usize,
    sor_steps: usize,
    gauss_n: usize,
    tc_n: usize,
    reps: u64,
}

impl Sizes {
    fn of(quick: bool) -> Self {
        if quick {
            Sizes {
                sor_n: 24,
                sor_steps: 12,
                gauss_n: 24,
                tc_n: 24,
                reps: 1,
            }
        } else {
            Sizes {
                // A small grid over many steps keeps each phase's body in
                // the microsecond range, so the per-phase rendezvous is the
                // first-order cost.
                sor_n: 24,
                // ≥100 steps: the phase-heavy headline configuration.
                sor_steps: 400,
                gauss_n: 96,
                tc_n: 96,
                reps: 7,
            }
        }
    }
}

/// Runs one kernel once on `pool` and returns (phases, iters, makespan ns).
/// Panics if the metrics disagree with the kernel's known iteration count —
/// a benchmark that miscounts is worse than no benchmark.
fn run_kernel(
    kernel: &str,
    pool: &Pool,
    policy: &RuntimeScheduler,
    sizes: &Sizes,
) -> (u64, u64, u64) {
    match kernel {
        "sor" => {
            let n = sizes.sor_n;
            let mut grid = SorGrid::new(n);
            let start = Instant::now();
            let m = apps::par_sor(pool, &mut grid, sizes.sor_steps, policy);
            let ns = start.elapsed().as_nanos() as u64;
            let expect = (sizes.sor_steps * n) as u64;
            assert_eq!(m.total_iters(), expect, "sor/{}", policy.name());
            (sizes.sor_steps as u64, expect, ns)
        }
        "gauss" => {
            let n = sizes.gauss_n;
            let mut sys = GaussSystem::new(n, 0xBE7C);
            let phases = sys.phases() as u64;
            let start = Instant::now();
            let m = apps::par_gauss(pool, &mut sys, policy);
            let ns = start.elapsed().as_nanos() as u64;
            let expect = (n * (n - 1) / 2) as u64;
            assert_eq!(m.total_iters(), expect, "gauss/{}", policy.name());
            (phases, expect, ns)
        }
        "tc" => {
            let n = sizes.tc_n;
            let mut tc = TransitiveClosure::new(random_graph(n, 0.05, 0xBE7C));
            let start = Instant::now();
            let m = apps::par_transitive(pool, &mut tc, policy);
            let ns = start.elapsed().as_nanos() as u64;
            let expect = (n * n) as u64;
            assert_eq!(m.total_iters(), expect, "tc/{}", policy.name());
            (n as u64, expect, ns)
        }
        other => panic!("unknown kernel {other}"),
    }
}

/// Runs the full grid. `quick` shrinks sizes for smoke tests/CI.
pub fn run(quick: bool) -> KernelBenchResult {
    let sizes = Sizes::of(quick);
    let mut samples = Vec::new();
    let mut metrics = MetricsSnapshot::empty(P);
    let mut pin_ok = false;
    for pinned in [false, true] {
        // One pool per pinning config, reused across every policy and
        // kernel — exactly how an application would hold it.
        let pool = Pool::builder(P).pin_cores(pinned).build();
        if pinned {
            pin_ok |= pool.pinned_workers() == P;
        }
        for policy in policies() {
            for kernel in KERNELS {
                let mut total_ns = 0u64;
                let mut best_ns = u64::MAX;
                let mut phases = 0u64;
                let mut iters = 0u64;
                for _ in 0..sizes.reps {
                    let (ph, it, ns) = run_kernel(kernel, &pool, &policy, &sizes);
                    phases = ph;
                    iters = it;
                    total_ns += ns;
                    best_ns = best_ns.min(ns);
                }
                samples.push(KernelSample {
                    kernel,
                    policy: policy.name(),
                    pinned,
                    p: P,
                    phases,
                    iters,
                    reps: sizes.reps,
                    total_ns,
                    best_ns,
                });
            }
        }
        metrics.merge(&pool.metrics().snapshot());
    }
    KernelBenchResult {
        quick,
        p: P,
        sor_steps: sizes.sor_steps as u64,
        host: HostInfo::capture(pin_ok),
        samples,
        metrics,
    }
}

/// Writes one Chrome trace per pinning config of a quick-scale AFS SOR run
/// into `dir` (`kernels_sor_<pinned|unpinned>.json`). Returns the paths
/// written.
pub fn capture_traces(dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    use afs_metrics::trace::{chrome_trace, TraceSink};
    use std::sync::Arc;
    let sizes = Sizes::of(true);
    let mut written = Vec::new();
    for pinned in [false, true] {
        let sink = Arc::new(TraceSink::new(P));
        let pool = Pool::builder(P)
            .pin_cores(pinned)
            .trace(Arc::clone(&sink))
            .build();
        let mut grid = SorGrid::new(sizes.sor_n);
        apps::par_sor(
            &pool,
            &mut grid,
            sizes.sor_steps,
            &RuntimeScheduler::afs_k_equals_p(),
        );
        drop(pool);
        let name = format!("kernels_sor_{}", if pinned { "pinned" } else { "unpinned" });
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, chrome_trace(&sink, &name))?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn synthetic() -> KernelBenchResult {
        let cell = |pinned: bool, best_ns: u64| KernelSample {
            kernel: "sor",
            policy: "AFS".into(),
            pinned,
            p: 8,
            phases: 200,
            iters: 12_800,
            reps: 3,
            total_ns: best_ns * 3,
            best_ns,
        };
        KernelBenchResult {
            quick: true,
            p: 8,
            sor_steps: 200,
            host: HostInfo {
                cpus: 8,
                kernel: "6.1.0-test".into(),
                os: "linux".into(),
                arch: "x86_64".into(),
                pin_capable: true,
            },
            samples: vec![cell(false, 10_000_000), cell(true, 9_000_000)],
            metrics: MetricsSnapshot::empty(8),
        }
    }

    #[test]
    fn speedups_are_ratios_of_best_reps() {
        let r = synthetic();
        assert!((r.pin_speedup("sor", "AFS").unwrap() - 10.0 / 9.0).abs() < 1e-9);
        assert_eq!(r.pin_speedup("gauss", "AFS"), None);
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let json = synthetic().to_json();
        let v = json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("bench").and_then(|b| b.as_str()), Some("kernels"));
        assert_eq!(
            v.get("schema_version").and_then(|s| s.as_f64()),
            Some(afs_metrics::METRICS_SCHEMA_VERSION as f64)
        );
        let host = v.get("host").expect("host block");
        assert_eq!(host.get("cpus").and_then(|c| c.as_f64()), Some(8.0));
        assert_eq!(
            host.get("pin_capable").and_then(|b| b.as_bool()),
            Some(true)
        );
        assert_eq!(v.get("p").and_then(|p| p.as_f64()), Some(8.0));
        let samples = v.get("samples").and_then(|s| s.as_array()).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(
            samples[1].get("pinned").and_then(|b| b.as_bool()),
            Some(true)
        );
        let pin = v
            .get("pin_speedup_unpinned_over_pinned")
            .and_then(|s| s.as_array())
            .unwrap();
        assert_eq!(
            pin[0].get("speedup").and_then(|s| s.as_f64()),
            Some(10_000_000.0 / 9_000_000.0)
        );
        assert_eq!(
            crate::check::validate(&v),
            Ok(crate::check::BenchKind::Kernels)
        );
    }

    #[test]
    fn render_shows_grid_and_pin_delta() {
        let text = synthetic().render();
        assert!(text.contains("sor"));
        assert!(text.contains("pinned ms"));
        assert!(text.contains("1.11"));
    }
}
