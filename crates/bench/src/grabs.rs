//! Grab-latency microbenchmark: mutex vs lock-free work sources.
//!
//! Measures the cost of one scheduler grab (`WorkSource::next`) for each
//! policy that gained a lock-free path:
//!
//! * AFS — the core state machine under [`LockedSource`]'s one mutex vs
//!   [`AfsSource`] (packed head/tail CAS word per queue);
//! * SS — the core state machine under the same mutex vs
//!   [`FetchAddSource`] with chunk 1;
//! * CSS(16) — same pair at fixed chunk 16;
//! * GSS — mutex only (its chunk size depends on the remaining count, so it
//!   has no fetch-add form); included as a reference row.
//!
//! Two protocols, both draining a pre-built list of fresh sources
//! back-to-back with the clock kept out of the per-call loop (a ~20 ns
//! timestamp read would swamp a ~10 ns fetch-add):
//!
//! * **interleaved** (the headline number): one OS thread drives all `P`
//!   logical workers round-robin, so every local-vs-steal code path runs
//!   with the exact request mix of a `P`-worker loop, but the measurement
//!   is deterministic and free of OS-scheduler noise. This isolates what
//!   the rework changes: the per-grab instruction cost of the grab path
//!   (one CAS or fetch-add versus a lock acquire/release around the state
//!   machine). Reported as pass wall time / grabs.
//! * **threaded** — `P` real threads released by a [`std::sync::Barrier`],
//!   reported as drain makespan (barrier release until the last thread
//!   finishes) / grabs; the source list is sized so a pass outlasts an OS
//!   timeslice. Included for completeness: on a machine with fewer cores
//!   than `P` (CI containers here have one core) this number is dominated
//!   by how the OS accounts preempted-runnable vs futex-blocked threads,
//!   so the interleaved protocol is the comparison to trust there; on a
//!   real multiprocessor it is the one that shows convoy effects.

use afs_core::prelude::*;
use afs_metrics::{HostInfo, MetricsRegistry};
use afs_runtime::source::{AfsSource, FetchAddSource, LockedSource, WorkSource};
use std::fmt::Write as _;
use std::time::Instant;

/// Schema version of `BENCH_grabs.json`: the workspace-wide constant (see
/// [`afs_metrics::METRICS_SCHEMA_VERSION`]).
pub const SCHEMA_VERSION: u64 = afs_metrics::METRICS_SCHEMA_VERSION;

/// Worker counts measured. The interesting point is the largest (most
/// contended); the smaller ones show how the gap opens.
pub const WORKERS: [usize; 3] = [2, 4, 8];

/// Measurement protocols (see the module docs).
pub const PROTOCOLS: [&str; 2] = ["interleaved", "threaded"];

/// One measured (protocol, policy, implementation, P) cell.
#[derive(Clone, Debug)]
pub struct GrabSample {
    /// `"interleaved"` or `"threaded"`.
    pub protocol: &'static str,
    /// Policy name (matches `RuntimeScheduler::name` where applicable).
    pub policy: &'static str,
    /// `"mutex"` or `"lockfree"`.
    pub implementation: &'static str,
    /// Number of (logical or OS) workers draining.
    pub p: usize,
    /// Total successful grabs across all repetitions.
    pub grabs: u64,
    /// Σ timed span, ns, across all repetitions (pass wall time for the
    /// interleaved protocol, drain makespan for the threaded one).
    pub total_ns: u64,
}

impl GrabSample {
    /// Mean ns per grab.
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.grabs.max(1) as f64
    }
}

/// Everything one bench run measured.
#[derive(Clone, Debug)]
pub struct GrabBenchResult {
    /// Shrunken smoke-test sizes?
    pub quick: bool,
    /// Largest per-loop iteration count used in the grid.
    pub n: u64,
    /// The machine that produced the numbers.
    pub host: HostInfo,
    /// All measured cells.
    pub samples: Vec<GrabSample>,
}

impl GrabBenchResult {
    /// The mean grab latency for one interleaved-protocol cell.
    pub fn mean_of(&self, policy: &str, implementation: &str, p: usize) -> Option<f64> {
        self.mean_in("interleaved", policy, implementation, p)
    }

    /// The mean grab latency for one cell of the given protocol.
    pub fn mean_in(
        &self,
        protocol: &str,
        policy: &str,
        implementation: &str,
        p: usize,
    ) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.protocol == protocol
                    && s.policy == policy
                    && s.implementation == implementation
                    && s.p == p
            })
            .map(GrabSample::mean_ns)
    }

    /// Mutex-over-lockfree latency ratio at `p` on the interleaved
    /// protocol (>1 means lock-free wins).
    pub fn speedup(&self, policy: &str, p: usize) -> Option<f64> {
        let base = self.mean_of(policy, "mutex", p)?;
        let new = self.mean_of(policy, "lockfree", p)?;
        Some(base / new.max(1e-9))
    }

    /// Plain-text tables, one per protocol.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for protocol in PROTOCOLS {
            let _ = writeln!(
                out,
                "grab latency [{protocol}] — ns per grab (n ≤ {}{})",
                self.n,
                if self.quick { ", quick" } else { "" }
            );
            let _ = write!(out, "{:<10}{:<10}", "policy", "impl");
            for p in WORKERS {
                let _ = write!(out, "{:>12}", format!("P={p}"));
            }
            let _ = writeln!(out);
            let mut seen: Vec<(&str, &str)> = Vec::new();
            for s in self.samples.iter().filter(|s| s.protocol == protocol) {
                let key = (s.policy, s.implementation);
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                let _ = write!(out, "{:<10}{:<10}", s.policy, s.implementation);
                for p in WORKERS {
                    match self.mean_in(protocol, s.policy, s.implementation, p) {
                        Some(ns) => {
                            let _ = write!(out, "{ns:>12.1}");
                        }
                        None => {
                            let _ = write!(out, "{:>12}", "-");
                        }
                    }
                }
                let _ = writeln!(out);
            }
        }
        let p_max = *WORKERS.last().unwrap();
        let mut ratios: Vec<String> = Vec::new();
        for policy in ["AFS", "SS", "CSS(16)"] {
            if let Some(r) = self.speedup(policy, p_max) {
                ratios.push(format!("{policy} {r:.2}x"));
            }
        }
        if !ratios.is_empty() {
            let _ = writeln!(
                out,
                "speedup (mutex/lockfree, interleaved) at P={p_max}: {}",
                ratios.join(", ")
            );
        }
        out
    }

    /// Serializes the result as a JSON document (`BENCH_grabs.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"bench\": \"grab_latency\",\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"host\": {},", self.host.to_json());
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"max_iters_per_drain\": {},", self.n);
        let _ = writeln!(
            out,
            "  \"metric\": \"timed span ns / total grabs; interleaved = one thread driving P \
             logical workers round-robin (deterministic per-grab cost), threaded = P OS threads, \
             drain makespan\","
        );
        out.push_str("  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"protocol\": \"{}\", \"policy\": \"{}\", \"impl\": \"{}\", \"p\": {}, \
                 \"grabs\": {}, \"total_ns\": {}, \"mean_ns_per_grab\": {:.2}}}",
                s.protocol,
                s.policy,
                s.implementation,
                s.p,
                s.grabs,
                s.total_ns,
                s.mean_ns()
            );
            out.push_str(if i + 1 == self.samples.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ],\n  \"speedup_mutex_over_lockfree_interleaved\": [\n");
        let pairs: Vec<(&str, usize, f64)> = ["AFS", "SS", "CSS(16)"]
            .iter()
            .flat_map(|&policy| {
                WORKERS
                    .iter()
                    .filter_map(move |&p| self.speedup(policy, p).map(|r| (policy, p, r)))
            })
            .collect();
        for (i, (policy, p, r)) in pairs.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"policy\": \"{policy}\", \"p\": {p}, \"speedup\": {r:.2}}}"
            );
            out.push_str(if i + 1 == pairs.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One interleaved pass: a single OS thread drives worker ids `0..p`
/// round-robin over `drains` fresh sources. Returns (grabs, wall ns).
///
/// Round-robin driving reproduces the request mix of a `p`-worker loop —
/// every worker's local queue drains at the same relative rate, so steals
/// kick in exactly where they would concurrently — while keeping the run
/// deterministic and free of OS-scheduler noise.
fn interleaved_pass(
    make: &dyn Fn() -> Box<dyn WorkSource>,
    p: usize,
    drains: u64,
    metrics: Option<&MetricsRegistry>,
) -> (u64, u64) {
    let sources: Vec<Box<dyn WorkSource>> = (0..drains).map(|_| make()).collect();
    let start = Instant::now();
    let mut grabs = 0u64;
    // Consume the grabbed range (checksum its bounds) rather than
    // `black_box`-ing the whole struct: the values stay live — as they
    // would feeding a loop body — without forcing a per-call stack spill
    // that would tax the cheap path disproportionately.
    let mut sum = 0u64;
    for src in &sources {
        loop {
            let mut any = false;
            for w in 0..p {
                if let Some(g) = src.next(w) {
                    sum = sum.wrapping_add(g.range.start ^ g.range.end);
                    grabs += 1;
                    any = true;
                    if let Some(m) = metrics {
                        m.worker(w).record_grab(g.access, g.range.len());
                    }
                }
            }
            if !any {
                break;
            }
        }
    }
    std::hint::black_box(sum);
    (grabs, start.elapsed().as_nanos() as u64)
}

/// One threaded pass: `p` OS threads drain `drains` fresh sources from
/// `make` back-to-back. Returns (total grabs, pass makespan ns).
///
/// The whole source list is built before the clock starts; each thread
/// walks it in order, so all live threads contend on the same source until
/// it drains. A long list keeps a pass well past one OS timeslice, so
/// oversubscribed runs get preempted *inside* the grab path (mutex convoys
/// vs lost CAS windows) instead of each thread draining a whole source
/// within its own slice.
fn threaded_pass(
    make: &dyn Fn() -> Box<dyn WorkSource>,
    p: usize,
    drains: u64,
    metrics: Option<&MetricsRegistry>,
) -> (u64, u64) {
    let sources: Vec<Box<dyn WorkSource>> = (0..drains).map(|_| make()).collect();
    // Each worker timestamps its own release and finish; the makespan is
    // max(finish) − min(release). (Timing from the main thread would be
    // wrong on an oversubscribed machine: the workers can run to
    // completion before the main thread is rescheduled after the
    // barrier.)
    let barrier = std::sync::Barrier::new(p);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|w| {
                let sources = &sources;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let begin = Instant::now();
                    let mut local = 0u64;
                    let mut sum = 0u64;
                    for src in sources {
                        while let Some(g) = src.next(w) {
                            sum = sum.wrapping_add(g.range.start ^ g.range.end);
                            local += 1;
                            if let Some(m) = metrics {
                                m.worker(w).record_grab(g.access, g.range.len());
                            }
                        }
                    }
                    std::hint::black_box(sum);
                    (local, begin, Instant::now())
                })
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("bench thread panicked"))
            .collect();
        let grabs = results.iter().map(|(g, _, _)| g).sum();
        let release = results.iter().map(|(_, b, _)| *b).min().unwrap();
        let finish = results.iter().map(|(_, _, e)| *e).max().unwrap();
        (grabs, (finish - release).as_nanos() as u64)
    })
}

/// Accumulates `reps` passes of the given protocol.
fn measure(
    protocol: &str,
    make: &dyn Fn() -> Box<dyn WorkSource>,
    p: usize,
    drains: u64,
    reps: u64,
    metrics: Option<&MetricsRegistry>,
) -> (u64, u64) {
    let mut grabs = 0u64;
    let mut total_ns = 0u64;
    for _ in 0..reps {
        let (g, ns) = match protocol {
            "interleaved" => interleaved_pass(make, p, drains, metrics),
            _ => threaded_pass(make, p, drains, metrics),
        };
        grabs += g;
        total_ns += ns;
    }
    (grabs, total_ns)
}

/// Runs the full grid. `quick` shrinks sizes for smoke tests/CI.
pub fn run(quick: bool) -> GrabBenchResult {
    run_with_metrics(quick, None)
}

/// Like [`run`], optionally recording every grab into `metrics` (sized for
/// at least [`WORKERS`]'s maximum). Recording is in the timed loop — that
/// is the point: it prices the always-on counters at the harshest spot in
/// the codebase, a bare grab with no loop body around it.
pub fn run_with_metrics(quick: bool, metrics: Option<&MetricsRegistry>) -> GrabBenchResult {
    type Make = Box<dyn Fn(u64, usize) -> Box<dyn WorkSource>>;
    // (policy, impl, factory, n, drains-per-pass). The per-queue policies
    // hand out only O(P·k·log n) chunks per loop, so they repeat many small
    // loops per pass; the central counters get their grab volume from one
    // big loop instead.
    let afs_n: u64 = if quick { 4_096 } else { 1 << 20 };
    let afs_drains: u64 = if quick { 8 } else { 512 };
    let ss_n: u64 = if quick { 16_384 } else { 1 << 21 };
    let css_n: u64 = if quick { 65_536 } else { 1 << 24 };
    let configs: Vec<(&'static str, &'static str, Make, u64, u64)> = vec![
        (
            "AFS",
            "mutex",
            Box::new(|n, p| {
                Box::new(LockedSource::new(
                    Affinity::with_k_equals_p().begin_loop(n, p),
                ))
            }),
            afs_n,
            afs_drains,
        ),
        (
            "AFS",
            "lockfree",
            Box::new(|n, p| Box::new(AfsSource::new(n, p, p as u64))),
            afs_n,
            afs_drains,
        ),
        (
            "SS",
            "mutex",
            Box::new(|n, p| Box::new(LockedSource::new(SelfSched::new().begin_loop(n, p)))),
            ss_n,
            1,
        ),
        (
            "SS",
            "lockfree",
            Box::new(|n, _| Box::new(FetchAddSource::new(n, 1))),
            ss_n,
            1,
        ),
        (
            "CSS(16)",
            "mutex",
            Box::new(|n, p| Box::new(LockedSource::new(ChunkSelf::new(16).begin_loop(n, p)))),
            css_n,
            1,
        ),
        (
            "CSS(16)",
            "lockfree",
            Box::new(|n, _| Box::new(FetchAddSource::new(n, 16))),
            css_n,
            1,
        ),
        (
            "GSS",
            "mutex",
            Box::new(|n, p| Box::new(LockedSource::new(Gss::new().begin_loop(n, p)))),
            afs_n,
            afs_drains,
        ),
    ];
    let reps: u64 = if quick { 1 } else { 7 };

    let mut samples = Vec::new();
    let mut n_report = 0;
    for protocol in PROTOCOLS {
        for (policy, implementation, make, n, drains) in &configs {
            n_report = n_report.max(*n);
            for p in WORKERS {
                let factory = |n: u64, p: usize| move || make(n, p);
                let (grabs, total_ns) =
                    measure(protocol, &factory(*n, p), p, *drains, reps, metrics);
                samples.push(GrabSample {
                    protocol,
                    policy,
                    implementation,
                    p,
                    grabs,
                    total_ns,
                });
            }
        }
    }
    // Probe pin capability on a scratch thread so the bench thread itself
    // is never left pinned to core 0.
    let pin_capable = std::thread::spawn(|| afs_runtime::affinity::pin_current_to(0))
        .join()
        .unwrap_or(false);
    GrabBenchResult {
        quick,
        n: n_report,
        host: HostInfo::capture(pin_capable),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> GrabBenchResult {
        GrabBenchResult {
            quick: true,
            n: 100,
            host: HostInfo {
                cpus: 8,
                numa_nodes: 1,
                kernel: "6.1.0-test".into(),
                os: "linux".into(),
                arch: "x86_64".into(),
                pin_capable: false,
            },
            samples: vec![
                GrabSample {
                    protocol: "interleaved",
                    policy: "AFS",
                    implementation: "mutex",
                    p: 8,
                    grabs: 100,
                    total_ns: 40_000,
                },
                GrabSample {
                    protocol: "interleaved",
                    policy: "AFS",
                    implementation: "lockfree",
                    p: 8,
                    grabs: 100,
                    total_ns: 10_000,
                },
                GrabSample {
                    protocol: "threaded",
                    policy: "AFS",
                    implementation: "lockfree",
                    p: 8,
                    grabs: 100,
                    total_ns: 90_000,
                },
            ],
        }
    }

    #[test]
    fn speedup_is_mutex_over_lockfree_on_interleaved() {
        let r = synthetic();
        assert_eq!(r.mean_of("AFS", "mutex", 8), Some(400.0));
        assert!((r.speedup("AFS", 8).unwrap() - 4.0).abs() < 1e-9);
        // The threaded sample must not leak into the headline lookup.
        assert_eq!(r.mean_of("AFS", "lockfree", 8), Some(100.0));
        assert_eq!(r.mean_in("threaded", "AFS", "lockfree", 8), Some(900.0));
        assert_eq!(r.speedup("GSS", 8), None);
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let json = synthetic().to_json();
        let v = afs_trace::json::parse(&json).expect("valid JSON");
        assert_eq!(
            v.get("bench").and_then(|b| b.as_str()),
            Some("grab_latency")
        );
        assert_eq!(
            v.get("schema_version").and_then(|s| s.as_f64()),
            Some(SCHEMA_VERSION as f64)
        );
        let host = v.get("host").expect("host block");
        assert_eq!(host.get("cpus").and_then(|c| c.as_f64()), Some(8.0));
        assert_eq!(
            host.get("pin_capable").and_then(|b| b.as_bool()),
            Some(false)
        );
        let samples = v.get("samples").and_then(|s| s.as_array()).unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(
            samples[0].get("protocol").and_then(|m| m.as_str()),
            Some("interleaved")
        );
        assert_eq!(
            samples[1].get("mean_ns_per_grab").and_then(|m| m.as_f64()),
            Some(100.0)
        );
        let sp = v
            .get("speedup_mutex_over_lockfree_interleaved")
            .and_then(|s| s.as_array())
            .unwrap();
        assert_eq!(sp[0].get("speedup").and_then(|s| s.as_f64()), Some(4.0));
    }

    #[test]
    fn render_mentions_every_protocol_and_policy() {
        let text = synthetic().render();
        assert!(text.contains("interleaved"));
        assert!(text.contains("threaded"));
        assert!(text.contains("AFS"));
        assert!(text.contains("mutex"));
        assert!(text.contains("lockfree"));
        assert!(text.contains("speedup"));
    }
}
