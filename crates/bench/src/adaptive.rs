//! Adaptive-scheduling benchmark: does the self-tuning policy land where
//! a hand-tuned static (k, b) cell would?
//!
//! `repro --bench-adaptive` sweeps the static grid
//!
//! > k ∈ {1, 2, 4, 8} × grab-ahead b ∈ {1, 8}
//!
//! over the three paper kernels (SOR, Gaussian elimination, transitive
//! closure) plus one deliberately irregular loop whose per-iteration work
//! decays as a power law (`w(i) ∝ (i+1)^{-1}`), front-loading roughly
//! three quarters of each phase's work into the first worker's static
//! queue. Against that grid it runs the adaptive policy from the grid's
//! worst rung — the controller starts at (k = 1, b = 1), not at the
//! paper's default k = P (which is the oracle on these workloads and would
//! leave it nothing to decide) — and re-tunes itself between phases from
//! the pool's always-on counters.
//!
//! Two measurements per cell:
//!
//! * **wall time**, median over reps — not the min (an extreme order
//!   statistic that rewards whichever cell got lucky on a shared host)
//!   and not the mean (one descheduled rep drags it arbitrarily far).
//!   Reps are *interleaved* round-robin across all cells, so a noisy
//!   stretch of the host lands on every cell instead of whichever
//!   happened to be measuring;
//! * for the irregular loop, the **modeled makespan**: a deterministic
//!   replay of the cell's (k, b) operating point on P *virtual dedicated*
//!   processors. The replay drives the real [`AfsSource`] single-threaded
//!   in virtual time — always advancing the worker with the least
//!   accumulated work, exactly the discrete-event order P unloaded cores
//!   would produce — and reports the maximum virtual clock. That is the
//!   quantity the paper's analysis bounds, and — like the Theorem 3.2
//!   residuals in `--bench-faults` — it measures the *schedule* itself,
//!   which wall time on a CI container with fewer cores than P physically
//!   cannot (time-slicing makes every distribution of the same total work
//!   finish together, and lets idle workers drain the heavy queue by
//!   `⌈len/P⌉` back-steals whenever the owner's thread is descheduled, so
//!   a live span is OS-timing noise, not policy).
//!
//! The *checked envelope* (full runs only; `--quick` reports without
//! gating):
//!
//! * on every workload, the adaptive median wall time must land within
//!   10% of the best static cell — self-tuning must not lose to
//!   hand-tuning by more than noise;
//! * on the irregular loop, the *worst* static cell's modeled makespan
//!   must be at least 1.3× adaptive's — the whole point of closing the
//!   metrics loop is not having to guess (k, b), and a wrong guess
//!   (k = 1, or b = P claiming the whole queue in one grab: nothing left
//!   to steal) serializes most of the skewed phase on one worker.
//!
//! `repro` exits 1 when a checked gate fails, and `--check-bench
//! BENCH_adaptive.json` re-validates the committed file offline.

use affinity_sched::apps;
use afs_kernels::gauss::GaussSystem;
use afs_kernels::sor::SorGrid;
use afs_kernels::transitive::{random_graph, TransitiveClosure};
use afs_metrics::HostInfo;
use afs_runtime::source::{AfsSource, WorkSource};
use afs_runtime::{parallel_phases, AdaptController, Pool, RuntimeScheduler};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Schema version of `BENCH_adaptive.json`: the workspace-wide constant
/// (see [`afs_metrics::METRICS_SCHEMA_VERSION`]), never a private number.
pub const SCHEMA_VERSION: u64 = afs_metrics::METRICS_SCHEMA_VERSION;

/// Workers for every cell: the paper's P=8 configuration.
pub const P: usize = 8;

/// Workloads measured: the three paper kernels plus the power-law loop.
pub const WORKLOADS: [&str; 4] = ["sor", "gauss", "tc", "irregular"];

/// Static local-grab divisors swept (the adaptive controller's ladder at
/// P = 8).
pub const K_GRID: [u64; 4] = [1, 2, 4, 8];

/// Static grab-ahead batch sizes swept.
pub const B_GRID: [usize; 2] = [1, 8];

/// Checked gate: adaptive median wall time must be within this fraction
/// of the best static cell on every workload.
pub const WITHIN_FRACTION: f64 = 0.10;

/// Checked gate: on the irregular loop the worst static cell's modeled
/// makespan must be at least this many times adaptive's.
pub const IRREGULAR_MIN_SPEEDUP: f64 = 1.3;

/// Problem sizes; `--quick` shrinks everything for smoke runs.
struct Sizes {
    sor_n: usize,
    sor_steps: usize,
    gauss_n: usize,
    tc_n: usize,
    irr_n: u64,
    irr_phases: usize,
    irr_work: u64,
    reps: u32,
    /// Untimed runs before measuring: warms first-touch pages for every
    /// cell and lets the adaptive controller converge before its clock
    /// starts.
    warmups: u32,
}

impl Sizes {
    fn of(quick: bool) -> Sizes {
        if quick {
            Sizes {
                sor_n: 16,
                sor_steps: 40,
                gauss_n: 48,
                tc_n: 48,
                irr_n: 512,
                irr_phases: 4,
                irr_work: 16_384,
                reps: 2,
                warmups: 1,
            }
        } else {
            Sizes {
                sor_n: 32,
                sor_steps: 200,
                gauss_n: 96,
                tc_n: 96,
                irr_n: 2_048,
                irr_phases: 12,
                irr_work: 262_144,
                reps: 7,
                warmups: 3,
            }
        }
    }
}

/// One measured static (workload, k, b) cell.
#[derive(Clone, Debug)]
pub struct StaticCell {
    /// `"sor"`, `"gauss"`, `"tc"` or `"irregular"`.
    pub workload: &'static str,
    /// Fixed local-grab divisor.
    pub k: u64,
    /// Fixed grab-ahead batch.
    pub b: usize,
    /// Worker count.
    pub p: usize,
    /// Timed repetitions.
    pub reps: u32,
    /// Best-of-reps makespan.
    pub best_ns: u64,
    /// Median-over-reps makespan — the gated number.
    pub median_ns: u64,
    /// Sum over reps.
    pub total_ns: u64,
    /// Modeled makespan of one full irregular run at this (k, b): max
    /// virtual-worker clock (mix rounds) from the deterministic replay.
    /// Zero for the regular kernels.
    pub span: u64,
}

/// The adaptive row for one workload, with the controller's verdict.
#[derive(Clone, Debug)]
pub struct AdaptiveRow {
    /// Workload name.
    pub workload: &'static str,
    /// Worker count.
    pub p: usize,
    /// Timed repetitions.
    pub reps: u32,
    /// Best-of-reps makespan.
    pub best_ns: u64,
    /// Median-over-reps makespan — the gated number.
    pub median_ns: u64,
    /// Sum over reps.
    pub total_ns: u64,
    /// Modeled makespan (see [`StaticCell::span`]).
    pub span: u64,
    /// Subdivision k the controller ended on.
    pub final_k: u64,
    /// Grab-ahead b the controller ended on.
    pub final_b: usize,
    /// Retuning decisions taken across all reps (including warmups).
    pub decisions: u64,
    /// Phase boundaries observed.
    pub phases: u64,
    /// Whether the controller reported convergence.
    pub settled: bool,
}

/// The envelope verdict for one workload.
#[derive(Clone, Debug)]
pub struct WorkloadGate {
    /// Workload name.
    pub workload: &'static str,
    /// Fastest static cell, by median wall time.
    pub best_static_median_ns: u64,
    /// Slowest static cell, by median wall time.
    pub worst_static_median_ns: u64,
    /// Adaptive median wall time.
    pub adaptive_median_ns: u64,
    /// `adaptive ≤ (1 + WITHIN_FRACTION) × best static` on median wall time.
    pub within_10pct: bool,
    /// Largest static modeled makespan (0 for the regular kernels).
    pub worst_span: u64,
    /// Adaptive modeled makespan (0 for the regular kernels).
    pub adaptive_span: u64,
    /// `worst_span / adaptive_span` — the modeled cost of guessing (k, b)
    /// wrong. Zero for the regular kernels.
    pub span_ratio: f64,
    /// The gate for this workload: `within_10pct`, and on the irregular
    /// loop also `span_ratio ≥ IRREGULAR_MIN_SPEEDUP`.
    pub ok: bool,
}

/// Everything one `--bench-adaptive` run produces.
#[derive(Clone, Debug)]
pub struct AdaptiveBenchResult {
    /// Quick (smoke) sizes?
    pub quick: bool,
    /// Whether the envelope gates apply (full runs only).
    pub checked: bool,
    /// Host the numbers were measured on.
    pub host: HostInfo,
    /// The static grid, all workloads.
    pub samples: Vec<StaticCell>,
    /// One adaptive row per workload.
    pub adaptive: Vec<AdaptiveRow>,
    /// One verdict per workload.
    pub gates: Vec<WorkloadGate>,
}

impl AdaptiveBenchResult {
    /// True unless a checked gate failed.
    pub fn ok(&self) -> bool {
        !self.checked || self.gates.iter().all(|g| g.ok)
    }

    /// Paper-style tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "\n## Adaptive (k, b) self-tuning vs the static grid (P = {P}{})",
            if self.quick { ", quick sizes" } else { "" }
        );
        for w in WORKLOADS {
            let _ = writeln!(out, "\n### {w}");
            let _ = writeln!(
                out,
                "{:>4} {:>4} {:>12} {:>12} {:>14}",
                "k", "b", "median", "best", "span"
            );
            for s in self.samples.iter().filter(|s| s.workload == w) {
                let _ = writeln!(
                    out,
                    "{:>4} {:>4} {:>10}us {:>10}us {:>14}",
                    s.k,
                    s.b,
                    s.median_ns / 1_000,
                    s.best_ns / 1_000,
                    s.span
                );
            }
            if let Some(a) = self.adaptive.iter().find(|a| a.workload == w) {
                let _ = writeln!(
                    out,
                    "{:>9} {:>10}us {:>10}us {:>14}  -> (k={}, b={}), {} decisions, {}",
                    "ADAPTIVE",
                    a.median_ns / 1_000,
                    a.best_ns / 1_000,
                    a.span,
                    a.final_k,
                    a.final_b,
                    a.decisions,
                    if a.settled { "settled" } else { "unsettled" }
                );
            }
            if let Some(g) = self.gates.iter().find(|g| g.workload == w) {
                let _ = writeln!(
                    out,
                    "gate: adaptive/best-static = {:.3} (median wall){} -> {}",
                    g.adaptive_median_ns as f64 / g.best_static_median_ns.max(1) as f64,
                    if g.adaptive_span > 0 {
                        format!(", worst/adaptive span = {:.2}x", g.span_ratio)
                    } else {
                        String::new()
                    },
                    if !self.checked {
                        "unchecked"
                    } else if g.ok {
                        "OK"
                    } else {
                        "VIOLATED"
                    }
                );
            }
        }
        out
    }

    /// The `BENCH_adaptive.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"bench\": \"adaptive\",");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"host\": {},", self.host.to_json());
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"checked\": {},", self.checked);
        let _ = writeln!(out, "  \"p\": {P},");
        let _ = writeln!(out, "  \"irregular_min_speedup\": {IRREGULAR_MIN_SPEEDUP},");
        out.push_str("  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"workload\": \"{}\", \"k\": {}, \"b\": {}, \"p\": {}, \
                 \"reps\": {}, \"best_ns\": {}, \"median_ns\": {}, \"total_ns\": {}, \
                 \"span\": {}}}",
                s.workload, s.k, s.b, s.p, s.reps, s.best_ns, s.median_ns, s.total_ns, s.span
            );
            out.push_str(if i + 1 < self.samples.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"adaptive\": [\n");
        for (i, a) in self.adaptive.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"workload\": \"{}\", \"p\": {}, \"reps\": {}, \
                 \"best_ns\": {}, \"median_ns\": {}, \"total_ns\": {}, \"span\": {}, \
                 \"final_k\": {}, \"final_b\": {}, \"decisions\": {}, \"phases\": {}, \
                 \"settled\": {}}}",
                a.workload,
                a.p,
                a.reps,
                a.best_ns,
                a.median_ns,
                a.total_ns,
                a.span,
                a.final_k,
                a.final_b,
                a.decisions,
                a.phases,
                a.settled
            );
            out.push_str(if i + 1 < self.adaptive.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"gates\": [\n");
        for (i, g) in self.gates.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"workload\": \"{}\", \"best_static_median_ns\": {}, \
                 \"worst_static_median_ns\": {}, \"adaptive_median_ns\": {}, \
                 \"within_10pct\": {}, \"worst_span\": {}, \"adaptive_span\": {}, \
                 \"span_ratio\": {:.4}, \"ok\": {}}}",
                g.workload,
                g.best_static_median_ns,
                g.worst_static_median_ns,
                g.adaptive_median_ns,
                g.within_10pct,
                g.worst_span,
                g.adaptive_span,
                g.span_ratio,
                g.ok
            );
            out.push_str(if i + 1 < self.gates.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

thread_local! {
    /// This worker's index within the bench pool, seeded via [`Pool::run`]
    /// before the irregular loop so its body can attribute executed work.
    static WORKER_SLOT: Cell<usize> = const { Cell::new(0) };
}

/// Stride (in `u64`s) between per-worker accumulator slots: one cache
/// line each, so attribution never bounces a line between workers.
const ACC_STRIDE: usize = 16;

/// Runs one workload once on `pool` and returns its wall makespan in
/// nanoseconds. Panics if the metrics disagree with the known iteration
/// count.
fn run_workload(workload: &str, pool: &Pool, policy: &RuntimeScheduler, sizes: &Sizes) -> u64 {
    match workload {
        "sor" => {
            let n = sizes.sor_n;
            let mut grid = SorGrid::new(n);
            let start = Instant::now();
            let m = apps::par_sor(pool, &mut grid, sizes.sor_steps, policy);
            let ns = start.elapsed().as_nanos() as u64;
            assert_eq!(m.total_iters(), (sizes.sor_steps * n) as u64, "sor");
            ns
        }
        "gauss" => {
            let n = sizes.gauss_n;
            let mut sys = GaussSystem::new(n, 0xBE7C);
            let start = Instant::now();
            let m = apps::par_gauss(pool, &mut sys, policy);
            let ns = start.elapsed().as_nanos() as u64;
            assert_eq!(m.total_iters(), (n * (n - 1) / 2) as u64, "gauss");
            ns
        }
        "tc" => {
            let n = sizes.tc_n;
            let mut tc = TransitiveClosure::new(random_graph(n, 0.05, 0xBE7C));
            let start = Instant::now();
            let m = apps::par_transitive(pool, &mut tc, policy);
            let ns = start.elapsed().as_nanos() as u64;
            assert_eq!(m.total_iters(), (n * n) as u64, "tc");
            ns
        }
        "irregular" => run_irregular(pool, policy, sizes),
        other => panic!("unknown workload {other}"),
    }
}

/// The power-law loop: iteration `i` does `irr_work / (i+1)` rounds of
/// integer mixing, so roughly `1 - ln(P)/ln(n)` — about three quarters at
/// these sizes — of each phase's work sits in the first worker's static
/// queue. Policies that cannot move that work (k = 1, or grab-ahead
/// claiming every chunk in one CAS: nothing left to steal) serialize it
/// on one worker, which the modeled makespan exposes regardless of how
/// many physical cores the host has.
fn run_irregular(pool: &Pool, policy: &RuntimeScheduler, sizes: &Sizes) -> u64 {
    let n = sizes.irr_n;
    let work = sizes.irr_work;
    // Teach every pool thread its index so the body can attribute work.
    pool.run(|w| WORKER_SLOT.with(|c| c.set(w)));
    let acc: Vec<AtomicU64> = (0..P * ACC_STRIDE).map(|_| AtomicU64::new(0)).collect();
    let start = Instant::now();
    let m = parallel_phases(
        pool,
        sizes.irr_phases,
        |_| n,
        policy,
        |_, i| {
            let rounds = work / (i + 1);
            let mut x = i ^ 0x9E37_79B9_7F4A_7C15;
            for _ in 0..rounds {
                x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23) ^ (x >> 17);
            }
            std::hint::black_box(x);
            WORKER_SLOT.with(|c| acc[c.get() * ACC_STRIDE].fetch_add(rounds, Ordering::Relaxed));
        },
    );
    let ns = start.elapsed().as_nanos() as u64;
    assert_eq!(m.total_iters(), n * sizes.irr_phases as u64, "irregular");
    // Exactly-once with weights: the attributed rounds must add up to the
    // workload's known total — a stronger live invariant than the plain
    // iteration count above.
    let executed: u64 = (0..P)
        .map(|w| acc[w * ACC_STRIDE].load(Ordering::Relaxed))
        .sum();
    let expected: u64 = (0..n).map(|i| work / (i + 1)).sum::<u64>() * sizes.irr_phases as u64;
    assert_eq!(
        executed, expected,
        "irregular: attributed work must cover every weighted iteration exactly once"
    );
    ns
}

/// The modeled makespan of the irregular loop at a fixed (k, b): a
/// deterministic replay on P virtual *dedicated* processors. The real
/// [`AfsSource`] is driven single-threaded in virtual time — each step
/// advances the live worker with the least accumulated work (ties to the
/// lowest index), the discrete-event order P unloaded cores would
/// produce — and each grab adds its iterations' mix rounds to that
/// worker's clock. Returns the maximum clock, summed over phases.
///
/// This replays the *actual* grab/steal implementation (front local
/// chunks of `⌈len/k⌉`, back steals of `⌈len/P⌉`, most-loaded victim
/// selection), so it is the schedule the policy itself commits to,
/// independent of how the host OS happens to time-slice the bench.
fn modeled_span(k: u64, b: usize, sizes: &Sizes) -> u64 {
    let cost = |i: u64| sizes.irr_work / (i + 1);
    let mut total = 0u64;
    for _ in 0..sizes.irr_phases {
        let src = AfsSource::new(sizes.irr_n, P, k).with_grab_ahead(b);
        let mut clock = [0u64; P];
        let mut live = [true; P];
        while let Some(w) = (0..P).filter(|&w| live[w]).min_by_key(|&w| clock[w]) {
            match src.next(w) {
                Some(g) => clock[w] += (g.range.start..g.range.end).map(cost).sum::<u64>(),
                None => live[w] = false,
            }
        }
        total += clock.into_iter().max().unwrap_or(0);
    }
    total
}

fn gate_of(workload: &'static str, cells: &[StaticCell], adaptive: &AdaptiveRow) -> WorkloadGate {
    let best = cells.iter().map(|c| c.median_ns).min().unwrap_or(u64::MAX);
    let worst = cells.iter().map(|c| c.median_ns).max().unwrap_or(0);
    let within = adaptive.median_ns as f64 <= (1.0 + WITHIN_FRACTION) * best as f64;
    let worst_span = cells.iter().map(|c| c.span).max().unwrap_or(0);
    let span_ratio = if adaptive.span > 0 {
        worst_span as f64 / adaptive.span as f64
    } else {
        0.0
    };
    WorkloadGate {
        workload,
        best_static_median_ns: best,
        worst_static_median_ns: worst,
        adaptive_median_ns: adaptive.median_ns,
        within_10pct: within,
        worst_span,
        adaptive_span: adaptive.span,
        span_ratio,
        ok: within && (workload != "irregular" || span_ratio >= IRREGULAR_MIN_SPEEDUP),
    }
}

/// `(best, median, total)` of a non-empty sample set.
fn stats(ns: &mut [u64]) -> (u64, u64, u64) {
    ns.sort_unstable();
    (ns[0], ns[ns.len() / 2], ns.iter().sum())
}

fn run_sized(quick: bool, sizes: &Sizes) -> AdaptiveBenchResult {
    // An honest pin probe for the host block (the bench itself never
    // pins): can a scratch thread land on CPU 0?
    let pin_ok = std::thread::spawn(|| afs_runtime::affinity::pin_current_to(0))
        .join()
        .unwrap_or(false);
    let mut samples = Vec::new();
    let mut adaptive = Vec::new();
    let mut gates = Vec::new();
    for workload in WORKLOADS {
        // One pool per workload, shared by every cell (static grid and
        // adaptive alike) so no row benefits from warmer threads.
        let pool = Pool::builder(P).spin_budget(4_096, 64).build();
        let irregular = workload == "irregular";
        let grid: Vec<(u64, usize, RuntimeScheduler)> = K_GRID
            .iter()
            .flat_map(|&k| B_GRID.iter().map(move |&b| (k, b)))
            .map(|(k, b)| (k, b, RuntimeScheduler::afs_tuned(k, b)))
            .collect();
        let adaptive_policy =
            RuntimeScheduler::adaptive_with(Arc::new(AdaptController::with_initial(P, 1, 1)));
        // Warmups: one untimed pass over the static grid, then enough
        // adaptive passes for the controller to converge before its
        // clock starts.
        for (_, _, policy) in &grid {
            run_workload(workload, &pool, policy, sizes);
        }
        for _ in 0..sizes.warmups {
            run_workload(workload, &pool, &adaptive_policy, sizes);
        }
        // Timed reps, interleaved round-robin across all nine cells:
        // host noise (another container, a descheduled stretch) lands on
        // every cell of the round instead of whichever was measuring.
        let mut wall: Vec<Vec<u64>> = vec![Vec::new(); grid.len() + 1];
        for _ in 0..sizes.reps {
            for (i, (_, _, policy)) in grid.iter().enumerate() {
                wall[i].push(run_workload(workload, &pool, policy, sizes));
            }
            wall[grid.len()].push(run_workload(workload, &pool, &adaptive_policy, sizes));
        }
        let mut cells = Vec::new();
        for (i, (k, b, _)) in grid.iter().enumerate() {
            let (best, median, total) = stats(&mut wall[i]);
            cells.push(StaticCell {
                workload,
                k: *k,
                b: *b,
                p: P,
                reps: sizes.reps,
                best_ns: best,
                median_ns: median,
                total_ns: total,
                span: if irregular {
                    modeled_span(*k, *b, sizes)
                } else {
                    0
                },
            });
        }
        let (best, median, total) = stats(&mut wall[grid.len()]);
        let ctl = adaptive_policy.controller().expect("adaptive policy");
        let (final_k, final_b) = ctl.current();
        let row = AdaptiveRow {
            workload,
            p: P,
            reps: sizes.reps,
            best_ns: best,
            median_ns: median,
            total_ns: total,
            // The span of the operating point the controller converged
            // to: self-tuning is judged by where it *landed*.
            span: if irregular {
                modeled_span(final_k, final_b, sizes)
            } else {
                0
            },
            final_k,
            final_b,
            decisions: ctl.decisions(),
            phases: ctl.phases(),
            settled: ctl.settled(),
        };
        gates.push(gate_of(workload, &cells, &row));
        samples.extend(cells);
        adaptive.push(row);
    }
    AdaptiveBenchResult {
        quick,
        checked: !quick,
        host: HostInfo::capture(pin_ok),
        samples,
        adaptive,
        gates,
    }
}

/// Runs the full sweep. `quick` shrinks sizes and disables the gates.
pub fn run(quick: bool) -> AdaptiveBenchResult {
    run_sized(quick, &Sizes::of(quick))
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_metrics::HostInfo;

    fn synthetic(adaptive_ns: u64, adaptive_span: u64, checked: bool) -> AdaptiveBenchResult {
        let cell = |workload, k, median_ns, span| StaticCell {
            workload,
            k,
            b: 1,
            p: P,
            reps: 3,
            best_ns: median_ns - 1,
            median_ns,
            total_ns: median_ns * 3,
            span,
        };
        let row = |workload, span| AdaptiveRow {
            workload,
            p: P,
            reps: 3,
            best_ns: adaptive_ns - 1,
            median_ns: adaptive_ns,
            total_ns: adaptive_ns * 3,
            span,
            final_k: 8,
            final_b: 2,
            decisions: 4,
            phases: 60,
            settled: true,
        };
        let mut samples = Vec::new();
        let mut adaptive = Vec::new();
        let mut gates = Vec::new();
        for w in WORKLOADS {
            let irr = w == "irregular";
            let cells = vec![
                cell(w, 1, 1_200_000, if irr { 7_000_000 } else { 0 }),
                cell(w, 8, 1_000_000, if irr { 2_100_000 } else { 0 }),
            ];
            let a = row(w, if irr { adaptive_span } else { 0 });
            gates.push(gate_of(w, &cells, &a));
            samples.extend(cells);
            adaptive.push(a);
        }
        AdaptiveBenchResult {
            quick: !checked,
            checked,
            host: HostInfo {
                cpus: 8,
                kernel: "test".into(),
                os: "linux".into(),
                arch: "x86_64".into(),
                pin_capable: false,
                numa_nodes: 1,
            },
            samples,
            adaptive,
            gates,
        }
    }

    #[test]
    fn gates_enforce_the_envelope_only_when_checked() {
        // Adaptive at par with the best cell, worst span 3.5x adaptive's:
        // everything ok.
        let good = synthetic(1_020_000, 2_000_000, true);
        assert!(good.ok());
        assert!(good.gates.iter().all(|g| g.within_10pct));

        // Adaptive 2x slower than the best static cell: within_10pct
        // fails on every workload.
        let slow = synthetic(2_000_000, 2_000_000, true);
        assert!(!slow.ok());
        assert!(slow.gates.iter().all(|g| !g.within_10pct));

        // Adaptive's modeled span nearly as bad as the worst static
        // cell's: the irregular span gate fails, the regular kernels
        // (which carry no span) do not.
        let unbalanced = synthetic(1_020_000, 6_000_000, true);
        assert!(!unbalanced.ok());
        for g in &unbalanced.gates {
            assert_eq!(g.ok, g.workload != "irregular", "{}", g.workload);
        }

        // Quick runs report the same numbers without gating.
        let quick = synthetic(2_000_000, 6_000_000, false);
        assert!(quick.ok());
    }

    #[test]
    fn json_round_trips_through_the_in_tree_parser() {
        let doc = afs_trace::json::parse(&synthetic(1_000_000, 2_000_000, true).to_json())
            .expect("bench JSON must parse");
        assert_eq!(doc.get("bench").and_then(|v| v.as_str()), Some("adaptive"));
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_f64()),
            Some(SCHEMA_VERSION as f64)
        );
        let samples = doc.get("samples").and_then(|v| v.as_array()).unwrap();
        assert_eq!(samples.len(), 2 * WORKLOADS.len());
        let gates = doc.get("gates").and_then(|v| v.as_array()).unwrap();
        assert_eq!(gates.len(), WORKLOADS.len());
        assert!(gates
            .iter()
            .all(|g| g.get("ok").and_then(|v| v.as_bool()) == Some(true)));
        let irr = gates
            .iter()
            .find(|g| g.get("workload").and_then(|v| v.as_str()) == Some("irregular"))
            .expect("irregular gate row");
        assert_eq!(irr.get("span_ratio").and_then(|v| v.as_f64()), Some(3.5));
        let rows = doc.get("adaptive").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), WORKLOADS.len());
        assert_eq!(rows[0].get("final_k").and_then(|v| v.as_f64()), Some(8.0));
    }

    /// A micro-sized real sweep: every cell present, every gate row
    /// populated, render and JSON hold together, and the irregular
    /// loop's attributed work adds up. Sizes are tiny and the run is
    /// unchecked — this is a plumbing test, not a measurement.
    #[test]
    fn micro_sweep_produces_full_grid() {
        let sizes = Sizes {
            sor_n: 8,
            sor_steps: 4,
            gauss_n: 12,
            tc_n: 12,
            irr_n: 64,
            irr_phases: 2,
            irr_work: 64,
            reps: 1,
            warmups: 0,
        };
        let r = run_sized(true, &sizes);
        assert!(r.ok(), "quick runs never gate");
        assert_eq!(
            r.samples.len(),
            WORKLOADS.len() * K_GRID.len() * B_GRID.len()
        );
        assert_eq!(r.adaptive.len(), WORKLOADS.len());
        assert_eq!(r.gates.len(), WORKLOADS.len());
        assert!(r
            .samples
            .iter()
            .all(|s| s.best_ns >= 1 && s.best_ns <= s.total_ns && s.median_ns <= s.total_ns));
        // Every irregular row attributed work to some worker.
        assert!(r
            .samples
            .iter()
            .filter(|s| s.workload == "irregular")
            .all(|s| s.span > 0));
        assert!(r.render().contains("ADAPTIVE"));
        afs_trace::json::parse(&r.to_json()).expect("real-run JSON must parse");
    }
}
