//! `benchmark compare A1.json B1.json [A2.json B2.json …]`: applies the
//! bounds `BENCHMARK.json` fixes, one row per workload × end-to-end metric,
//! to the medians of side A (the base) and side B over all the pairs given.

use crate::spec::Spec;
use crate::stats::{median, quartile_spread};
use affinity_sched::trace::json::{parse, Value};
use std::fmt::Write as _;

/// Pairs per side below which the table says the verdicts rest on too few
/// runs (`choosing-metrics` §8: at least ten pairs, alternating).
pub const PAIRS_WANTED: usize = 10;

/// What a comparison found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// The printed table.
    pub table: String,
    /// Rows where B is worse than A by more than the bound, runs with failed
    /// operations, metrics or workloads missing on one side.
    pub violations: usize,
    /// Rows within the bound whose base side spreads wider than the bound:
    /// neither a regression nor shown unchanged.
    pub unresolved: usize,
}

/// The runs of `workload` in the result documents of one side.
fn runs_of<'a>(docs: &'a [Value], workload: &str) -> Vec<&'a Value> {
    docs.iter()
        .filter_map(|d| d.get("runs")?.as_array())
        .flatten()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .collect()
}

/// `metric`'s value in each of `runs` that has it.
fn values(runs: &[&Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn parse_side(side: &str, texts: &[String]) -> Result<Vec<Value>, String> {
    texts
        .iter()
        .enumerate()
        .map(|(i, t)| parse(t).map_err(|e| format!("{side}{}: {e}", i + 1)))
        .collect()
}

/// Compares the result documents of side A (the base) with those of side B
/// under `spec`. Workloads absent from both sides are skipped.
pub fn compare(spec: &Spec, a_texts: &[String], b_texts: &[String]) -> Result<Verdict, String> {
    let a = parse_side("A", a_texts)?;
    let b = parse_side("B", b_texts)?;
    let mut v = Verdict::default();
    let _ = writeln!(
        v.table,
        "{:<15} {:<15} {:>12} {:>3} {:>12} {:>3} {:>7} {:>7} {:>6} {:>8}  verdict",
        "workload", "metric", "A median", "n", "B median", "n", "B/A", "worse", "bound", "A spread"
    );
    let mut fewest = usize::MAX;
    for workload in &spec.workloads {
        let (ra, rb) = (runs_of(&a, workload), runs_of(&b, workload));
        if ra.is_empty() && rb.is_empty() {
            continue;
        }
        if ra.is_empty() || rb.is_empty() {
            v.violations += 1;
            let _ = writeln!(
                v.table,
                "{workload:<15} present on only one side  VIOLATION"
            );
            continue;
        }
        fewest = fewest.min(ra.len()).min(rb.len());
        for (side, runs) in [("A", &ra), ("B", &rb)] {
            let failed: f64 = runs
                .iter()
                .map(|r| {
                    r.get("failed")
                        .and_then(Value::as_f64)
                        .unwrap_or(f64::INFINITY)
                })
                .sum();
            if failed != 0.0 {
                v.violations += 1;
                let _ = writeln!(
                    v.table,
                    "{workload:<15} {side}: {failed} failed operations  VIOLATION"
                );
            }
        }
        for m in &spec.end_to_end {
            let (va, vb) = (values(&ra, &m.name), values(&rb, &m.name));
            if va.len() != ra.len() || vb.len() != rb.len() {
                v.violations += 1;
                let _ = writeln!(v.table, "{workload:<15} {:<15} missing  VIOLATION", m.name);
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if m.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let bound = m.bound.unwrap_or(0.0);
            // B's worst run against A's best: when even that is no worse,
            // the spread cannot hide a regression.
            let every_b_beats_every_a = if m.higher_is_better {
                vb.iter().copied().fold(f64::INFINITY, f64::min)
                    >= va.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            } else {
                vb.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                    <= va.iter().copied().fold(f64::INFINITY, f64::min)
            };
            let spread = quartile_spread(&va);
            let verdict = if worse > bound {
                v.violations += 1;
                "VIOLATION"
            } else if spread.is_some_and(|s| s > bound) && !every_b_beats_every_a {
                v.unresolved += 1;
                "unresolved"
            } else {
                "ok"
            };
            let _ = writeln!(
                v.table,
                "{workload:<15} {:<15} {ma:>12.4} {:>3} {mb:>12.4} {:>3} {:>7.3} {:>+6.1}% {:>5.0}% {:>8}  {verdict} ({})",
                m.name,
                va.len(),
                vb.len(),
                mb / ma,
                worse * 100.0,
                bound * 100.0,
                spread.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0)),
                m.unit
            );
        }
    }
    if fewest < PAIRS_WANTED {
        let _ = writeln!(
            v.table,
            "# {fewest} run(s) per side: the bounds are meant for medians of {PAIRS_WANTED} interleaved pairs; fewer resolve only a change larger than the host's own regimes (see README)"
        );
    }
    Ok(v)
}
