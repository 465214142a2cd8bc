//! Bench-file validation and regression comparison (`repro --check-bench`).
//!
//! The committed `BENCH_grabs.json` / `BENCH_kernels.json` files are the
//! repo's performance trajectory; CI used to eyeball them with ad-hoc
//! one-liners. This module is the real gate:
//!
//! * [`validate`] — structural schema check of one bench document: the
//!   right `bench` tag, every sample row carrying every required field
//!   with the right type, sane values (non-zero grab counts, `best_ns ≤
//!   total_ns`, …). Accepts exactly the current schema version.
//! * [`compare`] — matches a fresh run against a baseline document cell by
//!   cell (kernels keyed on `kernel`+`policy`+`pinned`, grabs on
//!   `protocol`+`policy`+`impl`+`p`) and flags cells slower than
//!   `baseline × (1 + tolerance)`. Quick-vs-full mismatches compare
//!   nothing and produce a warning instead: the sizes differ, so the
//!   numbers are incommensurable.
//!
//! Everything here works on [`afs_core::json::Value`], the parse of what
//! the workspace's one JSON writer wrote.

use afs_core::json::{Obj, Value};
use afs_metrics::HostInfo;
use std::fmt;

/// Which benchmark a validated document holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchKind {
    /// `BENCH_grabs.json` (`"bench": "grab_latency"`).
    Grabs,
    /// `BENCH_kernels.json` (`"bench": "kernels"`).
    Kernels,
    /// `BENCH_faults.json` (`"bench": "faults"`).
    Faults,
    /// `BENCH_serve.json` (`"bench": "serve"`).
    Serve,
    /// `BENCH_adaptive.json` (`"bench": "adaptive"`).
    Adaptive,
    /// `BENCH_chaos.json` (`"bench": "chaos"`).
    Chaos,
}

impl fmt::Display for BenchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BenchKind::Grabs => "grab_latency",
            BenchKind::Kernels => "kernels",
            BenchKind::Faults => "faults",
            BenchKind::Serve => "serve",
            BenchKind::Adaptive => "adaptive",
            BenchKind::Chaos => "chaos",
        })
    }
}

/// The outcome of a baseline comparison.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Cells slower than baseline beyond tolerance, worst first.
    pub regressions: Vec<String>,
    /// Cells faster than baseline beyond tolerance (informational).
    pub improvements: Vec<String>,
    /// Non-fatal oddities: quick-vs-full mismatch, cells present on only
    /// one side, differing hosts.
    pub warnings: Vec<String>,
    /// Cells compared.
    pub compared: usize,
}

impl Comparison {
    /// True when no cell regressed.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn str_of<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Value::as_str)
}

fn num_of(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn bool_of(v: &Value, key: &str) -> Option<bool> {
    v.get(key).and_then(Value::as_bool)
}

/// Writes what every bench document opens with and [`validate_envelope`]
/// checks: the `bench` tag, the current schema version, the host block
/// and the `quick` flag.
pub(crate) fn write_envelope<'o, 'a>(
    o: &'o mut Obj<'a>,
    kind: BenchKind,
    host: &HostInfo,
    quick: bool,
) -> &'o mut Obj<'a> {
    o.field("bench", &kind.to_string())
        .field("schema_version", &afs_metrics::METRICS_SCHEMA_VERSION)
        .field("host", host)
        .field("quick", &quick)
}

/// Checks what every bench document carries: the current schema version
/// (older files are regenerated, not grandfathered), the host block, and
/// the `quick` flag.
fn validate_envelope(doc: &Value, errs: &mut Vec<String>) {
    let current = afs_metrics::METRICS_SCHEMA_VERSION as f64;
    match doc.get("schema_version").map(Value::as_f64) {
        Some(Some(n)) if n == current => {}
        Some(Some(n)) => errs.push(format!(
            "unknown schema_version {n} (this build reads {current})"
        )),
        Some(None) => errs.push("schema_version must be a number".into()),
        None => errs.push("missing schema_version".into()),
    }
    match doc.get("host") {
        None => errs.push("missing host block".into()),
        Some(host) => {
            if num_of(host, "cpus").is_none_or(|c| c < 1.0) {
                errs.push("host.cpus must be a number >= 1".into());
            }
            for key in ["kernel", "os", "arch"] {
                if str_of(host, key).is_none() {
                    errs.push(format!("host.{key} must be a string"));
                }
            }
            if bool_of(host, "pin_capable").is_none() {
                errs.push("host.pin_capable must be a boolean".into());
            }
        }
    }
    if doc.get("quick").is_none_or(|q| q.as_bool().is_none()) {
        errs.push("quick must be a boolean".into());
    }
}

fn validate_grab_sample(i: usize, s: &Value, errs: &mut Vec<String>) {
    let at = |field: &str| format!("samples[{i}].{field}");
    match str_of(s, "protocol") {
        Some("interleaved") | Some("threaded") => {}
        _ => errs.push(format!("{}: must be interleaved|threaded", at("protocol"))),
    }
    if str_of(s, "policy").is_none() {
        errs.push(format!("{}: must be a string", at("policy")));
    }
    match str_of(s, "impl") {
        Some("mutex") | Some("lockfree") => {}
        _ => errs.push(format!("{}: must be mutex|lockfree", at("impl"))),
    }
    if num_of(s, "p").is_none_or(|p| p < 1.0) {
        errs.push(format!("{}: must be a number >= 1", at("p")));
    }
    let grabs = num_of(s, "grabs");
    if grabs.is_none_or(|g| g < 1.0) {
        errs.push(format!("{}: must be a number >= 1", at("grabs")));
    }
    if num_of(s, "total_ns").is_none_or(|t| t < 1.0) {
        errs.push(format!("{}: must be a number >= 1", at("total_ns")));
    }
    if num_of(s, "mean_ns_per_grab").is_none_or(|m| m <= 0.0) {
        errs.push(format!(
            "{}: must be a positive number",
            at("mean_ns_per_grab")
        ));
    }
}

fn validate_kernel_sample(i: usize, s: &Value, errs: &mut Vec<String>) {
    let at = |field: &str| format!("samples[{i}].{field}");
    match str_of(s, "kernel") {
        Some("sor") | Some("gauss") | Some("tc") => {}
        _ => errs.push(format!("{}: must be sor|gauss|tc", at("kernel"))),
    }
    if str_of(s, "policy").is_none() {
        errs.push(format!("{}: must be a string", at("policy")));
    }
    if bool_of(s, "pinned").is_none() {
        errs.push(format!("{}: must be a boolean", at("pinned")));
    }
    for field in ["p", "phases", "iters", "reps"] {
        if num_of(s, field).is_none_or(|v| v < 1.0) {
            errs.push(format!("{}: must be a number >= 1", at(field)));
        }
    }
    match (num_of(s, "best_ns"), num_of(s, "total_ns")) {
        (Some(best), Some(total)) if best >= 1.0 && best <= total => {}
        (Some(_), Some(_)) => errs.push(format!(
            "{}: best_ns must satisfy 1 <= best_ns <= total_ns",
            at("best_ns")
        )),
        _ => errs.push(format!("{}/total_ns: must be numbers", at("best_ns"))),
    }
}

fn validate_faults_sample(i: usize, s: &Value, errs: &mut Vec<String>) {
    let at = |field: &str| format!("samples[{i}].{field}");
    if str_of(s, "policy").is_none() {
        errs.push(format!("{}: must be a string", at("policy")));
    }
    // `k` is present on every row but null for STATIC; when numeric it
    // must be a plausible divisor.
    if let Some(k) = s.get("k") {
        if !matches!(k, Value::Null) && k.as_f64().is_none_or(|k| k < 1.0) {
            errs.push(format!("{}: must be null or a number >= 1", at("k")));
        }
    } else {
        errs.push(format!("{}: must be present (null for STATIC)", at("k")));
    }
    for field in ["n", "p", "delay_ns", "makespan_ns", "baseline_makespan_ns"] {
        if num_of(s, field).is_none_or(|v| v < 1.0) {
            errs.push(format!("{}: must be a number >= 1", at(field)));
        }
    }
    if num_of(s, "residual_iters").is_none_or(|v| v < 0.0) {
        errs.push(format!("{}: must be a number >= 0", at("residual_iters")));
    }
    match s.get("bound_iters") {
        Some(Value::Null) | None => {} // STATIC rows carry no bound
        Some(b) if b.as_f64().is_some_and(|b| b >= 1.0) => {}
        Some(_) => errs.push(format!("{}: must be null or >= 1", at("bound_iters"))),
    }
    let within = bool_of(s, "within");
    let checked = bool_of(s, "checked");
    if within.is_none() {
        errs.push(format!("{}: must be a boolean", at("within")));
    }
    if checked.is_none() {
        errs.push(format!("{}: must be a boolean", at("checked")));
    }
    // The Theorem 3.2 gate itself: a checked row outside its allowance is
    // a validation failure, not just a regression.
    if checked == Some(true) && within == Some(false) {
        errs.push(format!(
            "{}: checked row violates the Theorem 3.2 allowance (within=false)",
            at("within")
        ));
    }
}

fn validate_serve_sample(i: usize, s: &Value, errs: &mut Vec<String>) {
    let at = |field: &str| format!("samples[{i}].{field}");
    match str_of(s, "discipline") {
        Some("fcfs") | Some("drr") | Some("batch") => {}
        _ => errs.push(format!("{}: must be fcfs|drr|batch", at("discipline"))),
    }
    match str_of(s, "mode") {
        Some("open") | Some("saturate") => {}
        _ => errs.push(format!("{}: must be open|saturate", at("mode"))),
    }
    if num_of(s, "rate_factor").is_none_or(|r| r < 0.0) {
        errs.push(format!("{}: must be a number >= 0", at("rate_factor")));
    }
    for field in ["offered", "wall_ns"] {
        if num_of(s, field).is_none_or(|v| v < 1.0) {
            errs.push(format!("{}: must be a number >= 1", at(field)));
        }
    }
    for field in ["shed", "dispatches", "batched_requests", "queue_p50_ns"] {
        if num_of(s, field).is_none_or(|v| v < 0.0) {
            errs.push(format!("{}: must be a number >= 0", at(field)));
        }
    }
    match (num_of(s, "completed"), num_of(s, "offered")) {
        (Some(done), Some(offered)) if done >= 0.0 && done <= offered => {
            // A cell that completed work must have measured dispatches and
            // a positive throughput — zeros there mean a corrupted row.
            if done >= 1.0 {
                if num_of(s, "throughput_rps").is_none_or(|t| t <= 0.0) {
                    errs.push(format!(
                        "{}: must be positive when requests completed",
                        at("throughput_rps")
                    ));
                }
                if num_of(s, "dispatches").is_some_and(|d| d < 1.0) {
                    errs.push(format!(
                        "{}: completed requests imply at least one dispatch",
                        at("dispatches")
                    ));
                }
            }
        }
        (Some(_), Some(_)) => errs.push(format!(
            "{}: must satisfy 0 <= completed <= offered",
            at("completed")
        )),
        _ => errs.push(format!("{}/offered: must be numbers", at("completed"))),
    }
    if num_of(s, "shed_rate").is_none_or(|r| !(0.0..=1.0).contains(&r)) {
        errs.push(format!("{}: must be a number in [0, 1]", at("shed_rate")));
    }
    match (
        num_of(s, "p50_ns"),
        num_of(s, "p99_ns"),
        num_of(s, "p999_ns"),
    ) {
        (Some(p50), Some(p99), Some(p999)) if p50 >= 0.0 && p50 <= p99 && p99 <= p999 => {}
        (Some(_), Some(_), Some(_)) => errs.push(format!(
            "{}: quantiles must be ordered 0 <= p50 <= p99 <= p999",
            at("p50_ns")
        )),
        _ => errs.push(format!("{}/p99_ns/p999_ns: must be numbers", at("p50_ns"))),
    }
    match s.get("affinity_hit_ratio") {
        Some(Value::Null) | None => {}
        Some(r) if r.as_f64().is_some_and(|r| (0.0..=1.0).contains(&r)) => {}
        Some(_) => errs.push(format!(
            "{}: must be null or a number in [0, 1]",
            at("affinity_hit_ratio")
        )),
    }
    match s.get("tenants").and_then(Value::as_array) {
        None | Some([]) => errs.push(format!("{}: must be a non-empty array", at("tenants"))),
        Some(tenants) => {
            for (j, t) in tenants.iter().enumerate() {
                if str_of(t, "name").is_none() {
                    errs.push(format!("{}[{j}].name: must be a string", at("tenants")));
                }
                for field in ["admitted", "completed", "shed"] {
                    if num_of(t, field).is_none_or(|v| v < 0.0) {
                        errs.push(format!(
                            "{}[{j}].{field}: must be a number >= 0",
                            at("tenants")
                        ));
                    }
                }
            }
        }
    }
}

fn validate_adaptive_sample(i: usize, s: &Value, errs: &mut Vec<String>) {
    let at = |field: &str| format!("samples[{i}].{field}");
    match str_of(s, "workload") {
        Some("sor") | Some("gauss") | Some("tc") | Some("irregular") => {}
        _ => errs.push(format!(
            "{}: must be sor|gauss|tc|irregular",
            at("workload")
        )),
    }
    for field in ["k", "b", "p", "reps"] {
        if num_of(s, field).is_none_or(|v| v < 1.0) {
            errs.push(format!("{}: must be a number >= 1", at(field)));
        }
    }
    match (
        num_of(s, "best_ns"),
        num_of(s, "median_ns"),
        num_of(s, "total_ns"),
    ) {
        (Some(best), Some(mid), Some(total)) if best >= 1.0 && best <= mid && mid <= total => {}
        (Some(_), Some(_), Some(_)) => errs.push(format!(
            "{}: must satisfy 1 <= best_ns <= median_ns <= total_ns",
            at("best_ns")
        )),
        _ => errs.push(format!(
            "{}/median_ns/total_ns: must be numbers",
            at("best_ns")
        )),
    }
    if num_of(s, "span").is_none() {
        errs.push(format!(
            "{}: must be a number (0 for the regular kernels)",
            at("span")
        ));
    }
}

/// The adaptive bench's gates live in the `gates` array: on checked
/// (full) runs every workload verdict must hold — self-tuning within 10%
/// of the best static (k, b) cell on mean wall time, and on the
/// irregular loop the worst static cell's modeled makespan at least
/// `irregular_min_speedup` times adaptive's — and the irregular row must
/// show the controller actually decided something (it starts from the
/// grid's worst rung; zero decisions means the within-10% verdict compared
/// a static cell with itself). Full runs are never allowed to opt out of
/// the check.
fn validate_adaptive_envelope(doc: &Value, errs: &mut Vec<String>) {
    let checked = bool_of(doc, "checked");
    if checked.is_none() {
        errs.push("adaptive bench requires a checked boolean".into());
    }
    if bool_of(doc, "quick") == Some(false) && checked == Some(false) {
        errs.push("full adaptive runs must gate the envelope (checked=false)".into());
    }
    if num_of(doc, "irregular_min_speedup").is_none_or(|s| s < 1.0) {
        errs.push("irregular_min_speedup must be a number >= 1".into());
    }
    match doc.get("adaptive").and_then(Value::as_array) {
        None | Some([]) => errs.push("adaptive bench requires non-empty adaptive rows".into()),
        Some(rows) => {
            for (i, a) in rows.iter().enumerate() {
                let at = |field: &str| format!("adaptive[{i}].{field}");
                for field in ["final_k", "final_b", "best_ns", "median_ns"] {
                    if num_of(a, field).is_none_or(|v| v < 1.0) {
                        errs.push(format!("{}: must be a number >= 1", at(field)));
                    }
                }
                if bool_of(a, "settled").is_none() {
                    errs.push(format!("{}: must be a boolean", at("settled")));
                }
                let decisions = num_of(a, "decisions");
                if decisions.is_none_or(|d| d < 0.0) {
                    errs.push(format!("{}: must be a number >= 0", at("decisions")));
                }
                if checked == Some(true)
                    && str_of(a, "workload") == Some("irregular")
                    && decisions == Some(0.0)
                {
                    errs.push(
                        "checked adaptive run: the controller made no decision on the \
                         irregular workload, so its envelope cannot fail"
                            .into(),
                    );
                }
            }
        }
    }
    match doc.get("gates").and_then(Value::as_array) {
        None | Some([]) => errs.push("adaptive bench requires non-empty gates".into()),
        Some(rows) => {
            let mut saw_irregular = false;
            for (i, g) in rows.iter().enumerate() {
                let at = |field: &str| format!("gates[{i}].{field}");
                saw_irregular |= str_of(g, "workload") == Some("irregular");
                let ok = bool_of(g, "ok");
                if ok.is_none() || bool_of(g, "within_10pct").is_none() {
                    errs.push(format!("{}/within_10pct: must be booleans", at("ok")));
                }
                if num_of(g, "span_ratio").is_none_or(|r| r < 0.0) {
                    errs.push(format!("{}: must be a number >= 0", at("span_ratio")));
                }
                // The gate itself: a checked run with a failed workload
                // verdict is a validation failure, not just a regression.
                if checked == Some(true) && ok == Some(false) {
                    errs.push(format!(
                        "checked adaptive run: envelope violated on workload {:?} \
                         (adaptive median {} ns vs best static median {} ns, \
                         worst/adaptive span {:.2}x)",
                        str_of(g, "workload").unwrap_or("?"),
                        num_of(g, "adaptive_median_ns").unwrap_or(0.0),
                        num_of(g, "best_static_median_ns").unwrap_or(0.0),
                        num_of(g, "span_ratio").unwrap_or(0.0),
                    ));
                }
            }
            if !saw_irregular {
                errs.push("adaptive bench gates must include the irregular workload".into());
            }
        }
    }
}

fn validate_chaos_sample(i: usize, s: &Value, errs: &mut Vec<String>) {
    let at = |field: &str| format!("samples[{i}].{field}");
    match str_of(s, "scenario") {
        Some("clean") | Some("delay") | Some("stall") | Some("preempt") | Some("panic") => {}
        _ => errs.push(format!(
            "{}: must be clean|delay|stall|preempt|panic",
            at("scenario")
        )),
    }
    match str_of(s, "discipline") {
        Some("fcfs") | Some("drr") | Some("batch") => {}
        _ => errs.push(format!("{}: must be fcfs|drr|batch", at("discipline"))),
    }
    for field in ["offered", "wall_ns"] {
        if num_of(s, field).is_none_or(|v| v < 1.0) {
            errs.push(format!("{}: must be a number >= 1", at(field)));
        }
    }
    for field in [
        "admitted",
        "completed",
        "timed_out",
        "failed",
        "expired",
        "shed_final",
        "shed_verdicts",
        "dispatches",
        "batched_requests",
        "supervisor_restarts",
        "expected_failures",
        "p999_bound_ns",
    ] {
        if num_of(s, field).is_none_or(|v| v < 0.0) {
            errs.push(format!("{}: must be a number >= 0", at(field)));
        }
    }
    for field in ["ledger_exact", "isolated", "probe_ok", "tail_bounded"] {
        if bool_of(s, field).is_none() {
            errs.push(format!("{}: must be a boolean", at(field)));
        }
    }
    match (
        num_of(s, "p50_ns"),
        num_of(s, "p99_ns"),
        num_of(s, "p999_ns"),
    ) {
        (Some(p50), Some(p99), Some(p999)) if p50 >= 0.0 && p50 <= p99 && p99 <= p999 => {}
        (Some(_), Some(_), Some(_)) => errs.push(format!(
            "{}: quantiles must be ordered 0 <= p50 <= p99 <= p999",
            at("p50_ns")
        )),
        _ => errs.push(format!("{}/p99_ns/p999_ns: must be numbers", at("p50_ns"))),
    }
    // The hard invariants, recomputed from the raw counts — a document
    // claiming `ledger_exact` while the arithmetic disagrees is corrupt.
    if let (Some(admitted), Some(completed), Some(failed), Some(expired)) = (
        num_of(s, "admitted"),
        num_of(s, "completed"),
        num_of(s, "failed"),
        num_of(s, "expired"),
    ) {
        if admitted != completed + failed + expired {
            errs.push(format!(
                "{}: ledger does not balance \
                 (admitted {admitted} != completed {completed} + failed {failed} \
                 + expired {expired})",
                at("admitted")
            ));
        }
    }
    if let (Some(failed), Some(expected)) = (num_of(s, "failed"), num_of(s, "expected_failures")) {
        if failed != expected {
            errs.push(format!(
                "{}: contained failures ({failed}) must equal injected \
                 poisons ({expected}) — cross-request damage",
                at("failed")
            ));
        }
    }
    // These verdicts are pass/fail at every run size: a chaos file
    // recording a broken ledger, bleed-over or a dead dispatcher must
    // never validate (like panic_containment in the faults bench).
    for (field, why) in [
        ("ledger_exact", "a request was lost or double-counted"),
        ("isolated", "a fault damaged a co-batched request"),
        ("probe_ok", "the dispatcher died under fault injection"),
    ] {
        if bool_of(s, field) == Some(false) {
            errs.push(format!("{}: {why}", at(field)));
        }
    }
}

/// The chaos gate's envelope: the aggregate verdicts must be present and
/// true, and checked (full) runs must also hold every cell's tail bound.
/// Full runs are never allowed to opt out of the check.
fn validate_chaos_envelope(doc: &Value, errs: &mut Vec<String>) {
    let checked = bool_of(doc, "checked");
    if checked.is_none() {
        errs.push("chaos bench requires a checked boolean".into());
    }
    if bool_of(doc, "quick") == Some(false) && checked == Some(false) {
        errs.push("full chaos runs must gate the tail bound (checked=false)".into());
    }
    if num_of(doc, "total_requests").is_none_or(|t| t < 1.0) {
        errs.push("chaos bench requires total_requests >= 1".into());
    }
    for (field, why) in [
        ("ledger_exact", "a cell's request ledger did not balance"),
        ("isolation", "a cell showed cross-request damage"),
        ("dispatcher_alive", "a cell's dispatcher died"),
    ] {
        match bool_of(doc, field) {
            Some(true) => {}
            Some(false) => errs.push(format!("{field} is false: {why}")),
            None => errs.push(format!("chaos bench requires a {field} boolean")),
        }
    }
    if checked == Some(true) {
        for (i, s) in doc
            .get("samples")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            if bool_of(s, "tail_bounded") == Some(false) {
                errs.push(format!(
                    "checked chaos run: p999 sojourn blew its allowance on \
                     samples[{i}] ({}/{}: {} ns > {} ns)",
                    str_of(s, "scenario").unwrap_or("?"),
                    str_of(s, "discipline").unwrap_or("?"),
                    num_of(s, "p999_ns").unwrap_or(0.0),
                    num_of(s, "p999_bound_ns").unwrap_or(0.0),
                ));
            }
        }
    }
}

/// The `small` tenant's p99 sojourn in `discipline`'s saturate row.
pub(crate) fn small_p99(doc: &Value, discipline: &str) -> Option<f64> {
    doc.get("samples")?
        .as_array()?
        .iter()
        .filter(|s| str_of(s, "discipline") == Some(discipline))
        .filter(|s| str_of(s, "mode") == Some("saturate"))
        .filter_map(|s| s.get("tenants").and_then(Value::as_array))
        .flatten()
        .find(|t| str_of(t, "name") == Some("small"))
        .and_then(|t| num_of(t, "p99_ns"))
}

/// The serve bench's headline gates live in the envelope, not a row, and
/// full runs are never allowed to opt out of them. On checked (full) runs
/// the batching discipline must hold its saturation-throughput win over
/// per-request FCFS, and DRR must hold what it is for: under saturation
/// the `small` tenant's p99 is below FCFS's (recomputed from the rows).
fn validate_serve_envelope(doc: &Value, errs: &mut Vec<String>) {
    if num_of(doc, "total_completed").is_none_or(|t| t < 1.0) {
        errs.push("serve bench requires total_completed >= 1".into());
    }
    let speedup = num_of(doc, "batch_over_fcfs");
    if speedup.is_none_or(|s| s <= 0.0) {
        errs.push("batch_over_fcfs must be a positive number".into());
    }
    let checked = bool_of(doc, "checked");
    if checked.is_none() {
        errs.push("serve bench requires a checked boolean".into());
    }
    if bool_of(doc, "quick") == Some(false) && checked == Some(false) {
        errs.push("full serve runs must gate the batching speedup (checked=false)".into());
    }
    if checked == Some(true) && speedup.is_some_and(|s| s < 1.0) {
        errs.push(format!(
            "checked serve run: batching lost to per-request FCFS \
             (batch_over_fcfs = {:.3} < 1)",
            speedup.unwrap_or(0.0)
        ));
    }
    if checked == Some(true) {
        match (small_p99(doc, "drr"), small_p99(doc, "fcfs")) {
            (Some(drr), Some(fcfs)) if drr < fcfs => {}
            (Some(drr), Some(fcfs)) => errs.push(format!(
                "checked serve run: DRR did not shield the small tenant \
                 (saturate small p99 {:.3} ms under drr >= {:.3} ms under fcfs)",
                drr / 1e6,
                fcfs / 1e6
            )),
            _ => errs.push(
                "checked serve run needs the small tenant's p99 in the \
                 drr and fcfs saturate rows"
                    .into(),
            ),
        }
    }
}

/// Validates one bench document structurally. Returns which bench it is,
/// or every problem found (never just the first — a corrupted file should
/// be diagnosable in one run).
pub fn validate(doc: &Value) -> Result<BenchKind, Vec<String>> {
    let mut errs = Vec::new();
    let kind = match str_of(doc, "bench") {
        Some("grab_latency") => Some(BenchKind::Grabs),
        Some("kernels") => Some(BenchKind::Kernels),
        Some("faults") => Some(BenchKind::Faults),
        Some("serve") => Some(BenchKind::Serve),
        Some("adaptive") => Some(BenchKind::Adaptive),
        Some("chaos") => Some(BenchKind::Chaos),
        Some(other) => {
            errs.push(format!("unknown bench tag {other:?}"));
            None
        }
        None => {
            errs.push("missing bench tag (is this a bench JSON at all?)".into());
            None
        }
    };
    validate_envelope(doc, &mut errs);
    if kind == Some(BenchKind::Faults) {
        // Containment is pass/fail: a fault file claiming a leaked panic
        // (or omitting the verdict) must never validate.
        match bool_of(doc, "panic_containment") {
            Some(true) => {}
            Some(false) => errs.push("panic_containment is false: a panic leaked".into()),
            None => errs.push("faults bench requires a panic_containment boolean".into()),
        }
    }
    if kind == Some(BenchKind::Serve) {
        validate_serve_envelope(doc, &mut errs);
    }
    if kind == Some(BenchKind::Adaptive) {
        validate_adaptive_envelope(doc, &mut errs);
    }
    if kind == Some(BenchKind::Chaos) {
        validate_chaos_envelope(doc, &mut errs);
    }
    match doc.get("samples").and_then(Value::as_array) {
        None => errs.push("samples must be an array".into()),
        Some([]) => errs.push("samples must not be empty".into()),
        Some(samples) => {
            for (i, s) in samples.iter().enumerate() {
                match kind {
                    Some(BenchKind::Grabs) => validate_grab_sample(i, s, &mut errs),
                    Some(BenchKind::Kernels) => validate_kernel_sample(i, s, &mut errs),
                    Some(BenchKind::Faults) => validate_faults_sample(i, s, &mut errs),
                    Some(BenchKind::Serve) => validate_serve_sample(i, s, &mut errs),
                    Some(BenchKind::Adaptive) => validate_adaptive_sample(i, s, &mut errs),
                    Some(BenchKind::Chaos) => validate_chaos_sample(i, s, &mut errs),
                    None => {}
                }
            }
        }
    }
    match (kind, errs.is_empty()) {
        (Some(k), true) => Ok(k),
        _ => Err(errs),
    }
}

/// The identity of one sample row within its document, and the headline
/// latency number regressions are judged on.
fn cell(kind: BenchKind, s: &Value) -> Option<(String, f64)> {
    match kind {
        BenchKind::Grabs => {
            let key = format!(
                "{}/{}/{}/P={}",
                str_of(s, "protocol")?,
                str_of(s, "policy")?,
                str_of(s, "impl")?,
                num_of(s, "p")?
            );
            Some((key, num_of(s, "mean_ns_per_grab")?))
        }
        BenchKind::Kernels => {
            let key = format!(
                "{}/{}/{}",
                str_of(s, "kernel")?,
                str_of(s, "policy")?,
                if bool_of(s, "pinned")? {
                    "pinned"
                } else {
                    "unpinned"
                }
            );
            Some((key, num_of(s, "best_ns")?))
        }
        BenchKind::Faults => {
            let k = match s.get("k").and_then(Value::as_f64) {
                Some(k) => format!("k={k}"),
                None => "k=-".into(),
            };
            let key = format!("{}/{k}/P={}", str_of(s, "policy")?, num_of(s, "p")?);
            // The residual is gated absolutely by `within`; cross-run
            // regressions are judged on the no-fault makespan.
            Some((key, num_of(s, "baseline_makespan_ns")?))
        }
        BenchKind::Serve => {
            let key = format!(
                "{}/{}/x{}",
                str_of(s, "discipline")?,
                str_of(s, "mode")?,
                num_of(s, "rate_factor")?
            );
            // One lower-is-better number that is meaningful at every load
            // point: wall nanoseconds per completed request (inverse
            // throughput). Tail quantiles are reported but backlog-shaped,
            // so they make a noisy regression metric.
            let done = num_of(s, "completed")?;
            if done < 1.0 {
                return None;
            }
            Some((key, num_of(s, "wall_ns")? / done))
        }
        BenchKind::Adaptive => {
            let key = format!(
                "{}/k={}/b={}",
                str_of(s, "workload")?,
                num_of(s, "k")?,
                num_of(s, "b")?
            );
            // Median-over-reps, matching the envelope gate: on shared
            // hosts the min of many reps is an extreme order statistic.
            Some((key, num_of(s, "median_ns")?))
        }
        BenchKind::Chaos => {
            let key = format!("{}/{}", str_of(s, "scenario")?, str_of(s, "discipline")?);
            // The invariants are gated absolutely by the validator;
            // cross-run regressions are judged on wall nanoseconds per
            // completed request, like the serve bench.
            let done = num_of(s, "completed")?;
            if done < 1.0 {
                return None;
            }
            Some((key, num_of(s, "wall_ns")? / done))
        }
    }
}

/// Compares a fresh bench run against a baseline document of the same
/// bench. A cell regresses when `current > baseline × (1 + tolerance)`;
/// symmetric improvements are reported informationally. Returns `Err` when
/// the documents are not comparable at all (different benches, or either
/// fails [`validate`]).
pub fn compare(
    current: &Value,
    baseline: &Value,
    tolerance: f64,
) -> Result<Comparison, Vec<String>> {
    let cur_kind = validate(current).map_err(|e| prefix("current", e))?;
    let base_kind = validate(baseline).map_err(|e| prefix("baseline", e))?;
    if cur_kind != base_kind {
        return Err(vec![format!(
            "bench mismatch: current is {cur_kind}, baseline is {base_kind}"
        )]);
    }
    let mut out = Comparison::default();
    let quick = |d: &Value| bool_of(d, "quick").unwrap_or(false);
    if quick(current) != quick(baseline) {
        out.warnings.push(format!(
            "quick-vs-full mismatch (current quick={}, baseline quick={}): \
             sizes differ, skipping cell comparison",
            quick(current),
            quick(baseline)
        ));
        return Ok(out);
    }
    if let (Some(cur_host), Some(base_host)) = (current.get("host"), baseline.get("host")) {
        // Only the keys the envelope check reads: a key an older file
        // still carries (schema 9's `numa_nodes`) is recorded data, not a
        // host change.
        let read =
            |h: &Value| ["cpus", "kernel", "os", "arch", "pin_capable"].map(|k| h.get(k).cloned());
        if read(cur_host) != read(base_host) {
            out.warnings.push(
                "hosts differ between current and baseline; \
                 treat regressions as hints, not verdicts"
                    .into(),
            );
        }
    }
    let rows = |d: &Value| -> Vec<(String, f64)> {
        let mut cells: Vec<(String, f64)> = d
            .get("samples")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|s| cell(cur_kind, s))
            .collect();
        if cur_kind == BenchKind::Adaptive {
            // The self-tuned rows live beside the static grid; each one
            // regression-gates on its median makespan too.
            for a in d.get("adaptive").and_then(Value::as_array).unwrap_or(&[]) {
                if let (Some(w), Some(mid)) = (str_of(a, "workload"), num_of(a, "median_ns")) {
                    cells.push((format!("{w}/adaptive"), mid));
                }
            }
        }
        cells
    };
    let base_rows = rows(baseline);
    for (key, cur) in rows(current) {
        let Some((_, base)) = base_rows.iter().find(|(k, _)| *k == key) else {
            out.warnings.push(format!("{key}: not in baseline"));
            continue;
        };
        out.compared += 1;
        let ratio = cur / base.max(1e-9);
        if ratio > 1.0 + tolerance {
            out.regressions.push(format!(
                "{key}: {cur:.0} ns vs baseline {base:.0} ns ({ratio:.2}x)"
            ));
        } else if ratio < 1.0 / (1.0 + tolerance) {
            out.improvements.push(format!(
                "{key}: {cur:.0} ns vs baseline {base:.0} ns ({ratio:.2}x)"
            ));
        }
    }
    for (key, _) in &base_rows {
        if !rows(current).iter().any(|(k, _)| k == key) {
            out.warnings
                .push(format!("{key}: in baseline but not in current run"));
        }
    }
    Ok(out)
}

fn prefix(which: &str, errs: Vec<String>) -> Vec<String> {
    errs.into_iter().map(|e| format!("{which}: {e}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{adaptive, chaos, faults, grabs, kernels, serve};
    use afs_core::json::parse;

    // Each fixture is a bench's synthetic result, edited, then written by
    // its own `to_json` and parsed back: the checker is tested against
    // what the writer writes.

    fn grabs_doc(edit: impl FnOnce(&mut grabs::GrabBenchResult)) -> Value {
        let mut r = grabs::tests::synthetic();
        edit(&mut r);
        parse(&r.to_json()).unwrap()
    }

    fn kernels_doc(edit: impl FnOnce(&mut kernels::KernelBenchResult)) -> Value {
        let mut r = kernels::tests::synthetic();
        edit(&mut r);
        parse(&r.to_json()).unwrap()
    }

    fn faults_doc(edit: impl FnOnce(&mut faults::FaultBenchResult)) -> Value {
        let mut r = faults::tests::synthetic();
        edit(&mut r);
        parse(&r.to_json()).unwrap()
    }

    fn serve_doc(edit: impl FnOnce(&mut serve::ServeBenchResult)) -> Value {
        let mut r = serve::tests::synthetic();
        edit(&mut r);
        parse(&r.to_json()).unwrap()
    }

    fn chaos_doc(edit: impl FnOnce(&mut chaos::ChaosBenchResult)) -> Value {
        let mut r = chaos::tests::synthetic();
        edit(&mut r);
        parse(&r.to_json()).unwrap()
    }

    fn adaptive_doc(r: adaptive::AdaptiveBenchResult) -> Value {
        parse(&r.to_json()).unwrap()
    }

    /// A one-cell grabs document whose interleaved mean is `mean` ns.
    fn one_grab_cell(quick: bool, mean: u64) -> Value {
        grabs_doc(|r| {
            r.quick = quick;
            r.samples.truncate(1);
            r.samples[0].total_ns = mean * r.samples[0].grabs;
        })
    }

    /// Member `key` of object `v`, for corruptions the result types
    /// cannot express.
    fn member<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        let Value::Obj(members) = v else {
            panic!("{key}: not an object")
        };
        &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    /// Element `i` of array `v`.
    fn element(v: &mut Value, i: usize) -> &mut Value {
        let Value::Arr(items) = v else {
            panic!("not an array")
        };
        &mut items[i]
    }

    /// The schema version has exactly one source of truth:
    /// `afs_metrics::METRICS_SCHEMA_VERSION`, written into every bench
    /// document by `write_envelope`, so bumping the constant once moves
    /// every emitted document — and the validator accepts it.
    #[test]
    fn schema_version_has_a_single_source_of_truth() {
        let v = afs_metrics::METRICS_SCHEMA_VERSION as f64;
        let docs = [
            grabs_doc(|_| {}),
            kernels_doc(|_| {}),
            faults_doc(|_| {}),
            serve_doc(|_| {}),
            adaptive_doc(adaptive::tests::synthetic(1_020_000, 2_000_000, true)),
            chaos_doc(|_| {}),
        ];
        for doc in &docs {
            assert_eq!(doc.get("schema_version").and_then(Value::as_f64), Some(v));
            assert!(validate(doc).is_ok(), "{:?}", validate(doc));
        }
        let mut future = kernels_doc(|_| {});
        *member(&mut future, "schema_version") = Value::Num(v + 1.0);
        assert!(
            validate(&future).is_err(),
            "future versions still reject until the constant moves"
        );
    }

    #[test]
    fn accepts_only_the_current_schema_version() {
        assert_eq!(validate(&one_grab_cell(false, 25)), Ok(BenchKind::Grabs));
        // Earlier releases' files are regenerated or relabelled, not
        // grandfathered.
        for old in [7, 8] {
            let mut doc = kernels_doc(|_| {});
            *member(&mut doc, "schema_version") = Value::Num(old as f64);
            let errs = validate(&doc).unwrap_err();
            assert!(
                errs.iter()
                    .any(|e| e.contains(&format!("schema_version {old}"))),
                "{errs:?}"
            );
        }
        // A file that never claimed a version is not a bench document.
        let mut unversioned = kernels_doc(|_| {});
        if let Value::Obj(members) = &mut unversioned {
            members.retain(|(k, _)| k != "schema_version");
        }
        let errs = validate(&unversioned).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("missing schema_version")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_corrupted_documents_with_every_error() {
        let mut bad = kernels_doc(|r| {
            r.samples[0].kernel = "sort";
            r.samples[0].best_ns = r.samples[0].total_ns + 1;
        });
        *member(&mut bad, "schema_version") = Value::Num(7.0);
        *member(element(member(&mut bad, "samples"), 0), "pinned") = Value::Str("yes".into());
        let errs = validate(&bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("schema_version")));
        assert!(errs.iter().any(|e| e.contains("kernel")));
        assert!(errs.iter().any(|e| e.contains("pinned")));
        assert!(errs.iter().any(|e| e.contains("best_ns")));
        assert!(errs.len() >= 4, "all problems in one run: {errs:?}");

        assert!(validate(&parse(r#"{"x": 1}"#).unwrap()).is_err());
        assert!(
            validate(&parse(r#"{"bench": "kernels", "quick": true, "samples": []}"#).unwrap())
                .is_err()
        );
    }

    #[test]
    fn flags_regressions_beyond_tolerance_only() {
        let base = one_grab_cell(false, 20);
        let fine = one_grab_cell(false, 24);
        let slow = one_grab_cell(false, 30);
        let fast = one_grab_cell(false, 10);

        let c = compare(&fine, &base, 0.30).unwrap();
        assert!(c.ok(), "{:?}", c.regressions);
        assert_eq!(c.compared, 1);

        let c = compare(&slow, &base, 0.30).unwrap();
        assert!(!c.ok());
        assert!(c.regressions[0].contains("1.50x"), "{:?}", c.regressions);

        let c = compare(&fast, &base, 0.30).unwrap();
        assert!(c.ok());
        assert_eq!(c.improvements.len(), 1);
    }

    #[test]
    fn quick_vs_full_warns_instead_of_comparing() {
        let base = one_grab_cell(false, 20);
        let quick = one_grab_cell(true, 500);
        let c = compare(&quick, &base, 0.30).unwrap();
        assert!(c.ok());
        assert_eq!(c.compared, 0);
        assert!(c.warnings[0].contains("quick-vs-full"));
    }

    #[test]
    fn faults_documents_validate_and_gate_on_the_bound() {
        let good = faults_doc(|_| {});
        assert_eq!(validate(&good), Ok(BenchKind::Faults));

        // A checked row with within=false is a hard validation failure.
        let violated = faults_doc(|r| r.samples[0].within = false);
        let errs = validate(&violated).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("Theorem 3.2")), "{errs:?}");

        // So is a leaked (or missing) panic-containment verdict.
        let leaked = faults_doc(|r| r.panic_containment = false);
        let errs = validate(&leaked).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("panic leaked")), "{errs:?}");
    }

    #[test]
    fn faults_documents_compare_on_clean_makespan() {
        let base = faults_doc(|_| {});
        let slow = faults_doc(|r| {
            for s in &mut r.samples {
                s.baseline_makespan_ns *= 3;
            }
        });
        let c = compare(&slow, &base, 0.30).unwrap();
        assert!(!c.ok());
        assert!(
            c.regressions[0].contains("AFS(k=1)/k=1/P=8"),
            "{:?}",
            c.regressions
        );
        // STATIC (k: null) matched too: every row is a comparable cell.
        assert!(c.regressions.iter().any(|r| r.contains("STATIC/k=-/P=8")));
        assert_eq!(c.compared, 4);
    }

    #[test]
    fn serve_documents_validate_and_gate_the_speedup() {
        let good = serve_doc(|_| {});
        assert_eq!(validate(&good), Ok(BenchKind::Serve));

        // A checked run where batching lost to FCFS is a hard failure.
        let lost = serve_doc(|r| r.batch_over_fcfs = 0.9);
        let errs = validate(&lost).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("batching lost")), "{errs:?}");

        // A full run cannot dodge the gate by flipping checked off.
        let dodge = serve_doc(|r| {
            r.batch_over_fcfs = 0.9;
            r.checked = false;
        });
        let errs = validate(&dodge).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("must gate")), "{errs:?}");

        // Quick smoke runs report without gating.
        let quick = serve_doc(|r| {
            r.batch_over_fcfs = 0.9;
            r.checked = false;
            r.quick = true;
        });
        assert_eq!(validate(&quick), Ok(BenchKind::Serve));
    }

    /// The small tenant's p99 in `discipline`'s saturate row.
    fn small_saturate_p99<'a>(r: &'a mut serve::ServeBenchResult, discipline: &str) -> &'a mut f64 {
        let mut rows = r.samples.iter_mut();
        let row = rows.find(|s| s.discipline == discipline && s.mode == "saturate");
        let small = row.unwrap().tenants.iter_mut().find(|t| t.name == "small");
        &mut small.unwrap().p99_ns
    }

    #[test]
    fn serve_gate_needs_drr_to_shield_the_small_tenant() {
        // DRR's small-tenant p99 under saturation no lower than FCFS's:
        // a checked run fails, as a full `--bench-serve` run must.
        let tie = |r: &mut serve::ServeBenchResult| {
            *small_saturate_p99(r, "drr") = *small_saturate_p99(r, "fcfs");
        };
        let errs = validate(&serve_doc(tie)).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("DRR did not")), "{errs:?}");
        // A checked run without the cells cannot pass either.
        let gone = serve_doc(|r| r.samples.retain(|s| s.discipline != "drr"));
        let errs = validate(&gone).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("small tenant")), "{errs:?}");
        // Quick runs report without gating.
        let quick = serve_doc(|r| {
            tie(r);
            r.checked = false;
            r.quick = true;
        });
        assert_eq!(validate(&quick), Ok(BenchKind::Serve));
    }

    #[test]
    fn serve_rejects_corrupted_rows_with_every_error() {
        let doc = serve_doc(|r| {
            let row = &mut r.samples[0];
            row.discipline = "lifo".into();
            row.completed = 10 * row.offered;
            row.p999_ns = 9.0;
        });
        let errs = validate(&doc).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("discipline")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("completed")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("quantiles")), "{errs:?}");
        assert!(errs.len() >= 3, "all problems in one run: {errs:?}");
    }

    #[test]
    fn serve_documents_compare_on_ns_per_completed_request() {
        let base = serve_doc(|_| {});
        let slow = serve_doc(|r| {
            for s in &mut r.samples {
                s.wall_ns *= 2;
            }
        });
        let c = compare(&slow, &base, 0.30).unwrap();
        assert!(!c.ok());
        assert!(
            c.regressions.iter().any(|r| r.contains("fcfs/open/x1.25")),
            "{:?}",
            c.regressions
        );
        assert_eq!(c.compared, 9);
    }

    #[test]
    fn adaptive_documents_validate_and_gate_the_envelope() {
        use adaptive::tests::synthetic;
        let good = adaptive_doc(synthetic(1_020_000, 2_000_000, true));
        assert_eq!(validate(&good), Ok(BenchKind::Adaptive));

        // A checked run with a failed workload verdict is a hard failure.
        let lost = adaptive_doc(synthetic(2_000_000, 2_000_000, true));
        let errs = validate(&lost).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("envelope violated")),
            "{errs:?}"
        );

        // A full run cannot dodge the gate by flipping checked off.
        let mut dodge = synthetic(2_000_000, 2_000_000, false);
        dodge.quick = false;
        let errs = validate(&adaptive_doc(dodge)).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("must gate")), "{errs:?}");

        // Quick smoke runs report without gating.
        let quick = adaptive_doc(synthetic(2_000_000, 6_000_000, false));
        assert_eq!(validate(&quick), Ok(BenchKind::Adaptive));

        // A checked run whose controller never moved on the irregular
        // loop compared a static cell with itself: not a verdict.
        let mut idle = synthetic(1_020_000, 2_000_000, true);
        for row in &mut idle.adaptive {
            if row.workload == "irregular" {
                row.decisions = 0;
            }
        }
        let errs = validate(&adaptive_doc(idle)).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("no decision")), "{errs:?}");

        // Corrupted rows surface every error in one pass.
        let mut bad = synthetic(1_020_000, 2_000_000, true);
        bad.samples[0].workload = "sorting";
        bad.samples[0].k = 0;
        let mut bad = adaptive_doc(bad);
        *member(element(member(&mut bad, "adaptive"), 0), "settled") = Value::Str("yes".into());
        let errs = validate(&bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("workload")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains(".k")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("settled")), "{errs:?}");
    }

    /// Documents whose every workload verdict holds can still fail: a full
    /// run that switched its envelope check off, and a checked run whose
    /// controller never moved on the irregular loop. `repro --bench-*`
    /// exits by this gate, so a run like these exits 1 as `--check-bench`
    /// rejects its file.
    #[test]
    fn passing_verdicts_do_not_excuse_an_unchecked_or_idle_run() {
        use adaptive::tests::synthetic;
        let mut unchecked = synthetic(1_020_000, 2_000_000, false);
        unchecked.quick = false;
        assert!(unchecked.gates.iter().all(|g| g.ok));
        let errs = validate(&adaptive_doc(unchecked)).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("must gate")), "{errs:?}");

        let mut idle = synthetic(1_020_000, 2_000_000, true);
        let irregular = idle.adaptive.iter_mut().find(|a| a.workload == "irregular");
        irregular.unwrap().decisions = 0;
        assert!(idle.gates.iter().all(|g| g.ok));
        let errs = validate(&adaptive_doc(idle)).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("no decision"), "{errs:?}");

        let unchecked_serve = serve_doc(|r| r.checked = false);
        let errs = validate(&unchecked_serve).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("must gate")), "{errs:?}");
    }

    #[test]
    fn adaptive_cells_and_rows_are_regression_gated() {
        use adaptive::tests::synthetic;
        let base = adaptive_doc(synthetic(1_050_000, 2_000_000, false));
        let slow = adaptive_doc(synthetic(2_050_000, 2_000_000, false));
        let c = compare(&slow, &base, 0.30).unwrap();
        assert!(!c.ok());
        assert!(
            c.regressions.iter().any(|r| r.contains("sor/adaptive")),
            "{:?}",
            c.regressions
        );
        // 2 static cells + 1 adaptive row per workload on each side.
        assert_eq!(c.compared, 3 * adaptive::WORKLOADS.len());
    }

    #[test]
    fn chaos_documents_validate_and_gate_the_invariants() {
        let good = chaos_doc(|_| {});
        assert_eq!(validate(&good), Ok(BenchKind::Chaos));

        // An unbalanced ledger is a hard failure even when the row claims
        // ledger_exact (the validator recomputes the arithmetic).
        let unbalanced = chaos_doc(|r| r.samples[0].completed -= 90);
        let errs = validate(&unbalanced).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("does not balance")),
            "{errs:?}"
        );

        // So is a failure count that disagrees with the injected poisons
        // (samples[12] is the first panic cell; its ledger still balances).
        let bleeding = chaos_doc(|r| {
            r.samples[12].failed += 1;
            r.samples[12].expired -= 1;
        });
        let errs = validate(&bleeding).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("cross-request damage")),
            "{errs:?}"
        );

        // A dead dispatcher never validates, at any run size.
        let dead = chaos_doc(|r| {
            r.quick = true;
            r.checked = false;
            r.samples[0].probe_ok = false;
        });
        let errs = validate(&dead).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("dispatcher died")),
            "{errs:?}"
        );

        // A checked run with a blown tail is a hard failure.
        let fat = chaos_doc(|r| r.samples[13].tail_bounded = false);
        let errs = validate(&fat).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("allowance")), "{errs:?}");

        // A full run cannot dodge the gate by flipping checked off.
        let dodge = chaos_doc(|r| {
            r.checked = false;
            r.samples[13].tail_bounded = false;
        });
        let errs = validate(&dodge).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("must gate")), "{errs:?}");

        // Quick smoke runs skip the tail gate but keep the hard ones.
        let quick = chaos_doc(|r| {
            r.quick = true;
            r.checked = false;
            r.samples[13].tail_bounded = false;
        });
        assert_eq!(validate(&quick), Ok(BenchKind::Chaos));
    }

    #[test]
    fn chaos_documents_compare_on_ns_per_completed_request() {
        let base = chaos_doc(|_| {});
        let slow = chaos_doc(|r| {
            for s in &mut r.samples {
                s.wall_ns *= 2;
            }
        });
        let c = compare(&slow, &base, 0.30).unwrap();
        assert!(!c.ok());
        assert!(
            c.regressions.iter().any(|r| r.contains("clean/fcfs")),
            "{:?}",
            c.regressions
        );
        assert_eq!(c.compared, 15);
    }

    #[test]
    fn different_benches_do_not_compare() {
        let grabs = one_grab_cell(false, 20);
        let kernels = kernels_doc(|r| r.quick = false);
        let errs = compare(&grabs, &kernels, 0.30).unwrap_err();
        assert!(errs[0].contains("mismatch"));
    }
}
