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
//! Everything here works on [`afs_trace::json::Value`] so the gate exercises
//! the same in-tree parser the exporters are tested against.

use afs_trace::json::Value;
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

/// The serve bench's headline gate lives in the envelope, not a row: the
/// batching discipline must hold its saturation-throughput win over
/// per-request FCFS on checked (full) runs, and full runs are never
/// allowed to opt out of the check.
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
        if cur_host != base_host {
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
    use afs_trace::json::parse;

    /// The version every synthetic document below claims.
    const V: u64 = afs_metrics::METRICS_SCHEMA_VERSION;
    const HOST: &str = r#""host": {"cpus": 8, "kernel": "6.1", "os": "linux", "arch": "x86_64", "pin_capable": true}"#;

    fn kernels_doc(version: u64) -> String {
        format!(
            r#"{{"bench": "kernels", "schema_version": {version}, {HOST}, "quick": false,
                 "samples": [{{"kernel": "sor", "policy": "AFS",
                              "pinned": false, "p": 8, "phases": 10, "iters": 100,
                              "reps": 3, "total_ns": 300, "best_ns": 90}}]}}"#
        )
    }

    /// Satellite of the observability PR: the schema version has exactly
    /// one source of truth. Every bench writer aliases
    /// `afs_metrics::METRICS_SCHEMA_VERSION`, so bumping the constant
    /// once moves every emitted document — and the validator accepts it.
    #[test]
    fn schema_version_has_a_single_source_of_truth() {
        let v = afs_metrics::METRICS_SCHEMA_VERSION;
        assert_eq!(crate::grabs::SCHEMA_VERSION, v);
        assert_eq!(crate::kernels::SCHEMA_VERSION, v);
        assert_eq!(crate::faults::SCHEMA_VERSION, v);
        assert_eq!(crate::serve::SCHEMA_VERSION, v);
        assert_eq!(crate::adaptive::SCHEMA_VERSION, v);
        assert_eq!(crate::chaos::SCHEMA_VERSION, v);
        assert_eq!(
            validate(&parse(&kernels_doc(v)).unwrap()),
            Ok(BenchKind::Kernels)
        );
        assert!(
            validate(&parse(&kernels_doc(v + 1)).unwrap()).is_err(),
            "future versions still reject until the constant moves"
        );
    }

    fn grabs_doc(quick: bool, mean: f64) -> String {
        format!(
            r#"{{"bench": "grab_latency", "schema_version": {V}, {HOST},
                 "quick": {quick}, "max_iters_per_drain": 100,
                 "samples": [
                   {{"protocol": "interleaved", "policy": "AFS", "impl": "lockfree",
                     "p": 8, "grabs": 100, "total_ns": {}, "mean_ns_per_grab": {mean}}}
                 ]}}"#,
            (mean * 100.0) as u64
        )
    }

    #[test]
    fn accepts_only_the_current_schema_version() {
        let current = parse(&grabs_doc(false, 25.0)).unwrap();
        assert_eq!(validate(&current), Ok(BenchKind::Grabs));
        // Earlier releases' files are regenerated or relabelled, not
        // grandfathered.
        for old in [7, 8] {
            let errs = validate(&parse(&kernels_doc(old)).unwrap()).unwrap_err();
            assert!(
                errs.iter()
                    .any(|e| e.contains(&format!("schema_version {old}"))),
                "{errs:?}"
            );
        }
        // A file that never claimed a version is not a bench document.
        let unversioned = kernels_doc(V).replace(&format!("\"schema_version\": {V}, "), "");
        let errs = validate(&parse(&unversioned).unwrap()).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("missing schema_version")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_corrupted_documents_with_every_error() {
        let bad = parse(
            r#"{"bench": "kernels", "schema_version": 7, "quick": false,
                "samples": [{"kernel": "sort", "policy": "AFS",
                             "pinned": "yes", "p": 8, "phases": 10, "iters": 100,
                             "reps": 3, "total_ns": 90, "best_ns": 300}]}"#,
        )
        .unwrap();
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
        let base = parse(&grabs_doc(false, 20.0)).unwrap();
        let fine = parse(&grabs_doc(false, 24.0)).unwrap();
        let slow = parse(&grabs_doc(false, 30.0)).unwrap();
        let fast = parse(&grabs_doc(false, 10.0)).unwrap();

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
        let base = parse(&grabs_doc(false, 20.0)).unwrap();
        let quick = parse(&grabs_doc(true, 500.0)).unwrap();
        let c = compare(&quick, &base, 0.30).unwrap();
        assert!(c.ok());
        assert_eq!(c.compared, 0);
        assert!(c.warnings[0].contains("quick-vs-full"));
    }

    fn faults_doc(containment: bool, within: bool, base_ns: u64) -> String {
        format!(
            r#"{{"bench": "faults", "schema_version": {V}, {HOST},
                 "quick": false, "p": 8, "n": 8192, "panic_containment": {containment},
                 "samples": [
                   {{"policy": "AFS(k=1)", "k": 1, "n": 8192, "p": 8, "delay_ns": 200000000,
                     "residual_iters": 700, "bound_iters": 1025.1,
                     "within": {within}, "checked": true,
                     "makespan_ns": 220000000, "baseline_makespan_ns": {base_ns}}},
                   {{"policy": "STATIC", "k": null, "n": 8192, "p": 8, "delay_ns": 200000000,
                     "residual_iters": 1024, "bound_iters": null,
                     "within": true, "checked": false,
                     "makespan_ns": 230000000, "baseline_makespan_ns": {base_ns}}}
                 ]}}"#
        )
    }

    #[test]
    fn faults_documents_validate_and_gate_on_the_bound() {
        let good = parse(&faults_doc(true, true, 9_000_000)).unwrap();
        assert_eq!(validate(&good), Ok(BenchKind::Faults));

        // A checked row with within=false is a hard validation failure.
        let violated = parse(&faults_doc(true, false, 9_000_000)).unwrap();
        let errs = validate(&violated).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("Theorem 3.2")), "{errs:?}");

        // So is a leaked (or missing) panic-containment verdict.
        let leaked = parse(&faults_doc(false, true, 9_000_000)).unwrap();
        let errs = validate(&leaked).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("panic leaked")), "{errs:?}");
    }

    #[test]
    fn faults_documents_compare_on_clean_makespan() {
        let base = parse(&faults_doc(true, true, 9_000_000)).unwrap();
        let slow = parse(&faults_doc(true, true, 20_000_000)).unwrap();
        let c = compare(&slow, &base, 0.30).unwrap();
        assert!(!c.ok());
        assert!(
            c.regressions[0].contains("AFS(k=1)/k=1/P=8"),
            "{:?}",
            c.regressions
        );
        // STATIC matched too: two comparable cells.
        assert_eq!(c.compared, 2);
    }

    fn serve_doc(quick: bool, checked: bool, speedup: f64, wall_ns: u64) -> String {
        format!(
            r#"{{"bench": "serve", "schema_version": {V}, {HOST},
                 "quick": {quick}, "p": 4, "calibrated_rps": 100000.0,
                 "total_completed": 19000, "batch_over_fcfs": {speedup}, "checked": {checked},
                 "samples": [
                   {{"discipline": "fcfs", "mode": "open", "rate_factor": 1.25,
                     "offered": 10000, "completed": 9000, "shed": 1000, "shed_rate": 0.1,
                     "wall_ns": {wall_ns}, "throughput_rps": 9000.0, "queue_p50_ns": 4000.0,
                     "p50_ns": 20000.0, "p99_ns": 300000.0, "p999_ns": 900000.0,
                     "affinity_hit_ratio": 0.92, "dispatches": 9000, "batched_requests": 0,
                     "tenants": [{{"name": "small", "admitted": 9000, "completed": 9000,
                                   "shed": 1000, "p50_ns": 1.0, "p99_ns": 2.0, "p999_ns": 3.0}}]}},
                   {{"discipline": "batch", "mode": "saturate", "rate_factor": 0,
                     "offered": 10000, "completed": 10000, "shed": 40000, "shed_rate": 0.8,
                     "wall_ns": {wall_ns}, "throughput_rps": 10000.0, "queue_p50_ns": 9000.0,
                     "p50_ns": 50000.0, "p99_ns": 700000.0, "p999_ns": 1500000.0,
                     "affinity_hit_ratio": null, "dispatches": 700, "batched_requests": 9900,
                     "tenants": [{{"name": "small", "admitted": 10000, "completed": 10000,
                                   "shed": 40000, "p50_ns": 1.0, "p99_ns": 2.0, "p999_ns": 3.0}}]}}
                 ]}}"#
        )
    }

    #[test]
    fn serve_documents_validate_and_gate_the_speedup() {
        let good = parse(&serve_doc(false, true, 1.4, 1_000_000_000)).unwrap();
        assert_eq!(validate(&good), Ok(BenchKind::Serve));

        // A checked run where batching lost to FCFS is a hard failure.
        let lost = parse(&serve_doc(false, true, 0.9, 1_000_000_000)).unwrap();
        let errs = validate(&lost).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("batching lost")), "{errs:?}");

        // A full run cannot dodge the gate by flipping checked off.
        let dodge = parse(&serve_doc(false, false, 0.9, 1_000_000_000)).unwrap();
        let errs = validate(&dodge).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("must gate")), "{errs:?}");

        // Quick smoke runs report without gating.
        let quick = parse(&serve_doc(true, false, 0.9, 1_000_000_000)).unwrap();
        assert_eq!(validate(&quick), Ok(BenchKind::Serve));
    }

    #[test]
    fn serve_rejects_corrupted_rows_with_every_error() {
        let mut doc = serve_doc(false, true, 1.4, 1_000_000_000);
        doc = doc.replace("\"fcfs\"", "\"lifo\"");
        doc = doc.replace("\"completed\": 9000,", "\"completed\": 90000,");
        doc = doc.replace("\"p999_ns\": 900000.0", "\"p999_ns\": 9.0");
        let errs = validate(&parse(&doc).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("discipline")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("completed")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("quantiles")), "{errs:?}");
        assert!(errs.len() >= 3, "all problems in one run: {errs:?}");
    }

    #[test]
    fn serve_documents_compare_on_ns_per_completed_request() {
        let base = parse(&serve_doc(false, true, 1.4, 1_000_000_000)).unwrap();
        let slow = parse(&serve_doc(false, true, 1.4, 2_000_000_000)).unwrap();
        let c = compare(&slow, &base, 0.30).unwrap();
        assert!(!c.ok());
        assert!(
            c.regressions.iter().any(|r| r.contains("fcfs/open/x1.25")),
            "{:?}",
            c.regressions
        );
        assert_eq!(c.compared, 2);
    }

    fn adaptive_doc(quick: bool, checked: bool, gate_ok: bool, adaptive_median: u64) -> String {
        format!(
            r#"{{"bench": "adaptive", "schema_version": {V}, {HOST},
                 "quick": {quick}, "checked": {checked}, "p": 8,
                 "irregular_min_speedup": 1.3,
                 "samples": [
                   {{"workload": "sor", "k": 1, "b": 1, "p": 8, "reps": 5,
                     "best_ns": 1000000, "median_ns": 1040000, "total_ns": 5200000, "span": 0}},
                   {{"workload": "irregular", "k": 8, "b": 8, "p": 8, "reps": 5,
                     "best_ns": 2000000, "median_ns": 2060000, "total_ns": 10300000,
                     "span": 7000000}}
                 ],
                 "adaptive": [
                   {{"workload": "sor", "p": 8, "reps": 5, "best_ns": 1000000,
                     "median_ns": {adaptive_median}, "total_ns": 5300000, "span": 0,
                     "final_k": 2, "final_b": 2, "decisions": 4,
                     "phases": 1000, "settled": true}},
                   {{"workload": "irregular", "p": 8, "reps": 5, "best_ns": 2100000,
                     "median_ns": 2200000, "total_ns": 11000000, "span": 2100000,
                     "final_k": 8, "final_b": 1, "decisions": 2,
                     "phases": 60, "settled": true}}
                 ],
                 "gates": [
                   {{"workload": "sor", "best_static_median_ns": 1040000,
                     "worst_static_median_ns": 1200000, "adaptive_median_ns": {adaptive_median},
                     "within_10pct": {gate_ok}, "worst_span": 0, "adaptive_span": 0,
                     "span_ratio": 0.0, "ok": {gate_ok}}},
                   {{"workload": "irregular", "best_static_median_ns": 2060000,
                     "worst_static_median_ns": 9000000, "adaptive_median_ns": 2200000,
                     "within_10pct": true, "worst_span": 7000000, "adaptive_span": 2100000,
                     "span_ratio": 3.33, "ok": true}}
                 ]}}"#
        )
    }

    #[test]
    fn adaptive_documents_validate_and_gate_the_envelope() {
        let good = parse(&adaptive_doc(false, true, true, 1_050_000)).unwrap();
        assert_eq!(validate(&good), Ok(BenchKind::Adaptive));

        // A checked run with a failed workload verdict is a hard failure.
        let lost = parse(&adaptive_doc(false, true, false, 1_500_000)).unwrap();
        let errs = validate(&lost).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("envelope violated")),
            "{errs:?}"
        );

        // A full run cannot dodge the gate by flipping checked off.
        let dodge = parse(&adaptive_doc(false, false, false, 1_500_000)).unwrap();
        let errs = validate(&dodge).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("must gate")), "{errs:?}");

        // Quick smoke runs report without gating.
        let quick = parse(&adaptive_doc(true, false, false, 1_500_000)).unwrap();
        assert_eq!(validate(&quick), Ok(BenchKind::Adaptive));

        // A checked run whose controller never moved on the irregular
        // loop compared a static cell with itself: not a verdict.
        let idle = adaptive_doc(false, true, true, 1_050_000).replace(
            "\"final_b\": 1, \"decisions\": 2",
            "\"final_b\": 1, \"decisions\": 0",
        );
        let errs = validate(&parse(&idle).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("no decision")), "{errs:?}");

        // Corrupted rows surface every error in one pass.
        let mut bad = adaptive_doc(false, true, true, 1_050_000);
        bad = bad.replace(
            "\"workload\": \"sor\", \"k\": 1",
            "\"workload\": \"sorting\", \"k\": 0",
        );
        bad = bad.replace("\"settled\": true}", "\"settled\": \"yes\"}");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("workload")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains(".k")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("settled")), "{errs:?}");
    }

    #[test]
    fn adaptive_cells_and_rows_are_regression_gated() {
        let base = parse(&adaptive_doc(false, true, true, 1_050_000)).unwrap();
        let slow = parse(&adaptive_doc(false, true, true, 2_050_000)).unwrap();
        let c = compare(&slow, &base, 0.30).unwrap();
        assert!(!c.ok());
        assert!(
            c.regressions.iter().any(|r| r.contains("sor/adaptive")),
            "{:?}",
            c.regressions
        );
        // 2 static cells + 2 adaptive rows on each side.
        assert_eq!(c.compared, 4);
    }

    fn chaos_doc(quick: bool, checked: bool, tail_ok: bool, wall_ns: u64) -> String {
        format!(
            r#"{{"bench": "chaos", "schema_version": {V}, {HOST},
                 "quick": {quick}, "p": 4, "checked": {checked}, "total_requests": 24018,
                 "ledger_exact": true, "isolation": true, "dispatcher_alive": true,
                 "samples": [
                   {{"scenario": "clean", "discipline": "fcfs", "offered": 12009,
                     "admitted": 12000, "completed": 11990, "timed_out": 3, "failed": 0,
                     "expired": 10, "shed_final": 9, "shed_verdicts": 450,
                     "dispatches": 9000, "batched_requests": 0, "supervisor_restarts": 0,
                     "wall_ns": {wall_ns}, "p50_ns": 30000.0, "p99_ns": 900000.0,
                     "p999_ns": 4000000.0, "p999_bound_ns": 100000000.0,
                     "expected_failures": 0, "ledger_exact": true, "isolated": true,
                     "probe_ok": true, "tail_bounded": true}},
                   {{"scenario": "panic", "discipline": "batch", "offered": 12009,
                     "admitted": 12000, "completed": 11989, "timed_out": 3, "failed": 1,
                     "expired": 10, "shed_final": 9, "shed_verdicts": 450,
                     "dispatches": 800, "batched_requests": 11000, "supervisor_restarts": 0,
                     "wall_ns": {wall_ns}, "p50_ns": 30000.0, "p99_ns": 900000.0,
                     "p999_ns": 4000000.0, "p999_bound_ns": 100000000.0,
                     "expected_failures": 1, "ledger_exact": true, "isolated": true,
                     "probe_ok": true, "tail_bounded": {tail_ok}}}
                 ]}}"#
        )
    }

    #[test]
    fn chaos_documents_validate_and_gate_the_invariants() {
        let good = parse(&chaos_doc(false, true, true, 2_000_000_000)).unwrap();
        assert_eq!(validate(&good), Ok(BenchKind::Chaos));

        // An unbalanced ledger is a hard failure even when the row claims
        // ledger_exact (the validator recomputes the arithmetic).
        let mut unbalanced = chaos_doc(false, true, true, 2_000_000_000);
        unbalanced = unbalanced.replace("\"completed\": 11990,", "\"completed\": 11900,");
        let errs = validate(&parse(&unbalanced).unwrap()).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("does not balance")),
            "{errs:?}"
        );

        // So is a failure count that disagrees with the injected poisons.
        let mut bleeding = chaos_doc(false, true, true, 2_000_000_000);
        bleeding = bleeding.replace(
            "\"failed\": 1,\n                     \"expired\": 10",
            "\"failed\": 2,\n                     \"expired\": 9",
        );
        let errs = validate(&parse(&bleeding).unwrap()).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("cross-request damage")),
            "{errs:?}"
        );

        // A dead dispatcher never validates, at any run size.
        let mut dead = chaos_doc(true, false, true, 2_000_000_000);
        dead = dead.replace("\"dispatcher_alive\": true", "\"dispatcher_alive\": false");
        let errs = validate(&parse(&dead).unwrap()).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("dispatcher died")),
            "{errs:?}"
        );

        // A checked run with a blown tail is a hard failure.
        let fat = parse(&chaos_doc(false, true, false, 2_000_000_000)).unwrap();
        let errs = validate(&fat).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("allowance")), "{errs:?}");

        // A full run cannot dodge the gate by flipping checked off.
        let dodge = parse(&chaos_doc(false, false, false, 2_000_000_000)).unwrap();
        let errs = validate(&dodge).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("must gate")), "{errs:?}");

        // Quick smoke runs skip the tail gate but keep the hard ones.
        let quick = parse(&chaos_doc(true, false, false, 2_000_000_000)).unwrap();
        assert_eq!(validate(&quick), Ok(BenchKind::Chaos));
    }

    #[test]
    fn chaos_documents_compare_on_ns_per_completed_request() {
        let base = parse(&chaos_doc(false, true, true, 2_000_000_000)).unwrap();
        let slow = parse(&chaos_doc(false, true, true, 4_000_000_000)).unwrap();
        let c = compare(&slow, &base, 0.30).unwrap();
        assert!(!c.ok());
        assert!(
            c.regressions.iter().any(|r| r.contains("clean/fcfs")),
            "{:?}",
            c.regressions
        );
        assert_eq!(c.compared, 2);
    }

    #[test]
    fn different_benches_do_not_compare() {
        let grabs = parse(&grabs_doc(false, 20.0)).unwrap();
        let kernels = parse(&kernels_doc(V)).unwrap();
        let errs = compare(&grabs, &kernels, 0.30).unwrap_err();
        assert!(errs[0].contains("mismatch"));
    }
}
