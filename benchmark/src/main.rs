//! `benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]`
//! and `benchmark compare A1.json B1.json [A2.json B2.json …]`. See
//! `README.md`.

use affinity_sched::trace::json::{parse, Value};
use afs_benchmark::compare::compare;
use afs_benchmark::harness::{Ctx, Plan};
use afs_benchmark::report::{
    self, escape, metrics_json, number, result_line, Host, Metric, Outcome,
};
use afs_benchmark::spec::{valid_name, Declared, Spec};
use afs_benchmark::WORKLOADS;
use std::collections::BTreeSet;
use std::process::{Command, ExitCode};

/// What the command line asked for.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, ..)| *n).collect();
    format!(
        "usage: benchmark [--workload <{}>] [--seed <u64>] [--seconds <s>] [--trace 0|1] [--smoke]\n       benchmark compare A1.json B1.json [A2.json B2.json ...]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            // The driver passes `run_seconds` of BENCHMARK.json here; nothing
            // in the repository passes anything else.
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !WORKLOADS.iter().any(|(n, ..)| n == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(parsed)
}

/// Checks what a run emitted against `BENCHMARK.json`: every name well
/// formed and emitted once, every value finite, a declared name in its
/// declared unit, and every end-to-end metric present. `Err` names the
/// first offender.
fn check_emitted(outcome: &Outcome, spec: &Spec) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    for m in &outcome.metrics {
        if !valid_name(&m.name) {
            return Err(format!("{} is not a valid metric name", m.name));
        }
        if !seen.insert(m.name.as_str()) {
            return Err(format!("{} was emitted more than once", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("{} is {}", m.name, m.value));
        }
        let declared = spec.end_to_end.iter().chain(&spec.per_layer);
        if let Some(d) = declared.into_iter().find(|d| d.name == m.name) {
            if d.unit != m.unit {
                return Err(format!(
                    "{} has unit {}, declared {}",
                    m.name, m.unit, d.unit
                ));
            }
        }
    }
    match spec
        .end_to_end
        .iter()
        .find(|d| !seen.contains(d.name.as_str()))
    {
        Some(d) => Err(format!("{} was not emitted", d.name)),
        None => Ok(()),
    }
}

/// The result line's metrics: every name of `declared`, in declared order.
/// The contract wants every per-layer name from every workload, so a layer
/// metric this workload's run did not measure (its probes ran under the
/// workload they explain) reads 0 here — and only here: it is neither
/// printed nor stored as a measurement.
fn line_metrics(outcome: &Outcome, declared: &[Declared]) -> Vec<Metric> {
    declared
        .iter()
        .map(|d| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == d.name)
                .cloned()
                .unwrap_or_else(|| Metric {
                    name: d.name.clone(),
                    value: 0.0,
                    unit: d.unit.clone(),
                })
        })
        .collect()
}

/// One run's entry in `result.json`.
fn run_json(workload: &str, args: &Args, seconds: f64, host: &Host, outcome: &Outcome) -> String {
    let gates: Vec<String> = outcome
        .gate_failures
        .iter()
        .map(|g| format!("\"{}\"", escape(g)))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"smoke\": {}, \
         \"git_commit\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"loadavg_start\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"fail_ratio\": {}, \
         \"gate_failures\": [{}], \"metrics\": {{{}}}}}",
        args.seed,
        number(seconds),
        args.traced,
        args.smoke,
        escape(&host.git_commit),
        host.nproc,
        escape(report::RUSTC_VERSION),
        number(host.loadavg),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        number(outcome.fail_ratio()),
        gates.join(", "),
        metrics_json(&outcome.metrics)
    )
}

fn write_result(runs: &[String]) -> std::io::Result<()> {
    let doc = format!("{{\"schema\": 1, \"runs\": [\n{}\n]}}\n", runs.join(",\n"));
    std::fs::write(report::out_dir().join("result.json"), doc)
}

/// Runs one workload in this process. Returns whether it was correct.
fn run_workload(workload: &str, args: &Args, spec: &Spec) -> Result<bool, String> {
    let host = Host::read();
    let traced = args.traced || args.smoke;
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { spec.run_seconds });
    let &(_, measure, probe_layers) = WORKLOADS
        .iter()
        .find(|(n, ..)| *n == workload)
        .expect("parse_args checked the name");
    println!(
        "# {workload} seed={} seconds={seconds} traced={traced} nproc={} loadavg={} commit={} {}",
        args.seed,
        host.nproc,
        host.loadavg,
        host.git_commit,
        report::RUSTC_VERSION
    );
    let mut ctx = Ctx::new(args.seed, Plan::new(seconds, traced, args.smoke));
    measure(&mut ctx);
    if traced {
        probe_layers(&mut ctx);
    }
    let mut outcome = std::mem::take(&mut ctx.out);
    outcome.put("fail_ratio", outcome.fail_ratio(), "ratio");
    outcome.put("peak_rss_mb", report::peak_rss_mb(), "MB");

    for m in &outcome.metrics {
        println!("{} {} {}", m.name, number(m.value), m.unit);
    }
    for g in &outcome.gate_failures {
        println!("# GATE FAILED: {g}");
    }
    let out_dir = report::out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let run = run_json(workload, args, seconds, &host, &outcome);
    std::fs::write(out_dir.join(format!("{workload}.json")), &run)
        .and_then(|()| write_result(&[run]))
        .map_err(|e| format!("writing results: {e}"))?;
    if traced {
        let path = out_dir.join(format!("{workload}.spans.json"));
        std::fs::write(&path, ctx.spans.to_json(workload))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# {} spans ({} dropped) -> {}",
            ctx.spans.spans().len(),
            ctx.spans.dropped,
            path.display()
        );
    }

    check_emitted(&outcome, spec).map_err(|e| format!("BENCHMARK.json mismatch: {e}"))?;
    // A traced run's line carries the per-layer list, an untraced one's the
    // end-to-end list (a smoke run is traced but keeps the latter).
    let declared = if args.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    println!(
        "{}",
        result_line(&outcome, &line_metrics(&outcome, declared))
    );
    Ok(outcome.correct())
}

/// The names the run stored in `run_json` form measured.
fn measured_names(run: &str) -> Result<Vec<String>, String> {
    match parse(run)?.get("metrics") {
        Some(Value::Obj(members)) => Ok(members.iter().map(|(name, _)| name.clone()).collect()),
        _ => Err("a run without \"metrics\"".to_string()),
    }
}

/// Runs every workload, each in a process of its own (so `peak_rss_mb` is
/// the workload's), and merges their runs into `result.json`.
fn run_all(args: &Args, spec: &Spec) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut runs = Vec::new();
    for workload in &spec.workloads {
        let mut child = Command::new(&exe);
        child.args(["--workload", workload, "--seed", &args.seed.to_string()]);
        if let Some(s) = args.seconds {
            child.args(["--seconds", &s.to_string()]);
        }
        child.args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.smoke {
            child.arg("--smoke");
        }
        let status = child.status().map_err(|e| format!("{workload}: {e}"))?;
        all_correct &= status.success();
        let path = report::out_dir().join(format!("{workload}.json"));
        match std::fs::read_to_string(&path) {
            Ok(run) => runs.push(run),
            Err(e) => eprintln!("{}: {e}", path.display()),
        }
    }
    write_result(&runs).map_err(|e| format!("result.json: {e}"))?;
    println!(
        "# {} workloads -> {}",
        runs.len(),
        report::out_dir().join("result.json").display()
    );
    if args.traced || args.smoke {
        // Each layer's probes ran under one workload; together the six must
        // have measured every per-layer name BENCHMARK.json lists.
        let mut measured = BTreeSet::new();
        for run in &runs {
            measured.extend(measured_names(run)?);
        }
        if let Some(d) = spec.per_layer.iter().find(|d| !measured.contains(&d.name)) {
            return Err(format!(
                "BENCHMARK.json mismatch: no workload measured {}",
                d.name
            ));
        }
        println!(
            "# every one of the {} per-layer names was measured by a workload",
            spec.per_layer.len()
        );
    }
    Ok(all_correct && runs.len() == spec.workloads.len())
}

/// `compare A1 B1 [A2 B2 …]`: the files alternate sides, in the order the
/// interleaved runs were taken.
fn run_compare(spec: &Spec, files: &[String]) -> Result<bool, String> {
    let mut sides = [Vec::new(), Vec::new()];
    for (i, path) in files.iter().enumerate() {
        sides[i % 2].push(std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?);
    }
    let verdict = compare(spec, &sides[0], &sides[1])?;
    print!("{}", verdict.table);
    println!(
        "{} violation(s), {} unresolved",
        verdict.violations, verdict.unresolved
    );
    Ok(verdict.violations == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match Spec::load(&report::repo_root()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let verdict = if args.first().map(String::as_str) == Some("compare") {
        let files = &args[1..];
        if files.is_empty() || !files.len().is_multiple_of(2) {
            Err(usage())
        } else {
            run_compare(&spec, files)
        }
    } else {
        parse_args(&args)
            .map_err(|e| format!("{e}\n{}", usage()))
            .and_then(|parsed| match &parsed.workload {
                Some(w) => run_workload(w, &parsed, &spec),
                None => run_all(&parsed, &spec),
            })
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
