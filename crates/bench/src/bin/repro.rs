//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro                # run everything at paper-scale parameters
//! repro fig4 fig15     # run specific experiments
//! repro --quick all    # shrunken smoke-test sizes
//! repro --list         # list experiment ids
//! repro --trace DIR    # also record a real traced run per experiment,
//!                      # writing DIR/<id>.json (Chrome trace-event format)
//! repro --bench-grabs  # grab-latency microbench (mutex vs lock-free),
//!                      # writes BENCH_grabs.json in the current directory
//! repro --bench-kernels
//!                      # end-to-end kernels on real threads across
//!                      # policies x pinning, writes BENCH_kernels.json
//!                      # (add --trace DIR for per-config Chrome traces of
//!                      # the SOR runs)
//! repro --bench-faults # fault-injection bench: delayed-start imbalance vs
//!                      # the Theorem 3.2 bound plus a panic-containment
//!                      # smoke, writes BENCH_faults.json
//! repro --bench-serve  # request-serving frontend bench: dispatch
//!                      # disciplines x open-loop/saturating load, tail
//!                      # latencies, shed rates and the batching-vs-FCFS
//!                      # speedup gate, writes BENCH_serve.json
//! repro --bench-adaptive
//!                      # adaptive (k, b) self-tuning vs the static grid on
//!                      # the paper kernels plus a power-law irregular loop;
//!                      # gates the within-10%-of-best-static and
//!                      # beats-worst-static envelopes, writes
//!                      # BENCH_adaptive.json
//! repro --bench-chaos  # chaos gate: a live LoopServer under seeded fault
//!                      # plans (delayed starts, stalls, preemption,
//!                      # panic-at-iteration) x every dispatch discipline,
//!                      # with the robustness invariants checked per cell
//!                      # (exact ledger, isolation, dispatcher survival,
//!                      # bounded tails), writes BENCH_chaos.json
//! repro --bench-kernels --metrics [FILE]
//!                      # also export the always-on runtime metrics of the
//!                      # bench run (per-worker counters, placement and
//!                      # histograms) as one JSON document. FILE defaults
//!                      # to metrics.json
//! repro --check-bench FILE [--baseline FILE] [--tolerance X] [--strict]
//!                      # validate a BENCH_*.json document; with --baseline,
//!                      # also compare cell by cell and report regressions
//!                      # beyond the tolerance (default 0.30). Schema errors
//!                      # always exit 1; regressions exit 1 only with
//!                      # --strict (CI runners are noisy)
//! ```
//!
//! Every `--bench-*` run holds the document it wrote to the same
//! validation as `--check-bench` and exits 1 when it fails.

use std::io::Write;

use afs_bench::ablations;
use afs_bench::check;
use afs_bench::experiments::Experiment;
use afs_bench::report::{render, render_csv, render_json, render_plot};
use afs_core::json;
use afs_metrics::{MetricsRegistry, MetricsSnapshot};

/// Writes a metrics snapshot to `path` as JSON.
fn export_metrics(snapshot: &MetricsSnapshot, path: &std::path::Path) {
    match std::fs::write(path, snapshot.to_json()) {
        Ok(()) => eprintln!("metrics: wrote {}", path.display()),
        Err(err) => {
            eprintln!("metrics: cannot write {}: {err}", path.display());
            std::process::exit(2);
        }
    }
}

/// Prints a bench run's table, writes its document to `BENCH_<name>.json`
/// in the current directory (or exits with code 2), then holds the document
/// to [`check::validate`], the gate `--check-bench` applies: exits with
/// code 1 and every error when it fails.
fn write_bench(name: &str, table: &str, json: &str) {
    print!("{table}");
    let path = format!("BENCH_{name}.json");
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(err) => {
            eprintln!("cannot write {path}: {err}");
            std::process::exit(2);
        }
    }
    let errs = match json::parse(json) {
        Ok(doc) => check::validate(&doc).err(),
        Err(err) => Some(vec![format!("not valid JSON: {err}")]),
    };
    if let Some(errs) = errs {
        eprintln!("bench-{name}: {path} failed its gate:");
        for e in &errs {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }
}

/// The operand that follows a flag, or exit with code 2 and `missing`
/// when the arguments ran out.
fn operand(args: &mut impl Iterator<Item = String>, missing: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{missing}");
        std::process::exit(2)
    })
}

/// Loads and parses one bench JSON document or exits with code 1.
fn load_bench(path: &str) -> json::Value {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("check-bench: cannot read {path}: {err}");
            std::process::exit(1);
        }
    };
    match json::parse(&text) {
        Ok(v) => v,
        Err(err) => {
            eprintln!("check-bench: {path} is not valid JSON: {err}");
            std::process::exit(1);
        }
    }
}

/// `--check-bench` mode: validate `file`, optionally compare against
/// `baseline`. Exits the process with the gate's verdict.
fn run_check(file: &str, baseline: Option<&str>, tolerance: f64, strict: bool) -> ! {
    let current = load_bench(file);
    let kind = match check::validate(&current) {
        Ok(kind) => {
            let samples = current
                .get("samples")
                .and_then(|s| s.as_array())
                .map_or(0, <[_]>::len);
            println!("ok: {file} is a valid {kind} bench document ({samples} samples)");
            kind
        }
        Err(errs) => {
            eprintln!("check-bench: {file} failed schema validation:");
            for e in &errs {
                eprintln!("  - {e}");
            }
            std::process::exit(1);
        }
    };
    let Some(base_path) = baseline else {
        std::process::exit(0);
    };
    let base = load_bench(base_path);
    match check::compare(&current, &base, tolerance) {
        Ok(cmp) => {
            for w in &cmp.warnings {
                eprintln!("warning: {w}");
            }
            for i in &cmp.improvements {
                println!("improved: {i}");
            }
            for r in &cmp.regressions {
                println!("REGRESSION: {r}");
            }
            println!(
                "compared {} {kind} cells against {base_path} (tolerance {:.0}%): \
                 {} regressed, {} improved",
                cmp.compared,
                tolerance * 100.0,
                cmp.regressions.len(),
                cmp.improvements.len()
            );
            if !cmp.ok() && strict {
                std::process::exit(1);
            }
            std::process::exit(0);
        }
        Err(errs) => {
            eprintln!("check-bench: cannot compare {file} against {base_path}:");
            for e in &errs {
                eprintln!("  - {e}");
            }
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut quick = false;
    let mut bench_grabs = false;
    let mut bench_kernels = false;
    let mut bench_faults = false;
    let mut bench_serve = false;
    let mut bench_adaptive = false;
    let mut bench_chaos = false;
    let mut format = "table";
    let mut trace_dir: Option<std::path::PathBuf> = None;
    let mut metrics_path: Option<std::path::PathBuf> = None;
    let mut check_bench: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut tolerance = 0.30f64;
    let mut strict = false;
    let mut ids: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" | "-q" => quick = true,
            "--bench-grabs" => bench_grabs = true,
            "--bench-kernels" => bench_kernels = true,
            "--bench-faults" => bench_faults = true,
            "--bench-serve" => bench_serve = true,
            "--bench-adaptive" => bench_adaptive = true,
            "--bench-chaos" => bench_chaos = true,
            "--trace" => {
                trace_dir = Some(operand(&mut args, "--trace needs a directory argument").into());
            }
            "--metrics" => {
                // The FILE operand is optional: claim the next token only
                // when it looks like a JSON path, else leave it to be
                // parsed as a normal argument.
                let file = args.next_if(|f| f.ends_with(".json"));
                metrics_path = Some(file.unwrap_or_else(|| "metrics.json".into()).into());
            }
            "--check-bench" => {
                check_bench = Some(operand(&mut args, "--check-bench needs a file argument"));
            }
            "--baseline" => baseline = Some(operand(&mut args, "--baseline needs a file argument")),
            "--tolerance" => {
                let t = operand(&mut args, "--tolerance needs a number argument");
                tolerance = match t.parse::<f64>() {
                    Ok(t) if t >= 0.0 => t,
                    _ => {
                        eprintln!("--tolerance needs a non-negative number, got {t:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--strict" => strict = true,
            "--plot" => format = "plot",
            "--json" => format = "json",
            "--csv" => format = "csv",
            "--list" | "-l" => {
                // Exit quietly when the reader closed the pipe
                // (e.g. `repro --list | head`).
                let mut stdout = std::io::stdout();
                for id in Experiment::all()
                    .iter()
                    .map(|e| e.id())
                    .chain(ablations::all_ids())
                {
                    if writeln!(stdout, "{id}").is_err() {
                        break;
                    }
                }
                return;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--quick] [--plot|--json|--csv] [--list] \
                     [--trace DIR] [--bench-grabs] [--bench-kernels] [--bench-faults] \
                     [--bench-serve] [--bench-adaptive] [--bench-chaos] \
                     [--metrics [FILE.json]] \
                     [--check-bench FILE [--baseline FILE] [--tolerance X] [--strict]] \
                     [ids... | all | ablations]"
                );
                return;
            }
            other => {
                if let Some(path) = other.strip_prefix("--metrics=") {
                    metrics_path = Some(std::path::PathBuf::from(path));
                } else {
                    ids.push(other.to_string());
                }
            }
        }
    }
    if let Some(file) = &check_bench {
        run_check(file, baseline.as_deref(), tolerance, strict);
    }
    // Metrics accumulated across every --bench-* run of this invocation.
    let mut bench_metrics: Option<MetricsSnapshot> = None;
    let mut merge_metrics = |snapshot: &MetricsSnapshot| match &mut bench_metrics {
        Some(m) => m.merge(snapshot),
        none => *none = Some(snapshot.clone()),
    };
    if bench_grabs {
        let registry = metrics_path
            .as_ref()
            .map(|_| MetricsRegistry::new(*afs_bench::grabs::WORKERS.last().unwrap()));
        let result = afs_bench::grabs::run_with_metrics(quick, registry.as_ref());
        if let Some(reg) = &registry {
            merge_metrics(&reg.snapshot());
        }
        write_bench("grabs", &result.render(), &result.to_json());
    }
    if let Some(dir) = &trace_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create trace dir {}: {err}", dir.display());
            std::process::exit(2);
        }
    }
    if bench_kernels {
        let result = afs_bench::kernels::run(quick);
        if metrics_path.is_some() {
            merge_metrics(&result.metrics);
        }
        write_bench("kernels", &result.render(), &result.to_json());
        if let Some(dir) = &trace_dir {
            match afs_bench::kernels::capture_traces(dir) {
                Ok(paths) => {
                    for p in paths {
                        eprintln!("trace: wrote {}", p.display());
                    }
                }
                Err(err) => eprintln!("trace: kernel captures failed: {err}"),
            }
        }
    }
    if bench_faults {
        let result = afs_bench::faults::run(quick);
        write_bench("faults", &result.render(), &result.to_json());
    }
    if bench_serve {
        let result = afs_bench::serve::run(quick);
        write_bench("serve", &result.render(), &result.to_json());
    }
    if bench_chaos {
        let result = afs_bench::chaos::run(quick);
        write_bench("chaos", &result.render(), &result.to_json());
    }
    if bench_adaptive {
        let result = afs_bench::adaptive::run(quick);
        write_bench("adaptive", &result.render(), &result.to_json());
    }
    if let Some(path) = &metrics_path {
        match &bench_metrics {
            Some(snapshot) => export_metrics(snapshot, path),
            None => eprintln!(
                "--metrics: nothing to export (metrics come from --bench-grabs / --bench-kernels runs)"
            ),
        }
    }
    if (bench_grabs
        || bench_kernels
        || bench_faults
        || bench_serve
        || bench_adaptive
        || bench_chaos)
        && ids.is_empty()
    {
        return;
    }
    enum Job {
        Paper(Experiment),
        Ablation(&'static str),
    }
    let selected: Vec<Job> = if ids.iter().any(|i| i == "ablations") {
        ablations::all_ids()
            .into_iter()
            .map(Job::Ablation)
            .collect()
    } else if ids.is_empty() || ids.iter().any(|i| i == "all") {
        Experiment::all().into_iter().map(Job::Paper).collect()
    } else {
        ids.iter()
            .map(|id| {
                if let Some(e) = Experiment::by_id(id) {
                    Job::Paper(e)
                } else if let Some(a) = ablations::all_ids().into_iter().find(|a| a == id) {
                    Job::Ablation(a)
                } else {
                    eprintln!("unknown experiment id: {id} (try --list)");
                    std::process::exit(2);
                }
            })
            .collect()
    };

    for job in selected {
        let start = std::time::Instant::now();
        let result = match &job {
            Job::Paper(e) => e.run(quick),
            Job::Ablation(id) => ablations::run(id, quick).expect("known ablation id"),
        };
        if let (Some(dir), Job::Paper(e)) = (&trace_dir, &job) {
            if let Some(capture) = afs_bench::tracing::capture(e) {
                let path = dir.join(format!("{}.json", e.id()));
                match std::fs::write(&path, &capture.json) {
                    Ok(()) => eprintln!("trace: wrote {}", path.display()),
                    Err(err) => eprintln!("trace: cannot write {}: {err}", path.display()),
                }
            }
        }
        let mut out = match format {
            "plot" => render_plot(&result),
            "json" => render_json(&result),
            "csv" => render_csv(&result),
            _ => render(&result),
        };
        if format == "table" || format == "plot" {
            out.push_str(&format!("  [wall: {:.2?}]\n\n", start.elapsed()));
        }
        // Exit quietly when the reader closed the pipe (e.g. `repro | head`).
        if std::io::stdout().write_all(out.as_bytes()).is_err() {
            std::process::exit(0);
        }
    }
    let _ = std::io::stdout().flush();
}
