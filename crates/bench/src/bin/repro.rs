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
//!                      # bench run (counters, histograms, perf events where
//!                      # the kernel allows). FILE defaults to metrics.json;
//!                      # a .prom suffix selects Prometheus text exposition
//! repro --telemetry ADDR
//!                      # start a live telemetry endpoint (e.g.
//!                      # 127.0.0.1:9100) for the duration of the run:
//!                      # GET /metrics, /snapshot.json, /healthz, /tune.
//!                      # Every pool any --bench-* run creates reports in;
//!                      # each scrape takes a fresh snapshot
//! repro --flight DIR   # arm the black-box flight recorder: every pool
//!                      # dumps DIR/flight-*.json when a stall, phase
//!                      # panic, spawn degradation or shed spike trips it
//! repro --check-bench FILE [--baseline FILE] [--tolerance X] [--strict]
//!                      # validate a BENCH_*.json document; with --baseline,
//!                      # also compare cell by cell and report regressions
//!                      # beyond the tolerance (default 0.30). Schema errors
//!                      # always exit 1; regressions exit 1 only with
//!                      # --strict (CI runners are noisy)
//! ```

use std::io::Write;

use afs_bench::ablations;
use afs_bench::check;
use afs_bench::experiments::Experiment;
use afs_bench::report::{render, render_csv, render_json, render_plot};
use afs_metrics::{MetricsRegistry, MetricsSnapshot};

/// Writes a metrics snapshot to `path`; the extension picks the format
/// (`.prom` → Prometheus text exposition, anything else → JSON).
fn export_metrics(snapshot: &MetricsSnapshot, path: &std::path::Path) {
    let body = if path.extension().and_then(|e| e.to_str()) == Some("prom") {
        snapshot.to_prometheus()
    } else {
        snapshot.to_json()
    };
    match std::fs::write(path, body) {
        Ok(()) => eprintln!("metrics: wrote {}", path.display()),
        Err(err) => {
            eprintln!("metrics: cannot write {}: {err}", path.display());
            std::process::exit(2);
        }
    }
}

/// Loads and parses one bench JSON document or exits with code 1.
fn load_bench(path: &str) -> afs_trace::json::Value {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("check-bench: cannot read {path}: {err}");
            std::process::exit(1);
        }
    };
    match afs_trace::json::parse(&text) {
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut bench_grabs = false;
    let mut bench_kernels = false;
    let mut bench_faults = false;
    let mut bench_serve = false;
    let mut bench_adaptive = false;
    let mut bench_chaos = false;
    let mut format = "table";
    let mut trace_dir: Option<std::path::PathBuf> = None;
    let mut want_trace_dir = false;
    let mut metrics_path: Option<std::path::PathBuf> = None;
    let mut want_metrics_path = false;
    let mut check_bench: Option<String> = None;
    let mut want_check_bench = false;
    let mut telemetry_addr: Option<String> = None;
    let mut want_telemetry = false;
    let mut flight_dir: Option<std::path::PathBuf> = None;
    let mut want_flight = false;
    let mut baseline: Option<String> = None;
    let mut want_baseline = false;
    let mut tolerance = 0.30f64;
    let mut want_tolerance = false;
    let mut strict = false;
    let mut ids: Vec<String> = Vec::new();
    for a in &args {
        if want_trace_dir {
            trace_dir = Some(std::path::PathBuf::from(a));
            want_trace_dir = false;
            continue;
        }
        if want_check_bench {
            check_bench = Some(a.clone());
            want_check_bench = false;
            continue;
        }
        if want_telemetry {
            telemetry_addr = Some(a.clone());
            want_telemetry = false;
            continue;
        }
        if want_flight {
            flight_dir = Some(std::path::PathBuf::from(a));
            want_flight = false;
            continue;
        }
        if want_baseline {
            baseline = Some(a.clone());
            want_baseline = false;
            continue;
        }
        if want_tolerance {
            tolerance = match a.parse::<f64>() {
                Ok(t) if t >= 0.0 => t,
                _ => {
                    eprintln!("--tolerance needs a non-negative number, got {a:?}");
                    std::process::exit(2);
                }
            };
            want_tolerance = false;
            continue;
        }
        if want_metrics_path {
            want_metrics_path = false;
            // The FILE operand is optional: claim the token only when it
            // looks like an export path, else fall through and parse it
            // as a normal argument.
            if a.ends_with(".json") || a.ends_with(".prom") {
                metrics_path = Some(std::path::PathBuf::from(a));
                continue;
            }
        }
        match a.as_str() {
            "--quick" | "-q" => quick = true,
            "--bench-grabs" => bench_grabs = true,
            "--bench-kernels" => bench_kernels = true,
            "--bench-faults" => bench_faults = true,
            "--bench-serve" => bench_serve = true,
            "--bench-adaptive" => bench_adaptive = true,
            "--bench-chaos" => bench_chaos = true,
            "--trace" => want_trace_dir = true,
            "--metrics" => {
                metrics_path = Some(std::path::PathBuf::from("metrics.json"));
                want_metrics_path = true;
            }
            "--check-bench" => want_check_bench = true,
            "--telemetry" => want_telemetry = true,
            "--flight" => want_flight = true,
            "--baseline" => want_baseline = true,
            "--tolerance" => want_tolerance = true,
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
                     [--metrics [FILE.json|FILE.prom]] \
                     [--telemetry ADDR] [--flight DIR] \
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
    if want_trace_dir {
        eprintln!("--trace needs a directory argument");
        std::process::exit(2);
    }
    if want_check_bench {
        eprintln!("--check-bench needs a file argument");
        std::process::exit(2);
    }
    if want_telemetry {
        eprintln!("--telemetry needs an ADDR argument (e.g. 127.0.0.1:9100)");
        std::process::exit(2);
    }
    if want_flight {
        eprintln!("--flight needs a directory argument");
        std::process::exit(2);
    }
    if want_baseline {
        eprintln!("--baseline needs a file argument");
        std::process::exit(2);
    }
    if want_tolerance {
        eprintln!("--tolerance needs a number argument");
        std::process::exit(2);
    }
    if let Some(file) = &check_bench {
        run_check(file, baseline.as_deref(), tolerance, strict);
    }
    if let Some(dir) = &flight_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("--flight: cannot create {}: {err}", dir.display());
            std::process::exit(2);
        }
        // Every pool built from here on arms its flight recorder at this
        // directory; the first pool whose trigger trips claims the dump.
        std::env::set_var("AFS_FLIGHT_DIR", dir);
    }
    // The telemetry endpoint outlives every bench below; dropping the
    // handle at the end of main stops the listener.
    let _telemetry = telemetry_addr.as_deref().map(|addr| {
        // Opt the process into the hub so every pool a bench builds
        // reports into the live scrape (retired pools fold into the
        // base accumulator, so mid-run scrapes cover the whole run).
        afs_scope::hub().enable();
        let source = afs_scope::TelemetrySource::new(|| afs_scope::hub().scrape())
            .with_recorders(|| afs_scope::hub().recorders());
        match afs_scope::TelemetryServer::start(addr, source) {
            Ok(srv) => {
                eprintln!("telemetry: listening on http://{}/", srv.local_addr());
                srv
            }
            Err(err) => {
                eprintln!("telemetry: cannot bind {addr}: {err}");
                std::process::exit(2);
            }
        }
    });
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
        print!("{}", result.render());
        let path = std::path::Path::new("BENCH_grabs.json");
        match std::fs::write(path, result.to_json()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                std::process::exit(2);
            }
        }
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
        print!("{}", result.render());
        let path = std::path::Path::new("BENCH_kernels.json");
        match std::fs::write(path, result.to_json()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                std::process::exit(2);
            }
        }
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
        print!("{}", result.render());
        let path = std::path::Path::new("BENCH_faults.json");
        match std::fs::write(path, result.to_json()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                std::process::exit(2);
            }
        }
        if !result.ok() {
            eprintln!("bench-faults: a checked row violated its bound or a panic leaked");
            std::process::exit(1);
        }
    }
    if bench_serve {
        let result = afs_bench::serve::run(quick);
        print!("{}", result.render());
        let path = std::path::Path::new("BENCH_serve.json");
        match std::fs::write(path, result.to_json()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                std::process::exit(2);
            }
        }
        if !result.ok() {
            eprintln!("bench-serve: batching lost to per-request FCFS on a checked run");
            std::process::exit(1);
        }
    }
    if bench_chaos {
        let result = afs_bench::chaos::run(quick);
        print!("{}", result.render());
        let path = std::path::Path::new("BENCH_chaos.json");
        match std::fs::write(path, result.to_json()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                std::process::exit(2);
            }
        }
        if !result.ok() {
            eprintln!(
                "bench-chaos: a robustness invariant failed under fault \
                 injection (see the verdict column above)"
            );
            std::process::exit(1);
        }
    }
    if bench_adaptive {
        let result = afs_bench::adaptive::run(quick);
        print!("{}", result.render());
        let path = std::path::Path::new("BENCH_adaptive.json");
        match std::fs::write(path, result.to_json()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(err) => {
                eprintln!("cannot write {}: {err}", path.display());
                std::process::exit(2);
            }
        }
        if !result.ok() {
            eprintln!(
                "bench-adaptive: the self-tuning policy fell outside its checked \
                 envelope (see the gate lines above)"
            );
            std::process::exit(1);
        }
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
            "json" => render_json(&result) + "\n",
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
