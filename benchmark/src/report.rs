//! What a run produces: named metrics, the attempted/failed ledger, gate
//! verdicts, the host it ran on — and their JSON forms.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// Everything one workload run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every metric, in emit order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (requests, reps, simulated cells).
    pub attempted: u64,
    /// Operations that failed a correctness gate.
    pub failed: u64,
    /// One line per violated gate.
    pub gate_failures: Vec<String>,
}

impl Outcome {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records a gate verdict: a violated gate makes the run incorrect.
    pub fn gate(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.gate_failures.push(what());
        }
    }

    /// Counts `attempted` operations of which `failed` missed their gate.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Whether every gate held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gate_failures.is_empty()
    }

    /// Failed ÷ attempted operations.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// `"name": {"value": v, "unit": "u"}` members for `metrics`, comma-joined.
/// Values print with every digit `f64` holds; a non-finite value becomes
/// `null` (and fails `--smoke`).
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> String {
    let mut out = String::new();
    for (i, m) in metrics.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(&m.name),
            number(m.value),
            escape(&m.unit)
        );
    }
    out
}

/// A JSON number, or `null` for NaN / ±∞ (which JSON cannot hold).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// JSON string escaping.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line<'a>(outcome: &Outcome, metrics: impl IntoIterator<Item = &'a Metric>) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(metrics)
    )
}

/// Where and on what a run happened.
#[derive(Clone, Debug)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// 1-minute load average when the run started (`-1` if unreadable).
    pub loadavg: f64,
    /// The checkout's commit, or `unknown` outside a git repository.
    pub git_commit: String,
}

impl Host {
    /// Reads the host facts now.
    pub fn read() -> Host {
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(-1.0);
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg,
            git_commit: git_commit(&repo_root()).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// The compiler that built the harness.
pub const RUSTC_VERSION: &str = env!("BENCH_RUSTC_VERSION");

/// The checkout root: the directory holding `BENCHMARK.json`.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repository root")
        .to_path_buf()
}

/// Where result and span files go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// HEAD's commit id read straight from `.git` (no `git` process).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
