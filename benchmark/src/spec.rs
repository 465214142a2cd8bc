//! `BENCHMARK.json` as the harness reads it: which metrics are promised,
//! in which direction each is better, and by how much it may worsen.

use affinity_sched::trace::json::{parse, Value};
use std::path::Path;

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the base value by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
}

/// The declared contents of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics (each with a bound).
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics (no bound).
    pub per_layer: Vec<Declared>,
}

fn declared(list: &Value) -> Result<Vec<Declared>, String> {
    list.as_array()
        .ok_or("a metric list is not an array")?
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("a metric lacks \"{key}\""))
            };
            Ok(Declared {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: match text("better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("\"better\" is \"{other}\"")),
                },
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = parse(text)?;
        let list = |key: &str| doc.get(key).ok_or(format!("no \"{key}\""));
        let workloads = list("workloads")?
            .as_array()
            .ok_or("\"workloads\" is not an array")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or("a workload lacks \"name\"".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds: list("run_seconds")?
                .as_f64()
                .ok_or("\"run_seconds\" is not a number")?,
            workloads,
            end_to_end: declared(list("end_to_end")?)?,
            per_layer: declared(list("per_layer")?)?,
        })
    }

    /// Reads `BENCHMARK.json` from the checkout root.
    pub fn load(root: &Path) -> Result<Spec, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text)
    }
}

/// Whether `name` is made of the characters a metric name may hold.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
