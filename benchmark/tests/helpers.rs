//! The harness's own arithmetic and formats: if these are wrong, every
//! number the benchmark prints is.

use affinity_sched::trace::json::{parse, Value};
use afs_benchmark::compare::compare;
use afs_benchmark::harness::slices;
use afs_benchmark::report::{metrics_json, result_line, Outcome};
use afs_benchmark::rng::SplitMix64;
use afs_benchmark::spans::{SpanLog, NONE};
use afs_benchmark::spec::{valid_name, Spec};
use afs_benchmark::stats::{median, percentile, quartile_spread, slice_rates};
use afs_benchmark::WORKLOADS;
use std::time::Duration;

#[test]
fn percentile_is_nearest_rank_on_unsorted_input() {
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.5), 50.0);
    assert_eq!(percentile(&samples, 0.99), 99.0);
    assert_eq!(percentile(&samples, 1.0), 100.0);
    assert_eq!(percentile(&samples, 0.0), 1.0);
    assert_eq!(percentile(&[7.0], 0.99), 7.0);
    assert!(percentile(&[], 0.5).is_nan());
}

#[test]
fn median_averages_the_middle_pair() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn quartile_spread_follows_the_drivers_rule() {
    // statistics.quantiles(v, n=4) gives [1.75, 3.5, 5.25] with median 3.5,
    // and [9.5, 11, 12.5] for the two-sample case.
    let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
    assert_eq!(quartile_spread(&v), Some(1.0));
    assert_eq!(quartile_spread(&[10.0, 12.0]), Some(3.0 / 11.0));
    assert_eq!(quartile_spread(&[7.0]), None);
}

#[test]
fn a_window_is_cut_into_100_ms_slices_but_never_fewer_than_ten() {
    assert_eq!(slices(Duration::from_secs(10)), 100);
    assert_eq!(slices(Duration::from_secs(3)), 30);
    assert_eq!(slices(Duration::from_millis(300)), 10);
}

#[test]
fn slice_rates_attribute_completions_to_the_slice_they_were_seen_in() {
    // 10 per 100 ms for a second, observed every 50 ms.
    let steady: Vec<(u64, u64)> = (0..=20).map(|i| (i * 50_000_000, i * 5)).collect();
    let rates = slice_rates(&steady, 1_000_000_000, 10);
    assert_eq!(rates.len(), 10);
    assert!(rates.iter().all(|r| (*r - 100.0).abs() < 1e-9), "{rates:?}");
}

#[test]
fn one_stalled_slice_moves_neither_the_median_nor_an_upper_slice() {
    // Same stream, but the observer was descheduled over [300, 500) ms: the
    // completions it missed land in the slice it woke in.
    let stalled: Vec<(u64, u64)> = (0..=20)
        .filter(|i| !(7..10).contains(i))
        .map(|i| (i * 50_000_000, i * 5))
        .collect();
    let rates = slice_rates(&stalled, 1_000_000_000, 10);
    assert_eq!(
        rates.iter().sum::<f64>(),
        1000.0,
        "nothing is lost: {rates:?}"
    );
    assert!(rates.iter().any(|r| *r < 100.0) && rates.iter().any(|r| *r > 100.0));
    assert_eq!(median(&rates), 100.0);
    assert_eq!(percentile(&rates, 0.75), 100.0);
}

#[test]
fn splitmix_stream_is_pinned() {
    // Reference values of splitmix64 seeded with 1234567: the benchmark's
    // inputs must not drift with the library's generators.
    let mut rng = SplitMix64::new(1234567);
    assert_eq!(rng.next_u64(), 6457827717110365317);
    assert_eq!(rng.next_u64(), 3203168211198807973);
    let mut a = SplitMix64::new(9);
    let mut b = SplitMix64::new(9);
    let mut xs: Vec<u32> = (0..50).collect();
    let mut ys = xs.clone();
    a.shuffle(&mut xs);
    b.shuffle(&mut ys);
    assert_eq!(xs, ys);
    assert!((0..1000).all(|_| (16..=128).contains(&a.in_range(16, 128))));
}

fn outcome() -> Outcome {
    let mut out = Outcome::default();
    out.put("time_per_op_us", 85.25, "us");
    out.put("setup_s", 0.3905342125, "s");
    out.put("odd\"name", f64::NAN, "x");
    out.count(1000, 0);
    out
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let out = outcome();
    let line = result_line(&out, out.metrics.iter().take(2));
    let doc = parse(&line).expect("the result line is JSON");
    let Value::Obj(members) = &doc else {
        panic!("not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(1000.0));
    let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
    // Every digit survives.
    assert_eq!(
        setup.get("value").and_then(Value::as_f64),
        Some(0.3905342125)
    );
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
}

#[test]
fn a_failed_gate_makes_the_run_incorrect() {
    let mut out = outcome();
    out.gate(true, || unreachable!("a holding gate builds no message"));
    assert!(out.correct());
    out.gate(false, || "ledger mismatch".to_string());
    assert!(!out.correct());
    let line = result_line(&out, []);
    assert_eq!(
        parse(&line)
            .unwrap()
            .get("correct")
            .and_then(Value::as_bool),
        Some(false)
    );
}

#[test]
fn metrics_json_escapes_names_and_nulls_non_finite_values() {
    let out = outcome();
    let doc = parse(&format!("{{{}}}", metrics_json(&out.metrics))).expect("valid JSON");
    assert_eq!(
        doc.get("odd\"name").and_then(|m| m.get("value")),
        Some(&Value::Null)
    );
}

#[test]
fn span_log_records_parents_and_serializes() {
    let mut log = SpanLog::with_capacity(2);
    let root = log.begin("request", NONE, 7);
    let child = log.begin("admit", root, 7);
    log.end(child);
    log.end(root);
    assert_eq!(log.begin("overflow", root, 8), NONE);
    assert_eq!(log.dropped, 1);
    let spans = log.spans();
    assert_eq!(spans[1].parent, root);
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    let doc = parse(&log.to_json("serve-pingpong")).expect("span file is JSON");
    let listed = doc.get("spans").and_then(Value::as_array).unwrap();
    assert_eq!(listed.len(), 2);
    assert_eq!(listed[0].get("parent"), Some(&Value::Null));
    assert_eq!(listed[1].get("parent").and_then(Value::as_f64), Some(0.0));
    assert_eq!(listed[1].get("op").and_then(Value::as_f64), Some(7.0));

    let mut off = SpanLog::off();
    off.set_enabled(true);
    assert_eq!(
        off.begin("request", NONE, 0),
        NONE,
        "a log without room stays off"
    );
    assert_eq!(off.dropped, 0);
}

fn committed_spec() -> Spec {
    Spec::load(&afs_benchmark::report::repo_root()).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_names_the_harness_workloads_and_valid_unique_metrics() {
    let spec = committed_spec();
    let harness: Vec<&str> = WORKLOADS.iter().map(|(n, ..)| *n).collect();
    assert_eq!(spec.workloads, harness);
    let mut names: Vec<&str> = spec
        .end_to_end
        .iter()
        .chain(&spec.per_layer)
        .map(|d| d.name.as_str())
        .chain(spec.workloads.iter().map(String::as_str))
        .collect();
    assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
    let before = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), before, "a name is used twice");
    assert!(spec
        .end_to_end
        .iter()
        .any(|d| d.name == "setup_s" && !d.higher_is_better));
    assert!(spec
        .end_to_end
        .iter()
        .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && valid_name("a.b-c_1"));
}

fn result_doc(workload: &str, time_per_op: f64, failed: u64) -> String {
    format!(
        "{{\"schema\": 1, \"runs\": [{{\"workload\": \"{workload}\", \"failed\": {failed}, \"metrics\": {{\
         \"time_per_op_us\": {{\"value\": {time_per_op}, \"unit\": \"us\"}}, \
         \"setup_s\": {{\"value\": 0.5, \"unit\": \"s\"}}, \
         \"peak_rss_mb\": {{\"value\": 10, \"unit\": \"MB\"}}}}}}]}}"
    )
}

/// One result document per value, all of `nest-tc`.
fn side(values: &[f64]) -> Vec<String> {
    values
        .iter()
        .map(|v| result_doc("nest-tc", *v, 0))
        .collect()
}

#[test]
fn compare_applies_the_bounds_with_a_as_base() {
    let spec = committed_spec();
    let bound = spec
        .end_to_end
        .iter()
        .find(|d| d.name == "time_per_op_us")
        .and_then(|d| d.bound)
        .unwrap();
    let base = side(&[100.0]);
    let within = compare(&spec, &base, &side(&[100.0 * (1.0 + bound * 0.9)])).unwrap();
    assert_eq!(within.violations, 0);
    let beyond = compare(&spec, &base, &side(&[100.0 * (1.0 + bound * 1.1)])).unwrap();
    assert_eq!(beyond.violations, 1, "{}", beyond.table);
    assert!(beyond.table.contains("VIOLATION"));
    // Better is never a violation; failed operations always are.
    assert_eq!(compare(&spec, &base, &side(&[10.0])).unwrap().violations, 0);
    let failed = [result_doc("nest-tc", 100.0, 3)];
    assert_eq!(compare(&spec, &base, &failed).unwrap().violations, 1);
    // A workload only one side ran is a violation; one neither ran is not.
    let other = [result_doc("nest-sor", 100.0, 0)];
    assert_eq!(compare(&spec, &base, &other).unwrap().violations, 2);
    assert!(compare(&spec, &["not json".to_string()], &base).is_err());
}

#[test]
fn compare_judges_medians_and_says_when_the_base_is_too_noisy_to_tell() {
    let spec = committed_spec();
    // One slow run on each side moves neither median.
    let steady = side(&[100.0, 101.0, 99.0, 100.0, 180.0, 99.0, 101.0, 100.0, 100.0]);
    let same = compare(&spec, &steady, &side(&[100.0, 170.0, 99.0, 101.0, 100.0])).unwrap();
    assert_eq!((same.violations, same.unresolved), (0, 0), "{}", same.table);
    let slower = compare(&spec, &steady, &side(&[140.0, 141.0, 139.0, 100.0, 180.0])).unwrap();
    assert_eq!(slower.violations, 1, "{}", slower.table);
    // A base whose quartiles are further apart than the bound cannot show
    // "unchanged" — unless every run of B beats every run of A.
    let noisy = side(&[60.0, 80.0, 100.0, 120.0, 140.0]);
    let overlap = compare(&spec, &noisy, &side(&[70.0, 90.0, 100.0, 110.0, 130.0])).unwrap();
    assert_eq!(
        (overlap.violations, overlap.unresolved),
        (0, 1),
        "{}",
        overlap.table
    );
    let clear = compare(&spec, &noisy, &side(&[50.0, 55.0, 58.0])).unwrap();
    assert_eq!(
        (clear.violations, clear.unresolved),
        (0, 0),
        "{}",
        clear.table
    );
}
