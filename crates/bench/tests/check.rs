//! The bench regression gate against the *committed* trajectory files:
//! `repro --check-bench` must accept every BENCH document as it exists in
//! the repository, reject synthetic corruption, and catch planted
//! regressions against a baseline.

use afs_bench::check::{compare, validate, BenchKind};
use afs_core::json::{parse, Value};
use std::path::PathBuf;

fn committed(name: &str) -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}"))
}

#[test]
fn committed_bench_files_validate() {
    for (name, kind) in [
        ("BENCH_grabs.json", BenchKind::Grabs),
        ("BENCH_kernels.json", BenchKind::Kernels),
        ("BENCH_faults.json", BenchKind::Faults),
        ("BENCH_serve.json", BenchKind::Serve),
        ("BENCH_adaptive.json", BenchKind::Adaptive),
        ("BENCH_chaos.json", BenchKind::Chaos),
    ] {
        let doc = committed(name);
        assert_eq!(validate(&doc), Ok(kind), "{name}");
        assert!(
            matches!(doc.get("quick"), Some(Value::Bool(false))),
            "{name} must be a full-size run"
        );
    }
}

#[test]
fn corrupting_a_committed_file_fails_validation() {
    for name in ["BENCH_grabs.json", "BENCH_kernels.json"] {
        let mut doc = committed(name);
        // Swap the bench tag for nonsense — the cheapest corruption a bad
        // merge could produce.
        let Value::Obj(members) = &mut doc else {
            panic!("{name} must be an object")
        };
        for (k, v) in members.iter_mut() {
            if k == "bench" {
                *v = Value::Str("garbage".into());
            }
        }
        let errs = validate(&doc).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("garbage")),
            "{name}: {errs:?}"
        );

        // And a field-level corruption inside one sample row.
        let mut doc = committed(name);
        let Value::Obj(members) = &mut doc else {
            unreachable!()
        };
        for (k, v) in members.iter_mut() {
            if k == "samples" {
                let Value::Arr(rows) = v else {
                    panic!("samples must be an array")
                };
                let Value::Obj(row) = &mut rows[0] else {
                    panic!("sample must be an object")
                };
                row.retain(|(k, _)| k != "policy");
            }
        }
        assert!(validate(&doc).is_err(), "{name}: dropped field must fail");
    }
}

#[test]
fn committed_files_compare_clean_against_themselves() {
    for name in ["BENCH_grabs.json", "BENCH_kernels.json"] {
        let doc = committed(name);
        let cmp = compare(&doc, &doc, 0.0).expect("self-comparison");
        assert!(cmp.ok());
        assert!(cmp.compared > 0, "{name}: no cells compared");
        assert!(cmp.improvements.is_empty());
        assert!(cmp.warnings.is_empty(), "{name}: {:?}", cmp.warnings);
        // A new run's host block lacks the `numa_nodes` that files written
        // before schema 10 carry: recorded data nobody reads, not a
        // different host. Toggle it — strip it where the committed file
        // has it, add it where a re-run dropped it — and compare.
        let mut fresh = doc.clone();
        let Value::Obj(members) = &mut fresh else {
            panic!("{name} must be an object")
        };
        for (k, v) in members.iter_mut() {
            if let (true, Value::Obj(host)) = (k == "host", v) {
                let before = host.len();
                host.retain(|(k, _)| k != "numa_nodes");
                if host.len() == before {
                    host.push(("numa_nodes".into(), Value::Num(1.0)));
                }
            }
        }
        assert_ne!(fresh, doc, "{name}: numa_nodes toggled");
        let cmp = compare(&fresh, &doc, 0.0).expect("comparable");
        assert!(cmp.warnings.is_empty(), "{name}: {:?}", cmp.warnings);
    }
}

#[test]
fn planted_regression_is_caught_against_committed_baseline() {
    let base = committed("BENCH_kernels.json");
    let mut slow = base.clone();
    let Value::Obj(members) = &mut slow else {
        panic!()
    };
    for (k, v) in members.iter_mut() {
        if k == "samples" {
            let Value::Arr(rows) = v else { panic!() };
            let Value::Obj(row) = &mut rows[0] else {
                panic!()
            };
            for (k, v) in row.iter_mut() {
                if k == "best_ns" || k == "total_ns" {
                    let n = v.as_f64().unwrap();
                    *v = Value::Num(n * 10.0);
                }
            }
        }
    }
    let cmp = compare(&slow, &base, 0.30).expect("comparable");
    assert_eq!(cmp.regressions.len(), 1, "{:?}", cmp.regressions);
    assert!(
        cmp.regressions[0].contains("10.00x"),
        "{:?}",
        cmp.regressions
    );
    // The same run seen as baseline reads as an improvement, not a
    // regression — direction matters.
    let cmp = compare(&base, &slow, 0.30).expect("comparable");
    assert!(cmp.ok());
    assert_eq!(cmp.improvements.len(), 1);
}
