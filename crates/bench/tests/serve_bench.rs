//! End-to-end check of the serving benchmark at quick sizes, and the
//! validation round trip: the JSON `--bench-serve` emits must pass
//! `--check-bench`, and corrupted copies of it must not.

use afs_bench::check::{self, BenchKind};
use afs_bench::serve;
use afs_core::json::{parse, Value};

#[test]
fn quick_serve_bench_runs_and_validates() {
    let result = serve::run(true);

    assert!(result.quick);
    assert!(!result.checked, "quick runs must not gate the speedup");
    assert_eq!(result.samples.len(), 9, "3 disciplines x 3 load points");
    assert!(result.calibrated_rps > 0.0);
    assert!(result.total_completed > 0);

    for s in &result.samples {
        assert!(
            ["fcfs", "drr", "batch"].contains(&s.discipline.as_str()),
            "unexpected discipline {}",
            s.discipline
        );
        assert!(
            s.completed <= s.offered,
            "{}: completed > offered",
            s.discipline
        );
        if s.mode == "saturate" {
            // Closed-loop clients retry until admitted: everything offered
            // must eventually complete.
            assert_eq!(
                s.completed, s.offered,
                "{}: saturation cell lost requests",
                s.discipline
            );
        }
        assert!(
            s.completed > 0,
            "{}/{}: nothing completed",
            s.discipline,
            s.mode
        );
        assert!(s.dispatches > 0);
        assert!(s.throughput_rps > 0.0);
        assert!(
            s.p50_ns <= s.p99_ns && s.p99_ns <= s.p999_ns,
            "{}/{}: quantiles out of order",
            s.discipline,
            s.mode
        );
        assert_eq!(s.tenants.len(), 2);
        let done: u64 = s.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(done, s.completed, "tenant ledgers must sum to the cell");
        if s.discipline == "batch" {
            assert!(
                s.batched_requests > 0,
                "batch cells must actually fuse requests"
            );
        }
    }

    // The emitted document passes the gate `--bench-serve` exits by and
    // `--check-bench` applies: an unchecked run always does.
    let doc = parse(&result.to_json()).expect("bench emits valid JSON");
    assert_eq!(check::validate(&doc), Ok(BenchKind::Serve));

    // Corrupted copies are rejected: a flipped bench tag, a checked run
    // that lost the speedup race, and a mangled sample row.
    let mut wrong_tag = doc.clone();
    let Value::Obj(members) = &mut wrong_tag else {
        panic!("bench document must be an object")
    };
    for (k, v) in members.iter_mut() {
        if k == "bench" {
            *v = Value::Str("swerve".into());
        }
    }
    assert!(check::validate(&wrong_tag).is_err());

    let mut lost = result.clone();
    lost.quick = false;
    lost.checked = true;
    lost.batch_over_fcfs = 0.5;
    let errs = check::validate(&parse(&lost.to_json()).unwrap()).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("batching lost")), "{errs:?}");

    let mut mangled = result.clone();
    mangled.samples[2].mode = "psychic".into();
    let errs = check::validate(&parse(&mangled.to_json()).unwrap()).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("mode")), "{errs:?}");
}
