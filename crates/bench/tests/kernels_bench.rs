//! Smoke test for the end-to-end kernel benchmark: a quick run measures
//! every (kernel, policy, pinned) cell and emits parseable JSON with the
//! per-policy pinning deltas.

use afs_bench::kernels;

#[test]
fn quick_bench_measures_every_cell_and_emits_valid_json() {
    let result = kernels::run(true);
    // 5 policies × 3 kernels × 2 pinning states.
    assert_eq!(result.samples.len(), 5 * kernels::KERNELS.len() * 2);
    for s in &result.samples {
        assert!(s.p == kernels::P);
        assert!(
            s.iters > 0 && s.phases > 0,
            "{}/{} measured nothing",
            s.kernel,
            s.policy
        );
        assert!(
            s.best_ns > 0 && s.total_ns >= s.best_ns,
            "{}/{} took zero time",
            s.kernel,
            s.policy
        );
    }
    // Every (kernel, policy) row has its pinning delta.
    for kernel in kernels::KERNELS {
        for policy in ["AFS", "AFS(ga=8)", "GSS", "SS", "STATIC"] {
            assert!(
                result.pin_speedup(kernel, policy).is_some(),
                "{kernel}/{policy} missing pin delta"
            );
        }
    }

    let json = result.to_json();
    let v = afs_core::json::parse(&json).expect("BENCH_kernels.json must be valid JSON");
    assert_eq!(v.get("bench").and_then(|b| b.as_str()), Some("kernels"));
    assert!(matches!(
        v.get("quick"),
        Some(afs_core::json::Value::Bool(true))
    ));
    let samples = v
        .get("samples")
        .and_then(|s| s.as_array())
        .expect("samples array");
    assert_eq!(samples.len(), result.samples.len());
    assert!(
        v.get("pin_speedup_unpinned_over_pinned")
            .and_then(|s| s.as_array())
            .is_some_and(|a| !a.is_empty()),
        "pin_speedup_unpinned_over_pinned missing"
    );
}
