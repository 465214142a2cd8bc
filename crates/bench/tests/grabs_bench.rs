//! Smoke test for the grab-latency microbench: a quick run measures every
//! (policy, impl, P) cell and emits parseable JSON.

use afs_bench::grabs;

#[test]
fn quick_bench_measures_every_cell_and_emits_valid_json() {
    let result = grabs::run(true);
    // 4 mutex/lockfree pairs, each at 3 worker counts, under both the
    // interleaved and the threaded protocol.
    assert_eq!(
        result.samples.len(),
        8 * grabs::WORKERS.len() * grabs::PROTOCOLS.len()
    );
    for s in &result.samples {
        assert!(
            s.grabs > 0,
            "{}/{}/{} P={} measured nothing",
            s.protocol,
            s.policy,
            s.implementation,
            s.p
        );
        assert!(
            s.total_ns > 0,
            "{}/{}/{} P={} took zero time",
            s.protocol,
            s.policy,
            s.implementation,
            s.p
        );
    }
    // Both implementations are present for each lock-free policy pair.
    for policy in ["AFS", "SS", "CSS(16)", "GSS"] {
        for p in grabs::WORKERS {
            assert!(result.speedup(policy, p).is_some(), "{policy} P={p}");
        }
    }

    let json = result.to_json();
    let v = afs_core::json::parse(&json).expect("BENCH_grabs.json must be valid JSON");
    assert_eq!(
        v.get("bench").and_then(|b| b.as_str()),
        Some("grab_latency")
    );
    let samples = v
        .get("samples")
        .and_then(|s| s.as_array())
        .expect("samples array");
    assert_eq!(samples.len(), result.samples.len());
    assert!(v
        .get("speedup_mutex_over_lockfree_interleaved")
        .and_then(|s| s.as_array())
        .is_some_and(|a| !a.is_empty()));
}
