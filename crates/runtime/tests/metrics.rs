//! Integration tests for the always-on metrics layer. The per-worker
//! counter slots are the one account of every grab — a region's
//! `LoopMetrics` is their delta by definition — and the differential
//! contract is that the two independent observations of a run, those
//! counters and the post-hoc trace (`afs-trace`), agree *exactly*.

use afs_core::json::Value;
use afs_core::metrics::LoopMetrics;
use afs_metrics::trace::prelude::*;
use afs_metrics::trace::TraceReport;
use afs_metrics::MetricsSnapshot;
use afs_runtime::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn policies() -> Vec<RuntimeScheduler> {
    vec![
        RuntimeScheduler::static_partition(),
        RuntimeScheduler::self_sched(),
        RuntimeScheduler::gss(),
        RuntimeScheduler::factoring(),
        RuntimeScheduler::trapezoid(),
        RuntimeScheduler::afs_k_equals_p(),
        RuntimeScheduler::afs_tuned(2, 1),
        RuntimeScheduler::afs_grab_ahead(8),
        RuntimeScheduler::afs_last_exec(),
    ]
}

/// The acceptance criterion: the counters and the trace agree exactly —
/// grab counts by kind, and (for the lock-free AFS path) CAS retries,
/// which both observe at the same program point — and the returned
/// `LoopMetrics` is the counters' delta, worker by worker.
#[test]
fn snapshot_agrees_with_trace_and_loop_metrics_exactly() {
    for policy in policies() {
        let p = 4;
        let sink = Arc::new(TraceSink::new(p));
        let pool = Pool::with_trace(p, Arc::clone(&sink));
        let before = pool.metrics().snapshot();
        let m = parallel_for(&pool, 4000, &policy, |i| {
            // Front-loaded cost provokes steals (and CAS contention).
            if i < 1000 {
                std::hint::black_box((0..1_500u64).sum::<u64>());
            }
        });
        let delta = pool.metrics().snapshot().delta_since(&before);
        drop(pool);
        let name = policy.name();
        let report = TraceReport::from_sink(&sink);
        let t = delta.totals();

        assert_eq!(t.sync(), report.grabs, "{name}: grabs by kind vs trace");
        assert_eq!(t.cas_retries, report.cas_retries, "{name}: CAS retries");
        assert_eq!(m.total_iters(), 4000, "{name}: iterations");

        for w in 0..p {
            let c = &delta.workers[w].counters;
            assert_eq!(c.sync(), m.per_worker[w], "{name}: worker {w} grabs");
            assert_eq!(
                c.iters, m.iters_per_worker[w],
                "{name}: worker {w} iterations"
            );
        }
        assert_eq!(t.sync(), m.sync, "{name}: grabs by kind");
    }
}

/// Seeded-interleaving stress: deterministic yield injection at the
/// barrier's race windows, 8 threads × 20 seeds, every policy. Every
/// iteration runs once and the counters stay consistent with `LoopMetrics`
/// under every provoked interleaving.
#[test]
fn seeded_stress_counters_exactly_once() {
    let p = 8;
    let n = 1024u64;
    let phases = 3usize;
    for seed in 0..20u64 {
        for policy in policies() {
            let pool = Pool::builder(p)
                .spin_budget(0, 2)
                .yield_injection(seed)
                .build();
            let before = pool.metrics().snapshot();
            let covered: Vec<AtomicU32> =
                (0..n * phases as u64).map(|_| AtomicU32::new(0)).collect();
            let m = parallel_phases(
                &pool,
                phases,
                |_| n,
                &policy,
                |ph, i| {
                    let prev = covered[(ph as u64 * n + i) as usize].fetch_add(1, Ordering::SeqCst);
                    assert_eq!(prev, 0, "{} seed {seed}: duplicated", policy.name());
                },
            );
            let t = pool.metrics().snapshot().delta_since(&before).totals();
            let name = policy.name();
            assert!(
                covered.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                "{name} seed {seed}: incomplete coverage"
            );
            assert_eq!(t.iters, n * phases as u64, "{name} seed {seed}: iters");
            assert_eq!(t.iters, m.total_iters(), "{name} seed {seed}: iters");
            assert_eq!(t.sync(), m.sync, "{name} seed {seed}");
            assert_eq!(
                t.barrier_spin + t.barrier_yield + t.barrier_park + t.barrier_turns,
                t.barrier_arrives,
                "{name} seed {seed}: barrier outcome accounting leak"
            );
        }
    }
}

/// A region's `LoopMetrics` counts that region only, even while another
/// thread runs regions on the same pool: the pool serializes the two
/// callers, so a counter reading taken anywhere but on the workers inside
/// the region could include the other caller's grabs.
#[test]
fn concurrent_callers_each_get_their_own_region() {
    let pool = Pool::new(2);
    let policy = RuntimeScheduler::afs_k_equals_p();
    std::thread::scope(|s| {
        for n in [1_000u64, 1_777] {
            let (pool, policy) = (&pool, &policy);
            s.spawn(move || {
                for region in 0..200 {
                    let m = parallel_for(pool, n, policy, |_| {});
                    assert_eq!(m.total_iters(), n, "n={n} region {region}");
                    let mut per_worker = afs_core::metrics::SyncOps::default();
                    for w in &m.per_worker {
                        per_worker.add(w);
                    }
                    assert_eq!(per_worker, m.sync, "n={n} region {region}");
                }
            });
        }
    });
}

/// Barrier accounting: on a fresh pool, one `parallel_phases` region
/// yields exactly `P × phases` arrivals — the in-region barriers plus the
/// single pool rendezvous — and the outcome split always sums back to the
/// arrivals.
#[test]
fn barrier_arrivals_account_for_every_phase() {
    let p = 4;
    let phases = 6usize;
    let pool = Pool::new(p);
    parallel_phases(
        &pool,
        phases,
        |_| 256,
        &RuntimeScheduler::afs_k_equals_p(),
        |_, _| {},
    );
    let t = pool.metrics().snapshot().totals();
    assert_eq!(t.barrier_arrives, (p * phases) as u64, "arrivals");
    // One turn-taker per in-region phase boundary.
    assert_eq!(t.barrier_turns, (phases - 1) as u64, "turns");
    assert_eq!(
        t.barrier_spin + t.barrier_yield + t.barrier_park + t.barrier_turns,
        t.barrier_arrives,
        "outcome split"
    );
}

/// Phase and region histograms: one phase sample per phase, one loop
/// sample per region.
#[test]
fn duration_histograms_sample_per_phase_and_region() {
    let pool = Pool::new(2);
    for region in 1..=3u64 {
        parallel_phases(&pool, 4, |_| 128, &RuntimeScheduler::gss(), |_, _| {});
        let s = pool.metrics().snapshot();
        assert_eq!(s.phase_ns.samples, 4 * region);
        assert_eq!(s.loop_ns.samples, region);
        assert!(s.loop_ns.total_ns >= s.phase_ns.max_ns);
    }
}

/// Grab-ahead amortization is observable: batched AFS serves most local
/// grabs from the stash, plain AFS never touches it.
#[test]
fn stash_hits_observe_grab_ahead() {
    let pool = Pool::new(4);
    let before = pool.metrics().snapshot();
    parallel_for(&pool, 20_000, &RuntimeScheduler::afs_k_equals_p(), |_| {});
    let plain = pool.metrics().snapshot().delta_since(&before);
    assert_eq!(plain.totals().stash_hits, 0, "plain AFS must not stash");

    let before = pool.metrics().snapshot();
    parallel_for(&pool, 20_000, &RuntimeScheduler::afs_grab_ahead(8), |_| {});
    let batched = pool.metrics().snapshot().delta_since(&before);
    assert!(
        batched.totals().stash_hits > 0,
        "grab-ahead must serve from the stash: {:?}",
        batched.totals()
    );
    // A stash hit is a local grab that skipped the CAS; hits are bounded
    // by the local grab count.
    assert!(batched.totals().stash_hits <= batched.totals().local_grabs);
}

/// The affinity hit ratio summarizes locality: 1.0 for an uncontended
/// balanced AFS run is not guaranteed, but the ratio must exist for AFS,
/// not exist for central-only policies, and always lie in [0, 1].
#[test]
fn affinity_hit_ratio_reflects_policy_class() {
    let pool = Pool::new(4);
    let before = pool.metrics().snapshot();
    parallel_for(&pool, 10_000, &RuntimeScheduler::afs_k_equals_p(), |_| {});
    let afs = pool.metrics().snapshot().delta_since(&before);
    let r = afs
        .affinity_hit_ratio()
        .expect("AFS does queue-based grabs");
    assert!((0.0..=1.0).contains(&r), "ratio {r} out of range");

    let before = pool.metrics().snapshot();
    parallel_for(&pool, 1_000, &RuntimeScheduler::self_sched(), |_| {});
    let ss = pool.metrics().snapshot().delta_since(&before);
    assert_eq!(
        ss.affinity_hit_ratio(),
        None,
        "central-only policies carry no locality signal"
    );
}

/// The key set of a JSON object, sorted (empty for a non-object).
fn keys(v: &Value) -> BTreeSet<&str> {
    match v {
        Value::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        _ => BTreeSet::new(),
    }
}

/// The metrics document's shape, pinned key by key: a field added to or
/// dropped from the snapshot shows up here as a one-line diff, and must
/// come with a `METRICS_SCHEMA_VERSION` bump.
#[test]
fn snapshot_json_has_exactly_the_schema_keys() {
    let pool = Pool::new(2);
    parallel_for(&pool, 1_000, &RuntimeScheduler::afs_k_equals_p(), |_| {});
    let doc = afs_core::json::parse(&pool.metrics().snapshot().to_json())
        .expect("metrics JSON must parse");
    assert_eq!(
        keys(&doc),
        BTreeSet::from([
            "schema_version",
            "stalls_detected",
            "deadline_misses",
            "effective_workers",
            "affinity_hit_ratio",
            "totals",
            "workers",
            "serve",
            "controllers",
            "phase_ns",
            "loop_ns",
        ])
    );
    let workers = doc
        .get("workers")
        .and_then(Value::as_array)
        .expect("workers array");
    assert_eq!(workers.len(), 2);
    for w in workers {
        assert_eq!(
            keys(w),
            BTreeSet::from(["worker", "pinned", "pinned_core", "stalls", "counters"])
        );
    }
}

/// The JSON export of a real run round-trips through the in-tree parser
/// and carries the headline counters.
#[test]
fn exports_from_a_real_run_are_wellformed() {
    let pool = Pool::new(4);
    let mut merged = MetricsSnapshot::empty(4);
    let mut lm = LoopMetrics::default();
    for _ in 0..2 {
        let before = pool.metrics().snapshot();
        let m = parallel_for(&pool, 3_000, &RuntimeScheduler::afs_k_equals_p(), |_| {});
        merged.merge(&pool.metrics().snapshot().delta_since(&before));
        lm.merge(&m);
    }
    let j = merged.to_json();
    let doc = afs_core::json::parse(&j).expect("metrics JSON must parse");
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_f64()),
        Some(afs_metrics::METRICS_SCHEMA_VERSION as f64)
    );
    let totals = doc.get("totals").expect("totals object");
    assert_eq!(
        totals.get("iters").and_then(|v| v.as_f64()),
        Some(lm.total_iters() as f64)
    );
    assert_eq!(
        totals.get("local_grabs").and_then(|v| v.as_f64()),
        Some(lm.sync.local as f64)
    );
    let workers = doc
        .get("workers")
        .and_then(|v| v.as_array())
        .expect("workers array");
    assert_eq!(workers.len(), 4);
    assert!(workers[0]
        .get("counters")
        .and_then(|c| c.get("local_grabs"))
        .is_some());
    assert_eq!(
        doc.get("loop_ns")
            .and_then(|h| h.get("samples"))
            .and_then(|v| v.as_f64()),
        Some(2.0)
    );
}
