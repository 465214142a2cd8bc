//! Integration tests for the always-on metrics layer: the differential
//! contract is that three independent accounting paths — the post-hoc
//! trace (`afs-trace`), the per-loop `LoopMetrics`, and the always-on
//! `MetricsSnapshot` — agree *exactly* on every grab.

use afs_core::metrics::LoopMetrics;
use afs_metrics::{MetricsSnapshot, PerfStatus};
use afs_runtime::prelude::*;
use afs_trace::prelude::*;
use afs_trace::report::TraceReport;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

fn policies() -> Vec<RuntimeScheduler> {
    vec![
        RuntimeScheduler::static_partition(),
        RuntimeScheduler::self_sched(),
        RuntimeScheduler::gss(),
        RuntimeScheduler::factoring(),
        RuntimeScheduler::trapezoid(),
        RuntimeScheduler::afs_k_equals_p(),
        RuntimeScheduler::afs_with_k(2),
        RuntimeScheduler::afs_grab_ahead(8),
        RuntimeScheduler::afs_last_exec(),
    ]
}

/// The acceptance criterion: trace report, `LoopMetrics`, and the metrics
/// snapshot agree exactly — grab counts by kind, iterations, and (for the
/// lock-free AFS path) CAS retries, which both the trace and the counters
/// observe at the same program point.
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

        assert_eq!(t.local_grabs, m.sync.local, "{name}: local vs LoopMetrics");
        assert_eq!(t.remote_grabs, m.sync.remote, "{name}: remote");
        assert_eq!(t.central_grabs, m.sync.central, "{name}: central");
        assert_eq!(t.free_grabs, m.sync.free, "{name}: free");
        assert_eq!(t.iters, m.total_iters(), "{name}: iterations");

        assert_eq!(t.local_grabs, report.grabs.local, "{name}: local vs trace");
        assert_eq!(t.remote_grabs, report.grabs.remote, "{name}: remote");
        assert_eq!(t.central_grabs, report.grabs.central, "{name}: central");
        assert_eq!(t.free_grabs, report.grabs.free, "{name}: free");
        assert_eq!(t.cas_retries, report.cas_retries, "{name}: CAS retries");

        // Per-worker iteration counts, not just totals.
        for w in 0..p {
            assert_eq!(
                delta.workers[w].counters.iters, m.iters_per_worker[w],
                "{name}: worker {w} iterations"
            );
        }
    }
}

/// Seeded-interleaving stress: deterministic yield injection at the
/// barrier's race windows, 8 threads × 20 seeds, every policy. The
/// counters must stay exactly-once consistent with `LoopMetrics` under
/// every provoked interleaving.
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
            assert_eq!(t.iters, m.total_iters(), "{name} seed {seed}: iters");
            assert_eq!(t.local_grabs, m.sync.local, "{name} seed {seed}");
            assert_eq!(t.remote_grabs, m.sync.remote, "{name} seed {seed}");
            assert_eq!(t.central_grabs, m.sync.central, "{name} seed {seed}");
            assert_eq!(t.free_grabs, m.sync.free, "{name} seed {seed}");
            assert_eq!(
                t.barrier_spin + t.barrier_yield + t.barrier_park + t.barrier_turns,
                t.barrier_arrives,
                "{name} seed {seed}: barrier outcome accounting leak"
            );
        }
    }
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

/// Perf events: requesting them must never break the pool. Either the
/// kernel lets at least one worker open its group (status Active, and
/// readings are plain numbers) or the registry records the refusal and the
/// run completes counters-only.
#[test]
fn perf_request_degrades_gracefully() {
    let pool = Pool::builder(2).perf_events(true).build();
    let total = AtomicU64::new(0);
    parallel_for(&pool, 5_000, &RuntimeScheduler::afs_k_equals_p(), |_| {
        total.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(total.load(Ordering::Relaxed), 5_000);
    let s = pool.metrics().snapshot();
    match s.perf_status {
        PerfStatus::Active => {
            assert!(
                s.workers.iter().any(|w| w.perf.is_some()),
                "active status implies at least one open group"
            );
        }
        PerfStatus::Unavailable(ref reason) => {
            assert!(!reason.is_empty(), "refusal must carry a reason");
            assert!(s.workers.iter().all(|w| w.perf.is_none()));
        }
        PerfStatus::Disabled => panic!("perf was requested; status must not stay Disabled"),
    }
    // Counters are live either way.
    assert_eq!(s.totals().iters, 5_000);

    // A pool that never asked reports Disabled.
    let plain = Pool::new(2);
    assert_eq!(plain.metrics().snapshot().perf_status, PerfStatus::Disabled);
}

/// Exports of a real run round-trip through the in-tree JSON parser and
/// carry the headline families.
#[test]
fn exports_from_a_real_run_are_wellformed() {
    let pool = Pool::new(4);
    let mut merged = MetricsSnapshot::empty(4);
    let mut lm = LoopMetrics::new(4, 4);
    for _ in 0..2 {
        let before = pool.metrics().snapshot();
        let m = parallel_for(&pool, 3_000, &RuntimeScheduler::afs_k_equals_p(), |_| {});
        merged.merge(&pool.metrics().snapshot().delta_since(&before));
        lm.merge(&m);
    }
    let j = merged.to_json();
    let doc = afs_trace::json::parse(&j).expect("metrics JSON must parse");
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
    let prom = merged.to_prometheus();
    assert!(prom.contains("afs_grabs_total{worker=\"0\",kind=\"local\"}"));
    assert!(prom.contains("afs_loop_duration_ns_count 2"));
}
