//! Integration tests: tracing a real `parallel_for` / `parallel_phases`
//! execution and checking the recorded trace against the runtime's own
//! `LoopMetrics` ground truth.

use afs_core::metrics::LoopMetrics;
use afs_runtime::prelude::*;
use afs_trace::json;
use afs_trace::prelude::*;
use afs_trace::report::TraceReport;
use afs_trace::timeline::chunk_span_total;
use afs_trace::timeline::SegmentKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn traced_run(policy: &RuntimeScheduler, n: u64, p: usize) -> (Arc<TraceSink>, LoopMetrics) {
    let sink = Arc::new(TraceSink::new(p));
    let pool = Pool::with_trace(p, Arc::clone(&sink));
    let metrics = parallel_for(&pool, n, policy, |i| {
        // A small cost so chunks have measurable spans.
        std::hint::black_box((0..i % 64).sum::<u64>());
    });
    drop(pool);
    (sink, metrics)
}

/// The acceptance criterion for the tracing subsystem: grab events in the
/// trace match `SyncOps` in `LoopMetrics` exactly, class by class.
#[test]
fn grab_events_match_loop_metrics_exactly() {
    for (name, policy) in [
        ("AFS", RuntimeScheduler::afs_k_equals_p()),
        ("AFS-LE", RuntimeScheduler::afs_last_exec()),
        ("GSS", RuntimeScheduler::gss()),
        ("SS", RuntimeScheduler::self_sched()),
        ("STATIC", RuntimeScheduler::static_partition()),
        ("FACTORING", RuntimeScheduler::factoring()),
    ] {
        let (sink, metrics) = traced_run(&policy, 4000, 4);
        let report = TraceReport::from_sink(&sink);
        assert_eq!(report.grabs.local, metrics.sync.local, "{name}: local");
        assert_eq!(report.grabs.remote, metrics.sync.remote, "{name}: remote");
        assert_eq!(
            report.grabs.central, metrics.sync.central,
            "{name}: central"
        );
        assert_eq!(report.grabs.free, metrics.sync.free, "{name}: free");
        assert_eq!(sink.dropped(0), 0, "{name}: ring must not overflow here");
    }
}

/// The assembled timeline's per-lane busy totals equal the sum of that
/// lane's chunk spans — the Gantt chart shows real execution time.
#[test]
fn timeline_busy_equals_chunk_spans() {
    let (sink, metrics) = traced_run(&RuntimeScheduler::afs_k_equals_p(), 8000, 4);
    assert_eq!(metrics.total_iters(), 8000);
    let tl = to_timeline(&sink);
    assert_eq!(tl.lanes.len(), 4);
    let mut chunks_seen = 0u64;
    for w in 0..4 {
        let busy = tl.lane_total(w, SegmentKind::Busy);
        let spans = chunk_span_total(&sink, w);
        assert!(
            (busy - spans).abs() <= 1e-9 * spans.max(1.0),
            "lane {w}: busy {busy} != chunk spans {spans}"
        );
        chunks_seen += sink
            .events(w)
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ChunkStart { .. }))
            .count() as u64;
    }
    // One ChunkStart per grab.
    assert_eq!(chunks_seen, metrics.sync.total());
    // The Gantt renderer works on real traces out of the box.
    let gantt = tl.render_gantt(64);
    assert!(gantt.contains("P0") && gantt.contains('█'));
}

/// Golden test: the Chrome exporter emits parseable JSON whose per-lane
/// timestamps are monotonically non-decreasing.
#[test]
fn chrome_export_parses_with_monotone_lanes() {
    let (sink, _) = traced_run(&RuntimeScheduler::afs_k_equals_p(), 6000, 4);
    let out = chrome_trace(&sink, "integration \"test\"");
    let doc = json::parse(&out).expect("exporter must emit valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut last_ts: Vec<f64> = vec![f64::NEG_INFINITY; 4];
    let mut phases_seen = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph field");
        phases_seen.insert(ph.to_string());
        if ph == "M" {
            continue; // metadata records carry no timestamp
        }
        let tid = ev.get("tid").and_then(|v| v.as_f64()).expect("tid") as usize;
        let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts");
        assert!(
            ts >= last_ts[tid],
            "lane {tid}: ts went backwards ({} -> {ts})",
            last_ts[tid]
        );
        last_ts[tid] = ts;
        if ph == "X" {
            let dur = ev.get("dur").and_then(|v| v.as_f64()).expect("dur");
            assert!(dur >= 0.0);
        }
    }
    // Chunks, grabs, barrier instants and metadata must all be present.
    for needed in ["M", "X", "i"] {
        assert!(phases_seen.contains(needed), "missing ph {needed:?}");
    }
    // The escaped process name survives the round trip.
    let meta_name = events
        .iter()
        .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("process_name"))
        .and_then(|e| e.get("args"))
        .and_then(|a| a.get("name"))
        .and_then(|v| v.as_str())
        .expect("process_name metadata");
    assert_eq!(meta_name, "integration \"test\"");
}

/// A disabled sink records nothing during a full traced run, and the run
/// still produces correct results.
#[test]
fn disabled_sink_records_no_events() {
    let sink = Arc::new(TraceSink::new(3));
    sink.set_enabled(false);
    let pool = Pool::with_trace(3, Arc::clone(&sink));
    let total = AtomicU64::new(0);
    let m = parallel_for(&pool, 5000, &RuntimeScheduler::afs_k_equals_p(), |_| {
        total.fetch_add(1, Ordering::Relaxed);
    });
    drop(pool);
    assert_eq!(total.load(Ordering::Relaxed), 5000);
    assert_eq!(m.total_iters(), 5000);
    assert_eq!(sink.total_events(), 0, "disabled sink must stay empty");
    assert!((0..3).all(|w| sink.dropped(w) == 0));
}

/// Every wait that escalates to a park is both traced and counted: on a
/// zero-budget pool the lanes' `BarrierPark` events match the registry's
/// `barrier_park` total, except that a worker parked when the pool shuts
/// down records its commit but never an arrival (at most one per worker).
#[test]
fn park_events_mirror_the_park_counter() {
    let p = 4;
    let sink = Arc::new(TraceSink::new(p));
    let pool = Pool::builder(p)
        .spin_budget(0, 0)
        .trace(Arc::clone(&sink))
        .build();
    parallel_phases(
        &pool,
        8,
        |_| 512,
        &RuntimeScheduler::afs_k_equals_p(),
        |_, _| std::thread::yield_now(),
    );
    let registry = Arc::clone(pool.metrics());
    drop(pool);
    let counted = registry.snapshot().totals().barrier_park;
    let traced = (0..p)
        .flat_map(|w| sink.events(w))
        .filter(|ev| ev.kind == EventKind::BarrierPark)
        .count() as u64;
    assert!(
        (counted..=counted + p as u64).contains(&traced),
        "{traced} park events against {counted} counted parks"
    );
}

/// One sink spans several loops and phases run on the same pool, and the
/// steal matrix attributes remote grabs to real victims.
#[test]
fn sink_accumulates_across_phases() {
    let sink = Arc::new(TraceSink::new(4));
    let pool = Pool::with_trace(4, Arc::clone(&sink));
    let mut expect = LoopMetrics::new(4, 4);
    for _ in 0..3 {
        let m = parallel_phases(
            &pool,
            2,
            |_| 1500,
            &RuntimeScheduler::afs_k_equals_p(),
            |_, i| {
                // Front-loaded cost forces steals from worker 0's queue.
                if i < 400 {
                    std::hint::black_box((0..2_000u64).sum::<u64>());
                }
            },
        );
        expect.merge(&m);
    }
    drop(pool);
    let report = TraceReport::from_sink(&sink);
    assert_eq!(report.grabs.local, expect.sync.local);
    assert_eq!(report.grabs.remote, expect.sync.remote);
    let stolen: u64 = report.steals.iter().flatten().sum();
    assert_eq!(stolen, expect.sync.remote);
    // No worker steals from itself in the matrix.
    assert!((0..4).all(|w| report.steals[w][w] == 0));
}
