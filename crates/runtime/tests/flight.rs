//! Flight-recorder integration: the pool's black box captures per-phase
//! summary records at every barrier, and an armed trigger (stall, phase
//! panic) dumps them to disk — with the triggering phase's record *in*
//! the dump, because the write is deferred to the next phase boundary or
//! pool drop.

use afs_core::json::{self, Value};
use afs_runtime::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A unique scratch directory under the system temp dir (std-only; no
/// tempfile crate in the workspace).
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "afs-flight-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The key set of a JSON object, sorted (empty for a non-object).
fn keys(v: &Value) -> BTreeSet<&str> {
    match v {
        Value::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        _ => BTreeSet::new(),
    }
}

fn dumps_in(dir: &PathBuf) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read scratch dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with(".json"))
        })
        .collect();
    out.sort();
    out
}

/// The healthy path: phases are recorded in the ring, but with no trigger
/// there is no dump — the black box is silent until something goes wrong.
#[test]
fn no_trigger_means_no_dump() {
    let dir = scratch("quiet");
    {
        let pool = Pool::builder(2).flight_dir(&dir).build();
        parallel_phases(
            &pool,
            4,
            |_| 512,
            &RuntimeScheduler::afs_k_equals_p(),
            |_, _| {},
        );
        let recs = pool.recorder().phase_records();
        assert_eq!(recs.len(), 4, "one summary record per phase");
        assert!(
            recs.iter().all(|r| r.counters.iters == 512),
            "per-phase iter delta"
        );
        assert!(!pool.recorder().triggered());
    }
    assert!(dumps_in(&dir).is_empty(), "no fault, no dump");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The merged lanes of a 64-phase P = 2 region: one record per phase, in
/// phase order with monotone `seq`, each carrying the phase's whole `n`
/// iterations, and grab columns that sum to the region's `LoopMetrics`.
#[test]
fn lanes_merge_into_one_record_per_phase_matching_the_region_totals() {
    let (phases, n) = (64, 64);
    let pool = Pool::new(2);
    // An earlier region, so this one's sequence numbers do not start at 0.
    parallel_for(&pool, 8, &RuntimeScheduler::afs_k_equals_p(), |_| {});
    let m = parallel_phases(
        &pool,
        phases,
        |_| n,
        &RuntimeScheduler::afs_k_equals_p(),
        |_, _| {},
    );
    let recs = pool.recorder().phase_records();
    let recs = &recs[recs.len() - phases..];
    for (i, r) in recs.iter().enumerate() {
        assert_eq!(r.phase, i as u64, "phase order: {recs:?}");
        assert_eq!(r.seq, recs[0].seq + i as u64, "monotone seq");
        assert_eq!(r.counters.iters, n, "phase {i}: every iteration, once");
    }
    assert_eq!(recs[0].seq, 1, "the earlier region's one record came first");
    let mut grabs = afs_core::metrics::SyncOps::default();
    for r in recs {
        grabs.add(&r.counters.sync());
    }
    assert_eq!(
        grabs, m.sync,
        "grab columns sum to the region's LoopMetrics"
    );
    assert_eq!(m.total_iters(), phases as u64 * n);
}

/// The acceptance path: an injected stall arms the recorder mid-phase and
/// the dump — written at the next boundary or drop — contains the stalled
/// phase's summary record, exactly once per pool.
#[test]
fn injected_stall_produces_exactly_one_parseable_dump() {
    let dir = scratch("stall");
    {
        // Freeze worker 0 at its first grab of phase 0 for far longer
        // than the watchdog interval (same recipe as the watchdog test).
        let pool = Pool::builder(2)
            .flight_dir(&dir)
            .faults(FaultPlan::new(1).with_stall(0, 0, 0, Duration::from_millis(400)))
            .watchdog(Duration::from_millis(25))
            .build();
        let m = parallel_for(&pool, 64, &RuntimeScheduler::afs_k_equals_p(), |_| {});
        assert_eq!(m.total_iters(), 64);
        assert!(pool.metrics().stalls() >= 1, "the stall must be detected");
        assert!(pool.recorder().triggered());
    }
    let dumps = dumps_in(&dir);
    assert_eq!(dumps.len(), 1, "exactly one dump per pool: {dumps:?}");
    let text = std::fs::read_to_string(&dumps[0]).expect("read dump");
    let doc = json::parse(&text).expect("dump must be valid JSON");
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_f64()),
        Some(afs_metrics::METRICS_SCHEMA_VERSION as f64)
    );
    assert_eq!(
        doc.get("trigger")
            .and_then(|t| t.get("kind"))
            .and_then(|v| v.as_str()),
        Some("stall"),
        "first trigger names the cause"
    );
    let phases = doc
        .get("phases")
        .and_then(|v| v.as_array())
        .expect("phases array");
    // The stalled phase (phase 0, the run's only phase) is in the dump:
    // the write was deferred to its barrier, not taken at trigger time.
    assert!(
        phases.iter().any(|p| {
            p.get("phase").and_then(|v| v.as_f64()) == Some(0.0)
                && p.get("iters").and_then(|v| v.as_f64()) == Some(64.0)
        }),
        "dump must contain the stalled phase's summary record"
    );
    // Every phase record has exactly the documented keys, nested ones too.
    let nested = [
        (
            "grabs",
            BTreeSet::from(["local", "remote", "central", "free"]),
        ),
        ("barrier", BTreeSet::from(["spin", "yield", "park"])),
        ("tune", BTreeSet::from(["k", "b"])),
    ];
    for p in phases {
        assert_eq!(
            keys(p),
            BTreeSet::from([
                "seq",
                "phase",
                "wall_ns",
                "grabs",
                "iters",
                "cas_retries",
                "stash_hits",
                "barrier",
                "affinity_hit_ratio",
                "tune",
            ])
        );
        for (field, want) in &nested {
            assert_eq!(&keys(p.get(field).expect("nested object")), want, "{field}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A contained phase panic is a trigger too: the dump's trigger block
/// names the worker and phase the `PhaseError` reported.
#[test]
fn phase_panic_dumps_with_phase_error_trigger() {
    let dir = scratch("panic");
    {
        let pool = Pool::builder(4)
            .flight_dir(&dir)
            .faults(FaultPlan::new(7).with_panic_at(1, 0, 1500))
            .build();
        let err = try_parallel_for(&pool, 4096, &RuntimeScheduler::static_partition(), |_| {})
            .unwrap_err();
        assert_eq!(err.worker(), 1);
        let counts = pool.recorder().trigger_counts();
        assert_eq!(counts[1], 1, "one phase_error trigger: {counts:?}");
    }
    let dumps = dumps_in(&dir);
    assert_eq!(dumps.len(), 1, "exactly one dump per pool: {dumps:?}");
    let doc = json::parse(&std::fs::read_to_string(&dumps[0]).unwrap()).expect("valid JSON");
    let trig = doc.get("trigger").expect("trigger block");
    assert_eq!(
        trig.get("kind").and_then(|v| v.as_str()),
        Some("phase_error")
    );
    assert_eq!(trig.get("worker").and_then(|v| v.as_f64()), Some(1.0));
    assert_eq!(trig.get("phase").and_then(|v| v.as_f64()), Some(0.0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An adaptive-scheduled run stamps the live (k, b) on every phase
/// record, and a pool with a flight directory but no trigger writes no
/// dump.
#[test]
fn adaptive_records_carry_k_and_no_trigger_writes_no_dump() {
    let dir = scratch("tune");
    {
        let pool = Pool::builder(2).flight_dir(&dir).build();
        parallel_phases(
            &pool,
            3,
            |_| 2048,
            &RuntimeScheduler::adaptive(2),
            |_, _| {},
        );
        let recs = pool.recorder().phase_records();
        assert_eq!(recs.len(), 3);
        assert!(
            recs.iter().all(|r| r.k > 0),
            "adaptive runs stamp the live k on each record: {recs:?}"
        );
    }
    assert!(dumps_in(&dir).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
