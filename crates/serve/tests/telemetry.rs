//! Live-observability integration: the telemetry endpoint a `LoopServer`
//! starts, the JSON routes it serves, the serve events the pool's flight
//! recorder captures, and the request spans on the trace's serve lane.

use afs_core::json::{self, Value};
use afs_metrics::trace::chrome_trace;
use afs_metrics::trace::prelude::*;
use afs_metrics::{ServeEventKind, METRICS_SCHEMA_VERSION};
use afs_runtime::Pool;
use afs_serve::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The key set of a JSON object, sorted (empty for a non-object).
fn keys(v: &Value) -> BTreeSet<&str> {
    match v {
        Value::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        _ => BTreeSet::new(),
    }
}

fn req(tenant: usize, n: u64, phases: u32) -> LoopRequest {
    LoopRequest {
        tenant,
        kernel: ServeKernel::Touch,
        n,
        phases,
        policy: ServePolicy::Afs,
        deadline: None,
    }
}

/// A scrape of the builder-started `/snapshot.json` endpoint on a
/// quiesced server is the file-export document
/// (`metrics_snapshot().to_json()`, what `repro --metrics` writes), a
/// tenant name with a quote and a backslash comes back exactly, and the
/// `/healthz` and `/tune` routes keep their key sets.
#[test]
fn live_snapshot_json_matches_file_export() {
    let quoted = "beta\"quoted\\slash";
    let pool = Arc::new(Pool::new(2));
    let server = LoopServer::builder(Arc::clone(&pool))
        .tenant("alpha")
        .tenant(quoted)
        .telemetry("127.0.0.1:0")
        .build();
    let addr = server
        .telemetry_addr()
        .expect("telemetry endpoint must bind on 127.0.0.1:0");
    for i in 0..24u64 {
        assert!(server.admit(req((i % 2) as usize, 64 + i, 1)).is_accepted());
    }
    server.drain();

    let (code, live) = afs_metrics::get(addr, "/snapshot.json").expect("scrape /snapshot.json");
    assert_eq!(code, 200);
    let doc = json::parse(&live).expect("snapshot JSON parses");
    // The file-export path renders the same snapshot the endpoint serves.
    let export = json::parse(&server.metrics_snapshot().to_json()).expect("export parses");
    assert_eq!(doc, export, "live scrape vs file export must be identical");
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_f64()),
        Some(METRICS_SCHEMA_VERSION as f64)
    );
    // The quoted tenant name round-trips exactly through the live route.
    let tenants: Vec<&str> = doc
        .get("serve")
        .and_then(|s| s.get("tenants"))
        .and_then(Value::as_array)
        .expect("tenants array")
        .iter()
        .filter_map(|t| t.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(tenants, ["alpha", quoted]);
    // The served document has exactly the schema's keys, top level and
    // per worker.
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
    for w in doc
        .get("workers")
        .and_then(Value::as_array)
        .expect("workers array")
    {
        assert_eq!(
            keys(w),
            BTreeSet::from(["worker", "pinned", "pinned_core", "stalls", "counters"])
        );
    }
    let serve = doc.get("serve").expect("serve block rides the snapshot");
    assert_eq!(serve.get("admitted").and_then(|v| v.as_f64()), Some(24.0));
    assert_eq!(serve.get("completed").and_then(|v| v.as_f64()), Some(24.0));
    assert_eq!(
        keys(serve),
        BTreeSet::from([
            "discipline",
            "admitted",
            "completed",
            "timed_out",
            "failed",
            "expired",
            "shed",
            "shed_rate",
            "supervisor_restarts",
            "dispatches",
            "inline_dispatches",
            "dispatcher_parks",
            "dispatcher_wakes",
            "batch_parks",
            "turn_retires",
            "batched_requests",
            "tenants",
        ])
    );
    for t in serve
        .get("tenants")
        .and_then(Value::as_array)
        .expect("tenants array")
    {
        assert_eq!(
            keys(t),
            BTreeSet::from([
                "name",
                "admitted",
                "completed",
                "timed_out",
                "failed",
                "expired",
                "shed",
                "iters",
                "queue_p50_ns",
                "p50_ns",
                "p99_ns",
                "p999_ns",
                "max_ns",
            ])
        );
    }

    let (code, health) = afs_metrics::get(addr, "/healthz").expect("scrape /healthz");
    assert_eq!(code, 200, "healthy pool: {health}");
    let health = json::parse(&health).expect("healthz JSON parses");
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(
        keys(&health),
        BTreeSet::from([
            "status",
            "workers",
            "stalls_detected",
            "shed_spike_active",
            "triggers",
        ])
    );
    let (code, tune) = afs_metrics::get(addr, "/tune").expect("scrape /tune");
    assert_eq!(code, 200);
    let tune = json::parse(&tune).expect("tune JSON parses");
    assert_eq!(keys(&tune), BTreeSet::from(["controllers", "trajectory"]));
    assert!(tune.get("trajectory").and_then(Value::as_array).is_some());
    // The endpoint serves JSON only: `/metrics` is not a route.
    let (code, _) = afs_metrics::get(addr, "/metrics").expect("request /metrics");
    assert_eq!(code, 404);
    server.shutdown();
}

/// The black box sees the whole request lifecycle: one Admit, one
/// Dispatch and one Complete per request land in the pool recorder's
/// serve ring, in admit→dispatch→complete order per id.
#[test]
fn serve_events_capture_the_request_lifecycle() {
    let pool = Arc::new(Pool::new(2));
    let server = LoopServer::builder(Arc::clone(&pool)).tenant("t").build();
    let mut ids = Vec::new();
    for i in 0..8u64 {
        match server.admit(req(0, 32 + i, 1)) {
            Admit::Accepted { id } => ids.push(id),
            Admit::Shed(r) => panic!("unexpected shed: {r:?}"),
        }
    }
    server.drain();
    let events = pool.recorder().serve_records();
    for id in ids {
        let of_id: Vec<ServeEventKind> = events
            .iter()
            .filter(|e| e.id == id && e.kind != ServeEventKind::Shed)
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            of_id,
            vec![
                ServeEventKind::Admit,
                ServeEventKind::Dispatch,
                ServeEventKind::Complete
            ],
            "request {id}: lifecycle order in the serve ring"
        );
    }
    server.shutdown();
}

/// A burst of sheds inside the recorder's window trips the shed-spike
/// trigger — the PR 6 shed verdicts wired into the black box.
#[test]
fn shed_burst_trips_the_spike_trigger() {
    let pool = Arc::new(Pool::new(2));
    // Manual mode: nothing dispatches, so a tiny backlog cap sheds the
    // overflow deterministically.
    let server = LoopServer::builder(Arc::clone(&pool))
        .tenant_spec(TenantSpec::new("t").backlog_cap(1))
        .manual()
        .build();
    assert!(server.admit(req(0, 32, 1)).is_accepted());
    for _ in 0..24 {
        assert!(!server.admit(req(0, 32, 1)).is_accepted());
    }
    assert!(
        pool.recorder().triggered(),
        "24 sheds in the default 32-event window must trip its threshold of 16"
    );
    assert!(pool.recorder().trigger_counts()[3] >= 1);
}

/// Request spans: a multi-phase request decomposes on the trace's serve
/// lane — admit, dispatch, one `RequestPhase` per phase, then
/// `RequestComplete` — and the Chrome export draws the async `b`/`e`
/// pair for it.
#[test]
fn request_spans_decompose_the_sojourn() {
    let p = 2usize;
    let sink = Arc::new(TraceSink::new(p + 2));
    let pool = Arc::new(Pool::with_trace(p, Arc::clone(&sink)));
    let server = LoopServer::builder(Arc::clone(&pool))
        .tenant("t")
        .trace(Arc::clone(&sink))
        .build();
    let id = match server.admit(req(0, 128, 3)) {
        Admit::Accepted { id } => id,
        Admit::Shed(r) => panic!("unexpected shed: {r:?}"),
    };
    server.drain();
    server.shutdown();

    let lane: Vec<EventKind> = sink.events(p + 1).iter().map(|e| e.kind).collect();
    let phases: Vec<u32> = lane
        .iter()
        .filter_map(|k| match k {
            EventKind::RequestPhase { id: i, phase } if *i == id => Some(*phase),
            _ => None,
        })
        .collect();
    assert_eq!(phases, vec![0, 1, 2], "one phase mark per request phase");
    let admit_at = lane
        .iter()
        .position(|k| matches!(k, EventKind::RequestAdmit { id: i, .. } if *i == id))
        .expect("admit on the serve lane");
    let complete_at = lane
        .iter()
        .position(|k| matches!(k, EventKind::RequestComplete { id: i, .. } if *i == id))
        .expect("complete on the serve lane");
    assert!(admit_at < complete_at, "span opens before it closes");

    let doc = json::parse(&chrome_trace(&sink, "spans")).expect("trace parses");
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    let has = |name: &str, ph: &str| {
        events.iter().any(|e| {
            e.get("name").and_then(Value::as_str) == Some(name)
                && e.get("cat").and_then(Value::as_str) == Some("serve")
                && e.get("ph").and_then(Value::as_str) == Some(ph)
                && e.get("id").and_then(Value::as_f64) == Some(id as f64)
        })
    };
    assert!(has("request", "b"));
    assert!(has("request", "e"));
    assert!(has("service", "b"));
    assert!(has("phase 2", "n"));
}
