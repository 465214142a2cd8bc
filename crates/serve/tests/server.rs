//! End-to-end server tests: admission backpressure, every discipline
//! completing real work on a real pool, latency stamping invariants,
//! snapshot/Prometheus integration, and trace events.

use afs_runtime::Pool;
use afs_serve::prelude::*;
use afs_trace::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

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

fn disciplines() -> Vec<Discipline> {
    vec![
        Discipline::CentralFcfs,
        Discipline::TenantDrr { quantum: 256 },
        Discipline::Batch {
            max_requests: 8,
            max_iters: 8192,
        },
    ]
}

/// Every discipline: admit a mixed bag of requests
/// from two tenants, drain, and check the ledger balances — everything
/// admitted completed, iteration counts are exact, and the three latency
/// histograms sampled once per completed request.
#[test]
fn every_discipline_completes_the_ledger() {
    for discipline in disciplines() {
        let pool = Arc::new(Pool::new(4));
        let server = LoopServer::builder(Arc::clone(&pool))
            .tenant("small")
            .tenant("bulk")
            .discipline(discipline)
            .build();
        let mut offered_iters = [0u64; 2];
        for i in 0..40u64 {
            let (tenant, n, phases) = if i % 2 == 0 {
                (0, 32 + i, 1)
            } else {
                (1, 256 + i, 2)
            };
            assert!(server.admit(req(tenant, n, phases)).is_accepted());
            offered_iters[tenant] += n * phases as u64;
        }
        server.drain();
        let snap = server.shutdown();
        let label = discipline.label();
        assert_eq!(snap.discipline, label);
        assert_eq!(snap.admitted, 40, "{label}");
        assert_eq!(snap.completed, 40, "{label}");
        assert_eq!(snap.shed_total(), 0, "{label}");
        assert!(snap.dispatches >= 1, "{label}");
        for (t, tenant) in snap.tenants.iter().enumerate() {
            assert_eq!(tenant.admitted, 20, "{label}/{t}");
            assert_eq!(tenant.completed, 20, "{label}/{t}");
            assert_eq!(tenant.iters, offered_iters[t], "{label}/{t}: iterations");
            assert_eq!(tenant.queue_ns.samples, 20, "{label}/{t}: queue stamps");
            assert_eq!(tenant.service_ns.samples, 20, "{label}/{t}: service stamps");
            assert_eq!(tenant.sojourn_ns.samples, 20, "{label}/{t}: sojourn stamps");
            // Sojourn dominates both components for every request, so
            // the histogram maxima must be ordered.
            assert!(
                tenant.sojourn_ns.max_ns >= tenant.service_ns.max_ns,
                "{label}/{t}: sojourn < service"
            );
        }
        // The pool's own counters saw exactly the offered iterations.
        let pool_iters = pool.metrics().snapshot().totals().iters;
        assert_eq!(pool_iters, offered_iters[0] + offered_iters[1], "{label}");
    }
}

/// The batching discipline actually fuses: a burst of small requests
/// admitted before dispatch begins must produce fewer dispatches than
/// requests, with the fused ones counted.
#[test]
fn batching_fuses_small_requests() {
    let pool = Arc::new(Pool::new(2));
    let server = LoopServer::builder(pool)
        .tenant("small")
        .discipline(Discipline::Batch {
            max_requests: 16,
            max_iters: 1 << 20,
        })
        .manual()
        .build();
    for _ in 0..32 {
        assert!(server.admit(req(0, 64, 1)).is_accepted());
    }
    assert_eq!(server.pump(), 32);
    let mut dispatched = 0;
    let mut rounds = 0;
    loop {
        let ids = server.dispatch_next();
        if ids.is_empty() {
            break;
        }
        dispatched += ids.len();
        rounds += 1;
    }
    assert_eq!(dispatched, 32);
    assert_eq!(rounds, 2, "16-request fusion cap ⇒ two dispatches");
    let snap = server.serve_snapshot();
    assert_eq!(snap.dispatches, 2);
    assert_eq!(snap.batched_requests, 32);
    assert_eq!(snap.completed, 32);
}

/// Tenant backlog caps shed the spammer, not the neighbor: tenant 0's
/// cap fills while tenant 1 keeps getting in.
#[test]
fn backlog_cap_sheds_per_tenant() {
    let pool = Arc::new(Pool::new(2));
    let server = LoopServer::builder(Arc::clone(&pool))
        .tenant_spec(TenantSpec::new("spammer").backlog_cap(4))
        .tenant_spec(TenantSpec::new("polite").backlog_cap(64))
        .manual()
        .build();
    let mut shed = 0;
    for _ in 0..10 {
        match server.admit(req(0, 8, 1)) {
            Admit::Accepted { .. } => {}
            Admit::Shed(reason) => {
                assert_eq!(reason, ShedReason::TenantBacklog);
                shed += 1;
            }
        }
    }
    assert_eq!(shed, 6, "cap 4 admits 4 of 10");
    for _ in 0..8 {
        assert!(
            server.admit(req(1, 8, 1)).is_accepted(),
            "the polite tenant must not pay for the spammer"
        );
    }
    let snap = server.serve_snapshot();
    assert_eq!(snap.shed_tenant_backlog, 6);
    assert_eq!(snap.tenants[0].shed, 6);
    assert_eq!(snap.tenants[1].shed, 0);
    // Completion frees backlog slots: drain, then the spammer fits again.
    server.pump();
    while !server.dispatch_next().is_empty() {}
    assert!(server.admit(req(0, 8, 1)).is_accepted());
}

/// The shared ring refuses when full, with the queue-full reason.
#[test]
fn full_admission_ring_sheds() {
    let pool = Arc::new(Pool::new(2));
    let server = LoopServer::builder(pool)
        .tenant_spec(TenantSpec::new("t").backlog_cap(1_000_000))
        .queue_capacity(16)
        .manual()
        .build();
    let mut accepted = 0;
    let mut shed = 0;
    for _ in 0..40 {
        match server.admit(req(0, 8, 1)) {
            Admit::Accepted { .. } => accepted += 1,
            Admit::Shed(ShedReason::QueueFull) => shed += 1,
            Admit::Shed(other) => panic!("wrong reason {other:?}"),
        }
    }
    assert_eq!(accepted, 16);
    assert_eq!(shed, 24);
    assert_eq!(server.serve_snapshot().shed_queue_full, 24);
}

/// Admission after shutdown sheds with the shutdown reason; the ledger
/// still balances for everything admitted before.
#[test]
fn shutdown_stops_admission_and_drains() {
    let pool = Arc::new(Pool::new(2));
    let server = LoopServer::builder(pool)
        .tenant("t")
        .discipline(Discipline::TenantDrr { quantum: 128 })
        .build();
    for _ in 0..12 {
        assert!(server.admit(req(0, 64, 1)).is_accepted());
    }
    let snap = server.shutdown();
    assert_eq!(snap.completed, 12, "shutdown drains the backlog first");
    assert_eq!(snap.shed_shutdown, 0);
}

/// Request ids are unique and monotone across concurrent admitters.
#[test]
fn request_ids_are_unique_under_concurrency() {
    let pool = Arc::new(Pool::new(2));
    let server = Arc::new(
        LoopServer::builder(pool)
            .tenant_spec(TenantSpec::new("t").backlog_cap(10_000))
            .queue_capacity(8192)
            .manual()
            .build(),
    );
    let mut handles = Vec::new();
    for _ in 0..4 {
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            let mut ids = Vec::new();
            for _ in 0..200 {
                if let Admit::Accepted { id } = server.admit(req(0, 4, 1)) {
                    ids.push(id);
                }
            }
            ids
        }));
    }
    let mut all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    assert_eq!(all.len(), 800);
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), 800, "duplicate request ids");
    // Drain so drop is clean.
    server.pump();
    while !server.dispatch_next().is_empty() {}
}

/// The serve ledger rides the metrics snapshot (schema v3+) into both
/// exports, alongside the pool's own families.
#[test]
fn serve_ledger_rides_the_metrics_snapshot() {
    let pool = Arc::new(Pool::new(2));
    let server = LoopServer::builder(Arc::clone(&pool))
        .tenant("small")
        .tenant("bulk")
        .build();
    for i in 0..10 {
        assert!(server.admit(req(i % 2, 128, 1)).is_accepted());
    }
    server.drain();
    let snap = server.metrics_snapshot();
    let serve = snap.serve.as_ref().expect("serve block attached");
    assert_eq!(serve.completed, 10);

    let json = snap.to_json();
    let doc = afs_trace::json::parse(&json).expect("snapshot JSON parses");
    let serve_doc = doc.get("serve").expect("serve key");
    assert_eq!(
        serve_doc.get("admitted").and_then(|v| v.as_f64()),
        Some(10.0)
    );
    let tenants = serve_doc
        .get("tenants")
        .and_then(|v| v.as_array())
        .expect("tenants array");
    assert_eq!(tenants.len(), 2);

    let prom = snap.to_prometheus();
    assert!(prom.contains("afs_serve_requests_total{tenant=\"small\",outcome=\"completed\"} 5"));
    assert!(prom.contains("afs_serve_latency_ns{tenant=\"bulk\",quantile=\"0.999\"}"));
    assert!(
        prom.contains("afs_grabs_total"),
        "pool families still there"
    );
}

/// Adaptive requests complete like any other policy, and the server's
/// shared controller surfaces its (k, b) decision through the snapshot's
/// controllers block.
#[test]
fn adaptive_requests_complete_and_publish_controller_state() {
    let pool = Arc::new(Pool::new(2));
    let server = LoopServer::builder(Arc::clone(&pool)).tenant("t").build();
    for _ in 0..8 {
        let r = LoopRequest {
            tenant: 0,
            kernel: ServeKernel::Touch,
            n: 256,
            phases: 2,
            policy: ServePolicy::Adaptive,
            deadline: None,
        };
        assert!(server.admit(r).is_accepted());
    }
    server.drain();
    let snap = server.metrics_snapshot();
    assert_eq!(snap.serve.as_ref().unwrap().completed, 8);
    // Every iteration of every phase ran: 8 requests × 2 phases × 256.
    assert_eq!(snap.totals().iters, 8 * 2 * 256);
    let sched = snap
        .controllers
        .expect("adaptive serving publishes controller state")
        .sched
        .expect("sched block present");
    assert!(sched.k >= 1);
    assert!(sched.b >= 1);
    let prom = snap.to_prometheus();
    assert!(prom.contains("afs_sched_tune_k"));
}

/// Request lifecycle events land on the serve lane: one admit per
/// acceptance, one dispatch per execution, sheds with the right code —
/// and worker lanes still carry the loop's own events.
#[test]
fn trace_records_request_lifecycle() {
    let p = 2;
    let sink = Arc::new(TraceSink::new(p + 2));
    let pool = Arc::new(Pool::with_trace(p, Arc::clone(&sink)));
    let server = LoopServer::builder(pool)
        .tenant_spec(TenantSpec::new("t").backlog_cap(4))
        .trace(Arc::clone(&sink))
        .manual()
        .build();
    let mut accepted = 0;
    let mut shed = 0;
    for _ in 0..7 {
        match server.admit(req(0, 32, 1)) {
            Admit::Accepted { .. } => accepted += 1,
            Admit::Shed(_) => shed += 1,
        }
    }
    server.pump();
    while !server.dispatch_next().is_empty() {}
    drop(server);
    let serve_lane: Vec<_> = sink.events(p + 1);
    let admits = serve_lane
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RequestAdmit { .. }))
        .count();
    let dispatches = serve_lane
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RequestDispatch { .. }))
        .count();
    let sheds: Vec<u32> = serve_lane
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RequestShed { reason, .. } => Some(reason),
            _ => None,
        })
        .collect();
    assert_eq!(admits, accepted);
    assert_eq!(dispatches, accepted, "every admitted request dispatched");
    assert_eq!(sheds.len(), shed);
    assert!(sheds.iter().all(|&r| r == 1), "backlog shed code is 1");
}

/// Serving coexists with direct pool use: a blocking `parallel_for`
/// caller and the server interleave on one pool without deadlock or
/// miscounting.
#[test]
fn server_shares_the_pool_with_blocking_callers() {
    use afs_runtime::prelude::*;
    let pool = Arc::new(Pool::new(2));
    let server = LoopServer::builder(Arc::clone(&pool)).tenant("t").build();
    let hits = std::sync::atomic::AtomicU64::new(0);
    for round in 0..5 {
        for _ in 0..4 {
            assert!(server.admit(req(0, 64, 1)).is_accepted());
        }
        let m = parallel_for(
            &pool,
            100 + round,
            &RuntimeScheduler::afs_k_equals_p(),
            |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(m.total_iters(), 100 + round);
    }
    server.drain();
    assert_eq!(hits.load(Ordering::Relaxed), 5 * 100 + (1 + 2 + 3 + 4));
    assert_eq!(server.shutdown().completed, 20);
}
