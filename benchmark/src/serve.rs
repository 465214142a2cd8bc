//! The two serving workloads — `serve-pingpong` (one request's unloaded
//! sojourn) and `serve-saturate` (capacity with 64 outstanding) — and the
//! manual-mode replays the per-layer suite times the serve layers with.
//!
//! The client is the invoking thread: the harness creates no thread of its
//! own beyond the pool's two workers (the server adds its dispatcher).
//!
//! Two decisions here were forced by measurement on the 2-core host (the
//! numbers are in `README.md`). `serve-pingpong` thinks for a seeded random
//! time between requests: without it the client, the dispatcher and two
//! spinning workers fight over two cores and the sojourn flips between a
//! 70 us and a 125 us mode for seconds at a time. `serve-saturate` has a
//! fast (~55 k rps) and a slow (~12 k rps) mode, set by whether the kernel
//! leaves the dispatcher behind a spinning worker; the share of slices in
//! each swings by more than any bound could hold, so the gated number is the
//! fast mode's rate and the share, the slow rate and the whole-window rate
//! are reported beside it as diagnostics.

use crate::harness::{put_pool_counters, put_trace_overhead, slices, touched_buffer, Ctx, P};
use crate::report::Outcome;
use crate::rng::SplitMix64;
use crate::spans::{SpanLog, NONE};
use crate::stats::{median, percentile, slice_rates};
use affinity_sched::metrics::{HistogramSnapshot, MetricsSnapshot, ServeSnapshot};
use affinity_sched::runtime::Pool;
use afs_serve::{Discipline, LoopRequest, LoopServer, ServeKernel, ServePolicy};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Requests in a generated stream; drivers cycle through it.
const STREAM_LEN: usize = 4096;
/// Requests `serve-saturate` keeps outstanding.
const WINDOW: u64 = 64;
/// How long the saturating client sleeps when its window is full: long
/// enough that its wake-ups do not perturb the server, short enough that
/// the window never drains below a full batch (about 10 requests complete
/// per nap).
const FULL_WINDOW_SLEEP: Duration = Duration::from_micros(200);
/// The pinging client thinks for a uniform time up to this between
/// requests: longer than the dispatcher's idle nap period, so the phase of
/// an arrival relative to it is fully mixed instead of locked.
const MAX_THINK_US: u64 = 400;
/// The slice of `serve-saturate` taken as the fast mode's rate.
const FAST_SLICE: f64 = 0.9;
/// The fused-dispatch limits of `serve-saturate`.
const BATCH: Discipline = Discipline::Batch {
    max_requests: 16,
    max_iters: 65_536,
};
/// Warm-up requests (fixed counts; part of `setup_s`).
const PINGPONG_WARMUP: u64 = 300;
const SATURATE_WARMUP: u64 = 4_000;
/// Upper bounds on events per second, sizing the pre-touched buffers.
const MAX_PINGPONG_RPS: f64 = 20_000.0;
const MAX_WAKES_PER_S: f64 = 20_000.0;

/// Slots for `per_second` events per second over `window`.
fn slots(window: Duration, per_second: f64) -> usize {
    (window.as_secs_f64() * per_second) as usize + 1024
}

fn small(rng: &mut SplitMix64) -> LoopRequest {
    LoopRequest {
        tenant: 0,
        kernel: ServeKernel::Touch,
        n: rng.in_range(16, 128),
        phases: 1,
        policy: ServePolicy::Afs,
        deadline: None,
    }
}

fn bulk(rng: &mut SplitMix64) -> LoopRequest {
    LoopRequest {
        tenant: 1,
        kernel: ServeKernel::Spin { work: 16 },
        n: rng.in_range(4096, 8192),
        phases: rng.in_range(1, 2) as u32,
        policy: ServePolicy::Afs,
        deadline: None,
    }
}

/// One pinged request and the think time before it.
#[derive(Clone, Debug)]
pub struct Ping {
    /// How long the client thinks before sending.
    pub think: Duration,
    /// The request.
    pub req: LoopRequest,
}

/// The `serve-pingpong` request stream: small requests only.
pub fn pingpong_stream(rng: &mut SplitMix64) -> Vec<Ping> {
    (0..STREAM_LEN)
        .map(|_| Ping {
            think: Duration::from_micros(rng.in_range(0, MAX_THINK_US)),
            req: small(rng),
        })
        .collect()
}

/// The `serve-saturate` request stream: 7/8 small, 1/8 bulk.
pub fn saturate_stream(rng: &mut SplitMix64) -> Vec<LoopRequest> {
    (0..STREAM_LEN)
        .map(|_| {
            if rng.next_u64().is_multiple_of(8) {
                bulk(rng)
            } else {
                small(rng)
            }
        })
        .collect()
}

/// When a driver stops.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this many requests.
    Count(u64),
    /// After this much wall time.
    Elapsed(Duration),
}

/// What a client offered so far, for the ledger gates.
#[derive(Clone, Copy, Debug, Default)]
pub struct Offered {
    /// Requests handed to `admit`.
    pub requests: u64,
    /// Their iterations.
    pub iters: u64,
    /// Requests `admit` refused.
    pub refused: u64,
}

/// A server as set-up builds it, and what its client has offered it.
pub struct Served {
    /// The server.
    pub server: LoopServer,
    /// Everything offered to it so far.
    pub offered: Offered,
}

impl Served {
    fn new(server: LoopServer) -> Served {
        Served {
            server,
            offered: Offered::default(),
        }
    }

    fn pool_counters(&self) -> MetricsSnapshot {
        self.server.pool().metrics().snapshot()
    }
}

/// Closed loop, one outstanding: think, admit, yield-poll `pending() == 0`
/// (there is no completion callback), stamp. Sojourns (ns) are appended to
/// `sojourns`.
pub fn drive_pingpong(
    served: &mut Served,
    stream: &[Ping],
    until: Until,
    spans: &mut SpanLog,
    sojourns: &mut Vec<f64>,
) {
    let start = Instant::now();
    let mut sent = 0u64;
    loop {
        match until {
            Until::Count(n) if sent >= n => break,
            Until::Elapsed(d) if start.elapsed() >= d => break,
            _ => {}
        }
        let seq = served.offered.requests;
        let Ping { think, req } = stream[seq as usize % stream.len()].clone();
        served.offered.requests += 1;
        served.offered.iters += req.iters();
        sent += 1;
        thread::sleep(think);
        let root = spans.begin("request", NONE, seq);
        let t0 = Instant::now();
        let admit = spans.begin("admit", root, seq);
        let verdict = served.server.admit(req);
        spans.end(admit);
        if !verdict.is_accepted() {
            served.offered.refused += 1;
            spans.end(root);
            continue;
        }
        let wait = spans.begin("await_completion", root, seq);
        while served.server.pending() != 0 {
            thread::yield_now();
        }
        spans.end(wait);
        let sojourn = t0.elapsed();
        spans.end(root);
        if sojourns.len() < sojourns.capacity() {
            sojourns.push(sojourn.as_nanos() as f64);
        }
    }
}

/// What the saturating client observed.
#[derive(Default)]
pub struct Saturation {
    /// `(ns since start, requests completed)` at every wake.
    pub completed_at: Vec<(u64, u64)>,
    /// `pending()` on waking from every nap: the window's low-water mark.
    pub outstanding: Vec<f64>,
    /// Times the client found its window full and slept.
    pub full_window_sleeps: u64,
}

/// Closed loop keeping [`WINDOW`] requests outstanding: top the window up,
/// then sleep (never spin) while it is full. Returns once everything
/// offered has completed.
pub fn drive_saturate(
    served: &mut Served,
    stream: &[LoopRequest],
    until: Until,
    spans: &mut SpanLog,
    seen: &mut Saturation,
) {
    let start = Instant::now();
    let base = served.offered.requests;
    let run = spans.begin("window", NONE, 0);
    let mut burst = 0u64;
    let mut napped = false;
    loop {
        let sent = served.offered.requests - base;
        let now = start.elapsed();
        let pending = served.server.pending();
        if seen.completed_at.len() < seen.completed_at.capacity() {
            seen.completed_at
                .push((now.as_nanos() as u64, sent - pending));
            if napped {
                seen.outstanding.push(pending as f64);
            }
        }
        match until {
            Until::Count(n) if sent >= n => break,
            Until::Elapsed(d) if now >= d => break,
            _ => {}
        }
        if pending >= WINDOW {
            seen.full_window_sleeps += 1;
            let nap = spans.begin("window_full_sleep", run, burst);
            thread::sleep(FULL_WINDOW_SLEEP);
            spans.end(nap);
            napped = true;
            continue;
        }
        napped = false;
        burst += 1;
        let top_up = spans.begin("top_up", run, burst);
        for _ in pending..WINDOW {
            let seq = served.offered.requests;
            let req = stream[seq as usize % stream.len()].clone();
            served.offered.requests += 1;
            served.offered.iters += req.iters();
            let admit = spans.begin("admit", top_up, seq);
            let verdict = served.server.admit(req);
            spans.end(admit);
            if !verdict.is_accepted() {
                served.offered.refused += 1;
            }
        }
        spans.end(top_up);
    }
    let drain = spans.begin("drain", run, 0);
    while served.server.pending() != 0 {
        thread::sleep(FULL_WINDOW_SLEEP);
    }
    spans.end(drain);
    spans.end(run);
}

/// The ledger's histograms merged over tenants, minus what `base` held.
fn merged(
    now: &ServeSnapshot,
    base: &ServeSnapshot,
    pick: fn(&affinity_sched::metrics::TenantServeSnapshot) -> &HistogramSnapshot,
) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::default();
    for (t, b) in now.tenants.iter().zip(&base.tenants) {
        h.add(&pick(t).minus(pick(b)));
    }
    h
}

/// The `serve.*` ledger read-outs of the window between `base` and `now`.
fn put_ledger_view(out: &mut Outcome, now: &ServeSnapshot, base: &ServeSnapshot) {
    let queue = merged(now, base, |t| &t.queue_ns);
    let service = merged(now, base, |t| &t.service_ns);
    let sojourn = merged(now, base, |t| &t.sojourn_ns);
    out.put("serve.queue_wait_p50_us", queue.quantile(0.5) / 1e3, "us");
    out.put("serve.service_p50_us", service.quantile(0.5) / 1e3, "us");
    out.put("serve.sojourn_p50_us", sojourn.quantile(0.5) / 1e3, "us");
    out.put("serve.sojourn_p99_us", sojourn.quantile(0.99) / 1e3, "us");
    let dispatches = now.dispatches - base.dispatches;
    out.put("serve.dispatches", dispatches as f64, "count");
    out.put(
        "serve.batch_fill",
        (now.completed - base.completed) as f64 / dispatches.max(1) as f64,
        "ratio",
    );
    out.put("serve.shed", now.shed_total() as f64, "count");
}

/// The exact-ledger gates: everything offered was admitted and completed,
/// nothing was shed, failed, expired or late, and the tenants executed
/// exactly the iterations offered.
fn gate_ledger(out: &mut Outcome, ledger: &ServeSnapshot, offered: &Offered) {
    let lost = ledger.shed_total() + ledger.failed + ledger.expired + ledger.timed_out;
    let unfinished = ledger.admitted.abs_diff(ledger.completed);
    let unadmitted = offered.requests.abs_diff(ledger.admitted);
    out.count(offered.requests, lost + unfinished.max(unadmitted));
    out.gate(offered.refused == 0 && unadmitted == 0, || {
        format!(
            "serve ledger: offered {} but admitted {} ({} refused)",
            offered.requests, ledger.admitted, offered.refused
        )
    });
    out.gate(unfinished == 0, || {
        format!(
            "serve ledger: admitted {} != completed {}",
            ledger.admitted, ledger.completed
        )
    });
    out.gate(lost == 0, || {
        format!(
            "serve ledger: shed {} failed {} expired {} timed_out {}",
            ledger.shed_total(),
            ledger.failed,
            ledger.expired,
            ledger.timed_out
        )
    });
    let executed: u64 = ledger.tenants.iter().map(|t| t.iters).sum();
    out.gate(executed == offered.iters, || {
        format!(
            "serve ledger: tenants executed {executed} iterations, {} were offered",
            offered.iters
        )
    });
}

fn build_pingpong(stream: &[Ping]) -> Served {
    let server = LoopServer::builder(Arc::new(Pool::new(P)))
        .tenant("small")
        .build();
    let mut served = Served::new(server);
    let mut warm = Vec::with_capacity(PINGPONG_WARMUP as usize);
    drive_pingpong(
        &mut served,
        stream,
        Until::Count(PINGPONG_WARMUP),
        &mut SpanLog::off(),
        &mut warm,
    );
    served
}

/// `serve-pingpong`: one request's unloaded sojourn.
pub fn pingpong(ctx: &mut Ctx) {
    let mut served = ctx.setup(|rng| build_pingpong(&pingpong_stream(rng)));
    let stream = pingpong_stream(&mut ctx.rng);
    let mut p50 = Vec::new();
    for (window, traced) in ctx.windows() {
        let mut sojourns = touched_buffer(slots(window, MAX_PINGPONG_RPS), 0.0);
        ctx.spans.set_enabled(traced);
        let ledger_base = served.server.serve_snapshot();
        let pool_base = served.pool_counters();
        drive_pingpong(
            &mut served,
            &stream,
            Until::Elapsed(window),
            &mut ctx.spans,
            &mut sojourns,
        );
        ctx.spans.set_enabled(false);
        p50.push(percentile(&sojourns, 0.5) / 1e3);
        if traced {
            continue;
        }
        let out = &mut ctx.out;
        out.put("time_per_op_us", p50[0], "us");
        out.put("sojourn_p50_us", p50[0], "us");
        out.put("harness.samples", sojourns.len() as f64, "count");
        out.put(
            "serve.client_p99_us",
            percentile(&sojourns, 0.99) / 1e3,
            "us",
        );
        put_ledger_view(out, &served.server.serve_snapshot(), &ledger_base);
        let pool_delta = served.pool_counters().delta_since(&pool_base);
        put_pool_counters(out, &pool_delta, sojourns.len() as u64);
    }
    put_trace_overhead(&mut ctx.out, &p50);
    let offered = served.offered;
    gate_ledger(&mut ctx.out, &served.server.shutdown(), &offered);
}

fn build_saturate(stream: &[LoopRequest]) -> Served {
    let server = LoopServer::builder(Arc::new(Pool::new(P)))
        .tenant("small")
        .tenant("bulk")
        .discipline(BATCH)
        .build();
    let mut served = Served::new(server);
    drive_saturate(
        &mut served,
        stream,
        Until::Count(SATURATE_WARMUP),
        &mut SpanLog::off(),
        &mut Saturation::default(),
    );
    served
}

/// The throughput statistics that see the slow mode. None of them repeats
/// within 0.25 on the reference host (see `README.md`), so they are
/// diagnostics beside the gated fast-mode rate. A slice counts as fast when
/// it reaches half of `fast_rps`; the slow mode's rate is the slice as far
/// from the bottom as the fast one is from the top.
fn put_modes(out: &mut Outcome, rates: &[f64], fast_rps: f64, window_rps: f64) {
    let fast = rates.iter().filter(|r| **r >= fast_rps / 2.0).count();
    out.put("serve.saturate.window_rps", window_rps, "1/s");
    out.put("serve.saturate.median_slice_rps", median(rates), "1/s");
    out.put(
        "serve.saturate.fast_share",
        fast as f64 / rates.len() as f64,
        "ratio",
    );
    out.put(
        "serve.saturate.slow_rps",
        percentile(rates, 1.0 - FAST_SLICE),
        "1/s",
    );
}

/// `serve-saturate`: time per completed request with 64 outstanding, in the
/// server's fast mode (the 90th-percentile slice).
pub fn saturate(ctx: &mut Ctx) {
    let mut served = ctx.setup(|rng| build_saturate(&saturate_stream(rng)));
    let stream = saturate_stream(&mut ctx.rng);
    let mut time_per_op_us = Vec::new();
    for (window, traced) in ctx.windows() {
        let wakes = slots(window, MAX_WAKES_PER_S);
        let mut seen = Saturation {
            completed_at: touched_buffer(wakes, (0, 0)),
            outstanding: touched_buffer(wakes, 0.0),
            full_window_sleeps: 0,
        };
        ctx.spans.set_enabled(traced);
        let ledger_base = served.server.serve_snapshot();
        let pool_base = served.pool_counters();
        drive_saturate(
            &mut served,
            &stream,
            Until::Elapsed(window),
            &mut ctx.spans,
            &mut seen,
        );
        ctx.spans.set_enabled(false);
        let rates = slice_rates(&seen.completed_at, window.as_nanos() as u64, slices(window));
        let fast_rps = percentile(&rates, FAST_SLICE);
        time_per_op_us.push(1e6 / fast_rps);
        if traced {
            continue;
        }
        let out = &mut ctx.out;
        out.put("time_per_op_us", 1e6 / fast_rps, "us");
        out.put("fast_mode_rps", fast_rps, "1/s");
        let &(seen_ns, seen_completed) = seen
            .completed_at
            .last()
            .expect("the client observes at least once");
        put_modes(
            out,
            &rates,
            fast_rps,
            seen_completed as f64 / (seen_ns as f64 / 1e9),
        );
        let ledger = served.server.serve_snapshot();
        let completed = ledger.completed - ledger_base.completed;
        out.put("harness.samples", completed as f64, "count");
        out.put(
            "harness.window_full_sleeps",
            seen.full_window_sleeps as f64,
            "count",
        );
        out.put(
            "harness.achieved_outstanding_p50",
            median(&seen.outstanding),
            "count",
        );
        put_ledger_view(out, &ledger, &ledger_base);
        let pool_delta = served.pool_counters().delta_since(&pool_base);
        put_pool_counters(out, &pool_delta, completed);
    }
    put_trace_overhead(&mut ctx.out, &time_per_op_us);
    let offered = served.offered;
    gate_ledger(&mut ctx.out, &served.server.shutdown(), &offered);
}

/// Per-request layer times of the `serve-pingpong` stream replayed on a
/// `.manual()` FCFS server: the serve path without the client→dispatcher→
/// client thread hand-off.
#[derive(Default)]
pub struct ManualReplay {
    /// `admit` (ns).
    pub admit_ns: Vec<f64>,
    /// `pump` (ns).
    pub pump_ns: Vec<f64>,
    /// `dispatch_next` (ns).
    pub dispatch_next_ns: Vec<f64>,
    /// A bare pool dispatch of an empty job found in the same state (ns).
    pub pool_dispatch_ns: Vec<f64>,
}

/// Times one empty job through the path serve dispatches by: publish,
/// yield-poll completion, collect.
pub fn pool_dispatch(pool: &Pool, noop: &Arc<dyn Fn(usize) + Send + Sync>) -> Duration {
    let t = Instant::now();
    let ticket = pool
        .try_dispatch(Arc::clone(noop))
        .expect("nothing else is running on this pool");
    while !ticket.is_complete() {
        thread::yield_now();
    }
    ticket.wait().expect("an empty job cannot panic");
    t.elapsed()
}

/// Replays `stream` for `budget`, one request at a time, timing the three
/// calls a request's life consists of on a manual server. After each
/// request it sleeps the same think time again and times a bare pool
/// dispatch on the server's pool, so `dispatch_next` and the pool dispatch
/// it is made of are sampled alternately, on the same workers, as deep in
/// their spin / yield / park ladder: their difference is serve's own work.
pub fn manual_replay(stream: &[Ping], budget: Duration, spans: &mut SpanLog) -> ManualReplay {
    let server = LoopServer::builder(Arc::new(Pool::new(P)))
        .tenant("small")
        .manual()
        .build();
    let pool = server.pool();
    let noop: Arc<dyn Fn(usize) + Send + Sync> = Arc::new(|_| {});
    let mut replay = ManualReplay::default();
    let start = Instant::now();
    let mut seq = 0u64;
    while start.elapsed() < budget || seq < 64 {
        let Ping { think, req } = stream[seq as usize % stream.len()].clone();
        // The same think time as the threaded client, so the workers are
        // found as idle as it finds them.
        thread::sleep(think);
        let root = spans.begin("manual.request", NONE, seq);
        let t0 = Instant::now();
        let s = spans.begin("manual.admit", root, seq);
        let verdict = server.admit(req);
        spans.end(s);
        let t1 = Instant::now();
        let s = spans.begin("manual.pump", root, seq);
        let moved = server.pump();
        spans.end(s);
        let t2 = Instant::now();
        let s = spans.begin("manual.dispatch_next", root, seq);
        let ran = server.dispatch_next();
        spans.end(s);
        let t3 = Instant::now();
        spans.end(root);
        assert!(
            verdict.is_accepted() && moved == 1 && ran.len() == 1,
            "manual replay: request {seq} did not run alone"
        );
        thread::sleep(think);
        let s = spans.begin("manual.pool_dispatch", NONE, seq);
        let bare = pool_dispatch(&pool, &noop);
        spans.end(s);
        // The first requests warm the pool's workers up.
        if seq >= 32 {
            replay.admit_ns.push((t1 - t0).as_nanos() as f64);
            replay.pump_ns.push((t2 - t1).as_nanos() as f64);
            replay.dispatch_next_ns.push((t3 - t2).as_nanos() as f64);
            replay.pool_dispatch_ns.push(bare.as_nanos() as f64);
        }
        seq += 1;
    }
    replay
}

/// Per-request time (ns) of one fused `dispatch_next` of 16 small requests
/// on a manual `Batch` server, sampled for `budget`.
pub fn batch_unit_ns(stream: &[Ping], budget: Duration) -> Vec<f64> {
    const FUSED: usize = 16;
    let pool = Arc::new(Pool::new(P));
    let server = LoopServer::builder(pool)
        .tenant("small")
        .discipline(BATCH)
        .manual()
        .build();
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut seq = 0usize;
    while start.elapsed() < budget || samples.len() < 8 {
        for _ in 0..FUSED {
            let verdict = server.admit(stream[seq % stream.len()].req.clone());
            assert!(verdict.is_accepted(), "batch replay: admission refused");
            seq += 1;
        }
        server.pump();
        let t = Instant::now();
        let ran = server.dispatch_next();
        let elapsed = t.elapsed();
        assert_eq!(ran.len(), FUSED, "batch replay: dispatch was not fused");
        samples.push(elapsed.as_nanos() as f64 / FUSED as f64);
    }
    samples
}
