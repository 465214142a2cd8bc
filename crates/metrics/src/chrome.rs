//! Chrome trace-event JSON exporter.
//!
//! Produces the `{"traceEvents": [...]}` format understood by
//! `chrome://tracing` and Perfetto: one lane ("thread") per worker,
//! complete (`"X"`) events for chunks, grabs and lock waits, instants for
//! barrier entry, and flow arrows (`"s"`/`"f"`) drawn from the victim lane
//! to the thief for every remote steal. Timestamps are microseconds with
//! nanosecond fractions.

use crate::event::EventKind;
use crate::sink::TraceSink;
use afs_core::json::{self, Arr, Encode, Fields, Obj, Slot};

/// Microseconds (with ns fraction) from a nanosecond timestamp.
fn us(t_ns: u64) -> f64 {
    t_ns as f64 / 1_000.0
}

/// An event's phase (`ph`) with what that phase carries: a complete
/// span's duration, or the id an async span or a flow arrow matches on.
#[derive(Clone, Copy)]
enum Ph {
    /// `X`: a span on its lane.
    Complete { dur_ns: u64 },
    /// `i`: an instant on its lane.
    Instant,
    /// `s`: the tail of a flow arrow.
    FlowStart(u64),
    /// `f`: the head of a flow arrow, bound to the enclosing slice's end.
    FlowEnd(u64),
    /// `b`: an async span opens.
    Begin(u64),
    /// `e`: an async span closes.
    End(u64),
    /// `n`: an instant on an async span's track.
    Step(u64),
}

/// One `args` value.
#[derive(Clone, Copy)]
enum Arg {
    Num(u64),
    Str(&'static str),
}

/// A numeric `args` value.
fn arg(n: impl Into<u64>) -> Arg {
    Arg::Num(n.into())
}

impl Encode for Arg {
    fn encode(&self, slot: Slot<'_>) {
        match *self {
            Arg::Num(n) => n.encode(slot),
            Arg::Str(s) => s.encode(slot),
        }
    }
}

/// One trace event, with its sort keys so the final stream can be ordered
/// by (lane, time) — viewers do not require global ordering, but tests
/// (and humans reading the file) appreciate it.
struct Emitted {
    tid: usize,
    ts_ns: u64,
    name: String,
    cat: &'static str,
    ph: Ph,
    args: Vec<(&'static str, Arg)>,
}

/// The shared header `name, cat, ph, [what ph carries], pid, tid, ts`,
/// then `dur` for a span and `args` when there are any.
impl Fields for Emitted {
    fn fields(&self, o: &mut Obj<'_>) {
        o.field("name", &self.name).field("cat", self.cat);
        match self.ph {
            Ph::Complete { .. } => o.field("ph", "X"),
            Ph::Instant => o.field("ph", "i").field("s", "t"),
            Ph::FlowStart(id) => o.field("ph", "s").field("id", &id),
            Ph::FlowEnd(id) => o.field("ph", "f").field("bp", "e").field("id", &id),
            Ph::Begin(id) => o.field("ph", "b").field("id", &id),
            Ph::End(id) => o.field("ph", "e").field("id", &id),
            Ph::Step(id) => o.field("ph", "n").field("id", &id),
        };
        o.field("pid", &0u32)
            .field("tid", &self.tid)
            .field("ts", &us(self.ts_ns));
        if let Ph::Complete { dur_ns } = self.ph {
            o.field("dur", &us(dur_ns));
        }
        if !self.args.is_empty() {
            o.object("args", |o| {
                for &(key, value) in &self.args {
                    o.field(key, &value);
                }
            });
        }
    }
}

/// A metadata (`M`) event naming the process or one lane.
fn metadata(a: &mut Arr<'_>, kind: &str, tid: usize, label: &str) {
    a.object(|o| {
        o.field("name", kind)
            .field("ph", "M")
            .field("pid", &0u32)
            .field("tid", &tid)
            .object("args", |o| {
                o.field("name", label);
            });
    });
}

/// Serializes everything `sink` recorded as a Chrome trace-event JSON
/// document, one event per line. `process_name` labels the trace (e.g.
/// the experiment id).
///
/// The output is a complete, self-contained JSON object; write it to a
/// `.json` file and load it in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
pub fn chrome_trace(sink: &TraceSink, process_name: &str) -> String {
    let mut events: Vec<Emitted> = Vec::new();
    let mut emit = |tid: usize, ts_ns: u64, name: &str, cat, ph, args: &[(&'static str, Arg)]| {
        events.push(Emitted {
            tid,
            ts_ns,
            name: name.to_string(),
            cat,
            ph,
            args: args.to_vec(),
        });
    };

    let mut flow_id = 0u64;
    for w in 0..sink.workers() {
        let mut grab_start: Option<u64> = None;
        let mut wait_start: Option<u64> = None;
        let mut busy_start: Option<(u64, u32, u64, u64)> = None;
        let mut barrier_start: Option<u64> = None;
        for &ev in sink.lane(w) {
            let t = ev.t;
            match ev.kind {
                EventKind::GrabBegin => grab_start = Some(t),
                EventKind::LockWaitBegin { .. } => wait_start = Some(t),
                EventKind::LockWaitEnd { queue } => {
                    if let Some(s) = wait_start.take() {
                        let span = Ph::Complete { dur_ns: t - s };
                        emit(w, s, "lock wait", "sync", span, &[("queue", arg(queue))]);
                    }
                }
                EventKind::GrabLocal { queue, lo, hi }
                | EventKind::GrabRemote { queue, lo, hi } => {
                    let remote = matches!(ev.kind, EventKind::GrabRemote { .. });
                    let name = if remote { "grab remote" } else { "grab local" };
                    if let Some(s) = grab_start.take() {
                        let args = [("queue", arg(queue)), ("lo", arg(lo)), ("hi", arg(hi))];
                        emit(w, s, name, "grab", Ph::Complete { dur_ns: t - s }, &args);
                    }
                    let victim = queue as usize;
                    if remote && victim != w {
                        // Flow arrow: victim lane -> thief lane.
                        emit(victim, t, "steal", "steal", Ph::FlowStart(flow_id), &[]);
                        emit(w, t, "steal", "steal", Ph::FlowEnd(flow_id), &[]);
                        flow_id += 1;
                    }
                }
                EventKind::GrabCentral { lo, hi } | EventKind::GrabFree { lo, hi } => {
                    let name = match ev.kind {
                        EventKind::GrabCentral { .. } => "grab central",
                        _ => "grab free",
                    };
                    if let Some(s) = grab_start.take() {
                        let args = [("lo", arg(lo)), ("hi", arg(hi))];
                        emit(w, s, name, "grab", Ph::Complete { dur_ns: t - s }, &args);
                    }
                }
                EventKind::CasRetry { queue } => {
                    let args = [("queue", arg(queue))];
                    emit(w, t, "cas retry", "sync", Ph::Instant, &args);
                }
                EventKind::ChunkStart { queue, lo, hi } => busy_start = Some((t, queue, lo, hi)),
                EventKind::ChunkEnd => {
                    if let Some((s, q, lo, hi)) = busy_start.take() {
                        let name = format!("chunk [{lo},{hi})");
                        let args = [("queue", arg(q)), ("lo", arg(lo)), ("hi", arg(hi))];
                        emit(w, s, &name, "chunk", Ph::Complete { dur_ns: t - s }, &args);
                    }
                }
                EventKind::BarrierArrive => {
                    emit(w, t, "barrier", "barrier", Ph::Instant, &[]);
                    barrier_start = Some(t);
                }
                EventKind::BarrierPark => {
                    emit(w, t, "barrier park", "barrier", Ph::Instant, &[]);
                }
                EventKind::StallDetected { worker } => {
                    let args = [("worker", arg(worker))];
                    emit(w, t, "stall detected", "fault", Ph::Instant, &args);
                }
                EventKind::RequestAdmit { tenant, id } => {
                    let args = [("tenant", arg(tenant)), ("id", arg(id))];
                    emit(w, t, "request admit", "serve", Ph::Instant, &args);
                    // Async span open: the request's whole sojourn. Matched
                    // by (cat, id) with the `e` from `RequestComplete`; the
                    // nested "service" span subtracts queue wait from it.
                    // Its args are the tenant alone: the id is the span's.
                    emit(w, t, "request", "serve", Ph::Begin(id), &args[..1]);
                }
                EventKind::RequestDispatch { tenant, id } => {
                    let args = [("tenant", arg(tenant)), ("id", arg(id))];
                    emit(w, t, "request dispatch", "serve", Ph::Instant, &args);
                    // Nested async span: time on the pool. The gap between
                    // the outer "request" open and this open is queue wait.
                    emit(w, t, "service", "serve", Ph::Begin(id), &args[..1]);
                }
                EventKind::RequestPhase { id, phase } => {
                    // Nestable instant on the request's async track: marks
                    // the barrier turn that retired phase `phase`, or, for
                    // the final phase, the request's retirement.
                    let name = format!("phase {phase}");
                    emit(w, t, &name, "serve", Ph::Step(id), &[("phase", arg(phase))]);
                }
                EventKind::RequestComplete { tenant, id } => {
                    // Close inner "service" first, then the outer
                    // "request" — the stable sort keeps that order at
                    // equal timestamps.
                    emit(w, t, "service", "serve", Ph::End(id), &[]);
                    let args = [("tenant", arg(tenant))];
                    emit(w, t, "request", "serve", Ph::End(id), &args);
                }
                EventKind::RequestShed { tenant, reason } => {
                    let args = [("tenant", arg(tenant)), ("reason", arg(reason))];
                    emit(w, t, "request shed", "serve", Ph::Instant, &args);
                }
                EventKind::RequestFailed {
                    tenant,
                    id,
                    worker,
                    phase,
                } => {
                    // A contained panic still closes both async spans —
                    // the request's sojourn ended, just not successfully.
                    emit(w, t, "service", "serve", Ph::End(id), &[]);
                    let args = [
                        ("tenant", arg(tenant)),
                        ("outcome", Arg::Str("failed")),
                        ("worker", arg(worker)),
                        ("phase", arg(phase)),
                    ];
                    emit(w, t, "request", "serve", Ph::End(id), &args);
                }
                EventKind::BarrierRelease => {
                    // The first release of a pool's life has no arrive;
                    // draw a span only for matched pairs.
                    if let Some(s) = barrier_start.take() {
                        let span = Ph::Complete { dur_ns: t - s };
                        emit(w, s, "barrier wait", "barrier", span, &[]);
                    }
                }
            }
        }
    }

    // Per-lane time order (metadata first). The sort is stable, so events
    // at equal stamps keep their emission order: a flow's begin before its
    // finish, an inner span's close before the outer one's.
    events.sort_by_key(|e| (e.tid, e.ts_ns));

    json::document(|o| {
        o.array("traceEvents", |a| {
            metadata(a, "process_name", 0, process_name);
            for w in 0..sink.workers() {
                metadata(a, "thread_name", w, &format!("worker {w}"));
            }
            for e in &events {
                a.item(e);
            }
        })
        .field("displayTimeUnit", "ms");
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind as K;
    use afs_core::json::Value;

    /// The trace's events, parsed.
    fn events(sink: &TraceSink) -> Vec<Value> {
        let doc = json::parse(&chrome_trace(sink, "t")).expect("valid JSON");
        doc.get("traceEvents")
            .and_then(Value::as_array)
            .unwrap()
            .to_vec()
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
        v.get(key).and_then(Value::as_str)
    }

    fn num(v: &Value, key: &str) -> Option<f64> {
        v.get(key).and_then(Value::as_f64)
    }

    /// The events named `name` with phase `ph`.
    fn named<'a>(evs: &'a [Value], name: &str, ph: &str) -> Vec<&'a Value> {
        evs.iter()
            .filter(|e| str_of(e, "name") == Some(name) && str_of(e, "ph") == Some(ph))
            .collect()
    }

    #[test]
    fn steal_emits_flow_pair() {
        let sink = TraceSink::new(2);
        sink.record(1, K::GrabBegin);
        sink.record(
            1,
            K::GrabRemote {
                queue: 0,
                lo: 5,
                hi: 9,
            },
        );
        let evs = events(&sink);
        let (start, end) = (named(&evs, "steal", "s"), named(&evs, "steal", "f"));
        assert_eq!((start.len(), end.len()), (1, 1));
        assert_eq!(
            num(start[0], "tid"),
            Some(0.0),
            "arrow leaves the victim lane"
        );
        assert_eq!(num(end[0], "tid"), Some(1.0), "and lands on the thief's");
        assert_eq!(num(start[0], "id"), num(end[0], "id"));
        assert_eq!(str_of(end[0], "bp"), Some("e"));
        let grab = named(&evs, "grab remote", "X");
        assert_eq!(grab.len(), 1);
        assert_eq!(
            grab[0].get("args"),
            Some(&json::parse(r#"{"queue": 0, "lo": 5, "hi": 9}"#).unwrap())
        );
    }

    #[test]
    fn barrier_pair_emits_span_and_instant() {
        let sink = TraceSink::new(1);
        // An unmatched leading release must not fabricate a span.
        sink.record(0, K::BarrierRelease);
        sink.record(0, K::BarrierArrive);
        sink.record(0, K::BarrierRelease);
        let evs = events(&sink);
        let spans = named(&evs, "barrier wait", "X");
        assert_eq!(spans.len(), 1);
        assert!(num(spans[0], "dur").is_some_and(|d| d >= 0.0));
        let instants = named(&evs, "barrier", "i");
        assert_eq!(instants.len(), 1);
        assert_eq!(str_of(instants[0], "s"), Some("t"));
    }

    #[test]
    fn stall_detected_emits_instant() {
        let sink = TraceSink::new(2);
        sink.record(1, K::StallDetected { worker: 0 });
        let evs = events(&sink);
        let stall = named(&evs, "stall detected", "i");
        assert_eq!(stall.len(), 1);
        assert_eq!(str_of(stall[0], "cat"), Some("fault"));
        assert_eq!(
            stall[0].get("args"),
            Some(&json::parse(r#"{"worker": 0}"#).unwrap())
        );
    }

    #[test]
    fn request_events_emit_instants() {
        let sink = TraceSink::new(3);
        sink.record(2, K::RequestAdmit { tenant: 1, id: 42 });
        sink.record(2, K::RequestDispatch { tenant: 1, id: 42 });
        sink.record(
            2,
            K::RequestShed {
                tenant: 0,
                reason: 1,
            },
        );
        let evs = events(&sink);
        let args = |name: &str| named(&evs, name, "i")[0].get("args").cloned();
        let admit = json::parse(r#"{"tenant": 1, "id": 42}"#).unwrap();
        assert_eq!(args("request admit"), Some(admit.clone()));
        assert_eq!(args("request dispatch"), Some(admit));
        assert_eq!(
            args("request shed"),
            Some(json::parse(r#"{"tenant": 0, "reason": 1}"#).unwrap())
        );
    }

    #[test]
    fn request_lifecycle_emits_async_span_pairs() {
        let sink = TraceSink::new(3);
        sink.record(2, K::RequestAdmit { tenant: 1, id: 42 });
        sink.record(2, K::RequestDispatch { tenant: 1, id: 42 });
        sink.record(2, K::RequestPhase { id: 42, phase: 0 });
        sink.record(2, K::RequestPhase { id: 42, phase: 1 });
        sink.record(2, K::RequestComplete { tenant: 1, id: 42 });
        let evs = events(&sink);
        // One open and one close for each of the "request" and "service"
        // spans, matched by id.
        for (name, ph) in [
            ("request", "b"),
            ("request", "e"),
            ("service", "b"),
            ("service", "e"),
        ] {
            let found = named(&evs, name, ph);
            assert_eq!(found.len(), 1, "{name}/{ph}");
            assert_eq!(num(found[0], "id"), Some(42.0), "{name}/{ph}");
        }
        let steps: Vec<&Value> = evs
            .iter()
            .filter(|e| str_of(e, "ph") == Some("n"))
            .collect();
        assert_eq!(steps.len(), 2);
        assert_eq!(str_of(steps[1], "name"), Some("phase 1"));
        assert_eq!(num(steps[1].get("args").unwrap(), "phase"), Some(1.0));
        // The inner close sorts before the outer close.
        let at = |name: &str| {
            evs.iter()
                .position(|e| str_of(e, "name") == Some(name) && str_of(e, "ph") == Some("e"))
                .unwrap()
        };
        assert!(at("service") < at("request"), "inner span must close first");
    }

    /// Two fused requests: 8 completes at its last iteration, before the
    /// barrier turn that retires 7's only phase, so its final phase instant
    /// and close land inside 7's span. Each track still opens, steps and
    /// closes in order, matched by id.
    #[test]
    fn early_completed_request_keeps_its_track_well_formed() {
        let sink = TraceSink::new(3);
        for id in [7, 8] {
            sink.record(2, K::RequestAdmit { tenant: 0, id });
        }
        for id in [7, 8] {
            sink.record(2, K::RequestDispatch { tenant: 0, id });
        }
        sink.record(2, K::RequestPhase { id: 8, phase: 0 });
        sink.record(2, K::RequestComplete { tenant: 0, id: 8 });
        sink.record(2, K::RequestPhase { id: 7, phase: 0 });
        sink.record(2, K::RequestComplete { tenant: 0, id: 7 });
        let evs = events(&sink);
        for id in [7.0, 8.0] {
            let track: Vec<(&str, &str)> = evs
                .iter()
                .filter(|e| str_of(e, "cat") == Some("serve") && num(e, "id") == Some(id))
                .filter_map(|e| Some((str_of(e, "name")?, str_of(e, "ph")?)))
                .filter(|(_, ph)| *ph != "i")
                .collect();
            assert_eq!(
                track,
                [
                    ("request", "b"),
                    ("service", "b"),
                    ("phase 0", "n"),
                    ("service", "e"),
                    ("request", "e"),
                ],
                "request {id}"
            );
        }
    }

    #[test]
    fn local_grab_emits_no_flow() {
        let sink = TraceSink::new(2);
        sink.record(0, K::GrabBegin);
        sink.record(
            0,
            K::GrabLocal {
                queue: 0,
                lo: 0,
                hi: 4,
            },
        );
        let evs = events(&sink);
        assert!(evs.iter().all(|e| str_of(e, "ph") != Some("s")));
        assert_eq!(named(&evs, "grab local", "X").len(), 1);
    }

    #[test]
    fn lanes_are_named_and_events_sit_one_per_line() {
        let sink = TraceSink::new(2);
        sink.record(1, K::BarrierArrive);
        let json = chrome_trace(&sink, "repro/\"fig3\"");
        let evs = events(&sink);
        let meta = json::parse(json.lines().nth(2).unwrap().trim_end_matches(',')).unwrap();
        assert_eq!(str_of(&meta, "name"), Some("process_name"));
        assert_eq!(
            str_of(meta.get("args").unwrap(), "name"),
            Some("repro/\"fig3\"")
        );
        // process + 2 lanes of metadata, then the one instant.
        assert_eq!(evs.len(), 4);
        // `{`, `"traceEvents": [`, one line per event, `],`, the time unit, `}`.
        assert_eq!(json.lines().count(), evs.len() + 5);
        assert_eq!(str_of(&evs[2], "ph"), Some("M"));
        assert_eq!(
            str_of(evs[2].get("args").unwrap(), "name"),
            Some("worker 1")
        );
    }

    /// A fixed three-lane trace — lane 0 runs a local chunk and waits at
    /// the barrier, lane 1 steals from queue 0 and parks before the
    /// release, lane 2 serves one request through its lifecycle — and the
    /// exact document it exports.
    #[test]
    fn fixed_trace_exports_byte_identical_json() {
        let sink = TraceSink::stamped(&[
            &[
                (0, K::GrabBegin),
                (
                    250,
                    K::GrabLocal {
                        queue: 0,
                        lo: 0,
                        hi: 5,
                    },
                ),
                (
                    300,
                    K::ChunkStart {
                        queue: 0,
                        lo: 0,
                        hi: 5,
                    },
                ),
                (2_000, K::ChunkEnd),
                (2_100, K::BarrierArrive),
                (3_400, K::BarrierRelease),
            ],
            &[
                (1_000, K::GrabBegin),
                (
                    1_500,
                    K::GrabRemote {
                        queue: 0,
                        lo: 5,
                        hi: 9,
                    },
                ),
                (
                    1_600,
                    K::ChunkStart {
                        queue: 0,
                        lo: 5,
                        hi: 9,
                    },
                ),
                (2_600, K::ChunkEnd),
                (3_000, K::BarrierArrive),
                (3_100, K::BarrierPark),
                (3_500, K::BarrierRelease),
            ],
            &[
                (100, K::RequestAdmit { tenant: 1, id: 42 }),
                (200, K::RequestDispatch { tenant: 1, id: 42 }),
                (3_450, K::RequestPhase { id: 42, phase: 0 }),
                (3_600, K::RequestComplete { tenant: 1, id: 42 }),
            ],
        ]);
        let expected = r#"{
  "traceEvents": [
    {"name": "process_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "pin"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "worker 0"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1, "args": {"name": "worker 1"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 2, "args": {"name": "worker 2"}},
    {"name": "grab local", "cat": "grab", "ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": 0.25, "args": {"queue": 0, "lo": 0, "hi": 5}},
    {"name": "chunk [0,5)", "cat": "chunk", "ph": "X", "pid": 0, "tid": 0, "ts": 0.3, "dur": 1.7, "args": {"queue": 0, "lo": 0, "hi": 5}},
    {"name": "steal", "cat": "steal", "ph": "s", "id": 0, "pid": 0, "tid": 0, "ts": 1.5},
    {"name": "barrier", "cat": "barrier", "ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 2.1},
    {"name": "barrier wait", "cat": "barrier", "ph": "X", "pid": 0, "tid": 0, "ts": 2.1, "dur": 1.3},
    {"name": "grab remote", "cat": "grab", "ph": "X", "pid": 0, "tid": 1, "ts": 1, "dur": 0.5, "args": {"queue": 0, "lo": 5, "hi": 9}},
    {"name": "steal", "cat": "steal", "ph": "f", "bp": "e", "id": 0, "pid": 0, "tid": 1, "ts": 1.5},
    {"name": "chunk [5,9)", "cat": "chunk", "ph": "X", "pid": 0, "tid": 1, "ts": 1.6, "dur": 1, "args": {"queue": 0, "lo": 5, "hi": 9}},
    {"name": "barrier", "cat": "barrier", "ph": "i", "s": "t", "pid": 0, "tid": 1, "ts": 3},
    {"name": "barrier wait", "cat": "barrier", "ph": "X", "pid": 0, "tid": 1, "ts": 3, "dur": 0.5},
    {"name": "barrier park", "cat": "barrier", "ph": "i", "s": "t", "pid": 0, "tid": 1, "ts": 3.1},
    {"name": "request admit", "cat": "serve", "ph": "i", "s": "t", "pid": 0, "tid": 2, "ts": 0.1, "args": {"tenant": 1, "id": 42}},
    {"name": "request", "cat": "serve", "ph": "b", "id": 42, "pid": 0, "tid": 2, "ts": 0.1, "args": {"tenant": 1}},
    {"name": "request dispatch", "cat": "serve", "ph": "i", "s": "t", "pid": 0, "tid": 2, "ts": 0.2, "args": {"tenant": 1, "id": 42}},
    {"name": "service", "cat": "serve", "ph": "b", "id": 42, "pid": 0, "tid": 2, "ts": 0.2, "args": {"tenant": 1}},
    {"name": "phase 0", "cat": "serve", "ph": "n", "id": 42, "pid": 0, "tid": 2, "ts": 3.45, "args": {"phase": 0}},
    {"name": "service", "cat": "serve", "ph": "e", "id": 42, "pid": 0, "tid": 2, "ts": 3.6},
    {"name": "request", "cat": "serve", "ph": "e", "id": 42, "pid": 0, "tid": 2, "ts": 3.6, "args": {"tenant": 1}}
  ],
  "displayTimeUnit": "ms"
}
"#;
        assert_eq!(chrome_trace(&sink, "pin"), expected);
    }
}
