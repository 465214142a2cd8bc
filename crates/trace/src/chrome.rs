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
use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microseconds (with ns fraction) from a nanosecond timestamp.
fn us(t_ns: u64) -> f64 {
    t_ns as f64 / 1_000.0
}

/// One emitted JSON object, paired with its sort keys so the final stream
/// can be ordered by (lane, time) — viewers do not require global ordering,
/// but tests (and humans reading the file) appreciate it.
struct Emitted {
    tid: usize,
    ts_ns: u64,
    /// Tie-break so begin-flows sort before their finish even at equal ts.
    seq: usize,
    json: String,
}

/// Serializes everything `sink` recorded as a Chrome trace-event JSON
/// document. `process_name` labels the trace (e.g. the experiment id).
///
/// The output is a complete, self-contained JSON object; write it to a
/// `.json` file and load it in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
pub fn chrome_trace(sink: &TraceSink, process_name: &str) -> String {
    let mut events: Vec<Emitted> = Vec::new();
    let mut seq = 0usize;
    let mut push = |tid: usize, ts_ns: u64, seq: &mut usize, json: String| {
        events.push(Emitted {
            tid,
            ts_ns,
            seq: *seq,
            json,
        });
        *seq += 1;
    };

    let mut flow_id = 0u64;
    for w in 0..sink.workers() {
        let mut grab_start: Option<u64> = None;
        let mut wait_start: Option<(u64, u32)> = None;
        let mut busy_start: Option<(u64, u32, u64, u64)> = None;
        let mut barrier_start: Option<u64> = None;
        for ev in sink.events(w) {
            match ev.kind {
                EventKind::GrabBegin => grab_start = Some(ev.t),
                EventKind::LockWaitBegin { queue } => wait_start = Some((ev.t, queue)),
                EventKind::LockWaitEnd { queue } => {
                    if let Some((s, _)) = wait_start.take() {
                        let q = queue;
                        push(
                            w,
                            s,
                            &mut seq,
                            format!(
                                "{{\"name\":\"lock wait\",\"cat\":\"sync\",\"ph\":\"X\",\
                                 \"pid\":0,\"tid\":{w},\"ts\":{:.3},\"dur\":{:.3},\
                                 \"args\":{{\"queue\":{q}}}}}",
                                us(s),
                                us(ev.t - s),
                            ),
                        );
                    }
                }
                EventKind::GrabLocal { queue, lo, hi }
                | EventKind::GrabRemote { queue, lo, hi } => {
                    let remote = matches!(ev.kind, EventKind::GrabRemote { .. });
                    let name = if remote { "grab remote" } else { "grab local" };
                    if let Some(s) = grab_start.take() {
                        push(
                            w,
                            s,
                            &mut seq,
                            format!(
                                "{{\"name\":\"{name}\",\"cat\":\"grab\",\"ph\":\"X\",\
                                 \"pid\":0,\"tid\":{w},\"ts\":{:.3},\"dur\":{:.3},\
                                 \"args\":{{\"queue\":{queue},\"lo\":{lo},\"hi\":{hi}}}}}",
                                us(s),
                                us(ev.t - s),
                            ),
                        );
                    }
                    if remote && queue as usize != w {
                        // Flow arrow: victim lane -> thief lane.
                        push(
                            queue as usize,
                            ev.t,
                            &mut seq,
                            format!(
                                "{{\"name\":\"steal\",\"cat\":\"steal\",\"ph\":\"s\",\
                                 \"id\":{flow_id},\"pid\":0,\"tid\":{queue},\"ts\":{:.3}}}",
                                us(ev.t),
                            ),
                        );
                        push(
                            w,
                            ev.t,
                            &mut seq,
                            format!(
                                "{{\"name\":\"steal\",\"cat\":\"steal\",\"ph\":\"f\",\
                                 \"bp\":\"e\",\"id\":{flow_id},\"pid\":0,\"tid\":{w},\
                                 \"ts\":{:.3}}}",
                                us(ev.t),
                            ),
                        );
                        flow_id += 1;
                    }
                }
                EventKind::GrabCentral { lo, hi } | EventKind::GrabFree { lo, hi } => {
                    let name = match ev.kind {
                        EventKind::GrabCentral { .. } => "grab central",
                        _ => "grab free",
                    };
                    if let Some(s) = grab_start.take() {
                        push(
                            w,
                            s,
                            &mut seq,
                            format!(
                                "{{\"name\":\"{name}\",\"cat\":\"grab\",\"ph\":\"X\",\
                                 \"pid\":0,\"tid\":{w},\"ts\":{:.3},\"dur\":{:.3},\
                                 \"args\":{{\"lo\":{lo},\"hi\":{hi}}}}}",
                                us(s),
                                us(ev.t - s),
                            ),
                        );
                    }
                }
                EventKind::CasRetry { queue } => {
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"cas retry\",\"cat\":\"sync\",\"ph\":\"i\",\
                             \"s\":\"t\",\"pid\":0,\"tid\":{w},\"ts\":{:.3},\
                             \"args\":{{\"queue\":{queue}}}}}",
                            us(ev.t),
                        ),
                    );
                }
                EventKind::ChunkStart { queue, lo, hi } => {
                    busy_start = Some((ev.t, queue, lo, hi));
                }
                EventKind::ChunkEnd => {
                    if let Some((s, q, lo, hi)) = busy_start.take() {
                        push(
                            w,
                            s,
                            &mut seq,
                            format!(
                                "{{\"name\":\"chunk [{lo},{hi})\",\"cat\":\"chunk\",\
                                 \"ph\":\"X\",\"pid\":0,\"tid\":{w},\"ts\":{:.3},\
                                 \"dur\":{:.3},\"args\":{{\"queue\":{q},\"lo\":{lo},\
                                 \"hi\":{hi}}}}}",
                                us(s),
                                us(ev.t - s),
                            ),
                        );
                    }
                }
                EventKind::BarrierWait => {
                    // Legacy single-event form: an instant only.
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"barrier\",\"cat\":\"barrier\",\"ph\":\"i\",\
                             \"s\":\"t\",\"pid\":0,\"tid\":{w},\"ts\":{:.3}}}",
                            us(ev.t),
                        ),
                    );
                }
                EventKind::BarrierArrive => {
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"barrier\",\"cat\":\"barrier\",\"ph\":\"i\",\
                             \"s\":\"t\",\"pid\":0,\"tid\":{w},\"ts\":{:.3}}}",
                            us(ev.t),
                        ),
                    );
                    barrier_start = Some(ev.t);
                }
                EventKind::BarrierPark => {
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"barrier park\",\"cat\":\"barrier\",\"ph\":\"i\",\
                             \"s\":\"t\",\"pid\":0,\"tid\":{w},\"ts\":{:.3}}}",
                            us(ev.t),
                        ),
                    );
                }
                EventKind::StallDetected { worker } => {
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"stall detected\",\"cat\":\"fault\",\"ph\":\"i\",\
                             \"s\":\"t\",\"pid\":0,\"tid\":{w},\"ts\":{:.3},\
                             \"args\":{{\"worker\":{worker}}}}}",
                            us(ev.t),
                        ),
                    );
                }
                EventKind::RequestAdmit { tenant, id } => {
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"request admit\",\"cat\":\"serve\",\"ph\":\"i\",\
                             \"s\":\"t\",\"pid\":0,\"tid\":{w},\"ts\":{:.3},\
                             \"args\":{{\"tenant\":{tenant},\"id\":{id}}}}}",
                            us(ev.t),
                        ),
                    );
                    // Async span open: the request's whole sojourn. Matched
                    // by (cat, id) with the `e` from `RequestComplete`; the
                    // nested "service" span subtracts queue wait from it.
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"request\",\"cat\":\"serve\",\"ph\":\"b\",\
                             \"id\":{id},\"pid\":0,\"tid\":{w},\"ts\":{:.3},\
                             \"args\":{{\"tenant\":{tenant}}}}}",
                            us(ev.t),
                        ),
                    );
                }
                EventKind::RequestDispatch { tenant, id } => {
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"request dispatch\",\"cat\":\"serve\",\"ph\":\"i\",\
                             \"s\":\"t\",\"pid\":0,\"tid\":{w},\"ts\":{:.3},\
                             \"args\":{{\"tenant\":{tenant},\"id\":{id}}}}}",
                            us(ev.t),
                        ),
                    );
                    // Nested async span: time on the pool. The gap between
                    // the outer "request" open and this open is queue wait.
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"service\",\"cat\":\"serve\",\"ph\":\"b\",\
                             \"id\":{id},\"pid\":0,\"tid\":{w},\"ts\":{:.3},\
                             \"args\":{{\"tenant\":{tenant}}}}}",
                            us(ev.t),
                        ),
                    );
                }
                EventKind::RequestPhase { id, phase } => {
                    // Nestable instant on the request's async track: marks
                    // the barrier turn that retired phase `phase`.
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"phase {phase}\",\"cat\":\"serve\",\"ph\":\"n\",\
                             \"id\":{id},\"pid\":0,\"tid\":{w},\"ts\":{:.3},\
                             \"args\":{{\"phase\":{phase}}}}}",
                            us(ev.t),
                        ),
                    );
                }
                EventKind::RequestComplete { tenant, id } => {
                    // Close inner "service" first, then the outer
                    // "request" — the seq tie-break keeps that order at
                    // equal timestamps.
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"service\",\"cat\":\"serve\",\"ph\":\"e\",\
                             \"id\":{id},\"pid\":0,\"tid\":{w},\"ts\":{:.3}}}",
                            us(ev.t),
                        ),
                    );
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"request\",\"cat\":\"serve\",\"ph\":\"e\",\
                             \"id\":{id},\"pid\":0,\"tid\":{w},\"ts\":{:.3},\
                             \"args\":{{\"tenant\":{tenant}}}}}",
                            us(ev.t),
                        ),
                    );
                }
                EventKind::RequestShed { tenant, reason } => {
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"request shed\",\"cat\":\"serve\",\"ph\":\"i\",\
                             \"s\":\"t\",\"pid\":0,\"tid\":{w},\"ts\":{:.3},\
                             \"args\":{{\"tenant\":{tenant},\"reason\":{reason}}}}}",
                            us(ev.t),
                        ),
                    );
                }
                EventKind::RequestFailed {
                    tenant,
                    id,
                    worker,
                    phase,
                } => {
                    // A contained panic still closes both async spans —
                    // the request's sojourn ended, just not successfully.
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"service\",\"cat\":\"serve\",\"ph\":\"e\",\
                             \"id\":{id},\"pid\":0,\"tid\":{w},\"ts\":{:.3}}}",
                            us(ev.t),
                        ),
                    );
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"request\",\"cat\":\"serve\",\"ph\":\"e\",\
                             \"id\":{id},\"pid\":0,\"tid\":{w},\"ts\":{:.3},\
                             \"args\":{{\"tenant\":{tenant},\"outcome\":\"failed\",\
                             \"worker\":{worker},\"phase\":{phase}}}}}",
                            us(ev.t),
                        ),
                    );
                }
                EventKind::RequestExpired { tenant, id } => {
                    // Expired while queued: no "service" span was ever
                    // opened, so only the outer sojourn span closes.
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"request\",\"cat\":\"serve\",\"ph\":\"e\",\
                             \"id\":{id},\"pid\":0,\"tid\":{w},\"ts\":{:.3},\
                             \"args\":{{\"tenant\":{tenant},\"outcome\":\"expired\"}}}}",
                            us(ev.t),
                        ),
                    );
                }
                EventKind::SchedTune { k, b } => {
                    push(
                        w,
                        ev.t,
                        &mut seq,
                        format!(
                            "{{\"name\":\"sched tune\",\"cat\":\"sched\",\"ph\":\"i\",\
                             \"s\":\"t\",\"pid\":0,\"tid\":{w},\"ts\":{:.3},\
                             \"args\":{{\"k\":{k},\"b\":{b}}}}}",
                            us(ev.t),
                        ),
                    );
                }
                EventKind::BarrierRelease => {
                    // The first release of a pool's life has no arrive;
                    // draw a span only for matched pairs.
                    if let Some(s) = barrier_start.take() {
                        push(
                            w,
                            s,
                            &mut seq,
                            format!(
                                "{{\"name\":\"barrier wait\",\"cat\":\"barrier\",\
                                 \"ph\":\"X\",\"pid\":0,\"tid\":{w},\"ts\":{:.3},\
                                 \"dur\":{:.3}}}",
                                us(s),
                                us(ev.t - s),
                            ),
                        );
                    }
                }
            }
        }
    }

    // Per-lane time order (metadata first), stable across equal stamps.
    events.sort_by_key(|a| (a.tid, a.ts_ns, a.seq));

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let emit = |json: &str, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(json);
    };
    emit(
        &format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(process_name)
        ),
        &mut out,
        &mut first,
    );
    for w in 0..sink.workers() {
        emit(
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{w},\
                 \"args\":{{\"name\":\"worker {w}\"}}}}"
            ),
            &mut out,
            &mut first,
        );
    }
    for ev in &events {
        emit(&ev.json, &mut out, &mut first);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind as K;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
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
        let json = chrome_trace(&sink, "t");
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("grab remote"));
    }

    #[test]
    fn barrier_pair_emits_span_and_instant() {
        let sink = TraceSink::new(1);
        // An unmatched leading release must not fabricate a span.
        sink.record(0, K::BarrierRelease);
        sink.record(0, K::BarrierArrive);
        sink.record(0, K::BarrierRelease);
        let json = chrome_trace(&sink, "t");
        assert!(json.contains("barrier wait"));
        assert_eq!(json.matches("\"barrier wait\"").count(), 1);
        assert!(json.contains("\"name\":\"barrier\""));
    }

    #[test]
    fn stall_detected_emits_instant() {
        let sink = TraceSink::new(2);
        sink.record(1, K::StallDetected { worker: 0 });
        let json = chrome_trace(&sink, "t");
        assert!(json.contains("stall detected"));
        assert!(json.contains("\"args\":{\"worker\":0}"));
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
        let json = chrome_trace(&sink, "t");
        assert!(json.contains("request admit"));
        assert!(json.contains("request dispatch"));
        assert!(json.contains("request shed"));
        assert!(json.contains("\"args\":{\"tenant\":1,\"id\":42}"));
        assert!(json.contains("\"args\":{\"tenant\":0,\"reason\":1}"));
    }

    #[test]
    fn request_lifecycle_emits_async_span_pairs() {
        let sink = TraceSink::new(3);
        sink.record(2, K::RequestAdmit { tenant: 1, id: 42 });
        sink.record(2, K::RequestDispatch { tenant: 1, id: 42 });
        sink.record(2, K::RequestPhase { id: 42, phase: 0 });
        sink.record(2, K::RequestPhase { id: 42, phase: 1 });
        sink.record(2, K::RequestComplete { tenant: 1, id: 42 });
        let json = chrome_trace(&sink, "t");
        // One open and one close for each of the "request" and "service"
        // spans, matched by id.
        assert_eq!(
            json.matches("\"name\":\"request\",\"cat\":\"serve\",\"ph\":\"b\"")
                .count(),
            1
        );
        assert_eq!(
            json.matches("\"name\":\"request\",\"cat\":\"serve\",\"ph\":\"e\"")
                .count(),
            1
        );
        assert_eq!(
            json.matches("\"name\":\"service\",\"cat\":\"serve\",\"ph\":\"b\"")
                .count(),
            1
        );
        assert_eq!(
            json.matches("\"name\":\"service\",\"cat\":\"serve\",\"ph\":\"e\"")
                .count(),
            1
        );
        assert_eq!(json.matches("\"ph\":\"n\"").count(), 2);
        assert!(json.contains("\"name\":\"phase 1\""));
        assert!(json.contains("\"id\":42"));
        // The inner close sorts before the outer close.
        let service_e = json
            .find("\"name\":\"service\",\"cat\":\"serve\",\"ph\":\"e\"")
            .unwrap();
        let request_e = json
            .find("\"name\":\"request\",\"cat\":\"serve\",\"ph\":\"e\"")
            .unwrap();
        assert!(service_e < request_e, "inner span must close first");
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
        let json = chrome_trace(&sink, "t");
        assert!(!json.contains("\"ph\":\"s\""));
        assert!(json.contains("grab local"));
    }
}
