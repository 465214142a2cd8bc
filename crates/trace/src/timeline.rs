//! Assembling recorded events into the simulator's [`Timeline`] structure.
//!
//! The payoff: `afs_sim::timeline::Timeline` already has an ASCII Gantt
//! renderer and per-lane accounting, and the whole analysis surface built on
//! simulated runs. Producing the same structure from a *real* execution
//! makes the two directly comparable — render a simulated SOR sweep and the
//! real one side by side and the shapes should agree.

use crate::event::EventKind;
use crate::sink::TraceSink;
pub use afs_sim::timeline::{Segment, SegmentKind, Timeline};

/// Nanoseconds per timeline time unit. Real timelines are in microseconds:
/// fine enough to resolve individual grabs, coarse enough that an `f64`
/// stays exact over any realistic run length.
pub const NS_PER_UNIT: f64 = 1_000.0;

/// Builds a [`Timeline`] (time unit: microseconds) from everything the sink
/// recorded. One lane per worker; call after the run has completed.
///
/// Segment mapping:
///
/// * `ChunkStart → ChunkEnd` becomes [`SegmentKind::Busy`];
/// * `GrabBegin → Grab*` becomes [`SegmentKind::Sync`] (scheduler overhead),
///   except any `LockWaitBegin → LockWaitEnd` stretch inside it, which
///   becomes [`SegmentKind::Wait`];
/// * time after `BarrierWait` (and any other gap) is idle — not recorded,
///   exactly as in the simulator.
///
/// The builder is defensive about missing partners (a ring that overflowed
/// may have dropped a `Begin`): unmatched ends are ignored rather than
/// fabricating segments.
pub fn to_timeline(sink: &TraceSink) -> Timeline {
    let mut tl = Timeline::new(sink.workers());
    for w in 0..sink.workers() {
        let mut sync_start: Option<f64> = None;
        let mut wait_start: Option<f64> = None;
        let mut busy_start: Option<f64> = None;
        for ev in sink.events(w) {
            let t = ev.t as f64 / NS_PER_UNIT;
            match ev.kind {
                EventKind::GrabBegin => sync_start = Some(t),
                EventKind::LockWaitBegin { .. } => {
                    if let Some(s) = sync_start.take() {
                        tl.push(w, SegmentKind::Sync, s, t);
                    }
                    wait_start = Some(t);
                }
                EventKind::LockWaitEnd { .. } => {
                    if let Some(s) = wait_start.take() {
                        tl.push(w, SegmentKind::Wait, s, t);
                    }
                    // Back on the grab path, now holding the lock.
                    sync_start = Some(t);
                }
                EventKind::GrabLocal { .. }
                | EventKind::GrabRemote { .. }
                | EventKind::GrabCentral { .. }
                | EventKind::GrabFree { .. } => {
                    if let Some(s) = sync_start.take() {
                        tl.push(w, SegmentKind::Sync, s, t);
                    }
                }
                // A retried CAS stays inside the enclosing Sync span; the
                // event only marks contention, it does not split the span.
                EventKind::CasRetry { .. } => {}
                EventKind::ChunkStart { .. } => busy_start = Some(t),
                EventKind::ChunkEnd => {
                    if let Some(s) = busy_start.take() {
                        tl.push(w, SegmentKind::Busy, s, t);
                    }
                }
                EventKind::BarrierWait | EventKind::BarrierArrive => {
                    // Close any dangling interval; the lane is idle until
                    // the barrier releases (the simulator draws the barrier
                    // tail as idle, and the timeline follows suit — exact
                    // barrier accounting lives in `TraceReport`).
                    sync_start = None;
                    wait_start = None;
                }
                // Leaving the rendezvous opens no segment: the gap between
                // arrive and release is idle on the timeline, and a park
                // inside it changes how the worker waits, not whether.
                EventKind::BarrierRelease | EventKind::BarrierPark => {}
                // Watchdog observations mark faults, not lane activity;
                // request lifecycle marks belong to the serving layer, and
                // a scheduling re-tune is a phase-boundary annotation.
                EventKind::StallDetected { .. }
                | EventKind::RequestAdmit { .. }
                | EventKind::RequestDispatch { .. }
                | EventKind::RequestShed { .. }
                | EventKind::RequestPhase { .. }
                | EventKind::RequestComplete { .. }
                | EventKind::RequestFailed { .. }
                | EventKind::RequestExpired { .. }
                | EventKind::SchedTune { .. } => {}
            }
        }
    }
    tl
}

/// Sum of `[ChunkStart, ChunkEnd)` spans on one lane, in timeline units.
/// Equals `to_timeline(sink).lane_total(w, SegmentKind::Busy)` — the
/// identity the integration tests pin down.
pub fn chunk_span_total(sink: &TraceSink, worker: usize) -> f64 {
    let mut total = 0.0;
    let mut start: Option<u64> = None;
    for ev in sink.events(worker) {
        match ev.kind {
            EventKind::ChunkStart { .. } => start = Some(ev.t),
            EventKind::ChunkEnd => {
                if let Some(s) = start.take() {
                    total += (ev.t - s) as f64 / NS_PER_UNIT;
                }
            }
            _ => {}
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind as K;

    /// A sink pre-loaded with a hand-written event tape on lane 0.
    fn scripted(tape: &[(u64, K)]) -> TraceSink {
        let sink = TraceSink::new(2);
        // Timestamps here are synthetic; push through the ring directly by
        // re-recording and overwriting `t` is not possible via the public
        // API, so drive record() and then check shape-level invariants
        // rather than exact times where real clocks are involved.
        for &(_, kind) in tape {
            sink.record(0, kind);
        }
        sink
    }

    #[test]
    fn busy_total_matches_chunk_spans() {
        let sink = scripted(&[
            (0, K::GrabBegin),
            (
                1,
                K::GrabLocal {
                    queue: 0,
                    lo: 0,
                    hi: 4,
                },
            ),
            (
                2,
                K::ChunkStart {
                    queue: 0,
                    lo: 0,
                    hi: 4,
                },
            ),
            (3, K::ChunkEnd),
            (4, K::GrabBegin),
            (
                5,
                K::GrabRemote {
                    queue: 1,
                    lo: 10,
                    hi: 12,
                },
            ),
            (
                6,
                K::ChunkStart {
                    queue: 1,
                    lo: 10,
                    hi: 12,
                },
            ),
            (7, K::ChunkEnd),
            (8, K::BarrierWait),
        ]);
        let tl = to_timeline(&sink);
        let busy = tl.lane_total(0, SegmentKind::Busy);
        let spans = chunk_span_total(&sink, 0);
        assert!((busy - spans).abs() < 1e-9, "busy {busy} != spans {spans}");
        assert!(tl.lane_total(0, SegmentKind::Sync) >= 0.0);
        assert!(tl.lanes[1].is_empty());
    }

    #[test]
    fn lock_wait_interval_becomes_wait_segment() {
        let sink = scripted(&[
            (0, K::GrabBegin),
            (1, K::LockWaitBegin { queue: 0 }),
            (2, K::LockWaitEnd { queue: 0 }),
            (3, K::GrabCentral { lo: 0, hi: 8 }),
            (
                4,
                K::ChunkStart {
                    queue: 0,
                    lo: 0,
                    hi: 8,
                },
            ),
            (5, K::ChunkEnd),
        ]);
        let tl = to_timeline(&sink);
        let kinds: Vec<SegmentKind> = tl.lanes[0].iter().map(|s| s.kind).collect();
        // Some segments may collapse to zero width under a fast clock, but
        // whatever survives must be ordered Sync/Wait before Busy and never
        // fabricate a Wait without its begin.
        assert!(kinds
            .iter()
            .all(|k| matches!(k, SegmentKind::Sync | SegmentKind::Wait | SegmentKind::Busy)));
        if let Some(pos) = kinds.iter().position(|k| *k == SegmentKind::Busy) {
            assert_eq!(pos, kinds.len() - 1, "busy must come last: {kinds:?}");
        }
    }

    #[test]
    fn unmatched_ends_are_ignored() {
        let sink = scripted(&[
            (0, K::ChunkEnd),
            (1, K::LockWaitEnd { queue: 3 }),
            (
                2,
                K::GrabLocal {
                    queue: 0,
                    lo: 0,
                    hi: 1,
                },
            ),
        ]);
        let tl = to_timeline(&sink);
        assert!(tl.lane_total(0, SegmentKind::Busy) == 0.0);
        assert!(tl.lane_total(0, SegmentKind::Wait) == 0.0);
    }
}
