//! Aggregate post-run analysis of a recorded trace.
//!
//! Answers the paper's questions about a *real* execution: where did each
//! worker's time go (busy / scheduler sync / lock wait / idle), how long do
//! chunks and grabs take (log₂-bucket histograms), and who stole from whom
//! (the steal matrix — the runtime cost of losing affinity).

use crate::event::EventKind;
use crate::sink::TraceSink;
use crate::timeline::to_timeline;
use crate::HistogramSnapshot;
use afs_core::metrics::SyncOps;
use afs_core::timeline::SegmentKind;
use std::fmt::Write as _;

/// One worker's wall-clock breakdown, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerBreakdown {
    /// Executing loop bodies.
    pub busy_ns: f64,
    /// In the scheduler's grab path (excluding lock waits).
    pub sync_ns: f64,
    /// Blocked on a contended queue lock.
    pub wait_ns: f64,
    /// At the end-of-phase rendezvous: `BarrierArrive → BarrierRelease`
    /// spans, plus a trailing unreleased arrive (the run's final barrier)
    /// up to the last event anywhere.
    pub barrier_ns: f64,
    /// Everything else up to the last event anywhere.
    pub idle_ns: f64,
}

/// Aggregated view of everything a [`TraceSink`] recorded.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// Per-worker time breakdown.
    pub workers: Vec<WorkerBreakdown>,
    /// Grab counts by synchronization class: one `Grab*` event per grab.
    pub grabs: SyncOps,
    /// Chunk execution latency histogram.
    pub chunk_latency: HistogramSnapshot,
    /// Grab latency histogram (`GrabBegin` → `Grab*`).
    pub grab_latency: HistogramSnapshot,
    /// `steals[thief][victim]` = chunks worker `thief` took from `victim`'s
    /// queue.
    pub steals: Vec<Vec<u64>>,
    /// Contended compare-and-swap retries on lock-free queue words, summed
    /// over all workers. Zero for lock-based sources and uncontended runs.
    pub cas_retries: u64,
    /// Stalls flagged by the runtime's watchdog (`StallDetected` events).
    /// Zero for healthy runs.
    pub stalls: u64,
    /// Events lost to ring overflow, per worker.
    pub dropped: Vec<u64>,
    /// Run span: latest event timestamp (ns since sink origin).
    pub span_ns: u64,
}

impl TraceReport {
    /// Builds the report from a completed run's sink.
    pub fn from_sink(sink: &TraceSink) -> Self {
        let p = sink.workers();
        let span_ns = sink.last_event_ns();
        let tl = to_timeline(sink);
        let mut report = TraceReport {
            workers: Vec::with_capacity(p),
            steals: vec![vec![0; p]; p],
            dropped: (0..p).map(|w| sink.dropped(w)).collect(),
            span_ns,
            ..Default::default()
        };

        for w in 0..p {
            let busy = tl.lane_total(w, SegmentKind::Busy) * 1_000.0;
            let sync = tl.lane_total(w, SegmentKind::Sync) * 1_000.0;
            let wait = tl.lane_total(w, SegmentKind::Wait) * 1_000.0;

            let mut grab_start: Option<u64> = None;
            let mut busy_from: Option<u64> = None;
            let mut barrier_from: Option<u64> = None;
            let mut barrier = 0.0f64;
            for &ev in sink.lane(w) {
                match ev.kind {
                    EventKind::GrabBegin => grab_start = Some(ev.t),
                    EventKind::BarrierArrive => barrier_from = Some(ev.t),
                    EventKind::BarrierRelease => {
                        if let Some(s) = barrier_from.take() {
                            barrier += (ev.t - s) as f64;
                        }
                    }
                    EventKind::ChunkStart { .. } => busy_from = Some(ev.t),
                    EventKind::ChunkEnd => {
                        if let Some(s) = busy_from.take() {
                            report.chunk_latency.record(ev.t - s);
                        }
                    }
                    EventKind::CasRetry { .. } => report.cas_retries += 1,
                    EventKind::StallDetected { .. } => report.stalls += 1,
                    _ => {
                        if let Some(access) = ev.kind.grab_access() {
                            if let Some(s) = grab_start.take() {
                                report.grab_latency.record(ev.t - s);
                            }
                            report.grabs.record(access);
                            if let EventKind::GrabRemote { queue, .. } = ev.kind {
                                report.steals[w][queue as usize] += 1;
                            }
                        }
                    }
                }
            }
            // The run's final barrier is never released: count it to the
            // last event anywhere, which is where the run span ends.
            if let Some(s) = barrier_from.take() {
                barrier += span_ns.saturating_sub(s) as f64;
            }
            let idle = (span_ns as f64 - busy - sync - wait - barrier).max(0.0);
            report.workers.push(WorkerBreakdown {
                busy_ns: busy,
                sync_ns: sync,
                wait_ns: wait,
                barrier_ns: barrier,
                idle_ns: idle,
            });
        }
        report
    }

    /// Renders the report as a plain-text table block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let span_ms = self.span_ns as f64 / 1e6;
        let _ = writeln!(out, "trace report — span {span_ms:.3} ms");
        let _ = writeln!(
            out,
            "{:<8}{:>10}{:>10}{:>10}{:>10}{:>10}{:>9}",
            "worker", "busy%", "sync%", "wait%", "barrier%", "idle%", "dropped"
        );
        for (w, b) in self.workers.iter().enumerate() {
            let span = self.span_ns.max(1) as f64;
            let _ = writeln!(
                out,
                "P{:<7}{:>9.1}%{:>9.1}%{:>9.1}%{:>9.1}%{:>9.1}%{:>9}",
                w,
                100.0 * b.busy_ns / span,
                100.0 * b.sync_ns / span,
                100.0 * b.wait_ns / span,
                100.0 * b.barrier_ns / span,
                100.0 * b.idle_ns / span,
                self.dropped[w],
            );
        }
        let g = &self.grabs;
        let _ = writeln!(
            out,
            "grabs: {} local, {} remote, {} central, {} free ({} total)",
            g.local,
            g.remote,
            g.central,
            g.free,
            g.total()
        );
        if let Some(ratio) = g.affinity_hit_ratio() {
            let _ = writeln!(
                out,
                "affinity hit ratio: {:.1}% ({} of {} queue grabs served locally)",
                100.0 * ratio,
                g.local,
                g.local + g.remote
            );
        }
        let _ = writeln!(
            out,
            "chunk latency: mean {:.1} µs, max {:.1} µs over {} chunks",
            self.chunk_latency.mean_ns() / 1e3,
            self.chunk_latency.max_ns as f64 / 1e3,
            self.chunk_latency.samples
        );
        let _ = writeln!(
            out,
            "grab latency:  mean {:.1} ns, max {:.1} ns over {} grabs",
            self.grab_latency.mean_ns(),
            self.grab_latency.max_ns as f64,
            self.grab_latency.samples
        );
        if self.cas_retries > 0 {
            let _ = writeln!(
                out,
                "cas retries: {} (lock-free contention)",
                self.cas_retries
            );
        }
        if self.stalls > 0 {
            let _ = writeln!(out, "stalls detected: {} (watchdog)", self.stalls);
        }
        if self.grabs.remote > 0 {
            let _ = writeln!(out, "steal matrix (thief row → victim column):");
            let p = self.steals.len();
            let _ = write!(out, "      ");
            for v in 0..p {
                let _ = write!(out, "{:>6}", format!("P{v}"));
            }
            let _ = writeln!(out);
            for (thief, row) in self.steals.iter().enumerate() {
                let _ = write!(out, "  P{thief:<4}");
                for &n in row {
                    if n == 0 {
                        let _ = write!(out, "{:>6}", "·");
                    } else {
                        let _ = write!(out, "{n:>6}");
                    }
                }
                let _ = writeln!(out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind as K;

    #[test]
    fn report_counts_grabs_and_steals() {
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
        sink.record(
            0,
            K::ChunkStart {
                queue: 0,
                lo: 0,
                hi: 4,
            },
        );
        sink.record(0, K::ChunkEnd);
        sink.record(1, K::GrabBegin);
        sink.record(
            1,
            K::GrabRemote {
                queue: 0,
                lo: 4,
                hi: 6,
            },
        );
        sink.record(
            1,
            K::ChunkStart {
                queue: 0,
                lo: 4,
                hi: 6,
            },
        );
        sink.record(1, K::ChunkEnd);
        sink.record(1, K::GrabBegin);
        sink.record(1, K::GrabCentral { lo: 6, hi: 8 });
        let r = TraceReport::from_sink(&sink);
        assert_eq!(r.grabs.local, 1);
        assert_eq!(r.grabs.remote, 1);
        assert_eq!(r.grabs.central, 1);
        assert_eq!(r.grabs.total(), 3);
        assert_eq!(r.steals[1][0], 1);
        assert_eq!(r.steals[0][1], 0);
        assert_eq!(r.chunk_latency.samples, 2);
        assert_eq!(r.grab_latency.samples, 3);
        let text = r.render();
        assert!(text.contains("steal matrix"));
        assert!(text.contains("grabs: 1 local, 1 remote, 1 central, 0 free (3 total)"));
        assert!(text.contains("affinity hit ratio: 50.0% (1 of 2 queue grabs served locally)"));
    }

    #[test]
    fn affinity_hit_ratio_exists_only_for_queue_grabs() {
        let mut g = SyncOps {
            central: 7,
            free: 3,
            ..SyncOps::default()
        };
        assert_eq!(g.affinity_hit_ratio(), None, "no locality signal");
        g.local = 8;
        g.remote = 2;
        assert_eq!(g.affinity_hit_ratio(), Some(0.8));

        // A central-only trace renders no ratio line at all.
        let sink = TraceSink::new(1);
        sink.record(0, K::GrabBegin);
        sink.record(0, K::GrabCentral { lo: 0, hi: 4 });
        let text = TraceReport::from_sink(&sink).render();
        assert!(!text.contains("affinity hit ratio"));
    }

    #[test]
    fn report_counts_cas_retries() {
        let sink = TraceSink::new(2);
        sink.record(0, K::GrabBegin);
        sink.record(0, K::CasRetry { queue: 0 });
        sink.record(0, K::CasRetry { queue: 1 });
        sink.record(
            0,
            K::GrabLocal {
                queue: 0,
                lo: 0,
                hi: 4,
            },
        );
        sink.record(1, K::CasRetry { queue: 0 });
        let r = TraceReport::from_sink(&sink);
        assert_eq!(r.cas_retries, 3);
        assert_eq!(r.grabs.local, 1);
        assert_eq!(r.grab_latency.samples, 1, "retries must not end the grab");
        assert!(r.render().contains("cas retries: 3"));
        // A retry-free trace renders no retry line at all.
        let quiet = TraceSink::new(1);
        quiet.record(0, K::GrabBegin);
        quiet.record(0, K::GrabCentral { lo: 0, hi: 1 });
        assert!(!TraceReport::from_sink(&quiet)
            .render()
            .contains("cas retries"));
    }

    #[test]
    fn wrapped_lanes_report_their_newest_events() {
        // Lane 0 keeps 4 of its 7 events, its newest in the middle of the
        // ring's storage, not at its end; lane 1 does not wrap. The span
        // ends at lane 0's newest event, and only surviving grabs count.
        let (local, remote) = (
            K::GrabLocal {
                queue: 0,
                lo: 0,
                hi: 4,
            },
            K::GrabRemote {
                queue: 1,
                lo: 60,
                hi: 64,
            },
        );
        let chunk = K::ChunkStart {
            queue: 1,
            lo: 60,
            hi: 64,
        };
        let sink = TraceSink::stamped_in(
            4,
            &[
                &[
                    (10, K::GrabBegin),
                    (20, local),
                    (30, chunk),
                    (40, K::ChunkEnd),
                    (50, K::GrabBegin),
                    (60, remote),
                    (70, chunk),
                ],
                &[
                    (5, K::GrabBegin),
                    (15, local),
                    (25, K::ChunkEnd),
                    (65, K::BarrierArrive),
                ],
            ],
        );
        let surviving: usize = (0..sink.workers()).map(|w| sink.events(w).len()).sum();
        assert_eq!(surviving, 8);
        assert_eq!(sink.last_event_ns(), 70);
        let r = TraceReport::from_sink(&sink);
        assert_eq!(r.dropped, vec![3, 0]);
        assert_eq!(r.span_ns, 70);
        assert_eq!((r.grabs.local, r.grabs.remote), (1, 1));
        assert_eq!(r.steals, vec![vec![0, 1], vec![0, 0]]);
        assert_eq!(r.grab_latency.samples, 2);
    }

    #[test]
    fn report_counts_stall_events() {
        let sink = TraceSink::new(2);
        sink.record(1, K::StallDetected { worker: 0 });
        sink.record(1, K::StallDetected { worker: 0 });
        let r = TraceReport::from_sink(&sink);
        assert_eq!(r.stalls, 2);
        assert!(r.render().contains("stalls detected: 2"));
        // A stall-free trace renders no stall line at all.
        let quiet = TraceSink::new(1);
        quiet.record(0, K::GrabBegin);
        quiet.record(0, K::GrabCentral { lo: 0, hi: 1 });
        assert!(!TraceReport::from_sink(&quiet).render().contains("stalls"));
    }

    #[test]
    fn breakdown_sums_to_span() {
        let sink = TraceSink::new(1);
        sink.record(
            0,
            K::ChunkStart {
                queue: 0,
                lo: 0,
                hi: 1,
            },
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.record(0, K::ChunkEnd);
        let r = TraceReport::from_sink(&sink);
        let b = &r.workers[0];
        let sum = b.busy_ns + b.sync_ns + b.wait_ns + b.barrier_ns + b.idle_ns;
        let span = r.span_ns as f64;
        assert!((sum - span).abs() / span.max(1.0) < 1e-6, "{sum} vs {span}");
        assert!(b.busy_ns > 0.0);
    }

    #[test]
    fn barrier_pairs_bound_the_rendezvous_exactly() {
        let sink = TraceSink::new(2);
        // Lane 1: a trailing arrive with no release — the run's final
        // barrier — counts up to the last event anywhere (lane 0's tail).
        sink.record(1, K::BarrierArrive);
        sink.record(0, K::BarrierArrive);
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.record(0, K::BarrierRelease);
        sink.record(
            0,
            K::ChunkStart {
                queue: 0,
                lo: 0,
                hi: 1,
            },
        );
        sink.record(0, K::ChunkEnd);
        let r = TraceReport::from_sink(&sink);
        assert!(
            r.workers[0].barrier_ns >= 2e6,
            "arrive→release span too small: {}",
            r.workers[0].barrier_ns
        );
        assert!(r.workers[1].barrier_ns > 0.0, "trailing arrive not counted");
        for b in &r.workers {
            let sum = b.busy_ns + b.sync_ns + b.wait_ns + b.barrier_ns + b.idle_ns;
            let span = r.span_ns as f64;
            assert!((sum - span).abs() / span.max(1.0) < 1e-6, "{sum} vs {span}");
        }
        assert!(r.render().contains("barrier%"));
    }

    #[test]
    fn unmatched_release_and_park_are_ignored() {
        let sink = TraceSink::new(1);
        // A pool's first release precedes any arrive; a park with no
        // arrive before it opens no span. Neither may produce barrier time.
        sink.record(0, K::BarrierRelease);
        sink.record(0, K::BarrierPark);
        sink.record(0, K::GrabBegin);
        sink.record(0, K::GrabCentral { lo: 0, hi: 1 });
        let r = TraceReport::from_sink(&sink);
        assert_eq!(r.workers[0].barrier_ns, 0.0);
    }
}
