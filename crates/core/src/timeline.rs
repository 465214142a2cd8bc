//! Per-processor execution timelines and an ASCII Gantt renderer.
//!
//! A [`Timeline`] records what each processor was doing when: executing
//! iterations, holding a queue lock, or waiting for one. Gaps are idle time
//! (barrier waits, start delays). The simulator fills one when asked
//! (`afs_sim::SimConfig::with_timeline`), and a real run's trace assembles
//! into the same structure (`afs_metrics::trace::to_timeline`), so the two
//! render and compare alike. The renderer turns either into a terminal
//! Gantt chart — the quickest way to *see* why a schedule is slow
//! (serialized queue bars, one long row after the barrier, ...).

/// What a processor is doing during a segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentKind {
    /// Executing iterations (compute + memory stalls).
    Busy,
    /// Holding a work-queue lock.
    Sync,
    /// Waiting for a work-queue lock.
    Wait,
}

/// A half-open time interval of one processor's activity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Activity during the segment.
    pub kind: SegmentKind,
    /// Segment start time.
    pub start: f64,
    /// Segment end time.
    pub end: f64,
}

/// Recorded timelines for all processors.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Per-processor segment lists, in time order.
    pub lanes: Vec<Vec<Segment>>,
}

impl Timeline {
    /// Creates an empty timeline for `p` processors.
    pub fn new(p: usize) -> Self {
        Self {
            lanes: vec![Vec::new(); p],
        }
    }

    /// Appends a segment, merging with the previous one when contiguous and
    /// of the same kind.
    pub fn push(&mut self, proc: usize, kind: SegmentKind, start: f64, end: f64) {
        if end <= start {
            return;
        }
        let lane = &mut self.lanes[proc];
        if let Some(last) = lane.last_mut() {
            if last.kind == kind && (start - last.end).abs() < 1e-9 {
                last.end = end;
                return;
            }
        }
        lane.push(Segment { kind, start, end });
    }

    /// Total time of a given kind on one lane.
    pub fn lane_total(&self, proc: usize, kind: SegmentKind) -> f64 {
        // `+ 0.0` normalizes the empty sum: float `sum()` uses -0.0 as its
        // identity, which would otherwise print as "-0.0".
        self.lanes[proc]
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.end - s.start)
            .sum::<f64>()
            + 0.0
    }

    /// Latest segment end across all lanes.
    pub fn span(&self) -> f64 {
        self.lanes
            .iter()
            .filter_map(|l| l.last())
            .map(|s| s.end)
            .fold(0.0, f64::max)
    }

    /// Renders an ASCII Gantt chart `width` characters wide.
    ///
    /// `█` busy, `S` queue lock held, `░` waiting for a lock, `·` idle.
    pub fn render_gantt(&self, width: usize) -> String {
        use std::fmt::Write;
        let span = self.span();
        let mut out = String::new();
        if span <= 0.0 || width == 0 {
            return out;
        }
        let bucket = span / width as f64;
        for (proc, lane) in self.lanes.iter().enumerate() {
            let mut row = vec!['·'; width];
            for seg in lane {
                let b0 = (seg.start / bucket) as usize;
                let b1 = ((seg.end / bucket).ceil() as usize).min(width);
                let ch = match seg.kind {
                    SegmentKind::Busy => '█',
                    SegmentKind::Sync => 'S',
                    SegmentKind::Wait => '░',
                };
                for slot in row.iter_mut().take(b1).skip(b0.min(width)) {
                    // Busy wins ties within a bucket; waits win over idle.
                    let keep = matches!((ch, *slot), ('░', '█') | ('S', '█') | ('░', 'S'));
                    if !keep {
                        *slot = ch;
                    }
                }
            }
            let _ = writeln!(out, "P{proc:<3}│{}│", row.iter().collect::<String>());
        }
        let _ = writeln!(out, "     0{:>width$.6}", span, width = width - 1);
        let _ = writeln!(out, "     █ busy  S lock held  ░ lock wait  · idle");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_same_kind_merges() {
        let mut t = Timeline::new(1);
        t.push(0, SegmentKind::Busy, 0.0, 5.0);
        t.push(0, SegmentKind::Busy, 5.0, 9.0);
        assert_eq!(t.lanes[0].len(), 1);
        assert_eq!(t.lanes[0][0].end, 9.0);
    }

    #[test]
    fn different_kinds_do_not_merge() {
        let mut t = Timeline::new(1);
        t.push(0, SegmentKind::Busy, 0.0, 5.0);
        t.push(0, SegmentKind::Sync, 5.0, 6.0);
        t.push(0, SegmentKind::Busy, 6.0, 7.0);
        assert_eq!(t.lanes[0].len(), 3);
    }

    #[test]
    fn empty_segments_ignored() {
        let mut t = Timeline::new(1);
        t.push(0, SegmentKind::Wait, 3.0, 3.0);
        assert!(t.lanes[0].is_empty());
    }

    #[test]
    fn totals_and_span() {
        let mut t = Timeline::new(2);
        t.push(0, SegmentKind::Busy, 0.0, 10.0);
        t.push(1, SegmentKind::Wait, 2.0, 4.0);
        t.push(1, SegmentKind::Busy, 4.0, 12.0);
        assert_eq!(t.lane_total(0, SegmentKind::Busy), 10.0);
        assert_eq!(t.lane_total(1, SegmentKind::Wait), 2.0);
        assert_eq!(t.span(), 12.0);
    }

    #[test]
    fn gantt_renders_rows_and_legend() {
        let mut t = Timeline::new(2);
        t.push(0, SegmentKind::Busy, 0.0, 10.0);
        t.push(1, SegmentKind::Wait, 0.0, 5.0);
        t.push(1, SegmentKind::Busy, 5.0, 10.0);
        let s = t.render_gantt(20);
        assert!(s.contains("P0"));
        assert!(s.contains("P1"));
        assert!(s.contains('█'));
        assert!(s.contains('░'));
        assert!(s.contains("idle"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn gantt_empty_timeline_is_empty() {
        let t = Timeline::new(2);
        assert!(t.render_gantt(40).is_empty());
    }
}
