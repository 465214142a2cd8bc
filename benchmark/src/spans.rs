//! Spans the harness records around its own calls into the crates.
//!
//! Kept in a pre-allocated vector and written out when the run ends. A
//! disabled log makes `begin`/`end` a branch and nothing else, so the
//! untraced and the traced run share one driving loop.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its log (`NONE` for "no parent" and for spans a
/// disabled or full log did not record).
pub type SpanId = u32;

/// "No span".
pub const NONE: SpanId = u32::MAX;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Which call this interval surrounds.
    pub name: &'static str,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch (0 until ended).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Request / rep / cell identifier shared by the spans of one operation.
    pub op: u64,
}

/// An in-memory span recorder.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
    /// Spans not recorded because the log was full.
    pub dropped: u64,
}

impl SpanLog {
    /// A log that records nothing.
    pub fn off() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled: false,
            dropped: 0,
        }
    }

    /// A recording log holding at most `capacity` spans (allocated now, so
    /// recording never allocates inside a timed region).
    pub fn with_capacity(capacity: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            enabled: true,
            dropped: 0,
        }
    }

    /// Switches recording on or off; a log built by [`SpanLog::off`] has no
    /// room and stays silent either way.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on && self.spans.capacity() > 0;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            op,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes `span` now.
    #[inline]
    pub fn end(&mut self, span: SpanId) {
        if span != NONE {
            let now = self.now_ns();
            self.spans[span as usize].end_ns = now;
        }
    }

    /// The recorded spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 72);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"dropped\": {}, \"spans\": [",
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "\n{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
