//! The fixed frame every workload runs in: one seeded stream, a time plan
//! derived from the run length alone, repeated timed set-up, and the pool
//! counter deltas that explain a wall-clock number.

use crate::report::Outcome;
use crate::rng::SplitMix64;
use crate::spans::SpanLog;
use crate::stats::median;
use affinity_sched::metrics::MetricsSnapshot;
use std::time::{Duration, Instant};

/// Pool workers, everywhere. P=2 is the smallest P at which stealing
/// exists; it stays 2 on bigger hosts so numbers remain comparable.
pub const P: usize = 2;

/// Length of the equal slices a timed window is cut into for rate metrics:
/// fine enough to resolve the sub-second slow periods the host's scheduler
/// imposes on `serve-saturate`.
const SLICE: Duration = Duration::from_millis(100);

/// How many slices `window` is cut into: [`SLICE`]-long ones, but never
/// fewer than 10 however short the window.
pub fn slices(window: Duration) -> usize {
    ((window.as_nanos() / SLICE.as_nanos()) as usize).max(10)
}

/// Spans one traced window may hold.
const SPAN_CAPACITY: usize = 400_000;

/// How one invocation spends its run length (`run_seconds` of
/// `BENCHMARK.json`, which the driver passes as `--seconds`).
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The untraced window every end-to-end metric comes from.
    pub untraced: Duration,
    /// The same loop again with spans on (traced runs only).
    pub traced: Duration,
    /// The per-layer suite's budget (traced runs only).
    pub layers: Duration,
    /// Timed set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Plan {
    /// An untraced run measures for all of `seconds`; a traced run gives
    /// the untraced and the traced window 30 % each and the layer suite the
    /// rest, so both kinds of run take the same wall time.
    pub fn new(seconds: f64, traced: bool, smoke: bool) -> Plan {
        let share = |f: f64| Duration::from_secs_f64(seconds * f);
        let (untraced, traced_window, layers) = if traced {
            (share(0.3), share(0.3), share(0.4))
        } else {
            (share(1.0), Duration::ZERO, Duration::ZERO)
        };
        Plan {
            untraced,
            traced: traced_window,
            layers,
            setup_reps: if smoke { 2 } else { 9 },
        }
    }

    /// Whether this is a traced run's plan.
    pub fn is_traced(&self) -> bool {
        !self.traced.is_zero()
    }
}

/// One invocation's state, handed to the workload.
pub struct Ctx {
    /// `--seed`: a layer probe regenerates its workload's inputs from it.
    pub seed: u64,
    /// The one input stream, seeded by `--seed`.
    pub rng: SplitMix64,
    /// The time plan.
    pub plan: Plan,
    /// Span recorder: off outside the traced window.
    pub spans: SpanLog,
    /// Metrics, ledger and gate verdicts so far.
    pub out: Outcome,
}

impl Ctx {
    /// State for one run: a traced one if `plan` has a traced window.
    pub fn new(seed: u64, plan: Plan) -> Ctx {
        let mut spans = if plan.is_traced() {
            SpanLog::with_capacity(SPAN_CAPACITY)
        } else {
            SpanLog::off()
        };
        spans.set_enabled(false);
        Ctx {
            seed,
            rng: SplitMix64::new(seed),
            plan,
            spans,
            out: Outcome::default(),
        }
    }

    /// Runs `build` `setup_reps` times, timing each, records the median as
    /// `setup_s`, and returns the last product. Earlier products are torn
    /// down outside the timed region. `build` gets a fresh copy of the
    /// stream each time, so every repetition generates the same inputs.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut SplitMix64) -> T) -> T {
        let mut samples = Vec::with_capacity(self.plan.setup_reps);
        let mut product = None;
        for _ in 0..self.plan.setup_reps.max(1) {
            drop(product.take());
            let mut rng = self.rng.clone();
            let t = Instant::now();
            product = Some(build(&mut rng));
            samples.push(t.elapsed().as_secs_f64());
        }
        self.out.put("setup_s", median(&samples), "s");
        product.expect("setup_reps >= 1")
    }

    /// The window lengths to drive: the untraced one, then (traced runs)
    /// the one with spans on.
    pub fn windows(&self) -> Vec<(Duration, bool)> {
        let mut w = vec![(self.plan.untraced, false)];
        if self.plan.is_traced() {
            w.push((self.plan.traced, true));
        }
        w
    }
}

/// A sample buffer whose pages are touched before the timed region, so
/// peak RSS does not depend on how many samples a run happens to collect.
pub fn touched_buffer<T: Clone>(capacity: usize, filler: T) -> Vec<T> {
    // `resize` writes every element; `vec![0; n]` would map untouched zero
    // pages instead.
    let mut v = Vec::with_capacity(capacity);
    v.resize(capacity, filler);
    v.clear();
    v
}

/// The `metrics.*` layer metrics from `delta`, the pool counters a window
/// accumulated, per operation: they say *why* a wall metric moved (parks →
/// wake latency, remote grabs → steal traffic).
pub fn put_pool_counters(out: &mut Outcome, delta: &MetricsSnapshot, ops: u64) {
    let t = delta.totals();
    let per_op = |count: u64| count as f64 / ops.max(1) as f64;
    out.put("metrics.local_grabs", per_op(t.local_grabs), "1/op");
    out.put("metrics.remote_grabs", per_op(t.remote_grabs), "1/op");
    out.put("metrics.cas_retries", per_op(t.cas_retries), "1/op");
    out.put("metrics.barrier_spin", per_op(t.barrier_spin), "1/op");
    out.put("metrics.barrier_yield", per_op(t.barrier_yield), "1/op");
    out.put("metrics.barrier_park", per_op(t.barrier_park), "1/op");
    out.put(
        "metrics.affinity_hit_ratio",
        delta.affinity_hit_ratio().unwrap_or(0.0),
        "ratio",
    );
}

/// `harness.trace_overhead`: the workload's time per operation in the
/// window with spans on ÷ in the untraced window (`time_per_op` holds them
/// in that order; an untraced run has only the first and emits nothing).
pub fn put_trace_overhead(out: &mut Outcome, time_per_op: &[f64]) {
    if let [untraced, traced] = time_per_op {
        out.put("harness.trace_overhead", traced / untraced, "ratio");
    }
}
