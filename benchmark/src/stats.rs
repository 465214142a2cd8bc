//! Order statistics the harness reports: percentiles and medians over
//! samples, and the per-slice rates of a cumulative counter.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by nearest rank on the sorted
/// copy; `NaN` when empty. Nearest rank (not interpolation) so a reported
/// percentile is always a value that was actually measured.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: mean of the two middle values for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The distance between the first and the third quartile of `samples` as a
/// share of their median, quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's rule for a
/// metric's run-to-run spread); `None` below two samples.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(&sorted))
}

/// Per-slice rates (events per second) of a cumulative counter observed as
/// `(time_ns, count)` pairs in time order, over `slices` equal slices of
/// `[0, window_ns)`. The count at a slice boundary is the last observation
/// at or before it (a step function), so an observer that sleeps between
/// observations attributes late completions to the slice it woke in.
pub fn slice_rates(observations: &[(u64, u64)], window_ns: u64, slices: usize) -> Vec<f64> {
    assert!(slices >= 1 && window_ns >= slices as u64);
    let mut rates = Vec::with_capacity(slices);
    let mut cursor = 0usize;
    let mut at_prev_boundary = 0u64;
    let slice_ns = window_ns as f64 / slices as f64;
    for s in 1..=slices {
        let boundary = (slice_ns * s as f64) as u64;
        while cursor < observations.len() && observations[cursor].0 <= boundary {
            cursor += 1;
        }
        let at_boundary = if cursor == 0 {
            0
        } else {
            observations[cursor - 1].1
        };
        rates.push((at_boundary - at_prev_boundary) as f64 / (slice_ns / 1e9));
        at_prev_boundary = at_boundary;
    }
    rates
}
