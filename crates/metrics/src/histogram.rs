//! Log₂ latency histograms: a concurrent one, and its plain-value copy.
//!
//! [`AtomicHistogram`] is recordable from any thread: buckets are relaxed
//! atomic adds ([`AtomicHistogram::record`]). A histogram with one writer
//! — a worker's shard of the registry's phase histogram, written only by
//! the thread driving that worker — records with plain loads and stores
//! instead ([`AtomicHistogram::record_owned`]), the single-writer
//! discipline of [`crate::counters::WorkerCounters`]: no locked
//! read-modify-write, which would stall the barrier turn until every store
//! before it had left the core.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets: bucket `i` holds durations in `[2^i, 2^(i+1))`
/// ns, with bucket 0 also catching sub-nanosecond readings and the last
/// bucket catching everything ≥ 2^(BUCKETS−1) ns (~34 s).
pub const BUCKETS: usize = 36;

/// A thread-safe log₂-bucket histogram of durations in nanoseconds.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; BUCKETS],
    samples: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self {
            counts: [const { AtomicU64::new(0) }; BUCKETS],
            samples: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a duration of `ns` nanoseconds.
#[inline]
pub(crate) fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (63 - ns.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

impl AtomicHistogram {
    /// Fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one duration sample of `ns` nanoseconds.
    pub fn record(&self, ns: u64) {
        self.counts[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// [`AtomicHistogram::record`] for a histogram whose only writer is
    /// the calling thread: a plain load + store per word, exact because
    /// no other thread can interleave an update (readers may see a
    /// sample half-added, as with the worker counters).
    pub fn record_owned(&self, ns: u64) {
        let bump =
            |c: &AtomicU64, v: u64| c.store(c.load(Ordering::Relaxed) + v, Ordering::Relaxed);
        bump(&self.counts[bucket_of(ns)], 1);
        bump(&self.samples, 1);
        bump(&self.total_ns, ns);
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.store(ns, Ordering::Relaxed);
        }
    }

    /// Adds one [`std::time::Duration`] sample.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Plain-value copy of the current state.
    pub fn get(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (dst, src) in counts.iter_mut().zip(&self.counts) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            samples: self.samples.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of an [`AtomicHistogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `counts[i]` = samples with duration in `[2^i, 2^(i+1))` ns.
    pub counts: [u64; BUCKETS],
    /// Total number of samples.
    pub samples: u64,
    /// Sum of all sample durations (ns).
    pub total_ns: u64,
    /// Largest sample (ns).
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            samples: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Adds one duration sample of `ns` nanoseconds (single-threaded
    /// recording, e.g. a post-run trace analysis).
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.samples += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Mean sample duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.samples as f64
        }
    }

    /// Adds `other` into `self` bucket by bucket.
    pub fn add(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.samples += other.samples;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Estimated `q`-quantile in nanoseconds (`q` clamped to `[0, 1]`),
    /// 0 when the histogram is empty.
    ///
    /// The estimator walks the cumulative counts to the target rank
    /// `q × samples`, then interpolates linearly *within* the log₂ bucket
    /// `[2^i, 2^(i+1))` that contains it. The bucket holding the recorded
    /// maximum is clamped to `max_ns`, so the estimate never exceeds an
    /// observed value. Error is bounded by the bucket width: the estimate
    /// is always within a factor of 2 of the exact quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.samples as f64;
        let max_bucket = bucket_of(self.max_ns);
        let mut cum = 0.0f64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let after = cum + count as f64;
            if after >= target {
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let mut hi = if i < 63 {
                    (1u64 << (i + 1)) as f64
                } else {
                    u64::MAX as f64
                };
                if i >= max_bucket {
                    // No sample in this bucket exceeds the recorded max.
                    hi = hi.min(self.max_ns as f64);
                }
                if hi <= lo {
                    return lo;
                }
                let frac = ((target - cum) / count as f64).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
            cum = after;
        }
        self.max_ns as f64
    }

    /// `self − other` bucket by bucket (saturating). `max_ns` keeps the
    /// current maximum: a running max cannot be subtracted.
    pub fn minus(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (i, dst) in counts.iter_mut().enumerate() {
            *dst = self.counts[i].saturating_sub(other.counts[i]);
        }
        HistogramSnapshot {
            counts,
            samples: self.samples.saturating_sub(other.samples),
            total_ns: self.total_ns.saturating_sub(other.total_ns),
            max_ns: self.max_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        // The concurrent histogram and a plain snapshot recorded directly
        // bucket alike.
        let h = AtomicHistogram::new();
        let mut plain = HistogramSnapshot::default();
        for ns in [0, 1, 2, 3, 1024] {
            h.record(ns);
            plain.record(ns);
        }
        let s = h.get();
        assert_eq!(plain, s);
        assert_eq!(s.counts[0], 2); // 0 and 1
        assert_eq!(s.counts[1], 2); // 2 and 3
        assert_eq!(s.counts[10], 1); // 1024
        assert_eq!(s.samples, 5);
        assert_eq!(s.max_ns, 1024);
        assert!((s.mean_ns() - 1030.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn owned_recording_matches_the_shared_one() {
        let (owned, shared) = (AtomicHistogram::new(), AtomicHistogram::new());
        for ns in [0, 1, 7, 1 << 20, 3, 1 << 40, 5] {
            owned.record_owned(ns);
            shared.record(ns);
        }
        assert_eq!(owned.get(), shared.get());
    }

    #[test]
    fn huge_samples_clamp_to_last_bucket() {
        let h = AtomicHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.get().counts[BUCKETS - 1], 1);
        let mut plain = HistogramSnapshot::default();
        plain.record(u64::MAX);
        assert_eq!(plain.counts[BUCKETS - 1], 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = AtomicHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.get().samples, 4000);
    }

    /// splitmix64: the repo's standard deterministic generator.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Exact `q`-quantile of a sample set by sorting (nearest-rank with the
    /// same `q × n` target the estimator uses).
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let target = (q * sorted.len() as f64).ceil() as usize;
        sorted[target.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0.0);
        // The empty histogram is total: any q, even out of range, is 0.
        assert_eq!(HistogramSnapshot::default().quantile(-1.0), 0.0);
        assert_eq!(HistogramSnapshot::default().quantile(2.0), 0.0);
        assert_eq!(HistogramSnapshot::default().quantile(f64::NAN), 0.0);
    }

    #[test]
    fn quantile_clamps_q_to_unit_interval() {
        let h = AtomicHistogram::new();
        for ns in [10, 100, 1000, 10_000] {
            h.record(ns);
        }
        let s = h.get();
        assert_eq!(s.quantile(-0.5), s.quantile(0.0), "q below 0 clamps to 0");
        assert_eq!(s.quantile(1.5), s.quantile(1.0), "q above 1 clamps to 1");
        assert!(s.quantile(0.0) <= s.quantile(1.0));
        assert_eq!(s.quantile(1.0), s.max_ns as f64);
    }

    #[test]
    fn quantile_with_all_mass_in_one_bucket_stays_inside_it() {
        // Every sample lands in [256, 512); the estimate must never leave
        // the bucket, for any q, and must clamp to the observed max.
        let h = AtomicHistogram::new();
        for i in 0..50u64 {
            h.record(300 + i);
        }
        let s = h.get();
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let est = s.quantile(q);
            assert!(
                (256.0..=349.0).contains(&est),
                "q={q}: est {est} escaped the [256, 349] envelope"
            );
        }
        assert_eq!(s.quantile(1.0), 349.0);
    }

    #[test]
    fn merge_then_quantile_agrees_with_quantile_of_merged() {
        // Recording A then B into one histogram and add()-ing two
        // histograms of A and B must be indistinguishable to quantile().
        let mut state = 7u64;
        let (ha, hb, hboth) = (
            AtomicHistogram::new(),
            AtomicHistogram::new(),
            AtomicHistogram::new(),
        );
        for i in 0..5_000 {
            let ns = 1 + splitmix64(&mut state) % 2_000_000;
            if i % 2 == 0 {
                ha.record(ns);
            } else {
                hb.record(ns);
            }
            hboth.record(ns);
        }
        let mut merged = ha.get();
        merged.add(&hb.get());
        let direct = hboth.get();
        assert_eq!(merged.samples, direct.samples);
        assert_eq!(merged.max_ns, direct.max_ns);
        for q in [0.0, 0.05, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                merged.quantile(q),
                direct.quantile(q),
                "q={q}: merge-then-quantile vs quantile-of-merged"
            );
        }
    }

    #[test]
    fn quantile_of_constant_samples_lands_in_bucket() {
        let h = AtomicHistogram::new();
        for _ in 0..100 {
            h.record(700);
        }
        let s = h.get();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = s.quantile(q);
            // Bucket [512, 1024) clamped by max_ns = 700.
            assert!((512.0..=700.0).contains(&est), "q={q} est={est}");
        }
        assert_eq!(s.quantile(1.0), 700.0);
    }

    #[test]
    fn quantile_is_exact_on_power_of_two_singletons() {
        let h = AtomicHistogram::new();
        h.record(1 << 20);
        let s = h.get();
        // Single sample exactly on a bucket edge: lo == max_ns == hi.
        assert_eq!(s.quantile(0.5), (1u64 << 20) as f64);
    }

    #[test]
    fn quantile_tracks_exact_quantiles_of_seeded_samples() {
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let mut state = seed;
            let h = AtomicHistogram::new();
            let mut samples: Vec<u64> = (0..10_000)
                .map(|_| 1 + splitmix64(&mut state) % 1_000_000)
                .collect();
            for &ns in &samples {
                h.record(ns);
            }
            samples.sort_unstable();
            let snap = h.get();
            for q in [0.05, 0.25, 0.5, 0.9, 0.99, 0.999] {
                let exact = exact_quantile(&samples, q) as f64;
                let est = snap.quantile(q);
                // Log-linear interpolation is within one log2 bucket: a
                // factor of 2 of the exact value.
                assert!(
                    est >= exact / 2.0 && est <= exact * 2.0,
                    "seed={seed} q={q}: est {est} vs exact {exact}"
                );
            }
            // The estimate never exceeds the observed maximum and is
            // monotone in q.
            assert!(snap.quantile(1.0) <= snap.max_ns as f64 + 1e-9);
            let mut prev = 0.0;
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                let est = snap.quantile(q);
                assert!(est >= prev, "quantile must be monotone in q");
                prev = est;
            }
        }
    }

    #[test]
    fn add_and_minus_roundtrip() {
        let h = AtomicHistogram::new();
        h.record(5);
        let before = h.get();
        h.record(100);
        h.record(7);
        let after = h.get();
        let delta = after.minus(&before);
        assert_eq!(delta.samples, 2);
        assert_eq!(delta.total_ns, 107);
        let mut sum = before;
        sum.add(&delta);
        assert_eq!(sum.samples, after.samples);
        assert_eq!(sum.total_ns, after.total_ns);
        assert_eq!(sum.counts, after.counts);
    }
}
