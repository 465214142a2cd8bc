//! Pure chunk-size mathematics shared by every scheduler implementation.
//!
//! Both the deterministic state machines in [`crate::schedulers`] and the
//! concurrent implementations in `afs-runtime` call into these functions, so
//! a single set of unit/property tests covers the arithmetic used everywhere.
//!
//! All functions deal in *iterations remaining* and return a chunk size that
//! is at least 1 whenever any work remains, and never more than what remains.

/// Ceiling division for `u64`.
#[inline]
pub fn div_ceil(a: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

/// The STATIC partition of the paper's `loop_initialization` pseudocode
/// (Figure 1): processor `i` of `p` receives iterations
/// `⌈i·n/p⌉ .. min(n, ⌈(i+1)·n/p⌉)`.
///
/// The resulting ranges tile `[0, n)` exactly and differ in size by at most 1.
#[inline]
pub fn static_partition(n: u64, p: usize, i: usize) -> crate::range::IterRange {
    assert!(p > 0, "need at least one processor");
    assert!(i < p, "processor index {i} out of range for p = {p}");
    let p = p as u64;
    let i = i as u64;
    let start = div_ceil(i * n, p).min(n);
    let end = div_ceil((i + 1) * n, p).min(n);
    crate::range::IterRange::new(start, end)
}

/// Guided self-scheduling chunk: `⌈remaining / (divisor · p)⌉`.
///
/// `divisor = 1` is classic GSS (Polychronopoulos & Kuck). Larger divisors
/// are the "trivial change" of §4.3 of the paper (GSS/k), which starts with
/// smaller chunks to leave room for load balancing.
#[inline]
pub fn gss_chunk(remaining: u64, p: usize, divisor: u64) -> u64 {
    assert!(p > 0 && divisor > 0);
    if remaining == 0 {
        return 0;
    }
    div_ceil(remaining, divisor * p as u64)
        .max(1)
        .min(remaining)
}

/// Factoring phase chunk size: each phase allocates half of the remaining
/// iterations as `p` equal chunks, i.e. chunk `= ⌈⌈R/2⌉ / p⌉`
/// (Hummel, Schonberg & Flynn).
#[inline]
pub fn factoring_chunk(remaining: u64, p: usize) -> u64 {
    assert!(p > 0);
    if remaining == 0 {
        return 0;
    }
    div_ceil(div_ceil(remaining, 2), p as u64)
        .max(1)
        .min(remaining)
}

/// Parameters of a trapezoid self-scheduling (TSS) schedule
/// (Tzen & Ni, IEEE TPDS 4(1), 1993).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrapezoidParams {
    /// Size of the first chunk, `f = ⌈n / (2p)⌉`.
    pub first: u64,
    /// Size of the last chunk (1 in the conservative variant).
    pub last: u64,
    /// Total number of chunks, `c = ⌈2n / (f + l)⌉`.
    pub count: u64,
    /// Linear decrement between consecutive chunks, `(f − l) / (c − 1)`.
    pub delta: f64,
}

impl TrapezoidParams {
    /// Conservative TSS(n/(2p), 1) parameters used throughout the paper.
    pub fn conservative(n: u64, p: usize) -> Self {
        assert!(p > 0);
        if n == 0 {
            return Self {
                first: 0,
                last: 0,
                count: 0,
                delta: 0.0,
            };
        }
        // Thm 3.3's balanced chunk for a triangular loop (cost exponent 1).
        let first = crate::theory::thm33_balanced_chunk(n, p, 1);
        let last = 1u64;
        let count = div_ceil(2 * n, first + last).max(1);
        let delta = if count > 1 {
            (first - last) as f64 / (count - 1) as f64
        } else {
            0.0
        };
        Self {
            first,
            last,
            count,
            delta,
        }
    }

    /// Size of the `i`-th chunk (0-based): `f − ⌊i·δ⌋`, at least `last`.
    #[inline]
    pub fn chunk(&self, i: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let dec = (i as f64 * self.delta).floor() as u64;
        self.first.saturating_sub(dec).max(self.last)
    }
}

/// AFS local grab: `⌈queue_remaining / k⌉` iterations from the processor's
/// own work queue (Figure 1 of the paper; `k = P` in the default
/// configuration).
#[inline]
pub fn afs_local_chunk(queue_remaining: u64, k: u64) -> u64 {
    assert!(k > 0);
    if queue_remaining == 0 {
        return 0;
    }
    div_ceil(queue_remaining, k).max(1).min(queue_remaining)
}

/// AFS steal: `⌈queue_remaining / p⌉` iterations from the most loaded
/// processor's queue.
#[inline]
pub fn afs_steal_chunk(queue_remaining: u64, p: usize) -> u64 {
    assert!(p > 0);
    if queue_remaining == 0 {
        return 0;
    }
    div_ceil(queue_remaining, p as u64)
        .max(1)
        .min(queue_remaining)
}

/// Tapering chunk (simplified from Lucco '92).
///
/// Given the estimated mean `mu` and standard deviation `sigma` of iteration
/// execution times and a confidence factor `alpha`, choose the largest chunk
/// `c` such that its expected duration plus `alpha` standard deviations does
/// not exceed an even share of the remaining expected work:
///
/// `c·μ + α·σ·√c ≤ R·μ / p`
///
/// Solving the quadratic in `√c` gives the chunk below. With `sigma = 0`
/// this reduces exactly to the GSS chunk `⌈R/p⌉`.
#[inline]
pub fn tapering_chunk(remaining: u64, p: usize, mu: f64, sigma: f64, alpha: f64) -> u64 {
    assert!(p > 0);
    if remaining == 0 {
        return 0;
    }
    if mu <= 0.0 || sigma <= 0.0 {
        return gss_chunk(remaining, p, 1);
    }
    let r = remaining as f64;
    let fair = r * mu / p as f64;
    let a = mu;
    let b = alpha * sigma;
    // a·x² + b·x − fair = 0, x = √c ≥ 0.
    let x = (-b + (b * b + 4.0 * a * fair).sqrt()) / (2.0 * a);
    let c = (x * x).floor() as u64;
    c.max(1).min(remaining)
}

/// Packs a queue's `[head, tail)` offsets into one word (`head:32 | tail:32`).
///
/// A contiguous work queue is fully described by two cursors: local grabs
/// advance `head`, steals retreat `tail`, and the queue is empty when they
/// meet. Packing both into a single `u64` lets a concurrent implementation
/// claim a chunk with one compare-and-swap — any concurrent grab or steal
/// changes the word and fails the CAS, so no handed-out ranges can overlap.
#[inline]
pub const fn pack_queue(head: u32, tail: u32) -> u64 {
    ((head as u64) << 32) | tail as u64
}

/// Unpacks a queue word into `(head, tail)` offsets.
#[inline]
pub const fn unpack_queue(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// Iterations remaining in a packed queue word (`tail − head`).
#[inline]
pub const fn packed_queue_len(word: u64) -> u64 {
    let (head, tail) = unpack_queue(word);
    debug_assert!(head <= tail, "queue word with head past tail");
    (tail - head) as u64
}

/// The queue word after taking `take` iterations from the front (a local
/// grab). `take` must not exceed [`packed_queue_len`].
#[inline]
pub const fn packed_take_front(word: u64, take: u64) -> u64 {
    let (head, tail) = unpack_queue(word);
    debug_assert!(take <= (tail - head) as u64);
    pack_queue(head + take as u32, tail)
}

/// The queue word after taking `take` iterations from the back (a steal).
/// `take` must not exceed [`packed_queue_len`].
#[inline]
pub const fn packed_take_back(word: u64, take: u64) -> u64 {
    let (head, tail) = unpack_queue(word);
    debug_assert!(take <= (tail - head) as u64);
    pack_queue(head, tail - take as u32)
}

/// Drains `n` iterations taking `⌈r/k⌉` at a time; returns the number of
/// grabs required. This is the exact quantity bounded by Lemma 3.1 of the
/// paper (`O(k · log(n/k))`).
pub fn drain_count(n: u64, k: u64) -> u64 {
    assert!(k > 0);
    let mut r = n;
    let mut count = 0;
    while r > 0 {
        r -= div_ceil(r, k).min(r);
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_partition_tiles_exactly() {
        for &(n, p) in &[(0u64, 1usize), (1, 4), (10, 3), (512, 8), (7, 7), (5, 8)] {
            let mut covered = 0;
            for i in 0..p {
                let r = static_partition(n, p, i);
                assert_eq!(r.start, covered, "gap at processor {i} for n={n} p={p}");
                covered = r.end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn static_partition_is_balanced() {
        let n = 512;
        let p = 7;
        let sizes: Vec<u64> = (0..p).map(|i| static_partition(n, p, i).len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?} differ by more than 1");
    }

    #[test]
    fn gss_classic_sequence() {
        // N = 100, P = 4: chunks 25, 19, 15, 11, 8, 6, 5, 3, 3, 2, 1, 1, 1.
        let mut r = 100u64;
        let mut seq = Vec::new();
        while r > 0 {
            let c = gss_chunk(r, 4, 1);
            seq.push(c);
            r -= c;
        }
        assert_eq!(seq[0], 25);
        assert_eq!(seq.iter().sum::<u64>(), 100);
        // Non-increasing.
        assert!(seq.windows(2).all(|w| w[0] >= w[1]));
        // Last chunks are single iterations.
        assert_eq!(*seq.last().unwrap(), 1);
    }

    #[test]
    fn gss_divisor_shrinks_first_chunk() {
        assert_eq!(gss_chunk(100, 4, 1), 25);
        assert_eq!(gss_chunk(100, 4, 2), 13);
        assert_eq!(gss_chunk(100, 4, 4), 7);
    }

    #[test]
    fn gss_never_exceeds_remaining() {
        assert_eq!(gss_chunk(1, 8, 1), 1);
        assert_eq!(gss_chunk(0, 8, 1), 0);
    }

    #[test]
    fn factoring_halves_per_phase() {
        // R = 100, P = 4: phase chunk = ceil(50/4) = 13.
        assert_eq!(factoring_chunk(100, 4), 13);
        // After one full phase (4 × 13 = 52), R = 48: chunk = ceil(24/4) = 6.
        assert_eq!(factoring_chunk(48, 4), 6);
    }

    #[test]
    fn factoring_terminates_at_one() {
        assert_eq!(factoring_chunk(1, 8), 1);
        assert_eq!(factoring_chunk(0, 8), 0);
    }

    #[test]
    fn trapezoid_first_chunk_is_half_gss() {
        let t = TrapezoidParams::conservative(512, 8);
        assert_eq!(t.first, 32); // 512 / 16
        assert_eq!(t.last, 1);
        // c = ceil(1024 / 33) = 32 chunks.
        assert_eq!(t.count, 32);
    }

    #[test]
    fn trapezoid_chunks_cover_n() {
        for &(n, p) in &[(512u64, 8usize), (100, 4), (5000, 56), (10, 3), (1, 1)] {
            let t = TrapezoidParams::conservative(n, p);
            let mut total = 0u64;
            let mut i = 0;
            while total < n {
                let c = t.chunk(i).min(n - total);
                assert!(c >= 1, "stalled at chunk {i} for n={n} p={p}");
                total += c;
                i += 1;
            }
            assert_eq!(total, n);
        }
    }

    #[test]
    fn trapezoid_monotone_nonincreasing() {
        let t = TrapezoidParams::conservative(5000, 16);
        let sizes: Vec<u64> = (0..t.count).map(|i| t.chunk(i)).collect();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "{sizes:?}");
    }

    #[test]
    fn afs_chunks_match_paper() {
        // Local queue of N/P = 64 with k = P = 8: take ceil(64/8) = 8.
        assert_eq!(afs_local_chunk(64, 8), 8);
        // Steal from a queue of 30 with P = 8: ceil(30/8) = 4.
        assert_eq!(afs_steal_chunk(30, 8), 4);
        assert_eq!(afs_local_chunk(0, 8), 0);
        assert_eq!(afs_steal_chunk(0, 8), 0);
        assert_eq!(afs_local_chunk(3, 8), 1);
    }

    #[test]
    fn tapering_reduces_to_gss_when_uniform() {
        let c = tapering_chunk(100, 4, 10.0, 0.0, 1.3);
        assert_eq!(c, gss_chunk(100, 4, 1));
    }

    #[test]
    fn tapering_shrinks_with_variance() {
        let uniform = tapering_chunk(1000, 4, 10.0, 0.0, 1.3);
        let noisy = tapering_chunk(1000, 4, 10.0, 30.0, 1.3);
        assert!(
            noisy < uniform,
            "noisy {noisy} should be < uniform {uniform}"
        );
        assert!(noisy >= 1);
    }

    #[test]
    fn drain_count_matches_lemma_31_shape() {
        // Lemma 3.1: O(k log(n/k)) accesses.
        let n = 1 << 20;
        for k in [2u64, 4, 8, 16] {
            let exact = drain_count(n, k);
            let bound = (k as f64) * ((n as f64) / k as f64).ln();
            // The exact count is within a small constant of the bound.
            assert!(
                (exact as f64) < 2.0 * bound + 2.0 * k as f64,
                "k={k}: exact {exact} vs bound {bound}"
            );
        }
    }

    #[test]
    fn drain_count_small_cases() {
        assert_eq!(drain_count(0, 4), 0);
        assert_eq!(drain_count(1, 4), 1);
        // k = 1 drains in a single grab.
        assert_eq!(drain_count(1000, 1), 1);
    }

    #[test]
    fn packed_queue_round_trips() {
        for &(h, t) in &[(0u32, 0u32), (0, 1), (3, 100), (u32::MAX - 1, u32::MAX)] {
            let w = pack_queue(h, t);
            assert_eq!(unpack_queue(w), (h, t));
            assert_eq!(packed_queue_len(w), (t - h) as u64);
        }
    }

    #[test]
    fn packed_splits_mirror_iter_range_splits() {
        // The packed cursor math must agree with IterRange::split_front/back
        // for every (front, back) interleaving — this is what makes the
        // lock-free AFS queue hand out the same chunks as the mutex one.
        let mut r = crate::range::IterRange::new(0, 64);
        let mut w = pack_queue(0, 64);
        for (front, n) in [(true, 8u64), (false, 4), (true, 7), (false, 13), (true, 32)] {
            let n = n.min(packed_queue_len(w));
            if front {
                let taken = r.split_front(n);
                w = packed_take_front(w, n);
                let (h, _) = unpack_queue(w);
                assert_eq!(taken.end, h as u64);
            } else {
                let taken = r.split_back(n);
                w = packed_take_back(w, n);
                let (_, t) = unpack_queue(w);
                assert_eq!(taken.start, t as u64);
            }
            assert_eq!(packed_queue_len(w), r.len());
            let (h, t) = unpack_queue(w);
            assert_eq!((h as u64, t as u64), (r.start, r.end));
        }
    }

    #[test]
    fn packed_drain_to_empty() {
        let mut w = pack_queue(5, 9);
        w = packed_take_front(w, 2);
        w = packed_take_back(w, 2);
        assert_eq!(packed_queue_len(w), 0);
        let (h, t) = unpack_queue(w);
        assert_eq!(h, t);
    }

    #[test]
    fn div_ceil_basics() {
        assert_eq!(div_ceil(0, 3), 0);
        assert_eq!(div_ceil(1, 3), 1);
        assert_eq!(div_ceil(3, 3), 1);
        assert_eq!(div_ceil(4, 3), 2);
    }
}
