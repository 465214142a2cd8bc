//! The paper's analytic results (Section 3) as executable formulas.
//!
//! The test suite checks the implemented schedulers against these bounds;
//! TSS's first chunk is [`thm33_balanced_chunk`], the fault bench gates on
//! [`thm32_imbalance_bound`], and the benchmark's simulator probe on
//! [`thm31_afs_queue_bound`].

use crate::chunking::{div_ceil, drain_count};

/// Lemma 3.1: worst-case number of accesses when each grab takes `1/k` of
/// the remaining iterations of a queue initially holding `n`. Returns the
/// big-O expression value `k · ln(n/k)` (natural log, 0 if `n ≤ k`).
pub fn lemma31_bound(n: u64, k: u64) -> f64 {
    if n == 0 || k == 0 {
        return 0.0;
    }
    let ratio = n as f64 / k as f64;
    if ratio <= 1.0 {
        // Fewer iterations than the divisor: at most k grabs of one each.
        return n as f64;
    }
    k as f64 * ratio.ln()
}

/// Theorem 3.1: worst-case synchronization operations on *one* AFS work
/// queue: `O(k·log(N/(P·k)) + P·log(N/P²))`. Returns the expression value.
pub fn thm31_afs_queue_bound(n: u64, p: usize, k: u64) -> f64 {
    let per_queue = n / p as u64;
    lemma31_bound(per_queue, k) + lemma31_bound(per_queue, p as u64)
}

/// Exact worst-case local accesses to one AFS queue (no stealing): draining
/// `⌈N/P⌉` iterations taking `1/k` at a time.
pub fn afs_local_accesses_exact(n: u64, p: usize, k: u64) -> u64 {
    drain_count(div_ceil(n, p as u64), k)
}

/// Exact GSS central-queue accesses: draining `n` taking `⌈R/P⌉` at a time.
pub fn gss_sync_exact(n: u64, p: usize) -> u64 {
    drain_count(n, p as u64)
}

/// Theorem 3.2: under AFS with parameter `k`, when processors start at
/// different times and all iterations take unit time, all processors finish
/// within `N(P−k) / (P(P−1)k) + 1` iterations of each other.
pub fn thm32_imbalance_bound(n: u64, p: usize, k: u64) -> f64 {
    assert!(p >= 1 && k >= 1);
    if p == 1 {
        return 1.0;
    }
    let (n, p, k) = (n as f64, p as f64, k as f64);
    n * (p - k) / (p * (p - 1.0) * k) + 1.0
}

/// Theorem 3.3: for a loop whose iteration `i` costs `∝ (N−i)^k`, a chunk of
/// `1/((k+1)·P)` of the remaining iterations holds at most `1/P` of the
/// remaining *work*. Returns that chunk size for `remaining` iterations.
pub fn thm33_balanced_chunk(remaining: u64, p: usize, cost_exponent: u32) -> u64 {
    assert!(p > 0);
    if remaining == 0 {
        return 0;
    }
    div_ceil(remaining, (cost_exponent as u64 + 1) * p as u64).max(1)
}

/// Work of iteration `i` in a polynomially decreasing loop: `(n − i)^k`.
pub fn decreasing_poly_cost(n: u64, i: u64, k: u32) -> f64 {
    assert!(i < n);
    ((n - i) as f64).powi(k as i32)
}

/// Total work of the first `c` iterations of a decreasing polynomial loop
/// with `remaining` iterations (exact finite sum).
pub fn poly_prefix_work(remaining: u64, c: u64, k: u32) -> f64 {
    (0..c.min(remaining))
        .map(|x| decreasing_poly_cost(remaining, x, k))
        .sum()
}

/// Total work of a decreasing polynomial loop with `remaining` iterations.
pub fn poly_total_work(remaining: u64, k: u32) -> f64 {
    poly_prefix_work(remaining, remaining, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worst-case GSS synchronization operations on the central queue:
    /// `O(P · log(N/P))` (paper §3). Returns the expression value.
    fn gss_sync_bound(n: u64, p: usize) -> f64 {
        lemma31_bound(n, p as u64)
    }

    #[test]
    fn thm32_k_equals_p_gives_one_iteration() {
        // With k = P the bound collapses to 1: same guarantee as GSS.
        for &(n, p) in &[(1000u64, 8usize), (512, 4), (50_000, 16)] {
            let b = thm32_imbalance_bound(n, p, p as u64);
            assert!((b - 1.0).abs() < 1e-9, "n={n} p={p}: {b}");
        }
    }

    #[test]
    fn thm32_small_k_grows_with_n() {
        let b2 = thm32_imbalance_bound(10_000, 8, 2);
        let b4 = thm32_imbalance_bound(10_000, 8, 4);
        assert!(b2 > b4, "smaller k must allow more imbalance");
        // k=2, P=8: N(P−k)/(P(P−1)k) = 10000·6/112 ≈ 535.7.
        assert!((b2 - (10_000.0 * 6.0 / 112.0 + 1.0)).abs() < 1e-6);
    }

    #[test]
    fn thm33_chunk_fractions_match_paper_text() {
        // Uniform loops (k=0): 1/P of the iterations.
        assert_eq!(thm33_balanced_chunk(800, 8, 0), 100);
        // Triangular (k=1): 1/(2P).
        assert_eq!(thm33_balanced_chunk(800, 8, 1), 50);
        // Parabolic (k=2): 1/(3P).
        assert_eq!(thm33_balanced_chunk(960, 8, 2), 40);
    }

    #[test]
    fn thm33_chunk_work_is_at_most_fair_share() {
        // Verify the theorem numerically: the first 1/((k+1)P) of the
        // iterations carry at most ~1/P of the remaining work.
        for k in 0..=3u32 {
            for &p in &[2usize, 4, 8, 16] {
                let remaining = 9600u64;
                let chunk = remaining / ((k as u64 + 1) * p as u64);
                let work = poly_prefix_work(remaining, chunk, k);
                let total = poly_total_work(remaining, k);
                assert!(
                    work <= total / p as f64 * 1.02,
                    "k={k} p={p}: chunk work {work} > fair {}",
                    total / p as f64
                );
            }
        }
    }

    #[test]
    fn gss_first_chunk_of_triangular_loop_overloads() {
        // The paper's Fig. 6 explanation: under GSS the first chunk (1/P of
        // the iterations) of a triangular loop carries ~2/P of the work.
        let n = 10_000u64;
        let p = 10usize;
        let chunk = n / p as u64;
        let work = poly_prefix_work(n, chunk, 1);
        let total = poly_total_work(n, 1);
        let frac = work / total;
        assert!(
            frac > 1.8 / p as f64 && frac < 2.05 / p as f64,
            "first GSS chunk carries {frac} of the work"
        );
    }

    #[test]
    fn exact_counts_below_bounds() {
        let n = 1 << 16;
        for &p in &[2usize, 4, 8, 16] {
            let exact = gss_sync_exact(n, p) as f64;
            let bound = gss_sync_bound(n, p);
            assert!(
                exact <= 2.0 * bound + 2.0 * p as f64,
                "p={p}: {exact} vs {bound}"
            );
        }
    }

    #[test]
    fn afs_local_access_count_small_example() {
        // N = 512, P = 8, k = 8: queue of 64 drained by eighths.
        let grabs = afs_local_accesses_exact(512, 8, 8);
        // Observed in Table 3 of the paper: ~27 local ops per queue at P=8.
        assert!((20..=35).contains(&grabs), "got {grabs}");
    }

    #[test]
    fn thm31_bound_positive_and_monotone_in_n() {
        let a = thm31_afs_queue_bound(1 << 12, 8, 8);
        let b = thm31_afs_queue_bound(1 << 16, 8, 8);
        assert!(b > a && a > 0.0);
    }

    #[test]
    fn lemma31_degenerate_cases() {
        assert_eq!(lemma31_bound(0, 4), 0.0);
        assert_eq!(lemma31_bound(4, 0), 0.0);
        // n ≤ k: at most n unit grabs.
        assert_eq!(lemma31_bound(3, 8), 3.0);
    }
}
