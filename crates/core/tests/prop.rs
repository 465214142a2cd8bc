//! Property-style tests for the scheduler state machines.
//!
//! The central invariant for every scheduler: driven by *any* interleaving of
//! worker requests, it hands out every iteration of `[0, n)` exactly once and
//! then reports exhaustion to every worker.
//!
//! Inputs are sampled from a seeded [`Xoshiro256`], so every run exercises
//! the same deterministic case set — no external property-test framework.

use afs_core::chunking::{self, TrapezoidParams};
use afs_core::policy::{AccessKind, LoopState, Scheduler};
use afs_core::prelude::*;
use afs_core::rng::Xoshiro256;
use afs_core::theory;

/// All schedulers that need no per-input configuration.
fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(StaticSched::new()),
        Box::new(SelfSched::new()),
        Box::new(ChunkSelf::new(4)),
        Box::new(Gss::new()),
        Box::new(Gss::with_divisor(2)),
        Box::new(AdaptiveGss::new()),
        Box::new(Factoring::new()),
        Box::new(Tapering::new(10.0, 5.0)),
        Box::new(Trapezoid::new()),
        Box::new(ModFactoring::new()),
        Box::new(Affinity::with_k_equals_p()),
        Box::new(Affinity::with_k(2)),
        Box::new(AffinityLastExec::with_k_equals_p()),
    ]
}

/// Drives `state` with a pseudo-random interleaving derived from `order_seed`
/// and returns per-iteration execution counts.
fn drive(state: &mut dyn LoopState, n: u64, p: usize, order_seed: u64) -> Vec<u32> {
    let mut counts = vec![0u32; n as usize];
    let mut rng = Xoshiro256::seed_from_u64(order_seed);
    let mut live: Vec<usize> = (0..p).collect();
    let mut fuel = 20 * n + 1000;
    while !live.is_empty() {
        assert!(fuel > 0, "scheduler did not terminate");
        fuel -= 1;
        let pick = rng.next_below(live.len() as u64) as usize;
        let w = live[pick];
        match state.next(w) {
            Some(grab) => {
                for i in grab.range.iter() {
                    counts[i as usize] += 1;
                }
            }
            None => {
                live.swap_remove(pick);
            }
        }
    }
    counts
}

#[test]
fn every_scheduler_covers_exactly_once() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0FE_0001);
    for _ in 0..64 {
        let n = rng.next_below(2000);
        let p = 1 + rng.next_below(16) as usize;
        let seed = rng.next_u64();
        for sched in all_schedulers() {
            let mut state = sched.begin_loop(n, p);
            let counts = drive(&mut *state, n, p, seed);
            assert!(
                counts.iter().all(|&c| c == 1),
                "{}: n={n} p={p}: some iteration not executed exactly once",
                sched.name()
            );
        }
    }
}

#[test]
fn static_partition_tiles_any_n_p() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0FE_0002);
    for _ in 0..64 {
        let n = rng.next_below(100_000);
        let p = 1 + rng.next_below(63) as usize;
        let mut covered = 0u64;
        for i in 0..p {
            let r = chunking::static_partition(n, p, i);
            assert_eq!(r.start, covered);
            covered = r.end;
            // Balanced to within one iteration.
            assert!(r.len() <= n / p as u64 + 1);
        }
        assert_eq!(covered, n);
    }
}

#[test]
fn gss_chunks_never_increase() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0FE_0003);
    for _ in 0..64 {
        let n = 1 + rng.next_below(99_999);
        let p = 1 + rng.next_below(63) as usize;
        let mut remaining = n;
        let mut prev = u64::MAX;
        while remaining > 0 {
            let c = chunking::gss_chunk(remaining, p, 1);
            assert!(c >= 1 && c <= remaining);
            assert!(c <= prev);
            prev = c;
            remaining -= c;
        }
    }
}

#[test]
fn trapezoid_always_covers() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0FE_0004);
    for _ in 0..64 {
        let n = 1 + rng.next_below(99_999);
        let p = 1 + rng.next_below(63) as usize;
        let t = TrapezoidParams::conservative(n, p);
        let mut total = 0u64;
        let mut i = 0u64;
        while total < n {
            let c = t.chunk(i).min(n - total);
            assert!(c >= 1, "stalled at chunk {i} (n={n}, p={p})");
            total += c;
            i += 1;
        }
        assert_eq!(total, n);
    }
}

#[test]
fn afs_steals_only_under_imbalance() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0FE_0005);
    for _ in 0..64 {
        let n = 1 + rng.next_below(1999);
        let p = 2 + rng.next_below(10) as usize;
        // Lock-step round-robin draining is perfectly balanced (up to queue
        // size differences of 1): the number of remote grabs must be tiny
        // compared to the number of local grabs.
        let sched = Affinity::with_k_equals_p();
        let mut state = sched.begin_loop(n, p);
        let mut local = 0u64;
        let mut remote = 0u64;
        let mut live: Vec<usize> = (0..p).collect();
        while !live.is_empty() {
            let mut next = Vec::new();
            for &w in &live {
                if let Some(g) = state.next(w) {
                    match g.access {
                        AccessKind::Local => local += 1,
                        AccessKind::Remote => remote += 1,
                        _ => {}
                    }
                    next.push(w);
                }
            }
            live = next;
        }
        // Remote grabs only mop up the ±1 queue-length differences.
        assert!(
            remote <= p as u64,
            "n={n} p={p}: {remote} remote vs {local} local grabs"
        );
    }
}

#[test]
fn afs_local_access_count_within_lemma_bound() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0FE_0006);
    for _ in 0..64 {
        let n = 100 + rng.next_below(999_900);
        let p = 1 + rng.next_below(63) as usize;
        let k = p as u64;
        let exact = theory::afs_local_accesses_exact(n, p, k) as f64;
        let bound = theory::lemma31_bound(n / p as u64, k);
        // Exact count is O(k log(N/(Pk))): allow constant factor 3 plus an
        // additive k (the bound's hidden constants).
        assert!(
            exact <= 3.0 * bound + 3.0 * k as f64 + 3.0,
            "n={n} p={p}: exact {exact} vs bound {bound}"
        );
    }
}

#[test]
fn balanced_partition_never_worse_than_static() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0FE_0007);
    for _ in 0..64 {
        let len = 1 + rng.next_below(199) as usize;
        let costs: Vec<f64> = (0..len).map(|_| 100.0 * rng.next_f64()).collect();
        let p = 1 + rng.next_below(8) as usize;
        let parts = afs_core::partition::balanced_contiguous(&costs, p);
        let opt = afs_core::partition::bottleneck(&costs, &parts);
        // Compare against the naive even split.
        let naive: Vec<IterRange> = (0..p)
            .map(|i| chunking::static_partition(costs.len() as u64, p, i))
            .collect();
        let naive_b = afs_core::partition::bottleneck(&costs, &naive);
        assert!(
            opt <= naive_b * (1.0 + 1e-9) + 1e-9,
            "optimal {opt} worse than naive {naive_b}"
        );
    }
}

#[test]
fn tapering_chunk_bounds() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0FE_0008);
    for _ in 0..64 {
        let remaining = 1 + rng.next_below(99_999);
        let p = 1 + rng.next_below(63) as usize;
        let mu = 0.1 + 99.9 * rng.next_f64();
        let sigma = 100.0 * rng.next_f64();
        let c = chunking::tapering_chunk(remaining, p, mu, sigma, 1.3);
        assert!(c >= 1 && c <= remaining);
        // Never larger than the GSS chunk.
        assert!(c <= chunking::gss_chunk(remaining, p, 1).max(1));
    }
}

#[test]
fn thm33_chunk_holds_at_most_fair_work() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0FE_0009);
    for _ in 0..64 {
        let remaining = 10 + rng.next_below(4990);
        let p = 1 + rng.next_below(31) as usize;
        let k = rng.next_below(4) as u32;
        let chunk = theory::thm33_balanced_chunk(remaining, p, k);
        let work = theory::poly_prefix_work(remaining, chunk, k);
        let total = theory::poly_total_work(remaining, k);
        // The theorem guarantees ≤ 1/P of the remaining work, up to the ±1
        // iteration granularity of integer chunks.
        let slack = theory::decreasing_poly_cost(remaining, 0, k);
        assert!(
            work <= total / p as f64 + slack,
            "remaining={} p={} k={}: work {} vs fair {}",
            remaining,
            p,
            k,
            work,
            total / p as f64
        );
    }
}

#[test]
fn afs_iteration_never_reassigned_twice() {
    // Adversarial interleavings: one worker races ahead, stealing constantly.
    for seed in 0..20u64 {
        let sched = Affinity::with_k_equals_p();
        let n = 512;
        let p = 8;
        let mut state = sched.begin_loop(n, p);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut counts = vec![0u32; n as usize];
        // Worker 0 issues requests 4x as often as the rest.
        let mut live: Vec<usize> = (0..p).collect();
        while !live.is_empty() {
            let biased = if rng.chance(0.5) {
                0
            } else {
                rng.next_below(p as u64) as usize
            };
            if !live.contains(&biased) {
                continue;
            }
            match state.next(biased) {
                Some(g) => {
                    for i in g.range.iter() {
                        counts[i as usize] += 1;
                        assert_eq!(counts[i as usize], 1, "iteration {i} reassigned");
                    }
                }
                None => live.retain(|&w| w != biased),
            }
        }
        assert!(counts.iter().all(|&c| c == 1));
    }
}
