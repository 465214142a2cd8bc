//! Property-style tests for the simulator substrate.
//!
//! Inputs are sampled from a seeded [`Xoshiro256`] so every run checks the
//! same (large) set of cases deterministically — no external property-test
//! framework, same invariants.

use afs_core::prelude::*;
use afs_core::rng::Xoshiro256;
use afs_kernels::prelude::*;
use afs_sim::cache::BlockCache;
use afs_sim::prelude::*;
use std::collections::HashMap;

/// A trivially correct reference LRU cache to check `BlockCache` against.
struct RefCache {
    capacity: u64,
    /// (block, version, bytes) in recency order, most recent last.
    entries: Vec<(u64, u32, u32)>,
}

impl RefCache {
    fn new(capacity: u64) -> Self {
        Self {
            capacity,
            entries: Vec::new(),
        }
    }

    fn used(&self) -> u64 {
        self.entries.iter().map(|e| e.2 as u64).sum()
    }

    fn access(&mut self, block: u64, bytes: u32, version: u32) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let hit = if let Some(pos) = self.entries.iter().position(|e| e.0 == block) {
            let e = self.entries.remove(pos);
            let fresh = e.1 == version;
            // A fresh hit re-fetches nothing, so the cached extent is
            // unchanged; a stale copy is refreshed at the new size.
            let kept_bytes = if fresh { e.2 } else { bytes };
            self.entries.push((block, version, kept_bytes));
            fresh
        } else {
            self.entries.push((block, version, bytes));
            false
        };
        while self.used() > self.capacity && !self.entries.is_empty() {
            self.entries.remove(0);
        }
        hit
    }

    fn set_version(&mut self, block: u64, version: u32) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == block) {
            e.1 = version;
        }
    }

    fn contains_fresh(&self, block: u64, version: u32) -> bool {
        self.entries.iter().any(|e| e.0 == block && e.1 == version)
    }

    /// Drops least-recent entries until at most `keep` of the bytes remain.
    fn evict_fraction(&mut self, keep: f64) {
        let limit = (self.used() as f64 * keep) as u64;
        while self.used() > limit {
            self.entries.remove(0);
        }
    }
}

/// `BlockCache` behaves exactly like the reference LRU under arbitrary
/// access/write/disruption traces. Block ids range to a few thousand so the
/// dense index grows in steps and holds vacant entries between residents;
/// small capacities make blocks leave and re-enter it.
#[test]
fn cache_matches_reference_model() {
    let capacities = [0u64, 100, 256, 1000, 4096, u64::MAX];
    let id_ranges = [24u64, 300, 4000];
    let mut rng = Xoshiro256::seed_from_u64(0xCACE_0001);
    for case in 0..192 {
        let capacity = capacities[rng.next_below(capacities.len() as u64) as usize];
        let ids = id_ranges[rng.next_below(id_ranges.len() as u64) as usize];
        let n_ops = 1 + rng.next_below(299) as usize;
        let mut real = BlockCache::new(capacity);
        let mut reference = RefCache::new(capacity);
        let mut versions: HashMap<u64, u32> = HashMap::new();
        for _ in 0..n_ops {
            if rng.chance(0.05) {
                let keep = [0.0, 0.3, 0.5, 0.9, 1.0][rng.next_below(5) as usize];
                real.evict_fraction(keep);
                reference.evict_fraction(keep);
            }
            // Mostly a hot set (hits, stale copies, re-inserts), sometimes
            // anywhere in the id range (index growth).
            let block = if rng.chance(0.7) {
                rng.next_below(24) * (ids / 24)
            } else {
                rng.next_below(ids)
            };
            let bytes = 1 + rng.next_below(299) as u32;
            let v = *versions.entry(block).or_insert(0);
            let want = reference.access(block, bytes, v);
            let got = if rng.chance(0.5) {
                versions.insert(block, v + 1);
                reference.set_version(block, v + 1);
                real.write(block, bytes, v, v + 1)
            } else {
                real.access(block, bytes, v)
            };
            let ctx = format!("case {case}: block={block} bytes={bytes} v={v}");
            assert_eq!(got, want, "{ctx}");
            assert_eq!(real.used_bytes(), reference.used(), "{ctx}");
            assert_eq!(real.blocks(), reference.entries.len(), "{ctx}");
            for &(b, version, _) in &reference.entries {
                assert!(real.contains_fresh(b, version), "{ctx}: resident {b}");
            }
            let probe = rng.next_below(ids);
            let probe_v = versions.get(&probe).copied().unwrap_or(0);
            assert_eq!(
                real.contains_fresh(probe, probe_v),
                reference.contains_fresh(probe, probe_v),
                "{ctx}: probe {probe}"
            );
        }
    }
}

/// Every scheduler, with start delays and departing processors, on a
/// memory-touching and a pure-compute workload. Debug builds run the event
/// loop's one-pending-event-per-processor assertion throughout; here every
/// iteration must be executed once or reported lost, and only a static
/// partition may lose any.
#[test]
fn every_scheduler_survives_delays_and_departures() {
    let mut rng = Xoshiro256::seed_from_u64(0x0E7E_0007);
    let mut lossy_cells = 0;
    for case in 0..8 {
        let p = 2 + rng.next_below(7) as usize;
        let sor = SorModel::new(32 + rng.next_below(96), 1 + rng.next_below(4) as usize);
        let synthetic = SyntheticLoop::triangular(200 + rng.next_below(800), 50.0);
        let workloads: [&dyn Workload; 2] = [&sor, &synthetic];
        for wl in workloads {
            let calm = SimConfig::new(MachineSpec::iris(), p).with_jitter(0.05);
            let span = simulate(wl, &Gss::new(), &calm).completion_time;
            let mut cfg = calm.with_seed(rng.next_u64());
            for proc in 0..p {
                if rng.chance(0.4) {
                    cfg = cfg.with_delay(proc, span * rng.next_f64());
                }
                // Processor 0 stays, so dynamic schedulers can always finish.
                if proc > 0 && rng.chance(0.4) {
                    cfg = cfg.with_departure(proc, span * 1.5 * rng.next_f64());
                }
            }
            for sched in afs_core::schedulers::paper_suite() {
                let res = simulate(wl, &sched, &cfg);
                let ctx = format!("case {case}: {} under {}", wl.name(), sched.name());
                assert_eq!(
                    res.metrics.total_iters() + res.lost_iters(),
                    res.expected_iters,
                    "{ctx}"
                );
                assert!(res.completed() || sched.name() == "STATIC", "{ctx}");
                lossy_cells += usize::from(!res.completed());
            }
        }
    }
    assert!(lossy_cells > 0, "no departure ever stranded static work");
}

/// The binary trace format carries every in-tree model at the
/// reproduction's sizes: no model's block ids reach the decoder's bound.
#[test]
fn every_kernel_model_roundtrips_through_the_trace_format() {
    let models: [Box<dyn Workload>; 5] = [
        Box::new(GaussModel::new(768)),
        Box::new(SorModel::new(1024, 2)),
        Box::new(TcModel::from_graph(&clique_graph(640, 320), "clique")),
        Box::new(AdjointModel::new(75)),
        Box::new(L4Model::with_outer(1, 2)),
    ];
    for model in &models {
        let trace = TraceWorkload::record(model.as_ref());
        let back = TraceWorkload::from_bytes(&trace.to_bytes());
        assert!(back.as_ref() == Ok(&trace), "{}", model.name());
    }
}

/// Simulation is a pure function of (workload, scheduler, config).
#[test]
fn simulation_is_deterministic() {
    let mut rng = Xoshiro256::seed_from_u64(0xDE7E_0002);
    for _ in 0..32 {
        let n = 1 + rng.next_below(2999);
        let p = 1 + rng.next_below(15) as usize;
        let seed = rng.next_u64();
        let heavy = 1.0 + 199.0 * rng.next_f64();
        let wl = SyntheticLoop::step_front(n, heavy, 1.0);
        let cfg = SimConfig::new(MachineSpec::iris(), p.min(8))
            .with_jitter(0.05)
            .with_seed(seed);
        let a = simulate(&wl, &Factoring::new(), &cfg);
        let b = simulate(&wl, &Factoring::new(), &cfg);
        assert_eq!(a.completion_time.to_bits(), b.completion_time.to_bits());
        assert_eq!(a.metrics.sync, b.metrics.sync);
        assert_eq!(a.cache_misses, b.cache_misses);
    }
}

/// Every scheduler executes exactly n iterations, and completion is at
/// least the critical path (max single iteration) and at least work/P.
#[test]
fn completion_bounds() {
    let mut rng = Xoshiro256::seed_from_u64(0xB0DD_0003);
    for _ in 0..24 {
        let n = 1 + rng.next_below(1999);
        let p = 1 + rng.next_below(15) as usize;
        let wl = SyntheticLoop::triangular(n, 1.0);
        let machine = MachineSpec::ideal(16);
        for sched in afs_core::schedulers::paper_suite() {
            let cfg = SimConfig::new(machine.clone(), p);
            let res = simulate(&wl, &sched, &cfg);
            assert_eq!(res.metrics.total_iters(), n, "{}", sched.name());
            let total: f64 = (0..n).map(|i| (n - i) as f64).sum();
            let max_iter = n as f64;
            let lower = (total / p as f64).max(max_iter);
            assert!(
                res.completion_time >= lower - 1e-6,
                "{}: completion {} below lower bound {}",
                sched.name(),
                res.completion_time,
                lower
            );
            // And an upper bound: no scheduler is worse than serializing
            // everything plus per-grab sync (zero on the ideal machine).
            assert!(res.completion_time <= total + 1e-6);
        }
    }
}

/// Adding processors never hurts on a contention-free machine under
/// dynamic schedulers with single-iteration tails.
#[test]
fn more_processors_never_hurt_on_ideal() {
    let mut rng = Xoshiro256::seed_from_u64(0x1DEA_0004);
    for _ in 0..32 {
        let n = 8 + rng.next_below(1992);
        let p = 1 + rng.next_below(14) as usize;
        let wl = SyntheticLoop::balanced(n, 7.0);
        let t_p =
            simulate(&wl, &Gss::new(), &SimConfig::new(MachineSpec::ideal(16), p)).completion_time;
        let t_p1 = simulate(
            &wl,
            &Gss::new(),
            &SimConfig::new(MachineSpec::ideal(16), p + 1),
        )
        .completion_time;
        assert!(t_p1 <= t_p * (1.0 + 1e-9), "P={p}: {t_p} -> {t_p1}");
    }
}

/// Per-phase times sum to the total; phase count matches the workload.
#[test]
fn phase_time_conservation() {
    struct Multi(u64, usize);
    impl Workload for Multi {
        fn name(&self) -> String {
            "multi".into()
        }
        fn phases(&self) -> usize {
            self.1
        }
        fn phase_len(&self, _p: usize) -> u64 {
            self.0
        }
        fn cost(&self, ph: usize, i: u64) -> Work {
            Work::flops(1.0 + ((ph as u64 + i) % 5) as f64)
        }
        fn has_memory(&self, _p: usize) -> bool {
            false
        }
    }
    let mut rng = Xoshiro256::seed_from_u64(0xFA5E_0005);
    for _ in 0..32 {
        let n = 1 + rng.next_below(299);
        let phases = 1 + rng.next_below(11) as usize;
        let p = 1 + rng.next_below(7) as usize;
        let wl = Multi(n, phases);
        let res = simulate(
            &wl,
            &Affinity::with_k_equals_p(),
            &SimConfig::new(MachineSpec::ideal(8), p),
        );
        assert_eq!(res.phase_times.len(), phases);
        let sum: f64 = res.phase_times.iter().sum();
        assert!((sum - res.completion_time).abs() < 1e-9 * sum.max(1.0));
        assert_eq!(res.metrics.total_iters(), n * phases as u64);
    }
}

/// Start delays only ever increase completion time, by at most the delay.
#[test]
fn delays_are_bounded_perturbations() {
    let mut rng = Xoshiro256::seed_from_u64(0xDE1A_0006);
    for _ in 0..32 {
        let n = 64 + rng.next_below(4936);
        let delay = 10_000.0 * rng.next_f64();
        let proc = rng.next_below(4) as usize;
        let wl = SyntheticLoop::balanced(n, 3.0);
        let base_cfg = SimConfig::new(MachineSpec::ideal(4), 4);
        let base = simulate(&wl, &Gss::new(), &base_cfg).completion_time;
        let cfg = SimConfig::new(MachineSpec::ideal(4), 4).with_delay(proc, delay);
        let delayed = simulate(&wl, &Gss::new(), &cfg).completion_time;
        assert!(delayed + 1e-9 >= base);
        assert!(delayed <= base + delay + 1e-9);
    }
}

/// Jitter perturbs times but preserves total work within the jitter band.
#[test]
fn jitter_preserves_work_envelope() {
    let n = 10_000u64;
    let wl = SyntheticLoop::balanced(n, 10.0);
    let clean = simulate(
        &wl,
        &StaticSched::new(),
        &SimConfig::new(MachineSpec::ideal(4), 4),
    );
    let jittered = simulate(
        &wl,
        &StaticSched::new(),
        &SimConfig::new(MachineSpec::ideal(4), 4).with_jitter(0.1),
    );
    let busy_clean: f64 = clean.busy_time.iter().sum();
    let busy_jit: f64 = jittered.busy_time.iter().sum();
    assert!(
        (busy_jit - busy_clean).abs() / busy_clean < 0.01,
        "jitter is zero-mean"
    );
    assert_ne!(
        clean.completion_time.to_bits(),
        jittered.completion_time.to_bits(),
        "jitter must actually perturb"
    );
}
