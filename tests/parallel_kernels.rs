//! Integration: every kernel, executed on the real-thread runtime under
//! every scheduling policy, must produce exactly the sequential reference's
//! result.
//!
//! This is the end-to-end proof that the concurrent work sources hand out
//! each iteration exactly once and that the row-sharding safety contracts
//! hold under real parallel execution.

use affinity_sched::apps;
use affinity_sched::prelude::*;

fn policies() -> Vec<RuntimeScheduler> {
    vec![
        RuntimeScheduler::static_partition(),
        RuntimeScheduler::self_sched(),
        RuntimeScheduler::gss(),
        RuntimeScheduler::factoring(),
        RuntimeScheduler::trapezoid(),
        RuntimeScheduler::mod_factoring(),
        RuntimeScheduler::afs_k_equals_p(),
        RuntimeScheduler::afs_tuned(2, 1),
        RuntimeScheduler::afs_last_exec(),
        RuntimeScheduler::from_core(afs_core::schedulers::ChunkSelf::new(5)),
        RuntimeScheduler::from_core(afs_core::schedulers::AdaptiveGss::new()),
    ]
}

#[test]
fn sor_matches_sequential_under_every_policy() {
    let n = 64;
    let steps = 9;
    let mut reference = SorGrid::new(n);
    reference.run_sequential(steps);
    let pool = Pool::new(4);
    for policy in policies() {
        let mut grid = SorGrid::new(n);
        apps::par_sor(&pool, &mut grid, steps, &policy);
        assert_eq!(grid.a, reference.a, "{}: buffer a diverged", policy.name());
        assert_eq!(grid.b, reference.b, "{}: buffer b diverged", policy.name());
    }
}

/// The textbook elimination — one pivot per pass over the whole active row —
/// that `afs_kernels::gauss`'s panel-deferred step must equal bit for bit.
fn gauss_one_pivot_reference(mut sys: GaussSystem) -> Vec<u64> {
    let cols = sys.cols();
    for phase in 0..sys.phases() {
        let (done, below) = sys.a.split_at_mut((phase + 1) * cols);
        let pivot = &done[phase * cols..];
        for row in below.chunks_exact_mut(cols) {
            let mult = row[phase] / pivot[phase];
            for c in phase..cols {
                row[c] -= pivot[c] * mult;
            }
        }
    }
    sys.a.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn gauss_matches_sequential_under_every_policy() {
    let bits = |sys: &GaussSystem| sys.a.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    // P from one worker to more workers than a light phase has heavy
    // iterations.
    let pools: Vec<Pool> = (1..=4).map(Pool::new).collect();
    // n < PANEL, n ≡ 0 / ±1 mod PANEL, last panels that reach the augmented
    // column.
    for n in [1, 2, 3, 4, 5, 7, 8, 9, 64, 257] {
        let original = GaussSystem::new(n, 3);
        let expected = gauss_one_pivot_reference(original.clone());
        let mut sequential = original.clone();
        sequential.run_sequential();
        assert_eq!(bits(&sequential), expected, "run_sequential, n = {n}");
        for pool in &pools {
            for policy in policies() {
                let mut sys = original.clone();
                let m = apps::par_gauss(pool, &mut sys, &policy);
                let at = format!("{}, n = {n}, P = {}", policy.name(), pool.workers());
                assert_eq!(bits(&sys), expected, "{at}: diverged");
                assert_eq!(m.total_iters(), (n * (n - 1) / 2) as u64, "{at}");
            }
        }
    }
}

#[test]
fn gauss_parallel_solution_solves_original_system() {
    let n = 64;
    let original = GaussSystem::new(n, 9);
    let a0 = original.a.clone();
    let cols = n + 1;
    let pool = Pool::new(3);
    let mut sys = original;
    apps::par_gauss(&pool, &mut sys, &RuntimeScheduler::afs_k_equals_p());
    let x = sys.solve_back();
    for r in 0..n {
        let s: f64 = (0..n).map(|c| a0[r * cols + c] * x[c]).sum();
        assert!(
            (s - a0[r * cols + n]).abs() < 1e-7,
            "row {r} residual too large"
        );
    }
}

#[test]
fn transitive_closure_matches_sequential_under_every_policy() {
    let pool = Pool::new(4);
    for (label, graph) in [
        ("random", random_graph(96, 0.07, 5)),
        ("clique", clique_graph(96, 40)),
        // 10 words a row: the wide row OR's full vectors and its remainder.
        ("wide random", random_graph(600, 0.004, 9)),
    ] {
        let mut reference = TransitiveClosure::new(graph.clone());
        reference.run_sequential();
        for policy in policies() {
            let mut tc = TransitiveClosure::new(graph.clone());
            apps::par_transitive(&pool, &mut tc, &policy);
            assert_eq!(
                tc.a,
                reference.a,
                "{} diverged on {label} input",
                policy.name()
            );
        }
    }
}

#[test]
fn adjoint_matches_sequential_forward_and_reversed() {
    let n = 14;
    let mut reference = AdjointConvolution::new(n, 8);
    reference.run_sequential();
    let pool = Pool::new(4);
    for policy in policies() {
        for reversed in [false, true] {
            let mut adj = AdjointConvolution::new(n, 8);
            apps::par_adjoint(&pool, &mut adj, &policy, reversed);
            assert_eq!(
                adj.a,
                reference.a,
                "{} (reversed={reversed}) diverged",
                policy.name()
            );
        }
    }
}

#[test]
fn l4_executes_every_unit_of_work() {
    let model = L4Model::with_outer(3, 2);
    let expected: f64 = {
        use afs_sim::Workload;
        (0..model.phases())
            .map(|ph| {
                (0..model.phase_len(ph))
                    .map(|i| model.units(ph, i))
                    .sum::<f64>()
            })
            .sum()
    };
    let pool = Pool::new(4);
    for policy in [RuntimeScheduler::gss(), RuntimeScheduler::afs_k_equals_p()] {
        let (_metrics, burned) = apps::par_l4(&pool, &model, &policy);
        assert_eq!(burned, expected, "{}", policy.name());
    }
}

#[test]
fn runtime_metrics_are_consistent_with_counts() {
    // SS on the runtime: exactly one central grab per iteration.
    let pool = Pool::new(4);
    let mut grid = SorGrid::new(32);
    let m = apps::par_sor(&pool, &mut grid, 3, &RuntimeScheduler::self_sched());
    assert_eq!(m.sync.central, 32 * 3);
    assert_eq!(m.total_iters(), 32 * 3);

    // GSS grab count per phase equals the analytic drain count.
    let mut grid = SorGrid::new(32);
    let m = apps::par_sor(&pool, &mut grid, 4, &RuntimeScheduler::gss());
    assert_eq!(m.sync.central, 4 * afs_core::chunking::drain_count(32, 4));
}

#[test]
fn pool_sizes_from_one_to_eight() {
    let n = 48;
    let mut reference = SorGrid::new(n);
    reference.run_sequential(4);
    for workers in [1usize, 2, 3, 5, 8] {
        let pool = Pool::new(workers);
        let mut grid = SorGrid::new(n);
        apps::par_sor(&pool, &mut grid, 4, &RuntimeScheduler::afs_k_equals_p());
        assert_eq!(grid.a, reference.a, "workers = {workers}");
    }
}
