//! Bit-exact pins of the simulator's observable results.
//!
//! Every figure and table of the reproduction is a `simulate` call, so a
//! rework of the event loop or the cache must leave each grab, miss and bus
//! grant where it was. The cells are the reproduction's three heaviest
//! models at the end points of the paper's processor sweeps, plus one cell
//! per `SimConfig` feature (start delay, departure, disruption, timeline).
//! When a change to the *model* is intended, a failing run prints the whole
//! table in source form to paste over `GOLDEN`.

use afs_core::prelude::*;
use afs_kernels::prelude::*;
use afs_sim::prelude::*;

const JITTER: f64 = 0.05;
const SEED: u64 = 0x0060_1DE2;

/// What a cell pins: `completion_time`, `bus_wait` and `queue_wait` as bit
/// patterns; hits, misses, coherence misses; synchronized grabs; lost
/// iterations; and a fold over every timeline segment (0 without timeline).
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    cell: &'static str,
    completion: u64,
    hits: u64,
    misses: u64,
    coherence: u64,
    bus_wait: u64,
    queue_wait: u64,
    sync: u64,
    lost: u64,
    timeline: u64,
}

fn pin(cell: &'static str, r: &SimResult) -> Pin {
    // FNV-1a over (lane, kind, start, end) of every segment, in order.
    let mut fold = 0u64;
    if let Some(tl) = &r.timeline {
        fold = 0xcbf2_9ce4_8422_2325;
        for (lane, segments) in tl.lanes.iter().enumerate() {
            for s in segments {
                for word in [
                    lane as u64,
                    s.kind as u64,
                    s.start.to_bits(),
                    s.end.to_bits(),
                ] {
                    fold = (fold ^ word).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    Pin {
        cell,
        completion: r.completion_time.to_bits(),
        hits: r.cache_hits,
        misses: r.cache_misses,
        coherence: r.coherence_misses,
        bus_wait: r.bus_wait.to_bits(),
        queue_wait: r.queue_wait.to_bits(),
        sync: r.metrics.sync.synchronized(),
        lost: r.lost_iters(),
        timeline: fold,
    }
}

fn schedulers() -> [(&'static str, Box<dyn Scheduler>); 3] {
    [
        ("STATIC", Box::new(StaticSched::new())),
        ("GSS", Box::new(Gss::new())),
        ("AFS", Box::new(Affinity::with_k_equals_p())),
    ]
}

fn base(machine: MachineSpec, p: usize) -> SimConfig {
    SimConfig::new(machine, p)
        .with_jitter(JITTER)
        .with_seed(SEED)
}

/// Name, workload, the machine the paper ran it on, the sweep's end points.
type Model = (&'static str, Box<dyn Workload>, MachineSpec, [usize; 2]);

fn actual() -> Vec<Pin> {
    let models: [Model; 3] = [
        (
            "gauss",
            Box::new(GaussModel::new(768)),
            MachineSpec::iris(),
            [2, 8],
        ),
        (
            "tc",
            Box::new(TcModel::from_graph(&clique_graph(640, 320), "clique")),
            MachineSpec::iris(),
            [2, 8],
        ),
        (
            "sor",
            Box::new(SorModel::new(1024, 128)),
            MachineSpec::ksr1(),
            [8, 57],
        ),
    ];
    let mut pins = Vec::new();
    for (model, workload, machine, procs) in &models {
        for &p in procs {
            for (name, sched) in &schedulers() {
                let r = simulate(workload.as_ref(), sched, &base(machine.clone(), p));
                let cell = format!("{model}/{p}/{name}");
                pins.push(pin(Box::leak(cell.into_boxed_str()), &r));
            }
        }
    }

    // One cell per SimConfig feature, on smaller models. Times are in the
    // machine's units: gauss(192) on the Iris takes ~6e6 at P=4, sor(256, 12) on
    // the KSR-1 ~5e7 at P=8 (~4e6 per phase).
    let gauss = GaussModel::new(192);
    let sor = SorModel::new(256, 12);
    let afs = Affinity::with_k_equals_p();
    let delayed = base(MachineSpec::iris(), 4).with_delay(1, 2.0e5);
    pins.push(pin("delay/gauss/4/AFS", &simulate(&gauss, &afs, &delayed)));
    let departing = base(MachineSpec::iris(), 4).with_departure(2, 5.0e5);
    pins.push(pin(
        "departure/gauss/4/STATIC",
        &simulate(&gauss, &StaticSched::new(), &departing),
    ));
    pins.push(pin(
        "departure/gauss/4/AFS",
        &simulate(&gauss, &afs, &departing),
    ));
    let disrupted = base(MachineSpec::ksr1(), 8).with_disruption(3.0e6, 0.9);
    pins.push(pin(
        "disruption/sor/8/AFS",
        &simulate(&sor, &afs, &disrupted),
    ));
    pins.push(pin(
        "disruption/sor/8/GSS",
        &simulate(&sor, &Gss::new(), &disrupted),
    ));
    let timed = base(MachineSpec::iris(), 4).with_timeline();
    pins.push(pin(
        "timeline/gauss/4/GSS",
        &simulate(&gauss, &Gss::new(), &timed),
    ));
    pins
}

#[rustfmt::skip]
const GOLDEN: &[Pin] = &[
    Pin { cell: "gauss/2/STATIC", completion: 0x41cd4830aca4ba94, hits: 717572, misses: 166012, coherence: 168, bus_wait: 0x4144127326aea162, queue_wait: 0x0, sync: 0, lost: 0, timeline: 0x0 },
    Pin { cell: "gauss/2/GSS", completion: 0x41ce9d61aa5db481, hits: 652294, misses: 231290, coherence: 34045, bus_wait: 0x414ad3d2a462a120, queue_wait: 0x40e6788000000000, sync: 6657, lost: 0, timeline: 0x0 },
    Pin { cell: "gauss/2/AFS", completion: 0x41cd4646e70d2376, hits: 717522, misses: 166062, coherence: 218, bus_wait: 0x414422d59916d532, queue_wait: 0x40529da8e6000000, sync: 11789, lost: 0, timeline: 0x0 },
    Pin { cell: "gauss/8/STATIC", completion: 0x41a80c557a8a9fad, hits: 874800, misses: 8784, coherence: 1721, bus_wait: 0x41819d5b5ac2b9e7, queue_wait: 0x0, sync: 0, lost: 0, timeline: 0x0 },
    Pin { cell: "gauss/8/GSS", completion: 0x41c0c6b80763faf2, hits: 618009, misses: 265575, coherence: 115664, bus_wait: 0x41e122dd2d792ae3, queue_wait: 0x4133b1fcc9102700, sync: 24437, lost: 0, timeline: 0x0 },
    Pin { cell: "gauss/8/AFS", completion: 0x41a8192f7bb15a20, hits: 872074, misses: 11510, coherence: 3802, bus_wait: 0x41853acd0756dfa9, queue_wait: 0x40b9268d2f239400, sync: 105760, lost: 0, timeline: 0x0 },
    Pin { cell: "tc/2/STATIC", completion: 0x41cd3fdc7d354571, hits: 613120, misses: 640, coherence: 0, bus_wait: 0x40f63b903f322182, queue_wait: 0x0, sync: 0, lost: 0, timeline: 0x0 },
    Pin { cell: "tc/2/GSS", completion: 0x41d1caa2d0e3d501, hits: 402556, misses: 211204, coherence: 90, bus_wait: 0x41a1f802e0ada476, queue_wait: 0x40e86ec52c7ec000, sync: 6400, lost: 0, timeline: 0x0 },
    Pin { cell: "tc/2/AFS", completion: 0x41c6ca4962cf1c19, hits: 333281, misses: 280479, coherence: 176, bus_wait: 0x41a505eda4a43940, queue_wait: 0x0, sync: 11520, lost: 0, timeline: 0x0 },
    Pin { cell: "tc/8/STATIC", completion: 0x41ad8f3ecd2bf8f1, hits: 612160, misses: 1600, coherence: 0, bus_wait: 0x414fd635a4814230, queue_wait: 0x0, sync: 0, lost: 0, timeline: 0x0 },
    Pin { cell: "tc/8/GSS", completion: 0x41b7ded8bad393bd, hits: 408319, misses: 205441, coherence: 52190, bus_wait: 0x41c5ede8c16791aa, queue_wait: 0x4134d978326d0bc4, sync: 24320, lost: 0, timeline: 0x0 },
    Pin { cell: "tc/8/AFS", completion: 0x419fe6b77dacaefa, hits: 573061, misses: 40699, coherence: 37819, bus_wait: 0x4170e23fa3d67c86, queue_wait: 0x40b14b66d9af6a00, sync: 117760, lost: 0, timeline: 0x0 },
    Pin { cell: "sor/8/STATIC", completion: 0x4200798a7da31f5c, hits: 520192, misses: 3840, coherence: 1764, bus_wait: 0x0, queue_wait: 0x0, sync: 0, lost: 0, timeline: 0x0 },
    Pin { cell: "sor/8/GSS", completion: 0x42010507a34a7ea3, hits: 299486, misses: 224546, coherence: 208162, bus_wait: 0x0, queue_wait: 0x4164a4047adfa600, sync: 5248, lost: 0, timeline: 0x0 },
    Pin { cell: "sor/8/AFS", completion: 0x420078a25614da17, hits: 519954, misses: 4078, coherence: 1850, bus_wait: 0x0, queue_wait: 0x0, sync: 26624, lost: 0, timeline: 0x0 },
    Pin { cell: "sor/57/STATIC", completion: 0x41d2c987b47400f9, hits: 507648, misses: 16384, coherence: 14112, bus_wait: 0x0, queue_wait: 0x0, sync: 0, lost: 0, timeline: 0x0 },
    Pin { cell: "sor/57/GSS", completion: 0x41d3c5169a060680, hits: 219538, misses: 304494, coherence: 196979, bus_wait: 0x0, queue_wait: 0x41c2876d4211e892, sync: 25344, lost: 0, timeline: 0x0 },
    Pin { cell: "sor/57/AFS", completion: 0x41d2c5c27e53c0db, hits: 504752, misses: 19280, coherence: 15488, bus_wait: 0x0, queue_wait: 0x0, sync: 131072, lost: 0, timeline: 0x0 },
    Pin { cell: "delay/gauss/4/AFS", completion: 0x41590518dac59457, hits: 53752, misses: 1256, coherence: 490, bus_wait: 0x4112119f0aaf63d5, queue_wait: 0x407d100000000000, sync: 6392, lost: 0, timeline: 0x0 },
    Pin { cell: "departure/gauss/4/STATIC", completion: 0x41586c1242eaae06, hits: 41083, misses: 812, coherence: 183, bus_wait: 0x4106df8719b94974, queue_wait: 0x0, sync: 0, lost: 4371, timeline: 0x0 },
    Pin { cell: "departure/gauss/4/AFS", completion: 0x41610f2d5d296b8f, hits: 51134, misses: 3874, coherence: 3246, bus_wait: 0x41139792141ccd7e, queue_wait: 0x409a4e9053642800, sync: 6392, lost: 0, timeline: 0x0 },
    Pin { cell: "disruption/sor/8/AFS", completion: 0x418906befc47e17e, hits: 10795, misses: 1469, coherence: 0, bus_wait: 0x0, queue_wait: 0x0, sync: 1536, lost: 0, timeline: 0x0 },
    Pin { cell: "disruption/sor/8/GSS", completion: 0x4189e993fd648e00, hits: 6506, misses: 5758, coherence: 1179, bus_wait: 0x0, queue_wait: 0x412fbe153ecfcbc8, sync: 372, lost: 0, timeline: 0x0 },
    Pin { cell: "timeline/gauss/4/GSS", completion: 0x4161e9e8b838d5a3, hits: 40276, misses: 14732, coherence: 13964, bus_wait: 0x414b4c1bd3f66d13, queue_wait: 0x40f0e709ac683600, sync: 2472, lost: 0, timeline: 0x5920c5f89429622 },
];

#[test]
fn results_are_bit_identical_to_the_recorded_ones() {
    let actual = actual();
    if actual != GOLDEN {
        for p in &actual {
            println!(
                "    Pin {{ cell: {:?}, completion: {:#x}, hits: {}, misses: {}, coherence: {}, \
                 bus_wait: {:#x}, queue_wait: {:#x}, sync: {}, lost: {}, timeline: {:#x} }},",
                p.cell,
                p.completion,
                p.hits,
                p.misses,
                p.coherence,
                p.bus_wait,
                p.queue_wait,
                p.sync,
                p.lost,
                p.timeline
            );
        }
        for (want, got) in GOLDEN.iter().zip(&actual) {
            assert_eq!(got, want);
        }
        panic!("{} cells simulated, {} pinned", actual.len(), GOLDEN.len());
    }
}

/// The feature cells must exercise what they are there for.
#[test]
fn feature_cells_are_not_vacuous() {
    let by_name = |name: &str| {
        GOLDEN
            .iter()
            .find(|p| p.cell == name)
            .unwrap_or_else(|| panic!("no cell {name}"))
    };
    assert!(by_name("departure/gauss/4/STATIC").lost > 0);
    assert_eq!(by_name("departure/gauss/4/AFS").lost, 0);
    assert_ne!(by_name("timeline/gauss/4/GSS").timeline, 0);
    // Disruption evicts, so the same cell without it misses less.
    let sor = SorModel::new(256, 12);
    let calm = simulate(
        &sor,
        &Affinity::with_k_equals_p(),
        &base(MachineSpec::ksr1(), 8),
    );
    assert!(by_name("disruption/sor/8/AFS").misses > calm.cache_misses);
}
