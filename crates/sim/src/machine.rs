//! Machine models: cost parameters and presets for the paper's four
//! multiprocessors.
//!
//! Absolute times are in abstract "time units" (roughly processor cycles of
//! the SGI Iris). What matters for reproducing the paper is the *ratios*
//! between computation, communication, and synchronization costs — each
//! preset's doc comment cites the paper's own characterization that the
//! numbers encode. The presets are calibrated so the repro harness
//! (`afs-bench`) reproduces the paper's qualitative results; EXPERIMENTS.md
//! records the outcome per figure.

/// Interconnect topology between processors and memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interconnect {
    /// A single shared bus: every block transfer occupies the bus for its
    /// full duration (FCFS). This is what saturates on the Iris/Symmetry.
    Bus,
    /// A switched/ring network: transfers pay latency but do not serialize
    /// globally (Butterfly's butterfly switch, KSR-1's ring).
    Switch,
}

/// Cost model of one shared-memory multiprocessor.
#[derive(Clone, Debug)]
pub struct MachineSpec {
    /// Human-readable machine name.
    pub name: String,
    /// Number of processors the machine supports.
    pub max_procs: usize,
    /// Time per floating-point (or equivalent) operation.
    pub flop_time: f64,
    /// Time per division (KSR-1 implements FP division in software).
    pub div_time: f64,
    /// Per-processor cache (or NUMA local memory) capacity in bytes.
    /// `0` disables local storage entirely.
    pub cache_bytes: u64,
    /// Time per block access that hits in the local cache.
    pub hit_time: f64,
    /// Fixed latency per block miss (request + first word).
    pub miss_latency: f64,
    /// Transfer time per byte of a missed block.
    pub byte_time: f64,
    /// Interconnect kind.
    pub interconnect: Interconnect,
    /// Time to lock + update the central work queue.
    pub sync_central: f64,
    /// Time to lock + update the processor's own work queue.
    pub sync_local: f64,
    /// Time to lock + update another processor's work queue.
    pub sync_remote: f64,
    /// On the Butterfly the paper's distributed queues still live in
    /// non-local memory: local-queue accesses cost `sync_remote`.
    pub all_queues_remote: bool,
}

impl MachineSpec {
    /// Time to execute `flops` ordinary operations and `divs` divisions.
    #[inline]
    pub fn compute_time(&self, flops: f64, divs: f64) -> f64 {
        flops * self.flop_time + divs * self.div_time
    }

    /// Processor-visible time of one block miss of `bytes` bytes
    /// (the interconnect occupancy is `transfer_time`, charged separately
    /// for [`Interconnect::Bus`]).
    #[inline]
    pub fn miss_time(&self, bytes: u32) -> f64 {
        self.miss_latency + self.transfer_time(bytes)
    }

    /// Interconnect occupancy of transferring `bytes` bytes.
    #[inline]
    pub fn transfer_time(&self, bytes: u32) -> f64 {
        bytes as f64 * self.byte_time
    }

    /// Synchronization cost of a queue access of the given kind.
    pub fn sync_time(&self, access: afs_core::AccessKind) -> f64 {
        use afs_core::AccessKind::*;
        match access {
            Free => 0.0,
            Central => self.sync_central,
            Local => {
                if self.all_queues_remote {
                    self.sync_remote
                } else {
                    self.sync_local
                }
            }
            Remote => self.sync_remote,
        }
    }

    /// SGI 4D/480GTX "Iris": 8 fast RISC processors, coherent 1 MB
    /// second-level caches, one 64 MB/s shared bus. The paper's headline
    /// machine: computation is fast relative to the bus, so communication
    /// dominates — Gaussian elimination saturates the bus with only two
    /// processors under non-affinity schedulers (Fig. 4).
    pub fn iris() -> Self {
        Self {
            name: "SGI-Iris".into(),
            max_procs: 8,
            flop_time: 5.0,
            div_time: 40.0,
            cache_bytes: 1 << 20,
            hit_time: 0.0,
            miss_latency: 30.0,
            byte_time: 0.5,
            interconnect: Interconnect::Bus,
            // "Synchronization is relatively inexpensive on the Iris" (§4.6):
            // a fetch-and-add is a couple of bus transactions, ~2 µs.
            sync_central: 60.0,
            sync_local: 15.0,
            sync_remote: 60.0,
            all_queues_remote: false,
        }
    }

    /// BBN Butterfly I: up to 60 slow (8 MHz, no FPU) processors, NUMA local
    /// memories, a butterfly switch, ~7 µs non-local access, no caches. The
    /// paper's implementations there preserve *no* affinity and even the
    /// distributed work queues are non-local (§4.4), so the Butterfly
    /// isolates load-balancing behaviour. Slow processors make computation
    /// dominate communication.
    pub fn butterfly() -> Self {
        Self {
            name: "BBN-Butterfly".into(),
            max_procs: 60,
            flop_time: 60.0, // ~8 MHz, software floating point
            div_time: 300.0,
            cache_bytes: 0,
            hit_time: 0.0,
            miss_latency: 7.0,
            byte_time: 0.25,
            interconnect: Interconnect::Switch,
            sync_central: 50.0,
            sync_local: 50.0,
            sync_remote: 50.0,
            all_queues_remote: true,
        }
    }

    /// Sequent Symmetry S81: processors ~30× slower than the Iris's, but a
    /// *faster* bus (80 MB/s vs 64 MB/s) and small 64 KB caches.
    /// Communication is cheap relative to computation, so affinity buys
    /// little: AFS ≈ GSS (Fig. 14).
    pub fn symmetry() -> Self {
        Self {
            name: "Sequent-Symmetry".into(),
            max_procs: 24,
            flop_time: 150.0,
            div_time: 1200.0,
            cache_bytes: 64 << 10,
            hit_time: 0.0,
            miss_latency: 30.0,
            byte_time: 0.4,
            interconnect: Interconnect::Bus,
            sync_central: 60.0,
            sync_local: 30.0,
            sync_remote: 60.0,
            all_queues_remote: false,
        }
    }

    /// KSR-1: 64 processors, 32 MB all-cache local memory each, a ring
    /// interconnect with expensive remote access, expensive synchronization,
    /// and *software* floating-point division (the effect behind the SOR
    /// anomaly of Fig. 17). Affinity matters enormously (Figs. 15–16).
    pub fn ksr1() -> Self {
        Self {
            name: "KSR-1".into(),
            max_procs: 64,
            flop_time: 5.0,
            div_time: 500.0,
            cache_bytes: 32 << 20,
            hit_time: 0.0,
            miss_latency: 200.0,
            byte_time: 1.2,
            interconnect: Interconnect::Switch,
            // "Synchronization is relatively expensive on the KSR" (§5.2):
            // a contended lock handoff over the ring is ~100 µs.
            sync_central: 3000.0,
            sync_local: 100.0,
            sync_remote: 3000.0,
            all_queues_remote: false,
        }
    }

    /// An idealized PRAM-like machine: free communication and
    /// synchronization. Useful for validating load-balance-only behaviour
    /// (simulated completion time = critical path of the schedule).
    pub fn ideal(max_procs: usize) -> Self {
        Self {
            name: "Ideal".into(),
            max_procs,
            flop_time: 1.0,
            div_time: 1.0,
            cache_bytes: u64::MAX,
            hit_time: 0.0,
            miss_latency: 0.0,
            byte_time: 0.0,
            interconnect: Interconnect::Switch,
            sync_central: 0.0,
            sync_local: 0.0,
            sync_remote: 0.0,
            all_queues_remote: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_core::AccessKind;

    #[test]
    fn compute_time_combines_flops_and_divs() {
        let m = MachineSpec::iris();
        assert_eq!(m.compute_time(10.0, 2.0), 10.0 * 5.0 + 2.0 * 40.0);
    }

    #[test]
    fn miss_time_includes_latency_and_transfer() {
        let m = MachineSpec::iris();
        assert_eq!(m.miss_time(100), 30.0 + 50.0);
    }

    #[test]
    fn butterfly_local_queues_cost_remote() {
        let b = MachineSpec::butterfly();
        assert_eq!(b.sync_time(AccessKind::Local), b.sync_remote);
        let i = MachineSpec::iris();
        assert_eq!(i.sync_time(AccessKind::Local), i.sync_local);
        assert_eq!(i.sync_time(AccessKind::Free), 0.0);
    }

    #[test]
    fn paper_ratios_hold() {
        let iris = MachineSpec::iris();
        let sym = MachineSpec::symmetry();
        // §5.1: Iris processors ≈ 30× faster than Symmetry's.
        assert!((sym.flop_time / iris.flop_time - 30.0).abs() < 1.0);
        // Symmetry bus is faster than the Iris bus.
        assert!(sym.byte_time < iris.byte_time);
        // KSR divides are software: far more expensive relative to a flop.
        let ksr = MachineSpec::ksr1();
        assert!(ksr.div_time / ksr.flop_time > 50.0);
        // KSR has by far the biggest local storage.
        assert!(ksr.cache_bytes > iris.cache_bytes);
    }

    #[test]
    fn ideal_machine_is_free() {
        let m = MachineSpec::ideal(16);
        assert_eq!(m.miss_time(1000), 0.0);
        assert_eq!(m.sync_time(AccessKind::Central), 0.0);
    }
}
