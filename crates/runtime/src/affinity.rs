//! Worker→core pinning.
//!
//! The paper's machine model dedicates processor `i` to worker `i` for the
//! whole application (space sharing, §2.1), and AFS's deterministic
//! chunk→processor mapping only turns into *physical* cache affinity if a
//! worker actually stays on one core: an OS migration invalidates the very
//! lines the schedule worked to keep warm. Pinning makes the model real.
//!
//! The binding is a direct `extern "C"` declaration of Linux's
//! `sched_setaffinity(2)` — no external crate, and the workspace keeps
//! building fully offline. With `pid == 0` the call applies to the calling
//! *thread* (per-thread attribute on Linux), so each worker pins itself
//! first thing after spawn. On non-Linux targets pinning is a no-op that
//! reports failure; callers treat pinning as best-effort everywhere.

/// Number of logical cores the OS reports (1 if unknown).
pub fn core_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// CPU mask words: room for 1024 CPUs, the kernel's default `CPU_SETSIZE`.
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 1024 / 64;

/// Pins the calling thread to logical CPU `cpu` (taken modulo the number
/// of cores the OS reports, so any index maps to an existing CPU).
/// Returns `true` on success. Best-effort: restricted cpusets or exotic
/// containers may refuse, and callers must tolerate that.
#[cfg(target_os = "linux")]
pub fn pin_current_to(cpu: usize) -> bool {
    extern "C" {
        /// `sched_setaffinity(2)`; `pid == 0` targets the calling thread.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; MASK_WORDS];
    let bit = (cpu % core_count()) % (MASK_WORDS * 64);
    mask[bit / 64] |= 1 << (bit % 64);
    // SAFETY: `mask` is a live, initialized buffer of exactly the byte
    // length passed; the kernel only reads it, and `pid == 0` cannot name
    // another process.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pinning is unsupported on this target; always returns `false`.
#[cfg(not(target_os = "linux"))]
pub fn pin_current_to(_cpu: usize) -> bool {
    false
}

/// One NUMA node: its kernel id and the logical CPUs it owns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NumaNode {
    /// Kernel node id (the `N` in `/sys/devices/system/node/nodeN`).
    pub id: usize,
    /// Logical CPUs belonging to this node.
    pub cpus: Vec<usize>,
}

/// The machine's NUMA layout: which node owns each logical CPU.
///
/// Discovered from `/sys/devices/system/node/node*/cpulist` on Linux; any
/// other target — or a sysfs that cannot be parsed — degrades to a single
/// node owning every CPU, so callers never need a fallback branch: "node of
/// CPU c" is always answerable, and on UMA machines every worker is on the
/// same node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NumaTopology {
    nodes: Vec<NumaNode>,
    /// `cpu_node[cpu]` = index into `nodes` (not the kernel id) for each
    /// logical CPU; CPUs sysfs did not list land on node index 0.
    cpu_node: Vec<usize>,
}

impl NumaTopology {
    /// Discovers the topology of the current machine.
    pub fn detect() -> NumaTopology {
        Self::from_sysfs("/sys/devices/system/node")
            .unwrap_or_else(|| Self::single_node(core_count()))
    }

    /// A one-node topology owning CPUs `0..cpus` (the UMA fallback).
    pub fn single_node(cpus: usize) -> NumaTopology {
        NumaTopology {
            nodes: vec![NumaNode {
                id: 0,
                cpus: (0..cpus.max(1)).collect(),
            }],
            cpu_node: vec![0; cpus.max(1)],
        }
    }

    /// Parses a sysfs node directory layout. `None` when the directory is
    /// missing or holds no parseable `nodeN/cpulist` entries.
    fn from_sysfs(root: &str) -> Option<NumaTopology> {
        let entries = std::fs::read_dir(root).ok()?;
        let mut nodes: Vec<NumaNode> = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(id) = name.strip_prefix("node").and_then(|s| s.parse().ok()) else {
                continue;
            };
            let list = std::fs::read_to_string(entry.path().join("cpulist")).ok()?;
            let cpus = parse_cpulist(list.trim())?;
            if !cpus.is_empty() {
                nodes.push(NumaNode { id, cpus });
            }
        }
        if nodes.is_empty() {
            return None;
        }
        nodes.sort_by_key(|n| n.id);
        let max_cpu = nodes.iter().flat_map(|n| n.cpus.iter()).max().copied()?;
        let mut cpu_node = vec![0; max_cpu + 1];
        for (idx, node) in nodes.iter().enumerate() {
            for &c in &node.cpus {
                cpu_node[c] = idx;
            }
        }
        Some(NumaTopology { nodes, cpu_node })
    }

    /// Number of NUMA nodes (≥ 1).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The discovered nodes, sorted by kernel id.
    pub fn nodes(&self) -> &[NumaNode] {
        &self.nodes
    }

    /// The kernel node id owning logical CPU `cpu`. CPUs beyond the
    /// discovered range fold onto node index `cpu % node_count` rather than
    /// failing — placement is advisory everywhere.
    pub fn node_of_cpu(&self, cpu: usize) -> usize {
        let idx = match self.cpu_node.get(cpu) {
            Some(&i) => i,
            None => cpu % self.nodes.len(),
        };
        self.nodes[idx].id
    }
}

/// The machine's NUMA topology, detected once and cached for the process
/// lifetime. Topology is a boot-time property, so its readers (pool
/// placement, victim-order seeding, bench host records) share one detection
/// instead of re-reading sysfs.
pub fn topology() -> &'static NumaTopology {
    use std::sync::OnceLock;
    static TOPOLOGY: OnceLock<NumaTopology> = OnceLock::new();
    TOPOLOGY.get_or_init(NumaTopology::detect)
}

/// Parses the kernel's cpulist format (`"0-3,8,10-11"`) into CPU indices.
fn parse_cpulist(s: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    if s.is_empty() {
        return Some(cpus);
    }
    for part in s.split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => {
                let (lo, hi): (usize, usize) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
                if lo > hi {
                    return None;
                }
                cpus.extend(lo..=hi);
            }
            None => cpus.push(part.trim().parse().ok()?),
        }
    }
    Some(cpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_count_is_positive() {
        assert!(core_count() >= 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_the_current_thread_succeeds() {
        // CPU index wraps modulo the mask width, so any index is valid;
        // index 0 exists on every machine.
        assert!(pin_current_to(0));
        assert!(pin_current_to(core_count() * 3));
    }

    #[test]
    fn cpulist_parses_kernel_formats() {
        assert_eq!(parse_cpulist("0-3"), Some(vec![0, 1, 2, 3]));
        assert_eq!(parse_cpulist("0-1,4,6-7"), Some(vec![0, 1, 4, 6, 7]));
        assert_eq!(parse_cpulist("5"), Some(vec![5]));
        assert_eq!(parse_cpulist(""), Some(vec![]));
        assert_eq!(parse_cpulist("3-1"), None);
        assert_eq!(parse_cpulist("a-b"), None);
    }

    #[test]
    fn detect_always_yields_a_usable_topology() {
        let topo = NumaTopology::detect();
        assert!(topo.node_count() >= 1);
        // Every CPU the OS reports maps to some node, including indices
        // past the discovered range (advisory fold, never a panic).
        for cpu in 0..core_count() * 2 {
            let _ = topo.node_of_cpu(cpu);
        }
    }

    #[test]
    fn cached_topology_is_one_instance() {
        assert!(std::ptr::eq(topology(), topology()));
        assert_eq!(*topology(), NumaTopology::detect());
    }

    #[test]
    fn single_node_fallback_owns_every_cpu() {
        let topo = NumaTopology::single_node(4);
        assert_eq!(topo.node_count(), 1);
        assert_eq!(topo.nodes()[0].cpus, vec![0, 1, 2, 3]);
        assert_eq!(topo.node_of_cpu(0), 0);
        assert_eq!(topo.node_of_cpu(99), 0);
    }
}
