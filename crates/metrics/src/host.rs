//! Host identification for benchmark records.
//!
//! Benchmark JSON files are committed and compared across runs; a number is
//! only interpretable next to the machine that produced it. [`HostInfo`]
//! captures the minimum that changes results: logical CPU count, kernel
//! release, OS/arch, and whether the runtime could actually pin workers to
//! cores (containers and some CI runners refuse `sched_setaffinity`).

/// A description of the machine a benchmark ran on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostInfo {
    /// Logical CPUs visible to this process.
    pub cpus: usize,
    /// Kernel release string (`/proc/sys/kernel/osrelease`), or "unknown".
    pub kernel: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Whether worker threads could be pinned to cores.
    pub pin_capable: bool,
}

impl HostInfo {
    /// Captures the current host. `pin_capable` is supplied by the caller
    /// (the runtime knows it; probing here would invert the dependency).
    pub fn capture(pin_capable: bool) -> HostInfo {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        HostInfo {
            cpus,
            kernel,
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            pin_capable,
        }
    }
}

afs_core::json::fields!(HostInfo: cpus, kernel, os, arch, pin_capable);

#[cfg(test)]
mod tests {
    use super::*;
    use afs_core::json::{self, Fields, Value};

    #[test]
    fn capture_is_plausible() {
        let h = HostInfo::capture(true);
        assert!(h.cpus >= 1);
        assert!(!h.kernel.is_empty());
        assert!(!h.os.is_empty());
        assert!(!h.arch.is_empty());
        assert!(h.pin_capable);
    }

    #[test]
    fn json_fragment_is_wellformed() {
        let h = HostInfo {
            cpus: 8,
            kernel: "6.1.0-test \"quoted\"".into(),
            os: "linux".into(),
            arch: "x86_64".into(),
            pin_capable: false,
        };
        let v = json::parse(&json::document(|o| h.fields(o))).unwrap();
        let Value::Obj(members) = &v else {
            panic!("HostInfo encodes as an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["cpus", "kernel", "os", "arch", "pin_capable"]);
        assert_eq!(v.get("cpus").and_then(Value::as_f64), Some(8.0));
        assert_eq!(
            v.get("kernel").and_then(Value::as_str),
            Some("6.1.0-test \"quoted\"")
        );
        assert_eq!(v.get("os").and_then(Value::as_str), Some("linux"));
        assert_eq!(v.get("arch").and_then(Value::as_str), Some("x86_64"));
        assert_eq!(v.get("pin_capable").and_then(Value::as_bool), Some(false));
    }
}
