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
}
