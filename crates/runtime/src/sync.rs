//! Small synchronization helpers over `std::sync`.
//!
//! The runtime treats lock poisoning as recoverable by construction: a
//! panicking loop body is contained per chunk (see [`crate::parallel`]),
//! the panic is recorded into the region's failure slot, and the worker
//! releases every protocol lock on the normal path — so a poisoned guard
//! can only mean the panic fired *between* a `lock()` and its drop, where
//! the protected state is still a valid snapshot (queue heads and counters
//! are updated with the invariant already restored). The wrapper recovers
//! the guard in that case, keeping call sites free of `unwrap` noise — and
//! gives the tracing hook one place to time contended acquisitions.

use afs_metrics::trace::{EventKind, TraceSink};

/// A mutex with panic-free locking (poison is recovered, not propagated).
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking. Poison is recovered.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        }
    }

    /// Acquires the lock only if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(poison)) => Some(poison.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(poison) => poison.into_inner(),
        }
    }
}

/// Acquires `m`, recording a `LockWaitBegin`/`LockWaitEnd` pair on
/// `worker`'s trace lane if (and only if) the lock is contended. The
/// uncontended fast path is a single `try_lock` — no events, no clock
/// reads — so tracing leaves queue-lock behavior essentially unperturbed.
pub fn lock_traced<'a, T>(
    m: &'a Mutex<T>,
    trace: Option<&TraceSink>,
    worker: usize,
    queue: u32,
) -> MutexGuard<'a, T> {
    match trace {
        None => m.lock(),
        Some(sink) => {
            if let Some(g) = m.try_lock() {
                return g;
            }
            sink.record(worker, EventKind::LockWaitBegin { queue });
            let g = m.lock();
            sink.record(worker, EventKind::LockWaitEnd { queue });
            g
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_into_inner() {
        let m = Mutex::new(5);
        *m.lock() += 2;
        assert_eq!(m.into_inner(), 7);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn uncontended_traced_lock_records_nothing() {
        let sink = TraceSink::new(1);
        let m = Mutex::new(0);
        {
            let _g = lock_traced(&m, Some(&sink), 0, 0);
        }
        assert!(sink.events(0).is_empty());
    }

    #[test]
    fn contended_traced_lock_records_wait_pair() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let sink = Arc::new(TraceSink::new(2));
        let m = Arc::new(Mutex::new(0));
        let held = m.lock();
        let started = Arc::new(AtomicBool::new(false));
        let t = {
            let sink = Arc::clone(&sink);
            let m = Arc::clone(&m);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                started.store(true, Ordering::SeqCst);
                let _g = lock_traced(&m, Some(&sink), 1, 7);
            })
        };
        // Wait until the thread is about to contend, give it time to block,
        // then release. (The sink must not be read until after the join.)
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(held);
        t.join().unwrap();
        let evs = sink.events(1);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::LockWaitBegin { queue: 7 });
        assert_eq!(evs[1].kind, EventKind::LockWaitEnd { queue: 7 });
    }
}
