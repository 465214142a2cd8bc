//! FCFS-serialized resources: queue locks and the shared bus.
//!
//! A resource is busy for a *hold* duration per acquisition; contenders are
//! served first-come-first-served. Because the event loop processes events
//! in non-decreasing time order, calling [`FcfsResource::acquire`] at event
//! time yields FCFS service without modelling an explicit waiter list.

/// A serially-held resource with FCFS granting.
#[derive(Clone, Debug, Default)]
pub struct FcfsResource {
    /// Earliest time the resource is free.
    free_at: f64,
    /// Total time the resource has been held.
    pub busy_time: f64,
    /// Total time acquirers spent waiting for a grant.
    pub wait_time: f64,
    /// Number of acquisitions.
    pub acquisitions: u64,
}

impl FcfsResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests the resource at time `t` for `hold` time units.
    ///
    /// Returns the grant time (`≥ t`); the resource is then busy until
    /// `grant + hold`. Callers must invoke this in non-decreasing `t` order
    /// for the FCFS interpretation to hold (the event loop guarantees it).
    pub fn acquire(&mut self, t: f64, hold: f64) -> f64 {
        debug_assert!(hold >= 0.0);
        let grant = self.free_at.max(t);
        self.wait_time += grant - t;
        self.free_at = grant + hold;
        self.busy_time += hold;
        self.acquisitions += 1;
        grant
    }

    /// Earliest time the resource is free (for inspection/tests).
    pub fn free_at(&self) -> f64 {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `r`'s utilization over an interval of length `span`.
    fn utilization(r: &FcfsResource, span: f64) -> f64 {
        if span <= 0.0 {
            0.0
        } else {
            r.busy_time / span
        }
    }

    #[test]
    fn uncontended_grants_immediately() {
        let mut r = FcfsResource::new();
        assert_eq!(r.acquire(10.0, 5.0), 10.0);
        assert_eq!(r.free_at(), 15.0);
        assert_eq!(r.wait_time, 0.0);
    }

    #[test]
    fn contended_requests_queue_up() {
        let mut r = FcfsResource::new();
        assert_eq!(r.acquire(0.0, 10.0), 0.0);
        // Arrives at 3, must wait until 10.
        assert_eq!(r.acquire(3.0, 10.0), 10.0);
        assert_eq!(r.wait_time, 7.0);
        // Arrives at 25, after the resource is free again.
        assert_eq!(r.acquire(25.0, 1.0), 25.0);
        assert_eq!(r.busy_time, 21.0);
        assert_eq!(r.acquisitions, 3);
    }

    #[test]
    fn zero_hold_counts_but_does_not_block() {
        let mut r = FcfsResource::new();
        assert_eq!(r.acquire(5.0, 0.0), 5.0);
        assert_eq!(r.acquire(5.0, 2.0), 5.0);
        assert_eq!(r.acquisitions, 2);
    }

    #[test]
    fn utilization_is_busy_over_span() {
        let mut r = FcfsResource::new();
        r.acquire(0.0, 25.0);
        assert!((utilization(&r, 100.0) - 0.25).abs() < 1e-12);
        assert_eq!(utilization(&r, 0.0), 0.0);
    }
}
