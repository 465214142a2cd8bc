//! A fixed-capacity, single-writer, overwrite-oldest ring.
//!
//! Storage is allocated once at construction; pushing never allocates.
//! When the ring is full, the *oldest* element is overwritten — a record
//! that overflows keeps its most recent history, which is what post-mortem
//! analysis of a run's tail wants — and a drop counter says how much was
//! lost. The trace's per-worker event lanes and the flight recorder's
//! serve-event ring are both this type.

/// Fixed-capacity ring with oldest-first eviction.
#[derive(Clone, Debug)]
pub struct Ring<T> {
    buf: Vec<T>,
    cap: usize,
    /// Index of the next write once the ring is full (the oldest element).
    head: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// Creates a ring holding at most `cap` elements (`cap >= 1`). The full
    /// backing store is reserved up front; `push` never reallocates.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap >= 1, "ring capacity must be at least 1");
        Self {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    /// Appends `v`, overwriting the oldest element if full.
    #[inline]
    pub fn push(&mut self, v: T) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Number of elements overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The surviving elements in push order, oldest first; `.rev()` walks
    /// them newest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        let (wrapped, tail) = self.buf.split_at(self.head);
        tail.iter().chain(wrapped)
    }

    /// Discards every element and resets the drop counter. The reserved
    /// backing store is kept.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contents(r: &Ring<u64>) -> Vec<u64> {
        r.iter().copied().collect()
    }

    #[test]
    fn fills_then_wraps_keeping_newest() {
        let mut r = Ring::with_capacity(4);
        for t in 0..4 {
            r.push(t);
        }
        assert_eq!(contents(&r), [0, 1, 2, 3]);
        assert_eq!(r.dropped(), 0);
        // Two more evict the two oldest.
        r.push(4);
        r.push(5);
        assert_eq!(r.dropped(), 2);
        assert_eq!(contents(&r), [2, 3, 4, 5]);
    }

    #[test]
    fn wraps_many_times() {
        let mut r = Ring::with_capacity(3);
        for t in 0..100 {
            r.push(t);
        }
        assert_eq!(r.dropped(), 97);
        assert_eq!(contents(&r), [97, 98, 99]);
    }

    #[test]
    fn reverse_walks_newest_first_across_the_wrap() {
        let mut r = Ring::with_capacity(5);
        for t in 0..7 {
            r.push(t);
        }
        // Slots hold [5, 6, 2, 3, 4]; the newest three straddle the seam.
        let newest: Vec<u64> = r.iter().rev().take(3).copied().collect();
        assert_eq!(newest, [6, 5, 4]);
    }

    #[test]
    fn push_never_reallocates() {
        let mut r = Ring::with_capacity(8);
        let ptr = r.buf.as_ptr();
        for t in 0..50u64 {
            r.push(t);
        }
        assert_eq!(r.buf.as_ptr(), ptr, "backing store must not move");
    }

    #[test]
    fn clear_resets_everything() {
        let mut r = Ring::with_capacity(2);
        for t in 0..5 {
            r.push(t);
        }
        r.clear();
        assert!(contents(&r).is_empty());
        assert_eq!(r.dropped(), 0);
        r.push(9);
        assert_eq!(contents(&r), [9]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        Ring::<u64>::with_capacity(0);
    }
}
