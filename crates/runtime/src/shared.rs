//! Row-sharded shared arrays for parallel kernel bodies.
//!
//! The paper's kernels update disjoint matrix rows from different
//! processors. Rust's aliasing rules require a wrapper to express "this
//! array is shared, but writers touch disjoint rows": [`RowMatrix`] holds
//! the storage in an `UnsafeCell` and exposes row accessors whose safety
//! contract is exactly the property the schedulers guarantee (each iteration
//! index — hence each row — is handed to exactly one worker; see the
//! `every_scheduler_covers_exactly_once` property tests in `afs-core` and
//! the concurrent coverage tests in this crate).

use std::cell::UnsafeCell;

/// A `rows × cols` matrix shareable across workers with per-row access.
pub struct RowMatrix<T> {
    data: UnsafeCell<Vec<T>>,
    rows: usize,
    cols: usize,
}

// SAFETY: RowMatrix only hands out disjoint-row references under the
// documented contracts of `row`/`row_mut`; the data itself is Send.
unsafe impl<T: Send + Sync> Sync for RowMatrix<T> {}

impl<T> RowMatrix<T> {
    /// Wraps a row-major vector of length `rows × cols`.
    pub fn from_vec(data: Vec<T>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self {
            data: UnsafeCell::new(data),
            rows,
            cols,
        }
    }

    /// A zeroed `rows × cols` matrix whose pages are first-touched by the
    /// pool's workers: worker `w` faults in the contiguous row share
    /// `w·rows/p .. (w+1)·rows/p` — the same static split AFS seeds its
    /// per-worker queues with, so on a NUMA host (with the pool built via
    /// `pin_cores(true)`) each row's pages live on the node of the worker
    /// whose iterations update it. See [`crate::numa`].
    pub fn first_touch(pool: &crate::pool::Pool, rows: usize, cols: usize) -> Self
    where
        T: crate::numa::ZeroInit,
    {
        let alloc = crate::numa::NumaAlloc::<T>::zeroed(rows * cols);
        let p = pool.workers();
        pool.run(|w| {
            alloc.touch(rows * w / p * cols, rows * (w + 1) / p * cols);
        });
        Self::from_vec(alloc.into_vec(), rows, cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Recovers the underlying vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data.into_inner()
    }

    /// Immutable view of row `r`.
    ///
    /// # Safety
    /// No thread may hold a mutable reference to row `r` (via
    /// [`Self::row_mut`]) for the duration of the returned borrow.
    pub unsafe fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        let base = (*self.data.get()).as_ptr();
        std::slice::from_raw_parts(base.add(r * self.cols), self.cols)
    }

    /// Mutable view of row `r`.
    ///
    /// # Safety
    /// The caller must guarantee exclusive access to row `r`: no other
    /// thread may read or write row `r` concurrently. In this repository
    /// that guarantee comes from loop schedulers assigning each iteration
    /// (hence each written row) to exactly one worker, and from kernel
    /// structure ensuring read rows are never in the written set of the
    /// same phase.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn row_mut(&self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        let base = (*self.data.get()).as_mut_ptr();
        std::slice::from_raw_parts_mut(base.add(r * self.cols), self.cols)
    }

    /// Immutable view of the whole matrix.
    ///
    /// # Safety
    /// No thread may hold a mutable row reference for the duration of the
    /// returned borrow. Intended for phases in which this matrix is
    /// read-only (e.g. the source buffer of a Jacobi sweep).
    pub unsafe fn full(&self) -> &[T] {
        let v = &*self.data.get();
        v.as_slice()
    }

    /// Exclusive access through a unique handle — safe, for setup/teardown.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.data.get_mut().as_mut_slice()
    }

    /// Shared read-only access through a unique handle — safe because `&mut
    /// self` proves no row borrows exist.
    pub fn as_slice(&mut self) -> &[T] {
        self.data.get_mut().as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{parallel_for, RuntimeScheduler};
    use crate::pool::Pool;

    #[test]
    fn rows_are_disjoint_slices() {
        let m = RowMatrix::from_vec(vec![0u32; 12], 3, 4);
        // SAFETY: rows 0 and 2 are distinct, and this thread is the only
        // one touching the matrix.
        unsafe {
            let r0 = m.row_mut(0);
            let r2 = m.row_mut(2);
            r0[0] = 7;
            r2[3] = 9;
        }
        let v = m.into_vec();
        assert_eq!(v[0], 7);
        assert_eq!(v[11], 9);
    }

    #[test]
    fn parallel_disjoint_row_writes() {
        let pool = Pool::new(4);
        let rows = 64;
        let cols = 32;
        let m = RowMatrix::from_vec(vec![0u64; rows * cols], rows, cols);
        parallel_for(
            &pool,
            rows as u64,
            &RuntimeScheduler::afs_k_equals_p(),
            |i| {
                // SAFETY: the scheduler hands each row index to exactly one
                // worker; no other row aliases row `i`.
                let row = unsafe { m.row_mut(i as usize) };
                for (c, v) in row.iter_mut().enumerate() {
                    *v = i * 1000 + c as u64;
                }
            },
        );
        let v = m.into_vec();
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(v[r * cols + c], (r * 1000 + c) as u64);
            }
        }
    }

    #[test]
    fn first_touch_matrix_is_zeroed_and_writable() {
        let pool = Pool::new(3);
        let mut m = RowMatrix::<f64>::first_touch(&pool, 16, 8);
        assert_eq!(m.rows(), 16);
        assert_eq!(m.cols(), 8);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        parallel_for(&pool, 16, &RuntimeScheduler::afs_k_equals_p(), |i| {
            // SAFETY: each row index is handed to exactly one worker.
            unsafe { m.row_mut(i as usize)[0] = i as f64 };
        });
        let v = m.into_vec();
        for r in 0..16 {
            assert_eq!(v[r * 8], r as f64);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_bounds_checked() {
        let m = RowMatrix::from_vec(vec![0u8; 4], 2, 2);
        // SAFETY: single-threaded, no writer; the bounds check panics
        // before any reference is formed.
        unsafe {
            let _ = m.row(2);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_rejected() {
        let _ = RowMatrix::from_vec(vec![0u8; 5], 2, 2);
    }
}
