//! A square bit matrix with 64-bit word rows (the transitive-closure
//! substrate).

use crate::simd::{copies, Loop};

/// Dense square boolean matrix packed into `u64` words, row-major.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// Creates an `n × n` matrix of zeros.
    pub fn zeros(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        Self {
            n,
            words_per_row,
            words: vec![0; words_per_row * n],
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes per row (the simulator's block size for a row).
    pub fn row_bytes(&self) -> u32 {
        (self.words_per_row * 8) as u32
    }

    /// Reads bit `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.n && col < self.n);
        let w = self.words[row * self.words_per_row + col / 64];
        (w >> (col % 64)) & 1 == 1
    }

    /// Sets bit `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        debug_assert!(row < self.n && col < self.n);
        let idx = row * self.words_per_row + col / 64;
        let mask = 1u64 << (col % 64);
        if value {
            self.words[idx] |= mask;
        } else {
            self.words[idx] &= !mask;
        }
    }

    /// Row `row` as a word slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[u64] {
        let s = row * self.words_per_row;
        &self.words[s..s + self.words_per_row]
    }

    /// ORs `src_row` into `dst_row` (the Warshall inner loop).
    #[inline]
    pub fn or_row_into(&mut self, src_row: usize, dst_row: usize) {
        let wpr = self.words_per_row;
        let (s, d) = (src_row * wpr, dst_row * wpr);
        if s == d {
            return;
        }
        // Split borrows: rows are disjoint word ranges.
        let (src, dst) = if s < d {
            let (a, b) = self.words.split_at_mut(d);
            (&a[s..s + wpr], &mut b[..wpr])
        } else {
            let (a, b) = self.words.split_at_mut(s);
            (&b[..wpr], &mut a[d..d + wpr])
        };
        row_or(dst, src);
    }

    /// Word count per row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Consumes the matrix, returning its packed words (row-major).
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// Rebuilds a matrix from packed words produced by [`Self::into_words`].
    pub fn from_words(n: usize, words: Vec<u64>) -> Self {
        let words_per_row = n.div_ceil(64);
        assert_eq!(words.len(), words_per_row * n, "word count mismatch");
        Self {
            n,
            words_per_row,
            words,
        }
    }

    /// Number of set bits in the whole matrix.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Number of set bits in one row.
    pub fn row_count_ones(&self, row: usize) -> u32 {
        self.row(row).iter().map(|w| w.count_ones()).sum()
    }
}

/// Tests bit `col` in a packed row slice.
#[inline]
pub fn row_get(row: &[u64], col: usize) -> bool {
    (row[col / 64] >> (col % 64)) & 1 == 1
}

/// ORs packed row `src` into `dst` (both `words_per_row` long): the
/// Warshall inner loop of [`BitMatrix::or_row_into`] and the parallel
/// closure alike.
///
/// Runs [`or_loop`]'s copy that [`Loop::BitRowOr`]'s entry in
/// [`crate::simd::TABLE`] names (AVX-512F), or the portable copy on a CPU
/// without it.
#[inline]
pub fn row_or(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    or_as(Loop::BitRowOr.chosen(), dst, src);
}

copies! {
    /// [`or_loop`] compiled for `isa` (see [`crate::simd::copies`]).
    fn or_as(dst: &mut [u64], src: &[u64]) = or_loop;
}

/// The row OR, compiled once per [`crate::simd::Isa`].
#[inline(always)]
fn or_loop(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= *s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_helpers_match_matrix_ops() {
        let mut m = BitMatrix::zeros(70);
        m.set(1, 65, true);
        assert!(row_get(m.row(1), 65));
        assert!(!row_get(m.row(1), 64));
        let src = m.row(1).to_vec();
        let mut dst = vec![0u64; src.len()];
        row_or(&mut dst, &src);
        assert!(row_get(&dst, 65));
    }

    /// Both wide copies of the row OR against the portable one, every
    /// length in `0..=17`, 64 and 65 (each vector remainder).
    #[test]
    fn row_or_wide_copies_agree_with_the_portable_loop() {
        use crate::simd::Isa;
        let mut rng = afs_core::rng::Xoshiro256::seed_from_u64(0x0b17);
        for isa in [Isa::Avx2, Isa::Avx512f] {
            let test = "row_or_wide_copies_agree_with_the_portable_loop";
            if !crate::simd::check_or_say(isa, test) {
                continue;
            }
            for len in (0..=17).chain([64, 65]) {
                let src: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
                let dst: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
                let (mut portable, mut wide) = (dst.clone(), dst);
                or_as(Isa::Portable, &mut portable, &src);
                or_as(isa, &mut wide, &src);
                assert_eq!(wide, portable, "{isa:?} len = {len}");
            }
        }
    }

    #[test]
    fn words_roundtrip() {
        let mut m = BitMatrix::zeros(65);
        m.set(64, 64, true);
        let n = m.n();
        let words = m.clone().into_words();
        let back = BitMatrix::from_words(n, words);
        assert_eq!(back, m);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = BitMatrix::zeros(100);
        assert!(!m.get(3, 97));
        m.set(3, 97, true);
        assert!(m.get(3, 97));
        assert!(!m.get(3, 96));
        assert!(!m.get(4, 97));
        m.set(3, 97, false);
        assert!(!m.get(3, 97));
    }

    #[test]
    fn or_row_into_unions() {
        let mut m = BitMatrix::zeros(70);
        m.set(0, 1, true);
        m.set(0, 65, true);
        m.set(1, 2, true);
        m.or_row_into(0, 1);
        assert!(m.get(1, 1));
        assert!(m.get(1, 65));
        assert!(m.get(1, 2));
        // Source unchanged.
        assert!(!m.get(0, 2));
    }

    #[test]
    fn or_row_into_self_is_noop() {
        let mut m = BitMatrix::zeros(10);
        m.set(5, 3, true);
        m.or_row_into(5, 5);
        assert!(m.get(5, 3));
        assert_eq!(m.count_ones(), 1);
    }

    #[test]
    fn or_row_works_both_directions() {
        let mut m = BitMatrix::zeros(10);
        m.set(7, 1, true);
        m.or_row_into(7, 2); // src > dst
        assert!(m.get(2, 1));
        m.set(1, 8, true);
        m.or_row_into(1, 9); // src < dst
        assert!(m.get(9, 8));
    }

    #[test]
    fn counts() {
        let mut m = BitMatrix::zeros(65);
        m.set(0, 0, true);
        m.set(0, 64, true);
        m.set(2, 10, true);
        assert_eq!(m.count_ones(), 3);
        assert_eq!(m.row_count_ones(0), 2);
        assert_eq!(m.row_count_ones(1), 0);
    }

    #[test]
    fn row_bytes_rounds_to_words() {
        assert_eq!(BitMatrix::zeros(64).row_bytes(), 8);
        assert_eq!(BitMatrix::zeros(65).row_bytes(), 16);
        assert_eq!(BitMatrix::zeros(512).row_bytes(), 64);
    }
}
