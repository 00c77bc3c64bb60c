//! Condensed all-pairs similarity matrices.
//!
//! Stores only the strict upper triangle (`n·(n−1)/2` entries, `f32`)
//! — at 50 000 sequences that is ~10 GB as `f64` but ~5 GB as `f32`,
//! and sketch-estimated similarities carry far less than 24 bits of
//! signal anyway. Construction is parallelized by *row partitioning*,
//! matching the paper's "calculation of all pairwise similarity is
//! performed in parallel by performing a row-wise partition".
//!
//! [`CondensedMatrix::get`] and [`CondensedMatrix::set`] are the
//! random-access surface — Pig's `K` operator filling a matrix from
//! pair tuples, SLINK reading one row at a time, tests. The bulk
//! routes do not go through them: the all-pairs stage hands over the
//! finished layout ([`CondensedMatrix::from_condensed`]), and the dense
//! NN-chain, handed the matrix by value (the `Cow` conversions below),
//! turns its buffer into distances in place; a borrowed matrix is
//! collected into one distance copy. The dense route therefore peaks
//! at 1.5 matrices while Stage 2 assembles its `u16` count strips into
//! the matrix, and holds one from then on.

use std::borrow::Cow;

use rayon::prelude::*;

/// Upper-triangle condensed matrix of pairwise values.
#[derive(Debug, Clone, PartialEq)]
pub struct CondensedMatrix {
    n: usize,
    data: Vec<f32>,
}

impl CondensedMatrix {
    /// Build from a similarity oracle, in parallel over contiguous
    /// pair-balanced row blocks.
    ///
    /// Row `i` owns entries `(i, i+1..n)` — a contiguous slice of the
    /// condensed layout — so a *run* of rows is contiguous too. Rather
    /// than materializing one split borrow per row (an O(n) `Vec` that
    /// degenerate inputs built and immediately discarded), rows are
    /// cut into a handful of blocks with near-equal pair counts, one
    /// split borrow each.
    pub fn build_parallel<F>(n: usize, sim: F) -> CondensedMatrix
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        let mut data = vec![0f32; n * n.saturating_sub(1) / 2];
        if n < 2 {
            return CondensedMatrix { n, data };
        }
        let total = n * (n - 1) / 2;
        // A few blocks per worker keeps the tail balanced without
        // recreating the per-row slice list.
        let tasks = std::thread::available_parallelism()
            .map(|p| p.get() * 4)
            .unwrap_or(32)
            .min(n - 1);
        let target = total.div_ceil(tasks).max(1);

        let mut blocks: Vec<(usize, &mut [f32])> = Vec::with_capacity(tasks + 1);
        let mut rest: &mut [f32] = &mut data;
        let mut block_start = 0usize;
        let mut block_len = 0usize;
        for r in 0..n - 1 {
            block_len += n - 1 - r;
            if block_len >= target || r == n - 2 {
                let (chunk, tail) = rest.split_at_mut(block_len);
                blocks.push((block_start, chunk));
                rest = tail;
                block_start = r + 1;
                block_len = 0;
            }
        }
        blocks.into_par_iter().for_each(|(first_row, chunk)| {
            let mut offset = 0usize;
            let mut i = first_row;
            while offset < chunk.len() {
                let row_len = n - 1 - i;
                for (k, slot) in chunk[offset..offset + row_len].iter_mut().enumerate() {
                    *slot = sim(i, i + 1 + k) as f32;
                }
                offset += row_len;
                i += 1;
            }
        });
        CondensedMatrix { n, data }
    }

    /// Build sequentially (for small inputs and tests).
    pub fn build<F>(n: usize, mut sim: F) -> CondensedMatrix
    where
        F: FnMut(usize, usize) -> f64,
    {
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                data.push(sim(i, j) as f32);
            }
        }
        CondensedMatrix { n, data }
    }

    /// Adopt `data` as the condensed layout of an `n`-item matrix:
    /// row 0's `n − 1` entries `(0, 1..n)`, then row 1's `n − 2`, and
    /// so on — what [`CondensedMatrix::as_slice`] returns. Panics
    /// unless `data.len() == n·(n−1)/2`.
    pub fn from_condensed(n: usize, data: Vec<f32>) -> CondensedMatrix {
        assert_eq!(
            data.len(),
            n * n.saturating_sub(1) / 2,
            "condensed layout of {n} items"
        );
        CondensedMatrix { n, data }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the 0-item matrix.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Offset of row `i`'s first entry, `(i, i+1)`, in the condensed
    /// layout: `sum_{r<i} (n−1−r) = i·n − i·(i+1)/2`.
    #[inline]
    pub(crate) fn row_start(&self, i: usize) -> usize {
        i * self.n - i * (i + 1) / 2
    }

    /// Condensed index of `(i, j)`, `i != j`.
    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i != j, "diagonal not stored");
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        self.row_start(i) + (j - i - 1)
    }

    /// Value at `(i, j)`; panics out of bounds, and on the diagonal in
    /// debug builds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        f64::from(self.data[self.index(i, j)])
    }

    /// Set the value at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        let idx = self.index(i, j);
        self.data[idx] = value as f32;
    }

    /// Raw condensed data (row-major upper triangle).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The condensed layout by value, the inverse of
    /// [`CondensedMatrix::from_condensed`].
    pub(crate) fn into_condensed(self) -> Vec<f32> {
        self.data
    }
}

impl<'a> From<&'a CondensedMatrix> for Cow<'a, CondensedMatrix> {
    fn from(matrix: &'a CondensedMatrix) -> Self {
        Cow::Borrowed(matrix)
    }
}

impl From<CondensedMatrix> for Cow<'_, CondensedMatrix> {
    fn from(matrix: CondensedMatrix) -> Self {
        Cow::Owned(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_get_symmetric() {
        let m = CondensedMatrix::build(4, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0); // symmetric access
        assert_eq!(m.get(2, 3), 23.0);
        assert_eq!(m.get(0, 3), 3.0);
        assert_eq!(m.len(), 4);
        assert_eq!(m.as_slice().len(), 6);
    }

    #[test]
    fn parallel_matches_sequential() {
        let sim = |i: usize, j: usize| ((i * 31 + j * 7) % 97) as f64 / 97.0;
        let a = CondensedMatrix::build(23, sim);
        let b = CondensedMatrix::build_parallel(23, sim);
        assert_eq!(a, b);
    }

    #[test]
    fn set_round_trips() {
        let mut m = CondensedMatrix::build(3, |_, _| 0.0);
        m.set(0, 2, 0.5);
        assert_eq!(m.get(2, 0), 0.5);
    }

    #[test]
    fn from_condensed_adopts_the_layout() {
        for n in [0usize, 1, 2, 5] {
            let built = CondensedMatrix::build(n, |i, j| (i * 10 + j) as f64);
            let adopted = CondensedMatrix::from_condensed(n, built.as_slice().to_vec());
            assert_eq!(adopted, built, "n = {n}");
            assert_eq!(adopted.len(), n);
        }
        let m = CondensedMatrix::from_condensed(5, (0..10).map(|x| x as f32).collect());
        assert_eq!(m.get(0, 4), 3.0);
        assert_eq!(m.get(1, 2), 4.0);
        assert_eq!(m.get(4, 3), 9.0);
    }

    #[test]
    #[should_panic(expected = "condensed layout of 5 items")]
    fn from_condensed_rejects_a_wrong_length() {
        CondensedMatrix::from_condensed(5, vec![0.0; 9]);
    }

    #[test]
    fn tiny_sizes() {
        let m = CondensedMatrix::build(0, |_, _| 0.0);
        assert!(m.is_empty());
        let m = CondensedMatrix::build(1, |_, _| 0.0);
        assert_eq!(m.len(), 1);
        assert!(m.as_slice().is_empty());
        let m = CondensedMatrix::build_parallel(2, |_, _| 0.25);
        assert_eq!(m.get(0, 1), 0.25);
    }

    // The diagonal check is a debug_assert (Pig's K fill and SLINK's
    // row fill call get/set once per pair), so it only fires in debug
    // builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "diagonal")]
    fn diagonal_access_panics() {
        let m = CondensedMatrix::build(3, |_, _| 0.0);
        m.get(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let m = CondensedMatrix::build(3, |_, _| 0.0);
        m.get(0, 3);
    }
}
