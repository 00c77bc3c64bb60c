//! All-pairs inputs of the dense linkage: condensed similarity
//! matrices and Stage 2's agreement counts.
//!
//! [`CondensedMatrix`] stores only the strict upper triangle
//! (`n·(n−1)/2` entries, `f32`) — at 50 000 sequences that is ~10 GB as
//! `f64` but ~5 GB as `f32`, and sketch-estimated similarities carry far
//! less than 24 bits of signal anyway. Construction is parallelized by
//! *row partitioning*, matching the paper's "calculation of all
//! pairwise similarity is performed in parallel by performing a
//! row-wise partition". [`CondensedMatrix::get`] and
//! [`CondensedMatrix::set`] are the random-access surface — Pig's `K`
//! operator filling a matrix from pair tuples, tests.
//!
//! [`PairCounts`] is what the native dense route links instead: Stage
//! 2's per-row agreement counts, kept as the strips its map tasks emit,
//! in the narrowest lane that holds the sketch width (`u8` up to 255,
//! else `u16`). Row `a`'s strip holds the counts of `(a, a+1..n)`, so
//! at `u8` the store is a quarter of the bytes of an `f32` matrix.
//!
//! The linkage reads either input as `Triangles`: item `a`'s cells to
//! every other item as two contiguous rows, the input's own upper row
//! `(a, a+1..n)` and a lower row `(a, 0..a)` from one buffer that a
//! cache-blocked transpose fills. A column walk of the condensed
//! layout costs a cache and a TLB miss per step on a matrix of tens of
//! MB; two row walks cost neither. Over counts the whole input is then
//! `n·(n−1)` lane bytes: 2 B per unordered pair at `u8`, against the
//! 6 B of an `f32` matrix assembled from `u16` strips. From
//! `SPLIT_ITEMS` items on, the transpose runs on every available core,
//! each filling its own contiguous range of lower rows.

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
    pub(crate) fn from_condensed(n: usize, data: Vec<f32>) -> CondensedMatrix {
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

    /// Row `i`'s entries `(i, i+1..n)`: a contiguous slice of the
    /// condensed layout.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f32] {
        let start = self.row_start(i);
        &self.data[start..start + self.n - 1 - i]
    }
}

/// The strips of a [`PairCounts`], in the lane the sketch width needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CountStrips {
    /// Counts of a width up to `u8::MAX`.
    Narrow(Vec<Vec<u8>>),
    /// Counts of a width up to `u16::MAX`.
    Wide(Vec<Vec<u16>>),
}

/// Agreement counts of every pair of `n` sketches of one width, as
/// Stage 2's map tasks emit them: strip `a` holds the counts of
/// `(a, a+1..n)`. Count `c` stands for the similarity `c / width`, the
/// value [`PairCounts::to_matrix`] writes. The linkage reads the
/// strips where they are and never writes to them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairCounts {
    width: usize,
    strips: CountStrips,
}

impl PairCounts {
    /// Adopt `strips` as the counts of a sketch width of `width`.
    /// Panics unless strip `a` of `n` holds `n − 1 − a` counts, none
    /// above `width`.
    pub fn new(width: usize, strips: CountStrips) -> PairCounts {
        fn check<L: Copy + Ord + Default + Into<usize>>(strips: &[Vec<L>], width: usize) {
            let n = strips.len();
            for (a, strip) in strips.iter().enumerate() {
                assert_eq!(strip.len(), n - 1 - a, "strip of row {a} of {n}");
                let top = strip.iter().fold(L::default(), |m, &c| m.max(c));
                assert!(
                    top.into() <= width,
                    "count {} above width {width}",
                    top.into()
                );
            }
        }
        match &strips {
            CountStrips::Narrow(s) => check(s, width),
            CountStrips::Wide(s) => check(s, width),
        }
        PairCounts { width, strips }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        match &self.strips {
            CountStrips::Narrow(s) => s.len(),
            CountStrips::Wide(s) => s.len(),
        }
    }

    /// True for the counts of no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The strips, in their lane.
    pub(crate) fn strips(&self) -> &CountStrips {
        &self.strips
    }

    /// `similarity[c]`: count `c` over the width, `c / width` in `f64`
    /// rounded to `f32` — the two operations
    /// `SketchPlane::similarity(i, j) as f32` performs on the same
    /// integer, so every value is bit-identical to a division per pair.
    /// Zero-width sketches are identical, and their count is 0.
    pub(crate) fn similarities(&self) -> Vec<f32> {
        if self.width == 0 {
            return vec![1.0];
        }
        (0..=self.width)
            .map(|c| (c as f64 / self.width as f64) as f32)
            .collect()
    }

    /// The similarity matrix of the counts, one table lookup per cell.
    pub fn to_matrix(&self) -> CondensedMatrix {
        fn fill<L: Copy + Into<usize>>(strips: &[Vec<L>], similarity: &[f32]) -> CondensedMatrix {
            let n = strips.len();
            let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
            for strip in strips {
                data.extend(strip.iter().map(|&c| similarity[c.into()]));
            }
            CondensedMatrix::from_condensed(n, data)
        }
        let similarity = self.similarities();
        match &self.strips {
            CountStrips::Narrow(s) => fill(s, &similarity),
            CountStrips::Wide(s) => fill(s, &similarity),
        }
    }
}

/// Side of the square tiles [`Triangles::new`] transposes: 64 rows of
/// 64 cells touch 64 lines of the upper rows and 64 of the lower ones,
/// and a tile of `f32` is a 16 KB square on the stack.
const TILE: usize = 64;

/// Items from which [`Triangles::new`] splits its transpose over the
/// cores. Medians of 21 transposes of `u8` cells, fresh buffer
/// included, three runs on 2 vCPUs shared with other load, one thread
/// against two: 14.1–14.8 ms against 8.1–8.4 ms at 4 000 items;
/// 1.74–1.85 ms against 1.30–1.43 ms at 2 048; at 1 536 items
/// 0.77–0.80 ms against 0.70–0.92 ms, and at 1 024 and below one
/// thread won.
pub(crate) const SPLIT_ITEMS: usize = 2048;

/// Every item's cells to all others as two contiguous rows: row `a`'s
/// upper cells `(a, a+1..n)` are the input's own, and its lower cells
/// `(a, 0..a)` sit at `a·(a−1)/2` in one buffer.
pub(crate) struct Triangles<'a, T> {
    upper: Vec<&'a [T]>,
    lower: Vec<T>,
}

/// Offset of lower row `a` in [`Triangles::lower`]: the cells of the
/// rows before it.
#[inline]
fn lower_start(a: usize) -> usize {
    a * a.saturating_sub(1) / 2
}

impl<'a, T: Copy + Default + Send + Sync> Triangles<'a, T> {
    /// Borrow `upper` (row `a` holds `n − 1 − a` cells) and fill the
    /// lower rows from it by a cache-blocked transpose. From
    /// [`SPLIT_ITEMS`] items on, the lower rows are cut into one
    /// contiguous range of near-equal cells per available core, each
    /// filled on a scoped thread of its own; below, in one range.
    pub(crate) fn new(upper: Vec<&'a [T]>) -> Triangles<'a, T> {
        let parts = if upper.len() < SPLIT_ITEMS {
            1
        } else {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        };
        Triangles::split(upper, parts)
    }

    /// [`Triangles::new`] over `parts` ranges of lower rows, the last
    /// one filled on the calling thread.
    pub(crate) fn split(upper: Vec<&'a [T]>, parts: usize) -> Triangles<'a, T> {
        assert!(parts > 0, "one range at least");
        let n = upper.len();
        let mut lower = vec![T::default(); lower_start(n)];
        let total = lower.len();
        std::thread::scope(|scope| {
            let mut rest = lower.as_mut_slice();
            // Row 0 has no lower cells.
            let mut lo = 1;
            for part in 1..=parts {
                // The range ends at the first row with at least
                // `part / parts` of the cells before it; the last at n.
                let target = total * part / parts;
                let mut hi = lo;
                while hi < n && lower_start(hi) < target {
                    hi += 1;
                }
                let (cells, tail) = rest.split_at_mut(lower_start(hi) - lower_start(lo));
                rest = tail;
                let upper = &upper;
                if part == parts {
                    transpose_rows(upper, lo..hi, cells);
                } else if hi > lo {
                    scope.spawn(move || transpose_rows(upper, lo..hi, cells));
                }
                lo = hi;
            }
        });
        Triangles { upper, lower }
    }
}

/// Fill lower rows `rows` into `cells`, the part of the lower buffer
/// they span, tile by tile. A whole tile below the diagonal is read as
/// [`TILE`] runs of its upper rows into a square, transposed there and
/// written as [`TILE`] runs of its lower rows. A tile that the diagonal
/// or the range's end cuts is copied cell by cell, each lower row's
/// cells in order while the upper rows they come from are read along
/// their length.
fn transpose_rows<T: Copy + Default>(
    upper: &[&[T]],
    rows: std::ops::Range<usize>,
    cells: &mut [T],
) {
    let base = lower_start(rows.start);
    let mut square = [[T::default(); TILE]; TILE];
    for a0 in rows.clone().step_by(TILE) {
        let a1 = (a0 + TILE).min(rows.end);
        for c0 in (0..a1 - 1).step_by(TILE) {
            if a1 - a0 == TILE && c0 + TILE <= a0 {
                for (c, run) in (c0..).zip(&mut square) {
                    run.copy_from_slice(&upper[c][a0 - c - 1..][..TILE]);
                }
                transpose_square(&mut square);
                for (a, run) in (a0..).zip(&square) {
                    cells[lower_start(a) - base + c0..][..TILE].copy_from_slice(run);
                }
                continue;
            }
            for a in a0.max(c0 + 1)..a1 {
                let row = &mut cells[lower_start(a) - base..][..a];
                let c1 = (c0 + TILE).min(a);
                for (c, slot) in (c0..c1).zip(&mut row[c0..c1]) {
                    *slot = upper[c][a - c - 1];
                }
            }
        }
    }
}

/// Transpose `square` in place.
fn transpose_square<T>(square: &mut [[T; TILE]; TILE]) {
    for i in 0..TILE {
        let (head, tail) = square.split_at_mut(i + 1);
        for (x, below) in head[i][i + 1..].iter_mut().zip(tail) {
            std::mem::swap(x, &mut below[i]);
        }
    }
}

impl<T> Triangles<'_, T> {
    /// Number of items.
    pub(crate) fn len(&self) -> usize {
        self.upper.len()
    }

    /// Cells `(a, a+1..n)`.
    #[inline]
    pub(crate) fn upper(&self, a: usize) -> &[T] {
        self.upper[a]
    }

    /// Cells `(a, 0..a)`.
    #[inline]
    pub(crate) fn lower(&self, a: usize) -> &[T] {
        &self.lower[lower_start(a)..][..a]
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
    fn pair_counts_map_through_the_width() {
        let counts = PairCounts::new(3, CountStrips::Narrow(vec![vec![0, 3], vec![1], vec![]]));
        assert_eq!(counts.len(), 3);
        let m = counts.to_matrix();
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 0), 1.0);
        assert_eq!(m.get(1, 2), f64::from((1.0f64 / 3.0) as f32));
        let zero_width = PairCounts::new(0, CountStrips::Wide(vec![vec![0], vec![]]));
        assert_eq!(zero_width.to_matrix().get(0, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "strip of row 1 of 3")]
    fn pair_counts_reject_a_wrong_strip_length() {
        PairCounts::new(50, CountStrips::Narrow(vec![vec![0, 3], vec![], vec![]]));
    }

    #[test]
    #[should_panic(expected = "count 4 above width 3")]
    fn pair_counts_reject_a_count_above_the_width() {
        PairCounts::new(3, CountStrips::Wide(vec![vec![0, 4], vec![1], vec![]]));
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

    // The diagonal check is a debug_assert (Pig's K fill calls
    // get/set once per pair), so it only fires in debug builds.
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
