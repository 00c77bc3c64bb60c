//! The packed compare plane: many sketches as one row-major matrix of
//! narrow lanes, for stages that compare every sketch with every other.
//!
//! A [`Sketch`] is a heap `Vec<u64>`; an all-pairs stage that walks
//! `&[Sketch]` chases one pointer per operand and compares 8-byte
//! slots although every hash family the pipeline builds has range
//! `max(4^k, 2³¹) ≤ 2³²` for k ≤ 16. [`SketchPlane::pack`] copies the
//! values once into a contiguous `n × num_hashes` matrix — `u32` lanes
//! when every real value fits below `u32::MAX` (which then serves as
//! the empty mark), `u64` lanes otherwise — and [`SketchPlane::agreement`]
//! counts equal lanes of two rows, a loop the compiler vectorises on
//! the baseline target. The lane width is chosen from the values
//! handed in, not from `k`, and both widths run the one generic body.
//!
//! [`SketchPlane::similarity`] is bit-identical to
//! [`positional_similarity`](crate::positional_similarity) on the
//! packed sketches: [`SketchPlane::count`] is the same integer, divided
//! by the same width in `f64`. A stage that ships the count and divides
//! later, as the all-pairs stage does, reproduces the same bits.

use crate::sketch::{Sketch, EMPTY_SLOT};

/// A sketch list whose members disagree on length: what
/// [`SketchPlane::pack`] refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaggedSketches {
    /// Index of the first sketch whose length differs from sketch 0's.
    pub index: usize,
    /// That sketch's length.
    pub len: usize,
    /// Sketch 0's length.
    pub expected: usize,
}

impl std::fmt::Display for RaggedSketches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sketch {} has {} positions where sketch 0 has {}",
            self.index, self.len, self.expected
        )
    }
}

impl std::error::Error for RaggedSketches {}

/// One lane width of the plane.
trait Lane: Copy + Eq {
    /// The lane value standing for [`EMPTY_SLOT`].
    const EMPTY: Self;
    /// The lane holding sketch value `v`, or `None` when this width
    /// cannot hold it apart from its empty mark.
    fn pack(v: u64) -> Option<Self>;
}

impl Lane for u32 {
    const EMPTY: u32 = u32::MAX;
    fn pack(v: u64) -> Option<u32> {
        if v == EMPTY_SLOT {
            return Some(u32::MAX);
        }
        // A real value equal to `u32::MAX` would read as empty.
        u32::try_from(v).ok().filter(|&lane| lane != u32::MAX)
    }
}

impl Lane for u64 {
    const EMPTY: u64 = EMPTY_SLOT;
    fn pack(v: u64) -> Option<u64> {
        Some(v)
    }
}

#[derive(Debug)]
enum Lanes {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

/// `n` equal-length sketches packed row-major for all-pairs comparison.
#[derive(Debug)]
pub struct SketchPlane {
    /// Sketch length (lanes per row).
    width: usize,
    /// Per row, the number of lanes holding a real value.
    non_empty: Vec<usize>,
    lanes: Lanes,
}

/// All values of `sketches` in row order, or `None` at the first value
/// lane type `T` cannot hold.
fn pack_lanes<T: Lane>(sketches: &[Sketch], width: usize) -> Option<Vec<T>> {
    let mut lanes = Vec::with_capacity(sketches.len() * width);
    for sketch in sketches {
        for &v in sketch.values() {
            lanes.push(T::pack(v)?);
        }
    }
    Some(lanes)
}

/// Positions where rows `i` and `j` of `lanes` hold the same real
/// value. `masked` says whether both rows may hold an empty lane at
/// one position; when at least one row has none, two equal lanes are
/// never both empty and the plain equality count is already exact.
#[inline]
fn agreement_in<T: Lane>(lanes: &[T], width: usize, i: usize, j: usize, masked: bool) -> usize {
    let a = &lanes[i * width..(i + 1) * width];
    let b = &lanes[j * width..(j + 1) * width];
    // A `u32` sum keeps the loop in four-lane vectors; a row has far
    // fewer than 2³² positions.
    let agree: u32 = if masked {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| u32::from(x == y && x != T::EMPTY))
            .sum()
    } else {
        a.iter().zip(b).map(|(&x, &y)| u32::from(x == y)).sum()
    };
    agree as usize
}

impl SketchPlane {
    /// Pack `sketches`, which must all have one length. Narrow lanes
    /// are tried first and abandoned at the first real value
    /// `≥ u32::MAX`; the list is then packed wide.
    pub fn pack(sketches: &[Sketch]) -> Result<SketchPlane, RaggedSketches> {
        let width = sketches.first().map_or(0, Sketch::len);
        if let Some((index, s)) = sketches.iter().enumerate().find(|(_, s)| s.len() != width) {
            return Err(RaggedSketches {
                index,
                len: s.len(),
                expected: width,
            });
        }
        assert!(
            u32::try_from(width).is_ok(),
            "sketch width {width} exceeds the agreement counter"
        );
        let lanes = match pack_lanes::<u32>(sketches, width) {
            Some(narrow) => Lanes::Narrow(narrow),
            None => {
                Lanes::Wide(pack_lanes::<u64>(sketches, width).expect("u64 lanes hold any value"))
            }
        };
        Ok(SketchPlane {
            width,
            non_empty: sketches.iter().map(Sketch::non_empty).collect(),
            lanes,
        })
    }

    /// Number of sketches (rows).
    pub fn len(&self) -> usize {
        self.non_empty.len()
    }

    /// True for the plane of an empty sketch list.
    pub fn is_empty(&self) -> bool {
        self.non_empty.is_empty()
    }

    /// Whether the plane holds `u32` lanes (every real value packed
    /// was `< u32::MAX`).
    pub fn is_narrow(&self) -> bool {
        matches!(self.lanes, Lanes::Narrow(_))
    }

    /// Number of positions at which sketches `i` and `j` hold the same
    /// real minwise value; an empty position never agrees.
    #[inline]
    pub fn agreement(&self, i: usize, j: usize) -> usize {
        let masked = self.non_empty[i] < self.width && self.non_empty[j] < self.width;
        match &self.lanes {
            Lanes::Narrow(lanes) => agreement_in(lanes, self.width, i, j, masked),
            Lanes::Wide(lanes) => agreement_in(lanes, self.width, i, j, masked),
        }
    }

    /// Sketch length: the denominator of [`SketchPlane::similarity`].
    pub fn width(&self) -> usize {
        self.width
    }

    /// The numerator of [`SketchPlane::similarity`]: the
    /// [`agreement`](SketchPlane::agreement) of sketches `i` and `j`,
    /// or [`width`](SketchPlane::width) when both are degenerate (two
    /// sketches without a real value are identical). At most `width`.
    #[inline]
    pub fn count(&self, i: usize, j: usize) -> usize {
        if self.non_empty[i] == 0 && self.non_empty[j] == 0 {
            return self.width;
        }
        self.agreement(i, j)
    }

    /// [`positional_similarity`](crate::positional_similarity) of
    /// sketches `i` and `j`, bit for bit: zero-width sketches are
    /// identical (1.0), otherwise [`count`](SketchPlane::count) over
    /// the width.
    #[inline]
    pub fn similarity(&self, i: usize, j: usize) -> f64 {
        if self.width == 0 {
            return 1.0;
        }
        self.count(i, j) as f64 / self.width as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::positional_similarity;

    fn assert_matches_oracle(sketches: &[Sketch]) -> SketchPlane {
        let plane = SketchPlane::pack(sketches).unwrap();
        assert_eq!(plane.len(), sketches.len());
        for i in 0..sketches.len() {
            for j in 0..sketches.len() {
                assert_eq!(
                    plane.similarity(i, j).to_bits(),
                    positional_similarity(&sketches[i], &sketches[j]).to_bits(),
                    "pair ({i}, {j})"
                );
                assert!(plane.count(i, j) <= plane.width(), "pair ({i}, {j})");
            }
        }
        plane
    }

    #[test]
    fn lane_follows_the_values() {
        let small = [
            Sketch::from_values(vec![1, 2, 3]),
            Sketch::from_values(vec![1, EMPTY_SLOT, 3]),
            Sketch::from_values(vec![EMPTY_SLOT; 3]),
        ];
        assert!(assert_matches_oracle(&small).is_narrow());
        // `u32::MAX − 1` is the largest value a narrow lane holds.
        let edge = [
            Sketch::from_values(vec![u64::from(u32::MAX) - 1, 7]),
            Sketch::from_values(vec![u64::from(u32::MAX) - 1, EMPTY_SLOT]),
        ];
        assert!(assert_matches_oracle(&edge).is_narrow());
        // A real `u32::MAX` is not the empty mark: the plane goes wide
        // and the value still agrees with itself.
        let clash = [
            Sketch::from_values(vec![u64::from(u32::MAX), 7]),
            Sketch::from_values(vec![u64::from(u32::MAX), EMPTY_SLOT]),
            Sketch::from_values(vec![EMPTY_SLOT, EMPTY_SLOT]),
        ];
        let plane = assert_matches_oracle(&clash);
        assert!(!plane.is_narrow());
        assert_eq!(plane.agreement(0, 1), 1);
        assert_eq!(plane.agreement(1, 2), 0);
        // Two degenerate rows agree nowhere but count as identical.
        assert_eq!(plane.agreement(2, 2), 0);
        assert_eq!(plane.count(2, 2), plane.width());
        let big = [Sketch::from_values(vec![1 << 40, 5])];
        assert!(!assert_matches_oracle(&big).is_narrow());
    }

    #[test]
    fn empty_and_zero_width() {
        let plane = SketchPlane::pack(&[]).unwrap();
        assert!(plane.is_empty());
        let zero = [Sketch::from_values(vec![]), Sketch::from_values(vec![])];
        let plane = assert_matches_oracle(&zero);
        assert_eq!(plane.len(), 2);
        assert_eq!(plane.similarity(0, 1), 1.0);
    }

    #[test]
    fn ragged_list_is_refused() {
        let ragged = [
            Sketch::from_values(vec![1, 2]),
            Sketch::from_values(vec![1, 2]),
            Sketch::from_values(vec![1, 2, 3]),
        ];
        let err = SketchPlane::pack(&ragged).unwrap_err();
        assert_eq!(
            err,
            RaggedSketches {
                index: 2,
                len: 3,
                expected: 2
            }
        );
        assert!(err.to_string().contains("sketch 2 has 3 positions"));
    }
}
