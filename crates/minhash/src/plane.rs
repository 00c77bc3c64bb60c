//! The packed compare plane: many sketches as one row-major matrix of
//! narrow lanes, for stages that compare every sketch with every other.
//!
//! A [`Sketch`] is a heap `Vec<u64>`; an all-pairs stage that walks
//! `&[Sketch]` chases one pointer per operand and compares 8-byte
//! slots, although a comparison only asks whether two sketches hold
//! the *same* value at a position, never which. [`SketchPlane::pack`]
//! therefore replaces each value with its dense rank within its own
//! column (position), in order of first appearance, and stores the
//! ranks once as a contiguous `n × num_hashes` matrix. The map is
//! injective per column, so two rows agree at a position exactly when
//! their sketches do. Ranking walks one column at a time through a
//! table of that column's values alone, which stays in cache. The lane
//! is the narrowest of `u8`, `u16` and `u32` whose `MAX` stays free
//! for the empty mark: `u8` while no column holds more than 255
//! distinct values, `u16` up to 65 535, else `u32` (a rank is below the
//! row count). Minwise values concentrate on a family's smallest
//! hashes, so a column of thousands of sketches holds a few dozen
//! distinct values at most and the plane is one byte per position. The
//! lane follows the values, not `k` or the family, and every lane runs
//! the one generic body.
//!
//! [`SketchPlane::extend_counts`] is the one comparison kernel: one
//! row against a range of rows, the counts extended into a caller's
//! `Vec` (or any `Extend`). It picks the lane and the row's case
//! (full, partly empty, degenerate) once per call, so the loop over
//! pairs folds lane equalities and does nothing else. The all-pairs
//! stage calls it once per row; [`SketchPlane::count`] is the call over
//! one row. A [`RankedRelation`] keeps a plane's per-column rank tables
//! beside it, so rows from outside it (Pig's
//! `CalculatePairwiseSimilarity`, a chunk against the broadcast
//! relation) are ranked alone and counted by the same body.
//!
//! [`SketchPlane::count`] is [`agreements`](crate::agreements) on the
//! packed sketches, the same integer: a stage that ships the count
//! tests θ on it, and divides by the width only where it reports a
//! similarity, as the all-pairs stage's matrix does, to the same bits
//! as [`positional_similarity`](crate::positional_similarity).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use crate::sketch::{Sketch, EMPTY_SLOT};

/// A sketch list whose members disagree on length: what
/// [`SketchPlane::pack`] and [`RankedRelation::pack`] refuse, and what
/// [`RankedRelation::extend_counts`] answers for a row of another width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaggedSketches {
    /// Index of the first sketch whose length differs from sketch 0's
    /// (for [`RankedRelation::extend_counts`], the row's index).
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

/// One rank lane of the plane; its `MAX` is the empty mark.
trait Lane: Copy + Eq + TryFrom<u32> {
    /// The lane standing for [`EMPTY_SLOT`].
    const EMPTY: Self;

    /// Rank `rank` in this lane, or `None` when it does not stay below
    /// the empty mark.
    #[inline]
    fn of_rank(rank: u32) -> Option<Self> {
        Self::try_from(rank)
            .ok()
            .filter(|&lane| lane != Self::EMPTY)
    }
}

impl Lane for u8 {
    const EMPTY: u8 = u8::MAX;
}

impl Lane for u16 {
    const EMPTY: u16 = u16::MAX;
}

impl Lane for u32 {
    const EMPTY: u32 = u32::MAX;
}

#[derive(Debug)]
enum Lanes {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

/// `n` equal-length sketches packed row-major, as per-column ranks,
/// for all-pairs comparison.
#[derive(Debug)]
pub struct SketchPlane {
    /// Sketch length (lanes per row).
    width: usize,
    /// Per row, the number of lanes holding a real value.
    non_empty: Vec<usize>,
    lanes: Lanes,
}

/// A multiplicative hash for the rank table's keys. The keys are
/// minwise values, outputs of the family's own hash functions, so a
/// multiply mixes enough; SipHash made ranking three to four times
/// slower. A product's low bits see only the key's low bits, so
/// `finish` rotates the well-mixed high bits down to where the table
/// takes its bucket index: keys that share their low bits still
/// spread.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// One column's values and their ranks.
type RankTable = HashMap<u64, u32, BuildHasherDefault<MulHasher>>;

/// The ranks of `sketches`, `width` lanes per row, row-major, in lane
/// `L`, or `None` at the first rank that reaches `L`'s empty mark. Each
/// column is ranked on its own, in order of first appearance, through
/// one table that holds only that column's values and so stays in
/// cache; `keep`, when given, is cleared and then receives a copy of
/// each column's table.
fn ranked<L: Lane>(
    sketches: &[impl Borrow<Sketch>],
    width: usize,
    mut keep: Option<&mut Vec<RankTable>>,
) -> Option<Vec<L>> {
    let mut lanes = vec![L::EMPTY; sketches.len() * width];
    let mut ranks = RankTable::default();
    if let Some(tables) = keep.as_deref_mut() {
        tables.clear();
    }
    for column in 0..width {
        ranks.clear();
        for (lane, sketch) in lanes[column..].iter_mut().step_by(width).zip(sketches) {
            let v = sketch.borrow().values()[column];
            if v != EMPTY_SLOT {
                let next = ranks.len() as u32;
                *lane = L::of_rank(*ranks.entry(v).or_insert(next))?;
            }
        }
        if let Some(tables) = keep.as_deref_mut() {
            tables.push(ranks.clone());
        }
    }
    Some(lanes)
}

/// Which count a row takes against the others: its real values decide
/// it once per row.
#[derive(Clone, Copy)]
enum RowCase {
    /// No real value: the width against a degenerate row, else 0.
    Degenerate,
    /// No lane holds the empty mark, so plain lane equality is exact.
    Full,
    /// Some lane holds the empty mark, which agrees with nothing.
    Partial,
}

impl RowCase {
    /// The case of a row with `real` real values, `marked` of its
    /// `width` lanes holding the empty mark.
    #[inline]
    fn of(real: usize, marked: usize) -> RowCase {
        match (real, marked) {
            (0, _) => RowCase::Degenerate,
            (_, 0) => RowCase::Full,
            _ => RowCase::Partial,
        }
    }
}

/// The one comparison body: extend `out` with `narrow` of the count of
/// row `a` (of case `case`) against each `width`-lane row of `others`,
/// whose real-value counts are `others_real`. Only a row with a real
/// value walks the others' lanes, so the width is not zero there.
#[inline]
fn extend_row_counts<L: Lane, T>(
    a: &[L],
    case: RowCase,
    others: &[L],
    others_real: &[usize],
    out: &mut impl Extend<T>,
    narrow: impl Fn(usize) -> T,
) {
    let width = a.len();
    match case {
        RowCase::Degenerate => out.extend(
            others_real
                .iter()
                .map(|&k| narrow(if k == 0 { width } else { 0 })),
        ),
        RowCase::Full => out.extend(
            others
                .chunks_exact(width)
                .map(|b| narrow(equal_lanes(a, b) as usize)),
        ),
        RowCase::Partial => out.extend(
            others
                .chunks_exact(width)
                .map(|b| narrow(equal_real_lanes(a, b) as usize)),
        ),
    }
}

/// Positions where `a` and `b` hold the same lane. A `u32` sum keeps
/// the loop in vectors for every lane width; a row has far fewer than
/// 2³² positions.
#[inline]
fn equal_lanes<L: Lane>(a: &[L], b: &[L]) -> u32 {
    a.iter().zip(b).map(|(&x, &y)| u32::from(x == y)).sum()
}

/// Positions where `a` and `b` hold the same real value: as
/// [`equal_lanes`], but two empty marks do not agree.
#[inline]
fn equal_real_lanes<L: Lane>(a: &[L], b: &[L]) -> u32 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| u32::from((x == y) & (x != L::EMPTY)))
        .sum()
}

impl SketchPlane {
    /// Pack `sketches`, which must all have one length: rank each
    /// column's values, then store the ranks in the narrowest lane
    /// that holds the largest column's cardinality beside its empty
    /// mark. The sketches may be owned or borrowed, so a caller can
    /// pack sketches it keeps elsewhere beside its own without a copy.
    pub fn pack<S: Borrow<Sketch>>(sketches: &[S]) -> Result<SketchPlane, RaggedSketches> {
        SketchPlane::pack_keeping(sketches, None)
    }

    /// [`Self::pack`], handing `keep` each column's rank table when
    /// given.
    fn pack_keeping<S: Borrow<Sketch>>(
        sketches: &[S],
        mut keep: Option<&mut Vec<RankTable>>,
    ) -> Result<SketchPlane, RaggedSketches> {
        let width = sketches.first().map_or(0, |s| s.borrow().len());
        let lens = sketches.iter().map(|s| s.borrow().len());
        if let Some((index, len)) = lens.enumerate().find(|&(_, len)| len != width) {
            return Err(RaggedSketches {
                index,
                len,
                expected: width,
            });
        }
        assert!(
            u32::try_from(width).is_ok(),
            "sketch width {width} exceeds the agreement counter"
        );
        // A column's ranks stay below its row count, hence below the
        // `u32` lane's empty mark.
        assert!(
            u32::try_from(sketches.len()).is_ok_and(|n| n < u32::MAX),
            "{} sketches exceed the rank lane",
            sketches.len()
        );
        // The first lane in which every rank stays below the empty mark
        // is the narrowest that holds the largest column cardinality.
        let lanes = if let Some(lanes) = ranked(sketches, width, keep.as_deref_mut()) {
            Lanes::U8(lanes)
        } else if let Some(lanes) = ranked(sketches, width, keep.as_deref_mut()) {
            Lanes::U16(lanes)
        } else {
            let lanes = ranked(sketches, width, keep);
            Lanes::U32(lanes.expect("ranks stay below the row count"))
        };
        Ok(SketchPlane {
            width,
            non_empty: sketches.iter().map(|s| s.borrow().non_empty()).collect(),
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

    /// Bytes per lane: 1, 2 or 4, the narrowest whose `MAX` is free
    /// for the empty mark above every column's ranks.
    pub fn lane_bytes(&self) -> usize {
        match self.lanes {
            Lanes::U8(_) => 1,
            Lanes::U16(_) => 2,
            Lanes::U32(_) => 4,
        }
    }

    /// Sketch length: the number of positions a count is out of.
    pub fn width(&self) -> usize {
        self.width
    }

    /// [`agreements`](crate::agreements) of sketches `i` and `j`: the
    /// positions where both hold the same real value, or the
    /// [`width`](SketchPlane::width) when both are degenerate.
    #[inline]
    pub fn count(&self, i: usize, j: usize) -> usize {
        let mut count = Last(0);
        self.extend_counts(i, j..j + 1, &mut count, |c| c);
        count.0
    }

    /// Extend `out` with `narrow` of the [`count`](SketchPlane::count)
    /// of row `row` against each row of `rows`, in order. The lane and
    /// the row's case (full, partly empty, degenerate) are chosen once,
    /// so the loop over `rows` only folds lane equalities, and a `Vec`
    /// takes the counts as one sized `extend`.
    #[inline]
    pub fn extend_counts<T>(
        &self,
        row: usize,
        rows: Range<usize>,
        out: &mut impl Extend<T>,
        narrow: impl Fn(usize) -> T,
    ) {
        match &self.lanes {
            Lanes::U8(lanes) => self.extend_counts_in(lanes, row, rows, out, narrow),
            Lanes::U16(lanes) => self.extend_counts_in(lanes, row, rows, out, narrow),
            Lanes::U32(lanes) => self.extend_counts_in(lanes, row, rows, out, narrow),
        }
    }

    /// `extend_counts` over lanes `L`. A row without an empty lane
    /// never holds the empty mark where the other row does, so its
    /// plain equality count is exact.
    #[inline]
    fn extend_counts_in<L: Lane, T>(
        &self,
        lanes: &[L],
        row: usize,
        rows: Range<usize>,
        out: &mut impl Extend<T>,
        narrow: impl Fn(usize) -> T,
    ) {
        let width = self.width;
        let a = &lanes[row * width..(row + 1) * width];
        let others = &lanes[rows.start * width..rows.end * width];
        let real = self.non_empty[row];
        let case = RowCase::of(real, width - real);
        extend_row_counts(a, case, others, &self.non_empty[rows], out, narrow);
    }
}

/// A relation of sketches packed once as a [`SketchPlane`], with each
/// column's value→rank table kept beside it, so that rows from outside
/// the relation are counted against every relation row by ranking only
/// themselves: Pig's `CalculatePairwiseSimilarity` binds its broadcast
/// relation `I.E` so, once per call site, and ranks each chunk's own
/// rows per map task.
///
/// A value that a column of the relation lacks can agree with no
/// relation row there, so it takes the empty mark, as an empty slot
/// does; the row's case (degenerate, full, partly empty) is read off
/// its real values and its marks, so every count stays the
/// [`agreements`](crate::agreements) of the two sketches. The lane is
/// the one [`SketchPlane::pack`] picks for the relation.
#[derive(Debug)]
pub struct RankedRelation {
    plane: SketchPlane,
    /// Per column, each value of the relation and its rank.
    tables: Vec<RankTable>,
}

impl RankedRelation {
    /// Pack `sketches`, which must all have one length, as
    /// [`SketchPlane::pack`] does, keeping each column's rank table.
    pub fn pack<S: Borrow<Sketch>>(sketches: &[S]) -> Result<RankedRelation, RaggedSketches> {
        let mut tables = Vec::new();
        let plane = SketchPlane::pack_keeping(sketches, Some(&mut tables))?;
        Ok(RankedRelation { plane, tables })
    }

    /// Number of relation rows.
    pub fn len(&self) -> usize {
        self.plane.len()
    }

    /// True for the relation of no row.
    pub fn is_empty(&self) -> bool {
        self.plane.is_empty()
    }

    /// Extend `out` with `narrow` of the count of each of `rows` (one
    /// sketch's values each, in position order) against every relation
    /// row, in order: row after row, [`len`](Self::len) counts each.
    ///
    /// Every row must be as wide as the relation's sketches; against a
    /// relation of no row, as wide as the first row. The first that is
    /// not is refused, with its index in `rows`, after the counts of
    /// the rows before it.
    pub fn extend_counts<T, R: IntoIterator<Item = u64>>(
        &self,
        rows: impl IntoIterator<Item = R>,
        out: &mut impl Extend<T>,
        narrow: impl Fn(usize) -> T,
    ) -> Result<(), RaggedSketches> {
        match &self.plane.lanes {
            Lanes::U8(lanes) => self.extend_counts_in(lanes, rows, out, narrow),
            Lanes::U16(lanes) => self.extend_counts_in(lanes, rows, out, narrow),
            Lanes::U32(lanes) => self.extend_counts_in(lanes, rows, out, narrow),
        }
    }

    /// `extend_counts` over lanes `L`: each row is ranked into one
    /// reused buffer, then counted by the plane's comparison body.
    fn extend_counts_in<L: Lane, T, R: IntoIterator<Item = u64>>(
        &self,
        lanes: &[L],
        rows: impl IntoIterator<Item = R>,
        out: &mut impl Extend<T>,
        narrow: impl Fn(usize) -> T,
    ) -> Result<(), RaggedSketches> {
        let mut width = (!self.is_empty()).then_some(self.plane.width);
        let mut mine: Vec<L> = Vec::with_capacity(self.plane.width);
        for (index, row) in rows.into_iter().enumerate() {
            mine.clear();
            let mut real = 0;
            let mut tables = self.tables.iter();
            for v in row {
                let table = tables.next();
                let lane = match v {
                    EMPTY_SLOT => None,
                    v => {
                        real += 1;
                        let rank = table.and_then(|table| table.get(&v));
                        rank.and_then(|&rank| L::try_from(rank).ok())
                    }
                };
                mine.push(lane.unwrap_or(L::EMPTY));
            }
            let expected = *width.get_or_insert(mine.len());
            if mine.len() != expected {
                return Err(RaggedSketches {
                    index,
                    len: mine.len(),
                    expected,
                });
            }
            let marked = mine.iter().filter(|&&lane| lane == L::EMPTY).count();
            let case = RowCase::of(real, marked);
            extend_row_counts(&mine, case, lanes, &self.plane.non_empty, out, &narrow);
        }
        Ok(())
    }
}

/// The last item extended into it: [`SketchPlane::count`]'s target for
/// the one count of [`SketchPlane::extend_counts`] over a single row.
struct Last(usize);

impl Extend<usize> for Last {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, items: I) {
        items.into_iter().for_each(|c| self.0 = c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agreements;

    /// Every pair's count against the oracle, and each row's
    /// `extend_counts` over every row against its pairs' counts.
    fn assert_matches_oracle(sketches: &[Sketch]) -> SketchPlane {
        let plane = SketchPlane::pack(sketches).unwrap();
        let n = sketches.len();
        assert_eq!(plane.len(), n);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    plane.count(i, j),
                    agreements(&sketches[i], &sketches[j]),
                    "pair ({i}, {j})"
                );
                assert!(plane.count(i, j) <= plane.width(), "pair ({i}, {j})");
            }
            let mut counts = Vec::new();
            plane.extend_counts(i, 0..n, &mut counts, |c| c);
            assert!(counts.into_iter().eq((0..n).map(|j| plane.count(i, j))));
        }
        plane
    }

    /// `n` sketches whose column 0 holds `n` distinct values; column 1
    /// repeats three values, and every fifth row has it empty.
    fn distinct_column(n: u64) -> Vec<Sketch> {
        (0..n)
            .map(|i| {
                let second = if i % 5 == 4 { EMPTY_SLOT } else { i % 3 };
                Sketch::from_values(vec![i * 7919, second])
            })
            .collect()
    }

    #[test]
    fn lane_follows_the_values() {
        let small = [
            Sketch::from_values(vec![1, 2, 3]),
            Sketch::from_values(vec![1, EMPTY_SLOT, 3]),
            Sketch::from_values(vec![EMPTY_SLOT; 3]),
        ];
        assert_eq!(assert_matches_oracle(&small).lane_bytes(), 1);
        // The magnitude of a value is irrelevant: a real `u32::MAX`, a
        // value above 2³² and `EMPTY_SLOT − 1` each take a byte rank
        // and still agree with themselves.
        let big = [
            Sketch::from_values(vec![u64::from(u32::MAX), 7, 1 << 40]),
            Sketch::from_values(vec![u64::from(u32::MAX), EMPTY_SLOT, EMPTY_SLOT - 1]),
            Sketch::from_values(vec![EMPTY_SLOT, EMPTY_SLOT, EMPTY_SLOT - 1]),
            Sketch::from_values(vec![EMPTY_SLOT; 3]),
        ];
        let plane = assert_matches_oracle(&big);
        assert_eq!(plane.lane_bytes(), 1);
        assert_eq!(plane.count(0, 1), 1);
        assert_eq!(plane.count(1, 2), 1);
        // Two degenerate rows agree nowhere but count as identical.
        assert_eq!(plane.count(3, 3), plane.width());
        assert_eq!(plane.count(2, 3), 0);
        // 255 ranks leave the byte's `MAX` for the empty mark; the
        // 256th takes two bytes.
        assert_eq!(assert_matches_oracle(&distinct_column(255)).lane_bytes(), 1);
        assert_eq!(assert_matches_oracle(&distinct_column(256)).lane_bytes(), 2);
    }

    #[test]
    fn empty_and_zero_width() {
        let plane = SketchPlane::pack::<Sketch>(&[]).unwrap();
        assert!(plane.is_empty());
        let zero = [Sketch::from_values(vec![]), Sketch::from_values(vec![])];
        let plane = assert_matches_oracle(&zero);
        assert_eq!(plane.len(), 2);
        assert_eq!(plane.count(0, 1), 0);
    }

    #[test]
    fn ranked_relation_counts_outside_rows_as_agreements() {
        let relation = [
            Sketch::from_values(vec![1, 2, 3]),
            Sketch::from_values(vec![1, EMPTY_SLOT, 3]),
            Sketch::from_values(vec![EMPTY_SLOT; 3]),
            Sketch::from_values(vec![4, 2, 5]),
        ];
        let ranked = RankedRelation::pack(&relation).unwrap();
        assert_eq!(ranked.len(), 4);
        // Rows of the relation, values no relation row holds (a full
        // row of them among them), holes, and a degenerate row.
        let rows = [
            vec![1, 2, 3],
            vec![4, 9, 3],
            vec![7, 8, 9],
            vec![1, EMPTY_SLOT, 9],
            vec![EMPTY_SLOT, EMPTY_SLOT, 8],
            vec![EMPTY_SLOT; 3],
        ];
        let mut counts = Vec::new();
        ranked
            .extend_counts(rows.iter().map(|r| r.iter().copied()), &mut counts, |c| c)
            .unwrap();
        let expect = rows.iter().flat_map(|row| {
            let row = Sketch::from_values(row.clone());
            relation.iter().map(move |s| agreements(&row, s))
        });
        assert!(counts.iter().copied().eq(expect));
        // A row of another width is refused by its index, after the
        // counts of the rows before it.
        let ragged = [vec![1, 2, 3], vec![1, 2]];
        let mut counts = Vec::new();
        let err = ranked
            .extend_counts(ragged.iter().map(|r| r.iter().copied()), &mut counts, |c| c)
            .unwrap_err();
        assert_eq!(
            err,
            RaggedSketches {
                index: 1,
                len: 2,
                expected: 3
            }
        );
        assert_eq!(counts, [3, 2, 0, 1]);
        // Against no relation row, the first row sets the width.
        let none = RankedRelation::pack::<Sketch>(&[]).unwrap();
        let rows = [vec![1, 2], vec![3, 4], vec![5]];
        let err = none
            .extend_counts(rows.iter().map(|r| r.iter().copied()), &mut counts, |c| c)
            .unwrap_err();
        assert_eq!((err.index, err.len, err.expected), (2, 1, 2));
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
