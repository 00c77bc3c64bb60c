//! Needleman–Wunsch global alignment with linear gaps.
//!
//! The W.Sim evaluation metric needs the number of matched positions in
//! an *optimal global alignment*, so [`global_align`] runs a full DP
//! with traceback.

use crate::scoring::{substitution, GAP};

/// One column of an alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignmentOp {
    /// Both sequences consume a base and they are equal.
    Match,
    /// Both sequences consume a base and they differ.
    Mismatch,
    /// A gap in the second sequence (first consumes a base).
    Delete,
    /// A gap in the first sequence (second consumes a base).
    Insert,
}

/// Result of a pairwise alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Optimal alignment score under the fixed scheme of [`crate::scoring`].
    pub score: i32,
    /// Alignment operations from start to end.
    pub ops: Vec<AlignmentOp>,
}

impl Alignment {
    /// Number of `Match` columns.
    pub fn matches(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, AlignmentOp::Match))
            .count()
    }

    /// Alignment length (columns).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for the empty alignment (both inputs empty).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Identity = matches / alignment length; 1.0 for the empty
    /// alignment (two empty sequences are trivially identical).
    pub fn identity(&self) -> f64 {
        if self.ops.is_empty() {
            1.0
        } else {
            self.matches() as f64 / self.ops.len() as f64
        }
    }

    /// Render the aligned pair as two gapped ASCII strings.
    pub fn render(&self, a: &[u8], b: &[u8]) -> (String, String) {
        let mut ra = String::with_capacity(self.ops.len());
        let mut rb = String::with_capacity(self.ops.len());
        let (mut i, mut j) = (0usize, 0usize);
        for op in &self.ops {
            match op {
                AlignmentOp::Match | AlignmentOp::Mismatch => {
                    ra.push(a[i] as char);
                    rb.push(b[j] as char);
                    i += 1;
                    j += 1;
                }
                AlignmentOp::Delete => {
                    ra.push(a[i] as char);
                    rb.push('-');
                    i += 1;
                }
                AlignmentOp::Insert => {
                    ra.push('-');
                    rb.push(b[j] as char);
                    j += 1;
                }
            }
        }
        (ra, rb)
    }
}

/// Traceback directions, packed one byte per cell.
const TB_DIAG: u8 = 0;
const TB_UP: u8 = 1; // deletion: consume from `a`
const TB_LEFT: u8 = 2; // insertion: consume from `b`

/// Needleman–Wunsch with a linear gap penalty ([`GAP`] per gapped
/// position). Full traceback.
#[allow(clippy::needless_range_loop)] // DP row initialisation reads clearest indexed
pub fn global_align(a: &[u8], b: &[u8]) -> Alignment {
    let (n, m) = (a.len(), b.len());
    let width = m + 1;

    // Score rows (rolling) + full traceback matrix.
    let mut prev: Vec<i32> = (0..=m as i32).map(|j| -GAP * j).collect();
    let mut curr: Vec<i32> = vec![0; width];
    let mut tb: Vec<u8> = vec![0; (n + 1) * width];
    for j in 1..=m {
        tb[j] = TB_LEFT;
    }

    for i in 1..=n {
        curr[0] = -GAP * i as i32;
        tb[i * width] = TB_UP;
        let ai = a[i - 1];
        for j in 1..=m {
            let diag = prev[j - 1] + substitution(ai, b[j - 1]);
            let up = prev[j] - GAP;
            let left = curr[j - 1] - GAP;
            // Deterministic tie-break: diagonal preferred, then up.
            let (best, dir) = if diag >= up && diag >= left {
                (diag, TB_DIAG)
            } else if up >= left {
                (up, TB_UP)
            } else {
                (left, TB_LEFT)
            };
            curr[j] = best;
            tb[i * width + j] = dir;
        }
        std::mem::swap(&mut prev, &mut curr);
    }

    let score = prev[m];
    let ops = traceback(a, b, &tb, width);
    Alignment { score, ops }
}

fn traceback(a: &[u8], b: &[u8], tb: &[u8], width: usize) -> Vec<AlignmentOp> {
    let (mut i, mut j) = (a.len(), b.len());
    let mut ops = Vec::with_capacity(i.max(j));
    while i > 0 || j > 0 {
        match tb[i * width + j] {
            TB_DIAG if i > 0 && j > 0 => {
                ops.push(if a[i - 1].eq_ignore_ascii_case(&b[j - 1]) {
                    AlignmentOp::Match
                } else {
                    AlignmentOp::Mismatch
                });
                i -= 1;
                j -= 1;
            }
            TB_UP if i > 0 => {
                ops.push(AlignmentOp::Delete);
                i -= 1;
            }
            _ => {
                ops.push(AlignmentOp::Insert);
                j -= 1;
            }
        }
    }
    ops.reverse();
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical() {
        let aln = global_align(b"ACGT", b"ACGT");
        assert_eq!(aln.score, 4);
        assert_eq!(aln.matches(), 4);
        assert!((aln.identity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_substitution() {
        let aln = global_align(b"ACGT", b"AGGT");
        assert_eq!(aln.score, 2); // 3 matches - 1 mismatch
        assert_eq!(aln.matches(), 3);
        assert_eq!(aln.len(), 4);
    }

    #[test]
    fn single_deletion() {
        let aln = global_align(b"ACGT", b"AGT");
        assert_eq!(aln.score, 1); // 3 matches - 1 gap(2)
        assert_eq!(aln.len(), 4);
        assert_eq!(
            aln.ops
                .iter()
                .filter(|o| matches!(o, AlignmentOp::Delete))
                .count(),
            1
        );
    }

    #[test]
    fn empty_inputs() {
        let aln = global_align(b"", b"");
        assert_eq!(aln.score, 0);
        assert!(aln.is_empty());
        assert_eq!(aln.identity(), 1.0);

        let aln = global_align(b"ACG", b"");
        assert_eq!(aln.score, -6);
        assert_eq!(aln.len(), 3);
        assert_eq!(aln.identity(), 0.0);
    }

    #[test]
    fn render_round_trips_sequences() {
        let a = b"GATTACA";
        let b = b"GCATGCT";
        let aln = global_align(a, b);
        let (ra, rb) = aln.render(a, b);
        assert_eq!(ra.replace('-', "").as_bytes(), a);
        assert_eq!(rb.replace('-', "").as_bytes(), b);
        assert_eq!(ra.len(), rb.len());
    }

    #[test]
    fn alignment_is_symmetric_in_score() {
        let (a, b): (&[u8], &[u8]) = (b"ACGTTGCA", b"AGGTTGA");
        assert_eq!(global_align(a, b).score, global_align(b, a).score);
    }
}
