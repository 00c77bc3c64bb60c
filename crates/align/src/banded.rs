//! Banded global alignment for high-identity pairs.
//!
//! CD-HIT and UCLUST cluster sequences that are *highly similar*, so
//! the optimal alignment path stays near the diagonal. Restricting the
//! DP to a band of half-width `band` around the diagonal turns the
//! O(n·m) computation into O(band·max(n,m)). If the optimal path leaves
//! the band the banded score is a lower bound; callers using it as an
//! identity filter simply get a conservative answer.

use crate::global::{Alignment, AlignmentOp};
use crate::scoring::{substitution, GAP};

const NEG: i32 = i32::MIN / 4;

/// Banded Needleman–Wunsch with linear gaps and traceback.
///
/// `band` is the half-width: cell `(i, j)` is computed only when
/// `|j - i - skew| <= band`, with `skew = m - n` applied at the end so
/// the corner `(n, m)` is always inside the band. A `band` of at least
/// `|n - m|` is enforced (otherwise the corner is unreachable).
pub fn banded_global(a: &[u8], b: &[u8], band: usize) -> Alignment {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        // Degenerate: all gaps.
        let ops = vec![AlignmentOp::Delete; n]
            .into_iter()
            .chain(vec![AlignmentOp::Insert; m])
            .collect::<Vec<_>>();
        let score = -GAP * (n + m) as i32;
        return Alignment { score, ops };
    }
    let band = band.max(n.abs_diff(m)).max(1);
    let bw = 2 * band + 1; // stored cells per row, centred on j = i

    // score[i][d] where d = j - i + band ∈ [0, bw).
    let idx = |i: usize, d: usize| i * bw + d;
    let mut score = vec![NEG; (n + 1) * bw];
    let mut tb = vec![0u8; (n + 1) * bw];
    const TB_DIAG: u8 = 0;
    const TB_UP: u8 = 1;
    const TB_LEFT: u8 = 2;

    // Row 0: j ∈ [0, band].
    for j in 0..=band.min(m) {
        score[idx(0, j + band)] = -GAP * j as i32;
        tb[idx(0, j + band)] = TB_LEFT;
    }

    for i in 1..=n {
        let j_lo = i.saturating_sub(band);
        let j_hi = (i + band).min(m);
        if j_lo > m {
            break;
        }
        let ai = a[i - 1];
        for j in j_lo..=j_hi {
            let d = j + band - i;
            if j == 0 {
                score[idx(i, d)] = -GAP * i as i32;
                tb[idx(i, d)] = TB_UP;
                continue;
            }
            // Diagonal (i-1, j-1) has the same d.
            let diag = score[idx(i - 1, d)] + substitution(ai, b[j - 1]);
            // Up (i-1, j): d+1 in the previous row.
            let up = if d + 1 < bw {
                score[idx(i - 1, d + 1)] - GAP
            } else {
                NEG
            };
            // Left (i, j-1): d-1 in this row.
            let left = if d > 0 {
                score[idx(i, d - 1)] - GAP
            } else {
                NEG
            };
            let (best, dir) = if diag >= up && diag >= left {
                (diag, TB_DIAG)
            } else if up >= left {
                (up, TB_UP)
            } else {
                (left, TB_LEFT)
            };
            score[idx(i, d)] = best;
            tb[idx(i, d)] = dir;
        }
    }

    let final_d = m + band - n;
    let final_score = score[idx(n, final_d)];

    // Traceback.
    let (mut i, mut j) = (n, m);
    let mut ops = Vec::with_capacity(n.max(m));
    while i > 0 || j > 0 {
        let d = j + band - i;
        match tb[idx(i, d)] {
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
    Alignment {
        score: final_score,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::global_align;

    #[test]
    fn wide_band_matches_full_dp() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"ACGTACGTAC", b"ACGAACGTAC"),
            (b"GATTACA", b"GCATGCT"),
            (b"ACGT", b"ACG"),
            (b"AAAACCCC", b"AAAACCCC"),
        ];
        for (a, b) in cases {
            let full = global_align(a, b);
            let banded = banded_global(a, b, a.len().max(b.len()));
            assert_eq!(banded.score, full.score);
        }
    }

    #[test]
    fn narrow_band_is_lower_bound() {
        let a = b"AAAATTTTCCCCGGGG";
        let b = b"TTTTCCCCGGGGAAAA"; // optimal path strays far off-diagonal
        let full = global_align(a, b).score;
        let banded = banded_global(a, b, 2).score;
        assert!(banded <= full);
    }

    #[test]
    fn high_identity_pair_fast_path() {
        let a = b"ACGTACGTACGTACGTACGT";
        let mut bv = a.to_vec();
        bv[6] = b'T'; // one substitution (G -> T)
        let aln = banded_global(a, &bv, 3);
        assert_eq!(aln.matches(), a.len() - 1);
        assert!((aln.identity() - 0.95).abs() < 1e-9);
    }

    #[test]
    fn length_difference_widens_band() {
        // band smaller than |n-m| would make the corner unreachable;
        // constructor widens it automatically.
        let a = b"ACGTACGTACGT";
        let b = b"ACGT";
        let aln = banded_global(a, b, 1);
        let (ra, rb) = aln.render(a, b);
        assert_eq!(ra.replace('-', "").as_bytes(), a.as_slice());
        assert_eq!(rb.replace('-', "").as_bytes(), b.as_slice());
    }

    #[test]
    fn empty_inputs() {
        let aln = banded_global(b"", b"ACG", 4);
        assert_eq!(aln.len(), 3);
        assert_eq!(aln.score, -6);
        let aln = banded_global(b"", b"", 4);
        assert!(aln.is_empty());
    }
}
