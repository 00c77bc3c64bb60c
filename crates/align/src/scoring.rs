//! The one alignment scoring scheme: +1 match, −1 mismatch, and a
//! linear gap penalty of 2 per gapped position. These are the simple
//! schemes of 16S OTU pipelines (DOTUR and kin), where distances are
//! dominated by substitutions.

/// Score for two identical bases.
pub const MATCH: i32 = 1;
/// Score for two different bases.
pub const MISMATCH: i32 = -1;
/// Penalty charged per gapped position (subtracted).
pub const GAP: i32 = 2;

/// Score of aligning bases `a` against `b` (case-insensitive).
#[inline]
pub fn substitution(a: u8, b: u8) -> i32 {
    if a.eq_ignore_ascii_case(&b) {
        MATCH
    } else {
        MISMATCH
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substitution_case_insensitive() {
        assert_eq!(substitution(b'A', b'a'), MATCH);
        assert_eq!(substitution(b'A', b'C'), MISMATCH);
    }
}
