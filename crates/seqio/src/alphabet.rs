//! The DNA alphabet and its 2-bit integer encoding.
//!
//! MrMC-MinH's `StringGenerator` UDF maps DNA characters to integers
//! before k-mer extraction. We use the conventional 2-bit code
//! `A=0, C=1, G=2, T=3`, which lets a k-mer of length ≤ 31 live in one
//! `u64` — the integer feature `x` fed to the universal hash functions
//! of Eq. 5.

/// A single unambiguous DNA nucleotide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Base {
    /// Adenine, code 0.
    A = 0,
    /// Cytosine, code 1.
    C = 1,
    /// Guanine, code 2.
    G = 2,
    /// Thymine, code 3.
    T = 3,
}

impl Base {
    /// All four bases in code order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// The 2-bit code of this base.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The base for a 2-bit code. Panics if `code > 3`.
    #[inline]
    pub fn from_code(code: u8) -> Base {
        match code & 3 {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            _ => Base::T,
        }
    }

    /// Upper-case ASCII letter for this base.
    #[inline]
    pub fn to_ascii(self) -> u8 {
        match self {
            Base::A => b'A',
            Base::C => b'C',
            Base::G => b'G',
            Base::T => b'T',
        }
    }
}

/// Encode one ASCII nucleotide into its 2-bit code.
///
/// Accepts upper- or lower-case `ACGT`. `U` (RNA) is treated as `T`,
/// which lets 16S rRNA-derived data flow through unchanged. Returns
/// `None` for ambiguity codes (`N`, IUPAC wobble letters) and anything
/// else — callers decide whether to skip, error, or split at ambiguous
/// positions (the k-mer iterator restarts after them, mirroring how the
/// paper's feature sets only contain exact k-mers).
///
/// One load from a 256-entry table: random bases would mispredict
/// almost every branch of a `match`.
#[inline]
pub fn encode_base(c: u8) -> Option<u8> {
    match CODE[usize::from(c)] {
        INVALID => None,
        code => Some(code),
    }
}

/// [`CODE`]'s entry for a byte that is not a base.
const INVALID: u8 = 4;

/// The 2-bit code of every byte, [`INVALID`] for a non-base.
const CODE: [u8; 256] = {
    let mut code = [INVALID; 256];
    code[b'A' as usize] = 0;
    code[b'a' as usize] = 0;
    code[b'C' as usize] = 1;
    code[b'c' as usize] = 1;
    code[b'G' as usize] = 2;
    code[b'g' as usize] = 2;
    code[b'T' as usize] = 3;
    code[b't' as usize] = 3;
    code[b'U' as usize] = 3;
    code[b'u' as usize] = 3;
    code
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for b in Base::ALL {
            assert_eq!(Base::from_code(b.code()), b);
            assert_eq!(encode_base(b.to_ascii()), Some(b.code()));
        }
    }

    #[test]
    fn lower_case_and_rna_accepted() {
        assert_eq!(encode_base(b'a'), Some(0));
        assert_eq!(encode_base(b'u'), Some(3));
        assert_eq!(encode_base(b'U'), Some(3));
    }

    #[test]
    fn ambiguity_codes_rejected() {
        for c in [b'N', b'n', b'R', b'Y', b'-', b'*', b' '] {
            assert_eq!(encode_base(c), None, "{}", c as char);
        }
    }

    /// The `match` the table replaced, kept as the oracle.
    fn encode_base_by_match(c: u8) -> Option<u8> {
        match c {
            b'A' | b'a' => Some(0),
            b'C' | b'c' => Some(1),
            b'G' | b'g' => Some(2),
            b'T' | b't' | b'U' | b'u' => Some(3),
            _ => None,
        }
    }

    #[test]
    fn code_table_matches_the_match_on_every_byte() {
        for c in 0..=u8::MAX {
            assert_eq!(encode_base(c), encode_base_by_match(c), "byte {c}");
        }
    }
}
