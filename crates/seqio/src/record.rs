//! Owned sequence records.

use crate::stats::gc_content;

/// A single sequence record as parsed from FASTA.
///
/// `id` is the first whitespace-delimited token after `>`; `description`
/// is the remainder of the header line (possibly empty). The sequence is
/// stored as raw ASCII bytes so records survive a round trip even when
/// they contain ambiguity codes the 2-bit encoder rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqRecord {
    /// Unique identifier (first header token).
    pub id: String,
    /// Remainder of the header line after the id.
    pub description: String,
    /// Sequence bytes (ASCII, case preserved).
    pub seq: Vec<u8>,
}

impl SeqRecord {
    /// Construct a record from parts.
    pub fn new(id: impl Into<String>, seq: impl Into<Vec<u8>>) -> Self {
        SeqRecord {
            id: id.into(),
            description: String::new(),
            seq: seq.into(),
        }
    }

    /// Construct a record with a description.
    pub fn with_description(
        id: impl Into<String>,
        description: impl Into<String>,
        seq: impl Into<Vec<u8>>,
    ) -> Self {
        SeqRecord {
            id: id.into(),
            description: description.into(),
            seq: seq.into(),
        }
    }

    /// Sequence length in bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the sequence body is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// GC fraction of this record (0.0 for empty sequences).
    pub fn gc(&self) -> f64 {
        gc_content(&self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        let r = SeqRecord::new("read1", b"ACGT".to_vec());
        assert_eq!(r.id, "read1");
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert_eq!(r.seq, b"ACGT");
    }

    #[test]
    fn gc_of_record() {
        let r = SeqRecord::new("r", b"GGCC".to_vec());
        assert!((r.gc() - 1.0).abs() < 1e-12);
        let r = SeqRecord::new("r", b"AATT".to_vec());
        assert!(r.gc().abs() < 1e-12);
    }

    #[test]
    fn with_description_keeps_parts() {
        let r = SeqRecord::with_description("id1", "sample=53R depth=1400", b"AC".to_vec());
        assert_eq!(r.description, "sample=53R depth=1400");
    }
}
