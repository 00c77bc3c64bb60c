//! Streaming FASTA reader and writer.
//!
//! The reader is an iterator over [`SeqRecord`]s driven by any
//! `BufRead`, tolerating multi-line bodies, `\r\n` endings, blank lines
//! and trailing whitespace — the realities of amplicon datasets. The
//! paper's `FastaStorage` UDF plays the same role on HDFS; here the same
//! parser backs both local files and DFS blocks.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use crate::error::SeqIoError;
use crate::record::SeqRecord;

/// Iterator over FASTA records from any buffered reader.
///
/// A single-line record costs two allocations: its header line, which
/// becomes the id when there is no description, and its sequence,
/// reserved before each body line is appended. Lines are read into one
/// buffer the reader keeps.
pub struct FastaReader<R: BufRead> {
    reader: R,
    /// The line last read, without its line ending.
    line: String,
    /// Lookahead header line (without `>`), if one has been consumed.
    pending_header: Option<String>,
    line_no: usize,
    done: bool,
}

impl<R: BufRead> FastaReader<R> {
    /// Wrap a buffered reader.
    pub fn new(reader: R) -> Self {
        FastaReader {
            reader,
            line: String::new(),
            pending_header: None,
            line_no: 0,
            done: false,
        }
    }

    /// Read the next line into `self.line`; 0 at end of input.
    fn read_line(&mut self) -> io::Result<usize> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n > 0 {
            self.line_no += 1;
        }
        // Strip any trailing CR/LF.
        while self.line.ends_with('\n') || self.line.ends_with('\r') {
            self.line.pop();
        }
        Ok(n)
    }

    fn next_record(&mut self) -> Result<Option<SeqRecord>, SeqIoError> {
        // Find the header: either the pending one or scan forward.
        let header = loop {
            if let Some(h) = self.pending_header.take() {
                break h;
            }
            let n = self.read_line()?;
            if n == 0 {
                return Ok(None);
            }
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with(';') {
                continue; // blank line or old-style comment
            }
            if let Some(rest) = trimmed.strip_prefix('>') {
                break rest.to_string();
            }
            return Err(SeqIoError::Format {
                line: self.line_no,
                message: format!("sequence data before any '>' header: {trimmed:?}"),
            });
        };

        let (id, description) = match header.split_once(char::is_whitespace) {
            Some((id, rest)) => (id.to_string(), rest.trim().to_string()),
            None => (header, String::new()),
        };
        if id.is_empty() {
            return Err(SeqIoError::Format {
                line: self.line_no,
                message: "empty record id".to_string(),
            });
        }

        let mut seq = Vec::new();
        loop {
            let n = self.read_line()?;
            if n == 0 {
                self.done = true;
                break;
            }
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with(';') {
                continue;
            }
            if let Some(rest) = trimmed.strip_prefix('>') {
                self.pending_header = Some(rest.to_string());
                break;
            }
            // The filter hides the length from `extend`; an inner space
            // only makes the reservation generous.
            seq.reserve(trimmed.len());
            seq.extend(trimmed.bytes().filter(|b| !b.is_ascii_whitespace()));
        }

        Ok(Some(SeqRecord {
            id,
            description,
            seq,
        }))
    }
}

impl<R: BufRead> Iterator for FastaReader<R> {
    type Item = Result<SeqRecord, SeqIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done && self.pending_header.is_none() {
            return None;
        }
        self.next_record().transpose()
    }
}

/// Parse every record from an in-memory FASTA byte slice.
pub fn read_fasta_bytes(bytes: &[u8]) -> Result<Vec<SeqRecord>, SeqIoError> {
    FastaReader::new(bytes).collect()
}

/// Parse every record from a file on disk.
pub fn read_fasta_path(path: impl AsRef<Path>) -> Result<Vec<SeqRecord>, SeqIoError> {
    let file = File::open(path)?;
    FastaReader::new(BufReader::new(file)).collect()
}

/// Serialize records to FASTA, wrapping bodies at `width` columns
/// (0 = no wrapping).
pub fn write_fasta<W: Write>(out: &mut W, records: &[SeqRecord], width: usize) -> io::Result<()> {
    for r in records {
        if r.description.is_empty() {
            writeln!(out, ">{}", r.id)?;
        } else {
            writeln!(out, ">{} {}", r.id, r.description)?;
        }
        if width == 0 {
            out.write_all(&r.seq)?;
            writeln!(out)?;
        } else {
            for chunk in r.seq.chunks(width) {
                out.write_all(chunk)?;
                writeln!(out)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_record() {
        let recs = read_fasta_bytes(b">r1 a description\nACGT\n").unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, "r1");
        assert_eq!(recs[0].description, "a description");
        assert_eq!(recs[0].seq, b"ACGT");
    }

    #[test]
    fn parses_multi_line_bodies_and_crlf() {
        let recs = read_fasta_bytes(b">r1\r\nACGT\r\nTTAA\r\n>r2\nGG\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, b"ACGTTTAA");
        assert_eq!(recs[1].seq, b"GG");
    }

    #[test]
    fn skips_blank_lines_and_comments() {
        let recs = read_fasta_bytes(b"; file comment\n\n>r1\n\nAC\n;mid\nGT\n").unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].seq, b"ACGT");
    }

    #[test]
    fn record_with_empty_body_is_kept() {
        let recs = read_fasta_bytes(b">r1\n>r2\nAC\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].seq.is_empty());
    }

    #[test]
    fn data_before_header_is_an_error() {
        let err = read_fasta_bytes(b"ACGT\n>r1\nAC\n").unwrap_err();
        assert!(matches!(err, SeqIoError::Format { line: 1, .. }));
    }

    #[test]
    fn empty_input_yields_no_records() {
        assert!(read_fasta_bytes(b"").unwrap().is_empty());
        assert!(read_fasta_bytes(b"\n\n").unwrap().is_empty());
    }

    #[test]
    fn round_trip_with_wrapping() {
        let records = vec![
            SeqRecord::with_description("a", "desc", b"ACGTACGTACGT".to_vec()),
            SeqRecord::new("b", b"TT".to_vec()),
        ];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &records, 5).unwrap();
        let parsed = read_fasta_bytes(&buf).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn round_trip_without_wrapping() {
        let records = vec![SeqRecord::new("x", b"ACGT".to_vec())];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &records, 0).unwrap();
        assert_eq!(read_fasta_bytes(&buf).unwrap(), records);
    }

    #[test]
    fn whitespace_within_body_lines_is_dropped() {
        let recs = read_fasta_bytes(b">r1\nAC GT\n").unwrap();
        assert_eq!(recs[0].seq, b"ACGT");
    }
}
