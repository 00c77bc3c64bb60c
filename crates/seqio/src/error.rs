//! Error type for sequence parsing and k-mer encoding.

use std::fmt;
use std::io;

/// Errors produced while reading sequences or encoding their k-mers.
#[derive(Debug)]
pub enum SeqIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// FASTA structure violation (e.g. sequence data before any header).
    Format {
        /// 1-based line number where the problem was detected.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A k-mer size outside the supported range was requested.
    BadKmerSize {
        /// The requested k.
        k: usize,
        /// Largest supported k.
        max: usize,
    },
}

impl fmt::Display for SeqIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqIoError::Io(e) => write!(f, "I/O error: {e}"),
            SeqIoError::Format { line, message } => {
                write!(f, "FASTA format error at line {line}: {message}")
            }
            SeqIoError::BadKmerSize { k, max } => {
                write!(f, "k-mer size {k} unsupported (must be 1..={max})")
            }
        }
    }
}

impl std::error::Error for SeqIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SeqIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SeqIoError {
    fn from(e: io::Error) -> Self {
        SeqIoError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SeqIoError::Format {
            line: 7,
            message: "sequence data before the first header".into(),
        };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains("header"), "{s}");

        let e = SeqIoError::BadKmerSize { k: 40, max: 31 };
        assert!(e.to_string().contains("40"));
    }

    #[test]
    fn io_error_converts() {
        let e: SeqIoError = io::Error::new(io::ErrorKind::NotFound, "nope").into();
        assert!(matches!(e, SeqIoError::Io(_)));
    }
}
