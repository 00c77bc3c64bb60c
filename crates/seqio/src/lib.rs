//! Sequence I/O substrate for MrMC-MinH.
//!
//! The paper's pipeline (Fig. 1) begins with FASTA files stored on HDFS;
//! each mapper parses records, encodes the DNA alphabet into integers
//! (the `StringGenerator` UDF) and decomposes sequences into k-mers (the
//! `TranslateToKmer` UDF). This crate provides those primitives:
//!
//! * [`alphabet`] — the DNA alphabet and its 2-bit nucleotide codes;
//! * [`record`] — owned sequence records with ids and descriptions;
//! * [`fasta`] — a streaming FASTA reader/writer tolerant of the
//!   formatting found in real amplicon datasets;
//! * [`encode`] — 2-bit packed k-mers, extracted by a rolling window;
//! * [`stats`] — per-sequence and per-sample summaries (GC content,
//!   length distributions) used by the dataset registry.
//!
//! Everything is `std`-only and allocation-conscious: record parsing
//! reuses buffers and k-mer encoding is rolling (O(1) per position).

pub mod alphabet;
pub mod encode;
pub mod error;
pub mod fasta;
pub mod fastq;
pub mod record;
pub mod stats;

pub use alphabet::{encode_base, Base};
pub use encode::KmerIter;
pub use error::SeqIoError;
pub use fasta::{read_fasta_bytes, read_fasta_path, write_fasta, FastaReader};
pub use fastq::{read_fastq_bytes, write_fastq, FastqReader, FastqRecord};
pub use record::SeqRecord;
pub use stats::{gc_content, LengthStats, SampleStats};
