//! An in-memory distributed filesystem modelling HDFS.
//!
//! Files are stored once (cheaply shareable [`Bytes`]) and *described*
//! as a sequence of fixed-size blocks, each with a replica set placed
//! on simulated datanodes. The namenode role — path → block metadata,
//! replica tracking, split computation — is what the Map-Reduce engine
//! consumes: an [`InputSplit`] per block with locality hints.
//!
//! # Checksums and corruption
//!
//! Like HDFS, every replica records the checksum of the bytes it holds,
//! computed at write time. A read verifies each replica checksum
//! against the recomputed content checksum; a mismatch means bit-rot
//! on that replica. The reader then falls back to a surviving good
//! replica, quarantines the corrupt copies, and re-replicates the block
//! back to full strength — only when *every* replica is corrupt does
//! the read fail with [`MrError::CorruptBlock`]. Repairs are tallied in
//! the DFS's [`RecoveryCounters`] (see [`Dfs::recovery`]).
//!
//! Corruption is scheduled through a [`FaultInjector`]
//! ([`Dfs::with_injector`], e.g. `FaultPlan::corrupt_replica`) whose
//! `replica_corrupted` answers are applied once per block on first
//! read.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use mrmc_chaos::{FaultInjector, NoFaults, RecoveryCounters};
use parking_lot::RwLock;

use crate::error::MrError;

/// DFS tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfsConfig {
    /// Block size in bytes (HDFS default is 64–128 MiB; tests use small
    /// values so multi-block paths are exercised).
    pub block_size: usize,
    /// Replication factor (HDFS default 3).
    pub replication: usize,
    /// Number of simulated datanodes.
    pub nodes: usize,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            block_size: 64 * 1024 * 1024,
            replication: 3,
            nodes: 8,
        }
    }
}

/// One replica of a block on one datanode.
#[derive(Debug, Clone, Copy)]
struct Replica {
    /// Datanode holding the copy.
    node: usize,
    /// Checksum of the bytes this copy holds; diverges from the
    /// block's content checksum when the copy rots.
    checksum: u64,
}

#[derive(Debug, Clone)]
struct BlockMeta {
    /// Byte range of this block within its file.
    range: std::ops::Range<usize>,
    /// Replicas currently holding a copy.
    replicas: Vec<Replica>,
    /// Injector-scheduled corruption has been applied (it fires once
    /// per block, on first read, so repairs are not re-corrupted).
    faults_applied: bool,
}

#[derive(Debug, Clone)]
struct FileMeta {
    content: Bytes,
    blocks: Vec<BlockMeta>,
}

/// One unit of map input: a block-aligned byte range of a file, with
/// the nodes that hold it locally.
#[derive(Debug, Clone)]
pub struct InputSplit {
    /// Path of the file this split belongs to.
    pub path: String,
    /// Index of the split within the file.
    pub index: usize,
    /// The *whole* file contents (cheap refcounted handle); readers use
    /// `range` plus record-boundary rules, exactly like an HDFS reader
    /// that can read past its block for a record tail.
    pub file: Bytes,
    /// The byte range this split owns.
    pub range: std::ops::Range<usize>,
    /// Datanodes holding the underlying block (locality hints).
    pub preferred_nodes: Vec<usize>,
}

/// The in-memory DFS.
pub struct Dfs {
    config: DfsConfig,
    files: RwLock<HashMap<String, FileMeta>>,
    /// Scheduled corruption source (NoFaults by default).
    injector: Arc<dyn FaultInjector>,
    corrupt_detected: AtomicU64,
    blocks_rereplicated: AtomicU64,
}

impl Dfs {
    /// Create a DFS with the given configuration and no fault
    /// injection.
    pub fn new(config: DfsConfig) -> Result<Dfs, MrError> {
        Dfs::with_injector(config, Arc::new(NoFaults))
    }

    /// Create a DFS whose reads consult `injector` for scheduled
    /// replica corruption.
    pub fn with_injector(
        config: DfsConfig,
        injector: Arc<dyn FaultInjector>,
    ) -> Result<Dfs, MrError> {
        if config.nodes == 0 {
            return Err(MrError::BadConfig("DFS needs at least one node".into()));
        }
        if config.block_size == 0 {
            return Err(MrError::BadConfig("block size must be positive".into()));
        }
        if config.replication == 0 || config.replication > config.nodes {
            return Err(MrError::BadConfig(format!(
                "replication {} invalid for {} nodes",
                config.replication, config.nodes
            )));
        }
        Ok(Dfs {
            config,
            files: RwLock::new(HashMap::new()),
            injector,
            corrupt_detected: AtomicU64::new(0),
            blocks_rereplicated: AtomicU64::new(0),
        })
    }

    /// The configuration this DFS was built with.
    pub fn config(&self) -> DfsConfig {
        self.config
    }

    /// What the DFS has done to survive corruption so far (only the
    /// `corrupt_replicas_detected` / `blocks_rereplicated` fields are
    /// meaningful here).
    pub fn recovery(&self) -> RecoveryCounters {
        RecoveryCounters {
            corrupt_replicas_detected: self.corrupt_detected.load(Ordering::Relaxed),
            blocks_rereplicated: self.blocks_rereplicated.load(Ordering::Relaxed),
            ..RecoveryCounters::new()
        }
    }

    /// Store a file. Errors if the path exists and `overwrite` is false.
    pub fn put(
        &self,
        path: &str,
        content: impl Into<Bytes>,
        overwrite: bool,
    ) -> Result<(), MrError> {
        let content: Bytes = content.into();
        let mut files = self.files.write();
        if files.contains_key(path) && !overwrite {
            return Err(MrError::FileExists(path.to_string()));
        }
        // Compute block layout and replica placement. Placement is the
        // classic round-robin-from-hash scheme: replicas of block i go
        // to consecutive nodes starting at (hash(path) + i).
        let DfsConfig {
            block_size,
            replication,
            nodes,
        } = self.config;
        let base = path_hash(path) as usize;
        let n_blocks = content.len().div_ceil(block_size).max(1);
        let blocks = (0..n_blocks)
            .map(|i| {
                let range = i * block_size..((i + 1) * block_size).min(content.len());
                let checksum = content_checksum(&content[range.clone()]);
                let replicas = (0..replication)
                    .map(|r| Replica {
                        node: base.wrapping_add(i + r) % nodes,
                        checksum,
                    })
                    .collect();
                BlockMeta {
                    range,
                    replicas,
                    faults_applied: false,
                }
            })
            .collect();
        files.insert(path.to_string(), FileMeta { content, blocks });
        Ok(())
    }

    /// Read a whole file, verifying every block's checksum.
    ///
    /// A replica whose checksum mismatches is quarantined; the read
    /// falls back to a surviving good replica and the block is
    /// re-replicated. Fails with [`MrError::CorruptBlock`] when every
    /// replica of a block is corrupt.
    pub fn read(&self, path: &str) -> Result<Bytes, MrError> {
        let mut files = self.files.write();
        let file = files
            .get_mut(path)
            .ok_or_else(|| MrError::FileNotFound(path.to_string()))?;
        for (i, b) in file.blocks.iter_mut().enumerate() {
            // Scheduled bit-rot lands once per block, on first read.
            if !b.faults_applied {
                b.faults_applied = true;
                for (ord, r) in b.replicas.iter_mut().enumerate() {
                    if self.injector.replica_corrupted(path, i, ord) {
                        r.checksum ^= CORRUPTION_MASK;
                    }
                }
            }
            // Verify against the recomputed content checksum, like an
            // HDFS client checksumming what the datanode streamed.
            let expected = content_checksum(&file.content[b.range.clone()]);
            let corrupt = b.replicas.iter().filter(|r| r.checksum != expected).count();
            if corrupt == 0 {
                continue;
            }
            self.corrupt_detected
                .fetch_add(corrupt as u64, Ordering::Relaxed);
            if corrupt == b.replicas.len() {
                return Err(MrError::CorruptBlock {
                    path: path.to_string(),
                    block_index: i,
                });
            }
            // Fall back to a good replica (the content we already hold
            // stands in for its bytes), quarantine the corrupt copies,
            // and restore full replication.
            b.replicas.retain(|r| r.checksum == expected);
            for node in 0..self.config.nodes {
                if b.replicas.len() >= self.config.replication {
                    break;
                }
                if b.replicas.iter().all(|r| r.node != node) {
                    b.replicas.push(Replica {
                        node,
                        checksum: expected,
                    });
                }
            }
            self.blocks_rereplicated.fetch_add(1, Ordering::Relaxed);
        }
        Ok(file.content.clone())
    }

    /// Compute the input splits (one per block) for a file.
    pub fn splits(&self, path: &str) -> Result<Vec<InputSplit>, MrError> {
        let files = self.files.read();
        let meta = files
            .get(path)
            .ok_or_else(|| MrError::FileNotFound(path.to_string()))?;
        Ok(meta
            .blocks
            .iter()
            .enumerate()
            .map(|(i, b)| InputSplit {
                path: path.to_string(),
                index: i,
                file: meta.content.clone(),
                range: b.range.clone(),
                preferred_nodes: b.replicas.iter().map(|r| r.node).collect(),
            })
            .collect())
    }

    /// Total blocks stored.
    pub fn total_blocks(&self) -> usize {
        self.files.read().values().map(|f| f.blocks.len()).sum()
    }
}

/// XOR mask standing in for arbitrary bit-rot of a replica's bytes.
const CORRUPTION_MASK: u64 = 0xDEAD_BEEF_0BAD_F00D;

/// FNV-1a over block content — the write-time checksum.
fn content_checksum(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in data {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a hash for placement decisions.
fn path_hash(path: &str) -> u64 {
    content_checksum(path.as_bytes())
}

/// Reads the records of a FASTA-like file that *start* inside a split.
///
/// Follows the Hadoop `TextInputFormat` convention adapted to FASTA:
/// a record starts at a `>` that is at offset 0 or preceded by `\n`;
/// a split owns every record whose start lies in `[range.start,
/// range.end)` and may read past `range.end` for the tail of its last
/// record. Every record of the file is therefore owned by exactly one
/// split.
pub struct FastaSplitReader;

impl FastaSplitReader {
    /// Extract the raw record byte-slices owned by `split`.
    pub fn records(split: &InputSplit) -> Vec<Bytes> {
        Self::records_in(&split.file, split.range.clone())
    }

    /// Core boundary logic, testable without a DFS.
    pub fn records_in(file: &Bytes, range: std::ops::Range<usize>) -> Vec<Bytes> {
        let data = file.as_ref();
        let mut out = Vec::new();
        if range.start >= data.len() {
            return out;
        }
        let is_record_start =
            |pos: usize| data[pos] == b'>' && (pos == 0 || data[pos - 1] == b'\n');
        // Find the first record start at or after range.start.
        let mut pos = range.start;
        while pos < data.len() && !is_record_start(pos) {
            pos += 1;
        }
        while pos < data.len() && pos < range.end {
            // Find the start of the next record.
            let mut next = pos + 1;
            while next < data.len() && !is_record_start(next) {
                next += 1;
            }
            out.push(file.slice(pos..next));
            pos = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_chaos::FaultPlan;

    fn small_dfs(block: usize) -> Dfs {
        dfs_with(block, FaultPlan::new())
    }

    /// A 4-node, replication-2 DFS whose reads apply `plan`'s rot.
    fn dfs_with(block: usize, plan: FaultPlan) -> Dfs {
        Dfs::with_injector(
            DfsConfig {
                block_size: block,
                replication: 2,
                nodes: 4,
            },
            Arc::new(plan.injector()),
        )
        .unwrap()
    }

    #[test]
    fn put_read_round_trip() {
        let dfs = small_dfs(8);
        dfs.put("/a.fa", &b">r1\nACGT\n"[..], false).unwrap();
        assert_eq!(dfs.read("/a.fa").unwrap().as_ref(), b">r1\nACGT\n");
        assert!(dfs.recovery().is_clean());
    }

    #[test]
    fn overwrite_rules() {
        let dfs = small_dfs(8);
        dfs.put("/f", &b"one"[..], false).unwrap();
        assert!(matches!(
            dfs.put("/f", &b"two"[..], false),
            Err(MrError::FileExists(_))
        ));
        dfs.put("/f", &b"two"[..], true).unwrap();
        assert_eq!(dfs.read("/f").unwrap().as_ref(), b"two");
        assert_eq!(
            dfs.total_blocks(),
            1,
            "the old blocks went with the old file"
        );
    }

    #[test]
    fn blocking_and_splits() {
        let dfs = small_dfs(4);
        dfs.put("/f", &b"0123456789"[..], false).unwrap(); // 3 blocks: 4+4+2
        let splits = dfs.splits("/f").unwrap();
        assert_eq!(splits.len(), 3);
        assert_eq!(dfs.total_blocks(), 3);
        assert_eq!(splits[0].range, 0..4);
        assert_eq!(splits[2].range, 8..10);
        for s in &splits {
            assert_eq!(s.preferred_nodes.len(), 2);
        }
    }

    #[test]
    fn empty_file_has_one_block() {
        let dfs = small_dfs(4);
        dfs.put("/e", &b""[..], false).unwrap();
        assert_eq!(dfs.splits("/e").unwrap().len(), 1);
        assert_eq!(dfs.read("/e").unwrap().len(), 0);
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(Dfs::new(DfsConfig {
            block_size: 0,
            replication: 1,
            nodes: 1
        })
        .is_err());
        assert!(Dfs::new(DfsConfig {
            block_size: 1,
            replication: 3,
            nodes: 2
        })
        .is_err());
        assert!(Dfs::new(DfsConfig {
            block_size: 1,
            replication: 1,
            nodes: 0
        })
        .is_err());
    }

    // ---- Checksums, corruption and repair ----

    #[test]
    fn corrupt_replica_repaired_from_survivor() {
        let dfs = dfs_with(4, FaultPlan::new().corrupt_replica("/f", 1, 0));
        dfs.put("/f", &b"0123456789"[..], false).unwrap();
        // The read detects the bad copy, serves from the survivor, and
        // restores full replication.
        assert_eq!(dfs.read("/f").unwrap().as_ref(), b"0123456789");
        let rec = dfs.recovery();
        assert_eq!(rec.corrupt_replicas_detected, 1);
        assert_eq!(rec.blocks_rereplicated, 1);
        assert_eq!(dfs.splits("/f").unwrap()[1].preferred_nodes.len(), 2);
        // Scheduled rot fires once per block and the repair is
        // durable: the next read is clean.
        assert!(dfs.read("/f").is_ok());
        assert_eq!(dfs.recovery().corrupt_replicas_detected, 1);
    }

    #[test]
    fn all_replicas_corrupt_is_fatal() {
        let plan = FaultPlan::new()
            .corrupt_replica("/f", 2, 0)
            .corrupt_replica("/f", 2, 1);
        let dfs = dfs_with(4, plan);
        dfs.put("/f", &b"0123456789"[..], false).unwrap();
        match dfs.read("/f") {
            Err(MrError::CorruptBlock { path, block_index }) => {
                assert_eq!(path, "/f");
                assert_eq!(block_index, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn record_starting_exactly_at_block_edge_owned_by_right_split() {
        // Block size 8 puts the second record's '>' exactly at byte 8,
        // the first byte of block 1.
        let body = b">a\nACGT\n>b\nTTTT\n";
        assert_eq!(body[8], b'>');
        let dfs = Dfs::new(DfsConfig {
            block_size: 8,
            replication: 2,
            nodes: 4,
        })
        .unwrap();
        dfs.put("/x.fa", &body[..], false).unwrap();
        let splits = dfs.splits("/x.fa").unwrap();
        assert_eq!(splits.len(), 2);
        let first = FastaSplitReader::records(&splits[0]);
        let second = FastaSplitReader::records(&splits[1]);
        assert_eq!(first.len(), 1, "split 0 owns only the record it starts");
        assert_eq!(
            second.len(),
            1,
            "split 1 owns the record starting at its edge"
        );
        assert_eq!(first[0].as_ref(), b">a\nACGT\n");
        assert_eq!(second[0].as_ref(), b">b\nTTTT\n");
    }

    #[test]
    fn split_past_end_of_file_owns_nothing() {
        let fasta = Bytes::from_static(b">a\nAC\n");
        assert!(FastaSplitReader::records_in(&fasta, 6..6).is_empty());
        assert!(FastaSplitReader::records_in(&fasta, 10..20).is_empty());
    }

    #[test]
    fn fasta_split_reader_each_record_owned_once() {
        let fasta = Bytes::from_static(b">r1\nACGT\n>r2\nTT\n>r3\nGGGG\n");
        // Split the file at arbitrary byte boundaries; union of records
        // across splits must be exactly the records of the file.
        for cut in 1..fasta.len() {
            let a = FastaSplitReader::records_in(&fasta, 0..cut);
            let b = FastaSplitReader::records_in(&fasta, cut..fasta.len());
            let total: Vec<Bytes> = a.into_iter().chain(b).collect();
            assert_eq!(total.len(), 3, "cut at {cut}");
            let joined: Vec<u8> = total.iter().flat_map(|b| b.as_ref().to_vec()).collect();
            assert_eq!(joined, fasta.as_ref(), "cut at {cut}");
        }
    }

    #[test]
    fn fasta_split_reader_via_dfs_splits() {
        let body = b">a\nAC\n>b\nGT\n>c\nTTTT\n>d\nAAA\n";
        let dfs = small_dfs(7);
        dfs.put("/x.fa", &body[..], false).unwrap();
        let splits = dfs.splits("/x.fa").unwrap();
        let mut n = 0;
        for s in &splits {
            n += FastaSplitReader::records(s).len();
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn fasta_split_reader_greater_inside_sequence_not_a_boundary() {
        // '>' not preceded by newline must not start a record.
        let fasta = Bytes::from_static(b">r1 x>y\nACGT\n>r2\nTT\n");
        let recs = FastaSplitReader::records_in(&fasta, 0..fasta.len());
        assert_eq!(recs.len(), 2);
    }
}
