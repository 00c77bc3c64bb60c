//! Per-tenant session state: a seeded incremental clusterer, the
//! read-id → label index, and the admission ledger.
//!
//! A session is created on first `Hello` for a tenant and shared by
//! every connection naming that tenant (the daemon wraps it in
//! `Arc<Mutex<…>>`). Its lifecycle:
//!
//! 1. **Unseeded** — only `ClusterStats` works; submissions answer
//!    `NotSeeded`.
//! 2. **Seeded** (`SeedFromBatch`) — the batch pipeline runs once,
//!    its representatives become the live centroids
//!    ([`IncrementalClusterer::from_run`]), and the batch reads'
//!    labels are indexed for `Query`.
//! 3. **Serving** — admitted micro-batches stream through
//!    [`IncrementalClusterer::push_batch`]; every new sequence is
//!    assigned in one sketch + one lookup of its band-signature
//!    buckets in the clusterer's representative index, and a byte
//!    copy of a streamed read in one memo lookup (exactly the label a
//!    scan of every representative would give — see
//!    `mrmc::incremental`), never by re-running a Map-Reduce job.

use std::collections::HashMap;

use mrmc::{IncrementalClusterer, MrMcMinH};
use mrmc_seqio::SeqRecord;

use crate::protocol::{SeedConfig, SessionStats};
use crate::quota::{AdmissionLedger, AdmissionLimits, AdmissionReject};

/// Session-level failures (mapped onto `Response::Error` frames by the
/// daemon).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// Submission or query arrived before `SeedFromBatch`.
    NotSeeded,
    /// A second `SeedFromBatch`; re-seeding would discard live state.
    AlreadySeeded,
    /// The seed configuration failed [`mrmc::MrMcConfig::validate`].
    BadConfig(String),
    /// The batch pipeline or the clusterer failed.
    Internal(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NotSeeded => write!(f, "session is not seeded"),
            SessionError::AlreadySeeded => write!(f, "session is already seeded"),
            SessionError::BadConfig(m) => write!(f, "bad seed config: {m}"),
            SessionError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// One tenant's serving state.
#[derive(Debug)]
pub struct Session {
    tenant: String,
    clusterer: Option<IncrementalClusterer>,
    /// Read id → label, covering batch reads and streamed reads.
    labels_by_id: HashMap<String, u64>,
    seeded_clusters: u64,
    ledger: AdmissionLedger,
    /// Tracer job ordinal for this session's serve spans.
    pub job: u32,
}

impl Session {
    /// Fresh unseeded session for `tenant` under `limits`; `job` is
    /// the tracer job its spans attribute to.
    pub fn new(tenant: impl Into<String>, limits: AdmissionLimits, job: u32) -> Session {
        Session {
            tenant: tenant.into(),
            clusterer: None,
            labels_by_id: HashMap::new(),
            seeded_clusters: 0,
            ledger: AdmissionLedger::new(limits),
            job,
        }
    }

    /// Whether `SeedFromBatch` has completed.
    pub fn is_seeded(&self) -> bool {
        self.clusterer.is_some()
    }

    /// Run the batch pipeline over `reads` and seed the incremental
    /// clusterer from the finished run. Returns the seeded cluster
    /// count. The batch runs *untraced*: the request path after
    /// seeding must add no Map-Reduce job spans to the daemon's
    /// ledger, and keeping the seed run out as well makes that
    /// property trivially checkable (every daemon span is `serve`).
    pub fn seed_from_batch(
        &mut self,
        config: &SeedConfig,
        reads: &[SeqRecord],
    ) -> Result<u64, SessionError> {
        if self.is_seeded() {
            return Err(SessionError::AlreadySeeded);
        }
        let cfg = config.to_mrmc();
        cfg.validate().map_err(SessionError::BadConfig)?;
        let result = MrMcMinH::new(cfg)
            .run(reads)
            .map_err(|e| SessionError::Internal(e.to_string()))?;
        let inc = IncrementalClusterer::from_run(cfg, reads, &result)
            .map_err(|e| SessionError::Internal(e.to_string()))?;
        for (i, read) in reads.iter().enumerate() {
            self.labels_by_id
                .insert(read.id.clone(), result.assignment.label(i) as u64);
        }
        self.seeded_clusters = result.num_clusters() as u64;
        self.clusterer = Some(inc);
        Ok(self.seeded_clusters)
    }

    /// Assign an admitted micro-batch, recording each read's label
    /// under its id. Labels return in submission order.
    pub fn assign(&mut self, reads: &[SeqRecord]) -> Result<Vec<u64>, SessionError> {
        let inc = self.clusterer.as_mut().ok_or(SessionError::NotSeeded)?;
        let labels = inc
            .push_batch(reads)
            .map_err(|e| SessionError::Internal(e.to_string()))?;
        for (read, &label) in reads.iter().zip(&labels) {
            self.labels_by_id.insert(read.id.clone(), label as u64);
        }
        Ok(labels.into_iter().map(|l| l as u64).collect())
    }

    /// Label of a previously seen read id (batch or streamed).
    pub fn query(&self, id: &str) -> Option<u64> {
        self.labels_by_id.get(id).copied()
    }

    /// Gate a micro-batch through admission control.
    pub fn try_admit(&mut self, reads: usize, bytes: usize) -> Result<(), AdmissionReject> {
        self.ledger.try_admit(reads, bytes)
    }

    /// Release an admitted batch's queue accounting.
    pub fn complete(&mut self, bytes: usize) {
        self.ledger.complete(bytes)
    }

    /// Micro-batches currently queued or in flight.
    pub fn queue_depth(&self) -> usize {
        self.ledger.queue_depth
    }

    /// The tenant this session serves (metric key component).
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Refresh this session's live gauges in the daemon registry under
    /// `serve.tenant.<tenant>.*`: clustering state plus the admission
    /// ledger's occupancy and tallies. Called on demand (each
    /// `ServerStats` request), not per submission — histograms are
    /// recorded at event time by the daemon instead.
    pub fn export_metrics(&self, metrics: &mrmc_obs::MetricsRegistry) {
        let prefix = format!("serve.tenant.{}", self.tenant);
        metrics.gauge_set(
            &format!("{prefix}.clusters"),
            self.clusterer
                .as_ref()
                .map(|c| c.num_clusters() as i64)
                .unwrap_or(0),
        );
        metrics.gauge_set(
            &format!("{prefix}.seeded_clusters"),
            self.seeded_clusters as i64,
        );
        self.ledger.export_gauges(metrics, &prefix);
    }

    /// Snapshot every counter the protocol's `Stats` response carries.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            tenant: self.tenant.clone(),
            clusters: self
                .clusterer
                .as_ref()
                .map(|c| c.num_clusters() as u64)
                .unwrap_or(0),
            seeded_clusters: self.seeded_clusters,
            reads_admitted: self.ledger.reads_admitted,
            batches_admitted: self.ledger.batches_admitted,
            reads_rejected: self.ledger.reads_rejected,
            busy_rejections: self.ledger.busy_rejections,
            quota_rejections: self.ledger.quota_rejections,
            bytes_admitted: self.ledger.bytes_admitted,
            queue_depth: self.ledger.queue_depth as u64,
            queued_bytes: self.ledger.queued_bytes as u64,
            max_queue_depth: self.ledger.max_queue_depth_seen as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads() -> Vec<SeqRecord> {
        vec![
            SeqRecord::new("a1", b"ACGTACGTACGTACGTTTTTACGTACGT".to_vec()),
            SeqRecord::new("a2", b"ACGTACGTACGTACGTTTTTACGTACGT".to_vec()),
            SeqRecord::new("b1", b"GGGGCCCCGGGGCCCCAAAAGGGGCCCC".to_vec()),
        ]
    }

    fn seed_cfg() -> SeedConfig {
        SeedConfig {
            kmer: 5,
            num_hashes: 64,
            theta: 0.9,
            greedy: true,
            seed: 7,
            canonical: false,
        }
    }

    #[test]
    fn lifecycle_not_seeded_then_seeded() {
        let mut s = Session::new("t", AdmissionLimits::default(), 0);
        assert_eq!(s.assign(&reads()).unwrap_err(), SessionError::NotSeeded);
        let k = s.seed_from_batch(&seed_cfg(), &reads()).unwrap();
        assert_eq!(k, 2);
        assert_eq!(s.stats().seeded_clusters, 2);
        // Batch reads are queryable; same-genome labels agree.
        assert_eq!(s.query("a1"), s.query("a2"));
        assert_ne!(s.query("a1"), s.query("b1"));
        assert_eq!(s.query("nope"), None);
        // Re-seeding is refused.
        assert_eq!(
            s.seed_from_batch(&seed_cfg(), &reads()).unwrap_err(),
            SessionError::AlreadySeeded
        );
    }

    #[test]
    fn assign_extends_query_index() {
        let mut s = Session::new("t", AdmissionLimits::default(), 0);
        s.seed_from_batch(&seed_cfg(), &reads()).unwrap();
        let newcomer = SeqRecord::new("a3", b"ACGTACGTACGTACGTTTTTACGTACGT".to_vec());
        let labels = s.assign(std::slice::from_ref(&newcomer)).unwrap();
        assert_eq!(labels.len(), 1);
        assert_eq!(s.query("a3"), Some(labels[0]));
        assert_eq!(
            s.query("a3"),
            s.query("a1"),
            "newcomer joins seeded cluster"
        );
    }

    #[test]
    fn bad_config_refused() {
        let mut s = Session::new("t", AdmissionLimits::default(), 0);
        let bad = SeedConfig {
            kmer: 0,
            ..seed_cfg()
        };
        assert!(matches!(
            s.seed_from_batch(&bad, &reads()).unwrap_err(),
            SessionError::BadConfig(_)
        ));
        assert!(!s.is_seeded());
    }
}
