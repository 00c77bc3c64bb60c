//! Admission control: bounded queues and byte quotas per session.
//!
//! The daemon never buffers unboundedly. Every `SubmitReads` passes
//! through a session's [`AdmissionLedger`] before it may enter the
//! work queue; a refusal is an explicit [`AdmissionReject`] the
//! connection turns into a `Busy` or `QuotaExceeded` response, and a
//! refused submission records *nothing* — neither queue space nor
//! clusterer state. Two distinct mechanisms:
//!
//! * **Busy** (transient): the session's queued-but-unprocessed work
//!   exceeds [`AdmissionLimits::max_queue_depth`] micro-batches or
//!   [`AdmissionLimits::max_queued_bytes`] payload bytes. Backs off
//!   per-session memory; retrying after in-flight work drains
//!   succeeds.
//! * **QuotaExceeded** (permanent): the session's lifetime admitted
//!   bytes would exceed [`AdmissionLimits::max_session_bytes`]. This
//!   is the per-tenant fairness knob.

/// Limits one session (tenant) is admitted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionLimits {
    /// Micro-batches that may be queued or in flight at once.
    pub max_queue_depth: usize,
    /// Payload bytes that may be queued or in flight at once.
    pub max_queued_bytes: usize,
    /// Lifetime payload-byte quota (`u64::MAX` = unlimited).
    pub max_session_bytes: u64,
}

impl Default for AdmissionLimits {
    fn default() -> AdmissionLimits {
        AdmissionLimits {
            max_queue_depth: 64,
            max_queued_bytes: 8 * 1024 * 1024,
            max_session_bytes: u64::MAX,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionReject {
    /// Bounded queue full — transient, retry after a drain.
    Busy {
        /// Micro-batches queued or in flight at refusal.
        queue_depth: u64,
        /// The configured depth limit.
        limit: u64,
    },
    /// Lifetime byte quota exhausted — permanent for the session.
    QuotaExceeded {
        /// Bytes the submission would have brought the lifetime total to.
        would_use: u64,
        /// The configured quota.
        quota: u64,
    },
}

/// Per-session admission bookkeeping: the gate plus every counter the
/// `ClusterStats` response reports.
#[derive(Debug, Clone)]
pub struct AdmissionLedger {
    limits: AdmissionLimits,
    /// Micro-batches queued or in flight.
    pub queue_depth: usize,
    /// Payload bytes queued or in flight.
    pub queued_bytes: usize,
    /// Lifetime admitted payload bytes.
    pub bytes_admitted: u64,
    /// Lifetime admitted reads.
    pub reads_admitted: u64,
    /// Lifetime admitted micro-batches.
    pub batches_admitted: u64,
    /// Lifetime refused reads.
    pub reads_rejected: u64,
    /// Refusals due to the bounded queue.
    pub busy_rejections: u64,
    /// Refusals due to the byte quota.
    pub quota_rejections: u64,
    /// High-water mark of `queue_depth`.
    pub max_queue_depth_seen: usize,
}

impl AdmissionLedger {
    /// Fresh ledger under `limits`.
    pub fn new(limits: AdmissionLimits) -> AdmissionLedger {
        AdmissionLedger {
            limits,
            queue_depth: 0,
            queued_bytes: 0,
            bytes_admitted: 0,
            reads_admitted: 0,
            batches_admitted: 0,
            reads_rejected: 0,
            busy_rejections: 0,
            quota_rejections: 0,
            max_queue_depth_seen: 0,
        }
    }

    /// The limits this ledger gates under.
    pub fn limits(&self) -> AdmissionLimits {
        self.limits
    }

    /// Gate one micro-batch of `reads` reads totalling `bytes` payload
    /// bytes. On `Ok` the batch is accounted as queued and must later
    /// be released with [`AdmissionLedger::complete`]; on `Err` all
    /// counters except the rejection tallies are untouched.
    pub fn try_admit(&mut self, reads: usize, bytes: usize) -> Result<(), AdmissionReject> {
        let would_use = self.bytes_admitted.saturating_add(bytes as u64);
        if would_use > self.limits.max_session_bytes {
            self.quota_rejections += 1;
            self.reads_rejected += reads as u64;
            return Err(AdmissionReject::QuotaExceeded {
                would_use,
                quota: self.limits.max_session_bytes,
            });
        }
        if self.queue_depth >= self.limits.max_queue_depth
            || self.queued_bytes.saturating_add(bytes) > self.limits.max_queued_bytes
        {
            self.busy_rejections += 1;
            self.reads_rejected += reads as u64;
            return Err(AdmissionReject::Busy {
                queue_depth: self.queue_depth as u64,
                limit: self.limits.max_queue_depth as u64,
            });
        }
        self.queue_depth += 1;
        self.queued_bytes += bytes;
        self.bytes_admitted = would_use;
        self.reads_admitted += reads as u64;
        self.batches_admitted += 1;
        self.max_queue_depth_seen = self.max_queue_depth_seen.max(self.queue_depth);
        Ok(())
    }

    /// Release a previously admitted batch's queue accounting (called
    /// when its processing finishes, successfully or not).
    pub fn complete(&mut self, bytes: usize) {
        debug_assert!(self.queue_depth > 0, "complete without admit");
        self.queue_depth = self.queue_depth.saturating_sub(1);
        self.queued_bytes = self.queued_bytes.saturating_sub(bytes);
    }

    /// Publish the ledger as gauges under `prefix`: its queue
    /// occupancy and its lifetime admission tallies. The ledger is the
    /// one record of both, so re-publishing cannot double-count —
    /// gauges are set, not added.
    pub fn export_gauges(&self, metrics: &mrmc_obs::MetricsRegistry, prefix: &str) {
        for (name, value) in [
            ("queue_depth", self.queue_depth as u64),
            ("queued_bytes", self.queued_bytes as u64),
            ("max_queue_depth", self.max_queue_depth_seen as u64),
            ("batches_admitted", self.batches_admitted),
            ("reads_admitted", self.reads_admitted),
            ("bytes_admitted", self.bytes_admitted),
            ("reads_rejected", self.reads_rejected),
            ("busy_rejections", self.busy_rejections),
            ("quota_rejections", self.quota_rejections),
        ] {
            metrics.gauge_set(&format!("{prefix}.{name}"), value as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits(depth: usize, queued: usize, session: u64) -> AdmissionLimits {
        AdmissionLimits {
            max_queue_depth: depth,
            max_queued_bytes: queued,
            max_session_bytes: session,
        }
    }

    #[test]
    fn queue_depth_gates_and_drains() {
        let mut l = AdmissionLedger::new(limits(2, usize::MAX >> 1, u64::MAX));
        assert!(l.try_admit(3, 10).is_ok());
        assert!(l.try_admit(3, 10).is_ok());
        let rej = l.try_admit(3, 10).unwrap_err();
        assert_eq!(
            rej,
            AdmissionReject::Busy {
                queue_depth: 2,
                limit: 2
            }
        );
        assert_eq!(l.busy_rejections, 1);
        assert_eq!(l.reads_rejected, 3);
        assert_eq!(l.reads_admitted, 6);
        // Draining one batch frees a slot: transient, not permanent.
        l.complete(10);
        assert!(l.try_admit(3, 10).is_ok());
        assert_eq!(l.max_queue_depth_seen, 2);
    }

    #[test]
    fn queued_bytes_bound_memory() {
        let mut l = AdmissionLedger::new(limits(100, 25, u64::MAX));
        assert!(l.try_admit(1, 20).is_ok());
        assert!(matches!(
            l.try_admit(1, 10).unwrap_err(),
            AdmissionReject::Busy { .. }
        ));
        assert!(l.queued_bytes <= 25, "queued bytes stay bounded");
        l.complete(20);
        assert_eq!(l.queued_bytes, 0);
        assert!(l.try_admit(1, 10).is_ok());
    }

    #[test]
    fn byte_quota_is_permanent() {
        let mut l = AdmissionLedger::new(limits(100, usize::MAX >> 1, 30));
        assert!(l.try_admit(2, 25).is_ok());
        let rej = l.try_admit(2, 10).unwrap_err();
        assert_eq!(
            rej,
            AdmissionReject::QuotaExceeded {
                would_use: 35,
                quota: 30
            }
        );
        // Draining does not forgive the lifetime quota.
        l.complete(25);
        assert!(matches!(
            l.try_admit(2, 10).unwrap_err(),
            AdmissionReject::QuotaExceeded { .. }
        ));
        assert_eq!(l.quota_rejections, 2);
        assert_eq!(l.bytes_admitted, 25, "rejected bytes never accounted");
    }
}
