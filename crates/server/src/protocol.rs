//! The typed, length-prefixed binary protocol between `mrmc-server`
//! and its clients.
//!
//! Every message travels as one **frame**: `varint(body_len) · body`,
//! where the body is `tag(u8) · fields` and every integer field is the
//! same LEB128 varint the shuffle wire format uses
//! ([`mrmc_mapreduce::wire::put_uvarint`]). Strings and sequence
//! payloads are length-prefixed byte runs; `f64` travels as its 8
//! little-endian IEEE-754 bytes (bit-exact, so a θ sent over the wire
//! clusters identically to a local run).
//!
//! Decoding is **total**: any byte sequence either decodes to a typed
//! message or returns a [`ProtocolError`] — the taxonomy mirrors
//! [`WireError`] (truncation, varint overflow, trailing bytes) and
//! extends it with framing concerns (`FrameTooLarge`, `UnknownTag`,
//! version mismatch). The daemon must never panic on attacker-shaped
//! input; the property tests in `tests/protocol.rs` fuzz this module
//! with arbitrary and truncated frames to hold that line.

use std::io::{self, Read, Write};

use mrmc::{Mode, MrMcConfig};
use mrmc_mapreduce::wire::{get_uvarint, put_uvarint, WireError};
use mrmc_obs::metrics::{Histogram, MetricsSnapshot};
use mrmc_seqio::SeqRecord;

/// Protocol version spoken by this build. The handshake (`Hello` /
/// `HelloAck`) carries it; a mismatch is refused with
/// [`ErrorCode::VersionMismatch`] before any other traffic. Version 2
/// dropped the seed frame's strand byte, so a version 1 seed frame
/// would misparse.
pub const PROTOCOL_VERSION: u32 = 2;

/// Hard cap on one frame's body length. Larger declared lengths are
/// refused *before* allocation, so a hostile length prefix cannot
/// balloon daemon memory.
pub const MAX_FRAME_LEN: u64 = 32 * 1024 * 1024;

/// Everything that can go wrong turning bytes into messages (and
/// back). Mirrors [`WireError`] for the shared varint layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The buffer or stream ended mid-message.
    Truncated,
    /// A varint ran past 64 bits.
    Overflow,
    /// The frame header declared a body longer than [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// Declared body length.
        len: u64,
        /// The cap it exceeded.
        max: u64,
    },
    /// The body's first byte named no known message.
    UnknownTag(u8),
    /// Bytes remained after the message was fully decoded.
    TrailingBytes,
    /// A field that must be UTF-8 was not.
    BadUtf8,
    /// A structurally valid frame carried an out-of-range field.
    BadPayload(String),
    /// Handshake version disagreement.
    VersionMismatch {
        /// Version the peer offered.
        got: u32,
        /// Version this build speaks.
        want: u32,
    },
    /// Transport-level failure (connection reset, timeout, …).
    Io(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "frame truncated"),
            ProtocolError::Overflow => write!(f, "varint overflows u64"),
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame body {len} bytes exceeds cap {max}")
            }
            ProtocolError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtocolError::TrailingBytes => write!(f, "trailing bytes after message"),
            ProtocolError::BadUtf8 => write!(f, "string field is not UTF-8"),
            ProtocolError::BadPayload(m) => write!(f, "bad payload: {m}"),
            ProtocolError::VersionMismatch { got, want } => {
                write!(f, "protocol version {got} unsupported (want {want})")
            }
            ProtocolError::Io(m) => write!(f, "transport error: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> ProtocolError {
        match e {
            WireError::Truncated => ProtocolError::Truncated,
            WireError::Overflow => ProtocolError::Overflow,
            other => ProtocolError::BadPayload(other.to_string()),
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> ProtocolError {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtocolError::Truncated
        } else {
            ProtocolError::Io(e.to_string())
        }
    }
}

/// Machine-readable reason on a [`Response::Error`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame itself was malformed.
    Protocol,
    /// Handshake refused: incompatible protocol version.
    VersionMismatch,
    /// The session has no seeded clusterer yet (`SeedFromBatch` first).
    NotSeeded,
    /// The session is already seeded; re-seeding would discard state.
    AlreadySeeded,
    /// The seed configuration failed validation.
    BadConfig,
    /// The daemon is draining and admits no new work.
    ShuttingDown,
    /// Server-side failure unrelated to the request's shape.
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Protocol => 0,
            ErrorCode::VersionMismatch => 1,
            ErrorCode::NotSeeded => 2,
            ErrorCode::AlreadySeeded => 3,
            ErrorCode::BadConfig => 4,
            ErrorCode::ShuttingDown => 5,
            ErrorCode::Internal => 6,
        }
    }

    fn from_u8(v: u8) -> Result<ErrorCode, ProtocolError> {
        Ok(match v {
            0 => ErrorCode::Protocol,
            1 => ErrorCode::VersionMismatch,
            2 => ErrorCode::NotSeeded,
            3 => ErrorCode::AlreadySeeded,
            4 => ErrorCode::BadConfig,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::Internal,
            other => return Err(ProtocolError::BadPayload(format!("error code {other}"))),
        })
    }

    /// Stable lowercase name (logs, client display).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::VersionMismatch => "version_mismatch",
            ErrorCode::NotSeeded => "not_seeded",
            ErrorCode::AlreadySeeded => "already_seeded",
            ErrorCode::BadConfig => "bad_config",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// One read on the wire: id, description, sequence bytes. Lossless
/// against [`SeqRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRead {
    /// Record id (first header token).
    pub id: String,
    /// Remainder of the header line.
    pub description: String,
    /// Sequence bytes.
    pub seq: Vec<u8>,
}

impl WireRead {
    /// Wire payload size this read contributes to admission
    /// accounting: id + description + sequence bytes.
    pub fn payload_bytes(&self) -> usize {
        self.id.len() + self.description.len() + self.seq.len()
    }
}

impl From<&SeqRecord> for WireRead {
    fn from(r: &SeqRecord) -> WireRead {
        WireRead {
            id: r.id.clone(),
            description: r.description.clone(),
            seq: r.seq.clone(),
        }
    }
}

impl From<WireRead> for SeqRecord {
    fn from(r: WireRead) -> SeqRecord {
        SeqRecord::with_description(r.id, r.description, r.seq)
    }
}

/// The clustering knobs a client pins when seeding a session. The
/// remaining [`MrMcConfig`] fields take their defaults server-side;
/// everything that decides *labels* (k, sketch length, θ, mode, hash
/// seed) is explicit so a local oracle run with the same `SeedConfig`
/// reproduces the daemon bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedConfig {
    /// k-mer size.
    pub kmer: u64,
    /// Sketch length (number of hash functions).
    pub num_hashes: u64,
    /// Similarity threshold θ.
    pub theta: f64,
    /// Greedy (Algorithm 1) vs hierarchical (Algorithm 2) seeding run.
    pub greedy: bool,
    /// Seed for the universal hash draws.
    pub seed: u64,
}

impl SeedConfig {
    /// The equivalent batch/incremental configuration.
    pub fn to_mrmc(&self) -> MrMcConfig {
        MrMcConfig {
            kmer: self.kmer as usize,
            num_hashes: self.num_hashes as usize,
            theta: self.theta,
            mode: if self.greedy {
                Mode::Greedy
            } else {
                Mode::Hierarchical
            },
            seed: self.seed,
            ..MrMcConfig::default()
        }
    }
}

impl Default for SeedConfig {
    fn default() -> SeedConfig {
        let c = MrMcConfig::default();
        SeedConfig {
            kmer: c.kmer as u64,
            num_hashes: c.num_hashes as u64,
            theta: c.theta,
            greedy: false,
            seed: c.seed,
        }
    }
}

/// Per-session admission and clustering counters, as returned by
/// `ClusterStats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Session (tenant) name.
    pub tenant: String,
    /// Live cluster count (seeded + founded by streamed reads).
    pub clusters: u64,
    /// Clusters present right after seeding.
    pub seeded_clusters: u64,
    /// Reads accepted into the admission queue, lifetime.
    pub reads_admitted: u64,
    /// Micro-batches accepted, lifetime.
    pub batches_admitted: u64,
    /// Reads refused (busy or quota), lifetime.
    pub reads_rejected: u64,
    /// Submissions refused because the bounded queue was full.
    pub busy_rejections: u64,
    /// Submissions refused because the byte quota was exhausted.
    pub quota_rejections: u64,
    /// Payload bytes admitted, lifetime (counts against the quota).
    pub bytes_admitted: u64,
    /// Micro-batches currently queued or in flight.
    pub queue_depth: u64,
    /// Payload bytes currently queued or in flight.
    pub queued_bytes: u64,
    /// High-water mark of `queue_depth`.
    pub max_queue_depth: u64,
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Versioned handshake; must be the first frame on a connection.
    Hello {
        /// Client's [`PROTOCOL_VERSION`].
        version: u32,
        /// Tenant (session) this connection binds to.
        tenant: String,
    },
    /// Run the batch pipeline over `reads` and seed the session's
    /// incremental clusterer from the finished run.
    SeedFromBatch {
        /// Clustering knobs for the batch run and all later admission.
        config: SeedConfig,
        /// The batch corpus.
        reads: Vec<WireRead>,
    },
    /// Admit a micro-batch of new reads; answered with their labels
    /// (or `Busy` / `QuotaExceeded`).
    SubmitReads {
        /// The micro-batch, in assignment order.
        reads: Vec<WireRead>,
    },
    /// Look up the cluster label of a previously seen read id.
    Query {
        /// Read id (batch or streamed).
        id: String,
    },
    /// Fetch the session's counters.
    ClusterStats,
    /// Fetch the daemon-wide metrics snapshot (all tenants): counters,
    /// gauges and latency/size histograms from the live registry.
    ServerStats,
    /// Drain the admission queue and stop the daemon.
    Shutdown,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloAck {
        /// Server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Seeding finished.
    Seeded {
        /// Cluster count of the seeded run.
        clusters: u64,
    },
    /// Labels for an admitted micro-batch, in submission order.
    Labels {
        /// One label per submitted read.
        labels: Vec<u64>,
    },
    /// Answer to `Query`.
    QueryResult {
        /// The label, or `None` for an unknown read id.
        label: Option<u64>,
    },
    /// Answer to `ClusterStats`.
    Stats(SessionStats),
    /// Answer to `ServerStats`: a point-in-time copy of the daemon's
    /// metrics registry.
    ServerStats(MetricsSnapshot),
    /// Admission refused: the session's bounded queue is full. Retry
    /// after in-flight work drains; nothing was recorded.
    Busy {
        /// Queue depth at refusal.
        queue_depth: u64,
        /// Configured depth limit.
        limit: u64,
    },
    /// Admission refused: the session's byte quota is exhausted. This
    /// is permanent for the session; nothing was recorded.
    QuotaExceeded {
        /// Bytes the submission would have brought the total to.
        would_use: u64,
        /// Configured quota.
        quota: u64,
    },
    /// Request failed.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Shutdown accepted; the queue was drained.
    ShutdownAck {
        /// Micro-batches that were still queued when drain began.
        drained: u64,
    },
}

// ---------------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------------

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_uvarint(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_read(buf: &mut Vec<u8>, r: &WireRead) {
    put_str(buf, &r.id);
    put_str(buf, &r.description);
    put_bytes(buf, &r.seq);
}

fn put_reads(buf: &mut Vec<u8>, reads: &[WireRead]) {
    put_uvarint(buf, reads.len() as u64);
    for r in reads {
        put_read(buf, r);
    }
}

/// Validating cursor over one frame body.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let (v, n) = get_uvarint(&self.buf[self.at..])?;
        self.at += n;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| ProtocolError::BadPayload(format!("{v} exceeds u32")))
    }

    fn byte(&mut self) -> Result<u8, ProtocolError> {
        let b = *self.buf.get(self.at).ok_or(ProtocolError::Truncated)?;
        self.at += 1;
        Ok(b)
    }

    fn bool(&mut self) -> Result<bool, ProtocolError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ProtocolError::BadPayload(format!("bool byte {other}"))),
        }
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        let raw = self.take(8)?;
        let mut bits = [0u8; 8];
        bits.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() - self.at < n {
            return Err(ProtocolError::Truncated);
        }
        let out = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ProtocolError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| ProtocolError::Truncated)?;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        String::from_utf8(self.bytes()?).map_err(|_| ProtocolError::BadUtf8)
    }

    fn read(&mut self) -> Result<WireRead, ProtocolError> {
        Ok(WireRead {
            id: self.string()?,
            description: self.string()?,
            seq: self.bytes()?,
        })
    }

    fn reads(&mut self) -> Result<Vec<WireRead>, ProtocolError> {
        let count = self.u64()?;
        // A read costs ≥ 3 body bytes, so the body length (already
        // capped by the frame reader) bounds any honest count; refuse
        // hostile counts before reserving memory for them.
        if count > (self.buf.len() as u64) {
            return Err(ProtocolError::Truncated);
        }
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            out.push(self.read()?);
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::TrailingBytes)
        }
    }
}

fn put_config(buf: &mut Vec<u8>, c: &SeedConfig) {
    put_uvarint(buf, c.kmer);
    put_uvarint(buf, c.num_hashes);
    put_f64(buf, c.theta);
    buf.push(u8::from(c.greedy));
    put_uvarint(buf, c.seed);
}

fn get_config(r: &mut Reader<'_>) -> Result<SeedConfig, ProtocolError> {
    let kmer = r.u64()?;
    let num_hashes = r.u64()?;
    let theta = r.f64()?;
    if !theta.is_finite() || !(0.0..=1.0).contains(&theta) {
        return Err(ProtocolError::BadPayload(format!("theta {theta}")));
    }
    let greedy = r.bool()?;
    let seed = r.u64()?;
    Ok(SeedConfig {
        kmer,
        num_hashes,
        theta,
        greedy,
        seed,
    })
}

fn put_stats(buf: &mut Vec<u8>, s: &SessionStats) {
    put_str(buf, &s.tenant);
    for v in [
        s.clusters,
        s.seeded_clusters,
        s.reads_admitted,
        s.batches_admitted,
        s.reads_rejected,
        s.busy_rejections,
        s.quota_rejections,
        s.bytes_admitted,
        s.queue_depth,
        s.queued_bytes,
        s.max_queue_depth,
    ] {
        put_uvarint(buf, v);
    }
}

fn get_stats(r: &mut Reader<'_>) -> Result<SessionStats, ProtocolError> {
    Ok(SessionStats {
        tenant: r.string()?,
        clusters: r.u64()?,
        seeded_clusters: r.u64()?,
        reads_admitted: r.u64()?,
        batches_admitted: r.u64()?,
        reads_rejected: r.u64()?,
        busy_rejections: r.u64()?,
        quota_rejections: r.u64()?,
        bytes_admitted: r.u64()?,
        queue_depth: r.u64()?,
        queued_bytes: r.u64()?,
        max_queue_depth: r.u64()?,
    })
}

// Gauges are the protocol's only signed field; they travel zigzag-
// mapped through the shared unsigned varint, so small magnitudes of
// either sign stay short on the wire.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn put_snapshot(buf: &mut Vec<u8>, snap: &MetricsSnapshot) {
    put_uvarint(buf, snap.counters.len() as u64);
    for (name, v) in &snap.counters {
        put_str(buf, name);
        put_uvarint(buf, *v);
    }
    put_uvarint(buf, snap.gauges.len() as u64);
    for (name, v) in &snap.gauges {
        put_str(buf, name);
        put_uvarint(buf, zigzag(*v));
    }
    put_uvarint(buf, snap.histograms.len() as u64);
    for (name, h) in &snap.histograms {
        put_str(buf, name);
        put_uvarint(buf, h.count());
        put_uvarint(buf, h.sum());
        // Raw bounds (u64::MAX / 0 when empty), so decode rebuilds the
        // exact in-memory state and roundtrips bit-for-bit.
        put_uvarint(buf, h.min().unwrap_or(u64::MAX));
        put_uvarint(buf, h.max().unwrap_or(0));
        let sparse: Vec<(usize, u64)> = h.nonempty_buckets().collect();
        put_uvarint(buf, sparse.len() as u64);
        for (i, c) in sparse {
            put_uvarint(buf, i as u64);
            put_uvarint(buf, c);
        }
    }
}

fn get_snapshot(r: &mut Reader<'_>) -> Result<MetricsSnapshot, ProtocolError> {
    // Every entry costs ≥ 2 body bytes, so the (frame-capped) body
    // length bounds any honest count — same hostile-count discipline
    // as `Reader::reads`.
    let checked_count = |r: &mut Reader<'_>| -> Result<u64, ProtocolError> {
        let count = r.u64()?;
        if count > (r.buf.len() as u64) {
            return Err(ProtocolError::Truncated);
        }
        Ok(count)
    };
    let n = checked_count(r)?;
    let mut counters = Vec::with_capacity(n as usize);
    for _ in 0..n {
        counters.push((r.string()?, r.u64()?));
    }
    let n = checked_count(r)?;
    let mut gauges = Vec::with_capacity(n as usize);
    for _ in 0..n {
        gauges.push((r.string()?, unzigzag(r.u64()?)));
    }
    let n = checked_count(r)?;
    let mut histograms = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let name = r.string()?;
        let count = r.u64()?;
        let sum = r.u64()?;
        let min = r.u64()?;
        let max = r.u64()?;
        let buckets = checked_count(r)?;
        let mut sparse = Vec::with_capacity(buckets as usize);
        for _ in 0..buckets {
            let i = r.u64()?;
            let i = usize::try_from(i)
                .map_err(|_| ProtocolError::BadPayload(format!("bucket index {i}")))?;
            sparse.push((i, r.u64()?));
        }
        let h = Histogram::from_parts(count, sum, min, max, sparse)
            .ok_or_else(|| ProtocolError::BadPayload(format!("histogram {name}")))?;
        histograms.push((name, h));
    }
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

// Request tags occupy 0x01–0x7f, response tags 0x81–0xff, so a frame
// read from the wrong direction fails as UnknownTag instead of
// decoding to nonsense.
const TAG_HELLO: u8 = 0x01;
const TAG_SEED: u8 = 0x02;
const TAG_SUBMIT: u8 = 0x03;
const TAG_QUERY: u8 = 0x04;
const TAG_STATS_REQ: u8 = 0x05;
const TAG_SHUTDOWN: u8 = 0x06;
const TAG_SERVER_STATS_REQ: u8 = 0x07;

const TAG_HELLO_ACK: u8 = 0x81;
const TAG_SEEDED: u8 = 0x82;
const TAG_LABELS: u8 = 0x83;
const TAG_QUERY_RESULT: u8 = 0x84;
const TAG_STATS: u8 = 0x85;
const TAG_BUSY: u8 = 0x86;
const TAG_QUOTA: u8 = 0x87;
const TAG_ERROR: u8 = 0x88;
const TAG_SHUTDOWN_ACK: u8 = 0x89;
const TAG_SERVER_STATS: u8 = 0x8a;

impl Request {
    /// Encode to a frame body (tag + fields, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Hello { version, tenant } => {
                buf.push(TAG_HELLO);
                put_uvarint(&mut buf, u64::from(*version));
                put_str(&mut buf, tenant);
            }
            Request::SeedFromBatch { config, reads } => {
                buf.push(TAG_SEED);
                put_config(&mut buf, config);
                put_reads(&mut buf, reads);
            }
            Request::SubmitReads { reads } => {
                buf.push(TAG_SUBMIT);
                put_reads(&mut buf, reads);
            }
            Request::Query { id } => {
                buf.push(TAG_QUERY);
                put_str(&mut buf, id);
            }
            Request::ClusterStats => buf.push(TAG_STATS_REQ),
            Request::ServerStats => buf.push(TAG_SERVER_STATS_REQ),
            Request::Shutdown => buf.push(TAG_SHUTDOWN),
        }
        buf
    }

    /// Decode a frame body. Total: returns a [`ProtocolError`] on any
    /// malformed input, never panics.
    pub fn decode(buf: &[u8]) -> Result<Request, ProtocolError> {
        let mut r = Reader::new(buf);
        let req = match r.byte()? {
            TAG_HELLO => Request::Hello {
                version: r.u32()?,
                tenant: r.string()?,
            },
            TAG_SEED => Request::SeedFromBatch {
                config: get_config(&mut r)?,
                reads: r.reads()?,
            },
            TAG_SUBMIT => Request::SubmitReads { reads: r.reads()? },
            TAG_QUERY => Request::Query { id: r.string()? },
            TAG_STATS_REQ => Request::ClusterStats,
            TAG_SERVER_STATS_REQ => Request::ServerStats,
            TAG_SHUTDOWN => Request::Shutdown,
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encode to a frame body (tag + fields, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::HelloAck { version } => {
                buf.push(TAG_HELLO_ACK);
                put_uvarint(&mut buf, u64::from(*version));
            }
            Response::Seeded { clusters } => {
                buf.push(TAG_SEEDED);
                put_uvarint(&mut buf, *clusters);
            }
            Response::Labels { labels } => {
                buf.push(TAG_LABELS);
                put_uvarint(&mut buf, labels.len() as u64);
                for &l in labels {
                    put_uvarint(&mut buf, l);
                }
            }
            Response::QueryResult { label } => {
                buf.push(TAG_QUERY_RESULT);
                match label {
                    None => buf.push(0),
                    Some(l) => {
                        buf.push(1);
                        put_uvarint(&mut buf, *l);
                    }
                }
            }
            Response::Stats(stats) => {
                buf.push(TAG_STATS);
                put_stats(&mut buf, stats);
            }
            Response::ServerStats(snap) => {
                buf.push(TAG_SERVER_STATS);
                put_snapshot(&mut buf, snap);
            }
            Response::Busy { queue_depth, limit } => {
                buf.push(TAG_BUSY);
                put_uvarint(&mut buf, *queue_depth);
                put_uvarint(&mut buf, *limit);
            }
            Response::QuotaExceeded { would_use, quota } => {
                buf.push(TAG_QUOTA);
                put_uvarint(&mut buf, *would_use);
                put_uvarint(&mut buf, *quota);
            }
            Response::Error { code, message } => {
                buf.push(TAG_ERROR);
                buf.push(code.to_u8());
                put_str(&mut buf, message);
            }
            Response::ShutdownAck { drained } => {
                buf.push(TAG_SHUTDOWN_ACK);
                put_uvarint(&mut buf, *drained);
            }
        }
        buf
    }

    /// Decode a frame body. Total, like [`Request::decode`].
    pub fn decode(buf: &[u8]) -> Result<Response, ProtocolError> {
        let mut r = Reader::new(buf);
        let resp = match r.byte()? {
            TAG_HELLO_ACK => Response::HelloAck { version: r.u32()? },
            TAG_SEEDED => Response::Seeded { clusters: r.u64()? },
            TAG_LABELS => {
                let count = r.u64()?;
                if count > (buf.len() as u64) {
                    return Err(ProtocolError::Truncated);
                }
                let mut labels = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    labels.push(r.u64()?);
                }
                Response::Labels { labels }
            }
            TAG_QUERY_RESULT => Response::QueryResult {
                label: match r.byte()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    other => return Err(ProtocolError::BadPayload(format!("option byte {other}"))),
                },
            },
            TAG_STATS => Response::Stats(get_stats(&mut r)?),
            TAG_SERVER_STATS => Response::ServerStats(get_snapshot(&mut r)?),
            TAG_BUSY => Response::Busy {
                queue_depth: r.u64()?,
                limit: r.u64()?,
            },
            TAG_QUOTA => Response::QuotaExceeded {
                would_use: r.u64()?,
                quota: r.u64()?,
            },
            TAG_ERROR => Response::Error {
                code: ErrorCode::from_u8(r.byte()?)?,
                message: r.string()?,
            },
            TAG_SHUTDOWN_ACK => Response::ShutdownAck { drained: r.u64()? },
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one frame, `varint(len) · body`, in one `write_all`, so a
/// frame the socket takes whole leaves as one segment.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(10 + body.len());
    put_uvarint(&mut frame, body.len() as u64);
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()
}

/// Whether `buf` starts with a whole frame, header and body.
pub(crate) fn holds_whole_frame(buf: &[u8]) -> bool {
    get_uvarint(buf).is_ok_and(|(len, header)| len <= (buf.len() - header) as u64)
}

/// Read one frame body. `Ok(None)` means the stream ended cleanly at
/// a frame boundary (peer closed); EOF anywhere else is `Truncated`.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            // A signal, not the peer: retry, as `read_exact` does.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    // Decode the varint length, first byte included.
    let mut len = u64::from(first[0] & 0x7f);
    let mut shift = 7u32;
    let mut b = first[0];
    while b >= 0x80 {
        if shift >= 64 {
            return Err(ProtocolError::Overflow);
        }
        let mut next = [0u8; 1];
        r.read_exact(&mut next)?;
        b = next[0];
        if shift == 63 && b > 1 {
            return Err(ProtocolError::Overflow);
        }
        len |= u64::from(b & 0x7f) << shift;
        shift += 7;
    }
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader whose first `read` is interrupted by a signal.
    struct InterruptedOnce<R> {
        inner: R,
        interrupted: bool,
    }

    impl<R: Read> Read for InterruptedOnce<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.inner.read(buf)
        }
    }

    #[test]
    fn interrupted_read_is_retried() {
        let body = Request::ClusterStats.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let mut reader = InterruptedOnce {
            inner: Cursor::new(wire),
            interrupted: false,
        };
        assert_eq!(read_frame(&mut reader).unwrap(), Some(body));
    }

    #[test]
    fn frame_roundtrip() {
        let body = Request::Query { id: "r1".into() }.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let got = read_frame(&mut Cursor::new(&wire)).unwrap().unwrap();
        assert_eq!(got, body);
        assert_eq!(
            Request::decode(&got).unwrap(),
            Request::Query { id: "r1".into() }
        );
        // Clean EOF after a whole frame → None.
        let mut c = Cursor::new(&wire);
        read_frame(&mut c).unwrap().unwrap();
        assert!(read_frame(&mut c).unwrap().is_none());
    }

    #[test]
    fn frame_rejects_oversize_before_alloc() {
        let mut wire = Vec::new();
        put_uvarint(&mut wire, MAX_FRAME_LEN + 1);
        assert!(matches!(
            read_frame(&mut Cursor::new(&wire)),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn frame_truncated_body() {
        let mut wire = Vec::new();
        put_uvarint(&mut wire, 100);
        wire.extend_from_slice(&[1, 2, 3]);
        assert_eq!(
            read_frame(&mut Cursor::new(&wire)).unwrap_err(),
            ProtocolError::Truncated
        );
    }

    #[test]
    fn seed_config_decode_rejects_nan_theta() {
        let cfg = SeedConfig {
            theta: 0.9,
            ..SeedConfig::default()
        };
        let mut buf = vec![TAG_SEED];
        put_config(&mut buf, &cfg);
        // Patch the 8 theta bytes (after tag + 2 varints) to NaN.
        let theta_at = 1 + uvarint_len_of(cfg.kmer) + uvarint_len_of(cfg.num_hashes);
        buf[theta_at..theta_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        put_reads(&mut buf, &[]);
        assert!(matches!(
            Request::decode(&buf),
            Err(ProtocolError::BadPayload(_))
        ));
    }

    fn uvarint_len_of(v: u64) -> usize {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, v)
    }
}
