//! Property and fuzz tests for the serving protocol: every message
//! type roundtrips through encode/decode, truncated and over-length
//! frames are rejected, and — the daemon's survival property —
//! decoding NEVER panics on arbitrary bytes, it returns a typed
//! [`ProtocolError`].

use std::io::Cursor;

use proptest::prelude::*;
use proptest::TestRng;

use mrmc_obs::metrics::{Histogram, MetricsSnapshot};
use mrmc_server::protocol::{
    read_frame, write_frame, ErrorCode, ProtocolError, Request, Response, SeedConfig, SessionStats,
    WireRead, MAX_FRAME_LEN,
};

// The vendored proptest stub has no tuple strategies, so struct-valued
// strategies compose field strategies by hand in `generate`.

struct WireReadStrategy;

impl Strategy for WireReadStrategy {
    type Value = WireRead;
    fn generate(&self, rng: &mut TestRng) -> WireRead {
        WireRead {
            id: "[a-z0-9_.:-]{0,16}".generate(rng),
            description: "[ -~]{0,12}".generate(rng),
            seq: proptest::collection::vec(any::<u8>(), 0..64).generate(rng),
        }
    }
}

struct SeedConfigStrategy;

impl Strategy for SeedConfigStrategy {
    type Value = SeedConfig;
    fn generate(&self, rng: &mut TestRng) -> SeedConfig {
        SeedConfig {
            kmer: (1u64..=31).generate(rng),
            num_hashes: (1u64..256).generate(rng),
            theta: (0.0f64..=1.0).generate(rng),
            greedy: any::<bool>().generate(rng),
            seed: any::<u64>().generate(rng),
        }
    }
}

struct StatsStrategy;

impl Strategy for StatsStrategy {
    type Value = SessionStats;
    fn generate(&self, rng: &mut TestRng) -> SessionStats {
        let tenant = "[a-z0-9]{0,10}".generate(rng);
        let mut u = || any::<u64>().generate(rng);
        SessionStats {
            tenant,
            clusters: u(),
            seeded_clusters: u(),
            reads_admitted: u(),
            batches_admitted: u(),
            reads_rejected: u(),
            busy_rejections: u(),
            quota_rejections: u(),
            bytes_admitted: u(),
            queue_depth: u(),
            queued_bytes: u(),
            max_queue_depth: u(),
        }
    }
}

struct SnapshotStrategy;

impl Strategy for SnapshotStrategy {
    type Value = MetricsSnapshot;
    fn generate(&self, rng: &mut TestRng) -> MetricsSnapshot {
        let name = "[a-z0-9_.]{1,12}";
        let counters = proptest::collection::vec(any::<u64>(), 0..6)
            .generate(rng)
            .into_iter()
            .map(|v| (name.generate(rng), v))
            .collect();
        let gauges = proptest::collection::vec(any::<i64>(), 0..4)
            .generate(rng)
            .into_iter()
            .map(|v| (name.generate(rng), v))
            .collect();
        let histograms =
            proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..24), 0..3)
                .generate(rng)
                .into_iter()
                .map(|values| {
                    let mut h = Histogram::new();
                    for v in values {
                        h.record(v);
                    }
                    (name.generate(rng), h)
                })
                .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Every strict prefix of a valid body must fail to decode (message
/// layouts are length-prefixed throughout, so truncation is always
/// detectable), and appending junk must fail with `TrailingBytes`.
fn assert_framing_total<T, D>(body: &[u8], decode: D)
where
    D: Fn(&[u8]) -> Result<T, ProtocolError>,
{
    decode(body).expect("whole body decodes");
    for cut in 0..body.len() {
        assert!(
            decode(&body[..cut]).is_err(),
            "prefix of {cut}/{} bytes decoded cleanly",
            body.len()
        );
    }
    let mut extended = body.to_vec();
    extended.push(0);
    assert!(
        matches!(decode(&extended), Err(ProtocolError::TrailingBytes)),
        "junk suffix not rejected"
    );
}

proptest! {
    /// Requests roundtrip bit-exactly, and their framing is total.
    #[test]
    fn request_roundtrip(
        version in any::<u32>(),
        tenant in "[a-z0-9_.:-]{0,16}",
        config in SeedConfigStrategy,
        reads in proptest::collection::vec(WireReadStrategy, 0..8),
        id in "[a-z0-9_.:-]{0,16}",
    ) {
        let requests = vec![
            Request::Hello { version, tenant },
            Request::SeedFromBatch { config, reads: reads.clone() },
            Request::SubmitReads { reads },
            Request::Query { id },
            Request::ClusterStats,
            Request::ServerStats,
            Request::Shutdown,
        ];
        for req in requests {
            let body = req.encode();
            prop_assert_eq!(Request::decode(&body).expect("roundtrip"), req);
            assert_framing_total(&body, Request::decode);
        }
    }

    /// Responses roundtrip bit-exactly, and their framing is total.
    #[test]
    fn response_roundtrip(
        version in any::<u32>(),
        clusters in any::<u64>(),
        labels in proptest::collection::vec(any::<u64>(), 0..32),
        label in proptest::strategy::any::<u64>(),
        has_label in any::<bool>(),
        stats in StatsStrategy,
        snapshot in SnapshotStrategy,
        a in any::<u64>(),
        b in any::<u64>(),
        message in "[ -~]{0,40}",
    ) {
        let responses = vec![
            Response::HelloAck { version },
            Response::Seeded { clusters },
            Response::Labels { labels },
            Response::QueryResult { label: has_label.then_some(label) },
            Response::Stats(stats),
            Response::ServerStats(snapshot),
            Response::Busy { queue_depth: a, limit: b },
            Response::QuotaExceeded { would_use: a, quota: b },
            Response::Error { code: ErrorCode::NotSeeded, message: message.clone() },
            Response::Error { code: ErrorCode::Internal, message },
            Response::ShutdownAck { drained: a },
        ];
        for resp in responses {
            let body = resp.encode();
            prop_assert_eq!(Response::decode(&body).expect("roundtrip"), resp);
            assert_framing_total(&body, Response::decode);
        }
    }

    /// The survival property: arbitrary bytes never panic the
    /// decoders — every outcome is Ok or a typed ProtocolError.
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..300)
    ) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = read_frame(&mut Cursor::new(&bytes));
    }

    /// Flipping any single byte of a valid frame (header or body)
    /// never panics the frame reader or the decoder.
    #[test]
    fn mutated_frames_never_panic(
        reads in proptest::collection::vec(WireReadStrategy, 0..4),
        flip_at in any::<usize>(),
        flip_to in any::<u8>(),
    ) {
        let body = Request::SubmitReads { reads }.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let at = flip_at % wire.len();
        wire[at] = flip_to;
        if let Ok(Some(body)) = read_frame(&mut Cursor::new(&wire)) {
            let _ = Request::decode(&body);
        }
    }
}

#[test]
fn unknown_tags_are_typed_errors_not_panics() {
    for tag in 0u8..=255 {
        let known_req = matches!(tag, 0x01..=0x07);
        let known_resp = matches!(tag, 0x81..=0x8a);
        match Request::decode(&[tag]) {
            Err(ProtocolError::UnknownTag(t)) => {
                assert_eq!(t, tag);
                assert!(!known_req, "tag {tag:#04x} should be known");
            }
            other => assert!(
                known_req,
                "unknown request tag {tag:#04x} produced {other:?}"
            ),
        }
        match Response::decode(&[tag]) {
            Err(ProtocolError::UnknownTag(t)) => {
                assert_eq!(t, tag);
                assert!(!known_resp, "tag {tag:#04x} should be known");
            }
            other => assert!(
                known_resp,
                "unknown response tag {tag:#04x} produced {other:?}"
            ),
        }
    }
}

#[test]
fn over_length_frames_rejected_before_allocation() {
    // Header declares max+1: refused without allocating the body.
    let mut wire = Vec::new();
    let mut header = Vec::new();
    mrmc_mapreduce::wire::put_uvarint(&mut header, MAX_FRAME_LEN + 1);
    wire.extend_from_slice(&header);
    assert!(matches!(
        read_frame(&mut Cursor::new(&wire)),
        Err(ProtocolError::FrameTooLarge { .. })
    ));

    // Absurd length (u64::MAX) likewise.
    let mut wire = Vec::new();
    mrmc_mapreduce::wire::put_uvarint(&mut wire, u64::MAX);
    assert!(matches!(
        read_frame(&mut Cursor::new(&wire)),
        Err(ProtocolError::FrameTooLarge { .. })
    ));
}

#[test]
fn truncated_streams_rejected() {
    let body = Request::ClusterStats.encode();
    let mut wire = Vec::new();
    write_frame(&mut wire, &body).unwrap();
    // Every strict prefix of the framed message fails with Truncated
    // (or clean EOF for the empty prefix).
    for cut in 1..wire.len() {
        match read_frame(&mut Cursor::new(&wire[..cut])) {
            Err(ProtocolError::Truncated) => {}
            Ok(None) => panic!("prefix {cut} looked like clean EOF"),
            other => panic!("prefix {cut}: {other:?}"),
        }
    }
    assert!(read_frame(&mut Cursor::new(&[] as &[u8]))
        .unwrap()
        .is_none());
}

/// A hostile read-count that the body length cannot possibly satisfy
/// is refused before any allocation sized by it.
#[test]
fn hostile_counts_refused() {
    let mut body = vec![0x03]; // SubmitReads tag
    mrmc_mapreduce::wire::put_uvarint(&mut body, u64::MAX);
    assert!(Request::decode(&body).is_err());

    let mut body = vec![0x83]; // Labels tag
    mrmc_mapreduce::wire::put_uvarint(&mut body, u64::MAX);
    assert!(Response::decode(&body).is_err());

    let mut body = vec![0x8a]; // ServerStats tag
    mrmc_mapreduce::wire::put_uvarint(&mut body, u64::MAX);
    assert!(Response::decode(&body).is_err());
}

/// A histogram whose sparse form names a bucket past the last log2
/// bucket must decode to a typed payload error, not an index panic.
#[test]
fn out_of_range_bucket_index_rejected() {
    let mut h = Histogram::new();
    h.record(9);
    let snap = MetricsSnapshot {
        counters: vec![],
        gauges: vec![],
        histograms: vec![("h".into(), h)],
    };
    let mut body = Response::ServerStats(snap).encode();
    // The final two varints are (bucket_index=4, count=1); bump the
    // index far out of range.
    let n = body.len();
    assert_eq!(body[n - 2], 4);
    body[n - 2] = 120;
    assert!(matches!(
        Response::decode(&body),
        Err(ProtocolError::BadPayload(_))
    ));
}
