//! End-to-end loopback tests: a real daemon on an ephemeral port,
//! real TCP clients, and a sequential [`IncrementalClusterer`] oracle.
//!
//! The acceptance property: two concurrent tenant sessions seeded via
//! `SeedFromBatch` produce assignments identical to the oracle, and
//! every read submitted after seeding is answered on the serving path
//! — the daemon's ledger contains *only* `serve`-category spans, no
//! Map-Reduce job spans.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mrmc::{IncrementalClusterer, MrMcMinH};
use mrmc_obs::{Category, Tracer};
use mrmc_seqio::SeqRecord;
use mrmc_server::protocol::{read_frame, write_frame};
use mrmc_server::{
    AdmissionLimits, Client, ClientError, ErrorCode, Request, Response, SeedConfig, Server,
    ServerConfig, ServerHandle, SubmitOutcome, WireRead, PROTOCOL_VERSION,
};
use mrmc_testkit::community::two_species;

fn seed_cfg() -> SeedConfig {
    SeedConfig {
        kmer: 5,
        num_hashes: 64,
        theta: 0.55,
        greedy: true,
        seed: 7,
    }
}

fn spawn_server(limits: AdmissionLimits) -> ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        limits,
        metrics: true,
    };
    Server::spawn(&config, Arc::new(Tracer::new())).expect("bind loopback")
}

/// What the daemon must agree with: seed the incremental clusterer
/// from the same batch run, then push the streamed reads in order.
fn oracle(cfg: &SeedConfig, batch: &[SeqRecord], streamed: &[SeqRecord]) -> Vec<u64> {
    let mrmc_cfg = cfg.to_mrmc();
    let run = MrMcMinH::new(mrmc_cfg).run(batch).expect("batch run");
    let mut inc = IncrementalClusterer::from_run(mrmc_cfg, batch, &run).expect("from_run");
    streamed
        .iter()
        .map(|r| inc.push(r).expect("push") as u64)
        .collect()
}

#[test]
fn concurrent_sessions_match_oracle_and_ledger_is_all_serve() {
    let handle = spawn_server(AdmissionLimits::default());
    let addr = handle.addr();
    let tracer = handle.tracer();

    // Two tenants with different corpora, driven concurrently.
    let tenants: Vec<thread::JoinHandle<()>> = [("alpha", 11u64), ("beta", 22u64)]
        .into_iter()
        .map(|(tenant, seed)| {
            thread::spawn(move || {
                let reads = two_species(60, 400, 20_000, seed).0;
                let (batch, streamed) = reads.split_at(40);
                let expected = oracle(&seed_cfg(), batch, streamed);

                let mut client = Client::connect(addr, tenant).expect("connect");
                let clusters = client.seed_from_batch(&seed_cfg(), batch).expect("seed");
                assert!(clusters >= 1, "{tenant}: seeded {clusters} clusters");

                // Stream in uneven micro-batches; labels must match the
                // sequential oracle read-for-read.
                let mut got = Vec::new();
                for chunk in streamed.chunks(7) {
                    got.extend(client.submit_labels(chunk).expect("submit"));
                }
                assert_eq!(got, expected, "{tenant}: daemon deviates from oracle");

                // Every submitted read is queryable at its oracle label.
                let last = streamed.last().expect("streamed nonempty");
                assert_eq!(
                    client.query(&last.id).expect("query"),
                    expected.last().copied(),
                    "{tenant}: query disagrees"
                );

                let stats = client.stats().expect("stats");
                assert_eq!(stats.tenant, tenant);
                assert_eq!(stats.reads_admitted, streamed.len() as u64);
                assert_eq!(stats.batches_admitted, streamed.chunks(7).count() as u64);
                assert_eq!(stats.reads_rejected, 0);
                assert_eq!(stats.queue_depth, 0, "{tenant}: work left queued");
            })
        })
        .collect();
    for t in tenants {
        t.join().expect("tenant thread");
    }

    // The acceptance assertion: the request path never re-ran the
    // batch pipeline. Seeding runs untraced, so the daemon's ledger
    // must contain serve spans only — zero Map-Reduce job spans.
    let ledger = tracer.ledger();
    assert!(!ledger.spans.is_empty(), "serve spans were emitted");
    for span in &ledger.spans {
        assert_eq!(
            span.category,
            Category::Serve,
            "non-serve span {} leaked into the daemon ledger",
            span.name
        );
    }
    assert!(
        ledger.spans.iter().any(|s| s.name == "serve:assign"),
        "assignment spans present"
    );

    // The live metrics plane saw the same traffic: the latency
    // histograms carry one sample per admitted batch with ordered
    // percentiles.
    let mut observer = Client::connect(addr, "alpha").expect("connect for metrics");
    let snap = observer.server_stats().expect("server stats");
    for tenant in ["alpha", "beta"] {
        let batches = 20usize.div_ceil(7) as u64;
        let lat = snap
            .histogram(&format!("serve.tenant.{tenant}.latency_us"))
            .expect("latency histogram present");
        assert_eq!(lat.count(), batches);
        let (p50, p95, p99) = (
            lat.percentile(50.0),
            lat.percentile(95.0),
            lat.percentile(99.0),
        );
        assert!(p50 <= p95 && p95 <= p99, "percentiles ordered");
        assert!(p99 <= lat.max().unwrap_or(0));
        let sizes = snap
            .histogram(&format!("serve.tenant.{tenant}.batch_reads"))
            .expect("batch-size histogram present");
        assert_eq!(sizes.sum(), 20, "batch-size samples cover every read");
        assert_eq!(
            snap.gauge(&format!("serve.tenant.{tenant}.queue_depth")),
            Some(0),
            "{tenant}: live queue gauge drained"
        );
    }
    // The worker sends each reply *before* re-taking the queue lock to
    // decrement `in_flight` (drain must answer every admitted batch
    // before acking), so a client that just received its labels may
    // still observe the previous gauge value — bounded by the number
    // of already-answered batches, never a phantom queue item.
    let in_flight = snap
        .gauge("serve.in_flight")
        .expect("in-flight gauge present");
    assert!(
        (0..=2).contains(&in_flight),
        "in-flight gauge bounded by answered batches: {in_flight}"
    );
    assert_eq!(snap.gauge("serve.queue_depth"), Some(0));
    assert_eq!(snap.gauge("serve.sessions"), Some(2));

    // Graceful drain: shutdown acks with nothing left to drain (every
    // batch was answered), the daemon thread exits, and a late
    // connection is refused or dropped without an answer.
    let mut closer = Client::connect(addr, "alpha").expect("connect for shutdown");
    assert_eq!(closer.shutdown().expect("shutdown ack"), 0, "idle drain");
    handle.join();
    assert!(
        Client::connect(addr, "late").is_err(),
        "daemon still answering after drain"
    );
}

#[test]
fn zero_depth_queue_answers_busy() {
    let handle = spawn_server(AdmissionLimits {
        max_queue_depth: 0,
        ..AdmissionLimits::default()
    });
    let reads = two_species(20, 400, 20_000, 3).0;
    let mut client = Client::connect(handle.addr(), "t").expect("connect");
    client
        .seed_from_batch(&seed_cfg(), &reads[..10])
        .expect("seed");
    match client.submit(&reads[10..]).expect("submit") {
        SubmitOutcome::Busy { queue_depth, limit } => {
            assert_eq!((queue_depth, limit), (0, 0));
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.busy_rejections, 1);
    assert_eq!(stats.reads_rejected, 10);
    assert_eq!(stats.reads_admitted, 0, "refusals record nothing");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn byte_quota_refusals_are_permanent() {
    let handle = spawn_server(AdmissionLimits {
        max_session_bytes: 64,
        ..AdmissionLimits::default()
    });
    let reads = two_species(20, 400, 20_000, 4).0; // 400-base reads: any batch blows a 64-byte quota
    let mut client = Client::connect(handle.addr(), "t").expect("connect");
    client
        .seed_from_batch(&seed_cfg(), &reads[..10])
        .expect("seed");
    for _ in 0..2 {
        match client.submit(&reads[10..12]).expect("submit") {
            SubmitOutcome::QuotaExceeded { would_use, quota } => {
                assert_eq!(quota, 64);
                assert!(would_use > quota);
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.quota_rejections, 2, "quota refusal is permanent");
    assert_eq!(stats.bytes_admitted, 0);
    client.shutdown().expect("shutdown");
    handle.join();
}

/// Metrics are passive: a daemon with the registry disabled answers
/// `ServerStats` with an empty snapshot and assigns the exact same
/// labels as a metrics-enabled daemon over the same traffic. With the
/// registry on, the tenant's admission tallies in the snapshot are the
/// session ledger's, field for field.
#[test]
fn metrics_off_daemon_is_label_identical_and_snapshot_empty() {
    let reads = two_species(31, 400, 20_000, 9).0;
    let (batch, rest) = reads.split_at(20);
    let (streamed, refused) = rest.split_at(10);
    // The quota admits the streamed reads exactly, so the last one is
    // refused and the rejection tallies are not all zero.
    let quota = streamed
        .iter()
        .map(|r| WireRead::from(r).payload_bytes() as u64)
        .sum();
    let mut labels = Vec::new();
    for metrics in [true, false] {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            limits: AdmissionLimits {
                max_session_bytes: quota,
                ..AdmissionLimits::default()
            },
            metrics,
        };
        let handle = Server::spawn(&config, Arc::new(Tracer::new())).expect("bind");
        let mut client = Client::connect(handle.addr(), "t").expect("connect");
        client.seed_from_batch(&seed_cfg(), batch).expect("seed");
        let mut got = Vec::new();
        for chunk in streamed.chunks(4) {
            got.extend(client.submit_labels(chunk).expect("submit"));
        }
        assert!(matches!(
            client.submit(refused).expect("submit"),
            SubmitOutcome::QuotaExceeded { .. }
        ));
        let snap = client.server_stats().expect("server stats");
        if metrics {
            let stats = client.stats().expect("stats");
            for (name, value) in [
                ("batches_admitted", stats.batches_admitted),
                ("reads_admitted", stats.reads_admitted),
                ("bytes_admitted", stats.bytes_admitted),
                ("reads_rejected", stats.reads_rejected),
                ("busy_rejections", stats.busy_rejections),
                ("quota_rejections", stats.quota_rejections),
            ] {
                let key = format!("serve.tenant.t.{name}");
                assert_eq!(snap.gauge(&key), Some(value as i64), "{key}");
                assert_eq!(snap.counter(&key), None, "{key} has one account");
            }
            assert_eq!(stats.quota_rejections, 1);
        } else {
            assert!(snap.is_empty(), "metrics-off snapshot is empty");
        }
        labels.push(got);
        client.shutdown().expect("shutdown");
        handle.join();
    }
    assert_eq!(labels[0], labels[1], "labels identical with metrics on/off");
}

#[test]
fn version_mismatch_is_refused_at_handshake() {
    let handle = spawn_server(AdmissionLimits::default());
    // Version 1 carried a strand byte in the seed frame; a client that
    // still speaks it is refused rather than misparsed.
    for version in [1, PROTOCOL_VERSION + 999] {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let hello = Request::Hello {
            version,
            tenant: "t".to_string(),
        };
        write_frame(&mut stream, &hello.encode()).expect("write");
        let body = read_frame(&mut stream).expect("read").expect("frame");
        match Response::decode(&body).expect("decode") {
            Response::Error { code, .. } => {
                assert_eq!(code, ErrorCode::VersionMismatch, "version {version}")
            }
            other => panic!("expected version-mismatch error for {version}, got {other:?}"),
        }
    }
    let mut closer = Client::connect(handle.addr(), "t").expect("connect");
    closer.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn session_lifecycle_errors_are_typed() {
    let handle = spawn_server(AdmissionLimits::default());
    let reads = two_species(12, 400, 20_000, 5).0;
    let mut client = Client::connect(handle.addr(), "t").expect("connect");

    // Submitting before seeding is a typed NotSeeded error, and the
    // refusal admits nothing.
    match client.submit_labels(&reads[..4]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::NotSeeded),
        other => panic!("expected NotSeeded, got {other:?}"),
    }
    assert_eq!(client.stats().expect("stats").reads_admitted, 0);

    client
        .seed_from_batch(&seed_cfg(), &reads[..8])
        .expect("seed");

    // Re-seeding would discard live centroids: refused.
    match client.seed_from_batch(&seed_cfg(), &reads[..8]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::AlreadySeeded),
        other => panic!("expected AlreadySeeded, got {other:?}"),
    }

    // A second connection naming the same tenant shares the session.
    let mut second = Client::connect(handle.addr(), "t").expect("connect");
    let labels = second.submit_labels(&reads[8..]).expect("submit");
    assert_eq!(labels.len(), 4);
    assert_eq!(
        client.query(&reads[8].id).expect("query"),
        Some(labels[0]),
        "sessions are shared across connections"
    );

    client.shutdown().expect("shutdown");
    handle.join();
}

/// A seed frame asking for 2^40 hash functions is refused as a bad
/// config before anything is allocated for them, and the same tenant
/// then seeds and submits normally.
#[test]
fn oversized_num_hashes_is_refused_and_the_tenant_serves_on() {
    let handle = spawn_server(AdmissionLimits::default());
    let reads = two_species(12, 400, 20_000, 6).0;
    let mut client = Client::connect(handle.addr(), "t").expect("connect");
    let huge = SeedConfig {
        num_hashes: 1 << 40,
        ..seed_cfg()
    };
    match client.seed_from_batch(&huge, &reads[..8]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadConfig),
        other => panic!("expected BadConfig, got {other:?}"),
    }
    client
        .seed_from_batch(&seed_cfg(), &reads[..8])
        .expect("seed");
    assert_eq!(client.submit_labels(&reads[8..]).expect("submit").len(), 4);
    client.shutdown().expect("shutdown");
    handle.join();
}

/// A raw connection past the handshake, for tests that shape the bytes
/// of a frame themselves.
fn raw_session(handle: &ServerHandle, tenant: &str) -> TcpStream {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        tenant: tenant.to_string(),
    };
    write_frame(&mut stream, &hello.encode()).expect("write");
    let body = read_frame(&mut stream).expect("read").expect("frame");
    assert_eq!(
        Response::decode(&body).expect("decode"),
        Response::HelloAck {
            version: PROTOCOL_VERSION
        }
    );
    stream
}

fn frame(req: &Request) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, &req.encode()).expect("write to a Vec");
    wire
}

fn response(stream: &mut TcpStream) -> Response {
    let body = read_frame(stream).expect("read").expect("frame");
    Response::decode(&body).expect("decode")
}

/// A frame whose body arrives 300 ms after its header — longer than
/// the daemon's idle poll — is waited for and answered.
#[test]
fn frame_split_by_a_pause_is_answered() {
    let handle = spawn_server(AdmissionLimits::default());
    let mut stream = raw_session(&handle, "t");
    let wire = frame(&Request::Query { id: "r1".into() });
    stream.write_all(&wire[..1]).expect("header");
    thread::sleep(Duration::from_millis(300));
    stream.write_all(&wire[1..]).expect("body");
    assert_eq!(response(&mut stream), Response::QueryResult { label: None });
    drop(stream);
    Client::connect(handle.addr(), "t")
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    handle.join();
}

/// Two requests sent in one `write` are both answered, in order.
#[test]
fn requests_in_one_write_are_answered_in_order() {
    let handle = spawn_server(AdmissionLimits::default());
    let mut stream = raw_session(&handle, "t");
    let mut wire = frame(&Request::Query { id: "r1".into() });
    wire.extend(frame(&Request::ClusterStats));
    stream.write_all(&wire).expect("write");
    assert_eq!(response(&mut stream), Response::QueryResult { label: None });
    match response(&mut stream) {
        Response::Stats(stats) => assert_eq!(stats.tenant, "t"),
        other => panic!("expected Stats, got {other:?}"),
    }
    drop(stream);
    Client::connect(handle.addr(), "t")
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    handle.join();
}

/// A peer that hangs up halfway through a frame costs only its own
/// connection: the tenant keeps serving the others, old and new.
#[test]
fn hangup_mid_frame_leaves_the_tenant_serving() {
    let handle = spawn_server(AdmissionLimits::default());
    let reads = two_species(20, 400, 20_000, 8).0;
    let mut client = Client::connect(handle.addr(), "t").expect("connect");
    client
        .seed_from_batch(&seed_cfg(), &reads[..10])
        .expect("seed");

    let mut quitter = raw_session(&handle, "t");
    let wire = frame(&Request::SubmitReads {
        reads: reads[10..15].iter().map(WireRead::from).collect(),
    });
    quitter
        .write_all(&wire[..wire.len() / 2])
        .expect("half a frame");
    drop(quitter);

    let labels = client.submit_labels(&reads[15..]).expect("submit");
    assert_eq!(client.query(&reads[15].id).expect("query"), Some(labels[0]));
    let mut late = Client::connect(handle.addr(), "t").expect("connect");
    let stats = late.stats().expect("stats");
    assert_eq!(stats.reads_admitted, 5, "the half frame admitted nothing");
    assert_eq!(stats.queue_depth, 0);
    late.shutdown().expect("shutdown");
    handle.join();
}
