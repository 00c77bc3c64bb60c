//! The `mrmc-server` daemon: TCP accept loop, per-tenant sessions, a
//! bounded admission queue feeding a worker pool, and graceful drain.
//!
//! # Threading model
//!
//! * One **accept loop** (the thread that calls [`Server::run`])
//!   spawns a handler thread per connection.
//! * Connection threads do handshake, framing and admission control,
//!   writing each response frame with one `write_all` and reading
//!   requests through a buffer (see `FrameReader` for the timeouts),
//!   then hand admitted micro-batches to the shared work queue and
//!   block on the reply channel. Seeding (`SeedFromBatch`) runs
//!   inline on the connection thread — it is a one-time heavyweight
//!   step that holds only its own session's lock.
//! * A fixed **worker pool** drains the queue: lock the batch's
//!   session, [`crate::session::Session::assign`] via
//!   `IncrementalClusterer::push_batch` (per read: one sketch, one
//!   representative-index lookup — the time spent under the session
//!   lock), reply. Different tenants
//!   proceed concurrently; one tenant's batches serialize on its
//!   session lock in admission order. A panic inside the assignment is
//!   caught: the batch is answered `Internal`, its admission slot and
//!   in-flight count are released, and the worker takes the next one.
//!
//! Lock order is always session → queue (connections) or queue-pop →
//! session (workers, queue lock released before the session lock is
//! taken), so the two never deadlock. Every lock goes through `lock`,
//! which takes over a poisoned mutex: a thread that panicked holding a
//! session does not retire its tenant.
//!
//! # Shutdown
//!
//! `Shutdown` flips the drain flag *under the queue lock* (so no new
//! batch can slip in afterwards), waits until the queue is empty and
//! nothing is in flight, acks with the number of batches that were
//! still queued, wakes the workers to exit, and unblocks the accept
//! loop with a loopback connection. Every admitted batch is answered
//! before the ack; submissions arriving during the drain get an
//! explicit `ShuttingDown` error.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use mrmc_obs::{Category, MetricsRegistry, MetricsSnapshot, SpanDraft, Tracer};
use mrmc_seqio::SeqRecord;

use crate::protocol::{
    holds_whole_frame, read_frame, write_frame, ErrorCode, ProtocolError, Request, Response,
    PROTOCOL_VERSION,
};
use crate::quota::{AdmissionLimits, AdmissionReject};
use crate::session::{Session, SessionError};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral loopback port.
    pub addr: String,
    /// Worker-pool threads draining the admission queue.
    pub workers: usize,
    /// Admission limits applied to every session.
    pub limits: AdmissionLimits,
    /// Record into the live metrics registry (`ServerStats` answers an
    /// empty snapshot when off). On by default; the registry is
    /// passive enough that turning it off is a benchmarking control,
    /// not an operational one.
    pub metrics: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            limits: AdmissionLimits::default(),
            metrics: true,
        }
    }
}

/// Lock `m`, taking the guard over if a panicking holder poisoned it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One tenant: its session and the metric keys its requests record
/// under, built once when the session is created.
struct Tenant {
    session: Mutex<Session>,
    keys: TenantKeys,
}

/// The tenant's `serve.tenant.<tenant>.*` request-path metric keys.
struct TenantKeys {
    queue_us: String,
    latency_us: String,
    seed_us: String,
    batch_reads: String,
    batches_admitted: String,
    reads_admitted: String,
    bytes_admitted: String,
    reads_rejected: String,
    busy_rejections: String,
    quota_rejections: String,
}

impl TenantKeys {
    fn new(tenant: &str) -> TenantKeys {
        let key = |name: &str| format!("serve.tenant.{tenant}.{name}");
        TenantKeys {
            queue_us: key("queue_us"),
            latency_us: key("latency_us"),
            seed_us: key("seed_us"),
            batch_reads: key("batch_reads"),
            batches_admitted: key("batches_admitted"),
            reads_admitted: key("reads_admitted"),
            bytes_admitted: key("bytes_admitted"),
            reads_rejected: key("reads_rejected"),
            busy_rejections: key("busy_rejections"),
            quota_rejections: key("quota_rejections"),
        }
    }
}

/// One admitted micro-batch travelling queue → worker.
struct WorkItem {
    tenant: Arc<Tenant>,
    reads: Vec<SeqRecord>,
    bytes: usize,
    reply: mpsc::Sender<Result<Vec<u64>, SessionError>>,
    enqueued_ns: u64,
}

#[derive(Default)]
struct QueueState {
    items: VecDeque<WorkItem>,
    in_flight: usize,
}

struct Shared {
    tracer: Arc<Tracer>,
    /// Live metrics registry; `None` when the daemon runs with
    /// metrics disabled (`--no-metrics`; labels are identical either
    /// way).
    metrics: Option<Arc<MetricsRegistry>>,
    limits: AdmissionLimits,
    addr: Mutex<Option<SocketAddr>>,
    sessions: Mutex<HashMap<String, Arc<Tenant>>>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    drained_cv: Condvar,
    shutting_down: AtomicBool,
    server_job: u32,
}

impl Shared {
    fn tenant(&self, tenant: &str) -> Arc<Tenant> {
        let mut sessions = lock(&self.sessions);
        if let Some(t) = sessions.get(tenant) {
            return Arc::clone(t);
        }
        let job = self.tracer.begin_job(&format!("session:{tenant}"));
        let s = Arc::new(Tenant {
            session: Mutex::new(Session::new(tenant, self.limits, job)),
            keys: TenantKeys::new(tenant),
        });
        sessions.insert(tenant.to_string(), Arc::clone(&s));
        if let Some(m) = &self.metrics {
            m.gauge_set("serve.sessions", sessions.len() as i64);
        }
        s
    }

    /// Refresh the daemon-wide queue gauges from the queue state
    /// (callers hold the queue lock, so the values are consistent).
    fn queue_gauges(&self, q: &QueueState) {
        if let Some(m) = &self.metrics {
            m.gauge_set("serve.queue_depth", q.items.len() as i64);
            m.gauge_set("serve.in_flight", q.in_flight as i64);
        }
    }

    /// Enqueue an admitted batch unless the drain already began.
    /// Returns the item back on refusal so the caller can un-admit it.
    fn enqueue(&self, item: WorkItem) -> Result<(), WorkItem> {
        let mut q = lock(&self.queue);
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(item);
        }
        q.items.push_back(item);
        self.queue_gauges(&q);
        self.queue_cv.notify_one();
        Ok(())
    }

    /// Flip the drain flag, wait for the queue to empty and all
    /// in-flight work to finish, then wake idle workers so they exit.
    /// Returns how many batches were still queued when drain began.
    fn drain(&self) -> u64 {
        let mut q = lock(&self.queue);
        self.shutting_down.store(true, Ordering::SeqCst);
        let backlog = q.items.len() as u64;
        while !(q.items.is_empty() && q.in_flight == 0) {
            let (guard, _) = self
                .drained_cv
                .wait_timeout(q, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
        self.queue_cv.notify_all();
        self.tracer.add_event(
            self.server_job,
            "drain",
            self.tracer.now_ns(),
            vec![("backlog".into(), backlog.to_string())],
        );
        backlog
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let item = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(item) = q.items.pop_front() {
                    q.in_flight += 1;
                    shared.queue_gauges(&q);
                    break item;
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                q = shared
                    .queue_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        serve_item(&shared, item, Session::assign);
    }
}

/// The result a batch is answered with when `assign` panicked.
fn panicked(payload: &(dyn Any + Send)) -> SessionError {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message");
    SessionError::Internal(format!("assignment panicked: {message}"))
}

/// Answer one dequeued batch: `assign` it under its session's lock,
/// release its admission slot, reply, and drop its in-flight count. A
/// panic inside `assign` is caught and answered as
/// [`SessionError::Internal`], so the worker lives on and a later drain
/// still sees the queue settle.
fn serve_item(
    shared: &Shared,
    item: WorkItem,
    assign: impl FnOnce(&mut Session, &[SeqRecord]) -> Result<Vec<u64>, SessionError>,
) {
    let dequeued_ns = shared.tracer.now_ns();
    let result = {
        let mut s = lock(&item.tenant.session);
        // The guard lives outside the closure, so a panic does not
        // poison the session.
        let result = panic::catch_unwind(AssertUnwindSafe(|| assign(&mut s, &item.reads)))
            .unwrap_or_else(|payload| Err(panicked(payload.as_ref())));
        s.complete(item.bytes);
        let done_ns = shared.tracer.now_ns();
        shared.tracer.add_span(
            SpanDraft::new(s.job, "serve:queue", Category::Serve)
                .at(
                    item.enqueued_ns,
                    dequeued_ns.saturating_sub(item.enqueued_ns),
                )
                .meta("reads", item.reads.len()),
        );
        shared.tracer.add_span(
            SpanDraft::new(s.job, "serve:assign", Category::Serve)
                .at(dequeued_ns, done_ns.saturating_sub(dequeued_ns))
                .meta("reads", item.reads.len())
                .meta("queue_depth", s.queue_depth())
                .meta(
                    "ok",
                    match &result {
                        Ok(labels) => labels.len().to_string(),
                        Err(e) => format!("error:{e}"),
                    },
                ),
        );
        if let Some(m) = &shared.metrics {
            let keys = &item.tenant.keys;
            m.observe(
                &keys.queue_us,
                dequeued_ns.saturating_sub(item.enqueued_ns) / 1_000,
            );
            m.observe(
                &keys.latency_us,
                done_ns.saturating_sub(item.enqueued_ns) / 1_000,
            );
        }
        result
    };
    let _ = item.reply.send(result);
    let mut q = lock(&shared.queue);
    q.in_flight -= 1;
    shared.queue_gauges(&q);
    if q.items.is_empty() && q.in_flight == 0 {
        shared.drained_cv.notify_all();
    }
}

fn send(stream: &mut TcpStream, resp: &Response) -> bool {
    write_frame(stream, &resp.encode()).is_ok()
}

fn error_response(e: &SessionError) -> Response {
    let code = match e {
        SessionError::NotSeeded => ErrorCode::NotSeeded,
        SessionError::AlreadySeeded => ErrorCode::AlreadySeeded,
        SessionError::BadConfig(_) => ErrorCode::BadConfig,
        SessionError::Internal(_) => ErrorCode::Internal,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

/// Read timeout for the handshake frame.
const HANDSHAKE_WAIT: Duration = Duration::from_secs(10);
/// Read timeout between frames: short, so an idle connection sees a
/// drain begin.
const IDLE_POLL: Duration = Duration::from_millis(200);
/// Read timeout once a frame has begun arriving: the peer is
/// committed, so a slow one is waited for, not cut off.
const MID_FRAME_WAIT: Duration = Duration::from_secs(30);

/// The request side of a connection: a buffer over a clone of the
/// stream, and the read timeout last set on the socket. The timeout
/// changes only when the wait changes kind — to [`IDLE_POLL`] when
/// nothing is buffered, to [`MID_FRAME_WAIT`] when a frame is only
/// partly buffered — so a request that arrives whole costs one `read`
/// and no `setsockopt`.
struct FrameReader {
    reader: BufReader<TcpStream>,
    timeout: Duration,
}

impl FrameReader {
    fn new(stream: &TcpStream) -> io::Result<FrameReader> {
        stream.set_read_timeout(Some(HANDSHAKE_WAIT))?;
        Ok(FrameReader {
            reader: BufReader::new(stream.try_clone()?),
            timeout: HANDSHAKE_WAIT,
        })
    }

    fn wait(&mut self, timeout: Duration) {
        if self.timeout != timeout {
            let _ = self.reader.get_ref().set_read_timeout(Some(timeout));
            self.timeout = timeout;
        }
    }

    /// The next request frame, polling the drain flag while idle.
    /// `None` ends the connection (peer closed, transport error, or
    /// daemon drain while idle); `Some(Err)` means framing is lost.
    fn next(&mut self, shared: &Shared) -> Option<Result<Vec<u8>, ProtocolError>> {
        if self.reader.buffer().is_empty() {
            self.wait(IDLE_POLL);
            loop {
                match self.reader.fill_buf() {
                    Ok([]) => return None,
                    Ok(_) => break,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        if shared.shutting_down.load(Ordering::SeqCst) {
                            return None;
                        }
                    }
                    Err(_) => return None,
                }
            }
        }
        if !holds_whole_frame(self.reader.buffer()) {
            self.wait(MID_FRAME_WAIT);
        }
        read_frame(&mut self.reader).transpose()
    }
}

/// Handshake: the first frame must be `Hello` with a matching
/// version and non-empty tenant. Returns the bound session.
fn handshake(
    shared: &Shared,
    stream: &mut TcpStream,
    frames: &mut FrameReader,
) -> Option<Arc<Tenant>> {
    let body = match read_frame(&mut frames.reader) {
        Ok(Some(body)) => body,
        Ok(None) | Err(_) => return None,
    };
    match Request::decode(&body) {
        Ok(Request::Hello { version, tenant }) => {
            if version != PROTOCOL_VERSION {
                send(
                    stream,
                    &Response::Error {
                        code: ErrorCode::VersionMismatch,
                        message: ProtocolError::VersionMismatch {
                            got: version,
                            want: PROTOCOL_VERSION,
                        }
                        .to_string(),
                    },
                );
                None
            } else if tenant.is_empty() {
                send(
                    stream,
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message: "tenant must be non-empty".to_string(),
                    },
                );
                None
            } else {
                let session = shared.tenant(&tenant);
                if let Some(m) = &shared.metrics {
                    m.counter_add("serve.requests.hello", 1);
                }
                if send(
                    stream,
                    &Response::HelloAck {
                        version: PROTOCOL_VERSION,
                    },
                ) {
                    Some(session)
                } else {
                    None
                }
            }
        }
        Ok(_) => {
            send(
                stream,
                &Response::Error {
                    code: ErrorCode::Protocol,
                    message: "expected Hello as the first frame".to_string(),
                },
            );
            None
        }
        Err(e) => {
            send(
                stream,
                &Response::Error {
                    code: ErrorCode::Protocol,
                    message: e.to_string(),
                },
            );
            None
        }
    }
}

fn handle_submit(
    shared: &Shared,
    tenant: &Arc<Tenant>,
    reads: Vec<crate::protocol::WireRead>,
) -> Response {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "daemon is draining".to_string(),
        };
    }
    let bytes: usize = reads.iter().map(|r| r.payload_bytes()).sum();
    let records: Vec<SeqRecord> = reads.into_iter().map(SeqRecord::from).collect();
    let rx = {
        let mut s = lock(&tenant.session);
        let keys = &tenant.keys;
        if let Some(m) = &shared.metrics {
            m.counter_add("serve.requests.submit", 1);
        }
        if !s.is_seeded() {
            return error_response(&SessionError::NotSeeded);
        }
        match s.try_admit(records.len(), bytes) {
            Err(AdmissionReject::Busy { queue_depth, limit }) => {
                shared.tracer.add_event(
                    s.job,
                    "admission_reject",
                    shared.tracer.now_ns(),
                    vec![
                        ("kind".into(), "busy".into()),
                        ("reads".into(), records.len().to_string()),
                    ],
                );
                if let Some(m) = &shared.metrics {
                    m.counter_add(&keys.busy_rejections, 1);
                    m.counter_add(&keys.reads_rejected, records.len() as u64);
                }
                return Response::Busy { queue_depth, limit };
            }
            Err(AdmissionReject::QuotaExceeded { would_use, quota }) => {
                shared.tracer.add_event(
                    s.job,
                    "admission_reject",
                    shared.tracer.now_ns(),
                    vec![
                        ("kind".into(), "quota".into()),
                        ("reads".into(), records.len().to_string()),
                    ],
                );
                if let Some(m) = &shared.metrics {
                    m.counter_add(&keys.quota_rejections, 1);
                    m.counter_add(&keys.reads_rejected, records.len() as u64);
                }
                return Response::QuotaExceeded { would_use, quota };
            }
            Ok(()) => {
                if let Some(m) = &shared.metrics {
                    m.counter_add(&keys.batches_admitted, 1);
                    m.counter_add(&keys.reads_admitted, records.len() as u64);
                    m.counter_add(&keys.bytes_admitted, bytes as u64);
                    m.observe(&keys.batch_reads, records.len() as u64);
                }
                let (tx, rx) = mpsc::channel();
                let item = WorkItem {
                    tenant: Arc::clone(tenant),
                    reads: records,
                    bytes,
                    reply: tx,
                    enqueued_ns: shared.tracer.now_ns(),
                };
                // Admission and enqueue both happen before the session
                // lock drops, so queue_depth never overshoots its bound.
                match shared.enqueue(item) {
                    Ok(()) => rx,
                    Err(_refused) => {
                        // Drain began between the flag check and the
                        // enqueue: un-admit and refuse explicitly.
                        s.complete(bytes);
                        return Response::Error {
                            code: ErrorCode::ShuttingDown,
                            message: "daemon is draining".to_string(),
                        };
                    }
                }
            }
        }
    };
    match rx.recv() {
        Ok(Ok(labels)) => Response::Labels { labels },
        Ok(Err(e)) => error_response(&e),
        Err(_) => error_response(&SessionError::Internal("worker disappeared".to_string())),
    }
}

fn handle_conn(shared: Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(mut frames) = FrameReader::new(&stream) else {
        return;
    };
    let tenant = match handshake(&shared, &mut stream, &mut frames) {
        Some(t) => t,
        None => return,
    };
    while let Some(frame) = frames.next(&shared) {
        let body = match frame {
            Ok(body) => body,
            Err(e) => {
                // Framing is lost — report and hang up.
                send(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        let resp = match Request::decode(&body) {
            Err(e) => Response::Error {
                code: ErrorCode::Protocol,
                message: e.to_string(),
            },
            Ok(Request::Hello { .. }) => Response::Error {
                code: ErrorCode::Protocol,
                message: "duplicate Hello".to_string(),
            },
            Ok(Request::SeedFromBatch { config, reads }) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    Response::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "daemon is draining".to_string(),
                    }
                } else {
                    let records: Vec<SeqRecord> = reads.into_iter().map(SeqRecord::from).collect();
                    let start_ns = shared.tracer.now_ns();
                    let mut s = lock(&tenant.session);
                    if let Some(m) = &shared.metrics {
                        m.counter_add("serve.requests.seed", 1);
                    }
                    match s.seed_from_batch(&config, &records) {
                        Ok(clusters) => {
                            let done_ns = shared.tracer.now_ns();
                            shared.tracer.add_span(
                                SpanDraft::new(s.job, "serve:seed", Category::Serve)
                                    .at(start_ns, done_ns.saturating_sub(start_ns))
                                    .meta("reads", records.len())
                                    .meta("clusters", clusters),
                            );
                            if let Some(m) = &shared.metrics {
                                m.observe(
                                    &tenant.keys.seed_us,
                                    done_ns.saturating_sub(start_ns) / 1_000,
                                );
                            }
                            Response::Seeded { clusters }
                        }
                        Err(e) => error_response(&e),
                    }
                }
            }
            Ok(Request::SubmitReads { reads }) => handle_submit(&shared, &tenant, reads),
            Ok(Request::Query { id }) => {
                if let Some(m) = &shared.metrics {
                    m.counter_add("serve.requests.query", 1);
                }
                let s = lock(&tenant.session);
                Response::QueryResult {
                    label: s.query(&id),
                }
            }
            Ok(Request::ClusterStats) => {
                if let Some(m) = &shared.metrics {
                    m.counter_add("serve.requests.cluster_stats", 1);
                }
                let s = lock(&tenant.session);
                Response::Stats(s.stats())
            }
            Ok(Request::ServerStats) => match &shared.metrics {
                Some(m) => {
                    m.counter_add("serve.requests.server_stats", 1);
                    // Refresh every session's live gauges so the
                    // snapshot reflects the daemon *now*, not as of
                    // the last submission. Lock order matches the
                    // handshake path: sessions map, then one session
                    // at a time.
                    let sessions = lock(&shared.sessions);
                    for t in sessions.values() {
                        lock(&t.session).export_metrics(m);
                    }
                    drop(sessions);
                    Response::ServerStats(m.snapshot())
                }
                None => Response::ServerStats(MetricsSnapshot::default()),
            },
            Ok(Request::Shutdown) => {
                let drained = shared.drain();
                let resp = Response::ShutdownAck { drained };
                send(&mut stream, &resp);
                // Unblock the accept loop so run() can return.
                if let Some(addr) = *lock(&shared.addr) {
                    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
                }
                return;
            }
        };
        if !send(&mut stream, &resp) {
            return;
        }
    }
}

/// The daemon. [`Server::bind`] claims the port and starts the worker
/// pool; [`Server::run`] serves until a `Shutdown` request drains it.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind the listener and start the worker pool.
    pub fn bind(config: &ServerConfig, tracer: Arc<Tracer>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let server_job = tracer.begin_job("mrmc-server");
        tracer.add_event(
            server_job,
            "listening",
            tracer.now_ns(),
            vec![("addr".into(), addr.to_string())],
        );
        let shared = Arc::new(Shared {
            tracer,
            metrics: config.metrics.then(|| Arc::new(MetricsRegistry::new())),
            limits: config.limits,
            addr: Mutex::new(Some(addr)),
            sessions: Mutex::new(HashMap::new()),
            queue: Mutex::new(QueueState::default()),
            queue_cv: Condvar::new(),
            drained_cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            server_job,
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("mrmc-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn worker")
            })
            .collect();
        Ok(Server {
            listener,
            addr,
            shared,
            workers,
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The tracer the request path emits `serve` spans into.
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.shared.tracer)
    }

    /// The live metrics registry (`None` when disabled by config).
    pub fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.shared.metrics.as_ref().map(Arc::clone)
    }

    /// Serve until a client's `Shutdown` drains the daemon. Joins the
    /// worker pool and every connection thread before returning, so
    /// when this returns every admitted batch has been answered.
    pub fn run(self) {
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = stream {
                let shared = Arc::clone(&self.shared);
                if let Ok(h) = thread::Builder::new()
                    .name("mrmc-conn".to_string())
                    .spawn(move || handle_conn(shared, stream))
                {
                    conns.push(h);
                }
            }
        }
        for w in self.workers {
            let _ = w.join();
        }
        for c in conns {
            let _ = c.join();
        }
    }

    /// Bind and serve on a background thread; the returned handle
    /// exposes the bound address and tracer and joins on drop-site
    /// demand via [`ServerHandle::join`].
    pub fn spawn(config: &ServerConfig, tracer: Arc<Tracer>) -> io::Result<ServerHandle> {
        let server = Server::bind(config, tracer)?;
        let addr = server.local_addr();
        let tracer = server.tracer();
        let metrics = server.metrics();
        let join = thread::Builder::new()
            .name("mrmc-server".to_string())
            .spawn(move || server.run())?;
        Ok(ServerHandle {
            addr,
            tracer,
            metrics,
            join,
        })
    }
}

/// Handle to a daemon running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    tracer: Arc<Tracer>,
    metrics: Option<Arc<MetricsRegistry>>,
    join: JoinHandle<()>,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's tracer (shared; snapshot with `ledger()`).
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.tracer)
    }

    /// The daemon's live metrics registry (`None` when disabled).
    pub fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.metrics.as_ref().map(Arc::clone)
    }

    /// Wait for the daemon to drain and exit.
    pub fn join(self) {
        let _ = self.join.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::SeedConfig;

    /// A thread that panics holding a tenant's session poisons its
    /// mutex; the tenant keeps answering queries, stats and submits.
    #[test]
    fn poisoned_session_keeps_serving() {
        let server = Server::bind(&ServerConfig::default(), Arc::new(Tracer::new())).unwrap();
        let addr = server.local_addr();
        let shared = Arc::clone(&server.shared);
        let daemon = thread::spawn(move || server.run());

        let read = |id: &str| SeqRecord::new(id, b"ACGTACGTACGTACGTTTTTACGTACGT".to_vec());
        let mut client = Client::connect(addr, "t").unwrap();
        let config = SeedConfig {
            kmer: 5,
            num_hashes: 64,
            theta: 0.9,
            greedy: true,
            ..SeedConfig::default()
        };
        client.seed_from_batch(&config, &[read("a")]).unwrap();

        let tenant = shared.tenant("t");
        let holder = Arc::clone(&tenant);
        let panicked = thread::spawn(move || {
            let _session = holder.session.lock();
            panic!("panics holding the session");
        })
        .join();
        assert!(panicked.is_err());
        assert!(tenant.session.is_poisoned());

        assert_eq!(client.query("a").unwrap(), Some(0));
        assert_eq!(client.stats().unwrap().tenant, "t");
        assert_eq!(client.submit_labels(&[read("b")]).unwrap(), vec![0]);
        client.shutdown().unwrap();
        daemon.join().unwrap();
    }

    /// A batch whose assignment panics is answered, its slot and its
    /// in-flight count are released, and a drain then returns.
    #[test]
    fn panicking_assignment_is_answered_and_drain_returns() {
        let server = Server::bind(&ServerConfig::default(), Arc::new(Tracer::new())).unwrap();
        let shared = Arc::clone(&server.shared);
        let tenant = shared.tenant("t");
        let reads = vec![SeqRecord::new("a", b"ACGTACGT".to_vec())];
        lock(&tenant.session).try_admit(1, 8).unwrap();
        // What a worker does when it pops the batch.
        lock(&shared.queue).in_flight += 1;
        let (reply, answer) = mpsc::channel();
        let item = WorkItem {
            tenant: Arc::clone(&tenant),
            reads,
            bytes: 8,
            reply,
            enqueued_ns: shared.tracer.now_ns(),
        };
        serve_item(&shared, item, |_, _| panic!("assignment blew up"));

        match answer.recv().unwrap() {
            Err(SessionError::Internal(m)) => assert!(m.contains("assignment blew up"), "{m}"),
            other => panic!("expected Internal, got {other:?}"),
        }
        assert_eq!(lock(&shared.queue).in_flight, 0);
        assert!(!tenant.session.is_poisoned());
        assert_eq!(lock(&tenant.session).queue_depth(), 0);
        assert_eq!(shared.drain(), 0);
        for worker in server.workers {
            worker.join().unwrap();
        }
    }
}
