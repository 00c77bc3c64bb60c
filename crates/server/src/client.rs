//! Thin blocking client for the `mrmc-server` protocol.
//!
//! One [`Client`] owns one TCP connection bound to one tenant
//! (session). All calls are synchronous request/response; admission
//! refusals surface as the typed [`SubmitOutcome`] variants rather
//! than errors, because backpressure is an expected answer, not a
//! failure.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use mrmc_obs::MetricsSnapshot;
use mrmc_seqio::SeqRecord;

use crate::protocol::{
    read_frame, write_frame, ErrorCode, ProtocolError, Request, Response, SeedConfig, SessionStats,
    WireRead, PROTOCOL_VERSION,
};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server sent bytes that do not decode.
    Protocol(ProtocolError),
    /// The server answered with an `Error` frame.
    Server {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a well-formed but out-of-protocol
    /// response for the request sent.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error [{}]: {message}", code.name())
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

/// Answer to a submission: labels, or an explicit admission refusal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted; one label per read, in submission order.
    Labels(Vec<u64>),
    /// Refused: bounded queue full (transient — retry after a drain).
    Busy {
        /// Queue depth at refusal.
        queue_depth: u64,
        /// Configured limit.
        limit: u64,
    },
    /// Refused: session byte quota exhausted (permanent).
    QuotaExceeded {
        /// Bytes the submission would have used.
        would_use: u64,
        /// Configured quota.
        quota: u64,
    },
}

/// A connected, handshaken session client.
pub struct Client {
    /// Requests go out here, one `write_all` per frame.
    stream: TcpStream,
    /// Responses come in here: a buffer over a clone of `stream`, so a
    /// small reply is one `read` call.
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect and handshake as `tenant`. The connection uses a 60 s
    /// read timeout so a hung daemon fails loudly instead of blocking
    /// forever.
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client { stream, reader };
        let resp = client.call(&Request::Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.to_string(),
        })?;
        match resp {
            Response::HelloAck { .. } => Ok(client),
            other => Err(unexpected(other)),
        }
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &req.encode())?;
        let body = read_frame(&mut self.reader)?.ok_or(ClientError::Protocol(
            ProtocolError::Io("server closed the connection".to_string()),
        ))?;
        Ok(Response::decode(&body)?)
    }

    /// Seed the session from a batch run over `reads`; returns the
    /// seeded cluster count.
    pub fn seed_from_batch(
        &mut self,
        config: &SeedConfig,
        reads: &[SeqRecord],
    ) -> Result<u64, ClientError> {
        let resp = self.call(&Request::SeedFromBatch {
            config: config.clone(),
            reads: reads.iter().map(WireRead::from).collect(),
        })?;
        match resp {
            Response::Seeded { clusters } => Ok(clusters),
            other => Err(unexpected(other)),
        }
    }

    /// Submit a micro-batch; refusals return as typed outcomes.
    pub fn submit(&mut self, reads: &[SeqRecord]) -> Result<SubmitOutcome, ClientError> {
        let resp = self.call(&Request::SubmitReads {
            reads: reads.iter().map(WireRead::from).collect(),
        })?;
        match resp {
            Response::Labels { labels } => Ok(SubmitOutcome::Labels(labels)),
            Response::Busy { queue_depth, limit } => Ok(SubmitOutcome::Busy { queue_depth, limit }),
            Response::QuotaExceeded { would_use, quota } => {
                Ok(SubmitOutcome::QuotaExceeded { would_use, quota })
            }
            other => Err(unexpected(other)),
        }
    }

    /// Submit expecting admission; any refusal becomes an error. For
    /// callers (tests, scripts) that treat backpressure as failure.
    pub fn submit_labels(&mut self, reads: &[SeqRecord]) -> Result<Vec<u64>, ClientError> {
        match self.submit(reads)? {
            SubmitOutcome::Labels(labels) => Ok(labels),
            SubmitOutcome::Busy { .. } => Err(ClientError::Unexpected("Busy")),
            SubmitOutcome::QuotaExceeded { .. } => Err(ClientError::Unexpected("QuotaExceeded")),
        }
    }

    /// Label of a previously seen read id.
    pub fn query(&mut self, id: &str) -> Result<Option<u64>, ClientError> {
        let resp = self.call(&Request::Query { id: id.to_string() })?;
        match resp {
            Response::QueryResult { label } => Ok(label),
            other => Err(unexpected(other)),
        }
    }

    /// The session's counters.
    pub fn stats(&mut self) -> Result<SessionStats, ClientError> {
        let resp = self.call(&Request::ClusterStats)?;
        match resp {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// The daemon-wide metrics snapshot (all tenants): counters,
    /// gauges and latency/size histograms.
    pub fn server_stats(&mut self) -> Result<MetricsSnapshot, ClientError> {
        let resp = self.call(&Request::ServerStats)?;
        match resp {
            Response::ServerStats(snap) => Ok(snap),
            other => Err(unexpected(other)),
        }
    }

    /// Drain and stop the daemon; returns the backlog drained.
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        let resp = self.call(&Request::Shutdown)?;
        match resp {
            Response::ShutdownAck { drained } => Ok(drained),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: Response) -> ClientError {
    match resp {
        Response::Error { code, message } => ClientError::Server { code, message },
        Response::HelloAck { .. } => ClientError::Unexpected("HelloAck"),
        Response::Seeded { .. } => ClientError::Unexpected("Seeded"),
        Response::Labels { .. } => ClientError::Unexpected("Labels"),
        Response::QueryResult { .. } => ClientError::Unexpected("QueryResult"),
        Response::Stats(_) => ClientError::Unexpected("Stats"),
        Response::ServerStats(_) => ClientError::Unexpected("ServerStats"),
        Response::Busy { .. } => ClientError::Unexpected("Busy"),
        Response::QuotaExceeded { .. } => ClientError::Unexpected("QuotaExceeded"),
        Response::ShutdownAck { .. } => ClientError::Unexpected("ShutdownAck"),
    }
}
