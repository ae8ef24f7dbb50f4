//! A minimal blocking HTTP/1.1 keep-alive client for driving an
//! `lshe-serve` instance over loopback — and the transport the
//! `lshe-cluster` coordinator scatters shard calls over.
//!
//! Two API levels share one framing implementation:
//!
//! - The `try_*` methods return typed [`ClientError`]s and honour
//!   explicit connect/read deadlines — a dead or wedged peer yields a
//!   clean [`ClientError::Timeout`] instead of blocking forever. The
//!   coordinator (and any test that exercises failure paths) uses these.
//! - The panicking convenience methods ([`connect`](HttpClient::connect),
//!   [`request`](HttpClient::request), [`get`](HttpClient::get),
//!   [`post`](HttpClient::post), …) wrap them for load tests, benches,
//!   examples, and CI smoke probes, where a broken exchange must fail
//!   loudly rather than masquerade as a fast one.

use lshe_corpus::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Default read timeout for responses: generous enough for debug-mode
/// servers under load, finite so a hung server fails the caller.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default connect timeout for the panicking constructor.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Typed transport/framing failures from the `try_*` client methods.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP connection could not be established within the deadline.
    Connect(std::io::Error),
    /// The peer did not produce (or accept) bytes within the read timeout.
    Timeout,
    /// Transport failure mid-exchange (reset, closed, short read).
    Io(std::io::Error),
    /// The peer's bytes do not parse as an HTTP/1.1 response.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Connect(e) => write!(f, "connect failed: {e}"),
            Self::Timeout => write!(f, "timed out waiting for response"),
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Maps an I/O error on an established connection: read-timeout kinds
/// become [`ClientError::Timeout`], everything else stays transport.
fn io_err(e: std::io::Error) -> ClientError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ClientError::Timeout,
        _ => ClientError::Io(e),
    }
}

/// One keep-alive connection to an `lshe-serve` instance.
pub struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// `Retry-After` (seconds) from the most recent response, when the
    /// server sent one — how a draining peer says "come back later".
    last_retry_after: Option<u64>,
}

impl HttpClient {
    /// Connects with `TCP_NODELAY`, a 10 s connect timeout, and a 30 s
    /// read timeout.
    ///
    /// # Panics
    /// Panics if the connection cannot be established or configured.
    #[must_use]
    pub fn connect(addr: SocketAddr) -> Self {
        Self::try_connect(addr, CONNECT_TIMEOUT, RESPONSE_TIMEOUT).expect("connect to lshe-serve")
    }

    /// Connects with explicit deadlines: the TCP handshake must complete
    /// within `connect_timeout`, and every subsequent read returns
    /// [`ClientError::Timeout`] after `read_timeout` without bytes.
    ///
    /// # Errors
    /// [`ClientError::Connect`] when the peer is unreachable or the
    /// handshake exceeds the deadline; [`ClientError::Io`] if the socket
    /// cannot be configured.
    pub fn try_connect(
        addr: SocketAddr,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> Result<Self, ClientError> {
        let stream =
            TcpStream::connect_timeout(&addr, connect_timeout).map_err(ClientError::Connect)?;
        stream.set_nodelay(true).map_err(ClientError::Io)?;
        stream
            .set_read_timeout(Some(read_timeout))
            .map_err(ClientError::Io)?;
        let reader = BufReader::new(stream.try_clone().map_err(ClientError::Io)?);
        Ok(Self {
            stream,
            reader,
            last_retry_after: None,
        })
    }

    /// The `Retry-After` header (seconds) of the most recently read
    /// response, if any. A 503 with `Retry-After` marks a draining peer
    /// (retry elsewhere / later); a 503 without one is a hard failure.
    #[must_use]
    pub fn last_retry_after(&self) -> Option<u64> {
        self.last_retry_after
    }

    /// Changes the read deadline on the live connection (both the buffered
    /// reader and the raw stream share one socket).
    ///
    /// # Errors
    /// [`ClientError::Io`] if the socket option cannot be set.
    pub fn set_read_timeout(&mut self, read_timeout: Duration) -> Result<(), ClientError> {
        self.stream
            .set_read_timeout(Some(read_timeout))
            .map_err(ClientError::Io)
    }

    /// Sends one request and reads one response; the connection stays
    /// open. Returns `(status, body)`.
    ///
    /// # Panics
    /// Panics on transport failure or unparseable response framing.
    pub fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        self.try_request(method, path, body).expect("http exchange")
    }

    /// Sends one request and reads one response, with typed failures.
    ///
    /// # Errors
    /// Any [`ClientError`]; the connection must be considered dead after
    /// an error (a half-read response cannot be resynchronised).
    pub fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ClientError> {
        self.try_send(method, path, body)?;
        self.try_read_response()
    }

    /// Sends one request WITHOUT reading the response — the pipelining
    /// half of [`request`](Self::request). Pair each send with one later
    /// [`read_response`](Self::read_response); the server answers
    /// pipelined requests strictly in order.
    ///
    /// # Panics
    /// Panics on transport failure.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) {
        self.try_send(method, path, body).expect("send request");
    }

    /// Sends one request without reading the response, with typed
    /// failures.
    ///
    /// # Errors
    /// [`ClientError::Io`] / [`ClientError::Timeout`] on transport
    /// failure.
    pub fn try_send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(), ClientError> {
        let mut raw = format!("{method} {path} HTTP/1.1\r\nhost: lshe\r\n");
        if let Some(body) = body {
            raw.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        raw.push_str("\r\n");
        if let Some(body) = body {
            raw.push_str(body);
        }
        self.stream.write_all(raw.as_bytes()).map_err(io_err)
    }

    /// Reads one response off the connection. Returns `(status, body)`.
    ///
    /// # Panics
    /// Panics on transport failure or unparseable response framing.
    pub fn read_response(&mut self) -> (u16, String) {
        self.try_read_response().expect("read response")
    }

    /// Reads one response off the connection, with typed failures.
    ///
    /// # Errors
    /// [`ClientError::Timeout`] when the read deadline passes without a
    /// complete response, [`ClientError::Io`] on transport failure,
    /// [`ClientError::Protocol`] on unparseable framing.
    pub fn try_read_response(&mut self) -> Result<(u16, String), ClientError> {
        let mut status_line = String::new();
        let n = self.reader.read_line(&mut status_line).map_err(io_err)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before response",
            )));
        }
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad status line: {status_line:?}")))?;
        let mut content_length = 0usize;
        let mut retry_after = None;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).map_err(io_err)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let lower = line.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                content_length = v
                    .trim()
                    .parse()
                    .map_err(|_| ClientError::Protocol(format!("bad content-length: {line:?}")))?;
            } else if let Some(v) = lower.strip_prefix("retry-after:") {
                retry_after = v.trim().parse::<u64>().ok();
            }
        }
        self.last_retry_after = retry_after;
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).map_err(io_err)?;
        String::from_utf8(body)
            .map(|body| (status, body))
            .map_err(|e| ClientError::Protocol(format!("non-utf8 body: {e}")))
    }

    /// `GET path`, response body parsed as JSON.
    ///
    /// # Panics
    /// As [`Self::request`], plus on a non-JSON body.
    pub fn get(&mut self, path: &str) -> (u16, Json) {
        let (status, body) = self.request("GET", path, None);
        let json = Json::parse(&body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"));
        (status, json)
    }

    /// `POST path` with a body, response body parsed as JSON.
    ///
    /// # Panics
    /// As [`Self::request`], plus on a non-JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> (u16, Json) {
        let (status, body) = self.request("POST", path, Some(body));
        let json = Json::parse(&body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"));
        (status, json)
    }
}
