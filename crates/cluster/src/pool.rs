//! Per-shard keep-alive connection pool.
//!
//! Each shard gets one [`ConnPool`]: scatter workers check a connection
//! out, run one (or one pipelined batch of) exchange(s), and check it
//! back in on success. A connection that saw an error — timeout, reset,
//! protocol garbage — is dropped, never pooled: after a half-read
//! response the stream cannot be resynchronised. Hedge connections are
//! likewise single-use ([`ConnPool::fresh`]).

use lshe_serve::client::{ClientError, HttpClient};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

/// Idle connections retained per shard. The coordinator's scatter touches
/// every shard once per request, so a small constant covers steady state;
/// bursts simply open (and afterwards discard) extras.
const MAX_IDLE: usize = 4;

/// A pool of keep-alive connections to one shard.
pub struct ConnPool {
    addr: SocketAddr,
    connect_timeout: Duration,
    read_timeout: Duration,
    idle: Mutex<Vec<HttpClient>>,
}

impl ConnPool {
    /// A pool for `addr` whose connections handshake within
    /// `connect_timeout` and time reads out after `read_timeout`.
    #[must_use]
    pub fn new(addr: SocketAddr, connect_timeout: Duration, read_timeout: Duration) -> Self {
        Self {
            addr,
            connect_timeout,
            read_timeout,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The shard's address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The pool's configured read deadline.
    #[must_use]
    pub fn read_timeout(&self) -> Duration {
        self.read_timeout
    }

    /// An idle pooled connection, or a fresh one.
    ///
    /// # Errors
    /// [`ClientError::Connect`] when the shard is unreachable within the
    /// connect deadline.
    pub fn checkout(&self) -> Result<HttpClient, ClientError> {
        if let Some(conn) = self.idle.lock().expect("pool lock poisoned").pop() {
            return Ok(conn);
        }
        self.fresh()
    }

    /// Always a brand-new connection — the hedge path, which must not
    /// inherit a possibly-wedged pooled stream.
    ///
    /// # Errors
    /// As [`checkout`](Self::checkout).
    pub fn fresh(&self) -> Result<HttpClient, ClientError> {
        HttpClient::try_connect(self.addr, self.connect_timeout, self.read_timeout)
    }

    /// Returns a healthy connection for reuse. Beyond the idle bound
    /// (`MAX_IDLE`) the connection is simply dropped (closed).
    pub fn checkin(&self, conn: HttpClient) {
        let mut idle = self.idle.lock().expect("pool lock poisoned");
        if idle.len() < MAX_IDLE {
            idle.push(conn);
        }
    }

    /// Number of idle pooled connections.
    #[must_use]
    #[cfg(test)]
    pub fn idle_len(&self) -> usize {
        self.idle.lock().expect("pool lock poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshe_serve::json::Json;
    use lshe_serve::reactor::Outcome;
    use lshe_serve::testkit;
    use std::net::TcpListener;

    /// A shard answering every request with an empty 200.
    fn fake_shard() -> SocketAddr {
        testkit::serve_fn(|_| Outcome::ok(Json::obj(vec![])))
    }

    #[test]
    fn checkout_reuses_checked_in_connections() {
        let addr = fake_shard();
        let pool = ConnPool::new(addr, Duration::from_secs(2), Duration::from_secs(2));
        let mut conn = pool.checkout().expect("connect");
        let (status, _) = conn.try_request("GET", "/health", None).expect("exchange");
        assert_eq!(status, 200);
        pool.checkin(conn);
        assert_eq!(pool.idle_len(), 1);
        let mut again = pool.checkout().expect("pooled");
        assert_eq!(pool.idle_len(), 0, "checkout drained the idle list");
        let (status, _) = again
            .try_request("GET", "/health", None)
            .expect("reused connection still works");
        assert_eq!(status, 200);
    }

    #[test]
    fn idle_list_is_bounded() {
        let addr = fake_shard();
        let pool = ConnPool::new(addr, Duration::from_secs(2), Duration::from_secs(2));
        let conns: Vec<HttpClient> = (0..MAX_IDLE + 3)
            .map(|_| pool.checkout().expect("connect"))
            .collect();
        for conn in conns {
            pool.checkin(conn);
        }
        assert_eq!(pool.idle_len(), MAX_IDLE);
    }

    #[test]
    fn unreachable_shard_is_a_typed_connect_error() {
        // A bound-then-dropped listener's port refuses connections.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let pool = ConnPool::new(addr, Duration::from_millis(300), Duration::from_secs(1));
        assert!(matches!(pool.checkout(), Err(ClientError::Connect(_))));
    }
}
