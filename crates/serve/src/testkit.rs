//! Hostile-client checks of the reactor, run against every [`Service`]
//! it serves: the engine's own tests run them on `lshe serve`, and
//! `lshe-cluster`'s (with the `testkit` feature) on a coordinator. Each
//! check boots its server through `boot` with the limits it needs and
//! panics on the first broken expectation.
//!
//! Also here: [`serve_fn`], the scripted fake server other crates' tests
//! stand in for a shard with, and [`file_engine`], an engine over a saved
//! file as `lshe serve` runs one.

use crate::client::HttpClient;
use crate::container::IndexContainer;
use crate::engine::Engine;
use crate::http::Request;
use crate::reactor::{self, Outcome, Service};
use crate::server::{ServerConfig, ServerHandle};
use std::convert::Infallible;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A running server under test.
pub trait Served {
    /// The bound address.
    fn addr(&self) -> SocketAddr;
    /// Drains and waits.
    fn shutdown(self);
    /// Waits for a drain begun by `POST /shutdown`.
    fn join(self);
}

impl Served for ServerHandle {
    fn addr(&self) -> SocketAddr {
        ServerHandle::addr(self)
    }
    fn shutdown(self) {
        ServerHandle::shutdown(self);
    }
    fn join(self) {
        ServerHandle::join(self);
    }
}

/// A server and the directory its index lives in, which goes when it
/// stops.
impl<H: Served> Served for (H, Scratch) {
    fn addr(&self) -> SocketAddr {
        self.0.addr()
    }
    fn shutdown(self) {
        self.0.shutdown();
    }
    fn join(self) {
        self.0.join();
    }
}

/// A directory of its own under the system temp dir, removed with what
/// it holds on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// A fresh, empty directory named after `tag`, the process and a
    /// per-process counter.
    #[must_use]
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("lshe_{tag}_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a scratch directory");
        Self(dir)
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `container` served as `lshe serve` serves an index: saved to
/// `index.lshe` in a fresh [`Scratch`] and loaded back by
/// [`Engine::load`], so every stage, commit and fold goes through that
/// file and its delta log. Keep the directory as long as the engine.
#[must_use]
pub fn file_engine(container: &IndexContainer, tag: &str) -> (Engine, Scratch) {
    let dir = Scratch::new(tag);
    let path = dir.path().join("index.lshe");
    container.save(&path).expect("save the index");
    let engine = Engine::load(&path, 1).expect("load the saved index");
    (engine, dir)
}

/// The configuration every check starts from: an ephemeral port, two
/// pool threads, a small cache.
#[must_use]
pub fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        cache_capacity: 16,
        ..ServerConfig::default()
    }
}

/// A [`Service`] answering every request with its function, as long
/// work on the pool (so a slow answer does not hold up the others).
struct Scripted<F>(F);

impl<F: Fn(&Request) -> Outcome + Send + Sync + 'static> Service for Scripted<F> {
    type Miss = Infallible;

    fn run(&self, request: Request) -> Outcome {
        (self.0)(&request)
    }

    fn run_group(&self, group: Vec<Infallible>) -> Vec<Outcome> {
        group.into_iter().map(|miss| match miss {}).collect()
    }
}

/// Serves `answer` on an ephemeral port of the real reactor, with
/// [`config`]'s two pool threads, until the process exits.
///
/// # Panics
/// If the bind or the reactor start fails.
pub fn serve_fn(answer: impl Fn(&Request) -> Outcome + Send + Sync + 'static) -> SocketAddr {
    let bound = reactor::bind(&config()).expect("bind");
    let addr = bound.addr();
    drop(bound.serve(Arc::new(Scripted(answer))).expect("serve"));
    addr
}

/// Reads one HTTP response off a raw socket reader; `None` on EOF.
pub fn read_resp<R: BufRead>(reader: &mut R) -> Option<(u16, String)> {
    read_resp_retry(reader).map(|(status, _, body)| (status, body))
}

/// Like [`read_resp`] but also surfaces the `Retry-After` header.
pub fn read_resp_retry<R: BufRead>(reader: &mut R) -> Option<(u16, Option<u64>, String)> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line).ok()? == 0 {
        return None;
    }
    let status: u16 = status_line.split(' ').nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    let mut retry_after = None;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        let line = line.trim_end().to_ascii_lowercase();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.strip_prefix("content-length:") {
            content_length = v.trim().parse().ok()?;
        } else if let Some(v) = line.strip_prefix("retry-after:") {
            retry_after = v.trim().parse().ok();
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some((status, retry_after, String::from_utf8(body).ok()?))
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
}

/// `/shutdown` with a request pipelined behind it: the successor gets the
/// drain refusal (503 + `Retry-After`), then the connection closes and
/// the server stops.
pub fn drain_answers_pipelined_successors_with_503_retry_after<H: Served>(
    boot: impl Fn(ServerConfig) -> H,
) {
    let server = boot(config());
    let mut stream = connect(server.addr());
    // One burst: /shutdown with a request pipelined behind it. The
    // successor must get the typed drain refusal (503 + Retry-After,
    // how a coordinator tells drain from failure) — not a silent
    // hangup, and never a normal answer.
    stream
        .write_all(
            b"POST /shutdown HTTP/1.1\r\nhost: x\r\ncontent-length: 0\r\n\r\n\
              GET /health HTTP/1.1\r\nhost: x\r\n\r\n",
        )
        .expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (s1, retry1, b1) = read_resp_retry(&mut reader).expect("shutdown response");
    assert_eq!(s1, 200, "{b1}");
    assert_eq!(retry1, None);
    let (s2, retry2, b2) = read_resp_retry(&mut reader).expect("drain refusal");
    assert_eq!(s2, 503, "{b2}");
    assert_eq!(retry2, Some(1), "Retry-After missing: {b2}");
    assert!(b2.contains("draining"), "{b2}");
    // After the refusal the connection closes, and the server drains.
    assert!(read_resp_retry(&mut reader).is_none(), "must close");
    server.join();
}

/// Two valid pipelined requests, then garbage: the valid prefix answers,
/// the garbage gets a 400, and the connection closes.
pub fn malformed_mid_pipeline_answers_valid_prefix_then_closes<H: Served>(
    boot: impl Fn(ServerConfig) -> H,
) {
    let server = boot(config());
    let mut stream = connect(server.addr());
    // Two valid requests, then garbage that can never parse as HTTP.
    let burst = b"GET /health HTTP/1.1\r\nhost: x\r\n\r\n\
                  GET /health HTTP/1.1\r\nhost: x\r\n\r\n\
                  NOT AN HTTP LINE AT ALL\r\n\r\n";
    stream.write_all(burst).expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    // The valid prefix answers normally…
    let (s1, _) = read_resp(&mut reader).expect("first response");
    assert_eq!(s1, 200);
    let (s2, _) = read_resp(&mut reader).expect("second response");
    assert_eq!(s2, 200);
    // …the malformed request gets a 400, then the connection closes.
    let (s3, b3) = read_resp(&mut reader).expect("error response");
    assert_eq!(s3, 400, "{b3}");
    assert!(read_resp(&mut reader).is_none(), "connection must close");
    server.shutdown();
}

/// A body dripped a byte at a time past a 300 ms request deadline gets a
/// 400 "timed out" and a close.
pub fn slow_drip_body_hits_request_deadline<H: Served>(boot: impl Fn(ServerConfig) -> H) {
    let server = boot(ServerConfig {
        request_timeout_ms: 300,
        ..config()
    });
    let mut stream = connect(server.addr());
    // Head promises a 50-byte body; then drip one byte at a time so
    // the request never completes. The whole-request deadline must
    // answer 400 and close rather than pin the connection forever.
    stream
        .write_all(b"POST /query HTTP/1.1\r\nhost: x\r\ncontent-length: 50\r\n\r\n")
        .expect("head");
    let reader_stream = stream.try_clone().expect("clone");
    let dripper = std::thread::spawn(move || {
        let mut stream = stream;
        for _ in 0..40 {
            if stream.write_all(b"x").is_err() {
                return; // server closed on us: exactly what we expect
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    });
    let mut reader = BufReader::new(reader_stream);
    let (status, body) = read_resp(&mut reader).expect("deadline response");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("timed out"), "{body}");
    assert!(read_resp(&mut reader).is_none(), "connection must close");
    dripper.join().expect("dripper");
    server.shutdown();
}

/// Under a cap of two connections a third is closed unanswered, and
/// capacity frees when a connection leaves.
pub fn connection_cap_closes_excess_connections<H: Served>(boot: impl Fn(ServerConfig) -> H) {
    let server = boot(ServerConfig {
        max_connections: 2,
        ..config()
    });
    let addr = server.addr();
    // Fill the cap with two live keep-alive connections (a request on
    // each proves they are registered, not just queued in accept).
    let mut c1 = HttpClient::connect(addr);
    let mut c2 = HttpClient::connect(addr);
    assert_eq!(c1.request("GET", "/health", None).0, 200);
    assert_eq!(c2.request("GET", "/health", None).0, 200);
    // The third connection is accepted by the kernel but closed by
    // the server without an answer.
    let mut excess = connect(addr);
    excess
        .write_all(b"GET /health HTTP/1.1\r\nhost: x\r\n\r\n")
        .expect("send");
    // Clean FIN (EOF) and RST (reset: the server dropped the socket
    // with our request bytes still unread) are both "closed
    // unanswered"; a response is the only failure.
    let mut buf = [0u8; 64];
    match excess.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!(
            "over-cap connection was answered: {:?}",
            String::from_utf8_lossy(&buf[..n])
        ),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    // Capacity frees when a connection leaves.
    drop(c1);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        HttpClient::connect(addr).request("GET", "/health", None).0,
        200
    );
    server.shutdown();
}
