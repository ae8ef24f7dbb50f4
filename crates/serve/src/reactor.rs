//! The readiness-driven I/O core: one thread, every connection, any
//! [`Service`].
//!
//! One reactor thread owns the listener and all connection sockets,
//! multiplexed through [`crate::poller`] (epoll on Linux). Each
//! connection is a small state machine — reading → parsing → executing →
//! writing — fed by the resumable [`RequestParser`], with pipelined
//! HTTP/1.1 requests answered strictly in arrival order through a
//! per-connection completion ledger. `lshe serve` (the engine's route
//! table) and `lshe cluster` (the coordinator's) are two [`Service`]s on
//! this one loop.
//!
//! The reactor itself never searches or scatters. It hands each request
//! to [`Service::step`] on the loop thread, which answers at once
//! ([`Step::Reply`]: a cache hit, a parse error, `/health`), marks it
//! [`Step::Long`] for the compute pool, or defers it as a [`Step::Group`]:
//! every group request decoded in the *same poller tick* goes to the pool
//! as ONE [`Service::run_group`] call, so a burst of N concurrent
//! cache-missed queries costs one batched search, not N. `POST /shutdown`
//! never reaches a service: the reactor answers it and drains.
//!
//! Backpressure and hygiene: per-connection pipelines are capped at 64
//! in-flight requests (read interest drops while full), reads are
//! bounded per tick so one firehose client cannot starve the loop, write
//! buffers are reused and shrunk after bursts, open connections are
//! capped, a whole-request deadline kills byte-dripping clients, and idle
//! keep-alive connections expire after 60 s. Long work runs on a fixed
//! pool of [`ServerConfig::threads`] workers, so at most that many run at
//! once.

use crate::http::{self, HttpError, Request, RequestParser};
use crate::poller::{Event, Poller, Waker, READ, WRITE};
use crate::pool::{effective_threads, ThreadPool};
use crate::server::ServerConfig;
use lshe_corpus::json::Json;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

thread_local! {
    /// Set on a reactor loop's thread by [`mark_reactor_thread`].
    static REACTOR_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as a reactor loop's: work answered inline there
/// must never wait on the engine's write lock, which a fold holds for its
/// whole run (`Engine::writer` checks the mark in a debug build).
pub(crate) fn mark_reactor_thread() {
    REACTOR_THREAD.with(|mark| mark.set(true));
}

/// True on a thread [`mark_reactor_thread`] marked.
pub(crate) fn on_reactor_thread() -> bool {
    REACTOR_THREAD.with(Cell::get)
}

/// In-flight (unanswered) pipelined requests allowed per connection;
/// beyond it the reactor stops reading from that socket until responses
/// drain (TCP backpressure does the rest).
const MAX_PIPELINE: usize = 64;
/// Per-`read` chunk size.
const READ_CHUNK: usize = 16 * 1024;
/// Per-connection read budget within one tick — fairness bound so one
/// firehose client cannot monopolise the loop.
const PER_TICK_READ_MAX: usize = 256 * 1024;
/// Poller timeout while serving: the upper bound on deadline-sweep lag.
const TICK: Duration = Duration::from_millis(250);
/// Poller timeout while draining for shutdown.
const DRAIN_TICK: Duration = Duration::from_millis(50);
/// Deadline-sweep cadence (sweeps are O(connections), so they are rate
/// limited independently of the event rate).
const SWEEP_INTERVAL: Duration = Duration::from_millis(50);
/// Keep-alive connections silent for this long are dropped.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a graceful shutdown waits for in-flight work before
/// force-closing what remains.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// Write buffers shrink back to this capacity after a burst, and a
/// partially-written buffer compacts once the consumed prefix passes it.
const WRITE_COMPACT: usize = 64 * 1024;

/// One routed response: a status and its body. The reason phrase is
/// [`http::reason`]'s, and the reactor decides keep-alive.
#[derive(Debug)]
pub struct Outcome {
    /// HTTP status code.
    pub status: u16,
    /// Response body, sent as `application/json`.
    pub body: Body,
}

/// An [`Outcome`]'s body.
#[derive(Debug)]
pub enum Body {
    /// A JSON value, rendered on the way out.
    Json(Json),
    /// JSON text already rendered elsewhere (a forwarded shard reply),
    /// written byte for byte.
    Raw(String),
}

impl Outcome {
    /// `200` with a JSON body.
    #[must_use]
    pub fn ok(body: Json) -> Self {
        Self {
            status: 200,
            body: Body::Json(body),
        }
    }

    /// `status` with the body `{"error": msg}`.
    #[must_use]
    pub fn error(status: u16, msg: impl Into<String>) -> Self {
        Self {
            status,
            body: Body::Json(Json::obj(vec![("error", Json::str(msg.into()))])),
        }
    }

    /// `status` with an already-rendered body, forwarded verbatim.
    #[must_use]
    pub fn raw(status: u16, body: String) -> Self {
        Self {
            status,
            body: Body::Raw(body),
        }
    }
}

/// What [`Service::step`] makes of a request on the reactor thread.
#[derive(Debug)]
pub enum Step<M> {
    /// Answer now.
    Reply(Outcome),
    /// Blocking work: [`Service::run`] executes it on the compute pool.
    Long(Request),
    /// Work that this tick's other `Group` steps share one
    /// [`Service::run_group`] call with, on the compute pool.
    Group(M),
}

/// An endpoint table the reactor serves.
pub trait Service: Send + Sync + 'static {
    /// Deferred [`Step::Group`] work. A service that never groups uses
    /// [`std::convert::Infallible`].
    type Miss: Send + 'static;

    /// Routes one request on the reactor thread. It must take
    /// microseconds: anything that blocks is [`Step::Long`], which is
    /// every request unless a service says otherwise.
    fn step(&self, request: Request) -> Step<Self::Miss> {
        Step::Long(request)
    }

    /// Runs a [`Step::Long`] request to completion. It may block; where it
    /// runs is the reactor's choice.
    fn run(&self, request: Request) -> Outcome;

    /// Runs one tick's [`Step::Group`] work, answering each in order.
    fn run_group(&self, group: Vec<Self::Miss>) -> Vec<Outcome>;
}

/// Event-loop observability counters, exposed as the `server` object on
/// the engine's `/stats`.
#[derive(Debug, Default)]
pub(crate) struct ServerStats {
    /// Connections currently open.
    pub(crate) open: AtomicU64,
    /// Highest number of in-flight pipelined requests seen on any one
    /// connection.
    pub(crate) pipeline_hwm: AtomicU64,
    /// Event-loop wakeups (one per `epoll_wait` return).
    pub(crate) wakeups: AtomicU64,
    /// Largest per-connection write buffer observed, in bytes.
    pub(crate) write_buf_hwm: AtomicU64,
    /// Longest tick since start, in microseconds: from a wakeup to the
    /// next wait, the time every other connection on the loop waited.
    pub(crate) longest_tick_us: AtomicU64,
}

/// The reactor's own state: the limits it enforces, its shutdown flag and
/// its counters. A service holds it to report them on `/stats`.
#[derive(Debug)]
pub struct ReactorState {
    shutdown: AtomicBool,
    /// Connections accepted since start.
    pub(crate) connections: AtomicU64,
    /// Error responses (status ≥ 400) sent, parse failures, timeouts and
    /// drain refusals included: counted once, where each is rendered.
    pub(crate) errors: AtomicU64,
    pub(crate) stats: ServerStats,
    /// Open-connection cap (from [`ServerConfig::max_connections`]).
    max_connections: usize,
    /// Whole-request read deadline (from [`ServerConfig::request_timeout_ms`]).
    request_timeout: Duration,
    /// Compute-pool workers (from [`ServerConfig::threads`]).
    pub(crate) threads: usize,
}

impl ReactorState {
    /// True once a `POST /shutdown` or [`ReactorHandle::shutdown`] began
    /// the drain.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Renders `outcome` as response bytes (`extra` header lines before
    /// the blank line), counting it when it is an error.
    fn render(
        &self,
        outcome: &Outcome,
        keep_alive: bool,
        extra: &[(&str, &str)],
        scratch: &mut String,
    ) -> Rendered {
        if outcome.status >= 400 {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let body = match &outcome.body {
            Body::Json(json) => {
                scratch.clear();
                json.render_into(scratch);
                scratch.as_str()
            }
            Body::Raw(text) => text.as_str(),
        };
        let mut bytes = Vec::with_capacity(body.len() + 128);
        http::write_head_with(
            &mut bytes,
            outcome.status,
            "application/json",
            body.len(),
            keep_alive,
            extra,
        );
        bytes.extend_from_slice(body.as_bytes());
        Rendered {
            bytes,
            close: !keep_alive,
        }
    }
}

/// A bound listener and its [`ReactorState`], not serving yet: build the
/// service around [`state`](Self::state), then [`serve`](Self::serve) it.
#[derive(Debug)]
pub struct Bound {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ReactorState>,
}

/// Binds `config.addr` under `config`'s connection cap, request deadline
/// and pool size (`threads`).
///
/// # Errors
/// Propagates the bind failure.
pub fn bind(config: &ServerConfig) -> io::Result<Bound> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ReactorState {
        shutdown: AtomicBool::new(false),
        connections: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        stats: ServerStats::default(),
        max_connections: config.max_connections.max(1),
        request_timeout: Duration::from_millis(config.request_timeout_ms.max(1)),
        threads: effective_threads(config.threads),
    });
    Ok(Bound {
        listener,
        addr,
        state,
    })
}

impl Bound {
    /// The bound address (useful with an ephemeral `:0` bind).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The state the reactor will run with.
    #[must_use]
    pub fn state(&self) -> &Arc<ReactorState> {
        &self.state
    }

    /// Spawns the reactor thread serving `service`.
    ///
    /// # Errors
    /// Propagates the poller, waker or thread-spawn failure.
    pub fn serve<S: Service>(self, service: Arc<S>) -> io::Result<ReactorHandle> {
        let waker = Arc::new(Waker::new()?);
        let mut reactor = Reactor::new(
            self.listener,
            Arc::clone(&self.state),
            service,
            Arc::clone(&waker),
        )?;
        let thread = std::thread::Builder::new()
            .name("lshe-serve-reactor".to_owned())
            .spawn(move || reactor.run_loop())?;
        Ok(ReactorHandle {
            addr: self.addr,
            state: self.state,
            waker,
            thread: Some(thread),
        })
    }
}

/// A running reactor. Dropping the handle leaves it serving.
#[derive(Debug)]
pub struct ReactorHandle {
    addr: SocketAddr,
    state: Arc<ReactorState>,
    waker: Arc<Waker>,
    thread: Option<JoinHandle<()>>,
}

impl ReactorHandle {
    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins the drain and waits for it: the listener closes, requests on
    /// open connections get the 503 refusal, in-flight work completes.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the reactor stops on its own (`POST /shutdown`).
    pub fn join(mut self) {
        self.wait();
    }

    pub(crate) fn stop(&mut self) {
        if self.thread.is_some() {
            self.state.shutdown.store(true, Ordering::SeqCst);
            // The reactor may be blocked in `wait`; the waker's fd is
            // registered there, so one poke gets it to notice the flag.
            self.waker.wake();
        }
        self.wait();
    }

    pub(crate) fn wait(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One fully rendered HTTP response, ready for a connection's write
/// buffer.
struct Rendered {
    bytes: Vec<u8>,
    /// Close the connection once this response is flushed.
    close: bool,
}

/// Where a response goes: a connection's ledger slot.
#[derive(Clone, Copy)]
struct Slot {
    fd: RawFd,
    /// Guards against fd reuse: must match the connection's epoch.
    epoch: u64,
    seq: u64,
    keep_alive: bool,
}

/// A response produced off-thread, routed back to its connection slot.
struct Completion {
    slot: Slot,
    rendered: Rendered,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Rendered-but-unflushed response bytes ([`out_pos`](Self::out_pos)
    /// marks the already-written prefix).
    outbuf: Vec<u8>,
    out_pos: usize,
    /// In-order response ledger: slot `i` holds the response for request
    /// `base_seq + i` once it completes; filled head slots promote to
    /// `outbuf`. Out-of-order completions wait their turn here.
    pending: VecDeque<Option<Rendered>>,
    /// Sequence number of the front pending slot.
    base_seq: u64,
    /// Sequence number the next parsed request will get.
    next_seq: u64,
    /// Monotonic connection identity (fd numbers are reused by the OS).
    epoch: u64,
    /// Interest bits currently registered with the poller.
    interest: u8,
    last_activity: Instant,
    /// When the currently-incomplete request's first byte arrived (the
    /// whole-request deadline anchor); `None` between requests.
    request_started: Option<Instant>,
    peer_eof: bool,
    /// Stop parsing new requests (close response queued, or draining).
    closing: bool,
    /// Close once `outbuf` is flushed and no responses remain pending.
    close_when_flushed: bool,
    /// Unrecoverable socket error: drop without further ceremony.
    broken: bool,
}

impl Conn {
    fn new(stream: TcpStream, epoch: u64) -> Self {
        Self {
            stream,
            parser: RequestParser::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            epoch,
            interest: READ,
            last_activity: Instant::now(),
            request_started: None,
            peer_eof: false,
            closing: false,
            close_when_flushed: false,
            broken: false,
        }
    }

    fn flushed(&self) -> bool {
        self.out_pos == self.outbuf.len()
    }
}

struct Reactor<S: Service> {
    poller: Poller,
    waker: Arc<Waker>,
    waker_fd: RawFd,
    listener: Option<TcpListener>,
    listener_fd: RawFd,
    state: Arc<ReactorState>,
    service: Arc<S>,
    pool: ThreadPool,
    conns: HashMap<RawFd, Conn>,
    comp_tx: Sender<Completion>,
    comp_rx: Receiver<Completion>,
    /// Pool jobs in flight (drain waits for zero).
    outstanding: Arc<AtomicUsize>,
    epoch_counter: u64,
    draining: bool,
    drain_deadline: Option<Instant>,
    /// Reused JSON render buffer for inline responses.
    scratch: String,
    /// Same-tick [`Step::Group`] work, run as one pool job.
    tick_group: Vec<(Slot, S::Miss)>,
    next_sweep: Instant,
    events: Vec<Event>,
}

impl<S: Service> Reactor<S> {
    fn new(
        listener: TcpListener,
        state: Arc<ReactorState>,
        service: Arc<S>,
        waker: Arc<Waker>,
    ) -> io::Result<Self> {
        let poller = Poller::new()?;
        let waker_fd = waker.fd();
        let listener_fd = listener.as_raw_fd();
        poller.register(waker_fd, waker_fd as u64, READ)?;
        poller.register(listener_fd, listener_fd as u64, READ)?;
        let pool = ThreadPool::new(state.threads, "lshe-serve-worker");
        let (comp_tx, comp_rx) = std::sync::mpsc::channel();
        Ok(Self {
            poller,
            waker,
            waker_fd,
            listener: Some(listener),
            listener_fd,
            state,
            service,
            pool,
            conns: HashMap::new(),
            comp_tx,
            comp_rx,
            outstanding: Arc::new(AtomicUsize::new(0)),
            epoch_counter: 0,
            draining: false,
            drain_deadline: None,
            scratch: String::new(),
            tick_group: Vec::new(),
            next_sweep: Instant::now(),
            events: Vec::new(),
        })
    }

    /// Runs the event loop until shutdown completes. This is the body of
    /// the `lshe-serve-reactor` thread.
    fn run_loop(&mut self) {
        mark_reactor_thread();
        loop {
            if !self.draining && self.state.is_shutting_down() {
                self.begin_drain();
            }
            if self.draining && self.drain_complete() {
                break;
            }
            self.events.clear();
            let timeout = if self.draining { DRAIN_TICK } else { TICK };
            if self.poller.wait(&mut self.events, Some(timeout)).is_err() {
                break; // poller failure is unrecoverable
            }
            let tick = Instant::now();
            self.state.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            let events = std::mem::take(&mut self.events);
            for ev in &events {
                #[allow(clippy::cast_possible_truncation)]
                let fd = ev.token as RawFd;
                if fd == self.waker_fd {
                    self.waker.drain();
                } else if fd == self.listener_fd && self.listener.is_some() {
                    self.accept_ready();
                } else {
                    self.conn_event(fd, ev);
                }
            }
            self.events = events;
            self.drain_completions();
            self.dispatch_tick_group();
            self.sweep_deadlines();
            let tick_us = u64::try_from(tick.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.state
                .stats
                .longest_tick_us
                .fetch_max(tick_us, Ordering::Relaxed);
        }
    }

    /// Accepts until the listener would block. Over-cap connections are
    /// closed immediately (the kernel already completed the handshake;
    /// an instant EOF is the clearest refusal we can give).
    fn accept_ready(&mut self) {
        loop {
            let accepted = self.listener.as_ref().expect("listener checked").accept();
            match accepted {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.state.max_connections {
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses go out in one small burst; Nagle + delayed
                    // ACK would add ~40 ms per keep-alive round trip.
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    self.epoch_counter += 1;
                    if self.poller.register(fd, fd as u64, READ).is_ok() {
                        self.state.connections.fetch_add(1, Ordering::Relaxed);
                        self.conns.insert(fd, Conn::new(stream, self.epoch_counter));
                        self.state
                            .stats
                            .open
                            .store(self.conns.len() as u64, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept failures (ECONNABORTED, EMFILE, …)
                // must not kill the server; the level-triggered poller
                // re-reports on the next tick, which is our backoff.
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, fd: RawFd, ev: &Event) {
        let Some(mut conn) = self.conns.remove(&fd) else {
            return; // stale event for an fd closed earlier this tick
        };
        if ev.hangup && !ev.readable {
            conn.peer_eof = true;
        }
        if ev.readable {
            self.read_ready(&mut conn);
            self.parse_and_execute(fd, &mut conn);
        }
        self.finish_event(fd, conn);
    }

    /// Drains the socket into the parser, bounded per tick.
    fn read_ready(&mut self, conn: &mut Conn) {
        if conn.closing || conn.peer_eof || conn.broken {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let mut total = 0;
        loop {
            if conn.pending.len() >= MAX_PIPELINE {
                break; // backpressure: stop pulling bytes while saturated
            }
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.parser.feed(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    total += n;
                    if total >= PER_TICK_READ_MAX {
                        break; // level-triggered: the rest re-fires next tick
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.broken = true;
                    break;
                }
            }
        }
    }

    /// Parses every complete buffered request (up to the pipeline cap)
    /// and dispatches each one; a malformed request answers the valid
    /// prefix, queues its error, and marks the connection closing.
    fn parse_and_execute(&mut self, fd: RawFd, conn: &mut Conn) {
        while !conn.closing && !conn.broken && conn.pending.len() < MAX_PIPELINE {
            match conn.parser.next_request() {
                Ok(Some(request)) => {
                    conn.request_started = None;
                    let slot = Slot {
                        fd,
                        epoch: conn.epoch,
                        seq: conn.next_seq,
                        keep_alive: !request.wants_close(),
                    };
                    conn.next_seq += 1;
                    conn.pending.push_back(None);
                    self.state
                        .stats
                        .pipeline_hwm
                        .fetch_max(conn.pending.len() as u64, Ordering::Relaxed);
                    self.dispatch_request(conn, slot, request);
                }
                Ok(None) => break,
                Err(e) => {
                    let status = match &e {
                        HttpError::TooLarge(_) => 413,
                        HttpError::Unsupported(_) => 501,
                        HttpError::Malformed(_) => 400,
                    };
                    let outcome = Outcome::error(status, e.to_string());
                    let rendered = self.state.render(&outcome, false, &[], &mut self.scratch);
                    conn.pending.push_back(Some(rendered));
                    conn.next_seq += 1;
                    conn.closing = true;
                    break;
                }
            }
        }
        // Anchor (or clear) the whole-request deadline: it runs only
        // while a request is partially read, not while the pipeline cap
        // is holding complete-but-unparsed requests back.
        if conn.closing || conn.parser.is_idle() || conn.pending.len() >= MAX_PIPELINE {
            conn.request_started = None;
        } else if conn.request_started.is_none() {
            conn.request_started = Some(Instant::now());
        }
    }

    /// Routes one request: the drain refusal and `/shutdown` here, the
    /// rest through [`Service::step`] — inline, to the pool, or into this
    /// tick's group.
    fn dispatch_request(&mut self, conn: &mut Conn, slot: Slot, request: Request) {
        // Draining (or a /shutdown earlier in this very burst): refuse
        // with 503 + Retry-After so retry logic can tell drain from
        // failure. The close flag tears the connection down after it.
        if self.draining || self.state.is_shutting_down() {
            let outcome = Outcome::error(503, "server is draining");
            let rendered =
                self.state
                    .render(&outcome, false, &[("retry-after", "1")], &mut self.scratch);
            deliver(conn, slot.seq, rendered);
            return;
        }
        if request.path() == "/shutdown" {
            let outcome = if request.method == "POST" {
                // The flag is stored now, so requests pipelined BEHIND
                // /shutdown in the same burst already answer 503 (above);
                // the drain begins on the next loop iteration, after this
                // response is queued. Keep-alive on the wire: a
                // close-flagged response would discard those queued 503s.
                self.state.shutdown.store(true, Ordering::SeqCst);
                Outcome::ok(Json::obj(vec![("status", Json::str("shutting down"))]))
            } else {
                Outcome::error(405, "wrong method for this path")
            };
            self.complete_local(conn, slot, &outcome);
            return;
        }
        match self.service.step(request) {
            Step::Reply(outcome) => self.complete_local(conn, slot, &outcome),
            Step::Long(request) => {
                let (service, state) = (Arc::clone(&self.service), Arc::clone(&self.state));
                self.on_pool(move || {
                    let outcome = service.run(request);
                    let rendered = state.render(&outcome, slot.keep_alive, &[], &mut String::new());
                    vec![Completion { slot, rendered }]
                });
            }
            Step::Group(miss) => self.tick_group.push((slot, miss)),
        }
    }

    /// Renders an inline outcome straight into the connection's ledger.
    fn complete_local(&mut self, conn: &mut Conn, slot: Slot, outcome: &Outcome) {
        let rendered = self
            .state
            .render(outcome, slot.keep_alive, &[], &mut self.scratch);
        deliver(conn, slot.seq, rendered);
    }

    /// Runs `job` on the compute pool; its completions come back through
    /// the channel, and a waker poke makes the reactor pick them up.
    fn on_pool(&self, job: impl FnOnce() -> Vec<Completion> + Send + 'static) {
        let tx = self.comp_tx.clone();
        let waker = Arc::clone(&self.waker);
        let outstanding = Arc::clone(&self.outstanding);
        outstanding.fetch_add(1, Ordering::SeqCst);
        self.pool.execute(move || {
            for completion in job() {
                let _ = tx.send(completion);
            }
            outstanding.fetch_sub(1, Ordering::SeqCst);
            waker.wake();
        });
    }

    /// Ships every [`Step::Group`] decoded this tick as ONE pool job and
    /// ONE [`Service::run_group`] call.
    fn dispatch_tick_group(&mut self) {
        if self.tick_group.is_empty() {
            return;
        }
        let (slots, group): (Vec<Slot>, Vec<S::Miss>) =
            std::mem::take(&mut self.tick_group).into_iter().unzip();
        let (service, state) = (Arc::clone(&self.service), Arc::clone(&self.state));
        self.on_pool(move || {
            let mut scratch = String::new();
            let outcomes = service.run_group(group);
            slots
                .into_iter()
                .zip(outcomes)
                .map(|(slot, outcome)| Completion {
                    slot,
                    rendered: state.render(&outcome, slot.keep_alive, &[], &mut scratch),
                })
                .collect()
        });
    }

    /// Collects finished pool work into connection ledgers. A completion
    /// may free pipeline slots, so buffered bytes get another parse pass.
    fn drain_completions(&mut self) {
        while let Ok(Completion { slot, rendered }) = self.comp_rx.try_recv() {
            let Some(mut conn) = self.conns.remove(&slot.fd) else {
                continue; // connection died while the job ran
            };
            if conn.epoch != slot.epoch {
                // The fd was reused for a new connection: not ours.
                self.conns.insert(slot.fd, conn);
                continue;
            }
            deliver(&mut conn, slot.seq, rendered);
            self.finish_event(slot.fd, conn);
        }
    }

    /// Flush → re-parse → repeat until quiescent, then update poller
    /// interest and either re-insert the connection or close it.
    fn finish_event(&mut self, fd: RawFd, mut conn: Conn) {
        loop {
            self.flush_conn(&mut conn);
            // Flushing pops answered head slots; freed pipeline capacity
            // may unlock already-buffered requests (which a level-
            // triggered poller would never re-announce on its own).
            let before = conn.next_seq;
            self.parse_and_execute(fd, &mut conn);
            if conn.next_seq == before {
                break;
            }
        }
        if conn.broken
            || (conn.close_when_flushed && conn.flushed() && conn.pending.is_empty())
            || (conn.peer_eof && conn.flushed() && conn.pending.is_empty())
        {
            self.close_conn(fd, conn);
            return;
        }
        let mut want = 0u8;
        if !conn.closing && !conn.peer_eof && conn.pending.len() < MAX_PIPELINE {
            want |= READ;
        }
        if !conn.flushed() {
            want |= WRITE;
        }
        if want != conn.interest {
            if self.poller.modify(fd, fd as u64, want).is_err() {
                self.close_conn(fd, conn);
                return;
            }
            conn.interest = want;
        }
        self.conns.insert(fd, conn);
    }

    /// Promotes in-order completed responses into the write buffer, then
    /// writes as much as the socket accepts.
    fn flush_conn(&mut self, conn: &mut Conn) {
        while matches!(conn.pending.front(), Some(Some(_))) {
            let rendered = conn
                .pending
                .pop_front()
                .flatten()
                .expect("front slot checked filled");
            conn.base_seq += 1;
            conn.outbuf.extend_from_slice(&rendered.bytes);
            if rendered.close {
                // Nothing after a close-flagged response may be sent:
                // drop any later pipelined work (stale completions are
                // discarded by the ledger bounds check).
                conn.closing = true;
                conn.close_when_flushed = true;
                conn.pending.clear();
                break;
            }
        }
        self.state
            .stats
            .write_buf_hwm
            .fetch_max(conn.outbuf.len() as u64, Ordering::Relaxed);
        while conn.out_pos < conn.outbuf.len() {
            match (&conn.stream).write(&conn.outbuf[conn.out_pos..]) {
                Ok(0) => {
                    conn.broken = true;
                    break;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.broken = true;
                    break;
                }
            }
        }
        if conn.flushed() {
            conn.outbuf.clear();
            conn.out_pos = 0;
            if conn.outbuf.capacity() > WRITE_COMPACT {
                conn.outbuf.shrink_to(WRITE_COMPACT);
            }
        } else if conn.out_pos >= WRITE_COMPACT {
            // Long partial writes: reclaim the consumed prefix so the
            // buffer cannot grow without bound under a slow reader.
            conn.outbuf.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
    }

    fn close_conn(&mut self, fd: RawFd, conn: Conn) {
        self.poller.deregister(fd);
        drop(conn); // dropping the TcpStream closes the fd
        self.state
            .stats
            .open
            .store(self.conns.len() as u64, Ordering::Relaxed);
    }

    /// Rate-limited O(connections) sweep: whole-request deadlines and
    /// idle keep-alive expiry.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        if now < self.next_sweep {
            return;
        }
        self.next_sweep = now + SWEEP_INTERVAL;
        let fds: Vec<RawFd> = self.conns.keys().copied().collect();
        for fd in fds {
            let Some(mut conn) = self.conns.remove(&fd) else {
                continue;
            };
            let timed_out = conn
                .request_started
                .is_some_and(|s| now.duration_since(s) >= self.state.request_timeout);
            if timed_out && !conn.closing {
                // A slow-dripping request hit the whole-request deadline:
                // answer 400 (after any pipelined predecessors) and close.
                let outcome = Outcome::error(400, "request read timed out");
                let rendered = self.state.render(&outcome, false, &[], &mut self.scratch);
                conn.pending.push_back(Some(rendered));
                conn.next_seq += 1;
                conn.closing = true;
                conn.request_started = None;
                self.finish_event(fd, conn);
                continue;
            }
            if now.duration_since(conn.last_activity) >= IDLE_TIMEOUT
                && conn.pending.is_empty()
                && conn.parser.is_idle()
            {
                self.close_conn(fd, conn);
                continue;
            }
            self.conns.insert(fd, conn);
        }
    }

    /// Stops accepting, answers every fully-buffered request with the
    /// drain 503, marks every connection for close-after-flush, and drops
    /// the ones with nothing left to say. In-flight pool work keeps its
    /// connections alive until the responses ship.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
        if let Some(listener) = self.listener.take() {
            self.poller.deregister(self.listener_fd);
            drop(listener);
        }
        let fds: Vec<RawFd> = self.conns.keys().copied().collect();
        for fd in fds {
            let Some(mut conn) = self.conns.remove(&fd) else {
                continue;
            };
            // Complete buffered requests deserve an answer, not a silent
            // hangup: with `draining` set, each one routes to the 503 +
            // Retry-After refusal (never to a service).
            self.parse_and_execute(fd, &mut conn);
            conn.closing = true;
            conn.close_when_flushed = true;
            self.finish_event(fd, conn);
        }
    }

    fn drain_complete(&self) -> bool {
        if self.conns.is_empty() && self.outstanding.load(Ordering::SeqCst) == 0 {
            return true;
        }
        // Grace expired: force-close what remains (dropping Conns closes
        // their sockets; dropping the pool joins its threads).
        self.drain_deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

/// Files a completed response into its ledger slot. Out-of-bounds
/// sequences (a slot discarded after a close-flagged response) are
/// dropped silently.
fn deliver(conn: &mut Conn, seq: u64, rendered: Rendered) {
    let Some(idx) = seq.checked_sub(conn.base_seq) else {
        return;
    };
    let idx = idx as usize;
    if idx < conn.pending.len() {
        conn.pending[idx] = Some(rendered);
    }
}
