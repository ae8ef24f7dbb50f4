//! The closed-loop load generator: drives a script over loopback, checks
//! every answer, and keeps the raw samples the metrics are computed from.

use crate::config::{self, Sizes};
use crate::http::Conn;
use crate::procfs::{self, HostCpu};
use crate::script::{IngestScript, ReadScript, ScriptQuery};
use crate::server::{self, Server};
use crate::trace::Trace;
use lshe_serve::json::Json;
use std::collections::VecDeque;
use std::io;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// CPU clocks read at the edges of a measured phase.
#[derive(Debug, Clone, Copy)]
struct CpuMark {
    at: Instant,
    server: f64,
    generator: f64,
    host: HostCpu,
}

impl CpuMark {
    fn now(server: &Server) -> Self {
        Self {
            at: Instant::now(),
            server: server.cpu_secs(),
            generator: procfs::process_cpu_secs(std::process::id())
                .expect("own /proc entry is readable"),
            host: procfs::host_cpu().expect("/proc/stat is readable"),
        }
    }
}

/// What the machine did during a measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCpu {
    pub wall_secs: f64,
    /// `utime + stime` the server child spent.
    pub server_secs: f64,
    /// Hypervisor steal as a percentage of the phase's CPU capacity.
    pub steal_pct: f64,
    /// CPU time of processes other than the server and the generator, as
    /// a percentage of the phase's CPU capacity.
    pub other_cpu_pct: f64,
}

fn phase_cpu(before: CpuMark, after: CpuMark) -> PhaseCpu {
    let capacity = (after.host.total - before.host.total).max(1e-9);
    let server_secs = after.server - before.server;
    let ours = server_secs + (after.generator - before.generator);
    let busy = after.host.busy - before.host.busy;
    PhaseCpu {
        wall_secs: (after.at - before.at).as_secs_f64(),
        server_secs,
        steal_pct: 100.0 * (after.host.steal - before.host.steal) / capacity,
        other_cpu_pct: 100.0 * (busy - ours).max(0.0) / capacity,
    }
}

/// Raw outcome of a driven phase.
#[derive(Debug, Default)]
pub struct Driven {
    /// Script operations sent in the measured phase, and how many of them
    /// failed (transport error, non-200, malformed body, wrong `cached`).
    pub attempted: usize,
    pub failed: usize,
    /// Client-observed latency of every measured **query**, µs.
    pub query_latencies_us: Vec<f64>,
    /// Read workloads: seconds each measured window took.
    pub window_secs: Vec<f64>,
    /// Measured responses that carried `"cached":true`.
    pub cached: usize,
    /// Response bytes (head and body) of the measured queries.
    pub bytes_in: u64,
    pub cpu: PhaseCpu,
    /// `/stats` just before and just after the measured phase (the latter
    /// read with the maintenance thread idle).
    pub stats_before: Option<Json>,
    pub stats_after: Option<Json>,
    /// `ingest-mixed`: seconds spent waiting for the maintenance thread.
    pub idle_wait_secs: f64,
    /// `ingest-mixed`: server ids of every insert, in script order, and
    /// the ids removed again.
    pub inserted_ids: Vec<u32>,
    pub removed_ids: Vec<u32>,
}

/// Checks one `/query` response: `200`, the response shape, and the
/// `cached` flag. Returns the flag.
fn check_query(status: u16, body: &[u8], expect_cached: Option<bool>) -> Result<bool, ()> {
    const PREFIX: &[u8] = b"{\"count\":";
    const FLAG: &[u8] = b",\"cached\":";
    if status != 200 || !body.starts_with(PREFIX) || !body.ends_with(b"]}") {
        return Err(());
    }
    let head = &body[..body.len().min(48)];
    let at = head.windows(FLAG.len()).position(|w| w == FLAG).ok_or(())?;
    let cached = head[at + FLAG.len()..].starts_with(b"true");
    match expect_cached {
        Some(expected) if expected != cached => Err(()),
        _ => Ok(cached),
    }
}

/// What one connection of a read workload brings back.
#[derive(Default)]
struct ReadLane {
    /// When each measured request completed, and how long it took (µs).
    done: Vec<(Instant, f64)>,
    failed: usize,
    cached: usize,
    bytes_in: u64,
    /// The connection's client spans, in a traced pass.
    trace: Option<Trace>,
    overdue: bool,
}

/// Drives a read workload on `READ_CONNECTIONS` connections, one thread
/// and one request in flight each: connection `c` sends the entries of
/// the script at positions `c, c + C, …`, so what each connection sends
/// is fixed by the seed. One warm-up window, then `WINDOWS` measured
/// windows of `sizes.window_requests` completions (over all connections).
/// Pass `pass` starts where the one before stopped. With `trace_epoch`,
/// every measured request leaves client spans.
pub fn drive_read(
    server: &Server,
    script: &ReadScript,
    sizes: &Sizes,
    pass: usize,
    deadline: Duration,
    trace_epoch: Option<Instant>,
) -> io::Result<(Driven, Option<Trace>)> {
    let lanes = config::READ_CONNECTIONS;
    let per_window = sizes.window_requests;
    assert!(
        per_window.is_multiple_of(lanes),
        "a window splits evenly over the connections"
    );
    let per_pass = ReadScript::requests_per_pass(sizes);
    let order = &script.order[pass * per_pass..(pass + 1) * per_pass];
    let measured_requests = config::WINDOWS * per_window;
    let conns = (0..lanes)
        .map(|_| Conn::connect(server.addr))
        .collect::<io::Result<Vec<_>>>()?;
    let mut control = Conn::connect(server.addr)?;
    // Everyone meets after warm-up; the measured phase starts once the
    // clocks and counters have been read.
    let warmed = Barrier::new(lanes + 1);
    let go = Barrier::new(lanes + 1);

    let lane = |c: usize, mut conn: Conn| {
        let mut out = ReadLane {
            done: Vec::with_capacity(measured_requests / lanes),
            trace: trace_epoch.map(|epoch| Trace::new(epoch, 4 * measured_requests / lanes)),
            ..ReadLane::default()
        };
        for i in (c..per_window).step_by(lanes) {
            // A warm-up failure shows up again in the measured phase.
            if conn
                .exchange(&script.queries[order[i] as usize].request)
                .is_err()
            {
                let _ = conn.reconnect();
            }
        }
        warmed.wait();
        go.wait();
        let started = Instant::now();
        for i in (per_window + c..per_pass).step_by(lanes) {
            let query = &script.queries[order[i] as usize];
            match conn.exchange(&query.request) {
                Ok((timing, status)) => {
                    out.done.push((timing.done, timing.latency_us()));
                    out.bytes_in += conn.response_len() as u64;
                    match check_query(status, conn.body(), Some(script.expect_cached)) {
                        Ok(cached) => out.cached += usize::from(cached),
                        Err(()) => out.failed += 1,
                    }
                    if let Some(trace) = out.trace.as_mut() {
                        trace.client_request(
                            (pass * per_pass + i) as u64,
                            "client.request",
                            &timing,
                        );
                    }
                    if timing.done - started > deadline {
                        out.overdue = true;
                        break;
                    }
                }
                Err(_) => {
                    out.failed += 1;
                    // A failed reconnect fails the next exchange too.
                    let _ = conn.reconnect();
                }
            }
        }
        out
    };

    let mut driven = Driven {
        attempted: measured_requests,
        ..Driven::default()
    };
    let (before, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| scope.spawn(move || lane(c, conn)))
            .collect();
        warmed.wait();
        let stats = server::stats(&mut control);
        let before = CpuMark::now(server);
        go.wait();
        let results: Vec<ReadLane> = handles
            .into_iter()
            .map(|h| h.join().expect("a load thread panicked"))
            .collect();
        (stats.map(|s| (s, before)), results)
    });
    let (stats_before, before) = before?;
    driven.cpu = phase_cpu(before, CpuMark::now(server));
    driven.stats_before = Some(stats_before);
    if results.iter().any(|r| r.overdue) {
        return Err(overdue(deadline));
    }

    let mut done: Vec<(Instant, f64)> = Vec::with_capacity(measured_requests);
    let mut trace = trace_epoch.map(|epoch| Trace::new(epoch, 0));
    for lane in results {
        done.extend_from_slice(&lane.done);
        // A request that got no response never completes a window: it
        // counts as failed and the windows that are whole still count.
        driven.failed += lane.failed;
        driven.cached += lane.cached;
        driven.bytes_in += lane.bytes_in;
        if let (Some(trace), Some(lane)) = (trace.as_mut(), lane.trace) {
            trace.spans.extend(lane.spans);
        }
    }
    done.sort_by_key(|&(at, _)| at);
    driven.query_latencies_us = done.iter().map(|&(_, us)| us).collect();
    let mut edge = before.at;
    for window in done.chunks_exact(per_window) {
        let last = window[per_window - 1].0;
        driven.window_secs.push((last - edge).as_secs_f64());
        edge = last;
    }
    driven.stats_after = Some(server::wait_maintenance_idle(&mut control)?);
    Ok((driven, trace))
}

fn overdue(deadline: Duration) -> io::Error {
    io::Error::other(format!(
        "the measured phase passed its {deadline:?} deadline: this machine is too slow for \
         the configured amount of work"
    ))
}

/// The id the server acknowledged for an `/insert`.
fn inserted_id(status: u16, body: &[u8]) -> Option<u32> {
    if status != 200 {
        return None;
    }
    let json = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    (json.get("status")?.as_str()? == "staged").then_some(())?;
    u32::try_from(json.get("id")?.as_u64()?).ok()
}

/// The operation classes of `ingest-mixed`; a traced run names each
/// request's root span after its class.
#[derive(Clone, Copy, PartialEq)]
enum Op {
    Query,
    Insert,
    Remove,
    Commit,
}

impl Op {
    fn span_name(self) -> &'static str {
        match self {
            Op::Query => "client.query",
            Op::Insert => "client.insert",
            Op::Remove => "client.remove",
            Op::Commit => "client.commit",
        }
    }
}

/// The single connection of `ingest-mixed` and what it has tallied.
struct IngestLane<'a> {
    conn: Conn,
    script: &'a IngestScript,
    driven: Driven,
    trace: Option<Trace>,
    measured: bool,
    /// Queries are cycled over the first this many of the script's.
    distinct_queries: usize,
    next_query: usize,
    next_request: u64,
}

impl IngestLane<'_> {
    /// One script operation. Returns the status.
    fn op(&mut self, request: &[u8], op: Op) -> io::Result<u16> {
        let (timing, status) = self.conn.exchange(request)?;
        if self.measured {
            let driven = &mut self.driven;
            driven.attempted += 1;
            if op == Op::Query {
                driven.query_latencies_us.push(timing.latency_us());
                driven.bytes_in += self.conn.response_len() as u64;
                if check_query(status, self.conn.body(), None).is_err() {
                    driven.failed += 1;
                }
            } else if status != 200 {
                driven.failed += 1;
            }
            if let Some(trace) = self.trace.as_mut() {
                trace.client_request(self.next_request, op.span_name(), &timing);
            }
        }
        self.next_request += 1;
        Ok(status)
    }

    fn query(&mut self) -> io::Result<()> {
        let script = self.script;
        let query: &ScriptQuery = &script.queries[self.next_query % self.distinct_queries];
        self.next_query += 1;
        self.op(&query.request, Op::Query).map(drop)
    }
}

/// Drives `ingest-mixed` on one connection: `WARMUP_BATCHES` unmeasured
/// batches, then `sizes.batches` measured ones. Pass `pass` consumes the
/// script's `pass`-th share of inserts.
pub fn drive_ingest(
    server: &Server,
    script: &IngestScript,
    sizes: &Sizes,
    pass: usize,
    deadline: Duration,
    trace_epoch: Option<Instant>,
) -> io::Result<(Driven, Option<Trace>)> {
    let first_insert = pass * IngestScript::inserts_per_pass(sizes);
    let mut lane = IngestLane {
        conn: Conn::connect(server.addr)?,
        script,
        driven: Driven::default(),
        trace: trace_epoch.map(|epoch| Trace::new(epoch, 1 << 16)),
        measured: false,
        distinct_queries: sizes.distinct_queries,
        next_query: 0,
        next_request: 0,
    };
    let mut live: VecDeque<u32> = VecDeque::new();
    let mut before = None;
    let commit = crate::script::http_request("POST", "/commit", "");

    for batch in 0..config::WARMUP_BATCHES + sizes.batches {
        if batch == config::WARMUP_BATCHES {
            lane.driven.stats_before = Some(server::stats(&mut lane.conn)?);
            lane.measured = true;
            before = Some(CpuMark::now(server));
        }
        for j in 0..config::BATCH_INSERTS {
            let insert = &script.inserts[first_insert + batch * config::BATCH_INSERTS + j];
            let status = lane.op(&insert.request, Op::Insert)?;
            let id = inserted_id(status, lane.conn.body())
                .ok_or_else(|| io::Error::other("an /insert was not acknowledged with an id"))?;
            lane.driven.inserted_ids.push(id);
            live.push_back(id);
            for _ in 0..config::QUERIES_PER_INSERT {
                lane.query()?;
            }
        }
        for _ in 0..config::BATCH_REMOVES {
            let id = live
                .pop_front()
                .expect("more inserts than removes per batch");
            lane.op(&IngestScript::remove_request(id), Op::Remove)?;
            lane.driven.removed_ids.push(id);
            lane.query()?;
        }
        lane.op(&commit, Op::Commit)?;
        for _ in 0..config::QUERIES_AFTER_COMMIT {
            lane.query()?;
        }
        // Let the merges the commit woke finish, so the next batch starts
        // from the same segment layout in every run.
        let waiting = Instant::now();
        lane.driven.stats_after = Some(server::wait_maintenance_idle(&mut lane.conn)?);
        if lane.measured {
            lane.driven.idle_wait_secs += waiting.elapsed().as_secs_f64();
        }
        if before.is_some_and(|b: CpuMark| b.at.elapsed() > deadline) {
            return Err(overdue(deadline));
        }
    }
    lane.driven.cpu = phase_cpu(
        before.expect("at least one measured batch"),
        CpuMark::now(server),
    );
    Ok((lane.driven, lane.trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_check_reads_status_shape_and_cached_flag() {
        let miss =
            br#"{"count":1,"cached":false,"generation":1,"query_time_us":57,"hits":[{"id":1}]}"#;
        let hit = br#"{"count":0,"cached":true,"generation":1,"query_time_us":3,"hits":[]}"#;
        assert_eq!(check_query(200, miss, Some(false)), Ok(false));
        assert_eq!(check_query(200, hit, Some(true)), Ok(true));
        assert_eq!(check_query(200, hit, None), Ok(true));
        assert_eq!(check_query(200, hit, Some(false)), Err(()));
        assert_eq!(check_query(500, miss, None), Err(()));
        assert_eq!(check_query(200, br#"{"error":"bad"}"#, None), Err(()));
        assert_eq!(check_query(200, &miss[..miss.len() - 3], None), Err(()));
    }

    #[test]
    fn insert_acknowledgement_yields_the_id() {
        let ok =
            br#"{"status":"staged","id":20000,"size":3,"staged_inserts":1,"staged_removes":0}"#;
        assert_eq!(inserted_id(200, ok), Some(20000));
        assert_eq!(inserted_id(500, ok), None);
        assert_eq!(inserted_id(200, br#"{"error":"no"}"#), None);
    }

    #[test]
    fn other_cpu_excludes_the_server_and_the_generator() {
        let at = Instant::now();
        let mark = |secs: f64, server, generator, busy, steal| CpuMark {
            at: at + Duration::from_secs_f64(secs),
            server,
            generator,
            host: HostCpu {
                busy,
                steal,
                total: 2.0 * secs,
            },
        };
        // 10 s on 2 cores: server 8 s, generator 4 s, a neighbour 3 s, 1 s stolen.
        let cpu = phase_cpu(
            mark(0.0, 1.0, 1.0, 5.0, 0.0),
            mark(10.0, 9.0, 5.0, 20.0, 1.0),
        );
        assert!((cpu.wall_secs - 10.0).abs() < 1e-9);
        assert!((cpu.server_secs - 8.0).abs() < 1e-9);
        assert!((cpu.other_cpu_pct - 15.0).abs() < 1e-9);
        assert!((cpu.steal_pct - 5.0).abs() < 1e-9);
    }
}
