//! Parallel shard fan-out and hedged straggler retries.
//!
//! [`scatter`] runs one closure per shard concurrently, budgeted by the
//! process-wide [`lshe_minhash::lanes`] pool — the same governor every
//! batched layer in the workspace draws worker threads from, so a
//! coordinator colocated with other work degrades toward sequential
//! fan-out instead of oversubscribing the host. It runs on
//! [`lanes::run_each`], which offers every item a lane of its own, and not
//! on `lanes::run_chunked`: that helper keeps batches of fewer than
//! `MIN_ITEMS_PER_LANE` items inline because its callers are CPU-bound,
//! whereas a shard call is IO-bound — four shards at 5 ms each are worth
//! four lanes even though four is a "tiny" batch.
//!
//! [`hedged_call`] is the straggler defence: send on a pooled
//! connection, and if no response arrives within the hedge deadline,
//! race a second request on a fresh connection against the original
//! in-flight one — first answer wins, the loser is discarded. Hedging is
//! safe **only for idempotent reads** (`/query`, `/topk`, `/batch`,
//! `/health`, `/stats`); mutations go through the unhedged [`call`],
//! because a hedged `/insert` that "lost" may still have been applied.

use crate::pool::ConnPool;
use lshe_minhash::lanes;
use lshe_serve::client::ClientError;
use std::sync::mpsc;
use std::time::Duration;

/// The result of one shard HTTP exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallOutcome {
    /// HTTP status the shard answered with.
    pub status: u16,
    /// Raw response body (JSON text).
    pub body: String,
    /// Whether a hedge request fired for this exchange (regardless of
    /// which of the two racing requests ultimately won).
    pub hedged: bool,
}

/// Runs `f(0..n)` concurrently across budget-governed lanes
/// ([`lanes::run_each`]) and returns the outputs in index order. The
/// calling thread is always a lane of its own, so with an exhausted budget
/// the fan-out degrades to a plain sequential loop rather than blocking.
pub fn scatter<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let shards: Vec<usize> = (0..n).collect();
    lanes::run_each(&shards, |&i| f(i))
}

/// One unhedged exchange over a pooled connection. Healthy connections
/// return to the pool; errored ones are dropped (a half-read response
/// cannot be resynchronised). This is the only transport mutations
/// (`/insert`, `/remove`, `/commit`, `/reload`) may use.
///
/// # Errors
/// Any [`ClientError`] from connect, send, or read.
pub fn call(
    pool: &ConnPool,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<CallOutcome, ClientError> {
    let mut conn = pool.checkout()?;
    let (status, body) = conn.try_request(method, path, body)?;
    pool.checkin(conn);
    Ok(CallOutcome {
        status,
        body,
        hedged: false,
    })
}

/// One exchange with a hedged retry: if the shard has not answered
/// within `hedge_after`, a second copy of the request races on a fresh
/// connection while the original keeps waiting up to the pool's full
/// read deadline. The first successful response wins; both racing
/// connections are discarded afterwards (one of them may still carry an
/// in-flight response, so neither can be pooled).
///
/// Only safe for idempotent requests — see the module docs.
///
/// # Errors
/// The last racer's [`ClientError`] when both lose (e.g. the shard is
/// down: the original times out and the hedge cannot connect).
pub fn hedged_call(
    pool: &ConnPool,
    method: &str,
    path: &str,
    body: Option<&str>,
    hedge_after: Duration,
) -> Result<CallOutcome, ClientError> {
    let full = pool.read_timeout();
    let mut conn = pool.checkout()?;
    conn.set_read_timeout(hedge_after)?;
    conn.try_send(method, path, body)?;
    match conn.try_read_response() {
        Ok((status, body)) => {
            conn.set_read_timeout(full)?;
            pool.checkin(conn);
            Ok(CallOutcome {
                status,
                body,
                hedged: false,
            })
        }
        Err(ClientError::Timeout) => {
            let (tx, rx) = mpsc::channel();
            // Straggler reader: the original request is still in flight on
            // `conn`; keep waiting for it under the full deadline. Runs
            // detached so a win on the other racer returns immediately —
            // the loser finishes (or times out) in the background and its
            // connection drops with the thread.
            let straggler_tx = tx.clone();
            std::thread::spawn(move || {
                let res = conn
                    .set_read_timeout(full)
                    .and_then(|()| conn.try_read_response());
                let _ = straggler_tx.send(res);
            });
            // Hedge: the same request again on a brand-new connection.
            // Connect happens here on the calling thread (the pool is not
            // 'static), the exchange in a detached racer.
            match pool.fresh() {
                Ok(mut fresh) => {
                    let (method, path) = (method.to_string(), path.to_string());
                    let body = body.map(str::to_string);
                    std::thread::spawn(move || {
                        let res = fresh.try_request(&method, &path, body.as_deref());
                        let _ = tx.send(res);
                    });
                }
                // Shard refuses new connections: only the straggler can
                // still answer. Dropping `tx` lets recv() observe the end.
                Err(_) => drop(tx),
            }
            let mut last_err = ClientError::Timeout;
            loop {
                match rx.recv() {
                    Ok(Ok((status, body))) => {
                        return Ok(CallOutcome {
                            status,
                            body,
                            hedged: true,
                        })
                    }
                    Ok(Err(e)) => last_err = e,
                    Err(_) => return Err(last_err),
                }
            }
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshe_serve::reactor::Outcome;
    use lshe_serve::testkit;
    use std::net::{SocketAddr, TcpListener};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    /// A fake shard whose FIRST request stalls for `delay` before
    /// answering `slow`; every other request answers `fast` immediately.
    /// Its two pool threads serve a hedge while the first one sleeps.
    fn slow_then_fast_shard(delay: Duration) -> SocketAddr {
        let served = AtomicUsize::new(0);
        testkit::serve_fn(move |_| {
            if served.fetch_add(1, Ordering::AcqRel) == 0 {
                std::thread::sleep(delay);
                Outcome::raw(200, r#"{"who":"slow"}"#.to_owned())
            } else {
                Outcome::raw(200, r#"{"who":"fast"}"#.to_owned())
            }
        })
    }

    #[test]
    fn scatter_preserves_index_order() {
        for n in [0usize, 1, 3, 4, 17] {
            let out = scatter(n, |i| i * i);
            assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scatter_runs_every_index_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = scatter(8, |i| {
            hits.fetch_add(1, Ordering::AcqRel);
            i
        });
        assert_eq!(hits.load(Ordering::Acquire), 8);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn fast_shard_never_hedges() {
        let addr = slow_then_fast_shard(Duration::ZERO);
        let pool = ConnPool::new(addr, Duration::from_secs(2), Duration::from_secs(5));
        let out = hedged_call(&pool, "GET", "/health", None, Duration::from_secs(2))
            .expect("fast exchange");
        assert_eq!(out.status, 200);
        assert!(!out.hedged);
        assert_eq!(pool.idle_len(), 1, "unhedged connection returns to pool");
    }

    #[test]
    fn hedge_fires_on_injected_slow_shard_and_fast_answer_wins() {
        // First request stalls 3 s; hedge fires after 100 ms and the
        // fresh connection answers immediately.
        let addr = slow_then_fast_shard(Duration::from_secs(3));
        let pool = ConnPool::new(addr, Duration::from_secs(2), Duration::from_secs(10));
        let started = Instant::now();
        let out = hedged_call(&pool, "GET", "/health", None, Duration::from_millis(100))
            .expect("hedged exchange");
        let elapsed = started.elapsed();
        assert!(out.hedged, "hedge must fire for the stalled first request");
        assert_eq!(out.status, 200);
        assert_eq!(
            out.body, r#"{"who":"fast"}"#,
            "the hedge racer's answer wins"
        );
        assert!(
            elapsed < Duration::from_secs(2),
            "hedged call returned in {elapsed:?}, must not wait out the straggler"
        );
        assert_eq!(pool.idle_len(), 0, "neither racing connection is pooled");
    }

    #[test]
    fn dead_shard_yields_typed_error_from_both_racers() {
        // Bind-then-drop: the port refuses connections outright.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let pool = ConnPool::new(addr, Duration::from_millis(200), Duration::from_secs(1));
        let err = hedged_call(&pool, "GET", "/health", None, Duration::from_millis(50))
            .expect_err("dead shard");
        assert!(matches!(err, ClientError::Connect(_)), "got {err:?}");
    }
}
