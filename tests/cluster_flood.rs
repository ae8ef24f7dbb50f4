//! A coordinator holds idle keep-alive connections without a thread
//! each: it runs on the server's reactor, one loop for every connection,
//! so 256 idle clients leave the process's thread count (Linux
//! `/proc/self/status` `Threads:`) where it was.

use lshe::cluster::ClusterConfig;
use lshe::corpus::{Catalog, Domain, DomainMeta};
use lshe::serve::client::HttpClient;
use lshe::serve::container::IndexContainer;
use lshe::serve::server::{start, ServerConfig};
use lshe_serve::testkit::file_engine;
use std::net::TcpStream;
use std::sync::Arc;

const IDLE_CONNECTIONS: usize = 256;
/// Slack for threads the runtime may start meanwhile; one thread per
/// connection would be 256.
const MAX_THREAD_GROWTH: usize = 8;

#[cfg(target_os = "linux")]
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

#[cfg(target_os = "linux")]
#[test]
fn idle_keep_alive_flood_adds_no_threads() {
    let mut catalog = Catalog::new();
    for k in 0..4 {
        let values: Vec<String> = (0..20 + 5 * k).map(|i| format!("v{i}")).collect();
        catalog.push(
            Domain::from_strs(values.iter().map(String::as_str)),
            DomainMeta::new(format!("t{k}"), "col"),
        );
    }
    let (engine, _dir) = file_engine(&IndexContainer::build(&catalog, 2), "cluster_flood");
    let shard = start(
        Arc::new(engine),
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("shard starts");
    let cluster = lshe::cluster::start(ClusterConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: vec![shard.addr()],
        ..ClusterConfig::default()
    })
    .expect("coordinator starts");
    let addr = cluster.addr();

    let before = threads();
    let idle: Vec<TcpStream> = (0..IDLE_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // One request on a later connection: the coordinator accepts in
    // order, so once it answers, every idle connection is accepted too.
    let (status, body) = HttpClient::connect(addr).request("GET", "/health", None);
    assert_eq!(status, 200, "{body}");
    let after = threads();
    assert!(
        after <= before + MAX_THREAD_GROWTH,
        "{IDLE_CONNECTIONS} idle connections grew the thread count {before} → {after}"
    );

    drop(idle);
    cluster.shutdown();
    shard.shutdown();
}
