//! The program under test: the real `lshe` binary, built from the
//! checkout's sources and run as a child process on loopback.

use crate::config::{MERGE_POLICY, SERVER_THREADS};
use crate::http::Conn;
use crate::procfs;
use crate::script::http_request;
use lshe_serve::json::Json;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Where builds and run files go: `$CARGO_TARGET_DIR` when the caller set
/// one, else the checkout's `target/`. Both are ignored by git.
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// Builds `lshe` (a no-op when it is fresh) and returns its path.
pub fn build_lshe(root: &Path) -> io::Result<PathBuf> {
    let manifest = root.join("Cargo.toml");
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} is not the root of the lshe checkout (no crates/cli): run from there",
                root.display()
            ),
        ));
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "lshe-cli",
            "--bin",
            "lshe",
        ])
        .arg("--manifest-path")
        .arg(&manifest)
        .current_dir(root)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!("building lshe failed: {status}")));
    }
    Ok(target_dir(root).join("release").join("lshe"))
}

/// A running `lshe serve`. Dropping it kills the child and waits for it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `lshe serve` on an ephemeral loopback port and returns once
    /// `GET /health` answers `200`.
    pub fn spawn(lshe: &Path, index: &Path, cache_entries: usize) -> io::Result<Self> {
        let log = std::fs::File::create(index.with_extension("server.log"))?;
        let mut child = Command::new(lshe)
            .arg("serve")
            .arg("--index")
            .arg(index)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--threads", &SERVER_THREADS.to_string()])
            .args(["--cache", &cache_entries.to_string()])
            .args(["--merge-policy", MERGE_POLICY])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()?;
        // The banner names the port the kernel picked. The pipe is dropped
        // after it: the server prints nothing more until it stops.
        let mut banner = String::new();
        let stdout = child.stdout.take().expect("stdout was piped");
        BufReader::new(stdout).read_line(&mut banner)?;
        // Owned from here on, so a failure below kills the child.
        let mut server = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        server.addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| {
                io::Error::other(format!(
                    "lshe serve did not announce an address (see {}): {banner:?}",
                    index.with_extension("server.log").display()
                ))
            })?;
        Conn::connect(server.addr)?.expect_ok(&http_request("GET", "/health", ""))?;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn cpu_secs(&self) -> f64 {
        procfs::process_cpu_secs(self.pid()).expect("the child's /proc entry is readable")
    }

    pub fn rss_mb(&self) -> f64 {
        procfs::rss_mb(self.pid()).expect("the child's /proc entry is readable")
    }

    /// `SIGKILL`, as a crash would: nothing is flushed on the way out.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `GET /stats`, parsed.
pub fn stats(conn: &mut Conn) -> io::Result<Json> {
    let body = conn.expect_ok(&http_request("GET", "/stats", ""))?;
    Json::parse(body).map_err(|e| io::Error::other(format!("/stats is not JSON: {e}")))
}

/// A numeric field of `/stats` by path, e.g. `["cache", "hits"]`.
pub fn stat(stats: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(stats, |json, key| json.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("/stats has no numeric {}", path.join(".")))
}

/// Polls `/stats` every millisecond until the maintenance thread has
/// nothing queued and nothing running, and returns that last reading.
pub fn wait_maintenance_idle(conn: &mut Conn) -> io::Result<Json> {
    loop {
        let stats = stats(conn)?;
        let maintenance = stats.get("maintenance");
        let queued = maintenance
            .and_then(|m| m.get("queued"))
            .and_then(Json::as_u64);
        let running = maintenance.and_then(|m| m.get("running"));
        if queued == Some(0) && matches!(running, Some(Json::Null)) {
            return Ok(stats);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
