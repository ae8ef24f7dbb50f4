//! The load generator's HTTP/1.1 client: one keep-alive connection, one
//! request in flight, and a timestamp at each boundary a client can see
//! (request written, first response byte, response complete). The
//! crate's own `lshe_serve::client` has no such timestamps, and a
//! benchmark should not time the server with the server's code.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// No request of any workload takes this long on a working server.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// When each phase of one exchange ended.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub start: Instant,
    pub sent: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

impl Timing {
    /// Client-observed latency: send → full response.
    pub fn latency_us(&self) -> f64 {
        (self.done - self.start).as_secs_f64() * 1e6
    }
}

pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    /// The last response, head and body.
    buf: Vec<u8>,
    body_at: usize,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn open(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

/// Status code and `content-length` of a complete response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let head = std::str::from_utf8(head).map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let length = lines
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or_else(|| invalid("response has no content-length"))?;
    Ok((status, length))
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(Self {
            addr,
            stream: open(addr)?,
            buf: Vec::with_capacity(1 << 16),
            body_at: 0,
        })
    }

    /// After a failed exchange the byte stream cannot be trusted.
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = open(self.addr)?;
        Ok(())
    }

    /// Sends `request` and reads the whole response. The body stays
    /// readable through [`body`](Self::body) until the next exchange.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<(Timing, u16)> {
        let start = Instant::now();
        self.stream.write_all(request)?;
        let sent = Instant::now();
        self.buf.clear();
        let mut first_byte = None;
        let mut head: Option<(u16, usize)> = None;
        let mut chunk = [0u8; 1 << 14];
        loop {
            if let Some((status, length)) = head {
                if self.buf.len() >= self.body_at + length {
                    self.buf.truncate(self.body_at + length);
                    let timing = Timing {
                        start,
                        sent,
                        first_byte: first_byte.unwrap_or(sent),
                        done: Instant::now(),
                    };
                    return Ok((timing, status));
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            first_byte.get_or_insert_with(Instant::now);
            self.buf.extend_from_slice(&chunk[..n]);
            if head.is_none() {
                if let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    head = Some(parse_head(&self.buf[..end])?);
                    self.body_at = end + 4;
                }
            }
        }
    }

    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_at..]
    }

    /// Bytes of the last response, head included.
    pub fn response_len(&self) -> usize {
        self.buf.len()
    }

    /// One exchange that must succeed with `200`; the body as text.
    pub fn expect_ok(&mut self, request: &[u8]) -> io::Result<&str> {
        let (_, status) = self.exchange(request)?;
        let body = std::str::from_utf8(self.body()).map_err(|_| invalid("body is not UTF-8"))?;
        if status != 200 {
            return Err(invalid(format!("status {status}: {body}")));
        }
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parsing_finds_status_and_length_in_any_case() {
        let head = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nContent-Length: 42\r\nconnection: keep-alive";
        assert_eq!(parse_head(head).unwrap(), (200, 42));
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nconnection: close").is_err());
        assert!(parse_head(b"garbage").is_err());
    }
}
