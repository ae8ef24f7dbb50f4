//! A deliberately small HTTP/1.1 server-side codec.
//!
//! No crates.io access, so — like the rest of the workspace — the wire
//! protocol is implemented by hand. Supported: request line + headers +
//! `Content-Length` bodies, keep-alive (HTTP/1.1 default, `Connection:
//! close` honoured), and hard limits on line length, header count, and
//! body size so a misbehaving client cannot exhaust the server. The
//! reactor feeds socket bytes to [`RequestParser`] and renders response
//! heads with [`write_head_with`]; there is no blocking reader or writer.

use std::io::Write;

/// Maximum accepted request-line or header-line length (bytes).
pub const MAX_LINE: usize = 8 * 1024;
/// Maximum accepted header count.
pub const MAX_HEADERS: usize = 100;
/// Maximum accepted request-body size (bytes).
pub const MAX_BODY: usize = 8 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path plus optional query string), e.g. `/query`.
    pub target: String,
    /// True for `HTTP/1.0` requests (close-by-default connection
    /// semantics).
    pub http10: bool,
    /// Header name/value pairs in arrival order (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (names are stored lower-case).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The path component of the target (query string stripped).
    #[must_use]
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// True when the connection should close after this exchange:
    /// an explicit `Connection: close`, or an HTTP/1.0 request without an
    /// explicit `Connection: keep-alive` (1.0 closes by default — legacy
    /// clients delimit the response body by EOF).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) => v.eq_ignore_ascii_case("close"),
            None => self.http10,
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request; the message is safe to echo to the
    /// client in a 400 response.
    Malformed(&'static str),
    /// Request exceeded a protocol limit ([`MAX_LINE`], [`MAX_HEADERS`],
    /// [`MAX_BODY`]).
    TooLarge(&'static str),
    /// Valid HTTP that this server does not implement (e.g. chunked
    /// transfer encoding).
    Unsupported(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed(m) => write!(f, "malformed request: {m}"),
            Self::TooLarge(m) => write!(f, "request too large: {m}"),
            Self::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Incremental parser state: accumulating head bytes, or streaming a
/// known-length body.
enum ParseState {
    /// Scanning buffered bytes for the head terminator. Offsets are
    /// relative to the parser's unconsumed region and only ever move
    /// forward, so re-feeding never re-scans.
    Head {
        /// Start of the line currently being scanned.
        line_start: usize,
        /// Bytes already examined for a `\n`.
        scanned: usize,
        /// Completed (non-terminator) lines seen so far.
        lines: usize,
    },
    /// Head parsed; `remaining` body bytes still outstanding.
    Body {
        request: Box<Request>,
        remaining: usize,
    },
}

/// An incremental, resumable HTTP/1.1 request parser.
///
/// Built for readiness-driven I/O: the event loop [`feed`](Self::feed)s
/// whatever bytes the socket had, then drains complete requests with
/// [`next_request`](Self::next_request) — which returns `Ok(None)` (not
/// an error) when the buffered bytes end mid-request, so a request split
/// at *any* byte boundary across reads parses identically to one that
/// arrived whole. Pipelined requests queue naturally: each
/// `next_request` call consumes exactly one request's bytes and leaves
/// the rest buffered.
///
/// After an `Err` the parser is poisoned — request framing is lost, so
/// the connection must be answered with an error and closed.
pub struct RequestParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by completed requests.
    pos: usize,
    state: ParseState,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// A parser with nothing buffered.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            pos: 0,
            state: ParseState::Head {
                line_start: 0,
                scanned: 0,
                lines: 0,
            },
        }
    }

    /// Buffers more bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when no partial request is buffered — the connection is
    /// between requests (safe to idle-timeout without an error response).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        matches!(self.state, ParseState::Head { .. }) && self.pos == self.buf.len()
    }

    /// Tries to complete one request from the buffered bytes. `Ok(None)`
    /// means the bytes end mid-request: feed more and call again.
    ///
    /// # Errors
    /// [`HttpError`] on malformed syntax, exceeded protocol limits, or
    /// unsupported features; the parser must not be reused afterwards.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        loop {
            match &mut self.state {
                ParseState::Head {
                    line_start,
                    scanned,
                    lines,
                } => {
                    let data = &self.buf[self.pos..];
                    let mut head_end = None;
                    while *scanned < data.len() {
                        let b = data[*scanned];
                        if b == b'\n' {
                            let mut line_end = *scanned;
                            if line_end > *line_start && data[line_end - 1] == b'\r' {
                                line_end -= 1;
                            }
                            if line_end == *line_start {
                                head_end = Some(*scanned + 1);
                                *scanned += 1;
                                break;
                            }
                            *lines += 1;
                            // Request line + headers; one more line than
                            // MAX_HEADERS is the request line itself.
                            if *lines > MAX_HEADERS + 1 {
                                return Err(HttpError::TooLarge("too many headers"));
                            }
                            *line_start = *scanned + 1;
                        } else if *scanned - *line_start >= MAX_LINE {
                            return Err(HttpError::TooLarge("line exceeds MAX_LINE"));
                        }
                        *scanned += 1;
                    }
                    let Some(head_end) = head_end else {
                        return Ok(None);
                    };
                    let head = &self.buf[self.pos..self.pos + head_end];
                    let (request, body_len) = parse_head(head)?;
                    self.pos += head_end;
                    if body_len == 0 {
                        self.reset_after_request();
                        return Ok(Some(request));
                    }
                    // Pre-size conservatively: Content-Length is
                    // client-controlled, so don't let a declared-but-never-
                    // sent 8 MB body reserve 8 MB per connection.
                    let mut request = Box::new(request);
                    request.body = Vec::with_capacity(body_len.min(64 * 1024));
                    self.state = ParseState::Body {
                        request,
                        remaining: body_len,
                    };
                }
                ParseState::Body { request, remaining } => {
                    let avail = self.buf.len() - self.pos;
                    let take = avail.min(*remaining);
                    request
                        .body
                        .extend_from_slice(&self.buf[self.pos..self.pos + take]);
                    self.pos += take;
                    *remaining -= take;
                    if *remaining > 0 {
                        return Ok(None);
                    }
                    let ParseState::Body { request, .. } = std::mem::replace(
                        &mut self.state,
                        ParseState::Head {
                            line_start: 0,
                            scanned: 0,
                            lines: 0,
                        },
                    ) else {
                        unreachable!("state checked above");
                    };
                    self.compact();
                    return Ok(Some(*request));
                }
            }
        }
    }

    fn reset_after_request(&mut self) {
        self.state = ParseState::Head {
            line_start: 0,
            scanned: 0,
            lines: 0,
        };
        self.compact();
    }

    /// Drops consumed bytes so pipelined leftovers start at offset 0
    /// (head-scan offsets are relative to the unconsumed region).
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
        } else {
            self.buf.drain(..self.pos);
        }
        self.pos = 0;
    }
}

/// Parses a complete head (request line + headers + blank line) and
/// validates framing; returns the request (body still empty) and its
/// declared body length.
fn parse_head(head: &[u8]) -> Result<(Request, usize), HttpError> {
    let text =
        std::str::from_utf8(head).map_err(|_| HttpError::Malformed("non-UTF-8 header data"))?;
    let mut line_iter = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = line_iter.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or(HttpError::Malformed("bad method"))?
        .to_owned();
    let target = parts
        .next()
        .filter(|t| t.starts_with('/'))
        .ok_or(HttpError::Malformed("bad request target"))?
        .to_owned();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?;
    if parts.next().is_some() {
        return Err(HttpError::Malformed("extra request-line fields"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Unsupported("only HTTP/1.0 and HTTP/1.1"));
    }

    let mut headers = Vec::new();
    for line in line_iter {
        if line.is_empty() {
            break; // the head terminator
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without ':'"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed("bad header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    let request = Request {
        method,
        target,
        http10: version == "HTTP/1.0",
        headers,
        body: Vec::new(),
    };
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::Unsupported("transfer-encoding"));
    }
    // RFC 7230 §3.3.3: conflicting Content-Length values must be rejected
    // outright — first-wins would let a front proxy and this server parse
    // different request boundaries (request smuggling).
    if request
        .headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .count()
        > 1
    {
        return Err(HttpError::Malformed("multiple content-length headers"));
    }
    let body_len = match request.header("content-length") {
        None => 0,
        Some(len) => {
            // RFC 9110 grammar is 1*DIGIT; `usize::from_str` also accepts
            // a leading '+', which a front proxy would treat as invalid —
            // another parse-differential smuggling vector.
            if len.is_empty() || !len.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::Malformed("bad content-length"));
            }
            let len: usize = len
                .parse()
                .map_err(|_| HttpError::Malformed("bad content-length"))?;
            if len > MAX_BODY {
                return Err(HttpError::TooLarge("body exceeds MAX_BODY"));
            }
            len
        }
    };
    Ok((request, body_len))
}

/// The reason phrase for `status`, as the status line carries it.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Appends a response head (status line, standard headers, `extra` header
/// lines such as `Retry-After` on a drain-time 503, blank line) to `out`:
/// the reactor renders heads straight into reused write buffers.
pub fn write_head_with(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    content_length: usize,
    keep_alive: bool,
    extra: &[(&str, &str)],
) {
    // Writing into a Vec<u8> cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {content_length}\r\nconnection: {}\r\n",
        reason(status),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` as everything a peer sent before closing: `Ok(None)`
    /// for nothing, an error for a request the close cut short.
    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut parser = RequestParser::new();
        parser.feed(raw);
        match parser.next_request()? {
            None if !parser.is_idle() => Err(HttpError::Malformed("unexpected EOF mid-request")),
            request => Ok(request),
        }
    }

    #[test]
    fn parses_get_with_headers() {
        let req = parse(b"GET /health?verbose=1 HTTP/1.1\r\nHost: x\r\nX-Custom:  padded \r\n\r\n")
            .expect("ok")
            .expect("some");
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/health?verbose=1");
        assert_eq!(req.path(), "/health");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("X-CUSTOM"), Some("padded"));
        assert!(req.body.is_empty());
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_post_with_body_and_bare_lf() {
        let req = parse(b"POST /query HTTP/1.1\ncontent-length: 4\nConnection: close\n\nabcd")
            .expect("ok")
            .expect("some");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"abcd");
        assert!(req.wants_close());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").expect("clean EOF").is_none());
    }

    #[test]
    fn malformed_requests_rejected() {
        for raw in [
            &b"GET\r\n\r\n"[..],
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbad name: v\r\n\r\n",
            b"GET /x HTTP/1.1\r\n: empty\r\n\r\n",
            b"POST /x HTTP/1.1\r\ncontent-length: ab\r\n\r\n",
            b"POST /x HTTP/1.1\r\ncontent-length: +5\r\n\r\nabcde",
            b"POST /x HTTP/1.1\r\ncontent-length: -5\r\n\r\nabcde",
            b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        ] {
            assert!(
                parse(raw).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn truncated_requests_rejected() {
        for raw in [
            &b"GET /x HT"[..],                                   // EOF mid request line
            b"GET /x HTTP/1.1\r\nHost: x",                       // EOF mid header
            b"GET /x HTTP/1.1\r\n",                              // EOF before blank line
            b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nab", // short body
        ] {
            assert!(
                parse(raw).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn oversized_inputs_rejected() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 1));
        assert!(matches!(
            parse(long_line.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));

        let mut many_headers = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            many_headers.push_str(&format!("h{i}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        assert!(matches!(
            parse(many_headers.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));

        let huge_body = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse(huge_body.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn http10_closes_by_default() {
        let req = parse(b"GET /health HTTP/1.0\r\n\r\n")
            .expect("ok")
            .expect("some");
        assert!(req.http10);
        assert!(req.wants_close(), "HTTP/1.0 closes by default");
        let req = parse(b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .expect("ok")
            .expect("some");
        assert!(!req.wants_close(), "explicit keep-alive wins on 1.0");
        let req = parse(b"GET /health HTTP/1.1\r\n\r\n")
            .expect("ok")
            .expect("some");
        assert!(!req.wants_close(), "HTTP/1.1 keeps alive by default");
    }

    #[test]
    fn duplicate_content_length_rejected() {
        // First-wins or last-wins would desynchronise this server from a
        // front proxy (request smuggling); both orders must be rejected.
        for raw in [
            &b"POST /x HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 4\r\n\r\nabcd"[..],
            b"POST /x HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 2\r\n\r\nabcd",
            b"POST /x HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 4\r\n\r\nabcd",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed(_))),
                "accepted {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn keep_alive_sequencing() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        let a = parser.next_request().expect("ok").expect("first");
        let b = parser.next_request().expect("ok").expect("second");
        assert_eq!(a.target, "/a");
        assert_eq!(b.target, "/b");
        assert!(parser.next_request().expect("ok").is_none());
        assert!(parser.is_idle());
    }

    #[test]
    fn response_writer_shapes_headers() {
        let mut out = Vec::new();
        write_head_with(&mut out, 200, "application/json", 2, true, &[]);
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n"));

        let mut out = Vec::new();
        write_head_with(
            &mut out,
            503,
            "application/json",
            0,
            false,
            &[("retry-after", "1")],
        );
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("connection: close\r\nretry-after: 1\r\n\r\n"));
    }

    /// Reference parse of a byte stream containing exactly the given
    /// requests, fed in one piece.
    fn whole_parse(raw: &[u8], expect: usize) -> Vec<Request> {
        let mut parser = RequestParser::new();
        parser.feed(raw);
        let mut out = Vec::new();
        while let Some(req) = parser.next_request().expect("whole parse") {
            out.push(req);
        }
        assert_eq!(out.len(), expect, "reference parse");
        assert!(parser.is_idle());
        out
    }

    fn assert_same(a: &Request, b: &Request) {
        assert_eq!(a.method, b.method);
        assert_eq!(a.target, b.target);
        assert_eq!(a.body, b.body);
        assert_eq!(a.wants_close(), b.wants_close());
        assert_eq!(a.header("host"), b.header("host"));
    }

    #[test]
    fn split_at_every_byte_boundary_parses_identically() {
        // Hostile transport: a pipelined pair (one with a body) split
        // into two feeds at EVERY byte boundary must parse exactly like
        // the unsplit stream — same requests, no spurious errors, and
        // `Ok(None)` (never `Err`) at the incomplete points.
        let raw: &[u8] =
            b"POST /query HTTP/1.1\r\nhost: a\r\ncontent-length: 11\r\n\r\n{\"v\":[1,2]}\
                           GET /stats HTTP/1.1\r\nhost: b\r\nconnection: close\r\n\r\n";
        let reference = whole_parse(raw, 2);
        for split in 0..=raw.len() {
            let mut parser = RequestParser::new();
            let mut got = Vec::new();
            for part in [&raw[..split], &raw[split..]] {
                parser.feed(part);
                while let Some(req) = parser
                    .next_request()
                    .unwrap_or_else(|e| panic!("split at {split}: {e:?}"))
                {
                    got.push(req);
                }
            }
            assert_eq!(got.len(), 2, "split at {split} lost a request");
            for (a, b) in got.iter().zip(reference.iter()) {
                assert_same(a, b);
            }
            assert!(parser.is_idle(), "split at {split} left state behind");
        }
    }

    #[test]
    fn one_byte_at_a_time_feed() {
        let raw: &[u8] = b"POST /topk HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd";
        let reference = whole_parse(raw, 1);
        let mut parser = RequestParser::new();
        let mut got = None;
        for (i, &b) in raw.iter().enumerate() {
            parser.feed(&[b]);
            match parser.next_request().expect("byte feed") {
                Some(req) => {
                    assert_eq!(i, raw.len() - 1, "completed early at byte {i}");
                    got = Some(req);
                }
                None => assert!(i < raw.len() - 1, "never completed"),
            }
        }
        assert_same(&got.expect("request"), &reference[0]);
    }

    #[test]
    fn malformed_bytes_poison_after_valid_prefix() {
        // A valid pipelined prefix followed by garbage: the parser must
        // hand out the valid requests first, then error exactly once.
        let mut parser = RequestParser::new();
        parser.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nBOGUS LINE\r\n\r\n");
        let a = parser.next_request().expect("ok").expect("first");
        assert_eq!(a.target, "/a");
        let b = parser.next_request().expect("ok").expect("second");
        assert_eq!(b.target, "/b");
        assert!(parser.next_request().is_err(), "garbage must poison");
    }

    #[test]
    fn parser_limits_apply_incrementally() {
        // A request line dripped in forever must trip MAX_LINE without
        // waiting for a newline — an attacker never sends one.
        let mut parser = RequestParser::new();
        parser.feed(b"GET /");
        let chunk = [b'a'; 1024];
        let mut err = None;
        for _ in 0..(MAX_LINE / 1024 + 2) {
            parser.feed(&chunk);
            match parser.next_request() {
                Ok(None) => {}
                Ok(Some(_)) => panic!("parsed an unterminated line"),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(HttpError::TooLarge(_))), "{err:?}");
    }
}
