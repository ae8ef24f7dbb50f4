//! Spans of a traced run: recorded in memory from the benchmark's own
//! side of each boundary, written as one JSON file when the run ends.
//!
//! File format: `{"workload", "seed", "columns", "spans": [[id, parent,
//! request, name, start_ns, end_ns], ...]}`. `parent` is 0 for a root
//! span. Spans of one request share `request`. A span's self time is its
//! duration minus the durations of the spans that name it as parent.

use crate::http::Timing;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span ids are derived from the request number, so the loopback pass and
/// the in-process replay need no shared counter: request `r` owns ids
/// `16r + 1 ..= 16r + 16`.
pub fn span_id(request: u64, slot: u64) -> u64 {
    debug_assert!(slot < 16);
    request * 16 + slot + 1
}

#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        request: u64,
        slot: u64,
        parent_slot: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id: span_id(request, slot),
            parent: parent_slot.map_or(0, |p| span_id(request, p)),
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// The client's view of one exchange: a root span named `root` and
    /// its three children, which tile it exactly.
    pub fn client_request(&mut self, request: u64, root: &'static str, t: &Timing) {
        self.push(request, 0, None, root, t.start, t.done);
        self.push(request, 1, Some(0), "client.send", t.start, t.sent);
        self.push(request, 2, Some(0), "client.wait", t.sent, t.first_byte);
        self.push(request, 3, Some(0), "client.recv", t.first_byte, t.done);
    }

    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 64 + 256);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\
             \"columns\":[\"id\",\"parent\",\"request\",\"name\",\"start_ns\",\"end_ns\"],\
             \"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}[{},{},{},\"{}\",{},{}]",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of span `id`: its duration minus its children's.
#[cfg(test)]
fn self_time_ns(spans: &[Span], id: u64) -> u64 {
    let span = spans.iter().find(|s| s.id == id).expect("span exists");
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    (span.end_ns - span.start_ns) - children
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn client_children_tile_the_request_span() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut trace = Trace::new(epoch, 8);
        let timing = Timing {
            start: at(10),
            sent: at(14),
            first_byte: at(90),
            done: at(100),
        };
        trace.client_request(7, "client.request", &timing);
        assert_eq!(trace.spans.len(), 4);
        let root = span_id(7, 0);
        assert_eq!(trace.spans[0].parent, 0);
        assert!(trace.spans[1..].iter().all(|s| s.parent == root));
        assert!(trace.spans.iter().all(|s| s.request == 7));
        assert_eq!(trace.spans[2].end_ns - trace.spans[2].start_ns, 76_000);
        assert_eq!(self_time_ns(&trace.spans, root), 0);
        // Ids of different requests never collide.
        assert!(span_id(7, 15) < span_id(8, 0));
    }
}
