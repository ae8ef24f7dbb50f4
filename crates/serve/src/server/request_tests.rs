//! The one-pass request reader against the tree route.
//!
//! [`tree`] reads a body the plain way — `Json::parse` the whole body,
//! then look its fields up — and is the oracle: over generated bodies,
//! every prefix of them and damaged copies, the reader must give the same
//! item (hashes, threshold, k, debug) or the same error text. `PROPTEST_CASES` scales
//! the sweep. A counting allocator checks that a body's values cost no
//! allocation each.

use super::*;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The tree route: the body parsed whole, then its fields looked up.
mod tree {
    use super::*;

    fn parse_body_bytes(body: &[u8]) -> Result<Json, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
        if text.trim().is_empty() {
            return Ok(Json::Obj(Vec::new()));
        }
        Json::parse(text).map_err(|e| format!("invalid JSON body: {e}"))
    }

    fn parse_values(body: &Json) -> Result<Domain, String> {
        let values = body
            .get("values")
            .and_then(Json::as_array)
            .ok_or("missing \"values\": expected an array of strings")?;
        if values.is_empty() {
            return Err("\"values\" must not be empty".to_owned());
        }
        let strs = values
            .iter()
            .map(|v| v.as_str().ok_or("\"values\" entries must all be strings"))
            .collect::<Result<Vec<&str>, _>>()?;
        Ok(Domain::from_strs(strs))
    }

    fn parse_item(body: &Json, require_k: bool) -> Result<ParsedItem, String> {
        let domain = parse_values(body)?;
        let threshold = match body.get("threshold") {
            None => DEFAULT_THRESHOLD,
            Some(t) => t
                .as_f64()
                .filter(|t| (0.0..=1.0).contains(t))
                .ok_or("\"threshold\" must be a number in [0, 1]")?,
        };
        let k = match body.get("k") {
            None if require_k => {
                return Err("missing \"k\": top-k needs a positive integer".to_owned())
            }
            None => 0,
            Some(k) => k
                .as_u64()
                .filter(|&k| (1..=MAX_K as u64).contains(&k))
                .ok_or_else(|| format!("\"k\" must be an integer in [1, {MAX_K}]"))?
                as usize,
        };
        let debug = match body.get("debug") {
            None => false,
            Some(d) => d.as_bool().ok_or("\"debug\" must be a boolean")?,
        };
        Ok(ParsedItem {
            domain,
            threshold,
            k,
            debug,
        })
    }

    pub(super) fn query(body: &[u8], require_k: bool) -> Result<ParsedItem, String> {
        parse_item(&parse_body_bytes(body)?, require_k)
    }

    pub(super) fn batch(body: &[u8]) -> Result<Vec<Result<ParsedItem, String>>, String> {
        let body = parse_body_bytes(body)?;
        let Some(queries) = body.get("queries").and_then(Json::as_array) else {
            return Err("missing \"queries\": expected an array".to_owned());
        };
        if queries.is_empty() {
            return Err("\"queries\" must not be empty".to_owned());
        }
        if queries.len() > MAX_BATCH {
            return Err(format!("at most {MAX_BATCH} queries per batch"));
        }
        Ok(queries.iter().map(|q| parse_item(q, false)).collect())
    }

    pub(super) fn insert(body: &[u8]) -> Result<InsertBody, String> {
        let body = parse_body_bytes(body)?;
        let domain = parse_values(&body)?;
        let text = |name: &str, default: &str| match body.get(name) {
            None => Ok(default.to_owned()),
            Some(t) => t
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("\"{name}\" must be a string")),
        };
        let table = text("table", "ingest")?;
        let column = text("column", "col")?;
        let id = match body.get("id") {
            None => None,
            Some(id) => match id.as_u64().and_then(|id| u32::try_from(id).ok()) {
                Some(id) => Some(id),
                None => return Err("\"id\" out of range".to_owned()),
            },
        };
        Ok(InsertBody {
            domain,
            table,
            column,
            id,
        })
    }
}

/// A small deterministic generator of request bodies.
struct Gen(u64);

impl Gen {
    /// splitmix64.
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True one time in `n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'s>(&mut self, from: &[&'s str]) -> &'s str {
        from[self.below(from.len())]
    }

    fn ws(&mut self) -> &'static str {
        self.pick(&["", "", " ", "\n", "\t ", "\r\n  "])
    }

    /// A JSON object of `fields`, with random whitespace between tokens.
    fn object(&mut self, fields: &[(String, String)]) -> String {
        let mut out = format!("{{{}", self.ws());
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                out += &format!(",{}", self.ws());
            }
            out += &format!("{key}{}:{}{value}{}", self.ws(), self.ws(), self.ws());
        }
        out + "}"
    }

    fn array(&mut self, items: &[String]) -> String {
        let ws = self.ws();
        format!("[{ws}{}{ws}]", items.join(&format!(",{}", self.ws())))
    }
}

/// Value strings: plain, escaped (`\n`, `é`, a surrogate pair, `\/`),
/// raw multi-byte, empty, and one equal to another once unescaped.
const STRINGS: &[&str] = &[
    r#""a""#,
    r#""v1""#,
    r#""a""#,
    r#""line\nbreak""#,
    r#""caf\u00e9""#,
    "\"café\"",
    r#""\ud83d\ude00""#,
    "\"😀\"",
    r#""\"quoted\"""#,
    r#""back\\slash""#,
    r#""\/""#,
    r#""tab\there\b\f\r""#,
    r#""""#,
];
const NON_STRINGS: &[&str] = &[
    "1",
    "-2.5e3",
    "null",
    "true",
    r#"["a"]"#,
    r#"{"a": 1}"#,
    "[]",
    "[[1, [2]]]",
];
const NOT_ARRAYS: &[&str] = &[
    r#""abc""#,
    "5",
    "null",
    "{}",
    "true",
    r#"{"values": ["a"]}"#,
];
const THRESHOLDS: &[&str] = &[
    "0.5", "0", "1", "1.0", "7e-1", "1.5", "-0.1", "\"0.5\"", "null", "1e999", "7", "true",
];
const KS: &[&str] = &[
    "3",
    "1",
    "10000",
    "10001",
    "0",
    "2.5",
    "-1",
    "\"3\"",
    "1e2",
    "9007199254740993",
    "null",
    "1E1",
];
const DEBUGS: &[&str] = &["true", "false", "1", "\"true\"", "null"];
const TEXTS: &[&str] = &[r#""live""#, r#""caf\u00e9""#, "5", "null", r#"["t"]"#];
const IDS: &[&str] = &[
    "5",
    "0",
    "4294967295",
    "4294967296",
    "-1",
    "1.0",
    "1.5",
    "\"5\"",
    "null",
    "1e3",
];
const UNKNOWN: &[&str] = &[
    r#"{"nested": [1, {"values": ["z"]}]}"#,
    "[]",
    r#""values""#,
    "-0.0E+0",
];
/// Keys that read as `values` (plainly or escaped) and near misses.
const VALUES_KEYS: &[&str] = &[
    r#""values""#,
    r#""values""#,
    r#""values""#,
    r#""valu\u0065s""#,
    r#""Values""#,
    r#""values ""#,
];
/// Bodies that are not objects.
const NOT_OBJECTS: &[&str] = &[
    r#"["a"]"#,
    r#""values""#,
    "5",
    "null",
    "",
    "  \n",
    "\u{3000}",
];

fn values(g: &mut Gen) -> String {
    match g.below(10) {
        0 => "[]".to_owned(),
        1 => g.pick(NOT_ARRAYS).to_owned(),
        n => {
            let mut items: Vec<String> = (0..1 + g.below(12))
                .map(|_| g.pick(STRINGS).to_owned())
                .collect();
            if n == 2 {
                let at = g.below(items.len() + 1);
                items.insert(at, g.pick(NON_STRINGS).to_owned());
            }
            g.array(&items)
        }
    }
}

/// One request object's fields: `values` (maybe absent, maybe repeated),
/// each of `optional` now and then (maybe repeated), unknown fields, in a
/// random order.
fn fields(g: &mut Gen, optional: &[(&str, &[&str])]) -> Vec<(String, String)> {
    let mut fields = Vec::new();
    let copies = [0, 1, 1, 1, 1, 1, 2][g.below(7)];
    for _ in 0..copies {
        fields.push((g.pick(VALUES_KEYS).to_owned(), values(g)));
    }
    for &(name, choices) in optional {
        let copies = [0, 0, 1, 1, 2][g.below(5)];
        for _ in 0..copies {
            fields.push((format!("\"{name}\""), g.pick(choices).to_owned()));
        }
    }
    if g.one_in(3) {
        fields.push(("\"note\"".to_owned(), g.pick(UNKNOWN).to_owned()));
    }
    for i in (1..fields.len()).rev() {
        fields.swap(i, g.below(i + 1));
    }
    fields
}

/// A body for `/query` and `/topk`, or a `/batch` entry.
fn item_body(g: &mut Gen) -> String {
    if g.one_in(12) {
        return g.pick(NOT_OBJECTS).to_owned();
    }
    let fields = fields(
        g,
        &[("threshold", THRESHOLDS), ("k", KS), ("debug", DEBUGS)],
    );
    g.object(&fields)
}

fn insert_body(g: &mut Gen) -> String {
    if g.one_in(12) {
        return g.pick(NOT_OBJECTS).to_owned();
    }
    let fields = fields(g, &[("table", TEXTS), ("column", TEXTS), ("id", IDS)]);
    g.object(&fields)
}

fn batch_body(g: &mut Gen) -> String {
    if g.one_in(16) {
        return g.pick(NOT_OBJECTS).to_owned();
    }
    let mut fields = Vec::new();
    for _ in 0..[0, 1, 1, 1, 1, 2][g.below(6)] {
        let queries = match g.below(10) {
            0 => "[]".to_owned(),
            1 => g.pick(NOT_ARRAYS).to_owned(),
            _ => {
                let entries: Vec<String> = (0..1 + g.below(5))
                    .map(|_| {
                        let entry = item_body(g);
                        // An empty or blank entry is a syntax error, not `{}`.
                        if entry.trim().is_empty() {
                            "{}".to_owned()
                        } else {
                            entry
                        }
                    })
                    .collect();
                g.array(&entries)
            }
        };
        fields.push(("\"queries\"".to_owned(), queries));
    }
    if g.one_in(3) {
        fields.push(("\"values\"".to_owned(), values(g)));
    }
    g.object(&fields)
}

/// `body` with one byte replaced by, or one byte deleted for, something
/// that breaks or bends JSON.
fn damaged(g: &mut Gen, body: &str) -> Vec<u8> {
    let mut bytes = body.as_bytes().to_vec();
    if bytes.is_empty() {
        return bytes;
    }
    let at = g.below(bytes.len());
    let with = b"{}[],:\"\\ 0e-.ux\xff";
    if g.one_in(4) {
        bytes.remove(at);
    } else {
        bytes[at] = with[g.below(with.len())];
    }
    bytes
}

/// Every route and its oracle agree on `body`.
fn agree(body: &[u8]) -> Result<(), TestCaseError> {
    let shown = || String::from_utf8_lossy(body).into_owned();
    for require_k in [false, true] {
        let (new, old) = (parse_query(body, require_k), tree::query(body, require_k));
        prop_assert!(new == old, "query {:?}: {new:?} != {old:?}", shown());
    }
    let (new, old) = (parse_batch(body), tree::batch(body));
    prop_assert!(new == old, "batch {:?}: {new:?} != {old:?}", shown());
    let (new, old) = (parse_insert(body), tree::insert(body));
    prop_assert!(new == old, "insert {:?}: {new:?} != {old:?}", shown());
    Ok(())
}

/// `body`, every prefix of it and a damaged copy agree on every route.
fn agree_with_prefixes(g: &mut Gen, body: &str) -> Result<(), TestCaseError> {
    for end in 0..=body.len() {
        agree(&body.as_bytes()[..end])?;
    }
    agree(&damaged(g, body))
}

proptest! {
    #[test]
    fn the_reader_reads_every_body_as_the_tree_route_does(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let query = item_body(&mut g);
        agree_with_prefixes(&mut g, &query)?;
        let insert = insert_body(&mut g);
        agree_with_prefixes(&mut g, &insert)?;
        let batch = batch_body(&mut g);
        agree_with_prefixes(&mut g, &batch)?;
    }
}

#[test]
fn hand_picked_bodies_read_as_the_tree_route_reads_them() {
    let deep = |depth: usize| format!("{{\"values\": {}{}", "[".repeat(depth), "]".repeat(depth));
    let mut bodies = vec![
        r#"{"values": ["a", "é", "caf\u00e9", "café"], "values": [1]}"#.to_owned(),
        r#"{"values": [1], "values": ["a"]}"#.to_owned(),
        r#"{"k": 2, "values": ["a"], "k": 0}"#.to_owned(),
        r#"{"values": ["a", 1, "b"] "k": 2}"#.to_owned(),
        r#"{"values": ["\ud800"]}"#.to_owned(),
        r#"{"values": ["😀", "\ud83dx"]}"#.to_owned(),
        r#"{"values": ["a"]} trailing"#.to_owned(),
        r#"{"queries": [{"values": ["a"]}, "x", {"values": []}], "queries": 5}"#.to_owned(),
        "{\"values\": [\"tab\tinside\"]}".to_owned(),
        format!("{}}}", deep(63)),
        format!("{}}}", deep(64)),
        format!("{{\"queries\": [{}}}]}}", deep(62)),
        format!("{{\"queries\": [{}}}]}}", deep(63)),
    ];
    let entries = |n: usize| vec![r#"{"values": ["a"]}"#; n].join(",");
    bodies.push(format!("{{\"queries\": [{}]}}", entries(MAX_BATCH)));
    bodies.push(format!("{{\"queries\": [{}]}}", entries(MAX_BATCH + 1)));
    bodies.push(format!(
        "{{\"queries\": [{}], \"x\": }}",
        entries(MAX_BATCH + 1)
    ));
    for body in &bodies {
        agree(body.as_bytes()).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn a_value_hashes_as_its_unescaped_utf8_bytes() {
    let body = r#"{"values": ["caf\u00e9", "café", "a\nb", "\ud83d\ude00", "x\/y\"z\\"]}"#;
    let item = parse_query(body.as_bytes(), false).expect("a valid body");
    let unescaped = Domain::from_strs(["café", "a\nb", "😀", "x/y\"z\\"]);
    assert_eq!(item.domain, unescaped);
}

/// Counts this thread's allocations (fresh and grown), so a test can read
/// what one call allocates.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call goes to `System` as it came.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

#[test]
fn a_query_body_costs_no_allocation_per_value() {
    let values: Vec<String> = (0..4096).map(|i| format!("\"value-{i}\"")).collect();
    let body = format!(
        r#"{{"values": [{}, "café"], "threshold": 0.5, "debug": true}}"#,
        values.join(", ")
    );
    let before = allocations();
    let item = parse_query(body.as_bytes(), false).expect("a valid body");
    let made = allocations() - before;
    assert_eq!(item.domain.len(), 4097);
    assert!(made < 32, "{made} allocations to read 4 097 values");
}
