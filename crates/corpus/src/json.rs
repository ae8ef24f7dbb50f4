//! The workspace's one JSON value type, parser and renderer, and
//! JSON-Lines ingestion.
//!
//! Open-data portals publish "a mixture of relational (CSV and
//! spreadsheet), semi-structured (JSON and XML) … formats" (§1 of the
//! paper). The build image has no crates.io access, so JSON is hand-rolled
//! over `std`, once: the server's request bodies and responses, the
//! coordinator's shard replies and [`Catalog::ingest_jsonl`] all go
//! through the one [`Parser`].
//!
//! [`Json::parse`] reads a document into a [`Json`] tree. The server reads
//! its request bodies with the parser's object reader instead
//! ([`Parser::object`]): it walks the body's fields in order, parses every
//! field but `values` into a [`Json`] as `Json::parse` would, and hands
//! each string of `values` over as bytes — borrowed from the body, or
//! unescaped into one reused buffer — so the values are hashed where they
//! lie, with no tree and no `String` per value.
//!
//! The parser reads exactly RFC 8259 — no leading zeros, no bare `1.`, four
//! hex digits after `\u` — with arrays and objects nested at most 64 deep,
//! so hostile input is a typed error, never a stack overflow. It runs in
//! time linear in its input. A parsed number keeps its source text, so
//! `12345678901234567890` and `1E+2` reach JSON-Lines ingest as written;
//! [`Json::as_f64`] reads a finite value out of it.
//!
//! JSON-Lines ingestion flattens only **top-level scalar fields**: nested
//! structure rarely maps onto the "column = domain" model, and the paper's
//! corpora are tabular.

use crate::catalog::{Catalog, DomainId, DomainMeta};
use crate::domain::Domain;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, held as JSON number text.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order (and any repeated key) is preserved.
    Obj(Vec<(String, Json)>),
}

/// The text of a JSON number: as written in parsed input, or as
/// [`Json::num`] / [`Json::uint`] format a value. Only those three make
/// one, so it always renders as a valid JSON number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(String);

/// Parse failure: a message and the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth cap: protects the recursive-descent parser's stack from
/// adversarial inputs like `[[[[…`.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    /// [`JsonError`] with a byte offset on any syntax violation, and on
    /// arrays or objects nested more than 64 deep.
    pub fn parse(input: &str) -> Result<Self, JsonError> {
        let mut p = Parser::new(input);
        let v = p.value()?;
        p.finish()?;
        Ok(v)
    }

    /// Object field lookup (first match); `None` on non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number that is finite as an `f64`
    /// (`1e999` is not).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(n) => n.0.parse().ok().filter(|n: &f64| n.is_finite()),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer no larger than 2⁵³,
    /// the range an `f64` holds exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53))
            .map(|n| n as u64)
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor for an object.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Self {
        Self::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Convenience constructor for a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Self {
        Self::Str(s.into())
    }

    /// A number: integers below 2⁵³ without a fraction, others at
    /// shortest round-trip precision. JSON cannot carry a non-finite
    /// value, so that is `null`.
    #[must_use]
    pub fn num(n: impl Into<f64>) -> Self {
        let n = n.into();
        if !n.is_finite() {
            return Self::Null;
        }
        let integral = n.fract() == 0.0 && n.abs() < 2f64.powi(53);
        Self::Num(Number(if integral {
            (n as i64).to_string()
        } else {
            n.to_string()
        }))
    }

    /// A `u64` rendered as a JSON number. Values above 2⁵³ would lose
    /// precision in a reader's `f64`, so they are rendered as strings —
    /// the same convention big-integer-safe APIs use.
    #[must_use]
    pub fn uint(n: u64) -> Self {
        if n <= (1u64 << 53) {
            Self::Num(Number(n.to_string()))
        } else {
            Self::Str(n.to_string())
        }
    }

    /// Serialises the value to compact JSON text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Serialises the value to compact JSON text appended to `out`,
    /// reusing the buffer's capacity — the server renders every response
    /// body through this into per-connection write buffers, so a hot
    /// keep-alive connection stops paying a fresh `String` per response.
    /// [`render`](Self::render) is this into a fresh `String`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(true) => out.push_str("true"),
            Self::Bool(false) => out.push_str("false"),
            Self::Num(n) => out.push_str(&n.0),
            Self::Str(s) => write_escaped(s, out),
            Self::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Self::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Writes `s` as a JSON string literal with all required escapes.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The workspace's one recursive-descent JSON reader, over one document.
///
/// [`value`](Self::value) reads a tree, as [`Json::parse`] does. The
/// object reader, [`object`](Self::object), hands each field to the
/// caller with the cursor on its value, which the caller reads with these
/// same methods: [`array`](Self::array) walks an array's elements and
/// [`string`](Self::string) hands a string's content over as bytes. Every
/// route reads the same grammar, with the same depth cap, error texts and
/// byte offsets.
///
/// ```
/// use lshe_corpus::json::{Json, Parser};
///
/// let mut p = Parser::new(r#"{"values": ["a", "b\u00e9"], "k": 2}"#);
/// let (mut values, mut k) = (Vec::new(), None);
/// let is_object = p.object(|p, key| {
///     match key {
///         "values" => {
///             p.array(|p| p.string(|v| values.push(v.to_vec())).map(drop))?;
///         }
///         _ => k = Some(p.value()?),
///     }
///     Ok(())
/// })?;
/// p.finish()?;
/// assert!(is_object);
/// assert_eq!(values, [b"a".to_vec(), "bé".as_bytes().to_vec()]);
/// assert_eq!(k.as_ref().and_then(Json::as_u64), Some(2));
/// # Ok::<(), lshe_corpus::json::JsonError>(())
/// ```
#[derive(Debug)]
pub struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Nesting depth of the value under the cursor (the document is 0).
    depth: usize,
    /// The buffer [`string`](Self::string) unescapes into, reused.
    scratch: String,
}

impl<'a> Parser<'a> {
    /// A reader over `input`, its cursor on the document's first value.
    #[must_use]
    pub fn new(input: &'a str) -> Self {
        let mut p = Self {
            text: input,
            pos: 0,
            depth: 0,
            scratch: String::new(),
        };
        p.skip_ws();
        p
    }

    /// Ends the document: only whitespace may follow its value.
    ///
    /// # Errors
    /// [`JsonError`] on trailing characters.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after document"))
        }
    }

    /// Reads the value under the cursor into a tree.
    ///
    /// # Errors
    /// [`JsonError`] on any syntax violation, and on arrays or objects
    /// nested more than 64 deep.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.fields(|p, key| {
                    fields.push((key.to_owned(), p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => {
                let mut out = String::new();
                Ok(Json::Str(match self.string_in(&mut out)? {
                    Some(s) => s.to_owned(),
                    None => out,
                }))
            }
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The object reader. When the value under the cursor is an object,
    /// calls `field` with each key (unescaped), in order, the cursor on
    /// that field's value, which `field` must read through the parser it
    /// is given; then returns `true`. Any other value is read as
    /// [`value`](Self::value) reads it, dropped, and `false` returned.
    ///
    /// # Errors
    /// The first [`JsonError`] the walk or `field` meets.
    pub fn object(
        &mut self,
        field: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        if self.depth > MAX_DEPTH || self.peek() != Some(b'{') {
            return self.value().map(|_| false);
        }
        self.fields(field).map(|()| true)
    }

    /// When the value under the cursor is an array, calls `element` once
    /// per element, the cursor on it, and returns `true`; any other value
    /// is read, dropped, and `false` returned.
    ///
    /// # Errors
    /// The first [`JsonError`] the walk or `element` meets.
    pub fn array(
        &mut self,
        element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        if self.depth > MAX_DEPTH || self.peek() != Some(b'[') {
            return self.value().map(|_| false);
        }
        self.items(b']', element).map(|()| true)
    }

    /// When the value under the cursor is a string, hands its content —
    /// the unescaped UTF-8 bytes — to `f` and returns `true`. The bytes
    /// are borrowed from the input, or, when the string holds an escape,
    /// from one buffer the parser reuses. Any other value is read,
    /// dropped, and `false` returned.
    ///
    /// # Errors
    /// The first [`JsonError`] in the value.
    pub fn string(&mut self, f: impl FnOnce(&[u8])) -> Result<bool, JsonError> {
        if self.depth > MAX_DEPTH || self.peek() != Some(b'"') {
            return self.value().map(|_| false);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let read = self.string_in(&mut scratch);
        if let Ok(content) = &read {
            f(content.unwrap_or(&scratch).as_bytes());
        }
        self.scratch = scratch;
        read.map(|_| true)
    }

    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            msg: msg.into(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Steps over `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let next = self.peek() == Some(b);
        self.pos += usize::from(next);
        next
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &'static str, v: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("invalid literal (expected {word})")))
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, kept as text.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        Ok(Json::Num(Number(self.text[start..self.pos].to_owned())))
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("invalid number (expected a digit)"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// Reads a string literal. Content without an escape is borrowed from
    /// the input (`Some`); content with one is unescaped into `out`,
    /// cleared first, and `None` returned.
    fn string_in(&mut self, out: &mut String) -> Result<Option<&'a str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            // A run of plain bytes; it ends on an ASCII byte, so `pos`
            // stays on a char boundary.
            let run = self.pos;
            let rest = &self.text.as_bytes()[run..];
            self.pos += rest
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(rest.len());
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    if !escaped {
                        return Ok(Some(&self.text[start..self.pos - 1]));
                    }
                    out.push_str(&self.text[run..self.pos - 1]);
                    return Ok(None);
                }
                Some(b'\\') => {
                    if !escaped {
                        out.clear();
                        escaped = true;
                    }
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (cursor already past the `u`),
    /// combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let cp = match hi {
            // A high surrogate: a `\uXXXX` low surrogate must follow.
            0xD800..=0xDBFF if self.text[self.pos..].starts_with("\\u") => {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            0xD800..=0xDFFF => return Err(self.err("unpaired surrogate")),
            _ => hi,
        };
        char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))
    }

    /// Exactly four hex digits (`from_str_radix` alone would also take a
    /// sign, as in `\u+041`).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let chunk = self.text.as_bytes().get(self.pos..self.pos + 4);
        let chunk = chunk.ok_or_else(|| self.err("truncated \\u escape"))?;
        if !chunk.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("invalid \\u escape"));
        }
        let hex = &self.text[self.pos..self.pos + 4];
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// Steps over an object's `{`, then hands each field's key and the
    /// parser, its cursor on the field's value, to `field`, up to and
    /// including the `}`.
    fn fields(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        let mut escaped_key = String::new();
        self.items(b'}', |p| {
            let key = p.string_in(&mut escaped_key)?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            field(p, key.unwrap_or(&escaped_key))
        })
    }

    /// Steps over the opening bracket, then reads comma-separated `item`s,
    /// one level deeper, up to and including `close`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        self.depth += 1;
        self.skip_ws();
        if !self.eat(close) {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.err(format!("expected ',' or '{}'", close as char)));
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }
}

/// The bytes a *scalar* is hashed by as a domain value — a number's
/// source text, a string's content — or `None` for null, arrays and
/// objects.
fn scalar_bytes(value: Json) -> Option<Vec<u8>> {
    match value {
        Json::Bool(b) => Some(b.to_string().into_bytes()),
        Json::Num(n) => Some(n.0.into_bytes()),
        Json::Str(s) => Some(s.into_bytes()),
        Json::Null | Json::Arr(_) | Json::Obj(_) => None,
    }
}

impl Catalog {
    /// Ingests a JSON-Lines buffer (one object per non-empty line): every
    /// top-level scalar field becomes a domain named after the field, with
    /// the field's distinct values across all lines. A number is hashed
    /// by its source text, and a key repeated within a line keeps its last
    /// value. Fields with fewer than `min_size` distinct values are
    /// skipped, mirroring [`Catalog::ingest_csv`].
    ///
    /// Lines that are not UTF-8, fail to parse or are not objects are
    /// counted, not fatal — real open-data exports are messy, and a single
    /// bad record should not abort a bulk ingest. Returns
    /// `(ids, skipped_lines)`.
    pub fn ingest_jsonl(
        &mut self,
        table_name: &str,
        data: &[u8],
        min_size: usize,
    ) -> (Vec<DomainId>, usize) {
        let mut columns: BTreeMap<String, Vec<Vec<u8>>> = BTreeMap::new();
        let mut skipped = 0usize;
        for line in data.split(|&b| b == b'\n') {
            let line = line.trim_ascii();
            if line.is_empty() {
                continue;
            }
            let parsed = std::str::from_utf8(line).ok().map(Json::parse);
            let Some(Ok(Json::Obj(fields))) = parsed else {
                skipped += 1;
                continue;
            };
            // `extend` inserts in order, so a repeated key keeps its last value.
            let mut last = BTreeMap::new();
            last.extend(fields);
            for (key, value) in last {
                if let Some(bytes) = scalar_bytes(value) {
                    columns.entry(key).or_default().push(bytes);
                }
            }
        }
        let mut ids = Vec::new();
        for (column, values) in columns {
            let domain = Domain::from_bytes_values(values.iter().map(Vec::as_slice));
            if domain.len() >= min_size {
                ids.push(self.push(domain, DomainMeta::new(table_name, column)));
            }
        }
        (ids, skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        Json::parse(s).expect("valid JSON")
    }

    #[test]
    fn scalars() {
        assert_eq!(parse("null"), Json::Null);
        assert_eq!(parse("true"), Json::Bool(true));
        assert_eq!(parse("false"), Json::Bool(false));
        assert_eq!(parse("42").render(), "42");
        assert_eq!(parse("-3.25e+2").render(), "-3.25e+2");
        assert_eq!(parse("\"hi\""), Json::str("hi"));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(parse(r#""a\"b\\c\nd\tA""#), Json::str("a\"b\\c\nd\tA"));
        // A raw astral char: U+1F600.
        assert_eq!(parse(r#""😀""#), Json::str("😀"));
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#);
        let Json::Obj(o) = &v else {
            panic!("expected object")
        };
        assert_eq!(o.len(), 2);
        let Some(Json::Arr(a)) = v.get("a") else {
            panic!("expected array")
        };
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&Json::Null));
        assert_eq!(v.get("c"), Some(&Json::str("x")));
    }

    #[test]
    fn scalars_roundtrip() {
        for (text, v) in [("null", Json::Null), ("true", Json::Bool(true))] {
            assert_eq!(parse(text), v, "{text}");
        }
        assert_eq!(parse("false").as_bool(), Some(false));
        assert_eq!(parse("\"hi\"").as_str(), Some("hi"));
        let numbers = [
            ("0", 0.0),
            ("-12", -12.0),
            ("3.5", 3.5),
            ("-3.25e+2", -325.0),
        ];
        for (text, v) in numbers {
            assert_eq!(parse(text).as_f64(), Some(v), "{text}");
            assert_eq!(parse(text).render(), text, "numbers keep their text");
        }
        assert_eq!(Json::num(42.0).render(), "42");
        assert_eq!(Json::num(0.25).render(), "0.25");
        assert_eq!(Json::num(-0.0).render(), "0");
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::num(f64::NEG_INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = parse(r#""a\"b\\c\n\t\u0041\u00e9""#);
        assert_eq!(v.as_str(), Some("a\"b\\c\n\tAé"));
        // Raw and surrogate-pair-escaped astral chars.
        assert_eq!(parse(r#""😀""#).as_str(), Some("😀"));
        assert_eq!(parse(r#""\ud83d\ude00""#).as_str(), Some("😀"));
        // Writer escapes everything the parser needs escaped.
        let s = Json::str("x\"y\\z\n\u{01}");
        assert_eq!(parse(&s.render()), s);
    }

    #[test]
    fn structures_and_lookup() {
        let v = parse(r#"{"a": [1, 2, {"b": "c"}], "d": null, "a": 0}"#);
        let Json::Obj(fields) = &v else {
            panic!("expected object")
        };
        assert_eq!(fields.len(), 3, "a repeated key is kept, in order");
        assert_eq!(fields[2], ("a".to_owned(), parse("0")));
        let arr = v.get("a").and_then(Json::as_array).expect("first match");
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").and_then(Json::as_str), Some("c"));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" \n\t{ \"k\" :\r[ ] } ");
        assert_eq!(v, Json::obj(vec![("k", Json::Arr(vec![]))]));
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\": }",
            "tru",
            "\"unterminated",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            ".5",
            "-",
            "1e",
            "+1",
            "01x",
            "[1] garbage",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn errors_have_offsets() {
        assert_eq!(Json::parse("{\"a\": }").unwrap_err().at, 6);
        assert_eq!(Json::parse("01").unwrap_err().at, 1);
        assert_eq!(Json::parse("[1.e5]").unwrap_err().at, 3);
        assert_eq!(Json::parse("\"\\u+041\"").unwrap_err().at, 3);
        assert!(Json::parse("\"\\ud800x\"").is_err()); // lone high surrogate
    }

    #[test]
    fn deep_nesting_bounded() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn deep_nesting_is_a_typed_error_and_a_skipped_line() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        // The outermost value is at depth 0.
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 2)).unwrap_err();
        assert_eq!(err.msg, "nesting too deep");
        assert_eq!(err.at, MAX_DEPTH + 1);
        // Deep enough to overflow a test thread's stack without the cap.
        let hostile = "[".repeat(200_000);
        assert_eq!(Json::parse(&hostile).unwrap_err(), err);
        let objects = "{\"k\":".repeat(200_000);
        assert_eq!(Json::parse(&objects).unwrap_err().msg, "nesting too deep");
        let lines = ["{\"v\": 1}\n", &hostile, "\n{\"v\": 2}\n"].concat();
        let mut catalog = Catalog::new();
        let (ids, skipped) = catalog.ingest_jsonl("t", lines.as_bytes(), 2);
        assert_eq!((ids.len(), skipped), (1, 1));
    }

    #[test]
    fn uint_preserves_large_values() {
        assert_eq!(Json::uint(7).render(), "7");
        assert_eq!(Json::uint(1 << 53).render(), "9007199254740992");
        let big = u64::MAX;
        assert_eq!(Json::uint(big).render(), format!("\"{big}\""));
    }

    #[test]
    fn as_u64_guards() {
        assert_eq!(parse("5").as_u64(), Some(5));
        assert_eq!(parse("5e0").as_u64(), Some(5));
        assert_eq!(parse("-1").as_u64(), None);
        assert_eq!(parse("1.5").as_u64(), None);
        assert_eq!(parse("9007199254740994").as_u64(), None);
        assert_eq!(parse("1e999").as_f64(), None);
        assert_eq!(parse("1e999").as_u64(), None);
    }

    #[test]
    fn scalar_bytes_mapping() {
        assert_eq!(scalar_bytes(parse("true")), Some(b"true".to_vec()));
        assert_eq!(scalar_bytes(parse("1.5")), Some(b"1.5".to_vec()));
        assert_eq!(scalar_bytes(parse("1E+2")), Some(b"1E+2".to_vec()));
        assert_eq!(scalar_bytes(parse("\"x\"")), Some(b"x".to_vec()));
        assert_eq!(scalar_bytes(parse("null")), None);
        assert_eq!(scalar_bytes(parse("[]")), None);
    }

    #[test]
    fn jsonl_ingestion() {
        let data = br#"
{"city": "Toronto", "population": 2930000, "capital": false}
{"city": "Ottawa", "population": 994837, "capital": true}
{"city": "Montreal", "population": 1780000, "capital": false}
not json at all
{"city": "Toronto", "population": 2930000, "nested": {"ignored": 1}}
"#;
        let mut catalog = Catalog::new();
        let (ids, skipped) = catalog.ingest_jsonl("cities", data, 2);
        assert_eq!(skipped, 1);
        // city: 3 distinct; population: 3 distinct; capital: 2 distinct;
        // nested is non-scalar → ignored.
        assert_eq!(ids.len(), 3);
        let names: Vec<&str> = ids
            .iter()
            .map(|&id| catalog.meta(id).column.as_str())
            .collect();
        assert_eq!(names, vec!["capital", "city", "population"]);
        let city_id = ids[1];
        assert_eq!(catalog.domain(city_id).len(), 3);
    }

    #[test]
    fn jsonl_ingest_is_linear() {
        // A parser that re-validates the rest of the line for every string
        // character needs far more than a second for either line.
        let field = format!("{{\"s\": \"{}\"}}", "x".repeat(256 << 10));
        let array = format!("{{\"a\": [{}]}}", vec!["\"xy\""; (256 << 10) / 5].join(","));
        for line in [field, array] {
            let started = std::time::Instant::now();
            let (_, skipped) = Catalog::new().ingest_jsonl("t", line.as_bytes(), 1);
            assert_eq!(skipped, 0);
            let took = started.elapsed();
            assert!(took.as_secs_f64() < 1.0, "{took:?} for {} B", line.len());
        }
    }

    #[test]
    fn jsonl_min_size_filters() {
        let data = b"{\"a\": 1, \"b\": 2}\n{\"a\": 1, \"b\": 3}\n";
        let mut catalog = Catalog::new();
        let (ids, _) = catalog.ingest_jsonl("t", data, 2);
        // a has 1 distinct value (dropped), b has 2.
        assert_eq!(ids.len(), 1);
        assert_eq!(catalog.meta(ids[0]).column, "b");
    }

    #[test]
    fn json_and_csv_values_share_the_universe() {
        // The same value ingested via JSON and CSV must hash identically,
        // so cross-format joins work.
        let mut catalog = Catalog::new();
        let (ids, _) = catalog.ingest_jsonl("j", b"{\"v\": \"Toronto\"}\n{\"v\": \"Ottawa\"}\n", 2);
        let csv_ids = catalog
            .ingest_csv_bytes("c", bytes::Bytes::from_static(b"v\nToronto\nOttawa\n"), 2)
            .expect("csv");
        assert_eq!(
            catalog.domain(ids[0]),
            catalog.domain(csv_ids[0]),
            "cross-format value universes diverged"
        );
    }
}
