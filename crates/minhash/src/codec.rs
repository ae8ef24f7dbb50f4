//! Minimal self-describing binary codec used for sketch and index
//! persistence across the workspace.
//!
//! The paper's deployment exchanges MinHash sketches between clients and
//! servers ("small memory footprint as it needs to be exchanged over the
//! Web", §1.1); this module defines that wire format. It is deliberately
//! simple — fixed-width little-endian integers, length-prefixed arrays, a
//! magic tag and a version byte per envelope — so it can be re-implemented
//! in any language in an afternoon and carries no dependency.

use crate::Signature;

/// Errors from decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the announced structure was complete.
    UnexpectedEof {
        /// What the decoder was reading when the input ran out.
        reading: &'static str,
    },
    /// The magic tag did not match the expected envelope.
    BadMagic {
        /// The tag the envelope should have carried.
        expected: [u8; 4],
        /// The tag actually found.
        found: [u8; 4],
    },
    /// The envelope version is not one this build reads: newer than the
    /// one it writes, or older than the oldest it still migrates.
    UnsupportedVersion {
        /// The version actually found.
        found: u8,
        /// The version this build writes.
        supported: u8,
    },
    /// A structural invariant failed (impossible lengths, inconsistent
    /// counts) — the bytes are corrupt or not what they claim to be.
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnexpectedEof { reading } => {
                write!(f, "unexpected end of input while reading {reading}")
            }
            Self::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            Self::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported version {found} (this build writes {supported})"
                )
            }
            Self::Corrupt(what) => write!(f, "corrupt payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Elements the slice writers convert per write: in L1, yet few writes.
const BLOCK_ELEMS: usize = 512;

/// Append-only encoder over a byte sink: a `Vec<u8>` by default, or any
/// [`std::io::Write`], so a large index streams to a file unassembled.
/// `put_*` never fail: an I/O sink's first error sticks (later writes are
/// dropped) and [`into_sink`](Self::into_sink) reports it.
#[derive(Debug, Default)]
pub struct Encoder<W = Vec<u8>> {
    sink: W,
    written: usize,
    /// While a payload is only measured: lengths add up, no byte moves.
    measuring: bool,
    error: Option<std::io::Error>,
}

impl Encoder {
    /// Creates an in-memory encoder, optionally pre-sized.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self::over(Vec::with_capacity(cap))
    }

    /// Encodes what `fill` writes into a buffer of exactly its size.
    #[must_use]
    pub fn exactly(fill: impl Fn(&mut Self)) -> Vec<u8> {
        let mut enc = Self {
            measuring: true,
            ..Self::default()
        };
        fill(&mut enc);
        let mut enc = Self::with_capacity(enc.written);
        fill(&mut enc);
        enc.sink
    }

    /// Finishes encoding.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.sink
    }
}

impl<W: std::io::Write> Encoder<W> {
    /// Creates an encoder that appends to `sink`.
    pub fn over(sink: W) -> Self {
        Self {
            sink,
            written: 0,
            measuring: false,
            error: None,
        }
    }

    /// Finishes encoding and hands the sink back.
    ///
    /// # Errors
    /// The first error the sink reported, if any.
    pub fn into_sink(self) -> std::io::Result<W> {
        self.error.map_or(Ok(self.sink), Err)
    }

    /// Writes raw bytes, no length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.written += bytes.len();
        if !self.measuring && self.error.is_none() {
            self.error = self.sink.write_all(bytes).err();
        }
    }

    /// Writes the 4-byte magic tag and a version byte.
    pub fn envelope(&mut self, magic: [u8; 4], version: u8) {
        self.put_bytes(&magic);
        self.put_u8(version);
    }

    /// Writes a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.put_bytes(&[v]);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Writes an `f64` by bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes `vs` little-endian a block at a time, no length prefix.
    fn put_le<T: Copy, const N: usize>(&mut self, vs: &[T], le: impl Fn(T) -> [u8; N]) {
        if self.measuring {
            self.written += N * vs.len();
            return;
        }
        let mut block = [[0u8; N]; BLOCK_ELEMS];
        for chunk in vs.chunks(BLOCK_ELEMS) {
            for (dst, &v) in block.iter_mut().zip(chunk) {
                *dst = le(v);
            }
            self.put_bytes(block[..chunk.len()].as_flattened());
        }
    }

    /// Writes little-endian `u32`s with no length prefix.
    pub fn put_u32s(&mut self, vs: &[u32]) {
        self.put_le(vs, u32::to_le_bytes);
    }

    /// Writes little-endian `u16`s with no length prefix.
    pub fn put_u16s(&mut self, vs: &[u16]) {
        self.put_le(vs, u16::to_le_bytes);
    }

    /// Writes a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_u64(vs.len() as u64);
        self.put_u32s(vs);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.put_bytes(s.as_bytes());
    }

    /// Writes a nested payload behind its `u64` length: `fill` encodes it
    /// in place, run once to measure (no byte moves) and once to write.
    pub fn put_nested(&mut self, fill: impl Fn(&mut Self)) {
        let (start, outer) = (self.written, std::mem::replace(&mut self.measuring, true));
        fill(self);
        let len = self.written - start;
        (self.written, self.measuring) = (start, outer);
        self.put_u64(len as u64);
        fill(self);
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.written
    }

    /// True if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, reading: &'static str) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::UnexpectedEof { reading });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Steps over `n` bytes a migrating reader has no use for.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] when fewer remain.
    pub fn skip(&mut self, n: usize, reading: &'static str) -> Result<(), CodecError> {
        self.take(n, reading).map(drop)
    }

    /// Checks the magic tag and returns the version byte.
    ///
    /// # Errors
    /// [`CodecError::BadMagic`] / [`CodecError::UnexpectedEof`].
    pub fn envelope(&mut self, magic: [u8; 4]) -> Result<u8, CodecError> {
        let found = self.take(4, "magic")?;
        if found != magic {
            return Err(CodecError::BadMagic {
                expected: magic,
                found: found.try_into().expect("4 bytes"),
            });
        }
        self.get_u8("version")
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`].
    pub fn get_u8(&mut self, reading: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, reading)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`].
    pub fn get_u32(&mut self, reading: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4, reading)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`].
    pub fn get_u64(&mut self, reading: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8, reading)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` by bit pattern.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`].
    pub fn get_f64(&mut self, reading: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64(reading)?))
    }

    /// Reads a `u64` count of `width`-byte elements and borrows their bytes,
    /// failing fast on a count that wraps or exceeds the remaining input.
    fn counted(&mut self, width: usize, reading: &'static str) -> Result<&'a [u8], CodecError> {
        let bytes = usize::try_from(self.get_u64(reading)?)
            .ok()
            .and_then(|n| n.checked_mul(width))
            .filter(|&bytes| bytes <= self.remaining())
            .ok_or(CodecError::Corrupt("announced length exceeds input"))?;
        self.take(bytes, reading)
    }

    /// Borrows a payload written by [`Encoder::put_nested`], uncopied.
    ///
    /// # Errors
    /// [`CodecError`] variants on truncation or corruption.
    pub fn get_nested(&mut self, reading: &'static str) -> Result<&'a [u8], CodecError> {
        self.counted(1, reading)
    }

    /// Reads `n` little-endian `u32`s, no length prefix (capacity = `n`).
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] when fewer than `4 · n` bytes remain.
    pub fn get_u32s(&mut self, n: usize, reading: &'static str) -> Result<Vec<u32>, CodecError> {
        let bytes = self.take(n.saturating_mul(4), reading)?;
        Ok(le_vec(bytes, u32::from_le_bytes))
    }

    /// Reads `n` little-endian `u16`s, no length prefix (capacity = `n`).
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] when fewer than `2 · n` bytes remain.
    pub fn get_u16s(&mut self, n: usize, reading: &'static str) -> Result<Vec<u16>, CodecError> {
        let bytes = self.take(n.saturating_mul(2), reading)?;
        Ok(le_vec(bytes, u16::from_le_bytes))
    }

    /// Reads a length-prefixed `u32` vector (capacity = length).
    ///
    /// # Errors
    /// [`CodecError`] variants on truncation or corruption.
    pub fn get_u32_vec(&mut self, reading: &'static str) -> Result<Vec<u32>, CodecError> {
        Ok(le_vec(self.counted(4, reading)?, u32::from_le_bytes))
    }

    /// Reads a signature of `n` `u32` lanes, no length prefix.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] when fewer than `n` lanes remain,
    /// [`CodecError::Corrupt`] when `n` is zero.
    pub fn get_lanes(&mut self, n: usize, reading: &'static str) -> Result<Signature, CodecError> {
        if n == 0 {
            return Err(CodecError::Corrupt("signature must have slots"));
        }
        let bytes = self.take(n.saturating_mul(Signature::LANE_BYTES), reading)?;
        Ok(Signature::from_slots(le_vec(bytes, u32::from_le_bytes)))
    }

    /// Borrows a length-prefixed UTF-8 string, uncopied.
    ///
    /// # Errors
    /// [`CodecError`] variants on truncation or invalid UTF-8.
    pub fn get_str(&mut self, reading: &'static str) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.counted(1, reading)?)
            .map_err(|_| CodecError::Corrupt("invalid UTF-8"))
    }

    /// True if every input byte has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Remaining unread bytes.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// The little-endian `N`-byte values of `bytes`, exactly sized.
fn le_vec<T, const N: usize>(bytes: &[u8], from_le: impl Fn([u8; N]) -> T) -> Vec<T> {
    let values = bytes.chunks_exact(N);
    values
        .map(|c| from_le(c.try_into().expect("N bytes")))
        .collect()
}

/// Wire format of a [`crate::Signature`]: the query sketch a client ships
/// to a search server.
///
/// ```text
/// "LSIG" version:u8 lane_count:u64 lanes:u32×lane_count
/// ```
///
/// Version 1 carried `u64` slots and is refused.
pub mod signature_wire {
    use super::{CodecError, Decoder, Encoder};
    use crate::Signature;

    /// Envelope tag.
    pub const MAGIC: [u8; 4] = *b"LSIG";
    /// Current version: 32-bit lanes.
    pub const VERSION: u8 = 2;

    /// Encodes a signature (5-byte envelope + length + 4 bytes per lane).
    #[must_use]
    pub fn encode(sig: &Signature) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(13 + Signature::LANE_BYTES * sig.len());
        enc.envelope(MAGIC, VERSION);
        enc.put_u32_slice(sig.slots());
        enc.finish()
    }

    /// Decodes a signature.
    ///
    /// # Errors
    /// [`CodecError`] on truncation, tag/version mismatch, or an empty
    /// slot array.
    pub fn decode(bytes: &[u8]) -> Result<Signature, CodecError> {
        let mut dec = Decoder::new(bytes);
        let version = dec.envelope(MAGIC)?;
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let lanes = dec.get_u64("signature lane count")? as usize;
        dec.get_lanes(lanes, "signature slots")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MinHasher;

    #[test]
    fn primitive_roundtrip() {
        let mut enc = Encoder::default();
        enc.envelope(*b"TEST", 3);
        enc.put_u8(7);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX);
        enc.put_f64(0.25);
        enc.put_u32_slice(&[1, 2, 3]);
        enc.put_u32_slice(&[]);
        enc.put_str("héllo");
        let bytes = enc.finish();

        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.envelope(*b"TEST").expect("envelope"), 3);
        assert_eq!(dec.get_u8("a").expect("u8"), 7);
        assert_eq!(dec.get_u32("b").expect("u32"), 0xDEAD_BEEF);
        assert_eq!(dec.get_u64("c").expect("u64"), u64::MAX);
        assert_eq!(dec.get_f64("d").expect("f64"), 0.25);
        assert_eq!(dec.get_u32_vec("e").expect("vec"), vec![1, 2, 3]);
        assert_eq!(dec.get_u32_vec("f").expect("vec"), Vec::<u32>::new());
        assert_eq!(dec.get_str("g").expect("str"), "héllo");
        assert!(dec.is_exhausted());
    }

    #[test]
    fn bad_magic_detected() {
        let mut enc = Encoder::default();
        enc.envelope(*b"AAAA", 1);
        let bytes = enc.finish();
        let err = Decoder::new(&bytes).envelope(*b"BBBB").unwrap_err();
        assert!(matches!(err, CodecError::BadMagic { .. }));
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn eof_detected() {
        let mut dec = Decoder::new(&[1, 2]);
        let err = dec.get_u32("field").unwrap_err();
        assert_eq!(err, CodecError::UnexpectedEof { reading: "field" });
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        // A corrupt length prefix claiming 2^60 elements must error, not OOM.
        let mut enc = Encoder::default();
        enc.put_u64(1 << 60);
        enc.put_u32(1);
        let bytes = enc.finish();
        let err = Decoder::new(&bytes).get_u32_vec("field").unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)));
    }

    #[test]
    fn hostile_lengths_are_typed_errors_in_every_getter() {
        // Lengths near usize::MAX used to wrap `pos + n` (release) or
        // overflow-panic (debug); each getter must return an error.
        for hostile in [u64::MAX, u64::MAX - 7, (usize::MAX / 4) as u64 + 1, 1 << 63] {
            let mut enc = Encoder::default();
            enc.put_u64(7); // move the cursor off zero so `pos + n` can wrap
            enc.put_u64(hostile);
            enc.put_u64(0);
            let bytes = enc.finish();
            let dec = || {
                let mut dec = Decoder::new(&bytes);
                dec.get_u64("lead").expect("lead");
                dec
            };
            let corrupt = CodecError::Corrupt("announced length exceeds input");
            assert_eq!(dec().get_str("s").unwrap_err(), corrupt);
            assert_eq!(dec().get_u32_vec("v").unwrap_err(), corrupt);
            assert_eq!(dec().get_nested("n").unwrap_err(), corrupt);
            let n = hostile as usize;
            assert_eq!(
                dec().take(n, "raw").unwrap_err(),
                CodecError::UnexpectedEof { reading: "raw" }
            );
            assert_eq!(
                dec().get_lanes(n, "raw").unwrap_err(),
                CodecError::UnexpectedEof { reading: "raw" }
            );
        }
    }

    #[test]
    fn bulk_slices_match_the_elementwise_form_and_decode_exactly_sized() {
        // Lengths straddling the conversion block.
        for n in [
            0usize,
            1,
            BLOCK_ELEMS - 1,
            BLOCK_ELEMS,
            BLOCK_ELEMS + 1,
            3 * BLOCK_ELEMS + 5,
        ] {
            let a: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            let mut bulk = Encoder::default();
            bulk.put_u32_slice(&a);
            bulk.put_u32s(&a);
            let mut each = Encoder::default();
            each.put_u64(n as u64);
            a.iter().for_each(|&v| each.put_u32(v));
            a.iter().for_each(|&v| each.put_u32(v));
            assert_eq!(bulk.len(), each.len());
            let bytes = bulk.finish();
            assert_eq!(bytes, each.finish(), "n = {n}");

            let mut dec = Decoder::new(&bytes);
            let a2 = dec.get_u32_vec("a").expect("a");
            if n == 0 {
                assert!(dec.get_lanes(n, "raw").is_err(), "no empty signature");
                continue;
            }
            let a3 = dec.get_lanes(n, "raw").expect("raw");
            assert!(dec.is_exhausted());
            assert_eq!((&a2[..], a3.slots()), (&a[..], &a[..]));
            assert_eq!(a2.capacity(), n, "decoded vectors must not over-allocate");
        }
    }

    #[test]
    fn nested_payload_is_borrowed_back_without_a_copy() {
        let mut enc = Encoder::default();
        enc.put_u8(9);
        enc.put_nested(|enc| enc.envelope(*b"NEST", 2));
        enc.put_u8(10);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8("a").expect("a"), 9);
        let inner = dec.get_nested("inner").expect("inner");
        assert!(std::ptr::eq(inner.as_ptr(), bytes[9..].as_ptr()));
        assert_eq!(Decoder::new(inner).envelope(*b"NEST").expect("nested"), 2);
        assert_eq!(dec.get_u8("b").expect("b"), 10);
    }

    #[test]
    fn io_sink_streams_the_same_bytes_and_keeps_the_first_error() {
        fn write<W: std::io::Write>(enc: &mut Encoder<W>) {
            enc.envelope(*b"SINK", 1);
            enc.put_u32_slice(&[1, 2, 3]);
            enc.put_str("tail");
        }
        let mut plain = Encoder::default();
        write(&mut plain);
        let mut streamed = Encoder::over(std::io::BufWriter::with_capacity(7, Vec::new()));
        write(&mut streamed);
        assert_eq!(streamed.len(), plain.len());
        let sink = streamed.into_sink().expect("no error");
        assert_eq!(sink.into_inner().expect("flush"), plain.finish());

        /// Accepts `room` bytes, then fails every write.
        struct Full {
            room: usize,
        }
        impl std::io::Write for Full {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.len() > self.room {
                    return Err(std::io::Error::other("disk full"));
                }
                self.room -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut failing = Encoder::over(Full { room: 6 });
        failing.envelope(*b"SINK", 1);
        failing.put_u64(1); // fails here …
        failing.put_u8(2); // … and this would fit, but must not be written
        let err = failing.into_sink().map(|_| ()).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn signature_wire_roundtrip() {
        let h = MinHasher::new(256);
        let sig = h.signature(MinHasher::synthetic_values(5, 500));
        let bytes = signature_wire::encode(&sig);
        // Envelope (5) + length (8) + 256 lanes × 4.
        assert_eq!(bytes.len(), 5 + 8 + 256 * 4);
        let back = signature_wire::decode(&bytes).expect("decode");
        assert_eq!(back, sig);
    }

    #[test]
    fn signature_wire_refuses_the_64_bit_slot_version() {
        let mut enc = Encoder::default();
        enc.envelope(signature_wire::MAGIC, 1);
        enc.put_u64(2);
        for slot in [1u64 << 29, crate::EMPTY_SLOT] {
            enc.put_u64(slot);
        }
        assert_eq!(
            signature_wire::decode(&enc.finish()).unwrap_err(),
            CodecError::UnsupportedVersion {
                found: 1,
                supported: 2
            }
        );
    }

    #[test]
    fn signature_wire_rejects_future_version() {
        let h = MinHasher::new(16);
        let mut bytes = signature_wire::encode(&h.signature([1u64]));
        bytes[4] = 99; // version byte
        let err = signature_wire::decode(&bytes).unwrap_err();
        assert!(matches!(
            err,
            CodecError::UnsupportedVersion { found: 99, .. }
        ));
    }

    #[test]
    fn signature_wire_rejects_truncation() {
        let h = MinHasher::new(64);
        let bytes = signature_wire::encode(&h.signature([1u64, 2]));
        for cut in [0usize, 3, 5, 12, bytes.len() - 1] {
            assert!(
                signature_wire::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn signature_wire_rejects_empty() {
        let mut enc = Encoder::default();
        enc.envelope(signature_wire::MAGIC, signature_wire::VERSION);
        enc.put_u32_slice(&[]);
        assert_eq!(
            signature_wire::decode(&enc.finish()).unwrap_err(),
            CodecError::Corrupt("signature must have slots")
        );
    }
}
