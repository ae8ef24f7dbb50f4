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
use std::ops::{Deref, Range};
use std::sync::Arc;

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

    /// Writes little-endian `u64`s with no length prefix.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_le(vs, u64::to_le_bytes);
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
        // Measured from where the payload will lie, behind its length, so a
        // pad inside it comes out the same both times.
        self.written += 8;
        fill(self);
        let len = self.written - start - 8;
        (self.written, self.measuring) = (start, outer);
        self.put_u64(len as u64);
        fill(self);
    }

    /// Pads to the next multiple of `align` bytes from the start of the
    /// sink — of the file, for a sink that is one, so a column written next
    /// can be viewed in place by a reader that maps it. One byte says how
    /// many zero bytes follow (`0..align`): the pad describes itself, and a
    /// payload decodes the same wherever it is nested.
    ///
    /// # Panics
    /// Panics if `align` is zero or the pad would not fit its length byte.
    pub fn pad_to(&mut self, align: usize) {
        assert!((1..=256).contains(&align), "pad_to({align})");
        let zeros = (align - (self.written + 1) % align) % align;
        self.put_u8(zeros as u8);
        self.put_bytes(&[0; 256][..zeros]);
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

/// Bytes a [`Decoder`] may lend [`Column`]s out of instead of copying
/// them: a file mapping, or any buffer behind an `Arc`. Every column
/// borrowed from an owner holds a clone of it.
pub type Owner = Arc<dyn AsRef<[u8]> + Send + Sync>;

mod sealed {
    pub trait Sealed {}
}

/// The element types of a [`Column`]: fixed-width unsigned integers, of
/// which every bit pattern is a value — so little-endian file bytes can be
/// viewed as them in place (`u8` for a text arena). Sealed.
pub trait Word: Copy + sealed::Sealed + 'static {
    /// `bytes` as little-endian values, exactly sized.
    #[doc(hidden)]
    fn vec_from_le(bytes: &[u8]) -> Vec<Self>;
}

macro_rules! word {
    ($($int:ty),*) => {$(
        impl sealed::Sealed for $int {}
        impl Word for $int {
            fn vec_from_le(bytes: &[u8]) -> Vec<Self> {
                le_vec(bytes, <$int>::from_le_bytes)
            }
        }
    )*};
}
word!(u8, u16, u32, u64);

/// One bulk column of an index — row ids, row words, a tree's sorted lanes,
/// row sizes, the bytes of a name arena — either held (a `Vec<T>`) or viewed in place inside a shared [`Owner`],
/// which the column keeps alive. Reads go through `Deref<Target = [T]>` and
/// cannot tell the two apart; [`to_mut`](Self::to_mut) copies a borrowed
/// column out before its first write. A clone of a borrowed column is
/// another view of the same bytes.
#[derive(Clone)]
pub struct Column<T: Word>(Repr<T>);

#[derive(Clone)]
enum Repr<T: Word> {
    Owned(Vec<T>),
    /// `view` lies inside `_owner`'s bytes, which `_owner` is held to keep
    /// alive, and is lent no longer than `&self`.
    Borrowed {
        view: &'static [T],
        _owner: Owner,
    },
}

impl<T: Word> Column<T> {
    /// The bytes `bytes` of `owner` viewed in place as `T`s, or `None` —
    /// the caller copies instead — when the range is not inside the owner,
    /// is not a whole number of `T`s, does not start on a `T` boundary, or
    /// the target is not little-endian like the bytes.
    #[must_use]
    pub fn borrowed(owner: Owner, bytes: Range<usize>) -> Option<Self> {
        let part = (*owner).as_ref().get(bytes)?;
        let size = std::mem::size_of::<T>();
        if cfg!(target_endian = "big")
            || !part.len().is_multiple_of(size)
            || !(part.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>())
        {
            return None;
        }
        // SAFETY: `part` is `size · n` initialised bytes inside `owner`'s
        // buffer that start on a `T` boundary (both checked above), and
        // every bit pattern is a `T` (`Word` is sealed over the unsigned
        // integers): they are `n` valid `T`s. The `'static` never leaves
        // this type — `Deref` lends the view for `&self` only — and `self`
        // holds `owner`, whose bytes an `Arc` neither moves nor frees nor
        // lends mutably while this clone of it lives. Nothing writes them:
        // the owners are buffers nobody holds `&mut` to, or `PROT_READ` /
        // `MAP_PRIVATE` file mappings (what such a mapping cannot survive —
        // a writer truncating the file in place — is in `docs/FORMAT.md`).
        let view =
            unsafe { std::slice::from_raw_parts(part.as_ptr().cast::<T>(), part.len() / size) };
        Some(Self(Repr::Borrowed {
            view,
            _owner: owner,
        }))
    }

    /// True while the column is a view into an [`Owner`].
    #[must_use]
    pub fn is_borrowed(&self) -> bool {
        matches!(self.0, Repr::Borrowed { .. })
    }

    /// True if the column is a view and lies inside `bytes`.
    #[must_use]
    pub fn is_view_into(&self, bytes: &[u8]) -> bool {
        let (view, bytes) = (self.as_ptr_range(), bytes.as_ptr_range());
        self.is_borrowed()
            && bytes.start <= view.start.cast::<u8>()
            && view.end.cast::<u8>() <= bytes.end
    }

    /// The column as a vector to change: a borrowed one is copied out
    /// first, and is owned from then on.
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let Repr::Borrowed { view, .. } = self.0 {
            self.0 = Repr::Owned(view.to_vec());
        }
        match &mut self.0 {
            Repr::Owned(values) => values,
            Repr::Borrowed { .. } => unreachable!("copied out above"),
        }
    }

    /// Heap bytes held: the vector's capacity, nothing for a view.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Owned(values) => values.capacity() * std::mem::size_of::<T>(),
            Repr::Borrowed { .. } => 0,
        }
    }

    /// Bytes viewed inside an owner: nothing for a vector.
    #[must_use]
    pub fn mapped_bytes(&self) -> usize {
        match self.0 {
            Repr::Owned(_) => 0,
            Repr::Borrowed { view, .. } => std::mem::size_of_val(view),
        }
    }
}

// A view is read-only and a vector has no interior mutability: a panic
// cannot leave either half-written behind a shared reference, whatever the
// owner's type says of itself. (Without these, holding an `Owner` would
// take the auto traits away from every index type.)
impl<T: Word> std::panic::UnwindSafe for Column<T> {}
impl<T: Word> std::panic::RefUnwindSafe for Column<T> {}

impl<T: Word> Deref for Column<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Owned(values) => values,
            Repr::Borrowed { view, .. } => view,
        }
    }
}

impl<T: Word> Default for Column<T> {
    fn default() -> Self {
        Self(Repr::Owned(Vec::new()))
    }
}

impl<T: Word> From<Vec<T>> for Column<T> {
    fn from(values: Vec<T>) -> Self {
        Self(Repr::Owned(values))
    }
}

impl<T: Word + std::fmt::Debug> std::fmt::Debug for Column<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// Cursor-based decoder over a byte slice — one it was handed, from which
/// everything decoded is copied, or the bytes of a shared [`Owner`], from
/// which [`get_column`](Self::get_column) borrows.
#[derive(Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The owner `buf` lies in, and where in its bytes `buf` starts.
    shared: Option<(&'a Owner, usize)>,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            shared: None,
        }
    }

    /// A decoder over all of `owner`'s bytes whose columns borrow from it.
    #[must_use]
    pub fn shared(owner: &'a Owner) -> Self {
        Self {
            buf: (**owner).as_ref(),
            pos: 0,
            shared: Some((owner, 0)),
        }
    }

    fn take(&mut self, n: usize, reading: &'static str) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::UnexpectedEof { reading });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Steps over `n` bytes the reader has no use for.
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

    /// [`get_nested`](Self::get_nested) as a decoder of its own, over the
    /// same owner if this one has one.
    ///
    /// # Errors
    /// [`CodecError`] variants on truncation or corruption.
    pub fn nested(&mut self, reading: &'static str) -> Result<Decoder<'a>, CodecError> {
        let buf = self.get_nested(reading)?;
        let start = self.pos - buf.len();
        Ok(Decoder {
            buf,
            pos: 0,
            shared: self.shared.map(|(owner, base)| (owner, base + start)),
        })
    }

    /// Steps over a pad written by [`Encoder::pad_to`].
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] inside the pad, [`CodecError::Corrupt`]
    /// when a pad byte is not zero.
    pub fn get_pad(&mut self, reading: &'static str) -> Result<(), CodecError> {
        let zeros = usize::from(self.get_u8(reading)?);
        if self.take(zeros, reading)?.iter().any(|&b| b != 0) {
            return Err(CodecError::Corrupt("non-zero pad byte"));
        }
        Ok(())
    }

    /// Reads a column of `n` little-endian `T`s, no length prefix: viewed
    /// in place when this decoder runs over a shared [`Owner`] and the
    /// bytes start on a `T` boundary there, copied (capacity = `n`)
    /// otherwise.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] when fewer than `n` values remain.
    pub fn get_column<T: Word>(
        &mut self,
        n: usize,
        reading: &'static str,
    ) -> Result<Column<T>, CodecError> {
        let start = self.pos;
        let bytes = self.take(n.saturating_mul(std::mem::size_of::<T>()), reading)?;
        let view = self.shared.and_then(|(owner, base)| {
            Column::borrowed(Arc::clone(owner), base + start..base + self.pos)
        });
        Ok(view.unwrap_or_else(|| T::vec_from_le(bytes).into()))
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
    #[cfg(test)]
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
            let wide: Vec<u64> = a.iter().map(|&v| u64::from(v) << 29 | 7).collect();
            let mut bulk = Encoder::default();
            bulk.put_u32_slice(&a);
            bulk.put_u32s(&a);
            bulk.put_u64s(&wide);
            let mut each = Encoder::default();
            each.put_u64(n as u64);
            a.iter().for_each(|&v| each.put_u32(v));
            a.iter().for_each(|&v| each.put_u32(v));
            wide.iter().for_each(|&v| each.put_u64(v));
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
            let w: Column<u64> = dec.get_column(n, "wide").expect("wide");
            assert!(dec.is_exhausted());
            assert_eq!((&a2[..], a3.slots()), (&a[..], &a[..]));
            assert_eq!(*w, wide[..]);
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
    fn a_pad_aligns_the_sink_describes_itself_and_measures_as_it_writes() {
        for lead in 0..9 {
            let mut enc = Encoder::default();
            enc.put_bytes(&[7; 9][..lead]);
            enc.pad_to(4);
            assert_eq!(enc.len() % 4, 0, "lead {lead}");
            assert!((1..=4).contains(&(enc.len() - lead)), "lead {lead}");
            enc.put_u32(0xDEAD_BEEF);
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes);
            dec.skip(lead, "lead").expect("lead");
            dec.get_pad("pad").expect("pad");
            assert_eq!(dec.get_u32("after").expect("after"), 0xDEAD_BEEF);
            // Cut inside the pad, or a pad byte set: typed errors.
            for cut in lead..bytes.len() - 4 {
                let mut dec = Decoder::new(&bytes[..cut]);
                dec.skip(lead, "lead").expect("lead");
                assert_eq!(
                    dec.get_pad("pad").unwrap_err(),
                    CodecError::UnexpectedEof { reading: "pad" }
                );
            }
            if bytes.len() - 4 > lead + 1 {
                let mut dirty = bytes.clone();
                dirty[lead + 1] = 9;
                let mut dec = Decoder::new(&dirty);
                dec.skip(lead, "lead").expect("lead");
                assert_eq!(
                    dec.get_pad("pad").unwrap_err(),
                    CodecError::Corrupt("non-zero pad byte")
                );
            }
        }
        // A pad inside nested payloads counts from the start of the sink
        // both times `put_nested` runs its closure, whatever lies before.
        for lead in 0..5 {
            let fill = |enc: &mut Encoder| {
                enc.put_bytes(&[1; 5][..lead]);
                enc.put_nested(|enc| {
                    enc.put_u8(2);
                    enc.put_nested(|enc| {
                        enc.pad_to(4);
                        enc.put_u32s(&[3, 4]);
                    });
                });
            };
            let bytes = Encoder::exactly(fill);
            assert_eq!(bytes.capacity(), bytes.len());
            let mut dec = Decoder::new(&bytes);
            dec.skip(lead, "lead").expect("lead");
            let mut outer = dec.nested("outer").expect("outer");
            assert!(dec.is_exhausted());
            assert_eq!(outer.get_u8("tag").expect("tag"), 2);
            let mut inner = outer.nested("inner").expect("inner");
            inner.get_pad("pad").expect("pad");
            assert_eq!((bytes.len() - inner.remaining()) % 4, 0, "lead {lead}");
            assert_eq!(
                *inner.get_column::<u32>(2, "column").expect("column"),
                [3, 4]
            );
            assert!(inner.is_exhausted() && outer.is_exhausted());
        }
    }

    /// 64 bytes that start on an 8-byte boundary, behind an `Arc`.
    fn aligned_owner() -> (Owner, usize) {
        let bytes: Vec<u8> = (0u8..72).collect();
        let owner: Owner = Arc::new(bytes);
        let at = (*owner).as_ref().as_ptr().align_offset(8);
        (owner, at)
    }

    #[test]
    fn a_column_is_a_view_only_of_a_whole_aligned_range_inside_its_owner() {
        let (owner, at) = aligned_owner();
        let bytes: &[u8] = (*owner).as_ref();
        let view = |range: Range<usize>| (Arc::clone(&owner), at + range.start..at + range.end);
        let le = |range: Range<usize>| &bytes[at + range.start..at + range.end];

        let (o, r) = view(0..16);
        let c16 = Column::<u16>::borrowed(o, r).expect("u16");
        assert_eq!(c16.to_vec(), u16::vec_from_le(le(0..16)));
        let (o, r) = view(4..16);
        let c32 = Column::<u32>::borrowed(o, r).expect("u32");
        assert_eq!(c32.to_vec(), u32::vec_from_le(le(4..16)));
        let (o, r) = view(8..24);
        let c64 = Column::<u64>::borrowed(o, r).expect("u64");
        assert_eq!(c64.to_vec(), u64::vec_from_le(le(8..24)));
        assert!(c16.is_view_into(bytes) && c32.is_view_into(bytes) && c64.is_view_into(bytes));
        // Bytes are viewed wherever they start.
        let (o, r) = view(3..10);
        let c8 = Column::<u8>::borrowed(o, r).expect("u8");
        assert_eq!((&*c8, c8.mapped_bytes()), (le(3..10), 7));
        assert!(!c32.is_view_into(&bytes[..at + 8]), "ends past those");
        assert_eq!((c32.mapped_bytes(), c32.heap_bytes()), (12, 0));

        // Misaligned starts, for each width.
        let (o, r) = view(1..17);
        assert!(Column::<u16>::borrowed(o, r).is_none());
        let (o, r) = view(2..18);
        assert!(Column::<u32>::borrowed(o, r).is_none());
        let (o, r) = view(4..20);
        assert!(Column::<u64>::borrowed(o, r).is_none());
        // Not a whole number of elements.
        let (o, r) = view(0..6);
        assert!(Column::<u32>::borrowed(o, r).is_none());
        // Past the owner, inverted, and wrapping ranges.
        let len = bytes.len();
        assert!(Column::<u32>::borrowed(Arc::clone(&owner), at..len + 4).is_none());
        assert!(Column::<u16>::borrowed(Arc::clone(&owner), len..len + 2).is_none());
        let (from, to) = (8, 4);
        assert!(Column::<u16>::borrowed(Arc::clone(&owner), from..to).is_none());
        assert!(Column::<u16>::borrowed(Arc::clone(&owner), usize::MAX - 1..usize::MAX).is_none());
        // Zero length: a view where aligned, nothing where not.
        let (o, r) = view(8..8);
        let empty = Column::<u64>::borrowed(o, r).expect("empty");
        assert!(empty.is_empty() && empty.is_borrowed());
        let (o, r) = view(3..3);
        assert!(Column::<u32>::borrowed(o, r).is_none());
        let nothing: Owner = Arc::new(Vec::new());
        assert!(Column::<u32>::borrowed(nothing, 0..0).is_none_or(|c| c.is_empty()));
    }

    #[test]
    fn a_view_outlives_every_other_handle_and_is_copied_out_by_its_first_write() {
        let (owner, at) = aligned_owner();
        let want = u32::vec_from_le(&(*owner).as_ref()[at..at + 16]);
        let mut column = Column::<u32>::borrowed(Arc::clone(&owner), at..at + 16).expect("view");
        let twin = column.clone();
        assert_eq!(Arc::strong_count(&owner), 3);
        drop(owner);
        assert_eq!((&*column, &*twin), (&want[..], &want[..]));
        assert!(std::ptr::eq(column.as_ptr(), twin.as_ptr()));

        column.to_mut().push(77);
        assert!(!column.is_borrowed() && twin.is_borrowed());
        assert_eq!(column[..4], want[..]);
        assert_eq!((column.len(), twin.len()), (5, 4));
        assert_eq!(column.mapped_bytes(), 0);
        assert!(column.heap_bytes() >= 20);
        drop(twin);
        assert_eq!(column[4], 77);
        // An owned column is changed where it is.
        let at = column.as_ptr();
        column.to_mut()[0] = 1;
        assert!(std::ptr::eq(at, column.as_ptr()));
        assert_eq!(format!("{:?}", Column::from(vec![1u16, 2])), "[1, 2]");
    }

    #[test]
    fn a_shared_decoder_lends_aligned_columns_and_copies_the_rest() {
        let (owner, at) = aligned_owner();
        let bytes: &[u8] = (*owner).as_ref();
        let mut dec = Decoder::shared(&owner);
        dec.skip(at, "lead").expect("lead");
        let first: Column<u32> = dec.get_column(2, "first").expect("first");
        assert!(first.is_view_into(bytes));
        dec.skip(1, "shift").expect("shift");
        let odd: Column<u32> = dec.get_column(2, "odd").expect("odd");
        assert!(!odd.is_borrowed());
        assert_eq!(odd.to_vec(), u32::vec_from_le(&bytes[at + 9..at + 17]));
        assert_eq!(odd.heap_bytes(), 8, "copied exactly sized");
        // The same reads over a plain slice copy both.
        let mut plain = Decoder::new(bytes);
        plain.skip(at, "lead").expect("lead");
        let copy: Column<u32> = plain.get_column(2, "first").expect("first");
        assert!(!copy.is_borrowed());
        assert_eq!(*copy, *first);
        // A count the input cannot hold is an error before any allocation.
        assert_eq!(
            dec.get_column::<u64>(usize::MAX / 2, "huge").unwrap_err(),
            CodecError::UnexpectedEof { reading: "huge" }
        );
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
