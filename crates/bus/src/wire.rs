//! Byte-level codec for bus messages.
//!
//! The bus is (hypothetical) hardware, so its protocol is specified at the
//! byte level: little-endian fixed-width integers, LEB128 varints for
//! lengths and counts, length-prefixed UTF-8 strings and byte blobs. The
//! codec is strict — trailing bytes, truncation, over-long varints and
//! invalid UTF-8 are all decode errors — because a permissive parser on a
//! privileged bus is an attack surface.

use std::fmt;
use std::sync::Arc;

/// Maximum length accepted for any string or blob (1 MiB).
///
/// The control plane does not carry data (§2.2); anything near this limit is
/// a protocol abuse, and the cap keeps a malicious length prefix from
/// ballooning allocation.
pub const MAX_FIELD_LEN: usize = 1 << 20;

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// A varint used more than 10 bytes.
    VarintOverflow,
    /// A length prefix exceeded [`MAX_FIELD_LEN`].
    FieldTooLong {
        /// The claimed length.
        len: u64,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// An enum discriminant was out of range.
    BadDiscriminant {
        /// The context (type name) in which the discriminant appeared.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// Decoding finished but input bytes remained.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
    /// The frame check sequence did not match the frame body: the message
    /// was corrupted in flight and must be dropped (the sender's RPC
    /// timeout retransmits it).
    ChecksumMismatch {
        /// FCS carried by the frame.
        expected: u32,
        /// FCS computed over the received body.
        actual: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::VarintOverflow => write!(f, "varint overflow"),
            WireError::FieldTooLong { len } => write!(f, "field length {len} exceeds cap"),
            WireError::InvalidUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::BadDiscriminant { what, value } => {
                write!(f, "bad {what} discriminant {value}")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after message")
            }
            WireError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "frame check mismatch: frame says {expected:#010x}, body hashes to {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// The frame check sequence: 32-bit FNV-1a over the frame body.
///
/// Real interconnects protect every TLP/flit with a CRC (PCIe LCRC, CXL
/// flit CRC); without one, a single flipped bit can alias one valid
/// protocol message into another. (The E4 fault-injection matrix found
/// exactly this: a bit-flipped `Heartbeat` decoded as a clean `Bye`,
/// silently deregistering the device so liveness monitoring stopped
/// watching it.) FNV-1a is not a CRC, but it has the property the
/// simulation needs: any small corruption changes the check word, so the
/// receiver drops the frame and the sender's RPC timeout retransmits.
pub fn frame_check(body: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in body {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Number of bytes [`WireWriter::varint`] emits for `v`, without emitting
/// them. Used by `Envelope::encoded_len` to compute wire sizes on the
/// routing path without materializing the frame.
pub fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Number of bytes [`WireWriter::bytes`] / [`WireWriter::string`] emit for
/// a field of `n` bytes: the varint length prefix plus the bytes.
pub fn field_len(n: usize) -> usize {
    varint_len(n as u64) + n
}

/// A value's wire encoding: `put` writes it, `take` reads it back, and
/// `encoded_len` is what `put` writes, counted without writing. `'a` is the
/// input a decoded value may borrow from (a key, a write's data), so a view
/// such as `KvsRequestRef<'a>` decodes without copying.
///
/// A message's layout is declared once (`lastcpu_snap::variants!`,
/// `record!` and [`wire_tags!`](crate::wire_tags) in their `wire` mode, DESIGN.md
/// §14.1) and all three follow from it, as does its whole-message framing:
/// [`encode`](Self::encode), [`encode_into`](Self::encode_into) and
/// [`decode`](Self::decode).
pub trait Wire<'a>: Sized {
    /// Writes the value.
    fn put(&self, w: &mut WireWriter);
    /// Reads a value back.
    fn take(r: &mut WireReader<'a>) -> Result<Self, WireError>;
    /// Bytes [`put`](Self::put) writes.
    fn encoded_len(&self) -> usize;

    /// The value as a whole message, allocated once at its exact size.
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the value, as a whole message, to a lent buffer (typically
    /// a pooled one).
    fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut w = WireWriter {
            buf: std::mem::take(buf),
        };
        self.put(&mut w);
        *buf = w.buf;
    }

    /// Reads a whole message: every byte of `buf`, and no more.
    fn decode(buf: &'a [u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::take(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

/// A fixed-width little-endian integer: the writer's and the reader's method
/// of its name, and its `Wire` impl.
macro_rules! fixed {
    ($($t:ident),*) => {$(
        impl WireWriter {
            #[doc = concat!("Writes a little-endian `", stringify!($t), "`.")]
            #[inline]
            pub fn $t(&mut self, v: $t) {
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
        }

        impl<'a> WireReader<'a> {
            #[doc = concat!("Reads a little-endian `", stringify!($t), "`.")]
            #[inline]
            pub fn $t(&mut self) -> Result<$t, WireError> {
                let bytes = self.take(std::mem::size_of::<$t>())?;
                Ok($t::from_le_bytes(bytes.try_into().expect("sized")))
            }
        }

        impl Wire<'_> for $t {
            #[inline]
            fn put(&self, w: &mut WireWriter) {
                w.$t(*self);
            }
            #[inline]
            fn take(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$t()
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

fixed!(u8, u16, u32, u64, u128);

/// Bytes, length-prefixed, borrowed from the input.
impl<'a> Wire<'a> for &'a [u8] {
    #[inline]
    fn put(&self, w: &mut WireWriter) {
        w.bytes(self);
    }
    #[inline]
    fn take(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        r.bytes_ref()
    }
    fn encoded_len(&self) -> usize {
        field_len(self.len())
    }
}

/// UTF-8, length-prefixed, borrowed from the input.
impl<'a> Wire<'a> for &'a str {
    fn put(&self, w: &mut WireWriter) {
        w.string(self);
    }
    fn take(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        std::str::from_utf8(r.bytes_ref()?).map_err(|_| WireError::InvalidUtf8)
    }
    fn encoded_len(&self) -> usize {
        field_len(self.len())
    }
}

impl Wire<'_> for Vec<u8> {
    fn put(&self, w: &mut WireWriter) {
        w.bytes(self);
    }
    fn take(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.bytes()
    }
    fn encoded_len(&self) -> usize {
        field_len(self.len())
    }
}

impl Wire<'_> for String {
    fn put(&self, w: &mut WireWriter) {
        w.string(self);
    }
    fn take(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.string()
    }
    fn encoded_len(&self) -> usize {
        field_len(self.len())
    }
}

impl Wire<'_> for Arc<str> {
    fn put(&self, w: &mut WireWriter) {
        w.string(self);
    }
    fn take(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.string()?.into())
    }
    fn encoded_len(&self) -> usize {
        field_len(self.len())
    }
}

/// A field's layout where it is not its type's own [`Wire`] layout, named
/// at the field in a declaration (`epoch as Varint`).
pub trait Codec<'a, T> {
    /// Writes `v`.
    fn put(&self, v: &T, w: &mut WireWriter);
    /// Reads a value back.
    fn take(&self, r: &mut WireReader<'a>) -> Result<T, WireError>;
    /// Bytes [`put`](Self::put) writes for `v`.
    fn encoded_len(&self, v: &T) -> usize;
}

/// A `u64` as an LEB128 varint.
pub struct Varint;

impl Codec<'_, u64> for Varint {
    fn put(&self, v: &u64, w: &mut WireWriter) {
        w.varint(*v);
    }
    fn take(&self, r: &mut WireReader<'_>) -> Result<u64, WireError> {
        r.varint()
    }
    fn encoded_len(&self, v: &u64) -> usize {
        varint_len(*v)
    }
}

/// A list: a varint count, then the items. The reader reserves room for at
/// most `.0` items, whatever the count claims; a count the bytes cannot
/// hold fails as a truncation.
pub struct Counted(pub usize);

impl<'a, T: Wire<'a>> Codec<'a, Vec<T>> for Counted {
    fn put(&self, v: &Vec<T>, w: &mut WireWriter) {
        w.varint(v.len() as u64);
        v.iter().for_each(|x| x.put(w));
    }
    fn take(&self, r: &mut WireReader<'a>) -> Result<Vec<T>, WireError> {
        let n = r.varint()?;
        let mut v = Vec::with_capacity(n.min(self.0 as u64) as usize);
        for _ in 0..n {
            v.push(T::take(r)?);
        }
        Ok(v)
    }
    fn encoded_len(&self, v: &Vec<T>) -> usize {
        varint_len(v.len() as u64) + v.iter().map(T::encoded_len).sum::<usize>()
    }
}

/// The bytes left in the message, unprefixed: its last field.
pub struct Rest;

impl<'a> Codec<'a, &'a [u8]> for Rest {
    #[inline]
    fn put(&self, v: &&'a [u8], w: &mut WireWriter) {
        w.buf.extend_from_slice(v);
    }
    #[inline]
    fn take(&self, r: &mut WireReader<'a>) -> Result<&'a [u8], WireError> {
        Ok(r.rest())
    }
    fn encoded_len(&self, v: &&'a [u8]) -> usize {
        v.len()
    }
}

/// Declares the wire codec of [`tags!`](lastcpu_snap::tags) enums: the tag
/// byte. An unknown tag is refused; with `else Variant` it reads as that
/// variant instead, for a status the wire reads leniently (fault injection
/// corrupts frames, and what they decode to is part of the record). A
/// checkpoint's [`Field`](lastcpu_snap::Field) refuses it either way.
#[macro_export]
macro_rules! wire_tags {
    ($($t:ident $(else $d:ident)?),* $(,)?) => {$(
        impl $crate::wire::Wire<'_> for $t {
            #[inline]
            fn put(&self, w: &mut $crate::wire::WireWriter) {
                w.u8(self.tag());
            }
            #[inline]
            fn take(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                let t = r.u8()?;
                $crate::wire_tags!(@unknown $t r t $($d)?)
            }
            fn encoded_len(&self) -> usize {
                1
            }
        }
    )*};
    (@unknown $ty:ident $r:ident $t:ident) => {
        Self::from_tag($t).ok_or_else(|| $r.bad_tag(stringify!($ty), $t))
    };
    (@unknown $ty:ident $r:ident $t:ident $d:ident) => {
        Ok(Self::from_tag($t).unwrap_or($ty::$d))
    };
}

/// Append-only encoder.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Writes an unsigned LEB128 varint.
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a length-prefixed byte blob.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Cursor-based decoder.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps `buf` for decoding.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The bytes not yet consumed, all of them.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Fails unless every input byte was consumed.
    #[inline]
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads an unsigned LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for i in 0..10 {
            let byte = self.u8()?;
            let bits = (byte & 0x7f) as u64;
            if i == 9 && byte > 1 {
                return Err(WireError::VarintOverflow);
            }
            v |= bits << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow)
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        Ok(self.bytes_ref()?.to_vec())
    }

    /// Reads a length-prefixed byte blob, borrowed from the input. The
    /// zero-alloc decode paths use this to inspect keys/values in place.
    #[inline]
    pub fn bytes_ref(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.varint()?;
        if len as usize > MAX_FIELD_LEN {
            return Err(WireError::FieldTooLong { len });
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::InvalidUtf8)
    }

    /// The refusal of an enum tag (or a magic number) no variant of `what`
    /// has.
    pub fn bad_tag(&self, what: &'static str, tag: impl Into<u64>) -> WireError {
        WireError::BadDiscriminant {
            what,
            value: tag.into(),
        }
    }

    /// Reads a `T` that must be `want` (a magic number), refusing another.
    pub fn expect_value<T: Wire<'a> + PartialEq + Into<u64>>(
        &mut self,
        want: T,
        what: &'static str,
    ) -> Result<(), WireError> {
        let got = T::take(self)?;
        if got == want {
            Ok(())
        } else {
            Err(self.bad_tag(what, got))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = WireWriter::default();
        w.u8(0xAB);
        w.u16(0x1234);
        w.u32(0xDEADBEEF);
        w.u64(u64::MAX);
        w.u128(u128::MAX - 1);
        let bytes = w.buf;
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u128().unwrap(), u128::MAX - 1);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = WireWriter::default();
        w.u64(7);
        let bytes = w.buf;
        let mut r = WireReader::new(&bytes[..5]);
        assert_eq!(r.u64(), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = WireWriter::default();
        w.u8(1);
        w.u8(2);
        let bytes = w.buf;
        let mut r = WireReader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(
            r.expect_end(),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn string_utf8_enforced() {
        let mut w = WireWriter::default();
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.buf;
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.string(), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn oversize_length_rejected_without_allocation() {
        // Claim a 2^40-byte blob in a 3-byte message.
        let mut w = WireWriter::default();
        w.varint(1 << 40);
        let bytes = w.buf;
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.bytes(), Err(WireError::FieldTooLong { .. })));
    }

    #[test]
    fn varint_overlong_rejected() {
        let bytes = [0x80u8; 11];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.varint(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn varint_max_value_round_trips() {
        let mut w = WireWriter::default();
        w.varint(u64::MAX);
        let bytes = w.buf;
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.varint().unwrap(), u64::MAX);
    }

    proptest! {
        #[test]
        fn prop_varint_round_trips(v: u64) {
            let mut w = WireWriter::default();
            w.varint(v);
            let bytes = w.buf;
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(r.varint().unwrap(), v);
            r.expect_end().unwrap();
        }

        #[test]
        fn prop_blob_round_trips(data: Vec<u8>) {
            let mut w = WireWriter::default();
            w.bytes(&data);
            let bytes = w.buf;
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(r.bytes().unwrap(), data);
        }

        #[test]
        fn prop_string_round_trips(s: String) {
            let mut w = WireWriter::default();
            w.string(&s);
            let bytes = w.buf;
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(r.string().unwrap(), s);
        }

        #[test]
        fn prop_decoder_never_panics_on_garbage(data: Vec<u8>) {
            let mut r = WireReader::new(&data);
            // Whatever the bytes are, decoding returns Ok or Err, never panics.
            let _ = r.varint();
            let mut r2 = WireReader::new(&data);
            let _ = r2.bytes();
            let mut r3 = WireReader::new(&data);
            let _ = r3.string();
        }
    }
}
