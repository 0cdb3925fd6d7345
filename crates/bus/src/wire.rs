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
/// `encoded_len` is what `put` writes, counted without writing. A payload's
/// layout is declared once (`lastcpu_snap::variants!`) and all three follow
/// from it.
pub trait Wire: Sized {
    /// Writes the value.
    fn put(&self, w: &mut WireWriter);
    /// Reads a value back.
    fn take(r: &mut WireReader<'_>) -> Result<Self, WireError>;
    /// Bytes [`put`](Self::put) writes.
    fn encoded_len(&self) -> usize;
}

macro_rules! fixed {
    ($($t:ident: $n:literal),*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut WireWriter) {
                w.$t(*self);
            }
            fn take(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$t()
            }
            fn encoded_len(&self) -> usize {
                $n
            }
        }
    )*};
}

fixed!(u8: 1, u16: 2, u32: 4, u64: 8, u128: 16);

impl Wire for Vec<u8> {
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

impl Wire for String {
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

impl Wire for Arc<str> {
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

/// Append-only encoder.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer with room for `n` bytes: an encoder that knows its message's
    /// encoded length allocates once instead of growing.
    pub fn with_capacity(n: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(n),
        }
    }

    /// A writer that appends into `buf` (typically a recycled pool buffer),
    /// so hot-path encoders reuse storage instead of allocating per message.
    pub fn with_buf(buf: Vec<u8>) -> Self {
        WireWriter { buf }
    }

    /// Finishes encoding, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an unsigned LEB128 varint.
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
    pub fn bytes(&mut self, b: &[u8]) {
        self.varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Writes a boolean as one byte.
    pub fn boolean(&mut self, v: bool) {
        self.u8(v as u8);
    }
}

/// Cursor-based decoder.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps `buf` for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every input byte was consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("len 16"),
        ))
    }

    /// Reads an unsigned LEB128 varint.
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

    /// The refusal of an enum tag no variant of `what` has.
    pub fn bad_tag(&self, what: &'static str, tag: u8) -> WireError {
        WireError::BadDiscriminant {
            what,
            value: tag as u64,
        }
    }

    /// Reads a boolean byte (strictly 0 or 1).
    pub fn boolean(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError::BadDiscriminant {
                what: "bool",
                value: v as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = WireWriter::new();
        w.u8(0xAB);
        w.u16(0x1234);
        w.u32(0xDEADBEEF);
        w.u64(u64::MAX);
        w.u128(u128::MAX - 1);
        w.boolean(true);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u128().unwrap(), u128::MAX - 1);
        assert!(r.boolean().unwrap());
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = WireWriter::new();
        w.u64(7);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes[..5]);
        assert_eq!(r.u64(), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = WireWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(
            r.expect_end(),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn string_utf8_enforced() {
        let mut w = WireWriter::new();
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.string(), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn oversize_length_rejected_without_allocation() {
        // Claim a 2^40-byte blob in a 3-byte message.
        let mut w = WireWriter::new();
        w.varint(1 << 40);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.bytes(), Err(WireError::FieldTooLong { .. })));
    }

    #[test]
    fn bool_is_strict() {
        let mut r = WireReader::new(&[2]);
        assert!(matches!(
            r.boolean(),
            Err(WireError::BadDiscriminant { .. })
        ));
    }

    #[test]
    fn varint_overlong_rejected() {
        let bytes = [0x80u8; 11];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.varint(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn varint_max_value_round_trips() {
        let mut w = WireWriter::new();
        w.varint(u64::MAX);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.varint().unwrap(), u64::MAX);
    }

    proptest! {
        #[test]
        fn prop_varint_round_trips(v: u64) {
            let mut w = WireWriter::new();
            w.varint(v);
            let bytes = w.finish();
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(r.varint().unwrap(), v);
            r.expect_end().unwrap();
        }

        #[test]
        fn prop_blob_round_trips(data: Vec<u8>) {
            let mut w = WireWriter::new();
            w.bytes(&data);
            let bytes = w.finish();
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(r.bytes().unwrap(), data);
        }

        #[test]
        fn prop_string_round_trips(s: String) {
            let mut w = WireWriter::new();
            w.string(&s);
            let bytes = w.finish();
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
