//! The client↔KVS network protocol.
//!
//! One request or response per frame; requests carry a client-chosen id the
//! response echoes, so clients can pipeline.

use lastcpu_bus::wire::{field_len, WireReader, WireWriter};

/// A KVS request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvsRequest {
    /// Fetch a value.
    Get {
        /// Request id echoed in the response.
        id: u64,
        /// The key.
        key: Vec<u8>,
    },
    /// Insert or update a value.
    Put {
        /// Request id echoed in the response.
        id: u64,
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// Remove a key.
    Delete {
        /// Request id echoed in the response.
        id: u64,
        /// The key.
        key: Vec<u8>,
    },
}

impl KvsRequest {
    /// The request id.
    pub fn id(&self) -> u64 {
        match self {
            KvsRequest::Get { id, .. }
            | KvsRequest::Put { id, .. }
            | KvsRequest::Delete { id, .. } => *id,
        }
    }

    /// The request as a view borrowing its key and value.
    pub fn borrowed(&self) -> KvsRequestRef<'_> {
        match self {
            KvsRequest::Get { id, key } => KvsRequestRef::Get { id: *id, key },
            KvsRequest::Put { id, key, value } => KvsRequestRef::Put {
                id: *id,
                key,
                value,
            },
            KvsRequest::Delete { id, key } => KvsRequestRef::Delete { id: *id, key },
        }
    }

    /// Encodes to frame payload bytes (see [`KvsRequestRef::encode`]).
    pub fn encode(&self) -> Vec<u8> {
        self.borrowed().encode()
    }

    /// Decodes from frame payload bytes.
    pub fn decode(buf: &[u8]) -> Option<KvsRequest> {
        KvsRequestRef::decode(buf).map(|r| r.to_owned())
    }
}

/// A decoded request view borrowing key/value bytes from the frame payload.
///
/// The server decodes into this — zero allocations — and serves the request
/// from the frame it arrived in; one that must wait for storage-queue space is
/// kept as its encoding ([`KvsRequestRef::encode_into`]), which is canonical:
/// decoding it yields this view again. [`KvsRequestRef::to_owned`] is for
/// callers that keep a request beyond its frame in decoded form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvsRequestRef<'a> {
    /// Fetch a value.
    Get {
        /// Request id echoed in the response.
        id: u64,
        /// The key, borrowed from the payload.
        key: &'a [u8],
    },
    /// Insert or update a value.
    Put {
        /// Request id echoed in the response.
        id: u64,
        /// The key, borrowed from the payload.
        key: &'a [u8],
        /// The value, borrowed from the payload.
        value: &'a [u8],
    },
    /// Remove a key.
    Delete {
        /// Request id echoed in the response.
        id: u64,
        /// The key, borrowed from the payload.
        key: &'a [u8],
    },
}

impl<'a> KvsRequestRef<'a> {
    /// The request id.
    pub fn id(&self) -> u64 {
        match self {
            KvsRequestRef::Get { id, .. }
            | KvsRequestRef::Put { id, .. }
            | KvsRequestRef::Delete { id, .. } => *id,
        }
    }

    /// The key bytes.
    pub fn key(&self) -> &'a [u8] {
        match self {
            KvsRequestRef::Get { key, .. }
            | KvsRequestRef::Put { key, .. }
            | KvsRequestRef::Delete { key, .. } => key,
        }
    }

    /// Size of the encoding, without producing it.
    pub fn encoded_len(&self) -> usize {
        let value = match self {
            KvsRequestRef::Put { value, .. } => field_len(value.len()),
            _ => 0,
        };
        1 + 8 + field_len(self.key().len()) + value
    }

    /// Encodes to frame payload bytes, allocated once at their exact size.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the encoding to `buf` (typically a pooled buffer).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut w = WireWriter::with_buf(std::mem::take(buf));
        match *self {
            KvsRequestRef::Get { id, key } => {
                w.u8(1);
                w.u64(id);
                w.bytes(key);
            }
            KvsRequestRef::Put { id, key, value } => {
                w.u8(2);
                w.u64(id);
                w.bytes(key);
                w.bytes(value);
            }
            KvsRequestRef::Delete { id, key } => {
                w.u8(3);
                w.u64(id);
                w.bytes(key);
            }
        }
        *buf = w.finish();
    }

    /// Decodes a borrowed view from frame payload bytes, allocation-free.
    pub fn decode(buf: &'a [u8]) -> Option<KvsRequestRef<'a>> {
        let mut r = WireReader::new(buf);
        let req = match r.u8().ok()? {
            1 => KvsRequestRef::Get {
                id: r.u64().ok()?,
                key: r.bytes_ref().ok()?,
            },
            2 => KvsRequestRef::Put {
                id: r.u64().ok()?,
                key: r.bytes_ref().ok()?,
                value: r.bytes_ref().ok()?,
            },
            3 => KvsRequestRef::Delete {
                id: r.u64().ok()?,
                key: r.bytes_ref().ok()?,
            },
            _ => return None,
        };
        r.expect_end().ok()?;
        Some(req)
    }

    /// Copies the borrowed fields into an owned [`KvsRequest`].
    pub fn to_owned(self) -> KvsRequest {
        match self {
            KvsRequestRef::Get { id, key } => KvsRequest::Get {
                id,
                key: key.to_vec(),
            },
            KvsRequestRef::Put { id, key, value } => KvsRequest::Put {
                id,
                key: key.to_vec(),
                value: value.to_vec(),
            },
            KvsRequestRef::Delete { id, key } => KvsRequest::Delete {
                id,
                key: key.to_vec(),
            },
        }
    }
}

/// Response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvsStatus {
    /// Success (GETs carry the value).
    Ok,
    /// Key not found.
    NotFound,
    /// Server temporarily overloaded (client should back off/retry).
    Busy,
    /// Server-side failure (storage error, oversized request...).
    Error,
    /// Server lost a backing resource (SSD session, memory grant) and is
    /// re-running discovery/recovery. Unlike [`KvsStatus::Error`] this is an
    /// explicit degradation signal: the request was *not* attempted and the
    /// client should retry after the server re-initialises (§ failure model).
    Unavailable,
}

lastcpu_snap::tags! { KvsStatus { Ok = 0, NotFound = 1, Busy = 2, Error = 3, Unavailable = 4 } }

impl KvsStatus {
    fn to_u8(self) -> u8 {
        self.tag()
    }

    /// The wire is lenient: a tag no status has reads as `Error` (fault
    /// injection corrupts frames, and what they decode to is part of the
    /// record). A checkpoint refuses it.
    fn from_u8(v: u8) -> KvsStatus {
        KvsStatus::from_tag(v).unwrap_or(KvsStatus::Error)
    }
}

/// A KVS response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvsResponse {
    /// Echoed request id.
    pub id: u64,
    /// Outcome.
    pub status: KvsStatus,
    /// Value bytes (GET hits only).
    pub value: Vec<u8>,
}

impl KvsResponse {
    /// Builds a [`KvsStatus::Busy`] response carrying the server's current
    /// queue depth (backlog + in-flight) in the value bytes. The depth is
    /// the backpressure signal: a congestion-aware router scales its
    /// re-dispatch deferral by it instead of retrying blind.
    pub fn busy(id: u64, depth: u32) -> KvsResponse {
        KvsResponse {
            id,
            status: KvsStatus::Busy,
            value: depth.to_le_bytes().to_vec(),
        }
    }

    /// The queue depth a [`KvsStatus::Busy`] response reported, if any.
    /// Older/minimal Busy responses carry no payload; they read as `None`
    /// and callers fall back to a default backoff.
    pub fn busy_depth(&self) -> Option<u32> {
        if self.status != KvsStatus::Busy {
            return None;
        }
        let bytes: [u8; 4] = self.value.as_slice().try_into().ok()?;
        Some(u32::from_le_bytes(bytes))
    }

    /// Encodes to frame payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        encode_response(self.id, self.status, &self.value)
    }

    /// Decodes from frame payload bytes.
    pub fn decode(buf: &[u8]) -> Option<KvsResponse> {
        KvsResponseRef::decode(buf).map(|r| KvsResponse {
            id: r.id,
            status: r.status,
            value: r.value.to_vec(),
        })
    }
}

/// A decoded response view borrowing the value bytes from the payload.
/// Clients that only inspect the value (or ignore it) decode through this
/// without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvsResponseRef<'a> {
    /// Echoed request id.
    pub id: u64,
    /// Outcome.
    pub status: KvsStatus,
    /// Value bytes (GET hits only), borrowed from the payload.
    pub value: &'a [u8],
}

impl<'a> KvsResponseRef<'a> {
    /// Decodes a borrowed view from frame payload bytes, allocation-free.
    pub fn decode(buf: &'a [u8]) -> Option<KvsResponseRef<'a>> {
        let mut r = WireReader::new(buf);
        let status = KvsStatus::from_u8(r.u8().ok()?);
        let id = r.u64().ok()?;
        let value = r.bytes_ref().ok()?;
        r.expect_end().ok()?;
        Some(KvsResponseRef { id, status, value })
    }

    /// The queue depth a [`KvsStatus::Busy`] response reported, if any
    /// (see [`KvsResponse::busy_depth`]).
    pub fn busy_depth(&self) -> Option<u32> {
        if self.status != KvsStatus::Busy {
            return None;
        }
        let bytes: [u8; 4] = self.value.try_into().ok()?;
        Some(u32::from_le_bytes(bytes))
    }
}

/// Encodes a GET request straight into `buf` (appended), from a borrowed
/// key — the client's zero-alloc issue path. Wire-identical to
/// `KvsRequest::Get { id, key }.encode()`.
pub fn encode_get_into(id: u64, key: &[u8], buf: &mut Vec<u8>) {
    KvsRequestRef::Get { id, key }.encode_into(buf);
}

/// Encodes a PUT request straight into `buf` (appended), from borrowed key
/// and value. Wire-identical to `KvsRequest::Put { .. }.encode()`.
pub fn encode_put_into(id: u64, key: &[u8], value: &[u8], buf: &mut Vec<u8>) {
    KvsRequestRef::Put { id, key, value }.encode_into(buf);
}

/// Encodes a response directly from a borrowed value, without building a
/// [`KvsResponse`] first. The server's cache-hit fast path uses this to
/// serialize straight out of the value cache — no intermediate copy of the
/// value bytes.
pub fn encode_response(id: u64, status: KvsStatus, value: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + 8 + field_len(value.len()));
    encode_response_into(id, status, value, &mut buf);
    buf
}

/// Like [`encode_response`], but appends into a caller-supplied buffer
/// (typically drawn from the machine's payload pool). The zero-alloc
/// delivery path serializes every response through here.
pub fn encode_response_into(id: u64, status: KvsStatus, value: &[u8], buf: &mut Vec<u8>) {
    let mut w = WireWriter::with_buf(std::mem::take(buf));
    w.u8(status.to_u8());
    w.u64(id);
    w.bytes(value);
    *buf = w.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            KvsRequest::Get {
                id: 7,
                key: b"k".to_vec(),
            },
            KvsRequest::Put {
                id: 8,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
            KvsRequest::Delete {
                id: 9,
                key: b"k".to_vec(),
            },
        ] {
            assert_eq!(KvsRequest::decode(&req.encode()), Some(req));
        }
        assert_eq!(KvsRequest::decode(&[99]), None);
        assert_eq!(KvsRequest::decode(&[]), None);
    }

    /// Every encoder that returns a fresh buffer sizes it once: no growth,
    /// no slack — also across the 1- to 2-byte length-prefix boundary.
    #[test]
    fn encoders_allocate_exactly_their_length() {
        for n in [0usize, 1, 127, 128, 1024] {
            let (key, value) = (vec![7u8; n], vec![9u8; 2 * n]);
            let kinds = [
                KvsRequestRef::Get { id: 1, key: &key },
                KvsRequestRef::Put {
                    id: 2,
                    key: &key,
                    value: &value,
                },
                KvsRequestRef::Delete { id: 3, key: &key },
            ];
            for req in kinds {
                let enc = req.to_owned().encode();
                assert_eq!(enc.len(), req.encoded_len());
                assert_eq!(enc.capacity(), enc.len(), "{req:?}");
            }
            for resp in [
                KvsResponse {
                    id: 4,
                    status: KvsStatus::Ok,
                    value,
                },
                KvsResponse::busy(5, n as u32),
            ] {
                let enc = resp.encode();
                assert_eq!(enc.capacity(), enc.len(), "{resp:?}");
                assert_eq!(KvsResponse::decode(&enc), Some(resp));
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        for status in [
            KvsStatus::Ok,
            KvsStatus::NotFound,
            KvsStatus::Busy,
            KvsStatus::Error,
            KvsStatus::Unavailable,
        ] {
            let resp = KvsResponse {
                id: 42,
                status,
                value: b"value".to_vec(),
            };
            assert_eq!(KvsResponse::decode(&resp.encode()), Some(resp));
        }
    }

    #[test]
    fn id_accessor() {
        assert_eq!(KvsRequest::Get { id: 5, key: vec![] }.id(), 5);
    }

    #[test]
    fn borrowed_views_agree_with_owned_decode() {
        let reqs = [
            KvsRequest::Get {
                id: 7,
                key: b"k1".to_vec(),
            },
            KvsRequest::Put {
                id: 8,
                key: b"k2".to_vec(),
                value: b"v".to_vec(),
            },
            KvsRequest::Delete {
                id: 9,
                key: b"k3".to_vec(),
            },
        ];
        for req in reqs {
            let wire = req.encode();
            let view = KvsRequestRef::decode(&wire).unwrap();
            assert_eq!(view.to_owned(), req);
            assert_eq!(view.id(), req.id());
        }
        let resp = KvsResponse {
            id: 3,
            status: KvsStatus::Ok,
            value: b"val".to_vec(),
        };
        let wire = resp.encode();
        let view = KvsResponseRef::decode(&wire).unwrap();
        assert_eq!(view.id, 3);
        assert_eq!(view.status, KvsStatus::Ok);
        assert_eq!(view.value, b"val");
        let busy = KvsResponse::busy(4, 77).encode();
        assert_eq!(
            KvsResponseRef::decode(&busy).unwrap().busy_depth(),
            Some(77)
        );
    }

    proptest::proptest! {
        /// What lets the server's backlog hold wire bytes instead of owned
        /// requests: a request's encoding is canonical. Whatever bytes
        /// decode — the encoder's own, any truncation, noise, a length
        /// prefix padded with continuation bytes — re-encode to one fixed
        /// point that decodes to the same request, and the encoder's own
        /// bytes are that fixed point.
        #[test]
        fn prop_request_encoding_is_canonical(
            kind in 1u8..4,
            id in proptest::prelude::any::<u64>(),
            key in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
            value in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            pad in proptest::prelude::any::<bool>(),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24),
        ) {
            let req = match kind {
                1 => KvsRequestRef::Get { id, key: &key },
                2 => KvsRequestRef::Put { id, key: &key, value: &value },
                _ => KvsRequestRef::Delete { id, key: &key },
            };
            let wire = req.encode();
            proptest::prop_assert_eq!(wire.len(), req.encoded_len());
            proptest::prop_assert_eq!(KvsRequestRef::decode(&wire), Some(req));
            let mut frames = vec![wire.clone(), noise];
            if pad && key.len() < 128 {
                // The key's one-byte length prefix, written in two.
                let mut padded = wire.clone();
                padded[9] |= 0x80;
                padded.insert(10, 0);
                proptest::prop_assert_eq!(KvsRequestRef::decode(&padded), Some(req));
                frames.push(padded);
            }
            frames.extend((0..wire.len()).map(|cut| wire[..cut].to_vec()));
            for frame in frames {
                let Some(decoded) = KvsRequestRef::decode(&frame) else { continue };
                let again = decoded.encode();
                proptest::prop_assert_eq!(KvsRequestRef::decode(&again), Some(decoded));
                if frame == wire {
                    proptest::prop_assert_eq!(&again, &wire);
                }
            }
        }

        /// Owned and borrowed response decoders accept and refuse the same
        /// bytes: arbitrary input, a valid frame, and every truncation of it.
        #[test]
        fn prop_response_decoders_agree(
            status in 0u8..6,
            id in proptest::prelude::any::<u64>(),
            value in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..40),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24),
        ) {
            let owned = |b: &[u8]| KvsResponse::decode(b);
            let borrowed = |b: &[u8]| {
                KvsResponseRef::decode(b).map(|r| KvsResponse {
                    id: r.id,
                    status: r.status,
                    value: r.value.to_vec(),
                })
            };
            let frame = encode_response(id, KvsStatus::from_u8(status), &value);
            proptest::prop_assert!(owned(&frame).is_some());
            for cut in 0..=frame.len() {
                proptest::prop_assert_eq!(owned(&frame[..cut]), borrowed(&frame[..cut]));
            }
            proptest::prop_assert_eq!(owned(&noise), borrowed(&noise));
        }
    }

    #[test]
    fn into_buffer_encoders_are_wire_identical() {
        let mut buf = Vec::new();
        encode_get_into(11, b"key", &mut buf);
        assert_eq!(
            buf,
            KvsRequest::Get {
                id: 11,
                key: b"key".to_vec()
            }
            .encode()
        );
        buf.clear();
        encode_put_into(12, b"key", b"value", &mut buf);
        assert_eq!(
            buf,
            KvsRequest::Put {
                id: 12,
                key: b"key".to_vec(),
                value: b"value".to_vec()
            }
            .encode()
        );
        buf.clear();
        encode_response_into(13, KvsStatus::NotFound, b"", &mut buf);
        assert_eq!(buf, encode_response(13, KvsStatus::NotFound, b""));
    }

    #[test]
    fn busy_depth_round_trips() {
        let resp = KvsResponse::busy(7, 513);
        assert_eq!(resp.status, KvsStatus::Busy);
        assert_eq!(resp.busy_depth(), Some(513));
        let wire = KvsResponse::decode(&resp.encode()).unwrap();
        assert_eq!(wire.busy_depth(), Some(513));
        // Legacy empty-payload Busy and non-Busy responses report no depth.
        let legacy = KvsResponse {
            id: 7,
            status: KvsStatus::Busy,
            value: vec![],
        };
        assert_eq!(legacy.busy_depth(), None);
        let ok = KvsResponse {
            id: 7,
            status: KvsStatus::Ok,
            value: 9u32.to_le_bytes().to_vec(),
        };
        assert_eq!(ok.busy_depth(), None);
    }
}
