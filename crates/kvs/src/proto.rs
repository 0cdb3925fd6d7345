//! The client↔KVS network protocol.
//!
//! One request or response per frame; requests carry a client-chosen id the
//! response echoes, so clients can pipeline.

use lastcpu_bus::wire::Wire;

/// A KVS request, borrowing its key and value from the frame payload.
///
/// The server decodes into this — zero allocations — and serves the request
/// from the frame it arrived in; one that must wait for storage-queue space is
/// kept as its encoding ([`Wire::encode_into`]), which is canonical:
/// decoding it yields this view again.
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
}

// Tag 3 was a delete, which no client sent; it is refused.
lastcpu_snap::variants! { wire lastcpu_bus::wire; KvsRequestRef<'a> {
    Get = 1 { id, key },
    Put = 2 { id, key, value },
} }

impl<'a> KvsRequestRef<'a> {
    /// The request id.
    pub fn id(&self) -> u64 {
        match self {
            KvsRequestRef::Get { id, .. } | KvsRequestRef::Put { id, .. } => *id,
        }
    }

    /// The key bytes.
    pub fn key(&self) -> &'a [u8] {
        match self {
            KvsRequestRef::Get { key, .. } | KvsRequestRef::Put { key, .. } => key,
        }
    }

    /// Decodes a view from frame payload bytes, allocation-free; `None` for
    /// bytes that are not exactly one request. Inherent, so a caller needs
    /// no `Wire` in scope.
    pub fn decode(buf: &'a [u8]) -> Option<KvsRequestRef<'a>> {
        Wire::decode(buf).ok()
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

lastcpu_bus::wire_tags!(KvsStatus else Error);

/// A KVS response, borrowing the value bytes from the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvsResponseRef<'a> {
    /// Echoed request id.
    pub id: u64,
    /// Outcome.
    pub status: KvsStatus,
    /// Value bytes (GET hits only), borrowed from the payload. A
    /// [`KvsStatus::Busy`] response carries the server's queue depth here
    /// ([`busy_depth`](Self::busy_depth)).
    pub value: &'a [u8],
}

lastcpu_snap::record!(wire lastcpu_bus::wire; KvsResponseRef<'a> { status, id, value });

impl<'a> KvsResponseRef<'a> {
    /// Decodes a view from frame payload bytes, allocation-free; `None` for
    /// bytes that are not exactly one response. Inherent, so a caller needs
    /// no `Wire` in scope.
    pub fn decode(buf: &'a [u8]) -> Option<KvsResponseRef<'a>> {
        Wire::decode(buf).ok()
    }

    /// The queue depth a [`KvsStatus::Busy`] response reported, if any: the
    /// backpressure signal a congestion-aware router scales its re-dispatch
    /// deferral by. Minimal Busy responses carry no payload; they read as
    /// `None` and callers fall back to a default backoff.
    pub fn busy_depth(&self) -> Option<u32> {
        if self.status != KvsStatus::Busy {
            return None;
        }
        let bytes: [u8; 4] = self.value.try_into().ok()?;
        Some(u32::from_le_bytes(bytes))
    }
}

/// Encodes a GET request straight into `buf` (appended), from a borrowed
/// key — the client's zero-alloc issue path.
pub fn encode_get_into(id: u64, key: &[u8], buf: &mut Vec<u8>) {
    KvsRequestRef::Get { id, key }.encode_into(buf);
}

/// Encodes a PUT request straight into `buf` (appended), from borrowed key
/// and value.
pub fn encode_put_into(id: u64, key: &[u8], value: &[u8], buf: &mut Vec<u8>) {
    KvsRequestRef::Put { id, key, value }.encode_into(buf);
}

/// Encodes a response straight into `buf` (appended, typically a buffer
/// drawn from the machine's payload pool) from a borrowed value. The
/// zero-alloc delivery path serializes every response through here.
pub fn encode_response_into(id: u64, status: KvsStatus, value: &[u8], buf: &mut Vec<u8>) {
    KvsResponseRef { id, status, value }.encode_into(buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            KvsRequestRef::Get { id: 7, key: b"k" },
            KvsRequestRef::Put {
                id: 8,
                key: b"k",
                value: b"v",
            },
        ] {
            assert_eq!(KvsRequestRef::decode(&req.encode()), Some(req));
        }
        // A delete was a get's layout under tag 3.
        let mut delete = KvsRequestRef::Get { id: 9, key: b"k" }.encode();
        delete[0] = 3;
        assert_eq!(KvsRequestRef::decode(&delete), None);
        assert_eq!(KvsRequestRef::decode(&[99]), None);
        assert_eq!(KvsRequestRef::decode(&[]), None);
    }

    #[test]
    fn id_accessor() {
        assert_eq!(KvsRequestRef::Get { id: 5, key: b"" }.id(), 5);
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
            ];
            for req in kinds {
                let enc = req.encode();
                assert_eq!(enc.len(), req.encoded_len());
                assert_eq!(enc.capacity(), enc.len(), "{req:?}");
            }
            let resp = KvsResponseRef {
                id: 4,
                status: KvsStatus::Ok,
                value: &value,
            };
            let enc = resp.encode();
            assert_eq!(enc.capacity(), enc.len(), "{resp:?}");
            assert_eq!(KvsResponseRef::decode(&enc), Some(resp));
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
            let resp = KvsResponseRef {
                id: 42,
                status,
                value: b"value",
            };
            assert_eq!(KvsResponseRef::decode(&resp.encode()), Some(resp));
        }
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
            kind in 1u8..3,
            id in proptest::prelude::any::<u64>(),
            key in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
            value in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            pad in proptest::prelude::any::<bool>(),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24),
        ) {
            let req = match kind {
                1 => KvsRequestRef::Get { id, key: &key },
                _ => KvsRequestRef::Put { id, key: &key, value: &value },
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

        /// A response decodes from its own encoding and from no truncation
        /// of it, whatever its status tag (an unknown one reads as `Error`);
        /// noise that decodes re-encodes to the bytes it came from, less an
        /// unknown status.
        #[test]
        fn prop_response_decodes_only_whole_frames(
            status in 0u8..6,
            id in proptest::prelude::any::<u64>(),
            value in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..40),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24),
        ) {
            let status = KvsStatus::from_tag(status).unwrap_or(KvsStatus::Error);
            let resp = KvsResponseRef { id, status, value: &value };
            let frame = resp.encode();
            proptest::prop_assert_eq!(KvsResponseRef::decode(&frame), Some(resp));
            for cut in 0..frame.len() {
                proptest::prop_assert_eq!(KvsResponseRef::decode(&frame[..cut]), None);
            }
            if let Some(r) = KvsResponseRef::decode(&noise) {
                proptest::prop_assert_eq!(&r.encode()[1..], &noise[1..]);
            }
        }
    }

    #[test]
    fn into_buffer_encoders_are_wire_identical() {
        let mut buf = vec![0xee];
        encode_get_into(11, b"key", &mut buf);
        assert_eq!(
            buf[1..],
            KvsRequestRef::Get {
                id: 11,
                key: b"key"
            }
            .encode()
        );
        buf.truncate(1);
        encode_put_into(12, b"key", b"value", &mut buf);
        let put = KvsRequestRef::Put {
            id: 12,
            key: b"key",
            value: b"value",
        };
        assert_eq!(buf[1..], put.encode());
        buf.truncate(1);
        encode_response_into(13, KvsStatus::NotFound, b"", &mut buf);
        let resp = KvsResponseRef {
            id: 13,
            status: KvsStatus::NotFound,
            value: b"",
        };
        assert_eq!(buf[1..], resp.encode());
    }

    #[test]
    fn busy_depth_round_trips() {
        let depth = 513u32.to_le_bytes();
        let busy = KvsResponseRef {
            id: 7,
            status: KvsStatus::Busy,
            value: &depth,
        };
        let wire = busy.encode();
        assert_eq!(
            KvsResponseRef::decode(&wire).unwrap().busy_depth(),
            Some(513)
        );
        // An empty-payload Busy and a non-Busy response report no depth.
        let empty = KvsResponseRef { value: b"", ..busy };
        assert_eq!(empty.busy_depth(), None);
        let ok = KvsResponseRef {
            status: KvsStatus::Ok,
            ..busy
        };
        assert_eq!(ok.busy_depth(), None);
    }
}
