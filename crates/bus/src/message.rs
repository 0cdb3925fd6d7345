//! The bus protocol vocabulary.
//!
//! Every control-plane interaction in the CPU-less system is one of these
//! messages. The set is the concrete spelling of the paper's contribution
//! (1): the functions an OS must perform in a CPU-less system, as protocol.
//!
//! | Group | Messages | Paper reference |
//! |---|---|---|
//! | Lifecycle | `Hello`, `HelloAck`, `Heartbeat` | §2.2 "System Initialization" |
//! | Discovery | `Announce`, `Withdraw`, `Query`, `QueryHit` | §2.2 (SSDP analogy) |
//! | Sessions | `OpenRequest/Response`, `CloseRequest/Response` | §3 steps 3–4 |
//! | Memory | `MemAlloc`, `MemFree`, `Share`, + responses | §3 steps 5–7 |
//! | Privileged | `RegisterController`, `MapInstruction`, `MapComplete` | §2.2 "Address Translation" |
//! | Notify | `Doorbell`, `ErrorNotify`, `DeviceFailed` | §2.3, §4 |

use std::sync::Arc;

use crate::ids::{ConnId, DeviceId, RequestId, ServiceId, Token};
use crate::wire::{frame_check, Wire, WireError, WireReader, WireWriter};
use lastcpu_sim::CorrId;

/// Message destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dst {
    /// One device.
    Device(DeviceId),
    /// The bus itself (privileged requests, registration).
    Bus,
    /// All registered devices (discovery queries, failure notices).
    Broadcast,
}

/// Result status carried in responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success.
    Ok,
    /// Authorization failed.
    Denied,
    /// No such service/file/connection.
    NotFound,
    /// Resource exhausted (memory, contexts, queue slots).
    NoResources,
    /// The request was malformed or violated protocol.
    BadRequest,
    /// The operation was attempted and failed.
    Failed,
}

impl Status {
    /// Whether this status reports success.
    pub fn is_ok(self) -> bool {
        self == Status::Ok
    }
}

/// Classes of resources a controller can own (§2.1: "physical memory, FPGA
/// blocks, GPU cores, storage space, etc.").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Physical DRAM. Controller: the memory-controller device.
    Memory,
    /// Persistent storage.
    Storage,
    /// Network ports.
    Network,
    /// Programmable compute (FPGA regions, GPU cores).
    Compute,
}

/// Error classes for [`Payload::ErrorNotify`], following the paper's §4
/// error taxonomy. Resource failures, translation faults and auth denials
/// travel as other messages (an IOMMU fault to the device, an
/// `OpenResponse` with [`Status::Denied`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// A service context was reset; consumers must reconnect.
    ServiceReset,
    /// An entire device failed (broadcast by the bus).
    DeviceFailed,
    /// Protocol violation.
    Protocol,
}

/// Mapping operation carried by a [`Payload::MapInstruction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOp {
    /// Install translations.
    Map,
    /// Remove translations.
    Unmap,
}

/// A service descriptor, as announced to the bus directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceDesc {
    /// Device-local service id.
    pub id: ServiceId,
    /// Hierarchical service name, e.g. `"file:/data/kv.db"`, `"memory"`,
    /// `"loader"`, `"auth"`, `"kvs:frontend"`.
    pub name: String,
    /// The resource class this service exposes.
    pub resource: ResourceKind,
}

/// The protocol payload.
///
/// `params`/`detail` blobs are opaque to the bus (the bus carries no policy
/// and inspects nothing it does not need); their schema belongs to the
/// endpoint services.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    // --- Lifecycle ---------------------------------------------------
    /// Device announces itself after passing self-test.
    Hello {
        /// Human-readable device name, e.g. `"nic0"`.
        name: String,
        /// Device kind, e.g. `"smart-nic"`.
        kind: String,
    },
    /// Bus acknowledges registration and assigns the bus address.
    HelloAck {
        /// The address the device must use as `src` from now on.
        assigned: DeviceId,
    },
    /// Periodic liveness beacon.
    Heartbeat,

    // --- Discovery ----------------------------------------------------
    /// Device publishes a service into the bus directory.
    Announce {
        /// The service being published.
        service: ServiceDesc,
    },
    /// Device withdraws a previously announced service.
    Withdraw {
        /// The device-local id of the withdrawn service.
        service: ServiceId,
    },
    /// Discovery query (broadcast or to the bus directory). `pattern` is an
    /// exact name or a prefix ending in `*`.
    Query {
        /// Name pattern to match. A shared handle: the bus re-broadcasts
        /// the sender's text and the trace names it without copying.
        pattern: Arc<str>,
    },
    /// Discovery answer.
    QueryHit {
        /// Device offering the service.
        device: DeviceId,
        /// Matching service descriptor.
        service: ServiceDesc,
    },

    // --- Service sessions ----------------------------------------------
    /// Open a connection (isolated context) to a service (§3 step 3).
    OpenRequest {
        /// Target service on the destination device.
        service: ServiceId,
        /// Authorization token.
        token: Token,
        /// Service-specific parameters.
        params: Vec<u8>,
    },
    /// Connection response (§3 step 4), including how much shared memory the
    /// service requires for its queues.
    OpenResponse {
        /// Outcome.
        status: Status,
        /// Connection id (valid when `status` is `Ok`).
        conn: ConnId,
        /// Shared-memory bytes the service needs for this connection.
        shm_bytes: u64,
        /// Service-specific response parameters.
        params: Vec<u8>,
    },
    /// Close a connection.
    CloseRequest {
        /// Connection to close.
        conn: ConnId,
    },
    /// Close acknowledgement.
    CloseResponse {
        /// Outcome.
        status: Status,
    },

    // --- Memory (device -> memory controller) ---------------------------
    /// Allocate physical memory and map it at `va` in the requester's
    /// address space (§3 step 5).
    MemAlloc {
        /// Address space the mapping belongs to.
        pasid: u32,
        /// Requested virtual base (page-aligned).
        va: u64,
        /// Bytes to allocate (rounded up to pages).
        bytes: u64,
        /// Permission bits (1=R, 2=W, 4=X).
        perms: u8,
    },
    /// Allocation response carrying an opaque region handle.
    MemAllocResponse {
        /// Outcome.
        status: Status,
        /// Region handle for later `Share`/`MemFree` (valid on `Ok`).
        region: u64,
    },
    /// Release a region.
    MemFree {
        /// The region to release.
        region: u64,
    },
    /// Free acknowledgement.
    MemFreeResponse {
        /// Outcome.
        status: Status,
    },
    /// Ask the memory controller to extend an existing region's mapping to
    /// another device (§3 step 7: "grant access to the shared memory to the
    /// SSD"). Only the region's owner may share it.
    Share {
        /// Region to share.
        region: u64,
        /// Device that should gain access.
        target: DeviceId,
        /// Address space on the target side.
        pasid: u32,
        /// Virtual base in that address space.
        va: u64,
        /// Permission bits granted to the target.
        perms: u8,
    },
    /// Share acknowledgement.
    ShareResponse {
        /// Outcome.
        status: Status,
    },

    // --- Privileged (resource controller <-> bus) -----------------------
    /// A device claims controllership of a resource class. The bus accepts
    /// the first claim per class and denies the rest.
    RegisterController {
        /// Resource class being claimed.
        resource: ResourceKind,
    },
    /// Generic acknowledgement for bus-directed requests.
    BusAck {
        /// Outcome.
        status: Status,
    },
    /// Controller instructs the bus to program a device's IOMMU. This is
    /// the **only** message that carries physical addresses, and the bus
    /// accepts it **only** from the registered controller of `resource`
    /// (§2.2: "the system bus updates the page tables of a device only when
    /// it is instructed to do so by the controller of that particular
    /// resource").
    MapInstruction {
        /// Resource class authorizing this mapping.
        resource: ResourceKind,
        /// Map or unmap.
        op: MapOp,
        /// Device whose IOMMU is programmed.
        device: DeviceId,
        /// Address space on that device.
        pasid: u32,
        /// Virtual base (page-aligned).
        va: u64,
        /// Physical base (page-aligned; ignored for unmap).
        pa: u64,
        /// Number of 4 KiB pages.
        pages: u64,
        /// Permission bits (ignored for unmap).
        perms: u8,
    },
    /// Bus tells a device that a mapping in its IOMMU changed (§3 step 6
    /// completion signal).
    MapComplete {
        /// Outcome.
        status: Status,
        /// Virtual base of the affected range.
        va: u64,
        /// Pages affected.
        pages: u64,
    },

    // --- Notifications & errors -----------------------------------------
    /// A doorbell: "data ready / look at the queue" (§2.3 "Notifications").
    Doorbell {
        /// Connection the doorbell belongs to.
        conn: ConnId,
        /// Implementation-defined value (e.g. queue index).
        value: u64,
    },
    /// An error notification between devices (§4 "Error Handling").
    ErrorNotify {
        /// Error class.
        code: ErrorCode,
        /// Affected connection (0 when not applicable).
        conn: ConnId,
        /// Human-readable detail.
        detail: String,
    },
    /// Bus broadcast: a device died; consumers of its resources must
    /// recover (§4: "the resource bus must send messages to all other
    /// devices in the system that may be using a resource of the failed
    /// device").
    DeviceFailed {
        /// The dead device.
        device: DeviceId,
    },
    /// Opaque application data carried over the *control* plane.
    ///
    /// The CPU-less design never uses this — bulk data belongs in shared
    /// memory (§2.2/§2.3). It exists for the centralized baseline, where a
    /// traditional kernel moves packets and I/O buffers through itself, and
    /// for the conflated-planes experiment that measures why that is a bad
    /// idea.
    AppData {
        /// Connection/context the data belongs to (0 when N/A).
        conn: ConnId,
        /// The bytes.
        data: Vec<u8>,
    },
}

/// A routed message: source, destination, request id, causal correlation
/// id, payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sender's bus address.
    pub src: DeviceId,
    /// Destination.
    pub dst: Dst,
    /// Request id; responses echo the request's id.
    pub req: RequestId,
    /// Causal correlation id: the activity this message belongs to.
    ///
    /// Allocated at the root of an activity (device start, host timer) and
    /// propagated through every message, reply, broadcast, and IOMMU
    /// programming it causes, so a trace filtered by one `CorrId` replays an
    /// end-to-end operation (e.g. nic → bus → ssd → iommu) as one span.
    pub corr: CorrId,
    /// The message.
    pub payload: Payload,
}

impl Envelope {
    /// Encoded size in bytes, computed **without** materializing the frame.
    ///
    /// The routing hot path only needs the wire size (for serialization-cost
    /// and link-occupancy accounting); encoding every message just to call
    /// `.len()` on the buffer was one allocation + full payload copy per
    /// routed message. The payload's length comes from the same declaration
    /// as its encoder; `encoded_len_matches_encode_for_all_variants` locks
    /// the two together.
    pub fn encoded_len(&self) -> usize {
        Wire::encoded_len(self) + 4
    }

    /// Encodes to the wire format. The frame ends with a 4-byte frame check
    /// sequence over the body (see [`frame_check`]); corruption in flight is
    /// detected at decode and the frame dropped rather than misparsed.
    pub fn encode(&self) -> Vec<u8> {
        let _prof = lastcpu_sim::profile::span("bus.encode");
        let mut bytes = Vec::with_capacity(self.encoded_len());
        Wire::encode_into(self, &mut bytes);
        let fcs = frame_check(&bytes);
        bytes.extend_from_slice(&fcs.to_le_bytes());
        bytes
    }

    /// Decodes from the wire format, requiring the buffer to hold exactly
    /// one message and its frame check sequence.
    pub fn decode(buf: &[u8]) -> Result<Envelope, WireError> {
        let _prof = lastcpu_sim::profile::span("bus.decode");
        let Some(body_len) = buf.len().checked_sub(4) else {
            return Err(WireError::Truncated);
        };
        let (body, fcs) = buf.split_at(body_len);
        let expected = u32::from_le_bytes(fcs.try_into().expect("len 4"));
        let actual = frame_check(body);
        if expected != actual {
            return Err(WireError::ChecksumMismatch { expected, actual });
        }
        Wire::decode(body)
    }
}

lastcpu_snap::tags! { Status {
    Ok = 0, Denied = 1, NotFound = 2, NoResources = 3, BadRequest = 5, Failed = 6,
} }

lastcpu_snap::tags! { ResourceKind { Memory = 0, Storage = 1, Network = 2, Compute = 3 } }

lastcpu_snap::tags! { ErrorCode { ServiceReset = 0, DeviceFailed = 2, Protocol = 5 } }

lastcpu_snap::tags! { MapOp { Map = 0, Unmap = 1 } }

lastcpu_snap::record!(ServiceDesc { id, name, resource });

crate::wire_tags!(Status, ResourceKind, ErrorCode, MapOp);

/// An id on the wire: its integer.
macro_rules! wire_ids {
    ($($t:ident),*) => {$(
        impl Wire<'_> for $t {
            fn put(&self, w: &mut WireWriter) {
                self.0.put(w);
            }
            fn take(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok($t(Wire::take(r)?))
            }
            fn encoded_len(&self) -> usize {
                self.0.encoded_len()
            }
        }
    )*};
}

wire_ids!(DeviceId, ServiceId, RequestId, ConnId, Token, CorrId);

lastcpu_snap::record!(wire crate::wire; ServiceDesc { id, name, resource });

lastcpu_snap::variants! { wire crate::wire; Dst { Device = 0 { 0: d }, Bus = 1 {}, Broadcast = 2 {} } }

// An envelope's body; the frame check sequence follows it (`encode`).
lastcpu_snap::record!(wire crate::wire; Envelope { src, dst, req, corr, payload });

/// Declares the bus protocol in one table. A row is a payload's wire row,
/// as in [`variants!`](lastcpu_snap::variants)'s wire mode; a request the
/// retry layer tracks adds `=> Reply { .. } | Other`, the replies that
/// answer it, the first with the fields of its failure reply where it has
/// one. Derives the wire codec and `kind_name`, `expects_reply`, `is_reply`,
/// `is_answered_by` and `failure_reply`, so no request, reply or name is
/// listed twice.
macro_rules! protocol {
    ($ty:ident { $($v:ident = $tag:literal { $($f:ident),* }
        $(=> $reply:ident $({ $($rf:ident: $rv:expr),* })? $(| $also:ident)*)?,)* }) => {
        lastcpu_snap::variants! { wire crate::wire; $ty { $($v = $tag { $($f),* },)* } }

        impl $ty {
            /// The payload's name, for traces and exports.
            pub fn kind_name(&self) -> &'static str {
                match self { $($ty::$v { .. } => stringify!($v),)* }
            }

            /// Whether this payload is a request that expects a reply, so
            /// the retry layer (`RpcTracker`) times it out and resends it.
            /// `Query` is not one: zero `QueryHit`s is a legitimate answer.
            pub fn expects_reply(&self) -> bool {
                match self { $($ty::$v { .. } => protocol!(@some $($reply)?),)* }
            }

            /// Whether this payload is a reply: it echoes a request's id and
            /// may complete an RPC the retry layer tracks.
            #[allow(unreachable_patterns)] // `BusAck` answers two requests
            pub fn is_reply(&self) -> bool {
                match self { $($($ty::$reply { .. } $(| $ty::$also { .. })* => true,)?)* _ => false }
            }

            /// Whether `reply` is of a kind that answers this request. Request
            /// ids are unique per device only, so a `MapComplete` to a device
            /// must not complete its unrelated request of the same id.
            pub(crate) fn is_answered_by(&self, reply: &$ty) -> bool {
                match self { $($ty::$v { .. } => protocol!(@answers reply $ty $($reply $(| $also)*)?),)* }
            }

            /// The failure reply synthesized for an abandoned request, so the
            /// requester's state machine unwinds instead of waiting forever.
            /// `None` for a payload that is not a request, and for `Hello`,
            /// which the reset path re-issues.
            pub fn failure_reply(&self) -> Option<$ty> {
                match self { $($ty::$v { .. } => protocol!(@fail $ty $($reply $({ $($rf: $rv),* })?)?),)* }
            }
        }
    };
    (@some) => { false };
    (@some $reply:ident) => { true };
    (@answers $r:ident $ty:ident) => { false };
    (@answers $r:ident $ty:ident $($reply:ident)|+) => { matches!($r, $($ty::$reply { .. })|+) };
    (@fail $ty:ident $($reply:ident)?) => { None };
    (@fail $ty:ident $reply:ident { $($f:ident: $v:expr),* }) => { Some($ty::$reply { $($f: $v),* }) };
}

// The bus protocol: every payload's wire row (tag, then its fields in
// order) and, after `=>`, the replies that answer a request the retry layer
// tracks; the first reply's fields, where given, are the failure reply an
// abandoned request unwinds with.
protocol! { Payload {
    Hello = 0 { name, kind } => HelloAck,
    HelloAck = 1 { assigned },
    Heartbeat = 2 {},
    Announce = 4 { service },
    Withdraw = 5 { service },
    Query = 6 { pattern },
    QueryHit = 7 { device, service },
    OpenRequest = 8 { service, token, params } => OpenResponse {
        status: Status::Failed, conn: ConnId(0), shm_bytes: 0, params: Vec::new()
    },
    OpenResponse = 9 { status, conn, shm_bytes, params },
    CloseRequest = 10 { conn } => CloseResponse { status: Status::Failed },
    CloseResponse = 11 { status },
    MemAlloc = 12 { pasid, va, bytes, perms } => MemAllocResponse { status: Status::Failed, region: 0 },
    MemAllocResponse = 13 { status, region },
    MemFree = 14 { region } => MemFreeResponse { status: Status::Failed },
    MemFreeResponse = 15 { status },
    Share = 16 { region, target, pasid, va, perms } => ShareResponse { status: Status::Failed },
    ShareResponse = 17 { status },
    RegisterController = 18 { resource } => BusAck { status: Status::Failed },
    BusAck = 19 { status },
    MapInstruction = 20 { resource, op, device, pasid, va, pa, pages, perms }
        => BusAck { status: Status::Failed } | MapComplete,
    MapComplete = 21 { status, va, pages },
    Doorbell = 22 { conn, value },
    ErrorNotify = 23 { code, conn, detail },
    DeviceFailed = 26 { device },
    AppData = 27 { conn, data },
} }

/// An envelope in a checkpoint: its wire frame, length-prefixed.
impl lastcpu_snap::Field for Envelope {
    fn put(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_bytes(&self.encode());
    }
    fn take(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<Self> {
        let frame = r.bytes()?;
        Envelope::decode(&frame).map_err(|e| r.corrupt(format!("envelope: {e}")))
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The privileged bus parser must never panic on untrusted bytes,
        /// and anything it accepts must re-encode to the same bytes
        /// (canonical encoding — no malleability).
        #[test]
        fn prop_decode_never_panics_and_is_canonical(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            if let Ok(env) = Envelope::decode(&data) {
                prop_assert_eq!(env.encode(), data);
            }
        }

        /// Truncating any valid message at any point is rejected.
        #[test]
        fn prop_truncation_always_detected(cut_ratio in 0.0f64..1.0, seed in any::<u64>()) {
            let env = Envelope {
                src: DeviceId(seed as u32),
                dst: Dst::Device(DeviceId((seed >> 32) as u32)),
                req: RequestId(seed),
                corr: CorrId::NONE,
                payload: Payload::ErrorNotify {
                    code: ErrorCode::Protocol,
                    conn: ConnId(seed ^ 0xFFFF),
                    detail: format!("detail-{seed}"),
                },
            };
            let bytes = env.encode();
            let cut = ((bytes.len() as f64) * cut_ratio) as usize;
            if cut < bytes.len() {
                prop_assert!(Envelope::decode(&bytes[..cut]).is_err());
            }
        }

        /// Bit flips are either rejected or decode to a *different* message
        /// that still re-encodes canonically — never to a corrupted clone.
        #[test]
        fn prop_bitflip_safety(flip_byte in 0usize..64, flip_bit in 0u8..8) {
            let env = Envelope {
                src: DeviceId(3),
                dst: Dst::Bus,
                req: RequestId(9),
                corr: CorrId::NONE,
                payload: Payload::MapInstruction {
                    resource: ResourceKind::Memory,
                    op: MapOp::Map,
                    device: DeviceId(4),
                    pasid: 7,
                    va: 0x10000,
                    pa: 0x200000,
                    pages: 16,
                    perms: 3,
                },
            };
            let mut bytes = env.encode();
            let i = flip_byte % bytes.len();
            bytes[i] ^= 1 << flip_bit;
            if let Ok(decoded) = Envelope::decode(&bytes) {
                prop_assert_eq!(decoded.encode(), bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(p: Payload) {
        let env = Envelope {
            src: DeviceId(7),
            dst: Dst::Device(DeviceId(9)),
            req: RequestId(42),
            corr: CorrId::NONE,
            payload: p,
        };
        let bytes = env.encode();
        let back = Envelope::decode(&bytes).expect("decode");
        assert_eq!(back, env);
    }

    /// The pairing is the declaration's: every declared request's failure
    /// reply, where it has one, is a reply kind that completes it in an
    /// `RpcTracker`; every kind that answers a request is a reply and not
    /// itself a tracked request; and `Hello` alone is tracked without a
    /// failure reply.
    #[test]
    fn every_declared_request_is_completed_by_its_failure_reply() {
        let all = all_variants();
        for p in &all {
            let name = p.kind_name();
            for reply in all.iter().filter(|r| p.is_answered_by(r)) {
                let kind = reply.kind_name();
                assert!(p.expects_reply(), "{name} is answered but not tracked");
                assert!(reply.is_reply(), "{kind} answers {name} but is no reply");
                assert!(!reply.expects_reply(), "{kind} is a reply and a request");
            }
            let Some(reply) = p.failure_reply() else {
                assert_eq!(p.expects_reply(), name == "Hello", "{name}");
                continue;
            };
            let mut tracker = crate::RpcTracker::new(crate::RetryConfig::default());
            let env = Envelope {
                src: DeviceId(7),
                dst: Dst::Bus,
                req: RequestId(42),
                corr: CorrId::NONE,
                payload: p.clone(),
            };
            tracker.track(lastcpu_sim::SimTime::ZERO, &env);
            assert!(
                tracker.complete(env.src, env.req, &reply),
                "{name}'s failure reply does not complete it"
            );
        }
        let answers = |request: &str| -> Vec<&str> {
            let p = all.iter().find(|p| p.kind_name() == request).unwrap();
            let replies = all.iter().filter(|r| p.is_answered_by(r));
            replies.map(Payload::kind_name).collect()
        };
        assert_eq!(answers("MapInstruction"), ["BusAck", "MapComplete"]);
        assert_eq!(answers("Hello"), ["HelloAck"]);
        assert!(answers("Query").is_empty());
    }

    /// One instance of every payload variant (a variant added to the
    /// declaration without extending this list fails the round-trip or the
    /// encoded-len regression).
    fn all_variants() -> Vec<Payload> {
        let svc = ServiceDesc {
            id: ServiceId(3),
            name: "file:/data/kv.db".into(),
            resource: ResourceKind::Storage,
        };
        let variants = vec![
            Payload::Hello {
                name: "nic0".into(),
                kind: "smart-nic".into(),
            },
            Payload::HelloAck {
                assigned: DeviceId(5),
            },
            Payload::Heartbeat,
            Payload::Announce {
                service: svc.clone(),
            },
            Payload::Withdraw {
                service: ServiceId(3),
            },
            Payload::Query {
                pattern: "file:*".into(),
            },
            Payload::QueryHit {
                device: DeviceId(2),
                service: svc,
            },
            Payload::OpenRequest {
                service: ServiceId(1),
                token: Token(0xDEAD),
                params: vec![1, 2, 3],
            },
            Payload::OpenResponse {
                status: Status::Ok,
                conn: ConnId(77),
                shm_bytes: 65536,
                params: vec![],
            },
            Payload::CloseRequest { conn: ConnId(77) },
            Payload::CloseResponse {
                status: Status::NotFound,
            },
            Payload::MemAlloc {
                pasid: 4,
                va: 0x10000,
                bytes: 4096,
                perms: 3,
            },
            Payload::MemAllocResponse {
                status: Status::Ok,
                region: 12,
            },
            Payload::MemFree { region: 12 },
            Payload::MemFreeResponse { status: Status::Ok },
            Payload::Share {
                region: 12,
                target: DeviceId(3),
                pasid: 4,
                va: 0x10000,
                perms: 3,
            },
            Payload::ShareResponse {
                status: Status::Denied,
            },
            Payload::RegisterController {
                resource: ResourceKind::Memory,
            },
            Payload::BusAck { status: Status::Ok },
            Payload::MapInstruction {
                resource: ResourceKind::Memory,
                op: MapOp::Map,
                device: DeviceId(3),
                pasid: 4,
                va: 0x10000,
                pa: 0x200000,
                pages: 16,
                perms: 3,
            },
            Payload::MapComplete {
                status: Status::Ok,
                va: 0x10000,
                pages: 16,
            },
            Payload::Doorbell {
                conn: ConnId(77),
                value: 1,
            },
            Payload::ErrorNotify {
                code: ErrorCode::ServiceReset,
                conn: ConnId(77),
                detail: "flash block died".into(),
            },
            Payload::DeviceFailed {
                device: DeviceId(2),
            },
            Payload::AppData {
                conn: ConnId(3),
                data: vec![0xAB; 100],
            },
        ];
        variants
    }

    #[test]
    fn all_payload_variants_round_trip() {
        for v in all_variants() {
            round_trip(v);
        }
    }

    /// Regression lock between the analytic `encoded_len` and the real
    /// encoder: they must agree for every payload variant, every `Dst`
    /// shape, and data-dependent fields long enough to need multi-byte
    /// varint length prefixes.
    #[test]
    fn encoded_len_matches_encode_for_all_variants() {
        let mut payloads = all_variants();
        // Field lengths straddling the 1-byte/2-byte varint boundary (128);
        // a `Query` to `Broadcast` is the shape the bus sizes most.
        for n in [0usize, 1, 127, 128, 300, 5000] {
            payloads.push(Payload::AppData {
                conn: ConnId(1),
                data: vec![0x5A; n],
            });
            payloads.push(Payload::Query {
                pattern: "q".repeat(n).into(),
            });
            payloads.push(Payload::ErrorNotify {
                code: ErrorCode::Protocol,
                conn: ConnId(0),
                detail: "d".repeat(n),
            });
        }
        for p in payloads {
            for dst in [Dst::Device(DeviceId(9)), Dst::Bus, Dst::Broadcast] {
                let env = Envelope {
                    src: DeviceId(7),
                    dst,
                    req: RequestId(42),
                    corr: CorrId(3),
                    payload: p.clone(),
                };
                assert_eq!(
                    env.encoded_len(),
                    env.encode().len(),
                    "encoded_len mismatch for {} to {dst:?}",
                    env.payload.kind_name()
                );
            }
        }
    }

    #[test]
    fn all_dsts_round_trip() {
        for dst in [Dst::Device(DeviceId(3)), Dst::Bus, Dst::Broadcast] {
            let env = Envelope {
                src: DeviceId(1),
                dst,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            };
            assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
        }
    }

    /// Recomputes the trailing frame check sequence after the test mutated
    /// the body, so the mutation under test (not the FCS) trips the decoder.
    fn reframe(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_len = bytes.len() - 4;
        let fcs = crate::wire::frame_check(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&fcs.to_le_bytes());
        bytes
    }

    /// `body[at] = tag`, correctly reframed, decodes as a refusal of a
    /// `what` tag.
    fn refuses_tag(env: &Envelope, at: usize, what: &str, tags: &[u8]) {
        for &tag in tags {
            let mut bytes = env.encode();
            bytes[at] = tag;
            let got = Envelope::decode(&reframe(bytes));
            assert!(
                matches!(got, Err(WireError::BadDiscriminant { what: w, value })
                    if w == what && value == u64::from(tag)),
                "{what} tag {tag}: {got:?}"
            );
        }
    }

    fn to_bus(payload: Payload) -> Envelope {
        Envelope {
            src: DeviceId(1),
            dst: Dst::Bus,
            req: RequestId(0),
            corr: CorrId::NONE,
            payload,
        }
    }

    /// An unassigned payload tag is refused, among them those of `Bye` (3),
    /// `ResetRequest` (24) and `ResetDone` (25), deleted because nothing
    /// sent them.
    #[test]
    fn bad_payload_tag_rejected() {
        let env = to_bus(Payload::Heartbeat);
        let tag_at = env.encode().len() - 5; // last body byte: the payload tag
        refuses_tag(&env, tag_at, "Payload", &[3, 24, 25, 28, 200]);
    }

    /// The `ErrorCode`s `ResourceFailed` (1), `PageFault` (3) and
    /// `AuthFailure` (4) and the bus `Status::Busy` (4), deleted because
    /// nothing sent them, are refused.
    #[test]
    fn deleted_error_codes_and_status_are_refused() {
        let notify = to_bus(Payload::ErrorNotify {
            code: ErrorCode::Protocol,
            conn: ConnId(0),
            detail: String::new(),
        });
        // The code follows the tag; the connection and the empty detail end
        // the body.
        let code = notify.encode().len() - 4 - 1 - 8 - 1;
        assert_eq!(notify.encode()[code], 5, "the Protocol tag");
        refuses_tag(&notify, code, "ErrorCode", &[1, 3, 4]);
        let ack = to_bus(Payload::BusAck { status: Status::Ok });
        refuses_tag(&ack, ack.encode().len() - 5, "Status", &[4]);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let env = Envelope {
            src: DeviceId(1),
            dst: Dst::Bus,
            req: RequestId(0),
            corr: CorrId::NONE,
            payload: Payload::Heartbeat,
        };
        let mut bytes = env.encode();
        let fcs_at = bytes.len() - 4;
        bytes.insert(fcs_at, 0); // garbage between payload and FCS
        let bytes = reframe(bytes);
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn unframed_corruption_trips_the_frame_check() {
        let env = Envelope {
            src: DeviceId(1),
            dst: Dst::Bus,
            req: RequestId(0),
            corr: CorrId::NONE,
            payload: Payload::Heartbeat,
        };
        let mut bytes = env.encode();
        bytes.push(0); // appended garbage without re-framing
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    /// Regression: before the frame check existed, flipping one bit of an
    /// encoded `Heartbeat` could alias it into a *valid* `Bye`, silently
    /// deregistering the device (found by the E4 fault-injection matrix).
    /// With the FCS, every single-bit flip must be rejected, never
    /// misparsed. (`Bye` has since been deleted: nothing sent it.)
    #[test]
    fn single_bit_corruption_never_aliases() {
        let env = Envelope {
            src: DeviceId(3),
            dst: Dst::Bus,
            req: RequestId(7),
            corr: CorrId(9),
            payload: Payload::Heartbeat,
        };
        let bytes = env.encode();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                Envelope::decode(&flipped).is_err(),
                "bit flip {bit} decoded as a valid message"
            );
        }
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let env = Envelope {
            src: DeviceId(7),
            dst: Dst::Device(DeviceId(9)),
            req: RequestId(42),
            corr: CorrId::NONE,
            payload: Payload::ErrorNotify {
                code: ErrorCode::Protocol,
                conn: ConnId(1),
                detail: "detail string".into(),
            },
        };
        let bytes = env.encode();
        for cut in 0..bytes.len() {
            assert!(Envelope::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn status_helpers() {
        assert!(Status::Ok.is_ok());
        assert!(!Status::Failed.is_ok());
    }

    #[test]
    fn kind_name_is_stable() {
        assert_eq!(Payload::Heartbeat.kind_name(), "Heartbeat");
        assert_eq!(Payload::Query { pattern: "".into() }.kind_name(), "Query");
    }
}
