//! The bus protocol vocabulary.
//!
//! Every control-plane interaction in the CPU-less system is one of these
//! messages. The set is the concrete spelling of the paper's contribution
//! (1): the functions an OS must perform in a CPU-less system, as protocol.
//!
//! | Group | Messages | Paper reference |
//! |---|---|---|
//! | Lifecycle | `Hello`, `HelloAck`, `Heartbeat`, `Bye` | §2.2 "System Initialization" |
//! | Discovery | `Announce`, `Withdraw`, `Query`, `QueryHit` | §2.2 (SSDP analogy) |
//! | Sessions | `OpenRequest/Response`, `CloseRequest/Response` | §3 steps 3–4 |
//! | Memory | `MemAlloc`, `MemFree`, `Share`, + responses | §3 steps 5–7 |
//! | Privileged | `RegisterController`, `MapInstruction`, `MapComplete` | §2.2 "Address Translation" |
//! | Notify | `Doorbell`, `ErrorNotify`, `ResetRequest/Done`, `DeviceFailed` | §2.3, §4 |

use std::sync::Arc;

use crate::ids::{ConnId, DeviceId, RequestId, ServiceId, Token};
use crate::wire::{field_len, frame_check, WireError, WireReader, WireWriter};
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
    /// Target is temporarily unable to serve.
    Busy,
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
/// error taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// A service context was reset; consumers must reconnect.
    ServiceReset,
    /// A resource failed fatally but the device survived (§4: "the device is
    /// responsible for handling the error itself ... send a message to any
    /// consumer using that resource").
    ResourceFailed,
    /// An entire device failed (broadcast by the bus).
    DeviceFailed,
    /// A recoverable translation fault was handled by the device.
    PageFault,
    /// Authentication/authorization failure.
    AuthFailure,
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
    /// Orderly departure.
    Bye,

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
    /// Bus asks a device to reset (after failure detection).
    ResetRequest,
    /// Device reports reset completion.
    ResetDone,
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
    /// Encoded size in bytes (used for cost accounting).
    ///
    /// Alias of [`encoded_len`](Self::encoded_len); kept for callers that
    /// predate the analytic size computation.
    pub fn wire_len(&self) -> usize {
        self.encoded_len()
    }

    /// Encoded size in bytes, computed **without** materializing the frame.
    ///
    /// The routing hot path only needs the wire size (for serialization-cost
    /// and link-occupancy accounting); encoding every message just to call
    /// `.len()` on the buffer was one allocation + full payload copy per
    /// routed message. This mirrors [`encode`](Self::encode) field for
    /// field — the `encoded_len_matches_encode_for_all_variants` regression
    /// test locks the two together.
    pub fn encoded_len(&self) -> usize {
        let dst = match self.dst {
            Dst::Device(_) => 1 + 4,
            Dst::Bus | Dst::Broadcast => 1,
        };
        // src + dst + req + corr + payload + 4-byte frame check sequence.
        4 + dst + 8 + 8 + payload_encoded_len(&self.payload) + 4
    }

    /// Encodes to the wire format. The frame ends with a 4-byte frame check
    /// sequence over the body (see [`frame_check`]); corruption in flight is
    /// detected at decode and the frame dropped rather than misparsed.
    pub fn encode(&self) -> Vec<u8> {
        let _prof = lastcpu_sim::profile::span("bus.encode");
        let mut w = WireWriter::with_capacity(self.encoded_len());
        w.u32(self.src.0);
        match self.dst {
            Dst::Device(d) => {
                w.u8(0);
                w.u32(d.0);
            }
            Dst::Bus => w.u8(1),
            Dst::Broadcast => w.u8(2),
        }
        w.u64(self.req.0);
        w.u64(self.corr.0);
        encode_payload(&mut w, &self.payload);
        let mut bytes = w.finish();
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
        let mut r = WireReader::new(body);
        let src = DeviceId(r.u32()?);
        let dst = match r.u8()? {
            0 => Dst::Device(DeviceId(r.u32()?)),
            1 => Dst::Bus,
            2 => Dst::Broadcast,
            v => {
                return Err(WireError::BadDiscriminant {
                    what: "Dst",
                    value: v as u64,
                })
            }
        };
        let req = RequestId(r.u64()?);
        let corr = CorrId(r.u64()?);
        let payload = decode_payload(&mut r)?;
        r.expect_end()?;
        Ok(Envelope {
            src,
            dst,
            req,
            corr,
            payload,
        })
    }
}

fn encode_status(w: &mut WireWriter, s: Status) {
    w.u8(match s {
        Status::Ok => 0,
        Status::Denied => 1,
        Status::NotFound => 2,
        Status::NoResources => 3,
        Status::Busy => 4,
        Status::BadRequest => 5,
        Status::Failed => 6,
    });
}

fn decode_status(r: &mut WireReader<'_>) -> Result<Status, WireError> {
    Ok(match r.u8()? {
        0 => Status::Ok,
        1 => Status::Denied,
        2 => Status::NotFound,
        3 => Status::NoResources,
        4 => Status::Busy,
        5 => Status::BadRequest,
        6 => Status::Failed,
        v => {
            return Err(WireError::BadDiscriminant {
                what: "Status",
                value: v as u64,
            })
        }
    })
}

fn encode_resource(w: &mut WireWriter, k: ResourceKind) {
    w.u8(match k {
        ResourceKind::Memory => 0,
        ResourceKind::Storage => 1,
        ResourceKind::Network => 2,
        ResourceKind::Compute => 3,
    });
}

fn decode_resource(r: &mut WireReader<'_>) -> Result<ResourceKind, WireError> {
    Ok(match r.u8()? {
        0 => ResourceKind::Memory,
        1 => ResourceKind::Storage,
        2 => ResourceKind::Network,
        3 => ResourceKind::Compute,
        v => {
            return Err(WireError::BadDiscriminant {
                what: "ResourceKind",
                value: v as u64,
            })
        }
    })
}

fn encode_error_code(w: &mut WireWriter, c: ErrorCode) {
    w.u8(match c {
        ErrorCode::ServiceReset => 0,
        ErrorCode::ResourceFailed => 1,
        ErrorCode::DeviceFailed => 2,
        ErrorCode::PageFault => 3,
        ErrorCode::AuthFailure => 4,
        ErrorCode::Protocol => 5,
    });
}

fn decode_error_code(r: &mut WireReader<'_>) -> Result<ErrorCode, WireError> {
    Ok(match r.u8()? {
        0 => ErrorCode::ServiceReset,
        1 => ErrorCode::ResourceFailed,
        2 => ErrorCode::DeviceFailed,
        3 => ErrorCode::PageFault,
        4 => ErrorCode::AuthFailure,
        5 => ErrorCode::Protocol,
        v => {
            return Err(WireError::BadDiscriminant {
                what: "ErrorCode",
                value: v as u64,
            })
        }
    })
}

fn encode_service_desc(w: &mut WireWriter, s: &ServiceDesc) {
    w.u16(s.id.0);
    w.string(&s.name);
    encode_resource(w, s.resource);
}

fn decode_service_desc(r: &mut WireReader<'_>) -> Result<ServiceDesc, WireError> {
    Ok(ServiceDesc {
        id: ServiceId(r.u16()?),
        name: r.string()?,
        resource: decode_resource(r)?,
    })
}

fn encode_payload(w: &mut WireWriter, p: &Payload) {
    match p {
        Payload::Hello { name, kind } => {
            w.u8(0);
            w.string(name);
            w.string(kind);
        }
        Payload::HelloAck { assigned } => {
            w.u8(1);
            w.u32(assigned.0);
        }
        Payload::Heartbeat => w.u8(2),
        Payload::Bye => w.u8(3),
        Payload::Announce { service } => {
            w.u8(4);
            encode_service_desc(w, service);
        }
        Payload::Withdraw { service } => {
            w.u8(5);
            w.u16(service.0);
        }
        Payload::Query { pattern } => {
            w.u8(6);
            w.string(pattern);
        }
        Payload::QueryHit { device, service } => {
            w.u8(7);
            w.u32(device.0);
            encode_service_desc(w, service);
        }
        Payload::OpenRequest {
            service,
            token,
            params,
        } => {
            w.u8(8);
            w.u16(service.0);
            w.u128(token.0);
            w.bytes(params);
        }
        Payload::OpenResponse {
            status,
            conn,
            shm_bytes,
            params,
        } => {
            w.u8(9);
            encode_status(w, *status);
            w.u64(conn.0);
            w.u64(*shm_bytes);
            w.bytes(params);
        }
        Payload::CloseRequest { conn } => {
            w.u8(10);
            w.u64(conn.0);
        }
        Payload::CloseResponse { status } => {
            w.u8(11);
            encode_status(w, *status);
        }
        Payload::MemAlloc {
            pasid,
            va,
            bytes,
            perms,
        } => {
            w.u8(12);
            w.u32(*pasid);
            w.u64(*va);
            w.u64(*bytes);
            w.u8(*perms);
        }
        Payload::MemAllocResponse { status, region } => {
            w.u8(13);
            encode_status(w, *status);
            w.u64(*region);
        }
        Payload::MemFree { region } => {
            w.u8(14);
            w.u64(*region);
        }
        Payload::MemFreeResponse { status } => {
            w.u8(15);
            encode_status(w, *status);
        }
        Payload::Share {
            region,
            target,
            pasid,
            va,
            perms,
        } => {
            w.u8(16);
            w.u64(*region);
            w.u32(target.0);
            w.u32(*pasid);
            w.u64(*va);
            w.u8(*perms);
        }
        Payload::ShareResponse { status } => {
            w.u8(17);
            encode_status(w, *status);
        }
        Payload::RegisterController { resource } => {
            w.u8(18);
            encode_resource(w, *resource);
        }
        Payload::BusAck { status } => {
            w.u8(19);
            encode_status(w, *status);
        }
        Payload::MapInstruction {
            resource,
            op,
            device,
            pasid,
            va,
            pa,
            pages,
            perms,
        } => {
            w.u8(20);
            encode_resource(w, *resource);
            w.u8(match op {
                MapOp::Map => 0,
                MapOp::Unmap => 1,
            });
            w.u32(device.0);
            w.u32(*pasid);
            w.u64(*va);
            w.u64(*pa);
            w.u64(*pages);
            w.u8(*perms);
        }
        Payload::MapComplete { status, va, pages } => {
            w.u8(21);
            encode_status(w, *status);
            w.u64(*va);
            w.u64(*pages);
        }
        Payload::Doorbell { conn, value } => {
            w.u8(22);
            w.u64(conn.0);
            w.u64(*value);
        }
        Payload::ErrorNotify { code, conn, detail } => {
            w.u8(23);
            encode_error_code(w, *code);
            w.u64(conn.0);
            w.string(detail);
        }
        Payload::ResetRequest => w.u8(24),
        Payload::ResetDone => w.u8(25),
        Payload::DeviceFailed { device } => {
            w.u8(26);
            w.u32(device.0);
        }
        Payload::AppData { conn, data } => {
            w.u8(27);
            w.u64(conn.0);
            w.bytes(data);
        }
    }
}

/// Encoded size of one payload, mirroring [`encode_payload`] field for
/// field. Every arm is `1` (the tag byte) plus the fixed widths of its
/// fields; only strings and byte blobs are data-dependent.
fn payload_encoded_len(p: &Payload) -> usize {
    match p {
        Payload::Hello { name, kind } => 1 + field_len(name.len()) + field_len(kind.len()),
        Payload::HelloAck { .. } => 1 + 4,
        Payload::Heartbeat | Payload::Bye | Payload::ResetRequest | Payload::ResetDone => 1,
        Payload::Announce { service } => 1 + service_desc_len(service),
        Payload::Withdraw { .. } => 1 + 2,
        Payload::Query { pattern } => 1 + field_len(pattern.len()),
        Payload::QueryHit { service, .. } => 1 + 4 + service_desc_len(service),
        Payload::OpenRequest { params, .. } => 1 + 2 + 16 + field_len(params.len()),
        Payload::OpenResponse { params, .. } => 1 + 1 + 8 + 8 + field_len(params.len()),
        Payload::CloseRequest { .. } => 1 + 8,
        Payload::CloseResponse { .. } => 1 + 1,
        Payload::MemAlloc { .. } => 1 + 4 + 8 + 8 + 1,
        Payload::MemAllocResponse { .. } => 1 + 1 + 8,
        Payload::MemFree { .. } => 1 + 8,
        Payload::MemFreeResponse { .. } => 1 + 1,
        Payload::Share { .. } => 1 + 8 + 4 + 4 + 8 + 1,
        Payload::ShareResponse { .. } => 1 + 1,
        Payload::RegisterController { .. } => 1 + 1,
        Payload::BusAck { .. } => 1 + 1,
        Payload::MapInstruction { .. } => 1 + 1 + 1 + 4 + 4 + 8 + 8 + 8 + 1,
        Payload::MapComplete { .. } => 1 + 1 + 8 + 8,
        Payload::Doorbell { .. } => 1 + 8 + 8,
        Payload::ErrorNotify { detail, .. } => 1 + 1 + 8 + field_len(detail.len()),
        Payload::DeviceFailed { .. } => 1 + 4,
        Payload::AppData { data, .. } => 1 + 8 + field_len(data.len()),
    }
}

/// Encoded size of a [`ServiceDesc`], mirroring [`encode_service_desc`].
fn service_desc_len(s: &ServiceDesc) -> usize {
    2 + field_len(s.name.len()) + 1
}

fn decode_payload(r: &mut WireReader<'_>) -> Result<Payload, WireError> {
    Ok(match r.u8()? {
        0 => Payload::Hello {
            name: r.string()?,
            kind: r.string()?,
        },
        1 => Payload::HelloAck {
            assigned: DeviceId(r.u32()?),
        },
        2 => Payload::Heartbeat,
        3 => Payload::Bye,
        4 => Payload::Announce {
            service: decode_service_desc(r)?,
        },
        5 => Payload::Withdraw {
            service: ServiceId(r.u16()?),
        },
        6 => Payload::Query {
            pattern: r.string()?.into(),
        },
        7 => Payload::QueryHit {
            device: DeviceId(r.u32()?),
            service: decode_service_desc(r)?,
        },
        8 => Payload::OpenRequest {
            service: ServiceId(r.u16()?),
            token: Token(r.u128()?),
            params: r.bytes()?,
        },
        9 => Payload::OpenResponse {
            status: decode_status(r)?,
            conn: ConnId(r.u64()?),
            shm_bytes: r.u64()?,
            params: r.bytes()?,
        },
        10 => Payload::CloseRequest {
            conn: ConnId(r.u64()?),
        },
        11 => Payload::CloseResponse {
            status: decode_status(r)?,
        },
        12 => Payload::MemAlloc {
            pasid: r.u32()?,
            va: r.u64()?,
            bytes: r.u64()?,
            perms: r.u8()?,
        },
        13 => Payload::MemAllocResponse {
            status: decode_status(r)?,
            region: r.u64()?,
        },
        14 => Payload::MemFree { region: r.u64()? },
        15 => Payload::MemFreeResponse {
            status: decode_status(r)?,
        },
        16 => Payload::Share {
            region: r.u64()?,
            target: DeviceId(r.u32()?),
            pasid: r.u32()?,
            va: r.u64()?,
            perms: r.u8()?,
        },
        17 => Payload::ShareResponse {
            status: decode_status(r)?,
        },
        18 => Payload::RegisterController {
            resource: decode_resource(r)?,
        },
        19 => Payload::BusAck {
            status: decode_status(r)?,
        },
        20 => Payload::MapInstruction {
            resource: decode_resource(r)?,
            op: match r.u8()? {
                0 => MapOp::Map,
                1 => MapOp::Unmap,
                v => {
                    return Err(WireError::BadDiscriminant {
                        what: "MapOp",
                        value: v as u64,
                    })
                }
            },
            device: DeviceId(r.u32()?),
            pasid: r.u32()?,
            va: r.u64()?,
            pa: r.u64()?,
            pages: r.u64()?,
            perms: r.u8()?,
        },
        21 => Payload::MapComplete {
            status: decode_status(r)?,
            va: r.u64()?,
            pages: r.u64()?,
        },
        22 => Payload::Doorbell {
            conn: ConnId(r.u64()?),
            value: r.u64()?,
        },
        23 => Payload::ErrorNotify {
            code: decode_error_code(r)?,
            conn: ConnId(r.u64()?),
            detail: r.string()?,
        },
        24 => Payload::ResetRequest,
        25 => Payload::ResetDone,
        26 => Payload::DeviceFailed {
            device: DeviceId(r.u32()?),
        },
        27 => Payload::AppData {
            conn: ConnId(r.u64()?),
            data: r.bytes()?,
        },
        v => {
            return Err(WireError::BadDiscriminant {
                what: "Payload",
                value: v as u64,
            })
        }
    })
}

impl Payload {
    /// Whether this payload is a reply/acknowledgement kind — a message
    /// that echoes a request's id and may complete an RPC tracked by the
    /// retry layer (`retry::RpcTracker`).
    pub fn is_reply(&self) -> bool {
        matches!(
            self,
            Payload::HelloAck { .. }
                | Payload::OpenResponse { .. }
                | Payload::CloseResponse { .. }
                | Payload::MemAllocResponse { .. }
                | Payload::MemFreeResponse { .. }
                | Payload::ShareResponse { .. }
                | Payload::BusAck { .. }
                | Payload::MapComplete { .. }
                | Payload::ResetDone
        )
    }

    /// The terminal failure reply synthesized for an abandoned request, so
    /// the requester's state machine unwinds instead of waiting forever.
    /// `None` for payloads that are not requests, and for the two requests
    /// without a typed failure: `Hello` (the reset path re-issues it) and
    /// `ResetRequest` (its reply `ResetDone` carries no status).
    pub fn failure_reply(&self) -> Option<Payload> {
        let status = Status::Failed;
        Some(match self {
            Payload::OpenRequest { .. } => Payload::OpenResponse {
                status,
                conn: ConnId(0),
                shm_bytes: 0,
                params: Vec::new(),
            },
            Payload::CloseRequest { .. } => Payload::CloseResponse { status },
            Payload::MemAlloc { .. } => Payload::MemAllocResponse { status, region: 0 },
            Payload::MemFree { .. } => Payload::MemFreeResponse { status },
            Payload::Share { .. } => Payload::ShareResponse { status },
            Payload::RegisterController { .. } | Payload::MapInstruction { .. } => {
                Payload::BusAck { status }
            }
            _ => return None,
        })
    }

    /// Short tag for tracing.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Payload::Hello { .. } => "Hello",
            Payload::HelloAck { .. } => "HelloAck",
            Payload::Heartbeat => "Heartbeat",
            Payload::Bye => "Bye",
            Payload::Announce { .. } => "Announce",
            Payload::Withdraw { .. } => "Withdraw",
            Payload::Query { .. } => "Query",
            Payload::QueryHit { .. } => "QueryHit",
            Payload::OpenRequest { .. } => "OpenRequest",
            Payload::OpenResponse { .. } => "OpenResponse",
            Payload::CloseRequest { .. } => "CloseRequest",
            Payload::CloseResponse { .. } => "CloseResponse",
            Payload::MemAlloc { .. } => "MemAlloc",
            Payload::MemAllocResponse { .. } => "MemAllocResponse",
            Payload::MemFree { .. } => "MemFree",
            Payload::MemFreeResponse { .. } => "MemFreeResponse",
            Payload::Share { .. } => "Share",
            Payload::ShareResponse { .. } => "ShareResponse",
            Payload::RegisterController { .. } => "RegisterController",
            Payload::BusAck { .. } => "BusAck",
            Payload::MapInstruction { .. } => "MapInstruction",
            Payload::MapComplete { .. } => "MapComplete",
            Payload::Doorbell { .. } => "Doorbell",
            Payload::ErrorNotify { .. } => "ErrorNotify",
            Payload::ResetRequest => "ResetRequest",
            Payload::ResetDone => "ResetDone",
            Payload::DeviceFailed { .. } => "DeviceFailed",
            Payload::AppData { .. } => "AppData",
        }
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

/// Stable tag for [`ResourceKind`] in snapshot sections (same numbering as
/// the wire codec).
pub(crate) fn resource_kind_tag(k: ResourceKind) -> u8 {
    match k {
        ResourceKind::Memory => 0,
        ResourceKind::Storage => 1,
        ResourceKind::Network => 2,
        ResourceKind::Compute => 3,
    }
}

/// Inverse of [`resource_kind_tag`].
pub(crate) fn resource_kind_from_tag(t: u8) -> Option<ResourceKind> {
    Some(match t {
        0 => ResourceKind::Memory,
        1 => ResourceKind::Storage,
        2 => ResourceKind::Network,
        3 => ResourceKind::Compute,
        _ => return None,
    })
}

impl ServiceDesc {
    /// Serializes into a snapshot section.
    pub fn snap_encode(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u16(self.id.0);
        w.put_str(&self.name);
        w.put_u8(resource_kind_tag(self.resource));
    }

    /// Inverse of [`ServiceDesc::snap_encode`].
    pub fn snap_decode(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<Self> {
        Ok(ServiceDesc {
            id: ServiceId(r.u16()?),
            name: r.str()?,
            resource: {
                let t = r.u8()?;
                resource_kind_from_tag(t)
                    .ok_or_else(|| r.corrupt(format!("bad ResourceKind tag {t}")))?
            },
        })
    }
}

impl Status {
    /// Serializes into a snapshot section (same tags as the wire codec).
    pub fn snap_encode(self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u8(match self {
            Status::Ok => 0,
            Status::Denied => 1,
            Status::NotFound => 2,
            Status::NoResources => 3,
            Status::Busy => 4,
            Status::BadRequest => 5,
            Status::Failed => 6,
        });
    }

    /// Inverse of [`Status::snap_encode`].
    pub fn snap_decode(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<Self> {
        Ok(match r.u8()? {
            0 => Status::Ok,
            1 => Status::Denied,
            2 => Status::NotFound,
            3 => Status::NoResources,
            4 => Status::Busy,
            5 => Status::BadRequest,
            6 => Status::Failed,
            t => return Err(r.corrupt(format!("bad Status tag {t}"))),
        })
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

    /// Every request the retry layer tracks either has a failure reply of
    /// the kind that completes it, or is listed here as deliberately none.
    #[test]
    fn every_tracked_request_has_a_failure_reply_or_is_listed() {
        let deliberately_none = ["Hello", "ResetRequest"];
        for p in all_variants() {
            let name = p.kind_name();
            match p.failure_reply() {
                Some(reply) => {
                    assert!(p.expects_reply(), "{name} is not a tracked request");
                    assert!(reply.is_reply(), "{name} fails with a non-reply");
                    let mut tracker = crate::RpcTracker::new(crate::RetryConfig::default());
                    let env = Envelope {
                        src: DeviceId(7),
                        dst: Dst::Bus,
                        req: RequestId(42),
                        corr: CorrId::NONE,
                        payload: p,
                    };
                    tracker.track(lastcpu_sim::SimTime::ZERO, &env);
                    assert!(
                        tracker.complete(env.src, env.req, &reply),
                        "{name}'s failure reply does not complete it"
                    );
                }
                None => assert_eq!(
                    p.expects_reply(),
                    deliberately_none.contains(&name),
                    "{name}"
                ),
            }
        }
    }

    /// One instance of every payload variant (kept exhaustive by the
    /// `match` in `payload_encoded_len`: adding a variant without extending
    /// this list will fail the round-trip or the encoded-len regression).
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
            Payload::Bye,
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
                code: ErrorCode::ResourceFailed,
                conn: ConnId(77),
                detail: "flash block died".into(),
            },
            Payload::ResetRequest,
            Payload::ResetDone,
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
        // Field lengths straddling the 1-byte/2-byte varint boundary (128).
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

    #[test]
    fn bad_payload_tag_rejected() {
        let env = Envelope {
            src: DeviceId(1),
            dst: Dst::Bus,
            req: RequestId(0),
            corr: CorrId::NONE,
            payload: Payload::Heartbeat,
        };
        let mut bytes = env.encode();
        let tag_at = bytes.len() - 5; // last body byte: the payload tag
        bytes[tag_at] = 200;
        let bytes = reframe(bytes);
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(WireError::BadDiscriminant {
                what: "Payload",
                ..
            })
        ));
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
    /// misparsed.
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
    fn wire_len_matches_encoding() {
        let env = Envelope {
            src: DeviceId(1),
            dst: Dst::Broadcast,
            req: RequestId(9),
            corr: CorrId::NONE,
            payload: Payload::Query {
                pattern: "memory".into(),
            },
        };
        assert_eq!(env.wire_len(), env.encode().len());
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
