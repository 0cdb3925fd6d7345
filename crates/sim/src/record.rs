//! Typed trace records with causal correlation ids.
//!
//! The paper's control plane (bus registration, discovery, IOMMU programming)
//! is exactly what experiments need visibility into, so instead of free-form
//! strings every protocol-level step is a [`TraceData`] variant stamped with
//! the virtual time, the emitting subsystem, and a [`CorrId`] — a causal
//! correlation id allocated at the root of each activity and propagated
//! through bus envelopes, timers, doorbells, and network frames. Filtering a
//! trace by one `CorrId` therefore reconstructs an end-to-end span (e.g. a KV
//! GET crossing nic → bus → ssd → iommu) and the exporters in
//! [`crate::export`] turn those spans into Perfetto-loadable trees.

use std::fmt;
use std::sync::Arc;

use crate::time::SimTime;

/// A causal correlation id.
///
/// `CorrId::NONE` (zero) means "not part of any tracked activity"; fresh ids
/// are allocated by the system event loop whenever an activity starts
/// spontaneously (device start, host timer) and inherited by everything that
/// activity causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CorrId(pub u64);

impl CorrId {
    /// The null id: not part of any tracked activity.
    pub const NONE: CorrId = CorrId(0);

    /// Whether this is a real (non-null) correlation id.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for CorrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            write!(f, "-")
        } else {
            write!(f, "c{}", self.0)
        }
    }
}

/// What happened: the typed payload of one trace record.
///
/// Variants cover the control-plane steps the paper makes central; `Text` is
/// the escape hatch for device-specific annotations. Each variant renders to
/// a stable human-readable line via `Display` (preserved verbatim from the
/// original string tracer so message-sequence assertions keep working).
///
/// Names are handles. Device names and bus destinations are `Arc<str>`: the
/// machine creates one per device when it is attached (and one each for
/// `"Bus"` and `"Broadcast"`), a discovery pattern is the `Arc<str>` its
/// `Query` carries, and every record shares them; names drawn from a fixed
/// set (message kinds, permission sets, security checks, stages) are
/// `&'static str`. A steady-state record therefore costs reference counts,
/// not heap copies. `String` is left to the fields only faults and power-on
/// fill. The checkpoint and export encodings carry the text only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceData {
    /// A device handed a control message to the bus.
    BusSend { what: &'static str, dst: Arc<str> },
    /// A discovery query entered the bus.
    Discovery { pattern: Arc<str>, dst: Arc<str> },
    /// A message was delivered to a device.
    Deliver { to: Arc<str>, kind: &'static str },
    /// A device completed registration on the bus.
    BusRegister { device: String },
    /// The bus programmed a device's IOMMU with a mapping.
    IommuMap {
        device: Arc<str>,
        pasid: u32,
        va: u64,
        pa: u64,
        pages: u64,
        perms: &'static str,
    },
    /// The bus revoked pages from a device's IOMMU.
    IommuUnmap {
        device: Arc<str>,
        pasid: u32,
        va: u64,
        pages: u64,
    },
    /// An IOMMU programming request failed.
    MapFailure { error: String },
    /// Memory was granted to a peer device for DMA (a successful share).
    DmaGrant {
        to: Arc<str>,
        pages: u64,
        writable: bool,
    },
    /// A queue doorbell rang.
    QueueDoorbell { to: Arc<str>, value: u64 },
    /// A device halted or was killed.
    DeviceFault { device: Arc<str>, detail: String },
    /// A security check refused an operation (E11 audit layer): a DMA
    /// outside the accessor's mapped windows, a privileged bus operation
    /// from a non-controller, a shadowed service announcement, or a
    /// flood-limited control message.
    SecurityDenial {
        /// Device whose access or request was refused.
        device: Arc<str>,
        /// Check that refused it, e.g. `"dma"`, `"map_instruction"`.
        check: &'static str,
        /// Human-readable denial detail.
        detail: String,
    },
    /// A critical-path stage boundary (E12 attribution layer). Workload
    /// hosts emit one at each protocol milestone — `client.issue`,
    /// `router.recv`, `router.sub`, `server.recv`, … — and the offline
    /// analyzer in [`crate::critpath`] joins them on `(stage, id)` to
    /// decompose an operation's end-to-end latency into named segments.
    Stage {
        /// Milestone label; by convention `role.event`.
        stage: &'static str,
        /// Primary join key (request id or globally-unique sub-request id).
        id: u64,
        /// Secondary disambiguator (e.g. the client's switch port, so
        /// per-client request-id sequences cannot collide).
        aux: u64,
    },
    /// One inter-machine hop through the rack fabric (E12 attribution
    /// layer): the fabric's timing decomposition of a forwarded frame,
    /// emitted at delivery time so the critical-path analyzer can split a
    /// cross-machine transit into uplink / spine / downlink time.
    LinkHop {
        /// Source machine index.
        src_machine: usize,
        /// Destination machine index.
        dst_machine: usize,
        /// Frame wire length in bytes.
        bytes: u64,
        /// Queueing + serialization on the source machine's uplink, ns.
        uplink_ns: u64,
        /// Spine switching + propagation, ns.
        spine_ns: u64,
        /// Queueing + serialization on the destination downlink, ns.
        downlink_ns: u64,
    },
    /// A frame from the rack fabric entered this machine's edge switch.
    ///
    /// This and the two variants below hold integers and are rendered on
    /// demand: their [`kind`](TraceData::kind) is `"text"` and they encode as
    /// the [`Text`](TraceData::Text) record of their `Display` line, which is
    /// what was recorded before they were typed. A decoded checkpoint
    /// therefore holds them as `Text`; they get tags of their own at the next
    /// schema bump.
    LinkEnter {
        /// Local switch port the frame is addressed to.
        port: u32,
        /// Frame payload length in bytes.
        bytes: u64,
    },
    /// A frame left this machine for the rack fabric.
    LinkExit {
        /// Tunnel port it left through.
        port: u32,
        /// Frame payload length in bytes.
        bytes: u64,
    },
    /// A storage device attached the VIRTIO queue of a file connection (the
    /// first doorbell of a Figure-2 setup).
    QueueAttached {
        /// The bus connection id.
        conn: u64,
        /// Queue base address in the connection's address space.
        base: u64,
        /// Ring size in descriptors.
        size: u16,
    },
    /// Free-form annotation.
    Text(String),
}

impl fmt::Display for TraceData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceData::BusSend { what, dst } => write!(f, "sends {what} to {dst}"),
            TraceData::Discovery { pattern, dst } => write!(f, "sends Query({pattern}) to {dst}"),
            TraceData::Deliver { to, kind } => write!(f, "-> {to}: {kind}"),
            TraceData::BusRegister { device } => write!(f, "device {device} registered"),
            TraceData::IommuMap {
                device,
                pasid,
                va,
                pa,
                pages,
                perms,
            } => write!(
                f,
                "programmed IOMMU of {device}: pasid {pasid} va {va:#x} -> pa {pa:#x} ({pages} pages, {perms})"
            ),
            TraceData::IommuUnmap {
                device,
                pasid,
                va,
                pages,
            } => write!(f, "revoked {pages} pages from {device} (pasid {pasid}, va {va:#x})"),
            TraceData::MapFailure { error } => write!(f, "map failed: {error}"),
            TraceData::DmaGrant { to, pages, writable } => {
                write!(f, "granted {pages} pages to {to} (writable={writable})")
            }
            TraceData::QueueDoorbell { to, value } => {
                write!(f, "doorbell -> {to}: value {value:#x}")
            }
            TraceData::DeviceFault { device: _, detail } => write!(f, "{detail}"),
            TraceData::SecurityDenial {
                device,
                check,
                detail,
            } => write!(f, "denied [{check}] {device}: {detail}"),
            TraceData::Stage { stage, id, aux } => {
                write!(f, "stage {stage} id={id} aux={aux}")
            }
            TraceData::LinkHop {
                src_machine,
                dst_machine,
                bytes,
                uplink_ns,
                spine_ns,
                downlink_ns,
            } => write!(
                f,
                "link hop m{src_machine} -> m{dst_machine} ({bytes} B, uplink {uplink_ns}ns, spine {spine_ns}ns, downlink {downlink_ns}ns)"
            ),
            TraceData::LinkEnter { port, bytes } => {
                write!(f, "frame enters from fabric link for port {port} ({bytes} B)")
            }
            TraceData::LinkExit { port, bytes } => {
                write!(f, "frame exits to fabric link via port {port} ({bytes} B)")
            }
            TraceData::QueueAttached { conn, base, size } => {
                write!(f, "conn:{conn}: queue attached at {base:#x} size {size}")
            }
            TraceData::Text(s) => write!(f, "{s}"),
        }
    }
}

impl TraceData {
    /// A short machine-readable tag for exporters (`"iommu_map"`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceData::BusSend { .. } => "bus_send",
            TraceData::Discovery { .. } => "discovery",
            TraceData::Deliver { .. } => "deliver",
            TraceData::BusRegister { .. } => "bus_register",
            TraceData::IommuMap { .. } => "iommu_map",
            TraceData::IommuUnmap { .. } => "iommu_unmap",
            TraceData::MapFailure { .. } => "map_failure",
            TraceData::DmaGrant { .. } => "dma_grant",
            TraceData::QueueDoorbell { .. } => "queue_doorbell",
            TraceData::DeviceFault { .. } => "device_fault",
            TraceData::SecurityDenial { .. } => "security_denial",
            TraceData::Stage { .. } => "stage",
            TraceData::LinkHop { .. } => "link_hop",
            TraceData::LinkEnter { .. }
            | TraceData::LinkExit { .. }
            | TraceData::QueueAttached { .. }
            | TraceData::Text(_) => "text",
        }
    }
}

impl TraceData {
    /// Stable wire encoding for checkpoints (variant tag + fields, LE).
    pub fn encode(&self, w: &mut lastcpu_snap::SnapWriter) {
        match self {
            TraceData::BusSend { what, dst } => {
                w.put_u8(0);
                w.put_str(what);
                w.put_str(dst);
            }
            TraceData::Discovery { pattern, dst } => {
                w.put_u8(1);
                w.put_str(pattern);
                w.put_str(dst);
            }
            TraceData::Deliver { to, kind } => {
                w.put_u8(2);
                w.put_str(to);
                w.put_str(kind);
            }
            TraceData::BusRegister { device } => {
                w.put_u8(3);
                w.put_str(device);
            }
            TraceData::IommuMap {
                device,
                pasid,
                va,
                pa,
                pages,
                perms,
            } => {
                w.put_u8(4);
                w.put_str(device);
                w.put_u32(*pasid);
                w.put_u64(*va);
                w.put_u64(*pa);
                w.put_u64(*pages);
                w.put_str(perms);
            }
            TraceData::IommuUnmap {
                device,
                pasid,
                va,
                pages,
            } => {
                w.put_u8(5);
                w.put_str(device);
                w.put_u32(*pasid);
                w.put_u64(*va);
                w.put_u64(*pages);
            }
            TraceData::MapFailure { error } => {
                w.put_u8(6);
                w.put_str(error);
            }
            TraceData::DmaGrant {
                to,
                pages,
                writable,
            } => {
                w.put_u8(7);
                w.put_str(to);
                w.put_u64(*pages);
                w.put_bool(*writable);
            }
            TraceData::QueueDoorbell { to, value } => {
                w.put_u8(8);
                w.put_str(to);
                w.put_u64(*value);
            }
            TraceData::DeviceFault { device, detail } => {
                w.put_u8(9);
                w.put_str(device);
                w.put_str(detail);
            }
            TraceData::SecurityDenial {
                device,
                check,
                detail,
            } => {
                w.put_u8(10);
                w.put_str(device);
                w.put_str(check);
                w.put_str(detail);
            }
            TraceData::Stage { stage, id, aux } => {
                w.put_u8(11);
                w.put_str(stage);
                w.put_u64(*id);
                w.put_u64(*aux);
            }
            TraceData::LinkHop {
                src_machine,
                dst_machine,
                bytes,
                uplink_ns,
                spine_ns,
                downlink_ns,
            } => {
                w.put_u8(12);
                w.put_u64(*src_machine as u64);
                w.put_u64(*dst_machine as u64);
                w.put_u64(*bytes);
                w.put_u64(*uplink_ns);
                w.put_u64(*spine_ns);
                w.put_u64(*downlink_ns);
            }
            TraceData::LinkEnter { .. }
            | TraceData::LinkExit { .. }
            | TraceData::QueueAttached { .. } => {
                w.put_u8(13);
                w.put_display(self);
            }
            TraceData::Text(s) => {
                w.put_u8(13);
                w.put_str(s);
            }
        }
    }

    /// Inverse of [`TraceData::encode`]. `&'static str` fields come back
    /// through the process-wide intern table.
    pub fn decode(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<TraceData> {
        Ok(match r.u8()? {
            0 => TraceData::BusSend {
                what: lastcpu_snap::intern_static(&r.str()?),
                dst: r.str()?.into(),
            },
            1 => TraceData::Discovery {
                pattern: r.str()?.into(),
                dst: r.str()?.into(),
            },
            2 => TraceData::Deliver {
                to: r.str()?.into(),
                kind: lastcpu_snap::intern_static(&r.str()?),
            },
            3 => TraceData::BusRegister { device: r.str()? },
            4 => TraceData::IommuMap {
                device: r.str()?.into(),
                pasid: r.u32()?,
                va: r.u64()?,
                pa: r.u64()?,
                pages: r.u64()?,
                perms: lastcpu_snap::intern_static(&r.str()?),
            },
            5 => TraceData::IommuUnmap {
                device: r.str()?.into(),
                pasid: r.u32()?,
                va: r.u64()?,
                pages: r.u64()?,
            },
            6 => TraceData::MapFailure { error: r.str()? },
            7 => TraceData::DmaGrant {
                to: r.str()?.into(),
                pages: r.u64()?,
                writable: r.bool()?,
            },
            8 => TraceData::QueueDoorbell {
                to: r.str()?.into(),
                value: r.u64()?,
            },
            9 => TraceData::DeviceFault {
                device: r.str()?.into(),
                detail: r.str()?,
            },
            10 => TraceData::SecurityDenial {
                device: r.str()?.into(),
                check: lastcpu_snap::intern_static(&r.str()?),
                detail: r.str()?,
            },
            11 => TraceData::Stage {
                stage: lastcpu_snap::intern_static(&r.str()?),
                id: r.u64()?,
                aux: r.u64()?,
            },
            12 => TraceData::LinkHop {
                src_machine: r.u64()? as usize,
                dst_machine: r.u64()? as usize,
                bytes: r.u64()?,
                uplink_ns: r.u64()?,
                spine_ns: r.u64()?,
                downlink_ns: r.u64()?,
            },
            13 => TraceData::Text(r.str()?),
            tag => {
                return Err(lastcpu_snap::SnapError::Corrupt {
                    section: "trace".into(),
                    detail: format!("unknown TraceData tag {tag}"),
                })
            }
        })
    }
}

/// One trace record: when, who, which activity, and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time at which the event occurred.
    pub at: SimTime,
    /// Subsystem tag, e.g. `"bus"`, `"nic0"`, `"iommu.ssd0"`; shared by every
    /// record the subsystem emits.
    pub source: Arc<str>,
    /// Causal correlation id ([`CorrId::NONE`] when untracked).
    pub corr: CorrId,
    /// The typed payload.
    pub data: TraceData,
}

impl TraceRecord {
    /// Human-readable description (the legacy string form).
    pub fn what(&self) -> String {
        self.data.to_string()
    }

    /// Stable wire encoding for checkpoints.
    pub fn encode(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.at.as_nanos());
        w.put_str(&self.source);
        w.put_u64(self.corr.0);
        self.data.encode(w);
    }

    /// Inverse of [`TraceRecord::encode`].
    pub fn decode(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<TraceRecord> {
        Ok(TraceRecord {
            at: SimTime::from_nanos(r.u64()?),
            source: r.str()?.into(),
            corr: CorrId(r.u64()?),
            data: TraceData::decode(r)?,
        })
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {:>6} {:<12} {}",
            self.at.to_string(),
            self.corr.to_string(),
            self.source,
            self.data
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corr_display() {
        assert_eq!(CorrId::NONE.to_string(), "-");
        assert_eq!(CorrId(17).to_string(), "c17");
        assert!(!CorrId::NONE.is_some());
        assert!(CorrId(1).is_some());
    }

    #[test]
    fn data_renders_legacy_strings() {
        let d = TraceData::Deliver {
            to: "nic0".into(),
            kind: "QueryHit",
        };
        assert_eq!(d.to_string(), "-> nic0: QueryHit");
        let m = TraceData::IommuMap {
            device: "dev:3".into(),
            pasid: 1,
            va: 0x1000,
            pa: 0x8000,
            pages: 4,
            perms: "rw-",
        };
        assert!(m
            .to_string()
            .starts_with("programmed IOMMU of dev:3: pasid 1"));
        assert_eq!(m.kind(), "iommu_map");
    }

    /// The records that are rendered on demand, over port and byte values
    /// one, three and five digits wide, with the line each one used to be
    /// formatted into when it was emitted.
    fn rendered_on_demand() -> Vec<(TraceData, String)> {
        let mut out = Vec::new();
        for (port, bytes) in [
            (7u32, 9u64),
            (7, 12_345),
            (104, 512),
            (65_001, 4),
            (65_001, 98_765),
        ] {
            out.push((
                TraceData::LinkEnter { port, bytes },
                format!("frame enters from fabric link for port {port} ({bytes} B)"),
            ));
            out.push((
                TraceData::LinkExit { port, bytes },
                format!("frame exits to fabric link via port {port} ({bytes} B)"),
            ));
        }
        for (conn, base, size) in [
            (3u64, 0x1000u64, 2u16),
            (412, 0x7fff_f000, 256),
            (70_000, 0, 32_768),
        ] {
            out.push((
                TraceData::QueueAttached { conn, base, size },
                format!("conn:{conn}: queue attached at {base:#x} size {size}"),
            ));
        }
        out
    }

    #[test]
    fn a_record_rendered_on_demand_encodes_as_the_text_it_renders() {
        for (typed, line) in rendered_on_demand() {
            assert_eq!(typed.to_string(), line);
            assert_eq!(typed.kind(), "text");
            let encode = |d: &TraceData| {
                // Mid-section, as in a sink's snapshot: the length prefix is
                // patched in place, not at offset zero.
                let mut w = lastcpu_snap::SnapWriter::new();
                w.put_u64(0xFEED);
                d.encode(&mut w);
                w.put_u8(0xAB);
                w.into_bytes()
            };
            let bytes = encode(&typed);
            assert_eq!(bytes, encode(&TraceData::Text(line.clone())), "{line}");
            let mut r = lastcpu_snap::SnapReader::new("trace", &bytes);
            assert_eq!(r.u64().unwrap(), 0xFEED);
            assert_eq!(TraceData::decode(&mut r).unwrap(), TraceData::Text(line));
            assert_eq!(r.u8().unwrap(), 0xAB);
            r.finish().unwrap();
        }
    }
}
