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
//!
//! A record is plain data: `Copy`, no heap pointer. Its names are handles
//! into the table of the [`TraceSink`](crate::trace::TraceSink) that holds
//! it, which keeps it packed in about 14 bytes and hands it back as a
//! [`TraceView`](crate::trace::TraceView).

use std::fmt;

use crate::trace::Name;

/// A causal correlation id.
///
/// `CorrId::NONE` (zero) means "not part of any tracked activity"; fresh ids
/// are allocated by the system event loop whenever an activity starts
/// spontaneously (device start, host timer) and inherited by everything that
/// activity causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CorrId(pub u64);

lastcpu_snap::newtypes!(CorrId);

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
/// a stable human-readable line through its sink (see
/// [`TraceView`](crate::trace::TraceView); the lines are preserved verbatim
/// from the original string tracer so message-sequence assertions keep
/// working).
///
/// The payload is plain data: it is `Copy` and holds no heap pointer, so a
/// record is packed into its sink's ring and evicted from it without a
/// reference count or a drop. Device names, bus destinations, discovery
/// patterns and permission sets are [`Name`]s, handles into the table of
/// the sink that holds the record; names drawn from a fixed set (message
/// kinds, security checks, stages) are `&'static str`, which the ring packs
/// as an index into the sink's table of them. The free text of
/// `BusRegister`, `MapFailure`, `DeviceFault`, `SecurityDenial` and `Text`
/// lives in the sink beside the record ([`TraceData::has_text`]). The
/// checkpoint and export encodings carry the text only. Each variant's tag,
/// export kind and layout are one row of the table in `trace.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceData {
    /// A device handed a control message to the bus.
    BusSend { what: &'static str, dst: Name },
    /// A discovery query entered the bus.
    Discovery { pattern: Name, dst: Name },
    /// A message was delivered to a device.
    Deliver { to: Name, kind: &'static str },
    /// A device completed registration on the bus. Its text is the device's
    /// name and kind.
    BusRegister,
    /// The bus programmed a device's IOMMU with a mapping.
    IommuMap {
        device: Name,
        pasid: u32,
        va: u64,
        pa: u64,
        pages: u64,
        perms: Name,
    },
    /// The bus revoked pages from a device's IOMMU.
    IommuUnmap {
        device: Name,
        pasid: u32,
        va: u64,
        pages: u64,
    },
    /// An IOMMU programming request failed. Its text is the error.
    MapFailure,
    /// Memory was granted to a peer device for DMA (a successful share).
    DmaGrant {
        to: Name,
        pages: u64,
        writable: bool,
    },
    /// A queue doorbell rang.
    QueueDoorbell { to: Name, value: u64 },
    /// A device halted or was killed. Its text is the detail line.
    DeviceFault { device: Name },
    /// A security check refused an operation (E11 audit layer): a DMA
    /// outside the accessor's mapped windows, a privileged bus operation
    /// from a non-controller, a shadowed service announcement, or a
    /// flood-limited control message. Its text is the denial detail.
    SecurityDenial {
        /// Device whose access or request was refused.
        device: Name,
        /// Check that refused it, e.g. `"dma"`, `"map_instruction"`.
        check: &'static str,
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
        src_machine: u16,
        /// Destination machine index.
        dst_machine: u16,
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
    /// demand: their [`kind`](TraceData::kind) is `"text"`, and an export
    /// holds the line that was recorded before they were typed. A checkpoint
    /// holds each under a tag of its own.
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
    /// Free-form annotation: its text is the line.
    Text,
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

    /// A `Stage` record packs in 16 bytes or fewer while its id is below
    /// 2^21 and its aux below 128, even a long gap and a new activity after
    /// the record before it: 2^27 - 1 ns later and 2^20 - 1 correlation ids
    /// on.
    #[test]
    fn a_stage_record_packs_in_sixteen_bytes() {
        use crate::time::SimTime;
        use crate::trace::TraceSink;
        let mut t = TraceSink::bounded(4);
        let source = t.name("c0");
        let stage = |id, aux| TraceData::Stage {
            stage: "client.issue",
            id,
            aux,
        };
        t.emit_data(SimTime::from_nanos(5), source, CorrId(7), stage(1, 0));
        let before = t.packed_bytes();
        let (at, corr) = (5 + (1 << 27) - 1, 7 + (1 << 20) - 1);
        let last = stage((1 << 21) - 1, 127);
        t.emit_data(SimTime::from_nanos(at), source, CorrId(corr), last);
        assert!(
            t.packed_bytes() - before <= 16,
            "{}",
            t.packed_bytes() - before
        );
        let back = t.events().last().expect("a record");
        assert_eq!(
            (back.at.as_nanos(), back.corr, back.data),
            (at, CorrId(corr), last)
        );
    }

    #[test]
    fn text_bearing_variants_have_no_name_of_their_text() {
        for (data, text) in [
            (TraceData::BusRegister, true),
            (TraceData::MapFailure, true),
            (TraceData::Text, true),
            (
                TraceData::Stage {
                    stage: "client.issue",
                    id: 1,
                    aux: 2,
                },
                false,
            ),
            (TraceData::LinkEnter { port: 7, bytes: 9 }, false),
        ] {
            assert_eq!(data.has_text(), text, "{data:?}");
            let mut names = 0;
            let mut data = data;
            data.for_each_name(|_| names += 1);
            assert_eq!(names, 0, "{data:?}");
        }
    }
}
