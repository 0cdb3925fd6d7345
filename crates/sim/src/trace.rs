//! Structured protocol tracing.
//!
//! The paper's Figure 2 is a message-sequence chart; to "reproduce the
//! figure" the emulator records every protocol-level step into a
//! [`TraceSink`] which the F2 experiment replays as a table. Traces are
//! typed [`TraceRecord`]s (see [`crate::record`]) carrying a timestamp, a
//! subsystem tag, a causal [`CorrId`], and a [`TraceData`] payload, and are
//! kept in a bounded ring so long runs cannot exhaust memory.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::record::{CorrId, TraceData, TraceRecord};
use crate::time::SimTime;

/// A bounded in-memory trace collector.
///
/// When `enabled` is false, `emit` is a no-op so hot paths pay only a branch.
///
/// # Examples
///
/// ```
/// use lastcpu_sim::{SimTime, TraceSink};
///
/// let mut t = TraceSink::bounded(2);
/// t.emit(SimTime::from_nanos(1), "bus", "device nic0 registered");
/// t.emit(SimTime::from_nanos(2), "bus", "device ssd0 registered");
/// t.emit(SimTime::from_nanos(3), "bus", "discovery query");
/// assert_eq!(t.len(), 2); // oldest evicted
/// ```
pub struct TraceSink {
    ring: VecDeque<TraceRecord>,
    capacity: usize,
    enabled: bool,
    emitted: u64,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::bounded(65_536)
    }
}

impl TraceSink {
    /// A sink keeping at most `capacity` most-recent records.
    ///
    /// The ring is reserved up front so steady-state emission never
    /// reallocates (growing incrementally under a hot loop used to cost a
    /// series of doubling copies before the ring reached capacity).
    pub fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceSink {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            enabled: true,
            emitted: 0,
        }
    }

    /// A sink that drops everything (for performance runs).
    pub fn disabled() -> Self {
        let mut s = Self::bounded(1);
        s.enabled = false;
        s
    }

    /// Turns collection on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Grows (or shrinks) the retention bound. Existing records beyond the
    /// new bound are evicted oldest-first; growth re-reserves the ring so
    /// steady-state emission stays allocation-free. Offline analyses that
    /// need every record of a long run (e.g. critical-path extraction over
    /// a whole E12 rack phase) raise this before the run.
    pub fn set_capacity(&mut self, capacity: usize) {
        let capacity = capacity.max(1);
        while self.ring.len() > capacity {
            self.ring.pop_front();
        }
        self.ring.reserve(capacity.saturating_sub(self.ring.len()));
        self.capacity = capacity;
    }

    /// Whether the sink is collecting.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a free-form annotation with no correlation id (no-op when
    /// disabled). Prefer [`TraceSink::emit_data`] for typed records.
    pub fn emit(&mut self, at: SimTime, source: impl Into<Arc<str>>, what: impl Into<String>) {
        self.emit_data(at, source, CorrId::NONE, TraceData::Text(what.into()));
    }

    /// Records a free-form annotation tagged with a correlation id.
    pub fn emit_corr(
        &mut self,
        at: SimTime,
        source: impl Into<Arc<str>>,
        corr: CorrId,
        what: impl Into<String>,
    ) {
        self.emit_data(at, source, corr, TraceData::Text(what.into()));
    }

    /// Records a typed event (no-op when disabled).
    ///
    /// A `&str` or `String` source is copied to the heap per record; a
    /// subsystem that emits repeatedly keeps one `Arc<str>` and passes a
    /// clone, which allocates nothing.
    pub fn emit_data(
        &mut self,
        at: SimTime,
        source: impl Into<Arc<str>>,
        corr: CorrId,
        data: TraceData,
    ) {
        if !self.enabled {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(TraceRecord {
            at,
            source: source.into(),
            corr,
            data,
        });
        self.emitted += 1;
    }

    /// The retained records, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records emitted over the sink's lifetime (including evicted).
    pub fn total_emitted(&self) -> u64 {
        self.emitted
    }

    /// Records whose source starts with `prefix`, oldest first.
    pub fn by_source<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a TraceRecord> {
        self.ring
            .iter()
            .filter(move |e| e.source.starts_with(prefix))
    }

    /// Records whose description contains `needle`, oldest first.
    pub fn containing<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a TraceRecord> {
        self.ring.iter().filter(move |e| e.what().contains(needle))
    }

    /// Records belonging to correlation id `corr`, oldest first.
    pub fn by_corr(&self, corr: CorrId) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter().filter(move |e| e.corr == corr)
    }

    /// Discards all retained records (the lifetime counter is kept).
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

impl lastcpu_snap::Snapshot for TraceSink {
    /// Serializes the full sink: configuration, lifetime counter, and every
    /// retained record (typed payloads included, so a restored sink renders
    /// byte-identical trace output).
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_len(self.capacity);
        w.put_bool(self.enabled);
        w.put_u64(self.emitted);
        w.put_len(self.ring.len());
        for rec in &self.ring {
            rec.encode(w);
        }
    }
}

impl lastcpu_snap::Restore for TraceSink {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        let capacity = r.len()?;
        let enabled = r.bool()?;
        let emitted = r.u64()?;
        let n = r.len()?;
        if n > capacity {
            return Err(lastcpu_snap::SnapError::Corrupt {
                section: "trace".into(),
                detail: format!("{n} retained records exceed capacity {capacity}"),
            });
        }
        self.ring.clear();
        self.set_capacity(capacity);
        self.enabled = enabled;
        self.emitted = emitted;
        for _ in 0..n {
            self.ring.push_back(TraceRecord::decode(r)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut t = TraceSink::bounded(16);
        t.emit(SimTime::from_nanos(1), "a", "x");
        t.emit(SimTime::from_nanos(2), "b", "y");
        let v: Vec<_> = t.events().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(&*v[0].source, "a");
        assert_eq!(v[1].what(), "y");
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = TraceSink::bounded(3);
        for i in 0..10u64 {
            t.emit(SimTime::from_nanos(i), "s", i.to_string());
        }
        let v: Vec<_> = t.events().map(|e| e.what()).collect();
        assert_eq!(v, vec!["7", "8", "9"]);
        assert_eq!(t.total_emitted(), 10);
    }

    #[test]
    fn ring_is_fully_reserved_up_front() {
        let t = TraceSink::bounded(4096);
        assert!(t.ring.capacity() >= 4096, "capacity {}", t.ring.capacity());
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn set_capacity_evicts_oldest_and_rebounds() {
        let mut t = TraceSink::bounded(8);
        for i in 0..8u64 {
            t.emit(SimTime::from_nanos(i), "s", i.to_string());
        }
        t.set_capacity(3);
        let v: Vec<_> = t.events().map(|e| e.what()).collect();
        assert_eq!(v, vec!["5", "6", "7"]);
        t.set_capacity(16);
        for i in 8..20u64 {
            t.emit(SimTime::from_nanos(i), "s", i.to_string());
        }
        assert_eq!(t.len(), 15); // 3 survivors + 12 new, under the new bound
        assert_eq!(t.total_emitted(), 20);
    }

    #[test]
    fn len_tracks_retained_records() {
        let mut t = TraceSink::bounded(2);
        assert!(t.is_empty());
        t.emit(SimTime::ZERO, "s", "a");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        t.emit(SimTime::ZERO, "s", "b");
        t.emit(SimTime::ZERO, "s", "c");
        assert_eq!(t.len(), 2); // bounded
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn disabled_sink_drops() {
        let mut t = TraceSink::disabled();
        t.emit(SimTime::ZERO, "s", "x");
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.total_emitted(), 0);
        t.set_enabled(true);
        t.emit(SimTime::ZERO, "s", "x");
        assert_eq!(t.events().count(), 1);
    }

    #[test]
    fn filters_work() {
        let mut t = TraceSink::bounded(16);
        t.emit(SimTime::ZERO, "bus", "register nic0");
        t.emit(SimTime::ZERO, "nic0", "self-test ok");
        t.emit(SimTime::ZERO, "bus", "register ssd0");
        assert_eq!(t.by_source("bus").count(), 2);
        assert_eq!(t.containing("nic0").count(), 1);
        t.clear();
        assert_eq!(t.events().count(), 0);
    }

    #[test]
    fn corr_filter_selects_one_activity() {
        let mut t = TraceSink::bounded(16);
        t.emit_corr(SimTime::ZERO, "nic0", CorrId(1), "step one");
        t.emit_corr(SimTime::ZERO, "bus", CorrId(2), "unrelated");
        t.emit_data(
            SimTime::from_nanos(5),
            "bus",
            CorrId(1),
            TraceData::Deliver {
                to: "ssd0".into(),
                kind: "OpenRequest",
            },
        );
        let span: Vec<_> = t.by_corr(CorrId(1)).collect();
        assert_eq!(span.len(), 2);
        assert_eq!(span[1].what(), "-> ssd0: OpenRequest");
    }

    /// The `trace` section the commit before `BusSend::dst`,
    /// `Discovery::{pattern, dst}`, `IommuMap::perms` and
    /// `SecurityDenial::check` became handles wrote for the fourteen
    /// records of `snapshot_round_trips_every_record_variant`.
    const PARENT_SECTION_HEX: &str = concat!(
        "2000000000000000010e000000000000000e0000000000000000000000000000",
        "0004000000000000006e6963300000000000000000000b000000000000004f70",
        "656e526571756573740d00000000000000446576696365286465763a32290a00",
        "00000000000004000000000000006e6963300100000000000000010500000000",
        "0000007373642f2a090000000000000042726f61646361737414000000000000",
        "0004000000000000006e69633002000000000000000204000000000000007373",
        "6430080000000000000051756572794869741e00000000000000040000000000",
        "00006e69633003000000000000000310000000000000006e6963302028736d61",
        "72742d6e696329280000000000000004000000000000006e6963300400000000",
        "0000000405000000000000006465763a33070000000020000000000000009000",
        "0000000000040000000000000002000000000000005257320000000000000004",
        "000000000000006e69633005000000000000000505000000000000006465763a",
        "3307000000002000000000000004000000000000003c00000000000000040000",
        "00000000006e6963300600000000000000060900000000000000756e616c6967",
        "6e6564460000000000000004000000000000006e696330070000000000000007",
        "05000000000000006465763a3304000000000000000150000000000000000400",
        "0000000000006e69633008000000000000000805000000000000006465763a32",
        "efbe0000000000005a0000000000000004000000000000006e69633009000000",
        "000000000905000000000000006465763a3216000000000000006465763a3220",
        "68616c7465643a20776561722d6f757464000000000000000400000000000000",
        "6e6963300a000000000000000a0600000000000000726f677565300300000000",
        "000000646d611f00000000000000706173696420312076612030783020577269",
        "74653a204e6f744d61707065646e0000000000000004000000000000006e6963",
        "300b000000000000000b0c00000000000000636c69656e742e69737375656300",
        "0000000000000100000000000000780000000000000004000000000000006e69",
        "63300c000000000000000c00000000000000000300000000000000c000000000",
        "0000002800000000000000f4010000000000002d000000000000008200000000",
        "00000004000000000000006e6963300d000000000000000d0900000000000000",
        "667265652d666f726d",
    );

    #[test]
    fn snapshot_round_trips_every_record_variant() {
        use lastcpu_snap::{Restore, SnapReader, Snapshot};
        let variants = vec![
            TraceData::BusSend {
                what: "OpenRequest",
                dst: "Device(dev:2)".into(),
            },
            TraceData::Discovery {
                pattern: "ssd/*".into(),
                dst: "Broadcast".into(),
            },
            TraceData::Deliver {
                to: "ssd0".into(),
                kind: "QueryHit",
            },
            TraceData::BusRegister {
                device: "nic0 (smart-nic)".into(),
            },
            TraceData::IommuMap {
                device: "dev:3".into(),
                pasid: 7,
                va: 0x2000,
                pa: 0x9000,
                pages: 4,
                perms: "RW",
            },
            TraceData::IommuUnmap {
                device: "dev:3".into(),
                pasid: 7,
                va: 0x2000,
                pages: 4,
            },
            TraceData::MapFailure {
                error: "unaligned".into(),
            },
            TraceData::DmaGrant {
                to: "dev:3".into(),
                pages: 4,
                writable: true,
            },
            TraceData::QueueDoorbell {
                to: "dev:2".into(),
                value: 0xBEEF,
            },
            TraceData::DeviceFault {
                device: "dev:2".into(),
                detail: "dev:2 halted: wear-out".into(),
            },
            TraceData::SecurityDenial {
                device: "rogue0".into(),
                check: "dma",
                detail: "pasid 1 va 0x0 Write: NotMapped".into(),
            },
            TraceData::Stage {
                stage: "client.issue",
                id: 99,
                aux: 1,
            },
            TraceData::LinkHop {
                src_machine: 0,
                dst_machine: 3,
                bytes: 192,
                uplink_ns: 40,
                spine_ns: 500,
                downlink_ns: 45,
            },
            TraceData::Text("free-form".into()),
        ];
        let mut kinds: Vec<_> = variants.iter().map(TraceData::kind).collect();
        kinds.dedup();
        assert_eq!(kinds.len(), 14, "one record per variant");

        let mut t = TraceSink::bounded(32);
        let shared: Arc<str> = "nic0".into();
        for (i, data) in variants.into_iter().enumerate() {
            t.emit_data(
                SimTime::from_nanos(i as u64 * 10),
                shared.clone(),
                CorrId(i as u64),
                data,
            );
        }
        let bytes = t.snapshot_bytes();
        // Handle-typed fields encode the bytes `String` fields did, so the
        // decode below is also a decode of a parent-written section.
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PARENT_SECTION_HEX);
        let mut back = TraceSink::disabled();
        let mut r = SnapReader::new("trace", &bytes);
        back.restore(&mut r).expect("well-formed");
        r.finish().expect("no trailing bytes");
        assert!(
            back.events().eq(t.events()),
            "records decode to equal records"
        );
        assert_eq!(back.total_emitted(), t.total_emitted());
        assert!(back.is_enabled());
        assert_eq!(back.snapshot_bytes(), bytes);
    }

    #[test]
    fn display_is_stable() {
        let e = TraceRecord {
            at: SimTime::from_nanos(1500),
            source: "bus".into(),
            corr: CorrId(3),
            data: TraceData::Text("hello".into()),
        };
        let s = e.to_string();
        assert!(s.contains("bus"));
        assert!(s.contains("hello"));
        assert!(s.contains("1.500us"));
        assert!(s.contains("c3"));
    }
}
