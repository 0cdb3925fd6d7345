//! A restored trace ring reserves for the records its section carries, not
//! for the capacity the section declares: a section declaring 2^24 records
//! and carrying one reserves a few hundred bytes, where reserving for its
//! capacity would be 256 MiB. The ring then grows as records arrive.
//!
//! This file is its own test binary because it installs the counting global
//! allocator (`lastcpu_bench::alloc`), which counts only the thread that
//! runs a window.

use lastcpu_bench::alloc::{watch, CountingAlloc};
use lastcpu_sim::trace::MAX_RESTORED_CAPACITY;
use lastcpu_sim::{CorrId, SimTime, TraceData, TraceSink};
use lastcpu_snap::{Restore, SnapReader, Snapshot};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_restore_reserves_for_the_records_a_section_carries() {
    let mut t = TraceSink::bounded(4);
    let source = t.name("c0");
    let stage = |id| TraceData::Stage {
        stage: "client.issue",
        id,
        aux: 0,
    };
    t.emit_data(SimTime::from_nanos(7), source, CorrId(1), stage(1));
    let mut bytes = t.snapshot_bytes();
    // The capacity is the section's first field.
    bytes[..8].copy_from_slice(&(MAX_RESTORED_CAPACITY as u64).to_le_bytes());

    let mut back = TraceSink::disabled();
    let (restored, seen) = watch(|| back.restore(&mut SnapReader::new("trace", &bytes)));
    restored.expect("a declared capacity at the bound restores");
    let reserved = seen.bytes;
    assert!(
        reserved < 64 << 10,
        "a one-record section reserved {reserved} B"
    );

    // The ring grows as records arrive, and keeps every one below the
    // declared capacity.
    for id in 2..=100_000 {
        back.emit_data(SimTime::from_nanos(7 + id), source, CorrId(id), stage(id));
    }
    assert_eq!(back.len(), 100_000);
    let ids = back.events().map(|e| match e.data {
        TraceData::Stage { id, .. } => id,
        other => panic!("{other:?}"),
    });
    assert!(ids.eq(1..=100_000));
    assert_eq!(back.snapshot_bytes()[..8], bytes[..8]);
}
