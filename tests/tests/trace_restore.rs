//! What restoring a trace section costs, and that its name memo changes
//! nothing it restores.
//!
//! A restore reads each record's names as the bytes the section stores
//! them as, and looks each distinct name up once: its per-sink memo
//! borrows its keys from the section, so restoring allocates no more for
//! 65,536 records than for 1,000 that carry the same names. The memo lives
//! for one restore of one sink: restoring sinks whose tables hand out other
//! handles, one after the other on one thread, reads back each sink's own
//! names.
//!
//! This file is its own test binary because it installs the counting global
//! allocator (`lastcpu_bench::alloc`), which counts only the thread that
//! runs a window.

use lastcpu_bench::alloc::{watch, CountingAlloc};
use lastcpu_sim::trace::MAX_NAMES;
use lastcpu_sim::{CorrId, SimTime, TraceData, TraceSink};
use lastcpu_snap::{Restore, SnapError, Snapshot};
use proptest::prelude::*;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The static strings the records below carry.
const STATICS: [&str; 4] = ["client.issue", "KvsRequest", "Query", "iommu.map"];

/// A sink of `n` records of every variant that carries no text of its
/// own, naming only `nic0`, `ssd0`, `bus` and `mem` and the [`STATICS`].
fn no_text_records(n: u64) -> TraceSink {
    let mut t = TraceSink::bounded(n as usize);
    let names = ["nic0", "ssd0", "bus", "mem"].map(|s| t.name(s));
    for i in 0..n {
        let (a, b) = (names[(i % 4) as usize], names[((i / 4) % 4) as usize]);
        let s = STATICS[(i % 3) as usize];
        let data = match i % 12 {
            0 => TraceData::BusSend { what: s, dst: a },
            1 => TraceData::Discovery { pattern: a, dst: b },
            2 => TraceData::Deliver { to: b, kind: s },
            3 => TraceData::IommuMap {
                device: a,
                pasid: i as u32,
                va: i << 12,
                pa: i << 20,
                pages: i % 7,
                perms: b,
            },
            4 => TraceData::IommuUnmap {
                device: b,
                pasid: 3,
                va: i,
                pages: 1,
            },
            5 => TraceData::DmaGrant {
                to: a,
                pages: i,
                writable: i % 2 == 0,
            },
            6 => TraceData::QueueDoorbell { to: b, value: i },
            7 => TraceData::Stage {
                stage: s,
                id: i,
                aux: i % 5,
            },
            8 => TraceData::LinkHop {
                src_machine: (i % 16) as u16,
                dst_machine: 3,
                bytes: 1100,
                uplink_ns: 880,
                spine_ns: i % 300,
                downlink_ns: 880,
            },
            9 => TraceData::LinkEnter {
                port: i as u32,
                bytes: 64,
            },
            10 => TraceData::LinkExit { port: 2, bytes: i },
            _ => TraceData::QueueAttached {
                conn: i,
                base: i << 12,
                size: 256,
            },
        };
        t.emit_data(SimTime::from_nanos(100 * i), a, CorrId(i / 3), data);
    }
    t
}

/// The allocations of restoring `section` into a fresh default sink.
fn restore_allocs(section: &[u8]) -> u64 {
    let mut t = TraceSink::default();
    let (restored, seen) = watch(|| t.restore_bytes("trace", section));
    restored.expect("restores");
    seen.allocs
}

#[test]
fn restoring_allocates_the_same_for_1000_and_65536_records() {
    let (small, large) = (no_text_records(1_000), no_text_records(65_536));
    let (small, large) = (small.snapshot_bytes(), large.snapshot_bytes());
    // The first restore interns the static strings for the process.
    restore_allocs(&small);
    let (few, many) = (restore_allocs(&small), restore_allocs(&large));
    assert_eq!(
        few, many,
        "1,000 records: {few} allocations; 65,536: {many}"
    );
    // The table's own entries for the four names, and no more than a
    // handful besides.
    assert!(many <= 16, "{many} allocations");
}

/// Each retained record as its sink renders it, with its source and names.
fn lines(t: &TraceSink) -> Vec<String> {
    t.events()
        .map(|e| format!("{e} | {} | {:?}", e.source(), e.data.kind()))
        .collect()
}

/// What a restored sink must read back: the bytes it was restored from,
/// and the records the original holds.
fn round_trips(original: &TraceSink, into: &mut TraceSink) -> Result<(), TestCaseError> {
    let bytes = original.snapshot_bytes();
    into.restore_bytes("trace", &bytes)
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(into.snapshot_bytes(), bytes);
    prop_assert_eq!(lines(into), lines(original));
    Ok(())
}

/// A sink holding `fill` table names `f0`, `f1`, ... interned first.
fn seeded(fill: usize, capacity: usize) -> TraceSink {
    let mut t = TraceSink::bounded(capacity);
    for i in 0..fill {
        t.name(&format!("f{i}"));
    }
    t
}

/// Emits record `op` of a drawn sequence into `t`: a variant by number,
/// names from `pool` (through `name_or_text`, so past a full table they
/// ride as text), a static string, a text for the variants that have one.
fn emit(t: &mut TraceSink, op: (u64, u64, u64, u64), pool: &[String]) {
    let (variant, x, y, v) = op;
    let pick = |k: u64| pool[(k % pool.len() as u64) as usize].as_str();
    let source = t.name_or_text(pick(x));
    let s = STATICS[(y % STATICS.len() as u64) as usize];
    let at = SimTime::from_nanos(v % 1_000_000);
    let corr = CorrId(v % 7);
    let mut name = |k| t.name_or_text(pick(k));
    let data = match variant {
        0 => TraceData::BusSend {
            what: s,
            dst: name(y),
        },
        1 => TraceData::Discovery {
            pattern: name(y),
            dst: name(y / 3),
        },
        2 => TraceData::Deliver {
            to: name(y),
            kind: s,
        },
        3 => TraceData::BusRegister,
        4 => TraceData::IommuMap {
            device: name(y),
            pasid: v as u32,
            va: v,
            pa: v << 3,
            pages: y,
            perms: name(x + 1),
        },
        5 => TraceData::IommuUnmap {
            device: name(y),
            pasid: 1,
            va: v,
            pages: x,
        },
        6 => TraceData::MapFailure,
        7 => TraceData::DmaGrant {
            to: name(y),
            pages: v,
            writable: v % 2 == 1,
        },
        8 => TraceData::QueueDoorbell {
            to: name(y),
            value: v,
        },
        9 => TraceData::DeviceFault { device: name(y) },
        10 => TraceData::SecurityDenial {
            device: name(y),
            check: s,
        },
        11 => TraceData::Stage {
            stage: s,
            id: v,
            aux: y,
        },
        12 => TraceData::LinkHop {
            src_machine: x as u16,
            dst_machine: y as u16,
            bytes: v,
            uplink_ns: v / 3,
            spine_ns: v / 5,
            downlink_ns: v / 7,
        },
        13 => TraceData::Text,
        14 => TraceData::LinkEnter {
            port: y as u32,
            bytes: v,
        },
        15 => TraceData::LinkExit {
            port: x as u32,
            bytes: v,
        },
        _ => TraceData::QueueAttached {
            conn: v,
            base: v << 12,
            size: y as u16,
        },
    };
    if data.has_text() {
        t.emit_text(at, source, corr, data, format!("text {v}"));
    } else {
        t.emit_data(at, source, corr, data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Snapshot, restore, snapshot: byte-identical, and the restored sink
    /// renders every record the original holds, for every variant, with
    /// static strings, texts, and names that ride as text because the
    /// original's table was full. Two sinks whose tables number the same
    /// names differently are restored one after the other on this thread,
    /// into fresh sinks and into sinks whose tables are seeded (the second
    /// full, so names ride as text on the way in too): no restore reads
    /// another's handles. A restored sink then takes more records as the
    /// original does.
    fn snapshot_restore_snapshot_is_identical(
        ops in proptest::collection::vec((0u64..17, 0u64..40, 0u64..40, 0u64..1_000_000), 1..120),
        capacity in 1usize..100,
        full in proptest::arbitrary::any::<bool>(),
    ) {
        let pool: Vec<String> = (0..12).map(|i| format!("dev{i}")).collect();
        let reversed: Vec<String> = pool.iter().rev().cloned().collect();
        let fill = if full { MAX_NAMES - 4 } else { 0 };
        let mut first = seeded(fill, capacity);
        let mut second = seeded(0, capacity);
        for &op in &ops {
            emit(&mut first, op, &pool);
            emit(&mut second, op, &reversed);
        }
        for (original, pool) in [(&mut first, &pool), (&mut second, &reversed)] {
            // A sink with a record of its own, whose time the restored
            // records must not count from.
            let mut back = TraceSink::bounded(1);
            emit(&mut back, (11, 1, 2, 987_654), pool);
            round_trips(original, &mut back)?;
            round_trips(original, &mut seeded(7, 1))?;
            round_trips(original, &mut seeded(MAX_NAMES, 1))?;
            // Records emitted after the restore extend it as they extend
            // the original, evicting the restored ones past its capacity.
            for &op in ops.iter().cycle().take(capacity + 3) {
                emit(original, op, pool);
                emit(&mut back, op, pool);
                prop_assert_eq!(lines(&back), lines(original));
            }
        }
    }
}

/// A name that recurs is checked on every record its bytes differ on: a
/// later record whose copy of the name is not UTF-8 (the earlier copies
/// are) still fails the restore as `Corrupt`, for a table name and for a
/// static string.
#[test]
fn a_recurring_name_that_turns_invalid_is_refused() {
    let mut t = TraceSink::bounded(8);
    let nic = t.name("nic0");
    for i in 0..4 {
        t.emit_data(
            SimTime::from_nanos(i),
            nic,
            CorrId::NONE,
            TraceData::Stage {
                stage: "client.issue",
                id: i,
                aux: 0,
            },
        );
    }
    let bytes = t.snapshot_bytes();
    for (name, bad) in [
        (&b"nic0"[..], &b"nic\xff"[..]),
        (b"client.issue", b"client.iss\xc3\x28"),
    ] {
        let at: Vec<usize> = (0..=bytes.len() - name.len())
            .filter(|&i| &bytes[i..i + name.len()] == name)
            .collect();
        assert_eq!(
            at.len(),
            4,
            "{:?} once per record",
            String::from_utf8_lossy(name)
        );
        let mut doctored = bytes.clone();
        doctored[at[2]..at[2] + name.len()].copy_from_slice(bad);
        match TraceSink::bounded(8).restore_bytes("trace", &doctored) {
            Err(SnapError::Corrupt { detail, .. }) => {
                assert!(detail.contains("invalid utf-8"), "{detail}")
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }
}
