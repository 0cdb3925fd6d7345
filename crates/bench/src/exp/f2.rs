//! F2 — Figure 2 replay: the KV-store initialization sequence on the
//! CPU-less system.
//!
//! Builds the §3 machine (smart NIC + smart SSD + memory controller +
//! system bus), powers it on, and reconstructs the paper's seven-step
//! message-sequence chart from the protocol trace, with virtual-time
//! stamps. No CPU is involved in any step.

use lastcpu_core::devices::nic::SmartNic;
use lastcpu_core::SystemConfig;
use lastcpu_kvs::server::{ServerConfig, ServerState};
use lastcpu_kvs::{build_cpuless_kvs, KvsNicApp};
use lastcpu_sim::{export, SimDuration, SimTime};

use super::{Experiment, Gates};
use crate::cli::Args;
use crate::obs::ObsArgs;
use crate::report::{us, Cell, Report};
use crate::Json;

pub const EXP: Experiment = Experiment {
    name: "f2",
    title: "F2: Figure-2 initialization sequence replay (virtual time)",
    run,
    check,
    ..Experiment::PLAIN
};

/// The paper's steps, matched against trace records in order.
const STEPS: &[(&str, &str, &str)] = &[
    (
        "1",
        "NIC broadcasts file-name discovery",
        "sends Query(file:",
    ),
    ("2", "SSD answers it owns the file", "-> nic0: QueryHit"),
    (
        "3",
        "NIC opens the file service (token)",
        "-> ssd0: OpenRequest",
    ),
    (
        "4",
        "SSD replies: connection + shm size",
        "-> nic0: OpenResponse",
    ),
    (
        "5",
        "NIC asks memctl to allocate shm",
        "-> memctl0: MemAlloc",
    ),
    (
        "6",
        "bus programs the NIC's IOMMU",
        "programmed IOMMU of dev:3",
    ),
    (
        "6b",
        "memctl confirms the allocation",
        "-> nic0: MemAllocResponse",
    ),
    ("7", "NIC grants the region to the SSD", "-> memctl0: Share"),
    (
        "7b",
        "bus programs the SSD's IOMMU",
        "programmed IOMMU of dev:2",
    ),
    ("8", "NIC programs VIRTIO queue, doorbell", "queue attached"),
];

/// The fields the JSONL exporter promises on every record.
const TRACE_FIELDS: [&str; 5] = ["at_ns", "source", "corr", "kind", "what"];

fn run(args: &Args) -> Result<Vec<Cell>, String> {
    let obs = ObsArgs::from_args(args);
    let mut config = SystemConfig::default();
    obs.apply(&mut config);
    let mut setup = build_cpuless_kvs(config, Default::default(), ServerConfig::default());
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_millis(20));

    let nic: &SmartNic<KvsNicApp> = setup.system.device_as(setup.frontend).expect("nic present");
    assert_eq!(
        nic.app().state(),
        ServerState::Ready,
        "init sequence did not complete"
    );

    let events: Vec<_> = setup.system.trace().events().cloned().collect();
    let mut cells = Vec::new();
    let mut cursor = 0usize;
    let mut stamps: Vec<SimTime> = Vec::new();
    for (step, what, needle) in STEPS {
        let mut cell = Cell::new("steps")
            .id("step", *step)
            .exact("what", *what, "");
        let found = events[cursor..]
            .iter()
            .position(|e| e.what().contains(needle));
        if let Some(off) = found {
            let at = events[cursor + off].at;
            cursor += off + 1;
            let delta = stamps.last().map_or(SimDuration::ZERO, |&p| at.since(p));
            cell = cell.exact("t_us", us(at.since(SimTime::ZERO)), "us").exact(
                "delta_us",
                us(delta),
                "us",
            );
            stamps.push(at);
        }
        cells.push(cell);
    }

    // The exported trace, read back the way a consumer would.
    let jsonl = export::trace_jsonl(setup.system.trace());
    let records: Vec<Json> = jsonl.lines().filter_map(|l| Json::parse(l).ok()).collect();
    let well_formed = |r: &&Json| TRACE_FIELDS.iter().all(|f| r.get(f).is_some());
    let corrs: std::collections::BTreeSet<String> = records
        .iter()
        .filter_map(|r| r.get("corr").map(|c| c.dump()))
        .collect();

    let handshake = match (stamps.first(), stamps.last()) {
        (Some(&first), Some(&last)) => last.since(first),
        _ => SimDuration::ZERO,
    };
    let bus = setup.system.bus().stats();
    cells.push(
        Cell::new("summary")
            .exact("handshake_us", us(handshake), "us")
            .exact("bus_messages", bus.messages, "count")
            .exact("bus_bytes", bus.bytes, "B")
            .exact(
                "pages_mapped",
                setup.system.stats().counter("bus.pages_mapped"),
                "count",
            )
            .exact("trace_lines", jsonl.lines().count(), "count")
            .exact(
                "trace_records_well_formed",
                records.iter().filter(well_formed).count(),
                "count",
            )
            .exact("trace_correlation_ids", corrs.len(), "count"),
    );
    obs.dump(&setup.system);
    Ok(cells)
}

fn check(r: &Report) -> Vec<String> {
    let mut g = Gates::default();
    let steps = r.group("steps").count();
    g.require(
        steps == STEPS.len(),
        format!("{steps} steps, expected {}", STEPS.len()),
    );
    for c in r.group("steps") {
        g.require(
            c.get("t_us").is_some(),
            format!("{}: not found in the trace", c.label()),
        );
    }
    let Some(s) = r.group("summary").next() else {
        g.require(false, "no summary cell".into());
        return g.0;
    };
    let (lines, ok) = (s.num("trace_lines"), s.num("trace_records_well_formed"));
    let what = format!("trace shape: {ok} of {lines} JSONL records carry {TRACE_FIELDS:?}");
    g.require(lines > 0.0 && lines == ok, what);
    let corrs = s.num("trace_correlation_ids");
    g.require(
        corrs > 1.0,
        format!("trace shape: {corrs} correlation ids, expected several"),
    );
    g.0
}
