//! Trace records changed representation (shared `Arc<str>` names instead of
//! a fresh `String` per mark); nothing a reader of the trace can see may
//! have moved. A small `kv_hot_get`-shaped machine runs with tracing on and
//! its exports and checkpoint are held to values recorded at the commit
//! before the change.

use lastcpu_bench::drivers::{ControlMode, SetupClient};
use lastcpu_core::devices::device::Device;
use lastcpu_core::devices::flash::{NandChip, NandConfig};
use lastcpu_core::devices::fs::FlashFs;
use lastcpu_core::devices::ftl::Ftl;
use lastcpu_core::devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_core::{DeviceHandle, System, SystemConfig};
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::{build_cpuless_kvs, ServerConfig};
use lastcpu_sim::{export, SimDuration};
use lastcpu_snap::{fnv1a, fnv1a_fold, Checkpoint, SnapReader, SnapWriter};

/// FNV-1a and byte length of each export, the record count, and a digest
/// over every checkpoint section (tag and bytes). The manifest is left out:
/// its `config_fp` hashes the `Debug` text of `SystemConfig`, which moves
/// whenever a config field is added or removed without any state changing.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    jsonl: (u64, usize),
    chrome: (u64, usize),
    prometheus: (u64, usize),
    records: usize,
    emitted: u64,
    checkpoint: u64,
}

const PARENT: Observed = Observed {
    jsonl: (1447353109249548547, 1539622),
    chrome: (15719403525993426421, 2532326),
    prometheus: (3757536611359131634, 7906),
    records: 15329,
    emitted: 15329,
    checkpoint: 6080328485652035253,
};

fn observe() -> Observed {
    let mut setup = build_cpuless_kvs(
        SystemConfig {
            seed: 11,
            ..SystemConfig::default()
        },
        SsdConfig::default(),
        ServerConfig {
            cache_entries: 512,
            ..ServerConfig::default()
        },
    );
    assert!(setup.system.trace().is_enabled(), "tracing is the default");
    let clients: Vec<_> = (0..2)
        .map(|i| {
            setup.system.add_host(Box::new(KvsClientHost::new(
                setup.kvs_port,
                WorkloadConfig {
                    keys: 400,
                    theta: 0.99,
                    read_fraction: 0.95,
                    value_size: 128,
                    outstanding: 8,
                    total_ops: 600,
                    preload: true,
                    stats_prefix: format!("c{i}"),
                    ..WorkloadConfig::default()
                },
            )))
        })
        .collect();
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_secs(5));
    for &p in &clients {
        let c: &KvsClientHost = setup.system.host_as(p).expect("client port");
        assert!(c.is_done(), "client finished its 600 ops");
        assert_eq!(c.errors() + c.timeouts(), 0);
    }
    let sized = |s: String| (fnv1a(s.as_bytes()), s.len());
    let trace = setup.system.trace();
    Observed {
        jsonl: sized(export::trace_jsonl(trace)),
        chrome: sized(export::trace_chrome(trace)),
        prometheus: sized(export::metrics_prometheus(setup.system.stats())),
        records: trace.len(),
        emitted: trace.total_emitted(),
        checkpoint: sections_digest(
            &setup
                .system
                .checkpoint("trace-repr")
                .expect("every component snapshots"),
        ),
    }
}

fn sections_digest(ck: &Checkpoint) -> u64 {
    let mut h = fnv1a(b"sections");
    for tag in ck.section_tags() {
        fnv1a_fold(&mut h, tag.as_bytes());
        fnv1a_fold(&mut h, ck.section(tag).expect("listed section"));
    }
    h
}

#[test]
fn traced_kv_run_exports_and_checkpoints_as_before() {
    let first = observe();
    assert_eq!(first, observe(), "same seed, same bytes");
    assert_eq!(first, PARENT);
}

/// The control plane's own machine — a memory controller, an SSD and four
/// devices looping the Figure-2 setup — as `(every checkpoint section, the
/// `trace` section alone, the JSONL export)`, recorded at the commit that
/// gave `SetupClient` its snapshot hooks, before bus delivery borrowed and
/// before `BusSend::dst`, `Discovery::dst`, `IommuMap::perms` and
/// `SecurityDenial::check` became handles.
const PARENT_CTL: (u64, u64, (u64, usize)) = (
    8712181787588549560,
    7876395069070514902,
    (4218396763108295616, 493476),
);

fn ctl_machine() -> (System, Vec<DeviceHandle>) {
    const FILE: &str = "/data/ctl.db";
    let mut sys = System::new(SystemConfig {
        seed: 11,
        ..SystemConfig::default()
    });
    assert!(sys.trace().is_enabled(), "tracing is the default");
    let memctl = sys.add_memctl("memctl0");
    let mut fs = FlashFs::format(Ftl::new(NandChip::new(NandConfig::default())));
    fs.create(FILE).expect("fresh filesystem");
    sys.add_device(Box::new(SmartSsd::new(
        "ssd0",
        fs,
        SsdConfig {
            exports: vec![FILE.into()],
            ..SsdConfig::default()
        },
    )));
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let mut c = SetupClient::new(
                &format!("client{i}"),
                ControlMode::Decentralized,
                &format!("file:{FILE}"),
                40,
            );
            c.memctl_hint_value = memctl.id;
            sys.add_device(Box::new(c))
        })
        .collect();
    sys.power_on();
    (sys, clients)
}

fn observe_ctl() -> (u64, u64, (u64, usize)) {
    let (mut sys, clients) = ctl_machine();
    // Stops mid-setup: pending discoveries, open sessions and queued bus
    // events are all in the checkpoint.
    sys.run_for(SimDuration::from_micros(1_500));
    for &h in &clients {
        let c: &SetupClient = sys.device_as(h).expect("client handle");
        assert!(!c.failed && !c.is_done() && c.latencies.len() > 10);
        // The hooks invert each other on a client caught mid-setup.
        let mut w = SnapWriter::new();
        c.snapshot_state(&mut w).expect("client snapshots");
        let bytes = w.into_bytes();
        let mut fresh = SetupClient::new("", ControlMode::Decentralized, "", 0);
        let mut r = SnapReader::new("client", &bytes);
        fresh.restore_state(&mut r).expect("client restores");
        r.finish().expect("restore consumes the section");
        let mut w = SnapWriter::new();
        fresh.snapshot_state(&mut w).expect("client snapshots");
        assert_eq!(w.into_bytes(), bytes);
    }
    let ck = sys
        .checkpoint("trace-repr-ctl")
        .expect("every device snapshots");
    ctl_machine()
        .0
        .restore_from(&ck)
        .expect("a fresh machine replays to the same bytes");
    let jsonl = export::trace_jsonl(sys.trace());
    (
        sections_digest(&ck),
        fnv1a(ck.section("trace").expect("trace section")),
        (fnv1a(jsonl.as_bytes()), jsonl.len()),
    )
}

#[test]
fn traced_figure2_run_checkpoints_as_before() {
    let first = observe_ctl();
    assert_eq!(first, observe_ctl(), "same seed, same bytes");
    assert_eq!(first, PARENT_CTL);
}
