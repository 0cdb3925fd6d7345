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

/// A rack checkpoint's `machine…` sections are checkpoints themselves: each
/// is opened and folded section by section in place of its encoding, so its
/// manifest stays out too. A machine's own tags never start with `machine`.
fn sections_digest(ck: &Checkpoint) -> u64 {
    fn fold(h: &mut u64, ck: &Checkpoint) {
        for tag in ck.section_tags() {
            let bytes = ck.section(tag).expect("listed section");
            fnv1a_fold(h, tag.as_bytes());
            if tag.starts_with("machine") {
                let machine = Checkpoint::decode(bytes).expect("machine section decodes");
                fold(h, &machine);
            } else {
                fnv1a_fold(h, bytes);
            }
        }
    }
    let mut h = fnv1a(b"sections");
    fold(&mut h, ck);
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

/// A traced rack: four machines on leaf-spine:2 (so half the replica pairs
/// sit across the spine), R = 2, one closed-loop client per machine through
/// its local shard router. Recorded at the commit before the fabric-link
/// records became typed and the router began serving the borrowed frame.
mod rack {
    use super::*;
    use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
    use lastcpu_kvs::{build_rack_kvs_with_policy, RackSetup, RetryPolicy};
    use lastcpu_sim::SimTime;

    /// Exports of [`Fabric::merged_trace`], its record count, and
    /// [`sections_digest`] of the rack checkpoint.
    #[derive(Debug, PartialEq, Eq)]
    struct RackObserved {
        jsonl: (u64, usize),
        chrome: (u64, usize),
        records: usize,
        /// Stopped mid-run: routers hold pending requests with subs in flight.
        mid_checkpoint: u64,
        /// The `trace` section of machine 0 at that moment, on its own.
        mid_m0_trace: u64,
        end_checkpoint: u64,
    }

    const PARENT_RACK: RackObserved = RackObserved {
        jsonl: (2839614355391125304, 5029816),
        chrome: (4122591985127384430, 7978206),
        records: 40634,
        mid_checkpoint: 15635029721062338613,
        mid_m0_trace: 15898290914135771251,
        end_checkpoint: 17730250270755029054,
    };

    /// When the mid-run checkpoint is taken.
    const MID: SimTime = SimTime::from_nanos(4_000_000);

    fn rack() -> (RackSetup, Vec<lastcpu_net::PortId>) {
        let mut setup = build_rack_kvs_with_policy(
            FabricConfig {
                topology: TopologyConfig {
                    kind: TopoKind::LeafSpine { leaf_size: 2 },
                    oversub: 1,
                },
                ..FabricConfig::default()
            },
            4,
            2,
            SystemConfig {
                seed: 24,
                trace: true,
                ..SystemConfig::default()
            },
            RetryPolicy::default(),
        );
        let mut clients = Vec::new();
        for i in 0..4 {
            let router = setup.router_ports[i];
            let machine = setup.fabric.machine_mut(setup.machines[i]);
            clients.push(machine.add_host(Box::new(KvsClientHost::new(
                router,
                WorkloadConfig {
                    keys: 32,
                    theta: 0.9,
                    read_fraction: 0.7,
                    value_size: 200,
                    outstanding: 4,
                    total_ops: 150,
                    preload: true,
                    stats_prefix: format!("c{i}"),
                    ..WorkloadConfig::default()
                },
            ))));
        }
        setup.fabric.power_on();
        (setup, clients)
    }

    fn m0_trace_digest(ck: &Checkpoint) -> u64 {
        let m0 = ck
            .section_tags()
            .find(|t| t.starts_with("machine"))
            .expect("a machine section")
            .to_owned();
        let m0 = Checkpoint::decode(ck.section(&m0).expect("listed")).expect("decodes");
        fnv1a(m0.section("trace").expect("trace section"))
    }

    fn observe_rack() -> RackObserved {
        let (mut setup, clients) = rack();
        let client = |setup: &RackSetup, i: usize| -> (bool, u64) {
            let c: &KvsClientHost = setup
                .fabric
                .machine(setup.machines[i])
                .host_as(clients[i])
                .expect("client port");
            (c.is_done(), c.errors() + c.timeouts())
        };
        setup.fabric.run_until(MID);
        for i in 0..4 {
            assert!(
                setup.router(i).stats().requests > 0,
                "router {i} is serving"
            );
            assert!(!client(&setup, i).0, "client {i} is mid-run");
        }
        let mid = setup
            .fabric
            .checkpoint("trace-repr-rack")
            .expect("rack checkpoints");
        // A fresh rack replays to the same bytes (`restore_from` verifies
        // every section), records rendered at checkpoint time included.
        rack()
            .0
            .fabric
            .restore_from(&mid)
            .expect("a fresh rack replays to the same bytes");
        setup.fabric.run_for(SimDuration::from_secs(2));
        for i in 0..4 {
            assert_eq!(client(&setup, i), (true, 0), "client {i} finished cleanly");
        }
        let merged = setup.fabric.merged_trace();
        for crossing in [
            "frame exits to fabric link",
            "frame enters from fabric link",
        ] {
            assert!(
                merged.containing(crossing).count() > 2_000,
                "{crossing}: the run crosses the fabric"
            );
        }
        let sized = |s: String| (fnv1a(s.as_bytes()), s.len());
        let end = setup
            .fabric
            .checkpoint("trace-repr-rack")
            .expect("rack checkpoints");
        RackObserved {
            jsonl: sized(export::trace_jsonl(&merged)),
            chrome: sized(export::trace_chrome(&merged)),
            records: merged.len(),
            mid_checkpoint: sections_digest(&mid),
            mid_m0_trace: m0_trace_digest(&mid),
            end_checkpoint: sections_digest(&end),
        }
    }

    #[test]
    fn traced_rack_exports_and_checkpoints_as_before() {
        let first = observe_rack();
        assert_eq!(first, observe_rack(), "same seed, same bytes");
        assert_eq!(first, PARENT_RACK);
    }
}
