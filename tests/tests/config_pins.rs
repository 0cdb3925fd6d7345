//! The router, KVS-server and SSD sections, recorded while their
//! configuration carried fields nothing set but their own `Default`. Those
//! fields are constants now, and schema 3 dropped the values the sections
//! still wrote for them; a fresh instance and a short rack run must write
//! the bytes recorded then. Each section is held to its length and its
//! FNV-1a digest.
//!
//! The timing defaults the cost table declares are held the same way: the
//! `Debug` of each, recorded before they read a row.

use lastcpu_baseline::CpuCostModel;
use lastcpu_bus::{BusCostModel, RetryConfig, SecurityPolicy, SystemBus};
use lastcpu_core::devices::flash::{NandChip, NandConfig};
use lastcpu_core::devices::fs::FlashFs;
use lastcpu_core::devices::ftl::Ftl;
use lastcpu_core::devices::monitor::Monitor;
use lastcpu_core::devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_core::SystemConfig;
use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
use lastcpu_iommu::IommuCostModel;
use lastcpu_kvs::build::default_nand;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::router::RouterConfig;
use lastcpu_kvs::{build_rack_kvs, KvsNicApp, ServerConfig, ShardRouterHost};
use lastcpu_mem::{DramCostModel, Pasid};
use lastcpu_net::NetCostModel;
use lastcpu_sim::{BackoffPolicy, SimDuration, SimTime};
use lastcpu_snap::{fnv1a, Checkpoint, Field, SnapReader, Snapshot};

/// `(length, FNV-1a)` of a section body.
fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a(bytes))
}

fn fresh_ssd() -> SmartSsd {
    let fs = FlashFs::format(Ftl::new(NandChip::new(default_nand())));
    SmartSsd::new("ssd0", fs, SsdConfig::default())
}

#[test]
fn fresh_sections_write_the_recorded_bytes() {
    let router = ShardRouterHost::new(RouterConfig::default());
    let server = KvsNicApp::new(ServerConfig::default(), Pasid(0));
    let got = [
        pin(&router.snapshot_bytes()),
        pin(&server.snapshot_bytes()),
        pin(&fresh_ssd().snapshot_bytes()),
    ];
    assert_eq!(got, FRESH, "router, KVS server, SSD");
}

/// Four machines on leaf-spine:2, R = 2, a client per machine through its
/// local router, stopped mid-run: every machine's SSD (`dev1`), KVS NIC
/// (`dev2`) and router (`host0`) sections.
#[test]
fn a_rack_run_writes_the_recorded_sections() {
    let mut setup = build_rack_kvs(
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
            seed: 35,
            ..SystemConfig::default()
        },
    );
    for i in 0..4 {
        let router = setup.router_ports[i];
        let m = setup.fabric.machine_mut(setup.machines[i]);
        m.add_host(Box::new(KvsClientHost::new(
            router,
            WorkloadConfig {
                keys: 64,
                value_size: 128,
                outstanding: 4,
                total_ops: 10_000,
                preload: true,
                stats_prefix: format!("c{i}"),
                ..WorkloadConfig::default()
            },
        )));
    }
    setup.fabric.power_on();
    setup.fabric.run_until(SimTime::from_nanos(60_000_000));
    for i in 0..4 {
        assert!(
            setup.router(i).stats().requests > 200,
            "router {i} is serving"
        );
    }
    let ck = setup.fabric.checkpoint("pins").expect("rack checkpoints");
    let got: Vec<[(usize, u64); 3]> = (0..4)
        .map(|i| {
            let machine = Checkpoint::decode(ck.section(&format!("machine{i}")).unwrap())
                .expect("nested checkpoint");
            ["dev1", "dev2", "host0"].map(|tag| pin(machine.section(tag).expect(tag)))
        })
        .collect();
    assert_eq!(got, RACK, "per machine: SSD, KVS NIC, router");
}

/// The duration a fresh section writes as its `word`-th eight-byte word.
/// Neither the bus's heartbeat timeout nor the monitor's discovery window
/// has a getter; each sits at a fixed word of its section while the lists
/// before it are empty.
fn word(section: &[u8], word: usize) -> SimDuration {
    let mut r = SnapReader::new("pins", &section[8 * word..]);
    SimDuration::take(&mut r).expect("a word")
}

#[test]
fn timing_defaults_read_as_recorded() {
    let sys = SystemConfig::default();
    let fab = FabricConfig::default();
    let got = [
        format!("{:?}", BusCostModel::default()),
        format!("{:?}", NetCostModel::default()),
        format!("{:?}", CpuCostModel::default()),
        format!("{:?}", IommuCostModel::default()),
        format!("{:?}", DramCostModel::default()),
        format!("{:?}", NandConfig::default()),
        format!(
            "{:?}",
            (
                sys.bus_cost,
                sys.net_cost,
                sys.doorbell_latency,
                sys.reset_latency,
                sys.liveness_interval,
            )
        ),
        format!("{:?}", (fab.link_cost, fab.sync_interval, fab.dir_latency)),
        format!("{:?}", word(&SystemBus::new().snapshot_bytes(), 3)),
        format!("{:?}", word(&Monitor::new().snapshot_bytes(), 7)),
        format!("{:?}", (RetryConfig::default(), BackoffPolicy::default())),
        format!(
            "{:?}",
            (SecurityPolicy::default(), SecurityPolicy::hardened(64))
        ),
    ];
    for (got, want) in got.iter().zip(DEFAULTS) {
        assert_eq!(got, want);
    }
}

/// Bus, net, CPU, IOMMU and DRAM cost models; NAND; the timing fields of
/// `SystemConfig`, then of `FabricConfig`; a fresh bus's heartbeat timeout
/// and a fresh monitor's discovery window; RPC retry and backoff; the
/// default and the hardened security policy.
const DEFAULTS: [&str; 12] = [
    "BusCostModel { hop_latency: 200ns, processing: 300ns, per_byte_ps: 400 }",
    "NetCostModel { per_byte_ps: 100, switch_latency: 500ns, propagation: 1000ns }",
    "CpuCostModel { interrupt_entry: 1500ns, syscall: 2000ns, context_switch: 3000ns, \
     per_byte_copy_ps: 250 }",
    "IommuCostModel { tlb_lookup: 2ns, walk_per_access: 30ns, invalidate: 100ns }",
    "DramCostModel { access_latency: 60ns, per_byte_ps: 50 }",
    "NandConfig { blocks: 256, pages_per_block: 64, page_size: 4096, read_latency: 25000ns, \
     program_latency: 200000ns, erase_latency: 2000000ns, max_erase_cycles: 3000 }",
    "(BusCostModel { hop_latency: 200ns, processing: 300ns, per_byte_ps: 400 }, \
     NetCostModel { per_byte_ps: 100, switch_latency: 500ns, propagation: 1000ns }, \
     250ns, 100000ns, None)",
    "(NetCostModel { per_byte_ps: 40, switch_latency: 600ns, propagation: 2000ns }, \
     250000ns, 500ns)",
    "10000000ns",
    "50000ns",
    "(RetryConfig { timeout: 200000ns, backoff: BackoffPolicy { base: 10000ns, cap: 1000000ns, \
     max_retries: 5, jitter_pct: 25 } }, BackoffPolicy { base: 10000ns, cap: 1000000ns, \
     max_retries: 5, jitter_pct: 25 })",
    "(SecurityPolicy { deny_shadow_announce: false, flood_limit: None, \
     flood_window: 1000000ns }, SecurityPolicy { deny_shadow_announce: true, \
     flood_limit: Some(64), flood_window: 1000000ns })",
];

/// Router, KVS server (its NIC app), SSD.
const FRESH: [(usize, u64); 3] = [
    (194, 13500812114486793379),
    (252, 7252076606005376675),
    (81234, 1116295597284036068),
];

/// Per machine: SSD, KVS NIC, router.
const RACK: [[(usize, u64); 3]; 4] = [
    [
        (279911, 12048756151429113322),
        (3425, 15408905183047156450),
        (6235, 10640945094940786151),
    ],
    [
        (369015, 11404083679604989291),
        (4531, 2389058133731419180),
        (6235, 5047081782961687630),
    ],
    [
        (254400, 578569036002215806),
        (3773, 17842394225457566822),
        (6235, 1407307553873497075),
    ],
    [
        (365797, 13220600071343157616),
        (4527, 16840875151449289310),
        (6235, 11956077797247894549),
    ],
];
