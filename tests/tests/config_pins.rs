//! The router, KVS-server and SSD sections, recorded while their
//! configuration carried fields nothing set but their own `Default`. Those
//! fields are constants now, and each section still writes every such value
//! at its old position until the next `SCHEMA_VERSION` drops them, so a
//! fresh instance and a short rack run must write the bytes they wrote
//! then. Each section is held to its length and its FNV-1a digest.
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
use lastcpu_snap::{fnv1a, Checkpoint, Field, Restore, SnapError, SnapReader, Snapshot};

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

/// `bytes` with `value` written `offset` bytes into the last run equal to
/// `around`, which must be there.
fn doctored(bytes: &[u8], around: &[u8], offset: usize, value: &[u8]) -> Vec<u8> {
    let at = offset
        + bytes
            .windows(around.len())
            .rposition(|w| w == around)
            .expect("the pinned value in place");
    let mut out = bytes.to_vec();
    out[at..at + value.len()].copy_from_slice(value);
    out
}

/// `fresh` refuses `bytes` as corrupt, naming `pinned`.
fn refuses<T: Restore>(mut fresh: T, bytes: &[u8], pinned: &str) {
    let err = fresh.restore_bytes("pins", bytes).expect_err(pinned);
    assert!(
        matches!(err, SnapError::Corrupt { .. }) && err.to_string().contains(pinned),
        "{pinned}: {err}"
    );
}

/// Each value a section carries for a constant is refused when it reads
/// any other. The router's policy tag is the one dispatch policy's, 3: tag
/// 0 (the retired `static` arm) restored before the policy became the only
/// one, and 1 and 2 are the arms retired before it.
#[test]
fn a_pinned_value_refuses_any_other() {
    let router = ShardRouterHost::new(RouterConfig::default()).snapshot_bytes();
    let fresh_router = || ShardRouterHost::new(RouterConfig::default());
    fresh_router()
        .restore_bytes("router", &router)
        .expect("undoctored");
    let kind = doctored(&router, b"smart-nic", 0, b"smart-nix");
    refuses(fresh_router(), &kind, "router service kind");
    // Tick, sub-timeout, retry budget, policy tag, RTT multiplier, busy
    // backoff: one run of bytes after the virtual-node count.
    let timing: Vec<u8> = [
        &1_000_000u64.to_le_bytes()[..],
        &5_000_000u64.to_le_bytes(),
        &24u32.to_le_bytes(),
        &[3],
        &4u64.to_le_bytes(),
        &2_000_000u64.to_le_bytes(),
    ]
    .concat();
    for (offset, value, pinned) in [
        (0, &2_000_000u64.to_le_bytes()[..], "router tick"),
        (8, &5_000_001u64.to_le_bytes(), "router sub-timeout"),
        (16, &25u32.to_le_bytes(), "router retry budget"),
        (20, &[0], "router policy tag"),
        (20, &[1], "router policy tag"),
        (20, &[2], "router policy tag"),
        (21, &5u64.to_le_bytes(), "router RTT multiplier"),
        (29, &2_000_001u64.to_le_bytes(), "router busy backoff"),
    ] {
        refuses(
            fresh_router(),
            &doctored(&router, &timing, offset, value),
            pinned,
        );
    }

    let server = KvsNicApp::new(ServerConfig::default(), Pasid(0)).snapshot_bytes();
    let fresh_server = || KvsNicApp::new(ServerConfig::default(), Pasid(0));
    fresh_server()
        .restore_bytes("server", &server)
        .expect("undoctored");
    // The VA base before the queue size (64), which is still configured.
    let va = [&0x2000_0000u64.to_le_bytes()[..], &64u16.to_le_bytes()].concat();
    let moved = 0x2100_0000u64.to_le_bytes();
    refuses(
        fresh_server(),
        &doctored(&server, &va, 0, &moved),
        "server VA base",
    );
    // The cost after the queue size and the cache size (0).
    let cost = [
        &64u16.to_le_bytes()[..],
        &0u64.to_le_bytes(),
        &500u64.to_le_bytes(),
    ]
    .concat();
    let dearer = 501u64.to_le_bytes();
    refuses(
        fresh_server(),
        &doctored(&server, &cost, 10, &dearer),
        "server per-request cost",
    );

    let ssd = fresh_ssd().snapshot_bytes();
    fresh_ssd().restore_bytes("ssd", &ssd).expect("undoctored");
    let overhead = 1_000u64.to_le_bytes();
    let slower = 2_000u64.to_le_bytes();
    refuses(
        fresh_ssd(),
        &doctored(&ssd, &overhead, 0, &slower),
        "SSD per-request overhead",
    );
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
    (248, 2522362332308006509),
    (276, 16890829933471713274),
    (81242, 8675393856203603591),
];

/// Per machine: SSD, KVS NIC, router.
const RACK: [[(usize, u64); 3]; 4] = [
    [
        (279919, 8144389424291083379),
        (3449, 6212846314253764325),
        (6289, 1126085143471456359),
    ],
    [
        (369023, 3498466455201638270),
        (4555, 1346315227300905647),
        (6289, 17598499728674281838),
    ],
    [
        (254408, 4643531963547850191),
        (3797, 843051725826529629),
        (6289, 17732988991621306803),
    ],
    [
        (365805, 13361631576715499217),
        (4551, 7995795093238698641),
        (6289, 15341369877770014913),
    ],
];
