//! Every checkpoint reader against the writer beside it. `restore_from`
//! replays and verifies and never calls a `Restore`, so the checkpoint pins
//! cannot see a reader drift from its writer; these can. Each component's
//! snapshot of state a run reached is restored into a fresh instance, and
//! the fresh instance's snapshot must be the same bytes.
//!
//! The machine-wide sections come from a traced KVS machine (security audit
//! and RPC retries on) and a traced four-machine rack; device internals are
//! read out of the live devices or driven the way their crates' tests
//! drive them.

use lastcpu_baseline::{CpuDevice, IdleApp};
use lastcpu_bench::drivers::{ControlMode, SetupClient};
use lastcpu_bus::{
    CorrId, DeviceId, Dst, Envelope, MapOp, Payload, RequestId, ResourceKind, RetryConfig,
    RpcTracker, SystemBus,
};
use lastcpu_core::devices::accel::Accelerator;
use lastcpu_core::devices::device::Device;
use lastcpu_core::devices::firmware::Firmware;
use lastcpu_core::devices::flash::NandChip;
use lastcpu_core::devices::fs::FlashFs;
use lastcpu_core::devices::ftl::Ftl;
use lastcpu_core::devices::monitor::Monitor;
use lastcpu_core::devices::nic::{EchoApp, SmartNic};
use lastcpu_core::devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_core::{MemCtlDevice, System, SystemConfig};
use lastcpu_fabric::{FabricConfig, HashRing, TopoKind, TopologyConfig};
use lastcpu_iommu::{AccessKind, Iommu, Iotlb};
use lastcpu_kvs::build::{default_nand, KVS_FILE};
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::engine::LogScanner;
use lastcpu_kvs::router::RouterConfig;
use lastcpu_kvs::{
    build_baseline_kvs, build_rack_kvs, KvEngine, KvsCpuApp, KvsNicApp, ServerConfig,
    ShardRouterHost,
};
use lastcpu_mem::{Dram, FrameAllocator, PageTable, Pasid, Perms, PhysAddr, VirtAddr};
use lastcpu_memctl::MemoryController;
use lastcpu_net::{PortId, Switch};
use lastcpu_sim::{BufPool, DetRng, Histogram, MetricsHub, SimTime, TraceSink};
use lastcpu_snap::{fnv1a, Checkpoint, Restore, SnapReader, SnapWriter, Snapshot};
use lastcpu_virtio::queue::ChainSeg;
use lastcpu_virtio::{
    BufferArena, DescChain, FlatMemory, QueueLayout, VirtqueueDevice, VirtqueueDriver,
};

/// `bytes` restored into `fresh`, which must then snapshot to `bytes`.
fn pin_bytes<T: Snapshot + Restore>(what: &str, bytes: &[u8], mut fresh: T) {
    fresh
        .restore_bytes(what, bytes)
        .unwrap_or_else(|e| panic!("{what} does not restore: {e}"));
    assert!(
        fresh.snapshot_bytes() == bytes,
        "{what} re-snapshots to other bytes than it restored from"
    );
}

/// `live`'s snapshot, restored into `fresh`.
fn pin<T: Snapshot + Restore>(what: &str, live: &T, fresh: T) {
    let bytes = live.snapshot_bytes();
    assert!(!bytes.is_empty(), "{what} writes nothing");
    pin_bytes(what, &bytes, fresh);
}

/// `live`'s state as its device section carries it, restored into `fresh`
/// through the device hooks.
fn pin_device<D: Device>(what: &str, live: &D, mut fresh: D) {
    let state = |d: &D| {
        let mut w = SnapWriter::new();
        Device::snapshot_state(d, &mut w).unwrap_or_else(|e| panic!("{what} snapshots: {e}"));
        w.into_bytes()
    };
    let bytes = state(live);
    let mut r = SnapReader::new(what, &bytes);
    Device::restore_state(&mut fresh, &mut r)
        .and_then(|()| r.finish())
        .unwrap_or_else(|e| panic!("{what} does not restore: {e}"));
    assert!(
        state(&fresh) == bytes,
        "{what} re-snapshots to other bytes than it restored from"
    );
}

/// The component `fresh` reads at the front of `bytes`, which must be the
/// bytes it then writes.
fn pin_prefix<T: Snapshot + Restore>(what: &str, bytes: &[u8], mut fresh: T) {
    let mut r = SnapReader::new(what, bytes);
    fresh
        .restore(&mut r)
        .unwrap_or_else(|e| panic!("{what} does not restore: {e}"));
    let used = bytes.len() - r.remaining();
    assert!(
        fresh.snapshot_bytes() == bytes[..used],
        "{what} re-snapshots differently"
    );
}

fn workload(i: usize) -> WorkloadConfig {
    WorkloadConfig {
        keys: 64,
        theta: 0.9,
        read_fraction: 0.8,
        value_size: 256,
        outstanding: 4,
        total_ops: 10_000,
        preload: true,
        stats_prefix: format!("c{i}"),
    }
}

fn fresh_fs() -> FlashFs {
    FlashFs::format(Ftl::new(NandChip::new(default_nand())))
}

/// The CPU-less KVS deployment, built as `build_cpuless_kvs` builds it but
/// keeping every handle, tracing, auditing and retrying, stopped mid-run.
#[test]
fn a_kvs_machine_restores_every_component_it_snapshots() {
    let mut sys = System::new(SystemConfig {
        seed: 11,
        rpc_retry: Some(RetryConfig::default()),
        security_audit: true,
        ..SystemConfig::default()
    });
    let memctl = sys.add_memctl("memctl0");
    let mut fs = fresh_fs();
    fs.create(KVS_FILE).expect("fresh filesystem");
    let ssd = sys.add_device(Box::new(SmartSsd::new(
        "ssd0",
        fs,
        SsdConfig {
            exports: vec![KVS_FILE.into()],
            ..SsdConfig::default()
        },
    )));
    let nic = sys.add_net_device(Box::new(SmartNic::new(
        "nic0",
        KvsNicApp::new(ServerConfig::default(), Pasid(ssd.id.0 + 2)),
    )));
    let port = sys.device_port(nic).expect("NIC has a port");
    let client = sys.add_host(Box::new(KvsClientHost::new(port, workload(0))));
    sys.power_on();
    sys.run_until(SimTime::from_nanos(60_000_000));
    let c: &KvsClientHost = sys.host_as(client).expect("client");
    assert!(c.ops_done() > 500 && !c.is_done(), "the client is mid-run");

    let ck = sys.checkpoint("pins").expect("checkpoints");
    let section = |tag: &str| ck.section(tag).expect("section");
    pin_bytes("rng", section("rng"), DetRng::new(0));
    pin_bytes("bus", section("bus"), SystemBus::new());
    pin_bytes("switch", section("switch"), Switch::new());
    pin_bytes("dram", section("dram"), Dram::new(4096));
    pin_bytes("pool", section("pool"), BufPool::new());
    pin_bytes("metrics", section("metrics"), MetricsHub::new());
    pin_bytes("trace", section("trace"), TraceSink::bounded(1));
    let rpc = section("rpc");
    assert_eq!(rpc[0], 1, "retries are on");
    pin_prefix("rpc", &rpc[1..], RpcTracker::new(RetryConfig::default()));

    let (_, h) = sys
        .stats()
        .histograms()
        .into_iter()
        .next()
        .expect("a histogram");
    pin("histogram", &h, Histogram::new());
    pin(
        "bus audit",
        sys.bus().audit().expect("audit on"),
        Default::default(),
    );
    let mmu = sys.iommu(nic);
    pin("iommu", mmu, Iommu::new(64));
    pin(
        "dma audit",
        mmu.audit().expect("audit on"),
        Default::default(),
    );

    let s: &SmartSsd = sys.device_as(ssd).expect("ssd");
    pin("monitor", s.monitor(), Monitor::new());
    let fresh_ssd = SmartSsd::new("x", fresh_fs(), SsdConfig::default());
    pin("ssd", s, fresh_ssd);
    let n: &SmartNic<KvsNicApp> = sys.device_as(nic).expect("nic");
    pin(
        "kvs app",
        n.app(),
        KvsNicApp::new(ServerConfig::default(), Pasid(0)),
    );
    let fresh_app = KvsNicApp::new(ServerConfig::default(), Pasid(0));
    pin_device("nic", n, SmartNic::new("x", fresh_app));
    let m: &MemCtlDevice = sys.device_as(memctl).expect("memctl");
    pin(
        "memctl",
        m.controller(),
        MemoryController::new(DeviceId(0), 1 << 22),
    );
    pin(
        "memctl device",
        m,
        MemCtlDevice::new("x", DeviceId(0), 1 << 22),
    );
    pin(
        "client",
        c,
        KvsClientHost::new(PortId(0), WorkloadConfig::default()),
    );

    let s: &mut SmartSsd = sys.device_as_mut(ssd).expect("ssd");
    pin("fs", &*s.fs_mut(), fresh_fs());
    pin(
        "ftl",
        &*s.fs_mut().ftl_mut(),
        Ftl::new(NandChip::new(default_nand())),
    );
    let nand = &*s.fs_mut().ftl_mut().nand_mut();
    pin("nand", nand, NandChip::new(default_nand()));
}

/// Four machines on leaf-spine:2, R = 2, a client per machine through its
/// local router, stopped mid-run: the rack's own sections, a machine's
/// nested ones and every router.
#[test]
fn a_rack_restores_every_component_it_snapshots() {
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
            seed: 24,
            ..SystemConfig::default()
        },
    );
    for i in 0..4 {
        let router = setup.router_ports[i];
        let m = setup.fabric.machine_mut(setup.machines[i]);
        m.add_host(Box::new(KvsClientHost::new(router, workload(i))));
    }
    setup.fabric.power_on();
    setup.fabric.run_until(SimTime::from_nanos(60_000_000));
    let ck = setup.fabric.checkpoint("pins").expect("rack checkpoints");
    pin_bytes(
        "rack metrics",
        ck.section("metrics").unwrap(),
        MetricsHub::new(),
    );
    pin_bytes(
        "rack trace",
        ck.section("trace").unwrap(),
        TraceSink::bounded(1),
    );
    let machine = Checkpoint::decode(ck.section("machine1").unwrap()).expect("nested");
    for (tag, fresh) in [
        ("bus", &mut SystemBus::new() as &mut dyn Fresh),
        ("switch", &mut Switch::new()),
        ("dram", &mut Dram::new(4096)),
        ("pool", &mut BufPool::new()),
        ("metrics", &mut MetricsHub::new()),
        ("trace", &mut TraceSink::bounded(1)),
        ("rng", &mut DetRng::new(0)),
    ] {
        fresh.pin(tag, machine.section(tag).unwrap());
    }
    for i in 0..4 {
        let router = setup.router(i);
        assert!(router.stats().requests > 200, "router {i} is serving");
        pin(
            "router",
            router,
            ShardRouterHost::new(RouterConfig::default()),
        );
    }
}

/// A fresh component behind a trait object, for a table of sections.
trait Fresh {
    fn pin(&mut self, what: &str, bytes: &[u8]);
}

impl<T: Snapshot + Restore> Fresh for T {
    fn pin(&mut self, what: &str, bytes: &[u8]) {
        self.restore_bytes(what, bytes)
            .unwrap_or_else(|e| panic!("{what} does not restore: {e}"));
        assert!(
            self.snapshot_bytes() == bytes,
            "{what} re-snapshots differently"
        );
    }
}

/// The baseline deployment's CPU-hosted KVS, mid-run.
#[test]
fn a_cpu_hosted_kvs_restores_what_it_snapshots() {
    let mut setup = build_baseline_kvs(
        SystemConfig {
            seed: 5,
            ..SystemConfig::default()
        },
        SsdConfig::default(),
        ServerConfig::default(),
    );
    let port = setup.kvs_port;
    setup
        .system
        .add_host(Box::new(KvsClientHost::new(port, workload(0))));
    setup.system.power_on();
    setup.system.run_until(SimTime::from_nanos(20_000_000));
    let cpu: &CpuDevice<KvsCpuApp> = setup.system.device_as(setup.frontend).expect("cpu");
    pin(
        "cpu app",
        cpu.app(),
        KvsCpuApp::new(ServerConfig::default(), Pasid(0)),
    );
}

/// Setup clients of both control modes, mid-churn: each client's state
/// section, read back by a fresh client.
#[test]
fn setup_clients_restore_what_they_snapshot() {
    for centralized in [false, true] {
        let mut sys = System::new(SystemConfig {
            seed: 9,
            ..SystemConfig::default()
        });
        let (mode, server) = if centralized {
            let cpu = sys.add_device_with("cpu0", "cpu", |id, dram| {
                Box::new(CpuDevice::new("cpu0", id, dram, IdleApp))
            });
            (ControlMode::Centralized { cpu: cpu.id }, cpu.id)
        } else {
            (ControlMode::Decentralized, sys.add_memctl("memctl0").id)
        };
        let mut fs = fresh_fs();
        fs.create(KVS_FILE).expect("fresh filesystem");
        sys.add_device(Box::new(SmartSsd::new(
            "ssd0",
            fs,
            SsdConfig {
                exports: vec![KVS_FILE.into()],
                ..SsdConfig::default()
            },
        )));
        let clients: Vec<_> = (0..3)
            .map(|i| {
                let mut c = SetupClient::new(
                    &format!("client{i}"),
                    mode,
                    &format!("file:{KVS_FILE}"),
                    1_000,
                );
                c.memctl_hint_value = server;
                sys.add_device(Box::new(c))
            })
            .collect();
        sys.power_on();
        sys.run_until(SimTime::from_nanos(1_234_567));
        for h in clients {
            let c: &SetupClient = sys.device_as(h).expect("client");
            assert!(!c.latencies.is_empty() && !c.is_done(), "mid-churn");
            let mut w = SnapWriter::new();
            Firmware::snapshot_state(c, &mut w).expect("a client snapshots");
            let bytes = w.into_bytes();
            let mut fresh = SetupClient::new("x", ControlMode::Decentralized, "", 0);
            let mut r = SnapReader::new("setup client", &bytes);
            Firmware::restore_state(&mut fresh, &mut r).expect("a client restores");
            assert_eq!(r.remaining(), 0, "a client reads all it wrote");
            let mut again = SnapWriter::new();
            Firmware::snapshot_state(&fresh, &mut again).expect("a client snapshots");
            assert!(
                again.into_bytes() == bytes,
                "a setup client re-snapshots differently"
            );
        }
    }
}

/// Components driven directly, as their crates' tests drive them.
#[test]
fn driven_components_restore_what_they_snapshot() {
    let mut frames = FrameAllocator::new(4096);
    let a = frames.alloc_frames(3).unwrap();
    frames.alloc_frames(40).unwrap();
    frames.alloc_frames(1).unwrap();
    frames.free(a).unwrap();
    pin("frames", &frames, FrameAllocator::new(1024));

    let mut pt = PageTable::new();
    for (i, va) in [0x1000u64, 0x2000, 0x40_0000, 0x7fff_f000]
        .into_iter()
        .enumerate()
    {
        let perms = [Perms::R, Perms::RW, Perms::X, Perms::RWX][i];
        pt.map(VirtAddr::new(va), PhysAddr::new(0x10_0000 + va), perms)
            .unwrap();
    }
    pin("pagetable", &pt, PageTable::new());

    let mut tlb = Iotlb::new(4);
    for p in 0..6u64 {
        tlb.insert(
            Pasid(1),
            VirtAddr::new(p << 12),
            PhysAddr::new(p << 20),
            Perms::RW,
        );
    }
    tlb.lookup(Pasid(1), VirtAddr::new(5 << 12), Perms::R);
    tlb.invalidate_page(Pasid(1), VirtAddr::new(4 << 12));
    pin("iotlb", &tlb, Iotlb::new(4));

    let mut bus = SystemBus::new();
    bus.enable_audit(8);
    let evil = bus.attach("evil0", "malicious");
    let victim = bus.attach("nic0", "smart-nic");
    let mut fx = Vec::new();
    let env = |src, payload| Envelope {
        src,
        dst: Dst::Bus,
        req: RequestId(1),
        corr: CorrId::NONE,
        payload,
    };
    for d in [evil, victim] {
        let hello = Payload::Hello {
            name: format!("{d}"),
            kind: "x".into(),
        };
        bus.handle(SimTime::ZERO, env(d, hello), &mut fx);
    }
    let map = Payload::MapInstruction {
        resource: ResourceKind::Memory,
        op: MapOp::Map,
        device: victim,
        pasid: 7,
        va: 0x4000,
        pa: 0x1000,
        pages: 1,
        perms: 3,
    };
    bus.handle(SimTime::ZERO, env(evil, map), &mut fx);
    pin("audited bus", &bus, SystemBus::new());

    let mut rpc = RpcTracker::new(RetryConfig::default());
    let alloc = Payload::MemAlloc {
        pasid: 1,
        va: 0x1000,
        bytes: 4096,
        perms: 3,
    };
    let mut req = env(DeviceId(3), alloc);
    req.dst = Dst::Device(DeviceId(1));
    rpc.track(SimTime::ZERO, &req);
    pin("rpc tracker", &rpc, RpcTracker::new(RetryConfig::default()));

    let mut engine = KvEngine::new();
    for i in 0..50u32 {
        let key = format!("k{:02}", i % 17).into_bytes();
        engine.put(&key, &i.to_le_bytes()).unwrap();
    }
    pin("engine", &engine, KvEngine::new());
    let mut scanner = LogScanner::new();
    let (_, rec) = KvEngine::new().put(b"key", b"value").unwrap();
    scanner
        .feed(&mut KvEngine::new(), &rec[..rec.len() - 2])
        .unwrap();
    pin("scanner", &scanner, LogScanner::new());

    let mut ring = HashRing::new(16);
    for m in ["m2/kvs", "m0/kvs", "m1/kvs"] {
        ring.insert(m);
    }
    pin("ring", &ring, HashRing::new(1));

    let mut mem = FlatMemory::new(1 << 16);
    let layout = QueueLayout::new(0, 8);
    let mut drv = VirtqueueDriver::create(&mut mem, layout).unwrap();
    let mut dev = VirtqueueDevice::attach(layout);
    for k in 0..3u64 {
        let segs = [
            ChainSeg {
                va: 0x4000 + k * 0x100,
                len: 16,
                device_writes: false,
            },
            ChainSeg {
                va: 0x8000 + k * 0x100,
                len: 16,
                device_writes: true,
            },
        ];
        drv.submit_chain(&mut mem, &segs).unwrap();
    }
    assert!(
        dev.pop_into(&mut mem, &mut DescChain::default()).unwrap(),
        "a chain"
    );
    pin("driver", &drv, VirtqueueDriver::detached());
    pin(
        "device queue",
        &dev,
        VirtqueueDevice::attach(QueueLayout::new(0, 1)),
    );
    let mut arena = BufferArena::new(0x4000, 256, 8);
    let slot = arena.alloc().unwrap();
    arena.alloc().unwrap();
    arena.free(slot);
    pin("arena", &arena, BufferArena::new(0, 1, 1));

    pin(
        "accelerator",
        &Accelerator::new("accel0", 8),
        Accelerator::new("x", 1),
    );
    pin("echo", &EchoApp::new(), EchoApp::new());
}

/// `(length, FNV-1a)` of a section body.
fn digest(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a(bytes))
}

/// An audited IOMMU that refused several DMAs, one of each kind and one
/// past the log's capacity: its section bytes as recorded before the audit
/// kept `IommuFault`s.
#[test]
fn an_audited_iommu_with_denials_keeps_its_bytes() {
    let mut mmu = Iommu::new(8);
    mmu.enable_audit(3);
    mmu.bind_pasid(Pasid(1));
    mmu.map(
        Pasid(1),
        VirtAddr::new(0x1000),
        PhysAddr::new(0x8000),
        Perms::R,
    )
    .unwrap();
    assert!(mmu
        .translate(Pasid(1), VirtAddr::new(0x1000), AccessKind::Read)
        .is_ok());
    let denied = [
        (Pasid(1), 0x1000, AccessKind::Write),
        (Pasid(1), 0xdead_f000, AccessKind::Read),
        (Pasid(9), 0x2000, AccessKind::Write),
        (Pasid(1), 1 << 60, AccessKind::Read),
    ];
    for (pasid, va, access) in denied {
        assert!(mmu.translate(pasid, VirtAddr::new(va), access).is_err());
    }
    let bytes = mmu.snapshot_bytes();
    assert_eq!(digest(&bytes), (310, 1370405884347656973), "audited iommu");
    pin_bytes("audited iommu", &bytes, Iommu::new(8));
}

/// A pool after takes, returns and a `reset_stats` with buffers out: its
/// section bytes as recorded before the pool kept one live count.
#[test]
fn a_pool_after_takes_returns_and_a_reset_keeps_its_bytes() {
    let pool = BufPool::with_capacity(4);
    let held: Vec<_> = (0..6).map(|_| pool.take()).collect();
    drop(held);
    let early = pool.take();
    pool.reset_stats();
    let late = pool.take_filled(7, 32);
    drop(early);
    drop(late);
    let _ = pool.take();
    let bytes = pool.snapshot_bytes();
    assert_eq!(digest(&bytes), (56, 12763025439155701256), "pool");
    pin_bytes("pool", &bytes, BufPool::with_capacity(4));
}
