//! What programming an IOMMU leaves behind, recorded at the commit before a
//! `MapInstruction` began walking its region once per leaf table
//! (DESIGN.md §3, "crates/iommu"). A Figure-2 control plane stopped
//! mid-churn is held to its checkpoint digest and to every slot's IOMMU
//! counters, and the same machine in the centralized mode to its clients'
//! state; a direct sequence of grants and revokes on one unit is held to its
//! snapshot bytes and counters after every step, edge cases included.
//!
//! The two digests that cover SSD or machine sections were re-recorded when
//! `SCHEMA_VERSION` became 3; the counters did not move. The checkpoint
//! digest was re-recorded again when it became 4 (its manifest names the
//! version); the counters did not move.

use lastcpu_baseline::{CpuDevice, IdleApp};
use lastcpu_bench::drivers::{ControlMode, SetupClient};
use lastcpu_core::devices::firmware::Firmware;
use lastcpu_core::devices::flash::{NandChip, NandConfig};
use lastcpu_core::devices::fs::FlashFs;
use lastcpu_core::devices::ftl::Ftl;
use lastcpu_core::devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_core::{DeviceHandle, System, SystemConfig};
use lastcpu_iommu::{AccessKind, Iommu};
use lastcpu_mem::{MapError, Pasid, Perms, PhysAddr, VirtAddr, PAGE_SIZE};
use lastcpu_sim::SimTime;
use lastcpu_snap::{fnv1a, SnapWriter, Snapshot};

const FILE: &str = "/data/ctl.db";

/// A `ctl_setup_churn`-shaped machine: a memory controller, an SSD and
/// eight clients looping the Figure-2 setup, stopped mid-churn.
fn churn() -> (System, Vec<DeviceHandle>) {
    let mut sys = System::new(SystemConfig {
        seed: 27,
        ..SystemConfig::default()
    });
    let memctl = sys.add_memctl("memctl0");
    let mut fs = FlashFs::format(Ftl::new(NandChip::new(NandConfig::default())));
    fs.create(FILE).expect("fresh filesystem");
    let ssd = sys.add_device(Box::new(SmartSsd::new(
        "ssd0",
        fs,
        SsdConfig {
            exports: vec![FILE.into()],
            ..SsdConfig::default()
        },
    )));
    let mut slots = vec![memctl, ssd];
    for i in 0..8 {
        let mut c = SetupClient::new(
            &format!("client{i}"),
            ControlMode::Decentralized,
            &format!("file:{FILE}"),
            1_000,
        );
        c.memctl_hint_value = memctl.id;
        slots.push(sys.add_device(Box::new(c)));
    }
    sys.power_on();
    sys.run_until(SimTime::from_nanos(2_903_988));
    for &h in &slots[2..] {
        let c: &SetupClient = sys.device_as(h).expect("client");
        assert!(
            c.latencies.len() > 10 && !c.is_done() && !c.failed,
            "every client is mid-churn"
        );
    }
    (sys, slots)
}

/// One slot's IOMMU: pages, table nodes, unit and IOTLB counters.
fn counters(mmu: &Iommu) -> String {
    format!(
        "pages={} nodes={} {:?} {:?}",
        mmu.mapped_pages(),
        mmu.table_nodes(),
        mmu.stats(),
        mmu.tlb_stats()
    )
}

/// `Checkpoint::digest` of the churning machine, then `counters` for the
/// memory controller, the SSD and the eight clients.
const PARENT_CHURN: (u64, [&str; 10]) = (
    13668953603739814781,
    [
        r#"pages=0 nodes=0 IommuStats { translations: 0, faults: 0, maps: 0, unmaps: 0 } TlbStats { hits: 0, misses: 0, perm_misses: 0, evictions: 0, invalidations: 0 }"#,
        r#"pages=128 nodes=32 IommuStats { translations: 0, faults: 0, maps: 25216, unmaps: 25088 } TlbStats { hits: 0, misses: 0, perm_misses: 0, evictions: 0, invalidations: 0 }"#,
        r#"pages=0 nodes=4 IommuStats { translations: 196, faults: 0, maps: 3136, unmaps: 3136 } TlbStats { hits: 147, misses: 49, perm_misses: 0, evictions: 0, invalidations: 49 }"#,
        r#"pages=64 nodes=4 IommuStats { translations: 196, faults: 0, maps: 3200, unmaps: 3136 } TlbStats { hits: 147, misses: 49, perm_misses: 0, evictions: 0, invalidations: 49 }"#,
        r#"pages=0 nodes=4 IommuStats { translations: 196, faults: 0, maps: 3136, unmaps: 3136 } TlbStats { hits: 147, misses: 49, perm_misses: 0, evictions: 0, invalidations: 49 }"#,
        r#"pages=0 nodes=4 IommuStats { translations: 196, faults: 0, maps: 3136, unmaps: 3136 } TlbStats { hits: 147, misses: 49, perm_misses: 0, evictions: 0, invalidations: 49 }"#,
        r#"pages=64 nodes=4 IommuStats { translations: 196, faults: 0, maps: 3200, unmaps: 3136 } TlbStats { hits: 147, misses: 49, perm_misses: 0, evictions: 0, invalidations: 49 }"#,
        r#"pages=64 nodes=4 IommuStats { translations: 200, faults: 0, maps: 3200, unmaps: 3136 } TlbStats { hits: 150, misses: 50, perm_misses: 0, evictions: 0, invalidations: 49 }"#,
        r#"pages=0 nodes=4 IommuStats { translations: 196, faults: 0, maps: 3136, unmaps: 3136 } TlbStats { hits: 147, misses: 49, perm_misses: 0, evictions: 0, invalidations: 49 }"#,
        r#"pages=0 nodes=4 IommuStats { translations: 196, faults: 0, maps: 3136, unmaps: 3136 } TlbStats { hits: 147, misses: 49, perm_misses: 0, evictions: 0, invalidations: 49 }"#,
    ],
);

#[test]
fn a_churning_control_plane_programs_as_before() {
    let (sys, slots) = churn();
    let ck = sys.checkpoint("pins").expect("every component snapshots");
    let got: Vec<String> = slots.iter().map(|&h| counters(sys.iommu(h))).collect();
    assert_eq!(ck.digest(), PARENT_CHURN.0);
    assert_eq!(got, PARENT_CHURN.1);
}

/// The same machine in the baseline's control mode: a CPU brokers every
/// open and serves every allocation, eight clients loop the Figure-2 setup
/// through it, stopped mid-churn. A `CpuDevice` does not snapshot, so
/// `System::checkpoint` refuses this machine; the pin is the SSD's and every
/// client's state section instead.
fn central_churn() -> Vec<u8> {
    let mut sys = System::new(SystemConfig {
        seed: 27,
        ..SystemConfig::default()
    });
    let cpu = sys.add_device_with("cpu0", "cpu", |id, dram| {
        Box::new(CpuDevice::new("cpu0", id, dram, IdleApp))
    });
    let mut fs = FlashFs::format(Ftl::new(NandChip::new(NandConfig::default())));
    fs.create(FILE).expect("fresh filesystem");
    let ssd = sys.add_device(Box::new(SmartSsd::new(
        "ssd0",
        fs,
        SsdConfig {
            exports: vec![FILE.into()],
            ..SsdConfig::default()
        },
    )));
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let mut c = SetupClient::new(
                &format!("client{i}"),
                ControlMode::Centralized { cpu: cpu.id },
                &format!("file:{FILE}"),
                1_000,
            );
            c.memctl_hint_value = cpu.id;
            sys.add_device(Box::new(c))
        })
        .collect();
    sys.power_on();
    sys.run_until(SimTime::from_nanos(5_807_131));
    let s: &SmartSsd = sys.device_as(ssd).expect("ssd");
    let mut w = SnapWriter::new();
    s.snapshot(&mut w);
    for h in clients {
        let c: &SetupClient = sys.device_as(h).expect("client");
        assert!(
            c.latencies.len() > 10 && !c.is_done() && !c.failed,
            "every client is mid-churn"
        );
        Firmware::snapshot_state(c, &mut w).expect("a client snapshots");
    }
    w.into_bytes()
}

/// FNV-1a of the centralized machine's SSD and client sections.
const PARENT_CENTRAL_CHURN: u64 = 16455833108226457187;

#[test]
fn a_centralized_control_plane_snapshots_as_before() {
    assert_eq!(fnv1a(&central_churn()), PARENT_CENTRAL_CHURN);
}

/// What the system did for a `MapInstruction` when these pins were
/// recorded: bind, then one page at a time; a page already mapped takes
/// the new permissions, and the first error stops the instruction.
fn grant(mmu: &mut Iommu, pasid: Pasid, va: u64, pa: u64, pages: u64, perms: Perms) -> String {
    mmu.bind_pasid(pasid);
    for i in 0..pages {
        let va_i = VirtAddr::new(va + i * PAGE_SIZE);
        let pa_i = PhysAddr::new(pa + i * PAGE_SIZE);
        match mmu.map(pasid, va_i, pa_i, perms) {
            Ok(()) => {}
            Err(MapError::AlreadyMapped { .. }) => {
                let _ = mmu.protect(pasid, va_i, perms);
            }
            Err(e) => return format!("error: {e}"),
        }
    }
    "ok".into()
}

/// The same for an unmap instruction: every page that is mapped goes.
fn revoke(mmu: &mut Iommu, pasid: Pasid, va: u64, pages: u64) -> String {
    let removed = (0..pages)
        .filter(|i| mmu.unmap(pasid, VirtAddr::new(va + i * PAGE_SIZE)).is_ok())
        .count();
    format!("removed {removed}")
}

/// Reads `pages` pages from `va` on, so the IOTLB holds what a device
/// touched.
fn touch(mmu: &mut Iommu, pasid: Pasid, va: u64, pages: u64) {
    for i in 0..pages {
        let _ = mmu.translate(
            pasid,
            VirtAddr::new(va + i * PAGE_SIZE + 8),
            AccessKind::Read,
        );
    }
}

const LEAF: u64 = 512 * PAGE_SIZE;
const EDGE: u64 = 1 << 48;

/// The result of each step, then the unit's snapshot digest and counters.
const PARENT_STEPS: [&str; 8] = [
    r#"ok | 3a243d61dbf6df10 pages=8 nodes=5 IommuStats { translations: 8, faults: 0, maps: 8, unmaps: 0 } TlbStats { hits: 0, misses: 8, perm_misses: 0, evictions: 0, invalidations: 0 }"#,
    r#"ok | 8284e6cc0479e7af pages=11 nodes=5 IommuStats { translations: 19, faults: 1, maps: 11, unmaps: 0 } TlbStats { hits: 1, misses: 19, perm_misses: 0, evictions: 0, invalidations: 7 }"#,
    r#"removed 10 | f3a659b28932e874 pages=1 nodes=5 IommuStats { translations: 20, faults: 16, maps: 11, unmaps: 10 } TlbStats { hits: 2, misses: 34, perm_misses: 0, evictions: 0, invalidations: 17 }"#,
    r#"error: address 0x1000000000000 outside 48-bit range | 97b162ab599bf325 pages=4 nodes=8 IommuStats { translations: 23, faults: 16, maps: 14, unmaps: 10 } TlbStats { hits: 2, misses: 37, perm_misses: 0, evictions: 0, invalidations: 17 }"#,
    r#"removed 2 | 4581fed3757a9b46 pages=2 nodes=8 IommuStats { translations: 23, faults: 16, maps: 14, unmaps: 12 } TlbStats { hits: 2, misses: 37, perm_misses: 0, evictions: 0, invalidations: 19 }"#,
    r#"error: address 0x5001 is not page aligned | 4581fed3757a9b46 pages=2 nodes=8 IommuStats { translations: 23, faults: 16, maps: 14, unmaps: 12 } TlbStats { hits: 2, misses: 37, perm_misses: 0, evictions: 0, invalidations: 19 }"#,
    r#"error: address 0x5000 is not page aligned | 4581fed3757a9b46 pages=2 nodes=8 IommuStats { translations: 23, faults: 16, maps: 14, unmaps: 12 } TlbStats { hits: 2, misses: 37, perm_misses: 0, evictions: 0, invalidations: 19 }"#,
    r#"ok | 7dabc89c3e0fdda3 pages=2 nodes=9 IommuStats { translations: 23, faults: 16, maps: 14, unmaps: 12 } TlbStats { hits: 2, misses: 37, perm_misses: 0, evictions: 0, invalidations: 19 }"#,
];

#[test]
fn grants_and_revokes_program_as_before() {
    let p = Pasid(3);
    let mut mmu = Iommu::new(16);
    let mut got = Vec::new();
    let mut record = |mmu: &Iommu, step: String| {
        got.push(format!(
            "{step} | {:016x} {}",
            fnv1a(&mmu.snapshot_bytes()),
            counters(mmu)
        ));
    };

    // Across a leaf boundary: pages 509..517 straddle two leaf tables.
    let r = grant(&mut mmu, p, LEAF - 3 * PAGE_SIZE, 0x10_0000, 8, Perms::RW);
    touch(&mut mmu, p, LEAF - 3 * PAGE_SIZE, 8);
    record(&mmu, r);

    // A re-grant over 506..516: three fresh pages, seven that keep their
    // frame and take read-only.
    let r = grant(&mut mmu, p, LEAF - 6 * PAGE_SIZE, 0x90_0000, 10, Perms::R);
    touch(&mut mmu, p, LEAF - 6 * PAGE_SIZE, 12);
    record(&mmu, r);

    // A revoke over 504..516: 506..515 are mapped, 516 stays.
    let r = revoke(&mut mmu, p, LEAF - 8 * PAGE_SIZE, 12);
    touch(&mut mmu, p, LEAF - 8 * PAGE_SIZE, 16);
    record(&mmu, r);

    // A grant that reaches the 2^48 edge after three pages keeps them.
    let r = grant(&mut mmu, p, EDGE - 3 * PAGE_SIZE, 0x40_0000, 6, Perms::RW);
    touch(&mut mmu, p, EDGE - 3 * PAGE_SIZE, 3);
    record(&mmu, r);

    // A revoke across the same edge removes what is below it.
    let r = revoke(&mut mmu, p, EDGE - 2 * PAGE_SIZE, 5);
    record(&mmu, r);

    // Unaligned addresses map nothing.
    let r = grant(&mut mmu, p, 0x5001, 0x20_0000, 4, Perms::RW);
    record(&mmu, r);
    let r = grant(&mut mmu, p, 0x5000, 0x20_0001, 4, Perms::RW);
    record(&mmu, r);

    // A zero-page grant, unaligned at that, binds its PASID and maps
    // nothing.
    let r = grant(&mut mmu, Pasid(7), 0x7003, 0x30_0000, 0, Perms::RW);
    record(&mmu, r);

    assert_eq!(got, PARENT_STEPS);
}
