//! A trace record is plain data (DESIGN.md §7): once a machine's names are
//! interned, emitting a record allocates nothing. A warmed Figure-2 machine
//! with its ring wrapping allocates exactly what its untraced twin does over
//! a window of more than 10,000 records, and the rack fabric's forward step
//! allocates exactly as much with link-hop tracing on as with it off.
//!
//! This file is its own test binary because it installs the counting global
//! allocator (`lastcpu_bench::alloc`), which counts only the thread that
//! runs a window.

use lastcpu_bench::alloc::{watch, CountingAlloc};
use lastcpu_bench::drivers::{ControlMode, SetupClient};
use lastcpu_core::devices::flash::{NandChip, NandConfig};
use lastcpu_core::devices::fs::FlashFs;
use lastcpu_core::devices::ftl::Ftl;
use lastcpu_core::devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_core::{System, SystemConfig};
use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
use lastcpu_kvs::build_rack_kvs;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_sim::{profile, SimDuration, SimTime};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const FILE: &str = "/data/ctl.db";

/// A memory controller, an SSD and eight clients looping the Figure-2
/// setup, its trace ring at 4,096 records so a window wraps it.
fn figure2(trace: bool) -> System {
    let mut sys = System::new(SystemConfig {
        seed: 28,
        trace,
        ..SystemConfig::default()
    });
    sys.set_trace_capacity(4096);
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
    for i in 0..8 {
        let mut c = SetupClient::new(
            &format!("client{i}"),
            ControlMode::Decentralized,
            &format!("file:{FILE}"),
            100_000,
        );
        c.memctl_hint_value = memctl.id;
        sys.add_device(Box::new(c));
    }
    sys.power_on();
    sys
}

/// `(allocations, records emitted)` over the window from 2 ms to 4 ms of
/// a warmed Figure-2 machine.
fn figure2_window(trace: bool) -> (u64, u64) {
    let mut sys = figure2(trace);
    sys.run_until(SimTime::from_nanos(2_000_000));
    let e0 = sys.trace().total_emitted();
    let (_, seen) = watch(|| sys.run_until(SimTime::from_nanos(4_000_000)));
    (seen.allocs, sys.trace().total_emitted() - e0)
}

/// Allocations the profiler charged to `fabric.forward` over a traced
/// four-machine rack run, and the link-hop records it left.
fn forward_allocs(link_tracing: bool) -> (u64, usize) {
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
            seed: 28,
            ..SystemConfig::default()
        },
    );
    setup.fabric.set_link_tracing(link_tracing);
    setup.fabric.set_link_trace_capacity(256);
    for i in 0..4 {
        let router = setup.router_ports[i];
        let machine = setup.fabric.machine_mut(setup.machines[i]);
        machine.add_host(Box::new(KvsClientHost::new(
            router,
            WorkloadConfig {
                keys: 32,
                value_size: 200,
                outstanding: 4,
                total_ops: 200,
                preload: true,
                stats_prefix: format!("c{i}"),
                ..WorkloadConfig::default()
            },
        )));
    }
    setup.fabric.power_on();
    profile::reset();
    profile::set_enabled(true);
    setup.fabric.run_for(SimDuration::from_secs(2));
    profile::set_enabled(false);
    let scopes = profile::snapshot().scopes;
    let forward = scopes.iter().find(|s| s.name == "fabric.forward");
    let forward = forward.expect("the fabric forwarded frames");
    assert!(forward.spans > 1_000, "{} frames", forward.spans);
    let merged = setup.fabric.merged_trace();
    let hops = merged.events().filter(|e| e.data.kind() == "link_hop");
    (forward.allocs, hops.count())
}

#[test]
fn emitting_a_record_allocates_nothing() {
    let (traced, emitted) = figure2_window(true);
    let (untraced, none) = figure2_window(false);
    assert!(emitted > 10_000, "{emitted} records in the window");
    assert_eq!(none, 0);
    assert_eq!(traced, untraced, "allocations over {emitted} records");

    let (on, hops) = forward_allocs(true);
    let (off, no_hops) = forward_allocs(false);
    assert_eq!((hops, no_hops), (256, 0), "the ring wrapped with hops");
    assert_eq!(on, off, "fabric.forward allocations with link tracing on");
}
