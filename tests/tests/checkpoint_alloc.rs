//! A checkpoint is held once (DESIGN.md §14.2): on a warmed rack,
//! `Checkpoint::digest` allocates nothing, `Checkpoint::encode` allocates its
//! buffer once, and `Fabric::verify_checkpoint` compares each section as it
//! serializes, so it holds about one machine section at a time — never a
//! second rack.
//!
//! This file is its own test binary because it installs the counting global
//! allocator (`lastcpu_bench::alloc`), which counts only the thread that
//! runs a window.

use lastcpu_bench::alloc::{watch, CountingAlloc};
use lastcpu_core::SystemConfig;
use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
use lastcpu_kvs::build_rack_kvs;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_sim::SimTime;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_checkpoint_is_held_once() {
    // Four machines on leaf-spine:2, R = 2, tracing on (the default), a
    // client per machine through its local router, stopped mid-run.
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
        m.add_host(Box::new(KvsClientHost::new(
            router,
            WorkloadConfig {
                keys: 64,
                read_fraction: 0.8,
                value_size: 256,
                outstanding: 4,
                total_ops: 100_000,
                stats_prefix: format!("c{i}"),
                ..WorkloadConfig::default()
            },
        )));
    }
    setup.fabric.power_on();
    setup.fabric.run_until(SimTime::from_nanos(200_000_000));
    let ck = setup
        .fabric
        .checkpoint("held-once")
        .expect("rack checkpoints");
    let machine_sections: Vec<usize> = (0..4)
        .map(|i| ck.section(&format!("machine{i}")).expect("a machine").len())
        .collect();
    let largest = *machine_sections.iter().max().expect("four machines");

    let (digest, seen) = watch(|| ck.digest());
    assert_eq!(seen.allocs, 0, "digest streams over the sections");

    let (bytes, seen) = watch(|| ck.encode());
    assert_eq!(seen.allocs, 1, "encode sizes its buffer once");
    assert_eq!(bytes.len(), bytes.capacity());
    assert_eq!(seen.peak_live, bytes.len() as u64);
    // The digest is the checksum of the encoding (lastcpu-snap's
    // `digest_is_the_checksum_of_the_encoding`), so it survives a decode.
    let decoded = lastcpu_snap::Checkpoint::decode(&bytes).expect("decodes");
    assert_eq!(digest, decoded.digest());
    drop(bytes);

    // What verification holds at once is the section being compared: here
    // machine 1's 1.41 MB `trace` section, in the 2 MiB buffer its writer
    // doubled into. The parent built a second rack checkpoint and every
    // machine's encoding besides: 13,176,202 bytes at this point.
    let (verified, seen) = watch(|| setup.fabric.verify_checkpoint(&ck));
    verified.expect("the rack verifies against its own checkpoint");
    let held = seen.peak_live as usize;
    assert!(
        held * 4 <= largest * 5,
        "verify held {held} B; the largest machine section is {largest} B"
    );
}
