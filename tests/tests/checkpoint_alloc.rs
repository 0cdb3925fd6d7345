//! A checkpoint is held once (DESIGN.md §14.2): on a warmed rack,
//! `Checkpoint::digest` allocates nothing, `Checkpoint::encode` allocates its
//! buffer once, and `Fabric::verify_checkpoint` compares each section as it
//! serializes, so it holds about one machine section at a time — never a
//! second rack.
//!
//! This file is its own test binary because it installs a counting global
//! allocator; it holds one test so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System as StdAlloc};
use std::sync::atomic::{AtomicUsize, Ordering};

use lastcpu_core::SystemConfig;
use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
use lastcpu_kvs::build_rack_kvs;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_sim::SimTime;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since [`measured`] last reset it.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the std system allocator; the
// additions are relaxed counters that publish nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: same layout the caller handed us.
        unsafe { StdAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `StdAlloc` with this layout.
        unsafe { StdAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: `ptr` came from `StdAlloc` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { StdAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by `f`, and the most bytes it had live at once beyond
/// what was live when it started.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (out, allocs, PEAK.load(Ordering::Relaxed) - base)
}

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

    let (digest, allocs, _) = measured(|| ck.digest());
    assert_eq!(allocs, 0, "digest streams over the sections");

    let (bytes, allocs, held) = measured(|| ck.encode());
    assert_eq!(allocs, 1, "encode sizes its buffer once");
    assert_eq!(bytes.len(), bytes.capacity());
    assert_eq!(held, bytes.len());
    assert_eq!(digest, lastcpu_snap::fnv1a(&bytes));
    drop(bytes);

    // What verification holds at once is the section being compared: here
    // machine 1's 1.41 MB `trace` section, in the 2 MiB buffer its writer
    // doubled into. The parent built a second rack checkpoint and every
    // machine's encoding besides: 13,176,202 bytes at this point.
    let (verified, _, held) = measured(|| setup.fabric.verify_checkpoint(&ck));
    verified.expect("the rack verifies against its own checkpoint");
    assert!(
        held * 4 <= largest * 5,
        "verify held {held} B; the largest machine section is {largest} B"
    );
}
