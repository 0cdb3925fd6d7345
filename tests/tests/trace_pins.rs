//! What a reader of the trace sees, recorded at the commit before a trace
//! record became plain data (DESIGN.md §7): a Figure-2 machine whose small
//! ring wraps several times under an E4 fault seed, with device faults,
//! free-form lines and map failures on both sides of the eviction point,
//! and a traced rack with fabric link tracing on, read through
//! `Fabric::merged_trace` and the critical-path analyzer.
//!
//! The analyzer's report was re-recorded when it began counting router-only
//! ops apart from incomplete ones; the merged trace and its export did not
//! move. The rack's merged-trace export was re-recorded when the directory
//! began answering a router already at the current epoch with a three-byte
//! `Unchanged`: the directory answers' records carry fewer bytes; the
//! record count and the analyzer's report did not move.

use lastcpu_bench::drivers::{ControlMode, SetupClient};
use lastcpu_bus::{DeviceId, Dst, Envelope, Payload, RetryConfig};
use lastcpu_core::devices::device::{Device, DeviceCtx};
use lastcpu_core::devices::flash::{NandChip, NandConfig};
use lastcpu_core::devices::fs::FlashFs;
use lastcpu_core::devices::ftl::Ftl;
use lastcpu_core::devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_core::{System, SystemConfig};
use lastcpu_sim::{critpath, export, FaultPlan, SimDuration, SimTime};
use lastcpu_snap::{fnv1a, Snapshot};

const FILE: &str = "/data/pins.db";

/// Asks the memory controller, every 40 µs, for a page at a virtual address
/// past the translatable range: the controller grants it and the bus's
/// IOMMU write fails, so the run leaves a `map_failure` record each time.
struct OutOfRangeAlloc {
    memctl: DeviceId,
}

impl Device for OutOfRangeAlloc {
    fn name(&self) -> &str {
        "mapper0"
    }
    fn kind(&self) -> &str {
        "prober"
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: "mapper0".into(),
                kind: "prober".into(),
            },
        );
    }
    fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) {
        if let Payload::HelloAck { .. } = env.payload {
            ctx.set_timer(SimDuration::from_micros(40), 0);
        }
    }
    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, _token: u64) {
        ctx.send_bus(
            Dst::Device(self.memctl),
            Payload::MemAlloc {
                pasid: 1,
                va: 1 << 60,
                bytes: 4096,
                perms: 3,
            },
        );
        ctx.set_timer(SimDuration::from_micros(40), 0);
    }
    fn on_reset(&mut self, ctx: &mut DeviceCtx<'_>) {
        self.on_start(ctx);
    }
}

/// A memory controller, an SSD, two clients looping the Figure-2 setup and
/// the out-of-range prober, under a plan generated from the E4 fault seed.
fn wrapped_machine(capacity: Option<usize>) -> System {
    let plan = FaultPlan::generate(
        0xE4,
        &["ssd0", "client0", "client1"],
        SimTime::ZERO,
        SimDuration::from_millis(12),
        24,
    );
    let mut sys = System::new(SystemConfig {
        seed: 0xE4,
        liveness_interval: Some(SimDuration::from_millis(2)),
        fault_plan: Some(plan),
        rpc_retry: Some(RetryConfig::default()),
        ..SystemConfig::default()
    });
    if let Some(capacity) = capacity {
        sys.set_trace_capacity(capacity);
    }
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
    for i in 0..2 {
        let mut c = SetupClient::new(
            &format!("client{i}"),
            ControlMode::Decentralized,
            &format!("file:{FILE}"),
            1_000,
        );
        c.memctl_hint_value = memctl.id;
        sys.add_device(Box::new(c));
    }
    sys.add_device(Box::new(OutOfRangeAlloc { memctl: memctl.id }));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(10));
    sys
}

/// The kinds a check below needs on both sides of the eviction point.
const KINDS: [&str; 3] = ["device_fault", "text", "map_failure"];

/// `(total_emitted, retained records, FNV-1a of the `trace` section,
/// FNV-1a and byte length of every rendered line joined by newlines)`.
type Wrapped = (u64, usize, u64, (u64, usize));

const PARENT_WRAPPED: Wrapped = (
    7528,
    512,
    5870800918257940925,
    (17769479710760593385, 34575),
);

fn observe_wrapped() -> Wrapped {
    let sys = wrapped_machine(Some(512));
    let trace = sys.trace();
    let emitted = trace.total_emitted();
    assert_eq!(trace.len(), 512);
    assert!(
        emitted >= 4 * 512,
        "the ring wrapped three times: {emitted}"
    );
    let lines: Vec<String> = trace.events().map(|e| e.to_string()).collect();
    let retained: Vec<&str> = trace.events().map(|e| e.data.kind()).collect();

    // The same run with the default ring keeps what the small one evicted.
    let full = wrapped_machine(None);
    assert_eq!(full.trace().total_emitted(), emitted);
    let all: Vec<String> = full.trace().events().map(|e| e.to_string()).collect();
    assert_eq!(
        all.len() as u64,
        emitted,
        "the default ring evicted nothing"
    );
    assert_eq!(&all[all.len() - 512..], &lines[..], "same retained tail");
    let evicted: Vec<&str> = full
        .trace()
        .events()
        .take(all.len() - 512)
        .map(|e| e.data.kind())
        .collect();
    for kind in KINDS {
        assert!(evicted.contains(&kind), "an evicted {kind} record");
        assert!(retained.contains(&kind), "a retained {kind} record");
    }

    let joined = lines.join("\n");
    (
        emitted,
        lines.len(),
        fnv1a(&trace.snapshot_bytes()),
        (fnv1a(joined.as_bytes()), joined.len()),
    )
}

#[test]
fn a_wrapped_ring_renders_and_checkpoints_as_before() {
    let first = observe_wrapped();
    assert_eq!(first, observe_wrapped(), "same seed, same bytes");
    assert_eq!(first, PARENT_WRAPPED);
}

/// A traced rack with the fabric's link-hop records on: four machines on
/// leaf-spine:2, R = 2, one closed-loop client per machine.
mod rack {
    use super::*;
    use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
    use lastcpu_kvs::build_rack_kvs;
    use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};

    /// `(merged records, FNV-1a and length of the merged JSONL export,
    /// FNV-1a and length of the critical-path report's `Debug` text)`.
    type Linked = (usize, (u64, usize), (u64, usize));

    const PARENT_LINKED: Linked = (
        38472,
        (15022322124673608829, 4758471),
        (12675103350392845496, 45441),
    );

    fn observe_linked() -> Linked {
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
                trace: true,
                ..SystemConfig::default()
            },
        );
        setup.fabric.set_link_tracing(true);
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
                    total_ops: 100,
                    preload: true,
                    stats_prefix: format!("c{i}"),
                },
            ))));
        }
        setup.fabric.power_on();
        setup.fabric.run_for(SimDuration::from_secs(2));
        for (i, &port) in clients.iter().enumerate() {
            let c: &KvsClientHost = setup
                .fabric
                .machine(setup.machines[i])
                .host_as(port)
                .expect("client port");
            assert!(c.is_done() && c.errors() + c.timeouts() == 0, "client {i}");
        }
        let merged = setup.fabric.merged_trace();
        assert!(
            merged.events().any(|e| e.data.kind() == "link_hop"),
            "the fabric traced its hops"
        );
        let report = critpath::analyze(&merged);
        assert!(report.ops.len() > 100, "ops reconstructed");
        let sized = |s: String| (fnv1a(s.as_bytes()), s.len());
        (
            merged.len(),
            sized(export::trace_jsonl(&merged)),
            sized(format!("{report:?}")),
        )
    }

    #[test]
    fn a_linked_rack_merges_and_analyzes_as_before() {
        let first = observe_linked();
        assert_eq!(first, observe_linked(), "same seed, same bytes");
        assert_eq!(first, PARENT_LINKED);
    }
}
