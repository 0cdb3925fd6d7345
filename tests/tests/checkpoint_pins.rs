//! A checkpoint's bytes and a failed verification's report, recorded at the
//! commit before `Checkpoint::digest` streamed and `verify_checkpoint` began
//! comparing section by section as it serializes (DESIGN.md §14.2). A warmed
//! machine and a warmed rack are held to their digests, and each is verified
//! against doctored copies of its own checkpoint: the `VerifyMismatch` text
//! must be the parent's, character for character.

use lastcpu_bus::{Dst, Envelope, Payload};
use lastcpu_core::devices::device::{Device, DeviceCtx};
use lastcpu_core::devices::ssd::SsdConfig;
use lastcpu_core::{System, SystemConfig};
use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::ServerConfig;
use lastcpu_kvs::{build_cpuless_kvs, build_rack_kvs_with_policy, RackSetup, RetryPolicy};
use lastcpu_sim::{SimDuration, SimTime};
use lastcpu_snap::{Checkpoint, Result};

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
        ..WorkloadConfig::default()
    }
}

/// A `kv_hot_get`-shaped machine, tracing on, stopped with requests in
/// flight.
fn machine() -> System {
    let mut setup = build_cpuless_kvs(
        SystemConfig {
            seed: 11,
            ..SystemConfig::default()
        },
        SsdConfig::default(),
        ServerConfig::default(),
    );
    let port = setup.kvs_port;
    let client = setup
        .system
        .add_host(Box::new(KvsClientHost::new(port, workload(0))));
    setup.system.power_on();
    setup.system.run_until(SimTime::from_nanos(60_000_000));
    let c: &KvsClientHost = setup.system.host_as(client).expect("client");
    assert!(c.ops_done() > 500 && !c.is_done(), "the client is mid-run");
    setup.system
}

/// Four machines on leaf-spine:2, R = 2, a client per machine through its
/// local router, stopped mid-run.
fn rack() -> RackSetup {
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
            ..SystemConfig::default()
        },
        RetryPolicy::default(),
    );
    for i in 0..4 {
        let router = setup.router_ports[i];
        let m = setup.fabric.machine_mut(setup.machines[i]);
        m.add_host(Box::new(KvsClientHost::new(router, workload(i))));
    }
    setup.fabric.power_on();
    setup.fabric.run_until(SimTime::from_nanos(60_000_000));
    for i in 0..4 {
        assert!(
            setup.router(i).stats().requests > 200,
            "router {i} is serving"
        );
    }
    setup
}

/// `ck` with one thing changed, rebuilt through the public API.
fn rebuilt(
    ck: &Checkpoint,
    mut edit: impl FnMut(&str, &[u8]) -> Option<(String, Vec<u8>)>,
) -> Checkpoint {
    let mut out = Checkpoint::new(ck.manifest.clone());
    for tag in ck.section_tags() {
        if let Some((tag, body)) = edit(tag, ck.section(tag).expect("listed")) {
            out.add_section(&tag, body);
        }
    }
    out
}

/// Five doctored copies of `ck`: a manifest field changed, `target`
/// renamed, one byte in the middle of `target`'s body flipped, the last
/// section missing, one section too many.
fn doctored(ck: &Checkpoint, target: &str) -> Vec<Checkpoint> {
    let last = ck.section_tags().last().expect("sections").to_string();
    let mut manifest = ck.clone();
    manifest.manifest.events += 1;
    let mut extra = ck.clone();
    extra.add_section("extra", vec![1, 2, 3]);
    vec![
        manifest,
        rebuilt(ck, |t, b| {
            let t = if t == target {
                format!("{t}x")
            } else {
                t.into()
            };
            Some((t, b.to_vec()))
        }),
        rebuilt(ck, |t, b| {
            let mut b = b.to_vec();
            if t == target {
                let mid = b.len() / 2;
                b[mid] ^= 0x10;
            }
            Some((t.into(), b))
        }),
        rebuilt(ck, |t, b| (t != last).then(|| (t.into(), b.to_vec()))),
        extra,
    ]
}

fn report(r: Result<()>) -> String {
    r.expect_err("a doctored checkpoint fails").to_string()
}

/// `Checkpoint::digest` of the machine, and what `verify_checkpoint`
/// reports against each doctored copy of its checkpoint.
const PARENT_MACHINE: (u64, [&str; 5]) = (
    3418809664051101443,
    [
        r#"restored state diverged in section "system": manifest differs: Manifest { schema_version: 2, seed: 11, virtual_ns: 59777506, events: 3103, config_fp: 5536277680403336018, label: "pins" } vs Manifest { schema_version: 2, seed: 11, virtual_ns: 59777506, events: 3102, config_fp: 5536277680403336018, label: "pins" }"#,
        r#"restored state diverged in section "system": section 4 tag differs: "dramx" vs "dram""#,
        r#"restored state diverged in section "system": section "dram" differs: 4881 vs 4881 bytes, first divergence at offset 2440"#,
        r#"restored state diverged in section "system": section count differs: 12 vs 13"#,
        r#"restored state diverged in section "system": section count differs: 14 vs 13"#,
    ],
);

/// The same for the rack, plus a machine section cut short by nine bytes.
const PARENT_RACK: (u64, [&str; 6]) = (
    1066751567424830256,
    [
        r#"restored state diverged in section "rack": manifest differs: Manifest { schema_version: 2, seed: 4011, virtual_ns: 60000000, events: 12968, config_fp: 16570750973892390379, label: "pins" } vs Manifest { schema_version: 2, seed: 4011, virtual_ns: 60000000, events: 12967, config_fp: 16570750973892390379, label: "pins" }"#,
        r#"restored state diverged in section "rack": section 4 tag differs: "machine1x" vs "machine1""#,
        r#"restored state diverged in section "rack": section "machine1" differs: 574767 vs 574767 bytes, first divergence at offset 287383"#,
        r#"restored state diverged in section "rack": section count differs: 6 vs 7"#,
        r#"restored state diverged in section "rack": section count differs: 8 vs 7"#,
        r#"restored state diverged in section "rack": section "machine2" differs: 491005 vs 491014 bytes, first divergence at end"#,
    ],
);

#[test]
fn a_machine_digests_and_reports_as_before() {
    let sys = machine();
    let ck = sys.checkpoint("pins").expect("every component snapshots");
    sys.verify_checkpoint(&ck)
        .expect("a machine verifies against itself");
    let reports: Vec<String> = doctored(&ck, "dram")
        .into_iter()
        .map(|d| report(sys.verify_checkpoint(&d)))
        .collect();
    assert_eq!(ck.digest(), PARENT_MACHINE.0);
    assert_eq!(reports, PARENT_MACHINE.1);
}

#[test]
fn a_rack_digests_and_reports_as_before() {
    let setup = rack();
    let ck = setup.fabric.checkpoint("pins").expect("rack checkpoints");
    setup
        .fabric
        .verify_checkpoint(&ck)
        .expect("a rack verifies against itself");
    let mut reports: Vec<String> = doctored(&ck, "machine1")
        .into_iter()
        .map(|d| report(setup.fabric.verify_checkpoint(&d)))
        .collect();
    let cut = rebuilt(&ck, |t, b| {
        let b = if t == "machine2" {
            &b[..b.len() - 9]
        } else {
            b
        };
        Some((t.into(), b.to_vec()))
    });
    reports.push(report(setup.fabric.verify_checkpoint(&cut)));
    assert_eq!(ck.digest(), PARENT_RACK.0);
    assert_eq!(reports, PARENT_RACK.1);
}

/// Registers and listens; has no snapshot hook.
struct Opaque;

impl Device for Opaque {
    fn name(&self) -> &str {
        "opaque"
    }
    fn kind(&self) -> &str {
        "opaque"
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: "opaque".into(),
                kind: "opaque".into(),
            },
        );
    }
    fn on_message(&mut self, _ctx: &mut DeviceCtx<'_>, _env: &Envelope) {}
    fn on_timer(&mut self, _ctx: &mut DeviceCtx<'_>, _token: u64) {}
}

/// A component that cannot serialize fails verification as it fails a
/// checkpoint, whatever the checkpoint it is verified against holds.
#[test]
fn a_machine_that_cannot_serialize_reports_so() {
    let mut sys = System::new(SystemConfig::default());
    sys.add_device(Box::new(Opaque));
    sys.power_on();
    sys.run_for(SimDuration::from_micros(100));
    let want = sys
        .checkpoint("opaque")
        .expect_err("no snapshot hook")
        .to_string();
    let ck = machine().checkpoint("other").expect("checkpoints");
    assert_eq!(report(sys.verify_checkpoint(&ck)), want);
    assert_eq!(
        want,
        r#"component "device \"opaque\" (kind \"opaque\")" does not support snapshot/restore"#
    );
}
