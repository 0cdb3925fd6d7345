//! A checkpoint's bytes and a failed verification's report, recorded at the
//! commit before `Checkpoint::digest` streamed and `verify_checkpoint` began
//! comparing section by section as it serializes (DESIGN.md §14.2). A warmed
//! machine and a warmed rack are held to their digests, and each is verified
//! against doctored copies of its own checkpoint: the `VerifyMismatch` text
//! must be the parent's, character for character.
//!
//! The reports for checksums doctored inside a rack's machine sections, and
//! `Checkpoint::decode`'s choice between two failures, were recorded at the
//! commit before a verify took a matched section's checksum as a claim and
//! checked the claims four at a time (DESIGN.md §14.2).
//!
//! Every digest, offset and length here was re-recorded when
//! `SCHEMA_VERSION` became 3 (sections hold pending events, no pins or id
//! lists, and a word-at-a-time checksum); the reports' wording and the
//! failures they pick did not change. They were re-recorded again when the
//! KVS client dropped its timeout from its section and began carrying each
//! request's kind and its armed wake-up instant: the machine's and the
//! rack's digests, and offsets and lengths 81 or 82 bytes shorter. The
//! digests, the manifests' `schema_version` and the version-mismatch
//! reports were re-recorded when `SCHEMA_VERSION` became 4, with the rack's
//! digest moved also by the directory's `Unchanged` answer; no offset or
//! length moved. The default fabric's config fingerprint in the recipe
//! refusal was re-recorded when the default topology became leaf-spine:8
//! (for this four-machine rack the same graph as the `flat` it replaced).

use lastcpu_bus::{Dst, Envelope, Payload};
use lastcpu_core::devices::device::{Device, DeviceCtx};
use lastcpu_core::devices::ssd::SsdConfig;
use lastcpu_core::{System, SystemConfig};
use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::ServerConfig;
use lastcpu_kvs::{build_cpuless_kvs, build_rack_kvs, RackSetup};
use lastcpu_sim::{SimDuration, SimTime};
use lastcpu_snap::{Checkpoint, Result, SnapError};

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
/// local router, powered on.
fn fresh_rack() -> RackSetup {
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
    setup
}

/// [`fresh_rack`], stopped mid-run.
fn rack() -> RackSetup {
    let mut setup = fresh_rack();
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
    5269540522967633981,
    [
        r#"restored state diverged in section "system": manifest differs: Manifest { schema_version: 4, seed: 11, virtual_ns: 59777506, events: 3103, config_fp: 5536277680403336018, label: "pins" } vs Manifest { schema_version: 4, seed: 11, virtual_ns: 59777506, events: 3102, config_fp: 5536277680403336018, label: "pins" }"#,
        r#"restored state diverged in section "system": section 4 tag differs: "dramx" vs "dram""#,
        r#"restored state diverged in section "system": section "dram" differs: 4881 vs 4881 bytes, first divergence at offset 2440"#,
        r#"restored state diverged in section "system": section count differs: 12 vs 13"#,
        r#"restored state diverged in section "system": section count differs: 14 vs 13"#,
    ],
);

/// The same for the rack, plus a machine section cut short by nine bytes.
const PARENT_RACK: (u64, [&str; 6]) = (
    11067005764421470332,
    [
        r#"restored state diverged in section "rack": manifest differs: Manifest { schema_version: 4, seed: 4011, virtual_ns: 60000000, events: 12968, config_fp: 16570750973892390379, label: "pins" } vs Manifest { schema_version: 4, seed: 4011, virtual_ns: 60000000, events: 12967, config_fp: 16570750973892390379, label: "pins" }"#,
        r#"restored state diverged in section "rack": section 4 tag differs: "machine1x" vs "machine1""#,
        r#"restored state diverged in section "rack": section "machine1" differs: 529577 vs 529577 bytes, first divergence at offset 264788"#,
        r#"restored state diverged in section "rack": section count differs: 6 vs 7"#,
        r#"restored state diverged in section "rack": section count differs: 8 vs 7"#,
        r#"restored state diverged in section "rack": section "machine2" differs: 449012 vs 449021 bytes, first divergence at end"#,
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

/// Each section of an encoded checkpoint: its tag and where its body and
/// its checksum start.
fn framing(enc: &[u8]) -> Vec<(String, usize, usize)> {
    let word =
        |at: usize| u64::from_le_bytes(enc[at..at + 8].try_into().expect("8 bytes")) as usize;
    // Magic, schema version, four manifest words, then the label.
    let label = 8 + 4 + 4 * 8;
    let mut at = label + 8 + word(label);
    let n = word(at);
    at += 8;
    (0..n)
        .map(|_| {
            let tag = String::from_utf8(enc[at + 8..at + 8 + word(at)].to_vec()).expect("utf-8");
            at += 8 + tag.len();
            let body = at + 8;
            at = body + word(at);
            let sum = at;
            at += 8;
            (tag, body, sum)
        })
        .collect()
}

/// Where `tag`'s body and checksum start in an encoded checkpoint.
fn locate(enc: &[u8], tag: &str) -> (usize, usize) {
    let (_, body, sum) = framing(enc)
        .into_iter()
        .find(|(t, _, _)| t == tag)
        .expect("an inner section");
    (body, sum)
}

/// `ck` with `edit` applied to the bodies of the named machine sections.
fn doctor_machines(ck: &Checkpoint, mut edit: impl FnMut(&str, &mut Vec<u8>)) -> Checkpoint {
    rebuilt(ck, |t, b| {
        let mut b = b.to_vec();
        edit(t, &mut b);
        Some((t.into(), b))
    })
}

/// What a rack reports against checkpoints doctored inside a machine's
/// encoding, where the inner checksums are: byte 0 and byte 7 of four of
/// machine1's inner sums; a sum and a later body byte of machine1; the body
/// byte just before a sum; a sum in machine2 and a body byte in machine3;
/// machine1 cut inside a sum; two sums of machine1; a sum in machine1 and
/// one in machine2.
const PARENT_RACK_SUMS: [&str; 14] = [
    r#"restored state diverged in section "rack": section "machine1" differs: 529577 vs 529577 bytes, first divergence at offset 873"#,
    r#"restored state diverged in section "rack": section "machine1" differs: 529577 vs 529577 bytes, first divergence at offset 880"#,
    r#"restored state diverged in section "rack": section "machine1" differs: 529577 vs 529577 bytes, first divergence at offset 243247"#,
    r#"restored state diverged in section "rack": section "machine1" differs: 529577 vs 529577 bytes, first divergence at offset 243254"#,
    r#"restored state diverged in section "rack": section "machine1" differs: 529577 vs 529577 bytes, first divergence at offset 518412"#,
    r#"restored state diverged in section "rack": section "machine1" differs: 529577 vs 529577 bytes, first divergence at offset 518419"#,
    r#"restored state diverged in section "rack": section "machine1" differs: 529577 vs 529577 bytes, first divergence at offset 529569"#,
    r#"restored state diverged in section "rack": section "machine1" differs: 529577 vs 529577 bytes, first divergence at offset 529576"#,
    r#"restored state diverged in section "rack": section "machine1" differs: 529577 vs 529577 bytes, first divergence at offset 873"#,
    r#"restored state diverged in section "rack": section "machine1" differs: 529577 vs 529577 bytes, first divergence at offset 243246"#,
    r#"restored state diverged in section "rack": section "machine2" differs: 449021 vs 449021 bytes, first divergence at offset 874"#,
    r#"restored state diverged in section "rack": section "machine1" differs: 518416 vs 529577 bytes, first divergence at end"#,
    r#"restored state diverged in section "rack": section "machine1" differs: 529577 vs 529577 bytes, first divergence at offset 873"#,
    r#"restored state diverged in section "rack": section "machine1" differs: 529577 vs 529577 bytes, first divergence at offset 518412"#,
];

#[test]
fn a_rack_reports_a_doctored_inner_checksum_as_before() {
    let setup = rack();
    let ck = setup.fabric.checkpoint("pins").expect("rack checkpoints");
    let m1 = ck.section("machine1").expect("a machine");
    let mut cases = Vec::new();
    for tag in ["engine", "trace", "dev1", "host1"] {
        let (_, sum) = locate(m1, tag);
        for byte in [0, 7] {
            cases.push(doctor_machines(&ck, |t, b| {
                if t == "machine1" {
                    b[sum + byte] ^= 0x01;
                }
            }));
        }
    }
    let (_, engine_sum) = locate(m1, "engine");
    let (trace_body, trace_sum) = locate(m1, "trace");
    cases.push(doctor_machines(&ck, |t, b| {
        if t == "machine1" {
            b[engine_sum] ^= 0x80;
            b[(trace_body + trace_sum) / 2] ^= 0x02;
        }
    }));
    cases.push(doctor_machines(&ck, |t, b| {
        if t == "machine1" {
            b[trace_sum - 1] ^= 0x04;
        }
    }));
    cases.push(doctor_machines(&ck, |t, b| {
        if t == "machine2" {
            let (_, sum) = locate(b, "rpc");
            b[sum + 3] ^= 0x10;
        }
        if t == "machine3" {
            let (body, sum) = locate(b, "dev1");
            b[(body + sum) / 2] ^= 0x20;
        }
    }));
    let (_, dev1_sum) = locate(m1, "dev1");
    cases.push(doctor_machines(&ck, |t, b| {
        if t == "machine1" {
            b.truncate(dev1_sum + 4);
        }
    }));
    cases.push(doctor_machines(&ck, |t, b| {
        if t == "machine1" {
            b[trace_sum + 7] ^= 0x01;
            b[engine_sum] ^= 0x01;
        }
    }));
    cases.push(doctor_machines(&ck, |t, b| {
        if t == "machine1" {
            b[dev1_sum] ^= 0x01;
        }
        if t == "machine2" {
            let (_, sum) = locate(b, "rpc");
            b[sum + 3] ^= 0x10;
        }
    }));
    let reports: Vec<String> = cases
        .iter()
        .map(|d| report(setup.fabric.verify_checkpoint(d)))
        .collect();
    assert_eq!(reports, PARENT_RACK_SUMS);
}

/// A rack restore hashes each checksum inside a machine's section once, in
/// its load, and its verify takes them as checked: a checkpoint with one of
/// them flipped is still refused, as the checksum mismatch of the inner
/// section it belongs to, and the undoctored one restores.
#[test]
fn a_restore_refuses_a_flipped_inner_checksum() {
    let ck = rack().fabric.checkpoint("pins").expect("rack checkpoints");
    let m1 = ck.section("machine1").expect("a machine");
    for tag in ["engine", "trace", "dev1", "host1"] {
        let (_, sum) = locate(m1, tag);
        let doctored = doctor_machines(&ck, |t, b| {
            if t == "machine1" {
                b[sum + 3] ^= 0x08;
            }
        });
        match fresh_rack().fabric.restore_from(&doctored) {
            Err(SnapError::ChecksumMismatch { section, .. }) => assert_eq!(section, tag),
            other => panic!("{tag}: expected a checksum mismatch, got {other:?}"),
        }
    }
    fresh_rack()
        .fabric
        .restore_from(&ck)
        .expect("the undoctored checkpoint restores");
}

/// What `Checkpoint::decode` reports for a machine's encoding with two
/// checksums flipped, with a checksum flipped before a cut, and cut alone.
const PARENT_DECODE: [&str; 3] = [
    r#"checksum mismatch in section "rng": stored 0x827353b521ba4e0e, body hashes to 0x827353b521ba4e0f"#,
    r#"checksum mismatch in section "bus": stored 0x8246fd47066a846e, body hashes to 0x8246fd47066b846e"#,
    r#"corrupt section "checkpoint": truncated: need 220671 bytes at offset 8761, have 110335"#,
];

#[test]
fn decode_reports_the_first_failure_in_the_encoding() {
    let enc = machine().checkpoint("pins").expect("checkpoints").encode();
    let (_, rng_sum) = locate(&enc, "rng");
    let (trace_body, trace_sum) = locate(&enc, "trace");
    let (_, bus_sum) = locate(&enc, "bus");
    let failure = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = enc.clone();
        edit(&mut bytes);
        Checkpoint::decode(&bytes)
            .expect_err("a doctored encoding fails")
            .to_string()
    };
    let reports = [
        failure(&|b| {
            b[rng_sum] ^= 1;
            b[trace_sum + 7] ^= 1;
        }),
        failure(&|b| {
            b[bus_sum + 2] ^= 1;
            b.truncate((trace_body + trace_sum) / 2);
        }),
        failure(&|b| b.truncate((trace_body + trace_sum) / 2)),
    ];
    assert_eq!(reports, PARENT_DECODE);
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

/// What `restore_from` refuses before it replays: a checkpoint of another
/// schema, one whose manifest names another seed, and one made from another
/// recipe. A rack checks no seed of its own (the fabric's seed is part of
/// its recipe), so a doctored seed reaches the manifest comparison.
const PARENT_REFUSALS: [&str; 6] = [
    "schema version mismatch: this build reads v4, checkpoint is v5",
    r#"restored state diverged in section "manifest": seed mismatch: checkpoint 12, this machine 11"#,
    r#"restored state diverged in section "manifest": config fingerprint mismatch: checkpoint 0x4cd4cf37c65d4b52, this machine 0x9fe55e76e15c0789"#,
    "schema version mismatch: this build reads v4, checkpoint is v5",
    r#"restored state diverged in section "rack": manifest differs: Manifest { schema_version: 4, seed: 4012, virtual_ns: 60000000, events: 12967, config_fp: 16570750973892390379, label: "pins" } vs Manifest { schema_version: 4, seed: 4011, virtual_ns: 60000000, events: 12967, config_fp: 16570750973892390379, label: "pins" }"#,
    r#"restored state diverged in section "manifest": config fingerprint mismatch: checkpoint 0xe5f7223714506deb, this rack 0x80033e38a7173278"#,
];

/// `ck` with its manifest edited.
fn with_manifest(ck: &Checkpoint, edit: impl FnOnce(&mut lastcpu_snap::Manifest)) -> Checkpoint {
    let mut out = ck.clone();
    edit(&mut out.manifest);
    out
}

#[test]
fn restore_refuses_another_schema_seed_or_recipe_as_before() {
    let mut sys = machine();
    let ck = sys.checkpoint("pins").expect("checkpoints");
    let mut reports = vec![
        report(sys.restore_from(&with_manifest(&ck, |m| m.schema_version += 1))),
        report(sys.restore_from(&with_manifest(&ck, |m| m.seed += 1))),
        report(
            System::new(SystemConfig {
                seed: 11,
                ..SystemConfig::default()
            })
            .restore_from(&ck),
        ),
    ];
    let mut setup = rack();
    let ck = setup.fabric.checkpoint("pins").expect("rack checkpoints");
    reports.push(report(
        setup
            .fabric
            .restore_from(&with_manifest(&ck, |m| m.schema_version += 1)),
    ));
    reports.push(report(
        setup
            .fabric
            .restore_from(&with_manifest(&ck, |m| m.seed += 1)),
    ));
    let other = lastcpu_fabric::Fabric::new(FabricConfig::default());
    reports.push(report({ other }.restore_from(&ck)));
    assert_eq!(reports, PARENT_REFUSALS);
}
