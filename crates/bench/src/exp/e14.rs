//! E14 — deterministic checkpoint/restore: a rack checkpoint taken mid-run
//! restores, in this process (`restore`) and in a fresh one re-executed as
//! `lastcpu-bench e14 --restore-from` (`cross_process_audit`), and continues
//! byte-identically to a run never interrupted. EXPERIMENTS.md E14 has the
//! matrix and gates, DESIGN.md §14 the format; `--checkpoint-out` and
//! `--restore-from` also work standalone.

use std::time::Instant;

use lastcpu_core::SystemConfig;
use lastcpu_fabric::FabricConfig;
use lastcpu_kvs::build_rack_kvs;
use lastcpu_kvs::client::WorkloadConfig;
use lastcpu_sim::{export, FaultKind, FaultPlan, SimDuration, SimTime};
use lastcpu_snap::{fnv1a_fold, Checkpoint};

use super::{Experiment, Gates};
use crate::cli::Args;
use crate::flags;
use crate::rack::{e10_load, RackBench};
use crate::report::{round, Cell, Report};
use crate::Json;

pub const EXP: Experiment = Experiment {
    name: "e14",
    title: "E14: checkpoint/restore — snapshot mid-run, restore, continue byte-identically",
    flags: flags! {
        "--machines"       U64     "6"                 "rack size (>= 3)"
        "--replication"    U64     "2"                 "replication factor"
        "--ops"            U64     "150"               "measured ops per client"
        "--keys"           U64     "120"               "keyspace (Zipf 0.99)"
        "--value-size"     U64     "128"               "value bytes"
        "--outstanding"    U64     "8"                 "requests in flight per client"
        "--seeds"          U64List "0xE14,0xE15,0xE16" "a no-fault and a crash cell per seed"
        "--ckpt-at-us"     U64     "80000"             "virtual microseconds before the checkpoint"
        "--checkpoint-out" Str     ""                  "keep the crash-arm checkpoint here (default: a temp file, removed)"
        "--restore-from"   Str     ""                  "restore this checkpoint here instead of running the matrix (recipe: --seed, --crash)"
        "--seed"           U64     "0xE14"             "the checkpoint's seed, for --restore-from"
        "--crash"          Switch  ""                  "--restore-from: the checkpoint is a crash-arm one"
    },
    obs: &[],
    smoke: &["--seeds 3604 --machines 4 --ops 100 --keys 60"],
    run,
    check,
};

/// Virtual instant the crash arm kills machine `m1` (before the
/// checkpoint, so the checkpoint captures — and restore must reproduce —
/// post-crash state).
const CRASH_AT_US: u64 = 1_500;
const RUN_CAP: SimDuration = SimDuration::from_secs(60);

/// The recipe flags a restore child must be handed back verbatim.
const RECIPE: [&str; 6] = [
    "--machines",
    "--replication",
    "--ops",
    "--keys",
    "--value-size",
    "--outstanding",
];

fn build(args: &Args, seed: u64, crash: bool) -> RackBench {
    let crash_plan = || {
        let mut plan = FaultPlan::new(0xE14F);
        plan.inject(
            SimTime::from_nanos(CRASH_AT_US * 1_000),
            "m1",
            FaultKind::Crash,
        );
        plan
    };
    let setup = build_rack_kvs(
        FabricConfig {
            fault_plan: crash.then(crash_plan),
            ..FabricConfig::default()
        },
        args.usize("--machines"),
        args.usize("--replication"),
        SystemConfig {
            seed,
            trace: false,
            ..SystemConfig::default()
        },
    );
    let load = WorkloadConfig {
        keys: args.u64("--keys"),
        value_size: args.usize("--value-size"),
        outstanding: args.usize("--outstanding"),
        ..e10_load(args.u64("--ops"))
    };
    RackBench::build(setup, load)
}

/// Sampled-measurement barrier: zero every machine's pool counters so
/// subsequent digests cover only the post-checkpoint window; then run the
/// workload out. Returns the events that took.
fn finish(b: &mut RackBench) -> u64 {
    for &m in &b.setup.machines {
        b.setup.fabric.machine(m).pool().reset_stats();
    }
    let before = b.events;
    assert!(b.run_until_done(RUN_CAP), "workload incomplete");
    b.events - before
}

/// The determinism digest over every end-state observable: fabric and
/// machine metrics, pool activity, per-machine KVS contents, the
/// acked-write audit, and the final rack checkpoint (which covers
/// traces, queues, device and host state byte-for-byte).
fn digest(b: &RackBench) -> String {
    let fab = &b.setup.fabric;
    let mut h = 0xcbf29ce484222325u64;
    let mut fold = |s: &str| fnv1a_fold(&mut h, s.as_bytes());
    fold(&export::metrics_json(fab.metrics()));
    for (i, &m) in b.setup.machines.iter().enumerate() {
        fold(&export::metrics_json(fab.machine(m).stats()));
        fold(&format!("{:?}", fab.machine(m).pool().stats()));
        fold(&format!("k{}", b.setup.nic(i).app().key_count()));
    }
    fold(&format!("lost{}", b.setup.lost_acked_keys()));
    let end = fab.checkpoint("e14-end").expect("end-state checkpoint");
    fold(&format!("ck{:016x}", end.digest()));
    format!("{h:016x}")
}

/// One matrix cell: reference run with a mid-run checkpoint, then a fresh
/// rack restored from that checkpoint; both continue to completion and
/// must land on the same digest.
fn restore_cell(args: &Args, seed: u64, crash: bool) -> (Cell, Checkpoint) {
    // --- Reference run (never interrupted) ------------------------------
    let mut a = build(args, seed, crash);
    a.setup.fabric.power_on();
    let ckpt_at = SimDuration::from_micros(args.u64("--ckpt-at-us"));
    let mut total_events = a.setup.fabric.run_for(ckpt_at);
    let t0 = Instant::now();
    let ck = a
        .setup
        .fabric
        .checkpoint("e14")
        .expect("every rack component snapshots");
    let ckpt_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        ck.manifest.events, total_events,
        "the manifest's cursor is what the run retired on its way here"
    );
    let encoded = ck.encode();
    // The checkpoint container round-trips bit-exactly through its own
    // framing (decode re-verifies every section checksum).
    let reread = Checkpoint::decode(&encoded).expect("checkpoint re-decodes");
    assert_eq!(
        reread.digest(),
        ck.digest(),
        "checkpoint encode/decode must be byte-stable"
    );
    total_events += finish(&mut a);
    let d_a = digest(&a);

    // --- Restored run (fresh rack, load + verify, continue) -------------
    let mut b = build(args, seed, crash);
    b.setup.fabric.power_on();
    let t1 = Instant::now();
    b.setup
        .fabric
        .restore_from(&ck)
        .expect("restore must verify byte-for-byte");
    let restore_ms = t1.elapsed().as_secs_f64() * 1e3;
    finish(&mut b);
    assert_eq!(
        d_a,
        digest(&b),
        "restored run diverged from uninterrupted run (seed {seed:#x}, crash {crash})"
    );

    let cell = Cell::new("restore")
        .id("seed", seed)
        .id("crash", crash)
        .lower("ckpt_bytes", encoded.len() as f64, "B", 0.10)
        .exact("ckpt_sections", ck.section_count(), "count")
        .exact("ckpt_events", ck.manifest.events, "count")
        .lower("ckpt_ms", round(ckpt_ms, 3), "ms", 0.25)
        .host()
        .lower("restore_ms", round(restore_ms, 3), "ms", 0.25)
        .host()
        .exact("total_events", total_events, "count")
        .exact("virtual_ns", a.setup.fabric.now().as_nanos(), "ns")
        .exact("lost_acked_keys", a.setup.lost_acked_keys(), "count")
        .exact("digest", d_a, "");
    (cell, ck)
}

/// `--restore-from` mode: rebuild the recipe from the flags, restore the
/// on-disk checkpoint in this fresh process, finish the workload, audit.
fn restored_cell(args: &Args, path: &str) -> Result<Cell, String> {
    let ck = Checkpoint::read_file(path).map_err(|e| format!("--restore-from {path}: {e}"))?;
    let mut b = build(args, args.u64("--seed"), args.on("--crash"));
    b.setup.fabric.power_on();
    b.setup
        .fabric
        .restore_from(&ck)
        .map_err(|e| format!("--restore-from {path}: does not verify against this recipe: {e}"))?;
    finish(&mut b);
    Ok(Cell::new("restored")
        .exact("lost_acked_keys", b.setup.lost_acked_keys(), "count")
        .exact("digest", digest(&b), ""))
}

/// Cross-process durability audit: write the crash-arm checkpoint to disk,
/// re-execute this binary, and require the child's restored run to match
/// the parent's uninterrupted digest with zero lost acked writes.
fn cross_process_audit(args: &Args, seed: u64, ck: &Checkpoint, want_digest: &str) -> bool {
    let scratch = std::env::temp_dir().join(format!("lastcpu-e14-{}", std::process::id()));
    let scratch = scratch.to_string_lossy();
    let keep = args.str("--checkpoint-out");
    let path = keep.map_or(format!("{scratch}.ckpt"), String::from);
    let report = format!("{scratch}.json");
    ck.write_file(&path).expect("write checkpoint file");
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe);
    child.args(["e14", "--restore-from", &path, "--out", &report]);
    child.args(["--crash", "--seed", &seed.to_string()]);
    for name in RECIPE {
        child.args([name, &args.u64(name).to_string()]);
    }
    let out = child.output().expect("spawn restore child");
    let restored = Report::read(&report);
    let _ = std::fs::remove_file(&report);
    if keep.is_none() {
        let _ = std::fs::remove_file(&path);
    }
    let matches = |c: &Cell| c.is("digest", want_digest) && c.num("lost_acked_keys") == 0.0;
    let ok = out.status.success()
        && restored
            .as_ref()
            .is_ok_and(|r| r.group("restored").any(matches));
    if !ok {
        eprintln!(
            "cross-process audit failed: status {:?}, child reported {restored:?} \
             (wanted digest={want_digest}, lost=0)\n--- child stderr ---\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    ok
}

fn run(args: &Args) -> Result<Vec<Cell>, String> {
    if args.u64("--machines") < 3 {
        return Err("--machines must be >= 3".into());
    }
    if let Some(path) = args.str("--restore-from") {
        return Ok(vec![restored_cell(args, path)?]);
    }
    let mut cells = Vec::new();
    let mut audit = None;
    for seed in args.u64s("--seeds") {
        for crash in [false, true] {
            let (cell, ck) = restore_cell(args, seed, crash);
            // The crash-arm checkpoint of the first seed feeds the
            // cross-process audit.
            if crash && audit.is_none() {
                let digest = cell
                    .get("digest")
                    .and_then(Json::as_str)
                    .expect("digest")
                    .to_string();
                audit = Some((seed, ck, digest));
            }
            cells.push(cell);
        }
    }
    let (seed, ck, digest) = audit.expect("crash arm ran");
    cells.push(
        Cell::new("cross_process_audit")
            .exact("ok", cross_process_audit(args, seed, &ck, &digest), "")
            .exact("digest", digest, ""),
    );
    Ok(cells)
}

fn check(r: &Report) -> Vec<String> {
    let mut g = Gates::default();
    let durable = r.config_num("replication") >= Some(2.0);
    if r.config
        .get("restore_from")
        .is_some_and(|p| *p != Json::Null)
    {
        // Warm-start mode: the one cell is the restored run's audit.
        let crash = r.config.get("crash") == Some(&true.into());
        let kept = r.group("restored").any(|c| c.num("lost_acked_keys") == 0.0);
        g.require(
            kept || !(crash && durable),
            "restored run lost acknowledged writes".into(),
        );
        return g.0;
    }
    let seeds = r
        .config
        .get("seeds")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    let cells = r.group("restore").count();
    g.require(
        cells == 2 * seeds,
        format!("{cells} restore cells for {seeds} seeds x {{no-fault, crash}}"),
    );
    for c in r.group("restore") {
        let at = c.label();
        let snapped = c.num("ckpt_bytes") > 0.0 && c.num("ckpt_sections") > 0.0;
        g.require(snapped, format!("{at}: empty checkpoint"));
        let kept = c.num("lost_acked_keys") == 0.0 || !(c.key_is("crash", true) && durable);
        g.require(kept, format!("{at}: crash cell lost acknowledged writes"));
    }
    let audited = r.group("cross_process_audit").any(|c| c.is("ok", true));
    g.require(audited, "cross-process restart audit did not pass".into());
    g.0
}
