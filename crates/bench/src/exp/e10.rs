//! E10 — rack scale-out: N CPU-less machines co-simulated under one fabric,
//! serving one sharded, replicated KVS.
//!
//! The paper's closing argument is that a machine with no CPU composes: if
//! every per-machine function is a self-managing device, a *rack* of such
//! machines is just more devices behind more links. E10 measures exactly
//! that composition:
//!
//! - **Scale-out** (`scaling`) — aggregate throughput and end-to-end
//!   p50/p99 as the rack grows 8 → 128 machines (one closed-loop client per
//!   machine, aimed at its local shard router; keys shard over every
//!   smart-NIC frontend in the rack, so ~(M−1)/M of requests cross the
//!   modeled inter-machine links).
//! - **Topology** — the same sweep over real wiring graphs: `flat` (the
//!   historical single spine), `leaf-spine`, and a k-ary `fat-tree`, each
//!   at oversubscription ratios from `--oversub`. Every cell reports
//!   per-link utilization (max/mean and the hottest link by busy time), so
//!   congestion is attributable to actual wires. See docs/TOPOLOGY.md.
//! - **Replication** — each PUT is acknowledged only when every replica
//!   acked, so R buys crash-durability with link and latency cost that
//!   this phase prices (`--replication`; default R = 2).
//! - **Fail-over at every cell** (`crash`) — a whole-machine crash mid-run,
//!   per (topology, oversubscription, machine-count) cell. The fabric's
//!   next directory sweep withdraws the dead machine's endpoints; routers
//!   re-shard and re-dispatch in-flight work. The run audits the paper's
//!   promise: with R ≥ 2 **no acknowledged write is lost** (the replicated
//!   copy survives on a live machine), while an R = 1 control loses the
//!   victim's shard.
//! - **Retry-policy baseline** — `--policies` repeats the matrix per router
//!   [`RetryPolicy`] arm (`static`, `adaptive+p2c`); the default is the
//!   shipping `adaptive+p2c` arm alone.
//!
//! Everything is virtual-time; two same-flag runs produce byte-identical
//! artifacts. `--trace-out` dumps the *merged* rack trace of the last crash
//! run (sources prefixed `m{i}/`, correlation ids rack-unique, so Perfetto
//! draws cross-machine spans); `--metrics-out` dumps the fabric metrics hub.

use lastcpu_core::SystemConfig;
use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
use lastcpu_kvs::client::WorkloadConfig;
use lastcpu_kvs::{build_rack_kvs_with_policy, RetryPolicy};
use lastcpu_sim::SimDuration;

use super::{Experiment, Gates};
use crate::cli::{Args, OBS_RACK};
use crate::flags;
use crate::obs::ObsArgs;
use crate::rack::{e10_load, RackBench};
use crate::report::{round, show, us, Cell, Report};
use crate::Json;

pub const EXP: Experiment = Experiment {
    name: "e10",
    title: "E10: rack scale-out — sharded, replicated CPU-less KVS over the fabric\n    \
            (a closed-loop client per machine; crash cells kill m1 after load, audit acked writes)",
    flags: flags! {
        "--machines"      U64List "8,16,32,64,128"           "rack sizes"
        "--replication"   U64List "2"                        "replication factors"
        "--policies"      StrList "adaptive+p2c"             "router retry arms (static, adaptive+p2c)"
        "--topologies"    StrList "flat,leaf-spine,fat-tree" "wiring graphs (flat, leaf-spine[:leaf], fat-tree[:k])"
        "--oversub"       U64List "1,4"                      "oversubscription ratios (flat runs once)"
        "--ops"           U64     "400"                      "measured ops per client"
        "--keys"          U64     "200"                      "keyspace (Zipf 0.99)"
        "--value-size"    U64     "128"                      "value bytes"
        "--outstanding"   U64     "8"                        "requests in flight per client"
        "--read-fraction" F64     "0.95"                     "GET share of the scaling workload"
        "--seed"          U64     "0xE10"                    "base seed (machine i adds i)"
        "--no-crash"      Switch  ""                         "skip the crash cells"
    },
    obs: OBS_RACK,
    smoke: &[
        // Both policy arms, the R = 1 control and the R = 2 audit.
        "--machines 1,2 --replication 1,2 --ops 120 --keys 60 \
         --policies static,adaptive+p2c --topologies flat --oversub 1",
        // The 8xR=3 tail cell at full size against its R = 2 baseline.
        "--machines 8 --replication 2,3 --policies adaptive+p2c --topologies flat --oversub 1",
        // A real tree: 2 leaves of 8, ECMP over the spines oversub 4 leaves.
        "--machines 16 --replication 2 --ops 120 --keys 60 \
         --policies adaptive+p2c --topologies leaf-spine:8 --oversub 4",
    ],
    run,
    check,
};

const RUN_CAP: SimDuration = SimDuration::from_secs(60);

/// One cell's coordinates in the matrix.
#[derive(Clone, Copy)]
struct Point {
    policy: RetryPolicy,
    topology: TopoKind,
    oversub: u64,
    machines: usize,
    replication: usize,
}

impl Point {
    fn cell(&self, group: &str) -> Cell {
        Cell::new(group)
            .id("policy", self.policy.to_string())
            .id("topology", self.topology.to_string())
            .id("oversub", self.oversub)
            .id("machines", self.machines)
            .id("replication", self.replication)
    }

    fn build(&self, args: &Args, read_fraction: f64) -> RackBench {
        let setup = build_rack_kvs_with_policy(
            FabricConfig {
                topology: TopologyConfig {
                    kind: self.topology,
                    oversub: self.oversub,
                },
                ..FabricConfig::default()
            },
            self.machines,
            self.replication,
            SystemConfig {
                seed: args.u64("--seed"),
                trace: args.str("--trace-out").is_some(),
                ..SystemConfig::default()
            },
            self.policy,
        );
        let load = WorkloadConfig {
            keys: args.u64("--keys"),
            read_fraction,
            value_size: args.usize("--value-size"),
            outstanding: args.usize("--outstanding"),
            ..e10_load(args.u64("--ops"))
        };
        RackBench::build(setup, load)
    }
}

/// The matrix in run order: policy × (topology, oversub) × machines ×
/// replication. A flat fabric has no oversubscription knob (one implicit
/// infinite spine), so it runs once regardless of `--oversub`; a cell
/// cannot hold R distinct replicas on fewer than R machines.
fn matrix(args: &Args) -> Result<Vec<Point>, String> {
    let policy = |p: &&str| RetryPolicy::parse(p).ok_or(format!("bad --policies arm {p:?}"));
    let policies: Vec<_> = args
        .strs("--policies")
        .iter()
        .map(policy)
        .collect::<Result<_, _>>()?;
    let topology = |t: &&str| TopoKind::parse(t).map_err(|e| format!("bad --topologies arm: {e}"));
    let topologies: Vec<_> = args
        .strs("--topologies")
        .iter()
        .map(topology)
        .collect::<Result<_, _>>()?;
    let (sizes, factors) = (args.u64s("--machines"), args.u64s("--replication"));
    if sizes.contains(&0) || factors.contains(&0) {
        return Err("--machines and --replication must be at least 1".into());
    }
    let mut points = Vec::new();
    for &policy in &policies {
        for &topology in &topologies {
            let oversubs = match topology {
                TopoKind::Flat => vec![1],
                _ => args.u64s("--oversub"),
            };
            for &oversub in &oversubs {
                for &machines in &sizes {
                    for &replication in factors.iter().filter(|&&r| r <= machines) {
                        points.push(Point {
                            policy,
                            topology,
                            oversub: oversub.max(1),
                            machines: machines as usize,
                            replication: replication as usize,
                        });
                    }
                }
            }
        }
    }
    Ok(points)
}

fn scale_cell(args: &Args, p: &Point) -> Cell {
    let mut b = p.build(args, args.f64("--read-fraction"));
    b.setup.fabric.power_on();
    let done = b.run_until_done(RUN_CAP);
    let lat = b.latency();
    // Per-link utilization over the whole run (`busy_ns / elapsed_ns`),
    // over the links that carried a frame; the hottest by busy time.
    let topo = b.setup.fabric.topology();
    let elapsed = b.setup.fabric.now().as_nanos().max(1) as f64;
    let (mut used, mut max, mut sum, mut hot) = (0usize, 0.0f64, 0.0f64, String::new());
    for l in topo.links().filter(|l| l.frames > 0) {
        used += 1;
        let util = l.busy_ns as f64 / elapsed;
        sum += util;
        if util > max {
            max = util;
            hot = l.name.to_string();
        }
    }
    // Aggregate throughput: sum of per-client closed-loop rates.
    let agg: f64 = (0..b.machines())
        .filter_map(|i| b.client(i).throughput())
        .sum();
    let metrics = b.setup.fabric.metrics();
    let frames = metrics.counter("fabric.frames_forwarded");
    let failovers = b.sum_router_stat(|s| s.failovers) as f64;
    p.cell("scaling")
        .exact("done", done, "")
        .exact("ops", b.sum_clients(|c| c.ops_done()), "count")
        .higher("agg_ops_per_sec", round(agg, 1), "1/s", 0.05)
        .lower("p50_us", us(lat.percentile(50.0)), "us", 0.10)
        .lower("p99_us", us(lat.percentile(99.0)), "us", 0.10)
        .exact("fabric_bytes", metrics.counter("fabric.bytes"), "B")
        .exact("frames_forwarded", frames, "count")
        .lower("failovers", failovers, "count", 0.10)
        .exact("give_ups", b.sum_router_stat(|s| s.give_ups), "count")
        .exact("links", topo.num_links(), "count")
        .exact("links_used", used, "count")
        .exact("max_link_util", round(max, 6), "frac")
        .exact("mean_link_util", round(sum / used.max(1) as f64, 6), "frac")
        .exact("hot_link", hot, "")
}

fn crash_cell(args: &Args, p: &Point) -> (Cell, RackBench) {
    // Pure-read measured phase: the preload's acknowledged PUTs are the
    // audited set, and nothing re-writes a lost key afterwards, so the
    // R = 1 control genuinely shows the loss.
    let mut b = p.build(args, 1.0);
    b.setup.fabric.power_on();
    // Let every machine finish loading, then kill machine 1 (never the
    // machine a key-holding audit would trivially excuse — any index > 0
    // works; "m1" matches the fault-plan convention used in fabric tests).
    let loaded = b.run_slices(RUN_CAP, |b| {
        (0..b.machines()).all(|i| !b.alive(i) || b.client(i).started_at().is_some())
    });
    let crash_at = b.setup.fabric.now();
    let victim = b.setup.machines[1];
    b.setup.fabric.kill_machine(victim);
    let done = loaded && b.run_until_done(RUN_CAP);
    let acked: usize = (0..p.machines)
        .filter(|&i| b.alive(i))
        .map(|i| b.setup.router(i).acked_put_keys().len())
        .sum();
    let crash_at_ms = round(crash_at.as_nanos() as f64 / 1e6, 3);
    let unavailable = b.sum_clients(|c| c.unavailable_rejections());
    let cell = p
        .cell("crash")
        .exact("crash_at_ms", crash_at_ms, "ms")
        .exact("done", done, "")
        .exact("ops", b.sum_clients(|c| c.ops_done()), "count")
        .exact("timeouts", b.sum_clients(|c| c.timeouts()), "count")
        .exact("unavailable", unavailable, "count")
        .exact("errors", b.sum_clients(|c| c.errors()), "count")
        .exact("give_ups", b.sum_router_stat(|s| s.give_ups), "count")
        .exact("failovers", b.sum_router_stat(|s| s.failovers), "count")
        .exact("acked_keys", acked, "count")
        .exact("lost_acked_keys", b.setup.lost_acked_keys(), "count");
    (cell, b)
}

fn run(args: &Args) -> Result<Vec<Cell>, String> {
    let points = matrix(args)?;
    let mut cells: Vec<Cell> = points.iter().map(|p| scale_cell(args, p)).collect();
    if !args.on("--no-crash") {
        let mut last = None;
        // A 1-machine rack has no surviving replica to audit.
        for p in points.iter().filter(|p| p.machines >= 2) {
            let (cell, bench) = crash_cell(args, p);
            cells.push(cell);
            last = Some(bench);
        }
        if let Some(b) = last {
            ObsArgs::from_args(args)
                .dump_parts(&b.setup.fabric.merged_trace(), b.setup.fabric.metrics());
        }
    }
    Ok(cells)
}

fn check(r: &Report) -> Vec<String> {
    let mut g = Gates::default();
    let list = |key: &str| r.config.get(key).and_then(Json::as_arr).unwrap_or(&[]);
    let crashes = r.config.get("no_crash") != Some(&true.into());
    // The matrix is complete: every configured policy arm ran every rack
    // size that can hold the replicas, and crashed every one that has two.
    for policy in list("policies") {
        for m in list("machines") {
            let fits = |rep: &&Json| rep.as_f64() <= m.as_f64();
            for rep in list("replication").iter().filter(fits) {
                let ids = [("policy", policy), ("machines", m), ("replication", rep)];
                let ran = |group| {
                    r.group(group)
                        .any(|c| ids.iter().all(|(k, v)| c.key(k) == Some(v)))
                };
                let crash_ran = !crashes || m.as_f64() < Some(2.0) || ran("crash");
                let at = format!("{} x {} machines x R={}", show(policy), show(m), show(rep));
                g.require(
                    ran("scaling") && crash_ran,
                    format!("matrix incomplete at {at}"),
                );
            }
        }
    }
    let ops = r.config_num("ops").unwrap_or(0.0);
    for c in r.group("scaling") {
        let at = c.label();
        let machines = c.key("machines").and_then(Json::as_f64).unwrap_or(0.0);
        let complete = c.is("done", true) && c.num("ops") == ops * machines;
        g.require(complete, format!("{at}: incomplete ({} ops)", c.num("ops")));
        let served = c.num("agg_ops_per_sec") > 0.0 && c.num("p99_us") > 0.0;
        g.require(served, format!("{at}: no throughput or latency"));
        let census = c.num("links") > 0.0 && c.num("links_used") <= c.num("links");
        g.require(census, format!("{at}: link census is off"));
        let wired = c.num("fabric_bytes") > 0.0
            && c.num("links_used") > 0.0
            && c.num("max_link_util") > 0.0;
        g.require(
            machines <= 1.0 || wired,
            format!("{at}: no fabric traffic or per-link utilization"),
        );
        // 16 machines x (up + down) host links, plus 2 leaves x the 2
        // spines oversub 4 leaves x (up + down) trunks.
        if c.key_is("topology", "leaf-spine:8")
            && c.key_is("machines", 16u64)
            && c.key_is("oversub", 4u64)
        {
            g.require(
                c.num("links") == 40.0,
                format!("{at}: {} links, expected 40", c.num("links")),
            );
            let hot = c.get("hot_link").and_then(Json::as_str).unwrap_or("");
            g.require(!hot.is_empty(), format!("{at}: no hot link named"));
        }
        // The congestion-aware arm keeps the R = 3 tail within 2x of R = 2
        // (the static arm sits ~9x above it).
        if c.key_is("replication", 3u64) && c.key_is("policy", "adaptive+p2c") {
            let same = |t: &&Cell| {
                ["policy", "topology", "oversub", "machines"]
                    .iter()
                    .all(|k| t.key(k) == c.key(k))
            };
            if let Some(r2) = r
                .group("scaling")
                .filter(same)
                .find(|t| t.key_is("replication", 2u64))
            {
                let (p3, p2) = (c.num("p99_us"), r2.num("p99_us"));
                g.require(p3 <= 2.0 * p2, format!("{at}: p99 {p3}us > 2x R=2 {p2}us"));
            }
        }
    }
    for c in r.group("crash") {
        let (at, lost) = (c.label(), c.num("lost_acked_keys"));
        let audited = c.is("done", true) && c.num("acked_keys") > 0.0;
        g.require(audited, format!("{at}: incomplete or nothing acknowledged"));
        if c.key_is("replication", 1u64) {
            g.require(lost > 0.0, format!("{at}: the R=1 control lost nothing"));
        } else {
            g.require(
                lost == 0.0,
                format!("{at}: lost {lost} acknowledged writes"),
            );
        }
    }
    g.0
}
