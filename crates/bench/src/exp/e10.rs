//! E10 — rack scale-out: N CPU-less machines under one fabric serving one
//! sharded, replicated KVS. EXPERIMENTS.md "E10" has the claim, matrix,
//! flags, gates and results; docs/TOPOLOGY.md has the wiring graphs.
//!
//! Each machine's client aims at its local shard router and keys shard over
//! every NIC in the rack, so ~(M−1)/M of requests cross the modeled links.
//! A crash cell kills a machine mid-run; the next directory sweep withdraws
//! its endpoints and the routers re-dispatch its in-flight work.
//! `--trace-out` dumps the merged trace of the last crash run (sources
//! prefixed `m{i}/`, correlation ids rack-unique, so Perfetto draws
//! cross-machine spans).

use lastcpu_core::SystemConfig;
use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
use lastcpu_kvs::build_rack_kvs;
use lastcpu_kvs::client::WorkloadConfig;
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
        "--machines"      U64List "8,16,32,64,128"                     "rack sizes"
        "--replication"   U64List "2"                                  "replication factors"
        "--topologies"    StrList "leaf-spine:128,leaf-spine,fat-tree" "wiring graphs (leaf-spine[:leaf], fat-tree[:k])"
        "--oversub"       U64List "1,4"                                "oversubscription ratios (a one-leaf rack runs at 1 only)"
        "--ops"           U64     "400"                                "measured ops per client"
        "--keys"          U64     "200"                                "keyspace (Zipf 0.99)"
        "--value-size"    U64     "128"                                "value bytes"
        "--outstanding"   U64     "8"                                  "requests in flight per client"
        "--read-fraction" F64     "0.95"                               "GET share of the scaling workload"
        "--seed"          U64     "0xE10"                              "base seed (machine i adds i)"
        "--no-crash"      Switch  ""                                   "skip the crash cells"
    },
    obs: OBS_RACK,
    smoke: &[
        // The R = 1 control and the R = 2 audit.
        "--machines 1,2 --replication 1,2 --ops 120 --keys 60 --topologies leaf-spine:128 --oversub 1",
        // The 8xR=3 tail cell at full size against its R = 2 baseline.
        "--machines 8 --replication 2,3 --topologies leaf-spine:128 --oversub 1",
        // A real tree: 2 leaves of 8, ECMP over the spines oversub 4 leaves.
        "--machines 16 --replication 2 --ops 120 --keys 60 --topologies leaf-spine:8 --oversub 4",
    ],
    run,
    check,
};

const RUN_CAP: SimDuration = SimDuration::from_secs(60);

/// One cell's coordinates in the matrix.
#[derive(Clone, Copy)]
struct Point {
    topology: TopoKind,
    oversub: u64,
    machines: usize,
    replication: usize,
}

impl Point {
    fn cell(&self, group: &str) -> Cell {
        Cell::new(group)
            .id("topology", self.topology.to_string())
            .id("oversub", self.oversub)
            .id("machines", self.machines)
            .id("replication", self.replication)
    }

    fn build(&self, args: &Args, read_fraction: f64) -> RackBench {
        let setup = build_rack_kvs(
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

/// The matrix in run order: (topology, oversub) × machines × replication.
/// A rack that fits in one leaf has no trunk to thin, so it runs at
/// oversub 1 only; a cell cannot hold R distinct replicas on fewer than R
/// machines.
fn matrix(args: &Args) -> Result<Vec<Point>, String> {
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
    for &topology in &topologies {
        for &oversub in &args.u64s("--oversub") {
            for &machines in &sizes {
                let one_leaf = matches!(topology,
                    TopoKind::LeafSpine { leaf_size } if machines <= u64::from(leaf_size));
                if one_leaf && oversub > 1 {
                    continue;
                }
                for &replication in factors.iter().filter(|&&r| r <= machines) {
                    points.push(Point {
                        topology,
                        oversub: oversub.max(1),
                        machines: machines as usize,
                        replication: replication as usize,
                    });
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
    // The rack's throughput over its measured run: every client's ops over
    // the span from the first client's start to the last one's finish. A
    // sum of per-client rates would reward clients whose windows do not
    // overlap.
    let clients: Vec<_> = (0..b.machines()).map(|i| b.client(i)).collect();
    let first_start = clients.iter().filter_map(|c| c.started_at()).min();
    let last_start = clients.iter().filter_map(|c| c.started_at()).max();
    let last_finish = clients.iter().filter_map(|c| c.finished_at()).max();
    let ops_done = b.sum_clients(|c| c.ops_done());
    let ops_per_sec = match (first_start, last_finish) {
        (Some(s), Some(f)) if f > s => ops_done as f64 / (f.since(s).as_nanos() as f64 / 1e9),
        _ => 0.0,
    };
    let start_spread = match (first_start, last_start) {
        (Some(s), Some(l)) => l.since(s).as_nanos() as f64 / 1e6,
        _ => 0.0,
    };
    let metrics = b.setup.fabric.metrics();
    let frames = metrics.counter("fabric.frames_forwarded");
    let failovers = b.sum_router_stat(|s| s.failovers) as f64;
    p.cell("scaling")
        .exact("done", done, "")
        .exact("ops", ops_done, "count")
        .higher("ops_per_sec", round(ops_per_sec, 1), "1/s", 0.05)
        .exact("start_spread_ms", round(start_spread, 3), "ms")
        .lower("p50_us", us(lat.percentile(50.0)), "us", 0.10)
        .lower("p99_us", us(lat.percentile(99.0)), "us", 0.10)
        .exact("fabric_bytes", metrics.counter("fabric.bytes"), "B")
        .exact("frames_forwarded", frames, "count")
        .lower("failovers", failovers, "count", 0.10)
        .exact("give_ups", b.sum_router_stat(|s| s.give_ups), "count")
        .exact("client_timeouts", b.sum_clients(|c| c.timeouts()), "count")
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
    // The matrix is complete: every rack size that can hold the replicas
    // ran, and every one that has two crashed.
    for m in list("machines") {
        let fits = |rep: &&Json| rep.as_f64() <= m.as_f64();
        for rep in list("replication").iter().filter(fits) {
            let ids = [("machines", m), ("replication", rep)];
            let ran = |group| {
                r.group(group)
                    .any(|c| ids.iter().all(|(k, v)| c.key(k) == Some(v)))
            };
            let crash_ran = !crashes || m.as_f64() < Some(2.0) || ran("crash");
            let at = format!("{} machines x R={}", show(m), show(rep));
            g.require(
                ran("scaling") && crash_ran,
                format!("matrix incomplete at {at}"),
            );
        }
    }
    let ops = r.config_num("ops").unwrap_or(0.0);
    for c in r.group("scaling") {
        let at = c.label();
        let machines = c.key("machines").and_then(Json::as_f64).unwrap_or(0.0);
        let complete = c.is("done", true) && c.num("ops") == ops * machines;
        g.require(complete, format!("{at}: incomplete ({} ops)", c.num("ops")));
        let served = c.num("ops_per_sec") > 0.0 && c.num("p99_us") > 0.0;
        g.require(served, format!("{at}: no throughput or latency"));
        // No fault is injected here, so every sub is answered: a failover
        // is a replica's transient rejection, and nothing is given up or
        // expires at the client.
        let failovers = c.num("failovers");
        g.require(
            failovers <= 0.01 * c.num("ops"),
            format!("{at}: {failovers} failovers > 1% of ops"),
        );
        for quiet in ["give_ups", "client_timeouts"] {
            let n = c.num(quiet);
            g.require(n == 0.0, format!("{at}: {n} {quiet} without a fault"));
        }
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
        // Congestion-aware dispatch keeps the R = 3 tail within 2x of R = 2
        // (the retired static arm sat ~9x above it).
        if c.key_is("replication", 3u64) {
            let same = |t: &&Cell| {
                ["topology", "oversub", "machines"]
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
            // A surviving replica answers every request the crash touched.
            for quiet in ["timeouts", "errors"] {
                let n = c.num(quiet);
                g.require(n == 0.0, format!("{at}: {n} client {quiet} with R >= 2"));
            }
        }
    }
    g.0
}
