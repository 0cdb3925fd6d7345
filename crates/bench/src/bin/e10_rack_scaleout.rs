//! E10 — rack scale-out: N CPU-less machines co-simulated under one fabric,
//! serving one sharded, replicated KVS.
//!
//! The paper's closing argument is that a machine with no CPU composes: if
//! every per-machine function is a self-managing device, a *rack* of such
//! machines is just more devices behind more links. E10 measures exactly
//! that composition:
//!
//! - **Scale-out** — aggregate throughput and end-to-end p50/p99 as the rack
//!   grows 8 → 128 machines (one closed-loop client per machine, aimed at
//!   its local shard router; keys shard over every smart-NIC frontend in
//!   the rack, so ~(M−1)/M of requests cross the modeled inter-machine
//!   links).
//! - **Topology** — the same sweep over real wiring graphs: `flat` (the
//!   historical single spine), `leaf-spine`, and a k-ary `fat-tree`, each
//!   at oversubscription ratios from `--oversub`. Every cell reports
//!   per-link utilization (max/mean and the hottest link by busy time), so
//!   congestion is attributable to actual wires. See docs/TOPOLOGY.md.
//! - **Replication** — each PUT is acknowledged only when every replica
//!   acked, so R buys crash-durability with link and latency cost that
//!   this phase prices (`--replication`; default R = 2).
//! - **Fail-over at every cell** — a whole-machine crash mid-run, per
//!   (topology, oversubscription, machine-count) cell. The fabric's next
//!   directory sweep withdraws the dead machine's endpoints; routers
//!   re-shard and re-dispatch in-flight work. The run audits the paper's
//!   promise: with R ≥ 2 **no acknowledged write is lost** (the replicated
//!   copy survives on a live machine), while an R = 1 control loses the
//!   victim's shard.
//! - **Retry-policy baseline** — `--policies` repeats the matrix per router
//!   [`RetryPolicy`] arm (`static`, `adaptive+p2c`); the default is the
//!   shipping `adaptive+p2c` arm alone.
//!
//! Everything is virtual-time; two same-flag runs produce byte-identical
//! JSON (`scripts/ci.sh` double-runs the smoke configuration and diffs,
//! including a 16-machine leaf-spine arm).
//!
//! Writes `BENCH_e10.json` (override with `--out`); schema v5 in
//! `EXPERIMENTS.md`. `--trace-out` dumps the *merged* rack trace of the last
//! run (sources prefixed `m{i}/`, correlation ids rack-unique, so Perfetto
//! draws cross-machine spans); `--metrics-out` dumps the fabric metrics hub.

use lastcpu_bench::Table;
use lastcpu_core::SystemConfig;
use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::{build_rack_kvs_with_policy, RackSetup, RetryPolicy};
use lastcpu_net::PortId;
use lastcpu_sim::{export, Histogram, SimDuration};

struct Args {
    machines: Vec<usize>,
    replication: Vec<usize>,
    policies: Vec<RetryPolicy>,
    topologies: Vec<TopoKind>,
    oversub: Vec<u64>,
    ops: u64,
    keys: u64,
    value_size: usize,
    outstanding: usize,
    read_fraction: f64,
    seed: u64,
    out: String,
    no_crash: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

fn parse_list(s: &str, flag: &str) -> Vec<usize> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad {flag}: {p:?}"))
        })
        .collect()
}

impl Args {
    fn parse() -> Args {
        let mut a = Args {
            machines: vec![8, 16, 32, 64, 128],
            replication: vec![2],
            policies: vec![RetryPolicy::parse("adaptive+p2c").expect("default policy")],
            topologies: vec![
                TopoKind::Flat,
                TopoKind::parse("leaf-spine").expect("default leaf-spine"),
                TopoKind::parse("fat-tree").expect("default fat-tree"),
            ],
            oversub: vec![1, 4],
            ops: 400,
            keys: 200,
            value_size: 128,
            outstanding: 8,
            read_fraction: 0.95,
            seed: 0xE10,
            out: "BENCH_e10.json".into(),
            no_crash: false,
            trace_out: None,
            metrics_out: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = || it.next().unwrap_or_default();
            match flag.as_str() {
                "--machines" => a.machines = parse_list(&val(), "--machines"),
                "--replication" => a.replication = parse_list(&val(), "--replication"),
                "--policies" => {
                    a.policies = val()
                        .split(',')
                        .filter(|p| !p.is_empty())
                        .map(|p| {
                            RetryPolicy::parse(p.trim())
                                .unwrap_or_else(|| panic!("bad --policies arm: {p:?}"))
                        })
                        .collect();
                }
                "--topologies" => {
                    a.topologies = val()
                        .split(',')
                        .filter(|p| !p.is_empty())
                        .map(|p| {
                            TopoKind::parse(p.trim())
                                .unwrap_or_else(|e| panic!("bad --topologies arm: {e}"))
                        })
                        .collect();
                }
                "--oversub" => {
                    a.oversub = parse_list(&val(), "--oversub")
                        .into_iter()
                        .map(|o| o.max(1) as u64)
                        .collect();
                }
                "--ops" => a.ops = val().parse().expect("--ops"),
                "--keys" => a.keys = val().parse().expect("--keys"),
                "--value-size" => a.value_size = val().parse().expect("--value-size"),
                "--outstanding" => a.outstanding = val().parse().expect("--outstanding"),
                "--read-fraction" => a.read_fraction = val().parse().expect("--read-fraction"),
                "--seed" => a.seed = val().parse().expect("--seed"),
                "--out" => a.out = val(),
                "--no-crash" => a.no_crash = true,
                "--trace-out" => a.trace_out = it.next(),
                "--metrics-out" => a.metrics_out = it.next(),
                other => lastcpu_bench::unknown_flag(other),
            }
        }
        a.machines.retain(|&m| m >= 1);
        a.replication.retain(|&r| r >= 1);
        assert!(
            !a.machines.is_empty()
                && !a.replication.is_empty()
                && !a.policies.is_empty()
                && !a.topologies.is_empty()
                && !a.oversub.is_empty()
        );
        a
    }

    /// The (topology, oversub) cells of the matrix. A flat fabric has no
    /// oversubscription knob (one implicit infinite spine), so it runs
    /// once regardless of `--oversub`.
    fn topo_cells(&self) -> Vec<(TopoKind, u64)> {
        let mut cells = Vec::new();
        for &kind in &self.topologies {
            if matches!(kind, TopoKind::Flat) {
                cells.push((kind, 1));
            } else {
                for &o in &self.oversub {
                    cells.push((kind, o));
                }
            }
        }
        cells
    }
}

/// A rack under test: the shared [`RackSetup`] plus one client per machine.
struct Bench {
    setup: RackSetup,
    client_ports: Vec<PortId>,
}

impl Bench {
    #[allow(clippy::too_many_arguments)]
    fn build(
        args: &Args,
        machines: usize,
        replication: usize,
        policy: RetryPolicy,
        topology: TopoKind,
        oversub: u64,
        read_fraction: f64,
    ) -> Bench {
        let mut setup = build_rack_kvs_with_policy(
            FabricConfig {
                topology: TopologyConfig {
                    kind: topology,
                    oversub,
                },
                ..FabricConfig::default()
            },
            machines,
            replication,
            SystemConfig {
                seed: args.seed,
                trace: args.trace_out.is_some(),
                ..SystemConfig::default()
            },
            policy,
        );
        let mut client_ports = Vec::new();
        for i in 0..machines {
            let m = setup.machines[i];
            let router_port = setup.router_ports[i];
            let port = setup
                .fabric
                .machine_mut(m)
                .add_host(Box::new(KvsClientHost::new(
                    router_port,
                    WorkloadConfig {
                        keys: args.keys,
                        theta: 0.99,
                        read_fraction,
                        value_size: args.value_size,
                        outstanding: args.outstanding,
                        total_ops: args.ops,
                        preload: true,
                        stats_prefix: format!("c{i}"),
                        ..WorkloadConfig::default()
                    },
                )));
            client_ports.push(port);
        }
        Bench {
            setup,
            client_ports,
        }
    }

    fn client(&self, i: usize) -> &KvsClientHost {
        self.setup
            .fabric
            .machine(self.setup.machines[i])
            .host_as(self.client_ports[i])
            .expect("client present")
    }

    fn alive(&self, i: usize) -> bool {
        !self.setup.fabric.is_dead(self.setup.machines[i])
    }

    fn all_alive_done(&self) -> bool {
        (0..self.client_ports.len()).all(|i| !self.alive(i) || self.client(i).is_done())
    }

    /// Runs in 10 ms slices until every (alive) client finishes or `cap`
    /// virtual time elapses; returns whether all finished.
    fn run_to_completion(&mut self, cap: SimDuration) -> bool {
        let deadline = self.setup.fabric.now() + cap;
        while self.setup.fabric.now() < deadline {
            self.setup.fabric.run_for(SimDuration::from_millis(10));
            if self.all_alive_done() {
                return true;
            }
        }
        self.all_alive_done()
    }

    /// Runs until every (alive) client entered its measured phase.
    fn run_to_measuring(&mut self, cap: SimDuration) -> bool {
        let deadline = self.setup.fabric.now() + cap;
        while self.setup.fabric.now() < deadline {
            self.setup.fabric.run_for(SimDuration::from_millis(10));
            let measuring = (0..self.client_ports.len())
                .all(|i| !self.alive(i) || self.client(i).started_at().is_some());
            if measuring {
                return true;
            }
        }
        false
    }

    /// Merged end-to-end latency histogram over all alive clients.
    fn latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for i in 0..self.client_ports.len() {
            if !self.alive(i) {
                continue;
            }
            let hub = self.setup.fabric.machine(self.setup.machines[i]).stats();
            if let Some(c) = hub.histogram(&format!("c{i}.latency")) {
                h.merge(&c);
            }
        }
        h
    }

    fn sum_clients(&self, f: impl Fn(&KvsClientHost) -> u64) -> u64 {
        (0..self.client_ports.len())
            .filter(|&i| self.alive(i))
            .map(|i| f(self.client(i)))
            .sum()
    }

    fn sum_router_stat(&self, f: impl Fn(lastcpu_kvs::RouterStats) -> u64) -> u64 {
        (0..self.client_ports.len())
            .filter(|&i| self.alive(i))
            .map(|i| f(self.setup.router(i).stats()))
            .sum()
    }

    /// Aggregate throughput: sum of per-client closed-loop rates.
    fn agg_ops_per_sec(&self) -> f64 {
        (0..self.client_ports.len())
            .filter(|&i| self.alive(i))
            .filter_map(|i| self.client(i).throughput())
            .sum()
    }

    /// Per-link utilization over the whole run (`busy_ns / elapsed_ns`):
    /// `(total links, used links, max, mean over used, hottest link name)`.
    fn link_utilization(&self) -> (usize, usize, f64, f64, String) {
        let topo = self.setup.fabric.topology();
        let elapsed = self.setup.fabric.now().as_nanos();
        if elapsed == 0 {
            return (topo.num_links(), 0, 0.0, 0.0, String::new());
        }
        let (mut used, mut max, mut sum, mut hot) = (0usize, 0.0f64, 0.0f64, String::new());
        for l in topo.links() {
            if l.frames == 0 {
                continue;
            }
            used += 1;
            let util = l.busy_ns as f64 / elapsed as f64;
            sum += util;
            if util > max {
                max = util;
                hot = l.name.to_string();
            }
        }
        let mean = if used > 0 { sum / used as f64 } else { 0.0 };
        (topo.num_links(), used, max, mean, hot)
    }
}

/// One scale-out cell.
struct ScaleCell {
    machines: usize,
    replication: usize,
    policy: RetryPolicy,
    topology: TopoKind,
    oversub: u64,
    done: bool,
    ops: u64,
    agg_ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    fabric_bytes: u64,
    frames_forwarded: u64,
    failovers: u64,
    give_ups: u64,
    links: usize,
    links_used: usize,
    max_link_util: f64,
    mean_link_util: f64,
    hot_link: String,
}

impl ScaleCell {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"machines\": {}, \"replication\": {}, \"policy\": \"{}\", ",
                "\"topology\": \"{}\", \"oversub\": {}, ",
                "\"done\": {}, \"ops\": {}, ",
                "\"agg_ops_per_sec\": {:.1}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, ",
                "\"fabric_bytes\": {}, \"frames_forwarded\": {}, ",
                "\"failovers\": {}, \"give_ups\": {}, ",
                "\"links\": {}, \"links_used\": {}, ",
                "\"max_link_util\": {:.6}, \"mean_link_util\": {:.6}, ",
                "\"hot_link\": \"{}\"}}"
            ),
            self.machines,
            self.replication,
            self.policy,
            self.topology,
            self.oversub,
            self.done,
            self.ops,
            self.agg_ops_per_sec,
            self.p50_us,
            self.p99_us,
            self.fabric_bytes,
            self.frames_forwarded,
            self.failovers,
            self.give_ups,
            self.links,
            self.links_used,
            self.max_link_util,
            self.mean_link_util,
            self.hot_link,
        )
    }
}

/// One crash-scenario cell.
struct CrashCell {
    machines: usize,
    replication: usize,
    policy: RetryPolicy,
    topology: TopoKind,
    oversub: u64,
    crash_at_ms: f64,
    done: bool,
    ops: u64,
    timeouts: u64,
    unavailable: u64,
    errors: u64,
    give_ups: u64,
    failovers: u64,
    acked_keys: u64,
    lost_acked_keys: u64,
}

impl CrashCell {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"machines\": {}, \"replication\": {}, \"policy\": \"{}\", ",
                "\"topology\": \"{}\", \"oversub\": {}, ",
                "\"crash_at_ms\": {:.3}, ",
                "\"done\": {}, \"ops\": {}, \"timeouts\": {}, \"unavailable\": {}, ",
                "\"errors\": {}, \"give_ups\": {}, \"failovers\": {}, ",
                "\"acked_keys\": {}, \"lost_acked_keys\": {}}}"
            ),
            self.machines,
            self.replication,
            self.policy,
            self.topology,
            self.oversub,
            self.crash_at_ms,
            self.done,
            self.ops,
            self.timeouts,
            self.unavailable,
            self.errors,
            self.give_ups,
            self.failovers,
            self.acked_keys,
            self.lost_acked_keys,
        )
    }
}

const RUN_CAP: SimDuration = SimDuration::from_secs(60);

fn run_scale_cell(
    args: &Args,
    machines: usize,
    replication: usize,
    policy: RetryPolicy,
    topology: TopoKind,
    oversub: u64,
) -> ScaleCell {
    let mut b = Bench::build(
        args,
        machines,
        replication,
        policy,
        topology,
        oversub,
        args.read_fraction,
    );
    b.setup.fabric.power_on();
    let done = b.run_to_completion(RUN_CAP);
    let lat = b.latency();
    let (links, links_used, max_util, mean_util, hot_link) = b.link_utilization();
    ScaleCell {
        machines,
        replication,
        policy,
        topology,
        oversub,
        done,
        ops: b.sum_clients(|c| c.ops_done()),
        agg_ops_per_sec: b.agg_ops_per_sec(),
        p50_us: lat.percentile(50.0).as_nanos() as f64 / 1_000.0,
        p99_us: lat.percentile(99.0).as_nanos() as f64 / 1_000.0,
        fabric_bytes: b.setup.fabric.metrics().counter("fabric.bytes"),
        frames_forwarded: b.setup.fabric.metrics().counter("fabric.frames_forwarded"),
        failovers: b.sum_router_stat(|s| s.failovers),
        give_ups: b.sum_router_stat(|s| s.give_ups),
        links,
        links_used,
        max_link_util: max_util,
        mean_link_util: mean_util,
        hot_link,
    }
}

fn run_crash_cell(
    args: &Args,
    machines: usize,
    replication: usize,
    policy: RetryPolicy,
    topology: TopoKind,
    oversub: u64,
) -> (CrashCell, Bench) {
    // Pure-read measured phase: the preload's acknowledged PUTs are the
    // audited set, and nothing re-writes a lost key afterwards, so the
    // R = 1 control genuinely shows the loss.
    let mut b = Bench::build(args, machines, replication, policy, topology, oversub, 1.0);
    b.setup.fabric.power_on();
    // Let every machine finish loading, then kill machine 1 (never the
    // machine a key-holding audit would trivially excuse — any index > 0
    // works; "m1" matches the fault-plan convention used in fabric tests).
    let loaded = b.run_to_measuring(RUN_CAP);
    let crash_at = b.setup.fabric.now();
    let victim = b.setup.machines[1];
    b.setup.fabric.kill_machine(victim);
    let done = loaded && b.run_to_completion(RUN_CAP);
    let acked_keys = (0..machines)
        .filter(|&i| b.alive(i))
        .map(|i| b.setup.router(i).acked_put_keys().len() as u64)
        .sum();
    let cell = CrashCell {
        machines,
        replication,
        policy,
        topology,
        oversub,
        crash_at_ms: crash_at.as_nanos() as f64 / 1e6,
        done,
        ops: b.sum_clients(|c| c.ops_done()),
        timeouts: b.sum_clients(|c| c.timeouts()),
        unavailable: b.sum_clients(|c| c.unavailable_rejections()),
        errors: b.sum_clients(|c| c.errors()),
        give_ups: b.sum_router_stat(|s| s.give_ups),
        failovers: b.sum_router_stat(|s| s.failovers),
        acked_keys,
        lost_acked_keys: b.setup.lost_acked_keys() as u64,
    };
    (cell, b)
}

fn main() {
    let args = Args::parse();
    let topo_cells = args.topo_cells();
    println!("E10: rack scale-out — sharded, replicated CPU-less KVS over the fabric");
    println!(
        "    (machines {:?}, replication {:?}, {} ops/client, {} keys, {}-B values, seed {:#x})",
        args.machines, args.replication, args.ops, args.keys, args.value_size, args.seed
    );
    println!(
        "    topologies: {} | retry-policy arms: {}",
        topo_cells
            .iter()
            .map(|(t, o)| format!("{t}/x{o}"))
            .collect::<Vec<_>>()
            .join(", "),
        args.policies
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!();

    // --- Phase A/B: policy x topology x machines x replication ------------
    let mut t = Table::new(&[
        "policy",
        "topo",
        "ov",
        "machines",
        "R",
        "ops",
        "agg ops/s",
        "p50 us",
        "p99 us",
        "fabric MB",
        "links",
        "max util",
        "hot link",
    ]);
    let mut cells: Vec<ScaleCell> = Vec::new();
    for &policy in &args.policies {
        for &(topo, oversub) in &topo_cells {
            for &m in &args.machines {
                for &r in &args.replication {
                    if r > m {
                        continue; // cannot hold R distinct replicas on < R machines
                    }
                    let c = run_scale_cell(&args, m, r, policy, topo, oversub);
                    t.row_strings(vec![
                        policy.name().to_string(),
                        topo.to_string(),
                        format!("{oversub}"),
                        m.to_string(),
                        r.to_string(),
                        c.ops.to_string(),
                        format!("{:.0}", c.agg_ops_per_sec),
                        format!("{:.1}", c.p50_us),
                        format!("{:.1}", c.p99_us),
                        format!("{:.2}", c.fabric_bytes as f64 / 1e6),
                        c.links.to_string(),
                        format!("{:.4}%", c.max_link_util * 100.0),
                        c.hot_link.clone(),
                    ]);
                    cells.push(c);
                }
            }
        }
    }
    t.print();

    // --- Phase C: machine-crash fail-over at every matrix cell ------------
    let mut crash_cells: Vec<CrashCell> = Vec::new();
    let mut last_bench: Option<Bench> = None;
    if !args.no_crash && args.machines.iter().any(|&m| m >= 2) {
        println!();
        println!("fail-over: kill m1 after load, audit acknowledged writes (per cell)");
        let mut ct = Table::new(&[
            "policy",
            "topo",
            "ov",
            "machines",
            "R",
            "crash ms",
            "ops",
            "timeouts",
            "failovers",
            "acked",
            "lost acked",
        ]);
        for &policy in &args.policies {
            for &(topo, oversub) in &topo_cells {
                for &m in &args.machines {
                    if m < 2 {
                        continue; // a 1-machine rack has no surviving replica
                    }
                    for &r in &args.replication {
                        if r > m {
                            continue;
                        }
                        let (c, b) = run_crash_cell(&args, m, r, policy, topo, oversub);
                        ct.row_strings(vec![
                            policy.name().to_string(),
                            topo.to_string(),
                            format!("{oversub}"),
                            c.machines.to_string(),
                            c.replication.to_string(),
                            format!("{:.2}", c.crash_at_ms),
                            c.ops.to_string(),
                            c.timeouts.to_string(),
                            c.failovers.to_string(),
                            c.acked_keys.to_string(),
                            c.lost_acked_keys.to_string(),
                        ]);
                        crash_cells.push(c);
                        last_bench = Some(b);
                    }
                }
            }
        }
        ct.print();
    }

    // --- Artifacts --------------------------------------------------------
    if let Some(b) = &last_bench {
        if let Some(path) = &args.trace_out {
            let merged = b.setup.fabric.merged_trace();
            let body = if path.ends_with(".json") {
                export::trace_chrome(&merged)
            } else {
                export::trace_jsonl(&merged)
            };
            match std::fs::write(path, body) {
                Ok(()) => eprintln!("wrote merged rack trace to {path}"),
                Err(e) => eprintln!("failed to write trace to {path}: {e}"),
            }
        }
        if let Some(path) = &args.metrics_out {
            let body = if path.ends_with(".json") {
                export::metrics_json(b.setup.fabric.metrics())
            } else {
                export::metrics_prometheus(b.setup.fabric.metrics())
            };
            match std::fs::write(path, body) {
                Ok(()) => eprintln!("wrote fabric metrics to {path}"),
                Err(e) => eprintln!("failed to write metrics to {path}: {e}"),
            }
        }
    }

    // --- JSON -------------------------------------------------------------
    let mut body = String::from("{\n  \"experiment\": \"e10\",\n  \"schema_version\": 5,\n");
    body.push_str(&format!(
        concat!(
            "  \"config\": {{\"machines\": {:?}, \"replication\": {:?}, ",
            "\"policies\": [{}], \"topologies\": [{}], \"oversub\": {:?}, ",
            "\"ops_per_client\": {}, \"keys\": {}, \"value_size\": {}, ",
            "\"outstanding\": {}, \"read_fraction\": {:.3}, \"seed\": {}}},\n"
        ),
        args.machines,
        args.replication,
        args.policies
            .iter()
            .map(|p| format!("\"{p}\""))
            .collect::<Vec<_>>()
            .join(", "),
        args.topologies
            .iter()
            .map(|t| format!("\"{t}\""))
            .collect::<Vec<_>>()
            .join(", "),
        args.oversub,
        args.ops,
        args.keys,
        args.value_size,
        args.outstanding,
        args.read_fraction,
        args.seed
    ));
    body.push_str("  \"scaling\": [\n");
    for (i, c) in cells.iter().enumerate() {
        body.push_str(&format!(
            "    {}{}\n",
            c.json(),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n  \"crash\": [\n");
    for (i, c) in crash_cells.iter().enumerate() {
        body.push_str(&format!(
            "    {}{}\n",
            c.json(),
            if i + 1 < crash_cells.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::write(&args.out, &body) {
        Ok(()) => println!("\nwrote {}", args.out),
        Err(e) => eprintln!("\nfailed to write {}: {e}", args.out),
    }

    println!();
    println!("expected shape: aggregate throughput grows with machines; real");
    println!("topologies (leaf-spine, fat-tree) concentrate load on identifiable");
    println!("uplinks — oversubscription raises max link utilization and the");
    println!("p99 tail; at every cell the crash audit reports 0 lost acked");
    println!("writes at R>=2 while an R=1 control loses the dead machine's");
    println!("shard. The adaptive+p2c default keeps the retry storm collapsed");
    println!("(static baseline: --policies static,adaptive+p2c).");
}
