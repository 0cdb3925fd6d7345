//! E2 — KVS data plane: CPU-less offload vs kernel-mediated path.
//!
//! The §3 application under YCSB-style mixes. In the CPU-less system the
//! smart NIC answers from the edge, reaching the SSD by VIRTIO over shared
//! memory; in the baseline every request and response crosses the kernel
//! (interrupt, copy, syscall) and the *same* store logic runs on the CPU.
//! The gap is the tax the paper proposes to remove (§1: entire applications
//! offloaded so "the CPU is needed only for initial setup and error
//! handling" — and then not even that).

use lastcpu_core::SystemConfig;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::server::ServerConfig;
use lastcpu_kvs::{build_baseline_kvs, build_cpuless_kvs, build_hybrid_kvs, KvsSetup};
use lastcpu_sim::{SimDuration, SimTime};

use super::Experiment;
use crate::cli::Args;
use crate::obs::ObsArgs;
use crate::report::{round, us, Cell};

pub const EXP: Experiment = Experiment {
    name: "e2",
    title: "E2: KVS data plane — CPU-less offload vs kernel-mediated baseline\n    \
            (4 clients x 8 outstanding, 400 keys, zipf 0.99, 128B values, 512-entry edge cache)",
    run,
    ..Experiment::PLAIN
};

const MIXES: [(&str, f64); 3] = [("A 50/50", 0.5), ("B 95/5", 0.95), ("C 100/0", 1.0)];
const CLIENTS: usize = 4;

/// How a deployment is assembled: `build_{cpuless,hybrid,baseline}_kvs`.
type Build = fn(SystemConfig, lastcpu_core::devices::ssd::SsdConfig, ServerConfig) -> KvsSetup;

struct Outcome {
    tput: f64,
    mean: SimDuration,
    p50: SimDuration,
    p99: SimDuration,
}

fn serve(read_fraction: f64, build: Build, obs: &ObsArgs) -> Outcome {
    let mut sys_config = SystemConfig {
        trace: false,
        ..SystemConfig::default()
    };
    obs.apply(&mut sys_config);
    // Both deployments run the identical application, including the hot
    // value cache in the processing device's local memory (KV-Direct keeps
    // its cache in NIC-attached DRAM; the kernel keeps page-cache-like
    // copies). Read-heavy traffic is then edge-bound, not flash-bound, and
    // the kernel detour becomes the bottleneck it really is.
    let server = ServerConfig {
        cache_entries: 512,
        ..ServerConfig::default()
    };
    let mut setup = build(sys_config, Default::default(), server);
    let mut ports = Vec::new();
    for _ in 0..CLIENTS {
        let workload = WorkloadConfig {
            keys: 400,
            theta: 0.99,
            read_fraction,
            value_size: 128,
            outstanding: 8,
            total_ops: 3000,
            preload: true,
            stats_prefix: "wl".into(), // shared prefix: one merged histogram
            ..WorkloadConfig::default()
        };
        ports.push(
            setup
                .system
                .add_host(Box::new(KvsClientHost::new(setup.kvs_port, workload))),
        );
    }
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_secs(20));
    // Aggregate throughput over the union of measured windows (clients'
    // windows need not overlap perfectly, so summing per-client rates
    // would overestimate).
    let (mut ops, mut first_start, mut last_finish) =
        (0u64, SimTime::from_nanos(u64::MAX), SimTime::ZERO);
    for &port in &ports {
        let client: &KvsClientHost = setup.system.host_as(port).expect("client");
        assert!(
            client.is_done(),
            "workload incomplete ({})",
            client.ops_done()
        );
        assert_eq!(client.errors(), 0);
        ops += client.ops_done();
        first_start = first_start.min(client.started_at().expect("done"));
        last_finish = last_finish.max(client.finished_at().expect("done"));
    }
    let span = last_finish.since(first_start);
    let h = setup
        .system
        .stats()
        .histogram("wl.latency")
        .expect("latency histogram");
    obs.dump(&setup.system);
    Outcome {
        tput: ops as f64 / (span.as_nanos() as f64 / 1e9),
        mean: h.mean(),
        p50: h.percentile(50.0),
        p99: h.percentile(99.0),
    }
}

fn run(args: &Args) -> Result<Vec<Cell>, String> {
    let obs = ObsArgs::from_args(args);
    let mut cells = Vec::new();
    for (mix, read_fraction) in MIXES {
        let systems: [(&str, Build); 3] = [
            ("cpu-less", build_cpuless_kvs),
            ("hybrid", build_hybrid_kvs),
            ("baseline", build_baseline_kvs),
        ];
        let systems = systems.map(|(label, build)| (label, serve(read_fraction, build, &obs)));
        let base = &systems[2].1;
        for (label, o) in &systems {
            let mut cell = Cell::new("dataplane")
                .id("mix", mix)
                .id("system", *label)
                .exact("ops_per_sec", round(o.tput, 0), "1/s")
                .exact("mean_us", us(o.mean), "us")
                .exact("p50_us", us(o.p50), "us")
                .exact("p99_us", us(o.p99), "us");
            if *label == "cpu-less" {
                let mean_ratio = base.mean.as_nanos() as f64 / o.mean.as_nanos() as f64;
                cell = cell
                    .exact("tput_vs_baseline", round(o.tput / base.tput, 2), "x")
                    .exact("baseline_mean_vs_mean", round(mean_ratio, 2), "x");
            }
            cells.push(cell);
        }
    }
    Ok(cells)
}
