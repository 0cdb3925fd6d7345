//! The paper's §3 application, end to end: a key-value store processed on a
//! smart NIC with its data file on a smart SSD — and the same store run the
//! conventional way (on a CPU behind a dumb NIC) for comparison.
//!
//! Run with: `cargo run -p lastcpu-examples --bin kv_store`

use lastcpu_core::devices::nic::SmartNic;
use lastcpu_core::SystemConfig;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::server::ServerConfig;
use lastcpu_kvs::{build_baseline_kvs, build_cpuless_kvs, KvsNicApp};
use lastcpu_sim::SimDuration;

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        keys: 200,
        theta: 0.99,
        read_fraction: 0.9,
        value_size: 128,
        outstanding: 8,
        total_ops: 1500,
        preload: true,
        stats_prefix: "client".into(),
    }
}

fn main() {
    // --- CPU-less deployment (the paper's design) -----------------------
    let mut cpuless = build_cpuless_kvs(
        SystemConfig::default(),
        Default::default(),
        ServerConfig {
            cache_entries: 128, // hot values cached in NIC-local memory
            ..ServerConfig::default()
        },
    );
    let port = cpuless
        .system
        .add_host(Box::new(KvsClientHost::new(cpuless.kvs_port, workload())));
    cpuless.system.power_on();
    cpuless.system.run_for(SimDuration::from_secs(5));

    let client: &KvsClientHost = cpuless.system.host_as(port).expect("client");
    assert!(client.is_done(), "workload incomplete");
    let nic: &SmartNic<KvsNicApp> = cpuless.system.device_as(cpuless.frontend).expect("nic");
    let stats = nic.app().stats();
    let h = cpuless
        .system
        .stats()
        .histogram("client.latency")
        .expect("latencies");

    println!("CPU-less KVS (smart NIC + smart SSD, no CPU):");
    println!("  ops completed: {}", client.ops_done());
    println!("  throughput:    {:.0} ops/s", client.throughput().unwrap());
    println!(
        "  latency:       mean {} / p50 {} / p99 {}",
        h.mean(),
        h.percentile(50.0),
        h.percentile(99.0)
    );
    println!(
        "  server:        {} GETs ({} cache hits), {} PUTs, {} live keys",
        stats.gets,
        stats.cache_hits,
        stats.puts,
        nic.app().key_count()
    );

    // --- Conventional deployment (the last CPU still in place) ----------
    let mut base = build_baseline_kvs(
        SystemConfig::default(),
        Default::default(),
        ServerConfig {
            cache_entries: 128,
            ..ServerConfig::default()
        },
    );
    let port = base
        .system
        .add_host(Box::new(KvsClientHost::new(base.kvs_port, workload())));
    base.system.power_on();
    base.system.run_for(SimDuration::from_secs(5));
    let client: &KvsClientHost = base.system.host_as(port).expect("client");
    assert!(client.is_done(), "baseline workload incomplete");
    let h2 = base
        .system
        .stats()
        .histogram("client.latency")
        .expect("latencies");

    println!();
    println!("Conventional KVS (CPU + dumb NIC, same store logic, same SSD):");
    println!("  ops completed: {}", client.ops_done());
    println!("  throughput:    {:.0} ops/s", client.throughput().unwrap());
    println!(
        "  latency:       mean {} / p50 {} / p99 {}",
        h2.mean(),
        h2.percentile(50.0),
        h2.percentile(99.0)
    );
    println!();
    println!(
        "kernel tax on the median op: {:.2}x  (the mean is flash-bound on PUTs;",
        h2.percentile(50.0).as_nanos() as f64 / h.percentile(50.0).as_nanos() as f64
    );
    println!("run `cargo run --release -p lastcpu-bench -- e2` for the full sweep)");
}
