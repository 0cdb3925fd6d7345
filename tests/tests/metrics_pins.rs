//! Instruments changed how they are declared; no metric a reader can see may
//! move. Four machines run and their `metrics_json` bytes and every
//! instance's `stats()` are held to values recorded before the change: the
//! two-tenant machine (two servers feeding one hub), the KVS on the baseline
//! CPU, a traced KVS machine under injected faults and a 4-machine rack.
//! Beside the bytes, the rows that are not a plain copy of an instance's
//! count into one hub key are pinned by what they mean.
//!
//! Re-recorded when `SCHEMA_VERSION` became 3 deleted the KVS delete: each
//! `metrics_json` and `ServerStats` lost the always-zero `deletes` count, and
//! no other value moved. The faulted KVS machine's lines were re-recorded
//! when the client began sending a refused preload PUT again under its own
//! key (53 GETs besides the probe had missed keys never loaded; now only
//! the probe misses) and backing off 2 ms, not until a 100 ms tick, after
//! an `Unavailable` answer; the 400 ms run now completes 17,415 ops, not
//! 16,338.

use lastcpu_baseline::CpuDevice;
use lastcpu_bus::RetryConfig;
use lastcpu_core::devices::nic::SmartNic;
use lastcpu_core::devices::ssd::SsdConfig;
use lastcpu_core::{System, SystemConfig};
use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::server::ServerStats;
use lastcpu_kvs::{
    build_baseline_kvs, build_cpuless_kvs, build_rack_kvs, KvsCpuApp, KvsNicApp, ServerConfig,
};
use lastcpu_net::PortId;
use lastcpu_sim::{export, FaultKind, FaultPlan, MetricsHub, SimDuration, SimTime};
use lastcpu_snap::fnv1a;

/// `fnv1a` and length of a hub's `metrics_json`.
fn json(hub: &MetricsHub) -> String {
    let s = export::metrics_json(hub);
    format!("metrics_json {:#018x} {}", fnv1a(s.as_bytes()), s.len())
}

fn client(sys: &System, port: PortId) -> &KvsClientHost {
    sys.host_as(port).expect("client port")
}

fn nic_stats(sys: &System, h: lastcpu_core::DeviceHandle) -> ServerStats {
    let nic: &SmartNic<KvsNicApp> = sys.device_as(h).expect("KVS NIC");
    nic.app().stats()
}

/// What a client counts in its own fields against what it fed the hub.
fn client_line(sys: &System, port: PortId) -> String {
    let c = client(sys, port);
    format!(
        "{}: ops_done {} unavailable_rejections {} busy {} timeouts {}",
        lastcpu_core::NetHost::name(c),
        c.ops_done(),
        c.unavailable_rejections(),
        c.busy_rejections(),
        c.timeouts()
    )
}

/// E3's machine: a victim and an antagonist server on their own NICs, one
/// SSD, one hub. `kvs.server.*` is the sum of the two servers' counts.
fn two_tenant() -> Vec<String> {
    let mut setup = lastcpu_bench::twotenant::build_two_tenant(
        SystemConfig {
            seed: 3,
            trace: false,
            ..SystemConfig::default()
        },
        true,
    );
    let mut ports = Vec::new();
    for (port, name, read_fraction) in [
        (setup.victim_port, "victim", 0.9),
        (setup.antagonist_port, "antagonist", 0.0),
    ] {
        ports.push(setup.system.add_host(Box::new(KvsClientHost::new(
            port,
            WorkloadConfig {
                keys: 64,
                read_fraction,
                value_size: 256,
                outstanding: 4,
                total_ops: 300,
                stats_prefix: name.into(),
                ..WorkloadConfig::default()
            },
        ))));
    }
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_secs(2));
    let sys = &setup.system;
    let victim = nic_stats(sys, setup.victim_nic);
    let antagonist = nic_stats(sys, setup.antagonist_nic);
    assert!(
        victim.gets > 0 && antagonist.puts > 0,
        "both tenants served"
    );
    let hub = sys.stats();
    for (key, v, a) in [
        ("kvs.server.gets", victim.gets, antagonist.gets),
        ("kvs.server.puts", victim.puts, antagonist.puts),
        (
            "kvs.server.cache_hits",
            victim.cache_hits,
            antagonist.cache_hits,
        ),
        ("kvs.server.misses", victim.misses, antagonist.misses),
    ] {
        assert_eq!(hub.counter(key), v + a, "{key} sums the two servers");
    }
    let mut out = vec![
        json(hub),
        format!("victim: {victim:?}"),
        format!("antagonist: {antagonist:?}"),
    ];
    out.extend(ports.iter().map(|&p| client_line(sys, p)));
    out
}

/// The KVS on the baseline CPU behind a dumb NIC.
fn cpu_kvs() -> Vec<String> {
    let mut setup = build_baseline_kvs(
        SystemConfig {
            seed: 5,
            trace: false,
            ..SystemConfig::default()
        },
        SsdConfig::default(),
        ServerConfig {
            cache_entries: 64,
            ..ServerConfig::default()
        },
    );
    let port = setup.system.add_host(Box::new(KvsClientHost::new(
        setup.kvs_port,
        WorkloadConfig {
            keys: 200,
            total_ops: 400,
            stats_prefix: "c0".into(),
            ..WorkloadConfig::default()
        },
    )));
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_secs(2));
    let sys = &setup.system;
    assert!(client(sys, port).is_done(), "the client finished");
    let cpu: &CpuDevice<KvsCpuApp> = sys.device_as(setup.frontend).expect("CPU");
    let stats = cpu.app().stats();
    vec![
        json(sys.stats()),
        format!("server: {stats:?}"),
        client_line(sys, port),
    ]
}

/// A traced KVS machine with RPC retries on, its SSD crashed twice (once
/// while the client loads its keys, once while it measures) and wire faults
/// on the NIC: restarts, `Unavailable` answers and retransmissions all count.
fn faulted_kvs() -> Vec<String> {
    let mut plan = FaultPlan::new(0x33);
    plan.inject(SimTime::from_nanos(60_000_000), "ssd0", FaultKind::Crash)
        .inject(SimTime::from_nanos(150_000_000), "ssd0", FaultKind::Crash)
        .inject(
            SimTime::from_nanos(150_000_000),
            "memctl0",
            FaultKind::Drop { count: 6 },
        )
        .inject(
            SimTime::from_nanos(150_000_000),
            "nic0",
            FaultKind::Drop { count: 6 },
        );
    let mut setup = build_cpuless_kvs(
        SystemConfig {
            seed: 7,
            trace: true,
            fault_plan: Some(plan),
            rpc_retry: Some(RetryConfig::default()),
            ..SystemConfig::default()
        },
        SsdConfig::default(),
        ServerConfig {
            cache_entries: 128,
            ..ServerConfig::default()
        },
    );
    let port = setup.system.add_host(Box::new(KvsClientHost::new(
        setup.kvs_port,
        WorkloadConfig {
            keys: 300,
            total_ops: 20_000,
            stats_prefix: "c0".into(),
            ..WorkloadConfig::default()
        },
    )));
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_millis(400));
    let sys = &setup.system;
    let stats = nic_stats(sys, setup.frontend);
    let hub = sys.stats();
    // `failures` feeds `kvs.server.restarts`; `fast_gets` feeds no key.
    assert_eq!(hub.counter("kvs.server.restarts"), stats.failures);
    assert!(stats.failures > 0, "the SSD crashes restart the server");
    assert!(
        hub.counters().iter().all(|(k, _)| !k.contains("fast_gets")),
        "fast_gets is the server's own count"
    );
    // A slot's `iommu.{name}.faults` sum to `iommu.faults`.
    let per_slot: u64 = hub
        .counters()
        .iter()
        .filter(|(k, _)| k.starts_with("iommu.") && k.ends_with(".faults") && k != "iommu.faults")
        .map(|(_, v)| v)
        .sum();
    assert_eq!(per_slot, hub.counter("iommu.faults"));
    // `bus.{name}.retries` counts only retransmissions whose source has a
    // slot, so their sum is at most `bus.rpc_retries`.
    let per_source: u64 = hub
        .counters()
        .iter()
        .filter(|(k, _)| k.starts_with("bus.") && k.ends_with(".retries"))
        .map(|(_, v)| v)
        .sum();
    assert!(per_source <= hub.counter("bus.rpc_retries"));
    assert!(
        hub.counter("bus.rpc_retries") > 0,
        "the drops cost a retransmission"
    );
    // The client's `unavailable_rejections` also counts the loading phase;
    // `kvs.c0.unavailable` counts only measured operations.
    let c = client(sys, port);
    assert!(c.unavailable_rejections() > hub.counter("kvs.c0.unavailable"));
    assert!(
        hub.counter("kvs.c0.unavailable") > 0,
        "the second crash hits measured ops"
    );
    let ck = sys.checkpoint("metrics-pins").expect("checkpoints");
    let hub_section = ck.section("metrics").map(fnv1a);
    vec![
        json(hub),
        format!("server: {stats:?}"),
        client_line(sys, port),
        format!(
            "bus.rpc_retries {} per-source retries {per_source} iommu.faults {} kvs.c0.unavailable {} metrics section {hub_section:?}",
            hub.counter("bus.rpc_retries"),
            hub.counter("iommu.faults"),
            hub.counter("kvs.c0.unavailable"),
        ),
    ]
}

/// Four machines on leaf-spine:2, R = 2, one client per machine through its
/// local router.
fn rack() -> Vec<String> {
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
            trace: false,
            ..SystemConfig::default()
        },
    );
    let mut clients = Vec::new();
    for i in 0..4 {
        let router = setup.router_ports[i];
        let machine = setup.fabric.machine_mut(setup.machines[i]);
        clients.push(machine.add_host(Box::new(KvsClientHost::new(
            router,
            WorkloadConfig {
                keys: 48,
                theta: 0.9,
                read_fraction: 0.7,
                value_size: 200,
                outstanding: 4,
                total_ops: 200,
                stats_prefix: format!("c{i}"),
                ..WorkloadConfig::default()
            },
        ))));
    }
    setup.fabric.power_on();
    setup.fabric.run_for(SimDuration::from_secs(1));
    let mut out = vec![json(setup.fabric.metrics())];
    for (i, &client) in clients.iter().enumerate() {
        let sys = setup.fabric.machine(setup.machines[i]);
        let hub = sys.stats();
        let router = setup.router(i);
        let stats = router.stats();
        assert!(stats.requests > 0, "router {i} served");
        // `RouterStats::epoch` is the `fabric.router.epoch` gauge;
        // `fabric.router.endpoints` has no stats field.
        assert_eq!(hub.gauge("fabric.router.epoch"), stats.epoch as i64);
        assert_eq!(
            hub.gauge("fabric.router.endpoints"),
            router.endpoint_names().len() as i64
        );
        let server = setup.nic(i).app().stats();
        out.push(json(hub));
        // A count taken before the instance registered reaches only its own
        // field.
        out.push(format!(
            "router{i}: {stats:?} fabric.router.requests {}",
            hub.counter("fabric.router.requests")
        ));
        out.push(format!(
            "server{i}: {server:?} kvs.server.gets {}",
            hub.counter("kvs.server.gets")
        ));
        out.push(client_line(sys, client));
    }
    out
}

fn check(name: &str, observed: Vec<String>, parent: &[&str]) {
    assert_eq!(
        observed,
        parent,
        "{name} moved; observed:\n{}",
        observed.join("\n")
    );
}

#[test]
fn two_tenant_metrics_are_as_before() {
    let first = two_tenant();
    assert_eq!(first, two_tenant(), "same seed, same bytes");
    check("two_tenant", first, PARENT_TWO_TENANT);
}

#[test]
fn cpu_kvs_metrics_are_as_before() {
    check("cpu_kvs", cpu_kvs(), PARENT_CPU_KVS);
}

#[test]
fn faulted_kvs_metrics_are_as_before() {
    let first = faulted_kvs();
    assert_eq!(first, faulted_kvs(), "same seed, same bytes");
    check("faulted_kvs", first, PARENT_FAULTED_KVS);
}

#[test]
fn rack_metrics_are_as_before() {
    check("rack", rack(), PARENT_RACK);
}

// Recorded at the commit before instruments were declared once.

const PARENT_TWO_TENANT: &[&str] = &[
    "metrics_json 0x9a7781fd22286ce1 3728",
    "victim: ServerStats { gets: 263, puts: 102, cache_hits: 0, fast_gets: 0, shed: 0, misses: 1, failures: 0, unavailable: 0 }",
    "antagonist: ServerStats { gets: 1, puts: 364, cache_hits: 0, fast_gets: 0, shed: 0, misses: 1, failures: 0, unavailable: 0 }",
    "victim: ops_done 300 unavailable_rejections 0 busy 0 timeouts 0",
    "antagonist: ops_done 300 unavailable_rejections 0 busy 0 timeouts 0",
];
const PARENT_CPU_KVS: &[&str] = &[
    "metrics_json 0x2a042eff5f2e3abf 2454",
    "server: ServerStats { gets: 384, puts: 217, cache_hits: 69, fast_gets: 0, shed: 0, misses: 1, failures: 0, unavailable: 0 }",
    "c0: ops_done 400 unavailable_rejections 0 busy 0 timeouts 0",
];
const PARENT_FAULTED_KVS: &[&str] = &[
    "metrics_json 0xc45365be3a8811ce 2558",
    "server: ServerStats { gets: 16538, puts: 1170, cache_hits: 12045, fast_gets: 12045, shed: 0, misses: 1, failures: 2, unavailable: 1528 }",
    "c0: ops_done 17415 unavailable_rejections 1528 busy 0 timeouts 0",
    "bus.rpc_retries 1 per-source retries 1 iommu.faults 0 kvs.c0.unavailable 8 metrics section Ok(16512748333297553343)",
];
const PARENT_RACK: &[&str] = &[
    "metrics_json 0xb2b543361a5f063b 528",
    "metrics_json 0x11c5fecdaca94bc8 2815",
    "router0: RouterStats { requests: 250, hits: 357, failovers: 0, give_ups: 0, rebalance_moves: 0, epoch: 1, dir_replies: 1000, dir_installs: 1, late_acks: 0, busy_deferrals: 0 } fabric.router.requests 250",
    "server0: ServerStats { gets: 176, puts: 180, cache_hits: 0, fast_gets: 0, shed: 0, misses: 0, failures: 0, unavailable: 0 } kvs.server.gets 176",
    "c0: ops_done 200 unavailable_rejections 0 busy 0 timeouts 0",
    "metrics_json 0x81556d937d5f00ba 2816",
    "router1: RouterStats { requests: 250, hits: 350, failovers: 0, give_ups: 0, rebalance_moves: 0, epoch: 1, dir_replies: 1000, dir_installs: 1, late_acks: 0, busy_deferrals: 0 } fabric.router.requests 250",
    "server1: ServerStats { gets: 252, puts: 264, cache_hits: 0, fast_gets: 0, shed: 0, misses: 0, failures: 0, unavailable: 0 } kvs.server.gets 252",
    "c1: ops_done 200 unavailable_rejections 0 busy 0 timeouts 0",
    "metrics_json 0xb974e7b1fae10999 2812",
    "router2: RouterStats { requests: 250, hits: 375, failovers: 0, give_ups: 0, rebalance_moves: 0, epoch: 1, dir_replies: 1000, dir_installs: 1, late_acks: 0, busy_deferrals: 0 } fabric.router.requests 250",
    "server2: ServerStats { gets: 99, puts: 127, cache_hits: 0, fast_gets: 0, shed: 0, misses: 0, failures: 0, unavailable: 0 } kvs.server.gets 99",
    "c2: ops_done 200 unavailable_rejections 0 busy 0 timeouts 0",
    "metrics_json 0xeca4af06e39aeea8 2813",
    "router3: RouterStats { requests: 250, hits: 357, failovers: 0, give_ups: 0, rebalance_moves: 0, epoch: 1, dir_replies: 1000, dir_installs: 1, late_acks: 0, busy_deferrals: 0 } fabric.router.requests 250",
    "server3: ServerStats { gets: 26, puts: 315, cache_hits: 0, fast_gets: 0, shed: 0, misses: 4, failures: 0, unavailable: 0 } kvs.server.gets 26",
    "c3: ops_done 200 unavailable_rejections 0 busy 0 timeouts 0",
];
