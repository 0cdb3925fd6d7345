//! Failure drill: kill the SSD under a live KVS and watch the system's §4
//! error handling — fencing, failure broadcast, memory reclamation, reset,
//! and the application's experience through it all.
//!
//! Run with: `cargo run -p lastcpu-examples --bin failure_drill`

use lastcpu_core::devices::nic::SmartNic;
use lastcpu_core::SystemConfig;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::server::{ServerConfig, ServerState};
use lastcpu_kvs::{build_cpuless_kvs, KvsNicApp};
use lastcpu_sim::SimDuration;

fn main() {
    let mut setup = build_cpuless_kvs(
        SystemConfig::default(),
        Default::default(),
        ServerConfig::default(),
    );
    let port = setup.system.add_host(Box::new(KvsClientHost::new(
        setup.kvs_port,
        WorkloadConfig {
            keys: 100,
            total_ops: 1_000_000, // open-ended; we interrupt it
            preload: true,
            stats_prefix: "client".into(),
            ..WorkloadConfig::default()
        },
    )));
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_millis(200));

    let client: &KvsClientHost = setup.system.host_as(port).expect("client");
    let before = client.ops_done();
    println!("t=200ms: KVS serving normally, {before} ops completed so far");
    assert!(before > 0, "workload should be running");

    // --- Inject: the SSD dies. -----------------------------------------
    let t_kill = setup.system.now();
    println!();
    println!(">>> killing ssd0 (transient hardware failure)");
    setup.system.kill_device(setup.ssd, false);
    setup.system.run_for(SimDuration::from_millis(10));

    println!();
    println!("what the system did (trace excerpt):");
    let interesting: Vec<String> = setup
        .system
        .trace()
        .events()
        .filter(|e| e.at >= t_kill)
        .filter(|e| {
            e.what().contains("DeviceFailed")
                || e.what().contains("revoked")
                || &*e.source == "fault"
                || e.what().contains("ssd0: HelloAck")
                || e.what().contains("Hello to")
        })
        .take(12)
        .map(|e| format!("  {e}"))
        .collect();
    for line in &interesting {
        println!("{line}");
    }

    // The NIC's server lost its session (its storage died under it).
    let nic: &SmartNic<KvsNicApp> = setup.system.device_as(setup.frontend).expect("nic");
    println!();
    println!(
        "KVS server state after the failure: {:?}",
        nic.app().state()
    );
    assert_eq!(nic.app().state(), ServerState::Failed);
    println!("the client times out its lost requests and the server sheds load:");
    setup.system.run_for(SimDuration::from_millis(300));
    let client: &KvsClientHost = setup.system.host_as(port).expect("client");
    println!(
        "  client timeouts: {}, Busy responses: {} (ops before kill: {before})",
        client.timeouts(),
        client.busy_rejections(),
    );
    assert!(
        client.timeouts() > 0,
        "in-flight requests died with the SSD"
    );
    assert!(
        client.busy_rejections() > 0,
        "server sheds load after failure"
    );

    // The bus reset the SSD; it re-registered. (The KVS application layer
    // would reconnect via a fresh discovery — the paper leaves recovery to
    // "the application logic running on the consumer", §4.)
    let ssd_alive = setup
        .system
        .bus()
        .device(setup.ssd.id)
        .is_some_and(|d| d.state == lastcpu_bus::bus::DeviceState::Alive);
    println!();
    println!(
        "ssd0 after the bus's reset pulse: {}",
        if ssd_alive {
            "alive again (re-registered via Hello)"
        } else {
            "still down"
        }
    );
    assert!(ssd_alive);
    println!(
        "memory controller reclaimed/revoked: {} pages unmapped by the bus",
        setup.system.stats().counter("bus.pages_unmapped")
    );
    println!();
    println!("the failure was contained: no CPU was needed to fence the device,");
    println!("notify its consumers, scrub its mappings, or bring it back.");
}
