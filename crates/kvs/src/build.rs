//! One-call assembly of the two KVS deployments.

use lastcpu_baseline::{CpuDevice, DumbNic};
use lastcpu_core::{DeviceHandle, System, SystemConfig};
use lastcpu_devices::flash::{NandChip, NandConfig};
use lastcpu_devices::fs::FlashFs;
use lastcpu_devices::ftl::Ftl;
use lastcpu_devices::nic::SmartNic;
use lastcpu_devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_fabric::{Fabric, FabricConfig, MachineId};
use lastcpu_mem::Pasid;
use lastcpu_net::PortId;

use crate::app::KvsNicApp;
use crate::cpu_app::KvsCpuApp;
use crate::router::{RouterConfig, ShardRouterHost};
use crate::server::ServerConfig;

/// An assembled machine running the KVS.
pub struct KvsSetup {
    /// The machine (not yet powered on).
    pub system: System,
    /// The device processing KVS requests (smart NIC or CPU).
    pub frontend: DeviceHandle,
    /// The storage device.
    pub ssd: DeviceHandle,
    /// The network port clients should send to.
    pub kvs_port: PortId,
}

/// The KVS data file path.
pub const KVS_FILE: &str = "/data/kv.db";

fn kvs_fs(nand: NandConfig) -> FlashFs {
    let mut fs = FlashFs::format(Ftl::new(NandChip::new(nand)));
    fs.create(KVS_FILE).expect("fresh filesystem");
    fs
}

/// Default flash geometry for KVS experiments (64 MiB raw).
pub fn default_nand() -> NandConfig {
    NandConfig {
        blocks: 256,
        pages_per_block: 64,
        page_size: 4096,
        max_erase_cycles: u32::MAX,
        ..NandConfig::default()
    }
}

/// Builds the CPU-less deployment (§3): KVS on a smart NIC, data on a smart
/// SSD, memory controller + system bus providing the OS functions.
pub fn build_cpuless_kvs(
    sys_config: SystemConfig,
    ssd_config: SsdConfig,
    server_config: ServerConfig,
) -> KvsSetup {
    build_cpuless_kvs_on(default_nand(), sys_config, ssd_config, server_config)
}

/// [`build_cpuless_kvs`] with the SSD's flash geometry given.
pub fn build_cpuless_kvs_on(
    nand: NandConfig,
    sys_config: SystemConfig,
    ssd_config: SsdConfig,
    mut server_config: ServerConfig,
) -> KvsSetup {
    let mut system = System::new(sys_config);
    system.add_memctl("memctl0");
    let mut ssd_config = ssd_config;
    if !ssd_config.exports.contains(&KVS_FILE.to_string()) {
        ssd_config.exports.push(KVS_FILE.into());
    }
    let ssd = system.add_device(Box::new(SmartSsd::new("ssd0", kvs_fs(nand), ssd_config)));
    server_config.memctl = None; // discover it, as a self-managing device must
    let nic = system.add_net_device(Box::new(SmartNic::new(
        "nic0",
        // The application's address space is identified by the NIC's bus
        // address — one app, one PASID (§2.2).
        KvsNicApp::new(server_config, Pasid(ssd.id.0 + 2)),
    )));
    let kvs_port = system.device_port(nic).expect("NIC has a port");
    KvsSetup {
        system,
        frontend: nic,
        ssd,
        kvs_port,
    }
}

/// Builds the conventional deployment: KVS on the CPU behind a dumb NIC;
/// the same smart SSD serves storage so the storage service time is
/// identical — the measured difference is the kernel detour.
pub fn build_baseline_kvs(
    sys_config: SystemConfig,
    ssd_config: SsdConfig,
    mut server_config: ServerConfig,
) -> KvsSetup {
    let mut system = System::new(sys_config);
    let mut ssd_config = ssd_config;
    if !ssd_config.exports.contains(&KVS_FILE.to_string()) {
        ssd_config.exports.push(KVS_FILE.into());
    }
    let cpu = system.add_device_with("cpu0", "cpu", |id, dram| {
        server_config.memctl = Some(id); // the kernel is the memory manager
        Box::new(CpuDevice::new(
            "cpu0",
            id,
            dram,
            KvsCpuApp::new(server_config, Pasid(id.0)),
        ))
    });
    let ssd = system.add_device(Box::new(SmartSsd::new(
        "ssd0",
        kvs_fs(default_nand()),
        ssd_config,
    )));
    let nic = system.add_net_device(Box::new(DumbNic::new("nic0", cpu.id)));
    let kvs_port = system.device_port(nic).expect("NIC has a port");
    KvsSetup {
        system,
        frontend: cpu,
        ssd,
        kvs_port,
    }
}

/// Builds the *hybrid* deployment the paper's §5 asks about ("what would it
/// look like if we reintroduced a CPU to such a system?"): the KVS still
/// runs on a CPU behind a dumb NIC, but the control plane is the paper's —
/// a discrete memory-controller device and SSDP discovery; the CPU is just
/// another device and owns nothing. Comparing hybrid with the baseline
/// separates the two effects: decentralizing *control* (E1) vs offloading
/// the *data path* (E2).
pub fn build_hybrid_kvs(
    sys_config: SystemConfig,
    ssd_config: SsdConfig,
    mut server_config: ServerConfig,
) -> KvsSetup {
    let mut system = System::new(sys_config);
    let memctl = system.add_memctl("memctl0");
    let mut ssd_config = ssd_config;
    if !ssd_config.exports.contains(&KVS_FILE.to_string()) {
        ssd_config.exports.push(KVS_FILE.into());
    }
    // The app uses the *external* memory controller; the CPU's embedded
    // memory manager loses the controller-registration race at the bus and
    // is never consulted.
    server_config.memctl = Some(memctl.id);
    let cpu = system.add_device_with("cpu0", "cpu", |id, dram| {
        Box::new(CpuDevice::new(
            "cpu0",
            id,
            dram,
            KvsCpuApp::new(server_config, Pasid(id.0)),
        ))
    });
    let ssd = system.add_device(Box::new(SmartSsd::new(
        "ssd0",
        kvs_fs(default_nand()),
        ssd_config,
    )));
    let nic = system.add_net_device(Box::new(DumbNic::new("nic0", cpu.id)));
    let kvs_port = system.device_port(nic).expect("NIC has a port");
    KvsSetup {
        system,
        frontend: cpu,
        ssd,
        kvs_port,
    }
}

/// An assembled rack (E10): M CPU-less machines — each a full §3 deployment
/// with smart NIC + smart SSD + memory controller — co-simulated under one
/// [`Fabric`], each carrying a [`ShardRouterHost`] that shards the key space
/// over every KVS frontend in the rack with R-way replication.
///
/// The rack is not yet powered on; attach clients to
/// [`router_ports`](Self::router_ports) (via
/// `fabric.machine_mut(m).add_host(..)`), then call `fabric.power_on()`.
pub struct RackSetup {
    /// The co-simulation.
    pub fabric: Fabric,
    /// Machine ids in index order (`machines[i]` is `"m{i}"`).
    pub machines: Vec<MachineId>,
    /// Per-machine KVS frontend (the smart NIC).
    pub frontends: Vec<DeviceHandle>,
    /// Per-machine shard-router port — point clients here.
    pub router_ports: Vec<PortId>,
}

impl RackSetup {
    /// The shard router on machine `i`.
    pub fn router(&self, i: usize) -> &ShardRouterHost {
        self.fabric
            .machine(self.machines[i])
            .host_as(self.router_ports[i])
            .expect("router present")
    }

    /// The KVS frontend NIC on machine `i`.
    pub fn nic(&self, i: usize) -> &SmartNic<KvsNicApp> {
        self.fabric
            .machine(self.machines[i])
            .device_as(self.frontends[i])
            .expect("NIC present")
    }

    /// The acked-write audit at the heart of E10: keys some *alive* router
    /// acknowledged a PUT for that no alive machine's index holds. With
    /// R ≥ 2 this must stay 0 across any single machine crash; with R = 1
    /// a crash loses the victim's shard.
    pub fn lost_acked_keys(&self) -> usize {
        let alive: Vec<usize> = (0..self.machines.len())
            .filter(|&i| !self.fabric.is_dead(self.machines[i]))
            .collect();
        let mut lost = 0;
        for &r in &alive {
            for key in self.router(r).acked_put_keys() {
                if !alive.iter().any(|&i| self.nic(i).app().contains(key)) {
                    lost += 1;
                }
            }
        }
        lost
    }
}

/// Builds an E10 rack: `machines` CPU-less KVS deployments under one fabric,
/// with a shard router per machine configured for `replication`-way writes.
/// Machine `i` runs `base` with its seed offset by `i` (so machines draw
/// from distinct deterministic streams).
pub fn build_rack_kvs(
    fabric_config: FabricConfig,
    machines: usize,
    replication: usize,
    base: SystemConfig,
) -> RackSetup {
    let mut fabric = Fabric::new(fabric_config);
    let mut ids = Vec::with_capacity(machines);
    let mut frontends = Vec::with_capacity(machines);
    let mut router_ports = Vec::with_capacity(machines);
    for i in 0..machines {
        let setup = build_cpuless_kvs(
            SystemConfig {
                seed: base.seed + i as u64,
                ..base.clone()
            },
            SsdConfig::default(),
            ServerConfig::default(),
        );
        frontends.push(setup.frontend);
        let m = fabric.add_machine(format!("m{i}"), setup.system);
        let dir_port = fabric.directory_port(m);
        let router_port = fabric
            .machine_mut(m)
            .add_host(Box::new(ShardRouterHost::new(RouterConfig {
                dir_port,
                replication,
                name: format!("router{i}"),
                ..RouterConfig::default()
            })));
        ids.push(m);
        router_ports.push(router_port);
    }
    RackSetup {
        fabric,
        machines: ids,
        frontends,
        router_ports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{KvsClientHost, WorkloadConfig};
    use crate::server::ServerState;
    use lastcpu_sim::SimDuration;

    fn small_workload(prefix: &str) -> WorkloadConfig {
        WorkloadConfig {
            keys: 50,
            theta: 0.9,
            read_fraction: 0.8,
            value_size: 64,
            outstanding: 4,
            total_ops: 300,
            preload: true,
            stats_prefix: prefix.into(),
        }
    }

    #[test]
    fn cpuless_kvs_serves_a_workload() {
        let mut setup = build_cpuless_kvs(
            SystemConfig::default(),
            SsdConfig::default(),
            ServerConfig::default(),
        );
        let port = setup.system.add_host(Box::new(KvsClientHost::new(
            setup.kvs_port,
            small_workload("c0"),
        )));
        setup.system.power_on();
        setup.system.run_for(SimDuration::from_secs(2));

        let client: &KvsClientHost = setup.system.host_as(port).unwrap();
        assert!(
            client.is_done(),
            "workload incomplete: {} ops; nic state {:?}",
            client.ops_done(),
            setup
                .system
                .device_as::<SmartNic<KvsNicApp>>(setup.frontend)
                .map(|n| n.app().state())
        );
        assert_eq!(client.errors(), 0);
        let nic: &SmartNic<KvsNicApp> = setup.system.device_as(setup.frontend).unwrap();
        assert_eq!(nic.app().state(), ServerState::Ready);
        assert_eq!(nic.app().key_count(), 50);
        let st = nic.app().stats();
        assert!(st.gets > 0 && st.puts >= 50);
        // Latencies were recorded.
        let h = setup.system.stats().histogram("c0.latency").unwrap();
        assert!(h.count() >= 250, "measured ops {}", h.count());
    }

    #[test]
    fn baseline_kvs_serves_a_workload_slower() {
        let mut cpuless = build_cpuless_kvs(
            SystemConfig::default(),
            SsdConfig::default(),
            ServerConfig::default(),
        );
        let p1 = cpuless.system.add_host(Box::new(KvsClientHost::new(
            cpuless.kvs_port,
            small_workload("c"),
        )));
        cpuless.system.power_on();
        cpuless.system.run_for(SimDuration::from_secs(2));
        let c1: &KvsClientHost = cpuless.system.host_as(p1).unwrap();
        assert!(c1.is_done(), "cpuless incomplete: {}", c1.ops_done());
        // Means are exact (sum/count); percentiles carry ~9% bucket error,
        // smaller than the ~10us kernel detour on a ~300us flash-bound op.
        let lat1 = cpuless
            .system
            .stats()
            .histogram("c.latency")
            .unwrap()
            .mean();

        let mut base = build_baseline_kvs(
            SystemConfig::default(),
            SsdConfig::default(),
            ServerConfig::default(),
        );
        let p2 = base.system.add_host(Box::new(KvsClientHost::new(
            base.kvs_port,
            small_workload("c"),
        )));
        base.system.power_on();
        base.system.run_for(SimDuration::from_secs(2));
        let c2: &KvsClientHost = base.system.host_as(p2).unwrap();
        assert!(c2.is_done(), "baseline incomplete: {}", c2.ops_done());
        assert_eq!(c2.errors(), 0);
        let lat2 = base.system.stats().histogram("c.latency").unwrap().mean();

        assert!(
            lat2 > lat1,
            "kernel detour must cost: baseline mean {lat2} vs cpu-less mean {lat1}"
        );
    }

    #[test]
    fn index_rebuild_recovers_data_across_restart() {
        // Run a workload, then build a *new* NIC app over the same file
        // contents and check the index rebuild path. We simulate restart by
        // running a second system whose SSD starts from the same flash
        // contents — here approximated by running load, then querying a
        // key that was only ever written via the log.
        let mut setup = build_cpuless_kvs(
            SystemConfig::default(),
            SsdConfig::default(),
            ServerConfig::default(),
        );
        let port = setup.system.add_host(Box::new(KvsClientHost::new(
            setup.kvs_port,
            WorkloadConfig {
                keys: 30,
                total_ops: 60,
                read_fraction: 1.0, // after preload, pure GETs
                ..small_workload("c1")
            },
        )));
        setup.system.power_on();
        setup.system.run_for(SimDuration::from_secs(2));
        let client: &KvsClientHost = setup.system.host_as(port).unwrap();
        assert!(client.is_done());
        assert_eq!(client.errors(), 0);
        // Pure-GET phase after preload: every measured GET hits the index
        // (the only NotFounds are the client's liveness probes).
        let nic: &SmartNic<KvsNicApp> = setup.system.device_as(setup.frontend).unwrap();
        let st = nic.app().stats();
        assert_eq!(nic.app().key_count(), 30);
        assert!(
            st.misses <= 2,
            "only probe misses allowed, got {}",
            st.misses
        );
        assert!(st.gets >= 60);
    }
}
