//! Ids are indices: `SystemBus::attach` and `Switch::add_port` are the only
//! allocators, and the machine's device slots and port owners are tables
//! indexed by what they hand out. These tests read a machine's checkpoint
//! sections to check the tables stay aligned — on one KVS machine and on
//! every machine of a rack, whose fabric adds tunnel ports while it runs.

use lastcpu_bus::DeviceId;
use lastcpu_core::{System, SystemConfig};
use lastcpu_devices::ssd::SsdConfig;
use lastcpu_fabric::FabricConfig;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::server::ServerConfig;
use lastcpu_kvs::{build_cpuless_kvs, build_rack_kvs};
use lastcpu_net::{PortId, Switch};
use lastcpu_sim::SimDuration;
use lastcpu_snap::{Checkpoint, Restore as _};

/// The tunnel ports listed in a machine checkpoint's `engine` section (they
/// follow the correlation cursor, the memory controller's id and the
/// shared-link state).
fn tunnel_ports(ck: &Checkpoint) -> Vec<u32> {
    let mut r = ck.reader("engine").unwrap();
    r.u64().unwrap();
    r.opt(|r| r.u32()).unwrap();
    r.opt(|r| Ok((r.u64()?, r.u64()?))).unwrap();
    (0..r.len().unwrap()).map(|_| r.u32().unwrap()).collect()
}

/// `slot(id).id == id` for every bus entry, and every switch port has
/// exactly one owner (a device, a host, or the fabric).
fn assert_tables_aligned(sys: &System, what: &str) {
    let ck = sys.checkpoint("tables").unwrap();
    let mut owned = tunnel_ports(&ck);
    let devices = sys.bus().devices().count();
    for (i, e) in sys.bus().devices().enumerate() {
        assert_eq!(e.id, DeviceId(i as u32 + 1), "{what}: registry order");
        let mut slot = ck.reader(&format!("dev{i}")).unwrap();
        assert_eq!(
            slot.u32().unwrap(),
            e.id.0,
            "{what}: slot {i} holds {}",
            e.id
        );
        let port = slot.opt(|r| r.u32()).unwrap();
        assert_eq!(port.map(PortId), sys.port_of(e.id), "{what}: {}", e.id);
        owned.extend(port);
    }
    assert!(
        ck.reader(&format!("dev{devices}")).is_err(),
        "{what}: a slot without a bus entry"
    );
    owned.extend((0..).map_while(|i| Some(ck.reader(&format!("host{i}")).ok()?.u32().unwrap())));

    let mut switch = Switch::new();
    switch.restore(&mut ck.reader("switch").unwrap()).unwrap();
    let ports = (1..).take_while(|&p| switch.has_port(PortId(p))).count() as u32;
    owned.sort_unstable();
    assert_eq!(
        owned,
        (1..=ports).collect::<Vec<_>>(),
        "{what}: port owners"
    );
}

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        keys: 40,
        value_size: 64,
        outstanding: 4,
        total_ops: 200,
        preload: true,
        ..WorkloadConfig::default()
    }
}

#[test]
fn a_kvs_machine_keeps_its_tables_aligned() {
    let mut setup = build_cpuless_kvs(
        SystemConfig::default(),
        SsdConfig::default(),
        ServerConfig::default(),
    );
    let kvs_port = setup.kvs_port;
    setup
        .system
        .add_host(Box::new(KvsClientHost::new(kvs_port, workload())));
    assert_tables_aligned(&setup.system, "as built");
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_millis(50));
    assert_tables_aligned(&setup.system, "after 50 ms");
}

#[test]
fn every_machine_of_a_rack_keeps_its_tables_aligned() {
    let mut rack = build_rack_kvs(FabricConfig::default(), 4, 2, SystemConfig::default());
    for (i, &m) in rack.machines.iter().enumerate() {
        let router_port = rack.router_ports[i];
        rack.fabric
            .machine_mut(m)
            .add_host(Box::new(KvsClientHost::new(
                router_port,
                WorkloadConfig {
                    stats_prefix: format!("c{i}"),
                    ..workload()
                },
            )));
    }
    rack.fabric.power_on();
    rack.fabric.run_for(SimDuration::from_millis(50));
    for &m in &rack.machines {
        let sys = rack.fabric.machine(m);
        assert!(
            tunnel_ports(&sys.checkpoint("tables").unwrap()).len() > 1,
            "the fabric opened tunnels beyond the directory port"
        );
        assert_tables_aligned(sys, &format!("machine {m:?}"));
    }
}
