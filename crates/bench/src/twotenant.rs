//! Two-tenant KVS assembly for the isolation experiment (E3).
//!
//! A victim tenant and an antagonist tenant each run their own KVS on their
//! own smart NIC, over their own file — but both files live on the *same*
//! smart SSD. The SSD is the shared resource; whether the antagonist can
//! destroy the victim's tail latency depends on the SSD's per-context
//! isolation scheduler (§2.1: devices must "provide isolation between the
//! instances").

use lastcpu_core::devices::flash::{NandChip, NandConfig};
use lastcpu_core::devices::fs::FlashFs;
use lastcpu_core::devices::ftl::Ftl;
use lastcpu_core::devices::nic::SmartNic;
use lastcpu_core::devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_core::{DeviceHandle, System, SystemConfig};
use lastcpu_kvs::client::KvsClientHost;
use lastcpu_kvs::server::ServerConfig;
use lastcpu_kvs::KvsNicApp;
use lastcpu_mem::Pasid;
use lastcpu_net::PortId;
use lastcpu_sim::SimDuration;

/// Victim's data file.
pub const VICTIM_FILE: &str = "/data/victim.db";
/// Antagonist's data file.
pub const ANTAGONIST_FILE: &str = "/data/antagonist.db";

/// The assembled two-tenant machine.
pub struct TwoTenantSetup {
    /// The machine.
    pub system: System,
    /// Victim KVS frontend.
    pub victim_nic: DeviceHandle,
    /// Antagonist KVS frontend.
    pub antagonist_nic: DeviceHandle,
    /// The shared SSD.
    pub ssd: DeviceHandle,
    /// Port clients of the victim send to.
    pub victim_port: PortId,
    /// Port clients of the antagonist send to.
    pub antagonist_port: PortId,
}

/// Builds the two-tenant machine with the SSD's isolation scheduler on or
/// off.
pub fn build_two_tenant(sys_config: SystemConfig, isolation: bool) -> TwoTenantSetup {
    let mut system = System::new(sys_config);
    system.add_memctl("memctl0");

    let mut fs = FlashFs::format(Ftl::new(NandChip::new(NandConfig {
        blocks: 256,
        pages_per_block: 64,
        page_size: 4096,
        max_erase_cycles: u32::MAX,
        ..NandConfig::default()
    })));
    fs.create(VICTIM_FILE).expect("fresh fs");
    fs.create(ANTAGONIST_FILE).expect("fresh fs");
    let ssd = system.add_device(Box::new(SmartSsd::new(
        "ssd0",
        fs,
        SsdConfig {
            isolation,
            exports: vec![VICTIM_FILE.into(), ANTAGONIST_FILE.into()],
            ..SsdConfig::default()
        },
    )));

    let victim_nic = system.add_net_device(Box::new(SmartNic::new(
        "nic-victim",
        KvsNicApp::new(
            ServerConfig {
                file_pattern: format!("file:{VICTIM_FILE}"),
                ..ServerConfig::default()
            },
            Pasid(100),
        ),
    )));
    let antagonist_nic = system.add_net_device(Box::new(SmartNic::new(
        "nic-antagonist",
        KvsNicApp::new(
            ServerConfig {
                file_pattern: format!("file:{ANTAGONIST_FILE}"),
                ..ServerConfig::default()
            },
            Pasid(101),
        ),
    )));
    let victim_port = system.device_port(victim_nic).expect("port");
    let antagonist_port = system.device_port(antagonist_nic).expect("port");
    TwoTenantSetup {
        system,
        victim_nic,
        antagonist_nic,
        ssd,
        victim_port,
        antagonist_port,
    }
}

/// Runs 100 ms slices until the client at `port` finishes — the victim; an
/// antagonist never does — and returns it. Panics, naming `what`, if it is
/// still not done after 20 s of virtual time.
pub(crate) fn run_until_done<'a>(
    system: &'a mut System,
    port: PortId,
    what: &str,
) -> &'a KvsClientHost {
    let done = |s: &System| s.host_as::<KvsClientHost>(port).expect("client").is_done();
    for _ in 0..200 {
        system.run_for(SimDuration::from_millis(100));
        if done(system) {
            break;
        }
    }
    let client: &KvsClientHost = system.host_as(port).expect("client");
    assert!(
        client.is_done(),
        "victim starved ({what}): {} ops",
        client.ops_done()
    );
    client
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_kvs::client::WorkloadConfig;
    use lastcpu_kvs::server::ServerState;

    #[test]
    fn both_tenants_come_up_and_serve() {
        let mut setup = build_two_tenant(SystemConfig::default(), true);
        let vp = setup.system.add_host(Box::new(KvsClientHost::new(
            setup.victim_port,
            WorkloadConfig {
                keys: 20,
                total_ops: 50,
                stats_prefix: "victim".into(),
                ..WorkloadConfig::default()
            },
        )));
        let ap = setup.system.add_host(Box::new(KvsClientHost::new(
            setup.antagonist_port,
            WorkloadConfig {
                keys: 20,
                total_ops: 50,
                read_fraction: 0.0,
                stats_prefix: "antagonist".into(),
                ..WorkloadConfig::default()
            },
        )));
        setup.system.power_on();
        setup.system.run_for(SimDuration::from_secs(3));
        let v: &KvsClientHost = setup.system.host_as(vp).unwrap();
        let a: &KvsClientHost = setup.system.host_as(ap).unwrap();
        assert!(v.is_done(), "victim incomplete: {}", v.ops_done());
        assert!(a.is_done(), "antagonist incomplete: {}", a.ops_done());
        let vnic: &SmartNic<KvsNicApp> = setup.system.device_as(setup.victim_nic).unwrap();
        assert_eq!(vnic.app().state(), ServerState::Ready);
        // Both tenants' data went through the same SSD.
        let ssd: &SmartSsd = setup.system.device_as(setup.ssd).unwrap();
        assert!(ssd.stats().requests >= 100);
    }
}
