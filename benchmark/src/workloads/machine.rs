//! Bench-side assembly of one CPU-less KVS machine, and reading its layer
//! counters from outside.
//!
//! The library's `build_cpuless_kvs` drops the memory-controller handle
//! (and `build_rack_kvs` the SSD handles too), and without a handle
//! `System::device_as` / `System::iommu` cannot reach `MemCtlStats`,
//! `SsdStats`, `FtlStats`, `FlashStats` or the per-device `IommuStats`.
//! So the same parts are put together here, in the same order, and every
//! handle is kept. A unit test pins the result to the library builder's.

use lastcpu_core::devices::flash::{NandChip, NandConfig};
use lastcpu_core::devices::fs::FlashFs;
use lastcpu_core::devices::ftl::Ftl;
use lastcpu_core::devices::nic::SmartNic;
use lastcpu_core::devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_core::{DeviceHandle, MemCtlDevice, System, SystemConfig};
use lastcpu_kvs::build::KVS_FILE;
use lastcpu_kvs::{KvsNicApp, ServerConfig};
use lastcpu_mem::Pasid;
use lastcpu_memctl::MemCtlStats;
use lastcpu_net::{PortId, Switch, SwitchStats};
use lastcpu_snap::{Checkpoint, Restore};

use super::Counters;

/// The devices of one machine; valid for the `System` they came from,
/// wherever it lives (a rack's fabric owns its machines).
#[derive(Clone, Copy)]
pub struct Handles {
    pub memctl: DeviceHandle,
    pub ssd: DeviceHandle,
    pub nic: DeviceHandle,
}

pub struct Machine {
    pub system: System,
    pub handles: Handles,
    pub kvs_port: PortId,
}

/// memctl + smart SSD (exporting the KVS file on `nand`) + smart NIC
/// running the KVS app — `build_cpuless_kvs` with the geometry a parameter.
pub fn assemble(sys_config: SystemConfig, nand: NandConfig, mut server: ServerConfig) -> Machine {
    let mut system = System::new(sys_config);
    let memctl = system.add_memctl("memctl0");
    let mut fs = FlashFs::format(Ftl::new(NandChip::new(nand)));
    fs.create(KVS_FILE).expect("fresh filesystem");
    let ssd = system.add_device(Box::new(SmartSsd::new(
        "ssd0",
        fs,
        SsdConfig {
            exports: vec![KVS_FILE.into()],
            ..SsdConfig::default()
        },
    )));
    server.memctl = None; // discovered, as a self-managing device must
    let nic = system.add_net_device(Box::new(SmartNic::new(
        "nic0",
        KvsNicApp::new(server, Pasid(ssd.id.0 + 2)),
    )));
    let kvs_port = system.device_port(nic).expect("NIC has a port");
    Machine {
        system,
        handles: Handles { memctl, ssd, nic },
        kvs_port,
    }
}

/// `SwitchStats` are not reachable through `System`; the checkpoint's
/// `switch` section restores into a scratch `Switch` that is.
pub fn switch_stats(ck: &Checkpoint) -> SwitchStats {
    let mut sw = Switch::new();
    let mut r = ck
        .reader("switch")
        .expect("machine checkpoint has a switch section");
    sw.restore(&mut r).expect("switch section restores");
    sw.stats()
}

/// Adds `h`'s IOMMU and IOTLB counters to `c`.
pub fn add_iommu(sys: &System, h: DeviceHandle, c: &mut Counters) {
    let (st, tlb) = (sys.iommu(h).stats(), sys.iommu(h).tlb_stats());
    c.iommu_translations += st.translations;
    c.iommu_maps += st.maps + st.unmaps;
    c.iommu_faults += st.faults;
    c.tlb_hits += tlb.hits;
    c.tlb_misses += tlb.misses;
}

/// Adds the machine-wide counters (bus, RPC retries, buffer pool) to `c`.
pub fn add_system(sys: &System, c: &mut Counters) {
    let bus = sys.bus().stats();
    c.bus_messages += bus.messages;
    c.bus_bytes += bus.bytes;
    c.bus_broadcast_deliveries += bus.broadcast_deliveries;
    c.bus_map_ops += bus.map_ops;
    c.bus_denials += bus.denials;
    c.bus_failures += bus.failures;
    if let Some(rpc) = sys.rpc_stats() {
        c.rpc_retries += rpc.retries;
        c.rpc_give_ups += rpc.give_ups;
    }
    let pool = sys.pool().stats();
    c.pool_taken += pool.taken;
    c.pool_recycled += pool.recycled;
    c.pool_shed += pool.shed;
}

pub fn memctl_stats(sys: &System, h: DeviceHandle) -> MemCtlStats {
    sys.device_as::<MemCtlDevice>(h)
        .expect("memctl handle")
        .controller()
        .stats()
}

pub fn add_memctl(sys: &System, h: DeviceHandle, c: &mut Counters) {
    let st = memctl_stats(sys, h);
    c.memctl_allocs += st.allocs;
    c.memctl_shares += st.shares;
    c.memctl_denials += st.denials;
    c.memctl_oom += st.oom;
}

pub fn add_ssd(sys: &mut System, h: DeviceHandle, c: &mut Counters) {
    let ssd = sys.device_as_mut::<SmartSsd>(h).expect("ssd handle");
    let st = ssd.stats();
    c.ssd_requests += st.requests;
    c.ssd_bytes_read += st.bytes_read;
    c.ssd_bytes_written += st.bytes_written;
    let ftl = ssd.fs_mut().ftl_mut();
    let fst = ftl.stats();
    c.ftl_host_writes += fst.host_writes;
    c.ftl_nand_writes += fst.nand_writes;
    c.ftl_gc_runs += fst.gc_runs;
    let flash = ftl.nand_mut().stats();
    c.flash_programs += flash.programs;
    c.flash_reads += flash.reads;
}

pub fn add_switch(st: SwitchStats, c: &mut Counters) {
    c.net_frames += st.forwarded;
    c.net_bytes += st.bytes;
    c.net_dropped += st.dropped;
}

pub fn nic_app(sys: &System, nic: DeviceHandle) -> &KvsNicApp {
    sys.device_as::<SmartNic<KvsNicApp>>(nic)
        .expect("nic handle")
        .app()
}

/// Adds all layer counters of one machine except its clients'. `ck` is a
/// checkpoint of `sys`.
pub fn add_machine(sys: &mut System, h: Handles, ck: &Checkpoint, c: &mut Counters) {
    add_system(sys, c);
    for dev in [h.memctl, h.ssd, h.nic] {
        add_iommu(sys, dev, c);
    }
    add_memctl(sys, h.memctl, c);
    add_ssd(sys, h.ssd, c);
    add_switch(switch_stats(ck), c);
    let st = nic_app(sys, h.nic).stats();
    c.kvs_gets += st.gets;
    c.kvs_cache_hits += st.cache_hits;
    c.kvs_fast_gets += st.fast_gets;
    c.kvs_shed += st.shed;
    c.kvs_failures += st.failures;
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_kvs::build::default_nand;
    use lastcpu_sim::SimTime;

    /// The bench-side assembly must stay the machine the library builds.
    #[test]
    fn assembly_matches_library_builder() {
        let cfg = SystemConfig {
            seed: 7,
            ..SystemConfig::default()
        };
        let mut ours = assemble(cfg.clone(), default_nand(), ServerConfig::default());
        let mut theirs =
            lastcpu_kvs::build_cpuless_kvs(cfg, SsdConfig::default(), ServerConfig::default());
        assert_eq!(ours.kvs_port, theirs.kvs_port);
        for sys in [&mut ours.system, &mut theirs.system] {
            sys.power_on();
            sys.run_until(SimTime::from_nanos(5_000_000));
        }
        let digest = |s: &System| s.checkpoint("t").expect("checkpoints").digest();
        assert_eq!(digest(&ours.system), digest(&theirs.system));
    }
}
