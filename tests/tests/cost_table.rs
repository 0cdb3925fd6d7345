//! Each cost struct's `Default` reads the rows of the cost table
//! (`lastcpu_sim::costs`, DESIGN.md §5) by name: a default that read a
//! neighbouring row of the same value would pass the `config_pins` strings
//! but price the wrong thing once ROADMAP item 6 turns the rows.

use lastcpu_baseline::CpuCostModel;
use lastcpu_bus::{BusCostModel, RetryConfig, SecurityPolicy};
use lastcpu_core::devices::flash::NandConfig;
use lastcpu_core::SystemConfig;
use lastcpu_fabric::FabricConfig;
use lastcpu_iommu::IommuCostModel;
use lastcpu_mem::DramCostModel;
use lastcpu_net::NetCostModel;
use lastcpu_sim::costs::ROWS;
use lastcpu_sim::{BackoffPolicy, SimDuration};

/// The row `name` in nanoseconds, or in ps/B for a rate.
fn row(name: &str) -> u64 {
    let r = ROWS.iter().find(|r| r.name == name).expect(name);
    r.value
        * match r.unit {
            "ns" | "ps/B" => 1,
            "µs" => 1_000,
            "ms" => 1_000_000,
            unit => panic!("{name}: {unit}"),
        }
}

fn ns(d: SimDuration) -> u64 {
    d.as_nanos()
}

#[test]
fn each_cost_default_is_its_rows() {
    let bus = BusCostModel::default();
    let net = NetCostModel::default();
    let cpu = CpuCostModel::default();
    let mmu = IommuCostModel::default();
    let dram = DramCostModel::default();
    let nand = NandConfig::default();
    let sys = SystemConfig::default();
    let fab = FabricConfig::default();
    let backoff = BackoffPolicy::default();
    let (open, hardened) = (SecurityPolicy::default(), SecurityPolicy::hardened(1));
    let got = [
        (ns(bus.hop_latency), "bus.hop_latency"),
        (ns(bus.processing), "bus.processing"),
        (bus.per_byte_ps, "bus.per_byte"),
        (net.per_byte_ps, "net.per_byte"),
        (ns(net.switch_latency), "net.switch_latency"),
        (ns(net.propagation), "net.propagation"),
        (ns(cpu.interrupt_entry), "cpu.interrupt_entry"),
        (ns(cpu.syscall), "cpu.syscall"),
        (ns(cpu.context_switch), "cpu.context_switch"),
        (cpu.per_byte_copy_ps, "cpu.per_byte_copy"),
        (ns(mmu.tlb_lookup), "iommu.tlb_lookup"),
        (ns(mmu.walk_per_access), "iommu.walk_per_access"),
        (ns(mmu.invalidate), "iommu.invalidate"),
        (ns(dram.access_latency), "dram.access_latency"),
        (dram.per_byte_ps, "dram.per_byte"),
        (ns(nand.read_latency), "nand.read"),
        (ns(nand.program_latency), "nand.program"),
        (ns(nand.erase_latency), "nand.erase"),
        (ns(sys.doorbell_latency), "system.doorbell_latency"),
        (ns(sys.reset_latency), "system.reset_latency"),
        (fab.link_cost.per_byte_ps, "link.per_byte"),
        (ns(fab.link_cost.switch_latency), "link.switch_latency"),
        (ns(fab.link_cost.propagation), "link.propagation"),
        (ns(fab.sync_interval), "fabric.sync_interval"),
        (ns(fab.dir_latency), "fabric.dir_latency"),
        (ns(backoff.base), "backoff.base"),
        (ns(backoff.cap), "backoff.cap"),
        (ns(RetryConfig::default().timeout), "rpc.timeout"),
        (ns(open.flood_window), "bus.flood_window"),
        (ns(hardened.flood_window), "bus.flood_window"),
    ];
    for (value, name) in got {
        assert_eq!(value, row(name), "{name}");
    }
}
