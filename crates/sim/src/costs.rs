//! The cost table: every timing constant of the emulator, declared once.
//!
//! Every number an experiment reports is a function of these rows. Each row
//! gives a dotted name, a value with its unit, a source and what it prices,
//! and `costs!` turns it into a typed `pub const` (a [`SimDuration`] for
//! `ns`/`µs`/`ms`, a `u64` for a `ps/B` rate) plus one entry of [`ROWS`].
//! A source is a paper or datasheet cited in PAPERS.md or DESIGN.md, or
//! `"chosen"` when the value is this emulator's own choice. The paper is a
//! position paper with no quantitative evaluation, so today every row is
//! chosen; the relations between rows (a TLB hit ≪ a DRAM access ≪ a NAND
//! read ≪ a heartbeat period) are the modelling decision.
//!
//! A cost that a caller sets stays a config field or setter whose default is
//! its row (`NandConfig`, `FabricConfig::sync_interval`,
//! `Monitor::set_discovery_window`, ...). Two sites that encode one
//! decision read one row; two that only happen to share a value have a row
//! each. Nothing builds a cost with a non-default value yet: sweeping the
//! rows is ROADMAP item 6. DESIGN.md §5 renders [`ROWS`], and a test below
//! holds it to the declaration byte for byte.

use crate::SimDuration;

/// One declared cost, as [`ROWS`] lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostRow {
    /// Dotted name, `subsystem.cost`.
    pub name: &'static str,
    /// The value, in `unit`.
    pub value: u64,
    /// `ns`, `µs`, `ms` or `ps/B`.
    pub unit: &'static str,
    /// A paper or datasheet, or `"chosen"`.
    pub source: &'static str,
    /// What the cost prices.
    pub what: &'static str,
}

/// Declares the cost table: per row, its doc line(s), the constant, the
/// dotted name, the value and unit (`ns`, `us`, `ms` or `ps/B`) and the
/// source. Expands to one `pub const` per row and [`ROWS`].
macro_rules! costs {
    ($($(#[doc = $what:literal])+
       $c:ident = $name:literal: $v:literal $u:ident $(/ $per:ident)?, $src:literal;)*) => {
        $(
            $(#[doc = $what])+
            #[doc = concat!("\n\nRow `", $name, "`: ", $v, " ", costs!(@unit $u $($per)?),
                            ", source: ", $src, ".")]
            pub const $c: costs!(@ty $u $($per)?) = costs!(@val $v $u $($per)?);
        )*

        /// Every row, in declaration order.
        pub const ROWS: &[CostRow] = &[$(CostRow {
            name: $name,
            value: $v,
            unit: costs!(@unit $u $($per)?),
            source: $src,
            what: concat!($($what),+),
        }),*];
    };
    (@ty ps B) => { u64 };
    (@ty $u:ident) => { SimDuration };
    (@val $v:literal ns) => { SimDuration::from_nanos($v) };
    (@val $v:literal us) => { SimDuration::from_micros($v) };
    (@val $v:literal ms) => { SimDuration::from_millis($v) };
    (@val $v:literal ps B) => { $v };
    (@unit ns) => { "ns" };
    (@unit us) => { "µs" };
    (@unit ms) => { "ms" };
    (@unit ps B) => { "ps/B" };
}

costs! {
    /// Delay before the first retry of the shared backoff policy; it doubles
    /// per retry up to the cap.
    BACKOFF_BASE = "backoff.base": 10 us, "chosen";
    /// Upper bound on any one delay of the shared backoff policy.
    BACKOFF_CAP = "backoff.cap": 1 ms, "chosen";

    /// Propagation per control-plane hop: sender to bus, or bus to receiver.
    BUS_HOP_LATENCY = "bus.hop_latency": 200 ns, "chosen";
    /// Bus processing per message, and per further broadcast recipient.
    BUS_PROCESSING = "bus.processing": 300 ns, "chosen";
    /// Control-link serialization (2.5 GB/s).
    BUS_PER_BYTE = "bus.per_byte": 400 ps/B, "chosen";
    /// Silence after which the bus declares a device failed.
    BUS_HEARTBEAT_TIMEOUT = "bus.heartbeat_timeout": 10 ms, "chosen";
    /// Window the bus counts a sender's control messages over when it limits
    /// floods.
    BUS_FLOOD_WINDOW = "bus.flood_window": 1 ms, "chosen";
    /// Wait for a bus RPC reply before the attempt counts as lost.
    RPC_TIMEOUT = "rpc.timeout": 200 us, "chosen";

    /// Machine network serialization (10 Gb/s).
    NET_PER_BYTE = "net.per_byte": 100 ps/B, "chosen";
    /// Store-and-forward latency of the machine's switch.
    NET_SWITCH_LATENCY = "net.switch_latency": 500 ns, "chosen";
    /// Propagation per machine network link.
    NET_PROPAGATION = "net.propagation": 1 us, "chosen";

    /// DRAM access setup: row activation and controller queue.
    DRAM_ACCESS_LATENCY = "dram.access_latency": 60 ns, "chosen";
    /// DRAM streaming transfer (20 GB/s).
    DRAM_PER_BYTE = "dram.per_byte": 50 ps/B, "chosen";

    /// IOTLB lookup, paid on every translation.
    IOMMU_TLB_LOOKUP = "iommu.tlb_lookup": 2 ns, "chosen";
    /// One page-table node read on a walk.
    IOMMU_WALK_PER_ACCESS = "iommu.walk_per_access": 30 ns, "chosen";
    /// One IOTLB invalidation command.
    IOMMU_INVALIDATE = "iommu.invalidate": 100 ns, "chosen";

    /// Period of every device's heartbeat to the bus.
    DEVICE_HEARTBEAT = "device.heartbeat": 2 ms, "chosen";
    /// How long a monitor's discovery waits for answers.
    MONITOR_DISCOVERY_WINDOW = "monitor.discovery_window": 50 us, "chosen";

    /// NAND page read.
    NAND_READ = "nand.read": 25 us, "chosen";
    /// NAND page program.
    NAND_PROGRAM = "nand.program": 200 us, "chosen";
    /// NAND block erase.
    NAND_ERASE = "nand.erase": 2 ms, "chosen";
    /// FTL delay before re-programming after a failed program.
    FTL_RETRY_BASE = "ftl.retry_base": 50 us, "chosen";
    /// Upper bound on any one FTL program-retry delay.
    FTL_RETRY_CAP = "ftl.retry_cap": 2 ms, "chosen";

    /// Smart SSD power-on self-test: the bad-block scan.
    SSD_SELF_TEST = "ssd.self_test": 50 us, "chosen";
    /// Smart SSD firmware per file request: command parse and dispatch.
    SSD_PER_REQUEST = "ssd.per_request": 1 us, "chosen";
    /// Smart SSD filesystem open or create.
    SSD_FS_OPEN = "ssd.fs_open": 2 us, "chosen";
    /// Smart SSD file flush.
    SSD_FLUSH = "ssd.flush": 10 us, "chosen";

    /// Smart NIC power-on self-test: PHY bring-up.
    NIC_SELF_TEST = "nic.self_test": 20 us, "chosen";
    /// Smart NIC firmware per received frame: parse and dispatch.
    NIC_PER_FRAME = "nic.per_frame": 300 ns, "chosen";
    /// Smart NIC application install: image flash and restart.
    NIC_INSTALL = "nic.install": 1 ms, "chosen";

    /// Console power-on self-test.
    CONSOLE_SELF_TEST = "console.self_test": 5 us, "chosen";
    /// Auth device power-on self-test.
    AUTH_SELF_TEST = "auth.self_test": 2 us, "chosen";
    /// Auth device login: table lookup and seal.
    AUTH_LOGIN = "auth.login": 1 us, "chosen";
    /// Accelerator power-on self-test: the fabric configuration scan.
    ACCEL_SELF_TEST = "accel.self_test": 5 ms, "chosen";
    /// Accelerator job time per unit of work on one region.
    ACCEL_UNIT_TIME = "accel.unit_time": 10 us, "chosen";
    /// Accelerator partial reconfiguration, per region granted.
    ACCEL_RECONFIG_PER_REGION = "accel.reconfig_per_region": 2 ms, "chosen";

    /// A doorbell: an MSI-like data-plane memory write.
    SYSTEM_DOORBELL_LATENCY = "system.doorbell_latency": 250 ns, "chosen";
    /// A device's return after a bus-initiated reset.
    SYSTEM_RESET_LATENCY = "system.reset_latency": 100 us, "chosen";
    /// Spread of power-on: devices start within it, hosts within the same
    /// span after it.
    ENGINE_START_JITTER = "engine.start_jitter": 5 us, "chosen";
    /// Memory-controller device power-on: DRAM training and ECC scrub.
    MEMCTL_SELF_TEST = "memctl.self_test": 10 us, "chosen";
    /// Memory-controller device per request.
    MEMCTL_REQUEST = "memctl.request": 400 ns, "chosen";

    /// Kernel interrupt entry and exit: mode switch, state save, EOI.
    CPU_INTERRUPT_ENTRY = "cpu.interrupt_entry": 1500 ns, "chosen";
    /// One system call's kernel work: lookup and bookkeeping.
    CPU_SYSCALL = "cpu.syscall": 2000 ns, "chosen";
    /// Kernel context switch to the serving task.
    CPU_CONTEXT_SWITCH = "cpu.context_switch": 3000 ns, "chosen";
    /// Kernel copy of a payload (4 GB/s memcpy).
    CPU_PER_BYTE_COPY = "cpu.per_byte_copy": 250 ps/B, "chosen";
    /// Kernel boot and reboot, the one long boot in the system.
    CPU_BOOT = "cpu.boot": 500 us, "chosen";
    /// Baseline NIC power-on.
    DUMB_NIC_SELF_TEST = "dumb_nic.self_test": 20 us, "chosen";
    /// Baseline NIC per frame either way: DMA into or out of the kernel ring
    /// and the interrupt.
    DUMB_NIC_PER_FRAME = "dumb_nic.per_frame": 300 ns, "chosen";

    /// KVS client deadline after a send: an unanswered request then counts
    /// as lost, a preload PUT is sent again and a measured op counts as done
    /// with no latency sample. The shard router gives a request up at the
    /// same age.
    KVS_CLIENT_TIMEOUT = "kvs.client_timeout": 100 ms, "chosen";
    /// KVS client wait before it probes a server that is not up again, and
    /// before it refills after a `Busy` or `Unavailable` answer.
    KVS_CLIENT_PROBE = "kvs.client_probe": 2 ms, "chosen";
    /// KVS server per request on the serving device: hash and parse.
    KVS_SERVER_PER_REQUEST = "kvs.server_per_request": 500 ns, "chosen";
    /// Shard router tick: directory re-query and pending-request sweep.
    ROUTER_TICK = "router.tick": 1 ms, "chosen";
    /// Router re-dispatch deferral after a Busy or Unavailable ack, scaled
    /// by the reported queue depth.
    ROUTER_BUSY_BACKOFF = "router.busy_backoff": 2 ms, "chosen";

    /// Rack link serialization (25 GbE).
    LINK_PER_BYTE = "link.per_byte": 40 ps/B, "chosen";
    /// Rack switch store-and-forward latency.
    LINK_SWITCH_LATENCY = "link.switch_latency": 600 ns, "chosen";
    /// Rack end-to-end propagation.
    LINK_PROPAGATION = "link.propagation": 2 us, "chosen";
    /// Period of the rack directory sweep.
    FABRIC_SYNC_INTERVAL = "fabric.sync_interval": 250 us, "chosen";
    /// In-band rack directory answer: the controller is one hop away.
    FABRIC_DIR_LATENCY = "fabric.dir_latency": 500 ns, "chosen";
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The DESIGN.md §5 table: one line per row.
    fn render() -> String {
        let mut out = String::from("| Row | Value | Source | Prices |\n|---|---|---|---|\n");
        for r in ROWS {
            out += &format!(
                "| `{}` | {} {} | {} | {} |\n",
                r.name,
                r.value,
                r.unit,
                r.source,
                r.what.trim()
            );
        }
        out
    }

    #[test]
    fn names_are_unique_and_dotted() {
        for (i, r) in ROWS.iter().enumerate() {
            let (sub, cost) = r.name.split_once('.').expect(r.name);
            let word =
                |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_lowercase() || b == b'_');
            assert!(word(sub) && word(cost), "{}", r.name);
            assert!(
                ROWS[..i].iter().all(|p| p.name != r.name),
                "{} twice",
                r.name
            );
        }
    }

    #[test]
    fn units_come_from_a_closed_set() {
        for r in ROWS {
            assert!(
                ["ns", "µs", "ms", "ps/B"].contains(&r.unit),
                "{}: {}",
                r.name,
                r.unit
            );
            assert!(
                !r.source.is_empty() && !r.what.trim().is_empty(),
                "{}",
                r.name
            );
        }
    }

    /// A source other than `"chosen"` is cited in PAPERS.md or DESIGN.md.
    #[test]
    fn sources_are_cited() {
        let cited = [
            include_str!("../../../PAPERS.md"),
            include_str!("../../../DESIGN.md"),
        ];
        for r in ROWS {
            assert!(
                r.source == "chosen" || cited.iter().any(|doc| doc.contains(r.source)),
                "{}: {} is cited nowhere",
                r.name,
                r.source
            );
        }
    }

    #[test]
    fn design_renders_the_table() {
        let design = include_str!("../../../DESIGN.md");
        let table = render();
        assert!(
            design.contains(&format!("\n\n{table}\n")),
            "DESIGN.md §5 must hold the cost table exactly as declared:\n\n{table}"
        );
    }
}
