//! The machine: devices + bus + memory + network under one event loop.
//!
//! This is the paper's Figure 1 as data: a table of device slots, a table of
//! switch-port owners, and one event queue. **Ids are indices**:
//! `SystemBus::attach` and `Switch::add_port` are the only allocators, they
//! hand out `1, 2, …` and never take one back, and a slot or owner is pushed
//! in the same breath — so the slot of device `id` is `slots[id − 1]` and the
//! owner of port `p` is `port_owners[p − 1]`. Ids arrive in messages that
//! devices wrote, so every lookup is a checked `get` (`System::slot_of`,
//! `System::port_owner`); an unknown id bounces or drops, it never indexes.
//!
//! This file holds the data definitions, assembly (`add_*`) and the
//! accessors. Behaviour lives in one module per clause of the paper, so a new
//! service is a `Device` impl and no edit here:
//!
//! | module | holds | paper clause / experiment |
//! |---|---|---|
//! | `engine` | `Event`, power-on, the run loop, `handle` | §2.2 system initialization (power-on, self-test) |
//! | `slots` | ingress FIFO, `dispatch`, `apply_action` | §2.3 one device serves one thing at a time; doorbells |
//! | `net` | hosts, `route_frame`, fabric tunnel ports | Figure 1's NIC-on-a-switch; E10 rack embedding |
//! | `effects` | `apply_bus_effects`, IOMMU map/unmap | §2.2 address translation (the bus's privileged writes) |
//! | `faults` | kill/crash/hang, wire faults, liveness, reset | §4 error handling; E4 |
//! | `rpc` | reply-timeout sweep and retransmission | §4 error handling (lost messages); E4 |
//! | `audit` | DMA and privileged-op verdicts → `sec.*` | E11 |
//! | `checkpoint` | sections, fingerprint, replay-restore | E14 |

use std::any::Any;
use std::sync::Arc;

use lastcpu_bus::{BusEffect, DeviceId, Dst, RpcTracker, SystemBus};
use lastcpu_devices::device::{Action, Device};
use lastcpu_iommu::{Iommu, IommuFault};
use lastcpu_mem::Dram;
use lastcpu_net::{PortId, Switch};
use lastcpu_sim::{
    BufPool, CorrId, CounterHandle, DetRng, EventQueue, FaultEvent, GaugeHandle, HistogramHandle,
    MetricsHub, SimDuration, SimTime, TraceSink,
};

use crate::config::SystemConfig;
use crate::host::{HostAction, NetHost};
use crate::memctl_dev::MemCtlDevice;

mod audit;
mod checkpoint;
mod effects;
mod engine;
mod faults;
mod net;
mod rpc;
mod slots;

use engine::Event;
pub use net::TunnelDelivery;
use slots::Work;

/// Handle to a device in the system (bus address + slot index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceHandle {
    /// The device's bus address.
    pub id: DeviceId,
    idx: usize,
}

/// Bound on retained audit detail records (denials / privileged-op
/// verdicts) per audit when [`SystemConfig::security_audit`] is on. The
/// exact verdict *counters* are unbounded; only detail records are capped,
/// so an attacker cannot turn the audit into a memory-exhaustion vector.
const SEC_AUDIT_CAP: usize = 4096;

/// Pre-registered per-device metric handles (`{subsystem}.{name}.*` keys), so
/// hot-path updates are a `Cell` add with no map lookup.
struct SlotMetrics {
    msgs: CounterHandle,
    frames_rx: CounterHandle,
    inbox_depth: GaugeHandle,
    handler_ns: HistogramHandle,
    iommu_faults: CounterHandle,
    /// RPC retransmissions issued on behalf of this device.
    retries: CounterHandle,
    /// Down-to-re-registered latency of this device's recoveries.
    recovery_latency: HistogramHandle,
    /// DMA translations denied for this device (E11 security audit).
    sec_dma_denied: CounterHandle,
}

/// Maps a device kind string to the metric-key subsystem prefix.
fn subsystem_of(kind: &str) -> &'static str {
    match kind {
        "smart-nic" | "dumb-nic" => "nic",
        "smart-ssd" => "ssd",
        "fpga-accelerator" => "accel",
        "memory-controller" => "memctl",
        "cpu" => "cpu",
        _ => "device",
    }
}

fn slot_metrics(hub: &MetricsHub, kind: &str, name: &str) -> SlotMetrics {
    let sub = subsystem_of(kind);
    SlotMetrics {
        msgs: hub.counter_handle(&format!("{sub}.{name}.msgs")),
        frames_rx: hub.counter_handle(&format!("{sub}.{name}.frames_rx")),
        inbox_depth: hub.gauge_handle(&format!("{sub}.{name}.inbox_depth")),
        handler_ns: hub.histogram_handle(&format!("{sub}.{name}.handler_ns")),
        iommu_faults: hub.counter_handle(&format!("iommu.{name}.faults")),
        retries: hub.counter_handle(&format!("bus.{name}.retries")),
        recovery_latency: hub.histogram_handle(&format!("bus.{name}.recovery_latency")),
        sec_dma_denied: hub.counter_handle(&format!("sec.{name}.dma_denied")),
    }
}

/// Pre-registered system-wide metric handles.
struct SysMetrics {
    bus_messages: CounterHandle,
    pages_mapped: CounterHandle,
    pages_unmapped: CounterHandle,
    map_failures: CounterHandle,
    iommu_faults: CounterHandle,
    doorbells: CounterHandle,
    doorbells_coalesced: CounterHandle,
    device_resets: CounterHandle,
    link_control_msgs: CounterHandle,
    faults_injected: CounterHandle,
    msgs_dropped: CounterHandle,
    msgs_corrupted: CounterHandle,
    msgs_delayed: CounterHandle,
    rpc_retries: CounterHandle,
    rpc_give_ups: CounterHandle,
    /// E11 security audit: DMA translation verdicts.
    sec_dma_allowed: CounterHandle,
    sec_dma_denied: CounterHandle,
    /// E11 security audit: privileged bus-operation verdicts.
    sec_privops_allowed: CounterHandle,
    sec_privops_denied: CounterHandle,
    /// E11 security audit: control messages shed by the flood limiter.
    sec_flood_dropped: CounterHandle,
}

impl SysMetrics {
    fn register(hub: &MetricsHub) -> Self {
        SysMetrics {
            bus_messages: hub.counter_handle("bus.messages"),
            pages_mapped: hub.counter_handle("bus.pages_mapped"),
            pages_unmapped: hub.counter_handle("bus.pages_unmapped"),
            map_failures: hub.counter_handle("bus.map_failures"),
            iommu_faults: hub.counter_handle("iommu.faults"),
            doorbells: hub.counter_handle("system.doorbells"),
            doorbells_coalesced: hub.counter_handle("system.doorbells_coalesced"),
            device_resets: hub.counter_handle("system.device_resets"),
            link_control_msgs: hub.counter_handle("link.control_msgs"),
            faults_injected: hub.counter_handle("fault.injected"),
            msgs_dropped: hub.counter_handle("fault.msgs_dropped"),
            msgs_corrupted: hub.counter_handle("fault.msgs_corrupted"),
            msgs_delayed: hub.counter_handle("fault.msgs_delayed"),
            rpc_retries: hub.counter_handle("bus.rpc_retries"),
            rpc_give_ups: hub.counter_handle("bus.rpc_give_ups"),
            sec_dma_allowed: hub.counter_handle("sec.dma_allowed"),
            sec_dma_denied: hub.counter_handle("sec.dma_denied"),
            sec_privops_allowed: hub.counter_handle("sec.privops_allowed"),
            sec_privops_denied: hub.counter_handle("sec.privops_denied"),
            sec_flood_dropped: hub.counter_handle("sec.flood_dropped"),
        }
    }
}

struct Slot {
    id: DeviceId,
    /// `device.name()`, `id.to_string()` (`"dev:N"`) and the `Debug` text of
    /// `Dst::Device(id)` (`"Device(dev:N)"`) as shared handles, created once
    /// here so trace records naming this device never copy the text.
    name: Arc<str>,
    id_name: Arc<str>,
    dst_name: Arc<str>,
    device: Box<dyn Device>,
    iommu: Iommu,
    rng: DetRng,
    next_req: u64,
    port: Option<PortId>,
    busy_until: SimTime,
    halted: bool,
    /// A halted device that must not be revived by a bus reset.
    permanently_dead: bool,
    /// Ingress FIFO: work arriving while the firmware is busy queues here
    /// in arrival order. Without this, events rescheduled at `busy_until`
    /// would race to the back of the global event queue and a continuously
    /// loaded device could starve one peer's messages indefinitely.
    inbox: std::collections::VecDeque<Work>,
    /// Whether an `InboxPop` event is pending for this slot.
    pop_armed: bool,
    /// Per-device metric handles.
    met: SlotMetrics,
    /// Armed fault-injection state (all zero/idle on a fault-free run).
    faults: SlotFaults,
    /// Reusable action buffer, lent to each `DeviceCtx` and reclaimed after
    /// its effects apply, so steady-state dispatch allocates nothing.
    scratch_actions: Vec<Action>,
    /// Reusable fault buffer (same lifecycle as `scratch_actions`).
    scratch_faults: Vec<IommuFault>,
}

/// Per-slot fault-injection state, armed by [`Event::Fault`] and consumed
/// as messages touch the slot.
struct SlotFaults {
    /// Wire messages to silently discard.
    drop_rem: u32,
    /// Wire messages to bit-flip.
    corrupt_rem: u32,
    /// Deterministic stream for corruption bit choice (armed with the
    /// fault; falls back to a fixed stream if a corrupt fires unarmed).
    corrupt_rng: Option<DetRng>,
    /// Wire messages to delay.
    delay_rem: u32,
    /// Extra latency per delayed message.
    delay_extra: SimDuration,
    /// Service-time multiplier while `now < slow_until`.
    slow_factor: u32,
    /// End of the slow-down window.
    slow_until: SimTime,
    /// When the device went down (recovery-latency base); cleared when its
    /// re-registration `Hello` brings it back to `Alive`.
    down_since: Option<SimTime>,
}

impl Default for SlotFaults {
    fn default() -> Self {
        SlotFaults {
            drop_rem: 0,
            corrupt_rem: 0,
            corrupt_rng: None,
            delay_rem: 0,
            delay_extra: SimDuration::ZERO,
            slow_factor: 1,
            slow_until: SimTime::ZERO,
            down_since: None,
        }
    }
}

/// The RPC retry machinery (present when [`SystemConfig::rpc_retry`] is
/// set): the tracker itself, a dedicated jitter stream, and a dedupe guard
/// for the sweep event.
struct RpcState {
    tracker: RpcTracker,
    rng: DetRng,
    /// Time of the currently scheduled [`Event::RetryCheck`], if any.
    sweep_at: Option<SimTime>,
}

struct HostSlot {
    /// `host.name()` as a shared handle (see `Slot::name`).
    name: Arc<str>,
    host: Box<dyn NetHost>,
    port: PortId,
    rng: DetRng,
    /// Reusable action buffer (see `Slot::scratch_actions`).
    scratch_actions: Vec<HostAction>,
}

/// What a switch port is wired to.
#[derive(Clone, Copy)]
enum PortOwner {
    /// The device in `slots[i]`.
    Slot(usize),
    /// The host in `hosts[i]`.
    Host(usize),
    /// An embedding rack fabric (see [`System::add_tunnel_port`]).
    Tunnel,
}

/// The trace sources that are not a device or host, and the two bus
/// destinations that are not a device, as shared handles.
struct TraceSources {
    bus: Arc<str>,
    net: Arc<str>,
    fault: Arc<str>,
    dst_bus: Arc<str>,
    dst_broadcast: Arc<str>,
}

/// Shared-interconnect state for the conflated-planes configuration (E6).
struct SharedLink {
    busy_until: SimTime,
    per_byte_ps: u64,
}

impl SharedLink {
    /// Serializes `bytes` through the link starting no earlier than `at`;
    /// returns the added queueing + occupancy delay.
    fn occupy(&mut self, at: SimTime, bytes: u64) -> SimDuration {
        let start = self.busy_until.max(at);
        let occupancy = SimDuration::from_nanos(bytes.saturating_mul(self.per_byte_ps) / 1000);
        self.busy_until = start + occupancy;
        self.busy_until.since(at)
    }
}

/// The emulated CPU-less machine.
///
/// # Examples
///
/// Building the smallest possible machine and running its power-on
/// sequence:
///
/// ```
/// use lastcpu_core::{System, SystemConfig};
/// use lastcpu_sim::SimDuration;
///
/// let mut sys = System::new(SystemConfig::default());
/// let _memctl = sys.add_memctl("memctl0");
/// sys.power_on();
/// sys.run_for(SimDuration::from_millis(1));
/// assert!(sys.bus().alive().count() == 1);
/// ```
pub struct System {
    config: SystemConfig,
    queue: EventQueue<Event>,
    bus: SystemBus,
    dram: Dram,
    /// One slot per bus registry entry, pushed right after `bus.attach`
    /// hands out the id: the slot of `id` sits at `id.0 - 1`.
    slots: Vec<Slot>,
    hosts: Vec<HostSlot>,
    switch: Switch,
    /// One owner per switch port, pushed right after `switch.add_port`
    /// hands out the id: the owner of port `p` sits at `p.0 - 1`.
    port_owners: Vec<PortOwner>,
    trace: TraceSink,
    sources: TraceSources,
    stats: MetricsHub,
    met: SysMetrics,
    root_rng: DetRng,
    /// Next correlation id to hand out (`0` is reserved for `CorrId::NONE`).
    next_corr: u64,
    shared_link: Option<SharedLink>,
    memctl_id: Option<DeviceId>,
    /// The fault plan's injections, sorted, indexed by [`Event::Fault`].
    fault_events: Vec<FaultEvent>,
    /// RPC timeout/retry machinery (when configured).
    rpc: Option<RpcState>,
    /// Effect buffer lent to `bus.handle` for each bus message and drained
    /// by `apply_bus_effects`, so a message does not grow a fresh `Vec`.
    bus_fx: Vec<BusEffect>,
    /// Frames delivered to tunnel ports, awaiting
    /// [`System::drain_tunnel_into`].
    tunnel_out: Vec<TunnelDelivery>,
    /// Payload-buffer pool for the zero-alloc delivery path. Devices and
    /// hosts encode into buffers drawn from here (via
    /// `DeviceCtx::take_buf` / `HostCtx::take_buf`); the storage recycles
    /// when the consuming endpoint drops the frame.
    pool: BufPool,
}

impl System {
    /// Creates an empty machine.
    pub fn new(config: SystemConfig) -> Self {
        let mut bus = SystemBus::new().with_cost_model(config.bus_cost);
        bus.set_security_policy(config.security_policy);
        if config.security_audit {
            bus.enable_audit(SEC_AUDIT_CAP);
        }
        let switch = Switch::new().with_cost_model(config.net_cost);
        let trace = if config.trace {
            TraceSink::default()
        } else {
            TraceSink::disabled()
        };
        let shared_link = config.conflate_planes.then_some(SharedLink {
            busy_until: SimTime::ZERO,
            per_byte_ps: 400,
        });
        let stats = MetricsHub::new();
        let met = SysMetrics::register(&stats);
        let root_rng = DetRng::new(config.seed);
        let fault_events = config
            .fault_plan
            .as_ref()
            .map(|p| p.events())
            .unwrap_or_default();
        let rpc = config.rpc_retry.map(|rc| RpcState {
            tracker: RpcTracker::new(rc),
            // `split` derives without advancing `root_rng`, so enabling
            // retries does not perturb the rest of a seeded run.
            rng: root_rng.split(0x5E7_127),
            sweep_at: None,
        });
        System {
            queue: EventQueue::new(),
            bus,
            dram: Dram::new(config.dram_bytes),
            slots: Vec::new(),
            hosts: Vec::new(),
            switch,
            port_owners: Vec::new(),
            trace,
            sources: TraceSources {
                bus: "bus".into(),
                net: "net".into(),
                fault: "fault".into(),
                dst_bus: "Bus".into(),
                dst_broadcast: "Broadcast".into(),
            },
            stats,
            met,
            root_rng,
            next_corr: 1,
            shared_link,
            memctl_id: None,
            fault_events,
            rpc,
            bus_fx: Vec::new(),
            tunnel_out: Vec::new(),
            pool: BufPool::new(),
            config,
        }
    }

    /// Adds a device without a network port.
    pub fn add_device(&mut self, device: Box<dyn Device>) -> DeviceHandle {
        self.add_device_inner(device, false)
    }

    /// Adds a device with a switch port (smart NICs).
    pub fn add_net_device(&mut self, device: Box<dyn Device>) -> DeviceHandle {
        self.add_device_inner(device, true)
    }

    /// Adds a device whose constructor needs to know its own bus address
    /// and the machine's DRAM size (e.g. the baseline CPU, which embeds the
    /// memory manager).
    pub fn add_device_with(
        &mut self,
        name: &str,
        kind: &str,
        build: impl FnOnce(DeviceId, u64) -> Box<dyn Device>,
    ) -> DeviceHandle {
        let id = self.bus.attach(name, kind);
        let device = build(id, self.dram.size());
        let met = slot_metrics(&self.stats, kind, name);
        self.push_slot(id, device, None, met)
    }

    /// Appends the slot for a device already attached to the bus as `id`.
    fn push_slot(
        &mut self,
        id: DeviceId,
        device: Box<dyn Device>,
        port: Option<PortId>,
        met: SlotMetrics,
    ) -> DeviceHandle {
        let idx = self.slots.len();
        assert_eq!(id.0 as usize, idx + 1, "a slot is pushed per bus.attach");
        self.slots.push(Slot {
            id,
            name: device.name().into(),
            id_name: id.to_string().into(),
            dst_name: format!("{:?}", Dst::Device(id)).into(),
            device,
            iommu: self.new_iommu(),
            rng: self.root_rng.split(id.0 as u64),
            next_req: 0,
            port,
            busy_until: SimTime::ZERO,
            halted: false,
            permanently_dead: false,
            inbox: std::collections::VecDeque::new(),
            pop_armed: false,
            met,
            faults: SlotFaults::default(),
            scratch_actions: Vec::new(),
            scratch_faults: Vec::new(),
        });
        DeviceHandle { id, idx }
    }

    /// Builds a per-device IOMMU honouring the machine's IOTLB size and,
    /// when [`SystemConfig::security_audit`] is set, the DMA audit.
    fn new_iommu(&self) -> Iommu {
        let mut mmu = Iommu::new(self.config.iotlb_entries);
        if self.config.security_audit {
            mmu.enable_audit(SEC_AUDIT_CAP);
        }
        mmu
    }

    fn add_device_inner(&mut self, device: Box<dyn Device>, with_port: bool) -> DeviceHandle {
        let id = self.bus.attach(device.name(), device.kind());
        let met = slot_metrics(&self.stats, device.kind(), device.name());
        let port = with_port.then(|| self.add_port(PortOwner::Slot(self.slots.len())));
        self.push_slot(id, device, port, met)
    }

    /// Adds the memory-controller device sized to this machine's DRAM.
    pub fn add_memctl(&mut self, name: &str) -> DeviceHandle {
        self.add_memctl_with_config(name, lastcpu_memctl::MemCtlConfig::default())
    }

    /// Adds the memory controller with an explicit policy configuration
    /// (per-device quotas).
    pub fn add_memctl_with_config(
        &mut self,
        name: &str,
        config: lastcpu_memctl::MemCtlConfig,
    ) -> DeviceHandle {
        let id = self.bus.attach(name, "memory-controller");
        let met = slot_metrics(&self.stats, "memory-controller", name);
        let dev = MemCtlDevice::with_config(name, id, self.dram.size(), config);
        self.memctl_id = Some(id);
        self.push_slot(id, Box::new(dev), None, met)
    }

    /// The memory controller's bus address, if one was added.
    pub fn memctl_id(&self) -> Option<DeviceId> {
        self.memctl_id
    }

    /// The slot of bus address `id`. Ids arrive in messages from devices
    /// that may be hostile: [`DeviceId::BUS`] and ids the bus never handed
    /// out have no slot.
    fn slot_of(&self, id: DeviceId) -> Option<usize> {
        let idx = (id.0 as usize).checked_sub(1)?;
        (idx < self.slots.len()).then_some(idx)
    }

    /// `id.to_string()` as a handle: the slot's, or formatted for an id the
    /// bus never handed out.
    fn id_name(&self, id: DeviceId) -> Arc<str> {
        match self.slot_of(id) {
            Some(i) => self.slots[i].id_name.clone(),
            None => id.to_string().into(),
        }
    }

    /// The `Debug` text of `dst` as a handle (what `bus_send` and
    /// `discovery` trace records carry): shared for `Bus`, `Broadcast` and
    /// every slot, formatted for a device id the bus never handed out.
    fn dst_name(&self, dst: Dst) -> Arc<str> {
        match dst {
            Dst::Bus => self.sources.dst_bus.clone(),
            Dst::Broadcast => self.sources.dst_broadcast.clone(),
            Dst::Device(id) => match self.slot_of(id) {
                Some(i) => self.slots[i].dst_name.clone(),
                None => format!("{dst:?}").into(),
            },
        }
    }

    /// The network port of a device, if it has one.
    pub fn device_port(&self, h: DeviceHandle) -> Option<PortId> {
        self.slots[h.idx].port
    }

    /// The network port of a device looked up by bus address (the rack
    /// fabric's directory resolves bus registry entries to ports this way).
    pub fn port_of(&self, id: DeviceId) -> Option<PortId> {
        self.slots[self.slot_of(id)?].port
    }

    /// The machine's payload-buffer pool (for diagnostics and the `--profile`
    /// straggler report).
    pub fn pool(&self) -> &BufPool {
        &self.pool
    }

    /// Rebases the correlation-id allocator to start at `base` (at least
    /// 1). The fabric gives every machine a disjoint namespace — machine
    /// `m` allocates from `(m+1) << 40` — so a correlation id is unique
    /// rack-wide and a Chrome trace merged across machines never aliases
    /// two activities.
    pub fn set_corr_base(&mut self, base: u64) {
        self.next_corr = base.max(1);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The system bus (registry, stats).
    pub fn bus(&self) -> &SystemBus {
        &self.bus
    }

    /// The system-wide metrics hub.
    pub fn stats(&self) -> &MetricsHub {
        &self.stats
    }

    /// The protocol trace.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Raises (or lowers) the trace sink's retention bound. Offline
    /// analyses that walk a whole run — e.g. [`lastcpu_sim::critpath`]
    /// over an E12 rack phase — call this before `power_on` so the default
    /// ring does not evict the records they join on.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace.set_capacity(capacity);
    }

    /// A device's IOMMU (inspection in tests and experiments).
    pub fn iommu(&self, h: DeviceHandle) -> &Iommu {
        &self.slots[h.idx].iommu
    }

    /// Typed access to a device.
    pub fn device_as<T: Device>(&self, h: DeviceHandle) -> Option<&T> {
        let dev: &dyn Any = self.slots[h.idx].device.as_ref();
        dev.downcast_ref::<T>()
    }

    /// Typed mutable access to a device.
    pub fn device_as_mut<T: Device>(&mut self, h: DeviceHandle) -> Option<&mut T> {
        let dev: &mut dyn Any = self.slots[h.idx].device.as_mut();
        dev.downcast_mut::<T>()
    }

    /// Allocates a correlation id for a spontaneously starting activity
    /// (device/host power-on, operator fault injection).
    fn fresh_corr(&mut self) -> CorrId {
        let c = CorrId(self.next_corr);
        self.next_corr += 1;
        c
    }
}

/// Fixtures shared by the unit tests of this module's children.
#[cfg(test)]
mod testutil {
    use super::System;
    use crate::config::SystemConfig;
    use lastcpu_devices::flash::{NandChip, NandConfig};
    use lastcpu_devices::fs::FlashFs;
    use lastcpu_devices::ftl::Ftl;

    pub(super) fn small_fs() -> FlashFs {
        FlashFs::format(Ftl::new(NandChip::new(NandConfig {
            blocks: 64,
            pages_per_block: 32,
            page_size: 4096,
            max_erase_cycles: u32::MAX,
            ..NandConfig::default()
        })))
    }

    pub(super) fn base_system() -> System {
        System::new(SystemConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{base_system, small_fs};
    use super::*;
    use crate::host::HostCtx;
    use lastcpu_bus::{Envelope, Payload, RequestId};
    use lastcpu_devices::auth::AuthDevice;
    use lastcpu_devices::console::{ConsoleDevice, ConsoleState};
    use lastcpu_devices::device::DeviceCtx;
    use lastcpu_devices::monitor::AuthMode;
    use lastcpu_devices::ssd::{SmartSsd, SsdConfig};
    use lastcpu_net::Frame;
    use lastcpu_sim::TraceData;

    #[test]
    fn devices_register_on_power_on() {
        let mut sys = base_system();
        sys.add_memctl("memctl0");
        sys.add_device(Box::new(AuthDevice::new("auth0", 0x5EC, &[])));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(1));
        assert_eq!(sys.bus().alive().count(), 2);
    }

    #[test]
    fn console_reads_log_end_to_end() {
        // The full §3/§4 machinery: auth login, discovery, Figure-2 session
        // setup, VIRTIO reads — with no CPU anywhere.
        let mut sys = base_system();
        let memctl = sys.add_memctl("memctl0");
        sys.add_device(Box::new(AuthDevice::new(
            "auth0",
            0xFEED,
            &[("operator", "hunter2")],
        )));
        let mut fs = small_fs();
        fs.create("/logs/app.log").unwrap();
        fs.write("/logs/app.log", 0, b"kv-store started\nrequests: 12345\n")
            .unwrap();
        let ssd = sys.add_device(Box::new(SmartSsd::new(
            "ssd0",
            fs,
            SsdConfig {
                exports: vec!["/logs/app.log".into()],
                file_auth: AuthMode::Sealed { secret: 0xFEED },
                ..SsdConfig::default()
            },
        )));
        let console = sys.add_device(Box::new(ConsoleDevice::new(
            "console0",
            memctl.id,
            "operator",
            "hunter2",
            "/logs/app.log",
        )));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(50));

        let c: &ConsoleDevice = sys.device_as(console).unwrap();
        assert_eq!(
            c.state(),
            ConsoleState::Done,
            "console stuck; trace tail: {:?}",
            {
                let v: Vec<_> = sys.trace().events().collect();
                v.into_iter().rev().take(15).collect::<Vec<_>>()
            }
        );
        assert_eq!(
            c.log().unwrap(),
            b"kv-store started\nrequests: 12345\n".as_slice()
        );
        // The data really moved through the SSD's IOMMU under a PASID.
        let ssd_tlb = sys.iommu(ssd).tlb_stats();
        assert!(
            ssd_tlb.hits + ssd_tlb.misses > 0,
            "SSD DMA went through its IOMMU"
        );
        assert!(sys.stats().counter("bus.pages_mapped") > 0);
    }

    #[test]
    fn wrong_password_is_denied() {
        let mut sys = base_system();
        let memctl = sys.add_memctl("memctl0");
        sys.add_device(Box::new(AuthDevice::new(
            "auth0",
            0xFEED,
            &[("operator", "hunter2")],
        )));
        let mut fs = small_fs();
        fs.create("/logs/app.log").unwrap();
        sys.add_device(Box::new(SmartSsd::new(
            "ssd0",
            fs,
            SsdConfig {
                exports: vec!["/logs/app.log".into()],
                file_auth: AuthMode::Sealed { secret: 0xFEED },
                ..SsdConfig::default()
            },
        )));
        let console = sys.add_device(Box::new(ConsoleDevice::new(
            "console0",
            memctl.id,
            "operator",
            "wrong-password",
            "/logs/app.log",
        )));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(50));
        let c: &ConsoleDevice = sys.device_as(console).unwrap();
        assert_eq!(c.state(), ConsoleState::Failed(lastcpu_bus::Status::Denied));
    }

    /// A device that, once registered, aims every kind of id-carrying
    /// action at ids and ports the machine never handed out.
    struct Hostile {
        port: Option<PortId>,
        bounces: Vec<DeviceId>,
    }

    const UNKNOWN_DEVICES: [DeviceId; 3] = [DeviceId(9_999), DeviceId::BUS, DeviceId(u32::MAX)];

    const UNKNOWN_PORTS: [PortId; 3] = [PortId(0), PortId(77), PortId(u32::MAX - 1)];

    impl Device for Hostile {
        fn name(&self) -> &str {
            "hostile0"
        }
        fn kind(&self) -> &str {
            "hostile"
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            ctx.send_bus(
                Dst::Bus,
                Payload::Hello {
                    name: "hostile0".into(),
                    kind: "hostile".into(),
                },
            );
        }
        fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) {
            match env.payload {
                Payload::HelloAck { .. } => {
                    self.port = ctx.port;
                    for (i, to) in UNKNOWN_DEVICES.into_iter().enumerate() {
                        ctx.send_bus_with_req(
                            Dst::Device(to),
                            RequestId(100 + i as u64),
                            Payload::Heartbeat,
                        );
                        ctx.doorbell(to, lastcpu_bus::ConnId(1), 1);
                    }
                    if let Some(src) = ctx.port {
                        for dst in UNKNOWN_PORTS {
                            ctx.net_tx(Frame::unicast(src, dst, b"x".to_vec()));
                        }
                    }
                }
                Payload::ErrorNotify {
                    code: lastcpu_bus::ErrorCode::DeviceFailed,
                    ..
                } => self.bounces.push(UNKNOWN_DEVICES[env.req.0 as usize - 100]),
                _ => {}
            }
        }
        fn on_timer(&mut self, _ctx: &mut DeviceCtx<'_>, _token: u64) {}
    }

    /// Ids are indices, and devices write them: every unknown one takes the
    /// path it always took — bounce, drop, or the switch's `dropped` counter.
    #[test]
    fn ids_never_handed_out_bounce_or_drop() {
        let mut sys = System::new(SystemConfig {
            trace: true,
            ..SystemConfig::default()
        });
        sys.add_memctl("memctl0");
        let h = sys.add_net_device(Box::new(Hostile {
            port: None,
            bounces: Vec::new(),
        }));
        struct Bystander;
        impl NetHost for Bystander {
            fn name(&self) -> &str {
                "bystander"
            }
            fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}
            fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, _frame: Frame) {
                panic!("no frame was addressed to the host");
            }
        }
        let host_port = sys.add_host(Box::new(Bystander));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(1));
        let dev: &Hostile = sys.device_as(h).unwrap();
        assert!(dev.port.is_some());
        assert_eq!(dev.bounces, UNKNOWN_DEVICES);
        assert_eq!(
            sys.stats().counter("system.doorbells"),
            UNKNOWN_DEVICES.len() as u64
        );
        assert_eq!(sys.switch.stats().dropped, UNKNOWN_PORTS.len() as u64);
        assert_eq!(sys.switch.stats().forwarded, 0);
        for id in UNKNOWN_DEVICES {
            assert_eq!(sys.port_of(id), None);
        }
        assert!(sys.host_as::<Bystander>(host_port).is_some());
        for port in UNKNOWN_PORTS.into_iter().chain(dev.port) {
            assert!(sys.host_as::<Bystander>(port).is_none());
        }
        assert_eq!(sys.bus().alive().count(), 2, "nobody was taken down");
        // A destination with no slot has no handle to share; its trace
        // field is formatted, and reads as every other `Dst` does.
        let sent_to: Vec<String> = sys
            .trace()
            .events()
            .filter_map(|e| match &e.data {
                TraceData::BusSend {
                    what: "Heartbeat",
                    dst,
                } => Some(dst.to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(
            sent_to,
            [
                "Device(dev:9999)",
                "Device(dev:BUS)",
                "Device(dev:4294967295)"
            ]
        );
        let hello_to = sys.trace().events().find_map(|e| match &e.data {
            TraceData::BusSend { what: "Hello", dst } => Some(dst.to_string()),
            _ => None,
        });
        assert_eq!(hello_to.as_deref(), Some("Bus"));
    }
}
