//! The machine: devices + bus + memory + network under one event loop.

use std::any::Any;
use std::sync::Arc;

use lastcpu_bus::bus::DeviceState;
use lastcpu_bus::{
    BusEffect, DeviceId, Dst, Envelope, Payload, RequestId, RetryStats, RetryVerdict, RpcTracker,
    SystemBus,
};
use lastcpu_devices::device::{Action, Device, DeviceCtx};
use lastcpu_iommu::{AccessKind, Iommu, IommuFault, IommuFaultKind};
use lastcpu_mem::{Dram, MapError, Pasid, Perms, PhysAddr, VirtAddr, PAGE_SIZE};
use lastcpu_net::{Frame, PortId, Switch};
use lastcpu_sim::{
    profile, BufPool, CorrId, CounterHandle, DetRng, EventQueue, FaultEvent, FaultKind,
    GaugeHandle, HistogramHandle, MetricsHub, SimDuration, SimTime, TraceData, TraceSink,
};

use crate::config::SystemConfig;
use crate::host::{HostAction, HostCtx, NetHost};
use crate::memctl_dev::MemCtlDevice;

/// Handle to a device in the system (bus address + slot index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceHandle {
    /// The device's bus address.
    pub id: DeviceId,
    idx: usize,
}

/// Internal events.
enum Event {
    /// Power-on self-test of one device.
    Start(usize),
    /// A message reaches the bus for processing.
    ///
    /// `Arc`-shared so routing, fault filtering, and delivery pass one
    /// allocation around instead of deep-cloning the payload per hop.
    BusMsg(Arc<Envelope>),
    /// A message is delivered to a device.
    Deliver { idx: usize, env: Arc<Envelope> },
    /// A device timer fires.
    Timer {
        idx: usize,
        token: u64,
        corr: CorrId,
    },
    /// The bus writes a device's IOMMU (privileged, §2.2).
    Map {
        idx: usize,
        pasid: u32,
        va: u64,
        pa: u64,
        pages: u64,
        perms: u8,
        corr: CorrId,
    },
    /// The bus removes mappings from a device's IOMMU.
    Unmap {
        idx: usize,
        pasid: u32,
        va: u64,
        pages: u64,
        corr: CorrId,
    },
    /// A reset pulse reaches a device.
    Reset { idx: usize, corr: CorrId },
    /// Drain the next item from a device's ingress FIFO.
    InboxPop(usize),
    /// A frame reaches a switch port.
    NetDeliver {
        port: PortId,
        frame: Frame,
        corr: CorrId,
    },
    /// Power-on of one host.
    HostStart(usize),
    /// A host timer fires.
    HostTimer {
        hidx: usize,
        token: u64,
        corr: CorrId,
    },
    /// Periodic heartbeat scan.
    Liveness,
    /// A scheduled fault-plan injection fires (index into the plan).
    Fault(usize),
    /// Sweep the RPC tracker for lapsed reply deadlines.
    RetryCheck,
}

/// Maps an event to the profiling scope its handling is attributed to.
/// Grouped by mechanism (the attribution table wants "where do the
/// allocations come from", not one row per enum variant).
fn scope_of(ev: &Event) -> &'static str {
    match ev {
        Event::Start(_) | Event::Reset { .. } => "engine.lifecycle",
        Event::BusMsg(_) => "engine.bus_msg",
        Event::Deliver { .. } => "engine.deliver",
        Event::Timer { .. } => "engine.timer",
        Event::Map { .. } | Event::Unmap { .. } => "engine.map",
        Event::InboxPop(_) => "engine.inbox_pop",
        Event::NetDeliver { .. } => "engine.net_deliver",
        Event::HostStart(_) | Event::HostTimer { .. } => "engine.host",
        Event::Liveness | Event::Fault(_) | Event::RetryCheck => "engine.maintenance",
    }
}

/// A unit of work waiting in a device's ingress FIFO.
enum Work {
    Msg(Arc<Envelope>),
    Timer(u64, CorrId),
    Net(Frame, CorrId),
}

/// A frame that reached one of the machine's *tunnel ports* — switch ports
/// owned by an embedding rack fabric rather than by a local device or host.
/// The fabric drains these after every step and carries them to another
/// machine (or to the rack directory), preserving the correlation id so a
/// causal trace spans machines end to end.
#[derive(Debug, Clone)]
pub struct TunnelDelivery {
    /// When the frame finished traversing this machine's edge switch.
    pub at: SimTime,
    /// The tunnel port it was delivered to.
    pub port: PortId,
    /// The frame (its `src` is the local sender's port).
    pub frame: Frame,
    /// Correlation id of the activity the frame belongs to.
    pub corr: CorrId,
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
    /// `device.name()` and `id.to_string()` as shared handles, created once
    /// here so trace records naming this device never copy the text.
    name: Arc<str>,
    id_name: Arc<str>,
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

/// The trace sources that are not a device or host, as shared handles.
struct TraceSources {
    bus: Arc<str>,
    net: Arc<str>,
    fault: Arc<str>,
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
            },
            stats,
            met,
            root_rng,
            next_corr: 1,
            shared_link,
            memctl_id: None,
            fault_events,
            rpc,
            tunnel_out: Vec::new(),
            pool: BufPool::new(),
            config,
        }
    }

    // --- Assembly -----------------------------------------------------

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

    /// Aggregate RPC retry counters, when retries are enabled.
    pub fn rpc_stats(&self) -> Option<RetryStats> {
        self.rpc.as_ref().map(|r| r.tracker.stats())
    }

    /// Adds an external host machine; returns its switch port.
    pub fn add_host(&mut self, host: Box<dyn NetHost>) -> PortId {
        let hidx = self.hosts.len();
        let port = self.add_port(PortOwner::Host(hidx));
        let rng = self.root_rng.split(0x8000_0000 | hidx as u64);
        self.hosts.push(HostSlot {
            name: host.name().into(),
            host,
            port,
            rng,
            scratch_actions: Vec::new(),
        });
        port
    }

    /// Adds a switch port wired to `owner`.
    fn add_port(&mut self, owner: PortOwner) -> PortId {
        self.port_owners.push(owner);
        self.switch.add_port()
    }

    /// The slot of bus address `id`. Ids arrive in messages from devices
    /// that may be hostile: [`DeviceId::BUS`] and ids the bus never handed
    /// out have no slot.
    fn slot_of(&self, id: DeviceId) -> Option<usize> {
        let idx = (id.0 as usize).checked_sub(1)?;
        (idx < self.slots.len()).then_some(idx)
    }

    /// What switch port `port` is wired to, if it is one of this machine's.
    fn port_owner(&self, port: PortId) -> Option<PortOwner> {
        self.port_owners
            .get((port.0 as usize).checked_sub(1)?)
            .copied()
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

    // --- Fabric embedding -------------------------------------------------
    //
    // A rack fabric (`lastcpu-fabric`) co-simulates many `System` machines
    // under one global clock. Each machine exposes *tunnel ports* — switch
    // ports owned by the fabric — plus fine-grained stepping so the fabric
    // can interleave machines deterministically.

    /// Adds a switch port owned by an embedding fabric. Frames delivered to
    /// it (after traversing this machine's edge switch like any other
    /// traffic) are exported via [`System::drain_tunnel_into`] instead of
    /// being handed to a device or host.
    pub fn add_tunnel_port(&mut self) -> PortId {
        self.add_port(PortOwner::Tunnel)
    }

    /// Moves the frames that reached tunnel ports since the last drain into
    /// `out` (appended). The fabric steps every machine once per scheduling
    /// round, so it lends one buffer instead of taking a fresh `Vec` each
    /// time.
    pub fn drain_tunnel_into(&mut self, out: &mut Vec<TunnelDelivery>) {
        out.append(&mut self.tunnel_out);
    }

    /// The machine's payload-buffer pool (for diagnostics and the `--profile`
    /// straggler report).
    pub fn pool(&self) -> &BufPool {
        &self.pool
    }

    /// Injects a frame arriving from outside the machine (an inter-machine
    /// link). The frame enters this machine's edge switch at `at` and pays
    /// the ordinary store-and-forward costs to reach `frame.dst`; `corr` is
    /// preserved so causal traces span machines.
    pub fn inject_frame(&mut self, at: SimTime, frame: Frame, corr: CorrId) {
        let at = at.max(self.now());
        if self.trace.is_enabled() {
            self.trace.emit_data(
                at,
                self.sources.net.clone(),
                corr,
                TraceData::Text(format!(
                    "frame enters from fabric link for port {} ({} B)",
                    frame.dst.0,
                    frame.payload.len()
                )),
            );
        }
        self.route_frame(at, frame, corr);
    }

    /// The firing time of this machine's next pending event, if any. The
    /// fabric's global scheduler advances whichever machine is earliest.
    pub fn peek_next_at(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pops and handles exactly one event; returns its firing time. The
    /// fabric steps machines one event at a time so cross-machine causality
    /// is never reordered.
    pub fn step(&mut self) -> Option<SimTime> {
        let ev = {
            let _pop = profile::span("engine.pop");
            self.queue.pop()?
        };
        let at = ev.at;
        self.handle(at, ev.event);
        Some(at)
    }

    /// Rebases the correlation-id allocator to start at `base` (at least
    /// 1). The fabric gives every machine a disjoint namespace — machine
    /// `m` allocates from `(m+1) << 40` — so a correlation id is unique
    /// rack-wide and a Chrome trace merged across machines never aliases
    /// two activities.
    pub fn set_corr_base(&mut self, base: u64) {
        self.next_corr = base.max(1);
    }

    // --- Introspection --------------------------------------------------

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

    /// Typed access to a host by port.
    pub fn host_as<T: NetHost>(&self, port: PortId) -> Option<&T> {
        let Some(PortOwner::Host(hidx)) = self.port_owner(port) else {
            return None;
        };
        let host: &dyn Any = self.hosts[hidx].host.as_ref();
        host.downcast_ref::<T>()
    }

    // --- Power & run ------------------------------------------------------

    /// Schedules power-on: every device and host runs its start hook with a
    /// small deterministic jitter (devices do not boot lockstep).
    pub fn power_on(&mut self) {
        for idx in 0..self.slots.len() {
            let jitter = SimDuration::from_nanos(self.root_rng.below(5_000));
            self.queue.schedule_in(jitter, Event::Start(idx));
        }
        for hidx in 0..self.hosts.len() {
            let jitter = SimDuration::from_nanos(5_000 + self.root_rng.below(5_000));
            self.queue.schedule_in(jitter, Event::HostStart(hidx));
        }
        if let Some(interval) = self.config.liveness_interval {
            self.queue.schedule_in(interval, Event::Liveness);
        }
        // Fault injections become ordinary discrete events: same queue,
        // same deterministic tie-break, bit-identical replays.
        for (i, e) in self.fault_events.iter().enumerate() {
            self.queue.schedule_at(e.at, Event::Fault(i));
        }
    }

    /// Powers on one late-added device (for devices attached after
    /// [`System::power_on`], e.g. hot-plug scenarios).
    pub fn start_device(&mut self, h: DeviceHandle) {
        self.queue.schedule_now(Event::Start(h.idx));
    }

    /// Runs until the queue is empty or `deadline` passes. Returns events
    /// processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        loop {
            let popped = {
                let _pop = profile::span("engine.pop");
                self.queue.pop_until(deadline)
            };
            let Some(ev) = popped else { break };
            self.handle(ev.at, ev.event);
            n += 1;
        }
        n
    }

    /// Runs for `d` of virtual time from now.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let deadline = self.now() + d;
        self.run_until(deadline)
    }

    // --- Fault injection ---------------------------------------------------

    /// Kills a device now. With `permanent = false` the bus's reset attempt
    /// revives it after [`SystemConfig::reset_latency`]; with `permanent =
    /// true` the device stays dead (§4 "if the entire device fails").
    pub fn kill_device(&mut self, h: DeviceHandle, permanent: bool) {
        let now = self.now();
        let corr = self.fresh_corr();
        self.slots[h.idx].halted = true;
        self.slots[h.idx].permanently_dead = permanent;
        self.slots[h.idx].inbox.clear();
        self.mark_down(h.idx, now);
        if let Some(rpc) = self.rpc.as_mut() {
            rpc.tracker.forget_requester(h.id);
        }
        if self.trace.is_enabled() {
            self.trace.emit_data(
                now,
                self.sources.fault.clone(),
                corr,
                TraceData::DeviceFault {
                    device: self.slots[h.idx].id_name.clone(),
                    detail: format!("device {} killed (permanent={permanent})", h.id),
                },
            );
        }
        let mut fx = Vec::new();
        // Cannot fail: the handle came from this system.
        let _ = self.bus.mark_failed(h.id, &mut fx);
        self.apply_bus_effects(now, fx);
    }

    // --- Event handling -----------------------------------------------------

    /// Allocates a correlation id for a spontaneously starting activity
    /// (device/host power-on, operator fault injection).
    fn fresh_corr(&mut self) -> CorrId {
        let c = CorrId(self.next_corr);
        self.next_corr += 1;
        c
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        // Per-event attribution scope: every allocation and sim-ns charge
        // below lands on this event family's row of the E12 table.
        let _scope = profile::span(scope_of(&ev));
        match ev {
            Event::Start(idx) => {
                let corr = self.fresh_corr();
                self.dispatch(idx, now, corr, |d, ctx| d.on_start(ctx))
            }
            Event::BusMsg(env) => {
                self.met.bus_messages.incr();
                if self.trace.is_enabled() {
                    if let Payload::Hello { name, kind } = &env.payload {
                        self.trace.emit_data(
                            now,
                            self.sources.bus.clone(),
                            env.corr,
                            TraceData::BusRegister {
                                device: format!("{name} ({kind})"),
                            },
                        );
                    }
                }
                let src = env.src;
                let corr = env.corr;
                let was_hello = matches!(env.payload, Payload::Hello { .. });
                let mut fx = Vec::new();
                self.bus.handle(now, env, &mut fx);
                self.drain_bus_audit(now, corr);
                self.apply_bus_effects(now, fx);
                if was_hello {
                    self.note_possible_recovery(now, src);
                }
            }
            Event::Deliver { idx, env } => self.feed(idx, now, Work::Msg(env)),
            Event::Timer { idx, token, corr } => self.feed(idx, now, Work::Timer(token, corr)),
            Event::InboxPop(idx) => {
                self.slots[idx].pop_armed = false;
                if self.slot_busy(idx, now) {
                    // Another same-instant event got in first; try again
                    // when the firmware frees up. FIFO order is preserved
                    // because the items stay in the inbox.
                    self.arm_pop(idx, now);
                    return;
                }
                let popped = self.slots[idx].inbox.pop_front();
                self.slots[idx]
                    .met
                    .inbox_depth
                    .set(self.slots[idx].inbox.len() as i64);
                if let Some(work) = popped {
                    self.run_work(idx, now, work);
                }
                if !self.slots[idx].inbox.is_empty() {
                    self.arm_pop(idx, now);
                }
            }
            Event::Map {
                idx,
                pasid,
                va,
                pa,
                pages,
                perms,
                corr,
            } => self.apply_map(idx, pasid, va, pa, pages, perms, corr),
            Event::Unmap {
                idx,
                pasid,
                va,
                pages,
                corr,
            } => self.apply_unmap(idx, pasid, va, pages, corr),
            Event::Reset { idx, corr } => {
                if self.slots[idx].permanently_dead {
                    return;
                }
                self.slots[idx].halted = false;
                self.slots[idx].busy_until = now;
                self.slots[idx].inbox.clear();
                self.met.device_resets.incr();
                self.dispatch(idx, now, corr, |d, ctx| d.on_reset(ctx));
            }
            Event::NetDeliver { port, frame, corr } => match self.port_owner(port) {
                Some(PortOwner::Tunnel) => {
                    // The port belongs to an embedding rack fabric: the
                    // frame leaves this machine. The fabric drains it after
                    // this step and models the inter-machine link.
                    let _tun = profile::span("fabric.tunnel_out");
                    if self.trace.is_enabled() {
                        self.trace.emit_data(
                            now,
                            self.sources.net.clone(),
                            corr,
                            TraceData::Text(format!(
                                "frame exits to fabric link via port {} ({} B)",
                                port.0,
                                frame.payload.len()
                            )),
                        );
                    }
                    self.tunnel_out.push(TunnelDelivery {
                        at: now,
                        port,
                        frame,
                        corr,
                    });
                }
                Some(PortOwner::Slot(idx)) => self.feed(idx, now, Work::Net(frame, corr)),
                Some(PortOwner::Host(hidx)) => {
                    self.dispatch_host(hidx, now, corr, move |h, ctx| h.on_frame(ctx, frame))
                }
                // The switch only delivers to ports it handed out.
                None => {}
            },
            Event::HostStart(hidx) => {
                let corr = self.fresh_corr();
                self.dispatch_host(hidx, now, corr, |h, ctx| h.on_start(ctx))
            }
            Event::HostTimer { hidx, token, corr } => {
                self.dispatch_host(hidx, now, corr, move |h, ctx| h.on_timer(ctx, token))
            }
            Event::Liveness => {
                let mut fx = Vec::new();
                let lapsed = self.bus.check_liveness(now, &mut fx);
                for id in lapsed {
                    if let Some(idx) = self.slot_of(id) {
                        self.slots[idx].halted = true;
                        self.mark_down(idx, now);
                    }
                }
                self.apply_bus_effects(now, fx);
                if let Some(interval) = self.config.liveness_interval {
                    self.queue.schedule_in(interval, Event::Liveness);
                }
            }
            Event::Fault(i) => self.apply_fault(now, i),
            Event::RetryCheck => self.rpc_sweep(now),
        }
    }

    /// Records the down-to-alive latency of a device whose `Hello` just
    /// brought it back to the bus's `Alive` state after a fault.
    fn note_possible_recovery(&mut self, now: SimTime, src: DeviceId) {
        let Some(idx) = self.slot_of(src) else {
            return;
        };
        let Some(t0) = self.slots[idx].faults.down_since else {
            return;
        };
        let alive = self
            .bus
            .device(src)
            .map(|e| e.state == DeviceState::Alive)
            .unwrap_or(false);
        if !alive {
            return;
        }
        let lat = now.since(t0);
        self.slots[idx].met.recovery_latency.record(lat);
        self.slots[idx].faults.down_since = None;
        if self.trace.is_enabled() {
            let name = &self.slots[idx].name;
            self.trace.emit_data(
                now,
                self.sources.fault.clone(),
                CorrId::NONE,
                TraceData::Text(format!("{name} recovered after {lat}")),
            );
        }
    }

    /// Stamps the moment a device went down, if not already down.
    fn mark_down(&mut self, idx: usize, now: SimTime) {
        if self.slots[idx].faults.down_since.is_none() {
            self.slots[idx].faults.down_since = Some(now);
        }
    }

    /// Applies one scheduled fault-plan injection.
    fn apply_fault(&mut self, now: SimTime, i: usize) {
        let ev = self.fault_events[i].clone();
        let Some(idx) = self.slots.iter().position(|s| s.device.name() == ev.target) else {
            return;
        };
        self.met.faults_injected.incr();
        let corr = self.fresh_corr();
        if self.trace.is_enabled() {
            self.trace.emit_data(
                now,
                self.sources.fault.clone(),
                corr,
                TraceData::DeviceFault {
                    device: self.slots[idx].name.clone(),
                    detail: format!("inject {} on {}", ev.kind.tag(), ev.target),
                },
            );
        }
        match ev.kind {
            FaultKind::Drop { count } => self.slots[idx].faults.drop_rem += count,
            FaultKind::Corrupt { count } => {
                self.slots[idx].faults.corrupt_rem += count;
                if let Some(plan) = self.config.fault_plan.as_ref() {
                    self.slots[idx].faults.corrupt_rng = Some(plan.stream(i as u64));
                }
            }
            FaultKind::Delay { count, extra_ns } => {
                let f = &mut self.slots[idx].faults;
                f.delay_rem += count;
                f.delay_extra = SimDuration::from_nanos(extra_ns.max(f.delay_extra.as_nanos()));
            }
            FaultKind::Crash => {
                if self.slots[idx].permanently_dead {
                    return;
                }
                let id = self.slots[idx].id;
                self.slots[idx].halted = true;
                self.slots[idx].inbox.clear();
                self.mark_down(idx, now);
                if let Some(rpc) = self.rpc.as_mut() {
                    rpc.tracker.forget_requester(id);
                }
                // The bus notices (DeviceFailed broadcast + reset pulse):
                // the crash is loud, recovery replays the Figure-2 init.
                let mut fx = Vec::new();
                let _ = self.bus.mark_failed(id, &mut fx);
                self.apply_bus_effects(now, fx);
            }
            FaultKind::Hang => {
                // Silent: the device just stops. No bus notification — only
                // the heartbeat liveness sweep can detect this, which is
                // the point of the fault.
                self.slots[idx].halted = true;
                self.slots[idx].inbox.clear();
                self.mark_down(idx, now);
            }
            FaultKind::SlowDown { factor, for_ns } => {
                let f = &mut self.slots[idx].faults;
                f.slow_factor = factor.max(1);
                f.slow_until = now + SimDuration::from_nanos(for_ns);
            }
            FaultKind::IommuStorm { count } => {
                // A burst of spurious translation faults the device firmware
                // must service (§4: devices handle their own faults).
                for k in 0..count {
                    let fault = IommuFault {
                        pasid: Pasid(0),
                        va: VirtAddr::new(k as u64 * PAGE_SIZE),
                        access: AccessKind::Read,
                        kind: IommuFaultKind::NotMapped,
                    };
                    self.dispatch(idx, now, corr, move |d, ctx| d.on_fault(ctx, fault));
                }
                self.slots[idx].met.iommu_faults.add(count as u64);
                self.met.iommu_faults.add(count as u64);
            }
        }
    }

    /// Applies armed wire faults for slot `idx` to a message touching it
    /// (as sender or recipient). Returns `None` when the message is
    /// consumed (dropped, or corrupted beyond decoding), otherwise the
    /// possibly-corrupted envelope plus any extra latency.
    fn wire_fault_filter(
        &mut self,
        now: SimTime,
        idx: usize,
        env: Arc<Envelope>,
    ) -> Option<(Arc<Envelope>, SimDuration)> {
        let f = &mut self.slots[idx].faults;
        if f.drop_rem == 0 && f.corrupt_rem == 0 && f.delay_rem == 0 {
            return Some((env, SimDuration::ZERO)); // fast path: nothing armed
        }
        if f.drop_rem > 0 {
            f.drop_rem -= 1;
            self.met.msgs_dropped.incr();
            if self.trace.is_enabled() {
                self.trace.emit_data(
                    now,
                    self.sources.fault.clone(),
                    env.corr,
                    TraceData::Text(format!("dropped {} on the wire", env.payload.kind_name())),
                );
            }
            return None;
        }
        if f.corrupt_rem > 0 {
            f.corrupt_rem -= 1;
            let rng = f.corrupt_rng.get_or_insert_with(|| DetRng::new(0xC0_22_09));
            // The corruption point is the one place on the delivery path
            // that genuinely needs the frame bytes (to flip a wire bit and
            // re-run the FNV-1a frame check); everywhere else sizes come
            // from `encoded_len()` without materializing the frame.
            let mut bytes = env.encode();
            let bit = rng.below(bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            self.met.msgs_corrupted.incr();
            let corr = env.corr;
            let kind = env.payload.kind_name();
            return match Envelope::decode(&bytes) {
                Ok(corrupted) => {
                    // Survived the frame check (astronomically unlikely with
                    // the FCS, but handled): delivered as a *different*
                    // message; the endpoint validation layers must cope.
                    if self.trace.is_enabled() {
                        self.trace.emit_data(
                            now,
                            self.sources.fault.clone(),
                            corr,
                            TraceData::Text(format!(
                                "corrupted {kind} -> {}",
                                corrupted.payload.kind_name()
                            )),
                        );
                    }
                    Some((Arc::new(corrupted), SimDuration::ZERO))
                }
                Err(_) => {
                    // The envelope's frame check sequence catches the flip;
                    // the receiver discards the frame, so on the wire this is
                    // a drop — the sender's RPC timeout retransmits.
                    self.met.msgs_dropped.incr();
                    if self.trace.is_enabled() {
                        self.trace.emit_data(
                            now,
                            self.sources.fault.clone(),
                            corr,
                            TraceData::Text(format!("corrupted {kind}; frame check dropped it")),
                        );
                    }
                    None
                }
            };
        }
        // delay_rem > 0
        f.delay_rem -= 1;
        let extra = f.delay_extra;
        self.met.msgs_delayed.incr();
        Some((env, extra))
    }

    /// Ensures a [`Event::RetryCheck`] is scheduled at the tracker's next
    /// deadline. Deadlines only move later (each is `send + timeout`), so a
    /// sweep armed earlier never misses one.
    fn arm_rpc_sweep(&mut self) {
        let Some(rpc) = self.rpc.as_mut() else {
            return;
        };
        let Some(d) = rpc.tracker.next_deadline() else {
            return;
        };
        if rpc.sweep_at.is_some_and(|t| t <= d) {
            return;
        }
        rpc.sweep_at = Some(d);
        self.queue.schedule_at(d, Event::RetryCheck);
    }

    /// Sweeps the RPC tracker: retransmits timed-out requests (with
    /// backoff + jitter) and surfaces terminal failures for exhausted ones.
    fn rpc_sweep(&mut self, now: SimTime) {
        let verdicts = {
            let Some(rpc) = self.rpc.as_mut() else {
                return;
            };
            rpc.sweep_at = None;
            rpc.tracker.expire(now, &mut rpc.rng)
        };
        for v in verdicts {
            match v {
                RetryVerdict::Resend {
                    env,
                    send_at,
                    attempt,
                } => {
                    self.met.rpc_retries.incr();
                    let src_idx = self.slot_of(env.src);
                    if let Some(idx) = src_idx {
                        self.slots[idx].met.retries.incr();
                    }
                    if self.trace.is_enabled() {
                        self.trace.emit_data(
                            now,
                            self.sources.bus.clone(),
                            env.corr,
                            TraceData::Text(format!(
                                "retry {attempt} of {} from {}",
                                env.payload.kind_name(),
                                env.src
                            )),
                        );
                    }
                    // Retransmissions traverse the same faulty wire.
                    let env = Arc::new(env);
                    let filtered = match src_idx {
                        Some(idx) => self.wire_fault_filter(send_at, idx, env),
                        None => Some((env, SimDuration::ZERO)),
                    };
                    let Some((env, extra)) = filtered else {
                        continue;
                    };
                    let hop = self.config.bus_cost.hop_latency + extra;
                    self.queue.schedule_at(send_at + hop, Event::BusMsg(env));
                }
                RetryVerdict::GiveUp {
                    env,
                    first_sent,
                    attempts,
                } => {
                    self.met.rpc_give_ups.incr();
                    if self.trace.is_enabled() {
                        self.trace.emit_data(
                            now,
                            self.sources.fault.clone(),
                            env.corr,
                            TraceData::Text(format!(
                                "{} from {} abandoned after {attempts} attempts ({} in flight)",
                                env.payload.kind_name(),
                                env.src,
                                now.since(first_sent),
                            )),
                        );
                    }
                    // Synthesize a terminal failure reply so the requester's
                    // state machine unwinds instead of wedging (graceful
                    // degradation; the KVS server turns this into
                    // `Unavailable` for its clients).
                    if let Some(payload) = env.payload.failure_reply() {
                        let src = match env.dst {
                            Dst::Device(d) => d,
                            _ => DeviceId::BUS,
                        };
                        let fail = Envelope {
                            src,
                            dst: Dst::Device(env.src),
                            req: env.req,
                            corr: env.corr,
                            payload,
                        };
                        if let Some(idx) = self.slot_of(env.src) {
                            self.queue.schedule_at(
                                now,
                                Event::Deliver {
                                    idx,
                                    env: Arc::new(fail),
                                },
                            );
                        }
                    }
                }
            }
        }
        self.arm_rpc_sweep();
    }

    fn slot_busy(&self, idx: usize, now: SimTime) -> bool {
        self.slots[idx].busy_until > now
    }

    /// Ensures one `InboxPop` is pending for the slot, at the time its
    /// firmware frees up.
    fn arm_pop(&mut self, idx: usize, now: SimTime) {
        if self.slots[idx].pop_armed {
            return;
        }
        self.slots[idx].pop_armed = true;
        let at = self.slots[idx].busy_until.max(now);
        self.queue.schedule_at(at, Event::InboxPop(idx));
    }

    /// Routes one unit of work to a device: runs it now if the firmware is
    /// idle and nothing is queued ahead of it, otherwise appends it to the
    /// ingress FIFO.
    fn feed(&mut self, idx: usize, now: SimTime, work: Work) {
        if self.slots[idx].halted {
            return;
        }
        if self.slot_busy(idx, now) || !self.slots[idx].inbox.is_empty() {
            // Doorbells are level-triggered registers, not edge queues: a
            // second ring of the same doorbell while the first is still
            // pending coalesces with it (MSI semantics, §2.3). Without
            // this, a tenant ringing per-request floods the ingress FIFO
            // faster than the device drains it.
            if let Work::Msg(ref e) = work {
                if let Payload::Doorbell { conn, value } = e.payload {
                    let dup = self.slots[idx].inbox.iter().any(|w| {
                        matches!(
                            w,
                            Work::Msg(other) if other.src == e.src
                                && other.payload == Payload::Doorbell { conn, value }
                        )
                    });
                    if dup {
                        self.met.doorbells_coalesced.incr();
                        return;
                    }
                }
            }
            self.slots[idx].inbox.push_back(work);
            self.slots[idx]
                .met
                .inbox_depth
                .set(self.slots[idx].inbox.len() as i64);
            self.arm_pop(idx, now);
            return;
        }
        self.run_work(idx, now, work);
        if !self.slots[idx].inbox.is_empty() {
            self.arm_pop(idx, now);
        }
    }

    /// Executes one unit of work on an idle device.
    fn run_work(&mut self, idx: usize, now: SimTime, work: Work) {
        match work {
            Work::Msg(env) => {
                self.slots[idx].met.msgs.incr();
                self.trace_envelope(now, idx, &env);
                let corr = env.corr;
                // Devices take ownership of their message. A unicast
                // delivery holds the last reference here, so this is a
                // move out of the `Arc`, not a copy; only broadcast
                // recipients (shared refcount > 1) pay a clone.
                let env = Arc::try_unwrap(env).unwrap_or_else(|shared| (*shared).clone());
                self.dispatch(idx, now, corr, move |d, ctx| d.on_message(ctx, env));
            }
            Work::Timer(token, corr) => {
                self.dispatch(idx, now, corr, move |d, ctx| d.on_timer(ctx, token));
            }
            Work::Net(frame, corr) => {
                self.slots[idx].met.frames_rx.incr();
                self.dispatch(idx, now, corr, move |d, ctx| d.on_net(ctx, frame));
            }
        }
    }

    /// Runs one device hook and applies its effects.
    fn dispatch(
        &mut self,
        idx: usize,
        now: SimTime,
        corr: CorrId,
        f: impl FnOnce(&mut dyn Device, &mut DeviceCtx<'_>),
    ) {
        let slot = &mut self.slots[idx];
        if slot.halted {
            return;
        }
        let scratch_actions = std::mem::take(&mut slot.scratch_actions);
        let scratch_faults = std::mem::take(&mut slot.scratch_faults);
        let mut ctx = DeviceCtx::new(
            now,
            slot.id,
            slot.port,
            &mut slot.iommu,
            &mut self.dram,
            &mut slot.rng,
            &mut slot.next_req,
            corr,
            &self.stats,
        )
        .with_tracing(self.trace.is_enabled())
        .with_pool(&self.pool)
        .with_scratch(scratch_actions, scratch_faults);
        f(slot.device.as_mut(), &mut ctx);
        let (mut actions, mut elapsed, mut faults) = ctx.finish();
        if slot.faults.slow_factor > 1 && now < slot.faults.slow_until {
            // An active slow-down fault stretches the firmware's service
            // time (thermal throttling, background housekeeping).
            elapsed = elapsed.saturating_mul(slot.faults.slow_factor as u64);
        }
        slot.busy_until = now + elapsed;
        let t = slot.busy_until;
        slot.met.handler_ns.record(elapsed);
        // The handler's modeled service time is the sim-ns cost of whatever
        // event scope this dispatch ran under.
        profile::charge_sim(elapsed.as_nanos());
        if !faults.is_empty() {
            slot.met.iommu_faults.add(faults.len() as u64);
            self.met.iommu_faults.add(faults.len() as u64);
        }
        // E11 audit: convert this dispatch's DMA verdicts into `sec.*`
        // metrics and `security_denial` trace events, exactly once.
        if let Some(audit) = slot.iommu.audit_mut() {
            let delta = audit.drain();
            if delta.allowed > 0 {
                self.met.sec_dma_allowed.add(delta.allowed);
            }
            if delta.denied > 0 {
                self.met.sec_dma_denied.add(delta.denied);
                slot.met.sec_dma_denied.add(delta.denied);
            }
            if self.trace.is_enabled() && !delta.records.is_empty() {
                let name = &slot.name;
                for r in &delta.records {
                    self.trace.emit_data(
                        now,
                        format!("sec.{name}"),
                        corr,
                        TraceData::SecurityDenial {
                            device: name.clone(),
                            check: "dma".to_string(),
                            detail: format!(
                                "pasid {} va {:#x} {:?}: {:?}",
                                r.pasid.0,
                                r.va.as_u64(),
                                r.access,
                                r.kind
                            ),
                        },
                    );
                }
            }
        }
        {
            // Named sub-scope: allocations while applying device effects
            // (event scheduling, routing) attribute to `engine.apply`
            // instead of the dispatching event's generic scope.
            let _sp = profile::span("engine.apply");
            for a in actions.drain(..) {
                self.apply_action(idx, t, corr, a);
            }
        }
        // Hand the (now empty) scratch buffers back to the slot. No
        // reentrant dispatch happens inside `apply_action` (effects become
        // scheduled events), so the slot's buffers were untouched meanwhile.
        faults.clear();
        let slot = &mut self.slots[idx];
        slot.scratch_actions = actions;
        slot.scratch_faults = faults;
    }

    /// Converts freshly recorded bus-audit verdicts into `sec.*` metrics
    /// and `security_denial` trace events (called after every
    /// `bus.handle()`).
    fn drain_bus_audit(&mut self, now: SimTime, corr: CorrId) {
        let Some(delta) = self.bus.audit_mut().map(|a| a.drain()) else {
            return;
        };
        if delta.allowed > 0 {
            self.met.sec_privops_allowed.add(delta.allowed);
        }
        if delta.denied > 0 {
            self.met.sec_privops_denied.add(delta.denied);
        }
        if delta.rate_limited > 0 {
            self.met.sec_flood_dropped.add(delta.rate_limited);
        }
        if self.trace.is_enabled() {
            for r in &delta.records {
                if r.verdict == lastcpu_bus::BusVerdict::Allowed {
                    continue;
                }
                let device = self
                    .bus
                    .device(r.src)
                    .map_or_else(|| r.src.to_string(), |e| e.name.clone())
                    .into();
                let check = match r.op {
                    lastcpu_bus::PrivOpKind::RegisterController => "register_controller",
                    lastcpu_bus::PrivOpKind::MapInstruction => "map_instruction",
                    lastcpu_bus::PrivOpKind::Announce => "announce",
                    lastcpu_bus::PrivOpKind::Control => "control",
                };
                self.trace.emit_data(
                    now,
                    "sec.bus",
                    corr,
                    TraceData::SecurityDenial {
                        device,
                        check: check.to_string(),
                        detail: format!(
                            "{:?} (resource {:?}, target {:?})",
                            r.reason, r.resource, r.target
                        ),
                    },
                );
            }
        }
    }

    fn dispatch_host(
        &mut self,
        hidx: usize,
        now: SimTime,
        corr: CorrId,
        f: impl FnOnce(&mut dyn NetHost, &mut HostCtx<'_>),
    ) {
        let hs = &mut self.hosts[hidx];
        let scratch = std::mem::take(&mut hs.scratch_actions);
        let mut ctx = HostCtx::new(now, hs.port, &self.stats, &mut hs.rng, corr)
            .with_tracing(self.trace.is_enabled())
            .with_pool(&self.pool)
            .with_scratch(scratch);
        f(hs.host.as_mut(), &mut ctx);
        let mut actions = ctx.finish();
        for a in actions.drain(..) {
            match a {
                HostAction::NetTx(frame) => self.route_frame(now, frame, corr),
                HostAction::SetTimer { delay, token } => {
                    self.queue
                        .schedule_in(delay, Event::HostTimer { hidx, token, corr });
                }
                HostAction::Trace(s) => {
                    let name = self.hosts[hidx].name.clone();
                    self.trace.emit_data(now, name, corr, TraceData::Text(s));
                }
                HostAction::Stage { stage, id, aux } => {
                    let name = self.hosts[hidx].name.clone();
                    self.trace
                        .emit_data(now, name, corr, TraceData::Stage { stage, id, aux });
                }
            }
        }
        self.hosts[hidx].scratch_actions = actions;
    }

    fn route_frame(&mut self, at: SimTime, frame: Frame, corr: CorrId) {
        // The switch computes per-recipient delivery times including egress
        // queueing, which is how network contention becomes real. Unicast —
        // the hot path — moves the frame into its single delivery event;
        // only broadcast pays the allocating route + per-recipient clones.
        if frame.dst != PortId::BROADCAST {
            if let Some(deliver_at) = self.switch.route_unicast(at, &frame) {
                let port = frame.dst;
                self.queue
                    .schedule_at(deliver_at, Event::NetDeliver { port, frame, corr });
            }
            return;
        }
        for (port, deliver_at) in self.switch.route(at, &frame) {
            self.queue.schedule_at(
                deliver_at,
                Event::NetDeliver {
                    port,
                    frame: frame.clone(),
                    corr,
                },
            );
        }
    }

    fn apply_action(&mut self, idx: usize, t: SimTime, corr: CorrId, action: Action) {
        match action {
            Action::SendBus(env) => {
                if self.trace.is_enabled() {
                    let name = self.slots[idx].name.clone();
                    let data = match &env.payload {
                        Payload::Query { pattern } => TraceData::Discovery {
                            pattern: pattern.clone(),
                            dst: format!("{:?}", env.dst),
                        },
                        p => TraceData::BusSend {
                            what: p.kind_name(),
                            dst: format!("{:?}", env.dst),
                        },
                    };
                    self.trace.emit_data(t, name, env.corr, data);
                }
                // Arm the retry tracker *before* wire faults apply: the
                // tracker exists precisely to notice lost sends.
                if let Some(rpc) = self.rpc.as_mut() {
                    rpc.tracker.track(t, &env);
                }
                self.arm_rpc_sweep();
                let Some((env, extra)) = self.wire_fault_filter(t, idx, Arc::new(env)) else {
                    return;
                };
                // One hop to the bus; processing/latency modelled by the
                // bus's own cost model when it emits deliveries.
                let mut hop = self.config.bus_cost.hop_latency + extra;
                if let Some(link) = self.shared_link.as_mut() {
                    hop += link.occupy(t, env.encoded_len() as u64);
                    self.met.link_control_msgs.incr();
                }
                self.queue.schedule_at(t + hop, Event::BusMsg(env));
            }
            Action::Doorbell { to, conn, value } => {
                let env = Envelope {
                    src: self.slots[idx].id,
                    dst: Dst::Device(to),
                    req: RequestId(0),
                    corr,
                    payload: Payload::Doorbell { conn, value },
                };
                if self.trace.is_enabled() {
                    let name = self.slots[idx].name.clone();
                    let to = match self.slot_of(to) {
                        Some(i) => self.slots[i].id_name.clone(),
                        None => to.to_string().into(),
                    };
                    self.trace
                        .emit_data(t, name, corr, TraceData::QueueDoorbell { to, value });
                }
                let mut lat = self.config.doorbell_latency;
                if let Some(link) = self.shared_link.as_mut() {
                    lat += link.occupy(t, 8);
                }
                self.met.doorbells.incr();
                if let Some(to_idx) = self.slot_of(to) {
                    self.queue.schedule_at(
                        t + lat,
                        Event::Deliver {
                            idx: to_idx,
                            env: Arc::new(env),
                        },
                    );
                }
            }
            Action::SetTimer { delay, token } => {
                self.queue
                    .schedule_at(t + delay, Event::Timer { idx, token, corr });
            }
            Action::NetTx(frame) => self.route_frame(t, frame, corr),
            Action::Trace(s) => {
                let name = self.slots[idx].name.clone();
                self.trace.emit_data(t, name, corr, TraceData::Text(s));
            }
            Action::Stage { stage, id, aux } => {
                let name = self.slots[idx].name.clone();
                self.trace
                    .emit_data(t, name, corr, TraceData::Stage { stage, id, aux });
            }
            Action::Halt { reason } => {
                let id = self.slots[idx].id;
                self.slots[idx].halted = true;
                self.slots[idx].inbox.clear();
                self.mark_down(idx, t);
                if self.trace.is_enabled() {
                    self.trace.emit_data(
                        t,
                        self.sources.fault.clone(),
                        corr,
                        TraceData::DeviceFault {
                            device: self.slots[idx].id_name.clone(),
                            detail: format!("{id} halted: {reason}"),
                        },
                    );
                }
                let mut fx = Vec::new();
                let _ = self.bus.mark_failed(id, &mut fx);
                self.apply_bus_effects(t, fx);
            }
        }
    }

    fn apply_bus_effects(&mut self, now: SimTime, fx: Vec<BusEffect>) {
        for effect in fx {
            match effect {
                BusEffect::Deliver { to, env, latency } => {
                    let mut lat = latency;
                    if let Some(link) = self.shared_link.as_mut() {
                        lat += link.occupy(now, env.encoded_len() as u64);
                    }
                    if let Some(idx) = self.slot_of(to) {
                        // Destination-side wire faults: a reply eaten here
                        // must *not* complete the tracker — the requester
                        // never saw it.
                        let Some((env, extra)) = self.wire_fault_filter(now, idx, env) else {
                            continue;
                        };
                        if env.payload.is_reply() {
                            if let Some(rpc) = self.rpc.as_mut() {
                                rpc.tracker.complete(to, env.req, &env.payload);
                            }
                        }
                        self.queue
                            .schedule_at(now + lat + extra, Event::Deliver { idx, env });
                    }
                }
                BusEffect::ProgramMap {
                    device,
                    pasid,
                    va,
                    pa,
                    pages,
                    perms,
                    corr,
                } => {
                    if let Some(idx) = self.slot_of(device) {
                        if self.trace.is_enabled() {
                            self.trace.emit_data(
                                now,
                                self.sources.bus.clone(),
                                corr,
                                TraceData::DmaGrant {
                                    to: self.slots[idx].id_name.clone(),
                                    pages,
                                    writable: perms & 2 != 0,
                                },
                            );
                        }
                        // The privileged write lands after one hop plus bus
                        // processing — strictly before any 2-hop response.
                        let lat =
                            self.config.bus_cost.hop_latency + self.config.bus_cost.processing;
                        self.queue.schedule_at(
                            now + lat,
                            Event::Map {
                                idx,
                                pasid,
                                va,
                                pa,
                                pages,
                                perms,
                                corr,
                            },
                        );
                    }
                }
                BusEffect::ProgramUnmap {
                    device,
                    pasid,
                    va,
                    pages,
                    corr,
                } => {
                    if let Some(idx) = self.slot_of(device) {
                        let lat =
                            self.config.bus_cost.hop_latency + self.config.bus_cost.processing;
                        self.queue.schedule_at(
                            now + lat,
                            Event::Unmap {
                                idx,
                                pasid,
                                va,
                                pages,
                                corr,
                            },
                        );
                    }
                }
                BusEffect::ResetDevice { device, corr } => {
                    if let Some(idx) = self.slot_of(device) {
                        self.queue
                            .schedule_in(self.config.reset_latency, Event::Reset { idx, corr });
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // Mirrors the wire-level Map request.
    fn apply_map(
        &mut self,
        idx: usize,
        pasid: u32,
        va: u64,
        pa: u64,
        pages: u64,
        perms: u8,
        corr: CorrId,
    ) {
        let slot = &mut self.slots[idx];
        let perms = Perms::from_bits(perms);
        slot.iommu.bind_pasid(Pasid(pasid));
        for i in 0..pages {
            let va_i = VirtAddr::new(va + i * PAGE_SIZE);
            let pa_i = PhysAddr::new(pa + i * PAGE_SIZE);
            match slot.iommu.map(Pasid(pasid), va_i, pa_i, perms) {
                Ok(()) => {}
                Err(MapError::AlreadyMapped { .. }) => {
                    // Idempotent re-grant (e.g. a share retried after a
                    // failure broadcast raced with it): refresh permissions.
                    let _ = slot.iommu.protect(Pasid(pasid), va_i, perms);
                }
                Err(e) => {
                    if self.trace.is_enabled() {
                        self.trace.emit_data(
                            self.queue.now(),
                            self.sources.bus.clone(),
                            corr,
                            TraceData::MapFailure {
                                error: format!("{e}"),
                            },
                        );
                    }
                    self.met.map_failures.incr();
                    return;
                }
            }
        }
        self.met.pages_mapped.add(pages);
        if self.trace.is_enabled() {
            self.trace.emit_data(
                self.queue.now(),
                self.sources.bus.clone(),
                corr,
                TraceData::IommuMap {
                    device: slot.id_name.clone(),
                    pasid,
                    va,
                    pa,
                    pages,
                    perms: perms.to_string(),
                },
            );
        }
    }

    fn apply_unmap(&mut self, idx: usize, pasid: u32, va: u64, pages: u64, corr: CorrId) {
        let slot = &mut self.slots[idx];
        let mut removed = 0;
        for i in 0..pages {
            let va_i = VirtAddr::new(va + i * PAGE_SIZE);
            if slot.iommu.unmap(Pasid(pasid), va_i).is_ok() {
                removed += 1;
            }
        }
        self.met.pages_unmapped.add(removed);
        if self.trace.is_enabled() {
            self.trace.emit_data(
                self.queue.now(),
                self.sources.bus.clone(),
                corr,
                TraceData::IommuUnmap {
                    device: slot.id_name.clone(),
                    pasid,
                    va,
                    pages: removed,
                },
            );
        }
    }

    fn trace_envelope(&mut self, now: SimTime, to_idx: usize, env: &Envelope) {
        if !self.trace.is_enabled() {
            return;
        }
        let to = self.slots[to_idx].name.clone();
        let from = if env.src == DeviceId::BUS {
            self.sources.bus.clone()
        } else {
            match self.slot_of(env.src) {
                Some(i) => self.slots[i].name.clone(),
                None => env.src.to_string().into(),
            }
        };
        self.trace.emit_data(
            now,
            from,
            env.corr,
            TraceData::Deliver {
                to,
                kind: env.payload.kind_name(),
            },
        );
    }
}

use lastcpu_snap::{Checkpoint, Manifest, SnapError, SnapWriter, Snapshot as _};

impl System {
    /// Stable fingerprint of the builder recipe: configuration plus the
    /// device/host lineup. Restore refuses to verify a checkpoint against
    /// a machine built from a different recipe — replay-based restore is
    /// only sound when the re-executed machine starts from the same
    /// construction.
    pub fn config_fingerprint(&self) -> u64 {
        let mut h = lastcpu_snap::fnv1a(format!("{:?}", self.config).as_bytes());
        for s in &self.slots {
            lastcpu_snap::fnv1a_fold(&mut h, s.device.name().as_bytes());
            lastcpu_snap::fnv1a_fold(&mut h, s.device.kind().as_bytes());
        }
        for hs in &self.hosts {
            lastcpu_snap::fnv1a_fold(&mut h, hs.host.name().as_bytes());
        }
        h
    }

    /// Folds one pending event — firing time, tie-break sequence, and full
    /// content — into the queue digest.
    fn fold_event(h: &mut u64, at: SimTime, seq: u64, ev: &Event) {
        let mut w = SnapWriter::new();
        w.put_u64(at.as_nanos());
        w.put_u64(seq);
        match ev {
            Event::Start(i) => {
                w.put_u8(0);
                w.put_len(*i);
            }
            Event::BusMsg(env) => {
                w.put_u8(1);
                w.put_bytes(&env.encode());
            }
            Event::Deliver { idx, env } => {
                w.put_u8(2);
                w.put_len(*idx);
                w.put_bytes(&env.encode());
            }
            Event::Timer { idx, token, corr } => {
                w.put_u8(3);
                w.put_len(*idx);
                w.put_u64(*token);
                w.put_u64(corr.0);
            }
            Event::Map {
                idx,
                pasid,
                va,
                pa,
                pages,
                perms,
                corr,
            } => {
                w.put_u8(4);
                w.put_len(*idx);
                w.put_u32(*pasid);
                w.put_u64(*va);
                w.put_u64(*pa);
                w.put_u64(*pages);
                w.put_u8(*perms);
                w.put_u64(corr.0);
            }
            Event::Unmap {
                idx,
                pasid,
                va,
                pages,
                corr,
            } => {
                w.put_u8(5);
                w.put_len(*idx);
                w.put_u32(*pasid);
                w.put_u64(*va);
                w.put_u64(*pages);
                w.put_u64(corr.0);
            }
            Event::Reset { idx, corr } => {
                w.put_u8(6);
                w.put_len(*idx);
                w.put_u64(corr.0);
            }
            Event::InboxPop(i) => {
                w.put_u8(7);
                w.put_len(*i);
            }
            Event::NetDeliver { port, frame, corr } => {
                w.put_u8(8);
                w.put_u32(port.0);
                w.put_u32(frame.src.0);
                w.put_u32(frame.dst.0);
                w.put_bytes(&frame.payload);
                w.put_u64(corr.0);
            }
            Event::HostStart(i) => {
                w.put_u8(9);
                w.put_len(*i);
            }
            Event::HostTimer { hidx, token, corr } => {
                w.put_u8(10);
                w.put_len(*hidx);
                w.put_u64(*token);
                w.put_u64(corr.0);
            }
            Event::Liveness => w.put_u8(11),
            Event::Fault(i) => {
                w.put_u8(12);
                w.put_len(*i);
            }
            Event::RetryCheck => w.put_u8(13),
        }
        lastcpu_snap::fnv1a_fold(h, &w.into_bytes());
    }

    /// The `engine` section: virtual clock, event cursors, a content digest
    /// of every pending event, and the machine-global odds and ends that
    /// live outside any component (correlation allocator, shared link,
    /// tunnel state, fault schedule).
    fn engine_section(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(self.queue.now().as_nanos());
        w.put_u64(self.queue.events_processed());
        w.put_u64(self.queue.seq_cursor());
        let mut entries = self.queue.entries();
        entries.sort_by_key(|(at, seq, _)| (*at, *seq));
        w.put_len(entries.len());
        let mut h = lastcpu_snap::fnv1a(b"queue");
        for (at, seq, ev) in &entries {
            Self::fold_event(&mut h, *at, *seq, ev);
        }
        w.put_u64(h);
        w.put_u64(self.next_corr);
        w.put_opt(self.memctl_id.as_ref(), |w, d| w.put_u32(d.0));
        w.put_opt(self.shared_link.as_ref(), |w, l| {
            w.put_u64(l.busy_until.as_nanos());
            w.put_u64(l.per_byte_ps);
        });
        let tunnel_ports = || {
            (1u32..)
                .zip(&self.port_owners)
                .filter(|(_, o)| matches!(o, PortOwner::Tunnel))
        };
        w.put_len(tunnel_ports().count());
        for (p, _) in tunnel_ports() {
            w.put_u32(p);
        }
        w.put_len(self.tunnel_out.len());
        for t in &self.tunnel_out {
            w.put_u64(t.at.as_nanos());
            w.put_u32(t.port.0);
            w.put_u32(t.frame.src.0);
            w.put_u32(t.frame.dst.0);
            w.put_bytes(&t.frame.payload);
        }
        w.put_len(self.fault_events.len());
        for f in &self.fault_events {
            w.put_u64(f.at.as_nanos());
            w.put_str(&f.target);
            f.kind.encode(&mut w);
        }
        w.into_bytes()
    }

    /// One device slot: engine-side bookkeeping (scheduling, ingress FIFO,
    /// armed faults, RNG), the slot's IOMMU, then the device's own state
    /// via [`Device::snapshot_state`].
    fn slot_section(&self, s: &Slot) -> lastcpu_snap::Result<Vec<u8>> {
        let mut w = SnapWriter::new();
        w.put_u32(s.id.0);
        w.put_opt(s.port.as_ref(), |w, p| w.put_u32(p.0));
        w.put_u64(s.busy_until.as_nanos());
        w.put_bool(s.halted);
        w.put_bool(s.permanently_dead);
        w.put_u64(s.next_req);
        s.rng.snapshot(&mut w);
        w.put_bool(s.pop_armed);
        w.put_len(s.inbox.len());
        for work in &s.inbox {
            match work {
                Work::Msg(env) => {
                    w.put_u8(0);
                    w.put_bytes(&env.encode());
                }
                Work::Timer(token, corr) => {
                    w.put_u8(1);
                    w.put_u64(*token);
                    w.put_u64(corr.0);
                }
                Work::Net(frame, corr) => {
                    w.put_u8(2);
                    w.put_u32(frame.src.0);
                    w.put_u32(frame.dst.0);
                    w.put_bytes(&frame.payload);
                    w.put_u64(corr.0);
                }
            }
        }
        w.put_u32(s.faults.drop_rem);
        w.put_u32(s.faults.corrupt_rem);
        w.put_opt(s.faults.corrupt_rng.as_ref(), |w, r| r.snapshot(w));
        w.put_u32(s.faults.delay_rem);
        w.put_u64(s.faults.delay_extra.as_nanos());
        w.put_u32(s.faults.slow_factor);
        w.put_u64(s.faults.slow_until.as_nanos());
        w.put_opt(s.faults.down_since.as_ref(), |w, t| w.put_u64(t.as_nanos()));
        s.iommu.snapshot(&mut w);
        s.device.snapshot_state(&mut w)?;
        Ok(w.into_bytes())
    }

    /// Serializes the whole machine into a versioned [`Checkpoint`]:
    /// manifest (seed, virtual time, event cursor, config fingerprint)
    /// plus one checksummed section per component, in fixed order.
    ///
    /// Fails loudly ([`SnapError::Unsupported`]) if any attached device or
    /// host does not implement its snapshot hook — a checkpoint that
    /// silently skipped state could never verify a restore.
    pub fn checkpoint(&self, label: &str) -> lastcpu_snap::Result<Checkpoint> {
        let manifest = Manifest {
            schema_version: lastcpu_snap::SCHEMA_VERSION,
            seed: self.config.seed,
            virtual_ns: self.queue.now().as_nanos(),
            events: self.queue.events_processed(),
            config_fp: self.config_fingerprint(),
            label: label.to_string(),
        };
        let mut ck = Checkpoint::new(manifest);
        ck.add_section("engine", self.engine_section());
        ck.add_section("rng", {
            let mut w = SnapWriter::new();
            self.root_rng.snapshot(&mut w);
            w.into_bytes()
        });
        ck.add_section("bus", self.bus.snapshot_bytes());
        ck.add_section("rpc", {
            let mut w = SnapWriter::new();
            w.put_opt(self.rpc.as_ref(), |w, rpc| {
                rpc.tracker.snapshot(w);
                rpc.rng.snapshot(w);
                w.put_opt(rpc.sweep_at.as_ref(), |w, t| w.put_u64(t.as_nanos()));
            });
            w.into_bytes()
        });
        ck.add_section("dram", self.dram.snapshot_bytes());
        ck.add_section("switch", self.switch.snapshot_bytes());
        ck.add_section("pool", self.pool.snapshot_bytes());
        ck.add_section("metrics", self.stats.snapshot_bytes());
        ck.add_section("trace", self.trace.snapshot_bytes());
        for (i, s) in self.slots.iter().enumerate() {
            ck.add_section(&format!("dev{i}"), self.slot_section(s)?);
        }
        for (i, hs) in self.hosts.iter().enumerate() {
            let mut w = SnapWriter::new();
            w.put_u32(hs.port.0);
            hs.rng.snapshot(&mut w);
            hs.host.snapshot_state(&mut w)?;
            ck.add_section(&format!("host{i}"), w.into_bytes());
        }
        Ok(ck)
    }

    /// Steps until exactly `events` events have been processed (the
    /// manifest cursor). Returns the number of events stepped here.
    pub fn run_to_cursor(&mut self, events: u64) -> u64 {
        let mut n = 0;
        while self.queue.events_processed() < events {
            if self.step().is_none() {
                break;
            }
            n += 1;
        }
        n
    }

    /// Byte-for-byte verification of this machine against `ck`: takes a
    /// fresh checkpoint and requires every section to match exactly.
    pub fn verify_checkpoint(&self, ck: &Checkpoint) -> lastcpu_snap::Result<()> {
        let mine = self.checkpoint(&ck.manifest.label)?;
        if let Some(detail) = ck.diff(&mine) {
            return Err(SnapError::VerifyMismatch {
                section: "system".into(),
                detail,
            });
        }
        Ok(())
    }

    /// Restores this machine to the state captured in `ck`.
    ///
    /// The machine must be freshly built from the *same recipe* (config +
    /// device/host lineup, checked via the manifest fingerprint) and
    /// powered on. Restore is deterministic re-execution: the engine
    /// replays to the manifest's event cursor — bit-identical by
    /// construction of the simulator — and then every section is verified
    /// byte-for-byte against the checkpoint. Any divergence fails loudly
    /// with [`SnapError::VerifyMismatch`]; a successful return is a proof
    /// that this machine is in the checkpointed state, not an assumption.
    pub fn restore_from(&mut self, ck: &Checkpoint) -> lastcpu_snap::Result<()> {
        if ck.manifest.schema_version != lastcpu_snap::SCHEMA_VERSION {
            return Err(SnapError::VersionMismatch {
                want: lastcpu_snap::SCHEMA_VERSION,
                got: ck.manifest.schema_version,
            });
        }
        if ck.manifest.seed != self.config.seed {
            return Err(SnapError::VerifyMismatch {
                section: "manifest".into(),
                detail: format!(
                    "seed mismatch: checkpoint {}, this machine {}",
                    ck.manifest.seed, self.config.seed
                ),
            });
        }
        if ck.manifest.config_fp != self.config_fingerprint() {
            return Err(SnapError::VerifyMismatch {
                section: "manifest".into(),
                detail: format!(
                    "config fingerprint mismatch: checkpoint {:#018x}, this machine {:#018x}",
                    ck.manifest.config_fp,
                    self.config_fingerprint()
                ),
            });
        }
        self.run_to_cursor(ck.manifest.events);
        self.verify_checkpoint(ck)
    }
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_devices::auth::AuthDevice;
    use lastcpu_devices::console::{ConsoleDevice, ConsoleState};
    use lastcpu_devices::flash::{NandChip, NandConfig};
    use lastcpu_devices::fs::FlashFs;
    use lastcpu_devices::ftl::Ftl;
    use lastcpu_devices::monitor::AuthMode;
    use lastcpu_devices::nic::{EchoApp, SmartNic};
    use lastcpu_devices::ssd::{SmartSsd, SsdConfig};

    fn small_fs() -> FlashFs {
        FlashFs::format(Ftl::new(NandChip::new(NandConfig {
            blocks: 64,
            pages_per_block: 32,
            page_size: 4096,
            max_erase_cycles: u32::MAX,
            ..NandConfig::default()
        })))
    }

    fn base_system() -> System {
        System::new(SystemConfig::default())
    }

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
    fn echo_nic_round_trip_over_network() {
        struct Pinger {
            sent_at: Option<SimTime>,
            rtt: Option<SimDuration>,
            nic_port: PortId,
        }
        impl NetHost for Pinger {
            fn name(&self) -> &str {
                "pinger"
            }
            fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
                self.sent_at = Some(ctx.now);
                ctx.net_tx(self.nic_port, b"ping".to_vec());
            }
            fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
                assert_eq!(frame.payload, b"ping");
                self.rtt = Some(ctx.now.since(self.sent_at.unwrap()));
            }
        }

        let mut sys = base_system();
        sys.add_memctl("memctl0");
        let nic = sys.add_net_device(Box::new(SmartNic::new("nic0", EchoApp::new())));
        let nic_port = sys.device_port(nic).unwrap();
        let host_port = sys.add_host(Box::new(Pinger {
            sent_at: None,
            rtt: None,
            nic_port,
        }));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(5));
        let pinger: &Pinger = sys.host_as(host_port).unwrap();
        let rtt = pinger.rtt.expect("echo came back");
        // Two network traversals at ~1us propagation each.
        assert!(rtt > SimDuration::from_micros(2), "rtt {rtt}");
        assert!(rtt < SimDuration::from_millis(1), "rtt {rtt}");
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

    #[test]
    fn killed_device_is_fenced_and_revived_by_reset() {
        let mut sys = base_system();
        sys.add_memctl("memctl0");
        let auth = sys.add_device(Box::new(AuthDevice::new("auth0", 1, &[])));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(1));
        assert_eq!(sys.bus().alive().count(), 2);
        sys.kill_device(auth, false);
        assert_eq!(sys.bus().alive().count(), 1);
        // The bus reset pulse revives it; it re-registers via Hello.
        sys.run_for(SimDuration::from_millis(5));
        assert_eq!(sys.bus().alive().count(), 2);
        assert_eq!(sys.stats().counter("system.device_resets"), 1);
    }

    #[test]
    fn permanent_kill_stays_dead() {
        let mut sys = base_system();
        sys.add_memctl("memctl0");
        let auth = sys.add_device(Box::new(AuthDevice::new("auth0", 1, &[])));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(1));
        sys.kill_device(auth, true);
        sys.run_for(SimDuration::from_millis(10));
        assert_eq!(sys.bus().alive().count(), 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let mut sys = base_system();
            let memctl = sys.add_memctl("memctl0");
            sys.add_device(Box::new(AuthDevice::new("auth0", 0xFEED, &[("op", "pw")])));
            let mut fs = small_fs();
            fs.create("/l").unwrap();
            fs.write("/l", 0, &vec![7u8; 5000]).unwrap();
            sys.add_device(Box::new(SmartSsd::new(
                "ssd0",
                fs,
                SsdConfig {
                    exports: vec!["/l".into()],
                    file_auth: AuthMode::Sealed { secret: 0xFEED },
                    ..SsdConfig::default()
                },
            )));
            sys.add_device(Box::new(ConsoleDevice::new(
                "console0", memctl.id, "op", "pw", "/l",
            )));
            sys.power_on();
            sys.run_for(SimDuration::from_millis(30));
            (
                sys.now(),
                sys.trace().total_emitted(),
                sys.stats().counter("bus.pages_mapped"),
                sys.bus().stats().messages,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_fault_recovers_and_records_latency() {
        use lastcpu_sim::{FaultKind, FaultPlan};
        let mut plan = FaultPlan::new(1);
        plan.inject(
            SimTime::ZERO + SimDuration::from_millis(2),
            "auth0",
            FaultKind::Crash,
        );
        let mut sys = System::new(SystemConfig {
            fault_plan: Some(plan),
            ..SystemConfig::default()
        });
        sys.add_memctl("memctl0");
        sys.add_device(Box::new(AuthDevice::new("auth0", 1, &[])));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(20));
        assert_eq!(sys.bus().alive().count(), 2, "crashed device re-registered");
        assert_eq!(sys.stats().counter("fault.injected"), 1);
        let h = sys
            .stats()
            .histogram("bus.auth0.recovery_latency")
            .expect("histogram registered");
        assert_eq!(h.count(), 1, "one recovery recorded");
        assert!(
            h.mean() >= sys.config.reset_latency,
            "recovery >= reset pulse"
        );
    }

    #[test]
    fn hang_fault_is_detected_by_liveness_and_recovered() {
        use lastcpu_sim::{FaultKind, FaultPlan};
        let mut plan = FaultPlan::new(1);
        plan.inject(
            SimTime::ZERO + SimDuration::from_millis(3),
            "auth0",
            FaultKind::Hang,
        );
        let mut sys = System::new(SystemConfig {
            fault_plan: Some(plan),
            // The hang is silent: only the heartbeat sweep can notice.
            liveness_interval: Some(SimDuration::from_millis(2)),
            ..SystemConfig::default()
        });
        sys.add_memctl("memctl0");
        sys.add_device(Box::new(AuthDevice::new("auth0", 1, &[])));
        sys.power_on();
        // Default heartbeat timeout is 10ms; detection needs hang + lapse.
        sys.run_for(SimDuration::from_millis(40));
        assert_eq!(sys.bus().alive().count(), 2, "hung device recovered");
        let h = sys
            .stats()
            .histogram("bus.auth0.recovery_latency")
            .expect("histogram registered");
        assert_eq!(h.count(), 1);
        assert!(
            h.mean() >= SimDuration::from_millis(10),
            "silent hang detection is bounded below by the heartbeat timeout, got {}",
            h.mean()
        );
    }

    #[test]
    fn dropped_hello_is_retransmitted_by_rpc_retry() {
        use lastcpu_bus::RetryConfig;
        use lastcpu_sim::{FaultKind, FaultPlan};
        // Arm a drop *before* power-on: the device's very first Hello is
        // eaten on the wire. Without retries it would stay invisible until
        // something reset it; with retries it re-registers on its own.
        let mut plan = FaultPlan::new(1);
        plan.inject(SimTime::ZERO, "auth0", FaultKind::Drop { count: 1 });
        let mut sys = System::new(SystemConfig {
            fault_plan: Some(plan),
            rpc_retry: Some(RetryConfig::default()),
            ..SystemConfig::default()
        });
        sys.add_memctl("memctl0");
        sys.add_device(Box::new(AuthDevice::new("auth0", 1, &[])));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(5));
        assert_eq!(sys.bus().alive().count(), 2, "lost Hello was retried");
        assert!(sys.stats().counter("bus.auth0.retries") >= 1);
        assert_eq!(sys.stats().counter("fault.msgs_dropped"), 1);
        let rs = sys.rpc_stats().expect("retry enabled");
        assert!(rs.recovered >= 1, "completion arrived after a retry");
        assert_eq!(rs.give_ups, 0);
    }

    #[test]
    fn faulty_run_replays_bit_identically() {
        use lastcpu_bus::RetryConfig;
        use lastcpu_sim::{FaultPlan, SimTime as T};
        let run = || {
            let plan = FaultPlan::generate(
                99,
                &["auth0", "console0", "ssd0"],
                T::ZERO,
                SimDuration::from_millis(30),
                12,
            );
            let mut sys = System::new(SystemConfig {
                fault_plan: Some(plan),
                rpc_retry: Some(RetryConfig::default()),
                ..SystemConfig::default()
            });
            let memctl = sys.add_memctl("memctl0");
            sys.add_device(Box::new(AuthDevice::new("auth0", 0xFEED, &[("op", "pw")])));
            let mut fs = small_fs();
            fs.create("/l").unwrap();
            fs.write("/l", 0, &vec![7u8; 3000]).unwrap();
            sys.add_device(Box::new(SmartSsd::new(
                "ssd0",
                fs,
                SsdConfig {
                    exports: vec!["/l".into()],
                    file_auth: AuthMode::Sealed { secret: 0xFEED },
                    ..SsdConfig::default()
                },
            )));
            sys.add_device(Box::new(ConsoleDevice::new(
                "console0", memctl.id, "op", "pw", "/l",
            )));
            sys.power_on();
            sys.run_for(SimDuration::from_millis(40));
            (
                sys.now(),
                sys.trace().total_emitted(),
                sys.stats().counter("fault.injected"),
                sys.stats().counter("fault.msgs_dropped"),
                sys.stats().counter("bus.rpc_retries"),
                sys.stats().counter("system.device_resets"),
                sys.bus().stats().messages,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn busy_device_defers_events() {
        // The SSD charges flash latencies; while busy, later messages wait.
        // Covered implicitly by the end-to-end tests; here we check the
        // mechanism directly with two starts of the same device kind.
        let mut sys = base_system();
        sys.add_memctl("memctl0");
        sys.power_on();
        let n = sys.run_for(SimDuration::from_millis(1));
        assert!(n > 0);
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
        fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: Envelope) {
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
    }
}
