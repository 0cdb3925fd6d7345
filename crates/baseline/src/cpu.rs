//! The last CPU: a kernel device providing centralized control.

use lastcpu_bus::wire::Wire;
use lastcpu_bus::{
    DeviceId, Dst, Envelope, Payload, RequestId, ResourceKind, ServiceDesc, ServiceId, Status,
    Token,
};
use lastcpu_devices::device::{Device, DeviceCtx};
use lastcpu_devices::monitor::{AuthMode, Monitor, MonitorEvent};
use lastcpu_memctl::MemoryController;
use lastcpu_net::PortId;
use lastcpu_sim::{costs, DetHashMap, MetricsHub};

use crate::cost::CpuCostModel;
use crate::dumbnic::Packet;

/// The kernel's open-broker service: clients open remote services *through*
/// the kernel, which forwards and polices (the OmniX/M³X model).
pub const KERNEL_OPEN: ServiceId = ServiceId(1);

/// The kernel broker's open params: which service the client actually
/// wants, and the params to open it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerParams<'a> {
    /// The device serving it.
    pub target: DeviceId,
    /// The service.
    pub service: ServiceId,
    /// The token to open it with.
    pub token: Token,
    /// The open params the service itself takes.
    pub inner: &'a [u8],
}

// This crate reaches `lastcpu_snap`'s declaration macros through `lastcpu_sim`.
lastcpu_sim::__snap::record!(wire lastcpu_bus::wire; BrokerParams<'a> {
    target, service, token, inner,
});

/// Environment handed to the CPU-hosted application.
pub struct KernelEnv<'a, 'b> {
    /// The execution context.
    pub ctx: &'a mut DeviceCtx<'b>,
    /// The kernel's driver stack (discovery, sessions) — the CPU talks to
    /// smart devices with the same protocol everyone else uses.
    pub monitor: &'a mut Monitor,
    /// The NIC the kernel currently routes packets through, if any.
    pub nic: Option<DeviceId>,
    cost: CpuCostModel,
}

impl KernelEnv<'_, '_> {
    /// Sends a packet out through the dumb NIC (syscall + kernel copy).
    pub fn send_packet(&mut self, dst: PortId, payload: Vec<u8>) {
        let Some(nic) = self.nic else { return };
        self.ctx
            .busy(self.cost.syscall + self.cost.copy(payload.len()));
        let data = Packet {
            port: dst.0,
            payload: &payload,
        }
        .encode();
        self.ctx.send_bus(
            Dst::Device(nic),
            Payload::AppData {
                conn: lastcpu_bus::ConnId(0),
                data,
            },
        );
    }
}

/// An application running on the CPU (the conventional deployment).
pub trait CpuApp: 'static {
    /// See [`Device::attach`].
    fn attach(&mut self, _stats: &MetricsHub) {}

    /// Called once the CPU is registered on the bus.
    fn on_start(&mut self, env: &mut KernelEnv<'_, '_>);

    /// A packet arrived from a NIC (already copied into kernel memory).
    fn on_packet(&mut self, env: &mut KernelEnv<'_, '_>, src: PortId, payload: Vec<u8>);

    /// A monitor event for one of the app's driver-stack operations.
    fn on_event(&mut self, env: &mut KernelEnv<'_, '_>, ev: MonitorEvent);

    /// An application timer fired.
    fn on_timer(&mut self, _env: &mut KernelEnv<'_, '_>, _token: u64) {}
}

/// A do-nothing app for control-plane-only baselines.
pub struct IdleApp;

impl CpuApp for IdleApp {
    fn on_start(&mut self, _env: &mut KernelEnv<'_, '_>) {}

    fn on_packet(&mut self, _env: &mut KernelEnv<'_, '_>, _src: PortId, _payload: Vec<u8>) {}

    fn on_event(&mut self, _env: &mut KernelEnv<'_, '_>, _ev: MonitorEvent) {}
}

/// Kernel counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuStats {
    /// Interrupts fielded.
    pub interrupts: u64,
    /// Syscall-class operations served.
    pub syscalls: u64,
    /// Opens brokered.
    pub opens_brokered: u64,
    /// Directory lookups served.
    pub lookups: u64,
    /// Packets moved through the kernel.
    pub packets: u64,
}

/// The CPU device: kernel + hosted application.
pub struct CpuDevice<A> {
    name: String,
    monitor: Monitor,
    memctl: MemoryController,
    /// Reply buffer lent to `memctl` per syscall (as `MemCtlDevice` does,
    /// so E1's two arms pay the same host cost); not state.
    memctl_out: Vec<Envelope>,
    cost: CpuCostModel,
    /// Central directory: service name → (device, descriptor).
    directory: Vec<(DeviceId, ServiceDesc)>,
    /// Broker bookkeeping: our forwarded open op → (client, client req).
    brokered: DetHashMap<u64, (DeviceId, RequestId)>,
    nic: Option<DeviceId>,
    app: A,
    app_started: bool,
    probe_op: Option<u64>,
    stats: CpuStats,
}

impl<A: CpuApp> CpuDevice<A> {
    /// Creates the CPU with bus address `id`, managing `dram_bytes` of
    /// memory, hosting `app`.
    pub fn new(name: &str, id: DeviceId, dram_bytes: u64, app: A) -> Self {
        let mut monitor = Monitor::new();
        monitor.add_service(
            ServiceDesc {
                id: KERNEL_OPEN,
                name: "kernel".into(),
                resource: ResourceKind::Compute,
            },
            AuthMode::Open, // the kernel forwards the inner token
        );
        CpuDevice {
            name: name.to_string(),
            monitor,
            memctl: MemoryController::new(id, dram_bytes),
            memctl_out: Vec::new(),
            cost: CpuCostModel::default(),
            directory: Vec::new(),
            brokered: DetHashMap::default(),
            nic: None,
            app,
            app_started: false,
            probe_op: None,
            stats: CpuStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// The hosted application.
    pub fn app(&self) -> &A {
        &self.app
    }

    fn env<'a, 'b>(
        ctx: &'a mut DeviceCtx<'b>,
        monitor: &'a mut Monitor,
        nic: Option<DeviceId>,
        cost: CpuCostModel,
    ) -> KernelEnv<'a, 'b> {
        KernelEnv {
            ctx,
            monitor,
            nic,
            cost,
        }
    }

    fn forward_memctl(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) {
        self.memctl.handle(env, &mut self.memctl_out);
        for e in self.memctl_out.drain(..) {
            ctx.send_bus_with_req(e.dst, e.req, e.payload);
        }
    }

    fn handle_kernel_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: MonitorEvent) {
        match ev {
            MonitorEvent::Registered => {
                // Boot-time probe: devices that announced before the kernel
                // was up answer this sweep, seeding the directory (the
                // baseline analogue of a driver bus scan).
                self.probe_op = Some(self.monitor.discover(ctx, "*"));
                if !self.app_started {
                    self.app_started = true;
                    let mut env = Self::env(ctx, &mut self.monitor, self.nic, self.cost);
                    self.app.on_start(&mut env);
                }
            }
            MonitorEvent::OpenRequested {
                req,
                from,
                service,
                params,
                ..
            } if service == KERNEL_OPEN => {
                // Broker an open on the client's behalf (syscall).
                ctx.busy(self.cost.syscall + self.cost.context_switch);
                self.stats.syscalls += 1;
                match BrokerParams::decode(&params) {
                    Ok(p) => {
                        self.stats.opens_brokered += 1;
                        let inner = p.inner.to_vec();
                        let op = self.monitor.open(ctx, p.target, p.service, p.token, inner);
                        self.brokered.insert(op, (from, req));
                    }
                    Err(_) => {
                        self.monitor.reject_open(ctx, req, from, Status::BadRequest);
                    }
                }
            }
            MonitorEvent::OpenDone { op, result, target } => {
                if let Some((client, client_req)) = self.brokered.remove(&op) {
                    ctx.busy(self.cost.syscall);
                    let payload = match result {
                        Ok((conn, shm_bytes, params)) => Payload::OpenResponse {
                            status: Status::Ok,
                            conn,
                            shm_bytes,
                            params,
                        },
                        Err(status) => Payload::OpenResponse {
                            status,
                            conn: lastcpu_bus::ConnId(0),
                            shm_bytes: 0,
                            params: vec![],
                        },
                    };
                    ctx.send_bus_with_req(Dst::Device(client), client_req, payload);
                } else {
                    // One of the app's own opens.
                    let mut env = Self::env(ctx, &mut self.monitor, self.nic, self.cost);
                    self.app
                        .on_event(&mut env, MonitorEvent::OpenDone { op, result, target });
                }
            }
            MonitorEvent::DiscoveryDone { op, hits } if Some(op) == self.probe_op => {
                self.probe_op = None;
                for (dev, svc) in hits {
                    self.directory
                        .retain(|(d, s)| !(*d == dev && s.id == svc.id));
                    self.directory.push((dev, svc));
                }
            }
            other => {
                let mut env = Self::env(ctx, &mut self.monitor, self.nic, self.cost);
                self.app.on_event(&mut env, other);
            }
        }
    }
}

impl<A: CpuApp> Device for CpuDevice<A> {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        "cpu"
    }

    fn attach(&mut self, stats: &MetricsHub) {
        self.app.attach(stats);
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.busy(costs::CPU_BOOT);
        let name = self.name.clone();
        self.monitor.start(ctx, &name, "cpu");
        self.monitor.enable_heartbeat(ctx, costs::DEVICE_HEARTBEAT);
        // The kernel is the memory manager: claim the Memory class.
        let mut out = Vec::new();
        self.memctl.on_start(&mut out);
        for e in out {
            ctx.send_bus_with_req(e.dst, e.req, e.payload);
        }
    }

    fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) {
        // Every arrival is an interrupt.
        ctx.busy(self.cost.interrupt_entry);
        self.stats.interrupts += 1;
        match &env.payload {
            // Passive directory construction: the kernel sees every
            // announcement (global state — exactly what §2.2 forbids the
            // bus, and exactly what a kernel keeps).
            Payload::Announce { service } => {
                self.directory
                    .retain(|(d, s)| !(*d == env.src && s.id == service.id));
                self.directory.push((env.src, service.clone()));
            }
            Payload::Withdraw { service } => {
                self.directory
                    .retain(|(d, s)| !(*d == env.src && s.id == *service));
            }
            // Answers to the kernel's boot probe (and any stray hits).
            // Also forwarded to the monitor: hits may belong to a discovery
            // the hosted app started.
            Payload::QueryHit { device, service } => {
                self.directory
                    .retain(|(d, s)| !(*d == *device && s.id == service.id));
                self.directory.push((*device, service.clone()));
                if let Some(ev) = self.monitor.handle(ctx, env) {
                    self.handle_kernel_event(ctx, ev);
                }
            }
            // Centralized discovery: a directory lookup, not a broadcast.
            Payload::Query { pattern } if env.dst == Dst::Device(self.memctl.id()) => {
                ctx.busy(self.cost.syscall);
                self.stats.syscalls += 1;
                self.stats.lookups += 1;
                for (dev, svc) in &self.directory {
                    let matches = match pattern.strip_suffix('*') {
                        Some(prefix) => svc.name.starts_with(prefix),
                        None => **pattern == *svc.name,
                    };
                    if matches {
                        ctx.send_bus_with_req(
                            Dst::Device(env.src),
                            env.req,
                            Payload::QueryHit {
                                device: *dev,
                                service: svc.clone(),
                            },
                        );
                    }
                }
            }
            // Memory management syscalls.
            Payload::MemAlloc { .. } | Payload::MemFree { .. } | Payload::Share { .. } => {
                ctx.busy(self.cost.syscall);
                self.stats.syscalls += 1;
                self.forward_memctl(ctx, env);
            }
            Payload::DeviceFailed { .. } => {
                self.forward_memctl(ctx, env);
                if let Some(ev) = self.monitor.handle(ctx, env) {
                    self.handle_kernel_event(ctx, ev);
                }
            }
            // Packets from dumb NICs: copy in, hand to the app.
            Payload::AppData { data, .. } => {
                ctx.busy(self.cost.interrupt_with_copy(data.len()) + self.cost.context_switch);
                self.stats.packets += 1;
                self.nic = Some(env.src);
                if let Ok(Packet { port, payload }) = Packet::decode(data) {
                    let mut kenv = Self::env(ctx, &mut self.monitor, self.nic, self.cost);
                    self.app
                        .on_packet(&mut kenv, PortId(port), payload.to_vec());
                }
            }
            _ => {
                if let Some(ev) = self.monitor.handle(ctx, env) {
                    self.handle_kernel_event(ctx, ev);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if !Monitor::owns_timer(token) {
            let mut env = Self::env(ctx, &mut self.monitor, self.nic, self.cost);
            self.app.on_timer(&mut env, token);
        } else if let Some(ev) = self.monitor.on_timer(ctx, token) {
            self.handle_kernel_event(ctx, ev);
        }
    }

    fn on_reset(&mut self, ctx: &mut DeviceCtx<'_>) {
        // A kernel panic + reboot: everything is lost.
        self.monitor.reset();
        self.directory.clear();
        self.brokered.clear();
        self.app_started = false;
        self.probe_op = None;
        ctx.busy(costs::CPU_BOOT);
        let name = self.name.clone();
        self.monitor.start(ctx, &name, "cpu");
        self.monitor.enable_heartbeat(ctx, costs::DEVICE_HEARTBEAT);
        let mut out = Vec::new();
        self.memctl.on_start(&mut out);
        for e in out {
            ctx.send_bus_with_req(e.dst, e.req, e.payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_core::{HostCtx, NetHost, System, SystemConfig};
    use lastcpu_devices::firmware::Firmware;
    use lastcpu_devices::flash::{NandChip, NandConfig};
    use lastcpu_devices::fs::FlashFs;
    use lastcpu_devices::ftl::Ftl;
    use lastcpu_devices::ssd::{FileOpen, SmartSsd, SsdConfig};
    use lastcpu_net::Frame;
    use lastcpu_sim::SimDuration;

    fn small_fs() -> FlashFs {
        FlashFs::format(Ftl::new(NandChip::new(NandConfig {
            blocks: 64,
            pages_per_block: 32,
            page_size: 4096,
            max_erase_cycles: u32::MAX,
            ..NandConfig::default()
        })))
    }

    #[test]
    fn broker_params_round_trip() {
        let p = BrokerParams {
            target: DeviceId(3),
            service: ServiceId(100),
            token: Token(42),
            inner: &[1, 2],
        };
        assert_eq!(BrokerParams::decode(&p.encode()), Ok(p));
        assert!(BrokerParams::decode(&[1]).is_err());
    }

    /// A client device that opens an SSD file service *through* the kernel
    /// broker, as baseline clients must.
    struct BrokerClient {
        name: String,
        monitor: Monitor,
        cpu: DeviceId,
        query_req: Option<RequestId>,
        target: Option<(DeviceId, ServiceId)>,
        open_op: Option<u64>,
        pub got_conn: Option<lastcpu_bus::ConnId>,
        pub denied: bool,
    }

    impl BrokerClient {
        fn new(name: &str, cpu: DeviceId) -> Self {
            BrokerClient {
                name: name.into(),
                monitor: Monitor::new(),
                cpu,
                query_req: None,
                target: None,
                open_op: None,
                got_conn: None,
                denied: false,
            }
        }
    }

    impl Firmware for BrokerClient {
        const KIND: &'static str = "client";
        const HEARTBEAT: SimDuration = SimDuration::from_millis(2);

        fn name(&self) -> &str {
            &self.name
        }

        fn monitor(&mut self) -> &mut Monitor {
            &mut self.monitor
        }

        /// Centralized discovery: a unicast lookup at the kernel, answered
        /// outside any discovery the monitor started.
        fn intercept(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) -> bool {
            let Payload::QueryHit { device, service } = &env.payload else {
                return false;
            };
            if Some(env.req) != self.query_req || self.target.is_some() {
                return false;
            }
            self.target = Some((*device, service.id));
            // Open through the broker.
            let inner = FileOpen { pasid: ctx.dev.0 }.encode();
            let params = BrokerParams {
                target: *device,
                service: service.id,
                token: Token::NONE,
                inner: &inner,
            };
            let op = self
                .monitor
                .open(ctx, self.cpu, KERNEL_OPEN, Token::NONE, params.encode());
            self.open_op = Some(op);
            true
        }

        fn on_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: MonitorEvent) {
            match ev {
                MonitorEvent::Registered => {
                    ctx.set_timer(SimDuration::from_micros(100), 10);
                }
                MonitorEvent::OpenDone { op, result, .. } if Some(op) == self.open_op => {
                    match result {
                        Ok((conn, shm, _)) => {
                            assert!(shm > 0, "file conns demand shared memory");
                            self.got_conn = Some(conn);
                        }
                        Err(_) => self.denied = true,
                    }
                }
                _ => {}
            }
        }

        /// Token 10 = retry the kernel lookup until it answers — a baseline
        /// client cannot make progress before the kernel boots.
        fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
            if token == 10 && self.target.is_none() {
                self.query_req = Some(ctx.send_bus(
                    Dst::Device(self.cpu),
                    Payload::Query {
                        pattern: "file:/data/kv.db".into(),
                    },
                ));
                ctx.set_timer(SimDuration::from_millis(1), 10);
            }
        }
    }

    #[test]
    fn kernel_brokers_opens_and_builds_directory() {
        let mut sys = System::new(SystemConfig::default());
        let cpu = sys.add_device_with("cpu0", "cpu", |id, dram| {
            Box::new(CpuDevice::new("cpu0", id, dram, IdleApp))
        });
        let mut fs = small_fs();
        fs.create("/data/kv.db").unwrap();
        sys.add_device(Box::new(SmartSsd::new(
            "ssd0",
            fs,
            SsdConfig {
                exports: vec!["/data/kv.db".into()],
                ..SsdConfig::default()
            },
        )));
        let client = sys.add_device(Box::new(BrokerClient::new("client0", cpu.id)));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(60));

        let cpu_dev: &CpuDevice<IdleApp> = sys.device_as(cpu).unwrap();
        assert!(cpu_dev.directory.len() >= 3, "fs + loader + file service");
        assert_eq!(cpu_dev.stats().opens_brokered, 1);
        assert!(cpu_dev.stats().interrupts > 0);
        let c: &BrokerClient = sys.device_as(client).unwrap();
        assert!(c.got_conn.is_some(), "brokered open completed");
        assert!(!c.denied);
    }

    /// CPU-hosted echo app: the conventional data path.
    struct EchoCpuApp {
        echoed: u64,
    }

    impl CpuApp for EchoCpuApp {
        fn on_start(&mut self, _env: &mut KernelEnv<'_, '_>) {}

        fn on_packet(&mut self, env: &mut KernelEnv<'_, '_>, src: PortId, payload: Vec<u8>) {
            self.echoed += 1;
            env.send_packet(src, payload);
        }

        fn on_event(&mut self, _env: &mut KernelEnv<'_, '_>, _ev: MonitorEvent) {}
    }

    struct PingHost {
        nic_port: PortId,
        sent_at: Option<lastcpu_sim::SimTime>,
        rtt: Option<SimDuration>,
    }

    impl NetHost for PingHost {
        fn name(&self) -> &str {
            "ping"
        }

        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            // Retry until the machine is up (the kernel boots last).
            ctx.set_timer(SimDuration::from_millis(1), 1);
        }

        fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
            assert_eq!(frame.payload, b"ping");
            if self.rtt.is_none() {
                self.rtt = Some(ctx.now.since(self.sent_at.unwrap()));
            }
        }

        fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
            self.retry(ctx);
        }
    }

    impl PingHost {
        fn retry(&mut self, ctx: &mut HostCtx<'_>) {
            if self.rtt.is_none() {
                self.sent_at = Some(ctx.now);
                ctx.net_tx(self.nic_port, b"ping".to_vec());
                ctx.set_timer(SimDuration::from_millis(2), 1);
            }
        }
    }

    #[test]
    fn cpu_mediated_echo_costs_more_than_smart_nic_echo() {
        // Baseline: packet crosses the kernel twice.
        let mut sys = System::new(SystemConfig::default());
        let cpu = sys.add_device_with("cpu0", "cpu", |id, dram| {
            Box::new(CpuDevice::new("cpu0", id, dram, EchoCpuApp { echoed: 0 }))
        });
        let nic = sys.add_net_device(Box::new(crate::dumbnic::DumbNic::new("nic0", cpu.id)));
        let nic_port = sys.device_port(nic).unwrap();
        let host_port = sys.add_host(Box::new(PingHost {
            nic_port,
            sent_at: None,
            rtt: None,
        }));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(60));
        let h: &PingHost = sys.host_as(host_port).unwrap();
        let baseline_rtt = h.rtt.expect("baseline echo returned");
        let cpu_dev: &CpuDevice<EchoCpuApp> = sys.device_as(cpu).unwrap();
        assert_eq!(cpu_dev.app().echoed, 1);
        assert!(cpu_dev.stats().packets == 1);

        // CPU-less: the smart NIC answers at the edge.
        let mut sys2 = System::new(SystemConfig::default());
        sys2.add_memctl("memctl0");
        let snic = sys2.add_net_device(Box::new(lastcpu_devices::nic::SmartNic::new(
            "nic0",
            lastcpu_devices::nic::EchoApp::new(),
        )));
        let snic_port = sys2.device_port(snic).unwrap();
        let host2 = sys2.add_host(Box::new(PingHost {
            nic_port: snic_port,
            sent_at: None,
            rtt: None,
        }));
        sys2.power_on();
        sys2.run_for(SimDuration::from_millis(60));
        let h2: &PingHost = sys2.host_as(host2).unwrap();
        let smart_rtt = h2.rtt.expect("smart echo returned");

        assert!(
            baseline_rtt > smart_rtt,
            "kernel detour must cost: baseline {baseline_rtt} vs smart {smart_rtt}"
        );
    }
}
