//! Driver devices the experiments use to exercise the system.

use std::sync::Arc;

use lastcpu_baseline::{BrokerParams, KERNEL_OPEN};
use lastcpu_bus::wire::Wire;
use lastcpu_bus::{ConnId, DeviceId, Dst, Envelope, Payload, RequestId, ServiceId, Token};
use lastcpu_core::devices::device::{Device, DeviceCtx};
use lastcpu_core::devices::firmware::Firmware;
use lastcpu_core::devices::monitor::{Monitor, MonitorEvent};
use lastcpu_core::devices::session::{FileSession, SessionEvent};
use lastcpu_core::devices::ssd::FileOpen;
use lastcpu_mem::{Pasid, VirtAddr, PAGE_SIZE};
use lastcpu_sim::{Histogram, SimDuration, SimTime};
use lastcpu_snap::{SnapReader, SnapWriter};

/// How a setup client reaches control-plane services.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMode {
    /// The paper's design: SSDP discovery, direct opens, memory-controller
    /// device.
    Decentralized,
    /// The baseline: directory lookup, open brokering, and memory
    /// management all at the kernel.
    Centralized {
        /// The CPU's bus address.
        cpu: DeviceId,
    },
}

/// A client that repeatedly runs the full Figure-2 setup sequence
/// (discover → open → alloc → share → queue doorbell) and records how long
/// each complete setup took. The E1 experiment runs many concurrently.
pub struct SetupClient {
    name: String,
    monitor: Monitor,
    mode: ControlMode,
    file_pattern: Arc<str>,
    iterations: u32,
    completed: u32,
    begun_at: SimTime,
    /// Setup latencies, one per completed iteration.
    pub latencies: Vec<SimDuration>,
    /// Whether any iteration failed.
    pub failed: bool,
    state: SetupState,
    session: Option<FileSession>,
    // Centralized-mode bookkeeping.
    query_req: Option<RequestId>,
    target: Option<(DeviceId, ServiceId)>,
    open_op: u64,
    alloc_op: u64,
    share_op: u64,
    conn: ConnId,
    region: u64,
    retry_timer_armed: bool,
    /// The memory controller's address (decentralized mode), set by the
    /// experiment after system assembly — mirrors apps that discover it
    /// once at boot rather than per setup.
    pub memctl_hint_value: DeviceId,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetupState {
    Boot,
    Discovering,
    Opening,
    Allocating,
    Sharing,
    Done,
}

lastcpu_snap::tags! { SetupState {
    Boot = 0, Discovering = 1, Opening = 2, Allocating = 3, Sharing = 4, Done = 5,
} }

lastcpu_snap::variants! { ControlMode { Decentralized = 0 {}, Centralized = 1 { cpu } } }

lastcpu_snap::fields! { SetupClient |self| {
    name, mut monitor, mode, file_pattern, iterations, completed, begun_at, latencies, failed,
    state, session, query_req, target, open_op, alloc_op, share_op, conn, region,
    retry_timer_armed, memctl_hint_value,
} }

const TOKEN_RETRY: u64 = 1;
const SETUP_VA: u64 = 0x3000_0000;

impl SetupClient {
    /// A client that runs `iterations` setups for `file_pattern`.
    pub fn new(name: &str, mode: ControlMode, file_pattern: &str, iterations: u32) -> Self {
        SetupClient {
            name: name.to_string(),
            monitor: Monitor::new(),
            mode,
            file_pattern: file_pattern.into(),
            iterations,
            completed: 0,
            begun_at: SimTime::ZERO,
            latencies: Vec::new(),
            failed: false,
            state: SetupState::Boot,
            session: None,
            query_req: None,
            target: None,
            open_op: 0,
            alloc_op: 0,
            share_op: 0,
            conn: ConnId(0),
            region: 0,
            retry_timer_armed: false,
            memctl_hint_value: DeviceId(0),
        }
    }

    /// Sets how long each discovery waits for answers (ablation A1; the
    /// monitor's default is 50 µs).
    pub fn with_discovery_window(mut self, window: SimDuration) -> Self {
        self.monitor.set_discovery_window(window);
        self
    }

    /// Whether all iterations completed.
    pub fn is_done(&self) -> bool {
        self.completed >= self.iterations
    }

    fn begin_iteration(&mut self, ctx: &mut DeviceCtx<'_>) {
        self.begun_at = ctx.now + ctx.elapsed();
        self.state = SetupState::Discovering;
        match self.mode {
            ControlMode::Decentralized => {
                self.open_op = self.monitor.discover(ctx, Arc::clone(&self.file_pattern));
            }
            ControlMode::Centralized { cpu } => {
                self.query_req = Some(ctx.send_bus(
                    Dst::Device(cpu),
                    Payload::Query {
                        pattern: Arc::clone(&self.file_pattern),
                    },
                ));
                if !self.retry_timer_armed {
                    self.retry_timer_armed = true;
                    ctx.set_timer(SimDuration::from_millis(1), TOKEN_RETRY);
                }
            }
        }
    }

    fn finish_iteration(&mut self, ctx: &mut DeviceCtx<'_>) {
        let done_at = ctx.now + ctx.elapsed();
        self.latencies.push(done_at.since(self.begun_at));
        self.completed += 1;
        self.state = SetupState::Done;
        self.session = None;
        if self.completed < self.iterations {
            // Tear down: close the connection and free the region so the
            // next iteration starts clean.
            if self.conn != ConnId(0) {
                self.monitor.close(ctx, self.conn);
            }
            if self.region != 0 {
                let memctl = match self.mode {
                    ControlMode::Centralized { cpu } => cpu,
                    ControlMode::Decentralized => self.memctl_hint(),
                };
                self.monitor.free_region(ctx, memctl, self.region);
            }
            self.conn = ConnId(0);
            self.region = 0;
            self.begin_iteration(ctx);
        }
    }

    fn handle_decentralized(&mut self, ctx: &mut DeviceCtx<'_>, ev: &MonitorEvent) {
        // In decentralized mode a FileSession drives everything after
        // discovery.
        if let Some(session) = self.session.as_mut() {
            match session.on_event(ctx, &mut self.monitor, ev) {
                Some(SessionEvent::Ready { conn, .. }) => {
                    self.conn = conn;
                    self.region = session.region();
                    self.finish_iteration(ctx);
                    return;
                }
                Some(SessionEvent::Failed { .. }) => {
                    self.failed = true;
                    return;
                }
                _ => {}
            }
        }
        if let (SetupState::Discovering, MonitorEvent::DiscoveryDone { op, hits }) =
            (self.state, ev)
        {
            if *op != self.open_op {
                return;
            }
            let found = hits
                .iter()
                .find(|(_, s)| Monitor::match_pattern(&self.file_pattern, &s.name));
            match found {
                Some((dev, svc)) => {
                    // The memory controller is discovered once (lazily) by
                    // the session config; simplest is a fixed "memory"
                    // lookup each time — but here the bus-level cost of
                    // interest is the whole handshake, so the session
                    // rediscovers nothing: we find memctl via hits cache.
                    let mut s = FileSession::new(
                        self.memctl_hint(),
                        *dev,
                        svc.id,
                        Token::NONE,
                        Pasid(ctx.dev.0),
                        SETUP_VA,
                        16,
                    );
                    self.state = SetupState::Opening;
                    s.start(ctx, &mut self.monitor);
                    self.session = Some(s);
                }
                None => {
                    // Target not announced yet: retry.
                    self.open_op = self.monitor.discover(ctx, Arc::clone(&self.file_pattern));
                }
            }
        }
    }

    fn memctl_hint(&self) -> DeviceId {
        self.memctl_hint_value
    }

    fn handle_centralized_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: &MonitorEvent) {
        let ControlMode::Centralized { cpu } = self.mode else {
            return;
        };
        match (self.state, ev) {
            (SetupState::Opening, MonitorEvent::OpenDone { op, result, .. })
                if *op == self.open_op =>
            {
                match result {
                    Ok((conn, _shm, _)) => {
                        self.conn = *conn;
                        self.state = SetupState::Allocating;
                        self.alloc_op = self.monitor.alloc_shared(
                            ctx,
                            cpu,
                            ctx.dev.0,
                            SETUP_VA,
                            lastcpu_core::devices::ssd::FILE_CONN_SHM,
                            3,
                        );
                    }
                    Err(_) => self.failed = true,
                }
            }
            (SetupState::Allocating, MonitorEvent::AllocDone { op, result })
                if *op == self.alloc_op =>
            {
                match result {
                    Ok(region) => {
                        self.region = *region;
                        self.state = SetupState::Sharing;
                        let target = self.target.expect("set at discovery").0;
                        self.share_op = self.monitor.share(
                            ctx,
                            cpu,
                            self.region,
                            target,
                            ctx.dev.0,
                            SETUP_VA,
                            3,
                        );
                    }
                    Err(_) => self.failed = true,
                }
            }
            (SetupState::Sharing, MonitorEvent::ShareDone { op, status })
                if *op == self.share_op =>
            {
                if status.is_ok() {
                    // Queue layout + setup doorbell (the last Figure-2 step).
                    let target = self.target.expect("set at discovery").0;
                    let mut view = ctx.dma_view(Pasid(ctx.dev.0));
                    match lastcpu_core::devices::ssd::FileClient::create(&mut view, SETUP_VA, 16) {
                        Ok((_client, setup)) => {
                            ctx.doorbell(target, self.conn, setup);
                            self.finish_iteration(ctx);
                        }
                        Err(_) => self.failed = true,
                    }
                } else {
                    self.failed = true;
                }
            }
            _ => {}
        }
    }
}

impl Firmware for SetupClient {
    const KIND: &'static str = "setup-client";
    const HEARTBEAT: SimDuration = SimDuration::from_millis(5);

    fn name(&self) -> &str {
        &self.name
    }

    fn monitor(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    /// Centralized mode: the kernel's unicast `QueryHit` is ours, not the
    /// monitor's (it answers no discovery the monitor started).
    fn intercept(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) -> bool {
        let ControlMode::Centralized { cpu } = self.mode else {
            return false;
        };
        match (&env.payload, self.state) {
            (Payload::QueryHit { device, service }, SetupState::Discovering)
                if Some(env.req) == self.query_req =>
            {
                self.target = Some((*device, service.id));
                self.state = SetupState::Opening;
                let inner = FileOpen { pasid: ctx.dev.0 }.encode();
                let params = BrokerParams {
                    target: *device,
                    service: service.id,
                    token: Token::NONE,
                    inner: &inner,
                };
                self.open_op =
                    self.monitor
                        .open(ctx, cpu, KERNEL_OPEN, Token::NONE, params.encode());
                true
            }
            _ => false,
        }
    }

    fn on_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: MonitorEvent) {
        match (ev, self.mode) {
            (MonitorEvent::Registered, _) => {
                if self.state == SetupState::Boot {
                    self.begin_iteration(ctx);
                }
            }
            (ev, ControlMode::Decentralized) => self.handle_decentralized(ctx, &ev),
            (ev, ControlMode::Centralized { .. }) => self.handle_centralized_event(ctx, &ev),
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token == TOKEN_RETRY {
            self.retry_timer_armed = false;
            if self.state == SetupState::Discovering && !self.is_done() {
                // Kernel not up yet or lookup lost: retry.
                self.begin_iteration(ctx);
            } else if !self.is_done() {
                self.retry_timer_armed = true;
                ctx.set_timer(SimDuration::from_millis(1), TOKEN_RETRY);
            }
        }
    }

    fn snapshot_state(&self, w: &mut SnapWriter) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Snapshot::snapshot(self, w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Restore::restore(self, r)
    }
}

/// A device that answers every doorbell with a doorbell — the reflector for
/// data-plane latency probes.
pub struct DoorbellPonger {
    name: String,
}

impl DoorbellPonger {
    /// A fresh reflector.
    pub fn new(name: &str) -> Self {
        DoorbellPonger {
            name: name.to_string(),
        }
    }
}

impl Device for DoorbellPonger {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        "doorbell-ponger"
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: self.name.clone(),
                kind: "doorbell-ponger".into(),
            },
        );
        ctx.set_timer(SimDuration::from_millis(2), 1);
    }

    fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) {
        if let Payload::Doorbell { conn, value } = env.payload {
            ctx.doorbell(env.src, conn, value);
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token == 1 {
            ctx.send_bus(Dst::Bus, Payload::Heartbeat);
            ctx.set_timer(SimDuration::from_millis(2), 1);
        }
    }
}

/// Sends a doorbell to a [`DoorbellPonger`] on a fixed period and records
/// round-trip times — the data-plane latency probe for E6.
pub struct DoorbellPinger {
    name: String,
    peer: DeviceId,
    period: SimDuration,
    sent_at: Option<SimTime>,
    /// Round-trip time distribution.
    pub rtt: Histogram,
}

impl DoorbellPinger {
    /// A pinger aimed at `peer`, firing every `period`.
    pub fn new(name: &str, peer: DeviceId, period: SimDuration) -> Self {
        DoorbellPinger {
            name: name.to_string(),
            peer,
            period,
            sent_at: None,
            rtt: Histogram::new(),
        }
    }
}

impl Device for DoorbellPinger {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        "doorbell-pinger"
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: self.name.clone(),
                kind: "doorbell-pinger".into(),
            },
        );
        ctx.set_timer(SimDuration::from_millis(2), 1);
        ctx.set_timer(self.period, 2);
    }

    fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) {
        if let Payload::Doorbell { .. } = env.payload {
            if let Some(at) = self.sent_at.take() {
                self.rtt.record(ctx.now.since(at));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        match token {
            1 => {
                ctx.send_bus(Dst::Bus, Payload::Heartbeat);
                ctx.set_timer(SimDuration::from_millis(2), 1);
            }
            2 => {
                if self.sent_at.is_none() {
                    self.sent_at = Some(ctx.now);
                    ctx.doorbell(self.peer, ConnId(1), 0);
                }
                ctx.set_timer(self.period, 2);
            }
            _ => {}
        }
    }
}

/// Generates control-plane load at a configurable rate (E6's interference
/// source): bulk `AppData` payloads tunneled over the control path, the way
/// a kernel-mediated system moves buffers — the truly damaging case on a
/// conflated interconnect.
pub struct ControlStorm {
    name: String,
    interval: SimDuration,
    bulk_bytes: usize,
    sink: DeviceId,
    /// Messages sent.
    pub sent: u64,
}

impl ControlStorm {
    /// A storm generator emitting `bulk_bytes` of `AppData` to `sink` every
    /// `interval`.
    pub fn bulk(name: &str, interval: SimDuration, bulk_bytes: usize, sink: DeviceId) -> Self {
        ControlStorm {
            name: name.to_string(),
            interval,
            bulk_bytes,
            sink,
            sent: 0,
        }
    }
}

impl Device for ControlStorm {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        "control-storm"
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: self.name.clone(),
                kind: "control-storm".into(),
            },
        );
        ctx.set_timer(SimDuration::from_millis(2), 1);
        ctx.set_timer(self.interval, 2);
    }

    fn on_message(&mut self, _ctx: &mut DeviceCtx<'_>, _env: &Envelope) {}

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        match token {
            1 => {
                ctx.send_bus(Dst::Bus, Payload::Heartbeat);
                ctx.set_timer(SimDuration::from_millis(2), 1);
            }
            2 => {
                let data = vec![0u8; self.bulk_bytes];
                let payload = Payload::AppData {
                    conn: ConnId(0),
                    data,
                };
                ctx.send_bus(Dst::Device(self.sink), payload);
                self.sent += 1;
                ctx.set_timer(self.interval, 2);
            }
            _ => {}
        }
    }
}

/// A device announcing `n` services — population for the discovery
/// experiment (E7).
pub struct Announcer {
    name: String,
    monitor: Monitor,
}

impl Announcer {
    /// A device announcing `services` services named `svc:<name>:<i>`.
    pub fn new(name: &str, services: u16) -> Self {
        let mut monitor = Monitor::new();
        for i in 0..services {
            monitor.add_service(
                lastcpu_bus::ServiceDesc {
                    id: ServiceId(i + 1),
                    name: format!("svc:{name}:{i}"),
                    resource: lastcpu_bus::ResourceKind::Compute,
                },
                lastcpu_core::devices::monitor::AuthMode::Open,
            );
        }
        Announcer {
            name: name.to_string(),
            monitor,
        }
    }
}

impl Firmware for Announcer {
    const KIND: &'static str = "announcer";
    const HEARTBEAT: SimDuration = SimDuration::from_millis(5);

    fn name(&self) -> &str {
        &self.name
    }

    fn monitor(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    fn on_event(&mut self, _ctx: &mut DeviceCtx<'_>, _ev: MonitorEvent) {}
}

/// Runs discovery sweeps and records their latency (E7's prober).
pub struct DiscoverProbe {
    name: String,
    monitor: Monitor,
    pattern: Arc<str>,
    iterations: u32,
    op: u64,
    begun: SimTime,
    /// Latency of each completed discovery.
    pub latencies: Vec<SimDuration>,
    /// Hits in the last discovery.
    pub last_hits: usize,
}

impl DiscoverProbe {
    /// A probe discovering `pattern` `iterations` times.
    pub fn new(name: &str, pattern: &str, iterations: u32) -> Self {
        DiscoverProbe {
            name: name.to_string(),
            monitor: Monitor::new(),
            pattern: pattern.into(),
            iterations,
            op: 0,
            begun: SimTime::ZERO,
            latencies: Vec::new(),
            last_hits: 0,
        }
    }

    /// Whether all sweeps completed.
    pub fn is_done(&self) -> bool {
        self.latencies.len() as u32 >= self.iterations
    }

    fn kick(&mut self, ctx: &mut DeviceCtx<'_>) {
        self.begun = ctx.now + ctx.elapsed();
        self.op = self.monitor.discover(ctx, Arc::clone(&self.pattern));
    }
}

impl Firmware for DiscoverProbe {
    const KIND: &'static str = "discover-probe";
    const HEARTBEAT: SimDuration = SimDuration::from_millis(5);

    fn name(&self) -> &str {
        &self.name
    }

    fn monitor(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    fn on_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: MonitorEvent) {
        match ev {
            // Let the announcers finish booting before the first sweep.
            MonitorEvent::Registered => ctx.set_timer(SimDuration::from_micros(200), 2),
            MonitorEvent::DiscoveryDone { op, hits } if op == self.op => {
                self.latencies
                    .push((ctx.now + ctx.elapsed()).since(self.begun));
                self.last_hits = hits.len();
                if !self.is_done() {
                    self.kick(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token == 2 && self.latencies.is_empty() {
            self.kick(ctx);
        }
    }
}

/// Allocates and frees memory in a churn loop against the memory
/// controller, recording per-op latency (E8).
pub struct AllocChurn {
    name: String,
    monitor: Monitor,
    memctl: DeviceId,
    iterations: u32,
    /// Bytes per allocation (varied per-iteration by the size schedule).
    sizes: Vec<u64>,
    held: Vec<u64>,
    op: u64,
    op_kind: u8, // 0 alloc, 1 free
    begun: SimTime,
    next_va: u64,
    i: u32,
    /// Latency of each alloc.
    pub alloc_latencies: Vec<SimDuration>,
    /// Latency of each free.
    pub free_latencies: Vec<SimDuration>,
    /// Allocations denied.
    pub denials: u32,
}

impl AllocChurn {
    /// A churner doing `iterations` alloc/free cycles with the given size
    /// schedule (cycled).
    pub fn new(name: &str, memctl: DeviceId, iterations: u32, sizes: Vec<u64>) -> Self {
        AllocChurn {
            name: name.to_string(),
            monitor: Monitor::new(),
            memctl,
            iterations,
            sizes,
            held: Vec::new(),
            op: 0,
            op_kind: 0,
            begun: SimTime::ZERO,
            next_va: 0x5000_0000,
            i: 0,
            alloc_latencies: Vec::new(),
            free_latencies: Vec::new(),
            denials: 0,
        }
    }

    /// Whether the churn completed.
    pub fn is_done(&self) -> bool {
        self.i >= self.iterations
    }

    fn step(&mut self, ctx: &mut DeviceCtx<'_>) {
        if self.is_done() {
            return;
        }
        self.begun = ctx.now + ctx.elapsed();
        // Alternate: allocate mostly; free one in three when holding some.
        if self.i % 3 == 2 && !self.held.is_empty() {
            let region = self.held.remove((self.i as usize * 7) % self.held.len());
            self.op = self.monitor.free_region(ctx, self.memctl, region);
            self.op_kind = 1;
        } else {
            let bytes = self.sizes[self.i as usize % self.sizes.len()];
            let va = self.next_va;
            self.next_va += bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE + PAGE_SIZE;
            self.op = self
                .monitor
                .alloc_shared(ctx, self.memctl, ctx.dev.0, va, bytes, 3);
            self.op_kind = 0;
        }
    }
}

impl Firmware for AllocChurn {
    const KIND: &'static str = "alloc-churn";
    const HEARTBEAT: SimDuration = SimDuration::from_millis(5);

    fn name(&self) -> &str {
        &self.name
    }

    fn monitor(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    fn on_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: MonitorEvent) {
        match ev {
            // Let the rest of the machine finish booting (the memory
            // controller may register microseconds after us).
            MonitorEvent::Registered => ctx.set_timer(SimDuration::from_micros(200), 2),
            MonitorEvent::AllocDone { op, result } if op == self.op && self.op_kind == 0 => {
                let lat = (ctx.now + ctx.elapsed()).since(self.begun);
                self.alloc_latencies.push(lat);
                match result {
                    Ok(region) => self.held.push(region),
                    Err(_) => self.denials += 1,
                }
                self.i += 1;
                self.step(ctx);
            }
            MonitorEvent::FreeDone { op, .. } if op == self.op && self.op_kind == 1 => {
                let lat = (ctx.now + ctx.elapsed()).since(self.begun);
                self.free_latencies.push(lat);
                self.i += 1;
                self.step(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token == 2 && self.i == 0 && self.alloc_latencies.is_empty() {
            self.step(ctx);
        }
    }
}

/// A device that allocates one page, then deliberately probes inside and
/// outside its mapping — demonstrating that faults are delivered to (and
/// contained by) the faulting device (E4, §4 "Error Handling").
pub struct DmaProbe {
    name: String,
    monitor: Monitor,
    memctl: DeviceId,
    op: u64,
    /// Result of the in-bounds DMA.
    pub in_bounds_ok: Option<bool>,
    /// The out-of-bounds access faulted (as it must).
    pub out_of_bounds_faulted: Option<bool>,
    /// Virtual time the fault handling took (inline, at the device).
    pub fault_handling: Option<SimDuration>,
}

const PROBE_VA: u64 = 0x6000_0000;

impl DmaProbe {
    /// A probe using the given memory controller.
    pub fn new(name: &str, memctl: DeviceId) -> Self {
        DmaProbe {
            name: name.to_string(),
            monitor: Monitor::new(),
            memctl,
            op: 0,
            in_bounds_ok: None,
            out_of_bounds_faulted: None,
            fault_handling: None,
        }
    }

    /// Whether the probe ran.
    pub fn is_done(&self) -> bool {
        self.out_of_bounds_faulted.is_some()
    }
}

impl Firmware for DmaProbe {
    const KIND: &'static str = "dma-probe";
    const HEARTBEAT: SimDuration = SimDuration::from_millis(5);

    fn name(&self) -> &str {
        &self.name
    }

    fn monitor(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    fn on_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: MonitorEvent) {
        match ev {
            MonitorEvent::Registered => {
                // Let the memory controller finish booting first.
                ctx.set_timer(SimDuration::from_micros(200), 2);
            }
            MonitorEvent::AllocDone { op, result } if op == self.op => {
                if result.is_err() {
                    self.in_bounds_ok = Some(false);
                    self.out_of_bounds_faulted = Some(false);
                    return;
                }
                let pasid = Pasid(ctx.dev.0);
                // In bounds: must succeed.
                let mut buf = [0u8; 64];
                let ok = ctx
                    .dma_read(pasid, VirtAddr::new(PROBE_VA), &mut buf)
                    .is_ok();
                self.in_bounds_ok = Some(ok);
                // Out of bounds: must fault, handled here, device survives.
                let before = ctx.elapsed();
                let fault = ctx
                    .dma_read(pasid, VirtAddr::new(PROBE_VA + PAGE_SIZE), &mut buf)
                    .is_err();
                self.fault_handling = Some(SimDuration::from_nanos(
                    ctx.elapsed().as_nanos() - before.as_nanos(),
                ));
                self.out_of_bounds_faulted = Some(fault);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token == 2 && !self.is_done() && self.in_bounds_ok.is_none() {
            self.op =
                self.monitor
                    .alloc_shared(ctx, self.memctl, ctx.dev.0, PROBE_VA, PAGE_SIZE, 3);
        }
    }
}
