//! The rack fabric: N machines, one clock, modeled inter-machine links.

use lastcpu_core::{System, TunnelDelivery};
use lastcpu_net::{Frame, NetCostModel, PortId};
use lastcpu_sim::{
    profile, CorrId, CounterHandle, DetHashMap, EventQueue, FaultEvent, FaultKind, FaultPlan,
    GaugeHandle, MetricsHub, SimDuration, SimTime, TraceData, TraceSink,
};

use crate::proto::{DirEndpoint, DirMsg};
use crate::topology::{Topology, TopologyConfig};

/// A machine's index in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u32);

/// Fabric configuration.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Fabric seed: keys the topology's per-pair ECMP tie-breaks and is
    /// recorded in every rack checkpoint manifest.
    pub seed: u64,
    /// Inter-machine link timing. Defaults model 25 GbE wires: 40 ps/B
    /// line rate on every link, 600 ns store-and-forward switch latency,
    /// 2 µs end-to-end propagation.
    pub link_cost: NetCostModel,
    /// The rack wiring graph (flat single-spine, leaf-spine, or k-ary
    /// fat-tree) plus the oversubscription ratio. The graph is built at
    /// [`Fabric::power_on`], when the machine count is known.
    pub topology: TopologyConfig,
    /// Period of the directory synchronization sweep (federated SSDP).
    pub sync_interval: SimDuration,
    /// Latency of an in-band directory query answer (the controller sits
    /// on the spine, one hop away).
    pub dir_latency: SimDuration,
    /// Optional whole-machine fault schedule. Targets are machine names
    /// (`"m0"`, `"m1"`, …): `Drop`/`Delay` act on that machine's links,
    /// `Crash`/`Hang` kill the machine.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            seed: 0xFAB,
            link_cost: NetCostModel {
                per_byte_ps: 40,
                switch_latency: SimDuration::from_nanos(600),
                propagation: SimDuration::from_micros(2),
            },
            topology: TopologyConfig::default(),
            sync_interval: SimDuration::from_micros(250),
            dir_latency: SimDuration::from_nanos(500),
            fault_plan: None,
        }
    }
}

/// One rack-directory entry (home-machine view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Home machine.
    pub machine: u32,
    /// Qualified name: `"m{machine}/{device-name}"`.
    pub name: String,
    /// Device kind from the home bus registry.
    pub kind: String,
    /// The endpoint's port on its home machine's edge switch.
    pub port: PortId,
}

/// The far side of a proxy port: a specific port on a specific machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RemotePeer {
    machine: u32,
    port: PortId,
}

/// Per-machine link fault state (consumed counts, like the bus layer).
#[derive(Debug, Default)]
struct LinkFaults {
    drop_remaining: u32,
    delay_remaining: u32,
    delay_extra: SimDuration,
}

struct MachineSlot {
    name: String,
    sys: System,
    dead: bool,
    /// Proxy ports on this machine's edge switch, by remote peer.
    proxy: DetHashMap<RemotePeer, PortId>,
    /// Reverse map: local tunnel port -> the remote peer it represents.
    proxy_rev: DetHashMap<PortId, RemotePeer>,
    /// Tunnel port answering in-band directory queries.
    dir_port: PortId,
    faults: LinkFaults,
    link_bytes: CounterHandle,
    link_frames: CounterHandle,
    /// The machine's next event time as of its last refresh: at
    /// [`Fabric::run_until`] entry, after an injected frame, and after the
    /// machine is stepped. Nothing else changes a machine's queue inside
    /// `run_until`, so choosing the next retirement reads this instead of
    /// peeking every wheel.
    next_at: Option<SimTime>,
    /// The encoded directory reply last built for this machine and the
    /// `dir_epoch` it was built at. The reply is a function of the directory
    /// at that epoch and this machine's proxy table, whose ports are
    /// allocated once and never change, so it is reused until the epoch
    /// moves. Never snapshotted: a restored rack rebuilds it on first query.
    dir_reply: Option<(u64, Vec<u8>)>,
}

/// A frame that finished crossing an inter-machine link (or a directory
/// reply) and enters `machine`'s edge switch at its scheduled time.
struct LinkDelivery {
    machine: usize,
    frame: Frame,
    corr: CorrId,
}

/// What [`Fabric::run_until`] retires next, listed in the order candidates
/// are offered: at equal time the earlier-listed one goes first.
#[derive(Debug, Clone, Copy)]
enum Due {
    Sweep,
    Fault,
    Link,
    Machine(usize),
}

/// Whether `qualified` is exactly `format!("m{machine}/{device}")`, decided
/// without building that string.
fn is_qualified(qualified: &str, machine: usize, device: &str) -> bool {
    struct Rest<'a>(&'a str);
    impl std::fmt::Write for Rest<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 = self.0.strip_prefix(s).ok_or(std::fmt::Error)?;
            Ok(())
        }
    }
    let mut rest = Rest(qualified);
    std::fmt::write(&mut rest, format_args!("m{machine}/{device}")).is_ok() && rest.0.is_empty()
}

/// N CPU-less machines co-simulated under one deterministic clock.
///
/// See the crate docs for the interleaving and tunneling model. Typical
/// assembly:
///
/// ```ignore
/// let mut fab = Fabric::new(FabricConfig::default());
/// let m0 = fab.add_machine("m0", system0);
/// let m1 = fab.add_machine("m1", system1);
/// fab.power_on();
/// fab.run_for(SimDuration::from_millis(10));
/// ```
pub struct Fabric {
    cfg: FabricConfig,
    machines: Vec<MachineSlot>,
    /// Frames in flight between machines, each entering its target machine
    /// when global time reaches it.
    queue: EventQueue<LinkDelivery>,
    now: SimTime,
    /// Everything [`run_until`](Self::run_until) has retired: the progress
    /// cursor a checkpoint's manifest records.
    events: u64,
    directory: Vec<DirEntry>,
    dir_epoch: u64,
    /// When the next directory sweep is due (periodic; `None` before
    /// power-on).
    next_sync: Option<SimTime>,
    /// The fault plan, sorted by firing time; `fault_cursor` marks the next
    /// one due.
    faults: Vec<FaultEvent>,
    fault_cursor: usize,
    /// The built link graph + per-pair path table. Rebuilt at
    /// [`power_on`](Self::power_on) once the machine count is known; the
    /// placeholder built at construction covers zero machines.
    topo: Topology,
    /// Where a stepped machine's tunnel output is drained to before it
    /// crosses the links; reused so a step allocates nothing.
    tunnel_out: Vec<TunnelDelivery>,
    metrics: MetricsHub,
    /// Fabric-level trace (link-hop timing records). Off by default so the
    /// throughput experiments pay only a branch per forwarded frame.
    trace: TraceSink,
    // Pre-registered fabric metrics.
    m_frames_forwarded: CounterHandle,
    m_frames_dropped: CounterHandle,
    m_frames_delayed: CounterHandle,
    m_bytes: CounterHandle,
    m_dir_queries: CounterHandle,
    m_dir_syncs: CounterHandle,
    m_dir_removals: CounterHandle,
    m_faults_applied: CounterHandle,
    g_dir_epoch: GaugeHandle,
    g_machines_dead: GaugeHandle,
}

impl Fabric {
    /// An empty fabric.
    pub fn new(cfg: FabricConfig) -> Self {
        let metrics = MetricsHub::new();
        let m_frames_forwarded = metrics.counter_handle("fabric.frames_forwarded");
        let m_frames_dropped = metrics.counter_handle("fabric.frames_dropped");
        let m_frames_delayed = metrics.counter_handle("fabric.frames_delayed");
        let m_bytes = metrics.counter_handle("fabric.bytes");
        let m_dir_queries = metrics.counter_handle("fabric.dir.queries");
        let m_dir_syncs = metrics.counter_handle("fabric.dir.syncs");
        let m_dir_removals = metrics.counter_handle("fabric.dir.removals");
        let m_faults_applied = metrics.counter_handle("fabric.faults_applied");
        let g_dir_epoch = metrics.gauge_handle("fabric.dir_epoch");
        let g_machines_dead = metrics.gauge_handle("fabric.machines_dead");
        let mut trace = TraceSink::default();
        trace.set_enabled(false);
        let topo = Topology::build(&cfg.topology, &cfg.link_cost, 0, cfg.seed);
        Fabric {
            cfg,
            topo,
            machines: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            events: 0,
            directory: Vec::new(),
            dir_epoch: 0,
            next_sync: None,
            faults: Vec::new(),
            fault_cursor: 0,
            tunnel_out: Vec::new(),
            metrics,
            trace,
            m_frames_forwarded,
            m_frames_dropped,
            m_frames_delayed,
            m_bytes,
            m_dir_queries,
            m_dir_syncs,
            m_dir_removals,
            m_faults_applied,
            g_dir_epoch,
            g_machines_dead,
        }
    }

    /// The fabric's configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Fabric-level metrics (link/dir/fault counters; per-machine
    /// `fabric.link.m{i}.*`).
    pub fn metrics(&self) -> &MetricsHub {
        &self.metrics
    }

    /// Turns fabric link-hop tracing on or off. When on, every forwarded
    /// frame leaves one [`TraceData::LinkHop`] record carrying its
    /// uplink/spine/downlink timing split, which
    /// [`merged_trace`](Self::merged_trace) interleaves with the machine
    /// traces so the E12 critical-path analyzer can attribute cross-machine
    /// transit time to the actual link stages.
    pub fn set_link_tracing(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// Raises (or lowers) the link-hop trace retention bound; see
    /// [`TraceSink::set_capacity`].
    pub fn set_link_trace_capacity(&mut self, capacity: usize) {
        self.trace.set_capacity(capacity);
    }

    /// The fabric's own trace (link-hop records only).
    pub fn link_trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Current global virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// Adds a machine. The fabric rebases the machine's correlation-id
    /// allocator to `(index + 1) << 40` so ids are rack-unique, and opens
    /// the machine's directory port.
    pub fn add_machine(&mut self, name: impl Into<String>, mut sys: System) -> MachineId {
        let idx = self.machines.len();
        sys.set_corr_base(((idx as u64) + 1) << 40);
        let dir_port = sys.add_tunnel_port();
        let link_bytes = self
            .metrics
            .counter_handle(&format!("fabric.link.m{idx}.bytes"));
        let link_frames = self
            .metrics
            .counter_handle(&format!("fabric.link.m{idx}.frames"));
        self.machines.push(MachineSlot {
            name: name.into(),
            sys,
            dead: false,
            proxy: DetHashMap::default(),
            proxy_rev: DetHashMap::default(),
            dir_port,
            faults: LinkFaults::default(),
            link_bytes,
            link_frames,
            next_at: None,
            dir_reply: None,
        });
        MachineId(idx as u32)
    }

    /// The machine's `System`.
    pub fn machine(&self, m: MachineId) -> &System {
        &self.machines[m.0 as usize].sys
    }

    /// The machine's `System`, mutably: for attaching hosts and devices or
    /// arming timers between runs. Stepping it directly bypasses the global
    /// order, and its tunnel output then waits for the machine's next event
    /// inside [`run_until`](Self::run_until).
    pub fn machine_mut(&mut self, m: MachineId) -> &mut System {
        &mut self.machines[m.0 as usize].sys
    }

    /// Whether the machine has been killed.
    pub fn is_dead(&self, m: MachineId) -> bool {
        self.machines[m.0 as usize].dead
    }

    /// The port on machine `on` that answers [`DirMsg::Query`] frames.
    pub fn directory_port(&self, on: MachineId) -> PortId {
        self.machines[on.0 as usize].dir_port
    }

    /// Opens (or returns the existing) proxy port on machine `on` that
    /// tunnels to `(to, to_port)`. Frames a local host or device sends to
    /// the returned port cross the inter-machine link and arrive at
    /// `to_port` on machine `to`, with their source rewritten to the
    /// symmetric proxy so replies find their way back.
    pub fn open_tunnel(&mut self, on: MachineId, to: MachineId, to_port: PortId) -> PortId {
        self.proxy_port(on.0 as usize, to.0, to_port)
    }

    /// The current rack directory snapshot.
    pub fn directory(&self) -> &[DirEntry] {
        &self.directory
    }

    /// The directory epoch (bumps on membership change).
    pub fn dir_epoch(&self) -> u64 {
        self.dir_epoch
    }

    /// Kills a whole machine: the fabric stops stepping it and drops all
    /// traffic to or from it. The next directory sweep withdraws its
    /// endpoints, which is what remote routers fail over on.
    pub fn kill_machine(&mut self, m: MachineId) {
        let slot = &mut self.machines[m.0 as usize];
        if !slot.dead {
            slot.dead = true;
            self.g_machines_dead.add(1);
        }
    }

    /// The built rack topology (graph, per-pair paths, per-link counters).
    /// Before [`power_on`](Self::power_on) this is a zero-machine
    /// placeholder.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Powers on every machine, builds the rack topology for the final
    /// machine count, arms the directory sweep, and sorts the fault plan
    /// into its firing order.
    pub fn power_on(&mut self) {
        for slot in &mut self.machines {
            slot.sys.power_on();
        }
        self.topo = Topology::build(
            &self.cfg.topology,
            &self.cfg.link_cost,
            self.machines.len(),
            self.cfg.seed,
        );
        self.next_sync = Some(self.now);
        if let Some(plan) = self.cfg.fault_plan.clone() {
            self.faults.extend(plan.events());
            // Stable by firing time: equal-time faults keep plan order.
            self.faults.sort_by_key(|ev| ev.at);
        }
    }

    /// Runs the co-simulation until `deadline` (inclusive); returns what it
    /// retired (fabric events + machine events).
    ///
    /// Each iteration retires the one globally earliest item among the
    /// directory sweep, the next scheduled fault, the head of the
    /// link-delivery queue and every alive machine's next event. Ties at
    /// equal time go sweep → fault → link delivery (queue FIFO) → machine by
    /// index. A stepped machine's tunnel output crosses the links at once, in
    /// production order, so a link delivery enters its target machine when
    /// global time reaches it and never earlier. The choice reads nothing
    /// but rack state, so `run_until(a); run_until(b)` retires the same
    /// sequence as `run_until(b)`.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0u64;
        // Callers reach machines through `machine_mut` between calls (hosts
        // added, timers armed), so the cached event times are trusted only
        // within one call. What they queue sits at the machine's own clock,
        // which trails the rack's while the machine idles: the rack goes
        // back for what this call will retire.
        for slot in &mut self.machines {
            slot.next_at = slot.sys.peek_next_at();
            if let Some(t) = slot.next_at.filter(|&t| !slot.dead && t <= deadline) {
                self.now = self.now.min(t);
            }
        }
        loop {
            let mut next: Option<(SimTime, Due)> = None;
            let mut offer = |t: Option<SimTime>, due: Due| {
                if let Some(t) = t {
                    if !next.is_some_and(|(earliest, _)| earliest <= t) {
                        next = Some((t, due));
                    }
                }
            };
            offer(self.next_sync, Due::Sweep);
            offer(
                self.faults.get(self.fault_cursor).map(|ev| ev.at),
                Due::Fault,
            );
            offer(self.queue.peek_time(), Due::Link);
            for (i, slot) in self.machines.iter().enumerate() {
                if !slot.dead {
                    offer(slot.next_at, Due::Machine(i));
                }
            }
            let Some((t, due)) = next else { break };
            if t > deadline {
                break;
            }
            assert!(
                t >= self.now,
                "global time ran backwards: {due:?} at {t:?}, rack at {:?}",
                self.now
            );
            self.now = t;
            match due {
                Due::Sweep => self.sync_directory(t),
                Due::Fault => {
                    self.apply_fault(self.fault_cursor);
                    self.fault_cursor += 1;
                }
                Due::Link => self.deliver(),
                Due::Machine(i) => self.step_machine(i),
            }
            n += 1;
        }
        self.now = self.now.max(deadline);
        self.events += n;
        n
    }

    /// Pops the link-delivery queue's head into its target machine.
    fn deliver(&mut self) {
        let ev = self.queue.pop().expect("peeked delivery vanished");
        let d = ev.event;
        let slot = &mut self.machines[d.machine];
        if slot.dead {
            self.m_frames_dropped.incr();
            return;
        }
        assert!(
            ev.at >= slot.sys.now(),
            "a frame due at {:?} would land in {}'s past ({:?})",
            ev.at,
            slot.name,
            slot.sys.now()
        );
        let _prof = profile::span("fabric.inject");
        slot.sys.inject_frame(ev.at, d.frame, d.corr);
        slot.next_at = slot.sys.peek_next_at();
    }

    /// Steps machine `i` by one event, then crosses whatever tunnel output
    /// the event produced.
    fn step_machine(&mut self, i: usize) {
        let mut out = std::mem::take(&mut self.tunnel_out);
        let slot = &mut self.machines[i];
        slot.sys.step();
        slot.next_at = slot.sys.peek_next_at();
        slot.sys.drain_tunnel_into(&mut out);
        for d in out.drain(..) {
            if d.port == self.machines[i].dir_port {
                self.answer_dir_query(i, d);
            } else if let Some(&peer) = self.machines[i].proxy_rev.get(&d.port) {
                self.forward(i, peer, d);
            } else {
                // A tunnel port the fabric does not know (cannot happen for
                // fabric-created ports; defensive).
                self.m_frames_dropped.incr();
            }
        }
        self.tunnel_out = out;
    }

    /// Runs for `d` from the current global time.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let deadline = self.now + d;
        self.run_until(deadline)
    }

    /// A rack-wide trace: every machine's retained records merged into one
    /// sink, each source prefixed with its machine name (`"m1/bus"`), in
    /// global time order (ties by machine index — the interleaving order).
    ///
    /// Because [`add_machine`](Self::add_machine) rebases every machine's
    /// correlation-id allocator to a disjoint range, a correlation id is
    /// rack-unique, so exporting the merged sink with
    /// [`trace_chrome`](lastcpu_sim::export::trace_chrome) draws one async
    /// span per activity even when the activity hops machines: a request
    /// tunneled from `m0` to `m1` keeps its id across the link (the fabric
    /// carries it through [`TunnelDelivery`] and re-injects it) and its
    /// records on both machines merge into a single cross-machine span.
    pub fn merged_trace(&self) -> TraceSink {
        let total: usize = self
            .machines
            .iter()
            .map(|s| s.sys.trace().len())
            .sum::<usize>()
            + self.trace.len();
        let nmach = self.machines.len();
        let mut records: Vec<(usize, &lastcpu_sim::TraceRecord)> = Vec::with_capacity(total);
        for (m, slot) in self.machines.iter().enumerate() {
            records.extend(slot.sys.trace().events().map(|r| (m, r)));
        }
        // Fabric link-hop records sort after same-time machine records.
        records.extend(self.trace.events().map(|r| (nmach, r)));
        records.sort_by_key(|&(m, r)| (r.at, m));
        let mut out = TraceSink::bounded(total.max(1));
        for (m, r) in records {
            if m == nmach {
                out.emit_data(r.at, r.source.clone(), r.corr, r.data.clone());
            } else {
                out.emit_data(
                    r.at,
                    format!("{}/{}", self.machines[m].name, r.source),
                    r.corr,
                    r.data.clone(),
                );
            }
        }
        out
    }

    // --- internals --------------------------------------------------------

    fn proxy_port(&mut self, on: usize, machine: u32, port: PortId) -> PortId {
        let peer = RemotePeer { machine, port };
        if let Some(&p) = self.machines[on].proxy.get(&peer) {
            return p;
        }
        let p = self.machines[on].sys.add_tunnel_port();
        self.machines[on].proxy.insert(peer, p);
        self.machines[on].proxy_rev.insert(p, peer);
        p
    }

    /// Crosses the inter-machine link from `a` to `peer.machine`.
    fn forward(&mut self, a: usize, peer: RemotePeer, d: TunnelDelivery) {
        let _prof = profile::span("fabric.forward");
        let b = peer.machine as usize;
        if self.machines[a].dead || self.machines[b].dead {
            self.m_frames_dropped.incr();
            return;
        }
        // Link faults: a `Drop` on either endpoint consumes the frame; a
        // `Delay` on either endpoint adds its extra latency.
        if self.machines[a].faults.drop_remaining > 0 {
            self.machines[a].faults.drop_remaining -= 1;
            self.m_frames_dropped.incr();
            return;
        }
        if self.machines[b].faults.drop_remaining > 0 {
            self.machines[b].faults.drop_remaining -= 1;
            self.m_frames_dropped.incr();
            return;
        }
        let mut extra = SimDuration::ZERO;
        if self.machines[a].faults.delay_remaining > 0 {
            self.machines[a].faults.delay_remaining -= 1;
            extra = extra.saturating_add(self.machines[a].faults.delay_extra);
        }
        if self.machines[b].faults.delay_remaining > 0 {
            self.machines[b].faults.delay_remaining -= 1;
            extra = extra.saturating_add(self.machines[b].faults.delay_extra);
        }
        if extra > SimDuration::ZERO {
            self.m_frames_delayed.incr();
        }
        // Timing: walk the frame across its topology path — first hop off
        // `a`, any fabric hops ECMP chose for this pair, last hop into `b` —
        // queuing at line rate on every link it crosses.
        let wire = d.frame.wire_len();
        let t = self.topo.transit(a, b, wire, d.at);
        let deliver = t.deliver + extra;
        // Attribution: the three stage durations below sum exactly to
        // `deliver - d.at` (first-hop queue+tx, all middle hops and fixed
        // latencies plus fault delay, last-hop queue+tx), so the E12
        // analyzer's hop split can never exceed the observed transit window
        // it is matched against.
        let uplink_ns = t.uplink_ns;
        let spine_ns = t.spine_ns + extra.as_nanos();
        let downlink_ns = t.downlink_ns;
        profile::charge_sim_to("fabric.uplink", uplink_ns);
        profile::charge_sim_to("fabric.spine", spine_ns);
        profile::charge_sim_to("fabric.downlink", downlink_ns);
        if self.trace.is_enabled() {
            self.trace.emit_data(
                deliver,
                "fabric",
                d.corr,
                TraceData::LinkHop {
                    src_machine: a,
                    dst_machine: b,
                    bytes: wire,
                    uplink_ns,
                    spine_ns,
                    downlink_ns,
                },
            );
        }
        // The frame re-enters b with its source rewritten to b's proxy for
        // the original sender, so replies tunnel back symmetrically.
        let src_on_b = self.proxy_port(b, a as u32, d.frame.src);
        let frame = Frame::unicast(src_on_b, peer.port, d.frame.payload);
        for m in [a, b] {
            self.machines[m].link_bytes.add(wire);
            self.machines[m].link_frames.incr();
        }
        self.m_bytes.add(wire);
        self.m_frames_forwarded.incr();
        self.queue.schedule_at(
            deliver,
            LinkDelivery {
                machine: b,
                frame,
                corr: d.corr,
            },
        );
    }

    /// Answers an in-band directory query from machine `q`.
    fn answer_dir_query(&mut self, q: usize, d: TunnelDelivery) {
        let _prof = profile::span("fabric.dir_query");
        self.m_dir_queries.incr();
        let Ok(DirMsg::Query { .. }) = DirMsg::decode(&d.frame.payload) else {
            self.m_frames_dropped.incr();
            return;
        };
        let reply = match &self.machines[q].dir_reply {
            Some((epoch, bytes)) if *epoch == self.dir_epoch => bytes.clone(),
            _ => {
                let bytes = self.build_dir_reply(q);
                self.machines[q].dir_reply = Some((self.dir_epoch, bytes.clone()));
                bytes
            }
        };
        let frame = Frame::unicast(self.machines[q].dir_port, d.frame.src, reply);
        self.queue.schedule_at(
            d.at + self.cfg.dir_latency,
            LinkDelivery {
                machine: q,
                frame,
                corr: d.corr,
            },
        );
    }

    /// Encodes the current directory as machine `q` sees it: local endpoints
    /// keep their edge-switch port, remote ones appear as `q`'s proxy port
    /// for them (opened here on first sight).
    fn build_dir_reply(&mut self, q: usize) -> Vec<u8> {
        let snapshot = self.directory.clone();
        let mut endpoints = Vec::with_capacity(snapshot.len());
        for e in &snapshot {
            let port = if e.machine as usize == q {
                e.port
            } else {
                self.proxy_port(q, e.machine, e.port)
            };
            endpoints.push(DirEndpoint {
                name: e.name.clone(),
                kind: e.kind.clone(),
                machine: e.machine,
                port: port.0,
            });
        }
        DirMsg::Reply {
            epoch: self.dir_epoch,
            endpoints,
        }
        .encode()
    }

    /// Whether `self.directory` already lists exactly what the alive
    /// machines' bus registries hold now, in sweep order. Allocates nothing:
    /// the steady-state sweep finds no change.
    fn directory_is_current(&self) -> bool {
        let mut listed = self.directory.iter();
        for (i, slot) in self.machines.iter().enumerate() {
            if slot.dead {
                continue;
            }
            for e in slot.sys.bus().alive() {
                let Some(port) = slot.sys.port_of(e.id) else {
                    continue;
                };
                let same = listed.next().is_some_and(|d| {
                    d.machine == i as u32
                        && d.port == port
                        && d.kind == e.kind
                        && is_qualified(&d.name, i, &e.name)
                });
                if !same {
                    return false;
                }
            }
        }
        listed.next().is_none()
    }

    /// The periodic sweep: rebuilds the rack directory from every alive
    /// machine's bus registry when it no longer matches them.
    fn sync_directory(&mut self, now: SimTime) {
        let _prof = profile::span("fabric.dir_sync");
        self.m_dir_syncs.incr();
        self.next_sync = Some(now + self.cfg.sync_interval);
        if self.directory_is_current() {
            return;
        }
        let mut fresh: Vec<DirEntry> = Vec::new();
        for (i, slot) in self.machines.iter().enumerate() {
            if slot.dead {
                continue;
            }
            for e in slot.sys.bus().alive() {
                if let Some(port) = slot.sys.port_of(e.id) {
                    fresh.push(DirEntry {
                        machine: i as u32,
                        name: format!("m{i}/{}", e.name),
                        kind: e.kind.clone(),
                        port,
                    });
                }
            }
        }
        let removed = self
            .directory
            .iter()
            .filter(|old| !fresh.iter().any(|n| n.name == old.name))
            .count() as u64;
        if removed > 0 {
            self.m_dir_removals.add(removed);
        }
        self.dir_epoch += 1;
        self.g_dir_epoch.set(self.dir_epoch as i64);
        self.directory = fresh;
    }

    fn apply_fault(&mut self, idx: usize) {
        let ev = self.faults[idx].clone();
        let Some(m) = self.machines.iter().position(|s| s.name == ev.target) else {
            return;
        };
        self.m_faults_applied.incr();
        match ev.kind {
            FaultKind::Crash | FaultKind::Hang => self.kill_machine(MachineId(m as u32)),
            FaultKind::Drop { count } | FaultKind::Corrupt { count } => {
                // Corrupted inter-machine frames fail their FCS and are
                // dropped; both kinds consume frames on this machine's link.
                self.machines[m].faults.drop_remaining += count;
            }
            FaultKind::Delay { count, extra_ns } => {
                self.machines[m].faults.delay_remaining += count;
                self.machines[m].faults.delay_extra = SimDuration::from_nanos(extra_ns);
            }
            // Device-level faults have no whole-machine meaning here.
            FaultKind::SlowDown { .. } | FaultKind::IommuStorm { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Rack checkpoints
// ---------------------------------------------------------------------------

use lastcpu_snap::{Checkpoint, Diff, Manifest, SectionSink, SnapError, SnapWriter, Snapshot as _};

impl Fabric {
    /// Stable fingerprint of the rack recipe: fabric configuration plus
    /// every machine's name and its own builder fingerprint.
    pub fn config_fingerprint(&self) -> u64 {
        let mut h = lastcpu_snap::fnv1a(format!("{:?}", self.cfg).as_bytes());
        for slot in &self.machines {
            lastcpu_snap::fnv1a_fold(&mut h, slot.name.as_bytes());
            lastcpu_snap::fnv1a_fold(&mut h, &slot.sys.config_fingerprint().to_le_bytes());
        }
        h
    }

    /// The fabric's own durable state: clock, directory, link occupancy,
    /// in-flight frame digest, proxy wiring, and per-machine link faults.
    fn fabric_section(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(self.now.as_nanos());
        w.put_u64(self.dir_epoch);
        w.put_opt(self.next_sync.as_ref(), |w, t| w.put_u64(t.as_nanos()));
        w.put_len(self.fault_cursor);
        w.put_len(self.faults.len());
        for f in &self.faults {
            w.put_u64(f.at.as_nanos());
            w.put_str(&f.target);
            f.kind.encode(&mut w);
        }
        // In-flight inter-machine deliveries, digested by full content.
        let mut entries = self.queue.entries();
        entries.sort_by_key(|(at, seq, _)| (*at, *seq));
        w.put_len(entries.len());
        let mut h = lastcpu_snap::fnv1a(b"links");
        for (at, seq, d) in &entries {
            let mut ew = SnapWriter::new();
            ew.put_u64(at.as_nanos());
            ew.put_u64(*seq);
            ew.put_len(d.machine);
            ew.put_u32(d.frame.src.0);
            ew.put_u32(d.frame.dst.0);
            ew.put_bytes(&d.frame.payload);
            ew.put_u64(d.corr.0);
            lastcpu_snap::fnv1a_fold(&mut h, &ew.into_bytes());
        }
        w.put_u64(h);
        w.put_u64(self.queue.events_processed());
        w.put_u64(self.queue.seq_cursor());
        w.put_len(self.directory.len());
        for e in &self.directory {
            w.put_u32(e.machine);
            w.put_str(&e.name);
            w.put_str(&e.kind);
            w.put_u32(e.port.0);
        }
        // Per-link queue cursors + traffic counters. The graph itself is a
        // pure function of the (fingerprinted) config and machine count, so
        // only dynamic state is serialized.
        self.topo.snapshot_state(&mut w);
        for slot in &self.machines {
            w.put_str(&slot.name);
            w.put_bool(slot.dead);
            w.put_u32(slot.dir_port.0);
            let mut proxies: Vec<(u32, u32, u32)> = slot
                .proxy
                .iter()
                .map(|(peer, local)| (peer.machine, peer.port.0, local.0))
                .collect();
            proxies.sort_unstable();
            w.put_len(proxies.len());
            for (pm, pp, lp) in proxies {
                w.put_u32(pm);
                w.put_u32(pp);
                w.put_u32(lp);
            }
            w.put_u32(slot.faults.drop_remaining);
            w.put_u32(slot.faults.delay_remaining);
            w.put_u64(slot.faults.delay_extra.as_nanos());
        }
        w.into_bytes()
    }

    /// Checkpoint-wide metadata for this rack, now.
    fn manifest(&self, label: &str) -> Manifest {
        Manifest {
            schema_version: lastcpu_snap::SCHEMA_VERSION,
            seed: self.cfg.seed,
            virtual_ns: self.now.as_nanos(),
            events: self.events,
            config_fp: self.config_fingerprint(),
            label: label.to_string(),
        }
    }

    /// The one section producer: the `fabric` section (directory, links,
    /// in-flight frames), the fabric metrics and link trace, then one section
    /// per machine holding that machine's whole encoded
    /// [`System::checkpoint`], streamed as the machine produces it.
    fn each_section(&self, label: &str, out: &mut impl SectionSink) -> lastcpu_snap::Result<()> {
        out.section("fabric", self.fabric_section());
        out.section("metrics", self.metrics.snapshot_bytes());
        out.section("trace", self.trace.snapshot_bytes());
        for (i, slot) in self.machines.iter().enumerate() {
            let label = format!("{label}/{}", slot.name);
            out.streamed(&format!("machine{i}"), &mut |emit| {
                slot.sys.encode_checkpoint(&label, emit)
            })?;
        }
        Ok(())
    }

    /// Serializes the whole rack: a `fabric` section (directory, links,
    /// in-flight frames), the fabric metrics and link trace, then one
    /// section per machine holding that machine's full encoded
    /// [`System::checkpoint`], written straight into the section.
    pub fn checkpoint(&self, label: &str) -> lastcpu_snap::Result<Checkpoint> {
        let mut ck = Checkpoint::new(self.manifest(label));
        self.each_section(label, &mut ck)?;
        Ok(ck)
    }

    /// Byte-for-byte verification of the rack against `ck`, compared as it
    /// serializes: a machine's encoding is checked piece by piece against
    /// its stored section, so the rack never holds a second copy of itself.
    pub fn verify_checkpoint(&self, ck: &Checkpoint) -> lastcpu_snap::Result<()> {
        let label = &ck.manifest.label;
        let mut diff = Diff::new(ck, &self.manifest(label));
        self.each_section(label, &mut diff)?;
        match diff.finish() {
            Some(detail) => Err(SnapError::VerifyMismatch {
                section: "rack".into(),
                detail,
            }),
            None => Ok(()),
        }
    }

    /// Restores this rack to the state captured in `ck`.
    ///
    /// The rack must be freshly built from the same recipe (checked via
    /// the manifest fingerprint) and powered on. Restore re-executes the
    /// run to the checkpoint's virtual time — in one call, however the
    /// checkpointed run was sliced — then verifies the manifest and every
    /// section, including each machine's full checkpoint, byte-for-byte.
    /// Fails loudly on any divergence.
    pub fn restore_from(&mut self, ck: &Checkpoint) -> lastcpu_snap::Result<()> {
        if ck.manifest.schema_version != lastcpu_snap::SCHEMA_VERSION {
            return Err(SnapError::VersionMismatch {
                want: lastcpu_snap::SCHEMA_VERSION,
                got: ck.manifest.schema_version,
            });
        }
        if ck.manifest.config_fp != self.config_fingerprint() {
            return Err(SnapError::VerifyMismatch {
                section: "manifest".into(),
                detail: format!(
                    "config fingerprint mismatch: checkpoint {:#018x}, this rack {:#018x}",
                    ck.manifest.config_fp,
                    self.config_fingerprint()
                ),
            });
        }
        self.run_until(SimTime::from_nanos(ck.manifest.virtual_ns));
        self.verify_checkpoint(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_bus::{Dst, Envelope, Payload};
    use lastcpu_core::devices::device::{Device, DeviceCtx};
    use lastcpu_core::{HostCtx, NetHost, SystemConfig};

    /// Echoes every frame back to its source.
    struct Echo;
    impl NetHost for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}
        fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
            ctx.net_tx(frame.src, frame.payload);
        }
    }

    /// Sends one payload to `target` at start; records reply times.
    struct Pinger {
        target: PortId,
        payload: Vec<u8>,
        replies: Vec<(SimTime, Vec<u8>)>,
    }
    impl NetHost for Pinger {
        fn name(&self) -> &str {
            "pinger"
        }
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            ctx.net_tx(self.target, self.payload.clone());
        }
        fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
            self.replies.push((ctx.now, frame.payload.to_vec()));
        }
    }

    fn quiet_sys(seed: u64) -> System {
        System::new(SystemConfig {
            seed,
            ..SystemConfig::default()
        })
    }

    fn two_machine_ping(seed: u64) -> (SimTime, u64) {
        let mut fab = Fabric::new(FabricConfig::default());
        let m0 = fab.add_machine("m0", quiet_sys(seed));
        let m1 = fab.add_machine("m1", quiet_sys(seed + 1));
        let echo_port = fab.machine_mut(m1).add_host(Box::new(Echo));
        let tunnel = fab.open_tunnel(m0, m1, echo_port);
        let pinger = Pinger {
            target: tunnel,
            payload: vec![7; 64],
            replies: Vec::new(),
        };
        let ping_port = fab.machine_mut(m0).add_host(Box::new(pinger));
        fab.power_on();
        fab.run_for(SimDuration::from_millis(5));
        let host = fab
            .machine(m0)
            .host_as::<Pinger>(ping_port)
            .expect("pinger present");
        assert_eq!(host.replies.len(), 1, "exactly one echo reply");
        assert_eq!(host.replies[0].1, vec![7; 64]);
        (host.replies[0].0, fab.metrics().counter("fabric.bytes"))
    }

    #[test]
    fn cross_machine_echo_round_trips() {
        let (at, bytes) = two_machine_ping(11);
        // Two link crossings, each paying ≥ switch latency + propagation.
        assert!(at >= SimTime::from_nanos(2 * (600 + 2000)));
        assert_eq!(bytes, 2 * (64 + lastcpu_net::FRAME_OVERHEAD_BYTES));
    }

    #[test]
    fn co_simulation_is_deterministic() {
        assert_eq!(two_machine_ping(42), two_machine_ping(42));
    }

    #[test]
    fn link_hops_are_traced_when_enabled() {
        let mut fab = Fabric::new(FabricConfig::default());
        let m0 = fab.add_machine("m0", quiet_sys(3));
        let m1 = fab.add_machine("m1", quiet_sys(4));
        let echo_port = fab.machine_mut(m1).add_host(Box::new(Echo));
        let tunnel = fab.open_tunnel(m0, m1, echo_port);
        fab.machine_mut(m0).add_host(Box::new(Pinger {
            target: tunnel,
            payload: vec![9; 64],
            replies: Vec::new(),
        }));
        fab.set_link_tracing(true);
        fab.power_on();
        fab.run_for(SimDuration::from_millis(5));
        let merged = fab.merged_trace();
        let hops: Vec<_> = merged
            .events()
            .filter_map(|r| match &r.data {
                TraceData::LinkHop {
                    src_machine,
                    dst_machine,
                    bytes,
                    uplink_ns,
                    spine_ns,
                    downlink_ns,
                } => Some((
                    *src_machine,
                    *dst_machine,
                    *bytes,
                    uplink_ns + spine_ns + downlink_ns,
                )),
                _ => None,
            })
            .collect();
        // Request hop m0 -> m1 and echo reply hop m1 -> m0.
        assert_eq!(hops.len(), 2, "hops: {hops:?}");
        assert_eq!((hops[0].0, hops[0].1), (0, 1));
        assert_eq!((hops[1].0, hops[1].1), (1, 0));
        let wire = 64 + lastcpu_net::FRAME_OVERHEAD_BYTES;
        let cost = &FabricConfig::default().link_cost;
        let expect = 2 * cost.serialize(wire).as_nanos()
            + cost.switch_latency.as_nanos()
            + cost.propagation.as_nanos();
        for h in &hops {
            assert_eq!(h.2, wire);
            // Uncontended links: the split is exactly 2×tx + switch + prop.
            assert_eq!(h.3, expect);
        }
    }

    #[test]
    fn link_tracing_is_off_by_default() {
        two_machine_ping(77); // exercises forward()
        let fab = Fabric::new(FabricConfig::default());
        assert!(!fab.link_trace().is_enabled());
        assert!(fab.link_trace().is_empty());
    }

    #[test]
    fn dead_machine_drops_traffic() {
        let mut fab = Fabric::new(FabricConfig::default());
        let m0 = fab.add_machine("m0", quiet_sys(1));
        let m1 = fab.add_machine("m1", quiet_sys(2));
        let echo_port = fab.machine_mut(m1).add_host(Box::new(Echo));
        let tunnel = fab.open_tunnel(m0, m1, echo_port);
        let ping_port = fab.machine_mut(m0).add_host(Box::new(Pinger {
            target: tunnel,
            payload: vec![1],
            replies: Vec::new(),
        }));
        fab.kill_machine(m1);
        fab.power_on();
        fab.run_for(SimDuration::from_millis(5));
        let host = fab.machine(m0).host_as::<Pinger>(ping_port).unwrap();
        assert!(host.replies.is_empty());
        assert!(fab.metrics().counter("fabric.frames_dropped") >= 1);
        assert_eq!(fab.metrics().gauge("fabric.machines_dead"), 1);
    }

    #[test]
    fn fault_plan_crash_kills_machine_mid_run() {
        let mut plan = FaultPlan::new(9);
        plan.inject(SimTime::from_nanos(2_000_000), "m1", FaultKind::Crash);
        let mut fab = Fabric::new(FabricConfig {
            fault_plan: Some(plan),
            ..FabricConfig::default()
        });
        let m0 = fab.add_machine("m0", quiet_sys(1));
        let m1 = fab.add_machine("m1", quiet_sys(2));
        let _ = m0;
        fab.power_on();
        fab.run_for(SimDuration::from_millis(5));
        assert!(fab.is_dead(m1));
        assert_eq!(fab.metrics().counter("fabric.faults_applied"), 1);
    }

    #[test]
    fn directory_query_round_trips_in_band() {
        // No devices registered -> empty directory, but the protocol and
        // the fabric answer path still round-trip.
        struct DirProbe {
            dir: PortId,
            reply: Option<DirMsg>,
        }
        impl NetHost for DirProbe {
            fn name(&self) -> &str {
                "dir-probe"
            }
            fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
                ctx.net_tx(self.dir, DirMsg::Query { epoch_hint: 0 }.encode());
            }
            fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, frame: Frame) {
                self.reply = Some(DirMsg::decode(&frame.payload).unwrap());
            }
        }
        let mut fab = Fabric::new(FabricConfig::default());
        let m0 = fab.add_machine("m0", quiet_sys(5));
        let dir = fab.directory_port(m0);
        let port = fab
            .machine_mut(m0)
            .add_host(Box::new(DirProbe { dir, reply: None }));
        fab.power_on();
        fab.run_for(SimDuration::from_millis(1));
        let probe = fab.machine(m0).host_as::<DirProbe>(port).unwrap();
        match &probe.reply {
            Some(DirMsg::Reply { endpoints, .. }) => assert!(endpoints.is_empty()),
            other => panic!("expected reply, got {other:?}"),
        }
        assert_eq!(fab.metrics().counter("fabric.dir.queries"), 1);
        assert!(fab.metrics().counter("fabric.dir.syncs") >= 1);
    }

    /// A device that registers on its bus as a `smart-nic` and does nothing
    /// else: enough for the sweep to list it.
    struct Nic(&'static str);
    impl Device for Nic {
        fn name(&self) -> &str {
            self.0
        }
        fn kind(&self) -> &str {
            "smart-nic"
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            ctx.send_bus(
                Dst::Bus,
                Payload::Hello {
                    name: self.0.into(),
                    kind: "smart-nic".into(),
                },
            );
        }
        fn on_message(&mut self, _ctx: &mut DeviceCtx<'_>, _env: &Envelope) {}
        fn on_timer(&mut self, _ctx: &mut DeviceCtx<'_>, _token: u64) {}
    }

    /// Queries the directory at start and every millisecond after; keeps
    /// every reply's bytes.
    struct Prober {
        dir: PortId,
        replies: Vec<Vec<u8>>,
    }
    impl NetHost for Prober {
        fn name(&self) -> &str {
            "prober"
        }
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            self.on_timer(ctx, 0);
        }
        fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, frame: Frame) {
            self.replies.push(frame.payload.to_vec());
        }
        fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
            ctx.net_tx(self.dir, DirMsg::Query { epoch_hint: 0 }.encode());
            ctx.set_timer(SimDuration::from_millis(1), token);
        }
    }

    /// `n` machines, each with one `nic0` and a [`Prober`]; returns the
    /// probers' ports.
    fn probed_rack(n: usize) -> (Fabric, Vec<PortId>) {
        let mut fab = Fabric::new(FabricConfig::default());
        let ports = (0..n)
            .map(|i| {
                let m = fab.add_machine(format!("m{i}"), quiet_sys(i as u64));
                let dir = fab.directory_port(m);
                let sys = fab.machine_mut(m);
                sys.add_net_device(Box::new(Nic("nic0")));
                sys.add_host(Box::new(Prober {
                    dir,
                    replies: Vec::new(),
                }))
            })
            .collect();
        fab.power_on();
        (fab, ports)
    }

    fn last_reply(fab: &Fabric, m: usize, port: PortId) -> (u64, Vec<String>) {
        let prober = fab.machine(MachineId(m as u32)).host_as::<Prober>(port);
        let bytes = prober.unwrap().replies.last().expect("a reply arrived");
        match DirMsg::decode(bytes).expect("reply decodes") {
            DirMsg::Reply { epoch, endpoints } => {
                (epoch, endpoints.into_iter().map(|e| e.name).collect())
            }
            other => panic!("expected a reply, got {other:?}"),
        }
    }

    #[test]
    fn a_zero_latency_dir_reply_enters_at_the_querys_own_instant() {
        // With `dir_latency` zero the reply is due the instant the query
        // left: it is retired next (a link delivery goes before a machine at
        // equal time), after the event that sent the query.
        let run = || {
            let mut fab = Fabric::new(FabricConfig {
                dir_latency: SimDuration::ZERO,
                ..FabricConfig::default()
            });
            let m0 = fab.add_machine(
                "m0",
                System::new(SystemConfig {
                    seed: 5,
                    trace: true,
                    ..SystemConfig::default()
                }),
            );
            let dir = fab.directory_port(m0);
            let replies = Vec::new();
            let port = fab
                .machine_mut(m0)
                .add_host(Box::new(Prober { dir, replies }));
            fab.power_on();
            fab.run_for(SimDuration::from_micros(2_500));
            let answered = fab
                .machine(m0)
                .host_as::<Prober>(port)
                .unwrap()
                .replies
                .len();
            // Every crossing of the machine's edge, in the order it happened.
            let crossings: Vec<(SimTime, bool)> = fab
                .machine(m0)
                .trace()
                .events()
                .filter_map(|r| match &r.data {
                    TraceData::LinkExit { .. } => Some((r.at, false)),
                    TraceData::LinkEnter { .. } => Some((r.at, true)),
                    _ => None,
                })
                .collect();
            (answered, crossings)
        };
        let (answered, crossings) = run();
        assert_eq!(answered, 3, "queries at 0, 1 and 2 ms were answered");
        assert_eq!(crossings.len(), 6);
        for pair in crossings.chunks(2) {
            let [(left, false), (entered, true)] = pair else {
                panic!("a query leaves, then its reply enters: {crossings:?}");
            };
            assert_eq!(entered, left);
        }
        assert_eq!((answered, crossings), run());
    }

    #[test]
    fn cached_dir_reply_equals_a_rebuild_for_every_querier() {
        let (mut fab, ports) = probed_rack(4);
        fab.run_for(SimDuration::from_millis(5));
        assert_eq!(fab.directory().len(), 4);
        for (q, &port) in ports.iter().enumerate() {
            let (epoch, cached) = fab.machines[q].dir_reply.clone().expect("q was answered");
            assert_eq!(epoch, fab.dir_epoch());
            assert_eq!(cached, fab.build_dir_reply(q), "querier m{q}");
            // What the querier received over several ticks is that reply.
            let prober = fab.machine(MachineId(q as u32)).host_as::<Prober>(port);
            let replies = &prober.unwrap().replies;
            assert!(replies.len() >= 4, "m{q} got {} replies", replies.len());
            assert_eq!(replies.last(), Some(&cached));
            assert_eq!(replies[replies.len() - 2], cached);
        }
        // The rebuilds above opened no port: the proxy table was complete.
        let proxies: Vec<usize> = fab.machines.iter().map(|s| s.proxy.len()).collect();
        assert_eq!(proxies, vec![3; 4]);
    }

    #[test]
    fn killed_machine_leaves_the_next_reply_and_bumps_the_epoch() {
        let (mut fab, ports) = probed_rack(3);
        fab.run_for(SimDuration::from_millis(3));
        let (epoch, names) = last_reply(&fab, 0, ports[0]);
        assert_eq!(names, ["m0/nic0", "m1/nic0", "m2/nic0"]);
        assert_eq!(epoch, fab.dir_epoch());

        fab.kill_machine(MachineId(2));
        fab.run_for(SimDuration::from_millis(2));
        assert_eq!(fab.dir_epoch(), epoch + 1, "the sweep after the kill bumps");
        for (q, &port) in ports.iter().enumerate().take(2) {
            let (seen, names) = last_reply(&fab, q, port);
            assert_eq!(
                seen,
                epoch + 1,
                "survivor m{q} is answered at the new epoch"
            );
            assert_eq!(names, ["m0/nic0", "m1/nic0"]);
        }
        assert_eq!(fab.metrics().counter("fabric.dir.removals"), 1);
    }

    #[test]
    fn late_device_changes_the_directory_exactly_once() {
        let (mut fab, ports) = probed_rack(2);
        fab.run_for(SimDuration::from_millis(2));
        let epoch = fab.dir_epoch();
        let syncs = fab.metrics().counter("fabric.dir.syncs");

        let sys = fab.machine_mut(MachineId(1));
        let late = sys.add_net_device(Box::new(Nic("nic1")));
        sys.start_device(late);
        fab.run_for(SimDuration::from_millis(2));
        assert_eq!(fab.dir_epoch(), epoch + 1);
        let (seen, names) = last_reply(&fab, 0, ports[0]);
        assert_eq!(seen, epoch + 1);
        assert_eq!(names, ["m0/nic0", "m1/nic0", "m1/nic1"]);

        fab.run_for(SimDuration::from_millis(5));
        assert_eq!(fab.dir_epoch(), epoch + 1, "later sweeps find no change");
        assert!(fab.metrics().counter("fabric.dir.syncs") > syncs + 20);
    }

    #[test]
    fn qualified_name_comparison_is_exact() {
        assert!(is_qualified("m12/nic0", 12, "nic0"));
        assert!(is_qualified("m0/a/b", 0, "a/b"));
        for (q, m, d) in [
            ("m12/nic0", 1, "2/nic0"),
            ("m012/nic0", 12, "nic0"),
            ("m12/nic0x", 12, "nic0"),
            ("m12/nic", 12, "nic0"),
            ("12/nic0", 12, "nic0"),
        ] {
            assert_eq!(is_qualified(q, m, d), q == format!("m{m}/{d}"), "{q}");
        }
    }

    #[test]
    fn correlation_ids_span_machines_in_the_merged_trace() {
        // A ping tunneled m0 -> m1 must keep its correlation id across the
        // link: the merged trace shows the same id on both machines' tracks
        // (sources prefixed "m0/" and "m1/"), and the two machines' id
        // ranges never alias thanks to the per-machine corr rebase.
        let mut fab = Fabric::new(FabricConfig::default());
        let mk = |seed| {
            System::new(SystemConfig {
                seed,
                trace: true,
                ..SystemConfig::default()
            })
        };
        let m0 = fab.add_machine("m0", mk(21));
        let m1 = fab.add_machine("m1", mk(22));
        let echo_port = fab.machine_mut(m1).add_host(Box::new(Echo));
        let tunnel = fab.open_tunnel(m0, m1, echo_port);
        let _ = fab.machine_mut(m0).add_host(Box::new(Pinger {
            target: tunnel,
            payload: vec![9; 32],
            replies: Vec::new(),
        }));
        fab.power_on();
        fab.run_for(SimDuration::from_millis(5));
        let merged = fab.merged_trace();
        assert!(!merged.is_empty());
        let mut spans_both = 0;
        let corrs: std::collections::BTreeSet<u64> = merged
            .events()
            .filter(|r| r.corr.is_some())
            .map(|r| r.corr.0)
            .collect();
        for &c in &corrs {
            let on_m0 = merged
                .by_corr(CorrId(c))
                .any(|r| r.source.starts_with("m0/"));
            let on_m1 = merged
                .by_corr(CorrId(c))
                .any(|r| r.source.starts_with("m1/"));
            if on_m0 && on_m1 {
                spans_both += 1;
            }
        }
        assert!(
            spans_both >= 1,
            "at least the ping's correlation id must appear on both machines"
        );
        // Rack-unique id namespaces: every traced id sits in some machine's
        // rebased range (machine m mints from (m+1) << 40), and the ping —
        // minted on m0 — sits in m0's.
        assert!(corrs.iter().all(|&c| c >= 1 << 40));
        assert!(corrs.iter().any(|&c| (1 << 40..2 << 40).contains(&c)));
    }

    #[test]
    fn leaf_spine_cross_leaf_ping_pays_four_hops() {
        use crate::topology::{TopoKind, TopologyConfig};
        // m0 (leaf 0) pings an echo on m3 (leaf 1) across a spine: each
        // crossing pays 4 transmissions + 3 switch hops + propagation.
        let mut fab = Fabric::new(FabricConfig {
            topology: TopologyConfig {
                kind: TopoKind::LeafSpine { leaf_size: 2 },
                oversub: 1,
            },
            ..FabricConfig::default()
        });
        let m0 = fab.add_machine("m0", quiet_sys(1));
        for i in 1..4 {
            fab.add_machine(format!("m{i}"), quiet_sys(1 + i as u64));
        }
        let m3 = MachineId(3);
        let echo_port = fab.machine_mut(m3).add_host(Box::new(Echo));
        let tunnel = fab.open_tunnel(m0, m3, echo_port);
        let ping_port = fab.machine_mut(m0).add_host(Box::new(Pinger {
            target: tunnel,
            payload: vec![7; 64],
            replies: Vec::new(),
        }));
        fab.power_on();
        fab.run_for(SimDuration::from_millis(5));
        let host = fab.machine(m0).host_as::<Pinger>(ping_port).unwrap();
        assert_eq!(host.replies.len(), 1);
        let cost = &FabricConfig::default().link_cost;
        let wire = 64 + lastcpu_net::FRAME_OVERHEAD_BYTES;
        // Round trip = 2 crossings, each 4×tx + 3×switch + propagation.
        let one_way = 4 * cost.serialize(wire).as_nanos()
            + 3 * cost.switch_latency.as_nanos()
            + cost.propagation.as_nanos();
        assert!(
            host.replies[0].0.as_nanos() >= 2 * one_way,
            "reply at {} < 2 × {one_way}",
            host.replies[0].0.as_nanos()
        );
        assert_eq!(fab.topology().num_links(), 4 + 4 + 2 * 2 + 2 * 2);
    }

    #[test]
    fn topologies_are_deterministic() {
        use crate::topology::{TopoKind, TopologyConfig};
        for kind in [
            TopoKind::LeafSpine { leaf_size: 2 },
            TopoKind::FatTree { k: 0 },
        ] {
            let run = || {
                let mut fab = Fabric::new(FabricConfig {
                    topology: TopologyConfig { kind, oversub: 2 },
                    ..FabricConfig::default()
                });
                let m0 = fab.add_machine("m0", quiet_sys(10));
                for i in 1..6 {
                    fab.add_machine(format!("m{i}"), quiet_sys(10 + i as u64));
                }
                let m5 = MachineId(5);
                let echo_port = fab.machine_mut(m5).add_host(Box::new(Echo));
                let tunnel = fab.open_tunnel(m0, m5, echo_port);
                let port = fab.machine_mut(m0).add_host(Box::new(Pinger {
                    target: tunnel,
                    payload: vec![3; 256],
                    replies: Vec::new(),
                }));
                fab.power_on();
                fab.run_for(SimDuration::from_millis(5));
                let at = fab.machine(m0).host_as::<Pinger>(port).unwrap().replies[0].0;
                (at, fab.metrics().counter("fabric.bytes"))
            };
            assert_eq!(run(), run(), "{kind}: rerun diverged");
        }
    }

    #[test]
    fn link_serialization_queues_on_shared_uplink() {
        // Two large frames leaving m0 back-to-back must serialize on m0's
        // uplink: the second reply arrives later than the first by at
        // least one transmission time.
        struct DoublePing {
            t1: PortId,
            t2: PortId,
            replies: Vec<SimTime>,
        }
        impl NetHost for DoublePing {
            fn name(&self) -> &str {
                "double"
            }
            fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
                ctx.net_tx(self.t1, vec![0; 9000]);
                ctx.net_tx(self.t2, vec![0; 9000]);
            }
            fn on_frame(&mut self, ctx: &mut HostCtx<'_>, _frame: Frame) {
                self.replies.push(ctx.now);
            }
        }
        let mut fab = Fabric::new(FabricConfig::default());
        let m0 = fab.add_machine("m0", quiet_sys(1));
        let m1 = fab.add_machine("m1", quiet_sys(2));
        let m2 = fab.add_machine("m2", quiet_sys(3));
        let e1 = fab.machine_mut(m1).add_host(Box::new(Echo));
        let e2 = fab.machine_mut(m2).add_host(Box::new(Echo));
        let t1 = fab.open_tunnel(m0, m1, e1);
        let t2 = fab.open_tunnel(m0, m2, e2);
        let port = fab.machine_mut(m0).add_host(Box::new(DoublePing {
            t1,
            t2,
            replies: Vec::new(),
        }));
        fab.power_on();
        fab.run_for(SimDuration::from_millis(10));
        let host = fab.machine(m0).host_as::<DoublePing>(port).unwrap();
        assert_eq!(host.replies.len(), 2);
        let gap = host.replies[1].since(host.replies[0]);
        let tx = fab.config().link_cost.serialize_frame(9000);
        assert!(
            gap >= tx,
            "second frame must queue behind the first on the shared uplink \
             (gap {gap:?} < tx {tx:?})"
        );
    }
}
