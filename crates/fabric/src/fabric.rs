//! The rack fabric: N machines, one clock, modeled inter-machine links.

use lastcpu_bus::wire::Wire;
use lastcpu_core::{System, TunnelDelivery};
use lastcpu_net::{Frame, NetCostModel, PortId};
use lastcpu_sim::{
    costs, profile, BufPool, CorrId, DetHashMap, EventQueue, FaultEvent, FaultKind, FaultPlan,
    MetricsHub, Name, SimDuration, SimTime, TraceData, TraceSink,
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
    /// Inter-machine link timing. The defaults are the `link.*` rows and
    /// model 25 GbE wires: 40 ps/B line rate on every link, 600 ns
    /// store-and-forward switch latency, 2 µs end-to-end propagation.
    pub link_cost: NetCostModel,
    /// The rack wiring graph (leaf-spine, whose one-leaf case is the
    /// single-switch fabric, or k-ary fat-tree) plus the oversubscription
    /// ratio. The graph is built at
    /// [`Fabric::power_on`], when the machine count is known.
    pub topology: TopologyConfig,
    /// Period of the directory synchronization sweep (federated SSDP).
    pub sync_interval: SimDuration,
    /// Latency of an in-band directory query answer (the controller sits
    /// on the spine, one hop away).
    pub dir_latency: SimDuration,
    /// Optional whole-machine fault schedule. Targets are machine names
    /// (`"m0"`, `"m1"`, …): `Drop`/`Corrupt`/`Delay` act on that machine's
    /// links, `Crash`/`Hang` kill the machine. [`Fabric::power_on`] refuses
    /// a plan naming any other target or kind.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            seed: 0xFAB,
            link_cost: NetCostModel {
                per_byte_ps: costs::LINK_PER_BYTE,
                switch_latency: costs::LINK_SWITCH_LATENCY,
                propagation: costs::LINK_PROPAGATION,
            },
            topology: TopologyConfig::default(),
            sync_interval: costs::FABRIC_SYNC_INTERVAL,
            dir_latency: costs::FABRIC_DIR_LATENCY,
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

lastcpu_snap::record! { DirEntry { machine, name, kind, port } }

/// The far side of a proxy port: a specific port on a specific machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct RemotePeer {
    machine: u32,
    port: PortId,
}

lastcpu_snap::record! { RemotePeer { machine, port } }

/// Per-machine link fault state (consumed counts, like the bus layer).
#[derive(Debug, Default)]
struct LinkFaults {
    drop_remaining: u32,
    delay_remaining: u32,
    delay_extra: SimDuration,
}

lastcpu_snap::fields! { LinkFaults |self| { drop_remaining, delay_remaining, delay_extra } }

lastcpu_sim::instruments! {
    /// The fabric's instruments (link, directory and fault counters).
    struct FabricMetrics {
        frames_forwarded: counter "fabric.frames_forwarded",
        frames_dropped: counter "fabric.frames_dropped",
        frames_delayed: counter "fabric.frames_delayed",
        bytes: counter "fabric.bytes",
        dir_queries: counter "fabric.dir.queries",
        dir_syncs: counter "fabric.dir.syncs",
        dir_removals: counter "fabric.dir.removals",
        faults_applied: counter "fabric.faults_applied",
        dir_epoch: gauge "fabric.dir_epoch",
        machines_dead: gauge "fabric.machines_dead",
    }
}

lastcpu_sim::instruments! {
    /// One machine's link into the fabric, registered when it is added.
    struct LinkMetrics(idx: usize) {
        bytes: counter "fabric.link.m{idx}.bytes",
        frames: counter "fabric.link.m{idx}.frames",
    }
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
    link: LinkMetrics,
}

impl MachineSlot {
    /// The proxy port on this machine for `(machine, port)`, opened on
    /// first sight.
    fn proxy_port(&mut self, machine: u32, port: PortId) -> PortId {
        let peer = RemotePeer { machine, port };
        if let Some(&p) = self.proxy.get(&peer) {
            return p;
        }
        let p = self.sys.add_tunnel_port();
        self.proxy.insert(peer, p);
        self.proxy_rev.insert(p, peer);
        p
    }
}

/// A frame that finished crossing an inter-machine link (or a directory
/// reply) and enters `machine`'s edge switch at its scheduled time.
struct LinkDelivery {
    machine: usize,
    frame: Frame,
    corr: CorrId,
}

lastcpu_snap::record! { LinkDelivery { machine, frame, corr } }

/// What [`Fabric::run_until`] retires next, listed in the order candidates
/// are offered: at equal time the earlier-listed one goes first.
#[derive(Debug, Clone, Copy)]
enum Due {
    Sweep,
    Fault,
    Link,
    Machine(usize),
}

/// The machines' next event times as a winner tree: the earliest
/// `(time, index)` is read at the root, and a changed key costs one walk from
/// its leaf up. `None` — an idle or dead machine — loses to every time, so no
/// `SimTime` is reserved to mean "nothing due".
#[derive(Default)]
struct NextEvents {
    /// Node `k` holds the least [`rank`](Self::rank) below it: the root is
    /// node 1, node `k`'s children are `2k` and `2k + 1`, and machine `i` is
    /// leaf node `tree.len() / 2 + i`. The tree is a power of two wide;
    /// leaves past the machine count rank as `None`.
    tree: Vec<u128>,
}

impl NextEvents {
    /// Bit 96 set for `None`, the time in bits 32..96, the index below: one
    /// integer comparison orders `(key, index)` with `None` last, and a
    /// node is the plain `min` of its children.
    fn rank(i: usize, key: Option<SimTime>) -> u128 {
        let (idle, t) = key.map_or((1, 0), |t| (0, t.as_nanos()));
        idle << 96 | u128::from(t) << 32 | i as u128
    }

    /// Rebuilds the tree over one key per machine, in index order.
    fn rebuild(&mut self, keys: impl ExactSizeIterator<Item = Option<SimTime>>) {
        let leaves = keys.len().next_power_of_two();
        self.tree.clear();
        self.tree.resize(leaves, 0);
        self.tree.extend(
            keys.chain(std::iter::repeat(None))
                .take(leaves)
                .enumerate()
                .map(|(i, key)| Self::rank(i, key)),
        );
        for k in (1..leaves).rev() {
            self.tree[k] = self.tree[2 * k].min(self.tree[2 * k + 1]);
        }
    }

    /// Sets machine `i`'s key and replays the matches on its path.
    fn set(&mut self, i: usize, key: Option<SimTime>) {
        let mut k = self.tree.len() / 2 + i;
        self.tree[k] = Self::rank(i, key);
        while k > 1 {
            k /= 2;
            self.tree[k] = self.tree[2 * k].min(self.tree[2 * k + 1]);
        }
    }

    /// Takes machine `i` out of the running. A machine added since the last
    /// rebuild may have no leaf yet; the next rebuild finds it dead.
    fn leave(&mut self, i: usize) {
        if i < self.tree.len() / 2 {
            self.set(i, None);
        }
    }

    /// The earliest `(time, machine)`, ties to the lower index.
    fn first(&self) -> Option<(SimTime, usize)> {
        let r = *self.tree.get(1)?;
        (r >> 96 == 0).then(|| (SimTime::from_nanos((r >> 32) as u64), r as u32 as usize))
    }
}

/// Whether `qualified` is exactly `format!("m{machine}/{device}")`, decided
/// without building that string or formatting: the text between `m` and
/// the first `/` must be `machine`'s decimal digits, compared one at a
/// time from the last, with no leading zero.
fn is_qualified(qualified: &str, machine: usize, device: &str) -> bool {
    let Some((m, rest)) = qualified.split_once('/') else {
        return false;
    };
    let Some(mut digits) = m.strip_prefix('m').map(str::as_bytes) else {
        return false;
    };
    if rest != device {
        return false;
    }
    let mut n = machine;
    loop {
        let Some((&last, front)) = digits.split_last() else {
            return false;
        };
        if last != b'0' + (n % 10) as u8 {
            return false;
        }
        (digits, n) = (front, n / 10);
        if n == 0 {
            return digits.is_empty();
        }
    }
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
    /// Every live machine's next event time, as of its last refresh. Inside
    /// [`run_until`](Self::run_until) it equals each machine's
    /// `peek_next_at` whenever the next retirement is chosen (DESIGN.md
    /// §13.2 lists the four places that keep it so).
    next: NextEvents,
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
    /// `"fabric"`, the source of every link-hop record, in `trace`.
    link_source: Name,
    met: FabricMetrics,
}

impl Fabric {
    /// An empty fabric.
    pub fn new(cfg: FabricConfig) -> Self {
        let metrics = MetricsHub::new();
        let met = FabricMetrics::register(&metrics);
        let mut trace = TraceSink::default();
        trace.set_enabled(false);
        let link_source = trace.name("fabric");
        let topo = Topology::build(&cfg.topology, &cfg.link_cost, 0, cfg.seed);
        Fabric {
            cfg,
            topo,
            machines: Vec::new(),
            next: NextEvents::default(),
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
            link_source,
            met,
        }
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

    /// Current global virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Adds a machine. The fabric rebases the machine's correlation-id
    /// allocator to `(index + 1) << 40` so ids are rack-unique, and opens
    /// the machine's directory port.
    pub fn add_machine(&mut self, name: impl Into<String>, mut sys: System) -> MachineId {
        let idx = self.machines.len();
        // A link-hop record names a machine in 16 bits.
        assert!(
            idx < usize::from(u16::MAX),
            "a rack holds at most 65,535 machines"
        );
        sys.set_corr_base(((idx as u64) + 1) << 40);
        sys.pool().set_owner(idx as u32);
        let dir_port = sys.add_tunnel_port();
        let link = LinkMetrics::register(&self.metrics, idx);
        self.machines.push(MachineSlot {
            name: name.into(),
            sys,
            dead: false,
            proxy: DetHashMap::default(),
            proxy_rev: DetHashMap::default(),
            dir_port,
            faults: LinkFaults::default(),
            link,
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
        self.machines[on.0 as usize].proxy_port(to.0, to_port)
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
            self.met.machines_dead.add(1);
        }
        self.next.leave(m.0 as usize);
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
    ///
    /// # Panics
    ///
    /// Panics if a fault plan event names no machine of this rack, or is a
    /// device fault (`SlowDown`, `IommuStorm`) a rack does not apply.
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
            for (i, e) in plan.events().iter().enumerate() {
                assert!(
                    self.machines.iter().any(|s| s.name == e.target),
                    "fault plan event {i} ({} on {:?}) names no machine of this rack",
                    e.kind.tag(),
                    e.target
                );
                assert!(
                    !matches!(
                        e.kind,
                        FaultKind::SlowDown { .. } | FaultKind::IommuStorm { .. }
                    ),
                    "fault plan event {i} ({} on {:?}) is a device fault; a rack applies \
                     drop, corrupt, delay, crash and hang to a machine",
                    e.kind.tag(),
                    e.target
                );
            }
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
        // added, timers armed), so the tree is trusted only within one call.
        // What they queue sits at the machine's own clock, which trails the
        // rack's while the machine idles: the rack goes back for what this
        // call will retire.
        self.next.rebuild(
            self.machines
                .iter_mut()
                .map(|slot| slot.sys.peek_next_at().filter(|_| !slot.dead)),
        );
        if let Some((t, _)) = self.next.first().filter(|&(t, _)| t <= deadline) {
            self.now = self.now.min(t);
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
            if let Some((t, i)) = self.next.first() {
                offer(Some(t), Due::Machine(i));
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
            self.met.frames_dropped.incr();
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
        let at = slot.sys.peek_next_at();
        self.next.set(d.machine, at);
    }

    /// Steps machine `i` by one event, then crosses whatever tunnel output
    /// the event produced.
    fn step_machine(&mut self, i: usize) {
        let mut out = std::mem::take(&mut self.tunnel_out);
        let slot = &mut self.machines[i];
        slot.sys.step();
        let at = slot.sys.peek_next_at();
        slot.sys.drain_tunnel_into(&mut out);
        self.next.set(i, at);
        for d in out.drain(..) {
            if d.port == self.machines[i].dir_port {
                self.answer_dir_query(i, d);
            } else if let Some(&peer) = self.machines[i].proxy_rev.get(&d.port) {
                self.forward(i, peer, d);
            } else {
                // A tunnel port the fabric does not know (cannot happen for
                // fabric-created ports; defensive).
                self.met.frames_dropped.incr();
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
        let mut parts: Vec<(&TraceSink, Option<&str>)> = self
            .machines
            .iter()
            .map(|slot| (slot.sys.trace(), Some(slot.name.as_str())))
            .collect();
        // Fabric link-hop records sort after same-time machine records.
        parts.push((&self.trace, None));
        TraceSink::merged(&parts)
    }

    // --- internals --------------------------------------------------------

    /// Crosses the inter-machine link from `a` to `peer.machine`.
    fn forward(&mut self, a: usize, peer: RemotePeer, d: TunnelDelivery) {
        let _prof = profile::span("fabric.forward");
        let b = peer.machine as usize;
        if self.machines[a].dead || self.machines[b].dead {
            self.met.frames_dropped.incr();
            return;
        }
        // Link faults: a `Drop` on either endpoint consumes the frame; a
        // `Delay` on either endpoint adds its extra latency.
        if self.machines[a].faults.drop_remaining > 0 {
            self.machines[a].faults.drop_remaining -= 1;
            self.met.frames_dropped.incr();
            return;
        }
        if self.machines[b].faults.drop_remaining > 0 {
            self.machines[b].faults.drop_remaining -= 1;
            self.met.frames_dropped.incr();
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
            self.met.frames_delayed.incr();
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
                self.link_source,
                d.corr,
                TraceData::LinkHop {
                    // `add_machine` keeps machine indices below `u16::MAX`.
                    src_machine: a as u16,
                    dst_machine: b as u16,
                    bytes: wire,
                    uplink_ns,
                    spine_ns,
                    downlink_ns,
                },
            );
        }
        // The frame re-enters b with its source rewritten to b's proxy for
        // the original sender, so replies tunnel back symmetrically.
        let src_on_b = self.machines[b].proxy_port(a as u32, d.frame.src);
        let frame = Frame::unicast(src_on_b, peer.port, d.frame.payload);
        for m in [a, b] {
            self.machines[m].link.bytes.add(wire);
            self.machines[m].link.frames.incr();
        }
        self.met.bytes.add(wire);
        self.met.frames_forwarded.incr();
        self.queue.schedule_at(
            deliver,
            LinkDelivery {
                machine: b,
                frame,
                corr: d.corr,
            },
        );
    }

    /// Answers an in-band directory query from machine `q`: `Unchanged`
    /// to a querier already at the current epoch, the full directory to any
    /// other.
    fn answer_dir_query(&mut self, q: usize, d: TunnelDelivery) {
        let _prof = profile::span("fabric.dir_query");
        self.met.dir_queries.incr();
        let Ok(DirMsg::Query { epoch_hint }) = DirMsg::decode(&d.frame.payload) else {
            self.met.frames_dropped.incr();
            return;
        };
        let reply = if epoch_hint == self.dir_epoch {
            DirMsg::Unchanged.encode()
        } else {
            self.build_dir_reply(q)
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
        let slot = &mut self.machines[q];
        let endpoints = self
            .directory
            .iter()
            .map(|e| DirEndpoint {
                name: e.name.clone(),
                kind: e.kind.clone(),
                machine: e.machine,
                port: if e.machine as usize == q {
                    e.port.0
                } else {
                    slot.proxy_port(e.machine, e.port).0
                },
            })
            .collect();
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
        self.met.dir_syncs.incr();
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
            self.met.dir_removals.add(removed);
        }
        self.dir_epoch += 1;
        self.met.dir_epoch.set(self.dir_epoch as i64);
        self.directory = fresh;
    }

    fn apply_fault(&mut self, idx: usize) {
        let ev = self.faults[idx].clone();
        let m = self
            .machines
            .iter()
            .position(|s| s.name == ev.target)
            .expect("power_on checked every target");
        self.met.faults_applied.incr();
        match ev.kind {
            FaultKind::Crash | FaultKind::Hang => self.kill_machine(MachineId(m as u32)),
            FaultKind::Drop { count } | FaultKind::Corrupt { count } => {
                // Corrupted inter-machine frames fail their FCS and are
                // dropped; both kinds consume frames on this machine's link.
                self.machines[m].faults.drop_remaining += count;
            }
            FaultKind::Delay { count, extra_ns } => {
                // A smaller second delay does not shorten what the first
                // still owes (the machine's own link faults do the same).
                let f = &mut self.machines[m].faults;
                f.delay_remaining += count;
                f.delay_extra = SimDuration::from_nanos(extra_ns.max(f.delay_extra.as_nanos()));
            }
            FaultKind::SlowDown { .. } | FaultKind::IommuStorm { .. } => {
                unreachable!("power_on refuses a device fault in a rack plan")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rack checkpoints
// ---------------------------------------------------------------------------

use lastcpu_snap::{
    Checkpoint, Diff, Each, Encoded, Manifest, Restore as _, SectionSink, SnapError, SnapReader,
    Snapshot as _, Span as _,
};

/// The `fabric` section, the rack's own durable state: clock, directory,
/// fault schedule, the frames in flight between machines (the link queue's
/// clock, cursors and every pending delivery), link occupancy, proxy
/// wiring, and per-machine link faults.
struct Rack;

lastcpu_snap::fields! { Rack for Fabric |f| {
    now, dir_epoch, next_sync, fault_cursor, faults, queue, directory, mut topo,
    machines: ..Each,
} }

// One machine's part of the `fabric` section; its system has a section of
// its own. The reverse proxy map is the forward one, inverted.
lastcpu_snap::fields! { MachineSlot |self| { name, dead, dir_port, proxy, mut faults } restored {
    self.proxy_rev = self.proxy.iter().map(|(&peer, &port)| (port, peer)).collect();
} }

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
        out.section("fabric", Rack.bytes(self));
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
        self.verify(ck, Diff::new)
    }

    /// The verify of [`verify_checkpoint`](Self::verify_checkpoint), with
    /// the comparator `diff` makes.
    fn verify<'c>(
        &self,
        ck: &'c Checkpoint,
        diff: impl FnOnce(&'c Checkpoint, &Manifest) -> Diff<'c>,
    ) -> lastcpu_snap::Result<()> {
        let label = &ck.manifest.label;
        let mut diff = diff(ck, &self.manifest(label));
        self.each_section(label, &mut diff)?;
        match diff.finish() {
            Some(detail) => Err(SnapError::VerifyMismatch {
                section: "rack".into(),
                detail,
            }),
            None => Ok(()),
        }
    }

    /// Loads every section of `ck` through its reader: the `fabric`
    /// section, the fabric metrics and link trace, then each machine's
    /// encoded checkpoint, read in place, through [`System::load`], with
    /// every machine's pool installed for the payloads they hold. The event
    /// cursor is the manifest's, which verification compares.
    fn load(&mut self, ck: &Checkpoint) -> lastcpu_snap::Result<()> {
        let pools: Vec<BufPool> = self.machines.iter().map(|m| m.sys.pool().clone()).collect();
        BufPool::loading(&pools, || {
            for (tag, body) in ck.sections() {
                let mut r = SnapReader::new(tag, body);
                let machine = (tag.strip_prefix("machine"))
                    .and_then(|i| i.parse::<usize>().ok())
                    .and_then(|i| self.machines.get_mut(i));
                match (tag, machine) {
                    ("fabric", _) => Rack.take(self, &mut r)?,
                    ("metrics", _) => self.metrics.restore(&mut r)?,
                    ("trace", _) => self.trace.restore(&mut r)?,
                    (_, Some(slot)) => {
                        slot.sys.load(Encoded::read(body)?.sections)?;
                        continue;
                    }
                    (_, None) => return Err(r.corrupt("not a section of this rack")),
                }
                r.finish()?;
            }
            self.events = ck.manifest.events;
            Ok(())
        })
    }

    /// Restores this rack to the state captured in `ck`.
    ///
    /// The rack must be freshly built from the same recipe (checked via
    /// the manifest fingerprint) and powered on. Restore loads every
    /// section, each machine's through the machine's own loader, in
    /// O(state) and without running an event, then verifies the manifest
    /// and every section, including each machine's full checkpoint,
    /// byte-for-byte. Fails loudly on any divergence.
    ///
    /// Each checksum inside a machine's section is hashed once, by the
    /// load's [`Encoded::read`]; the verify that follows takes the checked
    /// ones as checked ([`Diff::after_load`]).
    pub fn restore_from(&mut self, ck: &Checkpoint) -> lastcpu_snap::Result<()> {
        ck.manifest.admit("rack", None, self.config_fingerprint())?;
        self.load(ck)?;
        self.verify(ck, Diff::after_load)
    }
}

#[cfg(test)]
mod next_events {
    use super::*;
    use proptest::prelude::*;

    /// The choice before the tree, kept as its oracle: a fold over every
    /// live machine's next event time, where only a strictly earlier time
    /// displaces the candidate.
    fn fold(next_at: &[Option<SimTime>], dead: &[bool]) -> Option<(SimTime, usize)> {
        let mut next: Option<(SimTime, usize)> = None;
        for (i, &t) in next_at.iter().enumerate() {
            if let Some(t) = t.filter(|_| !dead[i]) {
                if !next.is_some_and(|(earliest, _)| earliest <= t) {
                    next = Some((t, i));
                }
            }
        }
        next
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A machine's next event moved (a step or an injected frame);
        /// `None` is idle.
        Set(usize, Option<u64>),
        Kill(usize),
        /// Every machine idle at once.
        IdleAll,
        /// `run_until` entry, after `add` machines joined between calls.
        Rebuild {
            add: usize,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        // Six small times, the two largest a `SimTime` can hold and an idle
        // key: ties are common, and a time's top bit meets the idle bit.
        (0u8..11, any::<usize>(), 0u64..9).prop_map(|(kind, i, t)| match kind {
            0..=7 => Op::Set(
                i,
                (t < 8).then(|| if t < 6 { t } else { u64::MAX - (t - 6) }),
            ),
            8 => Op::Kill(i),
            9 => Op::IdleAll,
            _ => Op::Rebuild { add: i % 3 },
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After every step the tree names the fold's `(time, index)`, at
        /// any width up to 130 machines.
        #[test]
        fn prop_tree_matches_fold(m in 0usize..=130, ops in proptest::collection::vec(op(), 0..200)) {
            let mut next_at: Vec<Option<SimTime>> = vec![None; m];
            let mut dead = vec![false; m];
            let mut tree = NextEvents::default();
            let rebuild = |tree: &mut NextEvents, next_at: &[Option<SimTime>], dead: &[bool]| {
                tree.rebuild(next_at.iter().zip(dead).map(|(&t, &d)| t.filter(|_| !d)));
            };
            rebuild(&mut tree, &next_at, &dead);
            prop_assert_eq!(tree.first(), None);
            for op in ops {
                let m = next_at.len();
                match op {
                    Op::Set(i, t) if m > 0 && !dead[i % m] => {
                        next_at[i % m] = t.map(SimTime::from_nanos);
                        tree.set(i % m, next_at[i % m]);
                    }
                    Op::Kill(i) if m > 0 => {
                        dead[i % m] = true;
                        tree.leave(i % m);
                    }
                    Op::IdleAll => {
                        for (i, t) in next_at.iter_mut().enumerate() {
                            *t = None;
                            if !dead[i] {
                                tree.set(i, None);
                            }
                        }
                        prop_assert_eq!(tree.first(), None);
                    }
                    Op::Rebuild { add } => {
                        let grown = (m + add).min(130);
                        next_at.resize(grown, Some(SimTime::ZERO));
                        dead.resize(grown, false);
                        rebuild(&mut tree, &next_at, &dead);
                    }
                    _ => {}
                }
                prop_assert_eq!(tree.first(), fold(&next_at, &dead));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_bus::{Dst, Envelope, Payload};
    use lastcpu_core::devices::device::{Device, DeviceCtx};
    use lastcpu_core::{HostCtx, NetHost, SystemConfig};

    /// Echoes every frame back to its source. It keeps no state, so its
    /// section is empty.
    struct Echo;
    impl NetHost for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}
        fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
            ctx.net_tx(frame.src, frame.payload);
        }
        fn snapshot_state(&self, _w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
            Ok(())
        }
        fn restore_state(&mut self, _r: &mut SnapReader<'_>) -> lastcpu_snap::Result<()> {
            Ok(())
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
        assert!(!fab.trace.is_enabled());
        assert!(fab.trace.is_empty());
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

    /// Powers on a two-machine rack armed with one plan event.
    fn rack_with_fault(target: &str, kind: FaultKind) -> Fabric {
        let mut plan = FaultPlan::new(9);
        plan.inject(SimTime::from_nanos(2_000_000), target, kind);
        let mut fab = Fabric::new(FabricConfig {
            fault_plan: Some(plan),
            ..FabricConfig::default()
        });
        fab.add_machine("m0", quiet_sys(1));
        fab.add_machine("m1", quiet_sys(2));
        fab.power_on();
        fab
    }

    #[test]
    #[should_panic(expected = "fault plan event 0 (crash on \"m7\") names no machine")]
    fn a_fault_aimed_at_no_machine_is_refused_at_power_on() {
        rack_with_fault("m7", FaultKind::Crash);
    }

    #[test]
    #[should_panic(expected = "fault plan event 0 (slowdown on \"m1\") is a device fault")]
    fn a_device_fault_in_a_rack_plan_is_refused_at_power_on() {
        let slow = FaultKind::SlowDown {
            factor: 2,
            for_ns: 1_000,
        };
        rack_with_fault("m1", slow);
    }

    #[test]
    fn directory_query_round_trips_in_band() {
        // No devices registered -> the directory stays empty at epoch 0, but
        // the protocol and both fabric answers still round-trip: a querier
        // that holds epoch 0 is told `Unchanged`, any other gets the
        // (empty) directory.
        struct DirProbe {
            dir: PortId,
            replies: Vec<DirMsg>,
        }
        impl NetHost for DirProbe {
            fn name(&self) -> &str {
                "dir-probe"
            }
            fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
                for epoch_hint in [0, 1] {
                    ctx.net_tx(self.dir, DirMsg::Query { epoch_hint }.encode());
                }
            }
            fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, frame: Frame) {
                self.replies.push(DirMsg::decode(&frame.payload).unwrap());
            }
        }
        let mut fab = Fabric::new(FabricConfig::default());
        let m0 = fab.add_machine("m0", quiet_sys(5));
        let dir = fab.directory_port(m0);
        let replies = Vec::new();
        let port = fab
            .machine_mut(m0)
            .add_host(Box::new(DirProbe { dir, replies }));
        fab.power_on();
        fab.run_for(SimDuration::from_millis(1));
        let probe = fab.machine(m0).host_as::<DirProbe>(port).unwrap();
        let empty = DirMsg::Reply {
            epoch: 0,
            endpoints: Vec::new(),
        };
        assert_eq!(probe.replies, [DirMsg::Unchanged, empty]);
        assert_eq!(fab.metrics().counter("fabric.dir.queries"), 2);
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
        fn snapshot_state(&self, _w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
            Ok(())
        }
        fn restore_state(&mut self, _r: &mut SnapReader<'_>) -> lastcpu_snap::Result<()> {
            Ok(())
        }
    }

    /// Queries the directory at start and every millisecond after, as a
    /// shard router does: each query carries the epoch of the last full
    /// reply. Keeps every answer's bytes; a checkpoint holds the epoch.
    struct Prober {
        dir: PortId,
        epoch: u64,
        replies: Vec<Vec<u8>>,
    }
    impl Prober {
        fn new(dir: PortId) -> Prober {
            Prober {
                dir,
                epoch: 0,
                replies: Vec::new(),
            }
        }
    }
    impl NetHost for Prober {
        fn name(&self) -> &str {
            "prober"
        }
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            self.on_timer(ctx, 0);
        }
        fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, frame: Frame) {
            if let Ok(DirMsg::Reply { epoch, .. }) = DirMsg::decode(&frame.payload) {
                self.epoch = epoch;
            }
            self.replies.push(frame.payload.to_vec());
        }
        fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
            let query = DirMsg::Query {
                epoch_hint: self.epoch,
            };
            ctx.net_tx(self.dir, query.encode());
            ctx.set_timer(SimDuration::from_millis(1), token);
        }
        fn snapshot_state(&self, w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
            w.put_u64(self.epoch);
            Ok(())
        }
        fn restore_state(&mut self, r: &mut SnapReader<'_>) -> lastcpu_snap::Result<()> {
            self.epoch = r.u64()?;
            self.replies.clear();
            Ok(())
        }
    }

    /// The answers `m`'s prober received, decoded, in arrival order.
    fn answers(fab: &Fabric, m: usize, port: PortId) -> Vec<DirMsg> {
        let prober = fab.machine(MachineId(m as u32)).host_as::<Prober>(port);
        let replies = &prober.expect("a prober").replies;
        let decode = |b: &Vec<u8>| DirMsg::decode(b).expect("answer decodes");
        replies.iter().map(decode).collect()
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
                sys.add_host(Box::new(Prober::new(dir)))
            })
            .collect();
        fab.power_on();
        (fab, ports)
    }

    /// The epoch and endpoint names of the last full reply `m` received.
    fn last_reply(fab: &Fabric, m: usize, port: PortId) -> (u64, Vec<String>) {
        let full = answers(fab, m, port)
            .into_iter()
            .rev()
            .find_map(|a| match a {
                DirMsg::Reply { epoch, endpoints } => Some((epoch, endpoints)),
                _ => None,
            });
        let (epoch, endpoints) = full.expect("a full reply arrived");
        (epoch, endpoints.into_iter().map(|e| e.name).collect())
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
            let port = fab.machine_mut(m0).add_host(Box::new(Prober::new(dir)));
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
    fn a_querier_at_the_current_epoch_is_answered_unchanged() {
        let (mut fab, ports) = probed_rack(4);
        fab.run_for(SimDuration::from_millis(5));
        assert_eq!(fab.directory().len(), 4);
        let epoch = fab.dir_epoch();
        for (q, &port) in ports.iter().enumerate() {
            // A stale hint gets the full directory; once the querier holds
            // the current epoch, every answer is `Unchanged`.
            let got = answers(&fab, q, port);
            assert!(got.len() >= 5, "m{q} got {} answers", got.len());
            let full = got.iter().position(|a| matches!(a, DirMsg::Reply { .. }));
            let full = full.expect("a stale query is answered in full");
            match &got[full] {
                DirMsg::Reply { epoch: seen, .. } => assert_eq!(*seen, epoch),
                other => panic!("m{q}: {other:?}"),
            }
            assert!(got[..full].iter().all(|a| *a == DirMsg::Unchanged));
            assert!(got[full + 1..].iter().all(|a| *a == DirMsg::Unchanged));
            let prober = fab.machine(MachineId(q as u32)).host_as::<Prober>(port);
            let received = prober.unwrap().replies[full].clone();
            assert_eq!(received, fab.build_dir_reply(q), "querier m{q}");
        }
        // The rebuilds above opened no port: the proxy table was complete.
        let proxies: Vec<usize> = fab.machines.iter().map(|s| s.proxy.len()).collect();
        assert_eq!(proxies, vec![3; 4]);
        // A querier that falls behind is answered in full again.
        fab.kill_machine(MachineId(3));
        let before = answers(&fab, 0, ports[0]).len();
        fab.run_for(SimDuration::from_millis(3));
        let after = &answers(&fab, 0, ports[0])[before..];
        let full: Vec<_> = after
            .iter()
            .filter(|a| matches!(a, DirMsg::Reply { .. }))
            .collect();
        assert_eq!(full.len(), 1, "{after:?}");
        assert_eq!(last_reply(&fab, 0, ports[0]).0, epoch + 1);
    }

    /// A restored querier holds the epoch of its checkpoint, and so does the
    /// restored directory: the first query after the restore is answered
    /// `Unchanged`, as it would have been without one.
    #[test]
    fn after_a_restore_the_first_query_is_answered_unchanged() {
        let (mut fab, ports) = probed_rack(3);
        fab.run_for(SimDuration::from_micros(5_500));
        let ck = fab.checkpoint("mid").expect("every component snapshots");
        let (mut loaded, _) = probed_rack(3);
        loaded.restore_from(&ck).expect("loads and verifies");
        loaded.run_for(SimDuration::from_millis(2));
        fab.run_for(SimDuration::from_millis(2));
        for (q, &port) in ports.iter().enumerate() {
            let got = answers(&loaded, q, port);
            assert_eq!(got.len(), 2, "m{q}");
            assert!(got.iter().all(|a| *a == DirMsg::Unchanged), "m{q}: {got:?}");
            let twin = answers(&fab, q, port);
            assert_eq!(twin[twin.len() - 2..], got[..], "m{q}");
        }
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
        sys.add_net_device(Box::new(Nic("nic1")));
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
            ("m03/x", 3, "x"),
            ("m3x", 3, "x"),
            ("m3x", 3, ""),
            ("m3/", 3, ""),
            ("m0/", 0, ""),
            ("m/x", 0, "x"),
            ("m65535/x", u16::MAX as usize, "x"),
            ("m65535/x", u16::MAX as usize + 1, "x"),
        ] {
            assert_eq!(is_qualified(q, m, d), q == format!("m{m}/{d}"), "{q}");
        }
    }

    proptest::proptest! {
        /// The digit-by-digit comparison decides what comparing against
        /// `format!` decides. The string is one of `m03/x`, `m3x`, `m3/`
        /// and `m65535/x`, or is built from a prefix, a machine number, a
        /// separator and a device, each drawn to be right or nearly right
        /// (a leading zero, a missing `/`, an empty device, a number past
        /// `u16::MAX`); the machine is drawn near the number.
        fn qualified_names_compare_as_format_does(
            named in 0usize..8,
            prefix in 0usize..3,
            written in 0usize..6,
            sep in 0usize..3,
            device in 0usize..5,
            machine in 0usize..6,
            salt in 0usize..200,
        ) {
            let numbers = [0, 3, 12, salt, u16::MAX as usize, u16::MAX as usize + 1];
            let n = numbers[written];
            let text = match salt % 2 {
                0 => n.to_string(),
                _ => format!("0{n}"),
            };
            let devices = ["x", "", "nic0", "a/b", "3"];
            let q = match named {
                0 => "m03/x".to_string(),
                1 => "m3x".to_string(),
                2 => "m3/".to_string(),
                3 => format!("m{}/x", u16::MAX),
                _ => format!(
                    "{}{text}{}{}",
                    ["m", "", "mm"][prefix],
                    ["/", "", "x"][sep],
                    devices[device],
                ),
            };
            let n = [3, 3, 3, u16::MAX as usize].get(named).copied().unwrap_or(n);
            let m = [n, n + 1, n.saturating_sub(1), 3, 30, n * 10][machine];
            for d in devices {
                proptest::prop_assert_eq!(is_qualified(&q, m, d), q == format!("m{m}/{d}"));
            }
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
            let on = |m: &str| {
                merged
                    .events()
                    .any(|r| r.corr == CorrId(c) && r.source().starts_with(m))
            };
            let (on_m0, on_m1) = (on("m0/"), on("m1/"));
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
        let wire = 9000 + lastcpu_net::FRAME_OVERHEAD_BYTES;
        let tx = fab.cfg.link_cost.serialize(wire);
        assert!(
            gap >= tx,
            "second frame must queue behind the first on the shared uplink \
             (gap {gap:?} < tx {tx:?})"
        );
    }

    /// Sends a frame to `target` every 2 µs, from the machine's payload
    /// pool. Its target is the recipe's, so its section is empty.
    struct Streamer {
        target: PortId,
    }
    impl NetHost for Streamer {
        fn name(&self) -> &str {
            "streamer"
        }
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            ctx.set_timer(SimDuration::from_micros(2), 0);
        }
        fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, _frame: Frame) {}
        fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
            ctx.net_tx(self.target, ctx.take_buf_filled(1, 256));
            ctx.set_timer(SimDuration::from_micros(2), 0);
        }
        fn snapshot_state(&self, _w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
            Ok(())
        }
        fn restore_state(&mut self, _r: &mut SnapReader<'_>) -> lastcpu_snap::Result<()> {
            Ok(())
        }
    }

    /// Three machines on leaf-spine:2, link tracing on, each streaming to
    /// the next one's echo host through a tunnel, with link delays armed on
    /// `m1`. Powered on, not run.
    fn streaming_rack() -> Fabric {
        use crate::topology::{TopoKind, TopologyConfig};
        let mut plan = FaultPlan::new(5);
        let delay = FaultKind::Delay {
            count: 1_000_000,
            extra_ns: 50,
        };
        plan.inject(SimTime::from_nanos(100_000), "m1", delay);
        let mut fab = Fabric::new(FabricConfig {
            topology: TopologyConfig {
                kind: TopoKind::LeafSpine { leaf_size: 2 },
                oversub: 1,
            },
            fault_plan: Some(plan),
            ..FabricConfig::default()
        });
        fab.set_link_tracing(true);
        let ms: Vec<MachineId> = (0..3u64)
            .map(|i| fab.add_machine(format!("m{i}"), quiet_sys(i)))
            .collect();
        let echoes: Vec<PortId> = ms
            .iter()
            .map(|&m| fab.machine_mut(m).add_host(Box::new(Echo)))
            .collect();
        for (i, &m) in ms.iter().enumerate() {
            let to = (i + 1) % ms.len();
            let target = fab.open_tunnel(m, ms[to], echoes[to]);
            fab.machine_mut(m).add_host(Box::new(Streamer { target }));
        }
        fab.power_on();
        fab
    }

    /// A second `Delay` on a machine whose first is still owed keeps the
    /// larger extra latency, as a machine's own link faults do: a smaller
    /// later delay does not shorten the frames the first one covers.
    #[test]
    fn a_smaller_second_delay_keeps_the_first_ones_latency() {
        let mut plan = FaultPlan::new(44);
        for (at, extra_ns) in [(100_000, 5_000), (200_000, 50)] {
            let delay = FaultKind::Delay {
                count: 1_000,
                extra_ns,
            };
            plan.inject(SimTime::from_nanos(at), "m1", delay);
        }
        let mut fab = Fabric::new(FabricConfig {
            fault_plan: Some(plan),
            ..FabricConfig::default()
        });
        for i in 0..2u64 {
            fab.add_machine(format!("m{i}"), quiet_sys(i));
        }
        fab.power_on();
        fab.run_until(SimTime::from_nanos(300_000));
        let faults = &fab.machines[1].faults;
        assert_eq!(faults.delay_remaining, 2_000);
        assert_eq!(faults.delay_extra, SimDuration::from_nanos(5_000));
    }

    /// The `fabric` section, restored into a twin run to the same instant
    /// and into a rack that was only built, snapshots to the bytes it was
    /// read from: the frames in flight load with it. A pending delivery
    /// before the link queue's clock is refused as corrupt.
    #[test]
    fn the_fabric_section_reads_back_what_it_wrote() {
        let at = SimTime::from_nanos(1_000_321);
        let mut fab = streaming_rack();
        fab.run_until(at);
        assert!(fab.queue.len() > 3, "frames are in flight");
        assert!(
            fab.queue.entries().iter().any(|(_, _, d)| d.corr.is_some()),
            "a frame in flight carries a correlation id"
        );
        assert!(
            fab.machines[1].faults.delay_remaining > 0,
            "delays are armed"
        );
        let body = Rack.bytes(&fab);
        let mut twin = streaming_rack();
        twin.run_until(at);
        for into in [&mut twin, &mut streaming_rack()] {
            let mut r = lastcpu_snap::SnapReader::new("fabric", &body);
            Rack.take(into, &mut r).expect("the section reads");
            r.finish().expect("all of it");
            assert!(Rack.bytes(into) == body, "re-snapshots to other bytes");
            assert_eq!(into.queue.len(), fab.queue.len());
        }

        // The queue follows the clock, directory epoch, next sweep, fault
        // cursor and fault list; its first entry's time follows the
        // queue's clock, two cursors and the entry count.
        use lastcpu_snap::Field as _;
        let mut head = lastcpu_snap::SnapWriter::new();
        (fab.now, fab.dir_epoch, fab.next_sync, fab.fault_cursor).put(&mut head);
        fab.faults.put(&mut head);
        let first = head.into_bytes().len() + 4 * 8;
        let mut bad = body.clone();
        let clock = fab.queue.now().as_nanos();
        assert_eq!(
            bad[first..first + 8],
            fab.queue.entries()[0].0.as_nanos().to_le_bytes()
        );
        bad[first..first + 8].copy_from_slice(&(clock - 1).to_le_bytes());
        let mut r = lastcpu_snap::SnapReader::new("fabric", &bad);
        let err = Rack
            .take(&mut streaming_rack(), &mut r)
            .expect_err("a delivery before the clock");
        assert!(
            matches!(&err, SnapError::Corrupt { detail, .. } if detail.contains("before the clock")),
            "{err}"
        );
    }

    /// A rack that has only powered on, restored from a checkpoint of
    /// `streaming_rack()` taken with tunnel ports opened while it ran,
    /// frames in flight between machines and one machine dead, runs on as
    /// a twin replayed to the same instant does: the same bytes at every
    /// later checkpoint.
    #[test]
    fn a_loaded_rack_runs_on_as_the_replayed_one_does() {
        let at = SimTime::from_nanos(1_000_321);
        let run = || {
            let mut fab = streaming_rack();
            fab.run_until(SimTime::from_nanos(400_000));
            fab.kill_machine(MachineId(2));
            fab.run_until(at);
            fab
        };
        let mut replayed = run();
        assert!(!replayed.queue.is_empty(), "frames are in flight");
        assert!(replayed.machines[2].dead);
        assert!(
            replayed.machines.iter().any(|m| m.proxy.len() > 1),
            "a tunnel port was opened while the rack ran"
        );
        let out = |m: &MachineSlot| m.sys.pool().stats().taken - m.sys.pool().stats().returned;
        assert!(
            replayed.machines.iter().map(out).sum::<u64>() > 0,
            "pooled payloads are in flight"
        );
        let ck = replayed
            .checkpoint("mid")
            .expect("every component snapshots");
        let mut loaded = streaming_rack();
        loaded.restore_from(&ck).expect("loads and verifies");
        assert_eq!(loaded.events, ck.manifest.events);
        for k in 1..=3 {
            let t = at + SimDuration::from_micros(200 * k);
            replayed.run_until(t);
            loaded.run_until(t);
            let label = format!("later {k}");
            let want = replayed.checkpoint(&label).expect("snapshots");
            assert!(want.manifest.events > ck.manifest.events);
            assert_eq!(
                loaded.checkpoint(&label).expect("snapshots").encode(),
                want.encode(),
                "the loaded rack diverged by {t:?}"
            );
        }
    }
}
