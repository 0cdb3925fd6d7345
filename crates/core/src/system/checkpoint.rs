//! E14 checkpoint / restore: one checksummed section per component, a
//! recipe fingerprint, and restore as loading every section through its
//! reader, verified byte for byte. Every section the machine writes itself
//! is declared here, once, as a field list its reader is derived from
//! (DESIGN.md §14.1).

use lastcpu_bus::{RetryConfig, RpcTracker};
use lastcpu_net::PortId;
use lastcpu_sim::{BufPool, DetRng};
use lastcpu_snap::{
    Checkpoint, Diff, Emit, Encoder, Field, Manifest, Restore as _, SectionSink, SnapError,
    SnapReader, SnapWriter, Snapshot as _, Span,
};

use super::{HostSlot, PortOwner, RpcState, SharedLink, Slot, SlotFaults, System};

/// The `engine` section: the machine-global odds and ends that live
/// outside any component (correlation allocator, shared link, tunnel
/// state, fault schedule), then the event queue: virtual clock, event
/// cursors and every pending event.
struct Engine;

lastcpu_snap::fields! { Engine for System |s| {
    next_corr, memctl_id, shared_link, ..TunnelPorts, tunnel_out, fault_events, queue,
} }

/// The ports a rack fabric owns, in port order: the recipe's, then those the
/// fabric opened while running, which follow the machine's other ports
/// contiguously. A load opens the ones the machine lacks; a list that does
/// not extend the machine's own is corrupt.
struct TunnelPorts;

impl Span<System> for TunnelPorts {
    fn put(&self, s: &System, w: &mut SnapWriter) {
        s.tunnel_ports().put(w);
    }

    fn take(&self, s: &mut System, r: &mut SnapReader<'_>) -> lastcpu_snap::Result<()> {
        let listed = Vec::<PortId>::take(r)?;
        let own = s.tunnel_ports();
        let opened = listed.get(own.len()..).unwrap_or_default();
        let next = s.port_owners.len() as u32 + 1;
        if !listed.starts_with(&own) || (next..).zip(opened).any(|(p, &q)| PortId(p) != q) {
            return Err(r.corrupt(format!(
                "tunnel ports: the {} listed are not the machine's {} followed by ports from {next} on",
                listed.len(),
                own.len()
            )));
        }
        for _ in opened {
            s.add_tunnel_port();
        }
        Ok(())
    }
}

lastcpu_snap::record! { SharedLink { busy_until, per_byte_ps } }

/// The `rpc` section: the retry machinery, when it is configured.
struct Rpc;

lastcpu_snap::fields! { Rpc for System |s| { rpc } }

lastcpu_snap::fields! { RpcState |self| (RpcState {
    tracker: RpcTracker::new(RetryConfig::default()),
    rng: DetRng::new(0),
    sweep_at: None,
}) { mut tracker, mut rng, sweep_at } }

// A `dev{i}` section is the slot's engine-side bookkeeping (scheduling,
// ingress FIFO, armed faults, RNG) and its IOMMU, then the device's own
// state through `Device::snapshot_state`. The names, the device, its
// metrics and the scratch buffers are the recipe's or reused scratch.
lastcpu_snap::fields! { Slot |self| {
    id, port, busy_until, halted, permanently_dead, next_req, mut rng, pop_armed, inbox,
    mut faults, mut iommu,
} }

lastcpu_snap::fields! { SlotFaults |self| {
    drop_rem, corrupt_rem, corrupt_rng, delay_rem, delay_extra, slow_factor, slow_until,
    down_since,
} }

// A `host{i}` section: the host's port and RNG, then its own state through
// `NetHost::snapshot_state`.
lastcpu_snap::fields! { HostSlot |self| { port, mut rng } }

impl System {
    /// Stable fingerprint of the builder recipe: configuration plus the
    /// device/host lineup. Restore refuses a checkpoint of a machine built
    /// from a different recipe: the sections load into the components the
    /// recipe built, and hold only what a run changed.
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

    /// The ports a rack fabric owns, in port order.
    fn tunnel_ports(&self) -> Vec<PortId> {
        (1u32..)
            .zip(&self.port_owners)
            .filter(|(_, o)| matches!(o, PortOwner::Tunnel))
            .map(|(p, _)| PortId(p))
            .collect()
    }

    /// Checkpoint-wide metadata for this machine, now.
    fn manifest(&self, label: &str) -> Manifest {
        Manifest {
            schema_version: lastcpu_snap::SCHEMA_VERSION,
            seed: self.config.seed,
            virtual_ns: self.queue.now().as_nanos(),
            events: self.queue.events_processed(),
            config_fp: self.config_fingerprint(),
            label: label.to_string(),
        }
    }

    /// How many sections [`each_section`](Self::each_section) yields: nine
    /// machine-wide ones (`engine` … `trace`), then one per device and host.
    fn section_count(&self) -> usize {
        9 + self.slots.len() + self.hosts.len()
    }

    /// The one section producer: every component's `(tag, body)`, in fixed
    /// order, handed to `out` one at a time. Stops at the first component
    /// that cannot serialize.
    fn each_section(&self, out: &mut impl SectionSink) -> lastcpu_snap::Result<()> {
        out.section("engine", Engine.bytes(self));
        out.section("rng", self.root_rng.snapshot_bytes());
        out.section("bus", self.bus.snapshot_bytes());
        out.section("rpc", Rpc.bytes(self));
        out.section("dram", self.dram.snapshot_bytes());
        out.section("switch", self.switch.snapshot_bytes());
        out.section("pool", self.pool.snapshot_bytes());
        out.section("metrics", self.stats.snapshot_bytes());
        out.section("trace", self.trace.snapshot_bytes());
        for (i, s) in self.slots.iter().enumerate() {
            let body = s.snapshot_then(|w| s.device.snapshot_state(w))?;
            out.section(&format!("dev{i}"), body);
        }
        for (i, hs) in self.hosts.iter().enumerate() {
            let body = hs.snapshot_then(|w| hs.host.snapshot_state(w))?;
            out.section(&format!("host{i}"), body);
        }
        Ok(())
    }

    /// Serializes the whole machine into a versioned [`Checkpoint`]:
    /// manifest (seed, virtual time, event cursor, config fingerprint)
    /// plus one checksummed section per component, in fixed order.
    ///
    /// Fails loudly ([`SnapError::Unsupported`]) if any attached device or
    /// host does not implement its snapshot hook — a checkpoint that
    /// silently skipped state could never verify a restore.
    pub fn checkpoint(&self, label: &str) -> lastcpu_snap::Result<Checkpoint> {
        let mut ck = Checkpoint::new(self.manifest(label));
        self.each_section(&mut ck)?;
        Ok(ck)
    }

    /// Streams to `emit` the bytes `self.checkpoint(label)?.encode()` would
    /// return, holding one section at a time.
    pub fn encode_checkpoint(&self, label: &str, emit: &mut dyn Emit) -> lastcpu_snap::Result<()> {
        let mut enc = Encoder::new(&self.manifest(label), self.section_count(), emit);
        self.each_section(&mut enc)?;
        enc.finish();
        Ok(())
    }

    /// Byte-for-byte verification of this machine against `ck`: serializes
    /// the machine section by section and compares each against `ck`'s
    /// section at the same index as it is produced, so no second checkpoint
    /// is held.
    pub fn verify_checkpoint(&self, ck: &Checkpoint) -> lastcpu_snap::Result<()> {
        let mut diff = Diff::new(ck, &self.manifest(&ck.manifest.label));
        self.each_section(&mut diff)?;
        match diff.finish() {
            Some(detail) => Err(SnapError::VerifyMismatch {
                section: "system".into(),
                detail,
            }),
            None => Ok(()),
        }
    }

    /// Loads one of the machine's own sections through its declared reader
    /// (for a `dev{i}` or `host{i}` section, the slot's bookkeeping, then the
    /// device's or host's `restore_state`), all of it.
    fn load_section(&mut self, tag: &str, body: &[u8]) -> lastcpu_snap::Result<()> {
        let mut r = SnapReader::new(tag, body);
        let index = |prefix| {
            tag.strip_prefix(prefix)
                .and_then(|i| i.parse::<usize>().ok())
        };
        match tag {
            "engine" => Engine.take(self, &mut r)?,
            "rng" => self.root_rng.restore(&mut r)?,
            "bus" => self.bus.restore(&mut r)?,
            "rpc" => Rpc.take(self, &mut r)?,
            "dram" => self.dram.restore(&mut r)?,
            "switch" => self.switch.restore(&mut r)?,
            "pool" => self.pool.restore(&mut r)?,
            "metrics" => self.stats.restore(&mut r)?,
            "trace" => self.trace.restore(&mut r)?,
            _ => {
                if let Some(s) = index("dev").and_then(|i| self.slots.get_mut(i)) {
                    s.restore(&mut r)?;
                    s.device.restore_state(&mut r)?;
                } else if let Some(hs) = index("host").and_then(|i| self.hosts.get_mut(i)) {
                    hs.restore(&mut r)?;
                    hs.host.restore_state(&mut r)?;
                } else {
                    return Err(r.corrupt("not a section of this machine"));
                }
            }
        }
        r.finish()
    }

    /// Loads a checkpoint's sections, in order, each through its reader:
    /// the one loader [`restore_from`](Self::restore_from) and a rack's
    /// restore use. A payload whose storage was this machine's pool goes
    /// back to it (a rack's load hands the others theirs). It checks
    /// nothing against the checkpoint's manifest and verifies nothing; the
    /// machine must be built from the checkpoint's recipe and powered on,
    /// and runs no device or host callback here.
    pub fn load<'s>(
        &mut self,
        sections: impl IntoIterator<Item = (&'s str, &'s [u8])>,
    ) -> lastcpu_snap::Result<()> {
        let pool = self.pool.clone();
        BufPool::loading(std::slice::from_ref(&pool), || {
            sections
                .into_iter()
                .try_for_each(|(tag, body)| self.load_section(tag, body))
        })
    }

    /// Restores this machine to the state captured in `ck`.
    ///
    /// The machine must be freshly built from the *same recipe* (config +
    /// device/host lineup, checked via the manifest fingerprint) and
    /// powered on. Restore loads every section through its reader, in
    /// O(state) and without running an event, then verifies every section
    /// byte-for-byte against the checkpoint. Any divergence fails loudly
    /// with [`SnapError::VerifyMismatch`]; a successful return is a proof
    /// that this machine is in the checkpointed state, not an assumption.
    pub fn restore_from(&mut self, ck: &Checkpoint) -> lastcpu_snap::Result<()> {
        ck.manifest
            .admit("machine", Some(self.config.seed), self.config_fingerprint())?;
        self.load(ck.sections())?;
        self.verify_checkpoint(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::small_fs;
    use super::super::Event;
    use super::*;
    use crate::config::SystemConfig;
    use crate::host::{HostCtx, NetHost};
    use lastcpu_devices::nic::{EchoApp, SmartNic};
    use lastcpu_devices::ssd::{SmartSsd, SsdConfig};
    use lastcpu_net::Frame;
    use lastcpu_sim::{CorrId, FaultKind, FaultPlan, SimDuration, SimTime};
    use std::cell::Cell;

    /// Pings the NIC every 3 µs from the machine's payload pool and counts
    /// the echoes. `calls` counts every callback the machine makes and is
    /// not in its section.
    struct Pinger {
        nic: PortId,
        sent: u64,
        echoed: u64,
        calls: Cell<u64>,
    }

    lastcpu_snap::fields! { Pinger |self| { sent, echoed } }

    impl NetHost for Pinger {
        fn name(&self) -> &str {
            "pinger"
        }
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            self.calls.set(self.calls.get() + 1);
            ctx.set_timer(SimDuration::from_micros(3), 0);
        }
        fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, _frame: Frame) {
            self.calls.set(self.calls.get() + 1);
            self.echoed += 1;
        }
        fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
            self.calls.set(self.calls.get() + 1);
            let mut ping = ctx.take_buf();
            ping.vec_mut().extend_from_slice(b"ping");
            ctx.net_tx(self.nic, ping);
            self.sent += 1;
            ctx.set_timer(SimDuration::from_micros(3), 0);
        }
        fn snapshot_state(&self, w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
            lastcpu_snap::Snapshot::snapshot(self, w);
            Ok(())
        }
        fn restore_state(&mut self, r: &mut SnapReader<'_>) -> lastcpu_snap::Result<()> {
            self.restore(r)
        }
    }

    /// A traced machine with RPC retries on, its planes conflated (so the
    /// shared link carries state) and faults armed on its SSD: memctl, an
    /// echo NIC, the SSD, a host pinging the NIC and a tunnel port. Powered
    /// on, not run.
    fn recipe() -> System {
        let mut plan = FaultPlan::new(3);
        let at = SimTime::from_nanos(1_000_000);
        plan.inject(at, "ssd0", FaultKind::Corrupt { count: 1000 });
        let delay = FaultKind::Delay {
            count: 1000,
            extra_ns: 100,
        };
        plan.inject(at, "ssd0", delay);
        let mut sys = System::new(SystemConfig {
            seed: 7,
            conflate_planes: true,
            rpc_retry: Some(RetryConfig::default()),
            fault_plan: Some(plan),
            ..SystemConfig::default()
        });
        sys.add_memctl("memctl0");
        let nic = sys.add_net_device(Box::new(SmartNic::new("nic0", EchoApp::new())));
        let ssd = SmartSsd::new("ssd0", small_fs(), SsdConfig::default());
        sys.add_device(Box::new(ssd));
        let nic = sys.device_port(nic).expect("a NIC has a port");
        sys.add_host(Box::new(Pinger {
            nic,
            sent: 0,
            echoed: 0,
            calls: Cell::new(0),
        }));
        sys.add_tunnel_port();
        sys.power_on();
        sys
    }

    /// `recipe()` run to a checkpoint with pings in flight.
    fn warmed() -> (System, Checkpoint) {
        let mut sys = recipe();
        sys.run_until(SimTime::from_nanos(2_000_123));
        let ck = sys
            .checkpoint("readers")
            .expect("every component snapshots");
        assert!(sys.queue.len() > 3, "events are pending");
        assert!(
            sys.slots[2].faults.corrupt_rng.is_some(),
            "faults are armed"
        );
        (sys, ck)
    }

    /// Each section the machine declares, loaded into a twin replayed to
    /// the same cursor and into a twin that has only powered on, snapshots
    /// to the bytes it was read from: its reader loads all it reads.
    #[test]
    fn every_declared_section_reads_back_what_it_wrote() {
        let (_, ck) = warmed();
        let mut twin = recipe();
        while twin.queue.events_processed() < ck.manifest.events && twin.step().is_some() {}
        for (tag, body) in ck.sections() {
            for sys in [&mut twin, &mut recipe()] {
                sys.load_section(tag, body)
                    .unwrap_or_else(|e| panic!("{tag} does not read: {e}"));
                let again = sys.checkpoint("readers").expect("snapshots");
                assert!(
                    again.section(tag).expect("written") == body,
                    "{tag} re-snapshots to other bytes than it was read from"
                );
            }
        }
        twin.verify_checkpoint(&ck)
            .expect("the twin is the checkpointed machine");
    }

    /// `recipe()` mid-run with events of several kinds pending: host
    /// timers, frames on the switch (one a frame from outside, with its
    /// correlation id) and a frame that reached the tunnel port and waits
    /// for a fabric to drain it.
    fn in_flight() -> (System, Checkpoint) {
        let mut sys = recipe();
        sys.run_until(SimTime::from_nanos(2_000_123));
        let tunnel = PortId(sys.port_owners.len() as u32);
        let frame = |dst| Frame::unicast(PortId(0), dst, b"from the rack".to_vec());
        sys.inject_frame(sys.now(), frame(tunnel), CorrId(0xC0FFEE));
        sys.run_until(SimTime::from_nanos(2_100_000));
        sys.inject_frame(sys.now(), frame(tunnel), CorrId(0xBEEF));
        let ck = sys
            .checkpoint("in flight")
            .expect("every component snapshots");
        (sys, ck)
    }

    /// The `engine` section of a machine with events pending loads into a
    /// machine that has only powered on: the same events, cursors and
    /// tunnel deliveries, and the section re-snapshots to its bytes.
    #[test]
    fn the_engine_section_loads_the_pending_events() {
        let (sys, ck) = in_flight();
        let kinds = |s: &System| {
            let mut kinds: Vec<&str> = (s.queue.entries().iter())
                .map(|(_, _, ev)| match ev {
                    Event::HostTimer { .. } => "host timer",
                    Event::NetDeliver { corr, .. } if *corr == CorrId(0xBEEF) => {
                        "frame from outside"
                    }
                    Event::NetDeliver { .. } => "frame",
                    _ => "other",
                })
                .collect();
            kinds.sort_unstable();
            kinds.dedup();
            kinds
        };
        assert_eq!(
            kinds(&sys),
            ["frame", "frame from outside", "host timer", "other"]
        );
        assert_eq!(sys.tunnel_out.len(), 1, "a tunnel delivery waits");
        assert_eq!(sys.tunnel_out[0].corr, CorrId(0xC0FFEE));

        let engine = ck.section("engine").expect("written");
        let mut fresh = recipe();
        fresh
            .load_section("engine", engine)
            .expect("the section loads");
        assert_eq!(fresh.now(), sys.now());
        assert_eq!(fresh.queue.events_processed(), sys.queue.events_processed());
        assert_eq!(fresh.queue.len(), sys.queue.len());
        assert_eq!(kinds(&fresh), kinds(&sys));
        assert_eq!(fresh.tunnel_out[0].corr, CorrId(0xC0FFEE));
        let again = fresh.checkpoint("in flight").expect("snapshots");
        assert!(again.section("engine").expect("written") == engine);
    }

    /// Doctored event lists are refused as corrupt, not by a panic and not
    /// by loading some of them: an entry before the clock, a seq at the
    /// cursor, an event tag no event has, and a list cut short.
    #[test]
    fn a_doctored_event_list_is_refused() {
        let (sys, ck) = in_flight();
        let engine = ck.section("engine").expect("written");
        // The queue ends the section: the clock, the pop count, the seq
        // cursor and the entry count, then the first entry's time, seq and
        // event tag.
        let mut queue = lastcpu_snap::SnapWriter::new();
        lastcpu_snap::Field::put(&sys.queue, &mut queue);
        let first = engine.len() - queue.into_bytes().len() + 32;
        let clock = sys.now().as_nanos();
        // The seq cursor is the queue's third word.
        let cursor = u64::from_le_bytes(engine[first - 16..first - 8].try_into().expect("8 bytes"));
        let doctor = |at: usize, bytes: &[u8]| {
            let mut body = engine.to_vec();
            body[at..at + bytes.len()].copy_from_slice(bytes);
            body
        };
        for (body, what) in [
            (
                doctor(first, &(clock - 1).to_le_bytes()),
                "before the clock",
            ),
            (
                doctor(first + 8, &cursor.to_le_bytes()),
                "at or beyond the cursor",
            ),
            (doctor(first + 16, &[200]), "bad Event tag 200"),
            (engine[..first + 10].to_vec(), "truncated"),
        ] {
            let err = recipe().load_section("engine", &body).expect_err(what);
            match err {
                SnapError::Corrupt { section, detail } => {
                    assert_eq!(section, "engine");
                    assert!(detail.contains(what), "{detail} does not say {what}");
                }
                other => panic!("{what}: not refused as corrupt: {other}"),
            }
        }
    }

    /// A machine that has only powered on, restored from `in_flight()`'s
    /// checkpoint, runs on as the run that wrote it does: the two are the
    /// same bytes at every later checkpoint.
    #[test]
    fn a_loaded_machine_runs_on_as_the_replayed_one_does() {
        let (mut replayed, ck) = in_flight();
        let mut loaded = recipe();
        loaded.restore_from(&ck).expect("loads and verifies");
        let pool = replayed.pool().stats();
        assert!(pool.taken > pool.returned, "pooled payloads are in flight");
        for k in 1..=4 {
            let at = SimTime::from_nanos(2_100_000 + k * 250_000);
            replayed.run_until(at);
            loaded.run_until(at);
            let label = format!("later {k}");
            let want = replayed.checkpoint(&label).expect("snapshots");
            assert_eq!(
                loaded.checkpoint(&label).expect("snapshots").encode(),
                want.encode(),
                "the loaded machine diverged by {at:?}"
            );
            assert!(want.manifest.events > ck.manifest.events);
        }
    }

    /// `restore_from` loads; it runs no device or host callback. The pinger's
    /// callback count is outside its section, so a restore that ran the
    /// machine to the checkpoint would move it.
    #[test]
    fn restore_runs_no_callback() {
        let (ran, ck) = in_flight();
        let calls = |s: &System| {
            let port = s.hosts[0].port;
            s.host_as::<Pinger>(port).expect("the pinger").calls.get()
        };
        assert!(calls(&ran) > 100, "the checkpointed run called the pinger");
        let mut loaded = recipe();
        loaded.restore_from(&ck).expect("loads and verifies");
        assert_eq!(calls(&loaded), 0, "restore called the pinger");
        loaded.run_until(SimTime::from_nanos(2_200_000));
        assert!(calls(&loaded) > 0, "the loaded machine runs the pinger");
    }

    /// The tunnel ports a section lists load only as the machine's own, then
    /// ports that follow all of its others: a list that drops one of the
    /// machine's, skips a port or repeats one is corrupt.
    #[test]
    fn a_tunnel_port_list_that_does_not_extend_the_recipes_is_refused() {
        let sys = recipe();
        let own = sys.tunnel_ports();
        let next = sys.port_owners.len() as u32 + 1;
        let list = |ports: &[u32]| {
            let mut w = SnapWriter::new();
            let ports: Vec<PortId> = ports.iter().map(|&p| PortId(p)).collect();
            ports.put(&mut w);
            w.into_bytes()
        };
        let take = |sys: &mut System, bytes: &[u8]| {
            let mut r = SnapReader::new("engine", bytes);
            TunnelPorts.take(sys, &mut r).and_then(|()| r.finish())
        };
        assert_eq!(own, [PortId(next - 1)], "the recipe's port is its last");

        let mut opened = recipe();
        take(&mut opened, &list(&[next - 1, next, next + 1])).expect("two opened");
        assert_eq!(
            opened.tunnel_ports(),
            [PortId(next - 1), PortId(next), PortId(next + 1)]
        );
        for (ports, what) in [
            (vec![next], "the recipe's dropped"),
            (vec![next - 1, next + 1], "a port skipped"),
            (vec![next - 1, next - 1], "a port repeated"),
            (vec![next, next - 1], "out of order"),
            (vec![], "none"),
        ] {
            let mut sys = recipe();
            match take(&mut sys, &list(&ports)) {
                Err(SnapError::Corrupt { section, detail }) => {
                    assert_eq!(section, "engine");
                    assert!(detail.starts_with("tunnel ports"), "{what}: {detail}");
                }
                other => panic!("{what}: not refused as corrupt: {other:?}"),
            }
            assert_eq!(sys.tunnel_ports(), own, "{what}: opened a port");
        }
    }
}
