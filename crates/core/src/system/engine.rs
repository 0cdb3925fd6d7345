//! The event loop: what can happen ([`Event`]), power-on, and the one
//! `handle` that sends each event to the module that owns it.
//!
//! §2.2 "System Initialization": presence is physical (`add_*` attached the
//! devices already); power-on schedules each device's self-test with a small
//! jitter, and everything after that — `Hello`, discovery, Figure 2 — is
//! devices reacting to events.

use std::sync::Arc;

use lastcpu_bus::Envelope;
use lastcpu_net::{Frame, PortId};
use lastcpu_sim::{costs, profile, CorrId, SimDuration, SimTime};

use super::{System, Work};

/// Internal events.
pub(super) enum Event {
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

lastcpu_snap::variants! { Event {
    Start = 0 { 0: i },
    BusMsg = 1 { 0: env },
    Deliver = 2 { idx, env },
    Timer = 3 { idx, token, corr },
    Map = 4 { idx, pasid, va, pa, pages, perms, corr },
    Unmap = 5 { idx, pasid, va, pages, corr },
    Reset = 6 { idx, corr },
    InboxPop = 7 { 0: i },
    NetDeliver = 8 { port, frame, corr },
    HostStart = 9 { 0: i },
    HostTimer = 10 { hidx, token, corr },
    Liveness = 11 {},
    Fault = 12 { 0: i },
    RetryCheck = 13 {},
} }

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

impl System {
    /// Schedules power-on: every device and host runs its start hook with a
    /// small deterministic jitter (devices do not boot lockstep), devices
    /// within the `engine.start_jitter` row and hosts within the same span
    /// after it.
    ///
    /// # Panics
    ///
    /// Panics if a fault plan event names no device of this machine.
    pub fn power_on(&mut self) {
        self.powered = true;
        let spread = costs::ENGINE_START_JITTER.as_nanos();
        for idx in 0..self.slots.len() {
            let jitter = SimDuration::from_nanos(self.root_rng.below(spread));
            self.queue.schedule_in(jitter, Event::Start(idx));
        }
        for hidx in 0..self.hosts.len() {
            let jitter = SimDuration::from_nanos(spread + self.root_rng.below(spread));
            self.queue.schedule_in(jitter, Event::HostStart(hidx));
        }
        if let Some(interval) = self.config.liveness_interval {
            self.queue.schedule_in(interval, Event::Liveness);
        }
        // Fault injections become ordinary discrete events: same queue,
        // same deterministic tie-break, bit-identical replays.
        for (i, e) in self.fault_events.iter().enumerate() {
            assert!(
                self.slots.iter().any(|s| s.device.name() == e.target),
                "fault plan event {i} ({} on {:?}) names no device of this machine",
                e.kind.tag(),
                e.target
            );
            self.queue.schedule_at(e.at, Event::Fault(i));
        }
    }

    /// The firing time of this machine's next pending event, if any. The
    /// fabric's global scheduler advances whichever machine is earliest.
    pub fn peek_next_at(&mut self) -> Option<SimTime> {
        // Peeking may advance the wheel's cursor and refill a bucket, as a
        // pop would: what that allocates is the pop's.
        let _pop = profile::AllocScope::enter("engine.pop");
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

    fn handle(&mut self, now: SimTime, ev: Event) {
        // Per-event attribution scope: every allocation and sim-ns charge
        // below lands on this event family's row of the E12 table.
        let _scope = profile::span(scope_of(&ev));
        match ev {
            Event::Start(idx) => {
                let corr = self.fresh_corr();
                self.dispatch(idx, now, corr, |d, ctx| d.on_start(ctx))
            }
            Event::BusMsg(env) => self.bus_msg(now, env),
            Event::Deliver { idx, env } => self.feed(idx, now, Work::Msg(env)),
            Event::Timer { idx, token, corr } => self.feed(idx, now, Work::Timer(token, corr)),
            Event::InboxPop(idx) => self.inbox_pop(idx, now),
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
            Event::Reset { idx, corr } => self.reset_device(idx, now, corr),
            Event::NetDeliver { port, frame, corr } => self.net_deliver(now, port, frame, corr),
            Event::HostStart(hidx) => {
                let corr = self.fresh_corr();
                self.dispatch_host(hidx, now, corr, |h, ctx| h.on_start(ctx))
            }
            Event::HostTimer { hidx, token, corr } => {
                self.dispatch_host(hidx, now, corr, move |h, ctx| h.on_timer(ctx, token))
            }
            Event::Liveness => self.liveness_sweep(now),
            Event::Fault(i) => self.apply_fault(now, i),
            Event::RetryCheck => self.rpc_sweep(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{base_system, small_fs};
    use lastcpu_devices::auth::AuthDevice;
    use lastcpu_devices::console::ConsoleDevice;
    use lastcpu_devices::monitor::AuthMode;
    use lastcpu_devices::ssd::{SmartSsd, SsdConfig};
    use lastcpu_sim::SimDuration;

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
}
