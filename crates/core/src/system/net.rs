//! The data-centre side of Figure 1: external hosts on the machine's edge
//! switch, frame routing, and the tunnel ports a rack fabric owns.
//!
//! A rack fabric (`lastcpu-fabric`, E10) co-simulates many machines under
//! one global clock. Each machine exposes *tunnel ports* — switch ports whose
//! owner is the fabric — and a frame delivered to one leaves the machine via
//! [`System::drain_tunnel_into`] instead of reaching a device or host.

use std::any::Any;

use lastcpu_net::{Frame, PortId};
use lastcpu_sim::{profile, CorrId, SimTime, TraceData};

use super::{Event, HostSlot, PortOwner, System, Work};
use crate::host::{HostAction, HostCtx, NetHost};

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

impl System {
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
    pub(super) fn add_port(&mut self, owner: PortOwner) -> PortId {
        self.port_owners.push(owner);
        let port = self.switch.add_port();
        assert_eq!(
            port.0 as usize,
            self.port_owners.len(),
            "an owner is pushed per switch.add_port"
        );
        port
    }

    /// What switch port `port` is wired to, if it is one of this machine's.
    fn port_owner(&self, port: PortId) -> Option<PortOwner> {
        self.port_owners
            .get((port.0 as usize).checked_sub(1)?)
            .copied()
    }

    /// Typed access to a host by port.
    pub fn host_as<T: NetHost>(&self, port: PortId) -> Option<&T> {
        let Some(PortOwner::Host(hidx)) = self.port_owner(port) else {
            return None;
        };
        let host: &dyn Any = self.hosts[hidx].host.as_ref();
        host.downcast_ref::<T>()
    }

    /// Adds a switch port owned by an embedding fabric. Frames delivered to
    /// it (after traversing this machine's edge switch like any other
    /// traffic) are exported via [`System::drain_tunnel_into`] instead of
    /// being handed to a device or host.
    pub fn add_tunnel_port(&mut self) -> PortId {
        self.add_port(PortOwner::Tunnel)
    }

    /// Moves the frames that reached tunnel ports since the last drain into
    /// `out` (appended). The fabric drains after every step, so it lends one
    /// buffer instead of taking a fresh `Vec` each time.
    pub fn drain_tunnel_into(&mut self, out: &mut Vec<TunnelDelivery>) {
        out.append(&mut self.tunnel_out);
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
                TraceData::LinkEnter {
                    port: frame.dst.0,
                    bytes: frame.payload.len() as u64,
                },
            );
        }
        self.route_frame(at, frame, corr);
    }

    /// A frame leaves the switch on `port`: to the device, host or fabric
    /// tunnel the port is wired to.
    pub(super) fn net_deliver(&mut self, now: SimTime, port: PortId, frame: Frame, corr: CorrId) {
        match self.port_owner(port) {
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
                        TraceData::LinkExit {
                            port: port.0,
                            bytes: frame.payload.len() as u64,
                        },
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
        }
    }

    pub(super) fn dispatch_host(
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

    pub(super) fn route_frame(&mut self, at: SimTime, frame: Frame, corr: CorrId) {
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
}

#[cfg(test)]
mod tests {
    use super::super::testutil::base_system;
    use super::*;
    use lastcpu_devices::nic::{EchoApp, SmartNic};
    use lastcpu_sim::SimDuration;

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
}
