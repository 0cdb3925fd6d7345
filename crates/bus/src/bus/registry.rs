//! Who exists and who is alive (§2.2 "System Initialization", §4 "Error
//! Handling"): slot enumeration, `Hello` / `Bye`, the failure broadcast with
//! its reset pulse, and the heartbeat liveness sweep.

use lastcpu_sim::{CorrId, SimDuration, SimTime};

use super::{BusEffect, BusError, DeviceEntry, DeviceState, SystemBus};
use crate::ids::{DeviceId, RequestId};
use crate::message::{Dst, Envelope, Payload};

impl SystemBus {
    /// Registers a physically present device and assigns its bus address.
    ///
    /// This models slot enumeration (PCIe-style): presence is physical and
    /// synchronous. The device becomes *alive* only after it passes
    /// self-test and sends [`Payload::Hello`] (§2.2 "System
    /// Initialization").
    pub fn attach(&mut self, name: &str, kind: &str) -> DeviceId {
        // 0 is the bus itself, so the first device is 1.
        let id = DeviceId(self.devices.len() as u32 + 1);
        self.devices.push(DeviceEntry {
            id,
            name: name.to_string(),
            kind: kind.to_string(),
            state: DeviceState::Attached,
            last_seen: SimTime::ZERO,
            services: Vec::new(),
            flood: None,
        });
        id
    }

    /// Looks up a device entry. Ids arrive in messages from devices that may
    /// be hostile, so this is the checked lookup every path goes through:
    /// [`DeviceId::BUS`] and ids `attach` never handed out have no entry.
    pub fn device(&self, id: DeviceId) -> Option<&DeviceEntry> {
        self.devices.get(index_of(id)?)
    }

    pub(super) fn device_mut(&mut self, id: DeviceId) -> Option<&mut DeviceEntry> {
        self.devices.get_mut(index_of(id)?)
    }

    pub(super) fn is_alive(&self, id: DeviceId) -> bool {
        self.device(id)
            .is_some_and(|e| e.state == DeviceState::Alive)
    }

    /// All registered devices in attach order.
    pub fn devices(&self) -> impl Iterator<Item = &DeviceEntry> {
        self.devices.iter()
    }

    /// Devices currently alive, in attach order.
    pub fn alive(&self) -> impl Iterator<Item = &DeviceEntry> {
        self.devices().filter(|d| d.state == DeviceState::Alive)
    }

    /// Sets the heartbeat timeout after which a silent device is declared
    /// failed by [`SystemBus::check_liveness`].
    pub fn set_heartbeat_timeout(&mut self, t: SimDuration) {
        self.heartbeat_timeout = t;
    }

    /// `Hello`: the device passed self-test and is alive (§2.2 "System
    /// Initialization"); also how a reset device re-introduces itself.
    pub(super) fn on_hello(
        &mut self,
        now: SimTime,
        src: DeviceId,
        req: RequestId,
        bytes: usize,
        fx: &mut Vec<BusEffect>,
    ) {
        if let Some(e) = self.device_mut(src) {
            e.state = DeviceState::Alive;
            e.last_seen = now;
        }
        self.reply(bytes, src, req, Payload::HelloAck { assigned: src }, fx);
    }

    /// `Bye`: an orderly departure, announced to everyone like a failure.
    pub(super) fn on_bye(&mut self, src: DeviceId, bytes: usize, fx: &mut Vec<BusEffect>) {
        if let Some(e) = self.device_mut(src) {
            e.state = DeviceState::Departed;
        }
        self.fan_out_failure(src, bytes, fx);
    }

    /// `ResetDone`: the device came out of reset; it still re-registers via
    /// `Hello`.
    pub(super) fn on_reset_done(&mut self, now: SimTime, src: DeviceId) {
        if let Some(e) = self.device_mut(src) {
            // The device still re-registers via Hello.
            e.last_seen = now;
        }
    }

    fn fan_out_failure(&mut self, failed: DeviceId, bytes: usize, fx: &mut Vec<BusEffect>) {
        self.stats.failures += 1;
        // Not `rebroadcast`: the notice is *from the bus* but must exclude
        // the failed device, so the exclusion differs from the envelope src.
        let note = self.envs.share(Envelope {
            src: DeviceId::BUS,
            dst: Dst::Broadcast,
            req: RequestId(0),
            corr: self.cur_corr,
            payload: Payload::DeviceFailed { device: failed },
        });
        self.broadcast_from(failed, note, bytes, fx);
    }

    /// Declares `device` failed right now (fault injection or an external
    /// detector), fencing it, notifying everyone, and attempting a reset.
    pub fn mark_failed(
        &mut self,
        device: DeviceId,
        fx: &mut Vec<BusEffect>,
    ) -> Result<(), BusError> {
        let entry = self
            .device_mut(device)
            .ok_or(BusError::UnknownDevice(device))?;
        entry.state = DeviceState::Failed;
        // Failure detection is spontaneous, not caused by an in-flight
        // message; do not attribute it to whatever was handled last.
        self.cur_corr = CorrId::NONE;
        self.fan_out_failure(device, 32, fx);
        fx.push(BusEffect::ResetDevice {
            device,
            corr: self.cur_corr,
        });
        Ok(())
    }

    /// Scans for devices whose heartbeat lapsed and declares them failed.
    ///
    /// A device is lapsed once the full timeout has elapsed, *inclusive* of
    /// the boundary tick: with a strict `>` a deterministic sweep schedule
    /// whose period divides the timeout would land exactly on the deadline
    /// every time and keep a dead device "Alive" forever.
    ///
    /// Returns the devices newly declared failed.
    pub fn check_liveness(&mut self, now: SimTime, fx: &mut Vec<BusEffect>) -> Vec<DeviceId> {
        let timeout = self.heartbeat_timeout;
        let lapsed: Vec<DeviceId> = self
            .devices
            .iter()
            .filter(|e| e.state == DeviceState::Alive && now.since(e.last_seen) >= timeout)
            .map(|e| e.id)
            .collect();
        for &d in &lapsed {
            // Cannot fail: `d` came from the registry.
            let _ = self.mark_failed(d, fx);
        }
        lapsed
    }
}

/// Registry index of `id`, if it can have one: [`DeviceId::BUS`] is not a
/// registry entry.
pub(super) fn index_of(id: DeviceId) -> Option<usize> {
    (id.0 as usize).checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{hello, setup};
    use super::*;

    #[test]
    fn attach_assigns_distinct_nonzero_ids() {
        let (bus, nic, ssd, mc) = setup();
        assert_ne!(nic, ssd);
        assert_ne!(ssd, mc);
        assert_ne!(nic, DeviceId::BUS);
        assert_eq!(bus.devices().count(), 3);
    }

    #[test]
    fn hello_makes_device_alive_and_acks() {
        let mut bus = SystemBus::new();
        let d = bus.attach("x", "y");
        assert_eq!(bus.device(d).unwrap().state, DeviceState::Attached);
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: d,
                dst: Dst::Bus,
                req: RequestId(5),
                corr: CorrId::NONE,
                payload: Payload::Hello {
                    name: "x".into(),
                    kind: "y".into(),
                },
            },
            &mut fx,
        );
        assert_eq!(bus.device(d).unwrap().state, DeviceState::Alive);
        match &fx[0] {
            BusEffect::Deliver { to, env, .. } => {
                assert_eq!(*to, d);
                assert_eq!(env.req, RequestId(5));
                assert_eq!(env.payload, Payload::HelloAck { assigned: d });
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mark_failed_notifies_and_resets() {
        let (mut bus, nic, ssd, mc) = setup();
        let mut fx = Vec::new();
        bus.mark_failed(ssd, &mut fx).unwrap();
        let notified: Vec<DeviceId> = fx
            .iter()
            .filter_map(|e| match e {
                BusEffect::Deliver { to, env, .. } => {
                    assert!(matches!(
                        env.payload,
                        Payload::DeviceFailed { device } if device == ssd
                    ));
                    Some(*to)
                }
                _ => None,
            })
            .collect();
        assert!(notified.contains(&nic));
        assert!(notified.contains(&mc));
        assert!(!notified.contains(&ssd));
        assert!(fx
            .iter()
            .any(|e| matches!(e, BusEffect::ResetDevice { device, .. } if *device == ssd)));
        assert_eq!(bus.stats().failures, 1);
    }

    #[test]
    fn failed_device_can_rejoin_with_hello() {
        let (mut bus, nic, _, _) = setup();
        let mut fx = Vec::new();
        bus.mark_failed(nic, &mut fx).unwrap();
        hello(&mut bus, nic);
        assert_eq!(bus.device(nic).unwrap().state, DeviceState::Alive);
    }

    #[test]
    fn heartbeat_timeout_detection() {
        let (mut bus, nic, _, _) = setup();
        bus.set_heartbeat_timeout(SimDuration::from_millis(1));
        let later = SimTime::ZERO + SimDuration::from_millis(5);
        // nic heartbeats late enough; others lapse.
        let mut fx = Vec::new();
        bus.handle(
            later,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        let failed = bus.check_liveness(later, &mut fx);
        assert_eq!(failed.len(), 2);
        assert!(!failed.contains(&nic));
        assert_eq!(bus.device(nic).unwrap().state, DeviceState::Alive);
    }

    #[test]
    fn heartbeat_boundary_tick_fires() {
        // Regression: a sweep landing *exactly* on the deadline tick must
        // declare the device failed. With `now.since(last_seen) > timeout`
        // a sweep period that divides the timeout never observed a lapsed
        // device, so a dead device stayed "Alive" forever on deterministic
        // schedules.
        let (mut bus, nic, _, _) = setup();
        let timeout = SimDuration::from_millis(1);
        bus.set_heartbeat_timeout(timeout);
        let mut fx = Vec::new();
        // One tick before the deadline: still alive.
        let almost = SimTime::from_nanos(timeout.as_nanos() - 1);
        assert!(bus.check_liveness(almost, &mut fx).is_empty());
        assert_eq!(bus.device(nic).unwrap().state, DeviceState::Alive);
        // Exactly on the deadline: lapsed.
        let boundary = SimTime::ZERO + timeout;
        let failed = bus.check_liveness(boundary, &mut fx);
        assert!(failed.contains(&nic), "boundary tick must fire");
        assert_eq!(bus.device(nic).unwrap().state, DeviceState::Failed);
    }

    #[test]
    fn bye_departs_and_notifies() {
        let (mut bus, nic, _, _) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Bye,
            },
            &mut fx,
        );
        assert_eq!(bus.device(nic).unwrap().state, DeviceState::Departed);
        assert!(fx.iter().any(|e| matches!(
            e,
            BusEffect::Deliver { env, .. }
                if matches!(env.payload, Payload::DeviceFailed { .. })
        )));
        // Departed devices cannot come back with Hello (unlike Failed).
        hello(&mut bus, nic);
        assert_eq!(bus.device(nic).unwrap().state, DeviceState::Departed);
    }
}
