//! The `bus` checkpoint section (E14). The format predates the indexed
//! registry: it lists attach order and the entries separately, and
//! controllers and flood state as sparse lists; restore checks that they
//! describe a registry whose ids are exactly `1..=n`.

use lastcpu_sim::{CorrId, SimDuration, SimTime};

use super::registry::index_of;
use super::{DeviceEntry, DeviceState, SystemBus};
use crate::audit::{BusAudit, SecurityPolicy};
use crate::ids::DeviceId;
use crate::message::ServiceDesc;

fn device_state_tag(s: DeviceState) -> u8 {
    match s {
        DeviceState::Attached => 0,
        DeviceState::Alive => 1,
        DeviceState::Failed => 2,
        DeviceState::Departed => 3,
    }
}

fn device_state_from_tag(t: u8) -> Option<DeviceState> {
    Some(match t {
        0 => DeviceState::Attached,
        1 => DeviceState::Alive,
        2 => DeviceState::Failed,
        3 => DeviceState::Departed,
        _ => return None,
    })
}

impl lastcpu_snap::Snapshot for SystemBus {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.cost.hop_latency.as_nanos());
        w.put_u64(self.cost.processing.as_nanos());
        w.put_u64(self.cost.per_byte_ps);
        w.put_u64(self.heartbeat_timeout.as_nanos());
        // The next id `attach` would hand out.
        w.put_u32(self.devices.len() as u32 + 1);
        w.put_u64(self.cur_corr.0);
        w.put_u64(self.stats.messages);
        w.put_u64(self.stats.bytes);
        w.put_u64(self.stats.unicasts);
        w.put_u64(self.stats.broadcast_deliveries);
        w.put_u64(self.stats.map_ops);
        w.put_u64(self.stats.denials);
        w.put_u64(self.stats.flood_dropped);
        w.put_u64(self.stats.failures);
        // The format lists attach order, then the entries by id. Both are
        // the registry's index order; restore checks that they agree.
        w.put_len(self.devices.len());
        for e in &self.devices {
            w.put_u32(e.id.0);
        }
        w.put_len(self.devices.len());
        for e in &self.devices {
            w.put_u32(e.id.0);
            w.put_str(&e.name);
            w.put_str(&e.kind);
            w.put_u8(device_state_tag(e.state));
            w.put_u64(e.last_seen.as_nanos());
            w.put_len(e.services.len());
            for s in &e.services {
                s.snap_encode(w);
            }
        }
        w.put_len(self.controllers.iter().flatten().count());
        for (class, d) in self.controllers.iter().enumerate() {
            if let Some(d) = d {
                w.put_u8(class as u8);
                w.put_u32(d.0);
            }
        }
        self.policy.encode(w);
        // Only senders the flood limiter has counted are listed.
        let limited = || {
            self.devices
                .iter()
                .filter_map(|e| e.flood.map(|f| (e.id, f)))
        };
        w.put_len(limited().count());
        for (d, (t, n)) in limited() {
            w.put_u32(d.0);
            w.put_u64(t.as_nanos());
            w.put_u32(n);
        }
        w.put_opt(self.audit.as_ref(), |w, a| a.snapshot(w));
    }
}

impl lastcpu_snap::Restore for SystemBus {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        // Scratch, not state: nothing of the previous life carries over.
        self.envs.clear();
        self.cost.hop_latency = SimDuration::from_nanos(r.u64()?);
        self.cost.processing = SimDuration::from_nanos(r.u64()?);
        self.cost.per_byte_ps = r.u64()?;
        self.heartbeat_timeout = SimDuration::from_nanos(r.u64()?);
        let next_id = r.u32()?;
        self.cur_corr = CorrId(r.u64()?);
        self.stats.messages = r.u64()?;
        self.stats.bytes = r.u64()?;
        self.stats.unicasts = r.u64()?;
        self.stats.broadcast_deliveries = r.u64()?;
        self.stats.map_ops = r.u64()?;
        self.stats.denials = r.u64()?;
        self.stats.flood_dropped = r.u64()?;
        self.stats.failures = r.u64()?;
        // Ids are indices, so a registry is only restorable if its attach
        // order and its entries both read exactly 1..=n.
        let n = r.len()?;
        for i in 0..n {
            let id = r.u32()?;
            if id as usize != i + 1 {
                return Err(r.corrupt(format!("attach order lists dev:{id} at position {i}")));
            }
        }
        if r.len()? != n || next_id as usize != n + 1 {
            return Err(r.corrupt(format!(
                "registry disagrees with its attach order of {n} (next id {next_id})"
            )));
        }
        self.devices = Vec::with_capacity(n);
        for i in 0..n {
            let id = DeviceId(r.u32()?);
            if index_of(id) != Some(i) {
                return Err(r.corrupt(format!("registry lists {id} at position {i}")));
            }
            let name = r.str()?;
            let kind = r.str()?;
            let state = {
                let t = r.u8()?;
                device_state_from_tag(t)
                    .ok_or_else(|| r.corrupt(format!("bad DeviceState tag {t}")))?
            };
            let last_seen = SimTime::from_nanos(r.u64()?);
            let ns = r.count()?;
            let mut services = Vec::with_capacity(ns);
            for _ in 0..ns {
                services.push(ServiceDesc::snap_decode(r)?);
            }
            self.devices.push(DeviceEntry {
                id,
                name,
                kind,
                state,
                last_seen,
                services,
                flood: None,
            });
        }
        self.controllers = [None; 4];
        for _ in 0..r.len()? {
            let t = r.u8()?;
            let slot = self
                .controllers
                .get_mut(t as usize)
                .ok_or_else(|| r.corrupt(format!("bad ResourceKind tag {t}")))?;
            *slot = Some(DeviceId(r.u32()?));
        }
        self.policy = SecurityPolicy::decode(r)?;
        for _ in 0..r.len()? {
            let d = DeviceId(r.u32()?);
            let t = SimTime::from_nanos(r.u64()?);
            let c = r.u32()?;
            match self.device_mut(d) {
                Some(e) => e.flood = Some((t, c)),
                None => return Err(r.corrupt(format!("flood state for unknown {d}"))),
            }
        }
        self.audit = r.opt(|r| {
            let mut a = BusAudit::default();
            a.restore(r)?;
            Ok(a)
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{register_memctl, setup};
    use super::*;
    use crate::ids::{RequestId, ServiceId};
    use crate::message::{Dst, Envelope, Payload, ResourceKind};
    use crate::SystemBus;

    /// A bus with every optional piece of state populated: a controller, an
    /// announced service, flood-limiter state for one sender, an audit.
    fn busy_bus() -> SystemBus {
        let (mut bus, nic, ssd, mc) = setup();
        bus.enable_audit(16);
        bus.set_security_policy(SecurityPolicy {
            flood_limit: Some(3),
            ..SecurityPolicy::default()
        });
        register_memctl(&mut bus, mc);
        let mut fx = Vec::new();
        bus.handle(
            SimTime::from_nanos(5),
            Envelope {
                src: ssd,
                dst: Dst::Bus,
                req: RequestId(1),
                corr: CorrId(7),
                payload: Payload::Announce {
                    service: ServiceDesc {
                        id: ServiceId(1),
                        name: "file:/data/kv.db".into(),
                        resource: ResourceKind::Storage,
                    },
                },
            },
            &mut fx,
        );
        bus.mark_failed(nic, &mut fx).unwrap();
        bus
    }

    fn restored(bytes: &[u8]) -> lastcpu_snap::Result<SystemBus> {
        use lastcpu_snap::Restore as _;
        let mut bus = SystemBus::new();
        bus.restore(&mut lastcpu_snap::SnapReader::new("bus", bytes))?;
        Ok(bus)
    }

    #[test]
    fn snapshot_restores_to_the_same_bytes() {
        use lastcpu_snap::Snapshot as _;
        let bus = busy_bus();
        let bytes = bus.snapshot_bytes();
        let back = restored(&bytes).expect("restores");
        assert_eq!(back.snapshot_bytes(), bytes);
        assert_eq!(back.alive().count(), 2);
        assert_eq!(
            back.controller_of(ResourceKind::Memory),
            bus.controller_of(ResourceKind::Memory)
        );
    }

    /// Byte offset of the attach-order list in a bus snapshot: four cost /
    /// timeout words, the next id, the correlation id, eight counters.
    const ORDER_AT: usize = 4 * 8 + 4 + 8 + 8 * 8;

    fn assert_corrupt(bytes: &[u8], what: &str) {
        match restored(bytes) {
            Err(lastcpu_snap::SnapError::Corrupt { detail, .. }) => {
                assert!(
                    detail.contains(what),
                    "{detail:?} does not mention {what:?}"
                )
            }
            other => panic!("expected Corrupt({what}), got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn restore_rejects_an_attach_order_that_is_not_one_to_n() {
        use lastcpu_snap::Snapshot as _;
        let mut bytes = busy_bus().snapshot_bytes();
        // The list is a u64 length then u32 ids 1, 2, 3: swap the first two.
        let first = ORDER_AT + 8;
        assert_eq!(bytes[first..first + 8], [1, 0, 0, 0, 2, 0, 0, 0]);
        bytes[first] = 2;
        bytes[first + 4] = 1;
        assert_corrupt(&bytes, "attach order");
    }

    #[test]
    fn restore_rejects_a_registry_that_disagrees_with_its_order() {
        use lastcpu_snap::Snapshot as _;
        let mut bytes = busy_bus().snapshot_bytes();
        // The registry length follows the three ids of the order list.
        let registry_len = ORDER_AT + 8 + 3 * 4;
        assert_eq!(bytes[registry_len], 3);
        bytes[registry_len] = 2;
        assert_corrupt(&bytes, "disagrees");
        // Same length, but the first entry claims to be device 2.
        let mut bytes = busy_bus().snapshot_bytes();
        assert_eq!(bytes[registry_len + 8], 1);
        bytes[registry_len + 8] = 2;
        assert_corrupt(&bytes, "registry lists");
    }

    #[test]
    fn restore_rejects_a_controller_class_past_the_table() {
        use lastcpu_snap::Snapshot as _;
        let bus = busy_bus();
        let mut bytes = bus.snapshot_bytes();
        // Find the one controller entry (tag 0 = Memory, then memctl's id)
        // from the back: policy, empty-or-not flood list and audit follow it,
        // so locate it by re-encoding the tail.
        let mut tail = lastcpu_snap::SnapWriter::new();
        tail.put_u8(0);
        tail.put_u32(bus.controller_of(ResourceKind::Memory).unwrap().0);
        bus.policy.encode(&mut tail);
        let tail = tail.into_bytes();
        let at = bytes
            .windows(tail.len())
            .rposition(|w| w == tail)
            .expect("controller entry is in the snapshot");
        bytes[at] = 4;
        assert_corrupt(&bytes, "ResourceKind tag 4");
    }

    #[test]
    fn restore_rejects_flood_state_for_an_unknown_sender() {
        use lastcpu_snap::Snapshot as _;
        let bus = busy_bus();
        let ssd = DeviceId(2);
        let mut bytes = bus.snapshot_bytes();
        // The announcing SSD's flood entry: (id, window start 5 ns, 1 message).
        let mut entry = lastcpu_snap::SnapWriter::new();
        entry.put_u32(ssd.0);
        entry.put_u64(5);
        entry.put_u32(1);
        let entry = entry.into_bytes();
        let at = bytes
            .windows(entry.len())
            .rposition(|w| w == entry)
            .expect("flood entry is in the snapshot");
        bytes[at] = 9;
        assert_corrupt(&bytes, "flood state for unknown");
    }
}
