//! The `bus` checkpoint section (E14). The format predates the indexed
//! registry: it lists attach order and the entries separately, and
//! controllers and flood state as sparse lists; restore checks that they
//! describe a registry whose ids are exactly `1..=n`.

use lastcpu_sim::SimTime;
use lastcpu_snap::{Field, Restore, Snapshot};

use super::registry::index_of;
use super::{DeviceEntry, DeviceState, SystemBus};
use crate::ids::DeviceId;
#[cfg(test)]
use {crate::audit::SecurityPolicy, crate::message::ServiceDesc, lastcpu_sim::CorrId};

lastcpu_snap::tags! { DeviceState { Attached = 0, Alive = 1, Failed = 2 } }

lastcpu_snap::fields! { SystemBus |self| {
    cost.hop_latency, cost.processing, cost.per_byte_ps, heartbeat_timeout, ..Registry, audit,
} restored {
    // Scratch, not state: nothing of the previous life carries over.
    self.envs.clear();
} }

/// The registry, in the layout that predates its indexing: the next id
/// `attach` would hand out, the correlation id and counters, attach order
/// and then the entries by id (both the registry's index order, and a
/// restore checks that they read exactly `1..=n`), the controllers as a
/// sparse list, the policy, and flood state for the senders the limiter
/// has counted.
struct Registry;

impl lastcpu_snap::Span<SystemBus> for Registry {
    fn put(&self, b: &SystemBus, w: &mut lastcpu_snap::SnapWriter) {
        (b.devices.len() as u32 + 1).put(w);
        b.cur_corr.put(w);
        b.met.snapshot(w);
        w.put_len(b.devices.len());
        b.devices.iter().for_each(|e| e.id.put(w));
        w.put_len(b.devices.len());
        for e in &b.devices {
            e.id.put(w);
            e.name.put(w);
            e.kind.put(w);
            e.state.put(w);
            e.last_seen.put(w);
            e.services.put(w);
        }
        w.put_len(b.controllers.iter().flatten().count());
        for (class, d) in (0u8..).zip(&b.controllers) {
            if let Some(d) = d {
                (class, *d).put(w);
            }
        }
        b.policy.put(w);
        let limited = || b.devices.iter().filter_map(|e| Some((e.id, e.flood?)));
        w.put_len(limited().count());
        limited().for_each(|(d, (t, n))| (d, t, n).put(w));
    }

    fn take(
        &self,
        b: &mut SystemBus,
        r: &mut lastcpu_snap::SnapReader<'_>,
    ) -> lastcpu_snap::Result<()> {
        let next_id = u32::take(r)?;
        b.cur_corr = Field::take(r)?;
        b.met.restore(r)?;
        let n = r.len()?;
        for i in 0..n {
            let id = u32::take(r)?;
            if id as usize != i + 1 {
                return Err(r.corrupt(format!("attach order lists dev:{id} at position {i}")));
            }
        }
        if r.len()? != n || next_id as usize != n + 1 {
            return Err(r.corrupt(format!(
                "registry disagrees with its attach order of {n} (next id {next_id})"
            )));
        }
        b.devices = Vec::with_capacity(n);
        for i in 0..n {
            let id = DeviceId::take(r)?;
            if index_of(id) != Some(i) {
                return Err(r.corrupt(format!("registry lists {id} at position {i}")));
            }
            b.devices.push(DeviceEntry {
                id,
                name: Field::take(r)?,
                kind: Field::take(r)?,
                state: Field::take(r)?,
                last_seen: Field::take(r)?,
                services: Field::take(r)?,
                flood: None,
            });
        }
        b.controllers = [None; 4];
        for _ in 0..r.len()? {
            let t = r.u8()?;
            let slot = (b.controllers.get_mut(t as usize))
                .ok_or_else(|| r.corrupt(format!("bad ResourceKind tag {t}")))?;
            *slot = Some(DeviceId::take(r)?);
        }
        b.policy = Field::take(r)?;
        for _ in 0..r.len()? {
            let (d, t, c): (DeviceId, SimTime, u32) = Field::take(r)?;
            match b.device_mut(d) {
                Some(e) => e.flood = Some((t, c)),
                None => return Err(r.corrupt(format!("flood state for unknown {d}"))),
            }
        }
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

    /// Tag 3 was `DeviceState::Departed`, which only the deleted `Bye`
    /// reached.
    #[test]
    fn restore_rejects_a_device_state_past_the_table() {
        use lastcpu_snap::Snapshot as _;
        let bus = busy_bus();
        let mut bytes = bus.snapshot_bytes();
        // The first registry entry is the failed NIC: its id, name and kind,
        // then its state.
        let nic = bus.device(DeviceId(1)).unwrap();
        let mut head = lastcpu_snap::SnapWriter::new();
        (nic.id, nic.name.clone(), nic.kind.clone()).put(&mut head);
        let at = ORDER_AT + 8 + 3 * 4 + 8 + head.into_bytes().len();
        assert_eq!(bytes[at], DeviceState::Failed.tag());
        bytes[at] = 3;
        assert_corrupt(&bytes, "bad DeviceState tag 3");
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
