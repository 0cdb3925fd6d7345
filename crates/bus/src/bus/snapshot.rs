//! The `bus` checkpoint section (E14): the cost model, the correlation id
//! and counters, then the registry in index order (an entry's id is its
//! index plus one, so it is not written), the controller of each resource
//! class, the policy and the audit.

use super::{DeviceEntry, DeviceState, SystemBus};
use crate::ids::DeviceId;
#[cfg(test)]
use {crate::audit::SecurityPolicy, crate::message::ServiceDesc, lastcpu_sim::CorrId};
#[cfg(test)]
use {lastcpu_sim::SimTime, lastcpu_snap::Field};

lastcpu_snap::tags! { DeviceState { Attached = 0, Alive = 1, Failed = 2 } }

lastcpu_snap::record!(DeviceEntry { id = DeviceId(0), name, kind, state, last_seen, services, flood });

lastcpu_snap::fields! { SystemBus |self| {
    cost.hop_latency, cost.processing, cost.per_byte_ps, heartbeat_timeout, cur_corr, mut met,
    devices, controllers, policy, audit,
} restored {
    for (id, e) in (1..).zip(&mut self.devices) {
        e.id = DeviceId(id);
    }
    // Scratch, not state: nothing of the previous life carries over.
    self.envs.clear();
} }

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

    /// Byte offset of the registry in a bus snapshot: four cost / timeout
    /// words, the correlation id, eight counters.
    const REGISTRY_AT: usize = 4 * 8 + 8 + 8 * 8;

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

    /// The registry is a count and the entries in index order, no ids: a
    /// restored entry's id is its index plus one.
    #[test]
    fn a_restored_registry_numbers_its_entries_by_index() {
        use lastcpu_snap::Snapshot as _;
        let bus = busy_bus();
        let bytes = bus.snapshot_bytes();
        assert_eq!(bytes[REGISTRY_AT..REGISTRY_AT + 8], 3u64.to_le_bytes());
        let nic = bus.device(DeviceId(1)).unwrap();
        assert_eq!(
            bytes[REGISTRY_AT + 8..REGISTRY_AT + 16],
            (nic.name.len() as u64).to_le_bytes(),
            "the first entry starts with its name"
        );
        let back = restored(&bytes).expect("restores");
        let ids = |b: &SystemBus| b.devices().map(|e| e.id).collect::<Vec<_>>();
        assert_eq!(ids(&back), [DeviceId(1), DeviceId(2), DeviceId(3)]);
        assert_eq!(ids(&back), ids(&bus));
    }

    /// Tag 3 was `DeviceState::Departed`, which only the deleted `Bye`
    /// reached.
    #[test]
    fn restore_rejects_a_device_state_past_the_table() {
        use lastcpu_snap::Snapshot as _;
        let bus = busy_bus();
        let mut bytes = bus.snapshot_bytes();
        // The first registry entry is the failed NIC: its name and kind,
        // then its state.
        let nic = bus.device(DeviceId(1)).unwrap();
        let mut head = lastcpu_snap::SnapWriter::new();
        (nic.name.clone(), nic.kind.clone()).put(&mut head);
        let at = REGISTRY_AT + 8 + head.into_bytes().len();
        assert_eq!(bytes[at], DeviceState::Failed.tag());
        bytes[at] = 3;
        assert_corrupt(&bytes, "bad DeviceState tag 3");
    }
}
