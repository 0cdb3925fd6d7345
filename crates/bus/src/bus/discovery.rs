//! Discovery (§2.2, SSDP-like): the bus holds no service directory that
//! answers queries. `Announce`, `Withdraw` and `Query` are re-broadcast and
//! the owners answer directly; the bus keeps announced names only to show
//! them and, under the E11 policy, to refuse a shadowed or spoofed name.

use std::sync::Arc;

use super::{BusEffect, DeviceState, SystemBus};
use crate::audit::{DenyReason, PrivOpKind};
use crate::ids::{DeviceId, RequestId, ServiceId};
use crate::message::{Dst, Envelope, Payload, ServiceDesc, Status};

impl SystemBus {
    /// `Announce`: records the service for observability and re-broadcasts
    /// it (§2.2 capability broadcast).
    pub(super) fn on_announce(
        &mut self,
        src: DeviceId,
        req: RequestId,
        service: &ServiceDesc,
        bytes: usize,
        fx: &mut Vec<BusEffect>,
    ) {
        // Shadowing defence (opt-in policy): refuse to let one
        // device announce a service *name* another alive device is
        // currently announcing. Stops spoofed/replayed SSDP
        // announcements from capturing a victim's discovery
        // clients.
        if self.policy.deny_shadow_announce {
            let shadowed = self.devices.iter().any(|e| {
                e.id != src
                    && e.state == DeviceState::Alive
                    && e.services.iter().any(|s| s.name == service.name)
            });
            if shadowed {
                self.deny(
                    bytes,
                    src,
                    req,
                    PrivOpKind::Announce,
                    Some(service.resource),
                    None,
                    DenyReason::ShadowAnnounce,
                    Status::Denied,
                    fx,
                );
                return;
            }
        }
        if let Some(e) = self.device_mut(src) {
            e.services.retain(|s| s.id != service.id);
            e.services.push(service.clone());
        }
        // Capability broadcast (§2.2): others may cache it.
        self.rebroadcast(
            src,
            req,
            Payload::Announce {
                service: service.clone(),
            },
            bytes,
            fx,
        );
    }

    /// `Withdraw`: forgets the service and re-broadcasts the withdrawal.
    pub(super) fn on_withdraw(
        &mut self,
        src: DeviceId,
        req: RequestId,
        service: ServiceId,
        bytes: usize,
        fx: &mut Vec<BusEffect>,
    ) {
        if let Some(e) = self.device_mut(src) {
            e.services.retain(|s| s.id != service);
        }
        self.rebroadcast(src, req, Payload::Withdraw { service }, bytes, fx);
    }

    /// `Query`: SSDP-style — the bus re-broadcasts; owners answer directly.
    pub(super) fn on_query(
        &mut self,
        src: DeviceId,
        req: RequestId,
        pattern: &Arc<str>,
        bytes: usize,
        fx: &mut Vec<BusEffect>,
    ) {
        self.rebroadcast(
            src,
            req,
            Payload::Query {
                pattern: Arc::clone(pattern),
            },
            bytes,
            fx,
        );
    }

    /// Shared rebroadcast path for bus-directed discovery messages
    /// (`Announce` / `Withdraw` / `Query`): builds the broadcast envelope
    /// **once**, shares it across all recipients, and re-uses the incoming
    /// message's wire size for cost accounting. Previously each call site
    /// rebuilt and re-cloned the envelope per recipient.
    fn rebroadcast(
        &mut self,
        src: DeviceId,
        req: RequestId,
        payload: Payload,
        bytes: usize,
        fx: &mut Vec<BusEffect>,
    ) {
        let env = self.envs.share(Envelope {
            src,
            dst: Dst::Broadcast,
            req,
            corr: self.cur_corr,
            payload,
        });
        self.broadcast_from(src, env, bytes, fx);
    }

    /// Discovery-spoof defence (opt-in policy, the second half of the
    /// shadow-announce check): owners answer `Query` broadcasts *directly*
    /// with `QueryHit`, so a spoofed hit would capture a discovery client
    /// without ever touching the announce directory. Under the policy, a
    /// `QueryHit` must (a) name its own sender as the offering device and
    /// (b) name a service that sender has announced. Spoofs are shed
    /// silently — a reply would tell the attacker which names are live — but
    /// every one is audited. Returns whether `env` was shed.
    pub(super) fn sheds_spoofed_hit(&mut self, env: &Envelope) -> bool {
        if !self.policy.deny_shadow_announce {
            return false;
        }
        let Payload::QueryHit { device, service } = &env.payload else {
            return false;
        };
        let legit = *device == env.src
            && self
                .device(env.src)
                .is_some_and(|e| e.services.iter().any(|s| s.name == service.name));
        if !legit {
            self.shed(
                env.src,
                PrivOpKind::Announce,
                Some(service.resource),
                Some(*device),
                DenyReason::ShadowAnnounce,
            );
        }
        !legit
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::setup;
    use super::*;
    use crate::audit::SecurityPolicy;
    use crate::message::ResourceKind;
    use lastcpu_sim::{CorrId, SimTime};

    #[test]
    fn query_via_bus_is_rebroadcast_with_original_src() {
        let (mut bus, nic, ssd, mc) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(6),
                corr: CorrId::NONE,
                payload: Payload::Query {
                    pattern: "file:/data/kv.db".into(),
                },
            },
            &mut fx,
        );
        assert_eq!(fx.len(), 2);
        for e in &fx {
            match e {
                BusEffect::Deliver { to, env, .. } => {
                    assert!(*to == ssd || *to == mc);
                    assert_eq!(env.src, nic, "owners must reply to the querier");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn announce_records_and_rebroadcasts() {
        let (mut bus, nic, _, _) = setup();
        let svc = ServiceDesc {
            id: ServiceId(1),
            name: "kvs:frontend".into(),
            resource: ResourceKind::Network,
        };
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Announce {
                    service: svc.clone(),
                },
            },
            &mut fx,
        );
        assert_eq!(bus.device(nic).unwrap().services, vec![svc.clone()]);
        assert_eq!(fx.len(), 2); // two other devices
                                 // Re-announcing the same id replaces, not duplicates.
        let mut svc2 = svc;
        svc2.name = "kvs:frontend-v2".into();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Announce { service: svc2 },
            },
            &mut fx,
        );
        assert_eq!(bus.device(nic).unwrap().services.len(), 1);
        assert_eq!(bus.device(nic).unwrap().services[0].name, "kvs:frontend-v2");
    }

    #[test]
    fn withdraw_removes_service() {
        let (mut bus, nic, _, _) = setup();
        let svc = ServiceDesc {
            id: ServiceId(1),
            name: "kvs".into(),
            resource: ResourceKind::Network,
        };
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Announce { service: svc },
            },
            &mut fx,
        );
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Withdraw {
                    service: ServiceId(1),
                },
            },
            &mut fx,
        );
        assert!(bus.device(nic).unwrap().services.is_empty());
    }

    /// The `rebroadcast` helper consolidation must not change
    /// `broadcast_deliveries` accounting: a bus-directed Query and a raw
    /// Broadcast each count one delivery per alive non-sender device.
    #[test]
    fn broadcast_deliveries_accounting_unchanged() {
        let (mut bus, nic, _, _) = setup();
        assert_eq!(bus.stats().broadcast_deliveries, 0);
        let mut fx = Vec::new();
        // Bus-directed Query → rebroadcast helper → 2 deliveries.
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(6),
                corr: CorrId::NONE,
                payload: Payload::Query {
                    pattern: "file:*".into(),
                },
            },
            &mut fx,
        );
        assert_eq!(bus.stats().broadcast_deliveries, 2);
        // Raw broadcast → 2 more.
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Broadcast,
                req: RequestId(7),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        assert_eq!(bus.stats().broadcast_deliveries, 4);
        // Bus-directed Announce and Withdraw also go through the helper.
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(8),
                corr: CorrId::NONE,
                payload: Payload::Announce {
                    service: ServiceDesc {
                        id: ServiceId(1),
                        name: "kvs".into(),
                        resource: ResourceKind::Network,
                    },
                },
            },
            &mut fx,
        );
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(9),
                corr: CorrId::NONE,
                payload: Payload::Withdraw {
                    service: ServiceId(1),
                },
            },
            &mut fx,
        );
        assert_eq!(bus.stats().broadcast_deliveries, 8);
    }

    #[test]
    fn shadow_announce_denied_under_policy() {
        let (mut bus, nic, ssd, _) = setup();
        bus.enable_audit(16);
        bus.set_security_policy(SecurityPolicy {
            deny_shadow_announce: true,
            ..SecurityPolicy::default()
        });
        let svc = |id: u16| ServiceDesc {
            id: ServiceId(id),
            name: "kvs:frontend".into(),
            resource: ResourceKind::Network,
        };
        let announce = |src: DeviceId, id: u16| Envelope {
            src,
            dst: Dst::Bus,
            req: RequestId(1),
            corr: CorrId::NONE,
            payload: Payload::Announce { service: svc(id) },
        };
        let mut fx = Vec::new();
        bus.handle(SimTime::ZERO, announce(nic, 1), &mut fx);
        assert!(bus
            .device(nic)
            .unwrap()
            .services
            .iter()
            .any(|s| s.name == "kvs:frontend"));
        fx.clear();
        // A different device announcing the same *name* is refused…
        bus.handle(SimTime::ZERO, announce(ssd, 2), &mut fx);
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { to, env, .. }
                if *to == ssd
                    && matches!(env.payload, Payload::BusAck { status: Status::Denied })
        ));
        assert!(bus.device(ssd).unwrap().services.is_empty());
        let rec = *bus.audit().unwrap().records().last().unwrap();
        assert_eq!(rec.reason, Some(DenyReason::ShadowAnnounce));
        fx.clear();
        // …while the owner can re-announce (refresh) its own service.
        bus.handle(SimTime::ZERO, announce(nic, 1), &mut fx);
        assert!(fx.iter().any(|e| matches!(
            e,
            BusEffect::Deliver { env, .. }
                if matches!(env.payload, Payload::Announce { .. })
        )));
    }

    #[test]
    fn spoofed_query_hits_are_shed_and_audited_under_policy() {
        let (mut bus, nic, ssd, mc) = setup();
        bus.enable_audit(16);
        bus.set_security_policy(SecurityPolicy {
            deny_shadow_announce: true,
            ..SecurityPolicy::default()
        });
        let svc = ServiceDesc {
            id: ServiceId(1),
            name: "file:/data/kv.db".into(),
            resource: ResourceKind::Storage,
        };
        let mut fx = Vec::new();
        // The SSD legitimately announces the file service.
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: ssd,
                dst: Dst::Bus,
                req: RequestId(1),
                corr: CorrId::NONE,
                payload: Payload::Announce {
                    service: svc.clone(),
                },
            },
            &mut fx,
        );
        fx.clear();
        let hit = |src: DeviceId, claimed: DeviceId| Envelope {
            src,
            dst: Dst::Device(nic),
            req: RequestId(2),
            corr: CorrId::NONE,
            payload: Payload::QueryHit {
                device: claimed,
                service: svc.clone(),
            },
        };
        // Spoof flavour 1: the NIC's discovery answer claims the *attacker*
        // (mc here) offers the SSD's service — sender never announced it.
        bus.handle(SimTime::ZERO, hit(mc, mc), &mut fx);
        // Spoof flavour 2: forged provenance — sender names a *different*
        // device as the offerer.
        bus.handle(SimTime::ZERO, hit(mc, ssd), &mut fx);
        assert!(fx.is_empty(), "spoofed hits are shed silently, got {fx:?}");
        let audit = bus.audit().unwrap();
        assert_eq!(audit.denied(), 2);
        for rec in audit.records() {
            assert_eq!(rec.op, PrivOpKind::Announce);
            assert_eq!(rec.reason, Some(DenyReason::ShadowAnnounce));
        }
        // The true owner's answer for its own announced service passes.
        bus.handle(SimTime::ZERO, hit(ssd, ssd), &mut fx);
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { to, env, .. }
                if *to == nic && matches!(env.payload, Payload::QueryHit { .. })
        ));
    }
}
