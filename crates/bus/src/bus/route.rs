//! Routing: the "mechanism for device communication" and nothing more
//! (§2.2; §2.3 control plane). Fences senders that are not alive, applies the
//! opt-in flood limit, then forwards a unicast untouched, bounces one aimed
//! at a dead or unknown peer, fans a broadcast out in attach order, or hands
//! a bus-directed message to the clause that owns it.

use std::sync::Arc;

use lastcpu_sim::{SimDuration, SimTime};

use super::{BusEffect, DeviceState, SystemBus};
use crate::audit::{BusVerdict, DenyReason, PrivOpKind};
use crate::ids::{DeviceId, RequestId};
use crate::message::{Dst, Envelope, ErrorCode, Payload, Status};

impl SystemBus {
    /// Handles one message, appending resulting effects to `fx`.
    ///
    /// Accepts either an owned [`Envelope`] or an already-shared
    /// `Arc<Envelope>`; the routing path never re-encodes or deep-clones
    /// the message.
    ///
    /// Unknown or fenced senders are dropped silently (a dead device's
    /// messages must not reach anyone — that is the fencing property the
    /// failure experiment checks).
    pub fn handle(&mut self, now: SimTime, env: impl Into<Arc<Envelope>>, fx: &mut Vec<BusEffect>) {
        let env: Arc<Envelope> = env.into();
        let bytes = env.encoded_len();
        self.cur_corr = env.corr;
        self.met.messages.incr();
        self.met.bytes.add(bytes as u64);

        // Fencing: only attached/alive devices may talk. `Hello` is allowed
        // from `Attached` (that is how a device becomes alive) and from
        // `Failed` (a reset device re-introduces itself).
        let policy = self.policy;
        let Some(sender) = self.device_mut(env.src) else {
            return;
        };
        let is_hello = matches!(env.payload, Payload::Hello { .. });
        match sender.state {
            DeviceState::Alive => {}
            DeviceState::Attached | DeviceState::Failed if is_hello => {}
            _ => return,
        }
        sender.last_seen = now;

        // Flood limiter (opt-in policy): a per-sender cap on control-plane
        // messages per window. Excess messages are shed silently — the
        // attacker gets no reply to amplify — but every shed message is
        // audited and counted, so the defence is provable.
        if let Some(limit) = policy.flood_limit {
            if matches!(env.dst, Dst::Bus | Dst::Broadcast) {
                let slot = sender.flood.get_or_insert((now, 0));
                if now.since(slot.0) >= policy.flood_window {
                    *slot = (now, 0);
                }
                slot.1 += 1;
                if slot.1 > limit {
                    self.met.flood_dropped.incr();
                    self.audit_record(
                        env.src,
                        PrivOpKind::Control,
                        None,
                        None,
                        BusVerdict::RateLimited,
                        Some(DenyReason::FloodLimited),
                    );
                    return;
                }
            }
        }

        match env.dst {
            Dst::Bus => {
                self.handle_bus_directed(now, &env, bytes, fx);
                // The bus was this message's only recipient.
                self.envs.recycle(env);
            }
            Dst::Device(target) => {
                if self.sheds_spoofed_hit(&env) {
                    return;
                }
                if self.is_alive(target) {
                    let latency = self.cost.unicast(bytes);
                    // Zero-copy forward: the sender's envelope is handed
                    // through untouched.
                    self.deliver(target, env, latency, fx);
                } else {
                    // Bounce: tell the sender its peer is gone.
                    let req = env.req;
                    let src = env.src;
                    self.reply(
                        bytes,
                        src,
                        req,
                        Payload::ErrorNotify {
                            code: ErrorCode::DeviceFailed,
                            conn: crate::ids::ConnId(0),
                            detail: format!("{target} is not alive"),
                        },
                        fx,
                    );
                }
            }
            Dst::Broadcast => self.broadcast_from(env.src, env, bytes, fx),
        }
    }

    fn handle_bus_directed(
        &mut self,
        now: SimTime,
        env: &Envelope,
        bytes: usize,
        fx: &mut Vec<BusEffect>,
    ) {
        let src = env.src;
        let req = env.req;
        match &env.payload {
            Payload::Hello { .. } => self.on_hello(now, src, req, bytes, fx),
            Payload::Heartbeat => {
                // last_seen already refreshed in handle().
            }
            Payload::Announce { service } => self.on_announce(src, req, service, bytes, fx),
            Payload::Withdraw { service } => self.on_withdraw(src, req, *service, bytes, fx),
            Payload::Query { pattern } => self.on_query(src, req, pattern, bytes, fx),
            Payload::RegisterController { resource } => {
                self.on_register_controller(src, req, *resource, bytes, fx)
            }
            Payload::MapInstruction {
                resource,
                op,
                device,
                pasid,
                va,
                pa,
                pages,
                perms,
            } => {
                self.handle_map_instruction(
                    bytes, src, req, *resource, *op, *device, *pasid, *va, *pa, *pages, *perms, fx,
                );
            }
            _ => {
                // Anything else aimed at the bus is a protocol violation.
                self.deny(
                    bytes,
                    src,
                    req,
                    PrivOpKind::Control,
                    None,
                    None,
                    DenyReason::BadRequest,
                    Status::BadRequest,
                    fx,
                );
            }
        }
    }

    fn deliver(
        &mut self,
        to: DeviceId,
        env: Arc<Envelope>,
        latency: SimDuration,
        fx: &mut Vec<BusEffect>,
    ) {
        self.met.unicasts.incr();
        fx.push(BusEffect::Deliver { to, env, latency });
    }

    pub(super) fn reply(
        &mut self,
        now_bytes: usize,
        to: DeviceId,
        req: RequestId,
        payload: Payload,
        fx: &mut Vec<BusEffect>,
    ) {
        let env = Envelope {
            src: DeviceId::BUS,
            dst: Dst::Device(to),
            req,
            corr: self.cur_corr,
            payload,
        };
        let latency = self.cost.unicast(now_bytes.max(env.encoded_len()));
        let env = self.envs.share(env);
        self.deliver(to, env, latency, fx);
    }

    pub(super) fn broadcast_from(
        &mut self,
        src: DeviceId,
        env: Arc<Envelope>,
        bytes: usize,
        fx: &mut Vec<BusEffect>,
    ) {
        let mut n = 0usize;
        for e in &self.devices {
            if e.id == src || e.state != DeviceState::Alive {
                continue;
            }
            let latency = self.cost.broadcast_nth(bytes, n);
            n += 1;
            self.met.broadcast_deliveries.incr();
            fx.push(BusEffect::Deliver {
                to: e.id,
                // Reference-count bump only — the payload is shared, not
                // deep-cloned per recipient.
                env: Arc::clone(&env),
                latency,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::setup;
    use super::*;
    use crate::audit::SecurityPolicy;
    use crate::ids::{ServiceId, Token};
    use lastcpu_sim::CorrId;

    #[test]
    fn unknown_sender_is_dropped() {
        let mut bus = SystemBus::new();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: DeviceId(99),
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        assert!(fx.is_empty());
    }

    #[test]
    fn unicast_routes_between_alive_devices() {
        let (mut bus, nic, ssd, _) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Device(ssd),
                req: RequestId(2),
                corr: CorrId::NONE,
                payload: Payload::OpenRequest {
                    service: ServiceId(1),
                    token: Token::NONE,
                    params: vec![],
                },
            },
            &mut fx,
        );
        assert_eq!(fx.len(), 1);
        match &fx[0] {
            BusEffect::Deliver { to, env, latency } => {
                assert_eq!(*to, ssd);
                assert_eq!(env.src, nic);
                assert!(latency.as_nanos() > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unicast_to_dead_device_bounces() {
        let (mut bus, nic, ssd, _) = setup();
        let mut fx = Vec::new();
        bus.mark_failed(ssd, &mut fx).unwrap();
        fx.clear();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Device(ssd),
                req: RequestId(3),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        assert_eq!(fx.len(), 1);
        match &fx[0] {
            BusEffect::Deliver { to, env, .. } => {
                assert_eq!(*to, nic);
                assert!(matches!(
                    env.payload,
                    Payload::ErrorNotify {
                        code: ErrorCode::DeviceFailed,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn unicast_to(src: DeviceId, target: DeviceId) -> Envelope {
        Envelope {
            src,
            dst: Dst::Device(target),
            req: RequestId(3),
            corr: CorrId::NONE,
            payload: Payload::Heartbeat,
        }
    }

    /// Ids are indices into the registry, and they arrive in messages a
    /// hostile device wrote: one never handed out (or the bus's own 0) must
    /// bounce like a dead peer, not index out of range.
    #[test]
    fn unicast_to_an_id_never_attached_bounces() {
        let (mut bus, nic, _, _) = setup();
        for target in [DeviceId(9_999), DeviceId::BUS, DeviceId(u32::MAX)] {
            let mut fx = Vec::new();
            bus.handle(SimTime::ZERO, unicast_to(nic, target), &mut fx);
            assert_eq!(fx.len(), 1, "{target}");
            match &fx[0] {
                BusEffect::Deliver { to, env, .. } => {
                    assert_eq!(*to, nic);
                    assert!(matches!(
                        env.payload,
                        Payload::ErrorNotify {
                            code: ErrorCode::DeviceFailed,
                            ..
                        }
                    ));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn broadcast_reaches_all_alive_except_sender() {
        let (mut bus, nic, _, _) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Broadcast,
                req: RequestId(4),
                corr: CorrId::NONE,
                payload: Payload::Query {
                    pattern: "file:*".into(),
                },
            },
            &mut fx,
        );
        let recipients: Vec<DeviceId> = fx
            .iter()
            .map(|e| match e {
                BusEffect::Deliver { to, .. } => *to,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(recipients.len(), 2);
        assert!(!recipients.contains(&nic));
    }

    #[test]
    fn broadcast_latencies_are_serialized() {
        let (mut bus, nic, _, _) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Broadcast,
                req: RequestId(4),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        let lats: Vec<u64> = fx
            .iter()
            .map(|e| match e {
                BusEffect::Deliver { latency, .. } => latency.as_nanos(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(lats[1] > lats[0]);
    }

    #[test]
    fn failed_device_is_fenced() {
        let (mut bus, nic, ssd, _) = setup();
        let mut fx = Vec::new();
        bus.mark_failed(nic, &mut fx).unwrap();
        fx.clear();
        // The fenced device tries to talk: dropped.
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Device(ssd),
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        assert!(fx.is_empty());
    }

    /// Zero-copy contract: every recipient of a broadcast receives the
    /// *same* shared envelope allocation, and a unicast forwards the
    /// sender's envelope untouched (pointer-identical).
    #[test]
    fn broadcast_shares_one_envelope_and_unicast_forwards_it() {
        let (mut bus, nic, _, _) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Broadcast,
                req: RequestId(4),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        let envs: Vec<&std::sync::Arc<Envelope>> = fx
            .iter()
            .map(|e| match e {
                BusEffect::Deliver { env, .. } => env,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(envs.len(), 2);
        assert!(
            std::sync::Arc::ptr_eq(envs[0], envs[1]),
            "broadcast must share one allocation across recipients"
        );

        // Unicast: the routed envelope is the very Arc the caller passed in.
        let (mut bus, nic, ssd, _) = setup();
        let original = std::sync::Arc::new(Envelope {
            src: nic,
            dst: Dst::Device(ssd),
            req: RequestId(2),
            corr: CorrId::NONE,
            payload: Payload::Heartbeat,
        });
        let mut fx = Vec::new();
        bus.handle(SimTime::ZERO, std::sync::Arc::clone(&original), &mut fx);
        match &fx[0] {
            BusEffect::Deliver { env, .. } => {
                assert!(
                    std::sync::Arc::ptr_eq(env, &original),
                    "unicast must forward, not clone"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stats_count_traffic() {
        let (mut bus, nic, ssd, _) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Device(ssd),
                req: RequestId(1),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        let s = bus.stats();
        assert!(s.messages >= 4); // 3 hellos + this one
        assert!(s.bytes > 0);
        assert!(s.unicasts >= 4);
    }

    #[test]
    fn flood_limiter_sheds_and_audits_excess() {
        let (mut bus, nic, ssd, _) = setup();
        bus.enable_audit(16);
        bus.set_security_policy(SecurityPolicy {
            flood_limit: Some(3),
            flood_window: SimDuration::from_micros(10),
            ..SecurityPolicy::default()
        });
        fn hb(bus: &mut SystemBus, src: DeviceId, t: SimTime) {
            let mut fx = Vec::new();
            bus.handle(
                t,
                Envelope {
                    src,
                    dst: Dst::Bus,
                    req: RequestId(0),
                    corr: CorrId::NONE,
                    payload: Payload::Heartbeat,
                },
                &mut fx,
            );
        }
        let t0 = SimTime::ZERO;
        for _ in 0..8 {
            hb(&mut bus, nic, t0);
        }
        assert_eq!(bus.stats().flood_dropped, 5); // 8 sent, 3 allowed
        assert_eq!(bus.audit().unwrap().rate_limited(), 5);
        // Another sender is unaffected (the cap is per sender)…
        let mut fx = Vec::new();
        bus.handle(
            t0,
            Envelope {
                src: ssd,
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        assert_eq!(bus.stats().flood_dropped, 5);
        // …and the window resets.
        hb(&mut bus, nic, t0 + SimDuration::from_micros(10));
        assert_eq!(bus.stats().flood_dropped, 5);
    }
}
