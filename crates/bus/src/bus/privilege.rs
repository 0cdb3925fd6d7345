//! The privileged clause (§2.2 "Address Translation"): who controls which
//! resource class, and the one place a `MapInstruction` becomes an IOMMU
//! programming effect. Every refusal goes through [`SystemBus::deny`], and
//! every verdict into the E11 audit.

use super::{BusEffect, SystemBus};
use crate::audit::{BusAudit, BusAuditRecord, BusVerdict, DenyReason, PrivOpKind, SecurityPolicy};
use crate::ids::{DeviceId, RequestId};
use crate::message::{MapOp, Payload, ResourceKind, Status};

impl SystemBus {
    /// Enables the privileged-operation audit ([`BusAudit`]), keeping at
    /// most `cap` verdict records. Idempotent.
    pub fn enable_audit(&mut self, cap: usize) {
        if self.audit.is_none() {
            self.audit = Some(BusAudit::new(cap));
        }
    }

    /// The audit record, if [`SystemBus::enable_audit`] was called.
    pub fn audit(&self) -> Option<&BusAudit> {
        self.audit.as_ref()
    }

    /// Mutable audit access (the event core drains verdict records here).
    pub fn audit_mut(&mut self) -> Option<&mut BusAudit> {
        self.audit.as_mut()
    }

    /// Installs a hardening policy. The default [`SecurityPolicy`] changes
    /// nothing; see [`SecurityPolicy::hardened`] for the E11 settings.
    pub fn set_security_policy(&mut self, policy: SecurityPolicy) {
        self.policy = policy;
    }

    /// The registered controller of `resource`, if any.
    pub fn controller_of(&self, resource: ResourceKind) -> Option<DeviceId> {
        self.controllers[resource.tag() as usize]
    }

    /// `RegisterController`: first claim wins; the holder may re-register.
    pub(super) fn on_register_controller(
        &mut self,
        src: DeviceId,
        req: RequestId,
        resource: ResourceKind,
        bytes: usize,
        fx: &mut Vec<BusEffect>,
    ) {
        let class = resource.tag() as usize;
        if self.controllers[class].is_some_and(|owner| owner != src) {
            self.deny(
                bytes,
                src,
                req,
                PrivOpKind::RegisterController,
                Some(resource),
                None,
                DenyReason::ControllerTaken,
                Status::Denied,
                fx,
            );
            return;
        }
        self.controllers[class] = Some(src);
        self.audit_record(
            src,
            PrivOpKind::RegisterController,
            Some(resource),
            None,
            BusVerdict::Allowed,
            None,
        );
        self.reply(bytes, src, req, Payload::BusAck { status: Status::Ok }, fx);
    }

    #[allow(clippy::too_many_arguments)] // Mirrors the wire message fields.
    pub(super) fn handle_map_instruction(
        &mut self,
        bytes: usize,
        src: DeviceId,
        req: RequestId,
        resource: ResourceKind,
        op: MapOp,
        device: DeviceId,
        pasid: u32,
        va: u64,
        pa: u64,
        pages: u64,
        perms: u8,
        fx: &mut Vec<BusEffect>,
    ) {
        // Hardening (E11 finding): IOMMU page tables translate to physical
        // DRAM, so only the *memory* resource class can legitimately
        // instruct them. Before this check, a device could claim a vacant
        // class (Compute/Storage/Network) via `RegisterController` — first
        // claim wins — and then use it as a deputy to program arbitrary
        // DRAM mappings into any IOMMU. Denied before the controller check:
        // a non-Memory map instruction is a protocol violation no matter
        // who sends it.
        let refused = if resource != ResourceKind::Memory {
            Some(DenyReason::ResourceNotMemory)
        // Privilege check: only the registered controller of this resource
        // class may instruct mappings (§2.2 "Address Translation").
        } else if self.controller_of(resource) != Some(src) {
            Some(DenyReason::NotController)
        } else {
            None
        };
        if let Some(reason) = refused {
            self.deny(
                bytes,
                src,
                req,
                PrivOpKind::MapInstruction,
                Some(resource),
                Some(device),
                reason,
                Status::Denied,
                fx,
            );
            return;
        }
        // Map requires a live target; *unmap* is allowed on any attached
        // device — revocation must work on a failed device precisely so its
        // IOMMU is scrubbed before any reset revives it (§4).
        let target_ok = match op {
            MapOp::Map => self.is_alive(device),
            MapOp::Unmap => self.device(device).is_some(),
        };
        if !target_ok || pages == 0 {
            // A malformed or stale instruction from the rightful controller,
            // not a privilege refusal: audited and answered, but
            // `stats.denials` counts privilege checks only.
            self.audit_record(
                src,
                PrivOpKind::MapInstruction,
                Some(resource),
                Some(device),
                BusVerdict::Denied,
                Some(if pages == 0 {
                    DenyReason::BadRequest
                } else {
                    DenyReason::TargetNotFound
                }),
            );
            self.reply(
                bytes,
                src,
                req,
                Payload::BusAck {
                    status: if pages == 0 {
                        Status::BadRequest
                    } else {
                        Status::NotFound
                    },
                },
                fx,
            );
            return;
        }
        self.met.map_ops.incr();
        self.audit_record(
            src,
            PrivOpKind::MapInstruction,
            Some(resource),
            Some(device),
            BusVerdict::Allowed,
            None,
        );
        match op {
            MapOp::Map => fx.push(BusEffect::ProgramMap {
                device,
                pasid,
                va,
                pa,
                pages,
                perms,
                corr: self.cur_corr,
            }),
            MapOp::Unmap => fx.push(BusEffect::ProgramUnmap {
                device,
                pasid,
                va,
                pages,
                corr: self.cur_corr,
            }),
        }
        // Completion signal to the device whose address space changed…
        self.reply(
            bytes,
            device,
            req,
            Payload::MapComplete {
                status: Status::Ok,
                va,
                pages,
            },
            fx,
        );
        // …and an ack to the instructing controller.
        self.reply(bytes, src, req, Payload::BusAck { status: Status::Ok }, fx);
    }

    pub(super) fn audit_record(
        &mut self,
        src: DeviceId,
        op: PrivOpKind,
        resource: Option<ResourceKind>,
        target: Option<DeviceId>,
        verdict: BusVerdict,
        reason: Option<DenyReason>,
    ) {
        if let Some(a) = self.audit.as_mut() {
            a.record(BusAuditRecord {
                src,
                op,
                resource,
                target,
                verdict,
                reason,
            });
        }
    }

    /// Refuses a privileged request without answering it: counted and
    /// audited, but the sender gets no reply to learn from or amplify.
    pub(super) fn shed(
        &mut self,
        src: DeviceId,
        op: PrivOpKind,
        resource: Option<ResourceKind>,
        target: Option<DeviceId>,
        reason: DenyReason,
    ) {
        self.met.denials.incr();
        self.audit_record(src, op, resource, target, BusVerdict::Denied, Some(reason));
    }

    /// Refuses a privileged request: counted, audited, and answered with
    /// `BusAck { status }`.
    #[allow(clippy::too_many_arguments)] // One verdict, every field of its audit record.
    pub(super) fn deny(
        &mut self,
        bytes: usize,
        src: DeviceId,
        req: RequestId,
        op: PrivOpKind,
        resource: Option<ResourceKind>,
        target: Option<DeviceId>,
        reason: DenyReason,
        status: Status,
        fx: &mut Vec<BusEffect>,
    ) {
        self.shed(src, op, resource, target, reason);
        self.reply(bytes, src, req, Payload::BusAck { status }, fx);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{map_instruction, register_memctl, setup};
    use super::*;
    use crate::audit::BusVerdict;
    use crate::message::{Dst, Envelope};
    use lastcpu_sim::{CorrId, SimTime};

    #[test]
    fn controller_registration_first_wins() {
        let (mut bus, nic, _, mc) = setup();
        register_memctl(&mut bus, mc);
        assert_eq!(bus.controller_of(ResourceKind::Memory), Some(mc));
        // Second claimant is denied.
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(7),
                corr: CorrId::NONE,
                payload: Payload::RegisterController {
                    resource: ResourceKind::Memory,
                },
            },
            &mut fx,
        );
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { env, .. }
                if matches!(
                    env.payload,
                    Payload::BusAck {
                        status: Status::Denied
                    }
                )
        ));
        assert_eq!(bus.controller_of(ResourceKind::Memory), Some(mc));
        assert_eq!(bus.stats().denials, 1);
    }

    #[test]
    fn map_instruction_from_controller_programs_iommu() {
        let (mut bus, nic, _, mc) = setup();
        register_memctl(&mut bus, mc);
        let mut fx = Vec::new();
        bus.handle(SimTime::ZERO, map_instruction(mc, nic), &mut fx);
        assert!(fx.iter().any(|e| matches!(
            e,
            BusEffect::ProgramMap {
                device,
                pasid: 1,
                va: 0x10000,
                pa: 0x200000,
                pages: 4,
                perms: 3,
                ..
            } if *device == nic
        )));
        // Completion to the mapped device and ack to the controller.
        let delivered: Vec<(DeviceId, &'static str)> = fx
            .iter()
            .filter_map(|e| match e {
                BusEffect::Deliver { to, env, .. } => Some((*to, env.payload.kind_name())),
                _ => None,
            })
            .collect();
        assert!(delivered.contains(&(nic, "MapComplete")));
        assert!(delivered.contains(&(mc, "BusAck")));
        assert_eq!(bus.stats().map_ops, 1);
    }

    #[test]
    fn map_instruction_from_non_controller_denied() {
        let (mut bus, nic, ssd, mc) = setup();
        register_memctl(&mut bus, mc);
        let mut fx = Vec::new();
        // The NIC (a mere device) tries to program the SSD's IOMMU.
        bus.handle(SimTime::ZERO, map_instruction(nic, ssd), &mut fx);
        assert!(
            !fx.iter().any(|e| matches!(e, BusEffect::ProgramMap { .. })),
            "no mapping must be programmed"
        );
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { env, .. }
                if matches!(
                    env.payload,
                    Payload::BusAck {
                        status: Status::Denied
                    }
                )
        ));
        assert_eq!(bus.stats().denials, 1);
    }

    #[test]
    fn map_instruction_with_no_controller_registered_denied() {
        let (mut bus, nic, _, mc) = setup();
        let mut fx = Vec::new();
        bus.handle(SimTime::ZERO, map_instruction(mc, nic), &mut fx);
        assert!(!fx.iter().any(|e| matches!(e, BusEffect::ProgramMap { .. })));
    }

    #[test]
    fn map_to_dead_device_is_not_found() {
        let (mut bus, nic, _, mc) = setup();
        register_memctl(&mut bus, mc);
        let mut fx = Vec::new();
        bus.mark_failed(nic, &mut fx).unwrap();
        fx.clear();
        bus.handle(SimTime::ZERO, map_instruction(mc, nic), &mut fx);
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { env, .. }
                if matches!(
                    env.payload,
                    Payload::BusAck {
                        status: Status::NotFound
                    }
                )
        ));
    }

    #[test]
    fn zero_page_map_is_bad_request() {
        let (mut bus, nic, _, mc) = setup();
        register_memctl(&mut bus, mc);
        let mut env = map_instruction(mc, nic);
        if let Payload::MapInstruction { ref mut pages, .. } = env.payload {
            *pages = 0;
        }
        let mut fx = Vec::new();
        bus.handle(SimTime::ZERO, env, &mut fx);
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { env, .. }
                if matches!(
                    env.payload,
                    Payload::BusAck {
                        status: Status::BadRequest
                    }
                )
        ));
    }

    fn ack_status(fx: &[BusEffect]) -> Status {
        match &fx[0] {
            BusEffect::Deliver { env, .. } => match env.payload {
                Payload::BusAck { status } => status,
                ref other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn map_instruction_for_an_id_never_attached_is_not_found() {
        let (mut bus, _, _, mc) = setup();
        register_memctl(&mut bus, mc);
        for target in [DeviceId(0), DeviceId(u32::MAX)] {
            for op in [MapOp::Map, MapOp::Unmap] {
                let mut env = map_instruction(mc, target);
                if let Payload::MapInstruction { op: ref mut o, .. } = env.payload {
                    *o = op;
                }
                let mut fx = Vec::new();
                bus.handle(SimTime::ZERO, env, &mut fx);
                assert_eq!(ack_status(&fx), Status::NotFound, "{op:?} {target}");
                assert_eq!(fx.len(), 1, "no IOMMU programming, no MapComplete");
            }
        }
        assert_eq!(bus.stats().map_ops, 0);
        assert!(bus.mark_failed(DeviceId(0), &mut Vec::new()).is_err());
    }

    #[test]
    fn misdirected_payload_to_bus_is_bad_request() {
        let (mut bus, nic, _, _) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(1),
                corr: CorrId::NONE,
                payload: Payload::Doorbell {
                    conn: crate::ids::ConnId(1),
                    value: 0,
                },
            },
            &mut fx,
        );
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { env, .. }
                if matches!(
                    env.payload,
                    Payload::BusAck {
                        status: Status::BadRequest
                    }
                )
        ));
    }

    /// Regression for the E11 confused-deputy finding: claiming a *vacant*
    /// resource class must not grant the power to program IOMMU mappings.
    #[test]
    fn vacant_class_controller_cannot_instruct_maps() {
        let (mut bus, nic, ssd, mc) = setup();
        register_memctl(&mut bus, mc);
        bus.enable_audit(16);
        let mut fx = Vec::new();
        // The attacker successfully claims the vacant Compute class…
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(2),
                corr: CorrId::NONE,
                payload: Payload::RegisterController {
                    resource: ResourceKind::Compute,
                },
            },
            &mut fx,
        );
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { env, .. }
                if matches!(env.payload, Payload::BusAck { status: Status::Ok })
        ));
        fx.clear();
        // …but a MapInstruction under that class must be denied: only the
        // Memory class can instruct DRAM translations.
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(3),
                corr: CorrId::NONE,
                payload: Payload::MapInstruction {
                    resource: ResourceKind::Compute,
                    op: MapOp::Map,
                    device: ssd,
                    pasid: 7,
                    va: 0x7000,
                    pa: 0x1000,
                    pages: 1,
                    perms: 3,
                },
            },
            &mut fx,
        );
        assert!(
            !fx.iter().any(|e| matches!(e, BusEffect::ProgramMap { .. })),
            "no IOMMU programming may result"
        );
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { to, env, .. }
                if *to == nic
                    && matches!(env.payload, Payload::BusAck { status: Status::Denied })
        ));
        let rec = *bus.audit().unwrap().records().last().unwrap();
        assert_eq!(rec.op, PrivOpKind::MapInstruction);
        assert_eq!(rec.verdict, BusVerdict::Denied);
        assert_eq!(rec.reason, Some(DenyReason::ResourceNotMemory));
    }

    #[test]
    fn map_instruction_verdicts_are_audited() {
        let (mut bus, nic, ssd, mc) = setup();
        bus.enable_audit(16);
        register_memctl(&mut bus, mc);
        let mut fx = Vec::new();
        bus.handle(SimTime::ZERO, map_instruction(nic, ssd), &mut fx); // denied
        bus.handle(SimTime::ZERO, map_instruction(mc, ssd), &mut fx); // allowed
        let audit = bus.audit().unwrap();
        assert_eq!(audit.denied(), 1);
        // RegisterController(memctl) + the legitimate map.
        assert_eq!(audit.allowed(), 2);
        let denied = audit.records()[1];
        assert_eq!(denied.src, nic);
        assert_eq!(denied.reason, Some(DenyReason::NotController));
        let allowed = audit.records()[2];
        assert_eq!(allowed.src, mc);
        assert_eq!(allowed.verdict, BusVerdict::Allowed);
        assert_eq!(allowed.target, Some(ssd));
    }
}
