//! E11 security audit: converts the verdicts recorded by each IOMMU (DMA)
//! and by the bus (privileged operations) into `sec.*` metrics and
//! `security_denial` trace events, exactly once per verdict.

use lastcpu_sim::{CorrId, SimTime, TraceData};

use super::System;

impl System {
    /// Converts one dispatch's DMA verdicts into `sec.*` metrics and
    /// `security_denial` trace events, exactly once (called after every
    /// device hook).
    pub(super) fn drain_dma_audit(&mut self, idx: usize, now: SimTime, corr: CorrId) {
        let slot = &mut self.slots[idx];
        if let Some(audit) = slot.iommu.audit_mut() {
            let delta = audit.drain();
            if delta.allowed > 0 {
                self.met.sec_dma_allowed.add(delta.allowed);
            }
            if delta.denied > 0 {
                self.met.sec_dma_denied.add(delta.denied);
                slot.met.sec_dma_denied.add(delta.denied);
            }
            if self.trace.is_enabled() && !delta.records.is_empty() {
                let name = &slot.name;
                for r in &delta.records {
                    self.trace.emit_data(
                        now,
                        format!("sec.{name}"),
                        corr,
                        TraceData::SecurityDenial {
                            device: name.clone(),
                            check: "dma",
                            detail: format!(
                                "pasid {} va {:#x} {:?}: {:?}",
                                r.pasid.0,
                                r.va.as_u64(),
                                r.access,
                                r.kind
                            ),
                        },
                    );
                }
            }
        }
    }

    /// Converts freshly recorded bus-audit verdicts into `sec.*` metrics
    /// and `security_denial` trace events (called after every
    /// `bus.handle()`).
    pub(super) fn drain_bus_audit(&mut self, now: SimTime, corr: CorrId) {
        let Some(delta) = self.bus.audit_mut().map(|a| a.drain()) else {
            return;
        };
        if delta.allowed > 0 {
            self.met.sec_privops_allowed.add(delta.allowed);
        }
        if delta.denied > 0 {
            self.met.sec_privops_denied.add(delta.denied);
        }
        if delta.rate_limited > 0 {
            self.met.sec_flood_dropped.add(delta.rate_limited);
        }
        if self.trace.is_enabled() {
            for r in &delta.records {
                if r.verdict == lastcpu_bus::BusVerdict::Allowed {
                    continue;
                }
                let device = self
                    .bus
                    .device(r.src)
                    .map_or_else(|| r.src.to_string(), |e| e.name.clone())
                    .into();
                let check = match r.op {
                    lastcpu_bus::PrivOpKind::RegisterController => "register_controller",
                    lastcpu_bus::PrivOpKind::MapInstruction => "map_instruction",
                    lastcpu_bus::PrivOpKind::Announce => "announce",
                    lastcpu_bus::PrivOpKind::Control => "control",
                };
                self.trace.emit_data(
                    now,
                    "sec.bus",
                    corr,
                    TraceData::SecurityDenial {
                        device,
                        check,
                        detail: format!(
                            "{:?} (resource {:?}, target {:?})",
                            r.reason, r.resource, r.target
                        ),
                    },
                );
            }
        }
    }
}
