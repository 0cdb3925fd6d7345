//! DMA audit layer: a security-grade record of every translation verdict.
//!
//! The E11 security evaluation needs denials to be *provably* denied, not
//! just unobserved: when a malicious device issues a DMA outside its mapped
//! windows, the experiment must be able to show a matching denial record at
//! the IOMMU choke point, produced by the same code path that refused the
//! access. This module adds that record.
//!
//! The audit is **opt-in** ([`crate::Iommu::enable_audit`]) so the hot translation
//! path of performance experiments (E2, E5, E9) is unchanged, and it is
//! deterministic: entries are appended in translation order, which under the
//! single-threaded event core is a pure function of the seed.
//!
//! Two facilities live here:
//!
//! - [`DmaAudit`], the per-unit verdict recorder: counts allowed/denied
//!   accesses and keeps a bounded log of the denied accesses' faults
//!   ([`IommuFault`]s, as the device saw them) for the `sec.*` metrics and
//!   trace events.
//! - [`crate::Iommu::probe`], a *read-only* translation oracle that answers "would
//!   this access be allowed right now?" without touching the IOTLB, the
//!   statistics, the audit, or the fault register. Tests and the E11 bench
//!   use it to double-check that a denied access truly has no mapping, and
//!   that an allowed control access still does.
//!
//! # Examples
//!
//! ```
//! use lastcpu_iommu::{AccessKind, Iommu, IommuFaultKind};
//! use lastcpu_mem::{Pasid, Perms, PhysAddr, VirtAddr};
//!
//! let mut mmu = Iommu::new(16);
//! mmu.enable_audit(64);
//! mmu.bind_pasid(Pasid(1));
//! mmu.map(Pasid(1), VirtAddr::new(0x1000), PhysAddr::new(0x8000), Perms::R).unwrap();
//!
//! // An in-window read is allowed; a wild write is denied.
//! assert!(mmu.translate(Pasid(1), VirtAddr::new(0x1000), AccessKind::Read).is_ok());
//! assert!(mmu.translate(Pasid(1), VirtAddr::new(0xdead_f000), AccessKind::Write).is_err());
//!
//! // The machine drains the verdicts after each handler.
//! let delta = mmu.audit_mut().expect("audit enabled").drain();
//! assert_eq!((delta.allowed, delta.denied), (1, 1));
//! let rec = &delta.records[0];
//! assert_eq!(rec.va, VirtAddr::new(0xdead_f000));
//! assert_eq!(rec.kind, IommuFaultKind::NotMapped);
//!
//! // The read-only oracle agrees, without perturbing any state.
//! assert!(mmu.probe(Pasid(1), VirtAddr::new(0xdead_f000), AccessKind::Write).is_none());
//! assert!(mmu.probe(Pasid(1), VirtAddr::new(0x1000), AccessKind::Read).is_some());
//! ```

use crate::fault::IommuFault;

/// Per-IOMMU audit state: verdict counters plus a bounded denial log.
///
/// The log is bounded (`cap` entries) so a control-flood attacker cannot
/// turn the audit itself into a memory-exhaustion vector; overflowed
/// denials are still *counted* (a drain's `denied` is exact), only their detail
/// records are dropped, and the section counts how many.
#[derive(Debug, Clone, Default)]
pub struct DmaAudit {
    allowed: u64,
    denied: u64,
    pending_allowed: u64,
    pending_denied: u64,
    dropped: u64,
    cap: usize,
    log: Vec<IommuFault>,
}

/// Verdicts accumulated since the previous [`DmaAudit::drain`].
#[derive(Debug, Clone, Default)]
pub struct DmaAuditDelta {
    /// Allowed translations since the last drain (exact).
    pub allowed: u64,
    /// Denied translations since the last drain (exact).
    pub denied: u64,
    /// Retained denials, each the fault the device saw (bounded by the
    /// audit's capacity).
    pub records: Vec<IommuFault>,
}

impl DmaAudit {
    /// Creates an audit keeping at most `cap` denial records.
    pub fn new(cap: usize) -> Self {
        DmaAudit {
            cap,
            ..DmaAudit::default()
        }
    }

    /// Records an allowed translation.
    pub(crate) fn record_allowed(&mut self) {
        self.allowed += 1;
        self.pending_allowed += 1;
    }

    /// Records a denied translation.
    pub(crate) fn record_denied(&mut self, rec: IommuFault) {
        self.denied += 1;
        self.pending_denied += 1;
        if self.log.len() < self.cap {
            self.log.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// Drains verdicts accumulated since the previous drain.
    ///
    /// The event core calls this after each device dispatch to convert
    /// fresh verdicts into `sec.*` metrics and trace events exactly once.
    /// The cumulative counts the audit's section holds are unaffected.
    pub fn drain(&mut self) -> DmaAuditDelta {
        DmaAuditDelta {
            allowed: std::mem::take(&mut self.pending_allowed),
            denied: std::mem::take(&mut self.pending_denied),
            records: std::mem::take(&mut self.log),
        }
    }
}

lastcpu_snap::fields! { DmaAudit |self| (DmaAudit::default()) {
    allowed, denied, pending_allowed, pending_denied, dropped, cap,
    log: lastcpu_snap::Max(self.cap, "audit log exceeds its capacity"),
} }
