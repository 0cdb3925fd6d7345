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
//!   accesses and keeps a bounded log of denial records
//!   ([`DmaDenialRecord`]) for the `sec.*` metrics and trace events.
//! - [`crate::Iommu::probe`], a *read-only* translation oracle that answers "would
//!   this access be allowed right now?" without touching the IOTLB, the
//!   statistics, the audit, or the fault register. Tests and the E11 bench
//!   use it to double-check that a denied access truly has no mapping, and
//!   that an allowed control access still does.
//!
//! # Examples
//!
//! ```
//! use lastcpu_iommu::{AccessKind, AccessVerdict, Iommu};
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
//! let audit = mmu.audit().expect("audit enabled");
//! assert_eq!(audit.allowed(), 1);
//! assert_eq!(audit.denied(), 1);
//! let rec = &audit.denials()[0];
//! assert_eq!(rec.va, VirtAddr::new(0xdead_f000));
//! assert_eq!(rec.verdict(), AccessVerdict::Denied);
//!
//! // The read-only oracle agrees, without perturbing any state.
//! assert!(mmu.probe(Pasid(1), VirtAddr::new(0xdead_f000), AccessKind::Write).is_none());
//! assert!(mmu.probe(Pasid(1), VirtAddr::new(0x1000), AccessKind::Read).is_some());
//! ```

use lastcpu_mem::{Pasid, VirtAddr};

use crate::fault::{AccessKind, IommuFaultKind};

/// The audit verdict on one translated access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessVerdict {
    /// The access translated successfully under its PASID.
    Allowed,
    /// The access faulted; the device saw an [`crate::IommuFault`], not data.
    Denied,
}

/// One denied DMA, as recorded at the translation choke point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaDenialRecord {
    /// PASID the access was attempted under.
    pub pasid: Pasid,
    /// Faulting virtual address.
    pub va: VirtAddr,
    /// Read or write.
    pub access: AccessKind,
    /// Why the IOMMU refused it.
    pub kind: IommuFaultKind,
}

impl DmaDenialRecord {
    /// Always [`AccessVerdict::Denied`]; present so audit consumers can
    /// treat allowed and denied records uniformly.
    pub fn verdict(&self) -> AccessVerdict {
        AccessVerdict::Denied
    }
}

/// Per-IOMMU audit state: verdict counters plus a bounded denial log.
///
/// The log is bounded (`cap` entries) so a control-flood attacker cannot
/// turn the audit itself into a memory-exhaustion vector; overflowed
/// denials are still *counted* (`denied()` is exact), only their detail
/// records are dropped, and `dropped_records()` says how many.
#[derive(Debug, Clone, Default)]
pub struct DmaAudit {
    allowed: u64,
    denied: u64,
    pending_allowed: u64,
    pending_denied: u64,
    dropped: u64,
    cap: usize,
    log: Vec<DmaDenialRecord>,
}

/// Verdicts accumulated since the previous [`DmaAudit::drain`].
#[derive(Debug, Clone, Default)]
pub struct DmaAuditDelta {
    /// Allowed translations since the last drain (exact).
    pub allowed: u64,
    /// Denied translations since the last drain (exact).
    pub denied: u64,
    /// Retained denial records (bounded; see
    /// [`DmaAudit::dropped_records`]).
    pub records: Vec<DmaDenialRecord>,
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
    pub(crate) fn record_denied(&mut self, rec: DmaDenialRecord) {
        self.denied += 1;
        self.pending_denied += 1;
        if self.log.len() < self.cap {
            self.log.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// Exact count of allowed translations since the audit was enabled.
    pub fn allowed(&self) -> u64 {
        self.allowed
    }

    /// Exact count of denied translations since the audit was enabled.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Denial records retained (at most the configured capacity).
    pub fn denials(&self) -> &[DmaDenialRecord] {
        &self.log
    }

    /// Denial records dropped because the bounded log was full.
    pub fn dropped_records(&self) -> u64 {
        self.dropped
    }

    /// Drains verdicts accumulated since the previous drain.
    ///
    /// The event core calls this after each device dispatch to convert
    /// fresh verdicts into `sec.*` metrics and trace events exactly once.
    /// Cumulative counters ([`DmaAudit::allowed`] / [`DmaAudit::denied`])
    /// are unaffected.
    pub fn drain(&mut self) -> DmaAuditDelta {
        DmaAuditDelta {
            allowed: std::mem::take(&mut self.pending_allowed),
            denied: std::mem::take(&mut self.pending_denied),
            records: std::mem::take(&mut self.log),
        }
    }
}

impl DmaDenialRecord {
    /// Serializes into a snapshot section.
    pub fn encode(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u32(self.pasid.0);
        w.put_u64(self.va.as_u64());
        self.access.encode(w);
        self.kind.encode(w);
    }

    /// Inverse of [`DmaDenialRecord::encode`].
    pub fn decode(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<Self> {
        Ok(DmaDenialRecord {
            pasid: Pasid(r.u32()?),
            va: VirtAddr::new(r.u64()?),
            access: AccessKind::decode(r)?,
            kind: IommuFaultKind::decode(r)?,
        })
    }
}

impl lastcpu_snap::Snapshot for DmaAudit {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.allowed);
        w.put_u64(self.denied);
        w.put_u64(self.pending_allowed);
        w.put_u64(self.pending_denied);
        w.put_u64(self.dropped);
        w.put_u64(self.cap as u64);
        w.put_len(self.log.len());
        for rec in &self.log {
            rec.encode(w);
        }
    }
}

impl lastcpu_snap::Restore for DmaAudit {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.allowed = r.u64()?;
        self.denied = r.u64()?;
        self.pending_allowed = r.u64()?;
        self.pending_denied = r.u64()?;
        self.dropped = r.u64()?;
        self.cap = r.u64()? as usize;
        let n = r.count()?;
        if n > self.cap {
            return Err(r.corrupt("audit log exceeds its capacity"));
        }
        self.log = Vec::with_capacity(n);
        for _ in 0..n {
            self.log.push(DmaDenialRecord::decode(r)?);
        }
        Ok(())
    }
}
