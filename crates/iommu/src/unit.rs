//! The IOMMU unit attached to one device.

use std::fmt;

use lastcpu_mem::{MapError, PageTable, Pasid, Perms, PhysAddr, TranslateError, VirtAddr};
use lastcpu_sim::{DetHashMap, SimDuration};

use crate::audit::{DmaAudit, DmaDenialRecord};
use crate::fault::{AccessKind, IommuFault, IommuFaultKind};
use crate::tlb::{Iotlb, TlbStats};

/// Latency model for the translation path.
///
/// Defaults approximate published IOTLB numbers: ~2 ns for a TLB hit, ~30 ns
/// per table-node access on a walk (an uncached memory read), ~100 ns to
/// process an invalidation command.
#[derive(Debug, Clone, Copy)]
pub struct IommuCostModel {
    /// IOTLB lookup time (paid on every translation).
    pub tlb_lookup: SimDuration,
    /// Cost per page-table node access during a walk.
    pub walk_per_access: SimDuration,
    /// Cost of one invalidation command.
    pub invalidate: SimDuration,
}

impl Default for IommuCostModel {
    fn default() -> Self {
        IommuCostModel {
            tlb_lookup: SimDuration::from_nanos(2),
            walk_per_access: SimDuration::from_nanos(30),
            invalidate: SimDuration::from_nanos(100),
        }
    }
}

/// Aggregate IOMMU statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct IommuStats {
    /// Successful translations.
    pub translations: u64,
    /// Faults raised.
    pub faults: u64,
    /// Pages mapped over the unit's lifetime.
    pub maps: u64,
    /// Pages unmapped over the unit's lifetime.
    pub unmaps: u64,
}

/// The outcome of a translation attempt: where it landed and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationOutcome {
    /// Translated physical address.
    pub pa: PhysAddr,
    /// Virtual time the translation consumed.
    pub cost: SimDuration,
    /// Whether the IOTLB satisfied the lookup.
    pub tlb_hit: bool,
}

/// An IOMMU: a set of per-PASID page tables plus an IOTLB.
///
/// One unit is attached to each device. Ownership discipline enforces the
/// paper's security argument: device implementations receive translation
/// service through their DMA context, never a `&mut Iommu`, so a buggy or
/// malicious device cannot extend its own mappings. Only the system-bus glue
/// (in `lastcpu-core`) holds the units and performs [`Iommu::map`] /
/// [`Iommu::unmap`], and it does so only on instruction from the controller
/// of the mapped resource.
///
/// # Examples
///
/// ```
/// use lastcpu_iommu::{AccessKind, Iommu};
/// use lastcpu_mem::{Pasid, Perms, PhysAddr, VirtAddr};
///
/// let mut mmu = Iommu::new(64);
/// mmu.bind_pasid(Pasid(1));
/// mmu.map(Pasid(1), VirtAddr::new(0x4000), PhysAddr::new(0x1000), Perms::RW).unwrap();
/// let out = mmu.translate(Pasid(1), VirtAddr::new(0x4008), AccessKind::Read).unwrap();
/// assert_eq!(out.pa, PhysAddr::new(0x1008));
/// assert!(!out.tlb_hit); // first touch walks the table
/// ```
pub struct Iommu {
    tables: DetHashMap<Pasid, PageTable>,
    tlb: Iotlb,
    cost: IommuCostModel,
    stats: IommuStats,
    last_fault: Option<IommuFault>,
    audit: Option<DmaAudit>,
}

impl Iommu {
    /// Creates an IOMMU with an IOTLB of `tlb_entries` entries.
    pub fn new(tlb_entries: usize) -> Self {
        Iommu {
            tables: DetHashMap::default(),
            tlb: Iotlb::new(tlb_entries),
            cost: IommuCostModel::default(),
            stats: IommuStats::default(),
            last_fault: None,
            audit: None,
        }
    }

    /// Enables the security audit ([`DmaAudit`]), keeping at most `cap`
    /// denial records. Idempotent; existing audit state is kept.
    pub fn enable_audit(&mut self, cap: usize) {
        if self.audit.is_none() {
            self.audit = Some(DmaAudit::new(cap));
        }
    }

    /// The audit record, if [`Iommu::enable_audit`] was called.
    pub fn audit(&self) -> Option<&DmaAudit> {
        self.audit.as_ref()
    }

    /// Mutable audit access (the event core drains denial records here).
    pub fn audit_mut(&mut self) -> Option<&mut DmaAudit> {
        self.audit.as_mut()
    }

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, cost: IommuCostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Binds a PASID, creating its (empty) address space.
    ///
    /// Idempotent: rebinding an existing PASID keeps its table.
    pub fn bind_pasid(&mut self, pasid: Pasid) {
        self.tables.entry(pasid).or_default();
    }

    /// Unbinds a PASID, dropping its table and invalidating its TLB entries.
    ///
    /// Returns the physical page bases that were mapped (so the caller can
    /// release grants).
    pub fn unbind_pasid(&mut self, pasid: Pasid) -> Vec<PhysAddr> {
        self.tlb.invalidate_pasid(pasid);
        match self.tables.remove(&pasid) {
            Some(table) => table.iter().into_iter().map(|(_, pa, _)| pa).collect(),
            None => Vec::new(),
        }
    }

    /// Whether `pasid` has a bound address space.
    pub fn has_pasid(&self, pasid: Pasid) -> bool {
        self.tables.contains_key(&pasid)
    }

    /// Bound PASIDs, in unspecified order.
    pub fn pasids(&self) -> impl Iterator<Item = Pasid> + '_ {
        self.tables.keys().copied()
    }

    /// Maps one page. Privileged: called only by the system bus.
    pub fn map(
        &mut self,
        pasid: Pasid,
        va: VirtAddr,
        pa: PhysAddr,
        perms: Perms,
    ) -> Result<(), MapError> {
        let table = self.tables.entry(pasid).or_default();
        table.map(va, pa, perms)?;
        self.stats.maps += 1;
        Ok(())
    }

    /// Unmaps one page and invalidates its IOTLB entry. Privileged.
    ///
    /// Returns the physical page base that was mapped.
    pub fn unmap(&mut self, pasid: Pasid, va: VirtAddr) -> Result<PhysAddr, TranslateError> {
        let table = self
            .tables
            .get_mut(&pasid)
            .ok_or(TranslateError::NotMapped { va: va.page_base() })?;
        let pa = table.unmap(va)?;
        self.tlb.invalidate_page(pasid, va);
        self.stats.unmaps += 1;
        Ok(pa)
    }

    /// Changes permissions on an existing mapping and invalidates its IOTLB
    /// entry. Privileged.
    pub fn protect(
        &mut self,
        pasid: Pasid,
        va: VirtAddr,
        perms: Perms,
    ) -> Result<(), TranslateError> {
        let table = self
            .tables
            .get_mut(&pasid)
            .ok_or(TranslateError::NotMapped { va: va.page_base() })?;
        table.protect(va, perms)?;
        self.tlb.invalidate_page(pasid, va);
        Ok(())
    }

    /// Translates a device access, going through the IOTLB.
    ///
    /// On failure, records and returns the fault that must be delivered to
    /// the attached device.
    pub fn translate(
        &mut self,
        pasid: Pasid,
        va: VirtAddr,
        access: AccessKind,
    ) -> Result<TranslationOutcome, IommuFault> {
        let _prof = lastcpu_sim::profile::span("iommu.translate");
        let needed = access.required_perms();
        let mut cost = self.cost.tlb_lookup;
        // The TLB only reports a hit when the cached permissions cover the
        // access; a permission-insufficient entry is accounted as a
        // `perm_miss` and we fall through to a walk so the fault is precise
        // (matches real hardware re-walk behaviour).
        if let Some((frame_pa, _perms)) = self.tlb.lookup(pasid, va, needed) {
            self.stats.translations += 1;
            if let Some(a) = self.audit.as_mut() {
                a.record_allowed();
            }
            return Ok(TranslationOutcome {
                pa: PhysAddr::new(frame_pa.as_u64() | va.page_offset()),
                cost,
                tlb_hit: true,
            });
        }
        let table = match self.tables.get(&pasid) {
            Some(t) => t,
            None => {
                return Err(self.fault(pasid, va, access, IommuFaultKind::UnknownPasid));
            }
        };
        match table.translate(va, needed) {
            Ok(tr) => {
                cost += self
                    .cost
                    .walk_per_access
                    .saturating_mul(tr.walk_accesses as u64);
                self.tlb.insert(pasid, va, tr.pa.page_base(), tr.perms);
                self.stats.translations += 1;
                if let Some(a) = self.audit.as_mut() {
                    a.record_allowed();
                }
                Ok(TranslationOutcome {
                    pa: tr.pa,
                    cost,
                    tlb_hit: false,
                })
            }
            Err(TranslateError::NotMapped { .. }) => {
                Err(self.fault(pasid, va, access, IommuFaultKind::NotMapped))
            }
            Err(TranslateError::PermissionDenied { have, .. }) => {
                Err(self.fault(pasid, va, access, IommuFaultKind::PermissionDenied { have }))
            }
            Err(TranslateError::OutOfRange { .. }) => {
                Err(self.fault(pasid, va, access, IommuFaultKind::OutOfRange))
            }
        }
    }

    fn fault(
        &mut self,
        pasid: Pasid,
        va: VirtAddr,
        access: AccessKind,
        kind: IommuFaultKind,
    ) -> IommuFault {
        let f = IommuFault {
            pasid,
            va,
            access,
            kind,
        };
        self.stats.faults += 1;
        self.last_fault = Some(f);
        if let Some(a) = self.audit.as_mut() {
            a.record_denied(DmaDenialRecord {
                pasid,
                va,
                access,
                kind,
            });
        }
        f
    }

    /// Read-only translation oracle: would `access` be allowed *right now*?
    ///
    /// Returns the physical address the access would reach, or `None` if it
    /// would fault. Unlike [`Iommu::translate`] this touches **nothing** —
    /// no IOTLB fill or LRU update, no statistics, no fault register, no
    /// audit record — so tests and the E11 security bench can use it to
    /// prove an access is denied (or still allowed) without perturbing the
    /// deterministic simulation state.
    pub fn probe(&self, pasid: Pasid, va: VirtAddr, access: AccessKind) -> Option<PhysAddr> {
        let table = self.tables.get(&pasid)?;
        table
            .translate(va, access.required_perms())
            .ok()
            .map(|tr| tr.pa)
    }

    /// The most recent fault, if any (a debug register, as on real units).
    pub fn last_fault(&self) -> Option<IommuFault> {
        self.last_fault
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> IommuStats {
        self.stats
    }

    /// IOTLB statistics.
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &IommuCostModel {
        &self.cost
    }

    /// Total pages mapped across all PASIDs.
    pub fn mapped_pages(&self) -> u64 {
        self.tables.values().map(|t| t.mapped_pages()).sum()
    }

    /// Total page-table nodes across all PASIDs (memory overhead metric).
    pub fn table_nodes(&self) -> u64 {
        self.tables.values().map(|t| t.node_count()).sum()
    }
}

impl fmt::Debug for Iommu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Iommu(pasids={}, pages={}, tlb={:?})",
            self.tables.len(),
            self.mapped_pages(),
            self.tlb
        )
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        /// Random map/unmap/translate across multiple PASIDs against a
        /// model: the IOTLB must never serve a stale or cross-PASID
        /// translation.
        #[test]
        fn prop_iommu_never_serves_stale_translations(
            ops in proptest::collection::vec((0u8..3, 0u32..3, 0u64..24, 0u64..24), 1..200)
        ) {
            let mut mmu = Iommu::new(4); // tiny TLB: maximal churn
            let mut model: HashMap<(u32, u64), u64> = HashMap::new();
            for pasid in 0..3u32 {
                mmu.bind_pasid(Pasid(pasid));
            }
            for (kind, pasid, vp, pp) in ops {
                let va = VirtAddr::new(vp << 12);
                let pa = PhysAddr::new((pp + 32) << 12);
                match kind {
                    0 => {
                        let r = mmu.map(Pasid(pasid), va, pa, Perms::RW);
                        if let std::collections::hash_map::Entry::Vacant(e) =
                            model.entry((pasid, vp))
                        {
                            prop_assert!(r.is_ok());
                            e.insert(pp + 32);
                        } else {
                            prop_assert!(r.is_err());
                        }
                    }
                    1 => {
                        let r = mmu.unmap(Pasid(pasid), va);
                        match model.remove(&(pasid, vp)) {
                            Some(frame) => {
                                prop_assert_eq!(r.unwrap(), PhysAddr::new(frame << 12));
                            }
                            None => prop_assert!(r.is_err()),
                        }
                    }
                    _ => {
                        let r = mmu.translate(Pasid(pasid), va, AccessKind::Read);
                        match model.get(&(pasid, vp)) {
                            Some(frame) => {
                                prop_assert_eq!(r.unwrap().pa, PhysAddr::new(frame << 12));
                            }
                            None => prop_assert!(r.is_err()),
                        }
                    }
                }
            }
        }
    }
}

impl lastcpu_snap::Snapshot for Iommu {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.cost.tlb_lookup.as_nanos());
        w.put_u64(self.cost.walk_per_access.as_nanos());
        w.put_u64(self.cost.invalidate.as_nanos());
        w.put_u64(self.stats.translations);
        w.put_u64(self.stats.faults);
        w.put_u64(self.stats.maps);
        w.put_u64(self.stats.unmaps);
        let mut pasids: Vec<_> = self.tables.keys().copied().collect();
        pasids.sort_by_key(|p| p.0);
        w.put_len(pasids.len());
        for p in pasids {
            w.put_u32(p.0);
            self.tables[&p].snapshot(w);
        }
        self.tlb.snapshot(w);
        w.put_opt(self.last_fault.as_ref(), |w, f| f.encode(w));
        w.put_opt(self.audit.as_ref(), |w, a| a.snapshot(w));
    }
}

impl lastcpu_snap::Restore for Iommu {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.cost.tlb_lookup = SimDuration::from_nanos(r.u64()?);
        self.cost.walk_per_access = SimDuration::from_nanos(r.u64()?);
        self.cost.invalidate = SimDuration::from_nanos(r.u64()?);
        self.stats.translations = r.u64()?;
        self.stats.faults = r.u64()?;
        self.stats.maps = r.u64()?;
        self.stats.unmaps = r.u64()?;
        let n = r.len()?;
        self.tables = DetHashMap::default();
        for _ in 0..n {
            let pasid = Pasid(r.u32()?);
            let mut table = PageTable::new();
            table.restore(r)?;
            self.tables.insert(pasid, table);
        }
        self.tlb.restore(r)?;
        self.last_fault = r.opt(IommuFault::decode)?;
        self.audit = r.opt(|r| {
            let mut a = DmaAudit::default();
            a.restore(r)?;
            Ok(a)
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Iommu {
        let mut mmu = Iommu::new(16);
        mmu.bind_pasid(Pasid(1));
        mmu.map(
            Pasid(1),
            VirtAddr::new(0x1000),
            PhysAddr::new(0x8000),
            Perms::RW,
        )
        .unwrap();
        mmu
    }

    #[test]
    fn translation_walks_then_hits() {
        let mut mmu = unit();
        let first = mmu
            .translate(Pasid(1), VirtAddr::new(0x1004), AccessKind::Read)
            .unwrap();
        assert!(!first.tlb_hit);
        assert_eq!(first.pa, PhysAddr::new(0x8004));
        let second = mmu
            .translate(Pasid(1), VirtAddr::new(0x1008), AccessKind::Read)
            .unwrap();
        assert!(second.tlb_hit);
        assert!(second.cost < first.cost);
    }

    #[test]
    fn unknown_pasid_faults() {
        let mut mmu = unit();
        let err = mmu
            .translate(Pasid(9), VirtAddr::new(0x1000), AccessKind::Read)
            .unwrap_err();
        assert_eq!(err.kind, IommuFaultKind::UnknownPasid);
        assert_eq!(mmu.last_fault(), Some(err));
    }

    #[test]
    fn unmapped_page_faults_and_is_recorded() {
        let mut mmu = unit();
        let err = mmu
            .translate(Pasid(1), VirtAddr::new(0x9000), AccessKind::Read)
            .unwrap_err();
        assert_eq!(err.kind, IommuFaultKind::NotMapped);
        assert_eq!(err.va, VirtAddr::new(0x9000));
        assert_eq!(mmu.stats().faults, 1);
    }

    #[test]
    fn write_to_readonly_faults() {
        let mut mmu = Iommu::new(16);
        mmu.bind_pasid(Pasid(1));
        mmu.map(
            Pasid(1),
            VirtAddr::new(0x1000),
            PhysAddr::new(0x8000),
            Perms::R,
        )
        .unwrap();
        let err = mmu
            .translate(Pasid(1), VirtAddr::new(0x1000), AccessKind::Write)
            .unwrap_err();
        assert_eq!(
            err.kind,
            IommuFaultKind::PermissionDenied { have: Perms::R }
        );
    }

    #[test]
    fn stale_tlb_entry_does_not_grant_revoked_permission() {
        let mut mmu = unit();
        // Warm the TLB with RW.
        mmu.translate(Pasid(1), VirtAddr::new(0x1000), AccessKind::Write)
            .unwrap();
        // Downgrade to read-only; protect must invalidate the cached entry.
        mmu.protect(Pasid(1), VirtAddr::new(0x1000), Perms::R)
            .unwrap();
        assert!(mmu
            .translate(Pasid(1), VirtAddr::new(0x1000), AccessKind::Write)
            .is_err());
        assert!(mmu
            .translate(Pasid(1), VirtAddr::new(0x1000), AccessKind::Read)
            .is_ok());
    }

    #[test]
    fn unmap_invalidates_tlb() {
        let mut mmu = unit();
        mmu.translate(Pasid(1), VirtAddr::new(0x1000), AccessKind::Read)
            .unwrap();
        let pa = mmu.unmap(Pasid(1), VirtAddr::new(0x1000)).unwrap();
        assert_eq!(pa, PhysAddr::new(0x8000));
        assert!(mmu
            .translate(Pasid(1), VirtAddr::new(0x1000), AccessKind::Read)
            .is_err());
    }

    #[test]
    fn unbind_returns_mapped_frames() {
        let mut mmu = unit();
        mmu.map(
            Pasid(1),
            VirtAddr::new(0x2000),
            PhysAddr::new(0x9000),
            Perms::R,
        )
        .unwrap();
        let mut frames = mmu.unbind_pasid(Pasid(1));
        frames.sort();
        assert_eq!(frames, vec![PhysAddr::new(0x8000), PhysAddr::new(0x9000)]);
        assert!(!mmu.has_pasid(Pasid(1)));
        assert!(mmu.unbind_pasid(Pasid(1)).is_empty());
    }

    #[test]
    fn pasid_spaces_are_disjoint() {
        let mut mmu = Iommu::new(16);
        mmu.bind_pasid(Pasid(1));
        mmu.bind_pasid(Pasid(2));
        mmu.map(
            Pasid(1),
            VirtAddr::new(0x1000),
            PhysAddr::new(0x8000),
            Perms::RW,
        )
        .unwrap();
        assert!(mmu
            .translate(Pasid(2), VirtAddr::new(0x1000), AccessKind::Read)
            .is_err());
        // Same VA can map to different PAs per PASID.
        mmu.map(
            Pasid(2),
            VirtAddr::new(0x1000),
            PhysAddr::new(0xA000),
            Perms::R,
        )
        .unwrap();
        let t1 = mmu
            .translate(Pasid(1), VirtAddr::new(0x1000), AccessKind::Read)
            .unwrap();
        let t2 = mmu
            .translate(Pasid(2), VirtAddr::new(0x1000), AccessKind::Read)
            .unwrap();
        assert_ne!(t1.pa, t2.pa);
    }

    #[test]
    fn stats_accumulate() {
        let mut mmu = unit();
        mmu.translate(Pasid(1), VirtAddr::new(0x1000), AccessKind::Read)
            .unwrap();
        mmu.translate(Pasid(1), VirtAddr::new(0x1000), AccessKind::Read)
            .unwrap();
        let _ = mmu.translate(Pasid(1), VirtAddr::new(0x9000), AccessKind::Read);
        let s = mmu.stats();
        assert_eq!(s.translations, 2);
        assert_eq!(s.faults, 1);
        assert_eq!(s.maps, 1);
        assert_eq!(mmu.tlb_stats().hits, 1);
        assert_eq!(mmu.mapped_pages(), 1);
        assert!(mmu.table_nodes() >= 4);
    }

    #[test]
    fn bind_is_idempotent() {
        let mut mmu = unit();
        mmu.bind_pasid(Pasid(1));
        // Mapping from before the rebind is still there.
        assert!(mmu
            .translate(Pasid(1), VirtAddr::new(0x1000), AccessKind::Read)
            .is_ok());
    }
}
