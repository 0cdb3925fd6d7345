//! The IOMMU unit attached to one device.

use std::fmt;

use lastcpu_mem::pagetable::{MAX_RESTORED_NODES, VA_BITS};
use lastcpu_mem::{
    MapError, PageTable, Pasid, Perms, PhysAddr, TranslateError, VirtAddr, PAGE_SHIFT,
};
use lastcpu_sim::{costs, DetHashMap, SimDuration};

use crate::audit::DmaAudit;
use crate::fault::{AccessKind, IommuFault, IommuFaultKind};
use crate::tlb::{Iotlb, TlbStats};

/// Latency model for the translation path.
///
/// The defaults are the `iommu.*` rows of the cost table
/// ([`lastcpu_sim::costs`]): ~2 ns for a TLB hit, ~30 ns per table-node
/// access on a walk (an uncached memory read), ~100 ns to process an
/// invalidation command.
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
            tlb_lookup: costs::IOMMU_TLB_LOOKUP,
            walk_per_access: costs::IOMMU_WALK_PER_ACCESS,
            invalidate: costs::IOMMU_INVALIDATE,
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
/// (in `lastcpu-core`) holds the units and performs [`Iommu::grant`] /
/// [`Iommu::revoke`], and it does so only on instruction from the controller
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

    /// Binds a PASID, creating its (empty) address space.
    ///
    /// Idempotent: rebinding an existing PASID keeps its table.
    pub fn bind_pasid(&mut self, pasid: Pasid) {
        self.tables.entry(pasid).or_default();
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

    /// Programs a region: `pages` pages from `va` onto consecutive frames
    /// from `pa`, one table walk per leaf table. Privileged: this is the
    /// bus carrying out a `MapInstruction`.
    ///
    /// A fresh page is mapped. A page that is already mapped (an idempotent
    /// re-grant, e.g. a share retried after a failure broadcast raced with
    /// it) keeps its frame, takes `perms` and loses its IOTLB entry. The
    /// first error stops the grant; the pages before it stay mapped.
    /// `stats.maps` counts fresh pages only.
    pub fn grant(
        &mut self,
        pasid: Pasid,
        va: VirtAddr,
        pa: PhysAddr,
        pages: u64,
        perms: Perms,
    ) -> Result<(), MapError> {
        let table = self.tables.entry(pasid).or_default();
        let done = table.map_range(va, pa, pages, perms);
        self.stats.maps += done.fresh;
        if done.refreshed > 0 {
            self.invalidate_pages(pasid, va, done.fresh + done.refreshed);
        }
        done.error.map_or(Ok(()), Err)
    }

    /// Revokes a region: unmaps whatever is mapped among the `pages` pages
    /// from `va` and drops their IOTLB entries. Privileged. Returns how
    /// many pages it unmapped.
    pub fn revoke(&mut self, pasid: Pasid, va: VirtAddr, pages: u64) -> u64 {
        let Some(table) = self.tables.get_mut(&pasid) else {
            return 0;
        };
        let removed = table.unmap_range(va, pages);
        if removed > 0 {
            self.invalidate_pages(pasid, va, pages);
        }
        self.stats.unmaps += removed;
        removed
    }

    /// Drops the IOTLB entry of each of the `pages` pages from the one
    /// containing `va`. Only a mapped page has an entry, so over a range
    /// just programmed or revoked this removes what the per-page `protect`
    /// or `unmap` would have; pages past the translatable edge have none.
    fn invalidate_pages(&mut self, pasid: Pasid, va: VirtAddr, pages: u64) {
        let first = va.page_number();
        let end = first.saturating_add(pages).min(1 << (VA_BITS - PAGE_SHIFT));
        for page in first..end {
            self.tlb
                .invalidate_page(pasid, VirtAddr::new(page << PAGE_SHIFT));
        }
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
            a.record_denied(f);
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

/// `grant` and `revoke` against the system's per-page loops from before a
/// region was programmed by the leaf table (`apply_map` / `apply_unmap` in
/// `lastcpu-core`, copied verbatim but for their trace records), on
/// statistics and snapshot bytes after every step.
#[cfg(test)]
mod oracle {
    use super::*;
    use lastcpu_mem::PAGE_SIZE;
    use lastcpu_snap::Snapshot;
    use proptest::prelude::*;

    fn apply_map(
        slot: &mut Iommu,
        pasid: u32,
        va: u64,
        pa: u64,
        pages: u64,
        perms: u8,
    ) -> Result<(), MapError> {
        let perms = Perms::from_bits(perms);
        slot.bind_pasid(Pasid(pasid));
        for i in 0..pages {
            let va_i = VirtAddr::new(va + i * PAGE_SIZE);
            let pa_i = PhysAddr::new(pa + i * PAGE_SIZE);
            match slot.map(Pasid(pasid), va_i, pa_i, perms) {
                Ok(()) => {}
                Err(MapError::AlreadyMapped { .. }) => {
                    // Idempotent re-grant (e.g. a share retried after a
                    // failure broadcast raced with it): refresh permissions.
                    let _ = slot.protect(Pasid(pasid), va_i, perms);
                }
                Err(e) => {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    fn apply_unmap(slot: &mut Iommu, pasid: u32, va: u64, pages: u64) -> u64 {
        let mut removed = 0;
        for i in 0..pages {
            let va_i = VirtAddr::new(va + i * PAGE_SIZE);
            if slot.unmap(Pasid(pasid), va_i).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Every IOTLB entry is a page its table maps, to the cached frame with
    /// the cached permissions: what lets `revoke` and `grant` invalidate
    /// every page of their range, mapped or not.
    fn assert_tlb_is_mapped(mmu: &Iommu) {
        for (pasid, page, frame, perms) in mmu.tlb.cached() {
            let t = mmu.tables[&pasid]
                .translate(VirtAddr::new(page * PAGE_SIZE), Perms::NONE)
                .expect("a cached page is mapped");
            assert_eq!((t.pa, t.perms), (frame, perms), "page {page:#x}");
        }
    }

    fn assert_same(new: &Iommu, old: &Iommu) {
        assert_eq!(format!("{:?}", new.stats()), format!("{:?}", old.stats()));
        assert_eq!(new.tlb_stats(), old.tlb_stats());
        assert_eq!(new.tlb.snapshot_bytes(), old.tlb.snapshot_bytes());
        assert_eq!(new.snapshot_bytes(), old.snapshot_bytes());
        assert_tlb_is_mapped(new);
        assert_tlb_is_mapped(old);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Grant(u32, u64, u64, u64, u8),
        Revoke(u32, u64, u64),
        Touch(u32, u64, u64, bool),
    }

    const EDGE_PAGE: u64 = 1 << 36;

    /// A page around a leaf-table boundary or the edge of the range.
    fn page() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..1200, EDGE_PAGE - 700..EDGE_PAGE + 4]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            ((0u32..3, page()), 0u64..4096, 0u64..600, 0u8..8, 0u64..12).prop_map(
                |((p, v), f, n, b, k)| {
                    // One grant in twelve is unaligned in va, one in pa.
                    let va = (v << 12) | ((k == 0) as u64 * 0x10);
                    let pa = (f << 12) | ((k == 1) as u64 * 0x10);
                    Op::Grant(p, va, pa, n, b)
                }
            ),
            (0u32..3, page(), 0u64..600, 0u64..2).prop_map(|(p, v, n, off)| Op::Revoke(
                p,
                (v << 12) | (off * 0x234),
                n
            )),
            (0u32..3, page(), 1u64..80, 0u8..2).prop_map(|(p, v, n, w)| Op::Touch(p, v, n, w == 1)),
            (0u32..3, page(), 1u64..80, 0u8..2).prop_map(|(p, v, n, w)| Op::Touch(p, v, n, w == 1)),
        ]
    }

    fn run(new: &mut Iommu, old: &mut Iommu, op: Op) {
        match op {
            Op::Grant(p, va, pa, n, b) => {
                let got = new.grant(
                    Pasid(p),
                    VirtAddr::new(va),
                    PhysAddr::new(pa),
                    n,
                    Perms::from_bits(b),
                );
                assert_eq!(got, apply_map(old, p, va, pa, n, b));
            }
            Op::Revoke(p, va, n) => {
                let got = new.revoke(Pasid(p), VirtAddr::new(va), n);
                assert_eq!(got, apply_unmap(old, p, va, n));
            }
            Op::Touch(p, v, n, write) => {
                let access = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                // Each page twice, as a streaming device touches it: the
                // second access hits, so the IOTLB's front entry is live.
                for i in 0..2 * n {
                    let va = VirtAddr::new((v + i / 2) * PAGE_SIZE + 8);
                    let got = new.translate(Pasid(p), va, access);
                    assert_eq!(got, old.translate(Pasid(p), va, access));
                }
            }
        }
        assert_same(new, old);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_grant_and_revoke_match_the_per_page_loops(
            tlb in 1usize..96,
            ops in proptest::collection::vec(op(), 1..40)
        ) {
            let (mut new, mut old) = (Iommu::new(tlb), Iommu::new(tlb));
            for op in ops {
                run(&mut new, &mut old, op);
            }
        }
    }

    /// The sequence `tests/iommu_pins.rs` records, through `grant` and
    /// `revoke`.
    #[test]
    fn the_pinned_edge_cases_match_the_per_page_loops() {
        let (mut new, mut old) = (Iommu::new(16), Iommu::new(16));
        let leaf = 512 * PAGE_SIZE;
        let edge = EDGE_PAGE * PAGE_SIZE;
        for op in [
            Op::Grant(3, leaf - 3 * PAGE_SIZE, 0x10_0000, 8, 3),
            Op::Touch(3, 509, 8, false),
            Op::Grant(3, leaf - 6 * PAGE_SIZE, 0x90_0000, 10, 1),
            Op::Touch(3, 506, 12, false),
            Op::Revoke(3, leaf - 8 * PAGE_SIZE, 12),
            Op::Touch(3, 504, 16, false),
            Op::Grant(3, edge - 3 * PAGE_SIZE, 0x40_0000, 6, 3),
            Op::Touch(3, EDGE_PAGE - 3, 3, false),
            Op::Revoke(3, edge - 2 * PAGE_SIZE, 5),
            Op::Grant(3, 0x5001, 0x20_0000, 4, 3),
            Op::Grant(3, 0x5000, 0x20_0001, 4, 3),
            Op::Grant(7, 0x7003, 0x30_0000, 0, 3),
        ] {
            run(&mut new, &mut old, op);
        }
        assert_eq!(new.mapped_pages(), 2);
    }
}

lastcpu_snap::record!(IommuCostModel {
    tlb_lookup,
    walk_per_access,
    invalidate
});
lastcpu_snap::record!(IommuStats {
    translations,
    faults,
    maps,
    unmaps
});

lastcpu_snap::fields! { Iommu |self| { cost, stats, tables: Tables, mut tlb, last_fault, audit } }

/// The page tables by PASID. A table's replay makes no more tables than it
/// declares; the unit holds the declared counts of all its PASIDs to the
/// bound one table has, so many sparse tables cannot add up to what one may
/// not.
struct Tables;

impl lastcpu_snap::Codec<DetHashMap<Pasid, PageTable>> for Tables {
    fn put(&self, tables: &DetHashMap<Pasid, PageTable>, w: &mut lastcpu_snap::SnapWriter) {
        lastcpu_snap::Field::put(tables, w);
    }

    fn take(
        &self,
        r: &mut lastcpu_snap::SnapReader<'_>,
    ) -> lastcpu_snap::Result<DetHashMap<Pasid, PageTable>> {
        let mut nodes = 0;
        let table = |r: &mut lastcpu_snap::SnapReader<'_>| {
            let (pasid, table): (Pasid, PageTable) = lastcpu_snap::Field::take(r)?;
            nodes += table.node_count();
            if nodes > MAX_RESTORED_NODES {
                return Err(r.corrupt(format!(
                    "{nodes} tables exceed the {MAX_RESTORED_NODES} a restore may make"
                )));
            }
            Ok((pasid, table))
        };
        lastcpu_snap::take_sorted(r, table, |&(p, _)| p)
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

    /// The audit keeps each denial as the fault the device saw: the same
    /// record `translate` returned and `last_fault` holds.
    #[test]
    fn the_audit_keeps_the_fault_the_device_saw() {
        let mut mmu = unit();
        mmu.enable_audit(8);
        let denied = [
            (Pasid(1), 0x1000, AccessKind::Execute),
            (Pasid(1), 0x9000, AccessKind::Read),
            (Pasid(7), 0x1000, AccessKind::Write),
        ];
        let mut seen = Vec::new();
        for (pasid, va, access) in denied {
            let fault = mmu.translate(pasid, VirtAddr::new(va), access).unwrap_err();
            assert_eq!(mmu.last_fault, Some(fault));
            seen.push(fault);
        }
        let audit = mmu.audit_mut().expect("audit on");
        let delta = audit.drain();
        assert_eq!((delta.denied, delta.records), (3, seen));
        assert!(
            audit.drain().records.is_empty(),
            "a drain takes the records"
        );
    }

    /// Denials past the log's capacity are counted, not kept.
    #[test]
    fn the_audit_log_is_bounded_and_counts_every_denial() {
        let mut mmu = unit();
        mmu.enable_audit(2);
        for page in 0..5u64 {
            let va = VirtAddr::new(0x10_0000 + (page << 12));
            assert!(mmu.translate(Pasid(1), va, AccessKind::Read).is_err());
        }
        let ok = mmu.translate(Pasid(1), VirtAddr::new(0x1000), AccessKind::Read);
        assert!(ok.is_ok());
        let delta = mmu.audit_mut().expect("audit on").drain();
        assert_eq!((delta.allowed, delta.denied), (1, 5));
        let kept: Vec<_> = delta.records.iter().map(|f| f.va.as_u64()).collect();
        assert_eq!(kept, [0x10_0000, 0x10_1000], "the first two");
        assert_eq!(mmu.stats().faults, 5);
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
        assert_eq!(mmu.last_fault, Some(err));
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
    fn a_restore_bounds_the_tables_of_all_pasids() {
        use lastcpu_snap::{Restore, SnapError, Snapshot};
        let mut mmu = unit();
        mmu.map(
            Pasid(2),
            VirtAddr::new(0x1000),
            PhysAddr::new(0x9000),
            Perms::R,
        )
        .unwrap();
        let mut bytes = mmu.snapshot_bytes();
        // Seven counters and the PASID count, then per PASID its id, its
        // table's declared node count and one 17-byte mapping.
        let first = 8 * 8 + 4;
        let second = first + 8 + 8 + 17 + 4;
        let half = MAX_RESTORED_NODES / 2 + 1;
        for at in [first, second] {
            bytes[at..at + 8].copy_from_slice(&half.to_le_bytes());
        }
        let mut back = Iommu::new(16);
        let err = back.restore_bytes("iommu", &bytes);
        assert!(matches!(err, Err(SnapError::Corrupt { .. })), "{err:?}");
        // Either table alone is within the bound.
        bytes[second..second + 8].copy_from_slice(&4u64.to_le_bytes());
        back.restore_bytes("iommu", &bytes)
            .expect("within the bound");
        assert_eq!(back.table_nodes(), half + 4);
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
