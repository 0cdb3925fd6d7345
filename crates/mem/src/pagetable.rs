//! Four-level radix page tables.
//!
//! This is the structure the system bus programs into a device's IOMMU on
//! behalf of the memory controller (§2.2 "Address Translation"). The layout
//! mirrors x86-64/SMMU conventions: 48-bit virtual addresses, 9 translation
//! bits per level, 4 KiB leaf pages. Walks report how many node accesses
//! they performed so the IOMMU can charge an accurate virtual-time cost for
//! IOTLB misses.

use std::fmt;

use lastcpu_sim::DetHashMap;

use crate::addr::{PhysAddr, VirtAddr, PAGE_SHIFT};

/// Number of levels in the radix tree.
pub const LEVELS: usize = 4;
/// Translation bits per level.
pub const BITS_PER_LEVEL: u64 = 9;
/// Entries per node.
pub const ENTRIES: usize = 1 << BITS_PER_LEVEL;
/// Width of a translatable virtual address.
pub const VA_BITS: u64 = PAGE_SHIFT + BITS_PER_LEVEL * LEVELS as u64; // 48

/// Access permissions on a mapping.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Perms {
    bits: u8,
}

impl Perms {
    /// No access.
    pub const NONE: Perms = Perms { bits: 0 };
    /// Read-only.
    pub const R: Perms = Perms { bits: 1 };
    /// Write-only.
    pub const W: Perms = Perms { bits: 2 };
    /// Read-write.
    pub const RW: Perms = Perms { bits: 3 };
    /// Execute (device-side code fetch).
    pub const X: Perms = Perms { bits: 4 };
    /// Read-write-execute.
    pub const RWX: Perms = Perms { bits: 7 };

    /// Whether reads are allowed.
    pub const fn can_read(self) -> bool {
        self.bits & 1 != 0
    }

    /// Whether writes are allowed.
    pub const fn can_write(self) -> bool {
        self.bits & 2 != 0
    }

    /// Whether execution is allowed.
    pub const fn can_exec(self) -> bool {
        self.bits & 4 != 0
    }

    /// Whether every permission in `needed` is present in `self`.
    pub const fn allows(self, needed: Perms) -> bool {
        self.bits & needed.bits == needed.bits
    }

    /// Union of two permission sets.
    pub const fn union(self, other: Perms) -> Perms {
        Perms {
            bits: self.bits | other.bits,
        }
    }

    /// The raw permission bits (checkpoint wire form).
    pub const fn to_bits(self) -> u8 {
        self.bits
    }

    /// Rebuilds from [`Perms::to_bits`] output (extra bits are masked off).
    pub const fn from_bits(bits: u8) -> Perms {
        Perms { bits: bits & 7 }
    }
}

impl Perms {
    /// The `rwx` rendering, `-` for an absent bit (`"rw-"`); what `Debug`
    /// and `Display` print.
    pub const fn as_str(self) -> &'static str {
        ["---", "r--", "-w-", "rw-", "--x", "r-x", "-wx", "rwx"][self.bits as usize]
    }
}

impl fmt::Debug for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Errors establishing a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The virtual page is already mapped (remapping requires an explicit
    /// unmap first — silent remaps hide grant-lifetime bugs).
    AlreadyMapped {
        /// The already-mapped virtual page base.
        va: VirtAddr,
    },
    /// Address is not page-aligned.
    Unaligned {
        /// The offending address.
        va: VirtAddr,
    },
    /// Virtual address exceeds the translatable range.
    OutOfRange {
        /// The offending address.
        va: VirtAddr,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::AlreadyMapped { va } => write!(f, "page {va} already mapped"),
            MapError::Unaligned { va } => write!(f, "address {va} is not page aligned"),
            MapError::OutOfRange { va } => write!(f, "address {va} outside {VA_BITS}-bit range"),
        }
    }
}

impl std::error::Error for MapError {}

/// Errors translating an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateError {
    /// No mapping exists for the page (a page fault).
    NotMapped {
        /// The faulting virtual address.
        va: VirtAddr,
    },
    /// A mapping exists but does not allow the requested access.
    PermissionDenied {
        /// The faulting virtual address.
        va: VirtAddr,
        /// Permissions present on the mapping.
        have: Perms,
        /// Permissions the access required.
        needed: Perms,
    },
    /// Virtual address exceeds the translatable range.
    OutOfRange {
        /// The faulting virtual address.
        va: VirtAddr,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::NotMapped { va } => write!(f, "page fault: {va} not mapped"),
            TranslateError::PermissionDenied { va, have, needed } => {
                write!(f, "permission fault at {va}: have {have}, need {needed}")
            }
            TranslateError::OutOfRange { va } => {
                write!(f, "address {va} outside {VA_BITS}-bit range")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// A successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The translated physical address.
    pub pa: PhysAddr,
    /// Permissions on the containing page.
    pub perms: Perms,
    /// Page-table node accesses the walk performed (for cost accounting).
    pub walk_accesses: u32,
}

/// One leaf entry.
#[derive(Debug, Clone, Copy)]
struct Leaf {
    frame: u64,
    perms: Perms,
}

/// Interior node: children indexed 0..ENTRIES, stored sparsely.
#[derive(Default)]
struct Node {
    children: DetHashMap<u16, NodeRef>,
}

enum NodeRef {
    Interior(Box<Node>),
    Leaf(Leaf),
}

/// A 4-level radix page table for one address space.
///
/// # Examples
///
/// ```
/// use lastcpu_mem::{PageTable, Perms, PhysAddr, VirtAddr};
///
/// let mut pt = PageTable::new();
/// pt.map(VirtAddr::new(0x4000), PhysAddr::new(0x1000), Perms::RW).unwrap();
/// let t = pt.translate(VirtAddr::new(0x4010), Perms::R).unwrap();
/// assert_eq!(t.pa, PhysAddr::new(0x1010));
/// ```
pub struct PageTable {
    root: Node,
    mapped_pages: u64,
    node_count: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// An empty address space.
    pub fn new() -> Self {
        PageTable {
            root: Node::default(),
            mapped_pages: 0,
            node_count: 1,
        }
    }

    /// Number of 4 KiB pages currently mapped.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Number of table nodes allocated (root included); a memory-overhead
    /// metric for the E5 experiment.
    pub fn node_count(&self) -> u64 {
        self.node_count
    }

    fn indices(va: VirtAddr) -> [u16; LEVELS] {
        let page = va.page_number();
        let mut idx = [0u16; LEVELS];
        for (i, slot) in idx.iter_mut().enumerate() {
            let shift = BITS_PER_LEVEL * (LEVELS - 1 - i) as u64;
            *slot = ((page >> shift) & (ENTRIES as u64 - 1)) as u16;
        }
        idx
    }

    fn check_range(va: VirtAddr) -> bool {
        va.as_u64() < (1u64 << VA_BITS)
    }

    /// Maps the page containing `va` to the frame containing `pa`.
    ///
    /// Both addresses must be page-aligned. Fails if the page is already
    /// mapped: the paper's grant protocol never silently replaces a mapping.
    pub fn map(&mut self, va: VirtAddr, pa: PhysAddr, perms: Perms) -> Result<(), MapError> {
        if !va.is_page_aligned() || !pa.is_page_aligned() {
            return Err(MapError::Unaligned { va });
        }
        if !Self::check_range(va) {
            return Err(MapError::OutOfRange { va });
        }
        let idx = Self::indices(va);
        let mut node = &mut self.root;
        for &i in &idx[..LEVELS - 1] {
            let created = !node.children.contains_key(&i);
            if created {
                self.node_count += 1;
            }
            let child = node
                .children
                .entry(i)
                .or_insert_with(|| NodeRef::Interior(Box::default()));
            node = match child {
                NodeRef::Interior(n) => n,
                NodeRef::Leaf(_) => unreachable!("leaf at interior level"),
            };
        }
        let last = idx[LEVELS - 1];
        if node.children.contains_key(&last) {
            return Err(MapError::AlreadyMapped { va });
        }
        node.children.insert(
            last,
            NodeRef::Leaf(Leaf {
                frame: pa.page_number(),
                perms,
            }),
        );
        self.mapped_pages += 1;
        Ok(())
    }

    /// Removes the mapping for the page containing `va`.
    ///
    /// Returns the physical frame base that was mapped there.
    pub fn unmap(&mut self, va: VirtAddr) -> Result<PhysAddr, TranslateError> {
        if !Self::check_range(va) {
            return Err(TranslateError::OutOfRange { va });
        }
        let idx = Self::indices(va);
        let mut node = &mut self.root;
        for &i in &idx[..LEVELS - 1] {
            node = match node.children.get_mut(&i) {
                Some(NodeRef::Interior(n)) => n,
                _ => return Err(TranslateError::NotMapped { va: va.page_base() }),
            };
        }
        match node.children.remove(&idx[LEVELS - 1]) {
            Some(NodeRef::Leaf(leaf)) => {
                self.mapped_pages -= 1;
                Ok(PhysAddr::new(leaf.frame << PAGE_SHIFT))
            }
            Some(other) => {
                // Put it back; this cannot happen with the current invariants.
                node.children.insert(idx[LEVELS - 1], other);
                Err(TranslateError::NotMapped { va: va.page_base() })
            }
            None => Err(TranslateError::NotMapped { va: va.page_base() }),
        }
    }

    /// Translates `va` for an access requiring `needed` permissions.
    pub fn translate(&self, va: VirtAddr, needed: Perms) -> Result<Translation, TranslateError> {
        if !Self::check_range(va) {
            return Err(TranslateError::OutOfRange { va });
        }
        let idx = Self::indices(va);
        let mut node = &self.root;
        let mut accesses = 0u32;
        for &i in &idx[..LEVELS - 1] {
            accesses += 1;
            node = match node.children.get(&i) {
                Some(NodeRef::Interior(n)) => n,
                _ => return Err(TranslateError::NotMapped { va: va.page_base() }),
            };
        }
        accesses += 1;
        match node.children.get(&idx[LEVELS - 1]) {
            Some(NodeRef::Leaf(leaf)) => {
                if !leaf.perms.allows(needed) {
                    return Err(TranslateError::PermissionDenied {
                        va,
                        have: leaf.perms,
                        needed,
                    });
                }
                Ok(Translation {
                    pa: PhysAddr::new((leaf.frame << PAGE_SHIFT) | va.page_offset()),
                    perms: leaf.perms,
                    walk_accesses: accesses,
                })
            }
            _ => Err(TranslateError::NotMapped { va: va.page_base() }),
        }
    }

    /// Changes the permissions of an existing mapping.
    pub fn protect(&mut self, va: VirtAddr, perms: Perms) -> Result<(), TranslateError> {
        if !Self::check_range(va) {
            return Err(TranslateError::OutOfRange { va });
        }
        let idx = Self::indices(va);
        let mut node = &mut self.root;
        for &i in &idx[..LEVELS - 1] {
            node = match node.children.get_mut(&i) {
                Some(NodeRef::Interior(n)) => n,
                _ => return Err(TranslateError::NotMapped { va: va.page_base() }),
            };
        }
        match node.children.get_mut(&idx[LEVELS - 1]) {
            Some(NodeRef::Leaf(leaf)) => {
                leaf.perms = perms;
                Ok(())
            }
            _ => Err(TranslateError::NotMapped { va: va.page_base() }),
        }
    }

    /// Iterates all mappings as `(va_page_base, pa_page_base, perms)`.
    pub fn iter(&self) -> Vec<(VirtAddr, PhysAddr, Perms)> {
        let mut out = Vec::with_capacity(self.mapped_pages as usize);
        fn walk(node: &Node, prefix: u64, out: &mut Vec<(VirtAddr, PhysAddr, Perms)>) {
            for (&i, child) in &node.children {
                let page = (prefix << BITS_PER_LEVEL) | i as u64;
                match child {
                    NodeRef::Interior(n) => walk(n, page, out),
                    NodeRef::Leaf(leaf) => out.push((
                        VirtAddr::new(page << PAGE_SHIFT),
                        PhysAddr::new(leaf.frame << PAGE_SHIFT),
                        leaf.perms,
                    )),
                }
            }
        }
        walk(&self.root, 0, &mut out);
        out.sort_by_key(|(va, _, _)| va.as_u64());
        out
    }
}

impl lastcpu_snap::Snapshot for PageTable {
    /// Serializes the sorted leaf mappings plus the node counter. The
    /// counter is explicit because it is *history*, not structure: unmap
    /// leaves interior nodes in place, so the same mapping set can have
    /// different node counts depending on how it was reached.
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.node_count);
        let maps = self.iter();
        w.put_len(maps.len());
        for (va, pa, perms) in maps {
            w.put_u64(va.as_u64());
            w.put_u64(pa.as_u64());
            w.put_u8(perms.to_bits());
        }
    }
}

impl lastcpu_snap::Restore for PageTable {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        let node_count = r.u64()?;
        *self = PageTable::new();
        let n = r.len()?;
        for _ in 0..n {
            let va = VirtAddr::new(r.u64()?);
            let pa = PhysAddr::new(r.u64()?);
            let perms = Perms::from_bits(r.u8()?);
            self.map(va, pa, perms)
                .map_err(|e| lastcpu_snap::SnapError::Corrupt {
                    section: "pagetable".into(),
                    detail: format!("replaying mapping {va}: {e}"),
                })?;
        }
        self.node_count = node_count;
        Ok(())
    }
}

impl fmt::Debug for PageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PageTable(pages={}, nodes={})",
            self.mapped_pages, self.node_count
        )
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Random map/unmap/protect sequences agree with a model HashMap.
    #[derive(Debug, Clone)]
    enum Op {
        Map(u64, u64, u8),
        Unmap(u64),
        Translate(u64),
        Protect(u64, u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..64, 0u64..64, 1u8..8).prop_map(|(v, p, perms)| Op::Map(v, p, perms)),
            (0u64..64).prop_map(Op::Unmap),
            (0u64..64).prop_map(Op::Translate),
            (0u64..64, 1u8..8).prop_map(|(v, perms)| Op::Protect(v, perms)),
        ]
    }

    fn perms_from(bits: u8) -> Perms {
        let mut p = Perms::NONE;
        if bits & 1 != 0 {
            p = p.union(Perms::R);
        }
        if bits & 2 != 0 {
            p = p.union(Perms::W);
        }
        if bits & 4 != 0 {
            p = p.union(Perms::X);
        }
        p
    }

    proptest! {
        #[test]
        fn prop_pagetable_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            let mut pt = PageTable::new();
            let mut model: HashMap<u64, (u64, Perms)> = HashMap::new();
            for op in ops {
                match op {
                    Op::Map(vp, pp, bits) => {
                        let va = VirtAddr::new(vp << PAGE_SHIFT);
                        let pa = PhysAddr::new(pp << PAGE_SHIFT);
                        let perms = perms_from(bits);
                        let r = pt.map(va, pa, perms);
                        if let std::collections::hash_map::Entry::Vacant(e) = model.entry(vp) {
                            prop_assert!(r.is_ok());
                            e.insert((pp, perms));
                        } else {
                            prop_assert!(r.is_err(), "double map must fail");
                        }
                    }
                    Op::Unmap(vp) => {
                        let va = VirtAddr::new(vp << PAGE_SHIFT);
                        let r = pt.unmap(va);
                        match model.remove(&vp) {
                            Some((pp, _)) => {
                                prop_assert_eq!(r.unwrap(), PhysAddr::new(pp << PAGE_SHIFT));
                            }
                            None => prop_assert!(r.is_err()),
                        }
                    }
                    Op::Translate(vp) => {
                        let va = VirtAddr::new((vp << PAGE_SHIFT) | 0x123);
                        let r = pt.translate(va, Perms::NONE);
                        match model.get(&vp) {
                            Some((pp, _)) => {
                                let t = r.unwrap();
                                prop_assert_eq!(t.pa.as_u64(), (pp << PAGE_SHIFT) | 0x123);
                            }
                            None => prop_assert!(r.is_err()),
                        }
                    }
                    Op::Protect(vp, bits) => {
                        let va = VirtAddr::new(vp << PAGE_SHIFT);
                        let r = pt.protect(va, perms_from(bits));
                        match model.get_mut(&vp) {
                            Some(entry) => {
                                prop_assert!(r.is_ok());
                                entry.1 = perms_from(bits);
                            }
                            None => prop_assert!(r.is_err()),
                        }
                    }
                }
                prop_assert_eq!(pt.mapped_pages(), model.len() as u64);
            }
            // Final sweep: every model entry translates with its perms.
            for (vp, (pp, perms)) in &model {
                let t = pt.translate(VirtAddr::new(vp << PAGE_SHIFT), Perms::NONE).unwrap();
                prop_assert_eq!(t.pa.page_number(), *pp);
                prop_assert_eq!(t.perms, *perms);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_round_trip() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x7000), PhysAddr::new(0x3000), Perms::RW)
            .unwrap();
        let t = pt.translate(VirtAddr::new(0x7123), Perms::RW).unwrap();
        assert_eq!(t.pa, PhysAddr::new(0x3123));
        assert_eq!(t.walk_accesses, LEVELS as u32);
    }

    #[test]
    fn unmapped_page_faults() {
        let pt = PageTable::new();
        assert_eq!(
            pt.translate(VirtAddr::new(0x5000), Perms::R),
            Err(TranslateError::NotMapped {
                va: VirtAddr::new(0x5000)
            })
        );
    }

    #[test]
    fn permissions_enforced() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x1000), PhysAddr::new(0x2000), Perms::R)
            .unwrap();
        assert!(pt.translate(VirtAddr::new(0x1000), Perms::R).is_ok());
        match pt.translate(VirtAddr::new(0x1000), Perms::W) {
            Err(TranslateError::PermissionDenied { have, needed, .. }) => {
                assert_eq!(have, Perms::R);
                assert_eq!(needed, Perms::W);
            }
            other => panic!("expected permission fault, got {other:?}"),
        }
    }

    #[test]
    fn double_map_rejected() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x1000), PhysAddr::new(0x2000), Perms::R)
            .unwrap();
        assert_eq!(
            pt.map(VirtAddr::new(0x1000), PhysAddr::new(0x9000), Perms::R),
            Err(MapError::AlreadyMapped {
                va: VirtAddr::new(0x1000)
            })
        );
    }

    #[test]
    fn unaligned_map_rejected() {
        let mut pt = PageTable::new();
        assert_eq!(
            pt.map(VirtAddr::new(0x1001), PhysAddr::new(0x2000), Perms::R),
            Err(MapError::Unaligned {
                va: VirtAddr::new(0x1001)
            })
        );
        assert_eq!(
            pt.map(VirtAddr::new(0x1000), PhysAddr::new(0x2001), Perms::R),
            Err(MapError::Unaligned {
                va: VirtAddr::new(0x1000)
            })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut pt = PageTable::new();
        let big = VirtAddr::new(1u64 << VA_BITS);
        assert_eq!(
            pt.map(big, PhysAddr::new(0), Perms::R),
            Err(MapError::OutOfRange { va: big })
        );
        assert_eq!(
            pt.translate(big, Perms::R),
            Err(TranslateError::OutOfRange { va: big })
        );
    }

    #[test]
    fn unmap_returns_frame_and_faults_after() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x1000), PhysAddr::new(0x8000), Perms::RW)
            .unwrap();
        assert_eq!(
            pt.unmap(VirtAddr::new(0x1fff)).unwrap(),
            PhysAddr::new(0x8000)
        );
        assert!(pt.translate(VirtAddr::new(0x1000), Perms::R).is_err());
        assert!(pt.unmap(VirtAddr::new(0x1000)).is_err());
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn protect_changes_perms() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x1000), PhysAddr::new(0x2000), Perms::RW)
            .unwrap();
        pt.protect(VirtAddr::new(0x1000), Perms::R).unwrap();
        assert!(pt.translate(VirtAddr::new(0x1000), Perms::W).is_err());
        assert!(pt.protect(VirtAddr::new(0x9000), Perms::R).is_err());
    }

    #[test]
    fn distant_addresses_use_separate_subtrees() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x1000), PhysAddr::new(0x1000), Perms::R)
            .unwrap();
        let nodes_one = pt.node_count();
        pt.map(VirtAddr::new(1u64 << 40), PhysAddr::new(0x2000), Perms::R)
            .unwrap();
        assert!(pt.node_count() > nodes_one);
        assert_eq!(pt.mapped_pages(), 2);
    }

    #[test]
    fn iter_lists_all_mappings_sorted() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x3000), PhysAddr::new(0x30000), Perms::R)
            .unwrap();
        pt.map(VirtAddr::new(0x1000), PhysAddr::new(0x10000), Perms::RW)
            .unwrap();
        let all = pt.iter();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, VirtAddr::new(0x1000));
        assert_eq!(all[1].0, VirtAddr::new(0x3000));
        assert_eq!(all[0].2, Perms::RW);
    }

    #[test]
    fn perms_algebra() {
        assert!(Perms::RW.allows(Perms::R));
        assert!(Perms::RW.allows(Perms::W));
        assert!(!Perms::R.allows(Perms::W));
        assert!(Perms::R.union(Perms::W) == Perms::RW);
        assert!(Perms::RWX.allows(Perms::X));
        assert_eq!(format!("{}", Perms::RW), "rw-");
        assert_eq!(format!("{}", Perms::RWX), "rwx");
        assert_eq!(format!("{}", Perms::NONE), "---");
    }
}
