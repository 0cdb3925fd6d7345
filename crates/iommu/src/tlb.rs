//! The IOTLB: a small LRU cache of recent translations.
//!
//! Real IOMMUs cache translations per (PASID, page) to avoid a four-access
//! table walk on every DMA. Capacity and hit rates are central to the E5
//! experiment: the paper's viability argument assumes translation overhead
//! is tolerable, which holds only while working sets fit the IOTLB.

use lastcpu_mem::{Pasid, Perms, PhysAddr, VirtAddr};
use lastcpu_sim::DetHashMap;

/// Hit/miss accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that found a valid entry with sufficient permissions.
    pub hits: u64,
    /// Lookups that found no entry and had to walk the page table.
    pub misses: u64,
    /// Lookups that found an entry whose cached permissions were
    /// insufficient for the access; the caller still walks, so these are
    /// misses for cost purposes (they used to be miscounted as hits,
    /// inflating `hit_rate()` in E5).
    pub perm_misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Entries removed by explicit invalidation.
    pub invalidations: u64,
}

impl TlbStats {
    /// Hit fraction in `[0, 1]`; zero when no lookups happened.
    ///
    /// Permission-insufficient cached entries count toward the denominator
    /// like ordinary misses: the caller pays for a full walk either way.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.perm_misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cached translation.
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    frame_pa: PhysAddr,
    perms: Perms,
    /// Logical timestamp of last use, for LRU.
    last_used: u64,
}

/// The one-entry front cache: the most recently hit translation, kept
/// outside the hash map so the streaming-DMA pattern (many touches to the
/// same page back to back) resolves with two integer compares instead of a
/// hash + probe per access.
#[derive(Debug, Clone, Copy)]
struct FrontEntry {
    pasid: Pasid,
    page: u64,
    frame_pa: PhysAddr,
    perms: Perms,
    /// Tick of the latest front hit. Folded into the backing entry's
    /// `last_used` before any eviction decision (see `sync_front`), so LRU
    /// order is exactly what it would be without the front cache.
    last_used: u64,
}

/// A set-less (fully associative) LRU IOTLB keyed by `(pasid, page)`.
///
/// Fully associative is a simplification, but capacity — not associativity —
/// dominates the hit-rate shapes the experiments care about.
///
/// A one-entry front cache short-circuits repeated lookups of the same
/// page. It is strictly a performance overlay: hit/miss accounting and LRU
/// eviction order are bit-identical to the plain hash-map implementation
/// (front hits record their tick and the backing entry is synced before
/// every eviction decision), and the front entry is dropped on any
/// invalidation or eviction that touches it — a stale translation is never
/// served after unmap.
pub struct Iotlb {
    entries: DetHashMap<(Pasid, u64), TlbEntry>,
    capacity: usize,
    tick: u64,
    stats: TlbStats,
    front: Option<FrontEntry>,
}

impl Iotlb {
    /// Creates a TLB holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Iotlb capacity must be positive");
        Iotlb {
            entries: DetHashMap::with_capacity_and_hasher(capacity, Default::default()),
            capacity,
            tick: 0,
            stats: TlbStats::default(),
            front: None,
        }
    }

    /// Folds the front cache's last-hit tick into the backing entry so an
    /// eviction decision sees the same `last_used` it would have seen
    /// without the front cache.
    fn sync_front(&mut self) {
        if let Some(f) = self.front {
            if let Some(e) = self.entries.get_mut(&(f.pasid, f.page)) {
                e.last_used = e.last_used.max(f.last_used);
            }
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Looks up the translation for the page containing `va`, for an access
    /// needing `needed` permissions.
    ///
    /// On a hit returns the physical *page base* and the page permissions;
    /// the caller re-applies the page offset. A cached entry whose
    /// permissions do not cover `needed` is **not** a hit: the caller must
    /// fall back to a full walk (for a precise fault), so it is counted in
    /// `perm_misses` and `None` is returned. Such an entry also keeps its
    /// LRU position — serving a walk is not a "use" of the cached entry.
    pub fn lookup(
        &mut self,
        pasid: Pasid,
        va: VirtAddr,
        needed: Perms,
    ) -> Option<(PhysAddr, Perms)> {
        self.tick += 1;
        let page = va.page_number();
        // Front cache: same page as the previous hit resolves without
        // touching the hash map. (A front entry whose perms are
        // insufficient falls through to the main path so `perm_misses`
        // accounting is unchanged.)
        if let Some(f) = self.front.as_mut() {
            if f.pasid == pasid && f.page == page && f.perms.allows(needed) {
                f.last_used = self.tick;
                self.stats.hits += 1;
                return Some((f.frame_pa, f.perms));
            }
        }
        let key = (pasid, page);
        match self.entries.get_mut(&key) {
            Some(e) if e.perms.allows(needed) => {
                e.last_used = self.tick;
                self.stats.hits += 1;
                self.front = Some(FrontEntry {
                    pasid,
                    page,
                    frame_pa: e.frame_pa,
                    perms: e.perms,
                    last_used: self.tick,
                });
                Some((e.frame_pa, e.perms))
            }
            Some(_) => {
                self.stats.perm_misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a translation for the page containing `va`, evicting the LRU
    /// entry when full.
    pub fn insert(&mut self, pasid: Pasid, va: VirtAddr, frame_pa: PhysAddr, perms: Perms) {
        self.tick += 1;
        let key = (pasid, va.page_number());
        // The inserted page may change this translation: drop a matching
        // front entry rather than serve the old frame/permissions.
        if self.front.is_some_and(|f| (f.pasid, f.page) == key) {
            self.front = None;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.sync_front();
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
                if self.front.is_some_and(|f| (f.pasid, f.page) == victim) {
                    self.front = None;
                }
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(
            key,
            TlbEntry {
                frame_pa: frame_pa.page_base(),
                perms,
                last_used: self.tick,
            },
        );
    }

    /// Invalidates the entry for one page, if present. Returns whether an
    /// entry was removed.
    pub fn invalidate_page(&mut self, pasid: Pasid, va: VirtAddr) -> bool {
        let key = (pasid, va.page_number());
        if self.front.is_some_and(|f| (f.pasid, f.page) == key) {
            self.front = None;
        }
        let removed = self.entries.remove(&key).is_some();
        if removed {
            self.stats.invalidations += 1;
        }
        removed
    }

    /// Invalidates every entry belonging to `pasid`. Returns how many were
    /// removed.
    pub fn invalidate_pasid(&mut self, pasid: Pasid) -> usize {
        if self.front.is_some_and(|f| f.pasid == pasid) {
            self.front = None;
        }
        let before = self.entries.len();
        self.entries.retain(|(p, _), _| *p != pasid);
        let removed = before - self.entries.len();
        self.stats.invalidations += removed as u64;
        removed
    }

    /// Invalidates everything.
    pub fn invalidate_all(&mut self) {
        self.front = None;
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
    }
}

impl lastcpu_snap::Snapshot for Iotlb {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.capacity as u64);
        w.put_u64(self.tick);
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.misses);
        w.put_u64(self.stats.perm_misses);
        w.put_u64(self.stats.evictions);
        w.put_u64(self.stats.invalidations);
        let mut entries: Vec<_> = self.entries.iter().collect();
        entries.sort_by_key(|(&(pasid, page), _)| (pasid.0, page));
        w.put_len(entries.len());
        for (&(pasid, page), e) in entries {
            w.put_u32(pasid.0);
            w.put_u64(page);
            w.put_u64(e.frame_pa.as_u64());
            w.put_u8(e.perms.to_bits());
            w.put_u64(e.last_used);
        }
        w.put_opt(self.front.as_ref(), |w, f| {
            w.put_u32(f.pasid.0);
            w.put_u64(f.page);
            w.put_u64(f.frame_pa.as_u64());
            w.put_u8(f.perms.to_bits());
            w.put_u64(f.last_used);
        });
    }
}

impl lastcpu_snap::Restore for Iotlb {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        let capacity = r.u64()? as usize;
        if capacity == 0 {
            return Err(r.corrupt("Iotlb capacity must be positive"));
        }
        let tick = r.u64()?;
        let stats = TlbStats {
            hits: r.u64()?,
            misses: r.u64()?,
            perm_misses: r.u64()?,
            evictions: r.u64()?,
            invalidations: r.u64()?,
        };
        let n = r.len()?;
        if n > capacity {
            return Err(r.corrupt("Iotlb entry count exceeds capacity"));
        }
        let mut entries = DetHashMap::with_capacity_and_hasher(capacity, Default::default());
        for _ in 0..n {
            let pasid = Pasid(r.u32()?);
            let page = r.u64()?;
            let entry = TlbEntry {
                frame_pa: PhysAddr::new(r.u64()?),
                perms: Perms::from_bits(r.u8()?),
                last_used: r.u64()?,
            };
            entries.insert((pasid, page), entry);
        }
        let front = r.opt(|r| {
            Ok(FrontEntry {
                pasid: Pasid(r.u32()?),
                page: r.u64()?,
                frame_pa: PhysAddr::new(r.u64()?),
                perms: Perms::from_bits(r.u8()?),
                last_used: r.u64()?,
            })
        })?;
        self.capacity = capacity;
        self.tick = tick;
        self.stats = stats;
        self.entries = entries;
        self.front = front;
        Ok(())
    }
}

impl std::fmt::Debug for Iotlb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Iotlb({}/{} entries, hit_rate={:.2})",
            self.entries.len(),
            self.capacity,
            self.stats.hit_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn va(page: u64) -> VirtAddr {
        VirtAddr::new(page << 12)
    }

    fn pa(page: u64) -> PhysAddr {
        PhysAddr::new(page << 12)
    }

    #[test]
    fn miss_then_hit() {
        let mut tlb = Iotlb::new(4);
        assert!(tlb.lookup(Pasid(1), va(5), Perms::R).is_none());
        tlb.insert(Pasid(1), va(5), pa(9), Perms::RW);
        let (p, perms) = tlb.lookup(Pasid(1), va(5), Perms::R).unwrap();
        assert_eq!(p, pa(9));
        assert_eq!(perms, Perms::RW);
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn pasids_are_isolated() {
        let mut tlb = Iotlb::new(4);
        tlb.insert(Pasid(1), va(5), pa(9), Perms::RW);
        assert!(tlb.lookup(Pasid(2), va(5), Perms::R).is_none());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut tlb = Iotlb::new(2);
        tlb.insert(Pasid(1), va(1), pa(1), Perms::R);
        tlb.insert(Pasid(1), va(2), pa(2), Perms::R);
        tlb.lookup(Pasid(1), va(1), Perms::R); // make page 1 recent
        tlb.insert(Pasid(1), va(3), pa(3), Perms::R); // evicts page 2
        assert!(tlb.lookup(Pasid(1), va(1), Perms::R).is_some());
        assert!(tlb.lookup(Pasid(1), va(2), Perms::R).is_none());
        assert!(tlb.lookup(Pasid(1), va(3), Perms::R).is_some());
        assert_eq!(tlb.stats().evictions, 1);
    }

    #[test]
    fn reinserting_same_page_does_not_evict() {
        let mut tlb = Iotlb::new(1);
        tlb.insert(Pasid(1), va(1), pa(1), Perms::R);
        tlb.insert(Pasid(1), va(1), pa(2), Perms::RW);
        assert_eq!(tlb.stats().evictions, 0);
        let (p, perms) = tlb.lookup(Pasid(1), va(1), Perms::R).unwrap();
        assert_eq!(p, pa(2));
        assert_eq!(perms, Perms::RW);
    }

    #[test]
    fn invalidate_page_and_pasid() {
        let mut tlb = Iotlb::new(8);
        tlb.insert(Pasid(1), va(1), pa(1), Perms::R);
        tlb.insert(Pasid(1), va(2), pa(2), Perms::R);
        tlb.insert(Pasid(2), va(1), pa(3), Perms::R);
        assert!(tlb.invalidate_page(Pasid(1), va(1)));
        assert!(!tlb.invalidate_page(Pasid(1), va(1)));
        assert_eq!(tlb.invalidate_pasid(Pasid(1)), 1);
        assert_eq!(tlb.len(), 1);
        tlb.invalidate_all();
        assert!(tlb.is_empty());
        assert_eq!(tlb.stats().invalidations, 3);
    }

    #[test]
    fn hit_rate_computation() {
        let mut tlb = Iotlb::new(4);
        tlb.insert(Pasid(1), va(1), pa(1), Perms::R);
        tlb.lookup(Pasid(1), va(1), Perms::R);
        tlb.lookup(Pasid(1), va(2), Perms::R);
        assert!((tlb.stats().hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(TlbStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn insufficient_permissions_count_as_perm_miss_not_hit() {
        // Regression: a cached read-only entry probed for a write used to
        // count as a *hit* even though the caller must fall back to a full
        // walk, inflating hit_rate().
        let mut tlb = Iotlb::new(4);
        tlb.insert(Pasid(1), va(1), pa(1), Perms::R);
        assert!(tlb.lookup(Pasid(1), va(1), Perms::W).is_none());
        let s = tlb.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 0);
        assert_eq!(s.perm_misses, 1);
        assert_eq!(s.hit_rate(), 0.0, "perm miss must depress the hit rate");
        // A permitted probe of the same entry is still a hit.
        assert!(tlb.lookup(Pasid(1), va(1), Perms::R).is_some());
        let s = tlb.stats();
        assert_eq!(s.hits, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        Iotlb::new(0);
    }

    #[test]
    fn front_cache_repeated_hits_are_counted_like_plain_hits() {
        let mut tlb = Iotlb::new(4);
        tlb.insert(Pasid(1), va(7), pa(3), Perms::RW);
        for _ in 0..10 {
            let (p, perms) = tlb.lookup(Pasid(1), va(7), Perms::R).unwrap();
            assert_eq!(p, pa(3));
            assert_eq!(perms, Perms::RW);
        }
        let s = tlb.stats();
        assert_eq!(s.hits, 10);
        assert_eq!(s.misses, 0);
        assert_eq!(s.perm_misses, 0);
    }

    #[test]
    fn front_cache_never_serves_stale_translation() {
        // After any event that removes or changes a translation, the front
        // cache must not short-circuit with the old mapping.
        let mut tlb = Iotlb::new(4);
        tlb.insert(Pasid(1), va(1), pa(1), Perms::RW);
        tlb.lookup(Pasid(1), va(1), Perms::R); // populate front
        assert!(tlb.invalidate_page(Pasid(1), va(1)));
        assert!(tlb.lookup(Pasid(1), va(1), Perms::R).is_none());

        tlb.insert(Pasid(2), va(2), pa(2), Perms::RW);
        tlb.lookup(Pasid(2), va(2), Perms::R);
        tlb.invalidate_pasid(Pasid(2));
        assert!(tlb.lookup(Pasid(2), va(2), Perms::R).is_none());

        tlb.insert(Pasid(3), va(3), pa(3), Perms::RW);
        tlb.lookup(Pasid(3), va(3), Perms::R);
        tlb.invalidate_all();
        assert!(tlb.lookup(Pasid(3), va(3), Perms::R).is_none());

        // Re-insert with a different frame: the front entry for the old
        // frame must not win.
        tlb.insert(Pasid(4), va(4), pa(4), Perms::RW);
        tlb.lookup(Pasid(4), va(4), Perms::R);
        tlb.insert(Pasid(4), va(4), pa(9), Perms::R);
        let (p, perms) = tlb.lookup(Pasid(4), va(4), Perms::R).unwrap();
        assert_eq!(p, pa(9));
        assert_eq!(perms, Perms::R);
    }

    #[test]
    fn front_cache_hits_keep_lru_order_exact() {
        // Repeated front-cache hits must still count as "uses" for LRU:
        // the backing entry is synced before the eviction decision.
        let mut tlb = Iotlb::new(2);
        tlb.insert(Pasid(1), va(1), pa(1), Perms::R);
        tlb.insert(Pasid(1), va(2), pa(2), Perms::R);
        // First lookup installs the front entry; the rest hit only the
        // front cache, so without sync the map would still think page 1
        // was last used long ago.
        for _ in 0..5 {
            tlb.lookup(Pasid(1), va(1), Perms::R);
        }
        tlb.insert(Pasid(1), va(3), pa(3), Perms::R); // must evict page 2
        assert!(tlb.lookup(Pasid(1), va(1), Perms::R).is_some());
        assert!(tlb.lookup(Pasid(1), va(2), Perms::R).is_none());
        assert!(tlb.lookup(Pasid(1), va(3), Perms::R).is_some());
    }

    #[test]
    fn evicting_the_front_entrys_page_clears_the_front() {
        let mut tlb = Iotlb::new(2);
        tlb.insert(Pasid(1), va(1), pa(1), Perms::R);
        tlb.lookup(Pasid(1), va(1), Perms::R); // front = page 1
        tlb.insert(Pasid(1), va(2), pa(2), Perms::R);
        // Page 1 (last used at the lookup) is older than page 2 (just
        // inserted), so this evicts page 1 — which is still the front
        // entry. The front must be dropped along with it.
        tlb.insert(Pasid(1), va(3), pa(3), Perms::R);
        assert_eq!(tlb.stats().evictions, 1);
        assert!(tlb.lookup(Pasid(1), va(1), Perms::R).is_none());
        assert!(tlb.lookup(Pasid(1), va(2), Perms::R).is_some());
        assert!(tlb.lookup(Pasid(1), va(3), Perms::R).is_some());
    }
}
