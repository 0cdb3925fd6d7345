//! Page-mapping flash translation layer.
//!
//! Presents a linear logical-page address space over the NAND chip:
//! out-of-place writes, a logical→physical page map, and greedy garbage
//! collection. One block is permanently reserved as the *GC spare* — the
//! relocation destination — which is the classic way to guarantee GC can
//! always make progress; additionally two blocks' worth of pages are held
//! back as over-provisioning so a logically full device still has garbage
//! to collect. Write amplification and GC stalls are real here — they are
//! part of the SSD service-time distribution the isolation experiment
//! observes.

use std::fmt;

use lastcpu_sim::{costs, BackoffPolicy, SimDuration};

use crate::flash::{FlashError, NandChip};

/// Over-provisioning divisor: at least `total/16` pages are reserved.
const OP_DIVISOR: u64 = 16;

/// `rmap` entry of a physical page that holds no live logical page.
const NO_LPN: u32 = u32::MAX;

/// Errors from FTL operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlError {
    /// Logical page number beyond the exported capacity.
    OutOfRange,
    /// No space left (no free blocks and no garbage to collect).
    NoSpace,
    /// The underlying flash failed.
    Flash(FlashError),
}

impl From<FlashError> for FtlError {
    fn from(e: FlashError) -> Self {
        FtlError::Flash(e)
    }
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::OutOfRange => write!(f, "logical page out of range"),
            FtlError::NoSpace => write!(f, "flash out of space"),
            FtlError::Flash(e) => write!(f, "flash error: {e}"),
        }
    }
}

impl std::error::Error for FtlError {}

/// FTL statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct FtlStats {
    /// Host-issued page writes.
    pub host_writes: u64,
    /// NAND page programs (host + GC movement).
    pub nand_writes: u64,
    /// GC passes run.
    pub gc_runs: u64,
    /// Valid pages relocated by GC.
    pub gc_moved_pages: u64,
    /// Blocks retired after program failures.
    pub retired_blocks: u64,
    /// Writes abandoned after the bounded-backoff retry budget ran out.
    pub retry_exhausted: u64,
}

impl FtlStats {}

/// The page-mapping FTL.
pub struct Ftl {
    nand: NandChip,
    /// Logical page → physical (block, page).
    map: Vec<Option<(u32, u32)>>,
    /// Physical page → logical page, for GC: indexed
    /// `block * pages_per_block + page`, [`NO_LPN`] where nothing is live.
    rmap: Vec<u32>,
    /// Valid-page count per block.
    valid: Vec<u32>,
    /// Fully erased blocks ready for allocation.
    free_blocks: Vec<u32>,
    /// Block currently absorbing writes and its next page index.
    active: Option<(u32, u32)>,
    /// Erased block reserved as the GC relocation destination.
    spare: Option<u32>,
    logical_pages: u32,
    stats: FtlStats,
    /// Bounded retry policy for program failures; the backoff delay is
    /// charged to the triggering operation's cost.
    retry: BackoffPolicy,
}

impl Ftl {
    /// Builds an FTL over `nand`.
    ///
    /// Exported capacity is the physical capacity minus over-provisioning
    /// (`max(total/16, 2 blocks)`) minus the GC spare block.
    ///
    /// # Panics
    ///
    /// Panics if the chip has fewer than 4 blocks — too small to host the
    /// spare plus over-provisioning.
    pub fn new(nand: NandChip) -> Self {
        let blocks = nand.config().blocks;
        assert!(blocks >= 4, "FTL needs at least 4 blocks");
        let ppb = nand.config().pages_per_block as u64;
        let total = nand.total_pages();
        let reserved = (total / OP_DIVISOR).max(2 * ppb) + ppb; // OP + spare
        let logical = (total - reserved) as u32;
        let mut free_blocks: Vec<u32> = (0..blocks).rev().collect();
        let spare = free_blocks.pop();
        Ftl {
            map: vec![None; logical as usize],
            rmap: vec![NO_LPN; total as usize],
            valid: vec![0; blocks as usize],
            free_blocks,
            active: None,
            spare,
            logical_pages: logical,
            nand,
            stats: FtlStats::default(),
            // Media retries back off in units comparable to NAND program
            // time; jitter is pointless against deterministic media, so the
            // policy is used jitter-free here.
            retry: BackoffPolicy {
                base: costs::FTL_RETRY_BASE,
                cap: costs::FTL_RETRY_CAP,
                max_retries: 6,
                jitter_pct: 0,
            },
        }
    }

    /// Exported capacity in logical pages.
    pub fn logical_pages(&self) -> u32 {
        self.logical_pages
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.nand.config().page_size
    }

    /// Counters.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// The block currently absorbing writes (fault-injection target).
    #[cfg(test)]
    pub(crate) fn active_block(&self) -> Option<u32> {
        self.active.map(|(b, _)| b)
    }

    /// The underlying chip (wear inspection, fault injection).
    pub fn nand_mut(&mut self) -> &mut NandChip {
        &mut self.nand
    }

    /// Reads logical page `lpn` from its start into `buf`.
    ///
    /// Never-written pages read as zeroes (the FTL presents a zeroed disk,
    /// unlike raw NAND's 0xFF).
    pub fn read(&mut self, lpn: u32, buf: &mut [u8]) -> Result<SimDuration, FtlError> {
        self.read_part(lpn, 0, buf)
    }

    /// Reads `buf.len()` bytes starting `offset` bytes into logical page
    /// `lpn`, at the cost of one page read.
    pub fn read_part(
        &mut self,
        lpn: u32,
        offset: u32,
        buf: &mut [u8],
    ) -> Result<SimDuration, FtlError> {
        if lpn >= self.logical_pages {
            return Err(FtlError::OutOfRange);
        }
        match self.map[lpn as usize] {
            Some((b, p)) => Ok(self.nand.read_page_part(b, p, offset, buf)?),
            None => {
                buf.fill(0);
                Ok(SimDuration::ZERO) // satisfied from the mapping table
            }
        }
    }

    /// Writes one full page to logical page `lpn` (out-of-place).
    ///
    /// A program failure (the block went bad under us) retires the block:
    /// its live pages are relocated — reads still work on bad blocks — and
    /// the write retries on fresh media under the bounded
    /// [`BackoffPolicy`]; each retry's backoff delay is charged to the
    /// write's cost. When the budget runs out the write surfaces
    /// [`FtlError::NoSpace`] and bumps `retry_exhausted`.
    pub fn write(&mut self, lpn: u32, data: &[u8]) -> Result<SimDuration, FtlError> {
        if lpn >= self.logical_pages {
            return Err(FtlError::OutOfRange);
        }
        let mut cost = SimDuration::ZERO;
        let mut retry = 0u32;
        loop {
            let (b, p, gc_stall) = self.alloc_page()?;
            cost += gc_stall;
            match self.nand.program_page(b, p, data) {
                Ok(t) => {
                    cost += t;
                    self.stats.host_writes += 1;
                    self.stats.nand_writes += 1;
                    self.invalidate(lpn);
                    self.set_live(lpn, b, p);
                    return Ok(cost);
                }
                Err(FlashError::BadBlock) => {
                    cost += self.retire_block(b)?;
                    retry += 1;
                    match self.retry.delay(retry) {
                        Some(d) => cost += d,
                        None => {
                            self.stats.retry_exhausted += 1;
                            return Err(FtlError::NoSpace);
                        }
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Evacuates a block that failed a program: relocates its valid pages
    /// (reads still work) and drops it from circulation. Returns the time
    /// the evacuation took.
    fn retire_block(&mut self, block: u32) -> Result<SimDuration, FtlError> {
        self.stats.retired_blocks += 1;
        if self.active.map(|(b, _)| b) == Some(block) {
            self.active = None;
        }
        self.free_blocks.retain(|&b| b != block);
        if self.spare == Some(block) {
            self.spare = self.pop_free();
        }
        let page_size = self.nand.config().page_size as usize;
        let live = self.live_pages(block);
        let mut cost = SimDuration::ZERO;
        let mut buf = vec![0u8; page_size];
        for (p, lpn) in live {
            cost += self.nand.read_page(block, p, &mut buf)?;
            // Relocate through the normal allocation path; a second bad
            // block during relocation recurses with the same discipline.
            let (nb, np, stall) = self.alloc_page()?;
            cost += stall;
            match self.nand.program_page(nb, np, &buf) {
                Ok(t) => {
                    cost += t;
                    self.stats.nand_writes += 1;
                    self.clear_live(block, p);
                    self.set_live(lpn, nb, np);
                }
                Err(FlashError::BadBlock) => {
                    cost += self.retire_block(nb)?;
                    // Redo this page under the bounded backoff policy. The
                    // old code made a single unguarded direct retry whose
                    // raw `BadBlock` propagated as a hard error if *that*
                    // block failed too; now each retry retires the failed
                    // block, pays the backoff delay, and the relocation
                    // only gives up (with `retry_exhausted` accounted) once
                    // the policy's budget is spent.
                    let mut retry = 1u32;
                    loop {
                        match self.retry.delay(retry) {
                            Some(d) => cost += d,
                            None => {
                                self.stats.retry_exhausted += 1;
                                return Err(FtlError::NoSpace);
                            }
                        }
                        let (rb, rp, rstall) = self.alloc_page()?;
                        cost += rstall;
                        match self.nand.program_page(rb, rp, &buf) {
                            Ok(t) => {
                                cost += t;
                                self.stats.nand_writes += 1;
                                self.clear_live(block, p);
                                self.set_live(lpn, rb, rp);
                                break;
                            }
                            Err(FlashError::BadBlock) => {
                                cost += self.retire_block(rb)?;
                                retry += 1;
                            }
                            Err(e) => return Err(e.into()),
                        }
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(cost)
    }

    /// Discards logical page `lpn` (TRIM).
    pub fn trim(&mut self, lpn: u32) -> Result<(), FtlError> {
        if lpn >= self.logical_pages {
            return Err(FtlError::OutOfRange);
        }
        self.invalidate(lpn);
        self.map[lpn as usize] = None;
        Ok(())
    }

    fn invalidate(&mut self, lpn: u32) {
        if let Some((b, p)) = self.map[lpn as usize] {
            self.clear_live(b, p);
        }
    }

    fn rmap_index(&self, block: u32, page: u32) -> usize {
        block as usize * self.nand.config().pages_per_block as usize + page as usize
    }

    /// Records that physical page `(b, p)` now holds logical page `lpn`.
    fn set_live(&mut self, lpn: u32, b: u32, p: u32) {
        let i = self.rmap_index(b, p);
        self.map[lpn as usize] = Some((b, p));
        self.rmap[i] = lpn;
        self.valid[b as usize] += 1;
    }

    /// Records that physical page `(b, p)` no longer holds live data.
    fn clear_live(&mut self, b: u32, p: u32) {
        let i = self.rmap_index(b, p);
        self.rmap[i] = NO_LPN;
        self.valid[b as usize] -= 1;
    }

    /// `(page, lpn)` of every live page in `block`, in page order.
    fn live_pages(&self, block: u32) -> Vec<(u32, u32)> {
        let first = self.rmap_index(block, 0);
        let ppb = self.nand.config().pages_per_block as usize;
        (0u32..)
            .zip(&self.rmap[first..first + ppb])
            .filter(|&(_, &lpn)| lpn != NO_LPN)
            .map(|(p, &lpn)| (p, lpn))
            .collect()
    }

    /// Allocates the next physical page. The returned duration is the GC
    /// stall absorbed by this allocation.
    fn alloc_page(&mut self) -> Result<(u32, u32, SimDuration), FtlError> {
        let ppb = self.nand.config().pages_per_block;
        let mut stall = SimDuration::ZERO;
        loop {
            if let Some((b, p)) = self.active {
                if p < ppb {
                    self.active = Some((b, p + 1));
                    return Ok((b, p, stall));
                }
                self.active = None;
            }
            // Prefer an erased block from the pool.
            if let Some(b) = self.pop_free() {
                self.active = Some((b, 0));
                continue;
            }
            // Pool dry: collect garbage into the spare block.
            match self.gc()? {
                Some(t) => stall += t,
                None => return Err(FtlError::NoSpace),
            }
        }
    }

    fn pop_free(&mut self) -> Option<u32> {
        while let Some(b) = self.free_blocks.pop() {
            if !self.nand.is_bad(b) {
                return Some(b);
            }
        }
        None
    }

    /// One greedy GC pass: relocates the block with the fewest valid pages
    /// into the spare; the erased victim becomes the new spare; the (now
    /// partially filled) old spare becomes the active block.
    ///
    /// Returns `None` when no progress is possible: no spare, or the best
    /// victim has no garbage.
    fn gc(&mut self) -> Result<Option<SimDuration>, FtlError> {
        debug_assert!(self.active.is_none(), "gc only runs with no active block");
        let Some(spare) = self.spare else {
            return Ok(None);
        };
        let ppb = self.nand.config().pages_per_block;
        // Greedy victim: fewest valid pages among full, non-spare blocks.
        let victim = (0..self.nand.config().blocks)
            .filter(|&b| b != spare && !self.free_blocks.contains(&b) && !self.nand.is_bad(b))
            .min_by_key(|&b| self.valid[b as usize]);
        let Some(victim) = victim else {
            return Ok(None);
        };
        if self.valid[victim as usize] >= ppb {
            // The emptiest block is fully valid: there is no garbage
            // anywhere; relocating would burn an erase cycle for nothing.
            return Ok(None);
        }
        self.stats.gc_runs += 1;
        let mut moved = SimDuration::ZERO;
        let page_size = self.nand.config().page_size as usize;
        let live = self.live_pages(victim);
        let mut dst_page = 0u32;
        let mut buf = vec![0u8; page_size];
        for (p, lpn) in live {
            moved += self.nand.read_page(victim, p, &mut buf)?;
            moved += self.nand.program_page(spare, dst_page, &buf)?;
            self.stats.nand_writes += 1;
            self.stats.gc_moved_pages += 1;
            self.clear_live(victim, p);
            self.set_live(lpn, spare, dst_page);
            dst_page += 1;
        }
        moved += self.nand.erase_block(victim)?;
        // The old spare (partially filled) absorbs subsequent writes; the
        // erased victim is the new spare. A worn-out victim is retired and
        // a pool block is promoted to spare instead.
        self.active = if dst_page < ppb {
            Some((spare, dst_page))
        } else {
            None
        };
        if dst_page == ppb {
            // Spare came out full; it is just a regular full block now.
        }
        self.spare = if self.nand.is_bad(victim) {
            self.pop_free()
        } else {
            Some(victim)
        };
        Ok(Some(moved))
    }
}

impl fmt::Debug for Ftl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Ftl(logical_pages={}, free_blocks={}, nand_writes={}, host_writes={})",
            self.logical_pages,
            self.free_blocks.len(),
            self.stats.nand_writes,
            self.stats.host_writes
        )
    }
}

/// Write amplification factor (NAND writes per host write), which the
/// tests below bound.
#[cfg(test)]
impl FtlStats {
    fn waf(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            self.nand_writes as f64 / self.host_writes as f64
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::flash::{NandChip, NandConfig};
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Random write/trim/read sequences against a model map: contents
        /// always match, across arbitrary amounts of GC.
        #[test]
        fn prop_ftl_matches_model(ops in proptest::collection::vec((0u8..3, 0u32..40, any::<u8>()), 1..400)) {
            let mut ftl = Ftl::new(NandChip::new(NandConfig {
                blocks: 16,
                pages_per_block: 8,
                page_size: 16,
                max_erase_cycles: u32::MAX,
                ..NandConfig::default()
            }));
            let lp = ftl.logical_pages();
            let mut model: HashMap<u32, u8> = HashMap::new();
            for (kind, lpn_raw, fill) in ops {
                let lpn = lpn_raw % lp;
                match kind {
                    0 | 1 => {
                        ftl.write(lpn, &[fill; 16]).unwrap();
                        model.insert(lpn, fill);
                    }
                    _ => {
                        ftl.trim(lpn).unwrap();
                        model.remove(&lpn);
                    }
                }
            }
            let mut buf = [0u8; 16];
            for lpn in 0..lp {
                ftl.read(lpn, &mut buf).unwrap();
                let expect = model.get(&lpn).copied().unwrap_or(0);
                prop_assert!(buf.iter().all(|&b| b == expect), "lpn {lpn}: got {} want {expect}", buf[0]);
            }
            prop_assert!(ftl.stats().waf() >= 1.0 || ftl.stats().host_writes == 0);
        }
    }
}

#[cfg(test)]
mod retirement_tests {
    use super::*;
    use crate::flash::{NandChip, NandConfig};

    fn ftl() -> Ftl {
        Ftl::new(NandChip::new(NandConfig {
            blocks: 16,
            pages_per_block: 8,
            page_size: 32,
            max_erase_cycles: u32::MAX,
            ..NandConfig::default()
        }))
    }

    #[test]
    fn program_failure_retires_block_and_preserves_data() {
        let mut f = ftl();
        // Write some data; find the active block and kill it mid-use.
        for lpn in 0..4 {
            f.write(lpn, &[lpn as u8 + 1; 32]).unwrap();
        }
        let active_block = f.active.expect("active block in use").0;
        f.nand_mut().force_bad_block(active_block);
        // The next write hits the bad block, retires it, relocates, and
        // succeeds transparently.
        f.write(10, &[99; 32]).unwrap();
        assert!(f.stats().retired_blocks >= 1);
        // All earlier data survived the evacuation.
        let mut buf = [0u8; 32];
        for lpn in 0..4 {
            f.read(lpn, &mut buf).unwrap();
            assert_eq!(buf[0], lpn as u8 + 1, "lpn {lpn} lost in retirement");
        }
        f.read(10, &mut buf).unwrap();
        assert_eq!(buf[0], 99);
    }

    #[test]
    fn repeated_failures_eventually_surface_as_no_space() {
        let mut f = ftl();
        f.write(0, &[1; 32]).unwrap();
        // Kill every block.
        for b in 0..16 {
            f.nand_mut().force_bad_block(b);
        }
        assert!(f.write(1, &[2; 32]).is_err());
    }

    #[test]
    fn exhausted_retry_budget_surfaces_error_and_counts() {
        let mut f = ftl();
        // A zero-retry policy turns the first program failure into an
        // immediate, accounted give-up instead of a retry loop.
        f.retry.max_retries = 0;
        f.write(0, &[7; 32]).unwrap();
        let active_block = f.active.expect("active block in use").0;
        f.nand_mut().force_bad_block(active_block);
        assert_eq!(f.write(1, &[8; 32]), Err(FtlError::NoSpace));
        assert_eq!(f.stats().retry_exhausted, 1);
        // Earlier data still readable after the failed attempt.
        let mut buf = [0u8; 32];
        f.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
    }

    #[test]
    fn backoff_delay_is_charged_to_the_write_cost() {
        let mut f = ftl();
        f.write(0, &[1; 32]).unwrap();
        let clean_cost = f.write(1, &[1; 32]).unwrap();
        let active_block = f.active.expect("active block in use").0;
        f.nand_mut().force_bad_block(active_block);
        let retried_cost = f.write(2, &[2; 32]).unwrap();
        let base = f.retry.base;
        assert!(
            retried_cost >= clean_cost + base,
            "retried write ({retried_cost}) must absorb at least one backoff delay over a clean write ({clean_cost})"
        );
    }

    #[test]
    fn wear_driven_retirement_during_sustained_writes() {
        // Low endurance: blocks wear out during the run; the FTL keeps
        // going until the media is really exhausted.
        let mut f = Ftl::new(NandChip::new(NandConfig {
            blocks: 16,
            pages_per_block: 8,
            page_size: 32,
            max_erase_cycles: 20,
            ..NandConfig::default()
        }));
        let lp = f.logical_pages();
        let mut writes = 0u64;
        'outer: for round in 0..2000u32 {
            for lpn in 0..lp.min(8) {
                match f.write(lpn, &[round as u8; 32]) {
                    Ok(_) => writes += 1,
                    Err(FtlError::NoSpace) => break 'outer,
                    Err(e) => panic!("unexpected {e}"),
                }
            }
        }
        // The device survived far more writes than one block's endurance
        // and died with NoSpace, not corruption.
        assert!(writes > 500, "only {writes} writes before exhaustion");
    }
}

lastcpu_snap::record!(FtlStats {
    host_writes,
    nand_writes,
    gc_runs,
    gc_moved_pages,
    retired_blocks,
    retry_exhausted,
});

lastcpu_snap::fields! { Ftl |self| {
    mut nand, logical_pages, stats, retry, map, valid, free_blocks, active, spare, ..Rmap,
} }

/// The reverse map, derivable from `map` but serialized so a restore needs
/// no recomputation pass and verify covers it directly: its live entries
/// in (block, page) order, each `(block, page, logical page)`.
struct Rmap;

impl lastcpu_snap::Span<Ftl> for Rmap {
    fn put(&self, f: &Ftl, w: &mut lastcpu_snap::SnapWriter) {
        let ppb = f.nand.config().pages_per_block;
        w.put_len(f.rmap.iter().filter(|&&l| l != NO_LPN).count());
        for (i, &l) in (0u32..).zip(&f.rmap).filter(|&(_, &l)| l != NO_LPN) {
            lastcpu_snap::Field::put(&(i / ppb, i % ppb, l), w);
        }
    }

    fn take(&self, f: &mut Ftl, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        let config = *f.nand.config();
        f.rmap = vec![NO_LPN; f.nand.total_pages() as usize];
        for _ in 0..r.len()? {
            let (b, p, l): (u32, u32, u32) = lastcpu_snap::Field::take(r)?;
            if b >= config.blocks || p >= config.pages_per_block || l as usize >= f.map.len() {
                return Err(r.corrupt(format!("rmap entry ({b},{p}) -> {l} out of range")));
            }
            let i = f.rmap_index(b, p);
            f.rmap[i] = l;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flash::NandConfig;

    fn small_ftl() -> Ftl {
        Ftl::new(NandChip::new(NandConfig {
            blocks: 16,
            pages_per_block: 8,
            page_size: 32,
            max_erase_cycles: u32::MAX,
            ..NandConfig::default()
        }))
    }

    fn page(b: u8) -> Vec<u8> {
        vec![b; 32]
    }

    #[test]
    fn capacity_reserves_op_and_spare() {
        let f = small_ftl();
        // 128 total - max(128/16, 16) OP - 8 spare = 104.
        assert_eq!(f.logical_pages(), 104);
    }

    #[test]
    fn unwritten_pages_read_zero() {
        let mut f = small_ftl();
        let mut buf = [0xAAu8; 32];
        f.read(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_read_round_trip() {
        let mut f = small_ftl();
        f.write(5, &page(0x42)).unwrap();
        let mut buf = [0u8; 32];
        f.read(5, &mut buf).unwrap();
        assert_eq!(buf, [0x42u8; 32]);
    }

    #[test]
    fn overwrite_is_out_of_place_but_visible() {
        let mut f = small_ftl();
        f.write(5, &page(1)).unwrap();
        f.write(5, &page(2)).unwrap();
        let mut buf = [0u8; 32];
        f.read(5, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 32]);
        // Two NAND programs for one logical page.
        assert_eq!(f.stats().nand_writes, 2);
        assert_eq!(f.stats().host_writes, 2);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut f = small_ftl();
        let lp = f.logical_pages();
        let mut buf = [0u8; 32];
        assert_eq!(f.read(lp, &mut buf), Err(FtlError::OutOfRange));
        assert_eq!(f.write(lp, &page(0)), Err(FtlError::OutOfRange));
        assert_eq!(f.trim(lp), Err(FtlError::OutOfRange));
    }

    #[test]
    fn trim_reads_back_zero() {
        let mut f = small_ftl();
        f.write(3, &page(9)).unwrap();
        f.trim(3).unwrap();
        let mut buf = [0xAAu8; 32];
        f.read(3, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_preserve_data() {
        let mut f = small_ftl();
        let lp = f.logical_pages();
        let hot = lp / 2;
        for lpn in 0..hot {
            f.write(lpn, &page((lpn % 251) as u8)).unwrap();
        }
        // Hammer a hot subset to force GC many times.
        for round in 0..80u32 {
            for lpn in 0..8 {
                f.write(lpn, &page((round % 250) as u8 + 1)).unwrap();
            }
        }
        assert!(f.stats().gc_runs > 0, "GC should have run");
        assert!(f.stats().waf() >= 1.0);
        // Cold data survived all the relocation.
        let mut buf = [0u8; 32];
        for lpn in 8..hot {
            f.read(lpn, &mut buf).unwrap();
            assert_eq!(buf[0], (lpn % 251) as u8, "lpn {lpn} corrupted by GC");
        }
        // Hot data has the last round's value.
        for lpn in 0..8 {
            f.read(lpn, &mut buf).unwrap();
            assert_eq!(buf[0], 79 + 1);
        }
    }

    #[test]
    fn filling_entire_logical_space_succeeds() {
        let mut f = small_ftl();
        for lpn in 0..f.logical_pages() {
            f.write(lpn, &page((lpn % 255) as u8)).unwrap();
        }
        let mut buf = [0u8; 32];
        f.read(f.logical_pages() - 1, &mut buf).unwrap();
    }

    #[test]
    fn full_device_sustains_random_overwrites() {
        // The hardest case: logical space 100% allocated, then random
        // overwrites forever. The spare + OP must keep GC progressing.
        let mut f = small_ftl();
        let lp = f.logical_pages();
        for lpn in 0..lp {
            f.write(lpn, &page(0)).unwrap();
        }
        for i in 0..2000u32 {
            let lpn = (i * 37) % lp;
            f.write(lpn, &page((i % 255) as u8)).unwrap();
        }
        assert!(f.stats().gc_runs > 10);
        assert!(
            f.stats().waf() > 1.05,
            "random overwrites must amplify, waf={}",
            f.stats().waf()
        );
    }

    #[test]
    fn gc_cost_is_charged_to_the_triggering_write() {
        let mut f = small_ftl();
        for lpn in 0..f.logical_pages() {
            f.write(lpn, &page(1)).unwrap();
        }
        let erase = f.nand_mut().config().erase_latency;
        let mut saw_gc_cost = false;
        for round in 0..40 {
            for lpn in 0..4 {
                let cost = f.write(lpn, &page(round as u8)).unwrap();
                if cost >= erase {
                    saw_gc_cost = true;
                }
            }
        }
        assert!(saw_gc_cost, "some write should absorb a GC stall");
    }

    #[test]
    fn restore_rejects_a_reverse_map_entry_out_of_range() {
        use lastcpu_snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
        let mut f = small_ftl();
        f.write(5, &page(1)).unwrap();
        let mut w = SnapWriter::new();
        f.snapshot(&mut w);
        let good = w.into_bytes();
        // The checkpoint ends with the one reverse-map entry: block (0 is
        // the GC spare, so 1), page, logical page, four bytes each.
        let entry = good.len() - 12;
        assert_eq!(good[entry..], [1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0]);
        assert!(small_ftl()
            .restore(&mut SnapReader::new("ftl", &good))
            .is_ok());
        for (field, value) in [(0, 16u32), (4, 8), (8, 104), (8, u32::MAX)] {
            let mut bad = good.clone();
            bad[entry + field..entry + field + 4].copy_from_slice(&value.to_le_bytes());
            match small_ftl().restore(&mut SnapReader::new("ftl", &bad)) {
                Err(SnapError::Corrupt { detail, .. }) => {
                    assert!(detail.contains("out of range"), "{detail}")
                }
                other => panic!("field {field} = {value}: want Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn trim_everything_then_refill() {
        let mut f = small_ftl();
        for lpn in 0..f.logical_pages() {
            f.write(lpn, &page(1)).unwrap();
        }
        for lpn in 0..f.logical_pages() {
            f.trim(lpn).unwrap();
        }
        for lpn in 0..f.logical_pages() {
            f.write(lpn, &page(2)).unwrap();
        }
        let mut buf = [0u8; 32];
        f.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
    }
}
