//! NAND flash chip model.
//!
//! Models the constraints that make flash management non-trivial and the
//! latencies that dominate the SSD's service times:
//!
//! - pages must be erased (block-granular) before they can be programmed;
//! - pages within a block must be programmed in order;
//! - erase wears a block out; worn-out blocks go bad and must be retired
//!   (also available as fault injection for the E4 experiment);
//! - read ≪ program ≪ erase latency.
//!
//! Each operation returns the virtual time it took; the caller (FTL → SSD
//! device) accumulates it into the handler's cost.

use std::fmt;

use lastcpu_sim::SimDuration;

/// Flash geometry and timing.
#[derive(Debug, Clone, Copy)]
pub struct NandConfig {
    /// Number of erase blocks.
    pub blocks: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Page size in bytes.
    pub page_size: u32,
    /// Page read latency.
    pub read_latency: SimDuration,
    /// Page program latency.
    pub program_latency: SimDuration,
    /// Block erase latency.
    pub erase_latency: SimDuration,
    /// Erase cycles before a block wears out (`u32::MAX` = never).
    pub max_erase_cycles: u32,
}

impl Default for NandConfig {
    fn default() -> Self {
        // TLC-ish NAND behind an SSD controller.
        NandConfig {
            blocks: 256,
            pages_per_block: 64,
            page_size: 4096,
            read_latency: SimDuration::from_micros(25),
            program_latency: SimDuration::from_micros(200),
            erase_latency: SimDuration::from_millis(2),
            max_erase_cycles: 3000,
        }
    }
}

/// Errors from flash operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashError {
    /// Block or page index out of range.
    OutOfRange,
    /// Program on a page that is not erased.
    NotErased,
    /// Pages within a block must be programmed sequentially.
    OutOfOrderProgram,
    /// The block is marked bad.
    BadBlock,
    /// Data length does not equal the page size.
    BadLength,
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlashError::OutOfRange => "address out of range",
            FlashError::NotErased => "program on non-erased page",
            FlashError::OutOfOrderProgram => "out-of-order program within block",
            FlashError::BadBlock => "block is bad",
            FlashError::BadLength => "data length != page size",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FlashError {}

#[derive(Debug, Clone, Default)]
struct BlockState {
    erase_count: u32,
    bad: bool,
    /// The block's programmed pages back to back. Pages within a block are
    /// programmed in order, so programming is appending: the next page that
    /// may be programmed is `slab.len() / page_size`, and a page holds data
    /// exactly when it is below that. Capacity for the whole block is
    /// reserved at the first program and kept across erases — the FTL erases
    /// only to refill — until an erase wears the block out.
    slab: Vec<u8>,
}

impl BlockState {
    /// Index of the next page that may be programmed (sequential rule).
    fn write_ptr(&self, config: &NandConfig) -> u32 {
        (self.slab.len() / config.page_size as usize) as u32
    }

    /// Programs the next page.
    fn push_page(&mut self, data: &[u8], config: &NandConfig) {
        if self.slab.capacity() == 0 {
            self.slab
                .reserve_exact(config.pages_per_block as usize * config.page_size as usize);
        }
        self.slab.extend_from_slice(data);
    }
}

/// Aggregate flash statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlashStats {
    /// Pages read.
    pub reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Blocks that have gone bad.
    pub bad_blocks: u32,
}

/// A NAND chip.
pub struct NandChip {
    config: NandConfig,
    blocks: Vec<BlockState>,
    stats: FlashStats,
}

impl NandChip {
    /// A chip with the given geometry, fully erased.
    pub fn new(config: NandConfig) -> Self {
        NandChip {
            blocks: vec![BlockState::default(); config.blocks as usize],
            config,
            stats: FlashStats::default(),
        }
    }

    /// The chip's geometry and timing.
    pub fn config(&self) -> &NandConfig {
        &self.config
    }

    /// Counters.
    pub fn stats(&self) -> FlashStats {
        self.stats
    }

    /// Total pages on the chip.
    pub fn total_pages(&self) -> u64 {
        self.config.blocks as u64 * self.config.pages_per_block as u64
    }

    fn in_range(&self, block: u32, page: u32) -> Result<(), FlashError> {
        if block >= self.config.blocks || page >= self.config.pages_per_block {
            return Err(FlashError::OutOfRange);
        }
        Ok(())
    }

    fn check(&self, block: u32, page: u32) -> Result<(), FlashError> {
        self.in_range(block, page)?;
        if self.blocks[block as usize].bad {
            return Err(FlashError::BadBlock);
        }
        Ok(())
    }

    /// Reads one page into `buf` (must be exactly one page long).
    ///
    /// Reads succeed even on *bad* blocks: wear-out kills erase/program,
    /// not (usually) reads — which is what lets an FTL relocate the live
    /// data off a block it is retiring.
    pub fn read_page(
        &mut self,
        block: u32,
        page: u32,
        buf: &mut [u8],
    ) -> Result<SimDuration, FlashError> {
        if buf.len() != self.config.page_size as usize {
            return Err(FlashError::BadLength);
        }
        self.read_page_part(block, page, 0, buf)
    }

    /// Reads `buf.len()` bytes starting `offset` bytes into one page,
    /// straight from the block's storage. The chip still senses the whole
    /// page: one read is counted and one page-read latency returned.
    pub fn read_page_part(
        &mut self,
        block: u32,
        page: u32,
        offset: u32,
        buf: &mut [u8],
    ) -> Result<SimDuration, FlashError> {
        self.in_range(block, page)?;
        let ps = self.config.page_size as usize;
        let start = offset as usize;
        if start > ps || buf.len() > ps - start {
            return Err(FlashError::BadLength);
        }
        let at = page as usize * ps + start;
        match self.blocks[block as usize].slab.get(at..at + buf.len()) {
            Some(data) => buf.copy_from_slice(data),
            None => buf.fill(0xFF), // erased pages read all-ones
        }
        self.stats.reads += 1;
        Ok(self.config.read_latency)
    }

    /// Programs one page (must be erased; must be the block's next page).
    pub fn program_page(
        &mut self,
        block: u32,
        page: u32,
        data: &[u8],
    ) -> Result<SimDuration, FlashError> {
        self.check(block, page)?;
        if data.len() != self.config.page_size as usize {
            return Err(FlashError::BadLength);
        }
        let st = &mut self.blocks[block as usize];
        let next = st.write_ptr(&self.config);
        if page < next {
            return Err(FlashError::NotErased);
        }
        if page > next {
            return Err(FlashError::OutOfOrderProgram);
        }
        st.push_page(data, &self.config);
        self.stats.programs += 1;
        Ok(self.config.program_latency)
    }

    /// Erases one block. Wears the block; a worn-out block goes bad.
    pub fn erase_block(&mut self, block: u32) -> Result<SimDuration, FlashError> {
        self.check(block, 0)?;
        let max = self.config.max_erase_cycles;
        let st = &mut self.blocks[block as usize];
        // An erased block is about to be programmed again (the FTL erases
        // only to refill): keep its storage. A worn-out one never will be.
        st.slab.clear();
        st.erase_count += 1;
        self.stats.erases += 1;
        if st.erase_count >= max {
            st.bad = true;
            st.slab = Vec::new();
            self.stats.bad_blocks += 1;
        }
        Ok(self.config.erase_latency)
    }

    /// Erase count of a block (wear metric).
    pub fn erase_count(&self, block: u32) -> u32 {
        self.blocks.get(block as usize).map_or(0, |b| b.erase_count)
    }

    /// Whether a block is bad.
    pub fn is_bad(&self, block: u32) -> bool {
        match self.blocks.get(block as usize) {
            Some(b) => b.bad,
            None => true,
        }
    }

    /// Fault injection: marks a block bad immediately.
    pub fn force_bad_block(&mut self, block: u32) {
        if let Some(b) = self.blocks.get_mut(block as usize) {
            if !b.bad {
                b.bad = true;
                self.stats.bad_blocks += 1;
            }
        }
    }
}

impl fmt::Debug for NandChip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NandChip(blocks={}, bad={}, programs={})",
            self.config.blocks, self.stats.bad_blocks, self.stats.programs
        )
    }
}

impl lastcpu_snap::Snapshot for NandChip {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u32(self.config.blocks);
        w.put_u32(self.config.pages_per_block);
        w.put_u32(self.config.page_size);
        w.put_u64(self.config.read_latency.as_nanos());
        w.put_u64(self.config.program_latency.as_nanos());
        w.put_u64(self.config.erase_latency.as_nanos());
        w.put_u32(self.config.max_erase_cycles);
        w.put_u64(self.stats.reads);
        w.put_u64(self.stats.programs);
        w.put_u64(self.stats.erases);
        w.put_u32(self.stats.bad_blocks);
        w.put_len(self.blocks.len());
        for b in &self.blocks {
            w.put_u32(b.erase_count);
            w.put_u32(b.write_ptr(&self.config));
            w.put_bool(b.bad);
        }
        // Programmed pages in (block, page) order: exactly the pages below
        // each block's write pointer.
        let ps = self.config.page_size as usize;
        w.put_len(self.blocks.iter().map(|b| b.slab.len() / ps).sum());
        for (blk, b) in self.blocks.iter().enumerate() {
            for (pg, body) in b.slab.chunks_exact(ps).enumerate() {
                w.put_u32(blk as u32);
                w.put_u32(pg as u32);
                w.put_bytes_rle(body);
            }
        }
    }
}

impl lastcpu_snap::Restore for NandChip {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.config.blocks = r.u32()?;
        self.config.pages_per_block = r.u32()?;
        self.config.page_size = r.u32()?;
        self.config.read_latency = SimDuration::from_nanos(r.u64()?);
        self.config.program_latency = SimDuration::from_nanos(r.u64()?);
        self.config.erase_latency = SimDuration::from_nanos(r.u64()?);
        self.config.max_erase_cycles = r.u32()?;
        self.stats.reads = r.u64()?;
        self.stats.programs = r.u64()?;
        self.stats.erases = r.u64()?;
        self.stats.bad_blocks = r.u32()?;
        let n = r.len()?;
        if n != self.config.blocks as usize {
            return Err(r.corrupt(format!(
                "block-state count {n} != configured blocks {}",
                self.config.blocks
            )));
        }
        self.blocks = Vec::with_capacity(n);
        let mut write_ptrs = Vec::with_capacity(n);
        for blk in 0..n {
            let erase_count = r.u32()?;
            let write_ptr = r.u32()?;
            if write_ptr > self.config.pages_per_block {
                return Err(r.corrupt(format!(
                    "block {blk} write pointer {write_ptr} > {} pages per block",
                    self.config.pages_per_block
                )));
            }
            write_ptrs.push(write_ptr);
            self.blocks.push(BlockState {
                erase_count,
                bad: r.bool()?,
                slab: Vec::new(),
            });
        }
        // Page records must be exactly the pages below each block's write
        // pointer, in the (block, page) order `snapshot` emits them.
        let n = r.len()?;
        let programmed: usize = write_ptrs.iter().map(|&p| p as usize).sum();
        if n != programmed {
            return Err(r.corrupt(format!(
                "{n} page records for {programmed} programmed pages"
            )));
        }
        for (blk, (st, write_ptr)) in self.blocks.iter_mut().zip(write_ptrs).enumerate() {
            for pg in 0..write_ptr {
                let at = (r.u32()?, r.u32()?);
                if at != (blk as u32, pg) {
                    return Err(r.corrupt(format!("page record {at:?} where ({blk},{pg}) belongs")));
                }
                let body = r.bytes_rle()?;
                if body.len() != self.config.page_size as usize {
                    return Err(r.corrupt(format!(
                        "page ({blk},{pg}) body is {} bytes, want {}",
                        body.len(),
                        self.config.page_size
                    )));
                }
                st.push_page(&body, &self.config);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NandChip {
        NandChip::new(NandConfig {
            blocks: 4,
            pages_per_block: 4,
            page_size: 16,
            max_erase_cycles: 3,
            ..NandConfig::default()
        })
    }

    #[test]
    fn erased_pages_read_ff() {
        let mut c = small();
        let mut buf = [0u8; 16];
        c.read_page(0, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn program_read_round_trip() {
        let mut c = small();
        let data = [7u8; 16];
        let t = c.program_page(1, 0, &data).unwrap();
        assert!(t > SimDuration::ZERO);
        let mut buf = [0u8; 16];
        c.read_page(1, 0, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn double_program_rejected() {
        let mut c = small();
        c.program_page(0, 0, &[1; 16]).unwrap();
        assert_eq!(c.program_page(0, 0, &[2; 16]), Err(FlashError::NotErased));
    }

    #[test]
    fn out_of_order_program_rejected() {
        let mut c = small();
        assert_eq!(
            c.program_page(0, 2, &[1; 16]),
            Err(FlashError::OutOfOrderProgram)
        );
        c.program_page(0, 0, &[1; 16]).unwrap();
        c.program_page(0, 1, &[1; 16]).unwrap();
    }

    #[test]
    fn erase_enables_reprogramming() {
        let mut c = small();
        c.program_page(0, 0, &[1; 16]).unwrap();
        c.erase_block(0).unwrap();
        let mut buf = [0u8; 16];
        c.read_page(0, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xFF));
        c.program_page(0, 0, &[2; 16]).unwrap();
    }

    #[test]
    fn wear_out_marks_bad() {
        let mut c = small(); // max 3 cycles
        c.erase_block(0).unwrap();
        c.erase_block(0).unwrap();
        assert!(!c.is_bad(0));
        c.erase_block(0).unwrap();
        assert!(c.is_bad(0));
        assert_eq!(c.erase_block(0), Err(FlashError::BadBlock));
        assert_eq!(c.stats().bad_blocks, 1);
    }

    #[test]
    fn forced_bad_block_rejects_writes_but_still_reads() {
        let mut c = small();
        c.program_page(2, 0, &[7; 16]).unwrap();
        c.force_bad_block(2);
        let mut buf = [0u8; 16];
        // Reads survive (so an FTL can evacuate the block)…
        c.read_page(2, 0, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 16]);
        // …but program and erase are refused.
        assert_eq!(c.program_page(2, 1, &[0; 16]), Err(FlashError::BadBlock));
        assert_eq!(c.erase_block(2), Err(FlashError::BadBlock));
        // Idempotent.
        c.force_bad_block(2);
        assert_eq!(c.stats().bad_blocks, 1);
    }

    #[test]
    fn bounds_checked() {
        let mut c = small();
        let mut buf = [0u8; 16];
        assert_eq!(c.read_page(9, 0, &mut buf), Err(FlashError::OutOfRange));
        assert_eq!(c.read_page(0, 9, &mut buf), Err(FlashError::OutOfRange));
        assert_eq!(c.program_page(0, 0, &[0; 5]), Err(FlashError::BadLength));
    }

    #[test]
    fn latencies_are_ordered() {
        let cfg = NandConfig::default();
        assert!(cfg.read_latency < cfg.program_latency);
        assert!(cfg.program_latency < cfg.erase_latency);
    }
}

/// The page store this chip had before per-block slabs — a map from
/// `(block, page)` to the page's bytes — kept as the differential model:
/// same operations, same results, same counters, same checkpoint bytes.
#[cfg(test)]
mod oracle {
    use super::*;
    use lastcpu_snap::{Restore, SnapReader, SnapWriter, Snapshot};
    use proptest::prelude::*;
    use std::collections::HashMap;

    struct MapChip {
        config: NandConfig,
        data: HashMap<(u32, u32), Vec<u8>>,
        /// `(erase_count, write_ptr, bad)` per block.
        blocks: Vec<(u32, u32, bool)>,
        stats: FlashStats,
    }

    impl MapChip {
        fn new(config: NandConfig) -> Self {
            MapChip {
                config,
                data: HashMap::new(),
                blocks: vec![(0, 0, false); config.blocks as usize],
                stats: FlashStats::default(),
            }
        }

        fn check(&self, block: u32, page: u32, writes: bool) -> Result<(), FlashError> {
            if block >= self.config.blocks || page >= self.config.pages_per_block {
                return Err(FlashError::OutOfRange);
            }
            if writes && self.blocks[block as usize].2 {
                return Err(FlashError::BadBlock);
            }
            Ok(())
        }

        fn read_page(
            &mut self,
            block: u32,
            page: u32,
            buf: &mut [u8],
        ) -> Result<SimDuration, FlashError> {
            self.check(block, page, false)?;
            if buf.len() != self.config.page_size as usize {
                return Err(FlashError::BadLength);
            }
            match self.data.get(&(block, page)) {
                Some(d) => buf.copy_from_slice(d),
                None => buf.fill(0xFF),
            }
            self.stats.reads += 1;
            Ok(self.config.read_latency)
        }

        fn program_page(
            &mut self,
            block: u32,
            page: u32,
            data: &[u8],
        ) -> Result<SimDuration, FlashError> {
            self.check(block, page, true)?;
            if data.len() != self.config.page_size as usize {
                return Err(FlashError::BadLength);
            }
            let st = &mut self.blocks[block as usize];
            if page < st.1 {
                return Err(FlashError::NotErased);
            }
            if page > st.1 {
                return Err(FlashError::OutOfOrderProgram);
            }
            st.1 += 1;
            self.data.insert((block, page), data.to_vec());
            self.stats.programs += 1;
            Ok(self.config.program_latency)
        }

        fn erase_block(&mut self, block: u32) -> Result<SimDuration, FlashError> {
            self.check(block, 0, true)?;
            for page in 0..self.config.pages_per_block {
                self.data.remove(&(block, page));
            }
            let st = &mut self.blocks[block as usize];
            st.1 = 0;
            st.0 += 1;
            self.stats.erases += 1;
            if st.0 >= self.config.max_erase_cycles {
                st.2 = true;
                self.stats.bad_blocks += 1;
            }
            Ok(self.config.erase_latency)
        }

        fn force_bad_block(&mut self, block: u32) {
            if let Some(b) = self.blocks.get_mut(block as usize) {
                if !b.2 {
                    b.2 = true;
                    self.stats.bad_blocks += 1;
                }
            }
        }

        /// The checkpoint encoding as it was: collect the keys, sort, look
        /// each page up.
        fn snapshot(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            w.put_u32(self.config.blocks);
            w.put_u32(self.config.pages_per_block);
            w.put_u32(self.config.page_size);
            w.put_u64(self.config.read_latency.as_nanos());
            w.put_u64(self.config.program_latency.as_nanos());
            w.put_u64(self.config.erase_latency.as_nanos());
            w.put_u32(self.config.max_erase_cycles);
            w.put_u64(self.stats.reads);
            w.put_u64(self.stats.programs);
            w.put_u64(self.stats.erases);
            w.put_u32(self.stats.bad_blocks);
            w.put_len(self.blocks.len());
            for &(erase_count, write_ptr, bad) in &self.blocks {
                w.put_u32(erase_count);
                w.put_u32(write_ptr);
                w.put_bool(bad);
            }
            let mut pages: Vec<_> = self.data.keys().copied().collect();
            pages.sort_unstable();
            w.put_len(pages.len());
            for (blk, pg) in pages {
                w.put_u32(blk);
                w.put_u32(pg);
                w.put_bytes_rle(&self.data[&(blk, pg)]);
            }
            w.into_bytes()
        }
    }

    const CONFIG: NandConfig = NandConfig {
        blocks: 4,
        pages_per_block: 4,
        page_size: 8,
        read_latency: SimDuration::from_micros(25),
        program_latency: SimDuration::from_micros(200),
        erase_latency: SimDuration::from_millis(2),
        max_erase_cycles: 3,
    };

    fn snapshot_of(chip: &NandChip) -> Vec<u8> {
        let mut w = SnapWriter::new();
        chip.snapshot(&mut w);
        w.into_bytes()
    }

    fn restore(bytes: &[u8]) -> lastcpu_snap::Result<NandChip> {
        let mut chip = NandChip::new(CONFIG);
        let mut r = SnapReader::new("nand", bytes);
        chip.restore(&mut r)?;
        r.finish()?;
        Ok(chip)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Random program / erase / read / kill sequences, some out of range
        /// and some out of order, with blocks wearing out after three
        /// erases: every result, buffer and counter matches the map, a page
        /// is stored exactly when it is below its block's write pointer, and
        /// the checkpoint bytes are the map's.
        #[test]
        fn prop_slab_chip_matches_map_chip(
            ops in proptest::collection::vec((0u8..8, 0u32..5, 0u32..5, any::<u8>(), 0u32..10), 1..200)
        ) {
            let mut chip = NandChip::new(CONFIG);
            let mut map = MapChip::new(CONFIG);
            let ps = CONFIG.page_size;
            for (kind, block, page, fill, at) in ops {
                let (mut got, mut want) = ([0u8; 8], [0u8; 8]);
                match kind {
                    // Mostly the page the block expects next, so blocks fill.
                    0..=2 => {
                        let next = map.blocks.get(block as usize).map_or(page, |b| b.1);
                        let data = [fill, block as u8, next as u8, 3, 4, 5, 6, fill];
                        prop_assert_eq!(
                            chip.program_page(block, next, &data),
                            map.program_page(block, next, &data)
                        );
                    }
                    3 => prop_assert_eq!(
                        chip.program_page(block, page, &[fill; 8]),
                        map.program_page(block, page, &[fill; 8])
                    ),
                    4 => prop_assert_eq!(chip.erase_block(block), map.erase_block(block)),
                    5 => {
                        prop_assert_eq!(
                            chip.read_page(block, page, &mut got),
                            map.read_page(block, page, &mut want)
                        );
                        prop_assert_eq!(got, want);
                    }
                    6 => {
                        // A sub-range of one page, sometimes past its end.
                        let len = (fill as u32 % (ps + 1)) as usize;
                        let fits = at <= ps && len as u32 <= ps - at;
                        let part = chip.read_page_part(block, page, at, &mut got[..len]);
                        if fits || map.check(block, page, false).is_err() {
                            prop_assert_eq!(part, map.read_page(block, page, &mut want));
                            if part.is_ok() {
                                prop_assert_eq!(&got[..len], &want[at as usize..at as usize + len]);
                            }
                        } else {
                            prop_assert_eq!(part, Err(FlashError::BadLength));
                        }
                    }
                    _ => {
                        chip.force_bad_block(block);
                        map.force_bad_block(block);
                        prop_assert_eq!(chip.is_bad(block), map.blocks.get(block as usize).is_none_or(|b| b.2));
                    }
                }
                let (a, b) = (chip.stats(), map.stats);
                prop_assert_eq!(
                    (a.reads, a.programs, a.erases, a.bad_blocks),
                    (b.reads, b.programs, b.erases, b.bad_blocks)
                );
            }
            for (b, st) in chip.blocks.iter().enumerate() {
                prop_assert_eq!(st.write_ptr(&CONFIG), map.blocks[b].1);
                for p in 0..CONFIG.pages_per_block {
                    let stored = map.data.contains_key(&(b as u32, p));
                    prop_assert_eq!(stored, p < st.write_ptr(&CONFIG));
                }
            }
            let bytes = snapshot_of(&chip);
            prop_assert_eq!(&bytes, &map.snapshot());
            prop_assert_eq!(snapshot_of(&restore(&bytes).unwrap()), bytes);
        }
    }

    fn corrupt_detail(bytes: &[u8]) -> String {
        match restore(bytes) {
            Err(lastcpu_snap::SnapError::Corrupt { detail, .. }) => detail,
            Err(other) => panic!("want Corrupt, got {other}"),
            Ok(_) => panic!("want Corrupt, got a chip"),
        }
    }

    /// Two pages programmed in block 1, one in block 2.
    fn written() -> MapChip {
        let mut m = MapChip::new(CONFIG);
        m.program_page(1, 0, &[1; 8]).unwrap();
        m.program_page(1, 1, &[2; 8]).unwrap();
        m.program_page(2, 0, &[3; 8]).unwrap();
        m
    }

    #[test]
    fn restore_rejects_page_records_that_do_not_fit_the_blocks() {
        assert!(restore(&written().snapshot()).is_ok());

        // A page in a block the chip does not have.
        let mut m = written();
        let page = m.data.remove(&(2, 0)).unwrap();
        m.data.insert((4, 0), page);
        assert!(corrupt_detail(&m.snapshot()).contains("page record (4, 0)"));

        // A page at or above its block's write pointer.
        let mut m = written();
        let page = m.data.remove(&(1, 1)).unwrap();
        m.data.insert((1, 2), page);
        assert!(corrupt_detail(&m.snapshot()).contains("page record (1, 2)"));

        // A page below the write pointer that is missing.
        let mut m = written();
        m.data.remove(&(1, 0));
        assert!(corrupt_detail(&m.snapshot()).contains("2 page records for 3"));

        // A body that is not one page long.
        let mut m = written();
        m.data.get_mut(&(1, 1)).unwrap().push(0);
        assert!(corrupt_detail(&m.snapshot()).contains("body is 9 bytes"));

        // A write pointer past the end of the block.
        let mut m = written();
        m.blocks[3].1 = 5;
        assert!(corrupt_detail(&m.snapshot()).contains("write pointer 5"));
    }
}
