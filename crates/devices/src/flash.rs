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

use lastcpu_sim::{costs, SimDuration};

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
        // TLC-ish NAND behind an SSD controller: the `nand.*` rows.
        NandConfig {
            blocks: 256,
            pages_per_block: 64,
            page_size: 4096,
            read_latency: costs::NAND_READ,
            program_latency: costs::NAND_PROGRAM,
            erase_latency: costs::NAND_ERASE,
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
    /// Pages programmed since the last erase: the next page that may be
    /// programmed (sequential rule), and a page holds data exactly when it
    /// is below this.
    written: u32,
    /// The stored bytes of the block's programmed pages, appended in program
    /// order; the chip's span table says which of them each page reads.
    /// Capacity for a whole block of full pages is reserved at the first
    /// program and kept across erases — the FTL erases only to refill —
    /// until an erase wears the block out, so appending never reallocates.
    slab: Vec<u8>,
}

/// Length of `data` without its trailing zero bytes, scanned a word at a
/// time from the end.
fn stored_len(data: &[u8]) -> usize {
    let mut words = data.rchunks_exact(8);
    let mut end = data.len();
    for word in &mut words {
        if u64::from_ne_bytes(word.try_into().expect("eight bytes")) != 0 {
            return end - word.iter().rev().take_while(|&&b| b == 0).count();
        }
        end -= 8;
    }
    words
        .remainder()
        .iter()
        .rposition(|&b| b != 0)
        .map_or(0, |i| i + 1)
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
///
/// A programmed page stores the bytes written, without its trailing zeros,
/// which a read supplies. When those bytes start with everything the
/// previous page of the same block stored, the page shares them and only
/// its new suffix is appended — a log's tail page rewritten out of place
/// costs what the append added, not a page.
pub struct NandChip {
    config: NandConfig,
    blocks: Vec<BlockState>,
    /// `(start, end)` in its block's slab of each programmed page's stored
    /// bytes, indexed `block * pages_per_block + page`; read only below the
    /// block's write pointer.
    spans: Vec<(u32, u32)>,
    stats: FlashStats,
}

impl NandChip {
    /// A chip with the given geometry, fully erased.
    pub fn new(config: NandConfig) -> Self {
        let pages = config.blocks as usize * config.pages_per_block as usize;
        NandChip {
            blocks: vec![BlockState::default(); config.blocks as usize],
            spans: vec![(0, 0); pages],
            config,
            stats: FlashStats::default(),
        }
    }

    /// Bytes the chip holds for its programmed pages: each page's bytes
    /// without trailing zeros, a prefix shared with the page before it
    /// counted once.
    pub fn stored_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.slab.len() as u64).sum()
    }

    fn span_index(&self, block: u32, page: u32) -> usize {
        block as usize * self.config.pages_per_block as usize + page as usize
    }

    /// Stores `data` as the next page of `block`.
    fn push_page(&mut self, block: u32, data: &[u8]) {
        let first = self.span_index(block, 0);
        let st = &mut self.blocks[block as usize];
        if st.slab.capacity() == 0 {
            st.slab.reserve_exact(
                self.config.pages_per_block as usize * self.config.page_size as usize,
            );
        }
        let data = &data[..stored_len(data)];
        // The previous page's stored bytes always end the slab, so a page
        // that starts with them appends only what follows.
        let start = match st.written.checked_sub(1) {
            Some(prev) => {
                let (s, e) = self.spans[first + prev as usize];
                debug_assert_eq!(e as usize, st.slab.len());
                if data.starts_with(&st.slab[s as usize..e as usize]) {
                    s as usize
                } else {
                    st.slab.len()
                }
            }
            None => st.slab.len(),
        };
        st.slab.extend_from_slice(&data[st.slab.len() - start..]);
        self.spans[first + st.written as usize] = (start as u32, st.slab.len() as u32);
        st.written += 1;
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
        let st = &self.blocks[block as usize];
        if page < st.written {
            // The stored bytes, then the trailing zeros they left out.
            let (s, e) = self.spans[self.span_index(block, page)];
            let stored = st.slab[s as usize..e as usize].get(start..).unwrap_or(&[]);
            let n = stored.len().min(buf.len());
            buf[..n].copy_from_slice(&stored[..n]);
            buf[n..].fill(0);
        } else {
            buf.fill(0xFF); // erased pages read all-ones
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
        let next = self.blocks[block as usize].written;
        if page < next {
            return Err(FlashError::NotErased);
        }
        if page > next {
            return Err(FlashError::OutOfOrderProgram);
        }
        self.push_page(block, data);
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
        st.written = 0;
        st.erase_count += 1;
        self.stats.erases += 1;
        if st.erase_count >= max {
            st.bad = true;
            st.slab = Vec::new();
            self.stats.bad_blocks += 1;
        }
        Ok(self.config.erase_latency)
    }

    /// Whether a block is bad.
    pub fn is_bad(&self, block: u32) -> bool {
        match self.blocks.get(block as usize) {
            Some(b) => b.bad,
            None => true,
        }
    }

    /// Marks a block bad immediately, so a test picks the block and the
    /// moment; outside tests a block goes bad only by wearing out
    /// ([`NandConfig::max_erase_cycles`]).
    #[cfg(test)]
    pub(crate) fn force_bad_block(&mut self, block: u32) {
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

lastcpu_snap::record!(FlashStats {
    reads,
    programs,
    erases,
    bad_blocks
});

lastcpu_snap::fields! { NandChip |self| {
    config.blocks: Chip("blocks", self.config.blocks),
    config.pages_per_block: Chip("pages_per_block", self.config.pages_per_block),
    config.page_size: Chip("page_size", self.config.page_size),
    config.read_latency, config.program_latency, config.erase_latency, config.max_erase_cycles,
    stats, ..Pages,
} }

/// A geometry field. The geometry sized the span table when the chip was
/// built; a checkpoint may only restore into the chip it was taken from.
struct Chip(&'static str, u32);

impl lastcpu_snap::Codec<u32> for Chip {
    fn put(&self, v: &u32, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u32(*v);
    }

    fn take(&self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<u32> {
        let (field, own) = (self.0, self.1);
        match r.u32()? {
            declared if declared == own => Ok(own),
            declared => Err(r.corrupt(format!("{field} {declared} != the chip's {own}"))),
        }
    }
}

/// Each block's erase count, write pointer and bad flag, then the
/// programmed pages in (block, page) order: exactly the pages below each
/// block's write pointer, each a whole page as programmed — its stored
/// bytes and the zeros they leave out — read back through the same
/// prefix-sharing store that programming uses.
struct Pages;

impl lastcpu_snap::Span<NandChip> for Pages {
    fn put(&self, c: &NandChip, w: &mut lastcpu_snap::SnapWriter) {
        w.put_len(c.blocks.len());
        for b in &c.blocks {
            lastcpu_snap::Field::put(&(b.erase_count, b.written, b.bad), w);
        }
        w.put_len(c.blocks.iter().map(|b| b.written as usize).sum());
        for (blk, b) in (0u32..).zip(&c.blocks) {
            for pg in 0..b.written {
                let (s, e) = c.spans[c.span_index(blk, pg)];
                w.put_u32(blk);
                w.put_u32(pg);
                w.put_bytes_rle_padded(
                    &b.slab[s as usize..e as usize],
                    c.config.page_size as usize,
                );
            }
        }
    }

    fn take(
        &self,
        c: &mut NandChip,
        r: &mut lastcpu_snap::SnapReader<'_>,
    ) -> lastcpu_snap::Result<()> {
        let n = r.count()?;
        if n != c.config.blocks as usize {
            let blocks = c.config.blocks;
            return Err(r.corrupt(format!(
                "block-state count {n} != configured blocks {blocks}"
            )));
        }
        c.blocks = Vec::with_capacity(n);
        let mut write_ptrs = Vec::with_capacity(n);
        for blk in 0..n {
            let (erase_count, write_ptr, bad): (u32, u32, bool) = lastcpu_snap::Field::take(r)?;
            if write_ptr > c.config.pages_per_block {
                let ppb = c.config.pages_per_block;
                return Err(r.corrupt(format!(
                    "block {blk} write pointer {write_ptr} > {ppb} pages per block"
                )));
            }
            write_ptrs.push(write_ptr);
            c.blocks.push(BlockState {
                erase_count,
                bad,
                ..BlockState::default()
            });
        }
        let n = r.len()?;
        let programmed: usize = write_ptrs.iter().map(|&p| p as usize).sum();
        if n != programmed {
            return Err(r.corrupt(format!(
                "{n} page records for {programmed} programmed pages"
            )));
        }
        for (blk, write_ptr) in (0u32..).zip(write_ptrs) {
            for pg in 0..write_ptr {
                let at = (r.u32()?, r.u32()?);
                if at != (blk, pg) {
                    return Err(r.corrupt(format!("page record {at:?} where ({blk},{pg}) belongs")));
                }
                let body = r.bytes_rle()?;
                if body.len() != c.config.page_size as usize {
                    let (n, ps) = (body.len(), c.config.page_size);
                    return Err(
                        r.corrupt(format!("page ({blk},{pg}) body is {n} bytes, want {ps}"))
                    );
                }
                c.push_page(blk, &body);
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
/// `(block, page)` to a full copy of the page's bytes — kept as the
/// differential model: same operations, same results, same counters, same
/// checkpoint bytes.
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

    /// A page body for `(block, page)` of one of six shapes, `prev` being
    /// what the page before it in the block holds: no zero at either end,
    /// a nonzero head then zeros, all zeros, `prev`
    /// extended past its last nonzero byte, the same with a byte of that
    /// prefix changed, and a strict prefix of `prev` padded with zeros.
    fn body(shape: u32, fill: u8, block: u32, page: u32, prev: Option<&[u8]>) -> [u8; 8] {
        let mut data = [0u8; 8];
        let fill = fill.max(1);
        let prev = prev.unwrap_or(&[]);
        let prev_len = stored_len(prev);
        match shape {
            0 => data = [fill, block as u8, page as u8, 3, 4, 5, 6, fill],
            1 => data[..(fill % 8) as usize].fill(fill),
            2 => {}
            3 | 4 => {
                data[..prev_len].copy_from_slice(&prev[..prev_len]);
                let end = (prev_len + 1 + fill as usize % 3).min(8);
                data[prev_len..end].fill(fill);
                if shape == 4 && prev_len > 0 {
                    data[fill as usize % prev_len] ^= 0x5A;
                }
            }
            _ => {
                let keep = prev_len.saturating_sub(1 + fill as usize % 3);
                data[..keep].copy_from_slice(&prev[..keep]);
            }
        }
        data
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Random program / erase / read / kill sequences, some out of range
        /// and some out of order, with blocks wearing out after three
        /// erases: every result, buffer and counter matches the map, a page
        /// is stored exactly when it is below its block's write pointer, and
        /// the checkpoint bytes are the map's. Page bodies end in zeros, are
        /// all zeros, extend the page before them (sometimes with an earlier
        /// byte changed) or are shorter than it, and partial reads straddle
        /// the end of what a page stores.
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
                        let prev = next.checked_sub(1).and_then(|p| map.data.get(&(block, p)));
                        let data = body(at % 6, fill, block, next, prev.map(Vec::as_slice));
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
            for (b, st) in (0u32..).zip(&chip.blocks) {
                prop_assert_eq!(st.written, map.blocks[b as usize].1);
                let mut copies = 0;
                for p in 0..CONFIG.pages_per_block {
                    let stored = map.data.get(&(b, p));
                    prop_assert_eq!(stored.is_some(), p < st.written);
                    copies += stored.map_or(0, |d| stored_len(d));
                }
                // The last page's bytes end the slab, which never holds more
                // than the pages' own bytes would.
                if let Some(last) = st.written.checked_sub(1) {
                    prop_assert_eq!(chip.spans[chip.span_index(b, last)].1 as usize, st.slab.len());
                }
                prop_assert!(st.slab.len() <= copies);
            }
            let bytes = snapshot_of(&chip);
            prop_assert_eq!(&bytes, &map.snapshot());
            // A restored chip shares what the original shared and reads the
            // same pages.
            let mut back = restore(&bytes).unwrap();
            prop_assert_eq!(back.stored_bytes(), chip.stored_bytes());
            for (&(b, p), page) in &map.data {
                let mut got = [0u8; 8];
                back.read_page(b, p, &mut got).unwrap();
                prop_assert_eq!(&got[..], &page[..]);
            }
            back.stats = chip.stats;
            prop_assert_eq!(snapshot_of(&back), bytes);
        }
    }

    /// A programmed page stores its bytes without trailing zeros, shares
    /// the page before it when that is a prefix, and reads back whole.
    #[test]
    fn a_page_stores_what_was_written() {
        let mut chip = NandChip::new(NandConfig {
            pages_per_block: 8,
            ..CONFIG
        });
        let pages: [[u8; 8]; 5] = [
            [1, 2, 0, 0, 0, 0, 0, 0],
            [1, 2, 3, 0, 0, 0, 0, 0], // extends page 0
            [1, 2, 3, 0, 0, 0, 0, 0], // equal to page 1
            [9, 2, 3, 4, 0, 0, 0, 0], // extends page 2 with byte 0 changed
            [0; 8],
        ];
        let mut stored = Vec::new();
        for (p, data) in (0u32..).zip(&pages) {
            chip.program_page(0, p, data).unwrap();
            stored.push(chip.stored_bytes());
        }
        assert_eq!(stored, [2, 3, 3, 7, 7]);
        for (p, data) in (0u32..).zip(&pages) {
            let mut got = [0xEE; 8];
            chip.read_page(0, p, &mut got).unwrap();
            assert_eq!(&got, data, "page {p}");
            // From inside the stored bytes across to the implicit zeros.
            let mut part = [0xEE; 4];
            chip.read_page_part(0, p, 1, &mut part).unwrap();
            assert_eq!(part, data[1..5], "page {p} from byte 1");
        }
        assert_eq!(
            (
                stored_len(&[0; 17]),
                stored_len(&[5; 17]),
                stored_len(&[0, 0, 3, 0, 0, 0, 0, 0, 0, 0])
            ),
            (0, 17, 3)
        );
        chip.erase_block(0).unwrap();
        assert_eq!(chip.stored_bytes(), 0);
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

    /// The span table is sized by the chip's own geometry: a checkpoint
    /// declaring another one is refused before anything is allocated for
    /// it, however large the numbers.
    #[test]
    fn restore_refuses_a_geometry_other_than_the_chips() {
        let mut m = written();
        m.config.pages_per_block = u32::MAX;
        assert_eq!(
            corrupt_detail(&m.snapshot()),
            format!("pages_per_block {} != the chip's 4", u32::MAX)
        );
        let mut m = written();
        m.config.blocks = 5;
        assert_eq!(corrupt_detail(&m.snapshot()), "blocks 5 != the chip's 4");
        let mut m = written();
        m.config.page_size = 4096;
        assert_eq!(
            corrupt_detail(&m.snapshot()),
            "page_size 4096 != the chip's 8"
        );
    }
}
