//! A small flash filesystem over the FTL.
//!
//! Flat namespace, byte-granular reads and writes (read-modify-write at
//! page granularity underneath), per-file logical-page extent lists. The
//! directory is an in-memory structure owned by the SSD firmware; rebuilding
//! it from flash at mount is out of scope for the emulator and documented
//! as such in DESIGN.md.

use std::collections::BTreeMap;
use std::fmt;

use lastcpu_sim::SimDuration;

use crate::ftl::{Ftl, FtlError};

/// Errors from filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// No such file.
    NotFound,
    /// File already exists.
    Exists,
    /// No space for the requested growth.
    NoSpace,
    /// Read past end of file.
    PastEof,
    /// The FTL failed.
    Ftl(FtlError),
}

impl From<FtlError> for FsError {
    fn from(e: FtlError) -> Self {
        match e {
            FtlError::NoSpace => FsError::NoSpace,
            other => FsError::Ftl(other),
        }
    }
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file"),
            FsError::Exists => write!(f, "file exists"),
            FsError::NoSpace => write!(f, "no space"),
            FsError::PastEof => write!(f, "read past end of file"),
            FsError::Ftl(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FsError {}

#[derive(Debug, Clone)]
struct FileMeta {
    /// Logical pages backing the file, in order.
    lpns: Vec<u32>,
    /// Size in bytes.
    size: u64,
}

/// The flash filesystem.
pub struct FlashFs {
    ftl: Ftl,
    files: BTreeMap<String, FileMeta>,
    /// Logical pages not owned by any file.
    free_lpns: Vec<u32>,
    /// One page of read-modify-write scratch, overwritten before every use.
    page_buf: Vec<u8>,
}

impl FlashFs {
    /// Formats a filesystem over `ftl`.
    pub fn format(ftl: Ftl) -> Self {
        let free_lpns = (0..ftl.logical_pages()).rev().collect();
        let page_buf = vec![0; ftl.page_size() as usize];
        FlashFs {
            ftl,
            files: BTreeMap::new(),
            free_lpns,
            page_buf,
        }
    }

    /// The underlying FTL (stats, fault injection).
    pub fn ftl_mut(&mut self) -> &mut Ftl {
        &mut self.ftl
    }

    /// Creates an empty file.
    pub fn create(&mut self, name: &str) -> Result<(), FsError> {
        if self.files.contains_key(name) {
            return Err(FsError::Exists);
        }
        self.files.insert(
            name.to_string(),
            FileMeta {
                lpns: Vec::new(),
                size: 0,
            },
        );
        Ok(())
    }

    /// Whether `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// File size in bytes.
    pub fn len(&self, name: &str) -> Result<u64, FsError> {
        self.files
            .get(name)
            .map(|m| m.size)
            .ok_or(FsError::NotFound)
    }

    /// Lists file names in lexicographic order.
    pub fn list(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }

    /// Deletes a file, trimming its pages.
    pub fn delete(&mut self, name: &str) -> Result<(), FsError> {
        let meta = self.files.remove(name).ok_or(FsError::NotFound)?;
        for lpn in meta.lpns {
            // Trim cannot fail for pages we own.
            self.ftl.trim(lpn).expect("owned page in range");
            self.free_lpns.push(lpn);
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes at `offset`, returning the flash time spent.
    ///
    /// Fails with [`FsError::PastEof`] if the range extends past the end.
    pub fn read(
        &mut self,
        name: &str,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<SimDuration, FsError> {
        let FlashFs { ftl, files, .. } = self;
        let meta = files.get(name).ok_or(FsError::NotFound)?;
        match offset.checked_add(buf.len() as u64) {
            Some(end) if end <= meta.size => {}
            _ => return Err(FsError::PastEof),
        }
        let ps = ftl.page_size() as u64;
        let mut cost = SimDuration::ZERO;
        let mut done = 0usize;
        let mut pos = offset;
        while done < buf.len() {
            let page_idx = (pos / ps) as usize;
            let in_page = (ps - pos % ps) as usize;
            let chunk = in_page.min(buf.len() - done);
            // Straight from the flash page into the caller's buffer; the
            // chip still charges one read per page touched.
            cost += ftl.read_part(
                meta.lpns[page_idx],
                (pos % ps) as u32,
                &mut buf[done..done + chunk],
            )?;
            done += chunk;
            pos += chunk as u64;
        }
        Ok(cost)
    }

    /// Writes `data` at `offset`, growing the file as needed. Returns the
    /// flash time spent.
    pub fn write(&mut self, name: &str, offset: u64, data: &[u8]) -> Result<SimDuration, FsError> {
        let FlashFs {
            ftl,
            files,
            free_lpns,
            page_buf,
        } = self;
        let meta = files.get_mut(name).ok_or(FsError::NotFound)?;
        if data.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        let ps = ftl.page_size() as u64;
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(FsError::NoSpace)?;
        // Grow the extent list.
        let grow = (end.div_ceil(ps) as usize).saturating_sub(meta.lpns.len());
        if free_lpns.len() < grow {
            return Err(FsError::NoSpace);
        }
        let keep = free_lpns.len() - grow;
        meta.lpns.extend(free_lpns.drain(keep..).rev());
        meta.size = meta.size.max(end);

        let mut cost = SimDuration::ZERO;
        let mut done = 0usize;
        let mut pos = offset;
        while done < data.len() {
            let page_idx = (pos / ps) as usize;
            let in_page = (ps - pos % ps) as usize;
            let chunk = in_page.min(data.len() - done);
            let lpn = meta.lpns[page_idx];
            let src = &data[done..done + chunk];
            if chunk as u64 == ps {
                cost += ftl.write(lpn, src)?;
            } else {
                // Partial page: read-modify-write (a fresh page past the
                // old size reads zero from the mapping table, at no cost).
                cost += ftl.read(lpn, page_buf)?;
                let start = (pos % ps) as usize;
                page_buf[start..start + chunk].copy_from_slice(src);
                cost += ftl.write(lpn, page_buf)?;
            }
            done += chunk;
            pos += chunk as u64;
        }
        Ok(cost)
    }
}

impl fmt::Debug for FlashFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FlashFs(files={}, free={}KiB)",
            self.files.len(),
            self.free_lpns.len() as u64 * self.ftl.page_size() as u64 / 1024
        )
    }
}

lastcpu_snap::record!(FileMeta { size, lpns });

lastcpu_snap::fields! { FlashFs |self| { mut ftl, files, free_lpns } restored {
    self.page_buf = vec![0; self.ftl.page_size() as usize];
} }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flash::{NandChip, NandConfig};

    /// Free capacity in bytes.
    fn free_bytes(f: &FlashFs) -> u64 {
        f.free_lpns.len() as u64 * f.ftl.page_size() as u64
    }

    fn fs() -> FlashFs {
        FlashFs::format(Ftl::new(NandChip::new(NandConfig {
            blocks: 32,
            pages_per_block: 8,
            page_size: 64,
            max_erase_cycles: u32::MAX,
            ..NandConfig::default()
        })))
    }

    #[test]
    fn create_write_read() {
        let mut f = fs();
        f.create("/data/kv.db").unwrap();
        f.write("/data/kv.db", 0, b"hello flash").unwrap();
        let mut buf = [0u8; 11];
        f.read("/data/kv.db", 0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello flash");
        assert_eq!(f.len("/data/kv.db").unwrap(), 11);
    }

    #[test]
    fn create_duplicate_rejected() {
        let mut f = fs();
        f.create("a").unwrap();
        assert_eq!(f.create("a"), Err(FsError::Exists));
    }

    #[test]
    fn missing_file_errors() {
        let mut f = fs();
        let mut buf = [0u8; 1];
        assert_eq!(f.read("nope", 0, &mut buf), Err(FsError::NotFound));
        assert_eq!(f.write("nope", 0, b"x"), Err(FsError::NotFound));
        assert_eq!(f.len("nope"), Err(FsError::NotFound));
        assert_eq!(f.delete("nope"), Err(FsError::NotFound));
    }

    #[test]
    fn writes_spanning_pages() {
        let mut f = fs();
        f.create("big").unwrap();
        let data: Vec<u8> = (0..300).map(|i| (i % 256) as u8).collect();
        f.write("big", 10, &data).unwrap();
        assert_eq!(f.len("big").unwrap(), 310);
        let mut buf = vec![0u8; 300];
        f.read("big", 10, &mut buf).unwrap();
        assert_eq!(buf, data);
        // Bytes before the write offset read as zero.
        let mut head = [0xAAu8; 10];
        f.read("big", 0, &mut head).unwrap();
        assert_eq!(head, [0u8; 10]);
    }

    #[test]
    fn overwrite_middle_preserves_rest() {
        let mut f = fs();
        f.create("x").unwrap();
        f.write("x", 0, &[1u8; 200]).unwrap();
        f.write("x", 50, &[2u8; 20]).unwrap();
        let mut buf = [0u8; 200];
        f.read("x", 0, &mut buf).unwrap();
        assert!(buf[..50].iter().all(|&b| b == 1));
        assert!(buf[50..70].iter().all(|&b| b == 2));
        assert!(buf[70..].iter().all(|&b| b == 1));
        assert_eq!(f.len("x").unwrap(), 200);
    }

    #[test]
    fn read_past_eof_rejected() {
        let mut f = fs();
        f.create("x").unwrap();
        f.write("x", 0, b"abc").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(f.read("x", 0, &mut buf), Err(FsError::PastEof));
        assert_eq!(f.read("x", 3, &mut buf[..1]), Err(FsError::PastEof));
    }

    #[test]
    fn offsets_that_overflow_are_errors_not_panics() {
        let mut f = fs();
        f.create("x").unwrap();
        f.write("x", 0, b"abc").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(f.read("x", u64::MAX - 3, &mut buf), Err(FsError::PastEof));
        assert_eq!(f.write("x", u64::MAX - 3, &buf), Err(FsError::NoSpace));
        // Nothing moved: same size, same contents, same free space.
        assert_eq!(f.len("x").unwrap(), 3);
        f.read("x", 0, &mut buf[..3]).unwrap();
        assert_eq!(&buf[..3], b"abc");
        assert_eq!(free_bytes(&f), 231 * 64);
    }

    #[test]
    fn delete_frees_space() {
        let mut f = fs();
        let before = free_bytes(&f);
        f.create("x").unwrap();
        f.write("x", 0, &vec![0u8; 1000]).unwrap();
        assert!(free_bytes(&f) < before);
        f.delete("x").unwrap();
        assert_eq!(free_bytes(&f), before);
        assert!(!f.exists("x"));
    }

    #[test]
    fn no_space_reported_cleanly() {
        let mut f = fs();
        f.create("hog").unwrap();
        let cap = free_bytes(&f);
        f.write("hog", 0, &vec![1u8; cap as usize]).unwrap();
        f.create("more").unwrap();
        assert_eq!(f.write("more", 0, b"x"), Err(FsError::NoSpace));
        // Existing data intact.
        let mut buf = [0u8; 1];
        f.read("hog", cap - 1, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
    }

    #[test]
    fn list_is_sorted() {
        let mut f = fs();
        f.create("b").unwrap();
        f.create("a").unwrap();
        assert_eq!(f.list(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn empty_write_is_noop() {
        let mut f = fs();
        f.create("x").unwrap();
        assert_eq!(f.write("x", 5, &[]).unwrap(), SimDuration::ZERO);
        assert_eq!(f.len("x").unwrap(), 0);
    }

    #[test]
    fn flash_cost_is_reported() {
        let mut f = fs();
        f.create("x").unwrap();
        let wcost = f.write("x", 0, &[1u8; 128]).unwrap();
        assert!(wcost > SimDuration::ZERO);
        let mut buf = [0u8; 128];
        let rcost = f.read("x", 0, &mut buf).unwrap();
        assert!(rcost > SimDuration::ZERO);
        assert!(rcost < wcost, "flash reads are cheaper than programs");
    }

    /// Appending to a file rewrites its tail page out of place; each new
    /// version extends the one programmed just before it, so the chip stores
    /// what was appended — plus at most one page, re-stored when the writes
    /// move on to a fresh block — not a page per append.
    #[test]
    fn appends_store_the_bytes_appended() {
        let mut f = FlashFs::format(Ftl::new(NandChip::new(NandConfig::default())));
        f.create("/log").unwrap();
        let (records, len) = (100u64, 290usize);
        for i in 0..records {
            let record = vec![(i % 255) as u8 + 1; len];
            f.write("/log", i * len as u64, &record).unwrap();
        }
        let appended = records * len as u64;
        let nand = f.ftl_mut().nand_mut();
        let ps = nand.config().page_size as u64;
        assert!(nand.stats().programs >= records);
        let stored = nand.stored_bytes();
        assert!(
            stored <= appended + ps,
            "{stored} bytes stored for {appended} appended"
        );
        let mut back = vec![0; appended as usize];
        f.read("/log", 0, &mut back).unwrap();
        assert!((0..records as usize).all(|i| back[i * len..(i + 1) * len]
            .iter()
            .all(|&b| b == (i % 255) as u8 + 1)));
    }

    /// A length field patched to 2^40 — the first NAND page's RLE total, the
    /// FTL map's length, a file's LPN count — fails the restore as corrupt
    /// instead of asking the allocator for a terabyte.
    #[test]
    fn a_hostile_length_is_corrupt_not_an_allocation() {
        use lastcpu_snap::{Restore, SnapError, Snapshot};
        let mut f = fs();
        f.create("/f").unwrap();
        f.write("/f", 0, &[7; 200]).unwrap();
        let bytes = f.snapshot_bytes();
        let nand = f.ftl_mut().nand_mut().snapshot_bytes().len();
        let ftl = f.ftl.snapshot_bytes().len();
        // NAND: 12 B geometry, 3 latencies, erase limit, 3 counters, bad
        // blocks, 9 B per block state, the page-record count, then page
        // (0, 0): block, page, RLE total.
        let page = 12 + 24 + 4 + 24 + 4 + 8 + 9 * 32 + 8 + 8;
        // FTL: logical pages, six counters, retry policy, then the map.
        let map = nand + 4 + 48 + 16 + 8;
        // Files: count, then "/f": name, size, LPN count.
        let lpns = ftl + 8 + 8 + 2 + 8;
        for (at, holds) in [(page, 64), (map, f.ftl.logical_pages() as u64), (lpns, 4)] {
            let field = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            assert_eq!(field, holds, "the length field at {at}");
            let mut hostile = bytes.clone();
            hostile[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
            match fs().restore_bytes("fs", &hostile) {
                Err(SnapError::Corrupt { .. }) => {}
                other => panic!("length at {at}: {other:?}"),
            }
        }
        fs().restore_bytes("fs", &bytes)
            .expect("the untouched bytes restore");
    }
}

#[cfg(test)]
mod snapshot_identity {
    use super::*;
    use crate::flash::{NandChip, NandConfig};
    use lastcpu_sim::DetRng;
    use lastcpu_snap::{fnv1a, SnapWriter, Snapshot};

    fn digest(f: &FlashFs) -> u64 {
        let mut w = SnapWriter::new();
        f.snapshot(&mut w);
        fnv1a(&w.into_bytes())
    }

    /// The storage under the filesystem changed representation (per-block
    /// slabs, a flat reverse map); the bytes a checkpoint holds did not.
    /// Digests recorded at the commit before that change, over one seeded
    /// sequence with a partial-page rewrite, a retired block and GC passes.
    #[test]
    fn snapshot_bytes_are_the_recorded_ones() {
        let mut f = FlashFs::format(Ftl::new(NandChip::new(NandConfig {
            blocks: 16,
            pages_per_block: 8,
            page_size: 64,
            max_erase_cycles: 40,
            ..NandConfig::default()
        })));
        let mut rng = DetRng::new(0x5_5D17);
        let mut data = [0u8; 200];
        let mut write = |f: &mut FlashFs, rng: &mut DetRng, name: &str, span: u64| {
            let len = 1 + rng.below(199) as usize;
            let off = rng.below(span - len as u64);
            for chunk in data[..len].chunks_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
            }
            f.write(name, off, &data[..len]).unwrap();
        };
        f.create("/log").unwrap();
        f.create("/idx").unwrap();
        for _ in 0..40 {
            write(&mut f, &mut rng, "/log", 3000);
            write(&mut f, &mut rng, "/idx", 1500);
        }
        // A rewrite inside one page, not touching either edge.
        f.write("/log", 64 * 3 + 5, &[0xA5; 20]).unwrap();
        let filled = digest(&f);

        // The active block dies under the next write: retired, its live
        // pages relocated, and read back from the bad block until then.
        let victim = f
            .ftl_mut()
            .active_block()
            .expect("a block is absorbing writes");
        f.ftl_mut().nand_mut().force_bad_block(victim);
        for _ in 0..10 {
            write(&mut f, &mut rng, "/idx", 1500);
        }
        let retired = digest(&f);

        for _ in 0..600 {
            write(&mut f, &mut rng, "/log", 3000);
        }
        f.delete("/idx").unwrap();
        let collected = digest(&f);

        let ftl = f.ftl_mut().stats();
        assert!(
            ftl.gc_runs > 0 && ftl.gc_moved_pages > 0,
            "GC must have run"
        );
        assert!(ftl.retired_blocks >= 1, "the killed block was retired");
        assert_eq!(
            (filled, retired, collected),
            (0xed1ee5a7e2af43d9, 0xf1728a2997a1cb0f, 0x9533133dce75a283),
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::flash::{NandChip, NandConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Random writes and reads at byte offsets that cross page
        /// boundaries, against a plain byte vector — with the block taking
        /// writes killed now and then, so some reads come from a bad block
        /// and some pages have been relocated off one. A read costs one
        /// flash read per page it touches that was ever written.
        #[test]
        fn prop_fs_matches_byte_vector(
            ops in proptest::collection::vec((0u8..8, 0u64..1800, 1usize..300, any::<u8>()), 1..120)
        ) {
            let mut f = FlashFs::format(Ftl::new(NandChip::new(NandConfig {
                blocks: 32,
                pages_per_block: 8,
                page_size: 64,
                max_erase_cycles: u32::MAX,
                ..NandConfig::default()
            })));
            f.create("f").unwrap();
            let read_latency = f.ftl_mut().nand_mut().config().read_latency;
            let mut model: Vec<u8> = Vec::new();
            let mut written = [false; 40];
            let mut kills = 0;
            for (kind, offset, len, fill) in ops {
                let end = offset as usize + len;
                let pages = offset as usize / 64..=(end - 1) / 64;
                match kind {
                    0..=2 => {
                        let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                        f.write("f", offset, &data).unwrap();
                        if model.len() < end {
                            model.resize(end, 0);
                        }
                        model[offset as usize..end].copy_from_slice(&data);
                        pages.for_each(|p| written[p] = true);
                    }
                    3 if kills < 3 => {
                        if let Some(b) = f.ftl_mut().active_block() {
                            f.ftl_mut().nand_mut().force_bad_block(b);
                            kills += 1;
                        }
                    }
                    _ => {
                        let mut buf = vec![0xEE; len];
                        let reads = f.ftl_mut().nand_mut().stats().reads;
                        let got = f.read("f", offset, &mut buf);
                        if end > model.len() {
                            prop_assert_eq!(got, Err(FsError::PastEof));
                            continue;
                        }
                        prop_assert_eq!(&buf, &model[offset as usize..end]);
                        let touched = pages.filter(|&p| written[p]).count() as u64;
                        prop_assert_eq!(f.ftl_mut().nand_mut().stats().reads - reads, touched);
                        prop_assert_eq!(
                            got,
                            Ok(SimDuration::from_nanos(read_latency.as_nanos() * touched))
                        );
                    }
                }
                prop_assert_eq!(f.len("f").unwrap(), model.len() as u64);
            }
        }
    }
}
