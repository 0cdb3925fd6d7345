//! Simulated DRAM.
//!
//! DRAM content is stored sparsely, one 4 KiB backing block per touched
//! frame, so a simulated machine can declare gigabytes of physical memory
//! while the host only pays for pages actually written.
//!
//! The cost model answers "how long does this access take" separately from
//! "what bytes move": data-plane code performs the byte transfer immediately
//! (state must be visible to the next event) and schedules completion after
//! the modelled latency.

use std::fmt;

use lastcpu_sim::{costs, DetHashMap, SimDuration};

use crate::addr::{PhysAddr, PAGE_SIZE};

/// Errors from DRAM accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramError {
    /// Access extended past the end of physical memory.
    OutOfRange {
        /// Start of the offending access.
        addr: PhysAddr,
        /// Length of the offending access.
        len: u64,
    },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::OutOfRange { addr, len } => {
                write!(f, "DRAM access out of range: {addr} + {len} bytes")
            }
        }
    }
}

impl std::error::Error for DramError {}

/// Latency/bandwidth model for DRAM accesses.
///
/// The defaults are the `dram.*` rows of the cost table
/// ([`lastcpu_sim::costs`]) and approximate DDR4 behind an on-device memory
/// controller: ~60 ns access setup (row activation + controller queue) and
/// ~20 GB/s of streaming bandwidth (0.05 ns/byte).
#[derive(Debug, Clone, Copy)]
pub struct DramCostModel {
    /// Fixed per-access setup latency.
    pub access_latency: SimDuration,
    /// Per-byte transfer time in picoseconds (1000 ps/B = 1 GB/s).
    pub per_byte_ps: u64,
}

impl Default for DramCostModel {
    fn default() -> Self {
        DramCostModel {
            access_latency: costs::DRAM_ACCESS_LATENCY,
            per_byte_ps: costs::DRAM_PER_BYTE,
        }
    }
}

impl DramCostModel {
    /// Time for one access of `len` bytes.
    pub fn access_time(&self, len: u64) -> SimDuration {
        let transfer_ns = len.saturating_mul(self.per_byte_ps) / 1000;
        self.access_latency + SimDuration::from_nanos(transfer_ns)
    }
}

/// Byte-addressable simulated physical memory.
///
/// # Examples
///
/// ```
/// use lastcpu_mem::{Dram, PhysAddr};
///
/// let mut dram = Dram::new(64 * 1024 * 1024);
/// dram.write(PhysAddr::new(0x1000), b"hello").unwrap();
/// let mut buf = [0u8; 5];
/// dram.read(PhysAddr::new(0x1000), &mut buf).unwrap();
/// assert_eq!(&buf, b"hello");
/// ```
pub struct Dram {
    frames: DetHashMap<u64, Box<[u8]>>,
    size: u64,
    cost: DramCostModel,
    bytes_read: u64,
    bytes_written: u64,
}

impl Dram {
    /// Creates `size` bytes of zeroed physical memory (rounded up to a whole
    /// number of pages).
    pub fn new(size: u64) -> Self {
        let size = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        Dram {
            frames: DetHashMap::default(),
            size,
            cost: DramCostModel::default(),
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Physical memory size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    fn check(&self, addr: PhysAddr, len: u64) -> Result<(), DramError> {
        let end = addr.as_u64().checked_add(len);
        match end {
            Some(e) if e <= self.size => Ok(()),
            _ => Err(DramError::OutOfRange { addr, len }),
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&mut self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), DramError> {
        self.check(addr, buf.len() as u64)?;
        let mut off = 0usize;
        let mut pa = addr;
        while off < buf.len() {
            let in_page = (PAGE_SIZE - pa.page_offset()) as usize;
            let chunk = in_page.min(buf.len() - off);
            let frame = pa.page_number();
            let start = pa.page_offset() as usize;
            match self.frames.get(&frame) {
                Some(data) => buf[off..off + chunk].copy_from_slice(&data[start..start + chunk]),
                None => buf[off..off + chunk].fill(0),
            }
            off += chunk;
            pa = pa + chunk as u64;
        }
        self.bytes_read += buf.len() as u64;
        Ok(())
    }

    /// Writes `buf` starting at `addr`.
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) -> Result<(), DramError> {
        self.check(addr, buf.len() as u64)?;
        let mut off = 0usize;
        let mut pa = addr;
        while off < buf.len() {
            let in_page = (PAGE_SIZE - pa.page_offset()) as usize;
            let chunk = in_page.min(buf.len() - off);
            let frame = pa.page_number();
            let start = pa.page_offset() as usize;
            let data = self
                .frames
                .entry(frame)
                .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
            data[start..start + chunk].copy_from_slice(&buf[off..off + chunk]);
            off += chunk;
            pa = pa + chunk as u64;
        }
        self.bytes_written += buf.len() as u64;
        Ok(())
    }

    /// Modelled duration of an access of `len` bytes.
    pub fn access_time(&self, len: u64) -> SimDuration {
        self.cost.access_time(len)
    }
}

lastcpu_snap::record!(DramCostModel {
    access_latency,
    per_byte_ps
});

lastcpu_snap::fields! { Dram |self| { size, cost, bytes_read, bytes_written, frames: Frames } }

/// Every resident frame in frame order, its page RLE-compressed (DRAM images
/// are overwhelmingly zero). Frame *residency* is part of the state: a
/// frame that was written and later zeroed in place stays resident, and a
/// restore reproduces that exactly.
struct Frames;

impl lastcpu_snap::Codec<DetHashMap<u64, Box<[u8]>>> for Frames {
    fn put(&self, frames: &DetHashMap<u64, Box<[u8]>>, w: &mut lastcpu_snap::SnapWriter) {
        let mut sorted: Vec<(&u64, &Box<[u8]>)> = frames.iter().collect();
        sorted.sort_unstable_by_key(|&(f, _)| *f);
        w.put_len(sorted.len());
        for (f, page) in sorted {
            w.put_u64(*f);
            w.put_bytes_rle(page);
        }
    }

    fn take(
        &self,
        r: &mut lastcpu_snap::SnapReader<'_>,
    ) -> lastcpu_snap::Result<DetHashMap<u64, Box<[u8]>>> {
        let frame = |r: &mut lastcpu_snap::SnapReader<'_>| {
            let (f, page) = (r.u64()?, r.bytes_rle()?);
            if page.len() != PAGE_SIZE as usize {
                let n = page.len();
                return Err(r.corrupt(format!("frame {f} body is {n} bytes, want {PAGE_SIZE}")));
            }
            Ok((f, page.into_boxed_slice()))
        };
        lastcpu_snap::take_sorted(r, frame, |&(f, _)| f)
    }
}

impl fmt::Debug for Dram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dram(size={}MiB, resident={}KiB)",
            self.size / (1024 * 1024),
            self.frames.len() as u64 * PAGE_SIZE / 1024
        )
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random scattered writes against a model byte map: reads always
        /// agree, including across page boundaries and zeroed holes.
        #[test]
        fn prop_dram_matches_model(
            writes in proptest::collection::vec(
                (0u64..3 * PAGE_SIZE, proptest::collection::vec(any::<u8>(), 1..200)),
                1..40,
            )
        ) {
            let mut dram = Dram::new(4 * PAGE_SIZE);
            let mut model = vec![0u8; (4 * PAGE_SIZE) as usize];
            for (addr, data) in &writes {
                let addr = *addr;
                dram.write(PhysAddr::new(addr), data).unwrap();
                model[addr as usize..addr as usize + data.len()].copy_from_slice(data);
            }
            let mut back = vec![0u8; model.len()];
            dram.read(PhysAddr::new(0), &mut back).unwrap();
            prop_assert_eq!(back, model);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mut d = Dram::new(PAGE_SIZE * 4);
        let mut buf = [0xffu8; 16];
        d.read(PhysAddr::new(100), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn write_read_round_trip_across_pages() {
        let mut d = Dram::new(PAGE_SIZE * 4);
        let data: Vec<u8> = (0..=255).collect();
        let addr = PhysAddr::new(PAGE_SIZE - 100); // straddles a boundary
        d.write(addr, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        d.read(addr, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = Dram::new(PAGE_SIZE);
        let mut buf = [0u8; 8];
        assert!(d.read(PhysAddr::new(PAGE_SIZE - 4), &mut buf).is_err());
        assert!(d.write(PhysAddr::new(PAGE_SIZE), &buf[..1]).is_err());
        // Wrap-around is caught, not panicking.
        assert!(d.read(PhysAddr::new(u64::MAX), &mut buf).is_err());
    }

    #[test]
    fn sparse_backing_grows_only_when_written() {
        let mut d = Dram::new(1 << 30); // 1 GiB declared
        assert_eq!(d.frames.len() as u64 * PAGE_SIZE, 0);
        d.write(PhysAddr::new(0x10_0000), &[1]).unwrap();
        assert_eq!(d.frames.len() as u64 * PAGE_SIZE, PAGE_SIZE);
    }

    #[test]
    fn traffic_counters_accumulate() {
        let mut d = Dram::new(PAGE_SIZE);
        d.write(PhysAddr::new(0), &[0u8; 100]).unwrap();
        let mut b = [0u8; 40];
        d.read(PhysAddr::new(0), &mut b).unwrap();
        assert_eq!(d.bytes_written, 100);
        assert_eq!(d.bytes_read, 40);
    }

    #[test]
    fn cost_model_scales_with_length() {
        let m = DramCostModel::default();
        let small = m.access_time(64);
        let large = m.access_time(64 * 1024);
        assert!(large > small);
        assert_eq!(small.as_nanos(), 60 + 64 * 50 / 1000);
    }

    #[test]
    fn size_rounds_to_pages() {
        let d = Dram::new(1);
        assert_eq!(d.size(), PAGE_SIZE);
    }
}
