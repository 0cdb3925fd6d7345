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

use lastcpu_sim::{DetHashMap, SimDuration};

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
/// Defaults approximate DDR4 behind an on-device memory controller:
/// ~60 ns access setup (row activation + controller queue) and ~20 GB/s of
/// streaming bandwidth (0.05 ns/byte), which the experiments sweep anyway.
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
            access_latency: SimDuration::from_nanos(60),
            per_byte_ps: 50,
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

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, cost: DramCostModel) -> Self {
        self.cost = cost;
        self
    }

    /// The configured cost model.
    pub fn cost_model(&self) -> &DramCostModel {
        &self.cost
    }

    /// Physical memory size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Total bytes read since construction.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total bytes written since construction.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Host memory currently backing touched frames, in bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.frames.len() as u64 * PAGE_SIZE
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

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&mut self, addr: PhysAddr) -> Result<u64, DramError> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: PhysAddr, v: u64) -> Result<(), DramError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Reads a little-endian `u32` at `addr`.
    pub fn read_u32(&mut self, addr: PhysAddr) -> Result<u32, DramError> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32` at `addr`.
    pub fn write_u32(&mut self, addr: PhysAddr, v: u32) -> Result<(), DramError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Reads a little-endian `u16` at `addr`.
    pub fn read_u16(&mut self, addr: PhysAddr) -> Result<u16, DramError> {
        let mut b = [0u8; 2];
        self.read(addr, &mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Writes a little-endian `u16` at `addr`.
    pub fn write_u16(&mut self, addr: PhysAddr, v: u16) -> Result<(), DramError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Zeroes `len` bytes starting at `addr`, releasing whole backing frames
    /// where possible.
    pub fn zero(&mut self, addr: PhysAddr, len: u64) -> Result<(), DramError> {
        self.check(addr, len)?;
        let mut pa = addr;
        let mut remaining = len;
        while remaining > 0 {
            let in_page = PAGE_SIZE - pa.page_offset();
            let chunk = in_page.min(remaining);
            let frame = pa.page_number();
            if chunk == PAGE_SIZE {
                self.frames.remove(&frame);
            } else if let Some(data) = self.frames.get_mut(&frame) {
                let start = pa.page_offset() as usize;
                data[start..start + chunk as usize].fill(0);
            }
            pa = pa + chunk;
            remaining -= chunk;
        }
        Ok(())
    }

    /// Modelled duration of an access of `len` bytes.
    pub fn access_time(&self, len: u64) -> SimDuration {
        self.cost.access_time(len)
    }
}

impl lastcpu_snap::Snapshot for Dram {
    /// Serializes size, cost model, traffic counters, and every resident
    /// frame (sorted by frame number, page bodies RLE-compressed — DRAM
    /// images are overwhelmingly zero). Frame *residency* is part of the
    /// state: a frame that was written and later zeroed in place stays
    /// resident, and restore reproduces that exactly.
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.size);
        w.put_u64(self.cost.access_latency.as_nanos());
        w.put_u64(self.cost.per_byte_ps);
        w.put_u64(self.bytes_read);
        w.put_u64(self.bytes_written);
        let mut frames: Vec<u64> = self.frames.keys().copied().collect();
        frames.sort_unstable();
        w.put_len(frames.len());
        for f in frames {
            w.put_u64(f);
            w.put_bytes_rle(&self.frames[&f]);
        }
    }
}

impl lastcpu_snap::Restore for Dram {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.size = r.u64()?;
        self.cost.access_latency = SimDuration::from_nanos(r.u64()?);
        self.cost.per_byte_ps = r.u64()?;
        self.bytes_read = r.u64()?;
        self.bytes_written = r.u64()?;
        self.frames.clear();
        let n = r.len()?;
        for _ in 0..n {
            let f = r.u64()?;
            let body = r.bytes_rle()?;
            if body.len() != PAGE_SIZE as usize {
                return Err(lastcpu_snap::SnapError::Corrupt {
                    section: "dram".into(),
                    detail: format!("frame {f} body is {} bytes, want {PAGE_SIZE}", body.len()),
                });
            }
            self.frames.insert(f, body.into_boxed_slice());
        }
        Ok(())
    }
}

impl fmt::Debug for Dram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dram(size={}MiB, resident={}KiB)",
            self.size / (1024 * 1024),
            self.resident_bytes() / 1024
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
    fn scalar_helpers_round_trip() {
        let mut d = Dram::new(PAGE_SIZE);
        d.write_u64(PhysAddr::new(8), 0xDEAD_BEEF_CAFE_F00D)
            .unwrap();
        assert_eq!(d.read_u64(PhysAddr::new(8)).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        d.write_u32(PhysAddr::new(16), 0x1234_5678).unwrap();
        assert_eq!(d.read_u32(PhysAddr::new(16)).unwrap(), 0x1234_5678);
        d.write_u16(PhysAddr::new(20), 0xABCD).unwrap();
        assert_eq!(d.read_u16(PhysAddr::new(20)).unwrap(), 0xABCD);
    }

    #[test]
    fn sparse_backing_grows_only_when_written() {
        let mut d = Dram::new(1 << 30); // 1 GiB declared
        assert_eq!(d.resident_bytes(), 0);
        d.write(PhysAddr::new(0x10_0000), &[1]).unwrap();
        assert_eq!(d.resident_bytes(), PAGE_SIZE);
    }

    #[test]
    fn zero_releases_whole_frames() {
        let mut d = Dram::new(PAGE_SIZE * 4);
        d.write(PhysAddr::new(0), &vec![7u8; (PAGE_SIZE * 2) as usize])
            .unwrap();
        assert_eq!(d.resident_bytes(), PAGE_SIZE * 2);
        d.zero(PhysAddr::new(0), PAGE_SIZE).unwrap();
        assert_eq!(d.resident_bytes(), PAGE_SIZE);
        let mut b = [9u8; 4];
        d.read(PhysAddr::new(0), &mut b).unwrap();
        assert_eq!(b, [0; 4]);
    }

    #[test]
    fn partial_zero_keeps_other_bytes() {
        let mut d = Dram::new(PAGE_SIZE);
        d.write(PhysAddr::new(0), &[1, 2, 3, 4]).unwrap();
        d.zero(PhysAddr::new(1), 2).unwrap();
        let mut b = [0u8; 4];
        d.read(PhysAddr::new(0), &mut b).unwrap();
        assert_eq!(b, [1, 0, 0, 4]);
    }

    #[test]
    fn traffic_counters_accumulate() {
        let mut d = Dram::new(PAGE_SIZE);
        d.write(PhysAddr::new(0), &[0u8; 100]).unwrap();
        let mut b = [0u8; 40];
        d.read(PhysAddr::new(0), &mut b).unwrap();
        assert_eq!(d.bytes_written(), 100);
        assert_eq!(d.bytes_read(), 40);
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
