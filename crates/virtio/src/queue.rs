//! Driver- and device-side virtqueue endpoints.
//!
//! Both endpoints keep only *shadow* state (free lists, ring cursors); the
//! authoritative descriptor table and rings live in shared memory and every
//! operation reads/writes them through [`QueueMemory`]. A malformed table —
//! out-of-range index, descriptor cycle — is detected and reported as
//! [`QueueError::Corrupt`], the way a defensive device implementation must
//! (the peer is another device, not a trusted kernel).

use lastcpu_mem::PAGE_SIZE;

use crate::layout::QueueLayout;
use crate::{MemFault, QueueMemory};

/// Descriptor flag: another descriptor chains after this one.
pub const DESC_F_NEXT: u16 = 1;
/// Descriptor flag: the device writes this buffer (driver reads it back).
pub const DESC_F_WRITE: u16 = 2;
/// Descriptor flag: the buffer holds an indirect descriptor table
/// (VIRTIO 1.1 §2.6.5.3). No device here offers `F_INDIRECT_DESC`, so a
/// device refuses a descriptor that sets it.
pub const DESC_F_INDIRECT: u16 = 4;

/// The most bytes a chain may offer in either direction: VIRTIO 1.1 §2.6.5
/// forbids a driver to add a chain longer than 2^32 bytes in total.
const MAX_CHAIN_BYTES: u64 = 1 << 32;

/// Errors from queue operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueError {
    /// No free descriptors for the request.
    Full,
    /// Shared-memory access faulted.
    Fault(MemFault),
    /// The ring state in shared memory is inconsistent.
    Corrupt(&'static str),
    /// A response did not fit the writable buffers provided.
    ResponseTooLarge {
        /// Bytes the device wanted to write.
        need: u64,
        /// Bytes of writable buffer available.
        have: u64,
    },
}

impl From<MemFault> for QueueError {
    fn from(f: MemFault) -> Self {
        QueueError::Fault(f)
    }
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::Full => write!(f, "virtqueue full"),
            QueueError::Fault(m) => write!(f, "virtqueue {m}"),
            QueueError::Corrupt(why) => write!(f, "virtqueue corrupt: {why}"),
            QueueError::ResponseTooLarge { need, have } => {
                write!(f, "response of {need} bytes exceeds {have} writable bytes")
            }
        }
    }
}

impl std::error::Error for QueueError {}

/// One raw descriptor (16 bytes on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Desc {
    addr: u64,
    len: u32,
    flags: u16,
    next: u16,
}

fn read_desc<M: QueueMemory>(
    mem: &mut M,
    layout: &QueueLayout,
    i: u16,
) -> Result<Desc, QueueError> {
    let mut b = [0u8; 16];
    mem.read(layout.desc_addr(i), &mut b)?;
    Ok(Desc {
        addr: u64::from_le_bytes(b[0..8].try_into().expect("len 8")),
        len: u32::from_le_bytes(b[8..12].try_into().expect("len 4")),
        flags: u16::from_le_bytes(b[12..14].try_into().expect("len 2")),
        next: u16::from_le_bytes(b[14..16].try_into().expect("len 2")),
    })
}

fn write_desc<M: QueueMemory>(
    mem: &mut M,
    layout: &QueueLayout,
    i: u16,
    d: Desc,
) -> Result<(), QueueError> {
    let mut b = [0u8; 16];
    b[0..8].copy_from_slice(&d.addr.to_le_bytes());
    b[8..12].copy_from_slice(&d.len.to_le_bytes());
    b[12..14].copy_from_slice(&d.flags.to_le_bytes());
    b[14..16].copy_from_slice(&d.next.to_le_bytes());
    mem.write(layout.desc_addr(i), &b)?;
    Ok(())
}

/// One buffer segment in a request chain, from the driver's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSeg {
    /// Virtual address of the buffer.
    pub va: u64,
    /// Buffer length in bytes.
    pub len: u32,
    /// Whether the *device* writes this buffer (response space).
    pub device_writes: bool,
}

/// A completed request popped from the used ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Head descriptor index identifying the request.
    pub head: u16,
    /// Bytes the device wrote into the writable buffers.
    pub written: u32,
}

/// What the driver remembers about one descriptor while it is in flight.
#[derive(Debug, Clone, Copy, Default)]
struct Shadow {
    /// The descriptor after this one in its chain (unspecified for a
    /// chain's last descriptor and for a free one).
    next: u16,
    /// Descriptors in the chain this one heads; zero when it heads no
    /// submitted chain.
    chain_len: u16,
}

/// The driver (requester) side of a virtqueue.
///
/// A descriptor id is an index: what the driver must remember about a
/// request in flight — which descriptors to take back on completion — is a
/// table with one `Shadow` per descriptor, so submitting and completing a
/// request allocates nothing.
pub struct VirtqueueDriver {
    layout: QueueLayout,
    /// Free descriptor ids, a stack: a chain takes its ids off the top, a
    /// completion pushes them back in chain order.
    free: Vec<u16>,
    /// One entry per descriptor, indexed by id.
    shadow: Vec<Shadow>,
    in_flight: usize,
    avail_idx: u16,
    last_used: u16,
}

/// Validates the VIRTIO segment order: every device-readable segment
/// precedes every device-writable one.
fn check_segment_order(segs: &[ChainSeg]) -> Result<(), QueueError> {
    if segs.is_empty() {
        return Err(QueueError::Corrupt("empty chain"));
    }
    let mut seen_writable = false;
    for s in segs {
        if s.device_writes {
            seen_writable = true;
        } else if seen_writable {
            return Err(QueueError::Corrupt("readable segment after writable"));
        }
    }
    Ok(())
}

impl VirtqueueDriver {
    /// Initializes the queue structures in shared memory and returns the
    /// driver endpoint.
    pub fn create<M: QueueMemory>(mem: &mut M, layout: QueueLayout) -> Result<Self, QueueError> {
        mem.write(layout.avail_flags(), &0u16.to_le_bytes())?;
        mem.write(layout.avail_idx(), &0u16.to_le_bytes())?;
        mem.write(layout.used_flags(), &0u16.to_le_bytes())?;
        mem.write(layout.used_idx(), &0u16.to_le_bytes())?;
        Ok(VirtqueueDriver {
            free: (0..layout.size).rev().collect(),
            shadow: vec![Shadow::default(); layout.size as usize],
            in_flight: 0,
            layout,
            avail_idx: 0,
            last_used: 0,
        })
    }

    /// The queue layout.
    pub fn layout(&self) -> &QueueLayout {
        &self.layout
    }

    /// Free descriptors remaining.
    pub fn free_descriptors(&self) -> usize {
        self.free.len()
    }

    /// Requests submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether `head` heads a chain that was submitted and not yet
    /// completed.
    pub fn is_live_head(&self, head: u16) -> bool {
        self.shadow
            .get(head as usize)
            .is_some_and(|s| s.chain_len != 0)
    }

    /// Publishes `head` in the available ring and records the `len`
    /// descriptors of its chain as in flight.
    fn publish<M: QueueMemory>(
        &mut self,
        mem: &mut M,
        head: u16,
        len: u16,
    ) -> Result<(), QueueError> {
        // Slot, then index (the index write is the release barrier on real
        // hardware; ordering is preserved here by program order).
        let slot = self.layout.slot(self.avail_idx);
        mem.write(self.layout.avail_ring(slot), &head.to_le_bytes())?;
        self.avail_idx = self.avail_idx.wrapping_add(1);
        mem.write(self.layout.avail_idx(), &self.avail_idx.to_le_bytes())?;
        self.shadow[head as usize].chain_len = len;
        self.in_flight += 1;
        Ok(())
    }

    /// Submits a descriptor chain, returning the head index.
    ///
    /// Segment order follows the VIRTIO rule: all device-readable segments
    /// must precede device-writable ones; this is validated here so the
    /// device side can rely on it.
    pub fn submit_chain<M: QueueMemory>(
        &mut self,
        mem: &mut M,
        segs: &[ChainSeg],
    ) -> Result<u16, QueueError> {
        check_segment_order(segs)?;
        if self.free.len() < segs.len() {
            return Err(QueueError::Full);
        }
        // The chain takes the top `segs.len()` ids of the free stack, top
        // first. They leave the stack whether or not every descriptor write
        // lands — a chain that faults half-written keeps its ids, as the
        // list of popped ids this replaces did (fault runs observe the free
        // count).
        let base = self.free.len() - segs.len();
        let mut ids = self.free[base..].iter().rev().copied().peekable();
        let head = *ids.peek().expect("a chain has a segment");
        let mut written = Ok(());
        for seg in segs {
            let id = ids.next().expect("one id per segment");
            let next = ids.peek().copied();
            let mut flags = if next.is_some() { DESC_F_NEXT } else { 0 };
            if seg.device_writes {
                flags |= DESC_F_WRITE;
            }
            let next = next.unwrap_or(0);
            let desc = Desc {
                addr: seg.va,
                len: seg.len,
                flags,
                next,
            };
            written = write_desc(mem, &self.layout, id, desc);
            if written.is_err() {
                break;
            }
            self.shadow[id as usize].next = next;
        }
        self.free.truncate(base);
        written?;
        self.publish(mem, head, segs.len() as u16)?;
        Ok(head)
    }

    /// Convenience: submits one request buffer (already written to `out_va`
    /// by the caller via `mem`) plus one response buffer.
    pub fn submit_request<M: QueueMemory>(
        &mut self,
        mem: &mut M,
        out_va: u64,
        out_len: u32,
        in_va: u64,
        in_len: u32,
    ) -> Result<u16, QueueError> {
        self.submit_chain(
            mem,
            &[
                ChainSeg {
                    va: out_va,
                    len: out_len,
                    device_writes: false,
                },
                ChainSeg {
                    va: in_va,
                    len: in_len,
                    device_writes: true,
                },
            ],
        )
    }

    /// Pops one completion from the used ring, reclaiming its descriptors.
    pub fn complete<M: QueueMemory>(
        &mut self,
        mem: &mut M,
    ) -> Result<Option<Completion>, QueueError> {
        let mut idx_b = [0u8; 2];
        mem.read(self.layout.used_idx(), &mut idx_b)?;
        let used_idx = u16::from_le_bytes(idx_b);
        if used_idx == self.last_used {
            return Ok(None);
        }
        let slot = self.layout.slot(self.last_used);
        let mut elem = [0u8; 8];
        mem.read(self.layout.used_ring(slot), &mut elem)?;
        let id = u32::from_le_bytes(elem[0..4].try_into().expect("len 4"));
        let written = u32::from_le_bytes(elem[4..8].try_into().expect("len 4"));
        if id >= self.layout.size as u32 {
            return Err(QueueError::Corrupt("used element id out of range"));
        }
        let head = id as u16;
        let len = std::mem::take(&mut self.shadow[head as usize].chain_len);
        if len == 0 {
            return Err(QueueError::Corrupt("completion for unknown head"));
        }
        let mut d = head;
        for _ in 0..len {
            self.free.push(d);
            d = self.shadow[d as usize].next;
        }
        self.in_flight -= 1;
        self.last_used = self.last_used.wrapping_add(1);
        Ok(Some(Completion { head, written }))
    }
}

/// A request chain popped by the device side.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DescChain {
    /// Head descriptor index (echoed into the used ring on completion).
    pub head: u16,
    /// Device-readable segments `(va, len)` in chain order.
    pub readable: Vec<(u64, u32)>,
    /// Device-writable segments `(va, len)` in chain order.
    pub writable: Vec<(u64, u32)>,
}

impl DescChain {
    /// Total readable bytes.
    pub fn readable_len(&self) -> u64 {
        self.readable.iter().map(|&(_, l)| l as u64).sum()
    }

    /// Total writable bytes.
    pub fn writable_len(&self) -> u64 {
        self.writable.iter().map(|&(_, l)| l as u64).sum()
    }
}

/// The device (server) side of a virtqueue.
pub struct VirtqueueDevice {
    layout: QueueLayout,
    last_avail: u16,
    used_idx: u16,
}

impl VirtqueueDevice {
    /// Attaches to a queue the driver already initialized.
    pub fn attach(layout: QueueLayout) -> Self {
        VirtqueueDevice {
            layout,
            last_avail: 0,
            used_idx: 0,
        }
    }

    /// Requests available but not yet popped.
    pub fn pending<M: QueueMemory>(&self, mem: &mut M) -> Result<u16, QueueError> {
        let mut idx_b = [0u8; 2];
        mem.read(self.layout.avail_idx(), &mut idx_b)?;
        Ok(u16::from_le_bytes(idx_b).wrapping_sub(self.last_avail))
    }

    /// Pops the next request chain into `chain`, reusing its segment-vector
    /// capacity. Returns `Ok(false)` when no request is pending (the chain
    /// contents are then unspecified). A device loop that pops thousands of
    /// chains holds one `DescChain` and walks descriptors without a pair of
    /// fresh `Vec`s per request.
    pub fn pop_into<M: QueueMemory>(
        &mut self,
        mem: &mut M,
        chain: &mut DescChain,
    ) -> Result<bool, QueueError> {
        chain.readable.clear();
        chain.writable.clear();
        if self.pending(mem)? == 0 {
            return Ok(false);
        }
        let slot = self.layout.slot(self.last_avail);
        let mut head_b = [0u8; 2];
        mem.read(self.layout.avail_ring(slot), &mut head_b)?;
        let head = u16::from_le_bytes(head_b);
        if head >= self.layout.size {
            return Err(QueueError::Corrupt("avail head out of range"));
        }
        chain.head = head;
        let readable = &mut chain.readable;
        let writable = &mut chain.writable;
        let mut i = head;
        let mut hops = 0u32;
        loop {
            hops += 1;
            if hops > self.layout.size as u32 {
                return Err(QueueError::Corrupt("descriptor chain cycle"));
            }
            let d = read_desc(mem, &self.layout, i)?;
            if d.flags & DESC_F_INDIRECT != 0 {
                // VIRTIO 1.1 §2.6.5.3.1: a driver sets the flag only once
                // `F_INDIRECT_DESC` is negotiated, and nothing offers it.
                return Err(QueueError::Corrupt("indirect descriptor not offered"));
            }
            if d.flags & DESC_F_WRITE != 0 {
                writable.push((d.addr, d.len));
            } else {
                if !writable.is_empty() {
                    return Err(QueueError::Corrupt("readable after writable"));
                }
                readable.push((d.addr, d.len));
            }
            if d.flags & DESC_F_NEXT == 0 {
                break;
            }
            if d.next >= self.layout.size {
                return Err(QueueError::Corrupt("descriptor next out of range"));
            }
            i = d.next;
        }
        if chain.readable_len() > MAX_CHAIN_BYTES || chain.writable_len() > MAX_CHAIN_BYTES {
            return Err(QueueError::Corrupt("chain longer than 2^32 bytes"));
        }
        self.last_avail = self.last_avail.wrapping_add(1);
        Ok(true)
    }

    /// Reads and concatenates a chain's readable segments into `out`,
    /// clearing it first and reusing its capacity. Each segment is read in
    /// place, one page-bounded piece at a time (the chunks DMA charges for):
    /// a segment's length is the peer's claim, so `out` grows with the bytes
    /// read, never to a length the peer names.
    pub fn read_request_into<M: QueueMemory>(
        &self,
        mem: &mut M,
        chain: &DescChain,
        out: &mut Vec<u8>,
    ) -> Result<(), QueueError> {
        out.clear();
        for &(va, len) in &chain.readable {
            let (mut at, mut left) = (va, len as u64);
            while left > 0 {
                let piece = (PAGE_SIZE - at % PAGE_SIZE).min(left);
                let off = out.len();
                out.resize(off + piece as usize, 0);
                mem.read(at, &mut out[off..])?;
                at = at.wrapping_add(piece);
                left -= piece;
            }
        }
        Ok(())
    }

    /// Scatters `data` into a chain's writable segments.
    ///
    /// Returns the byte count to report in the used element.
    pub fn write_response<M: QueueMemory>(
        &self,
        mem: &mut M,
        chain: &DescChain,
        data: &[u8],
    ) -> Result<u32, QueueError> {
        if (data.len() as u64) > chain.writable_len() {
            return Err(QueueError::ResponseTooLarge {
                need: data.len() as u64,
                have: chain.writable_len(),
            });
        }
        let mut off = 0usize;
        for &(va, len) in &chain.writable {
            if off >= data.len() {
                break;
            }
            let chunk = (len as usize).min(data.len() - off);
            mem.write(va, &data[off..off + chunk])?;
            off += chunk;
        }
        Ok(data.len() as u32)
    }

    /// Publishes a completion for `head` with `written` response bytes.
    pub fn push_used<M: QueueMemory>(
        &mut self,
        mem: &mut M,
        head: u16,
        written: u32,
    ) -> Result<(), QueueError> {
        if head >= self.layout.size {
            return Err(QueueError::Corrupt("push_used head out of range"));
        }
        let slot = self.layout.slot(self.used_idx);
        let mut elem = [0u8; 8];
        elem[0..4].copy_from_slice(&(head as u32).to_le_bytes());
        elem[4..8].copy_from_slice(&written.to_le_bytes());
        mem.write(self.layout.used_ring(slot), &elem)?;
        self.used_idx = self.used_idx.wrapping_add(1);
        mem.write(self.layout.used_idx(), &self.used_idx.to_le_bytes())?;
        Ok(())
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::FlatMemory;
    use proptest::prelude::*;

    proptest! {
        /// Random interleavings of submits and serves: every submitted
        /// request is completed exactly once, descriptors never leak, and
        /// payloads survive the ring round trip.
        #[test]
        fn prop_ring_conserves_requests(
            schedule in proptest::collection::vec(any::<bool>(), 1..300),
            qsize_pow in 1u32..6,
        ) {
            let size = 1u16 << qsize_pow;
            let mut mem = FlatMemory::new(256 * 1024);
            let layout = QueueLayout::new(0x100, size);
            let mut drv = VirtqueueDriver::create(&mut mem, layout).unwrap();
            let mut dev = VirtqueueDevice::attach(layout);
            let mut seq = 0u32;
            let mut submitted = 0u64;
            let mut served = 0u64;
            let mut completed = 0u64;
            let (mut chain, mut req) = (DescChain::default(), Vec::new());
            for do_submit in schedule {
                if do_submit {
                    let out_va = 0x8000 + (seq as u64 % 64) * 0x100;
                    let in_va = 0x1_0000 + (seq as u64 % 64) * 0x100;
                    mem.write(out_va, &seq.to_le_bytes()).unwrap();
                    match drv.submit_request(&mut mem, out_va, 4, in_va, 8) {
                        Ok(_) => {
                            submitted += 1;
                            seq += 1;
                        }
                        Err(QueueError::Full) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                } else if dev.pop_into(&mut mem, &mut chain).unwrap() {
                    dev.read_request_into(&mut mem, &chain, &mut req).unwrap();
                    prop_assert_eq!(req.len(), 4);
                    let mut resp = req.clone();
                    resp.extend_from_slice(&req);
                    let n = dev.write_response(&mut mem, &chain, &resp).unwrap();
                    dev.push_used(&mut mem, chain.head, n).unwrap();
                    served += 1;
                }
                while let Some(c) = drv.complete(&mut mem).unwrap() {
                    prop_assert_eq!(c.written, 8);
                    completed += 1;
                }
            }
            // Drain everything still in flight.
            while dev.pop_into(&mut mem, &mut chain).unwrap() {
                dev.read_request_into(&mut mem, &chain, &mut req).unwrap();
                let mut resp = req.clone();
                resp.extend_from_slice(&req);
                let n = dev.write_response(&mut mem, &chain, &resp).unwrap();
                dev.push_used(&mut mem, chain.head, n).unwrap();
                served += 1;
            }
            while let Some(_c) = drv.complete(&mut mem).unwrap() {
                completed += 1;
            }
            prop_assert_eq!(served, submitted);
            prop_assert_eq!(completed, submitted);
            prop_assert_eq!(drv.in_flight(), 0);
            prop_assert_eq!(drv.free_descriptors(), size as usize);
        }

        /// Reading a request piece by piece gives the same bytes as one
        /// read of each whole segment, wherever the segments start and
        /// however many pages they cross.
        #[test]
        fn prop_request_reads_as_its_segments(
            segs in proptest::collection::vec((0x8000u64..0x3_0000, 0u32..0x3000), 1..7),
        ) {
            let mut mem = FlatMemory::new(256 * 1024);
            let fill: Vec<u8> = (0..0x3_0000u32).map(|i| (i ^ (i >> 8)) as u8).collect();
            mem.write(0x8000, &fill[0x8000..]).unwrap();
            let layout = QueueLayout::new(0x100, 8);
            let mut drv = VirtqueueDriver::create(&mut mem, layout).unwrap();
            let mut dev = VirtqueueDevice::attach(layout);
            let chain: Vec<ChainSeg> = segs
                .iter()
                .map(|&(va, len)| ChainSeg { va, len, device_writes: false })
                .collect();
            drv.submit_chain(&mut mem, &chain).unwrap();
            let mut popped = DescChain::default();
            prop_assert!(dev.pop_into(&mut mem, &mut popped).unwrap(), "one pending");
            let mut want = Vec::new();
            for &(va, len) in &segs {
                let mut b = vec![0u8; len as usize];
                mem.read(va, &mut b).unwrap();
                want.extend_from_slice(&b);
            }
            let mut got = Vec::new();
            dev.read_request_into(&mut mem, &popped, &mut got).unwrap();
            prop_assert_eq!(got, want);
        }
    }
}

lastcpu_snap::fields! { VirtqueueDriver |self| (VirtqueueDriver::detached()) { layout, ..Descriptors } }

/// The free list, the ring cursors, then the chains in flight in ascending
/// head order (the table's own order), each its descriptor ids. A restore
/// refuses a descriptor id out of range or owned twice (by the free list
/// and a chain, or by two chains): either would later hand one descriptor
/// to two requests.
struct Descriptors;

impl lastcpu_snap::Span<VirtqueueDriver> for Descriptors {
    fn put(&self, d: &VirtqueueDriver, w: &mut lastcpu_snap::SnapWriter) {
        use lastcpu_snap::Field;
        d.free.put(w);
        (d.avail_idx, d.last_used, d.in_flight).put(w);
        for (head, s) in (0u16..).zip(&d.shadow).filter(|(_, s)| s.chain_len != 0) {
            head.put(w);
            w.put_len(s.chain_len as usize);
            let mut id = head;
            for _ in 0..s.chain_len {
                id.put(w);
                id = d.shadow[id as usize].next;
            }
        }
    }

    fn take(
        &self,
        d: &mut VirtqueueDriver,
        r: &mut lastcpu_snap::SnapReader<'_>,
    ) -> lastcpu_snap::Result<()> {
        let size = d.layout.size as usize;
        let mut owned = vec![false; size];
        let mut claim = |r: &lastcpu_snap::SnapReader<'_>, id: u16| match owned.get_mut(id as usize)
        {
            None => Err(r.corrupt(format!("descriptor {id} in a queue of {size}"))),
            Some(o) if *o => Err(r.corrupt(format!("descriptor {id} owned twice"))),
            Some(o) => {
                *o = true;
                Ok(())
            }
        };
        let n = r.len()?;
        if n > size {
            return Err(r.corrupt(format!("{n} free descriptors in a queue of {size}")));
        }
        d.free = Vec::with_capacity(size);
        for _ in 0..n {
            let id = r.u16()?;
            claim(r, id)?;
            d.free.push(id);
        }
        d.avail_idx = r.u16()?;
        d.last_used = r.u16()?;
        d.in_flight = r.len()?;
        if d.in_flight > size {
            return Err(r.corrupt(format!("{} chains in a queue of {size}", d.in_flight)));
        }
        d.shadow = vec![Shadow::default(); size];
        for _ in 0..d.in_flight {
            let head = r.u16()?;
            let k = r.len()?;
            if k == 0 || k > size {
                return Err(r.corrupt(format!("chain of {k} in a queue of {size}")));
            }
            let mut id = r.u16()?;
            if id != head {
                return Err(r.corrupt(format!("chain {head} starts at descriptor {id}")));
            }
            claim(r, id)?;
            for _ in 1..k {
                let next = r.u16()?;
                claim(r, next)?;
                d.shadow[id as usize].next = next;
                id = next;
            }
            d.shadow[head as usize].chain_len = k as u16;
        }
        Ok(())
    }
}

lastcpu_snap::fields! { VirtqueueDevice |self| (VirtqueueDevice::attach(QueueLayout::new(0, 1))) {
    layout, last_avail, used_idx,
} }

impl VirtqueueDriver {
    /// A driver endpoint with empty state, intended as the target of a
    /// [`lastcpu_snap::Restore`] — it touches no queue memory (unlike
    /// [`VirtqueueDriver::create`]) and is unusable until restored.
    pub fn detached() -> Self {
        VirtqueueDriver {
            layout: QueueLayout::new(0, 1),
            free: Vec::new(),
            shadow: Vec::new(),
            in_flight: 0,
            avail_idx: 0,
            last_used: 0,
        }
    }
}

/// The driver as it was before descriptor ids became table indices: a map
/// from head to the list of ids its chain took. Kept as the reference the
/// table is compared against.
#[cfg(test)]
mod oracle {
    use std::collections::HashMap;

    use super::*;

    pub struct MapDriver {
        pub layout: QueueLayout,
        pub free: Vec<u16>,
        pub chains: HashMap<u16, Vec<u16>>,
        pub avail_idx: u16,
        pub last_used: u16,
    }

    impl MapDriver {
        pub fn create<M: QueueMemory>(mem: &mut M, layout: QueueLayout) -> Self {
            VirtqueueDriver::create(mem, layout).expect("ring fits");
            MapDriver {
                layout,
                free: (0..layout.size).rev().collect(),
                chains: HashMap::new(),
                avail_idx: 0,
                last_used: 0,
            }
        }

        fn publish<M: QueueMemory>(
            &mut self,
            mem: &mut M,
            ids: Vec<u16>,
        ) -> Result<u16, QueueError> {
            let head = ids[0];
            let slot = self.layout.slot(self.avail_idx);
            mem.write(self.layout.avail_ring(slot), &head.to_le_bytes())?;
            self.avail_idx = self.avail_idx.wrapping_add(1);
            mem.write(self.layout.avail_idx(), &self.avail_idx.to_le_bytes())?;
            self.chains.insert(head, ids);
            Ok(head)
        }

        pub fn submit_chain<M: QueueMemory>(
            &mut self,
            mem: &mut M,
            segs: &[ChainSeg],
        ) -> Result<u16, QueueError> {
            check_segment_order(segs)?;
            if self.free.len() < segs.len() {
                return Err(QueueError::Full);
            }
            let ids: Vec<u16> = (0..segs.len())
                .map(|_| self.free.pop().expect("checked length"))
                .collect();
            for (k, (seg, &id)) in segs.iter().zip(&ids).enumerate() {
                let last = k == segs.len() - 1;
                let mut flags = if last { 0 } else { DESC_F_NEXT };
                if seg.device_writes {
                    flags |= DESC_F_WRITE;
                }
                let desc = Desc {
                    addr: seg.va,
                    len: seg.len,
                    flags,
                    next: if last { 0 } else { ids[k + 1] },
                };
                write_desc(mem, &self.layout, id, desc)?;
            }
            self.publish(mem, ids)
        }

        pub fn complete<M: QueueMemory>(
            &mut self,
            mem: &mut M,
        ) -> Result<Option<Completion>, QueueError> {
            let mut idx_b = [0u8; 2];
            mem.read(self.layout.used_idx(), &mut idx_b)?;
            if u16::from_le_bytes(idx_b) == self.last_used {
                return Ok(None);
            }
            let mut elem = [0u8; 8];
            mem.read(
                self.layout.used_ring(self.layout.slot(self.last_used)),
                &mut elem,
            )?;
            let id = u32::from_le_bytes(elem[0..4].try_into().expect("len 4"));
            let written = u32::from_le_bytes(elem[4..8].try_into().expect("len 4"));
            if id >= self.layout.size as u32 {
                return Err(QueueError::Corrupt("used element id out of range"));
            }
            let head = id as u16;
            let ids = self
                .chains
                .remove(&head)
                .ok_or(QueueError::Corrupt("completion for unknown head"))?;
            self.free.extend(ids);
            self.last_used = self.last_used.wrapping_add(1);
            Ok(Some(Completion { head, written }))
        }

        pub fn snapshot_bytes(&self) -> Vec<u8> {
            let mut w = lastcpu_snap::SnapWriter::new();
            self.layout.encode(&mut w);
            w.put_len(self.free.len());
            for &d in &self.free {
                w.put_u16(d);
            }
            w.put_u16(self.avail_idx);
            w.put_u16(self.last_used);
            let mut heads: Vec<_> = self.chains.keys().copied().collect();
            heads.sort_unstable();
            w.put_len(heads.len());
            for h in heads {
                w.put_u16(h);
                let ids = &self.chains[&h];
                w.put_len(ids.len());
                for &d in ids {
                    w.put_u16(d);
                }
            }
            w.into_bytes()
        }
    }
}

#[cfg(test)]
mod table_tests {
    use super::oracle::MapDriver;
    use super::*;
    use crate::FlatMemory;
    use lastcpu_snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
    use proptest::prelude::*;

    const MEM: usize = 64 * 1024;
    const BUF: u64 = 0x8000;

    fn snapshot_bytes(d: &VirtqueueDriver) -> Vec<u8> {
        let mut w = SnapWriter::new();
        d.snapshot(&mut w);
        w.into_bytes()
    }

    /// One step of a driver's life: submit a chain of `readable + writable`
    /// segments, serve up to `n` requests on the device side (out of order
    /// when `reverse`), or drain completions.
    #[derive(Debug, Clone)]
    enum Op {
        Submit { readable: usize, writable: usize },
        Serve { n: usize, reverse: bool },
        Complete,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..4, 0usize..4)
                .prop_map(|(readable, writable)| Op::Submit { readable, writable }),
            (1usize..5, any::<bool>()).prop_map(|(n, reverse)| Op::Serve { n, reverse }),
            (0u8..1).prop_map(|_| Op::Complete),
        ]
    }

    fn segs(readable: usize, writable: usize) -> Vec<ChainSeg> {
        (0..readable + writable)
            .map(|k| ChainSeg {
                va: BUF + 0x100 * k as u64,
                len: 16,
                device_writes: k >= readable,
            })
            .collect()
    }

    proptest! {
        /// The table driver and the map driver it replaced, fed the same
        /// submits, completions and memory faults, return the same heads
        /// and errors, keep the same free stack, leave the same bytes in
        /// shared memory and write the same snapshot section — which the
        /// table driver then restores to an equal driver.
        #[test]
        fn prop_table_driver_matches_the_chain_map(
            ops in proptest::collection::vec(op(), 1..120),
            qsize_pow in 1u32..5,
            // Where shared memory ends: inside the ring structures, inside
            // the buffers, or (mostly) beyond everything the run touches.
            mem_kind in 0u8..4,
            mem_cut in 0usize..0x400,
        ) {
            let mem_size = match mem_kind {
                0 => 0x100 + mem_cut / 4,
                1 => BUF as usize + mem_cut,
                _ => MEM,
            };
            let layout = QueueLayout::new(0x100, 1 << qsize_pow);
            let (mut mem_t, mut mem_o) = (FlatMemory::new(MEM), FlatMemory::new(MEM));
            let mut table = VirtqueueDriver::create(&mut mem_t, layout).unwrap();
            let mut map = MapDriver::create(&mut mem_o, layout);
            // Both sides now run against the smaller memory (the rings were
            // initialised in the large one, so `create` is not what faults).
            let shrink = |m: FlatMemory| {
                let mut small = FlatMemory::new(mem_size);
                let keep = mem_size.min(MEM);
                let mut buf = vec![0u8; keep];
                let mut m = m;
                m.read(0, &mut buf).unwrap();
                small.write(0, &buf).unwrap();
                small
            };
            let (mut mem_t, mut mem_o) = (shrink(mem_t), shrink(mem_o));
            let mut dev = VirtqueueDevice::attach(layout);
            for op in ops {
                match op {
                    Op::Submit { readable, writable } => {
                        let segs = segs(readable, writable);
                        let t = table.submit_chain(&mut mem_t, &segs);
                        prop_assert_eq!(t, map.submit_chain(&mut mem_o, &segs));
                    }
                    Op::Serve { n, reverse } => {
                        // The device pops from the table side's memory and
                        // publishes the same used elements into both.
                        let (mut heads, mut chain) = (Vec::new(), DescChain::default());
                        while heads.len() < n {
                            match dev.pop_into(&mut mem_t, &mut chain) {
                                Ok(true) => heads.push(chain.head),
                                Ok(false) | Err(_) => break,
                            }
                        }
                        if reverse {
                            heads.reverse();
                        }
                        let mut twin = VirtqueueDevice::attach(layout);
                        twin.used_idx = dev.used_idx;
                        for h in heads {
                            let a = dev.push_used(&mut mem_t, h, 7);
                            let b = twin.push_used(&mut mem_o, h, 7);
                            prop_assert_eq!(a, b);
                        }
                    }
                    Op::Complete => loop {
                        let (t, o) = (table.complete(&mut mem_t), map.complete(&mut mem_o));
                        prop_assert_eq!(&t, &o);
                        if !matches!(t, Ok(Some(_))) {
                            break;
                        }
                    },
                }
                prop_assert_eq!(&table.free, &map.free);
                prop_assert_eq!(table.in_flight(), map.chains.len());
                for h in 0..layout.size {
                    prop_assert_eq!(table.is_live_head(h), map.chains.contains_key(&h));
                }
                let bytes = snapshot_bytes(&table);
                prop_assert_eq!(&bytes, &map.snapshot_bytes());
                let mut back = VirtqueueDriver::detached();
                let mut r = SnapReader::new("driver", &bytes);
                back.restore(&mut r).unwrap();
                r.finish().unwrap();
                prop_assert_eq!(snapshot_bytes(&back), bytes);
            }
            let (mut a, mut b) = (vec![0u8; mem_size], vec![0u8; mem_size]);
            mem_t.read(0, &mut a).unwrap();
            mem_o.read(0, &mut b).unwrap();
            prop_assert_eq!(a, b);
        }
    }

    /// A driver section as `Snapshot` lays it out, with any free list and
    /// chains the caller likes.
    fn section(size: u16, free: &[u16], chains: &[(u16, &[u16])]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        let mut layout = QueueLayout::new(0x100, 4);
        layout.size = size;
        layout.encode(&mut w);
        w.put_len(free.len());
        free.iter().for_each(|&d| w.put_u16(d));
        w.put_u16(1);
        w.put_u16(0);
        w.put_len(chains.len());
        for (head, ids) in chains {
            w.put_u16(*head);
            w.put_len(ids.len());
            ids.iter().for_each(|&d| w.put_u16(d));
        }
        w.into_bytes()
    }

    fn restore(bytes: &[u8]) -> Result<(), SnapError> {
        let mut d = VirtqueueDriver::detached();
        d.restore(&mut SnapReader::new("driver", bytes))
    }

    #[test]
    fn restore_accepts_what_snapshot_wrote() {
        let mut mem = FlatMemory::new(MEM);
        let mut drv = VirtqueueDriver::create(&mut mem, QueueLayout::new(0x100, 4)).unwrap();
        drv.submit_request(&mut mem, BUF, 4, BUF + 0x100, 4)
            .unwrap();
        let bytes = snapshot_bytes(&drv);
        assert_eq!(bytes, section(4, &[3, 2], &[(0, &[0, 1])]));
        restore(&bytes).expect("own section restores");
        // A chain whose descriptor write faulted keeps its ids: a section
        // that accounts for fewer than every descriptor is legitimate.
        restore(&section(4, &[3], &[(0, &[0, 1])])).expect("a leaked descriptor restores");
    }

    #[test]
    fn restore_rejects_a_descriptor_beyond_the_ring() {
        for hostile in [
            section(4, &[3, 4], &[(0, &[0, 1])]),
            section(4, &[3, 2], &[(0, &[0, 4])]),
            section(4, &[3, 2], &[(7, &[7, 1])]),
        ] {
            assert!(matches!(restore(&hostile), Err(SnapError::Corrupt { .. })));
        }
    }

    #[test]
    fn restore_rejects_a_descriptor_owned_twice() {
        for hostile in [
            // Free and in a chain; free twice; in two chains; twice in one.
            section(4, &[3, 0], &[(0, &[0, 1])]),
            section(4, &[3, 3], &[(0, &[0, 1])]),
            section(4, &[], &[(0, &[0, 1]), (2, &[2, 1])]),
            section(4, &[], &[(0, &[0, 0])]),
        ] {
            assert!(matches!(restore(&hostile), Err(SnapError::Corrupt { .. })));
        }
    }

    #[test]
    fn restore_rejects_a_malformed_chain_or_ring() {
        for hostile in [
            section(4, &[3, 2], &[(1, &[0, 1])]), // does not start at its head
            section(4, &[3, 2], &[(0, &[])]),     // empty
            section(12, &[3, 2], &[]),            // a size `QueueLayout::new` refuses
            section(0, &[], &[]),
        ] {
            assert!(matches!(restore(&hostile), Err(SnapError::Corrupt { .. })));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatMemory;

    fn setup(size: u16) -> (FlatMemory, VirtqueueDriver, VirtqueueDevice) {
        let mut mem = FlatMemory::new(64 * 1024);
        let layout = QueueLayout::new(0x100, size);
        let drv = VirtqueueDriver::create(&mut mem, layout).unwrap();
        let dev = VirtqueueDevice::attach(layout);
        (mem, drv, dev)
    }

    /// Buffer area beyond the ring structures.
    const BUF0: u64 = 0x4000;
    const BUF1: u64 = 0x5000;

    #[test]
    fn echo_round_trip() {
        let (mut mem, mut drv, mut dev) = setup(8);
        mem.write(BUF0, b"ping").unwrap();
        let head = drv.submit_request(&mut mem, BUF0, 4, BUF1, 16).unwrap();
        assert_eq!(drv.in_flight(), 1);

        let (mut chain, mut req) = (DescChain::default(), Vec::new());
        assert!(dev.pop_into(&mut mem, &mut chain).unwrap(), "one pending");
        assert_eq!(chain.head, head);
        dev.read_request_into(&mut mem, &chain, &mut req).unwrap();
        assert_eq!(req, b"ping");
        let n = dev.write_response(&mut mem, &chain, b"pong!").unwrap();
        dev.push_used(&mut mem, chain.head, n).unwrap();

        let c = drv.complete(&mut mem).unwrap().expect("completion");
        assert_eq!(c.head, head);
        assert_eq!(c.written, 5);
        let mut resp = vec![0u8; 5];
        mem.read(BUF1, &mut resp).unwrap();
        assert_eq!(resp, b"pong!");
        assert_eq!(drv.in_flight(), 0);
        assert_eq!(drv.free_descriptors(), 8);
    }

    #[test]
    fn multiple_outstanding_complete_in_order_served() {
        let (mut mem, mut drv, mut dev) = setup(8);
        mem.write(BUF0, b"a").unwrap();
        mem.write(BUF0 + 100, b"b").unwrap();
        let h1 = drv.submit_request(&mut mem, BUF0, 1, BUF1, 8).unwrap();
        let h2 = drv
            .submit_request(&mut mem, BUF0 + 100, 1, BUF1 + 100, 8)
            .unwrap();
        // Device serves out of order: h2 first.
        let (mut c1, mut c2) = (DescChain::default(), DescChain::default());
        assert!(dev.pop_into(&mut mem, &mut c1).unwrap());
        assert!(dev.pop_into(&mut mem, &mut c2).unwrap());
        assert_eq!((c1.head, c2.head), (h1, h2));
        dev.push_used(&mut mem, c2.head, 0).unwrap();
        dev.push_used(&mut mem, c1.head, 0).unwrap();
        let f1 = drv.complete(&mut mem).unwrap().unwrap();
        let f2 = drv.complete(&mut mem).unwrap().unwrap();
        assert_eq!(f1.head, h2);
        assert_eq!(f2.head, h1);
        assert!(drv.complete(&mut mem).unwrap().is_none());
    }

    #[test]
    fn queue_full_reports_backpressure() {
        let (mut mem, mut drv, _) = setup(2);
        drv.submit_request(&mut mem, BUF0, 1, BUF1, 1).unwrap();
        // 2 descriptors used; next 2-desc chain cannot fit.
        assert_eq!(
            drv.submit_request(&mut mem, BUF0, 1, BUF1, 1),
            Err(QueueError::Full)
        );
    }

    #[test]
    fn empty_queue_pops_nothing() {
        let (mut mem, mut drv, mut dev) = setup(4);
        assert!(!dev.pop_into(&mut mem, &mut DescChain::default()).unwrap());
        assert!(drv.complete(&mut mem).unwrap().is_none());
        assert_eq!(dev.pending(&mut mem).unwrap(), 0);
    }

    #[test]
    fn indices_wrap_around_u16() {
        let (mut mem, mut drv, mut dev) = setup(2);
        mem.write(BUF0, b"x").unwrap();
        let mut chain = DescChain::default();
        // Drive > 65536 round trips through a size-2 queue so both the
        // free-running indices and the ring slots wrap many times.
        for i in 0..70_000u32 {
            let head = drv.submit_request(&mut mem, BUF0, 1, BUF1, 4).unwrap();
            assert!(dev.pop_into(&mut mem, &mut chain).unwrap(), "iter {i}");
            dev.push_used(&mut mem, chain.head, 1).unwrap();
            let c = drv.complete(&mut mem).unwrap().unwrap();
            assert_eq!(c.head, head);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn size_12_ring_rejected_at_construction() {
        // Regression guard for the wraparound bug class: a 12-entry ring
        // would make `slot(cursor)` and the wrapped cursor distance diverge
        // after the first u16 wrap (65536 % 12 != 0), so non-power-of-two
        // sizes must never get past layout construction.
        QueueLayout::new(0x100, 12);
    }

    #[test]
    fn indices_wrap_around_u16_size_16_with_outstanding() {
        // Drive > 65536 descriptors through a size-16 ring while keeping
        // several requests outstanding, so the free-running u16 cursors wrap
        // multiple times with the ring partially occupied. Before the
        // mask-based slot reduction this was the configuration where slot
        // math and free-count could disagree.
        let (mut mem, mut drv, mut dev) = setup(16);
        mem.write(BUF0, b"x").unwrap();
        let mut submitted = 0u64;
        let mut completed = 0u64;
        let mut chain = DescChain::default();
        // Each request uses 2 descriptors -> up to 8 outstanding.
        while completed < 70_000 {
            while drv.free_descriptors() >= 2 && submitted - completed < 8 {
                drv.submit_request(&mut mem, BUF0, 1, BUF1, 4).unwrap();
                submitted += 1;
            }
            // Serve half of what is pending, completing out of lockstep
            // with submission so cursors drift apart.
            let pending = dev.pending(&mut mem).unwrap();
            let serve = (pending / 2).max(1);
            for _ in 0..serve {
                assert!(dev.pop_into(&mut mem, &mut chain).unwrap(), "pending chain");
                dev.push_used(&mut mem, chain.head, 1).unwrap();
            }
            while let Some(c) = drv.complete(&mut mem).unwrap() {
                assert_eq!(c.written, 1);
                completed += 1;
            }
        }
        assert!(submitted > 65_536, "must cross the u16 wrap");
        assert_eq!(drv.in_flight() as u64, submitted - completed);
        // Drain the tail.
        while dev.pop_into(&mut mem, &mut chain).unwrap() {
            dev.push_used(&mut mem, chain.head, 1).unwrap();
        }
        while drv.complete(&mut mem).unwrap().is_some() {
            completed += 1;
        }
        assert_eq!(submitted, completed);
        assert_eq!(drv.free_descriptors(), 16);
        assert_eq!(drv.in_flight(), 0);
    }

    #[test]
    fn readable_after_writable_rejected_on_submit() {
        let (mut mem, mut drv, _) = setup(4);
        let err = drv.submit_chain(
            &mut mem,
            &[
                ChainSeg {
                    va: BUF0,
                    len: 4,
                    device_writes: true,
                },
                ChainSeg {
                    va: BUF1,
                    len: 4,
                    device_writes: false,
                },
            ],
        );
        assert_eq!(
            err,
            Err(QueueError::Corrupt("readable segment after writable"))
        );
    }

    #[test]
    fn empty_chain_rejected() {
        let (mut mem, mut drv, _) = setup(4);
        assert!(matches!(
            drv.submit_chain(&mut mem, &[]),
            Err(QueueError::Corrupt(_))
        ));
    }

    #[test]
    fn device_detects_descriptor_cycle() {
        let (mut mem, mut drv, mut dev) = setup(4);
        drv.submit_request(&mut mem, BUF0, 1, BUF1, 1).unwrap();
        // Corrupt the head descriptor to point at itself with NEXT set.
        let layout = *drv.layout();
        let mut b = [0u8; 16];
        mem.read(layout.desc_addr(0), &mut b).unwrap();
        b[12] |= DESC_F_NEXT as u8;
        b[14] = 0; // next = 0 (itself or within chain)
        b[15] = 0;
        mem.write(layout.desc_addr(0), &b).unwrap();
        assert!(matches!(
            dev.pop_into(&mut mem, &mut DescChain::default()),
            Err(QueueError::Corrupt(_))
        ));
    }

    #[test]
    fn device_detects_out_of_range_head() {
        let (mut mem, mut drv, mut dev) = setup(4);
        drv.submit_request(&mut mem, BUF0, 1, BUF1, 1).unwrap();
        let layout = *drv.layout();
        // Overwrite the published slot with a bogus head.
        mem.write(layout.avail_ring(0), &999u16.to_le_bytes())
            .unwrap();
        assert_eq!(
            dev.pop_into(&mut mem, &mut DescChain::default()),
            Err(QueueError::Corrupt("avail head out of range"))
        );
    }

    #[test]
    fn response_too_large_detected() {
        let (mut mem, mut drv, mut dev) = setup(4);
        drv.submit_request(&mut mem, BUF0, 1, BUF1, 4).unwrap();
        let mut chain = DescChain::default();
        assert!(dev.pop_into(&mut mem, &mut chain).unwrap());
        assert_eq!(
            dev.write_response(&mut mem, &chain, &[0u8; 100]),
            Err(QueueError::ResponseTooLarge { need: 100, have: 4 })
        );
    }

    #[test]
    fn response_scatters_across_segments() {
        let (mut mem, mut drv, mut dev) = setup(8);
        let head = drv
            .submit_chain(
                &mut mem,
                &[
                    ChainSeg {
                        va: BUF0,
                        len: 1,
                        device_writes: false,
                    },
                    ChainSeg {
                        va: BUF1,
                        len: 3,
                        device_writes: true,
                    },
                    ChainSeg {
                        va: BUF1 + 0x100,
                        len: 5,
                        device_writes: true,
                    },
                ],
            )
            .unwrap();
        let mut chain = DescChain::default();
        assert!(dev.pop_into(&mut mem, &mut chain).unwrap());
        assert_eq!(chain.writable.len(), 2);
        let n = dev.write_response(&mut mem, &chain, b"abcdefgh").unwrap();
        dev.push_used(&mut mem, head, n).unwrap();
        let mut first = [0u8; 3];
        let mut second = [0u8; 5];
        mem.read(BUF1, &mut first).unwrap();
        mem.read(BUF1 + 0x100, &mut second).unwrap();
        assert_eq!(&first, b"abc");
        assert_eq!(&second, b"defgh");
    }

    #[test]
    fn completion_with_unknown_head_is_corrupt() {
        let (mut mem, mut drv, _) = setup(4);
        // Forge a used element the driver never submitted.
        let layout = *drv.layout();
        let mut elem = [0u8; 8];
        elem[0..4].copy_from_slice(&2u32.to_le_bytes());
        mem.write(layout.used_ring(0), &elem).unwrap();
        mem.write(layout.used_idx(), &1u16.to_le_bytes()).unwrap();
        assert!(matches!(
            drv.complete(&mut mem),
            Err(QueueError::Corrupt(_))
        ));
    }

    #[test]
    fn an_indirect_descriptor_is_refused() {
        let (mut mem, _drv, mut dev) = setup(4);
        let layout = dev.layout;
        // A well-formed one-entry table at BUF0 (4 readable bytes at BUF1)
        // and a ring descriptor naming it, published by hand: no driver
        // here writes one.
        let mut entry = [0u8; 16];
        entry[0..8].copy_from_slice(&BUF1.to_le_bytes());
        entry[8..12].copy_from_slice(&4u32.to_le_bytes());
        mem.write(BUF0, &entry).unwrap();
        let indirect = Desc {
            addr: BUF0,
            len: 16,
            flags: DESC_F_INDIRECT,
            next: 0,
        };
        write_desc(&mut mem, &layout, 0, indirect).unwrap();
        mem.write(layout.avail_ring(0), &0u16.to_le_bytes())
            .unwrap();
        mem.write(layout.avail_idx(), &1u16.to_le_bytes()).unwrap();
        let mut chain = DescChain::default();
        assert_eq!(
            dev.pop_into(&mut mem, &mut chain),
            Err(QueueError::Corrupt("indirect descriptor not offered"))
        );
        assert_eq!(dev.last_avail, 0);
        assert_eq!(dev.pending(&mut mem).unwrap(), 1);
    }

    #[test]
    fn a_peers_lengths_size_no_buffer() {
        let seg = |va, len, device_writes| ChainSeg {
            va,
            len,
            device_writes,
        };
        let mut chain = DescChain::default();
        // More than 2^32 bytes either way is refused at pop.
        let huge = [seg(BUF0, u32::MAX, false); 8];
        let huge_response = [
            seg(BUF0, 4, false),
            seg(BUF1, u32::MAX, true),
            seg(BUF1, 2, true),
        ];
        for segs in [&huge[..], &huge_response[..]] {
            let (mut mem, mut drv, mut dev) = setup(8);
            drv.submit_chain(&mut mem, segs).unwrap();
            assert_eq!(
                dev.pop_into(&mut mem, &mut chain),
                Err(QueueError::Corrupt("chain longer than 2^32 bytes"))
            );
            assert_eq!(dev.last_avail, 0);
        }
        // One segment of u32::MAX bytes is within the bound; reading it
        // faults where memory ends, having grown the buffer only by what
        // was read.
        let (mut mem, mut drv, mut dev) = setup(8);
        drv.submit_chain(&mut mem, &[seg(BUF0, u32::MAX, false)])
            .unwrap();
        assert!(dev.pop_into(&mut mem, &mut chain).unwrap());
        let mut out = Vec::new();
        assert_eq!(
            dev.read_request_into(&mut mem, &chain, &mut out),
            Err(QueueError::Fault(MemFault {
                va: mem.bytes.len() as u64,
                write: false
            }))
        );
        assert!(out.capacity() <= mem.bytes.len() + PAGE_SIZE as usize);
    }

    #[test]
    fn a_request_across_pages_reads_whole() {
        let (mut mem, mut drv, mut dev) = setup(8);
        let data: Vec<u8> = (0..0x2100u32).map(|i| (i * 7) as u8).collect();
        mem.write(BUF0 + 0xF00, &data).unwrap();
        let seg = |va, len| ChainSeg {
            va,
            len,
            device_writes: false,
        };
        drv.submit_chain(
            &mut mem,
            &[seg(BUF0 + 0xF00, 0x10), seg(BUF0 + 0xF10, 0x20F0)],
        )
        .unwrap();
        let mut chain = DescChain::default();
        assert!(dev.pop_into(&mut mem, &mut chain).unwrap());
        let mut req = Vec::new();
        dev.read_request_into(&mut mem, &chain, &mut req).unwrap();
        assert_eq!(req, data);
    }

    #[test]
    fn an_indirect_flag_mid_chain_is_refused() {
        let (mut mem, mut drv, mut dev) = setup(4);
        drv.submit_request(&mut mem, BUF0, 4, BUF1, 4).unwrap();
        // The chain's second (writable) descriptor claims to be a table.
        let layout = *drv.layout();
        let mut head_b = [0u8; 2];
        mem.read(layout.avail_ring(0), &mut head_b).unwrap();
        let head = read_desc(&mut mem, &layout, u16::from_le_bytes(head_b)).unwrap();
        let mut tail = read_desc(&mut mem, &layout, head.next).unwrap();
        tail.flags |= DESC_F_INDIRECT;
        write_desc(&mut mem, &layout, head.next, tail).unwrap();
        assert_eq!(
            dev.pop_into(&mut mem, &mut DescChain::default()),
            Err(QueueError::Corrupt("indirect descriptor not offered"))
        );
        assert_eq!(dev.last_avail, 0);
    }

    #[test]
    fn a_chain_of_exactly_2_32_bytes_pops() {
        let seg = |va, len, device_writes| ChainSeg {
            va,
            len,
            device_writes,
        };
        // u32::MAX + 1 = 2^32 bytes: the most a chain may offer either way.
        let request = [seg(BUF0, u32::MAX, false), seg(BUF0, 1, false)];
        let response = [
            seg(BUF0, 4, false),
            seg(BUF1, u32::MAX, true),
            seg(BUF1, 1, true),
        ];
        for segs in [&request[..], &response[..]] {
            let (mut mem, mut drv, mut dev) = setup(8);
            let head = drv.submit_chain(&mut mem, segs).unwrap();
            let mut chain = DescChain::default();
            assert!(dev.pop_into(&mut mem, &mut chain).unwrap(), "one pending");
            assert_eq!(chain.head, head);
            assert_eq!(
                chain.readable_len().max(chain.writable_len()),
                MAX_CHAIN_BYTES
            );
            assert_eq!(dev.last_avail, 1);
        }
    }

    #[test]
    fn read_request_into_clears_and_reuses_the_buffer() {
        let (mut mem, mut drv, mut dev) = setup(8);
        mem.write(BUF0, b"ping").unwrap();
        drv.submit_request(&mut mem, BUF0, 4, BUF1, 4).unwrap();
        let mut chain = DescChain::default();
        assert!(dev.pop_into(&mut mem, &mut chain).unwrap());
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(b"stale bytes from the last request");
        let ptr = out.as_ptr();
        dev.read_request_into(&mut mem, &chain, &mut out).unwrap();
        assert_eq!(out, b"ping");
        assert_eq!((out.as_ptr(), out.capacity()), (ptr, 64));
    }

    #[test]
    fn zero_length_segments_read_as_nothing() {
        let (mut mem, mut drv, mut dev) = setup(8);
        mem.write(BUF0, b"ab").unwrap();
        mem.write(BUF1, b"cd").unwrap();
        let seg = |va, len| ChainSeg {
            va,
            len,
            device_writes: false,
        };
        // A zero-length segment at the very end of memory is never touched.
        let end = mem.bytes.len() as u64;
        drv.submit_chain(
            &mut mem,
            &[seg(BUF0, 2), seg(end, 0), seg(BUF1, 2), seg(BUF1, 0)],
        )
        .unwrap();
        let mut chain = DescChain::default();
        assert!(dev.pop_into(&mut mem, &mut chain).unwrap());
        assert_eq!(chain.readable.len(), 4);
        let mut req = Vec::new();
        dev.read_request_into(&mut mem, &chain, &mut req).unwrap();
        assert_eq!(req, b"abcd");
    }

    #[test]
    fn memory_fault_propagates() {
        // Queue structures near the end of a tiny memory: buffer access faults.
        let mut mem = FlatMemory::new(0x1000);
        let layout = QueueLayout::new(0x100, 2);
        let mut drv = VirtqueueDriver::create(&mut mem, layout).unwrap();
        let mut dev = VirtqueueDevice::attach(layout);
        drv.submit_request(&mut mem, 0xFF00, 4, 0xFF10, 4).unwrap();
        let mut chain = DescChain::default();
        assert!(dev.pop_into(&mut mem, &mut chain).unwrap());
        assert!(matches!(
            dev.read_request_into(&mut mem, &chain, &mut Vec::new()),
            Err(QueueError::Fault(_))
        ));
    }
}
