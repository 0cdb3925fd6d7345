//! VIRTIO-style split virtqueues over shared memory.
//!
//! §2.1 of the paper singles out VIRTIO as "an ideal interface for exposing
//! resources from self-managing devices": one standard queue protocol that
//! any device can serve and any device can drive. This crate implements the
//! split-virtqueue layout of VIRTIO 1.1 — descriptor table, available ring,
//! used ring — operating on *virtual addresses inside an application's
//! shared-memory region*, exactly as the paper's Figure 2 step 7 sets up
//! ("The NIC may then establish the connection by programming the VIRTIO
//! queues in the SSD using virtual addresses").
//!
//! The queue structures live in simulated DRAM and every access goes
//! through the [`QueueMemory`] trait, which the system glue implements as
//! IOMMU-translated DMA. Nothing here is a shortcut around the data plane:
//! descriptors are really serialized to bytes and really parsed back, so a
//! corrupted ring is detected the way hardware would detect it.
//!
//! - [`layout`]: byte layout and alignment of the three rings.
//! - [`queue`]: [`VirtqueueDriver`] (guest/driver side) and
//!   [`VirtqueueDevice`] (device side).
//! - [`arena`]: a slot allocator for request/response buffer space inside
//!   the shared region.
//!
//! A chain is always direct: no device offers indirect descriptor tables
//! or negotiates any feature bit, so a descriptor that sets
//! [`queue::DESC_F_INDIRECT`] is refused as corrupt.

#![forbid(unsafe_code)]

pub mod arena;
pub mod layout;
pub mod queue;

pub use arena::BufferArena;
pub use layout::QueueLayout;
pub use queue::{DescChain, QueueError, VirtqueueDevice, VirtqueueDriver};

/// Abstract access to the shared memory a queue lives in.
///
/// Implementations translate the virtual addresses through the accessing
/// device's IOMMU; a translation fault surfaces as [`MemFault`].
pub trait QueueMemory {
    /// Reads `buf.len()` bytes at virtual address `va`.
    fn read(&mut self, va: u64, buf: &mut [u8]) -> Result<(), MemFault>;

    /// Writes `buf` at virtual address `va`.
    fn write(&mut self, va: u64, buf: &[u8]) -> Result<(), MemFault>;
}

/// A data-plane memory fault (missing mapping or permission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting virtual address.
    pub va: u64,
    /// Whether the faulting access was a write.
    pub write: bool,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory fault on {} at {:#x}",
            if self.write { "write" } else { "read" },
            self.va
        )
    }
}

impl std::error::Error for MemFault {}

/// A plain `Vec`-backed [`QueueMemory`] for tests and examples.
///
/// Addresses map 1:1 onto the vector (no translation). Out-of-range
/// accesses fault like an unmapped page would.
pub struct FlatMemory {
    bytes: Vec<u8>,
}

impl FlatMemory {
    /// Creates `size` bytes of zeroed flat memory.
    pub fn new(size: usize) -> Self {
        FlatMemory {
            bytes: vec![0; size],
        }
    }
}

impl QueueMemory for FlatMemory {
    fn read(&mut self, va: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        let start = va as usize;
        let end = start
            .checked_add(buf.len())
            .ok_or(MemFault { va, write: false })?;
        if end > self.bytes.len() {
            return Err(MemFault { va, write: false });
        }
        buf.copy_from_slice(&self.bytes[start..end]);
        Ok(())
    }

    fn write(&mut self, va: u64, buf: &[u8]) -> Result<(), MemFault> {
        let start = va as usize;
        let end = start
            .checked_add(buf.len())
            .ok_or(MemFault { va, write: true })?;
        if end > self.bytes.len() {
            return Err(MemFault { va, write: true });
        }
        self.bytes[start..end].copy_from_slice(buf);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_memory_round_trips() {
        let mut m = FlatMemory::new(1024);
        m.write(100, b"abc").unwrap();
        let mut b = [0u8; 3];
        m.read(100, &mut b).unwrap();
        assert_eq!(&b, b"abc");
    }

    #[test]
    fn flat_memory_faults_out_of_range() {
        let mut m = FlatMemory::new(16);
        let mut b = [0u8; 8];
        assert_eq!(
            m.read(12, &mut b),
            Err(MemFault {
                va: 12,
                write: false
            })
        );
        assert_eq!(
            m.write(u64::MAX, &b),
            Err(MemFault {
                va: u64::MAX,
                write: true
            })
        );
    }
}
