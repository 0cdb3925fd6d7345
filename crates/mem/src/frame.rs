//! Buddy allocator for physical page frames.
//!
//! This is the *mechanism* half of physical memory management. The policy —
//! which application gets how much, and who may share what — lives in the
//! memory-controller device (`lastcpu-memctl`), per the paper's strict
//! mechanism/policy split (§2.2).
//!
//! The allocator manages frame numbers (not bytes) in power-of-two blocks up
//! to `2^MAX_ORDER` frames, with O(log n) alloc/free and eager coalescing.

use std::collections::BTreeSet;
use std::fmt;

use lastcpu_sim::DetHashMap;

use crate::addr::{PhysAddr, PAGE_SHIFT};

/// Largest block order: `2^10` frames = 4 MiB.
pub const MAX_ORDER: u8 = 10;

/// Errors returned by the frame allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameAllocError {
    /// No contiguous block of the requested order is free.
    OutOfMemory {
        /// The order that could not be satisfied.
        order: u8,
    },
    /// The requested order exceeds [`MAX_ORDER`].
    OrderTooLarge {
        /// The requested order.
        order: u8,
    },
    /// Free of a block that is not currently allocated (double free or
    /// corrupted bookkeeping).
    NotAllocated {
        /// First frame of the offending block.
        frame: u64,
    },
}

impl fmt::Display for FrameAllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameAllocError::OutOfMemory { order } => {
                write!(f, "out of physical memory (order {order})")
            }
            FrameAllocError::OrderTooLarge { order } => {
                write!(f, "allocation order {order} exceeds max {MAX_ORDER}")
            }
            FrameAllocError::NotAllocated { frame } => {
                write!(f, "free of unallocated block at frame {frame}")
            }
        }
    }
}

impl std::error::Error for FrameAllocError {}

/// A buddy allocator over a contiguous physical frame range `[0, total)`.
///
/// # Examples
///
/// ```
/// use lastcpu_mem::FrameAllocator;
///
/// let mut fa = FrameAllocator::new(1024); // 4 MiB of frames
/// let a = fa.alloc_frames(3).unwrap();    // rounds up to order 2 (4 frames)
/// assert_eq!(fa.allocated_frames(), 4);
/// fa.free(a).unwrap();
/// assert_eq!(fa.allocated_frames(), 0);
/// ```
pub struct FrameAllocator {
    /// Free blocks per order, as ordered sets of first-frame numbers.
    /// Ordered so allocation is address-deterministic (lowest first).
    free: Vec<BTreeSet<u64>>,
    /// Allocated block -> order, for validated frees.
    allocated: DetHashMap<u64, u8>,
    total: u64,
    in_use: u64,
}

impl FrameAllocator {
    /// Creates an allocator over `total_frames` frames (rounded down to a
    /// multiple of the largest block so the buddy invariant holds).
    ///
    /// # Panics
    ///
    /// Panics if `total_frames` is smaller than one max-order block.
    pub fn new(total_frames: u64) -> Self {
        let block = 1u64 << MAX_ORDER;
        let total = (total_frames / block) * block;
        assert!(total > 0, "FrameAllocator needs at least {block} frames");
        let mut free: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); MAX_ORDER as usize + 1];
        let mut f = 0;
        while f < total {
            free[MAX_ORDER as usize].insert(f);
            f += block;
        }
        FrameAllocator {
            free,
            allocated: DetHashMap::default(),
            total,
            in_use: 0,
        }
    }

    /// Total managed frames.
    pub fn total_frames(&self) -> u64 {
        self.total
    }

    /// Frames currently allocated (including round-up padding).
    pub fn allocated_frames(&self) -> u64 {
        self.in_use
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> u64 {
        self.total - self.in_use
    }

    /// Smallest order whose block covers `frames` frames.
    pub fn order_for(frames: u64) -> u8 {
        let frames = frames.max(1);
        (64 - (frames - 1).leading_zeros()) as u8
    }

    /// Allocates a block of `2^order` contiguous frames, returning the first
    /// frame number.
    pub fn alloc_order(&mut self, order: u8) -> Result<u64, FrameAllocError> {
        if order > MAX_ORDER {
            return Err(FrameAllocError::OrderTooLarge { order });
        }
        // Find the smallest free block that fits.
        let mut have = None;
        for o in order..=MAX_ORDER {
            if !self.free[o as usize].is_empty() {
                have = Some(o);
                break;
            }
        }
        let mut o = have.ok_or(FrameAllocError::OutOfMemory { order })?;
        let first = *self.free[o as usize].iter().next().expect("nonempty");
        self.free[o as usize].remove(&first);
        // Split down to the requested order, returning the upper buddies.
        while o > order {
            o -= 1;
            let buddy = first + (1u64 << o);
            self.free[o as usize].insert(buddy);
        }
        self.allocated.insert(first, order);
        self.in_use += 1u64 << order;
        Ok(first)
    }

    /// Allocates at least `frames` contiguous frames (rounding up to the
    /// next power of two), returning the first frame number.
    pub fn alloc_frames(&mut self, frames: u64) -> Result<u64, FrameAllocError> {
        self.alloc_order(Self::order_for(frames))
    }

    /// Frees a previously allocated block by its first frame number,
    /// coalescing with free buddies eagerly.
    pub fn free(&mut self, first_frame: u64) -> Result<(), FrameAllocError> {
        let order = self
            .allocated
            .remove(&first_frame)
            .ok_or(FrameAllocError::NotAllocated { frame: first_frame })?;
        self.in_use -= 1u64 << order;
        let mut frame = first_frame;
        let mut o = order;
        while o < MAX_ORDER {
            let buddy = frame ^ (1u64 << o);
            if self.free[o as usize].remove(&buddy) {
                frame = frame.min(buddy);
                o += 1;
            } else {
                break;
            }
        }
        self.free[o as usize].insert(frame);
        Ok(())
    }

    /// The number of frames in the block allocated at `first_frame`, if any.
    pub fn block_len(&self, first_frame: u64) -> Option<u64> {
        self.allocated.get(&first_frame).map(|&o| 1u64 << o)
    }

    /// External-fragmentation proxy: the largest allocation order that can
    /// currently be satisfied.
    pub fn largest_free_order(&self) -> Option<u8> {
        (0..=MAX_ORDER)
            .rev()
            .find(|&o| !self.free[o as usize].is_empty())
    }

    /// Number of distinct free blocks (more blocks at equal free space =
    /// more fragmentation).
    pub fn free_block_count(&self) -> usize {
        self.free.iter().map(|s| s.len()).sum()
    }

    /// Converts a frame number to its physical byte address.
    pub fn frame_to_phys(frame: u64) -> PhysAddr {
        PhysAddr::new(frame << PAGE_SHIFT)
    }

    /// Converts a physical byte address to its containing frame number.
    pub fn phys_to_frame(pa: PhysAddr) -> u64 {
        pa.as_u64() >> PAGE_SHIFT
    }
}

impl lastcpu_snap::Snapshot for FrameAllocator {
    /// Serializes the free lists (already ordered sets) and the allocated
    /// map in frame order.
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.total);
        w.put_u64(self.in_use);
        w.put_len(self.free.len());
        for set in &self.free {
            w.put_len(set.len());
            for &f in set {
                w.put_u64(f);
            }
        }
        let mut blocks: Vec<(u64, u8)> = self.allocated.iter().map(|(&f, &o)| (f, o)).collect();
        blocks.sort_unstable();
        w.put_len(blocks.len());
        for (f, o) in blocks {
            w.put_u64(f);
            w.put_u8(o);
        }
    }
}

impl lastcpu_snap::Restore for FrameAllocator {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.total = r.u64()?;
        self.in_use = r.u64()?;
        let orders = r.len()?;
        if orders != MAX_ORDER as usize + 1 {
            return Err(lastcpu_snap::SnapError::Corrupt {
                section: "frame-allocator".into(),
                detail: format!("{orders} order lists, want {}", MAX_ORDER + 1),
            });
        }
        self.free = vec![BTreeSet::new(); orders];
        for set in &mut self.free {
            let n = r.len()?;
            for _ in 0..n {
                set.insert(r.u64()?);
            }
        }
        self.allocated.clear();
        let n = r.len()?;
        for _ in 0..n {
            let f = r.u64()?;
            let o = r.u8()?;
            self.allocated.insert(f, o);
        }
        Ok(())
    }
}

impl fmt::Debug for FrameAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FrameAllocator(total={}, in_use={}, free_blocks={})",
            self.total,
            self.in_use,
            self.free_block_count()
        )
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any alloc/free interleaving: live blocks never overlap, free
        /// accounting balances, and freeing everything coalesces fully.
        #[test]
        fn prop_buddy_invariants(ops in proptest::collection::vec((0u8..3, 0u8..6), 1..200)) {
            let mut fa = FrameAllocator::new(2 << MAX_ORDER);
            let total = fa.total_frames();
            let mut live: Vec<(u64, u64)> = Vec::new();
            for (kind, order) in ops {
                match kind {
                    0 | 1 => {
                        if let Ok(first) = fa.alloc_order(order) {
                            let len = 1u64 << order;
                            for &(b, blen) in &live {
                                prop_assert!(
                                    first + len <= b || b + blen <= first,
                                    "overlap: [{first},{}) vs [{b},{})", first + len, b + blen
                                );
                            }
                            prop_assert!(first + len <= total);
                            live.push((first, len));
                        }
                    }
                    _ => {
                        if !live.is_empty() {
                            let (b, _) = live.swap_remove(order as usize % live.len());
                            fa.free(b).unwrap();
                        }
                    }
                }
                let used: u64 = live.iter().map(|&(_, l)| l).sum();
                prop_assert_eq!(fa.allocated_frames(), used);
            }
            for (b, _) in live.drain(..) {
                fa.free(b).unwrap();
            }
            prop_assert_eq!(fa.free_frames(), total);
            prop_assert_eq!(fa.largest_free_order(), Some(MAX_ORDER));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_for_rounds_up() {
        assert_eq!(FrameAllocator::order_for(1), 0);
        assert_eq!(FrameAllocator::order_for(2), 1);
        assert_eq!(FrameAllocator::order_for(3), 2);
        assert_eq!(FrameAllocator::order_for(4), 2);
        assert_eq!(FrameAllocator::order_for(5), 3);
        assert_eq!(FrameAllocator::order_for(1024), 10);
    }

    #[test]
    fn alloc_free_round_trip() {
        let mut fa = FrameAllocator::new(1 << MAX_ORDER);
        let a = fa.alloc_frames(1).unwrap();
        let b = fa.alloc_frames(1).unwrap();
        assert_ne!(a, b);
        assert_eq!(fa.allocated_frames(), 2);
        fa.free(a).unwrap();
        fa.free(b).unwrap();
        assert_eq!(fa.allocated_frames(), 0);
        // Everything coalesced back to one max-order block.
        assert_eq!(fa.free_block_count(), 1);
        assert_eq!(fa.largest_free_order(), Some(MAX_ORDER));
    }

    #[test]
    fn splits_produce_disjoint_blocks() {
        let mut fa = FrameAllocator::new(1 << MAX_ORDER);
        let mut blocks = vec![];
        for _ in 0..16 {
            let first = fa.alloc_frames(4).unwrap();
            blocks.push((first, 4u64));
        }
        for (i, &(a, alen)) in blocks.iter().enumerate() {
            for &(b, blen) in &blocks[i + 1..] {
                assert!(a + alen <= b || b + blen <= a, "overlap {a} {b}");
            }
        }
    }

    #[test]
    fn double_free_is_detected() {
        let mut fa = FrameAllocator::new(1 << MAX_ORDER);
        let a = fa.alloc_frames(1).unwrap();
        fa.free(a).unwrap();
        assert_eq!(fa.free(a), Err(FrameAllocError::NotAllocated { frame: a }));
    }

    #[test]
    fn out_of_memory_reported() {
        let mut fa = FrameAllocator::new(1 << MAX_ORDER);
        assert!(fa.alloc_order(MAX_ORDER).is_ok());
        assert_eq!(
            fa.alloc_order(0),
            Err(FrameAllocError::OutOfMemory { order: 0 })
        );
    }

    #[test]
    fn order_too_large_rejected() {
        let mut fa = FrameAllocator::new(1 << MAX_ORDER);
        assert_eq!(
            fa.alloc_order(MAX_ORDER + 1),
            Err(FrameAllocError::OrderTooLarge {
                order: MAX_ORDER + 1
            })
        );
    }

    #[test]
    fn coalescing_restores_large_blocks() {
        let mut fa = FrameAllocator::new(1 << MAX_ORDER);
        let blocks: Vec<u64> = (0..(1 << MAX_ORDER))
            .map(|_| fa.alloc_frames(1).unwrap())
            .collect();
        assert_eq!(fa.free_frames(), 0);
        assert_eq!(fa.largest_free_order(), None);
        for b in blocks {
            fa.free(b).unwrap();
        }
        assert_eq!(fa.largest_free_order(), Some(MAX_ORDER));
        assert_eq!(fa.free_block_count(), 1);
    }

    #[test]
    fn deterministic_allocation_order() {
        let run = || {
            let mut fa = FrameAllocator::new(2 << MAX_ORDER);
            (0..32)
                .map(|_| fa.alloc_frames(2).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn phys_frame_conversions() {
        assert_eq!(FrameAllocator::frame_to_phys(2).as_u64(), 0x2000);
        assert_eq!(FrameAllocator::phys_to_frame(PhysAddr::new(0x2fff)), 2);
    }

    #[test]
    fn block_len_reports_rounded_size() {
        let mut fa = FrameAllocator::new(1 << MAX_ORDER);
        let a = fa.alloc_frames(3).unwrap();
        assert_eq!(fa.block_len(a), Some(4));
        assert_eq!(fa.block_len(a + 1), None);
    }
}
