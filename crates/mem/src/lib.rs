//! Physical-memory substrate for the `lastcpu` emulator.
//!
//! The paper's CPU-less machine still has ordinary DRAM behind a discrete
//! memory controller (§2.2 "Memory management"; §2.4 notes Intel's Memory
//! Controller Hub as the extinct hardware analogue). This crate models the
//! memory side of that machine:
//!
//! - [`addr`]: physical/virtual address newtypes, PASIDs, 4 KiB page math.
//! - [`frame`]: a buddy allocator over physical frames — the allocation
//!   *mechanism* the memory-controller device builds its policy on.
//! - [`dram`]: byte-addressable simulated DRAM (sparse, frame-granular
//!   backing) with an explicit bandwidth/latency cost model so DMA can be
//!   charged to virtual time.
//! - [`pagetable`]: a 4-level radix page table, the structure the system bus
//!   programs into each device's IOMMU.

#![forbid(unsafe_code)]

pub mod addr;
pub mod dram;
pub mod frame;
pub mod pagetable;

pub use addr::{Pasid, PhysAddr, VirtAddr, PAGE_SHIFT, PAGE_SIZE};
pub use dram::{Dram, DramCostModel, DramError};
pub use frame::{FrameAllocError, FrameAllocator};
pub use pagetable::{MapError, MappedRange, PageTable, Perms, TranslateError};
