//! The counting global allocator shared by the E9 and E12 binaries.
//!
//! Allocations/event is a first-class metric there — the zero-copy envelope
//! and buffer-reuse work shows up in this number. Every allocation is also
//! forwarded to [`lastcpu_sim::profile::note_alloc`], so a profiled run
//! attributes the total to `subsystem.site` scopes (the E12 attribution
//! axis); when profiling is disabled that is one predictable branch.
//!
//! A binary opts in with
//! `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation, then delegates to the system allocator.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    // Statistics only: nothing is published through these counters.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    lastcpu_sim::profile::note_alloc(bytes);
}

// SAFETY: delegates to the std system allocator; only adds two counters
// (`note_alloc` is written to be callable from a global allocator: it never
// allocates and tolerates TLS teardown).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is the system allocator's contract too.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `SystemAlloc` with this `layout` (every
        // path above delegates to it).
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; the caller guarantees `new_size` is valid
        // for `layout.align()`.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (including reallocations) since process start. Zero unless
/// the binary installed [`CountingAlloc`] as its global allocator.
pub fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested by those allocations (a reallocation counts its new size).
pub fn alloc_bytes_now() -> u64 {
    BYTES.load(Ordering::Relaxed)
}
