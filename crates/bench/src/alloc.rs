//! The one counting global allocator: `lastcpu-bench` and every test binary
//! that counts allocations install it.
//!
//! Allocations/event is a first-class metric (E9, E12) — the zero-copy
//! envelope and buffer-reuse work shows up in this number — and the
//! allocation tests pin it. Every allocation is also forwarded to
//! [`lastcpu_sim::profile::note_alloc`], so a profiled run attributes the
//! total to `subsystem.site` scopes (the E12 attribution axis); when
//! profiling is disabled that is one predictable branch.
//!
//! It counts only the calling thread: the simulator is single-threaded, and
//! a test harness's own threads allocate now and then inside a measured
//! window. The counters are one const-initialised thread-local (no
//! allocation, no destructor) read with `try_with`, so an allocation during
//! thread teardown is simply not counted.
//!
//! A binary opts in with
//! `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`
//! and measures a window with [`watch`].

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

/// Counts the calling thread's allocations, then delegates to the system
/// allocator.
pub struct CountingAlloc;

/// One thread's allocation counters.
struct Counters {
    /// Allocations, reallocations included.
    allocs: Cell<u64>,
    /// Bytes those allocations requested (a reallocation counts its new size).
    bytes: Cell<u64>,
    /// Bytes allocated less bytes freed. Memory freed on another thread than
    /// allocated it moves two threads' levels, so only the movement inside
    /// one thread's window means anything.
    live: Cell<i64>,
    /// The most `live` has been since the innermost [`watch`] opened.
    peak: Cell<i64>,
    /// The largest single allocation since the innermost [`watch`] opened.
    largest: Cell<u64>,
}

thread_local! {
    static COUNTERS: Counters = const {
        Counters {
            allocs: Cell::new(0),
            bytes: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
            largest: Cell::new(0),
        }
    };
}

fn grew(bytes: usize) {
    let _ = COUNTERS.try_with(|c| {
        c.allocs.set(c.allocs.get() + 1);
        c.bytes.set(c.bytes.get() + bytes as u64);
        c.largest.set(c.largest.get().max(bytes as u64));
        c.live.set(c.live.get() + bytes as i64);
        c.peak.set(c.peak.get().max(c.live.get()));
    });
    lastcpu_sim::profile::note_alloc(bytes);
}

fn shrank(bytes: usize) {
    let _ = COUNTERS.try_with(|c| c.live.set(c.live.get() - bytes as i64));
}

// SAFETY: delegates to the std system allocator; the additions are a
// thread-local of `Cell`s (const-initialised: no allocation, no destructor,
// read with `try_with`) and `note_alloc`, which is written to be callable
// from a global allocator (it never allocates and tolerates TLS teardown).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is the system allocator's contract too.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `SystemAlloc` with this `layout` (every
        // path here delegates to it).
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: as for `dealloc`; the caller guarantees `new_size` is valid
        // for `layout.align()`.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

/// What the calling thread allocated inside one [`watch`] window. All zero
/// unless the binary installed [`CountingAlloc`] as its global allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watched {
    /// Allocations, reallocations included.
    pub allocs: u64,
    /// Bytes those allocations requested (a reallocation counts its new size).
    pub bytes: u64,
    /// The most bytes the window had live at once beyond what was live when
    /// it opened.
    pub peak_live: u64,
    /// The largest single allocation.
    pub largest: u64,
}

/// Runs `f` and reports what the calling thread allocated while it ran;
/// another thread's allocations add nothing. Windows nest: an inner one
/// leaves the outer one's peak and largest allocation as they would have
/// been without it.
pub fn watch<T>(f: impl FnOnce() -> T) -> (T, Watched) {
    let (allocs, bytes, base, outer_peak, outer_largest) = COUNTERS.with(|c| {
        let base = c.live.get();
        (
            c.allocs.get(),
            c.bytes.get(),
            base,
            c.peak.replace(base),
            c.largest.replace(0),
        )
    });
    let out = f();
    let seen = COUNTERS.with(|c| {
        let (peak, largest) = (c.peak.get(), c.largest.get());
        c.peak.set(outer_peak.max(peak));
        c.largest.set(outer_largest.max(largest));
        Watched {
            allocs: c.allocs.get() - allocs,
            bytes: c.bytes.get() - bytes,
            peak_live: (peak - base) as u64,
            largest,
        }
    });
    (out, seen)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The library's tests run without the allocator installed, so the
    // counters move only when driven by hand here.
    #[test]
    fn a_window_reports_its_own_counts_and_nests() {
        let ((), outer) = watch(|| {
            grew(100);
            shrank(100);
            let ((), inner) = watch(|| {
                grew(10);
                grew(30);
                shrank(40);
            });
            let inner_expected = Watched {
                allocs: 2,
                bytes: 40,
                peak_live: 40,
                largest: 30,
            };
            assert_eq!(inner, inner_expected);
        });
        let outer_expected = Watched {
            allocs: 3,
            bytes: 140,
            peak_live: 100,
            largest: 100,
        };
        assert_eq!(outer, outer_expected);
    }
}
