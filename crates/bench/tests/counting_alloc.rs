//! The counting allocator counts the thread that opened a window and no
//! other: a test harness's threads, or any other thread of the process,
//! allocating while a window is open add nothing to it.
//!
//! This file is its own test binary because it installs the counting global
//! allocator.

use std::sync::{Arc, Barrier};
use std::thread;

use lastcpu_bench::alloc::{watch, CountingAlloc, Watched};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// 1,000 allocations of 1 to 1,000 bytes, all live at once.
fn allocate_a_thousand() -> Vec<Box<[u8]>> {
    (1..=1_000)
        .map(|n| vec![7u8; n].into_boxed_slice())
        .collect()
}

#[test]
fn another_threads_allocations_add_nothing() {
    let go = Arc::new(Barrier::new(2));
    let done = Arc::new(Barrier::new(2));
    let worker = thread::spawn({
        let (go, done) = (go.clone(), done.clone());
        move || {
            go.wait();
            let (kept, own) = watch(allocate_a_thousand);
            done.wait();
            drop(kept);
            own
        }
    });
    // The worker allocates only between the two barriers, and both fall
    // inside this window.
    let ((), seen) = watch(|| {
        go.wait();
        done.wait();
    });
    let own = worker.join().expect("the worker ran");
    let nothing = Watched {
        allocs: 0,
        bytes: 0,
        peak_live: 0,
        largest: 0,
    };
    assert_eq!(seen, nothing, "the worker's allocations were counted here");
    // The worker's own window saw them: 1,000 boxes plus the `Vec` holding
    // them.
    assert!(own.allocs >= 1_000, "{own:?}");
    assert!(own.bytes >= 500_500, "{own:?}");
    assert!(own.peak_live >= 500_500, "{own:?}");
    assert!(own.largest >= 1_000, "{own:?}");

    // And a window on this thread sees this thread.
    let (kept, here) = watch(allocate_a_thousand);
    drop(kept);
    assert!(here.allocs >= 1_000, "{here:?}");
}
