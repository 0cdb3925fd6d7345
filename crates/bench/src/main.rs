//! `lastcpu-bench`: every experiment, `all`, and `diff` — see
//! [`lastcpu_bench::exp`].

use lastcpu_bench::alloc::CountingAlloc;

// E9 and E12 report allocations per event, so the one binary counts them for
// everybody: a few thread-local adds and one branch per allocation. Installed
// here, never in the library — `benchmark/` links the library and brings its
// own.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(lastcpu_bench::exp::main(&argv));
}
