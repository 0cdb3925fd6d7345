//! E8 — the memory controller as allocation-policy owner (§2.2).
//!
//! Alloc/free churn against the memory-controller device over the live
//! control plane, across size schedules, reporting op latency, denial
//! behaviour and fragmentation of the physical allocator.

use lastcpu_core::{MemCtlDevice, System, SystemConfig};
use lastcpu_mem::PAGE_SIZE;
use lastcpu_sim::{Histogram, SimDuration};

use super::Experiment;
use crate::cli::Args;
use crate::drivers::AllocChurn;
use crate::obs::ObsArgs;
use crate::report::{us, Cell};

pub const EXP: Experiment = Experiment {
    name: "e8",
    title: "E8: memory-controller allocation policy under churn\n    \
            (one client, 600 ops: 2 allocs : 1 free)",
    run,
    ..Experiment::PLAIN
};

fn churn(schedule: &str, sizes: Vec<u64>, obs: &ObsArgs) -> Cell {
    let mut config = SystemConfig {
        trace: false,
        dram_bytes: 1 << 30,
        ..SystemConfig::default()
    };
    obs.apply(&mut config);
    let mut sys = System::new(config);
    let memctl = sys.add_memctl("memctl0");
    let churn = sys.add_device(Box::new(AllocChurn::new("churn0", memctl.id, 600, sizes)));
    sys.power_on();
    sys.run_for(SimDuration::from_secs(5));
    let c: &AllocChurn = sys.device_as(churn).expect("churn");
    assert!(c.is_done(), "churn incomplete ({schedule} schedule)");
    let hist = |latencies: &[SimDuration]| {
        let mut h = Histogram::new();
        latencies.iter().for_each(|&l| h.record(l));
        h
    };
    let (alloc, free) = (hist(&c.alloc_latencies), hist(&c.free_latencies));
    let mc: &MemCtlDevice = sys.device_as(memctl).expect("memctl");
    let stats = mc.controller().stats();
    let cell = Cell::new("churn")
        .id("schedule", schedule)
        .exact("alloc_mean_us", us(alloc.mean()), "us")
        .exact("alloc_p99_us", us(alloc.percentile(99.0)), "us")
        .exact("free_mean_us", us(free.mean()), "us")
        .exact("denied", c.denials, "count")
        .exact("in_use_kib", stats.bytes_in_use / 1024, "KiB")
        .exact("peak_kib", stats.peak_bytes / 1024, "KiB")
        .exact("free_blocks", mc.controller().free_block_count(), "count");
    obs.dump(&sys);
    cell
}

fn run(args: &Args) -> Result<Vec<Cell>, String> {
    let obs = ObsArgs::from_args(args);
    Ok(vec![
        churn("uniform 4K", vec![PAGE_SIZE], &obs),
        churn(
            "mixed 4K-256K",
            vec![PAGE_SIZE, 16 * PAGE_SIZE, 64 * PAGE_SIZE, 4 * PAGE_SIZE],
            &obs,
        ),
        churn("large 1M", vec![256 * PAGE_SIZE], &obs),
    ])
}
