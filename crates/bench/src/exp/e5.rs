//! E5 — IOMMU translation overhead (§2.2: address translation "remains the
//! cornerstone of data isolation"; the design is viable only if its cost is
//! bounded).
//!
//! `iotlb` sweeps a device's DMA working set against a fixed-size IOTLB and
//! reports hit rates and mean translation cost per access (micro-level, no
//! full system). `map_path` measures the *privileged mapping path* end to end on the live
//! system: MemAlloc → bus `MapInstruction` → IOMMU programmed → response,
//! as a function of region size.

use lastcpu_core::{System, SystemConfig};
use lastcpu_iommu::{AccessKind, Iommu};
use lastcpu_mem::{Pasid, Perms, PhysAddr, VirtAddr, PAGE_SIZE};
use lastcpu_sim::{DetRng, SimDuration};

use super::Experiment;
use crate::cli::Args;
use crate::drivers::AllocChurn;
use crate::obs::ObsArgs;
use crate::report::{round, us, Cell};

pub const EXP: Experiment = Experiment {
    name: "e5",
    title: "E5: IOMMU translation and mapping overhead (64-entry IOTLB)",
    run,
    ..Experiment::PLAIN
};

/// `accesses` uniformly random reads over `pages` mapped pages through an
/// `entries`-entry IOTLB: (hit rate, mean translation ns, hit cost ns).
pub(super) fn iotlb_sweep(entries: usize, pages: u64, seed: u64, accesses: u64) -> (f64, u64, u64) {
    let mut mmu = Iommu::new(entries);
    mmu.bind_pasid(Pasid(1));
    for p in 0..pages {
        let (va, pa) = (
            VirtAddr::new(p * PAGE_SIZE),
            PhysAddr::new((p + 16) * PAGE_SIZE),
        );
        mmu.map(Pasid(1), va, pa, Perms::RW).expect("fresh mapping");
    }
    let mut rng = DetRng::new(seed);
    let mut total = 0u64;
    for _ in 0..accesses {
        let va = VirtAddr::new(rng.below(pages) * PAGE_SIZE + rng.below(PAGE_SIZE));
        let out = mmu
            .translate(Pasid(1), va, AccessKind::Read)
            .expect("mapped");
        total += out.cost.as_nanos();
    }
    let hit_cost = mmu.cost_model().tlb_lookup.as_nanos();
    (mmu.tlb_stats().hit_rate(), total / accesses, hit_cost)
}

fn map_path(bytes: u64, obs: &ObsArgs) -> Cell {
    let mut config = SystemConfig {
        trace: false,
        ..SystemConfig::default()
    };
    obs.apply(&mut config);
    let mut sys = System::new(config);
    let memctl = sys.add_memctl("memctl0");
    let churn = sys.add_device(Box::new(AllocChurn::new(
        "churn0",
        memctl.id,
        120,
        vec![bytes],
    )));
    sys.power_on();
    sys.run_for(SimDuration::from_secs(2));
    let c: &AllocChurn = sys.device_as(churn).expect("churn");
    assert!(c.is_done(), "churn incomplete");
    assert_eq!(c.denials, 0);
    let mean = |v: &[SimDuration]| {
        let sum: u64 = v.iter().map(|d| d.as_nanos()).sum();
        us(SimDuration::from_nanos(sum / v.len().max(1) as u64))
    };
    let cell = Cell::new("map_path")
        .id("pages", bytes / PAGE_SIZE)
        .exact("region_kib", bytes / 1024, "KiB")
        .exact("alloc_map_mean_us", mean(&c.alloc_latencies), "us")
        .exact("free_unmap_mean_us", mean(&c.free_latencies), "us");
    obs.dump(&sys);
    cell
}

fn run(args: &Args) -> Result<Vec<Cell>, String> {
    let obs = ObsArgs::from_args(args);
    let mut cells = Vec::new();
    for pages in [16u64, 64, 256, 1024, 4096] {
        let (hit_rate, mean_ns, hit_cost_ns) = iotlb_sweep(64, pages, 42, 200_000);
        cells.push(
            Cell::new("iotlb")
                .id("pages", pages)
                .exact("working_set_kib", pages * PAGE_SIZE / 1024, "KiB")
                .exact("hit_rate", round(hit_rate, 3), "frac")
                .exact("mean_translate_ns", mean_ns, "ns")
                .exact(
                    "vs_hit_cost",
                    round(mean_ns as f64 / hit_cost_ns as f64, 1),
                    "x",
                ),
        );
    }
    cells.extend([PAGE_SIZE, 16 * PAGE_SIZE, 256 * PAGE_SIZE].map(|b| map_path(b, &obs)));
    Ok(cells)
}
