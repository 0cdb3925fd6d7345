//! Experiment harness for the `lastcpu` reproduction.
//!
//! The paper (HotOS'21) contains no quantitative evaluation; DESIGN.md
//! derives an experiment per explicit claim. Each experiment is a module
//! under [`exp`], registered in [`exp::REGISTRY`] and run through the one
//! `lastcpu-bench` binary (`lastcpu-bench <name> [flags]`, `all`, `diff`).
//! It builds the system(s), runs the workload in virtual time, and returns
//! the [`report::Cell`]s EXPERIMENTS.md records:
//!
//! | Name | Claim |
//! |---|---|
//! | `f2` | Figure 2 replay: the 7-step CPU-less init handshake |
//! | `e1` | decentralized setup scales past a central kernel |
//! | `e2` | the CPU-less data path beats the kernel-mediated one |
//! | `e3` | per-context isolation bounds a victim's tail latency |
//! | `e4` | failure notification fan-out + reset recovery (§4) |
//! | `e5` | IOMMU translation overhead is bounded (IOTLB behaviour) |
//! | `e6` | separate control/data planes beat a conflated bus |
//! | `e7` | SSDP-style discovery at machine scale vs central directory |
//! | `e8` | a memory-controller device can own allocation policy |
//! | `e9` | the simulator's own cost: queue → machine → rack, per event |
//! | `e10` | CPU-less machines compose into a sharded, replicated rack |
//! | `e11` | a compromised device cannot breach the isolation layer |
//! | `e12` | where allocations, wall time and the p99 tail go |
//! | `e14` | a mid-run checkpoint restores byte-identically |
//! | `ablations` | discovery window, IOTLB capacity, SSD quantum |
//!
//! The shared pieces: the strict command line ([`cli`]), the report model
//! with its table, artifact and diff ([`report`], [`json`], [`table`]), the
//! ABBA comparison of two binaries on host time ([`ab`]), the
//! rack driver ([`rack`]), the observability flags ([`obs`]), the counting
//! allocator ([`alloc`]) and the small driver devices the experiments need
//! ([`drivers`], [`twotenant`]: setup clients, doorbell pingers,
//! control-storm generators, allocation churners, DMA probes).

pub mod ab;
pub mod alloc;
pub mod cli;
pub mod drivers;
pub mod exp;
pub mod json;
pub mod obs;
pub mod rack;
pub mod report;
pub mod table;
pub mod twotenant;

pub use json::Json;
pub use obs::ObsArgs;
pub use table::Table;
