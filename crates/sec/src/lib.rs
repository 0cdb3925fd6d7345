//! Adversarial-device subsystem for the E11 security evaluation.
//!
//! "The Last CPU" makes a strong isolation claim for a machine with no
//! privileged software: the per-device IOMMU is "the cornerstone of data
//! isolation in shared memory", and the management bus "updates the page
//! tables of a device only when it is instructed to do so by the controller
//! of that particular resource" (§2.2). This crate is the attacker that
//! claim has to survive.
//!
//! Two pieces:
//!
//! - [`plan`]: [`AttackPlan`] / [`AttackKind`] — deterministic, seeded
//!   attack schedules, mirroring the fault-injection planner so adversarial
//!   runs replay bit-identically.
//! - [`malicious`]: [`MaliciousDevice`] — a compromised device that executes
//!   a plan using only the capabilities any device has (its own IOMMU for
//!   DMA, `send_bus` for control traffic), tallying per-kind
//!   [`AttackStats`].
//!
//! The five attack classes ([`AttackKind::ALL`]) map one-to-one onto the
//! threat model in `DESIGN.md §11` and the rows of `BENCH_e11.json`: wild
//! DMA, stale-generation DMA, confused-deputy control requests, SSDP
//! shadowing, and control-plane floods. Defender-side evidence lives in
//! `lastcpu_iommu::DmaAudit` and `lastcpu_bus::BusAudit`; this crate only
//! generates the traffic and keeps the attempt ledger.
//!
//! # Examples
//!
//! ```
//! use lastcpu_sec::{AttackKind, AttackPlan};
//! use lastcpu_sim::{SimDuration, SimTime};
//!
//! // Every attack class once, 50 µs apart, from 1 µs.
//! let plan = AttackPlan::matrix(0xE11, SimTime::from_nanos(1_000), SimDuration::from_micros(50));
//! assert_eq!(plan.events().len(), AttackKind::ALL.len());
//! assert_eq!(plan.events()[1].at, SimTime::from_nanos(51_000));
//! // Tags are stable — they key the BENCH_e11.json rows.
//! assert_eq!(AttackKind::ALL[0].tag(), "wild-dma");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod malicious;
pub mod plan;

pub use malicious::{AttackStats, AttackTargets, MaliciousDevice};
pub use plan::{AttackEvent, AttackKind, AttackPlan};
