//! `lastcpu-fabric`: rack-scale co-simulation of CPU-less machines.
//!
//! The paper's end-to-end example exposes a KVS "to other machines over the
//! network" (§3); every experiment through E9 nevertheless ran a *single*
//! emulated machine behind one edge switch. This crate supplies the missing
//! scale-out dimension: a [`Fabric`] instantiates N independent
//! [`lastcpu_core::System`] machines under one deterministic global clock,
//! connects their NICs through modeled inter-machine links, and federates
//! SSDP-style discovery so a service registered on one machine is routable
//! from any other.
//!
//! Three design decisions keep the co-simulation bit-identical from a seed:
//!
//! 1. **Global-order stepping.** Machines interact *only* through
//!    fabric-delivered frames. [`Fabric::run_until`] retires one item at a
//!    time: the earliest among the directory sweep, the next scheduled
//!    fault, the head of the link-delivery queue and every machine's next
//!    event, ties at equal time broken sweep → fault → link delivery (queue
//!    FIFO) → machine by index. A stepped machine's tunnel output crosses
//!    the links at once, in production order, so a frame enters its target
//!    machine when global time reaches it and never earlier; sweeps and
//!    faults observe an instant every machine has reached. The choice reads
//!    nothing but rack state, so `run_until(a); run_until(b)` is the same
//!    sequence of retirements as `run_until(b)`. One thread: the windowed
//!    schedule this replaced held 2–4 events per window across a whole
//!    rack, too little to split or to batch (DESIGN.md §13.2).
//! 2. **Transparent tunnels over an explicit topology.** Each machine's
//!    edge switch grows fabric-owned *proxy ports*, one per remote peer the
//!    machine talks to. A frame sent to a proxy port crosses the
//!    inter-machine fabric — walking the per-pair path the configured
//!    [`Topology`] (leaf-spine, a single switch when it has one leaf, or
//!    k-ary fat-tree) chose, queuing at line rate on every link it crosses with the same
//!    [`NetCostModel`] serialization semantics the edge switch uses — and
//!    re-enters the remote machine with its source rewritten to the
//!    *remote* machine's proxy port for the original sender. Replies are
//!    symmetric, so unmodified device firmware (the smart-NIC KVS app)
//!    serves remote clients without knowing the rack exists. Path choice
//!    is deterministic ECMP (a hash of `(src, dst, seed)`), so per-pair
//!    ordering and bit-identical replay survive path diversity; see
//!    [`topology`] for the cost model and docs/TOPOLOGY.md for the full
//!    derivation.
//! 3. **Rack-unique correlation ids.** Machine `m` allocates correlation
//!    ids from base `(m+1) << 40`, and the fabric carries the id across
//!    inter-machine frames, so a merged Chrome trace spans machines without
//!    aliasing.
//!
//! Whole-machine faults reuse the PR-2 [`lastcpu_sim::FaultPlan`] with
//! machine names (`"m3"`) as targets: `Drop`/`Delay` apply to that
//! machine's links, `Crash`/`Hang` kill the machine outright (the fabric
//! stops stepping it and drops its traffic), which is what the E10
//! fail-over scenario measures.
//!
//! [`HashRing`] — the consistent-hash ring the KVS shard router builds over
//! discovered endpoints — lives here too, so placement policy and fabric
//! evolve together.
//!
//! [`NetCostModel`]: lastcpu_net::NetCostModel

#![forbid(unsafe_code)]

pub mod fabric;
pub mod proto;
pub mod ring;
pub mod topology;

pub use fabric::{DirEntry, Fabric, FabricConfig, MachineId};
pub use proto::{DirEndpoint, DirMsg};
pub use ring::HashRing;
pub use topology::{LinkStats, TopoKind, Topology, TopologyConfig, Transit};
