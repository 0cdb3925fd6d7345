//! `lastcpu-core`: the emulated CPU-less machine.
//!
//! This crate is the paper's contribution assembled into a running system:
//! a machine with **no CPU**, in which self-managing devices (smart NIC,
//! smart SSD, FPGA accelerator, auth service, console), a discrete memory
//! controller and a privileged system-management bus cooperate to provide
//! every function a traditional OS kernel would — virtualization
//! (multiplexing + address translation), isolation, and resource
//! management (§1, contribution 1).
//!
//! [`System`] is the machine. It owns:
//!
//! - the virtual clock and event queue (`lastcpu-sim`);
//! - simulated DRAM (`lastcpu-mem`) — the data plane;
//! - one IOMMU per device (`lastcpu-iommu`) — programmed *only* by the bus;
//! - the system bus (`lastcpu-bus`) — the control plane;
//! - the devices (`lastcpu-devices`) and the memory-controller device
//!   ([`MemCtlDevice`] wrapping `lastcpu-memctl`);
//! - a network switch (`lastcpu-net`) with external [`NetHost`]s (client
//!   machines driving workloads).
//!
//! The simulator enforces the physical realities the paper leans on:
//!
//! - **Device serialization.** A device processes one thing at a time;
//!   events arriving while its firmware is busy wait until it is free.
//!   Contention on a shared device is therefore real, which is what the
//!   isolation experiment measures.
//! - **Plane separation.** Control messages pay bus latencies; doorbells
//!   and DMA pay data-plane latencies; the two do not queue behind each
//!   other (§2.3) — except in the deliberately conflated configuration the
//!   E6 experiment builds.
//! - **Ordering of privileged writes.** A `MapInstruction` programs the
//!   IOMMU one bus hop before the corresponding response can reach the
//!   requester, so a device can never observe "allocation succeeded" while
//!   its mapping is still pending.

#![forbid(unsafe_code)]

pub mod config;
pub mod host;
pub mod memctl_dev;
pub mod system;

pub use config::SystemConfig;
pub use host::{HostAction, HostCtx, NetHost};
pub use memctl_dev::MemCtlDevice;
pub use system::{DeviceHandle, System, TunnelDelivery};

// Re-export the crates a system assembler needs, so downstream code can
// depend on `lastcpu-core` alone.
pub use lastcpu_bus as bus;
pub use lastcpu_devices as devices;
pub use lastcpu_iommu as iommu;
pub use lastcpu_mem as mem;
pub use lastcpu_memctl as memctl;
pub use lastcpu_net as net;
pub use lastcpu_sim as sim;
pub use lastcpu_virtio as virtio;
