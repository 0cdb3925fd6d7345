//! Self-managing devices for the CPU-less system.
//!
//! §2.1 of the paper defines what a device must do to be *self-managing*:
//! manage its own internal state, expose its resources as services in a
//! standard way, multiplex those services into isolated per-application
//! contexts, and handle its own errors. This crate provides:
//!
//! - [`device`]: the [`Device`] actor trait the simulator drives and
//!   [`DeviceCtx`], the execution context through which a device reaches
//!   the world — control messages to the bus, IOMMU-translated DMA to shared
//!   memory, network frames, timers, doorbells. A device has *no other
//!   capabilities*: in particular it can neither touch physical memory nor
//!   program any IOMMU.
//! - [`firmware`]: the [`Firmware`] trait a self-managing device implements
//!   and the one blanket `Device` impl that runs its lifecycle — self-test,
//!   `Hello`, heartbeat, every envelope and timer through the monitor first,
//!   reset. Every device below is a `Firmware`.
//! - [`monitor`]: the resource-monitor runtime embedded in every
//!   self-managing device (the paper compares it to a LegoOS resource
//!   monitor). It implements the client and server sides of the bus
//!   protocol: discovery, service sessions with per-connection isolation
//!   contexts, shared-memory allocation/grants, heartbeats, failure
//!   notifications; [`firmware`] is what calls it. It is also the
//!   "development library" of §4
//!   (*Programmability*): applications on devices call `discover` /
//!   `open` / `alloc_shared` instead of system calls.
//! - [`flash`], [`ftl`], [`fs`]: the smart SSD's storage stack — a NAND
//!   model with real latencies and wear, a page-mapped flash translation
//!   layer with garbage collection, and a small flash filesystem.
//! - [`ssd`]: the smart SSD device: exposes `fs` and `file:<path>` services
//!   over VIRTIO queues in shared memory (the server half of the paper's §3
//!   example).
//! - [`nic`]: the smart NIC: network port plus a hosted offloaded
//!   application ([`nic::NicApp`]), the client half of §3.
//! - [`accel`]: an FPGA-style compute accelerator with spatially partitioned
//!   regions (AmorphOS-style sharing).
//! - [`auth`]: an authentication service issuing the capability tokens that
//!   `OpenRequest`s carry (§4 *Access Control*).
//! - [`console`]: a remote-console device for operators (§4 *System
//!   Maintenance*).

#![forbid(unsafe_code)]

pub mod accel;
pub mod auth;
pub mod console;
pub mod device;
pub mod firmware;
pub mod flash;
pub mod fs;
pub mod ftl;
pub mod monitor;
pub mod nic;
pub mod session;
pub mod ssd;

pub use device::{Action, Device, DeviceCtx, DmaView};
pub use firmware::Firmware;
pub use monitor::{AuthMode, Monitor, MonitorEvent};
