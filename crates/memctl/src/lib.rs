//! The memory-controller device: allocation *policy* for physical DRAM.
//!
//! §2.2 of the paper: *"the responsibilities are split between the memory
//! controller, which keeps track of physical memory allocations for each
//! device, and the privileged system bus that can update mappings ... The
//! mappings are set by the memory controller, which manages its own
//! allocation tables internally for each application, similarly to ... the
//! mComponent ... in the LegoOS system."*
//!
//! The controller is a pure message-driven state machine (like the bus): it
//! consumes [`lastcpu_bus::Envelope`]s addressed to it and produces envelopes to send —
//! `MapInstruction`s to the bus and responses to requesters. The host device
//! runtime (in `lastcpu-devices`) gives it a bus identity and a mailbox.
//!
//! Policy enforced here (and only here — the bus carries no policy):
//!
//! - physical frames come from a buddy allocator; nothing else in the
//!   system ever sees a physical address;
//! - each region has exactly one owning `(device, pasid)`;
//! - only the owner may share or free a region (§3: "Access to a memory
//!   region may be granted by the device that owns the region to another
//!   device, but must be first authorized by the memory controller");
//! - per-device byte quotas bound any one device's footprint;
//! - when a device fails, all its regions are reclaimed and every mapping
//!   they induced in surviving devices is revoked.

#![forbid(unsafe_code)]

mod controller;

pub use controller::{MemCtlConfig, MemCtlStats, MemoryController, Region, ShareEntry};
