//! The system management bus — the paper's missing hardware component.
//!
//! §2.2 of "The Last CPU": *"We propose the use of a new system bus
//! specifically for the purpose of inter-device communication ... The system
//! bus acts as the control plane that enables devices to control each other
//! but does not carry data. The system bus only provides a mechanism for
//! device communication and contains no policies."*
//!
//! This crate implements that bus as a message-switched state machine:
//!
//! - [`ids`]: device, service, request, connection and token identifiers.
//! - [`wire`]: a compact self-describing binary codec — the bus is hardware,
//!   so its protocol is specified at the byte level and property-tested for
//!   round-tripping.
//! - [`message`]: the protocol itself — registration/liveness, SSDP-like
//!   discovery, service sessions, memory allocation and grants, doorbells,
//!   error/reset flows (the complete vocabulary behind the paper's Figure 2).
//! - [`bus`]: the privileged bus engine. It routes messages, tracks
//!   liveness, answers discovery, and — the security-critical part —
//!   emits IOMMU programming effects *only* when instructed by the
//!   registered controller of the resource being mapped (§2.2 "Address
//!   Translation").
//!
//! The bus is deliberately policy-free: it never decides *whether* memory
//! should be shared, only carries the decision of the memory controller and
//! performs the privileged write. It is also deliberately data-free: bulk
//! data moves over the data plane (DMA through IOMMUs); an experiment (E6)
//! measures why conflating the planes is a bad idea.
//!
//! The engine is a pure state machine: `handle()` consumes an envelope and
//! appends [`bus::BusEffect`]s for the surrounding simulator to apply. That
//! keeps the crate independent of any particular device or memory model and
//! makes every protocol rule unit-testable in isolation.
//!
//! For the E11 security evaluation, [`audit`] adds an opt-in record of
//! every privileged-operation verdict plus hardening policy knobs
//! (shadow-announce denial, flood limiting); see `DESIGN.md §11` for the
//! threat model this evidence feeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod bus;
pub mod cost;
pub mod ids;
pub mod message;
pub mod retry;
pub mod wire;

pub use audit::{
    BusAudit, BusAuditDelta, BusAuditRecord, BusVerdict, DenyReason, PrivOpKind, SecurityPolicy,
};
pub use bus::{BusEffect, BusError, EnvelopePool, SystemBus};
pub use cost::BusCostModel;
pub use ids::{ConnId, DeviceId, RequestId, ServiceId, Token};
pub use lastcpu_sim::CorrId;
pub use message::{Dst, Envelope, ErrorCode, MapOp, Payload, ResourceKind, ServiceDesc, Status};
pub use retry::{RetryConfig, RetryStats, RetryVerdict, RpcTracker};
