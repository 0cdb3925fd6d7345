//! Per-device IOMMU model.
//!
//! In the paper's design the IOMMU is "the cornerstone of data isolation in
//! shared memory" (§2.2): every DMA a device issues is translated through
//! the device's IOMMU under the PASID of the application the access belongs
//! to. Devices never program their own tables — a compromised device must
//! not be able to extend its own reach — so map/unmap is performed by the
//! privileged system bus, and only on instruction from the controller of the
//! resource being mapped.
//!
//! Faults (missing mapping, insufficient permission) are *delivered to the
//! attached device*, which must handle them itself (§4 "Error Handling");
//! there is no CPU to take an exception.
//!
//! The model includes an IOTLB with LRU replacement so the E5 experiment can
//! measure the translation-overhead claim, and a walk-cost model charging
//! one table-node access per level on a miss.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod fault;
pub mod tlb;
pub mod unit;

pub use audit::{AccessVerdict, DmaAudit, DmaAuditDelta, DmaDenialRecord};
pub use fault::{AccessKind, IommuFault, IommuFaultKind};
pub use tlb::{Iotlb, TlbStats};
pub use unit::{Iommu, IommuCostModel, IommuStats, TranslationOutcome};
