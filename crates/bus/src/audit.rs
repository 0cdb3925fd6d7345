//! Privileged-operation audit and security policy for the bus.
//!
//! The paper's central security claim (§2.2) is that *only the management
//! bus programs IOMMU page tables, and only on instruction from the
//! registered controller of the resource being mapped*. The E11 security
//! evaluation attacks that claim; this module is the bus side of the
//! evidence it needs: an append-only record of every privileged-operation
//! verdict ([`BusAudit`]) so a denied confused-deputy request is *provably*
//! denied, plus an opt-in [`SecurityPolicy`] covering the two attack
//! classes the baseline protocol is silent about (service shadowing and
//! control-plane floods).
//!
//! Like the IOMMU's `DmaAudit` (in `lastcpu-iommu`), the audit is
//! opt-in ([`crate::SystemBus::enable_audit`]) and deterministic: records
//! are appended in message-handling order, a pure function of the seed.
//!
//! # Examples
//!
//! Auditing a confused-deputy `MapInstruction` from a non-controller:
//!
//! ```
//! use lastcpu_bus::{
//!     BusVerdict, CorrId, DenyReason, Dst, Envelope, MapOp, Payload, PrivOpKind, RequestId,
//!     ResourceKind, Status, SystemBus,
//! };
//! use lastcpu_sim::SimTime;
//!
//! let mut bus = SystemBus::new();
//! bus.enable_audit(64);
//! let evil = bus.attach("evil0", "malicious");
//! let victim = bus.attach("nic0", "smart-nic");
//! let mut fx = Vec::new();
//! for d in [evil, victim] {
//!     bus.handle(SimTime::ZERO, Envelope {
//!         src: d, dst: Dst::Bus, req: RequestId(1), corr: CorrId::NONE,
//!         payload: Payload::Hello { name: format!("{d}"), kind: "x".into() },
//!     }, &mut fx);
//! }
//! fx.clear();
//! // No controller registered `evil0` for Memory, so this must be denied.
//! bus.handle(SimTime::ZERO, Envelope {
//!     src: evil, dst: Dst::Bus, req: RequestId(2), corr: CorrId::NONE,
//!     payload: Payload::MapInstruction {
//!         resource: ResourceKind::Memory, op: MapOp::Map, device: victim,
//!         pasid: 7, va: 0x4000, pa: 0x1000, pages: 1, perms: 3,
//!     },
//! }, &mut fx);
//! assert_eq!(bus.audit().expect("audit enabled").denied(), 1);
//! // The machine drains the verdicts after each message.
//! let delta = bus.audit_mut().expect("audit enabled").drain();
//! let rec = delta.records.last().unwrap();
//! assert_eq!(rec.op, PrivOpKind::MapInstruction);
//! assert_eq!(rec.verdict, BusVerdict::Denied);
//! assert_eq!(rec.reason, Some(DenyReason::NotController));
//! ```

use lastcpu_sim::{costs, SimDuration};

use crate::ids::DeviceId;
use crate::message::ResourceKind;

/// Which privileged (or policed) bus operation a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivOpKind {
    /// `RegisterController` — a claim on a resource class.
    RegisterController,
    /// `MapInstruction` — a request to program some device's IOMMU.
    MapInstruction,
    /// `Announce` — a service advertisement (policed for shadowing).
    Announce,
    /// Any bus-directed control message (policed for flooding).
    Control,
}

/// The bus's verdict on one privileged operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusVerdict {
    /// The operation passed every check and its effects were emitted.
    Allowed,
    /// The operation was refused; the sender got a `Denied`/`BadRequest`
    /// style reply and no effect was emitted.
    Denied,
    /// The message was dropped by the flood limiter without a reply
    /// (back-pressure by silence, as real fabrics shed load).
    RateLimited,
}

/// Why a privileged operation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenyReason {
    /// `MapInstruction` from a device that is not the registered controller
    /// of the named resource class (the confused-deputy check).
    NotController,
    /// `MapInstruction` naming a resource class other than `Memory`.
    ///
    /// IOMMU page tables translate to physical DRAM, so only the memory
    /// controller's resource class can legitimately instruct them. Without
    /// this check a device could claim a vacant class (`Compute`,
    /// `Storage`, `Network`) via `RegisterController` and then instruct
    /// arbitrary DRAM mappings — the leak E11 found and this PR fixed.
    ResourceNotMemory,
    /// `RegisterController` for a class already owned by another device.
    ControllerTaken,
    /// Map target unknown or not alive.
    TargetNotFound,
    /// Malformed instruction (e.g. zero pages) or a payload class the bus
    /// does not accept.
    BadRequest,
    /// Discovery shadowing, refused under
    /// [`SecurityPolicy::deny_shadow_announce`]: either an `Announce` of a
    /// service name already announced by a different alive device, or a
    /// `QueryHit` whose sender is not the device it names / has not
    /// announced the service it claims (a spoofed discovery answer).
    ShadowAnnounce,
    /// Sender exceeded [`SecurityPolicy::flood_limit`] in the current
    /// window.
    FloodLimited,
}

/// One audited privileged-operation verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusAuditRecord {
    /// Sender of the operation.
    pub src: DeviceId,
    /// Operation class.
    pub op: PrivOpKind,
    /// Resource class named by the operation, when it names one.
    pub resource: Option<ResourceKind>,
    /// Device targeted by the operation (map target), when there is one.
    pub target: Option<DeviceId>,
    /// The verdict.
    pub verdict: BusVerdict,
    /// Why it was refused (`None` iff allowed).
    pub reason: Option<DenyReason>,
}

/// Bounded audit of privileged-operation verdicts.
///
/// Counters are exact; the record log is capped so an attacker flooding
/// denied operations cannot exhaust host memory through its own audit
/// trail. Overflowed records are counted in the section.
#[derive(Debug, Clone, Default)]
pub struct BusAudit {
    allowed: u64,
    denied: u64,
    rate_limited: u64,
    pending_allowed: u64,
    pending_denied: u64,
    pending_rate_limited: u64,
    dropped: u64,
    cap: usize,
    log: Vec<BusAuditRecord>,
}

/// Verdicts accumulated since the previous [`BusAudit::drain`].
#[derive(Debug, Clone, Default)]
pub struct BusAuditDelta {
    /// Allowed privileged operations since the last drain (exact).
    pub allowed: u64,
    /// Denied privileged operations since the last drain (exact).
    pub denied: u64,
    /// Flood-shed messages since the last drain (exact).
    pub rate_limited: u64,
    /// Retained verdict records (bounded by the audit's capacity).
    pub records: Vec<BusAuditRecord>,
}

impl BusAudit {
    /// Creates an audit keeping at most `cap` records.
    pub fn new(cap: usize) -> Self {
        BusAudit {
            cap,
            ..BusAudit::default()
        }
    }

    pub(crate) fn record(&mut self, rec: BusAuditRecord) {
        match rec.verdict {
            BusVerdict::Allowed => {
                self.allowed += 1;
                self.pending_allowed += 1;
            }
            BusVerdict::Denied => {
                self.denied += 1;
                self.pending_denied += 1;
            }
            BusVerdict::RateLimited => {
                self.rate_limited += 1;
                self.pending_rate_limited += 1;
            }
        }
        if self.log.len() < self.cap {
            self.log.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// Exact count of allowed privileged operations.
    #[cfg(test)]
    pub(crate) fn allowed(&self) -> u64 {
        self.allowed
    }

    /// Retained verdict records, oldest first.
    #[cfg(test)]
    pub(crate) fn records(&self) -> &[BusAuditRecord] {
        &self.log
    }

    /// Exact count of denied privileged operations.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Exact count of messages shed by the flood limiter.
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited
    }

    /// Drains verdicts accumulated since the previous drain.
    ///
    /// The event core calls this after each `handle()` to convert fresh
    /// verdicts into `sec.*` metrics and trace events exactly once.
    /// Cumulative counters are unaffected.
    pub fn drain(&mut self) -> BusAuditDelta {
        BusAuditDelta {
            allowed: std::mem::take(&mut self.pending_allowed),
            denied: std::mem::take(&mut self.pending_denied),
            rate_limited: std::mem::take(&mut self.pending_rate_limited),
            records: std::mem::take(&mut self.log),
        }
    }
}

/// Opt-in hardening knobs for attack classes the baseline protocol is
/// silent about. The default policy changes **nothing** — every existing
/// experiment runs under it bit-identically.
#[derive(Debug, Clone, Copy)]
pub struct SecurityPolicy {
    /// Refuse an `Announce` whose service *name* is already announced by a
    /// different alive device, and shed any `QueryHit` whose sender is not
    /// the device it names or has not announced the service it claims.
    /// Together these stop a malicious device from shadowing (spoofing or
    /// replaying) a live service so that discovery clients resolve to the
    /// attacker.
    pub deny_shadow_announce: bool,
    /// Per-sender cap on bus-directed control messages per
    /// [`SecurityPolicy::flood_window`]; messages beyond the cap are
    /// dropped (and audited as [`BusVerdict::RateLimited`]). `None`
    /// disables the limiter.
    pub flood_limit: Option<u32>,
    /// Window over which [`SecurityPolicy::flood_limit`] is counted.
    pub flood_window: SimDuration,
}

impl Default for SecurityPolicy {
    fn default() -> Self {
        SecurityPolicy {
            deny_shadow_announce: false,
            flood_limit: None,
            flood_window: costs::BUS_FLOOD_WINDOW,
        }
    }
}

impl SecurityPolicy {
    /// The policy the E11 security evaluation runs under: shadow-announce
    /// denial on, flood limiter at `limit` messages per millisecond.
    pub fn hardened(limit: u32) -> Self {
        SecurityPolicy {
            deny_shadow_announce: true,
            flood_limit: Some(limit),
            flood_window: costs::BUS_FLOOD_WINDOW,
        }
    }
}

lastcpu_snap::tags! { PrivOpKind { RegisterController = 0, MapInstruction = 1, Announce = 2, Control = 3 } }

lastcpu_snap::tags! { BusVerdict { Allowed = 0, Denied = 1, RateLimited = 2 } }

lastcpu_snap::tags! { DenyReason {
    NotController = 0, ResourceNotMemory = 1, ControllerTaken = 2, TargetNotFound = 3,
    BadRequest = 4, ShadowAnnounce = 5, FloodLimited = 6,
} }

lastcpu_snap::record!(BusAuditRecord {
    src,
    op,
    resource,
    target,
    verdict,
    reason
});

lastcpu_snap::fields! { BusAudit |self| (BusAudit::default()) {
    allowed, denied, rate_limited, pending_allowed, pending_denied, pending_rate_limited,
    dropped, cap, log: lastcpu_snap::Max(self.cap, "audit log exceeds its capacity"),
} }

lastcpu_snap::record!(SecurityPolicy {
    deny_shadow_announce,
    flood_limit,
    flood_window
});
