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
//! let audit = bus.audit().expect("audit enabled");
//! let rec = audit.records().last().unwrap();
//! assert_eq!(rec.op, PrivOpKind::MapInstruction);
//! assert_eq!(rec.verdict, BusVerdict::Denied);
//! assert_eq!(rec.reason, Some(DenyReason::NotController));
//! assert_eq!(audit.denied(), 1);
//! ```

use lastcpu_sim::SimDuration;

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
/// trail. Overflowed records are counted in `dropped_records`.
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
    /// Retained verdict records (bounded; see
    /// [`BusAudit::dropped_records`]).
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
    pub fn allowed(&self) -> u64 {
        self.allowed
    }

    /// Exact count of denied privileged operations.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Exact count of messages shed by the flood limiter.
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited
    }

    /// Records dropped because the bounded log was full.
    pub fn dropped_records(&self) -> u64 {
        self.dropped
    }

    /// Retained verdict records, oldest first.
    pub fn records(&self) -> &[BusAuditRecord] {
        &self.log
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
            flood_window: SimDuration::from_millis(1),
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
            flood_window: SimDuration::from_millis(1),
        }
    }
}

impl PrivOpKind {
    /// Serializes into a snapshot section.
    pub fn encode(self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u8(match self {
            PrivOpKind::RegisterController => 0,
            PrivOpKind::MapInstruction => 1,
            PrivOpKind::Announce => 2,
            PrivOpKind::Control => 3,
        });
    }

    /// Inverse of [`PrivOpKind::encode`].
    pub fn decode(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<Self> {
        Ok(match r.u8()? {
            0 => PrivOpKind::RegisterController,
            1 => PrivOpKind::MapInstruction,
            2 => PrivOpKind::Announce,
            3 => PrivOpKind::Control,
            t => return Err(r.corrupt(format!("bad PrivOpKind tag {t}"))),
        })
    }
}

impl BusVerdict {
    /// Serializes into a snapshot section.
    pub fn encode(self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u8(match self {
            BusVerdict::Allowed => 0,
            BusVerdict::Denied => 1,
            BusVerdict::RateLimited => 2,
        });
    }

    /// Inverse of [`BusVerdict::encode`].
    pub fn decode(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<Self> {
        Ok(match r.u8()? {
            0 => BusVerdict::Allowed,
            1 => BusVerdict::Denied,
            2 => BusVerdict::RateLimited,
            t => return Err(r.corrupt(format!("bad BusVerdict tag {t}"))),
        })
    }
}

impl DenyReason {
    /// Serializes into a snapshot section.
    pub fn encode(self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u8(match self {
            DenyReason::NotController => 0,
            DenyReason::ResourceNotMemory => 1,
            DenyReason::ControllerTaken => 2,
            DenyReason::TargetNotFound => 3,
            DenyReason::BadRequest => 4,
            DenyReason::ShadowAnnounce => 5,
            DenyReason::FloodLimited => 6,
        });
    }

    /// Inverse of [`DenyReason::encode`].
    pub fn decode(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<Self> {
        Ok(match r.u8()? {
            0 => DenyReason::NotController,
            1 => DenyReason::ResourceNotMemory,
            2 => DenyReason::ControllerTaken,
            3 => DenyReason::TargetNotFound,
            4 => DenyReason::BadRequest,
            5 => DenyReason::ShadowAnnounce,
            6 => DenyReason::FloodLimited,
            t => return Err(r.corrupt(format!("bad DenyReason tag {t}"))),
        })
    }
}

impl BusAuditRecord {
    /// Serializes into a snapshot section.
    pub fn encode(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u32(self.src.0);
        self.op.encode(w);
        w.put_opt(self.resource.as_ref(), |w, k| {
            w.put_u8(crate::message::resource_kind_tag(*k))
        });
        w.put_opt(self.target.as_ref(), |w, d| w.put_u32(d.0));
        self.verdict.encode(w);
        w.put_opt(self.reason.as_ref(), |w, x| x.encode(w));
    }

    /// Inverse of [`BusAuditRecord::encode`].
    pub fn decode(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<Self> {
        Ok(BusAuditRecord {
            src: DeviceId(r.u32()?),
            op: PrivOpKind::decode(r)?,
            resource: r.opt(|r| {
                let t = r.u8()?;
                crate::message::resource_kind_from_tag(t)
                    .ok_or_else(|| r.corrupt(format!("bad ResourceKind tag {t}")))
            })?,
            target: r.opt(|r| Ok(DeviceId(r.u32()?)))?,
            verdict: BusVerdict::decode(r)?,
            reason: r.opt(DenyReason::decode)?,
        })
    }
}

impl lastcpu_snap::Snapshot for BusAudit {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.allowed);
        w.put_u64(self.denied);
        w.put_u64(self.rate_limited);
        w.put_u64(self.pending_allowed);
        w.put_u64(self.pending_denied);
        w.put_u64(self.pending_rate_limited);
        w.put_u64(self.dropped);
        w.put_u64(self.cap as u64);
        w.put_len(self.log.len());
        for rec in &self.log {
            rec.encode(w);
        }
    }
}

impl lastcpu_snap::Restore for BusAudit {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.allowed = r.u64()?;
        self.denied = r.u64()?;
        self.rate_limited = r.u64()?;
        self.pending_allowed = r.u64()?;
        self.pending_denied = r.u64()?;
        self.pending_rate_limited = r.u64()?;
        self.dropped = r.u64()?;
        self.cap = r.u64()? as usize;
        let n = r.count()?;
        if n > self.cap {
            return Err(r.corrupt("audit log exceeds its capacity"));
        }
        self.log = Vec::with_capacity(n);
        for _ in 0..n {
            self.log.push(BusAuditRecord::decode(r)?);
        }
        Ok(())
    }
}

impl SecurityPolicy {
    /// Serializes into a snapshot section.
    pub fn encode(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_bool(self.deny_shadow_announce);
        w.put_opt(self.flood_limit.as_ref(), |w, v| w.put_u32(*v));
        w.put_u64(self.flood_window.as_nanos());
    }

    /// Inverse of [`SecurityPolicy::encode`].
    pub fn decode(r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<Self> {
        Ok(SecurityPolicy {
            deny_shadow_announce: r.bool()?,
            flood_limit: r.opt(|r| r.u32())?,
            flood_window: SimDuration::from_nanos(r.u64()?),
        })
    }
}
