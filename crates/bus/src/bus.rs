//! The privileged bus engine.
//!
//! The engine is a pure state machine over [`Envelope`]s. It owns exactly
//! the state the paper allows it (§2.2): which devices exist and are alive,
//! who controls which resource class, and nothing else. In particular it
//! holds **no service directory and no allocation tables** — "no entity sees
//! the entire system and there is no global state replication". Discovery
//! queries are re-broadcast to the devices, which answer from their own
//! service tables; allocation policy lives in the memory controller.
//!
//! Every rule the bus enforces is a *mechanism* rule:
//!
//! 1. Only registered, alive devices may send (dead devices are fenced).
//! 2. IOMMU programming is accepted only from the registered controller of
//!    the resource class being mapped, and a controller can never program a
//!    mapping into its own IOMMU via a self-directed instruction chain —
//!    the target is named explicitly and audited.
//! 3. Failure of a device is broadcast to everyone, followed by a reset
//!    attempt (§4 "Error Handling").

use std::fmt;
use std::sync::Arc;

use lastcpu_sim::{CorrId, SimDuration, SimTime};

use crate::audit::{BusAudit, BusAuditRecord, BusVerdict, DenyReason, PrivOpKind, SecurityPolicy};
use crate::cost::BusCostModel;
use crate::ids::{DeviceId, RequestId};
use crate::message::{
    resource_kind_tag, Dst, Envelope, ErrorCode, MapOp, Payload, ResourceKind, ServiceDesc, Status,
};

/// Effects the bus asks its host simulator to apply.
///
/// The bus crate has no access to devices, IOMMUs or memory: it returns
/// intentions, and the system glue (in `lastcpu-core`) applies them. This is
/// what keeps the privileged logic independently testable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusEffect {
    /// Deliver `env` to device `to` after `latency`.
    ///
    /// The envelope is `Arc`-shared: a broadcast hands the *same* allocation
    /// to every recipient instead of deep-cloning the payload per receiver,
    /// and a unicast forwards the sender's envelope untouched. Receivers
    /// that need ownership (device dispatch) unwrap the `Arc`, which is a
    /// move — not a copy — whenever they hold the last reference.
    Deliver {
        /// Receiving device.
        to: DeviceId,
        /// The message.
        env: Arc<Envelope>,
        /// Control-plane latency until delivery.
        latency: SimDuration,
    },
    /// Program `pages` mappings into `device`'s IOMMU.
    ProgramMap {
        /// Device whose IOMMU is written.
        device: DeviceId,
        /// Target address space.
        pasid: u32,
        /// Virtual base (page-aligned).
        va: u64,
        /// Physical base (page-aligned).
        pa: u64,
        /// Number of pages.
        pages: u64,
        /// Permission bits (1=R,2=W,4=X).
        perms: u8,
        /// Activity that caused this programming.
        corr: CorrId,
    },
    /// Remove `pages` mappings from `device`'s IOMMU.
    ProgramUnmap {
        /// Device whose IOMMU is written.
        device: DeviceId,
        /// Target address space.
        pasid: u32,
        /// Virtual base (page-aligned).
        va: u64,
        /// Number of pages.
        pages: u64,
        /// Activity that caused this revocation.
        corr: CorrId,
    },
    /// Pulse the reset line of `device` (failure recovery attempt).
    ResetDevice {
        /// Device to reset.
        device: DeviceId,
        /// Activity that caused the reset.
        corr: CorrId,
    },
}

/// Errors from the bus's host-facing API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// Operation referenced an unknown device.
    UnknownDevice(DeviceId),
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::UnknownDevice(d) => write!(f, "unknown device {d}"),
        }
    }
}

impl std::error::Error for BusError {}

/// Liveness state of a registered device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceState {
    /// Physically present, has not completed self-test yet.
    Attached,
    /// Sent `Hello`; fully operational.
    Alive,
    /// Declared failed; a reset has been attempted.
    Failed,
    /// Departed via `Bye`.
    Departed,
}

/// Bus-side record for one device.
#[derive(Debug, Clone)]
pub struct DeviceEntry {
    /// Stable bus address.
    pub id: DeviceId,
    /// Device name, e.g. `"nic0"`.
    pub name: String,
    /// Device kind, e.g. `"smart-nic"`.
    pub kind: String,
    /// Liveness state.
    pub state: DeviceState,
    /// Last time the bus heard from the device.
    pub last_seen: SimTime,
    /// Services the device has announced (observability only; the bus does
    /// not answer queries from this).
    pub services: Vec<ServiceDesc>,
    /// Flood-limiter state (window start, messages in window); `None` until
    /// the limiter first counts a message from this sender.
    flood: Option<(SimTime, u32)>,
}

/// Traffic counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct BusStats {
    /// Messages handled.
    pub messages: u64,
    /// Bytes carried (control plane only).
    pub bytes: u64,
    /// Unicast deliveries emitted.
    pub unicasts: u64,
    /// Broadcast deliveries emitted (one per recipient).
    pub broadcast_deliveries: u64,
    /// Map/unmap instructions executed.
    pub map_ops: u64,
    /// Requests denied by privilege checks.
    pub denials: u64,
    /// Messages shed by the flood limiter (see
    /// [`SecurityPolicy::flood_limit`]).
    pub flood_dropped: u64,
    /// Device failures detected (heartbeat timeout or explicit).
    pub failures: u64,
}

/// The system management bus.
///
/// # Examples
///
/// ```
/// use lastcpu_bus::{CorrId, Dst, Envelope, Payload, RequestId, SystemBus};
/// use lastcpu_sim::SimTime;
///
/// let mut bus = SystemBus::new();
/// let nic = bus.attach("nic0", "smart-nic");
/// let mut fx = Vec::new();
/// bus.handle(
///     SimTime::ZERO,
///     Envelope {
///         src: nic,
///         dst: Dst::Bus,
///         req: RequestId(1),
///         corr: CorrId(1),
///         payload: Payload::Hello { name: "nic0".into(), kind: "smart-nic".into() },
///     },
///     &mut fx,
/// );
/// assert!(matches!(fx[0], lastcpu_bus::BusEffect::Deliver { .. })); // HelloAck
/// ```
pub struct SystemBus {
    /// The registry, in attach order. Ids are indices: [`SystemBus::attach`]
    /// is the only allocator, hands out `1, 2, …` and never removes an
    /// entry, so the entry of `id` sits at `id.0 - 1`.
    devices: Vec<DeviceEntry>,
    /// The registered controller of each resource class, indexed by
    /// `resource_kind_tag`.
    controllers: [Option<DeviceId>; 4],
    cost: BusCostModel,
    heartbeat_timeout: SimDuration,
    stats: BusStats,
    /// Correlation id of the message currently being handled; stamped onto
    /// every reply, broadcast, and IOMMU-programming effect it causes.
    cur_corr: CorrId,
    /// Privileged-operation audit (E11); `None` until enabled.
    audit: Option<BusAudit>,
    /// Opt-in hardening policy; the default changes nothing.
    policy: SecurityPolicy,
}

impl Default for SystemBus {
    fn default() -> Self {
        Self::new()
    }
}

impl SystemBus {
    /// A bus with default cost model and a 10 ms heartbeat timeout.
    pub fn new() -> Self {
        SystemBus {
            devices: Vec::new(),
            controllers: [None; 4],
            cost: BusCostModel::default(),
            heartbeat_timeout: SimDuration::from_millis(10),
            stats: BusStats::default(),
            cur_corr: CorrId::NONE,
            audit: None,
            policy: SecurityPolicy::default(),
        }
    }

    /// Enables the privileged-operation audit ([`BusAudit`]), keeping at
    /// most `cap` verdict records. Idempotent.
    pub fn enable_audit(&mut self, cap: usize) {
        if self.audit.is_none() {
            self.audit = Some(BusAudit::new(cap));
        }
    }

    /// The audit record, if [`SystemBus::enable_audit`] was called.
    pub fn audit(&self) -> Option<&BusAudit> {
        self.audit.as_ref()
    }

    /// Mutable audit access (the event core drains verdict records here).
    pub fn audit_mut(&mut self) -> Option<&mut BusAudit> {
        self.audit.as_mut()
    }

    /// Installs a hardening policy. The default [`SecurityPolicy`] changes
    /// nothing; see [`SecurityPolicy::hardened`] for the E11 settings.
    pub fn set_security_policy(&mut self, policy: SecurityPolicy) {
        self.policy = policy;
    }

    /// The hardening policy in effect.
    pub fn security_policy(&self) -> SecurityPolicy {
        self.policy
    }

    fn audit_record(
        &mut self,
        src: DeviceId,
        op: PrivOpKind,
        resource: Option<ResourceKind>,
        target: Option<DeviceId>,
        verdict: BusVerdict,
        reason: Option<DenyReason>,
    ) {
        if let Some(a) = self.audit.as_mut() {
            a.record(BusAuditRecord {
                src,
                op,
                resource,
                target,
                verdict,
                reason,
            });
        }
    }

    /// Refuses a privileged request without answering it: counted and
    /// audited, but the sender gets no reply to learn from or amplify.
    fn shed(
        &mut self,
        src: DeviceId,
        op: PrivOpKind,
        resource: Option<ResourceKind>,
        target: Option<DeviceId>,
        reason: DenyReason,
    ) {
        self.stats.denials += 1;
        self.audit_record(src, op, resource, target, BusVerdict::Denied, Some(reason));
    }

    /// Refuses a privileged request: counted, audited, and answered with
    /// `BusAck { status }`.
    #[allow(clippy::too_many_arguments)] // One verdict, every field of its audit record.
    fn deny(
        &mut self,
        bytes: usize,
        src: DeviceId,
        req: RequestId,
        op: PrivOpKind,
        resource: Option<ResourceKind>,
        target: Option<DeviceId>,
        reason: DenyReason,
        status: Status,
        fx: &mut Vec<BusEffect>,
    ) {
        self.shed(src, op, resource, target, reason);
        self.reply(bytes, src, req, Payload::BusAck { status }, fx);
    }

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, cost: BusCostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the heartbeat timeout after which a silent device is declared
    /// failed by [`SystemBus::check_liveness`].
    pub fn set_heartbeat_timeout(&mut self, t: SimDuration) {
        self.heartbeat_timeout = t;
    }

    /// The configured cost model.
    pub fn cost_model(&self) -> &BusCostModel {
        &self.cost
    }

    /// Traffic counters.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Registers a physically present device and assigns its bus address.
    ///
    /// This models slot enumeration (PCIe-style): presence is physical and
    /// synchronous. The device becomes *alive* only after it passes
    /// self-test and sends [`Payload::Hello`] (§2.2 "System
    /// Initialization").
    pub fn attach(&mut self, name: &str, kind: &str) -> DeviceId {
        // 0 is the bus itself, so the first device is 1.
        let id = DeviceId(self.devices.len() as u32 + 1);
        self.devices.push(DeviceEntry {
            id,
            name: name.to_string(),
            kind: kind.to_string(),
            state: DeviceState::Attached,
            last_seen: SimTime::ZERO,
            services: Vec::new(),
            flood: None,
        });
        id
    }

    /// Looks up a device entry. Ids arrive in messages from devices that may
    /// be hostile, so this is the checked lookup every path goes through:
    /// [`DeviceId::BUS`] and ids `attach` never handed out have no entry.
    pub fn device(&self, id: DeviceId) -> Option<&DeviceEntry> {
        self.devices.get(index_of(id)?)
    }

    fn device_mut(&mut self, id: DeviceId) -> Option<&mut DeviceEntry> {
        self.devices.get_mut(index_of(id)?)
    }

    fn is_alive(&self, id: DeviceId) -> bool {
        self.device(id)
            .is_some_and(|e| e.state == DeviceState::Alive)
    }

    /// All registered devices in attach order.
    pub fn devices(&self) -> impl Iterator<Item = &DeviceEntry> {
        self.devices.iter()
    }

    /// Devices currently alive, in attach order.
    pub fn alive(&self) -> impl Iterator<Item = &DeviceEntry> {
        self.devices().filter(|d| d.state == DeviceState::Alive)
    }

    /// The registered controller of `resource`, if any.
    pub fn controller_of(&self, resource: ResourceKind) -> Option<DeviceId> {
        self.controllers[resource_kind_tag(resource) as usize]
    }

    fn deliver(
        &mut self,
        to: DeviceId,
        env: Arc<Envelope>,
        latency: SimDuration,
        fx: &mut Vec<BusEffect>,
    ) {
        self.stats.unicasts += 1;
        fx.push(BusEffect::Deliver { to, env, latency });
    }

    fn reply(
        &mut self,
        now_bytes: usize,
        to: DeviceId,
        req: RequestId,
        payload: Payload,
        fx: &mut Vec<BusEffect>,
    ) {
        let env = Envelope {
            src: DeviceId::BUS,
            dst: Dst::Device(to),
            req,
            corr: self.cur_corr,
            payload,
        };
        let latency = self.cost.unicast(now_bytes.max(env.encoded_len()));
        self.deliver(to, Arc::new(env), latency, fx);
    }

    /// Shared rebroadcast path for bus-directed discovery messages
    /// (`Announce` / `Withdraw` / `Query`): builds the broadcast envelope
    /// **once**, shares it across all recipients, and re-uses the incoming
    /// message's wire size for cost accounting. Previously each call site
    /// rebuilt and re-cloned the envelope per recipient.
    fn rebroadcast(
        &mut self,
        src: DeviceId,
        req: RequestId,
        payload: Payload,
        bytes: usize,
        fx: &mut Vec<BusEffect>,
    ) {
        let env = Arc::new(Envelope {
            src,
            dst: Dst::Broadcast,
            req,
            corr: self.cur_corr,
            payload,
        });
        self.broadcast_from(src, env, bytes, fx);
    }

    /// Handles one message, appending resulting effects to `fx`.
    ///
    /// Accepts either an owned [`Envelope`] or an already-shared
    /// `Arc<Envelope>`; the routing path never re-encodes or deep-clones
    /// the message.
    ///
    /// Unknown or fenced senders are dropped silently (a dead device's
    /// messages must not reach anyone — that is the fencing property the
    /// failure experiment checks).
    pub fn handle(&mut self, now: SimTime, env: impl Into<Arc<Envelope>>, fx: &mut Vec<BusEffect>) {
        let env: Arc<Envelope> = env.into();
        let bytes = env.encoded_len();
        self.cur_corr = env.corr;
        self.stats.messages += 1;
        self.stats.bytes += bytes as u64;

        // Fencing: only attached/alive devices may talk. `Hello` is allowed
        // from `Attached` (that is how a device becomes alive) and from
        // `Failed` (a reset device re-introduces itself).
        let policy = self.policy;
        let Some(sender) = self.device_mut(env.src) else {
            return;
        };
        let is_hello = matches!(env.payload, Payload::Hello { .. });
        match sender.state {
            DeviceState::Alive => {}
            DeviceState::Attached | DeviceState::Failed if is_hello => {}
            _ => return,
        }
        sender.last_seen = now;

        // Flood limiter (opt-in policy): a per-sender cap on control-plane
        // messages per window. Excess messages are shed silently — the
        // attacker gets no reply to amplify — but every shed message is
        // audited and counted, so the defence is provable.
        if let Some(limit) = policy.flood_limit {
            if matches!(env.dst, Dst::Bus | Dst::Broadcast) {
                let slot = sender.flood.get_or_insert((now, 0));
                if now.since(slot.0) >= policy.flood_window {
                    *slot = (now, 0);
                }
                slot.1 += 1;
                if slot.1 > limit {
                    self.stats.flood_dropped += 1;
                    self.audit_record(
                        env.src,
                        PrivOpKind::Control,
                        None,
                        None,
                        BusVerdict::RateLimited,
                        Some(DenyReason::FloodLimited),
                    );
                    return;
                }
            }
        }

        match env.dst {
            Dst::Bus => self.handle_bus_directed(now, &env, bytes, fx),
            Dst::Device(target) => {
                // Discovery-spoof defence (opt-in policy, the second half of
                // the shadow-announce check): owners answer `Query`
                // broadcasts *directly* with `QueryHit`, so a spoofed hit
                // would capture a discovery client without ever touching
                // the announce directory. Under the policy, a `QueryHit`
                // must (a) name its own sender as the offering device and
                // (b) name a service that sender has announced. Spoofs are
                // shed silently — a reply would tell the attacker which
                // names are live — but every one is audited.
                if self.policy.deny_shadow_announce {
                    if let Payload::QueryHit { device, service } = &env.payload {
                        let legit = *device == env.src
                            && self
                                .device(env.src)
                                .is_some_and(|e| e.services.iter().any(|s| s.name == service.name));
                        if !legit {
                            self.shed(
                                env.src,
                                PrivOpKind::Announce,
                                Some(service.resource),
                                Some(*device),
                                DenyReason::ShadowAnnounce,
                            );
                            return;
                        }
                    }
                }
                if self.is_alive(target) {
                    let latency = self.cost.unicast(bytes);
                    // Zero-copy forward: the sender's envelope is handed
                    // through untouched.
                    self.deliver(target, env, latency, fx);
                } else {
                    // Bounce: tell the sender its peer is gone.
                    let req = env.req;
                    let src = env.src;
                    self.reply(
                        bytes,
                        src,
                        req,
                        Payload::ErrorNotify {
                            code: ErrorCode::DeviceFailed,
                            conn: crate::ids::ConnId(0),
                            detail: format!("{target} is not alive"),
                        },
                        fx,
                    );
                }
            }
            Dst::Broadcast => self.broadcast_from(env.src, env, bytes, fx),
        }
    }

    fn broadcast_from(
        &mut self,
        src: DeviceId,
        env: Arc<Envelope>,
        bytes: usize,
        fx: &mut Vec<BusEffect>,
    ) {
        let mut n = 0usize;
        for e in &self.devices {
            if e.id == src || e.state != DeviceState::Alive {
                continue;
            }
            let latency = self.cost.broadcast_nth(bytes, n);
            n += 1;
            self.stats.broadcast_deliveries += 1;
            fx.push(BusEffect::Deliver {
                to: e.id,
                // Reference-count bump only — the payload is shared, not
                // deep-cloned per recipient.
                env: Arc::clone(&env),
                latency,
            });
        }
    }

    fn handle_bus_directed(
        &mut self,
        now: SimTime,
        env: &Envelope,
        bytes: usize,
        fx: &mut Vec<BusEffect>,
    ) {
        let src = env.src;
        let req = env.req;
        match &env.payload {
            Payload::Hello { .. } => {
                if let Some(e) = self.device_mut(src) {
                    e.state = DeviceState::Alive;
                    e.last_seen = now;
                }
                self.reply(bytes, src, req, Payload::HelloAck { assigned: src }, fx);
            }
            Payload::Heartbeat => {
                // last_seen already refreshed in handle().
            }
            Payload::Bye => {
                if let Some(e) = self.device_mut(src) {
                    e.state = DeviceState::Departed;
                }
                self.fan_out_failure(src, bytes, fx);
            }
            Payload::Announce { service } => {
                // Shadowing defence (opt-in policy): refuse to let one
                // device announce a service *name* another alive device is
                // currently announcing. Stops spoofed/replayed SSDP
                // announcements from capturing a victim's discovery
                // clients.
                if self.policy.deny_shadow_announce {
                    let shadowed = self.devices.iter().any(|e| {
                        e.id != src
                            && e.state == DeviceState::Alive
                            && e.services.iter().any(|s| s.name == service.name)
                    });
                    if shadowed {
                        self.deny(
                            bytes,
                            src,
                            req,
                            PrivOpKind::Announce,
                            Some(service.resource),
                            None,
                            DenyReason::ShadowAnnounce,
                            Status::Denied,
                            fx,
                        );
                        return;
                    }
                }
                if let Some(e) = self.device_mut(src) {
                    e.services.retain(|s| s.id != service.id);
                    e.services.push(service.clone());
                }
                // Capability broadcast (§2.2): others may cache it.
                self.rebroadcast(
                    src,
                    req,
                    Payload::Announce {
                        service: service.clone(),
                    },
                    bytes,
                    fx,
                );
            }
            Payload::Withdraw { service } => {
                let service = *service;
                if let Some(e) = self.device_mut(src) {
                    e.services.retain(|s| s.id != service);
                }
                self.rebroadcast(src, req, Payload::Withdraw { service }, bytes, fx);
            }
            Payload::Query { pattern } => {
                // SSDP-style: the bus re-broadcasts; owners answer directly.
                self.rebroadcast(
                    src,
                    req,
                    Payload::Query {
                        pattern: pattern.clone(),
                    },
                    bytes,
                    fx,
                );
            }
            Payload::RegisterController { resource } => {
                // First claim wins; the holder may re-register.
                let resource = *resource;
                let class = resource_kind_tag(resource) as usize;
                if self.controllers[class].is_some_and(|owner| owner != src) {
                    self.deny(
                        bytes,
                        src,
                        req,
                        PrivOpKind::RegisterController,
                        Some(resource),
                        None,
                        DenyReason::ControllerTaken,
                        Status::Denied,
                        fx,
                    );
                    return;
                }
                self.controllers[class] = Some(src);
                self.audit_record(
                    src,
                    PrivOpKind::RegisterController,
                    Some(resource),
                    None,
                    BusVerdict::Allowed,
                    None,
                );
                self.reply(bytes, src, req, Payload::BusAck { status: Status::Ok }, fx);
            }
            Payload::MapInstruction {
                resource,
                op,
                device,
                pasid,
                va,
                pa,
                pages,
                perms,
            } => {
                self.handle_map_instruction(
                    bytes, src, req, *resource, *op, *device, *pasid, *va, *pa, *pages, *perms, fx,
                );
            }
            Payload::ResetDone => {
                if let Some(e) = self.device_mut(src) {
                    // The device still re-registers via Hello.
                    e.last_seen = now;
                }
            }
            _ => {
                // Anything else aimed at the bus is a protocol violation.
                self.deny(
                    bytes,
                    src,
                    req,
                    PrivOpKind::Control,
                    None,
                    None,
                    DenyReason::BadRequest,
                    Status::BadRequest,
                    fx,
                );
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // Mirrors the wire message fields.
    fn handle_map_instruction(
        &mut self,
        bytes: usize,
        src: DeviceId,
        req: RequestId,
        resource: ResourceKind,
        op: MapOp,
        device: DeviceId,
        pasid: u32,
        va: u64,
        pa: u64,
        pages: u64,
        perms: u8,
        fx: &mut Vec<BusEffect>,
    ) {
        // Hardening (E11 finding): IOMMU page tables translate to physical
        // DRAM, so only the *memory* resource class can legitimately
        // instruct them. Before this check, a device could claim a vacant
        // class (Compute/Storage/Network) via `RegisterController` — first
        // claim wins — and then use it as a deputy to program arbitrary
        // DRAM mappings into any IOMMU. Denied before the controller check:
        // a non-Memory map instruction is a protocol violation no matter
        // who sends it.
        let refused = if resource != ResourceKind::Memory {
            Some(DenyReason::ResourceNotMemory)
        // Privilege check: only the registered controller of this resource
        // class may instruct mappings (§2.2 "Address Translation").
        } else if self.controller_of(resource) != Some(src) {
            Some(DenyReason::NotController)
        } else {
            None
        };
        if let Some(reason) = refused {
            self.deny(
                bytes,
                src,
                req,
                PrivOpKind::MapInstruction,
                Some(resource),
                Some(device),
                reason,
                Status::Denied,
                fx,
            );
            return;
        }
        // Map requires a live target; *unmap* is allowed on any attached
        // device — revocation must work on a failed device precisely so its
        // IOMMU is scrubbed before any reset revives it (§4).
        let target_ok = match op {
            MapOp::Map => self.is_alive(device),
            MapOp::Unmap => self.device(device).is_some(),
        };
        if !target_ok || pages == 0 {
            // A malformed or stale instruction from the rightful controller,
            // not a privilege refusal: audited and answered, but
            // `stats.denials` counts privilege checks only.
            self.audit_record(
                src,
                PrivOpKind::MapInstruction,
                Some(resource),
                Some(device),
                BusVerdict::Denied,
                Some(if pages == 0 {
                    DenyReason::BadRequest
                } else {
                    DenyReason::TargetNotFound
                }),
            );
            self.reply(
                bytes,
                src,
                req,
                Payload::BusAck {
                    status: if pages == 0 {
                        Status::BadRequest
                    } else {
                        Status::NotFound
                    },
                },
                fx,
            );
            return;
        }
        self.stats.map_ops += 1;
        self.audit_record(
            src,
            PrivOpKind::MapInstruction,
            Some(resource),
            Some(device),
            BusVerdict::Allowed,
            None,
        );
        match op {
            MapOp::Map => fx.push(BusEffect::ProgramMap {
                device,
                pasid,
                va,
                pa,
                pages,
                perms,
                corr: self.cur_corr,
            }),
            MapOp::Unmap => fx.push(BusEffect::ProgramUnmap {
                device,
                pasid,
                va,
                pages,
                corr: self.cur_corr,
            }),
        }
        // Completion signal to the device whose address space changed…
        self.reply(
            bytes,
            device,
            req,
            Payload::MapComplete {
                status: Status::Ok,
                va,
                pages,
            },
            fx,
        );
        // …and an ack to the instructing controller.
        self.reply(bytes, src, req, Payload::BusAck { status: Status::Ok }, fx);
    }

    fn fan_out_failure(&mut self, failed: DeviceId, bytes: usize, fx: &mut Vec<BusEffect>) {
        self.stats.failures += 1;
        // Not `rebroadcast`: the notice is *from the bus* but must exclude
        // the failed device, so the exclusion differs from the envelope src.
        let note = Arc::new(Envelope {
            src: DeviceId::BUS,
            dst: Dst::Broadcast,
            req: RequestId(0),
            corr: self.cur_corr,
            payload: Payload::DeviceFailed { device: failed },
        });
        self.broadcast_from(failed, note, bytes, fx);
    }

    /// Declares `device` failed right now (fault injection or an external
    /// detector), fencing it, notifying everyone, and attempting a reset.
    pub fn mark_failed(
        &mut self,
        device: DeviceId,
        fx: &mut Vec<BusEffect>,
    ) -> Result<(), BusError> {
        let entry = self
            .device_mut(device)
            .ok_or(BusError::UnknownDevice(device))?;
        entry.state = DeviceState::Failed;
        // Failure detection is spontaneous, not caused by an in-flight
        // message; do not attribute it to whatever was handled last.
        self.cur_corr = CorrId::NONE;
        self.fan_out_failure(device, 32, fx);
        fx.push(BusEffect::ResetDevice {
            device,
            corr: self.cur_corr,
        });
        Ok(())
    }

    /// Scans for devices whose heartbeat lapsed and declares them failed.
    ///
    /// A device is lapsed once the full timeout has elapsed, *inclusive* of
    /// the boundary tick: with a strict `>` a deterministic sweep schedule
    /// whose period divides the timeout would land exactly on the deadline
    /// every time and keep a dead device "Alive" forever.
    ///
    /// Returns the devices newly declared failed.
    pub fn check_liveness(&mut self, now: SimTime, fx: &mut Vec<BusEffect>) -> Vec<DeviceId> {
        let timeout = self.heartbeat_timeout;
        let lapsed: Vec<DeviceId> = self
            .devices
            .iter()
            .filter(|e| e.state == DeviceState::Alive && now.since(e.last_seen) >= timeout)
            .map(|e| e.id)
            .collect();
        for &d in &lapsed {
            // Cannot fail: `d` came from the registry.
            let _ = self.mark_failed(d, fx);
        }
        lapsed
    }
}

/// Registry index of `id`, if it can have one: [`DeviceId::BUS`] is not a
/// registry entry.
fn index_of(id: DeviceId) -> Option<usize> {
    (id.0 as usize).checked_sub(1)
}

impl fmt::Debug for SystemBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SystemBus(devices={}, alive={}, controllers={})",
            self.devices.len(),
            self.alive().count(),
            self.controllers.iter().flatten().count()
        )
    }
}

fn device_state_tag(s: DeviceState) -> u8 {
    match s {
        DeviceState::Attached => 0,
        DeviceState::Alive => 1,
        DeviceState::Failed => 2,
        DeviceState::Departed => 3,
    }
}

fn device_state_from_tag(t: u8) -> Option<DeviceState> {
    Some(match t {
        0 => DeviceState::Attached,
        1 => DeviceState::Alive,
        2 => DeviceState::Failed,
        3 => DeviceState::Departed,
        _ => return None,
    })
}

impl lastcpu_snap::Snapshot for SystemBus {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.cost.hop_latency.as_nanos());
        w.put_u64(self.cost.processing.as_nanos());
        w.put_u64(self.cost.per_byte_ps);
        w.put_u64(self.heartbeat_timeout.as_nanos());
        // The next id `attach` would hand out.
        w.put_u32(self.devices.len() as u32 + 1);
        w.put_u64(self.cur_corr.0);
        w.put_u64(self.stats.messages);
        w.put_u64(self.stats.bytes);
        w.put_u64(self.stats.unicasts);
        w.put_u64(self.stats.broadcast_deliveries);
        w.put_u64(self.stats.map_ops);
        w.put_u64(self.stats.denials);
        w.put_u64(self.stats.flood_dropped);
        w.put_u64(self.stats.failures);
        // The format lists attach order, then the entries by id. Both are
        // the registry's index order; restore checks that they agree.
        w.put_len(self.devices.len());
        for e in &self.devices {
            w.put_u32(e.id.0);
        }
        w.put_len(self.devices.len());
        for e in &self.devices {
            w.put_u32(e.id.0);
            w.put_str(&e.name);
            w.put_str(&e.kind);
            w.put_u8(device_state_tag(e.state));
            w.put_u64(e.last_seen.as_nanos());
            w.put_len(e.services.len());
            for s in &e.services {
                s.snap_encode(w);
            }
        }
        w.put_len(self.controllers.iter().flatten().count());
        for (class, d) in self.controllers.iter().enumerate() {
            if let Some(d) = d {
                w.put_u8(class as u8);
                w.put_u32(d.0);
            }
        }
        self.policy.encode(w);
        // Only senders the flood limiter has counted are listed.
        let limited = || {
            self.devices
                .iter()
                .filter_map(|e| e.flood.map(|f| (e.id, f)))
        };
        w.put_len(limited().count());
        for (d, (t, n)) in limited() {
            w.put_u32(d.0);
            w.put_u64(t.as_nanos());
            w.put_u32(n);
        }
        w.put_opt(self.audit.as_ref(), |w, a| a.snapshot(w));
    }
}

impl lastcpu_snap::Restore for SystemBus {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.cost.hop_latency = SimDuration::from_nanos(r.u64()?);
        self.cost.processing = SimDuration::from_nanos(r.u64()?);
        self.cost.per_byte_ps = r.u64()?;
        self.heartbeat_timeout = SimDuration::from_nanos(r.u64()?);
        let next_id = r.u32()?;
        self.cur_corr = CorrId(r.u64()?);
        self.stats.messages = r.u64()?;
        self.stats.bytes = r.u64()?;
        self.stats.unicasts = r.u64()?;
        self.stats.broadcast_deliveries = r.u64()?;
        self.stats.map_ops = r.u64()?;
        self.stats.denials = r.u64()?;
        self.stats.flood_dropped = r.u64()?;
        self.stats.failures = r.u64()?;
        // Ids are indices, so a registry is only restorable if its attach
        // order and its entries both read exactly 1..=n.
        let n = r.len()?;
        for i in 0..n {
            let id = r.u32()?;
            if id as usize != i + 1 {
                return Err(r.corrupt(format!("attach order lists dev:{id} at position {i}")));
            }
        }
        if r.len()? != n || next_id as usize != n + 1 {
            return Err(r.corrupt(format!(
                "registry disagrees with its attach order of {n} (next id {next_id})"
            )));
        }
        self.devices = Vec::with_capacity(n);
        for i in 0..n {
            let id = DeviceId(r.u32()?);
            if index_of(id) != Some(i) {
                return Err(r.corrupt(format!("registry lists {id} at position {i}")));
            }
            let name = r.str()?;
            let kind = r.str()?;
            let state = {
                let t = r.u8()?;
                device_state_from_tag(t)
                    .ok_or_else(|| r.corrupt(format!("bad DeviceState tag {t}")))?
            };
            let last_seen = SimTime::from_nanos(r.u64()?);
            let ns = r.len()?;
            let mut services = Vec::with_capacity(ns);
            for _ in 0..ns {
                services.push(ServiceDesc::snap_decode(r)?);
            }
            self.devices.push(DeviceEntry {
                id,
                name,
                kind,
                state,
                last_seen,
                services,
                flood: None,
            });
        }
        self.controllers = [None; 4];
        for _ in 0..r.len()? {
            let t = r.u8()?;
            let slot = self
                .controllers
                .get_mut(t as usize)
                .ok_or_else(|| r.corrupt(format!("bad ResourceKind tag {t}")))?;
            *slot = Some(DeviceId(r.u32()?));
        }
        self.policy = SecurityPolicy::decode(r)?;
        for _ in 0..r.len()? {
            let d = DeviceId(r.u32()?);
            let t = SimTime::from_nanos(r.u64()?);
            let c = r.u32()?;
            match self.device_mut(d) {
                Some(e) => e.flood = Some((t, c)),
                None => return Err(r.corrupt(format!("flood state for unknown {d}"))),
            }
        }
        self.audit = r.opt(|r| {
            let mut a = BusAudit::default();
            a.restore(r)?;
            Ok(a)
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ServiceId, Token};

    fn hello(bus: &mut SystemBus, id: DeviceId) {
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: id,
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Hello {
                    name: String::new(),
                    kind: String::new(),
                },
            },
            &mut fx,
        );
    }

    fn setup() -> (SystemBus, DeviceId, DeviceId, DeviceId) {
        let mut bus = SystemBus::new();
        let nic = bus.attach("nic0", "smart-nic");
        let ssd = bus.attach("ssd0", "smart-ssd");
        let mc = bus.attach("memctl0", "memory-controller");
        for d in [nic, ssd, mc] {
            hello(&mut bus, d);
        }
        (bus, nic, ssd, mc)
    }

    fn register_memctl(bus: &mut SystemBus, mc: DeviceId) {
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: mc,
                dst: Dst::Bus,
                req: RequestId(1),
                corr: CorrId::NONE,
                payload: Payload::RegisterController {
                    resource: ResourceKind::Memory,
                },
            },
            &mut fx,
        );
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { env, .. }
                if matches!(env.payload, Payload::BusAck { status: Status::Ok })
        ));
    }

    fn map_instruction(src: DeviceId, target: DeviceId) -> Envelope {
        Envelope {
            src,
            dst: Dst::Bus,
            req: RequestId(9),
            corr: CorrId::NONE,
            payload: Payload::MapInstruction {
                resource: ResourceKind::Memory,
                op: MapOp::Map,
                device: target,
                pasid: 1,
                va: 0x10000,
                pa: 0x200000,
                pages: 4,
                perms: 3,
            },
        }
    }

    #[test]
    fn attach_assigns_distinct_nonzero_ids() {
        let (bus, nic, ssd, mc) = setup();
        assert_ne!(nic, ssd);
        assert_ne!(ssd, mc);
        assert_ne!(nic, DeviceId::BUS);
        assert_eq!(bus.devices().count(), 3);
    }

    #[test]
    fn hello_makes_device_alive_and_acks() {
        let mut bus = SystemBus::new();
        let d = bus.attach("x", "y");
        assert_eq!(bus.device(d).unwrap().state, DeviceState::Attached);
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: d,
                dst: Dst::Bus,
                req: RequestId(5),
                corr: CorrId::NONE,
                payload: Payload::Hello {
                    name: "x".into(),
                    kind: "y".into(),
                },
            },
            &mut fx,
        );
        assert_eq!(bus.device(d).unwrap().state, DeviceState::Alive);
        match &fx[0] {
            BusEffect::Deliver { to, env, .. } => {
                assert_eq!(*to, d);
                assert_eq!(env.req, RequestId(5));
                assert_eq!(env.payload, Payload::HelloAck { assigned: d });
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_sender_is_dropped() {
        let mut bus = SystemBus::new();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: DeviceId(99),
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        assert!(fx.is_empty());
    }

    #[test]
    fn unicast_routes_between_alive_devices() {
        let (mut bus, nic, ssd, _) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Device(ssd),
                req: RequestId(2),
                corr: CorrId::NONE,
                payload: Payload::OpenRequest {
                    service: ServiceId(1),
                    token: Token::NONE,
                    params: vec![],
                },
            },
            &mut fx,
        );
        assert_eq!(fx.len(), 1);
        match &fx[0] {
            BusEffect::Deliver { to, env, latency } => {
                assert_eq!(*to, ssd);
                assert_eq!(env.src, nic);
                assert!(latency.as_nanos() > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unicast_to_dead_device_bounces() {
        let (mut bus, nic, ssd, _) = setup();
        let mut fx = Vec::new();
        bus.mark_failed(ssd, &mut fx).unwrap();
        fx.clear();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Device(ssd),
                req: RequestId(3),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        assert_eq!(fx.len(), 1);
        match &fx[0] {
            BusEffect::Deliver { to, env, .. } => {
                assert_eq!(*to, nic);
                assert!(matches!(
                    env.payload,
                    Payload::ErrorNotify {
                        code: ErrorCode::DeviceFailed,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn broadcast_reaches_all_alive_except_sender() {
        let (mut bus, nic, _, _) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Broadcast,
                req: RequestId(4),
                corr: CorrId::NONE,
                payload: Payload::Query {
                    pattern: "file:*".into(),
                },
            },
            &mut fx,
        );
        let recipients: Vec<DeviceId> = fx
            .iter()
            .map(|e| match e {
                BusEffect::Deliver { to, .. } => *to,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(recipients.len(), 2);
        assert!(!recipients.contains(&nic));
    }

    #[test]
    fn broadcast_latencies_are_serialized() {
        let (mut bus, nic, _, _) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Broadcast,
                req: RequestId(4),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        let lats: Vec<u64> = fx
            .iter()
            .map(|e| match e {
                BusEffect::Deliver { latency, .. } => latency.as_nanos(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(lats[1] > lats[0]);
    }

    #[test]
    fn query_via_bus_is_rebroadcast_with_original_src() {
        let (mut bus, nic, ssd, mc) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(6),
                corr: CorrId::NONE,
                payload: Payload::Query {
                    pattern: "file:/data/kv.db".into(),
                },
            },
            &mut fx,
        );
        assert_eq!(fx.len(), 2);
        for e in &fx {
            match e {
                BusEffect::Deliver { to, env, .. } => {
                    assert!(*to == ssd || *to == mc);
                    assert_eq!(env.src, nic, "owners must reply to the querier");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn controller_registration_first_wins() {
        let (mut bus, nic, _, mc) = setup();
        register_memctl(&mut bus, mc);
        assert_eq!(bus.controller_of(ResourceKind::Memory), Some(mc));
        // Second claimant is denied.
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(7),
                corr: CorrId::NONE,
                payload: Payload::RegisterController {
                    resource: ResourceKind::Memory,
                },
            },
            &mut fx,
        );
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { env, .. }
                if matches!(
                    env.payload,
                    Payload::BusAck {
                        status: Status::Denied
                    }
                )
        ));
        assert_eq!(bus.controller_of(ResourceKind::Memory), Some(mc));
        assert_eq!(bus.stats().denials, 1);
    }

    #[test]
    fn map_instruction_from_controller_programs_iommu() {
        let (mut bus, nic, _, mc) = setup();
        register_memctl(&mut bus, mc);
        let mut fx = Vec::new();
        bus.handle(SimTime::ZERO, map_instruction(mc, nic), &mut fx);
        assert!(fx.iter().any(|e| matches!(
            e,
            BusEffect::ProgramMap {
                device,
                pasid: 1,
                va: 0x10000,
                pa: 0x200000,
                pages: 4,
                perms: 3,
                ..
            } if *device == nic
        )));
        // Completion to the mapped device and ack to the controller.
        let delivered: Vec<(DeviceId, &'static str)> = fx
            .iter()
            .filter_map(|e| match e {
                BusEffect::Deliver { to, env, .. } => Some((*to, env.payload.kind_name())),
                _ => None,
            })
            .collect();
        assert!(delivered.contains(&(nic, "MapComplete")));
        assert!(delivered.contains(&(mc, "BusAck")));
        assert_eq!(bus.stats().map_ops, 1);
    }

    #[test]
    fn map_instruction_from_non_controller_denied() {
        let (mut bus, nic, ssd, mc) = setup();
        register_memctl(&mut bus, mc);
        let mut fx = Vec::new();
        // The NIC (a mere device) tries to program the SSD's IOMMU.
        bus.handle(SimTime::ZERO, map_instruction(nic, ssd), &mut fx);
        assert!(
            !fx.iter().any(|e| matches!(e, BusEffect::ProgramMap { .. })),
            "no mapping must be programmed"
        );
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { env, .. }
                if matches!(
                    env.payload,
                    Payload::BusAck {
                        status: Status::Denied
                    }
                )
        ));
        assert_eq!(bus.stats().denials, 1);
    }

    #[test]
    fn map_instruction_with_no_controller_registered_denied() {
        let (mut bus, nic, _, mc) = setup();
        let mut fx = Vec::new();
        bus.handle(SimTime::ZERO, map_instruction(mc, nic), &mut fx);
        assert!(!fx.iter().any(|e| matches!(e, BusEffect::ProgramMap { .. })));
    }

    #[test]
    fn map_to_dead_device_is_not_found() {
        let (mut bus, nic, _, mc) = setup();
        register_memctl(&mut bus, mc);
        let mut fx = Vec::new();
        bus.mark_failed(nic, &mut fx).unwrap();
        fx.clear();
        bus.handle(SimTime::ZERO, map_instruction(mc, nic), &mut fx);
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { env, .. }
                if matches!(
                    env.payload,
                    Payload::BusAck {
                        status: Status::NotFound
                    }
                )
        ));
    }

    #[test]
    fn zero_page_map_is_bad_request() {
        let (mut bus, nic, _, mc) = setup();
        register_memctl(&mut bus, mc);
        let mut env = map_instruction(mc, nic);
        if let Payload::MapInstruction { ref mut pages, .. } = env.payload {
            *pages = 0;
        }
        let mut fx = Vec::new();
        bus.handle(SimTime::ZERO, env, &mut fx);
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { env, .. }
                if matches!(
                    env.payload,
                    Payload::BusAck {
                        status: Status::BadRequest
                    }
                )
        ));
    }

    #[test]
    fn failed_device_is_fenced() {
        let (mut bus, nic, ssd, _) = setup();
        let mut fx = Vec::new();
        bus.mark_failed(nic, &mut fx).unwrap();
        fx.clear();
        // The fenced device tries to talk: dropped.
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Device(ssd),
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        assert!(fx.is_empty());
    }

    #[test]
    fn mark_failed_notifies_and_resets() {
        let (mut bus, nic, ssd, mc) = setup();
        let mut fx = Vec::new();
        bus.mark_failed(ssd, &mut fx).unwrap();
        let notified: Vec<DeviceId> = fx
            .iter()
            .filter_map(|e| match e {
                BusEffect::Deliver { to, env, .. } => {
                    assert!(matches!(
                        env.payload,
                        Payload::DeviceFailed { device } if device == ssd
                    ));
                    Some(*to)
                }
                _ => None,
            })
            .collect();
        assert!(notified.contains(&nic));
        assert!(notified.contains(&mc));
        assert!(!notified.contains(&ssd));
        assert!(fx
            .iter()
            .any(|e| matches!(e, BusEffect::ResetDevice { device, .. } if *device == ssd)));
        assert_eq!(bus.stats().failures, 1);
    }

    #[test]
    fn failed_device_can_rejoin_with_hello() {
        let (mut bus, nic, _, _) = setup();
        let mut fx = Vec::new();
        bus.mark_failed(nic, &mut fx).unwrap();
        hello(&mut bus, nic);
        assert_eq!(bus.device(nic).unwrap().state, DeviceState::Alive);
    }

    #[test]
    fn heartbeat_timeout_detection() {
        let (mut bus, nic, _, _) = setup();
        bus.set_heartbeat_timeout(SimDuration::from_millis(1));
        let later = SimTime::ZERO + SimDuration::from_millis(5);
        // nic heartbeats late enough; others lapse.
        let mut fx = Vec::new();
        bus.handle(
            later,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        let failed = bus.check_liveness(later, &mut fx);
        assert_eq!(failed.len(), 2);
        assert!(!failed.contains(&nic));
        assert_eq!(bus.device(nic).unwrap().state, DeviceState::Alive);
    }

    #[test]
    fn heartbeat_boundary_tick_fires() {
        // Regression: a sweep landing *exactly* on the deadline tick must
        // declare the device failed. With `now.since(last_seen) > timeout`
        // a sweep period that divides the timeout never observed a lapsed
        // device, so a dead device stayed "Alive" forever on deterministic
        // schedules.
        let (mut bus, nic, _, _) = setup();
        let timeout = SimDuration::from_millis(1);
        bus.set_heartbeat_timeout(timeout);
        let mut fx = Vec::new();
        // One tick before the deadline: still alive.
        let almost = SimTime::from_nanos(timeout.as_nanos() - 1);
        assert!(bus.check_liveness(almost, &mut fx).is_empty());
        assert_eq!(bus.device(nic).unwrap().state, DeviceState::Alive);
        // Exactly on the deadline: lapsed.
        let boundary = SimTime::ZERO + timeout;
        let failed = bus.check_liveness(boundary, &mut fx);
        assert!(failed.contains(&nic), "boundary tick must fire");
        assert_eq!(bus.device(nic).unwrap().state, DeviceState::Failed);
    }

    #[test]
    fn bye_departs_and_notifies() {
        let (mut bus, nic, _, _) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Bye,
            },
            &mut fx,
        );
        assert_eq!(bus.device(nic).unwrap().state, DeviceState::Departed);
        assert!(fx.iter().any(|e| matches!(
            e,
            BusEffect::Deliver { env, .. }
                if matches!(env.payload, Payload::DeviceFailed { .. })
        )));
        // Departed devices cannot come back with Hello (unlike Failed).
        hello(&mut bus, nic);
        assert_eq!(bus.device(nic).unwrap().state, DeviceState::Departed);
    }

    #[test]
    fn announce_records_and_rebroadcasts() {
        let (mut bus, nic, _, _) = setup();
        let svc = ServiceDesc {
            id: ServiceId(1),
            name: "kvs:frontend".into(),
            resource: ResourceKind::Network,
        };
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Announce {
                    service: svc.clone(),
                },
            },
            &mut fx,
        );
        assert_eq!(bus.device(nic).unwrap().services, vec![svc.clone()]);
        assert_eq!(fx.len(), 2); // two other devices
                                 // Re-announcing the same id replaces, not duplicates.
        let mut svc2 = svc;
        svc2.name = "kvs:frontend-v2".into();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Announce { service: svc2 },
            },
            &mut fx,
        );
        assert_eq!(bus.device(nic).unwrap().services.len(), 1);
        assert_eq!(bus.device(nic).unwrap().services[0].name, "kvs:frontend-v2");
    }

    #[test]
    fn withdraw_removes_service() {
        let (mut bus, nic, _, _) = setup();
        let svc = ServiceDesc {
            id: ServiceId(1),
            name: "kvs".into(),
            resource: ResourceKind::Network,
        };
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Announce { service: svc },
            },
            &mut fx,
        );
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Withdraw {
                    service: ServiceId(1),
                },
            },
            &mut fx,
        );
        assert!(bus.device(nic).unwrap().services.is_empty());
    }

    #[test]
    fn misdirected_payload_to_bus_is_bad_request() {
        let (mut bus, nic, _, _) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(1),
                corr: CorrId::NONE,
                payload: Payload::Doorbell {
                    conn: crate::ids::ConnId(1),
                    value: 0,
                },
            },
            &mut fx,
        );
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { env, .. }
                if matches!(
                    env.payload,
                    Payload::BusAck {
                        status: Status::BadRequest
                    }
                )
        ));
    }

    /// Zero-copy contract: every recipient of a broadcast receives the
    /// *same* shared envelope allocation, and a unicast forwards the
    /// sender's envelope untouched (pointer-identical).
    #[test]
    fn broadcast_shares_one_envelope_and_unicast_forwards_it() {
        let (mut bus, nic, _, _) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Broadcast,
                req: RequestId(4),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        let envs: Vec<&std::sync::Arc<Envelope>> = fx
            .iter()
            .map(|e| match e {
                BusEffect::Deliver { env, .. } => env,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(envs.len(), 2);
        assert!(
            std::sync::Arc::ptr_eq(envs[0], envs[1]),
            "broadcast must share one allocation across recipients"
        );

        // Unicast: the routed envelope is the very Arc the caller passed in.
        let (mut bus, nic, ssd, _) = setup();
        let original = std::sync::Arc::new(Envelope {
            src: nic,
            dst: Dst::Device(ssd),
            req: RequestId(2),
            corr: CorrId::NONE,
            payload: Payload::Heartbeat,
        });
        let mut fx = Vec::new();
        bus.handle(SimTime::ZERO, std::sync::Arc::clone(&original), &mut fx);
        match &fx[0] {
            BusEffect::Deliver { env, .. } => {
                assert!(
                    std::sync::Arc::ptr_eq(env, &original),
                    "unicast must forward, not clone"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The `rebroadcast` helper consolidation must not change
    /// `broadcast_deliveries` accounting: a bus-directed Query and a raw
    /// Broadcast each count one delivery per alive non-sender device.
    #[test]
    fn broadcast_deliveries_accounting_unchanged() {
        let (mut bus, nic, _, _) = setup();
        assert_eq!(bus.stats().broadcast_deliveries, 0);
        let mut fx = Vec::new();
        // Bus-directed Query → rebroadcast helper → 2 deliveries.
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(6),
                corr: CorrId::NONE,
                payload: Payload::Query {
                    pattern: "file:*".into(),
                },
            },
            &mut fx,
        );
        assert_eq!(bus.stats().broadcast_deliveries, 2);
        // Raw broadcast → 2 more.
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Broadcast,
                req: RequestId(7),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        assert_eq!(bus.stats().broadcast_deliveries, 4);
        // Bus-directed Announce and Withdraw also go through the helper.
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(8),
                corr: CorrId::NONE,
                payload: Payload::Announce {
                    service: ServiceDesc {
                        id: ServiceId(1),
                        name: "kvs".into(),
                        resource: ResourceKind::Network,
                    },
                },
            },
            &mut fx,
        );
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(9),
                corr: CorrId::NONE,
                payload: Payload::Withdraw {
                    service: ServiceId(1),
                },
            },
            &mut fx,
        );
        assert_eq!(bus.stats().broadcast_deliveries, 8);
    }

    #[test]
    fn stats_count_traffic() {
        let (mut bus, nic, ssd, _) = setup();
        let mut fx = Vec::new();
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Device(ssd),
                req: RequestId(1),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        let s = bus.stats();
        assert!(s.messages >= 4); // 3 hellos + this one
        assert!(s.bytes > 0);
        assert!(s.unicasts >= 4);
    }

    /// Regression for the E11 confused-deputy finding: claiming a *vacant*
    /// resource class must not grant the power to program IOMMU mappings.
    #[test]
    fn vacant_class_controller_cannot_instruct_maps() {
        let (mut bus, nic, ssd, mc) = setup();
        register_memctl(&mut bus, mc);
        bus.enable_audit(16);
        let mut fx = Vec::new();
        // The attacker successfully claims the vacant Compute class…
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(2),
                corr: CorrId::NONE,
                payload: Payload::RegisterController {
                    resource: ResourceKind::Compute,
                },
            },
            &mut fx,
        );
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { env, .. }
                if matches!(env.payload, Payload::BusAck { status: Status::Ok })
        ));
        fx.clear();
        // …but a MapInstruction under that class must be denied: only the
        // Memory class can instruct DRAM translations.
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: nic,
                dst: Dst::Bus,
                req: RequestId(3),
                corr: CorrId::NONE,
                payload: Payload::MapInstruction {
                    resource: ResourceKind::Compute,
                    op: MapOp::Map,
                    device: ssd,
                    pasid: 7,
                    va: 0x7000,
                    pa: 0x1000,
                    pages: 1,
                    perms: 3,
                },
            },
            &mut fx,
        );
        assert!(
            !fx.iter().any(|e| matches!(e, BusEffect::ProgramMap { .. })),
            "no IOMMU programming may result"
        );
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { to, env, .. }
                if *to == nic
                    && matches!(env.payload, Payload::BusAck { status: Status::Denied })
        ));
        let rec = *bus.audit().unwrap().records().last().unwrap();
        assert_eq!(rec.op, PrivOpKind::MapInstruction);
        assert_eq!(rec.verdict, BusVerdict::Denied);
        assert_eq!(rec.reason, Some(DenyReason::ResourceNotMemory));
    }

    #[test]
    fn map_instruction_verdicts_are_audited() {
        let (mut bus, nic, ssd, mc) = setup();
        bus.enable_audit(16);
        register_memctl(&mut bus, mc);
        let mut fx = Vec::new();
        bus.handle(SimTime::ZERO, map_instruction(nic, ssd), &mut fx); // denied
        bus.handle(SimTime::ZERO, map_instruction(mc, ssd), &mut fx); // allowed
        let audit = bus.audit().unwrap();
        assert_eq!(audit.denied(), 1);
        // RegisterController(memctl) + the legitimate map.
        assert_eq!(audit.allowed(), 2);
        let denied = audit.records()[1];
        assert_eq!(denied.src, nic);
        assert_eq!(denied.reason, Some(DenyReason::NotController));
        let allowed = audit.records()[2];
        assert_eq!(allowed.src, mc);
        assert_eq!(allowed.verdict, BusVerdict::Allowed);
        assert_eq!(allowed.target, Some(ssd));
    }

    #[test]
    fn shadow_announce_denied_under_policy() {
        let (mut bus, nic, ssd, _) = setup();
        bus.enable_audit(16);
        bus.set_security_policy(SecurityPolicy {
            deny_shadow_announce: true,
            ..SecurityPolicy::default()
        });
        let svc = |id: u16| ServiceDesc {
            id: ServiceId(id),
            name: "kvs:frontend".into(),
            resource: ResourceKind::Network,
        };
        let announce = |src: DeviceId, id: u16| Envelope {
            src,
            dst: Dst::Bus,
            req: RequestId(1),
            corr: CorrId::NONE,
            payload: Payload::Announce { service: svc(id) },
        };
        let mut fx = Vec::new();
        bus.handle(SimTime::ZERO, announce(nic, 1), &mut fx);
        assert!(bus
            .device(nic)
            .unwrap()
            .services
            .iter()
            .any(|s| s.name == "kvs:frontend"));
        fx.clear();
        // A different device announcing the same *name* is refused…
        bus.handle(SimTime::ZERO, announce(ssd, 2), &mut fx);
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { to, env, .. }
                if *to == ssd
                    && matches!(env.payload, Payload::BusAck { status: Status::Denied })
        ));
        assert!(bus.device(ssd).unwrap().services.is_empty());
        let rec = *bus.audit().unwrap().records().last().unwrap();
        assert_eq!(rec.reason, Some(DenyReason::ShadowAnnounce));
        fx.clear();
        // …while the owner can re-announce (refresh) its own service.
        bus.handle(SimTime::ZERO, announce(nic, 1), &mut fx);
        assert!(fx.iter().any(|e| matches!(
            e,
            BusEffect::Deliver { env, .. }
                if matches!(env.payload, Payload::Announce { .. })
        )));
    }

    #[test]
    fn spoofed_query_hits_are_shed_and_audited_under_policy() {
        let (mut bus, nic, ssd, mc) = setup();
        bus.enable_audit(16);
        bus.set_security_policy(SecurityPolicy {
            deny_shadow_announce: true,
            ..SecurityPolicy::default()
        });
        let svc = ServiceDesc {
            id: ServiceId(1),
            name: "file:/data/kv.db".into(),
            resource: ResourceKind::Storage,
        };
        let mut fx = Vec::new();
        // The SSD legitimately announces the file service.
        bus.handle(
            SimTime::ZERO,
            Envelope {
                src: ssd,
                dst: Dst::Bus,
                req: RequestId(1),
                corr: CorrId::NONE,
                payload: Payload::Announce {
                    service: svc.clone(),
                },
            },
            &mut fx,
        );
        fx.clear();
        let hit = |src: DeviceId, claimed: DeviceId| Envelope {
            src,
            dst: Dst::Device(nic),
            req: RequestId(2),
            corr: CorrId::NONE,
            payload: Payload::QueryHit {
                device: claimed,
                service: svc.clone(),
            },
        };
        // Spoof flavour 1: the NIC's discovery answer claims the *attacker*
        // (mc here) offers the SSD's service — sender never announced it.
        bus.handle(SimTime::ZERO, hit(mc, mc), &mut fx);
        // Spoof flavour 2: forged provenance — sender names a *different*
        // device as the offerer.
        bus.handle(SimTime::ZERO, hit(mc, ssd), &mut fx);
        assert!(fx.is_empty(), "spoofed hits are shed silently, got {fx:?}");
        let audit = bus.audit().unwrap();
        assert_eq!(audit.denied(), 2);
        for rec in audit.records() {
            assert_eq!(rec.op, PrivOpKind::Announce);
            assert_eq!(rec.reason, Some(DenyReason::ShadowAnnounce));
        }
        // The true owner's answer for its own announced service passes.
        bus.handle(SimTime::ZERO, hit(ssd, ssd), &mut fx);
        assert!(matches!(
            &fx[0],
            BusEffect::Deliver { to, env, .. }
                if *to == nic && matches!(env.payload, Payload::QueryHit { .. })
        ));
    }

    #[test]
    fn flood_limiter_sheds_and_audits_excess() {
        let (mut bus, nic, ssd, _) = setup();
        bus.enable_audit(16);
        bus.set_security_policy(SecurityPolicy {
            flood_limit: Some(3),
            flood_window: SimDuration::from_micros(10),
            ..SecurityPolicy::default()
        });
        fn hb(bus: &mut SystemBus, src: DeviceId, t: SimTime) {
            let mut fx = Vec::new();
            bus.handle(
                t,
                Envelope {
                    src,
                    dst: Dst::Bus,
                    req: RequestId(0),
                    corr: CorrId::NONE,
                    payload: Payload::Heartbeat,
                },
                &mut fx,
            );
        }
        let t0 = SimTime::ZERO;
        for _ in 0..8 {
            hb(&mut bus, nic, t0);
        }
        assert_eq!(bus.stats().flood_dropped, 5); // 8 sent, 3 allowed
        assert_eq!(bus.audit().unwrap().rate_limited(), 5);
        // Another sender is unaffected (the cap is per sender)…
        let mut fx = Vec::new();
        bus.handle(
            t0,
            Envelope {
                src: ssd,
                dst: Dst::Bus,
                req: RequestId(0),
                corr: CorrId::NONE,
                payload: Payload::Heartbeat,
            },
            &mut fx,
        );
        assert_eq!(bus.stats().flood_dropped, 5);
        // …and the window resets.
        hb(&mut bus, nic, t0 + SimDuration::from_micros(10));
        assert_eq!(bus.stats().flood_dropped, 5);
    }

    fn unicast_to(src: DeviceId, target: DeviceId) -> Envelope {
        Envelope {
            src,
            dst: Dst::Device(target),
            req: RequestId(3),
            corr: CorrId::NONE,
            payload: Payload::Heartbeat,
        }
    }

    fn ack_status(fx: &[BusEffect]) -> Status {
        match &fx[0] {
            BusEffect::Deliver { env, .. } => match env.payload {
                Payload::BusAck { status } => status,
                ref other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Ids are indices into the registry, and they arrive in messages a
    /// hostile device wrote: one never handed out (or the bus's own 0) must
    /// bounce like a dead peer, not index out of range.
    #[test]
    fn unicast_to_an_id_never_attached_bounces() {
        let (mut bus, nic, _, _) = setup();
        for target in [DeviceId(9_999), DeviceId::BUS, DeviceId(u32::MAX)] {
            let mut fx = Vec::new();
            bus.handle(SimTime::ZERO, unicast_to(nic, target), &mut fx);
            assert_eq!(fx.len(), 1, "{target}");
            match &fx[0] {
                BusEffect::Deliver { to, env, .. } => {
                    assert_eq!(*to, nic);
                    assert!(matches!(
                        env.payload,
                        Payload::ErrorNotify {
                            code: ErrorCode::DeviceFailed,
                            ..
                        }
                    ));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn map_instruction_for_an_id_never_attached_is_not_found() {
        let (mut bus, _, _, mc) = setup();
        register_memctl(&mut bus, mc);
        for target in [DeviceId(0), DeviceId(u32::MAX)] {
            for op in [MapOp::Map, MapOp::Unmap] {
                let mut env = map_instruction(mc, target);
                if let Payload::MapInstruction { op: ref mut o, .. } = env.payload {
                    *o = op;
                }
                let mut fx = Vec::new();
                bus.handle(SimTime::ZERO, env, &mut fx);
                assert_eq!(ack_status(&fx), Status::NotFound, "{op:?} {target}");
                assert_eq!(fx.len(), 1, "no IOMMU programming, no MapComplete");
            }
        }
        assert_eq!(bus.stats().map_ops, 0);
        assert!(bus.mark_failed(DeviceId(0), &mut Vec::new()).is_err());
    }

    /// A bus with every optional piece of state populated: a controller, an
    /// announced service, flood-limiter state for one sender, an audit.
    fn busy_bus() -> SystemBus {
        let (mut bus, nic, ssd, mc) = setup();
        bus.enable_audit(16);
        bus.set_security_policy(SecurityPolicy {
            flood_limit: Some(3),
            ..SecurityPolicy::default()
        });
        register_memctl(&mut bus, mc);
        let mut fx = Vec::new();
        bus.handle(
            SimTime::from_nanos(5),
            Envelope {
                src: ssd,
                dst: Dst::Bus,
                req: RequestId(1),
                corr: CorrId(7),
                payload: Payload::Announce {
                    service: ServiceDesc {
                        id: ServiceId(1),
                        name: "file:/data/kv.db".into(),
                        resource: ResourceKind::Storage,
                    },
                },
            },
            &mut fx,
        );
        bus.mark_failed(nic, &mut fx).unwrap();
        bus
    }

    fn restored(bytes: &[u8]) -> lastcpu_snap::Result<SystemBus> {
        use lastcpu_snap::Restore as _;
        let mut bus = SystemBus::new();
        bus.restore(&mut lastcpu_snap::SnapReader::new("bus", bytes))?;
        Ok(bus)
    }

    #[test]
    fn snapshot_restores_to_the_same_bytes() {
        use lastcpu_snap::Snapshot as _;
        let bus = busy_bus();
        let bytes = bus.snapshot_bytes();
        let back = restored(&bytes).expect("restores");
        assert_eq!(back.snapshot_bytes(), bytes);
        assert_eq!(back.alive().count(), 2);
        assert_eq!(
            back.controller_of(ResourceKind::Memory),
            bus.controller_of(ResourceKind::Memory)
        );
    }

    /// Byte offset of the attach-order list in a bus snapshot: four cost /
    /// timeout words, the next id, the correlation id, eight counters.
    const ORDER_AT: usize = 4 * 8 + 4 + 8 + 8 * 8;

    fn assert_corrupt(bytes: &[u8], what: &str) {
        match restored(bytes) {
            Err(lastcpu_snap::SnapError::Corrupt { detail, .. }) => {
                assert!(
                    detail.contains(what),
                    "{detail:?} does not mention {what:?}"
                )
            }
            other => panic!("expected Corrupt({what}), got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn restore_rejects_an_attach_order_that_is_not_one_to_n() {
        use lastcpu_snap::Snapshot as _;
        let mut bytes = busy_bus().snapshot_bytes();
        // The list is a u64 length then u32 ids 1, 2, 3: swap the first two.
        let first = ORDER_AT + 8;
        assert_eq!(bytes[first..first + 8], [1, 0, 0, 0, 2, 0, 0, 0]);
        bytes[first] = 2;
        bytes[first + 4] = 1;
        assert_corrupt(&bytes, "attach order");
    }

    #[test]
    fn restore_rejects_a_registry_that_disagrees_with_its_order() {
        use lastcpu_snap::Snapshot as _;
        let mut bytes = busy_bus().snapshot_bytes();
        // The registry length follows the three ids of the order list.
        let registry_len = ORDER_AT + 8 + 3 * 4;
        assert_eq!(bytes[registry_len], 3);
        bytes[registry_len] = 2;
        assert_corrupt(&bytes, "disagrees");
        // Same length, but the first entry claims to be device 2.
        let mut bytes = busy_bus().snapshot_bytes();
        assert_eq!(bytes[registry_len + 8], 1);
        bytes[registry_len + 8] = 2;
        assert_corrupt(&bytes, "registry lists");
    }

    #[test]
    fn restore_rejects_a_controller_class_past_the_table() {
        use lastcpu_snap::Snapshot as _;
        let bus = busy_bus();
        let mut bytes = bus.snapshot_bytes();
        // Find the one controller entry (tag 0 = Memory, then memctl's id)
        // from the back: policy, empty-or-not flood list and audit follow it,
        // so locate it by re-encoding the tail.
        let mut tail = lastcpu_snap::SnapWriter::new();
        tail.put_u8(0);
        tail.put_u32(bus.controller_of(ResourceKind::Memory).unwrap().0);
        bus.policy.encode(&mut tail);
        let tail = tail.into_bytes();
        let at = bytes
            .windows(tail.len())
            .rposition(|w| w == tail)
            .expect("controller entry is in the snapshot");
        bytes[at] = 4;
        assert_corrupt(&bytes, "ResourceKind tag 4");
    }

    #[test]
    fn restore_rejects_flood_state_for_an_unknown_sender() {
        use lastcpu_snap::Snapshot as _;
        let bus = busy_bus();
        let ssd = DeviceId(2);
        let mut bytes = bus.snapshot_bytes();
        // The announcing SSD's flood entry: (id, window start 5 ns, 1 message).
        let mut entry = lastcpu_snap::SnapWriter::new();
        entry.put_u32(ssd.0);
        entry.put_u64(5);
        entry.put_u32(1);
        let entry = entry.into_bytes();
        let at = bytes
            .windows(entry.len())
            .rposition(|w| w == entry)
            .expect("flood entry is in the snapshot");
        bytes[at] = 9;
        assert_corrupt(&bytes, "flood state for unknown");
    }
}
