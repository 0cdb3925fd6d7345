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
//!
//! The registry is a table: **ids are indices**. [`SystemBus::attach`] is
//! the only allocator, hands out `1, 2, …` and never removes an entry, so
//! the entry of `id` sits at `id − 1`; attach order — the order broadcasts
//! fan out and liveness sweeps scan — is index order. Ids arrive in messages
//! devices wrote, so every lookup goes through the checked
//! [`SystemBus::device`].
//!
//! One file per §2.2 clause (and one for the host-side envelope free list):
//!
//! | module | holds | paper clause / experiment |
//! |---|---|---|
//! | `registry` | `attach`, `Hello` / `Bye`, failure fan-out, liveness | §2.2 system initialization; §4 error handling |
//! | `route` | `handle`: fencing, flood limit, unicast, broadcast | §2.2 "a mechanism for device communication"; §2.3 control plane |
//! | `discovery` | `Announce` / `Withdraw` / `Query` re-broadcast, spoof defence | §2.2 discovery (SSDP-like); E11 |
//! | `privilege` | controllers, `MapInstruction`, `deny`, audit and policy | §2.2 address translation; E11 |
//! | `envelopes` | the free list every message's allocation comes from and returns to | E9 (host cost only) |
//! | `snapshot` | the `bus` checkpoint section | E14 |

use std::fmt;
use std::sync::Arc;

use lastcpu_sim::{CorrId, SimDuration, SimTime};

use crate::audit::{BusAudit, SecurityPolicy};
use crate::cost::BusCostModel;
use crate::ids::DeviceId;
use crate::message::{Envelope, ServiceDesc};

pub use envelopes::EnvelopePool;

mod discovery;
mod envelopes;
mod privilege;
mod registry;
mod route;
mod snapshot;

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
    /// borrow it (`Device::on_message` takes `&Envelope`); whoever applies
    /// the effect gives the `Arc` back through [`SystemBus::envelopes`] once
    /// the delivery has run, so the allocation carries a later message.
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
    /// Where the `Arc` of every reply and bus-made broadcast comes from, and
    /// where the machine returns a message once delivered. Host-side scratch,
    /// not bus state: never snapshotted, empty after a restore.
    envs: EnvelopePool,
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
            envs: EnvelopePool::default(),
        }
    }

    /// The envelope free list. The machine around the bus makes the `Arc` of
    /// every message it sends with [`EnvelopePool::share`] and hands each
    /// delivered message to [`EnvelopePool::recycle`], so in steady state no
    /// message allocates its envelope.
    pub fn envelopes(&mut self) -> &mut EnvelopePool {
        &mut self.envs
    }

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, cost: BusCostModel) -> Self {
        self.cost = cost;
        self
    }

    /// The configured cost model.
    pub fn cost_model(&self) -> &BusCostModel {
        &self.cost
    }

    /// Traffic counters.
    pub fn stats(&self) -> BusStats {
        self.stats
    }
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

/// Fixtures shared by the unit tests of this module's children.
#[cfg(test)]
mod testutil {
    use lastcpu_sim::{CorrId, SimTime};

    use super::{BusEffect, SystemBus};
    use crate::ids::{DeviceId, RequestId};
    use crate::message::{Dst, Envelope, MapOp, Payload, ResourceKind, Status};

    pub(super) fn hello(bus: &mut SystemBus, id: DeviceId) {
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

    pub(super) fn setup() -> (SystemBus, DeviceId, DeviceId, DeviceId) {
        let mut bus = SystemBus::new();
        let nic = bus.attach("nic0", "smart-nic");
        let ssd = bus.attach("ssd0", "smart-ssd");
        let mc = bus.attach("memctl0", "memory-controller");
        for d in [nic, ssd, mc] {
            hello(&mut bus, d);
        }
        (bus, nic, ssd, mc)
    }

    pub(super) fn register_memctl(bus: &mut SystemBus, mc: DeviceId) {
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

    pub(super) fn map_instruction(src: DeviceId, target: DeviceId) -> Envelope {
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
}
