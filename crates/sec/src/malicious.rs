//! The adversarial device.
//!
//! [`MaliciousDevice`] is an ordinary [`Device`]: it attaches to the bus,
//! says `Hello`, heartbeats — and then executes its [`AttackPlan`] with
//! exactly the capabilities any compromised device firmware would have. It
//! gets no side doors: DMA goes through its own IOMMU, control messages go
//! through `DeviceCtx::send_bus` (which stamps the true `src`, so source
//! spoofing is impossible by construction — a real management bus knows
//! which port a message arrived on).
//!
//! Every attack's outcome is tallied in per-kind [`AttackStats`]:
//!
//! - `denied_local` — the attacker's own IOMMU faulted the access (wild and
//!   stale DMA die here);
//! - `denied_remote` — a bus/memctl reply refused the request
//!   (`BusAck{Denied}` and friends);
//! - `acked_ok` — the operation was *accepted*. For every attack kind this
//!   is evidence of a leak; the E11 bench cross-checks it against the
//!   authoritative audit records on the bus and IOMMU sides.
//!
//! The device-side numbers are a claim, not proof: a clever attacker could
//! lie about its own stats. The harness therefore treats them only as the
//! *attempt* ledger and derives verdicts from the defender-side audit
//! ([`lastcpu_bus::BusAudit`], `lastcpu_iommu::DmaAudit`), the read-only
//! `Iommu::probe` oracle, and victim-state comparison against a no-attacker
//! control run.

use lastcpu_bus::{
    DeviceId, Dst, Envelope, Payload, RequestId, ResourceKind, ServiceDesc, ServiceId, Status,
};
use lastcpu_devices::device::{Device, DeviceCtx};
use lastcpu_mem::{Pasid, VirtAddr};
use lastcpu_sim::{DetHashMap, SimDuration};

use crate::plan::{AttackEvent, AttackKind, AttackPlan};

/// Timer-token namespace reserved by the device (top bit set); tokens below
/// it index plan events.
const TOKEN_BASE: u64 = 1 << 63;
/// Periodic liveness heartbeat (the attacker must stay registered).
const TOKEN_HEARTBEAT: u64 = TOKEN_BASE;
/// Heartbeat period — comfortably inside the bus's 10 ms default timeout.
const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_millis(2);

/// What the attacker aims at — the identifiers a compromised device could
/// plausibly learn from watching the fabric (device ids and PASIDs are not
/// secrets; the design's security must not depend on hiding them).
#[derive(Debug, Clone)]
pub struct AttackTargets {
    /// The victim device whose data the attacker wants (e.g. the smart SSD
    /// serving the KVS).
    pub victim: DeviceId,
    /// The memory controller (target of forged `Share` requests).
    pub memctl: DeviceId,
    /// PASID of the victim application whose windows are probed.
    pub app_pasid: u32,
    /// Base VA of the victim's generation-0 shared window.
    pub va_base: u64,
    /// Per-generation VA stride of the victim's window rotation.
    pub va_stride: u64,
    /// Live service names to shadow with spoofed `Announce`s.
    pub shadow_services: Vec<String>,
    /// Bus-directed messages per `ControlFlood` event.
    pub flood_burst: u32,
}

impl AttackTargets {
    /// Targets aimed at `victim`/`memctl` with the KVS build's default
    /// window geometry, no preset shadow names (the device also shadows
    /// whatever discovery reveals) and a 64-message flood burst.
    pub fn new(victim: DeviceId, memctl: DeviceId, app_pasid: u32) -> Self {
        AttackTargets {
            victim,
            memctl,
            app_pasid,
            va_base: 0x2000_0000,
            va_stride: 0x0100_0000,
            shadow_services: Vec::new(),
            flood_burst: 64,
        }
    }
}

/// Outcome tally for one attack kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttackStats {
    /// Privilege-violating operations attempted.
    pub attempts: u64,
    /// Attempts refused by the attacker's own IOMMU (DMA faults).
    pub denied_local: u64,
    /// Attempts refused by a remote party (bus or service reply).
    pub denied_remote: u64,
    /// Attempts that were *accepted* — each one is leak evidence.
    pub acked_ok: u64,
}

impl AttackStats {
    /// Attempts provably refused (local faults + remote denials).
    pub fn blocked(&self) -> u64 {
        self.denied_local + self.denied_remote
    }

    /// Attempts neither blocked nor acked yet (in flight, or fire-and-forget
    /// traffic like flood messages whose shedding is observed bus-side).
    pub fn unresolved(&self) -> u64 {
        self.attempts - self.blocked() - self.acked_ok
    }
}

/// Why a request id is being tracked.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// A privilege-violating request; the reply resolves the tally.
    Attack(AttackKind),
    /// Stage 1 of the escalation chain: `RegisterController` on a vacant
    /// class. An `Ok` reply triggers stage 2 (the deputized
    /// `MapInstruction`); registration itself is legal and not tallied.
    Escalate,
}

/// A compromised device executing a deterministic [`AttackPlan`].
///
/// # Examples
///
/// ```
/// use lastcpu_bus::DeviceId;
/// use lastcpu_sec::{AttackKind, AttackPlan, AttackTargets, MaliciousDevice};
/// use lastcpu_sim::{SimDuration, SimTime};
///
/// let plan = AttackPlan::matrix(42, SimTime::from_nanos(1_000), SimDuration::from_micros(50));
/// let dev = MaliciousDevice::new(
///     "evil0",
///     plan,
///     AttackTargets::new(DeviceId(2), DeviceId(1), 3),
/// );
/// // Nothing has run yet: every tally starts at zero.
/// for kind in AttackKind::ALL {
///     assert_eq!(dev.stats(kind).attempts, 0);
/// }
/// assert_eq!(dev.total().attempts, 0);
/// ```
pub struct MaliciousDevice {
    name: String,
    plan: AttackPlan,
    targets: AttackTargets,
    /// Sorted schedule; index = timer token.
    events: Vec<AttackEvent>,
    stats: [AttackStats; AttackKind::ALL.len()],
    pending: DetHashMap<RequestId, Pending>,
    /// Services learned from discovery (replayed/shadowed by `SsdpSpoof`).
    observed: Vec<(DeviceId, ServiceDesc)>,
    next_service_id: u16,
    /// Once an `SsdpSpoof` event fired, the device also answers every
    /// `Query` broadcast with spoofed `QueryHit`s (owners answer discovery
    /// directly, so a forged hit can capture a client without ever touching
    /// the announce directory).
    spoof_armed: bool,
}

impl MaliciousDevice {
    /// Creates the device. `name` is its bus name (e.g. `"evil0"`).
    pub fn new(name: impl Into<String>, plan: AttackPlan, targets: AttackTargets) -> Self {
        let events = plan.events();
        MaliciousDevice {
            name: name.into(),
            plan,
            targets,
            events,
            stats: Default::default(),
            pending: DetHashMap::default(),
            observed: Vec::new(),
            next_service_id: 0x6660,
            spoof_armed: false,
        }
    }

    /// Outcome tally for one attack kind.
    pub fn stats(&self, kind: AttackKind) -> AttackStats {
        self.stats[kind.index()]
    }

    /// Per-kind tallies in [`AttackKind::ALL`] order.
    pub fn all_stats(&self) -> [(AttackKind, AttackStats); AttackKind::ALL.len()] {
        let mut out = [(AttackKind::WildDma, AttackStats::default()); AttackKind::ALL.len()];
        for (i, kind) in AttackKind::ALL.into_iter().enumerate() {
            out[i] = (kind, self.stats[i]);
        }
        out
    }

    /// Sum over all attack kinds.
    pub fn total(&self) -> AttackStats {
        let mut t = AttackStats::default();
        for s in &self.stats {
            t.attempts += s.attempts;
            t.denied_local += s.denied_local;
            t.denied_remote += s.denied_remote;
            t.acked_ok += s.acked_ok;
        }
        t
    }

    /// The schedule this device executes.
    pub fn plan(&self) -> &AttackPlan {
        &self.plan
    }

    fn tally(&mut self, kind: AttackKind) -> &mut AttackStats {
        &mut self.stats[kind.index()]
    }

    fn fresh_service_id(&mut self) -> ServiceId {
        let id = ServiceId(self.next_service_id);
        self.next_service_id = self.next_service_id.wrapping_add(1);
        id
    }

    // --- attack executors ------------------------------------------------

    /// Wild DMA: reads and writes at addresses never mapped for us, under
    /// the victim app's PASID and under random PASIDs. Every probe goes
    /// through our *own* IOMMU — the only data-plane path a device has — so
    /// `Err` here is the IOMMU doing its job.
    fn attack_wild_dma(&mut self, ctx: &mut DeviceCtx<'_>, idx: u64) {
        let mut rng = self.plan.stream(idx);
        let app = Pasid(self.targets.app_pasid);
        let wild = |r: &mut lastcpu_sim::DetRng| {
            VirtAddr::new(0xdead_0000_u64 + (r.below(0x1_0000) & !0xfff))
        };
        let mut buf = [0u8; 64];
        // 1. Read under the victim app's PASID at a wild address.
        let probes: [(Pasid, VirtAddr, bool); 4] = [
            (app, wild(&mut rng), false),
            // 2. Write under the victim app's PASID at a wild address.
            (app, wild(&mut rng), true),
            // 3. Read under a random PASID.
            (Pasid(1 + rng.below(63) as u32), wild(&mut rng), false),
            // 4. Read the victim's *real* shared window VA — real data lives
            //    there, but only behind the victim's IOMMU, not ours.
            (app, VirtAddr::new(self.targets.va_base), false),
        ];
        for (pasid, va, write) in probes {
            self.tally(AttackKind::WildDma).attempts += 1;
            let res = if write {
                ctx.dma_write(pasid, va, &buf[..16])
            } else {
                ctx.dma_read(pasid, va, &mut buf)
            };
            match res {
                Ok(()) => self.tally(AttackKind::WildDma).acked_ok += 1,
                Err(_) => self.tally(AttackKind::WildDma).denied_local += 1,
            }
        }
    }

    /// Stale-generation DMA: probe every generation window the victim KVS
    /// has used (or will use). A generation that was rotated away must be
    /// as dead as one that never existed.
    fn attack_stale_generation(&mut self, ctx: &mut DeviceCtx<'_>, _idx: u64) {
        let app = Pasid(self.targets.app_pasid);
        let mut buf = [0u8; 64];
        for generation in 0..4u64 {
            let va = VirtAddr::new(self.targets.va_base + generation * self.targets.va_stride);
            self.tally(AttackKind::StaleGeneration).attempts += 1;
            match ctx.dma_read(app, va, &mut buf) {
                Ok(()) => self.tally(AttackKind::StaleGeneration).acked_ok += 1,
                Err(_) => self.tally(AttackKind::StaleGeneration).denied_local += 1,
            }
        }
    }

    /// Confused-deputy control-plane requests, three escalating flavours.
    fn attack_confused_deputy(&mut self, ctx: &mut DeviceCtx<'_>, idx: u64) {
        let mut rng = self.plan.stream(idx);
        // (a) Direct: instruct the bus to map the victim's DRAM into *our*
        // address space. We are not the memory controller, so the bus must
        // refuse (audit reason: NotController).
        let req = ctx.send_bus(
            Dst::Bus,
            Payload::MapInstruction {
                resource: ResourceKind::Memory,
                op: lastcpu_bus::MapOp::Map,
                device: ctx.dev,
                pasid: self.targets.app_pasid,
                va: 0x7000_0000,
                pa: 0x1000 + (rng.below(0x100) << 12),
                pages: 4,
                perms: 3,
            },
        );
        self.pending
            .insert(req, Pending::Attack(AttackKind::ConfusedDeputy));
        self.tally(AttackKind::ConfusedDeputy).attempts += 1;

        // (b) Escalation: claim a *vacant* resource class (legal — first
        // claim wins) and, once owned, use it as authority for a
        // MapInstruction. Stage 2 fires from `on_message` when the Ok
        // arrives; the bus must refuse the non-Memory instruction (audit
        // reason: ResourceNotMemory — the E11 leak this PR fixed).
        let req = ctx.send_bus(
            Dst::Bus,
            Payload::RegisterController {
                resource: ResourceKind::Compute,
            },
        );
        self.pending.insert(req, Pending::Escalate);

        // (c) Forged Share: ask the memory controller to extend regions we
        // do not own into our address space. Region handles are small
        // integers, so guessing two is realistic.
        for guess in [1u64 + rng.below(4), 8 + rng.below(8)] {
            let req = ctx.send_bus(
                Dst::Device(self.targets.memctl),
                Payload::Share {
                    region: guess,
                    target: ctx.dev,
                    pasid: self.targets.app_pasid,
                    va: 0x7100_0000 + (guess << 16),
                    perms: 3,
                },
            );
            self.pending
                .insert(req, Pending::Attack(AttackKind::ConfusedDeputy));
            self.tally(AttackKind::ConfusedDeputy).attempts += 1;
        }
    }

    /// SSDP shadowing: announce service descriptors whose *names* collide
    /// with live services — both configured names and whatever discovery
    /// revealed (the replay flavour re-announces an observed descriptor
    /// verbatim under our own src).
    fn attack_ssdp_spoof(&mut self, ctx: &mut DeviceCtx<'_>, _idx: u64) {
        self.spoof_armed = true;
        let mut names: Vec<String> = self.targets.shadow_services.clone();
        for (_, s) in &self.observed {
            if !names.contains(&s.name) {
                names.push(s.name.clone());
            }
        }
        if names.is_empty() {
            // Nothing learned yet: re-query and retry opportunistically on
            // the next SsdpSpoof event (discovery is open to everyone).
            ctx.send_bus(
                Dst::Bus,
                Payload::Query {
                    pattern: "*".into(),
                },
            );
            return;
        }
        for name in names {
            let service = ServiceDesc {
                id: self.fresh_service_id(),
                name,
                resource: ResourceKind::Storage,
            };
            let req = ctx.send_bus(Dst::Bus, Payload::Announce { service });
            self.pending
                .insert(req, Pending::Attack(AttackKind::SsdpSpoof));
            self.tally(AttackKind::SsdpSpoof).attempts += 1;
        }
        // Replay flavour: observed descriptors verbatim (same service id).
        let replays: Vec<ServiceDesc> = self.observed.iter().map(|(_, s)| s.clone()).collect();
        for service in replays {
            let req = ctx.send_bus(Dst::Bus, Payload::Announce { service });
            self.pending
                .insert(req, Pending::Attack(AttackKind::SsdpSpoof));
            self.tally(AttackKind::SsdpSpoof).attempts += 1;
        }
    }

    /// Control flood: a burst of bus-directed messages from one handler.
    /// Heartbeats draw no reply, so the device-side tally records attempts
    /// only; shedding is observed bus-side (`sec.flood_dropped`) — real
    /// fabrics shed load silently rather than amplifying it with NACKs.
    fn attack_control_flood(&mut self, ctx: &mut DeviceCtx<'_>, _idx: u64) {
        for _ in 0..self.targets.flood_burst {
            ctx.send_bus(Dst::Bus, Payload::Heartbeat);
            self.tally(AttackKind::ControlFlood).attempts += 1;
        }
    }
}

impl Device for MaliciousDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        "malicious"
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        // A compromised device looks exactly like a healthy one at first:
        // it registers, heartbeats, and browses the service directory.
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: self.name.clone(),
                kind: self.kind().to_string(),
            },
        );
        ctx.send_bus(
            Dst::Bus,
            Payload::Query {
                pattern: "*".into(),
            },
        );
        ctx.set_timer(HEARTBEAT_PERIOD, TOKEN_HEARTBEAT);
        for (idx, ev) in self.events.iter().enumerate() {
            ctx.set_timer(ev.at.since(ctx.now), idx as u64);
        }
    }

    fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) {
        match &env.payload {
            // Once armed, answer other devices' discovery queries with
            // spoofed hits: one claiming *we* offer a shadowed service, and
            // one with forged provenance naming the victim as offerer.
            // Fire-and-forget — hits draw no reply, so the tally stays in
            // `attempts`; blocking is proven by the bus-side audit.
            Payload::Query { .. } if self.spoof_armed && env.src != ctx.dev => {
                let name = self
                    .targets
                    .shadow_services
                    .first()
                    .cloned()
                    .or_else(|| self.observed.first().map(|(_, s)| s.name.clone()));
                if let Some(name) = name {
                    let id = self.fresh_service_id();
                    for claimed in [ctx.dev, self.targets.victim] {
                        ctx.send_bus(
                            Dst::Device(env.src),
                            Payload::QueryHit {
                                device: claimed,
                                service: ServiceDesc {
                                    id,
                                    name: name.clone(),
                                    resource: ResourceKind::Storage,
                                },
                            },
                        );
                        self.tally(AttackKind::SsdpSpoof).attempts += 1;
                    }
                }
            }
            // Learn the directory: every service someone else announced is
            // a shadowing target.
            Payload::QueryHit { device, service }
                if *device != ctx.dev
                    && !self
                        .observed
                        .iter()
                        .any(|(d, s)| d == device && s.name == service.name) =>
            {
                self.observed.push((*device, service.clone()));
            }
            // Replies resolve pending attack requests.
            Payload::BusAck { status }
            | Payload::ShareResponse { status }
            | Payload::MapComplete { status, .. }
            | Payload::MemAllocResponse { status, .. } => {
                match self.pending.remove(&env.req) {
                    Some(Pending::Attack(kind)) => {
                        if status.is_ok() {
                            self.tally(kind).acked_ok += 1;
                        } else {
                            self.tally(kind).denied_remote += 1;
                        }
                    }
                    Some(Pending::Escalate) if *status == Status::Ok => {
                        // Stage 2: we now own `Compute`; try to use it as
                        // authority over DRAM mappings.
                        let req = ctx.send_bus(
                            Dst::Bus,
                            Payload::MapInstruction {
                                resource: ResourceKind::Compute,
                                op: lastcpu_bus::MapOp::Map,
                                device: ctx.dev,
                                pasid: self.targets.app_pasid,
                                va: 0x7200_0000,
                                pa: 0x2000,
                                pages: 4,
                                perms: 3,
                            },
                        );
                        self.pending
                            .insert(req, Pending::Attack(AttackKind::ConfusedDeputy));
                        self.tally(AttackKind::ConfusedDeputy).attempts += 1;
                    }
                    Some(Pending::Escalate) | None => {}
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token == TOKEN_HEARTBEAT {
            ctx.send_bus(Dst::Bus, Payload::Heartbeat);
            ctx.set_timer(HEARTBEAT_PERIOD, TOKEN_HEARTBEAT);
            return;
        }
        let Some(ev) = self.events.get(token as usize).copied() else {
            return;
        };
        match ev.kind {
            AttackKind::WildDma => self.attack_wild_dma(ctx, token),
            AttackKind::StaleGeneration => self.attack_stale_generation(ctx, token),
            AttackKind::ConfusedDeputy => self.attack_confused_deputy(ctx, token),
            AttackKind::SsdpSpoof => self.attack_ssdp_spoof(ctx, token),
            AttackKind::ControlFlood => self.attack_control_flood(ctx, token),
        }
    }

    // DMA faults are tallied synchronously at the `Err` return in the
    // executors; the async `on_fault` delivery would double-count them.
    fn on_fault(&mut self, _ctx: &mut DeviceCtx<'_>, _fault: lastcpu_iommu::IommuFault) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_bus::CorrId;
    use lastcpu_devices::device::Action;
    use lastcpu_iommu::Iommu;
    use lastcpu_mem::Dram;
    use lastcpu_sim::{DetRng, MetricsHub, SimTime};

    fn targets() -> AttackTargets {
        AttackTargets {
            shadow_services: vec!["file:/data/kv.db".into()],
            flood_burst: 8,
            ..AttackTargets::new(DeviceId(2), DeviceId(1), 3)
        }
    }

    /// Runs `f` under a fresh DeviceCtx and returns the queued actions.
    fn with_ctx(iommu: &mut Iommu, f: impl FnOnce(&mut DeviceCtx<'_>)) -> Vec<Action> {
        let mut dram = Dram::new(1 << 20);
        let mut rng = DetRng::new(1);
        let mut req = 100;
        let hub = MetricsHub::new();
        let mut ctx = DeviceCtx::new(
            SimTime::from_nanos(5_000),
            DeviceId(9),
            None,
            iommu,
            &mut dram,
            &mut rng,
            &mut req,
            CorrId::NONE,
            &hub,
        );
        f(&mut ctx);
        let (actions, _, _) = ctx.finish();
        actions
    }

    fn plan_of(kinds: &[AttackKind]) -> AttackPlan {
        let mut p = AttackPlan::new(7);
        for (i, k) in kinds.iter().enumerate() {
            p.inject(SimTime::from_nanos(10_000 + i as u64), *k);
        }
        p
    }

    #[test]
    fn wild_and_stale_dma_fault_on_an_unprovisioned_iommu() {
        let mut dev = MaliciousDevice::new("evil0", plan_of(&[AttackKind::WildDma]), targets());
        let mut mmu = Iommu::new(16); // no PASIDs bound: nothing is reachable
        with_ctx(&mut mmu, |ctx| dev.on_timer(ctx, 0));
        let s = dev.stats(AttackKind::WildDma);
        assert_eq!(s.attempts, 4);
        assert_eq!(s.denied_local, 4);
        assert_eq!(s.acked_ok, 0);

        let mut dev =
            MaliciousDevice::new("evil0", plan_of(&[AttackKind::StaleGeneration]), targets());
        with_ctx(&mut mmu, |ctx| dev.on_timer(ctx, 0));
        let s = dev.stats(AttackKind::StaleGeneration);
        assert_eq!(s.attempts, 4);
        assert_eq!(s.blocked(), 4);
    }

    #[test]
    fn confused_deputy_sends_requests_and_tallies_remote_denials() {
        let mut dev =
            MaliciousDevice::new("evil0", plan_of(&[AttackKind::ConfusedDeputy]), targets());
        let mut mmu = Iommu::new(16);
        let actions = with_ctx(&mut mmu, |ctx| dev.on_timer(ctx, 0));
        // 1 direct MapInstruction + 1 RegisterController + 2 Shares.
        let sent: Vec<Envelope> = actions
            .into_iter()
            .filter_map(|a| match a {
                Action::SendBus(e) => Some(e),
                _ => None,
            })
            .collect();
        assert_eq!(sent.len(), 4);
        assert_eq!(dev.stats(AttackKind::ConfusedDeputy).attempts, 3);

        // The bus/memctl deny everything attack-tallied; the vacant-class
        // registration is acked Ok and triggers stage 2.
        let mut escalated = 0;
        for env in sent {
            let status = match env.payload {
                Payload::RegisterController { .. } => Status::Ok,
                _ => Status::Denied,
            };
            let reply = Envelope {
                src: DeviceId(0),
                dst: Dst::Device(DeviceId(9)),
                req: env.req,
                corr: CorrId::NONE,
                payload: Payload::BusAck { status },
            };
            let follow = with_ctx(&mut mmu, |ctx| dev.on_message(ctx, &reply));
            escalated += follow
                .iter()
                .filter(|a| {
                    matches!(
                        a,
                        Action::SendBus(Envelope {
                            payload: Payload::MapInstruction {
                                resource: ResourceKind::Compute,
                                ..
                            },
                            ..
                        })
                    )
                })
                .count();
        }
        assert_eq!(escalated, 1, "Ok on RegisterController triggers stage 2");
        let s = dev.stats(AttackKind::ConfusedDeputy);
        assert_eq!(s.attempts, 4, "stage-2 map counted as a fourth attempt");
        assert_eq!(s.denied_remote, 3);
        assert_eq!(s.acked_ok, 0);
    }

    #[test]
    fn ssdp_spoof_shadows_configured_and_observed_names() {
        let mut dev = MaliciousDevice::new("evil0", plan_of(&[AttackKind::SsdpSpoof]), targets());
        let mut mmu = Iommu::new(16);
        // Discovery taught us about a live service on another device.
        let hit = Envelope {
            src: DeviceId(0),
            dst: Dst::Device(DeviceId(9)),
            req: RequestId(55),
            corr: CorrId::NONE,
            payload: Payload::QueryHit {
                device: DeviceId(2),
                service: ServiceDesc {
                    id: ServiceId(1),
                    name: "kvs:frontend".into(),
                    resource: ResourceKind::Storage,
                },
            },
        };
        with_ctx(&mut mmu, |ctx| dev.on_message(ctx, &hit));
        let actions = with_ctx(&mut mmu, |ctx| dev.on_timer(ctx, 0));
        let announced: Vec<String> = actions
            .iter()
            .filter_map(|a| match a {
                Action::SendBus(Envelope {
                    payload: Payload::Announce { service },
                    ..
                }) => Some(service.name.clone()),
                _ => None,
            })
            .collect();
        // Configured shadow + observed shadow + verbatim replay of observed.
        assert_eq!(announced.len(), 3);
        assert!(announced.contains(&"file:/data/kv.db".to_string()));
        assert_eq!(
            announced
                .iter()
                .filter(|n| n.as_str() == "kvs:frontend")
                .count(),
            2
        );
        assert_eq!(dev.stats(AttackKind::SsdpSpoof).attempts, 3);
    }

    #[test]
    fn armed_spoofer_answers_queries_with_forged_hits() {
        let mut dev = MaliciousDevice::new("evil0", plan_of(&[AttackKind::SsdpSpoof]), targets());
        let mut mmu = Iommu::new(16);
        let query = |src| Envelope {
            src,
            dst: Dst::Broadcast,
            req: RequestId(7),
            corr: CorrId::NONE,
            payload: Payload::Query {
                pattern: "file:*".into(),
            },
        };
        // Before any SsdpSpoof event, queries are ignored.
        let actions = with_ctx(&mut mmu, |ctx| dev.on_message(ctx, &query(DeviceId(5))));
        assert!(actions.is_empty());
        // Arm by running the spoof event, then answer a query.
        with_ctx(&mut mmu, |ctx| dev.on_timer(ctx, 0));
        let before = dev.stats(AttackKind::SsdpSpoof).attempts;
        let actions = with_ctx(&mut mmu, |ctx| dev.on_message(ctx, &query(DeviceId(5))));
        let hits: Vec<(DeviceId, String)> = actions
            .iter()
            .filter_map(|a| match a {
                Action::SendBus(Envelope {
                    dst: Dst::Device(to),
                    payload: Payload::QueryHit { device, service },
                    ..
                }) => {
                    assert_eq!(*to, DeviceId(5), "hit goes straight to the querier");
                    Some((*device, service.name.clone()))
                }
                _ => None,
            })
            .collect();
        // One hit claims the attacker offers the service, one forges the
        // victim's identity as offerer.
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().any(|(d, _)| *d == DeviceId(9)));
        assert!(hits.iter().any(|(d, _)| *d == DeviceId(2)));
        assert!(hits.iter().all(|(_, n)| n == "file:/data/kv.db"));
        assert_eq!(dev.stats(AttackKind::SsdpSpoof).attempts, before + 2);
    }

    #[test]
    fn control_flood_bursts_the_configured_count() {
        let mut dev =
            MaliciousDevice::new("evil0", plan_of(&[AttackKind::ControlFlood]), targets());
        let mut mmu = Iommu::new(16);
        let actions = with_ctx(&mut mmu, |ctx| dev.on_timer(ctx, 0));
        let beats = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::SendBus(Envelope {
                        payload: Payload::Heartbeat,
                        ..
                    })
                )
            })
            .count();
        assert_eq!(beats, 8);
        assert_eq!(dev.stats(AttackKind::ControlFlood).attempts, 8);
    }

    #[test]
    fn on_start_registers_heartbeats_and_schedules_the_plan() {
        let plan = plan_of(&[AttackKind::WildDma, AttackKind::SsdpSpoof]);
        let mut dev = MaliciousDevice::new("evil0", plan, targets());
        let mut mmu = Iommu::new(16);
        let actions = with_ctx(&mut mmu, |ctx| dev.on_start(ctx));
        let timers: Vec<u64> = actions
            .iter()
            .filter_map(|a| match a {
                Action::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .collect();
        assert!(timers.contains(&TOKEN_HEARTBEAT));
        assert!(timers.contains(&0) && timers.contains(&1));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SendBus(Envelope {
                payload: Payload::Hello { .. },
                ..
            })
        )));
    }

    #[test]
    fn stats_resolution_is_exclusive_and_totals_add_up() {
        let mut dev = MaliciousDevice::new(
            "evil0",
            plan_of(&[AttackKind::WildDma, AttackKind::ConfusedDeputy]),
            targets(),
        );
        let mut mmu = Iommu::new(16);
        with_ctx(&mut mmu, |ctx| dev.on_timer(ctx, 0));
        with_ctx(&mut mmu, |ctx| dev.on_timer(ctx, 1));
        let t = dev.total();
        assert_eq!(t.attempts, 4 + 3);
        assert_eq!(t.blocked() + t.acked_ok + t.unresolved(), t.attempts);
        // The in-flight bus requests are unresolved until replies arrive.
        assert_eq!(t.unresolved(), 3);
    }
}
