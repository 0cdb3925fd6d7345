//! The device actor model.
//!
//! A device is a mailbox-driven actor. The simulator (in `lastcpu-core`)
//! calls the [`Device`] hooks with a [`DeviceCtx`] that (a) exposes the only
//! capabilities a device legitimately has, and (b) accounts the virtual time
//! the handler consumes, so outgoing effects are timestamped after the work
//! that produced them. What a self-managing device does *in* those hooks —
//! the lifecycle — is [`crate::firmware`]'s.
//!
//! Data-plane accesses are synchronous in *state* (the bytes move now, so
//! the next event observes them) but asynchronous in *time* (their cost
//! accumulates in the context and delays everything the handler emits).
//! This is the standard discrete-event compromise and keeps device code
//! straight-line instead of a continuation swamp.

use std::fmt;
use std::ops::Range;

use lastcpu_bus::{ConnId, DeviceId, Dst, Envelope, Payload, RequestId};
use lastcpu_iommu::{AccessKind, Iommu, IommuFault};
use lastcpu_mem::{Dram, DramError, Pasid, PhysAddr, VirtAddr};
use lastcpu_net::{Frame, PortId};
use lastcpu_sim::{BufPool, Bytes, CorrId, MetricsHub, SimDuration, SimTime, TraceData};
use lastcpu_virtio::{MemFault, QueueMemory};

/// An outgoing effect queued by a device handler.
///
/// Effects are applied by the simulator *after* the handler returns, at
/// `now + elapsed` where `elapsed` is the compute/DMA time the handler
/// accumulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send a control-plane message (via the system bus).
    SendBus(Envelope),
    /// Send a doorbell over the *data plane* — modelled after MSI: a memory
    /// write to a special address, far cheaper than a bus message (§2.3
    /// "Notifications").
    Doorbell {
        /// Receiving device.
        to: DeviceId,
        /// Connection the doorbell belongs to.
        conn: ConnId,
        /// Implementation-defined value.
        value: u64,
    },
    /// Arm a timer; [`Device::on_timer`] fires with `token` after `delay`.
    SetTimer {
        /// Delay from the effect's application time.
        delay: SimDuration,
        /// Opaque token returned to the device.
        token: u64,
    },
    /// Transmit a network frame (smart NICs only — the simulator ignores it
    /// for devices without a port).
    NetTx(Frame),
    /// Emit a trace record of a variant that holds integers only.
    Trace(TraceData),
    /// Emit a free-form trace line (a `TraceData::Text` record).
    TraceText(String),
}

/// The execution context of one handler invocation.
pub struct DeviceCtx<'a> {
    /// Virtual time the handler started.
    pub now: SimTime,
    /// The device's bus address.
    pub dev: DeviceId,
    /// The device's network port, if it has one.
    pub port: Option<PortId>,
    /// Correlation id of the activity this handler belongs to. The simulator
    /// sets it from the triggering event (envelope, timer, frame) and every
    /// outgoing envelope is stamped with it, so causality survives hops.
    pub corr: CorrId,
    /// The system-wide metrics hub. Device firmware registers its own
    /// counters/histograms here (keyed `subsystem.device.metric`); handles
    /// obtained once are plain `Cell` writes on the hot path.
    pub stats: &'a MetricsHub,
    /// Whether the system's trace sink is collecting. Devices use this to
    /// skip building [`Action::Trace`] payloads on hot paths when nothing
    /// would record them.
    pub tracing: bool,
    iommu: &'a mut Iommu,
    dram: &'a mut Dram,
    next_req: &'a mut u64,
    pool: &'a BufPool,
    /// Accumulated handler cost.
    elapsed: SimDuration,
    /// Queued effects.
    actions: Vec<Action>,
}

impl<'a> DeviceCtx<'a> {
    /// Creates a context. Called by the simulator only.
    #[allow(clippy::too_many_arguments)] // Wiring constructor for the simulator.
    pub fn new(
        now: SimTime,
        dev: DeviceId,
        port: Option<PortId>,
        iommu: &'a mut Iommu,
        dram: &'a mut Dram,
        next_req: &'a mut u64,
        corr: CorrId,
        stats: &'a MetricsHub,
        pool: &'a BufPool,
    ) -> Self {
        DeviceCtx {
            now,
            dev,
            port,
            corr,
            stats,
            tracing: false,
            iommu,
            dram,
            next_req,
            pool,
            elapsed: SimDuration::ZERO,
            actions: Vec::new(),
        }
    }

    /// Marks the context as tracing-enabled (the simulator sets this from
    /// the trace sink's state before each callback).
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Seeds the action buffer with a reusable scratch `Vec` (simulator
    /// only; the simulator stores the `Vec` back after draining it, so the
    /// per-handler allocation disappears).
    pub fn with_scratch(mut self, actions: Vec<Action>) -> Self {
        debug_assert!(actions.is_empty());
        self.actions = actions;
        self
    }

    /// An empty payload buffer from the machine's pool. Encode into it and
    /// hand it to [`DeviceCtx::net_tx`] (via [`Frame::unicast`]); the
    /// storage recycles when the frame is consumed at the receiver.
    pub fn take_buf(&self) -> Bytes {
        self.pool.take()
    }

    /// Consumes the context, returning queued actions and accumulated cost.
    /// Called by the simulator only; a DMA fault is counted by the IOMMU
    /// that raised it ([`Iommu::stats`]).
    pub fn finish(self) -> (Vec<Action>, SimDuration) {
        (self.actions, self.elapsed)
    }

    /// Time accumulated so far in this handler.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Charges `d` of device compute time (firmware work, hash lookups...).
    pub fn busy(&mut self, d: SimDuration) {
        self.elapsed += d;
    }

    /// Allocates a fresh request id for an outgoing request.
    pub fn next_request_id(&mut self) -> RequestId {
        let r = RequestId(*self.next_req);
        *self.next_req += 1;
        r
    }

    /// Queues a control-plane message with a fresh request id, returning it.
    pub fn send_bus(&mut self, dst: Dst, payload: Payload) -> RequestId {
        let req = self.next_request_id();
        self.send_bus_with_req(dst, req, payload);
        req
    }

    /// Queues a control-plane message echoing an existing request id
    /// (responses).
    pub fn send_bus_with_req(&mut self, dst: Dst, req: RequestId, payload: Payload) {
        self.actions.push(Action::SendBus(Envelope {
            src: self.dev,
            dst,
            req,
            corr: self.corr,
            payload,
        }));
    }

    /// Queues a data-plane doorbell.
    pub fn doorbell(&mut self, to: DeviceId, conn: ConnId, value: u64) {
        self.actions.push(Action::Doorbell { to, conn, value });
    }

    /// Arms a timer.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(Action::SetTimer { delay, token });
    }

    /// Queues a network transmission.
    pub fn net_tx(&mut self, frame: Frame) {
        self.actions.push(Action::NetTx(frame));
    }

    /// Emits a free-form trace record: `ctx.trace(format_args!(..))`. The
    /// line is formatted only while the trace sink is collecting.
    pub fn trace(&mut self, what: fmt::Arguments<'_>) {
        if self.tracing {
            self.actions.push(Action::TraceText(what.to_string()));
        }
    }

    /// Emits a typed trace record of a variant that holds integers only
    /// (`Stage`, `LinkHop`, `LinkEnter`, `LinkExit`, `QueueAttached`): a
    /// name is a handle into the machine's trace sink, which a device does
    /// not hold. A no-op while the trace sink is disabled.
    pub fn trace_data(&mut self, data: TraceData) {
        if self.tracing {
            self.actions.push(Action::Trace(data));
        }
    }

    /// Emits a critical-path stage mark (a [`TraceData::Stage`] record; see
    /// `lastcpu_sim::critpath`). A no-op while the trace sink is disabled,
    /// so per-operation marks cost performance runs nothing.
    #[inline]
    pub fn stage(&mut self, stage: &'static str, id: u64, aux: u64) {
        self.trace_data(TraceData::Stage { stage, id, aux });
    }

    /// DMA-reads `buf.len()` bytes at `va` in address space `pasid`.
    ///
    /// Charges translation plus DRAM access time. On a fault, the fault is
    /// recorded (it will also be counted by the simulator) and returned.
    pub fn dma_read(
        &mut self,
        pasid: Pasid,
        va: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), IommuFault> {
        self.dma(pasid, va, buf.len(), AccessKind::Read, |dram, pa, at| {
            dram.read(pa, &mut buf[at])
        })
    }

    /// DMA-writes `data` at `va` in address space `pasid`.
    pub fn dma_write(&mut self, pasid: Pasid, va: VirtAddr, data: &[u8]) -> Result<(), IommuFault> {
        self.dma(pasid, va, data.len(), AccessKind::Write, |dram, pa, at| {
            dram.write(pa, &data[at])
        })
    }

    /// Walks `[va, va + len)` in page-bounded chunks: translates each,
    /// charges translation plus DRAM time, and hands `op` the chunk's
    /// physical address and its byte range within the transfer.
    fn dma(
        &mut self,
        pasid: Pasid,
        va: VirtAddr,
        len: usize,
        access: AccessKind,
        mut op: impl FnMut(&mut Dram, PhysAddr, Range<usize>) -> Result<(), DramError>,
    ) -> Result<(), IommuFault> {
        let mut off = 0;
        let mut cur = va;
        while off < len {
            let in_page = (lastcpu_mem::PAGE_SIZE - cur.page_offset()) as usize;
            let chunk = in_page.min(len - off);
            let t = match self.iommu.translate(pasid, cur, access) {
                Ok(t) => t,
                Err(f) => {
                    // A faulting access still paid for the lookup and walk.
                    let cm = self.iommu.cost_model();
                    self.elapsed += cm.tlb_lookup + cm.walk_per_access.saturating_mul(4);
                    return Err(f);
                }
            };
            self.elapsed += t.cost;
            self.elapsed += self.dram.access_time(chunk as u64);
            op(self.dram, t.pa, off..off + chunk).expect("translated address within DRAM");
            off += chunk;
            cur = cur + chunk as u64;
        }
        Ok(())
    }

    /// A [`QueueMemory`] view of one address space, for virtqueue endpoints.
    pub fn dma_view(&mut self, pasid: Pasid) -> DmaView<'a, '_> {
        DmaView { ctx: self, pasid }
    }
}

/// [`QueueMemory`] implementation backed by IOMMU-translated DMA.
pub struct DmaView<'a, 'b> {
    ctx: &'b mut DeviceCtx<'a>,
    pasid: Pasid,
}

impl QueueMemory for DmaView<'_, '_> {
    fn read(&mut self, va: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        self.ctx
            .dma_read(self.pasid, VirtAddr::new(va), buf)
            .map_err(|f| MemFault {
                va: f.va.as_u64(),
                write: false,
            })
    }

    fn write(&mut self, va: u64, buf: &[u8]) -> Result<(), MemFault> {
        self.ctx
            .dma_write(self.pasid, VirtAddr::new(va), buf)
            .map_err(|f| MemFault {
                va: f.va.as_u64(),
                write: true,
            })
    }
}

/// The error a device type without checkpoint support reports.
pub(crate) fn unsupported(name: &str, kind: &str) -> lastcpu_snap::SnapError {
    lastcpu_snap::SnapError::Unsupported(format!("device {name:?} (kind {kind:?})"))
}

/// A device as the simulator drives it.
///
/// All hooks receive a fresh [`DeviceCtx`]; state persists in `self`.
/// Self-managing devices do not implement this directly: they implement
/// [`crate::firmware::Firmware`] and get the lifecycle from its blanket
/// impl. A direct impl is for a device that is deliberately *not*
/// self-managing (DESIGN.md "Writing a device").
///
/// The `Any` supertrait lets the simulator hand back typed references to
/// devices for inspection in tests and experiments.
pub trait Device: std::any::Any {
    /// Short stable name, e.g. `"nic0"`.
    fn name(&self) -> &str;

    /// Device kind, e.g. `"smart-ssd"`.
    fn kind(&self) -> &str;

    /// Called once when a machine adds the device, before any event: binds
    /// the device's instruments to the machine's metrics hub. A machine
    /// loaded from a checkpoint never runs `on_start`, so no instrument
    /// may wait for it.
    fn attach(&mut self, _stats: &MetricsHub) {}

    /// Called once when the system powers on: run self-test, send `Hello`,
    /// announce services, start applications (§2.2 "System
    /// Initialization").
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>);

    /// A control-plane message (or doorbell) arrived. The envelope is
    /// borrowed: a broadcast reaches every recipient as the one allocation
    /// its sender made, so a device copies out only what it keeps.
    fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope);

    /// A timer armed with [`DeviceCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64);

    /// A network frame arrived on the device's port (NICs only).
    fn on_net(&mut self, _ctx: &mut DeviceCtx<'_>, _frame: Frame) {}

    /// The device's IOMMU delivered a fault from an earlier DMA (§4 "Error
    /// Handling": each device handles its own faults).
    fn on_fault(&mut self, _ctx: &mut DeviceCtx<'_>, _fault: IommuFault) {}

    /// The bus pulsed the reset line. The device must drop all state and
    /// re-introduce itself (`Hello`) if it recovers.
    fn on_reset(&mut self, _ctx: &mut DeviceCtx<'_>) {}

    /// Serializes the device's durable state into a checkpoint section
    /// body. The default fails loudly: a device type either implements
    /// this or cannot appear in a checkpointed machine — silently
    /// skipping state would make restore verification meaningless.
    fn snapshot_state(&self, _w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        Err(unsupported(self.name(), self.kind()))
    }

    /// Loads state written by [`Device::snapshot_state`] back in place.
    fn restore_state(&mut self, _r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        Err(unsupported(self.name(), self.kind()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_mem::Perms;

    fn fixture() -> (Iommu, Dram, u64) {
        let mut iommu = Iommu::new(16);
        iommu.bind_pasid(Pasid(1));
        iommu
            .map(
                Pasid(1),
                VirtAddr::new(0x1000),
                PhysAddr::new(0x4000),
                Perms::RW,
            )
            .unwrap();
        iommu
            .map(
                Pasid(1),
                VirtAddr::new(0x2000),
                PhysAddr::new(0x5000),
                Perms::RW,
            )
            .unwrap();
        (iommu, Dram::new(1 << 20), 0)
    }

    #[test]
    fn dma_round_trip_and_cost() {
        let (mut iommu, mut dram, mut req) = fixture();
        let hub = MetricsHub::new();
        let pool = BufPool::new();
        let mut ctx = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            None,
            &mut iommu,
            &mut dram,
            &mut req,
            CorrId::NONE,
            &hub,
            &pool,
        );
        ctx.dma_write(Pasid(1), VirtAddr::new(0x1ff0), b"span across pages!")
            .unwrap();
        let mut back = [0u8; 18];
        ctx.dma_read(Pasid(1), VirtAddr::new(0x1ff0), &mut back)
            .unwrap();
        assert_eq!(&back, b"span across pages!");
        assert!(ctx.elapsed() > SimDuration::ZERO);
        let (actions, cost) = ctx.finish();
        assert!(actions.is_empty());
        assert!(cost > SimDuration::ZERO);
        assert_eq!(iommu.stats().faults, 0);
    }

    #[test]
    fn dma_fault_is_returned_and_recorded() {
        let (mut iommu, mut dram, mut req) = fixture();
        let hub = MetricsHub::new();
        let pool = BufPool::new();
        let mut ctx = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            None,
            &mut iommu,
            &mut dram,
            &mut req,
            CorrId::NONE,
            &hub,
            &pool,
        );
        let mut buf = [0u8; 4];
        let err = ctx
            .dma_read(Pasid(1), VirtAddr::new(0x9000), &mut buf)
            .unwrap_err();
        assert_eq!(err.va, VirtAddr::new(0x9000));
        ctx.finish();
        assert_eq!(iommu.stats().faults, 1);
    }

    #[test]
    fn request_ids_are_unique_and_persistent() {
        let (mut iommu, mut dram, mut req) = fixture();
        let hub = MetricsHub::new();
        let pool = BufPool::new();
        {
            let mut ctx = DeviceCtx::new(
                SimTime::ZERO,
                DeviceId(1),
                None,
                &mut iommu,
                &mut dram,
                &mut req,
                CorrId::NONE,
                &hub,
                &pool,
            );
            assert_eq!(ctx.send_bus(Dst::Bus, Payload::Heartbeat), RequestId(0));
            assert_eq!(ctx.send_bus(Dst::Bus, Payload::Heartbeat), RequestId(1));
        }
        // A later handler continues the sequence.
        let mut ctx = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            None,
            &mut iommu,
            &mut dram,
            &mut req,
            CorrId::NONE,
            &hub,
            &pool,
        );
        assert_eq!(ctx.next_request_id(), RequestId(2));
    }

    #[test]
    fn actions_queue_in_order() {
        let (mut iommu, mut dram, mut req) = fixture();
        let hub = MetricsHub::new();
        let pool = BufPool::new();
        let mut ctx = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            Some(PortId(4)),
            &mut iommu,
            &mut dram,
            &mut req,
            CorrId::NONE,
            &hub,
            &pool,
        )
        .with_tracing(true);
        ctx.set_timer(SimDuration::from_micros(5), 42);
        ctx.doorbell(DeviceId(2), ConnId(7), 1);
        ctx.trace(format_args!("hello"));
        ctx.stage("server.recv", 3, 0);
        let (actions, _) = ctx.finish();
        assert!(matches!(actions[0], Action::SetTimer { token: 42, .. }));
        assert!(matches!(actions[1], Action::Doorbell { value: 1, .. }));
        assert!(matches!(actions[2], Action::TraceText(_)));
        let stage = TraceData::Stage {
            stage: "server.recv",
            id: 3,
            aux: 0,
        };
        assert_eq!(actions[3], Action::Trace(stage));
    }

    #[test]
    fn trace_records_follow_the_tracing_flag() {
        /// Panics if it is ever rendered.
        struct Unformattable;
        impl fmt::Display for Unformattable {
            fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
                panic!("formatted with tracing off")
            }
        }
        let attached = TraceData::QueueAttached {
            conn: 7,
            base: 0x4000,
            size: 64,
        };
        let (mut iommu, mut dram, mut req) = fixture();
        let hub = MetricsHub::new();
        let pool = BufPool::new();
        let mut off = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            None,
            &mut iommu,
            &mut dram,
            &mut req,
            CorrId::NONE,
            &hub,
            &pool,
        );
        off.trace(format_args!("{Unformattable}"));
        off.trace_data(attached);
        assert!(
            off.finish().0.is_empty(),
            "records dropped while not tracing"
        );

        let mut on = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            None,
            &mut iommu,
            &mut dram,
            &mut req,
            CorrId::NONE,
            &hub,
            &pool,
        )
        .with_tracing(true);
        on.trace(format_args!("{} blocks", 3));
        on.trace_data(attached);
        assert_eq!(
            on.finish().0,
            [
                Action::TraceText("3 blocks".into()),
                Action::Trace(attached)
            ]
        );
    }

    #[test]
    fn dma_view_implements_queue_memory() {
        let (mut iommu, mut dram, mut req) = fixture();
        let hub = MetricsHub::new();
        let pool = BufPool::new();
        let mut ctx = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            None,
            &mut iommu,
            &mut dram,
            &mut req,
            CorrId::NONE,
            &hub,
            &pool,
        );
        let mut view = ctx.dma_view(Pasid(1));
        view.write(0x1000, b"via view").unwrap();
        let mut b = [0u8; 8];
        view.read(0x1000, &mut b).unwrap();
        assert_eq!(&b, b"via view");
        // Faults map to MemFault with the right direction.
        assert_eq!(
            view.write(0x9000, b"x"),
            Err(MemFault {
                va: 0x9000,
                write: true
            })
        );
    }

    #[test]
    fn busy_accumulates() {
        let (mut iommu, mut dram, mut req) = fixture();
        let hub = MetricsHub::new();
        let pool = BufPool::new();
        let mut ctx = DeviceCtx::new(
            SimTime::ZERO,
            DeviceId(1),
            None,
            &mut iommu,
            &mut dram,
            &mut req,
            CorrId::NONE,
            &hub,
            &pool,
        );
        ctx.busy(SimDuration::from_nanos(100));
        ctx.busy(SimDuration::from_nanos(50));
        assert_eq!(ctx.elapsed(), SimDuration::from_nanos(150));
    }
}
