//! The self-managing device, written once.
//!
//! §2.1 says every device embeds the same resource monitor and §4 that its
//! software links against "a library that encapsulates the functionality of
//! the system bus". [`Monitor`] is that library; the *protocol for using it*
//! — self-test, `Hello`, heartbeat, every envelope and every timer through
//! the monitor first, wipe and re-introduce on reset — is the blanket
//! `impl<T: Firmware> Device for T` below and nothing else. A device
//! implements [`Firmware`] with what differs. One that is deliberately *not*
//! self-managing implements [`Device`] directly; DESIGN.md §5 "Writing a
//! device" lists those and why.

use lastcpu_bus::Envelope;
use lastcpu_iommu::IommuFault;
use lastcpu_net::Frame;
use lastcpu_sim::{costs, profile, MetricsHub, SimDuration};
use lastcpu_snap::{SnapReader, SnapWriter};

use crate::device::{unsupported, Device, DeviceCtx};
use crate::monitor::{Monitor, MonitorEvent};

/// What one self-managing device adds to the shared lifecycle.
pub trait Firmware: 'static {
    /// Device kind announced in `Hello`, e.g. `"smart-ssd"`.
    const KIND: &'static str;
    /// Self-test time charged at power-on, before `Hello`.
    const SELF_TEST: SimDuration = SimDuration::ZERO;
    /// Heartbeat period.
    const HEARTBEAT: SimDuration = costs::DEVICE_HEARTBEAT;
    /// Profiler scope opened around each envelope (an E12 row), if any.
    const MSG_SCOPE: Option<&'static str> = None;
    /// Profiler scope opened around each timer (an E12 row), if any.
    const TIMER_SCOPE: Option<&'static str> = None;

    /// Short stable name, e.g. `"nic0"`.
    fn name(&self) -> &str;

    /// The device's embedded monitor.
    fn monitor(&mut self) -> &mut Monitor;

    /// See [`Device::attach`].
    fn attach(&mut self, _stats: &MetricsHub) {}

    /// Something the application must decide: a monitor event from an
    /// envelope or from a monitor timer (a discovery window closing).
    fn on_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: MonitorEvent);

    /// Power-on work that must precede `Hello` (registering services that
    /// depend on device state). Not re-run on reset.
    fn boot(&mut self) {}

    /// Sees each envelope before the monitor does; returning `true`
    /// consumes it.
    fn intercept(&mut self, _ctx: &mut DeviceCtx<'_>, _env: &Envelope) -> bool {
        false
    }

    /// A timer the firmware armed itself fired (monitor tokens never reach
    /// here).
    fn on_timer(&mut self, _ctx: &mut DeviceCtx<'_>, _token: u64) {}

    /// A network frame arrived on the device's port.
    fn on_net(&mut self, _ctx: &mut DeviceCtx<'_>, _frame: Frame) {}

    /// The device's IOMMU delivered a fault from an earlier DMA.
    fn on_fault(&mut self, _ctx: &mut DeviceCtx<'_>, _fault: IommuFault) {}

    /// The bus pulsed the reset line. A firmware that recovers wipes its own
    /// state, charges whatever self-test it re-runs and returns `true`; the
    /// shell then wipes the monitor and re-introduces the device. The
    /// default ignores the pulse.
    fn on_reset(&mut self, _ctx: &mut DeviceCtx<'_>) -> bool {
        false
    }

    /// See [`Device::snapshot_state`]; the layout is the firmware's own.
    fn snapshot_state(&self, _w: &mut SnapWriter) -> lastcpu_snap::Result<()> {
        Err(unsupported(self.name(), Self::KIND))
    }

    /// See [`Device::restore_state`].
    fn restore_state(&mut self, _r: &mut SnapReader<'_>) -> lastcpu_snap::Result<()> {
        Err(unsupported(self.name(), Self::KIND))
    }
}

/// `Hello`, the announces, then the heartbeat timer — in that order, since
/// effects apply in queue order.
fn introduce<T: Firmware>(fw: &mut T, ctx: &mut DeviceCtx<'_>) {
    let name = fw.name().to_string();
    let monitor = fw.monitor();
    monitor.start(ctx, &name, T::KIND);
    monitor.enable_heartbeat(ctx, T::HEARTBEAT);
}

impl<T: Firmware> Device for T {
    fn name(&self) -> &str {
        Firmware::name(self)
    }

    fn kind(&self) -> &str {
        T::KIND
    }

    fn attach(&mut self, stats: &MetricsHub) {
        Firmware::attach(self, stats);
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.busy(T::SELF_TEST);
        self.boot();
        introduce(self, ctx);
    }

    fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) {
        let _sp = T::MSG_SCOPE.map(profile::span);
        if self.intercept(ctx, env) {
            return;
        }
        if let Some(ev) = self.monitor().handle(ctx, env) {
            self.on_event(ctx, ev);
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        let _sp = T::TIMER_SCOPE.map(profile::span);
        if !Monitor::owns_timer(token) {
            Firmware::on_timer(self, ctx, token);
        } else if let Some(ev) = self.monitor().on_timer(ctx, token) {
            self.on_event(ctx, ev);
        }
    }

    fn on_net(&mut self, ctx: &mut DeviceCtx<'_>, frame: Frame) {
        Firmware::on_net(self, ctx, frame);
    }

    fn on_fault(&mut self, ctx: &mut DeviceCtx<'_>, fault: IommuFault) {
        Firmware::on_fault(self, ctx, fault);
    }

    fn on_reset(&mut self, ctx: &mut DeviceCtx<'_>) {
        if Firmware::on_reset(self, ctx) {
            self.monitor().reset();
            introduce(self, ctx);
        }
    }

    fn snapshot_state(&self, w: &mut SnapWriter) -> lastcpu_snap::Result<()> {
        Firmware::snapshot_state(self, w)
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> lastcpu_snap::Result<()> {
        Firmware::restore_state(self, r)
    }
}
