//! The smart NIC: a programmable network device hosting offloaded
//! applications.
//!
//! §3 of the paper: "all application logic would be compiled to run on the
//! smartNIC. The development environment for the smartNIC would include a
//! library that encapsulates the functionality of the system bus". Here
//! the hosted application implements [`NicApp`]; the "library" it links
//! against is the [`Monitor`] the NIC passes in through [`NicEnv`].
//!
//! The NIC is one more [`Firmware`]: the shared shell runs its lifecycle
//! and the NIC forwards everything else — network frames, monitor events,
//! timers and IOMMU faults — to the application. A loader-style `install()`
//! hook swaps the application image, modelling the firmware update path.

use lastcpu_iommu::IommuFault;
use lastcpu_net::Frame;
use lastcpu_sim::SimDuration;

use crate::device::DeviceCtx;
use crate::firmware::Firmware;
use crate::monitor::{Monitor, MonitorEvent};

/// Environment handed to the hosted application: the execution context and
/// the device's monitor (the paper's device-side OS library).
pub struct NicEnv<'a, 'b> {
    /// The handler execution context.
    pub ctx: &'a mut DeviceCtx<'b>,
    /// The NIC's resource monitor / libos.
    pub monitor: &'a mut Monitor,
}

/// An application offloaded onto a smart NIC.
pub trait NicApp {
    /// Application name (for traces).
    fn app_name(&self) -> &str;

    /// Called once the NIC is registered on the bus.
    fn on_start(&mut self, env: &mut NicEnv<'_, '_>);

    /// A network frame arrived on the NIC's port.
    fn on_net(&mut self, env: &mut NicEnv<'_, '_>, frame: Frame);

    /// A monitor event (discovery result, open completion, doorbell, ...).
    fn on_event(&mut self, env: &mut NicEnv<'_, '_>, ev: MonitorEvent);

    /// An application timer fired (tokens without the monitor's top bit).
    fn on_timer(&mut self, _env: &mut NicEnv<'_, '_>, _token: u64) {}

    /// The NIC's IOMMU delivered a fault attributable to this app's DMA.
    fn on_fault(&mut self, _env: &mut NicEnv<'_, '_>, _fault: IommuFault) {}

    /// The device was reset; drop all state.
    fn on_reset(&mut self) {}

    /// Serializes the application's durable state for a machine
    /// checkpoint (the NIC body embeds it in its own section). Loud
    /// default, mirroring [`Firmware::snapshot_state`].
    fn snapshot_state(&self, _w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        Err(lastcpu_snap::SnapError::Unsupported(format!(
            "nic app {:?}",
            self.app_name()
        )))
    }

    /// Loads state written by [`NicApp::snapshot_state`] back in place.
    fn restore_state(&mut self, _r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        Err(lastcpu_snap::SnapError::Unsupported(format!(
            "nic app {:?}",
            self.app_name()
        )))
    }
}

/// A smart NIC hosting application `A`.
pub struct SmartNic<A> {
    name: String,
    monitor: Monitor,
    app: A,
    app_started: bool,
    /// Firmware image version (bumped by [`SmartNic::install`]).
    app_version: u32,
}

impl<A: NicApp + 'static> SmartNic<A> {
    /// Creates a NIC hosting `app`.
    pub fn new(name: &str, app: A) -> Self {
        SmartNic {
            name: name.to_string(),
            monitor: Monitor::new(),
            app,
            app_started: false,
            app_version: 1,
        }
    }

    /// The hosted application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// The hosted application, mutably.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Current application image version.
    pub fn app_version(&self) -> u32 {
        self.app_version
    }

    /// Installs a new application image (the loader path): replaces the
    /// app, bumps the version and restarts it.
    pub fn install(&mut self, ctx: &mut DeviceCtx<'_>, app: A) {
        self.app = app;
        self.app_version += 1;
        ctx.busy(SimDuration::from_millis(1)); // image flash + restart
        let (app, mut env) = self.hosted(ctx);
        app.on_start(&mut env);
    }

    /// The hosted app and the environment it runs in.
    fn hosted<'a, 'b>(&'a mut self, ctx: &'a mut DeviceCtx<'b>) -> (&'a mut A, NicEnv<'a, 'b>) {
        let monitor = &mut self.monitor;
        (&mut self.app, NicEnv { ctx, monitor })
    }
}

impl<A: NicApp + 'static> Firmware for SmartNic<A> {
    const KIND: &'static str = "smart-nic";
    const SELF_TEST: SimDuration = SimDuration::from_micros(20); // PHY bring-up
    const HEARTBEAT: SimDuration = SimDuration::from_millis(2);
    // The monitor's event vector and session bookkeeping attribute as
    // `nic.on_msg` in the E9 table.
    const MSG_SCOPE: Option<&'static str> = Some("nic.on_msg");

    fn name(&self) -> &str {
        &self.name
    }

    fn monitor(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    fn on_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: MonitorEvent) {
        // The app starts once registration completes, so its first
        // discovery happens on a live bus.
        let first_registration = ev == MonitorEvent::Registered && !self.app_started;
        self.app_started |= first_registration;
        let (app, mut env) = self.hosted(ctx);
        if first_registration {
            app.on_start(&mut env);
        } else {
            app.on_event(&mut env, ev);
        }
    }

    fn on_net(&mut self, ctx: &mut DeviceCtx<'_>, frame: Frame) {
        // Per-frame firmware cost: parse + dispatch.
        ctx.busy(SimDuration::from_nanos(300));
        let (app, mut env) = self.hosted(ctx);
        app.on_net(&mut env, frame);
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        let (app, mut env) = self.hosted(ctx);
        app.on_timer(&mut env, token);
    }

    fn on_fault(&mut self, ctx: &mut DeviceCtx<'_>, fault: IommuFault) {
        let (app, mut env) = self.hosted(ctx);
        app.on_fault(&mut env, fault);
    }

    fn on_reset(&mut self, ctx: &mut DeviceCtx<'_>) -> bool {
        self.app.on_reset();
        self.app_started = false;
        ctx.busy(Self::SELF_TEST);
        true
    }

    fn snapshot_state(&self, w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        w.put_str(&self.name);
        w.put_u32(self.app_version);
        w.put_bool(self.app_started);
        lastcpu_snap::Snapshot::snapshot(&self.monitor, w);
        self.app.snapshot_state(w)
    }

    fn restore_state(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.name = r.str()?;
        self.app_version = r.u32()?;
        self.app_started = r.bool()?;
        lastcpu_snap::Restore::restore(&mut self.monitor, r)?;
        self.app.restore_state(r)
    }
}

/// A trivial app that echoes every frame back to its sender — the NIC
/// equivalent of a loopback firmware, used in tests and as the default
/// image in the loader example.
pub struct EchoApp {
    frames_echoed: u64,
}

impl EchoApp {
    /// A fresh echo app.
    pub fn new() -> Self {
        EchoApp { frames_echoed: 0 }
    }

    /// Frames echoed so far.
    pub fn frames_echoed(&self) -> u64 {
        self.frames_echoed
    }
}

impl Default for EchoApp {
    fn default() -> Self {
        Self::new()
    }
}

impl NicApp for EchoApp {
    fn app_name(&self) -> &str {
        "echo"
    }

    fn on_start(&mut self, _env: &mut NicEnv<'_, '_>) {}

    fn on_net(&mut self, env: &mut NicEnv<'_, '_>, frame: Frame) {
        self.frames_echoed += 1;
        let Some(port) = env.ctx.port else { return };
        env.ctx
            .net_tx(Frame::unicast(port, frame.src, frame.payload));
    }

    fn on_event(&mut self, _env: &mut NicEnv<'_, '_>, _ev: MonitorEvent) {}

    fn snapshot_state(&self, w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Snapshot::snapshot(self, w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Restore::restore(self, r)
    }
}

impl lastcpu_snap::Snapshot for EchoApp {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.frames_echoed);
    }
}

impl lastcpu_snap::Restore for EchoApp {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.frames_echoed = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use lastcpu_bus::CorrId;
    use lastcpu_bus::{DeviceId, Dst, Envelope, Payload, RequestId};
    use lastcpu_iommu::Iommu;
    use lastcpu_mem::Dram;
    use lastcpu_net::PortId;
    use lastcpu_sim::MetricsHub;
    use lastcpu_sim::{DetRng, SimTime};

    struct Fix {
        iommu: Iommu,
        dram: Dram,
        rng: DetRng,
        req: u64,
        stats: MetricsHub,
    }

    impl Fix {
        fn new() -> Self {
            Fix {
                iommu: Iommu::new(16),
                dram: Dram::new(1 << 20),
                rng: DetRng::new(7),
                req: 0,
                stats: MetricsHub::new(),
            }
        }

        fn ctx(&mut self) -> DeviceCtx<'_> {
            DeviceCtx::new(
                SimTime::ZERO,
                DeviceId(1),
                Some(PortId(9)),
                &mut self.iommu,
                &mut self.dram,
                &mut self.rng,
                &mut self.req,
                CorrId::NONE,
                &self.stats,
            )
        }
    }

    /// App that records lifecycle callbacks.
    #[derive(Default)]
    struct SpyApp {
        started: u32,
        frames: u32,
        events: u32,
        resets: u32,
    }

    impl NicApp for SpyApp {
        fn app_name(&self) -> &str {
            "spy"
        }

        fn on_start(&mut self, _env: &mut NicEnv<'_, '_>) {
            self.started += 1;
        }

        fn on_net(&mut self, _env: &mut NicEnv<'_, '_>, _frame: Frame) {
            self.frames += 1;
        }

        fn on_event(&mut self, _env: &mut NicEnv<'_, '_>, _ev: MonitorEvent) {
            self.events += 1;
        }

        fn on_reset(&mut self) {
            self.resets += 1;
        }
    }

    fn hello_ack() -> Envelope {
        Envelope {
            src: DeviceId::BUS,
            dst: Dst::Device(DeviceId(1)),
            req: RequestId(0),
            corr: CorrId::NONE,
            payload: Payload::HelloAck {
                assigned: DeviceId(1),
            },
        }
    }

    #[test]
    fn app_starts_on_registration_not_before() {
        let mut fix = Fix::new();
        let mut nic = SmartNic::new("nic0", SpyApp::default());
        let mut ctx = fix.ctx();
        nic.on_start(&mut ctx);
        assert_eq!(nic.app().started, 0);
        drop(ctx);
        let mut ctx = fix.ctx();
        nic.on_message(&mut ctx, &hello_ack());
        assert_eq!(nic.app().started, 1);
        // A second HelloAck does not restart the app.
        nic.on_message(&mut ctx, &hello_ack());
        assert_eq!(nic.app().started, 1);
        assert_eq!(nic.app().events, 1, "second Registered surfaces as event");
    }

    #[test]
    fn frames_reach_the_app() {
        let mut fix = Fix::new();
        let mut nic = SmartNic::new("nic0", SpyApp::default());
        let mut ctx = fix.ctx();
        Device::on_net(
            &mut nic,
            &mut ctx,
            Frame::unicast(PortId(2), PortId(9), vec![1, 2, 3]),
        );
        assert_eq!(nic.app().frames, 1);
        assert!(ctx.elapsed() > SimDuration::ZERO, "per-frame cost charged");
    }

    #[test]
    fn echo_app_reflects_frames() {
        let mut fix = Fix::new();
        let mut nic = SmartNic::new("nic0", EchoApp::new());
        let mut ctx = fix.ctx();
        Device::on_net(
            &mut nic,
            &mut ctx,
            Frame::unicast(PortId(2), PortId(9), b"ping".to_vec()),
        );
        let (actions, _, _) = ctx.finish();
        let tx = actions
            .iter()
            .find_map(|a| match a {
                crate::device::Action::NetTx(f) => Some(f.clone()),
                _ => None,
            })
            .expect("echo transmits");
        assert_eq!(tx.dst, PortId(2));
        assert_eq!(tx.src, PortId(9));
        assert_eq!(tx.payload, b"ping");
        assert_eq!(nic.app().frames_echoed(), 1);
    }

    #[test]
    fn install_swaps_image_and_restarts() {
        let mut fix = Fix::new();
        let mut nic = SmartNic::new("nic0", SpyApp::default());
        assert_eq!(nic.app_version(), 1);
        let mut ctx = fix.ctx();
        nic.install(&mut ctx, SpyApp::default());
        assert_eq!(nic.app_version(), 2);
        assert_eq!(nic.app().started, 1, "new image starts immediately");
    }

    #[test]
    fn reset_restarts_lifecycle() {
        let mut fix = Fix::new();
        let mut nic = SmartNic::new("nic0", SpyApp::default());
        let mut ctx = fix.ctx();
        nic.on_message(&mut ctx, &hello_ack());
        drop(ctx);
        let mut ctx = fix.ctx();
        Device::on_reset(&mut nic, &mut ctx);
        assert_eq!(nic.app().resets, 1);
        let (actions, _, _) = ctx.finish();
        // Reset re-sends Hello.
        assert!(actions.iter().any(|a| matches!(
            a,
            crate::device::Action::SendBus(Envelope {
                payload: Payload::Hello { .. },
                ..
            })
        )));
        drop(actions);
        // And the app starts again on re-registration.
        let mut ctx = fix.ctx();
        nic.on_message(&mut ctx, &hello_ack());
        assert_eq!(nic.app().started, 2);
    }

    #[test]
    fn app_timers_pass_through() {
        let mut fix = Fix::new();
        let mut nic = SmartNic::new("nic0", SpyApp::default());
        let mut ctx = fix.ctx();
        // SpyApp has no on_timer counter; just verify no panic on an
        // app-namespace token and that a monitor token is swallowed.
        Device::on_timer(&mut nic, &mut ctx, 7);
        Device::on_timer(&mut nic, &mut ctx, 1 << 63);
    }
}
