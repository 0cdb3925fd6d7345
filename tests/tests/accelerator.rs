//! Integration: the FPGA-style accelerator over the live bus — spatial
//! region allocation, doorbell-driven jobs, and release on disconnect.

use lastcpu_bus::wire::Wire;
use lastcpu_bus::{ConnId, DeviceId, Status, Token};
use lastcpu_core::devices::accel::{Accelerator, FabricParams, DOORBELL_JOB_DONE, FABRIC_SERVICE};
use lastcpu_core::devices::device::DeviceCtx;
use lastcpu_core::devices::firmware::Firmware;
use lastcpu_core::devices::monitor::{Monitor, MonitorEvent};
use lastcpu_core::{System, SystemConfig};
use lastcpu_sim::{SimDuration, SimTime};

/// Client: opens a fabric context, submits jobs, records completion times.
struct FabricClient {
    name: String,
    monitor: Monitor,
    accel: DeviceId,
    regions: u16,
    jobs: u32,
    op: u64,
    conn: Option<ConnId>,
    awaiting_open: bool,
    submitted_at: Option<SimTime>,
    pub denied: bool,
    pub job_times: Vec<SimDuration>,
}

impl FabricClient {
    fn new(name: &str, accel: DeviceId, regions: u16, jobs: u32) -> Self {
        FabricClient {
            name: name.into(),
            monitor: Monitor::new(),
            accel,
            regions,
            jobs,
            op: 0,
            conn: None,
            awaiting_open: false,
            submitted_at: None,
            denied: false,
            job_times: Vec::new(),
        }
    }

    fn is_done(&self) -> bool {
        self.denied || self.job_times.len() as u32 >= self.jobs
    }

    fn submit(&mut self, ctx: &mut DeviceCtx<'_>) {
        if let Some(conn) = self.conn {
            self.submitted_at = Some(ctx.now + ctx.elapsed());
            ctx.doorbell(self.accel, conn, 100); // 100 work units
        }
    }
}

impl Firmware for FabricClient {
    const KIND: &'static str = "fabric-client";
    const HEARTBEAT: SimDuration = SimDuration::from_millis(2);

    fn name(&self) -> &str {
        &self.name
    }

    fn monitor(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    fn on_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: MonitorEvent) {
        match ev {
            MonitorEvent::Registered => {
                ctx.set_timer(SimDuration::from_micros(200), 2);
            }
            MonitorEvent::OpenDone { op, result, .. } if op == self.op => {
                self.awaiting_open = false;
                match result {
                    Ok((conn, _, _)) => {
                        self.conn = Some(conn);
                        self.submit(ctx);
                    }
                    Err(Status::NoResources) => self.denied = true,
                    Err(_) => self.denied = true,
                }
            }
            MonitorEvent::Error { .. } => {
                // Bounced (the accelerator was still self-testing);
                // retry on the next tick.
                self.awaiting_open = false;
            }
            MonitorEvent::Doorbell { value, .. } if value & DOORBELL_JOB_DONE != 0 => {
                if let Some(at) = self.submitted_at.take() {
                    self.job_times.push(ctx.now.since(at));
                }
                if !self.is_done() {
                    self.submit(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token == 2 && self.conn.is_none() && !self.denied {
            if !self.awaiting_open {
                self.awaiting_open = true;
                self.op = self.monitor.open(
                    ctx,
                    self.accel,
                    FABRIC_SERVICE,
                    Token::NONE,
                    FabricParams {
                        regions: self.regions,
                    }
                    .encode(),
                );
            }
            ctx.set_timer(SimDuration::from_millis(1), 2);
        }
    }
}

#[test]
fn fabric_jobs_scale_with_regions() {
    let mut sys = System::new(SystemConfig::default());
    sys.add_memctl("memctl0");
    let accel = sys.add_device(Box::new(Accelerator::new("fpga0", 8)));
    let wide = sys.add_device(Box::new(FabricClient::new("wide", accel.id, 6, 5)));
    let narrow = sys.add_device(Box::new(FabricClient::new("narrow", accel.id, 2, 5)));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(100));

    let w: &FabricClient = sys.device_as(wide).unwrap();
    let n: &FabricClient = sys.device_as(narrow).unwrap();
    assert!(w.is_done() && !w.denied, "wide client incomplete");
    assert!(n.is_done() && !n.denied, "narrow client incomplete");
    let wt = w.job_times.iter().map(|d| d.as_nanos()).sum::<u64>() / w.job_times.len() as u64;
    let nt = n.job_times.iter().map(|d| d.as_nanos()).sum::<u64>() / n.job_times.len() as u64;
    assert!(
        nt > wt * 2,
        "2 regions ({nt}ns) should be ~3x slower than 6 ({wt}ns)"
    );
    let a: &Accelerator = sys.device_as(accel).unwrap();
    assert_eq!(a.stats().jobs, 10);
    assert_eq!(a.free_regions(), 0);
}

#[test]
fn fabric_exhaustion_denies_and_failure_releases() {
    let mut sys = System::new(SystemConfig::default());
    sys.add_memctl("memctl0");
    let accel = sys.add_device(Box::new(Accelerator::new("fpga0", 4)));
    let hog = sys.add_device(Box::new(FabricClient::new("hog", accel.id, 4, 1000)));
    sys.power_on();
    // Past the accelerator's 5ms self-test plus the hog's reconfiguration.
    sys.run_for(SimDuration::from_millis(30));
    {
        let a: &Accelerator = sys.device_as(accel).unwrap();
        assert_eq!(a.free_regions(), 0, "hog holds the whole fabric");
    }
    // A second tenant is denied while the fabric is full.
    let late = sys.add_device(Box::new(FabricClient::new("late", accel.id, 1, 1)));
    sys.run_for(SimDuration::from_millis(10));
    {
        let l: &FabricClient = sys.device_as(late).unwrap();
        assert!(l.denied, "fabric exhausted, open must be denied");
    }
    // The hog dies; its regions return to the pool.
    sys.kill_device(hog, true);
    sys.run_for(SimDuration::from_millis(10));
    let a: &Accelerator = sys.device_as(accel).unwrap();
    assert_eq!(a.free_regions(), 4, "regions released on tenant death");
}

#[test]
fn time_shared_mode_admits_and_stretches() {
    use lastcpu_core::devices::accel::ShareMode;
    let mut sys = System::new(SystemConfig::default());
    sys.add_memctl("memctl0");
    let accel = sys.add_device(Box::new(Accelerator::with_mode(
        "fpga0",
        4,
        ShareMode::TimeShared,
    )));
    // Two tenants each wanting the whole fabric: 2x oversubscribed.
    let t1 = sys.add_device(Box::new(FabricClient::new("t1", accel.id, 4, 5)));
    let t2 = sys.add_device(Box::new(FabricClient::new("t2", accel.id, 4, 5)));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(100));
    let c1: &FabricClient = sys.device_as(t1).unwrap();
    let c2: &FabricClient = sys.device_as(t2).unwrap();
    assert!(!c1.denied && !c2.denied, "time-shared mode admits everyone");
    assert!(c1.is_done() && c2.is_done());
    let a: &Accelerator = sys.device_as(accel).unwrap();
    assert_eq!(a.granted_regions(), 8);
    assert!((a.oversubscription() - 2.0).abs() < 1e-9);

    // Compare with an uncontended spatial run: time-shared jobs must be
    // roughly the oversubscription factor slower.
    let mut sys2 = System::new(SystemConfig::default());
    sys2.add_memctl("memctl0");
    let accel2 = sys2.add_device(Box::new(Accelerator::new("fpga1", 4)));
    let solo = sys2.add_device(Box::new(FabricClient::new("solo", accel2.id, 4, 5)));
    sys2.power_on();
    sys2.run_for(SimDuration::from_millis(100));
    let s: &FabricClient = sys2.device_as(solo).unwrap();
    assert!(s.is_done() && !s.denied);
    let shared_mean =
        c1.job_times.iter().map(|d| d.as_nanos()).sum::<u64>() / c1.job_times.len() as u64;
    let solo_mean =
        s.job_times.iter().map(|d| d.as_nanos()).sum::<u64>() / s.job_times.len() as u64;
    assert!(
        shared_mean > solo_mean * 3 / 2,
        "oversubscribed jobs ({shared_mean}ns) must stretch vs solo ({solo_mean}ns)"
    );
}
