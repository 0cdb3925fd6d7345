//! E7 — service discovery at machine scale (§2.2).
//!
//! The paper adopts SSDP-style discovery: a broadcast query which every
//! matching device answers. The cost is a broadcast per lookup — this
//! experiment quantifies it against device count and compares with the
//! baseline kernel's O(1) central-directory lookup (the honest trade-off:
//! the paper gives up the global view, and pays broadcasts for it).

use lastcpu_baseline::{CpuDevice, IdleApp};
use lastcpu_bus::{DeviceId, Dst, Envelope, Payload, RequestId};
use lastcpu_core::devices::device::{Device, DeviceCtx};
use lastcpu_core::{System, SystemConfig};
use lastcpu_sim::{SimDuration, SimTime};

use super::Experiment;
use crate::cli::Args;
use crate::drivers::{Announcer, DiscoverProbe};
use crate::obs::ObsArgs;
use crate::report::{round, us, Cell};

pub const EXP: Experiment = Experiment {
    name: "e7",
    title: "E7: service discovery vs machine size\n    \
            (decentralized: SSDP broadcast, 50us answer window;\n     \
            centralized: kernel directory lookup; 2 services/device)",
    run,
    ..Experiment::PLAIN
};

const SERVICES_PER_DEVICE: u16 = 2;

fn mean(latencies: &[SimDuration]) -> SimDuration {
    let sum: u64 = latencies.iter().map(|d| d.as_nanos()).sum();
    SimDuration::from_nanos(sum / latencies.len() as u64)
}

fn add_announcers(sys: &mut System, devices: u32) {
    for i in 0..devices {
        sys.add_device(Box::new(Announcer::new(
            &format!("dev{i}"),
            SERVICES_PER_DEVICE,
        )));
    }
}

/// Decentralized sweep: (mean latency, broadcasts per query, bus bytes per
/// query).
fn decentralized(devices: u32, obs: &ObsArgs) -> (SimDuration, f64, f64) {
    let mut config = SystemConfig {
        trace: false,
        ..SystemConfig::default()
    };
    obs.apply(&mut config);
    let mut sys = System::new(config);
    sys.add_memctl("memctl0");
    add_announcers(&mut sys, devices);
    let probe = sys.add_device(Box::new(DiscoverProbe::new("probe0", "svc:dev1:*", 10)));
    sys.power_on();
    // Boot announcements settle well before the probe's 200us start delay.
    sys.run_for(SimDuration::from_micros(150));
    let before = sys.bus().stats();
    sys.run_for(SimDuration::from_millis(50));
    let p: &DiscoverProbe = sys.device_as(probe).expect("probe");
    assert!(
        p.is_done(),
        "probe incomplete ({} sweeps)",
        p.latencies.len()
    );
    assert_eq!(p.last_hits, SERVICES_PER_DEVICE as usize);
    let queries = p.latencies.len() as f64;
    // Broadcast traffic includes heartbeat-era noise; queries dominate.
    let after = sys.bus().stats();
    let bcasts = (after.broadcast_deliveries - before.broadcast_deliveries) as f64 / queries;
    let bytes = (after.bytes - before.bytes) as f64 / queries;
    obs.dump(&sys);
    (mean(&p.latencies), bcasts, bytes)
}

/// A device that measures centralized lookups against the kernel directory.
struct CentralProbe {
    name: String,
    cpu: DeviceId,
    iterations: u32,
    sent_at: Option<SimTime>,
    req: Option<RequestId>,
    latencies: Vec<SimDuration>,
}

impl CentralProbe {
    fn is_done(&self) -> bool {
        self.latencies.len() as u32 >= self.iterations
    }

    fn lookup(&mut self, ctx: &mut DeviceCtx<'_>) {
        self.sent_at = Some(ctx.now + ctx.elapsed());
        let pattern = "svc:dev1:0".into();
        self.req = Some(ctx.send_bus(Dst::Device(self.cpu), Payload::Query { pattern }));
    }
}

impl Device for CentralProbe {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        "central-probe"
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        let hello = Payload::Hello {
            name: self.name.clone(),
            kind: "central-probe".into(),
        };
        ctx.send_bus(Dst::Bus, hello);
        ctx.set_timer(SimDuration::from_millis(2), 1);
    }

    fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) {
        match env.payload {
            Payload::HelloAck { .. } => {
                // Give the kernel time to boot + probe, then start.
                ctx.set_timer(SimDuration::from_millis(3), 2);
            }
            Payload::QueryHit { .. } if Some(env.req) == self.req => {
                if let Some(at) = self.sent_at.take() {
                    self.latencies.push(ctx.now.since(at));
                }
                if !self.is_done() {
                    self.lookup(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        match token {
            1 => {
                ctx.send_bus(Dst::Bus, Payload::Heartbeat);
                ctx.set_timer(SimDuration::from_millis(2), 1);
            }
            2 if self.latencies.is_empty() => self.lookup(ctx),
            _ => {}
        }
    }
}

/// Centralized sweep: mean lookup latency at the kernel directory.
fn centralized(devices: u32) -> SimDuration {
    let mut sys = System::new(SystemConfig {
        trace: false,
        ..SystemConfig::default()
    });
    let cpu = sys.add_device_with("cpu0", "cpu", |id, dram| {
        Box::new(CpuDevice::new("cpu0", id, dram, IdleApp))
    });
    add_announcers(&mut sys, devices);
    let probe = sys.add_device(Box::new(CentralProbe {
        name: "probe0".into(),
        cpu: cpu.id,
        iterations: 10,
        sent_at: None,
        req: None,
        latencies: Vec::new(),
    }));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(60));
    let p: &CentralProbe = sys.device_as(probe).expect("probe");
    assert!(
        p.is_done(),
        "central probe incomplete ({})",
        p.latencies.len()
    );
    mean(&p.latencies)
}

fn run(args: &Args) -> Result<Vec<Cell>, String> {
    let obs = ObsArgs::from_args(args);
    let cells = [4u32, 16, 64, 256].map(|n| {
        let (ssdp, bcasts, bytes) = decentralized(n, &obs);
        Cell::new("discovery")
            .id("devices", n)
            .exact("ssdp_mean_us", us(ssdp), "us")
            .exact("bcasts_per_query", round(bcasts, 0), "count")
            .exact("bus_bytes_per_query", round(bytes, 0), "B")
            .exact("central_mean_us", us(centralized(n)), "us")
    });
    Ok(cells.into())
}
