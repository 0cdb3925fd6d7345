//! `ctl_setup_churn`: only the control plane works. One machine with a
//! memory controller, an SSD and 32 devices that each loop the Figure-2
//! sequence (discover → open → alloc → grant → doorbell → teardown); an
//! operation is one completed setup. No network port exists, so the switch
//! cannot carry a frame.

use lastcpu_bench::drivers::{ControlMode, SetupClient};
use lastcpu_core::devices::flash::{NandChip, NandConfig};
use lastcpu_core::devices::fs::FlashFs;
use lastcpu_core::devices::ftl::Ftl;
use lastcpu_core::devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_core::{DeviceHandle, System, SystemConfig};
use lastcpu_sim::{export, Histogram, SimDuration, SimTime};
use lastcpu_snap::fnv1a_fold;

use super::machine::{add_iommu, add_memctl, add_ssd, add_system, memctl_stats};
use super::{measure, Bed, Check, Counters, Levels, Measured, Params};
use crate::calib::Ctx;
use crate::metrics::Values;

const FILE: &str = "/data/ctl.db";
const CLIENTS: usize = 32;

struct CtlBed {
    sys: System,
    memctl: DeviceHandle,
    ssd: DeviceHandle,
    clients: Vec<DeviceHandle>,
    iterations: u32,
}

impl CtlBed {
    fn build(seed: u64, iterations: u32) -> CtlBed {
        let mut sys = System::new(SystemConfig {
            seed,
            ..SystemConfig::default()
        });
        let memctl = sys.add_memctl("memctl0");
        let mut fs = FlashFs::format(Ftl::new(NandChip::new(NandConfig::default())));
        fs.create(FILE).expect("fresh filesystem");
        let ssd = sys.add_device(Box::new(SmartSsd::new(
            "ssd0",
            fs,
            SsdConfig {
                exports: vec![FILE.into()],
                ..SsdConfig::default()
            },
        )));
        let clients = (0..CLIENTS)
            .map(|i| {
                let mut c = SetupClient::new(
                    &format!("client{i}"),
                    ControlMode::Decentralized,
                    &format!("file:{FILE}"),
                    iterations,
                );
                c.memctl_hint_value = memctl.id;
                sys.add_device(Box::new(c))
            })
            .collect();
        CtlBed {
            sys,
            memctl,
            ssd,
            clients,
            iterations,
        }
    }

    fn each_client(&self) -> impl Iterator<Item = &SetupClient> {
        self.clients
            .iter()
            .map(|&h| self.sys.device_as::<SetupClient>(h).expect("client handle"))
    }
}

impl Bed for CtlBed {
    const SLICE: SimDuration = SimDuration::from_millis(1);

    fn power_on(&mut self) {
        self.sys.power_on();
    }

    fn now(&self) -> SimTime {
        self.sys.now()
    }

    fn run_until(&mut self, t: SimTime) -> u64 {
        self.sys.run_until(t)
    }

    /// Measured once every client has one setup behind it: registration
    /// and the cold first discovery belong to set-up.
    fn measuring(&self) -> bool {
        self.each_client().all(|c| !c.latencies.is_empty())
    }

    fn done(&self) -> bool {
        self.each_client().all(|c| c.is_done() || c.failed)
    }

    fn end_time(&self) -> SimTime {
        self.now()
    }

    fn ops_done(&self) -> u64 {
        self.each_client().map(|c| c.latencies.len() as u64).sum()
    }

    fn ops_target(&self) -> u64 {
        CLIENTS as u64 * self.iterations as u64
    }

    fn failed_ops(&self) -> u64 {
        // A client that fails stops; everything it did not finish is lost.
        self.each_client()
            .filter(|c| c.failed)
            .map(|c| self.iterations as u64 - c.latencies.len() as u64)
            .sum()
    }

    fn latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for c in self.each_client() {
            for &l in &c.latencies {
                h.record(l);
            }
        }
        h
    }

    /// `SetupClient` has no snapshot hook, so `System::checkpoint` refuses
    /// this machine; the digest covers what is observable instead: clock,
    /// the metrics hub, the bus counters and every setup latency.
    fn observe(&mut self) -> (Counters, u64) {
        let mut c = Counters::default();
        add_system(&self.sys, &mut c);
        add_memctl(&self.sys, self.memctl, &mut c);
        add_ssd(&mut self.sys, self.ssd, &mut c);
        for &h in [self.memctl, self.ssd].iter().chain(&self.clients) {
            add_iommu(&self.sys, h, &mut c);
            // `SetupClient` does not snapshot, so the switch section cannot
            // be read here; with no port on the switch it forwarded nothing.
            assert!(
                self.sys.device_port(h).is_none(),
                "ctl machine has no network port"
            );
        }
        let mut h = lastcpu_snap::FNV_OFFSET;
        fnv1a_fold(&mut h, &self.sys.now().as_nanos().to_le_bytes());
        fnv1a_fold(&mut h, export::metrics_json(self.sys.stats()).as_bytes());
        fnv1a_fold(&mut h, format!("{:?}", self.sys.bus().stats()).as_bytes());
        for client in self.each_client() {
            for l in &client.latencies {
                fnv1a_fold(&mut h, &l.as_nanos().to_le_bytes());
            }
        }
        (c, h)
    }

    fn levels(&self) -> Levels {
        Levels {
            memctl_peak_bytes: memctl_stats(&self.sys, self.memctl).peak_bytes,
            ..Levels::default()
        }
    }

    fn checks(&self) -> Vec<Check> {
        vec![("no failed setup", self.each_client().all(|c| !c.failed))]
    }
}

/// 32 clients × 2,800 setups at full size.
pub fn setup_churn(ctx: &mut Ctx, p: &Params) -> Measured {
    let iterations = p.ops(2_800, 20) as u32;
    measure(ctx, p, || CtlBed::build(p.seed, iterations))
}

pub fn isolation(v: &Values, _host_s: f64) -> Vec<Check> {
    vec![
        (
            "isolation: no network frame",
            v.value("net.frames_per_op") == 0.0,
        ),
        (
            "isolation: the bus carries every setup (> 10 messages/op)",
            v.value("bus.messages_per_op") > 10.0,
        ),
    ]
}
