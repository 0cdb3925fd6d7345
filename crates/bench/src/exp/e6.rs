//! E6 — control/data plane separation (§2.3).
//!
//! The paper: "The memory bus must have high throughput and low latency,
//! while the system management bus need not ... we do not see a compelling
//! reason to combine them." This experiment measures the data plane's
//! latency (a doorbell ping-pong between two devices, i.e. an MSI-style
//! memory write) while other devices generate rising control-plane load
//! (bulk buffers tunneled over the control path). In the *split*
//! configuration (the paper's design) the planes do not queue behind each
//! other; in the *conflated* configuration every control message also
//! occupies the shared interconnect.

use lastcpu_core::{System, SystemConfig};
use lastcpu_sim::SimDuration;

use super::Experiment;
use crate::cli::Args;
use crate::drivers::{ControlStorm, DoorbellPinger, DoorbellPonger};
use crate::obs::ObsArgs;
use crate::report::{round, us, Cell};

pub const EXP: Experiment = Experiment {
    name: "e6",
    title: "E6: data-plane doorbell RTT under rising control-plane load\n    \
            (doorbell ping-pong every 20us; storm = 32KiB buffers over the\n     \
            control path, as a kernel-mediated system would move them)",
    run,
    ..Experiment::PLAIN
};

/// Runs one configuration; returns (rtt mean, rtt p99, control msgs sent).
fn ping(
    storm_interval: Option<SimDuration>,
    conflate: bool,
    obs: &ObsArgs,
) -> (SimDuration, SimDuration, u64) {
    let mut config = SystemConfig {
        trace: false,
        conflate_planes: conflate,
        ..SystemConfig::default()
    };
    obs.apply(&mut config);
    let mut sys = System::new(config);
    sys.add_memctl("memctl0");
    let ponger = sys.add_device(Box::new(DoorbellPonger::new("ponger0")));
    let pinger = sys.add_device(Box::new(DoorbellPinger::new(
        "pinger0",
        ponger.id,
        SimDuration::from_micros(20),
    )));
    let sink = sys.add_device(Box::new(DoorbellPonger::new("sink0")));
    let mut storms = Vec::new();
    if let Some(interval) = storm_interval {
        // Several generators so the bus sees interleaved sources. Each
        // sends a 32 KiB buffer per tick — the bulk traffic a kernel-
        // mediated system tunnels through its control path.
        for i in 0..4 {
            storms.push(sys.add_device(Box::new(ControlStorm::bulk(
                &format!("storm{i}"),
                interval.saturating_mul(4), // 4 devices at interval*4 = aggregate rate
                32 * 1024,
                sink.id,
            ))));
        }
    }
    sys.power_on();
    sys.run_for(SimDuration::from_millis(100));
    let p: &DoorbellPinger = sys.device_as(pinger).expect("pinger");
    assert!(p.rtt.count() > 500, "too few pings: {}", p.rtt.count());
    let sent = storms
        .iter()
        .map(|&s| sys.device_as::<ControlStorm>(s).expect("storm").sent)
        .sum();
    obs.dump(&sys);
    (p.rtt.mean(), p.rtt.percentile(99.0), sent)
}

fn run(args: &Args) -> Result<Vec<Cell>, String> {
    let obs = ObsArgs::from_args(args);
    // Aggregate bulk rates; the shared link carries each message twice
    // (ingress + egress), so its 2.5 GB/s raw rate saturates at ~1.25 GB/s
    // of offered bulk. The top load runs at ~96% utilization — past that
    // an open-loop storm diverges, which is exactly the failure mode a
    // conflated interconnect invites.
    let loads = [
        ("none", None),
        ("0.1 GB/s", Some(SimDuration::from_micros(312))),
        ("0.3 GB/s", Some(SimDuration::from_micros(104))),
        ("0.6 GB/s", Some(SimDuration::from_micros(52))),
    ];
    let mut cells = Vec::new();
    for (load, interval) in loads {
        let mut split_p99 = SimDuration::ZERO;
        for (planes, conflate) in [("split", false), ("conflated", true)] {
            let (mean, p99, sent) = ping(interval, conflate, &obs);
            let mut cell = Cell::new("doorbell_rtt")
                .id("control_load", load)
                .id("planes", planes)
                .exact("mean_us", us(mean), "us")
                .exact("p99_us", us(p99), "us")
                .exact("control_msgs", sent, "count");
            if conflate {
                let blowup = p99.as_nanos() as f64 / split_p99.as_nanos().max(1) as f64;
                cell = cell.exact("p99_vs_split", round(blowup, 2), "x");
            } else {
                split_p99 = p99;
            }
            cells.push(cell);
        }
    }
    Ok(cells)
}
