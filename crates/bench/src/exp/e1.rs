//! E1 — control-plane scaling: decentralized bus vs centralized kernel.
//!
//! N clients concurrently run the complete Figure-2 setup sequence
//! (discover → open → allocate → grant → queue doorbell), repeatedly. In
//! the CPU-less system the steps fan out across the bus, the SSD and the
//! memory controller; in the baseline every step serializes through the
//! kernel. The paper's claim (§1): "decentralized control breaks the
//! dependency on an expensive general-purpose CPU".

use lastcpu_baseline::{CpuDevice, IdleApp};
use lastcpu_core::{System, SystemConfig};
use lastcpu_sim::{Histogram, SimDuration};

use super::{file_ssd, Experiment};
use crate::cli::Args;
use crate::drivers::{ControlMode, SetupClient};
use crate::obs::ObsArgs;
use crate::report::{round, us, Cell};

pub const EXP: Experiment = Experiment {
    name: "e1",
    title: "E1: concurrent Figure-2 setups — decentralized vs centralized control plane\n    \
            (5 setups per client, closed loop)",
    run,
    ..Experiment::PLAIN
};

const FILE: &str = "/data/e1.db";
const ITERATIONS: u32 = 5;

/// Runs `n` concurrent setup clients; returns (mean, p99, setups/sec).
fn setups(n: u32, centralized: bool, obs: &ObsArgs) -> (SimDuration, SimDuration, f64) {
    let mut config = SystemConfig {
        trace: false,
        // 4 GiB so wide client counts never hit the allocator.
        dram_bytes: 4 << 30,
        ..SystemConfig::default()
    };
    obs.apply(&mut config);
    let mut sys = System::new(config);
    let (mode, memctl_id) = if centralized {
        let cpu = sys.add_device_with("cpu0", "cpu", |id, dram| {
            Box::new(CpuDevice::new("cpu0", id, dram, IdleApp))
        });
        (ControlMode::Centralized { cpu: cpu.id }, cpu.id)
    } else {
        (ControlMode::Decentralized, sys.add_memctl("memctl0").id)
    };
    sys.add_device(Box::new(file_ssd(FILE)));
    let clients: Vec<_> = (0..n)
        .map(|i| {
            let mut c = SetupClient::new(
                &format!("client{i}"),
                mode,
                &format!("file:{FILE}"),
                ITERATIONS,
            );
            c.memctl_hint_value = memctl_id;
            sys.add_device(Box::new(c))
        })
        .collect();
    sys.power_on();
    sys.run_for(SimDuration::from_secs(5));

    let mut h = Histogram::new();
    for &c in &clients {
        let cl: &SetupClient = sys.device_as(c).expect("client");
        assert!(
            !cl.failed,
            "setup failed under n={n} centralized={centralized}"
        );
        assert!(
            cl.is_done(),
            "clients did not finish (n={n}, centralized={centralized})"
        );
        for &l in &cl.latencies {
            h.record(l);
        }
    }
    // Closed-loop per-client rate × n: setups / (sum of latencies / n).
    let sum_ns = h.mean().as_nanos() as f64 * h.count() as f64;
    let tput = if sum_ns > 0.0 {
        h.count() as f64 / (sum_ns / n as f64 / 1e9)
    } else {
        0.0
    };
    obs.dump(&sys);
    (h.mean(), h.percentile(99.0), tput)
}

fn run(args: &Args) -> Result<Vec<Cell>, String> {
    let obs = ObsArgs::from_args(args);
    let mut cells = Vec::new();
    for n in [1u32, 2, 4, 8, 16, 32] {
        let mut decen_mean = SimDuration::ZERO;
        for (control, centralized) in [("decentralized", false), ("centralized", true)] {
            let (mean, p99, tput) = setups(n, centralized, &obs);
            let mut cell = Cell::new("setup")
                .id("clients", n)
                .id("control", control)
                .exact("mean_us", us(mean), "us")
                .exact("p99_us", us(p99), "us")
                .exact("setups_per_sec", round(tput, 0), "1/s");
            if centralized {
                let ratio = mean.as_nanos() as f64 / decen_mean.as_nanos().max(1) as f64;
                cell = cell.exact("mean_vs_decentralized", round(ratio, 2), "x");
            } else {
                decen_mean = mean;
            }
            cells.push(cell);
        }
    }
    Ok(cells)
}
