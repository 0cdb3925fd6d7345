//! Ablations over the design choices DESIGN.md calls out. Every number is
//! produced by running the code it describes.
//!
//! A1 — SSDP discovery answer window: the fixed cost every setup pays
//!      (§2.2) against the risk of missing slow answerers.
//! A2 — IOTLB capacity: the knob behind the E5 cliff.
//! A3 — SSD scheduling quantum: fairness vs throughput for the §2.1
//!      isolation mechanism.

use lastcpu_core::devices::ssd::SmartSsd;
use lastcpu_core::{System, SystemConfig};
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_sim::SimDuration;

use super::e5::iotlb_sweep;
use super::{file_ssd, Experiment};
use crate::cli::Args;
use crate::drivers::{ControlMode, SetupClient};
use crate::obs::ObsArgs;
use crate::report::{round, us, Cell};
use crate::twotenant::{build_two_tenant, run_until_done};

pub const EXP: Experiment = Experiment {
    name: "ablations",
    title: "Ablations over lastcpu design choices\n    \
            (A1: a steady-state Figure-2 setup per discovery window; A2: 1 MiB working set;\n     \
            A3: two tenants, antagonist floods 1KiB writes, 8 outstanding)",
    run,
    ..Experiment::PLAIN
};

const A1_FILE: &str = "/data/a1.db";

/// Live Figure-2 setups with the client's discovery window at `window`. The
/// first setup races the SSD's boot announcement (its first discovery finds
/// nothing and is retried), so the second — the steady state F2 replays —
/// is the one reported.
fn a1_discovery_window(window: SimDuration) -> Cell {
    let mut sys = System::new(SystemConfig::default());
    let memctl = sys.add_memctl("memctl0");
    sys.add_device(Box::new(file_ssd(A1_FILE)));
    let pattern = format!("file:{A1_FILE}");
    let mut client = SetupClient::new("client0", ControlMode::Decentralized, &pattern, 2)
        .with_discovery_window(window);
    client.memctl_hint_value = memctl.id;
    let client = sys.add_device(Box::new(client));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(20));
    let c: &SetupClient = sys.device_as(client).expect("client");
    assert!(
        c.is_done() && !c.failed,
        "setup incomplete at a {window} window"
    );
    // Answers that reached the client before its last window closed.
    let events: Vec<_> = sys.trace().events().collect();
    let asked = events
        .iter()
        .rfind(|e| e.what().contains("sends Query(file:"))
        .expect("the discovery query is traced")
        .at;
    let answers = events
        .iter()
        .filter(|e| e.what().contains("-> client0: QueryHit"))
        .filter(|e| e.at >= asked && e.at <= asked + window)
        .count();
    Cell::new("a1_discovery_window")
        .id("window_us", us(window))
        .exact("setup_latency_us", us(c.latencies[1]), "us")
        .exact("answers_in_window", answers, "count")
}

fn a2_iotlb_capacity(entries: usize) -> Cell {
    let (hit_rate, mean_ns, _) = iotlb_sweep(entries, 256, 11, 100_000);
    Cell::new("a2_iotlb_capacity")
        .id("iotlb_entries", entries)
        .exact("hit_rate", round(hit_rate, 3), "frac")
        .exact("mean_translate_ns", mean_ns, "ns")
}

fn a3_quantum(quantum: u32, obs: &ObsArgs) -> Cell {
    let mut config = SystemConfig {
        trace: false,
        ..SystemConfig::default()
    };
    obs.apply(&mut config);
    let mut setup = build_two_tenant(config, true);
    // Patch the quantum on the assembled SSD.
    let ssd: &mut SmartSsd = setup.system.device_as_mut(setup.ssd).expect("ssd");
    ssd.set_quantum(quantum);
    let victim = WorkloadConfig {
        keys: 100,
        read_fraction: 0.9,
        outstanding: 2,
        total_ops: 600,
        stats_prefix: "victim".into(),
        ..WorkloadConfig::default()
    };
    let antagonist = WorkloadConfig {
        keys: 200,
        read_fraction: 0.0,
        value_size: 1024,
        outstanding: 8,
        total_ops: 1_000_000,
        preload: false,
        stats_prefix: "antagonist".into(),
        ..WorkloadConfig::default()
    };
    let vp = setup
        .system
        .add_host(Box::new(KvsClientHost::new(setup.victim_port, victim)));
    let ap = setup.system.add_host(Box::new(KvsClientHost::new(
        setup.antagonist_port,
        antagonist,
    )));
    setup.system.power_on();
    let v = run_until_done(&mut setup.system, vp, &format!("quantum {quantum}"));
    let (victim_rate, window) = (v.throughput().expect("done"), v.elapsed().expect("done"));
    let a: &KvsClientHost = setup.system.host_as(ap).expect("antagonist");
    // Antagonist rate over the victim's measured window.
    let antagonist_rate = a.ops_done() as f64 / (window.as_nanos() as f64 / 1e9);
    let hist = setup.system.stats().histogram("victim.latency");
    let cell = Cell::new("a3_quantum")
        .id("quantum", quantum)
        .exact(
            "victim_p99_us",
            us(hist.expect("latencies").percentile(99.0)),
            "us",
        )
        .exact("victim_ops_per_sec", round(victim_rate, 0), "1/s")
        .exact("antagonist_ops_per_sec", round(antagonist_rate, 0), "1/s");
    obs.dump(&setup.system);
    cell
}

fn run(args: &Args) -> Result<Vec<Cell>, String> {
    // A3 is the only ablation that honours the observability flags; its
    // last configuration provides the --trace-out/--metrics-out artifacts.
    let obs = ObsArgs::from_args(args);
    let mut cells: Vec<Cell> = [5, 20, 50, 200]
        .map(|w| a1_discovery_window(SimDuration::from_micros(w)))
        .into();
    cells.extend([16, 64, 256, 1024].map(a2_iotlb_capacity));
    cells.extend([1, 4, 16, 64].map(|q| a3_quantum(q, &obs)));
    Ok(cells)
}
