//! E3 — performance isolation between tenant contexts on a shared device.
//!
//! A victim tenant runs a light read-mostly workload; an antagonist floods
//! the same smart SSD (its own file, its own connection) with writes. §2.1
//! demands devices "provide isolation between the instances"; §1 claims
//! decentralized control "can improve performance isolation". The SSD's
//! round-robin context scheduler (quantum 4) is the isolation mechanism;
//! with it off the antagonist's connection is drained to exhaustion first.

use lastcpu_core::SystemConfig;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};

use super::Experiment;
use crate::cli::Args;
use crate::obs::ObsArgs;
use crate::report::{round, us, Cell};
use crate::twotenant::{build_two_tenant, run_until_done};

pub const EXP: Experiment = Experiment {
    name: "e3",
    title: "E3: victim tail latency vs antagonist intensity on a shared smart SSD\n    \
            (victim: 90% reads, 2 outstanding; antagonist: 1KiB writes)",
    run,
    ..Experiment::PLAIN
};

fn victim_workload() -> WorkloadConfig {
    WorkloadConfig {
        keys: 100,
        theta: 0.9,
        read_fraction: 0.9,
        value_size: 128,
        outstanding: 2,
        total_ops: 800,
        preload: true,
        stats_prefix: "victim".into(),
    }
}

fn antagonist_workload(outstanding: usize) -> WorkloadConfig {
    WorkloadConfig {
        keys: 200,
        theta: 0.5,
        read_fraction: 0.0, // pure writes: the heaviest flash load
        value_size: 1024,
        outstanding,
        total_ops: 1_000_000, // effectively unbounded
        preload: false,
        stats_prefix: "antagonist".into(),
    }
}

fn victim_cell(isolation: bool, depth: usize, obs: &ObsArgs) -> Cell {
    let mut config = SystemConfig {
        trace: false,
        ..SystemConfig::default()
    };
    obs.apply(&mut config);
    let mut setup = build_two_tenant(config, isolation);
    let victim = KvsClientHost::new(setup.victim_port, victim_workload());
    let vp = setup.system.add_host(Box::new(victim));
    if depth > 0 {
        let antagonist = KvsClientHost::new(setup.antagonist_port, antagonist_workload(depth));
        setup.system.add_host(Box::new(antagonist));
    }
    setup.system.power_on();
    let what = format!("isolation={isolation}, antagonist={depth}");
    let tput = run_until_done(&mut setup.system, vp, &what)
        .throughput()
        .expect("done");
    let h = setup
        .system
        .stats()
        .histogram("victim.latency")
        .expect("victim latencies");
    obs.dump(&setup.system);
    Cell::new("victim")
        .id("antagonist_depth", depth)
        .id("isolation", if isolation { "on" } else { "off" })
        .exact("p50_us", us(h.percentile(50.0)), "us")
        .exact("p99_us", us(h.percentile(99.0)), "us")
        .exact("ops_per_sec", round(tput, 0), "1/s")
}

fn run(args: &Args) -> Result<Vec<Cell>, String> {
    let obs = ObsArgs::from_args(args);
    let mut cells = Vec::new();
    for depth in [0usize, 2, 8, 32] {
        for isolation in [true, false] {
            cells.push(victim_cell(isolation, depth, &obs));
        }
    }
    Ok(cells)
}
