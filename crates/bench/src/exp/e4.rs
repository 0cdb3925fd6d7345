//! E4 — failure handling (§4 "Error Handling").
//!
//! 1. **Recoverable faults stay local** (`local_fault`). A device DMAs
//!    outside its mapping; the IOMMU delivers the fault to *that device*,
//!    which handles it inline. Nothing else in the system notices.
//! 2. **Whole-device failure fan-out and reset recovery**
//!    (`device_failure`). The SSD dies while N clients hold connections to
//!    it. The bus broadcasts `DeviceFailed`; we measure when the first and
//!    last survivor learns, confirm the memory controller reclaimed every
//!    region the dead device could reach, and time the reset until the SSD
//!    is alive (re-registered) again.
//! 3. **Owner death** (`owner_death`): the memory controller reclaims a
//!    dead client's regions and revokes what it shared.
//! 4. **The deterministic fault matrix** (`fault_matrix`): each {drop,
//!    corrupt, delay} wire fault is paired with each {crash, hang} device
//!    fault, every cell is run **twice** from the same `--fault-seed`, and
//!    the two runs must agree bit-for-bit (same trace, same clock). Faults
//!    are ordinary scheduled events, so a faulty run replays exactly.

use std::hash::{Hash, Hasher};

use lastcpu_bus::bus::DeviceState;
use lastcpu_bus::RetryConfig;
use lastcpu_core::{MemCtlDevice, System, SystemConfig};
use lastcpu_sim::{DetRng, FaultKind, FaultPlan, SimDuration, SimTime};

use super::{file_ssd, Experiment, Gates};
use crate::cli::Args;
use crate::drivers::{ControlMode, DmaProbe, SetupClient};
use crate::flags;
use crate::obs::ObsArgs;
use crate::report::{us, Cell, Report};
use crate::Json;

pub const EXP: Experiment = Experiment {
    name: "e4",
    title: "E4: failure handling on the CPU-less system (§4)",
    flags: flags! {
        "--fault-seed" U64 "0xE4" "seeds the fault matrix's injection times"
    },
    run,
    check,
    ..Experiment::PLAIN
};

const FILE: &str = "/data/e4.db";

/// Adds `n` clients that each complete one Figure-2 setup against the SSD:
/// a live connection plus a shared region apiece.
fn add_clients(
    sys: &mut System,
    n: u32,
    memctl: lastcpu_bus::DeviceId,
) -> Vec<lastcpu_core::DeviceHandle> {
    (0..n)
        .map(|i| {
            let pattern = format!("file:{FILE}");
            let mut c = SetupClient::new(
                &format!("client{i}"),
                ControlMode::Decentralized,
                &pattern,
                1,
            );
            c.memctl_hint_value = memctl;
            sys.add_device(Box::new(c))
        })
        .collect()
}

fn reclaimed(sys: &System, memctl: lastcpu_core::DeviceHandle) -> u64 {
    let mc: &MemCtlDevice = sys.device_as(memctl).expect("memctl");
    mc.controller().stats().reclaimed
}

fn local_fault(obs: &ObsArgs) -> Cell {
    let mut config = SystemConfig::default();
    obs.apply(&mut config);
    let mut sys = System::new(config);
    let memctl = sys.add_memctl("memctl0");
    let probe = sys.add_device(Box::new(DmaProbe::new("probe0", memctl.id)));
    let bystander = sys.add_device(Box::new(file_ssd(FILE)));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(20));
    let p: &DmaProbe = sys.device_as(probe).expect("probe");
    assert!(p.is_done(), "probe did not run");
    let bystander_alive = sys
        .bus()
        .device(bystander.id)
        .is_some_and(|d| d.state == DeviceState::Alive);
    Cell::new("local_fault")
        .exact("in_bounds_dma_ok", p.in_bounds_ok == Some(true), "")
        .exact(
            "out_of_bounds_dma_faulted",
            p.out_of_bounds_faulted == Some(true),
            "",
        )
        .exact(
            "fault_handled_at_device_us",
            p.fault_handling.map_or(Json::Null, |d| us(d).into()),
            "us",
        )
        .exact("bystander_ssd_alive", bystander_alive, "")
        .exact("iommu_faults", sys.stats().counter("iommu.faults"), "count")
}

fn device_failure(n: u32, obs: &ObsArgs) -> Cell {
    let mut config = SystemConfig::default();
    obs.apply(&mut config);
    let mut sys = System::new(config);
    let memctl = sys.add_memctl("memctl0");
    let ssd = sys.add_device(Box::new(file_ssd(FILE)));
    let clients = add_clients(&mut sys, n, memctl.id);
    sys.power_on();
    sys.run_for(SimDuration::from_millis(50));
    for &c in &clients {
        let cl: &SetupClient = sys.device_as(c).expect("client");
        assert!(cl.is_done(), "setup incomplete before failure injection");
    }

    // Kill the SSD (transient failure: the bus will reset it).
    let t_kill = sys.now();
    sys.kill_device(ssd, false);
    sys.run_for(SimDuration::from_millis(20));

    // Fan-out: DeviceFailed deliveries in the trace. Reset recovery: when
    // the SSD re-registered (HelloAck after the kill).
    let since_kill = |at: Option<SimTime>| at.map_or(Json::Null, |a| us(a.since(t_kill)).into());
    let after_kill = || sys.trace().events().filter(|e| e.at >= t_kill);
    let notified = || {
        after_kill()
            .filter(|e| e.what().contains("DeviceFailed"))
            .map(|e| e.at)
    };
    let alive_at = after_kill()
        .find(|e| e.at > t_kill && e.what().contains("-> ssd0: HelloAck"))
        .map(|e| e.at);
    let cell = Cell::new("device_failure")
        .id("consumers", n)
        .exact("first_notified_us", since_kill(notified().min()), "us")
        .exact("last_notified_us", since_kill(notified().max()), "us")
        .exact("regions_reclaimed", reclaimed(&sys, memctl), "count")
        .exact(
            "pages_revoked",
            sys.stats().counter("bus.pages_unmapped"),
            "count",
        )
        .exact("ssd_alive_again_us", since_kill(alive_at), "us");
    obs.dump(&sys);
    cell
}

fn owner_death(dead: u32) -> Cell {
    let mut sys = System::new(SystemConfig::default());
    let memctl = sys.add_memctl("memctl0");
    sys.add_device(Box::new(file_ssd(FILE)));
    let clients = add_clients(&mut sys, 4, memctl.id);
    sys.power_on();
    sys.run_for(SimDuration::from_millis(50));
    let before = sys.stats().counter("bus.pages_unmapped");
    for &c in clients.iter().take(dead as usize) {
        sys.kill_device(c, true);
    }
    sys.run_for(SimDuration::from_millis(20));
    Cell::new("owner_death")
        .id("dead_owners", dead)
        .exact("regions_reclaimed", reclaimed(&sys, memctl), "count")
        .exact(
            "pages_revoked",
            sys.stats().counter("bus.pages_unmapped") - before,
            "count",
        )
}

/// Builds the fault plan for one matrix cell. Injection times are jittered
/// from the seed so different seeds exercise different interleavings, while
/// one seed always produces the same plan.
fn cell_plan(seed: u64, cell: u64, wire: FaultKind, dev: FaultKind) -> FaultPlan {
    let mut rng = DetRng::new(seed).split(0xE4_0000 | cell);
    let mut plan = FaultPlan::new(seed);
    // Wire fault lands during the Figure-2 setup burst (the session setup
    // RPCs all fly within the first ~120 us), so the dropped/corrupted
    // requests must be retransmitted by the timeout/backoff layer.
    let wire_at = SimTime::from_nanos(5_000 + rng.below(110_000));
    plan.inject(wire_at, "ssd0", wire);
    // Device fault lands once the system is quiescent.
    let dev_at = SimTime::from_nanos(12_000_000 + rng.below(2_000_000));
    plan.inject(dev_at, "ssd0", dev);
    plan
}

/// Runs one matrix cell to completion: its metrics, and the fingerprint of
/// the full trace + final clock (the determinism witness).
fn matrix_cell(
    obs: &ObsArgs,
    seed: u64,
    cell: u64,
    (wire_name, wire): (&str, FaultKind),
    (dev_name, dev): (&str, FaultKind),
) -> (Cell, u64) {
    let plan = cell_plan(seed, cell, wire, dev);
    let dev_at = plan.events().last().expect("two injections").at;
    let mut config = SystemConfig {
        seed,
        trace: true, // the determinism witness hashes the trace
        liveness_interval: Some(SimDuration::from_millis(2)),
        fault_plan: Some(plan),
        rpc_retry: Some(RetryConfig::default()),
        ..SystemConfig::default()
    };
    obs.apply(&mut config);
    let mut sys = System::new(config);
    let memctl = sys.add_memctl("memctl0");
    sys.add_device(Box::new(file_ssd(FILE)));
    add_clients(&mut sys, 1, memctl.id);
    sys.power_on();
    sys.run_for(SimDuration::from_millis(60));

    let mut h = std::collections::hash_map::DefaultHasher::new();
    sys.now().as_nanos().hash(&mut h);
    for e in sys.trace().events() {
        e.at.as_nanos().hash(&mut h);
        e.what().hash(&mut h);
    }
    let stats = sys.stats();
    let wire_hits = stats.counter("fault.msgs_dropped")
        + stats.counter("fault.msgs_corrupted")
        + stats.counter("fault.msgs_delayed");
    let rec = stats
        .histogram("bus.ssd0.recovery_latency")
        .filter(|r| r.count() > 0);
    // The SSD completed the Figure-2 re-init: HelloAck after the fault.
    let reinit = sys
        .trace()
        .events()
        .any(|e| e.at > dev_at && e.what().contains("-> ssd0: HelloAck"));
    let out = Cell::new("fault_matrix")
        .id("wire", wire_name)
        .id("device", dev_name)
        .exact("wire_hits", wire_hits, "count")
        .exact("rpc_retries", stats.counter("bus.rpc_retries"), "count")
        .exact("give_ups", stats.counter("bus.rpc_give_ups"), "count")
        .exact("recoveries", rec.as_ref().map_or(0, |r| r.count()), "count")
        .exact(
            "mean_recovery_us",
            rec.map_or(Json::Null, |r| us(r.mean()).into()),
            "us",
        )
        .exact("figure2_reinit", reinit, "");
    obs.dump(&sys);
    (out, h.finish())
}

fn run(args: &Args) -> Result<Vec<Cell>, String> {
    let obs = ObsArgs::from_args(args);
    let seed = args.u64("--fault-seed");
    let mut cells = vec![local_fault(&obs)];
    cells.extend([1u32, 4, 16].map(|n| device_failure(n, &obs)));
    cells.extend([1u32, 4].map(owner_death));
    // The matrix exercises the trace-rich injected-fault path; it dumps last
    // so the artifacts on disk (incl. bus.*.recovery_latency histograms and
    // bus.*.retries counters) describe the final matrix cell.
    let wire_faults = [
        ("drop", FaultKind::Drop { count: 3 }),
        ("corrupt", FaultKind::Corrupt { count: 3 }),
        (
            "delay",
            FaultKind::Delay {
                count: 3,
                extra_ns: 300_000,
            },
        ),
    ];
    let dev_faults = [("crash", FaultKind::Crash), ("hang", FaultKind::Hang)];
    let mut n = 0u64;
    for wire in wire_faults {
        for dev in dev_faults {
            let (a, fp_a) = matrix_cell(&obs, seed, n, wire, dev);
            let (b, fp_b) = matrix_cell(&obs, seed, n, wire, dev);
            let identical = fp_a == fp_b && a == b;
            cells.push(a.exact("replays_bit_identical", identical, ""));
            n += 1;
        }
    }
    Ok(cells)
}

fn check(r: &Report) -> Vec<String> {
    let mut g = Gates::default();
    let cells = r.group("fault_matrix").count();
    g.require(
        cells == 6,
        format!("fault matrix: {cells} cells, expected 3 wire x 2 device"),
    );
    for c in r.group("fault_matrix") {
        let at = c.label();
        g.require(
            c.is("replays_bit_identical", true),
            format!("{at}: diverged across identical seeded runs"),
        );
        g.require(
            c.is("figure2_reinit", true),
            format!("{at}: ssd0 never completed the Figure-2 re-init"),
        );
    }
    g.0
}
