//! E9 — engine throughput: wall-clock capacity of the simulator core.
//!
//! Every other experiment reports *virtual* time — what the simulated
//! machine would observe. E9 reports *host* time: how many discrete events
//! the engine retires per wall-clock second. That number bounds how much
//! simulated machine we can afford (sweep sizes, fleet sizes, fault-matrix
//! seeds) and is the metric the hot-path work in this crate is judged by.
//!
//! Three phases, one per rung of the queue → machine → rack ladder:
//!
//! - **queue** — the event queue (timing wheel) in isolation: a deep
//!   steady-state churn (pop one, schedule one) at a fixed pending-set
//!   depth.
//! - **system** — a saturating end-to-end workload: the §3 KVS on the
//!   CPU-less deployment (smart NIC + SSD + memory controller), many closed
//!   loops deep, run for a fixed slice of virtual time. Queue operations
//!   are only part of each event here; the rest is routing, DMA and device
//!   work.
//! - **rack** — sixteen such machines on a leaf-spine fabric (leaves of 4),
//!   R = 2, each with a shard router and one E10-shaped client, run for the
//!   same slice of virtual time. On top of the machine's work each event
//!   now pays for the fabric: windows, the barrier merge, link transit,
//!   directory sweeps and queries, and the router. Sixteen, because the
//!   directory plane costs O(machines²) per virtual millisecond against
//!   O(machines) events: at eight, re-encoding every reply adds 17% to
//!   allocs/event and would slip under the CI bound; at sixteen it adds 39%.
//!
//! `events` and `allocs_per_event` are deterministic; everything derived
//! from the host clock is a host metric. Profiling (`--profile`) is
//! excluded from the headline numbers' contract: run without it when
//! comparing against recorded baselines.

use std::time::Instant;

use lastcpu_core::SystemConfig;
use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
use lastcpu_kvs::build_rack_kvs;
use lastcpu_sim::{DetRng, EventQueue, SimDuration};

use super::{saturated_kvs, Experiment, Gates};
use crate::alloc::allocs_now;
use crate::cli::{Args, OBS};
use crate::flags;
use crate::obs::ObsArgs;
use crate::rack::{e10_load, RackBench};
use crate::report::{round, Cell, Report};

pub const EXP: Experiment = Experiment {
    name: "e9",
    title: "E9: engine throughput — wall-clock events/sec of the simulator core\n    \
            (queue churn; system: closed-loop KVS clients; rack: 16 machines leaf-spine:4 R=2)",
    flags: flags! {
        "--queue-depth" U64 "65536"   "pending events held by the queue phase"
        "--queue-ops"   U64 "4000000" "pop+schedule pairs in the queue phase"
        "--clients"     U64 "16"      "closed-loop clients in the system phase"
        "--outstanding" U64 "32"      "requests in flight per system-phase client"
        "--virtual-ms"  U64 "2000"    "measured virtual time of the system and rack phases"
        "--repeat"      U64 "3"       "runs per phase; the fastest is reported"
    },
    obs: OBS,
    smoke: &["--queue-ops 200000 --queue-depth 8192 --virtual-ms 100 --repeat 1"],
    run,
    check,
};

/// One measured phase.
#[derive(Clone, Copy)]
struct Sample {
    events: u64,
    wall_seconds: f64,
    allocs: u64,
}

/// Times `work`, which returns the events it retired.
fn measure(work: impl FnOnce() -> u64) -> Sample {
    let allocs0 = allocs_now();
    let t0 = Instant::now();
    let events = work();
    Sample {
        events,
        wall_seconds: t0.elapsed().as_secs_f64(),
        allocs: allocs_now() - allocs0,
    }
}

/// Steady-state churn of the bare event queue: keep `depth` events pending,
/// pop the earliest, schedule a replacement at a pseudo-random future
/// offset. The delay mix follows what the system actually schedules —
/// mostly near-future (bus hops, device service times), a tail of far
/// horizon timers — so both the wheel's slot array and its overflow heap
/// participate.
fn queue_phase(depth: u64, ops: u64) -> Sample {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = DetRng::new(0xE9);
    let next_delay = |rng: &mut DetRng| {
        // 75% short (bus/device latencies), 20% medium (timeouts),
        // 5% long (liveness/rebuild horizons).
        let d = match rng.below(20) {
            0 => 1 + rng.below(1 << 24),
            1..=4 => 1 + rng.below(1 << 18),
            _ => 1 + rng.below(1 << 12),
        };
        SimDuration::from_nanos(d)
    };
    for i in 0..depth {
        let d = next_delay(&mut rng);
        q.schedule_in(d, i);
    }
    let sample = measure(|| {
        let mut acc = 0u64;
        for i in 0..ops {
            let ev = q.pop().expect("queue kept at constant depth");
            acc = acc.wrapping_add(ev.event);
            let d = next_delay(&mut rng);
            q.schedule_in(d, i);
        }
        std::hint::black_box(acc);
        ops
    });
    assert_eq!(q.events_processed(), ops);
    sample
}

/// Saturating end-to-end workload: the CPU-less KVS deployment with enough
/// closed loops that the engine never idles, run for a fixed slice of
/// virtual time. Events/sec here is the whole simulator — queue, bus
/// routing, DMA, devices — per wall-clock second.
fn system_phase(clients: usize, outstanding: usize, vms: u64, obs: &ObsArgs) -> Sample {
    let mut sys_config = SystemConfig {
        trace: false,
        ..SystemConfig::default()
    };
    obs.apply(&mut sys_config);
    let mut setup = saturated_kvs(sys_config, clients, outstanding);
    let sample = measure(|| setup.system.run_for(SimDuration::from_millis(vms)));
    // Sweep convention: dump after every run, last one wins on disk.
    obs.dump(&setup.system);
    sample
}

/// The rack rung: 16 machines on leaf-spine:4, R = 2, one closed-loop E10
/// client per machine that never finishes, so the virtual-time slice bounds
/// the phase. Events are fabric events plus every machine's.
fn rack_phase(vms: u64) -> Sample {
    let fabric = FabricConfig {
        topology: TopologyConfig {
            kind: TopoKind::LeafSpine { leaf_size: 4 },
            oversub: 1,
        },
        ..FabricConfig::default()
    };
    let base = SystemConfig {
        seed: 0xE9,
        trace: false,
        ..SystemConfig::default()
    };
    let mut b = RackBench::build(build_rack_kvs(fabric, 16, 2, base), e10_load(u64::MAX / 2));
    // Warm up outside the measured window: power-on, rack discovery, preload.
    b.setup.fabric.power_on();
    b.setup.fabric.run_for(SimDuration::from_millis(200));
    measure(|| b.setup.fabric.run_for(SimDuration::from_millis(vms)))
}

fn run(args: &Args) -> Result<Vec<Cell>, String> {
    let obs = ObsArgs::from_args(args);
    let vms = args.u64("--virtual-ms");
    let (depth, ops) = (args.u64("--queue-depth"), args.u64("--queue-ops"));
    let (clients, outstanding) = (args.usize("--clients"), args.usize("--outstanding"));
    let phases: [(&str, &dyn Fn() -> Sample); 3] = [
        ("queue", &|| queue_phase(depth, ops)),
        ("system", &|| system_phase(clients, outstanding, vms, &obs)),
        ("rack", &|| rack_phase(vms)),
    ];
    // Best-of-N per phase: minimum wall time is the standard noise filter
    // for wall-clock benchmarks (the fastest run had the least interference).
    let mut best: Vec<Sample> = phases.iter().map(|(_, f)| f()).collect();
    for _ in 1..args.u64("--repeat") {
        for (b, (_, f)) in best.iter_mut().zip(&phases) {
            let s = f();
            if s.wall_seconds < b.wall_seconds {
                *b = s;
            }
        }
    }
    let cells = phases.iter().zip(&best).map(|((phase, _), s)| {
        let (events, wall) = (s.events as f64, s.wall_seconds);
        let allocs = round(s.allocs as f64 / events, 3);
        Cell::new("phase")
            .id("phase", *phase)
            .exact("events", s.events, "count")
            .lower("wall_seconds", round(wall, 6), "s", 0.05)
            .host()
            .higher("events_per_sec", round(events / wall, 1), "1/s", 0.05)
            .host()
            .lower("ns_per_event", round(wall * 1e9 / events, 1), "ns", 0.05)
            .host()
            .lower("allocs_per_event", allocs, "count", 0.02)
    });
    Ok(cells.collect())
}

fn check(r: &Report) -> Vec<String> {
    let mut g = Gates::default();
    // The pooled delivery path holds the machine at one allocation per
    // event. The rack measures 2.948 at the smoke sizes, exactly, on every
    // run; the bound is 25% above that — with a directory reply encoded
    // per query and decoded per router tick it measures 4.090.
    for (phase, max_allocs) in [("queue", f64::INFINITY), ("system", 1.0), ("rack", 3.69)] {
        let Some(c) = r.group("phase").find(|c| c.key_is("phase", phase)) else {
            g.require(false, format!("no {phase} phase"));
            continue;
        };
        g.require(c.num("events") > 0.0, format!("{phase}: no events retired"));
        let allocs = c.num("allocs_per_event");
        g.require(
            allocs <= max_allocs,
            format!("{phase}: allocs/event {allocs} > {max_allocs}"),
        );
    }
    g.0
}
