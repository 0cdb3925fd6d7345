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
//! Writes `BENCH_e9.json` (override with `--out`); schema in
//! `EXPERIMENTS.md`. The JSON carries events/sec, ns/event and
//! allocations/event per phase.
//!
//! With `--profile` the run also prints a per-scope allocation attribution
//! table (which `subsystem.site` the allocations/event figure comes from);
//! `--profile-out <path>` dumps the full profile snapshot as JSON. Profiling
//! is excluded from the headline numbers' contract: run without `--profile`
//! when comparing against recorded baselines.

use std::time::Instant;

use lastcpu_bench::alloc::{allocs_now, CountingAlloc};
use lastcpu_bench::{ObsArgs, Table};
use lastcpu_core::SystemConfig;
use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::server::ServerConfig;
use lastcpu_kvs::{build_cpuless_kvs, build_rack_kvs};
use lastcpu_sim::{export, profile, DetRng, EventQueue, SimDuration};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One measured phase.
#[derive(Clone, Copy)]
struct Sample {
    events: u64,
    wall_seconds: f64,
    allocs: u64,
}

impl Sample {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds
    }

    fn ns_per_event(&self) -> f64 {
        self.wall_seconds * 1e9 / self.events as f64
    }

    fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.events as f64
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"events\": {}, \"wall_seconds\": {:.6}, ",
                "\"events_per_sec\": {:.1}, \"ns_per_event\": {:.1}, ",
                "\"allocs_per_event\": {:.3}}}"
            ),
            self.events,
            self.wall_seconds,
            self.events_per_sec(),
            self.ns_per_event(),
            self.allocs_per_event()
        )
    }
}

struct Args {
    out: String,
    queue_depth: usize,
    queue_ops: u64,
    clients: usize,
    outstanding: usize,
    virtual_ms: u64,
    repeat: usize,
}

impl Args {
    fn parse() -> Args {
        let mut a = Args {
            out: "BENCH_e9.json".into(),
            queue_depth: 65_536,
            queue_ops: 4_000_000,
            clients: 16,
            outstanding: 32,
            virtual_ms: 2_000,
            repeat: 3,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = || it.next().unwrap_or_default();
            match flag.as_str() {
                "--out" => a.out = val(),
                "--queue-depth" => a.queue_depth = val().parse().expect("--queue-depth"),
                "--queue-ops" => a.queue_ops = val().parse().expect("--queue-ops"),
                "--clients" => a.clients = val().parse().expect("--clients"),
                "--outstanding" => a.outstanding = val().parse().expect("--outstanding"),
                "--virtual-ms" => a.virtual_ms = val().parse().expect("--virtual-ms"),
                "--repeat" => a.repeat = val().parse::<usize>().expect("--repeat").max(1),
                // Parsed by `ObsArgs` from the same argv.
                "--profile" => {}
                "--trace-out" | "--metrics-out" | "--profile-out" => {
                    val();
                }
                other => lastcpu_bench::unknown_flag(other),
            }
        }
        a
    }
}

/// Steady-state churn of the bare event queue: keep `depth` events pending,
/// pop the earliest, schedule a replacement at a pseudo-random future
/// offset. The delay mix follows what the system actually schedules —
/// mostly near-future (bus hops, device service times), a tail of far
/// horizon timers — so both the wheel's slot array and its overflow heap
/// participate.
fn run_queue_phase(depth: usize, ops: u64) -> Sample {
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
    for i in 0..depth as u64 {
        let d = next_delay(&mut rng);
        q.schedule_in(d, i);
    }
    let allocs0 = allocs_now();
    let t0 = Instant::now();
    let mut acc = 0u64;
    for i in 0..ops {
        let ev = q.pop().expect("queue kept at constant depth");
        acc = acc.wrapping_add(ev.event);
        let d = next_delay(&mut rng);
        q.schedule_in(d, i);
    }
    let wall = t0.elapsed().as_secs_f64();
    let allocs = allocs_now() - allocs0;
    std::hint::black_box(acc);
    assert_eq!(q.events_processed(), ops);
    Sample {
        events: ops,
        wall_seconds: wall,
        allocs,
    }
}

/// Saturating end-to-end workload: the CPU-less KVS deployment with enough
/// closed loops that the engine never idles, run for a fixed slice of
/// virtual time. Events/sec here is the whole simulator — queue, bus
/// routing, DMA, devices — per wall-clock second.
fn run_system_phase(clients: usize, outstanding: usize, vms: u64, obs: &ObsArgs) -> Sample {
    let mut sys_config = SystemConfig {
        trace: false,
        ..SystemConfig::default()
    };
    obs.apply(&mut sys_config);
    let server = ServerConfig {
        cache_entries: 512,
        ..ServerConfig::default()
    };
    let mut setup = build_cpuless_kvs(sys_config, Default::default(), server);
    for i in 0..clients {
        let workload = WorkloadConfig {
            keys: 400,
            theta: 0.99,
            read_fraction: 0.95,
            value_size: 128,
            outstanding,
            total_ops: u64::MAX / 2, // never finishes: run_for bounds the phase
            preload: i == 0,         // one loader is enough; rest start hot
            stats_prefix: "wl".into(),
            ..WorkloadConfig::default()
        };
        setup
            .system
            .add_host(Box::new(KvsClientHost::new(setup.kvs_port, workload)));
    }
    // Warm up outside the measured window: power-on, discovery, preload.
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_millis(200));
    let allocs0 = allocs_now();
    let t0 = Instant::now();
    let events = setup.system.run_for(SimDuration::from_millis(vms));
    let wall = t0.elapsed().as_secs_f64();
    let allocs = allocs_now() - allocs0;
    assert!(events > 0, "system made no progress");
    // Sweep convention: dump after every run, last one wins on disk.
    obs.dump(&setup.system);
    Sample {
        events,
        wall_seconds: wall,
        allocs,
    }
}

/// The rack rung: 16 machines on leaf-spine:4, R = 2, one closed-loop client
/// per machine in the E10 shape (200 keys, Zipf 0.99, 95% GET, 128-byte
/// values, 8 outstanding) that never finishes, so the virtual-time slice
/// bounds the phase. Events are fabric events plus every machine's.
fn run_rack_phase(vms: u64) -> Sample {
    const MACHINES: usize = 16;
    let mut setup = build_rack_kvs(
        FabricConfig {
            topology: TopologyConfig {
                kind: TopoKind::LeafSpine { leaf_size: 4 },
                oversub: 1,
            },
            ..FabricConfig::default()
        },
        MACHINES,
        2,
        SystemConfig {
            seed: 0xE9,
            trace: false,
            ..SystemConfig::default()
        },
    );
    for i in 0..MACHINES {
        let workload = WorkloadConfig {
            keys: 200,
            theta: 0.99,
            read_fraction: 0.95,
            value_size: 128,
            outstanding: 8,
            total_ops: u64::MAX / 2,
            preload: true,
            stats_prefix: format!("c{i}"),
            ..WorkloadConfig::default()
        };
        setup
            .fabric
            .machine_mut(setup.machines[i])
            .add_host(Box::new(KvsClientHost::new(
                setup.router_ports[i],
                workload,
            )));
    }
    // Warm up outside the measured window: power-on, rack discovery, preload.
    setup.fabric.power_on();
    setup.fabric.run_for(SimDuration::from_millis(200));
    let allocs0 = allocs_now();
    let t0 = Instant::now();
    let events = setup.fabric.run_for(SimDuration::from_millis(vms));
    let wall = t0.elapsed().as_secs_f64();
    let allocs = allocs_now() - allocs0;
    assert!(events > 0, "rack made no progress");
    Sample {
        events,
        wall_seconds: wall,
        allocs,
    }
}

fn main() {
    let args = Args::parse();
    let obs = ObsArgs::from_env();
    obs.begin();
    println!("E9: engine throughput — wall-clock events/sec of the simulator core");
    println!(
        "    (queue churn depth {}, {} ops; system: {} clients x {} outstanding, {} ms virtual; \
         rack: 16 machines leaf-spine:4 R=2, {} ms virtual)",
        args.queue_depth,
        args.queue_ops,
        args.clients,
        args.outstanding,
        args.virtual_ms,
        args.virtual_ms
    );
    println!();
    let mut t = Table::new(&["phase", "events", "events/s", "ns/event", "allocs/event"]);
    // Best-of-N per phase: minimum wall time is the standard noise filter
    // for wall-clock benchmarks (the fastest run had the least interference).
    let best = |a: Sample, b: Sample| {
        if b.wall_seconds < a.wall_seconds {
            b
        } else {
            a
        }
    };
    let run_queue = || run_queue_phase(args.queue_depth, args.queue_ops);
    let run_system = || run_system_phase(args.clients, args.outstanding, args.virtual_ms, &obs);
    let run_rack = || run_rack_phase(args.virtual_ms);
    let mut queue = run_queue();
    let mut system = run_system();
    let mut rack = run_rack();
    // Every run counts toward the profiler's attribution denominator, kept
    // or not — the profiler accumulates across the whole process.
    let mut total_events = queue.events + system.events + rack.events;
    for _ in 1..args.repeat {
        let (q, s, r) = (run_queue(), run_system(), run_rack());
        total_events += q.events + s.events + r.events;
        queue = best(queue, q);
        system = best(system, s);
        rack = best(rack, r);
    }
    for (phase, s) in [("queue", &queue), ("system", &system), ("rack", &rack)] {
        t.row_strings(vec![
            phase.into(),
            s.events.to_string(),
            format!("{:.0}", s.events_per_sec()),
            format!("{:.1}", s.ns_per_event()),
            format!("{:.3}", s.allocs_per_event()),
        ]);
    }
    t.print();

    if obs.profile {
        let snap = profile::snapshot();
        println!();
        println!("allocation attribution ({total_events} events across all runs):");
        let mut pt = Table::new(&["scope", "allocs", "bytes", "allocs/event", "share"]);
        let denom = total_events.max(1) as f64;
        let total_allocs = snap.total_allocs().max(1) as f64;
        let mut scopes: Vec<_> = snap.scopes.iter().filter(|s| s.allocs > 0).collect();
        scopes.sort_by(|a, b| b.allocs.cmp(&a.allocs).then(a.name.cmp(b.name)));
        for s in scopes {
            pt.row_strings(vec![
                s.name.into(),
                s.allocs.to_string(),
                s.alloc_bytes.to_string(),
                format!("{:.3}", s.allocs as f64 / denom),
                format!("{:.1}%", 100.0 * s.allocs as f64 / total_allocs),
            ]);
        }
        pt.row_strings(vec![
            "(unattributed)".into(),
            snap.unattributed_allocs.to_string(),
            snap.unattributed_bytes.to_string(),
            format!("{:.3}", snap.unattributed_allocs as f64 / denom),
            format!(
                "{:.1}%",
                100.0 * snap.unattributed_allocs as f64 / total_allocs
            ),
        ]);
        pt.print();
        println!(
            "attributed: {:.1}% of {} allocations",
            100.0 * snap.attributed_alloc_fraction(),
            snap.total_allocs()
        );
        if let Some(path) = &obs.profile_out {
            let body = export::profile_json(&snap, true);
            match std::fs::write(path, &body) {
                Ok(()) => println!("wrote profile to {path}"),
                Err(e) => eprintln!("failed to write profile to {path}: {e}"),
            }
        }
    }

    let body = format!(
        concat!(
            "{{\n  \"experiment\": \"e9\",\n  \"schema_version\": 4,\n",
            "  \"config\": {{\"queue_depth\": {}, \"queue_ops\": {}, \"clients\": {}, ",
            "\"outstanding\": {}, \"virtual_ms\": {}, \"repeat\": {}}},\n",
            "  \"queue\": {},\n  \"system\": {},\n  \"rack\": {}\n}}\n"
        ),
        args.queue_depth,
        args.queue_ops,
        args.clients,
        args.outstanding,
        args.virtual_ms,
        args.repeat,
        queue.json(),
        system.json(),
        rack.json()
    );
    match std::fs::write(&args.out, &body) {
        Ok(()) => println!("\nwrote {}", args.out),
        Err(e) => eprintln!("\nfailed to write {}: {e}", args.out),
    }
    println!();
    println!("expected shape: the bare queue retires an event in tens of ns; a");
    println!("system event costs several times that because it also pays for");
    println!("routing, DMA and device work; a rack event adds the fabric's windows,");
    println!("barrier, links and directory on top.");
}
