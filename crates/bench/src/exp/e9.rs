//! E9 — engine throughput: the events the simulator core retires per host
//! second, on the queue → machine → rack ladder plus a machine with its SSD
//! data path loaded and one where only the control plane works (phases
//! `queue`, `system`, `ssd`, `ctl`, `rack`), and what the trace ring costs
//! a record of that control-plane machine (phase `trace`, where an event is
//! a record). EXPERIMENTS.md E9 describes each phase; the comment above
//! `check` says what each allocation gate catches.
//!
//! `events`, `allocs_per_event` and `alloc_bytes_per_event` are
//! deterministic; everything derived from the host clock is a host metric.
//! Profiling (`--profile`) is excluded from the headline numbers' contract:
//! run without it when comparing against recorded baselines.

use std::time::Instant;

use lastcpu_core::devices::ssd::SmartSsd;
use lastcpu_core::{System, SystemConfig};
use lastcpu_fabric::{FabricConfig, TopoKind, TopologyConfig};
use lastcpu_kvs::build::{build_cpuless_kvs_on, default_nand};
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::{build_rack_kvs, ServerConfig};
use lastcpu_sim::{CorrId, DetRng, EventQueue, SimDuration, SimTime, TraceData, TraceSink};
use lastcpu_snap::{Restore, SnapReader, Snapshot};

use super::{file_ssd, saturated_kvs, Experiment, Gates};
use crate::alloc::watch;
use crate::cli::{Args, OBS};
use crate::drivers::{ControlMode, SetupClient};
use crate::flags;
use crate::obs::ObsArgs;
use crate::rack::{e10_load, RackBench};
use crate::report::{round, Cell, Report};

pub const EXP: Experiment = Experiment {
    name: "e9",
    title: "E9: engine throughput — wall-clock events/sec of the simulator core\n    \
            (queue churn; system: closed-loop KVS clients; ssd: the same through the\n    \
            SSD data path with GC running; ctl: 32 Figure-2 setup loops, tracing on;\n    \
            rack: 16 machines leaf-spine:4 R=2; trace: the ctl machine's records emitted\n    \
            again into a default-capacity sink, an event per record)",
    flags: flags! {
        "--queue-depth" U64 "65536"   "pending events held by the queue phase"
        "--queue-ops"   U64 "4000000" "pop+schedule pairs in the queue phase"
        "--clients"     U64 "16"      "closed-loop clients in the system phase"
        "--outstanding" U64 "32"      "requests in flight per system-phase client"
        "--virtual-ms"  U64 "2000"    "measured virtual time of the system, ssd and rack phases (ctl: 1/20)"
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
    alloc_bytes: u64,
    /// What only the ssd phase reports.
    ssd: Option<SsdCounts>,
    /// What only the trace phase reports: bytes a retained record takes in
    /// the ring.
    bytes_per_record: Option<f64>,
}

/// The ssd phase's flash, read around its window.
#[derive(Clone, Copy)]
struct SsdCounts {
    /// FTL garbage-collection passes inside the window.
    gc_runs: u64,
    /// Bytes the NAND chip holds for its programmed pages at window end.
    flash_stored_bytes: u64,
}

/// Times `work`, which returns the events it retired.
fn measure(work: impl FnOnce() -> u64) -> Sample {
    let t0 = Instant::now();
    let (events, seen) = watch(work);
    Sample {
        events,
        wall_seconds: t0.elapsed().as_secs_f64(),
        allocs: seen.allocs,
        alloc_bytes: seen.bytes,
        ssd: None,
        bytes_per_record: None,
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

/// The SSD rung: `kv_ssd_mix` in small. Four closed loops of 16 over 4,000
/// uniform keys, 80/20 GET/PUT of 256 B, so ≈ 87% of GETs miss the 512-entry
/// cache; every PUT rewrites the log's tail page, so the 4,000 preloaded keys
/// alone program twice the 2,048 pages of the 8 MiB chip and the FTL collects
/// garbage from then on.
fn ssd_phase(vms: u64) -> Sample {
    let nand = lastcpu_core::devices::flash::NandConfig {
        blocks: 32,
        ..default_nand()
    };
    let sys_config = SystemConfig {
        seed: 0xE9,
        trace: false,
        ..SystemConfig::default()
    };
    let server = ServerConfig {
        cache_entries: 512,
        ..ServerConfig::default()
    };
    let mut setup = build_cpuless_kvs_on(nand, sys_config, Default::default(), server);
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let workload = WorkloadConfig {
                keys: 4_000,
                theta: 0.0,
                read_fraction: 0.8,
                value_size: 256,
                outstanding: 16,
                total_ops: u64::MAX / 2, // never finishes: `vms` bounds the phase
                preload: i == 0,
                stats_prefix: format!("c{i}"),
            };
            let host = KvsClientHost::new(setup.kvs_port, workload);
            setup.system.add_host(Box::new(host))
        })
        .collect();
    let measuring = |sys: &lastcpu_core::System| {
        clients.iter().all(|&p| {
            let c = sys.host_as::<KvsClientHost>(p).expect("client port");
            c.started_at().is_some()
        })
    };
    let flash = |sys: &mut lastcpu_core::System| {
        let ftl = sys
            .device_as_mut::<SmartSsd>(setup.ssd)
            .expect("the SSD")
            .fs_mut()
            .ftl_mut();
        SsdCounts {
            gc_runs: ftl.stats().gc_runs,
            flash_stored_bytes: ftl.nand_mut().stored_bytes(),
        }
    };
    // Warm up outside the measured window: power-on, discovery, preload.
    setup.system.power_on();
    while !measuring(&setup.system) {
        setup.system.run_for(SimDuration::from_millis(10));
    }
    let gc0 = flash(&mut setup.system).gc_runs;
    let mut sample = measure(|| setup.system.run_for(SimDuration::from_millis(vms)));
    let end = flash(&mut setup.system);
    sample.ssd = Some(SsdCounts {
        gc_runs: end.gc_runs - gc0,
        ..end
    });
    sample
}

/// The control-plane machine: one SSD, the memory controller and 32 clients
/// looping the Figure-2 setup, which never finish; tracing on, as
/// `SystemConfig::default()` has it. Powered on and warmed up: registration
/// and each client's cold first setup.
fn ctl_machine() -> (System, Vec<lastcpu_core::DeviceHandle>) {
    const FILE: &str = "/data/ctl.db";
    let mut sys = System::new(SystemConfig {
        seed: 0xE9,
        ..SystemConfig::default()
    });
    let memctl = sys.add_memctl("memctl0");
    sys.add_device(Box::new(file_ssd(FILE)));
    let pattern = format!("file:{FILE}");
    let clients: Vec<_> = (0..32)
        .map(|i| {
            let mut c = SetupClient::new(
                &format!("client{i}"),
                ControlMode::Decentralized,
                &pattern,
                u32::MAX,
            );
            c.memctl_hint_value = memctl.id;
            sys.add_device(Box::new(c))
        })
        .collect();
    sys.power_on();
    sys.run_for(SimDuration::from_millis(1));
    (sys, clients)
}

/// The control-plane rung: `ctl_setup_churn` in small. 32 clients loop the
/// Figure-2 setup against one SSD and the memory controller and never
/// finish, so the virtual-time slice bounds the phase. Tracing stays on, as
/// `SystemConfig::default()` has it: the records are part of what a control
/// message costs. The machine retires ≈ 29,000 events per virtual
/// millisecond, a hundred times the system phase, so the slice is a
/// twentieth of `--virtual-ms`.
fn ctl_phase(vms: u64) -> Sample {
    let (mut sys, clients) = ctl_machine();
    let sample = measure(|| sys.run_for(SimDuration::from_micros(vms * 1000 / 20)));
    for &h in &clients {
        let c: &SetupClient = sys.device_as(h).expect("client handle");
        assert!(!c.failed && c.latencies.len() > 1, "a setup loop stalled");
    }
    sample
}

/// The trace rung: what the ring costs a record of the ctl phase's machine.
/// The machine runs the ctl slice; its ring is restored into a sink of the
/// default capacity, which therefore holds every name the records carry; and
/// its records, texts included, are emitted into that sink again, lap after
/// lap, each lap later by the span of the records. A lap that wraps the ring
/// comes first, so the measured laps, at least 2^20 records, are what a
/// machine's ring does in steady state.
fn trace_phase(vms: u64) -> Sample {
    let (mut sys, _) = ctl_machine();
    sys.run_for(SimDuration::from_micros(vms * 1000 / 20));
    let section = sys.trace().snapshot_bytes();
    let mut sink = TraceSink::default();
    sink.restore(&mut SnapReader::new("trace", &section))
        .expect("the ring restores");
    let views: Vec<_> = sink
        .events()
        .map(|e| {
            (
                e.at,
                e.source().to_owned(),
                e.corr,
                e.data,
                e.text().to_owned(),
            )
        })
        .collect();
    let records: Vec<(SimTime, _, CorrId, TraceData)> = views
        .iter()
        .map(|(at, source, corr, data, _)| (*at, sink.name(source), *corr, *data))
        .collect();
    // The texts of a lap, last first, made before it as an emitter makes
    // them.
    let texts = || -> Vec<String> {
        let own = views.iter().filter(|v| v.3.has_text());
        own.rev().map(|v| v.4.clone()).collect()
    };
    let span = records.last().map_or(0, |r| r.0.as_nanos()) + 1;
    let lap = |sink: &mut TraceSink, lap: u64, mut texts: Vec<String>| {
        for &(at, source, corr, data) in &records {
            let at = SimTime::from_nanos(at.as_nanos() + lap * span);
            if data.has_text() {
                let text = texts.pop().expect("a text per record that has one");
                sink.emit_text(at, source, corr, data, text);
            } else {
                sink.emit_data(at, source, corr, data);
            }
        }
    };
    // Laps until one leaves the number retained where it was: that lap
    // evicted a record for every record it packed.
    let mut laps = 0;
    loop {
        let retained = sink.len();
        laps += 1;
        lap(&mut sink, laps, texts());
        if sink.len() == retained {
            break;
        }
    }
    let measured: Vec<Vec<String>> = (0..(1usize << 20).div_ceil(records.len().max(1)))
        .map(|_| texts())
        .collect();
    let records_measured = (measured.len() * records.len()) as u64;
    let mut sample = measure(|| {
        for texts in measured {
            laps += 1;
            lap(&mut sink, laps, texts);
        }
        records_measured
    });
    sample.bytes_per_record = Some(sink.packed_bytes() as f64 / sink.len() as f64);
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
    let phases: [(&str, &dyn Fn() -> Sample); 6] = [
        ("queue", &|| queue_phase(depth, ops)),
        ("system", &|| system_phase(clients, outstanding, vms, &obs)),
        ("ssd", &|| ssd_phase(vms)),
        ("ctl", &|| ctl_phase(vms)),
        ("rack", &|| rack_phase(vms)),
        ("trace", &|| trace_phase(vms)),
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
        let alloc_bytes = round(s.alloc_bytes as f64 / events, 1);
        let mut cell = Cell::new("phase")
            .id("phase", *phase)
            .exact("events", s.events, "count");
        if let Some(ssd) = s.ssd {
            cell = cell.exact("ftl_gc_runs", ssd.gc_runs, "count").exact(
                "flash_stored_bytes",
                ssd.flash_stored_bytes,
                "B",
            );
        }
        if let Some(bytes) = s.bytes_per_record {
            cell = cell.lower("bytes_per_record", round(bytes, 2), "B", 0.02);
        }
        cell.lower("wall_seconds", round(wall, 6), "s", 0.05)
            .host()
            .higher("events_per_sec", round(events / wall, 1), "1/s", 0.05)
            .host()
            .lower("ns_per_event", round(wall * 1e9 / events, 1), "ns", 0.05)
            .host()
            .lower("allocs_per_event", allocs, "count", 0.02)
            .lower("alloc_bytes_per_event", alloc_bytes, "B", 0.05)
    });
    Ok(cells.collect())
}

fn check(r: &Report) -> Vec<String> {
    let mut g = Gates::default();
    // Each rung is bounded about 10% above what it measures at the full sizes
    // (at the smoke sizes, where that is higher). With a `Vec` per
    // event-wheel slot every rung reads higher, each slot growing its own:
    // system 0.039 (0.051), rack 0.229 (0.239), ssd 0.153 (0.142), ctl 0.171
    // (0.173).
    //
    // system: 0.032 allocations per event (0.035).
    //
    // rack: 0.228 allocations and 60.4 B per event (0.228 and 59.7) — the
    // frames the router sends, the directory query and reply of a tick, a
    // PUT's key and value on its servers. 0.606 (0.616) with every frame at
    // the router decoded into an owned response and then an owned request,
    // and a fresh sub-request list per request; 0.961 (0.971) with an owned
    // copy of each request in the NIC server, a descriptor list per virtqueue
    // submit and an `Arc` per doorbell; 2.733 with endpoint names as
    // `String`s and fresh replica lists per dispatch in the router; 4.090
    // with a directory reply encoded per query and decoded per router tick.
    //
    // ssd: 0.152 allocations and 20.8 B per event (0.141 and 17.9) — what a
    // PUT keeps: its value and the cache's copies of its key. 0.841 and
    // 55.3 B with the three per-request allocations above plus a log record
    // per PUT; 1.401 and 1,618 B with the file's extent list copied per
    // request.
    //
    // ctl: 0.170 allocations and 13.6 B per event (0.171 and 13.7). 0.183
    // and 14.4 B with the SSD's queue-attached note formatted per setup; 0.475
    // and 42.8 B with an `Arc<Envelope>` made per send and per bus reply;
    // 1.705 and 209 B with the envelope copied per broadcast recipient,
    // destinations formatted per trace record and a fresh effect list per
    // bus message.
    //
    // trace: no allocation per record once the ring has wrapped. A ring
    // that grows when it wraps, or a record that allocates as it is packed,
    // reads above 0.
    //
    // ssd, the chip at window end: 3,154,233 bytes stored (2,096,922), for
    // pages whose full copies would be 8,007,680 (8,011,776) — what it held
    // with every programmed page kept as a page.
    const MAX_FLASH_STORED_BYTES: f64 = 3_470_000.0;
    const INF: f64 = f64::INFINITY;
    for (phase, max_allocs, max_bytes) in [
        ("queue", INF, INF),
        ("system", 0.039, INF),
        ("ssd", 0.167, 22.9),
        ("ctl", 0.188, 15.1),
        ("rack", 0.251, 66.4),
        ("trace", 0.0, 0.0),
    ] {
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
        let bytes = c.num("alloc_bytes_per_event");
        g.require(
            bytes <= max_bytes,
            format!("{phase}: alloc bytes/event {bytes} > {max_bytes}"),
        );
        if phase == "ssd" {
            g.require(
                c.num("ftl_gc_runs") > 0.0,
                "ssd: no garbage collection inside the window".to_string(),
            );
            let stored = c.num("flash_stored_bytes");
            g.require(
                stored <= MAX_FLASH_STORED_BYTES,
                format!("ssd: flash stored bytes {stored} > {MAX_FLASH_STORED_BYTES}"),
            );
        }
    }
    g.0
}
