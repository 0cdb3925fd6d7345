//! E12 — performance attribution: where do the allocations, the wall-clock
//! nanoseconds, and the tail-latency nanoseconds actually go?
//!
//! E9 reports *how fast* the simulator core is and E10 reports *how slow*
//! the rack's p99 is; neither says *why*. E12 closes that gap with the
//! three instruments this crate's profiling layer provides:
//!
//! - **Attribution** — the E9 system phase re-run under the scoped
//!   profiler: every allocation and every profiled span is charged to a
//!   `subsystem.site` scope (engine dispatch, KVS engine, IOMMU, bus
//!   codec, fabric). The gate: ≥ 95% of the measured window's allocations
//!   — and, in wall mode, ≥ 95% of its wall time — land in named scopes.
//! - **Overhead** (wall mode only) — the same workload with the profiler
//!   off vs. on, priced in events/sec. The disabled configuration is the
//!   one E9's headline numbers use; its cost must be a compiled-out no-op.
//! - **Critical path** — the E10 rack cell (default 8 machines, R = 3)
//!   with stage + link-hop tracing on; the offline analyzer decomposes
//!   every completed op into nine named segments that sum exactly to its
//!   end-to-end latency, and names the dominant segment at p99.
//!
//! Writes `BENCH_e12.json` (override with `--out`); schema in
//! `EXPERIMENTS.md`. With `--no-wall` every host-clock-derived field is
//! omitted and the overhead phase is skipped: the remaining output is pure
//! virtual time and allocation counts, so two same-seed runs are
//! **byte-identical** (`scripts/ci.sh` double-runs and diffs).
//!
//! Exits non-zero when an acceptance gate fails (attribution below 95%,
//! or critical-path segment sums off by more than 5%).

use std::time::Instant;

use lastcpu_bench::alloc::CountingAlloc;
use lastcpu_bench::Table;
use lastcpu_core::SystemConfig;
use lastcpu_fabric::FabricConfig;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::server::ServerConfig;
use lastcpu_kvs::{build_cpuless_kvs, build_rack_kvs};
use lastcpu_net::PortId;
use lastcpu_sim::critpath::{self, CritPathReport, SEGMENTS};
use lastcpu_sim::{profile, Histogram, SimDuration};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    out: String,
    seed: u64,
    clients: usize,
    outstanding: usize,
    virtual_ms: u64,
    machines: usize,
    replication: usize,
    rack_ops: u64,
    no_wall: bool,
}

impl Args {
    fn parse() -> Args {
        let mut a = Args {
            out: "BENCH_e12.json".into(),
            seed: 0xE12,
            clients: 16,
            outstanding: 32,
            virtual_ms: 500,
            machines: 8,
            replication: 3,
            rack_ops: 400,
            no_wall: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = || it.next().unwrap_or_default();
            match flag.as_str() {
                "--out" => a.out = val(),
                "--seed" => a.seed = val().parse().expect("--seed"),
                "--clients" => a.clients = val().parse().expect("--clients"),
                "--outstanding" => a.outstanding = val().parse().expect("--outstanding"),
                "--virtual-ms" => a.virtual_ms = val().parse().expect("--virtual-ms"),
                "--machines" => a.machines = val().parse().expect("--machines"),
                "--replication" => a.replication = val().parse().expect("--replication"),
                "--rack-ops" => a.rack_ops = val().parse().expect("--rack-ops"),
                "--no-wall" => a.no_wall = true,
                other => lastcpu_bench::unknown_flag(other),
            }
        }
        a
    }
}

/// One E9-style system-phase run: the CPU-less KVS deployment saturated by
/// closed-loop clients. Returns (events retired, wall seconds) for the
/// measured window; the profiler — if armed by the caller *after* warm-up —
/// sees exactly that window.
fn system_phase(args: &Args, profiled: bool) -> (u64, f64) {
    let sys_config = SystemConfig {
        seed: args.seed,
        trace: false,
        ..SystemConfig::default()
    };
    let server = ServerConfig {
        cache_entries: 512,
        ..ServerConfig::default()
    };
    let mut setup = build_cpuless_kvs(sys_config, Default::default(), server);
    for i in 0..args.clients {
        let workload = WorkloadConfig {
            keys: 400,
            theta: 0.99,
            read_fraction: 0.95,
            value_size: 128,
            outstanding: args.outstanding,
            total_ops: u64::MAX / 2, // never finishes: run_for bounds the phase
            preload: i == 0,
            stats_prefix: "wl".into(),
            ..WorkloadConfig::default()
        };
        setup
            .system
            .add_host(Box::new(KvsClientHost::new(setup.kvs_port, workload)));
    }
    // Warm up outside the profiled window: power-on, discovery, preload.
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_millis(200));
    if profiled {
        profile::reset();
        profile::set_enabled(true);
    }
    let t0 = Instant::now();
    let events = setup
        .system
        .run_for(SimDuration::from_millis(args.virtual_ms));
    let wall = t0.elapsed().as_secs_f64();
    if profiled {
        profile::set_enabled(false);
    }
    assert!(events > 0, "system made no progress");
    (events, wall)
}

/// Host ns one top-level span costs *outside* its own measured interval:
/// the halves of its two clock reads that straddle the interval, plus the
/// scope-table bookkeeping on entry and exit. No span can record this, so
/// it is measured: a run of empty back-to-back top-level spans takes this
/// much longer than the time the spans themselves report.
fn span_edge_ns() -> f64 {
    const N: u64 = 200_000;
    profile::reset();
    profile::set_enabled(true);
    let t0 = Instant::now();
    for _ in 0..N {
        let _s = profile::span("e12.span_edge");
    }
    let wall = t0.elapsed().as_nanos() as f64;
    profile::set_enabled(false);
    let inside = profile::snapshot().wall_root_total_ns() as f64;
    profile::reset();
    (wall - inside).max(0.0) / N as f64
}

/// What the rack phase hands back: the critical-path report, the clients'
/// own merged latency histogram as a cross-check, whether every client
/// finished, and the profiler's view of the run (events retired, wall
/// seconds, scope table).
struct RackRun {
    report: CritPathReport,
    lat: Histogram,
    done: bool,
    events: u64,
    wall: f64,
    snap: profile::ProfileSnapshot,
}

/// The E10 rack cell with full stage + link-hop tracing, run under the
/// scoped profiler from power-on to completion.
fn rack_phase(args: &Args) -> RackRun {
    let mut setup = build_rack_kvs(
        FabricConfig::default(),
        args.machines,
        args.replication,
        SystemConfig {
            seed: args.seed,
            trace: true,
            ..SystemConfig::default()
        },
    );
    // The decomposition needs every stage mark of the run: raise the ring
    // capacities so nothing is evicted, and turn on the fabric's hop trace.
    for i in 0..args.machines {
        let m = setup.machines[i];
        setup.fabric.machine_mut(m).set_trace_capacity(1 << 20);
    }
    setup.fabric.set_link_tracing(true);
    setup.fabric.set_link_trace_capacity(1 << 20);

    let mut client_ports: Vec<PortId> = Vec::new();
    for i in 0..args.machines {
        let m = setup.machines[i];
        let router_port = setup.router_ports[i];
        let port = setup
            .fabric
            .machine_mut(m)
            .add_host(Box::new(KvsClientHost::new(
                router_port,
                WorkloadConfig {
                    keys: 200,
                    theta: 0.99,
                    read_fraction: 0.95,
                    value_size: 128,
                    outstanding: 8,
                    total_ops: args.rack_ops,
                    preload: true,
                    stats_prefix: format!("c{i}"),
                    ..WorkloadConfig::default()
                },
            )));
        client_ports.push(port);
    }

    setup.fabric.power_on();
    let deadline = setup.fabric.now() + SimDuration::from_secs(60);
    let mut done = false;
    let mut events = 0;
    profile::reset();
    profile::set_enabled(true);
    let t0 = Instant::now();
    while setup.fabric.now() < deadline && !done {
        events += setup.fabric.run_for(SimDuration::from_millis(10));
        done = (0..args.machines).all(|i| {
            setup
                .fabric
                .machine(setup.machines[i])
                .host_as::<KvsClientHost>(client_ports[i])
                .expect("client present")
                .is_done()
        });
    }
    let wall = t0.elapsed().as_secs_f64();
    profile::set_enabled(false);
    let snap = profile::snapshot();

    let merged = setup.fabric.merged_trace();
    let records: Vec<_> = merged.events().cloned().collect();
    let report = critpath::analyze(&records);

    let mut lat = Histogram::new();
    for i in 0..args.machines {
        let hub = setup.fabric.machine(setup.machines[i]).stats();
        if let Some(c) = hub.histogram(&format!("c{i}.latency")) {
            lat.merge(&c);
        }
    }
    RackRun {
        report,
        lat,
        done,
        events,
        wall,
        snap,
    }
}

/// Prints one profiled window's scopes, most allocations first.
fn print_scope_table(snap: &profile::ProfileSnapshot, events: u64) {
    let mut t = Table::new(&["scope", "allocs", "allocs/event", "sim ms", "spans"]);
    let mut scopes: Vec<_> = snap
        .scopes
        .iter()
        .filter(|s| s.allocs > 0 || s.spans > 0)
        .collect();
    scopes.sort_by(|a, b| b.allocs.cmp(&a.allocs).then(a.name.cmp(b.name)));
    for s in &scopes {
        t.row_strings(vec![
            s.name.into(),
            s.allocs.to_string(),
            format!("{:.3}", s.allocs as f64 / events as f64),
            format!("{:.3}", s.sim_ns as f64 / 1e6),
            s.spans.to_string(),
        ]);
    }
    t.row_strings(vec![
        "(unattributed)".into(),
        snap.unattributed_allocs.to_string(),
        format!("{:.3}", snap.unattributed_allocs as f64 / events as f64),
        "-".into(),
        "-".into(),
    ]);
    t.print();
}

/// The `"scopes"` and `"unattributed"` members that close an attribution
/// block.
fn scopes_json(snap: &profile::ProfileSnapshot, no_wall: bool) -> String {
    let mut body = String::new();
    body.push_str("    \"scopes\": {\n");
    let mut named: Vec<_> = snap.scopes.iter().collect();
    named.sort_by_key(|s| s.name);
    for (i, s) in named.iter().enumerate() {
        body.push_str(&format!(
            "      \"{}\": {{\"allocs\": {}, \"alloc_bytes\": {}, \"spans\": {}, \"sim_ns\": {}{}}}{}\n",
            s.name,
            s.allocs,
            s.alloc_bytes,
            s.spans,
            s.sim_ns,
            if no_wall {
                String::new()
            } else {
                format!(", \"wall_ns\": {}, \"wall_root_ns\": {}", s.wall_ns, s.wall_root_ns)
            },
            if i + 1 < named.len() { "," } else { "" }
        ));
    }
    body.push_str("    },\n");
    body.push_str(&format!(
        "    \"unattributed\": {{\"allocs\": {}, \"alloc_bytes\": {}}}\n  }},\n",
        snap.unattributed_allocs, snap.unattributed_bytes
    ));
    body
}

fn main() {
    let args = Args::parse();
    println!("E12: performance attribution — allocations, wall time, and p99 tail");
    println!(
        "    (system: {} clients x {} outstanding, {} ms virtual; rack: {} machines R={}, {} ops/client; seed {:#x}{})",
        args.clients,
        args.outstanding,
        args.virtual_ms,
        args.machines,
        args.replication,
        args.rack_ops,
        args.seed,
        if args.no_wall { "; no-wall" } else { "" }
    );
    println!();

    // --- Phase A (+B): scoped attribution of the E9 system phase ----------
    let mut overhead_json = String::new();
    let mut baseline_eps = 0.0f64;
    if !args.no_wall {
        // Overhead control first, so the profiled run's scope table is the
        // process-final profiler state.
        let (ev_off, wall_off) = system_phase(&args, false);
        baseline_eps = ev_off as f64 / wall_off;
        println!("profiler off: {ev_off} events in {wall_off:.3}s ({baseline_eps:.0} events/s)");
    }
    let (events, wall) = system_phase(&args, true);
    let snap = profile::snapshot();
    if !args.no_wall {
        let eps_on = events as f64 / wall;
        let overhead = 100.0 * (baseline_eps - eps_on) / baseline_eps;
        println!("profiler on:  {events} events in {wall:.3}s ({eps_on:.0} events/s, {overhead:+.1}% vs off)");
        overhead_json = format!(
            concat!(
                "  \"overhead\": {{\"events_per_sec_off\": {:.1}, ",
                "\"events_per_sec_on\": {:.1}, \"overhead_pct\": {:.2}}},\n"
            ),
            baseline_eps, eps_on, overhead
        );
    }

    let wall_ns = (wall * 1e9) as u64;
    let alloc_frac = snap.attributed_alloc_fraction();
    let wall_frac = snap.wall_root_total_ns() as f64 / wall_ns.max(1) as f64;
    // The instrument's own share of the window: every top-level span has
    // edges no span can see. Priced after the snapshot so the calibration
    // scope stays out of the table.
    let (edge_ns, instrument_frac) = if args.no_wall {
        (0.0, 0.0)
    } else {
        let edge = span_edge_ns();
        let frac = snap.root_span_total() as f64 * edge / wall_ns.max(1) as f64;
        (edge, frac)
    };

    println!();
    println!("attribution over the measured window ({events} events):");
    print_scope_table(&snap, events);
    println!(
        "attributed allocations: {:.1}% of {} (gate: >= 95%)",
        100.0 * alloc_frac,
        snap.total_allocs()
    );
    if !args.no_wall {
        println!(
            "attributed wall time:   {:.1}% of the measured window in named scopes + {:.1}% span edges \
             ({} top-level spans x {:.0} ns) = {:.1}% (gate: >= 95%)",
            100.0 * wall_frac,
            100.0 * instrument_frac,
            snap.root_span_total(),
            edge_ns,
            100.0 * (wall_frac + instrument_frac)
        );
    }

    // --- Phase C: rack critical path ---------------------------------------
    println!();
    println!(
        "critical path: {} machines, R={} (stage + link-hop trace)",
        args.machines, args.replication
    );
    let RackRun {
        report,
        lat,
        done: rack_done,
        events: rack_events,
        wall: rack_wall,
        snap: rack_snap,
    } = rack_phase(&args);
    let sum_error = report.worst_sum_error();
    let dominant = report.dominant_at_p99().unwrap_or("-");
    let mut ct = Table::new(&[
        "pctl", "total us", "dominant", "client_q", "dispatch", "uplink", "spine", "downlink",
        "local", "service", "ack_agg", "response",
    ]);
    for r in &report.rows {
        let mut row = vec![
            format!("p{}", r.percentile),
            format!("{:.1}", r.total_ns / 1e3),
            r.dominant.to_string(),
        ];
        row.extend(r.segments.iter().map(|s| format!("{:.1}", s / 1e3)));
        ct.row_strings(row);
    }
    ct.print();
    let client_p99 = lat.percentile(99.0).as_nanos();
    let analyzer_p99 = report.row(99.0).map_or(0.0, |r| r.total_ns);
    println!(
        "{} ops decomposed ({} incomplete), worst segment-sum error {:.2}% (gate: <= 5%)",
        report.ops.len(),
        report.incomplete,
        100.0 * sum_error
    );
    println!(
        "p99 cross-check: clients' histogram {:.1} us vs analyzer band {:.1} us; dominant: {dominant}",
        client_p99 as f64 / 1e3,
        analyzer_p99 / 1e3
    );

    // The same run through the scoped profiler: where the rack's host cost
    // sits, fabric-level work (sweep, directory answers, barrier) included.
    let rack_alloc_frac = rack_snap.attributed_alloc_fraction();
    let rack_wall_ns = (rack_wall * 1e9) as u64;
    let rack_wall_frac = rack_snap.wall_root_total_ns() as f64 / rack_wall_ns.max(1) as f64;
    println!();
    println!("rack attribution over the whole run ({rack_events} events):");
    print_scope_table(&rack_snap, rack_events);
    println!(
        "attributed allocations: {:.1}% of {} (gate: >= 95%)",
        100.0 * rack_alloc_frac,
        rack_snap.total_allocs()
    );
    if !args.no_wall {
        println!(
            "attributed wall time:   {:.1}% of the run in named scopes (informational)",
            100.0 * rack_wall_frac
        );
    }

    // --- JSON --------------------------------------------------------------
    let mut body = String::from("{\n  \"experiment\": \"e12\",\n  \"schema_version\": 2,\n");
    body.push_str(&format!(
        concat!(
            "  \"config\": {{\"seed\": {}, \"clients\": {}, \"outstanding\": {}, ",
            "\"virtual_ms\": {}, \"machines\": {}, \"replication\": {}, ",
            "\"rack_ops\": {}, \"wall\": {}}},\n"
        ),
        args.seed,
        args.clients,
        args.outstanding,
        args.virtual_ms,
        args.machines,
        args.replication,
        args.rack_ops,
        !args.no_wall
    ));
    body.push_str(&overhead_json);
    body.push_str("  \"attribution\": {\n");
    body.push_str(&format!(
        "    \"events\": {events},\n    \"total_allocs\": {},\n    \"attributed_alloc_fraction\": {:.6},\n",
        snap.total_allocs(),
        alloc_frac
    ));
    if !args.no_wall {
        body.push_str(&format!(
            concat!(
                "    \"wall_ns\": {},\n    \"wall_root_ns\": {},\n",
                "    \"wall_coverage_fraction\": {:.6},\n",
                "    \"root_spans\": {},\n    \"span_edge_ns\": {:.1},\n",
                "    \"instrument_wall_fraction\": {:.6},\n"
            ),
            wall_ns,
            snap.wall_root_total_ns(),
            wall_frac,
            snap.root_span_total(),
            edge_ns,
            instrument_frac
        ));
    }
    body.push_str(&scopes_json(&snap, args.no_wall));
    body.push_str("  \"rack_attribution\": {\n");
    body.push_str(&format!(
        "    \"events\": {rack_events},\n    \"total_allocs\": {},\n    \"attributed_alloc_fraction\": {:.6},\n",
        rack_snap.total_allocs(),
        rack_alloc_frac
    ));
    if !args.no_wall {
        body.push_str(&format!(
            concat!(
                "    \"wall_ns\": {},\n    \"wall_root_ns\": {},\n",
                "    \"wall_coverage_fraction\": {:.6},\n"
            ),
            rack_wall_ns,
            rack_snap.wall_root_total_ns(),
            rack_wall_frac
        ));
    }
    body.push_str(&scopes_json(&rack_snap, args.no_wall));
    body.push_str("  \"critical_path\": {\n");
    body.push_str(&format!(
        concat!(
            "    \"machines\": {}, \"replication\": {}, \"done\": {}, ",
            "\"ops\": {}, \"incomplete\": {},\n",
            "    \"worst_sum_error\": {:.6},\n",
            "    \"dominant_p99\": \"{}\",\n",
            "    \"client_p99_ns\": {},\n"
        ),
        args.machines,
        args.replication,
        rack_done,
        report.ops.len(),
        report.incomplete,
        sum_error,
        dominant,
        client_p99
    ));
    body.push_str("    \"rows\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        let segs = SEGMENTS
            .iter()
            .zip(r.segments)
            .map(|(n, v)| format!("\"{n}\": {v:.1}"))
            .collect::<Vec<_>>()
            .join(", ");
        body.push_str(&format!(
            "      {{\"percentile\": {}, \"total_ns\": {:.1}, \"dominant\": \"{}\", \"segments\": {{{segs}}}}}{}\n",
            r.percentile,
            r.total_ns,
            r.dominant,
            if i + 1 < report.rows.len() { "," } else { "" }
        ));
    }
    body.push_str("    ]\n  }\n}\n");
    match std::fs::write(&args.out, &body) {
        Ok(()) => println!("\nwrote {}", args.out),
        Err(e) => eprintln!("\nfailed to write {}: {e}", args.out),
    }

    // --- Gates -------------------------------------------------------------
    let mut failed = Vec::new();
    if alloc_frac < 0.95 {
        failed.push(format!("attributed_alloc_fraction {alloc_frac:.4} < 0.95"));
    }
    if !args.no_wall && wall_frac + instrument_frac < 0.95 {
        failed.push(format!(
            "wall_coverage_fraction {wall_frac:.4} + instrument_wall_fraction {instrument_frac:.4} < 0.95"
        ));
    }
    if rack_alloc_frac < 0.95 {
        failed.push(format!(
            "rack attributed_alloc_fraction {rack_alloc_frac:.4} < 0.95"
        ));
    }
    if sum_error > 0.05 {
        failed.push(format!("worst_sum_error {sum_error:.4} > 0.05"));
    }
    if report.ops.is_empty() {
        failed.push("no operations decomposed".into());
    }
    if !rack_done {
        failed.push("rack workload did not complete".into());
    }
    if failed.is_empty() {
        println!("all attribution gates passed");
    } else {
        for f in &failed {
            eprintln!("GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
}
