//! E12 — performance attribution: where do the allocations, the wall-clock
//! nanoseconds, and the tail-latency nanoseconds actually go?
//!
//! E9 reports *how fast* the simulator core is and E10 reports *how slow*
//! the rack's p99 is; neither says *why*. E12 closes that gap with the
//! three instruments this crate's profiling layer provides:
//!
//! - **Attribution** (`attribution`, `scopes`) — the E9 system phase re-run
//!   under the scoped profiler: every allocation and every profiled span is
//!   charged to a `subsystem.site` scope (engine dispatch, KVS engine,
//!   IOMMU, bus codec, fabric). The gate: ≥ 95% of the measured window's
//!   allocations — and, in wall mode, ≥ 95% of its wall time — land in
//!   named scopes. The rack run below is profiled the same way.
//! - **Overhead** (`overhead`, wall mode only) — the same workload with the
//!   profiler off vs. on, priced in events/sec. The disabled configuration
//!   is the one E9's headline numbers use; its cost must be a compiled-out
//!   no-op.
//! - **Critical path** (`critical_path`, `critical_path.rows`) — the E10
//!   rack cell (default 8 machines, R = 3) with stage + link-hop tracing
//!   on; the offline analyzer decomposes every completed op into nine named
//!   segments that sum exactly to its end-to-end latency, and names the
//!   dominant segment at p99.
//!
//! With `--no-wall` every host-clock-derived metric is omitted and the
//! overhead phase is skipped: the remaining output is pure virtual time and
//! allocation counts, so two same-seed runs are **byte-identical**.

use std::time::Instant;

use lastcpu_core::SystemConfig;
use lastcpu_fabric::FabricConfig;
use lastcpu_kvs::build_rack_kvs;
use lastcpu_sim::critpath::{self, CritPathReport, SEGMENTS};
use lastcpu_sim::profile::{self, ProfileSnapshot};
use lastcpu_sim::{Histogram, SimDuration};

use super::{saturated_kvs, Experiment, Gates};
use crate::cli::Args;
use crate::flags;
use crate::rack::{e10_load, RackBench};
use crate::report::{round, Cell, Report};
use crate::Json;

pub const EXP: Experiment = Experiment {
    name: "e12",
    title: "E12: performance attribution — allocations, wall time, and p99 tail\n    \
            (system: saturated KVS; rack: stage + link-hop trace + critical-path analysis)",
    flags: flags! {
        "--seed"        U64 "0xE12" "base seed"
        "--clients"     U64 "16"    "closed-loop clients in the system phase"
        "--outstanding" U64 "32"    "requests in flight per system-phase client"
        "--virtual-ms"  U64 "500"   "measured virtual time of the system phase"
        "--machines"    U64 "8"     "rack size"
        "--replication" U64 "3"     "rack replication factor"
        "--rack-ops"    U64 "400"   "measured ops per rack client"
    },
    obs: &[],
    smoke: &["--virtual-ms 300 --machines 4 --replication 2 --rack-ops 100"],
    run,
    check,
};

/// The fabric-side scopes a profiled rack run must show spans in.
const RACK_SCOPES: [&str; 4] = [
    "fabric.dir_sync",
    "fabric.dir_query",
    "fabric.inject",
    "kvs.router.dir_reply",
];

/// One E9-style system-phase run: the CPU-less KVS deployment saturated by
/// closed-loop clients. Returns (events retired, wall seconds) for the
/// measured window; the profiler — if armed here *after* warm-up — sees
/// exactly that window.
fn system_phase(args: &Args, profiled: bool) -> (u64, f64) {
    let sys_config = SystemConfig {
        seed: args.u64("--seed"),
        trace: false,
        ..SystemConfig::default()
    };
    // Warmed up outside the profiled window.
    let mut setup = saturated_kvs(
        sys_config,
        args.usize("--clients"),
        args.usize("--outstanding"),
    );
    if profiled {
        profile::reset();
        profile::set_enabled(true);
    }
    let t0 = Instant::now();
    let events = setup
        .system
        .run_for(SimDuration::from_millis(args.u64("--virtual-ms")));
    let wall = t0.elapsed().as_secs_f64();
    profile::set_enabled(false);
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
    snap: ProfileSnapshot,
}

/// The E10 rack cell with full stage + link-hop tracing, run under the
/// scoped profiler from power-on to completion.
fn rack_phase(args: &Args) -> RackRun {
    let mut setup = build_rack_kvs(
        FabricConfig::default(),
        args.usize("--machines"),
        args.usize("--replication"),
        SystemConfig {
            seed: args.u64("--seed"),
            trace: true,
            ..SystemConfig::default()
        },
    );
    // The decomposition needs every stage mark of the run: raise the ring
    // capacities so nothing is evicted, and turn on the fabric's hop trace.
    for &m in &setup.machines {
        setup.fabric.machine_mut(m).set_trace_capacity(1 << 20);
    }
    setup.fabric.set_link_tracing(true);
    setup.fabric.set_link_trace_capacity(1 << 20);
    let mut b = RackBench::build(setup, e10_load(args.u64("--rack-ops")));

    b.setup.fabric.power_on();
    profile::reset();
    profile::set_enabled(true);
    let t0 = Instant::now();
    let done = b.run_until_done(SimDuration::from_secs(60));
    let wall = t0.elapsed().as_secs_f64();
    profile::set_enabled(false);

    let records: Vec<_> = b.setup.fabric.merged_trace().events().cloned().collect();
    RackRun {
        report: critpath::analyze(&records),
        lat: b.latency(),
        done,
        events: b.events,
        wall,
        snap: profile::snapshot(),
    }
}

/// One profiled window: its `attribution` row (without the wall columns)
/// and one `scopes` row per scope that saw an allocation or a span.
fn attribution_cells(phase: &str, snap: &ProfileSnapshot, events: u64) -> (Cell, Vec<Cell>) {
    let attributed = round(snap.attributed_alloc_fraction(), 6);
    let head = Cell::new("attribution")
        .id("phase", phase)
        .exact("events", events, "count")
        .exact("total_allocs", snap.total_allocs(), "count")
        .higher("attributed_alloc_fraction", attributed, "frac", 0.02)
        .exact("unattributed_allocs", snap.unattributed_allocs, "count")
        .exact("unattributed_alloc_bytes", snap.unattributed_bytes, "B");
    let mut named: Vec<_> = snap
        .scopes
        .iter()
        .filter(|s| s.allocs > 0 || s.spans > 0)
        .collect();
    named.sort_by_key(|s| s.name);
    let scopes = named.iter().map(|s| {
        Cell::new("scopes")
            .id("phase", phase)
            .id("scope", s.name)
            .exact("allocs", s.allocs, "count")
            .exact("alloc_bytes", s.alloc_bytes, "B")
            .exact("spans", s.spans, "count")
            .exact("sim_ns", s.sim_ns, "ns")
            .exact("wall_ns", s.wall_ns, "ns")
            .host()
            .exact("wall_root_ns", s.wall_root_ns, "ns")
            .host()
    });
    (head, scopes.collect())
}

/// The host-clock columns of an `attribution` row.
fn wall_columns(cell: Cell, snap: &ProfileSnapshot, wall: f64) -> Cell {
    let wall_ns = (wall * 1e9) as u64;
    let coverage = snap.wall_root_total_ns() as f64 / wall_ns.max(1) as f64;
    cell.exact("wall_ns", wall_ns, "ns")
        .host()
        .exact("wall_root_ns", snap.wall_root_total_ns(), "ns")
        .host()
        .higher("wall_coverage_fraction", round(coverage, 6), "frac", 0.02)
        .host()
}

fn run(args: &Args) -> Result<Vec<Cell>, String> {
    let wall_mode = !args.on("--no-wall");
    let mut cells = Vec::new();

    // --- Scoped attribution of the E9 system phase (+ overhead) -----------
    // Overhead control first, so the profiled run's scope table is the
    // process-final profiler state.
    let baseline = wall_mode.then(|| system_phase(args, false));
    let (events, wall) = system_phase(args, true);
    let snap = profile::snapshot();
    if let Some((ev_off, wall_off)) = baseline {
        let (eps_off, eps_on) = (ev_off as f64 / wall_off, events as f64 / wall);
        let overhead = round(100.0 * (eps_off - eps_on) / eps_off, 2);
        cells.push(
            Cell::new("overhead")
                .higher("events_per_sec_off", round(eps_off, 1), "1/s", 0.05)
                .host()
                .higher("events_per_sec_on", round(eps_on, 1), "1/s", 0.05)
                .host()
                .lower("overhead_pct", overhead, "%", 0.25)
                .host(),
        );
    }
    let (mut system, system_scopes) = attribution_cells("system", &snap, events);
    system = wall_columns(system, &snap, wall);
    if wall_mode {
        // The instrument's own share of the window: every top-level span
        // has edges no span can see. Priced after the snapshot so the
        // calibration scope stays out of the table.
        let edge = span_edge_ns();
        let share = snap.root_span_total() as f64 * edge / (wall * 1e9).max(1.0);
        system = system
            .exact("root_spans", snap.root_span_total(), "count")
            .host()
            .exact("span_edge_ns", round(edge, 1), "ns")
            .host()
            .higher("instrument_wall_fraction", round(share, 6), "frac", 0.25)
            .host();
    }

    // --- Rack critical path, under the same profiler -----------------------
    let rack = rack_phase(args);
    let (rack_head, rack_scopes) = attribution_cells("rack", &rack.snap, rack.events);
    cells.push(system);
    cells.push(wall_columns(rack_head, &rack.snap, rack.wall));
    cells.extend(system_scopes);
    cells.extend(rack_scopes);

    let report = &rack.report;
    let sum_error = round(report.worst_sum_error(), 6);
    cells.push(
        Cell::new("critical_path")
            .id("machines", args.u64("--machines"))
            .id("replication", args.u64("--replication"))
            .exact("done", rack.done, "")
            .exact("ops", report.ops.len(), "count")
            .exact("incomplete", report.incomplete, "count")
            .lower("worst_sum_error", sum_error, "frac", 0.10)
            .exact("dominant_p99", report.dominant_at_p99().unwrap_or("-"), "")
            // The clients' own histogram, to cross-check the p99 row below.
            .exact("client_p99_ns", rack.lat.percentile(99.0).as_nanos(), "ns"),
    );
    for r in &report.rows {
        let row = Cell::new("critical_path.rows")
            .id("percentile", r.percentile)
            .exact("total_ns", round(r.total_ns, 1), "ns")
            .exact("dominant", r.dominant, "");
        let segments = SEGMENTS.iter().zip(r.segments);
        cells.push(segments.fold(row, |row, (name, ns)| row.exact(name, round(ns, 1), "ns")));
    }
    Ok(cells)
}

fn check(r: &Report) -> Vec<String> {
    let mut g = Gates::default();
    for phase in ["system", "rack"] {
        let Some(c) = r.group("attribution").find(|c| c.key_is("phase", phase)) else {
            g.require(false, format!("no {phase} attribution"));
            continue;
        };
        let frac = c.num("attributed_alloc_fraction");
        let attributed = frac >= 0.95 && c.num("total_allocs") > 0.0 && c.num("events") > 0.0;
        g.require(
            attributed,
            format!("{phase}: attributed_alloc_fraction {frac} < 0.95"),
        );
        // Wall mode: time in named scopes plus the priced span edges.
        if c.get("instrument_wall_fraction").is_some() {
            let (wall, edges) = (
                c.num("wall_coverage_fraction"),
                c.num("instrument_wall_fraction"),
            );
            let what = format!("{phase}: wall coverage {wall} + instrument share {edges} < 0.95");
            g.require(wall + edges >= 0.95, what);
        }
    }
    // The fabric's own work (sweep, directory answers, injection)
    // sits in named scopes of the rack run.
    for scope in RACK_SCOPES {
        let mut rows = r
            .group("scopes")
            .filter(|c| c.key_is("phase", "rack") && c.key_is("scope", scope));
        g.require(
            rows.any(|c| c.num("spans") > 0.0),
            format!("no {scope} spans in the rack run"),
        );
    }
    let Some(cp) = r.group("critical_path").next() else {
        g.require(false, "no critical_path cell".into());
        return g.0;
    };
    g.require(cp.is("done", true), "rack workload did not complete".into());
    g.require(cp.num("ops") > 0.0, "no operations decomposed".into());
    let err = cp.num("worst_sum_error");
    g.require(err <= 0.05, format!("worst_sum_error {err} > 0.05"));
    let dominant = cp.get("dominant_p99").and_then(Json::as_str).unwrap_or("");
    g.require(
        SEGMENTS.contains(&dominant),
        format!("dominant_p99 {dominant:?} is not a segment"),
    );
    for row in r.group("critical_path.rows") {
        let (total, sum) = (
            row.num("total_ns"),
            SEGMENTS.iter().map(|s| row.num(s)).sum::<f64>(),
        );
        let adds_up = total == 0.0 || (sum - total).abs() / total < 0.05;
        g.require(
            adds_up,
            format!("{}: segments sum to {sum}, total {total}", row.label()),
        );
    }
    g.0
}
