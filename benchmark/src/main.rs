//! The repo benchmark. See README.md beside this crate.

mod alloc;
mod calib;
mod cli;
mod compare;
mod metrics;
mod report;
mod rungs;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use lastcpu_bench::Json;

use calib::Ctx;
use cli::RunArgs;
use metrics::Values;
use report::Outcome;
use workloads::{Params, Workload, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where results and span files go unless `--out` says otherwise: inside
/// the benchmark's own directory, never the caller's cwd.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs `w` in this process: an untraced pass for the end-to-end metrics
/// and layer counters, then — traced only — a second pass with the
/// profiler and spans on, and the isolated layer rungs.
fn run_workload(w: &'static Workload, args: &RunArgs) -> Outcome {
    let mut ctx = Ctx::new();
    let params = |setups| Params {
        seed: args.seed,
        scale: args.scale,
        setups,
    };
    let mut base = (w.run)(&mut ctx, &params(SETUPS));
    let ns_per_event = base.window.cal_ns_per(base.window.events);

    let mut e2e = Values::default();
    e2e.set("setup_s", base.setup.cal_s());
    e2e.set("host_s", base.window.cal_s());
    e2e.set("host_events_per_s", 1e9 / ns_per_event);
    e2e.set("peak_rss_mib", report::peak_rss_mib());
    let mut layer = Values::default();
    for (name, v) in std::mem::take(&mut base.values.0) {
        if metrics::END_TO_END.iter().any(|m| m.name == name) {
            e2e.set(&name, v);
        } else {
            layer.set(&name, v);
        }
    }

    let per_layer = args.traced.then(|| {
        layer.set(
            "core.machine_event_ns",
            if w.rack { 0.0 } else { ns_per_event },
        );
        layer.set(
            "fabric.rack_event_ns",
            if w.rack { ns_per_event } else { 0.0 },
        );
        ctx.tracer.enable();
        let traced = (w.run)(&mut ctx, &params(1));
        base.checks.push((
            "traced run simulated the same thing",
            traced.state_digest == base.state_digest && traced.window.events == base.window.events,
        ));
        let prof = ctx
            .profile
            .take()
            .expect("the traced window ran the profiler");
        let raw_ns = traced.window.raw_s * 1e9;
        layer.set(
            "trace.overhead_frac",
            traced.window.cal_s() / base.window.cal_s() - 1.0,
        );
        layer.set(
            "trace.unattributed_frac",
            1.0 - prof.wall_root_total_ns() as f64 / raw_ns,
        );
        for scope in metrics::SCOPES {
            let st = prof.scopes.iter().find(|s| s.name == scope);
            let wall_s = st.map_or(0.0, |s| s.wall_ns as f64 / 1e9 * traced.window.cal_factor);
            layer.set(&format!("trace.scope.{scope}.wall_s"), wall_s);
            layer.set(
                &format!("trace.scope.{scope}.allocs"),
                st.map_or(0.0, |s| s.allocs as f64),
            );
        }
        layer.extend(rungs::run_all(&mut ctx, args.scale));
        base.checks
            .extend((w.isolation)(&layer, base.window.cal_s()));
        let path = out_dir().join(format!("trace-{}.jsonl", w.name));
        write_file(&path, &ctx.tracer.jsonl(w.name));
        // Registry order, and proof that nothing registered was left unset.
        let mut ordered = Values::default();
        for (name, ..) in metrics::per_layer() {
            ordered.set(&name, layer.value(&name));
        }
        assert_eq!(
            ordered.0.len(),
            layer.0.len(),
            "unregistered per-layer metric emitted"
        );
        ordered
    });

    Outcome {
        workload: w.name,
        seed: args.seed,
        scale: args.scale,
        end_to_end: e2e,
        per_layer,
        attempted: base.attempted,
        failed: base.failed,
        events: base.window.events,
        sim_ops: base.sim_ops,
        state_digest: base.state_digest,
        raw_setup_s: base.setup.raw_s,
        raw_host_s: base.window.raw_s,
        host_cal_factor: base.window.cal_factor,
        checks: base.checks,
    }
}

fn write_file(path: &Path, body: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn read_runs(path: &Path) -> Vec<Json> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
    doc.get("runs")
        .and_then(Json::as_arr)
        .expect("result file has runs")
        .to_vec()
}

/// One workload, one repeat, in this process — the form the benchmark
/// contract drives. The last stdout line is the contract's JSON object.
fn run_here(w: &'static Workload, args: &RunArgs, out: &Path) -> ExitCode {
    let outcome = run_workload(w, args);
    outcome.print();
    write_file(out, &report::dump(&report::document(vec![outcome.json()])));
    println!("{}", report::VALIDATION);
    println!("wrote {}", out.display());
    println!("{}", outcome.contract_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every selected workload × repeat, each in its own single-threaded child
/// process so that `peak_rss_mib` belongs to one workload.
fn run_children(args: &RunArgs, out: &Path) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut runs = Vec::new();
    let mut ok = true;
    let started = std::time::Instant::now();
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|n| n == w.name))
    {
        for rep in 0..args.repeats() {
            let part = out.with_extension(format!("{}.{rep}.part", w.name));
            let status = Command::new(&exe)
                .args(["run", "--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &(args.scale * cli::FULL_SECONDS).to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&part)
                .status()
                .expect("spawn workload process");
            ok &= status.success();
            if part.exists() {
                runs.extend(read_runs(&part));
                let _ = std::fs::remove_file(&part);
            }
        }
    }
    report::print_ladder(&runs);
    write_file(out, &report::dump(&report::document(runs)));
    println!("{}", report::VALIDATION);
    println!(
        "one set took {:.1} s; wrote {}",
        started.elapsed().as_secs_f64(),
        out.display()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list() {
    let bounds = compare::bounds();
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:16} {}", w.name, w.why);
    }
    println!(
        "\nend-to-end metrics (bound = share of the parent's median a later change may lose):"
    );
    for m in &metrics::END_TO_END {
        let bound = bounds.get(m.name).map_or("-".into(), |b| format!("{b}"));
        println!(
            "  {:24} {:6} better: {:6} bound: {:5} [{}]",
            m.name,
            m.unit,
            m.better,
            bound,
            m.kind.label()
        );
    }
    println!("\nper-layer metrics (no bound):");
    for (name, unit, better, kind) in metrics::per_layer() {
        println!(
            "  {:40} {:6} better: {:6} [{}]",
            name,
            unit,
            better,
            kind.label()
        );
    }
    println!("\n{}", report::VALIDATION);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match command {
        cli::Command::List => {
            list();
            ExitCode::SUCCESS
        }
        cli::Command::Compare(a, b) => compare::run(Path::new(&a), Path::new(&b)),
        cli::Command::Run(args) => {
            let out = args
                .out
                .as_ref()
                .map_or_else(|| out_dir().join("result.json"), PathBuf::from);
            match args.workload.as_deref().and_then(workloads::find) {
                Some(w) if args.repeats() == 1 => run_here(w, &args, &out),
                _ => run_children(&args, &out),
            }
        }
    }
}
