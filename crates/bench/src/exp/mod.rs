//! The experiment registry and the commands built on it.
//!
//! ```text
//! lastcpu-bench <exp> [flags]            one experiment: tables, --out artifact
//! lastcpu-bench all [--smoke] [--no-wall] [--check] [--out-dir D]
//! lastcpu-bench diff A.json B.json [--host-tol <pct>]
//! lastcpu-bench show A.json [group..]    an artifact's tables, as its run printed them
//! lastcpu-bench ab A B [--pairs N] -- EXP [flags]
//!                                        two binaries, ABBA, compared on host time
//! ```
//!
//! An [`Experiment`] is plain data: its flags, the reduced flag sets CI
//! runs it with, a `run` that returns [`Cell`]s and a `check` holding its
//! gates. Everything else — parsing, `--help`, the table, the artifact, the
//! diff — is derived here, once.
//!
//! Exit codes everywhere: 0 = ok, 1 = a gate or the diff failed, 2 = usage
//! or unreadable input.

use crate::cli::{self, Args, Flag};
use crate::flags;
use crate::obs::ObsArgs;
use crate::report::{self, Cell, Report};

pub mod ablations;
pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e14;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod f2;

/// One registered experiment.
pub struct Experiment {
    /// Subcommand, and the `BENCH_<name>.json` stem.
    pub name: &'static str,
    /// Headline printed above the tables.
    pub title: &'static str,
    /// The experiment's own flags.
    pub flags: &'static [Flag],
    /// Which of [`cli::OBS`] it honours.
    pub obs: &'static [Flag],
    /// The reduced command lines `all --smoke` (and so CI) runs; one
    /// artifact each.
    pub smoke: &'static [&'static str],
    /// Runs the experiment. `Err` is a usage error (a flag value the
    /// experiment itself rejects), found before any work is done.
    pub run: fn(&Args) -> Result<Vec<Cell>, String>,
    /// The experiment's gates: one line per violated invariant.
    pub check: fn(&Report) -> Vec<String>,
}

/// Every experiment, in EXPERIMENTS.md order.
pub const REGISTRY: &[Experiment] = &[
    f2::EXP,
    e1::EXP,
    e2::EXP,
    e3::EXP,
    e4::EXP,
    e5::EXP,
    e6::EXP,
    e7::EXP,
    e8::EXP,
    e9::EXP,
    e10::EXP,
    e11::EXP,
    e12::EXP,
    e14::EXP,
    ablations::EXP,
];

/// The violated gates of one `check`, collected: `gates.require(holds,
/// what_it_means_when_not)`.
#[derive(Default)]
pub struct Gates(pub Vec<String>);

impl Gates {
    /// Records `violation` unless `holds`.
    pub fn require(&mut self, holds: bool, violation: String) {
        if !holds {
            self.0.push(violation);
        }
    }
}

impl Experiment {
    /// What most experiments are: no flags of their own, every
    /// observability flag, one smoke run at the defaults, nothing to gate
    /// beyond [`Experiment::violations`]. Spread it, then name and `run`.
    pub const PLAIN: Experiment = Experiment {
        name: "",
        title: "",
        flags: &[],
        obs: cli::OBS,
        smoke: &[""],
        run: |_| Ok(Vec::new()),
        check: |_| Vec::new(),
    };

    /// Looks `name` up in [`REGISTRY`].
    pub fn find(name: &str) -> Option<&'static Experiment> {
        REGISTRY.iter().find(|e| e.name == name)
    }

    /// Everything `lastcpu-bench <name>` accepts.
    pub fn flag_sets(&self) -> [&'static [Flag]; 4] {
        [self.flags, self.obs, cli::OUT, cli::MODE]
    }

    /// Runs with `args` (parsed against [`Experiment::flag_sets`]): the
    /// report, with host metrics dropped under `--no-wall` and the `profile`
    /// table appended under `--profile`.
    pub fn report(&self, args: &Args) -> Result<Report, String> {
        let obs = ObsArgs::from_args(args);
        obs.begin();
        let mut cells = (self.run)(args)?;
        cells.extend(obs.finish());
        let wall = !args.on("--no-wall");
        if !wall {
            cells.iter_mut().for_each(|c| c.metrics.retain(|m| !m.host));
        }
        let mut config = args.config(self.flags);
        if let crate::Json::Obj(m) = &mut config {
            m.insert("wall".into(), wall.into());
        }
        Ok(Report {
            experiment: self.name.into(),
            commit: report::commit(),
            config,
            cells,
        })
    }

    /// Every gate `report` violates: the harness-wide ones (something was
    /// measured; a `--no-wall` artifact carries no host metric) and the
    /// experiment's own.
    pub fn violations(&self, report: &Report) -> Vec<String> {
        let mut v = Vec::new();
        if report.cells.is_empty() {
            v.push("no cells".into());
        }
        if report.config.get("wall") == Some(&false.into()) {
            for c in &report.cells {
                for m in c.metrics.iter().filter(|m| m.host) {
                    v.push(format!(
                        "{} {}: host metric under --no-wall",
                        c.label(),
                        m.name
                    ));
                }
            }
        }
        v.extend((self.check)(report));
        v
    }

    /// What a run and `show` print: the title, then the tables of `groups`.
    fn print(&self, report: &Report, groups: &[&str]) {
        cli::print(&format!("{}\n\n{}\n", self.title, report.render(groups)));
    }

    /// Prints title and tables; writes the artifact to `out`;
    /// under `--check` reports violated gates on stderr. Returns whether the
    /// gates (if asked for) held.
    fn finish(&self, args: &Args, report: &Report, out: Option<&str>) -> Result<bool, String> {
        self.print(report, &report.groups());
        if let Some(path) = out {
            let text = report.to_json().dump();
            std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
            cli::print(&format!("wrote {path}\n"));
        }
        Ok(!args.on("--check") || gates_hold(self, report))
    }
}

fn gates_hold(exp: &Experiment, report: &Report) -> bool {
    let violations = exp.violations(report);
    for v in &violations {
        eprintln!("GATE FAILED ({}): {v}", exp.name);
    }
    violations.is_empty()
}

fn single(exp: &Experiment, args: &Args) -> Result<i32, String> {
    let report = exp.report(args)?;
    let ok = exp.finish(args, &report, args.str("--out"))?;
    Ok(i32::from(!ok))
}

const ALL_FLAGS: &[Flag] = flags! {
    "--smoke"   Switch "" "run each experiment's reduced CI command lines instead of its defaults"
    "--out-dir" Str    "" "where the BENCH_<exp>.json files go (default, full runs only: the current directory)"
};

fn all(all_args: &Args) -> Result<i32, String> {
    let smoke = all_args.on("--smoke");
    // Only a full run may land on the committed artifacts by default.
    let dir = match (all_args.str("--out-dir"), smoke) {
        (Some(d), _) => d,
        (None, false) => ".",
        (None, true) => return Err("--smoke needs --out-dir".into()),
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    let mut ok = true;
    for exp in REGISTRY {
        let sets = if smoke { exp.smoke } else { &[""] };
        for (i, set) in sets.iter().enumerate() {
            let mut argv: Vec<String> = set.split_whitespace().map(String::from).collect();
            let modes = ["--no-wall", "--check"]
                .into_iter()
                .filter(|f| all_args.on(f));
            argv.extend(modes.map(String::from));
            eprintln!("==> {} {}", exp.name, argv.join(" "));
            let args = Args::parse(&exp.flag_sets(), &argv, 0..=0)?;
            // The first (usually only) run owns the plain name.
            let part = if i == 0 { "" } else { &format!(".{}", i + 1) };
            let path = format!("{dir}/BENCH_{}{part}.json", exp.name);
            ok &= exp.finish(&args, &exp.report(&args)?, Some(&path))?;
        }
    }
    Ok(i32::from(!ok))
}

const DIFF_FLAGS: &[Flag] = flags! {
    "--host-tol" F64 "5" "percent a host-clock metric may worsen (same-commit reruns on a noisy host pass 30)"
};

fn diff(args: &Args) -> Result<i32, String> {
    let (base_path, cand_path) = (&args.positional[0], &args.positional[1]);
    let (base, cand) = (Report::read(base_path)?, Report::read(cand_path)?);
    let exp = Experiment::find(&cand.experiment)
        .filter(|_| base.experiment == cand.experiment)
        .ok_or_else(|| {
            format!(
                "cannot compare {:?} with {:?}",
                base.experiment, cand.experiment
            )
        })?;
    cli::print(&format!("diff {}: {base_path} -> {cand_path}\n", exp.name));
    if base.config != cand.config {
        cli::print("  note: the two runs used different flags\n");
    }
    let d = report::diff(&base, &cand, Some(args.f64("--host-tol") / 100.0));
    for line in &d.lines {
        cli::print(&format!("  {line}\n"));
    }
    // The candidate must also stand on its own.
    let failed = !gates_hold(exp, &cand) || d.failed();
    cli::print(&format!(
        "{}: {} unchanged, {} within bound, {} improved, {} regressed, {} on one side only\n",
        if failed { "FAIL" } else { "PASS" },
        d.unchanged,
        d.within,
        d.improved,
        d.regressed,
        d.one_sided
    ));
    Ok(i32::from(failed))
}

fn show(args: &Args) -> Result<i32, String> {
    let (path, asked) = args.positional.split_first().expect("a file argument");
    let report = Report::read(path)?;
    let exp = Experiment::find(&report.experiment)
        .ok_or_else(|| format!("{path}: no experiment {:?}", report.experiment))?;
    let known = report.groups();
    let groups: Vec<&str> = match asked.is_empty() {
        true => known.clone(),
        false => asked.iter().map(String::as_str).collect(),
    };
    if let Some(g) = groups.iter().find(|g| !known.contains(g)) {
        return Err(format!("{path}: no group {g:?}"));
    }
    exp.print(&report, &groups);
    Ok(0)
}

fn usage() -> String {
    let mut out = String::from(
        "usage: lastcpu-bench <experiment> [flags]   (--help lists an experiment's flags)\n\
         \x20      lastcpu-bench all [--smoke] [--no-wall] [--check] [--out-dir D]\n\
         \x20      lastcpu-bench diff A.json B.json [--host-tol <pct>]\n\
         \x20      lastcpu-bench show A.json [group..]\n\
         \x20      lastcpu-bench ab A B [--pairs N] -- EXP [flags]\n\nexperiments:\n",
    );
    for e in REGISTRY {
        let headline = e.title.lines().next().unwrap_or("");
        out.push_str(&format!("  {:<10} {headline}\n", e.name));
    }
    out
}

/// The `lastcpu-bench` command line; returns the exit code.
pub fn main(argv: &[String]) -> i32 {
    let Some((cmd, rest)) = argv.split_first() else {
        eprint!("{}", usage());
        return 2;
    };
    // `ab` hands what follows `--` to the two binaries untouched.
    let (rest, passed) = match (cmd.as_str(), rest.iter().position(|a| a == "--")) {
        ("ab", Some(i)) => (&rest[..i], &rest[i + 1..]),
        _ => (rest, &[][..]),
    };
    let exp = Experiment::find(cmd);
    type Run<'a> = &'a dyn Fn(&Args) -> Result<i32, String>;
    type Files = std::ops::RangeInclusive<usize>;
    let (sets, positionals, about, run): (Vec<&[Flag]>, Files, &str, Run) =
        match (cmd.as_str(), exp) {
            (_, Some(e)) => (e.flag_sets().to_vec(), 0..=0, e.title, &move |a| {
                single(e, a)
            }),
            ("all", _) => (
                vec![ALL_FLAGS, cli::MODE],
                0..=0,
                "every experiment, one artifact each",
                &all,
            ),
            ("diff", _) => (
                vec![DIFF_FLAGS],
                2..=2,
                "A.json B.json: per-cell, per-metric comparison",
                &diff,
            ),
            ("ab", _) => (
                vec![crate::ab::FLAGS],
                2..=2,
                "A B -- EXP [flags]: two binaries run EXP in ABBA pairs; host metrics compared as median ratios with sign-test intervals",
                &move |a| crate::ab::run(a, passed),
            ),
            ("show", _) => (
                vec![],
                1..=usize::MAX,
                "A.json [group..]: the artifact's title and tables, as its run printed them",
                &show,
            ),
            ("--help", _) => {
                cli::print(&usage());
                return 0;
            }
            _ => {
                eprint!("lastcpu-bench: unknown command {cmd:?}\n{}", usage());
                return 2;
            }
        };
    if rest.iter().any(|a| a == "--help") {
        cli::print(&cli::help(cmd, about, &sets));
        return 0;
    }
    let result = Args::parse(&sets, rest, positionals).and_then(|args| run(&args));
    result.unwrap_or_else(|e| {
        eprintln!("lastcpu-bench {cmd}: {e}");
        2
    })
}

/// The E9 machine rung: the CPU-less KVS under `clients` closed loops that
/// never finish (400 Zipf keys, 95% GETs, a 512-entry edge cache), warmed up
/// — power-on, discovery, preload — so whatever runs next is steady state.
pub(crate) fn saturated_kvs(
    config: lastcpu_core::SystemConfig,
    clients: usize,
    outstanding: usize,
) -> lastcpu_kvs::KvsSetup {
    use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
    let server = lastcpu_kvs::ServerConfig {
        cache_entries: 512,
        ..Default::default()
    };
    let mut setup = lastcpu_kvs::build_cpuless_kvs(config, Default::default(), server);
    for i in 0..clients {
        let workload = WorkloadConfig {
            keys: 400,
            theta: 0.99,
            read_fraction: 0.95,
            value_size: 128,
            outstanding,
            total_ops: u64::MAX / 2, // never finishes: the caller's run_for bounds the phase
            preload: i == 0,         // one loader is enough; the rest start hot
            stats_prefix: "wl".into(),
        };
        setup
            .system
            .add_host(Box::new(KvsClientHost::new(setup.kvs_port, workload)));
    }
    setup.system.power_on();
    setup
        .system
        .run_for(lastcpu_sim::SimDuration::from_millis(200));
    setup
}

/// A smart SSD over a small fresh flash file system exporting `file`: the
/// Figure-2 target of the control-plane experiments.
pub(crate) fn file_ssd(file: &str) -> lastcpu_core::devices::ssd::SmartSsd {
    use lastcpu_core::devices::flash::{NandChip, NandConfig};
    use lastcpu_core::devices::fs::FlashFs;
    use lastcpu_core::devices::ftl::Ftl;
    use lastcpu_core::devices::ssd::{SmartSsd, SsdConfig};
    let mut fs = FlashFs::format(Ftl::new(NandChip::new(NandConfig {
        blocks: 64,
        pages_per_block: 32,
        page_size: 4096,
        max_erase_cycles: u32::MAX,
        ..NandConfig::default()
    })));
    fs.create(file).expect("fresh fs");
    let config = SsdConfig {
        exports: vec![file.into()],
        ..SsdConfig::default()
    };
    SmartSsd::new("ssd0", fs, config)
}
