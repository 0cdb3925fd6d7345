//! Every registry entry rejects what it does not know — a typo, a flag
//! without its value, a value that does not parse — with exit 2, the flag
//! named on stderr and nothing on stdout; and its generated `--help` lists
//! exactly the flags of the census below, so a new knob cannot slip in
//! unannounced.

use std::process::Command;

use lastcpu_bench::exp::REGISTRY;

const BIN: &str = env!("CARGO_BIN_EXE_lastcpu-bench");

const HARNESS: [&str; 3] = ["--out", "--no-wall", "--check"];
const OBS: [&str; 4] = ["--trace-out", "--metrics-out", "--profile", "--profile-out"];

/// `experiment | how many of OBS it honours | its own flags`.
const CENSUS: &str = "\
f2  | 4 |
e1  | 4 |
e2  | 4 |
e3  | 4 |
e4  | 4 | --fault-seed
e5  | 4 |
e6  | 4 |
e7  | 4 |
e8  | 4 |
e9  | 4 | --queue-depth --queue-ops --clients --outstanding --virtual-ms --repeat
e10 | 2 | --machines --replication --policies --topologies --oversub --ops --keys --value-size --outstanding --read-fraction --seed --no-crash
e11 | 2 | --seeds --ops --keys --value-size --outstanding --flood-limit --machines --replication --no-rack
e12 | 0 | --seed --clients --outstanding --virtual-ms --machines --replication --rack-ops
e14 | 0 | --machines --replication --ops --keys --value-size --outstanding --seeds --ckpt-at-us --checkpoint-out --restore-from --seed --crash
ablations | 4 |";

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(BIN).args(args).output().expect("spawn");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn every_experiment_rejects_bad_flags() {
    assert_eq!(REGISTRY.len(), CENSUS.lines().count());
    let typos: [&[&str]; 4] = [
        &["--bogus"],
        &["--out"],
        &["--ops", "x"],
        &["--threads", "4"],
    ];
    for exp in REGISTRY {
        for bad in typos {
            let (code, stdout, stderr) = run(&[&[exp.name], bad].concat());
            let what = format!("{} {bad:?}: {stderr}", exp.name);
            assert_eq!(code, Some(2), "{what}");
            assert!(stderr.contains(bad[0]), "must name the flag: {what}");
            assert!(stdout.is_empty(), "output before the error: {what}");
        }
    }
    let commands: [&[&str]; 4] = [
        &["all", "--smoke", "--bogus"],
        &["diff", "--host-tol"],
        &["e99"],
        &[],
    ];
    for bad in commands {
        assert_eq!(run(bad).0, Some(2), "{bad:?}");
    }
}

#[test]
fn help_lists_exactly_the_census() {
    for row in CENSUS.lines() {
        let [name, obs, own] = row.split('|').map(str::trim).collect::<Vec<_>>()[..] else {
            panic!("three columns: {row}");
        };
        let (code, stdout, _) = run(&[name, "--help"]);
        assert_eq!(code, Some(0));
        let listed: Vec<&str> = stdout
            .lines()
            .filter(|l| l.starts_with("  --"))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let obs = &OBS[..obs.parse::<usize>().expect("a count")];
        let want: Vec<&str> = own
            .split_whitespace()
            .chain(obs.iter().copied())
            .chain(HARNESS)
            .collect();
        assert_eq!(listed, want, "{name} --help:\n{stdout}");
    }
}
