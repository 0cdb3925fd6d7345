//! Every registry entry rejects what it does not know — a typo, a flag
//! without its value, a value that does not parse, a list that repeats a
//! value — with exit 2, the flag named on stderr and nothing on stdout; and
//! its generated `--help` lists exactly the flags of the census below, so a
//! new knob cannot slip in unannounced. `show` refuses what is not an
//! artifact it can render the same way. A reader that closes the pipe early
//! silences the output and nothing else.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

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
e10 | 2 | --machines --replication --topologies --oversub --ops --keys --value-size --outstanding --read-fraction --seed --no-crash
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

/// Exit 2, stderr naming `what`, nothing on stdout.
fn refused(args: &[&str], what: &str) {
    let (code, stdout, stderr) = run(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(what),
        "{args:?} must name {what:?}: {stderr}"
    );
    assert!(
        stdout.is_empty(),
        "{args:?}: output before the error: {stdout}"
    );
}

#[test]
fn a_repeated_list_value_is_refused() {
    // Two cells with one label: `diff` would compare only the first.
    refused(&["e10", "--machines", "2,2", "--no-crash"], "--machines");
}

#[test]
fn show_refuses_what_it_cannot_render() {
    let dir = std::env::temp_dir().join(format!("lastcpu-show-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let not_an_artifact = dir.join("config.json");
    std::fs::write(&not_an_artifact, r#"{"ops": 400}"#).unwrap();
    let artifact = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e4.json");
    refused(&["show", "no-such-file.json"], "no-such-file.json");
    refused(&["show", &not_an_artifact.to_string_lossy()], "artifact");
    refused(&["show", artifact, "fault_matrix", "bogus"], "bogus");
    refused(&["show"], "file arguments");
    std::fs::remove_dir_all(dir).unwrap();
    let (code, stdout, _) = run(&["show", artifact, "fault_matrix"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\n[fault_matrix]\ndevice  "), "{stdout}");
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

/// Runs `args` with stdout a pipe the test closes after reading `lines`
/// lines: 0 closes it before the command prints anything, 1 is `| head -1`.
/// Returns the exit code and stderr.
fn with_reader_gone_after(lines: usize, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(BIN)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    for _ in 0..lines {
        stdout.read_line(&mut String::new()).expect("a line");
    }
    drop(stdout);
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let e10 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e10.json");
    let dir = std::env::temp_dir().join(format!("lastcpu-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join("f2.json");
    let artifact_arg = artifact.to_string_lossy();
    let commands: [&[&str]; 4] = [
        &["show", e10],
        &["diff", e10, e10],
        &["--help"],
        &["f2", "--no-wall", "--out", &artifact_arg],
    ];
    for lines in [0, 1] {
        for args in commands {
            let _ = std::fs::remove_file(&artifact);
            let (code, stderr) = with_reader_gone_after(lines, args);
            let what = format!("{args:?}, reader gone after {lines} line(s): {stderr}");
            assert!(!stderr.contains("panicked"), "{what}");
            assert_ne!(code, Some(101), "{what}");
            // The command's own status: `diff` of a file with itself passes.
            assert_eq!(code, Some(0), "{what}");
        }
        assert!(artifact.exists(), "f2 --out still writes its artifact");
    }
    std::fs::remove_dir_all(dir).unwrap();
}
