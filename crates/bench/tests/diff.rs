//! `lastcpu-bench diff` exit codes: 0 = the candidate holds, 1 = it
//! regressed (or a cell went missing), 2 = an input could not be read.

use lastcpu_bench::exp;
use lastcpu_bench::report::{Cell, Report};
use lastcpu_bench::Json;

/// A minimal report of an experiment without gates of its own.
fn report() -> Report {
    Report {
        experiment: "e8".into(),
        commit: "abc1234".into(),
        config: Json::parse(r#"{"wall": true}"#).unwrap(),
        cells: vec![
            Cell::new("churn")
                .id("schedule", "uniform 4K")
                .exact("denied", 0u64, "count")
                .lower("wall_s", 1.0, "s", 0.05)
                .host(),
            Cell::new("churn")
                .id("schedule", "large 1M")
                .exact("denied", 0u64, "count"),
        ],
    }
}

/// Writes `base` and `cand`, runs `diff base cand [flags]`, returns the exit code.
fn diff(base: &Report, cand: &str, flags: &[&str]) -> i32 {
    static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lastcpu-diff-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |f: &str| dir.join(f).to_string_lossy().into_owned();
    std::fs::write(path("base.json"), base.to_json().dump()).unwrap();
    std::fs::write(path("cand.json"), cand).unwrap();
    let mut argv = vec!["diff".to_string(), path("base.json"), path("cand.json")];
    argv.extend(flags.iter().map(|f| f.to_string()));
    let code = exp::main(&argv);
    std::fs::remove_dir_all(dir).unwrap();
    code
}

#[test]
fn exit_codes() {
    let base = report();
    let against = |doctor: fn(&mut Report), flags: &[&str]| {
        let mut cand = report();
        doctor(&mut cand);
        diff(&base, &cand.to_json().dump(), flags)
    };
    // The commit alone is ignored.
    assert_eq!(against(|c| c.commit = "fffffff-dirty".into(), &[]), 0);
    // +20% host time: 5% is allowed by default, `--host-tol` says otherwise.
    assert_eq!(against(|c| c.cells[0].set("wall_s", 1.2), &[]), 1);
    assert_eq!(
        against(|c| c.cells[0].set("wall_s", 1.2), &["--host-tol", "30"]),
        0
    );
    // An exact metric moved.
    assert_eq!(against(|c| c.cells[1].set("denied", 1u64), &[]), 1);
    // A cell or a metric on one side only is reported, never skipped.
    assert_eq!(against(|c| drop(c.cells.pop()), &[]), 1);
    assert_eq!(against(|c| c.cells.push(Cell::new("extra")), &[]), 1);
    assert_eq!(against(|c| drop(c.cells[0].metrics.pop()), &[]), 1);
    // Unreadable input, the pre-envelope shape, a missing operand.
    assert_eq!(diff(&base, "{\"experiment\": \"e8\"", &[]), 2);
    assert_eq!(
        diff(
            &base,
            "{\"experiment\": \"e8\", \"schema_version\": 2}",
            &[]
        ),
        2
    );
    assert_eq!(exp::main(&["diff".into(), "only-one.json".into()]), 2);
}
