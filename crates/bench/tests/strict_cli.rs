//! The experiment binaries reject flags they do not know: a stale
//! `--threads 4` or `--engine heap` (both removed along with the code they
//! selected) must exit 2 and name the flag instead of silently running the
//! default experiment.

use std::process::Command;

fn assert_rejected(exe: &str, args: &[&str]) {
    let out = Command::new(exe).args(args).output().expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{exe} {args:?} must exit 2, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(args[0]),
        "stderr must name {}: {stderr}",
        args[0]
    );
    assert!(
        out.stdout.is_empty(),
        "no experiment output before the error"
    );
}

#[test]
fn e10_rejects_the_removed_threads_flag() {
    assert_rejected(env!("CARGO_BIN_EXE_e10_rack_scaleout"), &["--threads", "4"]);
}

#[test]
fn e9_rejects_the_removed_engine_flag() {
    assert_rejected(
        env!("CARGO_BIN_EXE_e9_engine_throughput"),
        &["--engine", "heap"],
    );
}
