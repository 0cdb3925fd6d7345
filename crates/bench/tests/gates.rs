//! Nothing was lost in translation: every gate that used to be a Python
//! assert in `scripts/ci.sh`, a candidate-side rule in `bench_diff` or an
//! in-binary assert lives in an experiment's `check`, and each one fails
//! when a passing smoke report is doctored to violate it.

use std::sync::OnceLock;

use lastcpu_bench::exp::Experiment;
use lastcpu_bench::report::Report;
use lastcpu_bench::Json;

/// `artifact | group (* = any) | label parts, &-joined | metric | doctoring | what the
/// gate must say`. The doctoring is a JSON value to set, `UNSET` (remove the
/// metric), `HOST` (mark it host-clock) or `DROP` (remove the cells).
const CASES: &str = "\
BENCH_e9.json    | phase | phase=queue  | events           | 0    | queue: no events retired
BENCH_e9.json    | phase | phase=system | allocs_per_event | 0.051 | system: allocs/event 0.051 > 0.039
BENCH_e9.json    | phase | phase=rack   | allocs_per_event | 0.616 | rack: allocs/event 0.616 > 0.251
BENCH_e9.json    | phase | phase=rack   | alloc_bytes_per_event | 90.2 | rack: alloc bytes/event 90.2 > 66.4
BENCH_e9.json    | phase | phase=ssd    | allocs_per_event | 0.2 | ssd: allocs/event 0.2 > 0.167
BENCH_e9.json    | phase | phase=ssd    | alloc_bytes_per_event | 51.8 | ssd: alloc bytes/event 51.8 > 22.9
BENCH_e9.json    | phase | phase=ctl    | allocs_per_event | 0.478 | ctl: allocs/event 0.478 > 0.188
BENCH_e9.json    | phase | phase=ctl    | alloc_bytes_per_event | 45.4 | ctl: alloc bytes/event 45.4 > 15.1
BENCH_e9.json    | phase | phase=ssd    | ftl_gc_runs      | 0    | ssd: no garbage collection
BENCH_e9.json    | phase | phase=ssd    | flash_stored_bytes | 8011776 | ssd: flash stored bytes 8011776 > 3470000
BENCH_e9.json    | phase | phase=trace  | allocs_per_event | 0.001 | trace: allocs/event 0.001 > 0
BENCH_e10.json   | *       | machines=2 & replication=1 |                | DROP | matrix incomplete at 2 machines x R=1
BENCH_e10.json   | scaling | machines=2 & replication=2 | ops             | 239  | incomplete (239 ops)
BENCH_e10.json   | scaling | machines=2 & replication=2 | fabric_bytes    | 0    | no fabric traffic
BENCH_e10.json   | scaling | machines=2 & replication=2 | failovers       | 3    | 3 failovers > 1% of ops
BENCH_e10.json   | scaling | machines=2 & replication=2 | give_ups        | 1    | 1 give_ups without a fault
BENCH_e10.json   | scaling | machines=2 & replication=2 | client_timeouts | 1    | 1 client_timeouts without a fault
BENCH_e10.json   | crash   | replication=2             | timeouts        | 1    | 1 client timeouts with R >= 2
BENCH_e10.json   | crash   | replication=2             | errors          | 1    | 1 client errors with R >= 2
BENCH_e10.json   | crash   | replication=2             | lost_acked_keys | 1    | lost 1 acknowledged writes
BENCH_e10.json   | crash   | replication=1             | lost_acked_keys | 0    | the R=1 control lost nothing
BENCH_e10.2.json | scaling | replication=3             | p99_us          | 1e9  | > 2x R=2
BENCH_e10.3.json | scaling | topology=leaf-spine:8     | links           | 39   | 39 links, expected 40
BENCH_e10.3.json | scaling | topology=leaf-spine:8     | hot_link        | \"\" | no hot link named
BENCH_e11.json   | summary |                      | leaked_total_hardened | 1     | SECURITY LEAK
BENCH_e11.json   | single  | policy=hardened      | leaked_total          | 1     | leak, integrity violation
BENCH_e11.json   | single  | policy=hardened      | integrity_ok          | false | leak, integrity violation
BENCH_e11.json   | single  | policy=hardened      | client_errors         | 1     | client errors
BENCH_e11.json   | *       | kind=ssdp-spoof      |                       | DROP  | attack kinds
BENCH_e11.json   | rack    |                      | lost_acked_keys       | 1     | lost acknowledged writes
BENCH_e12.json   | attribution        | phase=system | attributed_alloc_fraction | 0.94 | system: attributed_alloc_fraction 0.94
BENCH_e12.json   | attribution        | phase=rack   | attributed_alloc_fraction | 0.94 | rack: attributed_alloc_fraction 0.94
BENCH_e12.json   | attribution        | phase=system | events                    | HOST | host metric under --no-wall
BENCH_e12.json   | scopes             | scope=fabric.dir_query |                 | DROP | no fabric.dir_query spans
BENCH_e12.json   | critical_path      |              | incomplete                | 1    | 1 client-issued operations have no critical path
BENCH_e12.json   | critical_path      |              | worst_sum_error           | 0.06 | worst_sum_error 0.06 > 0.05
BENCH_e12.json   | critical_path.rows | percentile=99} | total_ns                | 1    | segments sum to
BENCH_e14.json   | restore             | crash=true  | lost_acked_keys       | 1     | crash cell lost acknowledged writes
BENCH_e14.json   | cross_process_audit |             | ok                    | false | cross-process restart audit
BENCH_f2.json    | summary |         | trace_records_well_formed | 1     | trace shape: 1 of
BENCH_f2.json    | summary |         | trace_correlation_ids     | 1     | 1 correlation ids
BENCH_f2.json    | steps   | step=6b | t_us                      | UNSET | not found in the trace
BENCH_e4.json    | fault_matrix | device=hang & wire=drop | replays_bit_identical | false | diverged
BENCH_e4.json    | fault_matrix | device=hang & wire=drop | figure2_reinit        | false | Figure-2 re-init";

/// One `all --smoke --no-wall --check` run, shared by every test: the
/// artifacts CI gates on, read back.
fn smoke(file: &str) -> Report {
    static DIR: OnceLock<String> = OnceLock::new();
    let dir = DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("lastcpu-gates-{}", std::process::id()));
        let dir = dir.to_string_lossy().into_owned();
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_lastcpu-bench"))
            .args(["all", "--smoke", "--no-wall", "--check", "--out-dir", &dir])
            .stdout(std::process::Stdio::null())
            .status();
        assert!(
            status.expect("spawn").success(),
            "the smoke run must pass its own gates"
        );
        dir
    });
    Report::read(&format!("{dir}/{file}")).expect("smoke artifact")
}

fn violations(r: &Report) -> Vec<String> {
    Experiment::find(&r.experiment)
        .expect("registered")
        .violations(r)
}

#[test]
fn each_gate_fails_on_a_doctored_smoke_report() {
    for case in CASES.lines() {
        let [file, group, parts, metric, doctoring, expect] =
            case.split('|').map(str::trim).collect::<Vec<_>>()[..]
        else {
            panic!("six columns: {case}");
        };
        let mut r = smoke(file);
        assert_eq!(
            violations(&r),
            Vec::<String>::new(),
            "{file} passes undoctored"
        );
        let picked = |c: &lastcpu_bench::report::Cell| {
            let label = c.label();
            (group == "*" || c.group == group) && parts.split('&').all(|p| label.contains(p.trim()))
        };
        assert!(r.cells.iter().any(picked), "{case}: no such cell");
        if doctoring == "DROP" {
            r.cells.retain(|c| !picked(c));
        }
        for c in r.cells.iter_mut().filter(|c| picked(c)) {
            match doctoring {
                "UNSET" => c.metrics.retain(|m| m.name != metric),
                "HOST" => c
                    .metrics
                    .iter_mut()
                    .filter(|m| m.name == metric)
                    .for_each(|m| m.host = true),
                value => c.set(metric, Json::parse(value).expect("a JSON value")),
            }
        }
        let v = violations(&r);
        assert!(v.iter().any(|m| m.contains(expect)), "{case}: got {v:?}");
    }
}

#[test]
fn smoke_artifacts_carry_one_commit_and_survive_a_round_trip() {
    let e10 = smoke("BENCH_e10.json");
    assert_eq!(e10.commit, smoke("BENCH_f2.json").commit);
    let again = Report::from_json(&Json::parse(&e10.to_json().dump()).unwrap()).unwrap();
    assert_eq!(again.to_json().dump(), e10.to_json().dump());
}
