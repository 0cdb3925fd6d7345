//! Drives the benchmark binary at smoke scale (1/50 of the simulated work).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Mutex;

use lastcpu_bench::Json;

const BIN: &str = env!("CARGO_BIN_EXE_lastcpu-benchmark");
const CONTRACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
const WORKLOADS: [&str; 5] = [
    "kv_hot_get",
    "kv_ssd_mix",
    "ctl_setup_churn",
    "rack_kv",
    "rack_restore",
];

/// The runs are timed and the host has two cores: one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn bench(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn benchmark")
}

fn out_path(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).expect("test tmp dir");
    dir.join(name)
}

fn load(path: &Path) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn contract_names(section: &str) -> Vec<String> {
    let doc = load(Path::new(CONTRACT));
    let list = doc
        .get(section)
        .and_then(Json::as_arr)
        .expect("section is a list");
    list.iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn run_of<'a>(doc: &'a Json, workload: &str) -> &'a Json {
    doc.get("runs")
        .and_then(Json::as_arr)
        .expect("runs")
        .iter()
        .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .unwrap_or_else(|| panic!("no run of {workload}"))
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Every name in BENCHMARK.json is emitted, finite and well-formed; the
/// benchmark's own output checks — which on a traced run include the
/// layer-isolation asserts — all pass.
#[test]
fn traced_smoke_emits_every_metric() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = out_path("traced.json");
    let o = bench(&[
        "run",
        "--smoke",
        "--repeat",
        "1",
        "--trace",
        "1",
        "--out",
        out.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(
        o.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&o.stderr)
    );
    assert!(
        stdout.contains("layer ladder"),
        "no ladder printed:\n{stdout}"
    );
    assert!(
        stdout.contains("model unvalidated"),
        "validation statement missing"
    );

    let (e2e, layer) = (contract_names("end_to_end"), contract_names("per_layer"));
    assert!(
        e2e.len() <= 16 && layer.len() <= 128,
        "{} / {} metrics",
        e2e.len(),
        layer.len()
    );
    assert!(e2e.contains(&"setup_s".to_string()));
    let all: BTreeSet<&String> = e2e.iter().chain(&layer).collect();
    assert_eq!(
        all.len(),
        e2e.len() + layer.len(),
        "a metric name is used twice"
    );
    assert!(all.iter().all(|n| valid_name(n)), "malformed metric name");

    let doc = load(&out);
    for w in WORKLOADS {
        let run = run_of(&doc, w);
        assert_eq!(
            run.get("correct"),
            Some(&Json::Bool(true)),
            "{w}: {:?}",
            run.get("checks")
        );
        for (section, names) in [("end_to_end", &e2e), ("per_layer", &layer)] {
            let got = run
                .get(section)
                .and_then(Json::as_obj)
                .unwrap_or_else(|| panic!("{w}: no {section}"));
            let got_names: Vec<&String> = got.keys().collect();
            let mut want: Vec<&String> = names.iter().collect();
            want.sort();
            assert_eq!(
                got_names, want,
                "{w}: {section} names differ from BENCHMARK.json"
            );
            for (n, v) in got {
                let v = v
                    .as_f64()
                    .unwrap_or_else(|| panic!("{w}: {n} is not a number"));
                assert!(v.is_finite(), "{w}: {n} = {v}");
            }
        }
        for n in &e2e {
            let v = run
                .path(&format!("end_to_end.{n}"))
                .and_then(Json::as_f64)
                .unwrap();
            assert!(v > 0.0, "{w}: end-to-end metric {n} must never be 0");
        }
        let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{w}.jsonl"));
        let spans =
            std::fs::read_to_string(&trace).unwrap_or_else(|e| panic!("{}: {e}", trace.display()));
        for name in [
            "\"setup\"",
            "\"window\"",
            "\"slice\"",
            "\"rung.sim.queue_ns_per_op\"",
        ] {
            assert!(spans.contains(name), "{w}: span file has no {name} span");
        }
    }
}

/// Two runs at one seed: identical exact metrics, events and digests, and
/// `compare` finds nothing that differs at equal seed. Each run — all five
/// workloads — takes under 20 s.
#[test]
fn double_run_is_exact() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (a, b) = (out_path("a.json"), out_path("b.json"));
    for out in [&a, &b] {
        let started = std::time::Instant::now();
        let o = bench(&[
            "run",
            "--smoke",
            "--repeat",
            "1",
            "--seed",
            "12",
            "--out",
            out.to_str().unwrap(),
        ]);
        let took = started.elapsed().as_secs_f64();
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stdout));
        assert!(
            took < 20.0,
            "smoke run of all five workloads took {took:.1} s"
        );
    }
    let (da, db) = (load(&a), load(&b));
    let exact = [
        "sim_ops_per_s",
        "sim_p50_us",
        "sim_p99_us",
        "sim_p999_us",
        "sim_events_per_op",
    ];
    let allocs = ["allocs_per_event", "alloc_bytes_per_event"];
    for w in WORKLOADS {
        let (ra, rb) = (run_of(&da, w), run_of(&db, w));
        for key in ["state_digest", "events", "sim_ops", "attempted", "failed"] {
            assert_eq!(ra.get(key), rb.get(key), "{w}: {key}");
        }
        for m in exact {
            let path = format!("end_to_end.{m}");
            assert_eq!(ra.path(&path), rb.path(&path), "{w}: {m}");
        }
        // Allocation counts repeat to about one part in 10^5: here and there
        // a hash-seed-dependent table allocation comes and goes.
        for m in allocs {
            let get = |r: &Json| {
                r.path(&format!("end_to_end.{m}"))
                    .and_then(Json::as_f64)
                    .unwrap()
            };
            let (x, y) = (get(ra), get(rb));
            assert!((x - y).abs() <= 1e-3 * x, "{w}: {m} {x} vs {y}");
        }
    }
    let o = bench(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    let report = String::from_utf8_lossy(&o.stdout);
    assert!(!report.contains("differs at equal seed"), "{report}");
    assert!(report.contains("5 workloads compared"), "{report}");
    // A file against itself is the one comparison host noise cannot touch.
    let o = bench(&["compare", a.to_str().unwrap(), a.to_str().unwrap()]);
    assert_eq!(
        o.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&o.stdout)
    );
}

/// The driver's form: one workload, `--seconds`, `--trace`; the last stdout
/// line is the contract's object.
#[test]
fn contract_line() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = out_path(&format!("contract{trace}.json"));
        let o = bench(&[
            "run",
            "--workload",
            "ctl_setup_churn",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--out",
            out.to_str().unwrap(),
        ]);
        assert_eq!(o.status.code(), Some(0));
        let stdout = String::from_utf8_lossy(&o.stdout);
        let line = Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let got: Vec<&String> = line
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .keys()
            .collect();
        let mut want = contract_names(section);
        want.sort();
        assert_eq!(got, want.iter().collect::<Vec<_>>());
    }
}

#[test]
fn cli_is_strict() {
    for bad in [
        &["run", "--sede", "3"][..],
        &["run", "--workload", "kv_hot"],
        &["run", "--trace", "yes"],
        &["run", "--smoke", "extra"],
        &["list", "--json"],
        &["compare", "only-one.json"],
        &["bench"],
        &[],
    ] {
        let o = bench(bad);
        assert_eq!(o.status.code(), Some(2), "{bad:?} must exit 2");
        assert!(o.stdout.is_empty(), "{bad:?} must not print a result");
    }
    let o = bench(&["compare", "/nonexistent/a.json", "/nonexistent/b.json"]);
    assert_eq!(o.status.code(), Some(2));
    let o = bench(&["list"]);
    assert_eq!(o.status.code(), Some(0));
    let listing = String::from_utf8_lossy(&o.stdout);
    for name in contract_names("end_to_end")
        .iter()
        .chain(&contract_names("per_layer"))
    {
        assert!(listing.contains(name.as_str()), "list omits {name}");
    }
}
