//! `compare A.json B.json`: did B get worse than A?
//!
//! Exact metrics, `events` and `state_digest` must be identical at equal
//! seed and scale. Calibrated metrics compare the medians over each file's
//! repeats against the bound `BENCHMARK.json` fixes, and are reported
//! *unresolved* — not *unchanged* — when the run-to-run quartile spread
//! is wider than that bound.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use lastcpu_bench::{Json, Table};

use crate::metrics::{self, Kind};

/// `BENCHMARK.json` sits beside the benchmark's directory.
const CONTRACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
/// A slower set-up counts only when it is also this much slower in seconds:
/// the cheapest set-ups take a few milliseconds.
const SETUP_FLOOR_S: f64 = 0.05;

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// End-to-end metric name → regression bound, from `BENCHMARK.json`.
pub fn bounds() -> BTreeMap<String, f64> {
    let doc = load(Path::new(CONTRACT)).unwrap_or_else(|e| panic!("{e}"));
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json has end_to_end");
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("metric name");
            let bound = m.get("bound").and_then(Json::as_f64).expect("metric bound");
            (name.to_string(), bound)
        })
        .collect()
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median
/// (Python's `statistics.quantiles(v, n=4)`); 0 with fewer than two values.
pub fn quartile_spread(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let q = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (q(3) - q(1)) / median(s.clone())
}

/// The runs of one workload in a result file.
fn runs_of<'a>(doc: &'a Json, workload: &str) -> Vec<&'a Json> {
    let runs = doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .collect()
}

fn values(runs: &[&Json], path: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.path(path).and_then(Json::as_f64))
        .collect()
}

#[derive(Clone, Copy, PartialEq)]
enum Verdict {
    Unchanged,
    Improved,
    /// Run-to-run spread is wider than the bound: no claim either way.
    Unresolved,
    Regression(&'static str),
}

struct Row {
    metric: String,
    /// Medians of A and B; absent for identity checks.
    medians: Option<(f64, f64)>,
    spread: Option<f64>,
    verdict: Verdict,
}

fn field(r: &Json, path: &str) -> Option<String> {
    match r.path(path)? {
        Json::Str(s) => Some(s.clone()),
        Json::Num(n) => Some(n.to_string()),
        _ => None,
    }
}

/// Compares the runs of one workload in A (`ra`) and B (`rb`).
fn compare_workload(ra: &[&Json], rb: &[&Json], bounds: &BTreeMap<String, f64>) -> Vec<Row> {
    let mut rows = Vec::new();
    let all: Vec<&Json> = ra.iter().chain(rb).copied().collect();
    let agree = |path: &str| all.iter().all(|r| field(r, path) == field(all[0], path));
    // Exact figures are only comparable between runs of the same input.
    let same_input = agree("seed") && agree("scale");
    if same_input {
        let exact = metrics::END_TO_END.iter().filter(|m| m.kind == Kind::Exact);
        let paths = ["state_digest".to_string(), "events".to_string()]
            .into_iter()
            .chain(exact.map(|m| format!("end_to_end.{}", m.name)));
        for path in paths {
            rows.push(Row {
                metric: path.trim_start_matches("end_to_end.").to_string(),
                medians: None,
                spread: None,
                verdict: if agree(&path) {
                    Verdict::Unchanged
                } else {
                    Verdict::Regression("differs at equal seed")
                },
            });
        }
    }

    let (fa, fb) = (
        median(values(ra, "failed_frac")),
        median(values(rb, "failed_frac")),
    );
    rows.push(Row {
        metric: "failed_frac".into(),
        medians: Some((fa, fb)),
        spread: None,
        verdict: if fb > fa {
            Verdict::Regression("more operations fail")
        } else {
            Verdict::Unchanged
        },
    });

    for m in metrics::END_TO_END
        .iter()
        .filter(|m| m.kind != Kind::Exact || !same_input)
    {
        let path = format!("end_to_end.{}", m.name);
        let (va, vb) = (values(ra, &path), values(rb, &path));
        let (ma, mb) = (median(va.clone()), median(vb.clone()));
        let bound = bounds[m.name];
        let spread = quartile_spread(&va).max(quartile_spread(&vb));
        let lower = m.better == "lower";
        // Positive = B is worse, as a share of A's median.
        let worse = if lower { mb / ma - 1.0 } else { 1.0 - mb / ma };
        let every_b_better = vb
            .iter()
            .all(|&b| va.iter().all(|&a| if lower { b < a } else { b > a }));
        let above_floor = m.name != "setup_s" || (mb - ma).abs() > SETUP_FLOOR_S;
        let verdict = if worse > bound && above_floor {
            Verdict::Regression("median worse than the bound allows")
        } else if spread > bound && !every_b_better {
            Verdict::Unresolved
        } else if worse < -bound {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        rows.push(Row {
            metric: m.name.into(),
            medians: Some((ma, mb)),
            spread: Some(spread),
            verdict,
        });
    }
    rows
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (doc_a, doc_b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let bounds = bounds();
    let mut table = Table::new(&[
        "workload", "metric", "A median", "B median", "change", "spread", "verdict",
    ]);
    let (mut regressions, mut unresolved, mut compared) = (0, 0, 0);
    for w in &crate::workloads::WORKLOADS {
        let (ra, rb) = (runs_of(&doc_a, w.name), runs_of(&doc_b, w.name));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        compared += 1;
        for row in compare_workload(&ra, &rb, &bounds) {
            let (ma, mb, change) = match row.medians {
                Some((ma, mb)) if ma != 0.0 => (
                    format!("{ma:.6}"),
                    format!("{mb:.6}"),
                    format!("{:+.2}%", 100.0 * (mb / ma - 1.0)),
                ),
                Some((ma, mb)) => (format!("{ma:.6}"), format!("{mb:.6}"), "-".into()),
                None => ("-".into(), "-".into(), "-".into()),
            };
            let verdict = match row.verdict {
                Verdict::Unchanged => "unchanged".to_string(),
                Verdict::Improved => "improved".to_string(),
                Verdict::Unresolved => {
                    unresolved += 1;
                    "unresolved: spread exceeds bound".to_string()
                }
                Verdict::Regression(why) => {
                    regressions += 1;
                    format!("REGRESSION: {why}")
                }
            };
            let spread = row
                .spread
                .map_or("-".into(), |s| format!("{:.2}%", 100.0 * s));
            table.row_strings(vec![
                w.name.into(),
                row.metric,
                ma,
                mb,
                change,
                spread,
                verdict,
            ]);
        }
    }
    if compared == 0 {
        eprintln!("error: the two files share no workload");
        return ExitCode::from(2);
    }
    table.print();
    println!("{compared} workloads compared: {regressions} regressions, {unresolved} unresolved");
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((quartile_spread(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }
}
