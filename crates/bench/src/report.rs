//! The one report model: a reported number is declared once — name, value,
//! unit, direction, bound — next to the code that measures it, and the
//! printed table, the `BENCH_*.json` artifact and the regression diff are
//! all derived from that declaration.
//!
//! An experiment returns [`Cell`]s. A cell belongs to a `group` (one table),
//! is identified by ordered key/value pairs, and carries ordered
//! [`Metric`]s in the vocabulary `BENCHMARK.json` uses: `better` is
//! `higher`, `lower` or `exact`, `bound` the relative worsening tolerated
//! before [`diff`] calls a regression. Host-time metrics are marked
//! [`Metric::host`]; `--no-wall` drops them so reruns are byte-identical.

use crate::json::Json;
use crate::table::Table;

/// Artifact envelope revision.
pub const SCHEMA: f64 = 1.0;

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better; a drop beyond the bound is a regression.
    Higher,
    /// Smaller is better; a rise beyond the bound is a regression.
    Lower,
    /// Deterministic: any difference is a regression.
    Exact,
}

impl Better {
    const NAMES: [(Better, &'static str); 3] = [
        (Better::Higher, "higher"),
        (Better::Lower, "lower"),
        (Better::Exact, "exact"),
    ];

    fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(b, _)| *b == self)
            .expect("total")
            .1
    }
}

/// One reported number (or string, or flag).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Unique within its cell.
    pub name: String,
    /// `Json::Num`, `Json::Str` or `Json::Bool`.
    pub value: Json,
    /// Free text; empty for dimensionless values.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Relative worsening tolerated (0 for [`Better::Exact`]).
    pub bound: f64,
    /// Derived from the host clock: noise, omitted under `--no-wall`.
    pub host: bool,
}

/// One row of one table: an identified set of metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The table this row belongs to (`scaling`, `crash`, …).
    pub group: String,
    /// What distinguishes the row within its group, in display order.
    pub id: Vec<(String, Json)>,
    /// The measurements, in display order.
    pub metrics: Vec<Metric>,
}

macro_rules! num_into_json {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
num_into_json!(u32, u64, usize, f64);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.into())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// `x` rounded to `decimals` places, the way `{:.N}` prints it: what a
/// metric declares when the digits beyond that are not part of the claim.
pub fn round(x: f64, decimals: usize) -> f64 {
    let printed = format!("{x:.decimals$}");
    printed.parse().expect("a formatted float parses back")
}

/// Nanoseconds as microseconds (exact to the nanosecond).
pub fn us(d: lastcpu_sim::SimDuration) -> f64 {
    d.as_nanos() as f64 / 1_000.0
}

impl Cell {
    /// An empty row of `group`.
    pub fn new(group: &str) -> Cell {
        Cell {
            group: group.into(),
            id: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Adds an identifying key.
    pub fn id(mut self, key: &str, value: impl Into<Json>) -> Cell {
        self.id.push((key.into(), value.into()));
        self
    }

    fn metric(mut self, name: &str, value: Json, unit: &str, better: Better, bound: f64) -> Cell {
        assert!(self.get(name).is_none(), "metric {name} declared twice");
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            better,
            bound,
            host: false,
        });
        self
    }

    /// Declares a deterministic value: any difference is a regression.
    pub fn exact(self, name: &str, value: impl Into<Json>, unit: &str) -> Cell {
        self.metric(name, value.into(), unit, Better::Exact, 0.0)
    }

    /// Declares a larger-is-better number that may drop by `bound`.
    pub fn higher(self, name: &str, value: f64, unit: &str, bound: f64) -> Cell {
        self.metric(name, value.into(), unit, Better::Higher, bound)
    }

    /// Declares a smaller-is-better number that may rise by `bound`.
    pub fn lower(self, name: &str, value: f64, unit: &str, bound: f64) -> Cell {
        self.metric(name, value.into(), unit, Better::Lower, bound)
    }

    /// Marks the metric just declared as host-clock noise.
    pub fn host(mut self) -> Cell {
        self.metrics.last_mut().expect("a metric to mark").host = true;
        self
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<&Json> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// Metric `name` as a number; NaN — which fails every comparison a
    /// gate makes — when it is absent or not one.
    pub fn num(&self, name: &str) -> f64 {
        self.get(name).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }

    /// Whether metric `name` is exactly `value`.
    pub fn is(&self, name: &str, value: impl Into<Json>) -> bool {
        self.get(name) == Some(&value.into())
    }

    /// Identifying key `key`.
    pub fn key(&self, key: &str) -> Option<&Json> {
        self.id.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether key `key` is exactly `value`.
    pub fn key_is(&self, key: &str, value: impl Into<Json>) -> bool {
        self.key(key) == Some(&value.into())
    }

    /// Overwrites metric `name` (tests doctor reports with this).
    pub fn set(&mut self, name: &str, value: impl Into<Json>) {
        let m = self.metrics.iter_mut().find(|m| m.name == name);
        m.unwrap_or_else(|| panic!("no metric {name}")).value = value.into();
    }

    /// `group{k=v, …}` with keys sorted: what [`diff`] matches on.
    pub fn label(&self) -> String {
        let mut id: Vec<String> = self
            .id
            .iter()
            .map(|(k, v)| format!("{k}={}", show(v)))
            .collect();
        id.sort();
        format!("{}{{{}}}", self.group, id.join(", "))
    }
}

/// A scalar the way tables and messages print it.
pub fn show(v: &Json) -> String {
    match v {
        Json::Num(n) => n.to_string(),
        Json::Str(s) => s.clone(),
        Json::Bool(b) => b.to_string(),
        Json::Null => "-".into(),
        other => other.dump().trim().into(),
    }
}

/// One experiment run: the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Registry name (`e10`).
    pub experiment: String,
    /// `git rev-parse --short HEAD`, `-dirty` appended, or `unknown`.
    pub commit: String,
    /// The experiment's flag values.
    pub config: Json,
    /// Every row of every table.
    pub cells: Vec<Cell>,
}

/// The checked-out commit, for the envelope. Asked once per process:
/// `all` writes into the work tree, and its later artifacts must not read
/// `-dirty` because of its earlier ones.
pub fn commit() -> String {
    static COMMIT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let ask = || match (
        git(&["rev-parse", "--short", "HEAD"]),
        git(&["status", "--porcelain"]),
    ) {
        (Some(head), Some(status)) if !head.is_empty() => {
            format!("{head}{}", if status.is_empty() { "" } else { "-dirty" })
        }
        _ => "unknown".into(),
    };
    COMMIT.get_or_init(ask).clone()
}

fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `names`, deduplicated, first appearance first.
fn ordered<'a>(names: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    for n in names {
        if !out.contains(&n) {
            out.push(n);
        }
    }
    out
}

impl Report {
    /// The cells of `group`.
    pub fn group<'a>(&'a self, group: &'a str) -> impl Iterator<Item = &'a Cell> {
        self.cells.iter().filter(move |c| c.group == group)
    }

    /// A number from `config`.
    pub fn config_num(&self, key: &str) -> Option<f64> {
        self.config.get(key).and_then(Json::as_f64)
    }

    /// One table per group, columns = id keys then metrics.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for g in ordered(self.cells.iter().map(|c| c.group.as_str())) {
            let keys = ordered(
                self.group(g)
                    .flat_map(|c| c.id.iter().map(|(k, _)| k.as_str())),
            );
            let mut metrics: Vec<&Metric> = Vec::new();
            for m in self.group(g).flat_map(|c| &c.metrics) {
                if !metrics.iter().any(|seen| seen.name == m.name) {
                    metrics.push(m);
                }
            }
            let heads: Vec<String> = keys
                .iter()
                .map(|k| k.to_string())
                .chain(metrics.iter().map(|m| match m.unit.as_str() {
                    // Say the unit unless the name already does.
                    "" | "count" => m.name.clone(),
                    unit if m.name.ends_with(&format!("_{unit}")) => m.name.clone(),
                    unit => format!("{} ({unit})", m.name),
                }))
                .collect();
            let mut t = Table::new(&heads.iter().map(String::as_str).collect::<Vec<_>>());
            for c in self.group(g) {
                let cell = |v: Option<&Json>| v.map_or("-".into(), show);
                t.row_strings(
                    keys.iter()
                        .map(|k| cell(c.key(k)))
                        .chain(metrics.iter().map(|m| cell(c.get(&m.name))))
                        .collect(),
                );
            }
            out.push_str(&format!("[{g}]\n{}\n", t.render()));
        }
        out
    }

    /// The artifact: `{experiment, schema, commit, config, cells}`.
    pub fn to_json(&self) -> Json {
        let cells = self.cells.iter().map(|c| {
            let metrics = c.metrics.iter().map(|m| {
                // Defaults (no unit, exact, not host) are left out.
                let fields = [
                    ("name", Some(m.name.as_str().into())),
                    ("value", Some(m.value.clone())),
                    ("better", Some(m.better.name().into())),
                    ("unit", (!m.unit.is_empty()).then(|| m.unit.as_str().into())),
                    ("bound", (m.bound != 0.0).then(|| m.bound.into())),
                    ("host", m.host.then(|| true.into())),
                ];
                let present = fields
                    .into_iter()
                    .filter_map(|(k, v)| Some((k.to_string(), v?)));
                Json::Obj(present.collect())
            });
            obj([
                ("group", Json::Str(c.group.clone())),
                ("id", Json::Obj(c.id.iter().cloned().collect())),
                ("metrics", Json::Arr(metrics.collect())),
            ])
        });
        obj([
            ("experiment", Json::Str(self.experiment.clone())),
            ("schema", SCHEMA.into()),
            ("commit", Json::Str(self.commit.clone())),
            ("config", self.config.clone()),
            ("cells", Json::Arr(cells.collect())),
        ])
    }

    /// Reads an artifact back; anything missing or mistyped is an error.
    pub fn from_json(j: &Json) -> Result<Report, String> {
        let text = |j: &Json, k: &str| {
            let s = j.get(k).and_then(Json::as_str);
            s.map(String::from).ok_or(format!("missing string {k:?}"))
        };
        if j.get("schema").and_then(Json::as_f64) != Some(SCHEMA) {
            return Err(format!("not a schema-{SCHEMA} artifact"));
        }
        let list = |j: &Json, k: &str| {
            let items = j.get(k).and_then(Json::as_arr);
            items
                .map(<[Json]>::to_vec)
                .ok_or(format!("missing array {k:?}"))
        };
        let cells = list(j, "cells")?.into_iter().map(|c| {
            let id = c
                .get("id")
                .and_then(Json::as_obj)
                .ok_or("cell without \"id\"")?;
            let metrics = list(&c, "metrics")?.into_iter().map(|m| {
                let m = &m;
                let better = text(m, "better")?;
                let better = Better::NAMES.iter().find(|(_, n)| *n == better);
                Ok(Metric {
                    name: text(m, "name")?,
                    value: m.get("value").cloned().ok_or("metric without \"value\"")?,
                    unit: m.get("unit").and_then(Json::as_str).unwrap_or("").into(),
                    better: better.ok_or("bad \"better\"")?.0,
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                    host: m.get("host") == Some(&Json::Bool(true)),
                })
            });
            Ok(Cell {
                group: text(&c, "group")?,
                id: id.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
                metrics: metrics.collect::<Result<_, String>>()?,
            })
        });
        Ok(Report {
            experiment: text(j, "experiment")?,
            commit: text(j, "commit")?,
            config: j.get("config").cloned().ok_or("missing \"config\"")?,
            cells: cells.collect::<Result<_, String>>()?,
        })
    }

    /// Parses the artifact at `path`.
    pub fn read(path: &str) -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
        Report::from_json(&json).map_err(|e| format!("{path}: {e}"))
    }
}

/// What [`diff`] found, per metric.
#[derive(Debug, Default)]
pub struct Diff {
    /// One line per metric that moved and per cell or metric on one side.
    pub lines: Vec<String>,
    /// Metrics equal on both sides.
    pub unchanged: usize,
    /// Metrics that worsened by no more than their bound.
    pub within: usize,
    /// Metrics that moved the good way.
    pub improved: usize,
    /// Metrics that worsened beyond their bound, or exact ones that differ.
    pub regressed: usize,
    /// Cells or metrics present on one side only.
    pub one_sided: usize,
}

impl Diff {
    /// Whether the candidate fails the comparison.
    pub fn failed(&self) -> bool {
        self.regressed + self.one_sided > 0
    }
}

/// Compares `cand` against `base`: cells match on `(group, id)`, metrics on
/// name, the verdict comes from the baseline's declared direction and bound
/// (`host_tol`, a fraction, replaces the bound of host metrics). `commit`
/// is ignored.
pub fn diff(base: &Report, cand: &Report, host_tol: Option<f64>) -> Diff {
    let mut d = Diff::default();
    let labels = |r: &Report| r.cells.iter().map(Cell::label).collect::<Vec<_>>();
    let (base_labels, cand_labels) = (labels(base), labels(cand));
    for (b, label) in base.cells.iter().zip(&base_labels) {
        let Some(i) = cand_labels.iter().position(|l| l == label) else {
            d.one_sided += 1;
            d.lines.push(format!("{label}: only in the baseline"));
            continue;
        };
        let c = &cand.cells[i];
        for m in &b.metrics {
            let Some(v) = c.get(&m.name) else {
                d.one_sided += 1;
                d.lines
                    .push(format!("{label} {}: only in the baseline", m.name));
                continue;
            };
            let bound = host_tol.filter(|_| m.host).unwrap_or(m.bound);
            let (verdict, count) = match (m.value.as_f64(), v.as_f64(), m.better) {
                _ if m.value == *v => ("unchanged", &mut d.unchanged),
                (Some(x), Some(y), Better::Higher | Better::Lower) => {
                    // Worsening relative to the baseline; a zero baseline
                    // makes any worsening unbounded.
                    let sign = if m.better == Better::Lower { 1.0 } else { -1.0 };
                    let worse = sign * (y - x) / x.abs();
                    if worse <= 0.0 {
                        ("improved", &mut d.improved)
                    } else if worse <= bound {
                        ("within bound", &mut d.within)
                    } else {
                        ("REGRESSED", &mut d.regressed)
                    }
                }
                _ => ("REGRESSED (must be identical)", &mut d.regressed),
            };
            *count += 1;
            if verdict != "unchanged" {
                let (x, y) = (show(&m.value), show(v));
                d.lines
                    .push(format!("{label} {}: {x} -> {y} {verdict}", m.name));
            }
        }
        for m in c.metrics.iter().filter(|m| b.get(&m.name).is_none()) {
            d.one_sided += 1;
            d.lines
                .push(format!("{label} {}: only in the candidate", m.name));
        }
    }
    for label in cand_labels.iter().filter(|l| !base_labels.contains(l)) {
        d.one_sided += 1;
        d.lines.push(format!("{label}: only in the candidate"));
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            experiment: "e0".into(),
            commit: "abc1234".into(),
            config: obj([("ops", 120u64.into())]),
            cells: vec![
                Cell::new("scaling")
                    .id("policy", "static")
                    .id("machines", 2u64)
                    .exact("done", true, "")
                    .higher("agg_ops_per_sec", 1000.5, "1/s", 0.05)
                    .lower("p99_us", 80.0, "us", 0.1)
                    .lower("wall_s", 1.0, "s", 0.05)
                    .host()
                    .exact("hot_link", "m0.up", ""),
                Cell::new("summary").exact("leaked", 0u64, "count"),
            ],
        }
    }

    #[test]
    fn artifact_round_trips() {
        let r = sample();
        let text = r.to_json().dump();
        let back = Report::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().dump(), text);
        assert_eq!(back.cells[0].metrics, r.cells[0].metrics);
        assert_eq!(back.cells[0].label(), r.cells[0].label());
        assert!(Report::from_json(&Json::parse("{\"schema\": 1}").unwrap()).is_err());
    }

    #[test]
    fn table_has_a_column_per_key_and_metric() {
        let t = sample().render();
        assert!(t.contains("[scaling]") && t.contains("[summary]"), "{t}");
        assert!(
            t.contains("agg_ops_per_sec (1/s)") && t.contains("1000.5"),
            "{t}"
        );
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let base = sample();
        let mut cand = sample();
        cand.commit = "fffffff".into();
        assert!(
            !diff(&base, &cand, None).failed(),
            "commit alone is ignored"
        );

        cand.cells[0].set("agg_ops_per_sec", 960.0); // -4%: within 5%
        cand.cells[0].set("p99_us", 70.0); // improved
        let d = diff(&base, &cand, None);
        assert_eq!(
            (d.within, d.improved, d.regressed),
            (1, 1, 0),
            "{:?}",
            d.lines
        );
        cand.cells[0].set("p99_us", 90.0); // +12.5% > 10%
        assert_eq!(diff(&base, &cand, None).regressed, 1);
        cand.cells[0].set("p99_us", 80.0);

        cand.cells[0].set("wall_s", 1.2); // host: +20%
        assert!(diff(&base, &cand, None).failed());
        assert!(!diff(&base, &cand, Some(0.3)).failed());
        cand.cells[0].set("wall_s", 1.0);

        cand.cells[0].set("hot_link", "m1.up");
        cand.cells[1].set("leaked", 1u64);
        assert_eq!(
            diff(&base, &cand, None).regressed,
            2,
            "exact values must be identical"
        );
    }

    #[test]
    fn one_sided_cells_and_metrics_are_reported() {
        let base = sample();
        let mut cand = sample();
        cand.cells.pop();
        let d = diff(&base, &cand, None);
        assert!(
            d.failed() && d.lines[0].contains("only in the baseline"),
            "{:?}",
            d.lines
        );
        let d = diff(&cand, &base, None);
        assert!(
            d.failed() && d.lines[0].contains("only in the candidate"),
            "{:?}",
            d.lines
        );
        let mut cand = sample();
        cand.cells[0].metrics.retain(|m| !m.host);
        assert_eq!(diff(&base, &cand, None).one_sided, 1);
        assert_eq!(diff(&cand, &base, None).one_sided, 1);
    }
}
