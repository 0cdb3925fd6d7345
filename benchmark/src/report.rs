//! What a run produces: the outcome of one workload, its JSON form, the
//! printed metric list and the layer ladder.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use lastcpu_bench::{Json, Table};

use crate::calib::REF_NOMINAL_NS;
use crate::metrics::{self, Values};
use crate::workloads::Check;

pub const SCHEMA: f64 = 1.0;
/// The hardware-simulation rule: no reference results, no error figure.
pub const VALIDATION: &str = "model unvalidated: the repository holds no measurement of real \
CPU-less hardware and no more detailed model, so simulated figures carry no error estimate";

/// One measured run of one workload.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub scale: f64,
    pub end_to_end: Values,
    /// Present on a traced run only.
    pub per_layer: Option<Values>,
    pub attempted: u64,
    pub failed: u64,
    pub events: u64,
    pub sim_ops: u64,
    pub state_digest: u64,
    pub raw_setup_s: f64,
    pub raw_host_s: f64,
    pub host_cal_factor: f64,
    pub checks: Vec<Check>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }

    pub fn failed_frac(&self) -> f64 {
        metrics::ratio(self.failed, self.attempted)
    }

    pub fn json(&self) -> Json {
        let values = |v: &Values| obj(v.0.iter().map(|(n, x)| (n.as_str(), Json::Num(*x))));
        let mut fields = vec![
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("scale", Json::Num(self.scale)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_frac", Json::Num(self.failed_frac())),
            ("events", Json::Num(self.events as f64)),
            ("sim_ops", Json::Num(self.sim_ops as f64)),
            (
                "state_digest",
                Json::Str(format!("{:016x}", self.state_digest)),
            ),
            ("raw_setup_s", Json::Num(self.raw_setup_s)),
            ("raw_host_s", Json::Num(self.raw_host_s)),
            ("host_cal_factor", Json::Num(self.host_cal_factor)),
            (
                "checks",
                obj(self.checks.iter().map(|&(n, ok)| (n, Json::Bool(ok)))),
            ),
            ("end_to_end", values(&self.end_to_end)),
        ];
        if let Some(layer) = &self.per_layer {
            fields.push(("per_layer", values(layer)));
        }
        obj(fields)
    }

    /// The line the benchmark contract asks for: end-to-end metrics from an
    /// untraced run, per-layer metrics from a traced one.
    pub fn contract_line(&self) -> String {
        let (values, units): (&Values, BTreeMap<String, &str>) = match &self.per_layer {
            Some(layer) => (
                layer,
                metrics::per_layer()
                    .into_iter()
                    .map(|(n, u, _, _)| (n, u))
                    .collect(),
            ),
            None => (
                &self.end_to_end,
                metrics::END_TO_END
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit))
                    .collect(),
            ),
        };
        let metrics = obj(values.0.iter().map(|(n, x)| {
            let unit = Json::Str(units[n.as_str()].into());
            (n.as_str(), obj([("value", Json::Num(*x)), ("unit", unit)]))
        }));
        dump(&obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ]))
    }

    /// Every metric by name with its unit, then the checks.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, scale {}) ==",
            self.workload, self.seed, self.scale
        );
        let mut t = Table::new(&["metric", "value", "unit", "kind"]);
        for m in &metrics::END_TO_END {
            let v = self.end_to_end.value(m.name);
            t.row_strings(vec![
                m.name.into(),
                fmt(v),
                m.unit.into(),
                m.kind.label().into(),
            ]);
        }
        for (name, v, unit) in [
            ("failed_frac", self.failed_frac(), "frac"),
            ("raw_setup_s", self.raw_setup_s, "s"),
            ("raw_host_s", self.raw_host_s, "s"),
            ("host_cal_factor", self.host_cal_factor, "ratio"),
            ("events", self.events as f64, "count"),
            ("sim_ops", self.sim_ops as f64, "count"),
        ] {
            t.row_strings(vec![name.into(), fmt(v), unit.into(), "information".into()]);
        }
        if let Some(layer) = &self.per_layer {
            for (name, unit, _, kind) in metrics::per_layer() {
                let v = layer.value(&name);
                t.row_strings(vec![name, fmt(v), unit.into(), kind.label().into()]);
            }
        }
        t.print();
        println!("state_digest {:016x}", self.state_digest);
        for &(name, ok) in &self.checks {
            println!("check {}: {name}", if ok { "ok  " } else { "FAIL" });
        }
        println!();
    }
}

fn fmt(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The result document around a list of runs.
pub fn document(runs: Vec<Json>) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("schema", Json::Num(SCHEMA)),
        ("model_validation", Json::Str(VALIDATION.into())),
        ("host_cores", Json::Num(cores as f64)),
        ("ref_nominal_ns", Json::Num(REF_NOMINAL_NS)),
        ("runs", Json::Arr(runs)),
    ])
}

/// Serializes `j` (numbers with all their digits).
pub fn dump(j: &Json) -> String {
    let mut out = String::new();
    write_json(j, &mut out);
    out
}

fn write_json(j: &Json, out: &mut String) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Num(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_json(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_json(&Json::Str(k.clone()), out);
                out.push_str(": ");
                write_json(v, out);
            }
            out.push('}');
        }
    }
}

/// One run of `doc` for `workload`, if it has any.
fn first_run<'a>(runs: &'a [Json], workload: &str) -> Option<&'a Json> {
    runs.iter()
        .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
}

/// The layer ladder: queue → engine+bus → engine+net → machine → rack, at
/// one commit, in calibrated ns per event with allocations per event and
/// events per op — the itemisation of the queue-to-machine gap.
pub fn print_ladder(runs: &[Json]) {
    let num = |r: &Json, path: &str| r.path(path).and_then(Json::as_f64);
    let (Some(machine), Some(rack)) = (first_run(runs, "kv_hot_get"), first_run(runs, "rack_kv"))
    else {
        return;
    };
    // Rungs are the same in every traced run; take kv_hot_get's.
    let layer = |name: &str| {
        machine
            .get("per_layer")
            .and_then(|l| l.get(name))
            .and_then(Json::as_f64)
    };
    let Some(queue_ns) = layer("sim.queue_ns_per_op") else {
        println!("(layer ladder needs a traced run: --trace 1)");
        return;
    };
    let mut t = Table::new(&[
        "rung",
        "metric",
        "cal ns/event",
        "allocs/event",
        "events/op",
        "x queue",
    ]);
    let mut row = |rung: &str, metric: &str, ns: f64, allocs: Option<f64>, epo: Option<f64>| {
        let opt = |v: Option<f64>| v.map_or("-".into(), |v| format!("{v:.3}"));
        t.row_strings(vec![
            rung.into(),
            metric.into(),
            format!("{ns:.1}"),
            opt(allocs),
            opt(epo),
            format!("{:.1}", ns / queue_ns),
        ]);
    };
    row(
        "event queue",
        "sim.queue_ns_per_op",
        queue_ns,
        layer("sim.queue_allocs_per_op"),
        None,
    );
    for (rung, ns, allocs) in [
        (
            "engine + timers",
            "core.idle_event_ns",
            "core.idle_allocs_per_event",
        ),
        (
            "engine + net",
            "core.net_event_ns",
            "core.net_allocs_per_event",
        ),
    ] {
        row(rung, ns, layer(ns).unwrap_or(f64::NAN), layer(allocs), None);
    }
    let e2e = |r: &Json, name: &str| num(r, &format!("end_to_end.{name}"));
    for (rung, metric, r) in [
        ("one machine", "core.machine_event_ns", machine),
        ("32-machine rack", "fabric.rack_event_ns", rack),
    ] {
        let ns = 1e9 / e2e(r, "host_events_per_s").unwrap_or(f64::NAN);
        row(
            rung,
            metric,
            ns,
            e2e(r, "allocs_per_event"),
            e2e(r, "sim_events_per_op"),
        );
    }
    println!(
        "layer ladder (calibrated host ns per event; last column is the ratio to the bare queue):"
    );
    t.print();
    let ratio = e2e(machine, "host_events_per_s").unwrap_or(f64::NAN)
        / e2e(rack, "host_events_per_s").unwrap_or(f64::NAN);
    println!("fabric.rack_over_machine = {ratio:.3}");
    println!();
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
