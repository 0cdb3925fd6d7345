//! Machine-readable exporters for traces and metrics.
//!
//! Three formats, all hand-rolled (the workspace builds offline, so no serde):
//!
//! - [`trace_jsonl`]: one JSON object per line per retained record (read as
//!   a [`TraceView`]) — easy to grep, stream, and post-process.
//! - [`trace_chrome`]: Chrome `trace_event` JSON loadable in
//!   `about://tracing` / Perfetto. Each record becomes an instant event on a
//!   per-source track, and each correlation id additionally becomes an async
//!   span covering its first..last record, so one activity (e.g. the Figure 2
//!   init sequence) renders as a single span tree.
//! - [`metrics_prometheus`] / [`metrics_json`]: point-in-time snapshot of a
//!   [`MetricsHub`] as Prometheus text exposition or JSON.

use std::collections::BTreeMap;

use crate::metrics::MetricsHub;
use crate::profile::ProfileSnapshot;
use crate::stats::Histogram;
use crate::trace::{TraceSink, TraceView};

/// Escapes `s` into the body of a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn record_json(r: &TraceView<'_>) -> String {
    format!(
        "{{\"at_ns\":{},\"source\":\"{}\",\"corr\":{},\"kind\":\"{}\",\"what\":\"{}\"}}",
        r.at.as_nanos(),
        json_escape(r.source()),
        r.corr.0,
        r.data.kind(),
        json_escape(&r.what()),
    )
}

/// The retained trace as JSON-lines (one object per record, oldest first).
pub fn trace_jsonl(sink: &TraceSink) -> String {
    let mut out = String::new();
    for r in sink.events() {
        out.push_str(&record_json(&r));
        out.push('\n');
    }
    out
}

/// The retained trace in Chrome `trace_event` format (JSON object form).
///
/// Timestamps are microseconds of virtual time. Sources map to thread ids so
/// each subsystem gets its own track; correlation ids additionally emit
/// `b`/`e` async spans so Perfetto draws one bar per activity.
pub fn trace_chrome(sink: &TraceSink) -> String {
    let mut tids: BTreeMap<&str, u64> = BTreeMap::new();
    let mut spans: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // corr -> (first,last) ns
    for r in sink.events() {
        let next = tids.len() as u64 + 1;
        tids.entry(r.source()).or_insert(next);
        if r.corr.is_some() {
            let e = spans
                .entry(r.corr.0)
                .or_insert((r.at.as_nanos(), r.at.as_nanos()));
            e.0 = e.0.min(r.at.as_nanos());
            e.1 = e.1.max(r.at.as_nanos());
        }
    }

    let mut events: Vec<String> = Vec::new();
    // Thread (track) names.
    for (source, tid) in &tids {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(source)
        ));
    }
    // Async span per correlation id.
    for (corr, (first, last)) in &spans {
        let ts = *first as f64 / 1_000.0;
        // Zero-length spans still need a visible extent.
        let te = (*last).max(first + 1) as f64 / 1_000.0;
        events.push(format!(
            "{{\"name\":\"c{corr}\",\"cat\":\"span\",\"ph\":\"b\",\"id\":{corr},\
             \"pid\":1,\"tid\":0,\"ts\":{ts:.3}}}"
        ));
        events.push(format!(
            "{{\"name\":\"c{corr}\",\"cat\":\"span\",\"ph\":\"e\",\"id\":{corr},\
             \"pid\":1,\"tid\":0,\"ts\":{te:.3}}}"
        ));
    }
    // Instant event per record on its source's track.
    for r in sink.events() {
        let tid = tids[r.source()];
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
             \"tid\":{tid},\"ts\":{:.3},\"args\":{{\"corr\":\"{}\",\"what\":\"{}\"}}}}",
            json_escape(&r.what()),
            r.data.kind(),
            r.at.as_nanos() as f64 / 1_000.0,
            r.corr,
            json_escape(&r.what()),
        ));
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// Sanitizes a hub key into a Prometheus metric name component.
fn prom_name(key: &str) -> String {
    let mut out = String::with_capacity(key.len() + 8);
    out.push_str("lastcpu_");
    for c in key.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// A point-in-time snapshot of the hub in Prometheus text exposition format.
///
/// Counters and gauges map directly; histograms emit summary-style
/// `{quantile=..}` series plus `_sum` (nanoseconds) and `_count`.
pub fn metrics_prometheus(hub: &MetricsHub) -> String {
    let mut out = String::new();
    for (key, v) in hub.counters() {
        let name = prom_name(&key);
        out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
    }
    for (key, v) in hub.gauges() {
        let name = prom_name(&key);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
    }
    for (key, h) in hub.histograms() {
        let name = prom_name(&key);
        out.push_str(&format!("# TYPE {name} summary\n"));
        for (q, p) in [(0.5, 50.0), (0.9, 90.0), (0.99, 99.0), (1.0, 100.0)] {
            out.push_str(&format!(
                "{name}{{quantile=\"{q}\"}} {}\n",
                h.percentile(p).as_nanos()
            ));
        }
        out.push_str(&format!("{name}_sum {}\n", h.sum()));
        out.push_str(&format!("{name}_count {}\n", h.count()));
    }
    out
}

fn histogram_json(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\
         \"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
        h.count(),
        h.sum(),
        h.min().as_nanos(),
        h.mean().as_nanos(),
        h.percentile(50.0).as_nanos(),
        h.percentile(90.0).as_nanos(),
        h.percentile(99.0).as_nanos(),
        h.max().as_nanos(),
    )
}

/// A point-in-time snapshot of the hub as one JSON object.
pub fn metrics_json(hub: &MetricsHub) -> String {
    let counters: Vec<String> = hub
        .counters()
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
        .collect();
    let gauges: Vec<String> = hub
        .gauges()
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
        .collect();
    let hists: Vec<String> = hub
        .histograms()
        .iter()
        .map(|(k, h)| format!("\"{}\":{}", json_escape(k), histogram_json(h)))
        .collect();
    format!(
        "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}\n",
        counters.join(","),
        gauges.join(","),
        hists.join(",")
    )
}

/// A profile snapshot (see [`crate::profile::snapshot`]) as one JSON object.
///
/// Scopes are sorted by name so the output is diffable. When `include_wall`
/// is false every wall-clock field is omitted: the remaining numbers are
/// pure functions of the simulated run, so two same-seed runs export
/// byte-identical documents (the E12 determinism gate relies on this).
pub fn profile_json(snap: &ProfileSnapshot, include_wall: bool) -> String {
    let mut scopes: Vec<_> = snap.scopes.iter().collect();
    scopes.sort_by_key(|s| s.name);
    let rows: Vec<String> = scopes
        .iter()
        .map(|s| {
            let mut row = format!(
                "\"{}\":{{\"allocs\":{},\"alloc_bytes\":{},\"spans\":{},\"sim_ns\":{}",
                json_escape(s.name),
                s.allocs,
                s.alloc_bytes,
                s.spans,
                s.sim_ns
            );
            if include_wall {
                row.push_str(&format!(
                    ",\"wall_ns\":{},\"wall_root_ns\":{}",
                    s.wall_ns, s.wall_root_ns
                ));
            }
            row.push('}');
            row
        })
        .collect();
    format!(
        concat!(
            "{{\"scopes\":{{{}}},",
            "\"unattributed\":{{\"allocs\":{},\"alloc_bytes\":{}}},",
            "\"total_allocs\":{},",
            "\"attributed_alloc_fraction\":{:.6}}}\n"
        ),
        rows.join(","),
        snap.unattributed_allocs,
        snap.unattributed_bytes,
        snap.total_allocs(),
        snap.attributed_alloc_fraction(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CorrId, TraceData};
    use crate::time::{SimDuration, SimTime};

    /// Tiny structural JSON validator (objects/arrays/strings/numbers/bools).
    fn check_json(s: &str) -> Result<(), String> {
        let b: Vec<char> = s.chars().collect();
        let mut i = 0usize;
        fn ws(b: &[char], i: &mut usize) {
            while *i < b.len() && b[*i].is_whitespace() {
                *i += 1;
            }
        }
        fn value(b: &[char], i: &mut usize) -> Result<(), String> {
            ws(b, i);
            match b.get(*i) {
                Some('{') => {
                    *i += 1;
                    ws(b, i);
                    if b.get(*i) == Some(&'}') {
                        *i += 1;
                        return Ok(());
                    }
                    loop {
                        ws(b, i);
                        if b.get(*i) != Some(&'"') {
                            return Err(format!("expected key at {i}"));
                        }
                        string(b, i)?;
                        ws(b, i);
                        if b.get(*i) != Some(&':') {
                            return Err(format!("expected ':' at {i}"));
                        }
                        *i += 1;
                        value(b, i)?;
                        ws(b, i);
                        match b.get(*i) {
                            Some(',') => *i += 1,
                            Some('}') => {
                                *i += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("bad object at {i}")),
                        }
                    }
                }
                Some('[') => {
                    *i += 1;
                    ws(b, i);
                    if b.get(*i) == Some(&']') {
                        *i += 1;
                        return Ok(());
                    }
                    loop {
                        value(b, i)?;
                        ws(b, i);
                        match b.get(*i) {
                            Some(',') => *i += 1,
                            Some(']') => {
                                *i += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("bad array at {i}")),
                        }
                    }
                }
                Some('"') => string(b, i),
                Some(c) if c.is_ascii_digit() || *c == '-' => {
                    while *i < b.len()
                        && (b[*i].is_ascii_digit() || matches!(b[*i], '.' | '-' | '+' | 'e' | 'E'))
                    {
                        *i += 1;
                    }
                    Ok(())
                }
                Some('t') | Some('f') | Some('n') => {
                    while *i < b.len() && b[*i].is_ascii_alphabetic() {
                        *i += 1;
                    }
                    Ok(())
                }
                _ => Err(format!("unexpected token at {i}")),
            }
        }
        fn string(b: &[char], i: &mut usize) -> Result<(), String> {
            *i += 1; // opening quote
            while *i < b.len() {
                match b[*i] {
                    '\\' => *i += 2,
                    '"' => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => *i += 1,
                }
            }
            Err("unterminated string".into())
        }
        value(&b, &mut i)?;
        ws(&b, &mut i);
        if i != b.len() {
            return Err(format!("trailing garbage at {i}"));
        }
        Ok(())
    }

    fn sample_sink() -> TraceSink {
        let mut t = TraceSink::bounded(64);
        let (nic0, bus) = (t.name("nic0"), t.name("bus"));
        let query = TraceData::Discovery {
            pattern: t.name("file:*"),
            dst: t.name("Bus"),
        };
        t.emit_data(SimTime::from_nanos(100), nic0, CorrId(1), query);
        let hit = TraceData::Deliver {
            to: nic0,
            kind: "QueryHit",
        };
        t.emit_data(SimTime::from_nanos(350), bus, CorrId(1), hit);
        t.emit_corr(
            SimTime::from_nanos(700),
            "ssd0",
            CorrId(2),
            "quoted \"x\"\nline",
        );
        t
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let out = trace_jsonl(&sample_sink());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            check_json(line).unwrap();
        }
        assert!(lines[0].contains("\"corr\":1"));
        assert!(lines[1].contains("-> nic0: QueryHit"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_spans() {
        let out = trace_chrome(&sample_sink());
        check_json(&out).unwrap();
        assert!(out.contains("\"traceEvents\""));
        assert!(out.contains("\"ph\":\"b\""));
        assert!(out.contains("\"ph\":\"e\""));
        assert!(out.contains("\"ph\":\"i\""));
        assert!(out.contains("\"name\":\"c1\""));
    }

    #[test]
    fn prometheus_snapshot_has_all_metric_kinds() {
        let hub = MetricsHub::new();
        hub.counter_handle("bus.messages").add(7);
        hub.gauge_handle("nic.nic0.queue_depth").set(3);
        hub.histogram_handle("kvs.kvs0.latency")
            .record(SimDuration::from_micros(10));
        let out = metrics_prometheus(&hub);
        assert!(out.contains("# TYPE lastcpu_bus_messages counter"));
        assert!(out.contains("lastcpu_bus_messages 7"));
        assert!(out.contains("# TYPE lastcpu_nic_nic0_queue_depth gauge"));
        assert!(out.contains("lastcpu_kvs_kvs0_latency_count 1"));
        assert!(out.contains("quantile=\"0.5\""));
    }

    #[test]
    fn profile_json_sorts_scopes_and_gates_wall_fields() {
        use crate::profile::ScopeStats;
        let snap = ProfileSnapshot {
            scopes: vec![
                ScopeStats {
                    name: "zeta.scope",
                    allocs: 3,
                    alloc_bytes: 96,
                    spans: 2,
                    root_spans: 1,
                    wall_ns: 500,
                    wall_root_ns: 400,
                    sim_ns: 1_000,
                    wall_hist: Histogram::new(),
                },
                ScopeStats {
                    name: "alpha.scope",
                    allocs: 1,
                    alloc_bytes: 8,
                    spans: 1,
                    root_spans: 1,
                    wall_ns: 100,
                    wall_root_ns: 100,
                    sim_ns: 0,
                    wall_hist: Histogram::new(),
                },
            ],
            unattributed_allocs: 1,
            unattributed_bytes: 16,
        };
        let with_wall = profile_json(&snap, true);
        check_json(with_wall.trim()).unwrap();
        assert!(with_wall.contains("\"wall_ns\":500"));
        assert!(with_wall.find("alpha.scope").unwrap() < with_wall.find("zeta.scope").unwrap());
        let no_wall = profile_json(&snap, false);
        check_json(no_wall.trim()).unwrap();
        assert!(!no_wall.contains("wall"), "wall fields must be stripped");
        assert!(no_wall.contains("\"total_allocs\":5"));
        assert!(no_wall.contains("\"attributed_alloc_fraction\":0.800000"));
    }

    #[test]
    fn metrics_json_is_valid() {
        let hub = MetricsHub::new();
        hub.counter_handle("a.b\"c").incr(); // hostile key
        hub.histogram_handle("h.x").record_value(5);
        hub.gauge_handle("g.y").set(-4);
        let out = metrics_json(&hub);
        check_json(out.trim()).unwrap();
        assert!(out.contains("\"count\":1"));
    }
}
