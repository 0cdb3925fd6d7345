//! Golden-file tests for the machine-readable exporters.
//!
//! The JSONL, Chrome `trace_event`, and Prometheus exports are consumed by
//! external tooling (grep pipelines, Perfetto, scrapers), so their exact
//! bytes are a compatibility surface: a formatting drift that every unit
//! test tolerates can still break a downstream parser. These tests pin each
//! exporter's output for a fixed virtual-time fixture byte-for-byte against
//! checked-in golden files.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p lastcpu-sim --test golden_export
//! ```
//!
//! The fixture uses only virtual time and fixed metric values — no wall
//! clock, hash-map order, or host dependence — so the outputs are stable
//! across machines and runs by construction.

use std::path::PathBuf;

use lastcpu_sim::export::{metrics_json, metrics_prometheus, trace_chrome, trace_jsonl};
use lastcpu_sim::{CorrId, MetricsHub, SimDuration, SimTime, TraceData, TraceSink};

/// A small trace exercising every syntactic corner the exporters must
/// handle: correlation ids, id-less records, JSON-hostile strings, and the
/// E12 record variants (`Stage`, `LinkHop`).
fn fixture_sink() -> TraceSink {
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
    let sub = TraceData::Stage {
        stage: "router.sub",
        id: (1 << 62) | 7,
        aux: 42,
    };
    let router = t.name("m0/kvs.router");
    t.emit_data(SimTime::from_nanos(700), router, CorrId::NONE, sub);
    let hop = TraceData::LinkHop {
        src_machine: 0,
        dst_machine: 1,
        bytes: 118,
        uplink_ns: 400,
        spine_ns: 2_600,
        downlink_ns: 250,
    };
    let fabric = t.name("fabric");
    t.emit_data(SimTime::from_nanos(1_200), fabric, CorrId(2), hop);
    let ssd0 = t.name("ssd0");
    let line = "quoted \"x\"\nnewline\ttab";
    t.emit_text(
        SimTime::from_nanos(2_000),
        ssd0,
        CorrId(2),
        TraceData::Text,
        line,
    );
    t
}

/// Fixed metric values covering all three metric kinds.
fn fixture_hub() -> MetricsHub {
    let hub = MetricsHub::new();
    hub.counter_handle("bus.messages").add(7);
    hub.counter_handle("engine.events").incr();
    hub.gauge_handle("nic.nic0.queue_depth").set(3);
    hub.gauge_handle("fabric.machines_dead").set(0);
    let latency = hub.histogram_handle("kvs.kvs0.latency");
    for ns in [100u64, 200, 400, 800, 100_000] {
        latency.record(SimDuration::from_nanos(ns));
    }
    hub
}

/// Compares `actual` against `tests/golden/<name>`, or rewrites the file
/// when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn jsonl_export_is_byte_stable() {
    check_golden("trace.jsonl", &trace_jsonl(&fixture_sink()));
}

#[test]
fn chrome_trace_export_is_byte_stable() {
    check_golden("trace_chrome.json", &trace_chrome(&fixture_sink()));
}

#[test]
fn prometheus_export_is_byte_stable() {
    check_golden("metrics.prom", &metrics_prometheus(&fixture_hub()));
}

#[test]
fn metrics_json_export_is_byte_stable() {
    check_golden("metrics.json", &metrics_json(&fixture_hub()));
}

/// Two identical fixtures export identically (no hidden iteration-order or
/// interior-mutability dependence) — the property the golden files rely on.
#[test]
fn exports_are_deterministic_across_instances() {
    assert_eq!(trace_jsonl(&fixture_sink()), trace_jsonl(&fixture_sink()));
    assert_eq!(trace_chrome(&fixture_sink()), trace_chrome(&fixture_sink()));
    assert_eq!(
        metrics_prometheus(&fixture_hub()),
        metrics_prometheus(&fixture_hub())
    );
    assert_eq!(metrics_json(&fixture_hub()), metrics_json(&fixture_hub()));
}
