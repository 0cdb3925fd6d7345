//! The metric registry: every name the benchmark emits, once. `list`
//! prints it, `BENCHMARK.json` repeats it (a test keeps the two equal), and
//! a run fails if it leaves a registered metric unset.

/// How a metric's value comes about, which decides how two runs compare.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time, in calibrated units: compared by medians within a bound.
    Calibrated,
    /// Host-side and not a time: peak RSS, and the allocation figures, which
    /// repeat only to about one part in 10^5 — a table allocation comes and
    /// goes with the process's hash seed (README, baseline facts). Compared
    /// like calibrated metrics.
    Host,
    /// A count or virtual-time figure that repeats bit-for-bit at a seed.
    Exact,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Calibrated => "host, calibrated",
            Kind::Host => "host",
            Kind::Exact => "exact",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind,
    }
}

use Kind::{Calibrated as C, Exact as X, Host as H};

/// What a user of the simulator sees. *host* = cost of simulating, *sim* =
/// virtual time of the modelled CPU-less system.
pub const END_TO_END: [Metric; 11] = [
    m("setup_s", "s", "lower", C),
    m("host_s", "s", "lower", C),
    m("host_events_per_s", "1/s", "higher", C),
    m("peak_rss_mib", "MiB", "lower", H),
    m("allocs_per_event", "count", "lower", H),
    m("alloc_bytes_per_event", "B", "lower", H),
    m("sim_ops_per_s", "1/s", "higher", X),
    m("sim_p50_us", "us", "lower", X),
    m("sim_p99_us", "us", "lower", X),
    m("sim_p999_us", "us", "lower", X),
    m("sim_events_per_op", "count", "lower", X),
];

/// The profiler scopes the traced run reports (they exist in the library
/// today; the benchmark adds none).
pub const SCOPES: [&str; 10] = [
    "engine.pop",
    "engine.deliver",
    "engine.net_deliver",
    "engine.inbox_pop",
    "engine.bus_msg",
    "engine.timer",
    "engine.host",
    "iommu.translate",
    "kvs.engine.get",
    "kvs.engine.put",
];

/// Single layers, named `<crate>.<metric>`. Counters are exact; rungs and
/// spans are calibrated host time.
pub const PER_LAYER: [Metric; 81] = [
    m("sim.queue_ns_per_op", "ns", "lower", C),
    m("sim.queue_allocs_per_op", "count", "lower", X),
    m("sim.pool_recycle_frac", "frac", "higher", X),
    m("sim.pool_shed", "count", "lower", X),
    m("core.idle_event_ns", "ns", "lower", C),
    m("core.net_event_ns", "ns", "lower", C),
    m("core.idle_allocs_per_event", "count", "lower", X),
    m("core.net_allocs_per_event", "count", "lower", X),
    m("core.machine_event_ns", "ns", "lower", C),
    m("bus.handle_ns_per_msg", "ns", "lower", C),
    m("bus.codec_ns_per_msg", "ns", "lower", C),
    m("bus.messages_per_op", "count", "lower", X),
    m("bus.bytes_per_op", "B", "lower", X),
    m("bus.broadcast_deliveries_per_op", "count", "lower", X),
    m("bus.map_ops_per_op", "count", "lower", X),
    m("bus.denials", "count", "lower", X),
    m("bus.failures", "count", "lower", X),
    m("bus.rpc_retries", "count", "lower", X),
    m("bus.rpc_give_ups", "count", "lower", X),
    m("memctl.handle_ns_per_req", "ns", "lower", C),
    m("memctl.allocs_per_op", "count", "lower", X),
    m("memctl.shares_per_op", "count", "lower", X),
    m("memctl.denials", "count", "lower", X),
    m("memctl.oom", "count", "lower", X),
    m("memctl.peak_bytes", "B", "lower", X),
    m("mem.frame_alloc_ns_per_op", "ns", "lower", C),
    m("iommu.translate_hit_ns", "ns", "lower", C),
    m("iommu.translate_miss_ns", "ns", "lower", C),
    m("iommu.map_unmap_ns", "ns", "lower", C),
    m("iommu.translations_per_op", "count", "lower", X),
    m("iommu.tlb_hit_frac", "frac", "higher", X),
    m("iommu.maps_per_op", "count", "lower", X),
    m("iommu.faults", "count", "lower", X),
    m("virtio.roundtrip_ns", "ns", "lower", C),
    m("devices.ftl_write_ns", "ns", "lower", C),
    m("devices.ftl_read_ns", "ns", "lower", C),
    m("devices.ssd_requests_per_op", "count", "lower", X),
    m("devices.ssd_bytes_read", "B", "lower", X),
    m("devices.ssd_bytes_written", "B", "lower", X),
    m("devices.ftl_waf", "ratio", "lower", X),
    m("devices.ftl_gc_runs", "count", "lower", X),
    m("devices.flash_programs_per_op", "count", "lower", X),
    m("devices.flash_reads_per_op", "count", "lower", X),
    m("net.route_ns_per_frame", "ns", "lower", C),
    m("net.frames_per_op", "count", "lower", X),
    m("net.bytes_per_op", "B", "lower", X),
    m("net.dropped", "count", "lower", X),
    m("kvs.engine_get_ns", "ns", "lower", C),
    m("kvs.engine_put_ns", "ns", "lower", C),
    m("kvs.proto_codec_ns", "ns", "lower", C),
    m("kvs.cache_hit_frac", "frac", "higher", X),
    m("kvs.fast_gets_per_op", "count", "higher", X),
    m("kvs.server_shed", "count", "lower", X),
    m("kvs.server_failures", "count", "lower", X),
    m("kvs.busy_per_op", "count", "lower", X),
    m("kvs.client_timeouts", "count", "lower", X),
    m("kvs.router_failovers_per_kop", "count", "lower", X),
    m("kvs.router_give_ups", "count", "lower", X),
    m("kvs.router_late_acks", "count", "lower", X),
    m("kvs.router_busy_deferrals", "count", "lower", X),
    m("kvs.router_subs_per_op", "count", "lower", X),
    m("fabric.transit_ns_per_frame", "ns", "lower", C),
    m("fabric.ring_lookup_ns", "ns", "lower", C),
    m("fabric.rack_event_ns", "ns", "lower", C),
    m("fabric.frames_per_op", "count", "lower", X),
    m("fabric.bytes_per_op", "B", "lower", X),
    m("fabric.max_link_util", "frac", "lower", X),
    m("fabric.mean_link_util", "frac", "lower", X),
    m("fabric.links_used", "count", "lower", X),
    m("fabric.dir_epoch", "count", "lower", X),
    m("snap.checkpoint_s", "s", "lower", C),
    m("snap.encode_s", "s", "lower", C),
    m("snap.decode_s", "s", "lower", C),
    m("snap.restore_s", "s", "lower", C),
    m("snap.verify_s", "s", "lower", C),
    m("snap.ckpt_bytes", "B", "lower", X),
    m("snap.sections", "count", "lower", X),
    m("snap.replayed_events", "count", "lower", X),
    m("snap.restore_ns_per_replayed_event", "ns", "lower", C),
    m("trace.overhead_frac", "frac", "lower", C),
    m("trace.unattributed_frac", "frac", "lower", C),
];

/// Every per-layer name with unit, direction and kind, registry order:
/// [`PER_LAYER`], then `trace.scope.<s>.wall_s` and `trace.scope.<s>.allocs`
/// for each of [`SCOPES`].
pub fn per_layer() -> Vec<(String, &'static str, &'static str, Kind)> {
    let scopes = SCOPES.iter().flat_map(|s| {
        [
            (format!("trace.scope.{s}.wall_s"), "s", "lower", C),
            (format!("trace.scope.{s}.allocs"), "count", "lower", X),
        ]
    });
    PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit, m.better, m.kind))
        .chain(scopes)
        .collect()
}

/// Named values in insertion order; a name is set once.
#[derive(Default, Clone)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, v: f64) {
        assert!(self.get(name).is_none(), "metric {name} set twice");
        assert!(v.is_finite(), "metric {name} is not finite");
        self.0.push((name.to_string(), v));
    }

    /// Overwrites a value already set.
    pub fn replace(&mut self, name: &str, v: f64) {
        let slot = self.0.iter_mut().find(|(n, _)| n == name);
        slot.unwrap_or_else(|| panic!("metric {name} was never set"))
            .1 = v;
    }

    /// The value of a metric that must have been set.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("metric {name} unset"))
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: Values) {
        for (n, v) in other.0 {
            self.set(&n, v);
        }
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
