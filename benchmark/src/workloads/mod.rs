//! The five workloads and the measuring loop they share.
//!
//! Every workload is a closed loop (callers that wait for a reply) over a
//! fixed amount of simulated work, so a slower simulator takes longer but
//! simulates exactly the same thing. A run is: set up several times (median
//! reported as `setup_s`), then measure one window on the last system built.

pub mod ctl;
pub mod kv;
pub mod machine;
pub mod rack;

use lastcpu_sim::{Histogram, SimDuration, SimTime};

use crate::calib::{Ctx, Meter, Phase};
use crate::metrics::{ratio, Values};

/// A workload whose clients have not finished after this much virtual time
/// is wedged; fail loudly instead of spinning.
const VIRTUAL_CAP: SimDuration = SimDuration::from_secs(600);

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; BENCHMARK.json carries the same).
    pub why: &'static str,
    /// A rack workload; the others run one machine.
    pub rack: bool,
    /// The workload exists to load some layers and leave others idle; a
    /// traced run checks, from its per-layer values and calibrated
    /// `host_s`, that it still does, at whatever scale it ran.
    pub isolation: fn(&Values, f64) -> Vec<Check>,
    pub run: fn(&mut Ctx, &Params) -> Measured,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "kv_hot_get",
        why: "one machine, every GET served from the NIC cache: core event loop, net switch, NIC app; SSD, virtio, IOMMU and bus idle",
        rack: false,
        isolation: kv::hot_get_isolation,
        run: kv::hot_get,
    },
    Workload {
        name: "kv_ssd_mix",
        why: "same machine, 20k uniform keys, 80/20 GET/PUT: misses and appends drive virtio, IOMMU, DRAM, SSD/FTL/flash and the kvs engine",
        rack: false,
        isolation: kv::ssd_mix_isolation,
        run: kv::ssd_mix,
    },
    Workload {
        name: "ctl_setup_churn",
        why: "32 devices looping the Figure-2 setup: bus codec and routing, SSDP broadcast, memctl policy, IOMMU map/unmap; zero network frames",
        rack: false,
        isolation: ctl::isolation,
        run: ctl::setup_churn,
    },
    Workload {
        name: "rack_kv",
        why: "32 machines on leaf-spine:8 oversub 4, R=2: fabric windows, topology transit, directory sweeps and the shard router dominate",
        rack: true,
        isolation: rack::kv_isolation,
        run: rack::kv,
    },
    Workload {
        name: "rack_restore",
        why: "16-machine rack restored from an 80%-of-run checkpoint and run to completion: the only workload where snap does most of the work",
        rack: true,
        isolation: rack::restore_isolation,
        run: rack::restore,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Params {
    pub seed: u64,
    /// Simulated work relative to the full-size workload (`--seconds 10`).
    pub scale: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Params {
    /// `full` operations scaled, never below `floor`.
    pub fn ops(&self, full: u64, floor: u64) -> u64 {
        ((full as f64 * self.scale).round() as u64).max(floor)
    }
}

/// One output check, by name.
pub type Check = (&'static str, bool);

/// Everything one measured run of a workload produced.
pub struct Measured {
    pub setup: Phase,
    pub window: Phase,
    /// Exact end-to-end metrics and per-layer counter metrics.
    pub values: Values,
    pub sim_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub state_digest: u64,
    pub checks: Vec<Check>,
}

/// Monotone layer counters; a window reports `after.since(&before)`.
macro_rules! counters {
    ($($f:ident),* $(,)?) => {
        #[derive(Debug, Default, Clone, Copy)]
        pub struct Counters { $(pub $f: u64),* }
        impl Counters {
            pub fn since(&self, o: &Counters) -> Counters {
                Counters { $($f: self.$f - o.$f),* }
            }
        }
    };
}

counters!(
    pool_taken,
    pool_recycled,
    pool_shed,
    bus_messages,
    bus_bytes,
    bus_broadcast_deliveries,
    bus_map_ops,
    bus_denials,
    bus_failures,
    rpc_retries,
    rpc_give_ups,
    memctl_allocs,
    memctl_shares,
    memctl_denials,
    memctl_oom,
    iommu_translations,
    iommu_maps,
    iommu_faults,
    tlb_hits,
    tlb_misses,
    ssd_requests,
    ssd_bytes_read,
    ssd_bytes_written,
    ftl_host_writes,
    ftl_nand_writes,
    ftl_gc_runs,
    flash_programs,
    flash_reads,
    net_frames,
    net_bytes,
    net_dropped,
    kvs_gets,
    kvs_cache_hits,
    kvs_fast_gets,
    kvs_shed,
    kvs_failures,
    client_busy,
    client_timeouts,
    router_requests,
    router_hits,
    router_failovers,
    router_give_ups,
    router_late_acks,
    router_busy_deferrals,
    fabric_frames,
    fabric_bytes,
);

/// Values that are levels at the end of the window, not deltas over it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Levels {
    pub memctl_peak_bytes: u64,
    pub max_link_util: f64,
    pub mean_link_util: f64,
    pub links_used: u64,
    pub dir_epoch: u64,
}

/// A system under test, as the measuring loop sees it.
pub trait Bed {
    /// Virtual time per `slice` span of the window.
    const SLICE: SimDuration;
    fn power_on(&mut self);
    fn now(&self) -> SimTime;
    /// Runs to the absolute virtual time `t`; returns events retired.
    fn run_until(&mut self, t: SimTime) -> u64;
    /// Every client has entered its measured phase.
    fn measuring(&self) -> bool;
    fn done(&self) -> bool;
    /// Virtual time at which the last client finished.
    fn end_time(&self) -> SimTime;
    fn ops_done(&self) -> u64;
    /// Operations the clients will attempt in total.
    fn ops_target(&self) -> u64;
    /// Client errors + timeouts + `Unavailable` + router give-ups + failed
    /// setups + lost acked keys.
    fn failed_ops(&self) -> u64;
    /// Merged per-client latency histogram.
    fn latency(&self) -> Histogram;
    /// The layer counters and a digest of the whole simulated state, both
    /// from one checkpoint where the system can take one (outside timing).
    fn observe(&mut self) -> (Counters, u64);
    fn levels(&self) -> Levels;
    fn checks(&self) -> Vec<Check>;
}

/// Builds, powers on and warms one system until every client is measuring.
pub fn set_up<B: Bed>(ctx: &mut Ctx, build: &impl Fn() -> B) -> (B, Phase) {
    ctx.tracer.open("setup");
    let mut meter = Meter::start(ctx);
    let mut bed = meter.run(ctx, "build", || (build(), 0));
    meter.run(ctx, "power_on", || (bed.power_on(), 0));
    let cap = bed.now() + VIRTUAL_CAP;
    let mut deadline = bed.now();
    while !bed.measuring() {
        assert!(deadline < cap, "clients never reached their measured phase");
        // Fine slices, so that little measured-phase work precedes the window.
        deadline += SimDuration::from_micros(100);
        meter.run(ctx, "warm", || ((), bed.run_until(deadline)));
    }
    let phase = meter.finish(ctx);
    ctx.tracer.close();
    (bed, phase)
}

/// Sets up `n` times; returns the last system built and the phase with the
/// median calibrated time.
pub fn set_up_median<B: Bed>(ctx: &mut Ctx, n: usize, build: &impl Fn() -> B) -> (B, Phase) {
    let mut phases = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        // Drop the previous system first: two alive at once would double
        // `peak_rss_mib`.
        drop(last.take());
        let (bed, phase) = set_up(ctx, build);
        phases.push(phase);
        last = Some(bed);
    }
    phases.sort_by(|a, b| a.cal_s().total_cmp(&b.cal_s()));
    (last.expect("at least one set-up"), phases[n / 2])
}

/// Runs `bed` in [`Bed::SLICE`] slices until every client is done.
pub fn run_window<B: Bed>(ctx: &mut Ctx, bed: &mut B) -> Phase {
    ctx.window_open();
    let mut meter = Meter::start(ctx);
    let cap = bed.now() + VIRTUAL_CAP;
    let mut deadline = bed.now();
    while !bed.done() {
        assert!(deadline < cap, "workload did not finish");
        deadline += B::SLICE;
        meter.run(ctx, "slice", || ((), bed.run_until(deadline)));
    }
    let phase = meter.finish(ctx);
    ctx.window_close();
    phase
}

/// Where a window began: counters, completed ops and virtual time.
pub struct Mark {
    counters: Counters,
    ops: u64,
    at: SimTime,
}

impl Mark {
    pub fn take<B: Bed>(bed: &mut B) -> Mark {
        Mark {
            counters: bed.observe().0,
            ops: bed.ops_done(),
            at: bed.now(),
        }
    }

    /// A window that covers the whole run (a restart replays from zero).
    pub fn origin(at: SimTime) -> Mark {
        Mark {
            counters: Counters::default(),
            ops: 0,
            at,
        }
    }
}

fn us(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Turns a finished window into the exact end-to-end metrics and the
/// per-layer counter metrics.
pub fn summarize<B: Bed>(bed: &mut B, setup: Phase, window: Phase, from: Mark) -> Measured {
    let ops = bed.ops_done() - from.ops;
    let virt_s = bed.end_time().since(from.at).as_nanos() as f64 / 1e9;
    let lat = bed.latency();
    let (counters, state_digest) = bed.observe();
    let d = counters.since(&from.counters);
    let lv = bed.levels();
    let per_op = |n: u64| ratio(n, ops);

    let mut v = Values::default();
    v.set("allocs_per_event", ratio(window.allocs, window.events));
    v.set(
        "alloc_bytes_per_event",
        ratio(window.alloc_bytes, window.events),
    );
    v.set("sim_ops_per_s", ops as f64 / virt_s);
    v.set("sim_p50_us", us(lat.percentile(50.0)));
    v.set("sim_p99_us", us(lat.percentile(99.0)));
    v.set("sim_p999_us", us(lat.percentile(99.9)));
    v.set("sim_events_per_op", per_op(window.events));

    v.set(
        "sim.pool_recycle_frac",
        ratio(d.pool_recycled, d.pool_taken),
    );
    v.set("sim.pool_shed", d.pool_shed as f64);
    v.set("bus.messages_per_op", per_op(d.bus_messages));
    v.set("bus.bytes_per_op", per_op(d.bus_bytes));
    v.set(
        "bus.broadcast_deliveries_per_op",
        per_op(d.bus_broadcast_deliveries),
    );
    v.set("bus.map_ops_per_op", per_op(d.bus_map_ops));
    v.set("bus.denials", d.bus_denials as f64);
    v.set("bus.failures", d.bus_failures as f64);
    v.set("bus.rpc_retries", d.rpc_retries as f64);
    v.set("bus.rpc_give_ups", d.rpc_give_ups as f64);
    v.set("memctl.allocs_per_op", per_op(d.memctl_allocs));
    v.set("memctl.shares_per_op", per_op(d.memctl_shares));
    v.set("memctl.denials", d.memctl_denials as f64);
    v.set("memctl.oom", d.memctl_oom as f64);
    v.set("memctl.peak_bytes", lv.memctl_peak_bytes as f64);
    v.set("iommu.translations_per_op", per_op(d.iommu_translations));
    v.set(
        "iommu.tlb_hit_frac",
        ratio(d.tlb_hits, d.tlb_hits + d.tlb_misses),
    );
    v.set("iommu.maps_per_op", per_op(d.iommu_maps));
    v.set("iommu.faults", d.iommu_faults as f64);
    v.set("devices.ssd_requests_per_op", per_op(d.ssd_requests));
    v.set("devices.ssd_bytes_read", d.ssd_bytes_read as f64);
    v.set("devices.ssd_bytes_written", d.ssd_bytes_written as f64);
    v.set(
        "devices.ftl_waf",
        ratio(d.ftl_nand_writes, d.ftl_host_writes),
    );
    v.set("devices.ftl_gc_runs", d.ftl_gc_runs as f64);
    v.set("devices.flash_programs_per_op", per_op(d.flash_programs));
    v.set("devices.flash_reads_per_op", per_op(d.flash_reads));
    v.set("net.frames_per_op", per_op(d.net_frames));
    v.set("net.bytes_per_op", per_op(d.net_bytes));
    v.set("net.dropped", d.net_dropped as f64);
    v.set("kvs.cache_hit_frac", ratio(d.kvs_cache_hits, d.kvs_gets));
    v.set("kvs.fast_gets_per_op", per_op(d.kvs_fast_gets));
    v.set("kvs.server_shed", d.kvs_shed as f64);
    v.set("kvs.server_failures", d.kvs_failures as f64);
    v.set("kvs.busy_per_op", per_op(d.client_busy));
    v.set("kvs.client_timeouts", d.client_timeouts as f64);
    v.set(
        "kvs.router_failovers_per_kop",
        1e3 * per_op(d.router_failovers),
    );
    v.set("kvs.router_give_ups", d.router_give_ups as f64);
    v.set("kvs.router_late_acks", d.router_late_acks as f64);
    v.set("kvs.router_busy_deferrals", d.router_busy_deferrals as f64);
    v.set(
        "kvs.router_subs_per_op",
        ratio(d.router_hits, d.router_requests),
    );
    v.set("fabric.frames_per_op", per_op(d.fabric_frames));
    v.set("fabric.bytes_per_op", per_op(d.fabric_bytes));
    v.set("fabric.max_link_util", lv.max_link_util);
    v.set("fabric.mean_link_util", lv.mean_link_util);
    v.set("fabric.links_used", lv.links_used as f64);
    v.set("fabric.dir_epoch", lv.dir_epoch as f64);

    // Only rack_restore snapshots; it overwrites these.
    for name in [
        "snap.checkpoint_s",
        "snap.encode_s",
        "snap.decode_s",
        "snap.restore_s",
        "snap.verify_s",
        "snap.ckpt_bytes",
        "snap.sections",
        "snap.replayed_events",
        "snap.restore_ns_per_replayed_event",
    ] {
        v.set(name, 0.0);
    }

    let mut checks = bed.checks();
    checks.push(("all clients finished", bed.done()));
    checks.push(("latency samples cover the ops", lat.count() > 0 && ops > 0));
    Measured {
        setup,
        window,
        values: v,
        sim_ops: lat.count(),
        attempted: bed.ops_target(),
        failed: bed.failed_ops(),
        state_digest,
        checks,
    }
}

/// The whole run of a workload whose window is "run until the clients are
/// done": set up, mark, window, summarize.
pub fn measure<B: Bed>(ctx: &mut Ctx, p: &Params, build: impl Fn() -> B) -> Measured {
    let (mut bed, setup) = set_up_median(ctx, p.setups, &build);
    let from = Mark::take(&mut bed);
    let window = run_window(ctx, &mut bed);
    summarize(&mut bed, setup, window, from)
}
