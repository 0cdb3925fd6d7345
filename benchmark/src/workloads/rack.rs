//! `rack_kv` and `rack_restore`: CPU-less machines co-simulated under one
//! fabric, one closed-loop client per machine on its local shard router.

use lastcpu_core::SystemConfig;
use lastcpu_fabric::{Fabric, FabricConfig, TopoKind, TopologyConfig};
use lastcpu_kvs::build::default_nand;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::{RackSetup, RouterConfig, ServerConfig, ShardRouterHost};
use lastcpu_net::PortId;
use lastcpu_sim::{Histogram, SimDuration, SimTime};
use lastcpu_snap::Checkpoint;

use super::kv::{add_clients, client_failures};
use super::machine::{add_machine, assemble, memctl_stats, Handles};
use super::{measure, summarize, Bed, Check, Counters, Levels, Mark, Measured, Params};
use crate::calib::{Ctx, Meter, Phase};
use crate::metrics::Values;

struct Shape {
    machines: usize,
    oversub: u64,
    read_fraction: f64,
    ops_per_client: u64,
}

/// Keys per client. All clients share one key namespace, so this is also
/// the rack's key count; with 64 the preload alone took 6–9 s of host time.
const KEYS: u64 = 16;
const REPLICATION: usize = 2;
const VALUE_SIZE: usize = 1024;

struct RackBed {
    /// The library's view of the rack (router/NIC lookups, acked-key audit).
    rack: RackSetup,
    handles: Vec<Handles>,
    clients: Vec<PortId>,
    ops_target: u64,
}

impl RackBed {
    /// `build_rack_kvs` with every device handle kept (see `machine.rs`),
    /// plus one client per machine aimed at its local router.
    fn build(seed: u64, s: &Shape) -> RackBed {
        let mut fabric = Fabric::new(FabricConfig {
            topology: TopologyConfig {
                kind: TopoKind::LeafSpine { leaf_size: 8 },
                oversub: s.oversub,
            },
            ..FabricConfig::default()
        });
        let (mut machines, mut router_ports) = (Vec::new(), Vec::new());
        let (mut handles, mut clients) = (Vec::new(), Vec::new());
        for i in 0..s.machines {
            let m = assemble(
                SystemConfig {
                    seed: seed + i as u64,
                    ..SystemConfig::default()
                },
                default_nand(),
                ServerConfig::default(),
            );
            handles.push(m.handles);
            let id = fabric.add_machine(format!("m{i}"), m.system);
            let dir_port = fabric.directory_port(id);
            let sys = fabric.machine_mut(id);
            let router = sys.add_host(Box::new(ShardRouterHost::new(RouterConfig {
                dir_port,
                replication: REPLICATION,
                name: format!("router{i}"),
                ..RouterConfig::default()
            })));
            clients.push(sys.add_host(Box::new(KvsClientHost::new(
                router,
                WorkloadConfig {
                    keys: KEYS,
                    theta: 0.99,
                    read_fraction: s.read_fraction,
                    value_size: VALUE_SIZE,
                    outstanding: 4,
                    total_ops: s.ops_per_client,
                    preload: true,
                    stats_prefix: format!("c{i}"),
                    ..WorkloadConfig::default()
                },
            ))));
            machines.push(id);
            router_ports.push(router);
        }
        RackBed {
            rack: RackSetup {
                fabric,
                machines,
                frontends: handles.iter().map(|h: &Handles| h.nic).collect(),
                router_ports,
            },
            handles,
            clients,
            ops_target: s.machines as u64 * s.ops_per_client,
        }
    }

    fn each_client(&self) -> impl Iterator<Item = &KvsClientHost> {
        self.clients.iter().enumerate().map(|(i, &p)| {
            self.rack
                .fabric
                .machine(self.rack.machines[i])
                .host_as::<KvsClientHost>(p)
                .expect("client port")
        })
    }

    fn router_give_ups(&self) -> u64 {
        (0..self.clients.len())
            .map(|i| self.rack.router(i).stats().give_ups)
            .sum()
    }
}

impl Bed for RackBed {
    const SLICE: SimDuration = SimDuration::from_millis(5);

    fn power_on(&mut self) {
        self.rack.fabric.power_on();
    }

    fn now(&self) -> SimTime {
        self.rack.fabric.now()
    }

    fn run_until(&mut self, t: SimTime) -> u64 {
        self.rack.fabric.run_until(t)
    }

    fn measuring(&self) -> bool {
        self.each_client().all(|c| c.started_at().is_some())
    }

    fn done(&self) -> bool {
        self.each_client().all(|c| c.is_done())
    }

    fn end_time(&self) -> SimTime {
        self.each_client()
            .filter_map(|c| c.finished_at())
            .max()
            .unwrap_or(self.now())
    }

    fn ops_done(&self) -> u64 {
        self.each_client().map(|c| c.ops_done()).sum()
    }

    fn ops_target(&self) -> u64 {
        self.ops_target
    }

    fn failed_ops(&self) -> u64 {
        client_failures(self.each_client())
            + self.router_give_ups()
            + self.rack.lost_acked_keys() as u64
    }

    fn latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for (i, &m) in self.rack.machines.iter().enumerate() {
            let hub = self.rack.fabric.machine(m).stats();
            if let Some(c) = hub.histogram(&format!("c{i}.latency")) {
                h.merge(&c);
            }
        }
        h
    }

    fn observe(&mut self) -> (Counters, u64) {
        let mut c = Counters::default();
        let ck = self
            .rack
            .fabric
            .checkpoint("observe")
            .expect("rack checkpoints");
        for (i, &m) in self.rack.machines.iter().enumerate() {
            let section = ck
                .section(&format!("machine{i}"))
                .expect("one section per machine");
            let inner = Checkpoint::decode(section).expect("machine section decodes");
            add_machine(
                self.rack.fabric.machine_mut(m),
                self.handles[i],
                &inner,
                &mut c,
            );
            let r = self.rack.router(i).stats();
            c.router_requests += r.requests;
            c.router_hits += r.hits;
            c.router_failovers += r.failovers;
            c.router_give_ups += r.give_ups;
            c.router_late_acks += r.late_acks;
            c.router_busy_deferrals += r.busy_deferrals;
        }
        add_clients(self.each_client(), &mut c);
        let fm = self.rack.fabric.metrics();
        c.fabric_frames = fm.counter("fabric.frames_forwarded");
        c.fabric_bytes = fm.counter("fabric.bytes");
        (c, ck.digest())
    }

    fn levels(&self) -> Levels {
        let fabric = &self.rack.fabric;
        let elapsed = fabric.now().as_nanos().max(1) as f64;
        let utils: Vec<f64> = fabric
            .topology()
            .links()
            .filter(|l| l.frames > 0)
            .map(|l| l.busy_ns as f64 / elapsed)
            .collect();
        Levels {
            memctl_peak_bytes: self
                .rack
                .machines
                .iter()
                .zip(&self.handles)
                .map(|(&m, h)| memctl_stats(fabric.machine(m), h.memctl).peak_bytes)
                .max()
                .unwrap_or(0),
            max_link_util: utils.iter().copied().fold(0.0, f64::max),
            mean_link_util: utils.iter().sum::<f64>() / utils.len().max(1) as f64,
            links_used: utils.len() as u64,
            dir_epoch: fabric.dir_epoch(),
        }
    }

    fn checks(&self) -> Vec<Check> {
        vec![("no acked key lost", self.rack.lost_acked_keys() == 0)]
    }
}

/// 32 machines, leaf-spine:8 at oversubscription 4, 90% GET of 1 KiB:
/// 31/32 of requests cross the fabric.
pub fn kv(ctx: &mut Ctx, p: &Params) -> Measured {
    let shape = Shape {
        machines: 32,
        oversub: 4,
        read_fraction: 0.9,
        ops_per_client: p.ops(6_000, 60),
    };
    measure(ctx, p, || RackBed::build(p.seed, &shape))
}

/// Runs `bed` to completion, one [`RackBed::SLICE`] per `step`.
fn finish(bed: &mut RackBed, mut step: impl FnMut(&mut RackBed, SimTime)) {
    while !bed.done() {
        let t = bed.now() + RackBed::SLICE;
        step(bed, t);
    }
}

/// 16 machines, restarted from a checkpoint taken once 80% of the run's
/// events have retired.
///
/// The fabric's results depend on how `run_until` calls are sliced (README,
/// "baseline facts"), and `restore_from` replays to the checkpoint in one
/// call. So every rack here reaches the checkpoint instant in one call and
/// continues from it in [`RackBed::SLICE`] steps:
///
/// - a scout run (outside every metric) finds the instant: the first 1 ms
///   boundary by which 80% of its events have retired;
/// - set-up is build → run to that instant → checkpoint → encode;
/// - the last set-up's rack then runs on, uninterrupted, as the checker twin;
/// - the window is what a user waits for on restart: decode → build a fresh
///   rack → `restore_from` → verify → run to completion.
pub fn restore(ctx: &mut Ctx, p: &Params) -> Measured {
    let shape = Shape {
        machines: 16,
        oversub: 1,
        read_fraction: 0.9,
        ops_per_client: p.ops(6_000, 60),
    };
    let build = || RackBed::build(p.seed, &shape);

    let ms = SimDuration::from_millis(1);
    let mut scout = build();
    scout.power_on();
    let mut retired = vec![0u64];
    while !scout.done() {
        let t = scout.now() + ms;
        retired.push(retired.last().expect("starts non-empty") + scout.run_until(t));
    }
    let total = *retired.last().expect("starts non-empty");
    let slices = retired
        .iter()
        .position(|&e| e * 5 >= total * 4)
        .expect("the last slice has them all");
    let ckpt_at = SimTime::from_nanos(slices as u64 * ms.as_nanos());
    drop(scout);

    // Raw ns of the `snap.*` spans of the last set-up.
    let (mut checkpoint_ns, mut encode_ns) = (0, 0);
    let mut setups: Vec<Phase> = Vec::new();
    let mut last = None;
    for _ in 0..p.setups {
        drop(last.take());
        ctx.tracer.open("setup");
        let mut meter = Meter::start(ctx);
        let mut bed = meter.run(ctx, "build", || (build(), 0));
        meter.run(ctx, "power_on", || (bed.power_on(), 0));
        let replayed = meter.run(ctx, "warm", || {
            let n = bed.run_until(ckpt_at);
            (n, n)
        });
        let ck = meter.run(ctx, "checkpoint", || {
            (
                bed.rack
                    .fabric
                    .checkpoint("restore")
                    .expect("rack checkpoints"),
                0,
            )
        });
        checkpoint_ns = meter.last_ns();
        let encoded = meter.run(ctx, "encode", || (ck.encode(), 0));
        encode_ns = meter.last_ns();
        setups.push(meter.finish(ctx));
        ctx.tracer.close();
        last = Some((bed, encoded, ck.section_count(), replayed));
    }
    let (mut twin, encoded, sections, replayed) = last.expect("at least one set-up");
    let setup_cal = setups.last().expect("at least one set-up").cal_factor;
    setups.sort_by(|a, b| a.cal_s().total_cmp(&b.cal_s()));
    let setup = setups[setups.len() / 2];
    finish(&mut twin, |bed, t| {
        bed.run_until(t);
    });
    let twin_digest = twin.observe().1;
    drop(twin);

    ctx.window_open();
    let mut meter = Meter::start(ctx);
    let ck = meter.run(ctx, "decode", || {
        (
            Checkpoint::decode(&encoded).expect("own checkpoint decodes"),
            0,
        )
    });
    let decode_ns = meter.last_ns();
    let mut bed = meter.run(ctx, "build", || (build(), 0));
    meter.run(ctx, "power_on", || (bed.power_on(), 0));
    meter.run(ctx, "restore", || {
        bed.rack
            .fabric
            .restore_from(&ck)
            .expect("restore verifies byte-for-byte");
        // What a replaying restore re-executes: the events the checkpointed
        // rack retired on its way here.
        ((), replayed)
    });
    let restore_ns = meter.last_ns();
    meter.run(ctx, "verify", || {
        bed.rack
            .fabric
            .verify_checkpoint(&ck)
            .expect("restored rack matches the checkpoint");
        ((), 0)
    });
    let verify_ns = meter.last_ns();
    ctx.tracer.open("finish");
    finish(&mut bed, |bed, t| {
        meter.run(ctx, "slice", || ((), bed.run_until(t)))
    });
    ctx.tracer.close();
    let window = meter.finish(ctx);
    ctx.window_close();

    let started = bed
        .each_client()
        .filter_map(|c| c.started_at())
        .min()
        .expect("clients ran");
    let mut m = summarize(&mut bed, setup, window, Mark::origin(started));
    m.checks.push((
        "restored digest equals the uninterrupted twin's",
        m.state_digest == twin_digest,
    ));
    let cal = |ns: u64, f: f64| ns as f64 / 1e9 * f;
    let restore_s = cal(restore_ns, window.cal_factor);
    for (name, value) in [
        ("snap.checkpoint_s", cal(checkpoint_ns, setup_cal)),
        ("snap.encode_s", cal(encode_ns, setup_cal)),
        ("snap.decode_s", cal(decode_ns, window.cal_factor)),
        ("snap.restore_s", restore_s),
        ("snap.verify_s", cal(verify_ns, window.cal_factor)),
        ("snap.ckpt_bytes", encoded.len() as f64),
        ("snap.sections", sections as f64),
        ("snap.replayed_events", replayed as f64),
        (
            "snap.restore_ns_per_replayed_event",
            restore_s * 1e9 / replayed.max(1) as f64,
        ),
    ] {
        m.values.replace(name, value);
    }
    m
}

pub fn kv_isolation(v: &Values, _host_s: f64) -> Vec<Check> {
    vec![(
        "isolation: requests cross the fabric (>= 1 frame/op)",
        v.value("fabric.frames_per_op") >= 1.0,
    )]
}

pub fn restore_isolation(v: &Values, host_s: f64) -> Vec<Check> {
    let snap_s = v.value("snap.decode_s") + v.value("snap.restore_s") + v.value("snap.verify_s");
    vec![(
        "isolation: snap spans are at least half the window",
        snap_s >= 0.5 * host_s,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the baseline fact rack_restore is arranged around. When the
    /// fabric stops depending on how `run_until` is sliced, this fails: drop
    /// the scout run then and let the twin name the checkpoint instant.
    #[test]
    fn fabric_results_depend_on_run_until_slicing() {
        let shape = Shape {
            machines: 16,
            oversub: 1,
            read_fraction: 0.9,
            ops_per_client: 4_000,
        };
        let until = SimTime::from_nanos(700_000_000);
        let run = |slice: SimDuration| {
            let mut bed = RackBed::build(22, &shape);
            bed.power_on();
            while bed.now() < until {
                let t = (bed.now() + slice).min(until);
                bed.run_until(t);
            }
            bed.observe().1
        };
        assert_ne!(
            run(SimDuration::from_secs(1)),
            run(SimDuration::from_millis(5))
        );
    }
}
