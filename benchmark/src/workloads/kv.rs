//! `kv_hot_get` and `kv_ssd_mix`: one CPU-less machine serving closed-loop
//! KVS clients. The two use the same kvs and devices layers the other way
//! round — hits against misses and appends — so a gain for one that costs
//! the other shows.

use lastcpu_core::devices::flash::NandConfig;
use lastcpu_core::SystemConfig;
use lastcpu_kvs::build::default_nand;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::ServerConfig;
use lastcpu_net::PortId;
use lastcpu_sim::{Histogram, SimDuration, SimTime};

use super::machine::{add_machine, assemble, memctl_stats, Machine};
use super::{measure, Bed, Check, Counters, Levels, Measured, Params};
use crate::calib::Ctx;
use crate::metrics::Values;

struct Shape {
    nand: NandConfig,
    clients: usize,
    outstanding: usize,
    keys: u64,
    theta: f64,
    read_fraction: f64,
    value_size: usize,
    ops_per_client: u64,
}

struct KvBed {
    m: Machine,
    clients: Vec<PortId>,
    ops_target: u64,
}

impl KvBed {
    fn build(seed: u64, s: &Shape) -> KvBed {
        let mut m = assemble(
            SystemConfig {
                seed,
                ..SystemConfig::default()
            },
            s.nand,
            ServerConfig {
                cache_entries: 512,
                ..ServerConfig::default()
            },
        );
        let clients = (0..s.clients)
            .map(|i| {
                m.system.add_host(Box::new(KvsClientHost::new(
                    m.kvs_port,
                    WorkloadConfig {
                        keys: s.keys,
                        theta: s.theta,
                        read_fraction: s.read_fraction,
                        value_size: s.value_size,
                        outstanding: s.outstanding,
                        total_ops: s.ops_per_client,
                        preload: true,
                        stats_prefix: format!("c{i}"),
                        ..WorkloadConfig::default()
                    },
                )))
            })
            .collect();
        KvBed {
            m,
            clients,
            ops_target: s.clients as u64 * s.ops_per_client,
        }
    }

    fn each_client(&self) -> impl Iterator<Item = &KvsClientHost> {
        self.clients.iter().map(|&p| {
            self.m
                .system
                .host_as::<KvsClientHost>(p)
                .expect("client port")
        })
    }
}

/// Sums the client-side counters every KVS bed shares.
pub fn add_clients<'a>(clients: impl Iterator<Item = &'a KvsClientHost>, c: &mut Counters) {
    for cl in clients {
        c.client_busy += cl.busy_rejections();
        c.client_timeouts += cl.timeouts();
    }
}

/// Errors, timeouts and `Unavailable` answers over `clients`.
pub fn client_failures<'a>(clients: impl Iterator<Item = &'a KvsClientHost>) -> u64 {
    clients
        .map(|c| c.errors() + c.timeouts() + c.unavailable_rejections())
        .sum()
}

impl Bed for KvBed {
    const SLICE: SimDuration = SimDuration::from_millis(1);

    fn power_on(&mut self) {
        self.m.system.power_on();
    }

    fn now(&self) -> SimTime {
        self.m.system.now()
    }

    fn run_until(&mut self, t: SimTime) -> u64 {
        self.m.system.run_until(t)
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
    }

    fn latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for i in 0..self.clients.len() {
            if let Some(c) = self.m.system.stats().histogram(&format!("c{i}.latency")) {
                h.merge(&c);
            }
        }
        h
    }

    fn observe(&mut self) -> (Counters, u64) {
        let mut c = Counters::default();
        let ck = self
            .m
            .system
            .checkpoint("observe")
            .expect("machine checkpoints");
        add_machine(&mut self.m.system, self.m.handles, &ck, &mut c);
        add_clients(self.each_client(), &mut c);
        (c, ck.digest())
    }

    fn levels(&self) -> Levels {
        Levels {
            memctl_peak_bytes: memctl_stats(&self.m.system, self.m.handles.memctl).peak_bytes,
            ..Levels::default()
        }
    }

    fn checks(&self) -> Vec<Check> {
        vec![("no failed operation", self.failed_ops() == 0)]
    }
}

/// 8 clients × 8 outstanding over 400 zipfian keys, GETs only: after the
/// preload every request is a NIC cache hit. (At the 95% GET the issue
/// sketched, the 5% PUTs saturate the SSD — 8 ms PUT latency — and own
/// `sim_ops_per_s` and the tail; the SSD side is `kv_ssd_mix`'s job.)
pub fn hot_get(ctx: &mut Ctx, p: &Params) -> Measured {
    let shape = Shape {
        nand: default_nand(),
        clients: 8,
        outstanding: 8,
        keys: 400,
        theta: 0.99,
        read_fraction: 0.95,
        value_size: 128,
        ops_per_client: p.ops(100_000, 1_000),
    };
    measure(ctx, p, || KvBed::build(p.seed, &shape))
}

/// 4 clients × 16 outstanding over 20,000 uniform keys, 80/20 GET/PUT,
/// 256 B: ≈97% of GETs miss the 512-entry cache and every PUT appends. The
/// server never compacts its log, and the default 64 MiB NAND starts
/// returning `Error` after ≈40k 1 KiB PUTs, so the chip here is 512 MiB.
pub fn ssd_mix(ctx: &mut Ctx, p: &Params) -> Measured {
    let shape = Shape {
        nand: NandConfig {
            blocks: 2048,
            ..default_nand()
        },
        clients: 4,
        outstanding: 16,
        keys: 20_000,
        theta: 0.0,
        read_fraction: 0.8,
        value_size: 256,
        ops_per_client: p.ops(240_000, 1_000),
    };
    measure(ctx, p, || KvBed::build(p.seed, &shape))
}

pub fn hot_get_isolation(v: &Values, _host_s: f64) -> Vec<Check> {
    vec![
        (
            "isolation: every GET is a NIC cache hit",
            v.value("kvs.cache_hit_frac") > 0.99,
        ),
        (
            "isolation: the SSD sees only the PUTs (< 0.1 requests/op)",
            v.value("devices.ssd_requests_per_op") < 0.1,
        ),
        (
            "isolation: the data plane stays off the bus (< 0.1 messages/op)",
            v.value("bus.messages_per_op") < 0.1,
        ),
    ]
}

pub fn ssd_mix_isolation(v: &Values, _host_s: f64) -> Vec<Check> {
    vec![
        (
            "isolation: GETs miss the NIC cache (hit fraction < 0.1)",
            v.value("kvs.cache_hit_frac") < 0.1,
        ),
        (
            "isolation: nearly every op reaches the SSD (> 0.9 requests/op)",
            v.value("devices.ssd_requests_per_op") > 0.9,
        ),
    ]
}
