//! The one rack driver: a [`RackSetup`] plus one closed-loop client per
//! machine, polled every 10 ms of virtual time until the clients are done.
//!
//! How `run_until` calls are sliced moves nothing (the fabric retires events
//! in one global order, DESIGN.md §13.2); the slice only sets how far past
//! the last client's finish a run goes on.

use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::{RackSetup, RouterStats};
use lastcpu_net::PortId;
use lastcpu_sim::{Histogram, SimDuration};

/// The E10 client: `ops` requests over 200 Zipf(0.99) keys, 95% GETs of
/// 128-byte values, 8 in flight, after preloading every key.
pub fn e10_load(ops: u64) -> WorkloadConfig {
    WorkloadConfig {
        keys: 200,
        theta: 0.99,
        read_fraction: 0.95,
        value_size: 128,
        outstanding: 8,
        total_ops: ops,
        preload: true,
        ..WorkloadConfig::default()
    }
}

/// How often the driver looks at the clients.
const SLICE: SimDuration = SimDuration::from_millis(10);

/// A rack under test.
pub struct RackBench {
    /// The fabric, its machines and their routers.
    pub setup: RackSetup,
    /// Client `i`'s port on machine `i`.
    pub client_ports: Vec<PortId>,
    /// Events retired by [`RackBench::run_slices`] so far.
    pub events: u64,
}

impl RackBench {
    /// Adds one client per machine of `setup`, aimed at its local shard
    /// router, each running `load` under the stats prefix `c{i}`.
    pub fn build(mut setup: RackSetup, load: WorkloadConfig) -> RackBench {
        let client_ports = (0..setup.machines.len())
            .map(|i| {
                let load = WorkloadConfig {
                    stats_prefix: format!("c{i}"),
                    ..load.clone()
                };
                let host = KvsClientHost::new(setup.router_ports[i], load);
                setup
                    .fabric
                    .machine_mut(setup.machines[i])
                    .add_host(Box::new(host))
            })
            .collect();
        RackBench {
            setup,
            client_ports,
            events: 0,
        }
    }

    /// How many machines (and clients).
    pub fn machines(&self) -> usize {
        self.client_ports.len()
    }

    /// Client `i`.
    pub fn client(&self, i: usize) -> &KvsClientHost {
        self.setup
            .fabric
            .machine(self.setup.machines[i])
            .host_as(self.client_ports[i])
            .expect("client present")
    }

    /// Whether machine `i` is up (a crashed machine's client dies with it).
    pub fn alive(&self, i: usize) -> bool {
        !self.setup.fabric.is_dead(self.setup.machines[i])
    }

    fn alive_machines(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.machines()).filter(|&i| self.alive(i))
    }

    /// Whether every client on an alive machine finished.
    pub fn all_alive_done(&self) -> bool {
        self.alive_machines().all(|i| self.client(i).is_done())
    }

    /// Runs 10 ms slices until `pred` holds or `cap` virtual time elapses;
    /// returns whether it held.
    pub fn run_slices(&mut self, cap: SimDuration, pred: impl Fn(&RackBench) -> bool) -> bool {
        let deadline = self.setup.fabric.now() + cap;
        while self.setup.fabric.now() < deadline {
            self.events += self.setup.fabric.run_for(SLICE);
            if pred(self) {
                return true;
            }
        }
        pred(self)
    }

    /// [`RackBench::run_slices`] until [`RackBench::all_alive_done`].
    pub fn run_until_done(&mut self, cap: SimDuration) -> bool {
        self.run_slices(cap, RackBench::all_alive_done)
    }

    /// Merged end-to-end latency histogram over all alive clients.
    pub fn latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for i in self.alive_machines() {
            let hub = self.setup.fabric.machine(self.setup.machines[i]).stats();
            if let Some(c) = hub.histogram(&format!("c{i}.latency")) {
                h.merge(&c);
            }
        }
        h
    }

    /// Sum of `f` over the alive clients.
    pub fn sum_clients(&self, f: impl Fn(&KvsClientHost) -> u64) -> u64 {
        self.alive_machines().map(|i| f(self.client(i))).sum()
    }

    /// Sum of `f` over the alive machines' router statistics.
    pub fn sum_router_stat(&self, f: impl Fn(RouterStats) -> u64) -> u64 {
        self.alive_machines()
            .map(|i| f(self.setup.router(i).stats()))
            .sum()
    }
}
