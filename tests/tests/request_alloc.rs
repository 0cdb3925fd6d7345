//! A request is a slot and an envelope is recycled (DESIGN.md §13.1): in
//! steady state the NIC→SSD data path — NIC-resident server, VIRTIO queue,
//! doorbell — allocates nothing for a GET and only what becomes state for a
//! PUT, whether or not requests wait for queue space, and the control plane's
//! sends, doorbells and bus replies ride recycled envelope allocations. On a
//! rack, the shard router in front of those servers serves the borrowed frame
//! and reuses its request slots: what it allocates per operation is the frames
//! it sends.
//!
//! This file is its own test binary because it installs the counting global
//! allocator (`lastcpu_bench::alloc`), which counts only the thread that
//! runs a window.

use lastcpu_bench::alloc::{watch, CountingAlloc};
use lastcpu_bus::wire::Wire;
use lastcpu_bus::{ConnId, DeviceId, Dst, Envelope, Payload, ResourceKind};
use lastcpu_core::devices::device::{Device, DeviceCtx};
use lastcpu_core::devices::nic::SmartNic;
use lastcpu_core::devices::ssd::SsdConfig;
use lastcpu_core::{HostAction, HostCtx, NetHost, System, SystemConfig};
use lastcpu_fabric::{DirEndpoint, DirMsg, FabricConfig};
use lastcpu_kvs::proto::{KvsRequestRef, KvsResponseRef, KvsStatus};
use lastcpu_kvs::router::SUB_ID_BASE;
use lastcpu_kvs::{
    build_cpuless_kvs, build_rack_kvs, KvsNicApp, RouterConfig, ServerConfig, ShardRouterHost,
};
use lastcpu_net::{Frame, PortId};
use lastcpu_sim::{profile, BufPool, CorrId, DetRng, MetricsHub, SimDuration, SimTime};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Keys the store holds; a PUT phase walks them in order, so by the time a
/// key comes round again the 64-entry value cache has long evicted it.
const KEYS: u64 = 256;
/// Entries in the NIC's value cache.
const CACHE: usize = 64;
/// Operations in a warm-up phase and in a measured phase.
const WARM: u64 = 2_000;
const MEASURED: u64 = 1_000;
/// Allocations a measured phase may owe to the event wheel growing a bucket.
const SLACK: u64 = 16;
/// Quiet time between phases, so the test can read the counter at a moment
/// that belongs to neither.
const GAP: SimDuration = SimDuration::from_millis(1);

/// What a phase sends.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// GETs over the first half of the keys — written longest ago, so never
    /// in the value cache: every one reads the SSD.
    Get,
    /// Overwrites walking all the keys.
    Put,
}

/// The phases, in order: load every key, then a warm-up and a measured run
/// of each kind.
const PLAN: [(Kind, u64); 5] = [
    (Kind::Put, KEYS),
    (Kind::Get, WARM),
    (Kind::Get, MEASURED),
    (Kind::Put, WARM),
    (Kind::Put, MEASURED),
];

/// A closed-loop client with `window` requests outstanding that walks
/// [`PLAN`], pausing [`GAP`] between phases. Allocates nothing itself:
/// requests are encoded into pooled buffers from fixed-size key and value
/// arrays, responses are decoded in place.
struct PlanClient {
    server: PortId,
    /// When the first request goes out: after the server's Figure-2 session
    /// (and, on a rack, after the router has found its shards).
    start_after: SimDuration,
    window: u64,
    phase: usize,
    sent: u64,
    received: u64,
    next_key: u64,
    /// Phases completed (all responses in).
    finished: usize,
}

impl PlanClient {
    fn fill(&mut self, ctx: &mut HostCtx<'_>) {
        let Some(&(kind, count)) = PLAN.get(self.phase) else {
            return;
        };
        while self.sent < count && self.sent - self.received < self.window {
            let mut key = *b"key-0000";
            let k = match kind {
                Kind::Get => self.next_key % (KEYS / 2),
                Kind::Put => self.next_key % KEYS,
            };
            for (i, digit) in key[4..].iter_mut().rev().enumerate() {
                *digit = b'0' + (k / 10u64.pow(i as u32) % 10) as u8;
            }
            self.next_key += 1;
            let id = self.sent + 1;
            let value = [self.phase as u8; 64];
            let req = match kind {
                Kind::Get => KvsRequestRef::Get { id, key: &key },
                Kind::Put => KvsRequestRef::Put {
                    id,
                    key: &key,
                    value: &value,
                },
            };
            let mut buf = ctx.take_buf();
            req.encode_into(buf.vec_mut());
            ctx.net_tx(self.server, buf);
            self.sent += 1;
        }
    }
}

impl NetHost for PlanClient {
    fn name(&self) -> &str {
        "plan-client"
    }

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(self.start_after, 0);
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
        let resp = KvsResponseRef::decode(&frame.payload).expect("KVS response");
        assert_eq!(resp.status, KvsStatus::Ok, "request {}", resp.id);
        self.received += 1;
        if self.received == PLAN[self.phase].1 {
            self.finished += 1;
            self.phase += 1;
            self.sent = 0;
            self.received = 0;
            ctx.set_timer(GAP, 0);
        } else {
            self.fill(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
        self.fill(ctx);
    }
}

/// Allocations of the whole machine over each measured phase, as
/// `(1,000 GETs, 1,000 PUTs)`, with `window` requests outstanding.
fn data_path_allocs(window: u64) -> (u64, u64) {
    let mut setup = build_cpuless_kvs(
        SystemConfig {
            seed: 23,
            ..SystemConfig::default()
        },
        SsdConfig::default(),
        ServerConfig {
            cache_entries: CACHE,
            ..ServerConfig::default()
        },
    );
    let port = setup.system.add_host(Box::new(PlanClient {
        server: setup.kvs_port,
        start_after: SimDuration::from_millis(2),
        window,
        phase: 0,
        sent: 0,
        received: 0,
        next_key: 0,
        finished: 0,
    }));
    setup.system.power_on();
    // What each phase allocated, up to the quiet gap after it.
    let mut during = [0u64; PLAN.len()];
    let mut t = SimTime::ZERO;
    for (phase, allocs) in during.iter_mut().enumerate() {
        let ((), seen) = watch(|| loop {
            t += SimDuration::from_micros(100);
            assert!(
                t < SimTime::from_nanos(20_000_000_000),
                "phase {phase} stalled"
            );
            setup.system.run_until(t);
            let client: &PlanClient = setup.system.host_as(port).expect("client");
            if client.finished > phase {
                break;
            }
        });
        *allocs = seen.allocs;
    }
    let nic: &SmartNic<KvsNicApp> = setup.system.device_as(setup.frontend).expect("NIC");
    let stats = nic.app().stats();
    assert_eq!(stats.gets, WARM + MEASURED);
    assert_eq!(stats.cache_hits, 0, "every GET read the SSD");
    assert_eq!(stats.puts, KEYS + WARM + MEASURED);
    assert_eq!(stats.shed + stats.failures, 0);
    (during[2], during[4])
}

/// Allocations inside the shard router's frame handler
/// (`kvs.router.dispatch`: client requests in, sub-requests out, acks in,
/// responses out) over each measured phase of [`PLAN`], as `(1,000 GETs,
/// 1,000 PUTs)`: a four-machine rack at R = 2, the client on machine 0
/// driving its local router with eight requests outstanding. The profiler's
/// scopes tell the router's allocations from those of the eight servers,
/// switches and fabric that run in the same process.
fn router_allocs() -> (u64, u64) {
    let mut rack = build_rack_kvs(
        FabricConfig::default(),
        4,
        2,
        SystemConfig {
            seed: 24,
            ..SystemConfig::default()
        },
    );
    let m0 = rack.machines[0];
    let port = rack.fabric.machine_mut(m0).add_host(Box::new(PlanClient {
        server: rack.router_ports[0],
        start_after: SimDuration::from_millis(10),
        window: 8,
        phase: 0,
        sent: 0,
        received: 0,
        next_key: 0,
        finished: 0,
    }));
    rack.fabric.power_on();
    // One profiling session, read at the end of each phase: the profiler's
    // own set-up (a histogram per scope, made when the scope first closes)
    // falls in the load phase.
    profile::reset();
    profile::set_enabled(true);
    let mut after = [0u64; PLAN.len()];
    let mut t = SimTime::ZERO;
    for (phase, reading) in after.iter_mut().enumerate() {
        loop {
            t += SimDuration::from_micros(100);
            assert!(
                t < SimTime::from_nanos(20_000_000_000),
                "rack phase {phase} stalled"
            );
            rack.fabric.run_until(t);
            let client: &PlanClient = rack.fabric.machine(m0).host_as(port).expect("client");
            if client.finished > phase {
                break;
            }
        }
        let scopes = profile::snapshot().scopes;
        let router = scopes.iter().find(|s| s.name == "kvs.router.dispatch");
        *reading = router.expect("the router ran").allocs;
    }
    profile::set_enabled(false);
    let stats = rack.router(0).stats();
    assert_eq!(stats.requests, KEYS + 2 * (WARM + MEASURED));
    assert_eq!(
        stats.failovers + stats.give_ups + stats.late_acks + stats.busy_deferrals,
        0,
        "every operation took the plain path"
    );
    (after[2] - after[1], after[4] - after[3])
}

/// A router driven frame by frame, outside any machine.
struct DrivenRouter {
    router: ShardRouterHost,
    hub: MetricsHub,
    rng: DetRng,
    /// The action buffer the machine would lend.
    scratch: Vec<HostAction>,
}

impl DrivenRouter {
    const DIR: PortId = PortId(900);
    const SELF: PortId = PortId(1);
    const CLIENT: PortId = PortId(5);
    const SHARD: PortId = PortId(10);

    /// Delivers `payload` from `src`; returns the frames the router sent and
    /// what handling it allocated (the frame itself is built before the
    /// counter is read).
    fn frame(&mut self, src: PortId, payload: Vec<u8>) -> (Vec<Frame>, u64) {
        let frame = Frame::unicast(src, Self::SELF, payload);
        let scratch = std::mem::take(&mut self.scratch);
        // A pool with no idle buffer, so each frame the router builds costs
        // one allocation.
        let pool = BufPool::new();
        let (mut actions, seen) = watch(|| {
            let mut ctx = HostCtx::new(
                SimTime::ZERO,
                Self::SELF,
                &self.hub,
                &mut self.rng,
                CorrId::NONE,
                &pool,
            )
            .with_scratch(scratch);
            self.router.on_frame(&mut ctx, frame);
            ctx.finish()
        });
        let sent = actions
            .drain(..)
            .filter_map(|a| match a {
                HostAction::NetTx(f) => Some(f),
                _ => None,
            })
            .collect();
        self.scratch = actions;
        (sent, seen.allocs)
    }
}

/// What the router allocates to triage, in order: a late ack, a `Busy` ack,
/// a GET-shaped client frame (byte for byte a `NotFound` response) and the
/// hit that answers it.
fn triage_allocs() -> [u64; 4] {
    let mut d = DrivenRouter {
        router: ShardRouterHost::new(RouterConfig {
            dir_port: DrivenRouter::DIR,
            ..RouterConfig::default()
        }),
        hub: MetricsHub::new(),
        rng: DetRng::new(7),
        scratch: Vec::with_capacity(8),
    };
    let reply = DirMsg::Reply {
        epoch: 1,
        endpoints: vec![DirEndpoint {
            name: "m0/nic0".into(),
            kind: "smart-nic".into(),
            machine: 0,
            port: DrivenRouter::SHARD.0,
        }],
    };
    d.frame(DrivenRouter::DIR, reply.encode());
    let get = |id: u64| {
        KvsRequestRef::Get {
            id,
            key: b"key-0001",
        }
        .encode()
    };
    let ack =
        |id: u64, status: KvsStatus, value: &[u8]| KvsResponseRef { id, status, value }.encode();
    let sub_of = |sent: &[Frame]| {
        let [sub] = sent else {
            panic!("one sub-request expected, got {sent:?}");
        };
        assert_eq!(sub.dst, DrivenRouter::SHARD);
        KvsRequestRef::decode(&sub.payload).expect("a request").id()
    };
    // Warm-up: four requests in flight at once, then answered, so the
    // tables have their buffers and four slots wait on the spare list.
    let subs: Vec<u64> = (1..=4)
        .map(|id| sub_of(&d.frame(DrivenRouter::CLIENT, get(id)).0))
        .collect();
    for sub in subs {
        d.frame(DrivenRouter::SHARD, ack(sub, KvsStatus::Ok, &[1; 64]));
    }

    let (sent, late) = d.frame(
        DrivenRouter::SHARD,
        ack(SUB_ID_BASE | 0xDEAD, KvsStatus::NotFound, b"ghost-key"),
    );
    assert!(sent.is_empty());

    let (sent, _) = d.frame(DrivenRouter::CLIENT, get(5));
    let (answered, busy) = d.frame(
        DrivenRouter::SHARD,
        ack(sub_of(&sent), KvsStatus::Busy, &3u32.to_le_bytes()),
    );
    assert!(answered.is_empty());

    let aliasing = get(6);
    assert_eq!(
        KvsResponseRef::decode(&aliasing).map(|r| r.status),
        Some(KvsStatus::NotFound),
        "a GET is byte for byte a NotFound response"
    );
    let (sent, request) = d.frame(DrivenRouter::CLIENT, aliasing);
    let (answered, hit) = d.frame(
        DrivenRouter::SHARD,
        ack(sub_of(&sent), KvsStatus::Ok, &[2; 64]),
    );
    let [response] = &answered[..] else {
        panic!("one response expected, got {answered:?}");
    };
    assert_eq!(response.dst, DrivenRouter::CLIENT);
    assert_eq!(response.payload.to_vec(), ack(6, KvsStatus::Ok, &[2; 64]));

    let stats = d.router.stats();
    assert_eq!(
        (stats.requests, stats.late_acks, stats.busy_deferrals),
        (6, 1, 1)
    );
    [late, busy, request, hit]
}

/// Time between a [`Chatter`]'s rounds: one revolution of the event wheel
/// (1,024 slots of 256 ns), so every round's events land in buckets the
/// previous one already grew.
const PERIOD: SimDuration = SimDuration::from_nanos(1024 * 256);

/// Registers, then only listens.
struct Sink;

impl Device for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn kind(&self) -> &str {
        "sink"
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: "sink".into(),
                kind: "sink".into(),
            },
        );
    }
    fn on_message(&mut self, _ctx: &mut DeviceCtx<'_>, _env: &Envelope) {}
    fn on_timer(&mut self, _ctx: &mut DeviceCtx<'_>, _token: u64) {}
}

/// Every [`PERIOD`]: one unicast to `peer`, one doorbell to `peer`, and one
/// request the bus itself answers. None of the payloads owns heap memory, so
/// what is left to count is the envelopes.
struct Chatter {
    peer: DeviceId,
    rounds: u64,
    acks: u64,
}

impl Device for Chatter {
    fn name(&self) -> &str {
        "chatter"
    }
    fn kind(&self) -> &str {
        "chatter"
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: "chatter".into(),
                kind: "chatter".into(),
            },
        );
        ctx.set_timer(PERIOD, 1);
    }
    fn on_message(&mut self, _ctx: &mut DeviceCtx<'_>, env: &Envelope) {
        if matches!(env.payload, Payload::BusAck { .. }) {
            self.acks += 1;
        }
    }
    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, _token: u64) {
        self.rounds += 1;
        ctx.send_bus(Dst::Device(self.peer), Payload::Heartbeat);
        ctx.doorbell(self.peer, ConnId(1), self.rounds);
        ctx.send_bus(
            Dst::Bus,
            Payload::RegisterController {
                resource: ResourceKind::Memory,
            },
        );
        ctx.set_timer(PERIOD, 1);
    }
}

/// Allocations over 1,000 rounds of a [`Chatter`] (1,000 unicast sends,
/// 1,000 doorbells, 1,000 requests to the bus and its 1,000 replies), after
/// 200 rounds of warm-up. Tracing is on, as by default.
fn control_plane_allocs() -> u64 {
    let mut sys = System::new(SystemConfig::default());
    assert!(sys.trace().is_enabled());
    let sink = sys.add_device(Box::new(Sink));
    let chatter = sys.add_device(Box::new(Chatter {
        peer: sink.id,
        rounds: 0,
        acks: 0,
    }));
    sys.power_on();
    sys.run_for(PERIOD.saturating_mul(200));
    let counts = |sys: &System| {
        let c: &Chatter = sys.device_as(chatter).expect("chatter");
        (c.rounds, c.acks)
    };
    let (rounds_before, acks_before) = counts(&sys);
    let (_, seen) = watch(|| sys.run_for(PERIOD.saturating_mul(1_000)));
    let (rounds, acks) = counts(&sys);
    assert!((rounds - rounds_before).abs_diff(1_000) <= 1);
    assert!(
        (acks - acks_before).abs_diff(1_000) <= 1,
        "the bus answered"
    );
    seen.allocs
}

#[test]
fn the_data_path_allocates_state_and_nothing_else() {
    // Eight outstanding: the 64-descriptor virtqueue (32 requests) always has
    // room. Forty-eight: it is full and the rest wait in the server's backlog
    // as wire bytes.
    for window in [8, 48] {
        let (gets, puts) = data_path_allocs(window);
        // NIC server, virtqueue driver and client, doorbell, SSD, flash,
        // switch: nothing, for a thousand reads. (`SLACK` is for the event
        // wheel, which may still grow a bucket.)
        assert!(gets <= SLACK, "window {window}: {gets} for 1,000 GETs");
        // A PUT of a key the store holds and the cache does not: its value
        // and the cache's two copies of its key. (A key new to the store
        // would add its index entry.) The log record, the descriptor chain,
        // the doorbell and the waiting request cost nothing. On top, the
        // SSD's own state as the log grows by 90 KB: a page list per flash
        // block, an extent per stretch of file — 19 here.
        let state = 3 * MEASURED;
        assert!(
            (state..=state + 24 + SLACK).contains(&puts),
            "window {window}: {puts} for 1,000 PUTs"
        );
    }
    // 4,000 messages on the control plane; before envelopes were recycled,
    // 4,000 allocations.
    let ctl = control_plane_allocs();
    assert!(ctl <= SLACK, "{ctl} allocations for 4,000 control messages");

    // The router in front of a rack's servers: a frame is triaged where it
    // lies, and what is left is the frames the router sends — the exact-size
    // `Vec` of each sub-request and of the response. They stay out of the
    // machine's buffer pool on purpose: its taken/recycled counters are
    // checkpointed state.
    let (gets, puts) = router_allocs();
    // One sub-request to one replica, one response to the client. Before the
    // router served the borrowed frame it also copied the key twice (a GET
    // parses as a response first), the hit's value, and pushed onto a fresh
    // sub list: 6 per GET.
    assert_eq!(gets, 2 * MEASURED, "router, 1,000 GETs");
    // A sub-request to each of the two replicas, one response. The value and
    // key land in the request slot's own buffers and an overwritten key is
    // already in the acked set: 3 per PUT, where there were 7.
    assert_eq!(puts, 3 * MEASURED, "router, 1,000 PUTs");
    // Triage itself: nothing for a late or a `Busy` ack; a client request
    // costs the sub-request's frame and its hit the response's (1, 1, 4 and
    // 2 when every frame was decoded into an owned response first).
    assert_eq!(triage_allocs(), [0, 0, 1, 1]);
}
