//! Isolated layer drivers ("rungs"): each loops one layer's public
//! functions on a fixed seeded input mix and reports calibrated ns per
//! call. Work is a fixed iteration count, never a time budget, so the
//! allocation counts beside the times repeat exactly.

use std::hint::black_box;
use std::sync::Arc;

use lastcpu_bus::{
    DeviceId, Dst, Envelope, MapOp, Payload, RequestId, ResourceKind, ServiceDesc, ServiceId,
    Status, SystemBus, Token,
};
use lastcpu_core::devices::flash::{NandChip, NandConfig};
use lastcpu_core::devices::ftl::Ftl;
use lastcpu_core::{HostCtx, NetHost, System, SystemConfig};
use lastcpu_fabric::{FabricConfig, HashRing, TopoKind, Topology, TopologyConfig};
use lastcpu_iommu::{AccessKind, Iommu};
use lastcpu_kvs::proto::{
    encode_get_into, encode_response_into, KvsRequestRef, KvsResponseRef, KvsStatus,
};
use lastcpu_kvs::{KvEngine, RouterConfig};
use lastcpu_mem::{FrameAllocator, Pasid, Perms, PhysAddr, VirtAddr, PAGE_SIZE};
use lastcpu_memctl::MemoryController;
use lastcpu_net::{Frame, PortId, Switch};
use lastcpu_sim::{CorrId, DetRng, EventQueue, SimDuration, SimTime};
use lastcpu_virtio::{
    DescChain, FlatMemory, QueueLayout, QueueMemory, VirtqueueDevice, VirtqueueDriver,
};

use crate::calib::{Ctx, Meter, Phase};
use crate::metrics::{ratio, Values};

/// `full` iterations at full size, scaled down with the run (a smoke run
/// wants every rung, not every rung's precision).
fn iters(full: u64, scale: f64) -> u64 {
    ((full as f64 * scale.min(1.0)) as u64).max(2_000)
}

/// Times `iters` calls of `body` as one `rung.*` span.
fn rung(ctx: &mut Ctx, span: &'static str, iters: u64, mut body: impl FnMut(u64)) -> Phase {
    let mut meter = Meter::start(ctx);
    meter.run(ctx, span, || {
        for i in 0..iters {
            body(i);
        }
        ((), 0)
    });
    meter.finish(ctx)
}

/// `EventQueue` pop + schedule at a constant depth of 65,536 with the E9
/// delay mix: 75% near-future, 20% timeouts, 5% far-horizon timers.
fn queue(ctx: &mut Ctx, scale: f64, v: &mut Values) {
    let ops = iters(1_000_000, scale);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = DetRng::new(0xE9);
    let mut delay = move || {
        SimDuration::from_nanos(match rng.below(20) {
            0 => 1 + rng.below(1 << 24),
            1..=4 => 1 + rng.below(1 << 18),
            _ => 1 + rng.below(1 << 12),
        })
    };
    for i in 0..65_536 {
        q.schedule_in(delay(), i);
    }
    let p = rung(ctx, "rung.sim.queue_ns_per_op", ops, |i| {
        let ev = q.pop().expect("constant depth");
        q.schedule_in(delay(), black_box(ev.event) ^ i);
    });
    v.set("sim.queue_ns_per_op", p.cal_ns_per(ops));
    v.set("sim.queue_allocs_per_op", ratio(p.allocs, ops));
}

/// A host that only re-arms its timer: engine + timer dispatch, no device,
/// no bus traffic, no frame.
struct TimerHost {
    period: SimDuration,
}

impl NetHost for TimerHost {
    fn name(&self) -> &str {
        "timer-host"
    }

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(self.period, 0);
    }

    fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, _frame: Frame) {}

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        ctx.set_timer(self.period, token);
    }
}

/// A host that sends every frame it gets straight back.
struct EchoHost {
    /// Frames to launch at `peer` on start (0 on the passive side).
    launch: usize,
    peer: PortId,
}

impl NetHost for EchoHost {
    fn name(&self) -> &str {
        "echo-host"
    }

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for _ in 0..self.launch {
            let buf = ctx.take_buf_filled(0x5A, 64);
            ctx.net_tx(self.peer, buf);
        }
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
        ctx.net_tx(frame.src, frame.payload);
    }
}

/// Runs `sys` through a warm-up and then a measured stretch of virtual
/// time; returns ns and allocations per event.
fn engine_rung(ctx: &mut Ctx, span: &'static str, mut sys: System, run_us: u64) -> (f64, f64) {
    let run = SimDuration::from_micros(run_us);
    sys.power_on();
    let warm = SimTime::ZERO + SimDuration::from_millis(1);
    sys.run_until(warm);
    let mut meter = Meter::start(ctx);
    meter.run(ctx, span, || ((), sys.run_until(warm + run)));
    let p = meter.finish(ctx);
    assert!(p.events > 1_000, "{span} retired only {} events", p.events);
    (p.cal_ns_per(p.events), ratio(p.allocs, p.events))
}

/// The two engine rungs between the bare queue and a full machine.
fn engine(ctx: &mut Ctx, scale: f64, v: &mut Values) {
    let mut idle = System::new(SystemConfig::default());
    for i in 0..64 {
        idle.add_host(Box::new(TimerHost {
            period: SimDuration::from_nanos(1_000 + 37 * i),
        }));
    }
    let (ns, allocs) = engine_rung(ctx, "rung.core.idle_event_ns", idle, iters(5_000, scale));
    v.set("core.idle_event_ns", ns);
    v.set("core.idle_allocs_per_event", allocs);

    let mut net = System::new(SystemConfig::default());
    // Ports are handed out in order, so each host can name the other.
    let a = net.add_host(Box::new(EchoHost {
        launch: 32,
        peer: PortId(2),
    }));
    let b = net.add_host(Box::new(EchoHost { launch: 0, peer: a }));
    assert_eq!(b, PortId(2), "echo peer port");
    let (ns, allocs) = engine_rung(ctx, "rung.core.net_event_ns", net, iters(20_000, scale));
    v.set("core.net_event_ns", ns);
    v.set("core.net_allocs_per_event", allocs);
}

fn envelope(src: DeviceId, dst: Dst, payload: Payload) -> Envelope {
    Envelope {
        src,
        dst,
        req: RequestId(7),
        corr: CorrId(1),
        payload,
    }
}

/// The control-plane message mix: discovery, announce, open, alloc, share,
/// and the privileged map instruction.
fn control_mix(client: DeviceId, owner: DeviceId, memctl: DeviceId) -> Vec<Envelope> {
    vec![
        envelope(
            client,
            Dst::Broadcast,
            Payload::Query {
                pattern: "file:/data/kv.db".into(),
            },
        ),
        envelope(
            owner,
            Dst::Bus,
            Payload::Announce {
                service: ServiceDesc {
                    id: ServiceId(3),
                    name: "file:/data/kv.db".into(),
                    resource: ResourceKind::Storage,
                },
            },
        ),
        envelope(
            client,
            Dst::Device(owner),
            Payload::OpenRequest {
                service: ServiceId(3),
                token: Token::NONE,
                params: vec![0xAB; 64],
            },
        ),
        envelope(
            client,
            Dst::Device(memctl),
            Payload::MemAlloc {
                pasid: 1,
                va: 0x2000_0000,
                bytes: 256 << 10,
                perms: 3,
            },
        ),
        envelope(
            client,
            Dst::Device(memctl),
            Payload::Share {
                region: 1,
                target: owner,
                pasid: 1,
                va: 0x2000_0000,
                perms: 3,
            },
        ),
        envelope(
            memctl,
            Dst::Bus,
            Payload::MapInstruction {
                resource: ResourceKind::Memory,
                op: MapOp::Map,
                device: owner,
                pasid: 1,
                va: 0x2000_0000,
                pa: 0x20_0000,
                pages: 64,
                perms: 3,
            },
        ),
    ]
}

fn bus(ctx: &mut Ctx, scale: f64, v: &mut Values) {
    let msgs = iters(300_000, scale);
    let mut bus = SystemBus::new();
    let ids: Vec<DeviceId> = (0..8)
        .map(|i| bus.attach(&format!("dev{i}"), "device"))
        .collect();
    let mut fx = Vec::new();
    for &id in &ids {
        let hello = Payload::Hello {
            name: String::new(),
            kind: String::new(),
        };
        bus.handle(SimTime::ZERO, envelope(id, Dst::Bus, hello), &mut fx);
    }
    let memctl = ids[2];
    let register = Payload::RegisterController {
        resource: ResourceKind::Memory,
    };
    bus.handle(SimTime::ZERO, envelope(memctl, Dst::Bus, register), &mut fx);
    let mix = control_mix(ids[0], ids[1], memctl);
    let shared: Vec<Arc<Envelope>> = mix.iter().cloned().map(Arc::new).collect();
    let p = rung(ctx, "rung.bus.handle_ns_per_msg", msgs, |i| {
        fx.clear();
        let env = Arc::clone(&shared[i as usize % shared.len()]);
        bus.handle(SimTime::from_nanos(i), env, &mut fx);
        black_box(fx.len());
    });
    v.set("bus.handle_ns_per_msg", p.cal_ns_per(msgs));

    let p = rung(ctx, "rung.bus.codec_ns_per_msg", msgs, |i| {
        let bytes = black_box(&mix[i as usize % mix.len()]).encode();
        black_box(Envelope::decode(&bytes).expect("own encoding decodes"));
    });
    v.set("bus.codec_ns_per_msg", p.cal_ns_per(msgs));
}

/// alloc → share → free against the memory-controller policy engine.
fn memctl(ctx: &mut Ctx, scale: f64, v: &mut Values) {
    let cycles = iters(60_000, scale);
    let (mc_id, client, peer) = (DeviceId(3), DeviceId(1), DeviceId(2));
    let mut mc = MemoryController::new(mc_id, 1 << 30);
    let mut out = Vec::new();
    let to_mc = |payload| envelope(client, Dst::Device(mc_id), payload);
    let p = rung(ctx, "rung.memctl.handle_ns_per_req", cycles, |_| {
        out.clear();
        mc.handle(
            &to_mc(Payload::MemAlloc {
                pasid: 1,
                va: 0x10000,
                bytes: 64 << 10,
                perms: 3,
            }),
            &mut out,
        );
        let region = out
            .iter()
            .find_map(|e| match e.payload {
                Payload::MemAllocResponse {
                    status: Status::Ok,
                    region,
                } => Some(region),
                _ => None,
            })
            .expect("alloc succeeds");
        mc.handle(
            &to_mc(Payload::Share {
                region,
                target: peer,
                pasid: 2,
                va: 0x10000,
                perms: 3,
            }),
            &mut out,
        );
        mc.handle(&to_mc(Payload::MemFree { region }), &mut out);
        black_box(out.len());
    });
    v.set("memctl.handle_ns_per_req", p.cal_ns_per(3 * cycles));
}

fn frame_alloc(ctx: &mut Ctx, scale: f64, v: &mut Values) {
    let pairs = iters(1_000_000, scale);
    let mut fa = FrameAllocator::new(1 << 16);
    let p = rung(ctx, "rung.mem.frame_alloc_ns_per_op", pairs, |_| {
        let f = fa.alloc_order(3).expect("allocator has room");
        fa.free(black_box(f)).expect("frees what it allocated");
    });
    v.set("mem.frame_alloc_ns_per_op", p.cal_ns_per(pairs));
}

fn iommu(ctx: &mut Ctx, scale: f64, v: &mut Values) {
    let ops = iters(1_000_000, scale);
    let pasid = Pasid(1);
    let mut mmu = Iommu::new(SystemConfig::default().iotlb_entries);
    mmu.bind_pasid(pasid);
    for p in 0..1024u64 {
        let (va, pa) = (
            VirtAddr::new(p * PAGE_SIZE),
            PhysAddr::new((p + 8) * PAGE_SIZE),
        );
        mmu.map(pasid, va, pa, Perms::RW).expect("fresh mapping");
    }
    let p = rung(ctx, "rung.iommu.translate_hit_ns", ops, |i| {
        let va = VirtAddr::new(0x10 + (i & 0xFF));
        black_box(mmu.translate(pasid, va, AccessKind::Read).expect("mapped"));
    });
    v.set("iommu.translate_hit_ns", p.cal_ns_per(ops));

    let mut rng = DetRng::new(9);
    let p = rung(ctx, "rung.iommu.translate_miss_ns", ops, |_| {
        let va = VirtAddr::new(rng.below(1024) * PAGE_SIZE);
        black_box(mmu.translate(pasid, va, AccessKind::Read).expect("mapped"));
    });
    v.set("iommu.translate_miss_ns", p.cal_ns_per(ops));

    let (va, pa) = (
        VirtAddr::new(4096 * PAGE_SIZE),
        PhysAddr::new(4104 * PAGE_SIZE),
    );
    let p = rung(ctx, "rung.iommu.map_unmap_ns", ops / 2, |_| {
        mmu.map(pasid, va, pa, Perms::RW).expect("unmapped before");
        black_box(mmu.unmap(pasid, va).expect("mapped above"));
    });
    v.set("iommu.map_unmap_ns", p.cal_ns_per(ops / 2));
}

/// submit_request → pop_into → write_response → push_used → complete.
fn virtio(ctx: &mut Ctx, scale: f64, v: &mut Values) {
    let trips = iters(300_000, scale);
    let mut mem = FlatMemory::new(64 * 1024);
    let layout = QueueLayout::new(0x100, 64);
    let mut drv = VirtqueueDriver::create(&mut mem, layout).expect("queue fits");
    let mut dev = VirtqueueDevice::attach(layout);
    mem.write(0x4000, b"request!").expect("in range");
    let mut chain = DescChain {
        head: 0,
        readable: Vec::new(),
        writable: Vec::new(),
    };
    let p = rung(ctx, "rung.virtio.roundtrip_ns", trips, |_| {
        let head = drv
            .submit_request(&mut mem, 0x4000, 8, 0x5000, 16)
            .expect("descriptors free");
        assert!(dev.pop_into(&mut mem, &mut chain).expect("queue intact"));
        let n = dev
            .write_response(&mut mem, &chain, b"resp")
            .expect("writable segment");
        dev.push_used(&mut mem, chain.head, n)
            .expect("used ring intact");
        let done = drv
            .complete(&mut mem)
            .expect("queue intact")
            .expect("one completion");
        assert_eq!(done.head, head);
    });
    v.set("virtio.roundtrip_ns", p.cal_ns_per(trips));
}

/// 4 KiB writes and reads over an FTL kept 80% full, so garbage
/// collection runs.
fn ftl(ctx: &mut Ctx, scale: f64, v: &mut Values) {
    let ops = iters(20_000, scale);
    let mut ftl = Ftl::new(NandChip::new(NandConfig {
        blocks: 64,
        pages_per_block: 32,
        page_size: 4096,
        max_erase_cycles: u32::MAX,
        ..NandConfig::default()
    }));
    let page = vec![0x5Au8; 4096];
    let live = u64::from(ftl.logical_pages()) * 4 / 5;
    for lpn in 0..live {
        ftl.write(lpn as u32, &page).expect("fill");
    }
    let mut rng = DetRng::new(0xF71);
    let p = rung(ctx, "rung.devices.ftl_write_ns", ops, |_| {
        black_box(
            ftl.write(rng.below(live) as u32, black_box(&page))
                .expect("overwrite"),
        );
    });
    v.set("devices.ftl_write_ns", p.cal_ns_per(ops));
    assert!(ftl.stats().gc_runs > 0, "the FTL rung must exercise GC");

    let mut buf = vec![0u8; 4096];
    let p = rung(ctx, "rung.devices.ftl_read_ns", 5 * ops, |_| {
        black_box(
            ftl.read(rng.below(live) as u32, &mut buf)
                .expect("live page"),
        );
    });
    v.set("devices.ftl_read_ns", p.cal_ns_per(5 * ops));
}

fn switch(ctx: &mut Ctx, scale: f64, v: &mut Values) {
    let count = iters(1_000_000, scale);
    let mut sw = Switch::new().with_cost_model(SystemConfig::default().net_cost);
    let ports: Vec<PortId> = (0..16).map(|_| sw.add_port()).collect();
    let frames: Vec<Frame> = (0..16)
        .map(|i| Frame::unicast(ports[i], ports[(i + 5) % 16], vec![0u8; 160]))
        .collect();
    let p = rung(ctx, "rung.net.route_ns_per_frame", count, |i| {
        let at = SimTime::from_nanos(i * 50);
        black_box(sw.route_unicast(at, &frames[i as usize & 15]));
    });
    v.set("net.route_ns_per_frame", p.cal_ns_per(count));
}

fn kvs(ctx: &mut Ctx, scale: f64, v: &mut Values) {
    const KEYS: u64 = 20_000;
    let ops = iters(500_000, scale);
    let key = |k: u64| format!("key{k:08}").into_bytes();
    let keys: Vec<Vec<u8>> = (0..KEYS).map(key).collect();
    let value = vec![0xCDu8; 256];
    let mut engine = KvEngine::new();
    for k in &keys {
        engine.put(k, &value).expect("within limits");
    }
    let mut rng = DetRng::new(0x6E7);
    let p = rung(ctx, "rung.kvs.engine_get_ns", ops, |_| {
        black_box(engine.get(&keys[rng.below(KEYS) as usize]));
    });
    v.set("kvs.engine_get_ns", p.cal_ns_per(ops));
    let p = rung(ctx, "rung.kvs.engine_put_ns", ops, |_| {
        black_box(
            engine
                .put(&keys[rng.below(KEYS) as usize], &value)
                .expect("within limits"),
        );
    });
    v.set("kvs.engine_put_ns", p.cal_ns_per(ops));

    let (mut req, mut resp) = (Vec::new(), Vec::new());
    let p = rung(ctx, "rung.kvs.proto_codec_ns", ops, |i| {
        req.clear();
        encode_get_into(i, &keys[i as usize % keys.len()], &mut req);
        let id = KvsRequestRef::decode(&req)
            .expect("own encoding decodes")
            .id();
        resp.clear();
        encode_response_into(id, KvsStatus::Ok, &value, &mut resp);
        black_box(
            KvsResponseRef::decode(&resp)
                .expect("own encoding decodes")
                .id,
        );
    });
    v.set("kvs.proto_codec_ns", p.cal_ns_per(ops));
}

/// `Topology::transit` on the `rack_kv` graph, and replica lookup on a
/// 32-node hash ring.
fn fabric(ctx: &mut Ctx, scale: f64, v: &mut Values) {
    let ops = iters(1_000_000, scale);
    const MACHINES: u64 = 32;
    let cfg = FabricConfig::default();
    let topo_cfg = TopologyConfig {
        kind: TopoKind::LeafSpine { leaf_size: 8 },
        oversub: 4,
    };
    let mut topo = Topology::build(&topo_cfg, &cfg.link_cost, MACHINES as usize, cfg.seed);
    let mut rng = DetRng::new(0xFAB);
    let p = rung(ctx, "rung.fabric.transit_ns_per_frame", ops, |i| {
        let (src, hop) = (rng.below(MACHINES), 1 + rng.below(MACHINES - 1));
        let dst = (src + hop) % MACHINES;
        let at = SimTime::from_nanos(i * 200);
        black_box(topo.transit(src as usize, dst as usize, 1_100, at));
    });
    v.set("fabric.transit_ns_per_frame", p.cal_ns_per(ops));

    let mut ring = HashRing::new(RouterConfig::default().vnodes);
    for m in 0..MACHINES {
        ring.insert(&format!("m{m}/nic0"));
    }
    let keys: Vec<Vec<u8>> = (0..1024u64)
        .map(|k| format!("key{k:08}").into_bytes())
        .collect();
    let p = rung(ctx, "rung.fabric.ring_lookup_ns", ops, |i| {
        black_box(ring.replicas(&keys[i as usize & 1023], 2).len());
    });
    v.set("fabric.ring_lookup_ns", p.cal_ns_per(ops));
}

/// Every rung, in ladder order.
pub fn run_all(ctx: &mut Ctx, scale: f64) -> Values {
    let mut v = Values::default();
    ctx.tracer.open("rungs");
    for f in [
        queue,
        engine,
        bus,
        memctl,
        frame_alloc,
        iommu,
        virtio,
        ftl,
        switch,
        kvs,
        fabric,
    ] {
        f(ctx, scale, &mut v);
    }
    ctx.tracer.close();
    v
}
