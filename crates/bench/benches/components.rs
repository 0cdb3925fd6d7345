//! Criterion micro-benchmarks of the emulator's substrates: the nine that
//! have no calibrated counterpart among `benchmark/`'s rungs and workloads
//! (ROADMAP: they move there, and this file goes, in the next
//! benchmark-only PR).
//!
//! These measure *host* time (how fast the library simulates), complementing
//! the experiments, which report *virtual* time (what the simulated machine
//! would observe).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use lastcpu_bus::{DeviceId, Dst, Envelope, Payload, RequestId, ServiceId, Token};
use lastcpu_core::{HostCtx, NetHost, System, SystemConfig};
use lastcpu_devices::device::{Device, DeviceCtx};
use lastcpu_fabric::{DirMsg, Fabric, FabricConfig};
use lastcpu_sim::{CorrId, DetRng, Histogram, SimDuration, SimTime, TraceData, TraceSink, Zipf};

fn bench_wire_codec(c: &mut Criterion) {
    let env = Envelope {
        src: DeviceId(7),
        dst: Dst::Device(DeviceId(9)),
        req: RequestId(42),
        corr: CorrId(1),
        payload: Payload::OpenRequest {
            service: ServiceId(3),
            token: Token(0xDEADBEEF),
            params: vec![0xAB; 64],
        },
    };
    // The analytic size used on the routing hot path in place of a full
    // encode (which `benchmark/`'s bus.codec_ns_per_msg rung prices).
    c.bench_function("wire/encoded_len_open_request", |b| {
        b.iter(|| black_box(&env).encoded_len())
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("stats/histogram_record", |b| {
        let mut h = Histogram::new();
        let mut v = 1u64;
        b.iter(|| {
            h.record(SimDuration::from_nanos(black_box(v)));
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1) >> 34;
        })
    });
}

fn bench_trace_overhead(c: &mut Criterion) {
    // The observability acceptance bar: with tracing disabled, an emit must
    // cost a single branch — compare these two numbers to verify.
    c.bench_function("trace/emit_disabled", |b| {
        let mut sink = TraceSink::disabled();
        let mut n = 0u64;
        b.iter(|| {
            n = n.wrapping_add(1);
            sink.emit_data(
                SimTime::from_nanos(n),
                "bench",
                CorrId(1),
                TraceData::Stage {
                    stage: "client.issue",
                    id: black_box(n),
                    aux: 1,
                },
            );
        });
    });
    // A `&str` source is copied to the heap per record; `trace/emit_stage`
    // below is the same sink fed a shared name.
    c.bench_function("trace/emit_enabled_bounded", |b| {
        let mut sink = TraceSink::bounded(4096);
        let to: Arc<str> = "dev:9".into();
        let mut n = 0u64;
        b.iter(|| {
            n = n.wrapping_add(1);
            sink.emit_data(
                SimTime::from_nanos(n),
                "bench",
                CorrId(1),
                TraceData::QueueDoorbell {
                    to: to.clone(),
                    value: black_box(n),
                },
            );
        });
    });
    // The per-operation mark of a traced run, the way `System` emits it: the
    // source is the host's shared name, so the record allocates nothing.
    c.bench_function("trace/emit_stage", |b| {
        let mut sink = TraceSink::bounded(4096);
        let source: Arc<str> = "c0".into();
        let mut n = 0u64;
        b.iter(|| {
            n = n.wrapping_add(1);
            sink.emit_data(
                SimTime::from_nanos(n),
                source.clone(),
                CorrId(1),
                TraceData::Stage {
                    stage: "client.issue",
                    id: black_box(n),
                    aux: 1,
                },
            );
        });
    });
}

fn bench_zipf(c: &mut Criterion) {
    // One key draw of the 400-key, theta 0.99 client every KVS experiment
    // uses. Construction (400 `powf`) is outside the loop, as it is outside
    // the client's.
    c.bench_function("rng/zipf_400_0.99", |b| {
        let zipf = Zipf::new(400, 0.99);
        let mut rng = DetRng::new(5);
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
}

/// Registers on its bus as a `smart-nic` and then stays silent: one
/// directory entry per machine.
struct Beacon;
impl Device for Beacon {
    fn name(&self) -> &str {
        "nic0"
    }
    fn kind(&self) -> &str {
        "smart-nic"
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: "nic0".into(),
                kind: "smart-nic".into(),
            },
        );
    }
    fn on_message(&mut self, _ctx: &mut DeviceCtx<'_>, _env: &Envelope) {}
    fn on_timer(&mut self, _ctx: &mut DeviceCtx<'_>, _token: u64) {}
}

/// Fires every `period`; with `query` set it sends that directory port one
/// query per tick and drops the replies.
struct Ticker {
    period: SimDuration,
    query: Option<lastcpu_net::PortId>,
}
impl NetHost for Ticker {
    fn name(&self) -> &str {
        "ticker"
    }
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(self.period, 0);
    }
    fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, _frame: lastcpu_net::Frame) {}
    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        if let Some(dir) = self.query {
            ctx.net_tx(dir, DirMsg::Query { epoch_hint: 0 }.encode());
        }
        ctx.set_timer(self.period, token);
    }
}

/// 32 machines, each one [`Beacon`]; machine 0 also runs a [`Ticker`].
/// Returned warmed up: every start event retired, registries settled.
fn ticking_rack(cfg: FabricConfig, period: SimDuration, query: bool) -> Fabric {
    let mut fab = Fabric::new(cfg);
    for i in 0..32 {
        let mut sys = System::new(SystemConfig {
            seed: i,
            trace: false,
            ..SystemConfig::default()
        });
        sys.add_net_device(Box::new(Beacon));
        let m = fab.add_machine(format!("m{i}"), sys);
        if i == 0 {
            let query = query.then(|| fab.directory_port(m));
            fab.machine_mut(m)
                .add_host(Box::new(Ticker { period, query }));
        }
    }
    fab.power_on();
    fab.run_for(SimDuration::from_millis(2));
    fab
}

fn bench_fabric(c: &mut Criterion) {
    // The two per-tick costs of a rack that is mostly waiting. Each
    // iteration is one `run_for` of one ticker period, so it also pays the
    // per-call refresh of all 32 cached event times.
    let period = SimDuration::from_micros(10);
    // One directory query from m0, answered at a steady epoch and delivered
    // back, with the 250 us sweeps over 32 unchanged registries folded in.
    c.bench_function("fabric/dir_query_32", |b| {
        let mut fab = ticking_rack(FabricConfig::default(), period, true);
        assert_eq!(fab.directory().len(), 32);
        b.iter(|| black_box(fab.run_for(period)))
    });
    // One `run_for` in which m0 has one timer event and 31 machines have
    // nothing; the sweep is pushed out of the way.
    c.bench_function("fabric/idle_window_32", |b| {
        let cfg = FabricConfig {
            sync_interval: SimDuration::from_secs(3600),
            ..FabricConfig::default()
        };
        let mut fab = ticking_rack(cfg, period, false);
        b.iter(|| black_box(fab.run_for(period)))
    });
}

fn bench_doorbell_value(c: &mut Criterion) {
    // Sanity-priced micro op: encode/decode the setup doorbell.
    c.bench_function("ssd/setup_doorbell_encode", |b| {
        b.iter(|| lastcpu_devices::ssd::setup_doorbell(black_box(0x2000_0000), 64))
    });
}

criterion_group!(
    benches,
    bench_wire_codec,
    bench_histogram,
    bench_trace_overhead,
    bench_zipf,
    bench_fabric,
    bench_doorbell_value,
);
criterion_main!(benches);
