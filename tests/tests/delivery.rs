//! Differential test for the zero-alloc delivery path (DESIGN.md §13.1).
//!
//! `KvsServer::try_fast_get` answers cache-hit GETs without materializing
//! an owned request or an intermediate response `Vec`. That optimization
//! must be invisible: with the fast path force-disabled every request runs
//! the classic enqueue/pump path, and the client must observe *byte-
//! identical* responses at *identical* virtual times. This test holds the
//! two paths to that contract.

use lastcpu_core::devices::nic::SmartNic;
use lastcpu_core::{HostCtx, NetHost, SystemConfig};
use lastcpu_kvs::proto::{encode_get_into, encode_put_into, KvsResponseRef, KvsStatus};
use lastcpu_kvs::server::{ServerConfig, ServerStats};
use lastcpu_kvs::{build_cpuless_kvs, KvsNicApp};
use lastcpu_net::{Frame, PortId};
use lastcpu_sim::SimDuration;

/// One scripted request: `(key, Some(value))` is a PUT, `(key, None)` a GET.
type Step = (&'static [u8], Option<&'static [u8]>);

/// A deliberately path-sensitive script: GETs that warm the value cache
/// (the first read of a key fills it; PUTs invalidate), repeated reads
/// that are fast-path eligible, a miss, and a rewrite followed by re-reads
/// so a stale fast-path cache would be caught as a value mismatch.
const SCRIPT: &[Step] = &[
    (b"alpha", Some(&[0x11; 64])),
    (b"beta", Some(&[0x22; 96])),
    (b"alpha", None), // miss → fills cache
    (b"beta", None),  // miss → fills cache
    (b"alpha", None), // cache hit (fast-path eligible)
    (b"beta", None),  // cache hit
    (b"alpha", None), // cache hit
    (b"missing", None),
    (b"alpha", Some(&[0x33; 64])), // invalidates the cached 0x11 value
    (b"alpha", None),              // miss → refills with 0x33
    (b"alpha", None),              // cache hit must serve 0x33
];

/// Closed-loop scripted client that records `(virtual-ns, payload-bytes)`
/// for every response frame it receives.
struct ScriptClient {
    server: PortId,
    step: usize,
    log: Vec<(u64, Vec<u8>)>,
}

impl ScriptClient {
    fn new(server: PortId) -> Self {
        ScriptClient {
            server,
            step: 0,
            log: Vec::new(),
        }
    }

    fn issue(&mut self, ctx: &mut HostCtx<'_>) {
        let Some(&(key, value)) = SCRIPT.get(self.step) else {
            return;
        };
        let id = self.step as u64 + 1;
        let mut buf = ctx.take_buf();
        match value {
            Some(v) => encode_put_into(id, key, v, buf.vec_mut()),
            None => encode_get_into(id, key, buf.vec_mut()),
        }
        ctx.net_tx(self.server, buf);
    }

    fn done(&self) -> bool {
        self.step >= SCRIPT.len()
    }
}

impl NetHost for ScriptClient {
    fn name(&self) -> &str {
        "script-client"
    }

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.issue(ctx);
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
        let resp = KvsResponseRef::decode(&frame.payload).expect("KVS response");
        self.log.push((ctx.now.as_nanos(), frame.payload.to_vec()));
        match resp.status {
            // Boot-time warm-up (or shed load): retry the same step. Both
            // runs replay the same warm-up, so the logs stay comparable.
            KvsStatus::Busy | KvsStatus::Unavailable => self.issue(ctx),
            _ => {
                self.step += 1;
                self.issue(ctx);
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut HostCtx<'_>, _token: u64) {}
}

/// Runs the script against a fresh single-machine KVS and returns the
/// client's response log plus the server counters.
fn run_script(seed: u64, fast_path: bool) -> (Vec<(u64, Vec<u8>)>, ServerStats) {
    let mut setup = build_cpuless_kvs(
        SystemConfig {
            seed,
            ..SystemConfig::default()
        },
        Default::default(),
        ServerConfig {
            // The fast path only answers from the NIC-local value cache,
            // which defaults off.
            cache_entries: 16,
            ..ServerConfig::default()
        },
    );
    setup
        .system
        .device_as_mut::<SmartNic<KvsNicApp>>(setup.frontend)
        .expect("frontend NIC")
        .app_mut()
        .set_fast_path(fast_path);
    let port = setup
        .system
        .add_host(Box::new(ScriptClient::new(setup.kvs_port)));
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_millis(50));

    let client: &ScriptClient = setup.system.host_as(port).expect("client");
    assert!(client.done(), "script stalled at step {}", client.step);
    let nic: &SmartNic<KvsNicApp> = setup
        .system
        .device_as(setup.frontend)
        .expect("frontend NIC");
    (client.log.clone(), nic.app().stats())
}

#[test]
fn fast_path_and_slow_path_are_byte_identical() {
    for seed in [1u64, 42, 0xE13] {
        let (fast_log, fast_stats) = run_script(seed, true);
        let (slow_log, slow_stats) = run_script(seed, false);

        // The optimization fired on the fast run and never on the control.
        assert!(
            fast_stats.fast_gets > 0,
            "seed {seed}: no GET took the fast path — the differential ran \
             slow-vs-slow and proves nothing"
        );
        assert_eq!(slow_stats.fast_gets, 0, "seed {seed}: disabled path fired");

        // Same responses, same bytes, same virtual timestamps.
        assert_eq!(
            fast_log, slow_log,
            "seed {seed}: fast path changed observable behavior"
        );

        // Server-side accounting agrees on everything but the path marker.
        let neutral = |mut s: ServerStats| {
            s.fast_gets = 0;
            s
        };
        assert_eq!(
            neutral(fast_stats),
            neutral(slow_stats),
            "seed {seed}: fast path perturbed server counters"
        );
    }
}

#[test]
fn script_exercises_hits_and_misses() {
    let (log, stats) = run_script(7, true);
    // Every scripted op eventually got a terminal answer.
    let terminal = log
        .iter()
        .filter(|(_, p)| {
            let r = KvsResponseRef::decode(p).unwrap();
            !matches!(r.status, KvsStatus::Busy | KvsStatus::Unavailable)
        })
        .count();
    assert_eq!(terminal, SCRIPT.len());
    // The miss really missed and the re-read saw the rewritten value.
    let last = KvsResponseRef::decode(&log.last().unwrap().1).unwrap();
    assert_eq!(last.status, KvsStatus::Ok);
    assert_eq!(last.value, vec![0x33u8; 64]);
    assert!(stats.misses >= 1, "GET missing must count a miss");
    assert!(stats.cache_hits >= 3);
}

// --- The same contract under backpressure ----------------------------------

/// Steps in the pressure script.
const PRESSURE_STEPS: usize = 240;

/// Step `i` of the pressure script: six keys, three PUTs in ten, values that
/// change with every write so a stale answer shows.
fn pressure_step(i: usize) -> (Vec<u8>, Option<Vec<u8>>) {
    let r = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
    let key = format!("key-{}", r % 6).into_bytes();
    let put = i < 6 || r % 10 < 3;
    (key, put.then(|| vec![i as u8; 48 + (r % 40) as usize]))
}

/// Keeps `WINDOW` scripted requests outstanding (one, until the server has
/// answered anything but `Busy`) and logs every response with its time.
struct WindowClient {
    server: PortId,
    booted: bool,
    next: usize,
    done: usize,
    log: Vec<(u64, Vec<u8>)>,
}

/// Requests outstanding against a virtqueue that holds two.
const WINDOW: usize = 6;

impl WindowClient {
    fn send(&mut self, ctx: &mut HostCtx<'_>, step: usize) {
        let (key, value) = pressure_step(step);
        let id = step as u64 + 1;
        let mut buf = ctx.take_buf();
        match value {
            Some(v) => encode_put_into(id, &key, &v, buf.vec_mut()),
            None => encode_get_into(id, &key, buf.vec_mut()),
        }
        ctx.net_tx(self.server, buf);
    }

    fn fill(&mut self, ctx: &mut HostCtx<'_>) {
        let window = if self.booted { WINDOW } else { 1 };
        while self.next < PRESSURE_STEPS && self.next - self.done < window {
            self.send(ctx, self.next);
            self.next += 1;
        }
    }
}

impl NetHost for WindowClient {
    fn name(&self) -> &str {
        "window-client"
    }

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.fill(ctx);
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
        let resp = KvsResponseRef::decode(&frame.payload).expect("KVS response");
        self.log.push((ctx.now.as_nanos(), frame.payload.to_vec()));
        match resp.status {
            KvsStatus::Busy | KvsStatus::Unavailable => self.send(ctx, resp.id as usize - 1),
            _ => {
                self.booted = true;
                self.done += 1;
                self.fill(ctx);
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut HostCtx<'_>, _token: u64) {}
}

/// Runs the pressure script against a server whose virtqueue has four
/// descriptors, so most requests find it full and wait in the backlog.
fn run_under_pressure(seed: u64, fast_path: bool) -> (Vec<(u64, Vec<u8>)>, ServerStats) {
    let mut setup = build_cpuless_kvs(
        SystemConfig {
            seed,
            ..SystemConfig::default()
        },
        Default::default(),
        ServerConfig {
            cache_entries: 16,
            queue_size: 4,
            ..ServerConfig::default()
        },
    );
    setup
        .system
        .device_as_mut::<SmartNic<KvsNicApp>>(setup.frontend)
        .expect("frontend NIC")
        .app_mut()
        .set_fast_path(fast_path);
    let port = setup.system.add_host(Box::new(WindowClient {
        server: setup.kvs_port,
        booted: false,
        next: 0,
        done: 0,
        log: Vec::new(),
    }));
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_millis(200));
    let client: &WindowClient = setup.system.host_as(port).expect("client");
    assert_eq!(client.done, PRESSURE_STEPS, "script stalled");
    let nic: &SmartNic<KvsNicApp> = setup
        .system
        .device_as(setup.frontend)
        .expect("frontend NIC");
    (client.log.clone(), nic.app().stats())
}

#[test]
fn fast_path_and_slow_path_are_byte_identical_under_backpressure() {
    for seed in [1u64, 42, 0xE13] {
        let (fast_log, fast_stats) = run_under_pressure(seed, true);
        let (slow_log, slow_stats) = run_under_pressure(seed, false);
        // Some GETs found the queue with room and nobody waiting; the others
        // were refused the fast path and waited their turn in the backlog.
        assert!(fast_stats.fast_gets > 0, "seed {seed}: no fast GET");
        assert!(
            fast_stats.fast_gets < fast_stats.cache_hits,
            "seed {seed}: no cache hit was ever refused the fast path"
        );
        assert_eq!(slow_stats.fast_gets, 0, "seed {seed}: disabled path fired");
        assert_eq!(
            fast_log, slow_log,
            "seed {seed}: fast path changed observable behavior"
        );
        let neutral = |mut s: ServerStats| {
            s.fast_gets = 0;
            s
        };
        assert_eq!(neutral(fast_stats), neutral(slow_stats), "seed {seed}");
        // Every scripted request got a terminal answer.
        let terminal = fast_log
            .iter()
            .filter(|(_, p)| {
                let r = KvsResponseRef::decode(p).unwrap();
                !matches!(r.status, KvsStatus::Busy | KvsStatus::Unavailable)
            })
            .count();
        assert_eq!(terminal, PRESSURE_STEPS);
    }
}
