//! The NIC-side server's waiting room changed representation (requests
//! held as wire bytes in one arena, in-flight operations in a table indexed
//! by descriptor head); nothing a checkpoint can see may have moved. A
//! one-machine CPU-less KVS with an eight-descriptor virtqueue is hit by a
//! burst it cannot submit at once and stopped at the first acknowledgement —
//! requests waiting in the backlog, PUTs in flight on the SSD — and its
//! device sections are held to digests recorded at the commit before the
//! change.

use lastcpu_core::devices::nic::SmartNic;
use lastcpu_core::devices::ssd::SsdConfig;
use lastcpu_core::{HostCtx, NetHost, SystemConfig};
use lastcpu_kvs::proto::{KvsRequestRef, KvsResponseRef, KvsStatus};
use lastcpu_kvs::{build_cpuless_kvs, KvsNicApp, ServerConfig};
use lastcpu_net::{Frame, PortId};
use lastcpu_sim::{SimDuration, SimTime};
use lastcpu_snap::{fnv1a, fnv1a_fold, Checkpoint, SnapWriter};

/// Descriptors in the server's virtqueue: four two-descriptor requests fit.
const QUEUE: u16 = 8;
/// Requests in the burst.
const BURST: u64 = 40;

/// Request `i` of the burst: twelve PUTs first (so the queue holds PUTs when
/// the first acknowledgement comes back), then every request shape — a GET
/// of a written key, a GET of a key nobody wrote, an overwrite, a DELETE.
fn burst_request(i: u64, key: &mut Vec<u8>, value: &mut Vec<u8>) -> u8 {
    key.clear();
    value.clear();
    let id = i % 12;
    key.extend_from_slice(format!("key-{id:03}").as_bytes());
    if i < 12 {
        value.resize(40 + 8 * i as usize, 0x40 + i as u8);
        return 2;
    }
    match i % 4 {
        0 => 1,
        1 => {
            key.extend_from_slice(b"-absent");
            1
        }
        2 => {
            value.resize(24, 0xA0 + (i % 16) as u8);
            2
        }
        _ => 3,
    }
}

/// Probes until the server answers `Ok`, then sends the whole burst in one
/// callback and counts what comes back.
struct BurstClient {
    server: PortId,
    ready: bool,
    sent: u64,
    received: u64,
}

impl BurstClient {
    fn send(&mut self, ctx: &mut HostCtx<'_>, req: KvsRequestRef<'_>) {
        let mut buf = ctx.take_buf();
        req.encode_into(buf.vec_mut());
        ctx.net_tx(self.server, buf);
    }

    fn probe(&mut self, ctx: &mut HostCtx<'_>) {
        self.send(
            ctx,
            KvsRequestRef::Put {
                id: 1_000,
                key: b"probe",
                value: b"up",
            },
        );
    }
}

impl NetHost for BurstClient {
    fn name(&self) -> &str {
        "burst-client"
    }

    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.probe(ctx);
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
        let resp = KvsResponseRef::decode(&frame.payload).expect("KVS response");
        if self.ready {
            self.received += 1;
            return;
        }
        if matches!(resp.status, KvsStatus::Busy | KvsStatus::Unavailable) {
            self.probe(ctx);
            return;
        }
        assert_eq!(resp.status, KvsStatus::Ok);
        self.ready = true;
        let (mut key, mut value) = (Vec::new(), Vec::new());
        for i in 0..BURST {
            let id = i + 1;
            let req = match burst_request(i, &mut key, &mut value) {
                1 => KvsRequestRef::Get { id, key: &key },
                2 => KvsRequestRef::Put {
                    id,
                    key: &key,
                    value: &value,
                },
                _ => KvsRequestRef::Delete { id, key: &key },
            };
            self.send(ctx, req);
            self.sent += 1;
        }
    }

    fn on_timer(&mut self, _ctx: &mut HostCtx<'_>, _token: u64) {}

    fn snapshot_state(&self, w: &mut SnapWriter) -> lastcpu_snap::Result<()> {
        w.put_bool(self.ready);
        w.put_u64(self.sent);
        w.put_u64(self.received);
        Ok(())
    }
}

/// FNV-1a over the tag and bytes of every `dev*` section.
fn device_sections_digest(ck: &Checkpoint) -> u64 {
    let mut h = fnv1a(b"device sections");
    for tag in ck.section_tags().filter(|t| t.starts_with("dev")) {
        fnv1a_fold(&mut h, tag.as_bytes());
        fnv1a_fold(&mut h, ck.section(tag).expect("listed section"));
    }
    h
}

/// Runs the burst on `seed` and stops one microsecond-step after the first
/// acknowledgement; returns the device-section digest.
fn stopped_mid_burst(seed: u64) -> u64 {
    let mut setup = build_cpuless_kvs(
        SystemConfig {
            seed,
            ..SystemConfig::default()
        },
        SsdConfig::default(),
        ServerConfig {
            queue_size: QUEUE,
            cache_entries: 16,
            ..ServerConfig::default()
        },
    );
    let port = setup.system.add_host(Box::new(BurstClient {
        server: setup.kvs_port,
        ready: false,
        sent: 0,
        received: 0,
    }));
    setup.system.power_on();
    let client = |sys: &lastcpu_core::System| -> (u64, u64) {
        let c: &BurstClient = sys.host_as(port).expect("client");
        (c.sent, c.received)
    };
    let mut t = SimTime::ZERO;
    while client(&setup.system).1 == 0 {
        t += SimDuration::from_micros(1);
        assert!(t < SimTime::from_nanos(200_000_000), "no acknowledgement");
        setup.system.run_until(t);
    }
    let (sent, received) = client(&setup.system);
    assert_eq!(sent, BURST);
    // A PUT's acknowledgement needs a flash program (hundreds of
    // microseconds); the burst's frames crossed the switch long before. What
    // has been neither answered nor fits the queue is waiting in the backlog.
    let nic: &SmartNic<KvsNicApp> = setup.system.device_as(setup.frontend).expect("NIC");
    let stats = nic.app().stats();
    let answered = stats.gets + stats.puts + stats.deletes - 1; // less the probe
    assert!(received <= answered);
    let outstanding = sent - answered;
    assert!(
        outstanding > u64::from(QUEUE / 2),
        "{outstanding} outstanding: the backlog is empty"
    );
    assert!(
        answered < 8,
        "{answered} answered: the queue no longer holds the opening PUTs"
    );
    device_sections_digest(
        &setup
            .system
            .checkpoint("server-backlog")
            .expect("every component snapshots"),
    )
}

#[test]
fn a_backpressured_server_checkpoints_as_before() {
    let observed: Vec<u64> = [11, 42, 0xE13].map(stopped_mid_burst).to_vec();
    assert_eq!(
        observed,
        [11, 42, 0xE13].map(stopped_mid_burst).to_vec(),
        "same seed, same bytes"
    );
    assert_eq!(observed, PARENT);
}

/// Recorded at the commit before the server's backlog and in-flight map
/// changed representation.
const PARENT: [u64; 3] = [
    11225276091808327187,
    2793227698472457967,
    6374328038600455132,
];
