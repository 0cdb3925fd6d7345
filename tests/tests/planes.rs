//! Integration: plane separation and doorbell semantics at system level.

use lastcpu_bus::{ConnId, Dst, Envelope, Payload};
use lastcpu_core::devices::device::{Device, DeviceCtx};
use lastcpu_core::{System, SystemConfig};
use lastcpu_sim::{SimDuration, SimTime};

/// Rings a peer every `period`; records round trips.
struct Pinger {
    peer: lastcpu_bus::DeviceId,
    sent: Option<SimTime>,
    pub rtts: Vec<SimDuration>,
}

impl Device for Pinger {
    fn name(&self) -> &str {
        "pinger"
    }
    fn kind(&self) -> &str {
        "pinger"
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: "pinger".into(),
                kind: "pinger".into(),
            },
        );
        ctx.set_timer(SimDuration::from_micros(20), 2);
        ctx.set_timer(SimDuration::from_millis(2), 1);
    }
    fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) {
        if let Payload::Doorbell { .. } = env.payload {
            if let Some(at) = self.sent.take() {
                self.rtts.push(ctx.now.since(at));
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        match token {
            1 => {
                ctx.send_bus(Dst::Bus, Payload::Heartbeat);
                ctx.set_timer(SimDuration::from_millis(2), 1);
            }
            2 => {
                if self.sent.is_none() {
                    self.sent = Some(ctx.now);
                    ctx.doorbell(self.peer, ConnId(1), 0);
                }
                ctx.set_timer(SimDuration::from_micros(20), 2);
            }
            _ => {}
        }
    }
}

/// Reflects doorbells; also the sink for bulk storms.
struct Reflector;

impl Device for Reflector {
    fn name(&self) -> &str {
        "reflector"
    }
    fn kind(&self) -> &str {
        "reflector"
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: "reflector".into(),
                kind: "reflector".into(),
            },
        );
        ctx.set_timer(SimDuration::from_millis(2), 1);
    }
    fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) {
        if let Payload::Doorbell { conn, value } = env.payload {
            ctx.doorbell(env.src, conn, value);
        }
    }
    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token == 1 {
            ctx.send_bus(Dst::Bus, Payload::Heartbeat);
            ctx.set_timer(SimDuration::from_millis(2), 1);
        }
    }
}

/// Sends bulk AppData to a sink every 50us.
struct BulkStorm {
    sink: lastcpu_bus::DeviceId,
}

impl Device for BulkStorm {
    fn name(&self) -> &str {
        "storm"
    }
    fn kind(&self) -> &str {
        "storm"
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: "storm".into(),
                kind: "storm".into(),
            },
        );
        ctx.set_timer(SimDuration::from_millis(2), 1);
        ctx.set_timer(SimDuration::from_micros(50), 2);
    }
    fn on_message(&mut self, _ctx: &mut DeviceCtx<'_>, _env: &Envelope) {}
    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        match token {
            1 => {
                ctx.send_bus(Dst::Bus, Payload::Heartbeat);
                ctx.set_timer(SimDuration::from_millis(2), 1);
            }
            2 => {
                ctx.send_bus(
                    Dst::Device(self.sink),
                    Payload::AppData {
                        conn: ConnId(0),
                        data: vec![0u8; 32 * 1024],
                    },
                );
                ctx.set_timer(SimDuration::from_micros(50), 2);
            }
            _ => {}
        }
    }
}

fn mean_rtt(conflate: bool) -> SimDuration {
    let mut sys = System::new(SystemConfig {
        conflate_planes: conflate,
        trace: false,
        ..SystemConfig::default()
    });
    sys.add_memctl("memctl0");
    let reflector = sys.add_device(Box::new(Reflector));
    let sink = sys.add_device(Box::new(Reflector));
    let pinger = sys.add_device(Box::new(Pinger {
        peer: reflector.id,
        sent: None,
        rtts: Vec::new(),
    }));
    sys.add_device(Box::new(BulkStorm { sink: sink.id }));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(20));
    let p: &Pinger = sys.device_as(pinger).unwrap();
    assert!(p.rtts.len() > 100, "too few pings: {}", p.rtts.len());
    SimDuration::from_nanos(p.rtts.iter().map(|d| d.as_nanos()).sum::<u64>() / p.rtts.len() as u64)
}

#[test]
fn conflated_planes_slow_the_data_path() {
    let split = mean_rtt(false);
    let conflated = mean_rtt(true);
    assert!(
        conflated.as_nanos() > split.as_nanos() * 2,
        "conflation must hurt: split {split}, conflated {conflated}"
    );
}

#[test]
fn doorbells_coalesce_under_load() {
    // A flood of identical doorbells at a busy device collapses to far
    // fewer deliveries (level-triggered semantics).
    struct Flooder {
        peer: lastcpu_bus::DeviceId,
    }
    impl Device for Flooder {
        fn name(&self) -> &str {
            "flooder"
        }
        fn kind(&self) -> &str {
            "flooder"
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            ctx.send_bus(
                Dst::Bus,
                Payload::Hello {
                    name: "flooder".into(),
                    kind: "flooder".into(),
                },
            );
            // 50 identical doorbells, burst.
            for _ in 0..50 {
                ctx.doorbell(self.peer, ConnId(9), 0);
            }
        }
        fn on_message(&mut self, _ctx: &mut DeviceCtx<'_>, _env: &Envelope) {}
        fn on_timer(&mut self, _ctx: &mut DeviceCtx<'_>, _token: u64) {}
    }
    /// A device that is always busy when messages arrive.
    struct SlowDevice {
        pub doorbells_seen: u32,
    }
    impl Device for SlowDevice {
        fn name(&self) -> &str {
            "slow"
        }
        fn kind(&self) -> &str {
            "slow"
        }
        fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
            ctx.send_bus(
                Dst::Bus,
                Payload::Hello {
                    name: "slow".into(),
                    kind: "slow".into(),
                },
            );
        }
        fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) {
            if let Payload::Doorbell { .. } = env.payload {
                self.doorbells_seen += 1;
                ctx.busy(SimDuration::from_micros(100)); // slow handler
            }
        }
        fn on_timer(&mut self, _ctx: &mut DeviceCtx<'_>, _token: u64) {}
    }
    let mut sys = System::new(SystemConfig::default());
    sys.add_memctl("memctl0");
    let slow = sys.add_device(Box::new(SlowDevice { doorbells_seen: 0 }));
    sys.add_device(Box::new(Flooder { peer: slow.id }));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(50));
    let s: &SlowDevice = sys.device_as(slow).unwrap();
    assert!(s.doorbells_seen >= 1);
    assert!(
        s.doorbells_seen < 50,
        "identical doorbells should coalesce, saw {}",
        s.doorbells_seen
    );
    assert!(sys.stats().counter("system.doorbells_coalesced") > 0);
}
