//! Integration: the lifecycle the `Firmware` shell runs, checked once for
//! every library device that relies on it — power-on introduces the device,
//! heartbeats keep flowing whatever the firmware's own timer hook does, and
//! a reset pulse brings it back.

use lastcpu_bus::bus::DeviceState;
use lastcpu_bus::DeviceId;
use lastcpu_core::devices::accel::Accelerator;
use lastcpu_core::devices::auth::AuthDevice;
use lastcpu_core::devices::console::ConsoleDevice;
use lastcpu_core::devices::device::Device;
use lastcpu_core::devices::nic::{EchoApp, SmartNic};
use lastcpu_core::devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_core::{System, SystemConfig};
use lastcpu_sim::{SimDuration, SimTime, TraceData};
use lastcpu_tests::small_fs;

struct Case {
    name: &'static str,
    build: fn(DeviceId) -> Box<dyn Device>,
    /// Services the device announces right after `Hello`.
    announces: usize,
    /// Declared self-test: the first heartbeat is due one period after it.
    self_test: SimDuration,
}

const CASES: &[Case] = &[
    Case {
        name: "nic0",
        build: |_| Box::new(SmartNic::new("nic0", EchoApp::new())),
        announces: 0,
        self_test: SimDuration::from_micros(20),
    },
    Case {
        name: "ssd0",
        build: |_| {
            let config = SsdConfig {
                exports: vec!["/a.db".into()],
                ..SsdConfig::default()
            };
            Box::new(SmartSsd::new("ssd0", small_fs(), config))
        },
        announces: 3, // fs, loader, file:/a.db — the export exists before Hello
        self_test: SimDuration::from_micros(50),
    },
    Case {
        name: "fpga0",
        build: |_| Box::new(Accelerator::new("fpga0", 4)),
        announces: 1,
        self_test: SimDuration::from_millis(5),
    },
    Case {
        name: "console0",
        build: |memctl| Box::new(ConsoleDevice::new("console0", memctl, "op", "pw", "/log")),
        announces: 0,
        self_test: SimDuration::from_micros(5),
    },
    Case {
        name: "auth0",
        build: |_| Box::new(AuthDevice::new("auth0", 1, &[])),
        announces: 1,
        self_test: SimDuration::from_micros(2),
    },
];

/// `(time, message kind)` of every control message `name` handed to the bus.
fn sends(sys: &System, name: &str) -> Vec<(SimTime, &'static str)> {
    sys.trace()
        .events()
        .filter(|e| &*e.source == name)
        .filter_map(|e| match &e.data {
            TraceData::BusSend { what, .. } => Some((e.at, *what)),
            _ => None,
        })
        .collect()
}

#[test]
fn every_library_firmware_gets_the_same_lifecycle() {
    let period = SimDuration::from_millis(2);
    for case in CASES {
        let name = case.name;
        let mut sys = System::new(SystemConfig::default());
        let memctl = sys.add_memctl("memctl0");
        // A port does no harm to a device that never transmits.
        let h = sys.add_net_device((case.build)(memctl.id));
        sys.power_on();
        sys.run_for(SimDuration::from_millis(20));

        // Power-on: the self-test, then exactly one Hello followed by the
        // device's announces.
        let sent = sends(&sys, name);
        let kinds: Vec<&str> = sent.iter().map(|&(_, k)| k).collect();
        assert_eq!(sent[0].1, "Hello", "{name}");
        assert!(sent[0].0 >= SimTime::ZERO + case.self_test, "{name}");
        assert!(
            kinds[1..=case.announces].iter().all(|&k| k == "Announce"),
            "{name}: {kinds:?}"
        );
        assert_eq!(kinds.iter().filter(|&&k| k == "Hello").count(), 1, "{name}");
        assert_eq!(
            kinds.iter().filter(|&&k| k == "Announce").count(),
            case.announces,
            "{name}"
        );

        // Heartbeats: one per period from the end of the self-test to the
        // end of the run, with no help from the firmware's own timer hook.
        let beats: Vec<SimTime> = sent
            .iter()
            .filter(|&&(_, k)| k == "Heartbeat")
            .map(|&(at, _)| at)
            .collect();
        let due = (SimDuration::from_millis(20).as_nanos() - case.self_test.as_nanos())
            / period.as_nanos();
        assert!(
            beats.len() as u64 >= due - 1,
            "{name}: {} heartbeats, {due} due",
            beats.len()
        );
        assert!(
            sys.now().since(*beats.last().unwrap()) <= period,
            "{name}: heartbeats stopped at {}",
            beats.last().unwrap()
        );
        assert_eq!(sys.bus().device(h.id).unwrap().state, DeviceState::Alive);

        // A kill, then the bus's reset pulse: the device re-introduces
        // itself and is alive again.
        sys.kill_device(h, false);
        assert_eq!(sys.bus().device(h.id).unwrap().state, DeviceState::Failed);
        sys.run_for(SimDuration::from_millis(20));
        assert_eq!(
            sys.bus().device(h.id).unwrap().state,
            DeviceState::Alive,
            "{name}"
        );
        assert_eq!(sys.stats().counter("system.device_resets"), 1, "{name}");
        let hellos = sends(&sys, name)
            .iter()
            .filter(|&&(_, k)| k == "Hello")
            .count();
        assert_eq!(hellos, 2, "{name}: reset re-sends Hello");
    }
}
