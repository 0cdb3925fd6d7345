//! Integration: failure handling, liveness detection, and determinism of
//! the full machine.

use lastcpu_bus::bus::DeviceState;
use lastcpu_bus::{Dst, Envelope, Payload};
use lastcpu_core::devices::device::{Device, DeviceCtx};
use lastcpu_core::devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_core::{System, SystemConfig};
use lastcpu_kvs::build_cpuless_kvs;
use lastcpu_kvs::client::{KvsClientHost, WorkloadConfig};
use lastcpu_kvs::server::ServerConfig;
use lastcpu_sim::{SimDuration, SimTime};
use lastcpu_tests::small_fs;

/// A device that says Hello once and then goes silent — no heartbeats.
struct SilentDevice {
    name: String,
}

impl Device for SilentDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        "silent"
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: self.name.clone(),
                kind: "silent".into(),
            },
        );
    }

    fn on_message(&mut self, _ctx: &mut DeviceCtx<'_>, _env: &Envelope) {}

    fn on_timer(&mut self, _ctx: &mut DeviceCtx<'_>, _token: u64) {}
}

#[test]
fn heartbeat_timeout_declares_silent_device_failed() {
    let mut sys = System::new(SystemConfig {
        liveness_interval: Some(SimDuration::from_millis(5)),
        ..SystemConfig::default()
    });
    sys.add_memctl("memctl0");
    let silent = sys.add_device(Box::new(SilentDevice {
        name: "mute0".into(),
    }));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(2));
    assert_eq!(
        sys.bus().device(silent.id).unwrap().state,
        DeviceState::Alive
    );
    // Default heartbeat timeout is 10ms; by 30ms the scan has fired.
    sys.run_for(SimDuration::from_millis(30));
    let state = sys.bus().device(silent.id).unwrap().state;
    // The bus reset it; the reset re-sends Hello; then it goes silent again
    // and will be declared failed again — either state is a correct
    // observation, but it must not be mistaken for a healthy device with
    // current heartbeats.
    assert!(
        state == DeviceState::Failed || state == DeviceState::Alive,
        "unexpected state {state:?}"
    );
    assert!(sys.bus().stats().failures >= 1, "liveness scan never fired");
    // The memory controller heartbeats and must never be declared failed.
    let mc_state = sys
        .bus()
        .devices()
        .find(|d| d.kind == "memory-controller")
        .unwrap()
        .state;
    assert_eq!(mc_state, DeviceState::Alive);
}

#[test]
fn ssd_failure_mid_workload_is_fenced_and_recovered() {
    let mut setup = build_cpuless_kvs(
        SystemConfig::default(),
        SsdConfig::default(),
        ServerConfig::default(),
    );
    let port = setup.system.add_host(Box::new(KvsClientHost::new(
        setup.kvs_port,
        WorkloadConfig {
            keys: 50,
            total_ops: 1_000_000,
            stats_prefix: "c".into(),
            ..WorkloadConfig::default()
        },
    )));
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_millis(100));
    let before = {
        let c: &KvsClientHost = setup.system.host_as(port).unwrap();
        assert!(c.ops_done() > 0);
        c.ops_done()
    };
    setup.system.kill_device(setup.ssd, false);
    setup.system.run_for(SimDuration::from_millis(200));
    // The SSD is back (bus reset + re-hello).
    assert_eq!(
        setup.system.bus().device(setup.ssd.id).unwrap().state,
        DeviceState::Alive
    );
    // The client observed the outage as *explicit* degradation: the server
    // failed over its queued work with `Unavailable` instead of wedging
    // (pre-recovery behaviour was timeouts + an eternal `Busy` server).
    {
        let c: &KvsClientHost = setup.system.host_as(port).unwrap();
        assert!(
            c.unavailable_rejections() > 0,
            "failed-over requests must be answered Unavailable"
        );
        assert!(c.errors() == 0, "no corrupt responses");
    }
    // Shared memory was revoked.
    assert!(setup.system.stats().counter("bus.pages_unmapped") > 0);
    // And the server un-wedged: it re-discovered the revived SSD, replayed
    // the Figure-2 setup + log rebuild, and is serving again — the workload
    // makes progress past where the failure struck.
    let server_state = |sys: &lastcpu_core::System, frontend| {
        let app: &lastcpu_core::devices::nic::SmartNic<lastcpu_kvs::KvsNicApp> =
            sys.device_as(frontend).expect("nic");
        app.app().state()
    };
    // Give the log rebuild time to finish (bounded).
    for _ in 0..20 {
        if server_state(&setup.system, setup.frontend) == lastcpu_kvs::server::ServerState::Ready {
            break;
        }
        setup.system.run_for(SimDuration::from_millis(100));
    }
    assert_eq!(
        server_state(&setup.system, setup.frontend),
        lastcpu_kvs::server::ServerState::Ready,
        "server must recover to Ready after the SSD returns"
    );
    let c: &KvsClientHost = setup.system.host_as(port).unwrap();
    let after = c.ops_done();
    assert!(
        after > before,
        "workload must make progress after recovery ({before} -> {after})"
    );
    assert!(c.errors() == 0, "no corrupt responses across the recovery");
    assert!(
        setup.system.stats().counter("kvs.server.restarts") >= 1,
        "recovery must be counted"
    );
}

/// The one device with a hosted app: a crash wipes the NIC and the KVS
/// server running on it, and the shell's reset path must bring both back
/// (the app restarts on the re-registration, replays Figure 2, rebuilds its
/// index from the SSD's log) while the client rides it out on timeouts.
#[test]
fn nic_crash_mid_workload_recovers() {
    let mut setup = build_cpuless_kvs(
        SystemConfig::default(),
        SsdConfig::default(),
        ServerConfig::default(),
    );
    let port = setup.system.add_host(Box::new(KvsClientHost::new(
        setup.kvs_port,
        WorkloadConfig {
            keys: 50,
            total_ops: 1_000_000,
            stats_prefix: "c".into(),
            ..WorkloadConfig::default()
        },
    )));
    setup.system.power_on();
    setup.system.run_for(SimDuration::from_millis(100));
    let before = {
        let c: &KvsClientHost = setup.system.host_as(port).unwrap();
        assert!(c.ops_done() > 0);
        c.ops_done()
    };
    setup.system.kill_device(setup.frontend, false);
    setup.system.run_for(SimDuration::from_millis(500));
    assert_eq!(
        setup.system.bus().device(setup.frontend.id).unwrap().state,
        DeviceState::Alive
    );
    assert_eq!(setup.system.stats().counter("system.device_resets"), 1);
    let nic: &lastcpu_core::devices::nic::SmartNic<lastcpu_kvs::KvsNicApp> =
        setup.system.device_as(setup.frontend).expect("nic");
    assert_eq!(
        nic.app().state(),
        lastcpu_kvs::server::ServerState::Ready,
        "the hosted server must restart and recover to Ready"
    );
    let c: &KvsClientHost = setup.system.host_as(port).unwrap();
    assert_eq!(c.errors(), 0, "no corrupt responses across the crash");
    assert!(
        c.ops_done() > before,
        "workload must make progress after recovery ({before} -> {})",
        c.ops_done()
    );
}

#[test]
fn dead_device_messages_are_fenced() {
    let mut sys = System::new(SystemConfig::default());
    sys.add_memctl("memctl0");
    let ssd = sys.add_device(Box::new(SmartSsd::new(
        "ssd0",
        small_fs(),
        SsdConfig::default(),
    )));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(5));
    let msgs_before = sys.bus().stats().messages;
    sys.kill_device(ssd, true);
    sys.run_for(SimDuration::from_millis(20));
    // The dead SSD sends nothing (its heartbeat timers are dropped), and
    // permanent death means no reset revival.
    assert_eq!(sys.bus().device(ssd.id).unwrap().state, DeviceState::Failed);
    let ssd_msgs_after: u64 = sys.bus().stats().messages - msgs_before;
    // Only the memctl's heartbeats continue (~1 per 2ms).
    assert!(
        ssd_msgs_after <= 15,
        "suspiciously many messages after fencing: {ssd_msgs_after}"
    );
}

#[test]
fn full_kvs_run_is_deterministic() {
    let run = |seed: u64| -> (u64, u64, u64, SimTime) {
        let mut setup = build_cpuless_kvs(
            SystemConfig {
                seed,
                ..SystemConfig::default()
            },
            SsdConfig::default(),
            ServerConfig::default(),
        );
        let port = setup.system.add_host(Box::new(KvsClientHost::new(
            setup.kvs_port,
            WorkloadConfig {
                keys: 40,
                total_ops: 200,
                stats_prefix: "c".into(),
                ..WorkloadConfig::default()
            },
        )));
        setup.system.power_on();
        setup.system.run_for(SimDuration::from_secs(2));
        let c: &KvsClientHost = setup.system.host_as(port).unwrap();
        assert!(c.is_done());
        (
            setup.system.bus().stats().messages,
            setup.system.bus().stats().bytes,
            setup.system.stats().counter("system.doorbells"),
            setup.system.now(),
        )
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "same seed must reproduce the identical run");
    let c = run(8);
    assert_ne!(a.3, c.3, "different seeds should differ somewhere");
}

#[test]
fn memctl_quota_denies_over_budget_allocations() {
    use lastcpu_core::memctl::MemCtlConfig;
    // Each device may hold at most 256 KiB — exactly one file-conn region.
    let mut sys = System::new(SystemConfig::default());
    let memctl = sys.add_memctl_with_config(
        "memctl0",
        MemCtlConfig {
            per_device_quota: Some(256 * 1024),
        },
    );
    sys.add_device(Box::new(SmartSsd::new(
        "ssd0",
        lastcpu_tests::small_fs(),
        SsdConfig {
            exports: vec!["/q.db".into()],
            ..SsdConfig::default()
        },
    )));
    // The same device tries to hold two 256 KiB regions concurrently: the
    // second allocation must be denied by the quota.
    use lastcpu_core::devices::firmware::Firmware;
    use lastcpu_core::devices::monitor::{Monitor, MonitorEvent};

    struct DoubleAlloc {
        monitor: Monitor,
        memctl: lastcpu_bus::DeviceId,
        op: u64,
        pub results: Vec<bool>,
    }
    impl Firmware for DoubleAlloc {
        const KIND: &'static str = "client";
        const HEARTBEAT: SimDuration = SimDuration::from_millis(2);

        fn name(&self) -> &str {
            "dbl"
        }

        fn monitor(&mut self) -> &mut Monitor {
            &mut self.monitor
        }

        fn on_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: MonitorEvent) {
            match ev {
                MonitorEvent::Registered => {
                    ctx.set_timer(SimDuration::from_micros(200), 2);
                }
                MonitorEvent::AllocDone { op, result } if op == self.op => {
                    self.results.push(result.is_ok());
                    if self.results.len() < 2 {
                        self.op = self.monitor.alloc_shared(
                            ctx,
                            self.memctl,
                            ctx.dev.0,
                            0x7000_0000 + 0x10_0000 * self.results.len() as u64,
                            256 * 1024,
                            3,
                        );
                    }
                }
                _ => {}
            }
        }

        fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
            if token == 2 && self.results.is_empty() {
                self.op = self.monitor.alloc_shared(
                    ctx,
                    self.memctl,
                    ctx.dev.0,
                    0x7000_0000,
                    256 * 1024,
                    3,
                );
            }
        }
    }

    let client = sys.add_device(Box::new(DoubleAlloc {
        monitor: Monitor::new(),
        memctl: memctl.id,
        op: 0,
        results: Vec::new(),
    }));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(20));
    let c: &DoubleAlloc = sys.device_as(client).unwrap();
    assert_eq!(
        c.results,
        vec![true, false],
        "second region exceeds the quota"
    );
}

#[test]
fn kvs_survives_wear_driven_block_retirement() {
    use lastcpu_core::devices::flash::{NandChip, NandConfig};
    use lastcpu_core::devices::fs::FlashFs;
    use lastcpu_core::devices::ftl::Ftl;
    // Low-endurance flash: blocks wear out during the workload; the FTL
    // retires them and the KVS never notices.
    let mut fs = FlashFs::format(Ftl::new(NandChip::new(NandConfig {
        blocks: 128,
        pages_per_block: 32,
        page_size: 4096,
        max_erase_cycles: 40,
        ..NandConfig::default()
    })));
    fs.create("/data/kv.db").unwrap();
    let mut sys = System::new(SystemConfig {
        trace: false,
        ..SystemConfig::default()
    });
    sys.add_memctl("memctl0");
    let ssd = sys.add_device(Box::new(SmartSsd::new(
        "ssd0",
        fs,
        SsdConfig {
            exports: vec!["/data/kv.db".into()],
            ..SsdConfig::default()
        },
    )));
    let nic = sys.add_net_device(Box::new(lastcpu_core::devices::nic::SmartNic::new(
        "nic0",
        lastcpu_kvs::KvsNicApp::new(ServerConfig::default(), lastcpu_core::mem::Pasid(50)),
    )));
    let port = sys.device_port(nic).unwrap();
    let client = sys.add_host(Box::new(KvsClientHost::new(
        port,
        WorkloadConfig {
            keys: 60,
            read_fraction: 0.3, // write-heavy: maximum wear
            value_size: 512,
            total_ops: 1500,
            stats_prefix: "wear".into(),
            ..WorkloadConfig::default()
        },
    )));
    sys.power_on();
    sys.run_for(SimDuration::from_secs(10));
    let c: &KvsClientHost = sys.host_as(client).unwrap();
    assert!(c.is_done(), "workload incomplete: {}", c.ops_done());
    assert_eq!(c.errors(), 0, "wear must be invisible to the application");
    let ssd_dev: &SmartSsd = sys.device_as(ssd).unwrap();
    let _ = ssd_dev;
}
