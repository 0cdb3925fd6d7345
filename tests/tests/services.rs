//! Integration: the SSD's secondary services — the `fs` control service
//! (create/list/delete) and the `loader` service (§4 Access Control) —
//! exercised over the live bus by a scripted client device.

use lastcpu_bus::wire::Wire;
use lastcpu_bus::{ServiceId, Status, Token};
use lastcpu_core::devices::auth;
use lastcpu_core::devices::device::DeviceCtx;
use lastcpu_core::devices::firmware::Firmware;
use lastcpu_core::devices::monitor::{AuthMode, Monitor, MonitorEvent};
use lastcpu_core::devices::ssd::{
    FileOpen, FsOp, LoaderParams, SmartSsd, SsdConfig, FS_SERVICE, LOADER_SERVICE,
};
use lastcpu_core::{System, SystemConfig};
use lastcpu_sim::SimDuration;
use lastcpu_tests::small_fs;

/// A client that runs a scripted sequence of opens against the SSD.
struct ScriptClient {
    name: String,
    monitor: Monitor,
    ssd: lastcpu_bus::DeviceId,
    script: Vec<(ServiceId, Token, Vec<u8>)>,
    next: usize,
    op: u64,
    pub results: Vec<(Status, Vec<u8>)>,
}

impl ScriptClient {
    fn new(
        name: &str,
        ssd: lastcpu_bus::DeviceId,
        script: Vec<(ServiceId, Token, Vec<u8>)>,
    ) -> Self {
        ScriptClient {
            name: name.into(),
            monitor: Monitor::new(),
            ssd,
            script,
            next: 0,
            op: 0,
            results: Vec::new(),
        }
    }

    fn is_done(&self) -> bool {
        self.results.len() >= self.script.len()
    }

    fn kick(&mut self, ctx: &mut DeviceCtx<'_>) {
        if self.next >= self.script.len() {
            return;
        }
        let (svc, token, params) = self.script[self.next].clone();
        self.next += 1;
        self.op = self.monitor.open(ctx, self.ssd, svc, token, params);
    }
}

impl Firmware for ScriptClient {
    const KIND: &'static str = "script-client";
    const HEARTBEAT: SimDuration = SimDuration::from_millis(2);

    fn name(&self) -> &str {
        &self.name
    }

    fn monitor(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    fn on_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: MonitorEvent) {
        match ev {
            MonitorEvent::Registered => {
                // Let the SSD boot.
                ctx.set_timer(SimDuration::from_micros(200), 2);
            }
            MonitorEvent::OpenDone { op, result, .. } if op == self.op => {
                match result {
                    Ok((_, _, params)) => self.results.push((Status::Ok, params)),
                    Err(status) => self.results.push((status, vec![])),
                }
                self.kick(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token == 2 && self.results.is_empty() && self.next == 0 {
            self.kick(ctx);
        }
    }
}

fn build(ssd_config: SsdConfig) -> (System, lastcpu_core::DeviceHandle) {
    let mut sys = System::new(SystemConfig::default());
    sys.add_memctl("memctl0");
    let mut fs = small_fs();
    fs.create("/seed.txt").unwrap();
    let ssd = sys.add_device(Box::new(SmartSsd::new("ssd0", fs, ssd_config)));
    (sys, ssd)
}

#[test]
fn fs_service_create_list_delete() {
    let (mut sys, ssd) = build(SsdConfig::default());
    let client = sys.add_device(Box::new(ScriptClient::new(
        "client0",
        ssd.id,
        vec![
            (
                FS_SERVICE,
                Token::NONE,
                FsOp::Create {
                    path: "/a.db".into(),
                }
                .encode(),
            ),
            (FS_SERVICE, Token::NONE, FsOp::List.encode()),
            (
                FS_SERVICE,
                Token::NONE,
                FsOp::Delete {
                    path: "/a.db".into(),
                }
                .encode(),
            ),
            (FS_SERVICE, Token::NONE, FsOp::List.encode()),
            // Deleting again: NotFound.
            (
                FS_SERVICE,
                Token::NONE,
                FsOp::Delete {
                    path: "/a.db".into(),
                }
                .encode(),
            ),
        ],
    )));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(50));
    let c: &ScriptClient = sys.device_as(client).unwrap();
    assert!(
        c.is_done(),
        "script incomplete: {} results",
        c.results.len()
    );
    assert_eq!(c.results[0].0, Status::Ok, "create");
    assert_eq!(c.results[1].0, Status::Ok, "list");
    let listing = String::from_utf8_lossy(&c.results[1].1).to_string();
    assert!(
        listing.contains("/a.db") && listing.contains("/seed.txt"),
        "{listing}"
    );
    assert_eq!(c.results[2].0, Status::Ok, "delete");
    let listing = String::from_utf8_lossy(&c.results[3].1).to_string();
    assert!(!listing.contains("/a.db"), "{listing}");
    assert_eq!(c.results[4].0, Status::NotFound, "double delete");
}

#[test]
fn loader_requires_sealed_token() {
    let secret = 0xD00D;
    let (mut sys, ssd) = build(SsdConfig {
        loader_auth: AuthMode::Sealed { secret },
        ..SsdConfig::default()
    });
    let good = auth::seal(secret, auth::principal_id("admin"));
    let forged = Token(good.0 ^ 1);
    let image = LoaderParams {
        image: "fw-v2.bin",
        contents: b"BINARY IMAGE",
    }
    .encode();
    let client = sys.add_device(Box::new(ScriptClient::new(
        "client0",
        ssd.id,
        vec![
            (LOADER_SERVICE, forged, image.clone()), // denied
            (LOADER_SERVICE, good, image),           // accepted
            // The image landed as a file readable through fs list.
            (FS_SERVICE, Token::NONE, FsOp::List.encode()),
        ],
    )));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(50));
    let c: &ScriptClient = sys.device_as(client).unwrap();
    assert!(c.is_done());
    assert_eq!(
        c.results[0].0,
        Status::Denied,
        "forged token must be denied"
    );
    assert_eq!(c.results[1].0, Status::Ok, "sealed token accepted");
    let listing = String::from_utf8_lossy(&c.results[2].1).to_string();
    assert!(listing.contains("/boot/fw-v2.bin"), "{listing}");
    let ssd_dev: &SmartSsd = sys.device_as(ssd).unwrap();
    assert_eq!(ssd_dev.stats().images_loaded, 1);
}

#[test]
fn file_service_open_denied_with_wrong_auth() {
    let (mut sys, ssd) = build(SsdConfig {
        exports: vec!["/seed.txt".into()],
        file_auth: AuthMode::Sealed { secret: 0xAAAA },
        ..SsdConfig::default()
    });
    let client = sys.add_device(Box::new(ScriptClient::new(
        "client0",
        ssd.id,
        vec![(ServiceId(100), Token::NONE, FileOpen { pasid: 55 }.encode())],
    )));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(50));
    let c: &ScriptClient = sys.device_as(client).unwrap();
    assert!(c.is_done());
    assert_eq!(c.results[0].0, Status::Denied);
}
