//! Quickstart: boot a CPU-less machine and watch an operator read a log.
//!
//! Builds the smallest interesting machine from "The Last CPU" (HotOS'21):
//! a memory controller, an auth service, a smart SSD holding a log file,
//! and a remote console — **no CPU anywhere**. The console logs in, runs
//! the paper's Figure-2 session handshake against the SSD, and reads the
//! log over a VIRTIO queue in shared memory.
//!
//! Run with: `cargo run -p lastcpu-examples --bin quickstart`

use lastcpu_core::devices::auth::AuthDevice;
use lastcpu_core::devices::console::{ConsoleDevice, ConsoleState};
use lastcpu_core::devices::flash::{NandChip, NandConfig};
use lastcpu_core::devices::fs::FlashFs;
use lastcpu_core::devices::ftl::Ftl;
use lastcpu_core::devices::monitor::AuthMode;
use lastcpu_core::devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_core::{System, SystemConfig};
use lastcpu_sim::SimDuration;

fn main() {
    // 1. An empty machine: DRAM + system bus, nothing else.
    let mut sys = System::new(SystemConfig::default());

    // 2. The discrete memory controller (the paper's Intel-MCH revival).
    let memctl = sys.add_memctl("memctl0");

    // 3. An authentication service with one operator account.
    let secret = 0xFEED_FACE;
    sys.add_device(Box::new(AuthDevice::new(
        "auth0",
        secret,
        &[("operator", "hunter2")],
    )));

    // 4. A smart SSD with a log file, trusting tokens sealed by auth0.
    let mut fs = FlashFs::format(Ftl::new(NandChip::new(NandConfig::default())));
    fs.create("/logs/kvs.log").expect("fresh filesystem");
    fs.write(
        "/logs/kvs.log",
        0,
        b"[boot] kv-store started\n[info] 12345 requests served\n[info] 0 errors\n",
    )
    .expect("seed the log");
    sys.add_device(Box::new(SmartSsd::new(
        "ssd0",
        fs,
        SsdConfig {
            exports: vec!["/logs/kvs.log".into()],
            file_auth: AuthMode::Sealed { secret },
            ..SsdConfig::default()
        },
    )));

    // 5. The operator's console (§4 "System Maintenance").
    let console = sys.add_device(Box::new(ConsoleDevice::new(
        "console0",
        memctl.id,
        "operator",
        "hunter2",
        "/logs/kvs.log",
    )));

    // 6. Power on and run 50 virtual milliseconds.
    sys.power_on();
    sys.run_for(SimDuration::from_millis(50));

    // 7. Inspect the result.
    let c: &ConsoleDevice = sys.device_as(console).expect("console present");
    assert_eq!(c.state(), ConsoleState::Done, "console did not finish");
    println!(
        "machine booted: {} devices alive, zero CPUs",
        sys.bus().alive().count()
    );
    println!();
    println!("log retrieved by the console over the CPU-less fabric:");
    println!("-------------------------------------------------------");
    print!("{}", String::from_utf8_lossy(c.log().expect("done")));
    println!("-------------------------------------------------------");
    println!();
    println!("how it happened (protocol trace, last 12 steps before the read):");
    let events: Vec<_> = sys
        .trace()
        .events()
        .filter(|e| {
            &*e.source == "console0"
                || e.what().contains("console0")
                || e.what().contains("programmed IOMMU")
        })
        .collect();
    for e in events.iter().take(14) {
        println!("  {e}");
    }
    println!();
    println!(
        "bus carried {} control messages ({} bytes); {} pages were mapped by",
        sys.bus().stats().messages,
        sys.bus().stats().bytes,
        sys.stats().counter("bus.pages_mapped"),
    );
    println!("the privileged bus on instruction from the memory controller.");
}
