//! Tracing and the span profiler must compose: enabling `--profile` next to
//! `--trace-out` cannot change the recorded trace, and the profiler's own
//! accounting must not double-count nested spans.

use lastcpu_core::{HostCtx, NetHost, System, SystemConfig};
use lastcpu_devices::auth::AuthDevice;
use lastcpu_devices::console::ConsoleDevice;
use lastcpu_devices::flash::{NandChip, NandConfig};
use lastcpu_devices::fs::FlashFs;
use lastcpu_devices::ftl::Ftl;
use lastcpu_devices::monitor::AuthMode;
use lastcpu_devices::nic::{EchoApp, SmartNic};
use lastcpu_devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_net::{Frame, PortId};
use lastcpu_sim::export::trace_jsonl;
use lastcpu_sim::{profile, SimDuration};

/// Fires pings at the echo NIC, one per reply.
struct Pinger {
    nic_port: PortId,
    remaining: u32,
    replies: u32,
}

impl NetHost for Pinger {
    fn name(&self) -> &str {
        "pinger"
    }
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.remaining -= 1;
        ctx.net_tx(self.nic_port, b"ping".to_vec());
    }
    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Frame) {
        self.replies += 1;
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.net_tx(self.nic_port, frame.payload);
        }
    }
}

/// Runs the echo workload with tracing on; returns the trace as JSONL.
fn echo_run() -> String {
    let mut sys = System::new(SystemConfig::default());
    sys.add_memctl("memctl0");
    let nic = sys.add_net_device(Box::new(SmartNic::new("nic0", EchoApp::new())));
    let nic_port = sys.device_port(nic).unwrap();
    let host_port = sys.add_host(Box::new(Pinger {
        nic_port,
        remaining: 20,
        replies: 0,
    }));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(20));
    let p: &Pinger = sys.host_as(host_port).unwrap();
    assert_eq!(p.replies, 20, "echo workload must complete");
    trace_jsonl(sys.trace())
}

/// Runs the console end-to-end workload (auth + discovery + VIRTIO reads),
/// which exercises spans *nested* inside engine event scopes (the IOMMU
/// translates during DMA); returns the trace as JSONL.
fn console_run() -> String {
    let mut sys = System::new(SystemConfig::default());
    let memctl = sys.add_memctl("memctl0");
    sys.add_device(Box::new(AuthDevice::new(
        "auth0",
        0xFEED,
        &[("operator", "hunter2")],
    )));
    let mut fs = FlashFs::format(Ftl::new(NandChip::new(NandConfig {
        blocks: 64,
        pages_per_block: 32,
        page_size: 4096,
        max_erase_cycles: u32::MAX,
        ..NandConfig::default()
    })));
    fs.create("/logs/app.log").unwrap();
    fs.write("/logs/app.log", 0, b"kv-store started\n").unwrap();
    sys.add_device(Box::new(SmartSsd::new(
        "ssd0",
        fs,
        SsdConfig {
            exports: vec!["/logs/app.log".into()],
            file_auth: AuthMode::Sealed { secret: 0xFEED },
            ..SsdConfig::default()
        },
    )));
    sys.add_device(Box::new(ConsoleDevice::new(
        "console0",
        memctl.id,
        "operator",
        "hunter2",
        "/logs/app.log",
    )));
    sys.power_on();
    sys.run_for(SimDuration::from_millis(50));
    trace_jsonl(sys.trace())
}

#[test]
fn profiler_does_not_perturb_the_trace() {
    // Same seed, tracing on both times; profiling off vs. on. The trace is
    // pure virtual time, so the two runs must export identical bytes — the
    // profiler observes the run, it must not participate in it.
    profile::reset();
    profile::set_enabled(false);
    let without = echo_run();
    profile::set_enabled(true);
    let with = echo_run();
    profile::set_enabled(false);
    profile::reset();
    assert_eq!(without, with, "profiling changed the recorded trace");

    // Same property on the DMA-heavy workload (nested spans active).
    profile::reset();
    profile::set_enabled(false);
    let without = console_run();
    profile::set_enabled(true);
    let with = console_run();
    profile::set_enabled(false);
    profile::reset();
    assert_eq!(without, with, "profiling changed the recorded trace");
}

#[test]
fn nested_spans_do_not_double_count_root_time() {
    profile::reset();
    profile::set_enabled(true);
    let _ = console_run();
    let snap = profile::snapshot();
    profile::set_enabled(false);
    profile::reset();

    let find = |name: &str| snap.scopes.iter().find(|s| s.name == name);

    // The engine pop loop and per-event scopes are top level; everything
    // they call (IOMMU translation, device work) nests underneath.
    let pop = find("engine.pop").expect("engine.pop scope recorded");
    assert!(pop.spans > 0);
    assert_eq!(pop.wall_ns, pop.wall_root_ns, "engine.pop is top-level");

    // iommu.translate always runs inside an engine event scope (a DMA is
    // processed while handling a delivery), so none of its wall time may
    // count toward the root total.
    let iommu = find("iommu.translate").expect("iommu.translate scope recorded");
    assert!(iommu.spans > 0, "console workload performed no DMA");
    assert!(iommu.wall_ns > 0);
    assert_eq!(
        iommu.wall_root_ns, 0,
        "nested span double-counted into roots"
    );

    // Coverage arithmetic: the root total is the sum of root times and can
    // never exceed the (nesting-inflated) flat sum.
    let flat: u64 = snap.scopes.iter().map(|s| s.wall_ns).sum();
    assert!(snap.wall_root_total_ns() <= flat);

    // Sim-time attribution flows through the same scopes: the dispatcher
    // charged handler service time to the event scopes it ran under.
    let sim_ns: u64 = snap.scopes.iter().map(|s| s.sim_ns).sum();
    assert!(sim_ns > 0, "no sim-ns attributed");
}
