//! A count is kept in one place (DESIGN.md §7): where a component counts
//! for itself, the machine's hub key is fed from that count, not from a
//! second counter beside it. After a traced run with RPC retries on and
//! faults injected, each such key reads exactly the component's own count.

use lastcpu_bench::drivers::{ControlMode, DmaProbe, SetupClient};
use lastcpu_bus::RetryConfig;
use lastcpu_core::devices::flash::{NandChip, NandConfig};
use lastcpu_core::devices::fs::FlashFs;
use lastcpu_core::devices::ftl::Ftl;
use lastcpu_core::devices::ssd::{SmartSsd, SsdConfig};
use lastcpu_core::{System, SystemConfig};
use lastcpu_sim::{FaultKind, FaultPlan, SimDuration, SimTime};

const FILE: &str = "/data/ctl.db";
/// Spurious translation faults the storm delivers to the SSD.
const STORM: u32 = 7;

#[test]
fn each_hub_key_is_its_components_count() {
    let mut plan = FaultPlan::new(0x43);
    plan.inject(
        SimTime::from_nanos(1_000_000),
        "memctl0",
        FaultKind::Drop { count: 12 },
    )
    .inject(
        SimTime::from_nanos(2_000_000),
        "ssd0",
        FaultKind::IommuStorm { count: STORM },
    )
    .inject(SimTime::from_nanos(3_000_000), "ssd0", FaultKind::Hang);
    let mut sys = System::new(SystemConfig {
        seed: 43,
        trace: true,
        fault_plan: Some(plan),
        rpc_retry: Some(RetryConfig::default()),
        ..SystemConfig::default()
    });
    let memctl = sys.add_memctl("memctl0");
    let mut fs = FlashFs::format(Ftl::new(NandChip::new(NandConfig::default())));
    fs.create(FILE).expect("fresh filesystem");
    let ssd = sys.add_device(Box::new(SmartSsd::new(
        "ssd0",
        fs,
        SsdConfig {
            exports: vec![FILE.into()],
            ..SsdConfig::default()
        },
    )));
    let probe = sys.add_device(Box::new(DmaProbe::new("probe0", memctl.id)));
    let mut devices = vec![memctl, ssd, probe];
    for i in 0..4 {
        let mut c = SetupClient::new(
            &format!("client{i}"),
            ControlMode::Decentralized,
            &format!("file:{FILE}"),
            u32::MAX,
        );
        c.memctl_hint_value = memctl.id;
        devices.push(sys.add_device(Box::new(c)));
    }
    sys.power_on();
    sys.run_for(SimDuration::from_millis(5));

    let hub = sys.stats();
    assert!(sys.trace().total_emitted() > 0);
    assert_eq!(hub.counter("bus.messages"), sys.bus().stats().messages);
    let rpc = sys.rpc_stats().expect("retries are on");
    assert_eq!(hub.counter("bus.rpc_retries"), rpc.retries);
    assert_eq!(hub.counter("bus.rpc_give_ups"), rpc.give_ups);
    let raised: u64 = devices.iter().map(|&h| sys.iommu(h).stats().faults).sum();
    assert_eq!(hub.counter("iommu.faults"), raised + u64::from(STORM));
    // Every count above moved: the probe's out-of-bounds access faulted,
    // the drops cost retransmissions and the hung SSD abandoned requests.
    let p: &DmaProbe = sys.device_as(probe).expect("probe");
    assert_eq!(p.out_of_bounds_faulted, Some(true));
    assert!(raised > 0, "the probe's DMA fault is its IOMMU's");
    assert!(rpc.retries > 0 && rpc.give_ups > 0, "{rpc:?}");
}
