//! A broadcast is one allocation, made by its sender (§2.2–2.3: one
//! SSDP-style message reaches every device on a shared medium). The machine
//! hands each recipient a borrow of that allocation, so what a broadcast
//! costs the host does not grow with the number of devices listening.
//!
//! This file is its own test binary because it installs a counting global
//! allocator; it holds one test so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System as StdAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use lastcpu_bus::{ConnId, Dst, Envelope, Payload};
use lastcpu_core::devices::device::{Device, DeviceCtx};
use lastcpu_core::{System, SystemConfig};
use lastcpu_sim::SimDuration;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the std system allocator; the
// only addition is a relaxed counter that publishes nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller handed us.
        unsafe { StdAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `StdAlloc` with this layout.
        unsafe { StdAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `StdAlloc` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { StdAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Time between broadcasts: one revolution of the event wheel (1,024 slots
/// of 256 ns), so every broadcast's events land in the buckets the previous
/// one already grew and the warm-up is over after a few of them.
const PERIOD: SimDuration = SimDuration::from_nanos(1024 * 256);

/// Registers, then does nothing but receive.
struct Listener {
    name: String,
    heard: u64,
}

impl Device for Listener {
    fn name(&self) -> &str {
        &self.name
    }
    fn kind(&self) -> &str {
        "listener"
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: self.name.clone(),
                kind: "listener".into(),
            },
        );
    }
    fn on_message(&mut self, _ctx: &mut DeviceCtx<'_>, env: &Envelope) {
        if let Payload::AppData { data, .. } = &env.payload {
            self.heard += data.len() as u64;
        }
    }
    fn on_timer(&mut self, _ctx: &mut DeviceCtx<'_>, _token: u64) {}
}

/// Broadcasts a payload that owns heap memory every [`PERIOD`].
struct Shouter;

impl Device for Shouter {
    fn name(&self) -> &str {
        "shouter"
    }
    fn kind(&self) -> &str {
        "shouter"
    }
    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: "shouter".into(),
                kind: "shouter".into(),
            },
        );
        ctx.set_timer(PERIOD, 1);
    }
    fn on_message(&mut self, _ctx: &mut DeviceCtx<'_>, _env: &Envelope) {}
    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, _token: u64) {
        ctx.send_bus(
            Dst::Broadcast,
            Payload::AppData {
                conn: ConnId(0),
                data: vec![7; 64],
            },
        );
        ctx.set_timer(PERIOD, 1);
    }
}

/// Allocations over 200 broadcasts to `listeners` devices, after 200
/// broadcasts of warm-up (tracing on, as by default; the trace ring is
/// allocated whole when the machine is built).
fn allocs_per_200_broadcasts(listeners: usize) -> u64 {
    let mut sys = System::new(SystemConfig::default());
    assert!(sys.trace().is_enabled());
    sys.add_device(Box::new(Shouter));
    let handles: Vec<_> = (0..listeners)
        .map(|i| {
            sys.add_device(Box::new(Listener {
                name: format!("listener{i}"),
                heard: 0,
            }))
        })
        .collect();
    sys.power_on();
    sys.run_for(PERIOD.saturating_mul(200));
    let heard = |sys: &System| -> u64 {
        handles
            .iter()
            .map(|&h| sys.device_as::<Listener>(h).expect("listener").heard)
            .sum()
    };
    let before_heard = heard(&sys);
    let before = ALLOCS.load(Ordering::Relaxed);
    sys.run_for(PERIOD.saturating_mul(200));
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let delivered = (heard(&sys) - before_heard) / 64;
    assert!(
        delivered.abs_diff(200 * listeners as u64) <= listeners as u64,
        "every listener heard every broadcast ({delivered} deliveries)"
    );
    allocs
}

#[test]
fn a_broadcast_allocates_independently_of_its_audience() {
    let few = allocs_per_200_broadcasts(2);
    let many = allocs_per_200_broadcasts(32);
    // The sender's `Vec` (the envelope around it rides a recycled
    // allocation): the same per broadcast whoever listens. (A copy per
    // recipient would be 30 more allocations per broadcast, 6,000 over the
    // window.)
    assert!(few >= 200, "{few} allocations for 200 broadcasts");
    assert_eq!(many, few, "2 listeners: {few}, 32 listeners: {many}");
}
