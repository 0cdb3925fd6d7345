//! Device wrapper for the memory controller.
//!
//! `lastcpu-memctl` is pure policy logic; this wrapper gives it a device
//! body: power-on self-test, `Hello`, heartbeats, and the `memory` service
//! announcement other devices discover (§2.2: the controller is a device
//! like any other — only its *controllership* of the Memory resource class
//! is privileged, and that is granted by the bus, not assumed).

use lastcpu_bus::{Dst, Envelope, Payload, ResourceKind, ServiceDesc, ServiceId};
use lastcpu_devices::device::{Device, DeviceCtx};
use lastcpu_memctl::{MemCtlConfig, MemoryController};
use lastcpu_sim::{costs, SimDuration};

/// Heartbeat timer token.
const TOKEN_HEARTBEAT: u64 = 1;

/// The memory-controller device.
pub struct MemCtlDevice {
    name: String,
    ctl: MemoryController,
    heartbeat: SimDuration,
    /// Reply buffer lent to the controller for each message and drained
    /// onto the bus; not state.
    out: Vec<Envelope>,
}

impl MemCtlDevice {
    /// Wraps a controller with bus address `id` over `dram_bytes` of DRAM.
    pub fn new(name: &str, id: lastcpu_bus::DeviceId, dram_bytes: u64) -> Self {
        Self::with_config(name, id, dram_bytes, MemCtlConfig::default())
    }

    /// Wraps a controller with an explicit policy configuration.
    pub fn with_config(
        name: &str,
        id: lastcpu_bus::DeviceId,
        dram_bytes: u64,
        config: MemCtlConfig,
    ) -> Self {
        MemCtlDevice {
            name: name.to_string(),
            ctl: MemoryController::with_config(id, dram_bytes, config),
            heartbeat: costs::DEVICE_HEARTBEAT,
            out: Vec::new(),
        }
    }

    /// The wrapped controller (stats, inspection).
    pub fn controller(&self) -> &MemoryController {
        &self.ctl
    }

    /// Sends what the controller appended to the reply buffer.
    fn forward(&mut self, ctx: &mut DeviceCtx<'_>) {
        for e in self.out.drain(..) {
            ctx.send_bus_with_req(e.dst, e.req, e.payload);
        }
    }
}

// `out` is drained within the same delivery.
lastcpu_snap::fields! { MemCtlDevice |self| { name, heartbeat, mut ctl } }

impl Device for MemCtlDevice {
    fn snapshot_state(&self, w: &mut lastcpu_snap::SnapWriter) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Snapshot::snapshot(self, w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        lastcpu_snap::Restore::restore(self, r)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        "memory-controller"
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.busy(costs::MEMCTL_SELF_TEST);
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: self.name.clone(),
                kind: "memory-controller".into(),
            },
        );
        // Claim the Memory resource class (§2.2 "Address Translation").
        self.ctl.on_start(&mut self.out);
        self.forward(ctx);
        // Announce the allocation service so applications can discover the
        // controller instead of hard-wiring its address.
        ctx.send_bus(
            Dst::Bus,
            Payload::Announce {
                service: ServiceDesc {
                    id: ServiceId(1),
                    name: "memory".into(),
                    resource: ResourceKind::Memory,
                },
            },
        );
        ctx.set_timer(self.heartbeat, TOKEN_HEARTBEAT);
    }

    fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) {
        match &env.payload {
            // Queries for the memory service are answered directly (the
            // wrapper has no Monitor — the controller is deliberately the
            // smallest possible device).
            Payload::Query { pattern } if matches!(&**pattern, "memory" | "memory*") => {
                ctx.send_bus_with_req(
                    Dst::Device(env.src),
                    env.req,
                    Payload::QueryHit {
                        device: self.ctl.id(),
                        service: ServiceDesc {
                            id: ServiceId(1),
                            name: "memory".into(),
                            resource: ResourceKind::Memory,
                        },
                    },
                );
            }
            Payload::Query { .. }
            | Payload::HelloAck { .. }
            | Payload::Announce { .. }
            | Payload::Withdraw { .. } => {}
            _ => {
                // Per-message firmware cost: table lookups and updates.
                ctx.busy(costs::MEMCTL_REQUEST);
                self.ctl.handle(env, &mut self.out);
                self.forward(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token == TOKEN_HEARTBEAT {
            ctx.send_bus(Dst::Bus, Payload::Heartbeat);
            ctx.set_timer(self.heartbeat, TOKEN_HEARTBEAT);
        }
    }

    fn on_reset(&mut self, ctx: &mut DeviceCtx<'_>) {
        // A memory-controller reset loses the allocation tables: in a real
        // machine this is close to fatal. The wrapper re-registers; the
        // tables start empty (documented failure-model boundary).
        ctx.busy(costs::MEMCTL_SELF_TEST);
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: self.name.clone(),
                kind: "memory-controller".into(),
            },
        );
        self.ctl.on_start(&mut self.out);
        self.forward(ctx);
        ctx.set_timer(self.heartbeat, TOKEN_HEARTBEAT);
    }
}
