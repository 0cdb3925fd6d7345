//! A conventional (non-smart) NIC.
//!
//! Receives a frame, copies it into kernel memory, raises an interrupt —
//! i.e. sends the payload to the CPU as an [`lastcpu_bus::Payload::AppData`]
//! message. Transmits whatever the kernel hands back. All protocol
//! intelligence lives on the CPU.

use lastcpu_bus::wire::Wire;
use lastcpu_bus::{ConnId, DeviceId, Dst, Envelope, Payload};
use lastcpu_devices::device::{Device, DeviceCtx};
use lastcpu_net::{Frame, PortId};
use lastcpu_sim::costs;

/// Heartbeat timer token.
const TOKEN_HEARTBEAT: u64 = 1;

/// A packet crossing the NIC↔kernel boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet<'a> {
    /// The peer's switch port (`PortId`): the sender of a received frame,
    /// the destination of one to transmit.
    pub port: u32,
    /// The frame's bytes.
    pub payload: &'a [u8],
}

lastcpu_sim::__snap::record!(wire lastcpu_bus::wire; Packet<'a> { port, payload });

/// NIC counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct DumbNicStats {
    /// Frames forwarded to the CPU.
    pub rx: u64,
    /// Frames transmitted on behalf of the CPU.
    pub tx: u64,
}

/// The conventional NIC.
pub struct DumbNic {
    name: String,
    cpu: DeviceId,
    stats: DumbNicStats,
}

impl DumbNic {
    /// Creates a NIC that interrupts `cpu` for every frame.
    pub fn new(name: &str, cpu: DeviceId) -> Self {
        DumbNic {
            name: name.to_string(),
            cpu,
            stats: DumbNicStats::default(),
        }
    }
}

impl Device for DumbNic {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        "dumb-nic"
    }

    fn on_start(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.busy(costs::DUMB_NIC_SELF_TEST);
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: self.name.clone(),
                kind: "dumb-nic".into(),
            },
        );
        ctx.set_timer(costs::DEVICE_HEARTBEAT, TOKEN_HEARTBEAT);
    }

    fn on_net(&mut self, ctx: &mut DeviceCtx<'_>, frame: Frame) {
        // DMA into the kernel ring + interrupt. The payload rides the
        // AppData message; its copy cost is charged by the CPU on receipt.
        ctx.busy(costs::DUMB_NIC_PER_FRAME);
        self.stats.rx += 1;
        ctx.send_bus(
            Dst::Device(self.cpu),
            Payload::AppData {
                conn: ConnId(0),
                data: Packet {
                    port: frame.src.0,
                    payload: &frame.payload,
                }
                .encode(),
            },
        );
    }

    fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) {
        if let Payload::AppData { data, .. } = &env.payload {
            if env.src != self.cpu {
                return; // only the kernel drives this NIC
            }
            if let Ok(Packet { port: dst, payload }) = Packet::decode(data) {
                ctx.busy(costs::DUMB_NIC_PER_FRAME);
                self.stats.tx += 1;
                if let Some(port) = ctx.port {
                    ctx.net_tx(Frame::unicast(port, PortId(dst), payload.to_vec()));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token == TOKEN_HEARTBEAT {
            ctx.send_bus(Dst::Bus, Payload::Heartbeat);
            ctx.set_timer(costs::DEVICE_HEARTBEAT, TOKEN_HEARTBEAT);
        }
    }

    fn on_reset(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.busy(costs::DUMB_NIC_SELF_TEST);
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: self.name.clone(),
                kind: "dumb-nic".into(),
            },
        );
        ctx.set_timer(costs::DEVICE_HEARTBEAT, TOKEN_HEARTBEAT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_framing_round_trips() {
        let packet = Packet {
            port: 7,
            payload: b"hello",
        };
        assert_eq!(Packet::decode(&packet.encode()), Ok(packet));
        assert!(Packet::decode(&[1, 2]).is_err());
    }

    #[test]
    fn empty_payload_round_trips() {
        let packet = Packet {
            port: 0,
            payload: b"",
        };
        assert_eq!(Packet::decode(&packet.encode()), Ok(packet));
    }
}
