//! A conventional (non-smart) NIC.
//!
//! Receives a frame, copies it into kernel memory, raises an interrupt —
//! i.e. sends the payload to the CPU as an [`lastcpu_bus::Payload::AppData`]
//! message. Transmits whatever the kernel hands back. All protocol
//! intelligence lives on the CPU.

use lastcpu_bus::wire::{WireReader, WireWriter};
use lastcpu_bus::{ConnId, DeviceId, Dst, Envelope, Payload};
use lastcpu_devices::device::{Device, DeviceCtx};
use lastcpu_net::{Frame, PortId};
use lastcpu_sim::SimDuration;

/// Heartbeat timer token.
const TOKEN_HEARTBEAT: u64 = 1;

/// Encodes a packet crossing the NIC↔kernel boundary: `(peer_port, bytes)`.
pub fn encode_packet(port: PortId, payload: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u32(port.0);
    w.bytes(payload);
    w.finish()
}

/// Decodes a packet crossing the NIC↔kernel boundary.
pub fn decode_packet(data: &[u8]) -> Option<(PortId, Vec<u8>)> {
    let mut r = WireReader::new(data);
    let port = PortId(r.u32().ok()?);
    let payload = r.bytes().ok()?;
    r.expect_end().ok()?;
    Some((port, payload))
}

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

    /// Counters.
    pub fn stats(&self) -> DumbNicStats {
        self.stats
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
        ctx.busy(SimDuration::from_micros(20));
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: self.name.clone(),
                kind: "dumb-nic".into(),
            },
        );
        ctx.set_timer(SimDuration::from_millis(2), TOKEN_HEARTBEAT);
    }

    fn on_net(&mut self, ctx: &mut DeviceCtx<'_>, frame: Frame) {
        // DMA into the kernel ring + interrupt. The payload rides the
        // AppData message; its copy cost is charged by the CPU on receipt.
        ctx.busy(SimDuration::from_nanos(300));
        self.stats.rx += 1;
        ctx.send_bus(
            Dst::Device(self.cpu),
            Payload::AppData {
                conn: ConnId(0),
                data: encode_packet(frame.src, &frame.payload),
            },
        );
    }

    fn on_message(&mut self, ctx: &mut DeviceCtx<'_>, env: &Envelope) {
        if let Payload::AppData { data, .. } = &env.payload {
            if env.src != self.cpu {
                return; // only the kernel drives this NIC
            }
            if let Some((dst, payload)) = decode_packet(data) {
                ctx.busy(SimDuration::from_nanos(300));
                self.stats.tx += 1;
                if let Some(port) = ctx.port {
                    ctx.net_tx(Frame::unicast(port, dst, payload));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut DeviceCtx<'_>, token: u64) {
        if token == TOKEN_HEARTBEAT {
            ctx.send_bus(Dst::Bus, Payload::Heartbeat);
            ctx.set_timer(SimDuration::from_millis(2), TOKEN_HEARTBEAT);
        }
    }

    fn on_reset(&mut self, ctx: &mut DeviceCtx<'_>) {
        ctx.busy(SimDuration::from_micros(20));
        ctx.send_bus(
            Dst::Bus,
            Payload::Hello {
                name: self.name.clone(),
                kind: "dumb-nic".into(),
            },
        );
        ctx.set_timer(SimDuration::from_millis(2), TOKEN_HEARTBEAT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_framing_round_trips() {
        let enc = encode_packet(PortId(7), b"hello");
        assert_eq!(decode_packet(&enc), Some((PortId(7), b"hello".to_vec())));
        assert_eq!(decode_packet(&[1, 2]), None);
    }

    #[test]
    fn empty_payload_round_trips() {
        let enc = encode_packet(PortId(0), b"");
        assert_eq!(decode_packet(&enc), Some((PortId(0), vec![])));
    }
}
