//! Bus latency model.
//!
//! §2.3: the management bus "must be able to process messages, so it can
//! update the management tables on behalf of applications", but it does not
//! need data-plane throughput. The defaults model a modest embedded
//! message processor on a shared control interconnect: the `bus.*` rows of
//! the cost table ([`lastcpu_sim::costs`]) give ~200 ns propagation per hop
//! (device → bus → device), ~300 ns of message processing, and a small
//! per-byte cost. No experiment builds this model with other values yet:
//! sweeping the rows to find where an under-provisioned control plane
//! starts to matter is ROADMAP item 6.

use lastcpu_sim::{costs, SimDuration};

/// Latency/bandwidth model for control-plane messages.
#[derive(Debug, Clone, Copy)]
pub struct BusCostModel {
    /// Wire propagation per hop (sender→bus or bus→receiver).
    pub hop_latency: SimDuration,
    /// Fixed processing time the bus spends per message.
    pub processing: SimDuration,
    /// Per-byte serialization cost in picoseconds.
    pub per_byte_ps: u64,
}

impl Default for BusCostModel {
    fn default() -> Self {
        BusCostModel {
            hop_latency: costs::BUS_HOP_LATENCY,
            processing: costs::BUS_PROCESSING,
            per_byte_ps: costs::BUS_PER_BYTE,
        }
    }
}

impl BusCostModel {
    /// Latency for a unicast message of `bytes` bytes: two hops plus bus
    /// processing plus serialization.
    pub fn unicast(&self, bytes: usize) -> SimDuration {
        self.hop_latency.saturating_mul(2)
            + self.processing
            + SimDuration::from_nanos(bytes as u64 * self.per_byte_ps / 1000)
    }

    /// Latency until the `n`-th broadcast recipient (0-based) sees the
    /// message: the bus serializes the fan-out, so later recipients see it
    /// later. This serialization is what E7 measures at scale.
    pub fn broadcast_nth(&self, bytes: usize, n: usize) -> SimDuration {
        self.unicast(bytes) + self.processing.saturating_mul(n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unicast_has_two_hops() {
        let m = BusCostModel::default();
        let u = m.unicast(0);
        assert_eq!(
            u.as_nanos(),
            2 * m.hop_latency.as_nanos() + m.processing.as_nanos()
        );
    }

    #[test]
    fn bytes_add_cost() {
        let m = BusCostModel::default();
        assert!(m.unicast(1000) > m.unicast(10));
    }

    #[test]
    fn broadcast_recipients_are_serialized() {
        let m = BusCostModel::default();
        assert!(m.broadcast_nth(64, 10) > m.broadcast_nth(64, 0));
        assert_eq!(m.broadcast_nth(64, 0), m.unicast(64));
    }
}
