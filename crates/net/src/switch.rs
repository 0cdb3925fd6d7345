//! A store-and-forward switch with per-egress-port serialization.

use std::fmt;

use lastcpu_sim::{costs, SimDuration, SimTime};

use crate::Frame;

/// A switch port identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u32);

impl PortId {
    /// The broadcast destination.
    pub const BROADCAST: PortId = PortId(u32::MAX);
}

/// Link timing model. The defaults are the `net.*` rows of the cost table
/// ([`lastcpu_sim::costs`]) and approximate a 10 GbE datacenter edge:
/// 100 ps/byte line rate, 500 ns switch latency, 1 µs propagation.
#[derive(Debug, Clone, Copy)]
pub struct NetCostModel {
    /// Per-byte serialization time in picoseconds (100 ps/B = 10 Gb/s).
    pub per_byte_ps: u64,
    /// Store-and-forward latency inside the switch.
    pub switch_latency: SimDuration,
    /// Propagation delay per link.
    pub propagation: SimDuration,
}

impl Default for NetCostModel {
    fn default() -> Self {
        NetCostModel {
            per_byte_ps: costs::NET_PER_BYTE,
            switch_latency: costs::NET_SWITCH_LATENCY,
            propagation: costs::NET_PROPAGATION,
        }
    }
}

impl NetCostModel {
    /// Time to clock `bytes` onto the wire.
    pub fn serialize(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(bytes.saturating_mul(self.per_byte_ps) / 1000)
    }
}

/// Switch counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct SwitchStats {
    /// Frames forwarded (per recipient).
    pub forwarded: u64,
    /// Frames dropped (unknown destination).
    pub dropped: u64,
    /// Payload+header bytes forwarded.
    pub bytes: u64,
}

/// A switch connecting registered ports.
///
/// Each egress port serializes at line rate: a frame begins transmission at
/// `max(arrival, port_busy_until)`, so a hot destination queues — this is
/// the congestion that the isolation experiment (E3) measures.
pub struct Switch {
    /// When each egress port becomes idle, `None` until it has carried a
    /// frame. Ids are indices: [`Switch::add_port`] is the only allocator,
    /// hands out `1, 2, …` and never removes a port, so port `p` sits at
    /// `p.0 - 1`.
    busy_until: Vec<Option<SimTime>>,
    cost: NetCostModel,
    stats: SwitchStats,
}

impl Default for Switch {
    fn default() -> Self {
        Self::new()
    }
}

impl Switch {
    /// An empty switch with the default cost model.
    pub fn new() -> Self {
        Switch {
            busy_until: Vec::new(),
            cost: NetCostModel::default(),
            stats: SwitchStats::default(),
        }
    }

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, cost: NetCostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Registers a new port and returns its id.
    pub fn add_port(&mut self) -> PortId {
        self.busy_until.push(None);
        PortId(self.busy_until.len() as u32)
    }

    /// Whether `p` is a registered port. Frame destinations are written by
    /// endpoints that may be hostile: 0, [`PortId::BROADCAST`] and ids never
    /// handed out are not ports.
    pub fn has_port(&self, p: PortId) -> bool {
        index_of(p).is_some_and(|i| i < self.busy_until.len())
    }

    /// Queues `wire` bytes on egress `port` (ingress serialization + switch
    /// latency already folded into `at_switch`) and returns the delivery time.
    ///
    /// `port` must satisfy [`Switch::has_port`].
    fn egress(&mut self, at_switch: SimTime, port: PortId, wire: u64) -> SimTime {
        let tx_time = self.cost.serialize(wire);
        let busy = &mut self.busy_until[index_of(port).expect("has_port")];
        let egress_done = busy.unwrap_or(SimTime::ZERO).max(at_switch) + tx_time;
        *busy = Some(egress_done);
        self.stats.forwarded += 1;
        self.stats.bytes += wire;
        egress_done + self.cost.propagation
    }

    /// Routes a unicast frame without allocating: the hot delivery path.
    ///
    /// Returns the delivery time at `frame.dst`, or `None` if the
    /// destination is unknown (dropped, counted) or the frame is a
    /// broadcast (use [`Switch::route`]).
    pub fn route_unicast(&mut self, now: SimTime, frame: &Frame) -> Option<SimTime> {
        if frame.dst == PortId::BROADCAST {
            return None;
        }
        if !self.has_port(frame.dst) {
            self.stats.dropped += 1;
            return None;
        }
        let wire = frame.wire_len();
        // Ingress serialization + switch latency, then queue on the egress
        // port, then propagation to the endpoint.
        let at_switch = now + self.cost.serialize(wire) + self.cost.switch_latency;
        Some(self.egress(at_switch, frame.dst, wire))
    }

    /// Routes a frame arriving at the switch at `now`.
    ///
    /// Returns `(recipient, deliver_at)` pairs; the caller schedules the
    /// deliveries. Unknown unicast destinations are dropped (counted).
    pub fn route(&mut self, now: SimTime, frame: &Frame) -> Vec<(PortId, SimTime)> {
        if frame.dst != PortId::BROADCAST {
            return match self.route_unicast(now, frame) {
                Some(deliver) => vec![(frame.dst, deliver)],
                None => Vec::new(),
            };
        }
        let wire = frame.wire_len();
        let at_switch = now + self.cost.serialize(wire) + self.cost.switch_latency;
        let n = self.busy_until.len();
        let mut out = Vec::with_capacity(n);
        for port in (1..=n as u32).map(PortId).filter(|&p| p != frame.src) {
            out.push((port, self.egress(at_switch, port, wire)));
        }
        out
    }
}

/// Table index of `p`, if it can have one: ports are numbered from 1.
fn index_of(p: PortId) -> Option<usize> {
    (p.0 as usize).checked_sub(1)
}

impl fmt::Debug for Switch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Switch(ports={}, forwarded={}, dropped={})",
            self.busy_until.len(),
            self.stats.forwarded,
            self.stats.dropped
        )
    }
}

#[cfg(test)]
mod ordering_tests {
    use super::*;

    #[test]
    fn per_port_delivery_preserves_send_order() {
        // Frames from one source to one destination must arrive in order,
        // even with mixed sizes (store-and-forward serialization).
        let mut sw = Switch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        let mut prev = SimTime::ZERO;
        for i in 0..20 {
            let len = if i % 3 == 0 { 9000 } else { 64 };
            let t = sw.route(prev, &Frame::unicast(a, b, vec![0; len]))[0].1;
            assert!(t > prev, "frame {i} delivered out of order");
            prev = t;
        }
    }
}

lastcpu_snap::newtypes!(PortId);
lastcpu_snap::record!(SwitchStats {
    forwarded,
    dropped,
    bytes
});

// The ports are a count and each port's busy-until time in index order
// (`None` until it carries a frame); a port's id is its index plus one.
lastcpu_snap::fields! { Switch |self| {
    cost.per_byte_ps, cost.switch_latency, cost.propagation, stats, busy_until,
} }

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(src: PortId, dst: PortId, len: usize) -> Frame {
        Frame::unicast(src, dst, vec![0; len])
    }

    #[test]
    fn unicast_delivers_once() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        let out = sw.route(SimTime::ZERO, &frame(a, b, 100));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, b);
        assert!(out[0].1 > SimTime::ZERO);
    }

    #[test]
    fn unknown_destination_dropped() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let out = sw.route(SimTime::ZERO, &frame(a, PortId(999), 100));
        assert!(out.is_empty());
        assert_eq!(sw.stats().dropped, 1);
    }

    #[test]
    fn broadcast_reaches_all_but_sender() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let _b = sw.add_port();
        let _c = sw.add_port();
        let out = sw.route(SimTime::ZERO, &frame(a, PortId::BROADCAST, 10));
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|&(p, _)| p != a));
    }

    #[test]
    fn hot_egress_port_queues() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        let victim = sw.add_port();
        // Two large frames from different sources to the same destination
        // arrive simultaneously: the second serializes after the first.
        let t1 = sw.route(SimTime::ZERO, &frame(a, victim, 9000))[0].1;
        let t2 = sw.route(SimTime::ZERO, &frame(b, victim, 9000))[0].1;
        assert!(t2 > t1);
        let gap = t2.since(t1);
        let wire_time = sw.cost.serialize(9018);
        assert_eq!(gap, wire_time);
    }

    #[test]
    fn idle_ports_do_not_interfere() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        let c = sw.add_port();
        let d = sw.add_port();
        let t1 = sw.route(SimTime::ZERO, &frame(a, b, 1000))[0].1;
        let t2 = sw.route(SimTime::ZERO, &frame(c, d, 1000))[0].1;
        assert_eq!(t1, t2, "different egress ports are independent");
    }

    #[test]
    fn larger_frames_take_longer() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        let small = sw.route(SimTime::ZERO, &frame(a, b, 64))[0].1;
        let mut sw2 = Switch::new();
        let a2 = sw2.add_port();
        let b2 = sw2.add_port();
        let large = sw2.route(SimTime::ZERO, &frame(a2, b2, 9000))[0].1;
        assert!(large > small);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        // The port is idle again by the time the frame is delivered.
        let delivered = sw.route(SimTime::ZERO, &frame(a, b, 9000))[0].1;
        // A frame arriving after the port drained is not delayed by it.
        let later = delivered + SimDuration::from_micros(10);
        let t = sw.route(later, &frame(a, b, 64))[0].1;
        let fresh_latency =
            sw.cost.serialize(82).saturating_mul(2) + sw.cost.switch_latency + sw.cost.propagation;
        assert_eq!(t.since(later), fresh_latency);
    }

    #[test]
    fn stats_accumulate() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        sw.route(SimTime::ZERO, &frame(a, b, 100));
        sw.route(SimTime::ZERO, &frame(a, PortId::BROADCAST, 10));
        assert_eq!(sw.stats().forwarded, 2);
        assert!(sw.stats().bytes > 0);
    }

    /// Frame destinations are written by endpoints: ids the switch never
    /// handed out are dropped and counted, whatever their value.
    #[test]
    fn frames_to_ids_never_handed_out_are_dropped() {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let hostile = [PortId(0), PortId(2), PortId(u32::MAX - 1)];
        for dst in hostile {
            assert!(!sw.has_port(dst));
            assert_eq!(sw.route_unicast(SimTime::ZERO, &frame(a, dst, 64)), None);
        }
        assert!(!sw.has_port(PortId::BROADCAST));
        assert_eq!(sw.stats().dropped, hostile.len() as u64);
        assert_eq!(sw.stats().forwarded, 0);
    }

    /// Three ports, of which only the second has carried a frame.
    fn used_switch() -> Switch {
        let mut sw = Switch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        sw.add_port();
        sw.route(SimTime::ZERO, &frame(a, b, 100));
        sw
    }

    fn restored(bytes: &[u8]) -> lastcpu_snap::Result<Switch> {
        use lastcpu_snap::Restore as _;
        let mut sw = Switch::new();
        sw.restore(&mut lastcpu_snap::SnapReader::new("switch", bytes))?;
        Ok(sw)
    }

    fn assert_corrupt(bytes: &[u8], what: &str) {
        match restored(bytes) {
            Err(lastcpu_snap::SnapError::Corrupt { detail, .. }) => {
                assert!(
                    detail.contains(what),
                    "{detail:?} does not mention {what:?}"
                )
            }
            other => panic!("expected Corrupt({what}), got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn snapshot_restores_to_the_same_bytes() {
        use lastcpu_snap::Snapshot as _;
        let sw = used_switch();
        let bytes = sw.snapshot_bytes();
        let mut back = restored(&bytes).expect("restores");
        assert_eq!(back.snapshot_bytes(), bytes);
        assert_eq!(back.add_port(), PortId(4));
    }

    /// Byte offset of the port list in a switch snapshot: three cost
    /// words, three counters.
    const PORTS_AT: usize = 6 * 8;

    /// The ports are a count, then each port's busy-until time in index
    /// order: no ids.
    #[test]
    fn a_snapshot_holds_each_port_in_index_order() {
        use lastcpu_snap::Snapshot as _;
        let sw = used_switch();
        let bytes = sw.snapshot_bytes();
        let busy = sw.busy_until[1].expect("the second port carried a frame");
        let mut want = 3u64.to_le_bytes().to_vec();
        want.push(0);
        want.push(1);
        want.extend_from_slice(&busy.as_nanos().to_le_bytes());
        want.push(0);
        assert_eq!(bytes[PORTS_AT..], want);
        // One port more than the bytes hold.
        let mut bytes = bytes;
        bytes[PORTS_AT] = 4;
        assert_corrupt(&bytes, "truncated");
    }
}
