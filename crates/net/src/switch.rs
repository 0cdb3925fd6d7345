//! A store-and-forward switch with per-egress-port serialization.

use std::fmt;

use lastcpu_sim::{SimDuration, SimTime};

use crate::Frame;

/// A switch port identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u32);

impl PortId {
    /// The broadcast destination.
    pub const BROADCAST: PortId = PortId(u32::MAX);
}

/// Link timing model. Defaults approximate a 10 GbE datacenter edge:
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
            per_byte_ps: 100,
            switch_latency: SimDuration::from_nanos(500),
            propagation: SimDuration::from_micros(1),
        }
    }
}

impl NetCostModel {
    /// Time to clock `bytes` onto the wire.
    pub fn serialize(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(bytes.saturating_mul(self.per_byte_ps) / 1000)
    }

    /// Time to clock a frame with `payload_bytes` of payload onto the wire,
    /// including the fixed [`crate::FRAME_OVERHEAD_BYTES`] header overhead —
    /// the same constant [`crate::Frame::wire_len`] reports, so cost and
    /// accounting can never drift apart.
    pub fn serialize_frame(&self, payload_bytes: u64) -> SimDuration {
        self.serialize(payload_bytes.saturating_add(crate::FRAME_OVERHEAD_BYTES))
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

    /// The cost model in use.
    pub fn cost_model(&self) -> &NetCostModel {
        &self.cost
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

    /// The time egress port `p` becomes idle (for queue-depth metrics).
    pub fn port_busy_until(&self, p: PortId) -> SimTime {
        index_of(p)
            .and_then(|i| *self.busy_until.get(i)?)
            .unwrap_or(SimTime::ZERO)
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

impl lastcpu_snap::Snapshot for Switch {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.cost.per_byte_ps);
        w.put_u64(self.cost.switch_latency.as_nanos());
        w.put_u64(self.cost.propagation.as_nanos());
        w.put_u64(self.stats.forwarded);
        w.put_u64(self.stats.dropped);
        w.put_u64(self.stats.bytes);
        // The next id `add_port` would hand out, then the ports in order.
        let n = self.busy_until.len();
        w.put_u32(n as u32 + 1);
        w.put_len(n);
        for p in 1..=n as u32 {
            w.put_u32(p);
        }
        // Only ports that have carried a frame are listed.
        w.put_len(self.busy_until.iter().flatten().count());
        for (i, t) in self.busy_until.iter().enumerate() {
            if let Some(t) = t {
                w.put_u32(i as u32 + 1);
                w.put_u64(t.as_nanos());
            }
        }
    }
}

impl lastcpu_snap::Restore for Switch {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.cost.per_byte_ps = r.u64()?;
        self.cost.switch_latency = SimDuration::from_nanos(r.u64()?);
        self.cost.propagation = SimDuration::from_nanos(r.u64()?);
        self.stats.forwarded = r.u64()?;
        self.stats.dropped = r.u64()?;
        self.stats.bytes = r.u64()?;
        // Ids are indices, so the port list must read exactly 1..=n.
        let next_id = r.u32()?;
        let n = r.len()?;
        if next_id as usize != n + 1 {
            return Err(r.corrupt(format!("{n} ports but next port id {next_id}")));
        }
        for i in 0..n {
            let p = r.u32()?;
            if p as usize != i + 1 {
                return Err(r.corrupt(format!("port list has port {p} at position {i}")));
            }
        }
        self.busy_until = vec![None; n];
        for _ in 0..r.len()? {
            let p = PortId(r.u32()?);
            let t = SimTime::from_nanos(r.u64()?);
            match index_of(p).and_then(|i| self.busy_until.get_mut(i)) {
                Some(busy) => *busy = Some(t),
                None => return Err(r.corrupt(format!("busy-until for unknown port {}", p.0))),
            }
        }
        Ok(())
    }
}

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
        let gap = t2 - t1;
        let wire_time = sw.cost_model().serialize(9018);
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
        sw.route(SimTime::ZERO, &frame(a, b, 9000));
        let busy = sw.port_busy_until(b);
        // A frame arriving after the port drained is not delayed by it.
        let later = busy + SimDuration::from_micros(10);
        let t = sw.route(later, &frame(a, b, 64))[0].1;
        let fresh_latency = sw.cost_model().serialize(82).saturating_mul(2)
            + sw.cost_model().switch_latency
            + sw.cost_model().propagation;
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
            assert_eq!(sw.port_busy_until(dst), SimTime::ZERO);
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
        assert_eq!(
            back.port_busy_until(PortId(2)),
            sw.port_busy_until(PortId(2))
        );
        assert_eq!(back.add_port(), PortId(4));
    }

    /// Byte offset of the port list's length in a switch snapshot: three
    /// cost words, three counters, the next port id.
    const PORTS_AT: usize = 6 * 8 + 4;

    #[test]
    fn restore_rejects_ports_that_are_not_one_to_n() {
        use lastcpu_snap::Snapshot as _;
        let good = used_switch().snapshot_bytes();
        assert_eq!(good[PORTS_AT], 3);
        // Second port claims to be port 7.
        let mut bytes = good.clone();
        bytes[PORTS_AT + 8 + 4] = 7;
        assert_corrupt(&bytes, "port 7 at position 1");
        // The next port id disagrees with the port count.
        let mut bytes = good;
        bytes[PORTS_AT - 4] = 9;
        assert_corrupt(&bytes, "next port id 9");
    }

    #[test]
    fn restore_rejects_a_busy_entry_for_an_unknown_port() {
        use lastcpu_snap::Snapshot as _;
        let mut bytes = used_switch().snapshot_bytes();
        // After the three port ids: a one-entry busy list naming port 2.
        let busy = PORTS_AT + 8 + 3 * 4;
        assert_eq!(bytes[busy], 1);
        assert_eq!(bytes[busy + 8], 2);
        for unknown in [0, 4] {
            bytes[busy + 8] = unknown;
            assert_corrupt(&bytes, "unknown port");
        }
    }
}
