//! Offline causal critical-path analysis (E12).
//!
//! The rack experiments measure end-to-end latency but nothing decomposes a
//! slow operation into *where the time went*: client-side queueing, fabric
//! uplink serialization, spine switching, replica service time, or waiting
//! for the last replication ack. This module walks a (merged) trace and does
//! that decomposition.
//!
//! # Input
//!
//! Workload hosts emit [`TraceData::Stage`] records at protocol milestones
//! (the labels below), and the rack fabric emits one [`TraceData::LinkHop`]
//! per forwarded frame carrying its uplink/spine/downlink timing split. The
//! analyzer joins stages on `(machine, op key)` for the client/router side
//! and on the globally-unique sub-request id for the replica side, then
//! reconstructs each completed operation's **critical chain**:
//!
//! ```text
//! client.issue → router.recv → router.sub ⇢ server.recv → server.done
//!       ⇢ router.ack(last) → router.respond → client.done
//! ```
//!
//! where the critical sub-request is the one whose ack arrived last (for
//! replicated writes, the straggler that gated the response). Consecutive
//! deltas along the chain become named segments, so per-op segments **sum
//! exactly to the measured end-to-end latency**. The two `⇢` transits are
//! further split into uplink / spine / downlink using the matching
//! [`TraceData::LinkHop`] record (the remainder is intra-machine switch
//! delivery); same-machine sub-requests have no hop and count entirely as
//! local delivery.
//!
//! All inputs are virtual-time, so the analysis is bit-deterministic: two
//! same-seed runs produce identical reports.

use std::collections::BTreeMap;

use crate::record::TraceData;
use crate::trace::TraceSink;

/// Stage label: client admitted an operation to the wire.
pub const STAGE_CLIENT_ISSUE: &str = "client.issue";
/// Stage label: client received the response.
pub const STAGE_CLIENT_DONE: &str = "client.done";
/// Stage label: shard router received a client request.
pub const STAGE_ROUTER_RECV: &str = "router.recv";
/// Stage label: shard router sent one sub-request toward a replica.
pub const STAGE_ROUTER_SUB: &str = "router.sub";
/// Stage label: shard router received a sub-request ack.
pub const STAGE_ROUTER_ACK: &str = "router.ack";
/// Stage label: shard router responded to the client.
pub const STAGE_ROUTER_RESPOND: &str = "router.respond";
/// Stage label: replica server received a sub-request.
pub const STAGE_SERVER_RECV: &str = "server.recv";
/// Stage label: replica server finished and sent its ack.
pub const STAGE_SERVER_DONE: &str = "server.done";

/// Builds the per-operation join key from the client's switch port and its
/// request id. Per-client request-id sequences collide across clients, so
/// the port disambiguates; the analyzer additionally scopes this key by the
/// machine the records came from.
pub fn op_key(client_port: u32, req_id: u64) -> u64 {
    ((client_port as u64) << 48) | (req_id & 0xFFFF_FFFF_FFFF)
}

/// Named critical-chain segments, in chain order.
pub const SEGMENTS: [&str; 9] = [
    "client_queue",      // client.issue -> router.recv
    "router_dispatch",   // router.recv -> router.sub (incl. retry/failover wait)
    "uplink",            // fabric uplink queue + serialization (both transits)
    "spine",             // spine switch + propagation (both transits)
    "downlink",          // fabric downlink queue + serialization (both transits)
    "local_delivery",    // intra-machine switch hops of both transits
    "replica_service",   // server.recv -> server.done
    "ack_aggregation",   // last ack -> router.respond
    "response_delivery", // router.respond -> client.done
];

const NSEG: usize = SEGMENTS.len();

/// One completed operation's decomposition (all virtual ns).
#[derive(Debug, Clone)]
pub struct OpBreakdown {
    /// End-to-end latency: `client.done - client.issue`.
    pub total_ns: u64,
    /// Per-segment ns, indexed like [`SEGMENTS`]; sums to `total_ns`.
    pub segments: [u64; NSEG],
    /// Whether the critical sub-request crossed machines.
    pub crossed_fabric: bool,
}

/// Averaged segment row for one percentile band.
#[derive(Debug, Clone)]
pub struct PercentileRow {
    /// The percentile this row describes (e.g. `99.0`).
    pub percentile: f64,
    /// Mean end-to-end ns over the band of ops around that percentile.
    pub total_ns: f64,
    /// Mean per-segment ns over the same band; sums to ~`total_ns`.
    pub segments: [f64; NSEG],
    /// Name of the largest segment in the band.
    pub dominant: &'static str,
}

/// The analyzer's output.
#[derive(Debug, Clone, Default)]
pub struct CritPathReport {
    /// Fully reconstructed operations.
    pub ops: Vec<OpBreakdown>,
    /// Operations with a `client.issue` but no joinable full chain (still
    /// in flight at run end, evicted trace records, or gave up).
    pub incomplete: u64,
    /// Operations with router marks but no `client.issue`: the requests a
    /// client sends before it runs (preload PUTs, the readiness probe),
    /// which it does not mark.
    pub router_only: u64,
    /// Percentile rows (p50 / p90 / p99 / p99.9), empty when no op completed.
    pub rows: Vec<PercentileRow>,
}

impl CritPathReport {
    /// The row for percentile `p`, if present.
    pub fn row(&self, p: f64) -> Option<&PercentileRow> {
        self.rows.iter().find(|r| (r.percentile - p).abs() < 1e-9)
    }

    /// Name of the dominant segment at p99 (`None` when no op completed).
    pub fn dominant_at_p99(&self) -> Option<&'static str> {
        self.row(99.0).map(|r| r.dominant)
    }

    /// Largest relative gap between any op's segment sum and its total.
    /// Exactly 0 by construction; kept as an executable invariant for the
    /// E12 acceptance gate ("segments sum to within 5% of end-to-end").
    pub fn worst_sum_error(&self) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.total_ns > 0)
            .map(|o| {
                let s: u64 = o.segments.iter().sum();
                (s as f64 - o.total_ns as f64).abs() / o.total_ns as f64
            })
            .fold(0.0, f64::max)
    }
}

/// The machine prefix of a merged-trace source (`"m3/kvs.router"` → `"m3"`;
/// sources without one — single-machine runs — map to `""`).
fn machine_of(source: &str) -> &str {
    match source.split_once('/') {
        Some((m, _)) if m.starts_with('m') => m,
        _ => "",
    }
}

fn machine_index(source: &str) -> Option<usize> {
    machine_of(source).strip_prefix('m')?.parse().ok()
}

#[derive(Default)]
struct OpMarks {
    issue: Option<u64>,
    router_recv: Option<u64>,
    respond: Option<u64>,
    done: Option<u64>,
    /// (time, sub id) of every `router.ack` for this op.
    acks: Vec<(u64, u64)>,
}

#[derive(Default)]
struct SubMarks {
    /// Every `router.sub` send time (retries re-send under the same id).
    sent: Vec<u64>,
    /// Every `server.recv` time with the serving machine index.
    recv: Vec<(u64, Option<usize>)>,
    /// Every `server.done` time with the serving machine index.
    done: Vec<(u64, Option<usize>)>,
    /// Machine the sub was issued from (the op's home machine).
    home: Option<usize>,
}

struct Hop {
    at: u64,
    src: usize,
    dst: usize,
    uplink: u64,
    spine: u64,
    downlink: u64,
    used: bool,
}

/// Decomposes every completed operation found in `trace`.
///
/// `trace` is typically a fabric `merged_trace()`; a single machine's
/// trace works too (transit segments then collapse into local delivery).
pub fn analyze(trace: &TraceSink) -> CritPathReport {
    // Join phase: bucket stage marks by key.
    let mut ops: BTreeMap<(String, u64), OpMarks> = BTreeMap::new();
    let mut subs: BTreeMap<u64, SubMarks> = BTreeMap::new();
    let mut hops: Vec<Hop> = Vec::new();

    for r in trace.events() {
        let at = r.at.as_nanos();
        match r.data {
            TraceData::Stage { stage, id, aux } => {
                let m = machine_of(r.source()).to_string();
                match stage {
                    STAGE_CLIENT_ISSUE => {
                        ops.entry((m, id)).or_default().issue.get_or_insert(at);
                    }
                    STAGE_ROUTER_RECV => {
                        ops.entry((m, id))
                            .or_default()
                            .router_recv
                            .get_or_insert(at);
                    }
                    STAGE_ROUTER_RESPOND => {
                        ops.entry((m, id)).or_default().respond.get_or_insert(at);
                    }
                    STAGE_CLIENT_DONE => {
                        ops.entry((m, id)).or_default().done.get_or_insert(at);
                    }
                    STAGE_ROUTER_SUB => {
                        let s = subs.entry(id).or_default();
                        s.sent.push(at);
                        s.home = machine_index(r.source());
                        ops.entry((m, aux)).or_default();
                    }
                    STAGE_ROUTER_ACK => {
                        ops.entry((m, aux)).or_default().acks.push((at, id));
                    }
                    STAGE_SERVER_RECV => {
                        subs.entry(id)
                            .or_default()
                            .recv
                            .push((at, machine_index(r.source())));
                    }
                    STAGE_SERVER_DONE => {
                        subs.entry(id)
                            .or_default()
                            .done
                            .push((at, machine_index(r.source())));
                    }
                    _ => {}
                }
            }
            TraceData::LinkHop {
                src_machine,
                dst_machine,
                bytes: _,
                uplink_ns,
                spine_ns,
                downlink_ns,
            } => hops.push(Hop {
                at,
                src: src_machine.into(),
                dst: dst_machine.into(),
                uplink: uplink_ns,
                spine: spine_ns,
                downlink: downlink_ns,
                used: false,
            }),
            _ => {}
        }
    }

    // Chain phase: walk each op backwards through its critical sub.
    let mut out = CritPathReport::default();
    for marks in ops.values() {
        match reconstruct(marks, &subs, &mut hops) {
            Some(op) => out.ops.push(op),
            None if marks.issue.is_some() => out.incomplete += 1,
            None => out.router_only += 1,
        }
    }

    // Percentile rows over ops sorted by end-to-end latency.
    let mut order: Vec<usize> = (0..out.ops.len()).collect();
    order.sort_by_key(|&i| (out.ops[i].total_ns, i));
    if !order.is_empty() {
        let n = order.len();
        for p in [50.0f64, 90.0, 99.0, 99.9] {
            let rank = (((p / 100.0) * n as f64).ceil().max(1.0) as usize - 1).min(n - 1);
            // Band of ±max(1, n/200) neighbors smooths single-op noise.
            let w = (n / 200).max(1);
            let lo = rank.saturating_sub(w);
            let hi = (rank + w + 1).min(n);
            let band = &order[lo..hi];
            let mut segs = [0.0f64; NSEG];
            let mut total = 0.0f64;
            for &i in band {
                total += out.ops[i].total_ns as f64;
                for (s, v) in segs.iter_mut().zip(out.ops[i].segments) {
                    *s += v as f64;
                }
            }
            let k = band.len() as f64;
            segs.iter_mut().for_each(|s| *s /= k);
            total /= k;
            let dom = segs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
                .map(|(i, _)| SEGMENTS[i])
                .unwrap_or(SEGMENTS[0]);
            out.rows.push(PercentileRow {
                percentile: p,
                total_ns: total,
                segments: segs,
                dominant: dom,
            });
        }
    }
    out
}

/// Latest element of `v` at or before `limit`.
fn latest_before(v: &[u64], limit: u64) -> Option<u64> {
    v.iter().copied().filter(|&t| t <= limit).max()
}

fn latest_before_m(v: &[(u64, Option<usize>)], limit: u64) -> Option<(u64, Option<usize>)> {
    v.iter().copied().filter(|&(t, _)| t <= limit).max()
}

fn reconstruct(
    marks: &OpMarks,
    subs: &BTreeMap<u64, SubMarks>,
    hops: &mut [Hop],
) -> Option<OpBreakdown> {
    let issue = marks.issue?;
    let done = marks.done?;
    let recv = marks.router_recv?;
    let respond = marks.respond?;
    // Critical sub: the ack that gated the response (latest ack ≤ respond).
    let (ack_at, sub_id) = marks
        .acks
        .iter()
        .copied()
        .filter(|&(t, _)| t <= respond)
        .max()?;
    let sub = subs.get(&sub_id)?;
    let (srv_done, srv_done_m) = latest_before_m(&sub.done, ack_at)?;
    let (srv_recv, srv_recv_m) = latest_before_m(&sub.recv, srv_done)?;
    let sent = latest_before(&sub.sent, srv_recv)?;

    let mut seg = [0u64; NSEG];
    seg[0] = recv - issue; // client_queue
    seg[1] = sent - recv; // router_dispatch
                          // Request transit: sent -> srv_recv, split by the matching fabric hop.
    let req_transit = srv_recv - sent;
    let mut crossed = false;
    let (mut up, mut sp, mut dn) = (0u64, 0u64, 0u64);
    if let (Some(home), Some(dst)) = (sub.home, srv_recv_m) {
        if home != dst {
            crossed = true;
            if let Some((u, s, d)) = take_hop(hops, home, dst, sent, srv_recv) {
                up += u;
                sp += s;
                dn += d;
            }
        }
    }
    // Ack transit: srv_done -> ack_at, split likewise (reverse direction).
    let ack_transit = ack_at - srv_done;
    if let (Some(home), Some(src)) = (sub.home, srv_done_m) {
        if home != src {
            crossed = true;
            if let Some((u, s, d)) = take_hop(hops, src, home, srv_done, ack_at) {
                up += u;
                sp += s;
                dn += d;
            }
        }
    }
    let split = up + sp + dn;
    let transit = req_transit + ack_transit;
    // The hop decomposition can never exceed the observed transit window;
    // clip defensively so segments always sum exactly to the total.
    let (up, sp, dn) = if split > transit && split > 0 {
        let scale = |v: u64| ((v as u128 * transit as u128) / split as u128) as u64;
        (scale(up), scale(sp), scale(dn))
    } else {
        (up, sp, dn)
    };
    seg[2] = up;
    seg[3] = sp;
    seg[4] = dn;
    seg[5] = transit - (up + sp + dn); // local_delivery (residual)
    seg[6] = srv_done - srv_recv; // replica_service
    seg[7] = respond - ack_at; // ack_aggregation
    seg[8] = done - respond; // response_delivery

    let total = done - issue;
    debug_assert_eq!(seg.iter().sum::<u64>(), total);
    Some(OpBreakdown {
        total_ns: total,
        segments: seg,
        crossed_fabric: crossed,
    })
}

/// Finds (and consumes) the latest unused fabric hop from `src` to `dst`
/// delivered inside `(after, until]`, returning its timing split.
fn take_hop(
    hops: &mut [Hop],
    src: usize,
    dst: usize,
    after: u64,
    until: u64,
) -> Option<(u64, u64, u64)> {
    let best = hops
        .iter()
        .enumerate()
        .filter(|(_, h)| !h.used && h.src == src && h.dst == dst && h.at > after && h.at <= until)
        .max_by_key(|(i, h)| (h.at, usize::MAX - i))
        .map(|(i, _)| i)?;
    let h = &mut hops[best];
    h.used = true;
    Some((h.uplink, h.spine, h.downlink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CorrId;
    use crate::time::SimTime;

    /// One input record: virtual ns, source, payload.
    type Rec = (u64, &'static str, TraceData);

    fn stage(at: u64, source: &'static str, label: &'static str, id: u64, aux: u64) -> Rec {
        let data = TraceData::Stage {
            stage: label,
            id,
            aux,
        };
        (at, source, data)
    }

    fn hop(at: u64, src: u16, dst: u16, up: u64, sp: u64, dn: u64) -> Rec {
        let data = TraceData::LinkHop {
            src_machine: src,
            dst_machine: dst,
            bytes: 100,
            uplink_ns: up,
            spine_ns: sp,
            downlink_ns: dn,
        };
        (at, "fabric", data)
    }

    fn sink(records: Vec<Rec>) -> TraceSink {
        let mut t = TraceSink::bounded(records.len());
        for (at, source, data) in records {
            let source = t.name(source);
            t.emit_data(SimTime::from_nanos(at), source, CorrId::NONE, data);
        }
        t
    }

    /// One replicated write crossing m0 -> m1 and back; the m1 replica's ack
    /// arrives last and is therefore critical.
    fn rack_op() -> Vec<Rec> {
        let k = op_key(7, 1);
        let sub_fast = 1 << 62 | 100; // served locally on m0
        let sub_slow = 1 << 62 | 101; // served on m1
        vec![
            stage(1_000, "m0/host7", STAGE_CLIENT_ISSUE, k, 0),
            stage(1_400, "m0/kvs.router", STAGE_ROUTER_RECV, k, 0),
            stage(1_600, "m0/kvs.router", STAGE_ROUTER_SUB, sub_fast, k),
            stage(1_650, "m0/kvs.router", STAGE_ROUTER_SUB, sub_slow, k),
            stage(1_900, "m0/kvs.server0", STAGE_SERVER_RECV, sub_fast, 0),
            stage(2_200, "m0/kvs.server0", STAGE_SERVER_DONE, sub_fast, 0),
            stage(2_500, "m0/kvs.router", STAGE_ROUTER_ACK, sub_fast, k),
            hop(3_000, 0, 1, 400, 700, 250), // request hop for sub_slow
            stage(3_200, "m1/kvs.server2", STAGE_SERVER_RECV, sub_slow, 0),
            stage(4_200, "m1/kvs.server2", STAGE_SERVER_DONE, sub_slow, 0),
            hop(5_400, 1, 0, 300, 700, 200), // ack hop
            stage(5_650, "m0/kvs.router", STAGE_ROUTER_ACK, sub_slow, k),
            stage(5_700, "m0/kvs.router", STAGE_ROUTER_RESPOND, k, 0),
            stage(6_000, "m0/host7", STAGE_CLIENT_DONE, k, 0),
        ]
    }

    #[test]
    fn decomposes_one_rack_op() {
        let report = analyze(&sink(rack_op()));
        assert_eq!(report.ops.len(), 1);
        assert_eq!(report.incomplete, 0);
        let op = &report.ops[0];
        assert_eq!(op.total_ns, 5_000);
        assert!(op.crossed_fabric);
        let by: BTreeMap<_, _> = SEGMENTS.iter().copied().zip(op.segments).collect();
        assert_eq!(by["client_queue"], 400);
        assert_eq!(by["router_dispatch"], 250); // recv 1400 -> slow sub 1650
        assert_eq!(by["uplink"], 700); // 400 + 300
        assert_eq!(by["spine"], 1_400); // 700 + 700
        assert_eq!(by["downlink"], 450); // 250 + 200
        assert_eq!(by["replica_service"], 1_000);
        assert_eq!(by["ack_aggregation"], 50);
        assert_eq!(by["response_delivery"], 300);
        // Residual local delivery makes the chain sum exact.
        assert_eq!(op.segments.iter().sum::<u64>(), op.total_ns);
        assert_eq!(report.worst_sum_error(), 0.0);
    }

    #[test]
    fn percentile_rows_name_a_dominant_segment() {
        // 50 copies of the rack op, shifted in time so keys do not collide
        // (different client ports).
        let mut records = Vec::new();
        for i in 0..50u64 {
            for mut r in rack_op() {
                r.0 += i * 100_000;
                if let TraceData::Stage { id, aux, .. } = &mut r.2 {
                    let shift = |v: &mut u64| {
                        if *v >= 1 << 62 {
                            *v += i * 1000; // sub ids stay unique
                        } else if *v != 0 {
                            *v = op_key(7 + i as u32, 1);
                        }
                    };
                    shift(id);
                    shift(aux);
                }
                records.push(r);
            }
        }
        let report = analyze(&sink(records));
        assert_eq!(report.ops.len(), 50);
        assert_eq!(report.rows.len(), 4);
        let p99 = report.row(99.0).unwrap();
        // All ops identical: spine (1400ns) dominates every band.
        assert_eq!(p99.dominant, "spine");
        assert_eq!(report.dominant_at_p99(), Some("spine"));
        assert!((p99.total_ns - 5_000.0).abs() < 1e-6);
        let sum: f64 = p99.segments.iter().sum();
        assert!((sum - p99.total_ns).abs() < 1e-6);
    }

    #[test]
    fn incomplete_ops_are_counted_not_fabricated() {
        let mut records = rack_op();
        records.retain(
            |r| !matches!(r.2, TraceData::Stage { stage, .. } if stage == STAGE_CLIENT_DONE),
        );
        let report = analyze(&sink(records));
        assert_eq!(report.ops.len(), 0);
        assert_eq!((report.incomplete, report.router_only), (1, 0));
        assert!(report.rows.is_empty());
        assert_eq!(report.dominant_at_p99(), None);
    }

    /// An op the router served but no client marked (a preload PUT or a
    /// probe) is a class of its own, not an incomplete one.
    #[test]
    fn router_only_ops_are_not_incomplete() {
        let mut records = rack_op();
        records.retain(
            |r| !matches!(r.2, TraceData::Stage { stage, .. } if stage == STAGE_CLIENT_ISSUE),
        );
        let report = analyze(&sink(records));
        assert_eq!(report.ops.len(), 0);
        assert_eq!((report.incomplete, report.router_only), (0, 1));
    }

    #[test]
    fn single_machine_op_has_no_fabric_segments() {
        let k = op_key(3, 9);
        let sub = 1 << 62 | 7;
        let records = vec![
            stage(100, "host3", STAGE_CLIENT_ISSUE, k, 0),
            stage(200, "kvs.router", STAGE_ROUTER_RECV, k, 0),
            stage(250, "kvs.router", STAGE_ROUTER_SUB, sub, k),
            stage(400, "kvs.server0", STAGE_SERVER_RECV, sub, 0),
            stage(900, "kvs.server0", STAGE_SERVER_DONE, sub, 0),
            stage(1_000, "kvs.router", STAGE_ROUTER_ACK, sub, k),
            stage(1_010, "kvs.router", STAGE_ROUTER_RESPOND, k, 0),
            stage(1_100, "host3", STAGE_CLIENT_DONE, k, 0),
        ];
        let report = analyze(&sink(records));
        assert_eq!(report.ops.len(), 1);
        let op = &report.ops[0];
        assert!(!op.crossed_fabric);
        assert_eq!(op.total_ns, 1_000);
        let by: BTreeMap<_, _> = SEGMENTS.iter().copied().zip(op.segments).collect();
        assert_eq!(by["uplink"] + by["spine"] + by["downlink"], 0);
        assert_eq!(by["local_delivery"], 150 + 100); // both transits
        assert_eq!(by["replica_service"], 500);
        assert_eq!(op.segments.iter().sum::<u64>(), op.total_ns);
    }

    #[test]
    fn retried_sub_attributes_wait_to_dispatch() {
        // The first send at t=250 got no server.recv; the retry at t=5250
        // reached the server. router_dispatch must absorb the timeout wait.
        let k = op_key(3, 10);
        let sub = 1 << 62 | 8;
        let records = vec![
            stage(100, "host3", STAGE_CLIENT_ISSUE, k, 0),
            stage(200, "kvs.router", STAGE_ROUTER_RECV, k, 0),
            stage(250, "kvs.router", STAGE_ROUTER_SUB, sub, k),
            stage(5_250, "kvs.router", STAGE_ROUTER_SUB, sub, k),
            stage(5_400, "kvs.server1", STAGE_SERVER_RECV, sub, 0),
            stage(5_900, "kvs.server1", STAGE_SERVER_DONE, sub, 0),
            stage(6_000, "kvs.router", STAGE_ROUTER_ACK, sub, k),
            stage(6_010, "kvs.router", STAGE_ROUTER_RESPOND, k, 0),
            stage(6_100, "host3", STAGE_CLIENT_DONE, k, 0),
        ];
        let report = analyze(&sink(records));
        assert_eq!(report.ops.len(), 1);
        let op = &report.ops[0];
        let by: BTreeMap<_, _> = SEGMENTS.iter().copied().zip(op.segments).collect();
        assert_eq!(by["router_dispatch"], 5_050);
        assert_eq!(op.segments.iter().sum::<u64>(), op.total_ns);
    }
}
