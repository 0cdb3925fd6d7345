//! Pluggable rack topologies: flat, leaf-spine, and k-ary fat-tree.
//!
//! Through PR 9 the fabric priced every inter-machine frame against one
//! implicit shape: each machine owns an uplink and a downlink, and all of
//! them meet at a single infinite spine. That hides exactly the effects a
//! 64–128 machine rack is about — oversubscribed uplinks, incast on a hot
//! leaf, path diversity — so this module makes the wiring explicit. A
//! [`Topology`] is a directed graph of links (surfaced read-only as
//! [`LinkStats`]), each with its own line
//! rate (`per_byte_ps`), fixed post-transmission latency, and a
//! `busy`-until cursor that models store-and-forward queuing per link
//! instead of per machine endpoint.
//!
//! **Cost model** (documented for hand-recomputation in docs/TOPOLOGY.md):
//! a frame of `wire` bytes entering the fabric at `t` walks its path link
//! by link. On each link it starts serializing at `max(t, link.busy)`,
//! occupies the link for `wire * per_byte_ps / 1000` ns (integer division,
//! matching [`NetCostModel::serialize`]), then pays the link's fixed
//! latency before reaching the next hop. Every inter-switch hop's latency
//! is the store-and-forward `switch_latency`; the final hop into the
//! destination host pays `propagation` (the end-to-end flight budget, kept
//! on the last hop so a two-hop path prices identically to the historical
//! flat model). Queuing therefore happens where the wire actually is: two
//! flows sharing one leaf→spine link serialize on *that* link and nowhere
//! else.
//!
//! **ECMP.** Where a topology offers several equal-cost paths (spines in a
//! leaf-spine, aggregation/core pairs in a fat-tree), the choice is a pure
//! function of `(src_machine, dst_machine, fabric_seed)` hashed through
//! [`crate::ring::hash64`]. The same pair always takes the same path —
//! per-pair FIFO ordering survives, results are seed-stable, and changing
//! the seed re-rolls the placement without touching any other state.
//!
//! **Oversubscription** (`oversub`, ratio ≥ 1) is modeled where each
//! fabric realizes it physically: a leaf-spine with ratio `O` has
//! `leaf_size / O` spines instead of `leaf_size` (fewer full-rate paths
//! up), and a fat-tree keeps its shape but slows every edge→aggregation
//! uplink by `O` (thinner uplinks). `O = 1` is a full-bisection fabric.
//!
//! [`NetCostModel::serialize`]: lastcpu_net::NetCostModel::serialize

use lastcpu_net::NetCostModel;
use lastcpu_sim::{SimDuration, SimTime};
use lastcpu_snap::SnapWriter;

use crate::ring::hash64;

/// Which graph the fabric wires between machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoKind {
    /// The historical single-spine shape: every machine owns one uplink
    /// (latency = `switch_latency`) and one downlink (latency =
    /// `propagation`); all paths are two hops. Bit-identical to the
    /// pre-topology fabric.
    Flat,
    /// Machines grouped into leaves of `leaf_size`; every leaf connects to
    /// every spine. Cross-leaf paths are four hops
    /// (host→leaf→spine→leaf→host) with ECMP across spines.
    LeafSpine {
        /// Machines per leaf switch (≥ 1).
        leaf_size: u32,
    },
    /// A k-ary fat-tree: `k` pods of `k/2` edge + `k/2` aggregation
    /// switches, `(k/2)²` cores, `k³/4` host capacity. `k = 0` picks the
    /// smallest even `k` whose capacity fits the machine count.
    FatTree {
        /// Tree arity (even, ≥ 2), or 0 for automatic sizing.
        k: u32,
    },
}

/// Topology selection plus the oversubscription knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyConfig {
    /// The wiring graph.
    pub kind: TopoKind,
    /// Oversubscription ratio (≥ 1); see the module docs for how each
    /// topology realizes it. Ignored by [`TopoKind::Flat`].
    pub oversub: u64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            kind: TopoKind::Flat,
            oversub: 1,
        }
    }
}

impl TopoKind {
    /// Canonical name: `"flat"`, `"leaf-spine"`, or `"fat-tree"`.
    pub fn name(&self) -> &'static str {
        match self {
            TopoKind::Flat => "flat",
            TopoKind::LeafSpine { .. } => "leaf-spine",
            TopoKind::FatTree { .. } => "fat-tree",
        }
    }

    /// Parses `"flat"`, `"leaf-spine"`, `"leaf-spine:<leaf_size>"`,
    /// `"fat-tree"`, or `"fat-tree:<k>"`.
    pub fn parse(s: &str) -> Result<TopoKind, String> {
        let (head, arg) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        let num = |what: &str| -> Result<u32, String> {
            arg.unwrap()
                .parse::<u32>()
                .map_err(|_| format!("bad {what} in topology spec {s:?}"))
        };
        match (head, arg) {
            ("flat", None) => Ok(TopoKind::Flat),
            ("flat", Some(_)) => Err(format!("flat takes no parameter: {s:?}")),
            ("leaf-spine", None) => Ok(TopoKind::LeafSpine {
                leaf_size: DEFAULT_LEAF_SIZE,
            }),
            ("leaf-spine", Some(_)) => {
                let leaf_size = num("leaf size")?;
                if leaf_size == 0 {
                    return Err("leaf-spine leaf size must be ≥ 1".into());
                }
                Ok(TopoKind::LeafSpine { leaf_size })
            }
            ("fat-tree", None) | ("fat-tree", Some("auto")) => Ok(TopoKind::FatTree { k: 0 }),
            ("fat-tree", Some(_)) => {
                let k = num("k")?;
                if k != 0 && (k < 2 || k % 2 != 0) {
                    return Err(format!("fat-tree k must be even and ≥ 2 (got {k})"));
                }
                Ok(TopoKind::FatTree { k })
            }
            _ => Err(format!(
                "unknown topology {s:?} (want flat | leaf-spine[:leaf_size] | fat-tree[:k])"
            )),
        }
    }
}

impl std::fmt::Display for TopoKind {
    /// The fully parameterized spec (`"leaf-spine:8"`, `"fat-tree:auto"`)
    /// rather than the bare [`TopoKind::name`] — what BENCH_e10.json cells
    /// record, so a reviewer can rebuild the exact graph from the cell
    /// alone. Round-trips through [`TopoKind::parse`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopoKind::Flat => f.write_str("flat"),
            TopoKind::LeafSpine { leaf_size } => write!(f, "leaf-spine:{leaf_size}"),
            TopoKind::FatTree { k: 0 } => f.write_str("fat-tree:auto"),
            TopoKind::FatTree { k } => write!(f, "fat-tree:{k}"),
        }
    }
}

/// Default machines-per-leaf for `"leaf-spine"` with no explicit size.
pub const DEFAULT_LEAF_SIZE: u32 = 8;

/// One directed link: static wire parameters plus per-link queuing state
/// and traffic accounting.
#[derive(Debug, Clone)]
struct Link {
    /// `"m3->leaf0"`, `"leaf0->spine1"`, `"a1.0->c2"`, … (see
    /// docs/TOPOLOGY.md for the naming scheme).
    name: String,
    /// Serialization cost in picoseconds per byte.
    per_byte_ps: u64,
    /// Fixed latency paid after a frame finishes serializing.
    latency: SimDuration,
    /// When the link finishes its current frame (store-and-forward queue).
    busy: SimTime,
    /// Total nanoseconds this link spent transmitting (utilization
    /// numerator: `busy_ns / elapsed_virtual_ns`).
    busy_ns: u64,
    /// Wire bytes carried.
    bytes: u64,
    /// Frames carried.
    frames: u64,
}

impl Link {
    fn new(name: String, per_byte_ps: u64, latency: SimDuration) -> Link {
        Link {
            name,
            per_byte_ps,
            latency,
            busy: SimTime::ZERO,
            busy_ns: 0,
            bytes: 0,
            frames: 0,
        }
    }
}

/// Read-only view of one link's parameters and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStats<'a> {
    /// Link name (stable across runs; see docs/TOPOLOGY.md).
    pub name: &'a str,
    /// Serialization cost in ps/byte.
    pub per_byte_ps: u64,
    /// Fixed post-transmission latency.
    pub latency: SimDuration,
    /// Nanoseconds spent transmitting.
    pub busy_ns: u64,
    /// Wire bytes carried.
    pub bytes: u64,
    /// Frames carried.
    pub frames: u64,
}

/// A frame's computed crossing: delivery time plus the three-way stage
/// split the E12 analyzer attributes (first-hop queue+tx, last-hop
/// queue+tx, everything in between). The three `_ns` stages sum exactly to
/// `deliver - entry`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transit {
    /// When the frame enters the destination machine's edge switch.
    pub deliver: SimTime,
    /// First hop (source uplink) queue + transmission.
    pub uplink_ns: u64,
    /// Middle hops and all fixed latencies.
    pub spine_ns: u64,
    /// Last hop (destination downlink) queue + transmission.
    pub downlink_ns: u64,
}

/// A built topology: the link graph plus one precomputed path per
/// `(src, dst)` machine pair, so crossing the fabric is a table lookup
/// instead of a graph walk.
#[derive(Debug, Clone)]
pub struct Topology {
    cfg: TopologyConfig,
    machines: usize,
    links: Vec<Link>,
    /// Flattened per-pair paths: pair `(s, d)` owns
    /// `path_links[path_off[s*machines+d] .. path_off[s*machines+d+1]]`.
    path_off: Vec<u32>,
    path_links: Vec<u32>,
    /// Fat-tree arity actually used (after auto-sizing), if applicable.
    fat_tree_k: Option<u32>,
}

impl Topology {
    /// Builds the link graph and the per-pair path table for `machines`
    /// machines. `seed` feeds ECMP path selection; `cost` supplies the
    /// base line rate and latency budget.
    pub fn build(
        cfg: &TopologyConfig,
        cost: &NetCostModel,
        machines: usize,
        seed: u64,
    ) -> Topology {
        let oversub = cfg.oversub.max(1);
        let mut b = Builder {
            cost,
            seed,
            machines,
            links: Vec::new(),
            path_off: Vec::with_capacity(machines * machines + 1),
            path_links: Vec::new(),
        };
        b.path_off.push(0);
        let fat_tree_k = match cfg.kind {
            TopoKind::Flat => {
                b.build_flat();
                None
            }
            TopoKind::LeafSpine { leaf_size } => {
                b.build_leaf_spine(leaf_size.max(1) as usize, oversub);
                None
            }
            TopoKind::FatTree { k } => Some(b.build_fat_tree(k, oversub)),
        };
        Topology {
            cfg: TopologyConfig { oversub, ..*cfg },
            machines,
            links: b.links,
            path_off: b.path_off,
            path_links: b.path_links,
            fat_tree_k,
        }
    }

    /// The configuration the topology was built from (oversub clamped ≥ 1).
    pub fn config(&self) -> &TopologyConfig {
        &self.cfg
    }

    /// Machines the path table covers.
    pub fn num_machines(&self) -> usize {
        self.machines
    }

    /// Directed links in the graph.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The fat-tree arity in use (after auto-sizing), if this is one.
    pub fn fat_tree_k(&self) -> Option<u32> {
        self.fat_tree_k
    }

    /// The link-index path for `src → dst`.
    pub fn path(&self, src: usize, dst: usize) -> &[u32] {
        let p = src * self.machines + dst;
        let lo = self.path_off[p] as usize;
        let hi = self.path_off[p + 1] as usize;
        &self.path_links[lo..hi]
    }

    /// One link's parameters and counters.
    pub fn link(&self, id: u32) -> LinkStats<'_> {
        let l = &self.links[id as usize];
        LinkStats {
            name: &l.name,
            per_byte_ps: l.per_byte_ps,
            latency: l.latency,
            busy_ns: l.busy_ns,
            bytes: l.bytes,
            frames: l.frames,
        }
    }

    /// All links, in stable build order.
    pub fn links(&self) -> impl Iterator<Item = LinkStats<'_>> {
        (0..self.links.len()).map(|i| self.link(i as u32))
    }

    /// Walks `wire` bytes entering at `at` across the `src → dst` path,
    /// queuing on every link, and returns the delivery time plus the
    /// attribution split. Mutates per-link `busy` cursors and counters.
    pub fn transit(&mut self, src: usize, dst: usize, wire: u64, at: SimTime) -> Transit {
        let p = src * self.machines + dst;
        let lo = self.path_off[p] as usize;
        let hi = self.path_off[p + 1] as usize;
        debug_assert!(hi > lo, "every machine pair has a path");
        let mut t = at;
        let mut first_done = at;
        let mut last_in = at;
        let mut last_done = at;
        for i in lo..hi {
            let li = self.path_links[i] as usize;
            let link = &mut self.links[li];
            let tx = SimDuration::from_nanos(wire.saturating_mul(link.per_byte_ps) / 1000);
            let start = link.busy.max(t);
            let done = start + tx;
            link.busy = done;
            link.busy_ns += tx.as_nanos();
            link.bytes += wire;
            link.frames += 1;
            if i == lo {
                first_done = done;
            }
            if i == hi - 1 {
                last_in = t;
                last_done = done;
            }
            t = done + link.latency;
        }
        let deliver = t;
        let uplink_ns = first_done.as_nanos() - at.as_nanos();
        let downlink_ns = if hi - lo >= 2 {
            last_done.as_nanos() - last_in.as_nanos()
        } else {
            0
        };
        let total = deliver.as_nanos() - at.as_nanos();
        Transit {
            deliver,
            uplink_ns,
            spine_ns: total - uplink_ns - downlink_ns,
            downlink_ns,
        }
    }

    /// Serializes the dynamic per-link state (queue cursors + counters)
    /// into a checkpoint section. The graph itself is rebuilt from the
    /// configuration, so only mutable state is written.
    pub fn snapshot_state(&self, w: &mut SnapWriter) {
        w.put_len(self.links.len());
        for l in &self.links {
            w.put_u64(l.busy.as_nanos());
            w.put_u64(l.busy_ns);
            w.put_u64(l.bytes);
            w.put_u64(l.frames);
        }
    }
}

/// Build-time scratch: link allocation plus path emission.
struct Builder<'a> {
    cost: &'a NetCostModel,
    seed: u64,
    machines: usize,
    links: Vec<Link>,
    path_off: Vec<u32>,
    path_links: Vec<u32>,
}

impl Builder<'_> {
    fn add_link(&mut self, name: String, per_byte_ps: u64, latency: SimDuration) -> u32 {
        let id = self.links.len() as u32;
        self.links.push(Link::new(name, per_byte_ps, latency));
        id
    }

    fn push_path(&mut self, links: &[u32]) {
        self.path_links.extend_from_slice(links);
        self.path_off.push(self.path_links.len() as u32);
    }

    /// Deterministic ECMP pick: a pure function of the machine pair and
    /// the fabric seed, avalanche-hashed so consecutive pairs spread.
    fn ecmp(&self, src: usize, dst: usize, choices: usize) -> usize {
        debug_assert!(choices >= 1);
        let mut key = [0u8; 24];
        key[..8].copy_from_slice(&(src as u64).to_le_bytes());
        key[8..16].copy_from_slice(&(dst as u64).to_le_bytes());
        key[16..].copy_from_slice(&self.seed.to_le_bytes());
        (hash64(&key) % choices as u64) as usize
    }

    /// The historical shape: per-machine uplink/downlink meeting at one
    /// implicit spine. Priced identically to the pre-topology fabric.
    // The pair-matrix loops below iterate machine *indices*, which are the
    // semantic objects (they pick leaves, pods, and hash inputs), not mere
    // cursors into one slice.
    #[allow(clippy::needless_range_loop)]
    fn build_flat(&mut self) {
        let rate = self.cost.per_byte_ps;
        let ups: Vec<u32> = (0..self.machines)
            .map(|m| self.add_link(format!("m{m}.up"), rate, self.cost.switch_latency))
            .collect();
        let downs: Vec<u32> = (0..self.machines)
            .map(|m| self.add_link(format!("m{m}.down"), rate, self.cost.propagation))
            .collect();
        for s in 0..self.machines {
            for d in 0..self.machines {
                self.push_path(&[ups[s], downs[d]]);
            }
        }
    }

    /// Leaves of `leaf_size` machines, `max(1, leaf_size / oversub)`
    /// spines, every leaf wired to every spine.
    #[allow(clippy::needless_range_loop)]
    fn build_leaf_spine(&mut self, leaf_size: usize, oversub: u64) {
        let rate = self.cost.per_byte_ps;
        let sw = self.cost.switch_latency;
        let leaves = self.machines.div_ceil(leaf_size).max(1);
        let spines = (leaf_size as u64 / oversub).max(1) as usize;
        let hup: Vec<u32> = (0..self.machines)
            .map(|m| self.add_link(format!("m{m}->leaf{}", m / leaf_size), rate, sw))
            .collect();
        let hdown: Vec<u32> = (0..self.machines)
            .map(|m| {
                self.add_link(
                    format!("leaf{}->m{m}", m / leaf_size),
                    rate,
                    self.cost.propagation,
                )
            })
            .collect();
        // lup[l * spines + s], ldown likewise.
        let mut lup = Vec::with_capacity(leaves * spines);
        let mut ldown = Vec::with_capacity(leaves * spines);
        for l in 0..leaves {
            for s in 0..spines {
                lup.push(self.add_link(format!("leaf{l}->spine{s}"), rate, sw));
            }
        }
        for l in 0..leaves {
            for s in 0..spines {
                ldown.push(self.add_link(format!("spine{s}->leaf{l}"), rate, sw));
            }
        }
        for s in 0..self.machines {
            for d in 0..self.machines {
                let (ls, ld) = (s / leaf_size, d / leaf_size);
                if ls == ld {
                    self.push_path(&[hup[s], hdown[d]]);
                } else {
                    let sp = self.ecmp(s, d, spines);
                    self.push_path(&[
                        hup[s],
                        lup[ls * spines + sp],
                        ldown[ld * spines + sp],
                        hdown[d],
                    ]);
                }
            }
        }
    }

    /// A k-ary fat-tree; `k = 0` auto-sizes to the smallest even arity
    /// whose `k³/4` host capacity fits. Oversubscription slows edge→agg
    /// uplinks by the ratio. Returns the arity used.
    #[allow(clippy::needless_range_loop)]
    fn build_fat_tree(&mut self, k: u32, oversub: u64) -> u32 {
        let k = if k != 0 {
            k as usize
        } else {
            let mut k = 2;
            while k * k * k / 4 < self.machines.max(1) {
                k += 2;
            }
            k
        };
        assert!(
            k % 2 == 0 && k >= 2,
            "fat-tree arity must be even and ≥ 2 (got {k})"
        );
        assert!(
            k * k * k / 4 >= self.machines,
            "fat-tree k={k} holds {} hosts < {} machines",
            k * k * k / 4,
            self.machines
        );
        let half = k / 2; // edge/agg switches per pod; hosts per edge
        let per_pod = half * half; // hosts per pod
        let rate = self.cost.per_byte_ps;
        let up_rate = rate.saturating_mul(oversub); // thinner edge→agg wires
        let sw = self.cost.switch_latency;
        let pod_of = |m: usize| m / per_pod;
        let edge_of = |m: usize| (m % per_pod) / half;
        let hup: Vec<u32> = (0..self.machines)
            .map(|m| self.add_link(format!("m{m}->e{}.{}", pod_of(m), edge_of(m)), rate, sw))
            .collect();
        let hdown: Vec<u32> = (0..self.machines)
            .map(|m| {
                self.add_link(
                    format!("e{}.{}->m{m}", pod_of(m), edge_of(m)),
                    rate,
                    self.cost.propagation,
                )
            })
            .collect();
        // eup[((p * half) + e) * half + j]: edge e in pod p → agg j in pod p.
        let mut eup = Vec::with_capacity(k * per_pod);
        let mut edown = Vec::with_capacity(k * per_pod);
        for p in 0..k {
            for e in 0..half {
                for j in 0..half {
                    eup.push(self.add_link(format!("e{p}.{e}->a{p}.{j}"), up_rate, sw));
                }
            }
        }
        for p in 0..k {
            for e in 0..half {
                for j in 0..half {
                    edown.push(self.add_link(format!("a{p}.{j}->e{p}.{e}"), rate, sw));
                }
            }
        }
        // Core c ∈ 0..half² connects to agg j = c / half in every pod.
        // aup[(p * half + j) * half + c2]: agg j in pod p → core j*half+c2.
        let mut aup = Vec::with_capacity(k * per_pod);
        let mut adown = Vec::with_capacity(k * per_pod);
        for p in 0..k {
            for j in 0..half {
                for c2 in 0..half {
                    let c = j * half + c2;
                    aup.push(self.add_link(format!("a{p}.{j}->c{c}"), rate, sw));
                }
            }
        }
        for p in 0..k {
            for j in 0..half {
                for c2 in 0..half {
                    let c = j * half + c2;
                    adown.push(self.add_link(format!("c{c}->a{p}.{j}"), rate, sw));
                }
            }
        }
        for s in 0..self.machines {
            for d in 0..self.machines {
                let (ps, pd) = (pod_of(s), pod_of(d));
                let (es, ed) = (edge_of(s), edge_of(d));
                if ps == pd && es == ed {
                    self.push_path(&[hup[s], hdown[d]]);
                } else if ps == pd {
                    let j = self.ecmp(s, d, half);
                    self.push_path(&[
                        hup[s],
                        eup[(ps * half + es) * half + j],
                        edown[(pd * half + ed) * half + j],
                        hdown[d],
                    ]);
                } else {
                    let c = self.ecmp(s, d, half * half);
                    let (j, c2) = (c / half, c % half);
                    self.push_path(&[
                        hup[s],
                        eup[(ps * half + es) * half + j],
                        aup[(ps * half + j) * half + c2],
                        adown[(pd * half + j) * half + c2],
                        edown[(pd * half + ed) * half + j],
                        hdown[d],
                    ]);
                }
            }
        }
        k as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> NetCostModel {
        NetCostModel {
            per_byte_ps: 40,
            switch_latency: SimDuration::from_nanos(600),
            propagation: SimDuration::from_micros(2),
        }
    }

    fn build(kind: TopoKind, oversub: u64, machines: usize) -> Topology {
        Topology::build(&TopologyConfig { kind, oversub }, &cost(), machines, 0xFAB)
    }

    #[test]
    fn flat_prices_like_the_historical_model() {
        // One frame, idle links: tx + switch + tx + prop, split exactly as
        // the pre-topology fabric attributed it.
        let mut t = build(TopoKind::Flat, 1, 4);
        let wire = 82u64;
        let tx = cost().serialize(wire);
        let tr = t.transit(0, 3, wire, SimTime::from_nanos(1_000));
        assert_eq!(tr.uplink_ns, tx.as_nanos());
        assert_eq!(tr.downlink_ns, tx.as_nanos());
        assert_eq!(tr.spine_ns, 600 + 2_000);
        assert_eq!(
            tr.deliver.as_nanos(),
            1_000 + 2 * tx.as_nanos() + 600 + 2_000
        );
    }

    #[test]
    fn flat_queues_on_the_shared_uplink() {
        let mut t = build(TopoKind::Flat, 1, 3);
        let at = SimTime::from_nanos(0);
        let a = t.transit(0, 1, 9_018, at);
        let b = t.transit(0, 2, 9_018, at);
        // Second frame starts serializing only when the uplink frees.
        assert_eq!(
            b.deliver.as_nanos() - a.deliver.as_nanos(),
            cost().serialize(9_018).as_nanos()
        );
    }

    #[test]
    fn leaf_spine_cross_leaf_is_four_hops() {
        let t = build(TopoKind::LeafSpine { leaf_size: 4 }, 1, 8);
        assert_eq!(t.path(0, 1).len(), 2, "same leaf: host up + host down");
        assert_eq!(t.path(0, 7).len(), 4, "cross leaf: via a spine");
        // 8 machines, leaves of 4, full bisection: 4 spines.
        // links: 8 hup + 8 hdown + 2*4 lup + 2*4 ldown = 32.
        assert_eq!(t.num_links(), 32);
    }

    #[test]
    fn leaf_spine_oversub_removes_spines() {
        let t1 = build(TopoKind::LeafSpine { leaf_size: 8 }, 1, 16);
        let t4 = build(TopoKind::LeafSpine { leaf_size: 8 }, 4, 16);
        assert!(t4.num_links() < t1.num_links());
        // leaf_size 8 / oversub 4 = 2 spines.
        assert_eq!(t4.num_links(), 16 + 16 + 2 * 2 + 2 * 2);
    }

    #[test]
    fn ecmp_is_seed_stable_and_pair_stable() {
        let a = build(TopoKind::LeafSpine { leaf_size: 8 }, 1, 64);
        let b = build(TopoKind::LeafSpine { leaf_size: 8 }, 1, 64);
        for s in 0..64 {
            for d in 0..64 {
                assert_eq!(a.path(s, d), b.path(s, d));
            }
        }
        // A different seed re-rolls at least one placement.
        let c = Topology::build(
            &TopologyConfig {
                kind: TopoKind::LeafSpine { leaf_size: 8 },
                oversub: 1,
            },
            &cost(),
            64,
            0xDEAD_BEEF,
        );
        assert!((0..64).any(|s| (0..64).any(|d| a.path(s, d) != c.path(s, d))));
    }

    #[test]
    fn fat_tree_auto_sizes() {
        for (m, want_k) in [
            (2usize, 2u32),
            (8, 4),
            (16, 4),
            (32, 6),
            (54, 6),
            (64, 8),
            (128, 8),
        ] {
            let t = build(TopoKind::FatTree { k: 0 }, 1, m);
            assert_eq!(t.fat_tree_k(), Some(want_k), "machines = {m}");
        }
    }

    #[test]
    fn fat_tree_path_lengths() {
        // k=4: 4 hosts per pod, 2 per edge.
        let t = build(TopoKind::FatTree { k: 4 }, 1, 16);
        assert_eq!(t.path(0, 1).len(), 2, "same edge");
        assert_eq!(t.path(0, 2).len(), 4, "same pod, different edge");
        assert_eq!(t.path(0, 15).len(), 6, "cross pod");
    }

    #[test]
    fn shortest_path_latency_is_the_two_hop_budget() {
        for kind in [
            TopoKind::Flat,
            TopoKind::LeafSpine { leaf_size: 4 },
            TopoKind::FatTree { k: 0 },
        ] {
            let t = build(kind, 1, 8);
            let latency = |(s, d)| -> u64 {
                let hops = t.path(s, d).iter();
                hops.map(|&l| t.link(l).latency.as_nanos()).sum()
            };
            let pairs = (0..8).flat_map(|s| (0..8).map(move |d| (s, d)));
            let shortest = pairs.filter(|(s, d)| s != d).map(latency).min();
            assert_eq!(
                shortest,
                Some((cost().switch_latency + cost().propagation).as_nanos()),
                "{kind}"
            );
        }
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(TopoKind::parse("flat").unwrap(), TopoKind::Flat);
        assert_eq!(
            TopoKind::parse("leaf-spine").unwrap(),
            TopoKind::LeafSpine { leaf_size: 8 }
        );
        assert_eq!(
            TopoKind::parse("leaf-spine:16").unwrap(),
            TopoKind::LeafSpine { leaf_size: 16 }
        );
        assert_eq!(
            TopoKind::parse("fat-tree").unwrap(),
            TopoKind::FatTree { k: 0 }
        );
        assert_eq!(
            TopoKind::parse("fat-tree:8").unwrap(),
            TopoKind::FatTree { k: 8 }
        );
        assert!(TopoKind::parse("fat-tree:3").is_err());
        assert!(TopoKind::parse("torus").is_err());
        assert!(TopoKind::parse("leaf-spine:0").is_err());
        // Display emits the fully parameterized spec and round-trips.
        for spec in [
            "flat",
            "leaf-spine:8",
            "leaf-spine:16",
            "fat-tree:auto",
            "fat-tree:8",
        ] {
            let kind = TopoKind::parse(spec).unwrap();
            assert_eq!(kind.to_string(), spec);
            assert_eq!(TopoKind::parse(&kind.to_string()).unwrap(), kind);
        }
    }
}
