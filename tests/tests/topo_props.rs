//! Property tests for the fabric topology layer (docs/TOPOLOGY.md).
//!
//! The fabric's determinism and failover contracts lean on four topology
//! invariants:
//!
//! 1. **Connectivity**: every `(src, dst)` machine pair owns a precomputed
//!    path of 2–6 links whose transit delivers strictly after entry, and
//!    whose stage attribution sums exactly to the crossing time (the E12
//!    analyzer's accounting identity).
//! 2. **Seed stability**: ECMP path choice is a pure function of
//!    `(src, dst, seed)` — rebuilding the same topology from the same seed
//!    reproduces every path, which is what keeps replay bit-identical.
//! 3. **Balance**: the ECMP hash spreads pairs across the redundant
//!    middle stage (spines; cores) within a 3x band — no spine or core is
//!    starved or grossly overloaded by the deterministic choice.
//! 4. **Bisection**: a k-ary fat-tree exposes the analytic k^3/8
//!    agg-to-core links out of either half of the pods, so the full-rack
//!    bandwidth claims in BENCH_e10.json are structural, not incidental.

use std::collections::BTreeMap;

use lastcpu_fabric::{TopoKind, Topology, TopologyConfig, Transit};
use lastcpu_net::NetCostModel;
use lastcpu_sim::SimTime;
use proptest::prelude::*;

fn cost() -> NetCostModel {
    NetCostModel::default()
}

fn build(kind: TopoKind, oversub: u64, machines: usize, seed: u64) -> Topology {
    let cfg = TopologyConfig { kind, oversub };
    Topology::build(&cfg, &cost(), machines, seed)
}

/// Both kinds, weighted evenly; fat-tree auto-sizes (`k = 0`). A leaf-spine
/// whose rack fits in one leaf is the single-switch fabric.
fn any_kind() -> impl Strategy<Value = TopoKind> {
    (0u8..2, 1u32..=8).prop_map(|(sel, leaf)| match sel {
        0 => TopoKind::LeafSpine { leaf_size: leaf },
        _ => TopoKind::FatTree { k: 0 },
    })
}

/// Sends one 128-byte frame `src → dst` across `topo`; returns the transit
/// and the links it crossed, read off the per-link frame counters.
fn cross(topo: &mut Topology, src: usize, dst: usize, at: SimTime) -> (Transit, Vec<u32>) {
    let before: Vec<u64> = topo.links().map(|l| l.frames).collect();
    let t = topo.transit(src, dst, 128, at);
    let hops = topo.links().zip(before).enumerate();
    let path = hops
        .filter(|(_, (l, b))| l.frames > *b)
        .map(|(i, _)| i as u32);
    (t, path.collect())
}

/// Name of the middle-stage element a cross-traffic path rides: the spine
/// (`leaf{l}->spine{s}` hop) or the core (`a{p}.{j}->c{c}` hop).
fn middle_hop_name(topo: &mut Topology, src: usize, dst: usize) -> Option<String> {
    for li in cross(topo, src, dst, SimTime::ZERO).1 {
        let name = topo.link(li).name;
        if let Some(rest) = name.split("->").nth(1) {
            if rest.starts_with("spine") || rest.starts_with('c') {
                return Some(rest.to_string());
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every machine pair — including `(m, m)`, which the fabric never
    /// forwards but the path table still covers — has a 2–6 link path, and
    /// a transit over it delivers after entry with the three-stage split
    /// summing exactly to the crossing.
    fn every_pair_has_a_priced_path(
        kind in any_kind(),
        oversub in 1u64..=4,
        machines in 1usize..=66,
        seed in 0u64..1_000_000,
    ) {
        let mut topo = build(kind, oversub, machines, seed);
        for s in 0..machines {
            for d in 0..machines {
                let at = SimTime::from_nanos(1_000);
                let (t, path) = cross(&mut topo, s, d, at);
                let len = path.len();
                prop_assert!(
                    (2..=6).contains(&len),
                    "{kind:?} pair ({s},{d}): path of {len} links"
                );
                prop_assert!(t.deliver > at, "transit must cost time");
                prop_assert_eq!(
                    t.uplink_ns + t.spine_ns + t.downlink_ns,
                    t.deliver.since(at).as_nanos(),
                    "stage split must sum to the crossing"
                );
            }
        }
    }

    /// ECMP is seed-stable: the same `(kind, machines, seed)` rebuild picks
    /// the identical path for every pair.
    fn ecmp_paths_are_seed_stable(
        kind in any_kind(),
        machines in 2usize..=66,
        seed in 0u64..1_000_000,
    ) {
        let mut a = build(kind, 1, machines, seed);
        let mut b = build(kind, 1, machines, seed);
        for s in 0..machines {
            for d in 0..machines {
                prop_assert_eq!(
                    cross(&mut a, s, d, SimTime::ZERO).1,
                    cross(&mut b, s, d, SimTime::ZERO).1,
                    "pair ({s},{d}) chose different paths on rebuild"
                );
            }
        }
    }
}

/// Counts how many cross-traffic pairs ride each middle-stage element and
/// asserts every element is used and the spread stays within `band`x.
fn assert_balanced(topo: &mut Topology, machines: usize, expected_elems: usize, band: u64) {
    let mut per_elem: BTreeMap<String, u64> = BTreeMap::new();
    for s in 0..machines {
        for d in 0..machines {
            if let Some(elem) = middle_hop_name(topo, s, d) {
                *per_elem.entry(elem).or_insert(0) += 1;
            }
        }
    }
    assert_eq!(
        per_elem.len(),
        expected_elems,
        "every middle-stage element must carry traffic: {per_elem:?}"
    );
    let max = *per_elem.values().max().unwrap();
    let min = *per_elem.values().min().unwrap();
    assert!(
        max <= band * min,
        "ECMP imbalance beyond {band}x: min {min}, max {max} ({per_elem:?})"
    );
}

#[test]
fn leaf_spine_ecmp_balances_within_3x() {
    // 64 machines in 8 leaves of 8; oversub 1 keeps 8 spines. The 3584
    // cross-leaf pairs should land ~448 per spine; a 3x band is loose
    // enough for a hash yet tight enough to catch a degenerate mix.
    for seed in [7u64, 0xE10, 1984] {
        let mut topo = build(TopoKind::LeafSpine { leaf_size: 8 }, 1, 64, seed);
        assert_balanced(&mut topo, 64, 8, 3);
    }
}

#[test]
fn fat_tree_ecmp_balances_within_3x() {
    // 128 machines auto-size to k = 8: 16 cores, 6912 cross-pod pairs,
    // ~432 per core.
    for seed in [7u64, 0xE10, 1984] {
        let mut topo = build(TopoKind::FatTree { k: 0 }, 1, 128, seed);
        assert_balanced(&mut topo, 128, 16, 3);
    }
}

#[test]
fn different_seeds_perturb_ecmp_choices() {
    // Not a tautology check: with 3584 cross-leaf pairs over 8 spines, two
    // seeds agreeing on every pair would mean the seed never reaches the
    // hash. (Fixed seeds keep this deterministic.)
    let mut a = build(TopoKind::LeafSpine { leaf_size: 8 }, 1, 64, 7);
    let mut b = build(TopoKind::LeafSpine { leaf_size: 8 }, 1, 64, 8);
    let diverged = (0..64)
        .flat_map(|s| (0..64).map(move |d| (s, d)))
        .any(|(s, d)| cross(&mut a, s, d, SimTime::ZERO).1 != cross(&mut b, s, d, SimTime::ZERO).1);
    assert!(diverged, "seed is dead weight in the ECMP hash");
}

#[test]
fn fat_tree_bisection_matches_analytic_value() {
    // Cutting a k-ary fat-tree between pod halves severs exactly the
    // agg->core links rising from k/2 pods: (k/2 pods) x (k/2 aggs) x
    // (k/2 uplinks) = k^3/8. Count them off the built link list by name
    // ("a{p}.{j}->c{c}" with p < k/2).
    for k in [4u32, 6, 8] {
        let hosts = (k * k * k / 4) as usize;
        let topo = build(TopoKind::FatTree { k }, 1, hosts, 7);
        let cut = topo
            .links()
            .filter(|l| {
                let Some(rest) = l.name.strip_prefix('a') else {
                    return false;
                };
                let Some((pod, tail)) = rest.split_once('.') else {
                    return false;
                };
                tail.contains("->c") && pod.parse::<u32>().is_ok_and(|p| p < k / 2)
            })
            .count();
        assert_eq!(
            cut as u32,
            k * k * k / 8,
            "k={k}: bisection links off by {}",
            cut as i64 - (k * k * k / 8) as i64
        );
    }
}
