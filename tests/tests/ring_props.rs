//! Property tests for the fabric's consistent-hash ring (DESIGN.md §10).
//!
//! The shard router leans on three ring invariants:
//!
//! 1. **Determinism**: placement is a pure function of the membership set —
//!    insertion order and the process's hash-map iteration order must not
//!    perturb it (two routers that agree on the directory must agree on
//!    every key).
//! 2. **Balance**: with enough virtual nodes no member owns a grossly
//!    outsized share of a key space.
//! 3. **Minimal disruption**: a join or leave only moves the keys it has
//!    to — on the order of K/N, never a wholesale reshuffle. A leave is
//!    what the router does on a membership change: it rebuilds the ring
//!    from the members that remain.
//!
//! The router builds each ring in one pass ([`HashRing::with_members`]);
//! the tests here build theirs one `insert` at a time, and a differential
//! property holds the two builds equal.

use std::collections::BTreeMap;

use lastcpu_fabric::HashRing;
use lastcpu_snap::Snapshot;
use proptest::prelude::*;

const VNODES: u32 = 64;

/// Membership drawn from a small closed universe (a 16-bit occupancy
/// mask, padded so there are always at least two members).
fn member_names() -> impl Strategy<Value = Vec<String>> {
    (1u16..=u16::MAX).prop_map(|mask| {
        let mut members: Vec<String> = (0..16)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| format!("m{i}"))
            .collect();
        if members.len() < 2 {
            members.push("m16".to_string());
        }
        members
    })
}

fn keys(n: usize) -> Vec<Vec<u8>> {
    // Sequential keys on purpose: the densest-clustering input a client
    // generates, and exactly the shape that exposed the need for an
    // avalanche finalizer on top of FNV-1a.
    (0..n).map(|i| format!("key{i:08}").into_bytes()).collect()
}

fn ring_of(members: &[String]) -> HashRing {
    let mut ring = HashRing::new(VNODES);
    for m in members {
        ring.insert(m);
    }
    ring
}

/// Names in a random order with repeats: `picks` index a universe of
/// `m{i}/kvs` names, so a name drawn twice is a duplicate.
fn shuffled_names() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(0u8..40, 0..48)
        .prop_map(|picks| picks.iter().map(|i| format!("m{i}/kvs")).collect())
}

fn placement(ring: &HashRing, keys: &[Vec<u8>], r: usize) -> Vec<Vec<String>> {
    keys.iter()
        .map(|k| ring.replicas(k, r).into_iter().map(String::from).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Placement depends only on the membership *set*: any insertion order
    /// yields bit-identical replica lists.
    fn placement_is_membership_deterministic(
        members in member_names(),
        perm_seed in 0u64..1000,
        r in 1usize..=3,
    ) {
        let base = ring_of(&members);

        // A cheap seeded Fisher-Yates permutation of the insert order.
        let mut shuffled = members.clone();
        let mut s = perm_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in (1..shuffled.len()).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            shuffled.swap(i, (s as usize) % (i + 1));
        }
        let reordered = ring_of(&shuffled);

        let ks = keys(128);
        prop_assert_eq!(placement(&base, &ks, r), placement(&reordered, &ks, r));
        prop_assert_eq!(base.nodes(), reordered.nodes());
    }

    /// The one-pass build equals `insert` one member at a time, in the
    /// given order, duplicates and all: the same members, the same owners
    /// for every key, and the same snapshot bytes (which hold the point
    /// table itself).
    fn one_pass_build_equals_inserting_one_at_a_time(
        names in shuffled_names(),
        vnodes in 1u32..96,
        r in 1usize..=3,
    ) {
        let mut oracle = HashRing::new(vnodes);
        for n in &names {
            oracle.insert(n);
        }
        let built = HashRing::with_members(vnodes, &names);

        prop_assert_eq!(built.nodes(), oracle.nodes());
        let ks = keys(256);
        prop_assert_eq!(placement(&built, &ks, r), placement(&oracle, &ks, r));
        for k in &ks {
            prop_assert_eq!(built.primary(k), oracle.primary(k));
        }
        prop_assert_eq!(built.snapshot_bytes(), oracle.snapshot_bytes());
    }

    /// With 64 vnodes each member's share of a sequential key space stays
    /// within a loose constant factor of fair: no member is starved, none
    /// owns more than 3x its fair share.
    fn ownership_is_balanced_within_bound(members in member_names()) {
        let ring = ring_of(&members);
        let ks = keys(2048);
        let mut owned: BTreeMap<String, usize> =
            members.iter().map(|m| (m.clone(), 0)).collect();
        for k in &ks {
            *owned.get_mut(ring.primary(k).unwrap()).unwrap() += 1;
        }
        let fair = ks.len() as f64 / members.len() as f64;
        for (m, n) in owned {
            prop_assert!(
                (n as f64) < 3.0 * fair,
                "{m} owns {n}/{} keys ({}x fair share)",
                ks.len(),
                n as f64 / fair
            );
            prop_assert!(n > 0, "{m} owns nothing out of {} keys", ks.len());
        }
    }

    /// A single join or leave relocates only the keys consistent hashing
    /// says it must: about K/N of the primaries, bounded here by
    /// 2.5 * K/(N+1) + slack; every key that does move on a join moves TO
    /// the joiner, and on a leave moves OFF the leaver. The leave rebuilds
    /// the ring from the remaining members, as the router does.
    fn join_and_leave_move_few_keys(
        members in member_names(),
        joiner in 100u8..120,
    ) {
        let joiner = format!("m{joiner}");
        let ks = keys(2048);
        let before = ring_of(&members);
        let mut after = ring_of(&members);
        after.insert(&joiner);

        let n_after = members.len() + 1;
        let budget = (2.5 * ks.len() as f64 / n_after as f64) as usize + 16;

        // Join: moved keys all land on the joiner.
        let mut moved = 0usize;
        for k in &ks {
            let a = before.primary(k).unwrap();
            let b = after.primary(k).unwrap();
            if a != b {
                moved += 1;
                prop_assert_eq!(b, joiner.as_str(), "key moved somewhere other than the joiner");
            }
        }
        prop_assert!(
            moved <= budget,
            "join moved {moved}/{} keys, budget {budget} (N={n_after})",
            ks.len()
        );

        // Leave is the mirror image: the ring rebuilt without the joiner
        // moves only the joiner's keys, and restores the old placement
        // exactly.
        let remaining: Vec<String> = after
            .nodes()
            .iter()
            .filter(|n| ***n != *joiner)
            .map(|n| n.to_string())
            .collect();
        let rebuilt = ring_of(&remaining);
        let mut moved = 0usize;
        for k in &ks {
            let a = after.primary(k).unwrap();
            let b = rebuilt.primary(k).unwrap();
            if a != b {
                moved += 1;
                prop_assert_eq!(a, joiner.as_str(), "key moved off a member that stayed");
            }
        }
        prop_assert!(
            moved <= budget,
            "leave moved {moved}/{} keys, budget {budget} (N={n_after})",
            ks.len()
        );
        prop_assert_eq!(placement(&rebuilt, &ks, 2), placement(&before, &ks, 2));
    }
}
