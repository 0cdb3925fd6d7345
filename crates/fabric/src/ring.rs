//! Consistent-hash ring over named endpoints.
//!
//! The shard router places keys on rack endpoints with a classic
//! virtual-node consistent-hash ring. Determinism matters more here than
//! raw speed — the ring must be identical on every machine that builds it
//! from the same membership, *regardless of the order* endpoints were
//! discovered in — so the ring keeps its member list sorted by name and
//! rebuilds its point table on every membership change (memberships are
//! tiny: a handful of machines times a few services).
//!
//! Hash function: FNV-1a 64 with a 64-bit avalanche finalizer
//! (dependency-free, stable across platforms). Plain FNV-1a is a poor ring
//! hash: workload keys differ only in their trailing digits, and FNV's
//! last-byte mixing leaves such inputs clustered in a tiny arc of the
//! 64-bit space (a 40-key `key000000NN` set spans ~0.02% of the ring and
//! lands on one member). The finalizer (the murmur3/splitmix fmix step)
//! restores avalanche so sequential keys spread uniformly.

use std::sync::Arc;

/// FNV-1a 64-bit hash of `bytes`, finalized for avalanche.
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A consistent-hash ring with virtual nodes.
///
/// Each member contributes `vnodes` points at `hash("{name}#{v}")`; a key
/// owns the first point clockwise from `hash(key)`. [`HashRing::replicas`]
/// continues clockwise collecting *distinct* members, which is how the KVS
/// picks an R-way replica set.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: u32,
    /// Member names, kept sorted (insertion-order independence). Shared
    /// handles: [`HashRing::replicas_into`] hands them out, so a caller that
    /// keeps a member's name per request copies no text.
    nodes: Vec<Arc<str>>,
    /// `(point_hash, index into nodes)`, sorted by `(hash, index)`.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// An empty ring with `vnodes` virtual nodes per member (min 1).
    pub fn new(vnodes: u32) -> Self {
        HashRing {
            vnodes: vnodes.max(1),
            nodes: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Member names, sorted.
    pub fn nodes(&self) -> &[Arc<str>] {
        &self.nodes
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a member; returns false if it was already present.
    pub fn insert(&mut self, name: &str) -> bool {
        match self.nodes.binary_search_by(|n| (**n).cmp(name)) {
            Ok(_) => false,
            Err(pos) => {
                self.nodes.insert(pos, name.into());
                self.rebuild();
                true
            }
        }
    }

    /// Removes a member; returns false if it was absent.
    pub fn remove(&mut self, name: &str) -> bool {
        match self.nodes.binary_search_by(|n| (**n).cmp(name)) {
            Ok(pos) => {
                self.nodes.remove(pos);
                self.rebuild();
                true
            }
            Err(_) => false,
        }
    }

    fn rebuild(&mut self) {
        self.points.clear();
        for (idx, name) in self.nodes.iter().enumerate() {
            for v in 0..self.vnodes {
                let point = hash64(format!("{name}#{v}").as_bytes());
                self.points.push((point, idx));
            }
        }
        self.points.sort_unstable();
    }

    /// The member owning `key`, or `None` if the ring is empty.
    pub fn primary(&self, key: &[u8]) -> Option<&str> {
        self.replicas(key, 1).into_iter().next()
    }

    /// The owner (index into `nodes`) of each point, one lap clockwise from
    /// the first point at or after `hash(key)`.
    fn walk(&self, key: &[u8]) -> impl Iterator<Item = usize> + '_ {
        let h = hash64(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let (before, from) = self.points.split_at(start);
        from.iter().chain(before).map(|&(_, idx)| idx)
    }

    /// Up to `r` distinct members for `key`, clockwise from its hash: the
    /// first entry is the primary, the rest are replicas in fail-over
    /// order.
    pub fn replicas(&self, key: &[u8], r: usize) -> Vec<&str> {
        let want = r.min(self.nodes.len());
        let mut out: Vec<&str> = Vec::new();
        for idx in self.walk(key) {
            if out.len() == want {
                break;
            }
            let name = &*self.nodes[idx];
            if !out.contains(&name) {
                out.push(name);
            }
        }
        out
    }

    /// [`HashRing::replicas`] into a buffer the caller keeps, as the ring's
    /// own name handles: neither the list nor a name is allocated.
    pub fn replicas_into(&self, key: &[u8], r: usize, out: &mut Vec<Arc<str>>) {
        let want = r.min(self.nodes.len());
        out.clear();
        for idx in self.walk(key) {
            if out.len() == want {
                break;
            }
            let name = &self.nodes[idx];
            if !out.iter().any(|o| Arc::ptr_eq(o, name)) {
                out.push(Arc::clone(name));
            }
        }
    }
}

impl lastcpu_snap::Snapshot for HashRing {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u32(self.vnodes);
        // `points` is fully derivable from `nodes`, but serializing it keeps
        // restore recomputation-free and lets verification cover it.
        w.put_len(self.nodes.len());
        for n in &self.nodes {
            w.put_str(n);
        }
        w.put_len(self.points.len());
        for (h, i) in &self.points {
            w.put_u64(*h);
            w.put_len(*i);
        }
    }
}

impl lastcpu_snap::Restore for HashRing {
    fn restore(&mut self, r: &mut lastcpu_snap::SnapReader<'_>) -> lastcpu_snap::Result<()> {
        self.vnodes = r.u32()?;
        let n = r.count()?;
        self.nodes = Vec::with_capacity(n);
        for _ in 0..n {
            self.nodes.push(r.str()?.into());
        }
        let np = r.count()?;
        self.points = Vec::with_capacity(np);
        for _ in 0..np {
            let h = r.u64()?;
            let i = r.len()?;
            if i >= n {
                return Err(r.corrupt(format!("ring point references node {i} of {n}")));
            }
            self.points.push((h, i));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    #[test]
    fn empty_ring_has_no_owner() {
        let ring = HashRing::new(64);
        assert!(ring.primary(b"x").is_none());
        assert!(ring.replicas(b"x", 3).is_empty());
    }

    #[test]
    fn single_node_owns_everything() {
        let mut ring = HashRing::new(64);
        ring.insert("m0/kvs");
        for i in 0..100 {
            assert_eq!(ring.primary(&key(i)), Some("m0/kvs"));
        }
    }

    #[test]
    fn replicas_are_distinct_and_ordered() {
        let mut ring = HashRing::new(64);
        for m in 0..4 {
            ring.insert(&format!("m{m}/kvs"));
        }
        for i in 0..200 {
            let reps = ring.replicas(&key(i), 3);
            assert_eq!(reps.len(), 3);
            let mut uniq = reps.clone();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "replicas must be distinct");
            assert_eq!(reps[0], ring.primary(&key(i)).unwrap());
        }
    }

    #[test]
    fn replicas_into_fills_a_kept_buffer_with_the_same_list() {
        let mut ring = HashRing::new(64);
        let mut buf = vec!["stale".into()];
        for m in 0..5 {
            for r in 0..7 {
                for i in 0..100 {
                    ring.replicas_into(&key(i), r, &mut buf);
                    let names: Vec<&str> = buf.iter().map(|n| &**n).collect();
                    assert_eq!(names, ring.replicas(&key(i), r), "m={m} r={r}");
                }
            }
            ring.insert(&format!("m{m}/kvs"));
        }
    }

    #[test]
    fn replicas_clamped_to_membership() {
        let mut ring = HashRing::new(16);
        ring.insert("a");
        ring.insert("b");
        assert_eq!(ring.replicas(b"k", 5).len(), 2);
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let names = ["m2/kvs", "m0/kvs", "m3/kvs", "m1/kvs"];
        let mut fwd = HashRing::new(64);
        for n in names {
            fwd.insert(n);
        }
        let mut rev = HashRing::new(64);
        for n in names.iter().rev() {
            rev.insert(n);
        }
        for i in 0..500 {
            assert_eq!(fwd.replicas(&key(i), 3), rev.replicas(&key(i), 3));
        }
    }

    #[test]
    fn removal_only_moves_keys_owned_by_the_removed_node() {
        let mut ring = HashRing::new(64);
        for m in 0..5 {
            ring.insert(&format!("m{m}/kvs"));
        }
        let before: Vec<_> = (0..500)
            .map(|i| ring.primary(&key(i)).unwrap().to_string())
            .collect();
        ring.remove("m2/kvs");
        for (i, prev) in before.iter().enumerate() {
            let now = ring.primary(&key(i as u64)).unwrap();
            if prev != "m2/kvs" {
                assert_eq!(now, prev, "key {i} moved although its owner survived");
            } else {
                assert_ne!(now, "m2/kvs");
            }
        }
    }
}
