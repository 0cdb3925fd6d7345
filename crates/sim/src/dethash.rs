//! Deterministic hashing for simulation state.
//!
//! `std::collections::HashMap` seeds its hasher per process
//! (`RandomState`), which is fine for semantics — every map in the
//! simulator is either iterated in sorted order or not iterated at all —
//! but it leaks into *allocation counts*: hashbrown decides
//! tombstone-vs-empty on removal and rehash-vs-resize on insert based on
//! where keys land, so two same-seed runs in different processes can
//! differ by a handful of table reallocations. That is invisible to
//! normal metrics and fatal to the E12 attribution gate, which requires
//! same-seed runs to be byte-identical *including* per-scope allocation
//! counts.
//!
//! [`DetHashMap`] replaces the random seed with FNV-1a,
//! making table growth a pure function of the key sequence. Use them for
//! all simulator state; keep `std` maps only in host-side tooling where
//! reproducible allocation behavior does not matter. FNV is not
//! HashDoS-resistant, which is irrelevant here: every key is produced by
//! the deterministic simulation itself, never by an adversary with
//! influence over hash seeds (the E11 adversary manipulates bus traffic,
//! not host hash tables).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit FNV-1a. Small, allocation-free, and — unlike `RandomState` —
/// identical in every process.
#[derive(Debug, Clone)]
pub struct DetHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for DetHasher {
    fn default() -> Self {
        DetHasher(FNV_OFFSET)
    }
}

impl Hasher for DetHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The deterministic `BuildHasher` behind [`DetHashMap`].
pub type DetBuildHasher = BuildHasherDefault<DetHasher>;

/// A `HashMap` whose allocation pattern is a pure function of the key
/// sequence (no per-process seed).
pub type DetHashMap<K, V> = HashMap<K, V, DetBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn fnv1a_known_answers() {
        // Reference vectors for 64-bit FNV-1a.
        let hash = |bytes: &[u8]| {
            let mut h = DetHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn build_hasher_is_seedless() {
        // Two independently-constructed states hash identically — the
        // property RandomState lacks and the E12 byte-identity gate needs.
        let a = DetBuildHasher::default();
        let b = DetBuildHasher::default();
        for key in [0u64, 1, 42, u64::MAX] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
    }

    #[test]
    fn map_works_with_byte_keys() {
        let mut m: DetHashMap<Vec<u8>, u32> = DetHashMap::default();
        for i in 0..1000u32 {
            m.insert(i.to_le_bytes().to_vec(), i);
        }
        for i in (0..1000u32).step_by(3) {
            m.remove(i.to_le_bytes().to_vec().as_slice());
        }
        assert_eq!(m.len(), 666);
        assert_eq!(m.get(1u32.to_le_bytes().as_slice()), Some(&1));
    }
}
