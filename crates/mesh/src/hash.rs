//! The one hasher the mesh kernels use.
//!
//! Mesh metadata is keyed by vertex and triangle ids the program made
//! itself, never by outside input, so it needs no protection against
//! crafted collisions — only speed and a fixed behaviour. `IdHasher` is a
//! multiply-rotate hasher over integer words (the `rustc-hash` scheme):
//! it costs one multiply per word where the default SipHash costs a
//! dozen rounds, and it hashes the same key the same way in every process.
//! No mesh result may depend on a map's iteration order anyway: callers
//! iterate ids or sorted keys, and use the maps for lookup only.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (from `rustc-hash` 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Deterministic multiply-rotate hasher for integer keys.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The table indexes by the low bits, which a multiply fills from
        // the low input bits only; rotate the well-mixed high bits down.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by mesh ids, hashed by [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of mesh ids, hashed by [`IdHasher`].
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(x)
    }

    #[test]
    fn same_key_same_hash_in_every_hasher() {
        assert_eq!(hash_of(&(3u32, 7u32)), hash_of(&(3u32, 7u32)));
        assert_ne!(hash_of(&(3u32, 7u32)), hash_of(&(7u32, 3u32)));
    }

    #[test]
    fn consecutive_edges_spread_over_low_bits() {
        // Adjacent ids must not pile into a few buckets of a small table.
        let mut buckets = [0u32; 64];
        for a in 0..32u32 {
            for b in a + 1..a + 9 {
                buckets[(hash_of(&(a, b)) & 63) as usize] += 1;
            }
        }
        let busiest = buckets.iter().max().copied().unwrap_or(0);
        assert!(busiest <= 16, "bucket load {buckets:?}");
    }
}
