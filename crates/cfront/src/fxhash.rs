//! A fast, unkeyed hasher for maps keyed by identifiers.
//!
//! This is the multiply-rotate word hash of rustc's FxHash, which rustc
//! uses for its own symbol tables. It mixes in a word per step where
//! SipHash, std's default, runs rounds of a keyed permutation per word.
//! The price is that it is unkeyed: a program written to collide can
//! slow a map down, but never change what the map holds, so the cost of
//! a collision is latency, never an answer.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash state: one word, mixed with each input word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let mut tail = [0u8; 8];
        let rest = words.remainder();
        if !rest.is_empty() {
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    /// The state rotated so that its best-mixed high bits land in the
    /// low bits a table indexes by.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s; every map built with it hashes alike.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(x: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(x)
    }

    #[test]
    fn equal_keys_hash_equal_and_names_differ() {
        assert_eq!(hash_of("counter"), hash_of(String::from("counter")));
        assert_ne!(hash_of("counter"), hash_of("counted"));
        // A tail shorter than a word still reaches the hash.
        assert_ne!(hash_of("abcdefgh1"), hash_of("abcdefgh2"));
        let m: FxHashMap<&str, u32> = [("a", 1), ("b", 2)].into_iter().collect();
        assert_eq!(m["b"], 2);
    }
}
