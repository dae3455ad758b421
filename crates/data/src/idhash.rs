//! A fast hash for maps keyed by interned ids.
//!
//! Most hash maps of the engine are keyed by [`Value`](crate::Value)s,
//! [`Predicate`](crate::Predicate)s and tuples or slices of them: small
//! integers the program itself hands out (interned symbols, null labels,
//! row positions). The standard library's SipHash guards against keys an
//! adversary chooses, at a price paid on every row-index probe and every
//! fired-set lookup of the chase. [`IdBuildHasher`] folds each written
//! integer into its state with one 64×64→128-bit multiply whose halves are
//! XORed together (the "folded multiply" of foldhash and wyhash).
//!
//! The hasher is seeded once per process from [`RandomState`], so the
//! iteration order of an id-keyed map still differs between runs, exactly
//! as with the default hasher: nothing may depend on it, and a test that
//! does fails as it did before. Within one process every
//! [`IdBuildHasher`] carries the same seed, so equal keys hash equally
//! across maps and clones.
//!
//! Keys a client chooses — the symbol interner's strings — keep SipHash.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The multiplier of every fold: an odd 64-bit constant (the fractional
/// digits of π), so the low bits of a product are a bijection of the low
/// bits of its input.
const MULTIPLIER: u64 = 0x243f_6a88_85a3_08d3;

/// A `HashMap` hashed with [`IdBuildHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` hashed with [`IdBuildHasher`].
pub type IdHashSet<K> = HashSet<K, IdBuildHasher>;

/// The 128-bit product of `x` and `y`, folded to 64 bits by XORing its
/// halves.
#[inline(always)]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The process-wide seed, drawn from [`RandomState`] on first use.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0x5eed_u64))
}

/// Builds [`IdHasher`]s that all start from the process seed.
#[derive(Debug, Clone, Copy)]
pub struct IdBuildHasher {
    seed: u64,
}

impl Default for IdBuildHasher {
    fn default() -> IdBuildHasher {
        IdBuildHasher {
            seed: process_seed(),
        }
    }
}

impl BuildHasher for IdBuildHasher {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher { acc: self.seed }
    }
}

/// The hasher of [`IdBuildHasher`]: one folded multiply per integer
/// written.
#[derive(Debug, Clone)]
pub struct IdHasher {
    acc: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.acc = folded_multiply(self.acc ^ x, MULTIPLIER);
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_isize(&mut self, x: isize) {
        self.write_u64(x as u64);
    }

    /// Byte strings (not used by id keys, but any `Hash` type may call
    /// it): the length, then each little-endian 8-byte chunk, the last one
    /// zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Predicate, Value};
    use std::hash::Hash;

    fn hash_of(b: &IdBuildHasher, key: impl Hash) -> u64 {
        b.hash_one(key)
    }

    #[test]
    fn builders_of_one_process_agree() {
        let (a, b) = (IdBuildHasher::default(), IdBuildHasher::default());
        let p = Predicate::new("idhash_p");
        for key in [
            Value::named("idhash_a"),
            Value::Null(7),
            Value::Null(1 << 40),
        ] {
            assert_eq!(hash_of(&a, key), hash_of(&b, key));
            assert_eq!(hash_of(&a, (p, 3u16, key)), hash_of(&b, (p, 3u16, key)));
        }
        let row = [Value::Null(1), Value::Null(2)];
        assert_eq!(hash_of(&a, &row[..]), hash_of(&b, &row[..]));
        assert_eq!(hash_of(&a, "text"), hash_of(&b, "text"));
        // Sets built on either hasher find each other's keys.
        let set: IdHashSet<Value> = (0..100).map(Value::Null).collect();
        let copy: IdHashSet<Value> = set.iter().copied().collect();
        assert_eq!(set, copy);
    }

    /// The fullest of the 4 096 buckets the low 12 bits of each hash pick.
    fn max_low_bucket_load(hashes: impl Iterator<Item = u64>) -> usize {
        let mut load = vec![0usize; 1 << 12];
        for h in hashes {
            load[(h & 0xfff) as usize] += 1;
        }
        load.into_iter().max().expect("4096 buckets")
    }

    #[test]
    fn consecutive_ids_spread_over_the_low_bits() {
        // 2^16 keys over 2^12 buckets: 16 per bucket on average. A hash
        // that kept the ids' structure in its low bits would pile them
        // up (or leave whole buckets empty). A uniform one keeps the
        // fullest bucket near 30; more than 48 (3× the mean) has
        // negligible odds under any seed.
        let b = IdBuildHasher::default();
        let n: u64 = 1 << 16;
        let nulls = max_low_bucket_load((0..n).map(|i| hash_of(&b, Value::Null(i))));
        assert!(nulls <= 48, "Value::Null max bucket load {nulls}");
        let names: Vec<Value> = (0..n).map(|i| Value::named(&format!("idh{i}"))).collect();
        let named = max_low_bucket_load(names.iter().map(|&v| hash_of(&b, v)));
        assert!(named <= 48, "Value::Named max bucket load {named}");
        let p = Predicate::new("idhash_edge");
        for pos in [0u16, 1] {
            let keyed = max_low_bucket_load(names.iter().map(|&v| hash_of(&b, (p, pos, v))));
            assert!(
                keyed <= 48,
                "(Predicate, {pos}, Value) max bucket load {keyed}"
            );
        }
    }
}
