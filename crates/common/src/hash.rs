//! One hasher for tables keyed by ids this process allocated.
//!
//! std's default `RandomState` runs SipHash, which buys protection
//! against keys crafted to collide at the price of a few dozen
//! nanoseconds per lookup. An id the kernel handed out itself cannot be
//! crafted, so tables keyed by `TxnId`, `ObjectId`, `PageId` and the
//! other allocated ids use [`FastMap`] / [`FastSet`] instead. Keys that
//! come from outside the program — names a wire client chose, oids a
//! wire request names before the object is looked up — keep std's
//! default hasher.
//!
//! [`FastHasher`] multiplies each word into the state by an odd 64-bit
//! constant in 128 bits and XORs the two halves. The fold matters: a
//! sharded deployment allocates oids in one residue class of stride =
//! shard count ([`crate::IdGen::configure_residue`]), and a plain
//! multiply leaves the low bits, which pick the bucket, nearly constant
//! for such keys.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier: 2^64 divided by the golden ratio.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folded-multiply hasher for keys the process allocated (module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let m = u128::from(self.hash ^ n) * u128::from(MUL);
        self.hash = (m as u64) ^ ((m >> 64) as u64);
    }

    // `bool` keys and enum discriminants: one multiply, not the byte loop.
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` on [`FastHasher`]; only for keys the process allocated.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` on [`FastHasher`]; only for keys the process allocated.
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn bucket_spread(keys: impl Iterator<Item = u64>) -> usize {
        let build = BuildHasherDefault::<FastHasher>::default();
        keys.map(|k| build.hash_one(k) & 4095)
            .collect::<HashSet<_>>()
            .len()
    }

    /// 4 096 keys over 4 096 buckets: a random function fills about
    /// 2 590. A plain multiply-by-constant fills 256 for the strided set
    /// and 1 for the shifted one.
    #[test]
    fn strided_and_shifted_keys_spread_over_low_bits() {
        // One residue class of stride 16: how a 16-shard IdGen allocates.
        let strided = bucket_spread((0..4096u64).map(|k| k * 16 + 5));
        assert!(strided >= 2400, "stride-16 keys fill {strided} buckets");
        let shifted = bucket_spread((0..4096u64).map(|k| k << 32));
        assert!(shifted >= 2400, "k << 32 keys fill {shifted} buckets");
    }
}
