//! Seeded test randomness with a replay discipline.
//!
//! Every randomized test in the workspace draws from [`SplitMix64`] with
//! a seed obtained through [`seed_from_env`], and announces that seed via
//! [`announce_seed`] so a failing run always prints the one line needed
//! to reproduce it (`REACH_SEED=0x... cargo test ...`). The generator
//! itself was previously private to the storage torture harness; it
//! lives here so txn/core/oodb tests share one implementation.

/// A tiny deterministic PRNG (SplitMix64). Not cryptographic; purely
/// for reproducible test workloads.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Create a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n` must be nonzero).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// Fork an independent stream (for per-thread generators that must
    /// not share state). Deterministic in the parent seed and `salt`.
    pub fn fork(&mut self, salt: u64) -> SplitMix64 {
        SplitMix64(self.next_u64() ^ salt.wrapping_mul(0x2545f4914f6cdd1d))
    }
}

/// Resolve the seed for a randomized test: the `REACH_SEED` environment
/// variable (decimal or `0x`-prefixed hex) when set, otherwise
/// `default`. A value that does not parse panics: falling back to
/// `default` would let a typo in a CI seed matrix run every leg on one
/// seed, green.
pub fn seed_from_env(default: u64) -> u64 {
    match std::env::var("REACH_SEED") {
        Ok(v) => parse_reach_seed(&v),
        Err(std::env::VarError::NotPresent) => default,
        Err(e) => panic!("REACH_SEED: {e}"),
    }
}

fn parse_reach_seed(v: &str) -> u64 {
    crate::sync::parse_seed(v)
        .unwrap_or_else(|| panic!("REACH_SEED={v:?} is not a decimal or 0x-prefixed hex u64"))
}

/// Print the seed a test is about to use, in replay-ready form. Under
/// `cargo test` the line is captured and only shown when the test
/// fails — exactly when it is needed.
pub fn announce_seed(test: &str, seed: u64) {
    eprintln!("[seed] {test}: replay with REACH_SEED={seed:#x}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_in_range_and_chance_sane() {
        let mut r = SplitMix64::new(1);
        for _ in 0..100 {
            assert!(r.below(7) < 7);
        }
        let mut hits = 0;
        for _ in 0..1000 {
            if r.chance(1, 2) {
                hits += 1;
            }
        }
        assert!((300..700).contains(&hits), "p=0.5 wildly off: {hits}/1000");
    }

    #[test]
    fn reach_seed_parses_decimal_and_hex() {
        assert_eq!(parse_reach_seed("12648430"), 0xC0FFEE);
        assert_eq!(parse_reach_seed("0xC0FFEE00"), 0xC0FFEE00);
    }

    #[test]
    #[should_panic(expected = "REACH_SEED=\"0xC0FFEG\" is not")]
    fn reach_seed_garbage_panics_with_the_offending_string() {
        parse_reach_seed("0xC0FFEG");
    }

    #[test]
    fn fork_diverges_from_parent() {
        let mut parent = SplitMix64::new(9);
        let mut child = parent.fork(1);
        assert_ne!(parent.next_u64(), child.next_u64());
    }
}
