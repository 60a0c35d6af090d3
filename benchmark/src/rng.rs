//! The harness's own seeded generator.
//!
//! Request scripts must be byte-identical for equal `--seed` values on
//! every later commit, so they are drawn from this self-contained
//! SplitMix64 rather than from any crate the repository may change.

/// SplitMix64: small, fast, and good enough to pick cells and bindings.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one run: streams with different
    /// labels (or seeds) are independent.
    pub fn stream(seed: u64, label: &str) -> Self {
        Rng(derive(seed, label))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An index drawn in proportion to `weights` (not all zero).
    pub fn pick_weighted(&mut self, weights: impl Iterator<Item = u32> + Clone) -> usize {
        let total: u32 = weights.clone().sum();
        let mut ticket = self.below(total as usize) as u32;
        for (i, w) in weights.enumerate() {
            if ticket < w {
                return i;
            }
            ticket -= w;
        }
        unreachable!("the ticket is below the weights' sum")
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        // The modulo bias is below 2^-40 for every n the harness uses.
        (self.next_u64() % n as u64) as usize
    }
}

/// A sub-seed for `label` under `seed` (FNV-1a of the label mixed into the
/// seed, then one SplitMix64 step).
pub fn derive(seed: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Rng(h).next_u64()
}

/// FNV-1a over a byte stream — the digest the verifiers compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string plus a separator (so `"ab","c"` differs from `"a","bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_independent() {
        let a: Vec<u64> = {
            let mut r = Rng::stream(7, "x");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::stream(7, "x");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::stream(7, "y");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut r = Rng::stream(8, "x");
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
