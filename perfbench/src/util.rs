//! Small shared pieces: the seeded generator, the output digest, and
//! nanosecond clock helpers.

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness. Every input a
/// workload generates comes from one of these, seeded from `--seed`.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, mixed with a per-purpose `stream` so that two
    /// uses of one seed draw unrelated sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = Self(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Shuffles `xs` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a byte stream: the digest every output check compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds the exact bit pattern of `x`.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.bytes(&x.to_bits().to_le_bytes())
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// The digest of one byte string.
    pub fn of(bytes: &[u8]) -> String {
        Self::default().bytes(bytes).hex()
    }
}

/// Whole nanoseconds in `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds since `t`.
pub fn nanos_since(t: Instant) -> u64 {
    nanos(t.elapsed())
}

/// Runs `f` and returns its value with the nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let v = f();
    (v, nanos_since(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_the_fnv1a_reference_vector() {
        assert_eq!(Digest::of(b""), "cbf29ce484222325");
        assert_eq!(Digest::of(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn below_stays_in_range_and_shuffle_permutes() {
        let mut g = SplitMix64::new(7, 1);
        assert!((0..1000).all(|_| g.below(13) < 13));
        let mut xs: Vec<u32> = (0..50).collect();
        g.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, sorted);
    }
}
