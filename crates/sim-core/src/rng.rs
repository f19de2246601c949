//! Deterministic, forkable random number generation.
//!
//! Every stochastic component in the testbed (channel shadowing, MAC
//! backoff, detector noise, NTP offsets, polling phase) draws from a
//! [`SimRng`]. A run is fully reproducible from one `u64` seed; independent
//! subsystems fork their own streams with [`SimRng::fork`] so adding a
//! consumer in one subsystem never perturbs another.
//!
//! The generator is xoshiro256++ with a splitmix64 seeding routine —
//! implemented here (rather than relying on an external crate) so the
//! byte-for-byte sequence is pinned by this crate and cannot change under
//! a dependency upgrade. Generic consumers can abstract over the source
//! through the local [`RngCore`] trait, which mirrors the `rand` crate's
//! trait of the same name.

use crate::hash::Fnv1a;

/// The core random-source interface, mirroring `rand::RngCore` so code
/// written against that trait ports over unchanged. Defined locally
/// because all randomness in the testbed must flow from [`SimRng`]
/// (detlint rule D2) and the workspace builds without crates.io access.
pub trait RngCore {
    /// Next raw 32-bit value.
    fn next_u32(&mut self) -> u32;
    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

/// Splitmix64 step, used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ random source.
///
/// # Example
///
/// ```
/// use sim_core::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derives an independent stream labelled by `label`.
    ///
    /// Forking with the same label always yields the same child stream, so
    /// subsystems can be wired up in any order without changing each
    /// other's randomness.
    pub fn fork(&self, label: &str) -> SimRng {
        // Mix the label into the parent state via FNV-1a, then re-seed.
        let mut fnv = Fnv1a::new();
        fnv.write(label.as_bytes());
        let h = fnv.finish();
        let mixed = self.s[0] ^ h.rotate_left(17) ^ self.s[2].wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from(mixed)
    }

    /// Derives an independent stream labelled by a 64-bit value.
    ///
    /// The numeric sibling of [`SimRng::fork`], for hot paths that fork
    /// per `(node, frame)` pair and cannot afford to format a string
    /// label: the label is mixed through splitmix64 instead of FNV-1a,
    /// then combined with the parent state exactly like `fork`. Like
    /// `fork`, this is draw-free — the parent stream is not advanced —
    /// and the same `(parent, label)` always yields the same child, so
    /// skipping some labels (e.g. culled receivers) never perturbs the
    /// streams of the labels that *are* drawn.
    pub fn fork_u64(&self, label: u64) -> SimRng {
        let mut sm = label;
        let h = splitmix64(&mut sm);
        let mixed = self.s[0] ^ h.rotate_left(17) ^ self.s[2].wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from(mixed)
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform bounds inverted");
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` via Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Unbiased multiply-shift rejection sampling.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let low = m as u64;
            if low >= n {
                return (m >> 64) as u64;
            }
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal sample (Box–Muller; one value per call).
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Exponential sample with the given mean (`mean > 0`).
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0`.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        -mean * (1.0 - self.f64()).ln()
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        SimRng::next_u64(self)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(8);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn fork_is_stable_and_independent() {
        let parent = SimRng::seed_from(1);
        let mut c1 = parent.fork("mac");
        let mut c2 = parent.fork("mac");
        let mut c3 = parent.fork("channel");
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn fork_u64_is_stable_and_independent() {
        let parent = SimRng::seed_from(1);
        let mut c1 = parent.fork_u64(7);
        let mut c2 = parent.fork_u64(7);
        let mut c3 = parent.fork_u64(8);
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn fork_u64_is_draw_free() {
        let mut a = SimRng::seed_from(2);
        let mut b = SimRng::seed_from(2);
        let _ = a.fork_u64(3);
        let _ = a.fork_u64(u64::MAX);
        assert_eq!(a.next_u64(), b.next_u64(), "fork_u64 advanced the parent");
    }

    #[test]
    fn fork_u64_nearby_labels_decorrelate() {
        // Consecutive (node, frame) labels must not produce correlated
        // child streams — splitmix64 whitens the label before mixing.
        let parent = SimRng::seed_from(3);
        let mut streams: Vec<u64> = (0..64).map(|l| parent.fork_u64(l).next_u64()).collect();
        streams.sort_unstable();
        streams.dedup();
        assert_eq!(streams.len(), 64, "colliding child streams");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_is_plausible() {
        let mut r = SimRng::seed_from(4);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.uniform(0.0, 50.0)).sum::<f64>() / n as f64;
        assert!((mean - 25.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SimRng::seed_from(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::seed_from(6);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::seed_from(9);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn bernoulli_probability() {
        let mut r = SimRng::seed_from(10);
        let hits = (0..100_000).filter(|_| r.bernoulli(0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01, "p {p}");
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
    }

    #[test]
    fn fill_bytes_deterministic() {
        use super::RngCore as _;
        let mut a = SimRng::seed_from(11);
        let mut b = SimRng::seed_from(11);
        let mut ba = [0u8; 13];
        let mut bb = [0u8; 13];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        assert_eq!(ba, bb);
    }

    proptest! {
        #[test]
        fn below_always_below(seed in any::<u64>(), n in 1u64..1_000_000) {
            let mut r = SimRng::seed_from(seed);
            for _ in 0..10 {
                prop_assert!(r.below(n) < n);
            }
        }
    }
}
