//! FNV-1a, the one 64-bit hash behind the RNG's fork labels, the trace
//! digest and the campaign fingerprints.

/// A streaming 64-bit FNV-1a hasher. The same bytes in the same order
/// give the same value on every host and build.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        let hash = |s: &[u8]| {
            let mut h = Fnv1a::new();
            h.write(s);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn split_writes_hash_like_one() {
        let mut a = Fnv1a::new();
        a.write(b"timing");
        let mut b = Fnv1a::new();
        b.write(b"tim");
        b.write(b"ing");
        assert_eq!(a.finish(), b.finish());
    }
}
