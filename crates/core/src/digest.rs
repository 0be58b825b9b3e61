//! FNV-1a (64-bit): the workspace's one dependency-free digest.
//!
//! Every fingerprint in the workspace is this function: the certificate
//! digests (conflict, staleness, cost, deadlock, liveness), the CMFK
//! checkpoint footer, the partition hand-off checksums, the recovery-log
//! and chaos digests, and the benchmark suite's `sim_digest`/`obs_digest`.
//! [`fnv1a64`] hashes one byte slice; [`Fnv1a`] folds a sequence of
//! byte slices, strings and little-endian `u64`s into the same digest
//! their concatenated bytes would produce. `tests/analyze.rs` pins the
//! reference vectors and every certificate digest.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME` to the powers 0 through 8.
const PRIME_POWERS: [u64; 9] = {
    let mut p = [1u64; 9];
    let mut i = 1;
    while i < 9 {
        p[i] = p[i - 1].wrapping_mul(PRIME);
        i += 1;
    }
    p
};

/// FNV-1a over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    Fnv1a::new().bytes(bytes).finish()
}

/// Streaming FNV-1a: each step folds more bytes into the digest, so
/// `Fnv1a::new().str(s).u64(v).finish()` equals [`fnv1a64`] over `s`'s
/// bytes followed by `v.to_le_bytes()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty digest (the FNV-1a offset basis).
    pub const fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Folds in `bytes`.
    #[inline]
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Folds in the UTF-8 bytes of `s`.
    #[inline]
    pub fn str(self, s: &str) -> Self {
        self.bytes(s.as_bytes())
    }

    /// Folds in the 8 little-endian bytes of `v`. A zero byte only
    /// multiplies by the prime, so `v`'s high zero bytes fold into one
    /// multiply by a power of it — bit-identical to the byte loop, and
    /// cheaper for the small counters certificates digest per sample.
    #[inline]
    pub fn u64(self, v: u64) -> Self {
        let len = (64 - v.leading_zeros() as usize).div_ceil(8);
        let Fnv1a(h) = self.bytes(&v.to_le_bytes()[..len]);
        Fnv1a(h.wrapping_mul(PRIME_POWERS[8 - len]))
    }

    /// The digest so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}
