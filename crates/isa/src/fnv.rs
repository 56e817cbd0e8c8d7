//! Stable FNV-1a 64-bit hashing: the byte-wise [`fnv1a64`] and a
//! [`std::hash::Hasher`].
//!
//! `DefaultHasher` is randomly seeded per process, so it cannot key
//! anything that must be reproducible across runs (content-addressed
//! caches, trace-arena keys). [`fnv1a64`] is the digest the workspace
//! persists (cache keys, store trailers, checkpoint checksums);
//! [`Fnv1aHasher`] lets any `#[derive(Hash)]` type feed the same hash.
//!
//! Note: `Hash` impls for integers write native-endian bytes, so digests
//! are stable per platform, which is all the in-process arena needs.

use std::hash::Hasher;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Byte-wise FNV-1a 64 of `bytes`: deterministic across runs, platforms
/// and Rust versions, which persisted digests require.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fold_bytes(FNV_OFFSET, bytes)
}

/// Folds `bytes` into FNV-1a state `h`, one byte per step.
fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a 64-bit hasher state.
#[derive(Debug, Clone)]
pub struct Fnv1aHasher(u64);

impl Fnv1aHasher {
    /// A hasher at the standard FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv1aHasher(FNV_OFFSET)
    }
}

impl Default for Fnv1aHasher {
    fn default() -> Self {
        Fnv1aHasher::new()
    }
}

impl Hasher for Fnv1aHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Folds 8 bytes per multiply on long inputs (hashing a workload's
    /// 4 KiB memory pages byte-at-a-time would cost as much as trace
    /// synthesis itself); the trailing `len % 8` bytes use the byte-exact
    /// FNV-1a step. Each step is `state = (state ^ chunk) * prime` with
    /// an odd prime, a bijection in the chunk, so content differences
    /// never cancel within a step.
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.0 ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self.0 = fold_bytes(self.0, chunks.remainder());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors (all sub-word, so they pin the
        // byte-exact tail path).
        let digest = |s: &str| {
            let mut h = Fnv1aHasher::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn long_inputs_discriminate_and_are_stable() {
        let digest = |bytes: &[u8]| {
            let mut h = Fnv1aHasher::new();
            h.write(bytes);
            h.finish()
        };
        let page = vec![0xa5u8; 4096];
        assert_eq!(digest(&page), digest(&page));
        let mut flipped = page.clone();
        flipped[4095] ^= 1; // last byte of the last word
        assert_ne!(digest(&page), digest(&flipped));
        let mut early = page.clone();
        early[0] ^= 0x80; // high bit of the first word
        assert_ne!(digest(&page), digest(&early));
        // Split writes hash like one contiguous write only when chunk
        // boundaries align; the arena always hashes whole pages, and
        // word-aligned splits stay consistent.
        let mut h = Fnv1aHasher::new();
        h.write(&page[..2048]);
        h.write(&page[2048..]);
        assert_eq!(h.finish(), digest(&page));
    }

    #[test]
    fn hash_trait_integration_is_deterministic() {
        let digest = |v: &(u64, &str)| {
            let mut h = Fnv1aHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let a = digest(&(42, "trace"));
        let b = digest(&(42, "trace"));
        assert_eq!(a, b);
        assert_ne!(a, digest(&(43, "trace")));
    }
}
