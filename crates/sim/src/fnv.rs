//! FNV-1a (64-bit): the one content hash behind the workspace's
//! digests, fingerprints and cache keys. Unlike `std`'s randomly keyed
//! `DefaultHasher`, it is stable across runs, hosts and toolchains, so
//! committed golden digests and on-disk journals stay valid.
//!
//! The hash is streaming: folding `a` then `b` equals folding their
//! concatenation.
//!
//! ```
//! use xc_sim::fnv::{fnv1a, fnv1a_u64, FNV_OFFSET};
//!
//! let whole = fnv1a(FNV_OFFSET, b"xcontainers");
//! assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"x"), b"containers"), whole);
//! assert_eq!(fnv1a_u64(FNV_OFFSET, 7), fnv1a(FNV_OFFSET, &7u64.to_le_bytes()));
//! ```

/// The FNV-1a offset basis: the state of an empty digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running FNV-1a state `h` (start from
/// [`FNV_OFFSET`]).
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one `u64` word, as its little-endian bytes, into `h`.
#[inline]
pub fn fnv1a_u64(h: u64, word: u64) -> u64 {
    fnv1a(h, &word.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_test_vectors() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }
}
