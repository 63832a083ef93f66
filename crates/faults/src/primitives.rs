//! The workspace's small numeric primitives, one copy each: FNV-1a-64
//! hashing, the SplitMix64 mixer, and capped exponential backoff.
//!
//! Every output here is persisted somewhere — checkpoint and dataset
//! seals, job fingerprints, Monte-Carlo draws, sampled specs — so each
//! function is frozen: changing a single bit of any result invalidates
//! files already on disk.

use std::time::Duration;

/// FNV-1a-64 offset basis: the initial state of a streaming hash.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV1A64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a-64 state. Start from
/// [`FNV1A64_OFFSET`]; chaining calls hashes the concatenation without
/// materialising it.
#[inline]
#[must_use]
pub fn fnv1a64_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV1A64_PRIME);
    }
    hash
}

/// FNV-1a-64 of `bytes`.
#[inline]
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV1A64_OFFSET, bytes)
}

/// One SplitMix64 step: adds the golden-ratio increment to `x` and
/// finalizes, turning a key into a well-mixed word (nearby keys land
/// far apart).
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The delay before retry number `attempt` (1-based): `base` doubled
/// per prior attempt, capped at `cap`.
#[inline]
#[must_use]
pub fn capped_backoff(attempt: u32, base: Duration, cap: Duration) -> Duration {
    let factor = 1u32 << attempt.saturating_sub(1).min(16);
    base.saturating_mul(factor).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        // Streaming over parts hashes the concatenation.
        assert_eq!(fnv1a64_update(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn splitmix64_matches_reference_sequence() {
        // The first two outputs of a SplitMix64 generator seeded at 0:
        // the state advances by the increment the step adds.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let (base, cap) = (Duration::from_millis(50), Duration::from_millis(800));
        assert_eq!(capped_backoff(1, base, cap), Duration::from_millis(50));
        assert_eq!(capped_backoff(2, base, cap), Duration::from_millis(100));
        assert_eq!(capped_backoff(3, base, cap), Duration::from_millis(200));
        assert_eq!(capped_backoff(10, base, cap), Duration::from_millis(800));
        // Huge attempt numbers saturate instead of overflowing.
        assert_eq!(capped_backoff(u32::MAX, base, cap), cap);
    }
}
