//! Compression-size memoization.
//!
//! The cache never stores compressed payloads — only the *segment count*
//! an encoding occupies (the data array models space, not bits). Since
//! every [`Compressor`] is a pure function of the input bytes, the segment
//! count for a given block value is a pure function too, and the kernels
//! re-present the same block values constantly (zero blocks, loop-carried
//! state, repeated pixel rows). Memoizing `bytes -> segments` turns the
//! dominant compression cost of store-heavy runs into a hash lookup.
//!
//! Exactness: the key is the full block content (no lossy hashing — the
//! `HashMap` resolves collisions by comparing the bytes), so a memo hit
//! returns precisely what `compress()` would. No invalidation is ever
//! needed: entries are never stale, only evicted wholesale when the map
//! grows past its bound.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use ehs_compress::{AnyCompressor, Compressor};

use crate::SEGMENT_BYTES;

/// Multiply-rotate hasher (FxHash construction) for the memo map.
///
/// The default `HashMap` hasher (SipHash) is DoS-resistant but costs more
/// than the rest of a memo hit combined on 32-byte keys. Keys here are
/// cache-block contents from deterministic kernels — not attacker
/// controlled — so a fast non-cryptographic hash is appropriate. Equality
/// is still byte-exact; the hash only picks the bucket.
#[derive(Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn write(&mut self, bytes: &[u8]) {
        const SEED: u64 = 0x517c_c1b7_2722_0a95;
        let mut h = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().unwrap());
            h = (h.rotate_left(5) ^ w).wrapping_mul(SEED);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            let w = u64::from_le_bytes(tail) | ((rem.len() as u64) << 56);
            h = (h.rotate_left(5) ^ w).wrapping_mul(SEED);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Map key holding block contents inline (for blocks up to 64 bytes — the
/// configured sizes) so that inserting a never-before-seen value costs no
/// heap allocation. Workloads that generate novel data on most stores
/// (e.g. iterator-valued output buffers) miss the memo constantly; an
/// allocation per miss would eat the savings.
///
/// `Borrow<[u8]>` lets lookups probe with the borrowed block slice
/// directly; `Eq` and `Hash` both go through `as_bytes` so the borrowed
/// and owned forms hash identically, as the `HashMap` contract requires.
#[derive(Debug, Clone)]
enum MemoKey {
    Inline { len: u8, buf: [u8; 64] },
    Heap(Box<[u8]>),
}

impl MemoKey {
    fn new(data: &[u8]) -> Self {
        if data.len() <= 64 {
            let mut buf = [0u8; 64];
            buf[..data.len()].copy_from_slice(data);
            MemoKey::Inline { len: data.len() as u8, buf }
        } else {
            MemoKey::Heap(data.into())
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            MemoKey::Inline { len, buf } => &buf[..*len as usize],
            MemoKey::Heap(b) => b,
        }
    }
}

impl PartialEq for MemoKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for MemoKey {}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl Borrow<[u8]> for MemoKey {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// Memo of `block bytes -> data-array segments` for one compressor.
///
/// Bounded: once [`SizeMemo::MAX_ENTRIES`] distinct block values have been
/// seen, the map is cleared and rebuilt (simple, and in practice the
/// kernels' working set of distinct block values is far smaller).
#[derive(Debug, Clone, Default)]
pub(crate) struct SizeMemo {
    map: HashMap<MemoKey, u32, BuildHasherDefault<BlockHasher>>,
    hits: u64,
    misses: u64,
}

impl SizeMemo {
    /// Bound on distinct block values retained (64 Ki inline keys ≈ 5 MiB
    /// — negligible host memory, far beyond any kernel's distinct-value
    /// working set).
    const MAX_ENTRIES: usize = 1 << 16;

    /// Segment footprint of `data` under `compressor` — memoized, exact.
    pub fn segments(&mut self, compressor: &AnyCompressor, data: &[u8]) -> u32 {
        if let Some(&segs) = self.map.get(data) {
            self.hits += 1;
            return segs;
        }
        self.misses += 1;
        // Size-only query: `compressed_size_bits` is contractually equal
        // to `compress(data).encoded_bits()` but skips the bitstream
        // assembly (`size_queries_match_their_encoders` in ehs-compress's
        // tests/roundtrip.rs pins the two together bit for bit).
        let bytes = compressor.compressed_size_bits(data).div_ceil(8);
        let segs = bytes.div_ceil(SEGMENT_BYTES).max(1);
        if self.map.len() >= Self::MAX_ENTRIES {
            self.map.clear();
        }
        self.map.insert(MemoKey::new(data), segs);
        segs
    }

    /// `(hits, misses)` so far — diagnostics only, not part of sim state.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_compress::Algorithm;
    use proptest::prelude::*;

    proptest! {
        /// Memoized segment counts equal the uncached computation for
        /// every algorithm over arbitrary block contents, including
        /// repeated queries (memo hits) forced by the small alphabet.
        #[test]
        fn memoized_segments_match_uncached(
            blocks in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 32), 1..12),
            compressible in proptest::collection::vec(
                proptest::collection::vec(0u8..4, 32), 1..12),
        ) {
            for alg in Algorithm::ALL {
                let compressor = alg.compressor();
                let mut memo = SizeMemo::default();
                for b in blocks.iter().chain(&compressible).chain(&blocks) {
                    let direct = compressor
                        .compress(b)
                        .compressed_bytes()
                        .div_ceil(SEGMENT_BYTES)
                        .max(1);
                    prop_assert_eq!(memo.segments(&compressor, b), direct, "{:?}", alg);
                }
            }
        }
    }

    #[test]
    fn memo_matches_direct_compression() {
        for alg in Algorithm::ALL {
            let compressor = alg.compressor();
            let mut memo = SizeMemo::default();
            let mut block = [0u8; 32];
            for seed in 0u32..64 {
                let mut x = seed.wrapping_mul(0x9E37_79B9);
                for w in block.chunks_exact_mut(4) {
                    x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                    // Mix of compressible (masked) and random words.
                    let v = if seed % 2 == 0 { x & 0xFF } else { x };
                    w.copy_from_slice(&v.to_le_bytes());
                }
                let direct =
                    compressor.compress(&block).compressed_bytes().div_ceil(SEGMENT_BYTES).max(1);
                // First query misses, second hits; both must equal direct.
                assert_eq!(memo.segments(&compressor, &block), direct, "{alg:?} seed {seed}");
                assert_eq!(memo.segments(&compressor, &block), direct, "{alg:?} seed {seed}");
            }
            let (hits, misses) = memo.counters();
            assert_eq!(hits, 64, "{alg:?}");
            assert_eq!(misses, 64, "{alg:?}");
        }
    }
}
