//! Property-based round-trip tests: every compressor must be lossless on
//! arbitrary word-aligned blocks, every size query must equal its
//! encoder's bit count, and encoded sizes must respect each algorithm's
//! structural bounds.

use ehs_compress::{Algorithm, Compressor};
use proptest::prelude::*;

/// Arbitrary blocks of 16, 32 or 64 bytes with a mix of byte distributions
/// (uniform random, zero-heavy, and small-integer words) so all encoder
/// paths get exercised.
fn block_strategy() -> impl Strategy<Value = Vec<u8>> {
    let sizes = prop_oneof![Just(16usize), Just(32usize), Just(64usize)];
    sizes.prop_flat_map(|size| {
        prop_oneof![
            // Uniform random bytes.
            proptest::collection::vec(any::<u8>(), size..=size),
            // Zero-heavy bytes.
            proptest::collection::vec(prop_oneof![4 => Just(0u8), 1 => any::<u8>()], size..=size),
            // Small-magnitude little-endian words (FPC/BDI sweet spot).
            proptest::collection::vec(-50i32..50i32, size / 4..=size / 4)
                .prop_map(|ws| ws.into_iter().flat_map(|w| w.to_le_bytes()).collect()),
            // Clustered u32 values around a shared base.
            (any::<u32>(), proptest::collection::vec(-100i32..100i32, size / 4..=size / 4))
                .prop_map(|(base, offs)| {
                    offs.into_iter()
                        .flat_map(|o| base.wrapping_add(o as u32).to_le_bytes())
                        .collect()
                }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn all_algorithms_are_lossless(block in block_strategy()) {
        for alg in Algorithm::EXTENDED {
            let c = alg.compressor();
            let enc = c.compress(&block);
            prop_assert_eq!(c.decompress(&enc), block.clone(), "{} not lossless", alg);
        }
    }

    #[test]
    fn decompress_into_matches_decompress(block in block_strategy()) {
        // The no-allocation primitive must agree with the Vec wrapper for
        // every algorithm, into a dirty (non-zero) caller buffer.
        for alg in Algorithm::EXTENDED {
            let c = alg.compressor();
            let enc = c.compress(&block);
            let mut out = vec![0xA5u8; block.len()];
            c.decompress_into(&enc, &mut out);
            prop_assert_eq!(&out, &block, "{} decompress_into diverges", alg);
            prop_assert_eq!(c.decompress(&enc), block.clone());
        }
    }

    #[test]
    fn size_queries_match_their_encoders(block in block_strategy()) {
        // Every size path, the default one included, must report the
        // exact bit count of what its encoder writes.
        for alg in Algorithm::EXTENDED {
            let c = alg.compressor();
            let encoded = c.compress(&block).encoded_bits();
            prop_assert_eq!(c.compressed_size_bits(&block), encoded, "{} size path", alg);
        }
    }

    #[test]
    fn encoded_sizes_have_structural_bounds(block in block_strategy()) {
        let n = block.len() as u32;
        for alg in Algorithm::ALL {
            let enc = alg.compressor().compress(&block);
            // No algorithm may more than marginally expand a block.
            let max = match alg {
                Algorithm::Bdi => n + 1,              // flag byte
                Algorithm::Fpc => n + n * 3 / 32 + 1, // 3 bits per word
                Algorithm::CPack => n + n / 16 + 1,   // 2 bits per word
                Algorithm::Dzc => n + n / 8,          // 1 bit per byte
                Algorithm::Bpc => n + 1,              // passthrough fallback
                Algorithm::Fvc => n + 4 + n / 32 + 1, // 32-bit header + flag/word
            };
            prop_assert!(
                enc.compressed_bytes() <= max,
                "{} produced {}B from {}B (max {})",
                alg, enc.compressed_bytes(), n, max
            );
            prop_assert!(enc.encoded_bits() > 0);
            prop_assert!(enc.compressed_bytes() as usize <= enc.payload().len());
        }
    }

    #[test]
    fn zero_density_monotonicity_for_dzc(nonzero in 0usize..=32) {
        // DZC's size is an exact linear function of nonzero byte count.
        let mut block = vec![0u8; 32];
        for b in block.iter_mut().take(nonzero) {
            *b = 0x5A;
        }
        let enc = Algorithm::Dzc.compressor().compress(&block);
        prop_assert_eq!(enc.encoded_bits(), 32 + 8 * nonzero as u32);
    }
}

#[test]
fn passthrough_encodings_decompress_into_buffers() {
    // High-entropy words force BDI and BPC into their passthrough
    // encodings (flag byte + raw bytes); the buffer-based decoder must
    // handle that branch too.
    let mut x = 0x2468u32;
    let block: Vec<u8> = (0..16)
        .flat_map(|_| {
            x = x.wrapping_mul(0x9E37_79B9).wrapping_add(0x85EB_CA6B);
            x.to_le_bytes()
        })
        .collect();
    for alg in [Algorithm::Bdi, Algorithm::Bpc] {
        let c = alg.compressor();
        let enc = c.compress(&block);
        assert_eq!(enc.compressed_bytes() as usize, block.len() + 1, "{alg} should passthrough");
        let mut out = vec![0xA5u8; block.len()];
        c.decompress_into(&enc, &mut out);
        assert_eq!(out, block, "{alg} passthrough decode");
    }
}
