//! Adversarial decode tests: corrupt compressed payloads must surface as
//! [`DecodeError`] values — never a panic, never an out-of-bounds read.
//!
//! The fault-injection harness (ehs-sim::faultinject) relies on this
//! contract to classify a mangled checkpoint stream as a *detected*
//! consistency violation; these tests pin it down for all six codecs
//! under truncation at every byte boundary and under single-bit flips
//! anywhere in the stream.

use ehs_compress::bitio::BitWriter;
use ehs_compress::{Algorithm, CompressedBlock, Compressor, DecodeError};
use proptest::prelude::*;

/// Word-aligned blocks spanning the distributions the encoders branch on.
fn block_strategy() -> impl Strategy<Value = Vec<u8>> {
    let sizes = prop_oneof![Just(16usize), Just(32usize), Just(64usize)];
    sizes.prop_flat_map(|size| {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), size..=size),
            proptest::collection::vec(prop_oneof![4 => Just(0u8), 1 => any::<u8>()], size..=size),
            proptest::collection::vec(-50i32..50i32, size / 4..=size / 4)
                .prop_map(|ws| ws.into_iter().flat_map(|w| w.to_le_bytes()).collect()),
        ]
    })
}

/// Rebuilds `enc` with its payload cut to `keep` bytes (and the declared
/// bit count clamped so the block invariant still holds — the decoder
/// must cope with *both* kinds of truncation).
fn truncate(enc: &CompressedBlock, keep: usize) -> CompressedBlock {
    let payload = enc.payload()[..keep].to_vec();
    let bits = enc.encoded_bits().min(keep as u32 * 8);
    CompressedBlock::new(enc.algorithm(), enc.original_bytes(), payload, bits)
}

/// Rebuilds `enc` with one payload bit flipped.
fn flip_bit(enc: &CompressedBlock, bit: usize) -> CompressedBlock {
    let mut payload = enc.payload().to_vec();
    payload[bit / 8] ^= 1 << (bit % 8);
    CompressedBlock::new(enc.algorithm(), enc.original_bytes(), payload, enc.encoded_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Cutting the payload at any byte boundary yields `Ok` (when the cut
    /// only removed padding) or `Err` — and on `Ok` the decode matches the
    /// original block exactly.
    #[test]
    fn truncated_streams_decode_to_values(block in block_strategy()) {
        for alg in Algorithm::EXTENDED {
            let c = alg.compressor();
            let enc = c.compress(&block);
            for keep in 0..enc.payload().len() {
                let cut = truncate(&enc, keep);
                let mut out = vec![0u8; block.len()];
                // An `Err` is a detected truncation — the contract this
                // test pins.
                if c.try_decompress_into(&cut, &mut out).is_ok() {
                    prop_assert_eq!(
                        &out, &block,
                        "{} accepted a truncation that changed the data", alg
                    );
                }
            }
        }
    }

    /// Flipping any single payload bit never panics; the decoder returns
    /// a value either way (a flip may still decode — to different bytes —
    /// which the harness catches by comparing images, not here).
    #[test]
    fn bit_flipped_streams_decode_to_values(block in block_strategy(), seed in any::<u64>()) {
        for alg in Algorithm::EXTENDED {
            let c = alg.compressor();
            let enc = c.compress(&block);
            let bits = enc.payload().len() * 8;
            let bit = (seed % bits as u64) as usize;
            let mut out = vec![0u8; block.len()];
            let _ = c.try_decompress_into(&flip_bit(&enc, bit), &mut out);
        }
    }

    /// The fallible and panicking decode paths agree on clean input.
    #[test]
    fn try_decompress_matches_decompress_on_clean_input(block in block_strategy()) {
        for alg in Algorithm::EXTENDED {
            let c = alg.compressor();
            let enc = c.compress(&block);
            prop_assert_eq!(c.try_decompress(&enc).expect("clean stream"), block.clone());
        }
    }
}

/// Every single-bit flip (exhaustive, not sampled) on one representative
/// block per algorithm decodes to a value.
#[test]
fn exhaustive_bit_flips_on_a_mixed_block() {
    let vals = [0u32, 1, 0x1000_0000, 0x1000_0003, 0xDEAD_BEEF, 0x77, 0, 0xFFFF_FFFF];
    let block: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
    for alg in Algorithm::EXTENDED {
        let c = alg.compressor();
        let enc = c.compress(&block);
        for bit in 0..enc.payload().len() * 8 {
            let mut out = vec![0u8; block.len()];
            let _ = c.try_decompress_into(&flip_bit(&enc, bit), &mut out);
        }
    }
}

#[test]
fn wrong_algorithm_is_reported() {
    let enc = Algorithm::Bdi.compressor().compress(&[0u8; 32]);
    let mut out = [0u8; 32];
    assert_eq!(
        Algorithm::Fpc.compressor().try_decompress_into(&enc, &mut out),
        Err(DecodeError::WrongAlgorithm { expected: Algorithm::Fpc, got: Algorithm::Bdi })
    );
}

#[test]
fn wrong_output_length_is_reported() {
    let enc = Algorithm::Dzc.compressor().compress(&[0u8; 32]);
    let mut out = [0u8; 16];
    assert_eq!(
        Algorithm::Dzc.compressor().try_decompress_into(&enc, &mut out),
        Err(DecodeError::OutputLen { expected: 32, got: 16 })
    );
}

#[test]
fn empty_payload_is_truncation_for_every_codec() {
    for alg in Algorithm::EXTENDED {
        let c = alg.compressor();
        let empty = CompressedBlock::new(alg, 32, Vec::new(), 0);
        let mut out = [0u8; 32];
        match c.try_decompress_into(&empty, &mut out) {
            Err(DecodeError::Truncated { .. }) => {}
            other => panic!("{alg}: empty payload gave {other:?}"),
        }
    }
}

#[test]
fn cpack_reserved_code_is_corrupt_not_a_crash() {
    // Inner code 11 after prefix 11 (i.e. bits 1111) is never emitted.
    let mut w = BitWriter::new();
    w.write_bits(0b1111, 4);
    let (payload, bits) = w.finish();
    let enc = CompressedBlock::new(Algorithm::CPack, 4, payload, bits);
    let mut out = [0u8; 4];
    assert_eq!(
        Algorithm::CPack.compressor().try_decompress_into(&enc, &mut out),
        Err(DecodeError::Corrupt {
            algorithm: Algorithm::CPack,
            detail: "code 1111 is never emitted"
        })
    );
}

#[test]
fn bdi_unknown_tag_is_corrupt() {
    // Tags above TAG_CONFIG_BASE + CONFIGS map to no configuration.
    let mut w = BitWriter::new();
    w.write_bits(0xF, 4);
    let (payload, bits) = w.finish();
    let enc = CompressedBlock::new(Algorithm::Bdi, 32, payload, bits);
    let mut out = [0u8; 32];
    match Algorithm::Bdi.compressor().try_decompress_into(&enc, &mut out) {
        Err(DecodeError::Corrupt { algorithm: Algorithm::Bdi, .. }) => {}
        other => panic!("BDI bad tag gave {other:?}"),
    }
}

#[test]
fn fpc_overlong_zero_run_is_corrupt() {
    // One word of output, but the stream claims an 8-word zero run.
    let mut w = BitWriter::new();
    w.write_bits(0b000, 3); // zero-run prefix
    w.write_bits(0b111, 3); // run length 8
    let (payload, bits) = w.finish();
    let enc = CompressedBlock::new(Algorithm::Fpc, 4, payload, bits);
    let mut out = [0u8; 4];
    assert_eq!(
        Algorithm::Fpc.compressor().try_decompress_into(&enc, &mut out),
        Err(DecodeError::Corrupt {
            algorithm: Algorithm::Fpc,
            detail: "zero run overflows the block"
        })
    );
}

#[test]
fn bpc_compressed_flag_on_tiny_block_is_corrupt() {
    // The encoder always emits passthrough for single-word blocks, so a
    // compressed flag there is structurally impossible.
    let mut w = BitWriter::new();
    w.write_bits(1, 1);
    w.write_bits(0, 32);
    let (payload, bits) = w.finish();
    let enc = CompressedBlock::new(Algorithm::Bpc, 4, payload, bits);
    let mut out = [0u8; 4];
    assert_eq!(
        Algorithm::Bpc.compressor().try_decompress_into(&enc, &mut out),
        Err(DecodeError::Corrupt {
            algorithm: Algorithm::Bpc,
            detail: "compressed flag on a sub-2-word block"
        })
    );
}

#[test]
fn decode_error_messages_are_informative() {
    let e = DecodeError::Truncated { needed_bits: 32, position: 7 };
    assert_eq!(e.to_string(), "bit stream exhausted: need 32 bits at position 7");
    let e = DecodeError::Corrupt { algorithm: Algorithm::Dzc, detail: "block too large for DZC" };
    assert_eq!(e.to_string(), "corrupt DZC stream: block too large for DZC");
}
