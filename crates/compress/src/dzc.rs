//! Dynamic Zero Compression (Villa, Zhang & Asanović, MICRO 2000).
//!
//! DZC attaches one Zero Indicator Bit (ZIB) to every byte: a set ZIB means
//! the byte is zero and is not stored at all; a clear ZIB means the byte
//! follows verbatim. The encoded size is therefore
//! `block_bytes / 8 + nonzero_bytes` — a very cheap scheme whose benefit is
//! proportional to the zero-byte density of the block.

use crate::bitio::{BitReader, BitWriter};
use crate::{validate_block, Algorithm, CompressedBlock, Compressor, DecodeError};

/// The Dynamic Zero Compression engine.
///
/// # Examples
///
/// ```
/// use ehs_compress::{Compressor, Dzc};
///
/// // Half the bytes zero => roughly half the size plus the ZIB vector.
/// let mut block = vec![0u8; 32];
/// for i in (0..32).step_by(2) {
///     block[i] = 0xAB;
/// }
/// let dzc = Dzc::new();
/// let enc = dzc.compress(&block);
/// assert_eq!(enc.compressed_bytes(), 4 + 16);
/// assert_eq!(dzc.decompress(&enc), block);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Dzc {
    _private: (),
}

impl Dzc {
    /// Creates a DZC compressor.
    pub fn new() -> Self {
        Dzc { _private: () }
    }
}

impl Compressor for Dzc {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Dzc
    }

    fn compress(&self, data: &[u8]) -> CompressedBlock {
        validate_block(data);
        let mut w = BitWriter::new();
        // ZIB vector first (1 = zero byte), then the nonzero bytes.
        for &b in data {
            w.write_bits((b == 0) as u64, 1);
        }
        for &b in data {
            if b != 0 {
                w.write_bits(b as u64, 8);
            }
        }
        let (payload, bits) = w.finish();
        CompressedBlock::new(Algorithm::Dzc, data.len() as u32, payload, bits)
    }

    /// Allocation-free size query: the ZIB vector plus 8 bits per
    /// nonzero byte.
    fn compressed_size_bits(&self, data: &[u8]) -> u32 {
        validate_block(data);
        let nonzero = data.iter().filter(|&&b| b != 0).count() as u32;
        data.len() as u32 + 8 * nonzero
    }

    fn try_decompress_into(
        &self,
        block: &CompressedBlock,
        out: &mut [u8],
    ) -> Result<(), DecodeError> {
        crate::check_out(block, Algorithm::Dzc, out)?;
        let len = out.len();
        // The ZIB vector fits a register pair: blocks are at most 128 B.
        if len > 128 {
            return Err(DecodeError::Corrupt {
                algorithm: Algorithm::Dzc,
                detail: "block too large for DZC",
            });
        }
        let mut r = BitReader::new(block.payload());
        let mut zibs = 0u128;
        for i in 0..len {
            zibs |= (r.try_read_bits(1)? as u128) << i;
        }
        for (i, b) in out.iter_mut().enumerate() {
            *b = if (zibs >> i) & 1 == 1 { 0 } else { r.try_read_bits(8)? as u8 };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> CompressedBlock {
        let dzc = Dzc::new();
        let enc = dzc.compress(data);
        assert_eq!(dzc.decompress(&enc), data);
        assert_eq!(dzc.compressed_size_bits(data), enc.encoded_bits(), "size query");
        enc
    }

    #[test]
    fn all_zero_block_is_just_the_zib_vector() {
        let enc = round_trip(&[0u8; 32]);
        assert_eq!(enc.compressed_bytes(), 4);
    }

    #[test]
    fn no_zero_bytes_adds_one_eighth_overhead() {
        let enc = round_trip(&[0xFFu8; 32]);
        assert_eq!(enc.compressed_bytes(), 36);
        assert!(!enc.is_compressed());
    }

    #[test]
    fn size_formula_matches() {
        for nz in 0..=32usize {
            let mut block = vec![0u8; 32];
            for b in block.iter_mut().take(nz) {
                *b = 7;
            }
            let enc = round_trip(&block);
            assert_eq!(enc.encoded_bits(), 32 + 8 * nz as u32);
        }
    }

    #[test]
    fn sparse_pointer_like_data_compresses_well() {
        // Pointers with zero upper bytes: 0x0000_xxxx patterns.
        let mut block = Vec::new();
        for i in 0..8u32 {
            block.extend_from_slice(&(0x2000 + i * 4).to_le_bytes());
        }
        let enc = round_trip(&block);
        assert!(enc.compressed_bytes() <= 20);
    }

    #[test]
    fn works_on_16_and_64_byte_blocks() {
        round_trip(&[0u8; 16]);
        round_trip(&[1u8; 64]);
    }
}
