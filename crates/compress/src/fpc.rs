//! Frequent Pattern Compression (Alameldeen & Wood, UW-Madison TR 2004).
//!
//! FPC splits the block into 32-bit words and encodes each with a 3-bit
//! prefix naming one of seven frequent patterns, falling back to the raw
//! word for the eighth prefix:
//!
//! | prefix | pattern                                  | payload |
//! |--------|------------------------------------------|---------|
//! | 000    | zero-word run (1–8 words)                | 3 bits  |
//! | 001    | 4-bit sign-extended                      | 4 bits  |
//! | 010    | 8-bit sign-extended                      | 8 bits  |
//! | 011    | 16-bit sign-extended                     | 16 bits |
//! | 100    | 16-bit value padded with a zero halfword | 16 bits |
//! | 101    | two halfwords, each an 8-bit SE byte     | 16 bits |
//! | 110    | word of four repeated bytes              | 8 bits  |
//! | 111    | uncompressed word                        | 32 bits |

use crate::bitio::{BitReader, BitWriter};
use crate::{validate_block, Algorithm, CompressedBlock, Compressor, DecodeError};

const P_ZERO_RUN: u64 = 0b000;
const P_SE4: u64 = 0b001;
const P_SE8: u64 = 0b010;
const P_SE16: u64 = 0b011;
const P_HALF_PAD: u64 = 0b100;
const P_TWO_HALF: u64 = 0b101;
const P_REP_BYTE: u64 = 0b110;
const P_RAW: u64 = 0b111;

/// The Frequent Pattern Compression engine.
///
/// # Examples
///
/// ```
/// use ehs_compress::{Compressor, Fpc};
///
/// // Small sign-extended integers are FPC's bread and butter.
/// let mut block = Vec::new();
/// for i in -4i32..4 {
///     block.extend_from_slice(&i.to_le_bytes());
/// }
/// let fpc = Fpc::new();
/// let enc = fpc.compress(&block);
/// assert!(enc.compressed_bytes() < 8);
/// assert_eq!(fpc.decompress(&enc), block);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Fpc {
    _private: (),
}

impl Fpc {
    /// Creates an FPC compressor.
    pub fn new() -> Self {
        Fpc { _private: () }
    }
}

fn fits_signed(word: u32, bits: u32) -> bool {
    let v = word as i32 as i64;
    let lo = -(1i64 << (bits - 1));
    let hi = (1i64 << (bits - 1)) - 1;
    (lo..=hi).contains(&v)
}

impl Compressor for Fpc {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Fpc
    }

    fn compress(&self, data: &[u8]) -> CompressedBlock {
        validate_block(data);
        let mut w = BitWriter::new();
        for (token, width) in tokens(data) {
            w.write_bits(token, width);
        }
        let (payload, bits) = w.finish();
        CompressedBlock::new(Algorithm::Fpc, data.len() as u32, payload, bits)
    }

    /// Allocation-free size query: the widths of the [`tokens`]
    /// `compress` writes.
    fn compressed_size_bits(&self, data: &[u8]) -> u32 {
        validate_block(data);
        tokens(data).map(|(_, width)| width).sum()
    }

    fn try_decompress_into(
        &self,
        block: &CompressedBlock,
        out: &mut [u8],
    ) -> Result<(), DecodeError> {
        crate::check_out(block, Algorithm::Fpc, out)?;
        let n_words = out.len() / 4;
        let mut r = BitReader::new(block.payload());
        let mut i = 0usize;
        while i < n_words {
            let prefix = r.try_read_bits(3)?;
            let word = match prefix {
                P_ZERO_RUN => {
                    let run = r.try_read_bits(3)? as usize + 1;
                    if i + run > n_words {
                        return Err(DecodeError::Corrupt {
                            algorithm: Algorithm::Fpc,
                            detail: "zero run overflows the block",
                        });
                    }
                    for _ in 0..run {
                        crate::put_word(out, i, 0);
                        i += 1;
                    }
                    continue;
                }
                P_SE4 => sign_extend32(r.try_read_bits(4)? as u32, 4),
                P_SE8 => sign_extend32(r.try_read_bits(8)? as u32, 8),
                P_SE16 => sign_extend32(r.try_read_bits(16)? as u32, 16),
                P_HALF_PAD => (r.try_read_bits(16)? as u32) << 16,
                P_TWO_HALF => {
                    let lo = sign_extend32(r.try_read_bits(8)? as u32, 8) & 0xFFFF;
                    let hi = sign_extend32(r.try_read_bits(8)? as u32, 8) & 0xFFFF;
                    lo | (hi << 16)
                }
                P_REP_BYTE => {
                    let b = r.try_read_bits(8)? as u32;
                    b | (b << 8) | (b << 16) | (b << 24)
                }
                P_RAW => r.try_read_bits(32)? as u32,
                _ => unreachable!("3-bit prefix"),
            };
            crate::put_word(out, i, word);
            i += 1;
        }
        Ok(())
    }
}

/// The tokens FPC encodes `data` with, prefix first, and their widths in
/// bits: one per run of up to 8 zero words, one per other word.
/// `compress` writes them and `compressed_size_bits` adds up their widths.
fn tokens(data: &[u8]) -> impl Iterator<Item = (u64, u32)> + '_ {
    let mut words = data
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .peekable();
    std::iter::from_fn(move || {
        let word = words.next()?;
        if word != 0 {
            return Some(word_token(word));
        }
        let mut run = 1;
        while run < 8 && words.next_if_eq(&0).is_some() {
            run += 1;
        }
        Some(((P_ZERO_RUN << 3) | (run - 1), 6))
    })
}

/// The token FPC encodes a nonzero `word` with, prefix first, and its
/// width in bits: the first pattern of the table that fits.
fn word_token(word: u32) -> (u64, u32) {
    let (prefix, payload, width) = if fits_signed(word, 4) {
        (P_SE4, word & 0xF, 4)
    } else if fits_signed(word, 8) {
        (P_SE8, word & 0xFF, 8)
    } else if fits_signed(word, 16) {
        (P_SE16, word & 0xFFFF, 16)
    } else if word & 0xFFFF == 0 {
        // Upper halfword significant, lower half zero.
        (P_HALF_PAD, word >> 16, 16)
    } else if halves_are_se_bytes(word) {
        // The low halfword's byte, then the high halfword's.
        (P_TWO_HALF, ((word & 0xFF) << 8) | ((word >> 16) & 0xFF), 16)
    } else if is_repeated_bytes(word) {
        (P_REP_BYTE, word & 0xFF, 8)
    } else {
        (P_RAW, word, 32)
    };
    ((prefix << width) | payload as u64, 3 + width)
}

/// `true` if both halfwords are sign-extended bytes (pattern 101).
fn halves_are_se_bytes(word: u32) -> bool {
    let lo = (word & 0xFFFF) as u16;
    let hi = (word >> 16) as u16;
    let se = |h: u16| {
        let v = h as i16;
        (-128..=127).contains(&v)
    };
    se(lo) && se(hi)
}

/// `true` if all four bytes are equal (pattern 110).
fn is_repeated_bytes(word: u32) -> bool {
    let b = word & 0xFF;
    word == b | (b << 8) | (b << 16) | (b << 24)
}

fn sign_extend32(raw: u32, bits: u32) -> u32 {
    let shift = 32 - bits;
    (((raw << shift) as i32) >> shift) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> CompressedBlock {
        let fpc = Fpc::new();
        let enc = fpc.compress(data);
        assert_eq!(fpc.decompress(&enc), data, "FPC mismatch on {data:02x?}");
        assert_eq!(fpc.compressed_size_bits(data), enc.encoded_bits(), "size query");
        enc
    }

    #[test]
    fn zero_run_encoding_is_compact() {
        let enc = round_trip(&[0u8; 32]);
        // 8 zero words = one run token: 6 bits -> 1 byte.
        assert_eq!(enc.compressed_bytes(), 1);
    }

    #[test]
    fn zero_runs_split_at_eight_words() {
        let enc = round_trip(&[0u8; 64]);
        // 16 zero words = two run tokens: 12 bits -> 2 bytes.
        assert_eq!(enc.compressed_bytes(), 2);
    }

    #[test]
    fn small_integers_use_short_patterns() {
        let mut block = Vec::new();
        for v in [1i32, -1, 5, -6, 100, -100, 3000, -3000] {
            block.extend_from_slice(&v.to_le_bytes());
        }
        let enc = round_trip(&block);
        assert!(enc.compressed_bytes() < 16, "got {}", enc.compressed_bytes());
    }

    #[test]
    fn repeated_byte_words() {
        let mut block = Vec::new();
        for b in [0x11u32, 0xAA, 0x77, 0xFE] {
            block.extend_from_slice(&(b | (b << 8) | (b << 16) | (b << 24)).to_le_bytes());
        }
        let enc = round_trip(&block);
        // 4 words * 11 bits = 44 bits = 6 bytes.
        assert_eq!(enc.compressed_bytes(), 6);
    }

    #[test]
    fn halfword_padded_pattern() {
        let mut block = Vec::new();
        for v in [0x1234_0000u32, 0xFFFF_0000, 0x8000_0000, 0x00010000] {
            block.extend_from_slice(&v.to_le_bytes());
        }
        let enc = round_trip(&block);
        assert!(enc.compressed_bytes() <= 10);
    }

    #[test]
    fn two_se_halfwords_pattern() {
        // 0x00FF_0001: halves 0x00FF (=255, not SE byte) — use proper SE
        // halves like 0xFFFE (=-2) and 0x0003.
        let word = 0x0003_FFFEu32; // hi=3, lo=-2
        let mut block = Vec::new();
        for _ in 0..4 {
            block.extend_from_slice(&word.to_le_bytes());
        }
        assert!(halves_are_se_bytes(word));
        let enc = round_trip(&block);
        assert!(enc.compressed_bytes() <= 10);
    }

    #[test]
    fn incompressible_words_cost_35_bits() {
        let mut block = Vec::new();
        for v in [0x1234_5678u32, 0x9ABC_DEF0, 0x0F1E_2D3C, 0x4B5A_6978] {
            block.extend_from_slice(&v.to_le_bytes());
        }
        let enc = round_trip(&block);
        // 4 words * 35 bits = 140 bits = 18 bytes (slightly > 16: FPC tax).
        assert_eq!(enc.compressed_bytes(), 18);
    }

    #[test]
    fn ascii_text_compresses_somewhat() {
        let enc = round_trip(b"hello world, fpc here...whee!!!!");
        assert!(enc.compressed_bytes() <= 36);
    }

    #[test]
    fn helper_predicates() {
        assert!(is_repeated_bytes(0x5555_5555));
        assert!(!is_repeated_bytes(0x5555_5554));
        assert!(halves_are_se_bytes(0xFFFF_007F));
        assert!(!halves_are_se_bytes(0x0100_0000));
        assert_eq!(sign_extend32(0xF, 4), u32::MAX);
        assert_eq!(sign_extend32(0x7, 4), 7);
    }
}
