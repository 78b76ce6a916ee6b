//! C-Pack cache compression (Chen et al., IEEE TVLSI 2010).
//!
//! C-Pack examines each 32-bit word for static patterns (all zero, mostly
//! zero) and for full or partial matches against a small FIFO dictionary of
//! recently seen words. Codes, ordered by how much they pay:
//!
//! | code  | meaning                                | cost (bits) |
//! |-------|----------------------------------------|-------------|
//! | 00    | `zzzz` — zero word                     | 2           |
//! | 10    | `mmmm` — full dictionary match         | 2 + 4       |
//! | 1101  | `zzzx` — three zero bytes + literal    | 4 + 8       |
//! | 1110  | `mmmx` — 3-byte dict match + literal   | 4 + 4 + 8   |
//! | 1100  | `mmxx` — 2-byte dict match + 2 literal | 4 + 4 + 16  |
//! | 01    | `xxxx` — unmatched word                | 2 + 32      |
//!
//! The dictionary is rebuilt identically during decompression: every word
//! emitted as `xxxx`, `mmxx` or `mmmx` is pushed in FIFO order, so encoder
//! and decoder stay in lockstep.

use crate::bitio::{BitReader, BitWriter};
use crate::{validate_block, Algorithm, CompressedBlock, Compressor, DecodeError};

const DICT_ENTRIES: usize = 16;
const IDX_BITS: u32 = 4;

/// The C-Pack compressor.
///
/// # Examples
///
/// ```
/// use ehs_compress::{CPack, Compressor};
///
/// // Repeating words become full dictionary matches after first sight.
/// let mut block = Vec::new();
/// for _ in 0..8 {
///     block.extend_from_slice(&0xCAFE_F00Du32.to_le_bytes());
/// }
/// let cpack = CPack::new();
/// let enc = cpack.compress(&block);
/// assert!(enc.compressed_bytes() < 16);
/// assert_eq!(cpack.decompress(&enc), block);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CPack {
    _private: (),
}

impl CPack {
    /// Creates a C-Pack compressor.
    pub fn new() -> Self {
        CPack { _private: () }
    }
}

/// FIFO dictionary shared (structurally) by encoder and decoder.
///
/// Fixed-size, like the hardware CAM it models — no heap allocation per
/// compression or decompression.
#[derive(Debug, Default)]
struct Dictionary {
    words: [u32; DICT_ENTRIES],
    len: usize,
    next: usize,
}

impl Dictionary {
    fn push(&mut self, word: u32) {
        if self.len < DICT_ENTRIES {
            self.words[self.len] = word;
            self.len += 1;
        } else {
            self.words[self.next] = word;
            self.next = (self.next + 1) % DICT_ENTRIES;
        }
    }

    /// Finds the best match, preferring full > 3-byte > 2-byte.
    fn best_match(&self, word: u32) -> Option<(usize, MatchKind)> {
        let mut best: Option<(usize, MatchKind)> = None;
        for (i, &d) in self.words[..self.len].iter().enumerate() {
            let kind = if d == word {
                MatchKind::Full
            } else if (d ^ word) & 0xFFFF_FF00 == 0 {
                MatchKind::High3
            } else if (d ^ word) & 0xFFFF_0000 == 0 {
                MatchKind::High2
            } else {
                continue;
            };
            if best.is_none_or(|(_, k)| kind > k) {
                best = Some((i, kind));
                if kind == MatchKind::Full {
                    break;
                }
            }
        }
        best
    }

    fn get(&self, idx: usize) -> u32 {
        self.words[idx]
    }
}

/// The token C-Pack encodes `word` with, code first, and its width in
/// bits, given the dictionary so far. Pushes every word the decoder will
/// push (`xxxx`, `mmxx` and `mmmx`), so encoder and decoder stay in
/// lockstep.
fn word_token(dict: &mut Dictionary, word: u32) -> (u64, u32) {
    let w = word as u64;
    if word == 0 {
        return (0b00, 2); // zzzz
    }
    if word <= 0xFF {
        return ((0b1101 << 8) | w, 12); // zzzx
    }
    let token = match dict.best_match(word) {
        // mmmm
        Some((idx, MatchKind::Full)) => return ((0b10 << 4) | idx as u64, 6),
        // mmmx
        Some((idx, MatchKind::High3)) => ((0b1110 << 12) | ((idx as u64) << 8) | (w & 0xFF), 16),
        // mmxx
        Some((idx, MatchKind::High2)) => ((0b1100 << 20) | ((idx as u64) << 16) | (w & 0xFFFF), 24),
        // xxxx
        None => ((0b01 << 32) | w, 34),
    };
    dict.push(word);
    token
}

/// The tokens C-Pack encodes `data` with, code first, and their widths
/// in bits: one per word, from one dictionary walk. `compress` writes
/// them and `compressed_size_bits` adds up their widths.
fn tokens(data: &[u8]) -> impl Iterator<Item = (u64, u32)> + '_ {
    let mut dict = Dictionary::default();
    data.chunks_exact(4).map(move |chunk| {
        word_token(&mut dict, u32::from_le_bytes(chunk.try_into().expect("4-byte chunk")))
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum MatchKind {
    High2,
    High3,
    Full,
}

impl Compressor for CPack {
    fn algorithm(&self) -> Algorithm {
        Algorithm::CPack
    }

    fn compress(&self, data: &[u8]) -> CompressedBlock {
        validate_block(data);
        let mut w = BitWriter::new();
        for (token, width) in tokens(data) {
            w.write_bits(token, width);
        }
        let (payload, bits) = w.finish();
        CompressedBlock::new(Algorithm::CPack, data.len() as u32, payload, bits)
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
        crate::check_out(block, Algorithm::CPack, out)?;
        let n_words = out.len() / 4;
        let mut dict = Dictionary::default();
        let mut r = BitReader::new(block.payload());
        for i in 0..n_words {
            let word = match r.try_read_bits(2)? {
                0b00 => 0,
                0b01 => {
                    let word = r.try_read_bits(32)? as u32;
                    dict.push(word);
                    word
                }
                0b10 => dict.get(r.try_read_bits(IDX_BITS)? as usize),
                _ => match r.try_read_bits(2)? {
                    0b01 => r.try_read_bits(8)? as u32, // zzzx
                    0b10 => {
                        // mmmx
                        let idx = r.try_read_bits(IDX_BITS)? as usize;
                        let lit = r.try_read_bits(8)? as u32;
                        let word = (dict.get(idx) & 0xFFFF_FF00) | lit;
                        dict.push(word);
                        word
                    }
                    0b00 => {
                        // mmxx
                        let idx = r.try_read_bits(IDX_BITS)? as usize;
                        let lit = r.try_read_bits(16)? as u32;
                        let word = (dict.get(idx) & 0xFFFF_0000) | lit;
                        dict.push(word);
                        word
                    }
                    // The encoder never emits code 1111: only a corrupted
                    // stream reaches here.
                    _ => {
                        return Err(DecodeError::Corrupt {
                            algorithm: Algorithm::CPack,
                            detail: "code 1111 is never emitted",
                        })
                    }
                },
            };
            crate::put_word(out, i, word);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> CompressedBlock {
        let c = CPack::new();
        let enc = c.compress(data);
        assert_eq!(c.decompress(&enc), data, "C-Pack mismatch on {data:02x?}");
        assert_eq!(c.compressed_size_bits(data), enc.encoded_bits(), "size query");
        enc
    }

    #[test]
    fn zero_block_costs_two_bits_per_word() {
        let enc = round_trip(&[0u8; 32]);
        assert_eq!(enc.compressed_bytes(), 2); // 8 words * 2 bits
    }

    #[test]
    fn repeating_word_hits_dictionary() {
        let mut block = Vec::new();
        for _ in 0..8 {
            block.extend_from_slice(&0x1122_3344u32.to_le_bytes());
        }
        let enc = round_trip(&block);
        // First word xxxx (34 bits), then 7 * mmmm (6 bits) = 76 bits = 10B.
        assert_eq!(enc.compressed_bytes(), 10);
    }

    #[test]
    fn partial_matches_use_mmmx() {
        let mut block = Vec::new();
        // Same upper 3 bytes, different low byte.
        for i in 0..8u32 {
            block.extend_from_slice(&(0xAABB_CC00 + i).to_le_bytes());
        }
        let enc = round_trip(&block);
        // xxxx + 7 * mmmx(16) = 34 + 112 = 146 bits = 19 B.
        assert_eq!(enc.compressed_bytes(), 19);
    }

    #[test]
    fn small_bytes_use_zzzx() {
        let mut block = Vec::new();
        for i in 1..9u32 {
            block.extend_from_slice(&i.to_le_bytes());
        }
        let enc = round_trip(&block);
        // 8 words * 12 bits = 96 bits = 12 B.
        assert_eq!(enc.compressed_bytes(), 12);
    }

    #[test]
    fn dictionary_fifo_eviction_stays_in_sync() {
        // More than DICT_ENTRIES distinct words, then repeats of the late
        // ones: forces FIFO wraparound on both sides.
        let mut block = Vec::new();
        for i in 0..20u32 {
            block.extend_from_slice(&(0x0101_0000u32 + i * 0x10101).to_le_bytes());
        }
        for i in 15..20u32 {
            block.extend_from_slice(&(0x0101_0000u32 + i * 0x10101).to_le_bytes());
        }
        round_trip(&block);
    }

    #[test]
    fn mixed_content_round_trips() {
        let block: Vec<u8> = (0..64u32).flat_map(|i| (i * 0x0101_0101 / 3).to_le_bytes()).collect();
        round_trip(&block);
    }

    #[test]
    fn match_kind_ordering_prefers_full() {
        assert!(MatchKind::Full > MatchKind::High3);
        assert!(MatchKind::High3 > MatchKind::High2);
    }

    #[test]
    fn full_match_beats_an_earlier_partial_one() {
        let mut dict = Dictionary::default();
        dict.push(0xAABB_CC00);
        dict.push(0xAABB_CC01);
        assert_eq!(dict.best_match(0xAABB_CC01), Some((1, MatchKind::Full)));
        assert_eq!(dict.best_match(0xAABB_CC05), Some((0, MatchKind::High3)));
        // xxxx, then mmmx against entry 0, then mmmm against entry 1.
        let block: Vec<u8> = [0xAABB_CC00u32, 0xAABB_CC01, 0xAABB_CC01]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        assert_eq!(round_trip(&block).encoded_bits(), 34 + 16 + 6);
    }
}
