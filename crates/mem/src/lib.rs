//! Nonvolatile main-memory model for the Kagura stack.
//!
//! The paper's EHS pairs a volatile SRAM cache with NVM main memory (16 MB
//! ReRAM by default; PCM and STT-RAM in the sensitivity study). Two things
//! about the NVM matter to Kagura:
//!
//! 1. **It is expensive** — per-block read/write latency and energy are an
//!    order of magnitude above an SRAM hit, which is what makes wasted
//!    compressions costly (every avoidable miss pays `E_miss`).
//! 2. **It holds real bytes** — compressors operate on actual block
//!    contents, so the NVM is a lazily-materialised byte store seeded from a
//!    deterministic [`MemoryImage`] describing what a program's address
//!    space looks like (zero BSS, text-like regions, gradient arrays, …).
//!
//! # Examples
//!
//! ```
//! use ehs_mem::{MemoryImage, Nvm};
//! use ehs_model::{Address, NvmParams};
//!
//! let mut nvm = Nvm::new(NvmParams::table1(), 32, MemoryImage::zeros());
//! let read = nvm.read_block(Address::new(0x100));
//! assert!(read.data.is_all_zero());
//! assert_eq!(read.latency, NvmParams::table1().read_latency);
//! ```

pub mod image;

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use ehs_model::{Address, BlockData, Cycles, Energy, NvmParams};
use serde::{Deserialize, Serialize};

pub use image::{ImageKind, MemoryImage};

/// Multiplicative hasher for block indices.
///
/// The block map is on the simulator's NVM fill/write-back path, where
/// SipHash on a `u64` key is measurable. Keys are block indices from
/// deterministic kernels — not attacker-controlled — so a Fibonacci
/// multiply (golden-ratio constant) mixes plenty. Nothing observable
/// depends on map order: [`Nvm::resident_indices`] is documented
/// unordered and every consumer sorts.
#[derive(Default)]
struct BlockIndexHasher(u64);

impl Hasher for BlockIndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (unused by u64 keys); fold bytes in.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // High bits carry the mix; HashMap keeps the low bits.
        self.0.rotate_left(32)
    }
}

type BlockMap = HashMap<u64, BlockData, BuildHasherDefault<BlockIndexHasher>>;

/// The outcome of one NVM block read.
#[derive(Debug, Clone, PartialEq)]
pub struct NvmRead {
    /// The block contents.
    pub data: BlockData,
    /// Access latency in core cycles.
    pub latency: Cycles,
    /// Energy consumed by the access.
    pub energy: Energy,
}

/// The outcome of one NVM block write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmWrite {
    /// Access latency in core cycles.
    pub latency: Cycles,
    /// Energy consumed by the access.
    pub energy: Energy,
}

/// Cumulative NVM traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NvmStats {
    /// Number of block reads served.
    pub reads: u64,
    /// Number of block writes absorbed.
    pub writes: u64,
    /// Total read energy.
    pub read_energy: Energy,
    /// Total write energy.
    pub write_energy: Energy,
}

impl NvmStats {
    /// Total energy spent in the NVM.
    pub fn total_energy(&self) -> Energy {
        self.read_energy + self.write_energy
    }
}

/// The nonvolatile main memory.
///
/// Blocks are materialised on first touch from the [`MemoryImage`] and kept
/// in a hash map thereafter, so arbitrarily large address spaces cost only
/// what the workload actually touches. Contents survive "power failure" by
/// construction — the simulator simply never clears this structure.
#[derive(Debug, Clone)]
pub struct Nvm {
    params: NvmParams,
    block_size: u32,
    addr_mask: u64,
    image: MemoryImage,
    blocks: BlockMap,
    stats: NvmStats,
}

impl Nvm {
    /// Creates an NVM of the given parameters, block granularity and
    /// initial image.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two ≥ 4 or the NVM capacity
    /// is not a power of two multiple of the block size.
    pub fn new(params: NvmParams, block_size: u32, image: MemoryImage) -> Self {
        assert!(block_size >= 4 && block_size.is_power_of_two(), "bad block size {block_size}");
        assert!(
            params.size_bytes.is_power_of_two() && params.size_bytes >= block_size as u64,
            "NVM capacity must be a power of two >= block size"
        );
        Nvm {
            params,
            block_size,
            addr_mask: params.size_bytes - 1,
            image,
            blocks: BlockMap::default(),
            stats: NvmStats::default(),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &NvmParams {
        &self.params
    }

    /// Block granularity in bytes.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> NvmStats {
        self.stats
    }

    fn wrap(&self, addr: Address) -> u64 {
        (addr.get() & self.addr_mask) >> self.block_size.trailing_zeros()
    }

    fn materialize(&mut self, block_index: u64) -> &mut BlockData {
        let size = self.block_size;
        let image = &self.image;
        self.blocks.entry(block_index).or_insert_with(|| image.materialize(block_index, size))
    }

    /// Reads the block containing `addr`, paying the technology's read cost.
    ///
    /// Addresses beyond the capacity wrap (the physical address space is a
    /// power of two).
    pub fn read_block(&mut self, addr: Address) -> NvmRead {
        let idx = self.wrap(addr);
        let data = self.materialize(idx).clone();
        self.stats.reads += 1;
        self.stats.read_energy += self.params.read_energy;
        NvmRead { data, latency: self.params.read_latency, energy: self.params.read_energy }
    }

    /// Writes a full block at the block containing `addr`, paying the
    /// technology's write cost.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block long.
    pub fn write_block(&mut self, addr: Address, data: BlockData) -> NvmWrite {
        assert_eq!(data.len(), self.block_size as usize, "write must be one full block");
        let idx = self.wrap(addr);
        self.blocks.insert(idx, data);
        self.stats.writes += 1;
        self.stats.write_energy += self.params.write_energy;
        NvmWrite { latency: self.params.write_latency, energy: self.params.write_energy }
    }

    /// Like [`Nvm::write_block`], but borrows the data: an already
    /// materialised block is overwritten in place, so steady-state
    /// write-backs allocate nothing. Only a first touch clones.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block long.
    pub fn write_block_from(&mut self, addr: Address, data: &BlockData) -> NvmWrite {
        assert_eq!(data.len(), self.block_size as usize, "write must be one full block");
        let idx = self.wrap(addr);
        self.blocks
            .entry(idx)
            .and_modify(|b| b.as_mut_slice().copy_from_slice(data.as_slice()))
            .or_insert_with(|| data.clone());
        self.stats.writes += 1;
        self.stats.write_energy += self.params.write_energy;
        NvmWrite { latency: self.params.write_latency, energy: self.params.write_energy }
    }

    /// Writes a full block *without* paying an access cost and without
    /// touching the traffic counters.
    ///
    /// This models data whose persistence was already paid for elsewhere —
    /// e.g. NvMR's renamed store writes are charged incrementally as the
    /// stores commit, so the coherence write-back at power failure is free.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block long.
    pub fn store_silent(&mut self, addr: Address, data: BlockData) {
        assert_eq!(data.len(), self.block_size as usize, "write must be one full block");
        let idx = self.wrap(addr);
        self.blocks.insert(idx, data);
    }

    /// Like [`Nvm::store_silent`], but borrows the data: an already
    /// materialised block is overwritten in place (no per-call clone).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block long.
    pub fn store_silent_from(&mut self, addr: Address, data: &BlockData) {
        assert_eq!(data.len(), self.block_size as usize, "write must be one full block");
        let idx = self.wrap(addr);
        self.blocks
            .entry(idx)
            .and_modify(|b| b.as_mut_slice().copy_from_slice(data.as_slice()))
            .or_insert_with(|| data.clone());
    }

    /// Inspects block contents without paying an access (testing/debug aid;
    /// does not touch the stats).
    pub fn peek_block(&mut self, addr: Address) -> &BlockData {
        let idx = self.wrap(addr);
        self.materialize(idx)
    }

    /// Number of blocks materialised so far (testing/debug aid).
    pub fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Block indices materialised so far, unordered (testing/debug aid).
    pub fn resident_indices(&self) -> Vec<u64> {
        self.blocks.keys().copied().collect()
    }

    /// Base byte address of block index `idx`.
    pub fn block_addr(&self, idx: u64) -> Address {
        Address::new(idx * self.block_size as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_model::NvmKind;

    fn small_nvm(image: MemoryImage) -> Nvm {
        Nvm::new(NvmParams::new(NvmKind::ReRam, 1 << 20), 32, image)
    }

    #[test]
    fn reads_are_lazy_and_deterministic() {
        let mut nvm = small_nvm(MemoryImage::random(7));
        assert_eq!(nvm.resident_blocks(), 0);
        let a = nvm.read_block(Address::new(0x40)).data;
        let b = nvm.read_block(Address::new(0x40)).data;
        assert_eq!(a, b);
        assert_eq!(nvm.resident_blocks(), 1);

        // A second NVM with the same image yields identical bytes.
        let mut nvm2 = small_nvm(MemoryImage::random(7));
        assert_eq!(nvm2.read_block(Address::new(0x40)).data, a);
        // And a different seed yields different bytes.
        let mut nvm3 = small_nvm(MemoryImage::random(8));
        assert_ne!(nvm3.read_block(Address::new(0x40)).data, a);
    }

    #[test]
    fn writes_persist() {
        let mut nvm = small_nvm(MemoryImage::zeros());
        let mut block = BlockData::zeroed(32);
        block.write_u32(0, 0xABCD);
        nvm.write_block(Address::new(0x1000), block.clone());
        assert_eq!(nvm.read_block(Address::new(0x1000)).data, block);
    }

    #[test]
    fn sub_block_addresses_alias_to_same_block() {
        let mut nvm = small_nvm(MemoryImage::zeros());
        let mut block = BlockData::zeroed(32);
        block.write_u32(4, 42);
        nvm.write_block(Address::new(0x2000), block);
        // Any address inside [0x2000, 0x2020) reads the same block.
        assert_eq!(nvm.read_block(Address::new(0x201C)).data.read_u32(4), 42);
    }

    #[test]
    fn addresses_wrap_at_capacity() {
        let mut nvm = small_nvm(MemoryImage::zeros());
        let mut block = BlockData::zeroed(32);
        block.write_u32(0, 9);
        nvm.write_block(Address::new(0x123), block);
        let wrapped = Address::new(0x123 + (1 << 20));
        assert_eq!(nvm.read_block(wrapped).data.read_u32(0), 9);
    }

    #[test]
    fn costs_match_technology_parameters() {
        let params = NvmParams::new(NvmKind::Pcm, 1 << 20);
        let mut nvm = Nvm::new(params, 32, MemoryImage::zeros());
        let r = nvm.read_block(Address::new(0));
        assert_eq!(r.latency, params.read_latency);
        assert_eq!(r.energy, params.read_energy);
        let w = nvm.write_block(Address::new(0), BlockData::zeroed(32));
        assert_eq!(w.latency, params.write_latency);
        assert_eq!(w.energy, params.write_energy);
        let s = nvm.stats();
        assert_eq!((s.reads, s.writes), (1, 1));
        assert_eq!(s.total_energy(), params.read_energy + params.write_energy);
    }

    #[test]
    fn peek_does_not_count_as_traffic() {
        let mut nvm = small_nvm(MemoryImage::zeros());
        let _ = nvm.peek_block(Address::new(0x40));
        assert_eq!(nvm.stats().reads, 0);
    }

    #[test]
    #[should_panic(expected = "one full block")]
    fn wrong_sized_write_rejected() {
        let mut nvm = small_nvm(MemoryImage::zeros());
        nvm.write_block(Address::new(0), BlockData::zeroed(16));
    }
}
