//! Hardware parameter tables (paper Table I, plus documented extrapolations).
//!
//! These structs carry the "physics constants" shared by several crates:
//! per-event energies, latencies and geometry. The defaults reproduce the
//! paper's Table I where it gives numbers (cache access 9 pJ, BDI compress
//! 3.84 pJ / decompress 0.65 pJ, 16 MB ReRAM, 200 MHz in-order core); the
//! remaining constants are chosen to plausible 45 nm LOP magnitudes and are
//! documented in DESIGN.md.

use serde::{Deserialize, Serialize};

use crate::energy::{Energy, Power};
use crate::time::Cycles;

/// Parameters of the in-order core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreParams {
    /// Clock frequency in hertz.
    pub clock_hz: f64,
    /// Dynamic pipeline energy charged per committed instruction.
    pub inst_energy: Energy,
}

impl CoreParams {
    /// Paper Table I: single-core in-order five-stage pipeline at 200 MHz.
    pub fn table1() -> Self {
        CoreParams { clock_hz: crate::time::CLOCK_HZ, inst_energy: Energy::from_picojoules(5.0) }
    }
}

impl Default for CoreParams {
    fn default() -> Self {
        Self::table1()
    }
}

/// Geometry and cost parameters of one SRAM cache (ICache or DCache).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheParams {
    /// Total data capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (number of ways per set).
    pub ways: u32,
    /// Block (line) size in bytes.
    pub block_size: u32,
    /// Hit latency in core cycles.
    pub hit_latency: Cycles,
    /// Dynamic energy per cache access (hit or fill).
    pub access_energy: Energy,
    /// Static leakage power per byte of capacity, drawn while powered.
    pub leakage_per_byte: Power,
}

impl CacheParams {
    /// Paper Table I: 256 B, 2-way, 32 B blocks, 1-cycle hits, 9 pJ/access.
    pub fn table1() -> Self {
        CacheParams {
            size_bytes: 256,
            ways: 2,
            block_size: 32,
            hit_latency: Cycles::new(1),
            access_energy: Energy::from_picojoules(9.0),
            // Calibrated so that the Fig-1 trade-off reproduces: at 256B the
            // leak is a few percent of active draw; at 4kB it rivals it.
            leakage_per_byte: Power::from_nanowatts(600.0),
        }
    }

    /// Returns a copy with a different total capacity.
    pub fn with_size(mut self, size_bytes: u32) -> Self {
        self.size_bytes = size_bytes;
        self
    }

    /// Returns a copy with a different associativity.
    pub fn with_ways(mut self, ways: u32) -> Self {
        self.ways = ways;
        self
    }

    /// Returns a copy with a different block size.
    pub fn with_block_size(mut self, block_size: u32) -> Self {
        self.block_size = block_size;
        self
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`CacheParams::check_geometry`]).
    pub fn num_sets(&self) -> u32 {
        self.check_geometry().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of sets implied by the geometry, or why there is none: the
    /// capacity must divide into `ways * block_size` sets, and the set
    /// count must be a power of two.
    pub fn check_geometry(&self) -> Result<u32, &'static str> {
        let set_bytes = self.ways * self.block_size;
        if set_bytes == 0 || !self.size_bytes.is_multiple_of(set_bytes) {
            return Err("inconsistent cache geometry");
        }
        let sets = self.size_bytes / set_bytes;
        if !sets.is_power_of_two() {
            return Err("set count must be a power of two");
        }
        Ok(sets)
    }

    /// Total leakage power of this cache while the core is powered.
    pub fn leakage(&self) -> Power {
        self.leakage_per_byte * self.size_bytes as f64
    }
}

impl Default for CacheParams {
    fn default() -> Self {
        Self::table1()
    }
}

/// The nonvolatile main-memory technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NvmKind {
    /// Resistive RAM (paper default).
    ReRam,
    /// Phase-change memory.
    Pcm,
    /// Spin-transfer-torque RAM.
    SttRam,
}

impl NvmKind {
    /// All modelled technologies, in the paper's presentation order.
    pub const ALL: [NvmKind; 3] = [NvmKind::ReRam, NvmKind::Pcm, NvmKind::SttRam];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            NvmKind::ReRam => "ReRAM",
            NvmKind::Pcm => "PCM",
            NvmKind::SttRam => "STTRAM",
        }
    }
}

impl std::fmt::Display for NvmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cost and capacity parameters of the NVM main memory.
///
/// Latency/energy are per *block* transfer (one cache line). The ReRAM
/// defaults derive from Table I's DDR-style timing (tRCD 18 ns + tCL 15 ns +
/// burst ≈ 10 cycles at 200 MHz; tWR 150 ns ≈ 30 cycles).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NvmParams {
    /// Technology.
    pub kind: NvmKind,
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Block read latency in core cycles.
    pub read_latency: Cycles,
    /// Block write latency in core cycles.
    pub write_latency: Cycles,
    /// Energy per block read.
    pub read_energy: Energy,
    /// Energy per block write.
    pub write_energy: Energy,
}

impl NvmParams {
    /// Paper Table I default: 16 MB ReRAM.
    pub fn table1() -> Self {
        Self::new(NvmKind::ReRam, 16 << 20)
    }

    /// Creates parameters for a given technology and capacity.
    pub fn new(kind: NvmKind, size_bytes: u64) -> Self {
        let (rl, wl, re, we) = match kind {
            NvmKind::ReRam => (10, 30, 150.0, 600.0),
            NvmKind::Pcm => (12, 60, 200.0, 900.0),
            NvmKind::SttRam => (8, 20, 120.0, 350.0),
        };
        // Larger arrays have longer bitlines and higher access energy; scale
        // energy mildly (+10 % per doubling above 16 MB, -10 % per halving).
        let doublings = ((size_bytes as f64) / (16u64 << 20) as f64).log2();
        let scale = 1.0 + 0.10 * doublings;
        NvmParams {
            kind,
            size_bytes,
            read_latency: Cycles::new(rl),
            write_latency: Cycles::new(wl),
            read_energy: Energy::from_picojoules(re * scale),
            write_energy: Energy::from_picojoules(we * scale),
        }
    }
}

impl Default for NvmParams {
    fn default() -> Self {
        Self::table1()
    }
}

/// Energy and latency cost of one compression algorithm's engine.
///
/// The BDI numbers come from paper Table I; the others are extrapolated in
/// proportion to hardware complexity (see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompressorCost {
    /// Energy to compress one block on fill.
    pub compress_energy: Energy,
    /// Energy to decompress one block on access or eviction.
    pub decompress_energy: Energy,
    /// Extra cycles added to a fill that compresses.
    pub compress_latency: Cycles,
    /// Extra cycles added to an access that decompresses.
    pub decompress_latency: Cycles,
}

impl CompressorCost {
    /// Paper Table I: BDI compress 3.84 pJ, decompress 0.65 pJ.
    pub fn bdi_table1() -> Self {
        CompressorCost {
            compress_energy: Energy::from_picojoules(3.84),
            decompress_energy: Energy::from_picojoules(0.65),
            compress_latency: Cycles::new(3),
            decompress_latency: Cycles::new(1),
        }
    }
}

impl Default for CompressorCost {
    fn default() -> Self {
        Self::bdi_table1()
    }
}

/// The hardware parameter bundle shared by all EHS designs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SystemParams {
    /// Core parameters.
    pub core: CoreParams,
    /// Instruction-cache parameters.
    pub icache: CacheParams,
    /// Data-cache parameters.
    pub dcache: CacheParams,
    /// Main-memory parameters.
    pub nvm: NvmParams,
}

impl SystemParams {
    /// The paper's Table I configuration.
    pub fn table1() -> Self {
        SystemParams {
            core: CoreParams::table1(),
            icache: CacheParams::table1(),
            dcache: CacheParams::table1(),
            nvm: NvmParams::table1(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_numbers() {
        let p = SystemParams::table1();
        assert_eq!(p.dcache.size_bytes, 256);
        assert_eq!(p.dcache.ways, 2);
        assert_eq!(p.dcache.block_size, 32);
        assert_eq!(p.dcache.access_energy.picojoules(), 9.0);
        assert_eq!(p.nvm.size_bytes, 16 << 20);
        assert_eq!(p.core.clock_hz, 200.0e6);
        let bdi = CompressorCost::bdi_table1();
        assert_eq!(bdi.compress_energy.picojoules(), 3.84);
        assert_eq!(bdi.decompress_energy.picojoules(), 0.65);
    }

    #[test]
    fn cache_geometry_derivation() {
        // 256 B / (2 ways * 32 B) = 4 sets.
        assert_eq!(CacheParams::table1().num_sets(), 4);
        assert_eq!(CacheParams::table1().with_size(4096).num_sets(), 64);
        assert_eq!(CacheParams::table1().with_ways(1).num_sets(), 8);
        assert_eq!(CacheParams::table1().with_block_size(16).num_sets(), 8);
    }

    #[test]
    fn geometry_check_names_the_broken_rule() {
        let table1 = CacheParams::table1();
        assert_eq!(table1.check_geometry(), Ok(4));
        assert_eq!(table1.with_ways(0).check_geometry(), Err("inconsistent cache geometry"));
        assert_eq!(table1.with_size(100).check_geometry(), Err("inconsistent cache geometry"));
        assert_eq!(table1.with_size(192).check_geometry(), Err("set count must be a power of two"));
    }

    #[test]
    #[should_panic(expected = "inconsistent cache geometry")]
    fn bad_geometry_panics() {
        let _ = CacheParams::table1().with_size(100).num_sets();
    }

    #[test]
    fn cache_leakage_scales_with_size() {
        let small = CacheParams::table1();
        let large = small.with_size(4096);
        assert!((large.leakage().watts() / small.leakage().watts() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn nvm_energy_scales_with_capacity() {
        let base = NvmParams::new(NvmKind::ReRam, 16 << 20);
        let big = NvmParams::new(NvmKind::ReRam, 32 << 20);
        let small = NvmParams::new(NvmKind::ReRam, 8 << 20);
        assert!(big.read_energy > base.read_energy);
        assert!(small.read_energy < base.read_energy);
    }

    #[test]
    fn nvm_kinds_have_distinct_costs() {
        let r = NvmParams::new(NvmKind::ReRam, 16 << 20);
        let p = NvmParams::new(NvmKind::Pcm, 16 << 20);
        let s = NvmParams::new(NvmKind::SttRam, 16 << 20);
        assert!(p.write_energy > r.write_energy);
        assert!(s.write_energy < r.write_energy);
        assert_eq!(NvmKind::ALL.len(), 3);
        assert_eq!(NvmKind::Pcm.to_string(), "PCM");
    }
}
