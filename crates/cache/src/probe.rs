//! Zero-cost-when-detached cache introspection.
//!
//! A [`CacheProbe`] is the cache-microarchitecture twin of the simulator's
//! flight recorder: the cache holds a `Vec<Box<dyn CacheProbe>>` and every
//! report site fans out over it, so a cache with no probe (the default)
//! pays one empty-vector check per site (perfbench's probe-free `sim_mips`
//! tracks it). Each attached probe sees every hit, fill and eviction with
//! the segment-level detail — compressed footprint, set index, reuse and
//! lifetime in recency ticks — that end-of-run [`CacheStats`] totals
//! cannot reconstruct. Probes are independent, so one run can feed a
//! cachescope aggregator and a leak timeline from the same data cache.
//!
//! The trait lives in `ehs-cache` so the cache stays free of telemetry
//! dependencies; the implementations (cachescope's aggregator in
//! `ehs-sim`, [`crate::AccessTimeline`] here) are recovered by type
//! through `CompressedCache::probe_mut` and `CompressedCache::take_probe`
//! (`CacheProbe: Any`, so a probe upcasts to `dyn Any` and downcasts).
//!
//! # Determinism contract
//!
//! Probe callbacks describe *architectural* events only, with arguments
//! derived from cache state that the fast-forward and reference execution
//! loops maintain identically. The batched report
//! [`CacheProbe::on_hit_run`] is defined as exactly `n` MRU hits of reuse
//! distance 1, which is what the per-instruction loop reports one at a
//! time — so an attached probe observes the same stream under either loop
//! (the fastpath differential suite asserts this end to end).
//!
//! [`CacheStats`]: crate::CacheStats

/// Why a block left the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionReason {
    /// LRU replacement to make room in the data or tag array.
    Capacity,
    /// Explicit invalidation by a policy (e.g. EDBP dead-block
    /// retirement).
    Forced,
    /// SRAM contents lost at a power failure.
    PowerLoss,
}

impl EvictionReason {
    /// Stable lower-case label (`"capacity"`, `"forced"`, `"power_loss"`).
    pub fn label(self) -> &'static str {
        match self {
            EvictionReason::Capacity => "capacity",
            EvictionReason::Forced => "forced",
            EvictionReason::PowerLoss => "power_loss",
        }
    }
}

/// One hit report: where it landed and how the block sat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeHit {
    /// Set index.
    pub set: u32,
    /// Whether the block was stored compressed (the hit paid a
    /// decompression).
    pub was_compressed: bool,
    /// Data-array footprint of the block in segments.
    pub segments: u32,
    /// Recency-tick distance since the block's previous access (1 for a
    /// back-to-back re-reference) — the cache-level reuse distance.
    pub reuse: u64,
}

/// One fill report: the incoming block's footprint and the set's
/// occupancy after insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeFill {
    /// Set index.
    pub set: u32,
    /// Data-array footprint of the stored block in segments.
    pub segments: u32,
    /// Segments of an uncompressed block (for ratio bookkeeping).
    pub full_segments: u32,
    /// Whether the block was stored compressed.
    pub stored_compressed: bool,
    /// Data-array segments in use in the set after the fill.
    pub used_after: u32,
    /// Resident blocks in the set after the fill.
    pub blocks_after: u32,
}

/// One eviction report: why the block left and how long it lived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeEviction {
    /// Set index.
    pub set: u32,
    /// Why the block left.
    pub reason: EvictionReason,
    /// Data-array footprint in segments at eviction.
    pub segments: u32,
    /// Whether the block sat compressed.
    pub was_compressed: bool,
    /// Recency ticks between fill and eviction (block lifetime).
    pub lifetime: u64,
    /// Recency ticks since the block's last access (dead time).
    pub idle: u64,
}

/// Observer for per-access cache events; see the module docs for the
/// zero-cost and determinism contracts.
///
/// All methods default to no-ops so implementations subscribe only to
/// what they fold. `Debug` is a supertrait so instrumented caches keep
/// their derived `Debug`; `Any` lets the cache hand probes back by type.
pub trait CacheProbe: std::any::Any + std::fmt::Debug {
    /// A read or write hit (shallow fused commits included).
    fn on_hit(&mut self, _hit: ProbeHit) {}

    /// `n` back-to-back MRU read hits on one uncompressed block,
    /// reported in one call by the fast path's ALU-run batching.
    /// Equivalent to `n` [`CacheProbe::on_hit`] reports with
    /// `was_compressed: false` and `reuse: 1`.
    fn on_hit_run(&mut self, _set: u32, _full_segments: u32, _n: u64) {}

    /// A block was inserted.
    fn on_fill(&mut self, _fill: ProbeFill) {}

    /// A block left the cache.
    fn on_evict(&mut self, _evt: ProbeEviction) {}
}
