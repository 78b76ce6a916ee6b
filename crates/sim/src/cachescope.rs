//! Cachescope: constant-memory online aggregation of cache-probe events.
//!
//! The cache crate defines the reporting side ([`CacheProbe`]); this
//! module is the folding side. A [`CachescopeAggregator`] attaches to
//! each cache and folds every hit, fill and eviction into fixed-size
//! histograms and counters — per-set occupancy, compression ratio, block
//! lifetime, dead time, sampled reuse distance, and the eviction-reason
//! split — so memory stays O(sets + buckets) no matter how long the run.
//! The simulator adds what only it can see: the per-access latency
//! attribution split ([`LatencyAttribution`]) and boundary snapshots
//! ([`CycleScope`] at every power-cycle boundary, [`OccupancySnapshot`]
//! every `snapshot_period` executed instructions).
//!
//! # Determinism
//!
//! Everything here is a pure fold over the probe event stream plus
//! simulator state that the machine loop maintains identically with its
//! host shortcuts on or off, so a [`CachescopeReport`] is bit-identical
//! between the two [`crate::ExecMode`]s (`tests/fastpath.rs` asserts this,
//! along with `SimStats` equality and the exact cycle partition
//! `latency.total() == stats.total_cycles`). No observer switches the
//! shortcuts off, so a cachescope shares a run with telemetry and a leak
//! timeline without changing any of their outputs.

use ehs_cache::SetOccupancy;
use ehs_cache::{CacheConfig, CacheProbe, EvictionReason, ProbeEviction, ProbeFill, ProbeHit};
use ehs_telemetry::Histogram;

/// Reuse-distance observations are sampled: every `REUSE_SAMPLE_PERIOD`-th
/// hit contributes its reuse distance to the histogram. Sampling keeps the
/// batched fast-path report O(1) per run ([`CacheProbe::on_hit_run`]
/// computes how many multiples of the period the run crosses) while the
/// distribution stays representative.
pub const REUSE_SAMPLE_PERIOD: u64 = 64;

/// Log-spaced bucket bounds for recency-tick distances (lifetime, dead
/// time, reuse).
const TICK_BOUNDS: [f64; 8] = [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0];

/// Bucket bounds for compression ratio (`full_segments / segments` of
/// compressed fills; 4-segment blocks can land on 4/3, 2, or 4).
const RATIO_BOUNDS: [f64; 5] = [1.0, 1.5, 2.0, 3.0, 4.0];

/// What to sample, beyond the always-on aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CachescopeConfig {
    /// Executed instructions (SweepCache re-execution counts) between
    /// sampled full-cache occupancy snapshots ([`OccupancySnapshot`]); `None` (the default) disables
    /// periodic sampling. Power-cycle boundary rows are always recorded.
    pub snapshot_period: Option<u64>,
}

impl CachescopeConfig {
    /// Config with periodic occupancy sampling every `period` executed
    /// instructions.
    pub fn periodic(period: u64) -> Self {
        CachescopeConfig { snapshot_period: Some(period) }
    }
}

/// Cumulative event counters of one cache, as folded by its aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScopeCounters {
    /// Read and write hits (shallow fused commits and batched runs
    /// included).
    pub hits: u64,
    /// Hits that landed on a compressed line (each paid a decompression).
    pub compressed_hits: u64,
    /// Blocks inserted.
    pub fills: u64,
    /// Fills stored compressed.
    pub compressed_fills: u64,
    /// Evictions by LRU replacement pressure.
    pub capacity_evictions: u64,
    /// Evictions by explicit invalidation (EDBP dead-block retirement).
    pub forced_evictions: u64,
    /// Blocks lost to power failures.
    pub power_loss_evictions: u64,
}

impl ScopeCounters {
    /// All evictions, across every reason.
    pub fn evictions(&self) -> u64 {
        self.capacity_evictions + self.forced_evictions + self.power_loss_evictions
    }
}

/// Where the run's execution cycles went, split by microarchitectural
/// source. The four buckets exactly partition `SimStats::total_cycles`:
///
/// * `tag` — base pipeline CPI plus the cache hit latency paid on every
///   data access (tag match + data-array read);
/// * `decompress` — stalls decompressing compressed lines on hits and
///   fetches;
/// * `nvm` — miss stalls reading blocks from NVM;
/// * `writeback` — compression stalls storing blocks (fill-path
///   compression of incoming and resident blocks, and store repacks).
///
/// IPEX prefetches spend energy but overlap execution, so they add no
/// cycles and appear in no bucket — matching the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyAttribution {
    /// Base pipeline + tag/data-array access cycles.
    pub tag_cycles: u64,
    /// Decompression stall cycles.
    pub decompress_cycles: u64,
    /// NVM read stall cycles.
    pub nvm_cycles: u64,
    /// Compression (fill/repack) stall cycles.
    pub writeback_cycles: u64,
}

impl LatencyAttribution {
    /// Sum of every bucket — equals the run's `total_cycles`.
    pub fn total(&self) -> u64 {
        self.tag_cycles + self.decompress_cycles + self.nvm_cycles + self.writeback_cycles
    }
}

/// Cumulative cachescope state at one power-cycle boundary (or end of
/// run). Diffing consecutive rows yields per-cycle activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleScope {
    /// Index of the power cycle being closed (the end-of-run row is one
    /// past the last failure's).
    pub cycle: u64,
    /// ICache counters as of this boundary.
    pub icache: ScopeCounters,
    /// DCache counters as of this boundary.
    pub dcache: ScopeCounters,
    /// Latency attribution as of this boundary.
    pub latency: LatencyAttribution,
}

/// One sampled full-cache occupancy map: every set's resident blocks
/// (segment footprint and compressed flag), for both caches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancySnapshot {
    /// Committed-instruction index at the capture.
    pub inst_index: u64,
    /// Power cycle the capture fell in.
    pub cycle: u64,
    /// Per-set occupancy of the ICache.
    pub icache: Vec<SetOccupancy>,
    /// Per-set occupancy of the DCache.
    pub dcache: Vec<SetOccupancy>,
}

/// The probe implementation: folds one cache's event stream into
/// constant-memory aggregates. Recovered from the cache by type after the
/// run (`CompressedCache::take_probe`).
#[derive(Debug, Clone, PartialEq)]
pub struct CachescopeAggregator {
    /// Data-array segments in use in each set, observed after every fill
    /// into that set.
    pub per_set_occupancy: Vec<Histogram>,
    /// Compression ratio (`full_segments / segments`) of compressed
    /// fills.
    pub ratio: Histogram,
    /// Recency ticks between fill and eviction.
    pub lifetime: Histogram,
    /// Recency ticks between last access and eviction.
    pub dead_time: Histogram,
    /// Sampled reuse distance (every [`REUSE_SAMPLE_PERIOD`]-th hit).
    pub reuse: Histogram,
    /// Event counters.
    pub counters: ScopeCounters,
}

impl CachescopeAggregator {
    /// Aggregator sized for `cfg`'s geometry. Bucket bounds depend only
    /// on the static config, so aggregators built for the same config
    /// merge and compare cleanly.
    pub fn new(cfg: &CacheConfig) -> Self {
        let sps = cfg.segments_per_set();
        let occ_bounds: Vec<f64> = (0..=sps).map(f64::from).collect();
        CachescopeAggregator {
            per_set_occupancy: (0..cfg.params.num_sets())
                .map(|_| Histogram::with_bounds(&occ_bounds))
                .collect(),
            ratio: Histogram::with_bounds(&RATIO_BOUNDS),
            lifetime: Histogram::with_bounds(&TICK_BOUNDS),
            dead_time: Histogram::with_bounds(&TICK_BOUNDS),
            reuse: Histogram::with_bounds(&TICK_BOUNDS),
            counters: ScopeCounters::default(),
        }
    }

    /// The cumulative counters.
    pub fn counters(&self) -> ScopeCounters {
        self.counters
    }

    /// One merged occupancy histogram over every set.
    pub fn occupancy_overall(&self) -> Histogram {
        let mut all = self.per_set_occupancy[0].clone();
        for h in &self.per_set_occupancy[1..] {
            all.merge(h).expect("per-set occupancy histograms share bounds");
        }
        all
    }
}

impl CacheProbe for CachescopeAggregator {
    fn on_hit(&mut self, hit: ProbeHit) {
        self.counters.hits += 1;
        if hit.was_compressed {
            self.counters.compressed_hits += 1;
        }
        if self.counters.hits.is_multiple_of(REUSE_SAMPLE_PERIOD) {
            self.reuse.observe(hit.reuse as f64);
        }
    }

    fn on_hit_run(&mut self, _set: u32, _full_segments: u32, n: u64) {
        // Exactly n on_hit reports with reuse 1: the sampled hits are the
        // multiples of the period the counter crosses, each of value 1.
        let before = self.counters.hits;
        self.counters.hits += n;
        let samples = self.counters.hits / REUSE_SAMPLE_PERIOD - before / REUSE_SAMPLE_PERIOD;
        self.reuse.observe_n(1.0, samples);
    }

    fn on_fill(&mut self, fill: ProbeFill) {
        self.counters.fills += 1;
        if fill.stored_compressed {
            self.counters.compressed_fills += 1;
            self.ratio.observe(f64::from(fill.full_segments) / f64::from(fill.segments));
        }
        self.per_set_occupancy[fill.set as usize].observe(f64::from(fill.used_after));
    }

    fn on_evict(&mut self, evt: ProbeEviction) {
        match evt.reason {
            EvictionReason::Capacity => self.counters.capacity_evictions += 1,
            EvictionReason::Forced => self.counters.forced_evictions += 1,
            EvictionReason::PowerLoss => self.counters.power_loss_evictions += 1,
        }
        self.lifetime.observe(evt.lifetime as f64);
        self.dead_time.observe(evt.idle as f64);
    }
}

/// Everything cachescope learned about one run. Compare with `==` in
/// differential tests; serialize through `kagura-bench`'s JSON adapters.
#[derive(Debug, Clone, PartialEq)]
pub struct CachescopeReport {
    /// Compression algorithm label of the run.
    pub algorithm: String,
    /// ICache aggregates.
    pub icache: CachescopeAggregator,
    /// DCache aggregates.
    pub dcache: CachescopeAggregator,
    /// Final latency attribution (partitions `total_cycles`).
    pub latency: LatencyAttribution,
    /// One row per power-cycle boundary, plus the end-of-run row.
    pub cycles: Vec<CycleScope>,
    /// Sampled full-cache occupancy maps (empty unless the config set a
    /// `snapshot_period`).
    pub snapshots: Vec<OccupancySnapshot>,
}

/// Simulator-side live state while a cachescope is attached: the latency
/// attribution accumulators, the snapshot period, and the rows collected
/// so far. Boxed into the `Simulator` so the detached fast path carries
/// only a null check. The next snapshot's instruction is a source of the
/// machine loop's event horizon, which keeps every batched ALU run from
/// stepping over it, so snapshots fire on identical instruction
/// boundaries with batching on or off.
#[derive(Debug)]
pub(crate) struct ScopeState {
    /// Executed instructions between occupancy snapshots; 0 disables.
    pub period: u64,
    /// Where the cycles went so far.
    pub attr: LatencyAttribution,
    /// Boundary rows collected so far.
    pub cycles: Vec<CycleScope>,
    /// Occupancy snapshots collected so far.
    pub snapshots: Vec<OccupancySnapshot>,
}

impl ScopeState {
    pub fn new(cfg: CachescopeConfig) -> Self {
        let period = cfg.snapshot_period.unwrap_or(0);
        ScopeState {
            period,
            attr: LatencyAttribution::default(),
            cycles: Vec::new(),
            snapshots: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_cache::CacheConfig;
    use ehs_compress::Algorithm;
    use ehs_model::CacheParams;

    fn agg() -> CachescopeAggregator {
        CachescopeAggregator::new(&CacheConfig::new(CacheParams::table1(), Algorithm::Bdi))
    }

    #[test]
    fn hit_run_samples_match_per_hit_reports() {
        // Same total hits, delivered per-hit vs in batched runs, must
        // sample the reuse histogram identically (all reuse 1).
        let mut one = agg();
        let mut batched = agg();
        let hit = |a: &mut CachescopeAggregator| {
            a.on_hit(ProbeHit { set: 0, was_compressed: false, segments: 4, reuse: 1 })
        };
        for _ in 0..300 {
            hit(&mut one);
        }
        batched.on_hit_run(0, 4, 100);
        for _ in 0..7 {
            hit(&mut batched);
        }
        batched.on_hit_run(0, 4, 193);
        assert_eq!(one, batched);
        assert_eq!(one.reuse.count(), 300 / REUSE_SAMPLE_PERIOD);
    }

    #[test]
    fn fill_and_evict_fold_into_the_right_buckets() {
        let mut a = agg();
        a.on_fill(ProbeFill {
            set: 1,
            segments: 2,
            full_segments: 4,
            stored_compressed: true,
            used_after: 6,
            blocks_after: 3,
        });
        a.on_fill(ProbeFill {
            set: 1,
            segments: 4,
            full_segments: 4,
            stored_compressed: false,
            used_after: 8,
            blocks_after: 3,
        });
        a.on_evict(ProbeEviction {
            set: 1,
            reason: EvictionReason::Forced,
            segments: 2,
            was_compressed: true,
            lifetime: 40,
            idle: 3,
        });
        assert_eq!(a.counters.fills, 2);
        assert_eq!(a.counters.compressed_fills, 1);
        assert_eq!(a.ratio.count(), 1);
        assert_eq!(a.ratio.mean(), 2.0);
        assert_eq!(a.per_set_occupancy[1].count(), 2);
        assert_eq!(a.per_set_occupancy[0].count(), 0);
        assert_eq!(a.counters.forced_evictions, 1);
        assert_eq!(a.counters.evictions(), 1);
        assert_eq!(a.lifetime.mean(), 40.0);
        let overall = a.occupancy_overall();
        assert_eq!(overall.count(), 2);
        assert_eq!(overall.mean(), 7.0);
    }

    #[test]
    fn latency_attribution_totals() {
        let l = LatencyAttribution {
            tag_cycles: 10,
            decompress_cycles: 3,
            nvm_cycles: 20,
            writeback_cycles: 7,
        };
        assert_eq!(l.total(), 40);
    }
}
