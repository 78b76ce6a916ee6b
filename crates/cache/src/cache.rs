//! The compressed cache proper.

use std::any::Any;

use ehs_compress::AnyCompressor;
use ehs_model::{Address, BlockData};

use crate::memo::SizeMemo;
use crate::probe::{CacheProbe, EvictionReason, ProbeEviction, ProbeFill, ProbeHit};
use crate::set::{CacheSet, Line};
use crate::{CacheConfig, CacheStats, FillMode};

/// Information about a cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitInfo {
    /// The block was stored compressed, so this access paid a
    /// decompression.
    pub was_compressed: bool,
    /// LRU stack depth of the block *before* this access (0 = MRU). A rank
    /// of `ways` or more means the hit happened only because compression
    /// stretched the set's capacity — the signal ACC rewards.
    pub lru_rank: u32,
    /// For reads: the loaded word. For writes: the word that was
    /// overwritten.
    pub word: u32,
}

/// A block pushed out of the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted {
    /// Block-aligned address.
    pub addr: Address,
    /// Uncompressed contents at eviction time.
    pub data: BlockData,
    /// Whether the block needs writing back.
    pub dirty: bool,
    /// Whether the block sat compressed (a dirty one pays a decompression
    /// on its way out).
    pub was_compressed: bool,
}

/// The result of a fill.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FillOutcome {
    /// Victims pushed out to make room, in eviction order.
    pub evicted: Vec<Evicted>,
    /// Compression operations performed during this fill (incoming block
    /// and/or resident blocks squeezed for space).
    pub compressions: u32,
    /// Whether the incoming block ended up stored compressed.
    pub stored_compressed: bool,
}

/// A dirty block drained for checkpointing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyBlock {
    /// Block-aligned address.
    pub addr: Address,
    /// Uncompressed contents.
    pub data: BlockData,
    /// Whether draining paid a decompression.
    pub was_compressed: bool,
}

/// A snapshot row describing one resident block (for dead-block predictors
/// and debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentBlock {
    /// Block-aligned address.
    pub addr: Address,
    /// Whether the block is dirty.
    pub dirty: bool,
    /// Whether the block is stored compressed.
    pub compressed: bool,
    /// Recency stamp of the last access (monotonic across the cache).
    pub last_tick: u64,
}

/// Point-in-time occupancy of one set: the raw rows of the sampled
/// full-cache snapshot (`set × way` occupancy map) cachescope streams as
/// JSONL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetOccupancy {
    /// Set index.
    pub set: u32,
    /// Data-array segments in use.
    pub used_segments: u32,
    /// `(segments, compressed)` of each resident line, in slot order.
    pub blocks: Vec<(u32, bool)>,
}

/// A write-back, LRU, set-associative cache with a segmented data array
/// supporting block compression. See the crate docs for the model.
#[derive(Debug)]
pub struct CompressedCache {
    config: CacheConfig,
    compressor: AnyCompressor,
    sets: Vec<CacheSet>,
    num_sets: u32,
    tick: u64,
    stats: CacheStats,
    size_memo: SizeMemo,
    /// Cache introspection observers, each told of every report; empty
    /// (the default) costs one length check per report site. See
    /// [`crate::probe`].
    probes: Vec<Box<dyn CacheProbe>>,
}

impl Clone for CompressedCache {
    /// Clones contents and counters; the probes (observers, not cache
    /// state) stay with the original — clones start with none.
    fn clone(&self) -> Self {
        CompressedCache {
            config: self.config,
            compressor: self.compressor.clone(),
            sets: self.sets.clone(),
            num_sets: self.num_sets,
            tick: self.tick,
            stats: self.stats,
            size_memo: self.size_memo.clone(),
            probes: Vec::new(),
        }
    }
}

impl CompressedCache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`CacheParams::num_sets`](ehs_model::CacheParams::num_sets)).
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.params.num_sets();
        let _ = config.segments_per_block(); // validate block/segment ratio
        CompressedCache {
            config,
            compressor: config.algorithm.compressor(),
            sets: vec![CacheSet::default(); num_sets as usize],
            num_sets,
            tick: 0,
            stats: CacheStats::default(),
            size_memo: SizeMemo::default(),
            probes: Vec::new(),
        }
    }

    /// Attaches a [`CacheProbe`] alongside any already attached. Every
    /// subsequent hit, fill and eviction is reported to each of them.
    pub fn attach_probe(&mut self, probe: Box<dyn CacheProbe>) {
        self.probes.push(probe);
    }

    /// The first attached probe of type `T`, in place — mid-run state
    /// queries (e.g. power-cycle boundary snapshots) read it here.
    pub fn probe_mut<T: CacheProbe>(&mut self) -> Option<&mut T> {
        self.probes.iter_mut().find_map(|p| (&mut **p as &mut dyn Any).downcast_mut::<T>())
    }

    /// Detaches and returns the first attached probe of type `T`.
    pub fn take_probe<T: CacheProbe>(&mut self) -> Option<T> {
        let i = self.probes.iter().position(|p| (&**p as &dyn Any).is::<T>())?;
        let probe: Box<dyn Any> = self.probes.remove(i);
        Some(*probe.downcast::<T>().expect("found by its type"))
    }

    /// The static configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The compression engine in use.
    pub fn compressor(&self) -> &AnyCompressor {
        &self.compressor
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the counters (contents retained).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// `(hits, misses)` of the compression-size memo — diagnostics only,
    /// never part of simulation results.
    pub fn size_memo_counters(&self) -> (u64, u64) {
        self.size_memo.counters()
    }

    /// Segment footprint the compressor assigns to these block contents
    /// (memoized; exact — see [`SizeMemo`]).
    fn compressed_segments(&mut self, si: usize, idx: usize) -> u32 {
        let data = self.sets[si].lines[idx].data.as_slice();
        self.size_memo.segments(&self.compressor, data)
    }

    fn set_and_tag(&self, addr: Address) -> (usize, u64) {
        let bs = self.config.params.block_size;
        (addr.set_index(bs, self.num_sets) as usize, addr.tag(bs, self.num_sets))
    }

    fn block_base(&self, addr: Address) -> Address {
        addr.block_base(self.config.params.block_size)
    }

    fn addr_of(&self, set_idx: usize, tag: u64) -> Address {
        let bs = self.config.params.block_size as u64;
        Address::new((tag * self.num_sets as u64 + set_idx as u64) * bs)
    }

    /// Recency rank of line `idx` in set `si`, with an MRU shortcut: ticks
    /// are unique (the clock increments before every stamp), so a line
    /// stamped with the current clock value is rank 0 by construction and
    /// the O(ways) scan can be skipped.
    fn rank_with_mru_shortcut(&self, si: usize, idx: usize) -> u32 {
        if self.sets[si].ticks[idx] == self.tick {
            0
        } else {
            self.sets[si].rank_of(idx)
        }
    }

    /// `true` if the block containing `addr` is resident (no LRU update,
    /// no stats).
    pub fn contains(&self, addr: Address) -> bool {
        let (si, tag) = self.set_and_tag(addr);
        self.sets[si].find(tag).is_some()
    }

    /// Reads the 4-byte word at `addr`. `None` on miss (the caller fetches
    /// from NVM and calls [`CompressedCache::fill`]).
    pub fn read(&mut self, addr: Address) -> Option<HitInfo> {
        let (si, tag) = self.set_and_tag(addr);
        let offset = addr.block_offset(self.config.params.block_size) & !3;
        match self.sets[si].find(tag) {
            Some(idx) => {
                let rank = self.rank_with_mru_shortcut(si, idx);
                self.tick += 1;
                let set = &mut self.sets[si];
                let reuse = self.tick - set.ticks[idx];
                set.ticks[idx] = self.tick;
                let line = &set.lines[idx];
                let was_compressed = line.compressed;
                let segments = line.segments;
                let word = line.data.read_u32(offset);
                if was_compressed {
                    self.stats.decompressions += 1;
                }
                self.stats.read_hits += 1;
                for p in &mut self.probes {
                    p.on_hit(ProbeHit { set: si as u32, was_compressed, segments, reuse });
                }
                Some(HitInfo { was_compressed, lru_rank: rank, word })
            }
            None => {
                self.stats.read_misses += 1;
                None
            }
        }
    }

    /// `true` if a read of `addr` would hit an *uncompressed, MRU* block —
    /// the precondition for [`CompressedCache::commit_read_hit_run`]. No
    /// LRU update, no stats.
    pub fn probe_mru_uncompressed(&self, addr: Address) -> bool {
        let (si, tag) = self.set_and_tag(addr);
        match self.sets[si].find(tag) {
            Some(idx) => {
                self.sets[si].ticks[idx] == self.tick && !self.sets[si].lines[idx].compressed
            }
            None => false,
        }
    }

    /// `Some(idx)` if a hit on `addr` would land on an uncompressed line
    /// at LRU rank below the nominal associativity — a *shallow* hit, one
    /// that an uncompressed cache of the same geometry would also serve.
    /// Such a hit is invisible to every governor (`on_hit` only reacts to
    /// `rank >= ways` or a compressed line), involves no decompression,
    /// and cannot trigger a repack or eviction. The rank comparison early-
    /// exits at `ways`, so this is one tag scan plus one tick scan.
    fn find_shallow(&self, si: usize, tag: u64, ways: u32) -> Option<usize> {
        let set = &self.sets[si];
        let idx = set.find(tag)?;
        if set.lines[idx].compressed {
            return None;
        }
        let t = set.ticks[idx];
        let mut newer = 0u32;
        for &tk in set.ticks.iter() {
            if tk > t {
                newer += 1;
                if newer >= ways {
                    return None;
                }
            }
        }
        Some(idx)
    }

    /// Fused probe + commit: if a read of `addr` would be a shallow
    /// uncompressed hit (see the private `find_shallow`), applies
    /// one read hit exactly as [`CompressedCache::read`] would — LRU
    /// stamp plus the hit counter — and returns `true`; otherwise changes
    /// nothing.
    pub fn try_commit_shallow_read(&mut self, addr: Address) -> bool {
        let (si, tag) = self.set_and_tag(addr);
        match self.find_shallow(si, tag, self.config.params.ways) {
            Some(idx) => {
                self.tick += 1;
                let reuse = self.tick - self.sets[si].ticks[idx];
                self.sets[si].ticks[idx] = self.tick;
                self.stats.read_hits += 1;
                for p in &mut self.probes {
                    // Shallow hits land on uncompressed (full-footprint)
                    // lines, matching what `read` would have reported.
                    let segments = self.config.segments_per_block();
                    p.on_hit(ProbeHit { set: si as u32, was_compressed: false, segments, reuse });
                }
                true
            }
            None => false,
        }
    }

    /// Fused probe + commit for a store: if a write of `value` at `addr`
    /// would be a shallow uncompressed hit, applies the write exactly as
    /// [`CompressedCache::write`] would — the word, the dirty bit, the LRU
    /// stamp, and the hit counter — and returns `true`; otherwise changes
    /// nothing. On this path `write()` has no other effects: the line is
    /// not compressed, so there is no decompression, repack, fat write, or
    /// eviction, and the returned `HitInfo` would describe a shallow
    /// uncompressed hit whose consumers are all inert.
    pub fn try_commit_shallow_write(&mut self, addr: Address, value: u32) -> bool {
        let (si, tag) = self.set_and_tag(addr);
        let offset = addr.block_offset(self.config.params.block_size) & !3;
        match self.find_shallow(si, tag, self.config.params.ways) {
            Some(idx) => {
                self.tick += 1;
                let set = &mut self.sets[si];
                let reuse = self.tick - set.ticks[idx];
                set.ticks[idx] = self.tick;
                let line = &mut set.lines[idx];
                line.data.write_u32(offset, value);
                line.dirty = true;
                self.stats.write_hits += 1;
                for p in &mut self.probes {
                    let segments = self.config.segments_per_block();
                    p.on_hit(ProbeHit { set: si as u32, was_compressed: false, segments, reuse });
                }
                true
            }
            None => false,
        }
    }

    /// Applies `n` back-to-back read hits to the MRU uncompressed block
    /// containing `addr`, exactly as `n` [`CompressedCache::read`] calls
    /// would: the clock advances by `n`, the line's stamp follows it, and
    /// `read_hits` grows by `n`. (Each intermediate read would re-hit the
    /// same line at rank 0 with no decompression, so no other state can
    /// change.)
    ///
    /// # Panics
    ///
    /// Debug-panics unless [`CompressedCache::probe_mru_uncompressed`]
    /// holds for `addr`.
    pub fn commit_read_hit_run(&mut self, addr: Address, n: u64) {
        debug_assert!(self.probe_mru_uncompressed(addr));
        let (si, tag) = self.set_and_tag(addr);
        let Some(idx) = self.sets[si].find(tag) else {
            unreachable!("commit_read_hit_run requires a resident block");
        };
        self.tick += n;
        self.sets[si].ticks[idx] = self.tick;
        self.stats.read_hits += n;
        for p in &mut self.probes {
            // MRU precondition: every hit in the run has reuse distance 1.
            p.on_hit_run(si as u32, self.config.segments_per_block(), n);
        }
    }

    /// Writes the 4-byte `value` at `addr`. `None` on miss (write-allocate:
    /// the caller fetches the block and fills with the store applied).
    ///
    /// A write hit on a *compressed* block cannot absorb the store in
    /// place; what happens next is the policy's call, passed as `repack`:
    ///
    /// * `repack = true` (compression enabled): decompress, modify,
    ///   **re-compress**. One decompression plus one compression per store
    ///   — the dominant `M` term of the paper's Eq. 2 (`f = M/N`
    ///   approaches 1 for store-heavy code). If the modified contents no
    ///   longer save a segment the line expands anyway (a *fat write*).
    /// * `repack = false` (compression disabled, e.g. Kagura's RM mode):
    ///   decompress once and store back uncompressed; future stores to the
    ///   line stop paying compression energy. The expansion may evict.
    pub fn write(
        &mut self,
        addr: Address,
        value: u32,
        repack: bool,
    ) -> Option<(HitInfo, Vec<Evicted>)> {
        let (si, tag) = self.set_and_tag(addr);
        let offset = addr.block_offset(self.config.params.block_size) & !3;
        let Some(idx) = self.sets[si].find(tag) else {
            self.stats.write_misses += 1;
            return None;
        };
        let rank = self.rank_with_mru_shortcut(si, idx);
        self.tick += 1;
        let full_segments = self.config.segments_per_block();
        let set = &mut self.sets[si];
        let reuse = self.tick - set.ticks[idx];
        set.ticks[idx] = self.tick;
        let line = &mut set.lines[idx];
        let was_compressed = line.compressed;
        let segments = line.segments;
        let old_word = line.data.read_u32(offset);
        line.data.write_u32(offset, value);
        line.dirty = true;
        for p in &mut self.probes {
            // Reported as the block sat when the store landed (pre-repack).
            p.on_hit(ProbeHit { set: si as u32, was_compressed, segments, reuse });
        }
        let mut evicted = Vec::new();
        if was_compressed {
            self.stats.decompressions += 1;
            if repack {
                // Repack the modified contents.
                self.stats.compressions += 1;
                self.stats.recompressions += 1;
                let segs = self.compressed_segments(si, idx);
                if segs < full_segments {
                    self.sets[si].set_line_segments(idx, segs, true);
                } else {
                    self.sets[si].set_line_segments(idx, full_segments, false);
                    self.stats.fat_writes += 1;
                }
            } else {
                // Compression disabled: expand and stay uncompressed.
                self.stats.fat_writes += 1;
                self.sets[si].set_line_segments(idx, full_segments, false);
            }
            evicted = self.make_room(si, 0, Some(tag), FillMode::Bypass, &mut 0);
        }
        self.stats.write_hits += 1;
        Some((HitInfo { was_compressed, lru_rank: rank, word: old_word }, evicted))
    }

    /// Inserts the block containing `addr` with the given policy decision.
    /// `apply_store` optionally applies a pending 4-byte store (offset
    /// within block, value) and marks the line dirty (write-allocate path).
    ///
    /// # Panics
    ///
    /// Panics if the block is already resident or `data` is not one block.
    pub fn fill(
        &mut self,
        addr: Address,
        data: BlockData,
        mode: FillMode,
        apply_store: Option<(u32, u32)>,
    ) -> FillOutcome {
        // Debug-only: both preconditions are established by the caller (a
        // fill always follows a miss on the same address), and the
        // residency check is a full tag scan on the hottest miss path.
        debug_assert_eq!(
            data.len(),
            self.config.params.block_size as usize,
            "fill must be one block"
        );
        let (si, tag) = self.set_and_tag(addr);
        debug_assert!(self.sets[si].find(tag).is_none(), "block already resident");

        // Merge the pending store *before* compressing: the hardware packs
        // the block once, with the allocating store already applied.
        let mut data = data;
        let mut dirty = false;
        if let Some((offset, value)) = apply_store {
            data.write_u32(offset & !3, value);
            dirty = true;
        }

        let full_segments = self.config.segments_per_block();
        let mut compressions = 0u32;
        let (segments, stored_compressed) = match mode {
            FillMode::Compress => {
                compressions += 1;
                self.stats.compressions += 1;
                let segs = self.size_memo.segments(&self.compressor, data.as_slice());
                if segs < full_segments {
                    (segs, true)
                } else {
                    (full_segments, false)
                }
            }
            FillMode::Bypass => (full_segments, false),
        };

        let mut evicted = self.make_room(si, segments, None, mode, &mut compressions);

        // Tag-array limit.
        while self.sets[si].len() as u32 >= self.config.max_blocks_per_set() {
            if let Some(e) = self.evict_one(si, None) {
                evicted.push(e);
            } else {
                break;
            }
        }

        self.tick += 1;
        self.sets[si].push(
            tag,
            self.tick,
            Line { data, dirty, compressed: stored_compressed, segments },
        );
        debug_assert!(self.sets[si].used_segments() <= self.config.segments_per_set());

        self.stats.fills += 1;
        if stored_compressed {
            self.stats.compressed_fills += 1;
        }
        if mode == FillMode::Bypass {
            self.stats.bypassed_fills += 1;
        }
        for p in &mut self.probes {
            p.on_fill(ProbeFill {
                set: si as u32,
                segments,
                full_segments,
                stored_compressed,
                used_after: self.sets[si].used_incremental(),
                blocks_after: self.sets[si].len() as u32,
            });
        }
        FillOutcome { evicted, compressions, stored_compressed }
    }

    /// Frees segments in set `si` until `needed` extra segments fit.
    ///
    /// In [`FillMode::Compress`], resident uncompressed blocks are squeezed
    /// (LRU-first) before anything is evicted; in [`FillMode::Bypass`] the
    /// set goes straight to LRU eviction — Kagura's RM-mode behaviour.
    fn make_room(
        &mut self,
        si: usize,
        needed: u32,
        protect: Option<u64>,
        mode: FillMode,
        compressions: &mut u32,
    ) -> Vec<Evicted> {
        let capacity = self.config.segments_per_set();
        let mut evicted = Vec::new();
        // The compressor squeezes at most a couple of residents per fill
        // (the paper: "compress ... *some of* the existing uncompressed
        // blocks"); unbounded retries would burn energy recompressing the
        // same incompressible lines on every fill. The tried-tags scratch
        // is inline — this path runs on every space-constrained fill.
        const MAX_SQUEEZES_PER_FILL: usize = 2;
        let mut tried = [None; MAX_SQUEEZES_PER_FILL];
        let mut tried_n = 0;
        while self.sets[si].used_segments() + needed > capacity {
            if mode == FillMode::Compress && tried_n < MAX_SQUEEZES_PER_FILL {
                // The LRU-most resident uncompressed block not yet tried.
                // (Ticks are globally unique, so the min-tick eligible
                // line is exactly the first eligible line in LRU order.)
                let set = &self.sets[si];
                let candidate = (0..set.len())
                    .filter(|&i| {
                        !set.lines[i].compressed
                            && Some(set.tags[i]) != protect
                            && !tried[..tried_n].contains(&Some(set.tags[i]))
                    })
                    .min_by_key(|&i| set.ticks[i]);
                if let Some(i) = candidate {
                    let full = self.config.segments_per_block();
                    *compressions += 1;
                    self.stats.compressions += 1;
                    let segs = self.compressed_segments(si, i);
                    tried[tried_n] = Some(self.sets[si].tags[i]);
                    tried_n += 1;
                    if segs < full {
                        self.sets[si].set_line_segments(i, segs, true);
                    }
                    // Incompressible residents stay as they are; the attempt
                    // still cost energy (counted above). Either way re-check
                    // the space condition before falling back to eviction.
                    continue;
                }
            }
            match self.evict_one(si, protect) {
                Some(e) => evicted.push(e),
                None => break, // nothing left to evict (set empty / all protected)
            }
        }
        evicted
    }

    fn evict_one(&mut self, si: usize, protect: Option<u64>) -> Option<Evicted> {
        let idx = self.sets[si].lru_victim(protect)?;
        let lifetime = self.tick - self.sets[si].born[idx];
        let idle = self.tick - self.sets[si].ticks[idx];
        let (tag, line) = self.sets[si].swap_remove(idx);
        self.stats.evictions += 1;
        self.stats.capacity_evictions += 1;
        if line.compressed {
            self.stats.compressed_evictions += 1;
            if line.dirty {
                // Dirty compressed victims decompress on the way to NVM.
                self.stats.decompressions += 1;
            }
        }
        for p in &mut self.probes {
            p.on_evict(ProbeEviction {
                set: si as u32,
                reason: EvictionReason::Capacity,
                segments: line.segments,
                was_compressed: line.compressed,
                lifetime,
                idle,
            });
        }
        Some(Evicted {
            addr: self.addr_of(si, tag),
            data: line.data,
            dirty: line.dirty,
            was_compressed: line.compressed,
        })
    }

    /// Invalidates the block containing `addr`, returning it if it was
    /// resident (used by dead-block predictors to retire blocks early).
    pub fn invalidate_block(&mut self, addr: Address) -> Option<Evicted> {
        let (si, tag) = self.set_and_tag(addr);
        let idx = self.sets[si].find(tag)?;
        let lifetime = self.tick - self.sets[si].born[idx];
        let idle = self.tick - self.sets[si].ticks[idx];
        let (_, line) = self.sets[si].swap_remove(idx);
        self.stats.evictions += 1;
        self.stats.forced_evictions += 1;
        if line.compressed {
            self.stats.compressed_evictions += 1;
            if line.dirty {
                self.stats.decompressions += 1;
            }
        }
        for p in &mut self.probes {
            p.on_evict(ProbeEviction {
                set: si as u32,
                reason: EvictionReason::Forced,
                segments: line.segments,
                was_compressed: line.compressed,
                lifetime,
                idle,
            });
        }
        Some(Evicted {
            addr: self.block_base(addr),
            data: line.data,
            dirty: line.dirty,
            was_compressed: line.compressed,
        })
    }

    /// Visits every dirty block (for JIT checkpointing), marking each
    /// clean. Compressed dirty blocks pay a decompression each.
    ///
    /// The visitor receives `(block address, contents, was_compressed)`.
    /// Contents are borrowed in place from the resident line, so the
    /// checkpoint path copies nothing per block — this is the simulator's
    /// hot drain primitive ([`CompressedCache::drain_dirty`] is the
    /// allocating convenience wrapper).
    pub fn for_each_dirty(&mut self, mut visit: impl FnMut(Address, &BlockData, bool)) {
        let block_size = self.config.params.block_size as u64;
        for si in 0..self.sets.len() {
            for idx in 0..self.sets[si].len() {
                let tag = self.sets[si].tags[idx];
                let line = &mut self.sets[si].lines[idx];
                if line.dirty {
                    line.dirty = false;
                    if line.compressed {
                        self.stats.decompressions += 1;
                    }
                    visit(
                        Address::new((tag * self.num_sets as u64 + si as u64) * block_size),
                        &line.data,
                        line.compressed,
                    );
                }
            }
        }
    }

    /// Drains every dirty block (for JIT checkpointing), marking them
    /// clean. Compressed dirty blocks pay a decompression each.
    pub fn drain_dirty(&mut self) -> Vec<DirtyBlock> {
        let mut out = Vec::new();
        self.for_each_dirty(|addr, data, was_compressed| {
            out.push(DirtyBlock { addr, data: data.clone(), was_compressed });
        });
        out
    }

    /// Clears every line (power failure: SRAM contents are lost).
    ///
    /// Not an eviction for the [`CacheStats`] counters (nothing is
    /// replaced or written back), but an attached probe sees every lost
    /// block as an [`EvictionReason::PowerLoss`] departure.
    pub fn invalidate_all(&mut self) {
        for p in &mut self.probes {
            for (si, set) in self.sets.iter().enumerate() {
                for idx in 0..set.len() {
                    p.on_evict(ProbeEviction {
                        set: si as u32,
                        reason: EvictionReason::PowerLoss,
                        segments: set.lines[idx].segments,
                        was_compressed: set.lines[idx].compressed,
                        lifetime: self.tick - set.born[idx],
                        idle: self.tick - set.ticks[idx],
                    });
                }
            }
        }
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Number of resident blocks.
    pub fn resident_count(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Snapshot of every resident block (for dead-block predictors).
    pub fn resident_blocks(&self) -> Vec<ResidentBlock> {
        let mut out = Vec::with_capacity(self.resident_count());
        for (si, set) in self.sets.iter().enumerate() {
            for idx in 0..set.len() {
                out.push(ResidentBlock {
                    addr: self.addr_of(si, set.tags[idx]),
                    dirty: set.lines[idx].dirty,
                    compressed: set.lines[idx].compressed,
                    last_tick: set.ticks[idx],
                });
            }
        }
        out
    }

    /// The cache-global recency clock (compare with
    /// [`ResidentBlock::last_tick`]).
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u32 {
        self.num_sets
    }

    /// Point-in-time `set × way` occupancy rows for every set — the
    /// sampled full-cache snapshot cachescope streams as JSONL.
    pub fn occupancy_map(&self) -> Vec<SetOccupancy> {
        self.sets
            .iter()
            .enumerate()
            .map(|(si, set)| SetOccupancy {
                set: si as u32,
                used_segments: set.used_incremental(),
                blocks: set.lines.iter().map(|l| (l.segments, l.compressed)).collect(),
            })
            .collect()
    }

    /// The incremental used-segment counter of set `si`, with no
    /// cross-check — compare with
    /// [`CompressedCache::recount_set_segments`] (the accounting
    /// proptest pins their equality).
    pub fn set_used_incremental(&self, si: usize) -> u32 {
        self.sets[si].used_incremental()
    }

    /// From-scratch recount of set `si`'s data-array segments in use.
    pub fn recount_set_segments(&self, si: usize) -> u32 {
        self.sets[si].recount_segments()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_compress::Algorithm;
    use ehs_model::CacheParams;

    fn cache() -> CompressedCache {
        CompressedCache::new(CacheConfig::new(CacheParams::table1(), Algorithm::Bdi))
    }

    /// Addresses that all land in set 0 of the Table-I geometry
    /// (4 sets x 32B blocks: stride 128B).
    fn conflict_addr(i: u64) -> Address {
        Address::new(i * 128)
    }

    fn zero_block() -> BlockData {
        BlockData::zeroed(32)
    }

    fn random_block(seed: u8) -> BlockData {
        let mut data = BlockData::zeroed(32);
        let mut x = seed as u32 ^ 0xA5A5_5A5A;
        for w in 0..8 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            data.write_u32(w * 4, x);
        }
        data
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache();
        let addr = Address::new(0x40);
        assert!(c.read(addr).is_none());
        c.fill(addr, zero_block(), FillMode::Bypass, None);
        let hit = c.read(addr).expect("hit after fill");
        assert!(!hit.was_compressed);
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn read_returns_block_word() {
        let mut c = cache();
        let mut data = zero_block();
        data.write_u32(8, 0xFEED);
        c.fill(Address::new(0x200), data, FillMode::Bypass, None);
        assert_eq!(c.read(Address::new(0x208)).unwrap().word, 0xFEED);
        // Unaligned reads snap to the containing word.
        assert_eq!(c.read(Address::new(0x20A)).unwrap().word, 0xFEED);
    }

    #[test]
    fn bypass_mode_holds_only_ways_blocks() {
        let mut c = cache();
        for i in 0..3 {
            let out = c.fill(conflict_addr(i), random_block(i as u8), FillMode::Bypass, None);
            if i < 2 {
                assert!(out.evicted.is_empty(), "fill {i} evicted {:?}", out.evicted);
            } else {
                assert_eq!(out.evicted.len(), 1, "third fill must evict LRU");
                assert_eq!(out.evicted[0].addr, conflict_addr(0));
            }
        }
        assert_eq!(c.resident_count(), 2);
    }

    #[test]
    fn compression_stretches_capacity() {
        let mut c = cache();
        // Zero blocks compress to 1 segment; 4 fit in one set (tag limit).
        for i in 0..4 {
            let out = c.fill(conflict_addr(i), zero_block(), FillMode::Compress, None);
            assert!(out.evicted.is_empty(), "fill {i} should not evict");
            assert!(out.stored_compressed);
        }
        assert_eq!(c.resident_count(), 4);
        // The tag array is the binding limit now.
        let out = c.fill(conflict_addr(4), zero_block(), FillMode::Compress, None);
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(c.resident_count(), 4);
    }

    #[test]
    fn incompressible_fills_fall_back_to_full_size() {
        let mut c = cache();
        let out = c.fill(conflict_addr(0), random_block(1), FillMode::Compress, None);
        assert!(!out.stored_compressed);
        assert_eq!(out.compressions, 1, "compression attempt still happened");
    }

    #[test]
    fn fill_compresses_resident_blocks_before_evicting() {
        let mut c = cache();
        // Two compressible blocks stored uncompressed fill the set.
        c.fill(conflict_addr(0), zero_block(), FillMode::Bypass, None);
        c.fill(conflict_addr(1), zero_block(), FillMode::Bypass, None);
        // A third fill in Compress mode squeezes the residents: no eviction.
        let out = c.fill(conflict_addr(2), zero_block(), FillMode::Compress, None);
        assert!(out.evicted.is_empty(), "residents should have been squeezed");
        assert!(out.compressions >= 2);
        assert_eq!(c.resident_count(), 3);
    }

    #[test]
    fn fill_evicts_when_residents_are_incompressible() {
        let mut c = cache();
        c.fill(conflict_addr(0), random_block(1), FillMode::Bypass, None);
        c.fill(conflict_addr(1), random_block(2), FillMode::Bypass, None);
        let out = c.fill(conflict_addr(2), random_block(3), FillMode::Compress, None);
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(out.evicted[0].addr, conflict_addr(0));
    }

    #[test]
    fn write_hit_on_compressed_block_repacks() {
        let mut c = cache();
        c.fill(conflict_addr(0), zero_block(), FillMode::Compress, None);
        let (hit, _) = c.write(conflict_addr(0), 0xAB, true).unwrap();
        assert!(hit.was_compressed);
        // One decompression + one re-compression; the block stays
        // compressed (one nonzero word still packs well).
        assert_eq!(c.stats().decompressions, 1);
        assert_eq!(c.stats().recompressions, 1);
        assert_eq!(c.stats().fat_writes, 0);
        let hit = c.read(conflict_addr(0)).unwrap();
        assert!(hit.was_compressed, "block should still be compressed");
        assert_eq!(hit.word, 0xAB);
    }

    #[test]
    fn fat_write_when_contents_stop_compressing() {
        let mut c = cache();
        // Three compressed blocks + one uncompressed: 1+1+1+4 = 7 <= 8.
        c.fill(conflict_addr(0), zero_block(), FillMode::Compress, None);
        c.fill(conflict_addr(1), zero_block(), FillMode::Compress, None);
        c.fill(conflict_addr(2), zero_block(), FillMode::Compress, None);
        c.fill(conflict_addr(3), random_block(1), FillMode::Bypass, None);
        assert_eq!(c.resident_count(), 4);
        // Scribble random words over block 0 until it no longer compresses:
        // the repack fails, the line expands, and the set must evict.
        let mut x = 0x9E3779B9u32;
        let mut expanded = false;
        for w in 0..8u64 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let (_, evicted) = c.write(conflict_addr(0) + w * 4, x, true).unwrap();
            if !evicted.is_empty() {
                expanded = true;
                break;
            }
        }
        assert!(expanded, "incompressible rewrite must expand and evict");
        assert!(c.stats().fat_writes >= 1);
        // The written block itself must survive.
        assert!(c.contains(conflict_addr(0)));
    }

    #[test]
    fn write_miss_returns_none_then_fill_applies_store() {
        let mut c = cache();
        assert!(c.write(Address::new(0x300), 5, true).is_none());
        assert_eq!(c.stats().write_misses, 1);
        c.fill(Address::new(0x300), zero_block(), FillMode::Bypass, Some((0, 5)));
        assert_eq!(c.read(Address::new(0x300)).unwrap().word, 5);
        let drained = c.drain_dirty();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].data.read_u32(0), 5);
    }

    #[test]
    fn lru_rank_reported_on_hits() {
        let mut c = cache();
        c.fill(conflict_addr(0), zero_block(), FillMode::Compress, None);
        c.fill(conflict_addr(1), zero_block(), FillMode::Compress, None);
        c.fill(conflict_addr(2), zero_block(), FillMode::Compress, None);
        // Block 0 is now LRU at rank 2 (beyond the 2 nominal ways).
        let hit = c.read(conflict_addr(0)).unwrap();
        assert_eq!(hit.lru_rank, 2);
        // And it is MRU afterwards.
        let hit = c.read(conflict_addr(0)).unwrap();
        assert_eq!(hit.lru_rank, 0);
    }

    #[test]
    fn read_hit_run_matches_repeated_reads() {
        // The batched MRU run must leave cache state and stats exactly
        // where n individual reads would.
        let mut batched = cache();
        let mut stepped = cache();
        for c in [&mut batched, &mut stepped] {
            c.fill(conflict_addr(0), random_block(1), FillMode::Bypass, None);
            c.fill(conflict_addr(1), zero_block(), FillMode::Compress, None);
            c.read(conflict_addr(0)).unwrap(); // make block 0 MRU
        }
        assert!(batched.probe_mru_uncompressed(conflict_addr(0)));
        assert!(!batched.probe_mru_uncompressed(conflict_addr(1)), "not MRU");
        assert!(!batched.probe_mru_uncompressed(conflict_addr(7)), "not resident");

        batched.commit_read_hit_run(conflict_addr(0) + 4, 5);
        for i in 0..5u64 {
            stepped.read(conflict_addr(0) + 4 * (i % 8)).unwrap();
        }
        assert_eq!(batched.stats(), stepped.stats());
        assert_eq!(batched.now(), stepped.now());
        assert_eq!(batched.resident_blocks(), stepped.resident_blocks());
        // Follow-up accesses agree too.
        assert_eq!(
            batched.read(conflict_addr(1)).unwrap(),
            stepped.read(conflict_addr(1)).unwrap()
        );
    }

    #[test]
    fn eviction_of_dirty_compressed_block_decompresses() {
        let mut c = cache();
        c.fill(conflict_addr(0), zero_block(), FillMode::Compress, Some((4, 1)));
        let d0 = c.stats().decompressions;
        // Force eviction with incompressible fills.
        c.fill(conflict_addr(1), random_block(1), FillMode::Bypass, None);
        let out = c.fill(conflict_addr(2), random_block(2), FillMode::Bypass, None);
        let victim =
            out.evicted.iter().chain(std::iter::empty()).find(|e| e.addr == conflict_addr(0));
        if let Some(v) = victim {
            assert!(v.dirty);
            if v.was_compressed {
                assert!(c.stats().decompressions > d0);
            }
        }
        assert!(c.stats().evictions >= 1);
    }

    #[test]
    fn drain_dirty_marks_clean_and_reports_compressed() {
        let mut c = cache();
        c.fill(conflict_addr(0), zero_block(), FillMode::Compress, Some((0, 1)));
        c.fill(conflict_addr(1), zero_block(), FillMode::Bypass, Some((0, 2)));
        let drained = c.drain_dirty();
        assert_eq!(drained.len(), 2);
        assert!(c.drain_dirty().is_empty(), "second drain finds nothing dirty");
    }

    #[test]
    fn invalidate_all_empties_the_cache() {
        let mut c = cache();
        c.fill(conflict_addr(0), zero_block(), FillMode::Compress, None);
        c.fill(Address::new(0x40), zero_block(), FillMode::Bypass, None);
        c.invalidate_all();
        assert_eq!(c.resident_count(), 0);
        assert!(c.read(conflict_addr(0)).is_none());
    }

    #[test]
    fn invalidate_block_returns_the_victim() {
        let mut c = cache();
        c.fill(conflict_addr(0), zero_block(), FillMode::Bypass, Some((0, 3)));
        let e = c.invalidate_block(conflict_addr(0)).unwrap();
        assert!(e.dirty);
        assert_eq!(e.data.read_u32(0), 3);
        assert!(c.invalidate_block(conflict_addr(0)).is_none());
    }

    #[test]
    fn evicted_addr_reconstruction_round_trips() {
        let mut c = cache();
        let addr = Address::new(0x1234 & !31); // block-aligned
        c.fill(addr, zero_block(), FillMode::Bypass, None);
        let blocks = c.resident_blocks();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].addr, addr.block_base(32));
    }

    #[test]
    fn resident_snapshot_reports_ticks() {
        let mut c = cache();
        c.fill(conflict_addr(0), zero_block(), FillMode::Bypass, None);
        let t0 = c.resident_blocks()[0].last_tick;
        c.read(conflict_addr(0));
        let t1 = c.resident_blocks()[0].last_tick;
        assert!(t1 > t0);
        assert!(c.now() >= t1);
    }

    #[test]
    fn memo_counters_track_repeated_contents() {
        let mut c = cache();
        // Same contents filled at two addresses: second fill's compression
        // is served from the memo.
        c.fill(conflict_addr(0), zero_block(), FillMode::Compress, None);
        c.fill(Address::new(0x40), zero_block(), FillMode::Compress, None);
        let (hits, misses) = c.size_memo_counters();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
        // The stats still count both compression operations: memoization
        // saves host time, never modelled energy.
        assert_eq!(c.stats().compressions, 2);
    }

    #[test]
    fn eviction_counters_split_capacity_from_forced() {
        let mut c = cache();
        // Two incompressible fills fill the set; the third evicts by LRU.
        c.fill(conflict_addr(0), random_block(1), FillMode::Bypass, None);
        c.fill(conflict_addr(1), random_block(2), FillMode::Bypass, None);
        c.fill(conflict_addr(2), random_block(3), FillMode::Bypass, None);
        assert_eq!(c.stats().capacity_evictions, 1);
        assert_eq!(c.stats().forced_evictions, 0);
        // Dead-block retirement is the forced path.
        assert!(c.invalidate_block(conflict_addr(2)).is_some());
        assert_eq!(c.stats().capacity_evictions, 1);
        assert_eq!(c.stats().forced_evictions, 1);
        assert_eq!(
            c.stats().evictions,
            c.stats().capacity_evictions + c.stats().forced_evictions,
            "the split must partition total evictions"
        );
        // Power loss clears lines without counting evictions at all.
        let before = c.stats().evictions;
        c.invalidate_all();
        assert_eq!(c.stats().evictions, before);
    }

    #[derive(Debug, Default)]
    struct RecordingProbe {
        hits: Vec<crate::ProbeHit>,
        runs: Vec<(u32, u64)>,
        fills: Vec<crate::ProbeFill>,
        evictions: Vec<crate::ProbeEviction>,
    }

    impl crate::CacheProbe for RecordingProbe {
        fn on_hit(&mut self, h: crate::ProbeHit) {
            self.hits.push(h);
        }
        fn on_hit_run(&mut self, set: u32, _full_segments: u32, n: u64) {
            self.runs.push((set, n));
        }
        fn on_fill(&mut self, f: crate::ProbeFill) {
            self.fills.push(f);
        }
        fn on_evict(&mut self, e: crate::ProbeEviction) {
            self.evictions.push(e);
        }
    }

    fn take_recording(c: &mut CompressedCache) -> RecordingProbe {
        c.take_probe::<RecordingProbe>().unwrap()
    }

    #[test]
    fn probe_reports_hits_fills_and_every_eviction_reason() {
        use crate::EvictionReason;
        let mut c = cache();
        c.attach_probe(Box::<RecordingProbe>::default());

        c.fill(conflict_addr(0), zero_block(), FillMode::Compress, None);
        c.read(conflict_addr(0)).unwrap();
        c.fill(conflict_addr(1), random_block(1), FillMode::Bypass, None);
        c.fill(conflict_addr(2), random_block(2), FillMode::Bypass, None); // capacity evicts
        c.invalidate_block(conflict_addr(2)).unwrap(); // forced
        c.invalidate_all(); // power loss for the remaining block

        let p = take_recording(&mut c);
        assert_eq!(p.fills.len(), 3);
        assert!(p.fills[0].stored_compressed && p.fills[0].segments < p.fills[0].full_segments);
        assert_eq!(p.fills[1].used_after, p.fills[0].segments + 4, "1 compressed + 1 full block");

        assert_eq!(p.hits.len(), 1);
        assert_eq!(p.hits[0].reuse, 1, "re-read right after the fill");
        assert!(p.hits[0].was_compressed);

        let reasons: Vec<EvictionReason> = p.evictions.iter().map(|e| e.reason).collect();
        assert_eq!(
            reasons,
            vec![EvictionReason::Capacity, EvictionReason::Forced, EvictionReason::PowerLoss]
        );
        for e in &p.evictions {
            assert!(e.lifetime >= e.idle, "a block cannot be idle longer than it lived");
        }
    }

    #[test]
    fn probe_hit_run_and_shallow_commits_report_like_full_reads() {
        let mut probed = cache();
        probed.attach_probe(Box::<RecordingProbe>::default());
        probed.fill(conflict_addr(0), random_block(1), FillMode::Bypass, None);
        probed.read(conflict_addr(0)).unwrap(); // MRU now
        assert!(probed.try_commit_shallow_read(conflict_addr(0)));
        assert!(probed.try_commit_shallow_write(conflict_addr(0), 7));
        probed.commit_read_hit_run(conflict_addr(0), 3);

        let p = take_recording(&mut probed);
        assert_eq!(p.hits.len(), 3, "read + shallow read + shallow write");
        assert!(p.hits.iter().skip(1).all(|h| h.reuse == 1 && !h.was_compressed));
        assert_eq!(p.runs, vec![(0, 3)]);
    }

    #[test]
    fn probes_fan_out_and_are_recovered_by_type() {
        let model = crate::LatencyModel { hit: 1, decompress: 4, compress: 3, miss: 11 };
        let mut c = cache();
        c.attach_probe(Box::<RecordingProbe>::default());
        c.attach_probe(Box::new(crate::AccessTimeline::new(model, 4, 64)));
        c.fill(conflict_addr(0), zero_block(), FillMode::Compress, None);
        c.read(conflict_addr(0)).unwrap();
        c.write(conflict_addr(0), 7, true).unwrap();

        // Both probes saw the same fill and both hits, in place and after
        // detaching; a type with no attached probe finds nothing.
        assert_eq!(c.probe_mut::<RecordingProbe>().unwrap().hits.len(), 2);
        let timeline = c.take_probe::<crate::AccessTimeline>().unwrap();
        assert_eq!(timeline.records().iter().filter(|r| r.hit).count(), 2);
        assert_eq!(timeline.records().iter().filter(|r| !r.hit).count(), 1);
        assert!(c.take_probe::<crate::AccessTimeline>().is_none());
        let p = take_recording(&mut c);
        assert_eq!((p.fills.len(), p.hits.len()), (1, 2));
        assert!(c.probe_mut::<RecordingProbe>().is_none());
    }

    #[test]
    fn clone_detaches_the_probe_and_occupancy_map_reflects_contents() {
        let mut c = cache();
        c.attach_probe(Box::<RecordingProbe>::default());
        c.fill(conflict_addr(0), zero_block(), FillMode::Compress, None);
        let mut copy = c.clone();
        assert!(copy.take_probe::<RecordingProbe>().is_none(), "clones must start detached");

        let occ = c.occupancy_map();
        assert_eq!(occ.len(), 4, "table1 has 4 sets");
        assert_eq!(occ[0].blocks.len(), 1);
        assert!(occ[0].blocks[0].1, "stored compressed");
        assert_eq!(occ[0].used_segments, occ[0].blocks[0].0);
        assert_eq!(c.set_used_incremental(0), c.recount_set_segments(0));
    }

    #[test]
    fn works_with_other_geometries() {
        for (size, ways, bs) in
            [(128u32, 2u32, 32u32), (512, 4, 32), (256, 1, 32), (256, 2, 16), (4096, 8, 64)]
        {
            let params = CacheParams::table1().with_size(size).with_ways(ways).with_block_size(bs);
            let mut c = CompressedCache::new(CacheConfig::new(params, Algorithm::Fpc));
            for i in 0..64u64 {
                let addr = Address::new(i * bs as u64 * 3);
                if c.read(addr).is_none() {
                    c.fill(addr, BlockData::zeroed(bs), FillMode::Compress, None);
                }
            }
            assert!(c.stats().fills > 0);
        }
    }
}
