//! One cache set: struct-of-arrays line metadata plus LRU bookkeeping.
//!
//! The tag and recency arrays are kept separate from the line payloads so
//! the two hot scans — `find` over tags, `rank_of`/`lru_victim` over
//! ticks — each walk a dense `u64` array instead of striding over payload
//! bytes. The three arrays are index-aligned: entry `i` of each describes
//! the same resident line.

use ehs_model::BlockData;

/// Payload and status of one resident cache line (the cold part; the tag
/// and recency stamp live in the set's parallel arrays).
///
/// The uncompressed bytes are always kept (`data`) so functional reads and
/// writes are exact; `compressed` + `segments` record how the block sits in
/// the segmented data array.
#[derive(Debug, Clone)]
pub(crate) struct Line {
    pub data: BlockData,
    pub dirty: bool,
    /// Whether the data array holds this block in compressed form.
    pub compressed: bool,
    /// Data-array footprint in segments.
    pub segments: u32,
}

/// A set of resident lines in struct-of-arrays layout.
#[derive(Debug, Clone, Default)]
pub(crate) struct CacheSet {
    /// Tag of each resident line.
    pub tags: Vec<u64>,
    /// Monotonic recency stamp of each line (larger = more recent).
    pub ticks: Vec<u64>,
    /// Recency stamp at which each line was filled (never restamped):
    /// `tick − born` is the block's lifetime in accesses, the telemetry
    /// cachescope folds into its lifetime distributions.
    pub born: Vec<u64>,
    /// Payload/status of each line.
    pub lines: Vec<Line>,
    /// Running total of `lines[i].segments` — kept in lockstep by `push`,
    /// `swap_remove`, `clear`, and `set_line_segments` so the space check
    /// on every fill is O(1) instead of a stride over the line payloads.
    used: u32,
}

impl CacheSet {
    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Appends a line; `tick` doubles as its birth stamp.
    pub fn push(&mut self, tag: u64, tick: u64, line: Line) {
        self.used += line.segments;
        self.tags.push(tag);
        self.ticks.push(tick);
        self.born.push(tick);
        self.lines.push(line);
    }

    /// Removes the line at `idx` (order not preserved), returning its tag
    /// and payload.
    pub fn swap_remove(&mut self, idx: usize) -> (u64, Line) {
        let tag = self.tags.swap_remove(idx);
        self.ticks.swap_remove(idx);
        self.born.swap_remove(idx);
        let line = self.lines.swap_remove(idx);
        self.used -= line.segments;
        (tag, line)
    }

    /// Drops every line.
    pub fn clear(&mut self) {
        self.tags.clear();
        self.ticks.clear();
        self.born.clear();
        self.lines.clear();
        self.used = 0;
    }

    /// Index of the line with `tag`, if resident.
    pub fn find(&self, tag: u64) -> Option<usize> {
        self.tags.iter().position(|&t| t == tag)
    }

    /// Total data-array segments in use.
    pub fn used_segments(&self) -> u32 {
        debug_assert_eq!(self.used, self.recount_segments());
        self.used
    }

    /// The incremental segment counter, with no cross-check — what the
    /// accounting proptest compares against [`CacheSet::recount_segments`].
    pub fn used_incremental(&self) -> u32 {
        self.used
    }

    /// From-scratch recount of the data-array segments in use.
    pub fn recount_segments(&self) -> u32 {
        self.lines.iter().map(|l| l.segments).sum::<u32>()
    }

    /// Rewrites the data-array footprint (and compressed flag) of the line
    /// at `idx`, keeping the running segment total in lockstep.
    pub fn set_line_segments(&mut self, idx: usize, segments: u32, compressed: bool) {
        let line = &mut self.lines[idx];
        self.used = self.used - line.segments + segments;
        line.segments = segments;
        line.compressed = compressed;
    }

    /// Index of the least-recently-used line, optionally excluding one tag.
    pub fn lru_victim(&self, protect: Option<u64>) -> Option<usize> {
        (0..self.len()).filter(|&i| Some(self.tags[i]) != protect).min_by_key(|&i| self.ticks[i])
    }

    /// Recency rank of the line at `idx`: 0 = most recently used.
    ///
    /// The rank counts how many resident lines are more recent, which is
    /// exactly the LRU *stack depth* ACC consults: a hit at rank >= ways
    /// means the block was only present thanks to compression.
    pub fn rank_of(&self, idx: usize) -> u32 {
        let tick = self.ticks[idx];
        self.ticks.iter().filter(|&&t| t > tick).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(entries: &[(u64, u32, u64)]) -> CacheSet {
        let mut s = CacheSet::default();
        for &(tag, segments, tick) in entries {
            s.push(
                tag,
                tick,
                Line {
                    data: BlockData::zeroed(32),
                    dirty: false,
                    compressed: segments < 4,
                    segments,
                },
            );
        }
        s
    }

    #[test]
    fn find_and_segments() {
        let set = set(&[(1, 4, 10), (2, 2, 20)]);
        assert_eq!(set.find(1), Some(0));
        assert_eq!(set.find(3), None);
        assert_eq!(set.used_segments(), 6);
    }

    #[test]
    fn lru_victim_is_oldest() {
        let set = set(&[(1, 4, 10), (2, 4, 5), (3, 4, 20)]);
        assert_eq!(set.lru_victim(None), Some(1));
        // Protecting the oldest redirects to the next oldest.
        assert_eq!(set.lru_victim(Some(2)), Some(0));
    }

    #[test]
    fn rank_counts_more_recent_lines() {
        let set = set(&[(1, 4, 10), (2, 4, 5), (3, 4, 20)]);
        assert_eq!(set.rank_of(2), 0); // tick 20 = MRU
        assert_eq!(set.rank_of(0), 1);
        assert_eq!(set.rank_of(1), 2); // tick 5 = LRU
    }

    #[test]
    fn swap_remove_keeps_arrays_aligned() {
        let mut s = set(&[(1, 4, 10), (2, 2, 20), (3, 1, 30)]);
        let (tag, line) = s.swap_remove(0);
        assert_eq!(tag, 1);
        assert_eq!(line.segments, 4);
        assert_eq!(s.len(), 2);
        // Entry 0 is now the former last entry, in every array.
        assert_eq!(s.tags[0], 3);
        assert_eq!(s.ticks[0], 30);
        assert_eq!(s.born[0], 30);
        assert_eq!(s.lines[0].segments, 1);
    }

    #[test]
    fn empty_set_has_no_victim() {
        let set = CacheSet::default();
        assert_eq!(set.lru_victim(None), None);
        assert_eq!(set.used_segments(), 0);
    }
}
