//! The ideal intermittence-aware compressor (paper Fig 13, "ideal").
//!
//! The paper obtains its ideal bars with a two-phase methodology,
//! "assuming perfect knowledge of when to disable compression":
//!
//! 1. **Recording run** — execute normally and log, for every compression
//!    operation, whether it actually contributed to cache hits before the
//!    power cycle ended.
//! 2. **Replay run** — execute again on the *same* power trace, using the
//!    log to decide in advance whether to perform each compression.
//!
//! Replaying individual fill decisions positionally is brittle — a single
//! divergent fill shifts every later decision, and compression's capacity
//! benefit is all-or-nothing within a set — so the replayer consumes the
//! log at *power-cycle* granularity, which is exactly the knowledge Kagura
//! itself approximates: for each power cycle the recording identifies the
//! **switch point**, the memory-operation index after which no compression
//! proved useful. The replay compresses normally before the switch point
//! and disables compression after it. A cycle whose compressions were all
//! useless gets switch point 0 (never compress); a cycle whose last
//! compression paid off right before the outage gets a switch point at its
//! end (always compress).

use ehs_cache::{FillMode, HitInfo};
use serde::{Deserialize, Serialize};

use crate::governor::CompressionGovernor;

/// The phase-1 log: per power cycle, the memory-op index after which no
/// compression proved useful.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OracleTrace {
    switch_points: Vec<u64>,
    /// Total compressing fills observed (for reporting).
    fills: u64,
    /// Fills that proved useful (for reporting).
    useful: u64,
}

impl OracleTrace {
    /// Number of recorded power cycles.
    pub fn len(&self) -> usize {
        self.switch_points.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.switch_points.is_empty()
    }

    /// The switch point for power cycle `k`, if recorded.
    pub fn switch_point(&self, cycle: usize) -> Option<u64> {
        self.switch_points.get(cycle).copied()
    }

    /// `true` when no recorded fill proved useful, so every switch point
    /// is 0: a replay over this trace never compresses in a recorded
    /// cycle.
    pub fn never_compresses(&self) -> bool {
        self.switch_points.iter().all(|&p| p == 0)
    }

    /// Fraction of recorded compressing fills that proved useful.
    pub fn useful_fraction(&self) -> f64 {
        if self.fills == 0 {
            0.0
        } else {
            self.useful as f64 / self.fills as f64
        }
    }
}

/// Phase-1 wrapper: behaves exactly like the inner governor while logging
/// which compressions pay off and where each cycle's last useful
/// compression happened.
///
/// The simulator does the attribution: it calls
/// [`OracleRecorder::record_fill`] for each compressing fill (obtaining an
/// id) and [`OracleRecorder::mark_useful`] when that fill's compression
/// later contributes to a hit.
#[derive(Debug, Clone)]
pub struct OracleRecorder<G> {
    inner: G,
    /// `(cycle, mem-op position)` of every compressing fill.
    fill_positions: Vec<(usize, u64)>,
    /// Per finished/ongoing cycle: mem-op index after the last useful fill.
    switch_points: Vec<u64>,
    cycle: usize,
    mem_pos: u64,
    useful: u64,
}

impl<G: CompressionGovernor> OracleRecorder<G> {
    /// Wraps `inner` for a recording run.
    pub fn new(inner: G) -> Self {
        OracleRecorder {
            inner,
            fill_positions: Vec::new(),
            switch_points: vec![0],
            cycle: 0,
            mem_pos: 0,
            useful: 0,
        }
    }

    /// The wrapped governor.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// Registers one compressing fill; returns its sequence id.
    pub fn record_fill(&mut self) -> usize {
        self.fill_positions.push((self.cycle, self.mem_pos));
        self.fill_positions.len() - 1
    }

    /// Marks the fill with sequence id `fill_id` as having paid off: its
    /// cycle's switch point moves past the fill's position.
    ///
    /// # Panics
    ///
    /// Panics if `fill_id` was never returned by
    /// [`OracleRecorder::record_fill`].
    pub fn mark_useful(&mut self, fill_id: usize) {
        let (cycle, pos) = self.fill_positions[fill_id];
        self.useful += 1;
        let slot = &mut self.switch_points[cycle];
        *slot = (*slot).max(pos + 1);
    }

    /// Finishes the recording run.
    pub fn into_trace(self) -> OracleTrace {
        OracleTrace {
            switch_points: self.switch_points,
            fills: self.fill_positions.len() as u64,
            useful: self.useful,
        }
    }
}

impl<G: CompressionGovernor> CompressionGovernor for OracleRecorder<G> {
    fn fill_mode(&mut self) -> FillMode {
        self.inner.fill_mode()
    }

    fn compression_enabled(&self) -> bool {
        self.inner.compression_enabled()
    }

    fn on_hit(&mut self, info: &HitInfo, ways: u32) {
        self.inner.on_hit(info, ways);
    }

    fn on_fill(&mut self, stored_compressed: bool) {
        self.inner.on_fill(stored_compressed);
    }

    fn on_mem_commit(&mut self) {
        self.inner.on_mem_commit();
        self.mem_pos += 1;
    }

    fn on_evictions(&mut self, count: u32) {
        self.inner.on_evictions(count);
    }

    fn on_voltage(&mut self, v: f64, v_ckpt: f64, v_rst: f64) {
        self.inner.on_voltage(v, v_ckpt, v_rst);
    }

    fn on_power_failure(&mut self) {
        self.inner.on_power_failure();
    }

    fn on_reboot(&mut self) {
        self.inner.on_reboot();
        self.cycle += 1;
        self.mem_pos = 0;
        self.switch_points.push(0);
    }

    fn name(&self) -> &'static str {
        "oracle-recorder"
    }
}

/// Phase-2 governor: perfect knowledge of each cycle's disable point.
///
/// Compresses (deferring to the inner governor) while the current cycle's
/// memory-op position is before the recorded switch point, and bypasses
/// after it. Cycles beyond the recorded trace fall back to the inner
/// governor unchanged.
#[derive(Debug, Clone)]
pub struct OracleReplayer<G> {
    inner: G,
    trace: OracleTrace,
    cycle: usize,
    mem_pos: u64,
}

impl<G: CompressionGovernor> OracleReplayer<G> {
    /// Creates a replayer over `trace`.
    pub fn new(inner: G, trace: OracleTrace) -> Self {
        OracleReplayer { inner, trace, cycle: 0, mem_pos: 0 }
    }

    /// The wrapped governor.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// The recorded trace the replay follows.
    pub fn trace(&self) -> &OracleTrace {
        &self.trace
    }

    /// Current power-cycle index: the number of reboots so far.
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    fn past_switch_point(&self) -> bool {
        match self.trace.switch_point(self.cycle) {
            Some(p) => self.mem_pos >= p,
            None => false,
        }
    }
}

impl<G: CompressionGovernor> CompressionGovernor for OracleReplayer<G> {
    fn fill_mode(&mut self) -> FillMode {
        if self.past_switch_point() {
            FillMode::Bypass
        } else {
            self.inner.fill_mode()
        }
    }

    fn compression_enabled(&self) -> bool {
        !self.past_switch_point() && self.inner.compression_enabled()
    }

    fn on_hit(&mut self, info: &HitInfo, ways: u32) {
        self.inner.on_hit(info, ways);
    }

    fn on_fill(&mut self, stored_compressed: bool) {
        self.inner.on_fill(stored_compressed);
    }

    fn on_mem_commit(&mut self) {
        self.inner.on_mem_commit();
        self.mem_pos += 1;
    }

    fn on_evictions(&mut self, count: u32) {
        self.inner.on_evictions(count);
    }

    fn on_voltage(&mut self, v: f64, v_ckpt: f64, v_rst: f64) {
        self.inner.on_voltage(v, v_ckpt, v_rst);
    }

    fn on_power_failure(&mut self) {
        self.inner.on_power_failure();
    }

    fn on_reboot(&mut self) {
        self.inner.on_reboot();
        self.cycle += 1;
        self.mem_pos = 0;
    }

    fn name(&self) -> &'static str {
        "oracle-replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{AlwaysCompress, NeverCompress};

    #[test]
    fn recorder_tracks_switch_points_per_cycle() {
        let mut rec = OracleRecorder::new(AlwaysCompress);
        // Cycle 0: fills at mem positions 0 and 5; only the second useful.
        let _f0 = rec.record_fill();
        for _ in 0..5 {
            rec.on_mem_commit();
        }
        let f1 = rec.record_fill();
        rec.mark_useful(f1);
        rec.on_power_failure();
        rec.on_reboot();
        // Cycle 1: one useless fill.
        let _f2 = rec.record_fill();
        rec.on_power_failure();
        rec.on_reboot();

        let trace = rec.into_trace();
        assert_eq!(trace.len(), 3); // two finished + one empty ongoing
        assert!(!trace.never_compresses(), "cycle 0 has a useful fill");
        assert_eq!(trace.switch_point(0), Some(6));
        assert_eq!(trace.switch_point(1), Some(0));
        assert!((trace.useful_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn replayer_disables_past_the_switch_point() {
        let mut rec = OracleRecorder::new(AlwaysCompress);
        for _ in 0..3 {
            rec.on_mem_commit();
        }
        let f = rec.record_fill();
        rec.mark_useful(f); // switch point = 4
        let trace = rec.into_trace();

        let mut rep = OracleReplayer::new(AlwaysCompress, trace);
        assert_eq!(rep.fill_mode(), FillMode::Compress);
        assert!(rep.compression_enabled());
        for _ in 0..4 {
            rep.on_mem_commit();
        }
        assert_eq!(rep.fill_mode(), FillMode::Bypass);
        assert!(!rep.compression_enabled());
    }

    #[test]
    fn replayer_resets_at_reboot_and_follows_per_cycle_points() {
        let mut rec = OracleRecorder::new(AlwaysCompress);
        let f = rec.record_fill();
        rec.mark_useful(f); // cycle 0: switch 1
        rec.on_power_failure();
        rec.on_reboot(); // cycle 1: switch 0 (nothing useful)
        rec.on_power_failure();
        rec.on_reboot();
        let trace = rec.into_trace();

        let mut rep = OracleReplayer::new(AlwaysCompress, trace);
        assert_eq!(rep.fill_mode(), FillMode::Compress); // cycle 0, pos 0
        rep.on_power_failure();
        rep.on_reboot();
        assert_eq!(rep.cycle(), 1);
        assert_eq!(rep.fill_mode(), FillMode::Bypass); // cycle 1: switch 0
    }

    #[test]
    fn beyond_recorded_cycles_falls_back_to_inner() {
        let trace = OracleRecorder::new(AlwaysCompress).into_trace();
        let mut rep = OracleReplayer::new(AlwaysCompress, trace);
        // Advance past all recorded cycles.
        for _ in 0..5 {
            rep.on_power_failure();
            rep.on_reboot();
        }
        assert_eq!(rep.fill_mode(), FillMode::Compress);
    }

    #[test]
    fn replayer_respects_inner_bypass() {
        let mut rec = OracleRecorder::new(AlwaysCompress);
        let f = rec.record_fill();
        rec.mark_useful(f);
        let mut rep = OracleReplayer::new(NeverCompress, rec.into_trace());
        assert_eq!(rep.fill_mode(), FillMode::Bypass);
    }

    #[test]
    fn a_trace_without_useful_fills_never_compresses() {
        let mut rec = OracleRecorder::new(AlwaysCompress);
        let _ = rec.record_fill();
        rec.on_power_failure();
        rec.on_reboot();
        let _ = rec.record_fill();
        let trace = rec.into_trace();
        assert_eq!(trace.len(), 2);
        assert!(trace.never_compresses(), "no fill was marked useful");
        let rep = OracleReplayer::new(AlwaysCompress, trace.clone());
        assert_eq!(rep.trace(), &trace);
    }

    #[test]
    fn empty_trace_stats() {
        let trace = OracleTrace::default();
        assert!(trace.is_empty());
        assert_eq!(trace.useful_fraction(), 0.0);
        assert_eq!(trace.switch_point(0), None);
    }
}
