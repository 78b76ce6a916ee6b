//! Simulation statistics: per-power-cycle records, cache/NVM counters, the
//! energy breakdown, and the derived metrics the paper's figures report.

use ehs_cache::CacheStats;
use ehs_energy::EnergyBreakdown;
use ehs_mem::NvmStats;
use ehs_model::{Energy, SimTime};
use serde::{Deserialize, Serialize};

/// Kagura's register snapshot `(R_prev, R_mem, R_adjust, R_thres, R_evict)`.
pub type KaguraRegisters = (u64, u64, i64, u64, u64);

/// What happened during one power cycle (reboot → power failure).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CycleRecord {
    /// Committed instructions.
    pub insts: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Core cycles spent executing.
    pub cycles: u64,
}

impl CycleRecord {
    /// Cycles per instruction (0 for an empty cycle).
    pub fn cpi(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.cycles as f64 / self.insts as f64
        }
    }
}

/// Fig 12's neighbouring-power-cycle consistency metrics for one metric
/// stream: mean relative difference between consecutive cycles, and the
/// fraction of neighbour pairs differing by less than 20 %.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConsistencyReport {
    /// Mean |x_{i+1} − x_i| / max(x_i, 1) over neighbouring cycles.
    pub mean_diff: f64,
    /// Fraction of neighbouring pairs with relative difference < 20 %.
    pub frac_below_20: f64,
}

fn consistency(values: impl Iterator<Item = f64> + Clone) -> ConsistencyReport {
    let v: Vec<f64> = values.collect();
    if v.len() < 2 {
        return ConsistencyReport { mean_diff: 0.0, frac_below_20: 1.0 };
    }
    let mut sum = 0.0;
    let mut below = 0usize;
    for w in v.windows(2) {
        let denom = w[0].abs().max(1.0);
        let d = (w[1] - w[0]).abs() / denom;
        sum += d;
        if d < 0.20 {
            below += 1;
        }
    }
    let n = (v.len() - 1) as f64;
    ConsistencyReport { mean_diff: sum / n, frac_below_20: below as f64 / n }
}

/// Full results of one simulation run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// The program ran to completion (vs hitting the simulated-time guard).
    pub completed: bool,
    /// Total committed instructions (excluding re-executed work).
    pub committed_insts: u64,
    /// Instructions executed including SweepCache re-execution.
    pub executed_insts: u64,
    /// Total core cycles while powered.
    pub total_cycles: u64,
    /// Simulated wall-clock time at the end of the run (the paper's
    /// performance metric: lower = faster under the same energy trace).
    pub sim_time: SimTime,
    /// One record per completed power cycle. Empty when the run was
    /// configured with `record_cycles: false` (population-scale
    /// campaigns); use [`SimStats::power_cycle_count`] for the count.
    pub power_cycles: Vec<CycleRecord>,
    /// Number of completed power cycles, maintained whether or not the
    /// per-cycle records above were kept.
    #[serde(default)]
    pub power_cycle_count: u64,
    /// Number of JIT checkpoints (= power failures seen while running).
    pub checkpoints: u64,
    /// ICache counters.
    pub icache: CacheStats,
    /// DCache counters.
    pub dcache: CacheStats,
    /// NVM traffic (demand + checkpoint).
    pub nvm: NvmStats,
    /// Energy per Fig 16 category.
    pub breakdown: EnergyBreakdown,
    /// Total harvested energy actually absorbed by the capacitor.
    pub harvested: Energy,
    /// Capacitor self-leakage (also included in the `Other` breakdown
    /// bucket); Table III reports this as a share of the total.
    pub cap_leak: Energy,
    /// Compressions averted by Kagura's RM mode: fills that would have
    /// compressed under CM but bypassed instead.
    pub rm_bypassed_fills: u64,
    /// Checkpoint blocks whose compressed payload failed to decode and
    /// were dropped — *detected* consistency violations. Always zero in
    /// real runs; nonzero only under an injected
    /// [`crate::machine::FaultKind::CorruptPayload`] fault.
    #[serde(default)]
    pub decode_faults: u64,
    /// Power cycles whose energy-ledger row failed its conservation
    /// audit (`harvested ≠ Σ consumed + Δstored` beyond tolerance).
    /// Always zero on healthy traces; see `ehs_energy::ledger`.
    #[serde(default)]
    pub ledger_violations: u64,
    /// Why the cooperative watchdog cancelled the run, when it did
    /// ([`StepBudget`](crate::config::StepBudget)); `None` for runs that
    /// ended naturally. A cancelled run always has `completed == false`.
    #[serde(default)]
    pub budget_exhausted: Option<String>,
    /// Final Kagura registers and RM-entry count, when the governor was
    /// Kagura.
    pub kagura_state: Option<(KaguraRegisters, u64)>,
}

impl SimStats {
    /// Mean committed instructions per power cycle.
    pub fn avg_insts_per_cycle(&self) -> f64 {
        if self.power_cycles.is_empty() {
            self.committed_insts as f64
        } else {
            self.power_cycles.iter().map(|c| c.insts).sum::<u64>() as f64
                / self.power_cycles.len() as f64
        }
    }

    /// Overall cycles-per-instruction.
    pub fn cpi(&self) -> f64 {
        if self.executed_insts == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.executed_insts as f64
        }
    }

    /// Total energy consumed, all categories.
    pub fn total_energy(&self) -> Energy {
        self.breakdown.total()
    }

    /// Total compression + decompression operation count across caches.
    pub fn compression_ops(&self) -> u64 {
        self.icache.compressions + self.dcache.compressions
    }

    /// Fig 12: consistency of committed loads across neighbouring cycles.
    pub fn load_consistency(&self) -> ConsistencyReport {
        consistency(self.power_cycles.iter().map(|c| c.loads as f64))
    }

    /// Fig 12: consistency of committed stores across neighbouring cycles.
    pub fn store_consistency(&self) -> ConsistencyReport {
        consistency(self.power_cycles.iter().map(|c| c.stores as f64))
    }

    /// Fig 12: consistency of CPI across neighbouring cycles.
    pub fn cpi_consistency(&self) -> ConsistencyReport {
        consistency(self.power_cycles.iter().map(|c| c.cpi()))
    }

    /// Fig 14: histogram of power-cycle lengths (committed instructions),
    /// as `(bin_upper_bound, fraction)` rows over `bins` equal-width bins.
    pub fn cycle_length_histogram(&self, bins: usize) -> Vec<(u64, f64)> {
        assert!(bins > 0, "need at least one bin");
        if self.power_cycles.is_empty() {
            return vec![(0, 0.0); bins];
        }
        let max = self.power_cycles.iter().map(|c| c.insts).max().unwrap_or(0).max(1);
        let width = max.div_ceil(bins as u64).max(1);
        let mut counts = vec![0u64; bins];
        for c in &self.power_cycles {
            let b = ((c.insts / width) as usize).min(bins - 1);
            counts[b] += 1;
        }
        let n = self.power_cycles.len() as f64;
        counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| ((i as u64 + 1) * width, c as f64 / n))
            .collect()
    }

    /// Speedup of this run over a baseline run of the same program
    /// (ratio of simulated completion times).
    ///
    /// # Panics
    ///
    /// Panics if either run failed to complete.
    pub fn speedup_over(&self, baseline: &SimStats) -> f64 {
        assert!(
            self.completed && baseline.completed,
            "speedup requires completed runs (self: {}, baseline: {})",
            self.completed,
            baseline.completed
        );
        baseline.sim_time.seconds() / self.sim_time.seconds()
    }

    /// Non-panicking [`SimStats::speedup_over`]: `None` when either run
    /// failed to complete (or this run's time is degenerate), so a
    /// truncated simulation degrades one report row instead of aborting a
    /// whole experiment batch.
    pub fn try_speedup_over(&self, baseline: &SimStats) -> Option<f64> {
        (self.completed && baseline.completed && self.sim_time.seconds() > 0.0)
            .then(|| baseline.sim_time.seconds() / self.sim_time.seconds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyc(insts: u64, loads: u64, stores: u64, cycles: u64) -> CycleRecord {
        CycleRecord { insts, loads, stores, cycles }
    }

    #[test]
    fn cycle_record_cpi() {
        assert_eq!(cyc(100, 10, 5, 150).cpi(), 1.5);
        assert_eq!(CycleRecord::default().cpi(), 0.0);
    }

    #[test]
    fn consistency_of_identical_cycles_is_perfect() {
        let stats =
            SimStats { power_cycles: vec![cyc(100, 40, 20, 120); 5], ..SimStats::default() };
        let r = stats.load_consistency();
        assert_eq!(r.mean_diff, 0.0);
        assert_eq!(r.frac_below_20, 1.0);
    }

    #[test]
    fn consistency_flags_erratic_cycles() {
        let stats = SimStats {
            power_cycles: vec![cyc(100, 40, 0, 100), cyc(100, 400, 0, 100), cyc(100, 40, 0, 100)],
            ..SimStats::default()
        };
        let r = stats.load_consistency();
        assert!(r.mean_diff > 1.0);
        assert_eq!(r.frac_below_20, 0.0);
    }

    #[test]
    fn histogram_partitions_cycles() {
        let stats = SimStats {
            power_cycles: vec![
                cyc(10, 0, 0, 0),
                cyc(20, 0, 0, 0),
                cyc(95, 0, 0, 0),
                cyc(100, 0, 0, 0),
            ],
            ..SimStats::default()
        };
        let h = stats.cycle_length_histogram(4);
        assert_eq!(h.len(), 4);
        let total: f64 = h.iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Two short cycles land in the first bin, two long in the last.
        assert_eq!(h[0].1, 0.5);
        assert_eq!(h[3].1, 0.5);
    }

    #[test]
    fn speedup_is_ratio_of_times() {
        let fast = SimStats {
            completed: true,
            sim_time: SimTime::from_seconds(1.0),
            ..SimStats::default()
        };
        let slow = SimStats {
            completed: true,
            sim_time: SimTime::from_seconds(1.2),
            ..SimStats::default()
        };
        assert!((fast.speedup_over(&slow) - 1.2).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 1.0 / 1.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "completed")]
    fn speedup_requires_completion() {
        let a = SimStats { completed: false, ..SimStats::default() };
        let b = SimStats { completed: true, ..SimStats::default() };
        let _ = a.speedup_over(&b);
    }

    #[test]
    fn try_speedup_degrades_incomplete_runs_to_none() {
        let done = SimStats {
            completed: true,
            sim_time: SimTime::from_seconds(1.0),
            ..SimStats::default()
        };
        let slower = SimStats {
            completed: true,
            sim_time: SimTime::from_seconds(1.2),
            ..SimStats::default()
        };
        let truncated = SimStats { completed: false, ..SimStats::default() };
        assert!((done.try_speedup_over(&slower).unwrap() - 1.2).abs() < 1e-12);
        assert_eq!(truncated.try_speedup_over(&slower), None);
        assert_eq!(done.try_speedup_over(&truncated), None);
    }

    #[test]
    fn avg_insts_per_cycle() {
        let stats = SimStats {
            power_cycles: vec![cyc(100, 0, 0, 0), cyc(300, 0, 0, 0)],
            ..SimStats::default()
        };
        assert_eq!(stats.avg_insts_per_cycle(), 200.0);
    }
}
