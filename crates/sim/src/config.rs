//! Simulation configuration.

use ehs_compress::Algorithm;
use ehs_energy::{CapacitorConfig, TraceKind};
use ehs_model::{Cycles, Energy, SimTime, SystemParams};
use kagura_core::{KaguraConfig, RandThresholdConfig};

/// Which EHS runtime the simulated platform uses (paper §VIII-H1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EhsDesign {
    /// NVSRAMCache: JIT checkpoint of dirty blocks + registers at `V_ckpt`
    /// (needs a voltage monitor). The paper's baseline.
    NvsramCache,
    /// NvMR: monitor-free nonvolatile-memory renaming; stores persist
    /// incrementally, failure loses nothing.
    Nvmr,
    /// SweepCache: monitor-free region sweeping; failure rolls back to the
    /// last swept boundary.
    SweepCache,
}

impl EhsDesign {
    /// All designs in the paper's Fig 19 order.
    pub const ALL: [EhsDesign; 3] =
        [EhsDesign::NvsramCache, EhsDesign::Nvmr, EhsDesign::SweepCache];

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            EhsDesign::NvsramCache => "NVSRAMCache",
            EhsDesign::Nvmr => "NvMR",
            EhsDesign::SweepCache => "SweepCache",
        }
    }
}

impl std::fmt::Display for EhsDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Optional cache-management extension (paper §VIII-H3, Fig 20).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Extension {
    /// No extension.
    None,
    /// EDBP: cache-decay-based dead-block prediction — blocks idle longer
    /// than the decay window are retired early (dirty ones written back),
    /// shrinking JIT checkpoints.
    Edbp {
        /// Idle threshold in cache recency ticks.
        decay_ticks: u64,
    },
    /// IPEX: intermittence-aware next-line prefetching — on a DCache read
    /// miss, the sequentially next block is prefetched when the energy
    /// buffer is comfortably full.
    Ipex {
        /// Prefetch only while the capacitor is above this fraction of the
        /// usable (V_ckpt..V_rst) window.
        min_energy_fraction: f64,
    },
}

impl Extension {
    /// The paper's EDBP configuration.
    pub fn edbp() -> Self {
        Extension::Edbp { decay_ticks: 2048 }
    }

    /// The paper's IPEX configuration.
    pub fn ipex() -> Self {
        Extension::Ipex { min_energy_fraction: 0.25 }
    }
}

/// Which compression policy governs the caches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GovernorSpec {
    /// No compression at all (baseline NVSRAMCache).
    NoCompression,
    /// Compress every fill.
    AlwaysCompress,
    /// ACC alone.
    Acc,
    /// ACC with Kagura on top (the paper's proposal).
    AccKagura(KaguraConfig),
    /// The two-phase ideal compressor applied to ACC ("ideal" in Fig 13).
    IdealAcc,
    /// The two-phase ideal applied to ACC + Kagura.
    IdealAccKagura(KaguraConfig),
    /// Randomized compression threshold — the leakscope side-channel
    /// countermeasure: each fill's compress/bypass decision is drawn from
    /// a seeded stream, decorrelating stored footprint from block
    /// contents.
    RandThreshold(RandThresholdConfig),
}

impl GovernorSpec {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            GovernorSpec::NoCompression => "baseline",
            GovernorSpec::AlwaysCompress => "always",
            GovernorSpec::Acc => "ACC",
            GovernorSpec::AccKagura(_) => "ACC+Kagura",
            GovernorSpec::IdealAcc => "ideal ACC",
            GovernorSpec::IdealAccKagura(_) => "ideal ACC+Kagura",
            GovernorSpec::RandThreshold(_) => "rand-threshold",
        }
    }

    /// `true` for the two-phase oracle variants.
    pub fn is_ideal(&self) -> bool {
        matches!(self, GovernorSpec::IdealAcc | GovernorSpec::IdealAccKagura(_))
    }

    /// The spec whose plain run an ideal spec's recording pass is: ACC
    /// for [`GovernorSpec::IdealAcc`], ACC+Kagura for
    /// [`GovernorSpec::IdealAccKagura`]. `None` for every other spec.
    pub fn recording_twin(&self) -> Option<GovernorSpec> {
        match *self {
            GovernorSpec::IdealAcc => Some(GovernorSpec::Acc),
            GovernorSpec::IdealAccKagura(k) => Some(GovernorSpec::AccKagura(k)),
            _ => None,
        }
    }
}

/// Cooperative per-job watchdog budget, checked in the simulator's step
/// loop so a stuck or runaway configuration is cancelled cleanly instead
/// of hanging a whole experiment batch.
///
/// Two independent limits:
///
/// * `max_executed_insts` — cancels after that many *executed*
///   instructions (SweepCache re-execution counts). This limit is
///   **deterministic**: the same config cancels at the same point on
///   every host, so budget-cancelled grid cells stay byte-identical
///   across runs and `--resume`.
/// * `max_wall` — cancels once the run has consumed that much host
///   wall-clock time. Nondeterministic by nature; an operational safety
///   net (`repro --job-timeout`) for configs that would otherwise wedge
///   a worker forever.
///
/// A cancelled run returns normally with
/// [`SimStats::budget_exhausted`](crate::stats::SimStats::budget_exhausted)
/// set and `completed == false`; the parallel pool surfaces it as
/// [`JobFailure::TimedOut`](crate::parallel::JobFailure::TimedOut).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepBudget {
    /// Cancel after this many executed instructions (`None` = unlimited).
    pub max_executed_insts: Option<u64>,
    /// Cancel after this much host wall-clock time (`None` = unlimited).
    pub max_wall: Option<std::time::Duration>,
}

impl StepBudget {
    /// No limits: the default for every config.
    pub const UNLIMITED: StepBudget = StepBudget { max_executed_insts: None, max_wall: None };

    /// Budget limited to `n` executed instructions.
    pub fn insts(n: u64) -> Self {
        StepBudget { max_executed_insts: Some(n), ..Self::UNLIMITED }
    }

    /// Budget limited to `d` of host wall-clock time.
    pub fn wall(d: std::time::Duration) -> Self {
        StepBudget { max_wall: Some(d), ..Self::UNLIMITED }
    }

    /// `true` when neither limit is set (the watchdog is disarmed).
    pub fn is_unlimited(&self) -> bool {
        self.max_executed_insts.is_none() && self.max_wall.is_none()
    }

    /// The intersection of two budgets: each limit is the tighter of
    /// the two (a set limit always beats an unset one). Serving layers
    /// use this to combine a per-request budget with the server-wide
    /// watchdog — a request can only ever *shrink* its allowance.
    pub fn min_with(self, other: StepBudget) -> StepBudget {
        fn tighter<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        StepBudget {
            max_executed_insts: tighter(self.max_executed_insts, other.max_executed_insts),
            max_wall: tighter(self.max_wall, other.max_wall),
        }
    }
}

/// Which host shortcuts the machine loop takes.
///
/// There is one loop; the mode only switches its shortcuts, and both
/// modes are **byte-identical** in results (the shortcuts only elide work
/// that provably cannot change state — see DESIGN.md "Fast path" — and
/// the differential tests in `crates/sim/tests/fastpath.rs` enforce it).
/// `Reference` is the differential baseline: one step per instruction
/// with every subsystem consulted unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Every shortcut on (the default): batches runs of ALU
    /// instructions and skips provably-dead subsystem calls.
    #[default]
    FastForward,
    /// Every shortcut off: no batching; shadow tags, oracle credit, full
    /// cache read paths and voltage samples on every instruction. An
    /// attached telemetry sink runs this way too.
    Reference,
}

/// Fixed runtime costs of the EHS designs (documented extrapolations; see
/// DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeCosts {
    /// Register-file/NVFF checkpoint energy at power failure.
    pub checkpoint_fixed: Energy,
    /// State restoration energy at reboot.
    pub restore_fixed: Energy,
    /// Restoration latency at reboot.
    pub restore_latency: Cycles,
    /// NvMR: fraction of a full NVM block write charged per store commit.
    pub nvmr_store_factor: f64,
    /// SweepCache: committed instructions per persist region.
    pub sweep_region: u64,
    /// SweepCache: fixed energy per region boundary.
    pub sweep_boundary: Energy,
}

impl Default for RuntimeCosts {
    fn default() -> Self {
        RuntimeCosts {
            checkpoint_fixed: Energy::from_picojoules(800.0),
            restore_fixed: Energy::from_picojoules(400.0),
            restore_latency: Cycles::new(40),
            nvmr_store_factor: 0.30,
            sweep_region: 512,
            sweep_boundary: Energy::from_picojoules(100.0),
        }
    }
}

/// The full simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Core, cache and NVM hardware parameters.
    pub system: SystemParams,
    /// Energy buffer.
    pub capacitor: CapacitorConfig,
    /// Which compression algorithm the caches use.
    pub algorithm: Algorithm,
    /// EHS runtime design.
    pub design: EhsDesign,
    /// Compression policy.
    pub governor: GovernorSpec,
    /// Optional cache-management extension.
    pub extension: Extension,
    /// Fixed runtime costs.
    pub costs: RuntimeCosts,
    /// Ambient source for the default generated trace.
    pub trace_kind: TraceKind,
    /// Seed for trace generation.
    pub trace_seed: u64,
    /// Hard stop on simulated wall-clock time (guards against dead traces).
    pub max_sim_time: SimTime,
    /// Cooperative watchdog budget ([`StepBudget::UNLIMITED`] by default).
    pub step_budget: StepBudget,
    /// Host shortcuts of the machine loop ([`ExecMode::FastForward`] by
    /// default; results are byte-identical either way).
    pub exec: ExecMode,
    /// Keep one [`CycleRecord`](crate::stats::CycleRecord) per completed
    /// power cycle in `SimStats::power_cycles` (on by default — the
    /// fig 12/14 analyses need them). Population-scale runs turn this
    /// off: a tiny-capacitor cell can see millions of cycles, and the
    /// records are the only per-run allocation that grows with cycle
    /// count. `SimStats::power_cycle_count` is maintained either way,
    /// and no simulated behaviour depends on the recorded vector.
    pub record_cycles: bool,
    /// Panic on an energy-ledger conservation violation instead of
    /// counting it (`--audit-strict`). Off by default: the counter path
    /// lets nearly-dead traces (where `Capacitor::drain` zero-clamps)
    /// finish while still surfacing the drift.
    pub audit_strict: bool,
}

impl SimConfig {
    /// The paper's Table I platform: NVSRAMCache, 4.7 µF, BDI, RFHome
    /// trace, no compression (the baseline the figures normalise to).
    pub fn table1() -> Self {
        SimConfig {
            system: SystemParams::table1(),
            capacitor: CapacitorConfig::default_4u7(),
            algorithm: Algorithm::Bdi,
            design: EhsDesign::NvsramCache,
            governor: GovernorSpec::NoCompression,
            extension: Extension::None,
            costs: RuntimeCosts::default(),
            trace_kind: TraceKind::RfHome,
            trace_seed: 0xE45,
            max_sim_time: SimTime::from_seconds(600.0),
            step_budget: StepBudget::UNLIMITED,
            exec: ExecMode::FastForward,
            record_cycles: true,
            audit_strict: false,
        }
    }

    /// Copy with a different governor.
    pub fn with_governor(mut self, governor: GovernorSpec) -> Self {
        self.governor = governor;
        self
    }

    /// Copy with a different design.
    pub fn with_design(mut self, design: EhsDesign) -> Self {
        self.design = design;
        self
    }

    /// Copy with a watchdog budget.
    pub fn with_step_budget(mut self, budget: StepBudget) -> Self {
        self.step_budget = budget;
        self
    }

    /// Copy with strict ledger auditing toggled.
    pub fn with_audit_strict(mut self, strict: bool) -> Self {
        self.audit_strict = strict;
        self
    }

    /// Copy with a different step-loop implementation.
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let cfg = SimConfig::table1();
        assert_eq!(cfg.design, EhsDesign::NvsramCache);
        assert_eq!(cfg.governor, GovernorSpec::NoCompression);
        assert_eq!(cfg.algorithm, Algorithm::Bdi);
        assert_eq!(cfg.system.dcache.size_bytes, 256);
    }

    #[test]
    fn labels() {
        assert_eq!(GovernorSpec::Acc.label(), "ACC");
        assert!(GovernorSpec::IdealAcc.is_ideal());
        assert!(!GovernorSpec::Acc.is_ideal());
        assert_eq!(EhsDesign::Nvmr.to_string(), "NvMR");
        assert_eq!(EhsDesign::ALL.len(), 3);
    }

    #[test]
    fn step_budget_defaults_to_unlimited() {
        let cfg = SimConfig::table1();
        assert!(cfg.step_budget.is_unlimited());
        assert!(!StepBudget::insts(1_000).is_unlimited());
        assert!(!StepBudget::wall(std::time::Duration::from_secs(1)).is_unlimited());
        let b = SimConfig::table1().with_step_budget(StepBudget::insts(42)).step_budget;
        assert_eq!(b.max_executed_insts, Some(42));
        assert_eq!(b.max_wall, None);
    }

    #[test]
    fn step_budget_min_with_takes_the_tighter_limit() {
        use std::time::Duration;
        let server = StepBudget::insts(1_000_000);
        let request = StepBudget { max_executed_insts: Some(500), max_wall: None };
        let merged = request.min_with(server);
        assert_eq!(merged.max_executed_insts, Some(500));
        assert_eq!(merged.max_wall, None);
        // A set limit always beats an unset one, in either order.
        let walled = StepBudget::wall(Duration::from_millis(50)).min_with(server);
        assert_eq!(walled.max_executed_insts, Some(1_000_000));
        assert_eq!(walled.max_wall, Some(Duration::from_millis(50)));
        assert!(StepBudget::UNLIMITED.min_with(StepBudget::UNLIMITED).is_unlimited());
        let tight = StepBudget::wall(Duration::from_millis(10))
            .min_with(StepBudget::wall(Duration::from_millis(99)));
        assert_eq!(tight.max_wall, Some(Duration::from_millis(10)));
    }

    #[test]
    fn ledger_audit_defaults_lenient() {
        let cfg = SimConfig::table1();
        assert!(!cfg.audit_strict);
        assert!(SimConfig::table1().with_audit_strict(true).audit_strict);
    }

    #[test]
    fn exec_mode_defaults_to_fast_forward() {
        assert_eq!(SimConfig::table1().exec, ExecMode::FastForward);
        assert_eq!(ExecMode::default(), ExecMode::FastForward);
        let cfg = SimConfig::table1().with_exec(ExecMode::Reference);
        assert_eq!(cfg.exec, ExecMode::Reference);
    }

    #[test]
    fn builders_compose() {
        let cfg =
            SimConfig::table1().with_design(EhsDesign::SweepCache).with_governor(GovernorSpec::Acc);
        assert_eq!(cfg.design, EhsDesign::SweepCache);
        assert_eq!(cfg.governor, GovernorSpec::Acc);
    }
}
