//! The instruction-granular EHS simulator.

use std::collections::HashMap;

use ehs_cache::{AccessTimeline, CacheConfig, CompressedCache, Evicted, FillOutcome};
use ehs_compress::Compressor as _;
use ehs_energy::{
    Capacitor, EnergyBreakdown, EnergyCategory, LedgerRow, PowerTrace, TraceWindow, VoltageMonitor,
};
use ehs_mem::Nvm;
use ehs_model::inst::InstKind;
use ehs_model::{Address, CompressorCost, Energy, Power, SimTime};
use ehs_telemetry::{Counter, Event, Gauge, HistogramId, MetricsRegistry, Sink, Telemetry};
use ehs_workloads::{InstCursor, KernelProgram};
use kagura_core::{CompressionGovernor, Mode};

use crate::cachescope::{
    CachescopeAggregator, CachescopeConfig, CachescopeReport, CycleScope, LatencyAttribution,
    OccupancySnapshot, ScopeState,
};
use crate::config::{EhsDesign, ExecMode, Extension, SimConfig};
use crate::governor::Governor;
use crate::stats::{CycleRecord, SimStats};

/// Trace-stepping granularity while hibernating (one trace window).
const CHARGE_STEP: SimTime = SimTime::from_micros(10.0);

/// Loop iterations between host wall-clock watchdog checks. The
/// instruction budget is compared every step (one u64 compare); reading
/// the host clock is amortised over this many iterations so an armed
/// wall budget costs next to nothing on the hot path.
const WALL_CHECK_PERIOD: u32 = 4096;

/// Oracle attribution bookkeeping for one cache: which live compressed
/// blocks were created by which recorded fills, grouped by set.
///
/// A compression is "useful" when a *deep* hit (LRU rank beyond the nominal
/// ways) lands in a set while the compressed block is resident: the
/// capacity saved by every compressed block in that set is what made the
/// deep residency possible, so all of them are credited. This makes the
/// replayed ideal an optimistic upper bound, as the paper's ideal is.
#[derive(Debug, Default)]
struct OracleMap {
    /// block index -> (set index, fill id)
    by_block: HashMap<u64, (u32, usize)>,
    /// set index -> live (block index, fill id) pairs
    by_set: HashMap<u32, Vec<(u64, usize)>>,
}

impl OracleMap {
    fn insert(&mut self, set: u32, block: u64, id: usize) {
        self.by_block.insert(block, (set, id));
        self.by_set.entry(set).or_default().push((block, id));
    }

    fn remove(&mut self, block: u64) {
        // Non-recording governors never insert, so every eviction would
        // otherwise pay a hash of `block` just to probe an empty table.
        if self.by_block.is_empty() {
            return;
        }
        if let Some((set, _)) = self.by_block.remove(&block) {
            if let Some(v) = self.by_set.get_mut(&set) {
                v.retain(|&(b, _)| b != block);
            }
        }
    }

    fn ids_in_set(&self, set: u32) -> impl Iterator<Item = usize> + '_ {
        self.by_set.get(&set).into_iter().flatten().map(|&(_, id)| id)
    }

    fn clear(&mut self) {
        self.by_block.clear();
        self.by_set.clear();
    }
}

/// How often (committed instructions) the EDBP decay scan runs.
const EDBP_SCAN_PERIOD: u64 = 128;

/// Largest per-instruction cycle count with a precomputed `dt` (miss +
/// fill stalls stay well under this; larger counts fall back to the
/// division).
const DT_TABLE_CYCLES: u64 = 256;

/// Smallest raw stored-energy value (in picojoules, [`Energy`]'s internal
/// unit) at which [`Capacitor::voltage`] reaches `v_ckpt`, found by
/// bisecting f64 bit patterns.
///
/// `voltage = sqrt(2 · (pJ · 1e-12) / C)` is monotone non-decreasing in
/// the raw f64 (each step — two positive-constant multiplies, a divide by
/// a positive constant, a square root — is monotone under IEEE
/// round-to-nearest), and non-negative f64 bit patterns order identically
/// to their values, so the exact boundary is reachable by binary search
/// over the bit patterns. `stored.picojoules() < cutoff` then reproduces
/// `below_checkpoint()` bit-for-bit without the per-instruction sqrt.
fn checkpoint_cutoff_pj(capacitance: f64, v_ckpt: f64) -> f64 {
    // Must mirror `Capacitor::voltage()` ∘ `Energy::joules()` exactly.
    let volt = |pj: f64| (2.0 * (pj * 1e-12) / capacitance).sqrt();
    if volt(0.0) >= v_ckpt {
        return 0.0;
    }
    let mut hi = 1.0f64;
    while volt(hi) < v_ckpt {
        hi *= 2.0;
        if !hi.is_finite() {
            return f64::INFINITY;
        }
    }
    let mut lo_bits = 0u64; // invariant: volt(lo) < v_ckpt
    let mut hi_bits = hi.to_bits(); // invariant: volt(hi) >= v_ckpt
    while hi_bits - lo_bits > 1 {
        let mid = lo_bits + (hi_bits - lo_bits) / 2;
        if volt(f64::from_bits(mid)) < v_ckpt {
            lo_bits = mid;
        } else {
            hi_bits = mid;
        }
    }
    f64::from_bits(hi_bits)
}

/// What the physics of simulated time updates: the capacitor, the energy
/// accumulators and the clock, with the trace window it harvests from. A
/// stepped instruction updates it in place; a batched ALU run copies it
/// into locals, so the loop keeps it in registers, and steps it through
/// the same methods.
#[derive(Debug, Clone, Copy)]
struct Physics<'p> {
    cap: Capacitor,
    breakdown: EnergyBreakdown,
    /// Harvested energy the capacitor absorbed ([`SimStats::harvested`]).
    harvested: Energy,
    /// Capacitor self-leakage ([`SimStats::cap_leak`]).
    cap_leak: Energy,
    now: SimTime,
    window: TraceWindow<'p>,
}

// `inline(always)`: the batched loop keeps its copy in registers only if
// no call receives a pointer to it, and `run_loop` is too large for the
// inliner to take these on its own. It also folds the constant `batched`
// flags away.
//
// `batched` marks a step of a batched ALU run, whose proof in
// [`Simulator::alu_batch_len`] makes two checks dead: the stored energy
// stays above the checkpoint cutoff, so no drain reaches the clamp at
// zero, and every step's time lies in the current trace window, so the
// harvest reads the window's power without checking it.
impl Physics<'_> {
    /// Spends `amount` from the capacitor and books it to `category`.
    #[inline(always)]
    fn spend(&mut self, category: EnergyCategory, amount: Energy) {
        self.draw(category, amount, false);
    }

    /// [`Physics::spend`], without the clamp when `batched`.
    #[inline(always)]
    fn draw(&mut self, category: EnergyCategory, amount: Energy, batched: bool) {
        if batched {
            self.cap.drain_within_headroom(amount);
        } else {
            self.cap.drain(amount);
        }
        self.breakdown.record(category, amount);
    }

    /// Integrates harvest and capacitor leakage over `dt`, without moving
    /// the clock (shared by powered execution and hibernation).
    #[inline(always)]
    fn harvest(&mut self, dt: SimTime, batched: bool) {
        let harvest = if batched { self.window.power() } else { self.window.power_at(self.now) };
        let before = self.cap.stored();
        let cap_leak = self.cap.charge(harvest, dt);
        let gained = (self.cap.stored() - before + cap_leak).clamp_non_negative();
        self.harvested += gained;
        self.cap_leak += cap_leak;
        self.breakdown.record(EnergyCategory::Other, cap_leak);
    }

    /// Advances powered simulated time by `dt`: harvest, then the SRAM
    /// and monitor standby draws (the monitor's hibernation draw is paid
    /// in the charge loop).
    #[inline(always)]
    fn advance(&mut self, dt: SimTime, sram_leak: Power, mon_power: Power, batched: bool) {
        self.harvest(dt, batched);
        self.draw(EnergyCategory::CacheOther, sram_leak * dt, batched);
        self.draw(EnergyCategory::Other, mon_power * dt, batched);
        self.now += dt;
    }
}

/// Per-run context of the machine loop: loop-invariant state hoisted out
/// of the step, and the flags that switch host shortcuts on or off.
struct RunCtx {
    i_ways: u32,
    d_ways: u32,
    block_size: u32,
    i_sets: u32,
    i_access: Energy,
    inst_energy: Energy,
    clock_hz: f64,
    /// `dt` for `cycles == 1` (every instruction of a batched ALU run).
    dt1: SimTime,
    /// `dt` per small cycle count, built with [`RunCtx::dt`]'s fallback
    /// expression so table lookups are bit-identical to the division.
    dt_table: Vec<SimTime>,
    /// Stored-energy threshold equivalent to `below_checkpoint()`.
    cutoff_pj: f64,
    /// Reciprocal of the upper bound on the capacitor drop of one
    /// batched ALU step (pJ): run lengths are capped by a multiply
    /// instead of a divide. The cap only needs to stay conservative —
    /// the bound carries a 2x margin, so the reciprocal's rounding slack
    /// is free — and results are invariant to the exact batch length
    /// (see `alu_batch_len`), so the weaker rounding is harmless.
    inv_drop_max: f64,
    /// `0.5 / dt1` in seconds, for the simulated-time cap (same
    /// reciprocal-multiply argument; the 0.5 margin dominates).
    half_inv_dt1: f64,
    /// Run the shadow tags, oracle deep-hit credit and full cache read
    /// paths: observable under recording governors, and forced on by
    /// [`ExecMode::Reference`].
    track_oracle: bool,
    /// Sample the voltage every instruction: observable under
    /// voltage-triggered governors, and forced on like `track_oracle`.
    voltage_sensitive: bool,
    /// ALU-run batching enabled (off whenever `voltage_sensitive`, since
    /// `on_voltage` must see every instruction boundary). An armed wall
    /// budget keeps it on: its amortised countdown ticks once per loop
    /// iteration, a batched run or a step.
    batching: bool,
    max_executed: Option<u64>,
    /// Combined SRAM leakage `icache + dcache`, hoisted for `advance`.
    /// `None` under EDBP, whose dcache leakage scales with the live line
    /// fraction and so changes between instructions.
    sram_leak: Option<Power>,
    /// Voltage-monitor standby draw (constant per run: the threshold
    /// count is fixed at construction).
    mon_power: Power,
}

impl RunCtx {
    fn dt(&self, cycles: u64) -> SimTime {
        match self.dt_table.get(cycles as usize) {
            Some(&dt) => dt,
            None => SimTime::from_seconds(cycles as f64 / self.clock_hz),
        }
    }
}

/// What a forced fault does when it fires (see [`Simulator::arm_fault`]).
///
/// The first variant models the supply browning out at an instruction
/// boundary; the other two additionally mutate the checkpoint datapath
/// itself, for differential testing of the recovery machinery (they only
/// have extra effect under [`EhsDesign::NvsramCache`], the one design
/// with an explicit checkpoint — the others degrade to `PowerFailure`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A clean forced power failure: the normal wind-down runs to
    /// completion, exactly as if the voltage monitor had fired.
    PowerFailure,
    /// Power dies *mid*-checkpoint: only the first `persist_blocks` dirty
    /// blocks reach NVM, the rest are lost. A correct recovery path must
    /// either tolerate or detect this; the harness uses it as its
    /// built-in mutation test (a silently-torn checkpoint must show up as
    /// a divergent memory image).
    TornCheckpoint {
        /// Dirty blocks persisted before the cut.
        persist_blocks: u32,
    },
    /// The checkpoint datapath flips bit `bit mod payload_bits` of the
    /// first *compressed* dirty block's encoded payload. A decode failure
    /// is surfaced as a detected violation ([`SimStats::decode_faults`],
    /// [`Event::DecodeFault`]) and the block is dropped from the
    /// checkpoint; a flip that still decodes persists the mangled bytes
    /// (silent corruption, caught by the harness's image diff).
    CorruptPayload {
        /// Which payload bit to flip (taken modulo the payload size).
        bit: u32,
    },
}

/// Pre-registered metric handles for an instrumented run, resolved once
/// at attach time so the hot path never looks anything up by name.
#[derive(Debug, Clone, Copy)]
struct TelemetryHandles {
    compressed_fills: Counter,
    bypassed_fills: Counter,
    evictions: Counter,
    checkpoint_blocks: Counter,
    power_failures: Counter,
    reboots: Counter,
    voltage: Gauge,
    cycle_insts: HistogramId,
    charge_us: HistogramId,
}

impl TelemetryHandles {
    fn register(m: &mut MetricsRegistry) -> Self {
        TelemetryHandles {
            compressed_fills: m.counter("fills_compressed"),
            bypassed_fills: m.counter("fills_bypassed"),
            evictions: m.counter("evictions"),
            checkpoint_blocks: m.counter("checkpoint_blocks"),
            power_failures: m.counter("power_failures"),
            reboots: m.counter("reboots"),
            voltage: m.gauge("voltage_v"),
            cycle_insts: m.histogram("cycle_insts", &[1e2, 5e2, 1e3, 5e3, 1e4, 5e4, 1e5]),
            charge_us: m.histogram("charge_us", &[1e2, 1e3, 1e4, 1e5, 1e6]),
        }
    }
}

/// Per-cycle flight-recorder bookkeeping, live only while telemetry is
/// attached (the detached path never touches it beyond one `is_some`
/// branch per instrumented site).
///
/// Tracks which compressed fills of the current power cycle were
/// re-referenced by a hit before the outage. A fill never re-referenced
/// is *wasted* — its compression energy bought nothing (the paper's Fig 3
/// argument); fills after the last useful one are *late* — an ideal
/// switch-off point would have skipped them.
///
/// A block's entry outlives its eviction, so a hit on a later
/// uncompressed refill of the same block still credits the old fill.
/// Any hit can therefore matter, shallow commits and batched ALU fetches
/// included, and every hit site reports here; repeated hits on one block
/// are idempotent.
#[derive(Debug, Default)]
struct FlightTracker {
    /// One entry per compressed fill this cycle, in fill order: was the
    /// block re-referenced by a hit before the outage?
    comps: Vec<bool>,
    /// `(block index, dcache)` → index into `comps` of the live fill.
    by_block: HashMap<(u64, bool), usize>,
    /// Checkpoint blocks persisted this cycle (sweep boundaries; the JIT
    /// checkpoint at failure is added at emission time).
    ckpt_blocks: u64,
}

impl FlightTracker {
    fn on_compressed_fill(&mut self, block: u64, dcache: bool) {
        self.by_block.insert((block, dcache), self.comps.len());
        self.comps.push(false);
    }

    fn on_hit(&mut self, block: u64, dcache: bool) {
        if let Some(&id) = self.by_block.get(&(block, dcache)) {
            self.comps[id] = true;
        }
    }

    fn wasted_fills(&self) -> u64 {
        self.comps.iter().filter(|&&used| !used).count() as u64
    }

    fn late_compressions(&self) -> u64 {
        match self.comps.iter().rposition(|&used| used) {
            Some(last_useful) => (self.comps.len() - 1 - last_useful) as u64,
            None => self.comps.len() as u64,
        }
    }

    fn reset(&mut self) {
        self.comps.clear();
        self.by_block.clear();
        self.ckpt_blocks = 0;
    }
}

/// A shadow tag directory simulating the *uncompressed* baseline cache's
/// contents (LRU, nominal associativity). A real-cache hit that misses in
/// the shadow is a hit that only compression made possible — the precise
/// "would it have missed without compression" test the oracle needs.
#[derive(Debug, Clone)]
struct ShadowTags {
    /// Per set: resident tags in LRU order (front = MRU).
    sets: Vec<Vec<u64>>,
    ways: usize,
}

impl ShadowTags {
    fn new(num_sets: u32, ways: u32) -> Self {
        ShadowTags {
            sets: vec![Vec::with_capacity(ways as usize); num_sets as usize],
            ways: ways as usize,
        }
    }

    /// Simulates one access; returns whether the baseline would have hit.
    fn access(&mut self, set: u32, tag: u64) -> bool {
        let lines = &mut self.sets[set as usize];
        match lines.iter().position(|&t| t == tag) {
            Some(i) => {
                let t = lines.remove(i);
                lines.insert(0, t);
                true
            }
            None => {
                lines.insert(0, tag);
                lines.truncate(self.ways);
                false
            }
        }
    }

    fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }
}

/// One full-system simulation: program + power trace + configuration.
///
/// Construct with [`Simulator::new`], execute with [`Simulator::run`]. A
/// simulator is single-use: `run` consumes it and returns the statistics.
#[derive(Debug)]
pub struct Simulator<'p> {
    cfg: SimConfig,
    program: &'p KernelProgram,
    gov: Governor,

    icache: CompressedCache,
    dcache: CompressedCache,
    nvm: Nvm,
    monitor: VoltageMonitor,
    comp_cost: CompressorCost,
    phys: Physics<'p>,

    inst_index: u64,
    last_persist: u64,
    /// SweepCache's *live* region size. Regions adapt to energy conditions
    /// (paper §VII-C): a cycle that dies before reaching any boundary would
    /// otherwise livelock (rollback to the same point forever), so the
    /// region halves; cycles that comfortably fit several regions let it
    /// grow back toward the configured size.
    sweep_region_live: u64,
    sweeps_this_cycle: u32,
    running: bool,
    /// One-shot forced fault: fires when `stats.executed_insts` reaches
    /// the threshold. Keyed on *executed* (not committed) instructions so
    /// an injection point stays meaningful under SweepCache rollback,
    /// where `inst_index` moves backwards.
    fault: Option<(u64, FaultKind)>,
    /// Host clock at the start of `run_loop`, sampled only when the
    /// config arms a wall-clock budget (`cfg.step_budget.max_wall`).
    wall_start: Option<std::time::Instant>,
    /// Iterations until the next (amortised) wall-clock budget check.
    wall_countdown: u32,
    /// `cfg.step_budget` has at least one armed limit; un-budgeted runs
    /// skip the watchdog entirely.
    budget_armed: bool,

    stats: SimStats,
    cycle: CycleRecord,
    /// Completed power cycles so far — the cycle numbering for
    /// telemetry/flight records. Kept separately from
    /// `stats.power_cycles.len()` so numbering survives
    /// `record_cycles: false`.
    cycles_done: u64,

    /// Run-total accumulator values at the start of the current power
    /// cycle; diffing against them at the cycle boundary yields the
    /// cycle's energy-ledger row. All `Copy` — the always-on ledger costs
    /// four snapshot assignments per power cycle, nothing per step.
    ledger_start_breakdown: EnergyBreakdown,
    ledger_start_harvested: Energy,
    ledger_start_leak: Energy,
    ledger_start_stored: Energy,
    /// Flight-recorder bookkeeping; only fed while telemetry is attached.
    flight: FlightTracker,

    /// Recently missed DCache block indices, for IPEX's stream detector.
    recent_misses: Vec<u64>,
    /// Oracle attribution per cache (I, D).
    oracle_i: OracleMap,
    oracle_d: OracleMap,
    /// Shadow baseline tag directories per cache (I, D).
    shadow_i: ShadowTags,
    shadow_d: ShadowTags,
    edbp_countdown: u64,

    /// Event/metrics recording; `None` (the default) keeps every
    /// instrumented site down to a single untaken branch, so uninstrumented
    /// runs produce byte-identical results at unchanged speed.
    telemetry: Option<(Telemetry<'p>, TelemetryHandles)>,
    /// Cachescope latency attribution and snapshot state; `None` (the
    /// default) keeps every attribution site down to a single untaken
    /// branch. No observer turns a host shortcut off — each sees the same
    /// events either way (asserted by the fastpath differential suite).
    cachescope: Option<Box<ScopeState>>,
}

/// What [`Simulator::run_observed`] returns: the run's statistics and
/// the output of every observer attached to it.
#[derive(Debug)]
pub struct Observed {
    /// The run's statistics, identical to an unobserved run's.
    pub stats: SimStats,
    /// Metrics of the attached telemetry sink, ending with an end-of-run
    /// snapshot; empty without [`Simulator::attach_telemetry`].
    pub metrics: MetricsRegistry,
    /// `Some` exactly when [`Simulator::attach_cachescope`] was called.
    pub cachescope: Option<CachescopeReport>,
    /// `Some` exactly when [`Simulator::attach_leak_timeline`] was called.
    pub leak_timeline: Option<AccessTimeline>,
}

impl<'p> Simulator<'p> {
    /// Builds a simulator over `program` and `trace`, with the governor
    /// `cfg.governor` names.
    ///
    /// Ideal (two-phase) specs — paper Fig 13's "ideal" methodology —
    /// resolve here through [`Simulator::record_oracle`]: the recording
    /// pass runs to completion first, and the returned simulator is the
    /// replay phase, which compresses only the fills the recording found
    /// useful. Observers attached to it see the replay only; the
    /// recording pass is oracle scaffolding, not the behaviour under
    /// study.
    pub fn new(cfg: SimConfig, program: &'p KernelProgram, trace: &'p PowerTrace) -> Self {
        use crate::config::GovernorSpec as GS;
        let gov = match cfg.governor {
            GS::NoCompression => Governor::none(),
            GS::AlwaysCompress => Governor::always(),
            GS::Acc => Governor::acc(),
            GS::AccKagura(kcfg) => Governor::kagura(kcfg),
            GS::RandThreshold(rcfg) => Governor::rand_threshold(rcfg),
            GS::IdealAcc | GS::IdealAccKagura(_) => Self::record_oracle(&cfg, program, trace).1,
        };
        Self::with_governor(cfg, program, trace, gov)
    }

    /// Phase 1 of an ideal spec: runs the recording pass and returns its
    /// stats with the phase-2 replay governor.
    ///
    /// The recording pass behaves exactly like the spec's twin — ACC for
    /// [`GovernorSpec::IdealAcc`](crate::config::GovernorSpec::IdealAcc),
    /// ACC+Kagura for `IdealAccKagura` — so its stats are the twin's
    /// plain [`Simulator::run`] under `cfg` with only the governor
    /// changed, bit for bit (asserted by `tests/fastpath.rs`). The worker
    /// pool relies on this to serve a batch's twin cell from its ideal
    /// cell's recording pass.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.governor` is not an ideal spec.
    pub fn record_oracle(
        cfg: &SimConfig,
        program: &'p KernelProgram,
        trace: &'p PowerTrace,
    ) -> (SimStats, Governor) {
        use crate::config::GovernorSpec as GS;
        let record = |recorder: Governor| {
            Self::with_governor(cfg.clone(), program, trace, recorder).run_recording()
        };
        match cfg.governor {
            GS::IdealAcc => {
                let (stats, oracle) = record(Governor::record_acc());
                (stats, Governor::replay_acc(oracle))
            }
            GS::IdealAccKagura(kcfg) => {
                let (stats, oracle) = record(Governor::record_kagura(kcfg));
                (stats, Governor::replay_kagura(kcfg, oracle))
            }
            other => panic!("{} is not an ideal governor spec", other.label()),
        }
    }

    /// Builds a simulator with an explicit governor instance (the ideal
    /// specs' record and replay phases, and tests).
    pub fn with_governor(
        cfg: SimConfig,
        program: &'p KernelProgram,
        trace: &'p PowerTrace,
        gov: Governor,
    ) -> Self {
        let mut monitor = match cfg.design {
            EhsDesign::NvsramCache => VoltageMonitor::jit_checkpoint(),
            EhsDesign::Nvmr | EhsDesign::SweepCache => VoltageMonitor::none(),
        };
        if gov.uses_voltage_trigger() {
            monitor = monitor.with_trigger_threshold();
        }
        let icache = CompressedCache::new(CacheConfig::new(cfg.system.icache, cfg.algorithm));
        let dcache = CompressedCache::new(CacheConfig::new(cfg.system.dcache, cfg.algorithm));
        let nvm = Nvm::new(cfg.system.nvm, cfg.system.dcache.block_size, program.image().clone());
        let mut cap = Capacitor::new(cfg.capacitor);
        // Boot condition: the EHS starts executing the moment the capacitor
        // first crosses the restoration threshold (charging from v_rst to
        // v_max would take far longer than the hysteresis window refill, so
        // steady state begins immediately).
        cap.set_voltage(cfg.capacitor.v_rst);
        let comp_cost = cfg.algorithm.default_cost();
        let shadow_i = ShadowTags::new(cfg.system.icache.num_sets(), cfg.system.icache.ways);
        let shadow_d = ShadowTags::new(cfg.system.dcache.num_sets(), cfg.system.dcache.ways);
        let sweep_region = cfg.costs.sweep_region;
        let initial_stored = cap.stored();
        let budget_armed = !cfg.step_budget.is_unlimited();
        Simulator {
            cfg,
            program,
            gov,
            icache,
            dcache,
            nvm,
            monitor,
            comp_cost,
            phys: Physics {
                cap,
                breakdown: EnergyBreakdown::default(),
                harvested: Energy::ZERO,
                cap_leak: Energy::ZERO,
                now: SimTime::ZERO,
                window: TraceWindow::new(trace),
            },
            inst_index: 0,
            last_persist: 0,
            sweep_region_live: sweep_region,
            sweeps_this_cycle: 0,
            running: true,
            fault: None,
            wall_start: None,
            wall_countdown: WALL_CHECK_PERIOD,
            budget_armed,
            stats: SimStats::default(),
            cycle: CycleRecord::default(),
            cycles_done: 0,
            ledger_start_breakdown: EnergyBreakdown::default(),
            ledger_start_harvested: Energy::ZERO,
            ledger_start_leak: Energy::ZERO,
            ledger_start_stored: initial_stored,
            flight: FlightTracker::default(),
            recent_misses: Vec::new(),
            oracle_i: OracleMap::default(),
            oracle_d: OracleMap::default(),
            shadow_i,
            shadow_d,
            edbp_countdown: EDBP_SCAN_PERIOD,
            telemetry: None,
            cachescope: None,
        }
    }

    /// Arms a one-shot forced fault that fires immediately after the
    /// `at_executed_inst`-th executed instruction (1-based), regardless of
    /// the capacitor's state. Used by the fault-injection harness
    /// ([`crate::faultinject`]) to place a power failure at an exact
    /// instruction boundary under a steady power trace, so the injected
    /// failure is the only one in the run and the experiment is
    /// deterministic and replayable.
    pub fn arm_fault(&mut self, at_executed_inst: u64, kind: FaultKind) {
        self.fault = Some((at_executed_inst, kind));
    }

    /// Consumes the armed fault if its trigger point has been reached.
    fn take_due_fault(&mut self) -> Option<FaultKind> {
        match self.fault {
            Some((at, kind)) if self.stats.executed_insts >= at => {
                self.fault = None;
                Some(kind)
            }
            _ => None,
        }
    }

    /// Attaches an event sink and metrics registry for the whole run and
    /// turns on the governor's internal event log. The host shortcuts stay
    /// on: events and metrics are identical to an [`ExecMode::Reference`]
    /// run's. [`Simulator::run_observed`] returns the metrics.
    pub fn attach_telemetry(&mut self, sink: &'p mut dyn Sink) {
        let mut t = Telemetry::new(sink);
        let handles = TelemetryHandles::register(&mut t.metrics);
        self.gov.enable_event_log();
        self.telemetry = Some((t, handles));
    }

    /// Runs to program completion (or the simulated-time guard) and
    /// returns the statistics.
    pub fn run(self) -> SimStats {
        self.run_with_memory().0
    }

    /// Like [`Simulator::run`] but also returns the final NVM with all
    /// dirty cache state flushed — the program's *architectural* memory
    /// image, used by crash-consistency tests to check that hundreds of
    /// power failures leave exactly the same bytes as a failure-free run.
    pub fn run_with_memory(mut self) -> (SimStats, Nvm) {
        self.run_and_flush();
        let stats = self.finish();
        (stats, self.nvm)
    }

    /// Runs the machine loop, then flushes residual dirty state so the
    /// NVM reflects architectural memory (free: this is an observation,
    /// not a simulated event). Every entry point ends this way, the
    /// oracle's recording pass included, so their stats stay
    /// byte-identical — `for_each_dirty` counts the flush's
    /// decompressions.
    fn run_and_flush(&mut self) {
        self.run_loop();
        let nvm = &mut self.nvm;
        self.dcache.for_each_dirty(|addr, data, _| nvm.store_silent_from(addr, data));
    }

    /// Runs an oracle recording pass: the same stats as
    /// [`Simulator::run`] under the recorder's inner governor, plus the
    /// oracle trace the recorder logged.
    ///
    /// # Panics
    ///
    /// Panics if the governor is not a recorder.
    pub fn run_recording(mut self) -> (SimStats, kagura_core::OracleTrace) {
        self.run_and_flush();
        let stats = self.finish();
        let trace =
            self.gov.into_oracle_trace().expect("run_recording requires a recording governor");
        (stats, trace)
    }

    /// Runs to completion like [`Simulator::run`] and returns every
    /// attached observer's output alongside the stats. Telemetry gets a
    /// final metrics snapshot and the cachescope a final boundary row, so
    /// the last (possibly unfinished) power cycle is covered too.
    pub fn run_observed(mut self) -> Observed {
        self.run_and_flush();
        let metrics = match self.telemetry.take() {
            Some((mut t, _)) => {
                t.metrics.snapshot(self.cycles_done, self.phys.now.micros());
                t.into_metrics()
            }
            None => MetricsRegistry::default(),
        };
        let cachescope = self.cachescope.is_some().then(|| self.take_cachescope_report());
        let leak_timeline = self.dcache.take_probe::<AccessTimeline>();
        Observed { stats: self.finish(), metrics, cachescope, leak_timeline }
    }

    /// Attaches a cachescope: a [`CachescopeAggregator`] probe on each
    /// cache plus simulator-side latency attribution, power-cycle
    /// boundary rows, and (if configured) periodic occupancy snapshots.
    /// Aggregation is probe-driven, and the fastpath differential suite
    /// asserts the reports are identical in both [`ExecMode`]s.
    /// [`Simulator::run_observed`] returns the report.
    pub fn attach_cachescope(&mut self, scope: CachescopeConfig) {
        let i = CachescopeAggregator::new(self.icache.config());
        let d = CachescopeAggregator::new(self.dcache.config());
        self.icache.attach_probe(Box::new(i));
        self.dcache.attach_probe(Box::new(d));
        self.cachescope = Some(Box::new(ScopeState::new(scope)));
    }

    /// Attaches a leakscope access timeline to the data cache: a bounded
    /// [`AccessTimeline`] probe recording the (set, latency, hit/miss,
    /// occupancy-delta) tuple of every access, as a co-resident attacker
    /// would observe it. Purely event-driven (the fastpath differential
    /// suite asserts identical timelines in both [`ExecMode`]s).
    /// [`Simulator::run_observed`] returns the timeline.
    pub fn attach_leak_timeline(&mut self, capacity: usize) {
        let model = ehs_cache::LatencyModel {
            hit: self.cfg.system.dcache.hit_latency.get(),
            decompress: self.comp_cost.decompress_latency.get(),
            compress: self.comp_cost.compress_latency.get(),
            miss: self.cfg.system.dcache.hit_latency.get() + self.cfg.system.nvm.read_latency.get(),
        };
        let probe = AccessTimeline::new(model, self.cfg.system.dcache.num_sets(), capacity);
        self.dcache.attach_probe(Box::new(probe));
    }

    /// Records the end-of-run boundary row, detaches the probes and
    /// assembles the [`CachescopeReport`].
    fn take_cachescope_report(&mut self) -> CachescopeReport {
        self.cachescope_cycle_boundary();
        let state = self.cachescope.take().expect("cachescope attached");
        let recover = |c: &mut CompressedCache| {
            c.take_probe::<CachescopeAggregator>().expect("cachescope probe attached")
        };
        CachescopeReport {
            algorithm: self.cfg.algorithm.to_string(),
            icache: recover(&mut self.icache),
            dcache: recover(&mut self.dcache),
            latency: state.attr,
            cycles: state.cycles,
            snapshots: state.snapshots,
        }
    }

    /// Records one cachescope boundary row — cumulative per-cache
    /// counters and latency attribution as of this power-cycle boundary
    /// (or end of run) — and, when telemetry is also attached, mirrors
    /// the headline values into the metrics registry so they ride the
    /// per-cycle metric snapshots. No-op while detached.
    fn cachescope_cycle_boundary(&mut self) {
        if self.cachescope.is_none() {
            return;
        }
        let counters = |c: &mut CompressedCache| {
            c.probe_mut::<CachescopeAggregator>().map(|a| a.counters()).unwrap_or_default()
        };
        let ic = counters(&mut self.icache);
        let dc = counters(&mut self.dcache);
        let cycle = self.cycles_done;
        let state = self.cachescope.as_deref_mut().expect("checked above");
        let latency = state.attr;
        state.cycles.push(CycleScope { cycle, icache: ic, dcache: dc, latency });
        if let Some((t, _)) = self.telemetry.as_mut() {
            let m = &mut t.metrics;
            for (name, v) in [
                ("cachescope_dcache_hits", dc.hits as f64),
                ("cachescope_dcache_fills", dc.fills as f64),
                ("cachescope_dcache_capacity_evictions", dc.capacity_evictions as f64),
                ("cachescope_dcache_forced_evictions", dc.forced_evictions as f64),
                ("cachescope_dcache_power_loss_evictions", dc.power_loss_evictions as f64),
                ("cachescope_icache_hits", ic.hits as f64),
                ("cachescope_tag_cycles", latency.tag_cycles as f64),
                ("cachescope_decompress_cycles", latency.decompress_cycles as f64),
                ("cachescope_nvm_cycles", latency.nvm_cycles as f64),
                ("cachescope_writeback_cycles", latency.writeback_cycles as f64),
            ] {
                let g = m.gauge(name);
                m.set(g, v);
            }
        }
    }

    /// Counts down to the next periodic occupancy snapshot and fires it.
    /// Called once per committed instruction at the end of `step`;
    /// batched ALU runs decrement in bulk and are capped to
    /// `countdown - 1` ([`Simulator::alu_batch_len`]) so the fire point
    /// always falls on a per-instruction boundary — identically with
    /// batching on or off.
    fn cachescope_tick(&mut self) {
        let fire = match self.cachescope.as_deref_mut() {
            Some(cs) if cs.period != 0 => {
                cs.snap_countdown -= 1;
                if cs.snap_countdown == 0 {
                    cs.snap_countdown = cs.period;
                    true
                } else {
                    false
                }
            }
            _ => false,
        };
        if fire {
            let snap = OccupancySnapshot {
                inst_index: self.inst_index,
                cycle: self.cycles_done,
                icache: self.icache.occupancy_map(),
                dcache: self.dcache.occupancy_map(),
            };
            self.cachescope.as_deref_mut().expect("fired above").snapshots.push(snap);
        }
    }

    /// Credits a hit on `addr`'s block to the flight recorder while
    /// telemetry is attached — one untaken branch otherwise.
    #[inline]
    fn flight_hit(&mut self, addr: Address, block_size: u32, dcache: bool) {
        if self.telemetry.is_some() {
            self.flight.on_hit(addr.block_index(block_size), dcache);
        }
    }

    /// Adds to the latency attribution when a cachescope is attached —
    /// one untaken branch otherwise.
    #[inline]
    fn scope_attr(&mut self, f: impl FnOnce(&mut LatencyAttribution)) {
        if let Some(cs) = self.cachescope.as_deref_mut() {
            f(&mut cs.attr);
        }
    }

    /// The machine loop shared by every run entry point: step while
    /// powered, checkpoint on the failure threshold, hibernate until the
    /// restore threshold, stop on completion, the simulated-time guard,
    /// or an exhausted watchdog budget ([`StepBudget`]).
    ///
    /// Simulated work is fixed; the host shortcuts taken around it are
    /// switched per run by [`RunCtx`]:
    ///
    /// * runs of ALU instructions whose fetches all land in one MRU
    ///   uncompressed ICache block are batched ([`Simulator::alu_batch_len`]
    ///   proves no observable boundary — power failure, forced fault,
    ///   budget, sweep region, EDBP scan — can fall inside the run, then
    ///   [`Simulator::execute_alu_run`] replays the run's physics exactly);
    /// * work that is unobservable under the active governor (shadow
    ///   tags, oracle credit, full cache read paths, voltage samples) is
    ///   skipped — see [`Simulator::step`].
    ///
    /// [`ExecMode::Reference`] switches every shortcut off; the
    /// `tests/fastpath.rs` differentials assert that both settings give
    /// bit-identical stats and observer outputs. Observers never switch a
    /// shortcut off: every hit a shortcut commits is still reported to the
    /// cache probes and the flight recorder. Shortcuts that hold by
    /// construction stay on in every run: instructions decode through an
    /// incremental [`InstCursor`], `dt` comes from a precomputed table,
    /// and the `below_checkpoint()` square root is one f64 compare
    /// against [`checkpoint_cutoff_pj`].
    fn run_loop(&mut self) {
        if self.cfg.step_budget.max_wall.is_some() {
            self.wall_start = Some(std::time::Instant::now());
        }
        let len = self.program.len();
        if self.inst_index >= len {
            return;
        }
        let clock_hz = self.cfg.system.core.clock_hz;
        let dt_table: Vec<SimTime> =
            (0..=DT_TABLE_CYCLES).map(|c| SimTime::from_seconds(c as f64 / clock_hz)).collect();
        let dt1 = dt_table[1];
        let cap_cfg = self.cfg.capacitor;
        // Worst-case capacitor drop of one batched ALU step: its two
        // spends plus every standby draw integrated over one cycle, with
        // leakage taken at the clamp voltage (the capacitor never exceeds
        // `v_max`, so `P_leak = k·C·V²` never exceeds this).
        let leak_max = Power::from_watts(
            cap_cfg.leak_coeff * cap_cfg.capacitance * cap_cfg.v_max * cap_cfg.v_max,
        ) * dt1;
        let sram_leak = (self.cfg.system.icache.leakage() + self.cfg.system.dcache.leakage()) * dt1;
        let mon_leak = self.monitor.standby_power() * dt1;
        let per_step = self.cfg.system.icache.access_energy
            + self.cfg.system.core.inst_energy
            + leak_max
            + sram_leak
            + mon_leak;
        // Only the differential oracle's baseline turns the shortcuts off.
        let reference = self.cfg.exec == ExecMode::Reference;
        let voltage_sensitive = reference || self.gov.uses_voltage_trigger();
        let ctx = RunCtx {
            i_ways: self.cfg.system.icache.ways,
            d_ways: self.cfg.system.dcache.ways,
            block_size: self.cfg.system.dcache.block_size,
            i_sets: self.cfg.system.icache.num_sets(),
            i_access: self.cfg.system.icache.access_energy,
            inst_energy: self.cfg.system.core.inst_energy,
            clock_hz,
            dt1,
            dt_table,
            cutoff_pj: checkpoint_cutoff_pj(cap_cfg.capacitance, cap_cfg.v_ckpt),
            // The 2x margin dwarfs any f64 rounding slack in the bound.
            inv_drop_max: 1.0 / (per_step.picojoules().max(f64::MIN_POSITIVE) * 2.0),
            half_inv_dt1: 0.5 / dt1.seconds(),
            track_oracle: reference || self.gov.is_recorder(),
            voltage_sensitive,
            batching: !voltage_sensitive,
            max_executed: self.cfg.step_budget.max_executed_insts,
            sram_leak: (!matches!(self.cfg.extension, Extension::Edbp { .. }))
                .then(|| self.cfg.system.icache.leakage() + self.cfg.system.dcache.leakage()),
            mon_power: self.monitor.standby_power(),
        };
        let mut cursor = self.program.cursor(self.inst_index);
        while self.inst_index < len {
            if self.phys.now >= self.cfg.max_sim_time {
                break;
            }
            if self.budget_armed {
                if let Some(reason) = self.budget_exceeded() {
                    self.stats.budget_exhausted = Some(reason);
                    break;
                }
            }
            if !self.running {
                if !self.hibernate_and_reboot() {
                    break; // charge timeout
                }
                continue;
            }
            if cursor.index() != self.inst_index {
                cursor.seek(self.inst_index); // SweepCache rollback
            }
            let k = if ctx.batching { self.alu_batch_len(&cursor, &ctx) } else { 0 };
            if k >= 1 {
                self.execute_alu_run(cursor.pc(), k, &ctx);
                cursor.advance(k);
                // The run's last instruction ends exactly like a stepped
                // one: region-boundary sweep, then the failure checks.
                self.sweep_if_due();
            } else {
                self.step(&mut cursor, &ctx);
            }
            if let Some(kind) = self.take_due_fault() {
                self.power_failure(Some(kind));
            } else if self.phys.cap.stored().picojoules() < ctx.cutoff_pj {
                self.power_failure(None);
            }
        }
    }

    /// How many instructions starting at `cursor` can execute as one
    /// batched ALU run, or 0 when batching does not apply. A positive
    /// length `k` proves all of:
    ///
    /// * the next `k` instructions are ALU ops fetched from one ICache
    ///   block that is resident, MRU, and uncompressed — so each would be
    ///   an uncompressed rank-0 hit (1 cycle, no decompression, a no-op
    ///   for every governor's `on_hit`, and — because the previous fetch
    ///   necessarily touched the same block — a front-of-set identity for
    ///   the shadow tags);
    /// * no forced fault, instruction budget, simulated-time guard, sweep
    ///   region boundary, or EDBP scan falls *inside* the run (each may
    ///   land exactly at its end, where the loop re-checks);
    /// * the capacitor cannot reach the checkpoint threshold inside the
    ///   run: `k` is capped by the stored headroom over a 2x worst-case
    ///   per-step drop;
    /// * every step harvests inside the current trace window: `k` is
    ///   capped by half the time left in it.
    ///
    /// `k == 1` is worthwhile too: a lone ALU instruction satisfying the
    /// proof skips the full ICache read (LRU rank, `HitInfo`, governor
    /// callback) that [`Simulator::step`] would pay — every obligation
    /// above is per-instruction, so nothing about it assumes `k >= 2`.
    fn alu_batch_len(&self, cursor: &InstCursor<'_>, ctx: &RunCtx) -> u64 {
        let run = cursor.alu_run_len();
        if run == 0 {
            return 0;
        }
        let pc = cursor.pc();
        let bs = ctx.block_size as u64;
        // Instructions remaining in the current ICache block (4 B each).
        let within_block = (bs - (pc.get() & (bs - 1))) / 4;
        let mut k = run.min(within_block);
        if !self.icache.probe_mru_uncompressed(pc) {
            return 0;
        }
        if let Some((at, _)) = self.fault {
            k = k.min(at.saturating_sub(self.stats.executed_insts));
        }
        if let Some(max) = ctx.max_executed {
            k = k.min(max.saturating_sub(self.stats.executed_insts));
        }
        // Half the simulated time left before the time guard and before
        // the end of the current trace window (zero when the window does
        // not cover `now` yet: the next stepped harvest moves it). The
        // margin covers f64 accumulation slack in `now += dt1` (~1e-13 s
        // over a full run, versus dt1 in the nanoseconds) and the
        // reciprocal multiply's rounding versus a true division.
        let now = self.phys.now;
        let head_s =
            (self.cfg.max_sim_time - now).seconds().min(self.phys.window.remaining(now).seconds());
        k = k.min((head_s * ctx.half_inv_dt1) as u64);
        let headroom_pj = self.phys.cap.stored().picojoules() - ctx.cutoff_pj;
        if headroom_pj <= 0.0 {
            return 0;
        }
        k = k.min((headroom_pj * ctx.inv_drop_max) as u64);
        if matches!(self.cfg.extension, Extension::Edbp { .. }) {
            k = k.min(self.edbp_countdown.saturating_sub(1));
        }
        if self.cfg.design == EhsDesign::SweepCache {
            k = k.min((self.last_persist + self.sweep_region_live).saturating_sub(self.inst_index));
        }
        if let Some(cs) = self.cachescope.as_deref() {
            // A periodic occupancy snapshot is an observable boundary just
            // like an EDBP scan: keep it outside the batched run.
            if cs.period != 0 {
                k = k.min(cs.snap_countdown.saturating_sub(1));
            }
        }
        k
    }

    /// Executes a batched ALU run of `k` instructions fetched from the
    /// MRU uncompressed block at `pc` (see [`Simulator::alu_batch_len`]).
    ///
    /// The cache effect collapses to one call (`k` rank-0 read hits). The
    /// physics — two spends and a harvest integration per instruction —
    /// run on a local copy of [`Physics`], which stays in registers for
    /// the whole loop, through the same `draw`/`advance` as a stepped
    /// instruction, in the same order, so every f64 accumulator rounds
    /// identically. The run's proof makes the drains' clamp and the trace
    /// window check dead, so the loop skips both and calls nothing.
    fn execute_alu_run(&mut self, pc: Address, k: u64, ctx: &RunCtx) {
        self.icache.commit_read_hit_run(pc, k);
        self.flight_hit(pc, ctx.block_size, false);
        let sram_leak = self.sram_leak(ctx); // the run touches no dcache line
        let mut phys = self.phys;
        for _ in 0..k {
            phys.draw(EnergyCategory::CacheOther, ctx.i_access, true);
            phys.draw(EnergyCategory::Other, ctx.inst_energy, true);
            phys.advance(ctx.dt1, sram_leak, ctx.mon_power, true);
        }
        self.phys = phys;
        self.cycle.insts += k;
        self.cycle.cycles += k;
        self.stats.total_cycles += k;
        self.stats.executed_insts += k;
        self.inst_index += k;
        if matches!(self.cfg.extension, Extension::Edbp { .. }) {
            // Never reaches 0 inside the run: k <= countdown - 1.
            self.edbp_countdown -= k;
        }
        if let Some(cs) = self.cachescope.as_deref_mut() {
            // The run's k cycles are all base-CPI fetch/ALU cycles.
            cs.attr.tag_cycles += k;
            if cs.period != 0 {
                // Never reaches 0 inside the run: k <= countdown - 1.
                cs.snap_countdown -= k;
            }
        }
    }

    /// Cooperative watchdog check: the instruction budget is compared
    /// every call; the host clock is read only every
    /// [`WALL_CHECK_PERIOD`] calls. Returns the cancellation reason once
    /// either armed limit is exceeded. No-op unless the config armed a
    /// budget (callers additionally skip the call via `budget_armed`).
    fn budget_exceeded(&mut self) -> Option<String> {
        if !self.budget_armed {
            return None;
        }
        let budget = self.cfg.step_budget;
        if let Some(max) = budget.max_executed_insts {
            if self.stats.executed_insts >= max {
                return Some(format!("instruction budget exhausted ({max} executed)"));
            }
        }
        if let Some(max) = budget.max_wall {
            self.wall_countdown -= 1;
            if self.wall_countdown == 0 {
                self.wall_countdown = WALL_CHECK_PERIOD;
                let elapsed = self.wall_start.map(|s| s.elapsed()).unwrap_or_default();
                if elapsed >= max {
                    return Some(format!(
                        "wall-clock budget exhausted ({:.1}s >= {:.1}s)",
                        elapsed.as_secs_f64(),
                        max.as_secs_f64()
                    ));
                }
            }
        }
        None
    }

    fn finish(&mut self) -> SimStats {
        // Close and audit the final (partial) cycle's ledger row — flows
        // since the last boundary must balance too. Instrumented entry
        // points detach telemetry before finishing, so a violation here
        // only ticks the counter (no FlightRecord is emitted for the
        // partial cycle: it has no power-failure boundary).
        let row = self.close_ledger_row();
        self.audit_ledger(&row);
        if self.cycle.insts > 0 {
            if self.cfg.record_cycles {
                self.stats.power_cycles.push(self.cycle);
            }
            self.cycles_done += 1;
        }
        self.stats.power_cycle_count = self.cycles_done;
        if let Some(k) = self.gov.reported_kagura() {
            self.stats.kagura_state = Some((k.registers(), k.rm_entries()));
        }
        self.stats.completed = self.inst_index >= self.program.len();
        self.stats.committed_insts = self.inst_index.min(self.program.len());
        self.stats.sim_time = self.phys.now;
        self.stats.icache = self.icache.stats();
        self.stats.dcache = self.dcache.stats();
        self.stats.nvm = self.nvm.stats();
        self.stats.breakdown = self.phys.breakdown;
        self.stats.harvested = self.phys.harvested;
        self.stats.cap_leak = self.phys.cap_leak;
        std::mem::take(&mut self.stats)
    }

    /// Spends `amount` from the capacitor and books it to `category`.
    fn spend(&mut self, category: EnergyCategory, amount: Energy) {
        self.phys.spend(category, amount);
    }

    /// Closes the current power cycle's energy-ledger row by diffing the
    /// run-total accumulators against their cycle-start snapshots, then
    /// re-arms the snapshots for the next cycle. Call *before* pushing
    /// the cycle record (the row's index is the cycle being closed).
    fn close_ledger_row(&mut self) -> LedgerRow {
        let stored = self.phys.cap.stored();
        let row = LedgerRow {
            cycle: self.cycles_done,
            harvested: self.phys.harvested - self.ledger_start_harvested,
            consumed: self.phys.breakdown - self.ledger_start_breakdown,
            cap_leak: self.phys.cap_leak - self.ledger_start_leak,
            delta_stored: stored - self.ledger_start_stored,
        };
        self.ledger_start_breakdown = self.phys.breakdown;
        self.ledger_start_harvested = self.phys.harvested;
        self.ledger_start_leak = self.phys.cap_leak;
        self.ledger_start_stored = stored;
        row
    }

    /// Audits a closed ledger row: an imbalance bumps
    /// [`SimStats::ledger_violations`], emits [`Event::LedgerImbalance`]
    /// when telemetry is attached, and aborts the run when the config
    /// demands strict auditing (`--audit-strict`; the panic is contained
    /// by the parallel pool's fault machinery in batch runs).
    fn audit_ledger(&mut self, row: &LedgerRow) {
        if let Err(imbalance) = row.audit(self.cfg.ledger_epsilon) {
            self.stats.ledger_violations += 1;
            if let Some((t, _)) = self.telemetry.as_mut() {
                t.emit(
                    self.phys.now.micros(),
                    row.cycle,
                    Event::LedgerImbalance {
                        imbalance_pj: imbalance.imbalance.picojoules(),
                        tolerance_pj: imbalance.tolerance.picojoules(),
                    },
                );
            }
            if self.cfg.audit_strict {
                panic!("{imbalance} (strict ledger audit)");
            }
        }
    }

    /// Advances powered simulated time by `dt` (see [`Physics::advance`]).
    /// The standby powers are loop-invariant and hoisted into [`RunCtx`],
    /// except under EDBP (see [`Simulator::sram_leak`]).
    fn advance(&mut self, dt: SimTime, ctx: &RunCtx) {
        let sram_leak = self.sram_leak(ctx);
        self.phys.advance(dt, sram_leak, ctx.mon_power, false);
    }

    /// Combined SRAM standby power. EDBP (`ctx.sram_leak == None`)
    /// power-gates decayed lines, so its dcache leakage scales with the
    /// array's live fraction (cache-decay's headline saving).
    fn sram_leak(&self, ctx: &RunCtx) -> Power {
        ctx.sram_leak.unwrap_or_else(|| {
            let d = &self.cfg.system.dcache;
            let total = (d.size_bytes / d.block_size) as f64;
            let live = (self.dcache.resident_count() as f64 / total).min(1.0);
            self.cfg.system.icache.leakage() + d.leakage() * live
        })
    }

    /// Handles the side effects of a fill: compression energy/latency,
    /// victim write-backs, oracle bookkeeping. Returns extra stall cycles.
    fn absorb_fill(&mut self, outcome: &FillOutcome, addr: Address, is_dcache: bool) -> u64 {
        let mut extra = 0u64;
        if outcome.compressions > 0 {
            self.spend(
                EnergyCategory::Compress,
                self.comp_cost.compress_energy * outcome.compressions as f64,
            );
            extra += self.comp_cost.compress_latency.get();
        }
        if outcome.compressions > 0 || outcome.stored_compressed {
            self.gov.on_fill(outcome.stored_compressed);
        }
        if !outcome.evicted.is_empty() {
            self.gov.on_evictions(outcome.evicted.len() as u32);
        }
        if let Some((t, h)) = self.telemetry.as_mut() {
            let t_us = self.phys.now.micros();
            let cycle = self.cycles_done;
            if outcome.stored_compressed {
                t.metrics.inc(h.compressed_fills, 1);
                t.emit(t_us, cycle, Event::CompressedFill { dcache: is_dcache });
            } else {
                t.metrics.inc(h.bypassed_fills, 1);
                t.emit(t_us, cycle, Event::BypassedFill { dcache: is_dcache });
            }
            if !outcome.evicted.is_empty() {
                t.metrics.inc(h.evictions, outcome.evicted.len() as u64);
                t.emit(
                    t_us,
                    cycle,
                    Event::Eviction { count: outcome.evicted.len() as u32, dcache: is_dcache },
                );
            }
        }
        let block_size = self.cfg.system.dcache.block_size;
        for e in &outcome.evicted {
            self.forget_fill(e.addr, is_dcache);
            if e.dirty {
                if e.was_compressed {
                    // The cache already counted the decompression op; pay it.
                    self.spend(EnergyCategory::Decompress, self.comp_cost.decompress_energy);
                }
                self.writeback(e);
            }
        }
        // Oracle attribution for the incoming block.
        if outcome.stored_compressed {
            if self.telemetry.is_some() {
                self.flight.on_compressed_fill(addr.block_index(block_size), is_dcache);
            }
            if let Some(id) = self.gov.record_fill() {
                let params =
                    if is_dcache { self.cfg.system.dcache } else { self.cfg.system.icache };
                let set = addr.set_index(block_size, params.num_sets());
                let idx = addr.block_index(block_size);
                if is_dcache {
                    self.oracle_d.insert(set, idx, id);
                } else {
                    self.oracle_i.insert(set, idx, id);
                }
            }
        }
        // Kagura RM accounting: a bypassed fill while in RM is an averted
        // compression.
        if !outcome.stored_compressed && outcome.compressions == 0 && self.in_rm() {
            self.stats.rm_bypassed_fills += 1;
        }
        extra
    }

    fn in_rm(&self) -> bool {
        self.gov.reported_kagura().is_some_and(|k| k.mode() == Mode::Regular)
    }

    fn forget_fill(&mut self, addr: Address, is_dcache: bool) {
        let idx = addr.block_index(self.cfg.system.dcache.block_size);
        if is_dcache {
            self.oracle_d.remove(idx);
        } else {
            self.oracle_i.remove(idx);
        }
    }

    /// A deep hit (rank beyond the nominal ways) landed at `addr`: credit
    /// every live compressed fill in that set.
    fn credit_deep_hit(&mut self, addr: Address, is_dcache: bool) {
        let params = if is_dcache { self.cfg.system.dcache } else { self.cfg.system.icache };
        let set = addr.set_index(params.block_size, params.num_sets());
        let map = if is_dcache { &self.oracle_d } else { &self.oracle_i };
        let ids: Vec<usize> = map.ids_in_set(set).collect();
        for id in ids {
            self.gov.mark_useful(id);
        }
    }

    /// Writes an evicted dirty block back to NVM (demand traffic).
    fn writeback(&mut self, e: &Evicted) {
        match self.cfg.design {
            EhsDesign::Nvmr => {
                // Already persisted incrementally by the renaming buffer.
                self.nvm.store_silent_from(e.addr, &e.data);
            }
            _ => {
                let w = self.nvm.write_block_from(e.addr, &e.data);
                self.spend(EnergyCategory::Memory, w.energy);
            }
        }
    }

    /// The full ICache fetch path — taken when the fetch is anything but
    /// a shallow uncompressed hit, and on every fetch of a run that
    /// tracks the oracle. Returns the extra stall cycles (decompression
    /// or fill).
    fn fetch_slow(&mut self, pc: Address, ctx: &RunCtx) -> u64 {
        let mut extra = 0u64;
        let shadow_hit = if ctx.track_oracle {
            self.shadow_i.access(
                pc.set_index(ctx.block_size, ctx.i_sets),
                pc.tag(ctx.block_size, ctx.i_sets),
            )
        } else {
            true
        };
        match self.icache.read(pc) {
            Some(hit) => {
                self.flight_hit(pc, ctx.block_size, false);
                if hit.was_compressed {
                    self.spend(EnergyCategory::Decompress, self.comp_cost.decompress_energy);
                    let stall = self.comp_cost.decompress_latency.get();
                    extra += stall;
                    self.scope_attr(|a| a.decompress_cycles += stall);
                }
                if ctx.track_oracle && (!shadow_hit || hit.lru_rank >= ctx.i_ways) {
                    // The uncompressed baseline would have missed here (or
                    // the block sat beyond the nominal ways): compression
                    // earned this hit.
                    self.credit_deep_hit(pc, false);
                }
                self.gov.on_hit(&hit, ctx.i_ways);
            }
            None => {
                let read = self.nvm.read_block(pc);
                self.spend(EnergyCategory::Memory, read.energy);
                let stall = read.latency.get();
                extra += stall;
                self.scope_attr(|a| a.nvm_cycles += stall);
                let mode = self.gov.fill_mode();
                let base = pc.block_base(ctx.block_size);
                let out = self.icache.fill(base, read.data, mode, None);
                self.spend(EnergyCategory::CacheOther, ctx.i_access);
                let fill_stall = self.absorb_fill(&out, base, false);
                extra += fill_stall;
                self.scope_attr(|a| a.writeback_cycles += fill_stall);
            }
        }
        extra
    }

    /// One committed instruction. The simulated work is fixed; the host
    /// work drops what [`RunCtx`]'s flags prove unobservable:
    ///
    /// * without `track_oracle`, no shadow tags or oracle deep-hit credit
    ///   — for non-recording governors `credit_deep_hit` walks maps that
    ///   are provably empty (`record_fill` returns `None`, so nothing is
    ///   ever inserted) and `mark_useful` is a no-op — and shallow
    ///   uncompressed hits commit without the full cache read paths;
    /// * without `voltage_sensitive`, no per-instruction voltage sample —
    ///   for those governors `on_voltage` is a no-op.
    ///
    /// The flight-recorder and governor-event sites cost one untaken
    /// branch each while telemetry is detached.
    fn step(&mut self, cursor: &mut InstCursor<'_>, ctx: &RunCtx) {
        let inst = cursor.next_inst();
        let mut cycles = 1u64; // base CPI of the in-order pipeline
        self.scope_attr(|a| a.tag_cycles += 1);

        // --- Fetch through the ICache. ---
        self.spend(EnergyCategory::CacheOther, ctx.i_access);
        // A shallow uncompressed fetch hit (the common case: straight-line
        // code re-fetching its own block) needs none of the full read
        // path — no decompression, `on_hit` ignores shallow uncompressed
        // hits, and without `track_oracle` there are no shadow tags or
        // deep-hit credit to maintain.
        if ctx.track_oracle || !self.icache.try_commit_shallow_read(inst.pc) {
            cycles += self.fetch_slow(inst.pc, ctx);
        } else {
            self.flight_hit(inst.pc, ctx.block_size, false);
        }

        // --- Execute / data access. ---
        match inst.kind {
            InstKind::Alu => {}
            InstKind::Load { addr } => {
                cycles += self.data_access(addr, None, ctx);
                self.cycle.loads += 1;
                self.gov.on_mem_commit();
            }
            InstKind::Store { addr, value } => {
                cycles += self.data_access(addr, Some(value), ctx);
                self.cycle.stores += 1;
                self.gov.on_mem_commit();
                if self.cfg.design == EhsDesign::Nvmr {
                    // Renaming buffer persists the store incrementally.
                    let e = self.cfg.system.nvm.write_energy * self.cfg.costs.nvmr_store_factor;
                    self.spend(EnergyCategory::Memory, e);
                }
            }
        }

        // --- Pipeline energy, time, harvest. ---
        self.spend(EnergyCategory::Other, ctx.inst_energy);
        self.advance(ctx.dt(cycles), ctx);

        self.cycle.insts += 1;
        self.cycle.cycles += cycles;
        self.stats.total_cycles += cycles;
        self.stats.executed_insts += 1;
        self.inst_index += 1;

        // --- Voltage sample for voltage-triggered policies. ---
        if ctx.voltage_sensitive {
            self.gov.on_voltage(
                self.phys.cap.voltage(),
                self.cfg.capacitor.v_ckpt,
                self.cfg.capacitor.v_rst,
            );
        }

        // --- Extensions and region sweeping. ---
        match self.cfg.extension {
            Extension::Edbp { decay_ticks } => {
                self.edbp_countdown -= 1;
                if self.edbp_countdown == 0 {
                    self.edbp_countdown = EDBP_SCAN_PERIOD;
                    self.edbp_scan(decay_ticks);
                }
            }
            Extension::Ipex { .. } | Extension::None => {}
        }
        self.sweep_if_due();
        self.cachescope_tick();
        self.pump_gov_events();
    }

    /// Stamps and forwards any controller events the governor logged
    /// during the work just performed (mode switches fire inside
    /// `on_mem_commit`/`on_voltage`, mid-step). One untaken branch when
    /// telemetry is detached; one cheap emptiness check per step when it
    /// is attached.
    fn pump_gov_events(&mut self) {
        if let Some((t, _)) = self.telemetry.as_mut() {
            if self.gov.events_pending() {
                let t_us = self.phys.now.micros();
                let cycle = self.cycles_done;
                self.gov.drain_events(|ev| t.emit(t_us, cycle, ev));
            }
        }
    }

    /// A load or store through the DCache; returns extra stall cycles.
    ///
    /// `ctx.track_oracle` gates the shadow-directory access and the
    /// oracle deep-hit credit, which are provably unobservable for
    /// non-recording governors.
    fn data_access(&mut self, addr: Address, store: Option<u32>, ctx: &RunCtx) -> u64 {
        let (d_ways, block_size) = (ctx.d_ways, ctx.block_size);
        let mut cycles = self.cfg.system.dcache.hit_latency.get();
        self.scope_attr(|a| a.tag_cycles += cycles);
        self.spend(EnergyCategory::CacheOther, self.cfg.system.dcache.access_energy);
        // Short path: an access hitting a *shallow uncompressed* line (one
        // an uncompressed cache would also serve) with oracle tracking off
        // reduces to the LRU stamp, the hit counter, (for stores) the word
        // write + dirty bit, and the flight-recorder hit. Bit-exact
        // versus the full path below: `read()`/`write()` on such a line do
        // exactly the commit's state changes, and every consumer of the
        // `HitInfo` is provably inert — `on_hit` only reacts to deep or
        // compressed hits, and there is no decompression, repack,
        // eviction, or deep-hit credit.
        if !ctx.track_oracle {
            let fast = match store {
                None => self.dcache.try_commit_shallow_read(addr),
                Some(v) => self.dcache.try_commit_shallow_write(addr, v),
            };
            if fast {
                self.flight_hit(addr, block_size, true);
                return cycles;
            }
        }
        let shadow_hit = if ctx.track_oracle {
            let d_sets = self.cfg.system.dcache.num_sets();
            self.shadow_d.access(addr.set_index(block_size, d_sets), addr.tag(block_size, d_sets))
        } else {
            true
        };

        let repack = self.gov.compression_enabled();
        let hit = match store {
            None => self.dcache.read(addr).map(|h| (h, Vec::new())),
            Some(v) => self.dcache.write(addr, v, repack),
        };
        match hit {
            Some((info, evicted)) => {
                self.flight_hit(addr, block_size, true);
                if info.was_compressed {
                    self.spend(EnergyCategory::Decompress, self.comp_cost.decompress_energy);
                    let stall = self.comp_cost.decompress_latency.get();
                    cycles += stall;
                    self.scope_attr(|a| a.decompress_cycles += stall);
                    if store.is_some() && repack {
                        // A store to a compressed line repacks it.
                        self.spend(EnergyCategory::Compress, self.comp_cost.compress_energy);
                        let repack_stall = self.comp_cost.compress_latency.get();
                        cycles += repack_stall;
                        self.scope_attr(|a| a.writeback_cycles += repack_stall);
                    }
                    if store.is_some() && !repack {
                        // The line just expanded: it is no longer a live
                        // compressed fill for oracle purposes.
                        self.forget_fill(addr.block_base(block_size), true);
                    }
                }
                if ctx.track_oracle && (!shadow_hit || info.lru_rank >= d_ways) {
                    self.credit_deep_hit(addr, true);
                }
                self.gov.on_hit(&info, d_ways);
                if !evicted.is_empty() {
                    self.gov.on_evictions(evicted.len() as u32);
                    if let Some((t, h)) = self.telemetry.as_mut() {
                        t.metrics.inc(h.evictions, evicted.len() as u64);
                        t.emit(
                            self.phys.now.micros(),
                            self.cycles_done,
                            Event::Eviction { count: evicted.len() as u32, dcache: true },
                        );
                    }
                    for e in &evicted {
                        self.forget_fill(e.addr, true);
                        if e.dirty {
                            if e.was_compressed {
                                self.spend(
                                    EnergyCategory::Decompress,
                                    self.comp_cost.decompress_energy,
                                );
                            }
                            self.writeback(e);
                        }
                    }
                }
            }
            None => {
                // Miss: fetch from NVM, write-allocate with pending store.
                let read = self.nvm.read_block(addr);
                self.spend(EnergyCategory::Memory, read.energy);
                let stall = read.latency.get();
                cycles += stall;
                self.scope_attr(|a| a.nvm_cycles += stall);
                let mode = self.gov.fill_mode();
                let base = addr.block_base(block_size);
                let apply = store.map(|v| (addr.block_offset(block_size), v));
                let out = self.dcache.fill(base, read.data, mode, apply);
                self.spend(EnergyCategory::CacheOther, self.cfg.system.dcache.access_energy);
                let fill_stall = self.absorb_fill(&out, base, true);
                cycles += fill_stall;
                self.scope_attr(|a| a.writeback_cycles += fill_stall);

                // IPEX: on a detected sequential stream, prefetch the next
                // block when energy-rich.
                if let Extension::Ipex { min_energy_fraction } = self.cfg.extension {
                    let idx = base.block_index(block_size);
                    // A tight window keeps the detector from firing on
                    // random access patterns that happen to touch adjacent
                    // blocks occasionally.
                    let streaming = self.recent_misses.contains(&idx.wrapping_sub(1));
                    self.recent_misses.push(idx);
                    if self.recent_misses.len() > 4 {
                        self.recent_misses.remove(0);
                    }
                    if store.is_none() && streaming {
                        self.maybe_prefetch(base, block_size, min_energy_fraction);
                    }
                }
            }
        }
        cycles
    }

    fn maybe_prefetch(&mut self, base: Address, block_size: u32, min_fraction: f64) {
        let cfg = &self.cfg.capacitor;
        let window = cfg.energy_at(cfg.v_rst) - cfg.energy_at(cfg.v_ckpt);
        let above = (self.phys.cap.stored() - cfg.energy_at(cfg.v_ckpt)).clamp_non_negative();
        if window.is_zero() || above / window < min_fraction {
            return;
        }
        let Some(next) = base.checked_add(block_size as u64) else {
            return;
        };
        if self.dcache.contains(next) {
            return;
        }
        let read = self.nvm.read_block(next);
        self.spend(EnergyCategory::Memory, read.energy);
        let mode = self.gov.fill_mode();
        let out = self.dcache.fill(next.block_base(block_size), read.data, mode, None);
        self.spend(EnergyCategory::CacheOther, self.cfg.system.dcache.access_energy);
        // Prefetch overlaps execution: energy paid, no stall cycles.
        let _ = self.absorb_fill(&out, next.block_base(block_size), true);
    }

    /// EDBP: retire blocks idle longer than the decay window.
    fn edbp_scan(&mut self, decay_ticks: u64) {
        let now = self.dcache.now();
        let dead: Vec<Address> = self
            .dcache
            .resident_blocks()
            .into_iter()
            .filter(|b| now.saturating_sub(b.last_tick) > decay_ticks)
            .map(|b| b.addr)
            .collect();
        for addr in dead {
            if let Some(e) = self.dcache.invalidate_block(addr) {
                self.forget_fill(e.addr, true);
                if e.dirty {
                    if e.was_compressed {
                        self.spend(EnergyCategory::Decompress, self.comp_cost.decompress_energy);
                    }
                    self.writeback(&e);
                }
            }
        }
    }

    /// SweepCache: sweep once the live region is complete.
    fn sweep_if_due(&mut self) {
        if self.cfg.design == EhsDesign::SweepCache
            && self.inst_index - self.last_persist >= self.sweep_region_live
        {
            self.sweep();
        }
    }

    /// SweepCache: persist dirty blocks at a region boundary.
    fn sweep(&mut self) {
        // The drain visits blocks in place; energy is spent inline (the
        // closure captures the physics disjointly from the cache) so the
        // accounting order matches a block-by-block drain.
        let phys = &mut self.phys;
        let nvm = &mut self.nvm;
        let decompress_energy = self.comp_cost.decompress_energy;
        let mut blocks = 0u32;
        self.dcache.for_each_dirty(|addr, data, was_compressed| {
            if was_compressed {
                phys.spend(EnergyCategory::Decompress, decompress_energy);
            }
            let w = nvm.write_block_from(addr, data);
            phys.spend(EnergyCategory::CheckpointRestore, w.energy);
            blocks += 1;
        });
        self.spend(EnergyCategory::CheckpointRestore, self.cfg.costs.sweep_boundary);
        if let Some((t, h)) = self.telemetry.as_mut() {
            self.flight.ckpt_blocks += blocks as u64;
            t.metrics.inc(h.checkpoint_blocks, blocks as u64);
            t.emit(self.phys.now.micros(), self.cycles_done, Event::Checkpoint { blocks });
        }
        self.last_persist = self.inst_index;
        self.sweeps_this_cycle += 1;
    }

    /// The voltage monitor fired (or the supply browned out), or a forced
    /// fault is firing (`injected`): wind down.
    fn power_failure(&mut self, injected: Option<FaultKind>) {
        let mut ckpt_blocks = 0u32;
        let mut decode_faults = 0u32;
        match self.cfg.design {
            EhsDesign::NvsramCache => {
                // JIT checkpoint: dirty blocks + registers to NVM/NVFF.
                // Blocks are visited in place and energy spent inline (see
                // `sweep` for the capture pattern) — the checkpoint path
                // copies nothing per block.
                let phys = &mut self.phys;
                let nvm = &mut self.nvm;
                let comp = self.dcache.compressor().clone();
                let decompress_energy = self.comp_cost.decompress_energy;
                let clock_hz = self.cfg.system.core.clock_hz;
                let mut ckpt_time = SimTime::ZERO;
                let blocks = &mut ckpt_blocks;
                let faults = &mut decode_faults;
                // Injected checkpoint-path mutations (None in real runs).
                let torn_limit = match injected {
                    Some(FaultKind::TornCheckpoint { persist_blocks }) => Some(persist_blocks),
                    _ => None,
                };
                let mut corrupt_bit = match injected {
                    Some(FaultKind::CorruptPayload { bit }) => Some(bit),
                    _ => None,
                };
                self.dcache.for_each_dirty(|addr, data, was_compressed| {
                    if torn_limit.is_some_and(|limit| *blocks >= limit) {
                        return; // power died mid-checkpoint: block lost
                    }
                    if was_compressed {
                        phys.spend(EnergyCategory::Decompress, decompress_energy);
                    }
                    if was_compressed && corrupt_bit.is_some() {
                        // The injected datapath fault mangles this block's
                        // encoded form on its way out. A decode failure is
                        // *detected* (the block is dropped, not persisted);
                        // a flip that still decodes writes mangled bytes.
                        let bit = corrupt_bit.take().expect("checked is_some");
                        let enc = comp.compress(data.as_slice());
                        let mut payload = enc.payload().to_vec();
                        let b = bit as usize % (payload.len() * 8);
                        payload[b / 8] ^= 1 << (b % 8);
                        let mangled = ehs_compress::CompressedBlock::new(
                            enc.algorithm(),
                            enc.original_bytes(),
                            payload,
                            enc.encoded_bits(),
                        );
                        let mut scratch = vec![0u8; data.len()];
                        match comp.try_decompress_into(&mangled, &mut scratch) {
                            Ok(()) => {
                                let block = ehs_model::BlockData::from_bytes(scratch);
                                let w = nvm.write_block_from(addr, &block);
                                phys.spend(EnergyCategory::CheckpointRestore, w.energy);
                                ckpt_time +=
                                    SimTime::from_seconds(w.latency.get() as f64 / clock_hz);
                                *blocks += 1;
                            }
                            Err(_) => *faults += 1,
                        }
                        return;
                    }
                    let w = nvm.write_block_from(addr, data);
                    phys.spend(EnergyCategory::CheckpointRestore, w.energy);
                    ckpt_time += SimTime::from_seconds(w.latency.get() as f64 / clock_hz);
                    *blocks += 1;
                });
                self.spend(EnergyCategory::CheckpointRestore, self.cfg.costs.checkpoint_fixed);
                self.phys.now += ckpt_time;
            }
            EhsDesign::Nvmr => {
                // Stores are already persistent; write back silently for
                // functional coherence only.
                let nvm = &mut self.nvm;
                self.dcache.for_each_dirty(|addr, data, _| nvm.store_silent_from(addr, data));
            }
            EhsDesign::SweepCache => {
                // Work since the last boundary is lost; dirty blocks are
                // dropped and those instructions re-execute after reboot.
                self.inst_index = self.last_persist;
                // Adaptive region sizing (§VII-C): never persisting within
                // a cycle means zero forward progress — shrink; several
                // boundaries per cycle means headroom — grow back.
                if self.sweeps_this_cycle == 0 {
                    self.sweep_region_live = (self.sweep_region_live / 2).max(32);
                } else if self.sweeps_this_cycle >= 4
                    && self.sweep_region_live < self.cfg.costs.sweep_region
                {
                    self.sweep_region_live =
                        (self.sweep_region_live + self.sweep_region_live / 4 + 1)
                            .min(self.cfg.costs.sweep_region);
                }
                self.sweeps_this_cycle = 0;
            }
        }
        self.icache.invalidate_all();
        self.dcache.invalidate_all();
        // After the invalidations so the cycle's power-loss evictions are
        // already folded into the probe counters; before the telemetry
        // block so mirrored gauges ride this cycle's metric snapshot.
        self.cachescope_cycle_boundary();
        self.oracle_i.clear();
        self.oracle_d.clear();
        self.shadow_i.clear();
        self.shadow_d.clear();
        // Kagura's registers and mode must be read before the governor's
        // own failure handling rolls them into the next cycle.
        let kagura = self.gov.kagura_snapshot();
        self.gov.on_power_failure();
        self.stats.decode_faults += decode_faults as u64;
        // All of the cycle's energy is spent by this point: close and
        // audit the ledger row (always on; the audit is a handful of
        // f64 compares per power cycle).
        let row = self.close_ledger_row();
        if let Some((t, h)) = self.telemetry.as_mut() {
            let t_us = self.phys.now.micros();
            // The cycle being closed: its index is the number already
            // recorded (pushed just below).
            let cycle = self.cycles_done;
            if self.cfg.design == EhsDesign::NvsramCache {
                t.metrics.inc(h.checkpoint_blocks, ckpt_blocks as u64);
                t.emit(t_us, cycle, Event::Checkpoint { blocks: ckpt_blocks });
            }
            if decode_faults > 0 {
                t.emit(t_us, cycle, Event::DecodeFault { blocks: decode_faults });
            }
            self.gov.drain_events(|ev| t.emit(t_us, cycle, ev));
            let wasted_fills = self.flight.wasted_fills();
            let block_size = self.cfg.system.dcache.block_size as u64;
            let ckpt_total = self.flight.ckpt_blocks + ckpt_blocks as u64;
            let (registers, mode) = match kagura {
                Some((regs, Mode::Compression)) => (regs, "CM"),
                Some((regs, Mode::Regular)) => (regs, "RM"),
                None => ((0, 0, 0, 0, 0), "-"),
            };
            t.emit(
                t_us,
                cycle,
                Event::FlightRecord(ehs_telemetry::FlightRecord {
                    insts: self.cycle.insts,
                    mem_ops: self.cycle.loads + self.cycle.stores,
                    predicted_remaining: registers.0,
                    actual_remaining: registers.1,
                    mode,
                    late_compressions: self.flight.late_compressions(),
                    wasted_fills,
                    wasted_pj: (self.comp_cost.compress_energy * wasted_fills as f64).picojoules(),
                    checkpoint_bytes: ckpt_total * block_size,
                    harvested_pj: row.harvested.picojoules(),
                    compress_pj: row.consumed[EnergyCategory::Compress].picojoules(),
                    decompress_pj: row.consumed[EnergyCategory::Decompress].picojoules(),
                    cache_other_pj: row.consumed[EnergyCategory::CacheOther].picojoules(),
                    memory_pj: row.consumed[EnergyCategory::Memory].picojoules(),
                    checkpoint_restore_pj: row.consumed[EnergyCategory::CheckpointRestore]
                        .picojoules(),
                    other_pj: row.consumed[EnergyCategory::Other].picojoules(),
                    cap_leak_pj: row.cap_leak.picojoules(),
                    delta_stored_pj: row.delta_stored.picojoules(),
                }),
            );
            let voltage = self.phys.cap.voltage();
            t.emit(t_us, cycle, Event::PowerFailure { insts: self.cycle.insts, voltage });
            t.metrics.inc(h.power_failures, 1);
            t.metrics.set(h.voltage, voltage);
            t.metrics.observe(h.cycle_insts, self.cycle.insts as f64);
            t.metrics.snapshot(cycle, t_us);
        }
        self.audit_ledger(&row);
        self.flight.reset();
        self.stats.checkpoints += 1;
        if self.cfg.record_cycles {
            self.stats.power_cycles.push(self.cycle);
        }
        self.cycles_done += 1;
        self.cycle = CycleRecord::default();
        self.running = false;
    }

    /// Charges until `V_rst`, then performs the reboot sequence. Returns
    /// `false` on charge timeout.
    fn hibernate_and_reboot(&mut self) -> bool {
        let hibernate_start = self.phys.now;
        while !self.phys.cap.above_restore() {
            if self.phys.now >= self.cfg.max_sim_time {
                return false;
            }
            // A wall-clock budget also covers hibernation: a near-dead
            // trace with a generous simulated-time guard would otherwise
            // spin here for a long host time before giving up.
            if self.budget_armed {
                if let Some(reason) = self.budget_exceeded() {
                    self.stats.budget_exhausted = Some(reason);
                    return false;
                }
            }
            self.phys.harvest(CHARGE_STEP, false);
            // The monitor keeps watching the capacitor while hibernating.
            self.spend(EnergyCategory::Other, self.monitor.standby_power() * CHARGE_STEP);
            self.phys.now += CHARGE_STEP;
        }
        // Reboot: restore checkpointed state, re-init the monitor.
        self.spend(EnergyCategory::CheckpointRestore, self.cfg.costs.restore_fixed);
        self.spend(EnergyCategory::Other, self.monitor.init_energy());
        let latency = self.cfg.costs.restore_latency + self.monitor.init_latency();
        self.phys.now +=
            SimTime::from_seconds(latency.get() as f64 / self.cfg.system.core.clock_hz);
        self.gov.on_reboot();
        if let Some((t, h)) = self.telemetry.as_mut() {
            let t_us = self.phys.now.micros();
            let cycle = self.cycles_done;
            let voltage = self.phys.cap.voltage();
            let charge_us = (self.phys.now - hibernate_start).micros();
            t.emit(t_us, cycle, Event::Reboot { charge_us, voltage });
            self.gov.drain_events(|ev| t.emit(t_us, cycle, ev));
            t.metrics.inc(h.reboots, 1);
            t.metrics.set(h.voltage, voltage);
            t.metrics.observe(h.charge_us, charge_us);
        }
        self.running = true;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GovernorSpec;
    use ehs_energy::TraceKind;
    use ehs_workloads::App;

    /// `app` at scale 0.02 under `cfg`, on a short generated trace.
    fn run_cfg(app: App, cfg: SimConfig) -> SimStats {
        let program = app.build(0.02);
        let trace = PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 400_000);
        Simulator::new(cfg, &program, &trace).run()
    }

    fn run_small(app: App, governor: GovernorSpec) -> SimStats {
        run_cfg(app, SimConfig::table1().with_governor(governor))
    }

    #[test]
    fn cachescope_boundary_rows_mirror_into_metrics_when_telemetry_attached() {
        use ehs_telemetry::NullSink;

        let cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
        let program = App::Sha.build(0.02);
        let trace = PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 400_000);
        let mut sink = NullSink;
        let mut sim = Simulator::new(cfg, &program, &trace);
        sim.attach_telemetry(&mut sink);
        sim.attach_cachescope(CachescopeConfig::default());
        let Observed { stats, mut metrics, cachescope, .. } = sim.run_observed();
        let report = cachescope.expect("cachescope attached");
        assert!(stats.checkpoints >= 2, "run too short to cross a boundary");
        // One row per power-cycle boundary plus the end-of-run row.
        assert_eq!(report.cycles.len(), stats.checkpoints as usize + 1);
        // Mirrored gauges hold the last boundary's cumulative values: the
        // end-of-run row is cut after telemetry detaches. (`gauge` is
        // get-or-register by name, so this finds the existing ids; a
        // fresh registration would read 0.0 and fail below.)
        let hits = metrics.gauge("cachescope_dcache_hits");
        let last_boundary = report.cycles[report.cycles.len() - 2];
        assert_eq!(metrics.gauge_value(hits), last_boundary.dcache.hits as f64);
        assert!(metrics.gauge_value(hits) > 0.0);
        for name in ["cachescope_tag_cycles", "cachescope_nvm_cycles"] {
            let g = metrics.gauge(name);
            assert!(metrics.gauge_value(g) > 0.0, "gauge {name} never mirrored");
        }
    }

    #[test]
    fn checkpoint_cutoff_matches_below_checkpoint() {
        use ehs_energy::CapacitorConfig;
        use rand::{Rng, SeedableRng};

        // A capacitor holding exactly `pj`: for `pj` in `[E_max/2, E_max]`
        // both subtractions below are exact (Sterbenz), which the assert
        // re-checks.
        let holding = |cfg: CapacitorConfig, pj: f64| {
            let mut cap = Capacitor::new(cfg);
            cap.charge_to_full();
            cap.drain(cap.stored() - Energy::from_picojoules(pj));
            assert_eq!(cap.stored().picojoules().to_bits(), pj.to_bits());
            cap
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        // Table I's 4.7 µF first, then every size the capacitor sweeps
        // (Fig 29, Table III) use.
        for uf in [4.7, 0.47, 1.0, 10.0, 100.0, 1000.0] {
            let cfg = CapacitorConfig::with_capacitance_uf(uf);
            let cutoff = checkpoint_cutoff_pj(cfg.capacitance, cfg.v_ckpt);
            let e_max = cfg.energy_at(cfg.v_max).picojoules();
            assert!((e_max / 2.0..e_max).contains(&cutoff), "{uf} uF: cutoff {cutoff} pJ");
            let bits = cutoff.to_bits();
            let mut samples = vec![f64::from_bits(bits - 1), cutoff, f64::from_bits(bits + 1)];
            for _ in 0..2000 {
                samples.push(e_max * (0.5 + 0.5 * rng.gen::<f64>()));
                samples.push(f64::from_bits(bits - 1024 + rng.gen::<u64>() % 2048));
            }
            for pj in samples {
                assert_eq!(
                    pj < cutoff,
                    holding(cfg, pj).below_checkpoint(),
                    "{uf} uF: stored {pj} pJ (cutoff {cutoff} pJ)"
                );
            }
            assert!(holding(cfg, f64::from_bits(bits - 1)).below_checkpoint());
            assert!(!holding(cfg, cutoff).below_checkpoint());
        }
    }

    #[test]
    fn baseline_completes_with_power_cycles() {
        let stats = run_small(App::Sha, GovernorSpec::NoCompression);
        assert!(stats.completed, "did not finish: {} insts", stats.committed_insts);
        assert!(stats.power_cycles.len() >= 2, "cycles: {}", stats.power_cycles.len());
        assert_eq!(stats.power_cycle_count, stats.power_cycles.len() as u64);
        assert!(stats.checkpoints >= 1);
        assert!(stats.total_energy().picojoules() > 0.0);
        assert_eq!(stats.dcache.compressions, 0, "baseline must not compress");
    }

    #[test]
    fn disabling_cycle_records_changes_nothing_but_the_vector() {
        let recorded = run_small(App::Sha, GovernorSpec::AccKagura(Default::default()));
        let mut cfg =
            SimConfig::table1().with_governor(GovernorSpec::AccKagura(Default::default()));
        cfg.record_cycles = false;
        let unrecorded = run_cfg(App::Sha, cfg);

        assert!(unrecorded.power_cycles.is_empty());
        assert_eq!(unrecorded.power_cycle_count, recorded.power_cycle_count);
        assert!(unrecorded.power_cycle_count >= 2);
        // Everything except the record vector must be byte-identical —
        // the flag is observability-only, never behavioural.
        let mut stripped = recorded;
        stripped.power_cycles.clear();
        assert_eq!(stripped, unrecorded);
    }

    #[test]
    fn acc_compresses_and_completes() {
        let stats = run_small(App::Jpegd, GovernorSpec::Acc);
        assert!(stats.completed);
        assert!(stats.compression_ops() > 0, "ACC should compress sometimes");
        assert!(stats.breakdown[EnergyCategory::Compress].picojoules() > 0.0);
    }

    #[test]
    fn kagura_averts_compressions() {
        // g721d keeps ACC's predictor positive all cycle (table reuse), so
        // end-of-cycle compressions exist for Kagura's RM mode to avert.
        let acc = run_small(App::G721d, GovernorSpec::Acc);
        let kag = run_small(App::G721d, GovernorSpec::AccKagura(Default::default()));
        assert!(kag.completed);
        assert!(
            kag.compression_ops() < acc.compression_ops(),
            "Kagura ({}) should compress less than ACC ({})",
            kag.compression_ops(),
            acc.compression_ops()
        );
    }

    #[test]
    fn energy_conservation_within_budget() {
        // Total consumed energy cannot exceed harvested + initial charge.
        let stats = run_small(App::Gsm, GovernorSpec::Acc);
        let initial = {
            let c = SimConfig::table1().capacitor;
            c.energy_at(c.v_max)
        };
        let budget = stats.harvested + initial;
        assert!(
            stats.total_energy().picojoules() <= budget.picojoules() * 1.001,
            "consumed {} > budget {}",
            stats.total_energy(),
            budget
        );
    }

    #[test]
    fn cap_leak_is_counted_once_inside_other() {
        // Strict per-cycle conservation auditing: double-counting the
        // capacitor leakage inside the `Other` bucket would inflate
        // consumed beyond harvested − Δstored by the leak amount every
        // cycle and abort the run here.
        let cfg = SimConfig::table1().with_audit_strict(true);
        let stats = run_cfg(App::Sha, cfg);
        assert!(stats.completed);
        assert_eq!(stats.ledger_violations, 0);
        assert!(stats.cap_leak.picojoules() > 0.0, "leakage must be modelled");
        // Leakage sits inside `Other` (Table III reports it as a share of
        // the total) — once, alongside pipeline and monitor energy.
        assert!(stats.breakdown[EnergyCategory::Other] >= stats.cap_leak);
    }

    #[test]
    fn ledger_balances_across_designs_and_governors() {
        for design in EhsDesign::ALL {
            for governor in [
                GovernorSpec::NoCompression,
                GovernorSpec::Acc,
                GovernorSpec::AccKagura(Default::default()),
            ] {
                let cfg = SimConfig::table1()
                    .with_design(design)
                    .with_governor(governor)
                    .with_audit_strict(true);
                let stats = run_cfg(App::Crc32, cfg);
                assert!(stats.completed, "{design}/{} did not complete", governor.label());
                assert_eq!(stats.ledger_violations, 0, "{design}/{}", governor.label());
            }
        }
    }

    #[test]
    fn power_cycles_are_in_the_paper_regime() {
        let stats = run_small(App::Sha, GovernorSpec::NoCompression);
        let avg = stats.avg_insts_per_cycle();
        assert!((500.0..50_000.0).contains(&avg), "avg insts/cycle = {avg}");
    }

    #[test]
    fn nvmr_and_sweepcache_complete() {
        for design in [EhsDesign::Nvmr, EhsDesign::SweepCache] {
            let cfg = SimConfig::table1().with_design(design).with_governor(GovernorSpec::Acc);
            let stats = run_cfg(App::Gsm, cfg);
            assert!(stats.completed, "{design} did not complete");
        }
    }

    #[test]
    fn sweepcache_reexecutes_lost_work() {
        let cfg = SimConfig::table1().with_design(EhsDesign::SweepCache);
        let stats = run_cfg(App::Gsm, cfg);
        assert!(stats.completed);
        assert!(
            stats.executed_insts > stats.committed_insts,
            "rollback must cause re-execution ({} executed vs {} committed)",
            stats.executed_insts,
            stats.committed_insts
        );
    }

    #[test]
    fn extensions_run_to_completion() {
        for ext in [Extension::edbp(), Extension::ipex()] {
            let mut cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
            cfg.extension = ext;
            let stats = run_cfg(App::Jpegd, cfg);
            assert!(stats.completed, "{ext:?} did not complete");
        }
    }

    #[test]
    fn dead_trace_hits_time_guard() {
        let mut cfg = SimConfig::table1();
        cfg.max_sim_time = SimTime::from_seconds(0.5);
        let program = App::Sha.build(1.0);
        let trace = PowerTrace::constant(ehs_model::Power::from_microwatts(0.001), 100);
        let stats = Simulator::new(cfg, &program, &trace).run();
        assert!(!stats.completed);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_small(App::Dijkstra, GovernorSpec::AccKagura(Default::default()));
        let b = run_small(App::Dijkstra, GovernorSpec::AccKagura(Default::default()));
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.committed_insts, b.committed_insts);
        assert_eq!(a.compression_ops(), b.compression_ops());
    }

    #[test]
    fn instrumented_run_matches_plain_run_and_records_events() {
        for design in EhsDesign::ALL {
            check_instrumented_run(design);
        }
    }

    fn check_instrumented_run(design: EhsDesign) {
        use ehs_telemetry::VecSink;

        let cfg = SimConfig::table1()
            .with_design(design)
            .with_governor(GovernorSpec::AccKagura(Default::default()));
        let program = App::G721d.build(0.02);
        let trace = PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 400_000);

        let plain = Simulator::new(cfg.clone(), &program, &trace).run();

        let mut sink = VecSink::new();
        let mut sim = Simulator::new(cfg, &program, &trace);
        sim.attach_telemetry(&mut sink);
        let Observed { stats, metrics, .. } = sim.run_observed();

        // Telemetry must observe, never perturb.
        assert_eq!(stats, plain, "{design}: telemetry perturbed the run");

        let events = sink.into_events();
        let failures =
            events.iter().filter(|e| matches!(e.event, Event::PowerFailure { .. })).count();
        let reboots = events.iter().filter(|e| matches!(e.event, Event::Reboot { .. })).count();
        let samples =
            events.iter().filter(|e| matches!(e.event, Event::EstimatorSample { .. })).count();
        assert_eq!(failures, stats.checkpoints as usize);
        assert_eq!(reboots + 1, failures + if stats.completed { 1 } else { 0 });
        // One estimator sample per failure once history exists.
        assert_eq!(samples, failures - 1);
        assert!(events.iter().any(|e| matches!(e.event, Event::CompressedFill { .. })));
        assert!(events.iter().any(|e| matches!(e.event, Event::ModeSwitch { cm_to_rm: true, .. })));

        // One flight record per power-cycle boundary, none spurious, and
        // its ledger row balances (the audit also ran in-sim: zero
        // violations on a healthy trace).
        let flights: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.event {
                Event::FlightRecord(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(flights.len(), failures);
        assert_eq!(stats.ledger_violations, 0);
        assert!(!events.iter().any(|e| matches!(e.event, Event::LedgerImbalance { .. })));
        for r in &flights {
            assert_eq!(r.mem_ops, r.actual_remaining, "Kagura's R_mem counts the cycle's mem ops");
            assert!(r.mode == "CM" || r.mode == "RM");
            let consumed = r.compress_pj
                + r.decompress_pj
                + r.cache_other_pj
                + r.memory_pj
                + r.checkpoint_restore_pj
                + r.other_pj;
            let residual = (r.harvested_pj - consumed - r.delta_stored_pj).abs();
            assert!(residual < 1.0, "flight-record ledger row out of balance by {residual} pJ");
            // Late fills (after the last useful one) are never
            // re-referenced, so they are a subset of the wasted ones.
            assert!(r.wasted_fills >= r.late_compressions);
        }
        // Compression happened, so some cycles must show wasted fills
        // (blocks compressed and never re-referenced before the outage).
        assert!(flights.iter().any(|r| r.wasted_fills > 0 && r.wasted_pj > 0.0));

        // Stamps are monotone and cycle indices agree with the stats.
        for w in events.windows(2) {
            assert!(w[1].t_us >= w[0].t_us, "time went backwards");
            assert!(w[1].cycle >= w[0].cycle, "cycle index went backwards");
        }
        // One metrics snapshot per closed cycle plus the end-of-run one.
        assert_eq!(metrics.snapshots().len(), stats.checkpoints as usize + 1);
    }

    #[test]
    fn trace_kinds_all_work() {
        for kind in TraceKind::ALL {
            let mut cfg = SimConfig::table1();
            cfg.trace_kind = kind;
            let program = App::Crc32.build(0.01);
            let trace = PowerTrace::generate(kind, 1, 400_000);
            let stats = Simulator::new(cfg, &program, &trace).run();
            assert!(stats.completed, "{kind} failed");
        }
    }
}
