//! Full-system energy-harvesting processor simulator.
//!
//! Ties every substrate together into the paper's evaluation platform: an
//! in-order core with compressed I/D caches ([`ehs_cache`]), NVM main
//! memory ([`ehs_mem`]), a capacitor charged from an ambient power trace
//! ([`ehs_energy`]), a JIT-checkpointing EHS runtime, and a compression
//! governor ([`kagura_core`]).
//!
//! Three EHS designs are modelled (paper §VIII-H1):
//!
//! * [`EhsDesign::NvsramCache`] — the default: a voltage monitor fires a
//!   just-in-time checkpoint (dirty cache blocks + registers → NVM) when
//!   the capacitor crosses `V_ckpt`; execution resumes exactly where it
//!   stopped.
//! * [`EhsDesign::Nvmr`] — monitor-free: stores persist incrementally
//!   through a renaming buffer (charged per store), so power failure needs
//!   no checkpoint and loses no work.
//! * [`EhsDesign::SweepCache`] — monitor-free, region-based: dirty blocks
//!   are swept to NVM at region boundaries; work since the last boundary
//!   is lost and re-executed after reboot.
//!
//! The simulator is instruction-granular: each committed instruction pays
//! its fetch (ICache), execute and data (DCache) latencies and energies,
//! harvest is integrated over the elapsed time, and the voltage monitor is
//! checked. See DESIGN.md for why this granularity suffices for Kagura.
//!
//! # Examples
//!
//! ```
//! use ehs_sim::{GovernorSpec, SimConfig};
//! use ehs_workloads::App;
//!
//! let mut cfg = SimConfig::table1();
//! cfg.governor = GovernorSpec::AccKagura(Default::default());
//! let stats = ehs_sim::run_app(App::Sha, 0.02, &cfg);
//! assert!(stats.completed);
//! assert!(stats.power_cycles.len() > 1);
//! ```

pub mod cachescope;
pub mod config;
pub mod faultinject;
pub mod fleet;
pub mod governor;
pub mod leakscope;
pub mod machine;
pub mod parallel;
pub mod runner;
pub mod stats;

pub use cachescope::{
    CachescopeAggregator, CachescopeConfig, CachescopeReport, CycleScope, LatencyAttribution,
    OccupancySnapshot, ScopeCounters,
};
pub use config::{EhsDesign, ExecMode, Extension, GovernorSpec, SimConfig, StepBudget};
pub use faultinject::{FaultCampaignReport, GoldenState, InjectionPlan};
pub use fleet::{FleetCell, FleetSpec, Permutation};
pub use governor::Governor;
pub use leakscope::{attack_cell, attack_trace, CellAttackReport, GuessProbe, LeakscopeOptions};
pub use machine::{FaultKind, Observed, Simulator};
pub use parallel::{pool_in_flight, run_batch, run_job, JobFailure, SimJob};
pub use runner::{run_app, run_program};
pub use stats::{ConsistencyReport, CycleRecord, SimStats};
